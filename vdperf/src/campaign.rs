//! `campaign`: the 16-artifact paper campaign, cold from a fresh blob
//! store and then replayed warm against the same store.
//!
//! The renderers pin their own inputs (`EXPERIMENT_SEED`), so the
//! workload seed does not change what this workload computes.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rayon::prelude::*;
use vdbench_bench::{figures, tables, EXPERIMENT_SEED};
use vdbench_core::{cache, campaign, scenario::standard_scenarios};

use crate::util::{
    cold_store, drop_store, ms, per_call_us, timed, Metrics, Scratch, Tally,
};
use crate::Run;

/// One campaign artifact: its name and its renderer.
type Artifact = (&'static str, fn() -> String);

/// The campaign artifacts in transcript order (the order `run_all`
/// prints them in).
const ARTIFACTS: [Artifact; 16] = [
    ("preamble", tables::preamble),
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("table6", tables::table6),
    ("table7", tables::table7),
    ("table8", tables::table8),
    ("table9", tables::table9),
    ("fig1", figures::fig1),
    ("fig2", figures::fig2),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
];

/// The committed transcript every cold pass must reproduce.
const GOLDEN: &str = "results/run_all.txt";

/// Set-ups per run (each a fresh store plus one warm-up pass).
const SETUPS: usize = 3;

/// Warm replays after each cold pass.
const WARM_PER_COLD: usize = 16;

/// One campaign pass: every artifact through the artifact cache tier on
/// the worker pool, joined in transcript order exactly as `run_all`
/// prints them. With `per_artifact`, each renderer call is timed from
/// outside (only renderers that actually run are timed).
fn pass(per_artifact: Option<&Mutex<Vec<Duration>>>) -> String {
    let staged: Vec<String> = (0..ARTIFACTS.len())
        .into_par_iter()
        .map(|i| {
            let (name, render) = ARTIFACTS[i];
            vdbench_core::cached_artifact(name, EXPERIMENT_SEED, || match per_artifact {
                None => render(),
                Some(times) => {
                    let (text, took) = timed(render);
                    times.lock().expect("artifact timing lock")[i] += took;
                    text
                }
            })
        })
        .collect();
    let mut transcript = String::new();
    for text in staged {
        transcript.push_str(&text);
        transcript.push('\n');
    }
    transcript
}

fn read_golden() -> Result<String, String> {
    std::fs::read_to_string(GOLDEN).map_err(|e| format!("cannot read {GOLDEN}: {e}"))
}

/// Runs a pass with span recording on when `traced`, draining the trace
/// afterwards (untimed) so buffers stay bounded.
fn timed_pass(traced: bool) -> (String, Duration) {
    if traced {
        vdbench_telemetry::enable();
    }
    let out = timed(|| pass(None));
    if traced {
        vdbench_telemetry::disable();
        drop(vdbench_telemetry::take_trace());
    }
    out
}

/// Set-up (fresh store, warm-up pass), then cold passes each followed by
/// warm replays until `seconds` have been measured.
pub fn run(scratch: &mut Scratch, seconds: f64, traced: bool) -> Result<Run, String> {
    let golden = read_golden()?;
    let mut run = Run::default();
    for _ in 0..SETUPS {
        let start = Instant::now();
        let dir = cold_store(scratch, "campaign-setup");
        let text = pass(None);
        run.setup_s.push(start.elapsed().as_secs_f64());
        run.tally
            .expect("campaign warm-up pass", text == golden, || {
                format!("transcript differs from {GOLDEN}")
            });
        drop_store(&dir);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut op_time = Duration::ZERO;
    while run.cold_ms.count() == 0 || Instant::now() < deadline {
        let dir = cold_store(scratch, "campaign");
        let (cold, took) = timed_pass(traced);
        let stats = cache::stats();
        // Cold means cold: a sample that read anything from disk is not
        // a cold sample.
        let cold_ok = stats.disk_hits == 0;
        run.tally
            .expect("cold pass", cold_ok && cold == golden, || {
                format!(
                    "disk hits {} (must be 0), transcript {}",
                    stats.disk_hits,
                    if cold == golden { "matches" } else { "differs" }
                )
            });
        if cold_ok {
            run.cold_ms.record(ms(took));
            op_time += took;
            run.ops += ARTIFACTS.len() as f64;
        }
        for _ in 0..WARM_PER_COLD {
            // Memory tier cleared, disk tier warm.
            cache::clear();
            let (warm, took) = timed_pass(traced);
            let stats = cache::stats();
            run.tally.expect(
                "warm replay",
                warm == cold && stats.artifact_hits == ARTIFACTS.len() as u64,
                || {
                    format!(
                        "{} artifact hits of {}, transcript {}",
                        stats.artifact_hits,
                        ARTIFACTS.len(),
                        if warm == cold { "matches" } else { "differs" }
                    )
                },
            );
            run.warm_ms.record(ms(took));
            op_time += took;
            run.ops += ARTIFACTS.len() as f64;
        }
        drop_store(&dir);
    }
    run.op_seconds = op_time.as_secs_f64();
    Ok(run)
}

/// The campaign's per-layer metrics: renderer times inside one cold pass,
/// registry counter deltas over a cold pass and a warm replay, and the
/// core, detector, stats and MCDA entry points the renderers call, each
/// timed from outside at the campaign's sizes.
pub fn layers(scratch: &mut Scratch) -> Result<(Metrics, Tally), String> {
    let golden = read_golden()?;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let registry = vdbench_telemetry::registry::global();
    let vm_instructions = registry.counter("interp.vm.instructions");
    let deduped = registry.counter("scan.sessions.deduped");

    // One cold pass with every renderer timed, then one warm replay.
    let dir = cold_store(scratch, "campaign-layers");
    let (vm0, dd0) = (vm_instructions.get(), deduped.get());
    let times = Mutex::new(vec![Duration::ZERO; ARTIFACTS.len()]);
    let (cold, wall) = timed(|| pass(Some(&times)));
    let (vm1, dd1) = (vm_instructions.get(), deduped.get());
    let cold_stats = cache::stats();
    tally.expect("traced cold pass", cold == golden, || {
        format!("transcript differs from {GOLDEN}")
    });
    cache::clear();
    let warm = pass(None);
    let warm_stats = cache::stats();
    tally.expect("traced warm replay", warm == cold, || {
        "warm replay differs from the cold pass".into()
    });
    drop_store(&dir);

    let times = times.into_inner().expect("artifact timing lock");
    let mut work = 0.0;
    for ((name, _), took) in ARTIFACTS.iter().zip(&times) {
        m.put(format!("bench.artifact_ms.{name}"), ms(*took), "ms");
        work += ms(*took);
    }
    m.put("bench.artifact_sum_ms", work, "ms");
    m.put("bench.pass_ms", ms(wall), "ms");
    m.put("corpus.vm_instructions", (vm1 - vm0) as f64, "count");
    m.put("detectors.sessions_deduped", (dd1 - dd0) as f64, "count");
    m.put(
        "cache.disk_hits",
        (cold_stats.disk_hits + warm_stats.disk_hits) as f64,
        "count",
    );
    m.put(
        "cache.disk_misses",
        (cold_stats.disk_misses + warm_stats.disk_misses) as f64,
        "count",
    );
    m.put(
        "cache.disk_writes",
        (cold_stats.disk_writes + warm_stats.disk_writes) as f64,
        "count",
    );

    // Case studies and the attribute assessment, uncached.
    vdbench_core::set_disk_cache(None);
    for scenario in standard_scenarios() {
        let (report, took) = timed(|| campaign::run_case_study(&scenario, EXPERIMENT_SEED));
        tally.expect("case study", report.is_ok(), || {
            format!("{:?}", report.err())
        });
        m.put(
            format!("core.case_study_ms.{}", scenario.id),
            ms(took),
            "ms",
        );
    }
    let catalog = vdbench_metrics::standard_catalog();
    let cfg = vdbench_bench::experiment_config();
    let (_, took) = timed(|| vdbench_core::assess_catalog(&catalog, &cfg));
    m.put("core.assess_catalog_ms", ms(took), "ms");

    // Every standard tool on every scenario corpus.
    let tools = campaign::standard_tools(EXPERIMENT_SEED);
    let mut per_tool = vec![Duration::ZERO; tools.len()];
    let mut units = 0usize;
    for scenario in standard_scenarios() {
        let corpus = campaign::scenario_corpus(&scenario, EXPERIMENT_SEED);
        units += corpus.units().len();
        for (tool, total) in tools.iter().zip(per_tool.iter_mut()) {
            let (outcome, took) =
                timed(|| vdbench_detectors::score_detector(tool.as_ref(), &corpus));
            std::hint::black_box(outcome);
            *total += took;
        }
    }
    for (tool, total) in tools.iter().zip(&per_tool) {
        m.put(
            format!("detectors.scan_us_per_unit.{}", tool.name()),
            total.as_secs_f64() * 1e6 / units as f64,
            "us",
        );
    }

    stats_and_mcda(&mut m);
    Ok((m, tally))
}

/// `kendall_tau` at the assessment's tool-sample size, a percentile
/// bootstrap at its workload size and replicate count, and one AHP solve
/// over the selection's criteria and candidates.
fn stats_and_mcda(m: &mut Metrics) {
    use vdbench_stats::{correlation::kendall_tau, Bootstrap, SeededRng};
    let cfg = vdbench_bench::experiment_config();
    let mut rng = SeededRng::new(EXPERIMENT_SEED);
    let x: Vec<f64> = (0..cfg.tool_sample)
        .map(|_| rng.uniform_in(0.0, 1.0))
        .collect();
    let y: Vec<f64> = (0..cfg.tool_sample)
        .map(|_| rng.uniform_in(0.0, 1.0))
        .collect();
    let tau = per_call_us(15, 200, || {
        std::hint::black_box(kendall_tau(std::hint::black_box(&x), &y).ok());
    });
    m.put("stats.kendall_tau_us", tau, "us");

    let data: Vec<f64> = (0..cfg.workload_size as usize)
        .map(|_| rng.uniform_in(0.0, 1.0))
        .collect();
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let boot = Bootstrap::new(cfg.replicates);
    let bootstrap_us = per_call_us(15, 2, || {
        let mut r = SeededRng::new(EXPERIMENT_SEED);
        std::hint::black_box(boot.percentile_ci(&data, 0.95, mean, &mut r).ok());
    });
    m.put("stats.bootstrap_ms", bootstrap_us / 1e3, "ms");

    let scenario = vdbench_core::Scenario::standard(vdbench_core::ScenarioId::S1Audit);
    let criteria: Vec<String> = vdbench_core::MetricAttribute::all()
        .iter()
        .map(|a| a.label().to_string())
        .collect();
    let candidates: Vec<String> = vdbench_core::selection::default_candidates()
        .iter()
        .map(|c| c.abbrev().to_string())
        .collect();
    let panel =
        vdbench_experts::Panel::homogeneous(&scenario.weight_vector(), 7, 0.25, EXPERIMENT_SEED);
    let consensus = panel.aggregate().expect("panel consensus");
    let ratings: Vec<Vec<f64>> = candidates
        .iter()
        .map(|_| criteria.iter().map(|_| rng.uniform_in(0.0, 1.0)).collect())
        .collect();
    let ahp = vdbench_mcda::Ahp::with_ratings(
        criteria.clone(),
        consensus,
        candidates,
        ratings,
        vec![vdbench_mcda::Direction::Benefit; criteria.len()],
    )
    .expect("AHP hierarchy");
    let solve = per_call_us(15, 50, || {
        std::hint::black_box(ahp.solve().ok());
    });
    m.put("mcda.ahp_solve_us", solve, "us");
}
