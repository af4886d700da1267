//! `scan_stream`: a cold 1,000,000-unit `pattern-aggr` streamed scan
//! into a fresh store, then warm deltas that grow the corpus by `k`
//! units per step, so every step rescans exactly `k` units.

use std::time::{Duration, Instant};

use vdbench_core::{cache, streamed_scan_serial, streamed_scan_with_threads, StreamedScanReport};
use vdbench_corpus::CorpusBuilder;
use vdbench_detectors::{score_findings, Detector, PatternScanner};

use crate::util::{
    cold_store, drop_store, ms, sync_store, timed, Metrics, Scratch, Tally,
};
use crate::{Run, THREADS};

/// Corpus size of every cold scan.
pub const UNITS: usize = 1_000_000;

/// Units each warm delta adds.
pub const DELTA_K: usize = 1_000;

/// Warm deltas after each cold scan.
const DELTAS_PER_COLD: usize = 12;

/// Set-ups per run, each a fresh store plus a warm-up scan of
/// [`WARMUP_UNITS`] (about 0.6 s; shorter ones read noisier).
const SETUPS: usize = 5;
const WARMUP_UNITS: usize = 196_608;

/// Corpus size of the once-per-run pipelined-versus-serial check.
const CHECK_UNITS: usize = 24_576;

const SHARD: usize = vdbench_core::DEFAULT_SHARD_UNITS;

/// The corpus of `units` units for workload seed `seed` (the `vdbench
/// scale` generator defaults).
fn builder(seed: u64, units: usize) -> CorpusBuilder {
    CorpusBuilder::new()
        .units(units)
        .vulnerability_density(0.3)
        .seed(seed)
        .clone()
}

fn scan(
    tool: &PatternScanner,
    seed: u64,
    units: usize,
    traced: bool,
) -> (StreamedScanReport, Duration) {
    if traced {
        vdbench_telemetry::enable();
    }
    let out = timed(|| streamed_scan_with_threads(tool, &builder(seed, units), SHARD, THREADS));
    if traced {
        vdbench_telemetry::disable();
        drop(vdbench_telemetry::take_trace());
    }
    out
}

/// Set-up, then rounds of one cold scan and its warm deltas until
/// `seconds` have been measured, then the serial-oracle check.
pub fn run(scratch: &mut Scratch, seed: u64, seconds: f64, traced: bool) -> Run {
    let tool = PatternScanner::aggressive();
    let mut run = Run::default();
    for _ in 0..SETUPS {
        let start = Instant::now();
        let dir = cold_store(scratch, "scan-setup");
        let (report, _) = scan(&tool, seed, WARMUP_UNITS, false);
        run.setup_s.push(start.elapsed().as_secs_f64());
        run.tally.expect(
            "warm-up scan",
            report.rescanned == WARMUP_UNITS as u64,
            || format!("rescanned {} of {WARMUP_UNITS}", report.rescanned),
        );
        drop_store(&dir);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut first: Option<StreamedScanReport> = None;
    let mut cold_time = Duration::ZERO;
    while run.cold_ms.count() == 0 || Instant::now() < deadline {
        let dir = cold_store(scratch, "scan");
        let (cold, took) = scan(&tool, seed, UNITS, traced);
        let disk_hits = cache::stats().disk_hits;
        let same = first.as_ref().is_none_or(|f| *f == cold);
        let cold_ok = disk_hits == 0;
        run.tally.expect(
            "cold scan",
            cold_ok && same && cold.rescanned == UNITS as u64 && cold.replayed == 0,
            || {
                format!(
                    "disk hits {disk_hits} (must be 0), rescanned {} replayed {}, \
                     report {} the first cold scan",
                    cold.rescanned,
                    cold.replayed,
                    if same { "equals" } else { "differs from" }
                )
            },
        );
        if cold_ok {
            run.cold_ms.record(ms(took));
            cold_time += took;
            run.ops += UNITS as f64;
        }
        first.get_or_insert(cold);
        // The cold scan leaves ~60 MB of dirty pages behind; flush them
        // (untimed) so their writeback does not land inside the deltas.
        sync_store(&dir);
        for step in 1..=DELTAS_PER_COLD {
            let grown = UNITS + step * DELTA_K;
            let (delta, took) = scan(&tool, seed, grown, traced);
            run.tally.expect(
                "delta rescan",
                delta.units == grown as u64
                    && delta.rescanned == DELTA_K as u64
                    && delta.replayed == (grown - DELTA_K) as u64,
                || {
                    format!(
                        "grown to {grown}: units {} rescanned {} replayed {}",
                        delta.units, delta.rescanned, delta.replayed
                    )
                },
            );
            run.warm_ms.record(ms(took));
        }
        drop_store(&dir);
    }
    run.op_seconds = cold_time.as_secs_f64();

    // The pipelined report must equal the serial oracle's (untimed).
    let dir = cold_store(scratch, "scan-check-pipelined");
    let pipelined = streamed_scan_with_threads(&tool, &builder(seed, CHECK_UNITS), SHARD, THREADS);
    drop_store(&dir);
    let dir = cold_store(scratch, "scan-check-serial");
    let serial = streamed_scan_serial(&tool, &builder(seed, CHECK_UNITS), SHARD);
    drop_store(&dir);
    run.tally
        .expect("pipelined vs serial scan", pipelined == serial, || {
            format!("pipelined {pipelined:?} != serial {serial:?}")
        });
    run
}

/// The scan path's per-layer metrics, on the workload's own corpus: plan,
/// materialize, scan and score timed shard by shard on the plans the
/// pipelined scan consumes; the pipeline's remainder; an unchanged warm
/// rescan and one grow-by-k delta with its report counts; and blob-store
/// put/get at the manifest and artifact blob sizes.
pub fn layers(scratch: &mut Scratch, seed: u64) -> (Metrics, Tally) {
    let tool = PatternScanner::aggressive();
    let mut m = Metrics::default();
    let mut tally = Tally::default();

    let dir = cold_store(scratch, "scan-layers");
    let (cold, wall) =
        timed(|| streamed_scan_with_threads(&tool, &builder(seed, UNITS), SHARD, THREADS));
    tally.expect("traced cold scan", cold.rescanned == UNITS as u64, || {
        format!("rescanned {} of {UNITS}", cold.rescanned)
    });
    let store_bytes = vdbench_core::blob_inventory_in(&dir).live_bytes();
    let (replay, replay_took) =
        timed(|| streamed_scan_with_threads(&tool, &builder(seed, UNITS), SHARD, THREADS));
    tally.expect("unchanged rescan", replay.replayed == UNITS as u64, || {
        format!("replayed {} of {UNITS}", replay.replayed)
    });
    let grown = UNITS + DELTA_K;
    let delta = streamed_scan_with_threads(&tool, &builder(seed, grown), SHARD, THREADS);
    tally.expect("traced delta", delta.rescanned == DELTA_K as u64, || {
        format!("rescanned {} of {DELTA_K}", delta.rescanned)
    });
    let manifest_bytes = vdbench_core::blob_inventory_in(&dir)
        .kinds
        .get("manifest")
        .map_or(0.0, |(n, b)| *b as f64 / (*n).max(1) as f64);
    drop_store(&dir);

    // The stages, one shard at a time, on the same plans.
    let (mut plan, mut mat, mut scan, mut score) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let b = builder(seed, UNITS);
    let mut stream = b.stream();
    let materializer = stream.materializer();
    let name = tool.name();
    loop {
        let (plans, took) = timed(|| stream.next_plans(SHARD));
        plan += took;
        if plans.is_empty() {
            break;
        }
        let (shard, took) = timed(|| materializer.materialize(&plans));
        mat += took;
        let (findings, took) = timed(|| tool.analyze_corpus(&shard));
        scan += took;
        let (outcome, took) = timed(|| score_findings(&name, &shard, &findings));
        score += took;
        std::hint::black_box(outcome);
    }
    let per_unit_us = |d: Duration| d.as_secs_f64() * 1e6 / UNITS as f64;
    m.put("corpus.plan_ns_per_unit", per_unit_us(plan) * 1e3, "ns");
    m.put("corpus.materialize_us_per_unit", per_unit_us(mat), "us");
    m.put("detectors.shard_scan_us_per_unit", per_unit_us(scan), "us");
    m.put("detectors.score_us_per_unit", per_unit_us(score), "us");
    let stages = plan + mat + scan + score;
    m.put("core.scale_wall_ms", ms(wall), "ms");
    m.put(
        "core.scale_self_ms",
        ms(wall) - ms(stages) / THREADS as f64,
        "ms",
    );
    m.put("core.scale_replay_ms", ms(replay_took), "ms");
    m.put("core.scan.rescanned", delta.rescanned as f64, "count");
    m.put("core.scan.replayed", delta.replayed as f64, "count");
    m.put("core.scan.digest_hits", delta.digest_hits as f64, "count");
    m.put(
        "core.scan.store_bytes_per_unit",
        store_bytes as f64 / UNITS as f64,
        "B/unit",
    );

    blob_io(scratch, &mut m, manifest_bytes as usize);
    (m, tally)
}

/// Median put/get times of the two blob codecs: string blobs the size of
/// a campaign artifact and byte blobs the size of a shard manifest.
fn blob_io(scratch: &mut Scratch, m: &mut Metrics, manifest_bytes: usize) {
    const REPS: u64 = 64;
    let dir = cold_store(scratch, "blob-io");
    let text = "x".repeat(4096);
    let bytes = vec![0x5au8; manifest_bytes.max(1)];
    let mut put = Vec::new();
    let mut get = Vec::new();
    let mut bput = Vec::new();
    let mut bget = Vec::new();
    for key in 0..REPS {
        put.push(timed(|| cache::raw_blob_put("vdperf-text", key, &text)).1);
        bput.push(timed(|| cache::bytes_blob_put("vdperf-bytes", key, &bytes)).1);
    }
    for key in 0..REPS {
        get.push(timed(|| std::hint::black_box(cache::raw_blob_get("vdperf-text", key))).1);
        bget.push(timed(|| std::hint::black_box(cache::bytes_blob_get("vdperf-bytes", key))).1);
    }
    drop_store(&dir);
    let us = |v: &[Duration]| {
        crate::util::median(&v.iter().map(|d| d.as_secs_f64() * 1e6).collect::<Vec<_>>())
    };
    m.put("cache.blob_put_us", us(&put), "us");
    m.put("cache.blob_get_us", us(&get), "us");
    m.put("cache.bytes_put_us", us(&bput), "us");
    m.put("cache.bytes_get_us", us(&bget), "us");
}
