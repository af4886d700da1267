//! `vdperf`: the repository benchmark. One process runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path vdperf/Cargo.toml -- \
//!     --workload <campaign|scan_stream|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it measures the per-layer metrics and the tracing overhead. Either way
//! the last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a readable table goes to stderr.
//! Scratch stores live in `.vdperf-tmp-<pid>/` under the current
//! directory and are removed before exit. See `vdperf/README.md`.

mod campaign;
mod scan;
mod serve;
mod util;

use util::{median, peak_rss_mb, Metrics, Samples, Scratch, StealClock, Tally};

/// Worker threads: the rayon pool width and the scan's shard workers.
pub const THREADS: usize = 2;

/// The samples one measured run of a workload produced.
#[derive(Default)]
pub struct Run {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Milliseconds per cold operation.
    pub cold_ms: Samples,
    /// Milliseconds per warm operation.
    pub warm_ms: Samples,
    /// Operations completed, and the seconds they took.
    pub ops: f64,
    pub op_seconds: f64,
    pub tally: Tally,
}

const WORKLOADS: [&str; 3] = ["campaign", "scan_stream", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_string())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(
    args: &Args,
    scratch: &mut Scratch,
    seconds: f64,
    traced: bool,
) -> Result<Run, String> {
    match args.workload.as_str() {
        "campaign" => campaign::run(scratch, seconds, traced),
        "scan_stream" => Ok(scan::run(scratch, args.seed, seconds, traced)),
        _ => serve::run(scratch, args.seed, seconds, traced),
    }
}

/// Sample count, median, and the highest of p90/p99/p99.9 that has at
/// least ten samples beyond it.
fn describe(label: &str, samples: &Samples) -> String {
    let n = samples.count();
    let mut out = format!("{label}: n={n} p50={:.4} ms", samples.quantile(0.5));
    for (name, q) in [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)] {
        if n as f64 * (1.0 - q) >= 10.0 {
            out.push_str(&format!(" {name}={:.4} ms", samples.quantile(q)));
            break;
        }
    }
    out
}

/// Runs the workload untraced and prints the end-to-end metrics.
fn end_to_end(args: &Args, scratch: &mut Scratch) -> Result<(Metrics, Tally), String> {
    let clock = StealClock::start();
    let run = run_workload(args, scratch, args.seconds, false)?;
    // Information only: the metrics are plain wall times.
    eprintln!(
        "vdperf {}: {} set-ups, {:.0} ops in {:.3} s; hypervisor stole {:.2}% of CPU time\n  {}\n  {}",
        args.workload,
        run.setup_s.len(),
        run.ops,
        run.op_seconds,
        clock.stolen_share() * 100.0,
        describe("cold", &run.cold_ms),
        describe("warm", &run.warm_ms),
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&run.setup_s), "s");
    m.put("cold_ms", run.cold_ms.quantile(0.5), "ms");
    m.put("warm_ms", run.warm_ms.quantile(0.5), "ms");
    m.put("ops_per_s", run.ops / run.op_seconds, "1/s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    Ok((m, run.tally))
}

/// Runs the workload for half the time untraced and half with span
/// recording on (the overhead), then measures every layer.
fn per_layer(args: &Args, scratch: &mut Scratch) -> Result<(Metrics, Tally), String> {
    let half = args.seconds / 2.0;
    let plain = run_workload(args, scratch, half, false)?;
    let traced = run_workload(args, scratch, half, true)?;
    let overhead = |plain: f64, traced: f64| (traced / plain - 1.0) * 100.0;
    let mut m = Metrics::default();
    m.put(
        "trace.overhead_cold_pct",
        overhead(plain.cold_ms.quantile(0.5), traced.cold_ms.quantile(0.5)),
        "%",
    );
    m.put(
        "trace.overhead_warm_pct",
        overhead(plain.warm_ms.quantile(0.5), traced.warm_ms.quantile(0.5)),
        "%",
    );
    let mut tally = plain.tally;
    tally.absorb(traced.tally);
    let (cm, ct) = campaign::layers(scratch)?;
    let (sm, st) = scan::layers(scratch, args.seed);
    let (vm, vt) = serve::layers(scratch, args.seed)?;
    for (metrics, t) in [(cm, ct), (sm, st), (vm, vt)] {
        m.extend(metrics);
        tally.absorb(t);
    }
    Ok((m, tally))
}

fn execute(args: &Args) -> Result<String, String> {
    let mut scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let (metrics, tally) = if args.trace {
        per_layer(args, &mut scratch)?
    } else {
        end_to_end(args, &mut scratch)?
    };
    eprint!("{}", metrics.render_table());
    eprintln!(
        "  {:<44} {:>16} of {}",
        "failed operations", tally.failed, tally.attempted
    );
    Ok(metrics.result_json(&tally))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "vdperf: {e}\nusage: vdperf --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // The rayon stand-in reads the pool width per call.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    match execute(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("vdperf: {e}");
            std::process::exit(1);
        }
    }
}
