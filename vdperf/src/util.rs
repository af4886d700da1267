//! Shared plumbing: the scratch directory, sample statistics, the metric
//! list a run prints, and the per-run failure tally.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Scratch space inside the invocation directory (the benchmark reads and
/// writes nothing outside it). Removed when dropped, including on the
/// error path of `main`.
pub struct Scratch {
    root: PathBuf,
    next: u32,
}

impl Scratch {
    /// Creates `.vdperf-tmp-<pid>` in the current directory.
    pub fn create() -> std::io::Result<Scratch> {
        let root = PathBuf::from(format!(".vdperf-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A new, empty directory for one blob store.
    pub fn fresh_store(&mut self, label: &str) -> PathBuf {
        self.next += 1;
        let dir = self.root.join(format!("{label}-{}", self.next));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch store directory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        vdbench_core::set_disk_cache(None);
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Points the blob store at a brand-new directory and empties the memory
/// tier and the cache counters: the start of every cold sample.
pub fn cold_store(scratch: &mut Scratch, label: &str) -> PathBuf {
    let dir = scratch.fresh_store(label);
    vdbench_core::set_disk_cache(Some(dir.clone()));
    assert_eq!(
        vdbench_core::disk_cache_dir().as_deref(),
        Some(dir.as_path()),
        "blob store could not be opened"
    );
    vdbench_core::cache::clear();
    dir
}

/// Removes a store directory once its samples are taken.
pub fn drop_store(dir: &Path) {
    if vdbench_core::disk_cache_dir().as_deref() == Some(dir) {
        vdbench_core::set_disk_cache(None);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Forces every blob of a store to disk.
pub fn sync_store(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(file) = std::fs::File::open(entry.path()) {
            let _ = file.sync_all();
        }
    }
}

/// Milliseconds of a duration, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Millisecond samples in log-spaced buckets 0.1% wide, from 0.1 µs to
/// 100 s: quantiles to 0.1% in fixed memory, so a run's own bookkeeping
/// does not grow with the number of operations it times (which would
/// show in `peak_rss_mb`).
#[derive(Clone)]
pub struct Samples {
    counts: Vec<u64>,
    n: u64,
}

const SAMPLE_MIN_MS: f64 = 1e-4;
const SAMPLE_BUCKETS: usize = 20_724;

fn ln_step() -> f64 {
    1.001f64.ln()
}

impl Default for Samples {
    fn default() -> Self {
        Samples {
            counts: vec![0; SAMPLE_BUCKETS],
            n: 0,
        }
    }
}

impl Samples {
    /// Adds one sample.
    pub fn record(&mut self, ms: f64) {
        let i = ((ms / SAMPLE_MIN_MS).ln() / ln_step()).floor();
        let i = if i.is_finite() {
            i.max(0.0) as usize
        } else {
            0
        };
        self.counts[i.min(SAMPLE_BUCKETS - 1)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Folds another set of samples in.
    pub fn merge(&mut self, other: &Samples) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile, as the geometric middle of its bucket; `NaN`
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SAMPLE_MIN_MS * ((i as f64 + 0.5) * ln_step()).exp();
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the median for `q = 0.5`). `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Aggregate `(steal, total)` CPU ticks from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    // cpu user nice system idle iowait irq softirq steal …
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

/// The share of CPU time the hypervisor stole from this machine over an
/// interval. On an oversubscribed host a virtual CPU is descheduled for
/// that share of the time, and every wall time measured meanwhile
/// stretches by it. Printed on stderr to explain a slow run; it does not
/// change any metric.
pub struct StealClock {
    start: Option<(u64, u64)>,
}

impl StealClock {
    pub fn start() -> StealClock {
        StealClock { start: cpu_ticks() }
    }

    /// Stolen ticks over all ticks since [`StealClock::start`]; 0 where
    /// `/proc/stat` is unavailable.
    pub fn stolen_share(&self) -> f64 {
        match (self.start, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    vdbench_telemetry::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// Operation outcomes of one run: every operation is attempted once, and
/// a failed or mismatched one is counted and described on stderr.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `Err` carries why its output was wrong.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("vdperf: {what} failed: {why}");
            }
        }
    }

    /// Records one operation that must satisfy `ok`.
    pub fn expect(&mut self, what: &str, ok: bool, why: impl FnOnce() -> String) {
        self.check(what, if ok { Ok(()) } else { Err(why()) });
    }

    /// Folds another tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Adds every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.entries.extend(other.entries);
    }

    /// One line per metric, for stderr.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<44} {value:>16.4} {unit}");
        }
        out
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_json(&self, tally: &Tally) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed == 0,
            tally.attempted,
            tally.failed
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest string that round-trips the f64:
            // every digit the measurement has.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// splitmix64: the request streams' generator (one per client thread).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median time per call of `f` over `reps` calls, in microseconds, each
/// sample timing a batch of `batch` calls (so sub-microsecond calls are
/// not lost to timer resolution).
pub fn per_call_us(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("cold_ms", 12.25, "ms");
        let line = m.result_json(&Tally {
            attempted: 3,
            failed: 0,
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"cold_ms\": {\"value\": 12.25, \"unit\": \"ms\"}}}"
        );
    }
}
