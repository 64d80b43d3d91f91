//! Metric catalogue, the result line, the host record, and the sample
//! statistics both passes share.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::gate::Ops;

/// End-to-end metrics `(name, unit)`: every untraced run reports all of
/// them. `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_ms_p50", "ms"),
    ("solve_ms_p90", "ms"),
    ("rhs_per_s", "1/s"),
    ("step_s_p50", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: every traced run reports all of
/// them. `BENCHMARK.json` lists the same names and units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("partition.s", "s"),
    ("partition.sep", "count"),
    ("partition.nnz_d_imbalance", "ratio"),
    ("extract.s", "s"),
    ("lu_d.s", "s"),
    ("lu_d.max_s", "s"),
    ("lu_d.fill", "count"),
    ("refactor.domains_s", "s"),
    ("refactor.schur_s", "s"),
    ("interface.s", "s"),
    ("interface.numeric_s", "s"),
    ("interface.max_s", "s"),
    ("interface.flops", "count"),
    ("interface.padded_zeros", "count"),
    ("interface.nnz_t", "count"),
    ("schur.assemble_s", "s"),
    ("schur.nnz_s_hat", "count"),
    ("lu_s.s", "s"),
    ("lu_s.nnz_s_tilde", "count"),
    ("lu_s.fill", "count"),
    ("lu_s.density", "ratio"),
    ("solve.ms", "ms"),
    ("solve.ms_serial", "ms"),
    ("krylov.iters", "count"),
    ("seq.stale_fallbacks", "count"),
    ("trisolve.schur_ms", "ms"),
    ("trisolve.schur_ms_serial", "ms"),
    ("trisolve.domains_ms", "ms"),
    ("trisolve.domains_ms_serial", "ms"),
    ("trisolve.levels", "count"),
    ("trisolve.max_width", "count"),
    ("spmv.ms", "ms"),
    ("spmv.ms_serial", "ms"),
    ("driver.setup_gap_s", "s"),
    ("driver.update_gap_s", "s"),
    ("trace.stage_share", "ratio"),
];

/// The outcome of one run: the result line plus the record that lets a
/// claim be re-checked.
#[derive(Debug)]
pub struct Report {
    catalogue: &'static [(&'static str, &'static str)],
    metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// False when a cross-check between two views of the same run
    /// disagrees (the traced pass's interface stage against setup's).
    pub consistent: bool,
    /// Sample counts behind the reported medians and percentiles.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Report {
    /// An empty report for the end-to-end (`trace = false`) or the
    /// per-layer (`trace = true`) catalogue.
    pub fn new(trace: bool) -> Report {
        Report {
            catalogue: if trace { PER_LAYER } else { END_TO_END },
            metrics: BTreeMap::new(),
            ops: Ops::default(),
            consistent: true,
            samples: BTreeMap::new(),
        }
    }

    /// Sets a metric. Panics on a name outside this report's catalogue,
    /// which is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.catalogue.iter().any(|&(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Whether the run's outputs were all correct.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0 && self.consistent
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every catalogue metric with its unit. Fails when a
    /// metric is missing or not finite.
    pub fn result_line(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.ops.attempted,
            self.ops.failed
        );
        for (i, &(name, unit)) in self.catalogue.iter().enumerate() {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident memory of this process in MB (`VmHWM`), or `None`
/// where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host and build facts a result depends on, as one JSON object.
pub fn host_record(
    workload: &str,
    seed: u64,
    trace: bool,
    samples: &BTreeMap<&str, usize>,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = std::env::var(pdslin::par::THREADS_ENV).map_or_else(
        |_| "null".to_string(),
        |v| format!("\"{}\"", v.escape_default()),
    );
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let samples: Vec<String> = samples
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"record\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \
         \"nproc\": {nproc}, \"pdslin_threads\": {threads}, \"git_rev\": \"{}\", \
         \"profile\": \"{profile}\", \"samples\": {{{}}}}}}}",
        u8::from(trace),
        git_rev(),
        samples.join(", ")
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let rev = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            let packed = read(".git/packed-refs")?;
            packed
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
        None => Some(head),
    });
    rev.filter(|r| r.chars().all(|c| c.is_ascii_hexdigit()) && !r.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
