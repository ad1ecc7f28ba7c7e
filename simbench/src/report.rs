//! Metric records, the result line, and the host fingerprint.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-name median over several metric lists with the same names in the
/// same order.
pub fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let first = runs.first().expect("at least one run");
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
            Metric::new(m.name.clone(), median(&values), m.unit)
        })
        .collect()
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` prints the shortest representation that round-trips, so
        // no measured digit is lost; non-finite values are not JSON.
        let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

/// The process's resident-set high-water mark (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Host fingerprint recorded with every run.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    // The repository root, where git must stop looking: a checkout without
    // its own `.git` may sit inside another repository.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository");
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".into());
    format!(
        "host nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" profile={} commit={commit}",
        env!("SIMBENCH_RUSTC"),
        env!("SIMBENCH_PROFILE")
    )
}
