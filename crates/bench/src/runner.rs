//! Timing helpers.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// How many repetitions to run per wall-clock (code, input) cell. The paper
/// uses 9; `--repeats N` trades accuracy for turnaround. Simulated cells are
/// deterministic and run once whatever the count.
#[derive(Debug, Clone, Copy)]
pub struct Repeats(pub usize);

impl Default for Repeats {
    fn default() -> Self {
        Repeats(9)
    }
}

/// Runs `f` under a gpu-sim sanitizer session when `enabled`; otherwise
/// calls it directly. The report is printed to stderr afterwards and the
/// process exits nonzero if any violation was recorded, so `--sanitize`
/// runs double as a correctness gate in CI.
pub fn with_optional_sanitizer<R>(enabled: bool, f: impl FnOnce() -> R) -> R {
    if !enabled {
        return f();
    }
    let (out, report) = ecl_gpu_sim::with_sanitizer(f);
    eprintln!("{report}");
    if !report.is_clean() {
        eprintln!(
            "--sanitize: {} violation(s) detected; failing the run",
            report.violations().len()
        );
        std::process::exit(1);
    }
    out
}

/// Sibling profile-JSON path for a trace path: `out.json` →
/// `out.profile.json`.
pub fn profile_path(trace: &Path) -> PathBuf {
    let stem = trace
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("trace");
    trace.with_file_name(format!("{stem}.profile.json"))
}

/// Runs `f` under an ecl-trace session when `path` is set; otherwise calls
/// it directly. On a traced run, writes the Chrome trace JSON to `path` and
/// the machine-readable profile next to it, prints the per-round and
/// per-kernel tables to stderr (stdout stays parseable for `--csv` pipes),
/// and returns the profile and the session's wall-clock span breakdown
/// (per-kernel self/total host seconds) alongside `f`'s result.
pub fn with_optional_trace_breakdown<R>(
    path: Option<&Path>,
    f: impl FnOnce() -> R,
) -> (R, Option<(ecl_trace::Profile, Vec<ecl_trace::WallKernel>)>) {
    let Some(path) = path else { return (f(), None) };
    let (out, session) = ecl_trace::with_trace(f);
    let profile = session.profile();
    let breakdown = session.wall_breakdown();
    eprint!("{}", profile.round_table());
    eprint!("{}", profile.kernel_table());
    std::fs::write(path, session.chrome_trace())
        .unwrap_or_else(|e| panic!("--trace: cannot write {}: {e}", path.display()));
    let pp = profile_path(path);
    std::fs::write(&pp, profile.to_json())
        .unwrap_or_else(|e| panic!("--trace: cannot write {}: {e}", pp.display()));
    eprintln!("--trace: wrote {} and {}", path.display(), pp.display());
    (out, Some((profile, breakdown)))
}

/// [`with_optional_trace_breakdown`] for callers that don't need the profile.
pub fn with_optional_trace<R>(path: Option<&Path>, f: impl FnOnce() -> R) -> R {
    with_optional_trace_breakdown(path, f).0
}

/// Sibling Prometheus text path for a metrics path: `out/metrics.json` →
/// `out/metrics.prom`.
pub fn prom_path(metrics: &Path) -> PathBuf {
    metrics.with_extension("prom")
}

/// Runs `f` under an ecl-metrics session when `path` is set; otherwise
/// calls it directly. On a metered run, writes the byte-stable
/// `ecl-metrics/1` JSON export to `path`, the Prometheus text exposition
/// next to it, and returns the snapshot alongside `f`'s result.
pub fn with_optional_metrics<R>(
    path: Option<&Path>,
    f: impl FnOnce() -> R,
) -> (R, Option<ecl_metrics::Snapshot>) {
    let Some(path) = path else { return (f(), None) };
    let (out, snap) = ecl_metrics::with_metrics(f);
    std::fs::write(path, ecl_metrics::json::to_json(&snap))
        .unwrap_or_else(|e| panic!("--metrics: cannot write {}: {e}", path.display()));
    let pp = prom_path(path);
    std::fs::write(&pp, ecl_metrics::prom::to_text(&snap))
        .unwrap_or_else(|e| panic!("--metrics: cannot write {}: {e}", pp.display()));
    eprintln!("--metrics: wrote {} and {}", path.display(), pp.display());
    (out, Some(snap))
}

/// Wall-clock seconds of one invocation (for the real CPU codes).
pub fn wall<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(out);
    secs
}

/// Median wall-clock seconds of `repeats` runs of `f` (at least one): the
/// paper's protocol for every real-time cell.
pub fn median_wall<T>(repeats: Repeats, mut f: impl FnMut() -> T) -> f64 {
    median((0..repeats.0.max(1)).map(|_| wall(&mut f)).collect())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    xs[xs.len() / 2]
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets the kernel's `VmHWM` high-water mark (writes `5` to
/// `/proc/self/clear_refs`), so a following [`peak_rss_bytes`] read
/// reflects only work done after this call. Returns `false` where the
/// kernel interface is unavailable — callers must then treat the next
/// peak reading as process-lifetime, not per-measurement.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_middle() {
        assert_eq!(median(vec![5.0, 1.0, 3.0]), 3.0);
        let mut calls = 0;
        let m = median_wall(Repeats(3), || calls += 1);
        assert_eq!(calls, 3);
        assert!(m >= 0.0);
        median_wall(Repeats(0), || calls += 1);
        assert_eq!(calls, 4, "zero repeats still runs once");
    }

    #[test]
    fn geomean_of_known_values() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert!(geomean(&[]).is_none());
    }

    #[test]
    fn wall_measures_something() {
        let t = wall(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(t >= 0.004);
    }

    #[test]
    fn profile_path_keeps_directory_and_stem() {
        assert_eq!(
            profile_path(Path::new("out/t3.json")),
            PathBuf::from("out/t3.profile.json")
        );
        assert_eq!(
            profile_path(Path::new("trace.json")),
            PathBuf::from("trace.profile.json")
        );
    }

    #[test]
    fn untraced_call_returns_no_profile() {
        let (v, p) = with_optional_trace_breakdown(None, || 7);
        assert_eq!(v, 7);
        assert!(p.is_none());
    }

    #[test]
    fn prom_path_replaces_the_extension() {
        assert_eq!(
            prom_path(Path::new("out/metrics.json")),
            PathBuf::from("out/metrics.prom")
        );
    }

    #[test]
    fn unmetered_call_returns_no_snapshot() {
        let (v, s) = with_optional_metrics(None, || 7);
        assert_eq!(v, 7);
        assert!(s.is_none());
    }
}
