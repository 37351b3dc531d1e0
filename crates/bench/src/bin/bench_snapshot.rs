//! Wall-clock snapshot of the full-suite harness path (the Table 3
//! workload): per-code host wall-clock and simulated seconds, plus process
//! peak RSS, written as JSON for regression tracking.
//!
//! Snapshots chain: each run writes the next `BENCH_<N+1>.json` beside the
//! existing links and, when the newest previous link describes the same
//! workload (scale, repeats, unsanitized), reports it as the baseline in
//! `baseline_wall_seconds` / `speedup_vs_baseline`.
//!
//! Reproduce with:
//!
//! ```text
//! cargo run --release --bin bench_snapshot -- --scale small --repeats 3
//! ```
//!
//! `--trace [PATH]` additionally records the workload under ecl-trace and
//! writes the Chrome trace plus the deterministic profile JSON;
//! `--diff BASELINE.profile.json` then compares the fresh profile against a
//! checked-in baseline and exits with status 4 when any per-kernel or total
//! simulated time regressed by more than 5% (the CI trace gate).
//!
//! `--metrics [PATH]` records the workload under an ecl-metrics session,
//! writes the byte-stable `ecl-metrics/1` JSON (plus the Prometheus text
//! next to it), and embeds the stable counters — with a derived
//! `dsu_retry_total` headline key — into the snapshot; `--metrics-diff
//! BASELINE.json` then compares the fresh export against a checked-in
//! baseline and exits with status 5 when any stable metric drifted more
//! than 5% in either direction (the CI metrics gate — distinct from the
//! trace gate's exit 4).
//!
//! `--sharded SCALE[,SCALE...]` (e.g. `--sharded large,huge`) additionally
//! measures the out-of-core sharded MSF pipeline on the r4 twin at each
//! listed scale — outside the timed table3 window, like the dynamic
//! column — embeds the cells in a `sharded` block, and exits with status 6
//! when any cell's measured peak RSS exceeds its declared budget (the CI
//! out-of-core gate). This is the only mode expected to reach
//! `--sharded huge` (2^24 vertices); the in-core workloads stop at large.
//!
//! Simulated cells are deterministic, so each (code, input) is simulated
//! once; the wall-clock CPU codes run `--repeats` times. An unknown flag,
//! a flag missing its value, a non-integer `--repeats` or an unknown scale
//! prints the usage and exits with status 2 before anything is measured.

use ecl_gpu_sim::{scratch_footprint, GpuProfile};
use ecl_graph::suite;
use ecl_mst_bench::cli::{
    parse_or_exit, usage, usage_error, Flag, Kind, METRICS, REPEATS, SANITIZE, SCALE, TRACE,
};
use ecl_mst_bench::registry::{column_names, simulate_columns, CPU_CODES};
use ecl_mst_bench::runner::{
    peak_rss_bytes, wall, with_optional_metrics, with_optional_sanitizer,
    with_optional_trace_breakdown,
};
use ecl_mst_bench::sharded::measure_sharded;
use ecl_mst_bench::snapshot;
use std::path::Path;

/// Wall-clock seconds of the Table 3 workload at the seed commit — the
/// fallback baseline when no earlier `BENCH_N.json` of the same workload
/// exists in the working directory.
///
/// Methodology: the seed commit (2727883) was rebuilt in a scratch worktree
/// (plus the vendored-dependency wiring it predates, nothing else), and its
/// `table3 --repeats 3` binary was raced against the refactored one in
/// alternating runs on the same container to cancel background load. Median
/// of 7 interleaved pairs: seed 11.174 s. Only comparable at scale Small
/// with 3 repeats, unsanitized.
const SEED_BASELINE_WALL_SECONDS: f64 = 11.174;

/// Every flag this binary reads.
const FLAGS: &[Flag] = &[
    SCALE,
    REPEATS,
    SANITIZE,
    TRACE,
    ("--diff", Kind::Value),
    METRICS,
    ("--metrics-diff", Kind::Value),
    ("--sharded", Kind::Scales),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = usage("bench_snapshot", FLAGS);
    let a = parse_or_exit(&args, FLAGS, &usage);
    let scale = a.scale();
    let repeats = a.repeats().0.max(1);
    let sharded_scales = a.scales("--sharded");
    let profile = GpuProfile::TITAN_V;
    let codes = column_names(false);

    // Per-code totals over the whole suite. Suite generation runs inside
    // the timed window so `total_wall` matches what `ecl-bench table3`
    // actually costs end to end (the baseline constant was measured that
    // way).
    let mut wall_s = vec![0.0f64; codes.len()];
    let mut sim_s = vec![0.0f64; codes.len()];
    let mut n_inputs = 0usize;
    // `--sanitize` wraps the whole timed window in a sanitizer session; the
    // resulting wall numbers measure the checked path, not the hot path, so
    // don't compare them to the baseline constant.
    let sanitize = a.has(SANITIZE.0);
    let trace = a.trace();
    let diff_baseline = a.path("--diff");
    if diff_baseline.is_some() && trace.is_none() {
        usage_error(
            "--diff needs --trace (the diff compares the fresh trace profile)",
            &usage,
        );
    }
    let metrics = a.metrics();
    let metrics_diff = a.path("--metrics-diff");
    if metrics_diff.is_some() && metrics.is_none() {
        usage_error(
            "--metrics-diff needs --metrics (the diff compares the fresh export)",
            &usage,
        );
    }
    // Metrics session outermost: the trace→metrics bridge publishes when
    // the trace session closes, which must happen inside it.
    let ((total_wall, trace_profile), metrics_snap) =
        with_optional_metrics(metrics.as_deref(), || {
            with_optional_trace_breakdown(trace.as_deref(), || {
                with_optional_sanitizer(sanitize, || {
                    wall(|| {
                        let entries = suite(scale);
                        n_inputs = entries.len();
                        for e in &entries {
                            eprintln!("measuring {} ...", e.name);
                            // One simulation per code; its seconds count
                            // once per repeat, so `simulated_ms` keeps
                            // meaning the repeat total.
                            let sims = simulate_columns(&e.graph, profile, false, None);
                            for (c, cell) in sims.iter().enumerate() {
                                wall_s[c] += cell.host_seconds;
                                sim_s[c] += cell.timing.seconds().unwrap_or(0.0) * repeats as f64;
                            }
                            for (k, (_, run)) in CPU_CODES.iter().enumerate() {
                                let c = sims.len() + k;
                                let mut measured = 0.0;
                                wall_s[c] += wall(|| {
                                    for _ in 0..repeats {
                                        measured += wall(|| run(&e.graph));
                                    }
                                });
                                sim_s[c] += measured;
                            }
                            ecl_mst::evict_graph(&e.graph);
                        }
                    })
                })
            })
        });

    // Dynamic-updates column: incremental maintenance vs rebuild-per-batch,
    // measured OUTSIDE the timed table3 window above so total_wall_seconds
    // stays comparable to earlier chain links that predate this workload.
    eprintln!("measuring dynamic updates ...");
    let dyn_report = ecl_mst_bench::dynamic::measure_dynamic_updates(scale, 1);

    // Legacy process-lifetime peak, captured BEFORE the sharded cells: each
    // cell resets the kernel high-water mark to scope its own measurement,
    // which would otherwise erase the table3 window's peak from this key.
    let process_peak_rss = peak_rss_bytes().unwrap_or(0);

    // Sharded out-of-core cells, also outside the timed window.
    let sharded_cells: Vec<_> = sharded_scales
        .iter()
        .map(|&s| {
            eprintln!("measuring sharded msf at {} ...", s.name());
            let cell = measure_sharded(s);
            eprintln!(
                "  {}: {:.2}s, peak rss {} MiB (budget {} MiB){}",
                s.name(),
                cell.wall_seconds,
                cell.peak_rss_bytes >> 20,
                cell.rss_budget_bytes >> 20,
                match cell.parity {
                    Some(true) => ", parity ok",
                    Some(false) => ", PARITY FAILED",
                    None => "",
                }
            );
            cell
        })
        .collect();

    // Chain link: the previous snapshot (same directory, highest N) is the
    // baseline whenever it describes the same workload — same scale, same
    // repeats, neither run sanitized — so speedup_vs_baseline tracks the
    // harness PR over PR. The seed-commit constant only backstops the very
    // first Small/3-repeats link.
    let dir = Path::new(".");
    let prev_index = snapshot::latest_index(dir);
    let out = format!("BENCH_{}.json", prev_index + 1);
    let scale_name = format!("{scale:?}");
    let current_repeats = repeats as u64;
    let baseline: Option<(f64, String)> = snapshot::read_snapshot(dir, prev_index)
        .filter(|p| p.comparable_to(&scale_name, current_repeats))
        .map(|p| (p.total_wall_seconds, p.file.clone()))
        .or_else(|| {
            (scale_name == "Small" && current_repeats == 3 && !sanitize).then(|| {
                (
                    SEED_BASELINE_WALL_SECONDS,
                    "seed commit 2727883".to_string(),
                )
            })
        });

    let (scratch_const_bytes, scratch_pooled_bytes) = scratch_footprint();
    let link = snapshot::Link {
        scale: scale_name,
        repeats: current_repeats,
        sanitize,
        inputs: n_inputs,
        codes: codes
            .iter()
            .enumerate()
            .map(|(c, name)| snapshot::CodeTotals {
                name,
                wall_seconds: wall_s[c],
                simulated_ms: sim_s[c] * 1e3,
            })
            .collect(),
        total_wall_seconds: total_wall,
        trace: trace_profile.as_ref(),
        metrics: metrics_snap.as_ref(),
        dynamic: &dyn_report,
        sharded: &sharded_cells,
        baseline,
        peak_rss_bytes: process_peak_rss,
        scratch_const_bytes,
        scratch_pooled_bytes,
    };
    let json = link.to_json();
    std::fs::write(&out, &json).expect("write snapshot");
    print!("{json}");
    eprintln!("wrote {out}");

    // CI out-of-core gate: every sharded cell must hold its peak-RSS
    // budget and (where a monolith comparison ran) bit-exact parity.
    // Exit 6, next to the trace gate's 4 and the metrics gate's 5. The
    // snapshot is written first so a violating run still leaves evidence.
    let rss_violations: Vec<_> = sharded_cells
        .iter()
        .filter(|c| !c.within_budget())
        .collect();
    for c in &rss_violations {
        eprintln!(
            "--sharded: RSS BUDGET EXCEEDED at {}: peak {} bytes > budget {} bytes",
            c.scale.name(),
            c.peak_rss_bytes,
            c.rss_budget_bytes
        );
    }
    let parity_failures: Vec<_> = sharded_cells
        .iter()
        .filter(|c| c.parity == Some(false))
        .collect();
    for c in &parity_failures {
        eprintln!(
            "--sharded: PARITY FAILURE at {}: sharded forest != monolithic serial_kruskal",
            c.scale.name()
        );
    }
    if !rss_violations.is_empty() || !parity_failures.is_empty() {
        std::process::exit(6);
    }

    // CI metrics gate: compare the fresh stable export against a
    // checked-in baseline. Exit 5 (the trace gate below uses 4).
    if let (Some(base_path), Some(snap)) = (&metrics_diff, &metrics_snap) {
        let text = std::fs::read_to_string(base_path).unwrap_or_else(|e| {
            eprintln!("--metrics-diff: cannot read {}: {e}", base_path.display());
            std::process::exit(2);
        });
        let baseline = ecl_metrics::json::from_json(&text).unwrap_or_else(|e| {
            eprintln!(
                "--metrics-diff: {} is not a metrics export: {e}",
                base_path.display()
            );
            std::process::exit(2);
        });
        let report = snap.diff(&baseline, 0.05);
        println!("\nmetrics diff vs {}:", base_path.display());
        for line in &report.lines {
            println!("  {line}");
        }
        if report.is_pass() {
            println!("--metrics-diff: PASS (no stable metric drifted above 5%)");
        } else {
            eprintln!(
                "--metrics-diff: {} stable metric(s) drifted above 5%",
                report.drifted
            );
            std::process::exit(5);
        }
    }

    // CI trace gate: compare the fresh profile against a checked-in one.
    if let (Some(base_path), Some((profile, _))) = (diff_baseline, trace_profile) {
        let text = std::fs::read_to_string(&base_path).unwrap_or_else(|e| {
            eprintln!("--diff: cannot read {}: {e}", base_path.display());
            std::process::exit(2);
        });
        let baseline = ecl_trace::Profile::from_json(&text).unwrap_or_else(|e| {
            eprintln!("--diff: {} is not a profile: {e}", base_path.display());
            std::process::exit(2);
        });
        let report = profile.diff(&baseline, 0.05);
        println!("\nprofile diff vs {}:", base_path.display());
        for line in &report.lines {
            println!("  {line}");
        }
        if report.is_pass() {
            println!("--diff: PASS (no simulated-time regression above 5%)");
        } else {
            for r in &report.regressions {
                eprintln!("--diff: REGRESSION: {r}");
            }
            std::process::exit(4);
        }
    }
}
