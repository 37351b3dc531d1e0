//! The repository benchmark: four workloads over the ECL-MST paths, each
//! run in its own process, measured only through the public APIs of
//! `ecl-graph`, `ecl-mst`, `ecl-gpu-sim` and `ecl-dsu`. See README.md for
//! why each workload exists and which layer each metric belongs to.
//!
//! A run sets its inputs up [`SETUPS`] times (reporting the median), runs
//! one warm-up pass that is not reported, then runs timed passes for the
//! requested seconds and reports medians. With tracing on, the run instead
//! splits its time between untraced passes, which give the per-layer times,
//! and traced passes, which give the program's spans and counters.

pub mod check;
pub mod inputs;
pub mod workloads;
pub mod yardstick;

use check::Checker;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Untraced timed passes a run makes at least, however long they take.
pub const MIN_PASSES: usize = 3;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("speedup_vs_kruskal", "x"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A layer
/// a workload bypasses reads 0 on it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.kruskal_s", "s"),
    ("graph.generate_s", "s"),
    ("core.reference_s", "s"),
    ("graph.io.write_s", "s"),
    ("graph.io.open_s", "s"),
    ("graph.shard.read_s", "s"),
    ("graph.shard.bytes_streamed", "bytes"),
    ("cpu.solve_s", "s"),
    ("cpu.solve_s.two_phase", "s"),
    ("cpu.solve_s.one_phase", "s"),
    ("cpu.iterations", "count"),
    ("dsu.finds", "count"),
    ("dsu.hops_per_find", "ratio"),
    ("dsu.cas_retry", "count"),
    ("upload.s", "s"),
    ("sim_ms", "ms"),
    ("sim.host_s", "s"),
    ("sim.host_ns_per_access", "ns"),
    ("sim.accesses", "count"),
    ("sim.atomics", "count"),
    ("sim.cas_retries", "count"),
    ("sim.launches", "count"),
    ("sim.iterations", "count"),
    ("sim.kernel_ms.setup", "ms"),
    ("sim.kernel_ms.init", "ms"),
    ("sim.kernel_ms.kernel1", "ms"),
    ("sim.kernel_ms.kernel2", "ms"),
    ("sim.kernel_ms.kernel3", "ms"),
    ("sim.kernel_ms.other", "ms"),
    ("sim.sync_ms", "ms"),
    ("dynamic.seed_s", "s"),
    ("dynamic.insert_batch_ms", "ms"),
    ("dynamic.delete_batch_ms", "ms"),
    ("dynamic.batch_p90_ms", "ms"),
    ("dynamic.links", "count"),
    ("dynamic.swaps", "count"),
    ("dynamic.cuts", "count"),
    ("dynamic.replacements", "count"),
    ("dynamic.candidates_scanned", "count"),
    ("dynamic.tree_churn", "count"),
    ("shard.solve_merge_s", "s"),
    ("shard.survivor_edges", "count"),
    ("shard.merge_rounds", "count"),
    ("shard.spill_bytes", "bytes"),
    ("span.upload_s", "s"),
    ("span.plan_filter_s", "s"),
    ("span.shard_solve_s", "s"),
    ("span.shard_merge_s", "s"),
    ("span.apply_batch_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Spans the program itself opens, reported per pass as sub-layer detail:
/// `(metric, span-name prefix)`.
const PROGRAM_SPANS: &[(&str, &str)] = &[
    ("span.upload_s", "upload/"),
    ("span.plan_filter_s", "plan_filter"),
    ("span.shard_solve_s", "shard/solve"),
    ("span.shard_merge_s", "shard/merge"),
    ("span.apply_batch_s", "dynamic/apply_batch"),
];

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one pass measured.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Seconds spent inside the timed public calls.
    pub seconds: f64,
    /// Latency of each timed call, in milliseconds.
    pub calls_ms: Vec<f64>,
    /// Per-layer values of this pass (seconds and counts).
    pub layers: Layers,
    /// Peak RSS during the pass, in MiB.
    pub peak_rss_mib: f64,
    /// Seconds the yardstick took for this pass's work.
    pub yardstick_s: f64,
}

impl Pass {
    /// Adds `v` to layer `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.layers.entry(name).or_default() += v;
    }
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Workload inputs plus the references their outputs are checked against.
pub trait Workload: Sized {
    /// Builds the inputs and references; records per-layer set-up seconds.
    fn setup(seed: u64, layers: &mut Layers) -> Self;

    /// Untimed work before each pass.
    fn prepare(&mut self) {}

    /// One pass: times each public call and checks each output.
    fn pass(&mut self, chk: &mut Checker) -> Pass;

    /// Seconds the benchmark's own Kruskal ([`yardstick::kruskal`]) takes
    /// for the work of one pass, timed right after the pass and outside its
    /// time and RSS window, so the yardstick and the pass meet the same host
    /// speed. A workload that interleaves the yardstick with its calls
    /// instead adds it to [`Pass::yardstick_s`] in [`Workload::pass`] and
    /// leaves this at 0.
    fn yardstick(&self) -> f64 {
        0.0
    }

    /// Edges one pass hands the program (input edges, or update ops).
    fn edges_per_pass(&self) -> f64;

    /// One line describing the inputs (scale, sizes).
    fn describe(&self) -> String;

    /// Per-layer values over a run's passes. The default takes each layer's
    /// median.
    fn summarize(passes: &[Pass]) -> Layers {
        median_layers(passes)
    }
}

/// Each layer's median over `passes`.
pub fn median_layers(passes: &[Pass]) -> Layers {
    let mut names: Vec<&'static str> = passes
        .iter()
        .flat_map(|p| p.layers.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let vals: Vec<f64> = passes
                .iter()
                .map(|p| p.layers.get(n).copied().unwrap_or(0.0))
                .collect();
            (n, quantile(&vals, 0.5))
        })
        .collect()
}

/// The `q` quantile of `xs`, interpolating linearly between ranks; 0 for
/// an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Hands the allocator's free heap pages back to the kernel, so the RSS
/// the peak mark starts from is live memory, not what set-up or earlier
/// passes left cached in glibc's per-thread arenas (that cache made the
/// starting RSS vary by up to 200 MiB between identical runs).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers, only walks glibc's own free
    // lists under the arena locks, and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// No-op where the allocator has no trim call.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_heap() {}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak RSS (`VmHWM`) in MiB since start or the last reset.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A scratch directory for `tag`, under `.bench_build/perfbench` in the
/// current directory and unique to this process.
pub fn work_dir(tag: &str) -> std::path::PathBuf {
    std::path::Path::new(".bench_build/perfbench")
        .join(format!("work-{}-{tag}", std::process::id()))
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Per-layer run (true) or end-to-end run (false).
    pub trace: bool,
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations and failures.
    pub chk: Checker,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Chrome traces of the traced run: `(file suffix, JSON)`.
    pub traces: Vec<(&'static str, String)>,
}

/// Timed passes until `seconds` have passed and at least `min` passes ran.
/// Stops early after a panic.
fn passes<W: Workload>(w: &mut W, chk: &mut Checker, seconds: f64, min: usize) -> Vec<Pass> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        w.prepare();
        // Each pass starts from live memory and its own peak mark.
        release_free_heap();
        reset_peak_rss();
        let pass = {
            let _p = ecl_trace::range!(wall: "pass");
            chk.guard("pass", |c| w.pass(c))
        };
        let Some(mut pass) = pass else { break };
        pass.peak_rss_mib = peak_rss_mib().unwrap_or(0.0);
        pass.yardstick_s += w.yardstick();
        out.push(pass);
        if out.len() >= min && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out
}

/// Runs workload `W` with `p` and collects its metrics.
pub fn run<W: Workload>(p: &Params) -> Outcome {
    let mut o = Outcome::default();

    // Set up SETUPS times; only the last set-up's inputs are kept.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_layers = Vec::with_capacity(SETUPS);
    let mut setup = || {
        let mut kept: Option<W> = None;
        for _ in 0..SETUPS {
            drop(kept.take());
            let mut layers = Layers::new();
            let (state, s) = timed(|| W::setup(p.seed, &mut layers));
            setup_s.push(s);
            setup_layers.push(Pass {
                layers,
                ..Pass::default()
            });
            kept = Some(state);
        }
        kept.expect("at least one set-up ran")
    };
    let mut w = if p.trace {
        let (w, session) = ecl_trace::with_trace(&mut setup);
        o.traces.push(("setup", session.chrome_trace()));
        w
    } else {
        setup()
    };
    o.notes.push(w.describe());

    // Warm-up: caches fill and lazy set-up finishes; not reported.
    let warm = passes(&mut w, &mut o.chk, 0.0, 1);

    if !p.trace {
        let rss_reset = reset_peak_rss();
        let timed_passes = if warm.is_empty() {
            Vec::new()
        } else {
            passes(&mut w, &mut o.chk, p.seconds, MIN_PASSES)
        };
        let peaks: Vec<f64> = timed_passes.iter().map(|x| x.peak_rss_mib).collect();
        let secs: Vec<f64> = timed_passes.iter().map(|x| x.seconds).collect();
        let calls: Vec<f64> = timed_passes
            .iter()
            .flat_map(|x| x.calls_ms.iter().copied())
            .collect();
        let (setup, pass_s, call_ms) = (
            quantile(&setup_s, 0.5),
            quantile(&secs, 0.5),
            quantile(&calls, 0.5),
        );
        // Each pass's yardstick over its own time: both met the same host
        // speed, so the ratio cancels most of the host's drift.
        let ratios: Vec<f64> = timed_passes
            .iter()
            .filter(|x| x.seconds > 0.0)
            .map(|x| x.yardstick_s / x.seconds)
            .collect();
        let speedup = quantile(&ratios, 0.5);
        o.metrics = vec![
            ("setup_s", setup, "s"),
            ("speedup_vs_kruskal", speedup, "x"),
            ("peak_rss_mib", quantile(&peaks, 0.5), "MiB"),
        ];
        o.notes.push(format!(
            "setups={SETUPS} warmup={} passes={} calls={} pass_s_median={pass_s} rss_reset={rss_reset}",
            warm.len(),
            timed_passes.len(),
            calls.len(),
        ));
        let list = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        o.notes.push(format!(
            "edges_per_s={} call_p50_ms={call_ms} (wall clock, not drift-corrected)",
            w.edges_per_pass() / pass_s
        ));
        o.notes.push(format!(
            "seconds of each set-up={} and pass={}",
            list(&setup_s),
            list(&secs)
        ));
        o.notes.push(format!(
            "yardstick seconds over pass seconds of each pass={}",
            list(&ratios)
        ));
        o.notes
            .push(format!("peak RSS MiB of each pass={}", list(&peaks)));
        let counts = median_layers(&timed_passes);
        if let Some(sim_ms) = counts.get("sim_ms") {
            o.notes.push(format!("sim_ms={sim_ms}"));
        }
        return o;
    }

    // Traced run: half the time untraced (the overhead baseline), half
    // traced with the metrics registry on.
    let half = p.seconds / 2.0;
    let untraced = if warm.is_empty() {
        Vec::new()
    } else {
        passes(&mut w, &mut o.chk, half, MIN_PASSES)
    };
    let ((traced, session), snap) = if untraced.is_empty() {
        ((Vec::new(), None), None)
    } else {
        let ((t, s), m) = ecl_metrics::with_metrics(|| {
            ecl_trace::with_trace(|| passes(&mut w, &mut o.chk, half, 1))
        });
        ((t, Some(s)), Some(m))
    };

    // Layer times come from the benchmark's own timers in the untraced
    // passes, which tracing cannot slow; the traced passes add the program's
    // spans and counters.
    let mut layers = median_layers(&setup_layers);
    layers.extend(W::summarize(&untraced));
    let yard: Vec<f64> = untraced.iter().map(|x| x.yardstick_s).collect();
    layers.insert("bench.kruskal_s", quantile(&yard, 0.5));
    let n = traced.len().max(1) as f64;
    if let Some(m) = &snap {
        let finds = m.counter("ecl.dsu.find") as f64;
        layers.insert("dsu.finds", finds / n);
        layers.insert(
            "dsu.hops_per_find",
            m.counter("ecl.dsu.find_hop") as f64 / finds.max(1.0),
        );
        layers.insert("dsu.cas_retry", m.counter("ecl.dsu.cas_retry") as f64 / n);
    }
    if let Some(s) = &session {
        let breakdown = s.wall_breakdown();
        for (metric, prefix) in PROGRAM_SPANS {
            let total = breakdown
                .iter()
                .filter(|k| k.name.starts_with(prefix))
                .fold(0.0, |acc, k| acc + k.total_seconds);
            layers.insert(metric, total / n);
        }
        if let Some(pass) = breakdown.iter().find(|k| k.name == "pass") {
            layers.insert(
                "trace.coverage",
                1.0 - pass.self_seconds / pass.total_seconds.max(1e-12),
            );
        }
        for k in &breakdown {
            o.notes.push(format!(
                "span {:<28} calls={:<6} total_s={:.6} self_s={:.6}",
                k.name, k.calls, k.total_seconds, k.self_seconds
            ));
        }
        o.traces.push(("passes", s.chrome_trace()));
    }
    let median_s = |ps: &[Pass]| quantile(&ps.iter().map(|x| x.seconds).collect::<Vec<_>>(), 0.5);
    if !traced.is_empty() {
        layers.insert(
            "trace.overhead",
            median_s(&traced) / median_s(&untraced).max(1e-12),
        );
    }
    o.notes.push(format!(
        "untraced_passes={} traced_passes={}",
        untraced.len(),
        traced.len()
    ));
    o.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, layers.remove(name).unwrap_or(0.0), unit))
        .collect();
    assert!(
        layers.is_empty(),
        "layers missing from the catalogue: {:?}",
        layers.keys()
    );
    o
}

/// The result line: one JSON object with the check tally and the metrics.
pub fn result_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.chk.failed == 0 && o.chk.attempted > 0,
        o.chk.attempted,
        o.chk.failed
    );
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        s.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert!((quantile(&(1..=11).map(f64::from).collect::<Vec<_>>(), 0.9) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut o = Outcome::default();
        o.chk.attempted = 3;
        o.metrics = vec![("setup_s", 0.5, "s"), ("x", f64::NAN, "ms")];
        assert_eq!(
            result_json(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }

    /// BENCHMARK.json at the repository root must declare exactly these
    /// metrics, with these units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = ecl_trace::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, want) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let got: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| {
                        m.get(f)
                            .and_then(|v| v.as_str())
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = want
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(got, want, "{key}");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, workloads::NAMES);
    }
}
