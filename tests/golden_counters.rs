//! Golden-counters regression test: exact per-kernel metered event totals.
//!
//! The GPU simulator prices runs purely from the counters each kernel
//! accumulates (coalesced bytes, gather accesses, atomics, CAS retries,
//! launches). Performance work on the simulator — buffer arenas, upload
//! caches, zero-allocation kernel bodies — must never change *what is
//! metered*, only how fast the host executes it. This test pins the exact
//! totals for every simulated-GPU code on two fixed-seed inputs; any
//! drift in the cost model or in kernel metering shows up as a diff here.
//!
//! Determinism basis: `Device::launch` runs a launch's tasks in a plain
//! loop, in task order, on the calling thread, so atomic outcomes and CAS
//! retry counts are reproducible across runs, hosts and thread budgets.
//!
//! To regenerate after an *intentional* metering change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --test golden_counters -- --nocapture
//! ```
//!
//! and paste the printed block over `EXPECTED`.

use ecl_baselines::{cugraph_gpu, gunrock_gpu, jucele_gpu, uminho_gpu};
use ecl_cc::connected_components_gpu;
use ecl_gpu_sim::{GpuProfile, KernelRecord, TaskCtx};
use ecl_graph::generators::{grid2d, rmat};
use ecl_graph::CsrGraph;
use ecl_mst::{deopt_ladder, ecl_mst_gpu_with, OptConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregates a kernel log into per-kernel-name totals and formats one
/// line per kernel plus one line for the simulated clocks.
fn summarize(
    out: &mut String,
    code: &str,
    graph: &str,
    records: &[KernelRecord],
    kernel_seconds: f64,
    memcpy_seconds: f64,
) {
    let mut per: BTreeMap<&str, (u64, TaskCtx)> = BTreeMap::new();
    for r in records {
        let e = per.entry(r.name.as_str()).or_default();
        e.0 += 1;
        e.1.merge(&r.stats.totals);
    }
    for (name, (launches, t)) in &per {
        writeln!(
            out,
            "{code}/{graph} {name} launches={launches} coal={} gather={} atomics={} cas={}",
            t.coalesced_bytes, t.gather_accesses, t.atomics, t.cas_retries
        )
        .unwrap();
    }
    writeln!(
        out,
        "{code}/{graph} clocks kernel={kernel_seconds:.17e} memcpy={memcpy_seconds:.17e}"
    )
    .unwrap();
}

fn topology_cfg() -> OptConfig {
    let ladder = deopt_ladder();
    ladder
        .iter()
        .find(|(name, _)| *name == "Topology-Driven")
        .expect("ladder rung")
        .1
}

fn collect(g: &CsrGraph, graph: &str, connected: bool, out: &mut String) {
    let p = GpuProfile::TITAN_V;

    let run = ecl_mst_gpu_with(g, &OptConfig::full(), p);
    summarize(
        out,
        "ecl_full",
        graph,
        &run.records,
        run.kernel_seconds,
        run.memcpy_seconds,
    );

    let run = ecl_mst_gpu_with(g, &topology_cfg(), p);
    summarize(
        out,
        "ecl_topo",
        graph,
        &run.records,
        run.kernel_seconds,
        run.memcpy_seconds,
    );

    if connected {
        let run = jucele_gpu(g, p).expect("connected");
        summarize(
            out,
            "jucele",
            graph,
            &run.records,
            run.kernel_seconds,
            run.memcpy_seconds,
        );
        let run = gunrock_gpu(g, p).expect("connected");
        summarize(
            out,
            "gunrock",
            graph,
            &run.records,
            run.kernel_seconds,
            run.memcpy_seconds,
        );
    }

    let run = uminho_gpu(g, p);
    summarize(
        out,
        "uminho",
        graph,
        &run.records,
        run.kernel_seconds,
        run.memcpy_seconds,
    );

    let run = cugraph_gpu(g, p);
    summarize(
        out,
        "cugraph",
        graph,
        &run.records,
        run.kernel_seconds,
        run.memcpy_seconds,
    );

    let run = connected_components_gpu(g, p);
    summarize(out, "cc", graph, &run.records, run.kernel_seconds, 0.0);
}

fn actual() -> String {
    let mut out = String::new();
    // Fixed-seed inputs: a connected 2-D grid and a disconnected RMAT.
    collect(&grid2d(32, 7), "grid32", true, &mut out);
    collect(&rmat(10, 8, 42), "rmat10", false, &mut out);
    out
}

#[test]
fn metered_event_totals_are_bit_identical() {
    let got = actual();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("----- golden counters -----");
        print!("{got}");
        println!("----- end golden counters -----");
    }
    let want = EXPECTED.trim_start_matches('\n');
    if got != want {
        // Line-by-line diff for a readable failure.
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "first divergence at line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "line count mismatch"
        );
    }
}

/// Satellite of the golden test: the same full sweep under the sanitizer
/// must (a) report zero racecheck/initcheck/memcheck/synccheck violations
/// for every registered code — the paper's "the races are benign" claim,
/// machine-checked — and (b) meter bit-identically to the unsanitized
/// sweep, pinning that instrumentation never perturbs the cost model.
#[test]
fn sanitizer_pass_is_clean_and_does_not_perturb_metering() {
    let base = actual();
    let (sanitized, report) = ecl_gpu_sim::with_sanitizer(actual);
    assert_eq!(base, sanitized, "sanitizer perturbed metered counters");
    assert!(
        report.is_clean(),
        "sanitizer violations in registered codes — {report}\n{}",
        report
            .violations()
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.checked_launches > 0);
    assert!(report.checked_accesses > 0);
    // The registered codes really do exercise the downgraded benign-race
    // classes (idempotent flag stores, DSU path compression); if these hit
    // zero, the racecheck hook has come unwired.
    assert!(
        report.benign_idempotent_races > 0,
        "expected idempotent benign races"
    );
    assert!(
        report.benign_racy_updates > 0,
        "expected racy-update benign races"
    );
}

/// ecl-trace satellite of the golden test: the same full sweep under a
/// trace session must meter bit-identically — tracing observes the
/// counters, it never perturbs them (the zero-cost-when-disabled contract's
/// enabled-side half).
#[test]
fn tracing_does_not_perturb_metering() {
    let base = actual();
    let (traced, session) = ecl_trace::with_trace(actual);
    assert_eq!(base, traced, "trace session perturbed metered counters");
    assert!(!session.is_empty(), "sweep produced no trace events");
}

const EXPECTED: &str = r"
ecl_full/grid32 init launches=1 coal=83872 gather=126 atomics=900 cas=0
ecl_full/grid32 kernel1 launches=7 coal=262676 gather=24614 atomics=3358 cas=0
ecl_full/grid32 kernel2 launches=6 coal=71056 gather=11396 atomics=1023 cas=0
ecl_full/grid32 kernel3 launches=6 coal=71056 gather=8882 atomics=0 cas=0
ecl_full/grid32 setup launches=1 coal=20224 gather=0 atomics=0 cas=0
ecl_full/grid32 clocks kernel=3.21904259740259723e-5 memcpy=1.25217142857142867e-5
ecl_topo/grid32 build_arc_src launches=1 coal=24064 gather=0 atomics=0 cas=0
ecl_topo/grid32 kernel1 launches=7 coal=332968 gather=147385 atomics=18460 cas=0
ecl_topo/grid32 kernel2 launches=6 coal=248976 gather=147798 atomics=1023 cas=0
ecl_topo/grid32 kernel3 launches=6 coal=49152 gather=0 atomics=0 cas=0
ecl_topo/grid32 setup launches=1 coal=20224 gather=0 atomics=0 cas=0
ecl_topo/grid32 clocks kernel=5.13972509090909041e-5 memcpy=1.25217142857142867e-5
jucele/grid32 contract launches=6 coal=208648 gather=17764 atomics=0 cas=0
jucele/grid32 find_light launches=6 coal=142112 gather=0 atomics=17764 cas=0
jucele/grid32 mark launches=6 coal=150296 gather=22676 atomics=0 cas=0
jucele/grid32 mirror_break launches=6 coal=11464 gather=1433 atomics=0 cas=0
jucele/grid32 relabel launches=15 coal=20832 gather=4290 atomics=0 cas=0
jucele/grid32 renumber launches=6 coal=17196 gather=0 atomics=0 cas=0
jucele/grid32 clocks kernel=7.07833745454545366e-5 memcpy=9.66857142857142893e-6
gunrock/grid32 find_light launches=7 coal=71784 gather=108701 atomics=3610 cas=0
gunrock/grid32 merge launches=6 coal=60616 gather=9373 atomics=1023 cas=0
gunrock/grid32 clocks kernel=3.15494799999999919e-5 memcpy=1.47891428571428567e-5
uminho/grid32 count_degrees launches=6 coal=71056 gather=17764 atomics=4914 cas=0
uminho/grid32 find_min launches=6 coal=28660 gather=5307 atomics=0 cas=0
uminho/grid32 pick launches=6 coal=22928 gather=3686 atomics=0 cas=0
uminho/grid32 pointer_jump launches=15 coal=20832 gather=4290 atomics=0 cas=0
uminho/grid32 renumber launches=6 coal=17196 gather=0 atomics=0 cas=0
uminho/grid32 scan_offsets launches=6 coal=3280 gather=0 atomics=0 cas=0
uminho/grid32 scatter_arcs launches=6 coal=110368 gather=32506 atomics=4914 cas=0
uminho/grid32 sort_pass_0 launches=6 coal=58968 gather=4914 atomics=0 cas=0
uminho/grid32 sort_pass_1 launches=6 coal=58968 gather=4914 atomics=0 cas=0
uminho/grid32 sort_pass_2 launches=6 coal=58968 gather=4914 atomics=0 cas=0
uminho/grid32 sort_pass_3 launches=6 coal=58968 gather=4914 atomics=0 cas=0
uminho/grid32 clocks kernel=9.02016436363636744e-5 memcpy=1.25217142857142867e-5
cugraph/grid32 color_flood launches=157 coal=2531760 gather=316456 atomics=4996 cas=0
cugraph/grid32 color_min launches=7 coal=182160 gather=27776 atomics=8882 cas=0
cugraph/grid32 graft launches=6 coal=148524 gather=32980 atomics=0 cas=0
cugraph/grid32 reset_min launches=6 coal=49152 gather=0 atomics=0 cas=0
cugraph/grid32 clocks kernel=4.47219492467533931e-4 memcpy=9.66857142857142893e-6
cc/grid32 cc_flatten launches=1 coal=4096 gather=2047 atomics=0 cas=0
cc/grid32 cc_init launches=1 coal=12288 gather=1024 atomics=0 cas=0
cc/grid32 cc_process launches=1 coal=22592 gather=10100 atomics=0 cas=0
cc/grid32 clocks kernel=2.40472363636363612e-6 memcpy=0.00000000000000000e0
ecl_full/rmat10 init launches=2 coal=374308 gather=53976 atomics=903 cas=0
ecl_full/rmat10 kernel1 launches=7 coal=598408 gather=63411 atomics=3326 cas=0
ecl_full/rmat10 kernel2 launches=5 coal=165344 gather=23971 atomics=1020 cas=0
ecl_full/rmat10 kernel3 launches=5 coal=165344 gather=20668 atomics=0 cas=0
ecl_full/rmat10 setup launches=1 coal=42456 gather=0 atomics=0 cas=0
ecl_full/rmat10 clocks kernel=4.42179864935064851e-5 memcpy=3.47537142857142867e-5
ecl_topo/rmat10 build_arc_src launches=1 coal=68528 gather=0 atomics=0 cas=0
ecl_topo/rmat10 kernel1 launches=6 coal=1407168 gather=472700 atomics=113856 cas=0
ecl_topo/rmat10 kernel2 launches=5 coal=970856 gather=521032 atomics=1020 cas=0
ecl_topo/rmat10 kernel3 launches=5 coal=40960 gather=0 atomics=0 cas=0
ecl_topo/rmat10 setup launches=1 coal=42456 gather=0 atomics=0 cas=0
ecl_topo/rmat10 clocks kernel=1.24706672207792205e-4 memcpy=3.47537142857142867e-5
uminho/rmat10 count_degrees launches=4 coal=364624 gather=91156 atomics=30494 cas=0
uminho/rmat10 find_min launches=4 coal=25316 gather=18726 atomics=0 cas=0
uminho/rmat10 pick launches=4 coal=20320 gather=3004 atomics=0 cas=0
uminho/rmat10 pointer_jump launches=11 coal=24476 gather=4833 atomics=0 cas=0
uminho/rmat10 renumber launches=4 coal=15276 gather=0 atomics=0 cas=0
uminho/rmat10 scan_offsets launches=4 coal=2024 gather=0 atomics=0 cas=0
uminho/rmat10 scatter_arcs launches=4 coal=608576 gather=182638 atomics=30494 cas=0
uminho/rmat10 sort_pass_0 launches=4 coal=365928 gather=30494 atomics=0 cas=0
uminho/rmat10 sort_pass_1 launches=4 coal=365928 gather=30494 atomics=0 cas=0
uminho/rmat10 sort_pass_2 launches=4 coal=365928 gather=30494 atomics=0 cas=0
uminho/rmat10 sort_pass_3 launches=4 coal=365928 gather=30494 atomics=0 cas=0
uminho/rmat10 clocks kernel=1.73641411428571455e-4 memcpy=3.47537142857142867e-5
cugraph/rmat10 color_flood launches=33 coal=1267548 gather=64466 atomics=3535 cas=0
cugraph/rmat10 color_min launches=5 coal=666304 gather=75420 atomics=45578 cas=0
cugraph/rmat10 graft launches=4 coal=514812 gather=106422 atomics=0 cas=0
cugraph/rmat10 reset_min launches=4 coal=32768 gather=0 atomics=0 cas=0
cugraph/rmat10 clocks kernel=1.34012016103896188e-4 memcpy=2.55485714285714294e-5
cc/rmat10 cc_flatten launches=1 coal=4096 gather=2044 atomics=0 cas=0
cc/rmat10 cc_init launches=1 coal=12288 gather=1033 atomics=0 cas=0
cc/rmat10 cc_process launches=1 coal=68000 gather=32045 atomics=7 cas=0
cc/rmat10 clocks kernel=4.40062909090909094e-6 memcpy=0.00000000000000000e0
";
