//! Shard-merge parity: the sharded out-of-core pipeline must be
//! bit-identical to the monolithic `GraphBuilder + serial_kruskal` build on
//! every topology the suite knows, from in-memory, generator and file
//! shard sources, including the degenerate shard counts — K = 1 (no
//! merging at all), K far above the component and edge counts (many empty
//! shards), and the all-edges-survive worst case where stage 1 discards
//! nothing and the merge tree carries every input edge.
//!
//! The packed `(weight, u, v)` total order makes the MSF unique, so
//! equality of `in_mst` bitmaps is exact, not modulo tie-breaks.

use ecl_mst_repro::mst::ShardedRun;
use ecl_mst_repro::prelude::*;

fn assert_parity(name: &str, g: &CsrGraph, cfg: &ShardedConfig) {
    let src = InMemoryShards::new(g.num_vertices(), g.edge_list());
    let run = sharded_msf(&src, cfg);
    let expected = serial_kruskal(g);
    let got = run.forest.to_mst_result(g);
    assert_eq!(
        got.in_mst, expected.in_mst,
        "{name}: sharded forest diverges (shards={})",
        cfg.shards
    );
    assert_eq!(run.forest.total_weight, expected.total_weight, "{name}");
    assert_eq!(run.forest.num_edges(), expected.num_edges, "{name}");
    verify_msf(g, &got).unwrap_or_else(|e| panic!("{name}: {e}"));
}

#[test]
fn entire_tiny_suite_bit_identical() {
    for e in suite::suite(SuiteScale::Tiny) {
        assert_parity(e.name, &e.graph, &ShardedConfig::in_memory(5));
    }
}

#[test]
fn single_shard_is_the_identity_decomposition() {
    // K = 1: stage 1 solves everything, the merge loop never runs.
    for e in suite::suite(SuiteScale::Tiny) {
        assert_parity(e.name, &e.graph, &ShardedConfig::in_memory(1));
    }
}

#[test]
fn shard_count_beyond_components_and_edges() {
    // K = 64 exceeds the component count of every tiny suite entry and, on
    // the sparsest ones, leaves many shards nearly or completely empty.
    // Representative sparse / dense / disconnected picks keep CI quick.
    let picks = ["2d-2e20.sym", "coPapersDBLP", "rmat16.sym", "as-skitter"];
    for e in suite::suite(SuiteScale::Tiny)
        .into_iter()
        .filter(|e| picks.contains(&e.name))
    {
        assert_parity(e.name, &e.graph, &ShardedConfig::in_memory(64));
    }
}

#[test]
fn all_edges_survive_worst_case() {
    // A path is its own MSF: no shard can discard anything, so the merge
    // tree carries every input edge to the top — the survivor bound's
    // worst case. Weights descend so the heaviest edges sit first in id
    // order, stressing the (weight, rank) reordering too.
    let n: u32 = 4096;
    let mut b = GraphBuilder::new(n as usize);
    for u in 0..n - 1 {
        b.add_edge(u, u + 1, n - u);
    }
    let g = b.build();
    for shards in [1, 3, 64] {
        assert_parity("path", &g, &ShardedConfig::in_memory(shards));
    }
}

#[test]
fn small_scale_generator_spot_check() {
    // One Small-scale cell through the real generator shard source (not a
    // re-sharded edge list): the r4 twin, the same source the bench mode
    // measures.
    let scale = SuiteScale::Small;
    let src = ecl_mst_repro::graph::suite::r4_shard_source(scale);
    let g = ecl_mst_repro::graph::suite::r4_monolith(scale);
    let run = sharded_msf(&src, &ShardedConfig::in_memory(6));
    let expected = serial_kruskal(&g);
    assert_eq!(run.forest.to_mst_result(&g).in_mst, expected.in_mst);
    assert_eq!(run.forest.total_weight, expected.total_weight);
}

#[test]
fn file_backed_spilling_pipeline_matches_kruskal_at_any_thread_count() {
    // The Small r4 twin written to disk and solved out of core, the path
    // the repository benchmark measures. Stage 1 has no thread-count fork,
    // so a run pinned to one thread must agree with the unpinned run on
    // every observable, not only the forest.
    use ecl_mst_repro::graph::{io::write_binary, par::with_serial_input, BinaryFileShards};
    let g = ecl_mst_repro::graph::suite::r4_monolith(SuiteScale::Small);
    let expected = serial_kruskal(&g);
    let dir = std::env::temp_dir().join(format!("ecl-sharded-file-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("r4.eclg");
    write_binary(&g, &path).unwrap();
    let src = BinaryFileShards::open(&path).unwrap();
    let spill = dir.join("spill");
    for shards in [1, 8, 64] {
        let cfg = ShardedConfig::spilling(shards, &spill);
        let run = sharded_msf(&src, &cfg);
        assert_eq!(
            run.forest.to_mst_result(&g).in_mst,
            expected.in_mst,
            "file source diverges at K={shards}"
        );
        assert_eq!(run.forest.total_weight, expected.total_weight);
        let leftovers = std::fs::read_dir(&spill).unwrap().count();
        assert_eq!(leftovers, 0, "spill files left behind at K={shards}");

        let pinned = with_serial_input(|| sharded_msf(&src, &cfg));
        assert_eq!(pinned.forest, run.forest, "K={shards}");
        assert_eq!(pinned.survivor_edges, run.survivor_edges, "K={shards}");
        assert_eq!(pinned.merge_rounds, run.merge_rounds, "K={shards}");
        assert_eq!(pinned.spill_bytes, run.spill_bytes, "K={shards}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_reader_crosses_block_boundaries_inside_one_row() {
    // One hub row of more arcs than two 64 Ki-word read blocks hold, in a
    // sparse random graph: the file reader's row slices end at block
    // boundaries inside that row, in every shard call of both passes.
    use ecl_mst_repro::graph::{io::write_binary, par::with_serial_input, BinaryFileShards};
    let (n, hub) = (150_000u32, 1_000u32);
    let mut w = lcg(31);
    let mut b = GraphBuilder::new(n as usize);
    for v in (0..n).filter(|&v| v != hub) {
        b.add_edge(hub, v, w(1 << 24));
    }
    for (u, v, wt) in random_triples(n, 2 * n as usize, 37, |_| w(1 << 24)) {
        b.add_edge(u, v, wt);
    }
    let g = b.build();
    assert!(g.degree(hub) > 2 * 65_536);
    let expected = serial_kruskal(&g);
    let dir = std::env::temp_dir().join(format!("ecl-sharded-hub-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hub.eclg");
    write_binary(&g, &path).unwrap();
    let src = BinaryFileShards::open(&path).unwrap();
    let spill = dir.join("spill");
    for shards in [1, 3, 8] {
        let emitted: Vec<_> = (0..shards).flat_map(|k| src.shard(k, shards)).collect();
        assert_eq!(emitted, g.edge_list(), "shards in order at K={shards}");

        let cfg = ShardedConfig::spilling(shards, &spill);
        let run = sharded_msf(&src, &cfg);
        assert_eq!(
            run.forest.to_mst_result(&g).in_mst,
            expected.in_mst,
            "hub file diverges at K={shards}"
        );
        assert_eq!(run.forest.total_weight, expected.total_weight);
        assert!(run.survivor_edges > 0, "heavy pass skipped at K={shards}");

        let pinned = with_serial_input(|| sharded_msf(&src, &cfg));
        assert_eq!(pinned.survivor_edges, run.survivor_edges, "K={shards}");
        assert_eq!(pinned.merge_rounds, run.merge_rounds, "K={shards}");
        assert_eq!(pinned.spill_bytes, run.spill_bytes, "K={shards}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Solves the raw emission list `triples` (duplicates and loops allowed)
/// at K ∈ {1, 3, 64}, in memory and spilling, checks every forest against
/// `serial_kruskal` on the deduplicated graph and that no spill file is
/// left, and returns the runs.
fn raw_parity(name: &str, n: usize, triples: Vec<(u32, u32, u32)>) -> Vec<ShardedRun> {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in &triples {
        b.add_edge(u, v, w);
    }
    let g = b.build();
    let expected = serial_kruskal(&g);
    let src = InMemoryShards::new(n, triples);
    let spill = std::env::temp_dir().join(format!("ecl-raw-parity-{name}-{}", std::process::id()));
    let mut runs = Vec::new();
    for shards in [1, 3, 64] {
        for cfg in [
            ShardedConfig::in_memory(shards),
            ShardedConfig::spilling(shards, &spill),
        ] {
            let run = sharded_msf(&src, &cfg);
            let got = run.forest.to_mst_result(&g);
            assert_eq!(
                got.in_mst, expected.in_mst,
                "{name}: diverges at K={shards}"
            );
            assert_eq!(run.forest.total_weight, expected.total_weight, "{name}");
            runs.push(run);
        }
    }
    assert_eq!(
        std::fs::read_dir(&spill).unwrap().count(),
        0,
        "{name}: spill files left"
    );
    std::fs::remove_dir_all(&spill).ok();
    runs
}

/// Deterministic pseudo-random stream for the hand-built inputs below.
fn lcg(seed: u64) -> impl FnMut(u32) -> u32 {
    let mut x = seed;
    move |bound| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((x >> 33) % u64::from(bound)) as u32
    }
}

/// Random endpoint pairs, normalized to `u ≤ v` like every shard source's
/// emissions, loops included.
fn random_triples(
    n: u32,
    m: usize,
    seed: u64,
    mut weight: impl FnMut(usize) -> u32,
) -> Vec<(u32, u32, u32)> {
    let mut r = lcg(seed);
    (0..m)
        .map(|i| {
            let (a, b) = (r(n), r(n));
            (a.min(b), a.max(b), weight(i))
        })
        .collect()
}

/// The heavy pass kept survivors, and merged its shard runs when there
/// was more than one.
fn assert_heavy_pass_ran(name: &str, runs: &[ShardedRun]) {
    for run in runs {
        let k = run.shards;
        assert!(
            run.survivor_edges > 0,
            "{name}: heavy pass skipped at K={k}"
        );
        assert_eq!(run.merge_rounds, u32::from(k > 1), "{name}: K={k}");
    }
}

#[test]
fn dense_graphs_reach_the_heavy_pass() {
    // m ≥ 3n, spread over two emission blocks, so at K ∈ {3, 64} two
    // shards bring heavy survivors to the merge.
    let n = 30_000;
    let mut w = lcg(11);
    let runs = raw_parity(
        "dense",
        n as usize,
        random_triples(n, 4 * n as usize, 7, |_| w(1 << 20)),
    );
    assert_heavy_pass_ran("dense", &runs);
    let g = generators::copapers(1500, 14, 4);
    assert!(g.num_edges() >= 3 * g.num_vertices());
    let runs = raw_parity("copapers", g.num_vertices(), g.edge_list());
    assert_heavy_pass_ran("copapers", &runs);
}

#[test]
fn all_equal_weights_bound_on_endpoints() {
    // Every key shares its weight, so the light/heavy cut is decided by
    // `(u, v)` alone.
    let n = 2_000;
    let runs = raw_parity(
        "equal",
        n as usize,
        random_triples(n, 8 * n as usize, 3, |_| 7),
    );
    assert_heavy_pass_ran("equal", &runs);
}

#[test]
fn identical_duplicates_straddle_the_bound() {
    // Each triple is emitted three times in a row. With n = 1001 the
    // light set holds ⌈1.5·n⌉ = 1502 edges and the buffer first fills at
    // 2253 = 3·751 emissions, one selection in all: the bound is the
    // triple at rank 1502, whose copies sit at ranks 1500 and 1501 on the
    // light side of the cut.
    let n = 1_001;
    let mut w = lcg(5);
    let distinct = random_triples(n, 760, 9, |_| w(1 << 30));
    let triples: Vec<_> = distinct.iter().flat_map(|&t| [t, t, t]).collect();
    let runs = raw_parity("duplicates", n as usize, triples);
    assert_heavy_pass_ran("duplicates", &runs);
}

#[test]
fn descending_weights_tighten_the_bound_repeatedly() {
    // Every emission is lighter than all before it, so none is dropped on
    // arrival and the buffer fills and is cut back again and again.
    let n = 1_000;
    let m = 20 * n as usize;
    let runs = raw_parity(
        "descending",
        n as usize,
        random_triples(n, m, 13, |i| (m - i) as u32),
    );
    assert_heavy_pass_ran("descending", &runs);
}

#[test]
fn reversed_endpoints_key_like_the_builder() {
    // Raw pairs in either direction, as an edge list read from a file may
    // carry them: about half have u > v, every edge is also emitted
    // reversed with another weight, and weights repeat, so the light/heavy
    // cut and the ties are decided on normalized `(u, v)` keys.
    let n = 2_000u32;
    let mut r = lcg(23);
    let mut triples = Vec::new();
    for _ in 0..8 * n {
        let (a, b, w) = (r(n), r(n), r(64));
        triples.push((a, b, w));
        triples.push((b, a, r(64)));
    }
    assert!(triples.iter().any(|&(u, v, _)| u > v));
    let runs = raw_parity("reversed", n as usize, triples);
    assert_heavy_pass_ran("reversed", &runs);
}

#[test]
fn spanning_light_edges_skip_the_heavy_pass() {
    // A light path spans the graph before any heavy edge: the bound is
    // set, but the light forest already spans, so no shard is solved.
    let n = 3_000u32;
    let mut triples: Vec<_> = (0..n - 1).map(|u| (u, u + 1, u)).collect();
    triples.extend(random_triples(n, 6 * n as usize, 17, |i| n + i as u32));
    for run in raw_parity("spanning", n as usize, triples) {
        assert_eq!(run.survivor_edges, 0, "heavy pass ran at K={}", run.shards);
        assert_eq!(run.merge_rounds, 0);
        assert_eq!(run.spill_bytes, 0);
        assert_eq!(run.forest.num_edges(), n as usize - 1);
    }
}

#[test]
fn concurrent_spilling_runs_share_a_spill_dir() {
    // Two solves spilling into one directory at once must not see each
    // other's files, and both must clean up after themselves.
    let g = generators::uniform_random(3_000, 8.0, 21);
    let expected = serial_kruskal(&g);
    let src = InMemoryShards::new(g.num_vertices(), g.edge_list());
    let dir = std::env::temp_dir().join(format!("ecl-shared-spill-{}", std::process::id()));
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for shards in [3, 8] {
            let (src, dir, expected, g, start) = (&src, &dir, &expected, &g, &start);
            s.spawn(move || {
                let mut runs = Vec::new();
                for _ in 0..10 {
                    // Both solves of a round start together. A panic is
                    // caught so the other thread never waits here alone.
                    start.wait();
                    runs.push(std::panic::catch_unwind(|| {
                        sharded_msf(src, &ShardedConfig::spilling(shards, dir))
                    }));
                }
                for run in runs {
                    let run = run.expect("a spilling solve panicked");
                    assert!(run.spill_bytes > 0);
                    assert_eq!(run.forest.to_mst_result(g).in_mst, expected.in_mst);
                }
            });
        }
    });
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "spill files left behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}
