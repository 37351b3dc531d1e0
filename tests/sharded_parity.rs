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
