//! Edge-case and failure-injection tests across every implementation:
//! degenerate graphs, adversarial weight patterns, and inputs crafted to
//! stress specific optimizations.

use ecl_mst_repro::prelude::*;

/// Runs every MSF-capable code on `g` and demands exact agreement.
fn all_agree(g: &CsrGraph, label: &str) {
    let expected = serial_kruskal(g);
    let runs: Vec<(&str, MstResult)> = vec![
        ("ecl_cpu", ecl_mst_cpu(g)),
        ("ecl_gpu", ecl_mst_gpu(g, GpuProfile::TITAN_V)),
        ("prim", serial_prim(g)),
        ("filter_kruskal", filter_kruskal(g)),
        ("pbbs_serial", pbbs_serial(g)),
        ("pbbs_parallel", pbbs_parallel(g)),
        ("lonestar", lonestar_cpu(g)),
        ("uminho_cpu", uminho_cpu(g)),
        ("uminho_gpu", uminho_gpu(g, GpuProfile::TITAN_V).result),
        ("cugraph", cugraph_gpu(g, GpuProfile::TITAN_V).result),
    ];
    for (name, r) in runs {
        assert_eq!(r.in_mst, expected.in_mst, "{label}: {name} edge set");
        assert_eq!(
            r.total_weight, expected.total_weight,
            "{label}: {name} weight"
        );
    }
}

#[test]
fn empty_graph() {
    all_agree(&GraphBuilder::new(0).build(), "empty");
}

#[test]
fn single_vertex() {
    all_agree(&GraphBuilder::new(1).build(), "single vertex");
}

#[test]
fn isolated_vertices_only() {
    all_agree(&GraphBuilder::new(64).build(), "isolated vertices");
}

#[test]
fn single_edge() {
    let mut b = GraphBuilder::new(2);
    b.add_edge(0, 1, 42);
    all_agree(&b.build(), "single edge");
}

#[test]
fn two_vertex_multigraph_collapses() {
    let mut b = GraphBuilder::new(2);
    for w in [9, 3, 7, 3] {
        b.add_edge(0, 1, w);
    }
    let g = b.build();
    assert_eq!(g.num_edges(), 1);
    let r = ecl_mst_cpu(&g);
    assert_eq!(r.total_weight, 3);
    all_agree(&g, "multigraph");
}

#[test]
fn path_graph_all_edges_in_mst() {
    let n = 500;
    let mut b = GraphBuilder::new(n);
    for v in 0..(n - 1) as u32 {
        b.add_edge(v, v + 1, (v % 97) + 1);
    }
    let g = b.build();
    let r = ecl_mst_cpu(&g);
    assert_eq!(r.num_edges, n - 1, "a tree is its own MST");
    all_agree(&g, "path");
}

#[test]
fn star_graph_hub_stress() {
    // One hub with every other vertex attached: the worst case for
    // vertex-centric load balance and for reservation contention (every
    // edge reserves the same representative).
    let n = 2_000;
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.add_edge(0, v, v * 7 % 1009 + 1);
    }
    all_agree(&b.build(), "star");
}

#[test]
fn complete_graph_maximal_discard() {
    // K_40: 780 edges, 39 in the MST — exercises massive cycle discards.
    let n = 40u32;
    let mut b = GraphBuilder::new(n as usize);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v, (u * 31 + v * 17) % 211 + 1);
        }
    }
    all_agree(&b.build(), "complete");
}

#[test]
fn all_weights_equal() {
    // Ties broken purely by edge id everywhere.
    let g = generators::grid2d(15, 3);
    let mut b = GraphBuilder::new(g.num_vertices());
    for e in g.edges() {
        b.add_edge(e.src, e.dst, 7);
    }
    all_agree(&b.build(), "equal weights");
}

#[test]
fn extreme_weights() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 1);
    b.add_edge(1, 2, u32::MAX);
    b.add_edge(2, 3, u32::MAX - 1);
    b.add_edge(0, 3, u32::MAX);
    let g = b.build();
    let r = ecl_mst_cpu(&g);
    assert_eq!(r.num_edges, 3);
    all_agree(&g, "extreme weights");
}

#[test]
fn two_components_identical_structure() {
    // Forces per-component forests with interleaved vertex ids.
    let mut b = GraphBuilder::new(10);
    for (u, v, w) in [(0, 2, 5), (2, 4, 3), (4, 6, 8), (6, 8, 1)] {
        b.add_edge(u, v, w);
        b.add_edge(u + 1, v + 1, w);
    }
    let g = b.build();
    let r = ecl_mst_cpu(&g);
    assert_eq!(r.num_edges, 8);
    all_agree(&g, "two components");
}

#[test]
fn mst_only_codes_accept_then_reject() {
    // Connected input accepted...
    let connected = generators::grid2d(8, 1);
    assert!(jucele_gpu(&connected, GpuProfile::TITAN_V).is_ok());
    assert!(gunrock_gpu(&connected, GpuProfile::TITAN_V).is_ok());
    // ...then the same graph plus one isolated vertex rejected.
    let mut b = GraphBuilder::new(connected.num_vertices() + 1);
    for e in connected.edges() {
        b.add_edge(e.src, e.dst, e.weight);
    }
    let disconnected = b.build();
    assert_eq!(
        jucele_gpu(&disconnected, GpuProfile::TITAN_V).unwrap_err(),
        MstError::NotConnected
    );
    assert_eq!(
        gunrock_gpu(&disconnected, GpuProfile::TITAN_V).unwrap_err(),
        MstError::NotConnected
    );
}

#[test]
fn filtering_boundary_degrees() {
    // Average degree straddling the c = 4 threshold: both sides correct.
    for avg in [3.5, 4.5, 6.0] {
        let g = generators::uniform_random(800, avg, 5);
        let run = ecl_mst_cpu_with(&g, &OptConfig::full());
        verify_msf(&g, &run.result).unwrap_or_else(|e| panic!("avg {avg}: {e}"));
    }
}

#[test]
fn dense_clique_chain_filters_hard() {
    // copapers-style cliques: phase 1 sees a tiny fraction of the edges.
    let g = generators::copapers(3_000, 40, 8);
    assert!(g.average_degree() > 20.0);
    let run = ecl_mst_cpu_with(&g, &OptConfig::full());
    assert_eq!(run.phases, 2);
    verify_msf(&g, &run.result).unwrap();
    all_agree(&g, "clique chain");
}
