//! CSR build round-trip.
//!
//! Every suite graph came out of `GraphBuilder::build`, so feeding its edge
//! list back in — shuffled, with endpoints reversed and heavier duplicates
//! added — must give back the same CSR: same row starts, same adjacency
//! order, same weights, same edge-id assignment. The scrambling exercises
//! the sort and dedup stages rather than a pass-through.

use ecl_graph::{suite, CsrGraph, GraphBuilder, SuiteScale};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn rebuild_scrambled(g: &CsrGraph, seed: u64) -> CsrGraph {
    let mut edges: Vec<(u32, u32, u32)> = g
        .edges()
        .map(|e| (e.src.max(e.dst), e.src.min(e.dst), e.weight))
        .collect();
    // Heavier duplicates, one arc direction each: dedup must keep the
    // originals.
    let dupes: Vec<_> = edges
        .iter()
        .step_by(7)
        .flat_map(|&(u, v, w)| [(v, u, w.saturating_add(1)), (u, v, w.saturating_add(9))])
        .collect();
    edges.extend(dupes);
    edges.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), edges.len());
    b.extend_edges(edges);
    b.build()
}

#[test]
fn every_tiny_topology_rebuilds_identically() {
    let entries = suite(SuiteScale::Tiny);
    assert_eq!(entries.len(), 17);
    for (seed, e) in entries.iter().enumerate() {
        let rebuilt = rebuild_scrambled(&e.graph, seed as u64);
        assert!(rebuilt == e.graph, "{}: rebuild diverged", e.name);
        rebuilt
            .validate()
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
    }
}

#[test]
fn empty_and_degenerate_graphs() {
    for (n, edges, m) in [
        (0usize, vec![], 0usize),
        (1, vec![], 0),
        (5, vec![], 0),
        (2, vec![(0u32, 1u32, 7u32)], 1),
        (
            3,
            vec![(0, 1, 1), (0, 1, 2), (1, 0, 1), (1, 2, 5), (2, 2, 3)],
            2,
        ),
    ] {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(edges);
        let g = b.build();
        assert_eq!((g.num_vertices(), g.num_edges()), (n, m), "n={n}");
        g.validate().unwrap();
        assert!(rebuild_scrambled(&g, 1) == g, "n={n}");
    }
}
