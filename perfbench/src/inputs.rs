//! Seeded workload inputs.
//!
//! The suite twins are rebuilt here from the public generators with the
//! recipes of `ecl_graph::suite_specs`, except that every per-graph seed is
//! `seed ^ k` instead of the suite's fixed `0x5EED_2023 ^ k`. At
//! [`DEFAULT_SEED`] the graphs are therefore byte-identical to
//! `ecl_graph::suite(scale)` (a test checks this by content hash), and any
//! other seed gives fresh inputs of the same shape.

use ecl_graph::builder::append_isolated;
use ecl_graph::generators::*;
use ecl_graph::{par, CsrGraph, GraphBuilder, SuiteScale};
use ecl_mst::UpdateOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The seed at which the suite twins equal `ecl_graph::suite`.
pub const DEFAULT_SEED: u64 = 0x5EED_2023;

/// Builds the 17 Table-2 twins at `scale` in Table 2 order, named as in
/// the suite.
pub fn suite(scale: SuiteScale, seed: u64) -> Vec<(&'static str, CsrGraph)> {
    let n0 = scale.base();
    let s0 = scale.log2_base();
    let isqrt = |x: usize| (x as f64).sqrt() as usize;
    type Recipe = Box<dyn Fn() -> CsrGraph + Send + Sync>;
    let recipes: Vec<(&'static str, Recipe)> = vec![
        ("2d-2e20.sym", Box::new(move || grid2d(isqrt(n0), seed ^ 1))),
        (
            "amazon0601",
            Box::new(move || preferential_attachment(n0 / 4, 6, 7, seed ^ 2)),
        ),
        (
            "as-skitter",
            Box::new(move || preferential_attachment(n0 / 2, 6, (n0 / 2048).max(4), seed ^ 3)),
        ),
        (
            "citationCiteseer",
            Box::new(move || citation(n0 / 4, 4, 1, seed ^ 4)),
        ),
        (
            "cit-Patents",
            Box::new(move || citation(n0, 4, (n0 / 1024).max(8), seed ^ 5)),
        ),
        (
            "coPapersDBLP",
            Box::new(move || copapers(n0 / 2, 28, seed ^ 6)),
        ),
        (
            "delaunay_n24",
            Box::new(move || delaunay_like(isqrt(2 * n0), seed ^ 7)),
        ),
        (
            "europe_osm",
            Box::new(move || road_map(isqrt(4 * n0), 2.1, seed ^ 8)),
        ),
        (
            "in-2004",
            Box::new(move || webcrawl(n0 / 2, 10, (n0 / 4096).max(4), seed ^ 9)),
        ),
        (
            "internet",
            Box::new(move || internet_topo(n0 / 8, 3.1, seed ^ 10)),
        ),
        (
            "kron_g500-logn21",
            Box::new(move || {
                append_isolated(&kronecker(s0 - 1, 43, seed ^ 11), (n0 / 2) * 26 / 100)
            }),
        ),
        ("r4-2e23.sym", Box::new(move || r4(scale, seed))),
        (
            "rmat16.sym",
            Box::new(move || append_isolated(&rmat(s0 - 3, 8, seed ^ 13), (n0 / 8) * 6 / 100)),
        ),
        (
            "rmat22.sym",
            Box::new(move || append_isolated(&rmat(s0, 8, seed ^ 14), n0 / 10)),
        ),
        (
            "soc-LiveJournal1",
            Box::new(move || preferential_attachment(n0, 9, (n0 / 1024).max(8), seed ^ 15)),
        ),
        (
            "USA-road-d.NY",
            Box::new(move || road_map(isqrt(n0 / 8), 2.8, seed ^ 16)),
        ),
        (
            "USA-road-d.USA",
            Box::new(move || road_map(isqrt(2 * n0), 2.4, seed ^ 17)),
        ),
    ];
    par::par_map(&recipes, |_, (name, gen)| (*name, gen()))
}

/// The `r4-2e23.sym` twin alone (the sharded workload's input).
pub fn r4(scale: SuiteScale, seed: u64) -> CsrGraph {
    uniform_random(scale.base(), 8.0, seed ^ 12)
}

/// The dynamic workload's resident graph: RMAT with edge factor 8.
pub fn dynamic_graph(log2_vertices: u32, seed: u64) -> CsrGraph {
    rmat(log2_vertices, 8, seed ^ 0xD1)
}

/// Update batches, applied in order.
pub type Stream = Vec<Vec<UpdateOp>>;

/// Whether batch `b` of an [`update_stream`] is a delete batch.
pub fn is_delete_batch(b: usize) -> bool {
    b % 3 == 2
}

/// A seeded update stream over `g`: `batches` batches of `ops_per_batch`
/// ops, where every third batch deletes and the other two insert. Deletes
/// name edges live at that point of the stream (tracked on a model of the
/// edge set), so none is a no-op; inserts draw fresh random edges.
/// Returns the stream and the live edge set after the whole stream, in
/// canonical `(u, v)` order.
pub fn update_stream(
    g: &CsrGraph,
    batches: usize,
    ops_per_batch: usize,
    seed: u64,
) -> (Stream, Vec<(u32, u32, u32)>) {
    let n = g.num_vertices() as u32;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57EA_3000);
    let mut live: BTreeMap<(u32, u32), u32> = g
        .edge_list()
        .into_iter()
        .map(|(u, v, w)| ((u, v), w))
        .collect();
    // Sampling pool for deletes: the keys of `live`, swap-removed on delete.
    let mut pool: Vec<(u32, u32)> = live.keys().copied().collect();
    let mut stream = Vec::with_capacity(batches);
    for b in 0..batches {
        let mut ops = Vec::with_capacity(ops_per_batch);
        for _ in 0..ops_per_batch {
            if is_delete_batch(b) && !pool.is_empty() {
                let (u, v) = pool.swap_remove(rng.gen_range(0..pool.len()));
                live.remove(&(u, v));
                ops.push(UpdateOp::Delete { u, v });
            } else {
                let u = rng.gen_range(0..n);
                let v = (u + rng.gen_range(1..n)) % n;
                let w = rng.gen_range(1..1_000_000u32);
                let key = (u.min(v), u.max(v));
                match live.get_mut(&key) {
                    Some(old) => *old = (*old).min(w),
                    None => {
                        live.insert(key, w);
                        pool.push(key);
                    }
                }
                ops.push(UpdateOp::Insert { u, v, w });
            }
        }
        stream.push(ops);
    }
    let edges = live.into_iter().map(|((u, v), w)| (u, v, w)).collect();
    (stream, edges)
}

/// Builds a CSR graph from canonical `(u, v, w)` triples.
pub fn build(n: usize, edges: &[(u32, u32, u32)]) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.extend_edges(edges.iter().copied());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_suite() {
        let ours = suite(SuiteScale::Tiny, DEFAULT_SEED);
        let theirs = ecl_graph::suite(SuiteScale::Tiny);
        assert_eq!(ours.len(), theirs.len());
        for ((name, g), e) in ours.iter().zip(&theirs) {
            assert_eq!(*name, e.name);
            assert_eq!(g.content_hash(), e.graph.content_hash(), "{name}");
        }
        assert_eq!(
            r4(SuiteScale::Tiny, DEFAULT_SEED).content_hash(),
            ecl_graph::suite::r4_monolith(SuiteScale::Tiny).content_hash()
        );
    }

    #[test]
    fn other_seeds_give_other_inputs() {
        let a = suite(SuiteScale::Tiny, 1);
        let b = suite(SuiteScale::Tiny, 2);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.1.content_hash() != y.1.content_hash()));
        assert_eq!(
            suite(SuiteScale::Tiny, 1)[3].1.content_hash(),
            a[3].1.content_hash()
        );
    }

    #[test]
    fn stream_deletes_only_live_edges() {
        let g = dynamic_graph(8, 3);
        let (stream, final_edges) = update_stream(&g, 6, 16, 3);
        assert_eq!(stream.len(), 6);
        let mut live: BTreeMap<(u32, u32), u32> = g
            .edge_list()
            .into_iter()
            .map(|(u, v, w)| ((u, v), w))
            .collect();
        for (b, ops) in stream.iter().enumerate() {
            for op in ops {
                match *op {
                    UpdateOp::Delete { u, v } => {
                        assert!(is_delete_batch(b));
                        assert!(live.remove(&(u, v)).is_some(), "delete of a dead edge");
                    }
                    UpdateOp::Insert { u, v, w } => {
                        assert!(!is_delete_batch(b));
                        assert_ne!(u, v);
                        let slot = live.entry((u.min(v), u.max(v))).or_insert(w);
                        *slot = (*slot).min(w);
                    }
                }
            }
        }
        let model: Vec<_> = live.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        assert_eq!(model, final_edges);
    }
}
