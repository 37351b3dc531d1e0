//! Edge-list ingestion and CSR construction.
//!
//! Implements the paper's input cleaning (§4): "we modified the graphs to
//! eliminate self-loops and multiple edges between the same two vertices. We
//! added any missing back edges to make the graphs undirected."

use crate::csr::CsrGraph;
use crate::{VertexId, Weight};

/// Accumulates undirected weighted edges and produces a clean [`CsrGraph`].
///
/// * self-loops are dropped,
/// * parallel edges are collapsed keeping the **lightest** weight (any MST of
///   the multigraph uses only lightest parallels, so this preserves MSTs),
/// * each surviving undirected edge gets a fresh id and two mirror arcs.
///
/// ```
/// use ecl_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1, 10);
/// b.add_edge(1, 0, 3); // parallel: lighter weight wins
/// b.add_edge(2, 2, 1); // self-loop: dropped
/// b.add_edge(2, 3, 7);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.neighbors(0).next().unwrap().weight, 3);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    /// Normalized as (min endpoint, max endpoint, weight).
    edges: Vec<(VertexId, VertexId, Weight)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    ///
    /// # Panics
    /// If `num_vertices` exceeds `u32::MAX` (the 32-bit CSR limit).
    pub fn new(num_vertices: usize) -> Self {
        assert!(
            num_vertices <= u32::MAX as usize,
            "binary 32-bit CSR format supports at most 2^32 - 1 vertices"
        );
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Creates a builder expecting roughly `edge_hint` edges.
    pub fn with_capacity(num_vertices: usize, edge_hint: usize) -> Self {
        let mut b = Self::new(num_vertices);
        b.edges.reserve(edge_hint);
        b
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Adds an undirected edge. Self-loops are silently dropped; duplicates
    /// are resolved at [`build`](Self::build) time.
    ///
    /// # Panics
    /// If either endpoint is out of range.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u},{v}) out of range for {} vertices",
            self.num_vertices
        );
        if u == v {
            return;
        }
        self.edges.push((u.min(v), u.max(v), w));
    }

    /// Adds every edge from an iterator of `(u, v, w)` triples.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId, Weight)>>(&mut self, it: I) {
        for (u, v, w) in it {
            self.add_edge(u, v, w);
        }
    }

    /// Number of raw (pre-dedup) edges added so far.
    pub fn raw_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Builds directly from an already-normalized edge list, skipping the
    /// per-edge `add_edge` bookkeeping. Triples must satisfy the `add_edge`
    /// postcondition: `u < v`, both in range. The chunked generators emit in
    /// exactly that form.
    pub(crate) fn from_normalized(
        num_vertices: usize,
        edges: Vec<(VertexId, VertexId, Weight)>,
    ) -> Self {
        let mut b = Self::new(num_vertices);
        debug_assert!(edges
            .iter()
            .all(|&(u, v, _)| u < v && (v as usize) < num_vertices));
        b.edges = edges;
        b
    }

    /// Deduplicates, symmetrizes and converts to CSR.
    ///
    /// One sort of the normalized triples puts each parallel run's lightest
    /// copy first; dedup keeps it; a counting sort by source then places
    /// both arcs of every surviving edge. No per-row sort follows, because
    /// the rows come out ascending already: the deduped list is sorted by
    /// `(u, v)`, so every edge `(a, s)` with `a < s` precedes every `(s, b)`,
    /// and the counting sort fills row `s` with its lower neighbours
    /// ascending, then its higher neighbours ascending. Destinations are
    /// unique after dedup, so each row strictly ascends.
    pub fn build(mut self) -> CsrGraph {
        let t0 = ecl_metrics::active().then(|| {
            // ecl-lint: allow(wall-clock-in-sim) host-side build-wall metric, gated on an active session; never feeds simulated numbers
            std::time::Instant::now()
        });
        let n = self.num_vertices;

        self.edges.sort_unstable();
        self.edges.dedup_by_key(|&mut (u, v, _)| (u, v));

        let m = self.edges.len();
        assert!(
            2 * m <= u32::MAX as usize,
            "arc count exceeds 32-bit CSR limit"
        );

        // Counting sort of arcs by source vertex.
        let mut row_starts = vec![0u32; n + 1];
        for &(u, v, _) in &self.edges {
            row_starts[u as usize + 1] += 1;
            row_starts[v as usize + 1] += 1;
        }
        for i in 1..row_starts.len() {
            row_starts[i] += row_starts[i - 1];
        }

        let mut cursor = row_starts.clone();
        let mut adjacency = vec![0 as VertexId; 2 * m];
        let mut arc_weights = vec![0 as Weight; 2 * m];
        let mut arc_edge_ids = vec![0u32; 2 * m];
        for (id, &(u, v, w)) in self.edges.iter().enumerate() {
            for (s, d) in [(u, v), (v, u)] {
                let slot = cursor[s as usize] as usize;
                cursor[s as usize] += 1;
                adjacency[slot] = d;
                arc_weights[slot] = w;
                arc_edge_ids[slot] = id as u32;
            }
        }

        let g = CsrGraph::from_parts_unchecked(row_starts, adjacency, arc_weights, arc_edge_ids);
        ecl_metrics::counter!(GRAPH_BUILDS);
        ecl_metrics::histogram!(GRAPH_BUILD_ARCS, g.num_arcs() as f64);
        if let Some(t0) = t0 {
            ecl_metrics::histogram!(GRAPH_BUILD_SECONDS, t0.elapsed().as_secs_f64());
        }
        g
    }
}

/// Returns a copy of `g` with `extra` isolated vertices appended.
///
/// The paper's RMAT/Kronecker inputs are padded to a power-of-two vertex
/// count by their generator; the unreached vertices account for most of
/// their huge connected-component counts. This helper reproduces that
/// padding for the synthetic twins.
pub fn append_isolated(g: &CsrGraph, extra: usize) -> CsrGraph {
    let mut row_starts = g.row_starts().to_vec();
    let last = *row_starts.last().expect("row_starts never empty");
    row_starts.extend(std::iter::repeat_n(last, extra));
    CsrGraph::from_parts_unchecked(
        row_starts,
        g.adjacency().to_vec(),
        g.arc_weights().to_vec(),
        g.arc_edge_ids().to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_lightest() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 9);
        b.add_edge(1, 0, 2);
        b.add_edge(0, 1, 5);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0).next().unwrap().weight, 2);
        g.validate().unwrap();
    }

    #[test]
    fn dedup_keeps_lightest_wherever_the_lightest_arrives() {
        // Pins the io_dimacs module-doc promise ("collapse parallels
        // keeping the lightest"): lightest-wins — not first-wins or
        // last-wins — with the lightest duplicate arriving first, last, and
        // mid-run, in both arc directions.
        let edges: &[(VertexId, VertexId, Weight)] = &[
            (0, 1, 4), // lightest first
            (1, 0, 9),
            (1, 2, 8),
            (2, 1, 3), // lightest last
            (0, 2, 7),
            (2, 0, 5), // lightest mid-run
            (0, 2, 6),
        ];
        let mut b = GraphBuilder::new(3);
        b.extend_edges(edges.iter().copied());
        let g = b.build();
        let weight_of = |u: VertexId, v: VertexId| {
            g.neighbors(u)
                .find(|e| e.dst == v)
                .expect("edge present")
                .weight
        };
        assert_eq!(weight_of(0, 1), 4);
        assert_eq!(weight_of(1, 2), 3);
        assert_eq!(weight_of(0, 2), 5);
        assert_eq!(g.num_edges(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1, 4);
        b.add_edge(0, 2, 4);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn every_row_strictly_ascends() {
        // `validate` does not check row order, and `build` sorts no row: the
        // order falls out of the sorted, deduped edge list. Pin it on a dense
        // multigraph fed in random order, with self-loops, both directions
        // and repeated pairs.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 40;
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = GraphBuilder::new(n);
        for _ in 0..3000 {
            b.add_edge(
                rng.gen_range(0..n as VertexId),
                rng.gen_range(0..n as VertexId),
                rng.gen_range(0..50),
            );
        }
        let g = b.build();
        for v in 0..n as VertexId {
            let row: Vec<VertexId> = g.neighbors(v).map(|e| e.dst).collect();
            assert!(row.windows(2).all(|p| p[0] < p[1]), "row {v}: {row:?}");
        }
        g.validate().unwrap();
    }

    #[test]
    fn edge_ids_dense_and_shared() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(2, 3, 3);
        let g = b.build();
        let mut ids: Vec<_> = g.edges().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_endpoint() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1);
    }

    #[test]
    fn extend_edges_matches_add_edge() {
        let mut a = GraphBuilder::new(4);
        a.extend_edges([(0, 1, 5), (1, 2, 6)]);
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 6);
        assert_eq!(a.build(), b.build());
    }

    #[test]
    fn append_isolated_adds_components() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let padded = append_isolated(&g, 5);
        assert_eq!(padded.num_vertices(), 8);
        assert_eq!(padded.num_edges(), 2);
        assert_eq!(padded.degree(5), 0);
        padded.validate().unwrap();
        assert_eq!(crate::stats::connected_components(&padded), 6);
    }

    #[test]
    fn append_isolated_zero_is_identity() {
        let g = {
            let mut b = GraphBuilder::new(2);
            b.add_edge(0, 1, 3);
            b.build()
        };
        assert_eq!(append_isolated(&g, 0), g);
    }

    #[test]
    fn build_large_star_is_valid() {
        let n = 1000;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as VertexId {
            b.add_edge(0, v, v);
        }
        let g = b.build();
        assert_eq!(g.degree(0), n - 1);
        assert_eq!(g.max_degree(), n - 1);
        g.validate().unwrap();
    }
}
