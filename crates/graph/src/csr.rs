//! Compressed sparse row (CSR) storage of weighted undirected graphs.
//!
//! Layout follows the ECL graph format the paper's artifact uses: a vertex
//! index array of length `n + 1` ("nindex"), an adjacency array of directed
//! arcs ("nlist"), and a parallel weight array ("eweight"). Because the graph
//! is undirected, every edge appears as two arcs `(u → v)` and `(v → u)`;
//! both arcs additionally carry the same *undirected edge id* so that MST
//! membership can be recorded once per edge, exactly as the CUDA code marks
//! `MST[id] = true`.

use crate::{EdgeId, VertexId, Weight};

/// A single directed arc as seen while iterating adjacency lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Source vertex of the arc.
    pub src: VertexId,
    /// Destination vertex of the arc.
    pub dst: VertexId,
    /// Weight of the underlying undirected edge.
    pub weight: Weight,
    /// Undirected edge id (shared with the mirror arc).
    pub id: EdgeId,
}

/// Weighted undirected graph in CSR form.
///
/// Invariants (checked by [`CsrGraph::validate`] and maintained by
/// [`crate::GraphBuilder`]):
/// * `row_starts.len() == num_vertices + 1`, monotonically non-decreasing,
///   first element 0, last element `adjacency.len()`.
/// * `adjacency`, `arc_weights` and `arc_edge_ids` have equal length.
/// * no self-loops; every arc has a mirror arc with equal weight and id.
/// * undirected edge ids are exactly `0..num_edges()`.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    row_starts: Vec<u32>,
    adjacency: Vec<VertexId>,
    arc_weights: Vec<Weight>,
    arc_edge_ids: Vec<EdgeId>,
    /// Process-unique identity used to key per-graph device caches. Clones
    /// share the uid (identical content), so a cached upload stays valid.
    uid: u64,
}

/// Structural equality: two graphs are equal when their four CSR arrays
/// match, regardless of when or where each was constructed (the cache `uid`
/// is deliberately excluded).
impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        self.row_starts == other.row_starts
            && self.adjacency == other.adjacency
            && self.arc_weights == other.arc_weights
            && self.arc_edge_ids == other.arc_edge_ids
    }
}

impl Eq for CsrGraph {}

fn next_uid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_UID: AtomicU64 = AtomicU64::new(1);
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

impl CsrGraph {
    /// Assembles a CSR graph from raw parts, validating all invariants.
    ///
    /// Prefer [`crate::GraphBuilder`] unless the arrays come from a trusted
    /// source such as [`crate::io::read_binary`].
    pub fn from_parts(
        row_starts: Vec<u32>,
        adjacency: Vec<VertexId>,
        arc_weights: Vec<Weight>,
        arc_edge_ids: Vec<EdgeId>,
    ) -> Result<Self, String> {
        let g = Self::from_parts_unchecked(row_starts, adjacency, arc_weights, arc_edge_ids);
        g.validate()?;
        Ok(g)
    }

    /// Assembles a CSR graph from raw parts without validation.
    ///
    /// Used internally by the builder, which establishes the invariants by
    /// construction. Misuse produces wrong answers, not memory unsafety
    /// (this crate forbids `unsafe`).
    pub(crate) fn from_parts_unchecked(
        row_starts: Vec<u32>,
        adjacency: Vec<VertexId>,
        arc_weights: Vec<Weight>,
        arc_edge_ids: Vec<EdgeId>,
    ) -> Self {
        Self {
            row_starts,
            adjacency,
            arc_weights,
            arc_edge_ids,
            uid: next_uid(),
        }
    }

    /// Process-unique identity of this graph instance, stable across clones.
    ///
    /// Device-side caches (CSR uploads shared by every code in a harness
    /// run) use this as their key; structural equality intentionally does
    /// not consider it.
    #[inline]
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// 64-bit digest of the four CSR arrays — structural content only, so
    /// two [`PartialEq`]-equal graphs digest equally while the process-local
    /// [`CsrGraph::uid`] plays no part. This is the cross-process analogue
    /// of `uid`, for checking that separately built inputs are identical.
    pub fn content_hash(&self) -> u64 {
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        fn mix(mut h: u64, x: u64) -> u64 {
            h ^= x.wrapping_mul(GAMMA);
            h = h.rotate_left(27).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^ (h >> 31)
        }
        let mut h = mix(0x6563_6C67_7270_6831, self.row_starts.len() as u64);
        for part in [
            &self.row_starts,
            &self.adjacency,
            &self.arc_weights,
            &self.arc_edge_ids,
        ] {
            h = mix(h, part.len() as u64);
            for &x in part.iter() {
                h = mix(h, u64::from(x));
            }
        }
        h
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_starts.len() - 1
    }

    /// Number of *undirected* edges (half the arc count).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Number of directed arcs stored (twice the edge count).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.adjacency.len()
    }

    /// Average degree `2|E| / |V|`, the quantity the paper's filtering
    /// heuristic compares against 4.
    #[inline]
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.row_starts[v as usize + 1] - self.row_starts[v as usize]) as usize
    }

    /// Range of arc indices belonging to vertex `v`.
    #[inline]
    pub fn arc_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.row_starts[v as usize] as usize..self.row_starts[v as usize + 1] as usize
    }

    /// Destination vertex of arc `a`.
    #[inline]
    pub fn arc_dst(&self, a: usize) -> VertexId {
        self.adjacency[a]
    }

    /// Weight of arc `a`.
    #[inline]
    pub fn arc_weight(&self, a: usize) -> Weight {
        self.arc_weights[a]
    }

    /// Undirected edge id of arc `a`.
    #[inline]
    pub fn arc_edge_id(&self, a: usize) -> EdgeId {
        self.arc_edge_ids[a]
    }

    /// Iterates the neighbors of `v` as full [`EdgeRef`]s.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.arc_range(v).map(move |a| EdgeRef {
            src: v,
            dst: self.adjacency[a],
            weight: self.arc_weights[a],
            id: self.arc_edge_ids[a],
        })
    }

    /// Iterates every undirected edge exactly once (the `v < n` direction the
    /// paper uses on Line 4 of Alg. 2), in vertex order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.neighbors(v).filter(move |e| e.src < e.dst))
    }

    /// Materializes every undirected edge as a canonical `(u, v, w)`
    /// triple with `u < v`, in vertex order — the owned view consumers
    /// that outlive the CSR (e.g. the in-memory shard source) build from,
    /// without borrowing the graph.
    pub fn edge_list(&self) -> Vec<(VertexId, VertexId, Weight)> {
        let mut out = Vec::with_capacity(self.num_edges());
        out.extend(self.edges().map(|e| (e.src, e.dst, e.weight)));
        out
    }

    /// Iterates all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// The raw CSR row index array (`nindex` in ECL terms), length `n + 1`.
    #[inline]
    pub fn row_starts(&self) -> &[u32] {
        &self.row_starts
    }

    /// The raw adjacency array (`nlist`), length `2|E|`.
    #[inline]
    pub fn adjacency(&self) -> &[VertexId] {
        &self.adjacency
    }

    /// The raw per-arc weight array (`eweight`), length `2|E|`.
    #[inline]
    pub fn arc_weights(&self) -> &[Weight] {
        &self.arc_weights
    }

    /// The raw per-arc undirected edge-id array, length `2|E|`.
    #[inline]
    pub fn arc_edge_ids(&self) -> &[EdgeId] {
        &self.arc_edge_ids
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Total weight of a set of edges given by undirected edge ids.
    pub fn edge_set_weight(&self, in_mst: &[bool]) -> u64 {
        debug_assert_eq!(in_mst.len(), self.num_edges());
        self.edges()
            .filter(|e| in_mst[e.id as usize])
            .map(|e| e.weight as u64)
            .sum()
    }

    /// Checks every structural invariant; returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.row_starts.is_empty() {
            return Err("row_starts must have length n + 1 >= 1".into());
        }
        if self.row_starts[0] != 0 {
            return Err("row_starts[0] must be 0".into());
        }
        if *self.row_starts.last().unwrap() as usize != self.adjacency.len() {
            return Err("row_starts must end at adjacency.len()".into());
        }
        if self.adjacency.len() != self.arc_weights.len()
            || self.adjacency.len() != self.arc_edge_ids.len()
        {
            return Err("adjacency, arc_weights and arc_edge_ids must have equal length".into());
        }
        if !self.adjacency.len().is_multiple_of(2) {
            return Err("arc count must be even (undirected graph)".into());
        }
        for w in self.row_starts.windows(2) {
            if w[0] > w[1] {
                return Err("row_starts must be non-decreasing".into());
            }
        }
        // Per-arc checks plus mirror pairing via an id-indexed table.
        let m = self.num_edges();
        let mut seen: Vec<Option<(VertexId, VertexId, Weight)>> = vec![None; m];
        for v in 0..n as VertexId {
            for e in self.neighbors(v) {
                // Reservation-word soundness: the MST codes pack each arc as
                // `(weight << 32) | edge_id` and use `u64::MAX` as the
                // atomicMin "empty" sentinel. An arc with both halves
                // all-ones would be indistinguishable from an empty slot and
                // silently vanish from every reservation, so it is rejected
                // here, at the same boundary that enforces the other CSR
                // invariants. (Builder-produced graphs cannot hit this: edge
                // ids are dense and capped at 2^31.)
                if e.weight == u32::MAX && e.id == u32::MAX {
                    return Err(format!(
                        "arc {v}->{} packs to the reservation-word sentinel \
                         (weight == u32::MAX and edge id == u32::MAX)",
                        e.dst
                    ));
                }
                if e.dst as usize >= n {
                    return Err(format!(
                        "arc from {v} points to out-of-range vertex {}",
                        e.dst
                    ));
                }
                if e.dst == v {
                    return Err(format!("self-loop at vertex {v}"));
                }
                if (e.id as usize) >= m {
                    return Err(format!("edge id {} out of range (m = {m})", e.id));
                }
                match seen[e.id as usize] {
                    None => seen[e.id as usize] = Some((e.src, e.dst, e.weight)),
                    Some((s, d, w)) => {
                        if !(s == e.dst && d == e.src && w == e.weight) {
                            return Err(format!(
                                "edge id {} is not a consistent mirror pair: ({s},{d},{w}) vs ({},{},{})",
                                e.id, e.src, e.dst, e.weight
                            ));
                        }
                    }
                }
            }
        }
        if seen.iter().any(Option::is_none) {
            return Err("some edge ids in 0..m never appear".into());
        }
        // Duplicate undirected edges would give two distinct ids for the same
        // endpoint pair; detect via sorted endpoint pairs.
        let mut pairs: Vec<(VertexId, VertexId)> = self
            .edges()
            .map(|e| (e.src.min(e.dst), e.src.max(e.dst)))
            .collect();
        pairs.sort_unstable();
        if pairs.windows(2).any(|w| w[0] == w[1]) {
            return Err("duplicate undirected edge between the same endpoints".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 7);
        b.add_edge(2, 0, 9);
        b.build()
    }

    #[test]
    fn triangle_counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.degree(0), 2);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn triangle_validates() {
        triangle().validate().unwrap();
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        let mut ids: Vec<_> = edges.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(edges.iter().all(|e| e.src < e.dst));
    }

    #[test]
    fn mirror_arcs_share_weight_and_id() {
        let g = triangle();
        for v in g.vertices() {
            for e in g.neighbors(v) {
                let mirror = g.neighbors(e.dst).find(|b| b.dst == v).unwrap();
                assert_eq!(mirror.weight, e.weight);
                assert_eq!(mirror.id, e.id);
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        g.validate().unwrap();
    }

    #[test]
    fn validate_rejects_self_loop() {
        let g = CsrGraph::from_parts_unchecked(
            vec![0, 2, 3, 3],
            vec![0, 1, 0],
            vec![1, 1, 1],
            vec![0, 0, 0],
        );
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_mismatched_mirror_weight() {
        let g = CsrGraph::from_parts_unchecked(vec![0, 1, 2], vec![1, 0], vec![3, 4], vec![0, 0]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_odd_arc_count() {
        let g = CsrGraph::from_parts_unchecked(vec![0, 1, 1], vec![1], vec![3], vec![0]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_mirror() {
        // Two arcs that both go 0 -> 1 (id 0 used twice in the same direction).
        let g = CsrGraph::from_parts_unchecked(vec![0, 2, 2], vec![1, 1], vec![3, 3], vec![0, 0]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_reservation_sentinel_collision() {
        // weight == u32::MAX with an all-ones edge id packs to u64::MAX,
        // the atomicMin "empty" sentinel — must be rejected with a
        // sentinel-specific error, not pass or fail for an unrelated reason.
        let g = CsrGraph::from_parts_unchecked(
            vec![0, 1, 2],
            vec![1, 0],
            vec![u32::MAX, u32::MAX],
            vec![u32::MAX, u32::MAX],
        );
        let err = g.validate().unwrap_err();
        assert!(err.contains("sentinel"), "{err}");
    }

    #[test]
    fn validate_accepts_max_weight_with_dense_ids() {
        // weight == u32::MAX alone is fine: dense edge ids keep the packed
        // word strictly below the sentinel.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, u32::MAX);
        b.build().validate().unwrap();
    }

    #[test]
    fn edge_set_weight_sums_marked_edges() {
        let g = triangle();
        let mut marks = vec![false; g.num_edges()];
        // Mark the two lightest edges (an actual MST of the triangle).
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_by_key(|e| e.weight);
        marks[edges[0].id as usize] = true;
        marks[edges[1].id as usize] = true;
        assert_eq!(g.edge_set_weight(&marks), 12);
    }

    #[test]
    fn content_hash_tracks_structural_equality() {
        let a = triangle();
        let b = triangle();
        assert_ne!(a.uid(), b.uid());
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), a.clone().content_hash());
        let mut other = GraphBuilder::new(3);
        other.add_edge(0, 1, 99);
        other.add_edge(1, 2, 7);
        assert_ne!(a.content_hash(), other.build().content_hash());
    }
}
