//! Incremental/dynamic MSF maintenance over batched edge updates.
//!
//! ROADMAP item 2 applies the paper's core insight — most edges never
//! matter to the MSF — over *time*: when a resident graph mutates, only
//! replacement-edge maintenance should run, not a full rebuild. This
//! module keeps a full adjacency plus the current minimum spanning forest
//! under batched insertions and deletions:
//!
//! * **Insert** — one `path_max` query on a link-cut forest
//!   (`dynamic/link_cut.rs`) answers both questions an insert asks: are
//!   the endpoints connected, and which tree edge has the largest key on
//!   the u–v tree path. An edge that joins two trees is linked; one that
//!   closes a cycle enters the forest only when it beats that maximum
//!   (cycle property), by a cut and a link. Each step is O(log n)
//!   amortized.
//! * **Delete** — removing a non-tree edge is local; removing a tree edge
//!   floods the smaller side of the cut and picks the lightest surviving
//!   crossing edge as the replacement (cut property), reusing the
//!   filter-partition idea from [`crate::filter`] to prune the candidate
//!   scan. When no replacement exists the component genuinely splits.
//!
//! # The edge order, and why rebuild-equivalence holds
//!
//! Every static code in this workspace breaks weight ties by *builder
//! edge id*, and [`ecl_graph::GraphBuilder`] assigns ids by sorted
//! `(u, v)` rank — so the packed `(weight, id)` total order is exactly the
//! lexicographic `(weight, u, v)` order, which is stable under mutation.
//! The engine maintains its forest under that same `(w, u, v)` key, so
//! after any update sequence its tree-edge set is **bit-identical** to
//! rebuilding the surviving edge set from scratch and running
//! [`crate::serial_kruskal`] (the `ecl-fuzz --updates` campaign enforces
//! this after every batch via [`crate::verify_msf`]).
//!
//! Adjacency rows are unordered; every choice the engine makes takes the
//! minimum or maximum key, so row order never reaches the result. Each
//! [`DynamicMsf::apply_batch`] records one `dynamic/apply_batch` trace
//! span and feeds the `ecl.dynamic.*` metrics.
//!
//! See DESIGN.md §18 for the full contract.

mod link_cut;

use crate::serial::serial_kruskal;
use ecl_graph::CsrGraph;
use link_cut::{Key, LinkCut};
use std::collections::{BTreeMap, VecDeque};

/// Candidate-set size below which the replacement search key-compares
/// directly instead of partitioning first (a threshold pass cannot pay for
/// itself on tiny scans).
const FILTER_MIN_CANDIDATES: usize = 64;

/// One edge update. Endpoints must be below the engine's vertex count;
/// self-loops are accepted and ignored (mirroring builder cleaning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert the undirected edge `{u, v}` with weight `w`. If the edge
    /// already exists the lighter weight wins (builder dedup semantics);
    /// inserting a heavier duplicate is a no-op.
    Insert {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// Edge weight.
        w: u32,
    },
    /// Delete the undirected edge `{u, v}` (no-op when absent).
    Delete {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
}

/// What one [`DynamicMsf::apply_batch`] call did, for callers and tests;
/// the same numbers feed the `ecl.dynamic.*` metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Ops in the batch (including no-ops).
    pub ops: usize,
    /// Edges actually added to the graph (self-loops and heavier
    /// duplicates excluded).
    pub inserted: usize,
    /// Edges actually removed from the graph.
    pub deleted: usize,
    /// Inserts that joined two components (new tree edge).
    pub links: usize,
    /// Inserts that displaced a heavier tree edge on their cycle.
    pub swaps: usize,
    /// Deletes that removed a tree edge.
    pub cuts: usize,
    /// Cuts healed by a replacement edge (partition unchanged).
    pub replacements: usize,
    /// Crossing-edge candidates examined across all replacement searches.
    pub candidates_scanned: usize,
    /// Total tree-edge additions plus removals (the churn gauge).
    pub tree_churn: usize,
}

/// A resident graph plus its minimum spanning forest, maintained under
/// batched edge updates.
///
/// ```
/// use ecl_mst::dynamic::{DynamicMsf, UpdateOp};
/// let mut m = DynamicMsf::new(4);
/// m.apply_batch(&[
///     UpdateOp::Insert { u: 0, v: 1, w: 5 },
///     UpdateOp::Insert { u: 1, v: 2, w: 7 },
///     UpdateOp::Insert { u: 0, v: 2, w: 6 }, // closes a cycle, displaces 1-2
/// ]);
/// assert_eq!(m.num_tree_edges(), 2);
/// assert_eq!(m.total_weight(), 11);
/// assert!(!m.is_tree_edge(1, 2));
/// ```
#[derive(Debug)]
pub struct DynamicMsf {
    n: usize,
    /// Full adjacency: `(v, w)` in row `u` for every live edge, both
    /// directions, unordered.
    nbrs: Vec<Vec<(u32, u32)>>,
    /// Forest adjacency, a subset of `nbrs`: `(v, edge node)` in row `u`,
    /// where the edge node in `lct` carries the edge's key.
    tree: Vec<Vec<(u32, u32)>>,
    /// The forest as a link-cut forest: connectivity and path-max queries.
    lct: LinkCut,
    num_edges: usize,
    num_tree_edges: usize,
    total_weight: u64,
    // Reusable search scratch: visit stamps, the two flood queues, and the
    // replacement-filter weights.
    mark: Vec<u32>,
    stamp: u32,
    qa: Vec<u32>,
    qb: Vec<u32>,
    wscratch: Vec<u32>,
}

impl DynamicMsf {
    /// Creates an engine over `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            nbrs: vec![Vec::new(); n],
            tree: vec![Vec::new(); n],
            lct: LinkCut::new(n),
            num_edges: 0,
            num_tree_edges: 0,
            total_weight: 0,
            mark: vec![0; n],
            stamp: 0,
            qa: Vec::new(),
            qb: Vec::new(),
            wscratch: Vec::new(),
        }
    }

    /// Seeds an engine from a resident CSR graph: the adjacency is copied
    /// from the CSR rows and the initial forest comes from one
    /// [`serial_kruskal`] run (construction *is* the rebuild the engine is
    /// later measured against).
    pub fn from_graph(g: &CsrGraph) -> Self {
        let mut m = Self::new(g.num_vertices());
        for (u, row) in m.nbrs.iter_mut().enumerate() {
            row.extend(
                g.arc_range(u as u32)
                    .map(|a| (g.arc_dst(a), g.arc_weight(a))),
            );
        }
        m.num_edges = g.num_edges();
        let msf = serial_kruskal(g);
        for e in g.edges().filter(|e| msf.in_mst[e.id as usize]) {
            let node = m.lct.alloc((e.weight, e.src, e.dst));
            m.tree[e.src as usize].push((e.dst, node));
            m.tree[e.dst as usize].push((e.src, node));
        }
        m.num_tree_edges = msf.num_edges;
        m.total_weight = msf.total_weight;
        // Root each tree at its first vertex and hang every node from its
        // BFS parent by a path-parent pointer: O(n), where n - 1 links
        // would cost O(n log n).
        let s = m.bump_stamp(1);
        for root in 0..m.n as u32 {
            if m.mark[root as usize] == s {
                continue;
            }
            m.mark[root as usize] = s;
            m.qa.clear();
            m.qa.push(root);
            let mut head = 0;
            while let Some(&x) = m.qa.get(head) {
                head += 1;
                for &(y, node) in &m.tree[x as usize] {
                    if m.mark[y as usize] != s {
                        m.mark[y as usize] = s;
                        m.lct.attach(node, x);
                        m.lct.attach(y, node);
                        m.qa.push(y);
                    }
                }
            }
        }
        m
    }

    /// Number of vertices (fixed for the engine's lifetime).
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of live undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of edges currently in the forest.
    pub fn num_tree_edges(&self) -> usize {
        self.num_tree_edges
    }

    /// Total weight of the forest.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Weight of the live edge `{u, v}`, if present.
    pub fn edge_weight(&self, u: u32, v: u32) -> Option<u32> {
        let (a, b) = canon(u, v)?;
        lookup(&self.nbrs, a, b)
    }

    /// True when `{u, v}` is currently a forest edge.
    pub fn is_tree_edge(&self, u: u32, v: u32) -> bool {
        canon(u, v).is_some_and(|(a, b)| self.tree_node(a, b).is_some())
    }

    /// Every forest edge as a canonical `(u, v, w)` triple with `u < v`,
    /// sorted — directly comparable against a rebuilt [`serial_kruskal`]
    /// edge set.
    pub fn tree_edges(&self) -> Vec<(u32, u32, u32)> {
        let mut out = Vec::with_capacity(self.num_tree_edges);
        for (u, row) in self.tree.iter().enumerate() {
            for &(v, node) in row {
                if (u as u32) < v {
                    out.push((u as u32, v, self.lct.key(node).0));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Component labels of the current forest: each vertex maps to the
    /// smallest vertex of its tree. Computed on demand by one O(n) flood
    /// of the forest adjacency.
    pub fn labels(&self) -> Vec<u32> {
        let mut labels = vec![u32::MAX; self.n];
        let mut stack = Vec::new();
        for root in 0..self.n as u32 {
            if labels[root as usize] != u32::MAX {
                continue;
            }
            labels[root as usize] = root;
            stack.push(root);
            while let Some(x) = stack.pop() {
                for &(y, _) in &self.tree[x as usize] {
                    if labels[y as usize] == u32::MAX {
                        labels[y as usize] = root;
                        stack.push(y);
                    }
                }
            }
        }
        labels
    }

    /// Applies `ops` in order. Records one `dynamic/apply_batch` trace
    /// span and the `ecl.dynamic.*` metrics.
    pub fn apply_batch(&mut self, ops: &[UpdateOp]) -> BatchStats {
        let _span = ecl_trace::range!(wall: "dynamic/apply_batch");
        let mut stats = BatchStats {
            ops: ops.len(),
            ..BatchStats::default()
        };
        for op in ops {
            match *op {
                UpdateOp::Insert { u, v, w } => self.do_insert(u, v, w, &mut stats),
                UpdateOp::Delete { u, v } => self.do_delete(u, v, &mut stats),
            }
        }
        ecl_metrics::counter!(DYNAMIC_BATCHES);
        ecl_metrics::gauge!(DYNAMIC_TREE_CHURN, stats.tree_churn as f64);
        stats
    }

    /// Edge node of the forest edge `{a, b}`, if it is one.
    fn tree_node(&self, a: u32, b: u32) -> Option<u32> {
        lookup(&self.tree, a, b)
    }

    /// Adds the forest edge `key` to the link-cut forest and both rows.
    fn link(&mut self, key: Key) {
        let (_, a, b) = key;
        let node = self.lct.insert(key);
        self.tree[a as usize].push((b, node));
        self.tree[b as usize].push((a, node));
    }

    /// Removes the forest edge held by `node` from the link-cut forest and
    /// both rows.
    fn unlink(&mut self, node: u32) {
        let (_, a, b) = self.lct.key(node);
        self.lct.remove(node);
        remove_entry(&mut self.tree[a as usize], |e| e.1 == node);
        remove_entry(&mut self.tree[b as usize], |e| e.1 == node);
    }

    fn do_insert(&mut self, u: u32, v: u32, w: u32, stats: &mut BatchStats) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "endpoint out of range"
        );
        let Some((a, b)) = canon(u, v) else {
            return; // self-loop, dropped exactly as the builder drops it
        };
        if let Some(old) = self.edge_weight(a, b) {
            if w >= old {
                return; // heavier duplicate: the lightest wins, as in dedup
            }
            for (x, y) in [(a, b), (b, a)] {
                let row = &mut self.nbrs[x as usize];
                let i = row
                    .iter()
                    .position(|e| e.0 == y)
                    .expect("mirrored row entry");
                row[i].1 = w;
            }
            if let Some(node) = self.tree_node(a, b) {
                // Decreasing a tree edge's weight can never evict it, but
                // the path aggregates above its node must see the new key.
                self.lct.set_key(node, (w, a, b));
                self.total_weight -= (old - w) as u64;
            } else {
                // A lighter non-tree edge may now displace its cycle max.
                let max = self
                    .lct
                    .path_max(a, b)
                    .expect("a live edge's endpoints share a tree");
                self.try_swap((w, a, b), max, stats);
            }
            return;
        }
        self.nbrs[a as usize].push((b, w));
        self.nbrs[b as usize].push((a, w));
        self.num_edges += 1;
        stats.inserted += 1;
        match self.lct.path_max(a, b) {
            // Different trees: the edge joins the forest unconditionally.
            None => {
                self.link((w, a, b));
                self.num_tree_edges += 1;
                self.total_weight += w as u64;
                stats.links += 1;
                stats.tree_churn += 1;
            }
            Some(max) => self.try_swap((w, a, b), max, stats),
        }
    }

    /// Cycle-property step for a non-tree edge `key` whose endpoints are
    /// connected: if it beats the maximum-key edge node `max` on their
    /// tree path, swap them (the displaced edge stays in the graph).
    fn try_swap(&mut self, key: Key, max: u32, stats: &mut BatchStats) {
        let max_key = self.lct.key(max);
        if key < max_key {
            self.unlink(max);
            self.link(key);
            self.total_weight = self.total_weight - max_key.0 as u64 + key.0 as u64;
            stats.swaps += 1;
            stats.tree_churn += 2;
        }
    }

    fn do_delete(&mut self, u: u32, v: u32, stats: &mut BatchStats) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "endpoint out of range"
        );
        let Some((a, b)) = canon(u, v) else {
            return;
        };
        let Some((_, w)) = remove_entry(&mut self.nbrs[a as usize], |e| e.0 == b) else {
            return; // absent edge: no-op
        };
        remove_entry(&mut self.nbrs[b as usize], |e| e.0 == a);
        self.num_edges -= 1;
        stats.deleted += 1;
        let Some(node) = self.tree_node(a, b) else {
            return; // non-tree edge: the forest is untouched
        };
        self.unlink(node);
        self.num_tree_edges -= 1;
        self.total_weight -= w as u64;
        stats.cuts += 1;
        stats.tree_churn += 1;
        if let Some(key) = self.replacement(a, b, stats) {
            self.link(key);
            self.num_tree_edges += 1;
            self.total_weight += key.0 as u64;
            stats.replacements += 1;
            stats.tree_churn += 1;
        }
        // Without a replacement the component genuinely split.
    }

    /// Cut-property step after deleting tree edge `(a, b)`: floods both
    /// sides of the cut in lockstep (cost bounded by the *smaller* side),
    /// then scans the finished side's incident edges for the lightest
    /// surviving crossing edge. Returns its canonical `(w, u, v)` key.
    fn replacement(&mut self, a: u32, b: u32, stats: &mut BatchStats) -> Option<Key> {
        let sa = self.bump_stamp(2);
        let sb = sa + 1;
        self.qa.clear();
        self.qa.push(a);
        self.mark[a as usize] = sa;
        self.qb.clear();
        self.qb.push(b);
        self.mark[b as usize] = sb;
        let (mut ha, mut hb) = (0usize, 0usize);
        // Alternate single-vertex expansions; the first flood to exhaust
        // has fully covered its side of the cut.
        let side_stamp = loop {
            if ha >= self.qa.len() {
                break sa;
            }
            let x = self.qa[ha];
            ha += 1;
            for &(y, _) in &self.tree[x as usize] {
                if self.mark[y as usize] != sa {
                    self.mark[y as usize] = sa;
                    self.qa.push(y);
                }
            }
            if hb >= self.qb.len() {
                break sb;
            }
            let x = self.qb[hb];
            hb += 1;
            for &(y, _) in &self.tree[x as usize] {
                if self.mark[y as usize] != sb {
                    self.mark[y as usize] = sb;
                    self.qb.push(y);
                }
            }
        };
        let side = if side_stamp == sa { &self.qa } else { &self.qb };
        // Every non-tree edge connects vertices of one component, and every
        // tree edge of a finished side stays inside it, so an incident edge
        // leaving the side must be a non-tree edge across the cut.
        let mut cands: Vec<Key> = Vec::new();
        for &x in side {
            for &(y, wxy) in &self.nbrs[x as usize] {
                if self.mark[y as usize] != side_stamp {
                    cands.push((wxy, x.min(y), x.max(y)));
                }
            }
        }
        stats.candidates_scanned += cands.len();
        ecl_metrics::histogram!(DYNAMIC_REPLACEMENT_CANDIDATES, cands.len() as f64);
        pick_lightest(&cands, &mut self.wscratch)
    }

    /// Advances the visit stamp by `by`, recycling the mark array on
    /// wraparound (once per ~4 billion searches).
    fn bump_stamp(&mut self, by: u32) -> u32 {
        if self.stamp > u32::MAX - by {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.stamp = 0;
        }
        self.stamp += by;
        self.stamp - by + 1
    }
}

/// The payload of the `{a, b}` entry in `rows`, found by scanning the
/// shorter of the two endpoint rows.
fn lookup(rows: &[Vec<(u32, u32)>], a: u32, b: u32) -> Option<u32> {
    let (x, y) = if rows[a as usize].len() <= rows[b as usize].len() {
        (a, b)
    } else {
        (b, a)
    };
    rows[x as usize].iter().find(|e| e.0 == y).map(|e| e.1)
}

/// Swap-removes and returns the first entry of `row` matching `hit`.
fn remove_entry(
    row: &mut Vec<(u32, u32)>,
    hit: impl Fn(&(u32, u32)) -> bool,
) -> Option<(u32, u32)> {
    let i = row.iter().position(hit)?;
    Some(row.swap_remove(i))
}

/// Canonical `(min, max)` endpoint pair; `None` for self-loops.
fn canon(u: u32, v: u32) -> Option<(u32, u32)> {
    if u == v {
        None
    } else {
        Some((u.min(v), u.max(v)))
    }
}

/// Picks the minimum `(w, u, v)` key among `cands`, reusing the
/// filter-partition idea from [`crate::filter::plan_filter`] on large
/// scans: sample a weight threshold, count the light partition with the
/// shared SWAR kernel ([`ecl_graph::simd::count_lt`]), and key-compare
/// only inside it — the partition contains the global minimum whenever it
/// is non-empty, by construction of the threshold.
fn pick_lightest(cands: &[(u32, u32, u32)], ws: &mut Vec<u32>) -> Option<(u32, u32, u32)> {
    if cands.len() < FILTER_MIN_CANDIDATES {
        return cands.iter().copied().min();
    }
    ws.clear();
    ws.extend(cands.iter().map(|c| c.0));
    // Threshold just above the lightest of ~20 evenly spaced samples: any
    // weight strictly below it includes the global minimum.
    let step = (cands.len() / 20).max(1);
    let sample_min = ws.iter().step_by(step).copied().min().expect("non-empty");
    let t = sample_min.saturating_add(1);
    if ecl_graph::simd::count_lt(ws, t) > 0 {
        cands.iter().copied().filter(|c| c.0 < t).min()
    } else {
        // All sampled weights saturate u32::MAX: partitioning is moot.
        cands.iter().copied().min()
    }
}

/// Sliding-window streaming over a [`DynamicMsf`]: each pushed stream item
/// enters the window and, once the window is full, the oldest item leaves.
/// The engine edge weight for a pair is always the minimum weight among
/// the pair's live items, so duplicate stream items behave like the
/// builder's keep-the-lightest dedup over the current window.
#[derive(Debug)]
pub struct SlidingWindow {
    engine: DynamicMsf,
    capacity: usize,
    /// Live stream items, oldest first (self-loops are dropped on push).
    items: VecDeque<(u32, u32, u32)>,
    /// Pair -> weight -> multiplicity for the live items.
    live: BTreeMap<(u32, u32), BTreeMap<u32, usize>>,
}

impl SlidingWindow {
    /// Creates a window of at most `capacity` stream items over `n`
    /// vertices.
    pub fn new(n: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            engine: DynamicMsf::new(n),
            capacity,
            items: VecDeque::new(),
            live: BTreeMap::new(),
        }
    }

    /// The engine maintaining the window's MSF.
    pub fn engine(&self) -> &DynamicMsf {
        &self.engine
    }

    /// Number of live stream items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no stream item is live.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Pushes one stream item, evicting the oldest once the window is
    /// over capacity, and applies the resulting updates as one batch.
    /// Self-loops are dropped without occupying a window slot.
    pub fn push(&mut self, u: u32, v: u32, w: u32) -> BatchStats {
        let Some((a, b)) = canon(u, v) else {
            return self.engine.apply_batch(&[]);
        };
        let mut ops = Vec::new();
        self.items.push_back((a, b, w));
        *self.live.entry((a, b)).or_default().entry(w).or_insert(0) += 1;
        ops.push(UpdateOp::Insert { u: a, v: b, w });
        while self.items.len() > self.capacity {
            let (oa, ob, ow) = self.items.pop_front().expect("over-capacity window");
            let weights = self.live.get_mut(&(oa, ob)).expect("live entry for item");
            let m = weights.get_mut(&ow).expect("live weight for item");
            *m -= 1;
            if *m == 0 {
                weights.remove(&ow);
            }
            match weights.keys().next().copied() {
                None => {
                    self.live.remove(&(oa, ob));
                    ops.push(UpdateOp::Delete { u: oa, v: ob });
                }
                Some(min_w) if min_w > ow => {
                    // The evicted item held the pair's minimum: raise the
                    // engine edge to the surviving minimum.
                    ops.push(UpdateOp::Delete { u: oa, v: ob });
                    ops.push(UpdateOp::Insert {
                        u: oa,
                        v: ob,
                        w: min_w,
                    });
                }
                Some(_) => {} // an equal-or-lighter copy survives
            }
        }
        self.engine.apply_batch(&ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::MstResult;
    use crate::verify::verify_msf;
    use ecl_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{Mutex, MutexGuard};

    /// Serializes every test that applies batches: `with_metrics` opens a
    /// process-wide recording gate, so a batch applied by a concurrently
    /// running sibling test would record into its session.
    static BATCH_LOCK: Mutex<()> = Mutex::new(());

    fn batch_lock() -> MutexGuard<'static, ()> {
        // A failed test poisons the lock; the guarded value is `()`.
        BATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Builds the CSR graph of a live-edge model.
    fn rebuild(n: usize, model: &BTreeMap<(u32, u32), u32>) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(n, model.len());
        for (&(u, v), &w) in model {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// Asserts the engine's forest is bit-identical to rebuilding `model`
    /// from scratch, via the full `verify_msf` gauntlet.
    fn assert_rebuild_equivalent(m: &DynamicMsf, model: &BTreeMap<(u32, u32), u32>) {
        assert_eq!(m.num_edges(), model.len());
        let g = rebuild(m.num_vertices(), model);
        let mut in_mst = vec![false; g.num_edges()];
        for e in g.edges() {
            in_mst[e.id as usize] = m.is_tree_edge(e.src, e.dst);
        }
        let r = MstResult::from_bitmap(&g, in_mst);
        assert_eq!(r.num_edges, m.num_tree_edges());
        assert_eq!(r.total_weight, m.total_weight());
        verify_msf(&g, &r).unwrap();
        // Labels must partition exactly like the forest.
        let labels = m.labels();
        for (u, v, _) in m.tree_edges() {
            assert_eq!(labels[u as usize], labels[v as usize]);
        }
    }

    /// Applies an op to the model with the engine's exact semantics.
    fn model_apply(model: &mut BTreeMap<(u32, u32), u32>, op: UpdateOp) {
        match op {
            UpdateOp::Insert { u, v, w } => {
                if u != v {
                    let key = (u.min(v), u.max(v));
                    let e = model.entry(key).or_insert(w);
                    *e = (*e).min(w);
                }
            }
            UpdateOp::Delete { u, v } => {
                model.remove(&(u.min(v), u.max(v)));
            }
        }
    }

    #[test]
    fn insert_links_and_swaps() {
        let _lock = batch_lock();
        let mut m = DynamicMsf::new(4);
        let s = m.apply_batch(&[
            UpdateOp::Insert { u: 0, v: 1, w: 4 },
            UpdateOp::Insert { u: 1, v: 2, w: 9 },
            UpdateOp::Insert { u: 2, v: 3, w: 2 },
            UpdateOp::Insert { u: 0, v: 2, w: 3 }, // displaces 1-2 (w=9)
        ]);
        assert_eq!(s.links, 3);
        assert_eq!(s.swaps, 1);
        assert_eq!(m.num_tree_edges(), 3);
        assert_eq!(m.total_weight(), 4 + 2 + 3);
        assert!(!m.is_tree_edge(1, 2));
        assert_eq!(m.edge_weight(1, 2), Some(9), "displaced edge stays live");
    }

    #[test]
    fn delete_finds_replacement() {
        let _lock = batch_lock();
        let mut m = DynamicMsf::new(4);
        m.apply_batch(&[
            UpdateOp::Insert { u: 0, v: 1, w: 1 },
            UpdateOp::Insert { u: 1, v: 2, w: 2 },
            UpdateOp::Insert { u: 0, v: 2, w: 5 },
            UpdateOp::Insert { u: 2, v: 3, w: 3 },
        ]);
        assert!(!m.is_tree_edge(0, 2));
        let s = m.apply_batch(&[UpdateOp::Delete { u: 1, v: 2 }]);
        assert_eq!(s.cuts, 1);
        assert_eq!(s.replacements, 1);
        assert!(
            m.is_tree_edge(0, 2),
            "0-2 is the only surviving crossing edge"
        );
        assert_eq!(m.total_weight(), 1 + 5 + 3);
    }

    #[test]
    fn delete_without_replacement_splits() {
        let _lock = batch_lock();
        let mut m = DynamicMsf::new(4);
        m.apply_batch(&[
            UpdateOp::Insert { u: 0, v: 1, w: 1 },
            UpdateOp::Insert { u: 1, v: 2, w: 2 },
        ]);
        let s = m.apply_batch(&[UpdateOp::Delete { u: 0, v: 1 }]);
        assert_eq!(s.cuts, 1);
        assert_eq!(s.replacements, 0);
        assert_eq!(m.num_tree_edges(), 1);
        let l = m.labels();
        assert_ne!(l[0], l[1], "component must have split");
        assert_eq!(l[1], l[2]);
        // Re-linking joins the split halves again.
        let s = m.apply_batch(&[UpdateOp::Insert { u: 0, v: 2, w: 7 }]);
        assert_eq!(s.links, 1);
        assert_eq!(m.labels()[0], m.labels()[1]);
    }

    #[test]
    fn duplicate_keeps_lightest_and_self_loops_drop() {
        let _lock = batch_lock();
        let mut m = DynamicMsf::new(3);
        let mut model = BTreeMap::new();
        let ops = [
            UpdateOp::Insert { u: 0, v: 1, w: 9 },
            UpdateOp::Insert { u: 1, v: 0, w: 4 }, // lighter duplicate wins
            UpdateOp::Insert { u: 0, v: 1, w: 7 }, // heavier duplicate: no-op
            UpdateOp::Insert { u: 2, v: 2, w: 1 }, // self-loop: dropped
            UpdateOp::Delete { u: 2, v: 2 },       // self-loop delete: no-op
        ];
        for op in ops {
            model_apply(&mut model, op);
        }
        m.apply_batch(&ops);
        assert_eq!(m.edge_weight(0, 1), Some(4));
        assert_eq!(m.num_edges(), 1);
        assert_rebuild_equivalent(&m, &model);
    }

    #[test]
    fn lighter_duplicate_can_enter_the_tree() {
        let _lock = batch_lock();
        // Triangle where the non-tree edge becomes the lightest.
        let mut m = DynamicMsf::new(3);
        m.apply_batch(&[
            UpdateOp::Insert { u: 0, v: 1, w: 2 },
            UpdateOp::Insert { u: 1, v: 2, w: 3 },
            UpdateOp::Insert { u: 0, v: 2, w: 9 }, // non-tree
        ]);
        assert!(!m.is_tree_edge(0, 2));
        m.apply_batch(&[UpdateOp::Insert { u: 0, v: 2, w: 1 }]);
        assert!(m.is_tree_edge(0, 2));
        assert_eq!(m.total_weight(), 1 + 2);
    }

    #[test]
    fn deleting_absent_and_non_tree_edges_is_cheap() {
        let _lock = batch_lock();
        let mut m = DynamicMsf::new(3);
        m.apply_batch(&[
            UpdateOp::Insert { u: 0, v: 1, w: 1 },
            UpdateOp::Insert { u: 1, v: 2, w: 2 },
            UpdateOp::Insert { u: 0, v: 2, w: 3 },
        ]);
        let s = m.apply_batch(&[
            UpdateOp::Delete { u: 2, v: 0 }, // non-tree
            UpdateOp::Delete { u: 2, v: 0 }, // now absent
        ]);
        assert_eq!(s.deleted, 1);
        assert_eq!(s.cuts, 0);
        assert_eq!(m.num_tree_edges(), 2);
    }

    #[test]
    fn randomized_batches_stay_rebuild_equivalent() {
        let _lock = batch_lock();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 40usize;
        let mut m = DynamicMsf::new(n);
        let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for _batch in 0..30 {
            let mut ops = Vec::new();
            for _ in 0..12 {
                if model.is_empty() || rng.gen_range(0..10u32) < 6 {
                    ops.push(UpdateOp::Insert {
                        u: rng.gen_range(0..n as u32),
                        v: rng.gen_range(0..n as u32),
                        w: rng.gen_range(0..20u32),
                    });
                } else {
                    // Delete a uniformly random live edge (or miss).
                    let i = rng.gen_range(0..model.len());
                    let (&(u, v), _) = model.iter().nth(i).expect("non-empty");
                    ops.push(UpdateOp::Delete { u, v });
                }
            }
            for &op in &ops {
                model_apply(&mut model, op);
            }
            m.apply_batch(&ops);
            assert_rebuild_equivalent(&m, &model);
        }
    }

    #[test]
    fn from_graph_matches_serial_kruskal() {
        let g = ecl_graph::generators::rmat(8, 4, 3);
        let m = DynamicMsf::from_graph(&g);
        let r = serial_kruskal(&g);
        assert_eq!(m.num_tree_edges(), r.num_edges);
        assert_eq!(m.total_weight(), r.total_weight);
        let mut model = BTreeMap::new();
        for (u, v, w) in g.edge_list() {
            model.insert((u, v), w);
        }
        assert_rebuild_equivalent(&m, &model);
    }

    #[test]
    fn replacement_filter_partition_agrees_with_plain_min() {
        let _lock = batch_lock();
        // Force the filtered path (>= FILTER_MIN_CANDIDATES candidates):
        // a long path 0-1-...-k plus many crossing edges over one cut.
        let n = 200usize;
        let mut m = DynamicMsf::new(n);
        let mut ops: Vec<UpdateOp> = (0..n as u32 - 1)
            .map(|i| UpdateOp::Insert {
                u: i,
                v: i + 1,
                w: 0,
            })
            .collect();
        // Crossing edges over the 99-100 cut, all heavier than the path.
        for i in 0..90u32 {
            ops.push(UpdateOp::Insert {
                u: i,
                v: n as u32 - 1 - i,
                w: 1000 - i,
            });
        }
        m.apply_batch(&ops);
        let s = m.apply_batch(&[UpdateOp::Delete { u: 99, v: 100 }]);
        assert_eq!(s.replacements, 1);
        assert!(s.candidates_scanned >= FILTER_MIN_CANDIDATES);
        // Lightest crossing edge is (89, 110, 911).
        assert!(m.is_tree_edge(89, 110));
        let mut model = BTreeMap::new();
        for (u, v, w) in m.tree_edges() {
            model.insert((u, v), w);
        }
        // Sanity: the engine still verifies against its own edge set.
        assert_eq!(m.num_tree_edges(), n - 1);
        drop(model);
    }

    #[test]
    fn sliding_window_tracks_the_live_suffix() {
        let _lock = batch_lock();
        // Window of 4 over a stream with duplicates: the engine must
        // always equal a rebuild of the last-4-items edge multiset.
        let stream: Vec<(u32, u32, u32)> = vec![
            (0, 1, 5),
            (1, 2, 3),
            (0, 1, 2), // lighter duplicate of 0-1
            (2, 3, 4),
            (0, 1, 9), // heavier duplicate; evicts (0,1,5)
            (3, 4, 1), // evicts (1,2,3)
            (1, 2, 8), // evicts (0,1,2): 0-1 weight must *raise* to 9
        ];
        let mut w = SlidingWindow::new(5, 4);
        let mut window: VecDeque<(u32, u32, u32)> = VecDeque::new();
        for &(u, v, wt) in &stream {
            w.push(u, v, wt);
            window.push_back((u.min(v), u.max(v), wt));
            while window.len() > 4 {
                window.pop_front();
            }
            // Model: min weight per pair over the live window items.
            let mut model: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            for &(a, b, x) in &window {
                let e = model.entry((a, b)).or_insert(x);
                *e = (*e).min(x);
            }
            assert_eq!(w.len(), window.len());
            super::tests::assert_rebuild_equivalent(w.engine(), &model);
        }
        assert_eq!(w.engine().edge_weight(0, 1), Some(9));
    }

    #[test]
    fn batch_metrics_feed_the_registry() {
        let _lock = batch_lock();
        let ((), snap) = ecl_metrics::with_metrics(|| {
            let mut m = DynamicMsf::new(4);
            m.apply_batch(&[
                UpdateOp::Insert { u: 0, v: 1, w: 1 },
                UpdateOp::Insert { u: 1, v: 2, w: 2 },
                UpdateOp::Insert { u: 0, v: 2, w: 3 },
            ]);
            m.apply_batch(&[UpdateOp::Delete { u: 0, v: 1 }]);
        });
        assert_eq!(snap.counter("ecl.dynamic.batches"), 2);
        let hist = snap
            .entries
            .iter()
            .find(|e| e.name == "ecl.dynamic.replacement_candidates")
            .expect("histogram exported");
        assert_eq!(hist.count, 1, "one replacement search ran");
        let churn = snap
            .entries
            .iter()
            .find(|e| e.name == "ecl.dynamic.tree_churn")
            .expect("gauge exported");
        assert_eq!(churn.gauge, 2.0, "cut + replacement in the last batch");
    }

    #[test]
    fn apply_batch_emits_a_trace_span() {
        let _lock = batch_lock();
        let ((), session) = ecl_trace::with_trace(|| {
            let mut m = DynamicMsf::new(2);
            m.apply_batch(&[UpdateOp::Insert { u: 0, v: 1, w: 1 }]);
        });
        assert!(
            session.chrome_trace().contains("dynamic/apply_batch"),
            "batch span missing from trace"
        );
    }

    /// Reference path-max over forest rows of `(neighbor, edge node)`: BFS
    /// from `a`, then walk the BFS parents back from `b`. O(component) per
    /// query; the oracle the link-cut forest is checked against.
    fn bfs_path_max(
        tree: &[Vec<(u32, u32)>],
        key: impl Fn(u32) -> Key,
        a: u32,
        b: u32,
    ) -> Option<u32> {
        let mut par: Vec<Option<(u32, u32)>> = vec![None; tree.len()];
        let mut seen = vec![false; tree.len()];
        seen[a as usize] = true;
        let mut queue = VecDeque::from([a]);
        while let Some(x) = queue.pop_front() {
            if x == b {
                break;
            }
            for &(y, node) in &tree[x as usize] {
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    par[y as usize] = Some((x, node));
                    queue.push_back(y);
                }
            }
        }
        if !seen[b as usize] {
            return None;
        }
        let mut best: Option<u32> = None;
        let mut cur = b;
        while let Some((p, node)) = par[cur as usize] {
            if best.is_none_or(|m| key(node) > key(m)) {
                best = Some(node);
            }
            cur = p;
        }
        best
    }

    #[test]
    fn link_cut_forest_matches_the_bfs_oracle() {
        // Random link / cut / key-decrease sequences; every step first
        // checks the link-cut path-max (and connectivity) against the BFS.
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 48usize;
            let mut lct = LinkCut::new(n);
            let mut tree: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
            let mut keys: BTreeMap<u32, Key> = BTreeMap::new();
            for _ in 0..3000 {
                let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                let Some((a, b)) = canon(a, b) else {
                    continue;
                };
                let want = bfs_path_max(&tree, |e| keys[&e], a, b);
                assert_eq!(lct.path_max(a, b), want, "seed {seed}: path max of {a}-{b}");
                match rng.gen_range(0..3u32) {
                    0 if want.is_none() => {
                        let key = (rng.gen_range(0..100u32), a, b);
                        let e = lct.insert(key);
                        keys.insert(e, key);
                        tree[a as usize].push((b, e));
                        tree[b as usize].push((a, e));
                    }
                    1 if !keys.is_empty() => {
                        let i = rng.gen_range(0..keys.len());
                        let (&e, &(_, u, v)) = keys.iter().nth(i).expect("non-empty");
                        lct.remove(e);
                        keys.remove(&e);
                        tree[u as usize].retain(|x| x.1 != e);
                        tree[v as usize].retain(|x| x.1 != e);
                    }
                    2 if !keys.is_empty() => {
                        let i = rng.gen_range(0..keys.len());
                        let (&e, &(w, u, v)) = keys.iter().nth(i).expect("non-empty");
                        let key = (rng.gen_range(0..=w), u, v);
                        lct.set_key(e, key);
                        keys.insert(e, key);
                    }
                    _ => {}
                }
                for (&e, &key) in &keys {
                    assert_eq!(lct.key(e), key);
                }
            }
        }
    }

    #[test]
    fn deep_path_chords_at_both_ends() {
        let _lock = batch_lock();
        // A 2^14-vertex path seeded in one piece hangs 2^15 path-parent
        // pointers deep; chords between its two ends close cycles through
        // the whole path, and short chords at either end close tiny ones.
        let n = 1u32 << 14;
        let path_w = |i: u32| (i.wrapping_mul(7919) % 1000) + 1;
        let mut model: BTreeMap<(u32, u32), u32> =
            (0..n - 1).map(|i| ((i, i + 1), path_w(i))).collect();
        let mut m = DynamicMsf::from_graph(&rebuild(n as usize, &model));
        let mut chords = Vec::new();
        for i in 0..32u32 {
            chords.push((i, n - 1 - i, 900 + i));
            chords.push((i, i + 2, 500 + i));
            chords.push((n - 3 - i, n - 1 - i, 500 + i));
        }
        for (a, b, w) in chords {
            let want = bfs_path_max(&m.tree, |e| m.lct.key(e), a, b);
            assert_eq!(m.lct.path_max(a, b), want, "path max of {a}-{b}");
            let op = UpdateOp::Insert { u: a, v: b, w };
            model_apply(&mut model, op);
            m.apply_batch(&[op]);
        }
        assert_rebuild_equivalent(&m, &model);
    }
}
