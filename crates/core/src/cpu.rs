//! CPU-parallel ECL-MST backend.
//!
//! The same unified Kruskal/Borůvka algorithm as the GPU kernels (Algs. 1–2
//! of the paper), executed on host threads through [`ecl_graph::par`]
//! instead of CUDA blocks: lock-free [`AtomicDsu`] unions, 64-bit
//! `fetch_min` deterministic reservations, and double-buffered worklists
//! that are sized once per phase and reused every round. All eight
//! optimization toggles of [`OptConfig`] are honored so the
//! de-optimization ladder can be measured as real CPU wall-clock, not just
//! simulated GPU time.
//!
//! Every kernel runs over fixed-size chunks of its worklist, so the
//! worklists (and with them the round count) are the same at any thread
//! budget: kernel 1 writes each chunk's survivors at the chunk's input
//! offset and moves them together in chunk order, and reservations are
//! `fetch_min`s on packed `(weight, id)` words, which do not depend on
//! order. The two loops whose finds race with unions in the same kernel
//! (the select kernel without implicit path compression, and the
//! topology-driven select) run in program order, because which reserved
//! edge a re-find still matches there depends on the union order.

use crate::config::OptConfig;
use crate::filter::{plan_filter, FilterPlan};
use crate::result::{pack, MstResult, EMPTY};
use ecl_dsu::{AtomicDsu, DsuTally, FindPolicy};
use ecl_graph::{par, CsrGraph, Weight};
use ecl_trace::HopHistogram;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Worklist items (or arcs, or vertices) per chunk of a kernel: a chunk
/// amortizes its scheduling, and a worklist shorter than one chunk runs
/// on the calling thread without starting any.
const CHUNK: usize = 1 << 14;

/// Vertices per chunk of the thread-based populate and the vertex-centric
/// topology-driven loops, where a whole row is one unit of work.
const VERTEX_CHUNK: usize = 1 << 10;

/// Outcome of a run plus the execution counters the paper reports in §5.1.
#[derive(Debug)]
pub struct CpuRun {
    /// The computed MST/MSF.
    pub result: MstResult,
    /// Main-loop iterations (kernel-1 executions) across all phases.
    pub iterations: usize,
    /// 1 without filtering, 2 with.
    pub phases: usize,
}

/// One worklist entry: ⟨source rep, destination rep, weight, edge id⟩.
type Item = [u32; 4];

/// What one chunk of a kernel counted. Chunks count in locals, so
/// concurrent finds share no counter; the caller folds the chunks in
/// chunk order and publishes once per kernel.
#[derive(Default)]
struct Tally {
    /// DSU events, for the `ecl.dsu.*` counters.
    dsu: DsuTally,
    /// Hops of the kernel's own finds, for the trace profile.
    hops: HopHistogram,
    /// Weight of the edges the chunk added to the forest.
    weight: u64,
    /// Number of edges the chunk added to the forest.
    edges: usize,
}

impl Tally {
    fn merge(mut self, other: &Tally) -> Tally {
        self.dsu.merge(&other.dsu);
        self.hops.merge(&other.hops);
        self.weight += other.weight;
        self.edges += other.edges;
        self
    }
}

/// A read-only view of the current worklist in the tuples/SoA layout: the
/// AoS form stores 16-byte items contiguously; the SoA form keeps four
/// separate arrays (the paper's "No Tuples" variant).
#[derive(Clone, Copy)]
enum View<'a> {
    Aos(&'a [Item]),
    Soa([&'a [u32]; 4]),
}

impl View<'_> {
    #[inline]
    fn get(&self, i: usize) -> Item {
        match self {
            View::Aos(v) => v[i],
            View::Soa(c) => [c[0][i], c[1][i], c[2][i], c[3][i]],
        }
    }
}

/// The worklist of one phase. Kernel 1 filters it in place: each chunk
/// compacts its survivors to the front of its own window, and the runs
/// then move together in chunk order. The list is allocated once per phase
/// and only shrinks, so a round allocates nothing.
struct Worklist {
    /// The list in AoS form; under SoA, kernel 1's output buffer.
    items: Vec<Item>,
    /// The list in SoA form, else empty.
    cols: [Vec<u32>; 4],
    tuples: bool,
}

impl Worklist {
    fn new(items: Vec<Item>, tuples: bool) -> Self {
        let mut wl = Self {
            items,
            cols: Default::default(),
            tuples,
        };
        if !tuples {
            wl.transpose(wl.items.len());
        }
        wl
    }

    /// Copies the first `len` AoS items into the columns.
    fn transpose(&mut self, len: usize) {
        for (k, col) in self.cols.iter_mut().enumerate() {
            col.clear();
            col.extend(self.items[..len].iter().map(|it| it[k]));
        }
    }

    fn len(&self) -> usize {
        if self.tuples {
            self.items.len()
        } else {
            self.cols[0].len()
        }
    }

    fn view(&self) -> View<'_> {
        if self.tuples {
            View::Aos(&self.items)
        } else {
            let c = &self.cols;
            View::Soa([&c[0], &c[1], &c[2], &c[3]])
        }
    }

    /// Kernel 1's shape: `f(item, tally)` returns what the item leaves on
    /// the next list, if anything; those entries, in list order, become
    /// the list. Returns the chunks' tallies.
    fn filter(&mut self, f: impl Fn(Item, &mut Tally) -> Option<Item> + Sync) -> Vec<Tally> {
        let len = self.len();
        let soa = (!self.tuples).then(|| {
            let c = &self.cols;
            [&c[0][..], &c[1][..], &c[2][..], &c[3][..]]
        });
        let (kept, tallies) = par::filter_chunks(&mut self.items[..len], CHUNK, |r, w| {
            let mut t = Tally::default();
            let mut kept = 0;
            for (j, i) in r.enumerate() {
                let it = match soa {
                    Some(c) => [c[0][i], c[1][i], c[2][i], c[3][i]],
                    None => w[j], // in place: slot j is read before any write reaches it
                };
                if let Some(out) = f(it, &mut t) {
                    w[kept] = out;
                    kept += 1;
                }
            }
            (kept, t)
        });
        if self.tuples {
            self.items.truncate(kept);
        } else {
            self.transpose(kept);
        }
        tallies
    }
}

/// The arcs of a range with their sources, skipping the second direction
/// of each edge under `one_direction`: `(source, arc)` in arc order.
struct KeptArcs<'g> {
    row: &'g [u32],
    adj: &'g [u32],
    one_dir: bool,
    v: usize,
    arcs: Range<usize>,
}

impl<'g> KeptArcs<'g> {
    fn new(row: &'g [u32], adj: &'g [u32], one_dir: bool, arcs: Range<usize>) -> Self {
        // The last vertex whose row starts at or before the first arc.
        let v = row.partition_point(|&s| s as usize <= arcs.start).max(1) - 1;
        Self {
            row,
            adj,
            one_dir,
            v,
            arcs,
        }
    }
}

impl Iterator for KeptArcs<'_> {
    type Item = (u32, usize);

    #[inline]
    fn next(&mut self) -> Option<(u32, usize)> {
        loop {
            let a = self.arcs.next()?;
            while self.row[self.v + 1] as usize <= a {
                self.v += 1;
            }
            let v = self.v as u32;
            if !(self.one_dir && v >= self.adj[a]) {
                return Some((v, a));
            }
        }
    }
}

struct State<'g> {
    g: &'g CsrGraph,
    cfg: OptConfig,
    policy: FindPolicy,
    dsu: AtomicDsu,
    min_edge: Vec<AtomicU64>,
    in_mst: Vec<AtomicBool>,
    iterations: usize,
    /// Weight and count of the forest so far, summed by the kernels that
    /// add edges.
    weight: u64,
    edges: usize,
    /// Flat-label scratch reused by the label fast paths (one allocation
    /// per solve, refilled per round).
    labels: Vec<u32>,
    /// Whether a trace session is active on the calling thread: the
    /// kernels then record every find's hops for the profile and skip the
    /// flat-label fast paths. Captured once — the hot path must not
    /// re-query.
    collect_hops: bool,
}

impl<'g> State<'g> {
    fn new(g: &'g CsrGraph, cfg: OptConfig) -> Self {
        let policy = if cfg.implicit_compression {
            // Finds never write: compression happens implicitly because the
            // next worklist carries representatives instead of endpoints.
            FindPolicy::NoCompression
        } else {
            // The de-optimized variant compresses explicitly at use sites,
            // with the cache-blocked bounded variant of path halving.
            FindPolicy::BlockedHalving
        };
        Self {
            g,
            cfg,
            policy,
            dsu: AtomicDsu::new(g.num_vertices()),
            min_edge: (0..g.num_vertices())
                .map(|_| AtomicU64::new(EMPTY))
                .collect(),
            in_mst: (0..g.num_edges()).map(|_| AtomicBool::new(false)).collect(),
            iterations: 0,
            weight: 0,
            edges: 0,
            labels: Vec::new(),
            collect_hops: ecl_trace::active(),
        }
    }

    /// A policy-driven find, counted into the chunk's tally.
    #[inline]
    fn find(&self, x: u32, t: &mut Tally) -> u32 {
        let (r, h) = self.dsu.find_tallied(x, self.policy, &mut t.dsu);
        if self.collect_hops {
            t.hops.record(h);
        }
        r
    }

    /// Guarded 64-bit atomicMin reservation (Lines 20–21 of Alg. 2).
    #[inline]
    fn reserve(&self, slot: u32, val: u64) {
        let cell = &self.min_edge[slot as usize];
        if self.cfg.atomic_guards && cell.load(Ordering::Relaxed) <= val {
            return; // the atomic could not lower the value
        }
        cell.fetch_min(val, Ordering::AcqRel);
    }

    /// Adds edge `id` to the forest: unions its endpoints and marks it,
    /// counting its weight once even when both directions select it.
    #[inline]
    fn pick(&self, v: u32, n: u32, w: Weight, id: u32, t: &mut Tally) {
        self.dsu.union_tallied(v, n, self.policy, &mut t.dsu);
        if !self.in_mst[id as usize].swap(true, Ordering::Relaxed) {
            t.weight += u64::from(w);
            t.edges += 1;
        }
    }

    /// Folds a kernel's chunk tallies, adds its forest edges to the totals
    /// and publishes its DSU events: the counters once, and the hop
    /// histogram into the calling thread's trace session.
    fn absorb(&mut self, chunks: &[Tally]) {
        let t = chunks.iter().fold(Tally::default(), Tally::merge);
        self.weight += t.weight;
        self.edges += t.edges;
        t.dsu.publish();
        if self.collect_hops {
            ecl_trace::record_find_histogram(&t.hops);
        }
    }

    /// Groups a fresh worklist by source-key block — a stable counting
    /// sort on `item[0] >> shift` (the representative in phase 2), with the
    /// block size chosen degree-aware so one block's parent and
    /// reservation slots stay cache-resident while its items stream.
    /// Order-only: the MSF is unique under the packed `(weight, id)`
    /// tie-break, so any worklist permutation yields the identical result.
    /// Phase 1 needs no sort: populate emits its items in vertex order.
    fn locality_sort(&self, items: Vec<Item>) -> Vec<Item> {
        let n = self.g.num_vertices();
        if !self.cfg.locality_order || items.len() < 2 || n == 0 {
            return items;
        }
        // Aim for ~8k items per block: denser graphs get smaller vertex
        // blocks (their items concentrate), sparser ones larger.
        let avg_deg = (items.len() / n).max(1);
        let block = (8192 / avg_deg).next_power_of_two().clamp(256, 65_536);
        let shift = block.trailing_zeros();
        let mut starts = vec![0usize; (n - 1) / block + 2];
        for it in &items {
            starts[(it[0] as usize >> shift) + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let mut out = vec![[0u32; 4]; items.len()];
        for it in items {
            let b = it[0] as usize >> shift;
            out[starts[b]] = it;
            starts[b] += 1;
        }
        out
    }

    /// Arc ranges the populate kernel treats as units of work, in arc
    /// order. Under the hybrid scheme a chunk is [`CHUNK`] arcs, so a hub's
    /// row is split across workers (the CPU analogue of the GPU's warp per
    /// high-degree vertex); thread-based, a chunk is whole rows of
    /// [`VERTEX_CHUNK`] vertices, hubs and all.
    fn populate_chunks(&self) -> Vec<Range<usize>> {
        let g = self.g;
        if self.cfg.hybrid_warp {
            par::chunk_ranges(g.num_arcs(), CHUNK)
        } else {
            let row = g.row_starts();
            par::chunk_ranges(g.num_vertices(), VERTEX_CHUNK)
                .into_iter()
                .map(|r| row[r.start] as usize..row[r.end] as usize)
                .collect()
        }
    }

    /// Populates the phase-1 worklist from the graph (Lines 1–11 of
    /// Alg. 2), in arc order, which is already the locality order. With a
    /// filter threshold, arcs at or above it go to the second list instead
    /// — the raw heavy arcs phase 2 is built from, captured in the same
    /// sweep. A count pass sizes both lists exactly, and each chunk then
    /// writes its items at its own offsets.
    fn populate(&self, threshold: Option<Weight>) -> (Vec<Item>, Vec<Item>) {
        let _r = ecl_trace::range!(wall: "populate");
        let g = self.g;
        let one_dir = self.cfg.one_direction;
        let (row, adj) = (g.row_starts(), g.adjacency());
        let (wts, ids) = (g.arc_weights(), g.arc_edge_ids());
        let heavy = |a: usize| threshold.is_some_and(|t| wts[a] >= t);
        let kept = |arcs: &Range<usize>| KeptArcs::new(row, adj, one_dir, arcs.clone());
        let chunks = self.populate_chunks();
        let counts = par::par_map(&chunks, |_, arcs| {
            let mut c = [0usize; 2];
            kept(arcs).for_each(|(_, a)| c[usize::from(heavy(a))] += 1);
            c
        });
        let total = counts
            .iter()
            .fold([0, 0], |s, c| [s[0] + c[0], s[1] + c[1]]);
        let mut light = vec![[0u32; 4]; total[0]];
        let mut heavy_items = vec![[0u32; 4]; total[1]];
        let mut windows = Vec::with_capacity(chunks.len());
        let (mut l, mut h) = (&mut light[..], &mut heavy_items[..]);
        for c in &counts {
            let (lw, lt) = l.split_at_mut(c[0]);
            let (hw, ht) = h.split_at_mut(c[1]);
            windows.push((lw, hw));
            (l, h) = (lt, ht);
        }
        par::par_map_mut(&mut windows, |c, (lw, hw)| {
            let (mut i, mut j) = (0, 0);
            for (v, a) in kept(&chunks[c]) {
                let it = [v, adj[a], wts[a], ids[a]];
                if heavy(a) {
                    hw[j] = it;
                    j += 1;
                } else {
                    lw[i] = it;
                    i += 1;
                }
            }
        });
        (light, heavy_items)
    }

    /// Builds the phase-2 worklist in place from the captured heavy arcs:
    /// map both endpoints through the (now quiescent) forest and drop
    /// intra-set edges — the actual filtering step. With read-only finds
    /// one O(n) flat-labeling pass replaces two pointer chases per arc.
    fn populate_phase2(&mut self, heavy: Vec<Item>) -> Vec<Item> {
        let _r = ecl_trace::range!(wall: "populate");
        let use_labels = self.policy == FindPolicy::NoCompression && !self.collect_hops;
        if use_labels {
            self.dsu.flat_labels_into(&mut self.labels);
        }
        let st = &*self;
        let mut list = Worklist::new(heavy, true);
        let tallies = list.filter(|[v, n, w, id], t| {
            let (p, q) = st.reps(v, n, use_labels, t);
            (p != q).then_some([p, q, w, id])
        });
        self.absorb(&tallies);
        list.items
    }

    /// The representatives of `v` and `n`: flat labels when they are
    /// fresh, else finds.
    #[inline]
    fn reps(&self, v: u32, n: u32, use_labels: bool, t: &mut Tally) -> (u32, u32) {
        if use_labels {
            (self.labels[v as usize], self.labels[n as usize])
        } else {
            (self.find(v, t), self.find(n, t))
        }
    }

    /// Kernel 1 (Lines 14–23): cycle check, implicit path compression,
    /// deterministic reservations. Filters the worklist in place into the
    /// next one.
    fn reserve_kernel(&mut self, wl: &mut Worklist) {
        self.iterations += 1;
        // The structure is quiescent at kernel entry (unions happen only in
        // the barrier-separated select kernel), so when finds are read-only
        // and the worklist covers a sizable fraction of the vertex set, one
        // O(n) flat-labeling pass is cheaper than two pointer chases per
        // item. Skipped while hop-tracing so profiles keep real chase data.
        let use_labels = self.policy == FindPolicy::NoCompression
            && !self.collect_hops
            && wl.len() >= self.g.num_vertices() / 4;
        if use_labels {
            self.dsu.flat_labels_into(&mut self.labels);
        }
        let st = &*self;
        let tallies = wl.filter(|[v, n, w, id], t| {
            let (p, q) = st.reps(v, n, use_labels, t);
            if p == q {
                return None; // edge closes a cycle: discard
            }
            let val = pack(w, id);
            st.reserve(p, val);
            st.reserve(q, val);
            Some(if st.cfg.implicit_compression {
                [p, q, w, id] // store representatives (impl. path compr.)
            } else {
                [v, n, w, id]
            })
        });
        self.absorb(&tallies);
    }

    /// Kernel 2 (Lines 27–33): include reserved edges, union their sets.
    fn select_kernel(&mut self, wl: &Worklist) {
        let list = wl.view();
        let select = |i: usize, t: &mut Tally| {
            let [v, n, w, id] = list.get(i);
            let (p, q) = if self.cfg.implicit_compression {
                (v, n) // entries already hold the reps recorded in kernel 1
            } else {
                (self.find(v, t), self.find(n, t))
            };
            let val = pack(w, id);
            if self.min_edge[p as usize].load(Ordering::Acquire) == val
                || self.min_edge[q as usize].load(Ordering::Acquire) == val
            {
                self.pick(v, n, w, id, t);
            }
        };
        let tallies = if self.cfg.implicit_compression {
            par::run_chunks(wl.len(), CHUNK, |r| {
                let mut t = Tally::default();
                r.for_each(|i| select(i, &mut t));
                t
            })
        } else {
            // Re-finds race with this kernel's unions: program order.
            let mut t = Tally::default();
            (0..wl.len()).for_each(|i| select(i, &mut t));
            vec![t]
        };
        self.absorb(&tallies);
    }

    /// Kernel 3 (Lines 34–37): clear the touched reservation slots. A slot
    /// many items share is written once: the load keeps the others from
    /// pulling its cache line away from the other workers. A list of at
    /// least n/4 items touches most slots, and clearing every slot then
    /// streams through the array instead of loading two random slots per
    /// item.
    fn reset_kernel(&mut self, wl: &Worklist) {
        if wl.len() >= self.g.num_vertices() / 4 {
            self.clear_reservations();
            return;
        }
        let list = wl.view();
        let st = &*self;
        let tallies = par::run_chunks(wl.len(), CHUNK, |r| {
            let mut t = Tally::default();
            for i in r {
                let [v, n, _, _] = list.get(i);
                let (p, q) = if st.cfg.implicit_compression {
                    (v, n)
                } else {
                    (st.find(v, &mut t), st.find(n, &mut t))
                };
                for s in [p, q] {
                    let slot = &st.min_edge[s as usize];
                    if slot.load(Ordering::Relaxed) != EMPTY {
                        slot.store(EMPTY, Ordering::Release);
                    }
                }
            }
            t
        });
        self.absorb(&tallies);
    }

    /// Sets every reservation slot to [`EMPTY`].
    fn clear_reservations(&self) {
        let slots = &self.min_edge;
        par::for_each_chunk(slots.len(), CHUNK, |r| {
            slots[r]
                .iter()
                .for_each(|s| s.store(EMPTY, Ordering::Relaxed));
        });
    }

    /// The data-driven main loop (Lines 12–39) over one phase's worklist.
    fn run_loop(&mut self, items: Vec<Item>) {
        let wl = &mut Worklist::new(items, self.cfg.tuples);
        while wl.len() > 0 {
            let _round = ecl_trace::range!(wall: "round");
            ecl_trace::attach("worklist_in", wl.len() as f64);
            {
                let _k = ecl_trace::range!(wall: "kernel1");
                self.reserve_kernel(wl);
            }
            ecl_trace::attach("worklist_out", wl.len() as f64);
            if wl.len() == 0 {
                break;
            }
            {
                let _k = ecl_trace::range!(wall: "kernel2");
                self.select_kernel(wl);
            }
            {
                let _k = ecl_trace::range!(wall: "kernel3");
                self.reset_kernel(wl);
            }
        }
    }

    /// Topology-driven main loop: no worklists; every iteration rescans all
    /// graph edges (edge-centric) or all vertices' adjacencies
    /// (vertex-centric), until an iteration finds no crossing edge.
    fn run_topology_driven(&mut self) {
        let g = self.g;
        let one_dir = self.cfg.one_direction;
        let edge_centric = self.cfg.edge_centric;
        // Edge-centric assignment needs arc -> source; build it once (the
        // cost a real topology-driven edge-centric code pays up front).
        let arc_src: Vec<u32> = if edge_centric {
            let mut src = vec![0u32; g.num_arcs()];
            for v in 0..g.num_vertices() as u32 {
                for a in g.arc_range(v) {
                    src[a] = v;
                }
            }
            src
        } else {
            Vec::new()
        };
        // Units of work: arcs (edge-centric; fine-grained splitting keeps
        // hubs from serializing) or vertices with their whole rows.
        let (units, per_chunk) = if edge_centric {
            (g.num_arcs(), CHUNK)
        } else {
            (g.num_vertices(), VERTEX_CHUNK)
        };
        let arcs_of = |u: usize| {
            if edge_centric {
                (arc_src[u], u..u + 1)
            } else {
                (u as u32, g.arc_range(u as u32))
            }
        };
        loop {
            let _round = ecl_trace::range!(wall: "round");
            self.iterations += 1;
            let live = AtomicBool::new(false);
            let st = &*self;
            let tallies = par::run_chunks(units, per_chunk, |r| {
                let mut t = Tally::default();
                for u in r {
                    let (v, arcs) = arcs_of(u);
                    for a in arcs {
                        let n = g.arc_dst(a);
                        if one_dir && v >= n {
                            continue;
                        }
                        let p = st.find(v, &mut t);
                        let q = st.find(n, &mut t);
                        if p != q {
                            live.store(true, Ordering::Relaxed);
                            let val = pack(g.arc_weight(a), g.arc_edge_id(a));
                            st.reserve(p, val);
                            st.reserve(q, val);
                        }
                    }
                }
                t
            });
            self.absorb(&tallies);
            if !live.load(Ordering::Relaxed) {
                break;
            }
            // The select re-finds while it unions: program order.
            let mut t = Tally::default();
            for u in 0..units {
                let (v, arcs) = arcs_of(u);
                for a in arcs {
                    let n = g.arc_dst(a);
                    if one_dir && v >= n {
                        continue;
                    }
                    let p = self.find(v, &mut t);
                    let q = self.find(n, &mut t);
                    if p == q {
                        continue;
                    }
                    let (w, id) = (g.arc_weight(a), g.arc_edge_id(a));
                    let val = pack(w, id);
                    if self.min_edge[p as usize].load(Ordering::Acquire) == val
                        || self.min_edge[q as usize].load(Ordering::Acquire) == val
                    {
                        self.pick(v, n, w, id, &mut t);
                    }
                }
            }
            self.absorb(&[t]);
            // Reset all reservation slots (no worklist to scope the reset).
            self.clear_reservations();
        }
    }

    fn into_result(self) -> (MstResult, usize) {
        let in_mst: Vec<bool> = self
            .in_mst
            .into_iter()
            .map(AtomicBool::into_inner)
            .collect();
        let result = MstResult {
            in_mst,
            total_weight: self.weight,
            num_edges: self.edges,
        };
        (result, self.iterations)
    }
}

/// Runs ECL-MST on the CPU with an explicit configuration.
pub fn ecl_mst_cpu_with(g: &CsrGraph, cfg: &OptConfig) -> CpuRun {
    let _run = ecl_trace::range!(wall: "ecl_mst_cpu");
    let mut st = State::new(g, *cfg);
    let mut phases = 1;

    if !cfg.data_driven || !cfg.edge_centric {
        // Topology-driven (and the vertex-centric rung below it) has no
        // worklist to filter, so filtering does not apply.
        let _p = ecl_trace::range!(wall: "topology_driven");
        st.run_topology_driven();
    } else {
        let plan = if cfg.filtering {
            plan_filter(g, cfg.filter_c, cfg.seed)
        } else {
            FilterPlan::SinglePhase
        };
        match plan {
            FilterPlan::SinglePhase => {
                let _p = ecl_trace::range!(wall: "phase1");
                let (wl, _) = st.populate(None);
                st.run_loop(wl);
            }
            FilterPlan::TwoPhase { threshold } => {
                phases = 2;
                let heavy;
                {
                    let _p = ecl_trace::range!(wall: "phase1");
                    let (wl, h) = st.populate(Some(threshold));
                    heavy = h;
                    st.run_loop(wl);
                }
                {
                    let _p = ecl_trace::range!(wall: "phase2");
                    let wl = st.populate_phase2(heavy);
                    let wl = st.locality_sort(wl);
                    st.run_loop(wl);
                }
            }
        }
    }

    let (result, iterations) = st.into_result();
    CpuRun {
        result,
        iterations,
        phases,
    }
}

/// Runs fully-optimized ECL-MST on the CPU.
pub fn ecl_mst_cpu(g: &CsrGraph) -> MstResult {
    ecl_mst_cpu_with(g, &OptConfig::full()).result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::deopt_ladder;
    use crate::serial::serial_kruskal;
    use ecl_graph::generators::*;
    use ecl_graph::GraphBuilder;

    fn check(g: &CsrGraph, cfg: &OptConfig) {
        let expected = serial_kruskal(g);
        let got = ecl_mst_cpu_with(g, cfg);
        assert_eq!(
            got.result.total_weight, expected.total_weight,
            "weight mismatch"
        );
        assert_eq!(
            got.result.num_edges, expected.num_edges,
            "edge count mismatch"
        );
        // Packed-value tie-breaking makes the MSF unique: edge sets match.
        assert_eq!(got.result.in_mst, expected.in_mst, "edge set mismatch");
    }

    #[test]
    fn triangle() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(0, 2, 3);
        check(&b.build(), &OptConfig::full());
    }

    #[test]
    fn empty_and_singleton() {
        check(&GraphBuilder::new(0).build(), &OptConfig::full());
        check(&GraphBuilder::new(1).build(), &OptConfig::full());
        check(&GraphBuilder::new(10).build(), &OptConfig::full());
    }

    #[test]
    fn grid_full_config() {
        check(&grid2d(20, 1), &OptConfig::full());
    }

    #[test]
    fn dense_graph_triggers_filtering() {
        let g = copapers(800, 20, 2);
        let run = ecl_mst_cpu_with(&g, &OptConfig::full());
        assert_eq!(run.phases, 2, "dense graph should use two phases");
        check(&g, &OptConfig::full());
    }

    #[test]
    fn sparse_graph_single_phase() {
        let g = road_map(15, 2.5, 3);
        let run = ecl_mst_cpu_with(&g, &OptConfig::full());
        assert_eq!(run.phases, 1);
        check(&g, &OptConfig::full());
    }

    #[test]
    fn msf_on_disconnected_input() {
        let g = rmat(9, 4, 4);
        check(&g, &OptConfig::full());
    }

    #[test]
    fn scale_free_with_hubs() {
        let g = preferential_attachment(1500, 8, 1, 5);
        check(&g, &OptConfig::full());
    }

    #[test]
    fn every_deopt_rung_is_correct() {
        let graphs = [
            grid2d(12, 1),
            rmat(8, 6, 2),
            copapers(300, 12, 3),
            road_map(10, 2.8, 4),
        ];
        for g in &graphs {
            for (name, cfg) in deopt_ladder() {
                let expected = serial_kruskal(g);
                let got = ecl_mst_cpu_with(g, &cfg);
                assert_eq!(
                    got.result.total_weight, expected.total_weight,
                    "rung '{name}' wrong weight"
                );
                assert_eq!(
                    got.result.in_mst, expected.in_mst,
                    "rung '{name}' wrong edge set"
                );
            }
        }
    }

    #[test]
    fn iteration_count_is_logarithmic() {
        let g = grid2d(40, 2);
        let run = ecl_mst_cpu_with(&g, &OptConfig::full());
        // Paper: between 4 and 15 computation-kernel rounds on real inputs;
        // allow generous slack but catch runaway loops.
        assert!(
            run.iterations >= 2 && run.iterations <= 40,
            "{}",
            run.iterations
        );
    }

    #[test]
    fn seeds_change_threshold_not_result() {
        let g = copapers(600, 16, 6);
        let expected = serial_kruskal(&g);
        for seed in 0..8 {
            let got = ecl_mst_cpu_with(&g, &OptConfig::full().with_seed(seed));
            assert_eq!(got.result.in_mst, expected.in_mst, "seed {seed}");
        }
    }

    #[test]
    fn locality_order_off_is_bit_identical() {
        // The pre-pass is order-only: same edge set AND same round count
        // (round structure is order-independent — every round processes the
        // whole worklist).
        for g in [
            copapers(600, 16, 2),
            preferential_attachment(1000, 6, 1, 7),
            rmat(9, 4, 4),
        ] {
            let on = ecl_mst_cpu_with(&g, &OptConfig::full());
            let mut cfg = OptConfig::full();
            cfg.locality_order = false;
            let off = ecl_mst_cpu_with(&g, &cfg);
            assert_eq!(on.result.in_mst, off.result.in_mst, "edge set");
            assert_eq!(on.iterations, off.iterations, "round count");
            assert_eq!(on.phases, off.phases, "phases");
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_records_cpu_hops() {
        // Tracing flips the find path to find_counted and disables the
        // flat-label fast paths — the result must not change, and the CPU
        // backend must now feed the profile's hop histogram.
        let g = copapers(500, 14, 3);
        let plain = ecl_mst_cpu_with(&g, &OptConfig::full());
        let (traced, session) = ecl_trace::with_trace(|| ecl_mst_cpu_with(&g, &OptConfig::full()));
        assert_eq!(traced.result.in_mst, plain.result.in_mst, "edge set");
        assert_eq!(traced.iterations, plain.iterations, "round count");
        let profile = session.profile();
        assert!(profile.hops.calls > 0, "CPU finds must record hops");
    }

    #[test]
    fn adversarial_weight_corners() {
        // Saturated and tied weights through the filter + SWAR paths: the
        // packed (weight, id) tie-break keeps the MSF unique even when every
        // weight is u32::MAX or zero.
        for w in [0u32, 1, u32::MAX - 1, u32::MAX] {
            let mut b = GraphBuilder::new(9);
            for u in 0..9u32 {
                for v in (u + 1)..9 {
                    b.add_edge(u, v, w);
                }
            }
            check(&b.build(), &OptConfig::full());
        }
        // Mixed: half the edges saturated, half zero — exercises both sides
        // of any threshold the sampler can produce.
        let mut b = GraphBuilder::new(16);
        for u in 0..16u32 {
            for v in (u + 1)..16 {
                b.add_edge(u, v, if (u + v) % 2 == 0 { u32::MAX } else { 0 });
            }
        }
        check(&b.build(), &OptConfig::full());
    }

    #[test]
    fn equal_weights_everywhere() {
        let mut b = GraphBuilder::new(6);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                b.add_edge(u, v, 42);
            }
        }
        check(&b.build(), &OptConfig::full());
    }
}
