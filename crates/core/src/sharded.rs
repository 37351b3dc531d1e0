//! Sharded out-of-core MSF (DESIGN.md §19).
//!
//! The paper's filtering insight — most edges never matter to the MST —
//! applied one level up the memory hierarchy. The pipeline never holds the
//! whole edge list:
//!
//! 1. **Stage 1 (shard solve).** The edge stream arrives as K shards
//!    through [`ecl_graph::shard::EdgeShards`]; each shard is solved
//!    independently by the triple-Kruskal merge kernel below and only its
//!    ≤ n−1 MSF survivor edges are kept — handed to stage 2 *sorted by the
//!    global total order*. One kernel serves every host: it beat the full
//!    CPU backend on remapped shard graphs at every scale measured, with
//!    the same forest (DESIGN.md §19).
//! 2. **Stage 2 (hierarchical merge).** Survivor sets are unioned pairwise
//!    and re-solved, Borůvka-style, until one forest remains. Because every
//!    set arrives sorted, a level merge is a linear two-way merge followed
//!    by one greedy DSU scan over global vertex ids — no re-sort, no
//!    endpoint remap, O(|a| + |b|) plus the scan.
//!
//! Correctness rests on the cycle property under the workspace's total
//! order: an edge discarded by a shard solve is the maximum of a cycle in
//! its shard, hence of a cycle in the full graph, hence not in the global
//! MSF — so `MSF(E) = MSF(MSF(E₁) ∪ … ∪ MSF(E_K))` and every merge level
//! preserves the forest. The total order itself is `(weight, u, v)`:
//! a monolithic build assigns edge ids by `(u, v)` rank, so its packed
//! `(weight, id)` order *is* `(weight, u, v)` — and each local solve here
//! ranks its own edge subset by `(u, v)` too, which preserves relative
//! global order on any subset. The final forest is therefore bit-identical
//! to `GraphBuilder + serial_kruskal` on the union (parity-tested across
//! the whole suite in `tests/sharded_parity.rs`).
//!
//! **External-memory mode.** With a spill directory configured, stage 1
//! runs shards sequentially and writes each survivor set to disk
//! (write a temp file, then rename it), and every merge loads exactly two
//! sets at a time — peak residency is one shard's working set plus the
//! merge pair, never the input graph. `crates/bench` measures the resulting
//! peak RSS (VmHWM) and asserts the budget in `bench_snapshot`.

use crate::result::{pack, unpack, MstResult};
use ecl_dsu::SeqDsu;
use ecl_graph::shard::{EdgeShards, ShardTriple};
use ecl_graph::{par, simd, CsrGraph, VertexId, Weight};
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::path::{Path, PathBuf};

/// Fixed seed for the merge-kernel filter-threshold sample. A constant, not
/// a config knob: the pipeline must be bit-identical run to run, and the
/// sample only steers performance (the split never changes the result).
const FILTER_SAMPLE_SEED: u64 = 0x5AAD_0001;

/// Filter constant from the paper (§3.2): the light side targets the
/// `FILTER_C·|V|`-th lightest edge.
const FILTER_C: usize = 4;

/// Below this edge count the filter split costs more than it saves.
const FILTER_MIN_EDGES: usize = 4096;

/// A triple keyed for the global total order: `(weight, u, v)` compares
/// exactly like the monolith's packed `(weight, id)` keys (ids are `(u, v)`
/// ranks), so a plain tuple sort *is* the tie-breaking order every backend
/// agrees on. Survivor sets flow between pipeline stages in this form.
type Wuv = (Weight, VertexId, VertexId);

/// Configuration for [`sharded_msf`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Shard count K (clamped to ≥ 1).
    pub shards: usize,
    /// When set, survivor sets spill to this directory and stage 1 runs
    /// sequentially — the bounded-RSS external-memory mode. When `None`,
    /// everything stays in memory and shards solve in parallel.
    pub spill_dir: Option<PathBuf>,
}

impl ShardedConfig {
    /// In-memory pipeline with `shards` shards.
    pub fn in_memory(shards: usize) -> Self {
        Self {
            shards,
            spill_dir: None,
        }
    }

    /// External-memory pipeline spilling survivor sets under `dir`.
    pub fn spilling(shards: usize, dir: &Path) -> Self {
        Self {
            shards,
            spill_dir: Some(dir.to_path_buf()),
        }
    }
}

/// The merged forest: the global MSF of the sharded edge stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedForest {
    /// Vertex count of the full graph.
    pub num_vertices: usize,
    /// Forest edges in canonical `(u, v, w)` order.
    pub edges: Vec<ShardTriple>,
    /// Sum of forest edge weights.
    pub total_weight: u64,
}

impl ShardedForest {
    /// Number of forest edges (`n − #components` of the full graph).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Converts the forest into an [`MstResult`] over a monolithic build of
    /// the same graph, for bit-exact comparison against the in-core codes.
    ///
    /// Panics if a forest edge is missing from `g` or carries a different
    /// weight than `g`'s deduped edge — either means the shard source and
    /// the graph disagree, which parity tests and the fuzz harness treat as
    /// a divergence.
    pub fn to_mst_result(&self, g: &CsrGraph) -> MstResult {
        let list = g.edge_list();
        debug_assert!(
            list.windows(2).all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)),
            "edge_list must come back in (u, v) order for id binary search"
        );
        let mut in_mst = vec![false; list.len()];
        for &(u, v, w) in &self.edges {
            let id = list.partition_point(|&(a, b, _)| (a, b) < (u, v));
            assert!(
                id < list.len() && list[id].0 == u && list[id].1 == v,
                "forest edge ({u},{v}) not present in the monolithic graph"
            );
            assert_eq!(
                list[id].2, w,
                "forest edge ({u},{v}) weight diverges from the deduped graph edge"
            );
            in_mst[id] = true;
        }
        MstResult::from_bitmap(g, in_mst)
    }
}

/// Everything [`sharded_msf`] observed, for benches and assertions.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The merged global forest.
    pub forest: ShardedForest,
    /// Shard count actually used.
    pub shards: usize,
    /// Total stage-1 survivor edges across all shards (the working-set
    /// bound the merge tree starts from; ≤ K·(n−1)).
    pub survivor_edges: u64,
    /// Hierarchical merge levels until one forest remained (⌈log₂ K⌉).
    pub merge_rounds: u32,
    /// Bytes written to survivor spill files (0 in memory mode).
    pub spill_bytes: u64,
}

/// Runs the sharded out-of-core MSF pipeline over `src`.
pub fn sharded_msf(src: &dyn EdgeShards, cfg: &ShardedConfig) -> ShardedRun {
    let k = cfg.shards.max(1);
    if let Some(dir) = &cfg.spill_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("create spill dir {}: {e}", dir.display()));
    }
    ecl_metrics::counter!(SHARD_SHARDS, k as u64);

    let mut spill_bytes = 0u64;
    let mut survivor_edges = 0u64;

    let mut sets: Vec<Survivors> = {
        let _span = ecl_trace::range!(wall: "shard/solve");
        if let Some(dir) = &cfg.spill_dir {
            // Sequential on purpose: the RSS budget admits one shard's
            // working set at a time.
            let mut out = Vec::with_capacity(k);
            for i in 0..k {
                let survivors = solve_triples(src.shard(i, k));
                survivor_edges += survivors.len() as u64;
                out.push(store(dir, 0, i, &survivors, &mut spill_bytes));
            }
            out
        } else {
            let idx: Vec<usize> = (0..k).collect();
            par::par_map(&idx, |_, &i| solve_triples(src.shard(i, k)))
                .into_iter()
                .map(|s| {
                    survivor_edges += s.len() as u64;
                    Survivors::Mem(s)
                })
                .collect()
        }
    };
    ecl_metrics::counter!(SHARD_SURVIVOR_EDGES, survivor_edges);

    let mut merge_rounds = 0u32;
    {
        let _span = ecl_trace::range!(wall: "shard/merge");
        let mut level = 1usize;
        while sets.len() > 1 {
            merge_rounds += 1;
            let mut inputs = sets.into_iter();
            let mut pairs = Vec::new();
            while let Some(a) = inputs.next() {
                pairs.push((a, inputs.next()));
            }
            sets = if let Some(dir) = &cfg.spill_dir {
                // Two survivor sets resident at a time, nothing more.
                let mut out = Vec::with_capacity(pairs.len());
                for (i, (a, b)) in pairs.into_iter().enumerate() {
                    let merged = merge_pair(a, b);
                    out.push(store(dir, level, i, &merged, &mut spill_bytes));
                }
                out
            } else {
                pairs
                    .into_par_iter()
                    .map(|(a, b)| Survivors::Mem(merge_pair(a, b)))
                    .collect()
            };
            level += 1;
        }
    }
    ecl_metrics::counter!(SHARD_MERGE_ROUNDS, merge_rounds as u64);
    ecl_metrics::counter!(SHARD_SPILL_BYTES, spill_bytes);

    // Survivors flow in total order; the public forest is canonical.
    let mut edges: Vec<ShardTriple> = sets
        .pop()
        .map_or_else(Vec::new, load)
        .into_iter()
        .map(|(w, u, v)| (u, v, w))
        .collect();
    edges.par_sort_unstable();
    let total_weight = edges.iter().map(|e| e.2 as u64).sum();
    ShardedRun {
        forest: ShardedForest {
            num_vertices: src.num_vertices(),
            edges,
            total_weight,
        },
        shards: k,
        survivor_edges,
        merge_rounds,
        spill_bytes,
    }
}

/// Merges a survivor-set pair into one forest (the odd set of a level
/// passes through untouched — it is already an MSF in total order).
///
/// Both inputs arrive sorted by the total order, so the union is a linear
/// two-way merge and the re-solve is a single greedy scan — the level
/// costs O(|a| + |b|) plus the DSU work, with no sort anywhere.
fn merge_pair(a: Survivors, b: Option<Survivors>) -> Vec<Wuv> {
    let edges = load(a);
    let Some(b) = b else { return edges };
    let merged = merge_sorted(edges, load(b));
    let Some(max_id) = merged.iter().map(|&(_, x, y)| x.max(y)).max() else {
        return merged;
    };
    scan_forest(&merged, max_id as usize + 1)
}

/// Linear two-way merge of survivor sets already sorted by the total
/// order. `<=` keeps the merge stable; equal keys are identical triples,
/// so either side first is the same scan.
fn merge_sorted(a: Vec<Wuv>, b: Vec<Wuv>) -> Vec<Wuv> {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]));
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.into_iter().peekable();
    let mut ib = b.into_iter().peekable();
    while let (Some(x), Some(y)) = (ia.peek(), ib.peek()) {
        if x <= y {
            out.push(ia.next().expect("peeked"));
        } else {
            out.push(ib.next().expect("peeked"));
        }
    }
    out.extend(ia);
    out.extend(ib);
    out
}

/// The stage-1 kernel: MSF of a global-endpoint triple multiset under the
/// global `(weight, u, v)` total order, survivors returned sorted by that
/// same order.
///
/// The default route is one tuple sort in the total order plus a greedy
/// scan on global vertex ids — no endpoint table, no remap. Genuinely
/// dense inputs (where the paper's §3.2 filter can pay off) detour through
/// [`solve_dense`], which reuses the SWAR machinery. The density test uses
/// the cheap endpoint-count bound `min(max_id + 1, 2m)`: it can only
/// under-fire relative to the exact count (skipping the filter is a
/// performance choice, never a correctness one), and it avoids paying an
/// endpoint sort on sparse shards just to learn the filter is off.
fn solve_triples(mut edges: Vec<ShardTriple>) -> Vec<Wuv> {
    // Self-loops can never join a forest. Parallel (u, v) duplicates stay:
    // the scan unions each pair once, so the heavier duplicate is skipped
    // exactly as the builder's keep-lightest dedup would drop it.
    edges.retain(|e| e.0 != e.1);
    let Some(max_id) = edges.iter().map(|&(u, v, _)| u.max(v)).max() else {
        return Vec::new();
    };
    let dsu_n = max_id as usize + 1;

    let nloc_bound = dsu_n.min(2 * edges.len());
    if edges.len() >= FILTER_MIN_EDGES && FILTER_C * nloc_bound < edges.len() {
        return solve_dense(edges);
    }

    let mut keyed: Vec<Wuv> = edges.iter().map(|&(u, v, w)| (w, u, v)).collect();
    drop(edges);
    keyed.par_sort_unstable();
    scan_forest(&keyed, dsu_n)
}

/// Greedy Kruskal scan over triples already sorted by the total order,
/// unioning global vertex ids directly. Duplicate `(u, v)` pairs need no
/// dedup pass (the heavier one closes a 2-cycle and its union is a no-op),
/// and the early exit only fires for a spanning connected input — the
/// scan is correct without it.
fn scan_forest(sorted: &[Wuv], dsu_n: usize) -> Vec<Wuv> {
    let mut dsu = SeqDsu::new(dsu_n);
    let target = dsu_n.saturating_sub(1);
    let mut picked = Vec::new();
    // ecl-lint: allow(builder-serial-hot-path) Kruskal's greedy scan is order-dependent — serial by nature
    for &(w, u, v) in sorted {
        if picked.len() == target {
            break;
        }
        if dsu.union(u, v) {
            picked.push((w, u, v));
        }
    }
    picked
}

/// The dense route: canonical sort + keep-lightest dedup, dense remap
/// through a scatter table, then the paper's filter split over packed SWAR
/// keys — [`simd::pack_into`] builds the 64-bit `(weight, rank)` sort
/// keys, a 20-sample threshold (§3.2) splits the scan into a light phase
/// plus a forest-filtered heavy phase, and [`simd::count_lt`] sizes the
/// split and rejects degenerate thresholds, mirroring
/// [`crate::filter::plan_filter`]'s fallbacks.
///
/// Only reachable when `FILTER_C · nloc_bound < m`, so the scatter table
/// is at most `m / FILTER_C` entries — never a memory hazard.
fn solve_dense(mut edges: Vec<ShardTriple>) -> Vec<Wuv> {
    // Canonical order doubles as dedup order: among parallel (u, v)
    // duplicates the lightest sorts first and survives — the 2-cycle
    // special case of the cycle property.
    edges.par_sort_unstable();
    edges.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1));

    let verts = endpoint_table(&edges);
    let lid_of = scatter_table(&verts);
    // Chunk-parallel dense remap (two O(1) table reads per edge);
    // `lids[i]` are the local endpoints of `edges[i]`.
    let lids: Vec<(u32, u32)> = par::run_chunks(edges.len(), 1 << 16, |r| {
        edges[r]
            .iter()
            .map(|&(u, v, _)| (lid_of[u as usize], lid_of[v as usize]))
            .collect::<Vec<_>>()
    })
    .concat();
    drop(lid_of);

    let nloc = verts.len();
    let target = nloc.saturating_sub(1);
    let ws: Vec<Weight> = edges.iter().map(|e| e.2).collect();
    let ranks: Vec<u32> = (0..edges.len() as u32).collect();
    let mut packed = Vec::new();
    simd::pack_into(&ws, &ranks, &mut packed);

    // Light/heavy split at the sampled threshold. `packed < pack(t, 0)`
    // is exactly `w < t`, so the two sorted phases concatenate into the
    // full sorted order and the greedy scan result cannot change.
    let (mut light, mut heavy) = match filter_threshold(&ws, nloc) {
        Some(t) => packed.into_iter().partition(|&p| p < pack(t, 0)),
        None => (packed, Vec::new()),
    };
    drop(ws);

    let mut dsu = SeqDsu::new(nloc);
    let mut picked: Vec<u32> = Vec::with_capacity(target.min(edges.len()));
    let scan = |sorted: &[u64], dsu: &mut SeqDsu, picked: &mut Vec<u32>| {
        // ecl-lint: allow(builder-serial-hot-path) Kruskal's greedy scan is order-dependent — serial by nature
        for &val in sorted {
            if picked.len() == target {
                break;
            }
            let rank = unpack(val).1;
            let (lu, lv) = lids[rank as usize];
            if dsu.union(lu, lv) {
                picked.push(rank);
            }
        }
    };
    light.par_sort_unstable();
    scan(&light, &mut dsu, &mut picked);
    if picked.len() < target && !heavy.is_empty() {
        // Filter the heavy remainder through the partial forest before
        // paying to sort it: intra-component edges are cycle edges.
        heavy.retain(|&p| {
            let (lu, lv) = lids[unpack(p).1 as usize];
            dsu.find(lu) != dsu.find(lv)
        });
        heavy.par_sort_unstable();
        scan(&heavy, &mut dsu, &mut picked);
    }

    let mut out: Vec<Wuv> = picked
        .into_iter()
        .map(|r| {
            let (u, v, w) = edges[r as usize];
            (w, u, v)
        })
        .collect();
    out.par_sort_unstable();
    out
}

/// Sorted dense endpoint table of a triple list.
fn endpoint_table(edges: &[ShardTriple]) -> Vec<VertexId> {
    let mut verts: Vec<VertexId> = edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
    verts.par_sort_unstable();
    verts.dedup();
    verts
}

/// Global-id → local-rank scatter table over `[0, max_vertex]`. Slots for
/// ids absent from `verts` stay zero and are never read: every lookup key
/// is an endpoint of the same edge list the table was built from.
fn scatter_table(verts: &[VertexId]) -> Vec<u32> {
    let n_table = verts.last().map_or(0, |&v| v as usize + 1);
    let mut lid_of = vec![0u32; n_table];
    // ecl-lint: allow(builder-serial-hot-path) O(nloc) scatter fill, not an O(m) hot loop
    for (i, &v) in verts.iter().enumerate() {
        lid_of[v as usize] = i as u32;
    }
    lid_of
}

/// 20-sample threshold estimate targeting the `4·|V|`-th lightest edge —
/// the paper's filter heuristic applied to a triple list. `None` on sparse
/// (average degree < 4), tiny, or degenerate-sample inputs.
fn filter_threshold(ws: &[Weight], nloc: usize) -> Option<Weight> {
    const SAMPLE_SIZE: usize = crate::filter::SAMPLE_SIZE;
    let m = ws.len();
    if m < FILTER_MIN_EDGES || FILTER_C * nloc >= m {
        return None;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(FILTER_SAMPLE_SEED);
    let mut samples = [0 as Weight; SAMPLE_SIZE];
    for s in samples.iter_mut() {
        *s = ws[rng.gen_range(0..m)];
    }
    samples.sort_unstable();
    let q = (FILTER_C * nloc) as f64 / m as f64;
    let idx = ((q * SAMPLE_SIZE as f64).ceil() as usize).clamp(1, SAMPLE_SIZE) - 1;
    let t = samples[idx];
    if t == 0 || samples[0] == samples[SAMPLE_SIZE - 1] {
        return None;
    }
    // SWAR count of the split: an empty or total light side means the
    // threshold degenerated — fall back to the single sorted scan.
    let nlight = simd::count_lt(ws, t);
    if nlight == 0 || nlight == m {
        return None;
    }
    Some(t)
}

/// One survivor set between pipeline stages (always sorted by the total
/// order): resident or spilled.
enum Survivors {
    Mem(Vec<Wuv>),
    File { path: PathBuf, triples: usize },
}

/// Persists a survivor set under `dir` with an atomic write
/// (write to a pid-suffixed temp name, then rename into place) so a
/// crashed run never leaves a torn file behind. The on-disk layout is
/// 12-byte LE `(u, v, w)` records; the file keeps the set's total order.
fn store(
    dir: &Path,
    level: usize,
    index: usize,
    triples: &[Wuv],
    spill_bytes: &mut u64,
) -> Survivors {
    let path = dir.join(format!("shard-l{level}-{index}.tri"));
    let mut bytes = Vec::with_capacity(12 * triples.len());
    for &(w, u, v) in triples {
        bytes.extend_from_slice(&u.to_le_bytes());
        bytes.extend_from_slice(&v.to_le_bytes());
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, &bytes)
        .unwrap_or_else(|e| panic!("write spill file {}: {e}", tmp.display()));
    std::fs::rename(&tmp, &path)
        .unwrap_or_else(|e| panic!("rename spill file into {}: {e}", path.display()));
    *spill_bytes += bytes.len() as u64;
    Survivors::File {
        path,
        triples: triples.len(),
    }
}

/// Loads a survivor set, consuming it (spill files are deleted once read,
/// so disk usage stays bounded by two live levels).
fn load(s: Survivors) -> Vec<Wuv> {
    match s {
        Survivors::Mem(v) => v,
        Survivors::File { path, triples } => {
            let bytes = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("read spill file {}: {e}", path.display()));
            assert_eq!(
                bytes.len(),
                12 * triples,
                "spill file {} truncated",
                path.display()
            );
            let out = bytes
                .chunks_exact(12)
                .map(|c| {
                    let word = |i: usize| {
                        u32::from_le_bytes(c[4 * i..4 * i + 4].try_into().expect("12-byte chunk"))
                    };
                    (word(2), word(0), word(1))
                })
                .collect();
            std::fs::remove_file(&path).ok();
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::serial_kruskal;
    use ecl_graph::generators::{copapers, uniform_random, UniformRandomShards};
    use ecl_graph::shard::InMemoryShards;

    fn parity(g: &CsrGraph, cfg: &ShardedConfig) {
        let src = InMemoryShards::new(g.num_vertices(), g.edge_list());
        let run = sharded_msf(&src, cfg);
        let expected = serial_kruskal(g);
        let got = run.forest.to_mst_result(g);
        assert_eq!(got.in_mst, expected.in_mst, "edge sets diverge");
        assert_eq!(run.forest.total_weight, expected.total_weight);
        assert_eq!(run.forest.num_edges(), expected.num_edges);
    }

    #[test]
    fn parity_against_serial_kruskal() {
        let g = uniform_random(1500, 8.0, 3);
        parity(&g, &ShardedConfig::in_memory(5));
    }

    #[test]
    fn dense_input_exercises_filter_split() {
        // copapers is dense enough for `filter_threshold` to fire in
        // stage 1.
        let g = copapers(700, 14, 4);
        parity(&g, &ShardedConfig::in_memory(3));
    }

    #[test]
    fn spill_mode_bit_identical_and_cleans_up() {
        let g = uniform_random(1200, 8.0, 9);
        let dir = std::env::temp_dir().join(format!("ecl-sharded-test-{}", std::process::id()));
        let cfg = ShardedConfig::spilling(4, &dir);
        let src = InMemoryShards::new(g.num_vertices(), g.edge_list());
        let run = sharded_msf(&src, &cfg);
        assert_eq!(
            run.forest.to_mst_result(&g).in_mst,
            serial_kruskal(&g).in_mst
        );
        assert!(run.spill_bytes > 0, "spill mode must write survivor files");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .map(|d| d.filter_map(|e| e.ok()).collect())
            .unwrap_or_default();
        assert!(
            leftovers.is_empty(),
            "consumed spill files must be deleted: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generator_source_matches_monolith() {
        let src = UniformRandomShards::new(2000, 8.0, 5);
        let g = uniform_random(2000, 8.0, 5);
        let run = sharded_msf(&src, &ShardedConfig::in_memory(6));
        assert_eq!(
            run.forest.to_mst_result(&g).in_mst,
            serial_kruskal(&g).in_mst
        );
    }

    #[test]
    fn single_shard_skips_merging() {
        let g = uniform_random(400, 6.0, 2);
        let src = InMemoryShards::new(g.num_vertices(), g.edge_list());
        let run = sharded_msf(&src, &ShardedConfig::in_memory(1));
        assert_eq!(run.merge_rounds, 0);
        assert_eq!(run.shards, 1);
        assert_eq!(
            run.forest.to_mst_result(&g).in_mst,
            serial_kruskal(&g).in_mst
        );
    }

    #[test]
    fn empty_and_trivial_sources() {
        let src = InMemoryShards::new(0, Vec::new());
        let run = sharded_msf(&src, &ShardedConfig::in_memory(4));
        assert_eq!(run.forest.num_edges(), 0);
        assert_eq!(run.forest.total_weight, 0);

        let lonely = InMemoryShards::new(3, Vec::new());
        let run = sharded_msf(&lonely, &ShardedConfig::in_memory(2));
        assert_eq!(run.forest.num_edges(), 0);
    }
}
