//! Sharded out-of-core MSF (DESIGN.md §19).
//!
//! The paper's filter (§3.2) one level up the memory hierarchy: solve the
//! light edges first, and almost every heavy edge then joins two vertices
//! the light forest already connects, so it is dropped before anything
//! sorts it. The pipeline never holds the whole edge list. It makes two
//! streaming passes over the K shards of an [`EdgeShards`] source and one
//! merge:
//!
//! 1. **Light pass.** A bounded selection keeps the L = ⌈1.5·n⌉ lightest
//!    non-loop edges of the stream under the total order, in a buffer of
//!    1.5·L slots reserved once. Whenever the buffer fills, a selection
//!    cuts it back to L and the key at rank L becomes the *bound*; every
//!    later edge at or above the bound is dropped on arrival. The light
//!    set (every edge below the final bound) is sorted and scanned
//!    greedily on a DSU over the n vertices.
//! 2. **Heavy pass** (only when a bound was set and the light forest does
//!    not span). Shards stream concurrently, at most one per worker. Each
//!    keeps its edges at or above the bound whose endpoints carry different
//!    light-forest labels, sorts them and scans them on a fresh DSU over
//!    the labels: the shard's MSF of the contracted graph. Its picks are
//!    one sorted survivor run, kept in memory or spilled once.
//! 3. **Merge.** One k-way merge of the runs feeds the final greedy scan,
//!    which continues on the light pass's DSU.
//!
//! Correctness rests on two facts. The total order is `(weight, u, v)`: a
//! monolithic build assigns edge ids by `(u, v)` rank, so its packed
//! `(weight, id)` order *is* `(weight, u, v)`. The light and heavy sets
//! split exactly on that order, so light-then-heavy is Kruskal's own scan
//! order. And on the graph contracted by the light forest, an edge a shard
//! scan drops is the maximum of a cycle, hence not in the MSF (cycle
//! property). The forest is therefore bit-identical to
//! `GraphBuilder + serial_kruskal` on the union (parity-tested in
//! `tests/sharded_parity.rs`).
//!
//! **External-memory mode.** With a spill directory configured, each call
//! writes its survivor runs as 12-byte LE `(u, v, w)` files into a
//! subdirectory of its own, which the call removes before it returns, so
//! concurrent calls may share one spill directory. Peak residency is the
//! light buffer and the DSU plus one shard per worker, never the input
//! graph. `crates/bench` measures the peak RSS (VmHWM) and asserts the
//! budget in `bench_snapshot`.

use crate::result::MstResult;
use ecl_dsu::{Compression, SeqDsu, UnionPolicy};
use ecl_graph::shard::{EdgeShards, ShardTriple};
use ecl_graph::{par, CsrGraph, VertexId, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A triple keyed for the global total order: `(weight, u, v)` compares
/// exactly like the monolith's packed `(weight, id)` keys (ids are `(u, v)`
/// ranks), so a plain tuple sort *is* the tie-breaking order every backend
/// agrees on. Edges flow between the pipeline's stages in this form.
type Wuv = (Weight, VertexId, VertexId);

/// The total-order key of a streamed triple, endpoints normalized to
/// `(min, max)` as the builder stores them, so a source may emit either
/// direction.
fn key((u, v, w): ShardTriple) -> Wuv {
    (w, u.min(v), u.max(v))
}

/// Configuration for [`sharded_msf`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Shard count K (clamped to ≥ 1).
    pub shards: usize,
    /// When set, the heavy pass's survivor runs spill to a per-call
    /// subdirectory of this directory, removed before the call returns —
    /// the bounded-RSS external-memory mode. When `None`, the runs stay in
    /// memory.
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

    /// External-memory pipeline spilling survivor runs under `dir`.
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
    /// Heavy edges picked by the per-shard contracted solves: the total
    /// length of the survivor runs the merge reads (0 when the heavy pass
    /// did not run).
    pub survivor_edges: u64,
    /// 1 when the heavy pass fed two or more shard runs (empty ones
    /// included) to the k-way merge, else 0.
    pub merge_rounds: u32,
    /// Bytes written to survivor run files, each written once (0 in memory
    /// mode).
    pub spill_bytes: u64,
}

/// Runs the sharded out-of-core MSF pipeline over `src`. Endpoints must be
/// below `src.num_vertices()`.
pub fn sharded_msf(src: &dyn EdgeShards, cfg: &ShardedConfig) -> ShardedRun {
    let k = cfg.shards.max(1);
    let n = src.num_vertices();
    let spill = cfg.spill_dir.as_deref().map(SpillDir::create);
    ecl_metrics::counter!(SHARD_SHARDS, k as u64);

    let (mut picked, mut dsu, runs) = {
        let _span = ecl_trace::range!(wall: "shard/solve");
        let (mut picked, bound) = lightest_edges(src, k, (3 * n).div_ceil(2));
        // The light scan keeps its picks in place; cut to the forest's
        // size, the buffer then collects the rest of the forest.
        let mut dsu = scan_dsu(n);
        picked.retain(joins(&mut dsu, |x| x));
        picked.shrink_to(n.saturating_sub(1));
        let runs: Vec<Run> = match bound {
            Some(bound) if dsu.num_sets() > 1 => {
                let (labels, comps) = flatten(&mut dsu);
                let idx: Vec<usize> = (0..k).collect();
                par::par_map(&idx, |_, &i| {
                    let run = shard_survivors(src.shard(i, k), bound, &labels, comps);
                    match &spill {
                        Some(dir) if !run.is_empty() => dir.store(i, &run),
                        _ => Run::Mem(run.into_iter()),
                    }
                })
            }
            _ => Vec::new(),
        };
        (picked, dsu, runs)
    };
    let survivor_edges: u64 = runs.iter().map(|r| r.len() as u64).sum();
    // Spilling writes every non-empty run once, as 12-byte records.
    let spill_bytes = if spill.is_some() {
        12 * survivor_edges
    } else {
        0
    };
    let merge_rounds = u32::from(runs.len() > 1);
    ecl_metrics::counter!(SHARD_SURVIVOR_EDGES, survivor_edges);
    ecl_metrics::counter!(SHARD_MERGE_ROUNDS, merge_rounds as u64);
    ecl_metrics::counter!(SHARD_SPILL_BYTES, spill_bytes);

    {
        let _span = ecl_trace::range!(wall: "shard/merge");
        picked.extend(merge_runs(runs).filter(joins(&mut dsu, |x| x)));
    }
    drop(spill);

    // Edges flow in total order; the public forest is canonical.
    let mut edges: Vec<ShardTriple> = picked.into_iter().map(|(w, u, v)| (u, v, w)).collect();
    par::par_sort_unstable(&mut edges);
    let total_weight = edges.iter().map(|e| e.2 as u64).sum();
    ShardedRun {
        forest: ShardedForest {
            num_vertices: n,
            edges,
            total_weight,
        },
        shards: k,
        survivor_edges,
        merge_rounds,
        spill_bytes,
    }
}

/// The light pass: the `keep` lightest non-loop edges of the stream under
/// the total order, sorted, and the bound — the lightest key left out, so
/// the light set is exactly the edges below it. `None` when the whole
/// stream fit and nothing was left out.
fn lightest_edges(src: &dyn EdgeShards, k: usize, keep: usize) -> (Vec<Wuv>, Option<Wuv>) {
    let slots = (keep + keep / 2).max(keep + 1);
    let mut buf: Vec<Wuv> = Vec::with_capacity(slots.min(src.approx_edges()));
    let mut bound: Option<Wuv> = None;
    let idx: Vec<usize> = (0..k).collect();
    // Shards are read concurrently and selected from in shard order.
    par::par_map_batched(
        &idx,
        |&i| src.shard(i, k),
        |shard| {
            // ecl-lint: allow(builder-serial-hot-path) one shared selection whose bound tightens edge by edge
            for t in shard {
                let e = key(t);
                if e.1 == e.2 || bound.is_some_and(|b| e >= b) {
                    continue;
                }
                buf.push(e);
                if buf.len() == slots {
                    bound = Some(*buf.select_nth_unstable(keep).1);
                    buf.truncate(keep);
                }
            }
        },
    );
    par::par_sort_unstable(&mut buf);
    // Copies of the bound triple itself belong to the heavy side.
    while bound.is_some() && buf.last() == bound.as_ref() {
        buf.pop();
    }
    (buf, bound)
}

/// Flattens the light forest into dense component labels `0..comps`.
fn flatten(dsu: &mut SeqDsu) -> (Vec<u32>, usize) {
    let n = dsu.len() as u32;
    let mut labels = vec![0u32; n as usize];
    let mut comps = 0u32;
    for v in (0..n).filter(|&v| dsu.find(v) == v) {
        labels[v as usize] = comps;
        comps += 1;
    }
    for v in 0..n {
        labels[v as usize] = labels[dsu.find(v) as usize];
    }
    (labels, comps as usize)
}

/// The heavy pass on one shard: its edges at or above `bound` that cross
/// the light forest, reduced to their MSF on the contracted graph and
/// returned sorted by the total order.
fn shard_survivors(shard: Vec<ShardTriple>, bound: Wuv, labels: &[u32], comps: usize) -> Vec<Wuv> {
    let label = |x: VertexId| labels[x as usize];
    let mut heavy: Vec<Wuv> = shard
        .into_iter()
        .map(key)
        .filter(|&(w, u, v)| (w, u, v) >= bound && label(u) != label(v))
        .collect();
    par::par_sort_unstable(&mut heavy);
    heavy.retain(joins(&mut scan_dsu(comps), label));
    heavy.shrink_to_fit();
    heavy
}

/// A DSU for the greedy scans. Halving with union by index writes no
/// rank array: on the `sharded-file` light scan (1.57 M unions over 1 Mi
/// vertices) it took 0.08–0.10 s against 0.10–0.13 s for the default
/// full compression by rank. The policy cannot change which edges join.
fn scan_dsu(n: usize) -> SeqDsu {
    SeqDsu::with_policies(n, Compression::Halving, UnionPolicy::ByIndex)
}

/// Kruskal's greedy step on `dsu`: true when an edge's endpoint `label`s
/// lie in different sets, which it then joins, until the forest spans.
/// Applied to edges in total order (by `retain` or `filter`) it keeps
/// exactly the forest edges. Parallel duplicates need no dedup pass: the
/// heavier one closes a 2-cycle, which is the builder's keep-lightest rule.
fn joins<'a>(
    dsu: &'a mut SeqDsu,
    label: impl Fn(VertexId) -> u32 + 'a,
) -> impl FnMut(&Wuv) -> bool + 'a {
    move |&(_, u, v)| dsu.num_sets() > 1 && dsu.union(label(u), label(v))
}

/// One streaming k-way merge of sorted survivor runs, in total order.
fn merge_runs(mut runs: Vec<Run>) -> impl Iterator<Item = Wuv> {
    let mut heads: BinaryHeap<Reverse<(Wuv, usize)>> = runs
        .iter_mut()
        .enumerate()
        .filter_map(|(i, r)| Some(Reverse((r.next()?, i))))
        .collect();
    std::iter::from_fn(move || {
        let Reverse((e, i)) = heads.pop()?;
        if let Some(next) = runs[i].next() {
            heads.push(Reverse((next, i)));
        }
        Some(e)
    })
}

/// One shard's survivor run, sorted by the total order: resident, or a
/// spill file read back record by record.
enum Run {
    Mem(std::vec::IntoIter<Wuv>),
    File {
        path: PathBuf,
        reader: BufReader<File>,
        left: usize,
    },
}

impl Run {
    /// Records not yet read.
    fn len(&self) -> usize {
        match self {
            Run::Mem(it) => it.len(),
            Run::File { left, .. } => *left,
        }
    }
}

impl Iterator for Run {
    type Item = Wuv;

    fn next(&mut self) -> Option<Wuv> {
        match self {
            Run::Mem(it) => it.next(),
            Run::File { path, reader, left } => {
                if *left == 0 {
                    return None;
                }
                *left -= 1;
                let mut c = [0u8; 12];
                reader
                    .read_exact(&mut c)
                    .unwrap_or_else(|e| panic!("read spill file {}: {e}", path.display()));
                let word =
                    |i: usize| u32::from_le_bytes(c[4 * i..4 * i + 4].try_into().expect("4 bytes"));
                Some((word(2), word(0), word(1)))
            }
        }
    }
}

/// One call's spill directory: a fresh subdirectory of the configured one
/// (process id plus a process-wide call counter), so calls that share a
/// spill directory never touch each other's files. Removed on drop.
struct SpillDir(PathBuf);

impl SpillDir {
    fn create(parent: &Path) -> Self {
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("call-{}-{call}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create spill dir {}: {e}", dir.display()));
        Self(dir)
    }

    /// Writes shard `index`'s run as 12-byte LE `(u, v, w)` records and
    /// opens it for the merge.
    fn store(&self, index: usize, run: &[Wuv]) -> Run {
        let path = self.0.join(format!("shard-{index}.tri"));
        let mut bytes = Vec::with_capacity(12 * run.len());
        for &(w, u, v) in run {
            bytes.extend_from_slice(&u.to_le_bytes());
            bytes.extend_from_slice(&v.to_le_bytes());
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        std::fs::write(&path, &bytes)
            .unwrap_or_else(|e| panic!("write spill file {}: {e}", path.display()));
        let file =
            File::open(&path).unwrap_or_else(|e| panic!("read spill file {}: {e}", path.display()));
        Run::File {
            path,
            reader: BufReader::new(file),
            left: run.len(),
        }
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
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
        // copapers is dense: the light pass leaves a bound and the heavy
        // pass drops most edges.
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
