//! PBBS-style MST codes (Blelloch et al., "Internally deterministic
//! parallel algorithms can be fast").
//!
//! * [`pbbs_serial`] — the suite's sequential reference: sort the whole edge
//!   list, then plain Kruskal.
//! * [`pbbs_parallel`] — the parallel algorithm §2 describes: estimate the
//!   `k = min(|V|, 5|E|/4)`-th lightest weight from a `√|E|`-sized sample,
//!   sort and process only that prefix with **deterministic reservations**
//!   (speculative rounds where an edge reserves both endpoints with its
//!   sorted position and commits when it holds *either* reservation — the
//!   same deterministic-reservation rule ECL-MST adopts, which under the
//!   total `(weight, id)` order still yields the unique reference MSF),
//!   then filter the remainder through the partial forest and process what
//!   survives.
//!
//! Both codes work on packed `(weight << 32) | id` words plus an
//! `id -> endpoints` side table instead of `(val, u, v)` tuples: the sort
//! keys are 8 bytes rather than 16, and the packed order equals the tuple
//! order because packed values are unique per edge.
//!
//! The prefix and remainder sorts run on threads through
//! [`ecl_graph::par`]; the reservation rounds run as plain loops on one
//! thread, and threading them is open work.

use ecl_dsu::{AtomicDsu, FindPolicy, SeqDsu};
use ecl_graph::{par, CsrGraph};
use ecl_mst::{pack, unpack, MstResult};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Block size for the speculative-for over sorted edges.
const BLOCK: usize = 65_536;

/// Find policy for the reservation loop. Plain grandparent halving: the
/// mixed union/find pattern here benefits from compressing on every hop,
/// unlike the solver's scan-ordered kernels where `BlockedHalving` wins.
/// Find-only races are benign because unions are only applied by
/// uncontended reservation winners.
const FIND: FindPolicy = FindPolicy::Halving;

/// Packed `(weight << 32) | id` value of every undirected edge, in
/// [`CsrGraph::edges`] order, plus the `id -> (src, dst)` endpoint table —
/// one fused CSR pass over the raw arc arrays, with no intermediate `Edge`
/// structs materialized.
fn packed_edges(g: &CsrGraph) -> (Vec<u64>, Vec<(u32, u32)>) {
    let n = g.num_vertices();
    let m = g.num_edges();
    let (row, adj) = (g.row_starts(), g.adjacency());
    let (wts, ids) = (g.arc_weights(), g.arc_edge_ids());
    let mut vals = Vec::with_capacity(m);
    let mut endpoints = vec![(0u32, 0u32); m];
    for v in 0..n as u32 {
        for a in row[v as usize] as usize..row[v as usize + 1] as usize {
            let d = adj[a];
            if v < d {
                let id = ids[a];
                vals.push(pack(wts[a], id));
                endpoints[id as usize] = (v, d);
            }
        }
    }
    (vals, endpoints)
}

/// Sequential full-sort Kruskal (the paper's "PBBS Ser." column).
pub fn pbbs_serial(g: &CsrGraph) -> MstResult {
    let _r = ecl_trace::range!(wall: "pbbs_serial");
    let (mut vals, endpoints) = packed_edges(g);
    vals.sort_unstable();
    let n = g.num_vertices();
    let mut dsu = SeqDsu::new(n);
    let mut in_mst = vec![false; g.num_edges()];
    let mut taken = 0usize;
    for val in vals {
        let id = unpack(val).1;
        let (u, v) = endpoints[id as usize];
        if dsu.union(u, v) {
            in_mst[id as usize] = true;
            taken += 1;
            // A forest has at most n-1 edges; everything after the
            // (n-1)-th union is a cycle edge, so stop scanning the tail.
            if taken + 1 >= n {
                break;
            }
        }
    }
    MstResult::from_bitmap(g, in_mst)
}

/// Parallel PBBS MST: sampled prefix + deterministic reservations + filter.
pub fn pbbs_parallel(g: &CsrGraph) -> MstResult {
    let _r = ecl_trace::range!(wall: "pbbs_parallel");
    let n = g.num_vertices();
    let m = g.num_edges();
    let mut in_mst = vec![false; m];
    if m == 0 {
        return MstResult::from_bitmap(g, in_mst);
    }
    let (vals, endpoints) = packed_edges(g);

    // Estimate the k-th lightest weight from a sqrt(m) sample.
    let k = n.min(5 * m / 4);
    let threshold = if k >= m {
        u64::MAX
    } else {
        let sample_size = ((m as f64).sqrt() as usize).max(1);
        let stride = (m / sample_size).max(1);
        let mut sample: Vec<u64> = vals.iter().step_by(stride).copied().collect();
        sample.sort_unstable();
        let idx = ((k as f64 / m as f64) * sample.len() as f64) as usize;
        sample[idx.min(sample.len() - 1)]
    };

    // Split into the light prefix and the heavy remainder in one pass over
    // the packed words (fused partition; no tuple rematerialization).
    let mut light = Vec::new();
    let mut heavy = Vec::new();
    for &val in &vals {
        if val <= threshold {
            light.push(val);
        } else {
            heavy.push(val);
        }
    }
    drop(vals);
    par::par_sort_unstable(&mut light);

    let reservations: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let dsu = AtomicDsu::new(n);
    let marked: Vec<AtomicBool> = (0..m).map(|_| AtomicBool::new(false)).collect();
    // Successful unions so far: once n-1 have landed the forest spans
    // every vertex, so every unprocessed edge is a cycle edge and both the
    // remaining blocks and the whole heavy phase can be skipped unchanged.
    let unions = AtomicUsize::new(0);

    process_sorted(&light, &endpoints, &dsu, &reservations, &marked, &unions);

    // Filter the heavy remainder through the partial forest, then finish.
    if unions.load(Ordering::Acquire) + 1 < n {
        heavy.retain(|&val| {
            let (u, v) = endpoints[unpack(val).1 as usize];
            dsu.find(u, FIND) != dsu.find(v, FIND)
        });
        par::par_sort_unstable(&mut heavy);
        process_sorted(&heavy, &endpoints, &dsu, &reservations, &marked, &unions);
    }

    for (i, b) in marked.iter().enumerate() {
        in_mst[i] = b.load(Ordering::Acquire);
    }
    MstResult::from_bitmap(g, in_mst)
}

/// Processes a sorted edge slice in blocks with deterministic reservations:
/// within a block, parallel rounds reserve both endpoints with the edge's
/// block index; an edge commits when it holds either endpoint (one winner
/// per component per round, so a block finishes in O(log) rounds even on
/// hub-centered conflict chains).
fn process_sorted(
    sorted: &[u64],
    endpoints: &[(u32, u32)],
    dsu: &AtomicDsu,
    reservations: &[AtomicU64],
    marked: &[AtomicBool],
    unions: &AtomicUsize,
) {
    let spanning = reservations.len().saturating_sub(1);
    for block in sorted.chunks(BLOCK) {
        if unions.load(Ordering::Acquire) >= spanning {
            return; // the forest spans: only cycle edges remain
        }
        // `live` holds (block index, edge id, u, v): the endpoint table is
        // dereferenced once per block here, so the retry rounds below touch
        // only the live tuples and the DSU — no per-round random lookups.
        let mut live: Vec<(u64, u32, u32, u32)> = block
            .iter()
            .enumerate()
            .map(|(i, &val)| {
                let id = unpack(val).1;
                let (u, v) = endpoints[id as usize];
                (i as u64, id, u, v)
            })
            .collect();
        while !live.is_empty() {
            let reserve = |&(idx, _, u, v): &(u64, u32, u32, u32)| {
                let ru = dsu.find(u, FIND);
                let rv = dsu.find(v, FIND);
                if ru != rv {
                    reservations[ru as usize].fetch_min(idx, Ordering::AcqRel);
                    reservations[rv as usize].fetch_min(idx, Ordering::AcqRel);
                }
            };
            let commit = |&(idx, id, u, v): &(u64, u32, u32, u32)| {
                let ru = dsu.find(u, FIND);
                let rv = dsu.find(v, FIND);
                if ru == rv {
                    return None; // cycle: drop
                }
                if reservations[ru as usize].load(Ordering::Acquire) == idx
                    || reservations[rv as usize].load(Ordering::Acquire) == idx
                {
                    if dsu.union(ru, rv, FIND) {
                        unions.fetch_add(1, Ordering::AcqRel);
                    }
                    marked[id as usize].store(true, Ordering::Release);
                    None
                } else {
                    Some((idx, id, u, v)) // lost both reservations: retry
                }
            };
            let reset = |&(_, _, u, v): &(u64, u32, u32, u32)| {
                reservations[dsu.find(u, FIND) as usize].store(u64::MAX, Ordering::Release);
                reservations[dsu.find(v, FIND) as usize].store(u64::MAX, Ordering::Release);
            };
            live.iter().for_each(reserve);
            let survivors = live.iter().filter_map(commit).collect();
            live.iter().for_each(reset);
            live = survivors;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::generators::*;
    use ecl_graph::GraphBuilder;
    use ecl_mst::serial_kruskal;

    fn check(g: &CsrGraph) {
        let expected = serial_kruskal(g);
        let ser = pbbs_serial(g);
        assert_eq!(ser.in_mst, expected.in_mst, "pbbs_serial edge set");
        let par = pbbs_parallel(g);
        assert_eq!(
            par.total_weight, expected.total_weight,
            "pbbs_parallel weight"
        );
        assert_eq!(par.in_mst, expected.in_mst, "pbbs_parallel edge set");
    }

    #[test]
    fn grid() {
        check(&grid2d(14, 1));
    }

    #[test]
    fn scale_free() {
        check(&preferential_attachment(900, 7, 1, 2));
    }

    #[test]
    fn disconnected_msf() {
        check(&rmat(9, 4, 3));
    }

    #[test]
    fn dense_communities() {
        check(&copapers(400, 14, 4));
    }

    #[test]
    fn trivial() {
        check(&GraphBuilder::new(0).build());
        check(&GraphBuilder::new(4).build());
    }

    #[test]
    fn all_equal_weights() {
        let mut b = GraphBuilder::new(6);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                b.add_edge(u, v, 5);
            }
        }
        check(&b.build());
    }

    #[test]
    fn block_boundary_sizes() {
        // More edges than one block to exercise the block loop.
        check(&uniform_random(3000, 6.0, 7));
    }

    #[test]
    fn packed_edges_matches_edge_iterator() {
        let g = rmat(8, 4, 5);
        let (vals, endpoints) = packed_edges(&g);
        let expected: Vec<(u64, u32, u32)> = g
            .edges()
            .map(|e| (pack(e.weight, e.id), e.src, e.dst))
            .collect();
        assert_eq!(vals.len(), expected.len());
        for (&val, &(ev, eu, ed)) in vals.iter().zip(&expected) {
            assert_eq!(val, ev, "packed order must match g.edges() order");
            assert_eq!(endpoints[unpack(val).1 as usize], (eu, ed));
        }
    }
}
