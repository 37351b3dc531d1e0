//! Lonestar-style CPU-parallel Borůvka (§2: "runs over the set of
//! disconnected components and loops over their edges. The first part of the
//! main loop determines the lightest edge of each component, which is safe
//! to do in parallel because this step is read-only. The second part merges
//! the components in a lock-free manner.").
//!
//! Uses the same disjoint-set substrate as ECL-MST (the paper notes the
//! shared design) but is vertex-centric and rescans the original graph every
//! round — the structural differences ECL-MST's §5.3 ablation isolates.
//! Both parts run as plain loops on one thread; threading them is open
//! work.

use ecl_dsu::{AtomicDsu, FindPolicy};
use ecl_graph::CsrGraph;
use ecl_mst::{unpack, MstResult, EMPTY};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Computes the MSF with component-loop Borůvka.
pub fn lonestar_cpu(g: &CsrGraph) -> MstResult {
    let _r = ecl_trace::range!(wall: "lonestar_cpu");
    let n = g.num_vertices();
    let m = g.num_edges();
    let dsu = AtomicDsu::new(n);
    let policy = FindPolicy::BlockedHalving;
    let min_edge: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(EMPTY)).collect();
    let in_mst: Vec<AtomicBool> = (0..m).map(|_| AtomicBool::new(false)).collect();
    let (row, adj) = (g.row_starts(), g.adjacency());
    // Packed reservation value of every arc, computed once up front (the
    // chunked pack scan) instead of per cross-arc per round — part 1
    // rescans all arcs every round.
    let mut arc_val = Vec::new();
    ecl_graph::simd::pack_into(g.arc_weights(), g.arc_edge_ids(), &mut arc_val);
    // id -> endpoints, so part 2 can merge along a recorded edge without
    // rescanning adjacency (Lonestar's indirect edge relaxation). One
    // direct CSR pass over the `src < dst` arc of each edge.
    let ids = g.arc_edge_ids();
    let mut endpoints = vec![(0u32, 0u32); m];
    for v in 0..n as u32 {
        for a in row[v as usize] as usize..row[v as usize + 1] as usize {
            let d = adj[a];
            if v < d {
                endpoints[ids[a] as usize] = (v, d);
            }
        }
    }

    // A row whose arcs are all intra-component can never offer a candidate
    // again — components only grow — so part 1 records that (for free, it
    // already scans the whole row) and skips the row in every later round.
    let dead: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let mut labels = Vec::new();
    loop {
        // The structure is quiescent between rounds (part 2 of the previous
        // round is barrier-separated), so a single O(n) flat-labeling pass
        // replaces the two pointer-chasing finds per arc part 1 used to do:
        // `labels[v]` equals `dsu.find(v)` exactly.
        dsu.flat_labels_into(&mut labels);
        let labels = &labels;
        // Part 1 (read-only): every vertex offers its lightest
        // cross-component edge to its component representative.
        let progressed = AtomicBool::new(false);
        (0..n as u32).for_each(|v| {
            if dead[v as usize].load(Ordering::Relaxed) {
                return;
            }
            let rv = labels[v as usize];
            let mut best = EMPTY;
            let mut crossing = false;
            for a in row[v as usize] as usize..row[v as usize + 1] as usize {
                if labels[adj[a] as usize] != rv {
                    crossing = true;
                    best = best.min(arc_val[a]);
                }
            }
            if best != EMPTY {
                min_edge[rv as usize].fetch_min(best, Ordering::AcqRel);
                progressed.store(true, Ordering::Relaxed);
            }
            if !crossing {
                dead[v as usize].store(true, Ordering::Relaxed);
            }
        });
        if !progressed.load(Ordering::Relaxed) {
            break;
        }
        // Part 2: each representative merges along its recorded edge,
        // lock-free. Distinct components may record the same edge (both of
        // its endpoints); the double union is idempotent.
        (0..n as u32).for_each(|r| {
            // Part 1 keys `min_edge` by the snapshot labels, so only a
            // snapshot representative can hold a candidate — skip the
            // atomic swap (a write per vertex per round) for everyone else.
            if labels[r as usize] != r {
                return;
            }
            let val = min_edge[r as usize].swap(EMPTY, Ordering::AcqRel);
            if val == EMPTY {
                return;
            }
            let (_, id) = unpack(val);
            let (u, v) = endpoints[id as usize];
            dsu.union(u, v, policy);
            in_mst[id as usize].store(true, Ordering::Release);
        });
    }

    let bitmap: Vec<bool> = in_mst.iter().map(|b| b.load(Ordering::Acquire)).collect();
    MstResult::from_bitmap(g, bitmap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::generators::*;
    use ecl_graph::GraphBuilder;
    use ecl_mst::serial_kruskal;

    fn check(g: &CsrGraph) {
        let expected = serial_kruskal(g);
        let got = lonestar_cpu(g);
        assert_eq!(got.total_weight, expected.total_weight, "weight");
        assert_eq!(got.in_mst, expected.in_mst, "edge set");
    }

    #[test]
    fn grid() {
        check(&grid2d(13, 1));
    }

    #[test]
    fn msf() {
        check(&rmat(9, 4, 2));
    }

    #[test]
    fn scale_free() {
        check(&preferential_attachment(800, 6, 1, 3));
    }

    #[test]
    fn equal_weights() {
        let mut b = GraphBuilder::new(8);
        for u in 0..8u32 {
            for v in (u + 1)..8 {
                b.add_edge(u, v, 1);
            }
        }
        check(&b.build());
    }

    #[test]
    fn trivial() {
        check(&GraphBuilder::new(0).build());
        check(&GraphBuilder::new(5).build());
    }
}
