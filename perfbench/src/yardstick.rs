//! The yardstick: a textbook serial Kruskal that belongs to the benchmark.
//!
//! The reference host's speed drifts by 1.3–2× over minutes (README.md), so
//! plain pass times from runs minutes apart disagree by more than any
//! useful bound. Timing this fixed code on the same edges in the same
//! process, right after each pass (or, for `dynamic-rmat`, right after each
//! batch), gives a time that drifts with the host: `speedup_vs_kruskal` is
//! the median over passes of one divided by the other. No change to the
//! program can move the yardstick, because it calls nothing in it.

use crate::timed;

/// Solves the MSF of `edges` (`(u, v, w)` over `0..n`) by sorting on
/// `(w, u, v)` and growing a forest with a path-halving union-find.
/// Returns the forest weight and the seconds the solve took.
pub fn kruskal(n: usize, edges: &[(u32, u32, u32)]) -> (u64, f64) {
    timed(|| {
        let mut keyed: Vec<(u32, u32, u32)> = edges.iter().map(|&(u, v, w)| (w, u, v)).collect();
        keyed.sort_unstable();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let find = |parent: &mut [u32], mut x: u32| {
            while parent[x as usize] != x {
                let grand = parent[parent[x as usize] as usize];
                parent[x as usize] = grand;
                x = grand;
            }
            x
        };
        let mut weight = 0u64;
        for (w, u, v) in keyed {
            let (a, b) = (find(&mut parent, u), find(&mut parent, v));
            if a != b {
                parent[a as usize] = b;
                weight += w as u64;
            }
        }
        weight
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::SuiteScale;
    use ecl_mst::serial_kruskal;

    #[test]
    fn agrees_with_serial_kruskal() {
        for (name, g) in crate::inputs::suite(SuiteScale::Tiny, 9) {
            let (weight, _) = kruskal(g.num_vertices(), &g.edge_list());
            assert_eq!(weight, serial_kruskal(&g).total_weight, "{name}");
        }
    }
}
