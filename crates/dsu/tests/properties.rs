//! Property-based tests: every DSU variant must induce the same partition
//! as the naive reference for arbitrary union sequences.

use ecl_dsu::verify::{naive_partition, same_partition};
use ecl_dsu::{AtomicDsu, Compression, FindPolicy, SeqDsu, UnionPolicy};
use proptest::prelude::*;

fn edges_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..120).prop_flat_map(|n| {
        let e = prop::collection::vec((0..n as u32, 0..n as u32), 0..200);
        (Just(n), e)
    })
}

proptest! {
    #[test]
    fn seq_all_policy_combinations_match_naive((n, edges) in edges_strategy()) {
        let reference = naive_partition(n, &edges);
        for c in [Compression::Full, Compression::Halving, Compression::Splitting, Compression::None] {
            for p in [UnionPolicy::ByRank, UnionPolicy::BySize, UnionPolicy::ByIndex] {
                let mut d = SeqDsu::with_policies(n, c, p);
                for &(x, y) in &edges {
                    d.union(x, y);
                }
                let labels: Vec<u32> = (0..n as u32).map(|v| d.find(v)).collect();
                prop_assert!(same_partition(&labels, &reference), "{c:?}/{p:?}");
            }
        }
    }

    #[test]
    fn atomic_all_find_policies_match_naive((n, edges) in edges_strategy()) {
        let reference = naive_partition(n, &edges);
        for p in [FindPolicy::NoCompression, FindPolicy::Halving, FindPolicy::IntermediatePointerJumping, FindPolicy::BlockedHalving] {
            let d = AtomicDsu::new(n);
            for &(x, y) in &edges {
                d.union(x, y, p);
            }
            prop_assert!(same_partition(&d.labels(FindPolicy::NoCompression), &reference), "{p:?}");
        }
    }

    #[test]
    fn union_returns_true_exactly_once_per_merge((n, edges) in edges_strategy()) {
        let mut d = SeqDsu::new(n);
        let mut wins = 0usize;
        for &(x, y) in &edges {
            if d.union(x, y) {
                wins += 1;
            }
        }
        prop_assert_eq!(wins, n - d.num_sets());
    }

    #[test]
    fn parallel_unions_match_naive((n, edges) in edges_strategy()) {
        let reference = naive_partition(n, &edges);
        let d = AtomicDsu::new(n);
        std::thread::scope(|s| {
            for chunk in edges.chunks(edges.len() / 4 + 1) {
                let d = &d;
                s.spawn(move || {
                    for &(x, y) in chunk {
                        d.union(x, y, FindPolicy::Halving);
                    }
                });
            }
        });
        prop_assert!(same_partition(&d.labels(FindPolicy::NoCompression), &reference));
    }
}
