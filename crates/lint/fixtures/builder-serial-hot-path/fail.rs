//! Fixture: a serial sort and a bare loop on the hot paths.
fn lightest_edges(src: &dyn EdgeShards, k: usize, keep: usize) -> (Vec<Wuv>, Option<Wuv>) {
    finish(src)
}

fn shard_survivors(shard: Vec<ShardTriple>, bound: Wuv) -> Vec<Wuv> {
    let mut heavy = keep_heavy(shard, bound);
    heavy.sort_unstable();
    heavy
}

fn joins(sorted: Vec<Wuv>, dsu: &mut SeqDsu) {
    for e in sorted {
        dsu.union(e.1, e.2);
    }
}
