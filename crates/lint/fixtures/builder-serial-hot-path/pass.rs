//! Fixture: all loops and sorts run inside par:: helper spans.
fn lightest_edges(src: &dyn EdgeShards, k: usize, keep: usize) -> (Vec<Wuv>, Option<Wuv>) {
    let shards = par::par_map(&idx, |_, &i| {
        let mut part = Vec::new();
        for e in src.shard(i, k) {
            part.push(key(e));
        }
        part.sort_unstable();
        part
    });
    finish(shards)
}

fn shard_survivors(shard: Vec<ShardTriple>, bound: Wuv) -> Vec<Wuv> {
    let mut heavy = keep_heavy(shard, bound);
    heavy.par_sort_unstable();
    heavy
}

fn joins(sorted: Vec<Wuv>, dsu: &mut SeqDsu) {
    finish(sorted)
}
