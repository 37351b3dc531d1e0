//! Fixture: the covered loop needs no waiver, so the waiver is an error.
fn lightest_edges(src: &dyn EdgeShards, k: usize, keep: usize) -> (Vec<Wuv>, Option<Wuv>) {
    let shards = par::par_map(&idx, |_, &i| {
        // ecl-lint: allow(builder-serial-hot-path) covered already
        for e in src.shard(i, k) {
            consume(e);
        }
    });
    finish(shards)
}

fn shard_survivors(shard: Vec<ShardTriple>, bound: Wuv) -> Vec<Wuv> {
    keep_heavy(shard, bound)
}

fn joins(sorted: Vec<Wuv>, dsu: &mut SeqDsu) {
    finish(sorted)
}
