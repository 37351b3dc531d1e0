//! Fixture: waivers consume both hot-path findings.
fn lightest_edges(src: &dyn EdgeShards, k: usize, keep: usize) -> (Vec<Wuv>, Option<Wuv>) {
    finish(src)
}

fn shard_survivors(shard: Vec<ShardTriple>, bound: Wuv) -> Vec<Wuv> {
    let mut heavy = keep_heavy(shard, bound);
    // ecl-lint: allow(builder-serial-hot-path) fixture: tiny fixed-size sort
    heavy.sort_unstable();
    heavy
}

fn joins(sorted: Vec<Wuv>, dsu: &mut SeqDsu) {
    // ecl-lint: allow(builder-serial-hot-path) fixture: order-dependent scan
    for e in sorted {
        dsu.union(e.1, e.2);
    }
}
