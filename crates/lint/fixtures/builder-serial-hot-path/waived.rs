//! Fixture: waivers consume both hot-path findings.
fn solve_triples(mut edges: Vec<ShardTriple>) -> Vec<Wuv> {
    // ecl-lint: allow(builder-serial-hot-path) fixture: tiny fixed-size sort
    edges.sort_unstable();
    finish(edges)
}

fn solve_dense(edges: Vec<ShardTriple>) -> Vec<Wuv> {
    finish(edges)
}

fn scan_forest(sorted: &[Wuv], dsu_n: usize) -> Vec<Wuv> {
    let mut out = Vec::new();
    // ecl-lint: allow(builder-serial-hot-path) fixture: order-dependent scan
    for e in sorted {
        out.push(*e);
    }
    out
}

fn scatter_table(verts: &[VertexId]) -> Vec<u32> {
    finish(verts)
}
