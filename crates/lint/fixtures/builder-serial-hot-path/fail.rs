//! Fixture: a serial sort and a bare loop on the hot paths.
fn solve_triples(mut edges: Vec<ShardTriple>) -> Vec<Wuv> {
    edges.sort_unstable();
    finish(edges)
}

fn solve_dense(edges: Vec<ShardTriple>) -> Vec<Wuv> {
    finish(edges)
}

fn scan_forest(sorted: &[Wuv], dsu_n: usize) -> Vec<Wuv> {
    let mut out = Vec::new();
    for e in sorted {
        out.push(*e);
    }
    out
}

fn scatter_table(verts: &[VertexId]) -> Vec<u32> {
    finish(verts)
}
