//! Fixture: the covered loop needs no waiver, so the waiver is an error.
fn solve_triples(edges: Vec<ShardTriple>) -> Vec<Wuv> {
    let parts = par::run_chunks(edges.len(), 1 << 16, |r| {
        // ecl-lint: allow(builder-serial-hot-path) covered already
        for i in r {
            consume(edges[i]);
        }
    });
    finish(parts)
}

fn solve_dense(edges: Vec<ShardTriple>) -> Vec<Wuv> {
    finish(edges)
}

fn scan_forest(sorted: &[Wuv], dsu_n: usize) -> Vec<Wuv> {
    finish(sorted)
}

fn scatter_table(verts: &[VertexId]) -> Vec<u32> {
    finish(verts)
}
