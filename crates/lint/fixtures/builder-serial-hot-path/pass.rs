//! Fixture: all loops and sorts run inside par:: helper spans.
fn solve_triples(mut edges: Vec<ShardTriple>) -> Vec<Wuv> {
    edges.par_sort_unstable();
    let parts = par::run_chunks(edges.len(), 1 << 16, |r| {
        let mut part = Vec::new();
        for i in r {
            part.push(key(edges[i]));
        }
        part.sort_unstable();
        part
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
