//! Gunrock-style GPU MST: vertex-centric, **topology-driven** Borůvka that
//! "checks all vertices and evaluates an edge if its source and destination
//! do not belong to the same connected component" (§2). Like Jucele it
//! "relies on the input having only a single connected component and,
//! therefore, cannot generate an MSF".
//!
//! No worklist and no contraction: every round rescans the full CSR, with
//! one thread per vertex walking its whole row — the two costs (full
//! rescans, hub-serialized rows) ECL-MST's data-driven edge-centric design
//! removes.

use crate::GpuBaselineRun;
use ecl_gpu_sim::{sanitize, with_scratch, Device, GpuProfile, TaskCtx};
use ecl_graph::CsrGraph;
use ecl_mst::{derived_const, pack, unpack, DeviceCsr, MstError, MstResult, EMPTY};

/// Gunrock GPU: topology-driven DSU Borůvka. Errors with
/// [`MstError::NotConnected`] on multi-component inputs.
pub fn gunrock_gpu(g: &CsrGraph, profile: GpuProfile) -> Result<GpuBaselineRun, MstError> {
    if g.num_vertices() > 1 && ecl_graph::stats::connected_components(g) != 1 {
        return Err(MstError::NotConnected);
    }
    let n = g.num_vertices();
    let m = g.num_edges();
    let mut dev = Device::new(profile);

    let csr = DeviceCsr::get(g);
    let DeviceCsr {
        row_starts,
        adjacency,
        arc_weights,
        arc_edge_ids,
    } = csr.clone();
    // id -> endpoints table for the merge kernel (cached per graph).
    let ep_u = derived_const(g, "gunrock/ep_u", || {
        let mut ep = vec![0u32; m];
        for e in g.edges() {
            ep[e.id as usize] = e.src;
        }
        ep
    });
    let ep_v = derived_const(g, "gunrock/ep_v", || {
        let mut ep = vec![0u32; m];
        for e in g.edges() {
            ep[e.id as usize] = e.dst;
        }
        ep
    });
    dev.memcpy_h2d(csr.size_bytes() + ep_u.size_bytes() + ep_v.size_bytes());

    // Pooled state. `parent`/`in_mst`/`min_edge` are fully initialized by
    // the host writes below (identical to the fresh-allocation contents);
    // `progress` is host-written at the top of every sweep.
    let (parent, min_edge, in_mst, progress) = with_scratch(|s| {
        (
            s.arena.acquire_u32_uninit(n.max(1)),
            s.arena.acquire_u64(n.max(1), EMPTY),
            s.arena.acquire_u32(m.max(1), 0),
            s.arena.acquire_u32_uninit(1),
        )
    });
    sanitize::label(&parent, "gunrock/parent");
    sanitize::label(&min_edge, "gunrock/min_edge");
    sanitize::label(&in_mst, "gunrock/in_mst");
    sanitize::label(&progress, "gunrock/progress");
    parent.host_write_iota();

    let find = |ctx: &mut TaskCtx, mut x: u32| -> u32 {
        loop {
            let p = parent.ld_gather(ctx, x as usize);
            if p == x {
                return x;
            }
            let gp = parent.ld_gather(ctx, p as usize);
            if gp != p {
                parent.st_scatter(ctx, x as usize, gp);
            }
            x = gp;
        }
    };

    loop {
        progress.host_write(0, 0);
        // Kernel: every vertex rescans its whole row for the lightest
        // crossing edge (vertex-centric: hub rows serialize on one thread).
        let _ = dev.launch("find_light", n, |v, ctx| {
            let rv = find(ctx, v as u32);
            let lo = row_starts.ld(ctx, v) as usize;
            let hi = row_starts.ld(ctx, v + 1) as usize;
            let mut best = EMPTY;
            for a in lo..hi {
                let d = adjacency.ld_row(ctx, a, lo);
                if find(ctx, d) != rv {
                    let w = arc_weights.ld_row(ctx, a, lo);
                    let id = arc_edge_ids.ld_row(ctx, a, lo);
                    best = best.min(pack(w, id));
                }
            }
            if best != EMPTY {
                min_edge.atomic_min(ctx, rv as usize, best);
                progress.st(ctx, 0, 1);
            }
        });
        dev.sync_read();
        if progress.host_read(0) == 0 {
            break;
        }
        // Kernel: merge along the recorded edges.
        let _ = dev.launch("merge", n, |r, ctx| {
            let val = min_edge.ld(ctx, r);
            if val == EMPTY {
                return;
            }
            min_edge.st(ctx, r, EMPTY);
            let (_, id) = unpack(val);
            let u = ep_u.ld_gather(ctx, id as usize);
            let v = ep_v.ld_gather(ctx, id as usize);
            let mut ru = find(ctx, u);
            let mut rv = find(ctx, v);
            loop {
                if ru == rv {
                    break;
                }
                let (lo_r, hi_r) = (ru.min(rv), ru.max(rv));
                match parent.atomic_cas(ctx, lo_r as usize, lo_r, hi_r) {
                    Ok(_) => break,
                    Err(_) => {
                        ru = find(ctx, lo_r);
                        rv = find(ctx, hi_r);
                    }
                }
            }
            in_mst.st_scatter(ctx, id as usize, 1);
        });
    }

    dev.memcpy_d2h(in_mst.size_bytes());
    let bitmap: Vec<bool> = in_mst
        .to_vec()
        .into_iter()
        .take(m)
        .map(|x| x != 0)
        .collect();
    with_scratch(|s| {
        s.arena.release_u32(parent);
        s.arena.release_u64(min_edge);
        s.arena.release_u32(in_mst);
        s.arena.release_u32(progress);
    });
    Ok(GpuBaselineRun {
        result: MstResult::from_bitmap(g, bitmap),
        kernel_seconds: dev.kernel_seconds(),
        memcpy_seconds: dev.memcpy_seconds(),
        records: dev.records().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::generators::*;
    use ecl_mst::serial_kruskal;

    #[test]
    fn matches_reference() {
        let g = grid2d(11, 3);
        let run = gunrock_gpu(&g, GpuProfile::TITAN_V).unwrap();
        assert_eq!(run.result.in_mst, serial_kruskal(&g).in_mst);
    }

    #[test]
    fn rejects_disconnected() {
        let g = rmat(8, 4, 1);
        assert_eq!(
            gunrock_gpu(&g, GpuProfile::TITAN_V).unwrap_err(),
            MstError::NotConnected
        );
    }

    #[test]
    fn matches_reference_on_scale_free() {
        let g = preferential_attachment(500, 6, 1, 7);
        let run = gunrock_gpu(&g, GpuProfile::TITAN_V).unwrap();
        assert_eq!(run.result.in_mst, serial_kruskal(&g).in_mst);
    }
}
