//! Jucele (Vasconcellos et al.) style GPU Borůvka: data-driven,
//! atomic-operation based, and a **pure MST code** — it assumes a single
//! connected component and cannot produce a forest (the paper reports "NC"
//! for it on every multi-component input).
//!
//! Per round (§2): a kernel finds the lightest edge of each supervertex,
//! another marks it; then the code "contracts the graph and recalculates
//! the connected components" — here an edge-parallel min-reservation pass,
//! a pick/mark pass, mirror-break + pointer-jump relabeling, and a
//! compaction of the edge list to the surviving inter-component edges (the
//! data-driven part: later rounds only touch the shrinking list). The
//! balanced edge-parallel kernels are why this is the fastest prior GPU
//! code; the per-round contraction is why ECL-MST still beats it.

use crate::GpuBaselineRun;
use ecl_gpu_sim::{sanitize, with_scratch, ConstBuf, Device, GpuProfile};
use ecl_graph::CsrGraph;
use ecl_mst::{derived_const, pack, DeviceCsr, MstError, MstResult, EMPTY};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Jucele GPU: data-driven contraction Borůvka. Errors with
/// [`MstError::NotConnected`] on multi-component inputs (a pure MST code).
pub fn jucele_gpu(g: &CsrGraph, profile: GpuProfile) -> Result<GpuBaselineRun, MstError> {
    if g.num_vertices() > 1 && ecl_graph::stats::connected_components(g) != 1 {
        return Err(MstError::NotConnected);
    }
    Ok(contraction_boruvka_gpu(g, profile))
}

/// Edge-list contraction Borůvka with balanced edge-parallel kernels.
pub(crate) fn contraction_boruvka_gpu(g: &CsrGraph, profile: GpuProfile) -> GpuBaselineRun {
    let mut dev = Device::new(profile);
    // Edge-list upload (u, v, w, id).
    dev.memcpy_h2d(4 * 4 * g.num_edges() as u64);

    // Per-edge MST flags, written by the mark kernel; once true an edge
    // stays true, so the flags accumulate across rounds with no host merge.
    let marked: Vec<AtomicBool> = (0..g.num_edges()).map(|_| AtomicBool::new(false)).collect();
    // Like the original, the code starts from both directed arcs of every
    // edge ("It starts by finding the minimum weighted edge of each vertex
    // ... It then removes the mirrored edges"): 2|E| entries. Round 0 is
    // exactly the graph's arc arrays, so it shares the cached CSR uploads;
    // later (contracted, shrinking) rounds upload fresh edge lists.
    let DeviceCsr {
        adjacency,
        arc_weights,
        arc_edge_ids,
        ..
    } = DeviceCsr::get(g);
    let mut eu = derived_const(g, "core/arc_src", || {
        let mut src = vec![0u32; g.num_arcs()];
        for v in 0..g.num_vertices() as u32 {
            for a in g.arc_range(v) {
                src[a] = v;
            }
        }
        src
    });
    let mut ev = adjacency;
    let mut ew = arc_weights;
    let mut eid = arc_edge_ids;
    let mut e_cnt = g.num_arcs();
    let mut n = g.num_vertices();

    // Loop-control flags, pooled once for the whole run and host-reset
    // before every use.
    let (next_cnt, changed) =
        with_scratch(|s| (s.arena.acquire_u32_uninit(1), s.arena.acquire_u32_uninit(1)));
    sanitize::label(&next_cnt, "jucele/next_cnt");
    sanitize::label(&changed, "jucele/changed");

    while e_cnt > 0 {
        // Comparison traces line up with ECL-MST's per-iteration spans.
        let _round = ecl_trace::range!(sim: "round");
        ecl_trace::attach("edges", e_cnt as f64);
        let (min_at, succ) =
            with_scratch(|s| (s.arena.acquire_u64(n, EMPTY), s.arena.acquire_u32_uninit(n)));
        sanitize::label(&min_at, "jucele/min_at");
        sanitize::label(&succ, "jucele/succ");
        succ.host_write_iota();

        // Kernel: lightest edge per supervertex (edge-parallel, balanced).
        let _ = dev.launch("find_light", e_cnt, |i, ctx| {
            let u = eu.ld(ctx, i);
            let v = ev.ld(ctx, i);
            let val = pack(ew.ld(ctx, i), eid.ld(ctx, i));
            min_at.atomic_min(ctx, u as usize, val);
            min_at.atomic_min(ctx, v as usize, val);
        });
        // Kernel: mark winners and record successors.
        let _ = dev.launch("mark", e_cnt, |i, ctx| {
            let u = eu.ld(ctx, i);
            let v = ev.ld(ctx, i);
            let val = pack(ew.ld(ctx, i), eid.ld(ctx, i));
            let mu = min_at.ld_gather(ctx, u as usize);
            let mv = min_at.ld_gather(ctx, v as usize);
            if mu == val {
                succ.st_scatter(ctx, u as usize, v);
            }
            if mv == val {
                succ.st_scatter(ctx, v as usize, u);
            }
            if mu == val || mv == val {
                let id = eid.ld(ctx, i);
                marked[id as usize].store(true, Ordering::Release);
                ctx.charge_gather(); // scattered MST-flag store
            }
        });
        // Kernel: break mutual picks (smaller index becomes the root).
        // (`color` is fully written here before any read.)
        let color = with_scratch(|s| s.arena.acquire_u32_uninit(n));
        sanitize::label(&color, "jucele/color");
        let _ = dev.launch("mirror_break", n, |v, ctx| {
            let s = succ.ld(ctx, v);
            let ss = succ.ld_gather(ctx, s as usize);
            let c = if ss == v as u32 && (v as u32) < s {
                v as u32
            } else {
                s
            };
            color.st(ctx, v, c);
        });
        // Kernels: recalculate the connected components (pointer jumping).
        loop {
            changed.host_write(0, 0);
            let _ = dev.launch("relabel", n, |v, ctx| {
                let c = color.ld(ctx, v);
                let cc = color.ld_gather(ctx, c as usize);
                if cc != c {
                    color.st(ctx, v, cc);
                    changed.st(ctx, 0, 1);
                }
            });
            dev.sync_read();
            if changed.host_read(0) == 0 {
                break;
            }
        }
        // Renumber the roots densely (host mirror of a device scan).
        let colors = color.to_vec();
        let mut new_id = vec![u32::MAX; n];
        let mut k = 0u32;
        for v in 0..n {
            if colors[v] == v as u32 {
                new_id[v] = k;
                k += 1;
            }
        }
        let _ = dev.launch("renumber", n, |v, ctx| {
            let _ = color.ld(ctx, v);
            ctx.charge_coalesced(8);
        });
        // Kernel: contract — compact the edge list to inter-component edges.
        // (`out` is only read up to the compacted count.)
        next_cnt.host_write(0, 0);
        let out = with_scratch(|s| s.arena.acquire_u32_uninit(4 * e_cnt));
        sanitize::label(&out, "jucele/out");
        {
            let new_id = &new_id;
            let _ = dev.launch("contract", e_cnt, |i, ctx| {
                let u = eu.ld(ctx, i);
                let v = ev.ld(ctx, i);
                let cu = new_id[color.ld_gather(ctx, u as usize) as usize];
                let cv = new_id[color.ld_gather(ctx, v as usize) as usize];
                if cu != cv {
                    let slot = next_cnt.atomic_add_aggregated(ctx, 0, 1) as usize;
                    let w = ew.ld(ctx, i);
                    let id = eid.ld(ctx, i);
                    out.st4(ctx, 4 * slot, [cu, cv, w, id]);
                }
            });
        }
        dev.sync_read();
        let cnt = next_cnt.host_read(0) as usize;
        // Split the compacted AoS quads into next-round SoA uploads.
        let mut nu = Vec::with_capacity(cnt);
        let mut nv = Vec::with_capacity(cnt);
        let mut nw = Vec::with_capacity(cnt);
        let mut nid = Vec::with_capacity(cnt);
        for i in 0..cnt {
            nu.push(out.host_read(4 * i));
            nv.push(out.host_read(4 * i + 1));
            nw.push(out.host_read(4 * i + 2));
            nid.push(out.host_read(4 * i + 3));
        }
        eu = Arc::new(ConstBuf::from_vec(nu));
        ev = Arc::new(ConstBuf::from_vec(nv));
        ew = Arc::new(ConstBuf::from_vec(nw));
        eid = Arc::new(ConstBuf::from_vec(nid));
        e_cnt = cnt;
        n = k as usize;
        with_scratch(|s| {
            s.arena.release_u64(min_at);
            s.arena.release_u32(succ);
            s.arena.release_u32(color);
            s.arena.release_u32(out);
        });
    }

    with_scratch(|s| {
        s.arena.release_u32(next_cnt);
        s.arena.release_u32(changed);
    });
    let in_mst: Vec<bool> = marked.iter().map(|b| b.load(Ordering::Acquire)).collect();
    dev.memcpy_d2h(4 * g.num_edges() as u64);
    GpuBaselineRun {
        result: MstResult::from_bitmap(g, in_mst),
        kernel_seconds: dev.kernel_seconds(),
        memcpy_seconds: dev.memcpy_seconds(),
        records: dev.records().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::generators::*;
    use ecl_mst::serial_kruskal;

    #[test]
    fn matches_reference_on_grid() {
        let g = grid2d(12, 1);
        let run = jucele_gpu(&g, GpuProfile::TITAN_V).unwrap();
        assert_eq!(run.result.in_mst, serial_kruskal(&g).in_mst);
        assert!(run.kernel_seconds > 0.0);
    }

    #[test]
    fn matches_reference_on_scale_free() {
        let g = preferential_attachment(600, 6, 1, 2);
        let run = jucele_gpu(&g, GpuProfile::RTX_3080_TI).unwrap();
        assert_eq!(run.result.in_mst, serial_kruskal(&g).in_mst);
    }

    #[test]
    fn rejects_disconnected_input() {
        let g = rmat(9, 4, 3);
        assert_eq!(
            jucele_gpu(&g, GpuProfile::TITAN_V).unwrap_err(),
            MstError::NotConnected
        );
    }

    #[test]
    fn handles_equal_weights() {
        let g = {
            let mut b = ecl_graph::GraphBuilder::new(9);
            for u in 0..9u32 {
                for v in (u + 1)..9 {
                    b.add_edge(u, v, 4);
                }
            }
            b.build()
        };
        let run = jucele_gpu(&g, GpuProfile::TITAN_V).unwrap();
        assert_eq!(run.result.in_mst, serial_kruskal(&g).in_mst);
    }
}
