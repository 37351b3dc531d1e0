//! Sharded out-of-core measurement mode (`bench_snapshot --sharded …`).
//!
//! Each cell runs the external-memory pipeline
//! ([`ecl_mst::sharded_msf`] with a spill directory) over the
//! `r4-2e23.sym` twin's shard source at one suite scale, under a reset
//! `VmHWM` high-water mark, and reports:
//!
//! * wall seconds of the full sharded solve (shard generation included),
//! * the measured peak RSS against the scale's **hard budget** — the
//!   contract that makes "out-of-core" falsifiable. `bench_snapshot`
//!   exits 6 when any cell exceeds its budget, next to the trace gate's
//!   exit 4 and the metrics gate's exit 5;
//! * at scales where the monolith still fits ([`SuiteScale::Large`] and
//!   below), the in-core `GraphBuilder + serial_kruskal` wall clock and a
//!   bit-exact parity verdict against it.

use ecl_graph::suite::{r4_monolith, r4_shard_source};
use ecl_graph::SuiteScale;
use ecl_mst::{serial_kruskal, sharded_msf, ShardedConfig};

use crate::runner::{peak_rss_bytes, reset_peak_rss, wall};

/// Shard count per scale: enough shards that one shard per worker stays
/// small next to the light pass's buffer, without drowning small inputs in
/// fixed per-shard costs.
pub fn default_shards(scale: SuiteScale) -> usize {
    match scale {
        SuiteScale::Tiny | SuiteScale::Small => 4,
        SuiteScale::Medium => 8,
        SuiteScale::Large => 8,
        SuiteScale::Huge => 16,
    }
}

/// Hard peak-RSS budget per scale, in bytes.
///
/// Derived from measured `VmHWM` of the spilling pipeline on the r4 twin
/// (BENCH_6.json `sharded` block: ~110 MiB at Large, ~900 MiB at Huge)
/// with at least 2× headroom for allocator and platform variance. The point is
/// the *shape*: the budget grows with the vertex count (the light pass's
/// 2.25·n-edge buffer, the DSU and the forest are all O(n)) plus one
/// shard per worker, not with the edge count — a monolithic build of the
/// Huge twin needs several times this much just for its edge list
/// (~1.5 GiB of raw triples before the CSR and the packed sort keys).
pub fn rss_budget_bytes(scale: SuiteScale) -> u64 {
    const MIB: u64 = 1 << 20;
    match scale {
        // Small scales are dominated by fixed process overhead (binary,
        // worker thread stacks, suite tables), not the pipeline.
        SuiteScale::Tiny | SuiteScale::Small => 256 * MIB,
        SuiteScale::Medium => 384 * MIB,
        SuiteScale::Large => 512 * MIB,
        SuiteScale::Huge => 2048 * MIB,
    }
}

/// One measured sharded cell, ready for JSON embedding.
#[derive(Debug, Clone)]
pub struct ShardedCell {
    /// Suite scale of the r4 twin this cell ran.
    pub scale: SuiteScale,
    /// Shard count used.
    pub shards: usize,
    /// Wall seconds of the spilling sharded solve, generation included.
    pub wall_seconds: f64,
    /// Wall seconds of the monolithic `GraphBuilder + serial_kruskal`
    /// build of the same twin; `None` above Large (the monolith is what
    /// the sharded mode exists to avoid).
    pub monolith_wall_seconds: Option<f64>,
    /// Bit-exact forest parity against the monolith (`None` above Large).
    pub parity: Option<bool>,
    /// Forest edges in the final merged MSF.
    pub forest_edges: usize,
    /// Heavy-pass survivor edges across shards (the runs the merge reads).
    pub survivor_edges: u64,
    /// 1 when two or more shard runs were merged, else 0.
    pub merge_rounds: u32,
    /// Bytes written to survivor run files.
    pub spill_bytes: u64,
    /// `VmHWM` after the sharded solve, reset immediately before it.
    pub peak_rss_bytes: u64,
    /// The scale's declared budget.
    pub rss_budget_bytes: u64,
}

impl ShardedCell {
    /// True when the measured peak stayed under the declared budget (or
    /// the platform could not measure RSS at all, which reports 0 — the
    /// gate only fires on evidence of a violation, and CI runs on Linux
    /// where `VmHWM` always reads).
    pub fn within_budget(&self) -> bool {
        self.peak_rss_bytes <= self.rss_budget_bytes
    }

    /// Sharded wall clock as a multiple of the monolith's, when measured.
    pub fn slowdown_vs_monolith(&self) -> Option<f64> {
        self.monolith_wall_seconds
            .map(|m| self.wall_seconds / m.max(1e-12))
    }
}

/// Whether the monolithic twin is safe to materialize for comparison.
fn monolith_fits(scale: SuiteScale) -> bool {
    !matches!(scale, SuiteScale::Huge)
}

/// Measures one sharded cell at `scale`. Spill files live under a
/// process-unique directory in the system temp dir and are removed before
/// returning (the pipeline itself already deletes each file on load; this
/// clears the directory).
pub fn measure_sharded(scale: SuiteScale) -> ShardedCell {
    let shards = default_shards(scale);
    let spill = std::env::temp_dir().join(format!(
        "ecl-shard-spill-{}-{}",
        scale.name(),
        std::process::id()
    ));

    // The reset scopes VmHWM to this cell: anything the process peaked at
    // earlier (the table3 window, a previous cell) no longer masks it.
    let reset_ok = reset_peak_rss();
    let cfg = ShardedConfig::spilling(shards, &spill);
    let mut run = None;
    let wall_seconds = wall(|| {
        let src = r4_shard_source(scale);
        run = Some(sharded_msf(&src, &cfg));
    });
    let run = run.expect("sharded run completed");
    let peak = if reset_ok {
        peak_rss_bytes().unwrap_or(0)
    } else {
        0
    };
    ecl_metrics::gauge!(SHARD_PEAK_RSS_BYTES, peak as f64);
    std::fs::remove_dir_all(&spill).ok();

    let (monolith_wall_seconds, parity) = if monolith_fits(scale) {
        let mut built = None;
        let mw = wall(|| {
            let g = r4_monolith(scale);
            let expected = serial_kruskal(&g);
            built = Some((g, expected));
        });
        let (g, expected) = built.expect("monolith run completed");
        let got = run.forest.to_mst_result(&g);
        (Some(mw), Some(got.in_mst == expected.in_mst))
    } else {
        (None, None)
    };

    ShardedCell {
        scale,
        shards,
        wall_seconds,
        monolith_wall_seconds,
        parity,
        forest_edges: run.forest.num_edges(),
        survivor_edges: run.survivor_edges,
        merge_rounds: run.merge_rounds,
        spill_bytes: run.spill_bytes,
        peak_rss_bytes: peak,
        rss_budget_bytes: rss_budget_bytes(scale),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cell_measures_and_holds_parity() {
        let cell = measure_sharded(SuiteScale::Tiny);
        assert_eq!(cell.scale, SuiteScale::Tiny);
        assert_eq!(cell.shards, default_shards(SuiteScale::Tiny));
        assert_eq!(
            cell.parity,
            Some(true),
            "sharded forest must match monolith"
        );
        assert!(cell.spill_bytes > 0, "spilling mode must write files");
        assert!(cell.forest_edges > 0);
        assert!(cell.merge_rounds > 0);
        // VmHWM is monotone per measurement window; on Linux the reset
        // makes it cell-scoped and the Tiny working set is far under
        // budget.
        if cell.peak_rss_bytes > 0 {
            assert!(
                cell.within_budget(),
                "tiny cell peak {} exceeded budget {}",
                cell.peak_rss_bytes,
                cell.rss_budget_bytes
            );
        }
    }

    #[test]
    fn budgets_grow_with_scale() {
        assert!(rss_budget_bytes(SuiteScale::Huge) > rss_budget_bytes(SuiteScale::Large));
        assert!(rss_budget_bytes(SuiteScale::Large) > rss_budget_bytes(SuiteScale::Small));
    }
}
