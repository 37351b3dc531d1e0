//! The MST codes of Tables 3 and 4 — the analogue of Table 1 plus our own
//! code's two columns — and the one place that evaluates them.
//!
//! Simulated clocks are pure functions of (graph, profile): the simulator
//! is bit-deterministic (the golden-counters test pins every launch's
//! event totals), so each simulated cell is evaluated exactly once. Only
//! the wall-clock CPU codes repeat, to absorb real timing noise.

use ecl_baselines as b;
use ecl_gpu_sim::GpuProfile;
use ecl_graph::CsrGraph;
use ecl_mst::{ecl_mst_gpu_with, GpuRun, MstError, MstResult, OptConfig};
use std::time::Instant;

/// A timing outcome for one (code, input) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Timing {
    /// Seconds (simulated for GPU codes, measured for CPU codes).
    Seconds(f64),
    /// The paper's "NC": the code cannot handle multi-component inputs.
    NotConnected,
}

impl Timing {
    /// The seconds, if the run succeeded.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            Timing::Seconds(s) => Some(*s),
            Timing::NotConnected => None,
        }
    }
}

impl From<Result<f64, MstError>> for Timing {
    fn from(r: Result<f64, MstError>) -> Self {
        r.map_or(Timing::NotConnected, Timing::Seconds)
    }
}

/// The two simulated clocks of one full-configuration ECL-MST run: the
/// `ECL-MST` column is `kernel`, the `ECL-MST memcpy` column
/// `kernel + memcpy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EclSeconds {
    /// Simulated seconds in kernels.
    pub kernel: f64,
    /// Simulated seconds in host↔device transfers.
    pub memcpy: f64,
}

impl EclSeconds {
    /// The clocks of `run`.
    pub fn of(run: &GpuRun) -> Self {
        EclSeconds {
            kernel: run.kernel_seconds,
            memcpy: run.memcpy_seconds,
        }
    }
}

type SimFn = fn(&CsrGraph, GpuProfile) -> Result<f64, MstError>;

/// The simulated comparators, in column order after the two ECL-MST
/// columns. cuGraph runs on System 2 only.
const GPU_BASELINES: [(&str, SimFn); 4] = [
    ("Jucele GPU", |g, p| Ok(b::jucele_gpu(g, p)?.kernel_seconds)),
    ("Gunrock GPU", |g, p| {
        Ok(b::gunrock_gpu(g, p)?.kernel_seconds)
    }),
    (
        "cuGraph GPU",
        |g, p| Ok(b::cugraph_gpu(g, p).kernel_seconds),
    ),
    ("UMinho GPU", |g, p| Ok(b::uminho_gpu(g, p).kernel_seconds)),
];

/// Runs a host comparator once.
pub type CpuFn = fn(&CsrGraph) -> MstResult;

/// The host comparators, timed by wall clock, in column order after the
/// simulated ones.
pub const CPU_CODES: [(&str, CpuFn); 4] = [
    ("Lonestar CPU", b::lonestar_cpu),
    ("PBBS CPU", b::pbbs_parallel),
    ("UMinho CPU", b::uminho_cpu),
    ("PBBS Ser.", b::pbbs_serial),
];

fn gpu_baselines(cugraph: bool) -> impl Iterator<Item = &'static (&'static str, SimFn)> {
    GPU_BASELINES
        .iter()
        .filter(move |(name, _)| cugraph || *name != "cuGraph GPU")
}

/// Every column name of Table 3 (`cugraph = false`) or Table 4, in order.
pub fn column_names(cugraph: bool) -> Vec<&'static str> {
    let mut names = vec!["ECL-MST", "ECL-MST memcpy"];
    names.extend(gpu_baselines(cugraph).map(|(name, _)| *name));
    names.extend(CPU_CODES.iter().map(|(name, _)| *name));
    names
}

/// One simulated cell and the host seconds its evaluation took.
#[derive(Debug, Clone, Copy)]
pub struct SimCell {
    /// The simulated timing (or NC).
    pub timing: Timing,
    /// Host wall seconds spent simulating it; zero for the memcpy column,
    /// which reads the ECL-MST column's run.
    pub host_seconds: f64,
}

/// Evaluates every simulated column of Table 3 (`cugraph = false`) or
/// Table 4 on `g` once, in [`column_names`] order. `ecl` supplies the
/// full-configuration ECL-MST run when the caller already simulated it;
/// otherwise it is simulated here.
pub fn simulate_columns(
    g: &CsrGraph,
    profile: GpuProfile,
    cugraph: bool,
    ecl: Option<EclSeconds>,
) -> Vec<SimCell> {
    let start = Instant::now();
    let run =
        ecl.unwrap_or_else(|| EclSeconds::of(&ecl_mst_gpu_with(g, &OptConfig::full(), profile)));
    let mut cells = vec![
        SimCell {
            timing: Timing::Seconds(run.kernel),
            host_seconds: start.elapsed().as_secs_f64(),
        },
        SimCell {
            timing: Timing::Seconds(run.kernel + run.memcpy),
            host_seconds: 0.0,
        },
    ];
    cells.extend(gpu_baselines(cugraph).map(|(_, sim)| {
        let start = Instant::now();
        let timing = sim(g, profile).into();
        SimCell {
            timing,
            host_seconds: start.elapsed().as_secs_f64(),
        }
    }));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::generators::grid2d;

    #[test]
    fn registry_matches_table_columns() {
        // Table 3 has 9 code columns; Table 4 adds cuGraph for 10.
        assert_eq!(column_names(false).len(), 9);
        assert_eq!(column_names(true).len(), 10);
        assert_eq!(column_names(true)[4], "cuGraph GPU");
    }

    #[test]
    fn memcpy_column_projects_the_ecl_run() {
        let g = grid2d(8, 1);
        let direct = ecl_mst_gpu_with(&g, &OptConfig::full(), GpuProfile::TITAN_V);
        let cells = simulate_columns(&g, GpuProfile::TITAN_V, false, None);
        assert_eq!(cells[0].timing, Timing::Seconds(direct.kernel_seconds));
        assert_eq!(
            cells[1].timing,
            Timing::Seconds(direct.kernel_seconds + direct.memcpy_seconds)
        );
        // A supplied run is used as is, not simulated again.
        let given = EclSeconds {
            kernel: 1.0,
            memcpy: 2.0,
        };
        let cells = simulate_columns(&g, GpuProfile::TITAN_V, false, Some(given));
        assert_eq!(cells[0].timing, Timing::Seconds(1.0));
        assert_eq!(cells[1].timing, Timing::Seconds(3.0));
    }
}
