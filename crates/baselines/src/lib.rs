//! Reimplementations of the MST comparator strategies the ECL-MST paper
//! evaluates against (Table 1).
//!
//! The paper compares to released third-party artifacts; those are not
//! available offline, so this crate rebuilds each comparator's *algorithmic
//! strategy* as the paper describes it, on the same substrates as ECL-MST
//! (the [`ecl_graph`] CSR graphs, [`ecl_dsu`] structures, and the
//! [`ecl_gpu_sim`] device for the GPU codes). Reimplementing the strategies
//! on one substrate isolates exactly the variable the paper studies:
//! vertex- vs edge-centric, topology- vs data-driven, contraction vs
//! disjoint-set merging.
//!
//! | Paper code | Here | Strategy |
//! |---|---|---|
//! | PBBS Serial | [`pbbs_serial`] | full-sort sequential Kruskal |
//! | (classic) | [`serial_prim`] | binary-heap Prim/MSF |
//! | (classic) | [`filter_kruskal()`] | Osipov et al. recursive Filter-Kruskal |
//! | (classic) | [`qkruskal`] | Brennan's partial-sorting Kruskal |
//! | PBBS CPU | [`pbbs_parallel`] | sample-sort prefix + deterministic reservations |
//! | Lonestar CPU | [`lonestar_cpu`] | component-loop Borůvka over a disjoint set |
//! | UMinho CPU | [`uminho_cpu`] | contraction Borůvka (supervertices, rebuilt edge list) |
//! | UMinho GPU | [`uminho_gpu`] | same, as simulated kernels |
//! | Jucele GPU | [`jucele_gpu`] | vertex-centric data-driven Borůvka, MST-only |
//! | Gunrock GPU | [`gunrock_gpu`] | vertex-centric topology-driven Borůvka, MST-only |
//! | RAPIDS cuGraph GPU | [`cugraph_gpu`] | color-propagation Borůvka, MSF-capable |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cugraph;
pub mod filter_kruskal;
pub mod gunrock;
pub mod jucele;
pub mod lonestar;
pub mod pbbs;
pub mod serial;
pub mod uminho;

pub use cugraph::cugraph_gpu;
pub use filter_kruskal::{filter_kruskal, qkruskal};
pub use gunrock::gunrock_gpu;
pub use jucele::jucele_gpu;
pub use lonestar::lonestar_cpu;
pub use pbbs::{pbbs_parallel, pbbs_serial};
pub use serial::serial_prim;
pub use uminho::{uminho_cpu, uminho_gpu};

/// Result of a simulated-GPU baseline: the MSF plus the simulated kernel
/// and transfer clocks.
#[derive(Debug)]
pub struct GpuBaselineRun {
    /// The computed MST/MSF.
    pub result: ecl_mst::MstResult,
    /// Simulated seconds in kernels.
    pub kernel_seconds: f64,
    /// Simulated seconds in host↔device transfers.
    pub memcpy_seconds: f64,
    /// Per-launch kernel log (used by the golden-counters regression test).
    pub records: Vec<ecl_gpu_sim::KernelRecord>,
}
