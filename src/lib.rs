//! ECL-MST reproduction — facade crate.
//!
//! Re-exports the whole workspace behind one dependency so the examples,
//! integration tests and downstream users have a single import surface:
//!
//! * [`graph`] — CSR graphs, generators, I/O, statistics ([`ecl_graph`]).
//! * [`dsu`] — sequential and lock-free union-find ([`ecl_dsu`]).
//! * [`gpu_sim`] — the simulated SIMT device ([`ecl_gpu_sim`]).
//! * [`mst`] — ECL-MST itself, CPU and simulated-GPU backends ([`ecl_mst`]).
//! * [`baselines`] — the paper's comparator strategies ([`ecl_baselines`]).
//! * [`cc`] — ECL-CC-style connected components, the substrate the paper's
//!   reference \[14\] provides ([`ecl_cc`]).
//! * [`trace`] — the nsys-style tracing & profiling subsystem
//!   ([`ecl_trace`]).
//!
//! # Quickstart
//!
//! ```
//! use ecl_mst_repro::prelude::*;
//!
//! // Build a weighted graph (or use a generator / the 17-graph suite).
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 4);
//! b.add_edge(0, 2, 1);
//! b.add_edge(1, 3, 3);
//! b.add_edge(2, 3, 2);
//! b.add_edge(1, 2, 5);
//! let g = b.build();
//!
//! // CPU-parallel ECL-MST.
//! let mst = ecl_mst_cpu(&g);
//! assert_eq!(mst.total_weight, 1 + 2 + 3);
//!
//! // The same kernels on the simulated Titan V.
//! let run = ecl_mst_gpu_with(&g, &OptConfig::full(), GpuProfile::TITAN_V);
//! assert_eq!(run.result.total_weight, mst.total_weight);
//! assert!(run.kernel_seconds > 0.0);
//!
//! // Verified against serial Kruskal, exactly as the paper's artifact does.
//! verify_msf(&g, &mst).unwrap();
//! ```

pub use ecl_baselines as baselines;
pub use ecl_cc as cc;
pub use ecl_dsu as dsu;
pub use ecl_gpu_sim as gpu_sim;
pub use ecl_graph as graph;
pub use ecl_mst as mst;
pub use ecl_trace as trace;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use ecl_baselines::{
        cugraph_gpu, filter_kruskal, gunrock_gpu, jucele_gpu, lonestar_cpu, pbbs_parallel,
        pbbs_serial, serial_prim, uminho_cpu, uminho_gpu, GpuBaselineRun,
    };
    pub use ecl_cc::{connected_components_gpu, CcRun};
    pub use ecl_dsu::{AtomicDsu, Compression, FindPolicy, SeqDsu, UnionPolicy};
    pub use ecl_gpu_sim::{Device, GpuProfile};
    pub use ecl_graph::{
        generators, io, stats::GraphStats, suite, CsrGraph, EdgeShards, GraphBuilder,
        InMemoryShards, SuiteEntry, SuiteScale,
    };
    pub use ecl_mst::{
        deopt_ladder, ecl_mst_cpu, ecl_mst_cpu_with, ecl_mst_gpu, ecl_mst_gpu_with, serial_kruskal,
        sharded_msf, verify_msf, MstError, MstResult, OptConfig, ShardedConfig,
    };
}
