//! ECL-MST: the paper's contribution — a parallelization that unifies
//! Kruskal's and Borůvka's algorithms (deterministic reservations over a
//! lock-free disjoint-set structure) plus the eight performance
//! optimizations evaluated in §5.3.
//!
//! Two backends execute the identical algorithm:
//!
//! * [`cpu`] — host threads + atomics; real measured wall-clock.
//! * [`gpu`] — kernels on the [`ecl_gpu_sim`] simulated device; simulated
//!   time from the metered cost model (the substitution for the paper's
//!   CUDA/NVIDIA hardware).
//!
//! ```
//! use ecl_graph::generators::grid2d;
//! let g = grid2d(16, 7);
//! let mst = ecl_mst::ecl_mst_cpu(&g);
//! assert_eq!(mst.num_edges, g.num_vertices() - 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cpu;
pub mod dynamic;
pub mod filter;
pub mod gpu;
pub mod result;
pub mod serial;
pub mod sharded;
pub mod upload;
pub mod verify;

pub use config::{deopt_ladder, OptConfig};
pub use cpu::{ecl_mst_cpu, ecl_mst_cpu_with, CpuRun};
pub use dynamic::{BatchStats, DynamicMsf, SlidingWindow, UpdateOp};
pub use gpu::{ecl_mst_gpu, ecl_mst_gpu_with, GpuRun};
pub use result::{pack, unpack, MstError, MstResult, EMPTY};
pub use serial::serial_kruskal;
pub use sharded::{sharded_msf, ShardedConfig, ShardedForest, ShardedRun};
pub use upload::{derived_const, evict_graph, DeviceCsr};
pub use verify::{ecl_mst_cpu_verified, ecl_mst_gpu_verified, verify_msf};
