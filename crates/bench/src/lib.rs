//! Experiment harness for the ECL-MST reproduction.
//!
//! One binary, `ecl-bench`, regenerates every table and figure of the paper
//! as subcommands (see DESIGN.md §4 for the index); `bench_snapshot` writes
//! the `BENCH_<N>.json` chain. This library holds the shared machinery:
//! the strict argument parser, the code registry, the measurements and
//! renderings of every experiment, repeated timing with median selection
//! ("We repeated each experiment 9 times ... and report the median
//! computation time"), geometric means over MSF/MST inputs, and plain-text
//! table/chart rendering.

pub mod chart;
pub mod cli;
pub mod dynamic;
pub mod experiments;
pub mod registry;
pub mod runner;
pub mod sharded;
pub mod snapshot;
pub mod table;
