//! Rule registry.
//!
//! | rule | guards |
//! |------|--------|
//! | `host-access-in-launch`    | no unmetered host accessors inside kernel launch spans |
//! | `trace-range-in-launch`    | no trace ranges opened inside kernel launch spans |
//! | `trace-range-balance`      | raw `open_range`/`close_range` pairs balance per file |
//! | `builder-serial-hot-path`  | no serial loops/sorts on the sharded MSF kernels |
//! | `swar-chunk-shape`         | loops in blessed SWAR kernels iterate the chunk pipeline |
//! | `hash-iteration-order`     | no hash-map/set iteration order leaking into results |
//! | `thread-count-dependence`  | thread-budget reads confined to the blessed par helpers |
//! | `wall-clock-in-sim`        | no wall-clock reads inside simulated-time crates |
//! | `metering-completeness`    | every launch reaches a metered accessor or explicit charge |
//! | `unsafe-audit`             | unsafe code carries SAFETY comments + crate-level guards |
//! | `metric-name-registry`     | metric macros match registry declarations; no dead names |
//!
//! Two meta rules are emitted by the engine itself: `unused-waiver` (a
//! waiver that suppressed nothing) and `unknown-waiver` (a waiver naming a
//! rule that does not exist).

pub mod builder;
pub mod completeness;
pub mod determinism;
pub mod metering;
pub mod metrics;
pub mod swar;
pub mod unsafety;

use crate::Rule;

/// The full registry, in report order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(metering::HostAccessInLaunch),
        Box::new(metering::TraceRangeInLaunch),
        Box::new(metering::TraceRangeBalance),
        Box::new(builder::BuilderSerialHotPath),
        Box::new(swar::SwarChunkShape),
        Box::new(determinism::HashIterationOrder),
        Box::new(determinism::ThreadCountDependence),
        Box::new(determinism::WallClockInSim),
        Box::new(completeness::MeteringCompleteness),
        Box::new(unsafety::UnsafeAudit),
        Box::new(metrics::MetricNameRegistry),
    ]
}

/// The subset the legacy `cargo xtask lint-metering` entry point runs: the
/// three grep-era passes (now AST visitors) plus the trace-range checks.
pub fn metering_subset() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(metering::HostAccessInLaunch),
        Box::new(metering::TraceRangeInLaunch),
        Box::new(metering::TraceRangeBalance),
        Box::new(builder::BuilderSerialHotPath),
        Box::new(swar::SwarChunkShape),
    ]
}

/// Looks up a rule by name.
pub fn by_name(name: &str) -> Option<Box<dyn Rule>> {
    all().into_iter().find(|r| r.name() == name)
}
