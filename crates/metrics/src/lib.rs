//! `ecl-metrics` — the workspace telemetry registry.
//!
//! ROADMAP item 1 (`ecl-serve`) needs request-level telemetry: hit/miss
//! counters, latency histograms, and occupancy gauges with *stable* metric
//! names that dashboards and regression gates can key on across releases.
//! This crate is that foundation: a fixed registry of dotted names
//! ([`names`]), three recording primitives ([`counter!`], [`gauge!`],
//! [`histogram!`]), and two exporters — Prometheus text format for a future
//! scrape endpoint and a byte-stable `ecl-metrics/1` JSON snapshot that
//! rides inside `bench_snapshot` output next to `kernel_breakdown`.
//!
//! # The gate
//!
//! Like `ecl-trace` and the GPU sanitizer, recording is **off by default**
//! and instrumentation points pay exactly one predictable branch when no
//! session is installed: [`active`] is a single `Relaxed` load of a static
//! [`AtomicBool`]. Unlike the tracer — whose sessions are thread-local
//! because events are ordered — metric aggregation is commutative, so the
//! gate and the storage are process-wide: `par` workers record into the
//! same registry the installing thread snapshots. Sessions are either
//! *scoped* ([`with_metrics`], used by tests and `bench_snapshot
//! --metrics`) or *ambient* (`ECL_METRICS=1` in the environment plus an
//! [`init`] call at binary startup, drained by [`take_ambient`]).
//!
//! # Name stability
//!
//! Every metric is declared exactly once in [`names`] with a dotted name
//! (`ecl.graph.builds`, `ecl.dsu.cas_retry`, …). The recording macros take
//! the *declared identifier*, not a string — an undeclared name is a
//! compile error — and the `metric-name-registry` lint rule closes the
//! loop in the other direction: a declared name with no call site is a
//! lint error. Renaming a metric is therefore always a deliberate,
//! reviewable act. See DESIGN.md §17.
//!
//! # Determinism
//!
//! Each declared metric is marked [`Stability::Stable`] (same value on
//! every identical run: call counts, cache outcomes, chunk counts) or
//! [`Stability::Volatile`] (wall clocks, CAS retries under live threads).
//! The `ecl-metrics/1` JSON export serializes **stable metrics only**, so
//! a snapshot of a deterministic run is byte-identical across runs — the
//! same contract the `ecl-trace-profile/1` export keeps — and the 5%
//! [`Snapshot::diff`] gate can flag silent behavior drift. The Prometheus
//! export carries everything, volatile included.

#![forbid(unsafe_code)]

pub mod json;
pub mod names;
pub mod prom;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Maximum histogram slots: up to `HIST_SLOTS - 1` finite upper bounds
/// plus the overflow (+∞) slot. Declarations with more bounds fail to
/// compile (the constructor assertion runs at static-initialization time).
pub const HIST_SLOTS: usize = 16;

/// Sum quantum for histogram observations: sums accumulate as integer
/// micro-units so concurrent observation order cannot perturb a float
/// accumulation (integer addition is commutative; f64 addition is not).
const MICRO: f64 = 1e6;

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic event count (`u64` add).
    Counter,
    /// Point-in-time value (`f64` set, last write wins).
    Gauge,
    /// Fixed-bucket distribution of `f64` observations.
    Histogram,
}

impl Kind {
    /// Lower-case label used by both exporters.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Whether identical runs produce identical values for a metric.
///
/// Stable metrics form the byte-stable JSON export and the drift-gate
/// surface; volatile ones (wall clocks, live-thread race counts,
/// machine-dependent occupancy) export only via Prometheus text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    Stable,
    Volatile,
}

/// A clippy-appeasing `const` cell for array initialization.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// One declared metric: identity (name/kind/help/stability/buckets) plus
/// its process-wide storage. All instances live in [`names`] as statics;
/// recording is lock-free `Relaxed` atomics, so worker threads never
/// contend on anything but the cache line itself.
pub struct Metric {
    /// Stable dotted name (`ecl.<subsystem>.<quantity>`).
    pub name: &'static str,
    /// One-line human description (the Prometheus `# HELP` text).
    pub help: &'static str,
    pub kind: Kind,
    pub stability: Stability,
    /// Finite upper bounds for histograms (empty otherwise).
    pub buckets: &'static [f64],
    /// Counter total, or histogram observation count.
    count: AtomicU64,
    /// Gauge value as `f64` bits, or histogram sum in micro-units.
    value: AtomicU64,
    /// Per-bucket observation counts; slot `buckets.len()` is overflow.
    hist: [AtomicU64; HIST_SLOTS],
}

impl Metric {
    /// Declares a counter.
    pub const fn counter(name: &'static str, stability: Stability, help: &'static str) -> Self {
        Self {
            name,
            help,
            kind: Kind::Counter,
            stability,
            buckets: &[],
            count: AtomicU64::new(0),
            value: AtomicU64::new(0),
            hist: [ZERO; HIST_SLOTS],
        }
    }

    /// Declares a gauge.
    pub const fn gauge(name: &'static str, stability: Stability, help: &'static str) -> Self {
        Self {
            kind: Kind::Gauge,
            ..Self::counter(name, stability, help)
        }
    }

    /// Declares a fixed-bucket histogram. `buckets` are the finite upper
    /// bounds, ascending; observations above the last bound land in the
    /// overflow slot. More than `HIST_SLOTS - 1` bounds fail to compile.
    pub const fn histogram(
        name: &'static str,
        stability: Stability,
        buckets: &'static [f64],
        help: &'static str,
    ) -> Self {
        assert!(
            buckets.len() < HIST_SLOTS,
            "too many histogram buckets for HIST_SLOTS"
        );
        Self {
            kind: Kind::Histogram,
            buckets,
            ..Self::counter(name, stability, help)
        }
    }

    /// Adds to a counter. Callers go through [`counter!`], which applies
    /// the [`active`] gate first.
    #[inline]
    pub fn add(&self, n: u64) {
        debug_assert_eq!(
            self.kind,
            Kind::Counter,
            "{}: add on non-counter",
            self.name
        );
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets a gauge (last write wins).
    #[inline]
    pub fn set(&self, v: f64) {
        debug_assert_eq!(self.kind, Kind::Gauge, "{}: set on non-gauge", self.name);
        self.value.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        debug_assert_eq!(
            self.kind,
            Kind::Histogram,
            "{}: observe on non-histogram",
            self.name
        );
        self.count.fetch_add(1, Ordering::Relaxed);
        let micros = (v * MICRO).round().max(0.0) as u64;
        self.value.fetch_add(micros, Ordering::Relaxed);
        let slot = self
            .buckets
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.buckets.len());
        self.hist[slot].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.value.store(0, Ordering::Relaxed);
        for h in &self.hist {
            h.store(0, Ordering::Relaxed);
        }
    }

    fn read(&self) -> Entry {
        let count = self.count.load(Ordering::Relaxed);
        let raw = self.value.load(Ordering::Relaxed);
        let (gauge, sum) = match self.kind {
            Kind::Gauge => (f64::from_bits(raw), 0.0),
            _ => (0.0, raw as f64 / MICRO),
        };
        Entry {
            name: self.name,
            kind: self.kind,
            stability: self.stability,
            count,
            gauge,
            sum,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &b)| (b, self.hist[i].load(Ordering::Relaxed)))
                .collect(),
            overflow: self.hist[self.buckets.len()].load(Ordering::Relaxed),
        }
    }
}

/// One metric's value as captured by [`Snapshot::collect`].
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub name: &'static str,
    pub kind: Kind,
    pub stability: Stability,
    /// Counter total, or histogram observation count.
    pub count: u64,
    /// Gauge value (0.0 for other kinds).
    pub gauge: f64,
    /// Histogram sum in the observed unit, quantized to micro-units.
    pub sum: f64,
    /// Histogram `(upper_bound, count)` pairs, ascending.
    pub buckets: Vec<(f64, u64)>,
    /// Observations above the last finite bound.
    pub overflow: u64,
}

/// A point-in-time capture of every registered metric, in registry
/// (declaration) order. Obtained from [`with_metrics`] or
/// [`take_ambient`]; export with [`json`]/[`prom`] helpers.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub entries: Vec<Entry>,
}

impl Snapshot {
    /// Reads the current value of every registered metric.
    pub fn collect() -> Self {
        Self {
            entries: names::ALL.iter().map(|m| m.read()).collect(),
        }
    }

    /// Looks up an entry by dotted name.
    pub fn get(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Counter total (or histogram count) by dotted name; 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |e| e.count)
    }

    /// Gauge value by dotted name; 0.0 when absent.
    pub fn gauge(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |e| e.gauge)
    }

    /// Byte-stable `ecl-metrics/1` JSON (stable metrics only); see
    /// [`json::to_json`].
    pub fn to_json(&self) -> String {
        json::to_json(self)
    }

    /// Prometheus text exposition (all metrics); see [`prom::to_text`].
    pub fn to_prometheus(&self) -> String {
        prom::to_text(self)
    }

    /// Compares the stable surface against a parsed baseline; see
    /// [`json::diff`].
    pub fn diff(&self, baseline: &json::Baseline, threshold: f64) -> json::DiffReport {
        json::diff(self, baseline, threshold)
    }
}

// ---------------------------------------------------------------------------
// The gate and session lifecycle.

/// The process-wide recording gate. `Relaxed` is enough: metric values are
/// advisory aggregates, and session boundaries quiesce the workload before
/// snapshotting.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Serializes scoped sessions across threads (parallel test binaries).
pub(crate) static SESSION: Mutex<()> = Mutex::new(());

thread_local! {
    /// Detects nested [`with_metrics`] on one thread, which would
    /// deadlock on [`SESSION`]; we panic with a real message instead.
    static IN_SCOPED: Cell<bool> = const { Cell::new(false) };
}

/// True when a metrics session is recording *right now* — the hot-path
/// gate: one `Relaxed` atomic load, one predictable branch when off.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("ECL_METRICS")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// True when a session is active or `ECL_METRICS` asks for the ambient
/// one. Binaries gate their [`init`]/[`take_ambient`] bookkeeping on this;
/// per-record hot paths gate on [`active`].
#[inline]
pub fn enabled() -> bool {
    active() || env_enabled()
}

/// Starts the ambient session when `ECL_METRICS` is set (idempotent,
/// no-op otherwise). Instrumented binaries call this once at startup;
/// libraries never do — they just record if [`active`].
pub fn init() {
    if env_enabled() {
        ACTIVE.store(true, Ordering::SeqCst);
    }
}

/// Drains the ambient `ECL_METRICS` session: snapshots, resets the
/// registry, and deactivates. `None` when no ambient session is running.
pub fn take_ambient() -> Option<Snapshot> {
    if !env_enabled() || !active() {
        return None;
    }
    let snap = Snapshot::collect();
    reset_all();
    ACTIVE.store(false, Ordering::SeqCst);
    Some(snap)
}

fn reset_all() {
    for m in names::ALL {
        m.reset();
    }
}

/// Restores the pre-session gate even when `f` unwinds.
struct SessionGuard {
    was_active: bool,
}

impl Drop for SessionGuard {
    fn drop(&mut self) {
        ACTIVE.store(self.was_active, Ordering::SeqCst);
        IN_SCOPED.with(|c| c.set(false));
    }
}

/// Runs `f` under a fresh scoped metrics session and returns its result
/// together with the captured [`Snapshot`]. The registry is reset on
/// entry and on exit, so concurrent scoped sessions serialize (a second
/// caller blocks until the first finishes); recording threads spawned by
/// `f` (`par` workers) land in the same session. Nesting on one thread is
/// a programming error and panics rather than deadlocking.
pub fn with_metrics<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    assert!(
        !IN_SCOPED.with(|c| c.get()),
        "nested with_metrics on one thread is not supported"
    );
    let _lock = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    IN_SCOPED.with(|c| c.set(true));
    let guard = SessionGuard {
        was_active: ACTIVE.load(Ordering::SeqCst),
    };
    reset_all();
    ACTIVE.store(true, Ordering::SeqCst);
    let out = f();
    let snap = Snapshot::collect();
    reset_all();
    drop(guard);
    (out, snap)
}

// ---------------------------------------------------------------------------
// Recording macros.

/// Increments a declared counter: `counter!(GRAPH_BUILDS)` adds 1,
/// `counter!(DSU_FIND_HOP, hops)` adds `hops`. The name must be a
/// [`names`] identifier — undeclared names are compile errors — and the
/// whole call is one predictable branch when recording is off.
#[macro_export]
macro_rules! counter {
    ($name:ident) => {
        $crate::counter!($name, 1u64)
    };
    ($name:ident, $n:expr) => {
        if $crate::active() {
            $crate::names::$name.add($n as u64);
        }
    };
}

/// Sets a declared gauge to an `f64` value (last write wins):
/// `gauge!(DYNAMIC_TREE_CHURN, cells)`.
#[macro_export]
macro_rules! gauge {
    ($name:ident, $v:expr) => {
        if $crate::active() {
            $crate::names::$name.set($v as f64);
        }
    };
}

/// Records one observation into a declared fixed-bucket histogram:
/// `histogram!(RUNNER_PHASE_SECONDS, elapsed.as_secs_f64())`.
#[macro_export]
macro_rules! histogram {
    ($name:ident, $v:expr) => {
        if $crate::active() {
            $crate::names::$name.observe($v as f64);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default_records_nothing() {
        // Hold the session lock so no concurrently running test has a
        // scoped session active while we probe the off-state.
        let _lock = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!active());
        counter!(GRAPH_BUILDS, 5);
        let snap = Snapshot::collect();
        assert_eq!(snap.counter("ecl.graph.builds"), 0);
    }

    #[test]
    fn scoped_session_captures_and_resets() {
        let ((), snap) = with_metrics(|| {
            counter!(GRAPH_BUILDS);
            counter!(GRAPH_BUILDS, 2);
            gauge!(DYNAMIC_TREE_CHURN, 7);
            histogram!(GRAPH_BUILD_ARCS, 150.0);
        });
        assert_eq!(snap.counter("ecl.graph.builds"), 3);
        assert_eq!(snap.gauge("ecl.dynamic.tree_churn"), 7.0);
        let h = snap.get("ecl.graph.build_arcs").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.sum > 149.0 && h.sum < 151.0);
        // After the session, the registry is clean and the gate restored
        // (probe under the lock: other tests' sessions also reset on exit).
        let _lock = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!active());
        assert_eq!(Snapshot::collect().counter("ecl.graph.builds"), 0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let ((), snap) = with_metrics(|| {
            histogram!(GRAPH_BUILD_ARCS, 50.0);
            histogram!(GRAPH_BUILD_ARCS, 1e12);
        });
        let h = snap.get("ecl.graph.build_arcs").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.overflow, 1, "1e12 arcs must land in overflow");
        let in_buckets: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(in_buckets, 1);
    }

    #[test]
    fn worker_threads_record_into_the_session() {
        let ((), snap) = with_metrics(|| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    std::thread::spawn(|| {
                        for _ in 0..100 {
                            counter!(DSU_CAS_RETRY);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(snap.counter("ecl.dsu.cas_retry"), 400);
    }

    #[test]
    fn registry_names_are_wellformed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in names::ALL {
            assert!(
                m.name.starts_with("ecl.") && m.name.split('.').count() >= 3,
                "{}: names are ecl.<subsystem>.<quantity>",
                m.name
            );
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{}: lowercase dotted names only",
                m.name
            );
            assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
            assert!(!m.help.is_empty(), "{}: help required", m.name);
            if m.kind == Kind::Histogram {
                assert!(!m.buckets.is_empty(), "{}: histograms need buckets", m.name);
                assert!(
                    m.buckets.windows(2).all(|w| w[0] < w[1]),
                    "{}: bucket bounds must ascend",
                    m.name
                );
            } else {
                assert!(m.buckets.is_empty(), "{}: buckets on non-histogram", m.name);
            }
        }
    }
}
