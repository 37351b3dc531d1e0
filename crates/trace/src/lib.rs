//! `ecl-trace`: an nsys-style tracing and profiling layer for the
//! simulator and CPU backends.
//!
//! The collector mirrors the sanitizer's design (`ecl_gpu_sim::sanitize`):
//!
//! * **Zero cost when off.** The hot-path gate is a const-initialized
//!   thread-local `Cell<bool>` ([`active`]); instrumentation points pay one
//!   predictable branch when no session is installed. Nothing on
//!   `TaskCtx` is widened and no metered counter changes, so golden
//!   counters are bit-identical with tracing on or off.
//! * **Scoped activation.** [`with_trace`] installs a fresh session on the
//!   current thread, runs a closure, and returns the finished
//!   [`TraceSession`]. Pre-existing sessions (including the ambient one)
//!   are suspended for the scope and restored afterwards, even on unwind.
//! * **Ambient activation.** Setting `ECL_TRACE=1` materializes a session
//!   lazily at the first instrumentation point; [`take_ambient`] collects
//!   it (the bench runner uses this to honor the env var without a
//!   `--trace` flag).
//!
//! Two clocks coexist in one session:
//!
//! * [`Clock::Sim`] — the *simulated* device timeline, in microseconds
//!   from session start. It advances only when the device reports a
//!   kernel launch, a bulk memcpy, or a loop-control sync read; host work
//!   between launches is invisible to it, exactly like a CUDA stream
//!   timeline in nsys.
//! * [`Clock::Wall`] — host monotonic time since session start, used by
//!   the CPU backend and host-side phases (filter planning, CSR upload).
//!
//! Ranges are NVTX-style: `let _r = ecl_trace::range!(sim: "kernel1");`
//! opens a span closed on drop. At close, each span is annotated with the
//! *delta* of session-wide counters accumulated inside it (launches,
//! atomics, CAS retries, find calls/hops) plus any explicit
//! [`attach`]ed metrics (e.g. worklist sizes) — this is what gives the
//! per-round snapshots without threading state through the algorithms.

#![forbid(unsafe_code)]
// Belt under the forbid above: if an audited `unsafe` block is ever
// admitted here, its unsafe operations must still be spelled out inside
// nested `unsafe {}` with their own SAFETY justification (the ecl-lint
// unsafe-audit rule checks both).
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::OnceLock;
use std::time::Instant;

pub mod chrome;
pub mod profile;

/// The workspace JSON codec, which lives in the leaf crate `ecl-metrics`.
pub use ecl_metrics::json;

pub use profile::{DiffReport, KernelProfile, Profile, RoundProfile};

/// Cap on recorded events per session; a runaway loop under ambient
/// tracing degrades to counting ([`TraceSession::dropped_events`]) instead
/// of ballooning memory.
pub const MAX_EVENTS: usize = 1 << 20;

/// Number of find-hop histogram buckets: bucket `i` counts find calls
/// that walked exactly `i` parent links, the last bucket everything at or
/// beyond `HOP_BUCKETS - 1`.
pub const HOP_BUCKETS: usize = 17;

/// Which timeline a range is stamped against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated device time (advanced by launches, memcpys, sync reads).
    Sim,
    /// Host monotonic time since session start.
    Wall,
}

/// Histogram of parent-chain lengths walked by `find()` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopHistogram {
    /// `buckets[i]` = calls with exactly `i` hops; last bucket is `>= 16`.
    pub buckets: [u64; HOP_BUCKETS],
    /// Sum of hops over all calls.
    pub total_hops: u64,
    /// Number of recorded find calls.
    pub calls: u64,
}

impl Default for HopHistogram {
    fn default() -> Self {
        Self {
            buckets: [0; HOP_BUCKETS],
            total_hops: 0,
            calls: 0,
        }
    }
}

impl HopHistogram {
    /// Records one find call that walked `hops` parent links.
    #[inline]
    pub fn record(&mut self, hops: u32) {
        let b = (hops as usize).min(HOP_BUCKETS - 1);
        self.buckets[b] += 1;
        self.total_hops += hops as u64;
        self.calls += 1;
    }

    /// Mean hops per call (0 when no calls were recorded).
    pub fn mean(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.calls as f64
        }
    }

    /// Index of the highest non-empty bucket (0 when empty).
    pub fn max_bucket(&self) -> usize {
        self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &HopHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.total_hops += other.total_hops;
        self.calls += other.calls;
    }
}

/// Per-launch metrics the device reports to the tracer, derived from the
/// already-metered `LaunchStats` plus the launch's simulated duration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaunchMetrics {
    /// Tasks (threads or warps) executed.
    pub tasks: u64,
    /// Bytes moved by coalesced accesses.
    pub coalesced_bytes: u64,
    /// Random (gather/scatter) accesses.
    pub gather_accesses: u64,
    /// Atomic operations issued.
    pub atomics: u64,
    /// Failed CAS attempts.
    pub cas_retries: u64,
    /// Access instructions issued.
    pub accesses: u64,
    /// Simulated duration of the launch in seconds.
    pub sim_seconds: f64,
    /// Max-task over mean-task byte-equivalent traffic — the warp/task
    /// imbalance ratio (1.0 = perfectly balanced; large = one task
    /// dominates the critical path). 1.0 for empty launches.
    pub imbalance: f64,
}

/// One recorded trace event, in session order.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Range open.
    Begin {
        /// Range name.
        name: Cow<'static, str>,
        /// Timeline the range is stamped on.
        clock: Clock,
        /// Open timestamp in microseconds on that timeline.
        ts_us: f64,
    },
    /// Range close (matches the innermost unclosed [`Event::Begin`]).
    End {
        /// Timeline of the matching open.
        clock: Clock,
        /// Close timestamp in microseconds on that timeline.
        ts_us: f64,
        /// Metrics snapshotted at close: counter deltas over the span
        /// plus explicitly [`attach`]ed values.
        metrics: Vec<(Cow<'static, str>, f64)>,
    },
    /// A kernel launch (complete event on the simulated timeline).
    Launch {
        /// Kernel name.
        name: String,
        /// Launch start in simulated microseconds.
        ts_us: f64,
        /// Simulated duration in microseconds.
        dur_us: f64,
        /// The launch's metered counters.
        metrics: LaunchMetrics,
    },
    /// A bulk host↔device copy or loop-control sync read (complete event
    /// on the simulated timeline).
    Memcpy {
        /// `"memcpy_h2d"`, `"memcpy_d2h"`, or `"sync_read"`.
        name: &'static str,
        /// Start in simulated microseconds.
        ts_us: f64,
        /// Simulated duration in microseconds.
        dur_us: f64,
        /// Bytes moved (4 for sync reads).
        bytes: u64,
    },
}

impl Event {
    /// The timeline this event belongs to.
    pub fn clock(&self) -> Clock {
        match self {
            Event::Begin { clock, .. } | Event::End { clock, .. } => *clock,
            Event::Launch { .. } | Event::Memcpy { .. } => Clock::Sim,
        }
    }
}

/// Aggregate of one wall-clock span name over a session (see
/// [`TraceSession::wall_breakdown`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WallKernel {
    /// Span name as opened by `range!(wall: ...)`.
    pub name: String,
    /// Number of times a span with this name closed.
    pub calls: u64,
    /// Inclusive wall seconds (nested spans counted).
    pub total_seconds: f64,
    /// Exclusive wall seconds (time not inside any nested wall span).
    pub self_seconds: f64,
}

/// Session-wide running totals used for per-span delta metrics.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    launches: u64,
    atomics: u64,
    cas_retries: u64,
    find_calls: u64,
    find_hops: u64,
}

/// An open range on the span stack. The name lives only in the
/// [`Event::Begin`] record; the close event is positional.
#[derive(Debug)]
struct Span {
    clock: Clock,
    base: Totals,
    attached: Vec<(Cow<'static, str>, f64)>,
}

#[derive(Debug)]
struct TraceState {
    start: Instant,
    sim_us: f64,
    events: Vec<Event>,
    open: Vec<Span>,
    totals: Totals,
    hops: HopHistogram,
    dropped: u64,
}

impl TraceState {
    fn new() -> Self {
        Self {
            start: Instant::now(),
            sim_us: 0.0,
            events: Vec::new(),
            open: Vec::new(),
            totals: Totals::default(),
            hops: HopHistogram::default(),
            dropped: 0,
        }
    }

    fn wall_us(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }

    fn ts(&self, clock: Clock) -> f64 {
        match clock {
            Clock::Sim => self.sim_us,
            Clock::Wall => self.wall_us(),
        }
    }

    fn push(&mut self, ev: Event) {
        if self.events.len() < MAX_EVENTS {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    fn close_top(&mut self) {
        let Some(span) = self.open.pop() else { return };
        let ts = self.ts(span.clock);
        let mut metrics = Vec::new();
        let d = &self.totals;
        let b = &span.base;
        for (name, v) in [
            ("launches", d.launches - b.launches),
            ("atomics", d.atomics - b.atomics),
            ("cas_retries", d.cas_retries - b.cas_retries),
            ("find_calls", d.find_calls - b.find_calls),
            ("find_hops", d.find_hops - b.find_hops),
        ] {
            if v > 0 {
                metrics.push((Cow::Borrowed(name), v as f64));
            }
        }
        metrics.extend(span.attached);
        self.push(Event::End {
            clock: span.clock,
            ts_us: ts,
            metrics,
        });
    }

    fn finish(mut self) -> TraceSession {
        while !self.open.is_empty() {
            self.close_top();
        }
        // Bridge the session totals into ecl-metrics: a metrics session that
        // wraps one or more trace sessions sees the same aggregates the
        // trace profile exports, under stable `ecl.trace.*` names.
        if ecl_metrics::active() {
            ecl_metrics::counter!(TRACE_LAUNCHES, self.totals.launches);
            ecl_metrics::counter!(TRACE_ATOMICS, self.totals.atomics);
            ecl_metrics::counter!(TRACE_CAS_RETRIES, self.totals.cas_retries);
            ecl_metrics::counter!(TRACE_FIND_CALLS, self.totals.find_calls);
            ecl_metrics::counter!(TRACE_FIND_HOPS, self.totals.find_hops);
            ecl_metrics::counter!(TRACE_SIM_US, self.sim_us.round().max(0.0) as u64);
        }
        TraceSession {
            events: self.events,
            hops: self.hops,
            dropped_events: self.dropped,
            sim_us: self.sim_us,
        }
    }
}

/// The finished result of a tracing session: the event log plus
/// session-wide aggregates. Obtained from [`with_trace`] or
/// [`take_ambient`].
#[must_use = "a TraceSession holds the collected trace; export or inspect it"]
#[derive(Debug, Clone)]
pub struct TraceSession {
    events: Vec<Event>,
    hops: HopHistogram,
    /// Events beyond [`MAX_EVENTS`], counted but not kept.
    pub dropped_events: u64,
    sim_us: f64,
}

impl TraceSession {
    /// The recorded events, in session order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Session-wide find-hop histogram.
    pub fn hop_histogram(&self) -> &HopHistogram {
        &self.hops
    }

    /// Aggregates the **wall-clock** spans by name: inclusive and exclusive
    /// (self) seconds per span name, in first-seen order. This is the
    /// host-side per-kernel cost table the bench snapshot embeds; it is
    /// deliberately *not* part of [`Profile`]'s serialized JSON, which must
    /// stay byte-stable on deterministic sim-only runs.
    ///
    /// Simulated spans are walked for nesting (an `End` is positional and
    /// may close either clock) but contribute no wall time; a wall span
    /// nested through a sim span still credits its nearest wall ancestor.
    pub fn wall_breakdown(&self) -> Vec<WallKernel> {
        struct Frame {
            name: Cow<'static, str>,
            wall: bool,
            begin_us: f64,
            child_us: f64,
        }
        let mut out: Vec<WallKernel> = Vec::new();
        let mut stack: Vec<Frame> = Vec::new();
        for ev in &self.events {
            match ev {
                Event::Begin { name, clock, ts_us } => stack.push(Frame {
                    name: name.clone(),
                    wall: *clock == Clock::Wall,
                    begin_us: *ts_us,
                    child_us: 0.0,
                }),
                Event::End { ts_us, .. } => {
                    // Positional close; a missing Begin (dropped past
                    // MAX_EVENTS) leaves the stack untouched.
                    let Some(f) = stack.pop() else { continue };
                    if f.wall {
                        let total_us = ts_us - f.begin_us;
                        let k = match out.iter_mut().find(|k| k.name == f.name) {
                            Some(k) => k,
                            None => {
                                out.push(WallKernel {
                                    name: f.name.to_string(),
                                    calls: 0,
                                    total_seconds: 0.0,
                                    self_seconds: 0.0,
                                });
                                out.last_mut().expect("just pushed")
                            }
                        };
                        k.calls += 1;
                        k.total_seconds += total_us / 1e6;
                        k.self_seconds += (total_us - f.child_us) / 1e6;
                        if let Some(parent) = stack.last_mut() {
                            parent.child_us += total_us;
                        }
                    } else if let Some(parent) = stack.last_mut() {
                        // Sim spans take no wall time themselves; pass any
                        // nested wall time through to the enclosing span.
                        parent.child_us += f.child_us;
                    }
                }
                Event::Launch { .. } | Event::Memcpy { .. } => {}
            }
        }
        out
    }

    /// Final simulated timestamp (microseconds): total device time the
    /// session observed.
    pub fn sim_us(&self) -> f64 {
        self.sim_us
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Exports the session as Chrome trace-event JSON (loadable in
    /// Perfetto / `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        chrome::export(self)
    }

    /// Builds the deterministic machine-readable profile (per-kernel and
    /// per-round aggregates over the simulated timeline).
    pub fn profile(&self) -> Profile {
        Profile::from_session(self)
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<Option<TraceState>> = const { RefCell::new(None) };
}

/// True when a trace session is active on this thread *right now* — the
/// hot-path gate: a const-initialized thread-local read, one predictable
/// branch when off.
#[inline]
pub fn active() -> bool {
    ACTIVE.get()
}

fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("ECL_TRACE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// True when a session is (or, via `ECL_TRACE`, would be) active on this
/// thread. Instrumentation points that may *create* the ambient session
/// gate on this; per-access hot paths gate on [`active`].
#[inline]
pub fn enabled() -> bool {
    ACTIVE.get() || env_enabled()
}

/// Runs `f` against the session state, materializing the ambient
/// `ECL_TRACE` session first if needed. `None` when tracing is off.
fn with_state<R>(f: impl FnOnce(&mut TraceState) -> R) -> Option<R> {
    if !ACTIVE.get() {
        if !env_enabled() {
            return None;
        }
        STATE.with(|s| *s.borrow_mut() = Some(TraceState::new()));
        ACTIVE.set(true);
    }
    STATE.with(|s| s.borrow_mut().as_mut().map(f))
}

/// Restores the previous session (if any) when a scoped session exits,
/// including on unwind.
struct ScopeGuard {
    prev: Option<TraceState>,
    taken: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.taken {
            let prev = self.prev.take();
            ACTIVE.set(prev.is_some());
            STATE.with(|s| *s.borrow_mut() = prev);
        }
    }
}

/// Runs `f` under a fresh trace session on this thread and returns its
/// result together with the finished [`TraceSession`]. A pre-existing
/// session (including the ambient `ECL_TRACE` one) is suspended for the
/// scope and restored afterwards.
pub fn with_trace<R>(f: impl FnOnce() -> R) -> (R, TraceSession) {
    let prev = STATE.with(|s| s.borrow_mut().take());
    STATE.with(|s| *s.borrow_mut() = Some(TraceState::new()));
    ACTIVE.set(true);
    let mut guard = ScopeGuard { prev, taken: false };
    let out = f();
    let finished = STATE
        .with(|s| s.borrow_mut().take())
        .expect("trace session vanished mid-scope");
    guard.taken = true;
    let prev = guard.prev.take();
    ACTIVE.set(prev.is_some());
    STATE.with(|s| *s.borrow_mut() = prev);
    (out, finished.finish())
}

/// Takes the ambient session (materialized by `ECL_TRACE=1`) off this
/// thread, finishing it. `None` when no session is active.
pub fn take_ambient() -> Option<TraceSession> {
    if !ACTIVE.get() {
        return None;
    }
    let state = STATE.with(|s| s.borrow_mut().take())?;
    ACTIVE.set(false);
    Some(state.finish())
}

// ---------------------------------------------------------------------------
// Instrumentation hooks.

/// Opens a named range on `clock`. Prefer the RAII [`range!`] macro; this
/// explicit form exists for non-lexical spans and must be balanced by
/// [`close_range`] (the `xtask lint-metering` check enforces per-file
/// balance in kernel code).
pub fn open_range(name: impl Into<Cow<'static, str>>, clock: Clock) {
    let name = name.into();
    with_state(|s| {
        let ts = s.ts(clock);
        s.push(Event::Begin {
            name,
            clock,
            ts_us: ts,
        });
        s.open.push(Span {
            clock,
            base: s.totals,
            attached: Vec::new(),
        });
    });
}

/// Closes the innermost open range, snapshotting its metric deltas.
/// No-op when tracing is off or no range is open.
pub fn close_range() {
    if !active() {
        return;
    }
    with_state(|s| s.close_top());
}

/// Attaches a named metric to the innermost open range (reported in its
/// close snapshot). No-op when tracing is off.
#[inline]
pub fn attach(name: &'static str, value: f64) {
    if !active() {
        return;
    }
    with_state(|s| {
        if let Some(span) = s.open.last_mut() {
            span.attached.push((Cow::Borrowed(name), value));
        }
    });
}

/// Records a batch of `find()` calls counted elsewhere (a CPU kernel's
/// per-chunk tallies or a simulated launch's, folded on the thread that
/// owns the session). The backends tally locally so a traced find costs
/// a histogram update, not a session lookup. No-op when tracing is off.
pub fn record_find_histogram(hops: &HopHistogram) {
    if !active() || hops.calls == 0 {
        return;
    }
    with_state(|s| {
        s.hops.merge(hops);
        s.totals.find_calls += hops.calls;
        s.totals.find_hops += hops.total_hops;
    });
}

/// Device hook: records a kernel launch and advances the simulated clock
/// by its duration. Called by `Device::launch`/`launch_warps`.
pub fn on_launch(name: &str, m: LaunchMetrics) {
    with_state(|s| {
        let ts = s.sim_us;
        let dur = m.sim_seconds * 1e6;
        s.push(Event::Launch {
            name: name.to_string(),
            ts_us: ts,
            dur_us: dur,
            metrics: m,
        });
        s.sim_us += dur;
        s.totals.launches += 1;
        s.totals.atomics += m.atomics;
        s.totals.cas_retries += m.cas_retries;
    });
}

/// Device hook: records a bulk copy or sync read and advances the
/// simulated clock. `name` is `"memcpy_h2d"`, `"memcpy_d2h"`, or
/// `"sync_read"`.
pub fn on_memcpy(name: &'static str, bytes: u64, seconds: f64) {
    with_state(|s| {
        let ts = s.sim_us;
        let dur = seconds * 1e6;
        s.push(Event::Memcpy {
            name,
            ts_us: ts,
            dur_us: dur,
            bytes,
        });
        s.sim_us += dur;
    });
}

/// A guard that closes its range on drop. Construct via [`range!`].
#[must_use = "binding the guard keeps the range open for the scope; an unbound guard closes immediately"]
#[derive(Debug)]
pub struct RangeGuard {
    armed: bool,
}

impl RangeGuard {
    /// Opens a range when tracing is enabled; returns a disarmed guard
    /// otherwise (so a session starting mid-scope sees no spurious close).
    pub fn open(name: impl Into<Cow<'static, str>>, clock: Clock) -> Self {
        if !enabled() {
            return Self { armed: false };
        }
        open_range(name, clock);
        Self { armed: true }
    }
}

impl Drop for RangeGuard {
    fn drop(&mut self) {
        if self.armed {
            close_range();
        }
    }
}

/// Opens an NVTX-style RAII range: `let _r = range!(sim: "kernel1");`
/// (simulated clock), `range!(wall: "populate")` or bare `range!("x")`
/// (host wall clock). The guard must be bound to a name — an unbound
/// temporary closes the range immediately.
#[macro_export]
macro_rules! range {
    (sim: $name:expr) => {
        $crate::RangeGuard::open($name, $crate::Clock::Sim)
    };
    (wall: $name:expr) => {
        $crate::RangeGuard::open($name, $crate::Clock::Wall)
    };
    ($name:expr) => {
        $crate::RangeGuard::open($name, $crate::Clock::Wall)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_are_noops() {
        assert!(!active());
        let mut h = HopHistogram::default();
        h.record(5);
        record_find_histogram(&h);
        attach("x", 1.0);
        close_range();
        let _g = RangeGuard::open("dead", Clock::Wall);
        assert!(!active());
    }

    #[test]
    fn with_trace_collects_ranges_and_launches() {
        let ((), session) = with_trace(|| {
            let _run = range!(sim: "run");
            on_launch(
                "k1",
                LaunchMetrics {
                    tasks: 4,
                    atomics: 2,
                    sim_seconds: 1e-6,
                    imbalance: 1.0,
                    ..Default::default()
                },
            );
            attach("worklist", 42.0);
        });
        assert!(!active());
        let evs = session.events();
        assert_eq!(evs.len(), 3);
        assert!(
            matches!(&evs[0], Event::Begin { name, clock: Clock::Sim, ts_us } if name == "run" && *ts_us == 0.0)
        );
        assert!(
            matches!(&evs[1], Event::Launch { name, ts_us, .. } if name == "k1" && *ts_us == 0.0)
        );
        let Event::End { ts_us, metrics, .. } = &evs[2] else {
            panic!("expected End, got {:?}", evs[2]);
        };
        assert_eq!(*ts_us, 1.0); // 1 µs of simulated time
        assert!(metrics.contains(&(Cow::Borrowed("launches"), 1.0)));
        assert!(metrics.contains(&(Cow::Borrowed("atomics"), 2.0)));
        assert!(metrics.contains(&(Cow::Borrowed("worklist"), 42.0)));
        assert_eq!(session.sim_us(), 1.0);
    }

    #[test]
    fn span_deltas_are_scoped_to_the_span() {
        let ((), session) = with_trace(|| {
            on_launch(
                "outside",
                LaunchMetrics {
                    atomics: 100,
                    sim_seconds: 0.0,
                    ..Default::default()
                },
            );
            let _r = range!(sim: "round");
            on_launch(
                "inside",
                LaunchMetrics {
                    atomics: 3,
                    sim_seconds: 0.0,
                    ..Default::default()
                },
            );
        });
        let Event::End { metrics, .. } = session.events().last().unwrap() else {
            panic!("expected trailing End");
        };
        assert!(metrics.contains(&(Cow::Borrowed("atomics"), 3.0)));
        assert!(metrics.contains(&(Cow::Borrowed("launches"), 1.0)));
    }

    #[test]
    fn nested_sessions_suspend_and_restore() {
        let ((), outer) = with_trace(|| {
            on_launch("a", LaunchMetrics::default());
            let ((), inner) = with_trace(|| {
                on_launch("b", LaunchMetrics::default());
            });
            assert_eq!(inner.events().len(), 1);
            assert!(active(), "outer session restored");
            on_launch("c", LaunchMetrics::default());
        });
        let names: Vec<_> = outer
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Launch { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["a", "c"]);
    }

    #[test]
    fn hop_histogram_records_and_saturates() {
        let mut h = HopHistogram::default();
        h.record(0);
        h.record(3);
        h.record(100);
        assert_eq!(h.calls, 3);
        assert_eq!(h.total_hops, 103);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[HOP_BUCKETS - 1], 1);
        assert_eq!(h.max_bucket(), HOP_BUCKETS - 1);
        assert!((h.mean() - 103.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn wall_breakdown_aggregates_self_and_total() {
        let ((), session) = with_trace(|| {
            let _outer = range!(wall: "solve");
            for _ in 0..2 {
                let _inner = range!(wall: "kernel1");
                std::hint::black_box(0u64);
            }
            // A sim span nested in the wall span must not break the
            // wall-ancestor crediting.
            let _sim = range!(sim: "round");
            let _deep = range!(wall: "kernel2");
        });
        let bd = session.wall_breakdown();
        let names: Vec<_> = bd.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, ["kernel1", "kernel2", "solve"]);
        let solve = bd.iter().find(|k| k.name == "solve").unwrap();
        let k1 = bd.iter().find(|k| k.name == "kernel1").unwrap();
        let k2 = bd.iter().find(|k| k.name == "kernel2").unwrap();
        assert_eq!(k1.calls, 2);
        assert_eq!(solve.calls, 1);
        assert!(solve.total_seconds >= k1.total_seconds + k2.total_seconds);
        // Self time excludes every nested wall span, including kernel2
        // reached through the sim span.
        let expect_self = solve.total_seconds - k1.total_seconds - k2.total_seconds;
        assert!((solve.self_seconds - expect_self).abs() < 1e-9);
        assert!(bd.iter().all(|k| k.self_seconds >= 0.0));
    }

    #[test]
    fn dangling_open_ranges_are_closed_at_finish() {
        let ((), session) = with_trace(|| {
            open_range("left-open", Clock::Sim);
        });
        assert_eq!(session.events().len(), 2);
        assert!(matches!(session.events()[1], Event::End { .. }));
    }

    #[test]
    fn unbound_range_guard_closes_immediately() {
        let ((), session) = with_trace(|| {
            {
                let _r = range!(sim: "scoped");
            }
            on_launch("after", LaunchMetrics::default());
        });
        assert!(
            matches!(&session.events()[1], Event::End { .. }),
            "range closed before the launch"
        );
    }
}
