//! `gpu-sanitize`: a compute-sanitizer-style shadow-state layer.
//!
//! Modeled on NVIDIA `compute-sanitizer`'s four tools, applied to the
//! simulator's device buffers and launch drivers:
//!
//! * **racecheck** — per-launch shadow memory records `(task, access kind,
//!   value)` per word. A non-atomic write overlapping any other task's
//!   read or write of the same word within one launch is a conflict.
//!   Atomic RMWs are exempt. Two benign classes are downgraded to counted
//!   warnings instead of violations: *value-idempotent* writes (every
//!   racing writer stored the same value — the paper's "benign race", e.g.
//!   `changed = 1` flags) and *racy updates* (values differ, but every
//!   writer non-atomically read the word earlier in its own task — the
//!   DSU path-halving/compression pattern, whose safety argument is
//!   monotone convergence rather than value agreement).
//! * **initcheck** — buffers acquired uninitialized from the
//!   [`crate::arena::DeviceArena`] track a per-word written bitmap; a
//!   device read before the first write is a violation. Host-side writes
//!   (`fill`, `host_write*`) mark words initialized; host-side reads are
//!   deliberately unchecked (copying back a partially-written device
//!   region is normal, reading it on the *device* is not).
//! * **memcheck** — logical-bounds checks on every accessor (the arena
//!   recycles physically larger buffers, so an out-of-bounds index can
//!   silently "work" without this) and buffer-lifetime tracking (access
//!   to a buffer released back to the arena).
//! * **synccheck** — warp primitives flag use under divergence: a
//!   `ballot` over an empty active mask or a `shfl` sourcing a
//!   non-participating lane.
//!
//! The sanitizer is opt-in and scoped: [`with_sanitizer`] installs a
//! thread-local session, runs a closure, and returns the accumulated
//! [`SanitizerReport`]. Setting the `ECL_SANITIZE` environment variable
//! instead installs an ambient *trap-mode* session on first use, which
//! panics at the end of any launch that produced a violation — this is
//! what the CI sanitize job runs the whole test suite under.
//!
//! When no session is active the cost is one predictable branch per
//! buffer access (a const-initialized thread-local flag, [`active`]) —
//! shadow state is consulted only on the sanitized path. The flag lives
//! here rather than on [`crate::TaskCtx`] because widening that struct
//! measurably slows the kernel hot path. Shadow recording happens
//! strictly *after* event charging, so metered counters are bit-identical
//! with the sanitizer on or off (pinned by the golden counters test).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

/// Cap on individually recorded violations; the rest are only counted
/// (see [`SanitizerReport::suppressed_violations`]) so a broken kernel in
/// a tight loop cannot balloon the report.
pub const MAX_RECORDED_VIOLATIONS: usize = 200;

/// The sanitizer sub-tool that raised a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// Cross-task data-race detection.
    Racecheck,
    /// Read-before-write detection on uninitialized allocations.
    Initcheck,
    /// Bounds and buffer-lifetime checking.
    Memcheck,
    /// Warp-primitive divergence checking.
    Synccheck,
}

/// Classification of a single violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two tasks non-atomically wrote differing values to one word, and at
    /// least one wrote blind (without having read the word first).
    WriteWriteRace,
    /// One task non-atomically wrote a word another task read, the write
    /// was blind, and the value differs from what a reader could tolerate
    /// under the idempotent/racy-update rules.
    ReadWriteRace,
    /// Device read of a word never written since its uninitialized acquire.
    UninitRead,
    /// Access at an index at or beyond the buffer's logical length.
    OutOfBounds,
    /// Access to a buffer after it was released back to the arena.
    UseAfterRelease,
    /// Warp primitive used under divergence (empty ballot mask, shfl from
    /// a non-participating lane).
    DivergentWarpOp,
}

impl ViolationKind {
    /// The sub-tool this kind belongs to.
    pub fn tool(self) -> Tool {
        match self {
            ViolationKind::WriteWriteRace | ViolationKind::ReadWriteRace => Tool::Racecheck,
            ViolationKind::UninitRead => Tool::Initcheck,
            ViolationKind::OutOfBounds | ViolationKind::UseAfterRelease => Tool::Memcheck,
            ViolationKind::DivergentWarpOp => Tool::Synccheck,
        }
    }
}

/// One sanitizer violation, attributed to a kernel, launch, task, buffer,
/// and word.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Violation class.
    pub kind: ViolationKind,
    /// Kernel name as passed to `Device::launch`.
    pub kernel: String,
    /// Zero-based launch ordinal within the session.
    pub launch_index: u64,
    /// Task (thread or warp) id within the launch.
    pub task: u64,
    /// Buffer label (set via [`label`]) or `{kind}#{uid}` when unlabeled.
    pub buffer: String,
    /// Word index within the buffer (lane index for warp violations).
    pub word: usize,
    /// Human-readable specifics (values involved, lengths, …).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} [{:?}] kernel `{}` (launch #{}) task {} buffer `{}` word {}: {}",
            self.kind.tool(),
            self.kind,
            self.kernel,
            self.launch_index,
            self.task,
            self.buffer,
            self.word,
            self.detail
        )
    }
}

/// Accumulated result of a sanitizer session.
#[must_use]
#[derive(Debug, Default, Clone)]
pub struct SanitizerReport {
    violations: Vec<Violation>,
    /// Violations beyond [`MAX_RECORDED_VIOLATIONS`], counted but not kept.
    pub suppressed_violations: u64,
    /// Racing non-atomic writes downgraded because every writer stored the
    /// same value (the paper's "benign race").
    pub benign_idempotent_races: u64,
    /// Racing non-atomic writes downgraded because every writer had read
    /// the word earlier in its own task (DSU path compression/halving).
    pub benign_racy_updates: u64,
    /// Kernel launches executed under the session.
    pub checked_launches: u64,
    /// Device-buffer accesses checked.
    pub checked_accesses: u64,
}

impl SanitizerReport {
    /// The recorded violations, in deterministic (buffer, word) order per
    /// launch.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no violation (recorded or suppressed) occurred. Benign
    /// downgraded races do not count against cleanliness.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed_violations == 0
    }

    /// Number of violations of a given kind (among the recorded ones).
    pub fn count_of(&self, kind: ViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }

    fn push(&mut self, v: Violation) {
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.suppressed_violations += 1;
        }
    }
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gpu-sanitize: {} violation(s) ({} suppressed), {} idempotent + {} racy-update benign race(s), \
             {} launch(es), {} access(es) checked",
            self.violations.len(),
            self.suppressed_violations,
            self.benign_idempotent_races,
            self.benign_racy_updates,
            self.checked_launches,
            self.checked_accesses
        )
    }
}

/// Shadow identity of a device buffer, passed by accessors on the
/// sanitized path.
#[derive(Debug, Clone, Copy)]
pub struct BufRef {
    /// Process-unique buffer id.
    pub uid: u64,
    /// Buffer flavor for unlabeled reporting (`"u32"`, `"u64"`, `"const"`).
    pub kind: &'static str,
    /// Logical length in words (the memcheck bound).
    pub len: usize,
}

/// Implemented by the device buffer types so the sanitizer can identify
/// them (for [`label`] and the arena lifetime hooks).
pub trait ShadowBuf {
    /// The buffer's shadow identity.
    fn shadow_ref(&self) -> BufRef;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Collect violations into the report (the `with_sanitizer` mode).
    Collect,
    /// Panic at the end of any launch that produced a violation (the
    /// ambient `ECL_SANITIZE` mode).
    Trap,
}

/// Shadow state of one word within the current launch.
#[derive(Default)]
struct WordState {
    /// Tasks that performed a non-atomic read.
    readers: HashSet<u64>,
    /// Tasks that performed a non-atomic write.
    writers: HashSet<u64>,
    /// First non-atomic write observed: `(task, value)`.
    first_write: Option<(u64, u64)>,
    /// A write whose value differs from `first_write`, if any.
    diverged: Option<(u64, u64)>,
    /// A *blind* write — by a task that had not read the word — if any.
    blind: Option<(u64, u64)>,
}

struct LaunchShadow {
    kernel: String,
    index: u64,
    /// `(buffer uid, word) → state`; BTreeMap keeps violation order
    /// deterministic.
    words: BTreeMap<(u64, u64), WordState>,
    violations_at_entry: usize,
    suppressed_at_entry: u64,
}

/// Per-word init bitmap of a tracked uninitialized acquire.
struct InitShadow {
    bits: Vec<u64>,
    len: usize,
}

impl InitShadow {
    fn new(len: usize) -> Self {
        Self {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }
    fn is_written(&self, i: usize) -> bool {
        i >= self.len || self.bits[i / 64] >> (i % 64) & 1 == 1
    }
    fn mark(&mut self, i: usize) {
        if i < self.len {
            self.bits[i / 64] |= 1 << (i % 64);
        }
    }
    fn mark_range(&mut self, start: usize, end: usize) {
        for i in start..end.min(self.len) {
            self.bits[i / 64] |= 1 << (i % 64);
        }
    }
}

struct ShadowState {
    mode: Mode,
    launch: Option<LaunchShadow>,
    launch_counter: u64,
    /// Init bitmaps of buffers acquired uninitialized during the session.
    init: HashMap<u64, InitShadow>,
    /// Buffers currently released back to the arena.
    dead: HashSet<u64>,
    /// User-facing buffer labels.
    names: HashMap<u64, &'static str>,
    /// Buffer flavor (`"u32"`/`"u64"`/`"const"`) per uid, for unlabeled
    /// reporting.
    kinds: HashMap<u64, &'static str>,
    report: SanitizerReport,
}

impl ShadowState {
    fn new(mode: Mode) -> Self {
        Self {
            mode,
            launch: None,
            launch_counter: 0,
            init: HashMap::new(),
            dead: HashSet::new(),
            names: HashMap::new(),
            kinds: HashMap::new(),
            report: SanitizerReport::default(),
        }
    }

    fn buffer_name(&self, buf: BufRef) -> String {
        match self.names.get(&buf.uid) {
            Some(n) => (*n).to_string(),
            None => format!("{}#{}", buf.kind, buf.uid),
        }
    }

    fn violation(
        &mut self,
        kind: ViolationKind,
        task: u64,
        buf: BufRef,
        word: usize,
        detail: String,
    ) {
        let (kernel, index) = match &self.launch {
            Some(l) => (l.kernel.clone(), l.index),
            None => ("<host>".to_string(), self.launch_counter),
        };
        let buffer = self.buffer_name(buf);
        self.report.push(Violation {
            kind,
            kernel,
            launch_index: index,
            task,
            buffer,
            word,
            detail,
        });
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CURRENT_TASK: Cell<u64> = const { Cell::new(0) };
    static STATE: RefCell<Option<ShadowState>> = const { RefCell::new(None) };
}

/// True when a sanitizer session is active on this thread *right now*.
///
/// This is the hot-path gate consulted by every buffer accessor and warp
/// primitive: a const-initialized thread-local `Cell<bool>` read, one
/// predictable branch when off. Inside a launch it is authoritative —
/// [`launch_begin`] has already materialized the ambient `ECL_SANITIZE`
/// session (if any) before the first task runs.
#[inline]
pub(crate) fn active() -> bool {
    ACTIVE.get()
}

/// Sets the task (thread or warp) id shadow accesses are attributed to.
/// Called by the device's launch loops before each task of a sanitized
/// launch.
pub(crate) fn set_task(task: u64) {
    CURRENT_TASK.set(task);
}

/// The task id set by [`set_task`] for the task currently executing.
pub(crate) fn current_task() -> u64 {
    CURRENT_TASK.get()
}

fn env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("ECL_SANITIZE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// True when a sanitizer session is (or, via `ECL_SANITIZE`, would be)
/// active on this thread. Cheap: a thread-local flag plus a cached env
/// lookup.
pub fn enabled() -> bool {
    ACTIVE.get() || env_enabled()
}

/// Runs `f` against the session state, creating the ambient trap-mode
/// session first if `ECL_SANITIZE` is set. Returns `None` when no session
/// is active.
fn with_state<R>(f: impl FnOnce(&mut ShadowState) -> R) -> Option<R> {
    if !ACTIVE.get() {
        if !env_enabled() {
            return None;
        }
        STATE.with(|s| *s.borrow_mut() = Some(ShadowState::new(Mode::Trap)));
        ACTIVE.set(true);
    }
    STATE.with(|s| s.borrow_mut().as_mut().map(f))
}

/// Restores the previous session (if any) when a scoped session exits,
/// including on unwind.
struct ScopeGuard {
    prev: Option<ShadowState>,
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

/// Runs `f` under a fresh collect-mode sanitizer session on this thread
/// and returns its result together with the session's report.
///
/// Any `Device::launch`/`launch_warps` performed inside the closure (on
/// any device) runs with shadow checking; buffers
/// acquired uninitialized from a [`crate::arena::DeviceArena`] inside the
/// closure are init-tracked. A pre-existing session (including the
/// ambient `ECL_SANITIZE` one) is suspended for the scope and restored
/// afterwards.
pub fn with_sanitizer<R>(f: impl FnOnce() -> R) -> (R, SanitizerReport) {
    let prev = STATE.with(|s| s.borrow_mut().take());
    STATE.with(|s| *s.borrow_mut() = Some(ShadowState::new(Mode::Collect)));
    ACTIVE.set(true);
    let mut guard = ScopeGuard { prev, taken: false };
    let out = f();
    let finished = STATE
        .with(|s| s.borrow_mut().take())
        .expect("sanitizer session vanished mid-scope");
    guard.taken = true;
    let prev = guard.prev.take();
    ACTIVE.set(prev.is_some());
    STATE.with(|s| *s.borrow_mut() = prev);
    (out, finished.report)
}

/// Attaches a human-readable name to a buffer for violation reports.
/// No-op when no session is active.
pub fn label(buf: &impl ShadowBuf, name: &'static str) {
    if !enabled() {
        return;
    }
    let uid = buf.shadow_ref().uid;
    with_state(|s| {
        s.names.insert(uid, name);
    });
}

// ---------------------------------------------------------------------------
// Launch hooks (called by `Device`).

/// Begins a sanitized launch; returns true when a session is active (the
/// device then attributes each task for per-task shadow reporting).
pub(crate) fn launch_begin(kernel: &str) -> bool {
    with_state(|s| {
        let index = s.launch_counter;
        s.launch_counter += 1;
        s.report.checked_launches += 1;
        s.launch = Some(LaunchShadow {
            kernel: kernel.to_string(),
            index,
            words: BTreeMap::new(),
            violations_at_entry: s.report.violations.len(),
            suppressed_at_entry: s.report.suppressed_violations,
        });
    })
    .is_some()
}

/// Ends a sanitized launch: runs the race analysis over the launch's
/// shadow words and, in trap mode, panics if the launch produced any
/// violation.
pub(crate) fn launch_end() {
    let trap: Option<Vec<String>> = with_state(|s| {
        let launch = s.launch.take().expect("launch_end without launch_begin");
        let words = launch.words;
        let (kernel, index) = (launch.kernel, launch.index);
        for ((uid, word), ws) in words {
            if ws.writers.is_empty() {
                continue;
            }
            let mut participants = ws.readers.len();
            for w in &ws.writers {
                if !ws.readers.contains(w) {
                    participants += 1;
                }
            }
            if participants < 2 {
                continue;
            }
            // A real cross-task conflict involving a non-atomic write.
            if ws.diverged.is_none() {
                s.report.benign_idempotent_races += 1;
                continue;
            }
            if ws.blind.is_none() {
                s.report.benign_racy_updates += 1;
                continue;
            }
            let (task, value) = ws.blind.or(ws.diverged).unwrap_or_default();
            let (kind, detail) = if ws.writers.len() >= 2 {
                let (t0, v0) = ws.first_write.unwrap_or_default();
                let (t1, v1) = ws.diverged.unwrap_or_default();
                (
                    ViolationKind::WriteWriteRace,
                    format!(
                        "blind non-atomic writes of differing values \
                         (task {t0} wrote {v0}, task {t1} wrote {v1})"
                    ),
                )
            } else {
                (
                    ViolationKind::ReadWriteRace,
                    format!(
                        "blind non-atomic write of {value} races {} reader task(s)",
                        ws.readers.len()
                    ),
                )
            };
            let name = match s.names.get(&uid) {
                Some(n) => (*n).to_string(),
                None => {
                    let kind = s.kinds.get(&uid).copied().unwrap_or("buf");
                    format!("{kind}#{uid}")
                }
            };
            s.report.push(Violation {
                kind,
                kernel: kernel.clone(),
                launch_index: index,
                task,
                buffer: name,
                word: word as usize,
                detail,
            });
        }
        if s.mode == Mode::Trap
            && (s.report.violations.len() > launch.violations_at_entry
                || s.report.suppressed_violations > launch.suppressed_at_entry)
        {
            Some(
                s.report.violations[launch.violations_at_entry..]
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>(),
            )
        } else {
            None
        }
    })
    .flatten();
    if let Some(msgs) = trap {
        panic!(
            "ECL_SANITIZE trap: kernel launch produced sanitizer violation(s):\n  {}",
            msgs.join("\n  ")
        );
    }
}

// ---------------------------------------------------------------------------
// Device-access hooks (called by buffer accessors when `active()`).

fn bounds_and_lifetime(s: &mut ShadowState, task: u64, buf: BufRef, word: usize) -> bool {
    s.report.checked_accesses += 1;
    s.kinds.entry(buf.uid).or_insert(buf.kind);
    if s.dead.contains(&buf.uid) {
        let detail = "access to a buffer released back to the arena".to_string();
        s.violation(ViolationKind::UseAfterRelease, task, buf, word, detail);
        return false;
    }
    if word >= buf.len {
        let detail = format!("index {word} >= logical length {}", buf.len);
        s.violation(ViolationKind::OutOfBounds, task, buf, word, detail);
        return false;
    }
    true
}

fn word_state(s: &mut ShadowState, buf: BufRef, word: usize) -> Option<&mut WordState> {
    s.launch
        .as_mut()
        .map(|l| l.words.entry((buf.uid, word as u64)).or_default())
}

/// Records a non-atomic device read of one word.
#[cold]
pub(crate) fn device_read(buf: BufRef, task: u64, word: usize) {
    with_state(|s| {
        if !bounds_and_lifetime(s, task, buf, word) {
            return;
        }
        if let Some(init) = s.init.get(&buf.uid) {
            if !init.is_written(word) {
                let detail = "read before first write of an uninitialized acquire".to_string();
                s.violation(ViolationKind::UninitRead, task, buf, word, detail);
            }
        }
        if let Some(ws) = word_state(s, buf, word) {
            ws.readers.insert(task);
        }
    });
}

/// Records a coalesced span read of `len` consecutive words.
#[cold]
pub(crate) fn device_read_span(buf: BufRef, task: u64, start: usize, len: usize) {
    for w in start..start + len {
        device_read(buf, task, w);
    }
}

/// Records a non-atomic device write of one word.
#[cold]
pub(crate) fn device_write(buf: BufRef, task: u64, word: usize, value: u64) {
    with_state(|s| {
        if !bounds_and_lifetime(s, task, buf, word) {
            return;
        }
        if let Some(init) = s.init.get_mut(&buf.uid) {
            init.mark(word);
        }
        if let Some(ws) = word_state(s, buf, word) {
            ws.writers.insert(task);
            if !ws.readers.contains(&task) && ws.blind.is_none() {
                ws.blind = Some((task, value));
            }
            match ws.first_write {
                None => ws.first_write = Some((task, value)),
                Some((_, v0)) => {
                    if v0 != value && ws.diverged.is_none() {
                        ws.diverged = Some((task, value));
                    }
                }
            }
        }
    });
}

/// Records an atomic read-modify-write of one word: exempt from
/// racecheck, but still bounds/lifetime/init-checked (and it initializes
/// the word).
#[cold]
pub(crate) fn device_rmw(buf: BufRef, task: u64, word: usize) {
    with_state(|s| {
        if !bounds_and_lifetime(s, task, buf, word) {
            return;
        }
        let unwritten = match s.init.get_mut(&buf.uid) {
            Some(init) => {
                let unwritten = !init.is_written(word);
                init.mark(word);
                unwritten
            }
            None => false,
        };
        if unwritten {
            let detail =
                "atomic RMW reads a word never written since its uninitialized acquire".to_string();
            s.violation(ViolationKind::UninitRead, task, buf, word, detail);
        }
    });
}

/// Records a warp-primitive divergence violation (synccheck).
#[cold]
pub(crate) fn warp_divergence(task: u64, what: &str, lane: usize) {
    with_state(|s| {
        let (kernel, index) = match &s.launch {
            Some(l) => (l.kernel.clone(), l.index),
            None => ("<host>".to_string(), s.launch_counter),
        };
        s.report.push(Violation {
            kind: ViolationKind::DivergentWarpOp,
            kernel,
            launch_index: index,
            task,
            buffer: "<warp>".to_string(),
            word: lane,
            detail: what.to_string(),
        });
    });
}

// ---------------------------------------------------------------------------
// Host-side hooks (arena lifetime, host writes for initcheck).

/// Arena hook: a buffer was acquired with unspecified contents. Starts
/// init tracking and revives the uid if it was marked released.
pub(crate) fn on_uninit_acquire(buf: BufRef) {
    if !enabled() {
        return;
    }
    with_state(|s| {
        s.dead.remove(&buf.uid);
        s.init.insert(buf.uid, InitShadow::new(buf.len));
    });
}

/// Arena hook: a buffer was released back to the pool; subsequent device
/// access is use-after-release until it is re-acquired.
pub(crate) fn on_release(buf: BufRef) {
    if !enabled() {
        return;
    }
    with_state(|s| {
        s.init.remove(&buf.uid);
        s.names.remove(&buf.uid);
        s.dead.insert(buf.uid);
    });
}

/// Host-write hook: marks `[start, end)` initialized on a tracked buffer.
pub(crate) fn on_host_write(uid: u64, start: usize, end: usize) {
    if !enabled() {
        return;
    }
    with_state(|s| {
        if let Some(init) = s.init.get_mut(&uid) {
            init.mark_range(start, end);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(uid: u64, len: usize) -> BufRef {
        BufRef {
            uid,
            kind: "u32",
            len,
        }
    }

    /// Drives the shadow hooks directly (white-box): use-after-release is
    /// not constructible through the safe arena API, which takes buffers
    /// by value on release.
    #[test]
    fn use_after_release_flags_and_reacquire_revives() {
        let ((), report) = with_sanitizer(|| {
            let b = buf(900, 8);
            on_uninit_acquire(b);
            on_release(b);
            assert!(launch_begin("stale"));
            device_read(b, 0, 3);
            launch_end();
            on_uninit_acquire(b);
            assert!(launch_begin("fresh"));
            device_write(b, 0, 3, 7);
            device_read(b, 0, 3);
            launch_end();
        });
        assert_eq!(report.count_of(ViolationKind::UseAfterRelease), 1);
        assert_eq!(report.violations().len(), 1);
        let v = &report.violations()[0];
        assert_eq!(v.kernel, "stale");
        assert_eq!(v.word, 3);
    }

    #[test]
    fn blind_initializing_write_racing_readers_is_a_violation() {
        let ((), report) = with_sanitizer(|| {
            let b = buf(901, 4);
            on_uninit_acquire(b);
            assert!(launch_begin("k"));
            // Word 0: read-then-write of differing values (path halving).
            device_write(b, 0, 0, 1); // task 0 initializes
            device_read(b, 1, 0);
            device_write(b, 1, 0, 2);
            device_read(b, 2, 0);
            device_write(b, 2, 0, 3);
            launch_end();
        });
        // Task 0's write is blind → still a violation? No: task 0 wrote 1,
        // tasks 1/2 wrote 2/3 after reading. Blind write by task 0 makes
        // this a true violation under the rules — assert exactly that, it
        // documents why real kernels must initialize in a separate launch.
        assert_eq!(report.violations().len(), 1);
        assert_eq!(report.violations()[0].kind, ViolationKind::WriteWriteRace);
    }

    #[test]
    fn racy_update_without_blind_writer_is_benign() {
        let ((), report) = with_sanitizer(|| {
            let b = buf(902, 4);
            assert!(launch_begin("k"));
            // Every writer reads first; values differ (halving pattern).
            device_read(b, 0, 0);
            device_write(b, 0, 0, 5);
            device_read(b, 1, 0);
            device_write(b, 1, 0, 6);
            launch_end();
        });
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.benign_racy_updates, 1);
    }

    #[test]
    fn trap_mode_panics_at_launch_end() {
        // Install a trap-mode session directly (the env var is process-wide
        // and cached, so tests cannot toggle it).
        STATE.with(|s| *s.borrow_mut() = Some(ShadowState::new(Mode::Trap)));
        ACTIVE.set(true);
        let b = buf(903, 2);
        let res = std::panic::catch_unwind(|| {
            assert!(launch_begin("broken"));
            device_write(b, 0, 0, 1);
            device_write(b, 1, 0, 2);
            launch_end();
        });
        ACTIVE.set(false);
        STATE.with(|s| *s.borrow_mut() = None);
        let err = res.expect_err("trap mode must panic on a violation");
        let msg = err.downcast_ref::<String>().expect("panic payload");
        assert!(msg.contains("ECL_SANITIZE trap"), "{msg}");
        assert!(msg.contains("broken"), "{msg}");
    }

    #[test]
    fn report_caps_recorded_violations() {
        let ((), report) = with_sanitizer(|| {
            let b = buf(904, 1);
            assert!(launch_begin("flood"));
            for t in 0..(MAX_RECORDED_VIOLATIONS as u64 + 50) {
                // Out-of-bounds on every access: one violation each.
                device_read(b, t, 5);
            }
            launch_end();
        });
        assert_eq!(report.violations().len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(report.suppressed_violations, 50);
        assert!(!report.is_clean());
    }

    #[test]
    fn nested_scoped_sessions_restore_outer() {
        let ((), outer) = with_sanitizer(|| {
            let b = buf(905, 2);
            assert!(launch_begin("outer1"));
            device_read(b, 0, 5); // OOB in outer
            launch_end();
            let ((), inner) = with_sanitizer(|| {
                assert!(launch_begin("inner"));
                launch_end();
            });
            assert!(inner.is_clean());
            assert_eq!(inner.checked_launches, 1);
            assert!(launch_begin("outer2"));
            launch_end();
        });
        assert_eq!(outer.checked_launches, 2);
        assert_eq!(outer.violations().len(), 1);
    }
}
