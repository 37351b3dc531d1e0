//! Detector regression tests: deliberately broken kernels that the
//! sanitizer must catch — and benign patterns it must not flag.
//!
//! The two headline fault injections required by the sanitizer's own
//! acceptance criteria are [`write_write_race_is_detected`] (a true
//! write-write race on a `BufU32` word) and
//! [`read_before_write_on_uninit_arena_buffer_is_detected`] (an initcheck
//! hit on an arena buffer acquired with unspecified contents).

use ecl_gpu_sim::sanitize::{self, Tool, ViolationKind};
use ecl_gpu_sim::{with_sanitizer, BufU32, BufU64, Device, DeviceArena, GpuProfile};

fn device() -> Device {
    Device::new(GpuProfile::TITAN_V)
}

/// Broken kernel #1: every task blindly stores its own index into word 0
/// of a `BufU32` — a true write-write race (differing values, no prior
/// read). Must be classified as racecheck/WriteWriteRace.
#[test]
fn write_write_race_is_detected() {
    let ((), report) = with_sanitizer(|| {
        let mut dev = device();
        let b = BufU32::new(1, 0);
        sanitize::label(&b, "race_word");
        let _ = dev.launch("broken_ww_race", 16, |i, ctx| {
            b.st(ctx, 0, i as u32);
        });
    });
    assert!(!report.is_clean());
    assert_eq!(report.violations().len(), 1);
    let v = &report.violations()[0];
    assert_eq!(v.kind, ViolationKind::WriteWriteRace);
    assert_eq!(v.kind.tool(), Tool::Racecheck);
    assert_eq!(v.kernel, "broken_ww_race");
    assert_eq!(v.buffer, "race_word");
    assert_eq!(v.word, 0);
    // No downgrade: the values differ and the writes are blind.
    assert_eq!(report.benign_idempotent_races, 0);
    assert_eq!(report.benign_racy_updates, 0);
}

/// Broken kernel #2: reads an arena buffer acquired uninitialized before
/// any write reached it. Must be classified as initcheck/UninitRead.
#[test]
fn read_before_write_on_uninit_arena_buffer_is_detected() {
    let ((), report) = with_sanitizer(|| {
        let mut arena = DeviceArena::new();
        let b = arena.acquire_u32_uninit(8);
        sanitize::label(&b, "fresh_malloc");
        let mut dev = device();
        let _ = dev.launch("broken_uninit_read", 4, |i, ctx| {
            let _ = b.ld(ctx, i);
        });
        arena.release_u32(b);
    });
    assert_eq!(report.violations().len(), 4, "{report}");
    for (i, v) in report.violations().iter().enumerate() {
        assert_eq!(v.kind, ViolationKind::UninitRead);
        assert_eq!(v.kind.tool(), Tool::Initcheck);
        assert_eq!(v.kernel, "broken_uninit_read");
        assert_eq!(v.buffer, "fresh_malloc");
        assert_eq!(v.word, i);
    }
}

/// The same kernel is clean once a setup launch writes every word first —
/// the sanitizer checks the *order* of accesses, not the acquire mode.
#[test]
fn uninit_acquire_is_clean_after_setup_kernel() {
    let ((), report) = with_sanitizer(|| {
        let mut arena = DeviceArena::new();
        let b = arena.acquire_u32_uninit(8);
        let mut dev = device();
        let _ = dev.launch("setup", 8, |i, ctx| b.st(ctx, i, 0));
        let _ = dev.launch("read", 8, |i, ctx| {
            let _ = b.ld(ctx, i);
        });
        arena.release_u32(b);
    });
    assert!(report.is_clean(), "{report}");
}

/// The paper's benign race: many tasks store the *same* value to a flag
/// word (`changed = 1`). Downgraded to a counted warning, not a violation.
#[test]
fn idempotent_same_value_race_is_downgraded() {
    let ((), report) = with_sanitizer(|| {
        let changed = BufU32::new(1, 0);
        let mut dev = device();
        let _ = dev.launch("flag_store", 64, |_, ctx| {
            changed.st(ctx, 0, 1);
        });
    });
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.benign_idempotent_races, 1);
}

/// DSU path halving: tasks read `parent[v]` and write back differing
/// grandparent values. Every writer read the word first in its own task,
/// so the race is downgraded to a racy-update warning.
#[test]
fn read_then_write_racy_update_is_downgraded() {
    let ((), report) = with_sanitizer(|| {
        let parent = BufU32::new(4, 3);
        let mut dev = device();
        let _ = dev.launch("halve", 4, |i, ctx| {
            let p = parent.ld_gather(ctx, 0);
            parent.st_scatter(ctx, 0, p.wrapping_add(i as u32));
        });
    });
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.benign_racy_updates, 1);
}

/// Atomic RMWs on one word from every task are exempt from racecheck and
/// initialize the word for initcheck.
#[test]
fn atomic_rmw_contention_is_exempt() {
    let ((), report) = with_sanitizer(|| {
        let cursor = BufU32::new(1, 0);
        let reservation = BufU64::new(1, u64::MAX);
        let mut dev = device();
        let _ = dev.launch("atomics", 64, |i, ctx| {
            let _ = cursor.atomic_add(ctx, 0, 1);
            let _ = reservation.atomic_min(ctx, 0, i as u64);
        });
    });
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.benign_idempotent_races, 0);
    assert_eq!(report.benign_racy_updates, 0);
}

/// memcheck: the arena hands out physically larger buffers, so a logical
/// out-of-bounds index "works" silently without the sanitizer. With it,
/// the access is flagged and attributed.
#[test]
fn logical_out_of_bounds_within_capacity_is_detected() {
    let ((), report) = with_sanitizer(|| {
        let mut arena = DeviceArena::new();
        // Logical length 5, physical class capacity 64.
        let b = arena.acquire_u32(5, 0);
        sanitize::label(&b, "short_buf");
        assert!(b.capacity() > 7);
        let mut dev = device();
        let _ = dev.launch("oob_read", 1, |_, ctx| {
            let _ = b.ld(ctx, 7);
        });
        arena.release_u32(b);
    });
    assert_eq!(report.violations().len(), 1);
    let v = &report.violations()[0];
    assert_eq!(v.kind, ViolationKind::OutOfBounds);
    assert_eq!(v.kind.tool(), Tool::Memcheck);
    assert_eq!(v.buffer, "short_buf");
    assert_eq!(v.word, 7);
}

/// initcheck through a pointer chase: `ld_chase` walks via `ld_gather`
/// under a session, so a hop onto a word never written since an
/// uninitialized acquire is flagged at that word.
#[test]
fn chase_through_unwritten_word_is_detected() {
    let ((), report) = with_sanitizer(|| {
        let mut arena = DeviceArena::new();
        let parent = arena.acquire_u32_uninit(4);
        sanitize::label(&parent, "parent");
        parent.host_write(0, 0);
        parent.host_write(1, 2); // word 2 is never written
        let mut dev = device();
        let _ = dev.launch("chase_uninit", 1, |_, ctx| {
            let _ = parent.ld_chase(ctx, 1);
        });
        arena.release_u32(parent);
    });
    assert_eq!(report.violations().len(), 1, "{report}");
    let v = &report.violations()[0];
    assert_eq!((v.kind, v.word), (ViolationKind::UninitRead, 2));
    assert_eq!(
        (v.kernel.as_str(), v.buffer.as_str()),
        ("chase_uninit", "parent")
    );
}

/// memcheck through a pointer chase: a parent pointer past the logical
/// length (but within the physical capacity) is flagged where it lands.
#[test]
fn chase_past_logical_length_is_detected() {
    let ((), report) = with_sanitizer(|| {
        let mut parent = BufU32::from_slice(&[1, 7, 2, 3, 4, 5, 6, 7]);
        parent.retarget(5);
        sanitize::label(&parent, "parent");
        let mut dev = device();
        let _ = dev.launch("chase_oob", 1, |_, ctx| {
            assert_eq!(parent.ld_chase(ctx, 0), (7, 2));
        });
    });
    assert_eq!(report.violations().len(), 1, "{report}");
    let v = &report.violations()[0];
    assert_eq!(
        (v.kind, v.kind.tool(), v.word),
        (ViolationKind::OutOfBounds, Tool::Memcheck, 7)
    );
    assert_eq!(
        (v.kernel.as_str(), v.buffer.as_str()),
        ("chase_oob", "parent")
    );
}

/// synccheck: a ballot over an empty active mask and a shfl sourcing a
/// lane outside the participating set are both divergence violations.
#[test]
fn divergent_warp_primitives_are_detected() {
    let ((), report) = with_sanitizer(|| {
        let mut dev = device();
        let _ = dev.launch_warps("broken_warp", 1, |_, w| {
            let _ = w.ballot(std::iter::empty());
            let vals = [7u64, 8, 9];
            assert_eq!(w.shfl(&vals, 5), 0); // sanitized fallback value
        });
    });
    assert_eq!(report.violations().len(), 2, "{report}");
    for v in report.violations() {
        assert_eq!(v.kind, ViolationKind::DivergentWarpOp);
        assert_eq!(v.kind.tool(), Tool::Synccheck);
        assert_eq!(v.kernel, "broken_warp");
    }
    assert_eq!(report.violations()[1].word, 5);
}

/// Host-side initialization (`fill`, `host_write_slice`, `host_write`)
/// counts as writing for initcheck, exactly like the constructors did.
#[test]
fn host_writes_initialize_for_initcheck() {
    let ((), report) = with_sanitizer(|| {
        let mut arena = DeviceArena::new();
        let a = arena.acquire_u32(4, 9); // fill path
        let b = arena.acquire_u32_from(&[1, 2, 3]); // slice path
        let c = arena.acquire_u32_uninit(2);
        c.host_write(0, 5);
        c.host_write(1, 6);
        let mut dev = device();
        let _ = dev.launch("read_all", 1, |_, ctx| {
            let _ = a.ld(ctx, 3);
            let _ = b.ld(ctx, 2);
            let _ = c.ld(ctx, 1);
        });
        arena.release_u32(a);
        arena.release_u32(b);
        arena.release_u32(c);
    });
    assert!(report.is_clean(), "{report}");
}

/// Without a session, broken kernels run exactly as before — the
/// sanitizer is opt-in and adds nothing to unsanitized execution.
#[test]
fn no_session_means_no_reporting() {
    if sanitize::enabled() {
        // Under ECL_SANITIZE the ambient trap session (correctly) panics on
        // this deliberate race; the unsanitized path cannot be exercised.
        return;
    }
    let mut dev = device();
    let b = BufU32::new(1, 0);
    let _ = dev.launch("unchecked_race", 16, |i, ctx| {
        b.st(ctx, 0, i as u32);
    });
    // A fresh session afterwards starts empty.
    let ((), report) = with_sanitizer(|| {});
    assert!(report.is_clean());
    assert_eq!(report.checked_launches, 0);
}
