//! Device-memory buffers with metered access.
//!
//! Three buffer kinds cover everything the MST kernels need:
//!
//! * [`ConstBuf`] — read-only device data (the CSR arrays). Plain `Vec<u32>`
//!   inside; reads are metered.
//! * [`BufU32`] — mutable 32-bit words with `atomicAdd`/`atomicCAS`
//!   (worklist cursors, parent arrays, per-edge MST flags).
//! * [`BufU64`] — mutable 64-bit words with `atomicMin` (the packed
//!   `weight:edge_id` reservation words).
//!
//! A launch runs its tasks in order on the calling thread, so the mutable
//! buffers are plain [`Cell`]s and the simulated atomics are ordinary
//! read-modify-writes: the device's atomicity comes from task order, not
//! from locked host instructions. The buffers are therefore not `Sync`.
//!
//! Every access takes a [`TaskCtx`] and self-classifies as *coalesced*
//! (consecutive lanes touch consecutive addresses — worklist reads/writes,
//! adjacency scans) or *gather* (data-dependent random address — parent
//! chains, per-vertex reservation words). Kernel authors choose the accessor
//! matching the actual access pattern, exactly the distinction an Nsight
//! profile of the CUDA code would surface.

use crate::counters::TaskCtx;
use crate::sanitize::{self, BufRef, ShadowBuf};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Hands out process-unique buffer ids for the sanitizer's shadow maps.
fn next_uid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Read-only device buffer of `u32` (the graph's CSR arrays).
#[derive(Debug, Clone)]
pub struct ConstBuf {
    data: Vec<u32>,
    /// Shadow identity; clones share it (read-only data, same allocation
    /// semantics as an `Arc`'d upload).
    uid: u64,
}

impl ConstBuf {
    /// Uploads a host slice (metering of the H2D copy is the device's job).
    pub fn from_slice(data: &[u32]) -> Self {
        Self::from_vec(data.to_vec())
    }

    /// Uploads an owned host vector without copying it.
    pub fn from_vec(data: Vec<u32>) -> Self {
        Self {
            data,
            uid: next_uid(),
        }
    }

    /// Unmetered host-side view of the uploaded words (the host kept its
    /// copy; reading it costs nothing on the device).
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.data
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes (for memcpy metering).
    pub fn size_bytes(&self) -> u64 {
        4 * self.data.len() as u64
    }

    /// Coalesced read (sequential scan patterns).
    #[inline]
    pub fn ld(&self, ctx: &mut TaskCtx, i: usize) -> u32 {
        ctx.charge_coalesced(4);
        if sanitize::active() {
            sanitize::device_read(self.shadow_ref(), sanitize::current_task(), i);
        }
        self.data[i]
    }

    /// Random-address read (data-dependent indexing).
    #[inline]
    pub fn ld_gather(&self, ctx: &mut TaskCtx, i: usize) -> u32 {
        ctx.charge_gather();
        if sanitize::active() {
            sanitize::device_read(self.shadow_ref(), sanitize::current_task(), i);
        }
        self.data[i]
    }

    /// Warp-coalesced span read: 32 lanes issue one load instruction that
    /// covers `len` consecutive words (one access, `4·len` bytes). Models a
    /// warp cooperatively scanning an adjacency-list chunk.
    #[inline]
    pub fn ld_span(&self, ctx: &mut TaskCtx, start: usize, len: usize) -> &[u32] {
        ctx.charge_coalesced(4 * len as u64);
        if sanitize::active() {
            sanitize::device_read_span(self.shadow_ref(), sanitize::current_task(), start, len);
        }
        &self.data[start..start + len]
    }

    /// Single-thread row read with sector reuse: a thread walking its own
    /// row sequentially pays one 32-byte sector fetch per 8 words and rides
    /// the sector for the rest. Charges a gather only on sector boundaries
    /// relative to `row_start`.
    #[inline]
    pub fn ld_row(&self, ctx: &mut TaskCtx, i: usize, row_start: usize) -> u32 {
        if (i - row_start).is_multiple_of(8) {
            ctx.charge_gather();
        }
        if sanitize::active() {
            sanitize::device_read(self.shadow_ref(), sanitize::current_task(), i);
        }
        self.data[i]
    }
}

impl ShadowBuf for ConstBuf {
    fn shadow_ref(&self) -> BufRef {
        BufRef {
            uid: self.uid,
            kind: "const",
            len: self.data.len(),
        }
    }
}

/// Mutable device buffer of 32-bit words.
///
/// The buffer distinguishes its *logical* length (what kernels may touch,
/// what [`BufU32::size_bytes`] meters) from its *physical* capacity. The
/// [`crate::arena::DeviceArena`] pools buffers by power-of-two capacity
/// class and retargets the logical length on reuse, so a recycled buffer
/// meters exactly like a freshly allocated one.
///
/// Single-threaded, so it cannot be shared across host threads:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<ecl_gpu_sim::BufU32>();
/// ```
#[derive(Debug)]
pub struct BufU32 {
    data: Vec<Cell<u32>>,
    len: usize,
    uid: u64,
}

impl BufU32 {
    /// Allocates `len` words initialized to `init`.
    pub fn new(len: usize, init: u32) -> Self {
        Self {
            // Not `vec!`, which writes every word: for `init == 0` this
            // becomes a zeroed allocation (`vec!` measured +14 MiB RSS).
            data: (0..len).map(|_| Cell::new(init)).collect(),
            len,
            uid: next_uid(),
        }
    }

    /// Uploads a host slice.
    pub fn from_slice(data: &[u32]) -> Self {
        Self {
            data: data.iter().copied().map(Cell::new).collect(),
            len: data.len(),
            uid: next_uid(),
        }
    }

    /// Logical number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Physical capacity in words (≥ [`BufU32::len`]).
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Retargets the logical length within the physical capacity. Word
    /// contents are *unspecified* until (re)initialized — callers either
    /// run a setup kernel, [`BufU32::fill`], or [`BufU32::host_write_slice`]
    /// before the first read, exactly as a `cudaMalloc`'d region requires.
    pub fn retarget(&mut self, len: usize) {
        assert!(len <= self.data.len(), "retarget beyond physical capacity");
        self.len = len;
    }

    /// Size in bytes (for memcpy metering).
    pub fn size_bytes(&self) -> u64 {
        4 * self.len as u64
    }

    /// Coalesced read.
    #[inline]
    #[must_use]
    pub fn ld(&self, ctx: &mut TaskCtx, i: usize) -> u32 {
        ctx.charge_coalesced(4);
        if sanitize::active() {
            sanitize::device_read(self.shadow_ref(), sanitize::current_task(), i);
        }
        self.data[i].get()
    }

    /// Random-address read.
    #[inline]
    #[must_use]
    pub fn ld_gather(&self, ctx: &mut TaskCtx, i: usize) -> u32 {
        ctx.charge_gather();
        if sanitize::active() {
            sanitize::device_read(self.shadow_ref(), sanitize::current_task(), i);
        }
        self.data[i].get()
    }

    /// Coalesced write.
    #[inline]
    pub fn st(&self, ctx: &mut TaskCtx, i: usize, v: u32) {
        ctx.charge_coalesced(4);
        if sanitize::active() {
            sanitize::device_write(self.shadow_ref(), sanitize::current_task(), i, u64::from(v));
        }
        self.data[i].set(v);
    }

    /// Random-address write.
    #[inline]
    pub fn st_scatter(&self, ctx: &mut TaskCtx, i: usize, v: u32) {
        ctx.charge_gather();
        if sanitize::active() {
            sanitize::device_write(self.shadow_ref(), sanitize::current_task(), i, u64::from(v));
        }
        self.data[i].set(v);
    }

    /// `atomicAdd`: returns the previous value (worklist slot allocation).
    #[inline]
    pub fn atomic_add(&self, ctx: &mut TaskCtx, i: usize, v: u32) -> u32 {
        ctx.charge_atomic();
        if sanitize::active() {
            sanitize::device_rmw(self.shadow_ref(), sanitize::current_task(), i);
        }
        let w = &self.data[i];
        w.replace(w.get().wrapping_add(v))
    }

    /// Warp-aggregated `atomicAdd` on a shared counter: when every thread
    /// of a warp increments the *same address* (worklist cursors), the
    /// hardware coalesces the warp into a single atomic, so the amortized
    /// per-thread cost is a register shuffle plus 1/32 of an atomic —
    /// modeled as one cheap coalesced access.
    #[inline]
    pub fn atomic_add_aggregated(&self, ctx: &mut TaskCtx, i: usize, v: u32) -> u32 {
        ctx.charge_coalesced(4);
        if sanitize::active() {
            sanitize::device_rmw(self.shadow_ref(), sanitize::current_task(), i);
        }
        let w = &self.data[i];
        w.replace(w.get().wrapping_add(v))
    }

    /// `atomicCAS`: returns `Ok(previous)` on success, `Err(actual)` on
    /// failure; a failure is charged as a retry.
    #[inline]
    pub fn atomic_cas(
        &self,
        ctx: &mut TaskCtx,
        i: usize,
        expect: u32,
        new: u32,
    ) -> Result<u32, u32> {
        ctx.charge_atomic();
        if sanitize::active() {
            sanitize::device_rmw(self.shadow_ref(), sanitize::current_task(), i);
        }
        let word = &self.data[i];
        let cur = word.get();
        if cur == expect {
            word.set(new);
            Ok(cur)
        } else {
            ctx.charge_cas_retry();
            Err(cur)
        }
    }

    /// `atomicMin` on 32-bit words.
    #[inline]
    pub fn atomic_min(&self, ctx: &mut TaskCtx, i: usize, v: u32) -> u32 {
        ctx.charge_atomic();
        if sanitize::active() {
            sanitize::device_rmw(self.shadow_ref(), sanitize::current_task(), i);
        }
        let w = &self.data[i];
        w.replace(w.get().min(v))
    }

    /// Vectorized coalesced load of 4 consecutive words (CUDA `int4`):
    /// one access instruction for 16 bytes — the AoS 4-tuple read.
    #[inline]
    #[must_use]
    pub fn ld4(&self, ctx: &mut TaskCtx, base: usize) -> [u32; 4] {
        ctx.charge_coalesced(16);
        if sanitize::active() {
            sanitize::device_read_span(self.shadow_ref(), sanitize::current_task(), base, 4);
        }
        let w = &self.data[base..base + 4];
        [w[0].get(), w[1].get(), w[2].get(), w[3].get()]
    }

    /// Vectorized coalesced store of 4 consecutive words (one access): one
    /// sanitizer branch and one bounds check for the tuple.
    #[inline]
    pub fn st4(&self, ctx: &mut TaskCtx, base: usize, v: [u32; 4]) {
        ctx.charge_coalesced(16);
        if sanitize::active() {
            let task = sanitize::current_task();
            for (k, x) in v.into_iter().enumerate() {
                sanitize::device_write(self.shadow_ref(), task, base + k, u64::from(x));
            }
        }
        for (word, x) in self.data[base..base + 4].iter().zip(v) {
            word.set(x);
        }
    }

    /// Pointer chase from word `x` to the first word that holds its own
    /// index: a union-find `find` without writes. Returns the root and the
    /// number of hops; each load is a dependent gather, charged exactly as
    /// the `ld_gather` loop it stands for (`hops + 1` gathers). The
    /// sanitizer is checked once per chase; under a session every load goes
    /// through [`BufU32::ld_gather`] and is shadow-recorded.
    #[inline]
    #[must_use]
    pub fn ld_chase(&self, ctx: &mut TaskCtx, mut x: u32) -> (u32, u32) {
        let checked = sanitize::active();
        let mut hops = 0;
        loop {
            let p = if checked {
                self.ld_gather(ctx, x as usize)
            } else {
                ctx.charge_gather();
                self.data[x as usize].get()
            };
            if p == x {
                return (x, hops);
            }
            hops += 1;
            x = p;
        }
    }

    /// Unmetered host-side read (after a simulated D2H copy). Host reads of
    /// uninitialized words are deliberately not sanitized — copying back a
    /// partially-written region is normal host behavior.
    #[must_use]
    pub fn host_read(&self, i: usize) -> u32 {
        self.data[i].get()
    }

    /// Unmetered host-side write (before a simulated H2D copy).
    pub fn host_write(&self, i: usize, v: u32) {
        sanitize::on_host_write(self.uid, i, i + 1);
        self.data[i].set(v)
    }

    /// Unmetered host-side snapshot of the logical contents.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u32> {
        self.data[..self.len].iter().map(Cell::get).collect()
    }

    /// Unmetered host-side fill (cudaMemset analogue; meter it via the
    /// device if the fill is part of the measured region).
    pub fn fill(&self, v: u32) {
        sanitize::on_host_write(self.uid, 0, self.len);
        for x in &self.data[..self.len] {
            x.set(v);
        }
    }

    /// Unmetered host-side bulk write starting at word 0 (the host-staging
    /// step before a metered `memcpy_h2d`).
    pub fn host_write_slice(&self, data: &[u32]) {
        assert!(
            data.len() <= self.len,
            "host_write_slice beyond logical length"
        );
        sanitize::on_host_write(self.uid, 0, data.len());
        for (x, &v) in self.data.iter().zip(data) {
            x.set(v);
        }
    }

    /// Unmetered host-side write of the identity sequence `0, 1, 2, …`
    /// (common initial parent/color arrays) without a staging allocation.
    pub fn host_write_iota(&self) {
        sanitize::on_host_write(self.uid, 0, self.len);
        for (i, x) in self.data[..self.len].iter().enumerate() {
            x.set(i as u32);
        }
    }
}

impl ShadowBuf for BufU32 {
    fn shadow_ref(&self) -> BufRef {
        BufRef {
            uid: self.uid,
            kind: "u32",
            len: self.len,
        }
    }
}

/// Mutable device buffer of 64-bit words (packed `weight:edge_id`
/// reservations). Logical length vs physical capacity works as in
/// [`BufU32`].
#[derive(Debug)]
pub struct BufU64 {
    data: Vec<Cell<u64>>,
    len: usize,
    uid: u64,
}

impl BufU64 {
    /// Allocates `len` words initialized to `init` (built like
    /// [`BufU32::new`]).
    pub fn new(len: usize, init: u64) -> Self {
        Self {
            data: (0..len).map(|_| Cell::new(init)).collect(),
            len,
            uid: next_uid(),
        }
    }

    /// Logical number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Physical capacity in words (≥ [`BufU64::len`]).
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Retargets the logical length within the physical capacity; contents
    /// are unspecified until reinitialized (see [`BufU32::retarget`]).
    pub fn retarget(&mut self, len: usize) {
        assert!(len <= self.data.len(), "retarget beyond physical capacity");
        self.len = len;
    }

    /// Size in bytes (for memcpy metering).
    pub fn size_bytes(&self) -> u64 {
        8 * self.len as u64
    }

    /// Coalesced read.
    #[inline]
    #[must_use]
    pub fn ld(&self, ctx: &mut TaskCtx, i: usize) -> u64 {
        ctx.charge_coalesced(8);
        if sanitize::active() {
            sanitize::device_read(self.shadow_ref(), sanitize::current_task(), i);
        }
        self.data[i].get()
    }

    /// Random-address read (e.g. the guard load before an atomicMin).
    #[inline]
    #[must_use]
    pub fn ld_gather(&self, ctx: &mut TaskCtx, i: usize) -> u64 {
        ctx.charge_gather();
        if sanitize::active() {
            sanitize::device_read(self.shadow_ref(), sanitize::current_task(), i);
        }
        self.data[i].get()
    }

    /// Coalesced write.
    #[inline]
    pub fn st(&self, ctx: &mut TaskCtx, i: usize, v: u64) {
        ctx.charge_coalesced(8);
        if sanitize::active() {
            sanitize::device_write(self.shadow_ref(), sanitize::current_task(), i, v);
        }
        self.data[i].set(v);
    }

    /// Random-address write.
    #[inline]
    pub fn st_scatter(&self, ctx: &mut TaskCtx, i: usize, v: u64) {
        ctx.charge_gather();
        if sanitize::active() {
            sanitize::device_write(self.shadow_ref(), sanitize::current_task(), i, v);
        }
        self.data[i].set(v);
    }

    /// 64-bit `atomicMin` — the deterministic-reservation primitive.
    #[inline]
    pub fn atomic_min(&self, ctx: &mut TaskCtx, i: usize, v: u64) -> u64 {
        ctx.charge_atomic();
        if sanitize::active() {
            sanitize::device_rmw(self.shadow_ref(), sanitize::current_task(), i);
        }
        let w = &self.data[i];
        w.replace(w.get().min(v))
    }

    /// Cache-resident random read: the reservation words are touched by
    /// every edge of a component, so guard loads overwhelmingly hit L2.
    /// Charged as a cheap 8-byte access instead of a DRAM sector — this is
    /// what makes the paper's atomic-guard optimization profitable.
    #[inline]
    #[must_use]
    pub fn ld_cached(&self, ctx: &mut TaskCtx, i: usize) -> u64 {
        ctx.charge_coalesced(8);
        if sanitize::active() {
            sanitize::device_read(self.shadow_ref(), sanitize::current_task(), i);
        }
        self.data[i].get()
    }

    /// Unmetered host-side read.
    #[must_use]
    pub fn host_read(&self, i: usize) -> u64 {
        self.data[i].get()
    }

    /// Unmetered host-side fill.
    pub fn fill(&self, v: u64) {
        sanitize::on_host_write(self.uid, 0, self.len);
        for x in &self.data[..self.len] {
            x.set(v);
        }
    }
}

impl ShadowBuf for BufU64 {
    fn shadow_ref(&self) -> BufRef {
        BufRef {
            uid: self.uid,
            kind: "u64",
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_buf_reads_meter() {
        let b = ConstBuf::from_slice(&[10, 20, 30]);
        let mut ctx = TaskCtx::new();
        assert_eq!(b.ld(&mut ctx, 1), 20);
        assert_eq!(b.ld_gather(&mut ctx, 2), 30);
        assert_eq!(ctx.coalesced_bytes, 4);
        assert_eq!(ctx.gather_accesses, 1);
        assert_eq!(b.size_bytes(), 12);
    }

    #[test]
    fn ld_span_is_one_access() {
        let b = ConstBuf::from_slice(&(0..64).collect::<Vec<u32>>());
        let mut ctx = TaskCtx::new();
        let s = b.ld_span(&mut ctx, 8, 32);
        assert_eq!(s[0], 8);
        assert_eq!(s.len(), 32);
        assert_eq!(ctx.accesses, 1);
        assert_eq!(ctx.coalesced_bytes, 128);
    }

    #[test]
    fn ld_row_charges_per_sector() {
        let b = ConstBuf::from_slice(&(0..64).collect::<Vec<u32>>());
        let mut ctx = TaskCtx::new();
        for i in 10..30 {
            let _ = b.ld_row(&mut ctx, i, 10);
        }
        // 20 words starting at the row origin: sectors at offsets 0, 8, 16.
        assert_eq!(ctx.gather_accesses, 3);
    }

    #[test]
    fn buf_u32_atomic_add_allocates_slots() {
        let b = BufU32::new(1, 0);
        let mut ctx = TaskCtx::new();
        assert_eq!(b.atomic_add(&mut ctx, 0, 1), 0);
        assert_eq!(b.atomic_add(&mut ctx, 0, 1), 1);
        assert_eq!(b.host_read(0), 2);
        assert_eq!(ctx.atomics, 2);
    }

    #[test]
    fn buf_u32_cas_success_and_failure() {
        let b = BufU32::new(1, 5);
        let mut ctx = TaskCtx::new();
        assert_eq!(b.atomic_cas(&mut ctx, 0, 5, 9), Ok(5));
        assert_eq!(b.atomic_cas(&mut ctx, 0, 5, 7), Err(9));
        assert_eq!(ctx.cas_retries, 1);
        assert_eq!(ctx.atomics, 2);
    }

    #[test]
    fn buf_u64_atomic_min_keeps_minimum() {
        let b = BufU64::new(2, u64::MAX);
        let mut ctx = TaskCtx::new();
        b.atomic_min(&mut ctx, 0, 100);
        b.atomic_min(&mut ctx, 0, 50);
        b.atomic_min(&mut ctx, 0, 80);
        assert_eq!(b.host_read(0), 50);
        assert_eq!(b.host_read(1), u64::MAX);
    }

    #[test]
    fn stores_and_loads_roundtrip() {
        let b = BufU32::new(4, 0);
        let mut ctx = TaskCtx::new();
        b.st(&mut ctx, 2, 42);
        b.st_scatter(&mut ctx, 3, 43);
        assert_eq!(b.ld(&mut ctx, 2), 42);
        assert_eq!(b.ld_gather(&mut ctx, 3), 43);
    }

    #[test]
    fn fill_resets_all() {
        let b = BufU64::new(3, 7);
        b.fill(u64::MAX);
        for i in 0..3 {
            assert_eq!(b.host_read(i), u64::MAX);
        }
    }

    #[test]
    fn vectorized_tuple_roundtrip_is_one_access() {
        let b = BufU32::new(8, 0);
        let mut ctx = TaskCtx::new();
        b.st4(&mut ctx, 4, [1, 2, 3, 4]);
        assert_eq!(b.ld4(&mut ctx, 4), [1, 2, 3, 4]);
        assert_eq!(ctx.accesses, 2);
        assert_eq!(ctx.coalesced_bytes, 32);
    }

    #[test]
    fn ld_chase_meters_like_the_gather_loop() {
        // 0 → 1 → … → 10 is a 10-hop chain to the root 10; 11 → 10 is one.
        let b = BufU32::from_slice(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10, 10]);
        for (start, hops) in [(10, 0), (11, 1), (0, 10), (4, 6)] {
            let (mut looped, mut x) = (TaskCtx::new(), start);
            loop {
                let p = b.ld_gather(&mut looped, x as usize);
                if p == x {
                    break;
                }
                x = p;
            }
            let mut chased = TaskCtx::new();
            assert_eq!(b.ld_chase(&mut chased, start), (10, hops));
            assert_eq!(x, 10);
            assert_eq!(chased, looped);
        }
    }
}
