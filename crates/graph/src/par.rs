//! Deterministic parallel execution for the input pipeline.
//!
//! Everything in this module obeys one contract: **the result is a pure
//! function of the inputs, independent of the thread budget**. Work is cut
//! into chunks whose boundaries depend only on the data size (never on the
//! core count), each chunk computes a value that no other chunk can observe,
//! and results are recombined in chunk order. Running on one thread or
//! sixteen therefore produces identical bytes — the property the golden
//! generator hashes and the cross-run suite determinism tests pin.
//!
//! The thread budget comes from [`rayon::current_num_threads`] (the vendored
//! shim reads `RAYON_NUM_THREADS`, defaulting to the host parallelism);
//! [`with_serial_input`] forces a budget of one in a scope so parity tests
//! can compare scheduled-serial against threaded execution.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the parallel helpers pinned to one thread. The chunked
/// algorithms still run chunk by chunk — just in order on this thread — so
/// comparing against an unpinned run checks scheduling-independence.
pub fn with_serial_input<R>(f: impl FnOnce() -> R) -> R {
    FORCE_SERIAL.with(|c| {
        let prev = c.replace(true);
        let r = f();
        c.set(prev);
        r
    })
}

/// Worker-thread budget for the helpers below: one inside
/// [`with_serial_input`], else the rayon pool size.
pub fn max_threads() -> usize {
    if FORCE_SERIAL.with(Cell::get) {
        1
    } else {
        rayon::current_num_threads()
    }
}

/// Cuts `0..total` into consecutive ranges of roughly `target` elements.
/// Boundaries depend only on `total` and `target` — never the thread count —
/// so per-chunk RNG stream positions are stable across hosts.
pub fn chunk_ranges(total: usize, target: usize) -> Vec<Range<usize>> {
    let target = target.max(1);
    let chunks = total.div_ceil(target).max(1);
    let base = total / chunks;
    let extra = total % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut lo = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        out.push(lo..lo + len);
        lo += len;
    }
    out
}

/// Maps `f` over `items` on up to [`max_threads`] workers, returning results
/// in item order. Workers self-schedule off an atomic index, so chunk cost
/// imbalance does not serialize the tail.
pub fn par_map<T: Sync, R: Send + Sync>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let computed = slots[i].set(f(i, &items[i])).is_ok();
                debug_assert!(computed, "chunk {i} scheduled twice");
            });
        }
    });
    slots
        .into_iter()
        .map(|c| c.into_inner().expect("every chunk ran"))
        .collect()
}

/// [`par_map`] over consecutive batches of [`max_threads`] items, handing
/// every result to `consume` on the calling thread, in item order, before
/// the next batch starts: at most one batch of results is alive at a time,
/// and `consume` sees the same sequence at any thread budget.
pub fn par_map_batched<T: Sync, R: Send + Sync>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
    consume: impl FnMut(R),
) {
    items
        .chunks(max_threads())
        .flat_map(|batch| par_map(batch, |_, x| f(x)))
        .for_each(consume);
}

/// [`par_map`] over the chunking of `0..total`: `f` receives each range and
/// the results come back in range order.
pub fn run_chunks<R: Send + Sync>(
    total: usize,
    target: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let ranges = chunk_ranges(total, target);
    par_map(&ranges, |_, r| f(r.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for total in [0usize, 1, 7, 100, 65_537] {
            for target in [1usize, 3, 64, 1 << 16] {
                let ranges = chunk_ranges(total, target);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
                assert_eq!(expect, total);
                assert!(!ranges.is_empty());
            }
        }
    }

    #[test]
    fn par_map_ordered_and_serial_identical() {
        let items: Vec<u64> = (0..1000).collect();
        let threaded = par_map(&items, |i, &x| x * 2 + i as u64);
        let serial = with_serial_input(|| par_map(&items, |i, &x| x * 2 + i as u64));
        assert_eq!(threaded, serial);
        assert_eq!(threaded[500], 1500);
    }

    #[test]
    fn par_map_batched_consumes_in_item_order() {
        let items: Vec<u64> = (0..37).collect();
        let run = || {
            let mut seen = Vec::new();
            par_map_batched(&items, |&x| x * 3, |r| seen.push(r));
            seen
        };
        let threaded = run();
        assert_eq!(threaded, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(with_serial_input(run), threaded);
    }
}
