//! Deterministic parallel execution: the one module that starts threads.
//!
//! Everything in this module obeys one contract: **the result is a pure
//! function of the inputs, independent of the thread budget**. Work is cut
//! into chunks whose boundaries depend only on the data size (never on the
//! core count), each chunk computes a value that no other chunk can observe,
//! and results are recombined in chunk order. Running on one thread or
//! sixteen therefore produces identical bytes — the property the golden
//! generator hashes and the cross-run suite determinism tests pin.
//!
//! The thread budget is `RAYON_NUM_THREADS` when set (0 or 1 means one
//! thread), else the host's available parallelism. [`with_serial_input`]
//! forces a budget of one in a scope so parity tests can compare
//! scheduled-serial against threaded execution. Every thread a helper
//! starts holds one slot of the budget until it exits, so a helper called
//! inside a worker runs inline while every slot is taken, picks up the
//! slots of workers that have finished, and never oversubscribes the
//! budget.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

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

/// Thread budget of the helpers below: one inside [`with_serial_input`],
/// else `RAYON_NUM_THREADS` (0 and 1 both mean one) or the host's
/// available parallelism.
pub fn max_threads() -> usize {
    if FORCE_SERIAL.with(Cell::get) {
        1
    } else {
        budget()
    }
}

fn budget() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(n) = std::env::var("RAYON_NUM_THREADS")
            .unwrap_or_default()
            .trim()
            .parse::<usize>()
        {
            return n.max(1);
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Threads the helpers may start now: the budget less one for the thread
/// that called in, less one for every started thread still running.
fn spare() -> &'static AtomicUsize {
    static SPARE: OnceLock<AtomicUsize> = OnceLock::new();
    SPARE.get_or_init(|| AtomicUsize::new(budget() - 1))
}

/// Takes up to `want` spare slots; returns how many it took.
fn take_spare(want: usize) -> usize {
    let mut free = spare().load(Ordering::Relaxed);
    loop {
        let take = free.min(want);
        if take == 0 {
            return 0;
        }
        match spare().compare_exchange_weak(free, free - take, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => return take,
            Err(now) => free = now,
        }
    }
}

/// One budget slot, handed back when the thread holding it exits (also
/// when it unwinds).
struct Slot;

impl Drop for Slot {
    fn drop(&mut self) {
        spare().fetch_add(1, Ordering::AcqRel);
    }
}

/// Runs `task(i)` for every `i` in `0..tasks` on the calling thread and on
/// as many started threads as the budget has spare, up to `tasks` in all.
/// Workers self-schedule off an atomic index, so chunk cost imbalance does
/// not serialize the tail.
fn execute(tasks: usize, task: impl Fn(usize) + Sync) {
    let extra = take_spare(max_threads().min(tasks).saturating_sub(1));
    if extra == 0 {
        (0..tasks).for_each(task);
        return;
    }
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks {
            break;
        }
        task(i);
    };
    std::thread::scope(|s| {
        for _ in 0..extra {
            s.spawn(|| {
                let _slot = Slot;
                work();
            });
        }
        work();
    });
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

/// Maps `f` over `items` on up to [`max_threads`] threads, returning
/// results in item order.
pub fn par_map<T: Sync, R: Send + Sync>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    if max_threads().min(items.len()) <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    execute(items.len(), |i| {
        let computed = slots[i].set(f(i, &items[i])).is_ok();
        debug_assert!(computed, "chunk {i} scheduled twice");
    });
    slots
        .into_iter()
        .map(|c| c.into_inner().expect("every chunk ran"))
        .collect()
}

/// [`par_map`] with exclusive access to each item: every item is handed
/// to exactly one worker. Items are typically disjoint windows of one
/// buffer, one per chunk, that the chunks fill in place.
pub fn par_map_mut<T: Send, R: Send + Sync>(
    items: &mut [T],
    f: impl Fn(usize, &mut T) -> R + Sync,
) -> Vec<R> {
    let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    par_map(&cells, |i, cell| {
        f(i, &mut cell.lock().expect("a worker panicked"))
    })
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

/// Runs `f` on every chunk of `0..total` (see [`chunk_ranges`]).
pub fn for_each_chunk(total: usize, target: usize, f: impl Fn(Range<usize>) + Sync) {
    let ranges = chunk_ranges(total, target);
    execute(ranges.len(), |i| f(ranges[i].clone()));
}

/// A chunked filter into a reused buffer. `out` is cut at the chunk
/// boundaries of `0..out.len()`; `f(range, window)` gets each input range
/// with the equally long window of `out` at the same offset, writes the
/// items it keeps to the front of the window, and returns how many it kept
/// together with a per-chunk value. The kept runs are then moved together
/// in chunk order, so `out[..kept]` is the same at any thread budget.
/// Returns `kept` and the per-chunk values in chunk order.
pub fn filter_chunks<T: Copy + Send, R: Send + Sync>(
    out: &mut [T],
    target: usize,
    f: impl Fn(Range<usize>, &mut [T]) -> (usize, R) + Sync,
) -> (usize, Vec<R>) {
    let ranges = chunk_ranges(out.len(), target);
    let mut windows = Vec::with_capacity(ranges.len());
    let mut rest = &mut *out;
    for r in &ranges {
        let (w, tail) = rest.split_at_mut(r.len());
        windows.push(w);
        rest = tail;
    }
    let results = par_map_mut(&mut windows, |i, w| f(ranges[i].clone(), w));
    drop(windows);
    let mut kept = 0;
    let values = ranges
        .iter()
        .zip(results)
        .map(|(r, (n, value))| {
            debug_assert!(n <= r.len(), "a chunk kept more items than it read");
            if r.start != kept {
                out.copy_within(r.start..r.start + n, kept);
            }
            kept += n;
            value
        })
        .collect();
    (kept, values)
}

/// Below this length a sort runs on the calling thread regardless of the
/// budget: thread start-up (tens of µs) dwarfs the sort itself.
const PAR_SORT_MIN: usize = 1 << 14;

/// In-place unstable sort on up to [`max_threads`] threads: selections at
/// the T−1 quantiles cut `v` into T parts, each no greater than the next,
/// which are then sorted concurrently. Needs no buffer. A full-`Ord` sort
/// has one observable result whenever `Ord`-equal elements are
/// indistinguishable, so the output does not depend on the budget.
pub fn par_sort_unstable<T: Ord + Send>(v: &mut [T]) {
    let threads = max_threads();
    if threads <= 1 || v.len() < PAR_SORT_MIN {
        v.sort_unstable();
    } else {
        sort_in_parts(v, threads);
    }
}

/// The body of [`par_sort_unstable`] with the part count given.
fn sort_in_parts<T: Ord + Send>(v: &mut [T], parts_wanted: usize) {
    let len = v.len();
    let mut parts = Vec::with_capacity(parts_wanted);
    let mut rest = v;
    let mut cut = 0;
    for t in 1..parts_wanted {
        let rank = len * t / parts_wanted - cut;
        if rank < rest.len() {
            rest.select_nth_unstable(rank);
        }
        let (part, tail) = rest.split_at_mut(rank);
        parts.push(part);
        rest = tail;
        cut += rank;
    }
    parts.push(rest);
    par_map_mut(&mut parts, |_, part| part.sort_unstable());
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

    #[test]
    fn nested_calls_stay_within_the_budget() {
        // Threads running a task right now, with the number of tasks each
        // has open (an outer task and the inner ones it runs inline).
        let live = Mutex::new(std::collections::HashMap::new());
        let peak = AtomicUsize::new(0);
        let enter = || {
            let mut l = live.lock().unwrap();
            *l.entry(std::thread::current().id()).or_insert(0) += 1;
            peak.fetch_max(l.len(), Ordering::SeqCst);
        };
        let leave = || {
            let mut l = live.lock().unwrap();
            let id = std::thread::current().id();
            *l.get_mut(&id).unwrap() -= 1;
            if l[&id] == 0 {
                l.remove(&id);
            }
        };
        let sums = par_map(&[0u64; 8], |i, _| {
            enter();
            let inner = par_map(&[1u64; 8], |_, &x| {
                enter();
                std::thread::yield_now();
                leave();
                x
            });
            leave();
            inner.iter().sum::<u64>() + i as u64
        });
        assert_eq!(sums, (0..8).map(|i| 8 + i).collect::<Vec<u64>>());
        assert!(peak.load(Ordering::SeqCst) <= max_threads());
        assert_eq!(with_serial_input(max_threads), 1);
    }

    #[test]
    fn for_each_chunk_visits_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..10_001).map(|_| AtomicUsize::new(0)).collect();
        for_each_chunk(hits.len(), 97, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn filter_chunks_keeps_chunk_order_at_any_budget() {
        let input: Vec<u32> = (0..50_000).map(|i| i * 7 % 1013).collect();
        let run = || {
            let mut out = vec![0u32; input.len()];
            let (kept, sums) = filter_chunks(&mut out, 1000, |r, w| {
                let mut n = 0;
                for &x in &input[r] {
                    if x % 3 == 0 {
                        w[n] = x;
                        n += 1;
                    }
                }
                (n, w[..n].iter().map(|&x| x as u64).sum::<u64>())
            });
            out.truncate(kept);
            (out, sums)
        };
        let (threaded, sums) = run();
        let expect: Vec<u32> = input.iter().copied().filter(|x| x % 3 == 0).collect();
        assert_eq!(threaded, expect);
        assert_eq!(sums.len(), 50);
        assert_eq!(
            sums.iter().sum::<u64>(),
            expect.iter().map(|&x| x as u64).sum()
        );
        assert_eq!(with_serial_input(run), (threaded, sums));
    }

    #[test]
    fn par_sort_matches_sequential() {
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for len in [0usize, 1, 2, 1000, PAR_SORT_MIN + 12345, 3 * PAR_SORT_MIN] {
            let v: Vec<(u32, u32)> = (0..len)
                .map(|_| (next() as u32 % 97, next() as u32 % 5))
                .collect();
            let mut expect = v.clone();
            expect.sort_unstable();
            let mut got = v.clone();
            par_sort_unstable(&mut got);
            assert_eq!(got, expect, "len {len}");
            for parts in [2, 3, 7] {
                let mut cut = v.clone();
                sort_in_parts(&mut cut, parts);
                assert_eq!(cut, expect, "len {len} parts {parts}");
            }
        }
    }
}
