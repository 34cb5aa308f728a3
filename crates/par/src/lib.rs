#![deny(missing_docs)]
//! A small deterministic parallel runtime for the VAESA hot paths.
//!
//! Every primitive here is built on scoped `std::thread` workers — no
//! external dependencies — and obeys one hard rule: **the output is
//! byte-identical regardless of thread count**. Work may be *scheduled*
//! dynamically, but results are always written back in input order and no
//! primitive ever changes the arithmetic it was asked to perform. Callers
//! that need reproducible randomness draw their RNG streams *before* fanning
//! out, so the worker pool never observes an RNG.
//!
//! Workers enter their caller's `vaesa-obs` [`Scope`](vaesa_obs::Scope),
//! so order-sensitive observability written inside a parallel section is
//! buffered with the work item that called it.
//!
//! The pool size defaults to [`std::thread::available_parallelism`] and can
//! be overridden with the `VAESA_THREADS` environment variable (a positive
//! integer; `1` forces fully serial execution).
//!
//! # Examples
//!
//! ```
//! let squares = vaesa_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Pool-usage counters on the global observability registry. Cached in
/// statics so the hot entry points pay one atomic increment per *call*
/// (never per element) after first use. Call counts depend only on the
/// call sites, never on the pool size, so they stay thread-count-invariant
/// under the determinism policy.
fn par_map_calls() -> &'static Arc<vaesa_obs::Counter> {
    static C: OnceLock<Arc<vaesa_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| vaesa_obs::counter("par.par_map_calls"))
}

fn par_chunks_calls() -> &'static Arc<vaesa_obs::Counter> {
    static C: OnceLock<Arc<vaesa_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| vaesa_obs::counter("par.par_chunks_calls"))
}

/// Parses a thread-count override string (the `VAESA_THREADS` format).
///
/// Returns `None` for anything that is not a positive integer.
fn parse_threads(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The worker-pool size used by [`par_map`] and [`par_chunks_mut`]:
/// the `VAESA_THREADS` environment variable if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("VAESA_THREADS") {
        if let Some(n) = parse_threads(&v) {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Index-preserving parallel map over a slice with the default pool size.
///
/// Semantically identical to `items.iter().map(f).collect()`: element `i` of
/// the result is `f(&items[i])`, in order, for any thread count. Work items
/// are claimed dynamically (an atomic cursor), so uneven per-item cost —
/// e.g. scheduler queries that hit or miss the mapping cache — balances
/// across workers.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(items, num_threads(), f)
}

/// [`par_map`] with an explicit worker count (`threads >= 1`).
///
/// `threads == 1` runs serially on the calling thread with no pool at all,
/// which property tests use as the reference implementation.
///
/// # Panics
///
/// Panics if `threads` is zero or if a worker panics.
pub fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(threads >= 1, "need at least one thread");
    par_map_calls().incr();
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let obs_scope = vaesa_obs::Scope::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let _inherit = obs_scope.as_ref().map(vaesa_obs::Scope::enter);
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("par_map worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Splits `data` into contiguous chunks of `chunk_len` elements and runs
/// `f(chunk_index, start_offset, chunk)` on each, in parallel, using the
/// default pool size.
///
/// Chunks are disjoint `&mut` borrows, so each invocation owns its slice
/// exclusively; determinism follows because chunk boundaries depend only on
/// `chunk_len`, never on the thread count. Chunk assignment is static
/// round-robin — appropriate for uniform work like matmul row blocks.
///
/// # Panics
///
/// Panics if `chunk_len` is zero or a worker panics.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    par_chunks_mut_threads(data, chunk_len, num_threads(), f)
}

/// [`par_chunks_mut`] with an explicit worker count.
///
/// # Panics
///
/// Panics if `chunk_len` or `threads` is zero, or if a worker panics.
pub fn par_chunks_mut_threads<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    assert!(chunk_len >= 1, "chunk_len must be positive");
    assert!(threads >= 1, "need at least one thread");
    par_chunks_calls().incr();
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = threads.min(n_chunks).max(1);
    if threads == 1 {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci, ci * chunk_len, chunk);
        }
        return;
    }
    // Distribute chunks round-robin: worker w gets chunks w, w+T, w+2T, ...
    let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..threads).map(|_| Vec::new()).collect();
    for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
        buckets[ci % threads].push((ci, chunk));
    }
    let obs_scope = vaesa_obs::Scope::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(|| {
                    let _inherit = obs_scope.as_ref().map(vaesa_obs::Scope::enter);
                    for (ci, chunk) in bucket {
                        f(ci, ci * chunk_len, chunk);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("par_chunks worker panicked");
        }
    });
}

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal
/// length, in order. Used by callers that want one range per worker.
///
/// Returns an empty vector when `n == 0`.
///
/// # Panics
///
/// Panics if `parts` is zero.
pub fn split_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts >= 1, "parts must be positive");
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map_threads(&items, threads, |&x| x * 2 + 1);
            let expected: Vec<usize> = items.iter().map(|&x| x * 2 + 1).collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_threads(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map_threads(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_balances_uneven_work() {
        // Items with wildly uneven cost still land in their slots.
        let items: Vec<u64> = (0..64)
            .map(|i| if i % 7 == 0 { 200_000 } else { 10 })
            .collect();
        let spin = |&n: &u64| -> u64 { (0..n).fold(0, |acc, v| acc.wrapping_add(v ^ acc)) };
        let serial: Vec<u64> = items.iter().map(spin).collect();
        assert_eq!(par_map_threads(&items, 4, spin), serial);
    }

    #[test]
    fn par_chunks_mut_matches_serial_across_thread_counts() {
        let reference = {
            let mut data: Vec<f64> = (0..997).map(|i| i as f64).collect();
            for (ci, offset, chunk) in chunk_iter(&mut data, 10) {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = *v * 2.0 + (ci + offset + j) as f64;
                }
            }
            data
        };
        for threads in [1, 2, 5, 16] {
            let mut data: Vec<f64> = (0..997).map(|i| i as f64).collect();
            par_chunks_mut_threads(&mut data, 10, threads, |ci, offset, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = *v * 2.0 + (ci + offset + j) as f64;
                }
            });
            assert_eq!(data, reference, "threads = {threads}");
        }
    }

    /// Serial reference for the chunk traversal (index, offset, chunk).
    fn chunk_iter(data: &mut [f64], chunk_len: usize) -> Vec<(usize, usize, &mut [f64])> {
        data.chunks_mut(chunk_len)
            .enumerate()
            .map(|(ci, c)| (ci, ci * chunk_len, c))
            .collect()
    }

    #[test]
    fn split_ranges_covers_exactly() {
        for (n, parts) in [(0, 3), (1, 4), (7, 3), (12, 4), (13, 4), (100, 7)] {
            let ranges = split_ranges(n, parts);
            let mut covered = 0;
            let mut prev_end = 0;
            for r in &ranges {
                assert_eq!(r.start, prev_end, "ranges must be contiguous");
                assert!(!r.is_empty(), "no empty ranges");
                covered += r.len();
                prev_end = r.end;
            }
            assert_eq!(covered, n, "n={n} parts={parts}");
            assert!(ranges.len() <= parts);
            // Near-equal: lengths differ by at most one.
            if let (Some(min), Some(max)) = (
                ranges.iter().map(Range::len).min(),
                ranges.iter().map(Range::len).max(),
            ) {
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn workers_write_into_their_callers_scope() {
        let obs_scope = vaesa_obs::Scope::new();
        {
            let _in = obs_scope.enter();
            par_map_threads(&[1.0, 2.0, 3.0, 4.0], 4, |&x: &f64| {
                vaesa_obs::series("par.test.scoped").push(x);
            });
            let mut data = [0u8; 8];
            par_chunks_mut_threads(&mut data, 2, 4, |ci, _, _| {
                vaesa_obs::series("par.test.scoped_chunks").push(ci as f64);
            });
        }
        // Everything landed in the caller's scope, nothing escaped to the
        // global registry.
        let mut pushed = obs_scope.series("par.test.scoped").values();
        pushed.sort_by(f64::total_cmp);
        assert_eq!(pushed, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(obs_scope.series("par.test.scoped_chunks").len(), 4);
        assert!(vaesa_obs::global().series("par.test.scoped").is_empty());
        assert!(vaesa_obs::global()
            .series("par.test.scoped_chunks")
            .is_empty());
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 2 "), Some(2));
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("abc"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = par_map_threads(&[1, 2, 3], 0, |&x: &i32| x);
    }

    proptest! {
        /// The satellite-task property test: `par_map` matches the serial
        /// map element-for-element for arbitrary inputs and thread counts.
        #[test]
        fn par_map_matches_serial_map(
            items in proptest::collection::vec(-1e12f64..1e12, 0..200),
            threads in 1usize..9,
        ) {
            let f = |&x: &f64| (x * 1.5 - 7.0, x.to_bits());
            let serial: Vec<_> = items.iter().map(f).collect();
            let parallel = par_map_threads(&items, threads, f);
            prop_assert_eq!(parallel, serial);
        }

        #[test]
        fn split_ranges_partitions(n in 0usize..5000, parts in 1usize..17) {
            let ranges = split_ranges(n, parts);
            let total: usize = ranges.iter().map(Range::len).sum();
            prop_assert_eq!(total, n);
        }
    }
}
