//! Deterministic parallel execution engine for the analysis side of the
//! pipeline.
//!
//! The per-branch machine search, the suite profiling runs and the
//! table/figure sweeps are all embarrassingly parallel: every unit of work
//! is a pure function of read-only inputs. [`par_map`] fans such work out
//! over `std::thread::scope` — the calling thread works alongside the
//! threads it spawns — and merges the results back **in input order**, so
//! the output is bit-identical to the serial path no matter how the OS
//! schedules the workers.
//!
//! Thread count resolution, in priority order:
//!
//! 1. `BREPL_THREADS=<n>` environment variable (`1` forces serial);
//! 2. [`std::thread::available_parallelism`].
//!
//! Nested calls run serially: a `par_map` issued from inside a `par_map`
//! worker (the calling thread included, while it works on its share) does
//! not spawn further threads, so parallel bench drivers can
//! call parallel library entry points without oversubscribing the machine.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// True inside a `par_map` worker, and on the calling thread while it
    /// works on its share; makes nested calls serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Upper bound on worker threads — beyond this the scoped-thread spawn
/// cost dominates any realistic analysis workload.
const MAX_THREADS: usize = 64;

/// The number of worker threads [`par_map`] will use.
///
/// Reads `BREPL_THREADS` (clamped to `1..=64`) and falls back to the
/// machine's available parallelism. Returns `1` when called from inside
/// a `par_map` worker.
pub fn thread_count() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    if let Ok(v) = std::env::var("BREPL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, MAX_THREADS);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(MAX_THREADS))
        .unwrap_or(1)
}

/// Applies `f` to every element of `items` using up to `threads` workers
/// — the calling thread and `threads - 1` spawned ones — and returns the
/// results in input order.
///
/// Work is distributed dynamically (an atomic cursor), so uneven per-item
/// costs — the per-branch search varies by ~5× — still balance. Each
/// worker records `(index, result)` pairs; the merge sorts by index, so
/// the output is **deterministic and identical to the serial path**
/// regardless of scheduling.
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, MAX_THREADS).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    run_parallel(threads, items, &f)
}

/// [`par_map_with`] at the engine's default [`thread_count`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(thread_count(), items, f)
}

fn run_parallel<T, R, F>(threads: usize, items: &[T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // A panic payload with the index of the item whose closure raised it.
    type Panic = (usize, Box<dyn std::any::Any + Send + 'static>);

    let cursor = AtomicUsize::new(0);
    // One worker's share: claim items off the shared cursor until none
    // are left.
    let drain = || {
        let mut out = Vec::new();
        let mut caught: Option<Panic> = None;
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            // Catch panics from `f` so every item is still claimed and all
            // workers drain the cursor: no deadlock, no item processed
            // twice, and — because every panicking item panics, not just
            // whichever raced first — the payload re-raised below is the
            // one the serial path would have raised. AssertUnwindSafe is
            // sound here: on panic, all results are discarded and the
            // payload re-raised.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items[i]))) {
                Ok(r) => out.push((i, r)),
                Err(payload) => match &caught {
                    Some((j, _)) if *j <= i => {}
                    _ => caught = Some((i, payload)),
                },
            }
        }
        (out, caught)
    };
    let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
    let mut panics: Vec<Panic> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    drain()
                })
            })
            .collect();
        // The calling thread is the last worker rather than waiting idle;
        // while it works, nested calls from its items run serially too.
        let was_worker = IN_WORKER.with(|w| w.replace(true));
        let own = drain();
        IN_WORKER.with(|w| w.set(was_worker));
        let joined = handles.into_iter().map(|h| {
            // Workers catch panics from `f`; a join error would be a bug in
            // `drain`, so surface it with a sentinel index.
            h.join()
                .unwrap_or_else(|payload| (Vec::new(), Some((usize::MAX, payload))))
        });
        for (out, caught) in joined.chain([own]) {
            parts.push(out);
            panics.extend(caught);
        }
    });
    // Deterministic panic propagation: after all workers finish, re-raise
    // the payload of the lowest item index — exactly what the serial path
    // surfaces first.
    if let Some((_, payload)) = panics.into_iter().min_by_key(|p| p.0) {
        std::panic::resume_unwind(payload);
    }
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    for part in &mut parts {
        indexed.append(part);
    }
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map_with(8, &items, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_matches_serial_under_uneven_cost() {
        let items: Vec<u64> = (0..257).collect();
        let work = |&x: &u64| -> u64 {
            // Cost varies by item so workers interleave arbitrarily.
            let mut acc = x;
            for i in 0..(x % 17) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let serial = par_map_with(1, &items, work);
        let parallel = par_map_with(4, &items, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(4, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn nested_calls_stay_serial() {
        let items: Vec<u32> = (0..16).collect();
        let out = par_map_with(4, &items, |&x| {
            // Inside a worker the engine reports a single thread, so the
            // nested map cannot oversubscribe.
            assert_eq!(thread_count(), 1);
            let inner: Vec<u32> = par_map(&[x, x + 1], |&y| y * 2);
            inner.iter().sum::<u32>()
        });
        let expect: Vec<u32> = items.iter().map(|&x| 4 * x + 2).collect();
        assert_eq!(out, expect);
    }

    /// The calling thread works its share of the items as a worker: its
    /// nested calls stay serial, and its thread count is restored after.
    #[test]
    fn calling_thread_works_as_a_worker() {
        let caller = std::thread::current().id();
        let before = thread_count();
        // Every item waits for one on the other thread, so each of the
        // two workers runs exactly half of the items.
        let both = std::sync::Barrier::new(2);
        let items: Vec<u32> = (0..8).collect();
        let ran = par_map_with(2, &items, |&x| {
            both.wait();
            let me = std::thread::current().id();
            assert_eq!(thread_count(), 1);
            let inner = par_map(&[x, x + 1, x + 2], |&y| {
                assert_eq!(std::thread::current().id(), me, "nested call spawned");
                y
            });
            assert_eq!(inner, [x, x + 1, x + 2]);
            me == caller
        });
        assert_eq!(ran.iter().filter(|&&by_caller| by_caller).count(), 4);
        assert_eq!(thread_count(), before);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    /// S1 of the robustness work: a panicking closure must surface the
    /// *same* payload in serial and parallel modes — the lowest-index
    /// item's panic — with no hang and no lost workers.
    #[test]
    fn panics_surface_identically_serial_and_parallel() {
        let items: Vec<u64> = (0..64).collect();
        let boom = |&x: &u64| -> u64 {
            if x % 10 == 3 {
                panic!("boom at item {x}");
            }
            x * 2
        };
        let serial = std::panic::catch_unwind(|| par_map_with(1, &items, boom))
            .expect_err("serial path must panic");
        let parallel = std::panic::catch_unwind(|| par_map_with(4, &items, boom))
            .expect_err("parallel path must panic");
        let s = serial
            .downcast_ref::<String>()
            .expect("payload is the format string");
        let p = parallel
            .downcast_ref::<String>()
            .expect("payload is the format string");
        // Items 3, 13, 23, ... all panic; both modes must surface item 3.
        assert_eq!(s, "boom at item 3");
        assert_eq!(s, p);
    }

    /// After a propagated panic the engine is still usable: workers were
    /// joined, the cursor state was scoped, nothing is poisoned.
    #[test]
    fn engine_survives_a_propagated_panic() {
        let items: Vec<u32> = (0..32).collect();
        let _ = std::panic::catch_unwind(|| {
            par_map_with(4, &items, |&x: &u32| -> u32 {
                if x == 7 {
                    panic!("one-off");
                }
                x
            })
        });
        let out = par_map_with(4, &items, |&x| x + 1);
        let expect: Vec<u32> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(out, expect);
    }
}
