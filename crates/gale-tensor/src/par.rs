//! Std-only parallel runtime for the GALE hot kernels.
//!
//! A persistent worker pool (plain `std::thread` workers parked on a
//! condvar) executes chunked loops submitted from the caller thread, which
//! participates in the work and blocks until every chunk has finished.
//!
//! # Determinism contract
//!
//! Parallel and sequential execution produce **bitwise-identical** results:
//!
//! * Chunk boundaries come from [`chunk_ranges`], a pure function of the
//!   problem size `n` — never of the thread count.
//! * Each chunk's work is computed with exactly the same scalar arithmetic
//!   regardless of which thread claims it.
//! * Reductions ([`par_map_reduce`]) collect one partial per chunk and fold
//!   them on the caller thread in ascending chunk order, so floating-point
//!   addition order is fixed.
//! * `GALE_THREADS=1` (or [`with_threads`]`(1, ..)`) runs the very same
//!   chunked code on the caller thread alone; only the schedule changes.
//!
//! # Sizing
//!
//! The pool holds `max_threads() - 1` workers, where `max_threads()` is
//! `GALE_THREADS` when set (minimum 1) and otherwise
//! `std::thread::available_parallelism()`. [`with_threads`] caps the number
//! of threads used by calls on the current thread — handy for comparing
//! thread counts in one process.
//!
//! Nested calls (a parallel region invoked from inside another parallel
//! region) degrade gracefully to sequential execution on the calling
//! worker, so kernels can use `par` freely without deadlock risk.
//!
//! # Telemetry
//!
//! With `GALE_OBS=1` every top-level job records `par.jobs`, `par.chunks`,
//! `par.busy_us`, per-worker `par.worker.{i}.busy_us` / `.chunks`, and a
//! `par.utilization` gauge (busy time over participant wall-time).
//! Sequential fallbacks count into `par.sequential`. Telemetry reads the
//! clock but never touches the chunking or arithmetic, so the determinism
//! contract holds with it on or off.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Upper bound on chunks per loop; a fixed constant so chunk boundaries
/// never depend on the machine.
const MAX_CHUNKS: usize = 64;

/// Maximum threads the runtime may use: `GALE_THREADS` if set, else the
/// machine's available parallelism.
pub fn max_threads() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| match std::env::var("GALE_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    })
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Threads that calls on the current thread will use right now.
pub fn current_threads() -> usize {
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(max_threads)
        .max(1)
}

/// Runs `f` with parallel calls on this thread capped at `n` threads
/// (`n = 1` forces the sequential path). The cap is restored afterwards,
/// also on panic.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|o| o.replace(Some(n.max(1)))));
    f()
}

/// Deterministic chunk boundaries for a loop over `0..n`: at most
/// `MAX_CHUNKS` near-equal ranges, a pure function of `n`.
pub fn chunk_ranges(n: usize) -> Vec<Range<usize>> {
    let chunks = n.min(MAX_CHUNKS);
    (0..chunks)
        .map(|c| (c * n / chunks)..((c + 1) * n / chunks))
        .collect()
}

struct PoolState {
    generation: u64,
    job: Option<Job>,
}

struct Pool {
    state: Mutex<PoolState>,
    wake: Condvar,
    /// Serializes top-level submissions; concurrent submitters fall back to
    /// sequential execution rather than queueing.
    busy: Mutex<()>,
}

#[derive(Clone)]
struct Job {
    /// The chunk executor, lifetime-erased. Safety: the submitting caller
    /// blocks on `done` until `remaining == 0`, so the referent outlives
    /// every use.
    func: &'static (dyn Fn(usize) + Sync),
    next: Arc<AtomicUsize>,
    total: usize,
    remaining: Arc<AtomicUsize>,
    panicked: Arc<AtomicBool>,
    participants: Arc<AtomicUsize>,
    max_extra: usize,
    done: Arc<(Mutex<()>, Condvar)>,
    /// Nanoseconds all participants spent inside chunk bodies (telemetry;
    /// only written when `gale_obs::enabled()`).
    busy_ns: Arc<AtomicU64>,
}

impl Job {
    /// Claims and executes chunks until none remain. Returns this
    /// participant's `(busy_ns, chunks)` tally — zeros with telemetry off.
    fn execute(&self) -> (u64, u64) {
        let live = gale_obs::enabled();
        let mut my_busy = 0u64;
        let mut my_chunks = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return (my_busy, my_chunks);
            }
            let t = if live { Some(Instant::now()) } else { None };
            if catch_unwind(AssertUnwindSafe(|| (self.func)(i))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            if let Some(t) = t {
                let ns = t.elapsed().as_nanos() as u64;
                my_busy += ns;
                my_chunks += 1;
                // Added before the `remaining` release below, so the
                // caller's acquire load sees a complete busy total.
                self.busy_ns.fetch_add(ns, Ordering::Relaxed);
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last chunk: wake the caller. Taking the mutex first
                // pairs with the caller's check-then-wait, so the wakeup
                // cannot be lost.
                let _guard = self.done.0.lock().unwrap();
                self.done.1.notify_all();
            }
        }
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            generation: 0,
            job: None,
        }),
        wake: Condvar::new(),
        busy: Mutex::new(()),
    })
}

fn spawn_workers() {
    static SPAWNED: OnceLock<()> = OnceLock::new();
    SPAWNED.get_or_init(|| {
        let workers = max_threads().saturating_sub(1);
        for w in 0..workers {
            std::thread::Builder::new()
                .name(format!("gale-par-{w}"))
                .spawn(move || worker_loop(w))
                .expect("spawn gale-par worker");
        }
    });
}

fn worker_loop(w: usize) {
    IN_PARALLEL.with(|f| f.set(true));
    let pool = pool();
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = pool.state.lock().unwrap();
            loop {
                if st.generation != seen {
                    seen = st.generation;
                    if let Some(job) = st.job.clone() {
                        break job;
                    }
                }
                st = pool.wake.wait(st).unwrap();
            }
        };
        // Honor per-call thread caps: only `max_extra` workers join in.
        if job.participants.fetch_add(1, Ordering::Relaxed) < job.max_extra {
            let (busy_ns, chunks) = job.execute();
            if chunks > 0 {
                // Per-worker tallies; the registry lookup is once per job,
                // not per chunk, and only happens with telemetry on.
                gale_obs::metrics::counter(&format!("par.worker.{w}.busy_us")).add(busy_ns / 1_000);
                gale_obs::metrics::counter(&format!("par.worker.{w}.chunks")).add(chunks);
            }
        }
    }
}

/// Executes `f(chunk_index)` for every `chunk_index in 0..total`, using up
/// to `current_threads()` threads. Falls back to an in-order sequential
/// loop when parallelism is unavailable or not worthwhile. Panics in `f`
/// are propagated after all chunks have finished.
pub fn par_run(total: usize, f: &(dyn Fn(usize) + Sync)) {
    let threads = current_threads();
    if total <= 1 || threads <= 1 || IN_PARALLEL.with(|p| p.get()) {
        gale_obs::counter_add!("par.sequential", 1);
        for i in 0..total {
            f(i);
        }
        return;
    }
    spawn_workers();
    let pool = pool();
    let Ok(_busy) = pool.busy.try_lock() else {
        // Another thread is mid-submission; stay sequential.
        gale_obs::counter_add!("par.sequential", 1);
        for i in 0..total {
            f(i);
        }
        return;
    };
    let t_wall = Instant::now();

    // SAFETY (lifetime erasure): this function does not return until
    // `remaining` hits zero, i.e. until no thread will touch `func` again,
    // so extending the borrow to 'static never outlives the real borrow.
    let func: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
    let job = Job {
        func,
        next: Arc::new(AtomicUsize::new(0)),
        total,
        remaining: Arc::new(AtomicUsize::new(total)),
        panicked: Arc::new(AtomicBool::new(false)),
        participants: Arc::new(AtomicUsize::new(0)),
        max_extra: threads - 1,
        done: Arc::new((Mutex::new(()), Condvar::new())),
        busy_ns: Arc::new(AtomicU64::new(0)),
    };
    {
        let mut st = pool.state.lock().unwrap();
        st.generation += 1;
        st.job = Some(job.clone());
        pool.wake.notify_all();
    }

    // The caller participates, flagged so nested regions stay sequential.
    IN_PARALLEL.with(|p| p.set(true));
    let (caller_busy, caller_chunks) = job.execute();
    IN_PARALLEL.with(|p| p.set(false));

    let (done_lock, done_cv) = &*job.done;
    let mut guard = done_lock.lock().unwrap();
    while job.remaining.load(Ordering::Acquire) != 0 {
        guard = done_cv.wait(guard).unwrap();
    }
    drop(guard);

    let mut st = pool.state.lock().unwrap();
    st.job = None;
    drop(st);

    if gale_obs::enabled() {
        // Utilization: fraction of participant wall-time spent inside
        // chunk bodies. `participants` counts workers that *tried* to
        // join; only `max_extra` of them actually executed, plus the
        // caller.
        let wall_ns = t_wall.elapsed().as_nanos().max(1) as u64;
        let executing = job.participants.load(Ordering::Relaxed).min(job.max_extra) as u64 + 1;
        let busy_ns = job.busy_ns.load(Ordering::Relaxed);
        gale_obs::counter_add!("par.jobs", 1);
        gale_obs::counter_add!("par.chunks", total as u64);
        gale_obs::counter_add!("par.busy_us", busy_ns / 1_000);
        gale_obs::counter_add!("par.caller.busy_us", caller_busy / 1_000);
        gale_obs::counter_add!("par.caller.chunks", caller_chunks);
        gale_obs::gauge_set!(
            "par.utilization",
            (busy_ns as f64 / (wall_ns as f64 * executing as f64)).min(1.0)
        );
    }

    if job.panicked.load(Ordering::Relaxed) {
        panic!("a gale_tensor::par task panicked");
    }
}

/// Runs `body` over the deterministic chunking of `0..n` in parallel.
pub fn par_chunks(n: usize, body: impl Fn(Range<usize>) + Sync) {
    let ranges = chunk_ranges(n);
    par_run(ranges.len(), &|c| body(ranges[c].clone()));
}

/// Maps each deterministic chunk of `0..n` to a partial result, then folds
/// the partials **on the caller thread in ascending chunk order**, making
/// the reduction order independent of the schedule. Returns `None` for
/// `n == 0`.
pub fn par_map_reduce<T: Send>(
    n: usize,
    map: impl Fn(Range<usize>) -> T + Sync,
    mut reduce: impl FnMut(T, T) -> T,
) -> Option<T> {
    let ranges = chunk_ranges(n);
    let slots: Vec<Mutex<Option<T>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    par_run(ranges.len(), &|c| {
        let value = map(ranges[c].clone());
        *slots[c].lock().unwrap() = Some(value);
    });
    let mut acc: Option<T> = None;
    for slot in slots {
        let value = slot.into_inner().unwrap().expect("chunk not executed");
        acc = Some(match acc {
            None => value,
            Some(prev) => reduce(prev, value),
        });
    }
    acc
}

/// Applies `f` to every item in parallel (one task per item — intended for
/// coarse work such as per-seed experiment repetitions), collecting results
/// in item order.
pub fn par_map<I: Sync, T: Send>(items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    par_run(items.len(), &|i| {
        *slots[i].lock().unwrap() = Some(f(&items[i]));
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("item not executed"))
        .collect()
}

/// Splits `data` into the deterministic chunking of its `data.len() /
/// granule` logical rows (chunk boundaries are multiples of `granule`) and
/// hands each chunk to `body` as `(start_element_index, chunk)`, in
/// parallel. `granule` must divide `data.len()`.
pub fn par_chunks_mut<T: Send + Sync>(
    data: &mut [T],
    granule: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(granule > 0, "par_chunks_mut: zero granule");
    assert_eq!(
        data.len() % granule,
        0,
        "par_chunks_mut: granule {} does not divide len {}",
        granule,
        data.len()
    );
    let rows = data.len() / granule;
    let ranges = chunk_ranges(rows);
    let base = data.as_mut_ptr() as usize;
    par_run(ranges.len(), &|c| {
        let rows_range = &ranges[c];
        let start = rows_range.start * granule;
        let len = rows_range.len() * granule;
        // SAFETY: `chunk_ranges` yields disjoint row ranges covering
        // `0..rows`, so every reconstructed slice is disjoint from the
        // others and in-bounds; `data` is exclusively borrowed for the
        // duration of `par_run`.
        let chunk = unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(start), len) };
        body(start, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_and_are_disjoint() {
        for n in [0usize, 1, 2, 7, 63, 64, 65, 1000] {
            let ranges = chunk_ranges(n);
            let mut covered = 0usize;
            let mut prev_end = 0usize;
            for r in &ranges {
                assert_eq!(r.start, prev_end);
                prev_end = r.end;
                covered += r.len();
            }
            assert_eq!(covered, n, "n = {n}");
            assert_eq!(prev_end, n);
            assert!(ranges.len() <= MAX_CHUNKS);
        }
    }

    #[test]
    fn chunk_ranges_ignore_thread_count() {
        let a = with_threads(1, || chunk_ranges(1234));
        let b = with_threads(8, || chunk_ranges(1234));
        assert_eq!(a, b);
    }

    #[test]
    fn par_map_reduce_matches_sequential_fold() {
        let n = 10_000usize;
        let expect = with_threads(1, || {
            par_map_reduce(
                n,
                |r| r.map(|i| (i as f64).sqrt()).sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap()
        });
        for threads in [2usize, 4, 8] {
            let got = with_threads(threads, || {
                par_map_reduce(
                    n,
                    |r| r.map(|i| (i as f64).sqrt()).sum::<f64>(),
                    |a, b| a + b,
                )
                .unwrap()
            });
            assert_eq!(got.to_bits(), expect.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_rows() {
        let granule = 3usize;
        let rows = 500usize;
        let mut data = vec![0u64; rows * granule];
        with_threads(8, || {
            par_chunks_mut(&mut data, granule, |start, chunk| {
                for (off, v) in chunk.iter_mut().enumerate() {
                    *v = (start + off) as u64;
                }
            });
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..300).collect();
        let out = with_threads(8, || par_map(&items, |&i| i * 2));
        assert_eq!(out, (0..300).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_regions_stay_sequential_and_correct() {
        let n = 64usize;
        let outer = with_threads(4, || {
            par_map_reduce(
                n,
                |r| {
                    r.map(|_| par_map_reduce(100, |rr| rr.len() as u64, |a, b| a + b).unwrap())
                        .sum::<u64>()
                },
                |a, b| a + b,
            )
            .unwrap()
        });
        assert_eq!(outer, (n as u64) * 100);
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let before = current_threads();
        with_threads(3, || assert_eq!(current_threads(), 3));
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn panics_propagate_without_hanging() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_run(16, &|i| {
                    if i == 7 {
                        panic!("boom");
                    }
                });
            });
        });
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let sum = with_threads(4, || {
            par_map_reduce(100, |r| r.len(), |a, b| a + b).unwrap()
        });
        assert_eq!(sum, 100);
    }
}
