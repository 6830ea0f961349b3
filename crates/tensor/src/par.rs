//! Worker-count policy and the one persistent worker pool that
//! [`map_indices`] — the per-expert fallback loop of `fsmoe` — fans out
//! on. Only independent work comes here: a GEMM runs on the thread that
//! calls it, and the runtime's other parallelism is one thread per rank.
//!
//! # The pool
//!
//! A fan-out is a *job*: `bands` independent pieces of work, claimed one
//! at a time through an atomic counter. The calling thread publishes the
//! job to up to `threads − 1` workers over their `mpsc` channels and
//! then **claims bands itself** until none are left, so a job completes
//! even if no worker ever shows up; it only ever waits for bands a
//! worker has already claimed and is running. That is the whole
//! progress argument: every wait points at a thread that is executing,
//! never at a queue. Any number of rank threads can fan out at once,
//! and a band may fan out again (the worker running it simply becomes
//! the caller of the nested job).
//!
//! Workers are spawned once, lazily, on the first fan-out that asks for
//! more than one thread: [`num_threads`]` − 1` of them, so
//! `TENSOR_THREADS=1` never starts a thread. An idle worker polls its
//! channel for [`SPIN`] (a hand-off to a spinning worker costs well
//! under a microsecond) and then blocks in `recv`, where waking it
//! costs the caller one futex call; the caller meanwhile is already
//! running bands.
//!
//! Built from atomics, `mpsc` and `thread::park` only — no `Mutex`, no
//! `Condvar` — so there is no lock for the lock doctor to order.
//!
//! # Determinism
//!
//! Which thread runs which band is decided by a race; *what* a band
//! computes is not. Bands write disjoint outputs and run on whichever
//! thread claims them with that thread's own buffers, so results are
//! bit-identical for every thread count and every interleaving.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long an idle worker (and a caller waiting for the last claimed
/// bands) polls before it blocks. Long enough to bridge the serial
/// glue between the GEMMs of one layer, short enough that an idle pool
/// costs nothing measurable.
const SPIN: Duration = Duration::from_micros(100);
/// Polls between two clock reads while spinning.
const POLLS_PER_CLOCK_READ: usize = 32;

/// Default worker count for fan-outs on the pool.
///
/// `TENSOR_THREADS` (a positive integer) overrides the hardware count;
/// unset, empty, or invalid values fall back to
/// [`std::thread::available_parallelism`]. The pool holds this many
/// threads minus the caller.
///
/// # Read-once semantics
///
/// The environment variable is read **once per process**, on the first
/// call, and the result is latched in a `OnceLock` forever after.
/// Setting `TENSOR_THREADS` *after* the first fan-out has **no
/// effect**; the latch is deliberate so mid-run environment changes can
/// never make two halves of a computation disagree about the worker
/// count. Code that needs a specific count at a specific call site
/// passes it explicitly ([`map_indices`]' `threads`) instead of mutating
/// the environment. The test
/// `tensor_threads_env_is_latched_after_first_read` pins this behaviour.
pub fn num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("TENSOR_THREADS")
            .ok()
            .and_then(|raw| parse_thread_override(&raw))
            .unwrap_or_else(hardware_threads)
    })
}

/// The hardware-reported parallelism (1 when unknown).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `TENSOR_THREADS` value; `None` means "use the hardware
/// count" (covers empty, non-numeric, and zero inputs).
pub fn parse_thread_override(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// One fan-out. Shared with the workers through an `Arc`, so a worker
/// that dequeues it late — after the caller has returned — still finds
/// the counters alive, sees every band claimed and drops it untouched.
struct Job {
    /// The caller's band closure, lifetime erased. Only dereferenced by
    /// a thread holding a claimed band index (see [`Job::run_claimed`]).
    work: *const (dyn Fn(usize) + Sync),
    bands: usize,
    /// Next unclaimed band.
    next: AtomicUsize,
    /// Bands finished.
    done: AtomicUsize,
    panicked: AtomicBool,
    /// The first panic's payload: written by the one band that flips
    /// `panicked`, taken by the caller once every band has finished.
    panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
    caller: Thread,
}

// SAFETY: `work` points at a `Sync` closure, so calling it from several
// threads is sound; the pointer is only dereferenced while the closure
// is alive (argued at the dereference). `panic` has one writer and one
// later reader (argued at both accesses). The other fields are atomics
// and a `Thread` handle.
unsafe impl Send for Job {}
// SAFETY: as above.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs bands until none are left.
    fn run_claimed(&self, is_caller: bool) {
        loop {
            // Relaxed: the counter hands out indices and publishes no
            // data; the closure's captures reached this thread through
            // the channel (or belong to it, for the caller).
            let band = self.next.fetch_add(1, Ordering::Relaxed);
            if band >= self.bands {
                return;
            }
            // SAFETY: `band < bands` was claimed and is not yet counted
            // in `done`; `Pool::run` does not return (nor unwind) before
            // `done == bands`, so the closure it borrows is alive.
            let work = unsafe { &*self.work };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(band))) {
                if !self.panicked.swap(true, Ordering::Relaxed) {
                    // SAFETY: the swap admits exactly one writer, and
                    // the caller reads only after it has observed this
                    // band's `done` increment below.
                    unsafe { *self.panic.get() = Some(payload) };
                }
            }
            // Release: the band's writes happen-before the caller's
            // Acquire load that observes the final count.
            let finished = self.done.fetch_add(1, Ordering::AcqRel) + 1;
            if finished == self.bands && !is_caller {
                self.caller.unpark();
            }
        }
    }

    /// Blocks the caller until every band has finished: polls for
    /// [`SPIN`], then parks (the worker finishing the last band unparks).
    fn wait(&self) {
        let started = Instant::now();
        let mut polls = 0usize;
        while self.done.load(Ordering::Acquire) != self.bands {
            polls += 1;
            if polls.is_multiple_of(POLLS_PER_CLOCK_READ) && started.elapsed() >= SPIN {
                std::thread::park();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// The worker threads, addressed by their job channels.
struct Pool {
    workers: Vec<Sender<Arc<Job>>>,
    /// Round-robin start so concurrent callers spread over the workers.
    cursor: AtomicUsize,
}

impl Pool {
    /// Spawns up to `workers` detached threads; they exit when the pool
    /// (their senders) is dropped. A failed spawn just leaves the pool
    /// smaller — callers run whatever no worker claims.
    fn start(workers: usize) -> Pool {
        let mut senders = Vec::with_capacity(workers);
        for index in 0..workers {
            let (tx, rx) = channel::<Arc<Job>>();
            let spawned = std::thread::Builder::new()
                .name(format!("tensor-pool-{index}"))
                .spawn(move || {
                    while let Some(job) = next_job(&rx) {
                        job.run_claimed(false);
                    }
                });
            if spawned.is_err() {
                break;
            }
            senders.push(tx);
        }
        Pool {
            workers: senders,
            cursor: AtomicUsize::new(0),
        }
    }

    /// Runs `work(0..bands)` on the caller plus up to `threads − 1`
    /// workers; returns when every band has finished.
    ///
    /// # Panics
    ///
    /// Re-raises the first band panic, after all bands have finished.
    fn run(&self, bands: usize, threads: usize, work: &(dyn Fn(usize) + Sync)) {
        let helpers = threads.min(bands).saturating_sub(1).min(self.workers.len());
        if helpers == 0 {
            (0..bands).for_each(work);
            return;
        }
        // SAFETY: only the lifetime is erased. `run_claimed` dereferences
        // the pointer solely for a claimed band, and this function waits
        // for every claimed band before it returns or panics.
        let work: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(work)
        };
        let job = Arc::new(Job {
            work,
            bands,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic: UnsafeCell::new(None),
            caller: std::thread::current(),
        });
        // Relaxed: a load-spreading hint, no data behind it.
        let first = self.cursor.fetch_add(helpers, Ordering::Relaxed);
        for offset in 0..helpers {
            // A send only fails if the worker is gone; the caller then
            // runs that share itself.
            let _ = self.workers[(first + offset) % self.workers.len()].send(Arc::clone(&job));
        }
        job.run_claimed(true);
        job.wait();
        // SAFETY: every band has finished (`wait` saw the final count
        // with Acquire), so nothing writes the payload any more.
        if let Some(payload) = unsafe { (*job.panic.get()).take() } {
            resume_unwind(payload);
        }
    }
}

/// A worker's next job: polls the channel for [`SPIN`], then blocks.
/// `None` once the pool is gone.
fn next_job(rx: &Receiver<Arc<Job>>) -> Option<Arc<Job>> {
    let started = Instant::now();
    loop {
        for _ in 0..POLLS_PER_CLOCK_READ {
            match rx.try_recv() {
                Ok(job) => return Some(job),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
            }
        }
        if started.elapsed() >= SPIN {
            return rx.recv().ok();
        }
    }
}

/// Fans `work(0..bands)` out on the process-wide pool, capped at
/// `threads` participants (the caller included). Serial requests never
/// touch — and so never start — the pool.
fn run(bands: usize, threads: usize, work: &(dyn Fn(usize) + Sync)) {
    static POOL: OnceLock<Pool> = OnceLock::new();
    if threads.min(bands) <= 1 {
        (0..bands).for_each(work);
    } else {
        #[cfg(test)]
        JOBS_SUBMITTED.with(|jobs| jobs.set(jobs.get() + 1));
        POOL.get_or_init(|| Pool::start(num_threads() - 1))
            .run(bands, threads, work);
    }
}

#[cfg(test)]
thread_local! {
    /// Jobs this thread has handed to the pool, so a test can show that
    /// a call never reached it.
    pub(crate) static JOBS_SUBMITTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A raw pointer the band closure may share: every band touches a
/// disjoint slot behind it.
struct SharedPtr<T>(*mut T);

// SAFETY: `map_indices` hands each band index an exclusive slot, and
// each index is claimed exactly once.
unsafe impl<T: Send> Send for SharedPtr<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for SharedPtr<T> {}

impl<T> SharedPtr<T> {
    /// By-method access so closures capture the wrapper, not the field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// `(0..count).map(op)` on up to `threads` threads of the pool, results
/// in index order. Indices are claimed one at a time, so uneven items
/// balance themselves.
pub fn map_indices<T, F>(count: usize, threads: usize, op: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads.min(count) <= 1 {
        return (0..count).map(op).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(count, || None);
    let base = SharedPtr(slots.as_mut_ptr());
    run(count, threads, &|index| {
        let value = op(index);
        // SAFETY: `index < count` is in bounds, each index runs once so
        // the slot is exclusively this call's, and `slots` outlives
        // `run`.
        unsafe { *base.get().add(index) = Some(value) };
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("run() returns after every index ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_parsing() {
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override(" 2 "), Some(2));
        assert_eq!(parse_thread_override("0"), None);
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("many"), None);
        assert_eq!(parse_thread_override("-1"), None);
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn tensor_threads_env_is_latched_after_first_read() {
        // Pin the read-once footgun: once num_threads() has been called,
        // later TENSOR_THREADS changes are invisible. (Other tests may
        // have latched the value already; either way the assertions
        // below hold — that is the point of the latch.)
        let first = num_threads();
        std::env::set_var("TENSOR_THREADS", format!("{}", first + 7));
        assert_eq!(
            num_threads(),
            first,
            "TENSOR_THREADS set after first read must be ignored"
        );
        std::env::remove_var("TENSOR_THREADS");
        assert_eq!(num_threads(), first);
    }

    /// Every band of a job runs exactly once, whatever the worker and
    /// thread counts: none skipped, none run twice by a racing claim.
    #[test]
    fn bands_cover_every_row_exactly_once() {
        for workers in [0usize, 1, 3] {
            let pool = Pool::start(workers);
            for (bands, threads) in [(0, 2), (1, 2), (7, 2), (16, 4), (40, 8)] {
                let runs: Vec<AtomicUsize> = (0..bands).map(|_| AtomicUsize::new(0)).collect();
                pool.run(bands, threads, &|band| {
                    runs[band].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "workers={workers} bands={bands} threads={threads}"
                );
            }
        }
    }

    /// A fan-out with nothing to share — no items, one item, or one
    /// thread — runs on the caller and hands the pool no job.
    #[test]
    fn zero_width_rows_run_serially() {
        let caller = std::thread::current().id();
        let jobs = || JOBS_SUBMITTED.with(std::cell::Cell::get);
        let before = jobs();
        for (count, threads) in [(0usize, 4usize), (1, 4), (5, 1), (5, 0)] {
            let ran_on = map_indices(count, threads, |_| std::thread::current().id());
            assert_eq!(
                ran_on,
                vec![caller; count],
                "count={count} threads={threads}"
            );
        }
        assert_eq!(jobs(), before);
    }

    #[test]
    fn map_indices_keeps_index_order() {
        for threads in [0usize, 1, 2, 3, 8] {
            assert_eq!(
                map_indices(5, threads, |i| i * 10),
                vec![0, 10, 20, 30, 40],
                "threads={threads}"
            );
            assert!(map_indices(0, threads, |i| i).is_empty());
        }
    }

    /// Sum of `0..n` computed through a fan-out of `n` bands.
    fn fan_out_sum(pool: &Pool, n: usize, threads: usize) -> usize {
        let total = AtomicUsize::new(0);
        pool.run(n, threads, &|band| {
            total.fetch_add(band, Ordering::Relaxed);
        });
        total.load(Ordering::Relaxed)
    }

    #[test]
    fn concurrent_and_nested_callers_share_one_pool_without_deadlock() {
        // One worker, three threads wanting it: two callers fanning out
        // at once, each band fanning out again from whichever thread
        // runs it. Every wait must resolve because callers claim bands
        // themselves.
        let pool = Pool::start(1);
        let barrier = std::sync::Barrier::new(2);
        let sums: Vec<usize> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let outer = AtomicUsize::new(0);
                        for _ in 0..200 {
                            pool.run(4, 2, &|band| {
                                let inner = fan_out_sum(&pool, 5, 2);
                                outer.fetch_add(band * inner, Ordering::Relaxed);
                            });
                        }
                        outer.load(Ordering::Relaxed)
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller"))
                .collect()
        });
        // (0+1+2+3) · (0+1+2+3+4) per round
        assert_eq!(sums, vec![200 * 6 * 10; 2]);
    }

    #[test]
    fn pool_with_more_workers_than_bands_and_fewer() {
        for workers in [0usize, 1, 3] {
            let pool = Pool::start(workers);
            for (bands, threads) in [(0, 4), (1, 4), (7, 2), (7, 16), (64, 3)] {
                assert_eq!(
                    fan_out_sum(&pool, bands, threads),
                    bands * bands.saturating_sub(1) / 2,
                    "workers={workers} bands={bands} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_band_surfaces_after_all_bands_finished() {
        let pool = Pool::start(1);
        let finished = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(6, 2, &|band| {
                if band == 2 {
                    panic!("band 2 fails");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = outcome.expect_err("the band's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"band 2 fails"));
        assert_eq!(finished.load(Ordering::Relaxed), 5);
        // the pool survives a panicking band
        assert_eq!(fan_out_sum(&pool, 4, 2), 6);
    }
}
