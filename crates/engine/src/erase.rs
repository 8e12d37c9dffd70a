//! The morsel executor's audited concurrency core: the persistent
//! worker pool, the completion [`Latch`]/[`WaitGuard`] pair, and the
//! **one** lifetime-erasing `transmute` in the workspace — confined to
//! this module so the `forbid-unsafe-drift` lint can pin every other
//! module unsafe-free and `ipdb-analyze` can audit the whole unsafe
//! surface in one place.
//!
//! # The erasure invariant
//!
//! [`fan_out`] hands borrowed closures to `'static` pool workers. That
//! is sound because of one guarantee this module upholds everywhere,
//! including across panics:
//!
//! > `fan_out` does not return — and does not let an unwind escape —
//! > until every job it submitted has finished running.
//!
//! The pieces that deliver it:
//!
//! * every submitted job arrives at the latch exactly once, even when
//!   its payload panics (the panic is caught first, the arrival is the
//!   last thing the job does);
//! * [`WaitGuard`] blocks in `Drop` until the expected number of
//!   arrivals, so the borrow is protected on the normal return path
//!   *and* while the caller's own panic unwinds;
//! * the latch counts arrivals under a mutex (no lost wakeup when an
//!   arrival lands before the waiter blocks) and each job arrives once
//!   (no double-release) — pinned by the exhaustive schedule
//!   permutation tests below.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

use ipdb_obs::Counter;

/// A type-erased pool job. Jobs are `'static`: [`fan_out`] erases the
/// borrow lifetime of its task and re-establishes safety by never
/// returning (or unwinding) before every job it submitted has finished.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The persistent worker pool behind [`fan_out`]. Thread creation is
/// far too slow on some hosts (hundreds of microseconds under
/// hardened/virtualized kernels) to pay per pipeline stage, so workers
/// are spawned once, park on a condvar between stages, and are shared
/// by every executor invocation in the process. Workers created for one
/// stage are reused by all later ones; the pool only ever grows, up to
/// the executor's worker clamp.
struct Pool {
    shared: Arc<PoolShared>,
    /// Worker threads spawned so far (the pool only grows).
    spawned: Mutex<usize>,
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    wake: Condvar,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                wake: Condvar::new(),
            }),
            spawned: Mutex::new(0),
        })
    }

    /// Grows the pool toward `want` parked workers and returns how many
    /// exist. Thread-spawn failure is degradation, not death: a host
    /// that cannot spawn more threads gets fewer workers (possibly
    /// zero) and the calling thread still drives every morsel itself.
    fn ensure_workers(&self, want: usize) -> usize {
        let mut spawned = self.spawned.lock().unwrap_or_else(PoisonError::into_inner);
        while *spawned < want {
            let shared = Arc::clone(&self.shared);
            let worker = std::thread::Builder::new()
                .name(format!("ipdb-morsel-{spawned}"))
                .spawn(move || loop {
                    let job = {
                        let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
                        loop {
                            match q.pop_front() {
                                Some(job) => break job,
                                None => {
                                    // Park/wake gauges use the global flag:
                                    // no ExecConfig reaches the worker loop.
                                    static PARKS: OnceLock<&'static Counter> = OnceLock::new();
                                    static WAKES: OnceLock<&'static Counter> = OnceLock::new();
                                    if ipdb_obs::enabled() {
                                        PARKS
                                            .get_or_init(|| ipdb_obs::counter("pool.parks"))
                                            .incr();
                                    }
                                    q = shared.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
                                    if ipdb_obs::enabled() {
                                        WAKES
                                            .get_or_init(|| ipdb_obs::counter("pool.wakes"))
                                            .incr();
                                    }
                                }
                            }
                        }
                    };
                    job();
                });
            if worker.is_err() {
                break;
            }
            *spawned += 1;
        }
        *spawned
    }

    fn submit(&self, job: Job) {
        if ipdb_obs::enabled() {
            static JOBS: OnceLock<&'static Counter> = OnceLock::new();
            JOBS.get_or_init(|| ipdb_obs::counter("pool.jobs")).incr();
        }
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(job);
        self.shared.wake.notify_one();
    }
}

/// Counts job completions; [`fan_out`] blocks on it (via [`WaitGuard`])
/// until every job it submitted has arrived.
///
/// The count lives under a mutex and `wait_for` re-checks it after
/// every wakeup, so an arrival that lands *before* the waiter first
/// blocks is never lost — the waiter observes the count, not an event.
struct Latch {
    done: Mutex<usize>,
    wake: Condvar,
}

impl Latch {
    fn new() -> Latch {
        Latch {
            done: Mutex::new(0),
            wake: Condvar::new(),
        }
    }

    fn arrive(&self) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        *done += 1;
        self.wake.notify_all();
    }

    fn wait_for(&self, n: usize) {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        while *done < n {
            done = self.wake.wait(done).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Current arrival count (test observability for the
    /// no-double-release pin).
    #[cfg(test)]
    fn count(&self) -> usize {
        *self.done.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Blocks on drop until `expected` jobs have arrived at the latch —
/// including during a panic unwind, which is what makes the lifetime
/// erasure in [`fan_out`] sound.
struct WaitGuard<'a> {
    latch: &'a Latch,
    expected: usize,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.latch.wait_for(self.expected);
    }
}

/// Runs `task` once on the calling thread and concurrently on up to
/// `extra` pool workers, returning only after **every** started
/// invocation has completed — on the normal return path and on unwind
/// alike.
///
/// Panic containment: a panic in the caller's own invocation is
/// re-raised with its original payload once all workers have arrived; a
/// panic in a worker's invocation is caught at the job boundary (the
/// worker still arrives, so no borrow leaks and no wakeup is lost) and
/// re-raised on the caller as a `"morsel pool worker panicked"` panic.
/// Either way the pool stays usable for the next stage.
///
/// On a host where worker threads cannot be spawned, fewer (possibly
/// zero) extra invocations run — parallelism degrades, answers don't:
/// the caller's invocation always runs, and the morsel counter the
/// executor wraps in `task` hands out every remaining morsel to it.
pub(crate) fn fan_out(extra: usize, task: &(dyn Fn() + Sync)) {
    let pool = Pool::global();
    let available = pool.ensure_workers(extra);
    let finished = Latch::new();
    let worker_panicked = AtomicBool::new(false);
    let job = || {
        if catch_unwind(AssertUnwindSafe(task)).is_err() {
            // ORDERING: Release pairs with the Acquire load after the
            // guard's wait below. The latch mutex would in fact give the
            // same happens-before edge today, but this flag must not
            // depend on the Latch's internals for its visibility — the
            // pairing makes the publication local and audit-stable.
            worker_panicked.store(true, Ordering::Release);
        }
        finished.arrive();
    };
    let job_ref: &(dyn Fn() + Sync) = &job;
    // SAFETY: the erased borrows (`job` and everything it captures —
    // `task`, `finished`, `worker_panicked` — live in this frame)
    // cannot outlive the frame: `guard` blocks — on return AND on
    // unwind — until every submitted job has arrived at `finished`, an
    // arrival is the last thing a job does, and pool workers drop each
    // job as soon as it runs.
    let job_static: &'static (dyn Fn() + Sync + 'static) = unsafe { std::mem::transmute(job_ref) };
    let mut guard = WaitGuard {
        latch: &finished,
        expected: 0,
    };
    // Never submit more jobs than live workers: on a degraded host a
    // job nobody ever picks up would leave the guard waiting forever.
    for _ in 0..extra.min(available) {
        pool.submit(Box::new(job_static));
        guard.expected += 1;
    }
    let caller = catch_unwind(AssertUnwindSafe(task));
    drop(guard);
    if let Err(payload) = caller {
        resume_unwind(payload);
    }
    // ORDERING: Acquire pairs with the Release store in the job wrapper;
    // every arrival precedes the guard's return, so a set flag is
    // visible here without leaning on the latch's lock.
    if worker_panicked.load(Ordering::Acquire) {
        panic!("morsel pool worker panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A deterministic step sequencer: each event thread blocks until
    /// the clock reaches its assigned step, acts, then advances the
    /// clock — so one test run executes one exact interleaving.
    struct Clock {
        step: Mutex<usize>,
        cv: Condvar,
    }

    impl Clock {
        fn new() -> Clock {
            Clock {
                step: Mutex::new(0),
                cv: Condvar::new(),
            }
        }

        fn reach(&self, s: usize) {
            let mut cur = self.step.lock().unwrap();
            while *cur < s {
                cur = self.cv.wait(cur).unwrap();
            }
        }

        fn advance(&self) {
            *self.step.lock().unwrap() += 1;
            self.cv.notify_all();
        }
    }

    /// One exact interleaving of {worker arrival, worker arrival,
    /// caller-begins-waiting}, with each worker's payload optionally
    /// panicking first (contained at the job boundary, as in
    /// [`fan_out`]). Runs under a watchdog: a lost wakeup would
    /// deadlock the schedule, and the watchdog turns that into a
    /// failure instead of a hung suite.
    fn run_latch_schedule(wait_pos: usize, panics: [bool; 2]) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let latch = Arc::new(Latch::new());
            let clock = Arc::new(Clock::new());
            let arrival_steps: Vec<usize> = (0..3).filter(|&s| s != wait_pos).collect();
            let handles: Vec<_> = arrival_steps
                .iter()
                .enumerate()
                .map(|(i, &step)| {
                    let latch = Arc::clone(&latch);
                    let clock = Arc::clone(&clock);
                    let payload_panics = panics[i];
                    std::thread::spawn(move || {
                        clock.reach(step);
                        if payload_panics {
                            // The fan_out contract: the payload's panic
                            // is caught, the arrival still happens.
                            let caught = catch_unwind(|| panic!("payload {i}"));
                            assert!(caught.is_err());
                        }
                        latch.arrive();
                        clock.advance();
                    })
                })
                .collect();
            clock.reach(wait_pos);
            // Advance before blocking so later-scheduled arrivals can
            // proceed while this thread waits.
            clock.advance();
            // No lost wakeup: must return in every permutation,
            // including both arrivals landing before the wait begins.
            latch.wait_for(2);
            for h in handles {
                h.join().unwrap();
            }
            // No double-release: exactly one arrival per worker.
            assert_eq!(latch.count(), 2);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| {
                panic!("schedule deadlocked (lost wakeup): wait_pos={wait_pos} panics={panics:?}")
            });
    }

    #[test]
    fn latch_survives_every_schedule_permutation() {
        // 3 positions for the wait × 4 payload-panic combinations = 12
        // exact interleavings of worker-finish vs caller-wait vs
        // payload-panic.
        for wait_pos in 0..3 {
            for panics in [[false, false], [true, false], [false, true], [true, true]] {
                run_latch_schedule(wait_pos, panics);
            }
        }
    }

    #[test]
    fn wait_guard_blocks_during_unwind_until_all_arrivals() {
        let latch = Latch::new();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let latch = &latch;
            s.spawn(move || {
                // Released only once the unwind is already in flight;
                // the sleep widens the window in which a broken guard
                // would finish unwinding without waiting.
                go_rx.recv().unwrap();
                std::thread::sleep(Duration::from_millis(50));
                latch.arrive();
            });
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _guard = WaitGuard { latch, expected: 1 };
                go_tx.send(()).unwrap();
                panic!("caller payload");
            }));
            assert!(result.is_err());
            // The guard's Drop ran during the unwind and can only have
            // returned after the arrival it was guarding.
            assert_eq!(latch.count(), 1);
        });
    }

    #[test]
    fn fan_out_runs_caller_plus_extra_invocations() {
        for extra in [0usize, 1, 3] {
            let calls = AtomicUsize::new(0);
            fan_out(extra, &|| {
                calls.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(calls.load(Ordering::SeqCst), extra + 1);
        }
    }

    #[test]
    fn fan_out_contains_panics_and_pool_survives() {
        let boom = catch_unwind(|| fan_out(2, &|| panic!("payload")));
        assert!(boom.is_err());
        // The pool is immediately usable for the next stage.
        let calls = AtomicUsize::new(0);
        fan_out(2, &|| {
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }
}
