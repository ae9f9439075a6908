//! Scoped fork/join executor for the epoch tick and parameter sweeps.
//!
//! The fleet engine needs "run these N independent chunks of work on at
//! most K OS threads" once per epoch. Each submission opens one
//! [`std::thread::scope`], spawns `K − 1` workers and runs as worker 0
//! itself; every worker pulls the next `(index, &mut item)` from one
//! shared `Mutex`-guarded iterator until it runs dry. An epoch is about
//! 8–16 chunks, so that is one short lock per chunk, and a worker that
//! finishes early simply takes the next chunk a slower sibling has not
//! reached yet.
//!
//! Which worker runs which chunk depends on the wall clock and is
//! therefore nondeterministic — which is why callers must only submit
//! work whose *outputs* are order-free (each chunk of the fleet's
//! vehicle arena owns its vehicles' seeded RNG streams and a private
//! output buffer, and the engine folds the buffers in chunk order).
//! Results of [`WorkerPool::map`] are returned in input order
//! regardless of which worker ran them, so pool size never affects
//! determinism. A panicking item propagates to the caller once every
//! worker has stopped.

use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use vdap_obs::WorkerSample;

/// A fork/join executor of at most `threads` workers, capped at the
/// machine's available parallelism.
///
/// The pool holds no threads between submissions: each call spawns its
/// workers inside a scope and joins them before returning. A
/// single-thread pool never spawns: it runs submissions inline on the
/// caller, in index order.
///
/// # Examples
///
/// ```
/// use vdap_fleet::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.map((0u64..8).collect(), |x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool of at most `max_threads` workers, clamped to
    /// `[1, available_parallelism]`.
    #[must_use]
    pub fn new(max_threads: usize) -> Self {
        let hw = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        WorkerPool {
            threads: max_threads.clamp(1, hw),
        }
    }

    /// A pool sized to the machine (`available_parallelism` workers).
    #[must_use]
    pub fn with_default_size() -> Self {
        WorkerPool::new(usize::MAX)
    }

    /// Number of worker threads this pool will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every input on the pool and returns outputs in
    /// input order.
    pub fn map<P, T>(&self, inputs: Vec<P>, f: impl Fn(P) -> T + Sync) -> Vec<T>
    where
        P: Send,
        T: Send,
    {
        let mut slots: Vec<(Option<P>, Option<T>)> =
            inputs.into_iter().map(|p| (Some(p), None)).collect();
        self.for_each_mut(&mut slots, |_, (input, output)| {
            *output = Some(f(input.take().expect("each input is taken once")));
        });
        slots
            .into_iter()
            .map(|(_, output)| output.expect("every input produced an output"))
            .collect()
    }

    /// Runs `f(index, item)` for every item, mutating in place; each
    /// item is visited exactly once. Returns one [`WorkerSample`] per
    /// pool thread for this submission.
    pub fn for_each_mut<S: Send>(
        &self,
        items: &mut [S],
        f: impl Fn(usize, &mut S) + Sync,
    ) -> Vec<WorkerSample> {
        let n = items.len();
        let fair_share = (n / self.threads) as u64;
        let queue = Mutex::new(items.iter_mut().enumerate());
        let work = || {
            let mut busy = Duration::ZERO;
            let mut ran = 0u64;
            loop {
                // The guard drops at the end of this statement, so a
                // panicking item never poisons the queue.
                let next = queue
                    .lock()
                    .expect("no item runs while the queue lock is held")
                    .next();
                let Some((i, item)) = next else { break };
                let started = Instant::now();
                f(i, item);
                busy += started.elapsed();
                ran += 1;
            }
            WorkerSample {
                busy,
                steals: ran.saturating_sub(fair_share),
            }
        };
        let spawned = self.threads.min(n).saturating_sub(1);
        let mut samples = thread::scope(|scope| {
            let handles: Vec<_> = (0..spawned).map(|_| scope.spawn(work)).collect();
            let mut samples = vec![work()];
            for handle in handles {
                match handle.join() {
                    Ok(sample) => samples.push(sample),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            samples
        });
        samples.resize(self.threads, WorkerSample::default());
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc};

    #[test]
    fn map_preserves_input_order() {
        let pool = WorkerPool::new(3);
        let out = pool.map((0..100u32).collect(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn map_handles_fewer_inputs_than_workers() {
        let pool = WorkerPool::new(16);
        assert_eq!(pool.map(vec![7u8], |x| x + 1), vec![8]);
        assert_eq!(pool.map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        let pool = WorkerPool::new(4);
        let mut items = vec![0u32; 50];
        pool.for_each_mut(&mut items, |i, x| *x += i as u32 + 1);
        for (i, x) in items.iter().enumerate() {
            assert_eq!(*x, i as u32 + 1);
        }
    }

    #[test]
    fn pool_size_is_clamped() {
        assert!(WorkerPool::new(0).threads() >= 1);
        let hw = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert!(WorkerPool::new(usize::MAX).threads() <= hw);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let out = pool.map(vec![1, 2, 3], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn workers_persist_across_submissions() {
        // Thousands of submissions on one pool must each visit every
        // item exactly once.
        let pool = WorkerPool::new(4);
        let mut items = vec![0u64; 64];
        for _ in 0..1000 {
            pool.for_each_mut(&mut items, |_, x| *x += 1);
        }
        assert!(items.iter().all(|&x| x == 1000));
    }

    #[test]
    fn samples_cover_every_worker_and_account_all_work() {
        let pool = WorkerPool::new(4);
        let mut items = vec![0u8; 32];
        let samples = pool.for_each_mut(&mut items, |_, x| {
            *x = 1;
            // Make the work long enough to register on the clock.
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        if pool.threads() > 1 {
            assert_eq!(samples.len(), pool.threads());
        } else {
            assert_eq!(samples.len(), 1);
        }
        assert!(samples.iter().any(|s| s.busy > Duration::ZERO));
    }

    #[test]
    fn uneven_items_get_stolen() {
        // One pathologically slow item: while its worker sleeps, idle
        // siblings run more than their even share (on a multi-core
        // machine) — and regardless, every item must be visited exactly
        // once.
        let pool = WorkerPool::with_default_size();
        let mut items = vec![0u32; 256];
        let samples = pool.for_each_mut(&mut items, |i, x| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            *x += 1;
        });
        assert!(items.iter().all(|&x| x == 1));
        if pool.threads() > 1 {
            let steals: u64 = samples.iter().map(|s| s.steals).sum();
            assert!(steals > 0, "no batch was stolen from the stalled worker");
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_pool_stays_usable() {
        let pool = Arc::new(WorkerPool::new(2));
        let (tx, rx) = mpsc::channel();
        let submitter = Arc::clone(&pool);
        // A helper thread submits, so a submission that never returns
        // fails this test on the timeout instead of hanging the suite.
        let helper = thread::spawn(move || {
            let mut items = vec![0u32; 8];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                submitter.for_each_mut(&mut items, |i, _| {
                    assert_ne!(i, 5, "chunk 5 fails");
                });
            }));
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the submission returned within 10 s");
        assert!(panicked, "the chunk's panic reached the caller");
        helper.join().expect("the helper thread finished");
        let mut items = vec![0u32; 8];
        pool.for_each_mut(&mut items, |_, x| *x += 1);
        assert!(items.iter().all(|&x| x == 1));
    }
}
