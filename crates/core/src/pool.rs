//! A small persistent worker pool.
//!
//! Per-update analysis cannot afford to spawn threads per push iteration
//! (the affected area is often a handful of vertices — §7), so fixed
//! pools stay alive and are handed work. Two users share this one
//! fork-join:
//!
//! * the engine's push and bulk load ([`WorkerPool::run`] /
//!   [`WorkerPool::run_ranges`]): one closure on every worker;
//! * the server's shard executors ([`WorkerPool::fork_join`]): the epoch
//!   loop's safe phase, its footprint probe and its parallel unsafe
//!   execution each hand owned jobs to the workers while the coordinator
//!   runs its own share.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Sender};

type Job = Arc<dyn Fn(usize) + Send + Sync>;

/// What a worker runs: one job, which reports its own result.
type Task = Box<dyn FnOnce() + Send>;

/// A fixed-size fork-join worker pool.
pub struct WorkerPool {
    senders: Vec<Sender<Task>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        Self::spawn(threads.max(1), |i| format!("risgraph-worker-{i}"))
    }

    /// Spawn exactly `workers` workers (possibly none), worker `i`
    /// named `name(i)`.
    pub(crate) fn spawn(workers: usize, name: impl Fn(usize) -> String) -> Self {
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = unbounded::<Task>();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(name(i))
                    .spawn(move || {
                        while let Ok(task) = rx.recv() {
                            task();
                        }
                    })
                    .expect("spawn worker"),
            );
        }
        WorkerPool { senders, handles }
    }

    /// Number of workers.
    #[inline]
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Fork-join: hand `jobs[i]` to worker `i`, run `own` on the calling
    /// thread meanwhile, then join. Returns `own`'s result and the jobs'
    /// results in job order.
    ///
    /// A job that panics kills its worker, and the join panics instead
    /// of waiting for a result that will never come (as does every later
    /// join that hands that worker a job). Unless `own` panics, the join
    /// returns or unwinds only once every job has been dropped — run to
    /// completion or lost with its worker.
    ///
    /// # Panics
    ///
    /// If there are more jobs than workers, or a job panicked.
    pub fn fork_join<R, T>(
        &self,
        jobs: Vec<impl FnOnce() -> R + Send + 'static>,
        own: impl FnOnce() -> T,
    ) -> (T, Vec<R>)
    where
        R: Send + 'static,
    {
        let n = jobs.len();
        assert!(n <= self.threads(), "more jobs than workers");
        if n == 0 {
            // No channel: closing one costs a futex wake, and an inline
            // epoch forks nothing.
            return (own(), Vec::new());
        }
        let (done_tx, done_rx) = unbounded();
        for ((i, job), worker) in jobs.into_iter().enumerate().zip(&self.senders) {
            let done = done_tx.clone();
            // The job is consumed (its captures dropped) before `done`
            // goes, also when it unwinds — so the disconnect the join
            // panics on comes only after every job is gone. A dead
            // worker hands the task back, and dropping it drops `done`.
            let _ = worker.send(Box::new(move || {
                let r = job();
                let _ = done.send((i, r));
            }));
        }
        drop(done_tx);
        let own = own();
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, r) = done_rx.recv().expect("pool worker panicked");
            results[i] = Some(r);
        }
        (own, results.into_iter().flatten().collect())
    }

    /// Run `job(worker_id)` on every worker; blocks until all complete.
    pub fn run(&self, job: impl Fn(usize) + Send + Sync) {
        // SAFETY: erase the closure's lifetime. `run` blocks until
        // every worker has finished, so the borrow cannot outlive the
        // call. This is the same contract as `crossbeam::scope`,
        // enforced by the join below, which returns or unwinds only
        // after every worker has dropped its handle on the job (the
        // caller's share does nothing, so it cannot unwind first).
        let job: Arc<dyn Fn(usize) + Send + Sync> = unsafe {
            std::mem::transmute::<Arc<dyn Fn(usize) + Send + Sync + '_>, Job>(
                Arc::new(job) as Arc<dyn Fn(usize) + Send + Sync + '_>
            )
        };
        let jobs: Vec<_> = (0..self.threads())
            .map(|worker| {
                let job = Arc::clone(&job);
                move || job(worker)
            })
            .collect();
        self.fork_join(jobs, || ());
    }

    /// Split `total` items into contiguous chunks and hand each worker a
    /// stream of chunk ranges via an atomic cursor (dynamic load
    /// balancing — important for skewed frontiers). The closure receives
    /// `(worker_id, range)` so callers can keep per-worker buffers.
    pub fn run_ranges(
        &self,
        total: usize,
        grain: usize,
        f: impl Fn(usize, std::ops::Range<usize>) + Send + Sync,
    ) {
        if total == 0 {
            return;
        }
        let grain = grain.max(1);
        let cursor = AtomicUsize::new(0);
        self.run(|worker| loop {
            let start = cursor.fetch_add(grain, Ordering::Relaxed);
            if start >= total {
                break;
            }
            let end = (start + grain).min(total);
            f(worker, start..end);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the task channels ends the worker loops.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn all_workers_run() {
        let pool = WorkerPool::new(4);
        let seen = AtomicU64::new(0);
        pool.run(|id| {
            seen.fetch_or(1 << id, Ordering::SeqCst);
        });
        assert_eq!(seen.load(Ordering::SeqCst), 0b1111);
    }

    #[test]
    fn run_blocks_until_complete() {
        let pool = WorkerPool::new(3);
        let counter = AtomicU64::new(0);
        for _ in 0..10 {
            pool.run(|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 30);
    }

    #[test]
    fn run_ranges_covers_everything_once() {
        let pool = WorkerPool::new(4);
        let total = 10_007;
        let hits: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
        pool.run_ranges(total, 64, |_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn run_ranges_empty_is_noop() {
        let pool = WorkerPool::new(2);
        pool.run_ranges(0, 16, |_, _| panic!("must not be called"));
    }

    #[test]
    fn borrows_local_state() {
        let pool = WorkerPool::new(2);
        let local = [AtomicU64::new(0), AtomicU64::new(0)];
        pool.run(|id| {
            local[id % 2].fetch_add(1, Ordering::SeqCst);
        });
        let sum: u64 = local.iter().map(|a| a.load(Ordering::SeqCst)).sum();
        assert_eq!(sum, 2);
    }

    #[test]
    fn min_one_thread() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        pool.run(|_| {});
    }

    /// Later jobs likely finish first (the sleeps only make that likely;
    /// the assertion holds for any finishing order).
    #[test]
    fn fork_join_returns_results_in_job_order() {
        let pool = WorkerPool::spawn(3, |i| format!("fork-join-test-{i}"));
        let jobs: Vec<_> = (0..3u64)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(10 * (3 - i)));
                    i * 10
                }
            })
            .collect();
        let (own, results) = pool.fork_join(jobs, || "own");
        assert_eq!(own, "own");
        assert_eq!(results, [0, 10, 20]);
    }

    #[test]
    fn fork_join_with_fewer_jobs_than_workers() {
        let pool = WorkerPool::spawn(4, |i| format!("fork-join-test-{i}"));
        for round in 0..3u64 {
            let (own, results) = pool.fork_join(vec![move || round + 1], || round);
            assert_eq!((own, results), (round, vec![round + 1]));
        }
    }

    /// A pool with no workers — a one-executor server's — runs only the
    /// caller's share.
    #[test]
    fn fork_join_without_jobs_runs_only_the_callers_share() {
        let pool = WorkerPool::spawn(0, |i| format!("fork-join-test-{i}"));
        assert_eq!(pool.threads(), 0);
        let (own, results) = pool.fork_join(Vec::<fn() -> u8>::new(), || 7);
        assert_eq!(own, 7);
        assert!(results.is_empty());
    }

    /// The join runs on a helper thread, so a hang fails the test at the
    /// timeout instead of wedging the suite. A panicking helper drops
    /// its sender without sending.
    #[test]
    fn fork_join_panics_when_a_worker_job_panics() {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let pool = WorkerPool::spawn(2, |i| format!("fork-join-test-{i}"));
            let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> =
                vec![Box::new(|| 1), Box::new(|| panic!("injected job panic"))];
            let joined = pool.fork_join(jobs, || ());
            let _ = tx.send(joined);
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Err(RecvTimeoutError::Disconnected) => assert!(helper.join().is_err()),
            Err(RecvTimeoutError::Timeout) => panic!("the join hung instead of panicking"),
            Ok(joined) => panic!("the join returned {joined:?} despite a panicked job"),
        }
    }
}
