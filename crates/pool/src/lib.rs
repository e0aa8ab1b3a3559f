//! A fixed-size worker pool: run a batch of borrowed jobs, return when
//! all of them have finished.
//!
//! One user: a serve reactor hands a turn's WAL shard commits to a
//! pool of its own so that their `fdatasync`s overlap — jobs that block
//! rather than compute. (The simulator's epoch runs on the calling
//! thread.) Jobs finish in whatever order the scheduler likes; the
//! pool's only correctness obligations are the ones encoded here:
//! [`run`](WorkerPool::run) returns strictly after every submitted job
//! has finished, and a panicking job resurfaces its panic on the
//! caller's thread once the batch has drained.
//!
//! Built on the vendored `crossbeam` channel (no new dependencies).
//! That channel's receiver is single-consumer, so the pool gives each
//! worker a private job queue and deals jobs round-robin; completions
//! funnel back over one shared channel.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// A job once its borrows have been erased to `'static` (see the safety
/// argument in [`WorkerPool::run`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// What a worker reports when a job ends.
enum Done {
    Ok,
    Panicked(Box<dyn std::any::Any + Send>),
}

/// Fixed set of worker threads executing borrowed jobs to completion.
///
/// The pool is created once and reused for every batch; `run` blocks until
/// the whole batch is done, so jobs may borrow from the caller's stack.
pub struct WorkerPool {
    /// One private queue per worker: jobs are dealt round-robin.
    job_txs: Vec<Sender<Job>>,
    /// Shared completion channel. The mutex serializes concurrent
    /// `run` calls (each batch must observe exactly its own
    /// completions) and makes the pool `Sync`.
    done_rx: Mutex<Receiver<Done>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("size", &self.size()).finish()
    }
}

impl WorkerPool {
    /// Spawn a pool of `size` workers (clamped to at least 1), named
    /// `rfh-pool-N`.
    pub fn new(size: usize) -> Self {
        WorkerPool::named("rfh-pool", size)
    }

    /// [`new`](Self::new) with the workers named `<prefix>-N`, so a
    /// pool's threads can be told apart in `top -H` (Linux shows the
    /// first 15 bytes).
    pub fn named(prefix: &str, size: usize) -> Self {
        let size = size.max(1);
        let (done_tx, done_rx) = unbounded::<Done>();
        let mut job_txs = Vec::with_capacity(size);
        let mut handles = Vec::with_capacity(size);
        for i in 0..size {
            let (job_tx, job_rx) = unbounded::<Job>();
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("{prefix}-{i}"))
                .spawn(move || worker_loop(job_rx, done))
                .expect("spawn pool worker");
            job_txs.push(job_tx);
            handles.push(handle);
        }
        WorkerPool { job_txs, done_rx: Mutex::new(done_rx), handles }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.job_txs.len()
    }

    /// Execute a batch of jobs and block until all of them finish.
    ///
    /// Jobs may borrow from the caller's environment (`'env`): the
    /// blocking wait is what makes that sound. If any job panicked, the
    /// first observed panic is resumed on this thread — after the whole
    /// batch has drained, so no job is left running with dangling
    /// borrows.
    pub fn run<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.is_empty() {
            return;
        }
        // Take the completion channel first: a second concurrent `run`
        // parks here until this batch has consumed exactly its own
        // completion messages.
        let done_rx = self.done_rx.lock().unwrap_or_else(|e| e.into_inner());
        let batch = jobs.len();
        for (i, job) in jobs.into_iter().enumerate() {
            // SAFETY: the job's true lifetime is 'env, which outlives
            // this call frame; we erase it to 'static only to cross the
            // channel. The loop below blocks until every job in the
            // batch has reported completion, so no erased borrow is
            // used after 'env ends. Workers never stash jobs: each is
            // consumed by exactly one `FnOnce` call inside this batch.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            self.job_txs[i % self.job_txs.len()].send(job).expect("pool worker alive");
        }
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for _ in 0..batch {
            match done_rx.recv().expect("pool worker alive") {
                Done::Ok => {}
                Done::Panicked(payload) => panic = panic.or(Some(payload)),
            }
        }
        drop(done_rx);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job queues ends each worker's recv loop.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(jobs: Receiver<Job>, done: Sender<Done>) {
    while let Ok(job) = jobs.recv() {
        let outcome = match catch_unwind(AssertUnwindSafe(job)) {
            Ok(()) => Done::Ok,
            Err(payload) => Done::Panicked(payload),
        };
        if done.send(outcome).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_borrowed_jobs_to_completion() {
        let pool = WorkerPool::new(4);
        let mut cells = vec![0usize; 37];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = cells
            .iter_mut()
            .enumerate()
            .map(|(i, cell)| Box::new(move || *cell = i + 1) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        pool.run(jobs);
        for (i, &v) in cells.iter().enumerate() {
            assert_eq!(v, i + 1, "job {i} must have run before run() returned");
        }
    }

    #[test]
    fn more_jobs_than_workers_all_run() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..3 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..25)
                .map(|_| {
                    let c = &counter;
                    Box::new(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 75, "pool is reusable across batches");
    }

    #[test]
    fn job_panic_resurfaces_after_the_batch_drains() {
        let pool = WorkerPool::new(3);
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..9)
                .map(|i| {
                    let f = &finished;
                    Box::new(move || {
                        if i == 4 {
                            panic!("boom {i}");
                        }
                        f.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run(jobs);
        }));
        assert!(caught.is_err(), "the job's panic must resurface on the caller");
        assert_eq!(finished.load(Ordering::Relaxed), 8, "the rest of the batch still ran");
        // The pool survives a panicked batch.
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..5)
            .map(|_| {
                let f = &finished;
                Box::new(move || {
                    f.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run(jobs);
        assert_eq!(finished.load(Ordering::Relaxed), 13);
    }

    /// Jobs that block (a sleep standing in for a syscall) overlap:
    /// the batch costs about `ceil(jobs / workers)` waits, not their
    /// sum. Blocked workers need no CPU, so this holds on one core.
    #[test]
    fn blocking_jobs_overlap_across_named_workers() {
        const WAIT: std::time::Duration = std::time::Duration::from_millis(20);
        let pool = WorkerPool::named("rfh-test", 8);
        let names = Mutex::new(std::collections::BTreeSet::new());
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
            .map(|_| {
                let names = &names;
                Box::new(move || {
                    std::thread::sleep(WAIT);
                    let me = std::thread::current().name().map(str::to_owned);
                    names.lock().unwrap().insert(me.expect("pool workers are named"));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let t0 = std::time::Instant::now();
        pool.run(jobs);
        let took = t0.elapsed();
        assert!(took >= 2 * WAIT, "16 jobs on 8 workers are two rounds, took {took:?}");
        assert!(took < 8 * WAIT, "16 × 20 ms took {took:?}: the waits did not overlap");
        let want: Vec<String> = (0..8).map(|i| format!("rfh-test-{i}")).collect();
        assert_eq!(names.into_inner().unwrap().into_iter().collect::<Vec<_>>(), want);
    }

    #[test]
    fn zero_sized_pool_clamps_to_one_worker() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.size(), 1);
        let mut hit = false;
        pool.run(vec![Box::new(|| hit = true) as Box<dyn FnOnce() + Send + '_>]);
        assert!(hit);
    }
}
