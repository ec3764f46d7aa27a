//! Deterministic parallel replication pool.
//!
//! Experiments fan the same simulation out over many independent
//! *replications* — seed variants, parameter-grid cells, or both. Each
//! replication is a pure function of its index, so the set can run on
//! any number of worker threads **without changing a single output
//! byte**: the pool hands every replication a stable index, the job
//! derives its RNG from that index's SplitMix stream
//! ([`RngFactory::indexed_stream`](crate::RngFactory::indexed_stream)),
//! and the pool merges results back in index order. `--threads 8` and
//! `--threads 1` are therefore byte-identical; threads only change how
//! long you wait.
//!
//! ## Determinism contract
//!
//! 1. The job closure must be a pure function of its index — no
//!    shared mutable state, no wall clock, no OS entropy (clippy's
//!    `disallowed_methods` in library crates enforces the latter two).
//! 2. Results are returned as `Vec<T>` in replication-index order,
//!    regardless of completion order.
//! 3. A panicking replication surfaces as [`ReplicationError::Panicked`]
//!    carrying the **lowest** panicking index — the same index the
//!    serial path would report — instead of poisoning the pool.
//!
//! ## Scheduling
//!
//! Replications are claimed one at a time from a single shared queue
//! by the calling thread and up to `threads - 1` helper threads (the
//! one worker pool, `with_pool`, that [`crate::shard`] also runs its
//! windows on): an idle thread takes the next unclaimed index, so a few
//! expensive cells cannot serialize the whole grid behind one thread.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a replication run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationError {
    /// A replication job panicked. `index` is the lowest panicking
    /// replication index, matching what a serial run would hit first.
    Panicked {
        /// Replication index whose job panicked.
        index: usize,
        /// Rendered panic payload.
        message: String,
    },
    /// The worker pool itself failed (a worker thread died outside a
    /// job). This indicates a bug in the pool, not in a replication.
    Pool {
        /// Description of the pool failure.
        message: String,
    },
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::Panicked { index, message } => {
                write!(f, "replication {index} panicked: {message}")
            }
            ReplicationError::Pool { message } => write!(f, "replication pool: {message}"),
        }
    }
}

impl std::error::Error for ReplicationError {}

/// Renders a caught panic payload as a human-readable string (shared
/// with the [`crate::shard`] engine).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One batch of pool items and what has come back from it.
struct Batch<I, T> {
    /// Unclaimed items, in claim order.
    queue: VecDeque<I>,
    /// Items claimed so far; the next claim gets this index.
    claimed: usize,
    /// Per-item outcomes, in item order (`Err` holds a panic message).
    results: Vec<Option<Result<T, String>>>,
    /// Items not yet finished (claimed or not).
    unfinished: usize,
    /// Set once, when the pool shuts down: helpers return.
    closed: bool,
}

impl<I, T> Batch<I, T> {
    fn claim(&mut self) -> Option<(usize, I)> {
        let item = self.queue.pop_front()?;
        self.claimed += 1;
        Some((self.claimed - 1, item))
    }
}

/// The state a pool's threads share: one batch behind one lock.
struct Shared<I, T> {
    batch: Mutex<Batch<I, T>>,
    /// Helpers sleep here between batches.
    ready: Condvar,
    /// The calling thread sleeps here until a batch finishes.
    finished: Condvar,
}

impl<I, T> Shared<I, T> {
    /// Locks the batch. Nothing panics while holding the lock, so a
    /// poisoned lock still guards a whole batch and is safe to keep
    /// using.
    fn lock(&self) -> MutexGuard<'_, Batch<I, T>> {
        self.batch.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Closes the pool when dropped — also while unwinding from a panic on
/// the calling thread, so the helpers return and the scope can join
/// them instead of hanging.
struct CloseOnDrop<'a, I, T>(&'a Shared<I, T>);

impl<I, T> Drop for CloseOnDrop<'_, I, T> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.ready.notify_all();
    }
}

/// A run-long worker pool: `threads - 1` helper threads plus the
/// calling thread apply one `work` function to the items of each batch
/// handed to [`Pool::map`]. Built by [`with_pool`]; this is the one
/// worker pool in `hc-sim` — [`run_replications`] runs a grid on it and
/// [`crate::shard`] runs every window of a sharded run on it.
pub(crate) struct Pool<'a, I, T, F> {
    shared: &'a Shared<I, T>,
    work: &'a F,
}

impl<I, T, F> Pool<'_, I, T, F>
where
    F: Fn(I) -> T,
{
    /// Applies `work` to every item and returns the outcomes **in item
    /// order**; a panicking item yields `Err` with its panic message
    /// and the rest of the batch still runs. Idle threads claim items
    /// in list order, and the calling thread works items too until the
    /// batch is done.
    pub(crate) fn map(&self, items: Vec<I>) -> Vec<Result<T, String>> {
        let len = items.len();
        {
            let mut batch = self.shared.lock();
            batch.queue.extend(items);
            batch.claimed = 0;
            batch.results.resize_with(len, || None);
            batch.unfinished = len;
        }
        if len > 1 {
            self.shared.ready.notify_all();
        }
        self.work_until(&self.shared.finished, |batch| batch.unfinished == 0);
        self.shared
            .lock()
            .results
            .drain(..)
            .map(|r| r.unwrap_or_else(|| Err("an item produced no result".to_string())))
            .collect()
    }

    /// Claims and works items until `done` holds, sleeping on `wake`
    /// while there is nothing to claim. Finishing an item and claiming
    /// the next take one lock.
    fn work_until(&self, wake: &Condvar, done: impl Fn(&Batch<I, T>) -> bool) {
        let mut batch = self.shared.lock();
        loop {
            if let Some((index, item)) = batch.claim() {
                drop(batch);
                let out = catch_unwind(AssertUnwindSafe(|| (self.work)(item)))
                    .map_err(|p| panic_message(p.as_ref()));
                batch = self.shared.lock();
                if let Some(slot) = batch.results.get_mut(index) {
                    *slot = Some(out);
                }
                batch.unfinished -= 1;
                if batch.unfinished == 0 {
                    self.shared.finished.notify_one();
                }
            } else if done(&batch) {
                return;
            } else {
                batch = wake.wait(batch).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// Runs `body` on the calling thread with a [`Pool`] whose helpers
/// apply `work`: `threads - 1` helper threads (none for `threads <= 1`)
/// that live until `body` returns, inside one `std::thread::scope`.
///
/// # Errors
///
/// The panic message of a helper thread that died outside an item (a
/// bug in the pool itself; items contain their own panics).
#[expect(
    clippy::disallowed_methods,
    reason = "the one worker pool: its index-ordered merge keeps results byte-identical at any thread count"
)]
pub(crate) fn with_pool<I, T, F, R>(
    threads: usize,
    work: F,
    body: impl FnOnce(&Pool<'_, I, T, F>) -> R,
) -> Result<R, String>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let shared = Shared {
        batch: Mutex::new(Batch {
            queue: VecDeque::new(),
            claimed: 0,
            results: Vec::new(),
            unfinished: 0,
            closed: false,
        }),
        ready: Condvar::new(),
        finished: Condvar::new(),
    };
    let pool = Pool {
        shared: &shared,
        work: &work,
    };
    let helpers = threads.saturating_sub(1);
    if helpers == 0 {
        return Ok(body(&pool));
    }
    let pool = &pool;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers)
            .map(|_| scope.spawn(move || pool.work_until(&pool.shared.ready, |b| b.closed)))
            .collect();
        let out = {
            let _close = CloseOnDrop(&shared);
            body(pool)
        };
        for handle in handles {
            handle.join().map_err(|p| panic_message(p.as_ref()))?;
        }
        Ok(out)
    })
}

/// The untraced pool: runs the jobs and returns results in index order.
fn run_raw<T, F>(jobs: usize, threads: usize, job: F) -> Result<Vec<T>, ReplicationError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let outcomes = with_pool(threads.min(jobs), job, |pool| pool.map((0..jobs).collect()))
        .map_err(|message| ReplicationError::Pool {
            message: format!("a worker thread died outside a job: {message}"),
        })?;
    // The lowest panicking index wins, so the error matches what a
    // serial run would report.
    let mut out = Vec::with_capacity(jobs);
    for (index, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(t) => out.push(t),
            Err(message) => return Err(ReplicationError::Panicked { index, message }),
        }
    }
    Ok(out)
}

/// Runs `jobs` independent replications of `job` across `threads`
/// worker threads and returns their results **in index order**.
///
/// `threads` is clamped to `1..=jobs`; `threads <= 1` runs strictly
/// serially on the calling thread (no pool is built at all). Because
/// every job is a pure function of its index, the returned vector is
/// identical for every thread count.
///
/// ## Tracing
///
/// When an `hc-obs` recording scope is active on the *calling* thread,
/// every task runs inside its own buffered scope (track `index + 1`)
/// and the per-task traces are merged back into the caller **in index
/// order** — so the merged trace, like the results, is byte-identical
/// at any `--threads` value regardless of completion order. The worker
/// count is machine-dependent and is reported separately via
/// `machine_stat`, outside the deterministic sections.
///
/// # Errors
///
/// Returns [`ReplicationError::Panicked`] when any job panics (lowest
/// index wins, so the error is deterministic too), or
/// [`ReplicationError::Pool`] if a worker thread itself fails.
pub fn run_replications<T, F>(
    jobs: usize,
    threads: usize,
    job: F,
) -> Result<Vec<T>, ReplicationError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if !hc_obs::active() {
        return run_raw(jobs, threads, job);
    }
    let job = &job;
    let traced = run_raw(jobs, threads, |index: usize| {
        hc_obs::record_scope(index as u32 + 1, || {
            hc_obs::name_track(index as u32 + 1, &format!("rep-{index}"));
            // The task root scope: everything the job emits becomes a
            // child, and closing at the trace's sim-time high-water
            // mark gives the span its natural duration.
            let task = hc_obs::enter("sim.par", "task", 0);
            let out = job(index);
            task.close(&[("index", index.into())]);
            out
        })
    })?;
    let mut out = Vec::with_capacity(jobs);
    for (data, trace) in traced {
        hc_obs::merge_trace(trace);
        out.push(data);
    }
    hc_obs::counter_now("par.tasks", jobs as u64);
    hc_obs::machine_stat("par.workers", threads.clamp(1, jobs.max(1)) as f64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;
    use rand::Rng;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = run_replications(17, threads, |i| i * i).expect("no panics");
            assert_eq!(
                out,
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn pool_batches_keep_item_order_and_contain_panics() {
        for threads in [0, 1, 2, 5] {
            let out = with_pool(
                threads,
                |i: u64| i * 3,
                |pool| {
                    // Several batches on the same helpers, of every size.
                    (0..6u64)
                        .map(|n| pool.map((0..n * 5).collect()))
                        .collect::<Vec<_>>()
                },
            )
            .expect("no helper dies");
            for (n, batch) in (0..6u64).zip(out) {
                let want: Vec<Result<u64, String>> = (0..n * 5).map(|i| Ok(i * 3)).collect();
                assert_eq!(batch, want, "threads={threads} batch={n}");
            }
        }
        // A panicking item fails alone; the rest of its batch still runs.
        let out = with_pool(
            3,
            |i: u32| {
                assert_ne!(i, 5, "item 5 exploded");
                i
            },
            |pool| pool.map((0..8).collect()),
        )
        .expect("no helper dies");
        for (i, outcome) in (0..8).zip(out) {
            match outcome {
                Ok(v) => assert_eq!(v, i),
                Err(message) => {
                    assert_eq!(i, 5);
                    assert!(message.contains("exploded"), "message: {message}");
                }
            }
        }
    }

    #[test]
    fn a_panicking_body_closes_the_pool_instead_of_hanging() {
        let caught = catch_unwind(|| {
            with_pool(
                3,
                |i: u32| i,
                |pool| {
                    assert_eq!(pool.map(vec![1, 2, 3]).len(), 3);
                    panic!("the calling thread failed between batches");
                },
            )
        });
        let payload = caught.expect_err("the body panicked");
        assert!(panic_message(payload.as_ref()).contains("between batches"));
    }

    #[test]
    fn zero_jobs_yield_an_empty_vec() {
        let out: Vec<u64> = run_replications(0, 4, |_| 7).expect("no panics");
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = run_replications(3, 64, |i| i + 1).expect("no panics");
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn a_panicking_replication_surfaces_as_an_error() {
        let err = run_replications(9, 3, |i| {
            if i == 5 {
                panic!("replication 5 exploded");
            }
            i
        })
        .expect_err("job 5 panics");
        match err {
            ReplicationError::Panicked { index, message } => {
                assert_eq!(index, 5);
                assert!(message.contains("exploded"), "message: {message}");
            }
            other => panic!("wrong error variant: {other}"),
        }
    }

    #[test]
    fn lowest_panicking_index_wins_even_in_parallel() {
        let err = run_replications(12, 4, |i| {
            if i % 3 == 1 {
                panic!("boom at {i}");
            }
            i
        })
        .expect_err("several jobs panic");
        match err {
            ReplicationError::Panicked { index, .. } => assert_eq!(index, 1),
            other => panic!("wrong error variant: {other}"),
        }
    }

    #[test]
    fn serial_panic_reports_the_same_index_as_parallel() {
        let serial = run_replications(12, 1, |i| {
            if i % 3 == 1 {
                panic!("boom");
            }
            i
        })
        .expect_err("panics");
        let parallel = run_replications(12, 4, |i| {
            if i % 3 == 1 {
                panic!("boom");
            }
            i
        })
        .expect_err("panics");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn seeded_replications_are_thread_count_invariant() {
        let factory = RngFactory::new(42);
        let draw = |i: usize| -> Vec<u64> {
            let mut rng = factory.indexed_stream("grid", i as u64);
            (0..16).map(|_| rng.gen()).collect()
        };
        let serial = run_replications(10, 1, draw).expect("serial clean");
        for threads in [2, 3, 4, 7] {
            let parallel = run_replications(10, threads, draw).expect("par clean");
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn string_panic_payloads_are_preserved() {
        // `panic!("{}", x)` carries a `String` payload (vs the static
        // `&str` of a literal); both must survive into the error.
        for threads in [1, 4] {
            let err = run_replications(8, threads, |i| {
                if i == 2 {
                    panic!("made at index {i}");
                }
                i
            })
            .expect_err("job 2 panics");
            match err {
                ReplicationError::Panicked { index, message } => {
                    assert_eq!(index, 2);
                    assert_eq!(message, "made at index 2", "threads={threads}");
                }
                other => panic!("wrong error variant: {other}"),
            }
        }
    }

    #[test]
    fn error_renders_with_index_and_message() {
        let e = ReplicationError::Panicked {
            index: 3,
            message: "kaput".to_string(),
        };
        assert_eq!(e.to_string(), "replication 3 panicked: kaput");
        let p = ReplicationError::Pool {
            message: "gone".to_string(),
        };
        assert_eq!(p.to_string(), "replication pool: gone");
    }
}
