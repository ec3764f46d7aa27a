//! Deterministic parallel replication pool.
//!
//! Experiments fan the same simulation out over many independent
//! *replications* — seed variants, parameter-grid cells, or both. Each
//! replication is a pure function of its index, so the set can run on
//! any number of worker threads **without changing a single output
//! byte**: the pool assigns every replication a stable index, derives
//! its RNG from a per-index SplitMix stream ([`RngFactory::indexed_stream`]),
//! and merges results back in index order. `--threads 8` and
//! `--threads 1` are therefore byte-identical; threads only change how
//! long you wait.
//!
//! ## Determinism contract
//!
//! 1. The job closure must be a pure function of `(index, rng)` — no
//!    shared mutable state, no wall clock, no OS entropy (rules D1/D3
//!    of `hc-analyze` enforce the latter two).
//! 2. Results are returned as `Vec<T>` in replication-index order,
//!    regardless of completion order.
//! 3. A panicking replication surfaces as [`ReplicationError::Panicked`]
//!    carrying the **lowest** panicking index — the same index the
//!    serial path would report — instead of poisoning the pool.
//!
//! ## Scheduling
//!
//! Replications are claimed one at a time from a single shared queue
//! by up to `threads` scoped `std` threads (`map_pool`, the one
//! worker pool that [`crate::shard`] also steps its shards on): an
//! idle worker takes the next unclaimed index, so a few expensive cells
//! cannot serialize the whole grid behind one thread.

use crate::rng::{RngFactory, SimRng};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

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

/// Maps `f` over `items` on up to `threads` scoped workers and returns
/// the results **in item order**. Each idle worker takes the next
/// unclaimed item from one shared queue. `threads <= 1` or a single
/// item runs inline on the calling thread.
///
/// `f` should contain its own panics (both callers wrap their work in
/// `catch_unwind`): the `Err` message reports a worker thread that died
/// outside `f`'s containment.
pub(crate) fn map_pool<I, T, F>(items: Vec<I>, threads: usize, f: F) -> Result<Vec<T>, String>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return Ok(items.into_iter().map(f).collect());
    }
    let len = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let (queue, f) = (&queue, &f);
    let per_worker = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    // A poisoned queue ends this worker; the missing
                    // results then surface as a pool error below.
                    while let Some((i, item)) = queue.lock().ok().and_then(|mut q| q.next()) {
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    for worker in per_worker {
        for (i, t) in worker.map_err(|p| panic_message(p.as_ref()))? {
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(t);
            }
        }
    }
    slots
        .into_iter()
        .collect::<Option<Vec<T>>>()
        .ok_or_else(|| "an item produced no result".to_string())
}

/// The untraced pool: runs the jobs and returns results in index order.
fn run_raw<T, F>(jobs: usize, threads: usize, job: F) -> Result<Vec<T>, ReplicationError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let outcomes = map_pool((0..jobs).collect(), threads, |index| {
        catch_unwind(AssertUnwindSafe(|| job(index))).map_err(|p| panic_message(p.as_ref()))
    })
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

/// Runs `jobs` seeded replications: job `i` receives the RNG stream
/// `factory.indexed_stream(label, i)` — an independent, per-index
/// SplitMix-derived stream — so outputs depend only on `(factory seed,
/// label, index)`, never on the thread count or completion order.
///
/// # Errors
///
/// Propagates [`ReplicationError`] exactly as [`run_replications`].
pub fn run_seeded_replications<T, F>(
    factory: &RngFactory,
    label: &str,
    jobs: usize,
    threads: usize,
    job: F,
) -> Result<Vec<T>, ReplicationError>
where
    T: Send,
    F: Fn(usize, SimRng) -> T + Sync,
{
    run_replications(jobs, threads, |index| {
        job(index, factory.indexed_stream(label, index as u64))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn map_pool_keeps_item_order_and_reports_a_dead_worker() {
        for threads in [0, 1, 2, 5] {
            let out = map_pool((0..23).collect(), threads, |i: u64| i * 3).expect("no deaths");
            assert_eq!(out, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        }
        // An uncontained panic kills its worker: the pool reports it
        // instead of returning a short result vector.
        let err = map_pool((0..8).collect(), 3, |i: u32| {
            assert_ne!(i, 5, "worker killed");
            i
        })
        .expect_err("item 5 kills its worker");
        assert!(err.contains("worker killed"), "message: {err}");
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
        let draw =
            |_i: usize, mut rng: SimRng| -> Vec<u64> { (0..16).map(|_| rng.gen()).collect() };
        let serial = run_seeded_replications(&factory, "grid", 10, 1, draw).expect("serial clean");
        for threads in [2, 3, 4, 7] {
            let parallel =
                run_seeded_replications(&factory, "grid", 10, threads, draw).expect("par clean");
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
