//! Hand-rolled work-stealing thread pool for sweep jobs.
//!
//! Built on `std::thread::scope` only — the vendor policy is offline, so
//! no crossbeam/rayon. The shape is the classic one: each worker owns a
//! deque seeded round-robin with jobs; a worker pops from the *front* of
//! its own deque and, when empty, steals from the *back* of a victim's.
//! Because sweep jobs never spawn further jobs, a worker that finds every
//! deque empty can retire — the jobs still in flight belong to other
//! workers, so the pool drains without a condvar.
//!
//! Two properties the sweep engine's determinism contract leans on:
//!
//! * **Completion order is irrelevant.** Every job carries its plan
//!   index; each worker returns its completions through its join handle,
//!   and [`merge_canonical`](crate::merge_canonical) restores plan order.
//!   Output is byte-identical for 1 worker or N.
//! * **Panics are contained.** Each job runs under `catch_unwind`; a
//!   panicking job becomes an `Err(JobError)` in its result slot instead
//!   of poisoning a lock or hanging the pool. The panic payload's message
//!   is preserved so the failure is attributable.
//!
//! The deques are the pool's only locks, each taken as a statement
//! temporary, one at a time: no thread ever holds two.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use crate::merge::{merge_canonical, Completed};

/// A sweep job that failed: its plan index plus the panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Index of the job in the submitted plan.
    pub index: usize,
    /// Panic payload rendered as text (`"non-string panic payload"` when
    /// the payload was neither `&str` nor `String`).
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job #{} panicked: {}", self.index, self.message)
    }
}

/// Outcome of one sweep job: its value, or the contained panic.
pub type JobResult<T> = Result<T, JobError>;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_one<T, F>(index: usize, job: F) -> Completed<T>
where
    F: FnOnce() -> T,
{
    let result = match catch_unwind(AssertUnwindSafe(job)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(JobError {
            index,
            message: panic_message(payload),
        }),
    };
    Completed { index, result }
}

/// A deque is locked only for one push or pop, never across a job, so
/// no panic can poison it.
const DEQUE: &str = "deque lock";

/// One worker's share of the pool: its own deque first (front), then
/// steals round-robin (back). When every deque is empty the remaining
/// jobs already belong to other workers, so it retires and returns what
/// it completed.
fn work<T, F>(deques: &[Mutex<VecDeque<(usize, F)>>], me: usize) -> Vec<Completed<T>>
where
    F: FnOnce() -> T,
{
    let mut done = Vec::new();
    loop {
        let mut task = deques[me].lock().expect(DEQUE).pop_front();
        if task.is_none() {
            for k in 1..deques.len() {
                let victim = (me + k) % deques.len();
                task = deques[victim].lock().expect(DEQUE).pop_back();
                if task.is_some() {
                    break;
                }
            }
        }
        let Some((index, job)) = task else {
            return done;
        };
        done.push(run_one(index, job));
    }
}

/// Run `jobs` on `workers` threads and return their results **in plan
/// order**, one slot per job. `workers <= 1` (or a single job) runs
/// inline on the caller's thread with the same panic containment.
///
/// The worker count is a cap, not a demand: at most `jobs.len()` threads
/// are spawned.
pub fn run_jobs<T, F>(jobs: Vec<F>, workers: usize) -> Vec<JobResult<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 {
        let done = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| run_one(i, job))
            .collect();
        return merge_canonical(done);
    }

    // One deque per worker, seeded round-robin so every worker starts
    // with local work; idle workers steal from the back of a victim.
    let deques: Vec<Mutex<VecDeque<(usize, F)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        deques[i % workers].lock().expect(DEQUE).push_back((i, job));
    }
    let deques = &deques;
    let done: Vec<Completed<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| scope.spawn(move || work(deques, me)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("jobs run under catch_unwind"))
            .collect()
    });
    debug_assert_eq!(done.len(), n);
    merge_canonical(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn results_come_back_in_plan_order() {
        let jobs: Vec<_> = (0..50u64).map(|i| move || i * i).collect();
        for workers in [1, 2, 4, 8] {
            let out = run_jobs(jobs.clone(), workers);
            let vals: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(vals, (0..50u64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_plan_is_fine() {
        let out: Vec<JobResult<u32>> = run_jobs(Vec::<fn() -> u32>::new(), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_jobs() {
        let jobs: Vec<_> = (0..3u32).map(|i| move || i + 1).collect();
        let out = run_jobs(jobs, 16);
        assert_eq!(
            out.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn panic_is_contained_as_job_error() {
        for workers in [1, 4] {
            let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
                Box::new(|| 7),
                Box::new(|| panic!("injected failure")),
                Box::new(|| 9),
            ];
            let out = run_jobs(jobs, workers);
            assert_eq!(out[0], Ok(7));
            assert_eq!(out[2], Ok(9));
            let err = out[1].as_ref().unwrap_err();
            assert_eq!(err.index, 1);
            assert_eq!(err.message, "injected failure");
            assert_eq!(err.to_string(), "job #1 panicked: injected failure");
        }
    }

    #[test]
    fn string_panic_payload_is_preserved() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| panic!("{} {}", "formatted", 42))];
        let out = run_jobs(jobs, 2);
        assert_eq!(out[0].as_ref().unwrap_err().message, "formatted 42");
    }

    #[test]
    fn all_jobs_panicking_still_drains_the_pool() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8)
            .map(|i| {
                Box::new(move || -> u32 { panic!("boom {i}") }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        let out = run_jobs(jobs, 4);
        assert_eq!(out.len(), 8);
        for (i, r) in out.iter().enumerate() {
            let e = r.as_ref().unwrap_err();
            assert_eq!(e.index, i);
            assert_eq!(e.message, format!("boom {i}"));
        }
    }

    #[test]
    fn jobs_actually_run_concurrently() {
        // Two jobs that each wait (politely, with sleeps) until both have
        // started. With 2 workers this completes; with 1 it could not.
        let started = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() -> bool + Send>> = (0..2)
            .map(|_| {
                let started = &started;
                Box::new(move || {
                    started.fetch_add(1, Ordering::SeqCst);
                    for _ in 0..10_000 {
                        if started.load(Ordering::SeqCst) >= 2 {
                            return true;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    false
                }) as Box<dyn FnOnce() -> bool + Send>
            })
            .collect();
        let out = run_jobs(jobs, 2);
        assert!(out.into_iter().all(|r| r.unwrap()), "jobs never overlapped");
    }

    #[test]
    fn work_stealing_covers_uneven_deques() {
        // 64 jobs, one very long job seeded into worker 0's deque: the
        // rest of worker 0's local work must be stolen and finished by
        // the other workers while it is stuck.
        let done = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
            .map(|i| {
                let done = &done;
                Box::new(move || {
                    if i == 0 {
                        // Hold worker 0 until nearly everything else ran.
                        for _ in 0..10_000 {
                            if done.load(Ordering::SeqCst) >= 60 {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = run_jobs(jobs, 4);
        let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, (0..64).collect::<Vec<_>>());
    }
}
