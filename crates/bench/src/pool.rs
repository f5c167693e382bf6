//! Dependency-free scoped worker pool for the repro harness.
//!
//! The simulations in a sweep are completely independent — each builds
//! its own [`Cluster`], runs it, and returns plain data — so the
//! harness can run them on OS threads and only the *wall-clock* time
//! changes. Determinism is preserved by construction:
//!
//! - every job is a self-contained closure with no shared mutable
//!   state (the simulators themselves are single-threaded and
//!   `Rc`-based internally; only the `Send` result crosses threads);
//! - results are collected **by submission index**, so the output
//!   order is the job order, never the completion order;
//! - the worker count affects scheduling only, never results — the
//!   same sweep on 1 or 64 workers prints byte-identical reports.
//!
//! [`Cluster`]: ../asan_core/cluster/struct.Cluster.html
//!
//! # Example
//!
//! ```
//! use asan_bench::pool;
//!
//! let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..8u64)
//!     .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> u64 + Send>)
//!     .collect();
//! let squares = pool::run_indexed(jobs, 4);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the harness's one worker pool; every job is a whole simulation with no shared state"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A boxed, sendable job for [`run_indexed`].
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// Runs `jobs` across up to `workers` OS threads and returns their
/// results **in submission order**, regardless of completion order.
///
/// With `workers <= 1` (or a single job) everything runs inline on the
/// calling thread — the deterministic serial baseline the parallel
/// path must match byte for byte.
///
/// # Panics
///
/// Propagates a panic from any job after all workers have stopped.
pub fn run_indexed<T: Send>(jobs: Vec<Job<T>>, workers: usize) -> Vec<T> {
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let workers = workers.min(n);
    // Each slot owns one job (taken exactly once) and later its result;
    // a lock-free counter hands out indices so workers self-balance.
    let slots: Vec<Mutex<Option<Job<T>>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job slot")
                    .take()
                    .expect("each job runs once");
                let out = job();
                *results[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("worker panicked").expect("job ran"))
        .collect()
}

/// The worker count the harness should use: the `ASAN_JOBS` environment
/// variable when set (0 or unparsable falls back), else the machine's
/// available parallelism, else 1. Worker count never affects results,
/// only wall-clock time, so reading the environment here is safe.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("ASAN_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: u64, workers: usize) -> Vec<u64> {
        let jobs: Vec<Job<u64>> = (0..n)
            .map(|i| Box::new(move || i * i) as Job<u64>)
            .collect();
        run_indexed(jobs, workers)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let expect: Vec<u64> = (0..64).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64, 100] {
            assert_eq!(squares(64, workers), expect, "workers = {workers}");
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        assert_eq!(squares(17, 1), squares(17, 4));
    }

    #[test]
    fn empty_and_single_job_edge_cases() {
        assert_eq!(squares(0, 8), Vec::<u64>::new());
        assert_eq!(squares(1, 8), vec![0]);
    }

    #[test]
    fn uneven_job_durations_do_not_reorder_results() {
        // Early jobs sleep, late jobs finish first; index-ordered
        // collection must hide that completely.
        let jobs: Vec<Job<usize>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    if i < 2 {
                        // Test-only delay.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    i
                }) as Job<usize>
            })
            .collect();
        assert_eq!(run_indexed(jobs, 4), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
