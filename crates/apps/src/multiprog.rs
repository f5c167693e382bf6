//! The multiprogrammed-server experiment (§7's closing claim).
//!
//! "Even where there is little or no speedup, reductions in host
//! utilization and system bandwidth requirements allow for other tasks
//! to be performed concurrently. Thus, active switches can play a key
//! role in improving overall throughput in modern multi-programmed
//! servers."
//!
//! We make that quantitative: run Grep (normal+pref vs active+pref)
//! while a CPU-bound background job is co-scheduled on the same host.
//! The job soaks up whatever CPU time Grep leaves idle; the *makespan*
//! (both jobs done) shows the throughput effect that execution time
//! alone hides.

use asan_core::cluster::ClusterConfig;
use asan_sim::{SimDuration, SimTime};

use crate::grep;
use crate::Variant;

/// Result of one co-scheduled run.
#[derive(Debug, Clone)]
pub struct MultiprogRun {
    /// Which Grep configuration ran in the foreground.
    pub variant: Variant,
    /// When Grep finished.
    pub grep_done: SimTime,
    /// When the background job finished (it runs on after Grep if
    /// needed: `grep_done + leftover`).
    pub background_done: SimTime,
    /// Makespan: both jobs complete.
    pub makespan: SimTime,
}

/// Runs Grep with `background` CPU time co-scheduled on the host.
///
/// # Panics
///
/// Panics if the Grep result fails its reference validation.
pub fn run(variant: Variant, p: &grep::Params, background: SimDuration) -> MultiprogRun {
    let cfg = ClusterConfig {
        label: format!("bg-{}us", background.as_us()),
        ..ClusterConfig::paper()
    };
    let (report, bg_done, bg_left) = grep::run_with_background(variant, p, cfg, background);
    let grep_done = report;
    let background_done = match bg_done {
        Some(t) => t,
        None => grep_done + bg_left,
    };
    MultiprogRun {
        variant,
        grep_done,
        background_done,
        makespan: grep_done.max(background_done),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_improves_makespan_with_background_work() {
        let p = grep::Params::small();
        // Background work comparable to the run length.
        let bg = SimDuration::from_ms(8);
        let normal = run(Variant::NormalPref, &p, bg);
        let active = run(Variant::ActivePref, &p, bg);
        // Active frees more host cycles, so the pair finishes sooner.
        assert!(
            active.makespan < normal.makespan,
            "active {} vs normal {}",
            active.makespan,
            normal.makespan
        );
    }

    #[test]
    fn background_completes_during_idle_when_small() {
        let p = grep::Params::small();
        let bg = SimDuration::from_us(500);
        let r = run(Variant::ActivePref, &p, bg);
        // A small job fits entirely inside Grep's idle time.
        assert!(r.background_done <= r.grep_done);
        assert_eq!(r.makespan, r.grep_done);
    }

    #[test]
    fn zero_background_is_plain_grep() {
        let p = grep::Params::small();
        let r = run(Variant::NormalPref, &p, SimDuration::ZERO);
        assert_eq!(r.makespan, r.grep_done);
    }
}
