//! The correctness gate run before measuring: the 18 small-size golden
//! simulations and the 8 fabric golden cells, made with the same calls
//! as `repro --small golden` and `repro golden-fabric`, diffed against
//! the committed digest files.

use std::panic::{self, AssertUnwindSafe};

use asan_apps::runner::Variant;
use asan_apps::{grep, hashjoin, md5app, mpeg, psort, reduce, select, tar};
use asan_core::HandlerPlacement;

const GOLDEN: &str = include_str!("../../../tests/golden_digests.txt");
const GOLDEN_FABRIC: &str = include_str!("../../../tests/golden_digests_fabric.txt");

/// Result of the gate.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Gate {
    /// Golden lines checked.
    pub attempted: u64,
    /// Lines that panicked, differed, or were missing.
    pub failed: u64,
    /// One message per failed line.
    pub mismatches: Vec<String>,
}

type Job = (String, Box<dyn Fn() -> u64>);

fn job(name: String, run: impl Fn() -> u64 + 'static) -> Job {
    (name, Box::new(run))
}

/// Runs every golden simulation and diffs the digests.
pub fn run() -> Gate {
    let mut jobs: Vec<Job> = Vec::new();
    for (config, v) in [("normal", Variant::Normal), ("active", Variant::Active)] {
        let active = v.is_active();
        jobs.push(job(format!("mpeg {config}"), move || {
            mpeg::run(v, &mpeg::Params::small()).stats_digest
        }));
        jobs.push(job(format!("hashjoin {config}"), move || {
            hashjoin::run(v, &hashjoin::Params::small()).stats_digest
        }));
        jobs.push(job(format!("select {config}"), move || {
            select::run(v, &select::Params::small()).stats_digest
        }));
        jobs.push(job(format!("grep {config}"), move || {
            grep::run(v, &grep::Params::small()).stats_digest
        }));
        jobs.push(job(format!("tar {config}"), move || {
            tar::run(v, &tar::Params::small()).stats_digest
        }));
        jobs.push(job(format!("psort {config}"), move || {
            psort::run(v, &psort::Params::small()).stats_digest
        }));
        jobs.push(job(format!("md5 {config}"), move || {
            md5app::run(v, &md5app::Params::small()).stats_digest
        }));
        for mode in [reduce::Mode::ReduceToOne, reduce::Mode::Distributed] {
            jobs.push(job(format!("{} {config}", mode.tag()), move || {
                reduce::run(mode, active, 8).stats_digest
            }));
        }
    }
    const P: usize = 64;
    const RADIX: usize = 4;
    for mode in [reduce::Mode::ReduceToOne, reduce::Mode::Distributed] {
        let cell = format!("{}-r{RADIX}-p{P}", mode.tag());
        jobs.push(job(format!("{cell} normal"), move || {
            reduce::run_scaled(mode, false, P, RADIX, HandlerPlacement::Nca).stats_digest
        }));
        for placement in HandlerPlacement::ALL {
            jobs.push(job(format!("{cell} {}", placement.label()), move || {
                reduce::run_scaled(mode, true, P, RADIX, placement).stats_digest
            }));
        }
    }
    let produced: Vec<Option<String>> = jobs
        .iter()
        .map(|(name, run)| {
            panic::catch_unwind(AssertUnwindSafe(run))
                .ok()
                .map(|digest| format!("{name} {digest:016x}"))
        })
        .collect();
    let expected: Vec<&str> = GOLDEN.lines().chain(GOLDEN_FABRIC.lines()).collect();
    diff(&expected, &produced)
}

/// Compares produced golden lines (`None` for a simulation that
/// panicked) against the committed ones, position by position.
pub fn diff(expected: &[&str], produced: &[Option<String>]) -> Gate {
    let mut gate = Gate {
        attempted: expected.len().max(produced.len()) as u64,
        ..Gate::default()
    };
    for i in 0..expected.len().max(produced.len()) {
        let want = expected.get(i).copied();
        let got = produced.get(i).and_then(Option::as_deref);
        if want != got || want.is_none() {
            gate.failed += 1;
            gate.mismatches.push(format!(
                "golden: {}\n   got: {}",
                want.unwrap_or("(missing)"),
                got.unwrap_or("(panicked or missing)")
            ));
        }
    }
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_counts_altered_panicked_and_missing_lines() {
        let expected = ["a 01", "b 02", "c 03"];
        let ok: Vec<Option<String>> = expected.iter().map(|s| Some(s.to_string())).collect();
        assert_eq!(
            diff(&expected, &ok),
            Gate {
                attempted: 3,
                ..Gate::default()
            }
        );

        let altered = vec![Some("a 01".to_string()), Some("b ff".to_string()), None];
        let gate = diff(&expected, &altered);
        assert_eq!((gate.attempted, gate.failed), (3, 2));
        assert!(gate.mismatches[0].contains("b ff"));

        let gate = diff(&expected, &ok[..2]);
        assert_eq!((gate.attempted, gate.failed), (3, 1));
    }

    #[test]
    fn committed_golden_files_have_the_gate_shape() {
        assert_eq!(GOLDEN.lines().count(), 18);
        assert_eq!(GOLDEN_FABRIC.lines().count(), 8);
    }
}
