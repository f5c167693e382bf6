//! The golden-run catalog: every run whose stats digest the repository
//! pins, listed once as data.
//!
//! [`golden`] is the paper's nine benchmarks (§5) in the `normal` and
//! `active` configurations, in the order of `tests/golden_digests.txt`
//! (at [`Size::Small`]). [`fabric`] is the collective reduction on a
//! radix-4 fat tree at 64 hosts, in the order of
//! `tests/golden_digests_fabric.txt`. `repro golden`, `repro metrics`,
//! `repro golden-fabric` and the golden test all run these lists, and
//! each row prints as `"{name} {config} {digest:016x}"`.

use asan_core::metrics::MetricsReport;
use asan_core::HandlerPlacement;

use crate::reduce::{self, Mode, ReduceRun};
use crate::runner::{AppRun, Variant};
use crate::{grep, hashjoin, md5app, mpeg, psort, select, tar};

/// What one run yields: its canonical stats digest and its metrics
/// report.
pub type Outcome = (u64, MetricsReport);

/// One catalog row.
pub struct Run {
    /// Benchmark or fabric-cell name: the first column of a golden file.
    pub name: String,
    /// `normal`, `active`, or the handler placement of a fabric cell.
    pub config: &'static str,
    /// Makes the run, on whichever worker thread takes it.
    pub job: Box<dyn FnOnce() -> Outcome + Send>,
}

impl From<AppRun> for Outcome {
    fn from(r: AppRun) -> Outcome {
        (r.stats_digest, r.metrics)
    }
}

impl From<ReduceRun> for Outcome {
    fn from(r: ReduceRun) -> Outcome {
        (r.stats_digest, r.metrics)
    }
}

fn row<R: Into<Outcome>>(
    name: impl Into<String>,
    config: &'static str,
    run: impl FnOnce() -> R + Send + 'static,
) -> Run {
    Run {
        name: name.into(),
        config,
        job: Box::new(move || run().into()),
    }
}

/// The problem sizes a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The scaled-down test inputs: the whole suite runs in seconds.
    Small,
    /// The paper's full problem sizes.
    Paper,
}

impl Size {
    fn pick<T>(self, small: fn() -> T, paper: fn() -> T) -> T {
        match self {
            Size::Small => small(),
            Size::Paper => paper(),
        }
    }

    /// MPEG-filter parameters.
    pub fn mpeg(self) -> mpeg::Params {
        self.pick(mpeg::Params::small, mpeg::Params::paper)
    }

    /// HashJoin parameters.
    pub fn hashjoin(self) -> hashjoin::Params {
        self.pick(hashjoin::Params::small, hashjoin::Params::paper)
    }

    /// Select parameters.
    pub fn select(self) -> select::Params {
        self.pick(select::Params::small, select::Params::paper)
    }

    /// Grep parameters.
    pub fn grep(self) -> grep::Params {
        self.pick(grep::Params::small, grep::Params::paper)
    }

    /// Tar parameters.
    pub fn tar(self) -> tar::Params {
        self.pick(tar::Params::small, tar::Params::paper)
    }

    /// Parallel Sort parameters.
    pub fn psort(self) -> psort::Params {
        self.pick(psort::Params::small, psort::Params::paper)
    }

    /// MD5 parameters with `cpus` switch CPUs.
    pub fn md5(self, cpus: usize) -> md5app::Params {
        md5app::Params {
            switch_cpus: cpus,
            ..self.pick(md5app::Params::small, md5app::Params::paper)
        }
    }

    /// Node counts of the reduction scaling figures (15 and 16).
    pub fn reduce_nodes(self) -> Vec<usize> {
        match self {
            Size::Small => vec![2, 4, 8, 16],
            Size::Paper => vec![2, 4, 8, 16, 32, 64, 128],
        }
    }
}

/// The nine paper benchmarks in `normal`, then in `active`: 18 rows.
/// The two reductions run on 8 nodes at every size.
pub fn golden(size: Size) -> Vec<Run> {
    let mut rows = Vec::new();
    for (config, variant) in [("normal", Variant::Normal), ("active", Variant::Active)] {
        let active = variant.is_active();
        let p = size.mpeg();
        rows.push(row("mpeg", config, move || mpeg::run(variant, &p)));
        let p = size.hashjoin();
        rows.push(row("hashjoin", config, move || hashjoin::run(variant, &p)));
        let p = size.select();
        rows.push(row("select", config, move || select::run(variant, &p)));
        let p = size.grep();
        rows.push(row("grep", config, move || grep::run(variant, &p)));
        let p = size.tar();
        rows.push(row("tar", config, move || tar::run(variant, &p)));
        let p = size.psort();
        rows.push(row("psort", config, move || psort::run(variant, &p)));
        let p = size.md5(1);
        rows.push(row("md5", config, move || md5app::run(variant, &p)));
        for mode in [Mode::ReduceToOne, Mode::Distributed] {
            rows.push(row(mode.tag(), config, move || {
                reduce::run(mode, active, 8)
            }));
        }
    }
    rows
}

/// Per result mode, the host-side baseline (`normal`) and then the
/// active run under every handler placement, on a radix-4 fat tree at
/// 64 hosts: 8 rows.
pub fn fabric() -> Vec<Run> {
    const HOSTS: usize = 64;
    const RADIX: usize = 4;
    let mut rows = Vec::new();
    for mode in [Mode::ReduceToOne, Mode::Distributed] {
        let name = format!("{}-r{RADIX}-p{HOSTS}", mode.tag());
        rows.push(row(name.clone(), "normal", move || {
            reduce::run_scaled(mode, false, HOSTS, RADIX, HandlerPlacement::Nca)
        }));
        for placement in HandlerPlacement::ALL {
            rows.push(row(name.clone(), placement.label(), move || {
                reduce::run_scaled(mode, true, HOSTS, RADIX, placement)
            }));
        }
    }
    rows
}
