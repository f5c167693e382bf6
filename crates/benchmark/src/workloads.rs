//! The four named workloads. Each iteration of a workload first runs
//! its set-up twins — the generators, reference oracles and cluster
//! builds its simulations perform internally, called separately so their
//! cost can be timed on its own — and then its simulations through the
//! apps' public `run*` functions.
//!
//! A twin is shared by the simulations of one app: every variant of an
//! app generates the same inputs and builds the same cluster, so
//! subtracting the twin from each of their run times leaves the
//! simulation's own cost.

use std::hint::black_box;

use asan_apps::dfa::LiteralDfa;
use asan_apps::runner::{standard_cluster, AppRun, Variant};
use asan_apps::{data, grep, hashjoin, md5, md5app, mpeg, psort, reduce, select, tar};
use asan_core::cluster::{Cluster, ClusterConfig};
use asan_core::metrics::MetricsReport;
use asan_core::{ActiveSwitchConfig, HandlerPlacement};
use asan_net::TopoSpec;
use asan_sim::faults::{FaultPlan, FaultStats};

use crate::trace::Tracer;

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HashJoin and Select, normal and active: the paper's headline
    /// offload, bound by the event loop and the CPU/cache models.
    DbOffload,
    /// MPEG, Grep, Tar, MD5 and Parallel Sort in all four variants:
    /// many short simulations, so per-run fixed costs weigh more.
    PaperApps,
    /// Reductions on a 1024-host radix-4 fat-tree: bound by cluster
    /// construction and teardown, with few events.
    Fabric1024,
    /// Grep and Select under the seeded chaos fault plan: the recovery
    /// path (retransmits, timeouts, disk retries).
    Chaos,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::DbOffload,
        Workload::PaperApps,
        Workload::Fabric1024,
        Workload::Chaos,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DbOffload => "db-offload",
            Workload::PaperApps => "paper-apps",
            Workload::Fabric1024 => "fabric-1024",
            Workload::Chaos => "chaos",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured iterations of a full-size run, after one warm-up: the
    /// same on every commit. Each run measures 14 to 33 s with a release
    /// build on a shared 2-core x86-64 KVM guest.
    pub fn iterations(self) -> usize {
        match self {
            Workload::DbOffload => 8,
            Workload::PaperApps => 30,
            Workload::Fabric1024 => 16,
            Workload::Chaos => 12,
        }
    }

    /// What one iteration runs. `small` substitutes the apps' test
    /// sizes (and a 64-host fabric); `seed` seeds the chaos fault plan,
    /// the only input of these workloads that the apps let a caller
    /// choose.
    pub fn plan(self, small: bool, seed: u64) -> Plan {
        let mut plan = Plan::default();
        match self {
            Workload::DbOffload => {
                let hj = pick(small, hashjoin::Params::small, hashjoin::Params::paper);
                let sel = pick(small, select::Params::small, select::Params::paper);
                let cfg = ClusterConfig::paper_db();
                let twin = plan.twin(hashjoin_twin(hj.clone(), cfg.clone()));
                plan.pair("hashjoin", twin, [Variant::Normal, Variant::Active], |v| {
                    let p = hj.clone();
                    move || hashjoin::run(v, &p).into()
                });
                let twin = plan.twin(select_twin(sel.clone(), cfg));
                plan.pair("select", twin, [Variant::Normal, Variant::Active], |v| {
                    let p = sel.clone();
                    move || select::run(v, &p).into()
                });
            }
            Workload::PaperApps => {
                let cfg = ClusterConfig::paper();
                let p = pick(small, mpeg::Params::small, mpeg::Params::paper);
                let twin = plan.twin(mpeg_twin(p.clone()));
                plan.four("mpeg", twin, |v| {
                    let p = p.clone();
                    move || mpeg::run(v, &p).into()
                });
                let p = pick(small, grep::Params::small, grep::Params::paper);
                let twin = plan.twin(grep_twin(p.clone(), cfg));
                plan.four("grep", twin, |v| {
                    let p = p.clone();
                    move || grep::run(v, &p).into()
                });
                let p = pick(small, tar::Params::small, tar::Params::paper);
                let twin = plan.twin(tar_twin(p.clone()));
                plan.four("tar", twin, |v| {
                    let p = p.clone();
                    move || tar::run(v, &p).into()
                });
                let p = pick(small, md5app::Params::small, md5app::Params::paper);
                let twin = plan.twin(md5_twin(p.clone()));
                plan.four("md5", twin, |v| {
                    let p = p.clone();
                    move || md5app::run(v, &p).into()
                });
                let p = pick(small, psort::Params::small, psort::Params::paper);
                let twin = plan.twin(psort_twin(p.clone()));
                plan.four("psort", twin, |v| {
                    let p = p.clone();
                    move || psort::run(v, &p).into()
                });
            }
            Workload::Fabric1024 => {
                const RADIX: usize = 4;
                let hosts = if small { 64 } else { 1024 };
                let twin = plan.twin(reduce_twin(hosts, RADIX));
                let one = reduce::Mode::ReduceToOne;
                let base = plan.sim("reduce-to-one/host-mst", twin, move || {
                    reduce::run_scaled(one, false, hosts, RADIX, HandlerPlacement::Nca).into()
                });
                for placement in HandlerPlacement::ALL {
                    let name = format!("reduce-to-one/active-{}", placement.label());
                    let active = plan.sim(&name, twin, move || {
                        reduce::run_scaled(one, true, hosts, RADIX, placement).into()
                    });
                    plan.pairs.push((base, active));
                }
                plan.sim("distributed-reduce/active-nca", twin, move || {
                    let mode = reduce::Mode::Distributed;
                    reduce::run_scaled(mode, true, hosts, RADIX, HandlerPlacement::Nca).into()
                });
            }
            Workload::Chaos => {
                let with_faults = |mut cfg: ClusterConfig| {
                    cfg.faults = Some(FaultPlan::chaos(seed));
                    cfg
                };
                let pref = [Variant::NormalPref, Variant::ActivePref];
                let p = pick(small, grep::Params::small, grep::Params::paper);
                let cfg = with_faults(ClusterConfig::paper());
                let twin = plan.twin(grep_twin(p.clone(), cfg.clone()));
                plan.pair("grep", twin, pref, |v| {
                    let (p, cfg) = (p.clone(), cfg.clone());
                    move || grep::run_with_config(v, &p, cfg.clone()).into()
                });
                let p = pick(small, select::Params::small, select::Params::paper);
                let cfg = with_faults(ClusterConfig::paper_db());
                let twin = plan.twin(select_twin(p.clone(), cfg.clone()));
                plan.pair("select", twin, pref, |v| {
                    let (p, cfg) = (p.clone(), cfg.clone());
                    move || select::run_with_config(v, &p, cfg.clone()).into()
                });
            }
        }
        plan
    }
}

fn pick<P>(small: bool, small_p: fn() -> P, paper_p: fn() -> P) -> P {
    if small {
        small_p()
    } else {
        paper_p()
    }
}

/// What the benchmark keeps from one simulation.
#[derive(Debug, Clone)]
pub struct SimOut {
    /// Canonical cluster-stats digest.
    pub digest: u64,
    /// Events the scheduler processed.
    pub events: u64,
    /// High-water mark of the pending-event queue.
    pub peak_queue: u64,
    /// Simulated execution time, picoseconds.
    pub exec_ps: u64,
    /// Bytes carried over every link hop (0 for reductions, whose
    /// result type does not carry it).
    pub link_bytes: u64,
    /// Latency histograms and phase breakdown.
    pub metrics: MetricsReport,
    /// Fault counters.
    pub faults: FaultStats,
}

impl From<AppRun> for SimOut {
    fn from(r: AppRun) -> SimOut {
        SimOut {
            digest: r.stats_digest,
            events: r.events,
            peak_queue: r.peak_queue,
            exec_ps: r.exec.as_ps(),
            link_bytes: r.link_bytes,
            metrics: r.metrics,
            faults: r.faults,
        }
    }
}

impl From<reduce::ReduceRun> for SimOut {
    fn from(r: reduce::ReduceRun) -> SimOut {
        SimOut {
            digest: r.stats_digest,
            events: r.events,
            peak_queue: r.peak_queue,
            exec_ps: r.latency.as_ps(),
            link_bytes: 0,
            metrics: r.metrics,
            faults: r.faults,
        }
    }
}

/// One set-up twin: the set-up work of one app, timed by the benchmark.
pub struct Twin {
    /// The app whose set-up this repeats.
    pub app: &'static str,
    /// Generates, checks, builds and drops, under detail spans.
    pub run: Box<dyn Fn(&mut Tracer<'_>)>,
}

impl Twin {
    /// Name of its span: `setup:<app>`.
    pub fn span(&self) -> String {
        format!("setup:{}", self.app)
    }
}

fn twin(app: &'static str, run: impl Fn(&mut Tracer<'_>) + 'static) -> Twin {
    Twin {
        app,
        run: Box::new(run),
    }
}

/// One measured simulation.
pub struct Sim {
    /// `<app>/<variant>`.
    pub name: String,
    /// Index of the twin repeating its set-up.
    pub twin: usize,
    /// The public `run*` call.
    pub run: Box<dyn Fn() -> SimOut>,
}

impl Sim {
    /// Name of its span: `run:<app>/<variant>`.
    pub fn span(&self) -> String {
        format!("run:{}", self.name)
    }
}

/// Everything one iteration runs.
#[derive(Default)]
pub struct Plan {
    /// Set-up twins, run first.
    pub twins: Vec<Twin>,
    /// Simulations, run after the twins.
    pub sims: Vec<Sim>,
    /// `(baseline, active)` sim indices whose exec-time ratio is the
    /// modelled speedup.
    pub pairs: Vec<(usize, usize)>,
}

impl Plan {
    fn twin(&mut self, t: Twin) -> usize {
        self.twins.push(t);
        self.twins.len() - 1
    }

    fn sim(&mut self, name: &str, twin: usize, run: impl Fn() -> SimOut + 'static) -> usize {
        self.sims.push(Sim {
            name: name.to_string(),
            twin,
            run: Box::new(run),
        });
        self.sims.len() - 1
    }

    /// Adds `app` in a baseline and an active variant, paired.
    fn pair<F: Fn() -> SimOut + 'static>(
        &mut self,
        app: &str,
        twin: usize,
        variants: [Variant; 2],
        make: impl Fn(Variant) -> F,
    ) {
        let [base, active] =
            variants.map(|v| self.sim(&format!("{app}/{}", v.label()), twin, make(v)));
        self.pairs.push((base, active));
    }

    /// Adds `app` in all four variants, pairing each normal variant
    /// with its active counterpart.
    fn four<F: Fn() -> SimOut + 'static>(
        &mut self,
        app: &str,
        twin: usize,
        make: impl Fn(Variant) -> F,
    ) {
        self.pair(app, twin, [Variant::Normal, Variant::Active], &make);
        self.pair(app, twin, [Variant::NormalPref, Variant::ActivePref], &make);
    }
}

/// Builds a single-switch cluster and loads `files` onto its first
/// storage node, as the apps' cluster builders do.
fn build_cluster(hosts: usize, tcas: usize, cfg: ClusterConfig, files: &[&[u8]]) -> Cluster {
    let (mut cl, _, ts, _) = standard_cluster(hosts, tcas, cfg);
    for f in files {
        cl.add_file(ts[0], f.to_vec())
            .expect("input file fits on the storage node");
    }
    cl
}

fn hashjoin_twin(p: hashjoin::Params, cfg: ClusterConfig) -> Twin {
    twin("hashjoin", move |t| {
        let (r, s) = t.detail("apps.data", |_| {
            data::join_tables(
                p.r_bytes as usize,
                p.s_bytes as usize,
                p.record_bytes as usize,
            )
        });
        t.detail("apps.reference", |_| {
            black_box(hashjoin::reference(&r, &s, &p))
        });
        let cl = t.detail("core.build", |_| {
            build_cluster(1, 1, cfg.clone(), &[&r, &s])
        });
        t.detail("core.teardown", |_| drop((cl, r, s)));
    })
}

fn select_twin(p: select::Params, cfg: ClusterConfig) -> Twin {
    twin("select", move |t| {
        let table = t.detail("apps.data", |_| {
            data::db_table(
                p.table_bytes as usize,
                p.record_bytes as usize,
                "select-table",
            )
        });
        t.detail("apps.reference", |_| {
            black_box(select::reference_count(&table, &p))
        });
        let cl = t.detail("core.build", |_| {
            build_cluster(1, 1, cfg.clone(), &[&table])
        });
        t.detail("core.teardown", |_| drop((cl, table)));
    })
}

fn grep_twin(p: grep::Params, cfg: ClusterConfig) -> Twin {
    twin("grep", move |t| {
        let corpus = t.detail("apps.data", |_| {
            data::grep_corpus(p.file_bytes as usize, p.pattern, p.matches)
        });
        t.detail("apps.reference", |_| {
            black_box(LiteralDfa::new(p.pattern.as_bytes()).count(&corpus))
        });
        let cl = t.detail("core.build", |_| {
            build_cluster(1, 1, cfg.clone(), &[&corpus])
        });
        t.detail("core.teardown", |_| drop((cl, corpus)));
    })
}

fn mpeg_twin(p: mpeg::Params) -> Twin {
    twin("mpeg", move |t| {
        let video = t.detail("apps.data", |_| data::mpeg_stream(p.video_bytes as usize));
        t.detail("apps.reference", |_| {
            black_box(mpeg::reference_i_bytes(&video))
        });
        let cl = t.detail("core.build", |_| {
            build_cluster(1, 1, ClusterConfig::paper(), &[&video])
        });
        t.detail("core.teardown", |_| drop((cl, video)));
    })
}

/// Tar checks its archive stream as it runs, so it has no oracle.
fn tar_twin(p: tar::Params) -> Twin {
    twin("tar", move |t| {
        let files = t.detail("apps.data", |_| {
            data::file_set(p.files, p.file_bytes as usize)
        });
        let cl = t.detail("core.build", |_| {
            let refs: Vec<&[u8]> = files.iter().map(Vec::as_slice).collect();
            build_cluster(1, 2, ClusterConfig::paper(), &refs)
        });
        t.detail("core.teardown", |_| drop((cl, files)));
    })
}

/// The active variants check an interleaved digest instead of the
/// plain one; both hash the same bytes.
fn md5_twin(p: md5app::Params) -> Twin {
    twin("md5", move |t| {
        let input = t.detail("apps.data", |_| data::md5_input(p.input_bytes as usize));
        t.detail("apps.reference", |_| black_box(md5::md5(&input)));
        let cl = t.detail("core.build", |_| {
            let mut cfg = ClusterConfig::paper();
            cfg.active = ActiveSwitchConfig::with_cpus(p.switch_cpus);
            build_cluster(1, 1, cfg, &[&input])
        });
        t.detail("core.teardown", |_| drop((cl, input)));
    })
}

fn psort_twin(p: psort::Params) -> Twin {
    twin("psort", move |t| {
        let shares: Vec<Vec<u8>> = t.detail("apps.data", |_| {
            (0..p.nodes)
                .map(|i| {
                    data::datamation(p.records_per_node() as usize, &format!("sort-share-{i}"))
                })
                .collect()
        });
        t.detail("apps.reference", |_| {
            black_box(psort::reference_counts(&shares, p.nodes))
        });
        let cl = t.detail("core.build", |_| {
            let (mut cl, _, ts, _) = standard_cluster(p.nodes, p.nodes, ClusterConfig::paper());
            for (tca, share) in ts.iter().zip(&shares) {
                cl.add_file(*tca, share.clone())
                    .expect("share fits on its storage node");
            }
            cl
        });
        t.detail("core.teardown", |_| drop((cl, shares)));
    })
}

fn reduce_twin(hosts: usize, radix: usize) -> Twin {
    twin("reduce", move |t| {
        let vectors: Vec<Vec<u8>> = t.detail("apps.data", |_| {
            (0..hosts).map(data::reduce_vector).collect()
        });
        t.detail("apps.reference", |_| {
            black_box(reduce::reference_sum(hosts))
        });
        let cl = t.detail("core.build", |_| {
            Cluster::from_spec(&TopoSpec::fat_tree(radix, hosts, 0), ClusterConfig::paper())
        });
        t.detail("core.teardown", |_| drop((cl, vectors)));
    })
}
