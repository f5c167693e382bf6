//! Measures one workload: a discarded warm-up iteration, the untraced
//! iterations the end-to-end metrics come from, then the traced
//! iterations and probes the per-layer metrics come from.
//!
//! Run time is the fastest run of each simulation, summed; set-up time
//! is the median iteration's; both are scaled to a reference machine
//! speed. The estimates answer the machine this runs on: a shared 2-core
//! KVM guest whose neighbours slow it by up to 1.5×, sometimes in spells
//! of seconds and sometimes for minutes, mostly through the caches they
//! share with it. Interference only adds time, so a simulation's fastest
//! run is its least disturbed one. For the slower drift, every
//! iteration also times a fixed calibration loop that walks a table
//! sized to stay in L2, the level the simulator's own tables live in,
//! and every host time is multiplied by the loop's reference time over
//! its median time in the run. The loop slows with the neighbours,
//! though less than the simulator does, so some of their load still
//! shows.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};

use asan_sim::LogHistogram;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::Summary;
use crate::trace::{self_time, Span, Tracer};
use crate::workloads::{Plan, Sim, SimOut, Workload};

/// How one workload is measured.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Use the apps' test sizes.
    pub small: bool,
    /// Workload seed.
    pub seed: u64,
    /// Run (and discard) one warm-up iteration first.
    pub warmup: bool,
    /// Untraced, measured iterations.
    pub iterations: usize,
    /// Traced iterations after them (0: no per-layer metrics).
    pub traced: usize,
}

/// Median time of [`calibrate`] on the reference machine (a 2-core
/// x86-64 KVM guest with 2 MiB of L2 per core, at its usual speed): host
/// times are reported as if measured at this speed.
const REFERENCE_CALIBRATION_S: f64 = 0.0065;

/// Entries of the calibration table: 512 KiB, more than L1 holds and
/// well inside L2.
const CYCLE_LEN: usize = 128 << 10;

/// Loads [`calibrate`] makes.
const CALIBRATION_STEPS: usize = 1 << 20;

/// The calibration table: a random permutation of `0..CYCLE_LEN` that
/// is one single cycle (Sattolo's shuffle), the same in every run.
fn calibration_cycle() -> Vec<u32> {
    let mut next: Vec<u32> = (0..CYCLE_LEN as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..CYCLE_LEN).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

/// The calibration loop: a chain of dependent loads around `cycle`,
/// each waiting on the one before, so its time follows the speed of the
/// core and its L2. It uses no simulator code, so a change to the
/// simulator cannot move it.
fn calibrate(cycle: &[u32]) -> u32 {
    let mut i = 0u32;
    for _ in 0..CALIBRATION_STEPS {
        i = cycle[i as usize];
    }
    black_box(i)
}

/// One simulation: its first successful output and its run times.
#[derive(Debug, Clone)]
pub struct SimRecord {
    /// `<app>/<variant>`.
    pub name: String,
    /// Its first successful output (`None` if every run failed).
    pub out: Option<SimOut>,
    /// Host seconds of its `run*` call in each measured iteration, as
    /// measured.
    pub run_s: Vec<f64>,
}

/// Everything measured for one workload.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted: every set-up twin and simulation run.
    pub attempted: u64,
    /// Operations that panicked, or whose digest differed from the
    /// simulation's first run.
    pub failed: u64,
    /// Each [`END_TO_END`] metric, in catalog order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Host seconds of all `run*` calls in each measured iteration, as
    /// measured.
    pub iteration_wall_s: Vec<f64>,
    /// Reference speed over measured speed: the factor applied to every
    /// reported host time.
    pub clock_scale: f64,
    /// Each [`PER_LAYER`] metric, in catalog order (empty when no
    /// iteration was traced).
    pub per_layer: Vec<(&'static str, f64)>,
    /// `core.run.self_ms` before clamping each simulation at 0.
    pub self_ms_raw: f64,
    /// Per-simulation records, in plan order.
    pub sims: Vec<SimRecord>,
    /// Spans of the traced iterations.
    pub spans: Vec<Span>,
}

/// Per-simulation bookkeeping across iterations.
struct Book {
    sims: Vec<SimRecord>,
    attempted: u64,
    failed: u64,
}

impl Book {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn record(&mut self, i: usize, out: Option<SimOut>) {
        let rec = &mut self.sims[i];
        let ok = match (&rec.out, out) {
            (_, None) => false,
            (None, Some(o)) => {
                rec.out = Some(o);
                true
            }
            (Some(first), Some(o)) => {
                let same = first.digest == o.digest;
                if !same {
                    eprintln!(
                        "{}: digest {:016x} differs from the first run's {:016x}",
                        rec.name, o.digest, first.digest
                    );
                }
                same
            }
        };
        self.op(ok);
    }
}

fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    panic::catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Runs one iteration: each set-up twin under `setup:<app>` inside
/// `setup`, the calibration loop around `cycle`, then each simulation
/// under `run:<sim>`, all inside `iteration`.
fn iteration(plan: &Plan, cycle: &[u32], t: &mut Tracer<'_>, book: &mut Book, k: u32) {
    t.set_iteration(k);
    t.span("iteration", |t| {
        t.span("setup", |t| {
            for twin in &plan.twins {
                let ok = t.span(&twin.span(), |t| guarded(|| (twin.run)(t)));
                book.op(ok.is_some());
            }
        });
        t.span("calibrate", |_| calibrate(cycle));
        for (i, sim) in plan.sims.iter().enumerate() {
            let out = t.span(&sim.span(), |_| guarded(|| (sim.run)()));
            book.record(i, out);
        }
    });
}

/// Measures `workload` with wall-clock `clock` (seconds).
pub fn measure(workload: Workload, s: &Settings, clock: &dyn Fn() -> f64) -> Outcome {
    let plan = workload.plan(s.small, s.seed);
    let mut book = Book {
        sims: plan
            .sims
            .iter()
            .map(|sim| SimRecord {
                name: sim.name.clone(),
                out: None,
                run_s: Vec::new(),
            })
            .collect(),
        attempted: 0,
        failed: 0,
    };
    let cycle = calibration_cycle();
    let mut t = Tracer::new(clock);
    let mut measured = Vec::new();
    for k in (if s.warmup { 0 } else { 1 })..=s.iterations {
        iteration(&plan, &cycle, &mut t, &mut book, k as u32);
        let spans = t.take_spans();
        eprintln!(
            "{}: iteration {k} took {:.3} s",
            workload.name(),
            spans[0].duration()
        );
        if k > 0 {
            measured.extend(spans);
        }
    }
    let rss = peak_rss_mib();
    t.set_detailed(true);
    for k in s.iterations + 1..=s.iterations + s.traced {
        iteration(&plan, &cycle, &mut t, &mut book, k as u32);
    }
    let traced = t.take_spans();

    let times = durations(&measured);
    for (rec, sim) in book.sims.iter_mut().zip(&plan.sims) {
        rec.run_s = times.get(sim.span().as_str()).cloned().unwrap_or_default();
    }
    let events: u64 = book
        .sims
        .iter()
        .filter_map(|r| r.out.as_ref())
        .map(|o| o.events)
        .sum();
    let median = |v: &[f64]| Summary::of(v).median;
    let scale = ratio(REFERENCE_CALIBRATION_S, median(&times["calibrate"]));
    let wall = scale * fastest_sum(&times, plan.sims.iter().map(Sim::span));
    let setup = median(&per_iteration(&measured, |n| n == "setup"));
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "wall_s" => wall,
                "events_per_s" => ratio(events as f64, wall),
                "setup_s" => scale * setup,
                "peak_rss_mb" => rss,
                other => unreachable!("no measurement for end-to-end metric {other}"),
            };
            (m.name, v)
        })
        .collect();

    let mut layer = BTreeMap::new();
    let mut self_ms_raw = 0.0;
    if s.traced > 0 {
        let traced_times = durations(&traced);
        for name in DETAIL_SPANS {
            let fastest = min(&per_iteration(&traced, |n| n == name));
            layer.insert(format!("{name}.ms"), scale * fastest * 1e3);
        }
        let mut self_ms = 0.0;
        for sim in &plan.sims {
            let d = min(&traced_times[sim.span().as_str()])
                - min(&traced_times[plan.twins[sim.twin].span().as_str()]);
            self_ms += scale * d.max(0.0) * 1e3;
            self_ms_raw += scale * d * 1e3;
        }
        layer.insert("core.run.self_ms".into(), self_ms);
        layer.insert(
            "core.run.ns_per_event".into(),
            ratio(self_ms * 1e6, events as f64),
        );
        // The detail spans are all a traced iteration adds, so their
        // measured cost is the overhead; timing traced against untraced
        // iterations would only see the machine's noise.
        let detail_spans = traced
            .iter()
            .filter(|sp| DETAIL_SPANS.contains(&sp.name.as_str()))
            .count() as f64
            / s.traced as f64;
        let untraced_iteration = median(&per_iteration(&measured, |n| n == "iteration"));
        layer.insert(
            "trace.overhead_pct".into(),
            ratio(detail_spans * span_cost(clock), untraced_iteration) * 100.0,
        );
        let coverage = traced
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "iteration")
            .map(|(i, s)| (1.0 - ratio(self_time(&traced, i), s.duration())) * 100.0)
            .fold(100.0, f64::min);
        layer.insert("trace.coverage_pct".into(), coverage);
        for (name, ns) in probes::run_all(clock, s.seed, s.small) {
            layer.insert(name.into(), scale * ns);
        }
        counts(&plan, &book.sims, &mut layer);
    }
    let per_layer = if layer.is_empty() {
        Vec::new()
    } else {
        PER_LAYER.iter().map(|m| (m.name, layer[m.name])).collect()
    };
    Outcome {
        attempted: book.attempted,
        failed: book.failed,
        end_to_end,
        iteration_wall_s: per_iteration(&measured, |n| n.starts_with("run:")),
        clock_scale: scale,
        per_layer,
        self_ms_raw,
        sims: book.sims,
        spans: traced,
    }
}

/// The spans only the traced iterations record.
const DETAIL_SPANS: [&str; 4] = ["apps.data", "apps.reference", "core.build", "core.teardown"];

/// Seconds one detail span costs to record: the median over 15 batches
/// of 10 000 empty detail spans.
fn span_cost(clock: &dyn Fn() -> f64) -> f64 {
    const BATCH: usize = 10_000;
    let mut t = Tracer::new(clock);
    t.set_detailed(true);
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = clock();
            for _ in 0..BATCH {
                t.detail(DETAIL_SPANS[0], |_| ());
            }
            let dt = clock() - t0;
            black_box(t.take_spans());
            dt / BATCH as f64
        })
        .collect();
    Summary::of(&samples).median
}

/// Durations of the spans of each name, in iteration order.
fn durations(spans: &[Span]) -> BTreeMap<&str, Vec<f64>> {
    let mut out: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name.as_str()).or_default().push(s.duration());
    }
    out
}

/// The smallest of `v` (0 for none).
fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The fastest time of each span in `names`, summed.
fn fastest_sum(times: &BTreeMap<&str, Vec<f64>>, names: impl Iterator<Item = String>) -> f64 {
    names
        .map(|n| times.get(n.as_str()).map_or(0.0, |v| min(v)))
        .sum()
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per iteration (in iteration order), the summed duration of the spans
/// whose name satisfies `pick`.
fn per_iteration(spans: &[Span], pick: impl Fn(&str) -> bool) -> Vec<f64> {
    let mut by_iter: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "iteration") {
        by_iter.insert(s.iteration, 0.0);
    }
    for s in spans.iter().filter(|s| pick(&s.name)) {
        *by_iter.entry(s.iteration).or_default() += s.duration();
    }
    by_iter.into_values().collect()
}

/// The simulated counts, summed (or merged) over the simulations.
fn counts(plan: &Plan, sims: &[SimRecord], layer: &mut BTreeMap<String, f64>) {
    let outs: Vec<&SimOut> = sims.iter().filter_map(|r| r.out.as_ref()).collect();
    let sum = |f: &dyn Fn(&SimOut) -> u64| outs.iter().map(|o| f(o)).sum::<u64>() as f64;
    let merged = |f: &dyn Fn(&SimOut) -> &LogHistogram| {
        let mut h = LogHistogram::new();
        for o in &outs {
            h.merge(f(o));
        }
        h
    };
    let mut put = |name: &str, v: f64| {
        layer.insert(name.to_string(), v);
    };
    put("sim.events", sum(&|o| o.events));
    put(
        "sim.queue.peak",
        outs.iter().map(|o| o.peak_queue).max().unwrap_or(0) as f64,
    );
    put("net.link_bytes", sum(&|o| o.link_bytes));
    let packets = sum(&|o| o.metrics.packet_e2e.count());
    put("net.packets", packets);
    put(
        "net.hops.p50",
        merged(&|o| &o.metrics.packet_hops).percentile(50) as f64,
    );
    for (name, hist) in [
        ("net.credit_stall", merged(&|o| &o.metrics.credit_stall)),
        ("core.handler", merged(&|o| &o.metrics.handler_occupancy)),
        ("core.buffer_wait", merged(&|o| &o.metrics.buffer_wait)),
        ("io.disk", merged(&|o| &o.metrics.disk_service)),
    ] {
        put(&format!("{name}.count"), hist.count() as f64);
        put(&format!("{name}.p99_ns"), hist.percentile(99) as f64 / 1e3);
    }
    let total = sum(&|o| o.metrics.phases.total_ps);
    put(
        "phase.host_share",
        ratio(sum(&|o| o.metrics.phases.host_ps), total),
    );
    put(
        "phase.fabric_share",
        ratio(sum(&|o| o.metrics.phases.fabric_ps), total),
    );
    put(
        "phase.handler_share",
        ratio(sum(&|o| o.metrics.phases.handler_ps), total),
    );
    put(
        "phase.storage_share",
        ratio(sum(&|o| o.metrics.phases.storage_ps), total),
    );
    let classes = |o: &SimOut| {
        let f = &o.faults;
        [
            f.packet_corrupt,
            f.packet_drop,
            f.disk_error,
            f.disk_latency,
            f.link_outage,
            f.handler_trap,
            f.buffer_seize,
        ]
    };
    put(
        "faults.injected",
        sum(&|o| classes(o).iter().map(|c| c.injected).sum()),
    );
    put(
        "faults.recovered",
        sum(&|o| classes(o).iter().map(|c| c.recovered).sum()),
    );
    put(
        "faults.degraded",
        sum(&|o| classes(o).iter().map(|c| c.degraded).sum()),
    );
    let retransmits = sum(&|o| o.faults.retransmits);
    put("faults.retransmits", retransmits);
    put("faults.timeouts", sum(&|o| o.faults.timeouts));
    put("net.retransmit_ratio", ratio(retransmits, packets));
    put("model.exec_ps", sum(&|o| o.exec_ps));
    // Geometric mean of the baseline/active exec-time ratios.
    let logs: Vec<f64> = plan
        .pairs
        .iter()
        .filter_map(|&(b, a)| {
            let (b, a) = (sims[b].out.as_ref()?, sims[a].out.as_ref()?);
            Some(ratio(b.exec_ps as f64, a.exec_ps as f64).ln())
        })
        .collect();
    let speedup = if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    };
    put("model.speedup", speedup);
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 when
/// `/proc` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at test sizes, one untraced and one traced
    /// iteration: every catalogued metric comes out, finite.
    fn smoke(w: Workload) {
        let clock = crate::wall_clock();
        let s = Settings {
            small: true,
            seed: 0xC4A05,
            warmup: false,
            iterations: 1,
            traced: 1,
        };
        let out = measure(w, &s, &clock);
        assert_eq!(out.failed, 0, "{}: failures", w.name());
        let names: Vec<&str> = out.end_to_end.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        for (name, v) in &out.end_to_end {
            assert!(v.is_finite() && *v > 0.0, "{name}: {v}");
        }
        let names: Vec<&str> = out.per_layer.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.name));
        assert!(out.per_layer.iter().all(|(_, v)| v.is_finite()));
        assert!(out.sims.iter().all(|r| r.out.is_some()));
        assert!(out.spans.iter().any(|s| s.name == "apps.data"));
    }

    #[test]
    fn smoke_db_offload() {
        smoke(Workload::DbOffload);
    }

    #[test]
    fn smoke_paper_apps() {
        smoke(Workload::PaperApps);
    }

    #[test]
    fn smoke_fabric() {
        smoke(Workload::Fabric1024);
    }

    #[test]
    fn smoke_chaos() {
        smoke(Workload::Chaos);
    }
}
