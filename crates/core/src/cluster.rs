//! The whole-system simulator: hosts, HCAs, active switches, TCAs,
//! disks, and the event loop that ties them together.
//!
//! This is the reproduction of the paper's execution environment (§4):
//! host programs run as real Rust code charging time against detailed
//! CPU/cache/memory models; I/O requests pay the measured OS costs and
//! stream off the two-disk SCSI array as per-MTU packet schedules; the
//! fabric moves packets with cut-through timing; and active messages
//! invoke switch handlers that process the actual bytes.
//!
//! [`Cluster`] itself is a thin composer: the mechanics live in four
//! subsystem engines that communicate only through a typed event bus.
//! Each engine owns one event enum; the cluster builds the engines,
//! hands each popped event to its owner with one match, and assembles
//! the [`RunReport`] and [`ClusterStats`] afterwards.
//!
//! The event loop is deterministic: ties in simulated time break by
//! insertion order ([`asan_sim::EventQueue`]), and every engine iterates
//! its nodes in ascending node order.

use std::collections::{BTreeMap, BTreeSet};

use asan_cpu::CpuConfig;
use asan_io::{OsCost, StorageConfig};
use asan_net::topo::{NodeKind, TopoMap, TopoSpec, TopologyBuilder};
use asan_net::{Bytes, Fabric, HandlerId, HcaConfig, NodeId};
use asan_sim::faults::{FaultInjector, FaultPlan, FaultStats};
use asan_sim::sched::Scheduler;
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::stats::{TimeBreakdown, Traffic};
use asan_sim::trace::TraceSink;
use asan_sim::{SimDuration, SimTime};

use crate::active::{ActiveSwitch, ActiveSwitchConfig};
use crate::engines::{DispatchEngine, FabricEngine, HostEngine, StorageEngine};
use crate::error::SimError;
use crate::events::{Event, EventBus, FileStore, HostEvent, IoState};
use crate::handler::Handler;
use crate::metrics::{MetricsReport, PhaseBreakdown, Probe};
use crate::placement::{AggNode, AggregationTree};
use crate::stats::{ClusterStats, FabricSnapshot};

pub use crate::engines::{HostCtx, HostProgram};
pub use crate::events::{Dest, FileId, FileMeta, HostMsg, ReqId};

/// Configuration of a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Host CPU/cache configuration.
    pub host_cpu: CpuConfig,
    /// HCA cost parameters.
    pub hca: HcaConfig,
    /// OS I/O overhead constants.
    pub os: OsCost,
    /// Storage array per TCA.
    pub storage: StorageConfig,
    /// Active-switch configuration (applied to every switch node).
    pub active: ActiveSwitchConfig,
    /// Event-count safety limit (deadlock/livelock guard).
    pub max_events: u64,
    /// Deterministic fault plan, if any. `None` (the default) runs the
    /// simulator exactly as before faults existed.
    pub faults: Option<FaultPlan>,
    /// Width of one flight-recorder time-series window (see
    /// [`asan_sim::series::TimeSeries`]). The recorder buckets link
    /// utilization, credit stalls, queue depth, and handler occupancy
    /// into fixed windows of this width; it is observation-only and
    /// never changes simulated behaviour.
    pub timeline_window: SimDuration,
    /// Names a non-standard configuration in run tags: the benchmark
    /// driver appends a non-empty label to the run's tag, so runs of
    /// one benchmark under several configurations write distinct trace
    /// and snapshot files. Empty (the default) for the standard
    /// configurations; it never changes simulated behaviour.
    pub label: String,
}

impl ClusterConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        ClusterConfig {
            host_cpu: CpuConfig::host(),
            hca: HcaConfig::paper(),
            os: OsCost::paper(),
            storage: StorageConfig::paper(),
            active: ActiveSwitchConfig::paper(),
            max_events: 80_000_000,
            faults: None,
            timeline_window: SimDuration::from_us(10),
            label: String::new(),
        }
    }

    /// The paper's database configuration (scaled host caches, §4).
    pub fn paper_db() -> Self {
        ClusterConfig {
            host_cpu: CpuConfig::host_db(),
            ..ClusterConfig::paper()
        }
    }
}

/// Per-host results.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// The host's node ID.
    pub node: NodeId,
    /// Busy/stall/idle breakdown padded to the run's finish time.
    pub breakdown: TimeBreakdown,
    /// Payload bytes in/out of this host.
    pub payload: Traffic,
    /// When this host's program finished.
    pub finished_at: SimTime,
    /// When the co-scheduled background job finished (`None` if it was
    /// still unfinished when the run ended, or none was scheduled).
    pub background_done: Option<SimTime>,
    /// Background CPU time left unconsumed at the end of the run.
    pub background_left: SimDuration,
}

/// Per-switch results.
#[derive(Debug, Clone)]
pub struct SwitchReport {
    /// The switch's node ID.
    pub node: NodeId,
    /// Per-CPU breakdowns padded to the run's finish time.
    pub cpu_breakdowns: Vec<TimeBreakdown>,
    /// Handler invocations.
    pub invocations: u64,
    /// Active payload bytes consumed by handlers.
    pub bytes_in: u64,
    /// Payload bytes emitted by handlers.
    pub bytes_out: u64,
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// When the last host program finished.
    pub finish: SimTime,
    /// When the last event (including trailing archive writes) drained.
    pub drain: SimTime,
    /// Per-host results.
    pub hosts: Vec<HostReport>,
    /// Per-switch results.
    pub switches: Vec<SwitchReport>,
    /// Bytes carried by the fabric, summed over every link hop.
    pub link_bytes: u64,
    /// Events processed (diagnostic).
    pub events: u64,
    /// High-water mark of the scheduler's pending-event queue
    /// (diagnostic; a proxy for the sim's working-set size).
    pub peak_queue: u64,
}

impl RunReport {
    /// The report of host `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotAHost`] if `node` is not a host in this
    /// run.
    pub fn host(&self, node: NodeId) -> Result<&HostReport, SimError> {
        self.hosts
            .iter()
            .find(|h| h.node == node)
            .ok_or(SimError::NotAHost(node))
    }

    /// The report of switch `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotASwitch`] if `node` is not a switch in
    /// this run.
    pub fn switch(&self, node: NodeId) -> Result<&SwitchReport, SimError> {
        self.switches
            .iter()
            .find(|s| s.node == node)
            .ok_or(SimError::NotASwitch(node))
    }

    /// Mean host utilization (the paper's `(1 − idle)/exec`).
    pub fn mean_host_utilization(&self) -> f64 {
        if self.hosts.is_empty() {
            return 0.0;
        }
        self.hosts
            .iter()
            .map(|h| h.breakdown.utilization())
            .sum::<f64>()
            / self.hosts.len() as f64
    }

    /// Total payload traffic in/out across all hosts (the paper's
    /// "host I/O traffic" metric).
    pub fn total_host_payload(&self) -> u64 {
        self.hosts.iter().map(|h| h.payload.total()).sum()
    }
}

/// The assembled cluster simulation: four subsystem engines composed
/// over one deterministic scheduler.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    fabric: Fabric,
    sched: Scheduler<Event>,
    host: HostEngine,
    dispatch: DispatchEngine,
    storage: StorageEngine,
    fabric_engine: FabricEngine,
    files: FileStore,
    reqs: BTreeMap<ReqId, IoState>,
    /// Armed fault injector (None ⇒ the pre-fault simulator, bit for
    /// bit).
    injector: Option<FaultInjector>,
    /// TCA nodes with an active engine, for delivery routing.
    active_tca_nodes: BTreeSet<NodeId>,
    /// The observability probe: always-on latency histograms plus the
    /// optional trace sink spans are delivered to.
    probe: Probe,
    /// Whether the one-time run arming (fault plan, `Start` events) has
    /// happened; a restored mid-run cluster must not re-arm.
    armed: bool,
    /// Running maximum of popped event times (the drain clock).
    drain: SimTime,
}

impl Cluster {
    /// Builds a cluster over `topo` with the given configuration.
    /// Every `Host` node gets a CPU + HCA; every `Switch` node gets an
    /// active switch; every `Tca` node gets a storage array.
    pub fn new(topo: TopologyBuilder, cfg: ClusterConfig) -> Self {
        let fabric = topo.build();
        let mut host = HostEngine::default();
        let mut dispatch = DispatchEngine::default();
        let mut storage = StorageEngine::default();
        let (mut hosts, mut switches) = (Vec::new(), Vec::new());
        for i in 0..fabric.num_nodes() {
            let id = NodeId::from_index(i);
            match fabric.kind(id) {
                NodeKind::Host => hosts.push(id),
                NodeKind::Switch => switches.push(id),
                NodeKind::Tca => storage.add_tca(id, &cfg),
            }
        }
        host.add_hosts(&hosts, &cfg);
        dispatch.add_switches(&switches, &cfg.active);
        let injector = cfg.faults.clone().map(FaultInjector::new);
        let mut probe = Probe::default();
        probe.set_timeline_window(cfg.timeline_window);
        Cluster {
            cfg,
            fabric,
            sched: Scheduler::new(),
            host,
            dispatch,
            storage,
            fabric_engine: FabricEngine,
            files: FileStore::default(),
            reqs: BTreeMap::new(),
            injector,
            active_tca_nodes: BTreeSet::new(),
            probe,
            armed: false,
            drain: SimTime::ZERO,
        }
    }

    /// Builds a cluster from a declarative [`TopoSpec`], returning the
    /// generated [`TopoMap`] so callers can place programs and handlers
    /// on the generated shape (see [`crate::placement`]).
    ///
    /// # Panics
    ///
    /// Panics on any [`asan_net::TopoError`] in the spec.
    pub fn from_spec(spec: &TopoSpec, cfg: ClusterConfig) -> (Cluster, TopoMap) {
        let (topo, map) = spec.builder();
        (Cluster::new(topo, cfg), map)
    }

    /// Installs a trace sink: every span the engines emit from now on
    /// (packet, handler, disk, buffer) is delivered to it. Without a
    /// sink the probe only maintains its histograms — no formatting or
    /// I/O happens. Tracing never changes simulated behaviour: digests
    /// are bit-identical with any sink installed.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.probe.set_sink(sink);
    }

    /// The installed trace sink, if any (e.g. to downcast a
    /// [`asan_sim::trace::RingSink`] and read captured spans back).
    pub fn trace_sink(&self) -> Option<&dyn TraceSink> {
        self.probe.sink()
    }

    /// Removes and returns the installed trace sink, e.g. to hand a
    /// paused run's sink to the cluster it is restored into, so the
    /// resumed run's spans continue the same trace.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.probe.take_sink()
    }

    /// Stores `data` as a file on `tca`'s array, returning its ID.
    ///
    /// The cluster adopts the buffer without copying it: pass a `Vec`
    /// to hand it over, or a clone of a [`Bytes`] to share it with the
    /// caller (simulated corruption is copy-on-write, so a shared file
    /// never changes).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotATca`] if `tca` is not a TCA node.
    pub fn add_file(&mut self, tca: NodeId, data: impl Into<Bytes>) -> Result<FileId, SimError> {
        let data = data.into();
        let stripe = self.cfg.storage.stripe_bytes;
        let disk_offset = self.storage.alloc(tca, data.len() as u64, stripe)?;
        Ok(self.files.push(
            FileMeta {
                tca,
                len: data.len() as u64,
                disk_offset,
            },
            data,
        ))
    }

    /// Co-schedules `cpu_time` of background computation on host
    /// `node`: it consumes time the foreground program would otherwise
    /// spend idle (an OS timeslicing other processes onto the freed
    /// CPU). The run report shows when it completed — the quantitative
    /// form of the paper's claim that lower host utilization "allows
    /// other tasks to be performed concurrently".
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotAHost`] if `node` is not a host.
    pub fn set_background_job(
        &mut self,
        node: NodeId,
        cpu_time: SimDuration,
    ) -> Result<(), SimError> {
        self.host.set_background_job(node, cpu_time)
    }

    /// Installs `program` on host `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotAHost`] if `node` is not a host, and
    /// [`SimError::ProgramAlreadyInstalled`] if it already has a
    /// program.
    pub fn set_program(
        &mut self,
        node: NodeId,
        program: Box<dyn HostProgram>,
    ) -> Result<(), SimError> {
        self.host.set_program(node, program)
    }

    /// Registers `handler` under `id` on switch `node`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotASwitch`] if `node` is not a switch.
    pub fn register_handler(
        &mut self,
        node: NodeId,
        id: HandlerId,
        handler: Box<dyn Handler>,
    ) -> Result<(), SimError> {
        self.dispatch.register(node, id, handler)
    }

    /// Places one handler per switch of an [`AggregationTree`] (see
    /// [`crate::placement::aggregation_tree`]): `make` is called once
    /// per tree switch, ascending node id, with that switch's role.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotASwitch`] if a tree node is not a switch
    /// of this cluster.
    pub fn place_handlers(
        &mut self,
        tree: &AggregationTree,
        id: HandlerId,
        mut make: impl FnMut(NodeId, &AggNode) -> Box<dyn Handler>,
    ) -> Result<(), SimError> {
        self.dispatch.place(tree, id, &mut make)
    }

    /// Removes a handler after a run so the caller can read back state
    /// accumulated inside it. Searches the original engine first, then
    /// any host-side fallback engine a trap migrated it to.
    pub fn take_handler(&mut self, node: NodeId, id: HandlerId) -> Option<Box<dyn Handler>> {
        self.dispatch.take_handler(node, id)
    }

    /// Turns the TCA at `node` into an *active disk*: an embedded
    /// processor (same model as a switch CPU) that can run handlers on
    /// data as it streams off the array — §6's two-level active I/O.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotATca`] if `node` is not a TCA.
    pub fn enable_active_tca(
        &mut self,
        node: NodeId,
        cfg: ActiveSwitchConfig,
    ) -> Result<(), SimError> {
        if !self.storage.contains(node) {
            return Err(SimError::NotATca(node));
        }
        self.dispatch.enable_active_tca(node, cfg);
        self.active_tca_nodes.insert(node);
        Ok(())
    }

    /// Registers `handler` on an active TCA previously enabled with
    /// [`enable_active_tca`](Cluster::enable_active_tca).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TcaNotActive`] if the TCA is not active.
    pub fn register_tca_handler(
        &mut self,
        node: NodeId,
        id: HandlerId,
        handler: Box<dyn Handler>,
    ) -> Result<(), SimError> {
        self.dispatch.register_tca_handler(node, id, handler)
    }

    /// Removes a host's program after a run so the caller can read back
    /// state accumulated inside it.
    pub fn take_program(&mut self, node: NodeId) -> Option<Box<dyn HostProgram>> {
        self.host.take_program(node)
    }

    /// The configuration the cluster was built with.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The fabric (for traffic inspection).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Snapshots every component's low-level counters (cache misses,
    /// ATB traffic, disk seeks, credit stalls, …) for diagnosis.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            hosts: self.host.snapshots(),
            switches: self.dispatch.snapshots(),
            storage: self.storage.snapshots(),
            fabric: FabricSnapshot {
                link_bytes: self.fabric.total_link_bytes(),
                credit_stalls: self.fabric.total_credit_stalls(),
            },
            faults: self.fault_stats(),
            events: self.sched.processed(),
        }
    }

    /// Assembles the observability report for a finished run: the
    /// probe's latency histograms, the fabric's credit-stall
    /// distribution, and the per-phase time breakdown derived from
    /// `report`. Phase buckets measure *occupancy* and overlap in time
    /// (a packet crosses the fabric while a disk seeks), so their
    /// shares can sum past 100% — like the paper's stacked
    /// per-component breakdown bars.
    pub fn metrics(&self, report: &RunReport) -> MetricsReport {
        let mut m = self.probe.report();
        m.credit_stall = self.fabric.credit_stall_histogram();
        let host_ps: u64 = report
            .hosts
            .iter()
            .map(|h| (h.breakdown.busy + h.breakdown.stall).as_ps())
            .sum();
        m.phases = PhaseBreakdown {
            host_ps,
            fabric_ps: m.packet_e2e.sum(),
            handler_ps: m.handler_occupancy.sum(),
            storage_ps: m.disk_service.sum(),
            total_ps: report.drain.as_ps(),
        };
        m
    }

    /// The fault counters accumulated so far (all zero when no plan is
    /// armed).
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.as_ref().map(|i| i.stats).unwrap_or_default()
    }

    /// The active switch at `node` (for inspection).
    pub fn switch(&self, node: NodeId) -> Option<&ActiveSwitch> {
        self.dispatch.switch(node)
    }

    /// Runs the simulation to completion and reports.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the event-count
    /// guard trips (deadlock/livelock guard), and
    /// [`SimError::RetriesExhausted`] if a request's retry budget runs
    /// out under fault injection.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        match self.run_events(u64::MAX)? {
            Some(report) => Ok(report),
            None => unreachable!("an unbounded run always drains"),
        }
    }

    /// Runs at most `budget` events. Returns `Ok(None)` when the budget
    /// ran out with events still pending — the cluster is paused at a
    /// consistent point and can be snapshotted with
    /// [`Cluster::snapshot`] or continued with another call — and
    /// `Ok(Some(report))` when the event queue drained and the run
    /// completed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventLimitExceeded`] if the event-count
    /// guard trips (deadlock/livelock guard), and
    /// [`SimError::RetriesExhausted`] if a request's retry budget runs
    /// out under fault injection.
    pub fn run_events(&mut self, budget: u64) -> Result<Option<RunReport>, SimError> {
        self.arm();
        let mut left = budget;
        while left > 0 {
            let Some((t, ev)) = self.sched.pop() else {
                break;
            };
            if self.sched.processed() > self.cfg.max_events {
                return Err(SimError::EventLimitExceeded {
                    at: t,
                    limit: self.cfg.max_events,
                });
            }
            self.drain = self.drain.max(t);
            // Timeline gauge: pending-event count at each popped time —
            // a per-window proxy for the sim's working-set size.
            self.probe.sample_queue_depth(t, self.sched.len() as u64);
            self.handle(t, ev)?;
            left -= 1;
        }
        if !self.sched.is_empty() {
            return Ok(None); // paused mid-run
        }
        // Flush trailing archive writes.
        self.drain = self.storage.flush(self.drain, &mut self.probe);
        FabricEngine::outage_accounting(&mut self.injector, &self.fabric);
        self.probe.flush();

        let drain = self.drain;
        let finish = self.host.finish_time();
        let finish = if finish == SimTime::ZERO {
            drain
        } else {
            finish
        };
        Ok(Some(RunReport {
            finish,
            drain: drain.max(finish),
            hosts: self.host.reports(finish),
            switches: self.dispatch.reports(finish),
            link_bytes: self.fabric.total_link_bytes(),
            events: self.sched.processed(),
            peak_queue: self.sched.peak_len() as u64,
        }))
    }

    /// One-time run arming: run-scoped faults, the fallback host, and
    /// the `Start` events. Gated so a restored mid-run cluster (which
    /// was armed before its snapshot) does not re-arm.
    fn arm(&mut self) {
        if self.armed {
            return;
        }
        self.armed = true;
        // Arm the run-scoped faults of the plan, if any. `injector` and
        // `fabric` are disjoint fields, so the plan can be borrowed
        // instead of cloned.
        if let Some(inj) = &mut self.injector {
            FabricEngine::arm(inj.plan(), &mut self.fabric);
            if let Some(seize) = inj.plan().buffer_seize {
                self.dispatch.arm_buffer_seize(seize, inj);
            }
            self.dispatch.set_fallback_host(self.host.first_host());
        }
        for h in self.host.nodes_with_programs() {
            self.sched.push(SimTime::ZERO, HostEvent::Start(h).into());
        }
    }

    /// Serializes the cluster's complete dynamic state — the pending
    /// event queue (in exact `(time, seq)` order), every engine's
    /// internal state, link/credit state, in-flight requests, fault
    /// injector cursors, and metric histograms — into the versioned
    /// snapshot encoding.
    ///
    /// Static inputs (topology, configuration, file contents, installed
    /// programs and handlers) are *not* captured: a restoring process
    /// rebuilds the cluster identically first, then calls
    /// [`Cluster::restore`], which overwrites the dynamic state.
    pub fn snapshot(&self) -> Vec<u8> {
        let Cluster {
            cfg: _,
            fabric,
            sched,
            host,
            dispatch,
            storage,
            fabric_engine: _,
            files: _,
            reqs,
            injector,
            active_tca_nodes: _,
            probe,
            armed,
            drain,
        } = self;
        let mut w = SnapWriter::new();
        w.section("cluster");
        armed.snapshot(&mut w);
        drain.snapshot(&mut w);
        sched.snapshot_with(&mut w, |w, e| e.snapshot(w));
        fabric.snapshot(&mut w);
        host.snapshot(&mut w);
        dispatch.snapshot(&mut w);
        storage.snapshot(&mut w);
        reqs.snapshot(&mut w);
        w.bool(injector.is_some());
        if let Some(inj) = injector {
            inj.snapshot(&mut w);
        }
        Snap::snapshot(probe, &mut w);
        w.into_bytes()
    }

    /// Overwrites this cluster's dynamic state from a snapshot taken of
    /// an identically built cluster (same topology, configuration,
    /// files, programs, handlers, and active-TCA set). Continuing the
    /// run afterwards produces bit-identical results to the run the
    /// snapshot was taken from.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the bytes are malformed, from a
    /// different snapshot version, or describe a cluster of a different
    /// shape.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let Cluster {
            cfg,
            fabric,
            sched,
            host,
            dispatch,
            storage,
            fabric_engine: _,
            files: _,
            reqs,
            injector,
            active_tca_nodes: _,
            probe,
            armed,
            drain,
        } = self;
        let mut r = SnapReader::new(bytes)?;
        r.section("cluster")?;
        armed.restore(&mut r)?;
        drain.restore(&mut r)?;
        *sched = Scheduler::restore_with(&mut r, Event::restore)?;
        fabric.restore(&mut r)?;
        host.restore(&mut r)?;
        dispatch.restore(&mut r, cfg)?;
        storage.restore(&mut r)?;
        reqs.restore(&mut r)?;
        match (r.bool()?, injector.as_mut()) {
            (true, Some(inj)) => inj.restore(&mut r)?,
            (false, None) => {}
            _ => return Err(SnapError::Malformed("fault plan presence mismatch")),
        }
        probe.restore(&mut r)?;
        r.finish()
    }

    /// Hands one event to the engine that owns it, lending the shared
    /// services out as an [`EventBus`] for the duration of the event.
    fn handle(&mut self, t: SimTime, ev: Event) -> Result<(), SimError> {
        let mut bus = EventBus {
            sched: &mut self.sched,
            fabric: &mut self.fabric,
            injector: &mut self.injector,
            reqs: &mut self.reqs,
            files: &mut self.files,
            cfg: &self.cfg,
            active_tca_nodes: &self.active_tca_nodes,
            probe: &mut self.probe,
        };
        match ev {
            Event::Host(ev) => self.host.on_event(t, ev, &mut bus),
            Event::Fabric(ev) => self.fabric_engine.on_event(t, ev, &mut bus),
            Event::Dispatch(ev) => self.dispatch.on_event(t, ev, &mut bus),
            Event::Storage(ev) => self.storage.on_event(t, ev, &mut bus),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_file_shares_the_callers_buffer() {
        let (mut cl, map) =
            Cluster::from_spec(&TopoSpec::single_switch(1, 1), ClusterConfig::paper());
        let input = Bytes::from(vec![0x5Au8; 64 * 1024]);
        let file = cl.add_file(map.tcas[0], input.clone()).unwrap();
        assert_eq!(cl.files.data[file.0].as_ptr(), input.as_ptr());
        assert_eq!(cl.files.meta()[file.0].len, input.len() as u64);
    }
}
