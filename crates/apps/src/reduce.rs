//! Collective Reduction (§5, Table 2, Figures 15–16).
//!
//! `p` nodes combine 512-byte vectors (u32 lanes, sum). Two result
//! distributions are modeled:
//!
//! * **Reduce-to-one** — node 0 gets the full result vector;
//! * **Distributed Reduce** — node `i` gets slice `i` of the result.
//!
//! The **normal** case is the classic minimum-spanning-tree algorithm
//! over hosts: ⌈log₂ p⌉ rounds of `α + λ` each. The **active** case
//! sends every vector into the switch fabric: each leaf switch combines
//! the 8 vectors of its hosts, parents combine their children's partial
//! results, and the root delivers — latency `α + γ + ⌈log_{N/2} p⌉·δ`,
//! which is how the paper beats the MST lower bound and reaches
//! speedups of 5.61 / 5.92 at 128 nodes.

use asan_core::cluster::{Cluster, ClusterConfig, HostCtx, HostMsg, HostProgram};
use asan_core::handler::{Handler, HandlerCtx};
use asan_core::{aggregation_tree, HandlerPlacement};
use asan_net::{HandlerId, NodeId, TopoSpec};
use asan_sim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use asan_sim::SimTime;

use crate::cost;
use crate::data::{reduce_vector, vector_add};
use crate::runner::drive;

/// Handler ID of the combine handler (same on every switch).
pub const REDUCE_HANDLER: HandlerId = HandlerId::new_const(9);

/// Flow tag of result delivery to hosts.
pub const RESULT: HandlerId = HandlerId::new_const(41);

/// Handler ID for broadcasting the result down the switch tree
/// (Reduce-to-all).
pub const BCAST_HANDLER: HandlerId = HandlerId::new_const(10);

/// Vector size in bytes (512 in §5).
pub const VECTOR_BYTES: usize = 512;

/// Hosts attached to each leaf switch (8 of 16 ports, §5).
pub const HOSTS_PER_LEAF: usize = 8;

/// Which reduction is performed (Table 2 lists all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Result vector delivered whole to node 0.
    ReduceToOne,
    /// Result vector sliced across all nodes.
    Distributed,
    /// Result vector delivered whole to every node ("results for
    /// Reduce-to-all are similar to those for Reduce-to-one", §5) —
    /// the active case broadcasts by *replication in the switches*.
    ToAll,
}

impl Mode {
    /// Canonical tag used in checkpoint/bench naming.
    pub fn tag(self) -> &'static str {
        match self {
            Mode::ReduceToOne => "reduce-to-one",
            Mode::Distributed => "distributed-reduce",
            Mode::ToAll => "reduce-to-all",
        }
    }
}

/// The reduction result as computed by the simulation, for validation.
/// A `p` below 1 counts as 1.
pub fn reference_sum(p: usize) -> Vec<u8> {
    let vectors: Vec<Vec<u8>> = (0..p.max(1)).map(reduce_vector).collect();
    sum_vectors(&vectors)
}

/// Packs the node range `[base, base + count)` into a message address:
/// `base` in the low 16 bits, `count` in the high 16.
#[expect(
    clippy::cast_possible_truncation,
    reason = "packs two 16-bit fields into the 32-bit address"
)]
fn range_addr(base: usize, count: usize) -> u32 {
    base as u32 | (count as u32) << 16
}

/// The node range a [`range_addr`] address carries, as `(base, count)`.
fn addr_range(addr: u32) -> (usize, usize) {
    ((addr & 0xFFFF) as usize, (addr >> 16) as usize)
}

/// The element-wise sum of `vectors` (at least one).
fn sum_vectors(vectors: &[Vec<u8>]) -> Vec<u8> {
    let mut acc = vectors[0].clone();
    for v in &vectors[1..] {
        vector_add(&mut acc, v);
    }
    acc
}

/// Pieces of a reduction topology: the cluster, the hosts, all
/// switches, each host's leaf switch, each switch's parent, and the
/// root switch.
pub type ReductionCluster = (
    Cluster,
    Vec<NodeId>,
    Vec<NodeId>,
    Vec<NodeId>,
    std::collections::BTreeMap<NodeId, NodeId>,
    NodeId,
);

/// The declarative spec of the §5 reduction fabric: a radix-16
/// fat-tree (8 hosts per leaf, 8-way upward aggregation), pinned to
/// the seed's endpoint-drain credit model so the golden digests stay
/// bit-identical with the hand-built topology it replaced.
pub fn reduction_spec(p: usize) -> TopoSpec {
    assert!(p >= 2, "reduction needs at least two nodes");
    TopoSpec::fat_tree(2 * HOSTS_PER_LEAF, p, 0).endpoint_drain()
}

/// Builds the reduction topology: `p` hosts, 8 per leaf switch, leaf
/// switches under a tree of 16-port switches. Returns the cluster
/// pieces plus each host's leaf switch and each switch's parent.
pub fn reduction_cluster(p: usize, cfg: ClusterConfig) -> ReductionCluster {
    let (cl, map) = Cluster::from_spec(&reduction_spec(p), cfg);
    (
        cl,
        map.hosts,
        map.switches,
        map.host_leaf,
        map.parent,
        map.root,
    )
}

/// The combine handler on one switch of the tree.
pub struct ReduceHandler {
    /// Vectors expected at this switch (hosts below, or child switches).
    expect: usize,
    received: usize,
    acc: Vec<u8>,
    acc_buf: Option<asan_core::BufId>,
    /// Where the combined vector goes: parent switch, or (at the root)
    /// the result distribution.
    parent: Option<NodeId>,
    mode: Mode,
    hosts: Vec<NodeId>,
    /// Hosts attached directly below this switch (broadcast fan-out).
    host_children: Vec<NodeId>,
    /// Switches attached directly below this switch.
    switch_children: Vec<NodeId>,
}

impl ReduceHandler {
    fn new(
        expect: usize,
        parent: Option<NodeId>,
        mode: Mode,
        hosts: Vec<NodeId>,
        host_children: Vec<NodeId>,
        switch_children: Vec<NodeId>,
    ) -> Self {
        ReduceHandler {
            expect,
            received: 0,
            acc: vec![0u8; VECTOR_BYTES],
            acc_buf: None,
            parent,
            mode,
            hosts,
            host_children,
            switch_children,
        }
    }

    /// Replicates `data` to every directly-attached host and child
    /// switch — the switch-tree broadcast of Reduce-to-all.
    fn broadcast(&self, ctx: &mut HandlerCtx<'_>, data: &[u8]) {
        for &sw in &self.switch_children {
            ctx.send(sw, Some(BCAST_HANDLER), 0, data);
        }
        for &h in &self.host_children {
            ctx.send(h, Some(RESULT), 0, data);
        }
    }

    /// The accumulated vector (for validation).
    pub fn accumulated(&self) -> &[u8] {
        &self.acc
    }
}

impl Handler for ReduceHandler {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        if ctx.msg().handler == BCAST_HANDLER {
            // Result coming *down* the tree: replicate and forward.
            let data = ctx.payload();
            self.broadcast(ctx, &data);
            return;
        }
        let payload = ctx.payload();
        debug_assert_eq!(payload.len(), VECTOR_BYTES);
        if self.acc_buf.is_none() {
            self.acc_buf = Some(ctx.alloc_buffer());
        }
        // Real element-wise add. The accumulate is a read-modify-write
        // through the dedicated buffer port: the lane adds overlap the
        // payload reads charged by `payload()`, so only the add
        // instructions appear here (§3: the switch CPU "has its own
        // read/write ports to the data buffers").
        vector_add(&mut self.acc, &payload);
        ctx.charge_stream(VECTOR_BYTES, cost::REDUCE_ADD_INSTR_PER_DWORD);
        self.received += 1;
        if self.received == self.expect {
            let buf = self.acc_buf.take().expect("held");
            // Materialize the accumulator into the buffer for the send.
            let acc_snapshot = self.acc.clone();
            ctx.buffer_write(buf, 0, &acc_snapshot);
            match self.parent {
                Some(parent) => {
                    // Forward the partial result up the tree.
                    ctx.send_buffer(buf, parent, Some(REDUCE_HANDLER), 0);
                }
                None => match self.mode {
                    Mode::ReduceToOne => {
                        ctx.send_buffer(buf, self.hosts[0], Some(RESULT), 0);
                    }
                    Mode::ToAll => {
                        let data = self.acc.clone();
                        self.broadcast(ctx, &data);
                        ctx.free_buffer(buf);
                    }
                    Mode::Distributed => {
                        // Scatter slice i to host i.
                        let slice = VECTOR_BYTES / self.hosts.len().max(1);
                        let slice = slice.max(4);
                        for (i, &h) in self.hosts.iter().enumerate() {
                            let lo = (i * slice).min(VECTOR_BYTES - slice);
                            let part = self.acc[lo..lo + slice].to_vec();
                            let addr = u32::try_from(lo).expect("an offset in the vector");
                            ctx.send(h, Some(RESULT), addr, &part);
                        }
                        ctx.free_buffer(buf);
                    }
                },
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        let ReduceHandler {
            expect: _,
            received,
            acc,
            acc_buf,
            parent: _,
            mode: _,
            hosts: _,
            host_children: _,
            switch_children: _,
        } = self;
        received.snapshot(w);
        acc.snapshot(w);
        acc_buf.snapshot(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ReduceHandler {
            expect: _,
            received,
            acc,
            acc_buf,
            parent: _,
            mode: _,
            hosts: _,
            host_children: _,
            switch_children: _,
        } = self;
        received.restore(r)?;
        acc.restore(r)?;
        if acc.len() != VECTOR_BYTES {
            return Err(SnapError::Malformed("reduce accumulator length"));
        }
        acc_buf.restore(r)
    }
}

/// One node of the collective, normal (MST) or active.
struct ReduceNode {
    me: usize,
    p: usize,
    mode: Mode,
    active: bool,
    peers: Vec<NodeId>,
    leaf: NodeId,
    vector: Vec<u8>,
    /// MST round (normal case).
    round: u32,
    got_result: Option<Vec<u8>>,
    done: bool,
}

impl ReduceNode {
    /// In MST round `r`, either sends to `me - 2^r`, waits for
    /// `me + 2^r`, or is already done.
    fn mst_step(&mut self, ctx: &mut HostCtx<'_>) {
        let p = self.p;
        loop {
            let bit = 1usize << self.round;
            if bit >= p && self.me == 0 {
                // Root holds the full reduction.
                self.root_finish(ctx);
                return;
            }
            if self.me & bit != 0 {
                // Send my partial to the partner and retire.
                let partner = self.me - bit;
                ctx.send(self.peers[partner], Some(RESULT), 0, self.vector.clone());
                if self.mode == Mode::ReduceToOne && self.me != 0 {
                    self.done = true;
                    ctx.finish();
                }
                // Distributed: wait for my slice later.
                return;
            }
            let partner = self.me + bit;
            if partner < p {
                // Wait for the partner's vector (handled in on_message).
                return;
            }
            // No partner this round; advance.
            self.round += 1;
        }
    }

    fn root_finish(&mut self, ctx: &mut HostCtx<'_>) {
        match self.mode {
            Mode::ReduceToOne => {
                self.got_result = Some(self.vector.clone());
                self.done = true;
                ctx.finish();
            }
            Mode::ToAll => {
                // Binomial broadcast of the whole vector.
                let data = self.vector.clone();
                self.broadcast_range(ctx, 0, self.p, &data);
            }
            Mode::Distributed => {
                // Binomial-tree scatter (the MST counterpart of the
                // reduce): log₂ p rounds instead of p serial sends.
                let data = self.vector.clone();
                self.scatter(ctx, 0, self.p, &data);
            }
        }
    }

    /// Holds the slices for nodes `[base, base+count)` in `data`; keeps
    /// slice `base` (which is `me`) and forwards the upper half of the
    /// range down the binomial tree.
    fn scatter(&mut self, ctx: &mut HostCtx<'_>, base: usize, mut count: usize, data: &[u8]) {
        debug_assert_eq!(self.me, base, "only the range base scatters");
        let slice = (VECTOR_BYTES / self.p).max(4);
        while count > 1 {
            // Binomial split point: 2^(⌈log₂ count⌉ − 1).
            let h = count.next_power_of_two() / 2;
            let lo = h * slice;
            let hi = (count * slice).min(data.len());
            ctx.send(
                self.peers[base + h],
                Some(RESULT),
                range_addr(base + h, count - h),
                data[lo.min(data.len())..hi].to_vec(),
            );
            count = h;
        }
        self.got_result = Some(data[..slice.min(data.len())].to_vec());
        self.done = true;
        ctx.finish();
    }

    /// Binomial broadcast of the full vector to nodes
    /// `[base, base+count)` (normal Reduce-to-all).
    fn broadcast_range(
        &mut self,
        ctx: &mut HostCtx<'_>,
        base: usize,
        mut count: usize,
        data: &[u8],
    ) {
        debug_assert_eq!(self.me, base, "only the range base broadcasts");
        while count > 1 {
            let h = count.next_power_of_two() / 2;
            ctx.send(
                self.peers[base + h],
                Some(RESULT),
                range_addr(base + h, count - h),
                data.to_vec(),
            );
            count = h;
        }
        self.got_result = Some(data.to_vec());
        self.done = true;
        ctx.finish();
    }
}

impl HostProgram for ReduceNode {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        if self.active {
            // Fire the vector into the fabric and wait for the result.
            ctx.send(self.leaf, Some(REDUCE_HANDLER), 0, self.vector.clone());
            if self.mode == Mode::ReduceToOne && self.me != 0 {
                self.done = true;
                ctx.finish();
            }
            // Distributed / ToAll: every node awaits its RESULT.
        } else {
            self.mst_step(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut HostCtx<'_>, msg: &HostMsg) {
        if self.done {
            return;
        }
        if self.active {
            // The result (or my slice).
            self.got_result = Some(msg.data.to_vec());
            self.done = true;
            ctx.finish();
            return;
        }
        // Normal MST: if I'm still reducing, this is a partner's vector.
        let expecting_partner = {
            let bit = 1usize << self.round;
            self.me & bit == 0 && self.me + bit < self.p
        };
        if expecting_partner && msg.data.len() == VECTOR_BYTES {
            vector_add(&mut self.vector, &msg.data);
            // Charge the host-side combine λ: copy out of the receive
            // buffer, add, write back.
            ctx.cpu().compute(cost::REDUCE_HOST_COMBINE_INSTR);
            ctx.cpu().scan(
                0x6000_0000,
                VECTOR_BYTES as u64,
                8,
                cost::REDUCE_ADD_INSTR_PER_DWORD,
                false,
            );
            self.round += 1;
            self.mst_step(ctx);
        } else if self.mode == Mode::ToAll && !self.active {
            // A broadcast block for nodes [base, base+count): keep the
            // vector and forward down the binomial tree.
            let (base, count) = addr_range(msg.addr);
            debug_assert_eq!(base, self.me, "broadcast block landed at wrong node");
            let data = msg.data.clone();
            self.broadcast_range(ctx, base, count, &data);
        } else if self.mode == Mode::Distributed && !self.active {
            // A scatter block covering nodes [base, base+count): keep my
            // slice and forward the rest down the binomial tree.
            let (base, count) = addr_range(msg.addr);
            debug_assert_eq!(base, self.me, "scatter block landed at wrong node");
            // Rebase self as the root of this sub-range.
            let data = msg.data.clone();
            self.scatter(ctx, base, count, &data);
        } else {
            // My distributed slice (from the root).
            self.got_result = Some(msg.data.to_vec());
            self.done = true;
            ctx.finish();
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        let ReduceNode {
            me: _,
            p: _,
            mode: _,
            active: _,
            peers: _,
            leaf: _,
            vector,
            round,
            got_result,
            done,
        } = self;
        vector.snapshot(w);
        round.snapshot(w);
        w.bool(got_result.is_some());
        if let Some(res) = got_result {
            res.snapshot(w);
        }
        done.snapshot(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ReduceNode {
            me: _,
            p: _,
            mode: _,
            active: _,
            peers: _,
            leaf: _,
            vector,
            round,
            got_result,
            done,
        } = self;
        vector.restore(r)?;
        if vector.len() != VECTOR_BYTES {
            return Err(SnapError::Malformed("reduce vector length"));
        }
        round.restore(r)?;
        *got_result = if r.bool()? { Some(r.read()?) } else { None };
        done.restore(r)
    }
}

/// Result of one reduction run.
#[derive(Debug, Clone)]
pub struct ReduceRun {
    /// Number of nodes.
    pub p: usize,
    /// Whether the active-switch algorithm ran.
    pub active: bool,
    /// Completion latency (all receivers have their result).
    pub latency: SimTime,
    /// Fault-injection counters (all zero without an armed plan).
    pub faults: asan_sim::faults::FaultStats,
    /// Canonical cluster-stats digest of the run, for golden-digest
    /// regression checks.
    pub stats_digest: u64,
    /// Observability report: latency histograms and the per-phase time
    /// breakdown.
    pub metrics: asan_core::metrics::MetricsReport,
    /// Events the simulation processed (diagnostic).
    pub events: u64,
    /// High-water mark of the scheduler's pending-event queue.
    pub peak_queue: u64,
}

/// Runs one collective reduction, validating the result against the
/// scalar reference.
///
/// # Panics
///
/// Panics if any delivered result lane is wrong.
pub fn run(mode: Mode, active: bool, p: usize) -> ReduceRun {
    run_with_config(mode, active, p, ClusterConfig::paper())
}

/// [`run`] with an explicit cluster configuration (used by the
/// ablation studies to vary the active-switch hardware).
pub fn run_with_config(mode: Mode, active: bool, p: usize, cfg: ClusterConfig) -> ReduceRun {
    let case = if active { "active" } else { "normal" };
    let tag = format!("{}-{case}-p{p}", mode.tag());
    run_spec(
        mode,
        active,
        p,
        &reduction_spec(p),
        HandlerPlacement::Nca,
        cfg,
        &tag,
    )
}

/// Runs one reduction on an arbitrary fat-tree radix and handler
/// placement — the scale sweep behind the multi-switch speedup figure.
/// Unlike [`run_with_config`]'s seed-pinned fabric this keeps the
/// chained per-hop credit model of [`TopoSpec::fat_tree`].
pub fn run_scaled(
    mode: Mode,
    active: bool,
    p: usize,
    radix: usize,
    placement: HandlerPlacement,
) -> ReduceRun {
    run_scaled_with_config(mode, active, p, radix, placement, ClusterConfig::paper())
}

/// [`run_scaled`] with an explicit [`ClusterConfig`] — e.g. to narrow
/// `timeline_window` so the flight recorder resolves intra-run phases
/// on a reduction that finishes within one default window.
pub fn run_scaled_with_config(
    mode: Mode,
    active: bool,
    p: usize,
    radix: usize,
    placement: HandlerPlacement,
    cfg: ClusterConfig,
) -> ReduceRun {
    let spec = TopoSpec::fat_tree(radix, p, 0);
    let case = if active { "active" } else { "normal" };
    let tag = format!(
        "scaled-{}-{case}-p{p}-{}-{}",
        mode.tag(),
        spec.label(),
        placement.label()
    );
    run_spec(mode, active, p, &spec, placement, cfg, &tag)
}

/// Shared body of [`run_with_config`] and [`run_scaled`]: build the
/// fabric from `spec`, place combine handlers per `placement`, run,
/// and validate every delivered result against the scalar reference.
fn run_spec(
    mode: Mode,
    active: bool,
    p: usize,
    spec: &TopoSpec,
    placement: HandlerPlacement,
    cfg: ClusterConfig,
    tag: &str,
) -> ReduceRun {
    let vectors: Vec<Vec<u8>> = (0..p).map(reduce_vector).collect();
    let build = || {
        let (mut cl, map) = Cluster::from_spec(spec, cfg.clone());
        let hosts = map.hosts.clone();
        // Where each host fires its vector: its ingress switch of the
        // placed tree (active), or its own leaf (normal MST).
        let mut ingress: Vec<NodeId> = map.host_leaf.clone();

        if active {
            // Install a combine handler on every tree switch with its
            // fan-in and its broadcast fan-out.
            let tree = aggregation_tree(&map, &hosts, placement);
            cl.place_handlers(&tree, REDUCE_HANDLER, |_, n| {
                Box::new(ReduceHandler::new(
                    n.expect,
                    n.parent,
                    mode,
                    hosts.clone(),
                    n.host_children.clone(),
                    n.switch_children.clone(),
                ))
            })
            .expect("cluster setup");
            if mode == Mode::ToAll {
                // The broadcast arrives under its own handler ID; share
                // the state via a second registration of a
                // pure-forwarding handler.
                cl.place_handlers(&tree, BCAST_HANDLER, |_, n| {
                    Box::new(ReduceHandler::new(
                        usize::MAX,
                        n.parent,
                        mode,
                        hosts.clone(),
                        n.host_children.clone(),
                        n.switch_children.clone(),
                    ))
                })
                .expect("cluster setup");
            }
            for (i, &h) in hosts.iter().enumerate() {
                ingress[i] = tree.ingress[&h];
            }
        }

        for (i, &h) in hosts.iter().enumerate() {
            cl.set_program(
                h,
                Box::new(ReduceNode {
                    me: i,
                    p,
                    mode,
                    active,
                    peers: hosts.clone(),
                    leaf: ingress[i],
                    vector: vectors[i].clone(),
                    round: 0,
                    got_result: None,
                    done: false,
                }),
            )
            .expect("cluster setup");
        }
        (cl, hosts)
    };

    let (mut cl, hosts, report) = drive(tag, build);

    // Validate against the scalar reference.
    let want = sum_vectors(&vectors);
    let check_slice = |node: usize, got: &[u8]| {
        let slice = (VECTOR_BYTES / p).max(4);
        let lo = match mode {
            Mode::ReduceToOne | Mode::ToAll => 0,
            Mode::Distributed => (node * slice).min(VECTOR_BYTES - slice),
        };
        assert_eq!(
            got,
            &want[lo..lo + got.len()],
            "node {node} got a wrong result"
        );
    };
    for (i, &h) in hosts.iter().enumerate() {
        let program = cl.take_program(h).expect("program");
        let node = program
            .as_any()
            .and_then(|a| a.downcast_ref::<ReduceNode>())
            .expect("reduce node");
        match mode {
            Mode::ReduceToOne => {
                if i == 0 {
                    check_slice(0, node.got_result.as_deref().expect("node 0 result"));
                }
            }
            Mode::Distributed | Mode::ToAll => {
                check_slice(i, node.got_result.as_deref().expect("result"));
            }
        }
    }

    ReduceRun {
        p,
        active,
        latency: report.finish,
        faults: cl.fault_stats(),
        stats_digest: cl.stats().digest(),
        metrics: cl.metrics(&report),
        events: report.events,
        peak_queue: report.peak_queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_to_one_correct_small() {
        for p in [2usize, 4, 8] {
            let n = run(Mode::ReduceToOne, false, p);
            let a = run(Mode::ReduceToOne, true, p);
            assert!(n.latency > SimTime::ZERO);
            assert!(a.latency > SimTime::ZERO, "p = {p}");
        }
    }

    #[test]
    fn distributed_correct_small() {
        for p in [2usize, 4, 8] {
            run(Mode::Distributed, false, p);
            run(Mode::Distributed, true, p);
        }
    }

    #[test]
    fn active_beats_normal_at_scale() {
        let n = run(Mode::ReduceToOne, false, 32);
        let a = run(Mode::ReduceToOne, true, 32);
        assert!(
            a.latency < n.latency,
            "active {} vs normal {}",
            a.latency,
            n.latency
        );
    }

    #[test]
    fn reduce_to_all_every_node_gets_full_vector() {
        for p in [2usize, 4, 8, 16] {
            let n = run(Mode::ToAll, false, p);
            let a = run(Mode::ToAll, true, p);
            assert!(n.latency > SimTime::ZERO);
            assert!(a.latency > SimTime::ZERO, "p = {p}");
        }
        // Replication in the switches beats the host-side binomial
        // broadcast once the tree has real fan-out.
        let n = run(Mode::ToAll, false, 16);
        let a = run(Mode::ToAll, true, 16);
        assert!(a.latency < n.latency, "{} vs {}", a.latency, n.latency);
    }

    #[test]
    fn scaled_runs_all_placements() {
        // Radix-4 fat-tree, 16 hosts → 8 leaves + 4 + 2 + 1. Every
        // placement must still produce a correct (validated) result.
        for placement in HandlerPlacement::ALL {
            let a = run_scaled(Mode::ReduceToOne, true, 16, 4, placement);
            assert!(a.latency > SimTime::ZERO, "{}", placement.label());
        }
        let n = run_scaled(Mode::ReduceToOne, false, 16, 4, HandlerPlacement::Nca);
        assert!(n.latency > SimTime::ZERO);
    }

    #[test]
    fn scaled_nca_beats_root_at_scale() {
        // In-network combining at each level beats funneling every
        // vector to the apex once the tree is deep enough.
        let nca = run_scaled(Mode::ReduceToOne, true, 64, 4, HandlerPlacement::Nca);
        let root = run_scaled(Mode::ReduceToOne, true, 64, 4, HandlerPlacement::Root);
        assert!(
            nca.latency < root.latency,
            "nca {} vs root {}",
            nca.latency,
            root.latency
        );
    }

    #[test]
    fn scaled_is_deterministic() {
        let a = run_scaled(Mode::Distributed, true, 32, 8, HandlerPlacement::Striped);
        let b = run_scaled(Mode::Distributed, true, 32, 8, HandlerPlacement::Striped);
        assert_eq!(a.stats_digest, b.stats_digest);
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn multi_switch_tree_works() {
        // 16 nodes → 2 leaf switches + root.
        let a = run(Mode::ReduceToOne, true, 16);
        assert!(a.latency > SimTime::ZERO);
        let d = run(Mode::Distributed, true, 16);
        assert!(d.latency > SimTime::ZERO);
    }
}
