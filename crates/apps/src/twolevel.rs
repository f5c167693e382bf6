//! Two-level active I/O (§6's closing thought): active *disks* below
//! active *switches*.
//!
//! "If active I/O devices do become prevalent, they can also be used
//! within our active switch system, creating a two-level active I/O
//! system." We realize that here for the Select workload and compare
//! four placements of intelligence:
//!
//! | configuration | filter runs at | SAN carries | host receives |
//! |---|---|---|---|
//! | `HostOnly`     | host          | whole table | whole table   |
//! | `ActiveSwitch` | switch        | whole table | matches       |
//! | `ActiveDisk`   | TCA           | matches     | matches       |
//! | `TwoLevel`     | TCA + switch  | matches     | 8-byte count  |
//!
//! The progression shows the paper's bandwidth argument extending one
//! level further down: the active disk also relieves the *SAN* links,
//! and the switch can still add value on top (here, aggregation).

use asan_core::active::ActiveSwitchConfig;
use asan_core::cluster::{ClusterConfig, Dest, HostCtx, HostMsg, HostProgram, ReqId};
use asan_core::handler::{Handler, HandlerCtx};
use asan_net::{HandlerId, NodeId};
use asan_sim::SimTime;

use crate::blockio::{BlockPlan, BlockReader};
use crate::cost;
use crate::data;
use crate::runner::standard_cluster;
use crate::select::{self, SelectHandler, DONE_HANDLER, SELECT_HANDLER};
use crate::shared::Shared;

/// Handler ID of the counting/aggregation stage on the switch.
pub const COUNT_HANDLER: HandlerId = HandlerId::new_const(11);

/// Where the intelligence sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Everything on the host (the paper's `normal+pref`).
    HostOnly,
    /// Filter in the switch (the paper's `active+pref`).
    ActiveSwitch,
    /// Filter at the TCA — an active disk.
    ActiveDisk,
    /// Filter at the TCA, aggregate (count) in the switch.
    TwoLevel,
}

impl Placement {
    /// All four placements in presentation order.
    pub const ALL: [Placement; 4] = [
        Placement::HostOnly,
        Placement::ActiveSwitch,
        Placement::ActiveDisk,
        Placement::TwoLevel,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Placement::HostOnly => "host-only",
            Placement::ActiveSwitch => "active-switch",
            Placement::ActiveDisk => "active-disk",
            Placement::TwoLevel => "two-level",
        }
    }
}

/// A switch handler that counts arriving records and forwards only the
/// final count — the aggregation stage of the two-level pipeline.
pub struct CountStage {
    record_bytes: u64,
    host: NodeId,
    bytes: u64,
    records: u64,
}

impl CountStage {
    fn new(record_bytes: u64, host: NodeId) -> Self {
        CountStage {
            record_bytes,
            host,
            bytes: 0,
            records: 0,
        }
    }
}

impl Handler for CountStage {
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>) {
        if ctx.msg().handler == DONE_HANDLER {
            // Upstream (the active disk) is done; it reports its match
            // count, which we cross-check against our tally and pass on.
            let payload = ctx.payload();
            let upstream = u64::from_le_bytes(payload[..8].try_into().expect("count"));
            assert_eq!(upstream, self.records, "stage counts disagree");
            ctx.compute(50);
            ctx.send(
                self.host,
                Some(DONE_HANDLER),
                0,
                &self.records.to_le_bytes(),
            );
            return;
        }
        let payload = ctx.payload();
        self.bytes += payload.len() as u64;
        self.records += payload.len() as u64 / self.record_bytes;
        ctx.compute(cost::SELECT_COUNT_INSTR);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Host program for the disk-active and two-level placements.
struct TwoLevelHost {
    p: select::Params,
    reader: BlockReader,
    records_in: u64,
    final_count: Option<u64>,
}

impl HostProgram for TwoLevelHost {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        self.reader.start(ctx);
    }

    fn on_io_complete(&mut self, ctx: &mut HostCtx<'_>, req: ReqId) {
        self.reader.on_complete(ctx, req);
        self.reader.refill(ctx);
    }

    fn on_message(&mut self, ctx: &mut HostCtx<'_>, msg: &HostMsg) {
        if msg.handler == Some(DONE_HANDLER) {
            self.final_count = Some(u64::from_le_bytes(msg.data[..8].try_into().expect("count")));
            ctx.finish();
            return;
        }
        let n = msg.data.len() as u64 / self.p.record_bytes;
        self.records_in += n;
        ctx.cpu().compute(cost::SELECT_COUNT_INSTR);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Result of one placement run.
#[derive(Debug, Clone)]
pub struct PlacementRun {
    /// Which placement ran.
    pub placement: Placement,
    /// Execution time.
    pub exec: SimTime,
    /// Payload bytes in/out of the host.
    pub host_traffic: u64,
    /// Bytes carried by SAN links (sum over hops).
    pub san_bytes: u64,
    /// The verified match count.
    pub matches: u64,
}

/// Runs Select under the given intelligence placement (all runs use two
/// outstanding requests, the paper's `+pref`), validating the count.
///
/// # Panics
///
/// Panics if any stage's count disagrees with the pure-Rust reference.
pub fn run(placement: Placement, p: &select::Params) -> PlacementRun {
    // Host-only and switch-active reuse the Select benchmark directly.
    match placement {
        Placement::HostOnly | Placement::ActiveSwitch => {
            let variant = if placement == Placement::HostOnly {
                crate::Variant::NormalPref
            } else {
                crate::Variant::ActivePref
            };
            let r = select::run(variant, p);
            return PlacementRun {
                placement,
                exec: r.exec,
                host_traffic: r.host_traffic,
                san_bytes: r.link_bytes,
                matches: r.artifact,
            };
        }
        _ => {}
    }

    let table = data::db_table(
        crate::to_usize(p.table_bytes),
        crate::to_usize(p.record_bytes),
        "select-table",
    );
    let want = select::reference_count(&table, p);

    let (mut cl, hs, ts, sw) = standard_cluster(1, 1, ClusterConfig::paper_db());
    let file = cl.add_file(ts[0], table).expect("cluster setup");
    let host = hs[0];
    let tca = ts[0];

    // The active disk runs the same selection handler the switch would.
    cl.enable_active_tca(tca, ActiveSwitchConfig::paper())
        .expect("cluster setup");
    let filter_dest = match placement {
        Placement::ActiveDisk => host,
        Placement::TwoLevel => sw,
        _ => unreachable!("handled above"),
    };
    let filter = if placement == Placement::TwoLevel {
        SelectHandler::new(p.clone(), filter_dest, p.table_bytes).with_out_handler(COUNT_HANDLER)
    } else {
        SelectHandler::new(p.clone(), filter_dest, p.table_bytes)
    };
    cl.register_tca_handler(tca, SELECT_HANDLER, Box::new(filter))
        .expect("cluster setup");
    if placement == Placement::TwoLevel {
        // Record batches arrive under COUNT_HANDLER and the end-of-
        // stream report under DONE_HANDLER; both must update one tally.
        let stage = Shared::new(CountStage::new(p.record_bytes, host));
        cl.register_handler(sw, COUNT_HANDLER, Box::new(stage.clone()))
            .expect("cluster setup");
        cl.register_handler(sw, DONE_HANDLER, Box::new(stage))
            .expect("cluster setup");
    }

    cl.set_program(
        host,
        Box::new(TwoLevelHost {
            p: p.clone(),
            reader: BlockReader::new(BlockPlan {
                file,
                total: p.table_bytes,
                block: p.io_block,
                outstanding: 2,
                dest: Dest::Mapped {
                    node: tca,
                    handler: SELECT_HANDLER,
                    base_addr: 0,
                },
            }),
            records_in: 0,
            final_count: None,
        }),
    )
    .expect("cluster setup");

    let report = cl.run().expect("simulation completes");
    let program = cl.take_program(host).expect("program");
    let prog = program
        .as_any()
        .and_then(|a| a.downcast_ref::<TwoLevelHost>())
        .expect("two-level host");
    let got = prog.final_count.expect("done message");
    assert_eq!(got, want, "match count mismatch");
    if placement == Placement::ActiveDisk {
        assert_eq!(prog.records_in, want, "host record tally");
    }

    PlacementRun {
        placement,
        exec: report.finish,
        host_traffic: report.total_host_payload(),
        san_bytes: report.link_bytes,
        matches: got,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_placements_agree_on_count() {
        let p = select::Params::small();
        let runs: Vec<PlacementRun> = Placement::ALL.iter().map(|&pl| run(pl, &p)).collect();
        let want = runs[0].matches;
        for r in &runs {
            assert_eq!(r.matches, want, "{:?}", r.placement);
        }
    }

    #[test]
    fn traffic_shrinks_down_the_hierarchy() {
        let p = select::Params::small();
        let host_only = run(Placement::HostOnly, &p);
        let disk = run(Placement::ActiveDisk, &p);
        let two = run(Placement::TwoLevel, &p);
        // The active disk sends only matches to the host; two-level
        // sends only the count.
        assert!(disk.host_traffic < host_only.host_traffic / 2);
        assert!(two.host_traffic * 100 < host_only.host_traffic);
        assert!(two.host_traffic < disk.host_traffic);
    }
}
