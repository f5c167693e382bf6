//! The paper's contribution: the active I/O switch architecture and the
//! cluster simulator that evaluates it.
//!
//! *Active I/O Switches in System Area Networks* (Ming Hao & Mark
//! Heinrich, HPCA 2003) adds a small amount of hardware to a
//! conventional SAN switch — data buffers with per-line valid bits, a
//! buffer administrator, an address translation buffer, a jump table,
//! dispatch and send units, and 1–4 embedded 500 MHz processors — so the
//! switch can run application-level *handlers* on messages flowing
//! through it.
//!
//! * [`buffer`], [`dba`], [`atb`] — the on-chip staging hardware;
//! * [`handler`] — the stream-based programming model (§2);
//! * [`active`] — the assembled active switch and its dispatch unit (§3);
//! * [`error`] — structured [`SimError`]s for misuse and exhaustion;
//! * the four subsystem engines (host, fabric, dispatch, storage) the
//!   simulation decomposes into, each owning its own event enum, and
//!   the shared bus they communicate through (private modules behind
//!   [`cluster`]);
//! * [`metrics`] — the observability probe the engines report spans to,
//!   and the latency-histogram / phase-breakdown [`MetricsReport`];
//! * [`placement`] — handler placement on multi-switch fabrics: the
//!   [`HandlerPlacement`] policies and the [`AggregationTree`] they
//!   produce over a [`asan_net::TopoMap`];
//! * [`cluster`] — the whole-system simulator (§4): the thin composer
//!   that routes events to the engines and assembles the paper's
//!   metrics (execution time, host utilization, host I/O traffic,
//!   busy/stall/idle breakdowns).
//!
//! # Example
//!
//! ```
//! use asan_core::active::{ActiveSwitch, ActiveSwitchConfig};
//! use asan_net::NodeId;
//!
//! let sw = ActiveSwitch::new(NodeId(0), ActiveSwitchConfig::paper());
//! assert_eq!(sw.config().num_cpus, 1);
//! ```

// A model quantity that no longer fits must fail loudly, not wrap.
#![warn(clippy::cast_possible_truncation)]

pub mod active;
pub mod atb;
pub mod buffer;
pub mod cluster;
pub mod dba;
mod engines;
pub mod error;
mod events;
pub mod handler;
pub mod metrics;
pub mod placement;
pub mod stats;

pub use active::{ActiveSwitch, ActiveSwitchConfig, DispatchResult};
pub use atb::Atb;
pub use buffer::{BufId, DataBuffer, BUFFER_BYTES};
pub use dba::BufferAdmin;
pub use error::SimError;
pub use handler::{Handler, HandlerCtx, MsgInfo, OutMsg, SwitchIoReq};
pub use metrics::{MetricsReport, PhaseBreakdown, Probe};
pub use placement::{aggregation_tree, AggNode, AggregationTree, HandlerPlacement};
