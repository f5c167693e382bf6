//! System-area network substrate for the Active SAN simulator.
//!
//! Models the switched SAN of §4 of *Active I/O Switches in System Area
//! Networks* (HPCA 2003):
//!
//! * [`bytes`] — cheaply cloneable, sliceable payload buffers
//!   ([`Bytes`]) so packets share file data instead of deep-copying it;
//! * [`packet`] — the InfiniBand-style Raw packet with its 128-bit
//!   header (6-bit handler ID, 32-bit mapped address), 512 B MTU,
//!   packetization and reassembly;
//! * [`link`] — 1 GB/s full-duplex links with credit-based flow control
//!   and cut-through header timing;
//! * [`topo`] — topology construction and the fabric timing model
//!   (virtual cut-through, 100 ns routing latency per switch, output
//!   port contention, per-node traffic accounting);
//! * [`hca`] — host channel adapter send/receive costs (the paper's
//!   fixed message overhead `α`).
//!
//! # Example
//!
//! ```
//! use asan_net::topo::single_switch_cluster;
//! use asan_sim::SimTime;
//!
//! let (mut fabric, hosts, _tcas, _sw) = single_switch_cluster(2, 1);
//! let d = fabric.transmit(528, hosts[0], hosts[1], SimTime::ZERO);
//! assert_eq!(d.hops, 2);
//! ```

// A model quantity that no longer fits must fail loudly, not wrap.
#![warn(clippy::cast_possible_truncation)]

pub mod bytes;
pub mod hca;
pub mod link;
pub mod packet;
pub mod topo;

pub use bytes::Bytes;
pub use hca::{Hca, HcaConfig};
pub use link::{Link, LinkConfig, LinkTiming};
pub use packet::{
    crc32, packetize, reassemble, HandlerId, Header, NodeId, Packet, ReassembleError, HEADER_BYTES,
    MTU, MTU_U32,
};
pub use topo::{
    single_switch_cluster, Delivery, Fabric, Hop, NodeKind, SwitchSpec, TopoError, TopoMap,
    TopoSpec, TopologyBuilder,
};
