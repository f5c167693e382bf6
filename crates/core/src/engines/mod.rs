//! The four subsystem engines the cluster simulation is composed of.
//!
//! Each engine owns one subsystem's private state and its own event
//! enum (see [`crate::events::Event`]), which its `on_event` matches
//! exhaustively:
//!
//! * [`HostEngine`] — [`HostEvent`]: program scheduling, CPU/memory
//!   charging, host message delivery and I/O completion;
//! * [`FabricEngine`] — [`FabricEvent`]: the packet reliability
//!   protocol: injection, fault fates, NAK/timeout retransmission,
//!   completion notices;
//! * [`DispatchEngine`] — [`DispatchEvent`]: active switches and active
//!   TCAs: handler dispatch, the mapped-flow reorder buffer,
//!   handler-trap migration to a host-side fallback engine;
//! * [`StorageEngine`] — [`StorageEvent`]: TCA/SCSI/disk requests, read
//!   scheduling, and archive-write aggregation.
//!
//! Engines never call each other: cross-subsystem effects travel as
//! events through the [`EventBus`], so every interaction is an ordered,
//! timestamped occurrence in the deterministic event queue.
//!
//! # Adding an engine
//!
//! Add a `FooEvent` enum (with a `From<FooEvent> for Event` impl) and an
//! `Event::Foo` variant, give the new variants snapshot tags and trace
//! labels, and write `FooEngine::on_event` over `FooEvent`. The compiler
//! enforces the rest: `Cluster::handle`, the codec and the labels stop
//! compiling until they cover the new variant, and a variant nobody
//! constructs is a `dead_code` error under clippy.
//!
//! [`HostEvent`]: crate::events::HostEvent
//! [`FabricEvent`]: crate::events::FabricEvent
//! [`DispatchEvent`]: crate::events::DispatchEvent
//! [`StorageEvent`]: crate::events::StorageEvent
//! [`EventBus`]: crate::events::EventBus

mod dispatch;
mod fabric;
mod host;
mod storage;

#[cfg(test)]
mod tests;

pub use dispatch::DispatchEngine;
pub use fabric::FabricEngine;
pub use host::{HostCtx, HostEngine, HostProgram};
pub use storage::StorageEngine;
