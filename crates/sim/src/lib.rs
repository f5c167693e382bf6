//! Discrete-event simulation kernel for the Active SAN simulator.
//!
//! This crate provides the foundation every other crate in the workspace
//! builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated time,
//!   exact for both the 2 GHz host clock (500 ps/cycle) and the 500 MHz
//!   switch clock (2000 ps/cycle).
//! * [`EventQueue`] — a deterministic pending-event set. Ties in time are
//!   broken by insertion sequence number so simulations are reproducible
//!   bit-for-bit across runs.
//! * [`sched::Scheduler`] — the run-loop facade over the queue: pop
//!   counting on top of the deterministic ordering.
//! * [`trace`] — typed observability spans, causal trace identity
//!   ([`trace::TraceCtx`]), and the [`trace::TraceSink`] contract
//!   (null / JSONL / in-memory ring sinks).
//! * [`series`] — windowed time-series telemetry: fixed simulated-time
//!   windows with deterministic bucket edges, behind the metrics
//!   report's `timeline` section.
//! * [`perfetto`] — byte-reproducible Chrome `trace_event` JSON export
//!   of a run's spans (the flight recorder's renderable artifact).
//! * [`hist`] — dependency-free log-linear latency histograms recording
//!   simulated-time distributions (packet, handler, disk, buffer-wait,
//!   credit-stall).
//! * [`rng::SimRng`] — a small, dependency-free, seedable PRNG
//!   (xoshiro256**) used by all workload generators.
//! * [`stats`] — counters, accumulators and time-weighted statistics used
//!   for the paper's metrics (execution time, utilization, traffic).
//! * [`faults`] — seeded, deterministic fault plans and the injector
//!   every layer consults (packet corruption/drop, disk errors, link
//!   outages, handler traps), with per-fault statistics.
//! * [`snap`] — the versioned, dependency-free binary snapshot codec
//!   ([`SnapWriter`]/[`SnapReader`]) behind crash-safe checkpoint and
//!   restore of mid-run simulations.
//!
//! # Example
//!
//! ```
//! use asan_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_ns(5), "second");
//! q.push(SimTime::ZERO + SimDuration::from_ns(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, SimTime::from_ns(1));
//! ```

pub mod faults;
pub mod hist;
pub mod mutate;
pub mod perfetto;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod series;
pub mod snap;
pub mod stats;
pub mod time;
pub mod trace;

pub use faults::{FaultInjector, FaultPlan, FaultStats};
pub use hist::LogHistogram;
pub use perfetto::PerfettoSink;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use sched::{Scheduler, Traceable};
pub use series::{TimeSeries, Timeline, Track};
pub use snap::{SnapError, SnapReader, SnapWriter};
pub use time::{Period, SimDuration, SimTime};
pub use trace::{JsonlSink, NullSink, RingSink, Span, SpanKind, TraceCtx, TraceSink};
