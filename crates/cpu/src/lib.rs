//! Host (and embedded switch) processor timing models.
//!
//! The reproduction charges application work against an in-order,
//! single-issue core model ([`Cpu`]) whose memory references walk the
//! detailed hierarchy in [`asan_mem`]. Application drivers process *real
//! data* and call the charge methods as they go, so cache behaviour —
//! the paper's central host-side effect — emerges from the actual access
//! patterns rather than from assumed constants.
//!
//! # Example
//!
//! ```
//! use asan_cpu::{Cpu, CpuConfig};
//!
//! // Scan 1 MB of 128-byte records, 20 instructions each, like the
//! // paper's Select inner loop.
//! let mut cpu = Cpu::new(CpuConfig::host_db());
//! cpu.scan(0x1000_0000, 1 << 20, 128, 20, false);
//! let b = cpu.breakdown();
//! assert!(b.stall.as_ns() > 0, "streaming scans are memory-bound");
//! ```

// A model quantity that no longer fits must fail loudly, not wrap.
#![warn(clippy::cast_possible_truncation)]

pub mod model;

pub use model::{Cpu, CpuConfig};
