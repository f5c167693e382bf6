//! Memory-system timing models for the Active SAN simulator.
//!
//! This crate provides the host and switch-CPU memory hierarchies used by
//! the reproduction of *Active I/O Switches in System Area Networks*
//! (HPCA 2003):
//!
//! * [`cache`] — generic set-associative, write-back, LRU caches
//!   (host L1I/L1D/L2 and the switch CPU's 4 KB I / 1 KB D caches);
//! * [`tlb`] — the 64-entry fully-associative instruction/data TLBs;
//! * [`dram`] — the RDRAM channel model (1.6 GB/s, 100 ns page hit,
//!   122 ns page miss);
//! * [`hierarchy`] — the combined walk with the paper's stall semantics
//!   (blocking loads with critical-word-first timing, non-blocking
//!   stores/prefetches limited to four outstanding lines, page-table
//!   walks on TLB misses).
//!
//! # Example
//!
//! ```
//! use asan_mem::hierarchy::{MemoryHierarchy, HierarchyConfig};
//! use asan_sim::SimTime;
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::host());
//! let first = mem.load(0xA000, SimTime::ZERO);
//! assert!(!first.l1_hit);             // cold
//! let second = mem.load(0xA008, SimTime::from_us(1));
//! assert!(second.l1_hit);             // same 64 B line
//! ```

// A model quantity that no longer fits must fail loudly, not wrap.
#![warn(clippy::cast_possible_truncation)]

pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod tlb;

pub use cache::{AccessKind, Cache, CacheConfig};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{HierarchyConfig, MemOutcome, MemoryHierarchy};
pub use tlb::{Tlb, TlbConfig};
