//! The nine benchmark applications of *Active I/O Switches in System
//! Area Networks* (HPCA 2003), each in the paper's four standard
//! configurations.
//!
//! Every benchmark processes **real data** end to end: the Grep DFA
//! finds the actual 16 matching lines, MD5 produces RFC 1321-correct
//! digests, HashJoin's bit-vector filters the actual records, and each
//! run's result is validated against a pure-Rust reference before any
//! timing is reported.

// A model quantity that no longer fits must fail loudly, not wrap.
#![warn(clippy::cast_possible_truncation)]

pub mod blockio;
pub mod catalog;
pub mod cost;
pub mod data;
pub mod dfa;
pub mod grep;
pub mod hashjoin;
pub mod md5;
pub mod md5app;
pub mod mpeg;
pub mod multiprog;
pub mod psort;
pub mod reduce;
pub mod runner;
pub mod select;
pub mod shared;
pub mod tar;
pub mod tar_fmt;
pub mod twolevel;

pub use runner::{sweep, AppRun, Variant};

/// A `u64` model quantity (a byte count, offset or record count) as a
/// `usize` length or index.
///
/// # Panics
///
/// Panics where the value does not fit `usize`, instead of wrapping.
pub(crate) fn to_usize(x: u64) -> usize {
    usize::try_from(x).expect("a u64 model quantity that fits usize")
}

/// The in-memory byte range of the block at `[off, off + len)`.
///
/// # Panics
///
/// Panics where the range does not fit `usize`.
pub(crate) fn byte_range(off: u64, len: u64) -> std::ops::Range<usize> {
    to_usize(off)..to_usize(off + len)
}
