//! I/O subsystem models for the Active SAN simulator.
//!
//! Reproduces §4's I/O system: "Our I/O subsystem includes a TCA, an
//! ultra-320 SCSI bus, and simple disks." plus the fixed-cost OS
//! overhead model (30 µs/request + 0.27 µs/KB):
//!
//! * [`disk`] — seek / rotation / peak-bandwidth disk mechanisms;
//! * [`scsi`] — the shared 320 MB/s bus with arbitration + selection;
//! * [`storage`] — the striped two-disk array behind one TCA, producing
//!   per-MTU-packet ready schedules for the network;
//! * [`oscost`] — the host OS overhead constants.
//!
//! # Example
//!
//! ```
//! use asan_io::storage::{Storage, StorageConfig};
//! use asan_sim::SimTime;
//!
//! let mut s = Storage::new(StorageConfig::paper());
//! let sched = s.read_stream(0, 32 * 1024, SimTime::ZERO);
//! assert_eq!(sched.len(), 64); // 32 KB in 512 B packets
//! ```

// A model quantity that no longer fits must fail loudly, not wrap.
#![warn(clippy::cast_possible_truncation)]

pub mod disk;
pub mod oscost;
pub mod scsi;
pub mod storage;

pub use disk::{Disk, DiskConfig, DiskXfer};
pub use oscost::OsCost;
pub use scsi::{BusXfer, ScsiBus, ScsiConfig};
pub use storage::{ReadSchedule, Storage, StorageConfig};
