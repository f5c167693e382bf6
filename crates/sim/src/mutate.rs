//! Seeded snapshot mutation for restore hardening tests.
//!
//! A decoder that reads bytes from outside the process must return
//! `Err` on bad input and never panic, and any input it accepts must
//! re-encode to exactly the bytes it consumed (otherwise two processes
//! could hold different states for one snapshot). [`check_restore`]
//! drives a restore with seeded mutations of known-good snapshots and
//! asserts both properties; [`mutate`] is the mutation step alone, for
//! decoders that take a whole buffer.
//!
//! ```
//! use asan_sim::mutate::mutate;
//! use asan_sim::SimRng;
//!
//! let mut rng = SimRng::from_label("doc");
//! let base = [1u8, 2, 3, 4];
//! assert_ne!(mutate(&mut rng, &base), base);
//! ```

use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::SimRng;

/// A copy of `base` with one seeded mutation: up to four flipped bits,
/// a truncation, or up to 32 random bytes appended.
pub fn mutate(rng: &mut SimRng, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    match rng.below(3) {
        0 => {
            for _ in 0..=rng.below(4) {
                let i = rng.index(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        1 => bytes.truncate(rng.index(bytes.len())),
        _ => {
            let extra = 1 + rng.below(32);
            bytes.extend((0..extra).map(|_| u8::try_from(rng.below(256)).expect("a byte draw")));
        }
    }
    bytes
}

/// Restores `iters` seeded mutations of the snapshots in `bases`, each
/// into `fresh()`. A restore must return `Ok` or `Err`, never panic,
/// and an `Ok` one must re-snapshot to exactly the bytes it consumed.
/// Returns how many restores succeeded, so callers can check that both
/// outcomes were exercised.
pub fn check_restore<T>(
    label: &str,
    bases: &[Vec<u8>],
    iters: usize,
    fresh: impl Fn() -> T,
    restore: impl Fn(&mut T, &mut SnapReader<'_>) -> Result<(), SnapError>,
    snapshot: impl Fn(&T, &mut SnapWriter),
) -> usize {
    let mut rng = SimRng::from_label(label);
    let mut ok = 0;
    for i in 0..iters {
        let base = &bases[i % bases.len()];
        let bytes = mutate(&mut rng, base);
        let Ok(mut r) = SnapReader::new(&bytes) else {
            continue;
        };
        let mut value = fresh();
        if restore(&mut value, &mut r).is_ok() {
            let used = bytes.len() - r.remaining();
            let mut w = SnapWriter::new();
            snapshot(&value, &mut w);
            assert_eq!(w.into_bytes(), bytes[..used], "{label}: mutation {i}");
            ok += 1;
        }
    }
    ok
}
