//! Dependency-free log-linear (HDR-style) latency histograms.
//!
//! The observability layer records every simulated-time latency — packet
//! end-to-end, handler occupancy, disk service, buffer wait, credit
//! stall — into a [`LogHistogram`]: 32 linear sub-buckets per power of
//! two, which bounds the relative quantile error at ~3% while keeping
//! the whole structure a flat array of counters (no allocation per
//! sample, no floating point on the record path, bit-identical merges).
//!
//! Values are picoseconds of *simulated* time ([`crate::SimDuration`]).
//! Everything here is deterministic: the same sample sequence produces
//! the same counters, quantiles, and digest on every machine, so
//! histograms can sit under the same golden-digest net as the cluster
//! statistics.
//!
//! # Example
//!
//! ```
//! use asan_sim::hist::LogHistogram;
//!
//! let mut h = LogHistogram::new();
//! for v in 1..=100 {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 100);
//! assert_eq!(h.percentile(50), 50);
//! assert_eq!(h.percentile(99), 99);
//! ```

use crate::faults::fnv1a_fold;
use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::time::SimDuration;

/// Linear sub-buckets per power of two (2^5 = 32).
const SUB_BITS: u32 = 5;
/// Sub-buckets per major (power-of-two) bucket.
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// A log-linear histogram of `u64` samples (picoseconds, typically).
///
/// Values below 32 land in exact unit-width buckets; above that, each
/// power-of-two range is split into 32 linear sub-buckets, so any
/// reported quantile is within one sub-bucket (≤ 1/32 relative error)
/// of the true sample.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// Bucket counters; empty until the first sample, so the many
    /// histograms that never record anything (idle probe slots) cost no
    /// 15 KB allocation. An empty vector is observably identical to
    /// all-zero buckets everywhere below.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let major = (msb - SUB_BITS + 1) as u64;
    (major * SUB_BUCKETS + ((v >> shift) & (SUB_BUCKETS - 1))) as usize
}

/// Smallest value landing in bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return i;
    }
    let major = i / SUB_BUCKETS - 1;
    let sub = i % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << major
}

/// Largest value landing in bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    let iw = i as u64;
    if iw < SUB_BUCKETS {
        return iw;
    }
    let major = iw / SUB_BUCKETS - 1;
    bucket_lower(i).saturating_add((1u64 << major) - 1)
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; NUM_BUCKETS];
        }
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a simulated duration (its picosecond count).
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_ps());
    }

    /// Folds `other` into `self`. Merging is associative and
    /// commutative: any merge order yields identical counters. Merging
    /// an empty histogram is free, and merging into an empty one is a
    /// single copy.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.counts.clone_from(&other.counts);
        } else {
            for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
                *a += *b;
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty), by integer division.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The `p`-th percentile (`0..=100`), as the upper bound of the
    /// bucket holding the rank-`⌈count·p/100⌉` sample, clamped to the
    /// recorded extrema. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * p.min(100)).div_ceil(100).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds every non-zero counter into an FNV-1a digest, so a
    /// histogram can sit under the same determinism net as
    /// `ClusterStats`.
    pub fn fold_digest(&self, mut h: u64) -> u64 {
        let LogHistogram {
            counts,
            count,
            sum,
            min: _, // folded through `min()`, which reads 0 when empty
            max,
        } = self;
        h = fnv1a_fold(h, *count);
        h = fnv1a_fold(h, *sum);
        h = fnv1a_fold(h, self.min());
        h = fnv1a_fold(h, *max);
        for (i, &c) in counts.iter().enumerate() {
            if c != 0 {
                h = fnv1a_fold(fnv1a_fold(h, i as u64), c);
            }
        }
        h
    }
}

/// Written sparsely: the aggregate fields plus only the non-zero
/// buckets, as ascending `(index, count)` pairs. An empty histogram
/// restores to the unallocated state, so snapshotting idle probe slots
/// stays free.
impl Snap for LogHistogram {
    fn snapshot(&self, w: &mut SnapWriter) {
        let LogHistogram {
            counts,
            count,
            sum,
            min,
            max,
        } = self;
        [count, sum, min, max].into_iter().for_each(|v| w.u64(*v));
        w.usize(counts.iter().filter(|&&c| c != 0).count());
        for (i, &c) in counts.iter().enumerate() {
            if c != 0 {
                w.u32(i as u32);
                w.u64(c);
            }
        }
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let LogHistogram {
            counts,
            count,
            sum,
            min,
            max,
        } = self;
        for v in [&mut *count, sum, min, max] {
            *v = r.u64()?;
        }
        let nonzero = r.len_prefix()?;
        *counts = if *count > 0 {
            vec![0; NUM_BUCKETS]
        } else {
            Vec::new()
        };
        let mut next = 0;
        for _ in 0..nonzero {
            let i = r.usize_from_u32()?;
            let c = r.u64()?;
            if i < next || c == 0 {
                return Err(SnapError::Malformed("histogram buckets not canonical"));
            }
            next = i + 1;
            *counts
                .get_mut(i)
                .ok_or(SnapError::Malformed("histogram bucket out of range"))? = c;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_below_32() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn buckets_are_contiguous_and_contain_their_values() {
        // Every probed value must land in a bucket whose [lower, upper]
        // range contains it, and bucket ranges must tile without gaps.
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            1000,
            4095,
            4096,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v = {v}");
        }
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                bucket_upper(i).saturating_add(1),
                bucket_lower(i + 1),
                "gap after bucket {i}"
            );
        }
    }

    #[test]
    fn percentiles_on_known_distribution() {
        let mut h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // Values ≤ 127 sit in buckets at most 4 wide; 1..=100 keeps the
        // reported quantile within its bucket's upper bound.
        assert_eq!(h.percentile(50), 50);
        assert_eq!(h.percentile(90), 91);
        assert_eq!(h.percentile(99), 99);
        assert_eq!(h.percentile(0), 1);
        assert_eq!(h.percentile(100), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 50);
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        let mut h = LogHistogram::new();
        h.record(77_000);
        for p in [0, 50, 99, 100] {
            let q = h.percentile(p);
            assert_eq!(q, h.max(), "p{p}");
        }
    }

    #[test]
    fn merge_is_associative() {
        let mk = |vals: &[u64]| {
            let mut h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 5, 900]);
        let b = mk(&[32, 33, 64]);
        let c = mk(&[1 << 30, 7]);

        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left.count(), right.count());
        assert_eq!(left.sum(), right.sum());
        assert_eq!(left.min(), right.min());
        assert_eq!(left.max(), right.max());
        assert_eq!(left.fold_digest(0), right.fold_digest(0));
        // And both equal recording everything into one histogram.
        let all = mk(&[1, 5, 900, 32, 33, 64, 1 << 30, 7]);
        assert_eq!(all.fold_digest(0), left.fold_digest(0));
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = LogHistogram::new();
        for v in [4u64, 77, 3000] {
            a.record(v);
        }
        let empty = LogHistogram::new();
        let mut b = a.clone();
        b.merge(&empty);
        assert_eq!(a.fold_digest(3), b.fold_digest(3));
        let mut c = LogHistogram::new();
        c.merge(&a);
        assert_eq!(a.fold_digest(3), c.fold_digest(3));
        assert_eq!(c.percentile(50), a.percentile(50));
        c.record(5); // must keep recording correctly after the copy path
        assert_eq!(c.count(), 4);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 31, 32, 900, 1 << 30, u64::MAX] {
            h.record(v);
        }
        let mut w = SnapWriter::new();
        h.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        let mut back = r.read::<LogHistogram>().unwrap();
        r.finish().unwrap();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        assert_eq!(back.min(), h.min());
        assert_eq!(back.max(), h.max());
        assert_eq!(back.fold_digest(9), h.fold_digest(9));
        // Restored histograms keep recording identically.
        back.record(77);
        let mut h2 = h.clone();
        h2.record(77);
        assert_eq!(back.fold_digest(9), h2.fold_digest(9));
    }

    #[test]
    fn empty_snapshot_restores_unallocated() {
        let h = LogHistogram::new();
        let mut w = SnapWriter::new();
        h.snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = r.read::<LogHistogram>().unwrap();
        r.finish().unwrap();
        assert!(back.is_empty());
        assert_eq!(back.fold_digest(1), h.fold_digest(1));
        // The empty restore keeps the lazy-allocation property.
        assert!(back.counts.is_empty());
    }

    #[test]
    fn top_bucket_holds_the_extremes_of_the_u64_range() {
        // The overflow end of the range: u64::MAX and its neighborhood
        // must land in the final bucket without panicking, and every
        // statistic must stay exact (count/min/max) or saturate (sum).
        let top = NUM_BUCKETS - 1;
        assert_eq!(bucket_index(u64::MAX), top);
        assert!(bucket_lower(top) < bucket_upper(top));
        assert_eq!(bucket_upper(top), u64::MAX, "upper bound saturates");
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(bucket_lower(top));
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), bucket_lower(top));
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
        // All three samples share the top bucket, so every percentile
        // reports from it, clamped to the recorded extrema.
        assert_eq!(h.percentile(50), u64::MAX);
        assert_eq!(h.percentile(0), u64::MAX);
        // A merge that only touches the top bucket stays exact too.
        let mut other = LogHistogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn fold_digest_is_stable_across_merge_order() {
        // Folding the same multiset of samples must yield one digest no
        // matter how the parts were merged: pairwise, left-fold,
        // right-fold, or interleaved. This is what lets parallel sweep
        // workers merge partial histograms in completion order.
        let mk = |vals: &[u64]| {
            let mut h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let parts = [
            mk(&[1, 2, 3]),
            mk(&[40, 50]),
            mk(&[7_000_000]),
            mk(&[u64::MAX, 0]),
            mk(&[]),
        ];
        let fold = |order: &[usize]| {
            let mut acc = LogHistogram::new();
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc.fold_digest(0xfeed)
        };
        let reference = fold(&[0, 1, 2, 3, 4]);
        for order in [
            [4, 3, 2, 1, 0],
            [2, 0, 4, 1, 3],
            [1, 3, 0, 2, 4],
            [3, 4, 1, 0, 2],
        ] {
            assert_eq!(fold(&order), reference, "order {order:?}");
        }
        // Digest differs from folding a different multiset.
        assert_ne!(fold(&[0, 1, 2, 4, 4]), reference);
    }

    #[test]
    fn digest_is_order_insensitive_but_value_sensitive() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in [3u64, 99, 12345] {
            a.record(v);
        }
        for v in [12345u64, 3, 99] {
            b.record(v);
        }
        assert_eq!(a.fold_digest(7), b.fold_digest(7));
        b.record(4);
        assert_ne!(a.fold_digest(7), b.fold_digest(7));
    }
}
