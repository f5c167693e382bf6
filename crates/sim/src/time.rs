//! Simulated time in picoseconds.
//!
//! Picosecond resolution makes every clock in the modeled system exact:
//! a 2 GHz host cycle is 500 ps, a 500 MHz switch cycle is 2000 ps, and a
//! 1 GB/s link serializes one byte in ~931 ps (we round per-transfer, not
//! per-byte, so no cumulative drift). A `u64` of picoseconds covers about
//! 213 days of simulated time, far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulated time, measured in picoseconds from the
/// start of the simulation.
///
/// `SimTime` is ordered, so it can key the event queue directly.
///
/// # Example
///
/// ```
/// use asan_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_ns(100);
/// assert_eq!(t.as_ps(), 100_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in picoseconds.
///
/// # Example
///
/// ```
/// use asan_sim::SimDuration;
/// let d = SimDuration::from_us(30); // the paper's fixed OS cost per I/O
/// assert_eq!(d.as_ns(), 30_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The beginning of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far"
    /// sentinel when searching for the earliest next event.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Raw picoseconds since simulation start.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time since start, in nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Time since start, in seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "since() with a later time");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition: clamps at [`SimTime::MAX`] instead of
    /// wrapping. Use wherever a schedule point is derived from an
    /// unbounded duration (e.g. exponentially backed-off timeouts) so
    /// arithmetic near the time horizon cannot wrap into the past.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration from a (possibly fractional) number of
    /// nanoseconds, rounding to the nearest picosecond.
    ///
    /// Useful for derived quantities like "0.27 µs per KB".
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a float-to-integer `as` rounds and saturates; there is no `TryFrom<f64>`"
    )]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative duration");
        SimDuration((ns * 1_000.0).round() as u64)
    }

    /// The time it takes to transfer `bytes` at `bytes_per_sec`, rounded
    /// up to the next picosecond and saturating at `u64::MAX` ps
    /// (about 213 days) rather than wrapping.
    ///
    /// # Example
    ///
    /// ```
    /// use asan_sim::SimDuration;
    /// // 512 B over a 1 GB/s link = 512 ns.
    /// let d = SimDuration::transfer(512, 1_000_000_000);
    /// assert_eq!(d.as_ns(), 512);
    /// ```
    #[inline]
    pub fn transfer(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "zero bandwidth");
        // ps = bytes * 1e12 / B/s, computed in u128 to avoid overflow.
        let ps = (bytes as u128 * 1_000_000_000_000u128).div_ceil(bytes_per_sec as u128);
        SimDuration(u64::try_from(ps).unwrap_or(u64::MAX))
    }

    /// The duration of `cycles` cycles of a clock at `hz`, saturating
    /// like [`transfer`](SimDuration::transfer).
    ///
    /// # Example
    ///
    /// ```
    /// use asan_sim::SimDuration;
    /// assert_eq!(SimDuration::cycles(4, 2_000_000_000).as_ps(), 2_000);
    /// ```
    #[inline]
    pub fn cycles(cycles: u64, hz: u64) -> Self {
        assert!(hz > 0, "zero frequency");
        let ps = (cycles as u128 * 1_000_000_000_000u128).div_ceil(hz as u128);
        SimDuration(u64::try_from(ps).unwrap_or(u64::MAX))
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition: clamps at `u64::MAX` picoseconds instead
    /// of wrapping. Exponential-backoff doubling must use this — a
    /// plain `+` wraps once the doubled timeout passes the `u64`
    /// horizon and schedules retries in the simulated past.
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// The longer of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

/// A rate — a clock in Hz or a bandwidth in bytes per second — with
/// its picosecond period precomputed, for the per-access model paths.
///
/// When the rate divides 10^12 (2 GHz, 500 MHz, 1 GB/s, 1.6 GB/s all
/// do), [`Period::times`] is one multiply; otherwise it takes the u128
/// path of [`SimDuration::transfer`]. Both give the same picoseconds.
///
/// # Example
///
/// ```
/// use asan_sim::time::Period;
/// use asan_sim::SimDuration;
/// let clock = Period::of(2_000_000_000);
/// assert_eq!(clock.times(4), SimDuration::cycles(4, 2_000_000_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Period {
    per_sec: u64,
    /// `10^12 / per_sec` when that is exact, else 0.
    ps: u64,
}

impl Period {
    /// The period of `per_sec` events (cycles, bytes) per second.
    ///
    /// # Panics
    ///
    /// Panics if `per_sec` is zero.
    pub fn of(per_sec: u64) -> Self {
        assert!(per_sec > 0, "zero rate");
        let ps = if PS_PER_SEC.is_multiple_of(per_sec) {
            PS_PER_SEC / per_sec
        } else {
            0
        };
        Period { per_sec, ps }
    }

    /// The duration of `n` periods, rounded up to the next picosecond:
    /// equal to `SimDuration::transfer(n, per_sec)` and
    /// `SimDuration::cycles(n, per_sec)`.
    #[inline]
    pub fn times(self, n: u64) -> SimDuration {
        match n.checked_mul(self.ps) {
            Some(ps) if self.ps != 0 => SimDuration(ps),
            _ => SimDuration::transfer(n, self.per_sec),
        }
    }
}

/// Picoseconds per second.
const PS_PER_SEC: u64 = 1_000_000_000_000;

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "duration underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(rhs.0 <= self.0, "duration underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ps(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

fn format_ps(ps: u64) -> String {
    if ps == 0 {
        "0ps".to_owned()
    } else if ps.is_multiple_of(1_000_000_000_000) {
        format!("{}s", ps / 1_000_000_000_000)
    } else if ps >= 1_000_000_000_000 {
        format!("{:.3}s", ps as f64 * 1e-12)
    } else if ps >= 1_000_000_000 {
        format!("{:.3}ms", ps as f64 * 1e-9)
    } else if ps >= 1_000_000 {
        format!("{:.3}us", ps as f64 * 1e-6)
    } else if ps >= 1_000 {
        format!("{:.3}ns", ps as f64 * 1e-3)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_ns(7);
        assert_eq!(t.as_ps(), 7_000);
        let t2 = t + SimDuration::from_ps(500);
        assert_eq!(t2.as_ps(), 7_500);
        assert_eq!(t2.since(t), SimDuration::from_ps(500));
        assert_eq!(t2 - t, SimDuration::from_ps(500));
    }

    #[test]
    fn host_and_switch_cycles_are_exact() {
        // 2 GHz host: 500 ps; 500 MHz switch: 2000 ps.
        assert_eq!(SimDuration::cycles(1, 2_000_000_000).as_ps(), 500);
        assert_eq!(SimDuration::cycles(1, 500_000_000).as_ps(), 2_000);
        assert_eq!(SimDuration::cycles(3, 2_000_000_000).as_ps(), 1_500);
    }

    #[test]
    fn transfer_durations_match_paper_parameters() {
        // 512 B at 1 GB/s (link) = 512 ns.
        assert_eq!(SimDuration::transfer(512, 1_000_000_000).as_ns(), 512);
        // 64 KB at 100 MB/s (both disks) = 655.36 us.
        let d = SimDuration::transfer(65536, 100_000_000);
        assert_eq!(d.as_us(), 655);
        // 512 B at 320 MB/s (SCSI) = 1.6 us.
        assert_eq!(SimDuration::transfer(512, 320_000_000).as_ns(), 1_600);
    }

    #[test]
    fn period_matches_the_division_path() {
        let mut rng = crate::SimRng::from_label("period");
        let rates = [
            1,
            3,
            320_000_000,
            500_000_000,
            1_000_000_000,
            1_600_000_000,
            2_000_000_000,
            3_000_000_000,
            1_000_000_000_000,
            u64::MAX,
        ];
        for per_sec in rates {
            let p = Period::of(per_sec);
            let mut ns: Vec<u64> = (0..200).map(|_| rng.below(1 << 20)).collect();
            ns.extend([0, 1, 8, 512, u64::MAX / 1_000, u64::MAX]);
            for n in ns {
                assert_eq!(
                    p.times(n),
                    SimDuration::transfer(n, per_sec),
                    "{n} at {per_sec}"
                );
                assert_eq!(
                    p.times(n),
                    SimDuration::cycles(n, per_sec),
                    "{n} at {per_sec}"
                );
            }
        }
        assert_eq!(Period::of(2_000_000_000).ps, 500);
        assert_eq!(Period::of(3).ps, 0);
    }

    #[test]
    fn transfer_rounds_up() {
        // 1 byte at 3 B/s: 1/3 s -> strictly greater than 333333333333 ps.
        let d = SimDuration::transfer(1, 3);
        assert_eq!(d.as_ps(), 333_333_333_334);
    }

    #[test]
    fn saturating_ops() {
        let a = SimDuration::from_ns(5);
        let b = SimDuration::from_ns(9);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_ns(4));
        let t = SimTime::from_ns(1);
        assert_eq!(t.saturating_since(SimTime::from_ns(2)), SimDuration::ZERO);
    }

    #[test]
    fn saturating_add_clamps_at_horizon() {
        let huge = SimDuration::from_ps(u64::MAX - 10);
        // Duration doubling near the horizon clamps instead of wrapping.
        assert_eq!(huge.saturating_add(huge).as_ps(), u64::MAX);
        assert_eq!(
            SimDuration::from_ps(3).saturating_add(SimDuration::from_ps(4)),
            SimDuration::from_ps(7)
        );
        // A timeout armed off a late `now` clamps to SimTime::MAX.
        let late = SimTime::from_ps(u64::MAX - 5);
        assert_eq!(late.saturating_add(huge), SimTime::MAX);
        assert_eq!(
            SimTime::from_ps(5).saturating_add(SimDuration::from_ps(6)),
            SimTime::from_ps(11)
        );
    }

    #[test]
    fn from_ns_f64_rounds() {
        // 0.27 us/KB from the paper's OS model.
        let d = SimDuration::from_ns_f64(270.0);
        assert_eq!(d.as_ps(), 270_000);
        assert_eq!(SimDuration::from_ns_f64(0.0004).as_ps(), 0);
        assert_eq!(SimDuration::from_ns_f64(0.0006).as_ps(), 1);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_ps(12).to_string(), "12ps");
        assert_eq!(SimDuration::from_ns(512).to_string(), "512.000ns");
        assert_eq!(SimDuration::from_us(30).to_string(), "30.000us");
        assert_eq!(SimDuration::from_ms(2).to_string(), "2.000ms");
        assert_eq!(SimTime::ZERO.to_string(), "0ps");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimDuration::from_ns(1).max(SimDuration::from_ns(2)),
            SimDuration::from_ns(2)
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total, SimDuration::from_ns(10));
    }
}
