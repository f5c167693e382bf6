//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed from the same numbers by any script using that function.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (mean of the two middle samples for even `n`).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`, which must be non-empty and finite.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or a NaN sample.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
        let n = s.len();
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (s[0], s[0])
        } else {
            (exclusive_quartile(&s, 1), exclusive_quartile(&s, 3))
        };
        Summary { n, median, q1, q3 }
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Quartile `i` (1 or 3) of sorted `s` (len ≥ 2) by the exclusive
/// method: position `i·(n+1)/4`, clamped to `1..n-1`, linearly
/// interpolated (extrapolated past the ends, as Python does).
fn exclusive_quartile(s: &[f64], i: usize) -> f64 {
    let ld = s.len();
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_on_odd_and_even_n() {
        // Expected values from statistics.median / quantiles(n=4).
        let even: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&even);
        assert_eq!((s.n, s.median, s.q1, s.q3), (10, 5.5, 2.75, 8.25));
        let odd = [5.0, 1.0, 4.0, 2.0, 3.0];
        let s = Summary::of(&odd);
        assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 1.5, 4.5));
        // Two samples extrapolate past both ends.
        let s = Summary::of(&[3.0, 1.0]);
        assert_eq!((s.median, s.q1, s.q3), (2.0, 0.5, 3.5));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.median, s.q1, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
