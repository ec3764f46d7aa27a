//! Online statistics for experiment harnesses.
//!
//! Experiment binaries report means, spreads and confidence intervals;
//! this module provides the shared machinery:
//!
//! * [`OnlineStats`] — single-pass Welford mean/variance with min/max.
//! * [`ConfidenceInterval`] — normal-approximation CIs for means.

use serde::{Deserialize, Serialize};

/// Single-pass running mean/variance (Welford's algorithm), plus min/max.
///
/// Numerically stable for long streams; used for inter-arrival gaps, queue
/// sojourns, scores, and every other streaming measurement in the workspace.
///
/// # Examples
///
/// ```
/// use hc_sim::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. Non-finite values are ignored (and counted via
    /// [`OnlineStats::count`] staying unchanged) so one NaN cannot poison a
    /// whole experiment.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (divides by `n-1`), or 0 with fewer than 2 samples.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Minimum observation, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of observations (`mean * n`).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

/// A symmetric confidence interval `center ± half_width`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub center: f64,
    /// Half-width of the interval.
    pub half_width: f64,
}

/// z-score for a two-sided 95% interval.
const Z95: f64 = 1.959_963_984_540_054;

impl ConfidenceInterval {
    /// 95% CI for a mean given its sample standard deviation and count
    /// (normal approximation; degenerate when `n < 2`).
    #[must_use]
    pub fn for_mean(mean: f64, std_dev: f64, n: u64) -> Self {
        let half_width = if n < 2 {
            0.0
        } else {
            Z95 * std_dev / (n as f64).sqrt()
        };
        ConfidenceInterval {
            center: mean,
            half_width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [1.5, 2.5, 3.5, 10.0, -4.0, 0.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(-4.0));
        assert_eq!(s.max(), Some(10.0));
        assert!((s.sum() - data.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn welford_ignores_non_finite() {
        let mut s = OnlineStats::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(3.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.push(x);
        }
        for &x in &data[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn mean_ci_shrinks_with_n() {
        let wide = ConfidenceInterval::for_mean(5.0, 2.0, 10);
        let narrow = ConfidenceInterval::for_mean(5.0, 2.0, 1000);
        assert!(narrow.half_width < wide.half_width);
        assert_eq!(wide.center, 5.0);
        assert_eq!(ConfidenceInterval::for_mean(5.0, 2.0, 1).half_width, 0.0);
    }
}
