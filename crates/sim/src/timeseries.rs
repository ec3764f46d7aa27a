//! Windowed time series — rates over simulated time.
//!
//! Campaign-level figures ("labels per hour as the deployment ages") need
//! event counts bucketed by simulated time. [`RateSeries`] accumulates
//! timestamped counts into fixed-width windows and reports per-window
//! rates.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Counts events into fixed windows and reports rates.
///
/// # Examples
///
/// ```
/// use hc_sim::timeseries::RateSeries;
/// use hc_sim::{SimDuration, SimTime};
///
/// let mut s = RateSeries::new(SimDuration::from_secs(60));
/// s.record(SimTime::from_secs(10), 3);
/// s.record(SimTime::from_secs(59), 1);
/// s.record(SimTime::from_secs(61), 5);
/// assert_eq!(s.window_count(0), 4);
/// assert_eq!(s.window_count(1), 5);
/// // 4 events in a 60-second window = 4/min.
/// assert!((s.rate_per_sec(0) - 4.0 / 60.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSeries {
    window: SimDuration,
    counts: Vec<u64>,
}

impl RateSeries {
    /// Creates a series with the given window width.
    ///
    /// # Panics
    ///
    /// Panics on a zero window (setup error).
    #[must_use]
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        RateSeries {
            window,
            counts: Vec::new(),
        }
    }

    /// The window width.
    #[must_use]
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Records `n` events at time `at`.
    pub fn record(&mut self, at: SimTime, n: u64) {
        let idx = (at.ticks() / self.window.ticks()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// Number of windows touched so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Event count in window `i` (0 beyond the recorded range).
    #[must_use]
    pub fn window_count(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Events per second within window `i`.
    #[must_use]
    pub fn rate_per_sec(&self, i: usize) -> f64 {
        self.window_count(i) as f64 / self.window.as_secs_f64()
    }

    /// `(window start, count)` pairs for all recorded windows.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (SimTime::from_ticks(self.window.ticks() * i as u64), c))
    }

    /// Total events recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_bucket_by_window() {
        let mut s = RateSeries::new(SimDuration::from_secs(10));
        s.record(SimTime::from_secs(0), 1);
        s.record(SimTime::from_secs(9), 1);
        s.record(SimTime::from_secs(10), 1);
        s.record(SimTime::from_secs(35), 2);
        assert_eq!(s.window_count(0), 2);
        assert_eq!(s.window_count(1), 1);
        assert_eq!(s.window_count(2), 0);
        assert_eq!(s.window_count(3), 2);
        assert_eq!(s.len(), 4);
        assert_eq!(s.total(), 5);
        assert!((s.rate_per_sec(0) - 0.2).abs() < 1e-12);
        assert_eq!(s.window(), SimDuration::from_secs(10));
    }

    #[test]
    fn iter_reports_window_starts() {
        let mut s = RateSeries::new(SimDuration::from_secs(60));
        s.record(SimTime::from_secs(70), 4);
        let points: Vec<(SimTime, u64)> = s.iter().collect();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0], (SimTime::ZERO, 0));
        assert_eq!(points[1], (SimTime::from_secs(60), 4));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = RateSeries::new(SimDuration::ZERO);
    }

    #[test]
    fn empty_series() {
        let s = RateSeries::new(SimDuration::from_secs(1));
        assert!(s.is_empty());
        assert_eq!(s.window_count(5), 0);
        assert_eq!(s.total(), 0);
    }
}
