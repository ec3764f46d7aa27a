//! Arrival process — when do players show up?
//!
//! GWAP platforms live or die by concurrency: output-agreement games need
//! *pairs* of simultaneous players, so pairing latency and the replay-bot
//! fallback rate (experiment F5) are direct functions of the arrival
//! process. [`DiurnalProcess`] is a non-homogeneous Poisson process with a
//! 24-hour sinusoidal rate profile, sampled by Lewis–Shedler thinning; it
//! models the day/night traffic swing real game portals see (experiment
//! F11).

use crate::dist::Exponential;
use crate::time::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A non-homogeneous Poisson process with a sinusoidal 24-hour profile:
///
/// `rate(t) = base * (1 + amplitude * sin(2π (t - phase) / 24h))`
///
/// sampled by thinning against the peak rate. `amplitude` in `[0, 1]`
/// controls the day/night swing (0 = stationary, 1 = traffic dies at night).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalProcess {
    base_rate_per_sec: f64,
    amplitude: f64,
    phase: SimDuration,
}

impl DiurnalProcess {
    /// Creates a diurnal process around `base_rate_per_sec`, with relative
    /// `amplitude` clamped to `[0, 1]` and peak offset `phase` into the day.
    #[must_use]
    pub fn new(base_rate_per_sec: f64, amplitude: f64, phase: SimDuration) -> Self {
        let base = if base_rate_per_sec.is_finite() && base_rate_per_sec > 0.0 {
            base_rate_per_sec
        } else {
            0.0
        };
        let amplitude = if amplitude.is_finite() {
            amplitude.clamp(0.0, 1.0)
        } else {
            0.0
        };
        DiurnalProcess {
            base_rate_per_sec: base,
            amplitude,
            phase,
        }
    }

    /// Instantaneous rate at `t`, events per second.
    #[must_use]
    pub fn rate_at(&self, t: SimTime) -> f64 {
        const DAY_SECS: f64 = 86_400.0;
        let secs = (t.as_secs_f64() - self.phase.as_secs_f64()).rem_euclid(DAY_SECS);
        let angle = 2.0 * std::f64::consts::PI * secs / DAY_SECS;
        self.base_rate_per_sec * (1.0 + self.amplitude * angle.sin())
    }

    /// Peak instantaneous rate (thinning envelope).
    #[must_use]
    pub fn peak_rate(&self) -> f64 {
        self.base_rate_per_sec * (1.0 + self.amplitude)
    }

    /// The first arrival strictly after `after`.
    pub fn next_after<R: Rng + ?Sized>(&self, after: SimTime, rng: &mut R) -> SimTime {
        let peak = self.peak_rate();
        if peak <= 0.0 {
            return SimTime::MAX;
        }
        #[expect(clippy::expect_used, reason = "peak checked positive two lines up")]
        let envelope = Exponential::new(peak).expect("peak > 0");
        let mut t = after;
        // Lewis–Shedler thinning: propose from the homogeneous envelope,
        // accept with probability rate(t)/peak.
        for _ in 0..1_000_000 {
            let gap = envelope.sample(rng).max(1e-6);
            t += SimDuration::from_secs_f64(gap);
            let accept_p = self.rate_at(t) / peak;
            if rng.gen::<f64>() < accept_p {
                return t;
            }
        }
        SimTime::MAX // pathological parameters; treat as silence
    }

    /// All arrivals in `(from, until]`, in order.
    pub fn arrivals_between<R: Rng + ?Sized>(
        &self,
        from: SimTime,
        until: SimTime,
        rng: &mut R,
    ) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = from;
        loop {
            t = self.next_after(t, rng);
            if t > until {
                break;
            }
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(777)
    }

    #[test]
    fn zero_rate_never_arrives() {
        let mut r = rng();
        for base in [0.0, f64::NAN] {
            let silent = DiurnalProcess::new(base, 0.5, SimDuration::ZERO);
            assert_eq!(silent.next_after(SimTime::ZERO, &mut r), SimTime::MAX);
        }
    }

    #[test]
    fn diurnal_rate_profile_peaks_and_troughs() {
        let d = DiurnalProcess::new(10.0, 0.5, SimDuration::ZERO);
        // Peak at 6h into the cycle (sin = 1), trough at 18h (sin = -1).
        let peak = d.rate_at(SimTime::from_secs(6 * 3600));
        let trough = d.rate_at(SimTime::from_secs(18 * 3600));
        assert!((peak - 15.0).abs() < 1e-6, "peak={peak}");
        assert!((trough - 5.0).abs() < 1e-6, "trough={trough}");
        assert!((d.peak_rate() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn diurnal_total_volume_matches_base_rate() {
        let mut r = rng();
        // Over whole days the sinusoid integrates out: volume ≈ base * T.
        let d = DiurnalProcess::new(2.0, 0.9, SimDuration::from_hours(3));
        let day = SimTime::from_secs(86_400);
        let n = d.arrivals_between(SimTime::ZERO, day, &mut r).len();
        let expected = 2.0 * 86_400.0;
        assert!(
            (n as f64 - expected).abs() / expected < 0.05,
            "n={n} expected≈{expected}"
        );
    }

    #[test]
    fn diurnal_amplitude_clamps() {
        let d = DiurnalProcess::new(1.0, 5.0, SimDuration::ZERO);
        assert!((d.peak_rate() - 2.0).abs() < 1e-12);
        let d = DiurnalProcess::new(1.0, -3.0, SimDuration::ZERO);
        assert!((d.peak_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diurnal_arrivals_strictly_increasing_and_denser_at_peak() {
        let mut r = rng();
        let d = DiurnalProcess::new(1.0, 0.95, SimDuration::ZERO);
        let xs = d.arrivals_between(SimTime::ZERO, SimTime::from_secs(86_400), &mut r);
        assert!(xs.windows(2).all(|w| w[0] < w[1]));
        // Count arrivals in the peak half (0..12h) vs trough half (12..24h).
        let half = SimTime::from_secs(43_200);
        let peak_n = xs.iter().filter(|&&t| t <= half).count();
        let trough_n = xs.len() - peak_n;
        assert!(
            peak_n > trough_n * 2,
            "expected strong diurnal skew: peak={peak_n} trough={trough_n}"
        );
    }
}
