//! Engagement: session lengths and lifetime play.
//!
//! ALP — average lifetime play — is the paper's "enjoyability" metric: the
//! expected total hours one player ever spends in the game. The published
//! ESP Game figure is ≈ 91 minutes, with a heavy right tail (some players
//! spent 50+ hours). [`EngagementModel`] reproduces that shape as:
//!
//! * session length ~ LogNormal (minutes),
//! * sessions per lifetime ~ Geometric (players return until they churn).
//!
//! Expected ALP = mean sessions × mean session length, available in closed
//! form for calibration ([`EngagementModel::expected_alp_hours`]), and
//! experiment F6 sweeps the parameters to show expected contribution
//! scaling linearly in ALP at fixed throughput.

use hc_sim::dist::{Geometric, LogNormal};
use hc_sim::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Session-length and churn parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngagementModel {
    /// Log-space mean of session length (minutes).
    pub session_mu: f64,
    /// Log-space standard deviation of session length.
    pub session_sigma: f64,
    /// Per-session churn probability (geometric parameter).
    pub churn_rate: f64,
}

impl EngagementModel {
    /// Creates a model.
    ///
    /// # Errors
    ///
    /// Returns an error string when `churn_rate` is outside `(0, 1]` or
    /// the log-normal parameters are invalid.
    pub fn new(session_mu: f64, session_sigma: f64, churn_rate: f64) -> Result<Self, String> {
        LogNormal::new(session_mu, session_sigma).map_err(|e| e.to_string())?;
        Geometric::new(churn_rate).map_err(|e| e.to_string())?;
        Ok(EngagementModel {
            session_mu,
            session_sigma,
            churn_rate,
        })
    }

    /// The calibration used for experiment T1: mean session ≈ 9.1 min and
    /// mean 10 sessions per lifetime ⇒ expected ALP ≈ 91 min, matching the
    /// published ESP Game figure.
    #[must_use]
    pub fn esp_calibrated() -> Self {
        // LogNormal with median 6.5 min, sigma 0.82 => mean ≈ 9.1 min.
        EngagementModel {
            session_mu: 6.5_f64.ln(),
            session_sigma: 0.82,
            churn_rate: 0.1,
        }
    }

    /// Mean session length in minutes.
    #[must_use]
    pub fn mean_session_mins(&self) -> f64 {
        (self.session_mu + 0.5 * self.session_sigma * self.session_sigma).exp()
    }

    /// Mean sessions per lifetime.
    #[must_use]
    pub fn mean_sessions(&self) -> f64 {
        1.0 / self.churn_rate
    }

    /// Closed-form expected ALP in hours.
    #[must_use]
    pub fn expected_alp_hours(&self) -> f64 {
        self.mean_session_mins() * self.mean_sessions() / 60.0
    }

    /// Samples one player's complete lifetime.
    pub fn sample_lifetime<R: Rng + ?Sized>(&self, rng: &mut R) -> LifetimePlan {
        #[expect(
            clippy::expect_used,
            reason = "churn_rate validated by the constructor"
        )]
        let sessions = Geometric::new(self.churn_rate)
            .expect("validated")
            .sample(rng)
            .min(10_000); // tail guard
        #[expect(clippy::expect_used, reason = "mu/sigma validated by the constructor")]
        let session_dist = LogNormal::new(self.session_mu, self.session_sigma).expect("validated");
        let session_lengths = (0..sessions)
            .map(|_| SimDuration::from_secs_f64(session_dist.sample(rng) * 60.0))
            .collect();
        if hc_obs::active() {
            hc_obs::counter_now("crowd.lifetimes_sampled", 1);
        }
        LifetimePlan { session_lengths }
    }
}

/// One sampled player lifetime: how long each of their sessions lasts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimePlan {
    /// Length of each session, in play order.
    pub session_lengths: Vec<SimDuration>,
}

impl LifetimePlan {
    /// Total lifetime play.
    #[must_use]
    pub fn total_play(&self) -> SimDuration {
        self.session_lengths
            .iter()
            .fold(SimDuration::ZERO, |acc, d| acc + *d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31)
    }

    #[test]
    fn constructor_validates() {
        assert!(EngagementModel::new(1.0, 0.5, 0.1).is_ok());
        assert!(EngagementModel::new(1.0, 0.5, 0.0).is_err());
        assert!(EngagementModel::new(1.0, -0.5, 0.1).is_err());
        assert!(EngagementModel::new(f64::NAN, 0.5, 0.1).is_err());
    }

    #[test]
    fn esp_calibration_hits_91_minutes() {
        let m = EngagementModel::esp_calibrated();
        let alp_mins = m.expected_alp_hours() * 60.0;
        assert!((alp_mins - 91.0).abs() < 5.0, "ALP≈{alp_mins}min");
    }

    #[test]
    fn sampled_alp_matches_closed_form() {
        let m = EngagementModel::esp_calibrated();
        let mut r = rng();
        let n = 3000;
        let mut total_hours = 0.0;
        for _ in 0..n {
            total_hours += m.sample_lifetime(&mut r).total_play().as_hours_f64();
        }
        let mean = total_hours / f64::from(n);
        let expected = m.expected_alp_hours();
        assert!(
            (mean - expected).abs() / expected < 0.12,
            "sampled {mean:.3} vs expected {expected:.3}"
        );
    }

    #[test]
    fn lifetimes_have_at_least_one_session() {
        let m = EngagementModel::esp_calibrated();
        let mut r = rng();
        for _ in 0..200 {
            let plan = m.sample_lifetime(&mut r);
            assert!(!plan.session_lengths.is_empty());
            assert!(plan.total_play() > SimDuration::ZERO);
        }
    }

    #[test]
    fn higher_churn_means_shorter_lifetimes() {
        let sticky = EngagementModel::new(2.0, 0.5, 0.05).unwrap();
        let churny = EngagementModel::new(2.0, 0.5, 0.5).unwrap();
        assert!(sticky.expected_alp_hours() > churny.expected_alp_hours());
        assert!((sticky.mean_sessions() - 20.0).abs() < 1e-12);
        assert!((churny.mean_sessions() - 2.0).abs() < 1e-12);
    }
}
