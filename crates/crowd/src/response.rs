//! Per-answer latency.
//!
//! Round and session clocks in the simulation advance by the time players
//! take to think and type. The published ESP Game numbers imply a handful
//! of guesses in well under 150 s per image; a log-normal think time plus
//! linear typing time reproduces that shape.

use hc_core::Label;
use hc_sim::dist::LogNormal;
use hc_sim::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Latency model: `think ~ LogNormal` plus `typing = per_char × len`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResponseTimeModel {
    /// Log-space mean of think time (seconds).
    pub think_mu: f64,
    /// Log-space standard deviation of think time.
    pub think_sigma: f64,
    /// Seconds per character typed.
    pub per_char_secs: f64,
}

impl Default for ResponseTimeModel {
    /// Median think ≈ 2.2 s, mean ≈ 3 s, ~0.15 s/char — a casual typist.
    fn default() -> Self {
        ResponseTimeModel {
            think_mu: 0.8,
            think_sigma: 0.75,
            per_char_secs: 0.15,
        }
    }
}

impl ResponseTimeModel {
    /// Samples the latency for producing `label` (pass = empty text).
    pub fn sample<R: Rng + ?Sized>(&self, label: Option<&Label>, rng: &mut R) -> SimDuration {
        #[expect(
            clippy::expect_used,
            reason = "model parameters validated at construction"
        )]
        let think = LogNormal::new(self.think_mu, self.think_sigma)
            .expect("model parameters validated by construction")
            .sample(rng);
        let typing = label.map_or(0.0, |l| l.len() as f64 * self.per_char_secs);
        SimDuration::from_secs_f64((think + typing).max(0.05))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(9)
    }

    #[test]
    fn latency_is_positive_and_reasonable() {
        let m = ResponseTimeModel::default();
        let mut r = rng();
        let mut total = 0.0;
        let n = 5000;
        for _ in 0..n {
            let d = m.sample(Some(&Label::new("dog")), &mut r);
            assert!(d.as_secs_f64() >= 0.05);
            total += d.as_secs_f64();
        }
        let mean = total / f64::from(n);
        // Log-normal mean think time plus three characters of typing.
        let expected = (m.think_mu + 0.5 * m.think_sigma * m.think_sigma).exp() + 3.0 * 0.15;
        assert!(
            (mean - expected).abs() / expected < 0.1,
            "mean={mean} expected≈{expected}"
        );
    }

    #[test]
    fn typing_time_scales_with_length() {
        let m = ResponseTimeModel {
            think_mu: -10.0, // negligible think time
            think_sigma: 0.0,
            per_char_secs: 1.0,
        };
        let mut r = rng();
        let short = m.sample(Some(&Label::new("ab")), &mut r);
        let long = m.sample(Some(&Label::new("abcdefgh")), &mut r);
        assert!(long.as_secs_f64() > short.as_secs_f64() + 5.0);
        let pass = m.sample(None, &mut r);
        assert!(pass.as_secs_f64() < 0.1);
    }
}
