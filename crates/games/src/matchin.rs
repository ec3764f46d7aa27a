//! Matchin — pairwise preference elicitation and ranking.
//!
//! Both players see the same two images and each clicks the one they find
//! better; they score when they click the same image. Aggregated over many
//! pairs, the choices yield a global "which images do people like"
//! ranking — the deployed game's output. We model each image with a
//! latent appeal score; honest players choose by a Bradley–Terry draw
//! around the latent difference (sharpened by skill), and the collected
//! pairwise outcomes are re-fit with a Bradley–Terry MM estimator whose
//! recovered ranking is scored against the latent truth by Kendall tau
//! (experiment T1's Matchin row).

use crate::params::{SessionParams, SessionPlay};
use crate::world::WorldConfig;
use hc_core::prelude::*;
use hc_crowd::Population;
use rand::Rng;

/// Pause between rounds.
const INTER_ROUND_GAP: SimDuration = SimDuration::from_secs(1);

/// The Matchin world: latent appeal per image.
#[derive(Debug, Clone)]
pub struct MatchinWorld {
    appeal: Vec<f64>,
}

impl MatchinWorld {
    /// Generates `config.stimuli` images with standard-normal latent
    /// appeal.
    pub fn generate<R: Rng + ?Sized>(config: &WorldConfig, rng: &mut R) -> Self {
        let appeal = (0..config.stimuli)
            .map(|_| hc_sim::dist::standard_normal(rng))
            .collect();
        MatchinWorld { appeal }
    }

    /// Number of images.
    #[must_use]
    pub fn len(&self) -> usize {
        self.appeal.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.appeal.is_empty()
    }

    /// Latent appeal of an image.
    #[must_use]
    pub fn appeal(&self, image: usize) -> Option<f64> {
        self.appeal.get(image).copied()
    }

    /// Probability an attentive player prefers `a` over `b`
    /// (Bradley–Terry on the latent difference, sharpened by skill).
    #[must_use]
    pub fn prefer_probability(&self, a: usize, b: usize, skill: f64) -> f64 {
        let da = self.appeal.get(a).copied().unwrap_or(0.0);
        let db = self.appeal.get(b).copied().unwrap_or(0.0);
        let sharpness = 1.0 + 2.0 * skill.clamp(0.0, 1.0);
        1.0 / (1.0 + (-(da - db) * sharpness).exp())
    }
}

/// Accumulated pairwise outcomes and the Bradley–Terry fit.
#[derive(Debug, Clone)]
pub struct BradleyTerryRanking {
    n: usize,
    /// wins[i][j] = times i was preferred over j (dense; worlds are small).
    wins: Vec<Vec<f64>>,
}

impl BradleyTerryRanking {
    /// Creates an empty tally over `n` images.
    #[must_use]
    pub fn new(n: usize) -> Self {
        BradleyTerryRanking {
            n,
            wins: vec![vec![0.0; n]; n],
        }
    }

    /// Records that `winner` was preferred over `loser`.
    pub fn record(&mut self, winner: usize, loser: usize) {
        if winner < self.n && loser < self.n && winner != loser {
            self.wins[winner][loser] += 1.0;
        }
    }

    /// Total comparisons recorded.
    #[must_use]
    pub fn comparisons(&self) -> f64 {
        self.wins.iter().flatten().sum()
    }

    /// Fits Bradley–Terry strengths by the classic MM algorithm
    /// (Hunter 2004) with light smoothing; returns one strength per image.
    #[must_use]
    pub fn fit(&self, iterations: usize) -> Vec<f64> {
        let n = self.n;
        if n == 0 {
            return Vec::new();
        }
        let mut p = vec![1.0f64; n];
        // Smoothed win/match counts keep the MM update well-defined for
        // images with few comparisons.
        let eps = 0.1;
        for _ in 0..iterations.max(1) {
            let mut next = vec![0.0f64; n];
            for i in 0..n {
                let w_i: f64 = (0..n).map(|j| self.wins[i][j]).sum::<f64>() + eps;
                let mut denom = 0.0;
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let n_ij = self.wins[i][j] + self.wins[j][i] + 2.0 * eps / (n as f64 - 1.0);
                    denom += n_ij / (p[i] + p[j]);
                }
                next[i] = if denom > 0.0 { w_i / denom } else { p[i] };
            }
            // Normalize (geometric mean to 1).
            let log_mean: f64 = next.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / n as f64;
            let scale = log_mean.exp();
            for x in &mut next {
                *x /= scale;
            }
            p = next;
        }
        p
    }

    /// Kendall-tau rank correlation between fitted strengths and a truth
    /// vector (1 = identical order, −1 = reversed).
    #[must_use]
    pub fn kendall_tau(fitted: &[f64], truth: &[f64]) -> f64 {
        assert_eq!(fitted.len(), truth.len(), "rank vectors must align");
        let n = fitted.len();
        if n < 2 {
            return 1.0;
        }
        let mut concordant = 0i64;
        let mut discordant = 0i64;
        for i in 0..n {
            for j in (i + 1)..n {
                let df = fitted[i] - fitted[j];
                let dt = truth[i] - truth[j];
                let s = df * dt;
                if s > 0.0 {
                    concordant += 1;
                } else if s < 0.0 {
                    discordant += 1;
                }
            }
        }
        let total = (n * (n - 1) / 2) as f64;
        (concordant - discordant) as f64 / total
    }
}

/// Drives one Matchin session, feeding outcomes into `ranking`.
pub fn play_matchin_session<R: Rng + ?Sized>(
    platform: &mut Platform,
    world: &MatchinWorld,
    population: &mut Population,
    params: SessionParams,
    ranking: &mut BradleyTerryRanking,
    rng: &mut R,
) -> SessionTranscript {
    let [left, right] = params.seats;
    let cfg = platform.config().session;
    let mut play = SessionPlay::begin(params, cfg, cfg.score_rule);
    while play.can_play_more() && world.len() >= 2 {
        // Draw a random image pair.
        let a = rng.gen_range(0..world.len());
        let mut b = rng.gen_range(0..world.len());
        if b == a {
            b = (b + 1) % world.len();
        }
        #[expect(
            clippy::expect_used,
            reason = "callers pass two distinct registered ids"
        )]
        let (pa, pb) = population
            .get_pair_mut(left, right)
            .expect("players exist and are distinct");
        let mut choices = [0usize; 2];
        let mut duration = SimDuration::ZERO;
        for (idx, profile) in [pa, pb].into_iter().enumerate() {
            let p_prefer_a = match profile.behavior {
                hc_crowd::Behavior::Random
                | hc_crowd::Behavior::Colluder { .. }
                | hc_crowd::Behavior::Spammer { .. } => 0.5,
                _ => world.prefer_probability(a, b, profile.skill),
            };
            choices[idx] = if rng.gen::<f64>() < p_prefer_a { a } else { b };
            duration += profile.response.sample(None, rng);
        }
        let matched = choices[0] == choices[1];
        if matched {
            let winner = choices[0];
            let loser = if winner == a { b } else { a };
            ranking.record(winner, loser);
        }
        let next = play.now() + duration + INTER_ROUND_GAP;
        play.record(
            TemplateKind::OutputAgreement,
            TaskId::new(a as u64),
            matched,
            u32::from(matched),
            duration,
            next,
        );
    }
    let transcript = play.finish();
    platform.record_session(&transcript);
    transcript
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_crowd::{ArchetypeMix, PopulationBuilder};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(909)
    }

    #[test]
    fn preference_probability_tracks_appeal() {
        let mut r = rng();
        let world = MatchinWorld::generate(&WorldConfig::small(), &mut r);
        // Find images with clearly different appeal.
        let (mut hi, mut lo) = (0, 0);
        for i in 0..world.len() {
            if world.appeal(i).unwrap() > world.appeal(hi).unwrap() {
                hi = i;
            }
            if world.appeal(i).unwrap() < world.appeal(lo).unwrap() {
                lo = i;
            }
        }
        assert!(world.prefer_probability(hi, lo, 0.9) > 0.9);
        assert!(world.prefer_probability(lo, hi, 0.9) < 0.1);
        // Skill sharpens the choice.
        assert!(world.prefer_probability(hi, lo, 0.9) > world.prefer_probability(hi, lo, 0.0));
        // Equal images are a coin flip.
        assert!((world.prefer_probability(3, 3, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sessions_accumulate_comparisons() {
        let mut r = rng();
        let world = MatchinWorld::generate(&WorldConfig::small(), &mut r);
        let mut platform = Platform::new(PlatformConfig::default()).unwrap();
        let mut pop = PopulationBuilder::new(2)
            .mix(ArchetypeMix::all_honest())
            .build(&mut r);
        platform.register_player();
        platform.register_player();
        let mut ranking = BradleyTerryRanking::new(world.len());
        let t = play_matchin_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
            &mut ranking,
            &mut r,
        );
        assert!(t.rounds() > 0);
        assert!(ranking.comparisons() > 0.0);
        assert!(t.match_rate() > 0.4, "agreement rate {}", t.match_rate());
    }

    #[test]
    fn bt_fit_recovers_latent_order() {
        let mut r = rng();
        let mut cfg = WorldConfig::small();
        cfg.stimuli = 12;
        let world = MatchinWorld::generate(&cfg, &mut r);
        let mut ranking = BradleyTerryRanking::new(world.len());
        // Simulate many high-skill pairwise outcomes directly.
        for _ in 0..4000 {
            let a = r.gen_range(0..world.len());
            let mut b = r.gen_range(0..world.len());
            if a == b {
                b = (b + 1) % world.len();
            }
            if r.gen::<f64>() < world.prefer_probability(a, b, 0.95) {
                ranking.record(a, b);
            } else {
                ranking.record(b, a);
            }
        }
        let fitted = ranking.fit(60);
        let truth: Vec<f64> = (0..world.len()).map(|i| world.appeal(i).unwrap()).collect();
        let tau = BradleyTerryRanking::kendall_tau(&fitted, &truth);
        assert!(tau > 0.7, "Kendall tau {tau}");
    }

    #[test]
    fn kendall_tau_extremes() {
        assert_eq!(
            BradleyTerryRanking::kendall_tau(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]),
            1.0
        );
        assert_eq!(
            BradleyTerryRanking::kendall_tau(&[3.0, 2.0, 1.0], &[10.0, 20.0, 30.0]),
            -1.0
        );
        assert_eq!(BradleyTerryRanking::kendall_tau(&[1.0], &[5.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn kendall_tau_mismatched_lengths_panic() {
        let _ = BradleyTerryRanking::kendall_tau(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn record_rejects_out_of_range_and_self_pairs() {
        let mut b = BradleyTerryRanking::new(3);
        b.record(0, 0);
        b.record(5, 1);
        b.record(1, 5);
        assert_eq!(b.comparisons(), 0.0);
        b.record(2, 1);
        assert_eq!(b.comparisons(), 1.0);
    }

    #[test]
    fn empty_ranking_fit() {
        let b = BradleyTerryRanking::new(0);
        assert!(b.fit(10).is_empty());
    }
}
