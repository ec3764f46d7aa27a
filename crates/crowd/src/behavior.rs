//! Player behaviour policies.
//!
//! Each [`Behavior`] maps what a player *could* know (the ground-truth
//! [`LabelDistribution`] of their stimulus, the global [`Vocabulary`], the
//! taboo list) to what they actually *do*. The archetypes cover the threat
//! and noise models the paper's verification mechanisms exist to absorb:
//!
//! | Archetype | Model of |
//! |---|---|
//! | `Honest` | an attentive player; samples the truth distribution |
//! | `Noisy(e)` | attention lapses; with probability `e` emits a Zipf-random label |
//! | `Lazy(p)` | passes with probability `p` per prompt, honest otherwise |
//! | `Random` | a player mashing keys: uniform vocabulary noise |
//! | `Colluder` | the "always type X" out-of-band agreement attack |
//! | `Spammer` | a bot cycling a tiny fixed label set |
//!
//! The same policy answers verdict prompts (input-agreement) and guess
//! prompts (inversion), with skill-scaled accuracy.

use crate::vocabulary::{LabelDistribution, Vocabulary};
use hc_core::{Answer, Label};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A player's answer policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Behavior {
    /// Always samples the ground-truth distribution.
    Honest,
    /// With probability `error_rate`, emits an unrelated popular label.
    Noisy {
        /// Probability of an attention lapse per answer.
        error_rate: f64,
    },
    /// With probability `pass_rate`, passes; otherwise honest.
    Lazy {
        /// Probability of passing per prompt.
        pass_rate: f64,
    },
    /// Uniform noise over the vocabulary.
    Random,
    /// Always answers the pre-agreed token (collusion attack).
    Colluder {
        /// The out-of-band agreed label.
        strategy_label: Label,
    },
    /// Cycles a small fixed label set (spam bot).
    Spammer {
        /// The labels the bot cycles through.
        labels: Vec<Label>,
        /// Internal cycle position.
        cursor: usize,
    },
}

impl Behavior {
    /// A spammer over the given labels.
    #[must_use]
    pub fn spammer<I: IntoIterator<Item = Label>>(labels: I) -> Behavior {
        Behavior::Spammer {
            labels: labels.into_iter().collect(),
            cursor: 0,
        }
    }

    /// Short archetype name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Behavior::Honest => "honest",
            Behavior::Noisy { .. } => "noisy",
            Behavior::Lazy { .. } => "lazy",
            Behavior::Random => "random",
            Behavior::Colluder { .. } => "colluder",
            Behavior::Spammer { .. } => "spammer",
        }
    }

    /// `true` for behaviours that model deliberate attacks.
    #[must_use]
    pub fn is_adversarial(&self) -> bool {
        matches!(self, Behavior::Colluder { .. } | Behavior::Spammer { .. })
    }

    /// Produces the next free-text answer (or pass) for a stimulus whose
    /// ground truth is `truth`, avoiding `taboo` labels where the policy
    /// cares to (honest players respect the taboo list; attackers don't
    /// bother checking).
    pub fn next_answer<R: Rng + ?Sized>(
        &mut self,
        truth: &LabelDistribution,
        vocab: &Vocabulary,
        taboo: &hc_core::TabooList,
        rng: &mut R,
    ) -> Answer {
        match self {
            Behavior::Honest => honest_answer(truth, taboo, rng),
            Behavior::Noisy { error_rate } => {
                if rng.gen::<f64>() < *error_rate {
                    Answer::Text(vocab.sample(rng))
                } else {
                    honest_answer(truth, taboo, rng)
                }
            }
            Behavior::Lazy { pass_rate } => {
                if rng.gen::<f64>() < *pass_rate {
                    Answer::Pass
                } else {
                    honest_answer(truth, taboo, rng)
                }
            }
            Behavior::Random => Answer::Text(vocab.sample_uniform(rng)),
            Behavior::Colluder { strategy_label } => Answer::Text(strategy_label.clone()),
            Behavior::Spammer { labels, cursor } => spammer_answer(labels, cursor),
        }
    }

    /// Produces a same/different verdict given the evidence strength
    /// `p_same` (the probability a perfectly calibrated observer would
    /// assign to "same") and the player's `skill` in `[0, 1]`.
    ///
    /// Honest-family players answer with the calibrated verdict but flip it
    /// with probability `(1 - skill) / 2`; random/adversarial players
    /// guess.
    pub fn verdict<R: Rng + ?Sized>(&mut self, p_same: f64, skill: f64, rng: &mut R) -> Answer {
        let calibrated = p_same >= 0.5;
        match self {
            Behavior::Honest | Behavior::Noisy { .. } | Behavior::Lazy { .. } => {
                let flip_p = (1.0 - skill.clamp(0.0, 1.0)) / 2.0;
                let decision = if rng.gen::<f64>() < flip_p {
                    !calibrated
                } else {
                    calibrated
                };
                Answer::verdict(decision)
            }
            Behavior::Random | Behavior::Colluder { .. } | Behavior::Spammer { .. } => {
                Answer::verdict(rng.gen::<f64>() < 0.5)
            }
        }
    }

    /// Produces a guess for an inversion round from the hint-implied
    /// candidate distribution. `candidates` is what the hints so far point
    /// at; with probability `skill` the player picks from it, otherwise
    /// they emit vocabulary noise.
    pub fn guess<R: Rng + ?Sized>(
        &mut self,
        candidates: &LabelDistribution,
        vocab: &Vocabulary,
        skill: f64,
        rng: &mut R,
    ) -> Answer {
        match self {
            Behavior::Random => Answer::Text(vocab.sample_uniform(rng)),
            Behavior::Colluder { strategy_label } => Answer::Text(strategy_label.clone()),
            Behavior::Spammer { labels, cursor } => spammer_answer(labels, cursor),
            _ => {
                if rng.gen::<f64>() < skill.clamp(0.0, 1.0) {
                    Answer::Text(candidates.sample(rng))
                } else {
                    Answer::Text(vocab.sample(rng))
                }
            }
        }
    }
}

/// The spam bot's next label in its cycle, or a pass when it has none.
fn spammer_answer(labels: &[Label], cursor: &mut usize) -> Answer {
    if labels.is_empty() {
        return Answer::Pass;
    }
    let l = labels[*cursor % labels.len()].clone();
    *cursor += 1;
    Answer::Text(l)
}

/// Honest players see the taboo list and avoid it: up to 8 draws from the
/// truth, keeping the first that is not taboo; after 8 rejections, the
/// first non-taboo label in support order, or a pass when the whole
/// support is taboo.
///
/// RNG contract: one `DiscreteDist::sample` per attempt, at most 8,
/// stopping at the first non-taboo label, and no other draw: the draws of
/// the rejection loop the tests keep as the oracle, so every stream after
/// an answer (and every result byte) is what that loop left.
///
/// In a world near capacity most answers find every truth label taboo.
/// Then no draw can land and only their RNG use is owed: a `sample_index`
/// is one `rng.gen::<f64>()` plus a CDF search, so 8 bare `f64` draws
/// leave the stream where the loop's 8 rejected draws leave it. Otherwise
/// each label's taboo status is looked up into a mask, a draw only reads
/// its flag, and only the returned label is cloned.
fn honest_answer<R: Rng + ?Sized>(
    truth: &LabelDistribution,
    taboo: &hc_core::TabooList,
    rng: &mut R,
) -> Answer {
    let labels = truth.labels();
    let Some(first_free) = labels.iter().position(|l| !taboo.contains(l)) else {
        for _ in 0..8 {
            rng.gen::<f64>();
        }
        return Answer::Pass;
    };
    let free: Vec<bool> = labels.iter().map(|l| !taboo.contains(l)).collect();
    let pick = (0..8)
        .map(|_| truth.sample_index(rng))
        .find(|&i| free[i])
        .unwrap_or(first_free);
    Answer::Text(labels[pick].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::TabooList;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    fn truth() -> LabelDistribution {
        LabelDistribution::new(vec![
            (Label::new("dog"), 0.6),
            (Label::new("grass"), 0.3),
            (Label::new("ball"), 0.1),
        ])
        .unwrap()
    }

    fn vocab() -> Vocabulary {
        Vocabulary::new(100, 1.0)
    }

    #[test]
    fn honest_answers_come_from_truth() {
        let mut b = Behavior::Honest;
        let (t, v) = (truth(), vocab());
        let mut r = rng();
        for _ in 0..100 {
            match b.next_answer(&t, &v, &TabooList::new(), &mut r) {
                Answer::Text(l) => assert!(t.contains(&l)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn honest_respects_taboo() {
        let mut b = Behavior::Honest;
        let (t, v) = (truth(), vocab());
        let taboo = TabooList::from_labels([Label::new("dog")]);
        let mut r = rng();
        for _ in 0..100 {
            if let Answer::Text(l) = b.next_answer(&t, &v, &taboo, &mut r) {
                assert_ne!(l, Label::new("dog"));
            }
        }
    }

    #[test]
    fn honest_passes_when_everything_is_taboo() {
        let mut b = Behavior::Honest;
        let (t, v) = (truth(), vocab());
        let taboo =
            TabooList::from_labels([Label::new("dog"), Label::new("grass"), Label::new("ball")]);
        let (mut r, mut expected) = (rng(), rng());
        assert_eq!(b.next_answer(&t, &v, &taboo, &mut r), Answer::Pass);
        // ... after exactly the 8 rejected draws.
        for _ in 0..8 {
            t.sample(&mut expected);
        }
        assert_eq!(r.next_u64(), expected.next_u64());
    }

    /// The rejection loop `honest_answer` replaced, kept as its oracle: it
    /// clones and looks up every drawn label.
    fn reference_honest_answer<R: Rng + ?Sized>(
        truth: &LabelDistribution,
        taboo: &TabooList,
        rng: &mut R,
    ) -> Answer {
        for _ in 0..8 {
            let l = truth.sample(rng);
            if !taboo.contains(&l) {
                return Answer::Text(l);
            }
        }
        if truth.labels().iter().all(|l| taboo.contains(l)) {
            Answer::Pass
        } else {
            truth
                .labels()
                .iter()
                .find(|l| !taboo.contains(l))
                .map(|l| Answer::Text(l.clone()))
                .unwrap_or(Answer::Pass)
        }
    }

    /// `Behavior::next_answer` for the honest family, over the oracle loop.
    fn reference_next_answer<R: Rng + ?Sized>(
        behavior: &Behavior,
        truth: &LabelDistribution,
        vocab: &Vocabulary,
        taboo: &TabooList,
        rng: &mut R,
    ) -> Answer {
        match behavior {
            Behavior::Honest => reference_honest_answer(truth, taboo, rng),
            Behavior::Noisy { error_rate } => {
                if rng.gen::<f64>() < *error_rate {
                    Answer::Text(vocab.sample(rng))
                } else {
                    reference_honest_answer(truth, taboo, rng)
                }
            }
            Behavior::Lazy { pass_rate } => {
                if rng.gen::<f64>() < *pass_rate {
                    Answer::Pass
                } else {
                    reference_honest_answer(truth, taboo, rng)
                }
            }
            other => panic!("not an honest-family behaviour: {other:?}"),
        }
    }

    /// Support labels are drawn from the front of the pool; the rest are
    /// taboo words outside every support.
    const POOL: [&str; 12] = [
        "dog", "grass", "ball", "sky", "tree", "car", "house", "cat", "river", "moon", "road",
        "lamp",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn honest_family_matches_the_reference_loop(
            raw_weights in prop::collection::vec(0.0f64..1.0, 1..=8),
            taboo_kind in 0u8..4,
            mask in any::<u16>(),
            seed in any::<u64>(),
            kind in 0u8..3,
            rate in 0.0f64..1.0,
        ) {
            // Some zero weights: labels the draws never reach but the
            // fallback can still return.
            let weights: Vec<f64> = raw_weights
                .iter()
                .map(|&w| if w < 0.15 { 0.0 } else { w })
                .collect();
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let support: Vec<Label> = POOL[..weights.len()].iter().map(|w| Label::new(w)).collect();
            let truth = LabelDistribution::new(
                support.iter().cloned().zip(weights.iter().copied()).collect(),
            )
            .unwrap();
            let outside = POOL[8..].iter().map(|w| Label::new(w));
            let taboo = match taboo_kind {
                0 => TabooList::new(),
                1 => TabooList::from_labels(support.iter().cloned()),
                2 => TabooList::from_labels(
                    POOL.iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, w)| Label::new(w)),
                ),
                _ => TabooList::from_labels(support.iter().cloned().chain(outside)),
            };
            let behavior = match kind {
                0 => Behavior::Honest,
                1 => Behavior::Noisy { error_rate: rate },
                _ => Behavior::Lazy { pass_rate: rate },
            };
            let v = vocab();
            let mut b = behavior.clone();
            let (mut fast, mut slow) = (
                rand::rngs::StdRng::seed_from_u64(seed),
                rand::rngs::StdRng::seed_from_u64(seed),
            );
            for _ in 0..4 {
                let got = b.next_answer(&truth, &v, &taboo, &mut fast);
                let want = reference_next_answer(&behavior, &truth, &v, &taboo, &mut slow);
                prop_assert_eq!(got, want);
                prop_assert_eq!(fast.next_u64(), slow.next_u64());
            }
        }
    }

    #[test]
    fn noisy_error_rate_shows_up() {
        let mut b = Behavior::Noisy { error_rate: 0.5 };
        let (t, v) = (truth(), vocab());
        let mut r = rng();
        let n = 2000;
        let off_truth = (0..n)
            .filter(|_| match b.next_answer(&t, &v, &TabooList::new(), &mut r) {
                Answer::Text(l) => !t.contains(&l),
                _ => false,
            })
            .count();
        let frac = off_truth as f64 / n as f64;
        // Half the answers are vocab noise; a tiny share of noise draws can
        // collide with truth labels so allow slack.
        assert!((0.35..0.6).contains(&frac), "off-truth frac {frac}");
    }

    #[test]
    fn lazy_passes_at_rate() {
        let mut b = Behavior::Lazy { pass_rate: 0.3 };
        let (t, v) = (truth(), vocab());
        let mut r = rng();
        let n = 2000;
        let passes = (0..n)
            .filter(|_| {
                matches!(
                    b.next_answer(&t, &v, &TabooList::new(), &mut r),
                    Answer::Pass
                )
            })
            .count();
        assert!((passes as f64 / n as f64 - 0.3).abs() < 0.05);
    }

    #[test]
    fn colluder_always_answers_strategy() {
        let mut b = Behavior::Colluder {
            strategy_label: Label::new("zzz"),
        };
        let (t, v) = (truth(), vocab());
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(
                b.next_answer(&t, &v, &TabooList::new(), &mut r),
                Answer::Text(Label::new("zzz"))
            );
        }
        assert!(b.is_adversarial());
    }

    #[test]
    fn spammer_cycles_labels() {
        let mut b = Behavior::spammer([Label::new("a"), Label::new("b")]);
        let (t, v) = (truth(), vocab());
        let mut r = rng();
        let a1 = b.next_answer(&t, &v, &TabooList::new(), &mut r);
        let a2 = b.next_answer(&t, &v, &TabooList::new(), &mut r);
        let a3 = b.next_answer(&t, &v, &TabooList::new(), &mut r);
        assert_eq!(a1, Answer::Text(Label::new("a")));
        assert_eq!(a2, Answer::Text(Label::new("b")));
        assert_eq!(a3, Answer::Text(Label::new("a")));
        let mut empty = Behavior::spammer([]);
        assert_eq!(
            empty.next_answer(&t, &v, &TabooList::new(), &mut r),
            Answer::Pass
        );
    }

    #[test]
    fn verdict_accuracy_scales_with_skill() {
        let mut b = Behavior::Honest;
        let mut r = rng();
        let n = 4000;
        let correct_hi = (0..n)
            .filter(|_| b.verdict(0.9, 1.0, &mut r) == Answer::verdict(true))
            .count();
        let correct_lo = (0..n)
            .filter(|_| b.verdict(0.9, 0.2, &mut r) == Answer::verdict(true))
            .count();
        assert_eq!(correct_hi, n, "perfect skill never flips");
        let lo_rate = correct_lo as f64 / n as f64;
        assert!(
            (lo_rate - 0.6).abs() < 0.05,
            "skill 0.2 flips 40%: {lo_rate}"
        );
    }

    #[test]
    fn random_verdicts_are_coin_flips() {
        let mut b = Behavior::Random;
        let mut r = rng();
        let n = 4000;
        let same = (0..n)
            .filter(|_| b.verdict(1.0, 1.0, &mut r) == Answer::verdict(true))
            .count();
        assert!((same as f64 / n as f64 - 0.5).abs() < 0.05);
    }

    #[test]
    fn guess_uses_candidates_at_high_skill() {
        let mut b = Behavior::Honest;
        let v = vocab();
        let candidates =
            LabelDistribution::uniform(vec![Label::new("milk"), Label::new("cream")]).unwrap();
        let mut r = rng();
        for _ in 0..50 {
            if let Answer::Text(l) = b.guess(&candidates, &v, 1.0, &mut r) {
                assert!(candidates.contains(&l));
            }
        }
    }

    #[test]
    fn names_cover_archetypes() {
        assert_eq!(Behavior::Honest.name(), "honest");
        assert_eq!(Behavior::Noisy { error_rate: 0.1 }.name(), "noisy");
        assert_eq!(Behavior::Lazy { pass_rate: 0.1 }.name(), "lazy");
        assert_eq!(Behavior::Random.name(), "random");
        assert_eq!(
            Behavior::Colluder {
                strategy_label: Label::new("x")
            }
            .name(),
            "colluder"
        );
        assert_eq!(Behavior::spammer([]).name(), "spammer");
        assert!(!Behavior::Honest.is_adversarial());
    }
}
