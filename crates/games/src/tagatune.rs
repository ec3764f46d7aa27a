//! TagATune — input-agreement audio tagging.
//!
//! Two players each hear a clip that is either the same or different; they
//! exchange free-text descriptions and then vote *same*/*different*.
//! Correct votes validate the descriptions as tags. The mechanism's
//! signature property — the one experiment F8 sweeps — is that verdict
//! accuracy (and thus tag yield) depends on how *confusable* the two
//! clips are: clips with overlapping true-tag supports generate wrong
//! "same" votes.
//!
//! Sessions run on the shared session loop ([`params`](crate::params)),
//! and only on the serial campaign: a round validates tags on two clips,
//! while the sharded campaign's `PlayedRound` carries one task.

use crate::params::{trace_session, SessionParams, SessionPlay};
use crate::shard::plan_round;
use crate::world::{BaseWorld, WorldConfig};
use hc_core::prelude::*;
use hc_crowd::Population;
use rand::Rng;

/// Maximum descriptions per seat per round.
const MAX_DESCRIPTIONS: usize = 3;

/// Pause between rounds.
const INTER_ROUND_GAP: SimDuration = SimDuration::from_secs(2);

/// The TagATune clip world.
#[derive(Debug, Clone)]
pub struct TagATuneWorld {
    base: BaseWorld,
}

impl TagATuneWorld {
    /// Generates a world of audio clips.
    pub fn generate<R: Rng + ?Sized>(config: &WorldConfig, rng: &mut R) -> Self {
        TagATuneWorld {
            base: BaseWorld::generate(config, rng),
        }
    }

    /// Number of clips.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Registers every clip as a platform task (must run before gold
    /// tasks so ids mirror clip indices).
    pub fn register_tasks(&self, platform: &mut Platform) -> Vec<TaskId> {
        (0..self.base.len())
            .map(|i| platform.add_task(Stimulus::AudioClip(i as u64)))
            .collect()
    }

    /// Ground truth tags of a clip task.
    #[must_use]
    pub fn truth_for_task(&self, task: TaskId) -> Option<&hc_crowd::LabelDistribution> {
        self.base.truth(task.raw() as usize)
    }

    /// Whether `label` truly describes the clip behind `task`.
    #[must_use]
    pub fn is_correct(&self, task: TaskId, label: &Label) -> bool {
        self.base.is_correct(task.raw() as usize, label)
    }

    /// The shared vocabulary.
    #[must_use]
    pub fn vocabulary(&self) -> &hc_crowd::Vocabulary {
        &self.base.vocabulary
    }

    /// Calibrated same-probability an attentive listener would assign,
    /// given their own clip truth and the partner's descriptions: the
    /// fraction of partner labels that are true of *their own* clip,
    /// squashed away from certainty.
    #[must_use]
    pub fn same_evidence(own: &hc_crowd::LabelDistribution, partner_descriptions: &[Label]) -> f64 {
        if partner_descriptions.is_empty() {
            return 0.5; // no information
        }
        let matches = partner_descriptions
            .iter()
            .filter(|l| own.contains(l))
            .count();
        let frac = matches as f64 / partner_descriptions.len() as f64;
        0.08 + 0.84 * frac
    }
}

/// Drives one TagATune session; on each round the pair gets the same clip
/// with probability `p_same_round` (0.5 in the deployed game).
pub fn play_tagatune_session<R: Rng + ?Sized>(
    platform: &mut Platform,
    world: &TagATuneWorld,
    population: &mut Population,
    params: SessionParams,
    p_same_round: f64,
    rng: &mut R,
) -> SessionTranscript {
    let [left, right] = params.seats;
    let cfg = platform.config().session;
    let mut play = SessionPlay::begin(params, cfg, cfg.score_rule);
    while play.can_play_more() {
        let now = play.now();
        let Some(left_task) = plan_round(platform, &params.seats, rng).map(|p| p.task) else {
            break;
        };
        let same = rng.gen::<f64>() < p_same_round.clamp(0.0, 1.0);
        let right_task = if same {
            left_task
        } else {
            // Draw a distinct random clip for the right seat.
            let mut other = TaskId::new(rng.gen_range(0..world.len() as u64));
            if other == left_task {
                other = TaskId::new((other.raw() + 1) % world.len() as u64);
            }
            other
        };
        let (Some(truth_l), Some(truth_r)) = (
            world.truth_for_task(left_task),
            world.truth_for_task(right_task),
        ) else {
            break;
        };

        let mut round = InputAgreementRound::new(left_task, right_task, cfg.round_time_limit);
        let deadline = now + cfg.round_time_limit;
        let (pa, pb) = population
            .get_pair_mut(left, right)
            .expect("players exist and are distinct"); // hc-analyze: allow(P1): callers pass two distinct registered ids
        let mut profiles = [pa, pb];
        let truths = [truth_l, truth_r];
        let mut cursor = now;
        let empty_taboo = TabooList::new();

        // Description phase: seats alternate up to MAX_DESCRIPTIONS each.
        'desc: for turn in 0..(2 * MAX_DESCRIPTIONS) {
            let seat_idx = turn % 2;
            let profile = &mut profiles[seat_idx];
            let answer = profile.behavior.next_answer(
                truths[seat_idx],
                &world.base.vocabulary,
                &empty_taboo,
                rng,
            );
            let latency = profile.response.sample(
                match &answer {
                    Answer::Text(l) => Some(l),
                    _ => None,
                },
                rng,
            );
            cursor += latency;
            if cursor > deadline {
                break 'desc;
            }
            let seat = if seat_idx == 0 {
                Seat::Left
            } else {
                Seat::Right
            };
            if round.submit(seat, answer, cursor).is_terminal() {
                break 'desc;
            }
        }

        // Verdict phase.
        for seat_idx in 0..2 {
            let seat = if seat_idx == 0 {
                Seat::Left
            } else {
                Seat::Right
            };
            let evidence =
                TagATuneWorld::same_evidence(truths[seat_idx], round.partner_descriptions(seat));
            let profile = &mut profiles[seat_idx];
            let verdict = profile.behavior.verdict(evidence, profile.skill, rng);
            let latency = profile.response.sample(None, rng);
            cursor += latency;
            if cursor > deadline {
                break;
            }
            round.submit(seat, verdict, cursor);
        }

        let end = cursor.min(deadline);
        let result = round.finish(end);
        let matched = result.succeeded;
        let tags = result.validated_tags();
        let n_tags = tags.len() as u32;
        for (task, tag) in tags {
            // Validated tags flow through the same verification pipeline.
            let _ = platform.ingest_agreement(task, tag, left, right);
        }
        play.record(
            TemplateKind::InputAgreement,
            left_task,
            matched,
            n_tags,
            end.saturating_since(now),
            end + INTER_ROUND_GAP,
        );
    }
    let transcript = play.finish();
    platform.record_session(&transcript);
    trace_session("tagatune.session", &transcript);
    transcript
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_crowd::{ArchetypeMix, PopulationBuilder};
    use rand::SeedableRng;

    fn setup() -> (Platform, TagATuneWorld, Population, rand::rngs::StdRng) {
        let mut r = rand::rngs::StdRng::seed_from_u64(606);
        let world = TagATuneWorld::generate(&WorldConfig::small(), &mut r);
        let mut platform = Platform::new(PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        })
        .unwrap();
        world.register_tasks(&mut platform);
        let pop = PopulationBuilder::new(2)
            .mix(ArchetypeMix::all_honest())
            .skill_range(0.9, 0.99)
            .build(&mut r);
        platform.register_player();
        platform.register_player();
        (platform, world, pop, r)
    }

    #[test]
    fn honest_skilled_pairs_mostly_vote_correctly() {
        let (mut platform, world, mut pop, mut r) = setup();
        let mut matched = 0;
        let mut rounds = 0;
        for s in 0..8 {
            let t = play_tagatune_session(
                &mut platform,
                &world,
                &mut pop,
                SessionParams::pair(
                    PlayerId::new(0),
                    PlayerId::new(1),
                    SessionId::new(s),
                    SimTime::from_secs(s * 1000),
                ),
                0.5,
                &mut r,
            );
            matched += t.matched_count();
            rounds += t.rounds();
        }
        assert!(rounds > 0);
        let rate = matched as f64 / rounds as f64;
        assert!(rate > 0.6, "verdict success rate {rate}");
    }

    #[test]
    fn validated_tags_are_true_of_their_clips() {
        let (mut platform, world, mut pop, mut r) = setup();
        for s in 0..5 {
            play_tagatune_session(
                &mut platform,
                &world,
                &mut pop,
                SessionParams::pair(
                    PlayerId::new(0),
                    PlayerId::new(1),
                    SessionId::new(s),
                    SimTime::from_secs(s * 1000),
                ),
                0.5,
                &mut r,
            );
        }
        let verified = platform.verified_labels();
        assert!(!verified.is_empty(), "no tags were validated");
        let correct = verified
            .iter()
            .filter(|v| world.is_correct(v.task, &v.label))
            .count();
        // Honest players only describe truthfully; every validated tag is
        // correct.
        assert_eq!(correct, verified.len());
    }

    #[test]
    fn same_evidence_tracks_overlap() {
        let own =
            hc_crowd::LabelDistribution::uniform(vec![Label::new("piano"), Label::new("slow")])
                .unwrap();
        let e_none = TagATuneWorld::same_evidence(&own, &[]);
        assert!((e_none - 0.5).abs() < 1e-12);
        let e_hit = TagATuneWorld::same_evidence(&own, &[Label::new("piano")]);
        assert!(e_hit > 0.9);
        let e_miss = TagATuneWorld::same_evidence(&own, &[Label::new("drums")]);
        assert!(e_miss < 0.1);
        let e_half =
            TagATuneWorld::same_evidence(&own, &[Label::new("piano"), Label::new("drums")]);
        assert!((e_half - 0.5).abs() < 0.01);
    }

    #[test]
    fn different_rounds_use_distinct_tasks() {
        let (mut platform, world, mut pop, mut r) = setup();
        // p_same_round = 0: every round is a "different" round.
        let t = play_tagatune_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
            0.0,
            &mut r,
        );
        assert!(t.rounds() > 0);
    }

    #[test]
    fn world_accessors() {
        let mut r = rand::rngs::StdRng::seed_from_u64(1);
        let world = TagATuneWorld::generate(&WorldConfig::small(), &mut r);
        assert_eq!(world.len(), 50);
        assert!(!world.is_empty());
        assert!(world.truth_for_task(TaskId::new(0)).is_some());
        assert!(world.truth_for_task(TaskId::new(999)).is_none());
        assert!(!world.vocabulary().is_empty());
    }
}
