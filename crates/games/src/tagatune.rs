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
//! [`TagATuneDriver`] (the clip world plus its same-clip probability) is
//! the game on both campaign engines. Its [`SessionDriver`] round plays on
//! the shared session loop ([`params`](crate::params)): the serial
//! [`play_session`](crate::params::play_session) plans each round's left
//! clip just before it, the sharded campaign's hub plans them up front,
//! and the round draws the right clip. Each validated tag carries its
//! own clip, so a round's agreements reach the platform through
//! `shard::apply_round` like every other game's.

use crate::params::{SessionDriver, SessionPlay};
use crate::shard::{play_planned, PlannedRound, PlayedRound, PlayedSession, SessionJob, ShardGame};
use crate::world::{verified_precision, BaseWorld, WorldConfig};
use hc_core::prelude::*;
use hc_crowd::PlayerProfile;
use hc_sim::SimRng;
use rand::Rng;

/// Maximum descriptions per seat per round.
const MAX_DESCRIPTIONS: usize = 3;

/// The seats in index order.
const SEATS: [Seat; 2] = [Seat::Left, Seat::Right];

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

/// TagATune as a game on both campaign engines: the clip world plus the
/// probability that a round shows both seats the same clip. It has no
/// solo mode (timed-out waiters give up and return at a later sitting).
#[derive(Debug)]
pub struct TagATuneDriver {
    /// The clip world.
    pub world: TagATuneWorld,
    /// Probability a round shows both seats the same clip.
    pub p_same: f64,
}

impl TagATuneDriver {
    /// Generates a driver with a fresh world.
    pub fn generate<R: Rng + ?Sized>(config: &WorldConfig, p_same: f64, rng: &mut R) -> Self {
        TagATuneDriver {
            world: TagATuneWorld::generate(config, rng),
            p_same,
        }
    }
}

/// The hub plans each round's left clip; the shard draws same/different
/// and the right clip from the session's own RNG stream.
impl ShardGame for TagATuneDriver {
    fn register(&self, platform: &mut Platform) {
        self.world.register_tasks(platform);
    }

    fn play(
        &self,
        job: &mut SessionJob,
        cfg: SessionConfig,
        rule: ScoreRule,
        rng: &mut SimRng,
    ) -> PlayedSession {
        play_planned(self, job, cfg, rule, rng)
    }

    fn precision(&self, platform: &Platform) -> (usize, usize) {
        verified_precision(platform, |task, label| self.world.is_correct(task, label))
    }

    fn name(&self) -> &'static str {
        "tagatune"
    }
}

/// Rounds on two live seats; there is no solo mode.
impl SessionDriver for TagATuneDriver {
    /// Plays one round on the left seat's planned clip. The right seat
    /// hears the same clip with probability `p_same`, otherwise a distinct
    /// random one. The seats describe their clips in turn (up to
    /// `MAX_DESCRIPTIONS` each), then vote same/different; correct votes
    /// validate each seat's descriptions as tags of its own clip. `None`
    /// without a right seat or when the world does not know either clip.
    fn play_round<R: Rng + ?Sized>(
        &self,
        play: &mut SessionPlay,
        planned: PlannedRound,
        left: &mut PlayerProfile,
        right: Option<&mut PlayerProfile>,
        rng: &mut R,
    ) -> Option<PlayedRound> {
        let mut profiles = [left, right?];
        let (world, left_task) = (&self.world, planned.task);
        let same = rng.gen::<f64>() < self.p_same.clamp(0.0, 1.0);
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
        let truths = [
            world.truth_for_task(left_task)?,
            world.truth_for_task(right_task)?,
        ];
        let (now, limit) = (play.now(), play.round_limit());
        let mut round = InputAgreementRound::new(left_task, right_task, limit);
        let deadline = now + limit;
        let mut cursor = now;
        let empty_taboo = TabooList::new();

        // Description phase: seats alternate up to MAX_DESCRIPTIONS each.
        for turn in 0..(2 * MAX_DESCRIPTIONS) {
            let seat_idx = turn % 2;
            let profile = &mut profiles[seat_idx];
            let answer = profile.behavior.next_answer(
                truths[seat_idx],
                &world.base.vocabulary,
                &empty_taboo,
                rng,
            );
            cursor += profile.response.sample(answer.as_text(), rng);
            if cursor > deadline || round.submit(SEATS[seat_idx], answer, cursor).is_terminal() {
                break;
            }
        }

        // Verdict phase.
        for (seat_idx, seat) in SEATS.into_iter().enumerate() {
            let evidence =
                TagATuneWorld::same_evidence(truths[seat_idx], round.partner_descriptions(seat));
            let profile = &mut profiles[seat_idx];
            let verdict = profile.behavior.verdict(evidence, profile.skill, rng);
            cursor += profile.response.sample(None, rng);
            if cursor > deadline {
                break;
            }
            round.submit(seat, verdict, cursor);
        }

        let end = cursor.min(deadline);
        let result = round.finish(end);
        let [left, right] = profiles.map(|p| p.id);
        // Validated tags flow through the same verification pipeline.
        let agreements: Vec<_> = result
            .validated_tags()
            .into_iter()
            .map(|(task, tag)| (task, tag, left, right))
            .collect();
        play.record(
            TemplateKind::InputAgreement,
            left_task,
            result.succeeded,
            agreements.len() as u32,
            end.saturating_since(now),
            end + INTER_ROUND_GAP,
        );
        Some(PlayedRound {
            agreements,
            recording: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{play_session, SessionParams};
    use hc_crowd::{ArchetypeMix, Population, PopulationBuilder};
    use rand::SeedableRng;

    fn setup(p_same: f64) -> (Platform, TagATuneDriver, Population, rand::rngs::StdRng) {
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
        (platform, TagATuneDriver { world, p_same }, pop, r)
    }

    #[test]
    fn honest_skilled_pairs_mostly_vote_correctly() {
        let (mut platform, driver, mut pop, mut r) = setup(0.5);
        let mut matched = 0;
        let mut rounds = 0;
        for s in 0..8 {
            let t = play_session(
                &mut platform,
                &driver,
                &mut pop,
                SessionParams::pair(
                    PlayerId::new(0),
                    PlayerId::new(1),
                    SessionId::new(s),
                    SimTime::from_secs(s * 1000),
                ),
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
        let (mut platform, driver, mut pop, mut r) = setup(0.5);
        for s in 0..5 {
            play_session(
                &mut platform,
                &driver,
                &mut pop,
                SessionParams::pair(
                    PlayerId::new(0),
                    PlayerId::new(1),
                    SessionId::new(s),
                    SimTime::from_secs(s * 1000),
                ),
                &mut r,
            );
        }
        let verified = platform.verified_labels();
        assert!(!verified.is_empty(), "no tags were validated");
        let correct = verified
            .iter()
            .filter(|v| driver.world.is_correct(v.task, &v.label))
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
        // p_same = 0: every round is a "different" round.
        let (mut platform, driver, mut pop, mut r) = setup(0.0);
        let t = play_session(
            &mut platform,
            &driver,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
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
