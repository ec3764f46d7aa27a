//! The ESP Game — output-agreement image labeling.
//!
//! The canonical GWAP: two strangers see the same image, type labels, and
//! score when they agree; agreed labels become image metadata. This module
//! provides two layers:
//!
//! 1. [`EspWorld`] — the image world (stimulus truths + task registration).
//! 2. Its [`SessionDriver`] round: the left seat is a live player; the
//!    right seat is either a second live player or the planned recording
//!    replaying at its recorded offsets (no recording seeds one). Play a
//!    whole session with [`play_session`](crate::params::play_session):
//!    a pair of seats plays live, equal seats play against replays.
//!
//! The world is also the game on both campaign engines: the serial
//! [`Campaign`](crate::campaign::Campaign) plays its sessions with
//! `play_session` and rescues timed-out waiters with replay sessions,
//! and the sharded campaign plays hub-planned rounds with the same round
//! ([`ShardGame`]). That is the machinery behind experiments T1 and
//! F3–F6: Poisson player sittings, random matching, replay-bot fallback
//! and engagement-driven return visits.

use crate::params::{SessionDriver, SessionPlay};
use crate::shard::{
    plan_rounds, play_planned, PlannedRound, PlayedRound, PlayedSession, SessionJob, ShardGame,
};
use crate::world::{BaseWorld, WorldConfig};
use hc_core::prelude::*;
use hc_crowd::{LabelDistribution, PlayerProfile};
use hc_sim::SimRng;
use rand::Rng;

/// Maximum answers one seat may produce in one round — the published ESP
/// interface shows players typing on the order of a dozen guesses per
/// image before passing or timing out.
const MAX_GUESSES_PER_SEAT: usize = 15;

/// Pause between rounds within a session (next image loads).
const INTER_ROUND_GAP: SimDuration = SimDuration::from_secs(2);

/// The ESP image world.
#[derive(Debug, Clone)]
pub struct EspWorld {
    base: BaseWorld,
}

impl EspWorld {
    /// Generates a world.
    pub fn generate<R: Rng + ?Sized>(config: &WorldConfig, rng: &mut R) -> Self {
        EspWorld {
            base: BaseWorld::generate(config, rng),
        }
    }

    /// Number of images.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// `true` when the world has no images.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Registers every image as a platform task. **Must be called before
    /// any gold tasks are added** so that task ids equal stimulus indices.
    pub fn register_tasks(&self, platform: &mut Platform) -> Vec<TaskId> {
        (0..self.base.len())
            .map(|i| platform.add_task(Stimulus::Image(i as u64)))
            .collect()
    }

    /// Registers `count` *additional* gold tasks whose accepted answers
    /// are the truth labels of freshly sampled stimuli (appended to the
    /// world), returning their task ids.
    pub fn register_gold_tasks<R: Rng + ?Sized>(
        &mut self,
        platform: &mut Platform,
        config: &WorldConfig,
        count: usize,
        rng: &mut R,
    ) -> Vec<TaskId> {
        (0..count)
            .map(|_| {
                let truth = crate::world::sample_stimulus_truth(config, &self.base.vocabulary, rng);
                let accepted: Vec<Label> = truth.labels().to_vec();
                let stim = self.base.truths.len() as u64;
                self.base.truths.push(truth);
                platform.add_gold_task(Stimulus::Image(stim), accepted)
            })
            .collect()
    }

    /// Ground truth for a task (valid because task ids mirror stimulus
    /// indices — see [`EspWorld::register_tasks`]).
    #[must_use]
    pub fn truth_for_task(&self, task: TaskId) -> Option<&hc_crowd::LabelDistribution> {
        self.base.truth(task.raw() as usize)
    }

    /// Whether a verified label is actually true of its image.
    #[must_use]
    pub fn is_correct(&self, task: TaskId, label: &Label) -> bool {
        self.base.is_correct(task.raw() as usize, label)
    }

    /// The shared vocabulary.
    #[must_use]
    pub fn vocabulary(&self) -> &hc_crowd::Vocabulary {
        &self.base.vocabulary
    }

    /// Precision of the platform's verified labels against this world.
    /// Returns `(correct, total)`.
    #[must_use]
    pub fn verified_precision(&self, platform: &Platform) -> (usize, usize) {
        crate::world::verified_precision(platform, |task, label| self.is_correct(task, label))
    }
}

/// Live output-agreement sessions plus replay-bot solo rescue, planned on
/// the hub and played purely on the shards.
impl ShardGame for EspWorld {
    fn register(&self, platform: &mut Platform) {
        self.register_tasks(platform);
    }

    fn plan_solo(
        &self,
        platform: &mut Platform,
        player: PlayerId,
        rng: &mut SimRng,
    ) -> Option<Vec<PlannedRound>> {
        Some(plan_rounds(platform, &[player], rng))
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
        self.verified_precision(platform)
    }

    fn name(&self) -> &'static str {
        "esp"
    }
}

/// One seat of an ESP round: a live player who draws each answer on its
/// turn, or a recorded partner whose answers replay at fixed times.
enum EspSeat<'p> {
    Live {
        profile: &'p mut PlayerProfile,
        /// Time of the seat's last answer (the round start before any).
        cursor: SimTime,
        guesses_left: usize,
    },
    /// Recorded answers, latest first: `pop` is chronological.
    Recorded(Vec<(SimTime, Label)>),
}

impl EspSeat<'_> {
    fn live(profile: &mut PlayerProfile, now: SimTime) -> EspSeat<'_> {
        EspSeat::Live {
            profile,
            cursor: now,
            guesses_left: MAX_GUESSES_PER_SEAT,
        }
    }

    /// When the seat moves next: a live seat's last answer time (its think
    /// time is drawn on its turn), a recording's next answer time, or
    /// `SimTime::MAX` once the seat has nothing left to say.
    fn next_at(&self) -> SimTime {
        match self {
            EspSeat::Live {
                cursor,
                guesses_left: 1..,
                ..
            } => *cursor,
            EspSeat::Live { .. } => SimTime::MAX,
            EspSeat::Recorded(events) => events.last().map_or(SimTime::MAX, |(t, _)| *t),
        }
    }

    /// The seat's next answer and when it lands. Call only while
    /// [`next_at`](Self::next_at) is before `SimTime::MAX`.
    fn answer<R: Rng + ?Sized>(
        &mut self,
        world: &EspWorld,
        truth: &LabelDistribution,
        taboo: &TabooList,
        rng: &mut R,
    ) -> (SimTime, Answer) {
        match self {
            EspSeat::Live {
                profile,
                cursor,
                guesses_left,
            } => {
                let answer = profile
                    .behavior
                    .next_answer(truth, world.vocabulary(), taboo, rng);
                *cursor += profile.response.sample(answer.as_text(), rng);
                *guesses_left -= 1;
                (*cursor, answer)
            }
            EspSeat::Recorded(events) => {
                #[expect(
                    clippy::expect_used,
                    reason = "called only while next_at found an event"
                )]
                let (at, label) = events.pop().expect("a recorded answer is due");
                (at, Answer::Text(label))
            }
        }
    }
}

/// Live sessions, and replay sessions for waiters who time out.
impl SessionDriver for EspWorld {
    const SOLO_MODE: bool = true;

    /// Plays one ESP round: the seat whose next answer comes first types
    /// it (the left seat on ties), until the seats agree, both pass, both
    /// run out of answers or the round times out. The left seat is a live
    /// player. The right seat is the live `right` player, or without one
    /// the planned recording replaying at its recorded offsets; without a
    /// recording either the round only seeds one (nothing can be
    /// verified). The left seat's answers are kept for future replays.
    fn play_round<R: Rng + ?Sized>(
        &self,
        play: &mut SessionPlay,
        planned: PlannedRound,
        left: &mut PlayerProfile,
        right: Option<&mut PlayerProfile>,
        rng: &mut R,
    ) -> Option<PlayedRound> {
        let truth = self.truth_for_task(planned.task)?;
        let PlannedRound {
            task,
            taboo,
            recording,
        } = planned;
        let (now, limit) = (play.now(), play.round_limit());
        let deadline = now + limit;
        let player = left.id;
        let (partner, right) = match right {
            Some(profile) => (Some(profile.id), EspSeat::live(profile, now)),
            None => {
                let partner = recording.as_ref().map(|r| r.recorded_player);
                let mut events: Vec<(SimTime, Label)> = recording
                    .map(|r| r.events.into_iter().map(|(d, l)| (now + d, l)).collect())
                    .unwrap_or_default();
                events.reverse();
                (partner, EspSeat::Recorded(events))
            }
        };
        let mut seats = [EspSeat::live(left, now), right];
        let mut round = OutputAgreementRound::new(task, taboo, limit);
        let mut trace: Vec<(SimDuration, Label)> = Vec::new();
        let mut matched_label: Option<Label> = None;

        // The loop's value is the time the round ends.
        let end = loop {
            let due = [seats[0].next_at(), seats[1].next_at()];
            if due == [SimTime::MAX; 2] {
                break deadline; // both seats are out of answers
            }
            let (idx, seat) = if due[0] <= due[1] {
                (0, Seat::Left)
            } else {
                (1, Seat::Right)
            };
            let (at, answer) = seats[idx].answer(self, truth, round.taboo(), rng);
            if at > deadline {
                break deadline;
            }
            if seat == Seat::Left {
                if let Answer::Text(l) = &answer {
                    trace.push((at.saturating_since(now), l.clone()));
                }
            }
            match round.submit(seat, answer, at) {
                SubmitOutcome::Matched(label) => {
                    matched_label = label;
                    break at;
                }
                SubmitOutcome::BothPassed => break at,
                SubmitOutcome::RoundOver => break deadline,
                _ => {}
            }
        };

        let result = round.finish(end);
        let matched = result.is_match();
        let agreements = matched_label
            .or(result.agreed_label)
            .zip(partner)
            .map(|(label, partner)| (task, label, player, partner))
            .into_iter()
            .collect();
        let recording = (!trace.is_empty()).then(|| RecordedRound::new(task, player, trace));
        let duration = end.saturating_since(now);
        play.record(
            TemplateKind::OutputAgreement,
            task,
            matched,
            u32::from(matched),
            duration,
            end + INTER_ROUND_GAP,
        );
        Some(PlayedRound {
            agreements,
            recording,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{play_session, SessionParams};
    use hc_crowd::{ArchetypeMix, Population, PopulationBuilder};
    use hc_sim::SimRng;
    use rand::SeedableRng;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(404)
    }

    fn setup(players: usize, mix: ArchetypeMix) -> (Platform, EspWorld, Population, SimRng) {
        let mut r = rng();
        let world = EspWorld::generate(&WorldConfig::small(), &mut r);
        let mut platform = Platform::new(PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        })
        .unwrap();
        world.register_tasks(&mut platform);
        let pop = PopulationBuilder::new(players).mix(mix).build(&mut r);
        for _ in 0..players {
            platform.register_player();
        }
        (platform, world, pop, r)
    }

    #[test]
    fn honest_pairs_match_and_verify() {
        let (mut platform, world, mut pop, mut r) = setup(2, ArchetypeMix::all_honest());
        let t = play_session(
            &mut platform,
            &world,
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
        assert!(t.match_rate() > 0.5, "honest match rate {}", t.match_rate());
        assert!(!platform.verified_labels().is_empty());
        // All verified labels are true of their images.
        let (correct, total) = world.verified_precision(&platform);
        assert_eq!(correct, total);
    }

    #[test]
    fn random_players_rarely_match() {
        // A realistic (large) vocabulary: random typing almost never
        // collides across seats within a round's guess budget.
        let mut r = rng();
        let mut cfg = WorldConfig::small();
        cfg.vocabulary = 5_000;
        let world = EspWorld::generate(&cfg, &mut r);
        let mut platform = Platform::new(PlatformConfig {
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        })
        .unwrap();
        world.register_tasks(&mut platform);
        let mut pop = PopulationBuilder::new(2)
            .mix(ArchetypeMix::custom().with(hc_crowd::Behavior::Random, 1.0))
            .build(&mut r);
        platform.register_player();
        platform.register_player();
        let mut matched = 0;
        let mut rounds = 0;
        for s in 0..6 {
            let t = play_session(
                &mut platform,
                &world,
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
        let rate = matched as f64 / rounds.max(1) as f64;
        assert!(rate < 0.3, "random players matched {rate}");
    }

    #[test]
    fn session_respects_budgets() {
        let (mut platform, world, mut pop, mut r) = setup(2, ArchetypeMix::all_honest());
        let t = play_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
            &mut r,
        );
        assert!(t.rounds() <= 15);
        // Duration can exceed the limit only by the final round + gap.
        assert!(t.duration() < SimDuration::from_secs(150 + 150 + 5));
    }

    #[test]
    fn sessions_record_replay_traces() {
        let (mut platform, world, mut pop, mut r) = setup(2, ArchetypeMix::all_honest());
        play_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
            &mut r,
        );
        assert!(platform.replay().recorded_total() > 0);
    }

    #[test]
    fn replay_session_verifies_against_recordings() {
        let (mut platform, world, mut pop, mut r) = setup(3, ArchetypeMix::all_honest());
        // Seed recordings with a live session between 0 and 1.
        play_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(
                PlayerId::new(0),
                PlayerId::new(1),
                SessionId::new(0),
                SimTime::ZERO,
            ),
            &mut r,
        );
        let before = platform.verified_labels().len();
        let t = play_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::solo(
                PlayerId::new(2),
                SessionId::new(1),
                SimTime::from_secs(1000),
            ),
            &mut r,
        );
        assert!(t.rounds() > 0);
        // Replay rounds on recorded tasks can verify new labels (not
        // guaranteed every seed, but the pipeline must not error and the
        // platform must survive; with honest players and shared truth the
        // expected overlap is high).
        assert!(platform.verified_labels().len() >= before);
    }

    #[test]
    fn world_gold_tasks_extend_truths() {
        let mut r = rng();
        let cfg = WorldConfig::small();
        let mut world = EspWorld::generate(&cfg, &mut r);
        let mut platform = Platform::new(PlatformConfig::default()).unwrap();
        world.register_tasks(&mut platform);
        let gold = world.register_gold_tasks(&mut platform, &cfg, 5, &mut r);
        assert_eq!(gold.len(), 5);
        assert_eq!(world.len(), 55);
        for g in gold {
            assert!(platform.gold().is_gold(g));
            assert!(world.truth_for_task(g).is_some());
        }
    }
}
