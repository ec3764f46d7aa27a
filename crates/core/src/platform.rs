//! Platform orchestration: jobs, verification pipeline, and bookkeeping.
//!
//! [`Platform`] wires the whole verification pipeline together the way the
//! deployed systems did:
//!
//! 1. a round produces a **candidate agreement** `(task, label, pair)`;
//! 2. gold tasks update both players' test records ([`GoldBank`]);
//! 3. the answer feeds the spam detector; the pairing feeds the collusion
//!    detector ([`CheatDetector`]);
//! 4. if both players are currently *trusted*, the agreement counts toward
//!    [`AgreementTracker`] promotion (k-agreement repetition);
//! 5. a promoted label is emitted as a [`VerifiedLabel`], appended to the
//!    task's taboo list, and counted by the metrics ledger.
//!
//! The platform is deliberately synchronous and deterministic: games drive
//! it from simulated sessions, experiments read the ledgers afterwards.

use crate::answer::Label;
use crate::anticheat::CheatDetector;
use crate::error::{Error, Result};
use crate::id::{IdAllocator, JobId, PlayerId, TaskId};
use crate::jobs::{JobBook, JobGoal};
use crate::matchmaker::MatchmakerConfig;
use crate::metrics::{ContributionLedger, GwapMetrics};
use crate::replay::ReplayStore;
use crate::scoring::{ScoreRule, Scoreboard};
use crate::session::{SessionConfig, SessionTranscript};
use crate::task::{Stimulus, Task, TaskQueue};
use crate::verify::{AgreementTracker, GoldBank, TabooList};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A label that survived the full verification pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifiedLabel {
    /// The task the label describes.
    pub task: TaskId,
    /// The promoted label.
    pub label: Label,
    /// The pair whose agreement completed the promotion.
    pub promoted_by: (PlayerId, PlayerId),
    /// Platform time at promotion (advanced via [`Platform::set_time`];
    /// stays at zero for callers that never drive the clock).
    pub at: hc_sim::SimTime,
}

/// Platform-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Independent agreements required to promote a label (repetition).
    pub agreement_threshold: u32,
    /// Verified outputs after which a task is considered complete
    /// (0 = unbounded).
    pub task_completion_threshold: u32,
    /// Whether promoted labels become taboo for their task (the ESP
    /// mechanism; disable for the F3 ablation).
    pub taboo_words_enabled: bool,
    /// Probability of serving a gold task when one is available.
    pub gold_injection_rate: f64,
    /// Gold accuracy below which a player's agreements stop counting.
    pub gold_min_accuracy: f64,
    /// Gold exposures before the accuracy gate applies.
    pub gold_min_evidence: u32,
    /// Session shape.
    pub session: SessionConfig,
    /// Wait-pool behaviour, read by whoever owns the pool (the serial
    /// campaign, the task service, or a sharded run's tier pools).
    pub matchmaker: MatchmakerConfig,
    /// Recordings kept per task for replay fallback.
    pub replay_capacity_per_task: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            agreement_threshold: 1,
            task_completion_threshold: 0,
            taboo_words_enabled: true,
            gold_injection_rate: 0.1,
            gold_min_accuracy: 0.6,
            gold_min_evidence: 4,
            session: SessionConfig::default(),
            matchmaker: MatchmakerConfig::default(),
            replay_capacity_per_task: 8,
        }
    }
}

impl PlatformConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for out-of-range probabilities.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.gold_injection_rate) {
            return Err(Error::InvalidConfig("gold_injection_rate must be in [0,1]"));
        }
        if !(0.0..=1.0).contains(&self.gold_min_accuracy) {
            return Err(Error::InvalidConfig("gold_min_accuracy must be in [0,1]"));
        }
        Ok(())
    }
}

/// The assembled human-computation platform.
///
/// # Examples
///
/// ```
/// use hc_core::prelude::*;
/// use rand::SeedableRng;
///
/// let mut platform = Platform::new(PlatformConfig::default()).unwrap();
/// let task = platform.add_task(Stimulus::Image(0));
/// let (a, b) = (platform.register_player(), platform.register_player());
///
/// // A round's agreed label flows through the pipeline and verifies.
/// let promoted = platform.ingest_agreement(task, Label::new("dog"), a, b).unwrap();
/// assert!(promoted);
/// assert_eq!(platform.verified_labels().len(), 1);
/// // The promoted label is now taboo for that task.
/// assert!(platform.taboo_for(task).contains(&Label::new("dog")));
/// ```
#[derive(Debug)]
pub struct Platform {
    config: PlatformConfig,
    tasks: TaskQueue,
    gold: GoldBank,
    agreement: AgreementTracker,
    cheat: CheatDetector,
    scoreboard: Scoreboard,
    ledger: ContributionLedger,
    replay: ReplayStore,
    verified: Vec<VerifiedLabel>,
    /// Positions in `verified` of each job's labels, in promotion order,
    /// indexed by job id (the job book hands ids out densely from 0).
    job_verified: Vec<Vec<usize>>,
    player_ids: IdAllocator<PlayerId>,
    task_ids: IdAllocator<TaskId>,
    gold_tasks: Vec<TaskId>,
    rejected_agreements: u64,
    jobs: JobBook,
    /// Simulated clock of the last ingested agreement (drives job
    /// completion timestamps; platforms are clock-free otherwise).
    last_event_time: hc_sim::SimTime,
}

impl Platform {
    /// Builds a platform from a validated config.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the config fails validation.
    pub fn new(config: PlatformConfig) -> Result<Self> {
        config.validate()?;
        Ok(Platform {
            config,
            tasks: TaskQueue::new(),
            gold: GoldBank::new(config.gold_min_accuracy, config.gold_min_evidence),
            agreement: AgreementTracker::new(config.agreement_threshold),
            cheat: CheatDetector::new(0.5, 0.5, 20),
            scoreboard: Scoreboard::new(config.session.score_rule),
            ledger: ContributionLedger::new(),
            replay: ReplayStore::new(config.replay_capacity_per_task),
            verified: Vec::new(),
            job_verified: Vec::new(),
            player_ids: IdAllocator::new(),
            task_ids: IdAllocator::new(),
            gold_tasks: Vec::new(),
            rejected_agreements: 0,
            jobs: JobBook::new(),
            last_event_time: hc_sim::SimTime::ZERO,
        })
    }

    /// The active config.
    #[must_use]
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Registers a new player and returns their id.
    pub fn register_player(&mut self) -> PlayerId {
        self.player_ids.next()
    }

    /// Adds a regular task.
    pub fn add_task(&mut self, stimulus: Stimulus) -> TaskId {
        let id = self.task_ids.next();
        self.tasks.insert(Task::new(id, stimulus));
        id
    }

    /// Adds a gold task with known acceptable labels.
    pub fn add_gold_task<I: IntoIterator<Item = Label>>(
        &mut self,
        stimulus: Stimulus,
        accepted: I,
    ) -> TaskId {
        let id = self.add_task(stimulus);
        self.gold.add_gold(id, accepted);
        self.gold_tasks.push(id);
        id
    }

    /// Chooses the next task for a pair: with probability
    /// `gold_injection_rate` a random gold task (if any), otherwise the
    /// least-covered unseen task. Returns `None` when nothing is servable.
    pub fn next_task_for<R: Rng + ?Sized>(
        &mut self,
        players: &[PlayerId],
        rng: &mut R,
    ) -> Option<TaskId> {
        if !self.gold_tasks.is_empty()
            && self.config.gold_injection_rate > 0.0
            && rng.gen::<f64>() < self.config.gold_injection_rate
        {
            let gold = self.gold_tasks[rng.gen_range(0..self.gold_tasks.len())];
            return Some(gold);
        }
        self.tasks.next_for(players)
    }

    /// Records that `task` was served to `players`.
    pub fn record_served(&mut self, task: TaskId, players: &[PlayerId]) {
        self.tasks.record_served(task, players);
    }

    /// A snapshot of the taboo list currently attached to `task` (empty
    /// for unknown tasks). Taking it shares the task's labels; promotions
    /// after it leave the snapshot unchanged.
    #[must_use]
    pub fn taboo_for(&self, task: TaskId) -> TabooList {
        self.tasks
            .get(task)
            .map(|t| t.taboo.clone())
            .unwrap_or_default()
    }

    /// Feeds one agreed `(task, label)` from a pair through the pipeline.
    /// Returns `Ok(true)` when the label was *newly promoted* to verified.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTask`] if the task does not exist.
    pub fn ingest_agreement(
        &mut self,
        task: TaskId,
        label: Label,
        a: PlayerId,
        b: PlayerId,
    ) -> Result<bool> {
        if self.tasks.get(task).is_none() {
            return Err(Error::UnknownTask(task));
        }
        let tracing = hc_obs::active();
        // Under tracing, watch the gold-trust gate for quarantine
        // transitions (a trusted player becoming distrusted). Observed
        // only — the pipeline's control flow never reads these.
        let trusted_before = if tracing {
            (self.gold.is_trusted(a), self.gold.is_trusted(b))
        } else {
            (true, true)
        };
        // Gold checking: both players answered this label on a gold task.
        self.gold.check(a, task, &label);
        self.gold.check(b, task, &label);
        // Spam detector sees every agreed answer.
        self.cheat.record_answer(a, &label);
        self.cheat.record_answer(b, &label);
        if tracing {
            let now = self.last_event_time.ticks();
            hc_obs::counter("core.agreements", now, 1);
            for (player, was_trusted) in [(a, trusted_before.0), (b, trusted_before.1)] {
                if was_trusted && !self.gold.is_trusted(player) {
                    hc_obs::counter("core.quarantines", now, 1);
                    hc_obs::event(
                        "core",
                        "quarantine",
                        now,
                        &[("player", u64::from(player).into())],
                    );
                }
            }
        }
        // Gold tasks never produce verified labels — they are instruments.
        if self.gold.is_gold(task) {
            if tracing {
                hc_obs::counter("core.gold_checks", self.last_event_time.ticks(), 1);
            }
            return Ok(false);
        }
        // Trust gating.
        if !self.gold.is_trusted(a) || !self.gold.is_trusted(b) {
            self.rejected_agreements += 1;
            if tracing {
                hc_obs::counter("core.rejected_agreements", self.last_event_time.ticks(), 1);
            }
            return Ok(false);
        }
        let promoted = self.agreement.record(task, label.clone(), a, b);
        if promoted {
            if self.config.taboo_words_enabled {
                self.tasks.add_taboo(task, label.clone());
            }
            self.tasks
                .record_verified(task, self.config.task_completion_threshold);
            self.ledger.record_outputs(1);
            if let Some(job) = self.jobs.credit_output(task, self.last_event_time) {
                if let Some(positions) = self.job_verified.get_mut(job_index(job)) {
                    positions.push(self.verified.len());
                }
            }
            if tracing {
                hc_obs::counter("core.promotions", self.last_event_time.ticks(), 1);
            }
            self.verified.push(VerifiedLabel {
                task,
                label,
                promoted_by: (a, b),
                at: self.last_event_time,
            });
        }
        Ok(promoted)
    }

    /// Ingests a completed session: play time to the ledger, the pairing to
    /// the collusion detector, per-round scores to the scoreboard, and the
    /// players' seen-task sets are cleared.
    pub fn record_session(&mut self, transcript: &SessionTranscript) {
        let [a, b] = transcript.players;
        let dur = transcript.duration();
        if hc_obs::active() {
            let [points_a, points_b] = transcript.total_points;
            hc_obs::span(
                "core",
                "session",
                transcript.started.ticks(),
                transcript.ended.ticks(),
                &[
                    ("session", u64::from(transcript.id).into()),
                    ("a", u64::from(a).into()),
                    ("b", u64::from(b).into()),
                    ("rounds", transcript.rounds().into()),
                    ("matched", transcript.matched_count().into()),
                    ("points", (points_a + points_b).into()),
                ],
            );
            hc_obs::counter("core.sessions", transcript.ended.ticks(), 1);
        }
        self.ledger.record_play(a, dur);
        self.ledger.record_play(b, dur);
        self.cheat.record_pairing(a, b);
        for r in &transcript.records {
            self.scoreboard
                .record_round(a, r.matched, r.duration.as_secs_f64());
            self.scoreboard
                .record_round(b, r.matched, r.duration.as_secs_f64());
        }
        self.tasks.clear_seen(a);
        self.tasks.clear_seen(b);
    }

    /// Opens a labeling job over already-registered tasks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyJob`] when `tasks` is empty,
    /// [`Error::UnknownTask`] when any task was never registered and
    /// [`Error::TaskAlreadyEnrolled`] when a task is already in a job or
    /// listed twice.
    pub fn open_job(&mut self, name: &str, goal: JobGoal, tasks: Vec<TaskId>) -> Result<JobId> {
        let mut verified_before = false;
        for t in &tasks {
            let task = self.tasks.get(*t).ok_or(Error::UnknownTask(*t))?;
            verified_before |= task.verified_outputs > 0;
        }
        let job = self.jobs.open(name, goal, tasks, self.last_event_time)?;
        debug_assert_eq!(job_index(job), self.job_verified.len());
        // Labels verified before their task was enrolled belong to the
        // job too; only a job over such tasks pays for the scan.
        let positions = if verified_before {
            self.verified
                .iter()
                .enumerate()
                .filter(|(_, v)| self.jobs.job_of(v.task) == Some(job))
                .map(|(i, _)| i)
                .collect()
        } else {
            Vec::new()
        };
        self.job_verified.push(positions);
        Ok(job)
    }

    /// Read access to the job book.
    #[must_use]
    pub fn jobs(&self) -> &JobBook {
        &self.jobs
    }

    /// Cancels a job, timestamped with the platform's current time.
    /// Idempotent for jobs that are already completed or cancelled.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownJob`] when the job was never opened.
    pub fn cancel_job(&mut self, id: JobId) -> Result<()> {
        self.jobs.cancel(id, self.last_event_time)
    }

    /// Advances the platform's notion of time (used to timestamp job
    /// completion; campaigns call it as their clock moves).
    pub fn set_time(&mut self, now: hc_sim::SimTime) {
        self.last_event_time = self.last_event_time.max(now);
    }

    /// Forgets a single player's seen-task set (used by single-player
    /// replay sessions, which bypass [`Platform::record_session`]).
    pub fn tasks_clear_seen(&mut self, player: PlayerId) {
        self.tasks.clear_seen(player);
    }

    /// The verified-label stream, in promotion order.
    #[must_use]
    pub fn verified_labels(&self) -> &[VerifiedLabel] {
        &self.verified
    }

    /// The verified labels on `job`'s tasks, in promotion order: the
    /// verified-label stream filtered to the job, read from an index kept
    /// as labels are promoted. `None` for a job that was never opened.
    #[must_use]
    pub fn job_labels(
        &self,
        job: JobId,
    ) -> Option<impl ExactSizeIterator<Item = &VerifiedLabel> + '_> {
        let positions = self.job_verified.get(job_index(job))?;
        Some(positions.iter().map(|&i| &self.verified[i]))
    }

    /// Agreements dropped because a participant was distrusted.
    #[must_use]
    pub fn rejected_agreements(&self) -> u64 {
        self.rejected_agreements
    }

    /// Current GWAP metrics from the ledger.
    #[must_use]
    pub fn metrics(&self) -> GwapMetrics {
        self.ledger.metrics()
    }

    /// Access to the task store.
    #[must_use]
    pub fn tasks(&self) -> &TaskQueue {
        &self.tasks
    }

    /// Access to the replay store.
    pub fn replay_mut(&mut self) -> &mut ReplayStore {
        &mut self.replay
    }

    /// Read access to the replay store.
    #[must_use]
    pub fn replay(&self) -> &ReplayStore {
        &self.replay
    }

    /// Read access to the gold bank.
    #[must_use]
    pub fn gold(&self) -> &GoldBank {
        &self.gold
    }

    /// Read access to the cheat detector.
    #[must_use]
    pub fn cheat_detector(&self) -> &CheatDetector {
        &self.cheat
    }

    /// Replaces the cheat detector (to tune thresholds per experiment).
    pub fn set_cheat_detector(&mut self, detector: CheatDetector) {
        self.cheat = detector;
    }

    /// Read access to the scoreboard.
    #[must_use]
    pub fn scoreboard(&self) -> &Scoreboard {
        &self.scoreboard
    }

    /// Read access to the agreement tracker.
    #[must_use]
    pub fn agreement(&self) -> &AgreementTracker {
        &self.agreement
    }

    /// The score rule in force.
    #[must_use]
    pub fn score_rule(&self) -> ScoreRule {
        self.config.session.score_rule
    }
}

/// A job's slot in [`Platform`]'s per-job index.
fn job_index(job: JobId) -> usize {
    usize::try_from(u64::from(job)).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{RoundRecord, Session};
    use crate::templates::TemplateKind;
    use hc_sim::{SimDuration, SimTime};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    fn platform(k: u32) -> Platform {
        let config = PlatformConfig {
            agreement_threshold: k,
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        };
        Platform::new(config).unwrap()
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = PlatformConfig {
            gold_injection_rate: 1.5,
            ..PlatformConfig::default()
        };
        assert!(Platform::new(bad).is_err());
        let bad = PlatformConfig {
            gold_min_accuracy: -0.1,
            ..PlatformConfig::default()
        };
        assert!(Platform::new(bad).is_err());
    }

    #[test]
    fn taboo_flag_controls_accumulation() {
        let config = PlatformConfig {
            agreement_threshold: 1,
            taboo_words_enabled: false,
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        };
        let mut p = Platform::new(config).unwrap();
        let task = p.add_task(Stimulus::Image(0));
        let (a, b) = (p.register_player(), p.register_player());
        assert!(p.ingest_agreement(task, Label::new("dog"), a, b).unwrap());
        assert!(
            p.taboo_for(task).is_empty(),
            "taboo disabled must not accumulate"
        );
    }

    #[test]
    fn promotion_at_threshold_updates_taboo_and_ledger() {
        let mut p = platform(2);
        let task = p.add_task(Stimulus::Image(1));
        let ids: Vec<PlayerId> = (0..4).map(|_| p.register_player()).collect();
        assert!(!p
            .ingest_agreement(task, Label::new("dog"), ids[0], ids[1])
            .unwrap());
        assert!(p
            .ingest_agreement(task, Label::new("dog"), ids[2], ids[3])
            .unwrap());
        assert_eq!(p.verified_labels().len(), 1);
        assert!(p.taboo_for(task).contains(&Label::new("dog")));
        assert_eq!(p.metrics().total_outputs, 1);
        // Third agreement on an already-promoted label does nothing.
        assert!(!p
            .ingest_agreement(task, Label::new("dog"), ids[0], ids[2])
            .unwrap());
        assert_eq!(p.verified_labels().len(), 1);
    }

    #[test]
    fn taboo_snapshots_are_copy_on_write() {
        let mut p = platform(1);
        let task = p.add_task(Stimulus::Image(1));
        let (a, b) = (p.register_player(), p.register_player());
        assert!(p.ingest_agreement(task, Label::new("sun"), a, b).unwrap());
        let planned = p.taboo_for(task);
        assert!(p.ingest_agreement(task, Label::new("apple"), a, b).unwrap());
        assert!(
            !planned.contains(&Label::new("apple")),
            "snapshot unchanged"
        );
        let fresh = p.taboo_for(task);
        let order: Vec<&str> = fresh.iter().map(Label::as_str).collect();
        assert_eq!(order, ["sun", "apple"], "promotion order");
        assert_eq!(planned.len(), 1);
    }

    #[test]
    fn unknown_task_errors() {
        let mut p = platform(1);
        let a = p.register_player();
        let b = p.register_player();
        assert_eq!(
            p.ingest_agreement(TaskId::new(99), Label::new("x"), a, b),
            Err(Error::UnknownTask(TaskId::new(99)))
        );
    }

    #[test]
    fn gold_tasks_gate_untrusted_players() {
        let config = PlatformConfig {
            agreement_threshold: 1,
            gold_injection_rate: 0.0,
            gold_min_accuracy: 0.9,
            gold_min_evidence: 2,
            ..PlatformConfig::default()
        };
        let mut p = Platform::new(config).unwrap();
        let gold = p.add_gold_task(Stimulus::Image(0), [Label::new("sun")]);
        let task = p.add_task(Stimulus::Image(1));
        let (a, b) = (p.register_player(), p.register_player());
        // Two wrong gold answers distrust both players.
        p.ingest_agreement(gold, Label::new("moon"), a, b).unwrap();
        p.ingest_agreement(gold, Label::new("star"), a, b).unwrap();
        assert!(!p.gold().is_trusted(a));
        // Their agreements now bounce.
        assert!(!p.ingest_agreement(task, Label::new("dog"), a, b).unwrap());
        assert_eq!(p.rejected_agreements(), 1);
        assert!(p.verified_labels().is_empty());
        // Trusted newcomers still verify.
        let (c, d) = (p.register_player(), p.register_player());
        assert!(p.ingest_agreement(task, Label::new("dog"), c, d).unwrap());
    }

    #[test]
    fn gold_tasks_never_emit_verified_labels() {
        let mut p = platform(1);
        let gold = p.add_gold_task(Stimulus::Image(0), [Label::new("sun")]);
        let (a, b) = (p.register_player(), p.register_player());
        assert!(!p.ingest_agreement(gold, Label::new("sun"), a, b).unwrap());
        assert!(p.verified_labels().is_empty());
    }

    #[test]
    fn gold_injection_rate_controls_serving() {
        let config = PlatformConfig {
            gold_injection_rate: 1.0,
            ..PlatformConfig::default()
        };
        let mut p = Platform::new(config).unwrap();
        let gold = p.add_gold_task(Stimulus::Image(0), [Label::new("sun")]);
        let _task = p.add_task(Stimulus::Image(1));
        let a = p.register_player();
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(p.next_task_for(&[a], &mut r), Some(gold));
        }
    }

    #[test]
    fn zero_gold_rate_serves_regular_tasks() {
        let mut p = platform(1);
        let _gold_absent = p.add_task(Stimulus::Image(1));
        let a = p.register_player();
        let mut r = rng();
        assert!(p.next_task_for(&[a], &mut r).is_some());
    }

    #[test]
    fn record_session_feeds_ledger_scoreboard_and_detector() {
        let mut p = platform(1);
        let (a, b) = (p.register_player(), p.register_player());
        let mut s = Session::new(
            crate::id::SessionId::new(1),
            [a, b],
            SimTime::ZERO,
            SessionConfig::default(),
        );
        s.record_round(RoundRecord {
            template: TemplateKind::OutputAgreement,
            task: TaskId::new(0),
            matched: true,
            candidate_outputs: 1,
            duration: SimDuration::from_secs(10),
            points: [130, 130],
        });
        let t = s.finish(SimTime::from_secs(60));
        p.record_session(&t);
        assert_eq!(p.metrics().player_count, 2);
        assert!((p.metrics().total_human_hours - 2.0 / 60.0).abs() < 1e-9);
        assert_eq!(p.scoreboard().score(a).unwrap().matches, 1);
        assert_eq!(p.cheat_detector().games_of(a), 1);
    }

    #[test]
    fn completion_threshold_retires_tasks() {
        let config = PlatformConfig {
            agreement_threshold: 1,
            task_completion_threshold: 1,
            gold_injection_rate: 0.0,
            ..PlatformConfig::default()
        };
        let mut p = Platform::new(config).unwrap();
        let task = p.add_task(Stimulus::Image(0));
        let (a, b) = (p.register_player(), p.register_player());
        p.ingest_agreement(task, Label::new("dog"), a, b).unwrap();
        assert_eq!(p.tasks().completed_count(), 1);
        let mut r = rng();
        assert_eq!(p.next_task_for(&[a], &mut r), None);
    }

    #[test]
    fn jobs_track_promotions() {
        use crate::jobs::{JobGoal, JobState};
        let mut p = platform(1);
        let t1 = p.add_task(Stimulus::Image(1));
        let t2 = p.add_task(Stimulus::Image(2));
        let job = p
            .open_job("campaign", JobGoal::OutputsPerTask(1), vec![t1, t2])
            .unwrap();
        let (a, b) = (p.register_player(), p.register_player());
        p.set_time(SimTime::from_secs(10));
        p.ingest_agreement(t1, Label::new("dog"), a, b).unwrap();
        assert_eq!(p.jobs().get(job).unwrap().state, JobState::Active);
        assert!((p.jobs().get(job).unwrap().progress() - 0.5).abs() < 1e-12);
        p.set_time(SimTime::from_secs(20));
        p.ingest_agreement(t2, Label::new("cat"), a, b).unwrap();
        let j = p.jobs().get(job).unwrap();
        assert_eq!(j.state, JobState::Completed);
        assert_eq!(j.closed_at, Some(SimTime::from_secs(20)));
        // Unknown tasks rejected at open time.
        assert!(p
            .open_job("bad", JobGoal::TotalOutputs(1), vec![TaskId::new(999)])
            .is_err());
    }

    #[test]
    fn job_labels_include_labels_verified_before_enrollment() {
        use crate::jobs::JobGoal;
        let mut p = platform(1);
        let (a, b) = (p.register_player(), p.register_player());
        let (early, late, other) = (
            p.add_task(Stimulus::Image(0)),
            p.add_task(Stimulus::Image(1)),
            p.add_task(Stimulus::Image(2)),
        );
        p.ingest_agreement(early, Label::new("cat"), a, b).unwrap();
        p.ingest_agreement(other, Label::new("dog"), a, b).unwrap();
        let job = p
            .open_job("j", JobGoal::TotalOutputs(1), vec![late, early])
            .unwrap();
        p.ingest_agreement(late, Label::new("owl"), a, b).unwrap();
        let labels: Vec<&str> = p
            .job_labels(job)
            .unwrap()
            .map(|v| v.label.as_str())
            .collect();
        assert_eq!(
            labels,
            ["cat", "owl"],
            "promotion order, pre-enrollment label kept"
        );
        assert_eq!(p.jobs().get(job).unwrap().total_outputs(), 1);
        assert!(p.job_labels(JobId::new(9)).is_none());
    }

    #[test]
    fn accessors_exist() {
        let mut p = platform(1);
        assert_eq!(p.config().agreement_threshold, 1);
        assert_eq!(p.score_rule().match_points, 100);
        assert_eq!(p.agreement().threshold(), 1);
        assert_eq!(p.replay().recorded_total(), 0);
        let _ = p.replay_mut();
        p.set_cheat_detector(CheatDetector::new(0.4, 1.0, 5));
    }
}
