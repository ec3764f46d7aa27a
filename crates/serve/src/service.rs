//! The deterministic request/response core.
//!
//! [`Service`] is a synchronous state machine over the platform: one
//! [`Request`] in, one [`Response`] out, no clock, no I/O. All
//! randomness (matchmaker pairing, gold injection) comes from two
//! seeded streams derived from the service seed, and all time comes
//! from the requests themselves — so replaying a request log against a
//! fresh service with the same [`ServiceConfig`] reproduces the
//! response log byte for byte. Anything nondeterministic (sockets,
//! wall-clock latency) lives in the [`crate::front`] shim outside this
//! boundary.

use crate::wire::{
    AggregateRow, ExportedLabel, Request, Response, RoundOutcome, ServeError, SessionPhase,
};
use hc_aggregate::plurality;
use hc_collect::{DetMap, Interner, Sym};
use hc_core::bucket::BucketPool;
use hc_core::id::IdAllocator;
use hc_core::matchmaker::{trace_pairing, MatchDecision};
use hc_core::session::{RoundRecord, Session};
use hc_core::templates::TemplateKind;
use hc_core::{Answer, Label, Platform, PlatformConfig, PlayerId, SessionId, Stimulus, TaskId};
use hc_sim::{RngFactory, SimTime};

/// Service-level configuration: the platform config plus the seed the
/// service derives its internal RNG streams from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// The wrapped platform's configuration.
    pub platform: PlatformConfig,
    /// Master seed for pairing and gold-injection randomness.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            platform: PlatformConfig::default(),
            seed: 42,
        }
    }
}

/// One open round inside a live session.
#[derive(Debug, Clone)]
struct RoundAssign {
    /// 1-based round number.
    round: u32,
    task: TaskId,
    stimulus: Stimulus,
    taboo: hc_core::TabooList,
    issued_at: SimTime,
    /// Per-seat answers; a round resolves when both are present.
    answers: [Option<Answer>; 2],
}

/// Vote counts over one task's submitted text answers: the sufficient
/// statistic for both wire aggregation rules.
#[derive(Debug, Default)]
struct Tally {
    /// Text answers recorded for the task.
    answers: u32,
    /// Per-label counts in first-submission order.
    labels: Vec<(Sym, u32)>,
}

/// A session currently being played through the service.
#[derive(Debug)]
struct LiveSession {
    players: [PlayerId; 2],
    session: Session,
    current: Option<RoundAssign>,
}

/// The task-lifecycle service: platform + wait pool + sessions +
/// aggregation behind one request/response surface.
///
/// # Examples
///
/// ```
/// use hc_core::jobs::JobGoal;
/// use hc_core::Stimulus;
/// use hc_serve::{Request, Response, Service, ServiceConfig};
///
/// let mut svc = Service::new(ServiceConfig::default()).unwrap();
/// let resp = svc.handle(&Request::PublishBatch {
///     name: "animals".into(),
///     goal: JobGoal::OutputsPerTask(1),
///     stimuli: vec![Stimulus::Image(0), Stimulus::Image(1)],
/// });
/// assert!(matches!(resp, Response::BatchPublished { .. }));
/// ```
#[derive(Debug)]
pub struct Service {
    platform: Platform,
    /// Players waiting for a partner, paired by random matching.
    pool: BucketPool,
    /// Root of every service RNG draw: pairing and serving randomness
    /// derive per-request `indexed_stream`s keyed by the request
    /// sequence number, so every draw replays from the request log
    /// alone and no stream state lives across requests.
    rng: RngFactory,
    session_ids: IdAllocator<SessionId>,
    sessions: DetMap<SessionId, LiveSession>,
    players: DetMap<PlayerId, SessionPhase>,
    /// Submitted text answers per task as label tallies — the input to
    /// [`Request::Aggregate`].
    tallies: DetMap<TaskId, Tally>,
    /// Every submitted label, interned once on first submission.
    label_syms: Interner,
    /// The label behind each [`Sym`], indexed by `Sym::index`: the read
    /// path renders from here because `Label::from` re-normalizes.
    label_text: Vec<Label>,
    sessions_recorded: u64,
    requests_handled: u64,
    now: SimTime,
}

impl Service {
    /// Builds a service over a fresh platform.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when the platform config
    /// fails validation.
    pub fn new(config: ServiceConfig) -> Result<Self, ServeError> {
        let platform = Platform::new(config.platform).map_err(map_core)?;
        Ok(Service {
            platform,
            pool: BucketPool::new(config.platform.matchmaker),
            rng: RngFactory::new(config.seed).child("serve"),
            session_ids: IdAllocator::new(),
            sessions: DetMap::new(),
            players: DetMap::new(),
            tallies: DetMap::new(),
            label_syms: Interner::new(),
            label_text: Vec::new(),
            sessions_recorded: 0,
            requests_handled: 0,
            now: SimTime::ZERO,
        })
    }

    /// Read access to the wrapped platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Requests handled so far (including failed ones).
    #[must_use]
    pub fn requests_handled(&self) -> u64 {
        self.requests_handled
    }

    /// Handles one request. Never panics; failures come back as
    /// [`Response::Error`].
    pub fn handle(&mut self, request: &Request) -> Response {
        if let Some(at) = request.at() {
            self.now = self.now.max(at);
            self.platform.set_time(at);
        }
        self.requests_handled += 1;
        // A scope (not a leaf) span per request: anything the handler
        // emits — latency observations, future sub-spans — nests under
        // it, and the request itself nests under whatever scope the
        // caller holds open (e.g. a load-harness wave).
        let scope =
            hc_obs::active().then(|| hc_obs::enter("serve", request.kind_name(), self.now.ticks()));
        let response = match self.apply(request) {
            Ok(r) => r,
            Err(error) => Response::Error { error },
        };
        if let Some(scope) = scope {
            let t = self.now.ticks();
            hc_obs::counter("serve.requests", t, 1);
            if response.is_error() {
                hc_obs::counter("serve.errors", t, 1);
            }
            scope.exit(
                t,
                &[
                    ("seq", self.requests_handled.into()),
                    ("response", response.kind_name().into()),
                ],
            );
        }
        response
    }

    fn apply(&mut self, request: &Request) -> Result<Response, ServeError> {
        match request {
            Request::RegisterWorker => {
                let player = self.platform.register_player();
                self.players.insert(player, SessionPhase::Idle);
                Ok(Response::WorkerRegistered { player })
            }
            Request::PublishBatch {
                name,
                goal,
                stimuli,
            } => {
                if stimuli.is_empty() {
                    return Err(ServeError::EmptyBatch);
                }
                let tasks: Vec<TaskId> = stimuli
                    .iter()
                    .map(|s| self.platform.add_task(s.clone()))
                    .collect();
                let job = self
                    .platform
                    .open_job(name, *goal, tasks.clone())
                    .map_err(map_core)?;
                Ok(Response::BatchPublished { job, tasks })
            }
            Request::PublishGold { stimulus, accepted } => {
                if accepted.is_empty() {
                    return Err(ServeError::InvalidRequest {
                        reason: "a gold task needs at least one accepted label".to_string(),
                    });
                }
                let task = self
                    .platform
                    .add_gold_task(stimulus.clone(), accepted.iter().cloned());
                Ok(Response::GoldPublished { task })
            }
            Request::OpenSession { player, at } => self.open_session(*player, *at),
            Request::PollSession { player } => {
                let phase = *self
                    .players
                    .get(player)
                    .ok_or(ServeError::UnknownPlayer { player: *player })?;
                Ok(Response::SessionStatus {
                    player: *player,
                    phase,
                })
            }
            Request::RequestTask {
                session,
                player,
                at,
            } => self.request_task(*session, *player, *at),
            Request::SubmitAnswer {
                session,
                player,
                answer,
                at,
            } => self.submit_answer(*session, *player, answer, *at),
            Request::CloseSession { session, at } => self.close_session(*session, *at),
            Request::JobStatus { job } => {
                let j = self
                    .platform
                    .jobs()
                    .get(*job)
                    .ok_or(ServeError::UnknownJob { job: *job })?;
                Ok(Response::JobStatusReport {
                    job: *job,
                    state: j.state,
                    tasks: j.tasks().len() as u32,
                    outputs: j.total_outputs(),
                    progress_pct: percent(j.progress()),
                })
            }
            Request::TaskStatus { task } => {
                let t = self
                    .platform
                    .tasks()
                    .get(*task)
                    .ok_or(ServeError::UnknownTask { task: *task })?;
                Ok(Response::TaskStatusReport {
                    task: *task,
                    state: t.state,
                    times_served: t.times_served,
                    verified: t.verified_outputs,
                    taboo: t.taboo.iter().cloned().collect(),
                })
            }
            Request::CancelJob { job, .. } => {
                self.platform.cancel_job(*job).map_err(map_core)?;
                Ok(Response::JobCancelled { job: *job })
            }
            Request::ExportResults { job } => {
                let labels: Vec<ExportedLabel> = self
                    .platform
                    .job_labels(*job)
                    .ok_or(ServeError::UnknownJob { job: *job })?
                    .map(|v| ExportedLabel {
                        task: v.task,
                        label: v.label.clone(),
                        at: v.at,
                    })
                    .collect();
                Ok(Response::ResultsExported { job: *job, labels })
            }
            Request::Aggregate { job, threshold } => self.aggregate(*job, *threshold),
            Request::Metrics => Ok(Response::MetricsReport {
                players: self.players.len() as u64,
                waiting: self.pool.queue_len() as u32,
                live_sessions: self.sessions.len() as u32,
                sessions_recorded: self.sessions_recorded,
                verified_labels: self.platform.verified_labels().len() as u64,
                rejected_agreements: self.platform.rejected_agreements(),
            }),
        }
    }

    fn open_session(&mut self, player: PlayerId, at: SimTime) -> Result<Response, ServeError> {
        match self.players.get(&player) {
            None => return Err(ServeError::UnknownPlayer { player }),
            Some(SessionPhase::Waiting) => return Err(ServeError::AlreadyWaiting { player }),
            Some(SessionPhase::Seated { session }) => {
                return Err(ServeError::AlreadyInSession {
                    player,
                    session: *session,
                })
            }
            Some(SessionPhase::Idle) => {}
        }
        let mut rng = self.rng.indexed_stream("matchmaker", self.requests_handled);
        match self.pool.on_arrival(at, player, &mut rng) {
            MatchDecision::Queued => {
                self.players.insert(player, SessionPhase::Waiting);
                Ok(Response::SessionQueued {
                    player,
                    waiting: self.pool.queue_len() as u32,
                })
            }
            MatchDecision::Paired { partner, waited } => {
                trace_pairing(at, player, Some(partner), waited);
                let id = self.session_ids.next();
                // The earlier arrival takes the left seat.
                let players = [partner, player];
                let session = Session::new(id, players, at, self.platform.config().session);
                self.sessions.insert(
                    id,
                    LiveSession {
                        players,
                        session,
                        current: None,
                    },
                );
                self.players
                    .insert(partner, SessionPhase::Seated { session: id });
                self.players
                    .insert(player, SessionPhase::Seated { session: id });
                Ok(Response::SessionOpened {
                    session: id,
                    players,
                })
            }
        }
    }

    fn request_task(
        &mut self,
        session: SessionId,
        player: PlayerId,
        at: SimTime,
    ) -> Result<Response, ServeError> {
        let live = self
            .sessions
            .get(&session)
            .ok_or(ServeError::UnknownSession { session })?;
        seat_of(live.players, player).ok_or(ServeError::NotInSession { session, player })?;
        // Both seats poll for the round's task; the assignment is made
        // once and returned verbatim to the second asker.
        if let Some(current) = &live.current {
            return Ok(Response::TaskAssigned {
                session,
                round: current.round,
                task: current.task,
                stimulus: current.stimulus.clone(),
                taboo: current.taboo.iter().cloned().collect(),
            });
        }
        if !live.session.can_play_more(at) {
            return Err(ServeError::SessionOver { session });
        }
        let players = live.players;
        let round = live.session.rounds_played() + 1;
        let mut rng = self.rng.indexed_stream("tasks", self.requests_handled);
        let Some(task) = self.platform.next_task_for(&players, &mut rng) else {
            return Err(ServeError::NoTaskAvailable { session });
        };
        self.platform.record_served(task, &players);
        let (stimulus, taboo) = match self.platform.tasks().get(task) {
            Some(t) => (t.stimulus.clone(), t.taboo.clone()),
            None => return Err(ServeError::UnknownTask { task }),
        };
        let assign = RoundAssign {
            round,
            task,
            stimulus: stimulus.clone(),
            taboo: taboo.clone(),
            issued_at: at,
            answers: [None, None],
        };
        if let Some(live) = self.sessions.get_mut(&session) {
            live.current = Some(assign);
        }
        Ok(Response::TaskAssigned {
            session,
            round,
            task,
            stimulus,
            taboo: taboo.iter().cloned().collect(),
        })
    }

    fn submit_answer(
        &mut self,
        session: SessionId,
        player: PlayerId,
        answer: &Answer,
        at: SimTime,
    ) -> Result<Response, ServeError> {
        // Output-agreement rounds accept free text or an explicit pass.
        match answer {
            Answer::Text(label) => {
                if label.is_empty() {
                    return Err(ServeError::InvalidRequest {
                        reason: "empty label after normalization".to_string(),
                    });
                }
            }
            Answer::Pass => {}
            other => {
                return Err(ServeError::AnswerKindMismatch {
                    expected: "text or pass".to_string(),
                    got: other.kind_name().to_string(),
                })
            }
        }
        let live = self
            .sessions
            .get_mut(&session)
            .ok_or(ServeError::UnknownSession { session })?;
        let seat =
            seat_of(live.players, player).ok_or(ServeError::NotInSession { session, player })?;
        let Some(current) = live.current.as_mut() else {
            return Err(ServeError::NoAssignment { session });
        };
        if current.answers[seat].is_some() {
            return Err(ServeError::DuplicateAnswer { session, player });
        }
        if let Answer::Text(label) = answer {
            if current.taboo.contains(label) {
                return Err(ServeError::TabooLabel {
                    label: label.clone(),
                });
            }
        }
        current.answers[seat] = Some(answer.clone());
        let round = current.round;
        // Move both answers out instead of cloning them: a resolved
        // round is dropped below.
        let (left, right) = match std::mem::take(&mut current.answers) {
            [Some(left), Some(right)] => (left, right),
            pending => {
                current.answers = pending;
                return Ok(Response::AnswerRecorded {
                    session,
                    round,
                    outcome: RoundOutcome::Waiting,
                });
            }
        };
        // Round resolution: both seats answered.
        let players = live.players;
        let task = current.task;
        let issued_at = current.issued_at;
        live.current = None;
        let outcome = match (&left, &right) {
            (Answer::Pass, Answer::Pass) => RoundOutcome::Passed,
            (Answer::Text(a), Answer::Text(b)) => {
                self.record_raw(task, a);
                self.record_raw(task, b);
                if a == b {
                    let promoted = self
                        .platform
                        .ingest_agreement(task, a.clone(), players[0], players[1])
                        .map_err(map_core)?;
                    RoundOutcome::Matched {
                        label: a.clone(),
                        promoted,
                    }
                } else {
                    RoundOutcome::Mismatched
                }
            }
            _ => {
                // One seat passed, the other answered: no agreement.
                if let Answer::Text(a) = &left {
                    self.record_raw(task, a);
                }
                if let Answer::Text(b) = &right {
                    self.record_raw(task, b);
                }
                RoundOutcome::Mismatched
            }
        };
        if hc_obs::active() {
            hc_obs::observe(
                "serve.round.latency_us",
                at.ticks(),
                at.saturating_since(issued_at).ticks() as f64,
            );
        }
        let matched = matches!(outcome, RoundOutcome::Matched { .. });
        let match_points = self.platform.score_rule().match_points;
        let points = if matched { match_points } else { 0 };
        if let Some(live) = self.sessions.get_mut(&session) {
            live.session.record_round(RoundRecord {
                template: TemplateKind::OutputAgreement,
                task,
                matched,
                candidate_outputs: u32::from(matched),
                duration: at.saturating_since(issued_at),
                points: [points, points],
            });
        }
        Ok(Response::AnswerRecorded {
            session,
            round,
            outcome,
        })
    }

    fn close_session(&mut self, session: SessionId, at: SimTime) -> Result<Response, ServeError> {
        let Some(live) = self.sessions.remove(&session) else {
            return Err(ServeError::UnknownSession { session });
        };
        let transcript = live.session.finish(at);
        self.platform.record_session(&transcript);
        self.sessions_recorded += 1;
        if hc_obs::active() {
            hc_obs::observe(
                "serve.session.length_us",
                at.ticks(),
                transcript.duration().ticks() as f64,
            );
        }
        for p in live.players {
            self.players.insert(p, SessionPhase::Idle);
        }
        Ok(Response::SessionClosed {
            session,
            rounds: transcript.rounds() as u32,
            matched: transcript.matched_count() as u32,
            points: transcript.total_points,
        })
    }

    fn record_raw(&mut self, task: TaskId, label: &Label) {
        let sym = self.label_syms.intern(label.as_str());
        if sym.index() == self.label_text.len() {
            self.label_text.push(label.clone());
        }
        let tally = self.tallies.entry(task).or_default();
        tally.answers += 1;
        match tally.labels.iter_mut().find(|(s, _)| *s == sym) {
            Some((_, count)) => *count += 1,
            None => tally.labels.push((sym, 1)),
        }
    }

    /// Votes each of the job's tasks from its tally. Ties break to the
    /// label first seen in (task-enrollment, submission) order across
    /// the job: each label's job-level rank is assigned the first time
    /// the walk meets it, which is exactly the dense class index a
    /// [`hc_aggregate::LabelMatrix`] built in that order would give it.
    fn aggregate(&self, job: hc_core::JobId, threshold: u32) -> Result<Response, ServeError> {
        let tasks = self
            .platform
            .jobs()
            .get(job)
            .ok_or(ServeError::UnknownJob { job })?
            .tasks();
        let mut rank: Vec<Option<usize>> = vec![None; self.label_text.len()];
        let mut by_rank: Vec<Sym> = Vec::new();
        let mut counts: Vec<(usize, usize)> = Vec::new();
        let rows = tasks
            .iter()
            .map(|&task| {
                let Some(tally) = self.tallies.get(&task) else {
                    return AggregateRow {
                        task,
                        label: None,
                        support: 0,
                        answers: 0,
                    };
                };
                counts.clear();
                for &(sym, count) in &tally.labels {
                    let r = match rank.get_mut(sym.index()) {
                        Some(Some(r)) => *r,
                        Some(slot) => {
                            *slot = Some(by_rank.len());
                            by_rank.push(sym);
                            by_rank.len() - 1
                        }
                        None => continue,
                    };
                    counts.push((r, count as usize));
                }
                let winner =
                    plurality(counts.iter().copied(), threshold as usize).and_then(|(r, votes)| {
                        let sym = by_rank.get(r)?;
                        Some((self.label_text.get(sym.index())?.clone(), votes as u32))
                    });
                let (label, support) = winner.map_or((None, 0), |(l, v)| (Some(l), v));
                AggregateRow {
                    task,
                    label,
                    support,
                    answers: tally.answers,
                }
            })
            .collect();
        Ok(Response::Aggregated { job, rows })
    }
}

/// Which seat (0 = left, 1 = right) a player holds, if any.
fn seat_of(players: [PlayerId; 2], player: PlayerId) -> Option<usize> {
    if players[0] == player {
        Some(0)
    } else if players[1] == player {
        Some(1)
    } else {
        None
    }
}

/// Progress as a whole percentage, clamped to 0–100.
fn percent(progress: f64) -> u32 {
    let pct = (progress * 100.0).round();
    if pct <= 0.0 {
        0
    } else if pct >= 100.0 {
        100
    } else {
        pct as u32
    }
}

/// Maps the platform's typed errors into wire errors. The rest, such
/// as a task enrolled in a second job, become `InvalidRequest` with the
/// core error's text.
fn map_core(e: hc_core::Error) -> ServeError {
    match e {
        hc_core::Error::UnknownTask(task) => ServeError::UnknownTask { task },
        hc_core::Error::UnknownPlayer(player) => ServeError::UnknownPlayer { player },
        hc_core::Error::UnknownJob(job) => ServeError::UnknownJob { job },
        hc_core::Error::EmptyJob => ServeError::EmptyBatch,
        other => ServeError::InvalidRequest {
            reason: other.to_string(),
        },
    }
}
