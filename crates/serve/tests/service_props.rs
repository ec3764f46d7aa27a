//! Property tests for the service: random valid lifecycle scripts are
//! interpreted against a hand-derived oracle model, and the recorded
//! request log is replayed against a fresh service to prove the
//! response log is a pure function of (config, requests).

use hc_core::jobs::{JobGoal, JobState};
use hc_core::matchmaker::MatchmakerConfig;
use hc_core::{Answer, JobId, Label, PlatformConfig, PlayerId, SessionId, Stimulus, TaskId};
use hc_serve::{Request, Response, RoundOutcome, ServeError, Service, ServiceConfig, SessionPhase};
use hc_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Fixed config the oracle is derived for: no gold injection (no
/// hidden RNG draws on the serving path), promote on first agreement,
/// and no rematch avoidance so one waiting player always pairs.
fn config() -> ServiceConfig {
    let mut platform = PlatformConfig {
        agreement_threshold: 1,
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    };
    platform.matchmaker = MatchmakerConfig {
        avoid_rematch: false,
        ..MatchmakerConfig::default()
    };
    ServiceConfig { platform, seed: 7 }
}

const VOCAB: [&str; 4] = ["red", "blue", "green", "gold"];

/// One raw op drawn by proptest; the interpreter grounds it in current
/// model state so scripts are always structurally valid.
type RawOp = (u8, u64, u64);

/// The oracle's view of one live session.
#[derive(Debug, Default, Clone)]
struct ModelSession {
    players: [PlayerId; 2],
    rounds_played: u32,
    matched: u32,
    current: Option<ModelRound>,
}

#[derive(Debug, Clone)]
struct ModelRound {
    round: u32,
    task: TaskId,
    answers: [Option<Answer>; 2],
}

/// The oracle's view of one job: credits stop once its goal is met.
#[derive(Debug, Clone)]
struct ModelJob {
    id: JobId,
    tasks: Vec<TaskId>,
    goal: JobGoal,
    /// Credited outputs per task.
    outputs: BTreeMap<TaskId, u32>,
    completed: bool,
}

impl ModelJob {
    fn credited(&self) -> u64 {
        self.outputs.values().map(|&n| u64::from(n)).sum()
    }

    /// Progress toward the goal as a fraction `(done, needed)`.
    fn progress(&self) -> (u64, u64) {
        match self.goal {
            JobGoal::OutputsPerTask(per) => {
                let done = self.outputs.values().map(|&n| u64::from(n.min(per))).sum();
                (done, self.tasks.len() as u64 * u64::from(per))
            }
            JobGoal::TotalOutputs(total) => (self.credited().min(total), total),
        }
    }

    fn credit(&mut self, task: TaskId) {
        if self.completed {
            return;
        }
        *self.outputs.entry(task).or_default() += 1;
        let (done, needed) = self.progress();
        self.completed = done >= needed;
    }

    /// `progress_pct`: the fraction as a percentage rounded half up.
    fn progress_pct(&self) -> u32 {
        let (done, needed) = self.progress();
        if needed == 0 {
            return 100;
        }
        ((200 * done + needed) / (2 * needed)) as u32
    }
}

/// Hand-derived model of the service under the fixed [`config`].
#[derive(Debug, Default)]
struct Model {
    players: Vec<PlayerId>,
    phases: BTreeMap<PlayerId, SessionPhase>,
    jobs: Vec<ModelJob>,
    waiting: Option<PlayerId>,
    sessions: BTreeMap<SessionId, ModelSession>,
    taboo: BTreeMap<TaskId, Vec<Label>>,
    raw_counts: BTreeMap<TaskId, u32>,
    /// (job, task, label, at) in promotion order.
    verified: Vec<(JobId, TaskId, Label, SimTime)>,
    next_player: u64,
    next_session: u64,
    next_job: u64,
    next_task: u64,
    sessions_recorded: u64,
}

impl Model {
    fn job_of(&mut self, task: TaskId) -> Option<&mut ModelJob> {
        self.jobs.iter_mut().find(|j| j.tasks.contains(&task))
    }

    fn live_sessions(&self) -> Vec<SessionId> {
        self.sessions.keys().copied().collect()
    }
}

/// Grounds one raw op into a concrete request, or `None` when the op
/// has no valid target in the current model state.
fn ground(op: RawOp, model: &Model, at: SimTime) -> Option<Request> {
    let (code, a, b) = op;
    match code {
        0 => Some(Request::RegisterWorker),
        1 => {
            let n = a % 3 + 1;
            let goal = match a / 3 % 4 {
                0 => JobGoal::OutputsPerTask(1),
                1 => JobGoal::OutputsPerTask(2),
                k => JobGoal::TotalOutputs(k - 1),
            };
            Some(Request::PublishBatch {
                name: format!("job-{}", model.next_job),
                goal,
                stimuli: (0..n).map(|i| Stimulus::Image(b * 10 + i)).collect(),
            })
        }
        2 => {
            if model.players.is_empty() {
                return None;
            }
            let player = model.players[(a as usize) % model.players.len()];
            Some(Request::OpenSession { player, at })
        }
        3 | 10 | 11 => {
            let live = model.live_sessions();
            if live.is_empty() {
                return None;
            }
            let session = live[(a as usize) % live.len()];
            let seat = (b as usize) % 2;
            let player = model.sessions[&session].players[seat];
            Some(Request::RequestTask {
                session,
                player,
                at,
            })
        }
        4 | 12..=14 => {
            let live = model.live_sessions();
            if live.is_empty() {
                return None;
            }
            let session = live[(a as usize) % live.len()];
            let mut seat = (a as usize / 7) % 2;
            let mut answer = match b % 5 {
                4 => Answer::Pass,
                i => Answer::text(VOCAB[i as usize]),
            };
            // Codes 12–14 agree: the open seat types what its partner
            // typed, so scripts promote often enough to complete jobs.
            let typed = model.sessions[&session].current.as_ref().and_then(|cur| {
                cur.answers
                    .iter()
                    .position(|ans| matches!(ans, Some(Answer::Text(_))))
                    .filter(|&other| cur.answers[1 - other].is_none())
                    .map(|other| (1 - other, cur.answers[other].clone()))
            });
            if let (12..=14, Some((open, Some(text)))) = (code, typed) {
                seat = open;
                answer = text;
            }
            let player = model.sessions[&session].players[seat];
            Some(Request::SubmitAnswer {
                session,
                player,
                answer,
                at,
            })
        }
        5 => {
            let live = model.live_sessions();
            if live.is_empty() {
                return None;
            }
            let session = live[(a as usize) % live.len()];
            Some(Request::CloseSession { session, at })
        }
        6 | 15 => {
            if model.jobs.is_empty() {
                return None;
            }
            let job = model.jobs[(a as usize) % model.jobs.len()].id;
            Some(Request::JobStatus { job })
        }
        7 => {
            if model.jobs.is_empty() {
                return None;
            }
            let job = model.jobs[(a as usize) % model.jobs.len()].id;
            Some(Request::ExportResults { job })
        }
        8 => {
            if model.players.is_empty() {
                return None;
            }
            let player = model.players[(a as usize) % model.players.len()];
            Some(Request::PollSession { player })
        }
        _ => Some(Request::Metrics),
    }
}

/// Applies one request to the model and returns what the oracle
/// expects back; `None` means "structurally valid but the exact
/// response depends on platform internals the oracle does not model"
/// (task selection), in which case the caller validates invariants and
/// adopts the observed assignment.
fn expect(model: &mut Model, request: &Request, response: &Response) -> Option<Response> {
    match request {
        Request::RegisterWorker => {
            let player = PlayerId::new(model.next_player);
            model.next_player += 1;
            model.players.push(player);
            model.phases.insert(player, SessionPhase::Idle);
            Some(Response::WorkerRegistered { player })
        }
        Request::PublishBatch { stimuli, goal, .. } => {
            let job = JobId::new(model.next_job);
            model.next_job += 1;
            let tasks: Vec<TaskId> = (0..stimuli.len())
                .map(|_| {
                    let t = TaskId::new(model.next_task);
                    model.next_task += 1;
                    t
                })
                .collect();
            model.jobs.push(ModelJob {
                id: job,
                tasks: tasks.clone(),
                goal: *goal,
                outputs: BTreeMap::new(),
                completed: false,
            });
            Some(Response::BatchPublished { job, tasks })
        }
        Request::OpenSession { player, at } => {
            match model.phases.get(player) {
                Some(SessionPhase::Waiting) => {
                    return Some(Response::Error {
                        error: ServeError::AlreadyWaiting { player: *player },
                    })
                }
                Some(SessionPhase::Seated { session }) => {
                    return Some(Response::Error {
                        error: ServeError::AlreadyInSession {
                            player: *player,
                            session: *session,
                        },
                    })
                }
                _ => {}
            }
            match model.waiting.take() {
                None => {
                    model.waiting = Some(*player);
                    model.phases.insert(*player, SessionPhase::Waiting);
                    Some(Response::SessionQueued {
                        player: *player,
                        waiting: 1,
                    })
                }
                Some(partner) => {
                    let session = SessionId::new(model.next_session);
                    model.next_session += 1;
                    let players = [partner, *player];
                    model.sessions.insert(
                        session,
                        ModelSession {
                            players,
                            ..ModelSession::default()
                        },
                    );
                    model
                        .phases
                        .insert(partner, SessionPhase::Seated { session });
                    model
                        .phases
                        .insert(*player, SessionPhase::Seated { session });
                    let _ = at;
                    Some(Response::SessionOpened { session, players })
                }
            }
        }
        Request::PollSession { player } => Some(Response::SessionStatus {
            player: *player,
            phase: *model.phases.get(player).expect("grounded on known player"),
        }),
        Request::RequestTask { session, .. } => {
            let s = model.sessions.get(session).expect("grounded on live");
            if let Some(cur) = &s.current {
                // Idempotent re-ask: the exact prior assignment.
                let taboo = model.taboo.get(&cur.task).cloned().unwrap_or_default();
                match response {
                    Response::TaskAssigned {
                        session: rs,
                        round,
                        task,
                        taboo: rt,
                        ..
                    } => {
                        assert_eq!(*rs, *session);
                        assert_eq!(*round, cur.round);
                        assert_eq!(*task, cur.task);
                        assert_eq!(*rt, taboo);
                    }
                    other => panic!("expected idempotent TaskAssigned, got {other:?}"),
                }
                return None;
            }
            if s.rounds_played >= 15 {
                return Some(Response::Error {
                    error: ServeError::SessionOver { session: *session },
                });
            }
            // Fresh assignment: the oracle does not model queue policy,
            // so validate invariants and adopt.
            match response {
                Response::TaskAssigned {
                    session: rs,
                    round,
                    task,
                    taboo,
                    ..
                } => {
                    assert_eq!(*rs, *session);
                    assert_eq!(*round, s.rounds_played + 1);
                    assert!(
                        model.jobs.iter().any(|j| j.tasks.contains(task)),
                        "assigned task {task} was never published"
                    );
                    assert_eq!(
                        *taboo,
                        model.taboo.get(task).cloned().unwrap_or_default(),
                        "taboo list drifted for {task}"
                    );
                    let round = ModelRound {
                        round: *round,
                        task: *task,
                        answers: [None, None],
                    };
                    if let Some(s) = model.sessions.get_mut(session) {
                        s.current = Some(round);
                    }
                }
                Response::Error {
                    error: ServeError::NoTaskAvailable { .. },
                } => {}
                other => panic!("expected TaskAssigned or NoTaskAvailable, got {other:?}"),
            }
            None
        }
        Request::SubmitAnswer {
            session,
            player,
            answer,
            at,
        } => {
            let s = model.sessions.get(session).expect("grounded on live");
            let seat = if s.players[0] == *player { 0 } else { 1 };
            let Some(cur) = s.current.clone() else {
                return Some(Response::Error {
                    error: ServeError::NoAssignment { session: *session },
                });
            };
            if cur.answers[seat].is_some() {
                return Some(Response::Error {
                    error: ServeError::DuplicateAnswer {
                        session: *session,
                        player: *player,
                    },
                });
            }
            if let Answer::Text(label) = answer {
                if model
                    .taboo
                    .get(&cur.task)
                    .is_some_and(|t| t.contains(label))
                {
                    return Some(Response::Error {
                        error: ServeError::TabooLabel {
                            label: label.clone(),
                        },
                    });
                }
            }
            let mut answers = cur.answers.clone();
            answers[seat] = Some(answer.clone());
            let (both, outcome) = match (&answers[0], &answers[1]) {
                (Some(a), Some(b)) => {
                    let outcome = match (a, b) {
                        (Answer::Pass, Answer::Pass) => RoundOutcome::Passed,
                        (Answer::Text(x), Answer::Text(y)) if x == y => RoundOutcome::Matched {
                            label: x.clone(),
                            promoted: true,
                        },
                        _ => RoundOutcome::Mismatched,
                    };
                    (true, outcome)
                }
                _ => (false, RoundOutcome::Waiting),
            };
            // Book-keeping on resolution.
            if both {
                for ans in &answers {
                    if let Some(Answer::Text(_)) = ans {
                        *model.raw_counts.entry(cur.task).or_default() += 1;
                    }
                }
                if let RoundOutcome::Matched { label, .. } = &outcome {
                    model.taboo.entry(cur.task).or_default().push(label.clone());
                    let job = model.job_of(cur.task).expect("task has a job");
                    job.credit(cur.task);
                    let job = job.id;
                    model.verified.push((job, cur.task, label.clone(), *at));
                }
                if let Some(s) = model.sessions.get_mut(session) {
                    s.current = None;
                    s.rounds_played += 1;
                    if matches!(outcome, RoundOutcome::Matched { .. }) {
                        s.matched += 1;
                    }
                }
            } else if let Some(s) = model.sessions.get_mut(session) {
                if let Some(cur) = s.current.as_mut() {
                    cur.answers = answers;
                }
            }
            Some(Response::AnswerRecorded {
                session: *session,
                round: cur.round,
                outcome,
            })
        }
        Request::CloseSession { session, .. } => {
            let s = model.sessions.remove(session).expect("grounded on live");
            for p in s.players {
                model.phases.insert(p, SessionPhase::Idle);
            }
            model.sessions_recorded += 1;
            let points = u64::from(s.matched) * 100;
            Some(Response::SessionClosed {
                session: *session,
                rounds: s.rounds_played,
                matched: s.matched,
                points: [points, points],
            })
        }
        Request::JobStatus { job } => {
            let j = model
                .jobs
                .iter()
                .find(|j| j.id == *job)
                .expect("grounded on known job");
            Some(Response::JobStatusReport {
                job: *job,
                state: if j.completed {
                    JobState::Completed
                } else {
                    JobState::Active
                },
                tasks: j.tasks.len() as u32,
                outputs: j.credited(),
                progress_pct: j.progress_pct(),
            })
        }
        Request::ExportResults { job } => {
            let labels = model
                .verified
                .iter()
                .filter(|(j, ..)| j == job)
                .map(|(_, task, label, at)| hc_serve::ExportedLabel {
                    task: *task,
                    label: label.clone(),
                    at: *at,
                })
                .collect();
            Some(Response::ResultsExported { job: *job, labels })
        }
        Request::Metrics => Some(Response::MetricsReport {
            players: model.players.len() as u64,
            waiting: u32::from(model.waiting.is_some()),
            live_sessions: model.sessions.len() as u32,
            sessions_recorded: model.sessions_recorded,
            verified_labels: model.verified.len() as u64,
            rejected_agreements: 0,
        }),
        other => panic!("interpreter never grounds {other:?}"),
    }
}

fn render_log(responses: &[Response]) -> String {
    let mut out = String::new();
    for r in responses {
        out.push_str(&serde_json::to_string(r).expect("response encodes"));
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random scripts match the oracle, and replaying the request log
    /// reproduces the response log byte for byte.
    #[test]
    fn scripts_match_oracle_and_replay_bytes(
        ops in proptest::collection::vec((0u8..16, 0u64..1000, 0u64..1000), 1..160)
    ) {
        let mut svc = Service::new(config()).expect("config valid");
        let mut model = Model::default();
        let mut requests: Vec<Request> = Vec::new();
        let mut responses: Vec<Response> = Vec::new();

        for (step, op) in ops.iter().enumerate() {
            let at = SimTime::from_secs(step as u64 + 1);
            let Some(request) = ground(*op, &model, at) else { continue };
            let response = svc.handle(&request);
            if let Some(expected) = expect(&mut model, &request, &response) {
                prop_assert_eq!(
                    &response, &expected,
                    "oracle mismatch on {:?}", request
                );
            }
            requests.push(request);
            responses.push(response);
        }

        // Replay: a fresh service fed the recorded request log must
        // reproduce the response log exactly.
        let mut replay = Service::new(config()).expect("config valid");
        let replayed: Vec<Response> = requests.iter().map(|r| replay.handle(r)).collect();
        prop_assert_eq!(
            render_log(&responses),
            render_log(&replayed),
            "replay diverged"
        );
    }
}
