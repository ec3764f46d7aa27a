//! End-to-end lifecycle coverage: publish → pair → play → export,
//! plus the typed-error surface.

use hc_core::jobs::{JobGoal, JobState};
use hc_core::{Answer, Label, PlayerId, SessionId, Stimulus, TaskId};
use hc_serve::front::handle_line;
use hc_serve::{Request, Response, RoundOutcome, ServeError, Service, ServiceConfig, SessionPhase};
use hc_sim::SimTime;

fn svc() -> Service {
    Service::new(ServiceConfig::default()).expect("default config is valid")
}

fn register(svc: &mut Service) -> PlayerId {
    match svc.handle(&Request::RegisterWorker) {
        Response::WorkerRegistered { player } => player,
        other => panic!("unexpected: {other:?}"),
    }
}

fn publish(svc: &mut Service, n: u64) -> (hc_core::JobId, Vec<TaskId>) {
    let stimuli: Vec<Stimulus> = (0..n).map(Stimulus::Image).collect();
    match svc.handle(&Request::PublishBatch {
        name: "batch".into(),
        goal: JobGoal::OutputsPerTask(1),
        stimuli,
    }) {
        Response::BatchPublished { job, tasks } => (job, tasks),
        other => panic!("unexpected: {other:?}"),
    }
}

/// Queues one player then pairs a second, returning the session.
fn seat_pair(svc: &mut Service, a: PlayerId, b: PlayerId, at: SimTime) -> SessionId {
    match svc.handle(&Request::OpenSession { player: a, at }) {
        Response::SessionQueued { waiting, .. } => assert_eq!(waiting, 1),
        other => panic!("unexpected: {other:?}"),
    }
    match svc.handle(&Request::OpenSession { player: b, at }) {
        Response::SessionOpened { session, players } => {
            assert_eq!(players, [a, b], "earlier arrival takes the left seat");
            session
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn full_lifecycle_produces_verified_labels() {
    let mut svc = svc();
    let (job, tasks) = publish(&mut svc, 3);
    assert_eq!(tasks.len(), 3);
    let a = register(&mut svc);
    let b = register(&mut svc);

    let t0 = SimTime::from_secs(1);
    let session = seat_pair(&mut svc, a, b, t0);

    // Both seats poll the same assignment.
    let assigned = svc.handle(&Request::RequestTask {
        session,
        player: a,
        at: t0,
    });
    let Response::TaskAssigned {
        round, task, taboo, ..
    } = assigned.clone()
    else {
        panic!("unexpected: {assigned:?}");
    };
    assert_eq!(round, 1);
    assert!(taboo.is_empty());
    let again = svc.handle(&Request::RequestTask {
        session,
        player: b,
        at: t0,
    });
    assert_eq!(
        assigned, again,
        "second asker sees the identical assignment"
    );

    // Agreement on "cat" promotes at the default threshold of 1.
    let r1 = svc.handle(&Request::SubmitAnswer {
        session,
        player: a,
        answer: Answer::text("Cat"),
        at: SimTime::from_secs(2),
    });
    assert!(matches!(
        r1,
        Response::AnswerRecorded {
            outcome: RoundOutcome::Waiting,
            ..
        }
    ));
    let r2 = svc.handle(&Request::SubmitAnswer {
        session,
        player: b,
        answer: Answer::text("cat"),
        at: SimTime::from_secs(3),
    });
    match r2 {
        Response::AnswerRecorded {
            outcome: RoundOutcome::Matched { label, promoted },
            ..
        } => {
            assert_eq!(label, Label::new("cat"));
            assert!(promoted);
        }
        other => panic!("unexpected: {other:?}"),
    }

    // The promoted label is now taboo on that task.
    match svc.handle(&Request::TaskStatus { task }) {
        Response::TaskStatusReport {
            verified, taboo, ..
        } => {
            assert_eq!(verified, 1);
            assert_eq!(taboo, vec![Label::new("cat")]);
        }
        other => panic!("unexpected: {other:?}"),
    }

    let closed = svc.handle(&Request::CloseSession {
        session,
        at: SimTime::from_secs(4),
    });
    match closed {
        Response::SessionClosed {
            rounds, matched, ..
        } => {
            assert_eq!(rounds, 1);
            assert_eq!(matched, 1);
        }
        other => panic!("unexpected: {other:?}"),
    }

    match svc.handle(&Request::JobStatus { job }) {
        Response::JobStatusReport { outputs, tasks, .. } => {
            assert_eq!(outputs, 1);
            assert_eq!(tasks, 3);
        }
        other => panic!("unexpected: {other:?}"),
    }

    match svc.handle(&Request::ExportResults { job }) {
        Response::ResultsExported { labels, .. } => {
            assert_eq!(labels.len(), 1);
            assert_eq!(labels[0].task, task);
            assert_eq!(labels[0].label, Label::new("cat"));
        }
        other => panic!("unexpected: {other:?}"),
    }

    match svc.handle(&Request::Aggregate { job, threshold: 1 }) {
        Response::Aggregated { rows, .. } => {
            assert_eq!(rows.len(), 3);
            let hit = rows.iter().find(|r| r.task == task).expect("row for task");
            assert_eq!(hit.label, Some(Label::new("cat")));
            assert_eq!(hit.support, 2);
            assert_eq!(hit.answers, 2);
        }
        other => panic!("unexpected: {other:?}"),
    }

    match svc.handle(&Request::Metrics) {
        Response::MetricsReport {
            players,
            waiting,
            live_sessions,
            sessions_recorded,
            verified_labels,
            ..
        } => {
            assert_eq!(players, 2);
            assert_eq!(waiting, 0);
            assert_eq!(live_sessions, 0);
            assert_eq!(sessions_recorded, 1);
            assert_eq!(verified_labels, 1);
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn poll_session_tracks_phases() {
    let mut svc = svc();
    publish(&mut svc, 1);
    let a = register(&mut svc);
    let b = register(&mut svc);
    let phase = |svc: &mut Service, p| match svc.handle(&Request::PollSession { player: p }) {
        Response::SessionStatus { phase, .. } => phase,
        other => panic!("unexpected: {other:?}"),
    };
    assert_eq!(phase(&mut svc, a), SessionPhase::Idle);
    svc.handle(&Request::OpenSession {
        player: a,
        at: SimTime::ZERO,
    });
    assert_eq!(phase(&mut svc, a), SessionPhase::Waiting);
    let session = match svc.handle(&Request::OpenSession {
        player: b,
        at: SimTime::ZERO,
    }) {
        Response::SessionOpened { session, .. } => session,
        other => panic!("unexpected: {other:?}"),
    };
    assert_eq!(phase(&mut svc, a), SessionPhase::Seated { session });
    svc.handle(&Request::CloseSession {
        session,
        at: SimTime::from_secs(1),
    });
    assert_eq!(phase(&mut svc, a), SessionPhase::Idle);
    assert_eq!(phase(&mut svc, b), SessionPhase::Idle);
}

#[test]
fn mismatch_pass_and_taboo_paths() {
    let mut svc = svc();
    publish(&mut svc, 2);
    let a = register(&mut svc);
    let b = register(&mut svc);
    let session = seat_pair(&mut svc, a, b, SimTime::ZERO);
    let task = match svc.handle(&Request::RequestTask {
        session,
        player: a,
        at: SimTime::ZERO,
    }) {
        Response::TaskAssigned { task, .. } => task,
        other => panic!("unexpected: {other:?}"),
    };

    // Round 1: disagreement.
    svc.handle(&Request::SubmitAnswer {
        session,
        player: a,
        answer: Answer::text("dog"),
        at: SimTime::from_secs(1),
    });
    let r = svc.handle(&Request::SubmitAnswer {
        session,
        player: b,
        answer: Answer::text("fish"),
        at: SimTime::from_secs(1),
    });
    assert!(matches!(
        r,
        Response::AnswerRecorded {
            outcome: RoundOutcome::Mismatched,
            ..
        }
    ));
    match svc.handle(&Request::TaskStatus { task }) {
        Response::TaskStatusReport { verified, .. } => assert_eq!(verified, 0),
        other => panic!("unexpected: {other:?}"),
    }

    // Round 2: both pass.
    svc.handle(&Request::RequestTask {
        session,
        player: a,
        at: SimTime::from_secs(2),
    });
    svc.handle(&Request::SubmitAnswer {
        session,
        player: a,
        answer: Answer::Pass,
        at: SimTime::from_secs(2),
    });
    let r = svc.handle(&Request::SubmitAnswer {
        session,
        player: b,
        answer: Answer::Pass,
        at: SimTime::from_secs(2),
    });
    assert!(matches!(
        r,
        Response::AnswerRecorded {
            outcome: RoundOutcome::Passed,
            ..
        }
    ));
}

#[test]
fn typed_errors_cover_misuse() {
    let mut svc = svc();
    let err = |resp: Response| -> ServeError {
        match resp {
            Response::Error { error } => error,
            other => panic!("expected an error, got {other:?}"),
        }
    };

    // Unknown entities.
    assert!(matches!(
        err(svc.handle(&Request::PollSession {
            player: PlayerId::new(99)
        })),
        ServeError::UnknownPlayer { .. }
    ));
    assert!(matches!(
        err(svc.handle(&Request::JobStatus {
            job: hc_core::JobId::new(7)
        })),
        ServeError::UnknownJob { .. }
    ));
    assert!(matches!(
        err(svc.handle(&Request::TaskStatus {
            task: TaskId::new(7)
        })),
        ServeError::UnknownTask { .. }
    ));
    assert!(matches!(
        err(svc.handle(&Request::CloseSession {
            session: SessionId::new(3),
            at: SimTime::ZERO,
        })),
        ServeError::UnknownSession { .. }
    ));

    // Empty batch and empty gold.
    assert!(matches!(
        err(svc.handle(&Request::PublishBatch {
            name: "empty".into(),
            goal: JobGoal::OutputsPerTask(1),
            stimuli: vec![],
        })),
        ServeError::EmptyBatch
    ));
    assert!(matches!(
        err(svc.handle(&Request::PublishGold {
            stimulus: Stimulus::Image(0),
            accepted: vec![],
        })),
        ServeError::InvalidRequest { .. }
    ));

    // Double-open and in-session misuse.
    publish(&mut svc, 1);
    let a = register(&mut svc);
    let b = register(&mut svc);
    let c = register(&mut svc);
    svc.handle(&Request::OpenSession {
        player: a,
        at: SimTime::ZERO,
    });
    assert!(matches!(
        err(svc.handle(&Request::OpenSession {
            player: a,
            at: SimTime::ZERO,
        })),
        ServeError::AlreadyWaiting { .. }
    ));
    let session = match svc.handle(&Request::OpenSession {
        player: b,
        at: SimTime::ZERO,
    }) {
        Response::SessionOpened { session, .. } => session,
        other => panic!("unexpected: {other:?}"),
    };
    assert!(matches!(
        err(svc.handle(&Request::OpenSession {
            player: b,
            at: SimTime::ZERO,
        })),
        ServeError::AlreadyInSession { .. }
    ));
    assert!(matches!(
        err(svc.handle(&Request::RequestTask {
            session,
            player: c,
            at: SimTime::ZERO,
        })),
        ServeError::NotInSession { .. }
    ));

    // Answer without an assignment, then answer-kind and duplicate checks.
    assert!(matches!(
        err(svc.handle(&Request::SubmitAnswer {
            session,
            player: a,
            answer: Answer::text("x"),
            at: SimTime::ZERO,
        })),
        ServeError::NoAssignment { .. }
    ));
    svc.handle(&Request::RequestTask {
        session,
        player: a,
        at: SimTime::ZERO,
    });
    assert!(matches!(
        err(svc.handle(&Request::SubmitAnswer {
            session,
            player: a,
            answer: Answer::Choice(2),
            at: SimTime::ZERO,
        })),
        ServeError::AnswerKindMismatch { .. }
    ));
    svc.handle(&Request::SubmitAnswer {
        session,
        player: a,
        answer: Answer::text("x"),
        at: SimTime::ZERO,
    });
    assert!(matches!(
        err(svc.handle(&Request::SubmitAnswer {
            session,
            player: a,
            answer: Answer::text("y"),
            at: SimTime::ZERO,
        })),
        ServeError::DuplicateAnswer { .. }
    ));
}

#[test]
fn taboo_label_is_rejected_on_resubmission() {
    let mut svc = svc();
    publish(&mut svc, 1);
    let a = register(&mut svc);
    let b = register(&mut svc);
    let session = seat_pair(&mut svc, a, b, SimTime::ZERO);
    svc.handle(&Request::RequestTask {
        session,
        player: a,
        at: SimTime::ZERO,
    });
    svc.handle(&Request::SubmitAnswer {
        session,
        player: a,
        answer: Answer::text("sun"),
        at: SimTime::ZERO,
    });
    svc.handle(&Request::SubmitAnswer {
        session,
        player: b,
        answer: Answer::text("sun"),
        at: SimTime::ZERO,
    });
    // Same task comes back only to a fresh pair; instead drive a second
    // pair onto the single (now-tabooed) task.
    let c = register(&mut svc);
    let d = register(&mut svc);
    let s2 = seat_pair(&mut svc, c, d, SimTime::from_secs(5));
    let taboo = match svc.handle(&Request::RequestTask {
        session: s2,
        player: c,
        at: SimTime::from_secs(5),
    }) {
        Response::TaskAssigned { taboo, .. } => taboo,
        other => panic!("unexpected: {other:?}"),
    };
    assert_eq!(taboo, vec![Label::new("sun")]);
    let r = svc.handle(&Request::SubmitAnswer {
        session: s2,
        player: c,
        answer: Answer::text("Sun"),
        at: SimTime::from_secs(6),
    });
    match r {
        Response::Error {
            error: ServeError::TabooLabel { label },
        } => assert_eq!(label, Label::new("sun")),
        other => panic!("unexpected: {other:?}"),
    }
}

/// The taboo list a `RequestTask` hands `player`.
fn assigned_taboo(svc: &mut Service, session: SessionId, player: PlayerId) -> Vec<Label> {
    match svc.handle(&Request::RequestTask {
        session,
        player,
        at: SimTime::from_secs(1),
    }) {
        Response::TaskAssigned { taboo, .. } => taboo,
        other => panic!("unexpected: {other:?}"),
    }
}

/// Both seats submit `word`; returns the right seat's response.
fn both_answer(
    svc: &mut Service,
    session: SessionId,
    seats: [PlayerId; 2],
    word: &str,
) -> Response {
    let submit = |player| Request::SubmitAnswer {
        session,
        player,
        answer: Answer::text(word),
        at: SimTime::from_secs(2),
    };
    svc.handle(&submit(seats[0]));
    svc.handle(&submit(seats[1]))
}

#[test]
fn taboo_lists_keep_promotion_order_and_round_snapshots() {
    let mut svc = svc();
    let (_, tasks) = publish(&mut svc, 1);
    let pairs: Vec<[PlayerId; 2]> = (0..3)
        .map(|_| [register(&mut svc), register(&mut svc)])
        .collect();
    let sessions: Vec<SessionId> = pairs
        .iter()
        .map(|&[a, b]| seat_pair(&mut svc, a, b, SimTime::ZERO))
        .collect();
    // The first pair promotes "sun".
    assert!(assigned_taboo(&mut svc, sessions[0], pairs[0][0]).is_empty());
    both_answer(&mut svc, sessions[0], pairs[0], "sun");
    // The second and third pairs are assigned the task with "sun" taboo.
    let sun = vec![Label::new("sun")];
    assert_eq!(assigned_taboo(&mut svc, sessions[1], pairs[1][0]), sun);
    assert_eq!(assigned_taboo(&mut svc, sessions[2], pairs[2][0]), sun);
    // The second pair promotes "apple", which sorts before "sun".
    let r = both_answer(&mut svc, sessions[1], pairs[1], "apple");
    assert!(
        matches!(
            r,
            Response::AnswerRecorded {
                outcome: RoundOutcome::Matched { promoted: true, .. },
                ..
            }
        ),
        "unexpected: {r:?}"
    );
    // The task lists its labels in promotion order...
    match svc.handle(&Request::TaskStatus { task: tasks[0] }) {
        Response::TaskStatusReport { taboo, .. } => {
            assert_eq!(taboo, vec![Label::new("sun"), Label::new("apple")]);
        }
        other => panic!("unexpected: {other:?}"),
    }
    // ...while the third pair's open round keeps the list it was assigned
    // with: its other seat polls the same snapshot, and "apple" is
    // still allowed there.
    assert_eq!(assigned_taboo(&mut svc, sessions[2], pairs[2][1]), sun);
    let r = both_answer(&mut svc, sessions[2], pairs[2], "apple");
    assert!(
        matches!(
            r,
            Response::AnswerRecorded {
                outcome: RoundOutcome::Matched { .. },
                ..
            }
        ),
        "unexpected: {r:?}"
    );
}

#[test]
fn cancel_job_stops_it_and_is_idempotent() {
    let mut svc = svc();
    let (job, _) = publish(&mut svc, 2);
    let r = svc.handle(&Request::CancelJob {
        job,
        at: SimTime::from_secs(9),
    });
    assert!(matches!(r, Response::JobCancelled { .. }));
    match svc.handle(&Request::JobStatus { job }) {
        Response::JobStatusReport { state, .. } => assert_eq!(state, JobState::Cancelled),
        other => panic!("unexpected: {other:?}"),
    }
    // Second cancel is a no-op, not an error.
    let r = svc.handle(&Request::CancelJob {
        job,
        at: SimTime::from_secs(10),
    });
    assert!(matches!(r, Response::JobCancelled { .. }));
}

#[test]
fn aggregate_ties_break_to_the_label_first_seen_in_an_earlier_task() {
    let mut svc = svc();
    let (job, tasks) = publish(&mut svc, 2);
    let a = register(&mut svc);
    let b = register(&mut svc);
    let session = seat_pair(&mut svc, a, b, SimTime::from_secs(1));

    // Task 0 splits cat/dog, task 1 splits bird/dog; both are mismatches,
    // so nothing is promoted or made taboo.
    for round in 0..2u64 {
        let at = SimTime::from_secs(2 + round);
        let task = match svc.handle(&Request::RequestTask {
            session,
            player: a,
            at,
        }) {
            Response::TaskAssigned { task, .. } => task,
            other => panic!("unexpected: {other:?}"),
        };
        let [left, right] = if task == tasks[0] {
            ["cat", "dog"]
        } else {
            ["bird", "dog"]
        };
        for (player, word) in [(a, left), (b, right)] {
            let r = svc.handle(&Request::SubmitAnswer {
                session,
                player,
                answer: Answer::text(word),
                at,
            });
            assert!(matches!(r, Response::AnswerRecorded { .. }), "{r:?}");
        }
    }

    // Job-level first-seen order is cat, dog (task 0), then bird (task
    // 1). Task 0's tie goes to cat. Task 1's tie goes to dog, although
    // bird was submitted first within task 1, because dog was first
    // seen in the earlier task.
    let row = |label: Option<&str>, task: TaskId, support: u32| hc_serve::AggregateRow {
        task,
        label: label.map(Label::new),
        support,
        answers: 2,
    };
    match svc.handle(&Request::Aggregate { job, threshold: 1 }) {
        Response::Aggregated { rows, .. } => assert_eq!(
            rows,
            vec![row(Some("cat"), tasks[0], 1), row(Some("dog"), tasks[1], 1)]
        ),
        other => panic!("unexpected: {other:?}"),
    }
    // No label reaches two votes: both tasks abstain.
    match svc.handle(&Request::Aggregate { job, threshold: 2 }) {
        Response::Aggregated { rows, .. } => {
            assert_eq!(rows, vec![row(None, tasks[0], 0), row(None, tasks[1], 0)]);
        }
        other => panic!("unexpected: {other:?}"),
    }
}

/// A `SubmitAnswer` line carrying `raw` as the answer text, unnormalized,
/// the way a client can put it on the wire.
fn raw_submit_line(session: SessionId, player: PlayerId, raw: &str) -> String {
    let line = serde_json::to_string(&Request::SubmitAnswer {
        session,
        player,
        answer: Answer::text("placeholder"),
        at: SimTime::from_secs(6),
    })
    .expect("encodes");
    let line = line.replace(
        "\"placeholder\"",
        &serde_json::to_string(raw).expect("encodes"),
    );
    assert!(line.contains(raw), "{line}");
    line
}

fn error_reply(line: &str, svc: &mut Service) -> ServeError {
    let reply = handle_line(line, svc);
    match serde_json::from_str(&reply).expect("reply decodes") {
        Response::Error { error } => error,
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn wire_labels_are_normalized_before_the_taboo_check() {
    let mut svc = svc();
    publish(&mut svc, 1);
    let first = [register(&mut svc), register(&mut svc)];
    let [c, d] = [register(&mut svc), register(&mut svc)];
    let s1 = seat_pair(&mut svc, first[0], first[1], SimTime::ZERO);
    assigned_taboo(&mut svc, s1, first[0]);
    both_answer(&mut svc, s1, first, "sun");
    let s2 = seat_pair(&mut svc, c, d, SimTime::from_secs(5));
    assert_eq!(assigned_taboo(&mut svc, s2, c), vec![Label::new("sun")]);
    for raw in ["SUN", "Sun!", "  suns "] {
        assert_eq!(
            error_reply(&raw_submit_line(s2, c, raw), &mut svc),
            ServeError::TabooLabel {
                label: Label::new("sun")
            },
            "{raw}"
        );
    }
}

#[test]
fn wire_labels_that_normalize_to_nothing_are_refused() {
    let mut svc = svc();
    publish(&mut svc, 1);
    let [a, b] = [register(&mut svc), register(&mut svc)];
    let session = seat_pair(&mut svc, a, b, SimTime::ZERO);
    assigned_taboo(&mut svc, session, a);
    assert_eq!(
        error_reply(&raw_submit_line(session, a, "!?!"), &mut svc),
        ServeError::InvalidRequest {
            reason: "empty label after normalization".to_string()
        }
    );
}

/// Known defect, pinned until `normalize_label` is made idempotent
/// (ROADMAP item 1): a taboo label whose normal form is not a fixed point
/// of normalization cannot be echoed into a `TabooLabel`. `gases`
/// promotes `gas`; the wire text `gas` decodes as `Label::new("gas")`,
/// which is `ga`, and is recorded. Before decoding normalized labels the
/// echo was compared verbatim and refused. When normalization is fixed,
/// this test's last assertion flips to `TabooLabel`.
#[test]
fn echoing_a_taboo_label_that_normalizes_again_is_recorded() {
    let mut svc = svc();
    publish(&mut svc, 1);
    let first = [register(&mut svc), register(&mut svc)];
    let [c, d] = [register(&mut svc), register(&mut svc)];
    let s1 = seat_pair(&mut svc, first[0], first[1], SimTime::ZERO);
    assigned_taboo(&mut svc, s1, first[0]);
    both_answer(&mut svc, s1, first, "gases");
    let s2 = seat_pair(&mut svc, c, d, SimTime::from_secs(5));
    assert_eq!(assigned_taboo(&mut svc, s2, c), vec![Label::new("gases")]);
    assert_eq!(Label::new("gases").as_str(), "gas");
    // Compared as text: decoding the reply would normalize `gas` again.
    let refused = handle_line(&raw_submit_line(s2, c, "gases"), &mut svc);
    assert!(
        refused.contains(r#""TabooLabel":{"label":"gas"}"#),
        "{refused}"
    );
    let reply = handle_line(&raw_submit_line(s2, c, "gas"), &mut svc);
    match serde_json::from_str(&reply).expect("reply decodes") {
        Response::AnswerRecorded { .. } => {}
        other => panic!("unexpected: {other:?}"),
    }
}
