//! Equivalence tests for `Request::Aggregate`: the service votes from
//! per-task label tallies, and every row must equal what the
//! label-matrix path computes from the answers the service recorded.
//! Sessions answer from a 2–4-word alphabet so ties are common, with
//! passes and taboo rejections mixed in, over two jobs that share
//! labels.

use hc_aggregate::{Aggregator, AgreementThreshold, Assignment, LabelMatrix, MajorityVote};
use hc_core::jobs::JobGoal;
use hc_core::matchmaker::MatchmakerConfig;
use hc_core::{Answer, JobId, Label, PlatformConfig, PlayerId, SessionId, Stimulus, TaskId};
use hc_serve::{AggregateRow, Request, Response, RoundOutcome, ServeError, Service, ServiceConfig};
use hc_sim::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

const VOCAB: [&str; 4] = ["red", "blue", "green", "gold"];
const PAIRS: usize = 6;

/// Recorded text answers per task, in the order the service records
/// them: left seat, then right seat, per resolved round.
type RawAnswers = BTreeMap<TaskId, Vec<(PlayerId, Label)>>;

/// No gold injection and no rematch avoidance, so every session is
/// seated from exactly two arrivals and every served task is a job task;
/// promotion on the first agreement makes taboo rejections common.
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
    ServiceConfig { platform, seed: 11 }
}

/// The aggregation the service ran before it kept tallies, verbatim in
/// substance: dense class and worker indices in first-seen order
/// (job-task enrollment, then submission order), a [`LabelMatrix`], the
/// matrix voters, and a rescan of the raw answers for `support`.
fn oracle(tasks: &[TaskId], raw: &RawAnswers, threshold: u32) -> Vec<AggregateRow> {
    let mut classes: Vec<Label> = Vec::new();
    let mut workers: Vec<PlayerId> = Vec::new();
    let mut assignments: Vec<Assignment> = Vec::new();
    let mut answer_counts: Vec<u32> = vec![0; tasks.len()];
    for (ti, task) in tasks.iter().enumerate() {
        let Some(answers) = raw.get(task) else {
            continue;
        };
        for (player, label) in answers {
            let class = match classes.iter().position(|c| c == label) {
                Some(i) => i,
                None => {
                    classes.push(label.clone());
                    classes.len() - 1
                }
            };
            let worker = match workers.iter().position(|w| w == player) {
                Some(i) => i,
                None => {
                    workers.push(*player);
                    workers.len() - 1
                }
            };
            assignments.push(Assignment {
                task: ti,
                worker,
                class,
            });
            answer_counts[ti] += 1;
        }
    }
    let estimates: Vec<Option<usize>> = if classes.is_empty() {
        vec![None; tasks.len()]
    } else {
        let mut matrix = LabelMatrix::new(tasks.len(), classes.len());
        for a in assignments {
            matrix.push(a);
        }
        if threshold <= 1 {
            MajorityVote.aggregate(&matrix)
        } else {
            AgreementThreshold::new(threshold as usize).aggregate(&matrix)
        }
    };
    tasks
        .iter()
        .enumerate()
        .map(|(ti, task)| {
            let label = estimates[ti].map(|class| classes[class].clone());
            let support = match (&label, raw.get(task)) {
                (Some(l), Some(answers)) => answers.iter().filter(|(_, x)| x == l).count() as u32,
                _ => 0,
            };
            AggregateRow {
                task: *task,
                label,
                support,
                answers: answer_counts[ti],
            }
        })
        .collect()
}

fn register(svc: &mut Service) -> PlayerId {
    match svc.handle(&Request::RegisterWorker) {
        Response::WorkerRegistered { player } => player,
        other => panic!("unexpected: {other:?}"),
    }
}

fn publish(svc: &mut Service, name: &str, first: u64, n: usize) -> (JobId, Vec<TaskId>) {
    match svc.handle(&Request::PublishBatch {
        name: name.into(),
        goal: JobGoal::OutputsPerTask(1_000),
        stimuli: (0..n as u64).map(|i| Stimulus::Image(first + i)).collect(),
    }) {
        Response::BatchPublished { job, tasks } => (job, tasks),
        other => panic!("unexpected: {other:?}"),
    }
}

fn open_pair(svc: &mut Service, a: PlayerId, b: PlayerId) -> (SessionId, [PlayerId; 2]) {
    let at = SimTime::from_secs(1);
    assert!(matches!(
        svc.handle(&Request::OpenSession { player: a, at }),
        Response::SessionQueued { .. }
    ));
    match svc.handle(&Request::OpenSession { player: b, at }) {
        Response::SessionOpened { session, players } => (session, players),
        other => panic!("unexpected: {other:?}"),
    }
}

/// Answer code `code`, taken modulo `alphabet + 1`: one of the first
/// `alphabet` words of [`VOCAB`], or a pass.
fn answer(code: u8, alphabet: usize) -> Answer {
    let c = code as usize % (alphabet + 1);
    match VOCAB.get(c) {
        Some(word) if c < alphabet => Answer::text(word),
        _ => Answer::Pass,
    }
}

/// Submits one seat's answer; a taboo rejection is retried as a pass.
/// Returns the accepted answer and the response to it.
fn submit(
    svc: &mut Service,
    session: SessionId,
    player: PlayerId,
    answer: Answer,
    at: SimTime,
) -> (Answer, Response) {
    let request = |answer: Answer| Request::SubmitAnswer {
        session,
        player,
        answer,
        at,
    };
    match svc.handle(&request(answer.clone())) {
        Response::Error {
            error: ServeError::TabooLabel { .. },
        } => (Answer::Pass, svc.handle(&request(Answer::Pass))),
        response => (answer, response),
    }
}

fn check_job(svc: &mut Service, job: JobId, tasks: &[TaskId], raw: &RawAnswers, threshold: u32) {
    match svc.handle(&Request::Aggregate { job, threshold }) {
        Response::Aggregated { job: rj, rows } => {
            assert_eq!(rj, job);
            assert_eq!(rows, oracle(tasks, raw, threshold), "threshold {threshold}");
        }
        other => panic!("unexpected: {other:?}"),
    }
}

/// One scripted round: which pair plays, both seats' answer codes, and
/// whether the right seat answers first.
type Step = (usize, u8, u8, bool);

fn run_script(alphabet: usize, sizes: (usize, usize), steps: &[Step]) {
    let mut svc = Service::new(config()).expect("config valid");
    let (job_a, tasks_a) = publish(&mut svc, "a", 0, sizes.0);
    let (job_b, tasks_b) = publish(&mut svc, "b", 100, sizes.1);
    let players: Vec<PlayerId> = (0..2 * PAIRS).map(|_| register(&mut svc)).collect();
    let sessions: Vec<(SessionId, [PlayerId; 2])> = players
        .chunks(2)
        .map(|p| open_pair(&mut svc, p[0], p[1]))
        .collect();
    let mut raw = RawAnswers::new();

    for (i, &(pair, left, right, right_first)) in steps.iter().enumerate() {
        let at = SimTime::from_secs(i as u64 + 2);
        let (session, seats) = sessions[pair % PAIRS];
        let task = match svc.handle(&Request::RequestTask {
            session,
            player: seats[0],
            at,
        }) {
            Response::TaskAssigned { task, .. } => task,
            // The pair has seen every task, or played out its session.
            Response::Error {
                error: ServeError::NoTaskAvailable { .. } | ServeError::SessionOver { .. },
            } => continue,
            other => panic!("unexpected: {other:?}"),
        };
        let mut accepted = [Answer::Pass, Answer::Pass];
        let order = if right_first { [1, 0] } else { [0, 1] };
        let mut outcome = RoundOutcome::Waiting;
        for seat in order {
            let code = if seat == 0 { left } else { right };
            let (given, response) =
                submit(&mut svc, session, seats[seat], answer(code, alphabet), at);
            match response {
                Response::AnswerRecorded { outcome: o, .. } => outcome = o,
                other => panic!("unexpected: {other:?}"),
            }
            accepted[seat] = given;
        }
        assert_ne!(outcome, RoundOutcome::Waiting, "both seats answered");
        for (seat, given) in accepted.iter().enumerate() {
            if let Answer::Text(label) = given {
                raw.entry(task)
                    .or_default()
                    .push((seats[seat], label.clone()));
            }
        }
        if i % 5 == 4 {
            let threshold = (i / 5 % 4) as u32;
            check_job(&mut svc, job_a, &tasks_a, &raw, threshold);
            check_job(&mut svc, job_b, &tasks_b, &raw, threshold);
        }
    }
    for threshold in 0..=3 {
        check_job(&mut svc, job_a, &tasks_a, &raw, threshold);
        check_job(&mut svc, job_b, &tasks_b, &raw, threshold);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tally votes equal the label-matrix votes at every threshold,
    /// mid-script and at the end, for both jobs.
    #[test]
    fn tally_aggregation_matches_the_label_matrix_path(
        alphabet in 2usize..=4,
        sizes in (1usize..6, 1usize..6),
        steps in proptest::collection::vec((0usize..PAIRS, 0u8..6, 0u8..6, any::<bool>()), 0..80),
    ) {
        run_script(alphabet, sizes, &steps);
    }
}

#[test]
fn a_job_with_no_answers_abstains_everywhere() {
    run_script(2, (3, 2), &[]);
}
