//! Wire types — the serde-round-trippable request/response protocol.
//!
//! Every operation the platform's production surface supports is one
//! [`Request`] variant; every outcome is one [`Response`] variant. The
//! shapes mirror the MTurk HIT manager's publish / get-status / download
//! lifecycle layered over the GWAP session flow: a requester publishes
//! task batches and gold, workers register, open sessions, pull task
//! assignments, submit answers, and the requester polls job progress and
//! downloads verified labels or aggregated estimates.
//!
//! Time never comes from a clock: requests that advance platform state
//! carry their own [`SimTime`], so the same request log always replays
//! to the same response log.

use hc_core::jobs::{JobGoal, JobState};
use hc_core::{Answer, JobId, Label, PlayerId, SessionId, Stimulus, TaskId, TaskState};
use hc_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One request against the service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Registers a new worker; the service allocates the player id.
    RegisterWorker,
    /// Publishes a batch of tasks under a new labeling job.
    PublishBatch {
        /// Human-readable job name ("dresden-scans-vol2").
        name: String,
        /// Completion criterion for the job.
        goal: JobGoal,
        /// One stimulus per task to create.
        stimuli: Vec<Stimulus>,
    },
    /// Publishes a gold (known-answer) calibration task.
    PublishGold {
        /// What the players see.
        stimulus: Stimulus,
        /// Labels accepted as correct.
        accepted: Vec<Label>,
    },
    /// A worker asks to play: paired immediately or queued.
    OpenSession {
        /// The arriving worker.
        player: PlayerId,
        /// Arrival time.
        at: SimTime,
    },
    /// A queued worker polls for their pairing status.
    PollSession {
        /// The polling worker.
        player: PlayerId,
    },
    /// A seated worker asks for the current round's task.
    RequestTask {
        /// The session.
        session: SessionId,
        /// The requesting seat.
        player: PlayerId,
        /// Request time.
        at: SimTime,
    },
    /// A seated worker submits their answer for the current round.
    SubmitAnswer {
        /// The session.
        session: SessionId,
        /// The answering seat.
        player: PlayerId,
        /// The answer (free text or pass).
        answer: Answer,
        /// Submission time.
        at: SimTime,
    },
    /// Ends a session; its transcript feeds the platform ledgers.
    CloseSession {
        /// The session to close.
        session: SessionId,
        /// Close time.
        at: SimTime,
    },
    /// Queries one job's progress.
    JobStatus {
        /// The job.
        job: JobId,
    },
    /// Queries one task's lifecycle state.
    TaskStatus {
        /// The task.
        task: TaskId,
    },
    /// Administratively stops an active job.
    CancelJob {
        /// The job to cancel.
        job: JobId,
        /// Cancellation time.
        at: SimTime,
    },
    /// Downloads a job's verified labels (promotion order).
    ExportResults {
        /// The job.
        job: JobId,
    },
    /// Votes a label for each of a job's tasks from the text answers
    /// submitted in resolved rounds (passes and taboo-rejected answers
    /// do not count): the most-answered label wins, a tie goes to the
    /// label first submitted across the job in task-enrollment order.
    Aggregate {
        /// The job.
        job: JobId,
        /// Minimum supporting answers per estimate; `<= 1` is plain
        /// majority vote.
        threshold: u32,
    },
    /// Queries platform-wide counters.
    Metrics,
}

impl Request {
    /// Short request-kind name for observability and logs.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::RegisterWorker => "register_worker",
            Request::PublishBatch { .. } => "publish_batch",
            Request::PublishGold { .. } => "publish_gold",
            Request::OpenSession { .. } => "open_session",
            Request::PollSession { .. } => "poll_session",
            Request::RequestTask { .. } => "request_task",
            Request::SubmitAnswer { .. } => "submit_answer",
            Request::CloseSession { .. } => "close_session",
            Request::JobStatus { .. } => "job_status",
            Request::TaskStatus { .. } => "task_status",
            Request::CancelJob { .. } => "cancel_job",
            Request::ExportResults { .. } => "export_results",
            Request::Aggregate { .. } => "aggregate",
            Request::Metrics => "metrics",
        }
    }

    /// The simulated time the request carries, if any.
    #[must_use]
    pub fn at(&self) -> Option<SimTime> {
        match self {
            Request::OpenSession { at, .. }
            | Request::RequestTask { at, .. }
            | Request::SubmitAnswer { at, .. }
            | Request::CloseSession { at, .. }
            | Request::CancelJob { at, .. } => Some(*at),
            _ => None,
        }
    }
}

/// Where a polled worker stands in the session lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionPhase {
    /// Registered but neither queued nor seated.
    Idle,
    /// In the matchmaker queue, waiting for a partner.
    Waiting,
    /// Seated in a live session.
    Seated {
        /// The live session.
        session: SessionId,
    },
}

/// How one round resolved after an answer submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RoundOutcome {
    /// The partner has not answered yet; the round is still open.
    Waiting,
    /// Both seats agreed on a label.
    Matched {
        /// The agreed label.
        label: Label,
        /// Whether the agreement promoted the label to verified.
        promoted: bool,
    },
    /// Both seats answered but disagreed.
    Mismatched,
    /// Both seats passed; the task was skipped.
    Passed,
}

/// One verified label in a results download.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExportedLabel {
    /// The task the label describes.
    pub task: TaskId,
    /// The promoted label.
    pub label: Label,
    /// Platform time at promotion.
    pub at: SimTime,
}

/// One task's aggregated estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateRow {
    /// The task.
    pub task: TaskId,
    /// The estimated label (`None` when the aggregator abstains).
    pub label: Option<Label>,
    /// Number of submitted answers supporting the estimate (0 when the
    /// aggregator abstains).
    pub support: u32,
    /// Total text answers submitted for the task.
    pub answers: u32,
}

/// One response from the service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A new worker was registered.
    WorkerRegistered {
        /// The allocated player id.
        player: PlayerId,
    },
    /// A task batch was published under a new job.
    BatchPublished {
        /// The new job.
        job: JobId,
        /// The created tasks, in stimulus order.
        tasks: Vec<TaskId>,
    },
    /// A gold task was published.
    GoldPublished {
        /// The created gold task.
        task: TaskId,
    },
    /// The worker was queued; no partner was available.
    SessionQueued {
        /// The queued worker.
        player: PlayerId,
        /// Queue length after the arrival.
        waiting: u32,
    },
    /// A session opened (pairing succeeded).
    SessionOpened {
        /// The new session.
        session: SessionId,
        /// The two seats, in seating order (earlier arrival first).
        players: [PlayerId; 2],
    },
    /// A poll result: where the worker stands.
    SessionStatus {
        /// The polled worker.
        player: PlayerId,
        /// Their current phase.
        phase: SessionPhase,
    },
    /// A round's task assignment (identical for both seats).
    TaskAssigned {
        /// The session.
        session: SessionId,
        /// 1-based round number within the session.
        round: u32,
        /// The served task.
        task: TaskId,
        /// What the players see.
        stimulus: Stimulus,
        /// Labels that are off-limits this round.
        taboo: Vec<Label>,
    },
    /// An answer was accepted.
    AnswerRecorded {
        /// The session.
        session: SessionId,
        /// 1-based round number.
        round: u32,
        /// How the round stands after this submission.
        outcome: RoundOutcome,
    },
    /// A session closed; its transcript fed the ledgers.
    SessionClosed {
        /// The closed session.
        session: SessionId,
        /// Rounds played.
        rounds: u32,
        /// Rounds that matched.
        matched: u32,
        /// Total points per seat.
        points: [u64; 2],
    },
    /// One job's progress snapshot.
    JobStatusReport {
        /// The job.
        job: JobId,
        /// Lifecycle state.
        state: JobState,
        /// Tasks enrolled.
        tasks: u32,
        /// Verified outputs credited so far. Credits stop when the job
        /// completes or is cancelled, but its tasks keep verifying
        /// labels, so an export of the job can return more labels than
        /// this.
        outputs: u64,
        /// Progress toward the goal, percent (0–100).
        progress_pct: u32,
    },
    /// One task's lifecycle snapshot.
    TaskStatusReport {
        /// The task.
        task: TaskId,
        /// Lifecycle state.
        state: TaskState,
        /// Rounds that served this task.
        times_served: u32,
        /// Verified outputs produced.
        verified: u32,
        /// Current taboo list.
        taboo: Vec<Label>,
    },
    /// A job was cancelled (idempotent for non-active jobs).
    JobCancelled {
        /// The job.
        job: JobId,
    },
    /// A job's verified labels, in promotion order.
    ResultsExported {
        /// The job.
        job: JobId,
        /// The verified labels.
        labels: Vec<ExportedLabel>,
    },
    /// Per-task vote results over a job's submitted text answers.
    Aggregated {
        /// The job.
        job: JobId,
        /// One row per enrolled task, in enrollment order.
        rows: Vec<AggregateRow>,
    },
    /// Platform-wide counters.
    MetricsReport {
        /// Workers registered through the service.
        players: u64,
        /// Workers currently waiting for a partner.
        waiting: u32,
        /// Live (open) sessions.
        live_sessions: u32,
        /// Sessions closed and recorded.
        sessions_recorded: u64,
        /// Labels promoted to verified.
        verified_labels: u64,
        /// Agreements rejected by the trust gate.
        rejected_agreements: u64,
    },
    /// The request failed with a typed error.
    Error {
        /// What went wrong.
        error: ServeError,
    },
}

impl Response {
    /// Short response-kind name for observability and logs.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Response::WorkerRegistered { .. } => "worker_registered",
            Response::BatchPublished { .. } => "batch_published",
            Response::GoldPublished { .. } => "gold_published",
            Response::SessionQueued { .. } => "session_queued",
            Response::SessionOpened { .. } => "session_opened",
            Response::SessionStatus { .. } => "session_status",
            Response::TaskAssigned { .. } => "task_assigned",
            Response::AnswerRecorded { .. } => "answer_recorded",
            Response::SessionClosed { .. } => "session_closed",
            Response::JobStatusReport { .. } => "job_status_report",
            Response::TaskStatusReport { .. } => "task_status_report",
            Response::JobCancelled { .. } => "job_cancelled",
            Response::ResultsExported { .. } => "results_exported",
            Response::Aggregated { .. } => "aggregated",
            Response::MetricsReport { .. } => "metrics_report",
            Response::Error { .. } => "error",
        }
    }

    /// `true` for the error variant.
    #[must_use]
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }
}

/// Typed request failures. Every variant names the offending entity so
/// fronts can render actionable errors without string parsing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeError {
    /// The task id was never registered.
    UnknownTask {
        /// The missing task.
        task: TaskId,
    },
    /// The job id was never opened.
    UnknownJob {
        /// The missing job.
        job: JobId,
    },
    /// The player id was never registered.
    UnknownPlayer {
        /// The missing player.
        player: PlayerId,
    },
    /// The session id does not name a live session.
    UnknownSession {
        /// The missing session.
        session: SessionId,
    },
    /// The player is not seated in that session.
    NotInSession {
        /// The session.
        session: SessionId,
        /// The intruder.
        player: PlayerId,
    },
    /// The player is already waiting in the matchmaker queue.
    AlreadyWaiting {
        /// The player.
        player: PlayerId,
    },
    /// The player is already seated in a live session.
    AlreadyInSession {
        /// The player.
        player: PlayerId,
        /// Where they sit.
        session: SessionId,
    },
    /// No servable task remains for this pair.
    NoTaskAvailable {
        /// The session.
        session: SessionId,
    },
    /// An answer arrived with no round assignment open.
    NoAssignment {
        /// The session.
        session: SessionId,
    },
    /// The seat already answered this round.
    DuplicateAnswer {
        /// The session.
        session: SessionId,
        /// The repeating seat.
        player: PlayerId,
    },
    /// The submitted label is taboo for the assigned task.
    TabooLabel {
        /// The rejected label.
        label: Label,
    },
    /// Output-agreement rounds take free text or a pass.
    AnswerKindMismatch {
        /// What the round accepts.
        expected: String,
        /// What arrived.
        got: String,
    },
    /// The session's round or time budget is spent.
    SessionOver {
        /// The exhausted session.
        session: SessionId,
    },
    /// A batch must contain at least one stimulus.
    EmptyBatch,
    /// The request was structurally invalid.
    InvalidRequest {
        /// Why it was rejected.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTask { task } => write!(f, "unknown task {task}"),
            ServeError::UnknownJob { job } => write!(f, "unknown job {job}"),
            ServeError::UnknownPlayer { player } => write!(f, "unknown player {player}"),
            ServeError::UnknownSession { session } => write!(f, "unknown session {session}"),
            ServeError::NotInSession { session, player } => {
                write!(f, "{player} is not seated in {session}")
            }
            ServeError::AlreadyWaiting { player } => write!(f, "{player} is already queued"),
            ServeError::AlreadyInSession { player, session } => {
                write!(f, "{player} is already seated in {session}")
            }
            ServeError::NoTaskAvailable { session } => {
                write!(f, "no servable task for {session}")
            }
            ServeError::NoAssignment { session } => {
                write!(f, "no round assignment open in {session}")
            }
            ServeError::DuplicateAnswer { session, player } => {
                write!(f, "{player} already answered this round of {session}")
            }
            ServeError::TabooLabel { label } => write!(f, "label `{label}` is taboo"),
            ServeError::AnswerKindMismatch { expected, got } => {
                write!(f, "expected a {expected} answer, got {got}")
            }
            ServeError::SessionOver { session } => {
                write!(f, "{session} has exhausted its round or time budget")
            }
            ServeError::EmptyBatch => write!(f, "a batch needs at least one stimulus"),
            ServeError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}
