//! Error types for the platform.

use crate::id::{JobId, PlayerId, SessionId, TaskId};

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Everything that can go wrong while operating the platform.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A referenced task does not exist.
    UnknownTask(TaskId),
    /// A referenced player has never been registered.
    UnknownPlayer(PlayerId),
    /// A referenced job does not exist.
    UnknownJob(JobId),
    /// A referenced session does not exist or has already been closed.
    UnknownSession(SessionId),
    /// An answer was submitted to a round that already finished.
    RoundOver,
    /// An answer was submitted by a seat that is not part of the round.
    WrongSeat,
    /// The answer kind does not fit the template (e.g. a same/different
    /// verdict sent to an output-agreement round).
    AnswerKindMismatch {
        /// What the template expected.
        expected: &'static str,
    },
    /// A job was created with no tasks.
    EmptyJob,
    /// A job listed a task that is already enrolled in a job, or listed
    /// it twice: a task belongs to at most one job.
    TaskAlreadyEnrolled(TaskId),
    /// A configuration value was out of range.
    InvalidConfig(&'static str),
    /// The player is currently banned by the anti-cheat layer.
    PlayerBanned(PlayerId),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnknownTask(id) => write!(f, "unknown task {id}"),
            Error::UnknownPlayer(id) => write!(f, "unknown player {id}"),
            Error::UnknownJob(id) => write!(f, "unknown job {id}"),
            Error::UnknownSession(id) => write!(f, "unknown session {id}"),
            Error::RoundOver => write!(f, "round already finished"),
            Error::WrongSeat => write!(f, "seat is not part of this round"),
            Error::AnswerKindMismatch { expected } => {
                write!(f, "answer kind mismatch: template expects {expected}")
            }
            Error::EmptyJob => write!(f, "job must contain at least one task"),
            Error::TaskAlreadyEnrolled(id) => {
                write!(f, "task {id} is already enrolled in a job")
            }
            Error::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            Error::PlayerBanned(id) => write!(f, "player {id} is banned"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_helpfully() {
        assert_eq!(
            Error::UnknownTask(TaskId::new(3)).to_string(),
            "unknown task task-3"
        );
        assert!(Error::RoundOver.to_string().contains("finished"));
        assert!(Error::AnswerKindMismatch { expected: "text" }
            .to_string()
            .contains("text"));
        assert!(Error::PlayerBanned(PlayerId::new(9))
            .to_string()
            .contains("player-9"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::EmptyJob);
    }
}
