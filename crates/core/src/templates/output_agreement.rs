//! The output-agreement template (ESP Game).
//!
//! Two randomly-paired partners see the **same** input and independently
//! type outputs; the round completes the moment any output of one seat
//! matches any output of the other (after normalization). Because partners
//! cannot communicate, an agreed output is very likely a *correct*
//! description of the input — agreement **is** the verification.
//!
//! Two refinements from the deployed ESP Game are included:
//!
//! * **Taboo words** — labels already verified for this task are rejected,
//!   forcing each new pair to produce novel labels and deepening coverage.
//! * **Passing** — both seats passing ends the round without output, so a
//!   hopeless input doesn't burn the clock.

use crate::answer::{Answer, Label};
use crate::id::TaskId;
use crate::templates::{Seat, SubmitOutcome};
use crate::verify::TabooList;
use hc_collect::DetSet;
use hc_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The terminal summary of an output-agreement round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputAgreementResult {
    /// The task the round played.
    pub task: TaskId,
    /// The agreed label, if the seats matched.
    pub agreed_label: Option<Label>,
    /// Number of guesses rejected for taboo violations.
    pub taboo_rejections: u32,
    /// `true` if the round ended because both seats passed.
    pub both_passed: bool,
    /// `true` if the round ended by timeout.
    pub timed_out: bool,
    /// Wall time the round consumed.
    pub duration: SimDuration,
}

impl OutputAgreementResult {
    /// `true` when the round produced a verified output.
    #[must_use]
    pub fn is_match(&self) -> bool {
        self.agreed_label.is_some()
    }
}

/// A live output-agreement round.
///
/// # Examples
///
/// ```
/// use hc_core::prelude::*;
///
/// let mut round = OutputAgreementRound::new(
///     TaskId::new(7),
///     TabooList::from_labels([Label::new("dog")]),
///     SimDuration::from_secs(150),
/// );
/// let t = SimTime::ZERO;
/// // "dog" is taboo for this task.
/// assert_eq!(round.submit(Seat::Left, Answer::text("dog"), t), SubmitOutcome::TabooViolation);
/// round.submit(Seat::Left, Answer::text("puppy"), t);
/// let out = round.submit(Seat::Right, Answer::text("puppies"), t);
/// assert!(matches!(out, SubmitOutcome::Matched(Some(_))));
/// ```
#[derive(Debug, Clone)]
pub struct OutputAgreementRound {
    task: TaskId,
    taboo: TabooList,
    deadline: SimTime,
    started: SimTime,
    started_set: bool,
    // Each seat's distinct guesses: a guess matches when the other
    // seat already typed it.
    guesses: [DetSet<Label>; 2],
    passed: [bool; 2],
    taboo_rejections: u32,
    agreed: Option<Label>,
    over: bool,
    time_limit: SimDuration,
    ended_at: SimTime,
}

impl OutputAgreementRound {
    /// Starts a round on `task` with the given taboo list and time limit.
    /// The clock starts at the first submission. Nothing is allocated
    /// until a seat's first text guess, so a round that ends in passes
    /// (most rounds in a world near capacity) never allocates guesses.
    #[must_use]
    pub fn new(task: TaskId, taboo: TabooList, time_limit: SimDuration) -> Self {
        OutputAgreementRound {
            task,
            taboo,
            deadline: SimTime::MAX,
            started: SimTime::ZERO,
            started_set: false,
            guesses: [DetSet::new(), DetSet::new()],
            passed: [false, false],
            taboo_rejections: 0,
            agreed: None,
            over: false,
            time_limit,
            ended_at: SimTime::ZERO,
        }
    }

    /// The task this round serves.
    #[must_use]
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// The taboo list in force for this round.
    #[must_use]
    pub fn taboo(&self) -> &TabooList {
        &self.taboo
    }

    /// `true` once the round has terminated (match, both-pass, or timeout
    /// observed by a late submission or [`Self::finish`]).
    #[must_use]
    pub fn is_over(&self) -> bool {
        self.over
    }

    /// Feeds one submission. Text answers are matched against the partner's
    /// guesses; [`Answer::Pass`] registers a pass; other kinds are rejected.
    pub fn submit(&mut self, seat: Seat, answer: Answer, at: SimTime) -> SubmitOutcome {
        if self.over {
            return SubmitOutcome::RoundOver;
        }
        if !self.started_set {
            self.started = at;
            self.started_set = true;
            self.deadline = at + self.time_limit;
        }
        if at > self.deadline {
            self.over = true;
            self.ended_at = self.deadline;
            return SubmitOutcome::RoundOver;
        }
        match answer {
            Answer::Pass => {
                self.passed[seat.index()] = true;
                if self.passed[0] && self.passed[1] {
                    self.over = true;
                    self.ended_at = at;
                    SubmitOutcome::BothPassed
                } else {
                    SubmitOutcome::Accepted
                }
            }
            Answer::Text(label) => {
                if label.is_empty() {
                    return SubmitOutcome::Accepted; // normalized to nothing; ignore
                }
                if self.taboo.contains(&label) {
                    self.taboo_rejections += 1;
                    return SubmitOutcome::TabooViolation;
                }
                // A new guess un-passes the seat (players may pass then
                // reconsider, as in the deployed game).
                self.passed[seat.index()] = false;
                let own = seat.index();
                if self.guesses[seat.other().index()].contains(&label) {
                    self.agreed = Some(label.clone());
                    self.over = true;
                    self.ended_at = at;
                    SubmitOutcome::Matched(Some(label))
                } else {
                    self.guesses[own].insert(label);
                    SubmitOutcome::Accepted
                }
            }
            _ => SubmitOutcome::WrongKind,
        }
    }

    /// Closes the round at `now` (applying the timeout if it already
    /// passed) and returns its result. Idempotent on the recorded end time:
    /// finishing an already-terminated round keeps its original end.
    pub fn finish(&mut self, now: SimTime) -> OutputAgreementResult {
        if !self.over {
            self.over = true;
            self.ended_at = now.min(self.deadline);
        }
        let start = if self.started_set {
            self.started
        } else {
            self.ended_at
        };
        let timed_out = self.agreed.is_none() && !(self.passed[0] && self.passed[1]);
        OutputAgreementResult {
            task: self.task,
            agreed_label: self.agreed.clone(),
            taboo_rejections: self.taboo_rejections,
            both_passed: self.passed[0] && self.passed[1],
            timed_out,
            duration: self.ended_at.saturating_since(start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round() -> OutputAgreementRound {
        OutputAgreementRound::new(
            TaskId::new(1),
            TabooList::default(),
            SimDuration::from_secs(150),
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn match_requires_cross_seat_agreement() {
        let mut r = round();
        assert_eq!(
            r.submit(Seat::Left, Answer::text("sky"), t(0)),
            SubmitOutcome::Accepted
        );
        // Same seat repeating does not match.
        assert_eq!(
            r.submit(Seat::Left, Answer::text("sky"), t(1)),
            SubmitOutcome::Accepted
        );
        let out = r.submit(Seat::Right, Answer::text("SKY"), t(2));
        assert_eq!(out, SubmitOutcome::Matched(Some(Label::new("sky"))));
        assert!(r.is_over());
        let res = r.finish(t(2));
        assert!(res.is_match());
        assert_eq!(res.duration, SimDuration::from_secs(2));
        assert!(!res.timed_out);
        assert!(!res.both_passed);
    }

    #[test]
    fn normalization_drives_matching() {
        let mut r = round();
        r.submit(Seat::Left, Answer::text("Puppies!"), t(0));
        let out = r.submit(Seat::Right, Answer::text("puppy"), t(1));
        assert_eq!(out, SubmitOutcome::Matched(Some(Label::new("puppy"))));
    }

    #[test]
    fn taboo_labels_are_rejected_and_counted() {
        let taboo = TabooList::from_labels([Label::new("dog"), Label::new("cat")]);
        let mut r = OutputAgreementRound::new(TaskId::new(1), taboo, SimDuration::from_secs(150));
        assert_eq!(
            r.submit(Seat::Left, Answer::text("Dogs"), t(0)),
            SubmitOutcome::TabooViolation
        );
        assert_eq!(
            r.submit(Seat::Right, Answer::text("cat"), t(0)),
            SubmitOutcome::TabooViolation
        );
        r.submit(Seat::Left, Answer::text("leash"), t(1));
        r.submit(Seat::Right, Answer::text("leash"), t(1));
        let res = r.finish(t(2));
        assert_eq!(res.taboo_rejections, 2);
        assert_eq!(res.agreed_label, Some(Label::new("leash")));
    }

    #[test]
    fn both_passing_ends_round_without_output() {
        let mut r = round();
        assert_eq!(
            r.submit(Seat::Left, Answer::Pass, t(0)),
            SubmitOutcome::Accepted
        );
        assert_eq!(
            r.submit(Seat::Right, Answer::Pass, t(1)),
            SubmitOutcome::BothPassed
        );
        let res = r.finish(t(1));
        assert!(res.both_passed);
        assert!(!res.is_match());
        assert!(!res.timed_out);
    }

    #[test]
    fn guessing_after_pass_revokes_the_pass() {
        let mut r = round();
        r.submit(Seat::Left, Answer::Pass, t(0));
        r.submit(Seat::Left, Answer::text("tree"), t(1)); // reconsiders
        assert_eq!(
            r.submit(Seat::Right, Answer::Pass, t(2)),
            SubmitOutcome::Accepted
        );
        assert!(!r.is_over(), "left seat's pass was revoked by guessing");
    }

    #[test]
    fn timeout_rejects_late_submissions() {
        let mut r = round();
        r.submit(Seat::Left, Answer::text("a"), t(0)); // starts clock, deadline t=150
        assert_eq!(
            r.submit(Seat::Right, Answer::text("a"), t(151)),
            SubmitOutcome::RoundOver
        );
        let res = r.finish(t(200));
        assert!(res.timed_out);
        assert!(!res.is_match());
        assert_eq!(
            res.duration,
            SimDuration::from_secs(150),
            "capped at deadline"
        );
    }

    #[test]
    fn submissions_after_match_are_rejected() {
        let mut r = round();
        r.submit(Seat::Left, Answer::text("x"), t(0));
        r.submit(Seat::Right, Answer::text("x"), t(0));
        assert_eq!(
            r.submit(Seat::Left, Answer::text("y"), t(1)),
            SubmitOutcome::RoundOver
        );
    }

    #[test]
    fn wrong_answer_kinds_are_rejected() {
        let mut r = round();
        assert_eq!(
            r.submit(Seat::Left, Answer::verdict(true), t(0)),
            SubmitOutcome::WrongKind
        );
        assert_eq!(
            r.submit(Seat::Left, Answer::Choice(0), t(0)),
            SubmitOutcome::WrongKind
        );
    }

    #[test]
    fn empty_normalized_labels_are_ignored() {
        let mut r = round();
        for seat in [Seat::Left, Seat::Right] {
            assert_eq!(
                r.submit(seat, Answer::text("!!!"), t(0)),
                SubmitOutcome::Accepted
            );
        }
        assert!(!r.finish(t(1)).is_match());
    }

    #[test]
    fn a_seat_never_matches_its_own_guess() {
        let mut r = round();
        r.submit(Seat::Left, Answer::text("one"), t(0));
        assert_eq!(
            r.submit(Seat::Left, Answer::text("ONE"), t(1)),
            SubmitOutcome::Accepted
        );
        assert_eq!(
            r.submit(Seat::Right, Answer::text("one"), t(2)),
            SubmitOutcome::Matched(Some(Label::new("one")))
        );
    }

    #[test]
    fn finish_without_any_submission() {
        let mut r = round();
        let res = r.finish(t(5));
        assert!(!res.is_match());
        assert_eq!(res.duration, SimDuration::ZERO);
    }
}
