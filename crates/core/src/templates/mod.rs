//! The three GWAP templates.
//!
//! The paper distills every deployed game with a purpose into three
//! **templates** — reusable round structures with proven correctness
//! properties:
//!
//! | Template | Canonical game | Round shape | Verified output |
//! |---|---|---|---|
//! | [output-agreement](output_agreement) | ESP Game | both seats see the *same* input, score on matching outputs | the matched label |
//! | [input-agreement](input_agreement) | TagATune | seats see same-or-different inputs, describe them, and vote | descriptions from correct rounds |
//! | [inversion-problem](inversion) | Verbosity, Peekaboom | one seat describes a secret, the other must reproduce it | the hints that enabled a correct guess |
//!
//! Each template is an explicit state machine: `submit` feeds one seat's
//! [`Answer`](crate::Answer) with a timestamp, returns a [`SubmitOutcome`],
//! and `finish` yields the template-specific result. Timeouts are enforced
//! by timestamps — a DES-friendly design with no wall clocks anywhere.

pub mod input_agreement;
pub mod inversion;
pub mod output_agreement;

use serde::{Deserialize, Serialize};

/// Which of the two positions in a round a submission comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Seat {
    /// The first seat (describer in inversion games).
    Left,
    /// The second seat (guesser in inversion games).
    Right,
}

impl Seat {
    /// The opposite seat.
    #[must_use]
    pub const fn other(self) -> Seat {
        match self {
            Seat::Left => Seat::Right,
            Seat::Right => Seat::Left,
        }
    }

    /// Index 0 for left, 1 for right — for seat-indexed arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Seat::Left => 0,
            Seat::Right => 1,
        }
    }
}

/// What happened to one submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SubmitOutcome {
    /// Recorded; the round continues.
    Accepted,
    /// The submission completed the round with an agreement — the payload
    /// is the agreed label where applicable.
    Matched(Option<crate::answer::Label>),
    /// Rejected: the label is on the task's taboo list.
    TabooViolation,
    /// Rejected: this answer kind does not fit the template.
    WrongKind,
    /// Rejected: the round had already ended (timeout, match, or passes).
    RoundOver,
    /// Both seats have now passed; the round ends without output.
    BothPassed,
}

impl SubmitOutcome {
    /// `true` for outcomes that terminate the round.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, SubmitOutcome::Matched(_) | SubmitOutcome::BothPassed)
    }
}

/// Which template a round/record belongs to — used by transcripts and
/// metrics, which are template-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TemplateKind {
    /// ESP-style output agreement.
    OutputAgreement,
    /// TagATune-style input agreement.
    InputAgreement,
    /// Verbosity/Peekaboom-style inversion problem.
    InversionProblem,
}

impl std::fmt::Display for TemplateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            TemplateKind::OutputAgreement => "output-agreement",
            TemplateKind::InputAgreement => "input-agreement",
            TemplateKind::InversionProblem => "inversion-problem",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seat_other_is_involutive() {
        assert_eq!(Seat::Left.other(), Seat::Right);
        assert_eq!(Seat::Right.other(), Seat::Left);
        assert_eq!(Seat::Left.other().other(), Seat::Left);
        assert_eq!(Seat::Left.index(), 0);
        assert_eq!(Seat::Right.index(), 1);
    }

    #[test]
    fn terminal_outcomes() {
        assert!(SubmitOutcome::Matched(None).is_terminal());
        assert!(SubmitOutcome::BothPassed.is_terminal());
        assert!(!SubmitOutcome::Accepted.is_terminal());
        assert!(!SubmitOutcome::TabooViolation.is_terminal());
        assert!(!SubmitOutcome::RoundOver.is_terminal());
        assert!(!SubmitOutcome::WrongKind.is_terminal());
    }

    #[test]
    fn template_kind_display() {
        assert_eq!(
            TemplateKind::OutputAgreement.to_string(),
            "output-agreement"
        );
        assert_eq!(TemplateKind::InputAgreement.to_string(), "input-agreement");
        assert_eq!(
            TemplateKind::InversionProblem.to_string(),
            "inversion-problem"
        );
    }
}
