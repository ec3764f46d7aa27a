//! The CAPTCHA challenge itself.
//!
//! A [`Captcha`] presents one or more distorted words; the respondent
//! passes when every word matches within the configured edit tolerance.
//! The security/usability frontier of experiment F2 comes straight from
//! this object: sweep distortion, fire human and OCR respondents at it,
//! and plot the two pass rates.

use hc_core::text::fuzzy_agree;
use serde::{Deserialize, Serialize};

/// Result of answering a CAPTCHA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CaptchaOutcome {
    /// All words matched within tolerance.
    Pass,
    /// At least one word failed.
    Fail,
}

impl CaptchaOutcome {
    /// `true` for a pass.
    #[must_use]
    pub fn is_pass(self) -> bool {
        matches!(self, CaptchaOutcome::Pass)
    }
}

/// A distorted-text challenge.
///
/// # Examples
///
/// ```
/// use hc_captcha::{Captcha, CaptchaOutcome};
///
/// let c = Captcha::new(vec!["overlooks".into(), "inquiry".into()], 0.7, 1);
/// assert_eq!(c.check(&["overlooks".into(), "inquiry".into()]), CaptchaOutcome::Pass);
/// // One small typo is tolerated…
/// assert_eq!(c.check(&["overlook".into(), "inquiry".into()]), CaptchaOutcome::Pass);
/// // …but not garbage.
/// assert_eq!(c.check(&["zzz".into(), "inquiry".into()]), CaptchaOutcome::Fail);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Captcha {
    words: Vec<String>,
    /// Distortion applied to the rendering (what reader models consume).
    pub distortion: f64,
    /// Edit tolerance per word when checking answers.
    pub max_edits: usize,
}

impl Captcha {
    /// Builds a challenge over `words` at a distortion level, tolerating
    /// up to `max_edits` edits per word.
    #[must_use]
    pub fn new(words: Vec<String>, distortion: f64, max_edits: usize) -> Self {
        Captcha {
            words,
            distortion: distortion.clamp(0.0, 1.0),
            max_edits,
        }
    }

    /// The challenge words (what gets rendered/distorted).
    #[must_use]
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Checks a full answer: pass iff every word matches within tolerance
    /// and the answer has the right word count.
    #[must_use]
    pub fn check(&self, answers: &[String]) -> CaptchaOutcome {
        if answers.len() != self.words.len() {
            return CaptchaOutcome::Fail;
        }
        let ok = self
            .words
            .iter()
            .zip(answers)
            .all(|(w, a)| fuzzy_agree(w, a, self.max_edits));
        if ok {
            CaptchaOutcome::Pass
        } else {
            CaptchaOutcome::Fail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_tolerant_matching() {
        let c = Captcha::new(vec!["certain".into()], 0.5, 1);
        assert!(c.check(&["certain".into()]).is_pass());
        assert!(c.check(&["certaim".into()]).is_pass()); // 1 edit
        assert!(!c.check(&["certnim".into()]).is_pass()); // 2 edits
    }

    #[test]
    fn zero_tolerance_requires_normalized_equality() {
        let c = Captcha::new(vec!["Word".into()], 0.5, 0);
        assert!(c.check(&["word".into()]).is_pass(), "case-insensitive");
        assert!(!c.check(&["wird".into()]).is_pass());
    }

    #[test]
    fn word_count_must_match() {
        let c = Captcha::new(vec!["a".into(), "b".into()], 0.5, 1);
        assert!(!c.check(&["a".into()]).is_pass());
        assert!(!c.check(&["a".into(), "b".into(), "c".into()]).is_pass());
    }

    #[test]
    fn distortion_clamps() {
        assert_eq!(Captcha::new(vec![], 7.0, 0).distortion, 1.0);
        assert_eq!(Captcha::new(vec![], -1.0, 0).distortion, 0.0);
    }

    #[test]
    fn empty_challenge_passes_empty_answer() {
        let c = Captcha::new(vec![], 0.5, 0);
        assert!(c.check(&[]).is_pass());
    }
}
