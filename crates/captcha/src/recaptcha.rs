//! The two-word reCAPTCHA protocol.
//!
//! Each challenge pairs a **control** word (truth known to the service)
//! with an **unknown** word (an OCR failure from the scanned corpus). The
//! respondent types both; matching the control authenticates them *and*
//! makes their transcription of the unknown word count as a vote. Votes
//! are weighted as deployed: the OCR engine's own guesses seed the tally
//! at weight 0.5, human votes weigh 1.0, and a word is **digitized** when
//! one candidate accumulates the promotion threshold (default 2.5 — i.e.
//! at least two agreeing humans, or one human agreeing with both OCR
//! passes).
//!
//! At construction the service runs two independent OCR passes over the
//! corpus, exactly like the deployed pipeline: words where the passes
//! *agree* are accepted as OCR-solved (and may be wrong — that error shows
//! up in experiment F1's OCR-only baseline); words where they *disagree*
//! become the unknown-word pool.

use crate::corpus::{pseudo_word, ScannedCorpus};
use crate::ocr::OcrEngine;
use hc_collect::DetMap;
use hc_core::text::normalize_label;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReCaptchaConfig {
    /// Vote mass required to digitize a word.
    pub promote_votes: f64,
    /// Weight of one human vote.
    pub human_vote_weight: f64,
    /// Weight of one OCR guess.
    pub ocr_vote_weight: f64,
    /// Edit tolerance when checking the control word.
    pub control_max_edits: usize,
    /// Number of control words the service mints.
    pub control_bank_size: usize,
    /// CAPTCHA-grade distortion the service applies when *rendering*
    /// challenges (independent of the underlying scan quality; this is
    /// what keeps bots out even when the scanned word itself was clean).
    pub render_distortion: f64,
}

impl Default for ReCaptchaConfig {
    fn default() -> Self {
        ReCaptchaConfig {
            promote_votes: 2.5,
            human_vote_weight: 1.0,
            ocr_vote_weight: 0.5,
            control_max_edits: 1,
            control_bank_size: 256,
            render_distortion: 0.75,
        }
    }
}

/// Lifecycle of one corpus word inside the service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WordStatus {
    /// Both OCR passes agreed; accepted without human help.
    OcrSolved {
        /// The agreed (possibly wrong) transcription.
        text: String,
    },
    /// In the unknown pool, accumulating votes.
    Pending,
    /// Promoted by human votes.
    Digitized {
        /// The winning transcription.
        text: String,
        /// The vote mass it won with.
        votes: f64,
    },
}

impl WordStatus {
    /// The accepted transcription, if any.
    #[must_use]
    pub fn text(&self) -> Option<&str> {
        match self {
            WordStatus::OcrSolved { text } | WordStatus::Digitized { text, .. } => Some(text),
            WordStatus::Pending => None,
        }
    }
}

/// One issued challenge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Challenge {
    /// Index into the service's control bank.
    pub control_index: usize,
    /// The control word's true text (rendered for the respondent).
    pub control_text: String,
    /// Distortion of the control rendering.
    pub control_distortion: f64,
    /// Corpus index of the unknown word.
    pub unknown_index: usize,
    /// The unknown word's true text (only reader models may peek; the
    /// service itself never reads this field).
    pub unknown_truth: String,
    /// Distortion of the unknown scan.
    pub unknown_distortion: f64,
}

/// The service's verdict on a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChallengeResponse {
    /// Whether the control word matched (the respondent is let through).
    pub passed: bool,
    /// Whether this response newly digitized the unknown word.
    pub digitized: bool,
}

/// The reCAPTCHA service.
///
/// # Examples
///
/// ```
/// use hc_captcha::{OcrEngine, ReCaptcha, ReCaptchaConfig, ScannedCorpus};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let corpus = ScannedCorpus::generate(200, 0.5, 1.0, &mut rng);
/// let mut service = ReCaptcha::new(corpus, OcrEngine::commercial(), ReCaptchaConfig::default(), &mut rng);
///
/// if let Some(ch) = service.issue(&mut rng) {
///     // A perfect respondent: types both words exactly.
///     let resp = service.answer(&ch, &ch.control_text.clone(), &ch.unknown_truth.clone());
///     assert!(resp.passed);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ReCaptcha {
    corpus: ScannedCorpus,
    config: ReCaptchaConfig,
    status: Vec<WordStatus>,
    // One tally per corpus word, bumped on every human vote. Entry
    // lookups only — the winning candidate is detected at insert time,
    // so the tally is never iterated.
    votes: Vec<DetMap<String, f64>>,
    control_bank: Vec<String>,
    pending: Vec<usize>,
    served: u64,
    control_failures: u64,
}

impl ReCaptcha {
    /// Builds the service: two OCR passes split the corpus into
    /// OCR-solved words and the pending pool (with seeded votes).
    pub fn new<R: Rng + ?Sized>(
        corpus: ScannedCorpus,
        ocr: OcrEngine,
        config: ReCaptchaConfig,
        rng: &mut R,
    ) -> Self {
        let mut status = Vec::with_capacity(corpus.len());
        let mut votes: Vec<DetMap<String, f64>> = Vec::with_capacity(corpus.len());
        let mut pending = Vec::with_capacity(corpus.len());
        for w in corpus.iter() {
            let pass1 = normalize_label(&ocr.read(&w.truth, w.distortion, rng));
            let pass2 = normalize_label(&ocr.read(&w.truth, w.distortion, rng));
            // A tally rarely sees more than a handful of distinct
            // transcriptions; pre-size past the minimum table so the OCR
            // seeds and the first human votes never trigger a regrow.
            let mut tally = DetMap::with_capacity(4);
            if !pass1.is_empty() {
                *tally.entry(pass1.clone()).or_insert(0.0) += config.ocr_vote_weight;
            }
            if !pass2.is_empty() {
                *tally.entry(pass2.clone()).or_insert(0.0) += config.ocr_vote_weight;
            }
            if !pass1.is_empty() && pass1 == pass2 {
                status.push(WordStatus::OcrSolved { text: pass1 });
            } else {
                status.push(WordStatus::Pending);
                pending.push(w.index);
            }
            votes.push(tally);
        }
        let control_bank = (0..config.control_bank_size.max(1))
            .map(|_| pseudo_word(rng))
            .collect();
        ReCaptcha {
            corpus,
            config,
            status,
            votes,
            control_bank,
            pending,
            served: 0,
            control_failures: 0,
        }
    }

    /// The protocol parameters.
    #[must_use]
    pub fn config(&self) -> &ReCaptchaConfig {
        &self.config
    }

    /// Issues a challenge over a random pending word, or `None` when the
    /// whole corpus is resolved.
    pub fn issue<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Challenge> {
        if self.pending.is_empty() {
            return None;
        }
        let unknown_index = self.pending[rng.gen_range(0..self.pending.len())];
        #[expect(
            clippy::expect_used,
            reason = "pending indices are built from this corpus"
        )]
        let word = self
            .corpus
            .word(unknown_index)
            .expect("pending indices are valid");
        let control_index = rng.gen_range(0..self.control_bank.len());
        self.served += 1;
        // Both words render at the service's CAPTCHA-grade distortion —
        // identical treatment, so bots cannot tell which is the control;
        // the unknown word additionally keeps whatever damage the original
        // scan carried.
        let render = self.config.render_distortion.clamp(0.0, 1.0);
        Some(Challenge {
            control_index,
            control_text: self.control_bank[control_index].clone(),
            control_distortion: render,
            unknown_index,
            unknown_truth: word.truth.clone(),
            unknown_distortion: render.max(word.distortion),
        })
    }

    /// Processes a response.
    pub fn answer(
        &mut self,
        challenge: &Challenge,
        control_answer: &str,
        unknown_answer: &str,
    ) -> ChallengeResponse {
        let control_ok = hc_core::text::fuzzy_agree(
            &challenge.control_text,
            control_answer,
            self.config.control_max_edits,
        );
        if !control_ok {
            self.control_failures += 1;
            return ChallengeResponse {
                passed: false,
                digitized: false,
            };
        }
        let idx = challenge.unknown_index;
        if !matches!(self.status[idx], WordStatus::Pending) {
            // Already resolved between issue and answer; accept the human.
            return ChallengeResponse {
                passed: true,
                digitized: false,
            };
        }
        let vote = normalize_label(unknown_answer);
        let mut digitized = false;
        if !vote.is_empty() {
            let tally = &mut self.votes[idx];
            let mass = tally.entry(vote.clone()).or_insert(0.0);
            *mass += self.config.human_vote_weight;
            if *mass >= self.config.promote_votes {
                self.status[idx] = WordStatus::Digitized {
                    text: vote,
                    votes: *mass,
                };
                self.pending.retain(|&p| p != idx);
                digitized = true;
            }
        }
        ChallengeResponse {
            passed: true,
            digitized,
        }
    }

    /// Words still pending.
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Words accepted directly from agreeing OCR passes.
    #[must_use]
    pub fn ocr_solved_count(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, WordStatus::OcrSolved { .. }))
            .count()
    }

    /// Challenges served.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Responses that failed the control word.
    #[must_use]
    pub fn control_failures(&self) -> u64 {
        self.control_failures
    }

    /// Accuracy of all *resolved* words (OCR-solved + digitized) against
    /// corpus truth: `(correct, resolved)`.
    #[must_use]
    pub fn resolved_accuracy(&self) -> (usize, usize) {
        let mut correct = 0;
        let mut resolved = 0;
        for (i, s) in self.status.iter().enumerate() {
            if let Some(text) = s.text() {
                resolved += 1;
                #[expect(clippy::expect_used, reason = "status and corpus have equal length")]
                let truth = normalize_label(&self.corpus.word(i).expect("index valid").truth);
                if text == truth {
                    correct += 1;
                }
            }
        }
        (correct, resolved)
    }

    /// Accuracy of only the human-digitized words: `(correct, digitized)`.
    #[must_use]
    pub fn digitized_accuracy(&self) -> (usize, usize) {
        let mut correct = 0;
        let mut digitized = 0;
        for (i, s) in self.status.iter().enumerate() {
            if let WordStatus::Digitized { text, .. } = s {
                digitized += 1;
                #[expect(clippy::expect_used, reason = "status and corpus have equal length")]
                let truth = normalize_label(&self.corpus.word(i).expect("index valid").truth);
                if text == &truth {
                    correct += 1;
                }
            }
        }
        (correct, digitized)
    }

    /// The underlying corpus.
    #[must_use]
    pub fn corpus(&self) -> &ScannedCorpus {
        &self.corpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(55)
    }

    fn service(n: usize, lo: f64, hi: f64) -> (ReCaptcha, rand::rngs::StdRng) {
        let mut r = rng();
        let corpus = ScannedCorpus::generate(n, lo, hi, &mut r);
        let s = ReCaptcha::new(
            corpus,
            OcrEngine::commercial(),
            ReCaptchaConfig::default(),
            &mut r,
        );
        (s, r)
    }

    #[test]
    fn clean_corpus_is_mostly_ocr_solved() {
        // At d = 0 a ~6.5-char word survives one OCR pass with p ≈ 0.9,
        // and OCR-solving needs two agreeing passes (≈ 0.82).
        let (s, _) = service(300, 0.0, 0.0);
        assert!(
            s.ocr_solved_count() as f64 / 300.0 > 0.7,
            "ocr solved {}",
            s.ocr_solved_count()
        );
    }

    #[test]
    fn distorted_corpus_feeds_the_pending_pool() {
        let (s, _) = service(300, 0.7, 1.0);
        assert!(
            s.pending_count() as f64 / 300.0 > 0.7,
            "pending {}",
            s.pending_count()
        );
    }

    #[test]
    fn control_failure_blocks_the_vote() {
        let (mut s, mut r) = service(100, 0.8, 1.0);
        let ch = s.issue(&mut r).unwrap();
        let truth = ch.unknown_truth.clone();
        let resp = s.answer(&ch, "totally wrong", &truth);
        assert!(!resp.passed);
        assert!(!resp.digitized);
        assert_eq!(s.control_failures(), 1);
        assert!(matches!(s.status[ch.unknown_index], WordStatus::Pending));
    }

    #[test]
    fn two_agreeing_humans_digitize_with_ocr_seed() {
        let (mut s, mut r) = service(50, 0.9, 1.0);
        let pending_before = s.pending_count();
        let ch = s.issue(&mut r).unwrap();
        let truth = ch.unknown_truth.clone();
        let control = ch.control_text.clone();
        // Default weights: human 1.0 each; OCR seeds may or may not match
        // truth. Two correct humans reach 2.0 < 2.5 unless an OCR pass
        // agreed; a third human always settles it.
        let mut digitized = false;
        for _ in 0..3 {
            let resp = s.answer(&ch, &control, &truth);
            assert!(resp.passed);
            if resp.digitized {
                digitized = true;
                break;
            }
        }
        assert!(digitized);
        let status = &s.status[ch.unknown_index];
        assert_eq!(status.text(), Some(normalize_label(&truth).as_str()));
        assert_eq!(s.pending_count(), pending_before - 1);
        assert_eq!(s.digitized_accuracy().1, 1);
    }

    #[test]
    fn votes_on_resolved_words_are_ignored() {
        let (mut s, mut r) = service(10, 0.9, 1.0);
        let ch = s.issue(&mut r).unwrap();
        let truth = ch.unknown_truth.clone();
        let control = ch.control_text.clone();
        for _ in 0..3 {
            s.answer(&ch, &control, &truth);
        }
        // Extra answer after resolution.
        let resp = s.answer(&ch, &control, "different");
        assert!(resp.passed);
        assert!(!resp.digitized);
        assert_eq!(
            s.status[ch.unknown_index].text(),
            Some(normalize_label(&truth).as_str())
        );
    }

    #[test]
    fn digitized_accuracy_is_high_with_truthful_humans() {
        let (mut s, mut r) = service(100, 0.8, 1.0);
        for _ in 0..2000 {
            let Some(ch) = s.issue(&mut r) else { break };
            let truth = ch.unknown_truth.clone();
            let control = ch.control_text.clone();
            s.answer(&ch, &control, &truth);
        }
        let (correct, digitized) = s.digitized_accuracy();
        assert!(digitized > 50, "digitized {digitized}");
        assert_eq!(correct, digitized, "truthful humans never mis-digitize");
    }

    #[test]
    fn issue_returns_none_when_resolved() {
        let mut r = rng();
        let corpus = ScannedCorpus::generate(0, 0.5, 1.0, &mut r);
        let mut s = ReCaptcha::new(
            corpus,
            OcrEngine::commercial(),
            ReCaptchaConfig::default(),
            &mut r,
        );
        assert!(s.issue(&mut r).is_none());
    }

    #[test]
    fn empty_votes_do_not_count() {
        let (mut s, mut r) = service(10, 0.9, 1.0);
        let ch = s.issue(&mut r).unwrap();
        let control = ch.control_text.clone();
        let resp = s.answer(&ch, &control, "   !!! ");
        assert!(resp.passed);
        assert!(!resp.digitized);
    }

    #[test]
    fn served_counter_increments() {
        let (mut s, mut r) = service(10, 0.9, 1.0);
        let _ = s.issue(&mut r);
        let _ = s.issue(&mut r);
        assert_eq!(s.served(), 2);
        assert_eq!(s.config().control_max_edits, 1);
    }
}
