//! The human reader model.
//!
//! Humans are the other side of the CAPTCHA gap: their reading accuracy
//! barely degrades with the distortions that destroy OCR. The model used
//! here: word-level accuracy `skill × (1 − mild_penalty × d²)`, so even at
//! full distortion an attentive human reads > 85% of words — matching the
//! usability numbers of deployed CAPTCHAs. Errors are realistic typos:
//! one random character edit (substitute/drop/duplicate), which is what
//! the reCAPTCHA matcher's edit-distance tolerance exists to absorb.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A human transcriber with a skill level.
///
/// # Examples
///
/// ```
/// use hc_captcha::HumanReader;
/// use rand::SeedableRng;
///
/// let reader = HumanReader::typical();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// // Humans keep reading accurately where OCR collapses.
/// assert!(reader.word_accuracy(1.0) > 0.8);
/// let _typed = reader.read("example", 0.9, &mut rng);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HumanReader {
    /// Base word-level accuracy on clean text, in `[0, 1]`.
    pub skill: f64,
    /// Accuracy lost at full distortion (quadratic onset), in `[0, 1]`.
    pub distortion_penalty: f64,
}

impl HumanReader {
    /// A typical attentive web user: ~97% clean, ~89% at full distortion.
    #[must_use]
    pub fn typical() -> Self {
        HumanReader {
            skill: 0.97,
            distortion_penalty: 0.08,
        }
    }

    /// Creates a reader with explicit parameters (clamped into `[0, 1]`).
    #[must_use]
    pub fn new(skill: f64, distortion_penalty: f64) -> Self {
        HumanReader {
            skill: if skill.is_finite() {
                skill.clamp(0.0, 1.0)
            } else {
                0.9
            },
            distortion_penalty: if distortion_penalty.is_finite() {
                distortion_penalty.clamp(0.0, 1.0)
            } else {
                0.1
            },
        }
    }

    /// Word-level accuracy at a distortion level.
    #[must_use]
    pub fn word_accuracy(&self, distortion: f64) -> f64 {
        let d = distortion.clamp(0.0, 1.0);
        (self.skill * (1.0 - self.distortion_penalty * d * d)).clamp(0.0, 1.0)
    }

    /// Produces the human's transcription: exact with `word_accuracy`,
    /// otherwise the word with one realistic typo.
    pub fn read<R: Rng + ?Sized>(&self, word: &str, distortion: f64, rng: &mut R) -> String {
        if rng.gen::<f64>() < self.word_accuracy(distortion) {
            word.to_string()
        } else {
            typo(word, rng)
        }
    }
}

/// Applies one random edit: substitution, deletion, or duplication.
fn typo<R: Rng + ?Sized>(word: &str, rng: &mut R) -> String {
    let chars: Vec<char> = word.chars().collect();
    if chars.is_empty() {
        return "x".to_string();
    }
    let pos = rng.gen_range(0..chars.len());
    let mut out = chars.clone();
    match rng.gen_range(0..3) {
        0 => {
            // Substitute with a neighbouring letter.
            let c = out[pos];
            out[pos] = if c.is_ascii_lowercase() {
                (((c as u8 - b'a' + rng.gen_range(1..25)) % 26) + b'a') as char
            } else {
                'x'
            };
        }
        1 => {
            if out.len() > 1 {
                out.remove(pos);
            } else {
                out.push('x');
            }
        }
        _ => {
            let c = out[pos];
            out.insert(pos, c);
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::text::levenshtein;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(17)
    }

    #[test]
    fn accuracy_degrades_mildly() {
        let h = HumanReader::typical();
        assert!(h.word_accuracy(0.0) > 0.96);
        assert!(h.word_accuracy(1.0) > 0.85);
        assert!(h.word_accuracy(0.0) >= h.word_accuracy(1.0));
    }

    #[test]
    fn constructor_clamps() {
        let h = HumanReader::new(2.0, -1.0);
        assert_eq!(h.skill, 1.0);
        assert_eq!(h.distortion_penalty, 0.0);
        let h = HumanReader::new(f64::NAN, f64::INFINITY);
        assert_eq!(h.skill, 0.9);
        assert_eq!(h.distortion_penalty, 0.1);
    }

    #[test]
    fn empirical_read_rate_matches() {
        let h = HumanReader::typical();
        let mut r = rng();
        let n = 20_000;
        let exact = (0..n)
            .filter(|_| h.read("bramble", 0.8, &mut r) == "bramble")
            .count();
        let rate = exact as f64 / n as f64;
        let expected = h.word_accuracy(0.8);
        assert!(
            (rate - expected).abs() < 0.01,
            "rate {rate:.3} vs {expected:.3}"
        );
    }

    #[test]
    fn errors_are_single_edits() {
        let h = HumanReader::new(0.0, 0.0); // always errs
        let mut r = rng();
        for _ in 0..500 {
            let t = h.read("example", 0.0, &mut r);
            let d = levenshtein("example", &t);
            assert!(d == 1, "typo distance {d} for {t:?}");
        }
    }

    #[test]
    fn careless_reader_is_worse() {
        assert!(
            HumanReader::new(0.88, 0.15).word_accuracy(0.5)
                < HumanReader::typical().word_accuracy(0.5)
        );
    }

    #[test]
    fn typo_of_single_char_word_is_nonempty() {
        let mut r = rng();
        for _ in 0..100 {
            assert!(!typo("a", &mut r).is_empty());
        }
        assert_eq!(typo("", &mut r), "x");
    }
}
