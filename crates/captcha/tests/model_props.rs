//! Property tests over the CAPTCHA models: the monotone structure the F1
//! and F2 experiments depend on must hold for *all* parameters, not just
//! the swept grid.

use hc_captcha::{Captcha, HumanReader, OcrEngine, ReCaptcha, ReCaptchaConfig, ScannedCorpus};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #[test]
    fn ocr_word_accuracy_is_monotone_in_distortion(
        d1 in 0.0f64..1.0,
        d2 in 0.0f64..1.0,
        len in 1usize..12,
    ) {
        let word: String = "abcdefghijkl".chars().take(len).collect();
        let ocr = OcrEngine::commercial();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(ocr.word_accuracy(&word, lo) >= ocr.word_accuracy(&word, hi) - 1e-12);
    }

    #[test]
    fn ocr_word_accuracy_is_monotone_in_length(d in 0.0f64..1.0, len in 1usize..11) {
        let ocr = OcrEngine::commercial();
        let short: String = "abcdefghijkl".chars().take(len).collect();
        let long: String = "abcdefghijkl".chars().take(len + 1).collect();
        prop_assert!(ocr.word_accuracy(&short, d) >= ocr.word_accuracy(&long, d) - 1e-12);
    }

    #[test]
    fn human_beats_ocr_at_high_distortion(d in 0.5f64..1.0) {
        let human = HumanReader::typical();
        let ocr = OcrEngine::commercial();
        // Any word of realistic CAPTCHA length.
        prop_assert!(human.word_accuracy(d) > ocr.word_accuracy("abcdef", d));
    }

    #[test]
    fn human_accuracy_is_monotone_in_distortion(d1 in 0.0f64..1.0, d2 in 0.0f64..1.0) {
        let h = HumanReader::typical();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(h.word_accuracy(lo) >= h.word_accuracy(hi) - 1e-12);
    }

    #[test]
    fn captcha_check_accepts_exact_answers(words in prop::collection::vec("[a-z]{3,9}", 1..4)) {
        let c = Captcha::new(words.clone(), 0.5, 0);
        prop_assert!(c.check(&words).is_pass());
        // Wrong word count always fails.
        let mut extra = words.clone();
        extra.push("extra".to_string());
        prop_assert!(!c.check(&extra).is_pass());
    }

    #[test]
    fn recaptcha_bookkeeping_is_conserved(seed in 0u64..200, n in 10usize..80) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let corpus = ScannedCorpus::generate(n, 0.0, 1.0, &mut rng);
        let mut service = ReCaptcha::new(
            corpus,
            OcrEngine::commercial(),
            ReCaptchaConfig::default(),
            &mut rng,
        );
        // Invariant: ocr_solved + digitized + pending == corpus size (the
        // second half of `digitized_accuracy` counts digitized words).
        prop_assert_eq!(
            service.ocr_solved_count() + service.digitized_accuracy().1 + service.pending_count(),
            n
        );
        // Drive some perfect answers and re-check the invariant.
        for _ in 0..30 {
            let Some(ch) = service.issue(&mut rng) else { break };
            let control = ch.control_text.clone();
            let truth = ch.unknown_truth.clone();
            service.answer(&ch, &control, &truth);
            prop_assert_eq!(
                service.ocr_solved_count() + service.digitized_accuracy().1 + service.pending_count(),
                n
            );
        }
        // Accuracy counters never exceed their denominators.
        let (rc, rt) = service.resolved_accuracy();
        prop_assert!(rc <= rt);
        let (dc, dt) = service.digitized_accuracy();
        prop_assert!(dc <= dt);
        prop_assert!(dt <= rt);
    }
}
