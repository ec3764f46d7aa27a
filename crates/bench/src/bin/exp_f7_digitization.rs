//! Experiment F7 — digitization progress over time.
//!
//! The reCAPTCHA growth curve: as human answers stream in, the fraction
//! of the scanned corpus resolved climbs while the residual error stays
//! flat and tiny — "books digitized word by word as a side effect of web
//! security". We stream a mixed human/bot crowd and snapshot progress on
//! a log-spaced schedule.

use hc_bench::{f3, seed_from_args, Table};
use hc_captcha::{
    DigitizationPipeline, HumanReader, OcrEngine, ReCaptcha, ReCaptchaConfig, ScannedCorpus,
};
use hc_sim::RngFactory;
use serde::Serialize;

const WORDS: usize = 5_000;
const BOT_SHARE: f64 = 0.15;

#[derive(Serialize)]
struct Row {
    answers: u64,
    resolved_fraction: f64,
    digitized_fraction: f64,
    digitized_accuracy: f64,
    control_pass_rate: f64,
}

fn main() {
    let seed = seed_from_args();
    let factory = RngFactory::new(seed);
    let mut rng = factory.stream("f7");
    let corpus = ScannedCorpus::generate(WORDS, 0.0, 0.05, &mut rng);
    let service = ReCaptcha::new(
        corpus,
        OcrEngine::commercial(),
        ReCaptchaConfig::default(),
        &mut rng,
    );
    let mut pipeline = DigitizationPipeline::new(
        service,
        HumanReader::typical(),
        BOT_SHARE,
        OcrEngine::commercial(),
    );

    let mut table = Table::new(
        "F7 — reCAPTCHA digitization progress (15% bot traffic)",
        &[
            "answers",
            "resolved",
            "digitized",
            "accuracy",
            "control pass",
        ],
    );
    let checkpoints: Vec<u64> = vec![
        500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000,
    ];
    let mut processed = 0u64;
    for cp in checkpoints {
        let batch = cp - processed;
        pipeline.run(batch, &mut rng);
        processed = cp;
        let p = pipeline.progress();
        table.row(
            &[
                p.answers.to_string(),
                f3(p.resolved_fraction),
                f3(p.digitized_fraction),
                f3(p.digitized_accuracy),
                f3(p.control_pass_rate),
            ],
            &Row {
                answers: p.answers,
                resolved_fraction: p.resolved_fraction,
                digitized_fraction: p.digitized_fraction,
                digitized_accuracy: p.digitized_accuracy,
                control_pass_rate: p.control_pass_rate,
            },
        );
        if pipeline.service().pending_count() == 0 {
            break;
        }
    }
    table.print();
    println!("\nexpected shape: resolved fraction climbs to 1.0 by the last answer, digitized fraction only to ~0.4, and accuracy stays ≥ ~0.99 throughout");
}
