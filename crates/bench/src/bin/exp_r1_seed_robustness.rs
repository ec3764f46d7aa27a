//! Robustness R1 — headline claims across independent seeds.
//!
//! Every table in EXPERIMENTS.md is quoted at seed 42; this experiment
//! re-measures the four headline reproductions across independent seed
//! replications (fanned out on the parallel replication pool) and
//! reports mean ± 95% CI, demonstrating that no ordering claim is a
//! seed artifact:
//!
//! 1. reCAPTCHA digitized-word accuracy (claim: ≥ 99%),
//! 2. standalone OCR word accuracy (claim: ~78–84%, clearly below 1),
//! 3. ESP verified-label precision under a mixed crowd (claim: ≥ 85%),
//! 4. CAPTCHA human-vs-bot gap at distortion 0.6 (claim: wide open).

use hc_bench::{f3, run_grid, Cell, RunOpts, Table};
use hc_captcha::corpus::pseudo_word;
use hc_captcha::{
    Captcha, DigitizationPipeline, HumanReader, OcrEngine, ReCaptcha, ReCaptchaConfig,
    ScannedCorpus,
};
use hc_core::prelude::*;
use hc_core::text::normalize_label;
use hc_crowd::{ArchetypeMix, PopulationBuilder};
use hc_games::{play_session, EspWorld, SessionParams, WorldConfig};
use hc_sim::{ConfidenceInterval, OnlineStats, RngFactory};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    metric: String,
    mean: f64,
    ci95_half_width: f64,
    min: f64,
    max: f64,
    claim: String,
}

#[derive(Serialize)]
struct Sample {
    rep: usize,
    recaptcha_acc: f64,
    ocr_acc: f64,
    esp_precision: f64,
    captcha_gap: f64,
}

fn one_seed(rep: usize, seed: u64) -> Sample {
    let factory = RngFactory::new(seed);

    // 1+2: reCAPTCHA vs OCR on a 1500-word book.
    let mut rng = factory.stream("recaptcha");
    let corpus = ScannedCorpus::generate(1_500, 0.0, 0.05, &mut rng);
    let ocr = OcrEngine::commercial();
    let ocr_correct = corpus
        .iter()
        .filter(|w| {
            normalize_label(&ocr.read(&w.truth, w.distortion, &mut rng))
                == normalize_label(&w.truth)
        })
        .count();
    let ocr_acc = ocr_correct as f64 / corpus.len() as f64;
    let service = ReCaptcha::new(corpus, ocr, ReCaptchaConfig::default(), &mut rng);
    let mut pipeline = DigitizationPipeline::new(service, HumanReader::typical(), 0.0, ocr);
    pipeline.run(80_000, &mut rng);
    let recaptcha_acc = pipeline.progress().digitized_accuracy;

    // 3: ESP precision under a mixed crowd.
    let mut rng = factory.stream("esp");
    let mut cfg = WorldConfig::standard();
    cfg.stimuli = 150;
    let world = EspWorld::generate(&cfg, &mut rng);
    let mut platform = Platform::new(PlatformConfig {
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    })
    .expect("valid config");
    world.register_tasks(&mut platform);
    const PLAYERS: usize = 16;
    let mut pop = PopulationBuilder::new(PLAYERS)
        .mix(ArchetypeMix::realistic())
        .build(&mut rng);
    for _ in 0..PLAYERS {
        platform.register_player();
    }
    for s in 0..60u64 {
        let a = PlayerId::new((2 * s) % PLAYERS as u64);
        let mut b = PlayerId::new((2 * s + 1 + s / PLAYERS as u64) % PLAYERS as u64);
        if a == b {
            b = PlayerId::new((b.raw() + 1) % PLAYERS as u64);
        }
        play_session(
            &mut platform,
            &world,
            &mut pop,
            SessionParams::pair(a, b, SessionId::new(s), SimTime::from_secs(s * 1_000)),
            &mut rng,
        );
    }
    let (correct, total) = world.verified_precision(&platform);
    let esp_precision = if total == 0 {
        1.0
    } else {
        correct as f64 / total as f64
    };

    // 4: CAPTCHA gap at distortion 0.6 (human pass − bot pass).
    let mut rng = factory.stream("captcha");
    let human = HumanReader::typical();
    let trials = 1_500;
    let mut human_pass = 0;
    let mut bot_pass = 0;
    for _ in 0..trials {
        let words = vec![pseudo_word(&mut rng), pseudo_word(&mut rng)];
        let c = Captcha::new(words, 0.6, 0);
        let human_ans: Vec<String> = c
            .words()
            .iter()
            .map(|w| human.read(w, c.distortion, &mut rng))
            .collect();
        if c.check(&human_ans).is_pass() {
            human_pass += 1;
        }
        let bot_ans: Vec<String> = c
            .words()
            .iter()
            .map(|w| ocr.read(w, c.distortion, &mut rng))
            .collect();
        if c.check(&bot_ans).is_pass() {
            bot_pass += 1;
        }
    }
    let captcha_gap = (human_pass - bot_pass) as f64 / trials as f64;

    Sample {
        rep,
        recaptcha_acc,
        ocr_acc,
        esp_precision,
        captcha_gap,
    }
}

fn main() {
    let opts = RunOpts::from_args();
    let reps = opts.reps_or(8, 4);
    // Thread count is machine-dependent; stderr keeps `results/*.txt`
    // (stdout captures) bit-for-bit reproducible.
    eprintln!(
        "running {reps} seed replications on {} threads...",
        opts.threads
    );
    let outcome = run_grid(
        &opts,
        "exp_r1_seed_robustness",
        vec![Cell::new("headline", ())],
        reps,
        |(), ctx| one_seed(ctx.rep, ctx.seed),
    )
    .unwrap_or_else(|e| {
        eprintln!("exp_r1_seed_robustness: {e}");
        std::process::exit(1);
    });
    let samples: Vec<&Sample> = outcome.cells.iter().flat_map(|c| c.reps.iter()).collect();

    let mut table = Table::new(
        "R1 — headline claims across independent seeds (mean ± 95% CI)",
        &["metric", "mean", "±95% CI", "min", "max", "claim"],
    );
    type Extract = fn(&Sample) -> f64;
    let metrics: [(&str, Extract, &str); 4] = [
        ("recaptcha accuracy", |s| s.recaptcha_acc, ">= 0.99"),
        ("ocr-only accuracy", |s| s.ocr_acc, "~0.78-0.84"),
        ("esp precision", |s| s.esp_precision, ">= 0.85"),
        ("captcha human-bot gap", |s| s.captcha_gap, ">> 0.8"),
    ];
    for (name, extract, claim) in metrics {
        let mut stats = OnlineStats::new();
        for s in &samples {
            stats.push(extract(s));
        }
        let ci = ConfidenceInterval::for_mean(stats.mean(), stats.std_dev(), stats.count());
        let row = Row {
            metric: name.to_string(),
            mean: stats.mean(),
            ci95_half_width: ci.half_width,
            min: stats.min().unwrap_or(0.0),
            max: stats.max().unwrap_or(0.0),
            claim: claim.to_string(),
        };
        table.row(
            &[
                name.to_string(),
                f3(row.mean),
                f3(row.ci95_half_width),
                f3(row.min),
                f3(row.max),
                claim.to_string(),
            ],
            &row,
        );
    }
    table.print();
    println!("\nevery headline claim must hold at the CI lower bound, not just the seed-42 point estimate");
    outcome.write_bench_json(&opts);
    outcome.write_trace(&opts);
}
