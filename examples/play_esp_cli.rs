//! Play the ESP Game yourself, in the terminal, against a replay bot.
//!
//! Simulated honest players pre-record sessions on a small image world;
//! then *you* are paired against those recordings, exactly like the
//! deployed game's single-player fallback. You see the image's "view"
//! (a few weak hints drawn from its tag cloud — you cannot see the
//! ground truth), type labels, and score when you agree with what the
//! recorded human typed. Promoted labels become taboo for later players.
//!
//! ```text
//! cargo run --release --example play_esp_cli
//! ```
//!
//! Type a label and press enter; `pass` to pass, `quit` to stop.

use human_computation::prelude::*;
use rand::SeedableRng;
use std::io::{BufRead, Write};

const ROUNDS: usize = 5;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(777);
    let mut cfg = WorldConfig::small();
    cfg.vocabulary = 60; // small vocabulary so hints are guessable
    cfg.zipf_exponent = 0.8;
    let world = EspWorld::generate(&cfg, &mut rng);
    let mut platform = Platform::new(PlatformConfig {
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    })
    .expect("valid config");
    world.register_tasks(&mut platform);

    // Seed recordings with a few simulated sessions.
    let mut population = PopulationBuilder::new(4)
        .mix(ArchetypeMix::all_honest())
        .build(&mut rng);
    for _ in 0..4 {
        platform.register_player();
    }
    for s in 0..6u64 {
        play_session(
            &mut platform,
            &world,
            &mut population,
            SessionParams::pair(
                PlayerId::new((s % 2) * 2),
                PlayerId::new((s % 2) * 2 + 1),
                SessionId::new(s),
                SimTime::from_secs(s * 1_000),
            ),
            &mut rng,
        );
    }
    let you = platform.register_player();

    println!("== ESP Game — you vs a recorded partner ==");
    println!("Agree with the recorded human on any label to score.");
    println!("Commands: 'pass', 'quit'.\n");

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    let mut score = 0u32;
    let mut now = SimTime::from_secs(100_000);
    let mut streak = 0u32;

    for round_no in 1..=ROUNDS {
        let Some(task) = platform.next_task_for(&[you], &mut rng) else {
            println!("no tasks left!");
            break;
        };
        if !platform.replay().has_recording(task) {
            platform.record_served(task, &[you]);
            continue; // only play recorded images in the CLI
        }
        platform.record_served(task, &[you]);
        let taboo = platform.taboo_for(task);
        let truth = world.truth_for_task(task).expect("registered task");
        let recording = platform
            .replay()
            .sample(task, &mut rng)
            .cloned()
            .expect("checked recording exists");

        // The "image": show a blurred view — two true tags at scrambled
        // letter order plus the taboo list (as the real UI does).
        println!("--- round {round_no}/{ROUNDS} · {task} ---");
        let hints: Vec<String> = truth
            .labels()
            .iter()
            .take(3)
            .map(|l| scramble(l.as_str()))
            .collect();
        println!("you see (scrambled tags): {}", hints.join("  "));
        if !taboo.is_empty() {
            let list: Vec<&str> = taboo.iter().map(|l| l.as_str()).collect();
            println!("taboo words: {}", list.join(", "));
        }

        let mut round = OutputAgreementRound::new(task, taboo, SimDuration::from_secs(150));
        // Feed the recorded partner's guesses upfront (they "type" them
        // at their recorded delays; for the CLI we submit them all).
        for (delay, label) in &recording.events {
            round.submit(Seat::Right, Answer::Text(label.clone()), now + *delay);
        }

        let mut matched = false;
        loop {
            print!("your label> ");
            std::io::stdout().flush().ok();
            let Some(Ok(line)) = lines.next() else {
                println!("(end of input)");
                return summary(score, &platform, &world);
            };
            let input = line.trim();
            if input.eq_ignore_ascii_case("quit") {
                return summary(score, &platform, &world);
            }
            if input.eq_ignore_ascii_case("pass") {
                println!("passed.");
                break;
            }
            now += SimDuration::from_secs(3);
            match round.submit(Seat::Left, Answer::text(input), now) {
                SubmitOutcome::Matched(Some(label)) => {
                    let pts = platform.score_rule().round_score(true, 10.0, streak);
                    score += pts;
                    streak += 1;
                    matched = true;
                    println!("MATCH on {:?}! +{pts} points", label.as_str());
                    let _ = platform.ingest_agreement(task, label, you, recording.recorded_player);
                    break;
                }
                SubmitOutcome::TabooViolation => println!("that word is taboo!"),
                SubmitOutcome::RoundOver => {
                    println!("round over.");
                    break;
                }
                _ => println!("no match yet — partner is thinking of something else…"),
            }
        }
        if !matched {
            streak = 0;
        }
        now += SimDuration::from_secs(60);
        println!();
    }
    summary(score, &platform, &world);
}

fn summary(score: u32, platform: &Platform, world: &EspWorld) {
    let (correct, total) = world.verified_precision(platform);
    println!("\n== game over: {score} points ==");
    println!("the platform now holds {total} verified labels ({correct} verifiably true)");
}

/// Scrambles interior letters, keeping first/last — a "blurred image".
fn scramble(word: &str) -> String {
    let chars: Vec<char> = word.chars().collect();
    if chars.len() <= 3 {
        return word.to_string();
    }
    let mut middle: Vec<char> = chars[1..chars.len() - 1].to_vec();
    middle.reverse();
    let mut out = String::new();
    out.push(chars[0]);
    out.extend(middle);
    out.push(chars[chars.len() - 1]);
    out
}
