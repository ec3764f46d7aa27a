//! Experiment F5 — platform scaling with concurrency.
//!
//! Output-agreement games need *pairs* of simultaneous players. This
//! experiment runs the full event-driven ESP campaign at increasing
//! population sizes and reports pairing wait, the replay-bot fallback
//! share, and verified-label throughput — the queueing story behind the
//! paper's observation that GWAPs live on busy portals (and why the
//! deployed ESP Game shipped a recorded-partner fallback at all).
//!
//! Grid-based: population cells × seed replications run on the parallel
//! replication pool (`--threads N`; outputs are byte-identical at any
//! thread count). This is the heaviest experiment binary, so it doubles
//! as CI's perf-smoke workload: `--smoke --bench-json` at `--threads 1`
//! and `--threads 4` demonstrates the pool's wall-clock speedup while
//! the determinism diff proves the bytes never moved.

use hc_bench::{f1, f3, mean, pct, run_grid, Cell, RunOpts, Table};
use hc_games::{Campaign, CampaignConfig, EspWorld, WorldConfig};
use hc_sim::{RngFactory, SimDuration, SimTime};
use serde::Serialize;

#[derive(Serialize)]
struct RepRow {
    players: usize,
    rep: usize,
    live_sessions: u64,
    replay_sessions: u64,
    replay_share: f64,
    mean_wait_secs: f64,
    labels_per_hour: f64,
    precision: f64,
}

#[derive(Serialize)]
struct CellRow {
    players: usize,
    reps: usize,
    live_sessions_mean: f64,
    replay_sessions_mean: f64,
    replay_share_mean: f64,
    mean_wait_secs: f64,
    labels_per_hour_mean: f64,
    precision_mean: f64,
}

fn main() {
    let opts = RunOpts::from_args();
    let reps = opts.reps_or(3, 2);
    // The smoke grid drops the trivial 4-player cell and the heavy
    // 128-player tail; CI's perf-smoke job raises `--reps` on top of it
    // to get a task population large enough for stable speedup numbers.
    let populations: &[usize] = if opts.smoke {
        &[8, 16, 32, 64]
    } else {
        &[4, 8, 16, 32, 64, 128]
    };
    let cells: Vec<Cell<usize>> = populations
        .iter()
        .map(|&p| Cell::new(format!("players={p}"), p))
        .collect();

    let outcome = run_grid(
        &opts,
        "exp_f5_throughput_scaling",
        cells,
        reps,
        |&players, ctx| {
            let world = WorldConfig {
                stimuli: 600,
                ..WorldConfig::small()
            };
            let driver = EspWorld::generate(&world, &mut RngFactory::new(ctx.seed).stream("world"));
            let mut config = CampaignConfig::small();
            config.players = players;
            config.horizon = SimTime::from_secs(24 * 3600);
            config.arrival_spread = SimDuration::from_mins(45);
            let report = Campaign::new(driver, config, ctx.seed).run();
            RepRow {
                players,
                rep: ctx.rep,
                live_sessions: report.live_sessions,
                replay_sessions: report.solo_sessions,
                replay_share: report.matchmaker.replay_share(),
                mean_wait_secs: report.mean_wait_secs,
                labels_per_hour: report.metrics.throughput_per_human_hour,
                precision: report.precision_rate(),
            }
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("exp_f5_throughput_scaling: {e}");
        std::process::exit(1);
    });

    let mut table = Table::new(
        "F5 — pairing latency, replay fallback and throughput vs population",
        &[
            "players",
            "live",
            "replay",
            "replay share",
            "wait(s)",
            "labels/hh",
            "precision",
        ],
    );
    for cell in &outcome.cells {
        let rows = &cell.reps;
        let Some(first) = rows.first() else { continue };
        let row = CellRow {
            players: first.players,
            reps: rows.len(),
            live_sessions_mean: mean(rows.iter().map(|r| r.live_sessions as f64)),
            replay_sessions_mean: mean(rows.iter().map(|r| r.replay_sessions as f64)),
            replay_share_mean: mean(rows.iter().map(|r| r.replay_share)),
            mean_wait_secs: mean(rows.iter().map(|r| r.mean_wait_secs)),
            labels_per_hour_mean: mean(rows.iter().map(|r| r.labels_per_hour)),
            precision_mean: mean(rows.iter().map(|r| r.precision)),
        };
        table.row(
            &[
                row.players.to_string(),
                f1(row.live_sessions_mean),
                f1(row.replay_sessions_mean),
                pct(row.replay_share_mean),
                f1(row.mean_wait_secs),
                f1(row.labels_per_hour_mean),
                f3(row.precision_mean),
            ],
            &row,
        );
    }
    table.print();
    // Timing is machine-dependent; stderr keeps `results/*.txt`
    // (stdout captures) bit-for-bit reproducible.
    eprintln!(
        "{} tasks ({} cells x {} reps) on {} threads: {:.2}s wall",
        outcome.cells.len() * outcome.reps,
        outcome.cells.len(),
        outcome.reps,
        outcome.threads,
        outcome.timing.total_wall_secs
    );
    println!("\nexpected shape: replay share and wait fall as the population grows; per-human-hour throughput stabilizes once live pairing dominates");
    outcome.write_bench_json(&opts);
    outcome.write_trace(&opts);
}
