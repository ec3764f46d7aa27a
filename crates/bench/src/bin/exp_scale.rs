//! Experiment SCALE — one simulation, many cores.
//!
//! Every other experiment scales by running *replications* in parallel;
//! the single run itself was serial, which caps the population one
//! study can simulate. This experiment drives the sharded single-run
//! engine (`hc_sim::shard` under `hc_games::shard`): players are
//! partitioned `id % K`, session play happens on worker threads inside
//! lock-stepped time windows, and the cross-shard exchange merges
//! messages in a layout-independent order — so the results are
//! **byte-identical at any `--shards` × `--threads` combination** while
//! wall-clock drops with cores.
//!
//! That pairing is exactly what CI checks: the same grid at
//! `--shards 1 --threads 1` and `--shards 4 --threads 4` must agree on
//! every result byte (`hc-bench compare --determinism`) while the
//! sharded run clears a wall-clock speedup floor
//! (`--min-speedup`). The full grid climbs to a million players — the
//! scaling-curve table in the README comes from its stdout.
//!
//! Unlike the other grids, the replication pool here is pinned to one
//! task at a time: `--threads` hands the cores to the sharded engine
//! *inside* the run instead of spreading them across reps.
//!
//! `--players N` runs the single cell at `N` players on a reduced sim
//! horizon (20 min instead of 2 h) — the release-mode smoke CI uses to
//! put the full million-player population through the bucketed
//! matchmaker on every PR.

use hc_bench::{f1, f3, run_grid, Cell, RunOpts, Table};
use hc_games::esp::EspWorld;
use hc_games::shard::{ShardedCampaign, ShardedCampaignConfig};
use hc_games::world::WorldConfig;
use hc_sim::{RngFactory, SimDuration, SimTime};
use serde::Serialize;

/// Everything here must be invariant to `--shards`/`--threads`: this
/// struct feeds the bench JSON `results` section that CI diffs across
/// engine layouts.
#[derive(Serialize)]
struct RepRow {
    players: usize,
    live_sessions: u64,
    solo_sessions: u64,
    verified_labels: usize,
    labels_per_hour: f64,
    alp_hours: f64,
    precision: f64,
    mean_wait_secs: f64,
}

fn main() {
    let opts = RunOpts::from_args();
    let reps = opts.reps_or(1, 1);
    let shards = opts.shards.unwrap_or(4);
    // `--players N` is the release-mode population smoke: one cell at
    // full population on a reduced sim horizon, so CI can afford the
    // million-player workload. The grid tiers keep the full horizon.
    let (populations, horizon, spread): (Vec<usize>, SimTime, SimDuration) =
        match (opts.players, opts.smoke) {
            (Some(p), _) => (
                vec![p],
                SimTime::from_secs(20 * 60),
                SimDuration::from_mins(10),
            ),
            (None, true) => (
                vec![50_000],
                SimTime::from_secs(2 * 3600),
                SimDuration::from_mins(45),
            ),
            (None, false) => (
                vec![10_000, 50_000, 200_000, 1_000_000],
                SimTime::from_secs(2 * 3600),
                SimDuration::from_mins(45),
            ),
        };
    let cells: Vec<Cell<usize>> = populations
        .iter()
        .map(|&p| Cell::new(format!("players={p}"), p))
        .collect();

    // The pool stays serial: this experiment measures the engine's own
    // parallelism, so all `--threads` cores belong to the shard phase.
    let mut pool_opts = opts.clone();
    pool_opts.threads = 1;

    let outcome = run_grid(&pool_opts, "exp_scale", cells, reps, |&players, ctx| {
        let factory = RngFactory::new(ctx.seed);
        let mut world_rng = factory.stream("world");
        let mut world_cfg = WorldConfig::small();
        // Enough stimuli that a large population does not starve the
        // task queue (task selection skips fully-verified images).
        world_cfg.stimuli = (players / 10).clamp(600, 20_000);
        let driver = EspWorld::generate(&world_cfg, &mut world_rng);
        let config = ShardedCampaignConfig {
            players,
            horizon,
            arrival_spread: spread,
            shards,
            threads: opts.threads,
            window: SimDuration::from_secs(10),
            // Skill tiers for the sharded wait pool — a semantic knob
            // (who can pair with whom), deliberately NOT tied to
            // `--shards`, so every layout produces identical pairings.
            match_buckets: 8,
            ..ShardedCampaignConfig::small()
        };
        let mut campaign = ShardedCampaign::new(driver, config, ctx.seed);
        let report = campaign.run().unwrap_or_else(|e| {
            eprintln!("exp_scale: shard engine failed: {e}");
            std::process::exit(1);
        });
        RepRow {
            players,
            live_sessions: report.live_sessions,
            solo_sessions: report.solo_sessions,
            verified_labels: report.precision.1,
            labels_per_hour: report.metrics.throughput_per_human_hour,
            alp_hours: report.metrics.alp_hours,
            precision: report.precision_rate(),
            mean_wait_secs: report.mean_wait_secs,
        }
    })
    .unwrap_or_else(|e| {
        eprintln!("exp_scale: {e}");
        std::process::exit(1);
    });

    let mut table = Table::new(
        "SCALE — sharded single-run engine vs population",
        &[
            "players",
            "live",
            "solo",
            "verified",
            "labels/hh",
            "ALP(h)",
            "precision",
            "wait(s)",
        ],
    );
    for cell in &outcome.cells {
        for row in &cell.reps {
            table.row(
                &[
                    row.players.to_string(),
                    row.live_sessions.to_string(),
                    row.solo_sessions.to_string(),
                    row.verified_labels.to_string(),
                    f1(row.labels_per_hour),
                    f3(row.alp_hours),
                    f3(row.precision),
                    f1(row.mean_wait_secs),
                ],
                row,
            );
        }
    }
    table.print();
    // Timing (and the shard/thread layout that produced it) is
    // machine-dependent context: stderr only, so stdout captures stay
    // bit-for-bit reproducible across layouts.
    eprintln!(
        "{} cells x {} reps, {} shards on {} engine threads: {:.2}s wall",
        outcome.cells.len(),
        outcome.reps,
        shards,
        opts.threads,
        outcome.timing.total_wall_secs
    );
    println!("\nexpected shape: identical bytes at every --shards/--threads; wall-clock falls with engine threads until the serial hub fraction dominates");
    outcome.write_bench_json(&opts);
    outcome.write_trace(&opts);
}
