//! Experiment F11 — time-of-day pairing dynamics.
//!
//! Real GWAP portals breathe with the day: traffic swings by multiples
//! between peak evening and dead night, and since output-agreement needs
//! *simultaneous* strangers, the replay-bot fallback rate swings with it
//! — the live-pairing fraction is a super-linear function of
//! instantaneous arrival rate. We drive a 24-hour non-homogeneous Poisson
//! arrival stream (sinusoidal profile) through epoch-based random
//! matching and report, per hour of day: arrivals, live pairs, and the
//! share of players who gave up unpaired (the replay-bot demand curve),
//! averaged over seed replications fanned out on the parallel pool.
//!
//! (The waiting-pool bookkeeping uses `BTreeMap`, not `HashMap`: the
//! pool rebuild iterates the map, and hash iteration order would leak
//! process-level nondeterminism into the pairing sequence.)

use hc_bench::{f1, mean, pct, run_grid, Cell, RunOpts, Table};
use hc_core::prelude::*;
use hc_sim::prelude::*;
use serde::Serialize;
use std::collections::BTreeMap;

/// Matching epoch length.
const EPOCH: SimDuration = SimDuration::from_secs(30);
/// Epochs a player waits before giving up (≈ the replay-bot threshold).
const PATIENCE_EPOCHS: u32 = 2;

#[derive(Serialize, Clone)]
struct HourRep {
    hour: u64,
    arrivals: u64,
    live_pairs: u64,
    gave_up: u64,
    replay_share: f64,
}

#[derive(Serialize)]
struct HourRow {
    hour: u64,
    reps: usize,
    arrivals_mean: f64,
    live_pairs_mean: f64,
    gave_up_mean: f64,
    replay_share_mean: f64,
}

/// One full simulated day; returns the 24 per-hour records.
fn one_day(mut rng: SimRng) -> Vec<HourRep> {
    // Peak at hour 6 of the cycle, trough at hour 18; traffic swings 19:1.
    let arrivals_process = DiurnalProcess::new(0.05, 0.9, SimDuration::ZERO);
    let day = SimTime::from_secs(86_400);
    let arrivals = arrivals_process.arrivals_between(SimTime::ZERO, day, &mut rng);

    let mut matcher = BatchMatcher::new(PairingPolicy::Random);
    let mut waited_epochs: BTreeMap<PlayerId, u32> = BTreeMap::new();
    let mut arrivals_series = RateSeries::new(SimDuration::from_hours(1));
    let mut pairs_series = RateSeries::new(SimDuration::from_hours(1));
    let mut giveup_series = RateSeries::new(SimDuration::from_hours(1));

    let mut next_id = 0u64;
    let mut arrival_iter = arrivals.iter().peekable();
    let mut epoch_end = SimTime::ZERO + EPOCH;
    while epoch_end <= day {
        // Admit this epoch's arrivals.
        while let Some(&&at) = arrival_iter.peek() {
            if at <= epoch_end {
                let p = PlayerId::new(next_id);
                next_id += 1;
                matcher.join(p);
                waited_epochs.insert(p, 0);
                arrivals_series.record(at, 1);
                arrival_iter.next();
            } else {
                break;
            }
        }
        // Pair the epoch.
        let pairs = matcher.pair_epoch(&mut rng);
        for (a, b) in &pairs {
            waited_epochs.remove(a);
            waited_epochs.remove(b);
            pairs_series.record(epoch_end, 1);
        }
        // Age the leftover; evict the impatient (they get a replay bot).
        let mut gave_up = Vec::new();
        for (p, w) in waited_epochs.iter_mut() {
            *w += 1;
            if *w > PATIENCE_EPOCHS {
                gave_up.push(*p);
            }
        }
        for p in gave_up {
            waited_epochs.remove(&p);
            giveup_series.record(epoch_end, 1);
        }
        // Rebuild the matcher pool from still-waiting players (the
        // BatchMatcher would otherwise retain evicted ids).
        let waiting: Vec<PlayerId> = waited_epochs.keys().copied().collect();
        matcher = rebuilt(matcher, &waiting);
        epoch_end += EPOCH;
    }

    (0..24u64)
        .map(|hour| {
            let i = hour as usize;
            let arr = arrivals_series.window_count(i);
            let pairs = pairs_series.window_count(i);
            let gave = giveup_series.window_count(i);
            let served_live = pairs * 2;
            let total = served_live + gave;
            HourRep {
                hour,
                arrivals: arr,
                live_pairs: pairs,
                gave_up: gave,
                replay_share: if total == 0 {
                    0.0
                } else {
                    gave as f64 / total as f64
                },
            }
        })
        .collect()
}

fn main() {
    let opts = RunOpts::from_args();
    let reps = opts.reps_or(4, 2);
    let outcome = run_grid(
        &opts,
        "exp_f11_diurnal",
        vec![Cell::new("day", ())],
        reps,
        |(), ctx| one_day(ctx.rng),
    )
    .unwrap_or_else(|e| {
        eprintln!("exp_f11_diurnal: {e}");
        std::process::exit(1);
    });
    let days: Vec<&Vec<HourRep>> = outcome.cells.iter().flat_map(|c| c.reps.iter()).collect();

    let mut table = Table::new(
        "F11 — diurnal traffic: live pairing vs replay demand by hour",
        &["hour", "arrivals", "live pairs", "gave up", "replay share"],
    );
    for hour in 0..24usize {
        let at_hour: Vec<&HourRep> = days.iter().filter_map(|d| d.get(hour)).collect();
        let row = HourRow {
            hour: hour as u64,
            reps: at_hour.len(),
            arrivals_mean: mean(at_hour.iter().map(|h| h.arrivals as f64)),
            live_pairs_mean: mean(at_hour.iter().map(|h| h.live_pairs as f64)),
            gave_up_mean: mean(at_hour.iter().map(|h| h.gave_up as f64)),
            replay_share_mean: mean(at_hour.iter().map(|h| h.replay_share)),
        };
        table.row(
            &[
                f1(row.hour as f64),
                f1(row.arrivals_mean),
                f1(row.live_pairs_mean),
                f1(row.gave_up_mean),
                pct(row.replay_share_mean),
            ],
            &row,
        );
    }
    table.print();
    println!("\nexpected shape: replay share is lowest at the traffic peak (hour ~6) and highest in the dead of night (hour ~18) — live pairing is super-linear in arrival rate");
    outcome.write_bench_json(&opts);
    outcome.write_trace(&opts);
}

/// Rebuilds a matcher containing exactly `waiting` (preserving policy and
/// counters' semantics for this experiment's purposes).
fn rebuilt(old: BatchMatcher, waiting: &[PlayerId]) -> BatchMatcher {
    let mut m = BatchMatcher::new(old.policy());
    for p in waiting {
        m.join(*p);
    }
    m
}
