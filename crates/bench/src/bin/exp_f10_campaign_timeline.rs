//! Experiment F10 — verified-label rate over a deployment's lifetime.
//!
//! The deployed ESP Game's production curve has a characteristic shape:
//! output per hour climbs as the player base warms up, then bends as the
//! image world saturates — every image carries taboo words for its
//! obvious labels, so each new verified label costs more guesses. We run
//! a 48-hour campaign and bucket verified labels into 2-hour windows,
//! together with cumulative world coverage, to regenerate that curve.

use hc_bench::{f1, pct, seed_from_args, Table};
use hc_games::{Campaign, CampaignConfig, EspWorld, WorldConfig};
use hc_sim::{RateSeries, RngFactory, SimDuration, SimTime};
use serde::Serialize;
use std::collections::HashSet;

const HORIZON_HOURS: u64 = 48;
const WINDOW_HOURS: u64 = 2;

#[derive(Serialize)]
struct Row {
    window_start_hours: f64,
    labels_per_hour: f64,
    cumulative_labels: u64,
    cumulative_coverage: f64,
}

fn main() {
    let seed = seed_from_args();
    let world = WorldConfig {
        stimuli: 12_000,
        ..WorldConfig::small()
    };
    let world_size = world.stimuli;
    let driver = EspWorld::generate(&world, &mut RngFactory::new(seed).stream("world"));
    let mut config = CampaignConfig::small();
    config.players = 100;
    config.horizon = SimTime::from_secs(HORIZON_HOURS * 3600);
    config.arrival_spread = SimDuration::from_hours(2);

    let mut campaign = Campaign::new(driver, config, seed);
    let report = campaign.run();

    // Bucket promotions by their platform timestamps.
    let mut series = RateSeries::new(SimDuration::from_hours(WINDOW_HOURS));
    for v in campaign.platform().verified_labels() {
        series.record(v.at, 1);
    }

    let mut table = Table::new(
        "F10 — verified labels per hour over a 48h ESP deployment",
        &["t (h)", "labels/h", "cumulative", "coverage"],
    );
    let mut cumulative = 0u64;
    let mut covered: HashSet<hc_core::TaskId> = HashSet::new();
    let mut label_iter = campaign.platform().verified_labels().iter().peekable();
    for (start, count) in series.iter() {
        cumulative += count;
        let window_end = start + SimDuration::from_hours(WINDOW_HOURS);
        while let Some(v) = label_iter.peek() {
            if v.at < window_end {
                covered.insert(v.task);
                label_iter.next();
            } else {
                break;
            }
        }
        let coverage = covered.len() as f64 / world_size as f64;
        let row = Row {
            window_start_hours: start.as_hours_f64(),
            labels_per_hour: count as f64 / WINDOW_HOURS as f64,
            cumulative_labels: cumulative,
            cumulative_coverage: coverage,
        };
        table.row(
            &[
                f1(row.window_start_hours),
                f1(row.labels_per_hour),
                cumulative.to_string(),
                pct(coverage),
            ],
            &row,
        );
    }
    table.print();
    println!(
        "\ncampaign totals: {} live + {} replay sessions, precision {:.3}",
        report.live_sessions,
        report.solo_sessions,
        report.precision_rate()
    );
    println!("expected shape: rate climbs during warm-up, coverage saturates toward 100%, and the marginal label rate bends as taboo lists deepen");
}
