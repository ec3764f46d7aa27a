//! GWAP evaluation metrics: throughput, ALP, expected contribution.
//!
//! The paper proposes exactly three numbers to compare games with a
//! purpose:
//!
//! * **Throughput** — problem instances solved per *human-hour* of play.
//!   Time is counted per participating human, so an hour of a two-player
//!   game contributes two human-hours.
//! * **ALP (average lifetime play)** — the expected total time a player
//!   spends on the game over their lifetime; the "enjoyability" factor.
//! * **Expected contribution** = throughput × ALP — the number of problem
//!   instances one average recruit will ultimately solve, the headline
//!   column of experiment T1.
//!
//! [`ContributionLedger`] accumulates play time and verified outputs and
//! computes all three, preserving the accounting identity
//! `expected_contribution = throughput × alp` exactly.

use crate::id::PlayerId;
use hc_collect::PlayerStore;
use hc_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// The paper's three metrics for one game.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GwapMetrics {
    /// Verified problem instances per human-hour of play.
    pub throughput_per_human_hour: f64,
    /// Average lifetime play per player, in hours.
    pub alp_hours: f64,
    /// Expected verified instances contributed by one average player over
    /// their lifetime (`throughput × ALP`).
    pub expected_contribution: f64,
    /// Total verified outputs counted.
    pub total_outputs: u64,
    /// Total human-hours counted.
    pub total_human_hours: f64,
    /// Distinct players counted.
    pub player_count: u64,
}

impl GwapMetrics {
    /// The three metrics from play totals. With no recorded time or no
    /// players every rate is 0 (never NaN).
    #[must_use]
    pub fn from_totals(
        total_outputs: u64,
        total_human_hours: f64,
        player_count: u64,
    ) -> GwapMetrics {
        let throughput = if total_human_hours > 0.0 {
            total_outputs as f64 / total_human_hours
        } else {
            0.0
        };
        let alp = if player_count > 0 {
            total_human_hours / player_count as f64
        } else {
            0.0
        };
        GwapMetrics {
            throughput_per_human_hour: throughput,
            alp_hours: alp,
            expected_contribution: throughput * alp,
            total_outputs,
            total_human_hours,
            player_count,
        }
    }

    /// A campaign's metrics: the platform ledger's live play (`live`,
    /// from [`ContributionLedger::metrics`]) plus the play time of solo
    /// sessions, which a campaign keeps in its own `solo` ledger because
    /// replay-bot sessions bypass the platform's two-seat accounting.
    ///
    /// Outputs come from `live` alone; hours add. `player_count` is
    /// `max(live players, solo players)`, a **lower bound** on the size of
    /// the union of the two player sets, so ALP (hours per player) reads
    /// high whenever some players played only solo and others only live.
    #[must_use]
    pub fn with_solo_play(live: &GwapMetrics, solo: &ContributionLedger) -> GwapMetrics {
        GwapMetrics::from_totals(
            live.total_outputs,
            live.total_human_hours + solo.total_human_hours(),
            live.player_count.max(solo.player_count()),
        )
    }
}

impl std::fmt::Display for GwapMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "throughput={:.1}/h  ALP={:.1}min  expected contribution={:.0}",
            self.throughput_per_human_hour,
            self.alp_hours * 60.0,
            self.expected_contribution
        )
    }
}

/// Accumulates per-player play time and verified outputs.
///
/// # Examples
///
/// ```
/// use hc_core::{ContributionLedger, PlayerId};
/// use hc_sim::SimDuration;
///
/// let mut ledger = ContributionLedger::new();
/// // Two players play one hour together and verify 200 labels.
/// ledger.record_play(PlayerId::new(1), SimDuration::from_hours(1));
/// ledger.record_play(PlayerId::new(2), SimDuration::from_hours(1));
/// ledger.record_outputs(200);
///
/// let m = ledger.metrics();
/// assert!((m.throughput_per_human_hour - 100.0).abs() < 1e-9);
/// assert!((m.alp_hours - 1.0).abs() < 1e-9);
/// assert!((m.expected_contribution - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContributionLedger {
    // Hot on every session end. Lookups/inserts are order-free; the one
    // iteration that feeds an f64 sum (`total_human_hours`) runs in the
    // store's id order — sorted key order — so the summation order, and
    // therefore the exact float result, matches the old map byte for byte.
    play_time: PlayerStore<SimDuration>,
    total_outputs: u64,
}

impl ContributionLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        ContributionLedger::default()
    }

    /// Adds play time for one player (call once per session per player).
    ///
    /// Under an `hc-obs` recording scope this also emits the
    /// `metrics.play_us` / `metrics.players` counters, so `trace
    /// summary` can report throughput and ALP live; the counters mirror
    /// the ledger exactly (see the `obs_metrics` regression test).
    pub fn record_play(&mut self, player: PlayerId, time: SimDuration) {
        if hc_obs::active() {
            if !self.play_time.contains(player.raw()) {
                hc_obs::counter_now("metrics.players", 1);
            }
            hc_obs::counter_now("metrics.play_us", time.ticks());
        }
        let entry = self
            .play_time
            .get_or_insert_with(player.raw(), || SimDuration::ZERO);
        *entry += time;
    }

    /// Adds `n` verified outputs (mirrored to the `metrics.outputs`
    /// counter under a recording scope).
    pub fn record_outputs(&mut self, n: u64) {
        if hc_obs::active() {
            hc_obs::counter_now("metrics.outputs", n);
        }
        self.total_outputs += n;
    }

    /// Total verified outputs so far.
    #[must_use]
    pub fn total_outputs(&self) -> u64 {
        self.total_outputs
    }

    /// Total human-hours so far.
    #[must_use]
    pub fn total_human_hours(&self) -> f64 {
        // Float addition is not associative: sum in sorted key order,
        // exactly as the previous BTreeMap-backed ledger did.
        self.play_time.iter().map(|(_, d)| d.as_hours_f64()).sum()
    }

    /// Distinct players with any recorded time.
    #[must_use]
    pub fn player_count(&self) -> u64 {
        self.play_time.len() as u64
    }

    /// Computes the paper's three metrics (see
    /// [`GwapMetrics::from_totals`]).
    #[must_use]
    pub fn metrics(&self) -> GwapMetrics {
        GwapMetrics::from_totals(
            self.total_outputs,
            self.total_human_hours(),
            self.player_count(),
        )
    }

    /// Merges another ledger into this one (per-player times add).
    ///
    /// Deliberately does *not* re-emit `hc-obs` counters: the other
    /// ledger's `record_play`/`record_outputs` calls already emitted
    /// them when they happened, so merging must not double-count.
    pub fn merge(&mut self, other: &ContributionLedger) {
        for (p, d) in other.play_time.iter() {
            let entry = self.play_time.get_or_insert_with(p, || SimDuration::ZERO);
            *entry += *d;
        }
        self.total_outputs += other.total_outputs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_contribution_equals_throughput_times_alp() {
        let mut l = ContributionLedger::new();
        for i in 0..10 {
            l.record_play(PlayerId::new(i), SimDuration::from_mins(30 + i * 10));
        }
        l.record_outputs(1234);
        let m = l.metrics();
        assert!((m.expected_contribution - m.throughput_per_human_hour * m.alp_hours).abs() < 1e-9);
        assert_eq!(m.total_outputs, 1234);
        assert_eq!(m.player_count, 10);
    }

    #[test]
    fn alp_is_mean_over_players() {
        let mut l = ContributionLedger::new();
        l.record_play(PlayerId::new(1), SimDuration::from_hours(2));
        l.record_play(PlayerId::new(2), SimDuration::from_hours(4));
        assert!((l.metrics().alp_hours - 3.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_sessions_accumulate_per_player() {
        let mut l = ContributionLedger::new();
        l.record_play(PlayerId::new(1), SimDuration::from_mins(30));
        l.record_play(PlayerId::new(1), SimDuration::from_mins(61));
        assert_eq!(l.player_count(), 1);
        assert!((l.metrics().alp_hours - 91.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_is_all_zero() {
        let m = ContributionLedger::new().metrics();
        assert_eq!(m.throughput_per_human_hour, 0.0);
        assert_eq!(m.alp_hours, 0.0);
        assert_eq!(m.expected_contribution, 0.0);
        assert!(!m.throughput_per_human_hour.is_nan());
    }

    #[test]
    fn outputs_without_time_yield_zero_throughput() {
        let mut l = ContributionLedger::new();
        l.record_outputs(10);
        let m = l.metrics();
        assert_eq!(m.throughput_per_human_hour, 0.0);
        assert_eq!(m.total_outputs, 10);
    }

    #[test]
    fn merge_adds_per_player_and_outputs() {
        let mut a = ContributionLedger::new();
        a.record_play(PlayerId::new(1), SimDuration::from_hours(1));
        a.record_outputs(5);
        let mut b = ContributionLedger::new();
        b.record_play(PlayerId::new(1), SimDuration::from_hours(1));
        b.record_play(PlayerId::new(2), SimDuration::from_hours(2));
        b.record_outputs(7);
        a.merge(&b);
        assert_eq!(a.total_outputs(), 12);
        assert_eq!(a.player_count(), 2);
        assert!((a.total_human_hours() - 4.0).abs() < 1e-12);
        assert!((a.metrics().alp_hours - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solo_play_adds_hours_and_counts_the_larger_player_set() {
        let mut live = ContributionLedger::new();
        live.record_play(PlayerId::new(1), SimDuration::from_hours(1));
        live.record_play(PlayerId::new(2), SimDuration::from_hours(1));
        live.record_outputs(30);
        let mut solo = ContributionLedger::new();
        solo.record_play(PlayerId::new(3), SimDuration::from_hours(1));
        let m = GwapMetrics::with_solo_play(&live.metrics(), &solo);
        assert_eq!(m.total_outputs, 30);
        assert!((m.total_human_hours - 3.0).abs() < 1e-12);
        assert!((m.throughput_per_human_hour - 10.0).abs() < 1e-12);
        // Three distinct players played, but the bound counts two.
        assert_eq!(m.player_count, 2);
        assert!((m.alp_hours - 1.5).abs() < 1e-12);
        let empty = GwapMetrics::with_solo_play(&ContributionLedger::new().metrics(), &solo);
        assert_eq!(empty.throughput_per_human_hour, 0.0);
        assert_eq!(
            GwapMetrics::with_solo_play(&live.metrics(), &ContributionLedger::new()),
            live.metrics()
        );
    }

    #[test]
    fn esp_game_shaped_numbers() {
        // Calibration sanity: 233 labels/human-hour and 91 min ALP must
        // yield the paper's expected contribution (~353 labels/player).
        let mut l = ContributionLedger::new();
        l.record_play(PlayerId::new(1), SimDuration::from_mins(91));
        l.record_outputs((233.0_f64 * 91.0 / 60.0).round() as u64);
        let m = l.metrics();
        assert!((m.expected_contribution - 353.0).abs() < 2.0, "{m}");
    }

    #[test]
    fn metrics_display() {
        let m = ContributionLedger::new().metrics();
        assert!(m.to_string().contains("throughput"));
    }
}
