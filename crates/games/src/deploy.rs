//! The deployment rules both campaign engines apply: [`deploy`] sets a
//! campaign up, [`Sitting`] is the sitting policy, [`exponential_delay`]
//! draws first arrivals and return gaps, [`close_session`] is what a
//! finished session does to the platform, and [`SessionTally`] counts
//! sessions for the report. The paper's ALP and expected contribution
//! are sums over these rules. Each engine keeps its own event loop,
//! storage (sitting lengths come in as a slice) and RNG streams.

use crate::shard::ShardGame;
use hc_core::prelude::*;
use hc_crowd::{ArchetypeMix, Population, PopulationBuilder};
use hc_sim::dist::Exponential;
use hc_sim::RngFactory;
use rand::Rng;

/// The least play time a session charges against a sitting.
const MIN_CHARGE: SimDuration = SimDuration::from_secs(1);

/// A campaign's platform, with `game` and every player registered, and
/// its population, drawn from the factory's `population` stream.
///
/// # Panics
///
/// Panics when `platform` is invalid.
pub(crate) fn deploy<G: ShardGame>(
    game: &G,
    platform: PlatformConfig,
    players: usize,
    mix: &ArchetypeMix,
    factory: &RngFactory,
) -> (Platform, Population) {
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics contract for invalid experiment configs"
    )]
    let mut platform = Platform::new(platform).expect("valid platform config");
    game.register(&mut platform);
    let population = PopulationBuilder::new(players)
        .mix(mix.clone())
        .build(&mut factory.stream("population"));
    for _ in 0..players {
        platform.register_player();
    }
    (platform, population)
}

/// An exponential delay with mean `mean` (at least 1 µs): a player's
/// first arrival after time zero, and the gap before a later sitting.
pub(crate) fn exponential_delay<R: Rng + ?Sized>(mean: SimDuration, rng: &mut R) -> SimDuration {
    #[expect(clippy::expect_used, reason = "rate argument clamped to at least 1e-6")]
    let secs = Exponential::new(1.0 / mean.as_secs_f64().max(1e-6))
        .expect("positive rate")
        .sample(rng);
    SimDuration::from_secs_f64(secs)
}

/// Where a player stands in their sittings: the index of the next one
/// and the play time left in the current one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Sitting {
    next: u32,
    remaining: SimDuration,
}

impl Sitting {
    /// An arrival: starts the next sitting when the current one is used
    /// up. `false` when the sittings have run out — the player churned.
    pub(crate) fn sit(&mut self, lengths: &[SimDuration]) -> bool {
        if self.remaining.is_zero() {
            let Some(&len) = lengths.get(self.next as usize) else {
                return false;
            };
            self.next += 1;
            self.remaining = len;
        }
        true
    }

    /// When a player done at `at` arrives next (`None`: churned). A
    /// session charges `played`, at least [`MIN_CHARGE`]; the player
    /// resumes at once while the sitting lasts, after a gap while
    /// sittings remain, else never. A give-up (`played` is `None`) keeps
    /// the sitting and returns after a gap. `gap` is called only when
    /// a gap is needed.
    pub(crate) fn next_arrival(
        &mut self,
        at: SimTime,
        played: Option<SimDuration>,
        lengths: &[SimDuration],
        gap: impl FnOnce() -> SimDuration,
    ) -> Option<SimTime> {
        if let Some(played) = played {
            self.remaining = self.remaining.saturating_sub(played.max(MIN_CHARGE));
            if !self.remaining.is_zero() {
                return Some(at);
            }
            if self.next as usize >= lengths.len() {
                return None;
            }
        }
        Some(at + gap())
    }
}

/// Ends a session on the platform: a solo session (one player in both
/// seats) clears the player's seen tasks, a live one is recorded.
pub(crate) fn close_session(platform: &mut Platform, transcript: &SessionTranscript) {
    let [left, right] = transcript.players;
    if left == right {
        platform.tasks_clear_seen(left);
    } else {
        platform.record_session(transcript);
    }
}

/// Live and solo session counts, and the solo play time the platform
/// does not record.
#[derive(Debug, Default)]
pub(crate) struct SessionTally {
    pub(crate) live: u64,
    pub(crate) solo: u64,
    pub(crate) solo_play: ContributionLedger,
}

impl SessionTally {
    /// Counts one finished session.
    pub(crate) fn count(&mut self, transcript: &SessionTranscript) {
        let [left, right] = transcript.players;
        if left == right {
            self.solo += 1;
            self.solo_play.record_play(left, transcript.duration());
        } else {
            self.live += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn no_gap() -> SimDuration {
        panic!("no gap is drawn here")
    }

    #[test]
    fn an_arrival_starts_the_next_sitting_and_churns_after_the_last() {
        let lengths = [secs(60), secs(30)];
        let mut sitting = Sitting::default();
        assert!(sitting.sit(&lengths));
        assert_eq!((sitting.next, sitting.remaining), (1, secs(60)));
        // Mid-sitting arrivals keep the sitting.
        assert!(sitting.sit(&lengths));
        assert_eq!((sitting.next, sitting.remaining), (1, secs(60)));
        sitting.remaining = SimDuration::ZERO;
        assert!(sitting.sit(&lengths));
        assert_eq!((sitting.next, sitting.remaining), (2, secs(30)));
        sitting.remaining = SimDuration::ZERO;
        assert!(!sitting.sit(&lengths), "the sittings ran out");
        assert_eq!((sitting.next, sitting.remaining), (2, SimDuration::ZERO));
    }

    #[test]
    fn a_session_charges_at_least_one_second() {
        let at = SimTime::from_secs(100);
        let mut sitting = Sitting {
            next: 1,
            remaining: secs(5),
        };
        let next = sitting.next_arrival(at, Some(SimDuration::ZERO), &[secs(5)], no_gap);
        assert_eq!(next, Some(at));
        assert_eq!(sitting.remaining, secs(4));
        let next = sitting.next_arrival(at, Some(SimDuration::from_millis(10)), &[secs(5)], no_gap);
        assert_eq!(next, Some(at));
        assert_eq!(sitting.remaining, secs(3));
        sitting.next_arrival(at, Some(secs(2)), &[secs(5)], no_gap);
        assert_eq!(sitting.remaining, secs(1));
    }

    #[test]
    fn a_player_resumes_now_while_the_sitting_lasts_and_after_a_gap_once_it_ends() {
        let at = SimTime::from_secs(100);
        let lengths = [secs(60), secs(60)];
        let mut sitting = Sitting {
            next: 1,
            remaining: secs(60),
        };
        assert_eq!(
            sitting.next_arrival(at, Some(secs(20)), &lengths, no_gap),
            Some(at)
        );
        assert_eq!(
            sitting.next_arrival(at, Some(secs(50)), &lengths, || secs(7)),
            Some(at + secs(7))
        );
        assert_eq!(sitting.remaining, SimDuration::ZERO);
        // The last sitting used up: no gap is drawn, the player churns.
        sitting.next = 2;
        sitting.remaining = secs(10);
        assert_eq!(
            sitting.next_arrival(at, Some(secs(10)), &lengths, no_gap),
            None
        );
    }

    #[test]
    fn a_give_up_keeps_the_sitting_and_returns_after_a_gap() {
        let at = SimTime::from_secs(100);
        for remaining in [SimDuration::ZERO, secs(45)] {
            let mut sitting = Sitting { next: 2, remaining };
            let next = sitting.next_arrival(at, None, &[secs(45), secs(45)], || secs(9));
            assert_eq!(next, Some(at + secs(9)));
            assert_eq!(sitting, Sitting { next: 2, remaining });
        }
    }

    #[test]
    fn a_delay_is_exponential_seconds_of_its_mean() {
        let mut a = RngFactory::new(3).stream("draws");
        let mut b = RngFactory::new(3).stream("draws");
        let mean = SimDuration::from_mins(30);
        for _ in 0..3 {
            let secs = Exponential::new(1.0 / mean.as_secs_f64())
                .expect("positive rate")
                .sample(&mut b);
            // A first arrival is the delay after time zero.
            assert_eq!(
                SimTime::ZERO + exponential_delay(mean, &mut a),
                SimTime::from_secs_f64(secs)
            );
        }
        // A zero mean still draws (at a 1 µs mean).
        assert!(exponential_delay(SimDuration::ZERO, &mut a) < SimDuration::from_millis(1));
    }

    #[test]
    fn a_solo_session_clears_seen_tasks_and_a_pair_is_recorded() {
        let mut platform = Platform::new(PlatformConfig::default()).expect("valid config");
        let task = platform.add_task(Stimulus::Image(0));
        let (a, b) = (platform.register_player(), platform.register_player());
        let cfg = platform.config().session;
        let start = SimTime::from_secs(10);
        let mut tally = SessionTally::default();

        platform.record_served(task, &[a]);
        assert_eq!(
            platform.next_task_for(&[a], &mut RngFactory::new(1).stream("t")),
            None
        );
        let solo = Session::new(SessionId::new(0), [a, a], start, cfg).finish(start + secs(30));
        close_session(&mut platform, &solo);
        tally.count(&solo);
        assert_eq!(
            platform.next_task_for(&[a], &mut RngFactory::new(1).stream("t")),
            Some(task),
            "a solo session clears its player's seen tasks"
        );
        assert_eq!(
            platform.metrics().player_count,
            0,
            "a solo session is not recorded"
        );

        let live = Session::new(SessionId::new(1), [a, b], start, cfg).finish(start + secs(60));
        close_session(&mut platform, &live);
        tally.count(&live);
        let metrics = platform.metrics();
        assert_eq!(metrics.player_count, 2, "a pair is recorded");
        assert_eq!(metrics.total_human_hours, 2.0 * 60.0 / 3600.0);
        assert_eq!((tally.live, tally.solo), (1, 1));
        assert_eq!(tally.solo_play.total_human_hours(), 30.0 / 3600.0);
    }
}
