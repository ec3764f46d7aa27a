//! Recorded sessions and replay bots.
//!
//! When too few players are online to form live pairs, the deployed ESP
//! Game paired the lone player with a **recording** of a past game on the
//! same images: the recorded partner "types" its old guesses with their
//! original timing, and agreement still verifies labels (the recorded
//! player was live once, and could not have coordinated with the current
//! one). [`ReplayStore`] keeps per-task recorded rounds; the platform
//! samples one when the matchmaker falls back.

use crate::answer::Label;
use crate::id::{PlayerId, TaskId};
use hc_sim::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One recorded round: the guess stream a player produced for a task, as
/// `(delay since round start, label)` events in nondecreasing delay order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedRound {
    /// The task the recording belongs to.
    pub task: TaskId,
    /// The player who was recorded (for pair-signature bookkeeping).
    pub recorded_player: PlayerId,
    /// Timed guesses, sorted by delay.
    pub events: Vec<(SimDuration, Label)>,
}

impl RecordedRound {
    /// Creates a recording; events are sorted by delay on construction.
    #[must_use]
    pub fn new(
        task: TaskId,
        recorded_player: PlayerId,
        mut events: Vec<(SimDuration, Label)>,
    ) -> Self {
        events.sort_by_key(|(d, _)| *d);
        RecordedRound {
            task,
            recorded_player,
            events,
        }
    }

    /// Number of recorded guesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the recording is silent.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Per-task bank of recorded rounds.
///
/// # Examples
///
/// ```
/// use hc_core::prelude::*;
/// use rand::SeedableRng;
///
/// let mut store = ReplayStore::new(4);
/// store.record(RecordedRound::new(
///     TaskId::new(1),
///     PlayerId::new(7),
///     vec![(SimDuration::from_secs(3), Label::new("dog"))],
/// ));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let rec = store.sample(TaskId::new(1), &mut rng).unwrap();
/// assert_eq!(rec.events[0].1, Label::new("dog"));
/// assert!(store.sample(TaskId::new(2), &mut rng).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplayStore {
    by_task: BTreeMap<TaskId, Vec<RecordedRound>>,
    capacity_per_task: usize,
    recorded_total: u64,
}

impl ReplayStore {
    /// Creates a store keeping at most `capacity_per_task` recordings per
    /// task (oldest evicted first; 0 is coerced to 1).
    #[must_use]
    pub fn new(capacity_per_task: usize) -> Self {
        ReplayStore {
            by_task: BTreeMap::new(),
            capacity_per_task: capacity_per_task.max(1),
            recorded_total: 0,
        }
    }

    /// Stores a recording (evicting the oldest beyond capacity). Silent
    /// recordings are not stored — a mute partner verifies nothing.
    pub fn record(&mut self, round: RecordedRound) {
        if round.is_empty() {
            return;
        }
        let entry = self.by_task.entry(round.task).or_default();
        entry.push(round);
        if entry.len() > self.capacity_per_task {
            entry.remove(0);
        }
        self.recorded_total += 1;
    }

    /// Samples a uniformly random recording for `task`.
    pub fn sample<R: Rng + ?Sized>(&self, task: TaskId, rng: &mut R) -> Option<&RecordedRound> {
        let list = self.by_task.get(&task)?;
        if list.is_empty() {
            return None;
        }
        Some(&list[rng.gen_range(0..list.len())])
    }

    /// Total recordings ever stored (including evicted).
    #[must_use]
    pub fn recorded_total(&self) -> u64 {
        self.recorded_total
    }

    /// `true` if `task` has at least one recording.
    #[must_use]
    pub fn has_recording(&self, task: TaskId) -> bool {
        self.by_task.get(&task).is_some_and(|l| !l.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    fn rec(task: u64, player: u64, labels: &[&str]) -> RecordedRound {
        RecordedRound::new(
            TaskId::new(task),
            PlayerId::new(player),
            labels
                .iter()
                .enumerate()
                .map(|(i, l)| (SimDuration::from_secs(i as u64), Label::new(l)))
                .collect(),
        )
    }

    #[test]
    fn events_sort_by_delay_on_construction() {
        let r = RecordedRound::new(
            TaskId::new(1),
            PlayerId::new(1),
            vec![
                (SimDuration::from_secs(9), Label::new("late")),
                (SimDuration::from_secs(1), Label::new("early")),
            ],
        );
        assert_eq!(r.events[0].1, Label::new("early"));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn empty_recordings_are_dropped() {
        let mut s = ReplayStore::new(4);
        s.record(RecordedRound::new(TaskId::new(1), PlayerId::new(1), vec![]));
        assert!(!s.has_recording(TaskId::new(1)));
        assert_eq!(s.recorded_total(), 0);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = ReplayStore::new(2);
        s.record(rec(1, 1, &["a"]));
        s.record(rec(1, 2, &["b"]));
        s.record(rec(1, 3, &["c"]));
        assert_eq!(s.recorded_total(), 3);
        // Only players 2 and 3 remain; sample many times and check.
        let mut r = rng();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            seen.insert(s.sample(TaskId::new(1), &mut r).unwrap().recorded_player);
        }
        assert!(!seen.contains(&PlayerId::new(1)));
        assert!(seen.contains(&PlayerId::new(2)));
        assert!(seen.contains(&PlayerId::new(3)));
    }

    #[test]
    fn sampling_uncovered_task_is_none() {
        let s = ReplayStore::new(4);
        let mut r = rng();
        assert!(s.sample(TaskId::new(1), &mut r).is_none());
        assert!(!s.has_recording(TaskId::new(1)));
    }

    #[test]
    fn coverage_counts_tasks() {
        let mut s = ReplayStore::new(4);
        s.record(rec(1, 1, &["a"]));
        s.record(rec(2, 1, &["b"]));
        s.record(rec(2, 2, &["c"]));
        assert!(s.has_recording(TaskId::new(1)));
        assert!(s.has_recording(TaskId::new(2)));
        assert!(!s.has_recording(TaskId::new(3)));
    }

    #[test]
    fn zero_capacity_coerced() {
        let mut s = ReplayStore::new(0);
        s.record(rec(1, 1, &["a"]));
        assert!(s.has_recording(TaskId::new(1)));
    }
}
