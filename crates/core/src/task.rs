//! Problem instances ("tasks") and task scheduling.
//!
//! A task is one unit of work the crowd should solve: an image to label, a
//! word to transcribe, an audio clip to tag. The platform keeps tasks in a
//! [`TaskQueue`] that implements the scheduling policy the deployed games
//! used: serve the task with the fewest verified outputs first (so coverage
//! grows evenly), and never show a player the same task twice within a
//! session.

use crate::answer::Label;
use crate::id::{PlayerId, TaskId};
use crate::verify::TabooList;
use hc_collect::{DetMap, PlayerStore};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// What a task presents to the player — an abstract stimulus reference.
///
/// The synthetic worlds in `hc-games` attach ground-truth semantics to
/// these references; the platform itself treats them opaquely.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Stimulus {
    /// An image, referenced by an index into a world's image table.
    Image(u64),
    /// An audio clip, referenced by index.
    AudioClip(u64),
    /// A single word (e.g. a scanned word for transcription).
    Word(String),
    /// A short text snippet.
    TextSnippet(String),
    /// An opaque, domain-specific reference.
    Custom(u64),
}

impl Stimulus {
    /// A short kind name for diagnostics.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Stimulus::Image(_) => "image",
            Stimulus::AudioClip(_) => "audio",
            Stimulus::Word(_) => "word",
            Stimulus::TextSnippet(_) => "text",
            Stimulus::Custom(_) => "custom",
        }
    }
}

/// Lifecycle of a task inside a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskState {
    /// Not yet served to any round.
    Fresh,
    /// Served at least once but not yet verified to the job's threshold.
    InProgress,
    /// Enough verified outputs were collected; the task is done.
    Completed,
    /// Administratively removed (e.g. malformed stimulus).
    Retired,
}

/// One problem instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Unique id.
    pub id: TaskId,
    /// What the player sees.
    pub stimulus: Stimulus,
    /// Current lifecycle state.
    pub state: TaskState,
    /// Labels that are off-limits for this task (ESP taboo words), in
    /// promotion order. Grows as outputs are verified; planned rounds
    /// share it as a snapshot.
    pub taboo: TabooList,
    /// How many rounds have served this task.
    pub times_served: u32,
    /// How many verified outputs this task has produced.
    pub verified_outputs: u32,
}

impl Task {
    /// Creates a fresh task.
    #[must_use]
    pub fn new(id: TaskId, stimulus: Stimulus) -> Self {
        Task {
            id,
            stimulus,
            state: TaskState::Fresh,
            taboo: TabooList::new(),
            times_served: 0,
            verified_outputs: 0,
        }
    }
}

/// The platform's task store plus its serving policy.
///
/// `next_for` returns the least-covered live task that none of the given
/// players has already seen in their current session; `record_served` and
/// `record_verified` feed the coverage counters back.
///
/// # Examples
///
/// ```
/// use hc_core::{Stimulus, Task, TaskQueue, TaskId, PlayerId};
///
/// let mut q = TaskQueue::new();
/// for i in 0..3 {
///     q.insert(Task::new(TaskId::new(i), Stimulus::Image(i)));
/// }
/// let (a, b) = (PlayerId::new(1), PlayerId::new(2));
/// let first = q.next_for(&[a, b]).unwrap();
/// q.record_served(first, &[a, b]);
/// // The same pair is never served the same task twice.
/// let second = q.next_for(&[a, b]).unwrap();
/// assert_ne!(first, second);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskQueue {
    // Both stores are on the serving hot path (every `next_for` /
    // `record_served`). `tasks` is iterated only for order-free counts
    // and the explicitly order-unspecified `iter()`; `seen` is
    // membership-only. Scheduling order comes from `live`.
    tasks: DetMap<TaskId, Task>,
    /// Every task that is neither completed nor retired, by its current
    /// level `(verified_outputs, times_served)`; each level's ids stay
    /// ascending, so walking the levels in order and each level's ids in
    /// turn is serving priority. Every count or state change moves the
    /// task to another level. A served task usually leaves the front of
    /// its level, which a deque does in O(1) however large the level.
    live: Levels,
    /// The tasks each player was served since their seen marks were last
    /// cleared, without repeats. Sessions clear them when they end, so a
    /// list holds at most one session's rounds and a scan beats hashing.
    seen: PlayerStore<Vec<TaskId>>,
}

/// Live task ids by level, each level's ids ascending.
type Levels = BTreeMap<(u32, u32), VecDeque<TaskId>>;

/// A task's level in [`TaskQueue::live`]; `None` once it can never be
/// served again.
fn level(task: &Task) -> Option<(u32, u32)> {
    (!matches!(task.state, TaskState::Completed | TaskState::Retired))
        .then_some((task.verified_outputs, task.times_served))
}

impl TaskQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        TaskQueue::default()
    }

    /// Adds a task to the store, replacing any task with the same id.
    pub fn insert(&mut self, task: Task) {
        let (id, new) = (task.id, level(&task));
        if let Some(old) = self.tasks.insert(id, task) {
            unlink(&mut self.live, level(&old), id);
        }
        link(&mut self.live, new, id);
    }

    /// Applies `change` to a stored task and moves it to its new level
    /// in `live`.
    fn update(&mut self, id: TaskId, change: impl FnOnce(&mut Task)) {
        let Some(task) = self.tasks.get_mut(&id) else {
            return;
        };
        let old = level(task);
        change(task);
        let new = level(task);
        if old != new {
            unlink(&mut self.live, old, id);
            link(&mut self.live, new, id);
        }
    }

    /// Looks up a task.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(&id)
    }

    /// Number of stored tasks (any state).
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of tasks in [`TaskState::Completed`].
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.tasks
            .values()
            .filter(|t| t.state == TaskState::Completed)
            .count()
    }

    /// Chooses the next task for the given players: least verified, then
    /// least served, then lowest id, excluding completed/retired tasks and
    /// tasks any of the players has already seen. Returns `None` when
    /// nothing qualifies.
    #[must_use]
    pub fn next_for(&self, players: &[PlayerId]) -> Option<TaskId> {
        let seen = players.iter().filter_map(|p| self.seen.get(p.raw()));
        self.live
            .values()
            .flatten()
            .copied()
            .find(|id| !seen.clone().any(|s| s.contains(id)))
    }

    /// Records that `task` was served to `players` (increments the serve
    /// counter and marks it seen by each player).
    pub fn record_served(&mut self, task: TaskId, players: &[PlayerId]) {
        self.update(task, |t| {
            t.times_served += 1;
            if t.state == TaskState::Fresh {
                t.state = TaskState::InProgress;
            }
        });
        for p in players {
            let seen = self.seen.get_or_insert_with(p.raw(), Vec::new);
            if !seen.contains(&task) {
                seen.push(task);
            }
        }
    }

    /// Records a verified output for `task`; marks the task completed when
    /// `completion_threshold` verified outputs accumulate (0 = never
    /// auto-complete).
    pub fn record_verified(&mut self, task: TaskId, completion_threshold: u32) {
        self.update(task, |t| {
            t.verified_outputs += 1;
            if t.state == TaskState::Fresh {
                t.state = TaskState::InProgress;
            }
            if completion_threshold > 0 && t.verified_outputs >= completion_threshold {
                t.state = TaskState::Completed;
            }
        });
    }

    /// Adds a taboo label to a task (ESP Game: verified labels become
    /// off-limits so future pairs produce *new* labels). Snapshots taken
    /// earlier keep the list they were taken with.
    pub fn add_taboo(&mut self, task: TaskId, label: Label) {
        if let Some(t) = self.tasks.get_mut(&task) {
            t.taboo.insert(label);
        }
    }

    /// Forgets which tasks `player` has seen (called when their session
    /// ends, so a future session may revisit tasks).
    pub fn clear_seen(&mut self, player: PlayerId) {
        self.seen.take(player.raw());
    }

    /// Iterates over all tasks in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.tasks.values()
    }
}

/// Removes `id` from `level` (a binary search), dropping the level once
/// it is empty.
fn unlink(live: &mut Levels, level: Option<(u32, u32)>, id: TaskId) {
    let Some(level) = level else { return };
    if let Some(ids) = live.get_mut(&level) {
        if let Ok(at) = ids.binary_search(&id) {
            ids.remove(at);
        }
        if ids.is_empty() {
            live.remove(&level);
        }
    }
}

/// Adds `id` to `level`, keeping its ids ascending; usually an append,
/// since tasks move up one level at a time in id order.
fn link(live: &mut Levels, level: Option<(u32, u32)>, id: TaskId) {
    let Some(level) = level else { return };
    let ids = live.entry(level).or_default();
    if let Err(at) = ids.binary_search(&id) {
        ids.insert(at, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(i: u64) -> Task {
        Task::new(TaskId::new(i), Stimulus::Image(i))
    }

    #[test]
    fn serves_least_covered_first() {
        let mut q = TaskQueue::new();
        q.insert(task(1));
        q.insert(task(2));
        // Give task 1 a verified output; task 2 should now be preferred.
        q.record_verified(TaskId::new(1), 0);
        let next = q.next_for(&[]).unwrap();
        assert_eq!(next, TaskId::new(2));
    }

    #[test]
    fn never_repeats_for_same_player() {
        let mut q = TaskQueue::new();
        q.insert(task(1));
        q.insert(task(2));
        let p = PlayerId::new(9);
        let first = q.next_for(&[p]).unwrap();
        q.record_served(first, &[p]);
        let second = q.next_for(&[p]).unwrap();
        assert_ne!(first, second);
        q.record_served(second, &[p]);
        assert_eq!(q.next_for(&[p]), None, "both tasks seen");
        // A fresh player can still be served.
        assert!(q.next_for(&[PlayerId::new(10)]).is_some());
    }

    #[test]
    fn clear_seen_allows_revisit() {
        let mut q = TaskQueue::new();
        q.insert(task(1));
        let p = PlayerId::new(1);
        let t = q.next_for(&[p]).unwrap();
        q.record_served(t, &[p]);
        assert_eq!(q.next_for(&[p]), None);
        q.clear_seen(p);
        assert_eq!(q.next_for(&[p]), Some(t));
    }

    #[test]
    fn completion_threshold_retires_tasks_from_serving() {
        let mut q = TaskQueue::new();
        q.insert(task(1));
        q.record_verified(TaskId::new(1), 2);
        assert_eq!(q.get(TaskId::new(1)).unwrap().state, TaskState::InProgress);
        q.record_verified(TaskId::new(1), 2);
        assert_eq!(q.get(TaskId::new(1)).unwrap().state, TaskState::Completed);
        assert_eq!(q.next_for(&[]), None);
        assert_eq!(q.completed_count(), 1);
    }

    #[test]
    fn serving_transitions_fresh_to_in_progress() {
        let mut q = TaskQueue::new();
        q.insert(task(1));
        assert_eq!(q.get(TaskId::new(1)).unwrap().state, TaskState::Fresh);
        q.record_served(TaskId::new(1), &[]);
        assert_eq!(q.get(TaskId::new(1)).unwrap().state, TaskState::InProgress);
        assert_eq!(q.get(TaskId::new(1)).unwrap().times_served, 1);
    }

    #[test]
    fn taboo_labels_accumulate_without_duplicates() {
        let mut q = TaskQueue::new();
        q.insert(task(1));
        q.add_taboo(TaskId::new(1), Label::new("dog"));
        q.add_taboo(TaskId::new(1), Label::new("Dogs")); // normalizes equal
        q.add_taboo(TaskId::new(1), Label::new("cat"));
        assert_eq!(q.get(TaskId::new(1)).unwrap().taboo.len(), 2);
    }

    #[test]
    fn coverage_changes_reorder_serving() {
        let mut q = TaskQueue::new();
        q.insert(task(1));
        q.insert(task(2));
        q.insert(task(3));
        for _ in 0..5 {
            q.record_verified(TaskId::new(2), 0);
        }
        q.record_served(TaskId::new(3), &[]);
        let next = q.next_for(&[]).unwrap();
        assert_eq!(next, TaskId::new(1), "least verified and least served");
    }

    #[test]
    fn stimulus_kind_names() {
        assert_eq!(Stimulus::Image(0).kind_name(), "image");
        assert_eq!(Stimulus::AudioClip(0).kind_name(), "audio");
        assert_eq!(Stimulus::Word("x".into()).kind_name(), "word");
        assert_eq!(Stimulus::TextSnippet("x".into()).kind_name(), "text");
        assert_eq!(Stimulus::Custom(0).kind_name(), "custom");
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = TaskQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_for(&[PlayerId::new(1)]), None);
        assert_eq!(q.completed_count(), 0);
        q.record_verified(TaskId::new(99), 1); // unknown id: no-op
        q.add_taboo(TaskId::new(99), Label::new("x"));
    }
}
