//! Serving-order properties of [`TaskQueue`].
//!
//! The queue keeps an exact priority index of its live tasks. It replaced
//! a lazy max-heap whose entries could go stale: `next_for` popped every
//! stale or already-seen entry, re-pushed it, and stopped at the first
//! live, unseen one. That heap is kept below as the oracle. Random scripts
//! of inserts (re-inserts and tasks inserted completed or retired too),
//! serves, verifications, taboo promotions, seen-set clears and serving
//! queries must leave both queues choosing the same task and holding the
//! same task records, taboo promotion order included.

use hc_core::{Label, PlayerId, Stimulus, Task, TaskId, TaskQueue, TaskState};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Heap entry of the oracle. `BinaryHeap` is a max-heap, so the ordering
/// is reversed: fewer verified outputs, then fewer serves, then the
/// smaller id (or, for the tie-break probe, the larger id) comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueueEntry {
    verified: u32,
    served: u32,
    id: TaskId,
    largest_id_first: bool,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let ids = if self.largest_id_first {
            self.id.cmp(&other.id)
        } else {
            other.id.cmp(&self.id)
        };
        other
            .verified
            .cmp(&self.verified)
            .then(other.served.cmp(&self.served))
            .then(ids)
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The lazy-heap task queue as it served tasks before the exact index.
#[derive(Debug, Default)]
struct LazyHeapQueue {
    tasks: BTreeMap<TaskId, Task>,
    /// Taboo labels in promotion order (the old `Vec<Label>` field).
    taboo: BTreeMap<TaskId, Vec<Label>>,
    heap: BinaryHeap<QueueEntry>,
    seen: BTreeMap<PlayerId, BTreeSet<TaskId>>,
    largest_id_first: bool,
}

impl LazyHeapQueue {
    fn entry(&self, task: &Task) -> QueueEntry {
        QueueEntry {
            verified: task.verified_outputs,
            served: task.times_served,
            id: task.id,
            largest_id_first: self.largest_id_first,
        }
    }

    fn insert(&mut self, task: Task) {
        self.heap.push(self.entry(&task));
        self.taboo
            .insert(task.id, task.taboo.iter().cloned().collect());
        self.tasks.insert(task.id, task);
    }

    fn next_for(&mut self, players: &[PlayerId]) -> Option<TaskId> {
        let mut skipped = Vec::new();
        let mut found = None;
        while let Some(entry) = self.heap.pop() {
            let Some(task) = self.tasks.get(&entry.id) else {
                continue;
            };
            if task.verified_outputs != entry.verified || task.times_served != entry.served {
                let fresh = self.entry(task);
                self.heap.push(fresh);
                continue;
            }
            if matches!(task.state, TaskState::Completed | TaskState::Retired) {
                continue;
            }
            let seen_by_any = players
                .iter()
                .any(|p| self.seen.get(p).is_some_and(|s| s.contains(&task.id)));
            if seen_by_any {
                skipped.push(entry);
                continue;
            }
            found = Some(entry.id);
            skipped.push(entry);
            break;
        }
        self.heap.extend(skipped);
        found
    }

    fn record_served(&mut self, task: TaskId, players: &[PlayerId]) {
        if let Some(t) = self.tasks.get_mut(&task) {
            t.times_served += 1;
            if t.state == TaskState::Fresh {
                t.state = TaskState::InProgress;
            }
        }
        for p in players {
            self.seen.entry(*p).or_default().insert(task);
        }
    }

    fn record_verified(&mut self, task: TaskId, completion_threshold: u32) {
        if let Some(t) = self.tasks.get_mut(&task) {
            t.verified_outputs += 1;
            if t.state == TaskState::Fresh {
                t.state = TaskState::InProgress;
            }
            if completion_threshold > 0 && t.verified_outputs >= completion_threshold {
                t.state = TaskState::Completed;
            }
        }
    }

    fn add_taboo(&mut self, task: TaskId, label: Label) {
        if let Some(list) = self.taboo.get_mut(&task) {
            if !list.contains(&label) {
                list.push(label);
            }
        }
    }

    fn clear_seen(&mut self, player: PlayerId) {
        self.seen.remove(&player);
    }
}

const IDS: u64 = 10;
const PLAYERS: u64 = 4;
const WORDS: [&str; 5] = ["dog", "cat", "sun", "tree", "car"];

fn players(rng: &mut StdRng) -> Vec<PlayerId> {
    let count = rng.gen_range(0..=2usize);
    (0..count)
        .map(|_| PlayerId::new(rng.gen_range(0..PLAYERS)))
        .collect()
}

/// A task as a script inserts it: any state, small counts, maybe a few
/// taboo labels already attached.
fn random_task(rng: &mut StdRng) -> Task {
    let id = rng.gen_range(0..IDS);
    let mut task = Task::new(TaskId::new(id), Stimulus::Image(id));
    task.state = match rng.gen_range(0..8u32) {
        0 => TaskState::Completed,
        1 => TaskState::Retired,
        2 | 3 => TaskState::InProgress,
        _ => TaskState::Fresh,
    };
    task.verified_outputs = rng.gen_range(0..3);
    task.times_served = rng.gen_range(0..3);
    for _ in 0..rng.gen_range(0..3usize) {
        task.taboo
            .insert(Label::new(WORDS[rng.gen_range(0..WORDS.len())]));
    }
    task
}

/// Runs one script on both queues. Returns the first step whose serving
/// choice differs, or `Err` naming a record that diverged.
fn run_script(seed: u64, steps: usize, largest_id_first: bool) -> Result<Option<usize>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queue = TaskQueue::new();
    let mut oracle = LazyHeapQueue {
        largest_id_first,
        ..LazyHeapQueue::default()
    };
    for step in 0..steps {
        match rng.gen_range(0..12u32) {
            0 | 1 => {
                let task = random_task(&mut rng);
                queue.insert(task.clone());
                oracle.insert(task);
            }
            2 | 3 => {
                let task = TaskId::new(rng.gen_range(0..=IDS));
                let seats = players(&mut rng);
                queue.record_served(task, &seats);
                oracle.record_served(task, &seats);
            }
            4 => {
                let task = TaskId::new(rng.gen_range(0..=IDS));
                let threshold = rng.gen_range(0..=3);
                queue.record_verified(task, threshold);
                oracle.record_verified(task, threshold);
            }
            5 => {
                let task = TaskId::new(rng.gen_range(0..=IDS));
                let label = Label::new(WORDS[rng.gen_range(0..WORDS.len())]);
                queue.add_taboo(task, label.clone());
                oracle.add_taboo(task, label);
            }
            6 => {
                let player = PlayerId::new(rng.gen_range(0..PLAYERS));
                queue.clear_seen(player);
                oracle.clear_seen(player);
            }
            _ => {
                let seats = players(&mut rng);
                let got = queue.next_for(&seats);
                if got != oracle.next_for(&seats) {
                    return Ok(Some(step));
                }
                // Serve the choice, as a planner does, most of the time.
                if let Some(task) = got.filter(|_| rng.gen_bool(0.75)) {
                    queue.record_served(task, &seats);
                    oracle.record_served(task, &seats);
                }
            }
        }
        for id in 0..=IDS {
            let id = TaskId::new(id);
            let (got, want) = (queue.get(id), oracle.tasks.get(&id));
            let same = match (got, want) {
                (Some(g), Some(w)) => {
                    g.state == w.state
                        && g.times_served == w.times_served
                        && g.verified_outputs == w.verified_outputs
                        && g.taboo.iter().eq(&oracle.taboo[&id])
                }
                (None, None) => true,
                _ => false,
            };
            if !same {
                return Err(format!(
                    "step {step}: task {id:?} is {got:?}, oracle {want:?}"
                ));
            }
        }
        let completed = oracle
            .tasks
            .values()
            .filter(|t| t.state == TaskState::Completed)
            .count();
        if queue.len() != oracle.tasks.len() || queue.completed_count() != completed {
            return Err(format!("step {step}: store sizes diverged"));
        }
    }
    Ok(None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_serves_what_the_lazy_heap_served(seed in any::<u64>(), steps in 1usize..300) {
        let outcome = run_script(seed, steps, false);
        prop_assert_eq!(outcome, Ok(None), "seed {} steps {}", seed, steps);
    }
}

/// The scripts are strong enough to tell tie-breaks apart: an oracle that
/// prefers the largest id among equally covered tasks diverges from the
/// queue on some script.
#[test]
fn scripts_detect_a_largest_id_tie_break() {
    let diverged = (0..64u64).any(|seed| matches!(run_script(seed, 200, true), Ok(Some(_))));
    assert!(diverged, "no script told the tie-breaks apart");
}

#[test]
fn next_for_leaves_the_queue_unchanged() {
    let mut queue = TaskQueue::new();
    for i in 0..4 {
        queue.insert(Task::new(TaskId::new(i), Stimulus::Image(i)));
    }
    let seat = [PlayerId::new(1)];
    queue.record_served(TaskId::new(0), &seat);
    let first = queue.next_for(&seat);
    assert_eq!(first, Some(TaskId::new(1)));
    assert_eq!(queue.next_for(&seat), first, "asking again changes nothing");
}

/// A big world's shape: 60,000 tasks all start on level (0, 0). Serving
/// drains that level from its front, every task once, then moves on to
/// level (0, 1); verifications move some tasks up a level and complete
/// others. Every choice and every touched record must match the lazy
/// heap's.
#[test]
fn sixty_thousand_tasks_on_one_level_serve_like_the_lazy_heap() {
    const TASKS: u64 = 60_000;
    let mut queue = TaskQueue::new();
    let mut oracle = LazyHeapQueue::default();
    for id in 0..TASKS {
        let task = Task::new(TaskId::new(id), Stimulus::Image(id));
        queue.insert(task.clone());
        oracle.insert(task);
    }
    let mut rng = StdRng::seed_from_u64(TASKS);
    for step in 0..TASKS + 2_000 {
        let seats = [
            PlayerId::new(rng.gen_range(0..64)),
            PlayerId::new(rng.gen_range(0..64)),
        ];
        let got = queue.next_for(&seats);
        assert_eq!(got, oracle.next_for(&seats), "step {step}: serving order");
        let Some(task) = got else { continue };
        queue.record_served(task, &seats);
        oracle.record_served(task, &seats);
        let threshold = match step % 21 {
            0 => Some(1),
            s if s % 3 == 0 => Some(2),
            _ => None,
        };
        if let Some(threshold) = threshold {
            queue.record_verified(task, threshold);
            oracle.record_verified(task, threshold);
        }
        if step % 5_000 == 0 {
            queue.clear_seen(seats[0]);
            oracle.clear_seen(seats[0]);
        }
        let (g, w) = (queue.get(task).expect("served task"), &oracle.tasks[&task]);
        assert!(
            g.state == w.state
                && g.times_served == w.times_served
                && g.verified_outputs == w.verified_outputs,
            "step {step}: task {task:?} is {g:?}, oracle {w:?}"
        );
    }
    let completed = oracle
        .tasks
        .values()
        .filter(|t| t.state == TaskState::Completed)
        .count();
    assert_eq!(queue.len(), oracle.tasks.len());
    assert_eq!(queue.completed_count(), completed);
    assert!(completed > 0, "some tasks completed");
    let served_twice = oracle
        .tasks
        .values()
        .filter(|t| t.times_served == 2)
        .count();
    assert!(served_twice > 0, "serving reached level (0, 1)");
}
