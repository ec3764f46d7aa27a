//! Output verification mechanisms.
//!
//! The paper stresses that a GWAP's outputs are only useful when the design
//! makes cheating unprofitable and noise self-cancelling. This module
//! implements the three verification mechanisms common to the surveyed
//! systems:
//!
//! * [`TabooList`] — per-task off-limits labels. In the ESP Game, once a
//!   label is verified it becomes taboo, forcing new pairs to produce novel
//!   labels and (as a side effect) breaking naive collusion strategies.
//! * [`AgreementTracker`] — **repetition**: an output is only *promoted*
//!   after `k` distinct pairs have independently produced it for the same
//!   task. reCAPTCHA uses the same idea with k = 2–3 human transcriptions.
//! * [`GoldBank`] — **player testing**: tasks with known answers are
//!   injected occasionally; a player's hit rate on gold tasks estimates
//!   their reliability and gates whether their outputs count.

use crate::answer::Label;
use crate::id::{PlayerId, TaskId};
use hc_collect::{DetMap, DetSet, PlayerStore};
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::Arc;

/// A set of labels that may not be used for a task.
///
/// Clones share one snapshot of the labels; [`insert`](TabooList::insert)
/// copies them first while another clone still holds them, so a round
/// planned from a task's list keeps it when the task's list grows.
///
/// # Examples
///
/// ```
/// use hc_core::{verify::TabooList, Label};
/// let taboo = TabooList::from_labels([Label::new("dog"), Label::new("cat")]);
/// assert!(taboo.contains(&Label::new("Dogs"))); // normalization applies
/// assert!(!taboo.contains(&Label::new("bird")));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TabooList {
    // Checked on every candidate label; iterated in insertion order by
    // `iter()`. Serialization sorts at the boundary, so the wire format
    // matches the old BTreeSet exactly.
    labels: Arc<DetSet<Label>>,
}

impl TabooList {
    /// Creates an empty list.
    #[must_use]
    pub fn new() -> Self {
        TabooList::default()
    }

    /// Builds a list from labels.
    #[must_use]
    pub fn from_labels<I: IntoIterator<Item = Label>>(labels: I) -> Self {
        TabooList {
            labels: Arc::new(labels.into_iter().collect()),
        }
    }

    /// Adds a label; returns `true` if it was new.
    pub fn insert(&mut self, label: Label) -> bool {
        !self.labels.contains(&label) && Arc::make_mut(&mut self.labels).insert(label)
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, label: &Label) -> bool {
        self.labels.contains(label)
    }

    /// Number of taboo labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when no labels are taboo.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates over taboo labels in insertion order: the order a task's
    /// labels were promoted, which `hc-serve` sends on the wire.
    pub fn iter(&self) -> impl Iterator<Item = &Label> {
        self.labels.iter()
    }
}

/// `{"labels": [...]}`, sorted: what the derive wrote for a plain `DetSet`.
impl Serialize for TabooList {
    fn serialize_value(&self) -> Value {
        Value::Object(vec![("labels".to_string(), self.labels.serialize_value())])
    }
}

impl<'de> Deserialize<'de> for TabooList {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let labels = value
            .get("labels")
            .ok_or_else(|| DeError::expected("object with `labels`", value))?;
        Ok(TabooList {
            labels: Arc::new(DetSet::deserialize_value(labels)?),
        })
    }
}

/// Repetition-based promotion: counts independent agreements per
/// `(task, label)` and promotes at a threshold.
///
/// "Independent" is enforced per contributing *pair signature*: the same
/// pair of players agreeing twice on the same label counts once. (The
/// deployed ESP Game used IP-level separation; player identity is the
/// simulation-faithful analogue.)
#[derive(Debug, Clone, Default)]
pub struct AgreementTracker {
    /// (task, label) -> set of contributing pair signatures. Touched on
    /// every agreement; lookup/insert only — never iterated.
    support: DetMap<(TaskId, Label), DetSet<(PlayerId, PlayerId)>>,
    threshold: u32,
    promoted: DetSet<(TaskId, Label)>,
}

impl AgreementTracker {
    /// Creates a tracker that promotes after `threshold` independent
    /// agreements (a threshold of 0 is coerced to 1).
    #[must_use]
    pub fn new(threshold: u32) -> Self {
        AgreementTracker {
            support: DetMap::new(),
            threshold: threshold.max(1),
            promoted: DetSet::new(),
        }
    }

    /// The promotion threshold.
    #[must_use]
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Records an agreement between `a` and `b` on `(task, label)`.
    /// Returns `true` exactly when this record *newly promotes* the output.
    pub fn record(&mut self, task: TaskId, label: Label, a: PlayerId, b: PlayerId) -> bool {
        let pair = if a <= b { (a, b) } else { (b, a) };
        let key = (task, label);
        if self.promoted.contains(&key) {
            return false;
        }
        let set = self.support.entry(key.clone()).or_default();
        set.insert(pair);
        if set.len() as u32 >= self.threshold {
            self.promoted.insert(key);
            true
        } else {
            false
        }
    }

    /// Current independent-support count for `(task, label)`.
    #[must_use]
    pub fn support(&self, task: TaskId, label: &Label) -> u32 {
        self.support
            .get(&(task, label.clone()))
            .map_or(0, |s| s.len() as u32)
    }

    /// Whether `(task, label)` has been promoted.
    #[must_use]
    pub fn is_promoted(&self, task: TaskId, label: &Label) -> bool {
        self.promoted.contains(&(task, label.clone()))
    }

    /// Number of promoted outputs.
    #[must_use]
    pub fn promoted_count(&self) -> usize {
        self.promoted.len()
    }
}

/// Outcome of checking a player's answer against a gold task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GoldOutcome {
    /// The answer matched the known-good label.
    Hit,
    /// The answer missed.
    Miss,
    /// The task is not a gold task.
    NotGold,
}

/// Per-player gold-task accuracy record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldRecord {
    /// Gold tasks answered correctly.
    pub hits: u32,
    /// Gold tasks answered incorrectly.
    pub misses: u32,
}

impl GoldRecord {
    /// Total gold tasks seen.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `None` before any gold exposure.
    #[must_use]
    pub fn accuracy(&self) -> Option<f64> {
        let total = self.total();
        (total > 0).then(|| f64::from(self.hits) / f64::from(total))
    }
}

/// A bank of tasks with known answers, used to test players.
///
/// # Examples
///
/// ```
/// use hc_core::{verify::{GoldBank, GoldOutcome}, Label, PlayerId, TaskId};
///
/// let mut bank = GoldBank::new(0.7, 5);
/// bank.add_gold(TaskId::new(1), [Label::new("dog")]);
/// let p = PlayerId::new(1);
/// assert_eq!(bank.check(p, TaskId::new(1), &Label::new("Dogs")), GoldOutcome::Hit);
/// assert_eq!(bank.check(p, TaskId::new(2), &Label::new("x")), GoldOutcome::NotGold);
/// assert!(bank.is_trusted(p)); // too little evidence to distrust yet
/// ```
#[derive(Debug, Clone)]
pub struct GoldBank {
    // Both maps are lookup/insert-only (never iterated), so the swap to
    // deterministic open addressing cannot change observable behaviour.
    answers: DetMap<TaskId, DetSet<Label>>,
    records: PlayerStore<GoldRecord>,
    /// Minimum accuracy to stay trusted once enough gold has been seen.
    min_accuracy: f64,
    /// Evidence threshold: below this many gold exposures, players are
    /// trusted by default (innocent until tested).
    min_evidence: u32,
}

impl GoldBank {
    /// Creates a bank requiring `min_accuracy` over at least `min_evidence`
    /// gold exposures before distrusting a player. `min_accuracy` is
    /// clamped to `[0, 1]`.
    #[must_use]
    pub fn new(min_accuracy: f64, min_evidence: u32) -> Self {
        GoldBank {
            answers: DetMap::new(),
            records: PlayerStore::new(),
            min_accuracy: min_accuracy.clamp(0.0, 1.0),
            min_evidence: min_evidence.max(1),
        }
    }

    /// Registers a gold task with its acceptable labels.
    pub fn add_gold<I: IntoIterator<Item = Label>>(&mut self, task: TaskId, accepted: I) {
        self.answers.entry(task).or_default().extend(accepted);
    }

    /// `true` if `task` is a gold task.
    #[must_use]
    pub fn is_gold(&self, task: TaskId) -> bool {
        self.answers.contains_key(&task)
    }

    /// Number of registered gold tasks.
    #[must_use]
    pub fn gold_count(&self) -> usize {
        self.answers.len()
    }

    /// Checks `answer` for `player` against the gold answers of `task`,
    /// updating the player's record.
    pub fn check(&mut self, player: PlayerId, task: TaskId, answer: &Label) -> GoldOutcome {
        let Some(accepted) = self.answers.get(&task) else {
            return GoldOutcome::NotGold;
        };
        let record = self
            .records
            .get_or_insert_with(player.raw(), GoldRecord::default);
        if accepted.contains(answer) {
            record.hits += 1;
            GoldOutcome::Hit
        } else {
            record.misses += 1;
            GoldOutcome::Miss
        }
    }

    /// The player's gold record, if any gold tasks were seen.
    #[must_use]
    pub fn record(&self, player: PlayerId) -> Option<GoldRecord> {
        self.records.get(player.raw()).copied()
    }

    /// Whether the player's outputs should count: trusted by default until
    /// `min_evidence` gold exposures exist, then gated on `min_accuracy`.
    #[must_use]
    pub fn is_trusted(&self, player: PlayerId) -> bool {
        match self.records.get(player.raw()) {
            None => true,
            Some(r) if r.total() < self.min_evidence => true,
            Some(r) => r.accuracy().unwrap_or(1.0) >= self.min_accuracy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taboo_list_basics() {
        let mut t = TabooList::new();
        assert!(t.is_empty());
        assert!(t.insert(Label::new("dog")));
        assert!(!t.insert(Label::new("Dogs")), "normalized duplicate");
        assert_eq!(t.len(), 1);
        assert!(t.contains(&Label::new("DOG")));
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn taboo_list_json_is_unchanged() {
        let t = TabooList::from_labels([Label::new("dog"), Label::new("cat")]);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"{"labels":["cat","dog"]}"#, "sorted, as before");
        let back: TabooList = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert!(serde_json::from_str::<TabooList>(r#"["cat"]"#).is_err());
    }

    #[test]
    fn agreement_promotes_at_threshold() {
        let mut tr = AgreementTracker::new(2);
        let task = TaskId::new(1);
        let l = Label::new("dog");
        assert!(!tr.record(task, l.clone(), PlayerId::new(1), PlayerId::new(2)));
        assert_eq!(tr.support(task, &l), 1);
        assert!(!tr.is_promoted(task, &l));
        assert!(tr.record(task, l.clone(), PlayerId::new(3), PlayerId::new(4)));
        assert!(tr.is_promoted(task, &l));
        assert_eq!(tr.promoted_count(), 1);
    }

    #[test]
    fn same_pair_counts_once() {
        let mut tr = AgreementTracker::new(2);
        let task = TaskId::new(1);
        let l = Label::new("cat");
        let (a, b) = (PlayerId::new(1), PlayerId::new(2));
        assert!(!tr.record(task, l.clone(), a, b));
        assert!(
            !tr.record(task, l.clone(), b, a),
            "order-insensitive pair signature"
        );
        assert_eq!(tr.support(task, &l), 1);
    }

    #[test]
    fn promotion_fires_exactly_once() {
        let mut tr = AgreementTracker::new(1);
        let task = TaskId::new(1);
        let l = Label::new("sun");
        assert!(tr.record(task, l.clone(), PlayerId::new(1), PlayerId::new(2)));
        assert!(
            !tr.record(task, l.clone(), PlayerId::new(3), PlayerId::new(4)),
            "already promoted"
        );
    }

    #[test]
    fn zero_threshold_coerces_to_one() {
        let tr = AgreementTracker::new(0);
        assert_eq!(tr.threshold(), 1);
    }

    #[test]
    fn labels_and_tasks_are_independent_keys() {
        let mut tr = AgreementTracker::new(1);
        tr.record(
            TaskId::new(1),
            Label::new("dog"),
            PlayerId::new(1),
            PlayerId::new(2),
        );
        assert!(!tr.is_promoted(TaskId::new(2), &Label::new("dog")));
        assert!(!tr.is_promoted(TaskId::new(1), &Label::new("cat")));
    }

    #[test]
    fn gold_bank_tracks_accuracy_and_trust() {
        let mut bank = GoldBank::new(0.7, 3);
        bank.add_gold(TaskId::new(1), [Label::new("dog"), Label::new("puppy")]);
        assert!(bank.is_gold(TaskId::new(1)));
        assert_eq!(bank.gold_count(), 1);

        let p = PlayerId::new(5);
        assert_eq!(
            bank.check(p, TaskId::new(1), &Label::new("puppy")),
            GoldOutcome::Hit
        );
        assert_eq!(
            bank.check(p, TaskId::new(1), &Label::new("fish")),
            GoldOutcome::Miss
        );
        // Only 2 exposures (< min_evidence 3): still trusted.
        assert!(bank.is_trusted(p));
        assert_eq!(
            bank.check(p, TaskId::new(1), &Label::new("rock")),
            GoldOutcome::Miss
        );
        // 1/3 accuracy < 0.7: distrusted.
        assert!(!bank.is_trusted(p));
        let r = bank.record(p).unwrap();
        assert_eq!(r.total(), 3);
        assert!((r.accuracy().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_players_are_trusted() {
        let bank = GoldBank::new(0.9, 1);
        assert!(bank.is_trusted(PlayerId::new(404)));
        assert!(bank.record(PlayerId::new(404)).is_none());
    }

    #[test]
    fn non_gold_tasks_do_not_touch_records() {
        let mut bank = GoldBank::new(0.5, 1);
        let p = PlayerId::new(1);
        assert_eq!(
            bank.check(p, TaskId::new(9), &Label::new("x")),
            GoldOutcome::NotGold
        );
        assert!(bank.record(p).is_none());
    }

    #[test]
    fn accuracy_none_before_exposure() {
        let r = GoldRecord::default();
        assert_eq!(r.accuracy(), None);
        assert_eq!(r.total(), 0);
    }
}
