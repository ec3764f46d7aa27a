//! Answers and labels — what players produce.
//!
//! The paper's games elicit different output kinds: free-text labels (ESP,
//! Verbosity), same/different verdicts (TagATune), screen regions
//! (Peekaboom), and binary preferences (Matchin). [`Answer`] is the sum of
//! those; [`Label`] is a *normalized* free-text label, the currency of the
//! verification layer.

use crate::text::normalize_label;
use hc_collect::hash::hash_one;
use serde::read::Reader;
use serde::{DeError, Deserialize, Serialize, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A normalized free-text label.
///
/// Construction always normalizes (see [`crate::text::normalize_label`]),
/// decoding included, so two `Label`s compare equal exactly when the
/// platform considers the underlying strings to agree. The text is
/// shared: cloning a label (taboo lists, agreement tallies, replay
/// recordings all hold copies) bumps a count instead of copying bytes.
///
/// The hash of the text is computed once, at construction, and `Hash`
/// writes that one `u64`. Equality checks identity first (a clone of the
/// same label is one pointer compare), then the cached hashes, and reads
/// the text only when both agree. So a label-keyed `DetMap`/`DetSet`
/// probe never hashes the string again. For the same reason `Label` does
/// not borrow as `str`: a `&str` key cannot hash the way its `Label`
/// does, so look labels up by a `Label`. Order, `Debug`, `Display` and
/// the JSON form are those of the text.
///
/// # Examples
///
/// ```
/// use hc_core::Label;
/// assert_eq!(Label::new("  Dogs! "), Label::new("dog"));
/// assert_eq!(Label::new("Hot Dog").as_str(), "hot dog");
/// ```
#[derive(Clone)]
pub struct Label {
    text: Arc<str>,
    /// `hash_one` of `text`, fixed at construction.
    hash: u64,
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.text, &other.text) || (self.hash == other.hash && self.text == other.text)
    }
}

impl Eq for Label {}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Text order, which is what sorted (serialized) views follow.
impl Ord for Label {
    fn cmp(&self, other: &Self) -> Ordering {
        self.text.cmp(&other.text)
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `Label("dog")`: golden fingerprints embed this text.
impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Label").field(&self.as_str()).finish()
    }
}

/// Encodes as the bare JSON string, as a `String` newtype would.
impl Serialize for Label {
    fn serialize_value(&self) -> Value {
        self.as_str().serialize_value()
    }
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// Decodes from any JSON string through [`Label::new`]: wire text is
/// client input, and the taboo and empty-label checks compare normal
/// forms.
impl<'de> Deserialize<'de> for Label {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::String(raw) => Ok(Label::new(raw)),
            other => Err(DeError::expected("string", other)),
        }
    }
    fn read_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(Label::new(&r.string()?))
    }
}

impl Label {
    /// Builds a label, normalizing `raw`.
    #[must_use]
    pub fn new(raw: &str) -> Self {
        let text: Arc<str> = normalize_label(raw).into();
        let hash = hash_one(&*text);
        Label { text, hash }
    }

    /// The normalized text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// `true` when normalization erased everything (e.g. pure punctuation).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Length in bytes of the normalized text.
    #[must_use]
    pub fn len(&self) -> usize {
        self.text.len()
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl From<&str> for Label {
    fn from(raw: &str) -> Self {
        Label::new(raw)
    }
}

impl From<String> for Label {
    fn from(raw: String) -> Self {
        Label::new(&raw)
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.text
    }
}

/// An axis-aligned rectangle in abstract stimulus coordinates (Peekaboom
/// object regions). Coordinates are `u32` pixels in a virtual canvas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    /// Left edge (inclusive).
    pub x: u32,
    /// Top edge (inclusive).
    pub y: u32,
    /// Width in pixels (may be 0 for a degenerate region).
    pub w: u32,
    /// Height in pixels (may be 0 for a degenerate region).
    pub h: u32,
}

impl Region {
    /// Builds a region from its left/top corner and size.
    #[must_use]
    pub const fn new(x: u32, y: u32, w: u32, h: u32) -> Self {
        Region { x, y, w, h }
    }

    /// Area in square pixels.
    #[must_use]
    pub const fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// The intersection with another region, or `None` when disjoint or
    /// degenerate.
    #[must_use]
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        let x1 = self.x.max(other.x);
        let y1 = self.y.max(other.y);
        let x2 = (self.x + self.w).min(other.x + other.w);
        let y2 = (self.y + self.h).min(other.y + other.h);
        if x2 > x1 && y2 > y1 {
            Some(Region::new(x1, y1, x2 - x1, y2 - y1))
        } else {
            None
        }
    }

    /// Intersection-over-union with another region, in `[0, 1]`. Two
    /// degenerate (zero-area) regions have IoU 0.
    #[must_use]
    pub fn iou(&self, other: &Region) -> f64 {
        let inter = self.intersect(other).map_or(0, |r| r.area());
        let union = self.area() + other.area() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

/// A same/different verdict in input-agreement games.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// The player believes both seats received the same input.
    Same,
    /// The player believes the inputs differ.
    Different,
}

impl Verdict {
    /// Builds a verdict from a boolean "inputs are the same".
    #[must_use]
    pub const fn from_same(same: bool) -> Self {
        if same {
            Verdict::Same
        } else {
            Verdict::Different
        }
    }

    /// `true` if this verdict asserts sameness.
    #[must_use]
    pub const fn is_same(self) -> bool {
        matches!(self, Verdict::Same)
    }
}

/// One submission by one seat during a round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Answer {
    /// A free-text label/guess/description (normalized on construction via
    /// [`Answer::text`]).
    Text(Label),
    /// A same/different verdict (input-agreement).
    Verdict(Verdict),
    /// A screen region (inversion games with spatial output).
    Region(Region),
    /// A preference among presented options, by index (Matchin).
    Choice(u32),
    /// An explicit "pass" — both seats passing skips the task.
    Pass,
}

impl Answer {
    /// Convenience constructor for a normalized text answer.
    #[must_use]
    pub fn text(raw: &str) -> Self {
        Answer::Text(Label::new(raw))
    }

    /// Convenience constructor for a verdict answer.
    #[must_use]
    pub fn verdict(same: bool) -> Self {
        Answer::Verdict(Verdict::from_same(same))
    }

    /// The label if this is a text answer.
    #[must_use]
    pub fn as_text(&self) -> Option<&Label> {
        match self {
            Answer::Text(l) => Some(l),
            _ => None,
        }
    }

    /// A short static name of the answer kind, used in errors.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Answer::Text(_) => "text",
            Answer::Verdict(_) => "verdict",
            Answer::Region(_) => "region",
            Answer::Choice(_) => "choice",
            Answer::Pass => "pass",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_debug_and_json_text_are_the_bare_string() {
        let label = Label::new("Hot \"Dogs\"");
        assert_eq!(format!("{label:?}"), "Label(\"hot dog\")");
        assert_eq!(serde_json::to_string(&label).unwrap(), "\"hot dog\"");
        assert_eq!(
            serde_json::to_value(&label).unwrap(),
            serde_json::Value::String("hot dog".to_string())
        );
    }

    #[test]
    fn labels_normalize_on_construction() {
        assert_eq!(Label::new("CATS "), Label::new("cat"));
        assert_eq!(Label::from("Boxes"), Label::new("box"));
        assert_eq!(Label::from(String::from("A  b")), Label::new("a b"));
        assert!(Label::new("!?!").is_empty());
        assert_eq!(Label::new("dog").len(), 3);
        assert_eq!(Label::new("dog").to_string(), "dog");
    }

    #[test]
    fn labels_normalize_when_decoded() {
        for (text, expected) in [(r#""SUN!""#, "sun"), (r#""  Hot\tDogs ""#, "hot dog")] {
            let direct: Label = serde_json::from_str(text).unwrap();
            let tree: Label = serde_json::from_value(serde_json::from_str(text).unwrap()).unwrap();
            assert_eq!(direct, Label::new(expected));
            assert_eq!(tree, Label::new(expected));
        }
        let empty: Answer = serde_json::from_str(r#"{"Text":"!?!"}"#).unwrap();
        assert_eq!(empty.as_text().map(Label::is_empty), Some(true));
        assert!(serde_json::from_str::<Label>("7").is_err());
    }

    #[test]
    fn hash_sets_find_a_label_through_an_equal_one_built_apart() {
        use hc_collect::DetSet;
        use std::collections::HashSet;
        let mut std_set: HashSet<Label> = HashSet::new();
        let mut det_set: DetSet<Label> = DetSet::new();
        std_set.insert(Label::new("tree"));
        det_set.insert(Label::new("tree"));
        let probe = Label::new("Trees");
        assert!(std_set.contains(&probe));
        assert!(det_set.contains(&probe));
        assert!(!std_set.contains(&Label::new("bush")));
        assert!(!det_set.contains(&Label::new("bush")));
    }

    proptest::proptest! {
        /// Everything observable about a label is a function of its
        /// normalized text. Raw strings come from a small alphabet, so
        /// that many normalize alike, and from arbitrary characters.
        #[test]
        fn labels_behave_as_their_normalized_text(
            words in proptest::collection::vec("[abeAB s!]{0,6}", 1..16),
            wild in proptest::collection::vec(".{0,10}", 0..4),
        ) {
            use hc_collect::DetSet;
            use proptest::{prop_assert, prop_assert_eq};
            use std::collections::BTreeSet;
            let raws: Vec<String> = words.into_iter().chain(wild).collect();
            let texts: Vec<String> = raws.iter().map(|r| normalize_label(r)).collect();
            let labels: Vec<Label> = raws.iter().map(|r| Label::new(r)).collect();
            for (i, a) in labels.iter().enumerate() {
                let text = &texts[i];
                prop_assert_eq!(format!("{a:?}"), format!("Label({text:?})"));
                let json = serde_json::to_string(a).unwrap();
                prop_assert_eq!(&json, &serde_json::to_string(text).unwrap());
                // Decoding normalizes the wire text again, so the bytes
                // come back unchanged exactly when normalizing is
                // idempotent on this text (`gases → gas → ga` is not).
                let back: Label = serde_json::from_str(&json).unwrap();
                prop_assert_eq!(&back, &Label::new(text));
                let idempotent = normalize_label(text) == *text;
                prop_assert_eq!(serde_json::to_string(&back).unwrap() == json, idempotent);
                for (j, b) in labels.iter().enumerate() {
                    let same = texts[i] == texts[j];
                    prop_assert_eq!(a == b, same);
                    prop_assert!(!same || hash_one(a) == hash_one(b));
                    prop_assert_eq!(a.cmp(b), texts[i].cmp(&texts[j]));
                }
            }
            let mut set = DetSet::new();
            let mut model = BTreeSet::new();
            for (raw, text) in raws.iter().zip(&texts) {
                prop_assert_eq!(set.insert(Label::new(raw)), model.insert(text.clone()));
                prop_assert_eq!(set.len(), model.len());
            }
            let pairs = raws.iter().map(String::as_str).zip(texts.iter().map(String::as_str));
            let probes = pairs.chain([("ZZ", "zz")]);
            for (raw, text) in probes {
                prop_assert_eq!(set.contains(&Label::new(raw)), model.contains(text));
            }
            prop_assert!(set.iter_sorted().map(Label::as_str).eq(model.iter().map(String::as_str)));
        }
    }

    #[test]
    fn region_intersection_cases() {
        let a = Region::new(0, 0, 10, 10);
        let b = Region::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Some(Region::new(5, 5, 5, 5)));
        let far = Region::new(100, 100, 5, 5);
        assert_eq!(a.intersect(&far), None);
        // Touching edges do not intersect.
        let adjacent = Region::new(10, 0, 5, 5);
        assert_eq!(a.intersect(&adjacent), None);
    }

    #[test]
    fn region_iou_values() {
        let a = Region::new(0, 0, 10, 10);
        assert!((a.iou(&a) - 1.0).abs() < 1e-12);
        let b = Region::new(5, 0, 10, 10);
        // Intersection 50, union 150.
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-12);
        let degenerate = Region::new(0, 0, 0, 0);
        assert_eq!(degenerate.iou(&degenerate), 0.0);
        assert_eq!(a.iou(&Region::new(50, 50, 1, 1)), 0.0);
    }

    #[test]
    fn verdict_round_trips() {
        assert!(Verdict::from_same(true).is_same());
        assert!(!Verdict::from_same(false).is_same());
    }

    #[test]
    fn answer_constructors_and_kind_names() {
        assert_eq!(Answer::text("Dogs"), Answer::Text(Label::new("dog")));
        assert_eq!(Answer::verdict(true), Answer::Verdict(Verdict::Same));
        assert_eq!(Answer::text("x").kind_name(), "text");
        assert_eq!(Answer::Pass.kind_name(), "pass");
        assert_eq!(Answer::Choice(1).kind_name(), "choice");
        assert_eq!(
            Answer::Region(Region::new(0, 0, 1, 1)).kind_name(),
            "region"
        );
        assert_eq!(Answer::verdict(false).kind_name(), "verdict");
        assert!(Answer::text("cat").as_text().is_some());
        assert!(Answer::Pass.as_text().is_none());
    }
}
