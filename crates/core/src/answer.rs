//! Answers and labels — what players produce.
//!
//! The paper's games elicit different output kinds: free-text labels (ESP,
//! Verbosity), same/different verdicts (TagATune), screen regions
//! (Peekaboom), and binary preferences (Matchin). [`Answer`] is the sum of
//! those; [`Label`] is a *normalized* free-text label, the currency of the
//! verification layer.

use crate::text::normalize_label;
use serde::read::Reader;
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A normalized free-text label.
///
/// Construction always normalizes (see [`crate::text::normalize_label`]),
/// decoding included, so two `Label`s compare equal exactly when the
/// platform considers the underlying strings to agree. The text is
/// shared: cloning a label (taboo lists, agreement tallies, replay
/// recordings all hold copies) bumps a count instead of copying bytes.
///
/// # Examples
///
/// ```
/// use hc_core::Label;
/// assert_eq!(Label::new("  Dogs! "), Label::new("dog"));
/// assert_eq!(Label::new("Hot Dog").as_str(), "hot dog");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(Arc<str>);

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
        Label(normalize_label(raw).into())
    }

    /// The normalized text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// `true` when normalization erased everything (e.g. pure punctuation).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Length in bytes of the normalized text.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
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

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.0
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
    fn label_borrows_as_str() {
        use std::collections::HashSet;
        let mut set: HashSet<Label> = HashSet::new();
        set.insert(Label::new("tree"));
        assert!(set.contains("tree"));
        assert!(!set.contains("bush"));
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
