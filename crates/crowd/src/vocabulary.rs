//! Label vocabularies and ground-truth label distributions.
//!
//! Player folksonomies are famously Zipf-shaped: a few labels ("dog",
//! "sky") dominate, with a long tail of rare ones. [`Vocabulary`] models
//! the *global* label space with Zipf popularity; [`LabelDistribution`]
//! models the ground truth of one stimulus — which labels a perfectly
//! attentive human could truthfully produce for it, with what propensity.
//! Behaviours (honest, noisy, …) sample through these.

use hc_core::Label;
use hc_sim::dist::{DiscreteDist, Zipf};
use rand::Rng;

/// The global label space: `size` synthetic labels with Zipf(`exponent`)
/// popularity. Label text is deterministic (`"w<rank>"`), so worlds built
/// from the same parameters are identical across runs.
///
/// # Examples
///
/// ```
/// use hc_crowd::Vocabulary;
/// use rand::SeedableRng;
///
/// let vocab = Vocabulary::new(1000, 1.07);
/// assert_eq!(vocab.len(), 1000);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let label = vocab.sample(&mut rng);
/// assert!(vocab.rank_of(&label).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Vocabulary {
    labels: Vec<Label>,
    zipf: Zipf,
}

impl Vocabulary {
    /// Builds a vocabulary of `size` labels with Zipf exponent `exponent`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `exponent` is negative/non-finite (these
    /// are programming errors in experiment setup).
    #[must_use]
    pub fn new(size: usize, exponent: f64) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract for size == 0 or bad exponent"
        )]
        let zipf = Zipf::new(size, exponent).expect("valid vocabulary parameters");
        let labels = (0..size).map(|i| Label::new(&format!("w{i}"))).collect();
        Vocabulary { labels, zipf }
    }

    /// Number of labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` for an empty vocabulary (never: constructor requires ≥ 1).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label at a popularity rank (0 = most popular).
    #[must_use]
    pub fn label(&self, rank: usize) -> Option<&Label> {
        self.labels.get(rank)
    }

    /// The rank of a label, if it belongs to this vocabulary.
    #[must_use]
    pub fn rank_of(&self, label: &Label) -> Option<usize> {
        // Labels are "w<rank>"; parse rather than scan.
        let s = label.as_str();
        let rank: usize = s.strip_prefix('w')?.parse().ok()?;
        (rank < self.labels.len()).then_some(rank)
    }

    /// Samples a label with Zipf popularity (what a distracted player
    /// blurts out).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Label {
        self.labels[self.zipf.sample(rng)].clone()
    }

    /// Samples a label uniformly (pure noise).
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Label {
        self.labels[rng.gen_range(0..self.labels.len())].clone()
    }
}

/// The ground truth of one stimulus: labels a truthful observer could
/// produce, with propensities.
///
/// # Examples
///
/// ```
/// use hc_core::Label;
/// use hc_crowd::LabelDistribution;
/// use rand::SeedableRng;
///
/// let truth = LabelDistribution::new(
///     vec![(Label::new("dog"), 0.6), (Label::new("grass"), 0.4)],
/// ).unwrap();
/// assert!(truth.contains(&Label::new("dog")));
/// assert_eq!(truth.top(), &Label::new("dog"));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// assert!(truth.contains(&truth.sample(&mut rng)));
/// ```
#[derive(Debug, Clone)]
pub struct LabelDistribution {
    labels: Vec<Label>,
    dist: DiscreteDist,
}

impl LabelDistribution {
    /// Builds a distribution from `(label, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error string when empty, when weights are invalid, or
    /// when a label normalizes to nothing.
    pub fn new(pairs: Vec<(Label, f64)>) -> Result<Self, String> {
        if pairs.iter().any(|(l, _)| l.is_empty()) {
            return Err("empty label in distribution".to_string());
        }
        let weights: Vec<f64> = pairs.iter().map(|(_, w)| *w).collect();
        let dist = DiscreteDist::new(&weights).map_err(|e| e.to_string())?;
        Ok(LabelDistribution {
            labels: pairs.into_iter().map(|(l, _)| l).collect(),
            dist,
        })
    }

    /// Builds a uniform distribution over `labels`.
    ///
    /// # Errors
    ///
    /// Returns an error string when `labels` is empty or contains an empty
    /// label.
    pub fn uniform(labels: Vec<Label>) -> Result<Self, String> {
        let n = labels.len();
        LabelDistribution::new(
            labels
                .into_iter()
                .map(|l| (l, 1.0 / n.max(1) as f64))
                .collect(),
        )
    }

    /// Number of truthful labels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when no labels exist (never: constructor rejects empty).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The labels, most-weighted first is **not** guaranteed; use
    /// [`LabelDistribution::top`] for the modal label.
    #[must_use]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, label: &Label) -> bool {
        self.labels.contains(label)
    }

    /// The modal (highest-weight) label.
    #[must_use]
    pub fn top(&self) -> &Label {
        let mut best = 0;
        for i in 1..self.labels.len() {
            if self.dist.pmf(i) > self.dist.pmf(best) {
                best = i;
            }
        }
        &self.labels[best]
    }

    /// Probability of a specific label (0 if absent).
    #[must_use]
    pub fn pmf_of(&self, label: &Label) -> f64 {
        self.labels
            .iter()
            .position(|l| l == label)
            .map_or(0.0, |i| self.dist.pmf(i))
    }

    /// Samples one truthful label.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Label {
        self.labels[self.sample_index(rng)].clone()
    }

    /// Draws the position in [`labels`](LabelDistribution::labels) of one
    /// truthful label: the one draw [`sample`](LabelDistribution::sample)
    /// makes, so both consume the same randomness, but nothing is cloned.
    pub(crate) fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.dist.sample(rng)
    }

    /// Jaccard-style overlap with another distribution's support — how
    /// confusable two stimuli are for input-agreement verdicts.
    #[must_use]
    pub fn support_overlap(&self, other: &LabelDistribution) -> f64 {
        let a: std::collections::BTreeSet<&Label> = self.labels.iter().collect();
        let b: std::collections::BTreeSet<&Label> = other.labels.iter().collect();
        let inter = a.intersection(&b).count();
        let union = a.union(&b).count();
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    #[test]
    fn vocabulary_is_deterministic() {
        let a = Vocabulary::new(100, 1.0);
        let b = Vocabulary::new(100, 1.0);
        assert_eq!(a.label(0), b.label(0));
        assert_eq!(a.label(99), Some(&Label::new("w99")));
        assert_eq!(a.label(100), None);
        assert!(!a.is_empty());
    }

    #[test]
    fn vocabulary_rank_round_trips() {
        let v = Vocabulary::new(50, 1.2);
        for rank in [0usize, 1, 49] {
            let l = v.label(rank).unwrap().clone();
            assert_eq!(v.rank_of(&l), Some(rank));
        }
        assert_eq!(v.rank_of(&Label::new("w50")), None);
        assert_eq!(v.rank_of(&Label::new("dog")), None);
    }

    #[test]
    fn vocabulary_zipf_skews_to_low_ranks() {
        let v = Vocabulary::new(1000, 1.2);
        let mut r = rng();
        let n = 20_000;
        let low = (0..n)
            .filter(|_| v.rank_of(&v.sample(&mut r)).unwrap() < 10)
            .count();
        assert!(
            low as f64 / n as f64 > 0.3,
            "top-10 share too small: {}",
            low as f64 / n as f64
        );
    }

    #[test]
    fn uniform_sampling_covers_tail() {
        let v = Vocabulary::new(10, 2.0);
        let mut r = rng();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            seen.insert(v.sample_uniform(&mut r));
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn distribution_rejects_bad_input() {
        assert!(LabelDistribution::new(vec![]).is_err());
        assert!(LabelDistribution::new(vec![(Label::new("!!"), 1.0)]).is_err());
        assert!(LabelDistribution::new(vec![(Label::new("a"), -1.0)]).is_err());
        assert!(LabelDistribution::uniform(vec![]).is_err());
    }

    #[test]
    fn top_and_pmf() {
        let d = LabelDistribution::new(vec![
            (Label::new("rare"), 0.1),
            (Label::new("common"), 0.7),
            (Label::new("mid"), 0.2),
        ])
        .unwrap();
        assert_eq!(d.top(), &Label::new("common"));
        assert!((d.pmf_of(&Label::new("common")) - 0.7).abs() < 1e-12);
        assert_eq!(d.pmf_of(&Label::new("absent")), 0.0);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn sampling_matches_weights() {
        let d =
            LabelDistribution::new(vec![(Label::new("a"), 0.9), (Label::new("b"), 0.1)]).unwrap();
        let mut r = rng();
        let n = 10_000;
        let a_count = (0..n)
            .filter(|_| d.sample(&mut r) == Label::new("a"))
            .count();
        assert!((a_count as f64 / n as f64 - 0.9).abs() < 0.02);
    }

    #[test]
    fn support_overlap_cases() {
        let a = LabelDistribution::uniform(vec![Label::new("x"), Label::new("y")]).unwrap();
        let b = LabelDistribution::uniform(vec![Label::new("y"), Label::new("z")]).unwrap();
        let c = LabelDistribution::uniform(vec![Label::new("p")]).unwrap();
        assert!((a.support_overlap(&b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.support_overlap(&c), 0.0);
        assert!((a.support_overlap(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_distribution_is_uniform() {
        let d = LabelDistribution::uniform(vec![
            Label::new("a"),
            Label::new("b"),
            Label::new("c"),
            Label::new("d"),
        ])
        .unwrap();
        for l in d.labels() {
            assert!((d.pmf_of(l) - 0.25).abs() < 1e-12);
        }
    }
}
