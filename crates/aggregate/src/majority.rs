//! Plurality (majority) voting.

use crate::data::LabelMatrix;
use crate::Aggregator;

/// The vote rule [`MajorityVote`] and [`crate::AgreementThreshold`]
/// share: the class with the most votes, ties broken to the lowest
/// class index. Returns `(class, votes)`, or `None` when the best count
/// is zero or below `k` (so `k` of 0 and 1 both mean plain plurality).
///
/// `counts` yields `(class, votes)` pairs in any order, each class at
/// most once; dense per-class counts pass as `counts.iter().copied()
/// .enumerate()`.
///
/// # Examples
///
/// ```
/// use hc_aggregate::plurality;
///
/// assert_eq!(plurality([(0, 1), (1, 3), (2, 3)], 1), Some((1, 3)));
/// assert_eq!(plurality([(5, 2), (4, 2)], 2), Some((4, 2)));
/// assert_eq!(plurality([(0, 2)], 3), None);
/// ```
pub fn plurality<I>(counts: I, k: usize) -> Option<(usize, usize)>
where
    I: IntoIterator<Item = (usize, usize)>,
{
    let mut best: Option<(usize, usize)> = None;
    for (class, votes) in counts {
        let wins = match best {
            None => true,
            Some((c, v)) => votes > v || (votes == v && class < c),
        };
        if wins {
            best = Some((class, votes));
        }
    }
    best.filter(|&(_, votes)| votes > 0 && votes >= k)
}

/// Plurality vote: each task gets its most-voted class; ties break to the
/// lowest class index (deterministic); unlabeled tasks abstain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MajorityVote;

impl Aggregator for MajorityVote {
    fn aggregate(&self, matrix: &LabelMatrix) -> Vec<Option<usize>> {
        (0..matrix.n_tasks())
            .map(|t| {
                let counts = matrix.class_counts(t);
                plurality(counts.iter().copied().enumerate(), 1).map(|(class, _)| class)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "majority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Assignment;

    fn push(m: &mut LabelMatrix, task: usize, worker: usize, class: usize) {
        m.push(Assignment {
            task,
            worker,
            class,
        });
    }

    #[test]
    fn plurality_wins() {
        let mut m = LabelMatrix::new(1, 3);
        push(&mut m, 0, 0, 2);
        push(&mut m, 0, 1, 2);
        push(&mut m, 0, 2, 1);
        assert_eq!(MajorityVote.aggregate(&m), vec![Some(2)]);
    }

    #[test]
    fn ties_break_to_lowest_class() {
        let mut m = LabelMatrix::new(1, 3);
        push(&mut m, 0, 0, 2);
        push(&mut m, 0, 1, 0);
        assert_eq!(MajorityVote.aggregate(&m), vec![Some(0)]);
    }

    #[test]
    fn plurality_breaks_ties_to_the_lowest_class_in_any_order() {
        assert_eq!(plurality([(2, 4), (0, 4), (1, 4)], 1), Some((0, 4)));
        assert_eq!(plurality([(0, 4), (2, 4)], 1), Some((0, 4)));
        assert_eq!(plurality([(3, 1), (1, 2), (0, 2)], 1), Some((0, 2)));
    }

    #[test]
    fn plurality_abstains_on_all_zero_or_no_counts() {
        assert_eq!(plurality([(0, 0), (1, 0)], 0), None);
        assert_eq!(plurality([(0, 0), (1, 0)], 1), None);
        assert_eq!(plurality(std::iter::empty(), 0), None);
    }

    #[test]
    fn plurality_threshold_at_above_and_below_the_best_count() {
        let counts = [(0, 1), (1, 3), (2, 2)];
        assert_eq!(plurality(counts, 0), Some((1, 3)));
        assert_eq!(plurality(counts, 2), Some((1, 3)), "k below best");
        assert_eq!(plurality(counts, 3), Some((1, 3)), "k at best");
        assert_eq!(plurality(counts, 4), None, "k above best");
    }

    #[test]
    fn unlabeled_tasks_abstain() {
        let m = LabelMatrix::new(2, 2);
        assert_eq!(MajorityVote.aggregate(&m), vec![None, None]);
        assert_eq!(MajorityVote.name(), "majority");
    }
}
