//! Agreement thresholding — the GWAP repetition rule over a label matrix.

use crate::data::LabelMatrix;
use crate::majority::plurality;
use crate::Aggregator;

/// Accept a task's modal class only when at least `k` workers voted for
/// it; abstain otherwise. This is the matrix restatement of the platform's
/// k-agreement promotion: precision is bought with coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgreementThreshold {
    /// Minimum supporting votes.
    pub k: usize,
}

impl AgreementThreshold {
    /// Creates a threshold rule (`k` is coerced to at least 1).
    #[must_use]
    pub fn new(k: usize) -> Self {
        AgreementThreshold { k: k.max(1) }
    }
}

impl Aggregator for AgreementThreshold {
    fn aggregate(&self, matrix: &LabelMatrix) -> Vec<Option<usize>> {
        (0..matrix.n_tasks())
            .map(|t| {
                let counts = matrix.class_counts(t);
                plurality(counts.iter().copied().enumerate(), self.k).map(|(class, _)| class)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "agreement-threshold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Assignment;

    #[test]
    fn below_threshold_abstains() {
        let mut m = LabelMatrix::new(2, 2);
        m.push(Assignment {
            task: 0,
            worker: 0,
            class: 1,
        });
        m.push(Assignment {
            task: 1,
            worker: 0,
            class: 0,
        });
        m.push(Assignment {
            task: 1,
            worker: 1,
            class: 0,
        });
        let agg = AgreementThreshold::new(2);
        assert_eq!(agg.aggregate(&m), vec![None, Some(0)]);
    }

    #[test]
    fn split_votes_below_threshold_abstain() {
        let mut m = LabelMatrix::new(1, 2);
        m.push(Assignment {
            task: 0,
            worker: 0,
            class: 0,
        });
        m.push(Assignment {
            task: 0,
            worker: 1,
            class: 1,
        });
        assert_eq!(AgreementThreshold::new(2).aggregate(&m), vec![None]);
    }

    #[test]
    fn k_zero_coerces_to_one() {
        let agg = AgreementThreshold::new(0);
        assert_eq!(agg.k, 1);
        assert_eq!(agg.name(), "agreement-threshold");
    }

    #[test]
    fn higher_k_never_increases_coverage() {
        let mut m = LabelMatrix::new(4, 3);
        let votes = [
            (0, vec![0, 0, 0]),
            (1, vec![1, 1]),
            (2, vec![2]),
            (3, vec![0, 1, 2]),
        ];
        for (t, classes) in votes {
            for (w, c) in classes.into_iter().enumerate() {
                m.push(Assignment {
                    task: t,
                    worker: w,
                    class: c,
                });
            }
        }
        let coverage = |k: usize| {
            AgreementThreshold::new(k)
                .aggregate(&m)
                .iter()
                .filter(|x| x.is_some())
                .count()
        };
        assert!(coverage(1) >= coverage(2));
        assert!(coverage(2) >= coverage(3));
        assert_eq!(coverage(1), 4);
        assert_eq!(coverage(3), 1);
    }
}
