//! Dawid–Skene EM aggregation.
//!
//! The classic estimator (Dawid & Skene, 1979): alternately estimate
//! posterior task labels from worker confusion matrices (E-step) and
//! re-estimate confusion matrices and class priors from the posteriors
//! (M-step), initialized from majority vote. Recovers reliable answers
//! from noisy redundant labels and identifies bad workers — the strongest
//! classical baseline in experiment T2.

use crate::data::LabelMatrix;
use crate::Aggregator;

/// EM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DawidSkene {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the max posterior change.
    pub tol: f64,
    /// Laplace smoothing added to confusion counts.
    pub smoothing: f64,
    /// Extra pseudo-count on the *diagonal* of every worker's confusion
    /// matrix — a weak honesty prior. Vanilla Dawid–Skene is unidentifiable
    /// on tiny datasets (EM can settle on a class-permuted fixed point even
    /// with unanimous perfect labels); anchoring the diagonal removes that
    /// degeneracy while real adversaries still overwhelm it with data.
    pub diagonal_prior: f64,
}

impl Default for DawidSkene {
    fn default() -> Self {
        DawidSkene {
            max_iters: 50,
            tol: 1e-6,
            smoothing: 0.01,
            diagonal_prior: 0.5,
        }
    }
}

/// The fitted model: posteriors, worker confusion matrices, priors.
#[derive(Debug, Clone)]
pub struct DawidSkeneFit {
    /// `posteriors[task][class]` — P(true class | data).
    pub posteriors: Vec<Vec<f64>>,
    /// `confusion[worker][true][observed]` — row-stochastic confusion.
    pub confusion: Vec<Vec<Vec<f64>>>,
    /// Class priors.
    pub priors: Vec<f64>,
    /// EM iterations executed.
    pub iterations: usize,
}

impl DawidSkeneFit {
    /// MAP class per task (`None` for tasks with no labels at all).
    #[must_use]
    pub fn map_labels(&self, matrix: &LabelMatrix) -> Vec<Option<usize>> {
        self.posteriors
            .iter()
            .enumerate()
            .map(|(t, post)| {
                if matrix.labels_for(t).is_empty() {
                    return None;
                }
                let mut best = 0;
                for c in 1..post.len() {
                    if post[c] > post[best] {
                        best = c;
                    }
                }
                Some(best)
            })
            .collect()
    }
}

impl DawidSkene {
    /// Runs EM and returns the full fit.
    #[must_use]
    pub fn fit(&self, matrix: &LabelMatrix) -> DawidSkeneFit {
        let n_tasks = matrix.n_tasks();
        let n_classes = matrix.n_classes();
        let n_workers = matrix.n_workers().max(1);

        // Initialize posteriors from (soft) majority vote.
        let mut posteriors: Vec<Vec<f64>> = (0..n_tasks)
            .map(|t| {
                let counts = matrix.class_counts(t);
                let total: usize = counts.iter().sum();
                if total == 0 {
                    vec![1.0 / n_classes as f64; n_classes]
                } else {
                    counts
                        .iter()
                        .map(|&c| (c as f64 + 0.1) / (total as f64 + 0.1 * n_classes as f64))
                        .collect()
                }
            })
            .collect();

        let mut confusion = vec![vec![vec![0.0; n_classes]; n_classes]; n_workers];
        let mut priors = vec![1.0 / n_classes as f64; n_classes];
        let mut iterations = 0;

        for iter in 0..self.max_iters {
            iterations = iter + 1;
            // ---- M-step: confusion matrices and priors from posteriors.
            for w in &mut confusion {
                for (true_c, row) in w.iter_mut().enumerate() {
                    for (obs_c, x) in row.iter_mut().enumerate() {
                        *x = self.smoothing
                            + if obs_c == true_c {
                                self.diagonal_prior
                            } else {
                                0.0
                            };
                    }
                }
            }
            for a in matrix.iter() {
                let post = &posteriors[a.task];
                for (true_c, &p) in post.iter().enumerate() {
                    confusion[a.worker][true_c][a.class] += p;
                }
            }
            for w in &mut confusion {
                for row in w.iter_mut() {
                    let sum: f64 = row.iter().sum();
                    if sum > 0.0 {
                        row.iter_mut().for_each(|x| *x /= sum);
                    }
                }
            }
            let mut prior_counts = vec![self.smoothing; n_classes];
            for post in &posteriors {
                for (c, &p) in post.iter().enumerate() {
                    prior_counts[c] += p;
                }
            }
            let prior_sum: f64 = prior_counts.iter().sum();
            priors = prior_counts.into_iter().map(|c| c / prior_sum).collect();

            // ---- E-step: posteriors from confusion matrices (log space).
            let mut max_delta = 0.0f64;
            #[expect(clippy::needless_range_loop, reason = "t indexes two arrays")]
            for t in 0..n_tasks {
                let labels = matrix.labels_for(t);
                if labels.is_empty() {
                    continue;
                }
                let mut log_post: Vec<f64> = priors.iter().map(|&p| p.max(1e-300).ln()).collect();
                for a in labels {
                    for (true_c, lp) in log_post.iter_mut().enumerate() {
                        *lp += confusion[a.worker][true_c][a.class].max(1e-300).ln();
                    }
                }
                // Normalize via log-sum-exp.
                let max_lp = log_post.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mut new_post: Vec<f64> =
                    log_post.iter().map(|&lp| (lp - max_lp).exp()).collect();
                let sum: f64 = new_post.iter().sum();
                new_post.iter_mut().for_each(|p| *p /= sum);
                for c in 0..n_classes {
                    max_delta = max_delta.max((new_post[c] - posteriors[t][c]).abs());
                }
                posteriors[t] = new_post;
            }
            if max_delta < self.tol {
                break;
            }
        }

        if hc_obs::active() {
            hc_obs::counter_now("aggregate.em_fits", 1);
            hc_obs::counter_now("aggregate.em_iterations", iterations as u64);
        }
        DawidSkeneFit {
            posteriors,
            confusion,
            priors,
            iterations,
        }
    }
}

impl Aggregator for DawidSkene {
    fn aggregate(&self, matrix: &LabelMatrix) -> Vec<Option<usize>> {
        self.fit(matrix).map_labels(matrix)
    }

    fn name(&self) -> &'static str {
        "dawid-skene"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Assignment;
    use crate::synthetic::SyntheticCrowd;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn unanimous_data_recovers_exactly() {
        let mut m = LabelMatrix::new(3, 2);
        for t in 0..3 {
            for w in 0..3 {
                m.push(Assignment {
                    task: t,
                    worker: w,
                    class: t % 2,
                });
            }
        }
        let labels = DawidSkene::default().aggregate(&m);
        assert_eq!(labels, vec![Some(0), Some(1), Some(0)]);
    }

    #[test]
    fn empty_tasks_abstain() {
        let mut m = LabelMatrix::new(2, 2);
        m.push(Assignment {
            task: 0,
            worker: 0,
            class: 1,
        });
        let labels = DawidSkene::default().aggregate(&m);
        assert_eq!(labels[0], Some(1));
        assert_eq!(labels[1], None);
    }

    #[test]
    fn outperforms_majority_with_identifiable_bad_workers() {
        // 5 good workers (90%) + 5 adversarial workers (always class 0):
        // DS should learn to discount the adversaries.
        let mut r = rng();
        let world = SyntheticCrowd::new(150, 3, 10, 0.9)
            .with_adversarial_share(0.5)
            .generate(6, &mut r);
        let ds = DawidSkene::default().aggregate(&world.matrix);
        let mv = crate::majority::MajorityVote.aggregate(&world.matrix);
        let q_ds = crate::quality::score(&ds, &world.gold);
        let q_mv = crate::quality::score(&mv, &world.gold);
        assert!(
            q_ds.accuracy >= q_mv.accuracy,
            "DS {:.3} should beat MV {:.3}",
            q_ds.accuracy,
            q_mv.accuracy
        );
        assert!(q_ds.accuracy > 0.85, "DS accuracy {:.3}", q_ds.accuracy);
    }

    #[test]
    fn worker_accuracy_separates_good_from_bad() {
        let mut r = rng();
        let world = SyntheticCrowd::new(200, 3, 10, 0.95)
            .with_adversarial_share(0.3)
            .generate(6, &mut r);
        let fit = DawidSkene::default().fit(&world.matrix);
        // A worker's estimated accuracy: the diagonal of their confusion
        // matrix weighted by the class priors.
        let accuracy = |worker: usize| -> f64 {
            fit.confusion[worker]
                .iter()
                .enumerate()
                .map(|(true_c, row)| fit.priors[true_c] * row[true_c])
                .sum()
        };
        // Workers 0..6 are good (95%), workers 7..9 adversarial.
        let good_acc = accuracy(0);
        let bad_acc = accuracy(world.matrix.n_workers() - 1);
        assert!(
            good_acc > bad_acc + 0.2,
            "good {good_acc:.3} vs bad {bad_acc:.3}"
        );
    }

    #[test]
    fn convergence_terminates_early() {
        let mut m = LabelMatrix::new(5, 2);
        for t in 0..5 {
            for w in 0..4 {
                m.push(Assignment {
                    task: t,
                    worker: w,
                    class: 1,
                });
            }
        }
        let fit = DawidSkene::default().fit(&m);
        assert!(fit.iterations < 50, "converged in {} iters", fit.iterations);
        // Priors lean to class 1 strongly.
        assert!(fit.priors[1] > 0.8);
    }

    #[test]
    fn aggregator_name() {
        assert_eq!(DawidSkene::default().name(), "dawid-skene");
    }
}
