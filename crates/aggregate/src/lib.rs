//! # hc-aggregate — label aggregation for human computation
//!
//! GWAP verification (agreement, repetition) is one point in a design
//! space the broader human-computation literature explores with redundant
//! labeling and statistical aggregation. Experiment T2 compares the
//! platform's agreement mechanism against the standard baselines, all
//! implemented here:
//!
//! * [`MajorityVote`] — plurality over redundant labels; the rule
//!   itself is [`plurality`], which also runs over sparse per-label
//!   tallies.
//! * [`WeightedVote`] — plurality with per-worker weights (e.g. gold-task
//!   accuracy).
//! * [`AgreementThreshold`] — accept only labels with at least `k`
//!   supporting workers (the GWAP repetition rule, restated over a label
//!   matrix).
//! * [`DawidSkene`] — the classic EM estimator of per-worker confusion
//!   matrices and posterior task labels (Dawid & Skene, 1979).
//!
//! Plus [`quality`] scoring against gold labels and a [`synthetic`]
//! workload generator with controllable worker accuracy mixes.
//!
//! ## Example
//!
//! ```
//! use hc_aggregate::prelude::*;
//! use rand::SeedableRng;
//!
//! // 50 tasks, 4 classes, 5 labels per task from a 70%-accurate crowd.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let world = SyntheticCrowd::new(50, 4, 20, 0.7).generate(5, &mut rng);
//!
//! let majority = MajorityVote.aggregate(&world.matrix);
//! let ds = DawidSkene::default().aggregate(&world.matrix);
//! let q_mv = score(&majority, &world.gold);
//! let q_ds = score(&ds, &world.gold);
//! assert!(q_mv.accuracy > 0.7);
//! assert!(q_ds.accuracy >= q_mv.accuracy - 0.1); // DS is competitive
//! ```

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro,
        clippy::disallowed_types,
        clippy::disallowed_methods
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod data;
pub mod dawid_skene;
pub mod majority;
pub mod quality;
pub mod synthetic;
pub mod threshold;
pub mod weighted;

pub use data::{Assignment, LabelMatrix};
pub use dawid_skene::{DawidSkene, DawidSkeneFit};
pub use majority::{plurality, MajorityVote};
pub use quality::{score, QualityReport};
pub use synthetic::{SyntheticCrowd, SyntheticWorld};
pub use threshold::AgreementThreshold;
pub use weighted::WeightedVote;

/// An aggregation strategy over a redundant label matrix.
pub trait Aggregator {
    /// Produces one estimated class per task (`None` when the strategy
    /// abstains, e.g. below an agreement threshold).
    fn aggregate(&self, matrix: &data::LabelMatrix) -> Vec<Option<usize>>;

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// Convenience re-exports.
pub mod prelude {
    pub use crate::data::{Assignment, LabelMatrix};
    pub use crate::dawid_skene::{DawidSkene, DawidSkeneFit};
    pub use crate::majority::{plurality, MajorityVote};
    pub use crate::quality::{score, QualityReport};
    pub use crate::synthetic::{SyntheticCrowd, SyntheticWorld};
    pub use crate::threshold::AgreementThreshold;
    pub use crate::weighted::WeightedVote;
    pub use crate::Aggregator;
}
