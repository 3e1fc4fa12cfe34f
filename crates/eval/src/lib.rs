//! # strudel-eval
//!
//! The evaluation harness of the Strudel reproduction: exactly the
//! protocol of the paper's Section 6.
//!
//! - [`Evaluation`] — per-class F1, accuracy, macro average (Table 6–8);
//! - [`run_cross_validation`] — repeated, *file-grouped* k-fold CV
//!   (all elements of one file stay in the same fold);
//! - [`ConfusionMatrix`] + [`majority_vote`] — Figure 3's ensemble
//!   confusion matrices with minority-class tie-breaking;
//! - [`permutation_importance`] / [`per_class_importance`] — Figure 4's
//!   one-vs-rest permutation feature importance.
//!
//! ```
//! use strudel_eval::Evaluation;
//!
//! let e = Evaluation::compute(&[0, 1, 1, 2], &[0, 1, 0, 2], 3);
//! assert!((e.accuracy - 0.75).abs() < 1e-12);
//! assert!(e.macro_f1(&[]) > 0.7);
//! ```

#![warn(missing_docs)]

mod confusion;
mod cv;
mod importance;
mod metrics;
mod significance;

pub use confusion::{majority_vote, ConfusionMatrix};
pub use cv::{grouped_k_folds, run_cross_validation, CvConfig, CvOutcome, Prediction};
pub use importance::{importance_shares, per_class_importance, permutation_importance};
pub use metrics::Evaluation;
pub use significance::{paired_randomization_test, PairedTest};
