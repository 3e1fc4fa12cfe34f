//! # strudel-ml
//!
//! The machine-learning substrate of the Strudel reproduction. Everything
//! is implemented from scratch on `std` + `rand`:
//!
//! - [`RandomForest`] — the backbone of `Strudel^L`/`Strudel^C`
//!   (bootstrap-aggregated CART trees, scikit-learn-like defaults);
//! - [`DecisionTree`] — single CART tree with Gini impurity;
//! - [`GaussianNb`], [`Knn`], [`LogisticRegression`] — the candidate
//!   backbones of the paper's classifier comparison (Section 6.1.2);
//! - [`LinearChainCrf`] — sequence labeller behind the CRF^L baseline;
//! - [`Mlp`] — neural classifier behind the RNN^C baseline stand-in.
//!
//! All learners expose the [`Classifier`] trait (probability prediction +
//! argmax classification) so the evaluation harness treats them uniformly.
//!
//! ```
//! use strudel_ml::{Classifier, Dataset, ForestConfig, RandomForest};
//!
//! let data = Dataset::from_rows(
//!     &[vec![0.0], vec![0.2], vec![5.0], vec![5.3]],
//!     &[0, 0, 1, 1],
//!     2,
//! );
//! let forest = RandomForest::fit(&data, &ForestConfig::fast(10, 42));
//! assert_eq!(forest.predict(&[0.1]), 0);
//! assert_eq!(forest.predict(&[5.1]), 1);
//! ```

#![warn(missing_docs)]

mod crf;
mod dataset;
mod forest;
mod knn;
mod logistic;
mod mlp;
mod naive_bayes;
mod serialize;
mod traits;
mod tree;

pub use crf::{CrfConfig, LinearChainCrf, SequenceSample};
pub use dataset::Dataset;
pub use forest::{ForestConfig, RandomForest, PARALLEL_PREDICT_THRESHOLD};
pub use knn::Knn;
pub use logistic::{LogisticConfig, LogisticRegression};
pub use mlp::{Mlp, MlpConfig};
pub use naive_bayes::GaussianNb;
pub use serialize::{ModelReader, ModelWriter, MAGIC, VERSION};
pub use traits::{argmax, Classifier};
pub use tree::{DecisionTree, MaxFeatures, RawNode, TreeConfig};
