//! # strudel
//!
//! Reproduction of **Strudel** — *Structure Detection in Verbose CSV
//! Files* (Jiang, Vitagliano, Naumann; EDBT 2021).
//!
//! Verbose CSV files mix `metadata`, `header`, `group`, `data`, `derived`,
//! and `notes` content at arbitrary positions. Strudel classifies every
//! line and every cell of such a file into those six classes with a
//! random forest over content, contextual, and computational features.
//!
//! The crate provides:
//!
//! - the full pipeline ([`Strudel`], Figure 2): dialect detection →
//!   table → [`StrudelLine`] (Section 4) → [`StrudelCell`] (Section 5);
//! - the feature extractors of Tables 1 and 2
//!   ([`extract_line_features`], [`extract_cell_features`]);
//! - Algorithm 1 ([`block_sizes`]) and Algorithm 2
//!   ([`detect_derived_cells`]);
//! - every baseline of the paper's evaluation ([`baselines`]):
//!   `CRF^L`, `Pytheas^L`, `Line^C`, and the `RNN^C` stand-in;
//! - worker-pool batch inference over many files ([`batch`]) with
//!   per-stage wall-clock instrumentation ([`StageTimings`]).
//!
//! ```
//! use strudel::{Strudel, StrudelCellConfig, StrudelLineConfig};
//! use strudel_ml::ForestConfig;
//! # use strudel_datagen::{saus, GeneratorConfig};
//! # let corpus = saus(&GeneratorConfig { n_files: 6, seed: 1, ..GeneratorConfig::default() });
//!
//! // `corpus` is any collection of annotated `LabeledFile`s.
//! let config = StrudelCellConfig {
//!     line: StrudelLineConfig { forest: ForestConfig::fast(10, 0), ..Default::default() },
//!     forest: ForestConfig::fast(10, 0),
//!     ..Default::default()
//! };
//! let model = Strudel::fit(&corpus.files, &config);
//! let structure = model.detect_structure("Title,,\nState,2019,2020\nBerlin,1,2\n");
//! assert_eq!(structure.lines.len(), 3);
//! ```

#![warn(missing_docs)]

mod active;
mod analysis;
pub mod baselines;
pub mod batch;
mod block;
mod cell_classifier;
mod cell_features;
mod column;
mod derived;
mod extract;
pub mod hash;
pub mod json;
mod keywords;
mod line_classifier;
mod line_features;
mod metrics;
mod persist;
mod pipeline;
pub mod stream;

pub use active::{file_uncertainty, normalized_entropy, select_most_uncertain, uniform_entropy};
pub use analysis::{compute_analyses, TableAnalysis};
pub use block::{block_sizes, block_sizes_view};
pub use cell_classifier::{CellPrediction, StrudelCell, StrudelCellConfig};
pub use cell_features::{
    extract_cell_features, extract_cell_features_view, CellFeatureConfig, CellFeatures,
    CELL_FEATURE_NAMES, N_CELL_FEATURES,
};
pub use column::{
    column_labels, extract_column_features, fit_plain_and_boosted, ColumnBoostedCell,
    StrudelColumn, COLUMN_FEATURE_NAMES, N_COLUMN_FEATURES,
};
pub use derived::{
    derived_coverage_per_line, derived_coverage_per_line_view, detect_derived_cells,
    detect_derived_cells_view, DerivedConfig,
};
pub use extract::{to_relational, RelationalTable};
pub use hash::{ContentHash, ContentHasher};
pub use keywords::{has_aggregation_keyword, AGGREGATION_KEYWORDS};
pub use line_classifier::{StrudelLine, StrudelLineConfig};
pub use line_features::{
    extract_line_features, extract_line_features_view, LineFeatureConfig, GLOBAL_FEATURE_NAMES,
    LINE_FEATURE_NAMES,
};
pub use metrics::{Stage, StageTimer, StageTimings};
pub use pipeline::{Structure, Strudel, TableRegion};
pub use stream::{
    classify_reader, stream_to_json, StreamClassifier, StreamConfig, StreamSummary, StreamWindow,
    STREAM_CHUNK_BYTES,
};

// Re-export the shared error/limit vocabulary so downstream users of the
// fallible API need no direct `strudel-table` dependency, plus the
// borrowed-grid vocabulary the `*_view` entry points speak.
pub use strudel_dialect::Dialect;
pub use strudel_table::{
    CellRef, CellView, Deadline, GridView, LimitKind, Limits, StrudelError, TableRef,
};
