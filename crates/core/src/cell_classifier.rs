//! `Strudel^C`: the cell classifier (Section 5).
//!
//! A multi-class random forest over the 37 cell features of Table 2. A
//! `Strudel^L` model is trained first; its per-line probability vectors
//! become the `LineClassProbability` features (Section 5.4), so the cell
//! model can lean on line structure while still overriding it for cells
//! that deviate from their line's majority class (e.g. the leading group
//! cell of a derived line).

use crate::analysis::{compute_analyses, TableAnalysis};
use crate::cell_features::{extract_cell_features_view, CellFeatureConfig, N_CELL_FEATURES};
use crate::line_classifier::{StrudelLine, StrudelLineConfig};
use strudel_ml::{Dataset, ForestConfig, RandomForest};
use strudel_table::{CellView, ElementClass, GridView, LabeledFile, Table};

/// Configuration of `Strudel^C`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrudelCellConfig {
    /// Configuration of the upstream `Strudel^L` stage.
    pub line: StrudelLineConfig,
    /// Cell feature extraction parameters.
    pub features: CellFeatureConfig,
    /// Random forest hyper-parameters of the cell stage.
    pub forest: ForestConfig,
}

/// One classified cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPrediction {
    /// Row of the cell.
    pub row: usize,
    /// Column of the cell.
    pub col: usize,
    /// Predicted class.
    pub class: ElementClass,
    /// Class probability vector.
    pub probs: Vec<f64>,
}

/// A fitted `Strudel^C` model (owns its upstream `Strudel^L`).
pub struct StrudelCell {
    line_model: StrudelLine,
    forest: RandomForest,
    features: CellFeatureConfig,
}

impl StrudelCell {
    /// Fit the full two-stage model: `Strudel^L` first, then the cell
    /// forest on features that embed the line model's probabilities.
    ///
    /// # Panics
    /// Panics when `files` contains no labeled cells.
    pub fn fit(files: &[LabeledFile], config: &StrudelCellConfig) -> StrudelCell {
        // One analysis per file serves the line stage (fit + the
        // probability pass below) and the cell feature extraction.
        let analyses = compute_analyses(files, config.line.features.derived);
        let line_model = StrudelLine::fit_with_analyses(files, &config.line, &analyses);
        let dataset = Self::build_dataset_with(files, &line_model, &config.features, &analyses);
        assert!(
            !dataset.is_empty(),
            "no labeled cells in the training files"
        );
        StrudelCell {
            forest: RandomForest::fit(&dataset, &config.forest),
            line_model,
            features: config.features,
        }
    }

    /// Assemble the supervised cell dataset of a file collection: one
    /// sample per labeled non-empty cell, with `LineClassProbability`
    /// features produced by `line_model`.
    pub fn build_dataset(
        files: &[LabeledFile],
        line_model: &StrudelLine,
        features: &CellFeatureConfig,
    ) -> Dataset {
        let analyses = compute_analyses(files, line_model.feature_config().derived);
        Self::build_dataset_with(files, line_model, features, &analyses)
    }

    /// [`build_dataset`](Self::build_dataset) reusing precomputed
    /// per-file analyses (one per file, in file order).
    pub(crate) fn build_dataset_with(
        files: &[LabeledFile],
        line_model: &StrudelLine,
        features: &CellFeatureConfig,
        analyses: &[TableAnalysis],
    ) -> Dataset {
        let mut dataset = Dataset::new(N_CELL_FEATURES, ElementClass::COUNT);
        for (file, analysis) in files.iter().zip(analyses) {
            let grid = file.table.view();
            let probs = line_model.predict_probs_view(grid, analysis, 0);
            for cf in extract_cell_features_view(grid, &probs, features, analysis) {
                if let Some(label) = file.cell_labels[cf.row][cf.col] {
                    dataset.push(&cf.features, label.index());
                }
            }
        }
        dataset
    }

    /// Classify every non-empty cell of a table.
    pub fn predict(&self, table: &Table) -> Vec<CellPrediction> {
        let analysis = TableAnalysis::compute(table, self.line_model.feature_config().derived);
        let grid = table.view();
        let probs = self.line_model.predict_probs_view(grid, &analysis, 0);
        self.predict_with_probs_view(grid, &probs, 0, &analysis)
    }

    /// Classify every non-empty cell of a cell grid given precomputed
    /// line probability vectors (one per row) and a precomputed
    /// [`TableAnalysis`], walking the forest across `n_threads` worker
    /// threads (`0` = available parallelism, `1` = serial).
    ///
    /// The pipeline computes the analysis and the line probabilities
    /// once and shares them between the line and cell stages; the
    /// zero-copy detection path classifies the borrowed grid directly.
    /// Results are identical to [`predict`](Self::predict) for every
    /// thread count and grid type.
    pub fn predict_with_probs_view<C: CellView>(
        &self,
        table: GridView<'_, C>,
        line_probs: &[Vec<f64>],
        n_threads: usize,
        analysis: &TableAnalysis,
    ) -> Vec<CellPrediction> {
        let cell_features = extract_cell_features_view(table, line_probs, &self.features, analysis);
        let samples: Vec<&[f64]> = cell_features
            .iter()
            .map(|cf| cf.features.as_slice())
            .collect();
        let predicted = self.forest.predict_proba_batch(&samples, n_threads);
        cell_features
            .into_iter()
            .zip(predicted)
            .map(|(cf, p)| {
                let class = ElementClass::from_index(strudel_ml::argmax(&p));
                CellPrediction {
                    row: cf.row,
                    col: cf.col,
                    class,
                    probs: p,
                }
            })
            .collect()
    }

    /// The upstream line model.
    pub fn line_model(&self) -> &StrudelLine {
        &self.line_model
    }

    /// The underlying cell forest (used by permutation importance).
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// The cell feature configuration the model was fitted with.
    pub fn feature_config(&self) -> &CellFeatureConfig {
        &self.features
    }

    /// Reassemble a model from deserialized parts.
    pub fn from_parts(
        line_model: StrudelLine,
        forest: RandomForest,
        features: CellFeatureConfig,
    ) -> StrudelCell {
        StrudelCell {
            line_model,
            forest,
            features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_classifier::tests::tiny_corpus;

    fn fast_config() -> StrudelCellConfig {
        StrudelCellConfig {
            line: StrudelLineConfig {
                forest: ForestConfig::fast(15, 3),
                ..StrudelLineConfig::default()
            },
            forest: ForestConfig::fast(15, 4),
            ..StrudelCellConfig::default()
        }
    }

    #[test]
    fn learns_cell_classes_including_group_in_derived_line() {
        let corpus = tiny_corpus(8);
        let model = StrudelCell::fit(&corpus.files, &fast_config());
        let probe = &corpus.files[0];
        let preds = model.predict(&probe.table);
        assert_eq!(preds.len(), probe.non_empty_cell_count());
        let mut correct = 0;
        for p in &preds {
            if Some(p.class) == probe.cell_labels[p.row][p.col] {
                correct += 1;
            }
        }
        // The tiny corpus is fully learnable, including the Group cell
        // leading each Derived line (which Line^C by construction misses).
        assert_eq!(correct, preds.len());
    }

    #[test]
    fn probability_vectors_are_normalised() {
        let corpus = tiny_corpus(4);
        let model = StrudelCell::fit(&corpus.files, &fast_config());
        for p in model.predict(&corpus.files[0].table) {
            assert_eq!(p.probs.len(), ElementClass::COUNT);
            assert!((p.probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn dataset_has_one_sample_per_labeled_cell() {
        let corpus = tiny_corpus(2);
        let line_model = StrudelLine::fit(&corpus.files, &fast_config().line);
        let ds =
            StrudelCell::build_dataset(&corpus.files, &line_model, &CellFeatureConfig::default());
        let expected: usize = corpus.files.iter().map(|f| f.non_empty_cell_count()).sum();
        assert_eq!(ds.n_samples(), expected);
        assert_eq!(ds.n_features(), N_CELL_FEATURES);
    }
}
