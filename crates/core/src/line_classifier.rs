//! `Strudel^L`: the line classifier (Section 4).
//!
//! A multi-class random forest over the 14 line features of Table 1.
//! Besides hard predictions, the model exposes per-line class probability
//! vectors — these are the `LineClassProbability` features consumed by
//! `Strudel^C` (Section 5.4).

use crate::analysis::{compute_analyses, TableAnalysis};
use crate::line_features::{extract_line_features_view, LineFeatureConfig};
use strudel_ml::{Dataset, ForestConfig, RandomForest};
use strudel_table::{CellView, ElementClass, GridView, LabeledFile, Table};

/// Configuration of `Strudel^L`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrudelLineConfig {
    /// Line feature extraction parameters.
    pub features: LineFeatureConfig,
    /// Random forest hyper-parameters (defaults follow scikit-learn's,
    /// as the paper does).
    pub forest: ForestConfig,
}

/// A fitted `Strudel^L` model.
pub struct StrudelLine {
    forest: RandomForest,
    features: LineFeatureConfig,
}

impl StrudelLine {
    /// Fit on the non-empty, labeled lines of the given files.
    ///
    /// # Panics
    /// Panics when no labeled line exists in `files`.
    pub fn fit(files: &[LabeledFile], config: &StrudelLineConfig) -> StrudelLine {
        let analyses = compute_analyses(files, config.features.derived);
        Self::fit_with_analyses(files, config, &analyses)
    }

    /// [`fit`](Self::fit) reusing precomputed per-file analyses (one per
    /// file, in file order) — the cell and column training paths compute
    /// them once and share them across all stages.
    ///
    /// # Panics
    /// Panics when no labeled line exists in `files`.
    pub(crate) fn fit_with_analyses(
        files: &[LabeledFile],
        config: &StrudelLineConfig,
        analyses: &[TableAnalysis],
    ) -> StrudelLine {
        let dataset = Self::build_dataset_with(files, &config.features, analyses);
        assert!(
            !dataset.is_empty(),
            "no labeled non-empty lines in the training files"
        );
        StrudelLine {
            forest: RandomForest::fit(&dataset, &config.forest),
            features: config.features,
        }
    }

    /// Assemble the supervised line dataset of a file collection: one
    /// sample per labeled non-empty line.
    pub fn build_dataset(files: &[LabeledFile], features: &LineFeatureConfig) -> Dataset {
        let analyses = compute_analyses(files, features.derived);
        Self::build_dataset_with(files, features, &analyses)
    }

    /// [`build_dataset`](Self::build_dataset) reusing precomputed
    /// per-file analyses (one per file, in file order).
    pub(crate) fn build_dataset_with(
        files: &[LabeledFile],
        features: &LineFeatureConfig,
        analyses: &[TableAnalysis],
    ) -> Dataset {
        let mut dataset = Dataset::new(features.n_features(), ElementClass::COUNT);
        for (file, analysis) in files.iter().zip(analyses) {
            let matrix = extract_line_features_view(file.table.view(), features, analysis);
            for (r, row_features) in matrix.iter().enumerate() {
                if let Some(label) = file.line_labels[r] {
                    dataset.push(row_features, label.index());
                }
            }
        }
        dataset
    }

    /// Class probability vectors for every row of a cell grid (empty
    /// rows get a uniform vector — they are never classified, but
    /// `Strudel^C` consumes one vector per row), walking the forest
    /// across `n_threads` worker threads (`0` = available parallelism,
    /// `1` = serial; results are identical for every count). The
    /// pipeline and the cell/column stages compute one
    /// [`TableAnalysis`] per table and share it; owned tables pass
    /// `table.view()`, with probabilities identical to the borrowed
    /// grids of the zero-copy detection path.
    pub fn predict_probs_view<C: CellView>(
        &self,
        table: GridView<'_, C>,
        analysis: &TableAnalysis,
        n_threads: usize,
    ) -> Vec<Vec<f64>> {
        let matrix = extract_line_features_view(table, &self.features, analysis);
        let rows: Vec<usize> = (0..table.n_rows())
            .filter(|&r| !table.row_is_empty(r))
            .collect();
        let samples: Vec<&[f64]> = rows.iter().map(|&r| matrix[r].as_slice()).collect();
        let predicted = self.forest.predict_proba_batch(&samples, n_threads);
        let mut probs =
            vec![vec![1.0 / ElementClass::COUNT as f64; ElementClass::COUNT]; table.n_rows()];
        for (r, p) in rows.into_iter().zip(predicted) {
            probs[r] = p;
        }
        probs
    }

    /// Hard class predictions: one per row, `None` for empty rows — the
    /// argmax of [`predict_probs_view`](Self::predict_probs_view).
    pub fn predict(&self, table: &Table) -> Vec<Option<ElementClass>> {
        let grid = table.view();
        let analysis = TableAnalysis::compute(table, self.features.derived);
        line_classes(grid, &self.predict_probs_view(grid, &analysis, 0))
    }

    /// The underlying forest (used by permutation importance).
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// The feature configuration the model was fitted with.
    pub fn feature_config(&self) -> &LineFeatureConfig {
        &self.features
    }

    /// Reassemble a model from a deserialized forest and configuration.
    pub fn from_parts(forest: RandomForest, features: LineFeatureConfig) -> StrudelLine {
        StrudelLine { forest, features }
    }
}

/// Hard line classes from per-row probability vectors: the argmax of
/// each non-empty row's vector, `None` for empty rows.
pub(crate) fn line_classes<C: CellView>(
    table: GridView<'_, C>,
    probs: &[Vec<f64>],
) -> Vec<Option<ElementClass>> {
    probs
        .iter()
        .enumerate()
        .map(|(r, p)| {
            (!table.row_is_empty(r)).then(|| ElementClass::from_index(strudel_ml::argmax(p)))
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use strudel_table::{CellLabels, Corpus};

    use ElementClass::*;

    /// A tiny but structurally honest corpus: metadata, header, data,
    /// derived, notes with the usual vertical logic.
    pub(crate) fn tiny_corpus(n_files: usize) -> Corpus {
        let mut corpus = Corpus::new("tiny");
        for i in 0..n_files {
            let a = 10 + i as i64;
            let b = 20 + 2 * i as i64;
            let rows = vec![
                vec!["Report on crime".to_string(), String::new(), String::new()],
                vec!["State".into(), "2019".into(), "2020".into()],
                vec!["Berlin".into(), a.to_string(), b.to_string()],
                vec!["Hamburg".into(), (a + 1).to_string(), (b + 1).to_string()],
                vec![
                    "Total".into(),
                    (2 * a + 1).to_string(),
                    (2 * b + 1).to_string(),
                ],
                vec!["Source: police".into(), String::new(), String::new()],
            ];
            let table = Table::from_rows(rows);
            let classes = [Metadata, Header, Data, Data, Derived, Notes];
            let line_labels: Vec<Option<ElementClass>> = classes.iter().map(|&c| Some(c)).collect();
            let cell_labels: CellLabels = (0..table.n_rows())
                .map(|r| {
                    (0..table.n_cols())
                        .map(|c| {
                            if table.cell(r, c).is_empty() {
                                None
                            } else if classes[r] == Derived && c == 0 {
                                Some(Group)
                            } else {
                                Some(classes[r])
                            }
                        })
                        .collect()
                })
                .collect();
            corpus.files.push(LabeledFile::new(
                format!("f{i}.csv"),
                table,
                line_labels,
                cell_labels,
            ));
        }
        corpus
    }

    fn fast_config() -> StrudelLineConfig {
        StrudelLineConfig {
            forest: ForestConfig::fast(15, 7),
            ..StrudelLineConfig::default()
        }
    }

    #[test]
    fn learns_the_tiny_corpus() {
        let corpus = tiny_corpus(8);
        let model = StrudelLine::fit(&corpus.files, &fast_config());
        let probe = &corpus.files[0];
        let pred = model.predict(&probe.table);
        assert_eq!(pred, probe.line_labels);
    }

    #[test]
    fn probs_align_with_rows_and_sum_to_one() {
        let corpus = tiny_corpus(4);
        let model = StrudelLine::fit(&corpus.files, &fast_config());
        let table = &corpus.files[0].table;
        let analysis = TableAnalysis::compute(table, model.feature_config().derived);
        let probs = model.predict_probs_view(table.view(), &analysis, 0);
        assert_eq!(probs.len(), 6);
        for p in &probs {
            assert_eq!(p.len(), ElementClass::COUNT);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_rows_get_uniform_probs() {
        let corpus = tiny_corpus(4);
        let model = StrudelLine::fit(&corpus.files, &fast_config());
        let t = Table::from_rows(vec![vec!["a", "1"], vec!["", ""], vec!["b", "2"]]);
        let analysis = TableAnalysis::compute(&t, model.feature_config().derived);
        let probs = model.predict_probs_view(t.view(), &analysis, 0);
        assert!(probs[1].iter().all(|&p| (p - 1.0 / 6.0).abs() < 1e-12));
        let pred = model.predict(&t);
        assert_eq!(pred[1], None);
    }

    #[test]
    fn dataset_counts_only_labeled_lines() {
        let corpus = tiny_corpus(2);
        let ds = StrudelLine::build_dataset(&corpus.files, &LineFeatureConfig::default());
        assert_eq!(ds.n_samples(), 12);
        assert_eq!(ds.n_features(), 14);
    }

    #[test]
    #[should_panic(expected = "no labeled non-empty lines")]
    fn empty_training_set_panics() {
        let _ = StrudelLine::fit(&[], &fast_config());
    }
}
