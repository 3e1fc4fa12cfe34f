//! Column classification — the paper's proposed future work (§7:
//! "whether column classification can help boost the classification
//! quality").
//!
//! A verbose CSV file's columns have their own semantics: a left label
//! column, numeric value columns, a derived aggregate column, mostly
//! empty layout columns. [`StrudelColumn`] classifies each column into
//! the six-class taxonomy (labeled by the majority class of its
//! non-empty cells), and [`ColumnBoostedCell`] appends the column
//! probability vector to the cell features — the experiment the
//! `ablation_column_features` binary runs.

use crate::analysis::{compute_analyses, TableAnalysis};
use crate::cell_classifier::{CellPrediction, StrudelCell, StrudelCellConfig};
use crate::cell_features::{extract_cell_features_view, CellFeatureConfig, N_CELL_FEATURES};
use crate::derived::DerivedConfig;
use crate::keywords::has_aggregation_keyword;
use crate::line_classifier::StrudelLine;
use strudel_ml::{Classifier, Dataset, ForestConfig, RandomForest};
use strudel_table::{DataType, ElementClass, LabeledFile, Table};

/// Names of the per-column features, in vector order.
pub const COLUMN_FEATURE_NAMES: [&str; 13] = [
    "ColEmptyCellRatio",
    "ColNumericRatio",
    "ColStringRatio",
    "ColDateRatio",
    "ColHasDerivedKeywords",
    "ColPosition",
    "ColIsFirst",
    "ColIsLast",
    "ColMeanValueLength",
    "ColValueLengthSpread",
    "ColTypeHomogeneity",
    "ColDerivedCellRatio",
    "ColTopCellIsText",
];

/// Number of column features.
pub const N_COLUMN_FEATURES: usize = COLUMN_FEATURE_NAMES.len();

/// Extract one feature row per table column.
pub fn extract_column_features(table: &Table, derived: &DerivedConfig) -> Vec<Vec<f64>> {
    let analysis = TableAnalysis::compute(table, *derived);
    extract_column_features_with(table, derived, &analysis)
}

/// [`extract_column_features`] reusing a precomputed [`TableAnalysis`],
/// so one derived-cell detection per file serves the line, cell, and
/// column extractors (the mask is recomputed if `analysis` was built for
/// a different [`DerivedConfig`]).
pub fn extract_column_features_with(
    table: &Table,
    derived: &DerivedConfig,
    analysis: &TableAnalysis,
) -> Vec<Vec<f64>> {
    let (n_rows, n_cols) = (table.n_rows(), table.n_cols());
    if n_rows == 0 || n_cols == 0 {
        return Vec::new();
    }
    let derived_cells = analysis.derived_for(table, derived);

    // Per-file value-length normaliser (as for the cell features).
    let mut len_max = 1.0f64;
    for r in 0..n_rows {
        for cell in table.row(r) {
            len_max = len_max.max(cell.len() as f64);
        }
    }

    (0..n_cols)
        .map(|c| {
            let mut empty = 0usize;
            let mut numeric = 0usize;
            let mut strings = 0usize;
            let mut dates = 0usize;
            let mut keyword = false;
            let mut lengths: Vec<f64> = Vec::new();
            let mut derived_count = 0usize;
            let mut type_counts = [0usize; 5];
            let mut top_cell_text = 0.0;
            let mut seen_top = false;
            for (r, derived_row) in derived_cells.iter().enumerate() {
                let cell = table.cell(r, c);
                match cell.dtype() {
                    DataType::Empty => empty += 1,
                    DataType::Int | DataType::Float => numeric += 1,
                    DataType::Str => strings += 1,
                    DataType::Date => dates += 1,
                }
                if !cell.is_empty() {
                    if !seen_top {
                        seen_top = true;
                        top_cell_text = f64::from(cell.dtype() == DataType::Str);
                    }
                    type_counts[cell.dtype().code() as usize] += 1;
                    lengths.push(cell.len() as f64);
                    if has_aggregation_keyword(cell.raw()) {
                        keyword = true;
                    }
                    if derived_row[c] {
                        derived_count += 1;
                    }
                }
            }
            let non_empty = lengths.len().max(1) as f64;
            let mean_len = lengths.iter().sum::<f64>() / non_empty;
            let spread =
                (lengths.iter().map(|l| (l - mean_len).powi(2)).sum::<f64>() / non_empty).sqrt();
            let homogeneity = *type_counts.iter().max().expect("non-empty") as f64 / non_empty;
            vec![
                empty as f64 / n_rows as f64,
                numeric as f64 / n_rows as f64,
                strings as f64 / n_rows as f64,
                dates as f64 / n_rows as f64,
                f64::from(keyword),
                c as f64 / (n_cols - 1).max(1) as f64,
                f64::from(c == 0),
                f64::from(c + 1 == n_cols),
                mean_len / len_max,
                spread / len_max,
                homogeneity,
                derived_count as f64 / non_empty,
                top_cell_text,
            ]
        })
        .collect()
}

/// Majority cell class of each column (`None` for all-empty columns).
pub fn column_labels(file: &LabeledFile) -> Vec<Option<ElementClass>> {
    (0..file.table.n_cols())
        .map(|c| {
            let mut counts = [0usize; ElementClass::COUNT];
            for row in &file.cell_labels {
                if let Some(class) = row[c] {
                    counts[class.index()] += 1;
                }
            }
            let max = *counts.iter().max().expect("six classes");
            if max == 0 {
                return None;
            }
            ElementClass::ALL
                .into_iter()
                .find(|cl| counts[cl.index()] == max)
        })
        .collect()
}

/// A fitted column classifier.
pub struct StrudelColumn {
    forest: RandomForest,
    derived: DerivedConfig,
}

impl StrudelColumn {
    /// Fit on the majority-labeled columns of the given files.
    ///
    /// # Panics
    /// Panics when `files` contains no labeled columns.
    pub fn fit(
        files: &[LabeledFile],
        derived: DerivedConfig,
        forest: &ForestConfig,
    ) -> StrudelColumn {
        let analyses = compute_analyses(files, derived);
        Self::fit_with_analyses(files, derived, forest, &analyses)
    }

    /// [`fit`](Self::fit) reusing precomputed per-file analyses (one per
    /// file, in file order).
    pub(crate) fn fit_with_analyses(
        files: &[LabeledFile],
        derived: DerivedConfig,
        forest: &ForestConfig,
        analyses: &[TableAnalysis],
    ) -> StrudelColumn {
        let mut dataset = Dataset::new(N_COLUMN_FEATURES, ElementClass::COUNT);
        for (file, analysis) in files.iter().zip(analyses) {
            let features = extract_column_features_with(&file.table, &derived, analysis);
            for (c, label) in column_labels(file).into_iter().enumerate() {
                if let Some(label) = label {
                    dataset.push(&features[c], label.index());
                }
            }
        }
        assert!(
            !dataset.is_empty(),
            "no labeled columns in the training files"
        );
        StrudelColumn {
            forest: RandomForest::fit(&dataset, forest),
            derived,
        }
    }

    /// Class probability vectors for every column.
    pub fn predict_probs(&self, table: &Table) -> Vec<Vec<f64>> {
        let analysis = TableAnalysis::compute(table, self.derived);
        self.predict_probs_with_analysis(table, &analysis)
    }

    /// [`predict_probs`](Self::predict_probs) reusing a precomputed
    /// [`TableAnalysis`].
    pub fn predict_probs_with_analysis(
        &self,
        table: &Table,
        analysis: &TableAnalysis,
    ) -> Vec<Vec<f64>> {
        extract_column_features_with(table, &self.derived, analysis)
            .iter()
            .map(|f| self.forest.predict_proba(f))
            .collect()
    }

    /// Hard class predictions per column.
    pub fn predict(&self, table: &Table) -> Vec<ElementClass> {
        extract_column_features(table, &self.derived)
            .iter()
            .map(|f| ElementClass::from_index(self.forest.predict(f)))
            .collect()
    }
}

/// `Strudel^C` extended with column class probabilities: each cell's 37
/// features gain the 6-dimensional probability vector of its column.
pub struct ColumnBoostedCell {
    line_model: StrudelLine,
    column_model: StrudelColumn,
    forest: RandomForest,
    features: CellFeatureConfig,
}

impl ColumnBoostedCell {
    /// Total feature width (cell + column probabilities).
    pub const N_FEATURES: usize = N_CELL_FEATURES + ElementClass::COUNT;

    /// Fit all three stages (line, column, boosted cell forest). One
    /// [`TableAnalysis`] per file is computed up front and shared by the
    /// line, column, and cell feature extractors.
    pub fn fit(files: &[LabeledFile], config: &StrudelCellConfig) -> ColumnBoostedCell {
        let analyses = compute_analyses(files, config.line.features.derived);
        let line_model = StrudelLine::fit_with_analyses(files, &config.line, &analyses);
        let column_model = StrudelColumn::fit_with_analyses(
            files,
            config.features.derived,
            &config.forest,
            &analyses,
        );
        let dataset = Self::build_dataset(
            files,
            &line_model,
            &column_model,
            &config.features,
            &analyses,
        );
        assert!(
            !dataset.is_empty(),
            "no labeled cells in the training files"
        );
        ColumnBoostedCell {
            forest: RandomForest::fit(&dataset, &config.forest),
            line_model,
            column_model,
            features: config.features,
        }
    }

    fn build_dataset(
        files: &[LabeledFile],
        line_model: &StrudelLine,
        column_model: &StrudelColumn,
        features: &CellFeatureConfig,
        analyses: &[TableAnalysis],
    ) -> Dataset {
        let mut dataset = Dataset::new(Self::N_FEATURES, ElementClass::COUNT);
        for (file, analysis) in files.iter().zip(analyses) {
            let grid = file.table.view();
            let line_probs = line_model.predict_probs_view(grid, analysis, 0);
            let col_probs = column_model.predict_probs_with_analysis(&file.table, analysis);
            for cf in extract_cell_features_view(grid, &line_probs, features, analysis) {
                if let Some(label) = file.cell_labels[cf.row][cf.col] {
                    let mut row = cf.features;
                    row.extend_from_slice(&col_probs[cf.col]);
                    dataset.push(&row, label.index());
                }
            }
        }
        dataset
    }

    /// Classify every non-empty cell.
    pub fn predict(&self, table: &Table) -> Vec<CellPrediction> {
        let analysis = TableAnalysis::compute(table, self.line_model.feature_config().derived);
        let grid = table.view();
        let line_probs = self.line_model.predict_probs_view(grid, &analysis, 0);
        let col_probs = self
            .column_model
            .predict_probs_with_analysis(table, &analysis);
        extract_cell_features_view(grid, &line_probs, &self.features, &analysis)
            .into_iter()
            .map(|cf| {
                let mut row = cf.features;
                row.extend_from_slice(&col_probs[cf.col]);
                let probs = self.forest.predict_proba(&row);
                CellPrediction {
                    row: cf.row,
                    col: cf.col,
                    class: ElementClass::from_index(strudel_ml::argmax(&probs)),
                    probs,
                }
            })
            .collect()
    }

    /// The column stage (for inspection).
    pub fn column_model(&self) -> &StrudelColumn {
        &self.column_model
    }
}

/// Convenience: fit both the plain and the boosted model with the same
/// configuration (used by the ablation experiment).
pub fn fit_plain_and_boosted(
    files: &[LabeledFile],
    config: &StrudelCellConfig,
) -> (StrudelCell, ColumnBoostedCell) {
    (
        StrudelCell::fit(files, config),
        ColumnBoostedCell::fit(files, config),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_classifier::tests::tiny_corpus;
    use crate::line_classifier::StrudelLineConfig;

    #[test]
    fn column_features_shape() {
        let t = Table::from_rows(vec![
            vec!["Region", "2019", "Total"],
            vec!["a", "10", "10"],
            vec!["b", "20", "20"],
        ]);
        let f = extract_column_features(&t, &DerivedConfig::default());
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|row| row.len() == N_COLUMN_FEATURES));
        let idx = |n: &str| COLUMN_FEATURE_NAMES.iter().position(|&x| x == n).unwrap();
        assert_eq!(f[0][idx("ColIsFirst")], 1.0);
        assert_eq!(f[2][idx("ColIsLast")], 1.0);
        assert_eq!(f[2][idx("ColHasDerivedKeywords")], 1.0);
        assert_eq!(f[0][idx("ColHasDerivedKeywords")], 0.0);
        assert!(f[1][idx("ColNumericRatio")] > 0.6);
        assert_eq!(f[0][idx("ColTopCellIsText")], 1.0);
    }

    #[test]
    fn column_labels_majority() {
        let corpus = tiny_corpus(1);
        let labels = column_labels(&corpus.files[0]);
        // Column 0 holds metadata/header/data/group/notes cells — data
        // dominates; columns 1-2 are data-dominated too.
        assert_eq!(labels, vec![Some(ElementClass::Data); 3]);
    }

    #[test]
    fn column_classifier_learns_derived_columns() {
        // Corpus where the last column is a keyword-less aggregate: the
        // column classifier should learn it from the derived-cell ratio
        // and positional cues.
        use crate::cell_classifier::StrudelCellConfig;
        let corpus = tiny_corpus(8);
        let config = StrudelCellConfig {
            line: StrudelLineConfig {
                forest: ForestConfig::fast(10, 0),
                ..StrudelLineConfig::default()
            },
            forest: ForestConfig::fast(10, 1),
            ..StrudelCellConfig::default()
        };
        let model = ColumnBoostedCell::fit(&corpus.files, &config);
        let preds = model.predict(&corpus.files[0].table);
        let correct = preds
            .iter()
            .filter(|p| Some(p.class) == corpus.files[0].cell_labels[p.row][p.col])
            .count();
        assert!(correct * 10 >= preds.len() * 9, "{correct}/{}", preds.len());
        // Column predictions are well-formed.
        let cols = model.column_model().predict(&corpus.files[0].table);
        assert_eq!(cols.len(), 3);
    }

    #[test]
    fn empty_table_column_features() {
        let t = Table::from_rows(Vec::<Vec<String>>::new());
        assert!(extract_column_features(&t, &DerivedConfig::default()).is_empty());
    }
}
