//! `Line^C`: the line-extension cell baseline (Section 6.1.2).
//!
//! Most lines of a verbose CSV file are homogeneous (Table 3), so simply
//! extending the predicted class of a line to every non-empty cell in it
//! is a strong baseline — and exactly what this model does on top of a
//! fitted `Strudel^L`. Its characteristic failure, which the paper's
//! analysis highlights, is the minority cell inside a heterogeneous line:
//! the leading `group` cell of a `derived` line, or the few `derived`
//! cells of a derived *column* sitting inside `data` lines.

use crate::analysis::TableAnalysis;
use crate::cell_classifier::CellPrediction;
use crate::line_classifier::{line_classes, StrudelLine, StrudelLineConfig};
use strudel_table::{LabeledFile, Table};

/// The `Line^C` baseline: a fitted `Strudel^L` whose line predictions are
/// broadcast to cells.
pub struct LineCell {
    line_model: StrudelLine,
}

impl LineCell {
    /// Fit the underlying `Strudel^L` model.
    pub fn fit(files: &[LabeledFile], config: &StrudelLineConfig) -> LineCell {
        LineCell {
            line_model: StrudelLine::fit(files, config),
        }
    }

    /// Wrap an existing line model.
    pub fn from_line_model(line_model: StrudelLine) -> LineCell {
        LineCell { line_model }
    }

    /// Classify every non-empty cell by its line's predicted class.
    pub fn predict(&self, table: &Table) -> Vec<CellPrediction> {
        let grid = table.view();
        let analysis = TableAnalysis::compute(table, self.line_model.feature_config().derived);
        let probs = self.line_model.predict_probs_view(grid, &analysis, 0);
        let lines = line_classes(grid, &probs);
        let mut out = Vec::new();
        for r in 0..table.n_rows() {
            let Some(class) = lines[r] else { continue };
            for c in 0..table.n_cols() {
                if !table.cell(r, c).is_empty() {
                    out.push(CellPrediction {
                        row: r,
                        col: c,
                        class,
                        probs: probs[r].clone(),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_classifier::tests::tiny_corpus;
    use strudel_ml::ForestConfig;
    use strudel_table::ElementClass;

    #[test]
    fn broadcasts_line_class_to_cells() {
        let corpus = tiny_corpus(8);
        let config = StrudelLineConfig {
            forest: ForestConfig::fast(15, 5),
            ..StrudelLineConfig::default()
        };
        let model = LineCell::fit(&corpus.files, &config);
        let probe = &corpus.files[0];
        let preds = model.predict(&probe.table);
        assert_eq!(preds.len(), probe.non_empty_cell_count());
        // The characteristic Line^C failure: the Group cell leading the
        // Derived line is predicted Derived (its line's class).
        let group_cell = preds.iter().find(|p| p.row == 4 && p.col == 0).unwrap();
        assert_eq!(group_cell.class, ElementClass::Derived);
        assert_eq!(probe.cell_labels[4][0], Some(ElementClass::Group));
    }
}
