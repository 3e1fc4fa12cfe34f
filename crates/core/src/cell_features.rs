//! Cell-classification features (Table 2, Section 5).
//!
//! Each *non-empty* cell is described by 37 features in three groups:
//!
//! - **content** — `ValueLength`, `DataType`, `HasDerivedKeywords`,
//!   `Row/ColumnHasDerivedKeywords`, `Row/ColumnPosition`, and the
//!   six-dimensional `LineClassProbability` produced by a prior
//!   `Strudel^L` run (Section 5.4);
//! - **contextual** — emptiness of the adjacent row/column, row/column
//!   empty-cell ratios, `BlockSize` (Algorithm 1), and the *neighbour
//!   profile* (Section 5.3): value length and data type of each of the
//!   eight surrounding cells, with `-1` for positions beyond the margin;
//! - **computational** — `IsAggregation` from the derived-cell detector
//!   (Algorithm 2).

use crate::analysis::TableAnalysis;
use crate::block::block_sizes_view;
use crate::derived::DerivedConfig;
use crate::keywords::has_aggregation_keyword;
use strudel_table::{CellView, ElementClass, GridView, Table};

/// Names of the 37 cell features, in vector order.
pub const CELL_FEATURE_NAMES: [&str; 37] = [
    "ValueLength",
    "DataType",
    "HasDerivedKeywords",
    "RowHasDerivedKeywords",
    "ColumnHasDerivedKeywords",
    "RowPosition",
    "ColumnPosition",
    "LineProbMetadata",
    "LineProbHeader",
    "LineProbGroup",
    "LineProbData",
    "LineProbDerived",
    "LineProbNotes",
    "IsEmptyRowBefore",
    "IsEmptyRowAfter",
    "IsEmptyColumnLeft",
    "IsEmptyColumnRight",
    "RowEmptyCellRatio",
    "ColumnEmptyCellRatio",
    "BlockSize",
    "NeighborValueLengthN",
    "NeighborValueLengthNE",
    "NeighborValueLengthE",
    "NeighborValueLengthSE",
    "NeighborValueLengthS",
    "NeighborValueLengthSW",
    "NeighborValueLengthW",
    "NeighborValueLengthNW",
    "NeighborDataTypeN",
    "NeighborDataTypeNE",
    "NeighborDataTypeE",
    "NeighborDataTypeSE",
    "NeighborDataTypeS",
    "NeighborDataTypeSW",
    "NeighborDataTypeW",
    "NeighborDataTypeNW",
    "IsAggregation",
];

/// Number of cell features.
pub const N_CELL_FEATURES: usize = CELL_FEATURE_NAMES.len();

/// The eight neighbour offsets of the neighbour profile, in
/// N, NE, E, SE, S, SW, W, NW order.
const NEIGHBOUR_OFFSETS: [(isize, isize); 8] = [
    (-1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, -1),
];

/// Configuration of the cell feature extractor.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellFeatureConfig {
    /// Parameters of the derived-cell detector feeding `IsAggregation`.
    pub derived: DerivedConfig,
}

/// Feature vector plus position for one non-empty cell.
#[derive(Debug, Clone)]
pub struct CellFeatures {
    /// Row of the cell.
    pub row: usize,
    /// Column of the cell.
    pub col: usize,
    /// The 37-dimensional feature vector.
    pub features: Vec<f64>,
}

/// Extract features for every non-empty cell of a table.
///
/// `line_probs[r]` is the `Strudel^L` class-probability vector of row `r`
/// ([`ElementClass::COUNT`] entries); empty rows may carry any vector
/// (typically uniform) — they only feed the feature and are never
/// classified themselves.
///
/// # Panics
/// Panics when `line_probs` does not have one entry of length
/// [`ElementClass::COUNT`] per table row.
pub fn extract_cell_features(
    table: &Table,
    line_probs: &[Vec<f64>],
    config: &CellFeatureConfig,
) -> Vec<CellFeatures> {
    let analysis = TableAnalysis::compute(table, config.derived);
    extract_cell_features_view(table.view(), line_probs, config, &analysis)
}

/// [`extract_cell_features`] over any cell grid, reusing a precomputed
/// [`TableAnalysis`] so one derived-cell detection per file serves the
/// line, cell, and column extractors (the mask is recomputed if
/// `analysis` was built for a different [`DerivedConfig`]). Owned
/// tables (training, compatibility API) and the borrowed grids of the
/// zero-copy detection path produce byte-identical feature vectors.
///
/// # Panics
/// Panics when `line_probs` does not have one entry of length
/// [`ElementClass::COUNT`] per table row.
pub fn extract_cell_features_view<C: CellView>(
    table: GridView<'_, C>,
    line_probs: &[Vec<f64>],
    config: &CellFeatureConfig,
    analysis: &TableAnalysis,
) -> Vec<CellFeatures> {
    let (n_rows, n_cols) = (table.n_rows(), table.n_cols());
    assert_eq!(line_probs.len(), n_rows, "one probability vector per row");
    assert!(
        line_probs.iter().all(|p| p.len() == ElementClass::COUNT),
        "probability vectors must have {} entries",
        ElementClass::COUNT
    );
    if n_rows == 0 || n_cols == 0 {
        return Vec::new();
    }

    let blocks = block_sizes_view(table);
    let derived = analysis.derived_for_view(table, &config.derived);

    // ValueLength is min–max normalised per file over non-empty cells.
    let mut len_min = f64::INFINITY;
    let mut len_max = f64::NEG_INFINITY;
    for r in 0..n_rows {
        for cell in table.row(r) {
            if !cell.is_empty() {
                let l = cell.len() as f64;
                len_min = len_min.min(l);
                len_max = len_max.max(l);
            }
        }
    }
    if !len_min.is_finite() {
        return Vec::new(); // all cells empty
    }
    let len_span = (len_max - len_min).max(f64::EPSILON);
    let norm_len = |l: f64| (l - len_min) / len_span;

    // Row/column keyword flags and empty-cell ratios.
    let row_kw: Vec<f64> = (0..n_rows)
        .map(|r| {
            f64::from(
                table
                    .row(r)
                    .any(|c| !c.is_empty() && has_aggregation_keyword(c.raw())),
            )
        })
        .collect();
    let col_kw: Vec<f64> = (0..n_cols)
        .map(|c| {
            f64::from(
                table
                    .column(c)
                    .any(|cell| !cell.is_empty() && has_aggregation_keyword(cell.raw())),
            )
        })
        .collect();
    let row_empty_ratio: Vec<f64> = (0..n_rows)
        .map(|r| table.row(r).filter(|c| c.is_empty()).count() as f64 / n_cols as f64)
        .collect();
    let col_empty_ratio: Vec<f64> = (0..n_cols)
        .map(|c| table.column(c).filter(|cell| cell.is_empty()).count() as f64 / n_rows as f64)
        .collect();
    let row_all_empty: Vec<bool> = (0..n_rows).map(|r| table.row_is_empty(r)).collect();
    let col_all_empty: Vec<bool> = (0..n_cols).map(|c| table.col_is_empty(c)).collect();

    let mut out = Vec::with_capacity(table.non_empty_count());
    for r in 0..n_rows {
        for c in 0..n_cols {
            let cell = table.cell(r, c);
            if cell.is_empty() {
                continue;
            }
            let mut f = Vec::with_capacity(N_CELL_FEATURES);

            // --- content ---
            f.push(norm_len(cell.len() as f64)); // ValueLength
            f.push(cell.dtype().code()); // DataType
            f.push(f64::from(has_aggregation_keyword(cell.raw()))); // HasDerivedKeywords
            f.push(row_kw[r]); // RowHasDerivedKeywords
            f.push(col_kw[c]); // ColumnHasDerivedKeywords
            f.push(r as f64 / (n_rows - 1).max(1) as f64); // RowPosition
            f.push(c as f64 / (n_cols - 1).max(1) as f64); // ColumnPosition
            f.extend_from_slice(&line_probs[r]); // LineClassProbability (6)

            // --- contextual ---
            // Rows/columns beyond the margin count as empty.
            f.push(f64::from(r == 0 || row_all_empty[r - 1])); // IsEmptyRowBefore
            f.push(f64::from(r + 1 >= n_rows || row_all_empty[r + 1])); // IsEmptyRowAfter
            f.push(f64::from(c == 0 || col_all_empty[c - 1])); // IsEmptyColumnLeft
            f.push(f64::from(c + 1 >= n_cols || col_all_empty[c + 1])); // IsEmptyColumnRight
            f.push(row_empty_ratio[r]); // RowEmptyCellRatio
            f.push(col_empty_ratio[c]); // ColumnEmptyCellRatio
            f.push(blocks[r][c]); // BlockSize

            // Neighbour profile: value lengths then data types, -1 beyond
            // the margin (Section 5.3).
            for &(dr, dc) in &NEIGHBOUR_OFFSETS {
                match table.get(r as isize + dr, c as isize + dc) {
                    Some(n) => f.push(norm_len(n.len() as f64)),
                    None => f.push(-1.0),
                }
            }
            for &(dr, dc) in &NEIGHBOUR_OFFSETS {
                match table.get(r as isize + dr, c as isize + dc) {
                    Some(n) => f.push(n.dtype().code()),
                    None => f.push(-1.0),
                }
            }

            // --- computational ---
            f.push(f64::from(derived[r][c])); // IsAggregation

            debug_assert_eq!(f.len(), N_CELL_FEATURES);
            out.push(CellFeatures {
                row: r,
                col: c,
                features: f,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(name: &str) -> usize {
        CELL_FEATURE_NAMES.iter().position(|&n| n == name).unwrap()
    }

    fn uniform_probs(n_rows: usize) -> Vec<Vec<f64>> {
        vec![vec![1.0 / 6.0; 6]; n_rows]
    }

    fn sample() -> Table {
        Table::from_rows(vec![
            vec!["Report", "", ""],
            vec!["", "", ""],
            vec!["State", "2019", "2020"],
            vec!["Berlin", "100", "120"],
            vec!["Total", "100", "120"],
        ])
    }

    fn features_at(feats: &[CellFeatures], row: usize, col: usize) -> &CellFeatures {
        feats
            .iter()
            .find(|f| f.row == row && f.col == col)
            .expect("cell present")
    }

    #[test]
    fn only_non_empty_cells_get_features() {
        let t = sample();
        let feats = extract_cell_features(&t, &uniform_probs(5), &CellFeatureConfig::default());
        assert_eq!(feats.len(), t.non_empty_count());
        assert!(feats.iter().all(|f| f.features.len() == N_CELL_FEATURES));
    }

    #[test]
    fn datatype_codes() {
        let t = sample();
        let feats = extract_cell_features(&t, &uniform_probs(5), &CellFeatureConfig::default());
        assert_eq!(features_at(&feats, 2, 0).features[idx("DataType")], 2.0); // string
        assert_eq!(features_at(&feats, 3, 1).features[idx("DataType")], 0.0); // int
    }

    #[test]
    fn keyword_flags_propagate_to_row_and_column() {
        let t = sample();
        let feats = extract_cell_features(&t, &uniform_probs(5), &CellFeatureConfig::default());
        let total_row_num = features_at(&feats, 4, 1);
        assert_eq!(total_row_num.features[idx("HasDerivedKeywords")], 0.0);
        assert_eq!(total_row_num.features[idx("RowHasDerivedKeywords")], 1.0);
        // Column 0 contains "Total".
        let header = features_at(&feats, 2, 0);
        assert_eq!(header.features[idx("ColumnHasDerivedKeywords")], 1.0);
        let num_col = features_at(&feats, 2, 1);
        assert_eq!(num_col.features[idx("ColumnHasDerivedKeywords")], 0.0);
    }

    #[test]
    fn positions_span_unit_interval() {
        let t = sample();
        let feats = extract_cell_features(&t, &uniform_probs(5), &CellFeatureConfig::default());
        assert_eq!(features_at(&feats, 0, 0).features[idx("RowPosition")], 0.0);
        assert_eq!(features_at(&feats, 4, 2).features[idx("RowPosition")], 1.0);
        assert_eq!(
            features_at(&feats, 4, 2).features[idx("ColumnPosition")],
            1.0
        );
    }

    #[test]
    fn line_probs_are_embedded() {
        let t = Table::from_rows(vec![vec!["a"]]);
        let mut probs = uniform_probs(1);
        probs[0] = vec![0.5, 0.1, 0.1, 0.1, 0.1, 0.1];
        let feats = extract_cell_features(&t, &probs, &CellFeatureConfig::default());
        assert_eq!(feats[0].features[idx("LineProbMetadata")], 0.5);
        assert_eq!(feats[0].features[idx("LineProbNotes")], 0.1);
    }

    #[test]
    fn empty_row_flags_count_margins_as_empty() {
        let t = sample();
        let feats = extract_cell_features(&t, &uniform_probs(5), &CellFeatureConfig::default());
        let top = features_at(&feats, 0, 0);
        assert_eq!(top.features[idx("IsEmptyRowBefore")], 1.0); // margin
        assert_eq!(top.features[idx("IsEmptyRowAfter")], 1.0); // blank row 1
        let header = features_at(&feats, 2, 0);
        assert_eq!(header.features[idx("IsEmptyRowBefore")], 1.0);
        assert_eq!(header.features[idx("IsEmptyRowAfter")], 0.0);
        assert_eq!(header.features[idx("IsEmptyColumnLeft")], 1.0); // margin
        assert_eq!(header.features[idx("IsEmptyColumnRight")], 0.0);
    }

    #[test]
    fn neighbour_profile_uses_margin_sentinel() {
        let t = Table::from_rows(vec![vec!["ab", "c"], vec!["d", "e"]]);
        let feats = extract_cell_features(&t, &uniform_probs(2), &CellFeatureConfig::default());
        let tl = features_at(&feats, 0, 0);
        // North neighbour of (0,0) does not exist.
        assert_eq!(tl.features[idx("NeighborValueLengthN")], -1.0);
        assert_eq!(tl.features[idx("NeighborDataTypeN")], -1.0);
        assert_eq!(tl.features[idx("NeighborDataTypeNW")], -1.0);
        // East neighbour exists: "c" is a string.
        assert_eq!(tl.features[idx("NeighborDataTypeE")], 2.0);
    }

    #[test]
    fn block_size_feature_present() {
        let t = Table::from_rows(vec![vec!["a", "b"], vec!["c", "d"]]);
        let feats = extract_cell_features(&t, &uniform_probs(2), &CellFeatureConfig::default());
        assert_eq!(feats[0].features[idx("BlockSize")], 1.0);
    }

    #[test]
    fn is_aggregation_marks_detected_cells() {
        let t = Table::from_rows(vec![vec!["a", "10"], vec!["b", "20"], vec!["Total", "30"]]);
        let feats = extract_cell_features(&t, &uniform_probs(3), &CellFeatureConfig::default());
        assert_eq!(
            features_at(&feats, 2, 1).features[idx("IsAggregation")],
            1.0
        );
        assert_eq!(
            features_at(&feats, 0, 1).features[idx("IsAggregation")],
            0.0
        );
    }

    #[test]
    fn all_empty_table_yields_nothing() {
        let t = Table::from_rows(vec![vec!["", ""]]);
        let feats = extract_cell_features(&t, &uniform_probs(1), &CellFeatureConfig::default());
        assert!(feats.is_empty());
    }

    #[test]
    #[should_panic(expected = "one probability vector per row")]
    fn mismatched_probs_panic() {
        let t = sample();
        let _ = extract_cell_features(&t, &uniform_probs(2), &CellFeatureConfig::default());
    }
}
