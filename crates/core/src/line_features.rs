//! Line-classification features (Table 1, Section 4).
//!
//! Each line of a verbose CSV file is described by 14 local features in
//! three groups:
//!
//! - **content** — `EmptyCellRatio`, `DiscountedCumulativeGain`,
//!   `AggregationWord`, `WordAmount`, `NumericalCellRatio`,
//!   `StringCellRatio`, `LinePosition`;
//! - **contextual** — `DataTypeMatching`, `EmptyNeighboringLines`,
//!   `CellLengthDifference`, each computed twice (against the closest
//!   non-empty line above and below);
//! - **computational** — `DerivedCoverage`, the fraction of the line's
//!   numeric cells recognised by the derived-cell detector (Algorithm 2).
//!
//! The optional *global* features (file emptiness, width, length, empty
//! blocks) that the paper tested and found unhelpful are available behind
//! [`LineFeatureConfig::include_global`] so the ablation experiment can
//! reproduce that finding.

use crate::analysis::TableAnalysis;
use crate::derived::{derived_coverage_per_line_view, DerivedConfig};
use crate::keywords::has_aggregation_keyword;
use strudel_table::{CellView, DataType, GridView, Table};

/// Names of the 14 local line features, in vector order.
pub const LINE_FEATURE_NAMES: [&str; 14] = [
    "EmptyCellRatio",
    "DiscountedCumulativeGain",
    "AggregationWord",
    "WordAmount",
    "NumericalCellRatio",
    "StringCellRatio",
    "LinePosition",
    "DataTypeMatchingAbove",
    "DataTypeMatchingBelow",
    "EmptyNeighboringLinesAbove",
    "EmptyNeighboringLinesBelow",
    "CellLengthDifferenceAbove",
    "CellLengthDifferenceBelow",
    "DerivedCoverage",
];

/// Names of the global features appended when
/// [`LineFeatureConfig::include_global`] is set. The paper reports these
/// had no positive impact (Section 4); the ablation bench verifies that.
pub const GLOBAL_FEATURE_NAMES: [&str; 4] = [
    "FileEmptyLineRatio",
    "FileWidth",
    "FileLength",
    "FileEmptyLineBlocks",
];

/// Configuration of the line feature extractor.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineFeatureConfig {
    /// Parameters of the derived-cell detector feeding `DerivedCoverage`.
    pub derived: DerivedConfig,
    /// Append the four global (whole-file) features.
    pub include_global: bool,
}

impl LineFeatureConfig {
    /// Number of features produced per line under this configuration.
    pub fn n_features(&self) -> usize {
        LINE_FEATURE_NAMES.len()
            + if self.include_global {
                GLOBAL_FEATURE_NAMES.len()
            } else {
                0
            }
    }

    /// Feature names in vector order under this configuration.
    pub fn feature_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = LINE_FEATURE_NAMES.to_vec();
        if self.include_global {
            names.extend(GLOBAL_FEATURE_NAMES);
        }
        names
    }
}

/// Number of neighbouring lines inspected by `EmptyNeighboringLines`.
const NEIGHBOUR_WINDOW: usize = 5;

/// Extract one feature row per table line (empty lines included — callers
/// classify only non-empty lines but indices stay aligned with rows).
pub fn extract_line_features(table: &Table, config: &LineFeatureConfig) -> Vec<Vec<f64>> {
    let analysis = TableAnalysis::compute(table, config.derived);
    extract_line_features_view(table.view(), config, &analysis)
}

/// [`extract_line_features`] over any cell grid, reusing a precomputed
/// [`TableAnalysis`] so one derived-cell detection per file serves the
/// line, cell, and column extractors (the mask is recomputed if
/// `analysis` was built for a different [`DerivedConfig`]). Owned
/// tables (training, compatibility API) and the borrowed grids of the
/// zero-copy detection path produce byte-identical feature matrices.
pub fn extract_line_features_view<C: CellView>(
    table: GridView<'_, C>,
    config: &LineFeatureConfig,
    analysis: &TableAnalysis,
) -> Vec<Vec<f64>> {
    let n_rows = table.n_rows();
    if n_rows == 0 {
        return Vec::new();
    }
    let n_cols = table.n_cols();

    let derived = analysis.derived_for_view(table, &config.derived);
    let derived_cov = derived_coverage_per_line_view(table, &derived);

    // WordAmount is min–max normalised per file over non-empty lines.
    let word_counts: Vec<f64> = (0..n_rows)
        .map(|r| table.row(r).map(|c| c.word_count()).sum::<usize>() as f64)
        .collect();
    let (wc_min, wc_max) = word_counts
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let wc_span = (wc_max - wc_min).max(f64::EPSILON);

    let global = if config.include_global {
        Some(global_features(table))
    } else {
        None
    };

    (0..n_rows)
        .map(|r| {
            let mut f = Vec::with_capacity(config.n_features());

            // --- content features ---
            let empty = table.row(r).filter(|c| c.is_empty()).count() as f64;
            f.push(empty / n_cols.max(1) as f64); // EmptyCellRatio
            f.push(dcg(table, r)); // DiscountedCumulativeGain
            let has_kw = table
                .row(r)
                .any(|c| !c.is_empty() && has_aggregation_keyword(c.raw()));
            f.push(f64::from(has_kw)); // AggregationWord
            f.push((word_counts[r] - wc_min) / wc_span); // WordAmount
            let numeric = table.row(r).filter(|c| c.dtype().is_numeric()).count() as f64;
            f.push(numeric / n_cols.max(1) as f64); // NumericalCellRatio
            let strings = table.row(r).filter(|c| c.dtype() == DataType::Str).count() as f64;
            f.push(strings / n_cols.max(1) as f64); // StringCellRatio
            f.push(r as f64 / (n_rows - 1).max(1) as f64); // LinePosition

            // --- contextual features (closest non-empty line above/below) ---
            let above = table.prev_non_empty_row(r);
            let below = table.next_non_empty_row(r);
            f.push(data_type_matching(table, r, above)); // DataTypeMatchingAbove
            f.push(data_type_matching(table, r, below)); // DataTypeMatchingBelow
            f.push(empty_neighbouring(table, r, Direction::Above)); // EmptyNeighboringLinesAbove
            f.push(empty_neighbouring(table, r, Direction::Below)); // EmptyNeighboringLinesBelow
            f.push(cell_length_difference(table, r, above)); // CellLengthDifferenceAbove
            f.push(cell_length_difference(table, r, below)); // CellLengthDifferenceBelow

            // --- computational feature ---
            f.push(derived_cov[r]); // DerivedCoverage

            if let Some(g) = &global {
                f.extend_from_slice(g);
            }
            f
        })
        .collect()
}

/// Discounted cumulative gain over the non-emptiness vector of a line,
/// normalised by the ideal DCG (all cells non-empty). Left-more positions
/// weigh more, modelling users laying out content left to right.
fn dcg<C: CellView>(table: GridView<'_, C>, row: usize) -> f64 {
    let mut gain = 0.0;
    let mut ideal = 0.0;
    for (i, cell) in table.row(row).enumerate() {
        let discount = 1.0 / ((i + 2) as f64).log2();
        ideal += discount;
        if !cell.is_empty() {
            gain += discount;
        }
    }
    if ideal == 0.0 {
        0.0
    } else {
        gain / ideal
    }
}

/// Percentage of cells whose data type matches the same column of the
/// adjacent (closest non-empty) line; 0 when no such line exists.
fn data_type_matching<C: CellView>(
    table: GridView<'_, C>,
    row: usize,
    other: Option<usize>,
) -> f64 {
    let Some(other) = other else { return 0.0 };
    let n_cols = table.n_cols();
    if n_cols == 0 {
        return 0.0;
    }
    let matches = (0..n_cols)
        .filter(|&c| table.cell(row, c).dtype() == table.cell(other, c).dtype())
        .count();
    matches as f64 / n_cols as f64
}

enum Direction {
    Above,
    Below,
}

/// Fraction of empty lines among the five lines above/below; positions
/// beyond the file boundary count as empty (the file margin is blank).
fn empty_neighbouring<C: CellView>(
    table: GridView<'_, C>,
    row: usize,
    direction: Direction,
) -> f64 {
    let mut empty = 0usize;
    for step in 1..=NEIGHBOUR_WINDOW {
        let r = match direction {
            Direction::Above => row as isize - step as isize,
            Direction::Below => row as isize + step as isize,
        };
        if r < 0 || r as usize >= table.n_rows() || table.row_is_empty(r as usize) {
            empty += 1;
        }
    }
    empty as f64 / NEIGHBOUR_WINDOW as f64
}

/// Histogram bins for cell value lengths (log-ish spacing). Bins are wide
/// enough that same-domain values of slightly different widths ("80" vs
/// "120", "Berlin" vs "Hamburg") share a bin, while prose-length values
/// land far away.
const LENGTH_BINS: [usize; 6] = [0, 1, 4, 8, 16, 32];

fn length_bin(len: usize) -> usize {
    LENGTH_BINS.iter().rposition(|&lo| len >= lo).unwrap_or(0)
}

/// Bhattacharyya distance between the cell-length histograms of a line
/// and its closest non-empty neighbour; 1.0 (maximal difference) when no
/// neighbour exists.
fn cell_length_difference<C: CellView>(
    table: GridView<'_, C>,
    row: usize,
    other: Option<usize>,
) -> f64 {
    let Some(other) = other else { return 1.0 };
    let hist = |r: usize| {
        let mut h = [0.0f64; LENGTH_BINS.len()];
        let mut n = 0.0;
        for cell in table.row(r) {
            h[length_bin(cell.len())] += 1.0;
            n += 1.0;
        }
        if n > 0.0 {
            for v in &mut h {
                *v /= n;
            }
        }
        h
    };
    let (p, q) = (hist(row), hist(other));
    let bc: f64 = p
        .iter()
        .zip(&q)
        .map(|(&a, &b)| (a * b).sqrt())
        .sum::<f64>()
        .min(1.0);
    (1.0 - bc).sqrt()
}

/// The four global features of the paper's negative ablation: empty-line
/// ratio, width, length, and count of empty-line blocks (each scaled to a
/// comparable range).
fn global_features<C: CellView>(table: GridView<'_, C>) -> Vec<f64> {
    let n_rows = table.n_rows();
    let empty_lines = (0..n_rows).filter(|&r| table.row_is_empty(r)).count();
    let mut blocks = 0usize;
    let mut in_block = false;
    for r in 0..n_rows {
        if table.row_is_empty(r) {
            if !in_block {
                blocks += 1;
                in_block = true;
            }
        } else {
            in_block = false;
        }
    }
    vec![
        empty_lines as f64 / n_rows.max(1) as f64,
        (table.n_cols() as f64).ln_1p(),
        (n_rows as f64).ln_1p(),
        blocks as f64,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(name: &str) -> usize {
        LINE_FEATURE_NAMES.iter().position(|&n| n == name).unwrap()
    }

    fn sample() -> Table {
        Table::from_rows(vec![
            vec!["Crime report 2020", "", ""],
            vec!["", "", ""],
            vec!["State", "2019", "2020"],
            vec!["Berlin", "100", "120"],
            vec!["Hamburg", "80", "85"],
            vec!["Total", "180", "205"],
        ])
    }

    #[test]
    fn feature_count_matches_names() {
        let config = LineFeatureConfig::default();
        let feats = extract_line_features(&sample(), &config);
        assert_eq!(feats.len(), 6);
        assert!(feats.iter().all(|f| f.len() == config.n_features()));
        assert_eq!(config.n_features(), 14);
    }

    #[test]
    fn global_features_appended_when_enabled() {
        let config = LineFeatureConfig {
            include_global: true,
            ..LineFeatureConfig::default()
        };
        let feats = extract_line_features(&sample(), &config);
        assert_eq!(feats[0].len(), 18);
        assert_eq!(config.feature_names().len(), 18);
        // FileEmptyLineRatio: 1 of 6 lines empty.
        assert!((feats[0][14] - 1.0 / 6.0).abs() < 1e-12);
        // One empty-line block.
        assert_eq!(feats[0][17], 1.0);
    }

    #[test]
    fn empty_cell_ratio() {
        let feats = extract_line_features(&sample(), &LineFeatureConfig::default());
        assert!((feats[0][idx("EmptyCellRatio")] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(feats[3][idx("EmptyCellRatio")], 0.0);
        assert_eq!(feats[1][idx("EmptyCellRatio")], 1.0);
    }

    #[test]
    fn dcg_weighs_left_positions_higher() {
        let left = Table::from_rows(vec![vec!["x", "", ""]]);
        let right = Table::from_rows(vec![vec!["", "", "x"]]);
        let fl = extract_line_features(&left, &LineFeatureConfig::default());
        let fr = extract_line_features(&right, &LineFeatureConfig::default());
        let i = idx("DiscountedCumulativeGain");
        assert!(fl[0][i] > fr[0][i]);
    }

    #[test]
    fn dcg_full_line_is_one() {
        let t = Table::from_rows(vec![vec!["a", "b", "c"]]);
        let f = extract_line_features(&t, &LineFeatureConfig::default());
        assert!((f[0][idx("DiscountedCumulativeGain")] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggregation_word_flag() {
        let feats = extract_line_features(&sample(), &LineFeatureConfig::default());
        let i = idx("AggregationWord");
        assert_eq!(feats[5][i], 1.0); // "Total" line
        assert_eq!(feats[3][i], 0.0);
    }

    #[test]
    fn word_amount_is_minmax_normalised() {
        let feats = extract_line_features(&sample(), &LineFeatureConfig::default());
        let i = idx("WordAmount");
        assert_eq!(feats[1][i], 0.0); // empty line: fewest words
        assert!(feats.iter().all(|f| (0.0..=1.0).contains(&f[i])));
        assert!(feats.iter().any(|f| (f[i] - 1.0).abs() < 1e-12));
    }

    #[test]
    fn numerical_and_string_ratios() {
        let feats = extract_line_features(&sample(), &LineFeatureConfig::default());
        assert!((feats[3][idx("NumericalCellRatio")] - 2.0 / 3.0).abs() < 1e-12);
        assert!((feats[3][idx("StringCellRatio")] - 1.0 / 3.0).abs() < 1e-12);
        // Header line: 2019/2020 parse as ints.
        assert!((feats[2][idx("NumericalCellRatio")] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn line_position_spans_unit_interval() {
        let feats = extract_line_features(&sample(), &LineFeatureConfig::default());
        let i = idx("LinePosition");
        assert_eq!(feats[0][i], 0.0);
        assert_eq!(feats[5][i], 1.0);
    }

    #[test]
    fn data_type_matching_skips_empty_lines() {
        let feats = extract_line_features(&sample(), &LineFeatureConfig::default());
        // Row 2 (header) vs closest non-empty above = row 0 (metadata):
        // col0 Str==Str, col1 Int vs Empty, col2 Int vs Empty → 1/3.
        assert!((feats[2][idx("DataTypeMatchingAbove")] - 1.0 / 3.0).abs() < 1e-12);
        // Data rows 3 and 4 match fully.
        assert!((feats[4][idx("DataTypeMatchingAbove")] - 1.0).abs() < 1e-12);
        // Top line has no line above.
        assert_eq!(feats[0][idx("DataTypeMatchingAbove")], 0.0);
    }

    #[test]
    fn empty_neighbouring_counts_margins_as_empty() {
        let feats = extract_line_features(&sample(), &LineFeatureConfig::default());
        let above = idx("EmptyNeighboringLinesAbove");
        // Row 0: all five "lines above" are beyond the margin.
        assert_eq!(feats[0][above], 1.0);
        // Row 3: above are rows 2 (full), 1 (empty), 0 (full), -1, -2.
        assert!((feats[3][above] - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn cell_length_difference_low_for_similar_lines() {
        let feats = extract_line_features(&sample(), &LineFeatureConfig::default());
        let i = idx("CellLengthDifferenceAbove");
        // Data row 4 vs data row 3: similar lengths → small distance.
        assert!(feats[4][i] < 0.5);
        // Top row has no neighbour above → maximal difference.
        assert_eq!(feats[0][i], 1.0);
    }

    #[test]
    fn derived_coverage_marks_total_line() {
        let feats = extract_line_features(&sample(), &LineFeatureConfig::default());
        let i = idx("DerivedCoverage");
        assert!((feats[5][i] - 1.0).abs() < 1e-12);
        assert_eq!(feats[3][i], 0.0);
    }

    #[test]
    fn empty_table_yields_no_features() {
        let t = Table::from_rows(Vec::<Vec<String>>::new());
        assert!(extract_line_features(&t, &LineFeatureConfig::default()).is_empty());
    }

    #[test]
    fn all_features_in_unit_range() {
        let feats = extract_line_features(&sample(), &LineFeatureConfig::default());
        for row in &feats {
            for (j, &v) in row.iter().enumerate() {
                assert!(
                    (0.0..=1.0).contains(&v),
                    "feature {} = {v} out of range",
                    LINE_FEATURE_NAMES[j]
                );
            }
        }
    }

    #[test]
    fn length_bins_are_monotone() {
        assert_eq!(length_bin(0), 0);
        assert_eq!(length_bin(1), 1);
        assert_eq!(length_bin(3), 1);
        assert_eq!(length_bin(4), 2);
        assert_eq!(length_bin(100), LENGTH_BINS.len() - 1);
    }
}
