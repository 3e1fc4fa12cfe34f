//! Algorithm 2: derived-cell detection (Section 5.5).
//!
//! A derived cell aggregates the values of other numeric cells in its row
//! or column. The algorithm exploits three observations from the paper:
//! (i) derived cells aggregate within their own row or column, (ii) they
//! aggregate values *close* to them, and (iii) sum and mean dominate as
//! aggregation functions.
//!
//! Candidate rows/columns are *anchored* by cells containing an
//! aggregation keyword (Section 4's dictionary); for each anchor, the
//! algorithm accumulates numeric values row-by-row upwards then downwards
//! (and column-by-column left/right), and whenever the running sum — or
//! the running mean — is element-wise within `delta` of the candidates for
//! more than a `coverage` fraction of them, all numeric cells of the
//! anchored row/column are reported as derived.
//!
//! Each distinct anchor row and column is scanned once per direction,
//! over one dense grid of the table's numbers, however many anchors it
//! holds. Every running aggregate still takes its values in scan order,
//! starting next to the anchor, so the mask equals, bit for bit, that of
//! a scan per anchor cell (the test module keeps that form as the
//! oracle).

use crate::keywords::has_aggregation_keyword;
use strudel_table::{CellView, GridView, Table};

/// Parameters of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedConfig {
    /// Element-wise slack `d` when comparing a candidate with the running
    /// aggregate (the paper sets 0.1, enough to absorb rounded means).
    pub delta: f64,
    /// Fraction `c` of candidates that must match for a detection
    /// (the paper sets 0.5).
    pub coverage: f64,
    /// Also test running minima and maxima — the "recognizing more
    /// aggregation functions" extension the paper's conclusion proposes.
    /// Off by default to match the published algorithm (sum and mean
    /// only); the `ablation_derived_params` experiment measures its
    /// effect.
    pub detect_min_max: bool,
}

impl Default for DerivedConfig {
    fn default() -> Self {
        DerivedConfig {
            delta: 0.1,
            coverage: 0.5,
            detect_min_max: false,
        }
    }
}

/// Detect derived cells; returns an `n_rows × n_cols` boolean grid.
pub fn detect_derived_cells(table: &Table, config: &DerivedConfig) -> Vec<Vec<bool>> {
    detect_derived_cells_view(table.view(), config)
}

/// [`detect_derived_cells`] over any cell grid — owned tables and the
/// borrowed grids of the zero-copy detection path run the same code.
pub fn detect_derived_cells_view<C: CellView>(
    table: GridView<'_, C>,
    config: &DerivedConfig,
) -> Vec<Vec<bool>> {
    derived_mask(table, config, |_, _, _, _| {})
}

/// Which way a scan walks from its anchor line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Direction {
    /// Towards smaller indices (upwards for rows, leftwards for columns).
    Up,
    /// Towards larger indices (downwards / rightwards).
    Down,
}

/// Whether an anchor line is a row (scanned across rows) or a column
/// (scanned across columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Axis {
    Row,
    Col,
}

/// Algorithm 2 proper. `on_scan(axis, anchor line, direction,
/// candidate-steps)` sees every scan with its work: lines stepped times
/// candidates. The public entry point passes a no-op; the work-gate test
/// records them.
fn derived_mask<C: CellView>(
    table: GridView<'_, C>,
    config: &DerivedConfig,
    mut on_scan: impl FnMut(Axis, usize, Direction, usize),
) -> Vec<Vec<bool>> {
    let (rows, cols) = (table.n_rows(), table.n_cols());
    let mut out = vec![vec![false; cols]; rows];

    // Line 2: anchoring cells — any cell containing an aggregation
    // keyword. A line's candidates and scans do not depend on which
    // anchor in it started them, so only the distinct anchor rows and
    // columns are kept.
    let mut anchor_rows = vec![false; rows];
    let mut anchor_cols = vec![false; cols];
    for (r, anchor_row) in anchor_rows.iter_mut().enumerate() {
        for (c, cell) in table.row(r).enumerate() {
            if !cell.is_empty() && has_aggregation_keyword(cell.raw()) {
                *anchor_row = true;
                anchor_cols[c] = true;
            }
        }
    }
    if !anchor_rows.contains(&true) {
        return out;
    }

    let grid = NumericGrid::new(table);
    for r in (0..rows).filter(|&r| anchor_rows[r]) {
        // Candidates in the anchor's row: its numeric cells. Candidate
        // `c` on row `l` sits at `c + l * cols`.
        let candidates: Vec<usize> = (0..cols).filter(|&c| grid.present[r * cols + c]).collect();
        let line = AnchorLine {
            offsets: &candidates,
            stride: cols,
            index: r,
            n_lines: rows,
        };
        if line.detected(&grid, config, |d, work| on_scan(Axis::Row, r, d, work)) {
            for &c in &candidates {
                out[r][c] = true;
            }
        }
    }
    for c in (0..cols).filter(|&c| anchor_cols[c]) {
        // Candidates in the anchor's column: its numeric cells. Candidate
        // row `r` on column `l` sits at `r * cols + l`.
        let candidates: Vec<usize> = (0..rows).filter(|&r| grid.present[r * cols + c]).collect();
        let offsets: Vec<usize> = candidates.iter().map(|&r| r * cols).collect();
        let line = AnchorLine {
            offsets: &offsets,
            stride: 1,
            index: c,
            n_lines: cols,
        };
        if line.detected(&grid, config, |d, work| on_scan(Axis::Col, c, d, work)) {
            for &r in &candidates {
                out[r][c] = true;
            }
        }
    }
    out
}

/// A table's numbers as one dense row-major grid: each numeric cell's
/// value, `+0.0` elsewhere, and which cells are numeric. Adding `+0.0`
/// for a non-numeric cell leaves a running sum unchanged: sums start at
/// `+0.0` and never become `-0.0`.
struct NumericGrid {
    values: Vec<f64>,
    present: Vec<bool>,
}

impl NumericGrid {
    fn new<C: CellView>(table: GridView<'_, C>) -> NumericGrid {
        let mut values = Vec::with_capacity(table.size());
        let mut present = Vec::with_capacity(table.size());
        for r in 0..table.n_rows() {
            for cell in table.row(r) {
                let v = cell.numeric();
                values.push(v.unwrap_or(0.0));
                present.push(v.is_some());
            }
        }
        NumericGrid { values, present }
    }
}

/// One anchor row or column and the lines parallel to it. Candidate `k`
/// sits at `offsets[k] + l * stride` on line `l`; the anchor line is
/// line `index` of `n_lines`.
struct AnchorLine<'a> {
    offsets: &'a [usize],
    stride: usize,
    index: usize,
    n_lines: usize,
}

impl AnchorLine<'_> {
    /// Lines 6–29 for one anchor line: scan up (left), then down
    /// (right), until a running aggregate covers the candidates.
    fn detected(
        &self,
        grid: &NumericGrid,
        config: &DerivedConfig,
        mut on_scan: impl FnMut(Direction, usize),
    ) -> bool {
        if self.offsets.is_empty() {
            return false;
        }
        let targets: Vec<f64> = self
            .offsets
            .iter()
            .map(|&o| grid.values[o + self.index * self.stride])
            .collect();
        let coverage = Coverage::new(&targets, config);
        let (covered, steps) = self.scan(grid, &coverage, config, (0..self.index).rev());
        on_scan(Direction::Up, steps * targets.len());
        if covered {
            return true;
        }
        let (covered, steps) = self.scan(grid, &coverage, config, self.index + 1..self.n_lines);
        on_scan(Direction::Down, steps * targets.len());
        covered
    }

    /// Accumulate line by line, the candidates in the inner loop, and
    /// stop at the first line where the running sum or mean (and, with
    /// the extension, minimum or maximum) covers the candidates. Returns
    /// whether one did and how many lines were stepped.
    fn scan(
        &self,
        grid: &NumericGrid,
        coverage: &Coverage<'_>,
        config: &DerivedConfig,
        lines: impl Iterator<Item = usize>,
    ) -> (bool, usize) {
        let n = self.offsets.len();
        let min_max = config.detect_min_max;
        let mut sums = vec![0.0; n];
        let (mut mins, mut maxs) = if min_max {
            (vec![f64::INFINITY; n], vec![f64::NEG_INFINITY; n])
        } else {
            (Vec::new(), Vec::new())
        };
        let mut steps = 0;
        for l in lines {
            steps += 1;
            let base = l * self.stride;
            for (k, &offset) in self.offsets.iter().enumerate() {
                let at = base + offset;
                let v = grid.values[at];
                sums[k] += v;
                if min_max && grid.present[at] {
                    mins[k] = mins[k].min(v);
                    maxs[k] = maxs[k].max(v);
                }
            }
            // `steps == 1` makes sum == mean; requiring more than one
            // accumulated line for the mean check would reject legitimate
            // two-line tables, so both checks run from the first step.
            // min/max over a single line is the identity — require two
            // lines so plain data rows do not self-match.
            if coverage.by_sum_or_mean(&sums, steps)
                || (min_max && steps >= 2 && (coverage.by(&mins) || coverage.by(&maxs)))
            {
                return (true, steps);
            }
        }
        (false, steps)
    }
}

/// Coverage test of lines 16/27 for one anchor line: the fraction of its
/// candidates element-wise within `delta` of a running aggregate must
/// exceed `coverage`.
struct Coverage<'a> {
    targets: &'a [f64],
    delta: f64,
    /// The fewest close candidates that cover: the least `m` with
    /// `m as f64 / n as f64 > coverage`, or `n + 1` when there is none.
    /// The quotient never falls as `m` grows, so `close >= need` is that
    /// test exactly.
    need: usize,
}

impl Coverage<'_> {
    fn new<'a>(targets: &'a [f64], config: &DerivedConfig) -> Coverage<'a> {
        let n = targets.len();
        let need = (0..=n)
            .find(|&m| m as f64 / n as f64 > config.coverage)
            .unwrap_or(n + 1);
        Coverage {
            targets,
            delta: config.delta,
            need,
        }
    }

    fn near(&self, v: f64, aggregate: f64) -> bool {
        (v - aggregate).abs() < self.delta
    }

    /// Whether the running sums, or the running means, cover. Counting
    /// stops once neither count can reach `need`.
    fn by_sum_or_mean(&self, sums: &[f64], steps: usize) -> bool {
        let (mut by_sum, mut by_mean) = (0, 0);
        for (i, (&v, &sum)) in self.targets.iter().zip(sums).enumerate() {
            by_sum += self.near(v, sum) as usize;
            by_mean += self.near(v, sum / steps as f64) as usize;
            let left = self.targets.len() - i - 1;
            if by_sum + left < self.need && by_mean + left < self.need {
                return false;
            }
        }
        by_sum >= self.need || by_mean >= self.need
    }

    /// Whether the running minima (or maxima) cover.
    fn by(&self, aggregates: &[f64]) -> bool {
        let close = self.targets.iter().zip(aggregates);
        close.filter(|&(&v, &a)| self.near(v, a)).count() >= self.need
    }
}

/// Per-line derived coverage: the fraction of a line's numeric cells that
/// Algorithm 2 recognises as derived (the `DerivedCoverage` line feature).
pub fn derived_coverage_per_line(table: &Table, derived: &[Vec<bool>]) -> Vec<f64> {
    derived_coverage_per_line_view(table.view(), derived)
}

/// [`derived_coverage_per_line`] over any cell grid.
pub fn derived_coverage_per_line_view<C: CellView>(
    table: GridView<'_, C>,
    derived: &[Vec<bool>],
) -> Vec<f64> {
    (0..table.n_rows())
        .map(|r| {
            let mut numeric = 0usize;
            let mut hit = 0usize;
            for (c, &is_derived) in derived[r].iter().enumerate() {
                if table.cell(r, c).dtype().is_numeric() {
                    numeric += 1;
                    if is_derived {
                        hit += 1;
                    }
                }
            }
            if numeric == 0 {
                0.0
            } else {
                hit as f64 / numeric as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{HashMap, HashSet};

    /// The oracle: Algorithm 2 with a row scan and a column scan per
    /// anchor cell, each collecting its whole row or column again, and
    /// coverage tested as `count as f64 / n > coverage`. The production
    /// code must give the same mask, bit for bit.
    mod oracle {
        use crate::derived::DerivedConfig;
        use crate::keywords::has_aggregation_keyword;
        use strudel_table::{CellView, GridView};

        /// [`detect_derived_cells`] over any cell grid — owned tables and the
        /// borrowed grids of the zero-copy detection path run the same code.
        pub fn detect_derived_cells_view<C: CellView>(
            table: GridView<'_, C>,
            config: &DerivedConfig,
        ) -> Vec<Vec<bool>> {
            let (rows, cols) = (table.n_rows(), table.n_cols());
            let mut out = vec![vec![false; cols]; rows];
            if rows == 0 || cols == 0 {
                return out;
            }

            // Line 2: anchoring cells — any cell containing an aggregation keyword.
            let mut anchors: Vec<(usize, usize)> = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    let cell = table.cell(r, c);
                    if !cell.is_empty() && has_aggregation_keyword(cell.raw()) {
                        anchors.push((r, c));
                    }
                }
            }

            for &(ar, ac) in &anchors {
                // Candidates in the anchor's row: numeric cells and their columns.
                let row_candidates: Vec<(usize, f64)> = (0..cols)
                    .filter_map(|c| table.cell(ar, c).numeric().map(|v| (c, v)))
                    .collect();
                if !row_candidates.is_empty() {
                    let detected = scan_rows(table, ar, &row_candidates, config, Direction::Up)
                        || scan_rows(table, ar, &row_candidates, config, Direction::Down);
                    if detected {
                        for &(c, _) in &row_candidates {
                            out[ar][c] = true;
                        }
                    }
                }

                // Candidates in the anchor's column: numeric cells and their rows.
                let col_candidates: Vec<(usize, f64)> = (0..rows)
                    .filter_map(|r| table.cell(r, ac).numeric().map(|v| (r, v)))
                    .collect();
                if !col_candidates.is_empty() {
                    let detected = scan_cols(table, ac, &col_candidates, config, Direction::Up)
                        || scan_cols(table, ac, &col_candidates, config, Direction::Down);
                    if detected {
                        for &(r, _) in &col_candidates {
                            out[r][ac] = true;
                        }
                    }
                }
            }
            out
        }

        #[derive(Clone, Copy, PartialEq)]
        enum Direction {
            /// Towards smaller indices (upwards for rows, leftwards for columns).
            Up,
            /// Towards larger indices (downwards / rightwards).
            Down,
        }

        /// Running aggregates over the scanned prefix: sums always; minima and
        /// maxima when the extension is enabled.
        struct Accumulator {
            sums: Vec<f64>,
            mins: Vec<f64>,
            maxs: Vec<f64>,
            steps: usize,
        }

        impl Accumulator {
            fn new(n: usize) -> Accumulator {
                Accumulator {
                    sums: vec![0.0; n],
                    mins: vec![f64::INFINITY; n],
                    maxs: vec![f64::NEG_INFINITY; n],
                    steps: 0,
                }
            }

            fn push(&mut self, k: usize, v: f64) {
                self.sums[k] += v;
                self.mins[k] = self.mins[k].min(v);
                self.maxs[k] = self.maxs[k].max(v);
            }
        }

        /// Scan rows away from `anchor_row`, accumulating values at the candidate
        /// columns; report whether any enabled aggregate ever covers the
        /// candidates.
        fn scan_rows<C: CellView>(
            table: GridView<'_, C>,
            anchor_row: usize,
            candidates: &[(usize, f64)],
            config: &DerivedConfig,
            direction: Direction,
        ) -> bool {
            let mut acc = Accumulator::new(candidates.len());
            let mut r = anchor_row as isize;
            loop {
                r += match direction {
                    Direction::Up => -1,
                    Direction::Down => 1,
                };
                if r < 0 || r as usize >= table.n_rows() {
                    return false;
                }
                acc.steps += 1;
                for (k, &(c, _)) in candidates.iter().enumerate() {
                    if let Some(v) = table.cell(r as usize, c).numeric() {
                        acc.push(k, v);
                    }
                }
                if covered(candidates, &acc, config) {
                    return true;
                }
            }
        }

        /// Column-direction counterpart of [`scan_rows`].
        fn scan_cols<C: CellView>(
            table: GridView<'_, C>,
            anchor_col: usize,
            candidates: &[(usize, f64)],
            config: &DerivedConfig,
            direction: Direction,
        ) -> bool {
            let mut acc = Accumulator::new(candidates.len());
            let mut c = anchor_col as isize;
            loop {
                c += match direction {
                    Direction::Up => -1,
                    Direction::Down => 1,
                };
                if c < 0 || c as usize >= table.n_cols() {
                    return false;
                }
                acc.steps += 1;
                for (k, &(r, _)) in candidates.iter().enumerate() {
                    if let Some(v) = table.cell(r, c as usize).numeric() {
                        acc.push(k, v);
                    }
                }
                if covered(candidates, &acc, config) {
                    return true;
                }
            }
        }

        /// Coverage test of lines 16/27: the fraction of candidates element-wise
        /// within `delta` of the running sum — or of the running mean (and, with
        /// the extension, min/max) — must exceed `coverage`.
        fn covered(candidates: &[(usize, f64)], acc: &Accumulator, config: &DerivedConfig) -> bool {
            let n = candidates.len() as f64;
            let close = |aggregate: &dyn Fn(usize) -> f64| {
                candidates
                    .iter()
                    .enumerate()
                    .filter(|(k, (_, v))| (v - aggregate(*k)).abs() < config.delta)
                    .count() as f64
                    / n
            };
            // `steps == 1` makes sum == mean; requiring more than one accumulated
            // line for the mean check would reject legitimate two-line tables, so
            // both checks run from the first step.
            if close(&|k| acc.sums[k]) > config.coverage
                || close(&|k| acc.sums[k] / acc.steps as f64) > config.coverage
            {
                return true;
            }
            if config.detect_min_max && acc.steps >= 2 {
                // min/max over a single line is the identity — require two lines
                // so plain data rows do not self-match.
                if close(&|k| acc.mins[k]) > config.coverage
                    || close(&|k| acc.maxs[k]) > config.coverage
                {
                    return true;
                }
            }
            false
        }
    }

    fn detect(rows: Vec<Vec<&str>>) -> Vec<Vec<bool>> {
        detect_derived_cells(&Table::from_rows(rows), &DerivedConfig::default())
    }

    #[test]
    fn sum_row_below_data_is_detected() {
        let grid = detect(vec![
            vec!["Region", "2019", "2020"],
            vec!["North", "10", "20"],
            vec!["South", "30", "40"],
            vec!["Total", "40", "60"],
        ]);
        assert!(grid[3][1]);
        assert!(grid[3][2]);
        assert!(!grid[1][1]);
        assert!(!grid[2][2]);
    }

    #[test]
    fn mean_row_is_detected() {
        let grid = detect(vec![
            vec!["North", "10", "20"],
            vec!["South", "30", "40"],
            vec!["Average", "20", "30"],
        ]);
        assert!(grid[2][1]);
        assert!(grid[2][2]);
    }

    #[test]
    fn sum_column_right_of_data_is_detected() {
        let grid = detect(vec![
            vec!["Region", "A", "B", "Total"],
            vec!["North", "1", "2", "3"],
            vec!["South", "4", "5", "9"],
        ]);
        assert!(grid[1][3]);
        assert!(grid[2][3]);
        assert!(!grid[1][1]);
    }

    #[test]
    fn no_keyword_means_no_candidates() {
        // The 40/60 line is a genuine sum but has no anchoring keyword —
        // the paper's error analysis (derived-as-data) hinges on this.
        let grid = detect(vec![
            vec!["North", "10", "20"],
            vec!["South", "30", "40"],
            vec!["Everything", "40", "60"],
        ]);
        assert!(grid.iter().all(|row| row.iter().all(|&v| !v)));
    }

    #[test]
    fn wrong_sums_are_not_detected() {
        let grid = detect(vec![
            vec!["North", "10", "20"],
            vec!["South", "30", "40"],
            vec!["Total", "99", "99"],
        ]);
        assert!(!grid[2][1]);
        assert!(!grid[2][2]);
    }

    #[test]
    fn coverage_threshold_allows_partial_match() {
        // 2 of 3 candidates match (66% > 50%): all three cells in the
        // anchored line are marked, matching the algorithm's
        // "C_D ← C_D ∪ C_R" semantics.
        let grid = detect(vec![
            vec!["North", "10", "20", "1"],
            vec!["South", "30", "40", "2"],
            vec!["Total", "40", "60", "999"],
        ]);
        assert!(grid[2][1]);
        assert!(grid[2][2]);
        assert!(grid[2][3]);
    }

    #[test]
    fn sum_over_non_adjacent_span() {
        // Aggregation across four data lines: detection happens at the
        // prefix depth where the running sum matches.
        let grid = detect(vec![
            vec!["a", "1"],
            vec!["b", "2"],
            vec!["c", "3"],
            vec!["d", "4"],
            vec!["All", "10"],
        ]);
        assert!(grid[4][1]);
    }

    #[test]
    fn anchor_with_no_numeric_neighbours_is_harmless() {
        let grid = detect(vec![vec!["Total notes about methods"], vec!["text"]]);
        assert!(grid.iter().all(|row| row.iter().all(|&v| !v)));
    }

    #[test]
    fn delta_tolerates_rounded_means() {
        // Mean of 10 and 15 is 12.5, reported rounded to 12.55 (within
        // delta 0.1).
        let grid = detect(vec![
            vec!["x", "10"],
            vec!["y", "15"],
            vec!["Mean", "12.55"],
        ]);
        assert!(grid[2][1]);
    }

    #[test]
    fn derived_coverage_feature() {
        let table = Table::from_rows(vec![
            vec!["North", "10", "20"],
            vec!["South", "30", "40"],
            vec!["Total", "40", "60"],
        ]);
        let derived = detect_derived_cells(&table, &DerivedConfig::default());
        let cov = derived_coverage_per_line(&table, &derived);
        assert_eq!(cov[0], 0.0);
        assert_eq!(cov[1], 0.0);
        assert!((cov[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table() {
        let grid = detect(vec![]);
        assert!(grid.is_empty());
    }

    #[test]
    fn min_max_detected_only_with_extension() {
        let rows = vec![
            vec!["a", "10", "5"],
            vec!["b", "30", "9"],
            vec!["c", "20", "7"],
            // 10/5 are the column minima; "All" anchors the row. (The sum
            // and mean of the scanned prefixes never match.)
            vec!["All, lowest", "10", "5"],
        ];
        let table = Table::from_rows(rows.clone());
        let base = detect_derived_cells(&table, &DerivedConfig::default());
        assert!(
            !base[3][1] && !base[3][2],
            "published algorithm: sum/mean only"
        );
        let extended = detect_derived_cells(
            &table,
            &DerivedConfig {
                detect_min_max: true,
                ..DerivedConfig::default()
            },
        );
        assert!(extended[3][1] && extended[3][2], "extension detects minima");
    }

    #[test]
    fn min_max_needs_two_scanned_lines() {
        // A lone data line above the anchor would trivially equal its own
        // min/max; the extension must not fire on a single-line prefix
        // when the values differ from that line... but when the anchor row
        // simply repeats the adjacent line, sum-detection already fires,
        // so use values that match neither sum nor mean of one line.
        let table = Table::from_rows(vec![vec!["a", "10"], vec!["All", "7"]]);
        let extended = detect_derived_cells(
            &table,
            &DerivedConfig {
                detect_min_max: true,
                ..DerivedConfig::default()
            },
        );
        assert!(!extended[1][1]);
    }

    /// Every `DerivedConfig` the equality tests sweep: δ ∈ {0.01, 0.1, 1},
    /// c ∈ {0.3, 0.5, 0.7, 0.9}, min/max off and on.
    fn configs() -> Vec<DerivedConfig> {
        let mut out = Vec::new();
        for delta in [0.01, 0.1, 1.0] {
            for coverage in [0.3, 0.5, 0.7, 0.9] {
                for detect_min_max in [false, true] {
                    out.push(DerivedConfig {
                        delta,
                        coverage,
                        detect_min_max,
                    });
                }
            }
        }
        out
    }

    /// Tables of every datagen generator stacked into one grid, each
    /// followed by a blank row: many anchors, several in one column.
    fn stacked_document() -> Table {
        use strudel_datagen::{cius, deex, govuk, mendeley, saus, troy, GeneratorConfig};
        let generators = [
            (saus as fn(&GeneratorConfig) -> strudel_table::Corpus, 0.4),
            (cius, 0.3),
            (deex, 0.4),
            (govuk, 0.2),
            (mendeley, 0.02),
            (troy, 0.8),
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (g, (generate, scale)) in generators.into_iter().enumerate() {
            let corpus = generate(&GeneratorConfig {
                n_files: 4,
                seed: 23 + g as u64,
                scale,
            });
            for file in &corpus.files {
                let t = &file.table;
                for r in 0..t.n_rows() {
                    rows.push(t.row(r).map(|c| c.raw().to_string()).collect());
                }
                rows.push(Vec::new());
            }
        }
        Table::from_rows(rows)
    }

    /// A random grid of Algorithm 2's hard cases: signed ints and
    /// decimals, exact running sums and means of the cells above and to
    /// the left, `-0`, values near 1e308 whose sums overflow, blank rows,
    /// and keyword cells that put several anchors in one row and column.
    fn random_grid(seed: u64) -> Table {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (rows, cols) = (rng.gen_range(1..=20usize), rng.gen_range(1..=7usize));
        let (hot_row, hot_col) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
        let mut numbers: Vec<Vec<Option<f64>>> = vec![vec![None; cols]; rows];
        let mut grid: Vec<Vec<String>> = vec![vec![String::new(); cols]; rows];
        for r in 0..rows {
            if r != hot_row && rng.gen_bool(0.1) {
                continue; // a blank row
            }
            for c in 0..cols {
                let hot = r == hot_row || c == hot_col;
                if rng.gen_bool(if hot { 0.4 } else { 0.05 }) {
                    let keyword = ["Total", "All", "Mean", "sum of", "Average x"];
                    grid[r][c] = keyword[rng.gen_range(0..keyword.len())].to_string();
                    continue;
                }
                // Nearest first, the order Algorithm 2 accumulates in.
                let above: Vec<f64> = (0..r).rev().filter_map(|i| numbers[i][c]).collect();
                let left: Vec<f64> = (0..c).rev().filter_map(|j| numbers[r][j]).collect();
                let text = match rng.gen_range(0..12) {
                    0 => String::new(),
                    1 => "label".to_string(),
                    2 => rng.gen_range(-500i64..500).to_string(),
                    3 => format!("{:.2}", rng.gen_range(-50.0..50.0)),
                    4 => "-0".to_string(),
                    5 => format!("{}e307", rng.gen_range(-17i64..=17)),
                    6..=10 => {
                        let prefix = if rng.gen_bool(0.5) { &above } else { &left };
                        if prefix.is_empty() {
                            String::new()
                        } else {
                            let depth = rng.gen_range(1..=prefix.len());
                            let sum = prefix[..depth].iter().fold(0.0, |s, v| s + v);
                            let value = if rng.gen_bool(0.5) {
                                sum
                            } else {
                                sum / depth as f64
                            };
                            format!("{value}")
                        }
                    }
                    _ => format!("{}", rng.gen_range(0..20i64) as f64 / 4.0),
                };
                numbers[r][c] = strudel_table::Cell::new(text.as_str()).numeric();
                grid[r][c] = text;
            }
        }
        Table::from_rows(grid)
    }

    /// The production mask equals the oracle's under every swept config.
    fn assert_matches_oracle(table: &Table) -> Result<(), TestCaseError> {
        for config in configs() {
            prop_assert_eq!(
                detect_derived_cells(table, &config),
                oracle::detect_derived_cells_view(table.view(), &config),
                "config {:?}",
                config
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn matches_oracle_on_random_grids(seed in any::<u64>()) {
            assert_matches_oracle(&random_grid(seed))?;
        }
    }

    #[test]
    fn matches_oracle_on_fixed_inputs() {
        // Coverage is `count / n > c`, not `count > c * n`: 63 of 90
        // candidates is not more than 0.7 of them, although
        // 63 > 0.7 * 90 = 62.99999999999999 in floating point.
        let mut rows = vec![vec!["x".to_string(), "Total".to_string()]];
        for i in 0..90 {
            let shift = if i < 63 { 0 } else { 5 };
            rows.push(vec![i.to_string(), (i + shift).to_string()]);
        }
        let column = Table::from_rows(rows);
        let at = |coverage| DerivedConfig {
            coverage,
            ..DerivedConfig::default()
        };
        assert!(!detect_derived_cells(&column, &at(0.7))[1][1]);
        assert!(detect_derived_cells(&column, &at(0.69))[1][1]);

        for table in [column, stacked_document()] {
            assert_matches_oracle(&table).unwrap_or_else(|e| panic!("{e:?}"));
        }
    }

    /// The work gate: no anchor row or column is scanned twice in one
    /// direction, and the candidate-steps (lines stepped × candidates)
    /// of all scans stay within Σ K·(lines parallel to it) over the
    /// distinct anchor lines with K > 0 candidates.
    #[test]
    fn each_anchor_line_is_scanned_once_per_direction() {
        let table = stacked_document();
        let view = table.view();
        let (rows, cols) = (view.n_rows(), view.n_cols());
        // The distinct anchor lines with candidates, each with K and the
        // number of lines its scans can step over, found independently
        // of the code under test.
        let mut anchors_in_col = vec![0usize; cols];
        let mut lines = HashMap::new();
        for r in 0..rows {
            for (c, cell) in view.row(r).enumerate() {
                if !cell.is_empty() && has_aggregation_keyword(cell.raw()) {
                    anchors_in_col[c] += 1;
                    let k_row = view.row(r).filter(|x| x.numeric().is_some()).count();
                    let k_col = view.column(c).filter(|x| x.numeric().is_some()).count();
                    lines.insert((Axis::Row, r), (k_row, rows - 1));
                    lines.insert((Axis::Col, c), (k_col, cols - 1));
                }
            }
        }
        lines.retain(|_, &mut (k, _)| k > 0);
        let bound: usize = lines.values().map(|&(k, parallel)| k * parallel).sum();
        assert!(
            (0..cols).any(|c| anchors_in_col[c] >= 3 && lines.contains_key(&(Axis::Col, c))),
            "the document must hold several anchors in one column with candidates"
        );

        for config in configs() {
            let mut scans = Vec::new();
            derived_mask(view, &config, |axis, line, direction, work| {
                scans.push((axis, line, direction, work))
            });
            let mut seen = HashSet::new();
            for &(axis, line, direction, _) in &scans {
                assert!(
                    lines.contains_key(&(axis, line)),
                    "{axis:?} {line} is no anchor line"
                );
                assert!(
                    seen.insert((axis, line, direction)),
                    "{axis:?} {line} scanned {direction:?} twice under {config:?}"
                );
            }
            let work: usize = scans.iter().map(|s| s.3).sum();
            assert!(
                work <= bound,
                "{work} candidate-steps exceed the bound {bound} under {config:?}"
            );
        }
    }
}
