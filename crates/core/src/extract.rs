//! Relational extraction: turn a detected [`Structure`] into clean
//! relational tuples.
//!
//! This is the downstream task the Troy corpus was originally built for
//! (Embley et al., IJDAR 2016: "converting heterogeneous statistical
//! tables on the web to searchable databases") and the payoff of
//! structure detection: once lines and cells are classified, each table
//! region yields a header, its data tuples, and — crucially — the *group
//! context*: group-header lines like `Northern region:` scope the data
//! rows beneath them, so they become a filled-down leading column
//! instead of being lost.

use crate::pipeline::Structure;
use strudel_dialect::{write_delimited, Dialect};
use strudel_table::ElementClass;

/// One extracted relational table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationalTable {
    /// Column names: a synthetic `group` column (when the region has
    /// group headers) followed by the detected header names (or
    /// `col_<i>` placeholders when a column has no header).
    pub columns: Vec<String>,
    /// Data tuples, one per data line, aligned with `columns`.
    pub rows: Vec<Vec<String>>,
}

impl RelationalTable {
    /// Render as RFC 4180 CSV text: the column names, then one line per
    /// tuple.
    pub fn to_csv(&self) -> String {
        let rfc = Dialect::rfc4180();
        let mut out = write_delimited(std::slice::from_ref(&self.columns), &rfc);
        out.push_str(&write_delimited(&self.rows, &rfc));
        out
    }
}

/// Extract one relational table per detected table region.
///
/// - multi-line headers are joined cell-wise with a space;
/// - group lines (and the leading group cell of derived lines) fill
///   down into a synthetic `group` column;
/// - derived lines/cells are dropped (they are recomputable);
/// - trailing all-empty columns of a region are trimmed.
pub fn to_relational(structure: &Structure) -> Vec<RelationalTable> {
    let n_cols = structure.table.n_cols();
    // Per-cell class lookup.
    let mut cell_class = vec![vec![None; n_cols]; structure.table.n_rows()];
    for c in &structure.cells {
        cell_class[c.row][c.col] = Some(c.class);
    }

    structure
        .tables()
        .iter()
        .filter(|region| !region.body_rows.is_empty())
        .map(|region| {
            // Header names: cell-wise join of the region's header rows.
            let mut header = vec![String::new(); n_cols];
            for &r in &region.header_rows {
                for (c, slot) in header.iter_mut().enumerate() {
                    let v = structure.table.cell(r, c).raw().trim();
                    if !v.is_empty() {
                        if !slot.is_empty() {
                            slot.push(' ');
                        }
                        slot.push_str(v);
                    }
                }
            }

            // Body: fill group context; keep data lines only.
            let mut group_context = String::new();
            let mut has_groups = false;
            let mut blanked_derived = vec![false; n_cols];
            let mut tuples: Vec<(String, Vec<String>)> = Vec::new();
            for &r in &region.body_rows {
                match structure.lines[r] {
                    Some(ElementClass::Group) => {
                        group_context = first_non_empty(structure, r);
                        has_groups = true;
                    }
                    Some(ElementClass::Derived)
                        // A derived line may still *open* a group via its
                        // leading group cell (e.g. "Sale/Manufacturing:").
                        if cell_class[r]
                            .iter()
                            .flatten()
                            .any(|&c| c == ElementClass::Group)
                        => {
                            has_groups = true;
                        }
                    Some(ElementClass::Data) => {
                        let values: Vec<String> = (0..n_cols)
                            .map(|c| {
                                // Derived-column cells inside data lines are
                                // recomputable aggregates: drop them.
                                if cell_class[r][c] == Some(ElementClass::Derived) {
                                    blanked_derived[c] = true;
                                    String::new()
                                } else {
                                    structure.table.cell(r, c).raw().to_string()
                                }
                            })
                            .collect();
                        tuples.push((group_context.clone(), values));
                    }
                    _ => {}
                }
            }

            // Trim columns with no remaining tuple values — including
            // headed columns whose body was entirely derived (an
            // aggregate column leaves only its header behind).
            let keep: Vec<usize> = (0..n_cols)
                .filter(|&c| {
                    tuples.iter().any(|(_, vals)| !vals[c].is_empty())
                        || (!header[c].is_empty() && !blanked_derived[c])
                })
                .collect();

            let mut columns: Vec<String> = Vec::new();
            if has_groups {
                columns.push("group".to_string());
            }
            for &c in &keep {
                columns.push(if header[c].is_empty() {
                    format!("col_{c}")
                } else {
                    header[c].clone()
                });
            }
            let rows: Vec<Vec<String>> = tuples
                .into_iter()
                .map(|(group, vals)| {
                    let mut row = Vec::with_capacity(columns.len());
                    if has_groups {
                        row.push(group);
                    }
                    row.extend(keep.iter().map(|&c| vals[c].clone()));
                    row
                })
                .collect();
            RelationalTable { columns, rows }
        })
        .collect()
}

fn first_non_empty(structure: &Structure, row: usize) -> String {
    (0..structure.table.n_cols())
        .map(|c| structure.table.cell(row, c).raw().trim())
        .find(|v| !v.is_empty())
        .unwrap_or("")
        .trim_end_matches(':')
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_classifier::CellPrediction;
    use strudel_table::Table;

    use ElementClass::*;

    /// Build a Structure directly from known classes (extraction is a
    /// pure function of them).
    fn structure(
        rows: Vec<Vec<&str>>,
        line_classes: Vec<Option<ElementClass>>,
        cell_overrides: Vec<(usize, usize, ElementClass)>,
    ) -> Structure {
        let table = Table::from_rows(rows);
        let mut cells = Vec::new();
        for (r, line_class) in line_classes.iter().enumerate() {
            for c in 0..table.n_cols() {
                if table.cell(r, c).is_empty() {
                    continue;
                }
                let class = cell_overrides
                    .iter()
                    .find(|(orow, ocol, _)| *orow == r && *ocol == c)
                    .map(|(_, _, cl)| *cl)
                    .or(*line_class)
                    .unwrap_or(Data);
                let mut probs = vec![0.0; ElementClass::COUNT];
                probs[class.index()] = 1.0;
                cells.push(CellPrediction {
                    row: r,
                    col: c,
                    class,
                    probs,
                });
            }
        }
        let line_probs = vec![vec![1.0 / 6.0; 6]; table.n_rows()];
        Structure::new(Dialect::rfc4180(), table, line_classes, line_probs, cells)
    }

    #[test]
    fn group_context_fills_down() {
        let s = structure(
            vec![
                vec!["", "2019", "2020"],
                vec!["North:", "", ""],
                vec!["Kent", "1", "2"],
                vec!["Surrey", "3", "4"],
                vec!["South:", "", ""],
                vec!["Dorset", "5", "6"],
            ],
            vec![
                Some(Header),
                Some(Group),
                Some(Data),
                Some(Data),
                Some(Group),
                Some(Data),
            ],
            vec![],
        );
        let tables = to_relational(&s);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.columns, vec!["group", "col_0", "2019", "2020"]);
        assert_eq!(t.rows[0], vec!["North", "Kent", "1", "2"]);
        assert_eq!(t.rows[2], vec!["South", "Dorset", "5", "6"]);
    }

    #[test]
    fn derived_lines_and_cells_are_dropped() {
        let s = structure(
            vec![
                vec!["", "A", "Total"],
                vec!["x", "1", "1"],
                vec!["Total", "1", "1"],
            ],
            vec![Some(Header), Some(Data), Some(Derived)],
            vec![(1, 2, Derived), (2, 0, Group)],
        );
        let tables = to_relational(&s);
        let t = &tables[0];
        // Derived column is blanked and trimmed; derived line dropped.
        assert_eq!(t.rows.len(), 1);
        assert!(!t.columns.contains(&"Total".to_string()));
        assert_eq!(t.rows[0], vec!["", "x", "1"]);
    }

    #[test]
    fn multi_line_headers_join() {
        let s = structure(
            vec![
                vec!["Area", "Rate"],
                vec!["", "(per 100)"],
                vec!["Kent", "3"],
            ],
            vec![Some(Header), Some(Header), Some(Data)],
            vec![],
        );
        let tables = to_relational(&s);
        assert_eq!(tables[0].columns, vec!["Area", "Rate (per 100)"]);
    }

    #[test]
    fn stacked_regions_yield_separate_tables() {
        let s = structure(
            vec![
                vec!["T1", ""],
                vec!["a", "1"],
                vec!["T2 caption", ""],
                vec!["b", "2"],
            ],
            vec![Some(Metadata), Some(Data), Some(Metadata), Some(Data)],
            vec![],
        );
        let tables = to_relational(&s);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows, vec![vec!["a", "1"]]);
        assert_eq!(tables[1].rows, vec![vec!["b", "2"]]);
    }

    #[test]
    fn csv_rendering_quotes() {
        let t = RelationalTable {
            columns: vec!["a,b".to_string(), "c".to_string()],
            rows: vec![
                vec!["say \"hi\"".to_string(), "2".to_string()],
                // CSV readers end a record at a bare `\r`, so it is
                // quoted like `\n`.
                vec!["a\rb".to_string(), "3".to_string()],
            ],
        };
        let csv = t.to_csv();
        assert_eq!(csv, "\"a,b\",c\n\"say \"\"hi\"\"\",2\n\"a\rb\",3\n");
    }

    #[test]
    fn region_without_data_is_skipped() {
        let s = structure(vec![vec!["just a note"]], vec![Some(Notes)], vec![]);
        assert!(to_relational(&s).is_empty());
    }
}
