//! # strudel-dialect
//!
//! CSV parsing and dialect detection substrate for the Strudel
//! reproduction. Implements the preprocessing stage of the paper's
//! pipeline (Figure 2): given raw text, detect its dialect — delimiter,
//! quote character, escape character — following the consistency-measure
//! approach of van den Burg et al. (DMKD 2019), then parse the text into a
//! [`strudel_table::Table`].
//!
//! ```
//! use strudel_dialect::read_table;
//!
//! let text = "State;2019;2020\nBerlin;100;120\nHamburg;80;85\n";
//! let (table, dialect) = read_table(text);
//! assert_eq!(dialect.delimiter, ';');
//! assert_eq!(table.n_cols(), 3);
//! assert_eq!(table.cell(1, 1).numeric(), Some(100.0));
//! ```

#![warn(missing_docs)]

mod detect;
mod dialect;
pub mod legacy;
mod parser;
pub mod raw;
mod scan;
pub mod stream;
mod write;

pub use detect::{
    best_dialect, detect_dialect, score_dialect, try_detect_dialect, ScoredDialect,
    CANDIDATE_DELIMITERS, CANDIDATE_QUOTES, DETECTION_LINE_BUDGET,
};
pub use dialect::Dialect;
pub use parser::{parse, try_parse};
pub use raw::{raw_records, RawRecord, Terminator};
pub use scan::{scan_records, try_scan_records_within, RecordRef, RecordsRef};
pub use stream::{RecordTracker, Utf8Feeder};
pub use write::{write_delimited, write_field};

// Re-export the shared error/limit types so downstream crates can use
// the fallible API without a direct `strudel-table` dependency.
pub use strudel_table::{Deadline, LimitKind, Limits, StrudelError};

use strudel_table::{CellRef, Table, TableRef};

/// The UTF-8 byte-order mark, as emitted by Excel's "CSV UTF-8" export.
pub const UTF8_BOM: char = '\u{FEFF}';

/// Strip a leading UTF-8 byte-order mark if present. Spreadsheet
/// exports routinely carry one; left in place it would glue itself to
/// the first cell's value and break type inference.
pub fn strip_bom(text: &str) -> &str {
    text.strip_prefix(UTF8_BOM).unwrap_or(text)
}

/// Detect the dialect of `text`, parse it, and build a [`Table`].
///
/// This is the standard entry point of the Strudel pipeline for raw text
/// input. A leading UTF-8 BOM is stripped. The resulting table is *not*
/// cropped; call [`Table::cropped`] when marginal empty lines/columns
/// should be removed (the paper's data preparation does so).
pub fn read_table(text: &str) -> (Table, Dialect) {
    let text = strip_bom(text);
    let dialect = detect_dialect(text);
    let table = read_table_with(text, &dialect);
    (table, dialect)
}

/// Parse `text` under a known dialect and build a [`Table`]. A leading
/// UTF-8 BOM is stripped.
///
/// The grid is the borrowed one the pipeline classifies, materialised:
/// each cell is inferred once on its borrowed field slice and then
/// owned, without the intermediate `Vec<Vec<String>>` of [`parse`].
pub fn read_table_with(text: &str, dialect: &Dialect) -> Table {
    table_ref_from_records(&scan_records(strip_bom(text), dialect)).into_table()
}

/// Assemble the padded **borrowed** cell grid from borrowed records:
/// field values stay `Cow` slices of the input buffer (owned only for
/// unescaped fields), so no cell text is copied.
fn table_ref_from_records<'a>(records: &RecordsRef<'a>) -> TableRef<'a> {
    let n_rows = records.n_records();
    let n_cols = records.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut cells = Vec::with_capacity(n_rows * n_cols);
    for rec in records.iter() {
        let len = rec.len();
        for field in rec.iter() {
            cells.push(CellRef::new(field));
        }
        for _ in len..n_cols {
            cells.push(CellRef::empty());
        }
    }
    TableRef::from_cell_grid(cells, n_rows, n_cols)
}

/// The zero-copy detection parse: scan `text` under [`Limits`] and a
/// [`Deadline`], check the implied grid dimensions, and build the
/// borrowed table. Returns the records alongside the table so callers
/// can report scan metadata (record counts) without re-scanning.
///
/// Scanning is serial; `_n_threads` is ignored. It stays in the
/// signature only because the seeded benchmark under `perfbench/`
/// calls this function with five arguments, and goes away when that
/// benchmark next changes.
pub fn try_read_table_ref_with<'a>(
    text: &'a str,
    dialect: &Dialect,
    limits: &Limits,
    deadline: Deadline,
    _n_threads: usize,
) -> Result<(TableRef<'a>, RecordsRef<'a>), StrudelError> {
    let records = try_scan_records_within(strip_bom(text), dialect, limits, deadline)?;
    deadline.check()?;
    // The scanner bounds streamed rows/cols/cells, but the *padded* grid
    // (rows × widest row) can still exceed the cell bound — check the
    // implied dimensions before allocating.
    let n_rows = records.n_records();
    let n_cols = records.iter().map(|r| r.len()).max().unwrap_or(0);
    Table::check_grid_limits(n_rows, n_cols, limits)?;
    Ok((table_ref_from_records(&records), records))
}

/// Decode `bytes` as UTF-8, or report a typed parse error with the byte
/// offset at which decoding failed. The entry point for untrusted raw
/// file contents — the pipeline proper operates on `&str`.
pub fn decode_utf8(bytes: &[u8]) -> Result<&str, StrudelError> {
    std::str::from_utf8(bytes).map_err(|e| {
        let byte = e.valid_up_to() as u64;
        StrudelError::Parse {
            file: None,
            line: bytes[..e.valid_up_to()]
                .iter()
                .filter(|&&b| b == b'\n')
                .count() as u64,
            byte,
            reason: "invalid UTF-8".to_string(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_table_roundtrip() {
        let (table, dialect) = read_table("a,b\n1,2\n");
        assert_eq!(dialect, Dialect::rfc4180());
        assert_eq!(table.n_rows(), 2);
        assert_eq!(table.n_cols(), 2);
    }

    #[test]
    fn bom_is_stripped() {
        let (table, _) = read_table("\u{FEFF}a,b\n1,2\n");
        assert_eq!(table.cell(0, 0).raw(), "a");
        let (table, _) = read_table("\u{FEFF}2019,2020\n");
        assert!(table.cell(0, 0).dtype().is_numeric());
    }

    #[test]
    fn read_table_pads_ragged_rows() {
        let (table, _) = read_table("a,b,c\n1\n");
        assert_eq!(table.n_cols(), 3);
        assert!(table.cell(1, 2).is_empty());
    }
}
