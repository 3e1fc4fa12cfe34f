//! Minimal JSON rendering shared by the batch report, the structure
//! serializers and the daemon.
//!
//! The workspace is dependency-free by policy, so the few places that
//! emit JSON (the [`BatchReport`](crate::batch::BatchReport), the
//! `detect --json` CLI output, and the `strudel serve` endpoints) share
//! this hand-rolled writer instead of pulling in serde: one string
//! escaper ([`json_string`]) and one dialect writer ([`dialect_json`]).
//! [`Structure::to_json`] is the *canonical* machine-readable rendering
//! of a detection result: the CLI and the server both emit it verbatim,
//! which is what lets the daemon's integration tests assert that a
//! served response is byte-identical to a one-shot CLI run.

use crate::pipeline::Structure;
use std::fmt::Write;
use strudel_dialect::Dialect;

/// Escape a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The dialect object of the canonical structure JSON, on one line:
/// `{"delimiter": ",", "quote": "\"", "escape": null}`. Shared by
/// the structure JSON and the daemon's streaming summary event.
pub fn dialect_json(dialect: &Dialect) -> String {
    let char_field = |c: Option<char>| match c {
        Some(c) => json_string(&c.to_string()),
        None => "null".to_string(),
    };
    format!(
        "{{\"delimiter\": {}, \"quote\": {}, \"escape\": {}}}",
        json_string(&dialect.delimiter.to_string()),
        char_field(dialect.quote),
        char_field(dialect.escape),
    )
}

impl Structure {
    /// Render the detected structure as a stable JSON object.
    ///
    /// Schema:
    ///
    /// ```json
    /// {
    ///   "dialect": {"delimiter": ",", "quote": "\"", "escape": null},
    ///   "n_rows": 6,
    ///   "n_cols": 3,
    ///   "lines": ["metadata", "header", "data", null],
    ///   "cells": [{"row": 4, "col": 0, "class": "group"}]
    /// }
    /// ```
    ///
    /// `lines` holds one class name per table row (`null` for empty
    /// rows); `cells` lists only the cells whose predicted class differs
    /// from their line class — the same convention as `detect --cells`
    /// and the golden snapshots, keeping the payload proportional to the
    /// interesting structure rather than to the file size.
    pub fn to_json(&self) -> String {
        structure_json(&[(0, self)])
    }
}

/// The one structure-JSON renderer: one document given as consecutive
/// parts, each with the global row index of its first row. `n_rows`
/// sums, `n_cols` is the widest part, `lines` concatenates, `cells`
/// carries global row indices, and the dialect is the first part's
/// (RFC 4180 when there is none). One part at row 0 is
/// [`Structure::to_json`]; streamed windows are
/// [`crate::stream_to_json`].
pub(crate) fn structure_json(parts: &[(usize, &Structure)]) -> String {
    let dialect = parts
        .first()
        .map_or_else(Dialect::rfc4180, |(_, s)| s.dialect);
    let mut out = String::new();
    out.push_str("{\n");
    writeln!(out, "  \"dialect\": {},", dialect_json(&dialect)).unwrap();
    let n_rows: usize = parts.iter().map(|(_, s)| s.table.n_rows()).sum();
    let n_cols = parts
        .iter()
        .map(|(_, s)| s.table.n_cols())
        .max()
        .unwrap_or(0);
    writeln!(out, "  \"n_rows\": {n_rows},").unwrap();
    writeln!(out, "  \"n_cols\": {n_cols},").unwrap();
    let lines: Vec<String> = parts
        .iter()
        .flat_map(|(_, s)| &s.lines)
        .map(|l| match l {
            Some(c) => format!("\"{}\"", c.name()),
            None => "null".to_string(),
        })
        .collect();
    writeln!(out, "  \"lines\": [{}],", lines.join(", ")).unwrap();
    let cells: Vec<String> = parts
        .iter()
        .flat_map(|&(first_row, s)| {
            s.cells
                .iter()
                .filter(|cell| Some(cell.class) != s.lines[cell.row])
                .map(move |cell| {
                    format!(
                        "    {{\"row\": {}, \"col\": {}, \"class\": \"{}\"}}",
                        first_row + cell.row,
                        cell.col,
                        cell.class.name()
                    )
                })
        })
        .collect();
    if cells.is_empty() {
        out.push_str("  \"cells\": []\n");
    } else {
        out.push_str("  \"cells\": [\n");
        out.push_str(&cells.join(",\n"));
        out.push_str("\n  ]\n");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\u{1}y"), "\"x\\u0001y\"");
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
    }

    #[test]
    fn structure_json_schema() {
        use strudel_table::{ElementClass, Table};
        let table = Table::from_rows(vec![vec!["Title", ""], vec!["a", "1"]]);
        let lines = vec![Some(ElementClass::Metadata), Some(ElementClass::Data)];
        let line_probs = vec![vec![1.0 / 6.0; 6]; 2];
        let s = Structure::new(
            strudel_dialect::Dialect::rfc4180(),
            table,
            lines,
            line_probs,
            Vec::new(),
        );
        let json = s.to_json();
        assert!(json.contains("\"delimiter\": \",\""), "{json}");
        assert!(json.contains("\"quote\": \"\\\"\""), "{json}");
        assert!(json.contains("\"escape\": null"), "{json}");
        assert!(json.contains("\"n_rows\": 2"), "{json}");
        assert!(
            json.contains("\"lines\": [\"metadata\", \"data\"]"),
            "{json}"
        );
        assert!(json.contains("\"cells\": []"), "{json}");
    }
}
