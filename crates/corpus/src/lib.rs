//! # strudel-corpus
//!
//! The on-disk annotated corpus format of the Strudel reproduction.
//!
//! An annotated corpus is a directory of CSV files, each accompanied by
//! a `<file>.labels` sidecar carrying one row of cell-class symbols per
//! CSV record:
//!
//! ```text
//! #strudel-labels v1
//! m . .
//! h h h
//! d d d
//! g v v
//! n . .
//! ```
//!
//! Symbols: `m`etadata, `h`eader, `g`roup, `d`ata, deri`v`ed, `n`otes,
//! and `.` for empty (unlabeled) cells. Missing trailing symbols pad to
//! `.`; an entirely blank sidecar row marks an empty CSV line. Line
//! labels are derived from cell labels by majority, exactly as the
//! paper's Figure 1 convention.
//!
//! ```
//! use strudel_corpus::{parse_labels, render_labels};
//! use strudel_table::{ElementClass, Table};
//!
//! let table = Table::from_rows(vec![vec!["Name", "Score"], vec!["alice", "3"]]);
//! let text = "#strudel-labels v1\nh h\nd d\n";
//! let labels = parse_labels(text, &table).unwrap();
//! assert_eq!(labels[0][0], Some(ElementClass::Header));
//! assert_eq!(render_labels(&labels), text.split_once('\n').unwrap().1);
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use strudel_dialect::{parse, Dialect};
use strudel_table::{CellLabels, Corpus, ElementClass, LabeledFile, Table};

/// Header line opening every sidecar file.
pub const LABELS_HEADER: &str = "#strudel-labels v1";
/// Extension of sidecar files (appended to the CSV file name).
pub const LABELS_EXT: &str = "labels";

/// Errors produced when reading or writing corpora.
#[derive(Debug)]
pub enum CorpusError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A sidecar file is malformed.
    BadLabels {
        /// Path of the offending sidecar.
        path: PathBuf,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus I/O error: {e}"),
            CorpusError::BadLabels { path, reason } => {
                write!(f, "bad labels file {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

fn class_symbol(class: ElementClass) -> char {
    match class {
        ElementClass::Metadata => 'm',
        ElementClass::Header => 'h',
        ElementClass::Group => 'g',
        ElementClass::Data => 'd',
        ElementClass::Derived => 'v',
        ElementClass::Notes => 'n',
    }
}

fn symbol_class(sym: &str) -> Result<Option<ElementClass>, String> {
    match sym {
        "." => Ok(None),
        "m" => Ok(Some(ElementClass::Metadata)),
        "h" => Ok(Some(ElementClass::Header)),
        "g" => Ok(Some(ElementClass::Group)),
        "d" => Ok(Some(ElementClass::Data)),
        "v" => Ok(Some(ElementClass::Derived)),
        "n" => Ok(Some(ElementClass::Notes)),
        other => Err(format!("unknown label symbol {other:?}")),
    }
}

/// Render a cell-label grid as sidecar text (without the header line).
pub fn render_labels(labels: &CellLabels) -> String {
    let mut out = String::new();
    for row in labels {
        let symbols: Vec<String> = row
            .iter()
            .map(|l| l.map_or(".".to_string(), |c| class_symbol(c).to_string()))
            .collect();
        out.push_str(&symbols.join(" "));
        out.push('\n');
    }
    out
}

/// Parse sidecar text against the table it annotates. The `#strudel-labels`
/// header line is optional; rows shorter than the table pad with `.`.
pub fn parse_labels(text: &str, table: &Table) -> Result<CellLabels, String> {
    let mut rows: Vec<&str> = text.lines().collect();
    if rows
        .first()
        .is_some_and(|l| l.starts_with("#strudel-labels"))
    {
        rows.remove(0);
    }
    // Allow a missing trailing blank row.
    while rows.len() > table.n_rows() && rows.last().is_some_and(|l| l.trim().is_empty()) {
        rows.pop();
    }
    if rows.len() != table.n_rows() {
        return Err(format!(
            "label rows ({}) do not match CSV records ({})",
            rows.len(),
            table.n_rows()
        ));
    }
    let mut out: CellLabels = Vec::with_capacity(table.n_rows());
    for (r, line) in rows.iter().enumerate() {
        let mut row: Vec<Option<ElementClass>> = Vec::with_capacity(table.n_cols());
        for sym in line.split_whitespace() {
            if row.len() >= table.n_cols() {
                return Err(format!("row {r} has more labels than table columns"));
            }
            row.push(symbol_class(sym)?);
        }
        row.resize(table.n_cols(), None);
        // Consistency: labels on empty cells / unlabeled non-empty cells
        // are downgraded or rejected.
        for (c, slot) in row.iter_mut().enumerate() {
            let empty = table.cell(r, c).is_empty();
            if empty && slot.is_some() {
                return Err(format!("row {r}, column {c}: label on an empty cell"));
            }
            if !empty && slot.is_none() {
                return Err(format!(
                    "row {r}, column {c}: non-empty cell {:?} lacks a label",
                    table.cell(r, c).raw()
                ));
            }
        }
        out.push(row);
    }
    Ok(out)
}

/// Save one labeled file: `<dir>/<name>` (CSV) plus `<name>.labels`.
pub fn save_file(dir: &Path, file: &LabeledFile) -> Result<(), CorpusError> {
    fs::create_dir_all(dir)?;
    let csv_path = dir.join(&file.name);
    if let Some(parent) = csv_path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(&csv_path, file.table.to_delimited(','))?;
    let mut sidecar = String::from(LABELS_HEADER);
    sidecar.push('\n');
    sidecar.push_str(&render_labels(&file.cell_labels));
    fs::write(labels_path(&csv_path), sidecar)?;
    Ok(())
}

/// Sidecar path of a CSV path (`x.csv` → `x.csv.labels`).
pub fn labels_path(csv_path: &Path) -> PathBuf {
    let mut os = csv_path.as_os_str().to_os_string();
    os.push(".");
    os.push(LABELS_EXT);
    PathBuf::from(os)
}

/// Load one labeled file from its CSV path (the sidecar must exist).
/// The CSV is parsed with the RFC 4180 dialect, matching [`save_file`].
pub fn load_file(csv_path: &Path) -> Result<LabeledFile, CorpusError> {
    let text = fs::read_to_string(csv_path)?;
    let table = Table::from_rows(parse(&text, &Dialect::rfc4180()));
    let sidecar_path = labels_path(csv_path);
    let sidecar = fs::read_to_string(&sidecar_path)?;
    let cell_labels = parse_labels(&sidecar, &table).map_err(|reason| CorpusError::BadLabels {
        path: sidecar_path,
        reason,
    })?;
    let line_labels = LabeledFile::line_labels_from_cells(&table, &cell_labels);
    let name = csv_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed.csv".to_string());
    Ok(LabeledFile::new(name, table, line_labels, cell_labels))
}

/// Save a whole corpus into a directory.
pub fn save_corpus(dir: &Path, corpus: &Corpus) -> Result<(), CorpusError> {
    for file in &corpus.files {
        save_file(dir, file)?;
    }
    Ok(())
}

/// Load every annotated CSV file (those with a `.labels` sidecar) of a
/// directory, sorted by name for determinism.
pub fn load_corpus(dir: &Path, name: impl Into<String>) -> Result<Corpus, CorpusError> {
    let mut corpus = Corpus::new(name);
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "csv") && labels_path(p).exists())
        .collect();
    paths.sort();
    for path in paths {
        corpus.files.push(load_file(&path)?);
    }
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_datagen::{saus, GeneratorConfig};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("strudel-corpus-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_single_file() {
        let corpus = saus(&GeneratorConfig {
            n_files: 1,
            seed: 3,
            scale: 0.2,
        });
        let dir = temp_dir("single");
        save_file(&dir, &corpus.files[0]).unwrap();
        let loaded = load_file(&dir.join(&corpus.files[0].name)).unwrap();
        assert_eq!(loaded.table, corpus.files[0].table);
        assert_eq!(loaded.cell_labels, corpus.files[0].cell_labels);
        assert_eq!(loaded.line_labels, corpus.files[0].line_labels);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_whole_corpus() {
        let corpus = saus(&GeneratorConfig {
            n_files: 5,
            seed: 7,
            scale: 0.2,
        });
        let dir = temp_dir("corpus");
        save_corpus(&dir, &corpus).unwrap();
        let loaded = load_corpus(&dir, "SAUS").unwrap();
        assert_eq!(loaded.files.len(), 5);
        let a = corpus.stats();
        let b = loaded.stats();
        assert_eq!(a.n_lines, b.n_lines);
        assert_eq!(a.n_cells, b.n_cells);
        assert_eq!(a.lines_per_class, b.lines_per_class);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn labels_text_roundtrip() {
        let table = Table::from_rows(vec![vec!["Title", ""], vec!["", ""], vec!["a", "1"]]);
        let labels: CellLabels = vec![
            vec![Some(ElementClass::Metadata), None],
            vec![None, None],
            vec![Some(ElementClass::Data), Some(ElementClass::Data)],
        ];
        let text = render_labels(&labels);
        let parsed = parse_labels(&text, &table).unwrap();
        assert_eq!(parsed, labels);
    }

    #[test]
    fn mismatched_row_count_rejected() {
        let table = Table::from_rows(vec![vec!["a"]]);
        let err = parse_labels("d\nd\n", &table).unwrap_err();
        assert!(err.contains("do not match"));
    }

    #[test]
    fn label_on_empty_cell_rejected() {
        let table = Table::from_rows(vec![vec!["", "x"]]);
        let err = parse_labels("d d\n", &table).unwrap_err();
        assert!(err.contains("empty cell"));
    }

    #[test]
    fn unlabeled_content_rejected() {
        let table = Table::from_rows(vec![vec!["x", "y"]]);
        let err = parse_labels("d .\n", &table).unwrap_err();
        assert!(err.contains("lacks a label"));
    }

    #[test]
    fn unknown_symbol_rejected() {
        let table = Table::from_rows(vec![vec!["x"]]);
        let err = parse_labels("q\n", &table).unwrap_err();
        assert!(err.contains("unknown label symbol"));
    }

    #[test]
    fn files_without_sidecar_are_skipped() {
        let dir = temp_dir("skip");
        fs::write(dir.join("plain.csv"), "a,b\n1,2\n").unwrap();
        let corpus = load_corpus(&dir, "X").unwrap();
        assert!(corpus.files.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quoted_content_survives_roundtrip() {
        let table = Table::from_rows(vec![vec!["say \"hi\", twice", "2"]]);
        let labels: CellLabels = vec![vec![Some(ElementClass::Data), Some(ElementClass::Data)]];
        let line_labels = LabeledFile::line_labels_from_cells(&table, &labels);
        let file = LabeledFile::new("q.csv", table, line_labels, labels);
        let dir = temp_dir("quoted");
        save_file(&dir, &file).unwrap();
        let loaded = load_file(&dir.join("q.csv")).unwrap();
        assert_eq!(loaded.table.cell(0, 0).raw(), "say \"hi\", twice");
        fs::remove_dir_all(&dir).ok();
    }
}
