//! Dialect detection following van den Burg et al. (DMKD 2019).
//!
//! The detector scores every candidate dialect with a *data consistency
//! measure* `Q = P × T`, where `P` is a **pattern score** rewarding
//! dialects under which rows split into consistent multi-cell records, and
//! `T` is a **type score** rewarding dialects under which the resulting
//! cells look like clean values (numbers, dates, empties, delimiter-free
//! text). The dialect with the highest score wins; ties break toward the
//! more conventional dialect (comma before semicolon before tab, quoting
//! before no quoting).
//!
//! This is the preprocessing step of the Strudel pipeline (Figure 2): a
//! text file becomes a verbose CSV file only after its dialect is known.

use crate::dialect::Dialect;
use crate::scan::scan_records;
use strudel_table::{DataType, Deadline, LimitKind, Limits, StrudelError};

/// Delimiters considered by the detector, in tie-break preference order.
pub const CANDIDATE_DELIMITERS: [char; 7] = [',', ';', '\t', '|', ':', '^', '~'];

/// Quote characters considered by the detector (besides "no quoting").
pub const CANDIDATE_QUOTES: [char; 2] = ['"', '\''];

/// A scored candidate dialect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDialect {
    /// The candidate.
    pub dialect: Dialect,
    /// Pattern score `P` (row-shape consistency).
    pub pattern_score: f64,
    /// Type score `T` (cell cleanliness).
    pub type_score: f64,
    /// Combined consistency `Q = P × T`.
    pub score: f64,
}

/// Detect the dialect of a text file.
///
/// Only delimiters that actually occur in the text are scored (plus the
/// comma, so that single-column files default to RFC 4180). Scoring reads
/// at most the first [`DETECTION_LINE_BUDGET`] lines, which keeps
/// detection linear and cheap even for multi-megabyte files.
pub fn detect_dialect(text: &str) -> Dialect {
    best_dialect(text).dialect
}

/// [`detect_dialect`] under [`Limits`] and a wall-clock [`Deadline`].
///
/// Enforced bounds: the sampled region must not contain a physical line
/// longer than `max_line_bytes` (detection would otherwise buffer it per
/// candidate), inputs with NUL bytes in the sample are rejected as binary
/// when `reject_binary` is set (no CSV dialect is meaningful for binary
/// data), and the deadline is polled between candidate scorings.
pub fn try_detect_dialect(
    text: &str,
    limits: &Limits,
    deadline: Deadline,
) -> Result<Dialect, StrudelError> {
    let sample = sample_lines(text, DETECTION_LINE_BUDGET);
    if let Some(max) = limits.max_line_bytes {
        let mut line_start = 0usize;
        for (idx, b) in sample.bytes().enumerate() {
            if b == b'\n' || b == b'\r' {
                line_start = idx + 1;
            } else if (idx - line_start) as u64 >= max {
                return Err(StrudelError::limit(
                    LimitKind::LineBytes,
                    (idx - line_start) as u64 + 1,
                    max,
                ));
            }
        }
    }
    if limits.reject_binary {
        if let Some(pos) = sample.bytes().position(|b| b == 0) {
            return Err(StrudelError::Dialect {
                file: None,
                reason: format!("binary content: NUL byte at offset {pos}"),
            });
        }
    }
    Ok(best_scored(sample, deadline)?.dialect)
}

/// Maximum number of lines inspected by the detector.
pub const DETECTION_LINE_BUDGET: usize = 200;

/// Detect the dialect and report its scores (used by tests and by the
/// Mendeley experiments, which need to know when detection is unreliable).
pub fn best_dialect(text: &str) -> ScoredDialect {
    best_scored(sample_lines(text, DETECTION_LINE_BUDGET), Deadline::none())
        .expect("detection without a deadline cannot fail")
}

/// The one scoring loop: score every candidate of `sample`, polling
/// `deadline` between candidates, and keep the best.
fn best_scored(sample: &str, deadline: Deadline) -> Result<ScoredDialect, StrudelError> {
    let mut best: Option<ScoredDialect> = None;
    for dialect in candidate_dialects(sample) {
        deadline.check()?;
        let scored = score_dialect(sample, &dialect);
        let better = match &best {
            None => true,
            // Strictly-greater keeps the earliest (most conventional)
            // candidate on ties, because candidates are generated in
            // preference order.
            Some(b) => scored.score > b.score + 1e-12,
        };
        if better {
            best = Some(scored);
        }
    }
    Ok(best.unwrap_or(ScoredDialect {
        dialect: Dialect::rfc4180(),
        pattern_score: 0.0,
        type_score: 0.0,
        score: 0.0,
    }))
}

fn sample_lines(text: &str, budget: usize) -> &str {
    // Count both `\n` and `\r` as line breaks (a `\r\n` pair counts
    // once): files with CR-only line endings used to defeat the budget
    // entirely and push the whole input through every candidate scoring.
    let mut breaks = 0;
    let mut prev_cr = false;
    for (idx, b) in text.bytes().enumerate() {
        let is_break = b == b'\n' || b == b'\r';
        if is_break && !(b == b'\n' && prev_cr) {
            breaks += 1;
            if breaks >= budget {
                return &text[..=idx];
            }
        }
        prev_cr = b == b'\r';
    }
    text
}

/// Enumerate candidate dialects in tie-break preference order.
fn candidate_dialects(text: &str) -> Vec<Dialect> {
    let mut delimiters: Vec<char> = CANDIDATE_DELIMITERS
        .iter()
        .copied()
        .filter(|&d| d == ',' || text.contains(d))
        .collect();
    if delimiters.is_empty() {
        delimiters.push(',');
    }
    let mut quotes: Vec<Option<char>> = vec![Some('"'), None];
    for q in CANDIDATE_QUOTES {
        if q != '"' && text.contains(q) {
            quotes.push(Some(q));
        }
    }
    let escapes: Vec<Option<char>> = if text.contains('\\') {
        vec![None, Some('\\')]
    } else {
        vec![None]
    };
    let mut out = Vec::new();
    for &d in &delimiters {
        for &q in &quotes {
            for &e in &escapes {
                out.push(Dialect {
                    delimiter: d,
                    quote: q,
                    escape: e,
                });
            }
        }
    }
    out
}

/// Compute the consistency measure `Q = P × T` of one dialect.
///
/// Scoring runs over the zero-copy scanner output: every candidate
/// dialect re-reads the same sample, so materialising owned cells here
/// would multiply allocation cost by the number of candidates. Clean
/// fields are inspected as borrowed slices of the sample.
pub fn score_dialect(text: &str, dialect: &Dialect) -> ScoredDialect {
    let records = scan_records(text, dialect);
    if records.is_empty() {
        return ScoredDialect {
            dialect: *dialect,
            pattern_score: 0.0,
            type_score: 0.0,
            score: 0.0,
        };
    }

    // Pattern score: group rows by their cell count ("row pattern"); each
    // pattern k with N_k rows of length L_k contributes N_k * (L_k-1)/L_k,
    // averaged over rows and divided by the number of distinct patterns.
    // Single-cell rows contribute zero, so a delimiter that fails to split
    // the file scores zero; many distinct row shapes dilute the score.
    let mut pattern_counts: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    for rec in records.iter() {
        *pattern_counts.entry(rec.len()).or_insert(0) += 1;
    }
    let n_rows = records.n_records() as f64;
    let raw: f64 = pattern_counts
        .iter()
        .map(|(&len, &count)| count as f64 * (len.saturating_sub(1)) as f64 / len.max(1) as f64)
        .sum();
    let pattern_score = raw / n_rows / pattern_counts.len() as f64;

    // Type score: fraction of cells that look like clean values under this
    // dialect. A small epsilon keeps all-unknown files comparable.
    let mut total = 0usize;
    let mut clean = 0usize;
    for rec in records.iter() {
        for cell in rec.iter() {
            total += 1;
            if is_clean_cell(&cell) {
                clean += 1;
            }
        }
    }
    let type_score = if total == 0 {
        0.0
    } else {
        (clean as f64 + 1.0) / (total as f64 + 1.0)
    };

    ScoredDialect {
        dialect: *dialect,
        pattern_score,
        type_score,
        score: pattern_score * type_score,
    }
}

/// Whether a parsed cell looks like a clean value: empty, numeric, date,
/// or text free of other candidate delimiter characters and of bare
/// backslashes. Text still containing candidate delimiters suggests the
/// file was split with the wrong dialect; a backslash suggests an escape
/// sequence that was not processed.
fn is_clean_cell(value: &str) -> bool {
    match DataType::infer(value) {
        DataType::Empty | DataType::Int | DataType::Float | DataType::Date => true,
        DataType::Str => !value
            .chars()
            .any(|ch| ch == '\\' || (ch != ' ' && CANDIDATE_DELIMITERS.contains(&ch))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_comma() {
        let text = "name,age,city\nalice,30,berlin\nbob,25,potsdam\n";
        assert_eq!(detect_dialect(text).delimiter, ',');
    }

    #[test]
    fn detects_semicolon_with_decimal_commas() {
        let text = "name;score\nalice;3,5\nbob;2,25\ncarl;4,75\n";
        assert_eq!(detect_dialect(text).delimiter, ';');
    }

    #[test]
    fn detects_tab() {
        let text = "a\tb\tc\n1\t2\t3\n4\t5\t6\n";
        assert_eq!(detect_dialect(text).delimiter, '\t');
    }

    #[test]
    fn detects_pipe() {
        let text = "a|b|c\n1|2|3\n4|5|6\n";
        assert_eq!(detect_dialect(text).delimiter, '|');
    }

    #[test]
    fn single_column_defaults_to_comma() {
        let text = "just one column\nanother line\n";
        assert_eq!(detect_dialect(text).delimiter, ',');
    }

    #[test]
    fn empty_input_defaults_to_rfc4180() {
        assert_eq!(detect_dialect(""), Dialect::rfc4180());
    }

    #[test]
    fn quoted_commas_do_not_confuse_detection() {
        let text = "name,desc\n\"Smith, J.\",teacher\n\"Lee, A.\",doctor\n\"Wu, B.\",nurse\n";
        let d = detect_dialect(text);
        assert_eq!(d.delimiter, ',');
        assert_eq!(d.quote, Some('"'));
    }

    #[test]
    fn pattern_score_zero_for_unsplit_file() {
        let s = score_dialect("abc\ndef\n", &Dialect::with_delimiter(';'));
        assert_eq!(s.pattern_score, 0.0);
    }

    #[test]
    fn consistent_rows_score_higher_than_ragged() {
        let consistent = score_dialect("a,b\nc,d\ne,f\n", &Dialect::rfc4180());
        let ragged = score_dialect("a,b\nc\ne,f,g\n", &Dialect::rfc4180());
        assert!(consistent.pattern_score > ragged.pattern_score);
    }

    #[test]
    fn verbose_file_with_metadata_still_detects() {
        // Metadata and notes lines have few delimiters; the table body
        // dominates the score.
        let text = "Crime statistics 2020\n\nState,2019,2020\nBerlin,100,120\nHamburg,80,85\nTotal,180,205\n\nSource: statistics office\n";
        assert_eq!(detect_dialect(text).delimiter, ',');
    }

    #[test]
    fn line_budget_truncates_at_newline() {
        let text = "a,b\n".repeat(500);
        let sample = sample_lines(&text, 10);
        assert_eq!(sample.matches('\n').count(), 10);
    }
}
