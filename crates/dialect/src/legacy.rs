//! The retained legacy char-walking parser.
//!
//! This is the original state-machine parser: it walks the input one
//! `char` at a time and allocates an owned `String` per field. It has
//! been superseded as the production path by the block scanner
//! ([`scan_records`](crate::scan_records)), but is kept verbatim as the **reference
//! implementation** for the differential parity harness: the proptest
//! suite (`tests/parity.rs`), the block-seam regression tests, and the
//! fuzz divergence check all assert that the scanner's output is
//! byte-for-byte identical to this walker, including limit/deadline
//! error kinds.
//!
//! Do not "improve" this module: its value is that it is the simple,
//! obviously-correct formulation of the forgiving RFC 4180 semantics
//! the rest of the system is specified against.

use crate::dialect::Dialect;
use strudel_table::{Deadline, LimitKind, Limits, StrudelError};

/// How many characters the guarded parser consumes between wall-clock
/// deadline checks. `Instant::now` costs tens of nanoseconds; checking
/// every 64Ki characters keeps the overhead unmeasurable while bounding
/// the overshoot past an expired deadline.
pub(crate) const DEADLINE_CHECK_INTERVAL: usize = 1 << 16;

/// [`crate::parse`] via the legacy char-walker, without resource limits.
///
/// The parser never fails: malformed input (e.g. an unterminated quote)
/// degrades gracefully by treating the remainder of the file as the final
/// field, which mirrors the forgiving behaviour of spreadsheet importers
/// that the paper's corpora were produced by.
pub fn parse_legacy(text: &str, dialect: &Dialect) -> Vec<Vec<String>> {
    // With unbounded limits and no deadline, no error path of the guarded
    // parser is reachable.
    try_parse_within_legacy(text, dialect, &Limits::unbounded(), Deadline::none())
        .expect("unbounded parse cannot fail")
}

/// [`parse_legacy`] with [`Limits`] enforced while parsing.
pub fn try_parse_legacy(
    text: &str,
    dialect: &Dialect,
    limits: &Limits,
) -> Result<Vec<Vec<String>>, StrudelError> {
    try_parse_within_legacy(text, dialect, limits, Deadline::none())
}

/// [`try_parse_legacy`] with an explicit wall-clock [`Deadline`], checked
/// every 64Ki characters.
pub fn try_parse_within_legacy(
    text: &str,
    dialect: &Dialect,
    limits: &Limits,
    deadline: Deadline,
) -> Result<Vec<Vec<String>>, StrudelError> {
    if let Some(max) = limits.max_input_bytes {
        if text.len() as u64 > max {
            return Err(StrudelError::limit(
                LimitKind::InputBytes,
                text.len() as u64,
                max,
            ));
        }
    }

    let mut records: Vec<Vec<String>> = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.char_indices().peekable();

    // Physical-line accounting (independent of quoting: a quoted field
    // spanning lines still produces physical lines on disk).
    let mut line_start: usize = 0;
    // Total fields produced, for the streaming cell bound.
    let mut n_cells: u64 = 0;
    let mut since_deadline_check: usize = 0;

    #[derive(PartialEq)]
    enum State {
        /// At the start of a field (quoting may begin here).
        FieldStart,
        /// Inside an unquoted field.
        Unquoted,
        /// Inside a quoted field.
        Quoted,
        /// Just saw a quote inside a quoted field: could be the end of the
        /// field or the first half of a doubled quote.
        QuoteInQuoted,
    }

    let mut state = State::FieldStart;

    macro_rules! end_field {
        () => {{
            if let Some(max) = limits.max_cols {
                if record.len() as u64 >= max {
                    return Err(StrudelError::limit(
                        LimitKind::Cols,
                        record.len() as u64 + 1,
                        max,
                    ));
                }
            }
            n_cells += 1;
            if let Some(max) = limits.max_cells {
                if n_cells > max {
                    return Err(StrudelError::limit(LimitKind::Cells, n_cells, max));
                }
            }
            record.push(std::mem::take(&mut field));
            state = State::FieldStart;
        }};
    }
    macro_rules! end_record {
        () => {{
            end_field!();
            if let Some(max) = limits.max_rows {
                if records.len() as u64 >= max {
                    return Err(StrudelError::limit(
                        LimitKind::Rows,
                        records.len() as u64 + 1,
                        max,
                    ));
                }
            }
            records.push(std::mem::take(&mut record));
        }};
    }

    while let Some((idx, ch)) = chars.next() {
        since_deadline_check += 1;
        if since_deadline_check >= DEADLINE_CHECK_INTERVAL {
            since_deadline_check = 0;
            deadline.check()?;
        }
        if ch == '\n' || ch == '\r' {
            line_start = idx + 1;
        } else if let Some(max) = limits.max_line_bytes {
            let line_bytes = (idx - line_start) as u64 + ch.len_utf8() as u64;
            if line_bytes > max {
                return Err(StrudelError::limit(LimitKind::LineBytes, line_bytes, max));
            }
        }
        match state {
            State::FieldStart => {
                if Some(ch) == dialect.quote {
                    state = State::Quoted;
                } else if ch == dialect.delimiter {
                    end_field!();
                } else if ch == '\n' {
                    end_record!();
                } else if ch == '\r' {
                    if chars.peek().map(|&(_, c)| c) == Some('\n') {
                        chars.next();
                    }
                    end_record!();
                } else if Some(ch) == dialect.escape {
                    if let Some((_, next)) = chars.next() {
                        field.push(next);
                    }
                    state = State::Unquoted;
                } else {
                    field.push(ch);
                    state = State::Unquoted;
                }
            }
            State::Unquoted => {
                if ch == dialect.delimiter {
                    end_field!();
                } else if ch == '\n' {
                    end_record!();
                } else if ch == '\r' {
                    if chars.peek().map(|&(_, c)| c) == Some('\n') {
                        chars.next();
                    }
                    end_record!();
                } else if Some(ch) == dialect.escape {
                    if let Some((_, next)) = chars.next() {
                        field.push(next);
                    }
                } else {
                    field.push(ch);
                }
            }
            State::Quoted => {
                if Some(ch) == dialect.quote {
                    state = State::QuoteInQuoted;
                } else if Some(ch) == dialect.escape {
                    if let Some((_, next)) = chars.next() {
                        field.push(next);
                    }
                } else {
                    field.push(ch);
                }
                if let Some(max) = limits.max_quoted_field_bytes {
                    if field.len() as u64 > max {
                        return Err(StrudelError::limit(
                            LimitKind::QuotedFieldBytes,
                            field.len() as u64,
                            max,
                        ));
                    }
                }
            }
            State::QuoteInQuoted => {
                if Some(ch) == dialect.quote {
                    // Doubled quote: literal quote character.
                    field.push(ch);
                    state = State::Quoted;
                } else if ch == dialect.delimiter {
                    end_field!();
                } else if ch == '\n' {
                    end_record!();
                } else if ch == '\r' {
                    if chars.peek().map(|&(_, c)| c) == Some('\n') {
                        chars.next();
                    }
                    end_record!();
                } else {
                    // Stray content after a closing quote: keep it, the
                    // file is malformed but we stay total.
                    field.push(ch);
                    state = State::Unquoted;
                }
            }
        }
    }

    // Flush a trailing record without a final newline. A quote state at
    // EOF (unterminated quote, or a closing quote as the very last
    // character) still denotes a field — even an empty one, so that a
    // file ending in `""` keeps its final record.
    if !field.is_empty()
        || !record.is_empty()
        || state == State::Quoted
        || state == State::QuoteInQuoted
    {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_parses_simple_records() {
        assert_eq!(
            parse_legacy("a,b\n1,2\n", &Dialect::rfc4180()),
            vec![vec!["a", "b"], vec!["1", "2"]]
        );
    }

    #[test]
    fn legacy_enforces_limits() {
        let mut limits = Limits::unbounded();
        limits.max_rows = Some(1);
        assert!(matches!(
            try_parse_legacy("a\nb\n", &Dialect::rfc4180(), &limits).unwrap_err(),
            StrudelError::LimitExceeded {
                limit: LimitKind::Rows,
                ..
            }
        ));
    }
}
