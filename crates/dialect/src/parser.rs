//! Owned-rows CSV parsing API, parameterised by a [`Dialect`].
//!
//! The parser implements RFC 4180 semantics generalised to arbitrary
//! dialects: fields may be wrapped in the quote character, a doubled quote
//! inside a quoted field denotes a literal quote, an optional escape
//! character protects the next character, and quoted fields may contain
//! embedded line breaks. Both `\n` and `\r\n` (and bare `\r`) are accepted
//! as record terminators.
//!
//! Since the block-scanner rewrite these entry points are thin adapters:
//! the actual parsing is done zero-copy by [`crate::scan`], and the
//! borrowed records are materialised into the historical
//! `Vec<Vec<String>>` shape for callers that want owned rows. New code
//! that only needs to *look* at fields should call
//! [`crate::scan_records`] / [`crate::try_scan_records_within`] directly and
//! skip the per-field allocations.
//!
//! [`try_parse`] is the guarded entry point: it enforces [`Limits`] (input
//! size, physical line length, rows, columns, cells, quoted-field length)
//! while parsing, so a pathological input fails with a typed
//! [`StrudelError`] instead of exhausting memory; the wall-clock
//! [`Deadline`] form is [`crate::try_scan_records_within`]. [`parse`] is
//! the unbounded entry point; it cannot fail.

use crate::dialect::Dialect;
use crate::scan::try_scan_records_within;
use strudel_table::{Deadline, Limits, StrudelError};

/// Parse `text` into records of fields under the given dialect, without
/// resource limits.
///
/// The parser never fails: malformed input (e.g. an unterminated quote)
/// degrades gracefully by treating the remainder of the file as the final
/// field, which mirrors the forgiving behaviour of spreadsheet importers
/// that the paper's corpora were produced by.
pub fn parse(text: &str, dialect: &Dialect) -> Vec<Vec<String>> {
    // With unbounded limits and no deadline, no error path of the guarded
    // parser is reachable.
    try_parse(text, dialect, &Limits::unbounded()).expect("unbounded parse cannot fail")
}

/// [`parse`] with [`Limits`] enforced while parsing.
///
/// Returns [`StrudelError::LimitExceeded`] at the first violated bound;
/// partial output is discarded. The limits are checked *during* the
/// parse, so a 10 GiB single-line file fails at `max_line_bytes` after
/// reading that many bytes, not after materialising the whole record.
pub fn try_parse(
    text: &str,
    dialect: &Dialect,
    limits: &Limits,
) -> Result<Vec<Vec<String>>, StrudelError> {
    Ok(try_scan_records_within(text, dialect, limits, Deadline::none())?.to_owned_rows())
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_table::LimitKind;

    fn rows(text: &str) -> Vec<Vec<String>> {
        parse(text, &Dialect::rfc4180())
    }

    #[test]
    fn simple_records() {
        assert_eq!(
            rows("a,b,c\n1,2,3\n"),
            vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]
        );
    }

    #[test]
    fn trailing_record_without_newline() {
        assert_eq!(rows("a,b"), vec![vec!["a", "b"]]);
    }

    #[test]
    fn empty_fields() {
        assert_eq!(rows(",,\n"), vec![vec!["", "", ""]]);
    }

    #[test]
    fn quoted_field_with_delimiter() {
        assert_eq!(rows("\"a,b\",c\n"), vec![vec!["a,b", "c"]]);
    }

    #[test]
    fn doubled_quote_is_literal() {
        assert_eq!(rows("\"say \"\"hi\"\"\"\n"), vec![vec!["say \"hi\""]]);
    }

    #[test]
    fn quoted_newline_stays_in_field() {
        assert_eq!(rows("\"a\nb\",c\n"), vec![vec!["a\nb", "c"]]);
    }

    #[test]
    fn crlf_and_bare_cr_terminate_records() {
        assert_eq!(rows("a\r\nb\rc\n"), vec![vec!["a"], vec!["b"], vec!["c"]]);
    }

    #[test]
    fn semicolon_dialect() {
        let d = Dialect::with_delimiter(';');
        assert_eq!(
            parse("a;b\n1,5;2,5\n", &d),
            vec![vec!["a", "b"], vec!["1,5", "2,5"]]
        );
    }

    #[test]
    fn tab_dialect() {
        let d = Dialect::with_delimiter('\t');
        assert_eq!(parse("a\tb\n", &d), vec![vec!["a", "b"]]);
    }

    #[test]
    fn escape_character_protects_delimiter() {
        let d = Dialect {
            delimiter: ',',
            quote: Some('"'),
            escape: Some('\\'),
        };
        assert_eq!(parse("a\\,b,c\n", &d), vec![vec!["a,b", "c"]]);
    }

    #[test]
    fn unterminated_quote_consumes_rest() {
        assert_eq!(rows("\"abc\ndef"), vec![vec!["abc\ndef"]]);
    }

    #[test]
    fn no_quote_dialect_treats_quotes_literally() {
        let d = Dialect {
            delimiter: ',',
            quote: None,
            escape: None,
        };
        assert_eq!(parse("\"a\",b\n", &d), vec![vec!["\"a\"", "b"]]);
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert!(rows("").is_empty());
    }

    #[test]
    fn lone_newline_yields_one_empty_record() {
        assert_eq!(rows("\n"), vec![vec![""]]);
    }

    #[test]
    fn stray_text_after_closing_quote_is_kept() {
        assert_eq!(rows("\"ab\"cd,e\n"), vec![vec!["abcd", "e"]]);
    }

    #[test]
    fn empty_quoted_field_at_eof_keeps_its_record() {
        // Regression: `""` with no trailing newline used to vanish — the
        // EOF flush ignored the QuoteInQuoted state when both the field
        // and the record were empty.
        assert_eq!(rows("\"\""), vec![vec![""]]);
        assert_eq!(rows("a,\"\""), vec![vec!["a", ""]]);
        assert_eq!(rows("\""), vec![vec![""]]);
    }

    #[test]
    fn limit_input_bytes() {
        let mut limits = Limits::unbounded();
        limits.max_input_bytes = Some(4);
        let err = try_parse("a,b,c\n", &Dialect::rfc4180(), &limits).unwrap_err();
        assert!(matches!(
            err,
            StrudelError::LimitExceeded {
                limit: LimitKind::InputBytes,
                actual: 6,
                max: 4,
                ..
            }
        ));
    }

    #[test]
    fn limit_line_bytes_triggers_on_long_line_even_quoted() {
        let mut limits = Limits::unbounded();
        limits.max_line_bytes = Some(8);
        let long = format!("{}\n", "x".repeat(32));
        assert!(matches!(
            try_parse(&long, &Dialect::rfc4180(), &limits).unwrap_err(),
            StrudelError::LimitExceeded {
                limit: LimitKind::LineBytes,
                ..
            }
        ));
        // A quoted field spanning many short physical lines is fine …
        let quoted = "\"a\nb\nc\nd\ne\",x\n";
        assert!(try_parse(quoted, &Dialect::rfc4180(), &limits).is_ok());
        // … but a single long physical line inside quotes is not.
        let quoted_long = format!("\"{}\"\n", "y".repeat(32));
        assert!(try_parse(&quoted_long, &Dialect::rfc4180(), &limits).is_err());
    }

    #[test]
    fn limit_rows_cols_cells() {
        let mut limits = Limits::unbounded();
        limits.max_rows = Some(2);
        assert!(matches!(
            try_parse("a\nb\nc\n", &Dialect::rfc4180(), &limits).unwrap_err(),
            StrudelError::LimitExceeded {
                limit: LimitKind::Rows,
                actual: 3,
                max: 2,
                ..
            }
        ));

        let mut limits = Limits::unbounded();
        limits.max_cols = Some(2);
        assert!(matches!(
            try_parse("a,b,c\n", &Dialect::rfc4180(), &limits).unwrap_err(),
            StrudelError::LimitExceeded {
                limit: LimitKind::Cols,
                actual: 3,
                max: 2,
                ..
            }
        ));

        let mut limits = Limits::unbounded();
        limits.max_cells = Some(3);
        assert!(matches!(
            try_parse("a,b\nc,d\n", &Dialect::rfc4180(), &limits).unwrap_err(),
            StrudelError::LimitExceeded {
                limit: LimitKind::Cells,
                actual: 4,
                max: 3,
                ..
            }
        ));
    }

    #[test]
    fn limit_quoted_field_bytes_caps_unterminated_quotes() {
        let mut limits = Limits::unbounded();
        limits.max_quoted_field_bytes = Some(8);
        // Unterminated quote: without the cap the whole remainder would
        // be buffered into one field.
        let text = format!("\"{}", "z".repeat(100));
        assert!(matches!(
            try_parse(&text, &Dialect::rfc4180(), &limits).unwrap_err(),
            StrudelError::LimitExceeded {
                limit: LimitKind::QuotedFieldBytes,
                ..
            }
        ));
        assert!(try_parse("\"short\",x\n", &Dialect::rfc4180(), &limits).is_ok());
    }

    #[test]
    fn within_limits_matches_unbounded_parse() {
        let text = "Report,,\nState,2019,2020\n\"a,b\",1,2\n";
        let bounded = try_parse(text, &Dialect::rfc4180(), &Limits::default()).unwrap();
        assert_eq!(bounded, rows(text));
    }

    #[test]
    fn expired_deadline_fails_large_input() {
        // The deadline is only polled every DEADLINE_CHECK_BYTES bytes
        // of classified blocks, so the input must exceed one interval.
        let text = "a,b\n".repeat(crate::scan::DEADLINE_CHECK_BYTES / 2);
        let deadline = Deadline::after(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err =
            try_scan_records_within(&text, &Dialect::rfc4180(), &Limits::unbounded(), deadline)
                .unwrap_err();
        assert!(matches!(
            err,
            StrudelError::LimitExceeded {
                limit: LimitKind::WallClock,
                ..
            }
        ));
    }
}
