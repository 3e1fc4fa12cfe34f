//! Property: writing records under a dialect and re-parsing them is the
//! identity, for arbitrary cell contents — embedded delimiters, quotes,
//! newlines, carriage returns, and escape characters included.

use proptest::prelude::*;
use strudel_dialect::{
    decode_utf8, parse, try_detect_dialect, try_read_table_ref_with, write_delimited, Deadline,
    Dialect, Limits,
};

/// Arbitrary cell content over the full printable-ASCII range (which
/// contains every structural character of the tested dialects) plus
/// embedded line breaks.
fn arb_cell() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\n\r]{0,10}").expect("valid regex")
}

/// Arbitrary record lists; records have at least one field (a zero-field
/// record is unrepresentable in delimited text).
fn arb_rows() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(proptest::collection::vec(arb_cell(), 1..5), 0..7)
}

/// The dialects under test: quoting dialects over three delimiters, a
/// quote+escape dialect, and an escape-only dialect.
fn dialect(idx: usize) -> Dialect {
    match idx {
        0 => Dialect::rfc4180(),
        1 => Dialect::with_delimiter(';'),
        2 => Dialect::with_delimiter('\t'),
        3 => Dialect {
            delimiter: ',',
            quote: Some('"'),
            escape: Some('\\'),
        },
        _ => Dialect {
            delimiter: ',',
            quote: None,
            escape: Some('\\'),
        },
    }
}

proptest! {
    /// `parse(write(rows)) == rows` for every dialect that can express
    /// structural content (via quoting or escaping).
    #[test]
    fn write_then_read_is_identity(rows in arb_rows(), d_idx in 0usize..5) {
        let dialect = dialect(d_idx);
        let text = write_delimited(&rows, &dialect);
        let reparsed = parse(&text, &dialect);
        prop_assert_eq!(&reparsed, &rows, "dialect {:?}, text {:?}", dialect, text);
    }

    /// Writing is deterministic and parsing it back twice agrees.
    #[test]
    fn write_is_deterministic(rows in arb_rows()) {
        let d = Dialect::rfc4180();
        prop_assert_eq!(write_delimited(&rows, &d), write_delimited(&rows, &d));
    }

    /// Feeding *any* byte string through the guarded reader either
    /// produces a table or a typed error — never a panic. Invalid UTF-8
    /// is rejected as a parse error with a byte position.
    #[test]
    fn arbitrary_bytes_yield_table_or_typed_error(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        match decode_utf8(&bytes) {
            Err(e) => prop_assert_eq!(e.category(), "parse"),
            Ok(text) => {
                let limits = Limits::standard();
                let read = try_detect_dialect(text, &limits, Deadline::none()).and_then(|d| {
                    try_read_table_ref_with(text, &d, &limits, Deadline::none(), 1)
                });
                if let Err(e) = read {
                    prop_assert!(!e.category().is_empty());
                }
            }
        }
    }

    /// One parse→rejoin cycle over arbitrary text reaches a fixed point:
    /// re-parsing the rejoined text reproduces the records exactly, even
    /// when the original text was structurally malformed (unterminated
    /// quotes, ragged rows, stray carriage returns).
    #[test]
    fn parse_then_rejoin_is_a_fixed_point(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        d_idx in 0usize..5,
    ) {
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let d = dialect(d_idx);
            let rows = parse(text, &d);
            let rejoined = write_delimited(&rows, &d);
            prop_assert_eq!(
                parse(&rejoined, &d), rows,
                "dialect {:?}, rejoined {:?}", d, rejoined
            );
        }
    }
}
