//! Raw-span record walking: byte-exact field geometry for lossless
//! re-serialisation.
//!
//! The production scan layer ([`scan_records`](crate::scan_records))
//! hands out *content* spans — quoted fields lose their surrounding
//! quotes, doubled quotes and escapes are undone (copy-on-write). That
//! is the right shape for classification, but the packed container
//! format needs the opposite: the exact bytes of every field as they
//! sit in the file, so that re-emitting
//! `join(fields, delimiter) + terminator` per record reproduces the
//! input byte for byte, quoting quirks and all.
//!
//! [`raw_records`] runs the crate's one record walker,
//! [`RecordTracker`] — the chunk-resumable port of the retained legacy
//! parser's state machine ([`crate::legacy`], the canonical formulation
//! of the forgiving RFC 4180 semantics) that also cuts the streaming
//! classifier's windows — over the whole text. It records only byte
//! ranges and terminators, allocating nothing per field beyond the
//! range itself. The central invariant (property-tested and relied on
//! by `strudel-pack`):
//!
//! > The raw spans, the single-character delimiters between them, and
//! > the per-record terminators exactly tile the input. Concatenating
//! > them back reproduces the original text.
//!
//! Record and field counts match [`crate::parse`] on the same input and
//! dialect, so raw record `i` aligns with line `i` of a detected
//! `Structure` — with one byte-preservation exception: an input ending
//! in a lone escape character right after a record boundary yields one
//! extra trailing raw record (the value parsers drop that byte, the raw
//! walker must not). Consumers index `Structure` lines with `get` and
//! treat out-of-range records as unclassified.

use crate::dialect::Dialect;
use crate::stream::RecordTracker;
use std::ops::Range;

/// How a record was terminated on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// End of input, no trailing newline.
    None,
    /// `\n`.
    Lf,
    /// `\r\n`.
    CrLf,
    /// A bare `\r`.
    Cr,
}

impl Terminator {
    /// The terminator's bytes as they appeared in the input.
    pub fn as_str(self) -> &'static str {
        match self {
            Terminator::None => "",
            Terminator::Lf => "\n",
            Terminator::CrLf => "\r\n",
            Terminator::Cr => "\r",
        }
    }

    /// Stable wire code (used by the packed container's skeleton
    /// directives).
    pub fn code(self) -> u8 {
        match self {
            Terminator::None => 0,
            Terminator::Lf => 1,
            Terminator::CrLf => 2,
            Terminator::Cr => 3,
        }
    }

    /// Inverse of [`Terminator::code`].
    pub fn from_code(code: u8) -> Option<Terminator> {
        match code {
            0 => Some(Terminator::None),
            1 => Some(Terminator::Lf),
            2 => Some(Terminator::CrLf),
            3 => Some(Terminator::Cr),
            _ => None,
        }
    }
}

/// One record's raw geometry: the byte range of every field (quotes and
/// escapes included) and the terminator that closed the record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// Raw byte range of each field, in order. Ranges exclude the
    /// delimiters between fields and the record terminator.
    pub fields: Vec<Range<usize>>,
    /// What closed the record.
    pub term: Terminator,
}

impl RawRecord {
    /// Byte range of the record's content: from its first field's start
    /// to its last field's end, delimiters included, terminator
    /// excluded.
    ///
    /// # Panics
    /// Panics on a record with no fields (the walker never reports one).
    pub fn span(&self) -> Range<usize> {
        self.fields[0].start..self.fields[self.fields.len() - 1].end
    }

    /// One past the terminator — where the next record starts.
    pub fn end(&self) -> usize {
        self.span().end + self.term.as_str().len()
    }

    /// Whether the record has no content at all (an empty line). The
    /// streaming classifier treats blank records as table boundaries.
    pub fn is_blank(&self) -> bool {
        self.span().is_empty()
    }
}

/// Walk `text` under `dialect` and return the byte-exact geometry of
/// every record. Never fails: malformed input degrades exactly like the
/// legacy parser (an unterminated quote swallows the rest of the file
/// into the final field).
pub fn raw_records(text: &str, dialect: &Dialect) -> Vec<RawRecord> {
    let mut tracker = RecordTracker::new(*dialect);
    let mut records = Vec::new();
    tracker.feed(text, |r| records.push(r.clone()));
    tracker.finish(|r| records.push(r.clone()));
    records
}

/// Reassemble the exact input text from its raw geometry — the tiling
/// invariant as a function. `strudel-pack` performs the same
/// concatenation from decoded streams; this helper exists for tests and
/// documentation.
pub fn reassemble(text: &str, dialect: &Dialect, records: &[RawRecord]) -> String {
    let mut out = String::with_capacity(text.len());
    for record in records {
        for (i, range) in record.fields.iter().enumerate() {
            if i > 0 {
                out.push(dialect.delimiter);
            }
            out.push_str(&text[range.clone()]);
        }
        out.push_str(record.term.as_str());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legacy::parse_legacy;

    fn rfc() -> Dialect {
        Dialect::rfc4180()
    }

    #[test]
    fn simple_records_tile_the_input() {
        let text = "a,b\n1,2\n";
        let records = raw_records(text, &rfc());
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].fields, vec![0..1, 2..3]);
        assert_eq!(records[0].term, Terminator::Lf);
        assert_eq!(reassemble(text, &rfc(), &records), text);
    }

    #[test]
    fn quoted_fields_keep_their_quotes() {
        let text = "\"a,b\",\"c\"\"d\"\r\nplain\r";
        let records = raw_records(text, &rfc());
        assert_eq!(&text[records[0].fields[0].clone()], "\"a,b\"");
        assert_eq!(&text[records[0].fields[1].clone()], "\"c\"\"d\"");
        assert_eq!(records[0].term, Terminator::CrLf);
        assert_eq!(records[1].term, Terminator::Cr);
        assert_eq!(reassemble(text, &rfc(), &records), text);
    }

    #[test]
    fn quoted_newlines_stay_inside_one_field() {
        let text = "\"line1\nline2\",x\n";
        let records = raw_records(text, &rfc());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].fields.len(), 2);
        assert_eq!(reassemble(text, &rfc(), &records), text);
    }

    /// Every dialect shape of `tests/parity.rs` and more: four
    /// delimiters (one multi-byte) × five quotes × four escapes,
    /// including the degenerate collisions (quote or escape equal to
    /// the delimiter, escape equal to the quote).
    fn dialect_shapes() -> impl Iterator<Item = Dialect> {
        let quotes = [None, Some('"'), Some('\''), Some(','), Some('\u{00AB}')];
        let escapes = [None, Some('\\'), Some('"'), Some(',')];
        [',', ';', '\t', '\u{00A7}']
            .into_iter()
            .flat_map(move |delimiter| {
                quotes.into_iter().flat_map(move |quote| {
                    escapes.into_iter().map(move |escape| Dialect {
                        delimiter,
                        quote,
                        escape,
                    })
                })
            })
    }

    /// A raw field's value: the field parsed on its own, as
    /// `strudel_pack` reads it back (empty when nothing parses).
    fn field_value(raw: &str, dialect: &Dialect) -> String {
        crate::parse(raw, dialect)
            .into_iter()
            .next()
            .and_then(|record| record.into_iter().next())
            .unwrap_or_default()
    }

    /// The raw geometry of `input` tiles it, and matches the legacy
    /// parser record for record and field for field — every raw field
    /// parses on its own to the legacy value. The one exception is the
    /// documented lone trailing escape, an extra raw record that the
    /// value parsers drop.
    fn assert_geometry_matches_legacy(input: &str, dialect: &Dialect) {
        let raw = raw_records(input, dialect);
        assert_eq!(
            reassemble(input, dialect, &raw),
            input,
            "tiling for {input:?} under {dialect:?}"
        );
        let parsed = parse_legacy(input, dialect);
        let compared = match raw.split_last() {
            Some((last, rest))
                if rest.len() == parsed.len()
                    && dialect.escape.map(String::from).as_deref() == Some(&input[last.span()]) =>
            {
                rest
            }
            _ => &raw[..],
        };
        assert_eq!(
            compared.len(),
            parsed.len(),
            "record count for {input:?} under {dialect:?}"
        );
        for (r, p) in compared.iter().zip(&parsed) {
            let values: Vec<String> = r
                .fields
                .iter()
                .map(|f| field_value(&input[f.clone()], dialect))
                .collect();
            assert_eq!(&values, p, "field values for {input:?} under {dialect:?}");
        }
    }

    #[test]
    fn geometry_matches_legacy_record_and_field_counts() {
        let inputs = [
            "",
            "\n",
            "a",
            "a,b",
            "a,b\n",
            "\"unterminated",
            "x\"mid\"y,z\n",
            "\"\"",
            "a,\n\n,b\r\n\r",
            "esc\\,aped,next\n",
            "'q;x',y\n",
            "päö,ü\n",
            "a\n\\",
            "a,",
            "\"q\\\",x\"\n",
            "\"a\"\"b\",\"c\"d\r\ne\\\r\nf",
        ];
        for dialect in dialect_shapes() {
            for input in inputs {
                assert_geometry_matches_legacy(input, &dialect);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The same on arbitrary text: structural characters of every
        /// dialect shape over-weighted, multi-byte ones included.
        #[test]
        fn geometry_matches_legacy_on_arbitrary_text(
            text in "[-a-z0-9,;\"\\\\\t\n\r '\u{00A7}\u{00AB}]{0,64}",
        ) {
            for dialect in dialect_shapes() {
                assert_geometry_matches_legacy(&text, &dialect);
            }
        }
    }

    #[test]
    fn escape_at_eof_and_lone_quote_state_flush() {
        // Escape with nothing to consume: the field exists but is empty
        // in value terms; its raw span is the escape byte.
        let text = "a,\\";
        let records = raw_records(
            text,
            &Dialect {
                delimiter: ',',
                quote: Some('"'),
                escape: Some('\\'),
            },
        );
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].fields.len(), 2);
        assert_eq!(&text[records[0].fields[1].clone()], "\\");
        // A file ending in `""` keeps its final (empty) record.
        let text = "a\n\"\"";
        let records = raw_records(text, &rfc());
        assert_eq!(records.len(), 2);
        assert_eq!(&text[records[1].fields[0].clone()], "\"\"");
    }

    #[test]
    fn trailing_lone_escape_is_kept_as_an_extra_record() {
        // The one documented divergence from the value parsers: legacy
        // drops a trailing lone escape byte; the raw walker keeps it so
        // the tiling invariant holds.
        let dialect = Dialect {
            delimiter: ',',
            quote: Some('"'),
            escape: Some('\\'),
        };
        let text = "a\n\\";
        assert_eq!(parse_legacy(text, &dialect), vec![vec!["a"]]);
        let raw = raw_records(text, &dialect);
        assert_eq!(raw.len(), 2);
        assert_eq!(&text[raw[1].fields[0].clone()], "\\");
        assert_eq!(reassemble(text, &dialect, &raw), text);
    }

    #[test]
    fn terminator_codes_roundtrip() {
        for term in [
            Terminator::None,
            Terminator::Lf,
            Terminator::CrLf,
            Terminator::Cr,
        ] {
            assert_eq!(Terminator::from_code(term.code()), Some(term));
        }
        assert_eq!(Terminator::from_code(4), None);
    }
}
