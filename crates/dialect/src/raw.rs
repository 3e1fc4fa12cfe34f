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
//! [`raw_records`] walks the input with the same state machine as the
//! retained legacy parser ([`crate::legacy`]) — the canonical
//! formulation of the forgiving RFC 4180 semantics — but records only
//! byte ranges and terminators, allocating nothing per field beyond the
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

/// Walk `text` under `dialect` and return the byte-exact geometry of
/// every record. Never fails: malformed input degrades exactly like the
/// legacy parser (an unterminated quote swallows the rest of the file
/// into the final field).
pub fn raw_records(text: &str, dialect: &Dialect) -> Vec<RawRecord> {
    let mut records: Vec<RawRecord> = Vec::new();
    let mut fields: Vec<Range<usize>> = Vec::new();
    let mut field_start: usize = 0;
    let mut chars = text.char_indices().peekable();

    #[derive(PartialEq)]
    enum State {
        FieldStart,
        Unquoted,
        Quoted,
        QuoteInQuoted,
    }
    let mut state = State::FieldStart;

    // `end` is the exclusive byte offset of the field being closed;
    // `next` is where the following field begins.
    macro_rules! end_field {
        ($end:expr, $next:expr) => {{
            fields.push(field_start..$end);
            field_start = $next;
            state = State::FieldStart;
        }};
    }
    macro_rules! end_record {
        ($end:expr, $next:expr, $term:expr) => {{
            end_field!($end, $next);
            records.push(RawRecord {
                fields: std::mem::take(&mut fields),
                term: $term,
            });
        }};
    }

    while let Some((idx, ch)) = chars.next() {
        match state {
            State::FieldStart => {
                if Some(ch) == dialect.quote {
                    state = State::Quoted;
                } else if ch == dialect.delimiter {
                    end_field!(idx, idx + ch.len_utf8());
                } else if ch == '\n' {
                    end_record!(idx, idx + 1, Terminator::Lf);
                } else if ch == '\r' {
                    if chars.peek().map(|&(_, c)| c) == Some('\n') {
                        chars.next();
                        end_record!(idx, idx + 2, Terminator::CrLf);
                    } else {
                        end_record!(idx, idx + 1, Terminator::Cr);
                    }
                } else if Some(ch) == dialect.escape {
                    chars.next();
                    state = State::Unquoted;
                } else {
                    state = State::Unquoted;
                }
            }
            State::Unquoted => {
                if ch == dialect.delimiter {
                    end_field!(idx, idx + ch.len_utf8());
                } else if ch == '\n' {
                    end_record!(idx, idx + 1, Terminator::Lf);
                } else if ch == '\r' {
                    if chars.peek().map(|&(_, c)| c) == Some('\n') {
                        chars.next();
                        end_record!(idx, idx + 2, Terminator::CrLf);
                    } else {
                        end_record!(idx, idx + 1, Terminator::Cr);
                    }
                } else if Some(ch) == dialect.escape {
                    chars.next();
                }
            }
            State::Quoted => {
                if Some(ch) == dialect.quote {
                    state = State::QuoteInQuoted;
                } else if Some(ch) == dialect.escape {
                    chars.next();
                }
            }
            State::QuoteInQuoted => {
                if Some(ch) == dialect.quote {
                    // Doubled quote: literal quote character.
                    state = State::Quoted;
                } else if ch == dialect.delimiter {
                    end_field!(idx, idx + ch.len_utf8());
                } else if ch == '\n' {
                    end_record!(idx, idx + 1, Terminator::Lf);
                } else if ch == '\r' {
                    if chars.peek().map(|&(_, c)| c) == Some('\n') {
                        chars.next();
                        end_record!(idx, idx + 2, Terminator::CrLf);
                    } else {
                        end_record!(idx, idx + 1, Terminator::Cr);
                    }
                } else {
                    // Stray content after a closing quote stays in the
                    // field; the file is malformed but we stay total.
                    state = State::Unquoted;
                }
            }
        }
    }

    // Flush a trailing record without a final newline, under the legacy
    // flush rule (a quote state at EOF still denotes a field, even an
    // empty one) — strengthened to flush whenever raw bytes are pending,
    // so the tiling invariant holds byte-for-byte. The two rules differ
    // only when the input ends in a lone escape character right after a
    // record boundary (the value parsers drop that byte entirely); the
    // raw walker keeps it as one extra single-field record.
    if field_start < text.len()
        || !fields.is_empty()
        || state == State::Quoted
        || state == State::QuoteInQuoted
    {
        fields.push(field_start..text.len());
        records.push(RawRecord {
            fields,
            term: Terminator::None,
        });
    }
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

    #[test]
    fn geometry_matches_legacy_record_and_field_counts() {
        let dialects = [
            rfc(),
            Dialect {
                delimiter: ';',
                quote: Some('"'),
                escape: None,
            },
            Dialect {
                delimiter: '\t',
                quote: None,
                escape: Some('\\'),
            },
            Dialect {
                delimiter: ',',
                quote: Some('\''),
                escape: Some('\\'),
            },
        ];
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
        ];
        for dialect in &dialects {
            for input in inputs {
                let raw = raw_records(input, dialect);
                let parsed = parse_legacy(input, dialect);
                assert_eq!(
                    raw.len(),
                    parsed.len(),
                    "record count for {input:?} under {dialect:?}"
                );
                for (r, p) in raw.iter().zip(&parsed) {
                    assert_eq!(
                        r.fields.len(),
                        p.len(),
                        "field count for {input:?} under {dialect:?}"
                    );
                }
                assert_eq!(
                    reassemble(input, dialect, &raw),
                    input,
                    "tiling for {input:?} under {dialect:?}"
                );
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
