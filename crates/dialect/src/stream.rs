//! Incremental streaming substrate: chunk-resumable UTF-8 validation
//! and record walking.
//!
//! The `strudel` streaming classifier feeds arbitrary byte chunks
//! through [`Utf8Feeder`] (BOM stripping plus incremental UTF-8
//! validation with error payloads identical to [`crate::decode_utf8`]
//! on the concatenated stream) and walks the decoded text through
//! [`RecordTracker`], the one record walker of this crate: it reports
//! every record's raw field ranges and terminator, so a bounded window
//! of text can be sliced at exact record boundaries and re-parsed by
//! the full scanner, and [`raw_records`](crate::raw_records) gets the
//! byte-exact geometry the packed container stores. Both carry their
//! state across arbitrary chunk splits: the output is a pure function
//! of the byte stream, never of how it was chunked.

use crate::dialect::Dialect;
use crate::raw::{RawRecord, Terminator};
use strudel_table::StrudelError;

const BOM_BYTES: [u8; 3] = [0xEF, 0xBB, 0xBF];

/// Incremental UTF-8 validator with BOM stripping.
///
/// Push raw byte chunks; each push appends the newly validated text to
/// the caller's buffer. A leading UTF-8 byte-order mark is consumed
/// silently (it never reaches the output), and at most three bytes of
/// an incomplete trailing character are held back between pushes.
/// Invalid UTF-8 yields the same typed [`StrudelError::Parse`] payload
/// — global byte offset *including* the BOM, newline count of the valid
/// prefix — that [`crate::decode_utf8`] reports on the whole stream;
/// the valid prefix preceding the invalid sequence is still appended to
/// the output first, so the caller can process everything up to the
/// error point before surfacing it (keeping error selection independent
/// of the chunking).
#[derive(Debug, Default)]
pub struct Utf8Feeder {
    /// Held-back raw bytes: the potential BOM prefix at stream start,
    /// then at most 3 trailing bytes of an incomplete character.
    pending: Vec<u8>,
    /// Whether the BOM decision has been made.
    started: bool,
    bom_len: usize,
    /// Raw bytes validated so far, *including* the BOM.
    validated: u64,
    /// Newlines in the validated text.
    newlines: u64,
}

impl Utf8Feeder {
    /// A fresh feeder at stream start.
    pub fn new() -> Utf8Feeder {
        Utf8Feeder::default()
    }

    /// Bytes of the leading BOM that were stripped (0 or 3). Only
    /// meaningful once at least 3 bytes were pushed (or the stream was
    /// finished).
    pub fn bom_len(&self) -> usize {
        self.bom_len
    }

    /// Raw bytes validated so far, including a stripped BOM.
    pub fn validated_bytes(&self) -> u64 {
        self.validated
    }

    /// Feed one chunk; validated text is appended to `out`.
    pub fn push(&mut self, chunk: &[u8], out: &mut String) -> Result<(), StrudelError> {
        self.pending.extend_from_slice(chunk);
        if !self.started {
            // Hold while the stream is still a proper prefix of the BOM.
            if self.pending.len() < BOM_BYTES.len() && BOM_BYTES.starts_with(&self.pending) {
                return Ok(());
            }
            if self.pending.starts_with(&BOM_BYTES) {
                self.pending.drain(..BOM_BYTES.len());
                self.bom_len = BOM_BYTES.len();
                self.validated = BOM_BYTES.len() as u64;
            }
            self.started = true;
        }
        self.drain_valid(out)
    }

    /// Signal end of stream. An incomplete trailing character is an
    /// error, exactly as it is for a whole-file decode.
    pub fn finish(&mut self, out: &mut String) -> Result<(), StrudelError> {
        self.started = true;
        if self.pending.is_empty() {
            return Ok(());
        }
        self.drain_valid(out)?;
        if self.pending.is_empty() {
            Ok(())
        } else {
            // Only an incomplete tail survives `drain_valid`.
            Err(self.decode_error(0))
        }
    }

    fn drain_valid(&mut self, out: &mut String) -> Result<(), StrudelError> {
        // The valid prefix is emitted even when the bytes after it are
        // invalid: the caller must be able to process everything up to
        // the error point first, so the error a given byte stream
        // surfaces never depends on how the stream was chunked.
        let (emit, invalid) = match std::str::from_utf8(&self.pending) {
            Ok(_) => (self.pending.len(), false),
            // `error_len() == None` is an incomplete trailing character:
            // held for the next chunk (at most 3 bytes of a 4-byte
            // sequence), not an error yet.
            Err(e) => (e.valid_up_to(), e.error_len().is_some()),
        };
        // SAFETY-free reslice: the prefix was just validated.
        let text = std::str::from_utf8(&self.pending[..emit]).expect("validated prefix");
        self.newlines += text.bytes().filter(|&b| b == b'\n').count() as u64;
        self.validated += emit as u64;
        out.push_str(text);
        self.pending.drain(..emit);
        if invalid {
            // `pending` now starts at the offending byte, so the error
            // payload is unchanged by the prefix emission above.
            return Err(self.decode_error(0));
        }
        debug_assert!(self.pending.len() <= 3);
        Ok(())
    }

    /// The [`crate::decode_utf8`]-parity error for an invalid sequence
    /// `valid_up_to` bytes into the held-back buffer.
    fn decode_error(&self, valid_up_to: usize) -> StrudelError {
        let extra_newlines = self.pending[..valid_up_to]
            .iter()
            .filter(|&&b| b == b'\n')
            .count() as u64;
        StrudelError::Parse {
            file: None,
            line: self.newlines + extra_newlines,
            byte: self.validated + valid_up_to as u64,
            reason: "invalid UTF-8".to_string(),
        }
    }
}

/// One state of the record walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    FieldStart,
    Unquoted,
    Quoted,
    QuoteInQuoted,
}

/// The chunk-resumable record walker: the one state machine behind
/// both the streaming classifier's record cuts and the raw field
/// geometry of [`raw_records`](crate::raw_records).
///
/// It walks the legacy parser's four-state machine ([`crate::legacy`])
/// with the same branch order — escapes consume the next character,
/// `\r\n` is one terminator, stray text after a closing quote stays in
/// the field — but records only byte ranges: each completed record is
/// lent to the caller as a [`RawRecord`] of raw field ranges (quotes
/// and escapes included) plus its [`Terminator`]. The walker reuses one
/// record buffer, so walking allocates nothing per record; callers copy
/// out what they keep. The `\r`/`\r\n` decision is
/// deferred to the next character, so feeding the same text in any
/// chunking produces the same records, and slicing the input at any
/// record's [`end`](RawRecord::end) splits it into independently
/// parseable record runs (every parser restarts at `FieldStart`
/// exactly as this walker does).
#[derive(Debug)]
pub struct RecordTracker {
    dialect: Dialect,
    state: State,
    /// Post-BOM byte offset of the next character.
    pos: usize,
    /// Post-BOM byte offset where the current field began.
    field_start: usize,
    /// The current record: the raw ranges of its completed fields.
    record: RawRecord,
    /// An escape character consumed the next character wholesale.
    skip_next: bool,
    /// A record-terminating `\r` at this offset awaits the pair
    /// decision (`\r\n` vs bare `\r`) from the next character.
    pending_cr: Option<usize>,
}

impl RecordTracker {
    /// A fresh tracker at offset 0 under `dialect`.
    pub fn new(dialect: Dialect) -> RecordTracker {
        RecordTracker {
            dialect,
            state: State::FieldStart,
            pos: 0,
            field_start: 0,
            record: RawRecord {
                fields: Vec::new(),
                term: Terminator::None,
            },
            skip_next: false,
            pending_cr: None,
        }
    }

    /// Post-BOM byte offset where the current (incomplete) record began.
    pub fn record_start(&self) -> usize {
        self.record
            .fields
            .first()
            .map_or(self.field_start, |f| f.start)
    }

    /// Walk one decoded piece (pieces must arrive contiguous), passing
    /// every completed record to `on_record`.
    pub fn feed(&mut self, piece: &str, mut on_record: impl FnMut(&RawRecord)) {
        for ch in piece.chars() {
            let idx = self.pos;
            self.pos += ch.len_utf8();
            if self.skip_next {
                self.skip_next = false;
                continue;
            }
            if let Some(cr) = self.pending_cr.take() {
                if ch == '\n' {
                    self.end_record(cr, cr + 2, Terminator::CrLf, &mut on_record);
                    continue;
                }
                // A bare `\r`: the current character opens the next
                // record and is processed normally below.
                self.end_record(cr, cr + 1, Terminator::Cr, &mut on_record);
            }
            self.step(idx, ch, &mut on_record);
        }
    }

    /// Signal end of input: a pending `\r` is resolved as a bare `\r`,
    /// and an unterminated trailing record is flushed with
    /// [`Terminator::None`].
    ///
    /// The flush follows the legacy parser's rule (a quote state at EOF
    /// still denotes a field, even an empty one), strengthened to flush
    /// whenever raw bytes are pending so the tiling invariant of
    /// [`raw_records`](crate::raw_records) holds byte for byte. The two
    /// rules differ only when the input ends in a lone escape character
    /// right after a record boundary: the value parsers drop that byte,
    /// the walker keeps it as one extra single-field record.
    pub fn finish(&mut self, mut on_record: impl FnMut(&RawRecord)) {
        if let Some(cr) = self.pending_cr.take() {
            self.end_record(cr, cr + 1, Terminator::Cr, &mut on_record);
        }
        if self.field_start < self.pos
            || !self.record.fields.is_empty()
            || matches!(self.state, State::Quoted | State::QuoteInQuoted)
        {
            self.end_record(self.pos, self.pos, Terminator::None, &mut on_record);
        }
    }

    /// Close the current field at `end`; the next one starts at `next`.
    fn end_field(&mut self, end: usize, next: usize) {
        self.record.fields.push(self.field_start..end);
        self.field_start = next;
        self.state = State::FieldStart;
    }

    fn end_record(
        &mut self,
        end: usize,
        next: usize,
        term: Terminator,
        on_record: &mut impl FnMut(&RawRecord),
    ) {
        self.end_field(end, next);
        self.record.term = term;
        on_record(&self.record);
        self.record.fields.clear();
    }

    /// One character through the state machine. Branch order within
    /// each state matches the legacy parser exactly, so exotic dialects
    /// (a delimiter of `\r`, a quote of `\n`) resolve the same way they
    /// do there.
    fn step(&mut self, idx: usize, ch: char, on_record: &mut impl FnMut(&RawRecord)) {
        let d = self.dialect;
        let next = idx + ch.len_utf8();
        match self.state {
            State::FieldStart => {
                if Some(ch) == d.quote {
                    self.state = State::Quoted;
                } else if ch == d.delimiter {
                    self.end_field(idx, next);
                } else if ch == '\n' {
                    self.end_record(idx, next, Terminator::Lf, on_record);
                } else if ch == '\r' {
                    self.pending_cr = Some(idx);
                } else if Some(ch) == d.escape {
                    self.skip_next = true;
                    self.state = State::Unquoted;
                } else {
                    self.state = State::Unquoted;
                }
            }
            State::Unquoted => {
                if ch == d.delimiter {
                    self.end_field(idx, next);
                } else if ch == '\n' {
                    self.end_record(idx, next, Terminator::Lf, on_record);
                } else if ch == '\r' {
                    self.pending_cr = Some(idx);
                } else if Some(ch) == d.escape {
                    self.skip_next = true;
                }
            }
            State::Quoted => {
                if Some(ch) == d.quote {
                    self.state = State::QuoteInQuoted;
                } else if Some(ch) == d.escape {
                    self.skip_next = true;
                }
            }
            State::QuoteInQuoted => {
                if Some(ch) == d.quote {
                    // Doubled quote: literal quote character.
                    self.state = State::Quoted;
                } else if ch == d.delimiter {
                    self.end_field(idx, next);
                } else if ch == '\n' {
                    self.end_record(idx, next, Terminator::Lf, on_record);
                } else if ch == '\r' {
                    self.pending_cr = Some(idx);
                } else {
                    // Stray content after a closing quote stays in the
                    // field; the file is malformed but we stay total.
                    self.state = State::Unquoted;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_utf8, raw_records, scan_records};

    fn feed_all(chunks: &[&[u8]]) -> Result<(String, Utf8Feeder), StrudelError> {
        let mut feeder = Utf8Feeder::new();
        let mut out = String::new();
        for c in chunks {
            feeder.push(c, &mut out)?;
        }
        feeder.finish(&mut out)?;
        Ok((out, feeder))
    }

    #[test]
    fn feeder_strips_bom_across_any_split() {
        let raw = "\u{FEFF}a,b\nc,d\n".as_bytes();
        for cut1 in 0..raw.len() {
            for cut2 in cut1..raw.len() {
                let (text, feeder) =
                    feed_all(&[&raw[..cut1], &raw[cut1..cut2], &raw[cut2..]]).unwrap();
                assert_eq!(text, "a,b\nc,d\n", "cuts {cut1}/{cut2}");
                assert_eq!(feeder.bom_len(), 3);
                assert_eq!(feeder.validated_bytes(), raw.len() as u64);
            }
        }
    }

    #[test]
    fn feeder_passes_multibyte_chars_split_at_every_offset() {
        let raw = "§α,緑\n€;x\n".as_bytes();
        for cut in 0..raw.len() {
            let (text, _) = feed_all(&[&raw[..cut], &raw[cut..]]).unwrap();
            assert_eq!(text, "§α,緑\n€;x\n", "cut {cut}");
        }
    }

    #[test]
    fn feeder_error_payload_matches_whole_file_decode() {
        // Invalid sequences both mid-stream and as a truncated tail, with
        // and without a BOM, at every split point.
        for raw in [
            &b"ab\ncd\xFF\xFEef"[..],
            &b"\xEF\xBB\xBFrow\n\x80x"[..],
            &b"ok\n\xE2\x82"[..], // truncated 3-byte char at EOF
            &b"\xEF\xBB"[..],     // truncated BOM at EOF
        ] {
            let want = decode_utf8(raw).unwrap_err();
            for cut in 0..raw.len() {
                let got = feed_all(&[&raw[..cut], &raw[cut..]]).unwrap_err();
                assert_eq!(format!("{got}"), format!("{want}"), "raw {raw:?} cut {cut}");
            }
        }
    }

    /// Walked records must agree with the full scanner: slicing the
    /// text at every record's `end()` yields a prefix that parses to
    /// exactly the first k records of the whole text, and the walk is
    /// chunk-invariant down to the raw field ranges — feeding the text
    /// in 1-, 2-, 3- or 7-byte chunks gives exactly [`raw_records`] of
    /// the whole text.
    fn check_ends(text: &str, dialect: &Dialect) {
        let whole = scan_records(text, dialect);
        let whole_lens: Vec<usize> = whole.iter().map(|r| r.len()).collect();
        for chunk in [1, 2, 3, 7, text.len().max(1)] {
            let mut tracker = RecordTracker::new(*dialect);
            let mut records = Vec::new();
            let mut fed = 0;
            while fed < text.len() {
                let mut hi = (fed + chunk).min(text.len());
                while !text.is_char_boundary(hi) {
                    hi += 1;
                }
                tracker.feed(&text[fed..hi], |r| records.push(r.clone()));
                fed = hi;
            }
            tracker.finish(|r| records.push(r.clone()));
            assert_eq!(
                records,
                raw_records(text, dialect),
                "{text:?} chunk {chunk}"
            );
            assert_eq!(records.len(), whole.n_records(), "{text:?}");
            for (i, r) in records.iter().enumerate() {
                assert!(r.end() <= text.len());
                assert_eq!(r.fields.len(), whole_lens[i], "{text:?} record {i}");
                let prefix = scan_records(&text[..r.end()], dialect);
                assert_eq!(prefix.n_records(), i + 1, "{text:?} record {i} {r:?}");
                let lens: Vec<usize> = prefix.iter().map(|r| r.len()).collect();
                assert_eq!(lens[..], whole_lens[..i + 1], "{text:?} record {i}");
            }
        }
    }

    #[test]
    fn tracker_boundaries_match_scanner_and_are_chunk_invariant() {
        let rfc = Dialect::rfc4180();
        for text in [
            "",
            "\n",
            "\r",
            "\r\n",
            "a,b\nc,d\n",
            "a\r\nb\rc\nd",
            "\"multi\nline\",x\n2,y\n",
            "\"quote \"\" inside\",z\nplain\n",
            "\"unterminated\nnever closes",
            "a,\"b\r\nc\",d\r\ne,f\r\n",
            "x\n\n\ny\n",
            "§α,緑\n€,x\n",
        ] {
            check_ends(text, &rfc);
        }
        let esc = Dialect {
            delimiter: ',',
            quote: Some('"'),
            escape: Some('\\'),
        };
        for text in ["a\\\nb,c\nd\n", "a\\", "\"x\\\"y\"\nz\n", "p\\,q\nr\n"] {
            check_ends(text, &esc);
        }
        let semi = Dialect::with_delimiter(';');
        check_ends("a;b\r\nc;\"d\re\"\r\n", &semi);
    }

    #[test]
    fn blank_detection_marks_empty_records() {
        let mut tracker = RecordTracker::new(Dialect::rfc4180());
        let mut blanks = Vec::new();
        let mut ends = Vec::new();
        let mut on_record = |r: &RawRecord| {
            blanks.push(r.is_blank());
            ends.push(r.end());
        };
        tracker.feed("a,b\n\nx\n\r\n", &mut on_record);
        tracker.finish(&mut on_record);
        assert_eq!(blanks, vec![false, true, false, true]);
        assert_eq!(ends[3], 9);
    }
}
