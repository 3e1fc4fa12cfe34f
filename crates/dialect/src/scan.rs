//! Zero-copy block-scanning CSV parser.
//!
//! The production parse path of the Strudel pipeline. Instead of walking
//! the input one `char` at a time and allocating an owned `String` per
//! field (the retained reference walker in [`crate::legacy`]), the
//! scanner classifies the input in 64-byte blocks using SWAR word tricks
//! (eight `u64` comparisons per block, no per-byte branching between
//! structural characters) and records each field as a **byte range into
//! the input buffer**. Fields whose parsed value equals a contiguous
//! slice of the input — the overwhelming majority in real CSV — are
//! never copied; only fields that need rewriting (doubled quotes, escape
//! sequences, stray content after a closing quote) take a copy-on-write
//! escape hatch and are unescaped on materialisation.
//!
//! The scanner preserves the forgiving RFC 4180 semantics of the legacy
//! walker **byte for byte**, including its quirks (line accounting after
//! a `\r\n` pair, escapes that bypass line checks, the EOF flush rules).
//! The differential parity harness — `tests/parity.rs`, the block-seam
//! fixtures, and the fuzz divergence check — holds the two paths equal
//! on arbitrary inputs, including [`Limits`] error kinds.
//!
//! [`Limits`] and [`Deadline`] enforcement live in the block loop:
//! rows/columns/cells are checked at field boundaries exactly as the
//! legacy walker does, while the per-character line-length and
//! quoted-field bounds are enforced by computing the *crossing position*
//! of each bound inside a run of plain bytes — the first character whose
//! end exceeds the bound, which is the character the legacy walker would
//! have failed on. The wall-clock deadline is polled once per 64 KiB of
//! classified blocks rather than per character.

use crate::dialect::Dialect;
use std::borrow::Cow;
use strudel_table::{Deadline, LimitKind, Limits, StrudelError};

/// Bytes of classified blocks between wall-clock deadline polls. The
/// legacy walker checks every 64Ki characters; a character is at least
/// one byte, so the scanner polls at least as often per unit of input.
pub(crate) const DEADLINE_CHECK_BYTES: usize = 1 << 16;

/// Bytes classified per SWAR step: eight `u64` words.
const BLOCK: usize = 64;

// ---------------------------------------------------------------------------
// Borrowed records
// ---------------------------------------------------------------------------

/// One parsed field: a byte range into the scanned input.
///
/// When `cow` is clear the field's value is literally `&text[start..end]`
/// (for quoted fields the range already excludes the enclosing quotes).
/// When `cow` is set the range covers the field's *raw* bytes and the
/// value is produced by re-running the single-field unescaper over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FieldSpan {
    start: usize,
    end: usize,
    cow: bool,
}

/// The zero-copy result of scanning one input: records of field spans
/// borrowed from the input buffer.
///
/// Produced by [`scan_records`] / [`try_scan_records_within`]. Field values are
/// materialised on demand as [`Cow`]s — borrowed for clean fields, owned
/// only for fields that required unescaping.
#[derive(Debug, Clone)]
pub struct RecordsRef<'a> {
    text: &'a str,
    dialect: Dialect,
    fields: Vec<FieldSpan>,
    /// `record_ends[i]` is one past the index of record `i`'s last field.
    record_ends: Vec<usize>,
}

impl<'a> RecordsRef<'a> {
    /// Number of records.
    pub fn n_records(&self) -> usize {
        self.record_ends.len()
    }

    /// Whether the scan produced no records at all.
    pub fn is_empty(&self) -> bool {
        self.record_ends.is_empty()
    }

    /// Total number of fields across all records.
    pub fn n_fields(&self) -> usize {
        self.fields.len()
    }

    /// Number of fields that take the copy-on-write path (doubled
    /// quotes, escapes, stray content after a closing quote). Exposed so
    /// benches and tests can assert the zero-copy ratio.
    pub fn n_cow_fields(&self) -> usize {
        self.fields.iter().filter(|f| f.cow).count()
    }

    /// The `i`-th record.
    ///
    /// # Panics
    /// Panics when `i >= n_records()`.
    pub fn record(&self, i: usize) -> RecordRef<'a, '_> {
        let lo = if i == 0 { 0 } else { self.record_ends[i - 1] };
        RecordRef {
            records: self,
            lo,
            hi: self.record_ends[i],
        }
    }

    /// Iterator over the records.
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'a, '_>> {
        (0..self.n_records()).map(|i| self.record(i))
    }

    /// Materialise every field as an owned `String` — the compatibility
    /// bridge to the legacy `Vec<Vec<String>>` representation used by
    /// [`crate::parse`].
    pub fn to_owned_rows(&self) -> Vec<Vec<String>> {
        self.iter()
            .map(|rec| rec.iter().map(Cow::into_owned).collect())
            .collect()
    }

    fn resolve(&self, f: FieldSpan) -> Cow<'a, str> {
        if f.cow {
            Cow::Owned(unescape_field(&self.text[f.start..f.end], &self.dialect))
        } else {
            Cow::Borrowed(&self.text[f.start..f.end])
        }
    }
}

/// One record of a [`RecordsRef`]: a view over its fields.
#[derive(Debug, Clone, Copy)]
pub struct RecordRef<'a, 'r> {
    records: &'r RecordsRef<'a>,
    lo: usize,
    hi: usize,
}

impl<'a> RecordRef<'a, '_> {
    /// Number of fields in the record.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the record has no fields (never true for scanned input:
    /// every record has at least one field).
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// The `j`-th field's value — borrowed from the input unless the
    /// field needed unescaping.
    ///
    /// # Panics
    /// Panics when `j >= len()`.
    pub fn field(&self, j: usize) -> Cow<'a, str> {
        assert!(j < self.len(), "field index out of bounds");
        self.records.resolve(self.records.fields[self.lo + j])
    }

    /// Iterator over the record's field values.
    pub fn iter(&self) -> impl Iterator<Item = Cow<'a, str>> + '_ {
        self.records.fields[self.lo..self.hi]
            .iter()
            .map(|&f| self.records.resolve(f))
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Scan `text` into borrowed records under `dialect`, without resource
/// limits. Like [`crate::parse`], the scan itself never fails.
pub fn scan_records<'a>(text: &'a str, dialect: &Dialect) -> RecordsRef<'a> {
    try_scan_records_within(text, dialect, &Limits::unbounded(), Deadline::none())
        .expect("unbounded scan cannot fail")
}

/// [`scan_records`] with [`Limits`] enforced while scanning and an
/// explicit wall-clock [`Deadline`].
pub fn try_scan_records_within<'a>(
    text: &'a str,
    dialect: &Dialect,
    limits: &Limits,
    deadline: Deadline,
) -> Result<RecordsRef<'a>, StrudelError> {
    if let Some(max) = limits.max_input_bytes {
        if text.len() as u64 > max {
            return Err(StrudelError::limit(
                LimitKind::InputBytes,
                text.len() as u64,
                max,
            ));
        }
    }
    let mut sink = Sink::new(limits);
    if let Some(sp) = Specials::of(dialect) {
        scan_blocks(text, dialect, &sp, limits, deadline, &mut sink)?;
    } else {
        scan_scalar(text, dialect, limits, deadline, &mut sink)?;
    }
    Ok(RecordsRef {
        text,
        dialect: *dialect,
        fields: sink.fields,
        record_ends: sink.record_ends,
    })
}

// ---------------------------------------------------------------------------
// Shared field/record bookkeeping
// ---------------------------------------------------------------------------

/// Accumulates spans under the streaming row/column/cell bounds, with
/// the exact check order (and `actual` values) of the legacy walker.
struct Sink<'l> {
    limits: &'l Limits,
    fields: Vec<FieldSpan>,
    record_ends: Vec<usize>,
    /// Fields in the record currently being built.
    record_len: usize,
    n_cells: u64,
}

impl<'l> Sink<'l> {
    fn new(limits: &'l Limits) -> Sink<'l> {
        Sink {
            limits,
            fields: Vec::new(),
            record_ends: Vec::new(),
            record_len: 0,
            n_cells: 0,
        }
    }

    fn end_field(&mut self, span: FieldSpan) -> Result<(), StrudelError> {
        if let Some(max) = self.limits.max_cols {
            if self.record_len as u64 >= max {
                return Err(StrudelError::limit(
                    LimitKind::Cols,
                    self.record_len as u64 + 1,
                    max,
                ));
            }
        }
        self.n_cells += 1;
        if let Some(max) = self.limits.max_cells {
            if self.n_cells > max {
                return Err(StrudelError::limit(LimitKind::Cells, self.n_cells, max));
            }
        }
        self.fields.push(span);
        self.record_len += 1;
        Ok(())
    }

    fn end_record(&mut self, span: FieldSpan) -> Result<(), StrudelError> {
        self.end_field(span)?;
        if let Some(max) = self.limits.max_rows {
            if self.record_ends.len() as u64 >= max {
                return Err(StrudelError::limit(
                    LimitKind::Rows,
                    self.record_ends.len() as u64 + 1,
                    max,
                ));
            }
        }
        self.record_ends.push(self.fields.len());
        self.record_len = 0;
        Ok(())
    }

    /// EOF flush: mirror of the legacy trailing-record rule, which
    /// applies **no** limit checks.
    fn flush(&mut self, span: FieldSpan, in_quote_state: bool, output_empty: bool) {
        if in_quote_state || !output_empty || self.record_len > 0 {
            self.fields.push(span);
            self.record_ends.push(self.fields.len());
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    FieldStart,
    Unquoted,
    Quoted,
    QuoteInQuoted,
}

/// Per-field scanner bookkeeping.
#[derive(Clone, Copy, Debug)]
struct Field {
    /// Raw start of the field (at the opening quote, if any).
    start: usize,
    /// Start of the clean content slice (after the opening quote).
    content_start: usize,
    /// The parsed value differs from a contiguous input slice.
    cow: bool,
    /// Raw bytes inside the content region that do not reach the output
    /// (escape characters, the first quote of each doubled pair). Used
    /// for the quoted-field length bound: output bytes at raw position
    /// `p` equal `p - content_start - removed`.
    removed: usize,
    /// Position of the candidate closing quote (`QuoteInQuoted` only).
    quote_close: usize,
}

impl Field {
    fn at(start: usize) -> Field {
        Field {
            start,
            content_start: start,
            cow: false,
            removed: 0,
            quote_close: 0,
        }
    }

    /// The span of the finished field, `end` being the terminator (or
    /// EOF) position.
    fn span(&self, state: State, end: usize) -> FieldSpan {
        if self.cow {
            FieldSpan {
                start: self.start,
                end,
                cow: true,
            }
        } else {
            let end = if state == State::QuoteInQuoted {
                self.quote_close
            } else {
                end
            };
            FieldSpan {
                start: self.content_start,
                end,
                cow: false,
            }
        }
    }
}

/// Re-parse one field's raw bytes into its value: the single-field
/// projection of the legacy state machine (no terminators occur at
/// terminator-effective states inside a recorded span, so the walk is
/// total). Only called for copy-on-write fields.
fn unescape_field(raw: &str, dialect: &Dialect) -> String {
    let mut field = String::with_capacity(raw.len());
    let mut state = State::FieldStart;
    let mut chars = raw.chars();
    while let Some(ch) = chars.next() {
        match state {
            State::FieldStart => {
                if Some(ch) == dialect.quote {
                    state = State::Quoted;
                } else if Some(ch) == dialect.escape {
                    if let Some(next) = chars.next() {
                        field.push(next);
                    }
                    state = State::Unquoted;
                } else {
                    field.push(ch);
                    state = State::Unquoted;
                }
            }
            State::Unquoted => {
                if Some(ch) == dialect.escape {
                    if let Some(next) = chars.next() {
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
                    if let Some(next) = chars.next() {
                        field.push(next);
                    }
                } else {
                    field.push(ch);
                }
            }
            State::QuoteInQuoted => {
                if Some(ch) == dialect.quote {
                    field.push(ch);
                    state = State::Quoted;
                } else {
                    field.push(ch);
                    state = State::Unquoted;
                }
            }
        }
    }
    field
}

/// Whether a span's materialised value is empty — the legacy
/// `field.is_empty()` of the EOF flush rule.
fn span_output_empty(text: &str, dialect: &Dialect, span: &FieldSpan) -> bool {
    if span.cow {
        unescape_field(&text[span.start..span.end], dialect).is_empty()
    } else {
        span.start == span.end
    }
}

// ---------------------------------------------------------------------------
// Limit crossing checks
// ---------------------------------------------------------------------------

/// Smallest character end `e` with `start < e <= end` and `e > t`, or
/// `None` when no character of `[start, end)` ends past `t`. This is the
/// position at which the legacy per-character walker first observes a
/// monotone byte bound exceeded inside a run of plain characters.
fn first_end_exceeding(text: &str, start: usize, end: usize, t: u64) -> Option<u64> {
    if start >= end || end as u64 <= t {
        return None;
    }
    let mut e = if (start as u64) > t {
        start + 1
    } else {
        (t + 1) as usize
    };
    while e < end && !text.is_char_boundary(e) {
        e += 1;
    }
    Some(e as u64)
}

/// Check the line-length bound over the raw run `[start, line_end)` and,
/// when `quote_active`, the quoted-field bound over `[start, quote_end)`,
/// reporting whichever a per-character walker would trip first (the
/// legacy walker checks the line bound before the field bound at each
/// character, so ties go to the line bound).
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_checks(
    text: &str,
    limits: &Limits,
    start: usize,
    quote_active: bool,
    quote_end: usize,
    line_end: usize,
    line_start: usize,
    content_start: usize,
    removed: usize,
) -> Result<(), StrudelError> {
    let e_line = limits
        .max_line_bytes
        .and_then(|max| first_end_exceeding(text, start, line_end, line_start as u64 + max));
    let e_quote = if quote_active {
        limits.max_quoted_field_bytes.and_then(|max| {
            first_end_exceeding(
                text,
                start,
                quote_end,
                content_start as u64 + removed as u64 + max,
            )
        })
    } else {
        None
    };
    match (e_line, e_quote) {
        (Some(el), eq) if eq.is_none() || el <= eq.unwrap() => Err(StrudelError::limit(
            LimitKind::LineBytes,
            el - line_start as u64,
            limits.max_line_bytes.unwrap(),
        )),
        (_, Some(eq)) => Err(StrudelError::limit(
            LimitKind::QuotedFieldBytes,
            eq - content_start as u64 - removed as u64,
            limits.max_quoted_field_bytes.unwrap(),
        )),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// SWAR block classification
// ---------------------------------------------------------------------------

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

#[inline]
fn splat(b: u8) -> u64 {
    LO * b as u64
}

/// High bit set in every byte of `w` equal to the splatted byte `s`.
///
/// Uses the exact zero-byte test `!(((x | HI) - LO) | x) & HI`: because
/// `x | HI` sets the top bit of every byte, subtracting `0x01` from each
/// byte can never borrow across byte lanes, so — unlike the shorter
/// `(x - LO) & !x & HI` form — bytes *above* a matching byte are never
/// falsely flagged. (The short form is only guaranteed for the least
/// significant match, which is not enough here: the scanner consumes
/// events one at a time from a cached block mask, so a phantom upper bit
/// would surface as a spurious structural byte.)
#[inline]
fn match_mask(w: u64, s: u64) -> u64 {
    let x = w ^ s;
    !(((x | HI).wrapping_sub(LO)) | x) & HI
}

/// Compress the high bits of `m` (one per byte) into the low 8 bits.
#[inline]
fn movemask(m: u64) -> u64 {
    ((m >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

/// Splatted structural bytes of an ASCII dialect, for the block path.
struct Specials {
    delim: u64,
    quote: u64,
    quote_en: u64,
    escape: u64,
    escape_en: u64,
    nl: u64,
    cr: u64,
}

impl Specials {
    /// The block path requires every structural character to be a
    /// single ASCII byte, non-NUL (the tail block is zero-padded) and
    /// distinct from the line-break bytes (whose top-of-loop line
    /// accounting the legacy walker applies regardless of dialect
    /// role). Anything else — exotic, but expressible through the
    /// public [`Dialect`] — takes the scalar fallback.
    fn of(dialect: &Dialect) -> Option<Specials> {
        fn in_range(c: char) -> bool {
            let v = c as u32;
            (1..=0x7F).contains(&v) && c != '\n' && c != '\r'
        }
        if !in_range(dialect.delimiter) {
            return None;
        }
        for c in [dialect.quote, dialect.escape].into_iter().flatten() {
            if !in_range(c) {
                return None;
            }
        }
        let delim = splat(dialect.delimiter as u8);
        Some(Specials {
            delim,
            quote: dialect.quote.map_or(delim, |c| splat(c as u8)),
            quote_en: if dialect.quote.is_some() { !0 } else { 0 },
            escape: dialect.escape.map_or(delim, |c| splat(c as u8)),
            escape_en: if dialect.escape.is_some() { !0 } else { 0 },
            nl: splat(b'\n'),
            cr: splat(b'\r'),
        })
    }

    /// 64-bit mask of structural bytes in the block at `base` (bit `i`
    /// set when byte `base + i` is structural). The tail block is
    /// zero-padded; NUL is never structural here.
    #[inline]
    fn classify(&self, bytes: &[u8], base: usize) -> u64 {
        let mut buf = [0u8; BLOCK];
        let chunk: &[u8] = if base + BLOCK <= bytes.len() {
            &bytes[base..base + BLOCK]
        } else {
            let n = bytes.len() - base;
            buf[..n].copy_from_slice(&bytes[base..]);
            &buf
        };
        let mut mask = 0u64;
        for i in 0..BLOCK / 8 {
            let w = u64::from_le_bytes(chunk[i * 8..i * 8 + 8].try_into().unwrap());
            let m = match_mask(w, self.delim)
                | match_mask(w, self.nl)
                | match_mask(w, self.cr)
                | (match_mask(w, self.quote) & self.quote_en)
                | (match_mask(w, self.escape) & self.escape_en);
            mask |= movemask(m) << (8 * i);
        }
        mask
    }
}

/// Length in bytes of the UTF-8 character starting with `b` (input is
/// valid UTF-8, so `b` is a leading byte).
#[inline]
fn char_len(b: u8) -> usize {
    match b {
        0..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// Block scanner
// ---------------------------------------------------------------------------

/// Run the SWAR block scanner over `text`, emitting fields/records into
/// `sink`, then apply the EOF tail: resolve a pending close-quote
/// followed by trailing plain bytes, run the final bound checks over the
/// trailing run, and flush the trailing field per the legacy rules (the
/// flush itself applies **no** limit checks).
fn scan_blocks(
    text: &str,
    dialect: &Dialect,
    sp: &Specials,
    limits: &Limits,
    deadline: Deadline,
    sink: &mut Sink,
) -> Result<(), StrudelError> {
    let bytes = text.as_bytes();
    let len = bytes.len();
    let delim = dialect.delimiter as u8;
    let quote = dialect.quote.map(|c| c as u8);
    let escape = dialect.escape.map(|c| c as u8);

    let mut state = State::FieldStart;
    let mut fs = Field::at(0);
    let mut line_start: usize = 0;
    // Everything before this offset has been line/field-bound checked
    // (or was legitimately skipped, exactly as the legacy walker skips
    // escaped characters and the `\n` of a `\r\n` pair).
    let mut checked_to: usize = 0;
    let mut pos: usize = 0;
    let mut cached_block = usize::MAX;
    let mut mask = 0u64;
    let mut bytes_since_deadline: usize = 0;

    // With no byte bounds configured (the common case — detection scans
    // candidates unbounded), skip the per-event check call entirely.
    let bounded = limits.max_line_bytes.is_some() || limits.max_quoted_field_bytes.is_some();

    macro_rules! checks {
        ($quote_end:expr, $line_end:expr) => {
            if bounded {
                run_checks(
                    text,
                    limits,
                    checked_to,
                    state == State::Quoted,
                    $quote_end,
                    $line_end,
                    line_start,
                    fs.content_start,
                    fs.removed,
                )?
            }
        };
    }

    // Shared tail of the three record-terminator arms.
    macro_rules! record_end {
        ($p:expr, $b:expr) => {{
            checks!($p, $p);
            let after = terminator_end(bytes, $p, $b);
            sink.end_record(fs.span(state, $p))?;
            line_start = $p + 1;
            state = State::FieldStart;
            fs = Field::at(after);
            checked_to = after;
            pos = after;
        }};
    }

    'scan: while pos < len {
        // Locate the next structural byte at or after `pos`. The tail
        // block is zero-padded and NUL is never structural, so every
        // event lies inside the input.
        let p = loop {
            let base = pos - pos % BLOCK;
            if base != cached_block {
                cached_block = base;
                mask = sp.classify(bytes, base);
                bytes_since_deadline += BLOCK;
                if bytes_since_deadline >= DEADLINE_CHECK_BYTES {
                    bytes_since_deadline = 0;
                    deadline.check()?;
                }
            }
            let pending = mask & (!0u64 << (pos - base));
            if pending != 0 {
                break base + pending.trailing_zeros() as usize;
            }
            pos = base + BLOCK;
            if pos >= len {
                break 'scan;
            }
        };
        let b = bytes[p];

        // Resolve a pending close-quote when plain bytes followed it:
        // stray content after a closing quote reopens the field as
        // unquoted, copy-on-write content.
        if state == State::QuoteInQuoted && p > fs.quote_close + 1 {
            state = State::Unquoted;
            fs.cow = true;
        }
        // Plain bytes at the start of a field make it an unquoted one.
        if state == State::FieldStart && p > fs.start {
            state = State::Unquoted;
        }

        let is_quote = quote == Some(b);
        let is_escape = escape == Some(b);
        match state {
            State::FieldStart => {
                // `p == fs.start`: the field begins with this byte.
                if is_quote {
                    checks!(p, p + 1);
                    state = State::Quoted;
                    fs.content_start = p + 1;
                    checked_to = p + 1;
                    pos = p + 1;
                } else if b == delim {
                    checks!(p, p + 1);
                    sink.end_field(fs.span(state, p))?;
                    fs = Field::at(p + 1);
                    checked_to = p + 1;
                    pos = p + 1;
                } else if b == b'\n' || b == b'\r' {
                    record_end!(p, b);
                } else {
                    // Escape opening the field: the escaped character is
                    // consumed without line accounting, like the legacy
                    // walker's `chars.next()` bypass.
                    debug_assert!(is_escape);
                    checks!(p, p + 1);
                    fs.cow = true;
                    state = State::Unquoted;
                    let after = if p + 1 < len {
                        p + 1 + char_len(bytes[p + 1])
                    } else {
                        p + 1
                    };
                    checked_to = after;
                    pos = after;
                }
            }
            State::Unquoted => {
                if b == delim {
                    checks!(p, p + 1);
                    sink.end_field(fs.span(state, p))?;
                    state = State::FieldStart;
                    fs = Field::at(p + 1);
                    checked_to = p + 1;
                    pos = p + 1;
                } else if b == b'\n' || b == b'\r' {
                    record_end!(p, b);
                } else if is_escape {
                    checks!(p, p + 1);
                    fs.cow = true;
                    let after = if p + 1 < len {
                        p + 1 + char_len(bytes[p + 1])
                    } else {
                        p + 1
                    };
                    checked_to = after;
                    pos = after;
                } else {
                    // Literal quote character inside an unquoted field:
                    // plain content, stays part of the pending run.
                    pos = p + 1;
                }
            }
            State::Quoted => {
                if is_quote {
                    checks!(p, p + 1);
                    state = State::QuoteInQuoted;
                    fs.quote_close = p;
                    checked_to = p + 1;
                    pos = p + 1;
                } else if is_escape {
                    checks!(p, p + 1);
                    fs.cow = true;
                    fs.removed += 1;
                    let after = if p + 1 < len {
                        p + 1 + char_len(bytes[p + 1])
                    } else {
                        p + 1
                    };
                    // The escaped character lands in the field, so the
                    // quoted-field bound applies to it (the legacy
                    // walker checks after the push).
                    if after > p + 1 {
                        if let Some(max) = limits.max_quoted_field_bytes {
                            let out = (after - fs.content_start - fs.removed) as u64;
                            if out > max {
                                return Err(StrudelError::limit(
                                    LimitKind::QuotedFieldBytes,
                                    out,
                                    max,
                                ));
                            }
                        }
                    }
                    checked_to = after;
                    pos = after;
                } else if b == b'\n' || b == b'\r' {
                    // Embedded line break: content, but line accounting
                    // restarts and the field bound sees the pushed byte.
                    checks!(p, p);
                    line_start = p + 1;
                    if let Some(max) = limits.max_quoted_field_bytes {
                        let out = (p + 1 - fs.content_start - fs.removed) as u64;
                        if out > max {
                            return Err(StrudelError::limit(LimitKind::QuotedFieldBytes, out, max));
                        }
                    }
                    checked_to = p + 1;
                    pos = p + 1;
                } else {
                    // Delimiter inside quotes: plain content.
                    pos = p + 1;
                }
            }
            State::QuoteInQuoted => {
                // `p == fs.quote_close + 1` (a gap was resolved above).
                if is_quote {
                    // Doubled quote: one literal quote reaches the output.
                    checks!(p, p + 1);
                    fs.cow = true;
                    fs.removed += 1;
                    state = State::Quoted;
                    checked_to = p + 1;
                    pos = p + 1;
                } else if b == delim {
                    checks!(p, p + 1);
                    sink.end_field(fs.span(state, p))?;
                    state = State::FieldStart;
                    fs = Field::at(p + 1);
                    checked_to = p + 1;
                    pos = p + 1;
                } else if b == b'\n' || b == b'\r' {
                    record_end!(p, b);
                } else {
                    // Stray escape character directly after the closing
                    // quote: the legacy walker pushes it literally (its
                    // `QuoteInQuoted` arm knows no escapes).
                    debug_assert!(is_escape);
                    checks!(p, p + 1);
                    fs.cow = true;
                    state = State::Unquoted;
                    checked_to = p + 1;
                    pos = p + 1;
                }
            }
        }
    }

    if state == State::QuoteInQuoted && len > fs.quote_close + 1 {
        state = State::Unquoted;
        fs.cow = true;
    }
    run_checks(
        text,
        limits,
        checked_to,
        state == State::Quoted,
        len,
        len,
        line_start,
        fs.content_start,
        fs.removed,
    )?;
    let span = fs.span(state, len);
    let in_quote_state = state == State::Quoted || state == State::QuoteInQuoted;
    let empty = span_output_empty(text, dialect, &span);
    sink.flush(span, in_quote_state, empty);
    Ok(())
}

/// One past the end of a record terminator starting at `p`: consumes
/// the `\n` of a `\r\n` pair.
#[inline]
fn terminator_end(bytes: &[u8], p: usize, b: u8) -> usize {
    if b == b'\r' && bytes.get(p + 1) == Some(&b'\n') {
        p + 2
    } else {
        p + 1
    }
}

// ---------------------------------------------------------------------------
// Scalar fallback (non-ASCII or line-break structural characters)
// ---------------------------------------------------------------------------

/// Character-at-a-time span scanner: a direct port of the legacy walker
/// that records spans instead of pushing into a `String`. Handles every
/// dialect expressible through [`Dialect`], including multi-byte or
/// line-break structural characters.
fn scan_scalar(
    text: &str,
    dialect: &Dialect,
    limits: &Limits,
    deadline: Deadline,
    sink: &mut Sink,
) -> Result<(), StrudelError> {
    let mut chars = text.char_indices().peekable();
    let mut state = State::FieldStart;
    let mut fs = Field::at(0);
    // Output bytes of the current field so far (the legacy `field.len()`).
    let mut out_len: usize = 0;
    let mut line_start: usize = 0;
    let mut since_deadline_check: usize = 0;

    macro_rules! reset_field {
        ($start:expr) => {{
            fs = Field::at($start);
            out_len = 0;
        }};
    }

    while let Some((idx, ch)) = chars.next() {
        since_deadline_check += 1;
        if since_deadline_check >= crate::legacy::DEADLINE_CHECK_INTERVAL {
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
                    fs.content_start = idx + ch.len_utf8();
                } else if ch == dialect.delimiter {
                    sink.end_field(fs.span(state, idx))?;
                    reset_field!(idx + ch.len_utf8());
                } else if ch == '\n' || ch == '\r' {
                    if ch == '\r' && chars.peek().map(|&(_, c)| c) == Some('\n') {
                        chars.next();
                    }
                    let after =
                        idx + 1 + usize::from(ch == '\r' && text[idx + 1..].starts_with('\n'));
                    sink.end_record(fs.span(state, idx))?;
                    reset_field!(after);
                } else if Some(ch) == dialect.escape {
                    if let Some((_, next)) = chars.next() {
                        out_len += next.len_utf8();
                    }
                    fs.cow = true;
                    state = State::Unquoted;
                } else {
                    out_len += ch.len_utf8();
                    state = State::Unquoted;
                }
            }
            State::Unquoted => {
                if ch == dialect.delimiter {
                    sink.end_field(fs.span(state, idx))?;
                    state = State::FieldStart;
                    reset_field!(idx + ch.len_utf8());
                } else if ch == '\n' || ch == '\r' {
                    if ch == '\r' && chars.peek().map(|&(_, c)| c) == Some('\n') {
                        chars.next();
                    }
                    let after =
                        idx + 1 + usize::from(ch == '\r' && text[idx + 1..].starts_with('\n'));
                    sink.end_record(fs.span(state, idx))?;
                    state = State::FieldStart;
                    reset_field!(after);
                } else if Some(ch) == dialect.escape {
                    if let Some((_, next)) = chars.next() {
                        out_len += next.len_utf8();
                    }
                    fs.cow = true;
                } else {
                    out_len += ch.len_utf8();
                }
            }
            State::Quoted => {
                if Some(ch) == dialect.quote {
                    state = State::QuoteInQuoted;
                    fs.quote_close = idx;
                } else if Some(ch) == dialect.escape {
                    if let Some((_, next)) = chars.next() {
                        out_len += next.len_utf8();
                    }
                    fs.cow = true;
                } else {
                    out_len += ch.len_utf8();
                }
                if let Some(max) = limits.max_quoted_field_bytes {
                    if out_len as u64 > max {
                        return Err(StrudelError::limit(
                            LimitKind::QuotedFieldBytes,
                            out_len as u64,
                            max,
                        ));
                    }
                }
            }
            State::QuoteInQuoted => {
                if Some(ch) == dialect.quote {
                    out_len += ch.len_utf8();
                    fs.cow = true;
                    fs.removed += 1;
                    state = State::Quoted;
                } else if ch == dialect.delimiter {
                    sink.end_field(fs.span(state, idx))?;
                    state = State::FieldStart;
                    reset_field!(idx + ch.len_utf8());
                } else if ch == '\n' || ch == '\r' {
                    if ch == '\r' && chars.peek().map(|&(_, c)| c) == Some('\n') {
                        chars.next();
                    }
                    let after =
                        idx + 1 + usize::from(ch == '\r' && text[idx + 1..].starts_with('\n'));
                    sink.end_record(fs.span(state, idx))?;
                    state = State::FieldStart;
                    reset_field!(after);
                } else {
                    out_len += ch.len_utf8();
                    fs.cow = true;
                    state = State::Unquoted;
                }
            }
        }
    }

    let span = fs.span(state, text.len());
    let in_quote_state = state == State::Quoted || state == State::QuoteInQuoted;
    sink.flush(span, in_quote_state, out_len == 0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legacy::parse_legacy;

    fn owned(text: &str, dialect: &Dialect) -> Vec<Vec<String>> {
        scan_records(text, dialect).to_owned_rows()
    }

    #[test]
    fn swar_match_mask_finds_exact_bytes() {
        let w = u64::from_le_bytes(*b"a,b,c,,x");
        let m = match_mask(w, splat(b','));
        assert_eq!(movemask(m), 0b0110_1010);
        assert_eq!(match_mask(w, splat(b'z')), 0);
    }

    #[test]
    fn classify_marks_every_structural_byte() {
        let sp = Specials::of(&Dialect::rfc4180()).unwrap();
        let text = b"ab,cd\"e\nf\rgh";
        let mask = sp.classify(text, 0);
        let expect: u64 = (1 << 2) | (1 << 5) | (1 << 7) | (1 << 9);
        assert_eq!(mask, expect);
    }

    #[test]
    fn classify_zero_pads_the_tail_block() {
        let sp = Specials::of(&Dialect::rfc4180()).unwrap();
        assert_eq!(sp.classify(b"x,y", 0), 1 << 1);
    }

    #[test]
    fn clean_fields_borrow_from_the_input() {
        let text = "alpha,\"quoted,field\",tail\n";
        let records = scan_records(text, &Dialect::rfc4180());
        assert_eq!(records.n_records(), 1);
        assert_eq!(records.n_cow_fields(), 0);
        let rec = records.record(0);
        assert!(matches!(rec.field(0), Cow::Borrowed("alpha")));
        assert!(matches!(rec.field(1), Cow::Borrowed("quoted,field")));
        assert!(matches!(rec.field(2), Cow::Borrowed("tail")));
    }

    #[test]
    fn doubled_quotes_take_the_cow_path() {
        let text = "\"say \"\"hi\"\"\",x\n";
        let records = scan_records(text, &Dialect::rfc4180());
        assert_eq!(records.n_cow_fields(), 1);
        let rec = records.record(0);
        assert_eq!(rec.field(0), "say \"hi\"");
        assert!(matches!(rec.field(1), Cow::Borrowed("x")));
    }

    #[test]
    fn matches_legacy_on_edge_inputs() {
        let d = Dialect::rfc4180();
        for text in [
            "",
            "\n",
            "a,b",
            ",,\n",
            "\"a\nb\",c\n",
            "a\r\nb\rc\n",
            "\"abc\ndef",
            "\"ab\"cd,e\n",
            "\"\"",
            "\"",
            "a,\"\"",
            "x,\"quote \"\" inside\",y\n",
        ] {
            assert_eq!(owned(text, &d), parse_legacy(text, &d), "input {text:?}");
        }
    }

    #[test]
    fn escape_dialect_matches_legacy() {
        let d = Dialect {
            delimiter: ',',
            quote: Some('"'),
            escape: Some('\\'),
        };
        for text in ["a\\,b,c\n", "\\", "a,\\", "\"a\\\"b\",c\n", "a\\"] {
            assert_eq!(owned(text, &d), parse_legacy(text, &d), "input {text:?}");
        }
    }

    #[test]
    fn non_ascii_dialect_takes_the_scalar_path_and_matches() {
        let d = Dialect {
            delimiter: '\u{00A7}', // section sign, multi-byte in UTF-8
            quote: Some('"'),
            escape: None,
        };
        assert!(Specials::of(&d).is_none());
        for text in ["a\u{00A7}b\nc\u{00A7}d\n", "\"x\u{00A7}y\"\u{00A7}z"] {
            assert_eq!(owned(text, &d), parse_legacy(text, &d), "input {text:?}");
        }
    }

    #[test]
    fn limits_match_legacy_kinds_and_counts() {
        use crate::legacy::try_parse_legacy;
        let d = Dialect::rfc4180();
        let mut limits = Limits::unbounded();
        limits.max_rows = Some(2);
        let text = "a\nb\nc\n";
        let (a, b) = (
            try_parse_legacy(text, &d, &limits).unwrap_err(),
            try_scan_records_within(text, &d, &limits, Deadline::none()).unwrap_err(),
        );
        match (a, b) {
            (
                StrudelError::LimitExceeded {
                    limit: la,
                    actual: aa,
                    max: ma,
                    ..
                },
                StrudelError::LimitExceeded {
                    limit: lb,
                    actual: ab,
                    max: mb,
                    ..
                },
            ) => {
                assert_eq!(la, lb);
                assert_eq!(aa, ab);
                assert_eq!(ma, mb);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn line_bound_crossing_matches_legacy_actual() {
        use crate::legacy::try_parse_legacy;
        let d = Dialect::rfc4180();
        let mut limits = Limits::unbounded();
        limits.max_line_bytes = Some(8);
        let text = format!("{}\n", "x".repeat(32));
        let a = try_parse_legacy(&text, &d, &limits).unwrap_err();
        let b = try_scan_records_within(&text, &d, &limits, Deadline::none()).unwrap_err();
        assert_eq!(format!("{a}"), format!("{b}"));
    }

    #[test]
    fn record_iteration_is_consistent() {
        let records = scan_records("a,b\nc\n", &Dialect::rfc4180());
        assert_eq!(records.n_records(), 2);
        assert_eq!(records.record(0).len(), 2);
        assert_eq!(records.record(1).len(), 1);
        let lens: Vec<usize> = records.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![2, 1]);
        assert_eq!(records.n_fields(), 3);
    }
}
