//! Bounded-memory streaming classification.
//!
//! [`StreamClassifier`] classifies a byte stream of unknown length with
//! peak memory proportional to the configured window, not to the input:
//! the dialect is detected on a bounded prefix, bytes flow through the
//! incremental UTF-8 validator and record-boundary tracker of
//! [`strudel_dialect::stream`], and whenever a window's worth of
//! complete records has accumulated the window is classified as an
//! independent document (preferring to cut at blank-line table
//! boundaries) and emitted — line classes, [`Structure`], and extracted
//! relational tables — while its text is dropped from the buffer.
//!
//! **Parity contract.** The output is a pure function of the byte
//! stream and the [`StreamConfig`] — never of how the stream was
//! chunked. A stream that ends before the first window closes (every
//! file smaller than the window, in particular the whole golden corpus
//! under the default configuration) is classified by the *exact*
//! whole-file pipeline over the buffered bytes, so its output —
//! including every limit/deadline error payload — is byte-identical to
//! [`Strudel::try_detect_structure_bytes`]. Dialect detection runs
//! exactly once per input: when the stream crossed the prefix threshold
//! the fallback reuses the prefix-detected dialect rather than
//! re-detecting (detection is bounded by its line budget, so both see
//! the same sample on any input large enough to fill the prefix). Once
//! a stream spans several
//! windows, whole-file identity is impossible by construction (the
//! paper's line features aggregate over the whole file), so each window
//! is classified independently under the prefix-detected dialect; the
//! differential harness then proves every emitted window equals
//! [`Strudel::detect`] re-run with that dialect on the window's slice
//! of the original text.
//!
//! **Limit semantics** (documented divergence from whole-file mode):
//! [`Limits::max_input_bytes`] caps each *window*, not the stream — use
//! [`StreamConfig::max_total_bytes`] to cap the whole stream (checked
//! at record boundaries and at end of stream, `actual` = post-BOM bytes
//! up to the violating boundary). Whole-file mode reports errors in
//! phase order (size cap, then binary check, then dialect, then scan);
//! the multi-window streaming path reports them in stream offset order.
//! Bounded memory itself relies on bounded records: a single record
//! larger than a full window triggers a guarded re-scan of the buffer
//! so `max_line_bytes`/`max_quoted_field_bytes` fire as usual, but with
//! unbounded limits such a record is buffered whole.

use crate::extract::{to_relational, RelationalTable};
use crate::json::dialect_json;
use crate::metrics::{Stage, StageTimer, StageTimings};
use crate::pipeline::{Structure, Strudel};
use std::time::{Duration, Instant};
use strudel_dialect::stream::{RecordEnd, RecordTracker, Utf8Feeder};
use strudel_dialect::{try_detect_dialect, try_scan_records_within, Dialect};
use strudel_table::{Deadline, LimitKind, Limits, StrudelError};

/// Default chunk size used by [`classify_reader`].
pub const STREAM_CHUNK_BYTES: usize = 256 << 10;

/// Configuration of a streaming classification run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Soft cap on records per window. A window becomes closable once
    /// it holds this many records (or [`window_bytes`] worth of them)
    /// and then closes at the next blank record — a table boundary — or
    /// at twice the cap, whichever comes first.
    ///
    /// [`window_bytes`]: StreamConfig::window_bytes
    pub window_rows: usize,
    /// Soft cap on bytes per window (same closing rule as
    /// [`window_rows`](StreamConfig::window_rows); the hard cap is
    /// twice this).
    pub window_bytes: usize,
    /// Bytes buffered before the dialect is detected on the prefix
    /// (trimmed to the last complete line). Streams that end earlier
    /// take the whole-file path outright.
    pub prefix_bytes: usize,
    /// Post-BOM byte cap on the *whole stream*, enforced at record
    /// boundaries and at end of stream. This is the streaming
    /// equivalent of the whole-file `max_input_bytes`, which in
    /// streaming mode caps each window instead.
    pub max_total_bytes: Option<u64>,
    /// Per-window resource limits; `max_file_wall` budgets the whole
    /// stream (one [`Deadline`] is started when the classifier is
    /// created).
    pub limits: Limits,
    /// Threads for per-window inference; `0` resolves via
    /// [`crate::batch::resolve_threads`].
    pub n_threads: usize,
    /// Retain each window's text on its [`StreamWindow`] instead of
    /// dropping it when the window closes. Off by default (the text
    /// would defeat the O(window) memory story for callers that retain
    /// windows); the packed-container writer turns it on because it
    /// needs the raw bytes to seal one block group per window.
    pub capture_text: bool,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            window_rows: 1 << 16,
            window_bytes: 8 << 20,
            prefix_bytes: 64 << 10,
            max_total_bytes: None,
            limits: Limits::standard(),
            n_threads: 0,
            capture_text: false,
        }
    }
}

/// One classified window of the stream.
#[derive(Debug, Clone)]
pub struct StreamWindow {
    /// 0-based window index.
    pub index: usize,
    /// Global (stream-wide) row index of the window's first row.
    pub first_row: usize,
    /// Post-BOM byte offset of the window's first byte.
    pub start_byte: u64,
    /// Post-BOM byte offset one past the window's last byte.
    pub end_byte: u64,
    /// The window classified as an independent document.
    pub structure: Structure,
    /// Relational tables extracted from the window
    /// ([`crate::to_relational`]).
    pub tables: Vec<RelationalTable>,
    /// The window's post-BOM text, retained only when
    /// [`StreamConfig::capture_text`] is set; empty otherwise.
    pub text: String,
}

/// Aggregate result of a finished stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// The dialect the stream was classified under.
    pub dialect: Dialect,
    /// Number of windows emitted.
    pub n_windows: usize,
    /// Total rows across all windows.
    pub n_rows: usize,
    /// Raw bytes consumed, including a stripped BOM.
    pub total_bytes: u64,
}

/// Incremental bounded-memory classifier. See the module docs for the
/// parity contract and limit semantics.
///
/// Push byte chunks with [`push`](StreamClassifier::push), collect
/// emitted windows with [`drain_windows`](StreamClassifier::drain_windows)
/// (undrained windows accumulate, so drain between pushes to keep peak
/// memory at O(window)), and call [`finish`](StreamClassifier::finish)
/// at end of stream. The first error poisons the classifier; further
/// calls fail.
pub struct StreamClassifier<'m> {
    model: &'m Strudel,
    config: StreamConfig,
    deadline: Deadline,
    feeder: Utf8Feeder,
    tracker: Option<RecordTracker>,
    dialect: Option<Dialect>,
    /// Decoded post-BOM text from the current window start onward.
    buf: String,
    /// Post-BOM global offset of `buf[0]`.
    base: u64,
    /// Bytes of `buf` already walked by the tracker.
    buf_fed: usize,
    /// Scratch for tracker output.
    ends: Vec<RecordEnd>,
    /// Completed records in the window being accumulated.
    rows_in_window: usize,
    /// Global row index where the current window starts.
    first_row: usize,
    n_windows: usize,
    /// Config-derived base threshold of the oversized-record guard.
    guard_base: usize,
    /// Post-BOM offset of the record the guard is currently tracking.
    guard_record_start: u64,
    /// Record length at which the guard's next prefix scan runs
    /// (doubles after every scan, resets per record).
    guard_next: usize,
    out: Vec<StreamWindow>,
    timings: StageTimings,
    stream_time: Duration,
    finished: bool,
    poisoned: bool,
}

impl<'m> StreamClassifier<'m> {
    /// Start a stream under `config`. The wall-clock deadline (if any)
    /// starts now.
    pub fn new(model: &'m Strudel, config: StreamConfig) -> StreamClassifier<'m> {
        let deadline = config.limits.start_deadline();
        let guard_base = config
            .window_bytes
            .saturating_mul(3)
            .max(config.prefix_bytes.saturating_mul(2));
        StreamClassifier {
            model,
            config,
            deadline,
            feeder: Utf8Feeder::new(),
            tracker: None,
            dialect: None,
            buf: String::new(),
            base: 0,
            buf_fed: 0,
            ends: Vec::new(),
            rows_in_window: 0,
            first_row: 0,
            n_windows: 0,
            guard_base,
            guard_record_start: 0,
            guard_next: guard_base,
            out: Vec::new(),
            timings: StageTimings::default(),
            stream_time: Duration::ZERO,
            finished: false,
            poisoned: false,
        }
    }

    /// Windows emitted so far (and not yet drained).
    pub fn drain_windows(&mut self) -> Vec<StreamWindow> {
        std::mem::take(&mut self.out)
    }

    /// The dialect, once detected (always set after a successful
    /// [`finish`](StreamClassifier::finish)).
    pub fn dialect(&self) -> Option<Dialect> {
        self.dialect
    }

    /// Per-stage timings accumulated so far (includes
    /// [`Stage::Stream`] once the stream finishes).
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }

    /// Consume the classifier, returning its timings.
    pub fn into_timings(self) -> StageTimings {
        self.timings
    }

    /// Feed one chunk of raw bytes.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), StrudelError> {
        self.check_usable()?;
        let t0 = Instant::now();
        let step = (|| {
            self.deadline.check()?;
            // A decode error is deferred, not returned: the feeder has
            // appended the valid prefix preceding it to `buf`, and that
            // prefix must be fully processed first — its dialect,
            // window, and limit errors all concern earlier stream
            // offsets — so the error a byte stream surfaces does not
            // depend on how the stream was chunked.
            let decoded = self.feeder.push(bytes, &mut self.buf);
            if self.dialect.is_none() && self.buf.len() >= self.config.prefix_bytes {
                self.detect_dialect()?;
            }
            Ok(decoded)
        })();
        let decoded = self.guard(step)?;
        self.stream_time += t0.elapsed();
        let adv = self.advance();
        self.guard(adv)?;
        self.guard(decoded)
    }

    /// Signal end of stream, classify the remainder, and summarise.
    pub fn finish(&mut self) -> Result<StreamSummary, StrudelError> {
        self.check_usable()?;
        self.finished = true;
        let t0 = Instant::now();
        let step = (|| {
            self.deadline.check()?;
            self.feeder.finish(&mut self.buf)
        })();
        self.guard(step)?;
        self.stream_time += t0.elapsed();

        if self.n_windows == 0 {
            // The stream fits in one window: discard the incremental
            // state and run the exact whole-file pipeline over the
            // buffered text, for byte-identical output (results *and*
            // errors) with the non-streaming entry points.
            let r = self.finish_whole_file();
            return self.guard(r);
        }

        // Multi-window: flush the tracker and close the final window.
        if let Some(tracker) = self.tracker.as_mut() {
            tracker.finish(&mut self.ends);
        }
        let adv = self.advance();
        self.guard(adv)?;
        let step = (|| {
            let total = self.base + self.buf.len() as u64;
            check_total_bytes(total, self.config.max_total_bytes)?;
            if !self.buf.is_empty() {
                self.close_window(self.buf.len())?;
            }
            Ok(())
        })();
        self.guard(step)?;
        self.timings
            .record(Stage::Stream, std::mem::take(&mut self.stream_time));
        Ok(StreamSummary {
            dialect: self.dialect.expect("multi-window stream has a dialect"),
            n_windows: self.n_windows,
            n_rows: self.first_row,
            total_bytes: self.feeder.validated_bytes(),
        })
    }

    /// Whole-file fallback for single-window streams.
    fn finish_whole_file(&mut self) -> Result<StreamSummary, StrudelError> {
        // Mirror `try_detect_structure_bytes_metered`: the raw byte cap
        // (BOM included) applies before anything else...
        let raw_len = self.feeder.validated_bytes();
        if let Some(max) = self.config.limits.max_input_bytes {
            if raw_len > max {
                return Err(StrudelError::limit(LimitKind::InputBytes, raw_len, max));
            }
        }
        // ...then the streaming-only whole-stream cap.
        check_total_bytes(self.buf.len() as u64, self.config.max_total_bytes)?;
        self.timings
            .record(Stage::Stream, std::mem::take(&mut self.stream_time));
        // The feeder already consumed the BOM, and `detect` does not
        // strip another. When the prefix detector already ran, its
        // dialect is reused — detection happens exactly once per input
        // (pinned by the stage-timings assertion) instead of being
        // recomputed here for every single-window stream that crossed
        // the prefix threshold.
        let structure = self.model.detect(
            &self.buf,
            self.dialect.as_ref(),
            &self.config.limits,
            self.deadline,
            self.config.n_threads,
            &mut self.timings,
        )?;
        self.timings.record_stream_windows(1);
        let dialect = structure.dialect;
        let n_rows = structure.table.n_rows();
        let tables = to_relational(&structure);
        let end_byte = self.buf.len() as u64;
        let text = if self.config.capture_text {
            std::mem::take(&mut self.buf)
        } else {
            String::new()
        };
        self.out.push(StreamWindow {
            index: 0,
            first_row: 0,
            start_byte: 0,
            end_byte,
            structure,
            tables,
            text,
        });
        self.n_windows = 1;
        self.first_row = n_rows;
        self.dialect = Some(dialect);
        self.buf.clear();
        Ok(StreamSummary {
            dialect,
            n_windows: 1,
            n_rows,
            total_bytes: raw_len,
        })
    }

    /// Detect the dialect on the deterministic prefix — the first
    /// `prefix_bytes` of post-BOM text (aligned down to a character
    /// boundary), trimmed to the last complete line — and start the
    /// record tracker from stream offset 0. This is the *only* dialect
    /// detection a streamed input runs: the single-window fallback and
    /// every window close reuse the result, so each input records
    /// exactly one [`Stage::Dialect`] observation.
    fn detect_dialect(&mut self) -> Result<(), StrudelError> {
        let timer = StageTimer::start(Stage::Dialect);
        let mut cut = self.config.prefix_bytes.min(self.buf.len());
        while cut > 0 && !self.buf.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &self.buf[..cut];
        let sample = match prefix.rfind(['\n', '\r']) {
            Some(i) => &prefix[..i + 1],
            None => prefix,
        };
        let dialect = try_detect_dialect(sample, &self.config.limits, self.deadline)?;
        timer.stop(&mut self.timings);
        self.dialect = Some(dialect);
        self.tracker = Some(RecordTracker::new(dialect));
        self.buf_fed = 0;
        Ok(())
    }

    /// Feed newly decoded text to the tracker and process its record
    /// ends: count rows, enforce the whole-stream byte cap, and close
    /// windows per the blank-boundary rule.
    fn advance(&mut self) -> Result<(), StrudelError> {
        let Some(tracker) = self.tracker.as_mut() else {
            return Ok(());
        };
        let t0 = Instant::now();
        if self.buf_fed < self.buf.len() {
            tracker.feed(&self.buf[self.buf_fed..], &mut self.ends);
            self.buf_fed = self.buf.len();
        }
        let incomplete_start = tracker.record_start() as u64;
        let mut ends = std::mem::take(&mut self.ends);
        self.stream_time += t0.elapsed();
        let mut result = Ok(());
        for e in ends.drain(..) {
            // The guard runs before the boundary is processed: in a
            // byte-at-a-time feed its thresholds are crossed while the
            // record is still incomplete, i.e. before its end exists.
            result = self
                .guard_record(e.start as u64, e.after as u64)
                .and_then(|()| self.record_boundary(e));
            if result.is_err() {
                break;
            }
        }
        self.ends = ends;
        result?;
        self.guard_record(incomplete_start, self.base + self.buf.len() as u64)
    }

    /// Oversized-record guard: a single record can outgrow the window
    /// (blocking every close), so once its buffered length crosses
    /// [`guard_base`](StreamClassifier::guard_base) — and again at each
    /// doubling — the record's prefix of exactly that length runs
    /// through the guarded scanner, making `max_line_bytes` /
    /// `max_quoted_field_bytes` fire instead of the buffer growing with
    /// the file. Trigger points and scanned prefixes are a pure
    /// function of record geometry, so the error surfaced — and its
    /// payload — is independent of how the stream was chunked.
    fn guard_record(&mut self, start: u64, end: u64) -> Result<(), StrudelError> {
        if self.guard_record_start != start {
            self.guard_record_start = start;
            self.guard_next = self.guard_base;
        }
        while end.saturating_sub(start) >= self.guard_next as u64 {
            let dialect = self.dialect.expect("guard implies dialect");
            let local = (start - self.base) as usize;
            let mut cut = local + self.guard_next;
            while !self.buf.is_char_boundary(cut) {
                cut -= 1;
            }
            try_scan_records_within(
                &self.buf[local..cut],
                &dialect,
                &self.config.limits,
                self.deadline,
            )?;
            self.guard_next = self.guard_next.saturating_mul(2);
        }
        Ok(())
    }

    /// One completed record: row bookkeeping, stream cap, window close.
    fn record_boundary(&mut self, e: RecordEnd) -> Result<(), StrudelError> {
        self.rows_in_window += 1;
        check_total_bytes(e.after as u64, self.config.max_total_bytes)?;
        let local = (e.after as u64 - self.base) as usize;
        let soft =
            self.rows_in_window >= self.config.window_rows || local >= self.config.window_bytes;
        let hard = self.rows_in_window >= self.config.window_rows.saturating_mul(2)
            || local >= self.config.window_bytes.saturating_mul(2);
        if (soft && e.is_blank()) || hard {
            self.close_window(local)?;
        }
        Ok(())
    }

    /// Classify `buf[..upto]` as one window, emit it, and drop its text.
    fn close_window(&mut self, upto: usize) -> Result<(), StrudelError> {
        let dialect = self.dialect.expect("window close implies dialect");
        let structure = self.model.detect(
            &self.buf[..upto],
            Some(&dialect),
            &self.config.limits,
            self.deadline,
            self.config.n_threads,
            &mut self.timings,
        )?;
        let t0 = Instant::now();
        self.timings.record_stream_windows(1);
        let tables = to_relational(&structure);
        let n_rows = structure.table.n_rows();
        let text = if self.config.capture_text {
            self.buf[..upto].to_string()
        } else {
            String::new()
        };
        self.out.push(StreamWindow {
            index: self.n_windows,
            first_row: self.first_row,
            start_byte: self.base,
            end_byte: self.base + upto as u64,
            structure,
            tables,
            text,
        });
        self.n_windows += 1;
        self.first_row += n_rows;
        self.buf.drain(..upto);
        self.base += upto as u64;
        self.buf_fed -= upto;
        self.rows_in_window = 0;
        self.stream_time += t0.elapsed();
        Ok(())
    }

    fn check_usable(&self) -> Result<(), StrudelError> {
        if self.poisoned {
            return Err(StrudelError::Internal {
                file: None,
                reason: "stream classifier used after an error".to_string(),
            });
        }
        if self.finished {
            return Err(StrudelError::Internal {
                file: None,
                reason: "stream classifier used after finish".to_string(),
            });
        }
        Ok(())
    }

    fn guard<T>(&mut self, r: Result<T, StrudelError>) -> Result<T, StrudelError> {
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }
}

/// The whole-stream byte cap (post-BOM), shared by the record-boundary
/// and end-of-stream checks.
fn check_total_bytes(actual: u64, max_total: Option<u64>) -> Result<(), StrudelError> {
    if let Some(max) = max_total {
        if actual > max {
            return Err(StrudelError::limit(LimitKind::InputBytes, actual, max));
        }
    }
    Ok(())
}

/// Classify a [`std::io::Read`] source end to end in
/// [`STREAM_CHUNK_BYTES`] chunks, invoking `on_window` for each emitted
/// window as soon as it closes (peak memory stays O(window) as long as
/// the callback does not retain the windows).
pub fn classify_reader<R: std::io::Read>(
    model: &Strudel,
    reader: &mut R,
    config: StreamConfig,
    on_window: &mut dyn FnMut(StreamWindow),
) -> Result<(StreamSummary, StageTimings), StrudelError> {
    let mut classifier = StreamClassifier::new(model, config);
    let mut chunk = vec![0u8; STREAM_CHUNK_BYTES];
    loop {
        let n = reader
            .read(&mut chunk)
            .map_err(|e| StrudelError::io(&e, None))?;
        if n == 0 {
            break;
        }
        classifier.push(&chunk[..n])?;
        for w in classifier.drain_windows() {
            on_window(w);
        }
    }
    let summary = classifier.finish()?;
    for w in classifier.drain_windows() {
        on_window(w);
    }
    Ok((summary, classifier.into_timings()))
}

/// Assemble the canonical [`Structure::to_json`] document from streamed
/// windows: `n_rows` sums, `n_cols` is the widest window, `lines`
/// concatenates, and `cells` carries global row indices. For a
/// single-window stream the output is byte-identical to
/// `windows[0].structure.to_json()` (pinned by test), which is what
/// makes `detect --stream --json` equal to `detect --json` on every
/// input that fits in one window.
pub fn stream_to_json(windows: &[StreamWindow]) -> String {
    use std::fmt::Write;
    let dialect = windows
        .first()
        .map(|w| w.structure.dialect)
        .unwrap_or_else(Dialect::rfc4180);
    let mut out = String::new();
    out.push_str("{\n");
    writeln!(out, "  \"dialect\": {},", dialect_json(&dialect)).unwrap();
    let n_rows: usize = windows.iter().map(|w| w.structure.table.n_rows()).sum();
    let n_cols: usize = windows
        .iter()
        .map(|w| w.structure.table.n_cols())
        .max()
        .unwrap_or(0);
    writeln!(out, "  \"n_rows\": {n_rows},").unwrap();
    writeln!(out, "  \"n_cols\": {n_cols},").unwrap();
    let lines: Vec<String> = windows
        .iter()
        .flat_map(|w| w.structure.lines.iter())
        .map(|l| match l {
            Some(c) => format!("\"{}\"", c.name()),
            None => "null".to_string(),
        })
        .collect();
    writeln!(out, "  \"lines\": [{}],", lines.join(", ")).unwrap();
    let cells: Vec<String> = windows
        .iter()
        .flat_map(|w| {
            w.structure
                .cells
                .iter()
                .filter(|cell| Some(cell.class) != w.structure.lines[cell.row])
                .map(|cell| {
                    format!(
                        "    {{\"row\": {}, \"col\": {}, \"class\": \"{}\"}}",
                        w.first_row + cell.row,
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
    use crate::cell_classifier::StrudelCellConfig;
    use crate::line_classifier::tests::tiny_corpus;
    use crate::line_classifier::StrudelLineConfig;
    use std::io::Cursor;
    use strudel_ml::ForestConfig;

    fn fitted() -> Strudel {
        let corpus = tiny_corpus(8);
        let config = StrudelCellConfig {
            line: StrudelLineConfig {
                forest: ForestConfig::fast(15, 1),
                ..StrudelLineConfig::default()
            },
            forest: ForestConfig::fast(15, 2),
            ..StrudelCellConfig::default()
        };
        Strudel::fit(&corpus.files, &config)
    }

    const VERBOSE: &str = "Report on crime,,\nState,2019,2020\nBerlin,14,28\nHamburg,15,29\nTotal,29,57\nSource: police,,\n";

    fn run_stream(
        model: &Strudel,
        bytes: &[u8],
        config: StreamConfig,
        chunk: usize,
    ) -> Result<(StreamSummary, Vec<StreamWindow>), StrudelError> {
        let mut c = StreamClassifier::new(model, config);
        let mut windows = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            c.push(piece)?;
            windows.extend(c.drain_windows());
        }
        let summary = c.finish()?;
        windows.extend(c.drain_windows());
        Ok((summary, windows))
    }

    #[test]
    fn single_window_stream_is_byte_identical_to_whole_file() {
        let model = fitted();
        // BOM + CRLF + quoted newline: the awkward cases all at once.
        let bom = "\u{FEFF}Report,,\r\nState,2019,2020\r\n\"Ber\nlin\",1,2\r\nTotal,1,2\r\n";
        for text in [VERBOSE, bom, "", "a,b\nc,d"] {
            let whole = model
                .try_detect_structure_bytes(text.as_bytes(), &Limits::standard())
                .unwrap();
            for chunk in [1, 3, 7, 64, text.len().max(1)] {
                let (summary, windows) =
                    run_stream(&model, text.as_bytes(), StreamConfig::default(), chunk).unwrap();
                assert_eq!(summary.n_windows, 1);
                assert_eq!(summary.total_bytes, text.len() as u64);
                assert_eq!(windows.len(), 1);
                assert_eq!(stream_to_json(&windows), whole.to_json(), "chunk={chunk}");
                assert_eq!(windows[0].structure.to_json(), whole.to_json());
                assert_eq!(windows[0].tables, to_relational(&whole));
            }
        }
    }

    #[test]
    fn stream_to_json_single_window_equals_structure_to_json() {
        let model = fitted();
        let (_, windows) =
            run_stream(&model, VERBOSE.as_bytes(), StreamConfig::default(), 16).unwrap();
        assert_eq!(stream_to_json(&windows), windows[0].structure.to_json());
    }

    /// Each table of [`multi_table_text`] is 12 records (including its
    /// trailing blank), so a soft cap of 8 rows makes every window
    /// closable mid-table and actually closed at the next blank — one
    /// table per window, with the hard cap (16 rows) never reached.
    fn small_windows() -> StreamConfig {
        StreamConfig {
            window_rows: 8,
            window_bytes: 1 << 20,
            prefix_bytes: 32,
            ..StreamConfig::default()
        }
    }

    fn multi_table_text() -> String {
        let mut text = String::new();
        for t in 0..6 {
            text.push_str(&format!("Table {t} about crime,,\n"));
            text.push_str("State,2019,2020\n");
            for r in 0..8 {
                text.push_str(&format!("City{r},{},{}\n", r + t, r * 2 + t));
            }
            text.push_str("Total,29,57\n\n");
        }
        text
    }

    #[test]
    fn multi_window_output_is_chunk_invariant_and_matches_per_window_oracle() {
        let model = fitted();
        let text = multi_table_text();
        let (summary, windows) =
            run_stream(&model, text.as_bytes(), small_windows(), text.len()).unwrap();
        assert!(summary.n_windows > 1, "fixture must span several windows");
        assert_eq!(summary.n_windows, windows.len());
        assert_eq!(summary.total_bytes, text.len() as u64);
        assert_eq!(
            windows.last().unwrap().end_byte,
            text.len() as u64,
            "windows must tile the whole stream"
        );

        // Chunk invariance: byte-level feeding must not change anything.
        let reference = stream_to_json(&windows);
        for chunk in [1, 2, 5, 13, 100] {
            let (s2, w2) = run_stream(&model, text.as_bytes(), small_windows(), chunk).unwrap();
            assert_eq!(s2, summary, "chunk={chunk}");
            assert_eq!(stream_to_json(&w2), reference, "chunk={chunk}");
            let bounds: Vec<(u64, u64)> = w2.iter().map(|w| (w.start_byte, w.end_byte)).collect();
            let want: Vec<(u64, u64)> =
                windows.iter().map(|w| (w.start_byte, w.end_byte)).collect();
            assert_eq!(bounds, want, "chunk={chunk}");
        }

        // Leg C of the differential harness: every window equals the
        // per-window oracle re-run on its slice of the original text.
        let mut next_start = 0u64;
        let mut next_row = 0usize;
        for w in &windows {
            assert_eq!(w.start_byte, next_start);
            assert_eq!(w.first_row, next_row);
            let slice = &text[w.start_byte as usize..w.end_byte as usize];
            let oracle = model
                .detect(
                    slice,
                    Some(&summary.dialect),
                    &Limits::standard(),
                    Deadline::none(),
                    0,
                    &mut StageTimings::default(),
                )
                .unwrap();
            assert_eq!(w.structure.to_json(), oracle.to_json());
            assert_eq!(w.tables, to_relational(&oracle));
            next_start = w.end_byte;
            next_row += w.structure.table.n_rows();
        }
    }

    #[test]
    fn windows_prefer_blank_line_boundaries() {
        let model = fitted();
        let text = multi_table_text();
        let (_, windows) = run_stream(&model, text.as_bytes(), small_windows(), 17).unwrap();
        // Every window but the last must end right after a blank record
        // (the '\n\n' table boundary) because the fixture's tables are
        // well under the hard cap.
        for w in &windows[..windows.len() - 1] {
            let end = w.end_byte as usize;
            assert_eq!(&text[end - 2..end], "\n\n", "window {} end", w.index);
        }
    }

    #[test]
    fn max_total_bytes_caps_the_stream_in_both_phases() {
        let model = fitted();
        // Single-window (whole-file fallback) path.
        let config = StreamConfig {
            max_total_bytes: Some(10),
            ..StreamConfig::default()
        };
        let err = run_stream(&model, VERBOSE.as_bytes(), config, 16).unwrap_err();
        assert_eq!(
            err,
            StrudelError::limit(LimitKind::InputBytes, VERBOSE.len() as u64, 10)
        );

        // Multi-window path: the cap fires at the first record boundary
        // past the cap, with `actual` = bytes up to that boundary.
        let text = multi_table_text();
        let config = StreamConfig {
            max_total_bytes: Some(200),
            ..small_windows()
        };
        let err = run_stream(&model, text.as_bytes(), config, 16).unwrap_err();
        match err {
            StrudelError::LimitExceeded {
                limit: LimitKind::InputBytes,
                actual,
                max: 200,
                ..
            } => {
                assert!(actual > 200);
                // `actual` is a record boundary of the stream.
                assert_eq!(text.as_bytes()[actual as usize - 1], b'\n');
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn per_window_input_cap_replaces_whole_file_semantics_in_multi_window_mode() {
        let model = fitted();
        let text = multi_table_text();
        // Far smaller than the stream but big enough for the fallback
        // threshold: with small windows each window still exceeds it.
        let config = StreamConfig {
            limits: Limits {
                max_input_bytes: Some(40),
                ..Limits::standard()
            },
            ..small_windows()
        };
        let err = run_stream(&model, text.as_bytes(), config, 16).unwrap_err();
        match err {
            StrudelError::LimitExceeded {
                limit: LimitKind::InputBytes,
                actual,
                max: 40,
                ..
            } => assert!(
                actual > 40 && actual < text.len() as u64,
                "cap must apply to one window, not the stream (actual={actual})"
            ),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn errors_poison_the_classifier() {
        let model = fitted();
        let mut c = StreamClassifier::new(
            &model,
            StreamConfig {
                max_total_bytes: Some(3),
                ..StreamConfig::default()
            },
        );
        c.push(b"a,b\n").unwrap();
        assert!(c.finish().is_err());
        let again = c.push(b"x").unwrap_err();
        assert_eq!(again.category(), "internal");
    }

    #[test]
    fn decode_error_payload_matches_whole_file() {
        let model = fitted();
        let bad = b"a,b\nc,\xFFd\n";
        let whole = model
            .try_detect_structure_bytes(bad, &Limits::standard())
            .unwrap_err();
        for chunk in [1, 2, 3, bad.len()] {
            let err = run_stream(&model, bad, StreamConfig::default(), chunk).unwrap_err();
            assert_eq!(err, whole, "chunk={chunk}");
        }
    }

    /// The dialect-hoist pin: a streamed input runs dialect detection
    /// exactly once, whether the prefix detector fired (single- or
    /// multi-window) or the single-window fallback detected it.
    #[test]
    fn streamed_input_detects_dialect_exactly_once() {
        let model = fitted();
        let text = multi_table_text();

        // Prefix fired, stream stayed single-window: the fallback must
        // reuse the prefix result instead of re-detecting.
        let config = StreamConfig {
            prefix_bytes: 32,
            ..StreamConfig::default()
        };
        let (summary, windows) = run_stream(&model, text.as_bytes(), config, 16).unwrap();
        assert_eq!(summary.n_windows, 1);
        let mut c = StreamClassifier::new(
            &model,
            StreamConfig {
                prefix_bytes: 32,
                ..StreamConfig::default()
            },
        );
        c.push(text.as_bytes()).unwrap();
        c.finish().unwrap();
        assert_eq!(c.timings().count(Stage::Dialect), 1);
        // The hoisted dialect agrees with whole-file detection, so the
        // output is unchanged by the reuse.
        let whole = model
            .try_detect_structure_bytes(text.as_bytes(), &Limits::standard())
            .unwrap();
        assert_eq!(stream_to_json(&windows), whole.to_json());

        // Prefix fired, multi-window: still exactly one detection.
        let mut c = StreamClassifier::new(&model, small_windows());
        c.push(text.as_bytes()).unwrap();
        c.finish().unwrap();
        assert!(c.timings().stream_windows() > 1);
        assert_eq!(c.timings().count(Stage::Dialect), 1);

        // Prefix never filled (default 64 KiB): the whole-file fallback
        // is the single detection.
        let mut c = StreamClassifier::new(&model, StreamConfig::default());
        c.push(VERBOSE.as_bytes()).unwrap();
        c.finish().unwrap();
        assert_eq!(c.timings().count(Stage::Dialect), 1);
    }

    /// `capture_text` retains each window's exact post-BOM text; off by
    /// default the field stays empty.
    #[test]
    fn capture_text_retains_window_slices() {
        let model = fitted();
        let text = multi_table_text();
        let config = StreamConfig {
            capture_text: true,
            ..small_windows()
        };
        let (_, windows) = run_stream(&model, text.as_bytes(), config, 64).unwrap();
        assert!(windows.len() > 1);
        let joined: String = windows.iter().map(|w| w.text.as_str()).collect();
        assert_eq!(joined, text, "captured texts must tile the stream");
        for w in &windows {
            assert_eq!(
                w.text,
                &text[w.start_byte as usize..w.end_byte as usize],
                "window {}",
                w.index
            );
        }
        let (_, plain) = run_stream(&model, text.as_bytes(), small_windows(), 64).unwrap();
        assert!(plain.iter().all(|w| w.text.is_empty()));

        // Single-window fallback captures too.
        let config = StreamConfig {
            capture_text: true,
            ..StreamConfig::default()
        };
        let (_, one) = run_stream(&model, VERBOSE.as_bytes(), config, 16).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].text, VERBOSE);
    }

    #[test]
    fn classify_reader_streams_a_reader_end_to_end() {
        let model = fitted();
        let text = multi_table_text();
        let mut windows = Vec::new();
        let (summary, timings) = classify_reader(
            &model,
            &mut Cursor::new(text.as_bytes()),
            small_windows(),
            &mut |w| windows.push(w),
        )
        .unwrap();
        assert_eq!(summary.n_windows, windows.len());
        assert_eq!(timings.stream_windows(), windows.len() as u64);
        assert_eq!(timings.count(Stage::Stream), 1);
        let (_, direct) = run_stream(&model, text.as_bytes(), small_windows(), 1024).unwrap();
        assert_eq!(stream_to_json(&windows), stream_to_json(&direct));
    }
}
