//! The packed-container side of a workload: pack through `PackWriter`,
//! then time full unpacks and single-column extractions, checking that
//! the unpack is byte-identical to the input and that the extracted
//! column equals the same column sliced from the unpacked bytes.

use crate::report::Report;
use crate::stats::Better;
use crate::trace::Trace;
use std::time::{Duration, Instant};
use strudel::{
    Dialect, StreamClassifier, StreamConfig, StreamWindow, Strudel, StrudelError,
    STREAM_CHUNK_BYTES,
};
use strudel_pack::{PackReader, PackWriter, Packed};

/// Window size of every pack: 1 MiB.
const WINDOW_BYTES: usize = 1 << 20;

pub fn stream_config() -> StreamConfig {
    StreamConfig {
        window_bytes: WINDOW_BYTES,
        ..StreamConfig::default()
    }
}

/// Pack `input` in `STREAM_CHUNK_BYTES` pushes, returning the container and the
/// latency of every `push` and of `finish`.
pub fn pack(model: &Strudel, input: &[u8]) -> Result<(Packed, Vec<Duration>), StrudelError> {
    let mut latencies = Vec::new();
    let mut writer = PackWriter::new(model, stream_config());
    for chunk in input.chunks(STREAM_CHUNK_BYTES) {
        let t0 = Instant::now();
        writer.push(chunk)?;
        latencies.push(t0.elapsed());
    }
    let t0 = Instant::now();
    let packed = writer.finish()?;
    latencies.push(t0.elapsed());
    Ok((packed, latencies))
}

/// The container sample of a workload that does not pack its own input:
/// 512 KiB of the tall tables `long_stream_pack` packs, from the same
/// seed. Extracting one short column takes microseconds, and at that
/// scale this host's speed swings too much between runs for a steady
/// figure.
pub fn tall_sample(seed: u64, report: &mut Report) -> Vec<u8> {
    let bytes = crate::inputs::stacked(seed, SAMPLE_TAG, 512 << 10, 8.0);
    crate::pin_inputs(report, "container sample", &[&bytes]);
    bytes
}

const SAMPLE_TAG: u64 = 5;

/// Pack `sample` for the container metrics of a workload that does not
/// pack its own input.
pub fn probe(model: &Strudel, sample: &[u8], report: &mut Report) -> Option<ReadProbe> {
    match pack(model, sample) {
        Ok((packed, _)) => {
            report.attempt(true, String::new);
            Some(ReadProbe::new(sample.to_vec(), packed))
        }
        Err(e) => {
            report.attempt(false, || format!("pack of the sample: {e}"));
            None
        }
    }
}

/// Rounds a read-side measurement takes at least.
const MIN_ROUNDS: usize = 16;
/// Copies of the container the rounds rotate through.
const COPIES: usize = 8;
/// Columns extracted per round: the container's tallest.
const COLUMNS_PER_ROUND: usize = 400;

/// The read side of one container, measured in rounds of one full
/// `unpack` and one `extract_column` on each of the container's
/// `COLUMNS_PER_ROUND` tallest columns. A workload
/// runs a round after each of its timed operations, so the samples
/// spread over the whole run instead of one moment of it, and the rounds
/// rotate through copies of the container, since how fast a buffer reads
/// also depends on where in physical memory it landed.
pub struct ReadProbe {
    input: Vec<u8>,
    ratio: f64,
    copies: Vec<Vec<u8>>,
    columns: Vec<(usize, usize)>,
    unpack_mb_s: Vec<f64>,
    column_ms: Vec<f64>,
    blocks_read: u64,
    first_unpack: Option<Result<Vec<u8>, StrudelError>>,
}

/// What the read side measured.
pub struct ReadSide {
    pub pack_ratio: f64,
    pub unpack_mb_s: f64,
    pub column_ms: f64,
    pub blocks_read: u64,
    /// Time spent checking results rather than in reader calls.
    pub checking: Duration,
}

impl ReadProbe {
    pub fn new(input: Vec<u8>, packed: Packed) -> ReadProbe {
        let ratio = packed.ratio();
        let reader = PackReader::open(&packed.bytes).expect("freshly packed container opens");
        // The tallest columns: the longer one call runs, the less its time
        // is call overhead that swings with the host's load.
        let mut all: Vec<(u64, usize, usize)> = reader
            .tables()
            .iter()
            .enumerate()
            .flat_map(|(t, meta)| (0..meta.columns.len()).map(move |c| (meta.n_body_rows, t, c)))
            .collect();
        all.sort_by_key(|&(rows, t, c)| (std::cmp::Reverse(rows), t, c));
        let columns = all
            .into_iter()
            .take(COLUMNS_PER_ROUND)
            .map(|(_, t, c)| (t, c))
            .collect();
        drop(reader);
        let mut copies: Vec<Vec<u8>> = (1..COPIES).map(|_| packed.bytes.clone()).collect();
        copies.push(packed.bytes);
        ReadProbe {
            input,
            ratio,
            copies,
            columns,
            unpack_mb_s: Vec::new(),
            column_ms: Vec::new(),
            blocks_read: 0,
            first_unpack: None,
        }
    }

    /// One round; with a trace, every reader call gets a `pack.reader`
    /// span.
    pub fn round(&mut self, mut trace: Option<&mut Trace>) {
        let copy = &self.copies[self.unpack_mb_s.len() % self.copies.len()];
        let mut reader = PackReader::open(copy).expect("freshly packed container opens");
        let mut timed = |f: &mut dyn FnMut()| {
            let span = trace.as_deref_mut().map(|t| t.begin("pack.reader"));
            let t0 = Instant::now();
            f();
            let took = t0.elapsed();
            if let (Some(t), Some(id)) = (trace.as_deref_mut(), span) {
                t.end(id);
            }
            took
        };
        let mut out = None;
        let took = timed(&mut || out = Some(reader.unpack()));
        self.unpack_mb_s
            .push(self.input.len() as f64 / 1e6 / took.as_secs_f64());
        self.first_unpack.get_or_insert(out.expect("unpacked"));
        let mut total = Duration::ZERO;
        for &(t, c) in &self.columns {
            total += timed(&mut || {
                let _ = std::hint::black_box(reader.extract_column(t, c));
            });
        }
        self.column_ms
            .push(total.as_secs_f64() * 1e3 / self.columns.len().max(1) as f64);
        self.blocks_read += reader.blocks_read();
    }

    /// Run rounds until there are `MIN_ROUNDS`.
    pub fn top_up(&mut self, mut trace: Option<&mut Trace>) {
        while self.unpack_mb_s.len() < MIN_ROUNDS {
            self.round(trace.as_deref_mut());
        }
    }

    /// Run the rounds still missing and check the results: the first
    /// unpack against the input, and every column of the first window
    /// against the unpacked bytes. `unpack_mb_s` is the best-tenth mean
    /// over rounds, like every end-to-end rate; `column_ms`, a per-layer
    /// figure, the median of each round's mean time of one call.
    pub fn finish(
        mut self,
        model: &Strudel,
        report: &mut Report,
        trace: Option<&mut Trace>,
    ) -> ReadSide {
        self.top_up(trace);
        let check_started = Instant::now();
        let unpacked = self.first_unpack.take().expect("at least one round");
        let roundtrip = unpacked.as_ref().is_ok_and(|bytes| *bytes == self.input);
        report.attempt(roundtrip, || {
            "pack → unpack is not byte-identical to the input".into()
        });
        let expected = unpacked
            .as_ref()
            .ok()
            .and_then(|bytes| first_window_columns(model, bytes));
        let mut reader = PackReader::open(&self.copies[0]).expect("freshly packed container opens");
        for t in 0..reader.tables().len() {
            let meta = &reader.tables()[t];
            if meta.group != 0 {
                continue;
            }
            for c in 0..meta.columns.len() {
                let got = reader.extract_column(t, c);
                let want = expected
                    .as_ref()
                    .and_then(|e| e.get(t))
                    .and_then(|cols| cols.get(c));
                let same = matches!((&got, want), (Ok(got), Some(want)) if got == want);
                report.attempt(same, || {
                    format!(
                        "extract_column({t}, {c}) differs from the column sliced from the unpack"
                    )
                });
            }
        }
        ReadSide {
            pack_ratio: self.ratio,
            unpack_mb_s: crate::stats::best_tenth_mean(&self.unpack_mb_s, Better::Higher)
                .expect("timed"),
            column_ms: crate::stats::median(&self.column_ms).expect("timed"),
            blocks_read: self.blocks_read,
            checking: check_started.elapsed(),
        }
    }
}

impl ReadSide {
    pub fn emit(&self, report: &mut Report) {
        report.metric("pack_ratio", self.pack_ratio, "ratio");
        report.metric("unpack_mb_s", self.unpack_mb_s, "MB/s");
    }
}

/// Every column of every table of the first window, sliced from the
/// unpacked bytes: the same streaming classifier finds the window and
/// its tables, and each body row's field is re-parsed to its value
/// (`None` where a ragged row lacks the column).
fn first_window_columns(model: &Strudel, unpacked: &[u8]) -> Option<Vec<Vec<Vec<Option<String>>>>> {
    let config = StreamConfig {
        capture_text: true,
        ..stream_config()
    };
    let mut classifier = StreamClassifier::new(model, config);
    let mut first: Option<StreamWindow> = None;
    for chunk in unpacked.chunks(STREAM_CHUNK_BYTES) {
        classifier.push(chunk).ok()?;
        first = classifier.drain_windows().into_iter().next();
        if first.is_some() {
            break;
        }
    }
    if first.is_none() {
        classifier.finish().ok()?;
        first = classifier.drain_windows().into_iter().next();
    }
    let window = first?;
    let dialect = classifier.dialect()?;
    let raw = strudel_dialect::raw_records(&window.text, &dialect);
    let tables = window
        .structure
        .tables()
        .iter()
        .map(|region| {
            let body: Vec<_> = region
                .body_rows
                .iter()
                .filter_map(|&r| raw.get(r))
                .collect();
            let n_cols = body.iter().map(|r| r.fields.len()).max().unwrap_or(0);
            (0..n_cols)
                .map(|c| {
                    body.iter()
                        .map(|record| {
                            let range = record.fields.get(c)?;
                            Some(field_value(&window.text[range.clone()], &dialect))
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    Some(tables)
}

/// A raw field's value: the field re-parsed alone under the dialect
/// (quotes and escapes undone), empty for an empty field.
fn field_value(raw: &str, dialect: &Dialect) -> String {
    strudel_dialect::parse(raw, dialect)
        .into_iter()
        .next()
        .and_then(|record| record.into_iter().next())
        .unwrap_or_default()
}
