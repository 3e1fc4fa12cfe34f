//! Bounded worker-pool batch inference.
//!
//! [`detect_all`] pushes N inputs (paths or in-memory strings) through a
//! fitted [`Strudel`] model on a fixed pool of OS threads
//! (`std::thread::scope`, like forest training in `strudel-ml`) and
//! returns one [`Structure`] per input — in input order, byte-identical
//! to calling [`Strudel::detect_structure`] in a loop — plus a
//! [`BatchReport`] with per-stage wall-clock totals, per-file outcomes,
//! and aggregate throughput.
//!
//! A malformed input (unreadable path, invalid UTF-8, a violated
//! resource limit, or — as a last resort — a panic caught at the worker
//! boundary) yields a per-file typed [`StrudelError`]; it never poisons
//! the rest of the batch. [`BatchConfig::limits`] bounds what one file
//! may consume, including a per-file wall-clock budget
//! ([`Limits::max_file_wall`]), so one pathological input can neither
//! OOM nor stall the batch.
//!
//! ```no_run
//! use strudel::batch::{detect_all, BatchConfig, BatchInput};
//! # let model: strudel::Strudel = unimplemented!();
//! let inputs = vec![
//!     BatchInput::path("a.csv"),
//!     BatchInput::text("inline", "State,2019\nBerlin,1\n"),
//! ];
//! let result = detect_all(&model, &inputs, &BatchConfig::default());
//! assert_eq!(result.structures.len(), 2);
//! println!("{}", result.report.to_json());
//! ```

use crate::json::json_string;
use crate::metrics::{Stage, StageTimings};
use crate::pipeline::{Structure, Strudel};
use crate::stream::{StreamClassifier, StreamConfig, STREAM_CHUNK_BYTES};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use strudel_table::{Limits, StrudelError};

/// One input of a batch run.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchInput {
    /// A file on disk, read (as UTF-8) by the worker that claims it.
    Path(PathBuf),
    /// Raw text with a caller-chosen identifier for the report.
    Text {
        /// Identifier used in the report and in errors.
        id: String,
        /// The raw file content.
        text: String,
    },
}

impl BatchInput {
    /// A path input.
    pub fn path(p: impl Into<PathBuf>) -> BatchInput {
        BatchInput::Path(p.into())
    }

    /// An in-memory text input under the given id.
    pub fn text(id: impl Into<String>, text: impl Into<String>) -> BatchInput {
        BatchInput::Text {
            id: id.into(),
            text: text.into(),
        }
    }

    /// The identifier this input appears under in the report.
    pub fn id(&self) -> String {
        match self {
            BatchInput::Path(p) => p.display().to_string(),
            BatchInput::Text { id, .. } => id.clone(),
        }
    }
}

impl From<PathBuf> for BatchInput {
    fn from(p: PathBuf) -> BatchInput {
        BatchInput::Path(p)
    }
}

impl From<&Path> for BatchInput {
    fn from(p: &Path) -> BatchInput {
        BatchInput::Path(p.to_path_buf())
    }
}

/// Configuration of a batch run.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Number of worker threads; `0` picks the available parallelism.
    /// Each worker runs whole files, so per-file inference is pinned to
    /// one thread whenever more than one worker exists
    /// ([`inference_threads`]; no oversubscription from nested
    /// parallelism).
    pub n_threads: usize,
    /// Per-file resource limits, including the wall-clock budget. The
    /// default is [`Limits::standard`]; use [`Limits::unbounded`] to
    /// reproduce the pre-guardrail behaviour.
    pub limits: Limits,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            n_threads: 0,
            limits: Limits::standard(),
        }
    }
}

/// Outcome of one input, successful or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileOutcome {
    /// Identifier of the input.
    pub id: String,
    /// Rows of the parsed table (0 on failure).
    pub n_rows: usize,
    /// Classified (non-empty) cells (0 on failure).
    pub n_cells: usize,
    /// Input size in bytes (0 when the input could not be read).
    pub n_bytes: usize,
    /// Wall-clock time spent on this input by its worker.
    pub elapsed: Duration,
    /// The failure, if any (rendered [`StrudelError`]).
    pub error: Option<String>,
    /// Stable error category ([`StrudelError::category`]) on failure.
    pub category: Option<&'static str>,
}

impl FileOutcome {
    /// Whether the input was processed successfully.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Aggregate report of a batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-stage wall-clock totals summed over all workers. Stage time
    /// can exceed [`wall`](BatchReport::wall) when workers overlap.
    pub stage_timings: StageTimings,
    /// Per-input outcomes, in input order.
    pub outcomes: Vec<FileOutcome>,
    /// End-to-end wall-clock time of the run.
    pub wall: Duration,
    /// Worker threads actually used.
    pub n_threads: usize,
}

impl BatchReport {
    /// Number of successfully processed inputs.
    pub fn n_ok(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    /// Number of failed inputs.
    pub fn n_failed(&self) -> usize {
        self.outcomes.len() - self.n_ok()
    }

    /// Aggregate throughput in files per second ([`rate`]; `0.0` when no
    /// time has elapsed).
    pub fn files_per_second(&self) -> f64 {
        rate(self.outcomes.len() as f64, self.wall)
    }

    /// Aggregate throughput in input bytes per second ([`rate`]; `0.0`
    /// when no time has elapsed).
    pub fn bytes_per_second(&self) -> f64 {
        let bytes: usize = self.outcomes.iter().map(|o| o.n_bytes).sum();
        rate(bytes as f64, self.wall)
    }

    /// Render the report as a JSON object (stable schema, documented in
    /// the repository README).
    pub fn to_json(&self) -> String {
        let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"n_files\": {},\n", self.outcomes.len()));
        out.push_str(&format!("  \"ok\": {},\n", self.n_ok()));
        out.push_str(&format!("  \"failed\": {},\n", self.n_failed()));
        out.push_str(&format!("  \"n_threads\": {},\n", self.n_threads));
        out.push_str(&format!("  \"wall_ms\": {},\n", ms(self.wall)));
        out.push_str(&format!(
            "  \"files_per_second\": {:.3},\n",
            self.files_per_second()
        ));
        out.push_str(&format!(
            "  \"bytes_per_second\": {:.1},\n",
            self.bytes_per_second()
        ));
        out.push_str("  \"stages_ms\": {");
        let stages: Vec<String> = Stage::ALL
            .iter()
            .map(|&s| format!("\"{}\": {}", s.name(), ms(self.stage_timings.total(s))))
            .collect();
        out.push_str(&stages.join(", "));
        out.push_str("},\n");
        out.push_str("  \"files\": [\n");
        let files: Vec<String> = self
            .outcomes
            .iter()
            .map(|o| {
                if let Some(err) = &o.error {
                    format!(
                        "    {{\"id\": {}, \"ok\": false, \"category\": {}, \"error\": {}}}",
                        json_string(&o.id),
                        json_string(o.category.unwrap_or("internal")),
                        json_string(err)
                    )
                } else {
                    format!(
                        "    {{\"id\": {}, \"ok\": true, \"rows\": {}, \"cells\": {}, \"bytes\": {}, \"elapsed_ms\": {}}}",
                        json_string(&o.id),
                        o.n_rows,
                        o.n_cells,
                        o.n_bytes,
                        ms(o.elapsed)
                    )
                }
            })
            .collect();
        out.push_str(&files.join(",\n"));
        out.push_str("\n  ]\n}");
        out
    }
}

/// Throughput as events per second: `count / elapsed`, with a guarded
/// zero — an empty or instantaneous run reports `0.0` rather than an
/// infinity or NaN. The shared helper behind
/// [`BatchReport::files_per_second`] /
/// [`bytes_per_second`](BatchReport::bytes_per_second) and the
/// `strudel serve` `/metrics` throughput gauges.
pub fn rate(count: f64, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 || count <= 0.0 {
        0.0
    } else {
        count / secs
    }
}

/// Resolve a requested worker-thread count to an effective one: an
/// explicit request (> 0) wins, then a positive integer in the
/// `STRUDEL_THREADS` environment variable, then the machine's available
/// parallelism. The single source of truth behind the `--threads` flag
/// of both `strudel batch` and `strudel serve`.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("STRUDEL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Inference threads for one unit of work when `workers` units (batch
/// files, daemon shards) run side by side: `1` whenever there are
/// several workers, which already spread the load over the cores, and
/// `0` (resolved by [`resolve_threads`]) for a lone worker. The single
/// source of truth for that rule in `batch` and `serve`.
///
/// A lone worker splits the forest's rows across threads
/// (`RandomForest::predict_proba_batch`), the one level of parallelism
/// inside a file. It stays because it pays: on a 2-CPU host, forcing
/// the forest serial on the seeded benchmark's `long_stream_pack`
/// workload (1 MiB windows, 2 threads, seeds 101–104) cut throughput by
/// 27% (1.126 → 0.819 MB/s) and raised p99 latency by 34%. Scanning is
/// serial.
pub fn inference_threads(workers: usize) -> usize {
    if workers > 1 {
        1
    } else {
        0
    }
}

/// Result of a batch run: one structure (or per-file typed error) per
/// input, in input order, plus the aggregate report.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-input detection results, aligned with the input slice. Errors
    /// carry the input identifier in their `file` context.
    pub structures: Vec<Result<Structure, StrudelError>>,
    /// The aggregate report.
    pub report: BatchReport,
}

/// Detect the structure of every input on a bounded worker pool.
///
/// Results are in input order and byte-identical to a sequential
/// [`Strudel::detect_structure`] loop regardless of the thread count:
/// inference is a pure function of (model, input), workers only race for
/// *which* input they claim next.
pub fn detect_all(model: &Strudel, inputs: &[BatchInput], config: &BatchConfig) -> BatchResult {
    let start = Instant::now();
    let threads = resolve_threads(config.n_threads).min(inputs.len()).max(1);
    let inner_threads = inference_threads(threads);

    let next = AtomicUsize::new(0);
    type Slot = (Result<Structure, StrudelError>, FileOutcome);
    let mut slots: Vec<Option<Slot>> = Vec::new();
    slots.resize_with(inputs.len(), || None);
    let mut stage_timings = StageTimings::default();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced: Vec<(usize, Slot)> = Vec::new();
                    let mut timings = StageTimings::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= inputs.len() {
                            break;
                        }
                        produced.push((
                            i,
                            run_one(
                                model,
                                &inputs[i],
                                inner_threads,
                                &config.limits,
                                &mut timings,
                            ),
                        ));
                    }
                    (produced, timings)
                })
            })
            .collect();
        for handle in handles {
            let (produced, timings) = handle
                .join()
                .expect("batch worker panicked outside catch_unwind");
            stage_timings.merge(&timings);
            for (i, slot) in produced {
                slots[i] = Some(slot);
            }
        }
    });

    let mut structures = Vec::with_capacity(inputs.len());
    let mut outcomes = Vec::with_capacity(inputs.len());
    for slot in slots {
        let (structure, outcome) = slot.expect("every input claimed by a worker");
        structures.push(structure);
        outcomes.push(outcome);
    }
    BatchResult {
        structures,
        report: BatchReport {
            stage_timings,
            outcomes,
            wall: start.elapsed(),
            n_threads: threads,
        },
    }
}

/// Streamed counterpart of [`detect_all`]: every input flows through a
/// [`StreamClassifier`] in [`STREAM_CHUNK_BYTES`] chunks, windows are
/// dropped as soon as they are counted, and path inputs are read
/// incrementally — so per-worker peak memory is O(window), not O(file).
/// Because retaining the structures would defeat exactly that bound, the
/// result is the [`BatchReport`] alone; [`FileOutcome::n_rows`] and
/// [`FileOutcome::n_cells`] aggregate over all windows of each input.
///
/// `config` supplies the worker-pool shape and per-window limits (its
/// `limits` and thread policy override the ones inside `stream`, keeping
/// one source of truth with [`detect_all`]); `stream` supplies the
/// window geometry.
pub fn detect_all_streamed(
    model: &Strudel,
    inputs: &[BatchInput],
    config: &BatchConfig,
    stream: &StreamConfig,
) -> BatchReport {
    let start = Instant::now();
    let threads = resolve_threads(config.n_threads).min(inputs.len()).max(1);
    let inner_threads = inference_threads(threads);

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<FileOutcome>> = Vec::new();
    slots.resize_with(inputs.len(), || None);
    let mut stage_timings = StageTimings::default();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced: Vec<(usize, FileOutcome)> = Vec::new();
                    let mut timings = StageTimings::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= inputs.len() {
                            break;
                        }
                        let cfg = StreamConfig {
                            limits: config.limits,
                            n_threads: inner_threads,
                            ..stream.clone()
                        };
                        produced.push((i, run_one_streamed(model, &inputs[i], cfg, &mut timings)));
                    }
                    (produced, timings)
                })
            })
            .collect();
        for handle in handles {
            let (produced, timings) = handle
                .join()
                .expect("streamed batch worker panicked outside catch_unwind");
            stage_timings.merge(&timings);
            for (i, outcome) in produced {
                slots[i] = Some(outcome);
            }
        }
    });

    BatchReport {
        stage_timings,
        outcomes: slots
            .into_iter()
            .map(|s| s.expect("every input claimed by a worker"))
            .collect(),
        wall: start.elapsed(),
        n_threads: threads,
    }
}

/// Stream one input through a fresh classifier, counting rows/cells per
/// window and dropping each window immediately.
fn run_one_streamed(
    model: &Strudel,
    input: &BatchInput,
    config: StreamConfig,
    timings: &mut StageTimings,
) -> FileOutcome {
    let id = input.id();
    let file_start = Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(|| match input {
        BatchInput::Path(p) => {
            let mut file = std::fs::File::open(p).map_err(|e| StrudelError::io(&e, None))?;
            stream_one(model, &mut file, config, timings)
        }
        BatchInput::Text { text, .. } => stream_one(model, &mut text.as_bytes(), config, timings),
    }));
    let result = match caught {
        Ok(r) => r,
        Err(payload) => Err(StrudelError::Internal {
            file: None,
            reason: panic_message(payload.as_ref()).to_string(),
        }),
    };
    match result {
        Ok((n_bytes, n_rows, n_cells)) => FileOutcome {
            id,
            n_rows,
            n_cells,
            n_bytes,
            elapsed: file_start.elapsed(),
            error: None,
            category: None,
        },
        Err(error) => {
            let error = error.with_file(id.clone());
            FileOutcome {
                id,
                n_rows: 0,
                n_cells: 0,
                n_bytes: 0,
                elapsed: file_start.elapsed(),
                error: Some(error.to_string()),
                category: Some(error.category()),
            }
        }
    }
}

/// The bounded-memory inner loop of [`run_one_streamed`]: chunked reads,
/// windows counted and dropped on the spot. Timings merge even when the
/// stream fails, so partial work still shows up in the report.
fn stream_one<R: std::io::Read>(
    model: &Strudel,
    reader: &mut R,
    config: StreamConfig,
    timings: &mut StageTimings,
) -> Result<(usize, usize, usize), StrudelError> {
    let mut classifier = StreamClassifier::new(model, config);
    let mut n_cells = 0usize;
    let mut chunk = vec![0u8; STREAM_CHUNK_BYTES];
    let result = (|| {
        loop {
            let n = reader
                .read(&mut chunk)
                .map_err(|e| StrudelError::io(&e, None))?;
            if n == 0 {
                break;
            }
            classifier.push(&chunk[..n])?;
            for w in classifier.drain_windows() {
                n_cells += w.structure.cells.len();
            }
        }
        let summary = classifier.finish()?;
        for w in classifier.drain_windows() {
            n_cells += w.structure.cells.len();
        }
        Ok((summary.total_bytes as usize, summary.n_rows, n_cells))
    })();
    timings.merge(classifier.timings());
    result
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where that interface does not exist.
/// The streamed batch path reports it so the O(window) memory claim is
/// checkable from scripts and CI, not just asserted in prose.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Process one input end to end. Failures are typed [`StrudelError`]s
/// from the guarded pipeline; `catch_unwind` remains as a true last
/// resort for bugs, surfacing as [`StrudelError::Internal`].
fn run_one(
    model: &Strudel,
    input: &BatchInput,
    inner_threads: usize,
    limits: &Limits,
    timings: &mut StageTimings,
) -> (Result<Structure, StrudelError>, FileOutcome) {
    let id = input.id();
    let file_start = Instant::now();
    let fail = |error: StrudelError, n_bytes: usize, elapsed: Duration| {
        let error = error.with_file(id.clone());
        let outcome = FileOutcome {
            id: id.clone(),
            n_rows: 0,
            n_cells: 0,
            n_bytes,
            elapsed,
            error: Some(error.to_string()),
            category: Some(error.category()),
        };
        (Err(error), outcome)
    };

    let owned;
    let bytes: &[u8] = match input {
        BatchInput::Path(p) => match std::fs::read(p) {
            Ok(b) => {
                owned = b;
                &owned
            }
            Err(e) => return fail(StrudelError::io(&e, None), 0, file_start.elapsed()),
        },
        BatchInput::Text { text, .. } => text.as_bytes(),
    };

    // The same guarded bytes path as `strudel detect`: the byte cap
    // before UTF-8 decoding, and the per-file wall-clock budget started
    // once the text is decoded.
    let detected = catch_unwind(AssertUnwindSafe(|| {
        model.try_detect_structure_bytes_metered(bytes, limits, inner_threads, timings)
    }));
    match detected {
        Ok(Ok(structure)) => {
            let outcome = FileOutcome {
                id,
                n_rows: structure.table.n_rows(),
                n_cells: structure.cells.len(),
                n_bytes: bytes.len(),
                elapsed: file_start.elapsed(),
                error: None,
                category: None,
            };
            (Ok(structure), outcome)
        }
        Ok(Err(error)) => fail(error, bytes.len(), file_start.elapsed()),
        Err(payload) => fail(
            StrudelError::Internal {
                file: None,
                reason: panic_message(payload.as_ref()).to_string(),
            },
            bytes.len(),
            file_start.elapsed(),
        ),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell_classifier::StrudelCellConfig;
    use crate::line_classifier::tests::tiny_corpus;
    use crate::line_classifier::StrudelLineConfig;
    use strudel_ml::ForestConfig;

    fn fitted() -> Strudel {
        let corpus = tiny_corpus(6);
        let config = StrudelCellConfig {
            line: StrudelLineConfig {
                forest: ForestConfig::fast(12, 1),
                ..StrudelLineConfig::default()
            },
            forest: ForestConfig::fast(12, 2),
            ..StrudelCellConfig::default()
        };
        Strudel::fit(&corpus.files, &config)
    }

    fn sample_texts(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                format!(
                    "Report {i},,\nState,2019,2020\nBerlin,{},{}\nHamburg,{},{}\nTotal,{},{}\nSource: police,,\n",
                    i + 1,
                    i + 2,
                    i + 3,
                    i + 4,
                    2 * i + 4,
                    2 * i + 6,
                )
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_for_any_thread_count() {
        let model = fitted();
        let texts = sample_texts(7);
        let inputs: Vec<BatchInput> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| BatchInput::text(format!("file-{i}"), t.clone()))
            .collect();
        let sequential: Vec<Structure> = texts.iter().map(|t| model.detect_structure(t)).collect();
        for n_threads in [1, 4] {
            let result = detect_all(
                &model,
                &inputs,
                &BatchConfig {
                    n_threads,
                    ..BatchConfig::default()
                },
            );
            assert_eq!(result.structures.len(), texts.len());
            for (got, want) in result.structures.iter().zip(&sequential) {
                assert_eq!(got.as_ref().unwrap(), want);
            }
            assert_eq!(result.report.n_ok(), texts.len());
            assert_eq!(result.report.n_failed(), 0);
        }
    }

    #[test]
    fn malformed_input_fails_alone() {
        let model = fitted();
        // Write a file that is not valid UTF-8.
        let dir = std::env::temp_dir().join(format!("strudel-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad_utf8 = dir.join("bad.csv");
        std::fs::write(&bad_utf8, [0xFF, 0xFE, 0x00, 0x41]).unwrap();

        let texts = sample_texts(2);
        let inputs = vec![
            BatchInput::text("good-0", texts[0].clone()),
            BatchInput::path(dir.join("does-not-exist.csv")),
            BatchInput::path(&bad_utf8),
            BatchInput::text("good-1", texts[1].clone()),
        ];
        let result = detect_all(
            &model,
            &inputs,
            &BatchConfig {
                n_threads: 2,
                ..BatchConfig::default()
            },
        );
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(result.structures.len(), 4);
        assert!(result.structures[0].is_ok());
        assert!(result.structures[3].is_ok());
        let missing = result.structures[1].as_ref().unwrap_err();
        assert!(missing.file().unwrap().ends_with("does-not-exist.csv"));
        assert_eq!(missing.category(), "io");
        let utf8 = result.structures[2].as_ref().unwrap_err();
        assert_eq!(utf8.category(), "parse");
        assert!(utf8.to_string().contains("invalid UTF-8"));
        assert_eq!(result.report.n_ok(), 2);
        assert_eq!(result.report.n_failed(), 2);
        // Outcomes stay aligned with inputs.
        assert!(result.report.outcomes[0].is_ok());
        assert!(!result.report.outcomes[1].is_ok());
        assert_eq!(result.report.outcomes[1].id, inputs[1].id());
    }

    #[test]
    fn byte_cap_applies_before_utf8_decoding() {
        // A latin-1 file over the byte cap is a limit error, as in
        // `strudel detect` and `strudel serve`, not a decode error.
        let model = fitted();
        let dir = std::env::temp_dir().join(format!("strudel-batch-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let latin1 = dir.join("latin1.csv");
        std::fs::write(&latin1, b"Gemeinde,M\xfcnchen\nK\xf6ln,1084000\n").unwrap();
        let limits = Limits {
            max_input_bytes: Some(10),
            ..Limits::standard()
        };
        let result = detect_all(
            &model,
            &[BatchInput::path(&latin1)],
            &BatchConfig {
                n_threads: 1,
                limits,
            },
        );
        std::fs::remove_dir_all(&dir).ok();
        let error = result.structures[0].as_ref().unwrap_err();
        assert_eq!(error.category(), "limit", "{error}");
        assert_eq!(result.report.outcomes[0].category, Some("limit"));
    }

    #[test]
    fn report_counts_stages_per_successful_file() {
        let model = fitted();
        let texts = sample_texts(3);
        let inputs: Vec<BatchInput> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| BatchInput::text(format!("f{i}"), t.clone()))
            .collect();
        let result = detect_all(
            &model,
            &inputs,
            &BatchConfig {
                n_threads: 1,
                ..BatchConfig::default()
            },
        );
        for stage in Stage::ALL {
            // Whole-file batch runs never touch the streaming stage or
            // the container encode/decode stages.
            let want = if matches!(stage, Stage::Stream | Stage::Pack | Stage::Unpack) {
                0
            } else {
                3
            };
            assert_eq!(result.report.stage_timings.count(stage), want);
        }
        assert!(result.report.files_per_second() > 0.0);
        assert!(result.report.bytes_per_second() > 0.0);
        let total_bytes: usize = result.report.outcomes.iter().map(|o| o.n_bytes).sum();
        assert_eq!(total_bytes, texts.iter().map(String::len).sum::<usize>());
    }

    #[test]
    fn empty_batch() {
        let model = fitted();
        let result = detect_all(&model, &[], &BatchConfig::default());
        assert!(result.structures.is_empty());
        assert_eq!(result.report.n_ok(), 0);
        let json = result.report.to_json();
        assert!(json.contains("\"n_files\": 0"));
    }

    #[test]
    fn json_report_schema_and_escaping() {
        let model = fitted();
        let inputs = vec![
            BatchInput::text("quo\"ted\nid", sample_texts(1)[0].clone()),
            BatchInput::path("/definitely/not/here.csv"),
        ];
        let result = detect_all(
            &model,
            &inputs,
            &BatchConfig {
                n_threads: 1,
                ..BatchConfig::default()
            },
        );
        let json = result.report.to_json();
        for key in [
            "\"n_files\": 2",
            "\"ok\": 1",
            "\"failed\": 1",
            "\"wall_ms\"",
            "\"files_per_second\"",
            "\"stages_ms\"",
            "\"dialect\"",
            "\"cell_classify\"",
            "\"files\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("quo\\\"ted\\nid"));
        assert!(json.contains("\"ok\": false"));
    }

    #[test]
    fn throughput_guards_zero_elapsed() {
        // A report whose wall clock never advanced (possible on coarse
        // timers, or when rendering metrics immediately after startup)
        // must report zero throughput, not inf/NaN — `strudel serve`
        // renders these numbers into /metrics where NaN is invalid.
        let report = BatchReport {
            stage_timings: StageTimings::default(),
            outcomes: vec![FileOutcome {
                id: "x".into(),
                n_rows: 1,
                n_cells: 1,
                n_bytes: 100,
                elapsed: Duration::ZERO,
                error: None,
                category: None,
            }],
            wall: Duration::ZERO,
            n_threads: 1,
        };
        assert_eq!(report.files_per_second(), 0.0);
        assert_eq!(report.bytes_per_second(), 0.0);
        assert!(report.files_per_second().is_finite());

        // The shared helper itself: zero elapsed, zero count, and the
        // normal case.
        assert_eq!(rate(5.0, Duration::ZERO), 0.0);
        assert_eq!(rate(0.0, Duration::from_secs(2)), 0.0);
        assert_eq!(rate(6.0, Duration::from_secs(2)), 3.0);
    }

    #[test]
    fn streamed_batch_matches_whole_file_counts_and_isolates_failures() {
        let model = fitted();
        let texts = sample_texts(5);
        let mut inputs: Vec<BatchInput> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| BatchInput::text(format!("f{i}"), t.clone()))
            .collect();
        inputs.push(BatchInput::path("/definitely/not/here.csv"));
        let config = BatchConfig {
            n_threads: 2,
            ..BatchConfig::default()
        };
        let whole = detect_all(&model, &inputs, &config);
        let streamed = detect_all_streamed(&model, &inputs, &config, &StreamConfig::default());
        assert_eq!(streamed.outcomes.len(), whole.report.outcomes.len());
        // Every text fits in one default window, so the streamed counts
        // come from the identical whole-file pipeline.
        for (s, w) in streamed.outcomes.iter().zip(&whole.report.outcomes) {
            assert_eq!(s.id, w.id);
            assert_eq!(s.n_rows, w.n_rows, "{}", s.id);
            assert_eq!(s.n_cells, w.n_cells, "{}", s.id);
            assert_eq!(s.n_bytes, w.n_bytes, "{}", s.id);
            assert_eq!(s.category, w.category, "{}", s.id);
        }
        assert_eq!(streamed.n_ok(), texts.len());
        assert_eq!(streamed.n_failed(), 1);
        assert_eq!(
            streamed.stage_timings.count(Stage::Stream),
            texts.len() as u64
        );
        assert_eq!(streamed.stage_timings.stream_windows(), texts.len() as u64);
        // The report schema is unchanged — the stream stage key simply
        // carries time now.
        assert!(streamed.to_json().contains("\"stream\":"));
    }

    #[test]
    fn peak_rss_reads_proc_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM available on Linux");
            assert!(rss > 0);
        }
    }

    #[test]
    fn resolve_threads_explicit_request_wins() {
        // The env fallback is exercised end-to-end by the CLI tests
        // (subprocess-scoped env); in-process we only pin the explicit
        // path, which must ignore the environment entirely.
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn inference_threads_pins_one_per_worker_when_several() {
        assert_eq!(inference_threads(1), 0);
        assert_eq!(inference_threads(2), 1);
        assert_eq!(inference_threads(8), 1);
    }
}
