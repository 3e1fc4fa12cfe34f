//! Differential streaming-vs-whole-file property tests.
//!
//! The streaming classifier's parity contract (`crates/core/src/stream.rs`)
//! has three legs, each pinned here over randomized verbose CSV
//! documents — quoted fields spanning record and window boundaries,
//! CRLF-heavy and mixed line endings, blank-line table separators:
//!
//! 1. **Chunk invariance** — the output (or the typed error payload) is
//!    a pure function of the byte stream and the [`StreamConfig`], never
//!    of how the stream was chunked.
//! 2. **Whole-file parity** — a stream that fits in one window is
//!    byte-identical to `try_detect_structure_bytes`, including the
//!    limit-error payloads under randomized tight limits.
//! 3. **Per-window oracle** — every window of a multi-window stream
//!    equals `Strudel::detect` re-run with the stream's dialect on that
//!    window's slice of the input.

use proptest::prelude::*;
use std::sync::OnceLock;
use strudel_repro::datagen::{saus, GeneratorConfig};
use strudel_repro::ml::ForestConfig;
use strudel_repro::strudel::{
    stream_to_json, Deadline, Limits, StageTimings, StreamClassifier, StreamConfig, StreamSummary,
    StreamWindow, Strudel, StrudelCellConfig, StrudelError, StrudelLineConfig,
};

/// The shared fitted model: small, fixed, fitted once — parity is a
/// differential property, so model quality is irrelevant as long as both
/// paths run the same one.
fn model() -> &'static Strudel {
    static MODEL: OnceLock<Strudel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let corpus = saus(&GeneratorConfig {
            n_files: 8,
            seed: 7,
            scale: 0.2,
        });
        Strudel::fit(
            &corpus.files,
            &StrudelCellConfig {
                line: StrudelLineConfig {
                    forest: ForestConfig::fast(6, 1),
                    ..StrudelLineConfig::default()
                },
                forest: ForestConfig::fast(6, 2),
                ..StrudelCellConfig::default()
            },
        )
    })
}

/// Stream `input` through the classifier in `chunk`-byte pushes.
fn run_stream(
    input: &[u8],
    config: &StreamConfig,
    chunk: usize,
) -> Result<(StreamSummary, Vec<StreamWindow>), StrudelError> {
    let mut classifier = StreamClassifier::new(model(), config.clone());
    let mut windows = Vec::new();
    for piece in input.chunks(chunk.max(1)) {
        classifier.push(piece)?;
        windows.extend(classifier.drain_windows());
    }
    let summary = classifier.finish()?;
    windows.extend(classifier.drain_windows());
    Ok((summary, windows))
}

/// Cells drawn from an alphabet that includes the delimiter, the quote,
/// and both newline characters, so a share of cells force RFC 4180
/// quoting — including quoted fields that span records.
fn arb_cell() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9 ,\"\n\r]{0,10}").expect("valid regex")
}

/// Ragged grids of such cells.
fn arb_grid() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(proptest::collection::vec(arb_cell(), 1..5), 1..28)
}

/// RFC 4180 quoting: delimiter, quote, or line-ending content is wrapped
/// in quotes with inner quotes doubled.
fn quote(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Render a grid as a verbose CSV document: `crlf` selects LF / CRLF /
/// row-alternating line endings, `blank_every > 0` inserts blank-line
/// table separators, `trailing` controls the final newline.
fn render(grid: &[Vec<String>], crlf: u8, blank_every: usize, trailing: bool) -> String {
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let eol = match crlf {
            0 => "\n",
            1 => "\r\n",
            _ => {
                if r % 2 == 0 {
                    "\r\n"
                } else {
                    "\n"
                }
            }
        };
        let line: Vec<String> = row.iter().map(|c| quote(c)).collect();
        out.push_str(&line.join(","));
        if r + 1 < grid.len() || trailing {
            out.push_str(eol);
        }
        if blank_every > 0 && (r + 1) % blank_every == 0 && r + 1 < grid.len() {
            out.push_str(eol);
        }
    }
    out
}

/// Small windows so even short documents span several of them; one
/// worker thread keeps the per-case cost flat.
fn small_windows() -> StreamConfig {
    StreamConfig {
        window_rows: 4,
        window_bytes: 1 << 20,
        prefix_bytes: 16,
        n_threads: 1,
        ..StreamConfig::default()
    }
}

/// Non-vacuity anchor for the property legs: a deterministic well-formed
/// multi-table document must actually stream as several windows with a
/// detected dialect, so the `Ok` branches of the properties are known to
/// be exercised.
#[test]
fn deterministic_multi_table_document_spans_windows() {
    let mut text = String::new();
    for t in 0..5 {
        text.push_str(&format!("Table {t} caption,,\nname,2019,2020\n"));
        for r in 0..6 {
            text.push_str(&format!("row{r},{},{}\n", r + t, r * 2));
        }
        text.push('\n');
    }
    let (summary, windows) = run_stream(text.as_bytes(), &small_windows(), 11).unwrap();
    assert!(summary.n_windows > 1, "fixture must span several windows");
    assert_eq!(windows.len(), summary.n_windows);
    assert_eq!(windows.last().unwrap().end_byte, text.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Leg 2: a stream that fits one window (the default configuration)
    /// is byte-identical to the whole-file pipeline — structure JSON and
    /// typed error payloads alike — at every chunk size, including under
    /// randomized tight limits that make either path fail.
    #[test]
    fn single_window_stream_matches_whole_file(
        grid in arb_grid(),
        crlf in 0u8..3,
        blank_every in 0usize..5,
        trailing in 0u8..2,
        limit_sel in 0u8..4,
    ) {
        let text = render(&grid, crlf, blank_every, trailing == 1);
        let mut limits = Limits::standard();
        match limit_sel {
            1 => limits.max_rows = Some((grid.len() as u64 / 2).max(1)),
            2 => limits.max_input_bytes = Some((text.len() as u64 / 2).max(1)),
            3 => limits.max_cols = Some(2),
            _ => {}
        }
        let whole = model()
            .try_detect_structure_bytes(text.as_bytes(), &limits)
            .map(|s| s.to_json());
        let config = StreamConfig {
            limits,
            n_threads: 1,
            ..StreamConfig::default()
        };
        for chunk in [1, 7, text.len().max(1)] {
            let streamed = run_stream(text.as_bytes(), &config, chunk);
            match (&whole, &streamed) {
                (Ok(want), Ok((summary, windows))) => {
                    prop_assert_eq!(summary.n_windows, 1, "chunk={}", chunk);
                    prop_assert_eq!(summary.total_bytes, text.len() as u64);
                    prop_assert_eq!(&stream_to_json(windows), want, "chunk={}", chunk);
                }
                (Err(want), Err(got)) => {
                    prop_assert_eq!(got, want, "chunk={}", chunk);
                }
                _ => prop_assert!(
                    false,
                    "chunk={}: whole-file {:?} vs streamed {:?}",
                    chunk,
                    whole.as_ref().err(),
                    streamed.as_ref().err()
                ),
            }
        }
    }

    /// Leg 1: under small windows the emitted windows, their byte
    /// bounds, the summary, and any typed error are identical across
    /// chunk sizes — streaming output never depends on the chunking.
    #[test]
    fn multi_window_stream_is_chunk_invariant(
        grid in arb_grid(),
        crlf in 0u8..3,
        blank_every in 0usize..5,
        trailing in 0u8..2,
        chunk_a in 1usize..40,
        chunk_b in 1usize..40,
    ) {
        let text = render(&grid, crlf, blank_every, trailing == 1);
        let config = small_windows();
        let a = run_stream(text.as_bytes(), &config, chunk_a);
        let b = run_stream(text.as_bytes(), &config, chunk_b);
        match (&a, &b) {
            (Ok((sa, wa)), Ok((sb, wb))) => {
                prop_assert_eq!(sa, sb, "chunks {} vs {}", chunk_a, chunk_b);
                let bounds = |w: &[StreamWindow]| -> Vec<(u64, u64, usize)> {
                    w.iter().map(|w| (w.start_byte, w.end_byte, w.first_row)).collect()
                };
                prop_assert_eq!(bounds(wa), bounds(wb));
                prop_assert_eq!(stream_to_json(wa), stream_to_json(wb));
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb, "chunks {} vs {}", chunk_a, chunk_b),
            _ => prop_assert!(
                false,
                "chunks {} vs {}: {:?} vs {:?}",
                chunk_a,
                chunk_b,
                a.as_ref().err(),
                b.as_ref().err()
            ),
        }
    }

    /// Leg 3: every window of a multi-window stream tiles the input
    /// exactly and classifies identically to the whole-file pipeline
    /// re-run on that window's slice under the stream's dialect.
    #[test]
    fn windows_match_per_window_oracle(
        grid in arb_grid(),
        crlf in 0u8..3,
        blank_every in 0usize..5,
    ) {
        let text = render(&grid, crlf, blank_every, true);
        let config = small_windows();
        if let Ok((summary, windows)) = run_stream(text.as_bytes(), &config, 9) {
            prop_assert_eq!(summary.n_windows, windows.len());
            prop_assert_eq!(summary.total_bytes, text.len() as u64);
            let mut next_start = 0u64;
            let mut next_row = 0usize;
            for w in &windows {
                prop_assert_eq!(w.start_byte, next_start, "windows must tile the stream");
                prop_assert_eq!(w.first_row, next_row);
                let slice = &text[w.start_byte as usize..w.end_byte as usize];
                let oracle = model()
                    .detect(
                        slice,
                        Some(&summary.dialect),
                        &config.limits,
                        Deadline::none(),
                        1,
                        &mut StageTimings::default(),
                    )
                    .expect("window slice re-classifies");
                prop_assert_eq!(w.structure.to_json(), oracle.to_json());
                next_start = w.end_byte;
                next_row += w.structure.table.n_rows();
            }
            prop_assert_eq!(next_start, text.len() as u64);
            prop_assert_eq!(next_row, summary.n_rows);
        }
    }
}
