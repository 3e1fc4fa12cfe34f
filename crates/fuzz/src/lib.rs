//! Deterministic adversarial fuzzing for the Strudel pipeline.
//!
//! The harness asserts the central contract of the typed-error refactor:
//! **every byte string fed to structure detection yields `Ok(Structure)`
//! or a typed [`StrudelError`] — never a panic.**
//!
//! Inputs come from a seeded mutation engine: well-formed verbose CSV
//! files (from `strudel-datagen`, rendered with several delimiters) and
//! a set of handcrafted pathological bases are corrupted by a random
//! stack of byte-level mutations — truncation (possibly mid-UTF-8
//! sequence), quote and escape corruption, delimiter injection, NUL /
//! BOM / invalid-UTF-8 splices, ragged rows, line-ending churn, chunk
//! duplication, and megabyte single lines.
//!
//! Everything is driven by a single `u64` seed, so any failure found in
//! a long soak ([`run`] via the `strudel-fuzz` binary or
//! `scripts/fuzz.sh`) replays exactly in a debugger, and the bounded
//! tier-1 smoke test is fully reproducible in CI.
//!
//! Since the zero-copy block-scanner rewrite the harness is also a
//! **differential** fuzzer: every input is additionally parsed by both
//! the production scanner and the retained legacy char-walker under a
//! panel of dialects, and any divergence — different rows, different
//! limit kind, different limit counts — is a failure in its own right,
//! tallied separately from panics ([`FuzzReport::divergences`]).
//!
//! The bounded-memory streaming classifier adds a third differential
//! dimension: every input is also classified through
//! [`strudel::StreamClassifier`] under the [`stream_panel`] of window
//! geometries. The huge-window geometry must reproduce the whole-file
//! [`Strudel::try_detect_structure_bytes`] output — structure JSON *and*
//! error payloads — exactly, and every geometry must be invariant to how
//! the byte stream is chunked. Any disagreement counts as a divergence
//! and fails the soak ([`check_stream_divergence`]).
//!
//! The packed container format adds a fourth dimension
//! ([`check_pack_roundtrip`]): every input that packs cleanly must
//! unpack byte-identically, and the container must fail *typed* at
//! every truncation prefix, under a spread of single-byte corruptions,
//! and under directory mutations sealed with a fresh checksum — a panic
//! or a silent wrong reconstruction anywhere in the pack→unpack path
//! fails the soak.

#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use strudel::{
    stream_to_json, ContentHash, StreamClassifier, StreamConfig, StreamSummary, Strudel,
    StrudelCellConfig, StrudelLineConfig,
};
use strudel_dialect::legacy::try_parse_legacy;
use strudel_dialect::{try_parse, Dialect};
use strudel_ml::ForestConfig;
use strudel_table::{LimitKind, Limits, StrudelError};

/// Fit the small fixed model the fuzz targets run under. Inference is a
/// pure function of (model, input), so one cheap model exercises the
/// exact same parsing and classification code paths as a full-size one.
pub fn fuzz_model() -> Strudel {
    let corpus = strudel_datagen::saus(&strudel_datagen::GeneratorConfig {
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
}

/// Well-formed and pathological base inputs the mutation engine starts
/// from. All deterministic: synthetic corpora under fixed seeds rendered
/// with several delimiters, plus handcrafted structural edge cases.
pub fn base_inputs() -> Vec<Vec<u8>> {
    let mut bases: Vec<Vec<u8>> = Vec::new();
    let cfg = strudel_datagen::GeneratorConfig {
        n_files: 3,
        seed: 11,
        scale: 0.2,
    };
    for name in ["saus", "deex", "govuk"] {
        let corpus = strudel_datagen::by_name(name, &cfg);
        for (i, file) in corpus.files.iter().enumerate() {
            let delimiter = [',', ';', '\t'][i % 3];
            bases.push(file.table.to_delimited(delimiter).into_bytes());
        }
    }
    for text in [
        "",
        "\n",
        "\u{FEFF}a,b\n1,2\n",
        "\"\"",
        "\"unterminated\nquote,runs\nto,eof",
        "a,b,c\n1\n1,2,3,4,5\n",
        "only one column\nno delimiter here\n",
        "\r\rcr,only\rline,endings\r",
        "x,\"quote \"\" inside\",y\n",
        "Notes: total includes \"estimates\", see appendix\na,b\n1,2\n",
    ] {
        bases.push(text.as_bytes().to_vec());
    }
    bases
}

/// Number of distinct mutation operators in [`mutate_once`].
pub const N_MUTATIONS: usize = 11;

/// Apply one random byte-level mutation to `data` in place.
pub fn mutate_once(data: &mut Vec<u8>, rng: &mut SmallRng) {
    // Positions are byte offsets, deliberately blind to UTF-8 boundaries:
    // splitting a multi-byte sequence is one of the adversarial cases.
    let pos = |data: &Vec<u8>, rng: &mut SmallRng| rng.gen_range(0..data.len().max(1));
    match rng.gen_range(0..N_MUTATIONS) {
        // Truncate at an arbitrary byte.
        0 => {
            let at = pos(data, rng);
            data.truncate(at);
        }
        // Flip one byte to an arbitrary value.
        1 => {
            if !data.is_empty() {
                let at = pos(data, rng);
                data[at] = rng.gen_range(0..=255u32) as u8;
            }
        }
        // Insert or delete a quote character.
        2 => {
            let at = pos(data, rng);
            if rng.gen_bool(0.5) || data.is_empty() {
                data.insert(at.min(data.len()), b'"');
            } else {
                data.remove(at);
            }
        }
        // Inject a delimiter or escape character.
        3 => {
            let ch = *[b',', b';', b'\t', b'|', b':', b'\\']
                .get(rng.gen_range(0..6))
                .unwrap();
            let at = pos(data, rng);
            data.insert(at.min(data.len()), ch);
        }
        // Splice NUL bytes (binary content).
        4 => {
            let at = pos(data, rng).min(data.len());
            for _ in 0..rng.gen_range(1..4usize) {
                data.insert(at, 0);
            }
        }
        // Splice a UTF-8 BOM, at the start or mid-stream.
        5 => {
            let at = if rng.gen_bool(0.5) {
                0
            } else {
                pos(data, rng).min(data.len())
            };
            for &b in [0xEF, 0xBB, 0xBF].iter().rev() {
                data.insert(at, b);
            }
        }
        // Splice invalid UTF-8 (lone continuation / impossible bytes).
        6 => {
            let at = pos(data, rng).min(data.len());
            let junk: &[u8] = match rng.gen_range(0..3) {
                0 => &[0xFF, 0xFE],
                1 => &[0x80, 0x80],
                _ => &[0xC3], // truncated 2-byte sequence
            };
            for &b in junk.iter().rev() {
                data.insert(at, b);
            }
        }
        // Make rows ragged: prepend delimiters to one line.
        7 => {
            let at = pos(data, rng).min(data.len());
            for _ in 0..rng.gen_range(1..5usize) {
                data.insert(at, b',');
            }
        }
        // Splice a very long single line (no newline inside).
        8 => {
            let at = pos(data, rng).min(data.len());
            let run = rng.gen_range(1_000..32_000usize);
            data.splice(at..at, std::iter::repeat_n(b'x', run));
        }
        // Line-ending churn: rewrite `\n` as `\r` or `\r\n`.
        9 => {
            let crlf = rng.gen_bool(0.5);
            let mut out = Vec::with_capacity(data.len() + 16);
            for &b in data.iter() {
                if b == b'\n' {
                    out.push(b'\r');
                    if crlf {
                        out.push(b'\n');
                    }
                } else {
                    out.push(b);
                }
            }
            *data = out;
        }
        // Duplicate a random chunk to a random position.
        _ => {
            if !data.is_empty() {
                let start = pos(data, rng);
                let end = (start + rng.gen_range(1..256usize)).min(data.len());
                let chunk: Vec<u8> = data[start..end].to_vec();
                let at = pos(data, rng).min(data.len());
                data.splice(at..at, chunk);
            }
        }
    }
}

/// Produce the `i`-th adversarial input for `seed`: a random base with a
/// random stack of 1–4 mutations applied.
pub fn mutated_input(bases: &[Vec<u8>], seed: u64, i: u64) -> Vec<u8> {
    // One RNG per input (keyed on seed and index) so any single failing
    // input replays without regenerating its predecessors.
    let mut rng = SmallRng::seed_from_u64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut data = bases[rng.gen_range(0..bases.len())].clone();
    for _ in 0..rng.gen_range(1..=4usize) {
        mutate_once(&mut data, &mut rng);
    }
    data
}

/// Tight limits for fuzzing: low enough that mutated inputs actually
/// trip every limit kind, high enough that most well-formed bases pass.
pub fn fuzz_limits() -> Limits {
    let mut limits = Limits::standard();
    limits.max_input_bytes = Some(512 * 1024);
    limits.max_line_bytes = Some(16 * 1024);
    limits.max_rows = Some(4_096);
    limits.max_cols = Some(256);
    limits.max_cells = Some(65_536);
    limits.max_quoted_field_bytes = Some(8 * 1024);
    limits.max_file_wall = Some(Duration::from_secs(10));
    limits
}

/// Outcome tally of a fuzz run.
#[derive(Debug, Default, Clone)]
pub struct FuzzReport {
    /// Inputs that produced a structure.
    pub ok: u64,
    /// Inputs that produced a typed error, tallied by category.
    pub errors: BTreeMap<&'static str, u64>,
    /// Inputs that panicked — must be zero; kept as a count (with the
    /// first offending index) so a soak reports all of them.
    pub panics: u64,
    /// Index of the first panicking input, for replay.
    pub first_panic: Option<u64>,
    /// Inputs on which any differential check disagreed — the block
    /// scanner vs the legacy char-walker, or the streaming panel vs the
    /// whole-file oracle — must be zero.
    pub divergences: u64,
    /// Index and description of the first divergence, for replay.
    pub first_divergence: Option<(u64, String)>,
}

impl FuzzReport {
    /// Total number of inputs processed.
    pub fn total(&self) -> u64 {
        self.ok + self.errors.values().sum::<u64>() + self.panics
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let errs: Vec<String> = self
            .errors
            .iter()
            .map(|(cat, n)| format!("{cat}: {n}"))
            .collect();
        format!(
            "{} inputs: {} ok, {} panics, {} parser divergences, errors {{{}}}",
            self.total(),
            self.ok,
            self.panics,
            self.divergences,
            errs.join(", ")
        )
    }
}

/// The dialect panel every fuzz input is differentially parsed under:
/// the common production dialects plus quote/escape combinations that
/// stress the scanner's copy-on-write and state-carry paths.
pub fn divergence_dialects() -> Vec<Dialect> {
    vec![
        Dialect::rfc4180(),
        Dialect::with_delimiter(';'),
        Dialect::with_delimiter('\t'),
        Dialect {
            delimiter: ',',
            quote: Some('"'),
            escape: Some('\\'),
        },
        Dialect {
            delimiter: ',',
            quote: None,
            escape: Some('\\'),
        },
        Dialect {
            delimiter: '|',
            quote: Some('\''),
            escape: None,
        },
    ]
}

/// Differentially parse one input with the block scanner and the legacy
/// char-walker under every panel dialect, both unbounded and under
/// `limits`. Returns a description of the first divergence, or `None`
/// when the two paths are indistinguishable on this input.
///
/// Inputs that are not valid UTF-8 are skipped: both parsers operate on
/// `&str`, so decoding rejects such inputs before either path runs.
pub fn check_divergence(input: &[u8], limits: &Limits) -> Option<String> {
    let text = match std::str::from_utf8(input) {
        Ok(t) => t,
        Err(_) => return None,
    };
    for dialect in divergence_dialects() {
        for (label, bounds) in [("unbounded", Limits::unbounded()), ("bounded", *limits)] {
            let legacy = try_parse_legacy(text, &dialect, &bounds);
            let fast = try_parse(text, &dialect, &bounds);
            let agree = match (&legacy, &fast) {
                (Ok(a), Ok(b)) => a == b,
                (
                    Err(StrudelError::LimitExceeded {
                        limit: la,
                        actual: aa,
                        max: ma,
                        ..
                    }),
                    Err(StrudelError::LimitExceeded {
                        limit: lb,
                        actual: ab,
                        max: mb,
                        ..
                    }),
                ) => la == lb && aa == ab && ma == mb,
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            if !agree {
                return Some(format!(
                    "{label} parse under {dialect:?}: legacy {legacy:?} vs scanner {fast:?}"
                ));
            }
        }
    }
    None
}

/// The window geometries every fuzz input is streamed under. One
/// inference thread each: a serial window keeps the per-input cost of
/// the panel flat.
pub fn stream_panel() -> [StreamConfig; 3] {
    let serial = StreamConfig {
        n_threads: 1,
        ..StreamConfig::default()
    };
    [
        // A window far beyond any fuzz input: the stream always takes
        // the single-window whole-file path, so its output and error
        // payloads must match `try_detect_structure_bytes` exactly.
        StreamConfig {
            window_rows: 1 << 30,
            window_bytes: 1 << 30,
            prefix_bytes: 1 << 30,
            ..serial.clone()
        },
        // Row-driven windows with a tiny dialect-detection prefix.
        StreamConfig {
            window_rows: 8,
            window_bytes: 1 << 20,
            prefix_bytes: 32,
            ..serial.clone()
        },
        // Byte-driven windows: the 2x hard cap cuts mid-table, and the
        // oversized-record guard fires on long single lines.
        StreamConfig {
            window_rows: 1 << 16,
            window_bytes: 512,
            prefix_bytes: 16,
            ..serial
        },
    ]
}

/// Stream one input through [`StreamClassifier`] in `chunk`-byte pushes,
/// reducing the outcome to what the parity checks compare: the summary
/// and the assembled canonical JSON, or the first typed error.
fn run_stream(
    model: &Strudel,
    input: &[u8],
    config: &StreamConfig,
    chunk: usize,
) -> Result<(StreamSummary, String), StrudelError> {
    let mut classifier = StreamClassifier::new(model, config.clone());
    let mut windows = Vec::new();
    for piece in input.chunks(chunk.max(1)) {
        classifier.push(piece)?;
        windows.extend(classifier.drain_windows());
    }
    let summary = classifier.finish()?;
    windows.extend(classifier.drain_windows());
    Ok((summary, stream_to_json(&windows)))
}

/// Typed-error agreement for the streaming checks: `LimitExceeded`
/// payloads must match on (kind, actual, max) — the `file` tag differs
/// by entry point — and every other error must be exactly equal.
fn errors_agree(a: &StrudelError, b: &StrudelError) -> bool {
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
        ) => la == lb && aa == ab && ma == mb,
        _ => a == b,
    }
}

/// The one documented error-order divergence of the streaming path: on
/// an input that is both oversized and invalid UTF-8, whole-file mode
/// checks the raw byte cap before decoding anything, while the
/// streaming path hits the invalid sequence while bytes are still
/// flowing in (errors arrive in stream-offset order).
fn phase_order_corner(whole: &StrudelError, stream: &StrudelError) -> bool {
    matches!(
        whole,
        StrudelError::LimitExceeded {
            limit: LimitKind::InputBytes,
            ..
        }
    ) && matches!(stream, StrudelError::Parse { reason, .. } if reason == "invalid UTF-8")
}

/// Differentially classify one input through the streaming panel.
/// Returns a description of the first divergence, or `None` when every
/// geometry is chunk-invariant and the huge-window geometry reproduces
/// the whole-file oracle.
pub fn check_stream_divergence(model: &Strudel, input: &[u8], limits: &Limits) -> Option<String> {
    let whole = model
        .try_detect_structure_bytes(input, limits)
        .map(|s| s.to_json());
    for (p, base) in stream_panel().into_iter().enumerate() {
        let config = StreamConfig {
            limits: *limits,
            ..base
        };
        // One push of everything, plus an input-length-derived chunking
        // so the seam positions vary with every mutated input.
        let chunkings = [input.len().max(1), input.len() % 53 + 7];
        let mut reference: Option<Result<(StreamSummary, String), StrudelError>> = None;
        for chunk in chunkings {
            let got = run_stream(model, input, &config, chunk);
            if p == 0 {
                let agree = match (&whole, &got) {
                    (Ok(a), Ok((_, b))) => a == b,
                    (Err(a), Err(b)) => errors_agree(a, b) || phase_order_corner(a, b),
                    _ => false,
                };
                if !agree {
                    fn show<T>(r: &Result<T, StrudelError>) -> String {
                        match r {
                            Ok(_) => "Ok(json)".to_string(),
                            Err(e) => format!("{e:?}"),
                        }
                    }
                    return Some(format!(
                        "stream (chunk {chunk}): whole-file {} vs stream {}",
                        show(&whole),
                        show(&got),
                    ));
                }
            }
            match &reference {
                None => reference = Some(got),
                Some(first) => {
                    let agree = match (first, &got) {
                        (Ok(a), Ok(b)) => a == b,
                        (Err(a), Err(b)) => errors_agree(a, b),
                        _ => false,
                    };
                    if !agree {
                        return Some(format!(
                            "stream config {p}: chunk size {chunk} diverges from single-push"
                        ));
                    }
                }
            }
        }
    }
    None
}

/// The window geometries every input is packed under: the default
/// single-window path and a tiny window that seals many block groups,
/// exercising the multi-group container layout.
pub fn pack_panel() -> [StreamConfig; 2] {
    let serial = StreamConfig {
        n_threads: 1,
        ..StreamConfig::default()
    };
    [
        serial.clone(),
        StreamConfig {
            window_rows: 8,
            window_bytes: 1 << 20,
            prefix_bytes: 32,
            ..serial
        },
    ]
}

/// Pack→unpack differential check: every input that packs cleanly must
/// unpack byte-identically under every panel geometry, and the
/// resulting container must fail *typed* — never panic, never
/// reconstruct different bytes — at every truncation prefix, under a
/// spread of single-byte corruptions, and under directory mutations
/// sealed with a fresh checksum. Inputs the packer rejects (binary
/// content, limit violations) are legitimate typed outcomes, not
/// divergences.
pub fn check_pack_roundtrip(model: &Strudel, input: &[u8], limits: &Limits) -> Option<String> {
    for (p, base) in pack_panel().into_iter().enumerate() {
        let config = StreamConfig {
            limits: *limits,
            ..base
        };
        let packed = match strudel_pack::pack_bytes(model, input, config) {
            Ok(packed) => packed,
            Err(_) => continue,
        };
        match strudel_pack::unpack_bytes(&packed.bytes) {
            Ok(bytes) if bytes == input => {}
            Ok(_) => {
                return Some(format!(
                    "pack config {p}: unpack is not byte-identical to the input"
                ))
            }
            Err(e) => {
                return Some(format!(
                    "pack config {p}: fresh container failed to unpack: {e}"
                ))
            }
        }
        // Truncation at every prefix: a cut container must never
        // silently reconstruct different bytes. (`open` fails fast on a
        // missing tail, so the sweep is linear in the container size.)
        for prefix in 0..packed.bytes.len() {
            if let Ok(mut reader) = strudel_pack::PackReader::open(&packed.bytes[..prefix]) {
                if let Ok(bytes) = reader.unpack() {
                    if bytes != input {
                        return Some(format!(
                            "pack config {p}: truncation at {prefix} unpacked different bytes"
                        ));
                    }
                }
            }
        }
        // Single-byte corruption spread: blocks and the directory carry
        // checksums and the tail is checked structurally, so a flipped
        // byte must be rejected or — if the flip never reaches a
        // decoded path — reproduce the input. The checksums are unkeyed
        // FNV, though, so they stop accidents, not crafted files: the
        // sealed-directory pass below rewrites the checksum too.
        let step = (packed.bytes.len() / 16).max(1);
        for at in (0..packed.bytes.len()).step_by(step) {
            let mut corrupt = packed.bytes.clone();
            corrupt[at] ^= 0x41;
            if let Ok(mut reader) = strudel_pack::PackReader::open(&corrupt) {
                if let Ok(bytes) = reader.unpack() {
                    if bytes != input {
                        return Some(format!(
                            "pack config {p}: byte flip at {at} unpacked different bytes"
                        ));
                    }
                }
            }
        }
        if let Some(desc) = check_sealed_directories(&packed.bytes, input) {
            return Some(format!("pack config {p}: {desc}"));
        }
    }
    None
}

/// Values the sealed-directory pass writes into numeric directory fields.
const EXTREMES: [u64; 3] = [0, 1 << 63, u64::MAX];

/// Read one LEB128 varint at `*pos`, returning its byte span and value.
fn read_leb128(data: &[u8], pos: &mut usize) -> Option<(std::ops::Range<usize>, u64)> {
    let start = *pos;
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *data.get(*pos)?;
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some((start..*pos, value));
        }
    }
    None
}

/// Encode `v` as a LEB128 varint.
fn write_leb128(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// Byte spans of the numeric fields of a directory in `strudel_pack`'s
/// wire layout, in wire order, each flagged `true` when it is a fixed
/// 8-byte little-endian field: the original length, the group and table
/// counts, each table's group and column count, and each block's offset
/// and length.
fn directory_fields(dir: &[u8]) -> Option<Vec<(std::ops::Range<usize>, bool)>> {
    let mut pos = 0;
    let mut fields = Vec::new();
    read_leb128(dir, &mut pos)?; // version
    read_leb128(dir, &mut pos)?; // delimiter
    for _ in 0..2 {
        // Quote and escape: a presence flag, then the character.
        pos += 1;
        if *dir.get(pos - 1)? == 1 {
            read_leb128(dir, &mut pos)?;
        }
    }
    pos += 17; // BOM flag, original h1 and h2
    fields.push((pos..pos + 8, true));
    pos += 8;
    fields.push((read_leb128(dir, &mut pos)?.0, false));
    let (span, n_tables) = read_leb128(dir, &mut pos)?;
    fields.push((span, false));
    for _ in 0..n_tables {
        fields.push((read_leb128(dir, &mut pos)?.0, false));
        read_leb128(dir, &mut pos)?; // body rows
        let (span, n_cols) = read_leb128(dir, &mut pos)?;
        fields.push((span, false));
        for _ in 0..n_cols {
            pos += read_leb128(dir, &mut pos)?.1 as usize;
        }
    }
    let n_blocks = read_leb128(dir, &mut pos)?.1;
    for _ in 0..n_blocks {
        pos += 1; // kind
        for field in 0..5 {
            // group, table, column, then offset and length
            let (span, _) = read_leb128(dir, &mut pos)?;
            if field >= 3 {
                fields.push((span, false));
            }
        }
        pos += 16; // h1, h2
    }
    Some(fields)
}

/// Sealed-directory pass: mutate the directory of a freshly packed
/// container — byte flips, and numeric fields set to [`EXTREMES`] — and
/// write a fresh checksum into the tail, as a crafted file would. Every
/// mutant must open and unpack to a typed error or to `input`, and
/// extracting any of its tables must not panic. Up to 16 fields are
/// mutated (always the original length and the group and table counts)
/// so the pass stays cheap on many-block containers.
fn check_sealed_directories(packed: &[u8], input: &[u8]) -> Option<String> {
    let tail_at = packed.len() - strudel_pack::TAIL_LEN;
    let dir_at = u64::from_le_bytes(packed[tail_at..][..8].try_into().expect("8 bytes")) as usize;
    let dir = &packed[dir_at..tail_at];
    let mut mutants = Vec::new();
    for at in (0..dir.len()).step_by((dir.len() / 8).max(1)) {
        let mut mutant = dir.to_vec();
        mutant[at] ^= 0x41;
        mutants.push(mutant);
    }
    let fields = directory_fields(dir).expect("a freshly packed directory parses");
    let step = (fields.len() / 16).max(1);
    for (i, (span, fixed)) in fields.into_iter().enumerate() {
        if i >= 3 && i % step != 0 {
            continue;
        }
        for v in EXTREMES {
            let mut mutant = dir[..span.start].to_vec();
            mutant.extend(if fixed {
                v.to_le_bytes().to_vec()
            } else {
                write_leb128(v)
            });
            mutant.extend_from_slice(&dir[span.end..]);
            mutants.push(mutant);
        }
    }
    for mutant in mutants {
        let hash = ContentHash::of(&mutant);
        let mut sealed = packed[..dir_at].to_vec();
        sealed.extend_from_slice(&mutant);
        for v in [dir_at as u64, mutant.len() as u64, hash.h1, hash.h2] {
            sealed.extend_from_slice(&v.to_le_bytes());
        }
        sealed.extend_from_slice(&packed[packed.len() - 8..]); // end magic
        if let Ok(mut reader) = strudel_pack::PackReader::open(&sealed) {
            for t in 0..reader.tables().len() {
                let _ = reader.extract_table(t);
            }
            if reader.unpack().is_ok_and(|bytes| bytes != input) {
                return Some("a sealed directory mutant unpacked different bytes".into());
            }
        }
    }
    None
}

/// Feed one input through guarded structure detection, recording the
/// outcome, then differentially parse it through both parser paths.
/// Panics are caught and tallied, never propagated — the soak keeps
/// going to find every offending input, not just the first.
pub fn run_one(model: &Strudel, input: &[u8], limits: &Limits, i: u64, report: &mut FuzzReport) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model.try_detect_structure_bytes(input, limits).map(|_| ())
    }));
    match result {
        Ok(Ok(())) => report.ok += 1,
        Ok(Err(e)) => *report.errors.entry(e.category()).or_insert(0) += 1,
        Err(_) => {
            report.panics += 1;
            report.first_panic.get_or_insert(i);
        }
    }
    for check in [
        catch_unwind(AssertUnwindSafe(|| check_divergence(input, limits))),
        catch_unwind(AssertUnwindSafe(|| {
            check_stream_divergence(model, input, limits)
        })),
        catch_unwind(AssertUnwindSafe(|| {
            check_pack_roundtrip(model, input, limits)
        })),
    ] {
        match check {
            Ok(None) => {}
            Ok(Some(desc)) => {
                report.divergences += 1;
                if report.first_divergence.is_none() {
                    report.first_divergence = Some((i, desc));
                }
            }
            Err(_) => {
                // A panic inside a differential path is both a panic
                // and, by definition, a divergence from the
                // non-panicking reference.
                report.panics += 1;
                report.first_panic.get_or_insert(i);
            }
        }
    }
}

/// Run `iterations` seeded adversarial inputs through the pipeline under
/// `limits` and tally the outcomes.
pub fn run(model: &Strudel, seed: u64, iterations: u64, limits: &Limits) -> FuzzReport {
    let bases = base_inputs();
    let mut report = FuzzReport::default();
    for i in 0..iterations {
        let input = mutated_input(&bases, seed, i);
        run_one(model, &input, limits, i, &mut report);
    }
    report
}

/// One probe input per [`LimitKind`]: a `(kind, limits, input)` triple
/// whose detection must fail with exactly `LimitExceeded { limit: kind }`.
/// The smoke test runs all of them so every configured limit is known to
/// actually fire, not just to exist.
pub fn limit_probes() -> Vec<(LimitKind, Limits, Vec<u8>)> {
    let base = Limits::unbounded;
    let csv = |rows: usize, cols: usize| -> Vec<u8> {
        let row = vec!["v"; cols].join(",");
        let mut out = String::new();
        for _ in 0..rows {
            out.push_str(&row);
            out.push('\n');
        }
        out.into_bytes()
    };
    vec![
        (
            LimitKind::InputBytes,
            {
                let mut l = base();
                l.max_input_bytes = Some(8);
                l
            },
            b"a,b\n1,2\n3,4\n".to_vec(),
        ),
        (
            LimitKind::LineBytes,
            {
                let mut l = base();
                l.max_line_bytes = Some(16);
                l
            },
            format!("a,b\n{},end\n", "x".repeat(64)).into_bytes(),
        ),
        (
            LimitKind::Rows,
            {
                let mut l = base();
                l.max_rows = Some(4);
                l
            },
            csv(10, 2),
        ),
        (
            LimitKind::Cols,
            {
                let mut l = base();
                l.max_cols = Some(4);
                l
            },
            csv(2, 10),
        ),
        (
            LimitKind::Cells,
            {
                let mut l = base();
                l.max_cells = Some(16);
                l
            },
            csv(10, 5),
        ),
        (
            LimitKind::QuotedFieldBytes,
            {
                let mut l = base();
                l.max_quoted_field_bytes = Some(16);
                l
            },
            format!("a,\"{}\"\n", "q".repeat(64)).into_bytes(),
        ),
        (
            LimitKind::WallClock,
            {
                let mut l = base();
                l.max_file_wall = Some(Duration::ZERO);
                l
            },
            csv(50, 3),
        ),
    ]
}

/// Assert that every limit probe fails with its own limit kind. Returns
/// the offending description on failure (used by both the smoke test and
/// the soak binary).
pub fn check_limit_probes(model: &Strudel) -> Result<(), String> {
    for (kind, limits, input) in limit_probes() {
        match model.try_detect_structure_bytes(&input, &limits) {
            Err(StrudelError::LimitExceeded { limit, .. }) if limit == kind => {}
            Err(e) => {
                return Err(format!(
                    "probe for {kind:?} failed with the wrong error: {e}"
                ))
            }
            Ok(_) => return Err(format!("probe for {kind:?} did not trip its limit")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutated_inputs_are_deterministic() {
        let bases = base_inputs();
        for i in 0..32 {
            assert_eq!(
                mutated_input(&bases, 99, i),
                mutated_input(&bases, 99, i),
                "input {i} not reproducible"
            );
        }
    }

    #[test]
    fn bases_are_nonempty_and_varied() {
        let bases = base_inputs();
        assert!(bases.len() > 12);
        assert!(bases.iter().any(|b| b.is_empty()));
        assert!(bases.iter().any(|b| b.len() > 200));
    }

    #[test]
    fn mutation_engine_visits_every_operator() {
        // With 500 draws, every operator index should have been chosen.
        let mut seen = [false; N_MUTATIONS];
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..500 {
            // Mirror the operator draw in mutate_once.
            seen[rng.gen_range(0..N_MUTATIONS)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
