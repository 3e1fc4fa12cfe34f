//! Parse-stage throughput: the zero-copy block scanner vs the retained
//! legacy char-walker.
//!
//! Three synthetic workloads, generated deterministically so runs are
//! comparable:
//!
//! * **verbose_mixed** — a SAUS-style verbose file: preamble notes, a
//!   header, wide data rows that are mostly unquoted with occasional
//!   quoted cells, and trailing footnotes. The representative workload
//!   and the acceptance number.
//! * **quoted_heavy** — every cell quoted, ~1 in 8 containing a
//!   doubled quote. Exercises the copy-on-write unescape path.
//! * **numeric_wide** — dense unquoted numeric cells, maximal
//!   delimiter density. The best case for SWAR classification.
//!
//! Each workload is timed three ways:
//!
//! * **scan** — `scan_records` plus resolution of every field value
//!   (borrowed `Cow` for clean fields, unescaped allocation only for
//!   dirty ones). This is how the rewritten pipeline consumes the parse
//!   stage — dialect scoring and table construction read `RecordsRef`
//!   directly — and it is the headline comparison.
//! * **legacy** — `parse_legacy`, the retained per-char walker that
//!   materialises `Vec<Vec<String>>`.
//! * **owned** — `parse`, the compatibility adapter (block scan +
//!   full owned materialisation). Apples-to-apples with legacy's output
//!   shape; reported so the adapter's allocation cost stays visible.
//!
//! A further section measures the end-to-end pipeline:
//!
//! * **classify** — the full detection pipeline on a fitted model, two
//!   ways: the retained owned path (detect dialect, parse to owned
//!   `Table`, classify) vs the borrowed path (`detect_structure`:
//!   zero-copy scan, classification over borrowed cells, owned
//!   materialisation deferred to the end). Their ratio is the
//!   `pipeline_speedup` headline.
//!
//! Besides the Criterion display output, the bench writes a
//! machine-readable summary to `BENCH_parse.json` (override with
//! `BENCH_PARSE_OUT`). Every headline ratio is computed from the
//! min-over-iterations of each side, after a warm-up run — see [`time`]
//! for why the mean is the wrong estimator on shared hosts. Means are
//! still recorded alongside. `BENCH_SMOKE=1` shrinks the workloads and
//! the iteration counts for CI smoke runs. `scripts/bench_parse.sh`
//! gates on the headlines `speedup_scan_vs_legacy` and
//! `pipeline_speedup` against the committed baseline.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use strudel::{Strudel, StrudelCellConfig, StrudelLineConfig};
use strudel_datagen::{saus, GeneratorConfig};
use strudel_dialect::legacy::parse_legacy;
use strudel_dialect::{detect_dialect, parse, scan_records, Dialect};
use strudel_ml::ForestConfig;
use strudel_table::Table;

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1")
}

struct Workload {
    name: &'static str,
    text: String,
}

/// SAUS-style verbose file: notes, header, wide mostly-unquoted rows
/// with occasional quoted cells (some containing delimiters or doubled
/// quotes), footnotes.
fn verbose_mixed(target_bytes: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(11);
    let mut s = String::with_capacity(target_bytes + 256);
    s.push_str("Table 642. Employment by Sector and Region\n");
    s.push_str("[In thousands of persons. See headnote for coverage]\n\n");
    s.push_str("sector,region,year,employed,unemployed,share_pct,note\n");
    let mut row = 0u64;
    while s.len() < target_bytes {
        let sector = ["Mining", "Utilities", "Construction", "Retail trade"][rng.gen_range(0..4)];
        let year = 1990 + (row % 30);
        let a = rng.gen_range(0..900_000);
        let b = rng.gen_range(0..90_000);
        let pct = rng.gen_range(0..1000) as f64 / 10.0;
        let note = match rng.gen_range(0..10) {
            0 => "\"includes part-time, seasonal\"".to_string(),
            1 => "\"revised \"\"flash\"\" estimate\"".to_string(),
            _ => "na".to_string(),
        };
        s.push_str(&format!(
            "{sector},Region {},{year},{a},{b},{pct:.1},{note}\r\n",
            rng.gen_range(1..10)
        ));
        row += 1;
    }
    s.push_str("\nNote: Totals may not add due to rounding.\n");
    s.push_str("Source: synthetic statistical abstract generator.\n");
    s
}

/// Every cell quoted; roughly one in eight carries a doubled quote, so
/// the scanner's copy-on-write unescape path stays hot.
fn quoted_heavy(target_bytes: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(12);
    let mut s = String::with_capacity(target_bytes + 256);
    while s.len() < target_bytes {
        for col in 0..6 {
            if col > 0 {
                s.push(',');
            }
            s.push('"');
            if rng.gen_range(0..8) == 0 {
                s.push_str("said \"\"ok\"\" twice");
            } else {
                s.push_str(&format!("cell value {}", rng.gen_range(0..100_000)));
            }
            s.push('"');
        }
        s.push('\n');
    }
    s
}

/// Dense unquoted numeric cells: short fields, maximal delimiter
/// density per byte.
fn numeric_wide(target_bytes: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(13);
    let mut s = String::with_capacity(target_bytes + 256);
    while s.len() < target_bytes {
        for col in 0..20 {
            if col > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}", rng.gen_range(0..10_000)));
        }
        s.push('\n');
    }
    s
}

fn workloads() -> Vec<Workload> {
    let target = if smoke() { 1 << 20 } else { 8 << 20 };
    vec![
        Workload {
            name: "verbose_mixed",
            text: verbose_mixed(target),
        },
        Workload {
            name: "quoted_heavy",
            text: quoted_heavy(target),
        },
        Workload {
            name: "numeric_wide",
            text: numeric_wide(target),
        },
    ]
}

/// Mean/min wall-clock seconds of `iters` runs of `f`, after one
/// untimed warm-up run (page cache, allocator pools). The headline
/// ratios below are computed from the *min*: on shared or single-core
/// hosts the mean absorbs scheduler noise that hits a 30 ms scan much
/// harder in relative terms than a 140 ms walk, producing phantom
/// regressions; the min of several runs is the stable estimator of
/// what the code path actually costs.
fn time<F: FnMut()>(iters: usize, mut f: F) -> (f64, f64) {
    f();
    let mut total = 0.0;
    let mut min = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        f();
        let s = t.elapsed().as_secs_f64();
        total += s;
        min = min.min(s);
    }
    (total / iters as f64, min)
}

struct Measurement {
    workload: &'static str,
    bytes: usize,
    scan_mean_s: f64,
    scan_min_s: f64,
    owned_mean_s: f64,
    owned_min_s: f64,
    legacy_mean_s: f64,
    legacy_min_s: f64,
    iters: usize,
}

impl Measurement {
    /// The headline ratio: zero-copy scan (with every field resolved)
    /// vs the legacy materialising walker, min-over-iterations on both
    /// sides (see [`time`]).
    fn speedup(&self) -> f64 {
        self.legacy_min_s / self.scan_min_s
    }

    /// Secondary ratio: owned-adapter `parse` vs legacy — same output
    /// shape, so the allocation cost is identical on both sides.
    fn owned_speedup(&self) -> f64 {
        self.legacy_min_s / self.owned_min_s
    }

    fn scan_mb_s(&self) -> f64 {
        self.bytes as f64 / self.scan_min_s / 1e6
    }

    fn legacy_mb_s(&self) -> f64 {
        self.bytes as f64 / self.legacy_min_s / 1e6
    }
}

/// Scan and touch every resolved field value — the consumption pattern
/// of dialect scoring. Clean fields resolve to borrowed slices; dirty
/// ones pay their unescape allocation.
fn scan_and_resolve(text: &str, dialect: &Dialect) -> usize {
    let records = scan_records(text, dialect);
    let mut total = 0usize;
    for rec in records.iter() {
        for cell in rec.iter() {
            total += cell.len();
        }
    }
    total
}

fn measure(w: &Workload, iters: usize, dialect: &Dialect) -> Measurement {
    let (scan_mean, scan_min) = time(iters, || {
        black_box(scan_and_resolve(&w.text, dialect));
    });
    let (owned_mean, owned_min) = time(iters, || {
        black_box(parse(&w.text, dialect));
    });
    let (legacy_mean, legacy_min) = time(iters, || {
        black_box(parse_legacy(&w.text, dialect));
    });
    Measurement {
        workload: w.name,
        bytes: w.text.len(),
        scan_mean_s: scan_mean,
        scan_min_s: scan_min,
        owned_mean_s: owned_mean,
        owned_min_s: owned_min,
        legacy_mean_s: legacy_mean,
        legacy_min_s: legacy_min,
        iters,
    }
}

/// End-to-end pipeline comparison on a fitted model.
struct ClassifyMeasurement {
    bytes: usize,
    owned_mean_s: f64,
    owned_min_s: f64,
    borrowed_mean_s: f64,
    borrowed_min_s: f64,
    iters: usize,
}

impl ClassifyMeasurement {
    /// The end-to-end headline: owned-path detection time over
    /// borrowed-path detection time, min-over-iterations on both sides.
    fn pipeline_speedup(&self) -> f64 {
        self.owned_min_s / self.borrowed_min_s
    }
}

/// Fit a small but real model for the end-to-end comparison. The fit is
/// outside all timed regions; only detection is measured.
fn fit_model() -> Strudel {
    let corpus = saus(&GeneratorConfig {
        n_files: 8,
        seed: 3,
        scale: 1.0,
    });
    let config = StrudelCellConfig {
        line: StrudelLineConfig {
            forest: ForestConfig::fast(10, 0),
            ..StrudelLineConfig::default()
        },
        forest: ForestConfig::fast(10, 0),
        ..StrudelCellConfig::default()
    };
    Strudel::fit(&corpus.files, &config)
}

/// The pre-refactor pipeline shape: detect the dialect, parse to a
/// fully owned `Table` up front, then classify the owned grid.
fn detect_owned_path(model: &Strudel, text: &str) -> usize {
    let dialect = detect_dialect(text);
    let table = Table::from_rows(parse(text, &dialect));
    model.detect_structure_of_table(table, dialect).lines.len()
}

/// The borrowed path: `detect_structure` scans zero-copy, extracts
/// features over borrowed field spans, and materialises owned cells
/// only for the final `Structure`.
fn detect_borrowed_path(model: &Strudel, text: &str) -> usize {
    model.detect_structure(text).lines.len()
}

fn measure_classify(model: &Strudel, text: &str, iters: usize) -> ClassifyMeasurement {
    let owned_lines = detect_owned_path(model, text);
    let borrowed_lines = detect_borrowed_path(model, text);
    assert_eq!(
        owned_lines, borrowed_lines,
        "owned and borrowed pipelines must agree before being compared"
    );
    let (owned_mean, owned_min) = time(iters, || {
        black_box(detect_owned_path(model, text));
    });
    let (borrowed_mean, borrowed_min) = time(iters, || {
        black_box(detect_borrowed_path(model, text));
    });
    ClassifyMeasurement {
        bytes: text.len(),
        owned_mean_s: owned_mean,
        owned_min_s: owned_min,
        borrowed_mean_s: borrowed_mean,
        borrowed_min_s: borrowed_min,
        iters,
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn write_json(path: &str, results: &[Measurement], classify: &ClassifyMeasurement, headline: f64) {
    let mut entries = String::new();
    for (i, m) in results.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"workload\": \"{}\", \"bytes\": {}, \
             \"scan_mean_s\": {:.6}, \"scan_min_s\": {:.6}, \
             \"owned_mean_s\": {:.6}, \
             \"legacy_mean_s\": {:.6}, \"legacy_min_s\": {:.6}, \
             \"scan_mb_s\": {:.1}, \"legacy_mb_s\": {:.1}, \
             \"speedup\": {:.3}, \"owned_speedup\": {:.3}, \"iters\": {}}}",
            m.workload,
            m.bytes,
            m.scan_mean_s,
            m.scan_min_s,
            m.owned_mean_s,
            m.legacy_mean_s,
            m.legacy_min_s,
            m.scan_mb_s(),
            m.legacy_mb_s(),
            m.speedup(),
            m.owned_speedup(),
            m.iters
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"parse\",\n  \"smoke\": {},\n  \
         \"host_cpus\": {},\n  \
         \"results\": [\n{}\n  ],\n  \
         \"classify\": {{\"bytes\": {}, \"owned_mean_s\": {:.6}, \
         \"owned_min_s\": {:.6}, \"borrowed_mean_s\": {:.6}, \
         \"borrowed_min_s\": {:.6}, \"iters\": {}}},\n  \
         \"speedup_scan_vs_legacy\": {:.3},\n  \
         \"pipeline_speedup\": {:.3}\n}}\n",
        smoke(),
        host_cpus(),
        entries,
        classify.bytes,
        classify.owned_mean_s,
        classify.owned_min_s,
        classify.borrowed_mean_s,
        classify.borrowed_min_s,
        classify.iters,
        headline,
        classify.pipeline_speedup()
    );
    std::fs::write(path, json).expect("write bench summary");
    println!("wrote {path}");
}

/// The JSON-producing comparison: every workload through the zero-copy
/// scan (with field resolution), the legacy walker, and the owned
/// adapter. The headline number is the verbose_mixed scan-vs-legacy
/// speedup.
fn summary() {
    let iters = if smoke() { 3 } else { 7 };
    let dialect = Dialect::rfc4180();
    let loads = workloads();
    let results: Vec<Measurement> = loads.iter().map(|w| measure(w, iters, &dialect)).collect();
    for m in &results {
        println!(
            "{}: scan {:.1} MB/s ({:.4}s min), legacy {:.1} MB/s ({:.4}s min), {:.2}x \
             (owned adapter {:.4}s min, {:.2}x)",
            m.workload,
            m.scan_mb_s(),
            m.scan_min_s,
            m.legacy_mb_s(),
            m.legacy_min_s,
            m.speedup(),
            m.owned_min_s,
            m.owned_speedup(),
        );
    }

    // End-to-end classification runs on a smaller verbose file than the
    // parse workloads: feature extraction and forest walks cost far
    // more per byte than scanning does.
    let model = fit_model();
    let classify_text = verbose_mixed(if smoke() { 128 << 10 } else { 1 << 20 });
    let classify = measure_classify(&model, &classify_text, if smoke() { 3 } else { 7 });
    println!(
        "classify: owned {:.4}s min, borrowed {:.4}s min, pipeline_speedup {:.2}x",
        classify.owned_min_s,
        classify.borrowed_min_s,
        classify.pipeline_speedup()
    );

    let headline = results
        .iter()
        .find(|m| m.workload == "verbose_mixed")
        .expect("verbose_mixed workload present")
        .speedup();
    // Default to the workspace root (cargo bench runs with the package
    // directory as cwd), so the artifact lands next to BENCH_train.json.
    let out = std::env::var("BENCH_PARSE_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parse.json").into());
    write_json(&out, &results, &classify, headline);
}

fn parse_throughput(c: &mut Criterion) {
    let dialect = Dialect::rfc4180();
    let loads = workloads();

    let mut group = c.benchmark_group("parse");
    group.sample_size(10);
    for w in &loads {
        for path in ["scan", "owned", "legacy"] {
            let label = format!("{}/{}", w.name, path);
            group.bench_with_input(BenchmarkId::from_parameter(label), &w.text, |b, text| {
                b.iter(|| match path {
                    "scan" => {
                        black_box(scan_and_resolve(text, &dialect));
                    }
                    "owned" => {
                        black_box(parse(text, &dialect));
                    }
                    _ => {
                        black_box(parse_legacy(text, &dialect));
                    }
                })
            });
        }
    }
    group.finish();

    summary();
}

criterion_group!(benches, parse_throughput);
criterion_main!(benches);
