//! `strudel` — command-line structure detection for verbose CSV files.
//!
//! ```text
//! strudel synth   --dataset SAUS --files 40 --out corpus/   # export a synthetic annotated corpus
//! strudel train   --corpus corpus/ --out model.strudel      # fit Strudel^L + Strudel^C
//! strudel detect  --model model.strudel file.csv            # classify every line and cell
//! strudel extract --model model.strudel file.csv            # print the clean data table
//! strudel eval    --model model.strudel --corpus corpus/    # score against annotations
//! strudel batch   --model model.strudel --threads 8 dir/    # batch-classify, JSON report
//! strudel serve   --model model.strudel --port 8080         # resident classification daemon
//! strudel loadtest --port 8080 --rps 500 file.csv           # open-loop load generator
//! ```

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use strudel::{Strudel, StrudelCellConfig, StrudelError, StrudelLineConfig};
use strudel_eval::Evaluation;
use strudel_ml::ForestConfig;
use strudel_table::ElementClass;

mod args;
mod commands;

use args::Options;

/// A CLI failure: either a usage-level error (bad flags, missing inputs)
/// or a typed pipeline error. Each [`StrudelError`] category maps to its
/// own exit code so scripts can react without parsing stderr.
pub enum CliError {
    /// Wrong invocation — exit code 1.
    Usage(String),
    /// A typed failure from the pipeline — exit codes 2–10.
    Pipeline(StrudelError),
}

impl CliError {
    /// The process exit code for this failure (see `USAGE`).
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 1,
            CliError::Pipeline(e) => match e.category() {
                "io" => 2,
                "parse" => 3,
                "dialect" => 4,
                "table" => 5,
                "limit" => 6,
                "model" => 7,
                _ => 10,
            },
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Usage(msg.to_string())
    }
}

impl From<StrudelError> for CliError {
    fn from(e: StrudelError) -> CliError {
        CliError::Pipeline(e)
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let options = match Options::parse(argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "synth" => commands::synth(&options),
        "train" => commands::train(&options),
        "detect" => commands::detect(&options),
        "extract" => commands::extract(&options),
        "segments" => commands::segments(&options),
        "eval" => commands::eval(&options),
        "batch" => commands::batch(&options),
        "pack" => commands::pack(&options),
        "unpack" => commands::unpack(&options),
        "serve" => commands::serve(&options),
        "loadtest" => commands::loadtest(&options),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
strudel — structure detection in verbose CSV files (EDBT 2021)

USAGE:
  strudel synth   --dataset NAME --out DIR [--files N] [--seed K] [--scale S]
  strudel train   --corpus DIR --out MODEL [--trees N] [--seed K]
  strudel detect  [--model MODEL] FILE [--cells] [--json] [--stream]
  strudel extract [--model MODEL] FILE
  strudel segments [--model MODEL] FILE
  strudel eval    --model MODEL --corpus DIR
  strudel batch   [--model MODEL] [--threads N] [--out FILE] [--stream] DIR|FILE...
  strudel pack    [--model MODEL] FILE [--out CONTAINER]
  strudel unpack  CONTAINER [--out FILE] [--table N] [--column NAME]
  strudel serve   [--model MODEL] [--host H] [--port N] [--threads N]
                  [--conns N] [--cache N]
  strudel loadtest [--host H] [--port N] [--path P] [--mode keepalive|close]
                  [--rps F] [--connections N] [--duration-ms N] [FILE]

Without --model, detect/extract/serve train a default model on a
synthetic corpus first (slower, but fully self-contained).

THREADS (batch and serve):
  --threads N       worker threads; 0 (the default) resolves via the
                    STRUDEL_THREADS environment variable, then the
                    machine's available parallelism

PACKING:
  pack writes a structure-aware columnar container (.pack): skeleton
  rows (metadata/header/notes, dialect, line endings) and per-column
  value streams per detected table, in checksummed blocks addressed by
  a footer directory. unpack without selectors reproduces the original
  file byte for byte; --table N extracts one table, --column NAME one
  column's values (decoding only that column's block).
  Streaming flags (--window-rows/--window-bytes) shape the writer's
  block groups; packing is always O(window) memory.

SERVING:
  --host H          bind host                        [default 127.0.0.1]
  --port N          bind port, 0 = ephemeral         [default 8080]
  --conns N         per-shard connection budget; overflow is shed
                    with 503 + Retry-After (--queue is accepted as an
                    alias)                           [default 256]
  --cache N         result-cache entries across all shards (the pack
                    cache gets as many), 0 disables  [default 256]
  The daemon serves shard-per-core: --threads N shards (0 resolves
  like batch), each driving its own keep-alive connections with a
  nonblocking poll loop — no accept queue.
  Endpoints: POST /classify (CSV bytes -> structure JSON, identical to
  `detect --json`), POST /classify/stream (chunked or content-length
  body -> chunked NDJSON window events, O(window) memory per
  connection; honors --window-rows/--window-bytes), GET /healthz,
  GET /metrics (Prometheus text), POST /admin/reload (validate + swap
  model), POST /admin/shutdown (graceful, drains in-flight pipelines).

LOAD TESTING:
  --rps F           target arrival rate; 0 = closed-loop saturation
                    (as fast as the connections go)  [default 0]
  --connections N   concurrent client connections    [default 8]
  --duration-ms N   scheduled-arrival window         [default 5000]
  --mode M          keepalive (persistent connections) or close (one
                    connection per request)          [default keepalive]
  --path P          request path                     [default /classify]
  FILE, when given, is POSTed as the request body; latencies are
  measured from the scheduled arrival (open-loop), so server queueing
  shows up in p99 instead of being absorbed by client backoff.

LIMITS (detect, extract, segments, batch, and serve):
  --max-bytes N     per-file input size limit       [default 256 MiB]
  --max-rows N      parsed row limit                [default 4194304]
  --max-cells N     padded-grid cell limit          [default 67108864]
  --max-file-ms N   per-file wall-clock budget      [default 60000]
  --no-limits       disable every limit (trusted input only)

STREAMING (detect, batch, and serve's /classify/stream):
  --stream          classify in bounded memory: the input is read in
                    chunks and classified window by window, so peak
                    memory is O(window), not O(file). Output on inputs
                    that fit one window (the common case) is
                    byte-identical to the whole-file path; larger
                    streams classify each window independently under
                    the prefix-detected dialect.
  --window-rows N   rows per window                 [default 65536]
  --window-bytes N  bytes per window                [default 8 MiB]
  --max-total-bytes N
                    whole-stream byte cap. In streaming mode the
                    --max-bytes cap applies to each window instead of
                    the whole input; this flag restores a stream-wide
                    cap when one is wanted.

EXIT CODES:
  0 success    1 usage     2 io       3 parse     4 dialect
  5 table      6 limit     7 model    10 internal
  (batch exits 0 even when individual files fail; per-file errors and
  their categories land in the JSON report instead)

COMMANDS:
  synth     Export a seeded synthetic annotated corpus (SAUS, CIUS, DeEx,
            GovUK, Mendeley, or Troy) as CSV files with .labels sidecars.
  train     Fit Strudel^L + Strudel^C on an annotated corpus directory
            and save the model.
  detect    Print the detected class of every line (and with --cells,
            every cell that differs from its line class).
  extract   Print the machine-readable data table (header + data rows),
            dropping metadata, group headers, derived totals, and notes.
  segments  Print the stacked table regions of a multi-table file
            (caption, header, body, and notes line ranges).
  eval      Score a model against an annotated corpus (per-class F1).
  batch     Detect structure for many files on a worker pool and emit a
            JSON report: per-stage timings, per-file outcomes (failures
            included, they never abort the batch), and throughput.
  pack      Pack a verbose CSV file into the structure-aware columnar
            container with O(1) random access to tables and columns.
  unpack    Reconstruct a packed file byte for byte, or selectively
            extract one table (--table) or one column (--column).
  serve     Run the resident classification daemon: model loaded once
            and kept warm, shard-per-core keep-alive serving with load
            shedding, content-hash result caches, model hot-reload,
            Prometheus metrics, graceful shutdown.
  loadtest  Drive a running daemon with open-loop arrivals and print
            throughput + latency percentiles as JSON (the measurement
            half of scripts/bench_serve.sh).";

/// Train a model on a synthetic corpus when no `--model` is given.
fn default_model() -> Strudel {
    eprintln!("note: no --model given; training a default model on a synthetic corpus ...");
    let corpus = strudel_datagen::saus(&strudel_datagen::GeneratorConfig {
        n_files: 40,
        seed: 42,
        scale: 0.3,
    });
    Strudel::fit(&corpus.files, &fast_config(40, 42))
}

fn fast_config(trees: usize, seed: u64) -> StrudelCellConfig {
    StrudelCellConfig {
        line: StrudelLineConfig {
            forest: ForestConfig {
                n_trees: trees,
                seed,
                ..ForestConfig::default()
            },
            ..StrudelLineConfig::default()
        },
        forest: ForestConfig {
            n_trees: trees,
            seed: seed ^ 1,
            ..ForestConfig::default()
        },
        ..StrudelCellConfig::default()
    }
}

/// Load the model from `--model`, or train a default one. A corrupt or
/// unreadable model file surfaces as a typed error (exit code 7 or 2).
fn model_from(options: &Options) -> Result<Strudel, CliError> {
    match &options.model {
        Some(path) => Ok(Strudel::load(path)?),
        None => Ok(default_model()),
    }
}

/// Score predictions against gold labels and print a per-class table.
fn print_evaluation(title: &str, gold: &[usize], pred: &[usize]) {
    let eval = Evaluation::compute(gold, pred, ElementClass::COUNT);
    println!("{title}");
    println!("  {:<10}{:>8}{:>10}", "class", "F1", "support");
    for class in ElementClass::ALL {
        println!(
            "  {:<10}{:>8.3}{:>10}",
            class.name(),
            eval.f1[class.index()],
            eval.support[class.index()]
        );
    }
    println!(
        "  accuracy {:.3}, macro-F1 {:.3}\n",
        eval.accuracy,
        eval.macro_f1(&[])
    );
}

/// Resolve a path argument that must exist. A missing path is an I/O
/// failure (exit code 2), not a usage error: the command line was
/// well-formed, the filesystem just doesn't match it.
fn existing(path: &Path, what: &str) -> Result<PathBuf, CliError> {
    if path.exists() {
        Ok(path.to_path_buf())
    } else {
        Err(CliError::Pipeline(StrudelError::io(
            &std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{what} does not exist"),
            ),
            Some(&path.display().to_string()),
        )))
    }
}
