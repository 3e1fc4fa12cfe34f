//! `perfbench`: the seeded benchmark of the Strudel system.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--strudel PATH] [--cache-dir DIR]
//! ```
//!
//! One run trains (or reuses) the benchmark's 100-tree model, generates
//! the workload's inputs from the seed, measures the workload for about
//! `S` seconds and checks every output. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it instead rebuilds the pipeline
//! from the public layer calls with a span around each and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Workloads: `corpus_batch`, `long_stream_pack` and `serve_mixed`, whose
//! reasons are recorded in `BENCHMARK.json`, and `stacked_whole`, which
//! runs by name only (the README says why).

mod batch;
mod inputs;
mod layers;
mod pack_probe;
mod proc;
mod report;
mod serve;
mod side;
mod stats;
mod stream_pack;
mod trace;
mod whole;

use report::Report;
use std::path::{Path, PathBuf};
use stats::Better;
use std::time::{Duration, Instant};
use strudel::{ContentHash, Strudel};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `strudel` executable `serve_mixed` runs as its daemon.
    pub strudel: Option<PathBuf>,
    /// Where the trained model is cached between runs.
    pub cache_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        strudel: None,
        cache_dir: PathBuf::from(".bench_build/perfbench-cache"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                }
            }
            "--strudel" => args.strudel = Some(PathBuf::from(value()?)),
            "--cache-dir" => args.cache_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Everything a workload needs: arguments, the model file and the
/// machine's parallelism.
pub struct Ctx {
    pub args: Args,
    pub model_path: PathBuf,
    pub model_bytes: u64,
    pub n_trees: usize,
    /// `available_parallelism`: the worker, shard and connection count.
    pub nproc: usize,
}

impl Ctx {
    /// A share of the run's measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.args.seconds * share)
    }
}

/// Train the benchmark model, or reuse the copy cached for this exact
/// executable (training is deterministic, so the cache only saves time).
/// Training runs in a child process, so it never shows in a measured
/// process's peak memory.
fn model_file(cache_dir: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let exe_hash = ContentHash::of(&std::fs::read(&exe).map_err(|e| e.to_string())?);
    let path = cache_dir.join(format!("model-{}.strudel", exe_hash.to_hex()));
    if Strudel::load(&path).is_ok() {
        return Ok(path);
    }
    std::fs::create_dir_all(cache_dir).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let tmp = cache_dir.join(format!("model-{}.tmp", std::process::id()));
    let status = std::process::Command::new(&exe)
        .arg("--train-model")
        .arg(&tmp)
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("training failed: {status}"));
    }
    std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench: trained the benchmark model in {:.1} s",
        started.elapsed().as_secs_f64()
    );
    Ok(path)
}

/// Model loads before a run's first timed operation, and after each
/// (on the side thread). Spread over the run, they give the median
/// `setup_s`.
pub const SETUP_REPEATS: usize = 11;
pub const SETUP_PER_ROUND: usize = 4;

/// Load the model three times in `persist` spans, returning the last:
/// `Strudel::load` returning is "ready", the model fully deserialised and
/// validated.
pub fn traced_load(ctx: &Ctx, trace: &mut trace::Trace) -> Strudel {
    let mut model = None;
    for _ in 0..3 {
        drop(model.take());
        model = Some(trace.time("persist", || load_model(ctx)));
    }
    model.expect("loaded")
}

/// Load the model for a workload to use.
pub fn load_model(ctx: &Ctx) -> Strudel {
    Strudel::load(&ctx.model_path).expect("cached model file loads")
}

/// One timed operation of a workload's main loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Op {
    pub bytes: u64,
    pub items: u64,
    pub wall: Duration,
    pub cpu: Duration,
}

/// The timed operations of a run.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    pub ops: Vec<Op>,
}

impl Meter {
    /// Run and time one operation over `bytes` of input and `items` work
    /// items, returning its duration and result.
    pub fn time<T>(&mut self, bytes: u64, items: u64, f: impl FnOnce() -> T) -> (Duration, T) {
        let cpu0 = proc::cpu_time("self").unwrap_or_default();
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed();
        let cpu = proc::cpu_time("self")
            .unwrap_or_default()
            .saturating_sub(cpu0);
        self.ops.push(Op {
            bytes,
            items,
            wall,
            cpu,
        });
        (wall, out)
    }
}

/// The end-to-end metrics every workload reports. Rates and CPU per MB
/// are best-tenth means over the timed operations: on a shared host,
/// other tenants slow a run down by tens of percent for seconds to
/// minutes at a time, and the run's best tenth repeats from run to run
/// where its middle does not.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub ops: Vec<Op>,
    /// Latency samples in consecutive slices of the run; a percentile is
    /// the best-tenth mean of the slices' percentiles.
    pub latencies_ms: Vec<Vec<f64>>,
    pub peak_rss_bytes: u64,
}

impl EndToEnd {
    pub fn emit(&self, report: &mut Report) {
        let per_op = |f: &dyn Fn(&Op) -> f64, better| {
            let v: Vec<f64> = self.ops.iter().map(f).collect();
            stats::best_tenth_mean(&v, better).unwrap_or(0.0)
        };
        let slices: Vec<Vec<f64>> = self.latencies_ms.iter().map(|s| stats::sorted(s)).collect();
        let pct = |q| {
            let per_slice: Vec<f64> = slices
                .iter()
                .filter_map(|s| stats::nearest_rank(s, q))
                .collect();
            stats::best_tenth_mean(&per_slice, Better::Lower).unwrap_or(0.0)
        };
        let sorted = stats::sorted(&self.latencies_ms.concat());
        report.metric("setup_s", stats::median(&self.setup_s).unwrap_or(0.0), "s");
        let mb_s = per_op(&|o| mb(o.bytes) / o.wall.as_secs_f64(), Better::Higher);
        report.metric("throughput_mb_s", mb_s, "MB/s");
        report.metric("latency_p50_ms", pct(0.5), "ms");
        report.metric("latency_p99_ms", pct(0.99), "ms");
        report.metric("peak_rss_mb", mb(self.peak_rss_bytes), "MB");
        let cpu = per_op(&|o| o.cpu.as_secs_f64() / mb(o.bytes), Better::Lower);
        report.metric("cpu_s_per_mb", cpu, "s/MB");
        // Work items per second at that rate: operations differ in how
        // many items make a MB, so the items' own best tenth would
        // favour whichever operations hold the smallest items.
        let items: u64 = self.ops.iter().map(|o| o.items).sum();
        let bytes: u64 = self.ops.iter().map(|o| o.bytes).sum();
        let rps = mb_s * items as f64 / mb(bytes);
        report.metric("throughput_rps", rps, "1/s");
        let [q1, q2, q3] = stats::quartiles(&sorted).unwrap_or_default();
        println!(
            "{} timed operations; latency samples {} in {} slices: quartiles {q1:.3} / {q2:.3} / {q3:.3} ms, p99 {:.3} ms, max {:.3} ms",
            self.ops.len(),
            sorted.len(),
            slices.len(),
            pct(0.99),
            sorted.last().copied().unwrap_or(0.0)
        );
    }
}

/// Megabytes (10^6 bytes), the unit of every MB/s and s/MB metric.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// Fingerprint of a detected structure: dialect, table size, every line
/// and cell class and the bits of every probability.
pub fn fingerprint(s: &strudel::Structure) -> ContentHash {
    let mut h = strudel::ContentHasher::new();
    h.update(s.dialect.to_string().as_bytes());
    for v in [s.table.n_rows(), s.table.n_cols(), s.cells.len()] {
        h.update(&(v as u64).to_le_bytes());
    }
    for line in &s.lines {
        h.update(&[line.map_or(u8::MAX, |c| c.index() as u8)]);
    }
    for p in s.line_probs.iter().flatten() {
        h.update(&p.to_bits().to_le_bytes());
    }
    for c in &s.cells {
        h.update(&(c.row as u64).to_le_bytes());
        h.update(&(c.col as u64).to_le_bytes());
        h.update(&[c.class.index() as u8]);
        for p in &c.probs {
            h.update(&p.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// Fingerprint a workload's inputs: hash over every input's length and
/// bytes, plus the count and total size.
pub fn pin_inputs(report: &mut Report, what: &str, inputs: &[&[u8]]) {
    let mut hasher = strudel::ContentHasher::new();
    for input in inputs {
        hasher.update(&(input.len() as u64).to_le_bytes());
        hasher.update(input);
    }
    let total: usize = inputs.iter().map(|i| i.len()).sum();
    report.pin(
        &format!("input {what}"),
        &format!(
            "{} files={} bytes={total}",
            hasher.finish().to_hex(),
            inputs.len()
        ),
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, path] = argv.as_slice() {
        if flag == "--train-model" {
            if let Err(e) = inputs::train_model().save(path) {
                eprintln!("perfbench: saving the model: {e}");
                std::process::exit(2);
            }
            return;
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if ![
        "corpus_batch",
        "stacked_whole",
        "long_stream_pack",
        "serve_mixed",
    ]
    .contains(&args.workload.as_str())
    {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    }
    let model_path = match model_file(&args.cache_dir) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: model: {e}");
            std::process::exit(2);
        }
    };
    let model_bytes = std::fs::read(&model_path).expect("model file readable");
    let n_trees = {
        let model = Strudel::load(&model_path).expect("model loads");
        model.line_model().forest().n_trees()
    };
    let mut report = Report::default();
    report.pin(
        "model",
        &format!(
            "{} bytes={} trees={}",
            ContentHash::of(&model_bytes).to_hex(),
            model_bytes.len(),
            n_trees
        ),
    );
    let ctx = Ctx {
        model_path,
        model_bytes: model_bytes.len() as u64,
        n_trees,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        args,
    };
    drop(model_bytes);
    report.pin("nproc", &ctx.nproc.to_string());
    match (ctx.args.workload.as_str(), ctx.args.trace) {
        ("corpus_batch", false) => batch::run(&ctx, &mut report),
        ("corpus_batch", true) => batch::traced(&ctx, &mut report),
        ("stacked_whole", false) => whole::run(&ctx, &mut report),
        ("stacked_whole", true) => whole::traced(&ctx, &mut report),
        ("long_stream_pack", false) => stream_pack::run(&ctx, &mut report),
        ("long_stream_pack", true) => stream_pack::traced(&ctx, &mut report),
        ("serve_mixed", false) => serve::run(&ctx, &mut report),
        ("serve_mixed", true) => serve::traced(&ctx, &mut report),
        _ => unreachable!("workload validated above"),
    }
    let correct = report.finish();
    std::process::exit(if correct { 0 } else { 1 });
}
