//! `corpus_batch`: thousands of small files from all six generators
//! through `batch::detect_all` with one worker per CPU — the paper's own
//! traffic, where per-file fixed costs such as dialect detection weigh
//! most.

use crate::layers::{self, Counts};
use crate::report::{per_layer, Extras, Report};
use crate::side::Side;
use crate::trace::Trace;
use crate::{
    fingerprint, inputs, load_model, pack_probe, pin_inputs, proc, traced_load, Ctx, EndToEnd,
    Meter, SETUP_PER_ROUND, SETUP_REPEATS,
};
use std::time::{Duration, Instant};
use strudel::batch::{detect_all, resolve_threads, BatchConfig, BatchInput};
use strudel::{ContentHash, Limits, StageTimings, Structure, StrudelError};

const N_FILES: usize = 2000;
/// Files of about 3 KB.
const SIZE: f64 = 1.0;
/// Files per `detect_all` call: each call is one timed operation, so a
/// run has enough of them for a steady best tenth.
const SLICE: usize = 250;
/// Calls whose per-file latencies make one latency slice: half the
/// corpus, so every slice of a run holds one of two fixed sets of files.
const CALLS_PER_LATENCY_SLICE: usize = 4;
const TAG: u64 = 1;

fn files(ctx: &Ctx, report: &mut Report) -> Vec<Vec<u8>> {
    let files = inputs::small_files(ctx.args.seed, TAG, N_FILES, SIZE);
    let refs: Vec<&[u8]> = files.iter().map(|f| f.as_slice()).collect();
    pin_inputs(report, "corpus_batch", &refs);
    files
}

fn batch_inputs(files: &[Vec<u8>]) -> Vec<BatchInput> {
    files
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let text = String::from_utf8(f.clone()).expect("generated files are UTF-8");
            BatchInput::text(format!("file{i}"), text)
        })
        .collect()
}

fn config(ctx: &Ctx) -> BatchConfig {
    BatchConfig {
        n_threads: ctx.nproc,
        limits: Limits::standard(),
    }
}

fn same(got: &Result<Structure, StrudelError>, want: &Result<Structure, StrudelError>) -> bool {
    matches!((got, want), (Ok(a), Ok(b)) if a == b)
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let side = Side::start(ctx.model_path.clone());
    let mut setup_s = side.loads(SETUP_REPEATS);
    let model = load_model(ctx);
    let files = files(ctx, report);
    let sample = pack_probe::tall_sample(ctx.args.seed, report);
    if let Some(p) = pack_probe::probe(&model, &sample, report) {
        side.set_probe(p);
    }

    let inputs = batch_inputs(&files);
    let config = config(ctx);
    let limits = Limits::standard();
    let mut meter = Meter::default();
    let mut latencies_ms = Vec::new();
    // Fingerprints of the first pass's outputs; repeats must match.
    let mut first: Vec<Option<ContentHash>> = Vec::with_capacity(files.len());
    let mut peak = None;
    let started = Instant::now();
    'passes: for pass in 0.. {
        for (s, slice) in inputs.chunks(SLICE).enumerate() {
            if pass > 0
                && s.is_multiple_of(CALLS_PER_LATENCY_SLICE)
                && started.elapsed() >= ctx.budget(0.85)
            {
                break 'passes;
            }
            let offset = s * SLICE;
            let bytes: u64 = files[offset..offset + slice.len()]
                .iter()
                .map(|f| f.len() as u64)
                .sum();
            let (_, result) = meter.time(bytes, slice.len() as u64, || {
                detect_all(&model, slice, &config)
            });
            peak.get_or_insert_with(|| proc::peak_rss_bytes("self").unwrap_or(0));
            if s.is_multiple_of(CALLS_PER_LATENCY_SLICE) {
                latencies_ms.push(Vec::new());
            }
            latencies_ms
                .last_mut()
                .expect("a slice was opened")
                .extend(
                    result
                        .report
                        .outcomes
                        .iter()
                        .map(|o| o.elapsed.as_secs_f64() * 1e3),
                );
            for (j, got) in result.structures.iter().enumerate() {
                let i = offset + j;
                let print = got.as_ref().ok().map(fingerprint);
                let ok = if pass == 0 {
                    // Spot-check the first pass against the whole-file
                    // entry point; the traced run checks every file.
                    first.push(print);
                    got.is_ok()
                        && (!i.is_multiple_of(20)
                            || same(got, &model.try_detect_structure_bytes(&files[i], &limits)))
                } else {
                    print.is_some() && print == first[i]
                };
                report.attempt(ok, || format!("batch output wrong on file {i}"));
            }
            side.round();
            side.round();
            setup_s.extend(side.loads(SETUP_PER_ROUND));
        }
    }
    EndToEnd {
        setup_s,
        ops: meter.ops,
        latencies_ms,
        peak_rss_bytes: peak.unwrap_or(0),
    }
    .emit(report);
    if let Some(p) = side.finish() {
        p.finish(&model, report, None).emit(report);
    }
}

pub fn traced(ctx: &Ctx, report: &mut Report) {
    let files = files(ctx, report);
    let limits = Limits::standard();
    let n_threads = resolve_threads(0);
    let cpu0 = proc::cpu_time("self").unwrap_or_default();
    let mut trace = Trace::new();
    let mut excluded = Duration::ZERO;
    let model = traced_load(ctx, &mut trace);

    // Untraced reference over the same files: the program's whole-file
    // entry point, with its own stage timings.
    let t0 = Instant::now();
    let mut stages = StageTimings::default();
    let refs: Vec<_> = files
        .iter()
        .map(|f| model.try_detect_structure_bytes_metered(f, &limits, 0, &mut stages))
        .collect();
    let ref_wall = t0.elapsed();
    excluded += ref_wall;

    let mut counts = Counts::default();
    let mut rebuild_wall = Duration::ZERO;
    for (i, f) in files.iter().enumerate() {
        trace.set_input(i);
        let t0 = Instant::now();
        let got = layers::rebuild(&model, f, None, &limits, n_threads, &mut trace, &mut counts);
        rebuild_wall += t0.elapsed();
        let t0 = Instant::now();
        report.attempt(same(&got, &refs[i]), || {
            format!("rebuilt pipeline differs from try_detect_structure_bytes on file {i}")
        });
        excluded += t0.elapsed();
    }

    // The batch layer: one span around the whole run; the per-file work
    // the report accounts for, averaged over the workers, is its inner
    // time.
    let t0 = Instant::now();
    let inputs = batch_inputs(&files);
    let config = config(ctx);
    excluded += t0.elapsed();
    let span = trace.begin("core.batch");
    let result = detect_all(&model, &inputs, &config);
    trace.end(span);
    let workers = result.report.n_threads.max(1);
    let busy: Duration = result.report.outcomes.iter().map(|o| o.elapsed).sum();
    trace.add_inner(span, busy / workers as u32);
    let t0 = Instant::now();
    for (i, (got, want)) in result.structures.iter().zip(&refs).enumerate() {
        report.attempt(same(got, want), || {
            format!("batch output differs on file {i}")
        });
    }
    excluded += t0.elapsed();

    let cpu = proc::cpu_time("self")
        .unwrap_or_default()
        .saturating_sub(cpu0);
    let extras = Extras {
        batch_busy_frac: busy.as_secs_f64() / (result.report.wall.as_secs_f64() * workers as f64),
        batch_workers: workers as f64,
        proc_cpu_s: cpu.as_secs_f64(),
        proc_cpu_per_wall: cpu.as_secs_f64() / trace.elapsed().as_secs_f64(),
        trace_overhead_frac: rebuild_wall.as_secs_f64() / ref_wall.as_secs_f64() - 1.0,
        model_bytes: ctx.model_bytes as f64,
        ..Extras::default()
    };
    per_layer(
        report,
        &trace,
        &counts,
        &extras,
        excluded,
        &stages,
        ctx.n_trees,
    );
}
