//! `long_stream_pack`: a long verbose file of tall tables packed through
//! `PackWriter` in 1 MiB windows, then fully unpacked, then one column
//! extracted — the only workload through the streaming classifier and
//! both halves of the container, so an encoder that costs decode speed
//! shows here.

use crate::layers::{self, Counts};
use crate::pack_probe;
use crate::report::{per_layer, Extras, Report};
use crate::side::Side;
use crate::trace::Trace;
use crate::{
    inputs, load_model, pin_inputs, proc, traced_load, Ctx, EndToEnd, Meter, SETUP_PER_ROUND,
    SETUP_REPEATS,
};
use std::time::{Duration, Instant};
use strudel::batch::resolve_threads;
use strudel::{
    Limits, Stage, StageTimings, StreamClassifier, StreamConfig, StreamWindow, STREAM_CHUNK_BYTES,
};

const TARGET_BYTES: usize = 3 << 20;
/// Tall tables: files of about 24 KB.
const SIZE: f64 = 8.0;
const TAG: u64 = 3;
/// Read-side rounds after each timed pack.
const READ_ROUNDS_PER_PACK: usize = 2;

fn input(ctx: &Ctx, report: &mut Report) -> Vec<u8> {
    let bytes = inputs::stacked(ctx.args.seed, TAG, TARGET_BYTES, SIZE);
    pin_inputs(report, "long_stream_pack", &[&bytes]);
    bytes
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let side = Side::start(ctx.model_path.clone());
    let mut setup_s = side.loads(SETUP_REPEATS);
    let model = load_model(ctx);
    let bytes = input(ctx, report);

    let mut meter = Meter::default();
    let mut latencies_ms = Vec::new();
    let mut container: Option<Vec<u8>> = None;
    let mut peak = None;
    let started = Instant::now();
    while meter.ops.is_empty() || started.elapsed() < ctx.budget(0.85) {
        let (_, result) = meter.time(bytes.len() as u64, 1, || pack_probe::pack(&model, &bytes));
        peak.get_or_insert_with(|| proc::peak_rss_bytes("self").unwrap_or(0));
        match result {
            Ok((packed, pushes)) => {
                latencies_ms.push(pushes.iter().map(|d| d.as_secs_f64() * 1e3).collect());
                let ok = container.as_ref().is_none_or(|c| *c == packed.bytes);
                report.attempt(ok, || "repeated pack produced a different container".into());
                if container.is_none() {
                    container = Some(packed.bytes.clone());
                    side.set_probe(pack_probe::ReadProbe::new(bytes.clone(), packed));
                }
            }
            Err(e) => report.attempt(false, || format!("pack failed: {e}")),
        }
        for _ in 0..READ_ROUNDS_PER_PACK {
            side.round();
        }
        setup_s.extend(side.loads(SETUP_PER_ROUND));
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

/// Sum of the per-window classification stages (everything but
/// streaming bookkeeping and prefix dialect detection).
fn window_stages(t: &StageTimings) -> Duration {
    [
        Stage::Parse,
        Stage::DerivedCells,
        Stage::LineClassify,
        Stage::CellClassify,
        Stage::Materialize,
    ]
    .iter()
    .map(|&s| t.total(s))
    .sum()
}

fn classify_work(t: &StageTimings) -> Duration {
    window_stages(t) + t.total(Stage::Dialect)
}

pub fn traced(ctx: &Ctx, report: &mut Report) {
    let bytes = input(ctx, report);
    let limits = Limits::standard();
    let n_threads = resolve_threads(0);
    let cpu0 = proc::cpu_time("self").unwrap_or_default();
    let mut trace = Trace::new();
    let mut excluded = Duration::ZERO;
    let model = traced_load(ctx, &mut trace);

    // The streaming classifier, one span per push and for finish; the
    // classification stages it reports are the spans' inner time. Each
    // emitted window is then rebuilt from the layer calls under the
    // stream's dialect and compared with the window's structure.
    let config = StreamConfig {
        capture_text: true,
        ..pack_probe::stream_config()
    };
    let mut classifier = StreamClassifier::new(&model, config);
    let mut counts = Counts::default();
    let mut rebuild_wall = Duration::ZERO;
    let mut windows = 0usize;
    let mut rebuild = |windows_out: Vec<StreamWindow>,
                       classifier: &StreamClassifier,
                       trace: &mut Trace,
                       excluded: &mut Duration| {
        for window in windows_out {
            windows += 1;
            trace.set_input(window.index);
            let t0 = Instant::now();
            let got = layers::rebuild(
                &model,
                window.text.as_bytes(),
                classifier.dialect(),
                &limits,
                n_threads,
                trace,
                &mut counts,
            );
            rebuild_wall += t0.elapsed();
            let t0 = Instant::now();
            let same = got.as_ref().is_ok_and(|s| *s == window.structure);
            report.attempt(same, || {
                format!("rebuilt pipeline differs on stream window {}", window.index)
            });
            *excluded += t0.elapsed();
        }
    };
    let mut stream_ok = true;
    let chunks: Vec<&[u8]> = bytes.chunks(STREAM_CHUNK_BYTES).collect();
    for step in 0..=chunks.len() {
        let before = classify_work(classifier.timings());
        let span = trace.begin("core.stream");
        let result = match chunks.get(step) {
            Some(chunk) => classifier.push(chunk),
            None => classifier.finish().map(|_| ()),
        };
        trace.end(span);
        let inner = classify_work(classifier.timings()).saturating_sub(before);
        trace.add_inner(span, inner);
        stream_ok &= result.is_ok();
        let emitted = classifier.drain_windows();
        rebuild(emitted, &classifier, &mut trace, &mut excluded);
    }
    report.attempt(stream_ok, || "streaming classification failed".into());
    let stages = classifier.timings().clone();
    let ref_wall = window_stages(&stages);

    // The writer: one span over the whole pack, its embedded
    // classification (every stage it reports) as inner time.
    let span = trace.begin("pack.writer");
    let packed = pack_probe::pack(&model, &bytes);
    trace.end(span);
    let (writer_blocks, container_bytes, blocks_read, column_ms) = match packed {
        Ok((packed, _)) => {
            let classified: Duration = Stage::ALL.iter().map(|&s| packed.timings.total(s)).sum();
            trace.add_inner(span, classified);
            report.attempt(true, String::new);
            let (blocks, len) = (packed.n_blocks, packed.bytes.len());
            let read = pack_probe::ReadProbe::new(bytes.clone(), packed).finish(
                &model,
                report,
                Some(&mut trace),
            );
            excluded += read.checking;
            (blocks, len, read.blocks_read, read.column_ms)
        }
        Err(e) => {
            report.attempt(false, || format!("pack failed: {e}"));
            (0, 0, 0, 0.0)
        }
    };

    let cpu = proc::cpu_time("self")
        .unwrap_or_default()
        .saturating_sub(cpu0);
    let extras = Extras {
        stream_windows: windows as f64,
        writer_blocks: writer_blocks as f64,
        writer_container_bytes: container_bytes as f64,
        reader_blocks_read: blocks_read as f64,
        reader_column_ms: column_ms,
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
