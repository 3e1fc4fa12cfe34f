//! `stacked_whole`: one ~1 MiB file of a few hundred stacked verbose
//! tables classified in one `try_detect_structure_bytes` call — the
//! workload where whole-file stages that grow faster than the file, such
//! as derived-cell analysis, dominate.

use crate::layers::{self, Counts};
use crate::report::{per_layer, Extras, Report};
use crate::side::Side;
use crate::trace::Trace;
use crate::{
    inputs, load_model, pack_probe, pin_inputs, proc, traced_load, Ctx, EndToEnd, Meter,
    SETUP_PER_ROUND, SETUP_REPEATS,
};
use std::time::Instant;
use strudel::batch::resolve_threads;
use strudel::{Limits, StageTimings, Structure};

const TARGET_BYTES: usize = 1 << 20;
/// Files of about 3 KB: a few hundred tables in 1 MiB.
const SIZE: f64 = 1.0;
const TAG: u64 = 2;
/// Consecutive calls whose latencies make one slice of the run.
const CALLS_PER_SLICE: usize = 2;

fn input(ctx: &Ctx, report: &mut Report) -> Vec<u8> {
    let bytes = inputs::stacked(ctx.args.seed, TAG, TARGET_BYTES, SIZE);
    pin_inputs(report, "stacked_whole", &[&bytes]);
    bytes
}

/// Invariants any classification of the file must satisfy.
fn well_formed(s: &Structure) -> bool {
    let (rows, cols) = (s.table.n_rows(), s.table.n_cols());
    s.lines.len() == rows
        && s.line_probs.len() == rows
        && s.cells.len() == s.table.non_empty_count()
        && s.cells.iter().all(|c| c.row < rows && c.col < cols)
}

pub fn run(ctx: &Ctx, report: &mut Report) {
    let side = Side::start(ctx.model_path.clone());
    let mut setup_s = side.loads(SETUP_REPEATS);
    let model = load_model(ctx);
    let bytes = input(ctx, report);
    let sample = pack_probe::tall_sample(ctx.args.seed, report);
    if let Some(p) = pack_probe::probe(&model, &sample, report) {
        side.set_probe(p);
    }

    let limits = Limits::standard();
    let mut meter = Meter::default();
    let mut latencies_ms = Vec::new();
    let mut first: Option<Structure> = None;
    let mut peak = None;
    let started = Instant::now();
    while meter.ops.is_empty() || started.elapsed() < ctx.budget(0.85) {
        let (took, result) = meter.time(bytes.len() as u64, 1, || {
            model.try_detect_structure_bytes(&bytes, &limits)
        });
        peak.get_or_insert_with(|| proc::peak_rss_bytes("self").unwrap_or(0));
        latencies_ms.push(took.as_secs_f64() * 1e3);
        let ok = match (&result, &first) {
            (Ok(s), Some(want)) => s == want,
            (Ok(s), None) => well_formed(s),
            (Err(_), _) => false,
        };
        report.attempt(ok, || {
            format!(
                "stacked_whole classification wrong: {:?}",
                result.as_ref().err()
            )
        });
        if first.is_none() {
            first = result.ok();
        }
        side.round();
        side.round();
        setup_s.extend(side.loads(SETUP_PER_ROUND));
    }
    EndToEnd {
        setup_s,
        ops: meter.ops,
        latencies_ms: latencies_ms
            .chunks(CALLS_PER_SLICE)
            .map(<[f64]>::to_vec)
            .collect(),
        peak_rss_bytes: peak.unwrap_or(0),
    }
    .emit(report);
    if let Some(p) = side.finish() {
        p.finish(&model, report, None).emit(report);
    }
}

pub fn traced(ctx: &Ctx, report: &mut Report) {
    let bytes = input(ctx, report);
    let limits = Limits::standard();
    let cpu0 = proc::cpu_time("self").unwrap_or_default();
    let mut trace = Trace::new();
    let model = traced_load(ctx, &mut trace);

    // One untraced warm-up call, so neither side pays first-touch costs.
    let t0 = Instant::now();
    let warm = model.try_detect_structure_bytes(&bytes, &limits);
    drop(warm);
    let mut excluded = t0.elapsed();

    let t0 = Instant::now();
    let mut stages = StageTimings::default();
    let want = model.try_detect_structure_bytes_metered(&bytes, &limits, 0, &mut stages);
    let ref_wall = t0.elapsed();
    excluded += ref_wall;

    let mut counts = Counts::default();
    let t0 = Instant::now();
    let got = layers::rebuild(
        &model,
        &bytes,
        None,
        &limits,
        resolve_threads(0),
        &mut trace,
        &mut counts,
    );
    let rebuild_wall = t0.elapsed();
    let t0 = Instant::now();
    let same = matches!((&got, &want), (Ok(a), Ok(b)) if a == b);
    report.attempt(same, || {
        "rebuilt pipeline differs from try_detect_structure_bytes".into()
    });
    excluded += t0.elapsed();

    let cpu = proc::cpu_time("self")
        .unwrap_or_default()
        .saturating_sub(cpu0);
    let extras = Extras {
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
