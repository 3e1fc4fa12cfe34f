//! Result collection and printing: metrics with units, input pins,
//! attempt and failure counts, and the per-layer table a traced run
//! derives from its spans.

use crate::layers::Counts;
use crate::trace::Trace;
use std::time::Duration;
use strudel::{Stage, StageTimings};

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Print a fingerprint line: what was measured, so two runs can
    /// prove they measured the same bytes with the same model.
    pub fn pin(&mut self, what: &str, value: &str) {
        println!("pin {what} {value}");
    }

    /// Count one attempted operation, failed unless `ok`.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Print every metric, then the result object as the last line.
    /// Returns whether every attempted operation succeeded.
    pub fn finish(&self) -> bool {
        let attempted = self.attempted.max(1);
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        println!(
            "metric failed_frac {} ratio ({} of {attempted})",
            self.failed as f64 / attempted as f64,
            self.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.failed,
            metrics.join(", ")
        );
        self.failed == 0
    }
}

/// Values only a workload's own wrapper layer can supply; zero where the
/// workload bypasses the layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Extras {
    pub batch_busy_frac: f64,
    pub batch_workers: f64,
    pub stream_windows: f64,
    pub writer_blocks: f64,
    pub writer_container_bytes: f64,
    pub reader_blocks_read: f64,
    pub reader_column_ms: f64,
    pub server_cache_hit_frac: f64,
    pub server_shed: f64,
    pub server_pipeline_s: f64,
    pub loadgen_late_ms: f64,
    pub proc_cpu_s: f64,
    pub proc_cpu_per_wall: f64,
    pub trace_overhead_frac: f64,
    pub model_bytes: f64,
}

/// The traced run's report: every layer's self time and counts, the
/// wall-time accounting, and the cross-check of the rebuilt layers
/// against the stage timings the program records itself (`stages`,
/// gathered untraced over the same inputs).
pub fn per_layer(
    report: &mut Report,
    trace: &Trace,
    counts: &Counts,
    extras: &Extras,
    excluded: Duration,
    stages: &StageTimings,
    n_trees: usize,
) {
    let wall = trace.elapsed();
    let totals = trace.layer_totals();
    let self_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_time.as_secs_f64());
    let spans = |name: &str| totals.get(name).map_or(0, |t| t.spans);
    let per_row_tree = |name: &str, rows: u64| {
        if rows == 0 {
            0.0
        } else {
            self_s(name) * 1e9 / (rows as f64 * n_trees as f64)
        }
    };
    let c = counts;
    let e = extras;
    let mut m = |name: &str, value: f64, unit: &'static str| report.metric(name, value, unit);
    m("dialect.detect.self_s", self_s("dialect.detect"), "s");
    m("dialect.detect.calls", c.dialect_calls as f64, "count");
    m("dialect.scan.self_s", self_s("dialect.scan"), "s");
    m("dialect.scan.records", c.scan_records as f64, "count");
    let scan_s = self_s("dialect.scan");
    let scan_mb_s = if scan_s > 0.0 {
        crate::mb(c.scan_bytes) / scan_s
    } else {
        0.0
    };
    m("dialect.scan.mb_s", scan_mb_s, "MB/s");
    m("core.derived.self_s", self_s("core.derived"), "s");
    m("core.derived.rows", c.derived_rows as f64, "count");
    m(
        "core.line_features.self_s",
        self_s("core.line_features"),
        "s",
    );
    m(
        "core.line_features.rows",
        c.line_feature_rows as f64,
        "count",
    );
    m("ml.line_forest.self_s", self_s("ml.line_forest"), "s");
    m("ml.line_forest.rows", c.line_forest_rows as f64, "count");
    let ns = per_row_tree("ml.line_forest", c.line_forest_rows);
    m("ml.line_forest.ns_per_row_tree", ns, "ns");
    m(
        "core.cell_features.self_s",
        self_s("core.cell_features"),
        "s",
    );
    m(
        "core.cell_features.cells",
        c.cell_feature_cells as f64,
        "count",
    );
    m("ml.cell_forest.self_s", self_s("ml.cell_forest"), "s");
    m("ml.cell_forest.rows", c.cell_forest_rows as f64, "count");
    let ns = per_row_tree("ml.cell_forest", c.cell_forest_rows);
    m("ml.cell_forest.ns_per_row_tree", ns, "ns");
    m("table.materialize.self_s", self_s("table.materialize"), "s");
    m("core.batch.self_s", self_s("core.batch"), "s");
    m("core.batch.busy_frac", e.batch_busy_frac, "ratio");
    m("core.batch.workers", e.batch_workers, "count");
    m("core.stream.self_s", self_s("core.stream"), "s");
    m("core.stream.windows", e.stream_windows, "count");
    m("pack.writer.self_s", self_s("pack.writer"), "s");
    m("pack.writer.blocks", e.writer_blocks, "count");
    m(
        "pack.writer.container_bytes",
        e.writer_container_bytes,
        "bytes",
    );
    m("pack.reader.self_s", self_s("pack.reader"), "s");
    m("pack.reader.blocks_read", e.reader_blocks_read, "count");
    m("pack.reader.column_ms", e.reader_column_ms, "ms");
    m("server.self_s", self_s("server"), "s");
    m("server.cache_hit_frac", e.server_cache_hit_frac, "ratio");
    m("server.shed", e.server_shed, "count");
    m("server.pipeline_s", e.server_pipeline_s, "s");
    m("loadgen.late_ms", e.loadgen_late_ms, "ms");
    m("persist.self_s", self_s("persist"), "s");
    m("persist.model_bytes", e.model_bytes, "bytes");
    m("proc.cpu_s", e.proc_cpu_s, "s");
    m("proc.cpu_per_wall", e.proc_cpu_per_wall, "ratio");

    // Wall accounting: self times, API-reported inner time and the
    // unattributed remainder add up to the traced wall time.
    let traced_wall = wall.saturating_sub(excluded);
    let inner: Duration = totals.values().map(|t| t.inner).sum();
    let selfs: Duration = totals.values().map(|t| t.self_time).sum();
    let unattributed = trace.unattributed(wall, excluded);
    let gap = (selfs + inner + unattributed).as_secs_f64() - traced_wall.as_secs_f64();
    println!(
        "trace wall {:.6} s = self {:.6} + inner {:.6} + unattributed {:.6} (gap {gap:.2e} s, {} spans)",
        traced_wall.as_secs_f64(),
        selfs.as_secs_f64(),
        inner.as_secs_f64(),
        unattributed.as_secs_f64(),
        trace.spans().len()
    );
    m("trace.wall_s", traced_wall.as_secs_f64(), "s");
    m("trace.inner_s", inner.as_secs_f64(), "s");
    m("trace.unattributed_s", unattributed.as_secs_f64(), "s");
    m("trace_overhead_frac", e.trace_overhead_frac, "ratio");

    // Cross-check: each program stage against the rebuilt layers that
    // make it up. Disagreements are reported, not hidden.
    let pairs: [(Stage, &[&str]); 6] = [
        (Stage::Dialect, &["dialect.detect"]),
        (Stage::Parse, &["dialect.scan"]),
        (Stage::DerivedCells, &["core.derived"]),
        (
            Stage::LineClassify,
            &["core.line_features", "ml.line_forest"],
        ),
        (
            Stage::CellClassify,
            &["core.cell_features", "ml.cell_forest"],
        ),
        (Stage::Materialize, &["table.materialize"]),
    ];
    let mut flagged = 0;
    for (stage, names) in pairs {
        let stage_s = stages.total(stage).as_secs_f64();
        let traced_s: f64 = names.iter().map(|n| self_s(n)).sum();
        let ran = names.iter().any(|n| spans(n) > 0);
        let ratio = if ran && stage_s > 0.0 {
            traced_s / stage_s
        } else {
            0.0
        };
        // Below a few milliseconds, timer granularity dominates.
        let disagree = ran && stage_s.max(traced_s) > 0.005 && !(0.75..=1.33).contains(&ratio);
        flagged += u64::from(disagree);
        println!(
            "xcheck {} stage {stage_s:.6} s vs {} {traced_s:.6} s ratio {ratio:.3}{}",
            stage.name(),
            names.join("+"),
            if disagree { " DISAGREE" } else { "" }
        );
        m(&format!("xcheck.{}", stage.name()), ratio, "ratio");
    }
    m("xcheck.flagged", flagged as f64, "count");
}
