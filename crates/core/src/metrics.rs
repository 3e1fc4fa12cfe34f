//! Pipeline instrumentation: per-stage wall-clock timing.
//!
//! Structure detection runs six stages: dialect detection, table
//! parsing (borrowed, zero-copy), the shared per-table derived-cell
//! analysis (Algorithm 2, computed once per table and reused by both
//! classifiers), `Strudel^L` line classification, `Strudel^C` cell
//! classification, and finally materialisation of the owned output
//! table from the borrowed grid. Streaming classification adds a
//! seventh, [`Stage::Stream`], covering its windowing bookkeeping, and
//! the packed container format adds [`Stage::Pack`]/[`Stage::Unpack`]
//! for container encode/decode. [`StageTimings`] is the one sink: the
//! guarded pipeline ([`Strudel::detect`](crate::Strudel::detect)) and
//! the metered bytes entry point record one observation per stage into
//! it, the batch engine ([`crate::batch`]) aggregates one per worker,
//! and `strudel serve` merges them into its `/metrics` registry.

use std::time::{Duration, Instant};

/// One stage of the structure-detection pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Dialect detection over the raw text.
    Dialect,
    /// Parsing the text into a [`strudel_table::Table`].
    Parse,
    /// The shared per-table analysis ([`crate::TableAnalysis`]): one
    /// derived-cell detection (Algorithm 2) reused by both classifiers.
    DerivedCells,
    /// `Strudel^L` line classification.
    LineClassify,
    /// `Strudel^C` cell classification.
    CellClassify,
    /// Materialising the owned output [`strudel_table::Table`] from the
    /// borrowed grid the classifiers ran over — the single point at
    /// which cell text is copied out of the input buffer.
    Materialize,
    /// Streaming bookkeeping of the bounded-memory classifier
    /// ([`crate::stream`]): incremental UTF-8 validation, record
    /// tracking, and window management. Recorded once per streamed
    /// input with the total bookkeeping time; the per-window pipeline
    /// stages are recorded under their own names as usual.
    Stream,
    /// Encoding a classified input into the packed columnar container
    /// (`strudel-pack`): skeleton/column stream splitting, block
    /// sealing, and directory writing. The classification feeding the
    /// packer records its own stages as usual.
    Pack,
    /// Decoding a packed container back into CSV text — full unpack or
    /// selective table/column extraction.
    Unpack,
}

impl Stage {
    /// All stages, in execution order.
    pub const ALL: [Stage; 9] = [
        Stage::Dialect,
        Stage::Parse,
        Stage::DerivedCells,
        Stage::LineClassify,
        Stage::CellClassify,
        Stage::Materialize,
        Stage::Stream,
        Stage::Pack,
        Stage::Unpack,
    ];

    /// Stable snake_case name (used as a JSON key by the batch report).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Dialect => "dialect",
            Stage::Parse => "parse",
            Stage::DerivedCells => "derived_cells",
            Stage::LineClassify => "line_classify",
            Stage::CellClassify => "cell_classify",
            Stage::Materialize => "materialize",
            Stage::Stream => "stream",
            Stage::Pack => "pack",
            Stage::Unpack => "unpack",
        }
    }

    /// Position of the stage in [`Stage::ALL`].
    pub fn index(self) -> usize {
        match self {
            Stage::Dialect => 0,
            Stage::Parse => 1,
            Stage::DerivedCells => 2,
            Stage::LineClassify => 3,
            Stage::CellClassify => 4,
            Stage::Materialize => 5,
            Stage::Stream => 6,
            Stage::Pack => 7,
            Stage::Unpack => 8,
        }
    }
}

/// Accumulated per-stage totals and observation counts.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StageTimings {
    totals: [Duration; 9],
    counts: [u64; 9],
    stream_windows: u64,
}

impl StageTimings {
    /// Observe that `stage` ran for `elapsed`.
    pub fn record(&mut self, stage: Stage, elapsed: Duration) {
        self.totals[stage.index()] += elapsed;
        self.counts[stage.index()] += 1;
    }

    /// Observe that the streaming classifier closed and emitted
    /// `windows` windows.
    pub fn record_stream_windows(&mut self, windows: u64) {
        self.stream_windows += windows;
    }

    /// Total time recorded for `stage`.
    pub fn total(&self, stage: Stage) -> Duration {
        self.totals[stage.index()]
    }

    /// Number of observations recorded for `stage` (one per file in a
    /// batch run).
    pub fn count(&self, stage: Stage) -> u64 {
        self.counts[stage.index()]
    }

    /// Total windows emitted by streaming classification runs.
    pub fn stream_windows(&self) -> u64 {
        self.stream_windows
    }

    /// Sum over all stages.
    pub fn grand_total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// Fold another accumulator into this one (used to merge per-worker
    /// timings after a batch run, and by concurrent sinks such as the
    /// `strudel serve` metrics registry). Merging is commutative and
    /// order-independent: any partition of the same observations into
    /// accumulators folds to the same result.
    pub fn merge(&mut self, other: &StageTimings) {
        for i in 0..self.totals.len() {
            self.totals[i] += other.totals[i];
            self.counts[i] += other.counts[i];
        }
        self.stream_windows += other.stream_windows;
    }

    /// Render the accumulated totals in Prometheus text exposition
    /// format: two counter families, `<prefix>_stage_seconds_total` and
    /// `<prefix>_stage_observations_total`, one sample per
    /// [`Stage`] with a `stage="<name>"` label, in [`Stage::ALL`] order.
    ///
    /// Both families are monotone counters as long as the accumulator
    /// only ever grows (via [`record`](StageTimings::record) or
    /// [`merge`](StageTimings::merge)), which is how `strudel serve`
    /// uses it behind `/metrics`.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("# TYPE {prefix}_stage_seconds_total counter\n"));
        for stage in Stage::ALL {
            out.push_str(&format!(
                "{prefix}_stage_seconds_total{{stage=\"{}\"}} {:.9}\n",
                stage.name(),
                self.total(stage).as_secs_f64()
            ));
        }
        out.push_str(&format!(
            "# TYPE {prefix}_stage_observations_total counter\n"
        ));
        for stage in Stage::ALL {
            out.push_str(&format!(
                "{prefix}_stage_observations_total{{stage=\"{}\"}} {}\n",
                stage.name(),
                self.count(stage)
            ));
        }
        out.push_str(&format!("# TYPE {prefix}_stream_windows_total counter\n"));
        out.push_str(&format!(
            "{prefix}_stream_windows_total {}\n",
            self.stream_windows
        ));
        out
    }
}

/// A running wall-clock timer for one stage.
///
/// ```
/// use strudel::{Stage, StageTimer, StageTimings};
/// let mut sink = StageTimings::default();
/// let timer = StageTimer::start(Stage::Parse);
/// // ... do the work of the stage ...
/// timer.stop(&mut sink);
/// assert_eq!(sink.count(Stage::Parse), 1);
/// ```
#[derive(Debug)]
pub struct StageTimer {
    stage: Stage,
    start: Instant,
}

impl StageTimer {
    /// Start timing `stage` now.
    pub fn start(stage: Stage) -> StageTimer {
        StageTimer {
            stage,
            start: Instant::now(),
        }
    }

    /// Stop the timer and record the elapsed time into `sink`.
    pub fn stop(self, sink: &mut StageTimings) {
        sink.record(self.stage, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique_and_ordered() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "dialect",
                "parse",
                "derived_cells",
                "line_classify",
                "cell_classify",
                "materialize",
                "stream",
                "pack",
                "unpack"
            ]
        );
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn timings_accumulate_and_merge() {
        let mut a = StageTimings::default();
        a.record(Stage::Parse, Duration::from_millis(5));
        a.record(Stage::Parse, Duration::from_millis(7));
        a.record(Stage::Dialect, Duration::from_millis(1));
        assert_eq!(a.total(Stage::Parse), Duration::from_millis(12));
        assert_eq!(a.count(Stage::Parse), 2);
        assert_eq!(a.grand_total(), Duration::from_millis(13));

        let mut b = StageTimings::default();
        b.record(Stage::CellClassify, Duration::from_millis(3));
        b.merge(&a);
        assert_eq!(b.total(Stage::Parse), Duration::from_millis(12));
        assert_eq!(b.total(Stage::CellClassify), Duration::from_millis(3));
        assert_eq!(b.count(Stage::Dialect), 1);
    }

    #[test]
    fn stream_windows_accumulate_merge_and_render() {
        let mut a = StageTimings::default();
        a.record_stream_windows(2);
        a.record_stream_windows(3);
        assert_eq!(a.stream_windows(), 5);
        let mut b = StageTimings::default();
        b.record_stream_windows(1);
        b.merge(&a);
        assert_eq!(b.stream_windows(), 6);
        let text = b.to_prometheus("strudel");
        assert!(text.contains("# TYPE strudel_stream_windows_total counter"));
        assert!(text.contains("strudel_stream_windows_total 6"));
        assert!(text.contains("stage=\"stream\""));
    }

    #[test]
    fn timer_records_into_sink() {
        let mut sink = StageTimings::default();
        let t = StageTimer::start(Stage::LineClassify);
        t.stop(&mut sink);
        assert_eq!(sink.count(Stage::LineClassify), 1);
        // Durations are non-negative by construction; the observation
        // itself must exist even for instantaneous work.
        assert_eq!(sink.count(Stage::Parse), 0);
    }
}
