//! The whole-file pipeline rebuilt from the eight public layer calls it
//! is made of, with a span around each call. The rebuilt `Structure`
//! must equal what the program's own entry point returns for the same
//! input; the benchmark checks that on every input it traces.

use crate::trace::Trace;
use strudel::{
    extract_cell_features_view, extract_line_features_view, CellPrediction, Dialect, Limits,
    Structure, Strudel, StrudelError, TableAnalysis,
};
use strudel_dialect::{decode_utf8, strip_bom, try_detect_dialect, try_read_table_ref_with};
use strudel_table::ElementClass;

/// Work counts recorded at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub dialect_calls: u64,
    pub scan_records: u64,
    pub scan_bytes: u64,
    pub derived_rows: u64,
    pub line_feature_rows: u64,
    pub line_forest_rows: u64,
    pub cell_feature_cells: u64,
    pub cell_forest_rows: u64,
}

/// Run `bytes` through the rebuilt pipeline. With `dialect` given,
/// detection is skipped, as the streaming classifier does for every
/// window after the first prefix.
pub fn rebuild(
    model: &Strudel,
    bytes: &[u8],
    dialect: Option<Dialect>,
    limits: &Limits,
    n_threads: usize,
    trace: &mut Trace,
    counts: &mut Counts,
) -> Result<Structure, StrudelError> {
    let text = strip_bom(decode_utf8(bytes)?);
    let deadline = limits.start_deadline();
    let dialect = match dialect {
        Some(d) => d,
        None => {
            counts.dialect_calls += 1;
            trace.time("dialect.detect", || {
                try_detect_dialect(text, limits, deadline)
            })?
        }
    };
    let (table_ref, records) = trace.time("dialect.scan", || {
        try_read_table_ref_with(text, &dialect, limits, deadline, n_threads)
    })?;
    counts.scan_records += records.n_records() as u64;
    counts.scan_bytes += text.len() as u64;
    drop(records);

    let line_model = model.line_model();
    let cell_model = model.cell_model();
    let (lines, line_probs, cells) = {
        let grid = table_ref.view();
        let n_rows = grid.n_rows();
        let analysis = trace.time("core.derived", || {
            TableAnalysis::compute_view(grid, line_model.feature_config().derived)
        });
        counts.derived_rows += n_rows as u64;

        let matrix = trace.time("core.line_features", || {
            extract_line_features_view(grid, line_model.feature_config(), &analysis)
        });
        counts.line_feature_rows += n_rows as u64;
        let rows: Vec<usize> = (0..n_rows).filter(|&r| !grid.row_is_empty(r)).collect();
        let samples: Vec<&[f64]> = rows.iter().map(|&r| matrix[r].as_slice()).collect();
        let predicted = trace.time("ml.line_forest", || {
            line_model.forest().predict_proba_batch(&samples, n_threads)
        });
        counts.line_forest_rows += samples.len() as u64;
        let mut line_probs =
            vec![vec![1.0 / ElementClass::COUNT as f64; ElementClass::COUNT]; n_rows];
        for (r, p) in rows.into_iter().zip(predicted) {
            line_probs[r] = p;
        }
        let lines: Vec<Option<ElementClass>> = (0..n_rows)
            .map(|r| {
                (!grid.row_is_empty(r))
                    .then(|| ElementClass::from_index(strudel_ml::argmax(&line_probs[r])))
            })
            .collect();

        let features = trace.time("core.cell_features", || {
            extract_cell_features_view(grid, &line_probs, cell_model.feature_config(), &analysis)
        });
        counts.cell_feature_cells += features.len() as u64;
        let samples: Vec<&[f64]> = features.iter().map(|f| f.features.as_slice()).collect();
        let predicted = trace.time("ml.cell_forest", || {
            cell_model.forest().predict_proba_batch(&samples, n_threads)
        });
        counts.cell_forest_rows += samples.len() as u64;
        let cells: Vec<CellPrediction> = features
            .iter()
            .zip(predicted)
            .map(|(f, probs)| CellPrediction {
                row: f.row,
                col: f.col,
                class: ElementClass::from_index(strudel_ml::argmax(&probs)),
                probs,
            })
            .collect();
        (lines, line_probs, cells)
    };
    let table = trace.time("table.materialize", || table_ref.into_table());
    Ok(Structure::new(dialect, table, lines, line_probs, cells))
}
