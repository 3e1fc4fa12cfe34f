//! The end-to-end Strudel pipeline (Figure 2).
//!
//! Raw text → dialect detection → verbose CSV table → `Strudel^L` line
//! classification → `Strudel^C` cell classification. [`Strudel`] bundles
//! the two fitted stages; [`Strudel::detect`] is the one guarded pipeline
//! body, and the convenience entry points for text, bytes and
//! pre-parsed tables are thin calls into it or its classification core.

use crate::analysis::TableAnalysis;
use crate::cell_classifier::{CellPrediction, StrudelCell, StrudelCellConfig};
use crate::line_classifier::{line_classes, StrudelLine};
use crate::metrics::{Stage, StageTimer, StageTimings};
use std::collections::HashMap;
use strudel_dialect::{
    decode_utf8, strip_bom, try_detect_dialect, try_read_table_ref_with, Dialect,
};
use strudel_table::{
    CellView, Deadline, ElementClass, GridView, LabeledFile, LimitKind, Limits, StrudelError, Table,
};

/// The detected structure of one verbose CSV file.
///
/// Built through [`Structure::new`], which indexes the cell predictions
/// by position so [`cell_class`](Structure::cell_class) is a hash lookup
/// rather than a scan.
#[derive(Debug, Clone)]
pub struct Structure {
    /// The dialect the file was parsed with.
    pub dialect: Dialect,
    /// The parsed table.
    pub table: Table,
    /// Per-line class (`None` for empty lines).
    pub lines: Vec<Option<ElementClass>>,
    /// Per-line class probability vectors (uniform for empty lines).
    pub line_probs: Vec<Vec<f64>>,
    /// Per-cell predictions for all non-empty cells.
    pub cells: Vec<CellPrediction>,
    /// Position → index into `cells`, built once at construction. It
    /// stays valid as long as no caller moves, adds or removes entries of
    /// `cells`; rewriting a predicted class in place keeps it valid.
    cell_index: HashMap<(usize, usize), usize>,
}

impl PartialEq for Structure {
    fn eq(&self, other: &Structure) -> bool {
        // The index is derived from `cells`; comparing it would be
        // redundant.
        self.dialect == other.dialect
            && self.table == other.table
            && self.lines == other.lines
            && self.line_probs == other.line_probs
            && self.cells == other.cells
    }
}

impl Structure {
    /// Assemble a structure from its parts, building the position index
    /// over the cell predictions.
    pub fn new(
        dialect: Dialect,
        table: Table,
        lines: Vec<Option<ElementClass>>,
        line_probs: Vec<Vec<f64>>,
        cells: Vec<CellPrediction>,
    ) -> Structure {
        let cell_index = cells
            .iter()
            .enumerate()
            .map(|(i, c)| ((c.row, c.col), i))
            .collect();
        Structure {
            dialect,
            table,
            lines,
            line_probs,
            cells,
            cell_index,
        }
    }

    /// The predicted class of the cell at `(row, col)`, or `None` when the
    /// cell is empty.
    pub fn cell_class(&self, row: usize, col: usize) -> Option<ElementClass> {
        self.cell_index
            .get(&(row, col))
            .map(|&i| self.cells[i].class)
    }

    /// The full prediction of the cell at `(row, col)`, or `None` when
    /// the cell is empty.
    pub fn cell_prediction(&self, row: usize, col: usize) -> Option<&CellPrediction> {
        self.cell_index.get(&(row, col)).map(|&i| &self.cells[i])
    }

    /// Extract the data region as rows of raw values: every line whose
    /// predicted class is `data`, restricted to cells predicted `data`.
    /// This is the "make the file machine-readable" payoff the paper's
    /// introduction motivates.
    pub fn data_rows(&self) -> Vec<Vec<String>> {
        let mut cell_class = vec![vec![None; self.table.n_cols()]; self.table.n_rows()];
        for c in &self.cells {
            cell_class[c.row][c.col] = Some(c.class);
        }
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| **l == Some(ElementClass::Data))
            .map(|(r, _)| {
                (0..self.table.n_cols())
                    .map(|c| {
                        if cell_class[r][c] == Some(ElementClass::Data) {
                            self.table.cell(r, c).raw().to_string()
                        } else {
                            String::new()
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The predicted header line, as raw values, if any: the first line
    /// classified `header`, falling back to the first line holding a
    /// majority of `header` *cells* — the cell stage often recovers
    /// numeric year headers that the line stage absorbed into the data
    /// area (the paper's "header as data" error).
    pub fn header_row(&self) -> Option<Vec<String>> {
        let by_line = self
            .lines
            .iter()
            .position(|l| *l == Some(ElementClass::Header));
        let r = by_line.or_else(|| {
            let mut headers = vec![0usize; self.table.n_rows()];
            for c in self
                .cells
                .iter()
                .filter(|c| c.class == ElementClass::Header)
            {
                headers[c.row] += 1;
            }
            (0..self.table.n_rows())
                .find(|&r| headers[r] > 0 && 2 * headers[r] >= self.table.row_non_empty_count(r))
        })?;
        Some(
            (0..self.table.n_cols())
                .map(|c| self.table.cell(r, c).raw().to_string())
                .collect(),
        )
    }
}

/// One vertically-delimited table region of a verbose CSV file,
/// segmented from the line classes (a verbose file "may include multiple
/// tables", Section 3.1; tables stack vertically per Section 3.2).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableRegion {
    /// Metadata lines introducing the table (caption block).
    pub metadata_rows: Vec<usize>,
    /// Header lines.
    pub header_rows: Vec<usize>,
    /// Body lines: data, group, and derived lines in order.
    pub body_rows: Vec<usize>,
    /// Notes lines following the table.
    pub notes_rows: Vec<usize>,
}

impl TableRegion {
    /// All rows of the region, in order.
    pub fn all_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self
            .metadata_rows
            .iter()
            .chain(&self.header_rows)
            .chain(&self.body_rows)
            .chain(&self.notes_rows)
            .copied()
            .collect();
        rows.sort_unstable();
        rows
    }
}

impl Structure {
    /// Segment the file into its stacked table regions, following the
    /// top-to-bottom reading convention of Section 3.2: a caption block
    /// (metadata) opens a region, header lines follow, then the body
    /// (data / group / derived), then notes; a new metadata or header
    /// line after body content starts the next region.
    pub fn tables(&self) -> Vec<TableRegion> {
        #[derive(PartialEq, Clone, Copy)]
        enum Phase {
            Caption,
            Body,
            Notes,
        }
        let mut regions: Vec<TableRegion> = Vec::new();
        let mut current = TableRegion::default();
        let mut phase = Phase::Caption;
        let mut has_content = false;

        let flush =
            |current: &mut TableRegion, has_content: &mut bool, regions: &mut Vec<TableRegion>| {
                if *has_content {
                    regions.push(std::mem::take(current));
                }
                *has_content = false;
            };

        for (r, line) in self.lines.iter().enumerate() {
            let Some(class) = line else { continue };
            match class {
                ElementClass::Metadata => {
                    if phase != Phase::Caption {
                        flush(&mut current, &mut has_content, &mut regions);
                        phase = Phase::Caption;
                    }
                    current.metadata_rows.push(r);
                }
                ElementClass::Header => {
                    if phase == Phase::Notes {
                        flush(&mut current, &mut has_content, &mut regions);
                        phase = Phase::Caption;
                    }
                    current.header_rows.push(r);
                    has_content = true;
                }
                ElementClass::Data | ElementClass::Group | ElementClass::Derived => {
                    if phase == Phase::Notes {
                        flush(&mut current, &mut has_content, &mut regions);
                    }
                    current.body_rows.push(r);
                    has_content = true;
                    phase = Phase::Body;
                }
                ElementClass::Notes => {
                    current.notes_rows.push(r);
                    phase = Phase::Notes;
                }
            }
        }
        if has_content || !current.metadata_rows.is_empty() || !current.notes_rows.is_empty() {
            regions.push(current);
        }
        regions
    }
}

/// The fitted two-stage Strudel model.
pub struct Strudel {
    cell_model: StrudelCell,
}

impl Strudel {
    /// Fit both stages on annotated files.
    pub fn fit(files: &[LabeledFile], config: &StrudelCellConfig) -> Strudel {
        Strudel {
            cell_model: StrudelCell::fit(files, config),
        }
    }

    /// Wrap an already-fitted cell model.
    pub fn from_cell_model(cell_model: StrudelCell) -> Strudel {
        Strudel { cell_model }
    }

    /// Detect the structure of raw text: dialect detection, parsing, and
    /// both classification stages. A leading UTF-8 BOM is stripped.
    ///
    /// This convenience entry point runs without resource limits and
    /// cannot fail; untrusted input should go through
    /// [`try_detect_structure_bytes`](Self::try_detect_structure_bytes)
    /// or [`detect`](Self::detect) instead.
    pub fn detect_structure(&self, text: &str) -> Structure {
        // With unbounded limits and no deadline, no error path of the
        // guarded pipeline is reachable on `&str` input.
        self.detect(
            strip_bom(text),
            None,
            &Limits::unbounded(),
            Deadline::none(),
            0,
            &mut StageTimings::default(),
        )
        .expect("unbounded detection cannot fail")
    }

    /// The guarded pipeline over raw bytes: the byte cap (BOM
    /// included), UTF-8 decoding (a typed parse error on failure, with
    /// the offending byte offset), then [`detect`](Self::detect) on the
    /// BOM-stripped text with a deadline started after decoding. The
    /// entry point for untrusted file contents.
    pub fn try_detect_structure_bytes(
        &self,
        bytes: &[u8],
        limits: &Limits,
    ) -> Result<Structure, StrudelError> {
        self.try_detect_structure_bytes_metered(bytes, limits, 0, &mut StageTimings::default())
    }

    /// [`try_detect_structure_bytes`](Self::try_detect_structure_bytes)
    /// with per-stage timing recorded into `sink` and an explicit
    /// inference thread count: `0` picks the available parallelism;
    /// resident services running several request workers (the `strudel
    /// serve` daemon) pin `1`, like the batch engine, so per-request
    /// inference never oversubscribes the machine.
    pub fn try_detect_structure_bytes_metered(
        &self,
        bytes: &[u8],
        limits: &Limits,
        n_threads: usize,
        sink: &mut StageTimings,
    ) -> Result<Structure, StrudelError> {
        if let Some(max) = limits.max_input_bytes {
            if bytes.len() as u64 > max {
                return Err(StrudelError::limit(
                    LimitKind::InputBytes,
                    bytes.len() as u64,
                    max,
                ));
            }
        }
        let text = decode_utf8(bytes)?;
        self.detect(
            strip_bom(text),
            None,
            limits,
            limits.start_deadline(),
            n_threads,
            sink,
        )
    }

    /// The one guarded pipeline body: byte cap, binary check, dialect
    /// detection (skipped when `dialect` is given), guarded parsing,
    /// classification and materialisation, each stage recorded once
    /// into `sink`. Every stage either succeeds or reports a typed
    /// [`StrudelError`] — never a panic, never unbounded memory — and
    /// the wall-clock `deadline` is polled at stage boundaries and
    /// inside the parser loop. `n_threads` is the inference thread
    /// count (`0` = available parallelism, see
    /// [`crate::batch::resolve_threads`]).
    ///
    /// `text` is taken as given: a leading BOM is *not* stripped, so
    /// callers that already consumed one (the streaming classifier
    /// strips it at the byte level) do not lose genuine `U+FEFF`
    /// content. Limits apply to `text` itself, so `max_input_bytes`
    /// caps a streamed window, not the whole stream, and the NUL offset
    /// of a `reject_binary` failure is relative to `text`.
    ///
    /// With a known dialect this is the per-window work unit of the
    /// streaming classifier ([`crate::stream`]): each closed window is
    /// classified exactly as if its text were an independent document
    /// parsed under the stream's prefix-detected dialect, which is also
    /// what the streaming-vs-whole-file differential tests re-run on
    /// window slices.
    pub fn detect(
        &self,
        text: &str,
        dialect: Option<&Dialect>,
        limits: &Limits,
        deadline: Deadline,
        n_threads: usize,
        sink: &mut StageTimings,
    ) -> Result<Structure, StrudelError> {
        if let Some(max) = limits.max_input_bytes {
            if text.len() as u64 > max {
                return Err(StrudelError::limit(
                    LimitKind::InputBytes,
                    text.len() as u64,
                    max,
                ));
            }
        }
        if limits.reject_binary {
            if let Some(pos) = text.bytes().position(|b| b == 0) {
                return Err(StrudelError::Dialect {
                    file: None,
                    reason: format!("binary content: NUL byte at offset {pos}"),
                });
            }
        }
        let dialect = match dialect {
            Some(dialect) => *dialect,
            None => {
                let timer = StageTimer::start(Stage::Dialect);
                let dialect = try_detect_dialect(text, limits, deadline)?;
                timer.stop(sink);
                dialect
            }
        };
        deadline.check()?;
        let timer = StageTimer::start(Stage::Parse);
        let (table_ref, _) = try_read_table_ref_with(text, &dialect, limits, deadline, 1)?;
        timer.stop(sink);
        deadline.check()?;
        // Classification runs over the borrowed grid — no cell text has
        // been copied out of the input buffer yet.
        let (lines, line_probs, cells) = self.classify_grid(table_ref.view(), n_threads, sink);
        let timer = StageTimer::start(Stage::Materialize);
        let table = table_ref.into_table();
        timer.stop(sink);
        Ok(Structure::new(dialect, table, lines, line_probs, cells))
    }

    /// Detect the structure of a pre-parsed table: the two
    /// classification stages only, since dialect detection and parsing
    /// already happened.
    pub fn detect_structure_of_table(&self, table: Table, dialect: Dialect) -> Structure {
        let (lines, line_probs, cells) =
            self.classify_grid(table.view(), 0, &mut StageTimings::default());
        Structure::new(dialect, table, lines, line_probs, cells)
    }

    /// The classification core, shared by the owned-table entry point
    /// and the borrowed zero-copy detection path: one derived-cell
    /// analysis, `Strudel^L` line probabilities (with hard classes as
    /// their argmax — the forest is only walked once per line), and
    /// `Strudel^C` cell predictions, each metered as its own stage.
    fn classify_grid<C: CellView>(
        &self,
        grid: GridView<'_, C>,
        n_threads: usize,
        sink: &mut StageTimings,
    ) -> (
        Vec<Option<ElementClass>>,
        Vec<Vec<f64>>,
        Vec<CellPrediction>,
    ) {
        // The thread knob resolves exactly once per grid (explicit
        // request → STRUDEL_THREADS → available parallelism), so both
        // forest walks see the same effective count.
        let n_threads = crate::batch::resolve_threads(n_threads);
        let line_model = self.cell_model.line_model();
        // One derived-cell detection (Algorithm 2) per table, shared by
        // the line and cell feature extractors.
        let timer = StageTimer::start(Stage::DerivedCells);
        let analysis = TableAnalysis::compute_view(grid, line_model.feature_config().derived);
        timer.stop(sink);
        let timer = StageTimer::start(Stage::LineClassify);
        let line_probs = line_model.predict_probs_view(grid, &analysis, n_threads);
        let lines = line_classes(grid, &line_probs);
        timer.stop(sink);
        let timer = StageTimer::start(Stage::CellClassify);
        let cells =
            self.cell_model
                .predict_with_probs_view(grid, &line_probs, n_threads, &analysis);
        timer.stop(sink);
        (lines, line_probs, cells)
    }

    /// The line stage.
    pub fn line_model(&self) -> &StrudelLine {
        self.cell_model.line_model()
    }

    /// The cell stage.
    pub fn cell_model(&self) -> &StrudelCell {
        &self.cell_model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_classifier::tests::tiny_corpus;
    use crate::line_classifier::StrudelLineConfig;
    use strudel_ml::ForestConfig;

    fn fitted() -> Strudel {
        let corpus = tiny_corpus(8);
        let config = StrudelCellConfig {
            line: StrudelLineConfig {
                forest: ForestConfig::fast(15, 1),
                ..StrudelLineConfig::default()
            },
            forest: ForestConfig::fast(15, 2),
            ..StrudelCellConfig::default()
        };
        Strudel::fit(&corpus.files, &config)
    }

    #[test]
    fn end_to_end_on_raw_text() {
        let model = fitted();
        let text = "Report on crime,,\nState,2019,2020\nBerlin,14,28\nHamburg,15,29\nTotal,29,57\nSource: police,,\n";
        let s = model.detect_structure(text);
        assert_eq!(s.dialect.delimiter, ',');
        assert_eq!(s.lines[0], Some(ElementClass::Metadata));
        assert_eq!(s.lines[1], Some(ElementClass::Header));
        assert_eq!(s.lines[2], Some(ElementClass::Data));
        assert_eq!(s.lines[4], Some(ElementClass::Derived));
        assert_eq!(s.lines[5], Some(ElementClass::Notes));
    }

    #[test]
    fn data_extraction_returns_data_lines_only() {
        let model = fitted();
        let text = "Report on crime,,\nState,2019,2020\nBerlin,14,28\nHamburg,15,29\nTotal,29,57\nSource: police,,\n";
        let s = model.detect_structure(text);
        let data = s.data_rows();
        assert_eq!(data.len(), 2);
        assert_eq!(data[0][0], "Berlin");
        assert_eq!(s.header_row().unwrap()[1], "2019");
    }

    #[test]
    fn header_row_falls_back_to_majority_header_cells() {
        // No line is classified `header`. Row 1 holds 1 header cell of 3
        // (a minority); row 2 holds 2 of 4, and the tie counts.
        use ElementClass::*;
        let build = |headers: &[(usize, usize)]| {
            let table = Table::from_rows(vec![
                vec!["Report", "", "", ""],
                vec!["a", "b", "c", ""],
                vec!["State", "2019", "2020", "2021"],
                vec!["Berlin", "1", "2", "3"],
            ]);
            let mut cells = Vec::new();
            for row in 0..table.n_rows() {
                for col in (0..table.n_cols()).filter(|&c| !table.cell(row, c).is_empty()) {
                    let class = if headers.contains(&(row, col)) {
                        Header
                    } else {
                        Data
                    };
                    let probs = vec![1.0 / 6.0; 6];
                    cells.push(CellPrediction {
                        row,
                        col,
                        class,
                        probs,
                    });
                }
            }
            let lines = vec![Some(Metadata), Some(Data), Some(Data), Some(Data)];
            let line_probs = vec![vec![1.0 / 6.0; 6]; 4];
            Structure::new(Dialect::rfc4180(), table, lines, line_probs, cells)
        };
        let s = build(&[(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (3, 3)]);
        assert_eq!(
            s.header_row(),
            Some(vec![
                "State".into(),
                "2019".into(),
                "2020".into(),
                "2021".into()
            ])
        );
        assert_eq!(build(&[(1, 0)]).header_row(), None);
        assert_eq!(build(&[]).header_row(), None);
    }

    #[test]
    fn tables_segments_stacked_regions() {
        // Hand-build a Structure with known line classes — segmentation
        // is a pure function of them.
        use ElementClass::*;
        let table = Table::from_rows(vec![vec!["x"]; 12]);
        let classes = vec![
            Some(Metadata),
            Some(Header),
            Some(Data),
            Some(Derived),
            Some(Notes),
            None,
            Some(Metadata),
            Some(Header),
            Some(Data),
            Some(Group),
            Some(Data),
            Some(Notes),
        ];
        let line_probs = vec![vec![1.0 / 6.0; 6]; table.n_rows()];
        let s = Structure::new(
            strudel_dialect::Dialect::rfc4180(),
            table,
            classes,
            line_probs,
            Vec::new(),
        );
        let regions = s.tables();
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].metadata_rows, vec![0]);
        assert_eq!(regions[0].header_rows, vec![1]);
        assert_eq!(regions[0].body_rows, vec![2, 3]);
        assert_eq!(regions[0].notes_rows, vec![4]);
        assert_eq!(regions[1].metadata_rows, vec![6]);
        assert_eq!(regions[1].body_rows, vec![8, 9, 10]);
        assert_eq!(regions[1].all_rows(), vec![6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn tables_of_single_region_file() {
        let model = fitted();
        let text = "Report on crime,,\nState,2019,2020\nBerlin,14,28\nHamburg,15,29\nTotal,29,57\nSource: police,,\n";
        let s = model.detect_structure(text);
        let regions = s.tables();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].body_rows.len(), 3);
    }

    #[test]
    fn tables_of_empty_structure() {
        let model = fitted();
        let s = model.detect_structure("");
        assert!(s.tables().is_empty());
    }

    #[test]
    fn cell_class_lookup() {
        let model = fitted();
        let text = "Report on crime,,\nState,2019,2020\nBerlin,14,28\nHamburg,15,29\nTotal,29,57\nSource: police,,\n";
        let s = model.detect_structure(text);
        assert_eq!(s.cell_class(2, 1), Some(ElementClass::Data));
        // Empty cell has no class.
        assert_eq!(s.cell_class(0, 1), None);
    }

    #[test]
    fn cell_index_hit_miss_and_empty() {
        // `cell_class` is index-backed: a hit returns the prediction at
        // that position, an out-of-range miss and an empty cell both
        // return `None`, and every stored prediction is findable.
        let model = fitted();
        let text = "Report on crime,,\nState,2019,2020\nBerlin,14,28\nHamburg,15,29\nTotal,29,57\nSource: police,,\n";
        let s = model.detect_structure(text);
        for c in &s.cells {
            assert_eq!(s.cell_class(c.row, c.col), Some(c.class));
            assert_eq!(s.cell_prediction(c.row, c.col), Some(c));
        }
        // Miss: far outside the table.
        assert_eq!(s.cell_class(999, 999), None);
        assert!(s.cell_prediction(999, 999).is_none());
        // Empty cell inside the table: row 0 only fills column 0.
        assert!(s.table.cell(0, 2).is_empty());
        assert_eq!(s.cell_class(0, 2), None);
        // A structure with no cell predictions at all.
        let empty = Structure::new(
            strudel_dialect::Dialect::rfc4180(),
            Table::from_rows(Vec::<Vec<&str>>::new()),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        assert_eq!(empty.cell_class(0, 0), None);
    }

    #[test]
    fn metered_detection_records_all_stages_and_matches_unmetered() {
        let model = fitted();
        let text = "Report on crime,,\nState,2019,2020\nBerlin,14,28\nHamburg,15,29\nTotal,29,57\nSource: police,,\n";
        let limits = Limits::standard();
        let reference = model.detect_structure(text);

        // A whole-file call records every stage once, except the
        // streaming-only bookkeeping stage and the container
        // encode/decode stages; with a known dialect, detection is
        // skipped.
        let assert_once = |sink: &StageTimings, dialect_runs: bool| {
            for stage in Stage::ALL {
                let want = match stage {
                    Stage::Stream | Stage::Pack | Stage::Unpack => 0,
                    Stage::Dialect => u64::from(dialect_runs),
                    _ => 1,
                };
                assert_eq!(sink.count(stage), want, "stage {} recorded", stage.name());
            }
        };

        let mut sink = StageTimings::default();
        let detected = model
            .detect(text, None, &limits, Deadline::none(), 0, &mut sink)
            .unwrap();
        assert_once(&sink, true);
        assert_eq!(detected, reference);

        let mut sink = StageTimings::default();
        let known = model
            .detect(
                text,
                Some(&reference.dialect),
                &limits,
                Deadline::none(),
                1,
                &mut sink,
            )
            .unwrap();
        assert_once(&sink, false);
        assert_eq!(known, reference);

        let mut sink = StageTimings::default();
        let metered = model
            .try_detect_structure_bytes_metered(text.as_bytes(), &limits, 2, &mut sink)
            .unwrap();
        assert_once(&sink, true);
        assert_eq!(metered, reference);
        assert_eq!(
            model
                .try_detect_structure_bytes(text.as_bytes(), &limits)
                .unwrap(),
            reference
        );

        // The table entry point skips dialect detection and parsing and
        // has nothing to materialise; it classifies the same grid.
        let of_table = model.detect_structure_of_table(reference.table.clone(), reference.dialect);
        assert_eq!(of_table, reference);
        assert_eq!(of_table.lines.len(), 6);

        // Each classifier's own `predict` on the parsed table agrees
        // with the pipeline.
        assert_eq!(
            model.line_model().predict(&reference.table),
            reference.lines
        );
        assert_eq!(
            model.cell_model().predict(&reference.table),
            reference.cells
        );
    }
}
