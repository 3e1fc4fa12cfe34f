//! The container writer: streaming classification in, sealed block
//! groups out.
//!
//! [`PackWriter`] drives a [`StreamClassifier`] with
//! [`StreamConfig::capture_text`] enabled, so every emitted window
//! arrives with its exact post-BOM text. Each window is sealed into one
//! *block group* the moment it is emitted — the window text is walked
//! once by [`raw_records`], split into skeleton and column streams, and
//! appended to the output — after which the text is dropped. Peak
//! memory is therefore O(window) plus the directory, exactly like the
//! streaming classifier itself; nothing about the container requires
//! the input to fit in memory.

use crate::format::{
    encode_directory, write_u64le, BlockEntry, BlockKind, Directory, TableMeta, END_MAGIC, MAGIC,
    ROW_BODY, ROW_HEADER, ROW_SKELETON,
};
use crate::varint::write_varint;
use strudel::{
    ContentHash, ContentHasher, StageTimings, StreamClassifier, StreamConfig, StreamSummary,
    StreamWindow, Strudel, StrudelError, TableRegion,
};
use strudel_dialect::{raw_records, Dialect, RawRecord};

/// A finished container plus its packing summary.
#[derive(Debug, Clone)]
pub struct Packed {
    /// The complete container bytes.
    pub bytes: Vec<u8>,
    /// The streaming classification summary (dialect, windows, rows).
    pub stream: StreamSummary,
    /// Number of block groups written (one per sealed window).
    pub n_groups: u64,
    /// Number of tables detected across all groups.
    pub n_tables: usize,
    /// Number of blocks written.
    pub n_blocks: usize,
    /// Fingerprint of the original input, BOM included.
    pub original: ContentHash,
    /// Per-stage timings of the embedded streaming classification.
    pub timings: StageTimings,
}

impl Packed {
    /// Packed size over original size — above 1.0 the container is
    /// larger than the input (expected: the container adds a directory
    /// and per-block checksums; it trades bytes for random access).
    pub fn ratio(&self) -> f64 {
        if self.original.len == 0 {
            return 1.0;
        }
        self.bytes.len() as f64 / self.original.len as f64
    }
}

/// How a raw record of a window is routed into the container.
#[derive(Clone, Copy)]
enum Role {
    Skeleton,
    Header(usize),
    Body(usize),
}

/// Streaming container writer. Push raw input chunks, then
/// [`finish`](PackWriter::finish) to obtain the container.
pub struct PackWriter<'m> {
    classifier: StreamClassifier<'m>,
    out: Vec<u8>,
    blocks: Vec<BlockEntry>,
    tables: Vec<TableMeta>,
    n_groups: u64,
    hasher: ContentHasher,
    /// First up-to-3 raw bytes, for the BOM flag.
    head: Vec<u8>,
}

impl<'m> PackWriter<'m> {
    /// Start a container over a fresh streaming classification under
    /// `config` (its `capture_text` flag is forced on — the writer
    /// needs every window's bytes).
    pub fn new(model: &'m Strudel, mut config: StreamConfig) -> PackWriter<'m> {
        config.capture_text = true;
        PackWriter {
            classifier: StreamClassifier::new(model, config),
            out: MAGIC.to_vec(),
            blocks: Vec::new(),
            tables: Vec::new(),
            n_groups: 0,
            hasher: ContentHasher::new(),
            head: Vec::new(),
        }
    }

    /// Feed one chunk of raw input bytes, sealing any windows the
    /// classifier emits. Classification errors (invalid UTF-8, limits,
    /// deadline) propagate unchanged and poison the writer like the
    /// underlying classifier.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), StrudelError> {
        self.hasher.update(bytes);
        if self.head.len() < 3 {
            let take = (3 - self.head.len()).min(bytes.len());
            self.head.extend_from_slice(&bytes[..take]);
        }
        self.classifier.push(bytes)?;
        self.seal_emitted();
        Ok(())
    }

    /// End of input: classify the remainder, seal the final group(s),
    /// and append the directory and tail.
    pub fn finish(mut self) -> Result<Packed, StrudelError> {
        let stream = self.classifier.finish()?;
        self.seal_emitted();
        let directory = Directory {
            dialect: stream.dialect,
            bom: self.head.starts_with(&[0xEF, 0xBB, 0xBF]),
            original: self.hasher.finish(),
            n_groups: self.n_groups,
            tables: std::mem::take(&mut self.tables),
            blocks: std::mem::take(&mut self.blocks),
        };
        let dir_bytes = encode_directory(&directory);
        let dir_offset = self.out.len() as u64;
        let dir_hash = ContentHash::of(&dir_bytes);
        self.out.extend_from_slice(&dir_bytes);
        write_u64le(&mut self.out, dir_offset);
        write_u64le(&mut self.out, dir_bytes.len() as u64);
        write_u64le(&mut self.out, dir_hash.h1);
        write_u64le(&mut self.out, dir_hash.h2);
        self.out.extend_from_slice(END_MAGIC);
        Ok(Packed {
            bytes: self.out,
            stream,
            n_groups: directory.n_groups,
            n_tables: directory.tables.len(),
            n_blocks: directory.blocks.len(),
            original: directory.original,
            timings: self.classifier.into_timings(),
        })
    }

    fn seal_emitted(&mut self) {
        for window in self.classifier.drain_windows() {
            let dialect = self
                .classifier
                .dialect()
                .expect("an emitted window implies a detected dialect");
            self.seal(&window, &dialect);
        }
    }

    /// Seal one window into one block group: a skeleton block routing
    /// every raw record, then one column block per (table, column).
    fn seal(&mut self, window: &StreamWindow, dialect: &Dialect) {
        let text = window.text.as_str();
        let raw = raw_records(text, dialect);
        let group = self.n_groups;
        let regions = window.structure.tables();
        let first_table = self.tables.len();

        // Route rows. Raw records beyond the classified lines (the
        // documented lone-escape divergence) stay skeleton, preserving
        // their bytes verbatim.
        let mut roles = vec![Role::Skeleton; raw.len()];
        for (ti, region) in regions.iter().enumerate() {
            let t = first_table + ti;
            for &r in &region.header_rows {
                if let Some(role) = roles.get_mut(r) {
                    *role = Role::Header(t);
                }
            }
            for &r in &region.body_rows {
                if let Some(role) = roles.get_mut(r) {
                    *role = Role::Body(t);
                }
            }
        }

        let mut skeleton = Vec::new();
        for (r, record) in raw.iter().enumerate() {
            let span = record.span();
            let directive = |kind: u8| (kind << 2) | record.term.code();
            match roles[r] {
                Role::Skeleton => {
                    skeleton.push(directive(ROW_SKELETON));
                    write_varint(&mut skeleton, span.len() as u64);
                    skeleton.extend_from_slice(text[span].as_bytes());
                }
                Role::Header(t) => {
                    skeleton.push(directive(ROW_HEADER));
                    write_varint(&mut skeleton, t as u64);
                    write_varint(&mut skeleton, span.len() as u64);
                    skeleton.extend_from_slice(text[span].as_bytes());
                }
                Role::Body(t) => {
                    skeleton.push(directive(ROW_BODY));
                    write_varint(&mut skeleton, t as u64);
                    write_varint(&mut skeleton, record.fields.len() as u64);
                }
            }
        }
        self.append_block(BlockKind::Skeleton, group, 0, 0, skeleton);

        for (ti, region) in regions.iter().enumerate() {
            let body: Vec<&RawRecord> = region
                .body_rows
                .iter()
                .filter_map(|&r| raw.get(r))
                .collect();
            let n_cols = body.iter().map(|r| r.fields.len()).max().unwrap_or(0);
            for c in 0..n_cols {
                let mut block = Vec::new();
                for record in &body {
                    match record.fields.get(c) {
                        // Length-plus-one encoding: 0 marks a field the
                        // (ragged) row does not have, 1 an empty field.
                        Some(range) => {
                            write_varint(&mut block, range.len() as u64 + 1);
                            block.extend_from_slice(text[range.clone()].as_bytes());
                        }
                        None => write_varint(&mut block, 0),
                    }
                }
                self.append_block(
                    BlockKind::Column,
                    group,
                    (first_table + ti) as u64,
                    c as u64,
                    block,
                );
            }
            self.tables.push(TableMeta {
                group,
                n_body_rows: body.len() as u64,
                columns: column_names(text, &raw, region, dialect, n_cols),
            });
        }
        self.n_groups += 1;
    }

    fn append_block(
        &mut self,
        kind: BlockKind,
        group: u64,
        table: u64,
        column: u64,
        payload: Vec<u8>,
    ) {
        let hash = ContentHash::of(&payload);
        self.blocks.push(BlockEntry {
            kind,
            group,
            table,
            column,
            offset: self.out.len() as u64,
            len: payload.len() as u64,
            h1: hash.h1,
            h2: hash.h2,
        });
        self.out.extend_from_slice(&payload);
    }
}

/// Column names for a region: the first header row's field *values*
/// (raw bytes reparsed under the dialect, so quoting is undone), padded
/// with `colN` placeholders where the header is missing, short, or
/// empty.
fn column_names(
    text: &str,
    raw: &[RawRecord],
    region: &TableRegion,
    dialect: &Dialect,
    n_cols: usize,
) -> Vec<String> {
    let header = region.header_rows.iter().find_map(|&r| raw.get(r));
    (0..n_cols)
        .map(|c| {
            header
                .and_then(|record| record.fields.get(c))
                .map(|range| crate::field_value(&text[range.clone()], dialect))
                .filter(|name| !name.is_empty())
                .unwrap_or_else(|| format!("col{c}"))
        })
        .collect()
}
