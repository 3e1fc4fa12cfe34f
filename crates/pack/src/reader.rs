//! The container reader: O(1) directory addressing, verified block
//! decode, byte-identical full unpack, and selective extraction.
//!
//! [`PackReader::open`] trusts nothing: magic, tail geometry, directory
//! checksum, the group count against the block count, and every
//! cross-reference (block → group/table/column, table → group, block
//! extents vs. directory offset) are validated before the reader exists,
//! and every block payload is checksum-verified at the moment it is
//! read. The checksums are unkeyed, so a crafted directory can carry a
//! valid one; the checks do not rely on it. All failures are typed
//! [`StrudelError`]s — the fuzz harness feeds this arbitrary, truncated
//! and re-sealed bytes and expects no panics.
//!
//! The reader counts every block it decodes
//! ([`blocks_read`](PackReader::blocks_read)); the workspace tests pin
//! the random-access contract with it — extracting one column of one
//! table decodes exactly one block, no matter how many tables the
//! container holds.

use crate::format::{
    decode_directory, read_u64le, BlockKind, Directory, TableMeta, END_MAGIC, MAGIC, ROW_BODY,
    ROW_HEADER, ROW_SKELETON, TAIL_LEN,
};
use crate::varint::read_varint;
use crate::{corrupt, field_value};
use std::collections::HashMap;
use strudel::{ContentHash, Dialect, StrudelError};
use strudel_dialect::Terminator;

/// One decoded skeleton directive.
enum SkeletonRow<'a> {
    /// Verbatim bytes (metadata, notes, blanks, unclassified rows).
    Verbatim { bytes: &'a [u8], term: Terminator },
    /// A header row: verbatim bytes tagged with their table.
    Header {
        table: usize,
        bytes: &'a [u8],
        term: Terminator,
    },
    /// A body row: geometry only; bytes live in column blocks.
    Body {
        table: usize,
        n_fields: usize,
        term: Terminator,
    },
}

/// Random-access reader over a packed container held in memory.
pub struct PackReader<'a> {
    data: &'a [u8],
    dir: Directory,
    /// group → index into `dir.blocks` of its skeleton block.
    skeleton_of_group: Vec<usize>,
    /// table → column → index into `dir.blocks`.
    column_blocks: Vec<Vec<usize>>,
    blocks_read: u64,
}

impl<'a> PackReader<'a> {
    /// Validate the container framing and directory and build the
    /// block index. No block payload is read or verified yet.
    pub fn open(data: &'a [u8]) -> Result<PackReader<'a>, StrudelError> {
        if data.len() < MAGIC.len() + TAIL_LEN {
            return Err(corrupt(
                data.len() as u64,
                format!(
                    "container too short ({} bytes; a valid container is at least {})",
                    data.len(),
                    MAGIC.len() + TAIL_LEN
                ),
            ));
        }
        if &data[..MAGIC.len()] != MAGIC {
            return Err(corrupt(0, "bad container magic"));
        }
        let tail_at = data.len() - TAIL_LEN;
        if &data[data.len() - END_MAGIC.len()..] != END_MAGIC {
            return Err(corrupt(
                (data.len() - END_MAGIC.len()) as u64,
                "bad end-of-container magic (truncated or overwritten tail)",
            ));
        }
        let dir_offset = read_u64le(data, tail_at);
        let dir_len = read_u64le(data, tail_at + 8);
        let dir_h1 = read_u64le(data, tail_at + 16);
        let dir_h2 = read_u64le(data, tail_at + 24);
        let dir_end = dir_offset.checked_add(dir_len);
        if dir_offset < MAGIC.len() as u64 || dir_end != Some(tail_at as u64) {
            return Err(corrupt(
                tail_at as u64,
                "directory extent does not fit the container",
            ));
        }
        let dir_bytes = &data[dir_offset as usize..tail_at];
        let got = ContentHash::of(dir_bytes);
        if got.h1 != dir_h1 || got.h2 != dir_h2 {
            return Err(corrupt(dir_offset, "directory checksum mismatch"));
        }
        let dir = decode_directory(dir_bytes)?;

        // Cross-validate the directory so extraction can index freely.
        // Every group needs its own skeleton block, so more groups than
        // blocks is corrupt; checking that first bounds the allocation.
        let (groups, blocks) = (dir.n_groups, dir.blocks.len());
        if groups > blocks as u64 {
            let reason = format!("{groups} groups, {blocks} blocks: a group has no skeleton block");
            return Err(corrupt(dir_offset, reason));
        }
        if let Some(t) = dir.tables.iter().position(|t| t.group >= groups) {
            return Err(corrupt(
                dir_offset,
                format!("table {t} references group {}", dir.tables[t].group),
            ));
        }
        let mut skeleton_of_group: Vec<Option<usize>> = vec![None; groups as usize];
        let mut column_blocks: Vec<Vec<Option<usize>>> = dir
            .tables
            .iter()
            .map(|t| vec![None; t.columns.len()])
            .collect();
        for (i, block) in dir.blocks.iter().enumerate() {
            let end = block.offset.checked_add(block.len);
            if block.offset < MAGIC.len() as u64 || end.is_none() || end > Some(dir_offset) {
                return Err(corrupt(
                    block.offset,
                    format!("block {i} extent out of range"),
                ));
            }
            if block.group >= dir.n_groups {
                return Err(corrupt(
                    block.offset,
                    format!("block {i} references group {}", block.group),
                ));
            }
            match block.kind {
                BlockKind::Skeleton => {
                    let slot = &mut skeleton_of_group[block.group as usize];
                    if slot.is_some() {
                        return Err(corrupt(
                            block.offset,
                            format!("duplicate skeleton block for group {}", block.group),
                        ));
                    }
                    *slot = Some(i);
                }
                BlockKind::Column => {
                    let table = usize::try_from(block.table)
                        .ok()
                        .filter(|&t| t < dir.tables.len())
                        .ok_or_else(|| {
                            corrupt(
                                block.offset,
                                format!("block {i} references table {}", block.table),
                            )
                        })?;
                    if dir.tables[table].group != block.group {
                        return Err(corrupt(
                            block.offset,
                            format!("block {i} group disagrees with table {table}"),
                        ));
                    }
                    let slot = column_blocks[table]
                        .get_mut(block.column as usize)
                        .ok_or_else(|| {
                            corrupt(
                                block.offset,
                                format!("block {i} references column {}", block.column),
                            )
                        })?;
                    if slot.is_some() {
                        return Err(corrupt(
                            block.offset,
                            format!("duplicate column block {}/{}", table, block.column),
                        ));
                    }
                    *slot = Some(i);
                }
            }
        }
        let skeleton_of_group = skeleton_of_group
            .into_iter()
            .enumerate()
            .map(|(g, s)| {
                s.ok_or_else(|| corrupt(dir_offset, format!("group {g} has no skeleton block")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let column_blocks = column_blocks
            .into_iter()
            .enumerate()
            .map(|(t, cols)| {
                cols.into_iter()
                    .enumerate()
                    .map(|(c, s)| {
                        s.ok_or_else(|| {
                            corrupt(dir_offset, format!("table {t} column {c} has no block"))
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PackReader {
            data,
            dir,
            skeleton_of_group,
            column_blocks,
            blocks_read: 0,
        })
    }

    /// The dialect the input was packed under.
    pub fn dialect(&self) -> Dialect {
        self.dir.dialect
    }

    /// Fingerprint of the original input, BOM included.
    pub fn original(&self) -> ContentHash {
        self.dir.original
    }

    /// Number of block groups (sealed stream windows).
    pub fn n_groups(&self) -> u64 {
        self.dir.n_groups
    }

    /// Metadata of every detected table, in document order.
    pub fn tables(&self) -> &[TableMeta] {
        &self.dir.tables
    }

    /// Total number of blocks in the container.
    pub fn n_blocks(&self) -> usize {
        self.dir.blocks.len()
    }

    /// How many blocks have been checksum-verified and decoded so far —
    /// the observable measure of the random-access contract.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Find a column by exact name, optionally restricted to one table.
    /// Returns the first `(table, column)` match in document order.
    pub fn find_column(&self, name: &str, table: Option<usize>) -> Option<(usize, usize)> {
        self.dir
            .tables
            .iter()
            .enumerate()
            .filter(|(t, _)| table.is_none_or(|want| want == *t))
            .find_map(|(t, meta)| meta.columns.iter().position(|c| c == name).map(|c| (t, c)))
    }

    /// Fetch and checksum-verify one block's payload.
    fn block_payload(&mut self, index: usize) -> Result<&'a [u8], StrudelError> {
        let data: &'a [u8] = self.data;
        let entry = &self.dir.blocks[index];
        let payload = &data[entry.offset as usize..(entry.offset + entry.len) as usize];
        let got = ContentHash::of(payload);
        if got.h1 != entry.h1 || got.h2 != entry.h2 {
            return Err(corrupt(
                entry.offset,
                format!("block {index} checksum mismatch"),
            ));
        }
        self.blocks_read += 1;
        Ok(payload)
    }

    /// Reconstruct the complete original input, byte for byte. The
    /// result is verified against the original fingerprint before it is
    /// returned.
    pub fn unpack(&mut self) -> Result<Vec<u8>, StrudelError> {
        // The recorded length is only a capacity hint: a crafted
        // directory can claim any length, so the hint is capped at a
        // multiple of the container's own size (a wrong length still
        // fails the fingerprint check below).
        let hint = usize::try_from(self.dir.original.len).unwrap_or(usize::MAX);
        let mut out = Vec::with_capacity(hint.min(self.data.len().saturating_mul(4)));
        if self.dir.bom {
            out.extend_from_slice(&[0xEF, 0xBB, 0xBF]);
        }
        let mut delim = [0u8; 4];
        let delim = self
            .dir
            .dialect
            .delimiter
            .encode_utf8(&mut delim)
            .as_bytes()
            .to_vec();
        for group in 0..self.skeleton_of_group.len() {
            let skeleton = decode_skeleton(self.block_payload(self.skeleton_of_group[group])?)?;
            // Decode every column stream of the group's tables into
            // cursors the skeleton walk pops from.
            let mut streams: HashMap<usize, Vec<std::vec::IntoIter<Option<&[u8]>>>> =
                HashMap::new();
            let group_tables: Vec<usize> = (0..self.dir.tables.len())
                .filter(|&t| self.dir.tables[t].group == group as u64)
                .collect();
            for t in group_tables {
                let mut cols = Vec::new();
                for c in 0..self.column_blocks[t].len() {
                    let index = self.column_blocks[t][c];
                    cols.push(decode_column(self.block_payload(index)?)?.into_iter());
                }
                streams.insert(t, cols);
            }
            for row in &skeleton {
                match row {
                    SkeletonRow::Verbatim { bytes, term }
                    | SkeletonRow::Header { bytes, term, .. } => {
                        out.extend_from_slice(bytes);
                        out.extend_from_slice(term.as_str().as_bytes());
                    }
                    SkeletonRow::Body {
                        table,
                        n_fields,
                        term,
                    } => {
                        let cols = streams.get_mut(table).ok_or_else(|| {
                            corrupt(0, format!("body row references foreign table {table}"))
                        })?;
                        if *n_fields > cols.len() {
                            return Err(corrupt(
                                0,
                                format!(
                                    "body row wants {n_fields} fields of {} columns",
                                    cols.len()
                                ),
                            ));
                        }
                        // Every column stream holds one entry per body
                        // row (absent markers for ragged rows), so all
                        // cursors advance together.
                        for (c, col) in cols.iter_mut().enumerate() {
                            let entry = col.next().ok_or_else(|| {
                                corrupt(0, format!("column {c} of table {table} ran out of values"))
                            })?;
                            if c >= *n_fields {
                                continue;
                            }
                            if c > 0 {
                                out.extend_from_slice(&delim);
                            }
                            let value = entry.ok_or_else(|| {
                                corrupt(
                                    0,
                                    format!("column {c} of table {table} is missing a value"),
                                )
                            })?;
                            out.extend_from_slice(value);
                        }
                        out.extend_from_slice(term.as_str().as_bytes());
                    }
                }
            }
        }
        let got = ContentHash::of(&out);
        if got != self.dir.original {
            return Err(corrupt(
                0,
                "unpacked content does not match the original fingerprint",
            ));
        }
        Ok(out)
    }

    /// Extract one table as text: its header rows verbatim and its body
    /// rows reassembled, each with its original terminator. Decodes the
    /// table's group skeleton plus the table's column blocks only.
    pub fn extract_table(&mut self, table: usize) -> Result<String, StrudelError> {
        let meta = self
            .dir
            .tables
            .get(table)
            .ok_or_else(|| out_of_range(table, self.dir.tables.len()))?;
        let group = meta.group as usize;
        let skeleton = decode_skeleton(self.block_payload(self.skeleton_of_group[group])?)?;
        let mut cols = Vec::new();
        for c in 0..self.column_blocks[table].len() {
            let index = self.column_blocks[table][c];
            cols.push(decode_column(self.block_payload(index)?)?.into_iter());
        }
        let mut delim = [0u8; 4];
        let delim = self
            .dir
            .dialect
            .delimiter
            .encode_utf8(&mut delim)
            .as_bytes()
            .to_vec();
        let mut out = Vec::new();
        for row in &skeleton {
            match row {
                SkeletonRow::Header {
                    table: t,
                    bytes,
                    term,
                } if *t == table => {
                    out.extend_from_slice(bytes);
                    out.extend_from_slice(term.as_str().as_bytes());
                }
                SkeletonRow::Body {
                    table: t,
                    n_fields,
                    term,
                } if *t == table => {
                    if *n_fields > cols.len() {
                        return Err(corrupt(
                            0,
                            format!("body row wants {n_fields} fields of {} columns", cols.len()),
                        ));
                    }
                    for (c, col) in cols.iter_mut().enumerate() {
                        let entry = col.next().ok_or_else(|| {
                            corrupt(0, format!("column {c} of table {table} ran out of values"))
                        })?;
                        if c >= *n_fields {
                            continue;
                        }
                        if c > 0 {
                            out.extend_from_slice(&delim);
                        }
                        let value = entry.ok_or_else(|| {
                            corrupt(0, format!("column {c} of table {table} is missing a value"))
                        })?;
                        out.extend_from_slice(value);
                    }
                    out.extend_from_slice(term.as_str().as_bytes());
                }
                _ => {}
            }
        }
        String::from_utf8(out).map_err(|e| {
            corrupt(
                e.utf8_error().valid_up_to() as u64,
                "table text is not UTF-8",
            )
        })
    }

    /// Extract one column of one table as parsed *values* (quoting and
    /// escapes undone); `None` marks body rows too short to have the
    /// column. Decodes exactly one block.
    pub fn extract_column(
        &mut self,
        table: usize,
        column: usize,
    ) -> Result<Vec<Option<String>>, StrudelError> {
        let meta = self
            .dir
            .tables
            .get(table)
            .ok_or_else(|| out_of_range(table, self.dir.tables.len()))?;
        if column >= meta.columns.len() {
            return Err(StrudelError::Table {
                file: None,
                reason: format!(
                    "column {column} out of range (table {table} has {} columns)",
                    meta.columns.len()
                ),
            });
        }
        let dialect = self.dir.dialect;
        let index = self.column_blocks[table][column];
        let raw = decode_column(self.block_payload(index)?)?;
        raw.into_iter()
            .map(|field| {
                field
                    .map(|bytes| {
                        std::str::from_utf8(bytes)
                            .map(|s| field_value(s, &dialect))
                            .map_err(|_| corrupt(0, "column value is not UTF-8"))
                    })
                    .transpose()
            })
            .collect()
    }
}

fn out_of_range(table: usize, n: usize) -> StrudelError {
    StrudelError::Table {
        file: None,
        reason: format!("table {table} out of range (container holds {n} tables)"),
    }
}

/// Decode a skeleton payload into its row directives.
fn decode_skeleton(payload: &[u8]) -> Result<Vec<SkeletonRow<'_>>, StrudelError> {
    let mut rows = Vec::new();
    let mut pos = 0;
    while pos < payload.len() {
        let at = pos;
        let directive = payload[pos];
        pos += 1;
        let term = Terminator::from_code(directive & 0b11).expect("2-bit terminator code");
        let bad = |what: &str| corrupt(at as u64, format!("skeleton: {what}"));
        let varint =
            |pos: &mut usize, what: &str| read_varint(payload, pos).ok_or_else(|| bad(what));
        let take = |pos: &mut usize, len: usize, what: &str| -> Result<&[u8], StrudelError> {
            if len > payload.len() - *pos {
                return Err(bad(what));
            }
            let bytes = &payload[*pos..*pos + len];
            *pos += len;
            Ok(bytes)
        };
        match directive >> 2 {
            k if k == ROW_SKELETON => {
                let len = varint(&mut pos, "truncated row length")? as usize;
                let bytes = take(&mut pos, len, "truncated row bytes")?;
                rows.push(SkeletonRow::Verbatim { bytes, term });
            }
            k if k == ROW_HEADER => {
                let table = varint(&mut pos, "truncated header table")? as usize;
                let len = varint(&mut pos, "truncated header length")? as usize;
                let bytes = take(&mut pos, len, "truncated header bytes")?;
                rows.push(SkeletonRow::Header { table, bytes, term });
            }
            k if k == ROW_BODY => {
                let table = varint(&mut pos, "truncated body table")? as usize;
                let n_fields = varint(&mut pos, "truncated body field count")? as usize;
                rows.push(SkeletonRow::Body {
                    table,
                    n_fields,
                    term,
                });
            }
            other => return Err(bad(&format!("unknown directive kind {other}"))),
        }
    }
    Ok(rows)
}

/// Decode a column payload into per-row raw field bytes (`None` =
/// the row has no such field).
fn decode_column(payload: &[u8]) -> Result<Vec<Option<&[u8]>>, StrudelError> {
    let mut values = Vec::new();
    let mut pos = 0;
    while pos < payload.len() {
        let at = pos;
        let tag = read_varint(payload, &mut pos)
            .ok_or_else(|| corrupt(at as u64, "column: truncated length"))?;
        if tag == 0 {
            values.push(None);
            continue;
        }
        let len = (tag - 1) as usize;
        if len > payload.len() - pos {
            return Err(corrupt(at as u64, "column: truncated value"));
        }
        values.push(Some(&payload[pos..pos + len]));
        pos += len;
    }
    Ok(values)
}
