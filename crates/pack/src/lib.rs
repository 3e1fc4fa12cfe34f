//! # strudel-pack
//!
//! Structure-aware columnar packed container for verbose CSV files.
//!
//! A verbose CSV file interleaves metadata, headers, group rows, data,
//! derived totals, and notes. Once Strudel has detected that structure,
//! the file can be stored *by role* instead of by line: a **skeleton
//! stream** keeps every non-body row verbatim (plus the geometry of
//! every body row), and **per-column value streams** hold the body
//! cells of each detected table. Each stream is an independently
//! decodable, checksummed block addressed by a footer directory, so one
//! table or one column of a multi-table file is retrievable in O(1)
//! directory lookups — without touching any other block.
//!
//! Two invariants anchor the format:
//!
//! - **Losslessness.** [`PackReader::unpack`] reproduces the original
//!   input byte for byte — quoting quirks, ragged rows, mixed line
//!   endings, BOM and all — and verifies the result against the
//!   original's [`ContentHash`](strudel::ContentHash) before returning it. This rests on the
//!   raw-span tiling invariant of [`strudel_dialect::raw_records`].
//! - **Bounded memory.** [`PackWriter`] seals one block group per
//!   emitted [`StreamClassifier`](strudel::StreamClassifier) window, so packing a stream needs
//!   O(window) memory, never O(file).
//!
//! ```
//! use strudel_pack::{pack_bytes, PackReader};
//! # let corpus = strudel_datagen::saus(&strudel_datagen::GeneratorConfig {
//! #     n_files: 6, seed: 1, scale: 0.2 });
//! # let config = strudel::StrudelCellConfig {
//! #     line: strudel::StrudelLineConfig {
//! #         forest: strudel_ml::ForestConfig::fast(10, 0), ..Default::default() },
//! #     forest: strudel_ml::ForestConfig::fast(10, 0), ..Default::default() };
//! # let model = strudel::Strudel::fit(&corpus.files, &config);
//! let input = b"Report 2020,,\nState,2019,2020\nBerlin,100,120\nHamburg,80,85\n";
//! let packed = pack_bytes(&model, input, strudel::StreamConfig::default()).unwrap();
//! let mut reader = PackReader::open(&packed.bytes).unwrap();
//! assert_eq!(reader.unpack().unwrap(), input);
//! ```

#![warn(missing_docs)]

mod format;
mod reader;
mod varint;
mod writer;

pub use format::{BlockEntry, BlockKind, Directory, TableMeta, FORMAT_VERSION, MAGIC, TAIL_LEN};
pub use reader::PackReader;
pub use writer::{PackWriter, Packed};

use std::io::Read;
use strudel::{Stage, StageTimer, StageTimings, StreamConfig, Strudel, StrudelError};
use strudel_dialect::Dialect;

/// A corrupt-container failure: a typed parse error at a byte offset.
pub(crate) fn corrupt(byte: u64, reason: impl Into<String>) -> StrudelError {
    StrudelError::Parse {
        file: None,
        line: 0,
        byte,
        reason: reason.into(),
    }
}

/// The parsed *value* of one raw field: the field's exact input bytes
/// re-run through the scan layer under the same dialect. By
/// construction a raw field parses to exactly one record with one field
/// (delimiters and newlines occur only inside quotes or after escapes),
/// so this reuses the production unescaping — doubled quotes, escape
/// sequences, quote stripping — rather than re-implementing it. The one
/// exception is a lone trailing escape byte, which the value parsers
/// drop: its value is the empty string.
pub(crate) fn field_value(raw: &str, dialect: &Dialect) -> String {
    if raw.is_empty() {
        return String::new();
    }
    strudel_dialect::parse(raw, dialect)
        .into_iter()
        .next()
        .and_then(|record| record.into_iter().next())
        .unwrap_or_default()
}

/// Pack `bytes` into a container under `config`, without metering.
pub fn pack_bytes(
    model: &Strudel,
    bytes: &[u8],
    config: StreamConfig,
) -> Result<Packed, StrudelError> {
    let mut timings = StageTimings::default();
    pack_bytes_metered(model, bytes, config, &mut timings)
}

/// Pack `bytes` into a container, recording one [`Stage::Pack`]
/// observation (wall clock of the whole pack, embedded classification
/// included) plus the classification's own stage timings on `timings`.
pub fn pack_bytes_metered(
    model: &Strudel,
    bytes: &[u8],
    config: StreamConfig,
    timings: &mut StageTimings,
) -> Result<Packed, StrudelError> {
    pack_reader(model, &mut &bytes[..], config, timings)
}

/// Pack everything `reader` yields, read in
/// [`STREAM_CHUNK_BYTES`](strudel::STREAM_CHUNK_BYTES) chunks and
/// metered like [`pack_bytes_metered`]. The container is a function of
/// the byte stream alone, so a file and the same bytes in memory pack
/// identically.
pub fn pack_reader<R: Read>(
    model: &Strudel,
    reader: &mut R,
    config: StreamConfig,
    timings: &mut StageTimings,
) -> Result<Packed, StrudelError> {
    let timer = StageTimer::start(Stage::Pack);
    let result = (|| {
        let mut writer = PackWriter::new(model, config);
        let mut chunk = vec![0u8; strudel::STREAM_CHUNK_BYTES];
        loop {
            let n = reader
                .read(&mut chunk)
                .map_err(|e| StrudelError::io(&e, None))?;
            if n == 0 {
                break;
            }
            writer.push(&chunk[..n])?;
        }
        writer.finish()
    })();
    timer.stop(timings);
    if let Ok(packed) = &result {
        timings.merge(&packed.timings);
    }
    result
}

/// Fully unpack a container back to the original bytes, without
/// metering.
pub fn unpack_bytes(container: &[u8]) -> Result<Vec<u8>, StrudelError> {
    let mut timings = StageTimings::default();
    unpack_bytes_metered(container, &mut timings)
}

/// Fully unpack a container, recording one [`Stage::Unpack`]
/// observation on `timings`.
pub fn unpack_bytes_metered(
    container: &[u8],
    timings: &mut StageTimings,
) -> Result<Vec<u8>, StrudelError> {
    let timer = StageTimer::start(Stage::Unpack);
    let result = PackReader::open(container).and_then(|mut reader| reader.unpack());
    timer.stop(timings);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_value_undoes_quoting() {
        let rfc = Dialect::rfc4180();
        assert_eq!(field_value("plain", &rfc), "plain");
        assert_eq!(field_value("\"a,b\"", &rfc), "a,b");
        assert_eq!(
            field_value("\"he said \"\"hi\"\"\"", &rfc),
            "he said \"hi\""
        );
        assert_eq!(field_value("", &rfc), "");
        assert_eq!(field_value("\"line1\nline2\"", &rfc), "line1\nline2");
        let esc = Dialect {
            delimiter: ',',
            quote: Some('"'),
            escape: Some('\\'),
        };
        assert_eq!(field_value("a\\,b", &esc), "a,b");
        // The documented lone-escape exception.
        assert_eq!(field_value("\\", &esc), "");
    }

    #[test]
    fn corrupt_errors_are_parse_category() {
        assert_eq!(corrupt(7, "x").category(), "parse");
    }
}
