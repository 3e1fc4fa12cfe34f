//! Container-level tests: lossless roundtrips, selective extraction,
//! the O(1) block-read contract, and corrupt-container handling.

use std::sync::OnceLock;
use strudel::{
    ContentHash, Stage, StageTimings, StreamConfig, Strudel, StrudelCellConfig, StrudelLineConfig,
};
use strudel_ml::ForestConfig;
use strudel_pack::{
    pack_bytes, pack_bytes_metered, unpack_bytes, unpack_bytes_metered, PackReader,
};

fn model() -> &'static Strudel {
    static MODEL: OnceLock<Strudel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let corpus = strudel_datagen::saus(&strudel_datagen::GeneratorConfig {
            n_files: 12,
            seed: 1,
            scale: 0.3,
        });
        let config = StrudelCellConfig {
            line: StrudelLineConfig {
                forest: ForestConfig::fast(15, 1),
                ..Default::default()
            },
            forest: ForestConfig::fast(15, 2),
            ..Default::default()
        };
        Strudel::fit(&corpus.files, &config)
    })
}

const VERBOSE: &str = "\
Report 2020,,\n\
State,2019,2020\n\
Berlin,100,120\n\
Hamburg,80,85\n\
Sum,180,205\n\
,,\n\
Notes: preliminary figures,,\n";

/// Pack → unpack is byte-identical across quoting quirks, ragged rows,
/// mixed terminators, BOMs, and missing trailing newlines.
#[test]
fn roundtrip_is_byte_identical() {
    let inputs: &[&str] = &[
        VERBOSE,
        "a,b\n1,2\n",
        "a,b\r\n1,2\r\n",
        "a,b\r\n1,2",                                  // no trailing newline
        "\u{FEFF}State,2019\nBerlin,1\n",              // BOM
        "x\n\"quoted,comma\",2\n\"doubled\"\"q\",3\n", // quoting
        "head,er\n1\n2,3,4,5\n",                       // ragged rows
        "only one line",
        "\n\n\n",
        "a;b\n1;2\n",       // non-default delimiter
        "päö,ü\n\"ß\",2\n", // multi-byte UTF-8
        "mix,endings\r1,2\n3,4\r\n5,6",
    ];
    for input in inputs {
        let packed = pack_bytes(model(), input.as_bytes(), StreamConfig::default())
            .unwrap_or_else(|e| panic!("pack {input:?}: {e}"));
        let out = unpack_bytes(&packed.bytes).unwrap_or_else(|e| panic!("unpack {input:?}: {e}"));
        assert_eq!(out, input.as_bytes(), "roundtrip of {input:?}");
    }
}

/// A multi-window stream (tiny window config) seals several block
/// groups and still reassembles exactly.
#[test]
fn multi_window_stream_roundtrips() {
    let mut input = String::from("Region,2019,2020\n");
    for i in 0..200 {
        input.push_str(&format!("r{i},{},{}\n", i, i * 2));
    }
    let config = StreamConfig {
        window_rows: 40,
        window_bytes: 1 << 12,
        prefix_bytes: 64,
        ..StreamConfig::default()
    };
    let packed = pack_bytes(model(), input.as_bytes(), config).unwrap();
    assert!(
        packed.n_groups > 1,
        "expected several groups, got {}",
        packed.n_groups
    );
    assert_eq!(unpack_bytes(&packed.bytes).unwrap(), input.as_bytes());
}

/// Chunking the pushed stream differently never changes the container.
#[test]
fn container_is_chunking_invariant() {
    use strudel_pack::PackWriter;
    let input = VERBOSE.as_bytes();
    let mut containers = Vec::new();
    for chunk in [1usize, 3, 7, input.len()] {
        let mut writer = PackWriter::new(model(), StreamConfig::default());
        for piece in input.chunks(chunk) {
            writer.push(piece).unwrap();
        }
        containers.push(writer.finish().unwrap().bytes);
    }
    for pair in containers.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
}

/// Extracting one column decodes exactly one block — the random-access
/// acceptance criterion — even in a container holding several tables.
#[test]
fn column_extraction_reads_exactly_one_block() {
    let input = "\
Sales report,,\n\
State,2019,2020\n\
Berlin,100,120\n\
Hamburg,80,85\n\
,,\n\
Population update,,\n\
City,Count,Area\n\
Munich,1400,310\n\
Cologne,1000,405\n";
    let packed = pack_bytes(model(), input.as_bytes(), StreamConfig::default()).unwrap();
    let mut reader = PackReader::open(&packed.bytes).unwrap();
    assert!(
        reader.tables().len() >= 2,
        "expected a multi-table container, got {} table(s)",
        reader.tables().len()
    );
    let (t, c) = (reader.tables().len() - 1, 1);
    assert_eq!(reader.blocks_read(), 0);
    let values = reader.extract_column(t, c).unwrap();
    assert_eq!(
        reader.blocks_read(),
        1,
        "column extraction must decode exactly one block"
    );
    assert!(!values.is_empty());

    // Selective extraction ≡ full unpack then slice: the column's
    // values equal the raw fields of the reassembled table's body rows.
    let mut full = PackReader::open(&packed.bytes).unwrap();
    assert_eq!(full.unpack().unwrap(), input.as_bytes());
    assert_eq!(full.blocks_read() as usize, full.n_blocks());
}

/// `extract_table` touches only the table's group skeleton and its own
/// column blocks.
#[test]
fn table_extraction_is_selective() {
    let input = "\
Title,,\n\
State,2019,2020\n\
Berlin,100,120\n\
Hamburg,80,85\n";
    let packed = pack_bytes(model(), input.as_bytes(), StreamConfig::default()).unwrap();
    let mut reader = PackReader::open(&packed.bytes).unwrap();
    let n_cols = reader.tables()[0].columns.len();
    let text = reader.extract_table(0).unwrap();
    assert_eq!(reader.blocks_read() as usize, 1 + n_cols);
    // The extracted table must contain the body rows verbatim.
    assert!(text.contains("Berlin,100,120"), "got {text:?}");
    assert!(!text.contains("Title"), "metadata must stay out: {text:?}");
}

/// Column names come from the header row; find_column resolves them.
#[test]
fn header_names_index_the_columns() {
    let packed = pack_bytes(model(), VERBOSE.as_bytes(), StreamConfig::default()).unwrap();
    let mut reader = PackReader::open(&packed.bytes).unwrap();
    let names: Vec<Vec<String>> = reader.tables().iter().map(|t| t.columns.clone()).collect();
    let Some((t, c)) = reader.find_column("2019", None) else {
        panic!("no '2019' column among {names:?}");
    };
    let values = reader.extract_column(t, c).unwrap();
    let flat: Vec<String> = values.into_iter().flatten().collect();
    assert!(
        flat.iter().any(|v| v == "100"),
        "expected Berlin's 100 in {flat:?} (tables: {names:?})"
    );
    assert_eq!(reader.find_column("no-such-column", None), None);
}

/// Truncating the container at every prefix yields a typed error or —
/// never — a wrong success.
#[test]
fn every_truncation_fails_typed() {
    let packed = pack_bytes(model(), VERBOSE.as_bytes(), StreamConfig::default()).unwrap();
    let original = unpack_bytes(&packed.bytes).unwrap();
    for cut in 0..packed.bytes.len() {
        match PackReader::open(&packed.bytes[..cut]).and_then(|mut r| r.unpack()) {
            Ok(out) => assert_eq!(out, original, "truncation at {cut} returned wrong bytes"),
            Err(e) => assert!(
                matches!(e.category(), "parse" | "table"),
                "truncation at {cut}: unexpected category {}",
                e.category()
            ),
        }
    }
}

/// Flipping any single byte of a block payload is caught by its
/// checksum.
#[test]
fn payload_corruption_is_detected() {
    let packed = pack_bytes(model(), VERBOSE.as_bytes(), StreamConfig::default()).unwrap();
    // Corrupt a byte inside the first block (right after the magic).
    let mut bad = packed.bytes.clone();
    bad[9] ^= 0xff;
    let err = PackReader::open(&bad)
        .and_then(|mut r| r.unpack())
        .unwrap_err();
    assert_eq!(err.category(), "parse");
    assert!(err.to_string().contains("checksum"), "got: {err}");
}

/// Pack and unpack record their stages on the shared timing registry.
#[test]
fn stages_are_metered() {
    let mut timings = StageTimings::default();
    let packed = pack_bytes_metered(
        model(),
        VERBOSE.as_bytes(),
        StreamConfig::default(),
        &mut timings,
    )
    .unwrap();
    assert_eq!(timings.count(Stage::Pack), 1);
    assert_eq!(
        timings.count(Stage::Dialect),
        1,
        "packing classifies (and detects the dialect) exactly once"
    );
    assert_eq!(timings.count(Stage::Unpack), 0);
    unpack_bytes_metered(&packed.bytes, &mut timings).unwrap();
    assert_eq!(timings.count(Stage::Unpack), 1);
}

/// Ratio accounting: the container of a mostly-tabular file stays close
/// to the input size (it stores the same bytes plus directory overhead).
#[test]
fn ratio_is_reported() {
    let packed = pack_bytes(model(), VERBOSE.as_bytes(), StreamConfig::default()).unwrap();
    let ratio = packed.ratio();
    assert!(ratio > 0.5 && ratio < 20.0, "implausible ratio {ratio}");
    assert_eq!(packed.original.len, VERBOSE.len() as u64);
}

/// Opening garbage of any kind is a typed error, not a panic.
#[test]
fn garbage_containers_fail_typed() {
    for bytes in [
        &b""[..],
        b"STRUPAK1",
        b"not a container at all, but quite long enough to hold a tail",
        &[0u8; 64][..],
    ] {
        let err = PackReader::open(bytes)
            .err()
            .expect("garbage must not open");
        assert_eq!(err.category(), "parse");
    }
}

/// Hand-built directories sealed under a valid checksum (it is unkeyed,
/// so a crafted file can always carry one): every directory field that
/// sizes an allocation or indexes a table is checked before use.
#[test]
fn crafted_directories_fail_typed() {
    let empty = ContentHash::of(b"");
    let le = |values: &[u64]| -> Vec<u8> { values.iter().flat_map(|v| v.to_le_bytes()).collect() };
    // Version 1, `,` delimiter, `"` quote, no escape, no BOM, the
    // original's fingerprint, then the counts and entries.
    let directory = |original_len: u64, rest: &[u8]| {
        let fingerprint = le(&[empty.h1, empty.h2, original_len]);
        [&[1, b',', 1, b'"', 0, 0], &fingerprint[..], rest].concat()
    };
    // One empty skeleton block: kind, group, table, column, offset, length.
    let skeleton = [&[0, 0, 0, 0, 8, 0][..], &le(&[empty.h1, empty.h2])].concat();
    for dir in [
        // 2^62 groups (LEB128: eight continuation bytes, then 0x40), no
        // tables, no blocks.
        directory(0, &[&[0x80; 8][..], &[0x40, 0, 0]].concat()),
        // An original length of 2^63.
        directory(1 << 63, &[0, 0, 0]),
        // One group with its skeleton block, but table 0 claims group 5.
        directory(0, &[&[1, 1, 5, 0, 0, 1][..], &skeleton].concat()),
    ] {
        let mut bytes = [&b"STRUPAK1"[..], &dir].concat();
        let hash = ContentHash::of(&dir);
        bytes.extend(le(&[8, dir.len() as u64, hash.h1, hash.h2]));
        bytes.extend_from_slice(b"STRUEND1");
        let err = PackReader::open(&bytes)
            .and_then(|mut reader| {
                reader.unpack()?;
                reader.extract_table(0)
            })
            .expect_err("crafted directory must fail");
        assert_eq!(err.category(), "parse", "{err}");
    }
}
