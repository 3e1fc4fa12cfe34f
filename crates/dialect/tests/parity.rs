//! Differential parity harness: the zero-copy block scanner against the
//! retained legacy char-walker.
//!
//! The legacy walker in `strudel_dialect::legacy` is the reference
//! formulation of the forgiving RFC 4180 semantics; the block scanner
//! must be indistinguishable from it. Three layers of evidence:
//!
//! 1. An **exhaustive** sweep of every input up to length 5 over a
//!    structural alphabet (delimiter, quote, escape, `\r`, `\n`, plain
//!    bytes) × every dialect shape — this catches state-machine holes
//!    that random generation hits only rarely.
//! 2. **Property tests** over arbitrary printable inputs (embedded
//!    newlines, bare `\r`, unterminated quotes at EOF, doubled quotes)
//!    and arbitrary dialects, including multi-byte structural characters
//!    that force the scalar fallback.
//! 3. **Limit parity**: under tight `Limits` both paths must fail with
//!    the same typed error — same [`LimitKind`], same `actual`, same
//!    `max` — or both succeed with identical rows.
//!
//! The fuzz crate adds a fourth layer (seeded mutations of realistic
//! corpora, run in CI via `scripts/fuzz.sh`).

use proptest::prelude::*;
use strudel_dialect::legacy::{parse_legacy, try_parse_legacy};
use strudel_dialect::{parse, scan_records, try_parse, Dialect, Limits, StrudelError};

/// Assert both parsers agree on `text` under `dialect`, and that the
/// borrowed records materialise to the same rows as the owned adapter.
fn assert_parity(text: &str, dialect: &Dialect) {
    let legacy = parse_legacy(text, dialect);
    let fast = parse(text, dialect);
    assert_eq!(
        fast, legacy,
        "scanner diverges from legacy on {text:?} under {dialect:?}"
    );
    let records = scan_records(text, dialect);
    assert_eq!(
        records.to_owned_rows(),
        legacy,
        "RecordsRef materialisation diverges on {text:?} under {dialect:?}"
    );
    assert_eq!(records.n_records(), legacy.len());
    assert_eq!(
        records.n_fields(),
        legacy.iter().map(Vec::len).sum::<usize>()
    );
}

/// Assert both guarded parsers agree on `text` under `dialect` and
/// `limits`: identical rows on success, identical limit kind/actual/max
/// on failure.
fn assert_limit_parity(text: &str, dialect: &Dialect, limits: &Limits) {
    let legacy = try_parse_legacy(text, dialect, limits);
    let fast = try_parse(text, dialect, limits);
    match (legacy, fast) {
        (Ok(a), Ok(b)) => assert_eq!(b, a, "rows diverge on {text:?} under {dialect:?}"),
        (
            Err(StrudelError::LimitExceeded {
                limit: la,
                actual: aa,
                max: ma,
                ..
            }),
            Err(StrudelError::LimitExceeded {
                limit: lb,
                actual: ab,
                max: mb,
                ..
            }),
        ) => {
            assert_eq!(lb, la, "limit kind diverges on {text:?} under {dialect:?}");
            assert_eq!(
                (ab, mb),
                (aa, ma),
                "limit values diverge on {text:?} under {dialect:?} ({la:?})"
            );
        }
        (a, b) => {
            panic!("outcome diverges on {text:?} under {dialect:?}: legacy {a:?}, fast {b:?}")
        }
    }
}

/// Every dialect shape over a comma delimiter, plus structural-character
/// collisions (quote == delimiter etc.) that the public `Dialect` type
/// can express.
fn dialect_shapes() -> Vec<Dialect> {
    vec![
        Dialect::rfc4180(),
        Dialect {
            delimiter: ',',
            quote: None,
            escape: None,
        },
        Dialect {
            delimiter: ',',
            quote: Some('"'),
            escape: Some('\\'),
        },
        Dialect {
            delimiter: ',',
            quote: None,
            escape: Some('\\'),
        },
        // Degenerate collisions: the parser's per-state dispatch order
        // decides what wins; both paths must agree.
        Dialect {
            delimiter: ',',
            quote: Some(','),
            escape: None,
        },
        Dialect {
            delimiter: ',',
            quote: Some('"'),
            escape: Some('"'),
        },
        Dialect {
            delimiter: ',',
            quote: Some('"'),
            escape: Some(','),
        },
    ]
}

/// Exhaustive sweep: every string up to `max_len` over a small
/// structural alphabet, every dialect shape. ~7^5 × 7 ≈ 120k parses —
/// fast enough for the default test tier, and the single most effective
/// net for block-scanner state bugs.
#[test]
fn exhaustive_small_inputs_match_legacy() {
    let alphabet = [',', '"', '\\', '\n', '\r', 'a', ';'];
    let dialects = dialect_shapes();
    let max_len = 5usize;
    let mut buf = String::with_capacity(max_len);
    for len in 0..=max_len {
        let mut idx = vec![0usize; len];
        'strings: loop {
            buf.clear();
            buf.extend(idx.iter().map(|&i| alphabet[i]));
            for d in &dialects {
                assert_parity(&buf, d);
            }
            let mut i = 0;
            loop {
                if i == len {
                    break 'strings;
                }
                idx[i] += 1;
                if idx[i] < alphabet.len() {
                    break;
                }
                idx[i] = 0;
                i += 1;
            }
        }
    }
}

/// Exhaustive limit sweep over length-4 inputs: every single-bound limit
/// tight enough to trip mid-parse. Covers the interplay of line bounds
/// with `\r\n` accounting, escape skips, and quoted-field accounting.
#[test]
fn exhaustive_small_inputs_match_legacy_under_limits() {
    let alphabet = [',', '"', '\\', '\n', '\r', 'a'];
    let dialects = dialect_shapes();
    let mut limit_sets = Vec::new();
    for v in [1u64, 2] {
        for kind in 0..5 {
            let mut l = Limits::unbounded();
            match kind {
                0 => l.max_line_bytes = Some(v),
                1 => l.max_quoted_field_bytes = Some(v),
                2 => l.max_rows = Some(v),
                3 => l.max_cols = Some(v),
                _ => l.max_cells = Some(v),
            }
            limit_sets.push(l);
        }
    }
    let max_len = 4usize;
    let mut buf = String::with_capacity(max_len);
    for len in 0..=max_len {
        let mut idx = vec![0usize; len];
        'strings: loop {
            buf.clear();
            buf.extend(idx.iter().map(|&i| alphabet[i]));
            for d in &dialects {
                for l in &limit_sets {
                    assert_limit_parity(&buf, d, l);
                }
            }
            let mut i = 0;
            loop {
                if i == len {
                    break 'strings;
                }
                idx[i] += 1;
                if idx[i] < alphabet.len() {
                    break;
                }
                idx[i] = 0;
                i += 1;
            }
        }
    }
}

/// Targeted regressions for the legacy walker's known quirks — each of
/// these is a behaviour the scanner must *replicate*, not fix.
#[test]
fn legacy_quirks_are_replicated() {
    let esc = Dialect {
        delimiter: ',',
        quote: Some('"'),
        escape: Some('\\'),
    };
    // A lone escape consumes nothing and flushes nothing: zero records.
    assert_parity("\\", &esc);
    // Escape at EOF after content.
    assert_parity("ab\\", &esc);
    assert_parity("\"ab\\", &esc);
    // Escaped newline is field content, and the escaped character
    // bypasses line accounting.
    assert_parity("a\\\nb,c\n", &esc);
    // Stray content after a closing quote, including a stray escape
    // char (pushed literally — the QuoteInQuoted arm knows no escapes).
    assert_parity("\"ab\"\\cd,e\n", &esc);
    assert_parity("\"ab\"cd,e\n", &Dialect::rfc4180());
    // Doubled quotes at every position.
    assert_parity("\"\"\"\"", &Dialect::rfc4180());
    assert_parity("\"a\"\"b\"\"\",x\n", &Dialect::rfc4180());
    // \r\n straddling record ends; bare \r; \r as final byte.
    assert_parity("a\r\nb\rc\r", &Dialect::rfc4180());
    // Quoted field spanning physical lines with CRLF inside.
    assert_parity("\"a\r\nb\",c\r\n", &Dialect::rfc4180());
    // BOM-adjacent multi-byte content (the scanner must not split
    // multi-byte sequences when computing limit crossings).
    assert_parity("é,€\n🙂🙂,b\n", &Dialect::rfc4180());
    // An unterminated quote swallowing the rest of a multi-block file:
    // every later line break is quoted content.
    let mut open = String::from("a,b\nc,d\n\"open");
    for i in 0..200 {
        open.push_str(&format!("\nline{i},x"));
    }
    assert_parity(&open, &Dialect::rfc4180());
}

/// Arbitrary printable inputs with structural characters over-weighted,
/// so quotes/escapes/line breaks appear in most cases.
fn arb_input() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[-a-z0-9,;\"\\\\\t\n\r ']{0,64}").expect("valid regex")
}

fn arb_dialect(idx: usize) -> Dialect {
    // Includes multi-byte structural characters (§, «) that force the
    // scalar fallback, so both scanner paths face the property tests.
    match idx % 8 {
        0 => Dialect::rfc4180(),
        1 => Dialect::with_delimiter(';'),
        2 => Dialect::with_delimiter('\t'),
        3 => Dialect {
            delimiter: ',',
            quote: Some('"'),
            escape: Some('\\'),
        },
        4 => Dialect {
            delimiter: ',',
            quote: None,
            escape: Some('\\'),
        },
        5 => Dialect {
            delimiter: ',',
            quote: Some('\''),
            escape: None,
        },
        6 => Dialect {
            delimiter: '\u{00A7}',
            quote: Some('"'),
            escape: None,
        },
        _ => Dialect {
            delimiter: ',',
            quote: Some('\u{00AB}'),
            escape: Some('\\'),
        },
    }
}

proptest! {
    /// Unbounded parity on arbitrary inputs × dialects.
    #[test]
    fn scanner_matches_legacy(text in arb_input(), d_idx in 0usize..8) {
        assert_parity(&text, &arb_dialect(d_idx));
    }

    /// Limit parity on arbitrary inputs × dialects × tight bounds.
    #[test]
    fn scanner_matches_legacy_under_limits(
        text in arb_input(),
        d_idx in 0usize..8,
        line in 1u64..12,
        quoted in 1u64..12,
        rows in 1u64..6,
        cols in 1u64..6,
        cells in 1u64..12,
    ) {
        let d = arb_dialect(d_idx);
        for limits in [
            {
                let mut l = Limits::unbounded();
                l.max_line_bytes = Some(line);
                l
            },
            {
                let mut l = Limits::unbounded();
                l.max_quoted_field_bytes = Some(quoted);
                l
            },
            {
                let mut l = Limits::unbounded();
                l.max_rows = Some(rows);
                l.max_cols = Some(cols);
                l.max_cells = Some(cells);
                l
            },
        ] {
            assert_limit_parity(&text, &d, &limits);
        }
    }

    /// Inputs engineered around block seams: a prefix of plain bytes of
    /// arbitrary length positions a structural cluster anywhere relative
    /// to the 64-byte block grid.
    #[test]
    fn seam_positions_match_legacy(
        pad in 0usize..130,
        cluster in "[,\"\n\r\\\\]{1,6}",
        d_idx in 0usize..8,
    ) {
        let text = format!("{}{}tail", "x".repeat(pad), cluster);
        assert_parity(&text, &arb_dialect(d_idx));
    }
}
