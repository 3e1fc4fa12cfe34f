//! Pinned prediction fingerprint.
//!
//! A small seeded model classifies a seeded set of `strudel-datagen`
//! files through two production paths, and a `ContentHash` over every
//! line class, every cell class and the f64 bits of every line and cell
//! probability must equal a committed constant. Any change to parsing,
//! features or inference that moves a single probability bit fails
//! here. A change that alters predictions on purpose must explain the
//! difference and re-run the EXPERIMENTS.md numbers before it updates
//! the constants.

use strudel_repro::datagen::{cius, deex, govuk, mendeley, saus, troy, GeneratorConfig};
use strudel_repro::ml::ForestConfig;
use strudel_repro::strudel::batch::{detect_all, BatchConfig, BatchInput};
use strudel_repro::strudel::{
    ContentHash, ContentHasher, Limits, Structure, Strudel, StrudelCellConfig, StrudelLineConfig,
};
use strudel_repro::table::Corpus;

/// The fingerprint of every prediction over the classified set.
const PREDICTIONS: &str = "040379f66f8593a0ba6c3b543babbbb00000000000058fba";

/// The fingerprint of the serialized model file.
const MODEL_FILE: &str = "25ad2d50daf0db1d78372f0e3e70cfad00000000000141ca";

type Generator = fn(&GeneratorConfig) -> Corpus;

const GENERATORS: [Generator; 6] = [saus, cius, deex, govuk, mendeley, troy];

/// `n` files of each generator, rendered as comma-separated bytes.
fn files(seed: u64, n: usize) -> Vec<(String, Vec<u8>)> {
    GENERATORS
        .iter()
        .enumerate()
        .flat_map(|(g, generate)| {
            generate(&GeneratorConfig {
                n_files: n,
                seed: seed + g as u64,
                // Mendeley's files are data-dominated and ten times
                // longer than the others' at equal scale.
                scale: if g == 4 { 0.03 } else { 0.3 },
            })
            .files
            .into_iter()
            .enumerate()
            .map(move |(i, f)| (format!("g{g}_{i}"), f.table.to_delimited(',').into_bytes()))
        })
        .collect()
}

fn model() -> Strudel {
    let train: Vec<_> = GENERATORS
        .iter()
        .enumerate()
        .flat_map(|(g, generate)| {
            generate(&GeneratorConfig {
                n_files: 3,
                seed: 500 + g as u64,
                scale: if g == 4 { 0.03 } else { 0.3 },
            })
            .files
        })
        .collect();
    Strudel::fit(
        &train,
        &StrudelCellConfig {
            line: StrudelLineConfig {
                forest: ForestConfig::fast(12, 11),
                ..StrudelLineConfig::default()
            },
            forest: ForestConfig::fast(12, 12),
            ..StrudelCellConfig::default()
        },
    )
}

/// Fold one structure's classes and probability bits into `h`.
fn hash_structure(h: &mut ContentHasher, s: &Structure) {
    for (class, probs) in s.lines.iter().zip(&s.line_probs) {
        h.update(&[class.map_or(0xFF, |c| c.index() as u8)]);
        for p in probs {
            h.update(&p.to_bits().to_le_bytes());
        }
    }
    for cell in &s.cells {
        h.update(&(cell.row as u64).to_le_bytes());
        h.update(&(cell.col as u64).to_le_bytes());
        h.update(&[cell.class.index() as u8]);
        for p in &cell.probs {
            h.update(&p.to_bits().to_le_bytes());
        }
    }
}

#[test]
fn predictions_match_pinned_fingerprint() {
    let fitted = model();
    let mut model_bytes = Vec::new();
    fitted.write_to(&mut model_bytes).unwrap();
    let loaded = Strudel::read_from(model_bytes.as_slice()).unwrap();
    let mut inputs = files(900, 2);
    // One stacked document of every file, blank-line separated: several
    // hundred lines and thousands of cells, so both forests see more
    // than one block of rows and a row split across threads.
    let stacked = inputs.iter().fold(Vec::new(), |mut doc, (_, bytes)| {
        doc.extend_from_slice(bytes);
        doc.push(b'\n');
        doc
    });
    inputs.push(("stacked".to_string(), stacked));

    // Whole-file entry point on the fitted model, with the forest's row
    // split across the available threads.
    let mut whole = ContentHasher::new();
    for (id, bytes) in &inputs {
        let s = fitted
            .try_detect_structure_bytes(bytes, &Limits::unbounded())
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        hash_structure(&mut whole, &s);
    }

    // Batch runner on the loaded model, two workers, one inference
    // thread each.
    let batch_inputs: Vec<BatchInput> = inputs
        .iter()
        .map(|(id, bytes)| BatchInput::text(id.clone(), String::from_utf8(bytes.clone()).unwrap()))
        .collect();
    let result = detect_all(
        &loaded,
        &batch_inputs,
        &BatchConfig {
            n_threads: 2,
            limits: Limits::unbounded(),
        },
    );
    let mut batch = ContentHasher::new();
    for s in &result.structures {
        hash_structure(&mut batch, s.as_ref().unwrap());
    }

    assert_eq!(ContentHash::of(&model_bytes).to_hex(), MODEL_FILE);
    assert_eq!(whole.finish().to_hex(), PREDICTIONS);
    assert_eq!(batch.finish().to_hex(), PREDICTIONS);
}
