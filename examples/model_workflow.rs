//! The production workflow: train once, persist, reload, classify, and
//! segment multi-table files.
//!
//! ```sh
//! cargo run --release --example model_workflow
//! ```

use strudel_repro::datagen::{deex, GeneratorConfig};
use strudel_repro::ml::ForestConfig;
use strudel_repro::strudel::{Strudel, StrudelCellConfig, StrudelLineConfig};

fn main() {
    // 1. Train on a heterogeneous business corpus and persist the model.
    let corpus = deex(&GeneratorConfig {
        n_files: 30,
        seed: 21,
        scale: 0.25,
    });
    let config = StrudelCellConfig {
        line: StrudelLineConfig {
            forest: ForestConfig::fast(40, 0),
            ..StrudelLineConfig::default()
        },
        forest: ForestConfig::fast(40, 1),
        ..StrudelCellConfig::default()
    };
    let model = Strudel::fit(&corpus.files, &config);
    let path = std::env::temp_dir().join("strudel-workflow-example.model");
    model.save(&path).expect("save model");
    println!(
        "model saved to {} ({} KiB)",
        path.display(),
        std::fs::metadata(&path)
            .map(|m| m.len() / 1024)
            .unwrap_or(0)
    );

    // 2. Reload (as a deployment would) and classify a stacked
    //    multi-table file.
    let model = Strudel::load(&path).expect("load model");
    std::fs::remove_file(&path).ok();
    let text = "\
Quarterly widget output,,,
,Q1,Q2,Q3
Widgets,120,135,140
Gaskets,80,70,75
Total,200,205,215
,,,
Table 2. Regional staffing,,,
,North,South,West
Engineers,12,9,14
Clerks,4,6,5
,,,
Note: preliminary figures,,,
";
    let structure = model.detect_structure(text);
    println!("\nline classes:");
    for (r, class) in structure.lines.iter().enumerate() {
        println!("  {r:>2}  {}", class.map_or("(empty)", |c| c.name()));
    }

    // 3. Multi-table segmentation.
    let regions = structure.tables();
    println!("\ndetected {} table regions:", regions.len());
    for (i, region) in regions.iter().enumerate() {
        let caption = region
            .metadata_rows
            .first()
            .map(|&r| structure.table.cell(r, 0).raw().to_string())
            .unwrap_or_else(|| "(no caption)".to_string());
        println!(
            "  region {i}: caption {caption:?}, {} header rows, {} body rows, {} note rows",
            region.header_rows.len(),
            region.body_rows.len(),
            region.notes_rows.len()
        );
    }
}
