//! §6.1.2 sensitivity check: the derived-cell detector's aggregation
//! delta `d` and coverage `c`. The paper reports "we do not observe a
//! substantial difference in the result with different values" and
//! settles on d = 0.1, c = 0.5. This binary sweeps both knobs on the
//! line task (where the detector feeds the `DerivedCoverage` feature) —
//! plus the min/max extension the conclusion proposes as future work —
//! and reports macro-F1 and derived-class F1.

use strudel::{DerivedConfig, LineFeatureConfig, StrudelLineConfig};
use strudel_bench::ExperimentArgs;
use strudel_eval::{run_cross_validation, Prediction};
use strudel_ml::ForestConfig;
use strudel_table::{ElementClass, LabeledFile};

fn main() {
    let args = ExperimentArgs::parse();
    let corpus = strudel_datagen::by_name("SAUS", &args.corpus_config("SAUS"));
    let cv = args.cv_config();
    println!(
        "Derived-detector parameter sweep (line task, SAUS): --files {} --scale {} --folds {} --repeats {} --trees {}\n",
        corpus.files.len(),
        args.scale,
        args.folds,
        args.repeats,
        args.trees
    );
    println!(
        "{:<10}{:<10}{:<10}{:>10}{:>12}",
        "delta", "coverage", "min/max", "macro-F1", "derived-F1"
    );

    let sweeps: [(f64, f64, bool); 7] = [
        (0.1, 0.5, false), // the paper's setting
        (0.01, 0.5, false),
        (1.0, 0.5, false),
        (0.1, 0.3, false),
        (0.1, 0.7, false),
        (0.1, 0.9, false),
        (0.1, 0.5, true), // future-work extension
    ];
    for (delta, coverage, min_max) in sweeps {
        let derived = DerivedConfig {
            delta,
            coverage,
            detect_min_max: min_max,
        };
        let config = StrudelLineConfig {
            features: LineFeatureConfig {
                derived,
                ..LineFeatureConfig::default()
            },
            forest: ForestConfig {
                n_trees: args.trees,
                seed: args.seed,
                ..ForestConfig::default()
            },
        };
        let mut fold = 0u64;
        let outcome = run_cross_validation(corpus.files.len(), &cv, |train_idx, test_idx| {
            fold += 1;
            let train: Vec<LabeledFile> =
                train_idx.iter().map(|&i| corpus.files[i].clone()).collect();
            let model = strudel::StrudelLine::fit(&train, &config);
            let mut preds = Vec::new();
            for &fi in test_idx {
                let file = &corpus.files[fi];
                let pred = model.predict(&file.table);
                for (r, (g, p)) in file.line_labels.iter().zip(&pred).enumerate() {
                    if let (Some(g), Some(p)) = (g, p) {
                        preds.push(Prediction {
                            file: fi,
                            item: r,
                            gold: g.index(),
                            pred: p.index(),
                        });
                    }
                }
            }
            preds
        });
        let eval = outcome.mean_evaluation(ElementClass::COUNT);
        println!(
            "{:<10}{:<10}{:<10}{:>10.3}{:>12.3}",
            delta,
            coverage,
            if min_max { "on" } else { "off" },
            eval.macro_f1(&[]),
            eval.f1[ElementClass::Derived.index()]
        );
    }
    println!("\nPaper: no substantial difference across d and c (Section 6.1.2).");
}
