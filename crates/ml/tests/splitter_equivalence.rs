//! Property tests pinning the columnar pre-sorted splitter to the
//! retained reference splitter: for any dataset, configuration, and
//! seed, both must produce **bit-identical** trees (same node layout,
//! same thresholds, same leaf distributions) and identical
//! `predict_proba` outputs. This is what lets the fast path replace the
//! naive one without moving a single paper-reproduction number.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use strudel_ml::{
    Classifier, Dataset, DecisionTree, ForestConfig, MaxFeatures, ModelWriter, RandomForest,
    TreeConfig,
};

/// A random dataset drawing values from a small pool, so runs of
/// duplicate feature values — the delicate case for threshold search —
/// are common rather than exceptional.
fn random_dataset(seed: u64, n: usize, n_features: usize, n_classes: usize, pool: u32) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..n_features)
                .map(|_| rng.gen_range(0..pool) as f64 * 0.5)
                .collect()
        })
        .collect();
    let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n_classes)).collect();
    Dataset::from_rows(&rows, &y, n_classes)
}

/// The forest's serialized bytes: every tree's nodes, thresholds and
/// leaf distributions, in tree order.
fn model_bytes(forest: &RandomForest) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = ModelWriter::new(&mut buf).unwrap();
    forest.write_to(&mut w).unwrap();
    buf
}

/// A random tree configuration covering depth limits, split/leaf
/// minimums, and all three `MaxFeatures` modes (Fixed engages the
/// per-node feature shuffle, exercising RNG-consumption equivalence).
fn random_config(seed: u64) -> TreeConfig {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEC1_5104);
    TreeConfig {
        max_depth: match rng.gen_range(0..3) {
            0 => None,
            _ => Some(rng.gen_range(1..7)),
        },
        min_samples_split: rng.gen_range(2..6),
        min_samples_leaf: rng.gen_range(1..4),
        max_features: match rng.gen_range(0..3) {
            0 => MaxFeatures::All,
            1 => MaxFeatures::Sqrt,
            _ => MaxFeatures::Fixed(rng.gen_range(1..4)),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_columnar_equals_reference(
        seed in 0u64..10_000,
        // Crosses the small-node gather/sort cutoff (32): both the
        // local-sort path and the pre-sorted segment-walk path run.
        n in 5usize..140,
        n_features in 1usize..6,
        n_classes in 2usize..5,
        pool in 2u32..7,
    ) {
        let ds = random_dataset(seed, n, n_features, n_classes, pool);
        let config = random_config(seed);
        let fast = DecisionTree::fit(&ds, &config, seed);
        let slow = DecisionTree::fit_reference(&ds, &config, seed);
        prop_assert_eq!(fast.raw_parts().0, slow.raw_parts().0);
        prop_assert_eq!(fast.impurity_importances(), slow.impurity_importances());
        for i in 0..ds.n_samples() {
            prop_assert_eq!(fast.predict_proba(ds.row(i)), slow.predict_proba(ds.row(i)));
        }
    }

    #[test]
    fn forest_columnar_equals_reference(
        seed in 0u64..10_000,
        n in 10usize..80,
        n_features in 1usize..5,
        bootstrap_bit in 0u32..2,
    ) {
        let ds = random_dataset(seed, n, n_features, 3, 4);
        let config = ForestConfig {
            n_trees: 5,
            tree: random_config(seed),
            bootstrap: bootstrap_bit == 1,
            seed,
            n_threads: 1,
        };
        let fast = RandomForest::fit(&ds, &config);
        let slow = RandomForest::fit_reference(&ds, &config);
        prop_assert_eq!(model_bytes(&fast), model_bytes(&slow));
        for i in 0..ds.n_samples() {
            prop_assert_eq!(fast.predict_proba(ds.row(i)), slow.predict_proba(ds.row(i)));
        }
    }
}

/// A larger continuous-valued dataset (no duplicate pool): nearly all
/// values distinct, so the pre-sorted segment walk and the exact
/// pruning gate run over long strictly-increasing runs, and the trees
/// grow well past the small-node cutoff on every root path.
#[test]
fn large_continuous_dataset_equivalence() {
    let mut rng = SmallRng::seed_from_u64(99);
    let n = 500;
    let n_classes = 4;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..6)
                .map(|_| rng.gen_range(0..1_000_000) as f64 * 1e-5)
                .collect()
        })
        .collect();
    let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n_classes)).collect();
    let ds = Dataset::from_rows(&rows, &y, n_classes);

    for max_features in [MaxFeatures::All, MaxFeatures::Sqrt] {
        let tree_config = TreeConfig {
            max_features,
            ..TreeConfig::default()
        };
        let fast = DecisionTree::fit(&ds, &tree_config, 3);
        let slow = DecisionTree::fit_reference(&ds, &tree_config, 3);
        assert_eq!(fast.raw_parts().0, slow.raw_parts().0);

        let config = ForestConfig {
            n_trees: 3,
            tree: tree_config,
            bootstrap: true,
            seed: 11,
            n_threads: 1,
        };
        let fast = RandomForest::fit(&ds, &config);
        let slow = RandomForest::fit_reference(&ds, &config);
        assert_eq!(model_bytes(&fast), model_bytes(&slow));
        for i in 0..ds.n_samples() {
            assert_eq!(fast.predict_proba(ds.row(i)), slow.predict_proba(ds.row(i)));
        }
    }
}
