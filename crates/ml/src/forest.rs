//! Random forests: bootstrap-aggregated CART trees.
//!
//! The backbone classifier of both `Strudel^L` and `Strudel^C`
//! (Sections 4–5). Defaults mirror scikit-learn's
//! `RandomForestClassifier` defaults the paper relies on: 100 trees,
//! unlimited depth, `√d` feature subsampling, bootstrap sampling, and
//! probability prediction by averaging per-tree leaf distributions.
//! Trees train in parallel across OS threads (`std::thread::scope`),
//! then each is flattened into the forest's contiguous node arrays,
//! which prediction walks a block of rows at a time.

use crate::dataset::Dataset;
use crate::traits::Classifier;
use crate::tree::{DecisionTree, MaxFeatures, RawNode, TreeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters of a random forest.
#[derive(Debug, Clone, Copy)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree configuration. The default uses `√d` feature subsampling.
    pub tree: TreeConfig,
    /// Whether each tree trains on a bootstrap resample (true) or on the
    /// full training set (false).
    pub bootstrap: bool,
    /// Master RNG seed; tree `t` derives its own stream from it.
    pub seed: u64,
    /// Number of worker threads; `0` picks the available parallelism.
    pub n_threads: usize,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig {
                max_features: MaxFeatures::Sqrt,
                ..TreeConfig::default()
            },
            bootstrap: true,
            seed: 0,
            n_threads: 0,
        }
    }
}

impl ForestConfig {
    /// A smaller forest for unit tests and quick experiments.
    pub fn fast(n_trees: usize, seed: u64) -> ForestConfig {
        ForestConfig {
            n_trees,
            seed,
            ..ForestConfig::default()
        }
    }
}

/// A fitted random forest, stored flat.
///
/// Every node of every tree lives in three parallel arrays, tree after
/// tree, each tree in pre-order: a split's left child is always the
/// next node, so only its right child is stored. Leaf class
/// distributions share one slab of `n_classes` values per leaf. The
/// trees the splitters train ([`DecisionTree`]) are flattened into this
/// form at fit, and model files are parsed straight into it at load.
pub struct RandomForest {
    /// Split feature per node; [`LEAF`] marks a leaf.
    feature: Vec<u32>,
    /// Split threshold per node: go left when `x[feature] <= threshold`.
    /// Unused (zero) at leaves.
    threshold: Vec<f64>,
    /// Right child of a split, or the leaf number of a leaf (its values
    /// start at `leaf * n_classes` in `leaf_values`).
    right: Vec<u32>,
    /// Class distributions of all leaves, in node order.
    leaf_values: Vec<f64>,
    /// Root node of each tree; tree `t` spans `roots[t]..roots[t + 1]`.
    roots: Vec<u32>,
    n_classes: usize,
    /// Mean-decrease-in-impurity importances, computed from the trained
    /// trees before they are flattened; `None` for loaded forests.
    importances: Option<Vec<f64>>,
}

/// One node of a flat forest in storage form (see
/// [`RandomForest::node`]).
pub(crate) enum FlatNode<'a> {
    /// A split; `right` is a forest-wide node index and the left child
    /// is the next node.
    Split {
        feature: usize,
        threshold: f64,
        right: usize,
    },
    /// A leaf's class distribution.
    Leaf(&'a [f64]),
}

/// The `feature` value that marks a leaf node.
const LEAF: u32 = u32::MAX;

/// Rows per block of the batched walk. Each thread walks one block of
/// rows through every tree in turn, so a tree's nodes stay in cache
/// while the block passes through it; the accumulator holds one block.
const BLOCK_ROWS: usize = 256;

/// A fitted forest together with its out-of-bag (OOB) accuracy estimate:
/// each sample is scored only by the trees whose bootstrap resample did
/// not contain it — an unbiased generalisation estimate without a
/// held-out set (Breiman 2001, cited as \[3\] in the paper).
pub struct OobFit {
    /// The fitted forest.
    pub forest: RandomForest,
    /// OOB accuracy over the training samples that were out of bag for
    /// at least one tree.
    pub oob_accuracy: f64,
    /// Number of samples that were never out of bag (excluded from the
    /// estimate; shrinks quickly as trees are added).
    pub never_oob: usize,
}

impl RandomForest {
    /// Fit a forest on `data`.
    ///
    /// # Panics
    /// Panics when `data` is empty or `config.n_trees == 0`.
    pub fn fit(data: &Dataset, config: &ForestConfig) -> RandomForest {
        RandomForest::from_trees(train_trees(data, config, false), data.n_classes())
            .expect("trained trees flatten")
    }

    /// Fit with the retained pre-columnar splitter
    /// ([`DecisionTree::fit_reference`]). Bit-identical to
    /// [`fit`](Self::fit) for any configuration — kept as a correctness
    /// oracle for the equivalence tests and as the baseline the training
    /// bench measures the columnar splitter against.
    pub fn fit_reference(data: &Dataset, config: &ForestConfig) -> RandomForest {
        RandomForest::from_trees(train_trees(data, config, true), data.n_classes())
            .expect("trained trees flatten")
    }

    /// Fit with out-of-bag scoring. Requires `bootstrap = true`
    /// (without resampling there is no out-of-bag sample).
    ///
    /// # Panics
    /// Panics when `config.bootstrap` is false or on an empty dataset.
    pub fn fit_with_oob(data: &Dataset, config: &ForestConfig) -> OobFit {
        assert!(
            config.bootstrap,
            "OOB scoring requires bootstrap resampling"
        );
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        let n = data.n_samples();
        // Reproduce each tree's bootstrap draw (same seed derivation as
        // fit) to build the in-bag masks, then fit normally.
        let forest = RandomForest::fit(data, config);
        let mut votes = vec![vec![0.0f64; forest.n_classes]; n];
        let mut voted = vec![false; n];
        for (t, &root) in forest.roots.iter().enumerate() {
            let mut rng = tree_rng(config.seed, t);
            let mut in_bag = vec![false; n];
            for _ in 0..n {
                in_bag[rng.gen_range(0..n)] = true;
            }
            for i in 0..n {
                if !in_bag[i] {
                    forest.add_tree(root, data.row(i), &mut votes[i]);
                    voted[i] = true;
                }
            }
        }
        let mut correct = 0usize;
        let mut scored = 0usize;
        for i in 0..n {
            if voted[i] {
                scored += 1;
                if crate::traits::argmax(&votes[i]) == data.target(i) {
                    correct += 1;
                }
            }
        }
        OobFit {
            forest,
            oob_accuracy: if scored == 0 {
                0.0
            } else {
                correct as f64 / scored as f64
            },
            never_oob: n - scored,
        }
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Class count in storage form.
    pub fn n_classes_raw(&self) -> usize {
        self.n_classes
    }

    /// Highest feature index referenced by any split node across all
    /// trees, or `None` for a forest of pure leaves. Deserialized models
    /// are validated against the feature arity of their pipeline stage
    /// with this; an out-of-range index would panic at predict time.
    pub fn max_feature_index(&self) -> Option<usize> {
        self.feature
            .iter()
            .filter(|&&f| f != LEAF)
            .max()
            .map(|&f| f as usize)
    }

    /// Per-feature mean decrease in impurity averaged over trees,
    /// normalised to sum 1 — scikit-learn's `feature_importances_`.
    /// `None` for a forest loaded from a model file (training
    /// statistics are not persisted). The paper prefers *permutation*
    /// importance over this measure because impurity importance favours
    /// high-cardinality features (Section 6.3.5); exposing both lets the
    /// `figure4` experiment demonstrate that bias.
    pub fn impurity_importances(&self) -> Option<Vec<f64>> {
        self.importances.clone()
    }

    /// Probability vectors for a batch of samples, computed across
    /// `n_threads` worker threads (`0` picks the available parallelism).
    ///
    /// Each thread takes a contiguous share of the rows and walks it in
    /// blocks of rows, tree by tree. Every row still adds its leaf
    /// values in tree order and divides by the tree count last, so the
    /// output is bit-identical to [`predict_proba_into`]
    /// (Self::predict_proba_into) for every thread count. Small batches
    /// stay on the calling thread: below [`PARALLEL_PREDICT_THRESHOLD`]
    /// samples the thread spawn overhead outweighs the tree walks.
    pub fn predict_proba_batch(&self, rows: &[&[f64]], n_threads: usize) -> Vec<Vec<f64>> {
        let threads = if n_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            n_threads
        }
        .min(rows.len().max(1));
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
        if threads <= 1 || rows.len() < PARALLEL_PREDICT_THRESHOLD {
            self.predict_rows(rows, &mut out);
            return out;
        }
        let chunk = rows.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (row_chunk, out_chunk) in rows.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move || self.predict_rows(row_chunk, out_chunk));
            }
        });
        out
    }

    /// Write the ensemble-averaged probability vector for one sample
    /// into `out` (length `n_classes`) without allocating.
    pub fn predict_proba_into(&self, features: &[f64], out: &mut [f64]) {
        self.accumulate_block(&[features], out);
        let n = self.n_trees() as f64;
        for a in out.iter_mut() {
            *a /= n;
        }
    }

    /// Rebuild a forest from trees, validating that they are non-empty,
    /// agree on the class count and are stored in pre-order.
    pub fn from_raw_parts(
        trees: Vec<DecisionTree>,
        n_classes: usize,
    ) -> Result<RandomForest, &'static str> {
        if trees.iter().any(|t| t.raw_parts().1 != n_classes) {
            return Err("tree class-count mismatch");
        }
        RandomForest::from_trees(trees, n_classes)
    }

    /// Flatten `trees` in order, dropping each once it is copied. The
    /// importances are averaged over the trees first, with the
    /// arithmetic of [`DecisionTree::impurity_importances`].
    fn from_trees(
        trees: Vec<DecisionTree>,
        n_classes: usize,
    ) -> Result<RandomForest, &'static str> {
        let importances = mean_importances(&trees);
        let mut builder = ForestBuilder::new(n_classes)?;
        for tree in trees {
            let (nodes, _) = tree.raw_parts();
            builder.begin_tree(nodes.len())?;
            for node in nodes {
                match node {
                    RawNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => builder.split(*feature, *threshold, *left, *right)?,
                    RawNode::Leaf { proba } => builder.leaf(proba)?,
                }
            }
        }
        let mut forest = builder.finish()?;
        forest.importances = importances;
        Ok(forest)
    }

    /// The node range `root..end` of tree `t`.
    pub(crate) fn tree_span(&self, t: usize) -> (usize, usize) {
        let root = self.roots[t] as usize;
        let end = self
            .roots
            .get(t + 1)
            .map_or(self.feature.len(), |&r| r as usize);
        (root, end)
    }

    /// Node `node` in storage form, with forest-wide node indices.
    pub(crate) fn node(&self, node: usize) -> FlatNode<'_> {
        if self.feature[node] == LEAF {
            let at = self.right[node] as usize * self.n_classes;
            FlatNode::Leaf(&self.leaf_values[at..at + self.n_classes])
        } else {
            FlatNode::Split {
                feature: self.feature[node] as usize,
                threshold: self.threshold[node],
                right: self.right[node] as usize,
            }
        }
    }

    /// Offset in `leaf_values` of the leaf that `x` reaches from `root`.
    /// Every split's children lie after it (checked when the arrays are
    /// built), so the walk ends within the tree's node count.
    #[inline]
    fn leaf_offset(&self, root: u32, x: &[f64]) -> usize {
        let mut node = root as usize;
        loop {
            let feature = self.feature[node];
            if feature == LEAF {
                return self.right[node] as usize * self.n_classes;
            }
            node = if x[feature as usize] <= self.threshold[node] {
                node + 1
            } else {
                self.right[node] as usize
            };
        }
    }

    /// Add the values of the leaf `x` reaches in the tree at `root` into
    /// `sums` (`n_classes` slots).
    #[inline]
    fn add_tree(&self, root: u32, x: &[f64], sums: &mut [f64]) {
        let leaf = self.leaf_offset(root, x);
        for (a, v) in sums.iter_mut().zip(&self.leaf_values[leaf..]) {
            *a += v;
        }
    }

    /// The one forest walk: zero `acc` (`rows.len() * n_classes` sums),
    /// then pass every row through each tree in turn, so each row adds
    /// its leaf values in tree order.
    fn accumulate_block(&self, rows: &[&[f64]], acc: &mut [f64]) {
        acc.fill(0.0);
        for &root in &self.roots {
            for (row, sums) in rows.iter().zip(acc.chunks_exact_mut(self.n_classes)) {
                self.add_tree(root, row, sums);
            }
        }
    }

    /// Predict `rows` into `out` block by block with a one-block
    /// accumulator.
    fn predict_rows(&self, rows: &[&[f64]], out: &mut [Vec<f64>]) {
        let nc = self.n_classes;
        let n = self.n_trees() as f64;
        let mut acc = vec![0.0; rows.len().min(BLOCK_ROWS) * nc];
        for (block, out_block) in rows.chunks(BLOCK_ROWS).zip(out.chunks_mut(BLOCK_ROWS)) {
            let acc = &mut acc[..block.len() * nc];
            self.accumulate_block(block, acc);
            for (sums, slot) in acc.chunks_exact(nc).zip(out_block) {
                *slot = sums.iter().map(|a| a / n).collect();
            }
        }
    }
}

/// Builds a forest's arrays one pre-order node at a time. Fitting and
/// loading both go through it, so both get the same checks: children
/// after their parent (the walk cannot loop), leaves of the forest's
/// arity, and node, leaf and feature indices that fit their `u32`
/// fields.
pub(crate) struct ForestBuilder {
    forest: RandomForest,
    /// Node count the current tree declared.
    tree_len: usize,
}

impl ForestBuilder {
    pub(crate) fn new(n_classes: usize) -> Result<ForestBuilder, &'static str> {
        if n_classes == 0 {
            return Err("a forest needs at least one class");
        }
        Ok(ForestBuilder {
            forest: RandomForest {
                feature: Vec::new(),
                threshold: Vec::new(),
                right: Vec::new(),
                leaf_values: Vec::new(),
                roots: Vec::new(),
                n_classes,
                importances: None,
            },
            tree_len: 0,
        })
    }

    /// Nodes pushed so far for the current tree.
    fn tree_pushed(&self) -> usize {
        self.forest.feature.len() - self.forest.roots.last().map_or(0, |&r| r as usize)
    }

    /// Start a tree of `n_nodes` nodes.
    pub(crate) fn begin_tree(&mut self, n_nodes: usize) -> Result<(), &'static str> {
        if !self.forest.roots.is_empty() && self.tree_pushed() != self.tree_len {
            return Err("tree node count mismatch");
        }
        if n_nodes == 0 {
            return Err("a tree needs at least one node");
        }
        let root = u32::try_from(self.forest.feature.len())
            .map_err(|_| "forest has too many nodes for u32 indices")?;
        self.forest.roots.push(root);
        self.tree_len = n_nodes;
        Ok(())
    }

    /// Push a split; `left` and `right` index the current tree's nodes.
    pub(crate) fn split(
        &mut self,
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    ) -> Result<(), &'static str> {
        let at = self.tree_pushed();
        crate::tree::check_children(at, left, right, self.tree_len)?;
        let feature = u32::try_from(feature)
            .ok()
            .filter(|&f| f != LEAF)
            .ok_or("feature index too large for u32")?;
        let root = self.forest.feature.len() - at;
        let right =
            u32::try_from(root + right).map_err(|_| "forest has too many nodes for u32 indices")?;
        self.push(feature, threshold, right)
    }

    /// Push a leaf with class distribution `values`.
    pub(crate) fn leaf(&mut self, values: &[f64]) -> Result<(), &'static str> {
        if values.len() != self.forest.n_classes {
            return Err("leaf arity mismatch");
        }
        let leaf = u32::try_from(self.forest.leaf_values.len() / self.forest.n_classes)
            .map_err(|_| "forest has too many leaves for u32 indices")?;
        self.push(LEAF, 0.0, leaf)?;
        self.forest.leaf_values.extend_from_slice(values);
        Ok(())
    }

    fn push(&mut self, feature: u32, threshold: f64, right: u32) -> Result<(), &'static str> {
        if self.forest.roots.is_empty() || self.tree_pushed() >= self.tree_len {
            return Err("tree node count mismatch");
        }
        self.forest.feature.push(feature);
        self.forest.threshold.push(threshold);
        self.forest.right.push(right);
        Ok(())
    }

    /// The finished forest: at least one tree, the last one complete.
    pub(crate) fn finish(self) -> Result<RandomForest, &'static str> {
        if self.forest.roots.is_empty() {
            return Err("a forest needs at least one tree");
        }
        if self.tree_pushed() != self.tree_len {
            return Err("tree node count mismatch");
        }
        let mut forest = self.forest;
        forest.feature.shrink_to_fit();
        forest.threshold.shrink_to_fit();
        forest.right.shrink_to_fit();
        forest.leaf_values.shrink_to_fit();
        forest.roots.shrink_to_fit();
        Ok(forest)
    }
}

/// The RNG of tree `t`: derived from (seed, tree id), so training is
/// independent of the thread count.
fn tree_rng(seed: u64, t: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Train the trees of a forest, in tree order, across worker threads.
pub(crate) fn train_trees(
    data: &Dataset,
    config: &ForestConfig,
    reference: bool,
) -> Vec<DecisionTree> {
    assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
    assert!(config.n_trees > 0, "n_trees must be positive");

    let threads = if config.n_threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        config.n_threads
    }
    .min(config.n_trees);

    let mut trees: Vec<Option<DecisionTree>> = Vec::new();
    trees.resize_with(config.n_trees, || None);

    // Deal tree ids round-robin to worker threads.
    std::thread::scope(|scope| {
        let chunks = split_round_robin(config.n_trees, threads);
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|ids| {
                scope.spawn(move || {
                    ids.into_iter()
                        .map(|t| {
                            let mut rng = tree_rng(config.seed, t);
                            let indices: Vec<u32> = if config.bootstrap {
                                let n = data.n_samples();
                                (0..n).map(|_| rng.gen_range(0..n) as u32).collect()
                            } else {
                                (0..data.n_samples() as u32).collect()
                            };
                            let tree = if reference {
                                DecisionTree::fit_on_indices_reference(
                                    data,
                                    &indices,
                                    &config.tree,
                                    &mut rng,
                                )
                            } else {
                                DecisionTree::fit_on_indices(data, &indices, &config.tree, &mut rng)
                            };
                            (t, tree)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (t, tree) in handle.join().expect("tree training panicked") {
                trees[t] = Some(tree);
            }
        }
    });

    trees
        .into_iter()
        .map(|t| t.expect("all trees trained"))
        .collect()
}

/// The mean of the trees' normalised impurity importances, normalised
/// again to sum 1; `None` when any tree carries none.
fn mean_importances(trees: &[DecisionTree]) -> Option<Vec<f64>> {
    let per_tree: Vec<Vec<f64>> = trees
        .iter()
        .map(DecisionTree::impurity_importances)
        .collect::<Option<_>>()?;
    let d = per_tree.first().map_or(0, Vec::len);
    let mut mean = vec![0.0; d];
    for imps in &per_tree {
        for (m, v) in mean.iter_mut().zip(imps) {
            *m += v;
        }
    }
    let total: f64 = mean.iter().sum();
    if total > 0.0 {
        for m in &mut mean {
            *m /= total;
        }
    }
    Some(mean)
}

/// Minimum batch size before [`RandomForest::predict_proba_batch`]
/// spawns worker threads; smaller batches run serially.
pub const PARALLEL_PREDICT_THRESHOLD: usize = 64;

/// Assign `n` items to `k` buckets round-robin.
fn split_round_robin(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); k.max(1)];
    for i in 0..n {
        out[i % k.max(1)].push(i);
    }
    out.retain(|v| !v.is_empty());
    out
}

impl Classifier for RandomForest {
    fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_classes];
        self.predict_proba_into(features, &mut acc);
        acc
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(seed: u64, n_per_class: usize) -> Dataset {
        // Two well-separated Gaussian-ish blobs.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for class in 0..2 {
            let center = class as f64 * 4.0;
            for _ in 0..n_per_class {
                rows.push(vec![
                    center + rng.gen_range(-1.0..1.0),
                    center + rng.gen_range(-1.0..1.0),
                ]);
                y.push(class);
            }
        }
        Dataset::from_rows(&rows, &y, 2)
    }

    #[test]
    fn separable_blobs_are_learned() {
        let ds = blobs(1, 50);
        let forest = RandomForest::fit(&ds, &ForestConfig::fast(10, 0));
        assert!(forest.accuracy(&ds) > 0.99);
    }

    #[test]
    fn proba_sums_to_one() {
        let ds = blobs(2, 30);
        let forest = RandomForest::fit(&ds, &ForestConfig::fast(5, 0));
        let p = forest.predict_proba(&[2.0, 2.0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let ds = blobs(3, 40);
        let mut config = ForestConfig::fast(8, 42);
        config.n_threads = 1;
        let a = RandomForest::fit(&ds, &config);
        config.n_threads = 4;
        let b = RandomForest::fit(&ds, &config);
        for i in 0..ds.n_samples() {
            assert_eq!(a.predict_proba(ds.row(i)), b.predict_proba(ds.row(i)));
        }
    }

    #[test]
    fn batch_prediction_matches_serial_and_is_thread_invariant() {
        let ds = blobs(11, 60);
        let forest = RandomForest::fit(&ds, &ForestConfig::fast(10, 7));
        let rows: Vec<&[f64]> = (0..ds.n_samples()).map(|i| ds.row(i)).collect();
        assert!(rows.len() >= PARALLEL_PREDICT_THRESHOLD);
        let serial: Vec<Vec<f64>> = rows.iter().map(|r| forest.predict_proba(r)).collect();
        let one = forest.predict_proba_batch(&rows, 1);
        let four = forest.predict_proba_batch(&rows, 4);
        let auto = forest.predict_proba_batch(&rows, 0);
        assert_eq!(serial, one);
        assert_eq!(one, four);
        assert_eq!(one, auto);

        // Row counts on both sides of the thread threshold and of the
        // block size, against the per-tree reference: the sum of the
        // trees' leaf values in tree order, divided by the tree count.
        let config = ForestConfig::fast(9, 8);
        let forest = RandomForest::fit(&ds, &config);
        let trees = train_trees(&ds, &config, false);
        let pool: Vec<Vec<f64>> = (0..2 * BLOCK_ROWS + 1)
            .map(|i| {
                let x = (i as f64 * 0.618_034).fract() * 6.0 - 1.0;
                let y = (i as f64 * 0.414_214).fract() * 6.0 - 1.0;
                vec![x, y]
            })
            .collect();
        let reference: Vec<Vec<f64>> = pool
            .iter()
            .map(|row| {
                let mut sums = vec![0.0; 2];
                for tree in &trees {
                    tree.accumulate_proba(row, &mut sums);
                }
                sums.iter().map(|s| s / trees.len() as f64).collect()
            })
            .collect();
        for n in [
            0,
            1,
            63,
            64,
            65,
            BLOCK_ROWS - 1,
            BLOCK_ROWS,
            BLOCK_ROWS + 1,
            2 * BLOCK_ROWS + 1,
        ] {
            let rows: Vec<&[f64]> = pool[..n].iter().map(Vec::as_slice).collect();
            for threads in [1, 2, 4] {
                assert_eq!(
                    forest.predict_proba_batch(&rows, threads),
                    reference[..n],
                    "{n} rows on {threads} threads"
                );
            }
        }
    }

    #[test]
    fn batch_prediction_of_empty_and_tiny_inputs() {
        let ds = blobs(12, 20);
        let forest = RandomForest::fit(&ds, &ForestConfig::fast(5, 3));
        assert!(forest.predict_proba_batch(&[], 4).is_empty());
        let row = ds.row(0);
        let out = forest.predict_proba_batch(&[row], 4);
        assert_eq!(out, vec![forest.predict_proba(row)]);
    }

    #[test]
    fn no_bootstrap_trains_on_full_data() {
        let ds = blobs(4, 25);
        let config = ForestConfig {
            bootstrap: false,
            ..ForestConfig::fast(3, 0)
        };
        let forest = RandomForest::fit(&ds, &config);
        assert!(forest.accuracy(&ds) > 0.99);
    }

    #[test]
    fn n_trees_reported() {
        let ds = blobs(5, 10);
        let forest = RandomForest::fit(&ds, &ForestConfig::fast(7, 0));
        assert_eq!(forest.n_trees(), 7);
    }

    #[test]
    fn oob_accuracy_tracks_generalisation() {
        let train = blobs(7, 60);
        let test = blobs(8, 60);
        let fit = RandomForest::fit_with_oob(&train, &ForestConfig::fast(30, 2));
        let test_acc = fit.forest.accuracy(&test);
        // OOB is an estimate of held-out accuracy: within a few points.
        assert!(
            (fit.oob_accuracy - test_acc).abs() < 0.08,
            "oob {} vs test {}",
            fit.oob_accuracy,
            test_acc
        );
        assert!(fit.never_oob < train.n_samples() / 10);
    }

    #[test]
    fn oob_forest_matches_plain_fit() {
        let ds = blobs(9, 30);
        let config = ForestConfig::fast(6, 4);
        let plain = RandomForest::fit(&ds, &config);
        let oob = RandomForest::fit_with_oob(&ds, &config);
        for i in 0..ds.n_samples() {
            assert_eq!(
                plain.predict_proba(ds.row(i)),
                oob.forest.predict_proba(ds.row(i))
            );
        }
    }

    #[test]
    #[should_panic(expected = "OOB scoring requires bootstrap")]
    fn oob_without_bootstrap_panics() {
        let ds = blobs(10, 10);
        let config = ForestConfig {
            bootstrap: false,
            ..ForestConfig::fast(3, 0)
        };
        let _ = RandomForest::fit_with_oob(&ds, &config);
    }

    #[test]
    fn columnar_fit_matches_reference_splitter() {
        let ds = blobs(13, 40);
        for bootstrap in [true, false] {
            let config = ForestConfig {
                bootstrap,
                ..ForestConfig::fast(8, 21)
            };
            let fast = RandomForest::fit(&ds, &config);
            let slow = RandomForest::fit_reference(&ds, &config);
            assert_eq!(model_bytes(&fast), model_bytes(&slow));
        }
    }

    fn model_bytes(forest: &RandomForest) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = crate::serialize::ModelWriter::new(&mut buf).unwrap();
        forest.write_to(&mut w).unwrap();
        buf
    }

    #[test]
    fn fit_flattens_the_trained_trees() {
        let ds = blobs(15, 30);
        let config = ForestConfig::fast(6, 9);
        let forest = RandomForest::fit(&ds, &config);
        let trees = train_trees(&ds, &config, false);
        let rebuilt = RandomForest::from_raw_parts(trees, 2).unwrap();
        assert_eq!(model_bytes(&forest), model_bytes(&rebuilt));
        assert_eq!(
            forest.impurity_importances(),
            rebuilt.impurity_importances()
        );
        assert!(forest.impurity_importances().is_some());
    }

    #[test]
    fn predict_proba_into_matches_allocating_path() {
        let ds = blobs(14, 30);
        let forest = RandomForest::fit(&ds, &ForestConfig::fast(9, 5));
        let mut buf = vec![9.0; 2];
        for i in 0..ds.n_samples() {
            forest.predict_proba_into(ds.row(i), &mut buf);
            assert_eq!(buf, forest.predict_proba(ds.row(i)));
        }
    }

    #[test]
    #[should_panic(expected = "n_trees must be positive")]
    fn zero_trees_panics() {
        let ds = blobs(6, 5);
        let config = ForestConfig {
            n_trees: 0,
            ..ForestConfig::default()
        };
        let _ = RandomForest::fit(&ds, &config);
    }
}
