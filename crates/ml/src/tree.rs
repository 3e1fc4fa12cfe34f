//! CART decision trees with Gini impurity.
//!
//! This is the building block of the random forest backbone used by both
//! Strudel classifiers. Defaults mirror scikit-learn's
//! `DecisionTreeClassifier`: unlimited depth, `min_samples_split = 2`,
//! `min_samples_leaf = 1`, midpoint thresholds between adjacent distinct
//! feature values, best-of-`max_features` random feature subsampling.
//!
//! Training runs on a columnar, pre-sorted view of the (bootstrap)
//! sample multiset: feature values are transposed into contiguous
//! per-feature columns once per tree, and each feature's value-sorted
//! position order is **stably partitioned** down the tree instead of
//! being re-sorted at every node — O(F·n) per level rather than
//! O(F·n·log n) per node — with the split search itself allocation-free
//! (reusable class-count scratch buffers). The pre-optimisation splitter
//! is retained as [`DecisionTree::fit_reference`]; both produce
//! bit-identical trees for a given seed, which the test suite enforces.

use crate::dataset::Dataset;
use crate::traits::Classifier;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How many features each split considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxFeatures {
    /// All features (plain CART; scikit-learn's tree default).
    All,
    /// `⌈√d⌉` features (scikit-learn's random-forest default).
    Sqrt,
    /// A fixed number (clamped to `d`).
    Fixed(usize),
}

impl MaxFeatures {
    fn resolve(self, n_features: usize) -> usize {
        match self {
            MaxFeatures::All => n_features,
            MaxFeatures::Sqrt => (n_features as f64).sqrt().ceil() as usize,
            MaxFeatures::Fixed(k) => k.min(n_features),
        }
        .max(1)
    }
}

/// Hyper-parameters of a decision tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth; `None` grows until purity.
    pub max_depth: Option<usize>,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must keep.
    pub min_samples_leaf: usize,
    /// Feature subsampling per split.
    pub max_features: MaxFeatures,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
        }
    }
}

/// A tree node in storage form: what a forest flattens into its arrays
/// and what [`DecisionTree::from_raw_parts`] rebuilds a tree from.
#[derive(Debug, Clone, PartialEq)]
pub enum RawNode {
    /// An internal split: go left when `features[feature] <= threshold`.
    Split {
        /// Feature index tested at this node.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Index of the left child.
        left: usize,
        /// Index of the right child.
        right: usize,
    },
    /// A leaf carrying the class distribution of its training samples.
    Leaf {
        /// Class probability vector.
        proba: Vec<f64>,
    },
}

use RawNode as Node;

/// A fitted CART decision tree.
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
    /// Per-feature accumulated weighted Gini decrease (mean decrease in
    /// impurity), recorded during training; empty for deserialized trees.
    impurity_decrease: Vec<f64>,
    /// Sample count at the root (importance weighting denominator).
    root_samples: usize,
}

impl DecisionTree {
    /// Storage view: `(nodes, n_classes)`, nodes in pre-order.
    pub fn raw_parts(&self) -> (&[RawNode], usize) {
        (&self.nodes, self.n_classes)
    }

    /// Per-feature mean decrease in impurity, normalised to sum 1 (the
    /// scikit-learn `feature_importances_` convention). `None` for trees
    /// rebuilt from serialized form, which do not carry training-time
    /// statistics.
    pub fn impurity_importances(&self) -> Option<Vec<f64>> {
        if self.impurity_decrease.is_empty() {
            return None;
        }
        let total: f64 = self.impurity_decrease.iter().sum();
        if total <= 0.0 {
            return Some(vec![0.0; self.impurity_decrease.len()]);
        }
        Some(self.impurity_decrease.iter().map(|v| v / total).collect())
    }

    /// Rebuild a tree from storage form, validating that it is in
    /// pre-order (see [`check_children`]) and the leaf arity.
    pub fn from_raw_parts(
        nodes: Vec<RawNode>,
        n_classes: usize,
    ) -> Result<DecisionTree, &'static str> {
        if nodes.is_empty() {
            return Err("a tree needs at least one node");
        }
        // (importances are training-time statistics; rebuilt trees have none)
        for (at, node) in nodes.iter().enumerate() {
            match node {
                RawNode::Split { left, right, .. } => {
                    check_children(at, *left, *right, nodes.len())?;
                }
                RawNode::Leaf { proba } => {
                    if proba.len() != n_classes {
                        return Err("leaf arity mismatch");
                    }
                }
            }
        }
        Ok(DecisionTree {
            nodes,
            n_classes,
            impurity_decrease: Vec::new(),
            root_samples: 0,
        })
    }
}

/// Check that the split at node `at` of an `n_nodes`-node tree has its
/// children in pre-order: the left child is the next node and the right
/// child comes after it, inside the tree. Both splitters write trees
/// this way; requiring it on every load path means every walk moves
/// forward and ends within `n_nodes` steps, whatever a model file says.
pub(crate) fn check_children(
    at: usize,
    left: usize,
    right: usize,
    n_nodes: usize,
) -> Result<(), &'static str> {
    if left != at + 1 || right <= left || right >= n_nodes {
        return Err("tree nodes are not in pre-order");
    }
    Ok(())
}

/// Node size at and below which the splitter stops maintaining the
/// per-feature sorted segments and sorts the node's values locally
/// instead. Partitioning every feature's segment costs O(F) per sample
/// per split, which beats per-node re-sorting only while `log n_node`
/// is large; at the deep small-node tail a local sort of the few tried
/// features is cheaper. Split decisions are identical on both paths
/// (boundary statistics depend only on the value multiset), so the
/// cutoff is purely a performance knob.
const SMALL_NODE: usize = 32;

/// Per-tree columnar training state.
///
/// Positions (`u32`) index the tree's (bootstrap) sample multiset, not
/// the original dataset. Each feature owns three parallel value-sorted
/// arrays — position, value, class — so the split scan is a purely
/// sequential walk. Every node owns the contiguous range `[start, end)`
/// of *each* per-feature order, and a split stably partitions all of
/// them by the left/right mask in O(F·n_node) — no re-sorting below the
/// root while nodes stay above [`SMALL_NODE`].
struct Columnar {
    n: usize,
    n_features: usize,
    /// Feature-major values: `cols[f * n + p]` is feature `f` at position `p`.
    cols: Vec<f64>,
    /// Class label per position (datasets with more than `u16::MAX + 1`
    /// classes fall back to the reference builder).
    y: Vec<u16>,
    /// Ping-pong pair of per-feature sorted-segment sets: a node reads
    /// its ranges from one set and a split scatters them, partitioned,
    /// straight into the other (no copy-back pass). Which set is current
    /// alternates per tree level and is threaded through the recursion.
    segs: [Segments; 2],
    /// Node-ordered positions (drives class counts, the small-node
    /// gather, and the degenerate zero-feature dataset).
    samples: Vec<u32>,
    /// Per-position side of the split being applied (`true` = left).
    mask: Vec<bool>,
    /// Scratch for partitioning `samples`.
    scratch_pos: Vec<u32>,
    /// Small-node sorted-feature buffers (value and class in value order).
    scratch_val: Vec<f64>,
    scratch_cls: Vec<u16>,
    /// Small-node gather-and-sort scratch.
    pairs: Vec<(f64, u16)>,
    /// Split-search scratch: class counts left/right of the candidate
    /// boundary, reused across every threshold of every node.
    left_counts: Vec<u32>,
    right_counts: Vec<u32>,
    /// Candidate feature order, refilled (and shuffled when the config
    /// subsamples) at every node.
    feature_order: Vec<usize>,
}

/// One set of per-feature value-sorted parallel arrays, feature-major:
/// the position, value, and class of each element in value order.
struct Segments {
    pos: Vec<u32>,
    val: Vec<f64>,
    cls: Vec<u16>,
}

impl Segments {
    fn zeroed(len: usize) -> Segments {
        Segments {
            pos: vec![0u32; len],
            val: vec![0.0f64; len],
            cls: vec![0u16; len],
        }
    }
}

impl Columnar {
    fn new(data: &Dataset, indices: &[u32], n_classes: usize) -> Columnar {
        let n = indices.len();
        let n_features = data.n_features();
        let mut cols = vec![0.0f64; n_features * n];
        let mut y = vec![0u16; n];
        for (p, &i) in indices.iter().enumerate() {
            for (f, &v) in data.row(i as usize).iter().enumerate() {
                cols[f * n + p] = v;
            }
            y[p] = data.target(i as usize) as u16;
        }
        let mut segs = [
            Segments::zeroed(n_features * n),
            Segments::zeroed(n_features * n),
        ];
        // Sort packed (value, position) pairs — sequential comparisons,
        // no indirection — then scatter into the three parallel arrays.
        let mut order: Vec<(f64, u32)> = Vec::with_capacity(n);
        for f in 0..n_features {
            let vals = &cols[f * n..(f + 1) * n];
            order.clear();
            order.extend(vals.iter().zip(0..n as u32).map(|(&v, p)| (v, p)));
            order.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
            for (i, &(v, p)) in order.iter().enumerate() {
                segs[0].pos[f * n + i] = p;
                segs[0].val[f * n + i] = v;
                segs[0].cls[f * n + i] = y[p as usize];
            }
        }
        Columnar {
            n,
            n_features,
            cols,
            y,
            segs,
            samples: (0..n as u32).collect(),
            mask: vec![false; n],
            scratch_pos: vec![0u32; n],
            scratch_val: vec![0.0f64; n.min(SMALL_NODE + 1)],
            scratch_cls: vec![0u16; n.min(SMALL_NODE + 1)],
            pairs: Vec::with_capacity(n.min(SMALL_NODE + 1)),
            left_counts: vec![0u32; n_classes],
            right_counts: vec![0u32; n_classes],
            feature_order: Vec::with_capacity(n_features),
        }
    }

    /// Search the best (feature, threshold) by Gini gain over a random
    /// feature subset. Nodes above [`SMALL_NODE`] walk their pre-sorted
    /// per-feature segments; smaller nodes gather and sort the tried
    /// feature locally (allocation-free, from the columnar store).
    /// Returns `None` when no split separates the node.
    ///
    /// Search semantics — threshold midpoints, the `1e-12` strict
    /// improvement margin, trying features past `k` until one valid
    /// split is seen — and the floating-point evaluation order are
    /// exactly those of [`DecisionTree::best_split_reference`], so the
    /// chosen splits are bit-identical.
    fn best_split(
        &mut self,
        config: &TreeConfig,
        start: usize,
        end: usize,
        parent_counts: &[u32],
        cur: usize,
        rng: &mut SmallRng,
    ) -> Option<(usize, f64, f64)> {
        let k = config.max_features.resolve(self.n_features);
        self.feature_order.clear();
        self.feature_order.extend(0..self.n_features);
        if k < self.n_features {
            self.feature_order.shuffle(rng);
        }

        let m = end - start;
        let small = m <= SMALL_NODE;
        let n = m as f64;
        // Like scikit-learn, a zero-gain split is still taken (children are
        // strictly smaller, so recursion terminates); only the absence of
        // any partitioning split makes a leaf.
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, impurity)
        let Columnar {
            n: total,
            cols,
            y,
            segs,
            samples,
            scratch_val,
            scratch_cls,
            pairs,
            left_counts,
            right_counts,
            feature_order,
            ..
        } = self;
        let total = *total;
        let seg = &segs[cur];

        for (tried, &feature) in feature_order.iter().enumerate() {
            // Keep trying features past `k` until at least one valid split
            // was seen, mirroring scikit-learn's search semantics.
            if tried >= k && best.is_some() {
                break;
            }

            let (vals, cls): (&[f64], &[u16]) = if small {
                let col = &cols[feature * total..(feature + 1) * total];
                pairs.clear();
                pairs.extend(
                    samples[start..end]
                        .iter()
                        .map(|&p| (col[p as usize], y[p as usize])),
                );
                pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
                for (i, &(v, c)) in pairs.iter().enumerate() {
                    scratch_val[i] = v;
                    scratch_cls[i] = c;
                }
                (&scratch_val[..m], &scratch_cls[..m])
            } else {
                (
                    &seg.val[feature * total + start..feature * total + end],
                    &seg.cls[feature * total + start..feature * total + end],
                )
            };
            if vals[0] == vals[m - 1] {
                continue; // constant feature in this node
            }
            scan_sorted_feature(
                feature,
                vals,
                cls,
                parent_counts,
                left_counts,
                right_counts,
                config,
                n,
                &mut best,
            );
        }
        best
    }

    /// Apply a split to the node range `[start, end)`: stably partition
    /// the node's sample order and — above the [`SMALL_NODE`] cutoff —
    /// every per-feature sorted segment by the threshold side, scattered
    /// from the current segment set into the other one (ping-pong; the
    /// caller flips `cur` for the children). Below the cutoff only
    /// `samples` is maintained (all descendants take the local-sort path
    /// and never read the segments again). Returns the left-child size.
    fn partition_node(
        &mut self,
        feature: usize,
        threshold: f64,
        start: usize,
        end: usize,
        cur: usize,
    ) -> usize {
        let Columnar {
            n,
            n_features,
            cols,
            segs,
            samples,
            mask,
            scratch_pos,
            ..
        } = self;
        let n = *n;
        let m = end - start;
        let small = m <= SMALL_NODE;
        let mut mid = 0usize;
        if small {
            let vals = &cols[feature * n..(feature + 1) * n];
            for &p in &samples[start..end] {
                let left = vals[p as usize] <= threshold;
                mask[p as usize] = left;
                mid += usize::from(left);
            }
        } else {
            // The split feature's own segment gives sequential access to
            // (position, value) pairs.
            let src = &segs[cur];
            let off = feature * n;
            for i in off + start..off + end {
                let left = src.val[i] <= threshold;
                mask[src.pos[i] as usize] = left;
                mid += usize::from(left);
            }
        }
        stable_partition_by_mask(&mut samples[start..end], mask, scratch_pos);
        if !small {
            let (first, second) = segs.split_at_mut(1);
            let (src, dst) = if cur == 0 {
                (&first[0], &mut second[0])
            } else {
                (&second[0], &mut first[0])
            };
            for f in 0..*n_features {
                let o = f * n;
                // Fused stable partition of the three parallel arrays:
                // one read pass scatters into the left/right halves of the
                // destination set, preserving relative (value) order on
                // both sides.
                let (mut l, mut r) = (o + start, o + start + mid);
                for i in o + start..o + end {
                    let p = src.pos[i];
                    let w = if mask[p as usize] { &mut l } else { &mut r };
                    dst.pos[*w] = p;
                    dst.val[*w] = src.val[i];
                    dst.cls[*w] = src.cls[i];
                    *w += 1;
                }
            }
        }
        mid
    }
}

/// Upper bound on the distance between the pruning approximation and the
/// reference impurity expression (both accumulate at most ~20 IEEE
/// roundings of magnitude ≤ 1, so their true gap is below ~5e-15). Kept
/// an order of magnitude above that so the prune can never veto a
/// boundary the full evaluation would have accepted.
const PRUNE_MARGIN: f64 = 1e-14;

/// Walk one feature's value-sorted `(vals, cls)` elements and fold every
/// legal boundary into `best`. The class counts advance with exact
/// integer increments (`right = parent - left` element-wise at all
/// times), and the impurity expression matches the reference splitter's
/// floating-point evaluation order bit for bit.
///
/// Most boundaries are rejected by a two-division approximation first:
/// the weighted Gini equals `1 - Σl²/(n·ln) - Σr²/(n·rn)` exactly, and
/// the integer sums of squares are maintained incrementally, so a
/// boundary provably worse than the running best (by more than
/// [`PRUNE_MARGIN`], which dominates every rounding difference between
/// the two expressions) skips the expensive reference-order evaluation
/// without any chance of changing the chosen split.
#[allow(clippy::too_many_arguments)]
fn scan_sorted_feature(
    feature: usize,
    vals: &[f64],
    cls: &[u16],
    parent_counts: &[u32],
    left_counts: &mut [u32],
    right_counts: &mut [u32],
    config: &TreeConfig,
    n: f64,
    best: &mut Option<(usize, f64, f64)>,
) {
    left_counts.iter_mut().for_each(|c| *c = 0);
    right_counts.copy_from_slice(parent_counts);
    let len = vals.len();
    let mut left_n = 0usize;
    // Integer sums of squared class counts on each side of the boundary.
    let mut sl: u64 = 0;
    let mut sr: u64 = parent_counts.iter().map(|&c| u64::from(c).pow(2)).sum();
    for w in 0..len - 1 {
        let c = cls[w] as usize;
        let lc = u64::from(left_counts[c]);
        let rc = u64::from(right_counts[c]);
        left_counts[c] += 1;
        right_counts[c] -= 1;
        sl += 2 * lc + 1;
        sr -= 2 * rc - 1;
        left_n += 1;
        let (v, v_next) = (vals[w], vals[w + 1]);
        if v == v_next {
            continue;
        }
        let right_n = len - left_n;
        if left_n < config.min_samples_leaf || right_n < config.min_samples_leaf {
            continue;
        }
        let cutoff = best.map_or(f64::INFINITY, |(_, _, b)| b - 1e-12);
        let approx = 1.0 - (sl as f64) / (n * left_n as f64) - (sr as f64) / (n * right_n as f64);
        if approx >= cutoff + PRUNE_MARGIN {
            continue;
        }
        let impurity = (left_n as f64 / n) * gini(left_counts, left_n)
            + (right_n as f64 / n) * gini(right_counts, right_n);
        if impurity < cutoff {
            let threshold = v + (v_next - v) / 2.0;
            // Guard against midpoint rounding to v_next.
            let threshold = if threshold >= v_next { v } else { threshold };
            *best = Some((feature, threshold, impurity));
        }
    }
}

/// Stably partition `seg` so positions with `mask[p] == true` come
/// first, preserving relative order on both sides (which keeps each
/// per-feature segment value-sorted after a split).
fn stable_partition_by_mask(seg: &mut [u32], mask: &[bool], scratch: &mut [u32]) {
    let buf = &mut scratch[..seg.len()];
    let mut w = 0;
    for &p in seg.iter() {
        if mask[p as usize] {
            buf[w] = p;
            w += 1;
        }
    }
    for &p in seg.iter() {
        if !mask[p as usize] {
            buf[w] = p;
            w += 1;
        }
    }
    seg.copy_from_slice(buf);
}

impl DecisionTree {
    /// Fit a tree on `data` with the given configuration and RNG seed
    /// (the seed matters only when `max_features` subsamples).
    pub fn fit(data: &Dataset, config: &TreeConfig, seed: u64) -> DecisionTree {
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let mut rng = SmallRng::seed_from_u64(seed);
        let indices: Vec<u32> = (0..data.n_samples() as u32).collect();
        Self::fit_on_indices(data, &indices, config, &mut rng)
    }

    /// Fit on a bootstrap/weighted index multiset (used by the forest).
    pub(crate) fn fit_on_indices(
        data: &Dataset,
        indices: &[u32],
        config: &TreeConfig,
        rng: &mut SmallRng,
    ) -> DecisionTree {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        // The columnar store packs class labels into u16; datasets with
        // more classes than that take the (identical-output) reference path.
        if data.n_classes() > usize::from(u16::MAX) + 1 {
            return Self::fit_on_indices_reference(data, indices, config, rng);
        }
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes: data.n_classes(),
            impurity_decrease: vec![0.0; data.n_features()],
            root_samples: indices.len(),
        };
        let mut col = Columnar::new(data, indices, data.n_classes());
        let n = col.n;
        tree.build(&mut col, config, 0, n, 0, 0, rng);
        tree
    }

    /// Fit with the retained pre-columnar splitter (re-sorts every
    /// feature at every node). Kept as a correctness oracle: it must
    /// produce bit-identical trees to [`fit`](Self::fit) for any seed,
    /// and serves as the baseline the training bench compares against.
    pub fn fit_reference(data: &Dataset, config: &TreeConfig, seed: u64) -> DecisionTree {
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let mut rng = SmallRng::seed_from_u64(seed);
        let indices: Vec<u32> = (0..data.n_samples() as u32).collect();
        Self::fit_on_indices_reference(data, &indices, config, &mut rng)
    }

    /// [`fit_on_indices`](Self::fit_on_indices) with the reference splitter.
    pub(crate) fn fit_on_indices_reference(
        data: &Dataset,
        indices: &[u32],
        config: &TreeConfig,
        rng: &mut SmallRng,
    ) -> DecisionTree {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes: data.n_classes(),
            impurity_decrease: vec![0.0; data.n_features()],
            root_samples: indices.len(),
        };
        let mut owned: Vec<u32> = indices.to_vec();
        tree.build_reference(data, config, &mut owned, 0, rng);
        tree
    }

    /// Recursively build the subtree over the node range `[start, end)`
    /// of the columnar view; returns its node id. `cur` selects which
    /// ping-pong segment set holds this node's sorted ranges.
    #[allow(clippy::too_many_arguments)]
    fn build(
        &mut self,
        col: &mut Columnar,
        config: &TreeConfig,
        start: usize,
        end: usize,
        depth: usize,
        cur: usize,
        rng: &mut SmallRng,
    ) -> usize {
        let mut counts = vec![0u32; self.n_classes];
        for &p in &col.samples[start..end] {
            counts[col.y[p as usize] as usize] += 1;
        }
        let n = end - start;
        let depth_ok = config.max_depth.is_none_or(|d| depth < d);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;

        if pure || n < config.min_samples_split || !depth_ok {
            return self.push_leaf(&counts, n);
        }

        match col.best_split(config, start, end, &counts, cur, rng) {
            None => self.push_leaf(&counts, n),
            Some((feature, threshold, split_impurity)) => {
                // Mean-decrease-in-impurity bookkeeping (scikit-learn's
                // feature_importances_): weight by the node's sample share.
                let parent_gini = gini(&counts, n);
                let decrease = (parent_gini - split_impurity).max(0.0);
                self.impurity_decrease[feature] +=
                    decrease * n as f64 / self.root_samples.max(1) as f64;
                let mid = col.partition_node(feature, threshold, start, end, cur);
                debug_assert!(mid > 0 && mid < n);
                // A node above the cutoff scattered its segments into the
                // other set; its children read from there.
                let child_cur = if n > SMALL_NODE { 1 - cur } else { cur };
                // Reserve this node's slot before recursing.
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf { proba: Vec::new() });
                let left = self.build(col, config, start, start + mid, depth + 1, child_cur, rng);
                let right = self.build(col, config, start + mid, end, depth + 1, child_cur, rng);
                self.nodes[id] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                id
            }
        }
    }

    /// Recursively build the subtree over `indices` with the reference
    /// splitter; returns its node id.
    fn build_reference(
        &mut self,
        data: &Dataset,
        config: &TreeConfig,
        indices: &mut [u32],
        depth: usize,
        rng: &mut SmallRng,
    ) -> usize {
        let counts = self.class_counts(data, indices);
        let n = indices.len();
        let depth_ok = config.max_depth.is_none_or(|d| depth < d);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;

        if pure || n < config.min_samples_split || !depth_ok {
            return self.push_leaf(&counts, n);
        }

        match self.best_split_reference(data, config, indices, &counts, rng) {
            None => self.push_leaf(&counts, n),
            Some((feature, threshold, split_impurity)) => {
                let parent_gini = gini(&counts, n);
                let decrease = (parent_gini - split_impurity).max(0.0);
                self.impurity_decrease[feature] +=
                    decrease * n as f64 / self.root_samples.max(1) as f64;
                // Partition indices in place around the threshold.
                let mid = partition(indices, |&i| data.x(i as usize, feature) <= threshold);
                debug_assert!(mid > 0 && mid < indices.len());
                // Reserve this node's slot before recursing.
                let id = self.nodes.len();
                self.nodes.push(Node::Leaf { proba: Vec::new() });
                let (left_idx, right_idx) = indices.split_at_mut(mid);
                let left = self.build_reference(data, config, left_idx, depth + 1, rng);
                let right = self.build_reference(data, config, right_idx, depth + 1, rng);
                self.nodes[id] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                id
            }
        }
    }

    fn class_counts(&self, data: &Dataset, indices: &[u32]) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_classes];
        for &i in indices {
            counts[data.target(i as usize)] += 1;
        }
        counts
    }

    fn push_leaf(&mut self, counts: &[u32], n: usize) -> usize {
        let proba: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        self.nodes.push(Node::Leaf { proba });
        self.nodes.len() - 1
    }

    /// The reference split search: rebuilds and re-sorts a
    /// (value, target) array per candidate feature at every node.
    fn best_split_reference(
        &self,
        data: &Dataset,
        config: &TreeConfig,
        indices: &[u32],
        parent_counts: &[u32],
        rng: &mut SmallRng,
    ) -> Option<(usize, f64, f64)> {
        let n_features = data.n_features();
        let k = config.max_features.resolve(n_features);
        let mut features: Vec<usize> = (0..n_features).collect();
        if k < n_features {
            features.shuffle(rng);
        }

        let n = indices.len() as f64;
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, impurity)
        let mut sorted: Vec<(f64, usize)> = Vec::with_capacity(indices.len());

        for (tried, &feature) in features.iter().enumerate() {
            if tried >= k && best.is_some() {
                break;
            }

            sorted.clear();
            sorted.extend(
                indices
                    .iter()
                    .map(|&i| (data.x(i as usize, feature), data.target(i as usize))),
            );
            sorted.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
            if sorted[0].0 == sorted[sorted.len() - 1].0 {
                continue; // constant feature in this node
            }

            let mut left_counts = vec![0u32; self.n_classes];
            let mut left_n = 0usize;
            for w in 0..sorted.len() - 1 {
                left_counts[sorted[w].1] += 1;
                left_n += 1;
                let (v, v_next) = (sorted[w].0, sorted[w + 1].0);
                if v == v_next {
                    continue;
                }
                let right_n = indices.len() - left_n;
                if left_n < config.min_samples_leaf || right_n < config.min_samples_leaf {
                    continue;
                }
                let right_counts: Vec<u32> = parent_counts
                    .iter()
                    .zip(&left_counts)
                    .map(|(&p, &l)| p - l)
                    .collect();
                let impurity = (left_n as f64 / n) * gini(&left_counts, left_n)
                    + (right_n as f64 / n) * gini(&right_counts, right_n);
                if impurity < best.map_or(f64::INFINITY, |(_, _, b)| b - 1e-12) {
                    let threshold = v + (v_next - v) / 2.0;
                    // Guard against midpoint rounding to v_next.
                    let threshold = if threshold >= v_next { v } else { threshold };
                    best = Some((feature, threshold, impurity));
                }
            }
        }
        best
    }

    /// Number of nodes (splits + leaves); useful for tests and debugging.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// The probability vector of the leaf `features` routes to, borrowed
    /// from the tree — ensemble prediction accumulates from it without
    /// cloning per sample per tree.
    pub fn leaf_proba(&self, features: &[f64]) -> &[f64] {
        let mut id = 0;
        loop {
            match &self.nodes[id] {
                Node::Leaf { proba } => return proba,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    id = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Add the reached leaf's class distribution into `acc` element-wise
    /// (allocation-free; `acc` must have `n_classes` slots).
    pub fn accumulate_proba(&self, features: &[f64], acc: &mut [f64]) {
        for (a, v) in acc.iter_mut().zip(self.leaf_proba(features)) {
            *a += v;
        }
    }
}

impl Classifier for DecisionTree {
    fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        self.leaf_proba(features).to_vec()
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// Gini impurity of a class-count vector over `n` samples.
fn gini(counts: &[u32], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            p * p
        })
        .sum::<f64>()
}

/// Stable in-place partition: moves elements satisfying `pred` to the
/// front, returns the boundary index.
fn partition<T: Copy>(slice: &mut [T], pred: impl Fn(&T) -> bool) -> usize {
    let mut buf: Vec<T> = Vec::with_capacity(slice.len());
    let mut mid = 0;
    for &item in slice.iter() {
        if pred(&item) {
            buf.push(item);
            mid += 1;
        }
    }
    for &item in slice.iter() {
        if !pred(&item) {
            buf.push(item);
        }
    }
    slice.copy_from_slice(&buf);
    mid
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_dataset() -> Dataset {
        // XOR needs depth >= 2; a single split cannot separate it.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for &(a, b) in &[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            for jitter in 0..5 {
                let eps = jitter as f64 * 0.01;
                rows.push(vec![a + eps, b + eps]);
                y.push(((a as i32) ^ (b as i32)) as usize);
            }
        }
        Dataset::from_rows(&rows, &y, 2)
    }

    #[test]
    fn fits_xor_perfectly() {
        let ds = xor_dataset();
        let tree = DecisionTree::fit(&ds, &TreeConfig::default(), 0);
        assert!((tree.accuracy(&ds) - 1.0).abs() < 1e-12);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let ds = Dataset::from_rows(&[vec![1.0], vec![2.0], vec![3.0]], &[1, 1, 1], 2);
        let tree = DecisionTree::fit(&ds, &TreeConfig::default(), 0);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict_proba(&[9.0]), vec![0.0, 1.0]);
    }

    #[test]
    fn max_depth_limits_growth() {
        let ds = xor_dataset();
        let config = TreeConfig {
            max_depth: Some(1),
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ds, &config, 0);
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let ds = Dataset::from_rows(
            &[vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            &[0, 0, 1, 1],
            2,
        );
        let config = TreeConfig {
            min_samples_leaf: 2,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ds, &config, 0);
        // The only legal split is the middle one.
        assert!((tree.accuracy(&ds) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_features_give_single_leaf() {
        let ds = Dataset::from_rows(&[vec![5.0], vec![5.0]], &[0, 1], 2);
        let tree = DecisionTree::fit(&ds, &TreeConfig::default(), 0);
        assert_eq!(tree.node_count(), 1);
        let p = tree.predict_proba(&[5.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn proba_sums_to_one() {
        let ds = xor_dataset();
        let tree = DecisionTree::fit(&ds, &TreeConfig::default(), 0);
        let p = tree.predict_proba(&[0.5, 0.5]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partition_is_stable() {
        let mut v = [3u32, 1, 4, 1, 5, 9, 2, 6];
        let mid = partition(&mut v, |&x| x < 4);
        assert_eq!(mid, 4);
        assert_eq!(&v[..mid], &[3, 1, 1, 2]);
        assert_eq!(&v[mid..], &[4, 5, 9, 6]);
    }

    #[test]
    fn mask_partition_is_stable_and_matches_predicate_partition() {
        let mut by_mask = [3u32, 1, 4, 1, 5, 0, 2, 6];
        let mut by_pred = by_mask;
        let mask: Vec<bool> = (0..7).map(|p| p < 4).collect();
        let mut scratch = vec![0u32; by_mask.len()];
        stable_partition_by_mask(&mut by_mask, &mask, &mut scratch);
        let mid = partition(&mut by_pred, |&x| x < 4);
        assert_eq!(by_mask, by_pred);
        assert_eq!(mid, 5);
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(&[4, 0], 4), 0.0);
        assert!((gini(&[2, 2], 4) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[], 0), 0.0);
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4);
        assert_eq!(MaxFeatures::Sqrt.resolve(1), 1);
        assert_eq!(MaxFeatures::Fixed(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Fixed(0).resolve(10), 1);
    }

    #[test]
    fn impurity_importance_favours_the_decisive_feature() {
        // Feature 0 decides; feature 1 is constant.
        let ds = Dataset::from_rows(
            &[
                vec![0.0, 5.0],
                vec![1.0, 5.0],
                vec![0.1, 5.0],
                vec![1.1, 5.0],
            ],
            &[0, 1, 0, 1],
            2,
        );
        let tree = DecisionTree::fit(&ds, &TreeConfig::default(), 0);
        let imp = tree.impurity_importances().unwrap();
        assert!((imp[0] - 1.0).abs() < 1e-12);
        assert_eq!(imp[1], 0.0);
    }

    #[test]
    fn deserialized_trees_have_no_importances() {
        let ds = Dataset::from_rows(&[vec![0.0], vec![1.0]], &[0, 1], 2);
        let tree = DecisionTree::fit(&ds, &TreeConfig::default(), 0);
        let (nodes, n_classes) = tree.raw_parts();
        let rebuilt = DecisionTree::from_raw_parts(nodes.to_vec(), n_classes).unwrap();
        assert!(rebuilt.impurity_importances().is_none());
    }

    #[test]
    fn back_edge_rejected() {
        // A split whose left child is itself would send every input that
        // goes left round the same node forever.
        let leaf = RawNode::Leaf {
            proba: vec![0.5, 0.5],
        };
        let split = |left, right| RawNode::Split {
            feature: 0,
            threshold: 0.5,
            left,
            right,
        };
        for (left, right) in [(0, 2), (1, 0), (1, 1), (2, 1), (1, 3)] {
            let nodes = vec![split(left, right), leaf.clone(), leaf.clone()];
            assert_eq!(
                DecisionTree::from_raw_parts(nodes, 2).err(),
                Some("tree nodes are not in pre-order"),
                "left {left}, right {right}"
            );
        }
        let nodes = vec![split(1, 2), leaf.clone(), leaf];
        assert!(DecisionTree::from_raw_parts(nodes, 2).is_ok());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = xor_dataset();
        let config = TreeConfig {
            max_features: MaxFeatures::Fixed(1),
            ..TreeConfig::default()
        };
        let a = DecisionTree::fit(&ds, &config, 7);
        let b = DecisionTree::fit(&ds, &config, 7);
        for i in 0..ds.n_samples() {
            assert_eq!(a.predict(ds.row(i)), b.predict(ds.row(i)));
        }
    }

    #[test]
    fn accumulate_proba_matches_predict_proba() {
        let ds = xor_dataset();
        let tree = DecisionTree::fit(&ds, &TreeConfig::default(), 0);
        for i in 0..ds.n_samples() {
            let mut acc = vec![0.5; 2];
            tree.accumulate_proba(ds.row(i), &mut acc);
            let p = tree.predict_proba(ds.row(i));
            assert_eq!(acc, vec![0.5 + p[0], 0.5 + p[1]]);
        }
    }

    /// The key regression for the columnar splitter: runs of duplicate
    /// feature values admit thresholds only *between* runs, and counts
    /// at a boundary must cover the whole run regardless of how ties
    /// were ordered by the per-feature sort.
    #[test]
    fn duplicate_value_runs_split_only_between_runs() {
        let ds = Dataset::from_rows(
            &[
                vec![1.0],
                vec![1.0],
                vec![1.0],
                vec![2.0],
                vec![2.0],
                vec![2.0],
            ],
            &[0, 0, 1, 1, 1, 1],
            2,
        );
        let fast = DecisionTree::fit(&ds, &TreeConfig::default(), 0);
        let slow = DecisionTree::fit_reference(&ds, &TreeConfig::default(), 0);
        assert_eq!(fast.raw_parts().0, slow.raw_parts().0);
        // The root threshold must sit between the 1.0-run and the 2.0-run.
        match &fast.raw_parts().0[0] {
            RawNode::Split { threshold, .. } => assert_eq!(*threshold, 1.5),
            other => panic!("expected a root split, got {other:?}"),
        }
        // The mixed 1.0-run keeps its 2:1 distribution in the left leaf.
        let left = fast.predict_proba(&[1.0]);
        assert!((left[0] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(fast.predict_proba(&[2.0]), vec![0.0, 1.0]);
    }

    /// `min_samples_leaf` must veto boundaries inside the margin in both
    /// splitters identically — including when the veto leaves no legal
    /// boundary at all and the node becomes a leaf.
    #[test]
    fn min_samples_leaf_vetoes_boundaries_identically() {
        let rows = vec![
            vec![0.0],
            vec![0.0],
            vec![1.0],
            vec![1.0],
            vec![2.0],
            vec![2.0],
        ];
        let y = [0, 0, 0, 1, 1, 1];
        let ds = Dataset::from_rows(&rows, &y, 2);
        for min_samples_leaf in 1..=4 {
            let config = TreeConfig {
                min_samples_leaf,
                ..TreeConfig::default()
            };
            let fast = DecisionTree::fit(&ds, &config, 0);
            let slow = DecisionTree::fit_reference(&ds, &config, 0);
            assert_eq!(
                fast.raw_parts().0,
                slow.raw_parts().0,
                "min_samples_leaf = {min_samples_leaf}"
            );
        }
        // With min_samples_leaf = 3 both boundaries are vetoed on one
        // side (2|4 and 4|2): the tree must degenerate to a single leaf.
        let config = TreeConfig {
            min_samples_leaf: 3,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ds, &config, 0);
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn columnar_matches_reference_on_xor_with_subsampling() {
        let ds = xor_dataset();
        for seed in 0..10 {
            let config = TreeConfig {
                max_features: MaxFeatures::Fixed(1),
                ..TreeConfig::default()
            };
            let fast = DecisionTree::fit(&ds, &config, seed);
            let slow = DecisionTree::fit_reference(&ds, &config, seed);
            assert_eq!(fast.raw_parts().0, slow.raw_parts().0, "seed {seed}");
            assert_eq!(fast.impurity_importances(), slow.impurity_importances());
        }
    }
}
