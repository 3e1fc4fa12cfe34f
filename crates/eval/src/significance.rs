//! Statistical comparison of classifiers: a paired randomisation
//! (approximate permutation) test for the difference between two systems
//! evaluated on the same elements.
//!
//! The paper compares systems by repeated cross-validation averages;
//! this test tells whether "A beats B" on a finite corpus is signal or
//! noise.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of a paired randomisation test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedTest {
    /// Accuracy difference `a − b` on the full sample.
    pub observed_diff: f64,
    /// Approximate two-sided p-value: the share of label-swap
    /// randomisations whose |difference| reaches the observed one.
    pub p_value: f64,
}

/// Paired randomisation test on accuracy: systems `a` and `b` predicted
/// the same `gold` elements; under the null hypothesis their outputs are
/// exchangeable per element, so random swaps give the null distribution
/// of the accuracy difference.
///
/// # Panics
/// Panics on empty or mismatched inputs or `n_rounds == 0`.
pub fn paired_randomization_test(
    gold: &[usize],
    a: &[usize],
    b: &[usize],
    n_rounds: usize,
    seed: u64,
) -> PairedTest {
    assert!(!gold.is_empty(), "cannot test an empty sample");
    assert!(
        gold.len() == a.len() && gold.len() == b.len(),
        "prediction sets must align with gold"
    );
    assert!(n_rounds > 0, "need at least one randomisation round");

    let n = gold.len() as f64;
    // Per-element correctness indicators; only elements where the two
    // systems disagree in correctness contribute to the difference.
    let correct_a: Vec<f64> = gold.iter().zip(a).map(|(g, p)| f64::from(g == p)).collect();
    let correct_b: Vec<f64> = gold.iter().zip(b).map(|(g, p)| f64::from(g == p)).collect();
    let observed: f64 = correct_a
        .iter()
        .zip(&correct_b)
        .map(|(ca, cb)| ca - cb)
        .sum::<f64>()
        / n;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut extreme = 0usize;
    for _ in 0..n_rounds {
        let mut diff = 0.0;
        for (ca, cb) in correct_a.iter().zip(&correct_b) {
            let d = ca - cb;
            diff += if rng.gen_bool(0.5) { d } else { -d };
        }
        if (diff / n).abs() >= observed.abs() - 1e-15 {
            extreme += 1;
        }
    }
    PairedTest {
        observed_diff: observed,
        // +1 smoothing keeps the estimate conservative and never zero.
        p_value: (extreme + 1) as f64 / (n_rounds + 1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_systems_are_not_significant() {
        let gold: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let pred: Vec<usize> = gold.iter().map(|&g| 1 - g).collect();
        let t = paired_randomization_test(&gold, &pred, &pred, 500, 3);
        assert_eq!(t.observed_diff, 0.0);
        assert!(t.p_value > 0.9);
    }

    #[test]
    fn clearly_better_system_is_significant() {
        let gold: Vec<usize> = (0..200).map(|i| i % 2).collect();
        let good = gold.clone(); // always right
        let bad: Vec<usize> = gold
            .iter()
            .enumerate()
            .map(|(i, &g)| if i % 3 == 0 { 1 - g } else { g })
            .collect();
        let t = paired_randomization_test(&gold, &good, &bad, 1000, 4);
        assert!(t.observed_diff > 0.3);
        assert!(t.p_value < 0.01, "p = {}", t.p_value);
    }

    #[test]
    #[should_panic(expected = "prediction sets must align")]
    fn mismatched_lengths_panic() {
        let _ = paired_randomization_test(&[0, 1], &[0], &[0, 1], 10, 0);
    }
}
