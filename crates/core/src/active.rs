//! Active learning for annotation-efficient training, after Chen et al.
//! (CIKM 2017 — reference \[7\] of the paper).
//!
//! The paper motivates its corpus by the cost of manual annotation
//! ("practitioners took on average two minutes to label the lines in a
//! single file"). Chen et al. reduce that cost with an active-learning
//! loop: a *sheet selector* repeatedly presents the most uncertain file
//! to human labelers. This module provides the selector for Strudel —
//! file uncertainty is the mean normalised entropy of the line model's
//! probability vectors — and the `ablation_active_learning` experiment
//! simulates the loop against random selection.

use crate::analysis::TableAnalysis;
use crate::line_classifier::StrudelLine;
use strudel_table::{ElementClass, Table};

/// Normalised Shannon entropy of one probability vector (0 = certain,
/// 1 = uniform).
pub fn normalized_entropy(probs: &[f64]) -> f64 {
    let h: f64 = probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum();
    let max = (probs.len() as f64).ln();
    if max <= 0.0 {
        0.0
    } else {
        (h / max).clamp(0.0, 1.0)
    }
}

/// Uncertainty of one file under a fitted line model: the mean
/// normalised entropy over its non-empty lines (0 when the file has
/// none).
pub fn file_uncertainty(model: &StrudelLine, table: &Table) -> f64 {
    let analysis = TableAnalysis::compute(table, model.feature_config().derived);
    let probs = model.predict_probs_view(table.view(), &analysis, 0);
    let mut sum = 0.0;
    let mut n = 0usize;
    for (r, p) in probs.iter().enumerate() {
        if !table.row_is_empty(r) {
            sum += normalized_entropy(p);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The sheet selector: indices of the `k` most uncertain candidate
/// tables, most uncertain first (ties keep candidate order).
pub fn select_most_uncertain(model: &StrudelLine, candidates: &[&Table], k: usize) -> Vec<usize> {
    let mut scored: Vec<(usize, f64)> = candidates
        .iter()
        .enumerate()
        .map(|(i, t)| (i, file_uncertainty(model, t)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.into_iter().take(k).map(|(i, _)| i).collect()
}

/// Sanity helper for tests and experiments: the entropy of a uniform
/// distribution over the six classes is exactly 1.
pub fn uniform_entropy() -> f64 {
    normalized_entropy(&[1.0 / ElementClass::COUNT as f64; ElementClass::COUNT])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_classifier::tests::tiny_corpus;
    use crate::line_classifier::StrudelLineConfig;
    use strudel_ml::ForestConfig;

    #[test]
    fn entropy_bounds() {
        assert_eq!(normalized_entropy(&[1.0, 0.0, 0.0]), 0.0);
        assert!((uniform_entropy() - 1.0).abs() < 1e-12);
        let mid = normalized_entropy(&[0.5, 0.5, 0.0]);
        assert!(mid > 0.0 && mid < 1.0);
    }

    #[test]
    fn familiar_files_are_more_certain_than_alien_ones() {
        let corpus = tiny_corpus(8);
        let model = StrudelLine::fit(
            &corpus.files,
            &StrudelLineConfig {
                forest: ForestConfig::fast(20, 1),
                ..StrudelLineConfig::default()
            },
        );
        let familiar = file_uncertainty(&model, &corpus.files[0].table);
        // An alien layout: prose-length cells mixed with numbers.
        let alien = Table::from_rows(vec![
            vec!["zzz qqq xxx www vvv", "17", "alpha beta"],
            vec!["9", "uuu ttt sss", "3.5"],
            vec!["gamma delta epsilon", "8", "12"],
        ]);
        let alien_u = file_uncertainty(&model, &alien);
        assert!(
            alien_u > familiar,
            "alien {alien_u} should exceed familiar {familiar}"
        );
    }

    #[test]
    fn selector_ranks_by_uncertainty() {
        let corpus = tiny_corpus(8);
        let model = StrudelLine::fit(
            &corpus.files,
            &StrudelLineConfig {
                forest: ForestConfig::fast(20, 2),
                ..StrudelLineConfig::default()
            },
        );
        let alien = Table::from_rows(vec![
            vec!["zzz qqq xxx", "17", "alpha beta gamma"],
            vec!["9", "uuu ttt", "3.5"],
        ]);
        let familiar = corpus.files[0].table.clone();
        let picks = select_most_uncertain(&model, &[&familiar, &alien], 1);
        assert_eq!(picks, vec![1]);
        let picks = select_most_uncertain(&model, &[&familiar, &alien], 5);
        assert_eq!(picks.len(), 2);
    }

    #[test]
    fn empty_table_has_zero_uncertainty() {
        let corpus = tiny_corpus(4);
        let model = StrudelLine::fit(
            &corpus.files,
            &StrudelLineConfig {
                forest: ForestConfig::fast(10, 3),
                ..StrudelLineConfig::default()
            },
        );
        let empty = Table::from_rows(Vec::<Vec<String>>::new());
        assert_eq!(file_uncertainty(&model, &empty), 0.0);
    }
}
