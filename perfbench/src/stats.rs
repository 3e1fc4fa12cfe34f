//! Order statistics the benchmark reports: nearest-rank percentiles for
//! latency tails, medians for repeated timings, and quartiles with the
//! same interpolation as Python's `statistics.quantiles(values, n=4)`,
//! so the spreads printed here match the ones the benchmark is judged by.

/// Nearest-rank percentile of an ascending-sorted sample: the
/// `⌈q·N⌉`-th smallest value (the smallest for `q = 0`). `None` when the
/// sample is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count). `None` when the sample is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile of an unsorted sample,
/// by the "exclusive" method of Python's `statistics.quantiles`. `None`
/// for fewer than two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len() as i64;
    if ld < 2 {
        return None;
    }
    let n = 4;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    Some(out)
}

/// Which end of a sample is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Best-tenth mean: the mean of the best `⌈N/10⌉` values (the largest
/// for `Better::Higher`, the smallest for `Better::Lower`). Other tenants
/// of a shared host only ever slow an operation down, and they do so for
/// stretches of half a minute or more at a time, so the run's best tenth
/// repeats from run to run where its middle does not. `None` when the
/// sample is empty.
pub fn best_tenth_mean(values: &[f64], better: Better) -> Option<f64> {
    let mut sorted = sorted(values);
    if better == Better::Higher {
        sorted.reverse();
    }
    let k = sorted.len().div_ceil(10);
    (k > 0).then(|| sorted[..k].iter().sum::<f64>() / k as f64)
}

/// An ascending copy (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_takes_the_ceiling_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sample, 0.50), Some(50.0));
        assert_eq!(nearest_rank(&sample, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&sample, 0.991), Some(100.0));
        assert_eq!(nearest_rank(&sample, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&sample, 0.0), Some(1.0));
        // Ten values: p50 is the 5th, p99 rounds up to the largest.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&ten, 0.99), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn best_tenth_mean_takes_the_best_ceil_tenth() {
        // Twenty values: the best two.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_tenth_mean(&twenty, Better::Higher), Some(19.5));
        assert_eq!(best_tenth_mean(&twenty, Better::Lower), Some(1.5));
        // Eleven values round up to two; order does not matter, and a
        // slow outlier never counts.
        let mut shuffled = vec![7.0, 1e9, 2.0, 5.0, 1.0, 3.0, 8.0, 4.0, 6.0, 9.0, 10.0];
        assert_eq!(best_tenth_mean(&shuffled, Better::Lower), Some(1.5));
        shuffled[1] = -1e9;
        assert_eq!(best_tenth_mean(&shuffled, Better::Higher), Some(9.5));
        // Up to ten values: the single best one.
        assert_eq!(best_tenth_mean(&[3.0, 1.0, 2.0, 4.0], Better::Higher), Some(4.0));
        assert_eq!(best_tenth_mean(&[4.0], Better::Lower), Some(4.0));
        assert_eq!(best_tenth_mean(&[], Better::Lower), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]:
        // the clamped index extrapolates beyond the sample.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
