//! Order statistics and the slice pooling every timed metric goes
//! through.

/// Median of `values` (mean of the two middle ones when even); 0 for an
/// empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `q` of the sample at or below it. Always a value that
/// was measured, never an interpolation.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Indices of the slices that remain after ranking by throughput (every
/// op moves the same bytes, so by op count; ties by position) and
/// dropping the fastest and the slowest: a neighbour's burst, or a lucky
/// quiet stretch, costs one slice and not the run.
pub fn middle_slices(ops_per_slice: &[usize]) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..ops_per_slice.len()).collect();
    ranked.sort_by_key(|&i| (ops_per_slice[i], i));
    if ranked.len() > 2 {
        ranked.remove(ranked.len() - 1);
        ranked.remove(0);
    }
    ranked.sort_unstable();
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 150 samples leave 15 beyond the 90th percentile.
        let pool: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(percentile(&pool, 0.9), 135.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
    }

    #[test]
    fn pooling_drops_the_fastest_and_the_slowest_slice() {
        assert_eq!(middle_slices(&[100, 60, 110, 105, 140]), vec![0, 2, 3]);
        // Ties: the earlier slice ranks lower, so exactly two are dropped.
        assert_eq!(middle_slices(&[100, 100, 100, 100, 100]), vec![1, 2, 3]);
        assert_eq!(middle_slices(&[7, 9]), vec![0, 1]);
    }
}
