//! Order statistics and the few derivations every report shares.

/// Exact nearest-rank percentile of ascending `sorted` samples: the
/// smallest sample with at least a `q` share of the samples at or below
/// it. `q` is a fraction in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The sample-count rule for tails: percentile `q` is supported only when
/// at least ten samples lie beyond it.
pub fn tail_supported(samples: usize, q: f64) -> bool {
    samples as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// The median, as Python's `statistics.median`.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(values,
/// n=4)` (the default exclusive method). A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of no values");
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median — the spread
/// the bounds are checked against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// `values` ascending (NaN-free by construction: every value is a
/// measured duration, count or ratio).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Wire and queueing overhead of one answered request: what the client
/// waited minus the compute the server reports for it (`elapsed_us`),
/// never below zero.
pub fn overhead_us(client_latency_us: f64, server_elapsed_us: f64) -> f64 {
    (client_latency_us - server_elapsed_us).max(0.0)
}

/// Per-search index synchronisation cost: the mean `serve.search` wall
/// minus the mean `topk` time the server reports, never below zero (the
/// wall also covers the comparator build, which is tens of nanoseconds).
pub fn sync_us(mean_search_wall_us: f64, mean_topk_us: f64) -> f64 {
    (mean_search_wall_us - mean_topk_us).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Rank rounds up: 0.5 of 3 samples is the 2nd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(100, 0.90));
        assert!(!tail_supported(99, 0.90));
        assert!(tail_supported(20, 0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 4.5));
        // Two values extrapolate: statistics.quantiles([1, 2], n=4) ==
        // [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn overhead_and_sync_derivations() {
        assert_eq!(overhead_us(150.0, 80.0), 70.0);
        // A server clock reading above the client's (coarse µs rounding)
        // is no negative overhead.
        assert_eq!(overhead_us(80.0, 81.0), 0.0);
        assert_eq!(sync_us(2_500.0, 2_200.0), 300.0);
        assert_eq!(sync_us(2_200.0, 2_200.5), 0.0);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
