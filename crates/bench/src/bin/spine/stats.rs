//! Order statistics for latency samples and repeated runs.

/// Percentiles a timing may be reported at, lowest first.
pub const CANDIDATES: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// A tail percentile is only reported with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Copies `values` into ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. `0.0` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, p) - 1],
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it, and its value; falls back to the median for small samples.
pub fn highest_supported(sorted: &[f64]) -> (f64, f64) {
    let p = CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(sorted.len(), p) >= MIN_BEYOND)
        .unwrap_or(CANDIDATES[0]);
    (p, percentile(sorted, p))
}

/// Median with the usual midpoint interpolation for even counts.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the acceptance check of this benchmark is stated in those terms.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: P99 has one sample beyond it, P90 has exactly ten.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(highest_supported(&v), (0.90, 90.0));
        // 1000 samples carry P99, 999 do not: nine beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported(&v), (0.99, 990.0));
        assert_eq!(highest_supported(&v[..999]).0, 0.95);
        // 10 000 samples carry P99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(highest_supported(&v), (0.999, 9990.0));
        // Too few for any tail: the median.
        assert_eq!(highest_supported(&[1.0, 2.0, 3.0]).0, 0.50);
    }

    #[test]
    fn median_and_python_quartiles() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
    }
}
