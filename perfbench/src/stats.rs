//! The benchmark's own arithmetic: medians, quartiles and percentiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread this benchmark reports is
//! the spread a reader recomputes from the same values.

/// Sorts a copy of `values` (NaN-free input assumed).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; the mean of the two middle values for even counts.
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
///
/// # Panics
///
/// With fewer than two values (Python raises there too).
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Mean of the middle half of `values` (the lowest and highest quarter
/// dropped). Unlike the median it moves smoothly when the values fall in
/// two clusters, as set-up times do when a server's first accept races
/// its poll interval.
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn middle_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Interquartile distance as a share of the median (0 for a single value).
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile of an already sorted slice: the smallest value
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// On an empty slice or `p` outside `0..=100`.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    // The epsilon keeps e.g. 99.9% of 1000 (999.0000000000001 in floating
    // point) at rank 999.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency summary of one rung or one workload, in the samples' unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// 25th percentile (lower edge of the spread).
    pub p25: f64,
    /// 75th percentile (upper edge of the spread).
    pub p75: f64,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    ///
    /// On an empty slice.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let v = sorted(samples);
        Self {
            n: v.len(),
            p50: percentile(&v, 50.0),
            p99: percentile(&v, 99.0),
            p999: percentile(&v, 99.9),
            p25: percentile(&v, 25.0),
            p75: percentile(&v, 75.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: the
        // exclusive method extrapolates past the ends of small samples.
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(
            quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
            [2.0, 8.0, 32.0]
        );
    }

    #[test]
    fn middle_mean_drops_each_outer_quarter() {
        assert_eq!(
            middle_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.5
        );
        assert_eq!(middle_mean(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(middle_mean(&[7.0]), 7.0);
        // Two clusters: the median jumps, the middle mean moves smoothly.
        let mostly_fast = [6.0, 6.0, 6.0, 6.0, 56.0, 56.0, 56.0, 6.0];
        assert_eq!(middle_mean(&mostly_fast), 18.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0; 10]), 0.0);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        // Ten samples: p99 is the largest, p50 the fifth.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), 10.0);
        assert_eq!(percentile(&w, 50.0), 5.0);
    }

    #[test]
    fn summary_orders_its_percentiles() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, 989.0);
        assert_eq!(s.p999, 998.0);
        assert!(s.p25 <= s.p50 && s.p50 <= s.p75 && s.p75 <= s.p99);
    }
}
