//! Order statistics.
//!
//! Everything here is pure arithmetic over sample vectors, so the unit tests
//! pin the exact rules the benchmark reports by.

/// Samples sorted ascending (`total_cmp` order, so NaNs cannot reorder).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads printed here match the ones the acceptance check computes. A
/// single sample is its own quartiles.
///
/// # Panics
/// Panics on an empty sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Number of samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// The tail latency: the highest order statistic with at least
/// [`TAIL_SAMPLES_BEYOND`] samples above it, but never below the median.
/// Returns `(value, percentile)`; with 20 or fewer samples the tail is the
/// median itself (percentile 50).
///
/// # Panics
/// Panics on an empty sample.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "tail of an empty sample");
    if n <= 2 * TAIL_SAMPLES_BEYOND {
        return (median(&s), 50.0);
    }
    let k = n - TAIL_SAMPLES_BEYOND - 1;
    (s[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// Nearest-rank percentile `p` (0..=100) of a sample.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values.
///
/// # Panics
/// Panics on an empty sample.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of an empty sample");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 99.0).abs() < 1e-12);
        // 4000 samples: p99.75, exactly ten beyond.
        let xs: Vec<f64> = (1..=4000).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 99.75).abs() < 1e-12);
        // Too few samples for a tail beyond the median: the median.
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&few), (10.5, 50.0));
        let (v, _) = tail(&(1..=21).map(f64::from).collect::<Vec<_>>());
        assert_eq!(v, 11.0);
    }
}
