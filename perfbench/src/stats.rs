//! Order statistics with the benchmark's percentile rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it, so a
//! tail figure never rests on one or two outliers.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples that lie beyond the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

/// The `q` quantile of `samples` (any order), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it. The median is exempt from the
/// rule: it only needs one sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || (q > 0.5 && beyond(samples.len(), q) < MIN_BEYOND) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// Median of `samples` (the lower middle for even counts), 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Mean of the middle half of `samples` (the interquartile mean), 0 when
/// empty: as robust as the median to a few outliers, and it averages the
/// samples it keeps instead of picking one.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mid = &sorted[n / 4..n - n / 4];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fewest samples for which quantile `q` has [`MIN_BEYOND`] beyond it.
    fn samples_needed(q: f64) -> usize {
        (1..)
            .find(|&n| beyond(n, q) >= MIN_BEYOND)
            .unwrap_or(usize::MAX)
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.90), 100);
        let xs: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(
            quantile(&xs, 0.99).is_none(),
            "999 samples leave 9 beyond p99"
        );
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.99), Some(989.0));
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn p90_rule_and_median() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.90), Some(90.0));
        assert_eq!(beyond(100, 0.90), 10);
        assert!(quantile(&xs[..99], 0.90).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, -50.0]), 2.5);
        assert_eq!(interquartile_mean(&[4.0, 1.0, 2.0]), 7.0 / 3.0);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }
}
