//! Order statistics used by every workload.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between the two closest ranks (Hyndman–Fan type 7, the NumPy
/// default). `None` when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median of `samples` (`None` when empty).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Whether a percentile `q` has at least ten of `n` samples beyond it —
/// the rule for which tail percentile a sample count can support.
pub fn supports_percentile(n: usize, q: f64) -> bool {
    // The epsilon absorbs 1 − q's rounding (1 − 0.9 < 0.1 in binary).
    (n as f64) * (1.0 - q) + 1e-9 >= 10.0
}

/// Geometric mean of positive values (`None` when empty). Used to combine
/// per-group medians, so each group weighs the same whatever its scale.
pub fn geo_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    assert!(values.iter().all(|&v| v > 0.0), "geometric mean needs positive values");
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        // rank 0.9 · 3 = 2.7 → 3 + 0.7 · (4 − 3)
        assert!((percentile(&xs, 0.9).unwrap() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_one_sample_and_none() {
        assert_eq!(percentile(&[7.5], 0.9), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let a = [5.0, 9.0, 1.0, 7.0, 3.0];
        let mut b = a;
        b.reverse();
        assert_eq!(percentile(&a, 0.9), percentile(&b, 0.9));
        assert_eq!(median(&a), Some(5.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert!(supports_percentile(100, 0.9));
        assert!(!supports_percentile(99, 0.9));
        assert!(supports_percentile(20, 0.5));
        assert!(!supports_percentile(19, 0.5));
    }

    #[test]
    fn geo_mean_of_groups() {
        assert!((geo_mean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), None);
    }
}
