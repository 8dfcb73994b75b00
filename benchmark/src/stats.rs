//! Order statistics for the reports: medians, quartiles and the percentile
//! rule.

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted `values`
/// (0.0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile worth reporting from `n` samples: the one that
/// still has at least ten samples beyond it. `None` below 20 samples, where
/// that percentile would sit under the median.
pub fn highest_percentile(n: usize) -> Option<f64> {
    (n >= 20).then(|| (n - 10) as f64 / n as f64)
}

/// The tail quantile a report prints for `n` samples: `wanted`, lowered to
/// [`highest_percentile`] when the tail is too thin, and the median when
/// even that is unavailable.
pub fn tail_quantile(n: usize, wanted: f64) -> f64 {
    highest_percentile(n).map_or(0.5, |p| p.min(wanted))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the rule the driver applies to spreads.
/// Needs at least two values.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // position k*(n+1)/4 in 1-based ranks, clamped into the data
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(100), Some(0.90));
        assert_eq!(highest_percentile(1000), Some(0.99));
        assert_eq!(highest_percentile(60), Some(50.0 / 60.0));
        assert_eq!(highest_percentile(20), Some(0.5));
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(0), None);
    }

    #[test]
    fn tail_quantile_never_exceeds_the_rule() {
        assert_eq!(tail_quantile(100, 0.90), 0.90);
        assert_eq!(tail_quantile(1000, 0.90), 0.90);
        assert_eq!(tail_quantile(40, 0.90), 0.75);
        assert_eq!(tail_quantile(5, 0.90), 0.5);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn exclusive_quartiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles_exclusive(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
