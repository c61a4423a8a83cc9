//! The summary statistics every reported number goes through.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with at
/// least `p` of the samples at or below it, i.e. index `⌈p·n⌉ − 1`. With
/// `n ≥ 100` the 90th percentile leaves at least ten samples beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median as the mean of the two middle samples when `n` is even (the rule of
/// Python's `statistics.median`, which the driver applies across runs).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`; needs two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median: the spread the driver
/// compares with a metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs().max(f64::MIN_POSITIVE)
}

pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.90), 90.0); // ten samples (91..=100) lie beyond
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        let odd: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(percentile(&odd, 0.5), 4.0);
        assert_eq!(percentile(&odd, 0.9), 7.0); // ⌈6.3⌉ = 7
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&xs) - 5.5).abs() < 1e-12);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn geo_mean_of_ratios() {
        assert!((geo_mean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }
}
