//! Percentiles and spreads, with the sample-count rule the benchmark
//! reports under: a percentile is only stated when at least ten samples
//! lie beyond it (choosing-metrics §1), so a p75 needs 40 samples and a
//! median 20.

/// Samples that must lie beyond a percentile before it may be reported.
pub const SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; `None`
/// for an empty one. Rank `ceil(p/100 · n)`, clamped to `1..=n`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether `n` samples leave at least [`SAMPLES_BEYOND`] beyond the
/// `p`-th percentile.
pub fn supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= SAMPLES_BEYOND as f64
}

/// Median; 0 for an empty sample (callers report the count beside it).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the
/// acceptance check computes. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based axis; the interval index is
        // clamped to the sample but the fraction is not, so tiny samples
        // extrapolate exactly as Python does.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the bounds are judged against. `None` below two samples or when
/// the median is 0.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = exclusive_median(samples);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Interpolated median (mean of the middle pair on even counts), used for
/// comparing runs; latency medians *within* a run stay nearest-rank.
pub fn exclusive_median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 75.0), Some(8.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(!supported(19, 50.0));
        assert!(supported(20, 50.0));
        assert!(!supported(39, 75.0));
        assert!(supported(40, 75.0));
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&s).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates on tiny samples.
        let (q1, q3) = quartiles(&[10.0, 20.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12, "{q1} {q3}");
        assert_eq!(quartiles(&[1.0]), None);
        let sp = spread(&s).unwrap();
        assert!((sp - 1.0).abs() < 1e-12, "{sp}");
    }
}
