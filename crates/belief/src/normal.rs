//! Normal distributions with a dependency-free error function.

/// Error function, Abramowitz & Stegun approximation 7.1.26
/// (maximum absolute error 1.5·10⁻⁷ — far below any tolerance relevant to
/// one-significant-digit voice output).
pub fn erf(x: f64) -> f64 {
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// A normal distribution `N(mean, sigma)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Mean.
    pub mean: f64,
    /// Standard deviation (> 0).
    pub sigma: f64,
}

impl Normal {
    /// Create a normal distribution.
    ///
    /// # Panics
    /// Panics if `sigma` is not strictly positive and finite.
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma > 0.0, "sigma must be positive, got {sigma}");
        Normal { mean, sigma }
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        0.5 * (1.0 + erf((x - self.mean) / (self.sigma * std::f64::consts::SQRT_2)))
    }

    /// Probability mass between `lo` and `hi`. The distribution is
    /// continuous, so the half-open `[lo, hi)` that
    /// [`rounding_bucket`](crate::model::rounding_bucket) hands it carries
    /// the same mass as the closed interval.
    pub fn prob_interval(&self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "interval bounds out of order: [{lo}, {hi})");
        (self.cdf(hi) - self.cdf(lo)).max(0.0)
    }

    /// Draw one sample using the Box–Muller transform.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.sigma * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables.
        assert!((erf(0.0)).abs() < 1.5e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!(erf(6.0) > 0.999999);
    }

    #[test]
    fn cdf_symmetry_and_tails() {
        let n = Normal::new(10.0, 2.0);
        assert!((n.cdf(10.0) - 0.5).abs() < 1e-9);
        assert!(n.cdf(0.0) < 1e-4);
        assert!(n.cdf(20.0) > 0.9999);
        // cdf(mean + x) + cdf(mean - x) = 1.
        assert!((n.cdf(13.0) + n.cdf(7.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interval_probabilities() {
        let n = Normal::new(0.0, 1.0);
        // One sigma each side ≈ 68.27 %.
        assert!((n.prob_interval(-1.0, 1.0) - 0.6827).abs() < 1e-3);
        // Concentration: nearer intervals carry more mass.
        assert!(n.prob_interval(0.0, 1.0) > n.prob_interval(1.0, 2.0));
        // Degenerate interval carries none.
        assert!(n.prob_interval(0.5, 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_moments() {
        let n = Normal::new(42.0, 7.0);
        let mut rng = StdRng::seed_from_u64(17);
        let k = 20_000;
        let samples: Vec<f64> = (0..k).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / k as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / k as f64;
        assert!((mean - 42.0).abs() < 0.3, "sample mean {mean}");
        assert!((var.sqrt() - 7.0).abs() < 0.3, "sample sigma {}", var.sqrt());
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn zero_sigma_rejected() {
        Normal::new(1.0, 0.0);
    }
}
