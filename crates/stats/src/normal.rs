//! Normal (Gaussian) sampling via the Box–Muller transform.
//!
//! The offline dependency set has `rand` but not `rand_distr`, so the
//! standard-normal distribution is implemented here. Box–Muller generates
//! pairs of independent deviates; the spare is cached per sampler instance.

use rand::Rng;
use std::cell::Cell;
use std::f64::consts::PI;

/// A standard-normal `N(0, 1)` sampler.
///
/// Interior mutability caches the spare Box–Muller deviate, so sampling is
/// one `ln`/`sqrt`/`cos` per *pair* of draws on average. The spare is part
/// of the stream: a clone carries it, so the clone and the original draw
/// the same deviates from equal generators.
///
/// # Example
///
/// ```
/// use glova_stats::normal::StandardNormal;
/// let normal = StandardNormal::new();
/// let mut rng = glova_stats::rng::seeded(1);
/// let x = normal.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StandardNormal {
    spare: Cell<Option<f64>>,
}

impl StandardNormal {
    /// Creates a sampler with an empty spare cache.
    pub fn new() -> Self {
        Self { spare: Cell::new(None) }
    }

    /// Draws one standard-normal deviate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // u1 in (0, 1]: avoid ln(0).
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let radius = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * PI * u2;
        self.spare.set(Some(radius * theta.sin()));
        radius * theta.cos()
    }

    /// Draws a deviate from `N(mean, sigma^2)`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `sigma` is negative.
    pub fn sample_scaled<R: Rng + ?Sized>(&self, rng: &mut R, mean: f64, sigma: f64) -> f64 {
        debug_assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        mean + sigma * self.sample(rng)
    }

    /// Draws a deviate from `N(mean, sigma^2)` truncated to `[lo, hi]` by
    /// rejection, falling back to clamping after `max_tries`.
    ///
    /// Used for bounded physical parameters where a hard tail would be
    /// unphysical (e.g. capacitance must stay positive).
    pub fn sample_truncated<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        mean: f64,
        sigma: f64,
        lo: f64,
        hi: f64,
    ) -> f64 {
        debug_assert!(lo <= hi, "invalid truncation interval [{lo}, {hi}]");
        const MAX_TRIES: usize = 64;
        for _ in 0..MAX_TRIES {
            let x = self.sample_scaled(rng, mean, sigma);
            if (lo..=hi).contains(&x) {
                return x;
            }
        }
        mean.clamp(lo, hi)
    }

    /// Fills `out` with i.i.d. standard-normal deviates.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = self.sample(rng);
        }
    }
}

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// Implemented via [`erf`]; absolute error below `1.5e-7`, which is ample
/// for the µ-σ feasibility analytics and tests in this workspace.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
///
/// Maximum absolute error `1.5e-7`.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::RunningStats;
    use crate::rng::seeded;

    #[test]
    fn clone_carries_the_pending_spare() {
        let normal = StandardNormal::new();
        let mut rng = seeded(3);
        normal.sample(&mut rng); // leaves the pair's spare pending
        let clone = normal.clone();
        let mut rng_clone = rng.clone();
        for _ in 0..5 {
            assert_eq!(normal.sample(&mut rng).to_bits(), clone.sample(&mut rng_clone).to_bits());
        }
    }

    #[test]
    fn moments_match_standard_normal() {
        let normal = StandardNormal::new();
        let mut rng = seeded(11);
        let mut stats = RunningStats::new();
        for _ in 0..200_000 {
            stats.push(normal.sample(&mut rng));
        }
        assert!(stats.mean().abs() < 0.01, "mean {}", stats.mean());
        assert!((stats.std_dev() - 1.0).abs() < 0.01, "std {}", stats.std_dev());
    }

    #[test]
    fn scaled_moments() {
        let normal = StandardNormal::new();
        let mut rng = seeded(12);
        let mut stats = RunningStats::new();
        for _ in 0..100_000 {
            stats.push(normal.sample_scaled(&mut rng, 3.0, 0.5));
        }
        assert!((stats.mean() - 3.0).abs() < 0.01);
        assert!((stats.std_dev() - 0.5).abs() < 0.01);
    }

    #[test]
    fn truncation_respects_bounds() {
        let normal = StandardNormal::new();
        let mut rng = seeded(13);
        for _ in 0..10_000 {
            let x = normal.sample_truncated(&mut rng, 0.0, 2.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn truncation_degenerate_interval_clamps() {
        let normal = StandardNormal::new();
        let mut rng = seeded(14);
        // Interval far in the tail: rejection will exhaust and clamp.
        let x = normal.sample_truncated(&mut rng, 0.0, 1e-9, 5.0, 6.0);
        assert_eq!(x, 5.0);
    }

    #[test]
    fn tail_fractions_are_gaussian() {
        let normal = StandardNormal::new();
        let mut rng = seeded(15);
        let n = 200_000usize;
        let beyond_2: usize = (0..n).filter(|_| normal.sample(&mut rng).abs() > 2.0).count();
        let frac = beyond_2 as f64 / n as f64;
        // P(|Z| > 2) = 0.0455
        assert!((frac - 0.0455).abs() < 0.005, "tail fraction {frac}");
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1.5e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_91).abs() < 1e-6);
    }

    #[test]
    fn cdf_symmetry_and_median() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1.5e-7);
        for &x in &[0.3, 1.1, 2.7] {
            assert!((normal_cdf(x) + normal_cdf(-x) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn fill_writes_every_slot() {
        let normal = StandardNormal::new();
        let mut rng = seeded(16);
        let mut buf = [0.0f64; 33];
        normal.fill(&mut rng, &mut buf);
        assert!(buf.iter().all(|v| v.is_finite()));
        // Odds of any slot being exactly 0.0 are negligible.
        assert!(buf.iter().all(|&v| v != 0.0));
    }
}
