//! Gaussian-process regression with marginal-likelihood hyperparameter
//! search.
//!
//! Fitting and prediction run as blocked kernels — a lower-triangle
//! kernel fill factored in place, and posterior passes over blocks of
//! queries — whose every value is bitwise the one the scalar textbook
//! formulas produce one entry and one query at a time (see
//! [`Matern52::eval`] and [`Cholesky::solve_lower_block`]).

use crate::kernel::Matern52;
use glova_linalg::{Cholesky, Matrix};
use glova_stats::normal::StandardNormal;
use rand::Rng;

/// Queries per blocked posterior pass.
const QUERY_BLOCK: usize = 8;

/// A fitted Gaussian process over observations `(X, y)`.
///
/// Targets are standardized internally; predictions are returned in the
/// original scale.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: Matern52,
    noise_variance: f64,
    /// Training inputs, row-major `n × dim`.
    x: Vec<f64>,
    y_standardized: Vec<f64>,
    alpha: Vec<f64>,
    chol: Cholesky,
    y_mean: f64,
    y_std: f64,
}

impl GaussianProcess {
    /// Jitter added to the kernel matrix diagonal for numerical stability.
    const JITTER: f64 = 1e-8;

    /// Fits a GP with fixed hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or zero-dimensional, lengths differ, or the
    /// kernel matrix cannot be factored (should not happen with positive
    /// noise).
    pub fn fit(kernel: Matern52, noise_variance: f64, x: &[Vec<f64>], y: &[f64]) -> Self {
        Self::fit_best([(kernel, noise_variance)], x, y)
    }

    /// Fits hyperparameters by random search over log-space, maximizing the
    /// log marginal likelihood, then returns the best fitted GP.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or zero-dimensional, or lengths differ.
    pub fn fit_auto<X: AsRef<[f64]>, R: Rng + ?Sized>(x: &[X], y: &[f64], rng: &mut R) -> Self {
        assert!(!x.is_empty(), "cannot fit a GP to zero observations");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        let dim = x[0].as_ref().len();

        // Random search: isotropic seeds plus ARD perturbations. Fits draw
        // no randomness, so drawing every trial up front keeps the stream.
        const TRIALS: usize = 24;
        let trials: Vec<(Matern52, f64)> = (0..TRIALS)
            .map(|trial| {
                let base_ls = 10f64.powf(rng.gen_range(-1.2..0.5));
                let lengthscales: Vec<f64> = (0..dim)
                    .map(|_| {
                        if trial < TRIALS / 2 {
                            base_ls
                        } else {
                            base_ls * 10f64.powf(rng.gen_range(-0.4..0.4))
                        }
                    })
                    .collect();
                let noise = 10f64.powf(rng.gen_range(-6.0..-2.0));
                (Matern52::new(1.0, lengthscales), noise)
            })
            .collect();
        Self::fit_best(trials, x, y)
    }

    /// Fits every `(kernel, noise variance)` trial and keeps the one with
    /// the highest log marginal likelihood: the first trial always, a later
    /// one only if strictly higher (so a NaN never replaces, nor is
    /// replaced).
    ///
    /// Targets are standardized once; each trial fills the lower triangle
    /// of one reused kernel buffer and factors it in place, and the best
    /// trial's factor swaps buffers with the working one.
    fn fit_best<X: AsRef<[f64]>>(
        trials: impl IntoIterator<Item = (Matern52, f64)>,
        x: &[X],
        y: &[f64],
    ) -> Self {
        assert!(!x.is_empty(), "cannot fit a GP to zero observations");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");

        let y_mean = glova_stats::descriptive::mean(y);
        let y_std = glova_stats::descriptive::std_dev(y).max(1e-9);
        let y_n: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();
        let (n, dim) = (x.len(), x[0].as_ref().len());
        assert!(dim > 0, "GP inputs need at least one dimension");
        assert!(x.iter().all(|xi| xi.as_ref().len() == dim), "kernel input dimension mismatch");
        let points: Vec<&[f64]> = x.iter().map(AsRef::as_ref).collect();

        let mut work = Matrix::zeros(n, n);
        let mut best: Option<(f64, Matern52, f64, Cholesky, Vec<f64>)> = None;
        for (kernel, noise_variance) in trials {
            assert!(noise_variance > 0.0, "noise variance must be positive");
            kernel_lower_triangle(&kernel, &points, noise_variance + Self::JITTER, &mut work);
            let chol = Cholesky::factor_in_place(work, 0.0)
                .expect("kernel matrix must be SPD with positive noise");
            let alpha = chol.solve(&y_n);
            let lml = log_marginal_likelihood(&alpha, &y_n, &chol);
            if best.as_ref().is_none_or(|(b, ..)| lml > *b) {
                let previous = best.replace((lml, kernel, noise_variance, chol, alpha));
                work = previous.map_or_else(|| Matrix::zeros(n, n), |(.., c, _)| c.into_factor());
            } else {
                work = chol.into_factor();
            }
        }
        let (_, kernel, noise_variance, chol, alpha) = best.expect("at least one trial");
        let x = points.concat();
        Self { kernel, noise_variance, x, y_standardized: y_n, alpha, chol, y_mean, y_std }
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// Whether the GP has no training points (never true post-`fit`).
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }

    /// Log marginal likelihood of the training data (standardized space).
    pub fn log_marginal_likelihood(&self) -> f64 {
        log_marginal_likelihood(&self.alpha, &self.y_standardized, &self.chol)
    }

    /// Posterior mean and variance at `query` (original target scale): a
    /// block of one through the batched posterior pass.
    ///
    /// # Panics
    ///
    /// Panics if `query` has the wrong dimension.
    pub fn predict(&self, query: &[f64]) -> (f64, f64) {
        self.posterior_block([query], &mut Vec::new())[0]
    }

    /// Draws one Thompson sample value at `query` (independent
    /// approximation: `µ + σ·z`): a batch of one through
    /// [`GaussianProcess::thompson_values`].
    pub fn thompson_sample<R: Rng + ?Sized>(
        &self,
        query: &[f64],
        normal: &StandardNormal,
        rng: &mut R,
    ) -> f64 {
        self.thompson_values(query, &[normal.sample(rng)])[0]
    }

    /// Thompson sample values `µ_c + σ_c·z_c` at every row of the
    /// row-major `queries` block, given one standard-normal deviate per
    /// query, in one blocked posterior pass. Every value is bitwise what
    /// [`GaussianProcess::thompson_sample`] returns for that query and
    /// deviate.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is not `z.len()` rows of the kernel's dimension.
    pub fn thompson_values(&self, queries: &[f64], z: &[f64]) -> Vec<f64> {
        let dim = self.kernel.lengthscales().len();
        assert_eq!(queries.len(), z.len() * dim, "one deviate per query row");
        let value = |(mu, var): (f64, f64), z: f64| mu + var.sqrt() * z;
        let mut values = Vec::with_capacity(z.len());
        let mut blocks = queries.chunks_exact(QUERY_BLOCK * dim);
        let mut z_blocks = z.chunks_exact(QUERY_BLOCK);
        let mut v = Vec::with_capacity(self.len());
        for (block, z) in blocks.by_ref().zip(z_blocks.by_ref()) {
            let block: [&[f64]; QUERY_BLOCK] = std::array::from_fn(|c| &block[c * dim..][..dim]);
            let posterior = self.posterior_block(block, &mut v);
            values.extend(posterior.into_iter().zip(z).map(|(p, &z)| value(p, z)));
        }
        let mut v = Vec::with_capacity(self.len());
        for (query, &z) in blocks.remainder().chunks_exact(dim).zip(z_blocks.remainder()) {
            values.push(value(self.posterior_block([query], &mut v)[0], z));
        }
        values
    }

    /// Posterior `(mean, variance)` at `W` queries in the original target
    /// scale, with `v` as scratch for the `n × W` kernel block.
    ///
    /// Per query, the scalar formulas in their scalar order: the mean sums
    /// `k_*[i]·α[i]` over `i` ascending; `v = L⁻¹k_*` by forward
    /// substitution; the variance is `k(q, q) + σ_n² − Σ v_i²`, floored at
    /// `1e-12`. `k(q, q)` is the signal variance for every finite query.
    fn posterior_block<const W: usize>(
        &self,
        queries: [&[f64]; W],
        v: &mut Vec<[f64; W]>,
    ) -> [(f64, f64); W] {
        let dim = self.kernel.lengthscales().len();
        v.clear();
        let mut mean_n = [-0.0; W];
        for (xi, &a) in self.x.chunks_exact(dim).zip(&self.alpha) {
            let k = self.kernel.eval_block(xi, queries);
            for c in 0..W {
                mean_n[c] += k[c] * a;
            }
            v.push(k);
        }
        self.chol.solve_lower_block(v);
        let mut v2 = [-0.0; W];
        for v in v.iter() {
            for c in 0..W {
                v2[c] += v[c] * v[c];
            }
        }
        let k_ss = self.kernel.signal_variance() + self.noise_variance;
        std::array::from_fn(|c| {
            let var_n = (k_ss - v2[c]).max(1e-12);
            (self.y_mean + self.y_std * mean_n[c], var_n * self.y_std * self.y_std)
        })
    }
}

/// Writes `k(x_i, x_j)` for `j <= i` into the lower triangle of `out`,
/// adding `diagonal` on the diagonal.
fn kernel_lower_triangle(kernel: &Matern52, points: &[&[f64]], diagonal: f64, out: &mut Matrix) {
    for (i, &xi) in points.iter().enumerate() {
        let row = &mut out.row_mut(i)[..=i];
        let mut blocks = row.chunks_exact_mut(QUERY_BLOCK);
        let mut cols = points[..=i].chunks_exact(QUERY_BLOCK);
        for (dst, xj) in blocks.by_ref().zip(cols.by_ref()) {
            let xj: [&[f64]; QUERY_BLOCK] = std::array::from_fn(|c| xj[c]);
            dst.copy_from_slice(&kernel.eval_block(xi, xj));
        }
        for (dst, &xj) in blocks.into_remainder().iter_mut().zip(cols.remainder()) {
            *dst = kernel.eval(xi, xj);
        }
        row[i] += diagonal;
    }
}

/// `log p(y | X)` in standardized space from the fitted `α = K⁻¹y` and
/// the factor of `K`.
fn log_marginal_likelihood(alpha: &[f64], y: &[f64], chol: &Cholesky) -> f64 {
    let n = alpha.len() as f64;
    let data_fit: f64 = -0.5 * alpha.iter().zip(y).map(|(a, y)| a * y).sum::<f64>();
    data_fit - 0.5 * chol.log_determinant() - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::rng::seeded;

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = toy_data();
        let gp = GaussianProcess::fit(Matern52::isotropic(1.0, 0.2, 1), 1e-6, &xs, &ys);
        for (x, y) in xs.iter().zip(&ys) {
            let (mu, _) = gp.predict(x);
            assert!((mu - y).abs() < 0.01, "at {x:?}: {mu} vs {y}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (xs, ys) = toy_data();
        let gp = GaussianProcess::fit(Matern52::isotropic(1.0, 0.1, 1), 1e-6, &xs, &ys);
        let (_, var_near) = gp.predict(&[0.5]);
        let (_, var_far) = gp.predict(&[3.0]);
        assert!(var_far > 10.0 * var_near, "{var_far} vs {var_near}");
    }

    #[test]
    fn auto_fit_generalizes() {
        let (xs, ys) = toy_data();
        let mut rng = seeded(8);
        let gp = GaussianProcess::fit_auto(&xs, &ys, &mut rng);
        // Predict at held-out midpoints.
        for i in 0..10 {
            let x = [(2.0 * i as f64 + 1.0) / 38.0];
            let truth = (6.0 * x[0]).sin();
            let (mu, _) = gp.predict(&x);
            assert!((mu - truth).abs() < 0.1, "at {x:?}: {mu} vs {truth}");
        }
    }

    #[test]
    fn lml_prefers_sane_lengthscales() {
        let (xs, ys) = toy_data();
        let good = GaussianProcess::fit(Matern52::isotropic(1.0, 0.15, 1), 1e-4, &xs, &ys);
        let bad = GaussianProcess::fit(Matern52::isotropic(1.0, 1e-3, 1), 1e-4, &xs, &ys);
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }

    #[test]
    fn thompson_samples_spread_with_variance() {
        let (xs, ys) = toy_data();
        let gp = GaussianProcess::fit(Matern52::isotropic(1.0, 0.1, 1), 1e-6, &xs, &ys);
        let normal = StandardNormal::new();
        let mut rng = seeded(10);
        let far: Vec<f64> =
            (0..200).map(|_| gp.thompson_sample(&[5.0], &normal, &mut rng)).collect();
        let near: Vec<f64> =
            (0..200).map(|_| gp.thompson_sample(&[0.5], &normal, &mut rng)).collect();
        assert!(glova_stats::descriptive::std_dev(&far) > glova_stats::descriptive::std_dev(&near));
    }

    #[test]
    fn batched_thompson_values_are_bitwise_sequential_samples() {
        let mut rng = seeded(11);
        let dim = 3;
        for n in [1, 5, 9] {
            let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..dim).map(|_| rng.gen()).collect()).collect();
            let ys: Vec<f64> = xs.iter().map(|x| x.iter().map(|v| (4.0 * v).sin()).sum()).collect();
            let gp = GaussianProcess::fit_auto(&xs, &ys, &mut rng);
            // 11 queries: two whole blocks and a remainder of three.
            let queries: Vec<f64> = (0..11 * dim).map(|_| rng.gen()).collect();
            let normal = StandardNormal::new();
            let mut draw_rng = seeded(12);
            let z: Vec<f64> = (0..11).map(|_| normal.sample(&mut draw_rng)).collect();
            let batched = gp.thompson_values(&queries, &z);

            let normal = StandardNormal::new();
            let mut draw_rng = seeded(12);
            for (q, value) in queries.chunks_exact(dim).zip(&batched) {
                let single = gp.thompson_sample(q, &normal, &mut draw_rng);
                assert_eq!(value.to_bits(), single.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero observations")]
    fn empty_fit_panics() {
        GaussianProcess::fit(Matern52::isotropic(1.0, 0.1, 1), 1e-6, &[], &[]);
    }

    #[test]
    fn prediction_scale_restored() {
        // Targets far from zero: prediction must come back in original units.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 500.0 + 3.0 * x[0]).collect();
        let gp = GaussianProcess::fit(Matern52::isotropic(1.0, 0.5, 1), 1e-6, &xs, &ys);
        let (mu, _) = gp.predict(&[0.5]);
        assert!((mu - 501.5).abs() < 0.5, "{mu}");
    }
}
