//! The ensemble-based critic (paper §IV.B).
//!
//! Modeling true worst-case reliability bounds would need >1000 MC samples
//! per iteration; instead GLOVA trains an ensemble of base models on the
//! few (`N' = 2–5`) sampled worst cases and uses the ensemble spread as an
//! epistemic-uncertainty proxy:
//!
//! ```text
//! Q(x) = E[Q_i(x)] + β₁ · σ[Q_i(x)],   β₁ < 0  (risk avoidance)
//! ```
//!
//! Each base model trains on its own independently drawn batch, so the
//! ensemble retains diversity ("randomness and varying initialization").

use glova_nn::{Activation, Adam, Gradients, Mlp, MlpConfig, Workspace};
use glova_stats::descriptive::RunningStats;
use rand::Rng;

/// Ensemble critic with the risk-sensitive aggregation of Eq. 6.
#[derive(Debug, Clone)]
pub struct EnsembleCritic {
    bases: Vec<Mlp>,
    optimizers: Vec<Adam>,
    beta1: f64,
    bias: f64,
    scratch: Scratch,
}

/// Reusable buffers for the critic's batched passes.
#[derive(Debug, Clone)]
struct Scratch {
    /// One workspace per base model: the fused pass keeps every base's
    /// activations alive until its input-gradient backward.
    workspaces: Vec<Workspace>,
    grads: Gradients,
    grad_out: Vec<f64>,
    /// Base predictions, row-major `rows × ensemble_size`.
    preds: Vec<f64>,
    /// `∂Q/∂Q_i`, row-major `ensemble_size × rows`.
    weights: Vec<f64>,
    q: Vec<f64>,
    grad: Vec<f64>,
}

impl Scratch {
    /// Buffers sized for batches of `rows` rows.
    fn new(bases: &[Mlp], rows: usize) -> Self {
        let input_dim = bases[0].input_dim();
        Self {
            workspaces: bases.iter().map(|b| Workspace::new(b, rows)).collect(),
            grads: Gradients::zeros_like(&bases[0]),
            grad_out: Vec::with_capacity(rows),
            preds: Vec::with_capacity(rows * bases.len()),
            weights: Vec::with_capacity(rows * bases.len()),
            q: Vec::with_capacity(rows),
            grad: Vec::with_capacity(rows * input_dim),
        }
    }

    /// `Q` and `∂Q/∂x` for every row of `x`: one forward and one
    /// input-gradient backward per base model.
    fn q_and_input_gradient(&mut self, bases: &[Mlp], beta1: f64, bias: f64, x: &[f64]) {
        let n_bases = bases.len();
        let input_dim = bases[0].input_dim();
        assert_eq!(x.len() % input_dim, 0, "critic input width mismatch");
        let rows = x.len() / input_dim;

        self.preds.resize(rows * n_bases, 0.0);
        for (i, (base, ws)) in bases.iter().zip(&mut self.workspaces).enumerate() {
            for (s, out) in base.forward_batch(x, ws).iter().enumerate() {
                self.preds[s * n_bases + i] = out + bias;
            }
        }

        // Per row: Q as `predict` forms it, then ∂Q/∂Q_i = 1/n + β₁(Q_i − µ)/(nσ).
        let n = n_bases as f64;
        self.q.clear();
        self.weights.resize(n_bases * rows, 0.0);
        for (s, preds) in self.preds.chunks_exact(n_bases).enumerate() {
            let stats: RunningStats = preds.iter().copied().collect();
            self.q.push(stats.mean() + beta1 * stats.std_dev());
            let mean = preds.iter().sum::<f64>() / n;
            let var = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
            let std = var.sqrt();
            for (i, &pred) in preds.iter().enumerate() {
                let mut weight = 1.0 / n;
                if std > 1e-12 {
                    weight += beta1 * (pred - mean) / (n * std);
                }
                self.weights[i * rows + s] = weight;
            }
        }

        self.grad.clear();
        self.grad.resize(x.len(), 0.0);
        for (i, (base, ws)) in bases.iter().zip(&mut self.workspaces).enumerate() {
            let g_in = base.input_gradient_batch(x, ws, &self.weights[i * rows..(i + 1) * rows]);
            for (g, gi) in self.grad.iter_mut().zip(g_in) {
                *g += gi;
            }
        }
    }
}

impl EnsembleCritic {
    /// Creates an ensemble of `ensemble_size` base models for designs of
    /// dimension `input_dim`.
    ///
    /// `beta1` is the risk parameter of Eq. 6 (the paper uses −3);
    /// `bias` is the constant reward offset of Algorithm 1's losses
    /// (see `DESIGN.md` §5, default 0).
    ///
    /// # Panics
    ///
    /// Panics if `ensemble_size == 0` or `input_dim == 0`.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        ensemble_size: usize,
        hidden: &[usize],
        beta1: f64,
        learning_rate: f64,
        bias: f64,
        rng: &mut R,
    ) -> Self {
        assert!(ensemble_size > 0, "ensemble must have at least one base model");
        let config = MlpConfig::new(input_dim, hidden, 1, Activation::Relu);
        let bases: Vec<Mlp> = (0..ensemble_size).map(|_| Mlp::new(&config, rng)).collect();
        let optimizers = (0..ensemble_size).map(|_| Adam::new(learning_rate)).collect();
        let scratch = Scratch::new(&bases, 1);
        Self { bases, optimizers, beta1, bias, scratch }
    }

    /// Sizes the reusable buffers for batches of `rows` rows, so batched
    /// passes of that size allocate nothing.
    pub(crate) fn reserve_rows(&mut self, rows: usize) {
        self.scratch = Scratch::new(&self.bases, rows);
    }

    /// Number of base models.
    pub fn ensemble_size(&self) -> usize {
        self.bases.len()
    }

    /// The risk parameter β₁.
    pub fn beta1(&self) -> f64 {
        self.beta1
    }

    /// Raw base-model predictions at `x`.
    pub fn base_predictions(&self, x: &[f64]) -> Vec<f64> {
        self.bases.iter().map(|b| b.forward(x)[0] + self.bias).collect()
    }

    /// Ensemble mean and (population) standard deviation at `x`.
    pub fn predict_detail(&self, x: &[f64]) -> (f64, f64) {
        let preds = self.base_predictions(x);
        let stats: RunningStats = preds.into_iter().collect();
        (stats.mean(), stats.std_dev())
    }

    /// The design reliability bound `Q(x) = E[Q_i] + β₁σ[Q_i]` (Eq. 6).
    pub fn predict(&self, x: &[f64]) -> f64 {
        let (mean, std) = self.predict_detail(x);
        mean + self.beta1 * std
    }

    /// Exact gradient `∂Q/∂x` of the risk-sensitive aggregate: a batch of
    /// one through [`EnsembleCritic::q_and_input_gradient`].
    pub fn input_gradient(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.bases[0].input_dim(), "critic input width mismatch");
        let mut scratch = Scratch::new(&self.bases, 1);
        scratch.q_and_input_gradient(&self.bases, self.beta1, self.bias, x);
        scratch.grad
    }

    /// `Q` and the exact gradient `∂Q/∂x` at every row of a row-major
    /// `rows × input_dim` block, in one fused pass: each base model runs
    /// one forward and one input-gradient backward over the whole block.
    ///
    /// With `µ = Σ Q_i/n` and `σ = √(Σ(Q_i−µ)²/n)`:
    /// `∂Q/∂Q_i = 1/n + β₁(Q_i − µ)/(nσ)`, then chained through each base
    /// model's input gradient. The σ-term is dropped when σ ≈ 0
    /// (subgradient at the non-differentiable point). `Q` is bitwise what
    /// [`EnsembleCritic::predict`] returns for the row.
    ///
    /// Returns `(q, grad)`: `rows` values and a `rows × input_dim` block.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a whole number of rows.
    pub fn q_and_input_gradient(&mut self, x: &[f64]) -> (&[f64], &[f64]) {
        self.scratch.q_and_input_gradient(&self.bases, self.beta1, self.bias, x);
        (&self.scratch.q, &self.scratch.grad)
    }

    /// One training step: base model `i` regresses its own batch
    /// `(x̂, r̂)` with the loss `MSE(r̂, Q_i(x̂) + bias)` (Algorithm 1).
    ///
    /// `targets` holds one equally sized batch per base model, back to
    /// back, and `inputs` their row-major input rows in the same order:
    /// base model `i` trains on rows `i·b..(i+1)·b`. Each batch runs as
    /// one batched forward and backward pass; empty batches train nothing.
    ///
    /// # Panics
    ///
    /// Panics if `targets` does not split into `ensemble_size()` equal
    /// batches, or `inputs` is not one row per target.
    pub fn train_batches(&mut self, inputs: &[f64], targets: &[f64]) {
        let rows = targets.len() / self.bases.len();
        assert_eq!(targets.len(), rows * self.bases.len(), "need one batch per base model");
        let input_dim = self.bases[0].input_dim();
        assert_eq!(inputs.len(), targets.len() * input_dim, "need one input row per target");
        if rows == 0 {
            return;
        }
        let s = &mut self.scratch;
        let bases = self.bases.iter_mut().zip(&mut self.optimizers).zip(&mut s.workspaces);
        let batches = inputs.chunks_exact(rows * input_dim).zip(targets.chunks_exact(rows));
        for (((base, opt), ws), (x, r)) in bases.zip(batches) {
            let out = base.forward_batch(x, ws);
            s.grad_out.clear();
            for (o, r) in out.iter().zip(r) {
                let pred = o + self.bias;
                s.grad_out.push(2.0 * (pred - r) / rows as f64);
            }
            s.grads.set_zero();
            base.backward_batch(x, ws, &s.grad_out, &mut s.grads);
            s.grads.clip_global_norm(10.0);
            opt.step(base, &s.grads);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::rng::seeded;

    fn small_critic(seed: u64, ensemble: usize, beta1: f64) -> EnsembleCritic {
        let mut rng = seeded(seed);
        EnsembleCritic::new(2, ensemble, &[16, 16], beta1, 1e-2, 0.0, &mut rng)
    }

    #[test]
    fn single_model_has_zero_spread() {
        let critic = small_critic(1, 1, -3.0);
        let (_, std) = critic.predict_detail(&[0.3, 0.7]);
        assert_eq!(std, 0.0);
        // And predict == mean (risk term inactive).
        let (mean, _) = critic.predict_detail(&[0.3, 0.7]);
        assert_eq!(critic.predict(&[0.3, 0.7]), mean);
    }

    #[test]
    fn negative_beta_lowers_bound_under_disagreement() {
        let critic = small_critic(2, 5, -3.0);
        let x = [0.2, 0.8];
        let (mean, std) = critic.predict_detail(&x);
        assert!(std > 0.0, "fresh ensemble should disagree");
        assert!(critic.predict(&x) < mean);
    }

    #[test]
    fn training_fits_target_function_and_shrinks_spread() {
        let mut rng = seeded(3);
        let mut critic = small_critic(4, 5, -3.0);
        // Target: r(x) = x0 - x1.
        let xs: Vec<Vec<f64>> = (0..50).map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()]).collect();
        let spread_before: f64 = xs.iter().map(|x| critic.predict_detail(x).1).sum::<f64>();
        let (mut inputs, mut targets) = (Vec::new(), Vec::new());
        for _ in 0..300 {
            inputs.clear();
            targets.clear();
            for _ in 0..5 * 10 {
                let i = rng.gen_range(0..xs.len());
                inputs.extend_from_slice(&xs[i]);
                targets.push(xs[i][0] - xs[i][1]);
            }
            critic.train_batches(&inputs, &targets);
        }
        let mut max_err = 0.0f64;
        let mut spread_after = 0.0;
        for x in &xs {
            let (mean, std) = critic.predict_detail(x);
            max_err = max_err.max((mean - (x[0] - x[1])).abs());
            spread_after += std;
        }
        assert!(max_err < 0.15, "critic did not fit: max err {max_err}");
        assert!(
            spread_after < spread_before,
            "spread should shrink with data: {spread_after} vs {spread_before}"
        );
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let critic = small_critic(5, 4, -2.0);
        let x = [0.4, 0.6];
        let grad = critic.input_gradient(&x);
        let eps = 1e-6;
        for d in 0..2 {
            let mut xp = x;
            let mut xm = x;
            xp[d] += eps;
            xm[d] -= eps;
            let numeric = (critic.predict(&xp) - critic.predict(&xm)) / (2.0 * eps);
            assert!(
                (numeric - grad[d]).abs() < 1e-4,
                "dim {d}: numeric {numeric} vs analytic {}",
                grad[d]
            );
        }
    }

    #[test]
    fn fused_pass_matches_predict_and_finite_differences() {
        // Three rows in one fused pass: each row's Q is bitwise `predict`,
        // its gradient bitwise the batch-of-one `input_gradient`, and both
        // match central finite differences.
        let mut critic = small_critic(8, 5, -3.0);
        let xs = [0.4, 0.6, 0.1, 0.9, 0.7, 0.2];
        let (q, grad) = critic.q_and_input_gradient(&xs);
        let (q, grad) = (q.to_vec(), grad.to_vec());
        let eps = 1e-6;
        for (s, row) in xs.chunks(2).enumerate() {
            assert_eq!(q[s].to_bits(), critic.predict(row).to_bits());
            let one = critic.input_gradient(row);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&one), bits(&grad[s * 2..s * 2 + 2]));
            for d in 0..2 {
                let (mut xp, mut xm) = (row.to_vec(), row.to_vec());
                xp[d] += eps;
                xm[d] -= eps;
                let numeric = (critic.predict(&xp) - critic.predict(&xm)) / (2.0 * eps);
                assert!((numeric - one[d]).abs() < 1e-4, "row {s} dim {d}");
            }
        }
    }

    #[test]
    fn bias_offsets_predictions() {
        let mut rng = seeded(6);
        let c0 = EnsembleCritic::new(2, 3, &[8], -1.0, 1e-3, 0.0, &mut rng);
        let mut rng = seeded(6);
        let c1 = EnsembleCritic::new(2, 3, &[8], -1.0, 1e-3, 0.5, &mut rng);
        let x = [0.5, 0.5];
        let (m0, s0) = c0.predict_detail(&x);
        let (m1, s1) = c1.predict_detail(&x);
        assert!((m1 - m0 - 0.5).abs() < 1e-12);
        assert!((s1 - s0).abs() < 1e-12, "bias must not change spread");
    }

    #[test]
    #[should_panic(expected = "one batch per base model")]
    fn wrong_batch_count_panics() {
        let mut critic = small_critic(7, 3, -1.0);
        // Two one-row batches for three base models.
        critic.train_batches(&[0.5; 4], &[0.0; 2]);
    }
}
