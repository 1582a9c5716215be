//! A fully connected layer with batched forward/backward kernels.
//!
//! Both passes work on row-major `rows × width` blocks, one row per
//! sample, so a minibatch goes through a layer in one call and a single
//! sample is simply a block of one row. The kernels only re-block the
//! per-sample loops; they never reorder a sum:
//!
//! - every pre-activation is one serial chain over the inputs in index
//!   order, started at `-0.0` like `Iterator::sum::<f64>`, then `+ bias`;
//! - the backward pass takes the activation derivative from the output
//!   (see [`Activation::derivative_from_output`]), so only outputs are
//!   kept;
//! - every parameter gradient adds its per-sample terms in row order;
//! - every input gradient adds its per-output terms in output order,
//!   starting from `0.0`.
//!
//! A block of `b` rows is therefore bitwise equal to `b` one-row calls.

use crate::init::Init;
use crate::Activation;
use glova_stats::normal::StandardNormal;
use rand::Rng;

/// Output units per forward register block.
const OUT_BLOCK: usize = 4;
/// Rows (samples) per forward register block.
const ROW_BLOCK: usize = 2;

/// A dense layer `y = act(W x + b)`.
///
/// Weights are stored row-major, one row per output unit, so the backward
/// pass walks memory contiguously.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weights: Vec<f64>, // out × in, row-major
    biases: Vec<f64>,  // out
    fan_in: usize,
    fan_out: usize,
    activation: Activation,
}

/// Parameter gradients for one layer, same shapes as the parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGradients {
    /// `∂L/∂W`, row-major `out × in`.
    pub weights: Vec<f64>,
    /// `∂L/∂b`.
    pub biases: Vec<f64>,
}

impl LayerGradients {
    /// Zero gradients for a `fan_in → fan_out` layer.
    pub fn zeros(fan_in: usize, fan_out: usize) -> Self {
        Self { weights: vec![0.0; fan_in * fan_out], biases: vec![0.0; fan_out] }
    }

    /// Resets every entry to `0.0`, keeping the buffers.
    pub(crate) fn set_zero(&mut self) {
        self.weights.fill(0.0);
        self.biases.fill(0.0);
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, other: &LayerGradients) {
        assert_eq!(self.weights.len(), other.weights.len(), "gradient shape mismatch");
        glova_linalg_axpy(&other.weights, &mut self.weights);
        glova_linalg_axpy(&other.biases, &mut self.biases);
    }

    /// In-place scaling (used to average over a batch).
    pub fn scale(&mut self, s: f64) {
        for w in &mut self.weights {
            *w *= s;
        }
        for b in &mut self.biases {
            *b *= s;
        }
    }
}

// Tiny local helper; avoids a dependency edge from nn to linalg for one axpy.
fn glova_linalg_axpy(src: &[f64], dst: &mut [f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

impl Linear {
    /// Creates a layer with activation-appropriate random initialization.
    pub fn new<R: Rng + ?Sized>(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let normal = StandardNormal::new();
        let init = Init::for_activation(activation);
        let weights =
            (0..fan_in * fan_out).map(|_| init.sample(rng, &normal, fan_in, fan_out)).collect();
        Self { weights, biases: vec![0.0; fan_out], fan_in, fan_out, activation }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable parameter views `(weights, biases)`.
    pub fn params(&self) -> (&[f64], &[f64]) {
        (&self.weights, &self.biases)
    }

    /// Mutable parameter views `(weights, biases)`.
    pub fn params_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.weights, &mut self.biases)
    }

    /// Forward pass over a row-major `rows × fan_in` block `x`: writes
    /// the activations `act(W x + b)` to `out`, row-major `rows × fan_out`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a whole number of rows or `out` has the wrong
    /// size.
    pub fn forward(&self, x: &[f64], out: &mut [f64]) {
        let rows = self.rows_of(x);
        assert_eq!(out.len(), rows * self.fan_out, "layer output size mismatch");
        let mut o = 0;
        while o + OUT_BLOCK <= self.fan_out {
            self.forward_outputs::<OUT_BLOCK>(o, x, out);
            o += OUT_BLOCK;
        }
        for o in o..self.fan_out {
            self.forward_outputs::<1>(o, x, out);
        }
    }

    /// Activations of outputs `o0 .. o0 + NO` for every row of `x`.
    fn forward_outputs<const NO: usize>(&self, o0: usize, x: &[f64], out: &mut [f64]) {
        let n = self.fan_in;
        let w: [&[f64]; NO] =
            std::array::from_fn(|k| &self.weights[(o0 + k) * n..(o0 + k + 1) * n]);
        let rows = x.len() / n;
        let mut s = 0;
        while s + ROW_BLOCK <= rows {
            let xs: [&[f64]; ROW_BLOCK] = std::array::from_fn(|j| &x[(s + j) * n..(s + j + 1) * n]);
            self.store(o0, s, dot_block(&w, &xs), out);
            s += ROW_BLOCK;
        }
        for s in s..rows {
            self.store(o0, s, dot_block(&w, &[&x[s * n..(s + 1) * n]]), out);
        }
    }

    /// Writes `act(z[k][j] + b[o0 + k])` to row `s0 + j`, output `o0 + k`.
    fn store<const NO: usize, const NS: usize>(
        &self,
        o0: usize,
        s0: usize,
        z: [[f64; NS]; NO],
        out: &mut [f64],
    ) {
        for (k, zk) in z.iter().enumerate() {
            for (j, &zkj) in zk.iter().enumerate() {
                out[(s0 + j) * self.fan_out + o0 + k] =
                    self.activation.apply(zkj + self.biases[o0 + k]);
            }
        }
    }

    /// Backward pass over the block of the last [`Linear::forward`].
    ///
    /// `x` and `y` are that call's input and output. `delta` holds
    /// `∂L/∂y` (row-major `rows × fan_out`) on entry and `∂L/∂z` on
    /// return. When `grads` is given, each row's `∂L/∂W`, `∂L/∂b` are
    /// added into it in row order. When `grad_input` is given, it receives
    /// `∂L/∂x` (row-major `rows × fan_in`). Skipping either skips its work.
    ///
    /// # Panics
    ///
    /// Panics if the blocks' sizes disagree with each other or with the
    /// layer.
    pub fn backward(
        &self,
        x: &[f64],
        y: &[f64],
        delta: &mut [f64],
        grads: Option<&mut LayerGradients>,
        grad_input: Option<&mut [f64]>,
    ) {
        let (n_in, n_out) = (self.fan_in, self.fan_out);
        let rows = self.rows_of(x);
        assert_eq!(y.len(), rows * n_out, "layer output size mismatch");
        assert_eq!(delta.len(), rows * n_out, "grad width mismatch");
        // δ = ∂L/∂z = ∂L/∂y · act'(z)
        for (d, &y) in delta.iter_mut().zip(y) {
            *d *= self.activation.derivative_from_output(y);
        }
        if let Some(grads) = grads {
            assert_eq!(grads.weights.len(), self.weights.len(), "gradient shape mismatch");
            for (xs, ds) in x.chunks_exact(n_in).zip(delta.chunks_exact(n_out)) {
                for (gb, d) in grads.biases.iter_mut().zip(ds) {
                    *gb += d;
                }
                for (g_row, &d) in grads.weights.chunks_exact_mut(n_in).zip(ds) {
                    for (g, xi) in g_row.iter_mut().zip(xs) {
                        *g += d * xi;
                    }
                }
            }
        }
        if let Some(grad_input) = grad_input {
            assert_eq!(grad_input.len(), rows * n_in, "layer input width mismatch");
            grad_input.fill(0.0);
            for (gs, ds) in grad_input.chunks_exact_mut(n_in).zip(delta.chunks_exact(n_out)) {
                for (w_row, &d) in self.weights.chunks_exact(n_in).zip(ds) {
                    for (g, w) in gs.iter_mut().zip(w_row) {
                        *g += d * w;
                    }
                }
            }
        }
    }

    /// Rows in the input block `x`.
    fn rows_of(&self, x: &[f64]) -> usize {
        assert_eq!(x.len() % self.fan_in, 0, "layer input width mismatch");
        x.len() / self.fan_in
    }

    /// Applies `params -= lr * grads` (plain SGD step, used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes differ from parameter shapes.
    pub fn apply_gradients(&mut self, grads: &LayerGradients, lr: f64) {
        assert_eq!(grads.weights.len(), self.weights.len(), "gradient shape mismatch");
        for (w, g) in self.weights.iter_mut().zip(&grads.weights) {
            *w -= lr * g;
        }
        for (b, g) in self.biases.iter_mut().zip(&grads.biases) {
            *b -= lr * g;
        }
    }
}

/// `z[k][j] = Σ_i w[k][i] · x[j][i]` for a register block of `NO` weight
/// rows and `NS` input rows. Each of the `NO × NS` sums is its own serial
/// chain in index order, started at `-0.0`: the independent chains hide
/// the add latency without reassociating any sum.
#[inline(always)]
fn dot_block<const NO: usize, const NS: usize>(
    w: &[&[f64]; NO],
    x: &[&[f64]; NS],
) -> [[f64; NS]; NO] {
    let n = w[0].len();
    let w: [&[f64]; NO] = w.map(|r| &r[..n]);
    let x: [&[f64]; NS] = x.map(|r| &r[..n]);
    let mut acc = [[-0.0; NS]; NO];
    for i in 0..n {
        for k in 0..NO {
            for j in 0..NS {
                acc[k][j] += w[k][i] * x[j][i];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::rng::seeded;

    fn tiny_layer() -> Linear {
        let mut rng = seeded(1);
        Linear::new(3, 2, Activation::Tanh, &mut rng)
    }

    fn forward(layer: &Linear, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len() / layer.fan_in() * layer.fan_out()];
        layer.forward(x, &mut out);
        out
    }

    fn sum_of_outputs(layer: &Linear, x: &[f64]) -> f64 {
        forward(layer, x).iter().sum()
    }

    #[test]
    fn forward_matches_scalar_formula() {
        let layer = tiny_layer();
        let x = [0.1, -0.2, 0.3];
        let (w, b) = layer.params();
        let expect: Vec<f64> = (0..2)
            .map(|o| {
                let z: f64 = w[o * 3..o * 3 + 3].iter().zip(&x).map(|(w, x)| w * x).sum::<f64>();
                (z + b[o]).tanh()
            })
            .collect();
        assert_eq!(forward(&layer, &x), expect);
    }

    #[test]
    fn identity_layer_is_affine() {
        let mut rng = seeded(2);
        let mut layer = Linear::new(2, 2, Activation::Identity, &mut rng);
        {
            let (w, b) = layer.params_mut();
            w.copy_from_slice(&[1.0, 0.0, 0.0, 1.0]);
            b.copy_from_slice(&[0.5, -0.5]);
        }
        assert_eq!(forward(&layer, &[1.0, 2.0]), vec![1.5, 1.5]);
    }

    #[test]
    fn gradient_check_weights_and_input() {
        let layer = tiny_layer();
        let x = [0.4, -0.7, 0.2];
        let eps = 1e-6;

        // Loss: sum of outputs (grad_output = ones).
        let y = forward(&layer, &x);
        let mut delta = vec![1.0, 1.0];
        let mut grads = LayerGradients::zeros(3, 2);
        let mut grad_in = vec![0.0; 3];
        layer.backward(&x, &y, &mut delta, Some(&mut grads), Some(&mut grad_in));

        // Check input gradient by finite differences.
        for i in 0..3 {
            let mut xp = x;
            let mut xm = x;
            xp[i] += eps;
            xm[i] -= eps;
            let numeric = (sum_of_outputs(&layer, &xp) - sum_of_outputs(&layer, &xm)) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-5,
                "input grad {i}: numeric {numeric} vs {got}",
                got = grad_in[i]
            );
        }

        // Check a few weight gradients.
        for idx in [0usize, 2, 5] {
            let mut lp = layer.clone();
            let mut lm = layer.clone();
            lp.params_mut().0[idx] += eps;
            lm.params_mut().0[idx] -= eps;
            let numeric = (sum_of_outputs(&lp, &x) - sum_of_outputs(&lm, &x)) / (2.0 * eps);
            assert!(
                (numeric - grads.weights[idx]).abs() < 1e-5,
                "weight grad {idx}: numeric {numeric} vs {got}",
                got = grads.weights[idx]
            );
        }

        // Bias gradient check.
        for idx in [0usize, 1] {
            let mut lp = layer.clone();
            let mut lm = layer.clone();
            lp.params_mut().1[idx] += eps;
            lm.params_mut().1[idx] -= eps;
            let numeric = (sum_of_outputs(&lp, &x) - sum_of_outputs(&lm, &x)) / (2.0 * eps);
            assert!((numeric - grads.biases[idx]).abs() < 1e-5);
        }
    }

    #[test]
    fn skipped_gradients_leave_the_others_unchanged() {
        let mut rng = seeded(3);
        let layer = Linear::new(5, 3, Activation::Relu, &mut rng);
        let x: Vec<f64> = (0..15).map(|i| (i as f64 * 0.31).sin()).collect();
        let y = forward(&layer, &x);
        let grad_out: Vec<f64> = (0..9).map(|i| (i as f64 * 0.7).cos()).collect();

        let mut both = LayerGradients::zeros(5, 3);
        let mut both_in = vec![0.0; 15];
        layer.backward(&x, &y, &mut grad_out.clone(), Some(&mut both), Some(&mut both_in));

        let mut params_only = LayerGradients::zeros(5, 3);
        layer.backward(&x, &y, &mut grad_out.clone(), Some(&mut params_only), None);
        let mut input_only = vec![0.0; 15];
        layer.backward(&x, &y, &mut grad_out.clone(), None, Some(&mut input_only));

        assert_eq!(both, params_only);
        assert_eq!(both_in, input_only);
    }

    #[test]
    fn accumulate_and_scale() {
        let mut a = LayerGradients::zeros(2, 1);
        let b = LayerGradients { weights: vec![1.0, 2.0], biases: vec![3.0] };
        a.accumulate(&b);
        a.accumulate(&b);
        a.scale(0.5);
        assert_eq!(a.weights, vec![1.0, 2.0]);
        assert_eq!(a.biases, vec![3.0]);
        a.set_zero();
        assert_eq!(a, LayerGradients::zeros(2, 1));
    }

    #[test]
    fn apply_gradients_moves_downhill() {
        let mut layer = tiny_layer();
        let x = [0.5, 0.5, -0.5];
        let target = 0.3;
        let loss = |l: &Linear| {
            let y = sum_of_outputs(l, &x);
            (y - target) * (y - target)
        };
        let before = loss(&layer);
        let mut grads = LayerGradients::zeros(3, 2);
        for _ in 0..50 {
            let out = forward(&layer, &x);
            let y: f64 = out.iter().sum();
            let mut delta = vec![2.0 * (y - target); 2];
            grads.set_zero();
            layer.backward(&x, &out, &mut delta, Some(&mut grads), None);
            layer.apply_gradients(&grads, 0.05);
        }
        assert!(loss(&layer) < before * 0.1, "did not descend: {before} -> {}", loss(&layer));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        forward(&tiny_layer(), &[1.0]);
    }
}
