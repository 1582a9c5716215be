//! Multi-layer perceptrons composed of [`Linear`] layers.

use crate::layer::LayerGradients;
use crate::{Activation, Linear};
use rand::Rng;

/// Architecture description for an [`Mlp`].
///
/// # Example
///
/// ```
/// use glova_nn::{Activation, MlpConfig};
/// // The paper's 4-layer actor for a 14-parameter design space:
/// let cfg = MlpConfig::new(14, &[64, 64, 64], 14, Activation::Relu)
///     .with_output_activation(Activation::Sigmoid);
/// assert_eq!(cfg.layer_sizes(), vec![(14, 64), (64, 64), (64, 64), (64, 14)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    input_dim: usize,
    hidden: Vec<usize>,
    output_dim: usize,
    hidden_activation: Activation,
    output_activation: Activation,
}

impl MlpConfig {
    /// Creates a config with the given hidden widths; the output layer
    /// defaults to [`Activation::Identity`].
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `output_dim` is zero.
    pub fn new(
        input_dim: usize,
        hidden: &[usize],
        output_dim: usize,
        hidden_activation: Activation,
    ) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        assert!(output_dim > 0, "output_dim must be positive");
        assert!(hidden.iter().all(|&h| h > 0), "hidden widths must be positive");
        Self {
            input_dim,
            hidden: hidden.to_vec(),
            output_dim,
            hidden_activation,
            output_activation: Activation::Identity,
        }
    }

    /// Sets the output activation (builder style).
    pub fn with_output_activation(mut self, activation: Activation) -> Self {
        self.output_activation = activation;
        self
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// `(fan_in, fan_out)` per layer, in order.
    pub fn layer_sizes(&self) -> Vec<(usize, usize)> {
        let mut sizes = Vec::with_capacity(self.hidden.len() + 1);
        let mut prev = self.input_dim;
        for &h in &self.hidden {
            sizes.push((prev, h));
            prev = h;
        }
        sizes.push((prev, self.output_dim));
        sizes
    }
}

/// A feed-forward network.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Reusable buffers for batched passes through one [`Mlp`] architecture.
///
/// Holds each layer's activations for a batch of rows, plus two gradient
/// buffers the backward pass alternates between. A pass over more rows
/// than the buffers hold grows them once; after that, passes allocate
/// nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Workspace {
    /// `(fan_in, fan_out)` per layer, to check the network matches.
    shapes: Vec<(usize, usize)>,
    capacity: usize,
    /// Rows of the last forward pass.
    rows: usize,
    act: Vec<Vec<f64>>,
    /// `∂L/∂(layer output)` for alternate layers; the input gradient ends
    /// in `grad[layers % 2]`.
    grad: [Vec<f64>; 2],
}

impl Workspace {
    /// Buffers for `net`, sized for `capacity` rows.
    pub fn new(net: &Mlp, capacity: usize) -> Self {
        let shapes: Vec<(usize, usize)> =
            net.layers.iter().map(|l| (l.fan_in(), l.fan_out())).collect();
        let mut ws = Self {
            act: vec![Vec::new(); shapes.len()],
            grad: [Vec::new(), Vec::new()],
            shapes,
            capacity: 0,
            rows: 0,
        };
        ws.reserve(capacity);
        ws
    }

    /// Grows the buffers to hold `rows` rows (never shrinks).
    fn reserve(&mut self, rows: usize) {
        if rows <= self.capacity {
            return;
        }
        let mut widest = 0;
        for (act, &(fan_in, fan_out)) in self.act.iter_mut().zip(&self.shapes) {
            act.resize(rows * fan_out, 0.0);
            widest = widest.max(fan_in).max(fan_out);
        }
        for grad in &mut self.grad {
            grad.resize(rows * widest, 0.0);
        }
        self.capacity = rows;
    }

    fn check(&self, net: &Mlp) {
        let shapes = net.layers.iter().map(|l| (l.fan_in(), l.fan_out()));
        assert!(
            self.shapes.iter().copied().eq(shapes),
            "workspace built for a different architecture"
        );
    }
}

/// Parameter gradients for an entire [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    layers: Vec<LayerGradients>,
}

impl Gradients {
    /// Zero gradients shaped like `net`.
    pub fn zeros_like(net: &Mlp) -> Self {
        Self {
            layers: net
                .layers
                .iter()
                .map(|l| LayerGradients::zeros(l.fan_in(), l.fan_out()))
                .collect(),
        }
    }

    /// Resets every entry to `0.0`, keeping the buffers.
    pub fn set_zero(&mut self) {
        for l in &mut self.layers {
            l.set_zero();
        }
    }

    /// Per-layer gradient list.
    pub fn layers(&self) -> &[LayerGradients] {
        &self.layers
    }

    /// Mutable per-layer gradient list (used by optimizer state buffers).
    pub fn layers_mut(&mut self) -> &mut [LayerGradients] {
        &mut self.layers
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, other: &Gradients) {
        assert_eq!(self.layers.len(), other.layers.len(), "gradient layer count mismatch");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.accumulate(b);
        }
    }

    /// In-place scaling (e.g. `1/batch`).
    pub fn scale(&mut self, s: f64) {
        for l in &mut self.layers {
            l.scale(s);
        }
    }

    /// Global L2 norm across all parameters — for gradient clipping.
    pub fn global_norm(&self) -> f64 {
        let mut sum = 0.0;
        for l in &self.layers {
            sum += l.weights.iter().map(|g| g * g).sum::<f64>();
            sum += l.biases.iter().map(|g| g * g).sum::<f64>();
        }
        sum.sqrt()
    }

    /// Clips the global norm to `max_norm` (no-op when already below).
    pub fn clip_global_norm(&mut self, max_norm: f64) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }
}

impl Mlp {
    /// Builds a freshly initialized network.
    pub fn new<R: Rng + ?Sized>(config: &MlpConfig, rng: &mut R) -> Self {
        let sizes = config.layer_sizes();
        let last = sizes.len() - 1;
        let layers = sizes
            .iter()
            .enumerate()
            .map(|(i, &(fan_in, fan_out))| {
                let act =
                    if i == last { config.output_activation } else { config.hidden_activation };
                Linear::new(fan_in, fan_out, act, rng)
            })
            .collect();
        Self { layers }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::fan_in)
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::fan_out)
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Mutable access to the layers (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [Linear] {
        &mut self.layers
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.fan_in() * l.fan_out() + l.fan_out()).sum()
    }

    /// Forward pass for one input: a batch of one through
    /// [`Mlp::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim(), "layer input width mismatch");
        self.forward_batch(x, &mut Workspace::new(self, 1)).to_vec()
    }

    /// Forward pass over a row-major `rows × input_dim` block; returns the
    /// `rows × output_dim` outputs and keeps every layer's activations in
    /// `ws` for a following backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a whole number of rows or `ws` was built for
    /// another architecture.
    pub fn forward_batch<'w>(&self, x: &[f64], ws: &'w mut Workspace) -> &'w [f64] {
        ws.check(self);
        assert_eq!(x.len() % self.input_dim(), 0, "layer input width mismatch");
        let rows = x.len() / self.input_dim();
        ws.reserve(rows);
        ws.rows = rows;
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.act.split_at_mut(l);
            let input = if l == 0 { x } else { &done[l - 1][..rows * layer.fan_in()] };
            layer.forward(input, &mut rest[0][..rows * layer.fan_out()]);
        }
        let last = self.layers.len() - 1;
        &ws.act[last][..rows * self.output_dim()]
    }

    /// Backward pass for the last [`Mlp::forward_batch`] through `ws`
    /// over input `x`: adds each row's parameter gradients of the loss
    /// with `∂L/∂output = grad_output` into `grads`, in row order.
    ///
    /// Accumulating a batch of `b` rows is bitwise equal to accumulating
    /// `b` one-row passes in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `grad_output` do not match the forward pass.
    pub fn backward_batch(
        &self,
        x: &[f64],
        ws: &mut Workspace,
        grad_output: &[f64],
        grads: &mut Gradients,
    ) {
        assert_eq!(grads.layers.len(), self.layers.len(), "gradient layer count mismatch");
        self.backward_layers(x, ws, grad_output, Some(grads), false);
    }

    /// Gradient `∂L/∂input` (row-major `rows × input_dim`) for the last
    /// [`Mlp::forward_batch`] through `ws` over input `x`, given
    /// `∂L/∂output = grad_output`. Parameter gradients are not formed.
    ///
    /// The input gradient is what lets the DDPG-style actor update chain
    /// through the critic (see crate docs).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `grad_output` do not match the forward pass.
    pub fn input_gradient_batch<'w>(
        &self,
        x: &[f64],
        ws: &'w mut Workspace,
        grad_output: &[f64],
    ) -> &'w [f64] {
        self.backward_layers(x, ws, grad_output, None, true);
        &ws.grad[self.layers.len() % 2][..ws.rows * self.input_dim()]
    }

    fn backward_layers(
        &self,
        x: &[f64],
        ws: &mut Workspace,
        grad_output: &[f64],
        mut grads: Option<&mut Gradients>,
        want_input_gradient: bool,
    ) {
        ws.check(self);
        let rows = ws.rows;
        assert_eq!(x.len(), rows * self.input_dim(), "input does not match the forward pass");
        assert_eq!(grad_output.len(), rows * self.output_dim(), "grad width mismatch");
        let [even, odd] = &mut ws.grad;
        let (mut delta, mut below) = (even, odd);
        delta[..grad_output.len()].copy_from_slice(grad_output);
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let (n_in, n_out) = (rows * layer.fan_in(), rows * layer.fan_out());
            let input = if l == 0 { x } else { &ws.act[l - 1][..n_in] };
            let grad_input = (l > 0 || want_input_gradient).then(|| &mut below[..n_in]);
            let layer_grads = grads.as_deref_mut().map(|g| &mut g.layers[l]);
            let y = &ws.act[l][..n_out];
            layer.backward(input, y, &mut delta[..n_out], layer_grads, grad_input);
            std::mem::swap(&mut delta, &mut below);
        }
    }

    /// Gradient of a scalar-output network with respect to its input: a
    /// batch of one through [`Mlp::input_gradient_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the network output is not 1-dimensional.
    pub fn input_gradient(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.output_dim(), 1, "input_gradient requires a scalar head");
        let mut ws = Workspace::new(self, 1);
        self.forward_batch(x, &mut ws);
        self.input_gradient_batch(x, &mut ws, &[1.0]).to_vec()
    }

    /// Plain SGD parameter update (optimizers provide fancier rules).
    pub fn apply_gradients(&mut self, grads: &Gradients, lr: f64) {
        assert_eq!(grads.layers.len(), self.layers.len(), "gradient layer count mismatch");
        for (layer, g) in self.layers.iter_mut().zip(&grads.layers) {
            layer.apply_gradients(g, lr);
        }
    }

    /// Soft update `self = τ·source + (1−τ)·self` (DDPG target networks).
    ///
    /// # Panics
    ///
    /// Panics if architectures differ.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f64) {
        assert_eq!(self.layers.len(), source.layers.len(), "architecture mismatch");
        for (dst, src) in self.layers.iter_mut().zip(&source.layers) {
            let (sw, sb) = src.params();
            let (dw, db) = dst.params_mut();
            assert_eq!(sw.len(), dw.len(), "architecture mismatch");
            for (d, s) in dw.iter_mut().zip(sw) {
                *d = tau * s + (1.0 - tau) * *d;
            }
            for (d, s) in db.iter_mut().zip(sb) {
                *d = tau * s + (1.0 - tau) * *d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glova_stats::rng::seeded;
    use proptest::prelude::*;

    fn tiny_net(seed: u64) -> Mlp {
        let mut rng = seeded(seed);
        Mlp::new(&MlpConfig::new(3, &[5, 4], 2, Activation::Tanh), &mut rng)
    }

    /// `(outputs, parameter gradients, input gradients)` of one batched
    /// pass over the rows of `x` with `∂L/∂output = grad_out`.
    fn batch_pass(net: &Mlp, x: &[f64], grad_out: &[f64]) -> (Vec<f64>, Gradients, Vec<f64>) {
        let mut ws = Workspace::new(net, 0);
        let out = net.forward_batch(x, &mut ws).to_vec();
        let mut grads = Gradients::zeros_like(net);
        net.backward_batch(x, &mut ws, grad_out, &mut grads);
        let grad_in = net.input_gradient_batch(x, &mut ws, grad_out).to_vec();
        (out, grads, grad_in)
    }

    #[test]
    fn shapes() {
        let net = tiny_net(1);
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.param_count(), 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn forward_is_a_batch_of_one() {
        let net = tiny_net(2);
        let x = [0.2, -0.1, 0.7];
        let mut ws = Workspace::new(&net, 1);
        assert_eq!(net.forward(&x), net.forward_batch(&x, &mut ws));
    }

    #[test]
    fn full_gradient_check() {
        // The decisive test for the whole crate: every parameter gradient and
        // the input gradient must match central finite differences.
        let net = tiny_net(3);
        let x = [0.3, -0.5, 0.9];
        let target = [0.1, -0.2];
        let eps = 1e-6;

        let loss_of = |n: &Mlp| -> f64 {
            let y = n.forward(&x);
            y.iter().zip(&target).map(|(o, t)| (o - t) * (o - t)).sum()
        };

        let out = net.forward(&x);
        let grad_out: Vec<f64> = out.iter().zip(&target).map(|(o, t)| 2.0 * (o - t)).collect();
        let (_, grads, grad_in) = batch_pass(&net, &x, &grad_out);

        // Input gradient.
        for i in 0..3 {
            let mut xp = x;
            let mut xm = x;
            xp[i] += eps;
            xm[i] -= eps;
            let yp = net.forward(&xp);
            let ym = net.forward(&xm);
            let lp: f64 = yp.iter().zip(&target).map(|(o, t)| (o - t) * (o - t)).sum();
            let lm: f64 = ym.iter().zip(&target).map(|(o, t)| (o - t) * (o - t)).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad_in[i]).abs() < 1e-4,
                "input grad {i}: {numeric} vs {}",
                grad_in[i]
            );
        }

        // Every weight and bias of every layer.
        for li in 0..net.layers().len() {
            let n_w = net.layers()[li].fan_in() * net.layers()[li].fan_out();
            for wi in 0..n_w {
                let mut np = net.clone();
                let mut nm = net.clone();
                np.layers_mut()[li].params_mut().0[wi] += eps;
                nm.layers_mut()[li].params_mut().0[wi] -= eps;
                let numeric = (loss_of(&np) - loss_of(&nm)) / (2.0 * eps);
                let analytic = grads.layers()[li].weights[wi];
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "layer {li} weight {wi}: {numeric} vs {analytic}"
                );
            }
            for bi in 0..net.layers()[li].fan_out() {
                let mut np = net.clone();
                let mut nm = net.clone();
                np.layers_mut()[li].params_mut().1[bi] += eps;
                nm.layers_mut()[li].params_mut().1[bi] -= eps;
                let numeric = (loss_of(&np) - loss_of(&nm)) / (2.0 * eps);
                let analytic = grads.layers()[li].biases[bi];
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "layer {li} bias {bi}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn batch_gradient_is_the_sum_of_row_gradients() {
        // Loss Σ_rows L_row: the batched parameter gradient is the sum of the
        // rows' finite-difference gradients, and each row's input gradient
        // is its own.
        let net = tiny_net(4);
        let x = [0.3, -0.5, 0.9, -0.2, 0.1, 0.4, 0.8, 0.6, -0.7];
        let loss_of = |n: &Mlp| -> f64 {
            x.chunks(3).map(|row| n.forward(row).iter().map(|y| y * y).sum::<f64>()).sum()
        };
        let mut ws = Workspace::new(&net, 3);
        let grad_out: Vec<f64> = net.forward_batch(&x, &mut ws).iter().map(|y| 2.0 * y).collect();
        let (_, grads, grad_in) = batch_pass(&net, &x, &grad_out);
        let eps = 1e-6;
        for li in 0..net.layers().len() {
            for wi in [0, net.layers()[li].fan_in()] {
                let mut np = net.clone();
                let mut nm = net.clone();
                np.layers_mut()[li].params_mut().0[wi] += eps;
                nm.layers_mut()[li].params_mut().0[wi] -= eps;
                let numeric = (loss_of(&np) - loss_of(&nm)) / (2.0 * eps);
                let analytic = grads.layers()[li].weights[wi];
                assert!((numeric - analytic).abs() < 1e-4, "layer {li} weight {wi}");
            }
        }
        for (row, g_row) in x.chunks(3).zip(grad_in.chunks(3)) {
            for i in 0..3 {
                let (mut xp, mut xm) = (row.to_vec(), row.to_vec());
                xp[i] += eps;
                xm[i] -= eps;
                let sq = |v: &[f64]| net.forward(v).iter().map(|y| y * y).sum::<f64>();
                let numeric = (sq(&xp) - sq(&xm)) / (2.0 * eps);
                assert!((numeric - g_row[i]).abs() < 1e-4, "input grad {i}");
            }
        }
    }

    #[test]
    fn input_gradient_scalar_head() {
        let mut rng = seeded(5);
        let net = Mlp::new(&MlpConfig::new(2, &[6], 1, Activation::Tanh), &mut rng);
        let x = [0.4, -0.3];
        let g = net.input_gradient(&x);
        let eps = 1e-6;
        for i in 0..2 {
            let mut xp = x;
            let mut xm = x;
            xp[i] += eps;
            xm[i] -= eps;
            let numeric = (net.forward(&xp)[0] - net.forward(&xm)[0]) / (2.0 * eps);
            assert!((numeric - g[i]).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "scalar head")]
    fn input_gradient_requires_scalar() {
        tiny_net(1).input_gradient(&[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "different architecture")]
    fn workspace_must_match_the_network() {
        let mut rng = seeded(6);
        let other = Mlp::new(&MlpConfig::new(3, &[4], 2, Activation::Tanh), &mut rng);
        tiny_net(1).forward_batch(&[0.0; 3], &mut Workspace::new(&other, 1));
    }

    #[test]
    fn workspace_grows_to_the_largest_batch() {
        let net = tiny_net(7);
        let x: Vec<f64> = (0..15).map(|i| i as f64 / 15.0).collect();
        let mut ws = Workspace::new(&net, 2);
        let five = net.forward_batch(&x, &mut ws).to_vec();
        assert_eq!(net.forward_batch(&x[..6], &mut ws), &five[..4]);
        assert_eq!(five[8..], net.forward(&x[12..]));
    }

    #[test]
    fn soft_update_converges_to_source() {
        let mut a = tiny_net(6);
        let b = tiny_net(7);
        for _ in 0..200 {
            a.soft_update_from(&b, 0.1);
        }
        let x = [0.1, 0.2, 0.3];
        let ya = a.forward(&x);
        let yb = b.forward(&x);
        for (p, q) in ya.iter().zip(&yb) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_clipping_reduces_norm() {
        let net = tiny_net(8);
        let x = [1.0, 1.0, 1.0];
        let (_, mut grads, _) = batch_pass(&net, &x, &[1e3; 2]);
        grads.clip_global_norm(1.0);
        assert!(grads.global_norm() <= 1.0 + 1e-9);
    }

    #[test]
    fn sigmoid_output_bounded() {
        let mut rng = seeded(9);
        let net = Mlp::new(
            &MlpConfig::new(4, &[8], 4, Activation::Relu)
                .with_output_activation(Activation::Sigmoid),
            &mut rng,
        );
        let y = net.forward(&[10.0, -10.0, 3.0, -3.0]);
        assert!(y.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    proptest! {
        #[test]
        fn prop_forward_finite(
            x in proptest::collection::vec(-10.0f64..10.0, 3),
            seed in 0u64..32,
        ) {
            let net = tiny_net(seed);
            let y = net.forward(&x);
            prop_assert!(y.iter().all(|v| v.is_finite()));
        }

        #[test]
        fn prop_gradients_finite(
            x in proptest::collection::vec(-5.0f64..5.0, 3),
            seed in 0u64..16,
        ) {
            let net = tiny_net(seed);
            let (_, grads, grad_in) = batch_pass(&net, &x, &[1.0; 2]);
            prop_assert!(grad_in.iter().all(|v| v.is_finite()));
            prop_assert!(grads.global_norm().is_finite());
        }

        // A `rows`-row batch is bitwise equal to `rows` batch-of-one passes
        // accumulated in row order: outputs, parameter gradients and input
        // gradients. Widths 5 and 3 and odd row counts exercise every
        // remainder path of the register-blocked kernel.
        #[test]
        fn prop_batch_equals_rows_one_by_one(
            rows in 1usize..12,
            values in proptest::collection::vec(-3.0f64..3.0, 12 * 6),
            seed in 0u64..64,
            relu in 0u64..2,
        ) {
            let hidden = if relu == 1 { Activation::Relu } else { Activation::Tanh };
            let mut rng = seeded(seed);
            let net = Mlp::new(
                &MlpConfig::new(4, &[5, 3], 2, hidden).with_output_activation(Activation::Sigmoid),
                &mut rng,
            );
            let x = &values[..rows * 4];
            let grad_out = &values[rows * 4..rows * 6];
            let (out, grads, grad_in) = batch_pass(&net, x, grad_out);

            let mut ws = Workspace::new(&net, 1);
            let mut row_grads = Gradients::zeros_like(&net);
            for (s, (xs, gs)) in x.chunks(4).zip(grad_out.chunks(2)).enumerate() {
                let y = net.forward_batch(xs, &mut ws).to_vec();
                prop_assert_eq!(bits(&y), bits(&out[s * 2..s * 2 + 2]));
                net.backward_batch(xs, &mut ws, gs, &mut row_grads);
                let gi = net.input_gradient_batch(xs, &mut ws, gs);
                prop_assert_eq!(bits(gi), bits(&grad_in[s * 4..s * 4 + 4]));
            }
            for (a, b) in grads.layers().iter().zip(row_grads.layers()) {
                prop_assert_eq!(bits(&a.weights), bits(&b.weights));
                prop_assert_eq!(bits(&a.biases), bits(&b.biases));
            }
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
}
