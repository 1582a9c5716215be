//! First-order optimizers: SGD (with momentum) and Adam.
//!
//! Optimizer state is kept in buffers shaped like the network's gradients
//! and lazily initialized on the first step, so one optimizer instance is
//! bound to one network for its lifetime.

use crate::mlp::{Gradients, Mlp};

/// Stochastic gradient descent with optional classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Option<Gradients>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, momentum: 0.0, velocity: None }
    }

    /// Adds momentum `m ∈ [0, 1)` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `[0, 1)`.
    pub fn with_momentum(mut self, m: f64) -> Self {
        assert!((0.0..1.0).contains(&m), "momentum must be in [0, 1)");
        self.momentum = m;
        self
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Applies one update to `net` from `grads`.
    pub fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        if self.momentum == 0.0 {
            net.apply_gradients(grads, self.lr);
            return;
        }
        let velocity = self.velocity.get_or_insert_with(|| Gradients::zeros_like(net));
        velocity.scale(self.momentum);
        velocity.accumulate(grads);
        net.apply_gradients(velocity, self.lr);
    }
}

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Option<Gradients>,
    v: Option<Gradients>,
}

impl Adam {
    /// Adam with learning rate `lr` and standard defaults
    /// `β₁ = 0.9, β₂ = 0.999, ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: None, v: None }
    }

    /// Overrides the exponential-decay rates (builder style).
    ///
    /// # Panics
    ///
    /// Panics if either beta is outside `[0, 1)`.
    pub fn with_betas(mut self, beta1: f64, beta2: f64) -> Self {
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to `net` from `grads`.
    pub fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        self.t += 1;
        let m = self.m.get_or_insert_with(|| Gradients::zeros_like(net));
        let v = self.v.get_or_insert_with(|| Gradients::zeros_like(net));

        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let update = |p: &mut [f64], m: &mut [f64], v: &mut [f64], g: &[f64]| {
            assert_eq!(p.len(), g.len(), "gradient shape mismatch");
            for (((p, m), v), &g) in p.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        };

        let layers = net.layers_mut().iter_mut().zip(grads.layers());
        for ((layer, g), (lm, lv)) in layers.zip(m.layers_mut().iter_mut().zip(v.layers_mut())) {
            let (w, b) = layer.params_mut();
            update(w, &mut lm.weights, &mut lv.weights, &g.weights);
            update(b, &mut lm.biases, &mut lv.biases, &g.biases);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Mlp, MlpConfig, Workspace};
    use glova_stats::rng::seeded;

    fn regression_task() -> (Vec<[f64; 1]>, Vec<[f64; 1]>) {
        // y = sin(3x) on [-1, 1]
        let xs: Vec<[f64; 1]> = (0..40).map(|i| [-1.0 + i as f64 / 19.5]).collect();
        let ys: Vec<[f64; 1]> = xs.iter().map(|x| [(3.0 * x[0]).sin()]).collect();
        (xs, ys)
    }

    fn train_and_measure(optimize: &mut dyn FnMut(&mut Mlp, &Gradients)) -> f64 {
        let mut rng = seeded(77);
        let mut net = Mlp::new(&MlpConfig::new(1, &[16, 16], 1, Activation::Tanh), &mut rng);
        let (xs, ys) = regression_task();
        let mut ws = Workspace::new(&net, 1);
        for _ in 0..300 {
            let mut total = Gradients::zeros_like(&net);
            for (x, y) in xs.iter().zip(&ys) {
                let out = net.forward_batch(x, &mut ws);
                let grad_out = crate::mse_gradient(out, y);
                net.backward_batch(x, &mut ws, &grad_out, &mut total);
            }
            total.scale(1.0 / xs.len() as f64);
            optimize(&mut net, &total);
        }
        let mut loss = 0.0;
        for (x, y) in xs.iter().zip(&ys) {
            loss += crate::mse(&net.forward(x), y);
        }
        loss / xs.len() as f64
    }

    #[test]
    fn adam_fits_sine() {
        let mut adam = Adam::new(1e-2);
        let loss = train_and_measure(&mut |net, g| adam.step(net, g));
        assert!(loss < 0.01, "adam failed to fit: loss {loss}");
    }

    #[test]
    fn sgd_with_momentum_fits_sine() {
        let mut sgd = Sgd::new(0.05).with_momentum(0.9);
        let loss = train_and_measure(&mut |net, g| sgd.step(net, g));
        assert!(loss < 0.05, "sgd failed to fit: loss {loss}");
    }

    #[test]
    fn adam_converges_on_convex_quadratic() {
        // Adam steps are not individually monotone (normalized step size),
        // but on a convex quadratic it must converge to near-zero loss.
        let mut rng = seeded(5);
        let mut net = Mlp::new(&MlpConfig::new(2, &[], 1, Activation::Identity), &mut rng);
        let mut adam = Adam::new(5e-2);
        let x = [1.0, -1.0];
        let target = [3.0];
        let initial = crate::mse(&net.forward(&x), &target);
        let mut last = initial;
        let mut ws = Workspace::new(&net, 1);
        let mut g = Gradients::zeros_like(&net);
        for _ in 0..500 {
            let out = net.forward_batch(&x, &mut ws);
            last = crate::mse(out, &target);
            let grad_out = crate::mse_gradient(out, &target);
            g.set_zero();
            net.backward_batch(&x, &mut ws, &grad_out, &mut g);
            adam.step(&mut net, &g);
        }
        assert!(last < 1e-3, "adam did not converge: {initial} -> {last}");
    }

    #[test]
    fn step_counter_increments() {
        let mut rng = seeded(6);
        let mut net = Mlp::new(&MlpConfig::new(1, &[2], 1, Activation::Relu), &mut rng);
        let mut adam = Adam::new(1e-3);
        assert_eq!(adam.steps(), 0);
        let g = Gradients::zeros_like(&net);
        adam.step(&mut net, &g);
        adam.step(&mut net, &g);
        assert_eq!(adam.steps(), 2);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_panics() {
        Adam::new(0.0);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn bad_momentum_panics() {
        let _ = Sgd::new(0.1).with_momentum(1.0);
    }
}
