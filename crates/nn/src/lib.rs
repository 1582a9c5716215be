//! Minimal neural-network substrate for the GLOVA actor and ensemble critic.
//!
//! The paper's agent (Algorithm 1) is DDPG-derived: a 4-layer actor maps the
//! previous design vector to a new one, and an **ensemble** of 4-layer critic
//! base models predicts the worst-case reward. Two requirements shape this
//! crate and rule out a "just matrices" shortcut:
//!
//! 1. The **actor update** differentiates *through the critic*: the loss
//!    `MSE(0.2, Q(A(x)))` needs `∂Q/∂input` at the critic's input, chained
//!    into the actor's parameter gradients. Besides
//!    [`Mlp::backward_batch`] (parameter gradients) the crate therefore
//!    offers [`Mlp::input_gradient_batch`] (input gradient only).
//! 2. The **risk-sensitive aggregation** `Q = E[Q_i] + β₁σ[Q_i]` (paper
//!    Eq. 6) must be differentiated exactly across the ensemble; that
//!    backward pass lives in `glova-rl`, but it relies on the per-model
//!    input gradients exposed here.
//!
//! No deep-learning crate exists in the offline set, so backprop is
//! implemented from scratch and validated against central finite differences
//! in this crate's tests.
//!
//! Training is minibatched: [`Linear`] has one forward and one backward
//! kernel over row-major `rows × width` blocks, and [`Mlp`] runs whole
//! layers on a reusable [`Workspace`], so forward and backward passes
//! allocate nothing. The kernels never reorder a sum, so a batch of `b`
//! rows is bitwise equal to `b` one-row passes (`Mlp::forward` and
//! `Mlp::input_gradient` are exactly such one-row passes).
//!
//! # Example
//!
//! ```
//! use glova_nn::{Activation, Adam, Gradients, Mlp, MlpConfig, Workspace};
//!
//! let mut rng = glova_stats::rng::seeded(0);
//! // Learn y = 2x on [0, 1].
//! let mut net = Mlp::new(&MlpConfig::new(1, &[8, 8], 1, Activation::Tanh), &mut rng);
//! let mut adam = Adam::new(1e-2);
//! let mut ws = Workspace::new(&net, 1);
//! let mut grads = Gradients::zeros_like(&net);
//! for step in 0..400 {
//!     let x = [(step % 10) as f64 / 10.0];
//!     let target = [2.0 * x[0]];
//!     let out = net.forward_batch(&x, &mut ws);
//!     let grad_out: Vec<f64> = out.iter().zip(&target).map(|(o, t)| 2.0 * (o - t)).collect();
//!     grads.set_zero();
//!     net.backward_batch(&x, &mut ws, &grad_out, &mut grads);
//!     adam.step(&mut net, &grads);
//! }
//! let pred = net.forward(&[0.35]);
//! assert!((pred[0] - 0.7).abs() < 0.1);
//! ```

pub mod activation;
pub mod init;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod optimizer;

pub use activation::Activation;
pub use layer::Linear;
pub use loss::{mse, mse_gradient};
pub use mlp::{Gradients, Mlp, MlpConfig, Workspace};
pub use optimizer::{Adam, Sgd};
