//! TuRBO — trust-region Bayesian optimization (Eriksson et al., NeurIPS
//! 2019, the paper's ref \[13\]).
//!
//! GLOVA (following PVTSizing \[9\]) uses TuRBO for **initial sampling**:
//! before the RL agent starts, TuRBO searches the normalized design space
//! for solutions that satisfy the constraints under the *typical*
//! condition. This replaces the random initial sampling of RobustAnalog and
//! is one of the sample-efficiency levers the paper's Table II measures.
//!
//! The implementation is TuRBO-1: a single trust region with
//!
//! - a Gaussian-process surrogate with Matérn-5/2 ARD kernel ([`gp`]),
//!   hyperparameters fit by log-marginal-likelihood random search,
//! - the success/failure trust-region resizing schedule
//!   ([`trust_region`]), and
//! - Thompson-sampling candidate selection inside the trust-region box.
//!   The box is isotropic: every side gets the region's base length,
//!   where TuRBO-1 scales each side by the GP's ARD lengthscales.
//!
//! # Example
//!
//! ```
//! use glova_turbo::{Turbo, TurboConfig};
//!
//! // Maximize the negative sphere function (optimum at 0.5).
//! let mut rng = glova_stats::rng::seeded(7);
//! let mut turbo = Turbo::new(TurboConfig::new(3), &mut rng);
//! for _ in 0..60 {
//!     let x = turbo.ask(&mut rng);
//!     let y = -x.iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f64>();
//!     turbo.tell(x, y);
//! }
//! let (best_x, best_y) = turbo.best().expect("observations were told");
//! assert!(best_y > -0.05, "best {best_y} at {best_x:?}");
//! ```

#![warn(missing_docs)]

pub mod design;
pub mod gp;
pub mod kernel;
pub mod trust_region;
pub mod turbo;

pub use design::latin_hypercube;
pub use gp::GaussianProcess;
pub use kernel::Matern52;
pub use trust_region::TrustRegion;
pub use turbo::{Turbo, TurboConfig};
