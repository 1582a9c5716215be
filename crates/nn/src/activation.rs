//! Element-wise activation functions and their derivatives.

/// Supported element-wise activations.
///
/// The paper's actor outputs a normalized design vector in `[0, 1]`; GLOVA's
/// actor therefore ends in [`Activation::Sigmoid`], while hidden layers use
/// [`Activation::Relu`] or [`Activation::Tanh`]. The critic head is
/// [`Activation::Identity`] (unbounded reward prediction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Rectified linear unit `max(0, x)`.
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Pass-through.
    Identity,
}

impl Activation {
    /// Applies the activation to one pre-activation value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Derivative with respect to the pre-activation, written in terms of
    /// the output `y = apply(x)`.
    ///
    /// Each branch is exactly the pre-activation formula with the output
    /// substituted (`tanh(x)`, the sigmoid and `max(x, 0) > 0 ⇔ x > 0`
    /// are computed by [`Activation::apply`] with the same operations), so
    /// the backward pass needs only the activations, bit for bit.
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }

    /// Applies the activation to a slice, in place.
    pub fn apply_slice(self, xs: &mut [f64]) {
        for x in xs {
            *x = self.apply(*x);
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
            Activation::Sigmoid => "sigmoid",
            Activation::Identity => "identity",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL: [Activation; 4] =
        [Activation::Relu, Activation::Tanh, Activation::Sigmoid, Activation::Identity];

    #[test]
    fn known_values() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(Activation::Identity.apply(3.5), 3.5);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let eps = 1e-6;
        for act in ALL {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative_from_output(act.apply(x));
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn apply_slice_matches_scalar() {
        let mut xs = vec![-1.0, 0.0, 2.0];
        Activation::Relu.apply_slice(&mut xs);
        assert_eq!(xs, vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Activation::Relu.to_string(), "relu");
        assert_eq!(Activation::Identity.to_string(), "identity");
    }

    proptest! {
        #[test]
        fn prop_sigmoid_bounded(x in -50.0f64..50.0) {
            let y = Activation::Sigmoid.apply(x);
            prop_assert!((0.0..=1.0).contains(&y));
        }

        #[test]
        fn prop_tanh_bounded(x in -50.0f64..50.0) {
            let y = Activation::Tanh.apply(x);
            prop_assert!((-1.0..=1.0).contains(&y));
        }

        #[test]
        fn prop_derivatives_nonnegative(x in -20.0f64..20.0) {
            // All four activations are monotone non-decreasing.
            for act in ALL {
                prop_assert!(act.derivative_from_output(act.apply(x)) >= 0.0);
            }
        }
    }
}
