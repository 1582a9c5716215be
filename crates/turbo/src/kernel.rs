//! Covariance kernels.

/// Matérn-5/2 kernel with automatic relevance determination (per-dimension
/// lengthscales) — the standard choice for TuRBO's GP surrogate.
///
/// `k(a, b) = σ² (1 + √5 r + 5r²/3) exp(−√5 r)` with
/// `r² = Σ_d ((a_d − b_d)/ℓ_d)²`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matern52 {
    signal_variance: f64,
    lengthscales: Vec<f64>,
}

impl Matern52 {
    /// Creates a kernel.
    ///
    /// # Panics
    ///
    /// Panics if `signal_variance <= 0` or any lengthscale `<= 0`.
    pub fn new(signal_variance: f64, lengthscales: Vec<f64>) -> Self {
        assert!(signal_variance > 0.0, "signal variance must be positive");
        assert!(
            lengthscales.iter().all(|&l| l > 0.0),
            "lengthscales must be positive: {lengthscales:?}"
        );
        Self { signal_variance, lengthscales }
    }

    /// Isotropic kernel with a single lengthscale replicated over `dim`.
    pub fn isotropic(signal_variance: f64, lengthscale: f64, dim: usize) -> Self {
        Self::new(signal_variance, vec![lengthscale; dim])
    }

    /// Signal variance σ².
    pub fn signal_variance(&self) -> f64 {
        self.signal_variance
    }

    /// Per-dimension lengthscales.
    pub fn lengthscales(&self) -> &[f64] {
        &self.lengthscales
    }

    /// Evaluates `k(a, b)`: a block of one through the blocked evaluation
    /// the GP's kernel fill and posterior pass run on.
    ///
    /// # Panics
    ///
    /// Panics if input dimensions differ from the kernel's.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_block(a, [b])[0]
    }

    /// Evaluates `k(a, b_c)` for `W` points `b_c` at once.
    ///
    /// Each pair keeps the scalar order of operations — `r²` sums
    /// `((a_d − b_d)/ℓ_d)²` over `d` ascending, starting from `−0.0` as
    /// `Iterator::sum` does — so every lane is bitwise `eval(a, b_c)`;
    /// the `W` chains interleave. `k(a, b)` and `k(b, a)` have the same
    /// bits, since `a_d − b_d` and `b_d − a_d` differ only in sign.
    ///
    /// # Panics
    ///
    /// Panics if input dimensions differ from the kernel's.
    pub(crate) fn eval_block<const W: usize>(&self, a: &[f64], b: [&[f64]; W]) -> [f64; W] {
        let dim = self.lengthscales.len();
        assert_eq!(a.len(), dim, "kernel input dimension mismatch");
        for b in &b {
            assert_eq!(b.len(), dim, "kernel input dimension mismatch");
        }
        let mut r2 = [-0.0; W];
        for (d, (&x, &l)) in a.iter().zip(&self.lengthscales).enumerate() {
            for c in 0..W {
                let t = (x - b[c][d]) / l;
                r2[c] += t * t;
            }
        }
        r2.map(|r2| {
            let r = r2.sqrt();
            let sqrt5_r = 5.0f64.sqrt() * r;
            self.signal_variance * (1.0 + sqrt5_r + 5.0 * r2 / 3.0) * (-sqrt5_r).exp()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn self_covariance_is_signal_variance() {
        let k = Matern52::isotropic(2.5, 0.3, 4);
        let x = [0.1, 0.2, 0.3, 0.4];
        assert!((k.eval(&x, &x) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn decays_with_distance() {
        let k = Matern52::isotropic(1.0, 0.2, 1);
        let k0 = k.eval(&[0.0], &[0.0]);
        let k1 = k.eval(&[0.0], &[0.1]);
        let k2 = k.eval(&[0.0], &[0.5]);
        assert!(k0 > k1 && k1 > k2);
        assert!(k2 > 0.0);
    }

    #[test]
    fn ard_weights_dimensions() {
        // A short lengthscale in dim 0 makes distance in dim 0 matter more.
        let k = Matern52::new(1.0, vec![0.05, 1.0]);
        let near_in_0 = k.eval(&[0.0, 0.0], &[0.05, 0.0]);
        let near_in_1 = k.eval(&[0.0, 0.0], &[0.0, 0.05]);
        assert!(near_in_1 > near_in_0);
    }

    #[test]
    #[should_panic(expected = "lengthscales must be positive")]
    fn zero_lengthscale_panics() {
        Matern52::new(1.0, vec![0.0]);
    }

    proptest! {
        #[test]
        fn prop_block_is_bitwise_eval(
            points in proptest::collection::vec(0.0f64..1.0, 5 * 14),
            ls in proptest::collection::vec(0.05f64..2.0, 14),
        ) {
            for dim in [1, 3, 14] {
                let k = Matern52::new(1.3, ls[..dim].to_vec());
                let p: Vec<&[f64]> = points.chunks_exact(14).map(|p| &p[..dim]).collect();
                let block = k.eval_block(p[0], [p[1], p[2], p[3], p[4]]);
                for c in 0..4 {
                    // The scalar formula, as an iterator sum.
                    let r2: f64 = p[0]
                        .iter()
                        .zip(p[c + 1])
                        .zip(&ls[..dim])
                        .map(|((&x, &y), &l)| {
                            let d = (x - y) / l;
                            d * d
                        })
                        .sum();
                    let sqrt5_r = 5.0f64.sqrt() * r2.sqrt();
                    let scalar = 1.3 * (1.0 + sqrt5_r + 5.0 * r2 / 3.0) * (-sqrt5_r).exp();
                    prop_assert_eq!(block[c].to_bits(), k.eval(p[0], p[c + 1]).to_bits());
                    prop_assert_eq!(block[c].to_bits(), scalar.to_bits());
                    prop_assert_eq!(block[c].to_bits(), k.eval(p[c + 1], p[0]).to_bits());
                }
            }
        }

        #[test]
        fn prop_symmetric_and_bounded(
            a in proptest::collection::vec(0.0f64..1.0, 3),
            b in proptest::collection::vec(0.0f64..1.0, 3),
        ) {
            let k = Matern52::isotropic(1.7, 0.4, 3);
            let kab = k.eval(&a, &b);
            let kba = k.eval(&b, &a);
            prop_assert!((kab - kba).abs() < 1e-12);
            prop_assert!(kab > 0.0 && kab <= 1.7 + 1e-12);
        }
    }
}
