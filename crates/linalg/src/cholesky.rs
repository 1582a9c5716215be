//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! The Gaussian-process surrogate in `glova-turbo` factors its kernel matrix
//! once per fit and then solves against many right-hand sides (posterior
//! means, Thompson samples) and needs the log-determinant for the marginal
//! likelihood — exactly the [`Cholesky`] API here.

use crate::{LinalgError, Matrix};

/// The lower-triangular Cholesky factor `L` of `A + jitter·I = L Lᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

/// Rows factored together: their inner products against the finished
/// rows are independent chains, so interleaving them hides the latency
/// of each chain's serial subtractions.
const ROW_BLOCK: usize = 8;

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// `jitter` is added to the diagonal before factorization; Gaussian
    /// process kernels are routinely near-singular and a `1e-8`-scale jitter
    /// keeps them factorable without visibly changing the posterior.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// - [`LinalgError::NotPositiveDefinite`] if a pivot is `<= 0`.
    pub fn factor(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        Self::factor_in_place(a.clone(), jitter)
    }

    /// [`Cholesky::factor`] that overwrites `a` with the factor instead of
    /// allocating one: only the lower triangle of `a` is read, and the
    /// strict upper triangle is zeroed. [`Cholesky::into_factor`] hands the
    /// buffer back for the next factorization of the same size.
    ///
    /// Every entry is one serial chain, as in the textbook row-by-row
    /// order: `a[i,j]` plus the jitter (`0.0` off the diagonal), minus
    /// `l[i,k]·l[j,k]` for `k` ascending, then a square root on the
    /// diagonal or a division by `l[j,j]` below it. Rows are factored in
    /// blocks whose chains interleave; the result is bitwise the
    /// row-by-row one, and a failure names the same first pivot.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::factor`].
    pub fn factor_in_place(mut a: Matrix, jitter: f64) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::DimensionMismatch {
                context: "cholesky of non-square matrix",
            });
        }
        let n = a.rows();
        let data = a.as_mut_slice();
        let mut i0 = 0;
        while i0 + ROW_BLOCK <= n {
            factor_rows::<ROW_BLOCK>(data, n, i0, jitter)?;
            i0 += ROW_BLOCK;
        }
        for i in i0..n {
            factor_rows::<1>(data, n, i, jitter)?;
        }
        for (i, row) in data.chunks_exact_mut(n.max(1)).enumerate() {
            row[i + 1..].fill(0.0);
        }
        Ok(Self { l: a })
    }

    /// Consumes the factorization, returning `L` (strict upper triangle
    /// zero) as a reusable buffer for [`Cholesky::factor_in_place`].
    pub fn into_factor(self) -> Matrix {
        self.l
    }

    /// The lower-triangular factor `L`.
    pub fn factor_matrix(&self) -> &Matrix {
        &self.l
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` via forward/backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let y = self.solve_lower(b);
        self.solve_lower_transpose(&y)
    }

    /// Solves `L y = b` (forward substitution): a block of one
    /// right-hand side through [`Cholesky::solve_lower_block`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut block: Vec<[f64; 1]> = b.iter().map(|&v| [v]).collect();
        self.solve_lower_block(&mut block);
        block.into_iter().map(|[v]| v).collect()
    }

    /// Solves `L Y = B` in place for `W` right-hand sides at once: row `i`
    /// of `b` holds entry `i` of every right-hand side, and is overwritten
    /// with entry `i` of every solution.
    ///
    /// Each right-hand side keeps the serial forward-substitution chain —
    /// start at `b[i]`, subtract `l[i,k]·y[k]` for `k` ascending, divide by
    /// `l[i,i]` — so every column is bitwise what a solve of that column
    /// alone returns; the `W` chains interleave.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_lower_block<const W: usize>(&self, b: &mut [[f64; W]]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        for i in 0..n {
            let row = self.l.row(i);
            let (solved, rest) = b.split_at_mut(i);
            let mut sum = rest[0];
            for (l_ik, y_k) in row[..i].iter().zip(solved.iter()) {
                for c in 0..W {
                    sum[c] -= l_ik * y_k[c];
                }
            }
            let l_ii = row[i];
            rest[0] = sum.map(|s| s / l_ii);
        }
    }

    /// Solves `Lᵀ x = y` (backward substitution).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != dim()`.
    pub fn solve_lower_transpose(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "rhs length mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in i + 1..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// `log |A|` computed from the factor (numerically stable).
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Applies `L` to a vector: `L v`. Used to draw correlated Gaussian
    /// samples (`x = µ + L z` with `z ~ N(0, I)`).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != dim()`.
    pub fn lower_mat_vec(&self, v: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(v.len(), n, "vector length mismatch");
        (0..n).map(|i| (0..=i).map(|k| self.l[(i, k)] * v[k]).sum()).collect()
    }
}

/// Factors rows `i0..i0 + W` of the in-place factorization, given that
/// rows `0..i0` are finished: first the columns left of the block, where
/// the `W` rows' chains are independent and interleave, then the
/// triangle inside the block row by row.
fn factor_rows<const W: usize>(
    data: &mut [f64],
    n: usize,
    i0: usize,
    jitter: f64,
) -> Result<(), LinalgError> {
    let (done, block) = data.split_at_mut(i0 * n);
    let mut rows = block.chunks_exact_mut(n);
    let mut rows: [&mut [f64]; W] = std::array::from_fn(|_| rows.next().expect("block row"));
    for (j, l_j) in done.chunks_exact(n).enumerate() {
        let l_j = &l_j[..=j];
        let mut sum: [f64; W] = std::array::from_fn(|r| rows[r][j] + 0.0);
        let heads: [&[f64]; W] = std::array::from_fn(|r| &rows[r][..j]);
        for (k, l_jk) in l_j[..j].iter().enumerate() {
            for r in 0..W {
                sum[r] -= heads[r][k] * l_jk;
            }
        }
        for r in 0..W {
            rows[r][j] = sum[r] / l_j[j];
        }
    }
    for r in 0..W {
        let (before, after) = rows.split_at_mut(r);
        let l_i = &mut *after[0];
        for (jb, l_j) in before.iter().enumerate() {
            let j = i0 + jb;
            let mut sum = l_i[j] + 0.0;
            for k in 0..j {
                sum -= l_i[k] * l_j[k];
            }
            l_i[j] = sum / l_j[j];
        }
        let i = i0 + r;
        let mut sum = l_i[i] + jitter;
        for k in 0..i {
            sum -= l_i[k] * l_i[k];
        }
        if sum <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { index: i, pivot: sum });
        }
        l_i[i] = sum.sqrt();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spd_from_seedlike(entries: &[f64], n: usize) -> Matrix {
        // A = B Bᵀ + n·I is SPD for any B.
        let b = Matrix::from_fn(n, n, |i, j| entries[i * n + j]);
        let mut a = b.mat_mul(&b.transpose()).unwrap();
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn factor_known_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let chol = Cholesky::factor(&a, 0.0).unwrap();
        let l = chol.factor_matrix();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]);
        let chol = a.cholesky(0.0).unwrap();
        let x = chol.solve(&[1.0, -2.0, 0.5]);
        let b = a.mat_vec(&x);
        assert!((b[0] - 1.0).abs() < 1e-10);
        assert!((b[1] + 2.0).abs() < 1e-10);
        assert!((b[2] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn log_det_matches_direct() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        // |A| = 12 - 4 = 8
        let chol = a.cholesky(0.0).unwrap();
        assert!((chol.log_determinant() - 8.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn not_positive_definite_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        match Cholesky::factor(&a, 0.0) {
            Err(LinalgError::NotPositiveDefinite { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 matrix: PSD but not PD.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::factor(&a, 0.0).is_err());
        assert!(Cholesky::factor(&a, 1e-8).is_ok());
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Cholesky::factor(&a, 0.0), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn lower_mat_vec_reconstructs() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let chol = a.cholesky(0.0).unwrap();
        // L (Lᵀ x) = A x
        let x = [1.0, 2.0];
        let ltx = {
            let l = chol.factor_matrix();
            vec![l[(0, 0)] * x[0] + l[(1, 0)] * x[1], l[(1, 1)] * x[1]]
        };
        let ax = chol.lower_mat_vec(&ltx);
        let expect = a.mat_vec(&x);
        assert!((ax[0] - expect[0]).abs() < 1e-12);
        assert!((ax[1] - expect[1]).abs() < 1e-12);
    }

    /// The textbook row-by-row factorization: the oracle the blocked
    /// kernel must match bit for bit.
    fn row_by_row_factor(a: &Matrix, jitter: f64) -> Result<Matrix, LinalgError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)] + if i == j { jitter } else { 0.0 };
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { index: i, pivot: sum });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        (0..m.rows())
            .flat_map(|i| m.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect()
    }

    #[test]
    fn factor_reads_only_the_lower_triangle() {
        let a = spd_from_seedlike(&[0.3, -1.2, 0.7, 1.9, 0.1, -0.4, 1.1, 0.8, -1.5], 3);
        let mut lower = a.clone();
        lower[(0, 1)] = f64::NAN;
        lower[(0, 2)] = 7.0;
        lower[(1, 2)] = -3.0;
        let from_full = Cholesky::factor(&a, 0.0).unwrap();
        let from_lower = Cholesky::factor_in_place(lower, 0.0).unwrap();
        assert_eq!(bits(from_full.factor_matrix()), bits(from_lower.factor_matrix()));
        // The strict upper triangle of the factor is zero.
        assert_eq!(from_lower.factor_matrix()[(0, 2)], 0.0);
    }

    #[test]
    fn blocked_factor_fails_on_the_same_first_pivot() {
        // A negative pivot inside the first row block (row 5) and past it
        // (row 10): the error must name that row and its pivot value.
        let n = 13;
        for bad in [5, 10] {
            let mut a = Matrix::identity(n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] += 0.1 / (1.0 + (i + j) as f64);
                }
            }
            a[(bad, bad)] = -1.0;
            let blocked = Cholesky::factor(&a, 0.0).unwrap_err();
            assert_eq!(Some(blocked.clone()), row_by_row_factor(&a, 0.0).err());
            assert!(
                matches!(blocked, LinalgError::NotPositiveDefinite { index, .. } if index == bad)
            );
        }
    }

    proptest! {
        #[test]
        fn prop_blocked_factor_is_bitwise_row_by_row(
            entries in proptest::collection::vec(-2.0f64..2.0, 19 * 19),
            jitter in 0.0f64..1e-6,
        ) {
            // n = 1..=19: no whole row block, one, two, with and without
            // leftover rows.
            for n in 1..=19 {
                let a = spd_from_seedlike(&entries[..n * n], n);
                let blocked = Cholesky::factor(&a, jitter).unwrap();
                let reference = row_by_row_factor(&a, jitter).unwrap();
                prop_assert_eq!(bits(blocked.factor_matrix()), bits(&reference));
            }
        }

        #[test]
        fn prop_block_solve_is_bitwise_per_rhs(
            entries in proptest::collection::vec(-2.0f64..2.0, 19 * 19),
            rhs in proptest::collection::vec(-10.0f64..10.0, 4 * 19),
        ) {
            for n in [1, 4, 7, 13, 19] {
                let chol = Cholesky::factor(&spd_from_seedlike(&entries[..n * n], n), 0.0).unwrap();
                let mut block: Vec<[f64; 4]> =
                    (0..n).map(|i| std::array::from_fn(|c| rhs[c * n + i])).collect();
                chol.solve_lower_block(&mut block);
                for c in 0..4 {
                    let b = &rhs[c * n..(c + 1) * n];
                    // The textbook forward substitution.
                    let l = chol.factor_matrix();
                    let mut y = vec![0.0; n];
                    for i in 0..n {
                        let mut sum = b[i];
                        for k in 0..i {
                            sum -= l[(i, k)] * y[k];
                        }
                        y[i] = sum / l[(i, i)];
                    }
                    let single = chol.solve_lower(b);
                    for i in 0..n {
                        prop_assert_eq!(block[i][c].to_bits(), single[i].to_bits());
                        prop_assert_eq!(single[i].to_bits(), y[i].to_bits());
                    }
                }
            }
        }

        #[test]
        fn prop_reconstruction(
            entries in proptest::collection::vec(-2.0f64..2.0, 16),
            rhs in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let a = spd_from_seedlike(&entries, 4);
            let chol = Cholesky::factor(&a, 0.0).unwrap();
            // L Lᵀ == A
            let l = chol.factor_matrix();
            let recon = l.mat_mul(&l.transpose()).unwrap();
            for i in 0..4 {
                for j in 0..4 {
                    prop_assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-8 * (1.0 + a.max_abs()));
                }
            }
            // solve residual
            let x = chol.solve(&rhs);
            let back = a.mat_vec(&x);
            for (bi, ri) in back.iter().zip(&rhs) {
                prop_assert!((bi - ri).abs() < 1e-6 * (1.0 + ri.abs()));
            }
        }

        #[test]
        fn prop_logdet_positive_for_diagonally_dominant(
            diag in proptest::collection::vec(2.0f64..10.0, 3)
        ) {
            let mut a = Matrix::zeros(3, 3);
            for i in 0..3 {
                a[(i, i)] = diag[i];
            }
            let chol = a.cholesky(0.0).unwrap();
            let expect: f64 = diag.iter().map(|d| d.ln()).sum();
            prop_assert!((chol.log_determinant() - expect).abs() < 1e-9);
        }
    }
}
