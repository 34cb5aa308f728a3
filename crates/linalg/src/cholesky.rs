use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix,
/// with automatic jitter escalation.
///
/// Gaussian-process kernel matrices are symmetric positive semi-definite and
/// frequently ill-conditioned, so [`Cholesky::new`] retries with an
/// exponentially growing diagonal jitter (starting at `1e-10`, capped at
/// `1e-2` relative to the mean diagonal) before giving up.
///
/// # Examples
///
/// ```
/// use vaesa_linalg::{Matrix, Cholesky};
///
/// let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0],
///                             &[15.0, 18.0,  0.0],
///                             &[-5.0,  0.0, 11.0]])?;
/// let chol = Cholesky::new(&a)?;
/// let l = chol.factor();
/// assert!((l[(0, 0)] - 5.0).abs() < 1e-12);
/// # Ok::<(), vaesa_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    jitter: f64,
}

impl Cholesky {
    /// Factors the symmetric positive-definite matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `a` is not square, and
    /// [`LinalgError::NotPositiveDefinite`] if factorization fails even after
    /// jitter escalation.
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        // One histogram sample per factorization (jitter retries included):
        // an O(n³) operation, so the sample itself is noise.
        let timer = std::time::Instant::now();
        let result = Self::new_timed(a, n);
        vaesa_obs::histogram("linalg.cholesky.factor_ns").record_duration(timer.elapsed());
        result
    }

    fn new_timed(a: &Matrix, n: usize) -> Result<Self> {
        let mean_diag = (0..n).map(|i| a[(i, i)].abs()).sum::<f64>() / n as f64;
        let scale = if mean_diag > 0.0 { mean_diag } else { 1.0 };
        let mut jitter = 0.0;
        let max_jitter = 1e-2 * scale;
        loop {
            match Self::factor_with_jitter(a, jitter) {
                Some(l) => return Ok(Cholesky { l, jitter }),
                None => {
                    jitter = if jitter == 0.0 {
                        1e-10 * scale
                    } else {
                        jitter * 10.0
                    };
                    if jitter > max_jitter {
                        return Err(LinalgError::NotPositiveDefinite { max_jitter });
                    }
                }
            }
        }
    }

    fn factor_with_jitter(a: &Matrix, jitter: f64) -> Option<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                if i == j {
                    sum += jitter;
                }
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// The diagonal jitter that was added to achieve positive definiteness
    /// (0.0 when none was needed).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `L y = b` by forward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    #[allow(clippy::needless_range_loop)] // triangular solves read clearest with indices
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length {} != dim {}", b.len(), n);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        y
    }

    /// Solves `Lᵀ x = y` by back substitution.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.dim()`.
    #[allow(clippy::needless_range_loop)] // triangular solves read clearest with indices
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "rhs length {} != dim {}", y.len(), n);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        x
    }

    /// Solves `A x = b` using the factorization.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// Log-determinant of `A`, i.e. `2 * Σ ln L[i][i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Solves `L Y = B` for every column of `b` in one blocked pass.
    ///
    /// Column `j` of the result is bit-identical to
    /// [`Cholesky::solve_lower`] on column `j` of `b`, at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_lower_multi(&self, b: &Matrix) -> Result<Matrix> {
        self.check_multi_rhs(b, "solve_lower_multi")?;
        let timer = std::time::Instant::now();
        let mut out = b.clone();
        crate::triangular::solve_lower_multi_dense(&self.l, &mut out);
        vaesa_obs::histogram("linalg.cholesky.solve_ns").record_duration(timer.elapsed());
        Ok(out)
    }

    /// Solves `Lᵀ X = Y` for every column of `b` in one blocked pass.
    ///
    /// Column `j` of the result is bit-identical to
    /// [`Cholesky::solve_upper`] on column `j` of `b`, at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_upper_multi(&self, b: &Matrix) -> Result<Matrix> {
        self.check_multi_rhs(b, "solve_upper_multi")?;
        let timer = std::time::Instant::now();
        let mut out = b.clone();
        crate::triangular::solve_upper_multi_dense(&self.l, &mut out);
        vaesa_obs::histogram("linalg.cholesky.solve_ns").record_duration(timer.elapsed());
        Ok(out)
    }

    /// Solves `A X = B` via one multi-RHS forward and one multi-RHS back
    /// substitution (bit-identical to solving column by column).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        self.check_multi_rhs(b, "solve_matrix")?;
        let mut out = b.clone();
        crate::triangular::solve_lower_multi_dense(&self.l, &mut out);
        crate::triangular::solve_upper_multi_dense(&self.l, &mut out);
        Ok(out)
    }

    fn check_multi_rhs(&self, b: &Matrix, op: &'static str) -> Result<()> {
        if b.rows() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                left: (self.dim(), self.dim()),
                right: b.shape(),
                op,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]).unwrap()
    }

    #[test]
    fn factor_known_matrix() {
        let chol = Cholesky::new(&spd3()).unwrap();
        let l = chol.factor();
        let expected =
            Matrix::from_rows(&[&[5.0, 0.0, 0.0], &[3.0, 3.0, 0.0], &[-1.0, 1.0, 3.0]]).unwrap();
        assert!(l.approx_eq(&expected, 1e-12));
        assert_eq!(chol.jitter(), 0.0);
    }

    #[test]
    fn reconstruction_l_lt() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.factor();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(rec.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_recovers_rhs() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let x = chol.solve(&[1.0, 2.0, 3.0]);
        let b = a.matvec(&x);
        for (got, want) in b.iter().zip([1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-10, "got {got}, want {want}");
        }
    }

    #[test]
    fn log_det_matches_known_value() {
        // det(A) = (5*3*3)^2 = 2025 for the spd3 factor above.
        let chol = Cholesky::new(&spd3()).unwrap();
        assert!((chol.log_det() - 2025f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn non_square_rejected() {
        let m = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&m),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&m),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn near_singular_recovers_with_jitter() {
        // Rank-1 matrix + tiny diagonal: jitter escalation should succeed.
        let mut m = Matrix::zeros(3, 3);
        for r in 0..3 {
            for c in 0..3 {
                m[(r, c)] = 2.0; // rank one, PSD but singular
            }
        }
        let chol = Cholesky::new(&m).unwrap();
        // Depending on rounding, the factorization may succeed with zero
        // jitter or require escalation; either way it must stay usable.
        let x = chol.solve(&[1.0, 1.0, 1.0]);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn solve_matrix_identity_gives_inverse() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let inv = chol.solve_matrix(&Matrix::identity(3)).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-9));
    }

    #[test]
    fn multi_rhs_solves_match_single_rhs_bitwise() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let b = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[3.0, 0.25, -1.0], &[-0.75, 4.0, 2.0]])
            .unwrap();
        let lower = chol.solve_lower_multi(&b).unwrap();
        let upper = chol.solve_upper_multi(&b).unwrap();
        let full = chol.solve_matrix(&b).unwrap();
        for c in 0..3 {
            let col = b.col(c);
            let yl = chol.solve_lower(&col);
            let yu = chol.solve_upper(&col);
            let ys = chol.solve(&col);
            for r in 0..3 {
                assert_eq!(lower[(r, c)].to_bits(), yl[r].to_bits());
                assert_eq!(upper[(r, c)].to_bits(), yu[r].to_bits());
                assert_eq!(full[(r, c)].to_bits(), ys[r].to_bits());
            }
        }
    }

    #[test]
    fn solve_matrix_shape_mismatch() {
        let chol = Cholesky::new(&spd3()).unwrap();
        assert!(chol.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn empty_matrix_rejected() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
    }
}
