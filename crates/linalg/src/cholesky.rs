use crate::triangular::packed_row_offset;
use crate::{LinalgError, Result};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix,
/// with automatic jitter escalation.
///
/// Gaussian-process kernel matrices are symmetric positive semi-definite and
/// frequently ill-conditioned, so [`Cholesky::new`] retries with an
/// exponentially growing diagonal jitter (starting at `1e-10`, capped at
/// `1e-2` relative to the mean diagonal) before giving up.
///
/// The factor is kept as a packed row-major lower triangle: row `i` starts
/// at [`packed_row_offset`]`(i) = i(i+1)/2` and holds `i + 1` entries, the
/// layout [`crate::triangular::solve_lower_multi`] reads.
///
/// # Examples
///
/// ```
/// use vaesa_linalg::Cholesky;
///
/// let a = [25.0, 15.0, -5.0,
///          15.0, 18.0,  0.0,
///          -5.0,  0.0, 11.0];
/// let l = Cholesky::new(&a, 3)?.into_factor();
/// assert_eq!(l, [5.0, 3.0, 3.0, -1.0, 1.0, 3.0]);
/// # Ok::<(), vaesa_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Vec<f64>,
}

impl Cholesky {
    /// Factors the symmetric positive-definite `n x n` matrix `a`, given
    /// dense and row-major; only its lower triangle is read.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if `n == 0`, and
    /// [`LinalgError::NotPositiveDefinite`] if factorization fails even after
    /// jitter escalation.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n * n`.
    pub fn new(a: &[f64], n: usize) -> Result<Self> {
        assert_eq!(a.len(), n * n, "matrix has {} entries, not {n}²", a.len());
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

    fn new_timed(a: &[f64], n: usize) -> Result<Self> {
        let mean_diag = (0..n).map(|i| a[i * n + i].abs()).sum::<f64>() / n as f64;
        let scale = if mean_diag > 0.0 { mean_diag } else { 1.0 };
        let mut jitter = 0.0;
        let max_jitter = 1e-2 * scale;
        let mut l = vec![0.0; packed_row_offset(n)];
        loop {
            if Self::factor_with_jitter(a, n, jitter, &mut l) {
                return Ok(Cholesky { l });
            }
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

    /// Writes the factor of `a + jitter·I` into the packed `l`; `false`
    /// when a pivot is not positive and finite. Entry `(i, j)` is
    /// `a[i][j]` (plus the jitter on the diagonal), minus `L[i][k]·L[j][k]`
    /// for `k = 0..j` in order, then the square root on the diagonal or the
    /// division by `L[j][j]` below it.
    fn factor_with_jitter(a: &[f64], n: usize, jitter: f64, l: &mut [f64]) -> bool {
        for i in 0..n {
            let oi = packed_row_offset(i);
            let (prior, row_i) = l.split_at_mut(oi);
            let row_i = &mut row_i[..=i];
            for j in 0..i {
                let row_j = &prior[packed_row_offset(j)..][..=j];
                let mut sum = a[i * n + j];
                for (x, y) in row_i[..j].iter().zip(&row_j[..j]) {
                    sum -= x * y;
                }
                row_i[j] = sum / row_j[j];
            }
            let mut sum = a[i * n + i] + jitter;
            for x in &row_i[..i] {
                sum -= x * x;
            }
            if sum <= 0.0 || !sum.is_finite() {
                return false;
            }
            row_i[i] = sum.sqrt();
        }
        true
    }

    /// The packed lower-triangular factor `L`.
    pub fn into_factor(self) -> Vec<f64> {
        self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPD3: [f64; 9] = [25.0, 15.0, -5.0, 15.0, 18.0, 0.0, -5.0, 0.0, 11.0];

    /// `(L Lᵀ)[i][j]` from a packed factor.
    fn product(l: &[f64], i: usize, j: usize) -> f64 {
        let (ri, rj) = (packed_row_offset(i), packed_row_offset(j));
        (0..=i.min(j)).map(|k| l[ri + k] * l[rj + k]).sum()
    }

    #[test]
    fn factor_known_matrix_packed() {
        let l = Cholesky::new(&SPD3, 3).unwrap().into_factor();
        assert_eq!(l, [5.0, 3.0, 3.0, -1.0, 1.0, 3.0]);
    }

    #[test]
    fn reconstruction_l_lt() {
        let l = Cholesky::new(&SPD3, 3).unwrap().into_factor();
        for i in 0..3 {
            for j in 0..3 {
                assert!((product(&l, i, j) - SPD3[i * 3 + j]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        // Eigenvalues 3 and -1.
        assert!(matches!(
            Cholesky::new(&[1.0, 2.0, 2.0, 1.0], 2),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn near_singular_recovers_with_jitter() {
        // Rank one, PSD but singular: the later pivots are rounding noise
        // or need jitter, and must still come out tiny, positive and finite.
        let l = Cholesky::new(&[2.0; 9], 3).unwrap().into_factor();
        assert!(l.iter().all(|v| v.is_finite()));
        assert!(l[2] > 0.0 && l[2] < 1e-3, "pivot {}", l[2]);
    }

    #[test]
    fn empty_matrix_rejected() {
        assert!(matches!(Cholesky::new(&[], 0), Err(LinalgError::Empty)));
    }

    #[test]
    #[should_panic(expected = "entries")]
    fn non_square_input_panics() {
        let _ = Cholesky::new(&[1.0; 6], 2);
    }
}
