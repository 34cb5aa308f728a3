//! Property tests for the packed Cholesky factor over random SPD matrices.

use proptest::prelude::*;
use vaesa_linalg::triangular::{packed_row_offset, solve_lower_multi};
use vaesa_linalg::Cholesky;

/// A random SPD matrix `A = BᵀB + I` (dense, row-major) from a flat
/// coefficient vector.
fn spd_from(coeffs: &[f64], n: usize) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let dot: f64 = (0..n).map(|k| coeffs[k * n + i] * coeffs[k * n + j]).sum();
            a[i * n + j] = dot + if i == j { 1.0 } else { 0.0 };
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn factor_reconstructs_and_forward_solves(
        coeffs in proptest::collection::vec(-3.0f64..3.0, 16),
        rhs in proptest::collection::vec(-10.0f64..10.0, 4),
    ) {
        let n = 4;
        let a = spd_from(&coeffs, n);
        let l = Cholesky::new(&a, n).expect("SPD by construction").into_factor();
        let row = |i: usize| &l[packed_row_offset(i)..packed_row_offset(i + 1)];
        let scale = 1.0 + a.iter().fold(0.0f64, |m, v| m.max(v.abs()));

        // L Lᵀ = A
        for i in 0..n {
            for j in 0..n {
                let k = i.min(j) + 1;
                let rec: f64 = row(i)[..k].iter().zip(&row(j)[..k]).map(|(x, y)| x * y).sum();
                prop_assert!((rec - a[i * n + j]).abs() <= 1e-8 * scale);
            }
        }

        // L y = b round-trips.
        let mut y = rhs.clone();
        solve_lower_multi(&l, n, &mut y, 1);
        for (i, want) in rhs.iter().enumerate() {
            let got: f64 = row(i).iter().zip(&y).map(|(x, y)| x * y).sum();
            prop_assert!((want - got).abs() <= 1e-7 * (1.0 + want.abs()));
        }
    }
}
