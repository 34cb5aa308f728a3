use vaesa_linalg::triangular::{packed_row_offset, solve_lower_multi};
use vaesa_linalg::{Cholesky, LinalgError};

/// Observation count below which GP fitting stays serial: thread fan-out
/// costs more than the O(n³) work it would hide on small problems, and the
/// BO loop refits small GPs every iteration.
const GP_PAR_MIN_N: usize = 64;

/// Output variance of the kernel, `k(x, x)`. Targets are standardized, so
/// it stays at one.
const VARIANCE: f64 = 1.0;

/// Isotropic Matérn-5/2 covariance `k(a, b)`: the conventional kernel for
/// Bayesian optimization (Snoek et al. 2012).
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths.
fn matern52(lengthscale: f64, a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "kernel input dimension mismatch");
    let d2: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) / lengthscale;
            d * d
        })
        .sum();
    let r = d2.sqrt();
    let sqrt5_r = 5f64.sqrt() * r;
    VARIANCE * (1.0 + sqrt5_r + 5.0 * d2 / 3.0) * (-sqrt5_r).exp()
}

/// Gaussian-process regression with incremental updates.
///
/// The Bayesian-optimization loop adds one observation per iteration; a full
/// refit would cost O(n³) each time, so [`GpRegressor::add`] extends the
/// Cholesky factor in O(n²) and only [`GpRegressor::refit`] (called
/// periodically to retune the lengthscale) pays the cubic cost.
///
/// Targets are internally standardized (zero mean, unit variance) for
/// numerical stability; predictions are returned in the original units.
///
/// # Examples
///
/// ```
/// use vaesa_dse::GpRegressor;
///
/// let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
/// let ys = vec![0.0, 1.0, 4.0];
/// let gp = GpRegressor::fit(&xs, &ys)?;
/// let (mean, var) = gp.predict(&[1.0]);
/// assert!((mean - 1.0).abs() < 0.2);
/// assert!(var >= 0.0);
/// # Ok::<(), vaesa_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GpRegressor {
    /// Isotropic Matérn-5/2 lengthscale (> 0).
    lengthscale: f64,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    /// Lower-triangular Cholesky factor of `K + noise·I`, stored as a
    /// packed row-major triangle: row `i` starts at `i(i+1)/2` and has
    /// `i + 1` entries. Packing keeps the factor contiguous, which both the
    /// incremental extension (append one row) and the multi-RHS batched
    /// solves want.
    l: Vec<f64>,
    /// `(K + noise·I)⁻¹ ỹ` for the standardized targets ỹ.
    alpha: Vec<f64>,
}

impl GpRegressor {
    /// Default observation-noise variance (relative to standardized targets).
    pub const DEFAULT_NOISE: f64 = 1e-6;

    /// Fits a GP with a lengthscale chosen by maximizing the log marginal
    /// likelihood over a coarse grid, using the Matérn-5/2 kernel and
    /// [`GpRegressor::DEFAULT_NOISE`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when called with no data, or a
    /// factorization error if every candidate lengthscale fails.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<Self, LinalgError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(LinalgError::Empty);
        }
        // One sample per hyperparameter-searched fit (the BO refit cadence);
        // the six candidate factorizations inside dominate the cost.
        let timer = std::time::Instant::now();
        let result = Self::fit_best_lengthscale(xs, ys);
        vaesa_obs::histogram("dse.gp.fit_ns").record_duration(timer.elapsed());
        vaesa_obs::counter("dse.gp.fits").incr();
        result
    }

    fn fit_best_lengthscale(xs: &[Vec<f64>], ys: &[f64]) -> Result<Self, LinalgError> {
        // Candidate lengthscales relative to the data's coordinate spread.
        // Each candidate costs a full O(n³) factorization, so the grid fans
        // out across the pool; the reduction walks candidates in grid order,
        // reproducing the serial selection (first maximum wins, last error
        // reported) for any thread count.
        let spread = coordinate_spread(xs).max(1e-9);
        let grid = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0];
        let fit_one = |&rel: &f64| Self::fit_fixed(xs, ys, rel * spread);
        let candidates: Vec<Result<Self, LinalgError>> = if xs.len() >= GP_PAR_MIN_N {
            vaesa_par::par_map(&grid, fit_one)
        } else {
            grid.iter().map(fit_one).collect()
        };
        let mut best: Option<(f64, GpRegressor)> = None;
        let mut last_err = LinalgError::Empty;
        for candidate in candidates {
            match candidate {
                Ok(gp) => {
                    let lml = gp.log_marginal_likelihood();
                    if best.as_ref().is_none_or(|(b, _)| lml > *b) {
                        best = Some((lml, gp));
                    }
                }
                Err(e) => last_err = e,
            }
        }
        best.map(|(_, gp)| gp).ok_or(last_err)
    }

    /// Fits with a fixed lengthscale (no hyperparameter search).
    fn fit_fixed(xs: &[Vec<f64>], ys: &[f64], lengthscale: f64) -> Result<Self, LinalgError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(LinalgError::Empty);
        }
        let n = xs.len();
        // `Cholesky::new` reads only the lower triangle, so only it is filled.
        let mut k = vec![0.0; n * n];
        let fill_row = |i: usize, row: &mut [f64]| {
            for (j, slot) in row[..=i].iter_mut().enumerate() {
                *slot = matern52(lengthscale, &xs[i], &xs[j]);
            }
            row[i] += Self::DEFAULT_NOISE;
        };
        if n >= GP_PAR_MIN_N && vaesa_par::num_threads() > 1 {
            vaesa_par::par_chunks_mut(&mut k, n, |i, _, row| fill_row(i, row));
        } else {
            k.chunks_mut(n)
                .enumerate()
                .for_each(|(i, row)| fill_row(i, row));
        }
        let l = Cholesky::new(&k, n)?.into_factor();
        let mut gp = GpRegressor {
            lengthscale,
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            y_mean: 0.0,
            y_std: 1.0,
            l,
            alpha: Vec::new(),
        };
        gp.recompute_alpha();
        Ok(gp)
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns `true` if the GP holds no observations.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The kernel lengthscale the last fit selected.
    pub fn lengthscale(&self) -> f64 {
        self.lengthscale
    }

    /// Adds one observation, extending the Cholesky factor in O(n²).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if the extended matrix
    /// loses positive definiteness in floating point; callers should then
    /// [`GpRegressor::refit`].
    pub fn add(&mut self, x: Vec<f64>, y: f64) -> Result<(), LinalgError> {
        let n = self.len();
        // New column k_vec = K(X, x); solve L b = k_vec.
        let k_vec: Vec<f64> = self.xs.iter().map(|xi| self.kernel(xi, &x)).collect();
        let b = self.solve_lower(&k_vec);
        let kxx = self.kernel(&x, &x) + Self::DEFAULT_NOISE;
        let d2 = kxx - b.iter().map(|v| v * v).sum::<f64>();
        if d2 <= 0.0 || !d2.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { max_jitter: 0.0 });
        }
        debug_assert_eq!(b.len(), n);
        self.l.extend_from_slice(&b);
        self.l.push(d2.sqrt());
        self.xs.push(x);
        self.ys.push(y);
        self.recompute_alpha();
        Ok(())
    }

    /// Refits from scratch, re-tuning the lengthscale.
    ///
    /// # Errors
    ///
    /// Same as [`GpRegressor::fit`].
    pub fn refit(&mut self) -> Result<(), LinalgError> {
        let refit = Self::fit(&self.xs, &self.ys)?;
        *self = refit;
        Ok(())
    }

    /// Posterior mean and variance at `x`, in original target units.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        let k_vec: Vec<f64> = self.xs.iter().map(|xi| self.kernel(xi, x)).collect();
        let mean_std: f64 = k_vec.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        let v = self.solve_lower(&k_vec);
        let var_std = (self.kernel(x, x) - v.iter().map(|b| b * b).sum::<f64>()).max(0.0);
        (
            mean_std * self.y_std + self.y_mean,
            var_std * self.y_std * self.y_std,
        )
    }

    /// Posterior means and variances for a whole candidate batch, in
    /// original target units; slot `j` is bit-identical to
    /// `self.predict(&xs[j])` at any thread count.
    ///
    /// The kernel cross-matrix `K*` (`n x m`) is filled once (in parallel
    /// for large models), the mean reduction reuses it, and a single
    /// blocked multi-RHS forward substitution replaces the `m`
    /// per-candidate vector solves — no per-candidate `k_vec` allocation.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        let n = self.len();
        let m = xs.len();
        if m == 0 {
            return Vec::new();
        }
        let mut kstar = vec![0.0; n * m];
        if n >= GP_PAR_MIN_N && vaesa_par::num_threads() > 1 {
            vaesa_par::par_chunks_mut(&mut kstar, m, |i, _, row| {
                for (slot, x) in row.iter_mut().zip(xs) {
                    *slot = self.kernel(&self.xs[i], x);
                }
            });
        } else {
            for (i, row) in kstar.chunks_mut(m).enumerate() {
                for (slot, x) in row.iter_mut().zip(xs) {
                    *slot = self.kernel(&self.xs[i], x);
                }
            }
        }
        // Means: accumulate K*ᵀ·α with the training index outermost — per
        // candidate this is the same left-to-right sum `predict` computes.
        let mut mean_std = vec![0.0; m];
        for (&a, row) in self.alpha.iter().zip(kstar.chunks(m)) {
            for (acc, &k) in mean_std.iter_mut().zip(row) {
                *acc += k * a;
            }
        }
        // One multi-RHS solve turns column j into v_j = L⁻¹ K*_j in place.
        solve_lower_multi(&self.l, n, &mut kstar, m);
        let mut v_sq = vec![0.0; m];
        for row in kstar.chunks(m) {
            for (acc, &v) in v_sq.iter_mut().zip(row) {
                *acc += v * v;
            }
        }
        xs.iter()
            .zip(mean_std.iter().zip(&v_sq))
            .map(|(x, (&mean, &sq))| {
                let var = (self.kernel(x, x) - sq).max(0.0);
                (
                    mean * self.y_std + self.y_mean,
                    var * self.y_std * self.y_std,
                )
            })
            .collect()
    }

    /// Log marginal likelihood of the standardized targets under the
    /// current kernel.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let n = self.len() as f64;
        let ys_std: Vec<f64> = self
            .ys
            .iter()
            .map(|&y| (y - self.y_mean) / self.y_std)
            .collect();
        let data_fit: f64 = ys_std.iter().zip(&self.alpha).map(|(a, b)| a * b).sum();
        let log_det: f64 = (0..self.len())
            .map(|i| self.l[packed_row_offset(i) + i].ln())
            .sum();
        -0.5 * data_fit - log_det - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        matern52(self.lengthscale, a, b)
    }

    fn recompute_alpha(&mut self) {
        let n = self.len();
        let mean = self.ys.iter().sum::<f64>() / n as f64;
        let var = self.ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / n as f64;
        self.y_mean = mean;
        self.y_std = if var > 1e-18 { var.sqrt() } else { 1.0 };
        let ys_std: Vec<f64> = self
            .ys
            .iter()
            .map(|&y| (y - self.y_mean) / self.y_std)
            .collect();
        let z = self.solve_lower(&ys_std);
        self.alpha = self.solve_upper(&z);
    }

    #[allow(clippy::needless_range_loop)] // triangular solves read clearest with indices
    fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.len();
        debug_assert_eq!(b.len(), n);
        let mut y = vec![0.0; n];
        for i in 0..n {
            let off = packed_row_offset(i);
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[off + k] * y[k];
            }
            y[i] = sum / self.l[off + i];
        }
        y
    }

    #[allow(clippy::needless_range_loop)] // triangular solves read clearest with indices
    fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.len();
        debug_assert_eq!(y.len(), n);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[packed_row_offset(k) + i] * x[k];
            }
            x[i] = sum / self.l[packed_row_offset(i) + i];
        }
        x
    }
}

/// Mean per-dimension spread (max - min) of the inputs, used to scale the
/// lengthscale search grid.
fn coordinate_spread(xs: &[Vec<f64>]) -> f64 {
    let d = xs[0].len();
    let mut total = 0.0;
    for j in 0..d {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for x in xs {
            lo = lo.min(x[j]);
            hi = hi.max(x[j]);
        }
        total += (hi - lo).max(0.0);
    }
    total / d as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matern52_is_unit_at_zero_symmetric_and_decaying() {
        let x = [1.0, -2.0, 0.5];
        assert_eq!(matern52(0.7, &x, &x), VARIANCE);
        let (a, b, c) = ([0.0, 0.0], [1.0, 1.0], [3.0, 3.0]);
        assert_eq!(matern52(1.0, &a, &b), matern52(1.0, &b, &a));
        assert!(matern52(1.0, &a, &b) > matern52(1.0, &a, &c));
        assert!(matern52(1.0, &a, &c) > 0.0);
    }

    #[test]
    fn matern52_known_value_and_lengthscale_decay() {
        // r = 1 => (1 + √5 + 5/3)·exp(-√5)
        let s5 = 5f64.sqrt();
        let expected = (1.0 + s5 + 5.0 / 3.0) * (-s5).exp();
        assert!((matern52(1.0, &[0.0], &[1.0]) - expected).abs() < 1e-12);
        assert!(matern52(0.1, &[0.0], &[1.0]) < 0.01);
        assert!(matern52(10.0, &[0.0], &[1.0]) > 0.99);
    }

    fn training_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 2.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() * 3.0 + 10.0).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (xs, ys) = training_data();
        let gp = GpRegressor::fit(&xs, &ys).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            let (m, v) = gp.predict(x);
            assert!((m - y).abs() < 0.05, "mean {m} vs target {y}");
            assert!(v < 0.1, "variance {v} too high at a training point");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (xs, ys) = training_data();
        let gp = GpRegressor::fit(&xs, &ys).unwrap();
        let (_, v_near) = gp.predict(&[2.0]);
        let (_, v_far) = gp.predict(&[30.0]);
        assert!(v_far > v_near * 10.0, "near {v_near}, far {v_far}");
    }

    #[test]
    fn incremental_add_matches_full_fit() {
        let (xs, ys) = training_data();
        let full = GpRegressor::fit_fixed(&xs, &ys, 1.0).unwrap();
        let mut inc = GpRegressor::fit_fixed(&xs[..4], &ys[..4], 1.0).unwrap();
        for i in 4..xs.len() {
            inc.add(xs[i].clone(), ys[i]).unwrap();
        }
        for probe in [[0.7], [3.3], [8.0]] {
            let (mf, vf) = full.predict(&probe);
            let (mi, vi) = inc.predict(&probe);
            assert!((mf - mi).abs() < 1e-8, "means differ: {mf} vs {mi}");
            assert!((vf - vi).abs() < 1e-8, "variances differ: {vf} vs {vi}");
        }
    }

    #[test]
    fn add_rejects_a_non_finite_extension_and_keeps_the_fit() {
        let mut gp = GpRegressor::fit(&[vec![1.0]], &[0.0]).unwrap();
        let before = gp.predict(&[1.5]);
        assert!(gp.add(vec![f64::NAN], 0.0).is_err());
        assert_eq!(gp.len(), 1);
        let after = gp.predict(&[1.5]);
        assert_eq!(before.0.to_bits(), after.0.to_bits());
        assert_eq!(before.1.to_bits(), after.1.to_bits());
    }

    #[test]
    fn refit_preserves_observations() {
        let (xs, ys) = training_data();
        let mut gp = GpRegressor::fit(&xs[..6], &ys[..6]).unwrap();
        for i in 6..xs.len() {
            gp.add(xs[i].clone(), ys[i]).unwrap();
        }
        gp.refit().unwrap();
        assert_eq!(gp.len(), xs.len());
        let (m, _) = gp.predict(&xs[8]);
        assert!((m - ys[8]).abs() < 0.1);
    }

    #[test]
    fn lml_prefers_reasonable_lengthscales() {
        let (xs, ys) = training_data();
        let good = GpRegressor::fit(&xs, &ys).unwrap();
        let bad = GpRegressor::fit_fixed(&xs, &ys, 1e-3).unwrap();
        assert!(good.log_marginal_likelihood() > bad.log_marginal_likelihood());
    }

    #[test]
    fn empty_fit_rejected() {
        assert!(GpRegressor::fit(&[], &[]).is_err());
        assert!(GpRegressor::fit(&[vec![1.0]], &[]).is_err());
    }

    #[test]
    fn constant_targets_are_handled() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys = vec![7.0; 5];
        let gp = GpRegressor::fit(&xs, &ys).unwrap();
        let (m, _) = gp.predict(&[2.5]);
        assert!((m - 7.0).abs() < 1e-6);
    }

    #[test]
    fn large_fit_is_deterministic_across_thread_counts() {
        // Big enough to take the parallel kernel-build and grid-search
        // paths; results must be bit-identical at every thread count.
        let xs: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] - x[1]).collect();
        std::env::set_var("VAESA_THREADS", "1");
        let base = GpRegressor::fit(&xs, &ys).unwrap();
        for threads in ["2", "5"] {
            std::env::set_var("VAESA_THREADS", threads);
            let gp = GpRegressor::fit(&xs, &ys).unwrap();
            assert_eq!(
                base.log_marginal_likelihood().to_bits(),
                gp.log_marginal_likelihood().to_bits(),
                "threads = {threads}"
            );
            for probe in [[0.3, -0.2], [1.5, 0.9]] {
                let (m0, v0) = base.predict(&probe);
                let (m1, v1) = gp.predict(&probe);
                assert_eq!(m0.to_bits(), m1.to_bits());
                assert_eq!(v0.to_bits(), v1.to_bits());
            }
        }
        std::env::remove_var("VAESA_THREADS");
    }

    #[test]
    fn predict_batch_matches_predict_bitwise_across_threads() {
        // Small model: serial kernel fill. Large model: parallel fill and
        // the blocked multi-RHS solve. Both must match per-point `predict`
        // exactly (the ≤1e-12 equivalence bound holds with zero slack).
        let small: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 / 2.0, -(i as f64)]).collect();
        let small_ys: Vec<f64> = small.iter().map(|x| x[0].sin() + 0.1 * x[1]).collect();
        let large: Vec<Vec<f64>> = (0..90)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()])
            .collect();
        let large_ys: Vec<f64> = large.iter().map(|x| 2.0 * x[0] - x[1]).collect();
        let candidates: Vec<Vec<f64>> = (0..17)
            .map(|j| vec![(j as f64 * 0.61).cos() * 2.0, (j as f64 * 0.23).sin() * 2.0])
            .collect();
        for (xs, ys) in [(small, small_ys), (large, large_ys)] {
            let gp = GpRegressor::fit(&xs, &ys).unwrap();
            let serial: Vec<(f64, f64)> = candidates.iter().map(|x| gp.predict(x)).collect();
            for threads in ["1", "2", "5"] {
                std::env::set_var("VAESA_THREADS", threads);
                let batch = gp.predict_batch(&candidates);
                assert_eq!(batch.len(), serial.len());
                for (j, ((bm, bv), (sm, sv))) in batch.iter().zip(&serial).enumerate() {
                    assert!((bm - sm).abs() <= 1e-12 && (bv - sv).abs() <= 1e-12);
                    assert_eq!(bm.to_bits(), sm.to_bits(), "mean {j}, threads {threads}");
                    assert_eq!(bv.to_bits(), sv.to_bits(), "var {j}, threads {threads}");
                }
            }
            std::env::remove_var("VAESA_THREADS");
        }
    }

    #[test]
    fn predict_batch_after_incremental_adds() {
        let (xs, ys) = training_data();
        let mut gp = GpRegressor::fit_fixed(&xs[..4], &ys[..4], 1.0).unwrap();
        for i in 4..xs.len() {
            gp.add(xs[i].clone(), ys[i]).unwrap();
        }
        let probes = vec![vec![0.7], vec![3.3], vec![8.0]];
        let batch = gp.predict_batch(&probes);
        for (probe, &(bm, bv)) in probes.iter().zip(&batch) {
            let (sm, sv) = gp.predict(probe);
            assert_eq!(bm.to_bits(), sm.to_bits());
            assert_eq!(bv.to_bits(), sv.to_bits());
        }
    }

    #[test]
    fn predict_batch_empty_is_empty() {
        let (xs, ys) = training_data();
        let gp = GpRegressor::fit(&xs, &ys).unwrap();
        assert!(gp.predict_batch(&[]).is_empty());
    }

    #[test]
    fn multidimensional_inputs() {
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + 2.0 * x[1]).collect();
        let gp = GpRegressor::fit(&xs, &ys).unwrap();
        let (m, _) = gp.predict(&[2.0, 1.5]);
        assert!((m - 5.0).abs() < 0.5, "predicted {m}");
    }
}
