use serde::{Deserialize, Serialize};

/// Stationary covariance kernels for Gaussian-process regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum KernelKind {
    /// Squared-exponential (RBF) kernel.
    Rbf,
    /// Matérn-5/2 kernel — the conventional choice for Bayesian
    /// optimization (Snoek et al. 2012), less smooth than RBF.
    #[default]
    Matern52,
}

/// A kernel with an isotropic lengthscale and an output variance.
///
/// # Examples
///
/// ```
/// use vaesa_dse::{Kernel, KernelKind};
///
/// let k = Kernel::new(KernelKind::Rbf, 1.0, 2.0);
/// assert_eq!(k.eval(&[0.0], &[0.0]), 2.0); // k(x,x) = variance
/// assert!(k.eval(&[0.0], &[3.0]) < 0.05);  // decays with distance
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Kernel family.
    pub kind: KernelKind,
    /// Isotropic lengthscale (> 0).
    pub lengthscale: f64,
    /// Output variance (> 0); `k(x, x) = variance`.
    pub variance: f64,
}

impl Kernel {
    /// Creates a kernel.
    ///
    /// # Panics
    ///
    /// Panics if `lengthscale` or `variance` is not positive.
    pub fn new(kind: KernelKind, lengthscale: f64, variance: f64) -> Self {
        assert!(lengthscale > 0.0, "lengthscale must be positive");
        assert!(variance > 0.0, "variance must be positive");
        Kernel {
            kind,
            lengthscale,
            variance,
        }
    }

    /// Evaluates `k(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` have different lengths.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "kernel input dimension mismatch");
        let d2: f64 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                let d = (x - y) / self.lengthscale;
                d * d
            })
            .sum();
        match self.kind {
            KernelKind::Rbf => self.variance * (-0.5 * d2).exp(),
            KernelKind::Matern52 => {
                let r = d2.sqrt();
                let sqrt5_r = 5f64.sqrt() * r;
                self.variance * (1.0 + sqrt5_r + 5.0 * d2 / 3.0) * (-sqrt5_r).exp()
            }
        }
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new(KernelKind::Matern52, 1.0, 1.0)
    }
}

/// A kernel with automatic-relevance-determination (ARD): one lengthscale
/// per input dimension, so the GP can stretch along axes the objective is
/// insensitive to. Standard practice for Bayesian optimization over
/// heterogeneous hardware parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArdKernel {
    /// Kernel family.
    pub kind: KernelKind,
    /// Per-dimension lengthscales (> 0).
    pub lengthscales: Vec<f64>,
    /// Output variance (> 0).
    pub variance: f64,
}

impl ArdKernel {
    /// Creates an ARD kernel.
    ///
    /// # Panics
    ///
    /// Panics if any lengthscale or the variance is not positive, or no
    /// dimensions are given.
    pub fn new(kind: KernelKind, lengthscales: Vec<f64>, variance: f64) -> Self {
        assert!(
            !lengthscales.is_empty(),
            "ARD kernel needs at least one dimension"
        );
        assert!(
            lengthscales.iter().all(|&l| l > 0.0),
            "lengthscales must be positive"
        );
        assert!(variance > 0.0, "variance must be positive");
        ArdKernel {
            kind,
            lengthscales,
            variance,
        }
    }

    /// An ARD kernel with every dimension at the same lengthscale.
    pub fn isotropic(kind: KernelKind, dim: usize, lengthscale: f64, variance: f64) -> Self {
        ArdKernel::new(kind, vec![lengthscale; dim], variance)
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.lengthscales.len()
    }

    /// Evaluates `k(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if the inputs do not match the kernel's dimensionality.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), self.dim(), "kernel input dimension mismatch");
        assert_eq!(b.len(), self.dim(), "kernel input dimension mismatch");
        let d2: f64 = a
            .iter()
            .zip(b)
            .zip(&self.lengthscales)
            .map(|((&x, &y), &l)| {
                let d = (x - y) / l;
                d * d
            })
            .sum();
        match self.kind {
            KernelKind::Rbf => self.variance * (-0.5 * d2).exp(),
            KernelKind::Matern52 => {
                let r = d2.sqrt();
                let sqrt5_r = 5f64.sqrt() * r;
                self.variance * (1.0 + sqrt5_r + 5.0 * d2 / 3.0) * (-sqrt5_r).exp()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_covariance_equals_variance() {
        for kind in [KernelKind::Rbf, KernelKind::Matern52] {
            let k = Kernel::new(kind, 0.7, 3.0);
            let x = [1.0, -2.0, 0.5];
            assert!((k.eval(&x, &x) - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_and_decaying() {
        for kind in [KernelKind::Rbf, KernelKind::Matern52] {
            let k = Kernel::new(kind, 1.0, 1.0);
            let a = [0.0, 0.0];
            let b = [1.0, 1.0];
            let c = [3.0, 3.0];
            assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
            assert!(k.eval(&a, &b) > k.eval(&a, &c));
            assert!(k.eval(&a, &c) > 0.0);
        }
    }

    #[test]
    fn lengthscale_controls_decay() {
        let short = Kernel::new(KernelKind::Rbf, 0.1, 1.0);
        let long = Kernel::new(KernelKind::Rbf, 10.0, 1.0);
        let a = [0.0];
        let b = [1.0];
        assert!(short.eval(&a, &b) < 0.01);
        assert!(long.eval(&a, &b) > 0.99);
    }

    #[test]
    fn rbf_known_value() {
        let k = Kernel::new(KernelKind::Rbf, 1.0, 1.0);
        // d² = 1 => exp(-0.5)
        assert!((k.eval(&[0.0], &[1.0]) - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lengthscale")]
    fn zero_lengthscale_panics() {
        let _ = Kernel::new(KernelKind::Rbf, 0.0, 1.0);
    }

    #[test]
    fn ard_matches_isotropic_when_scales_are_equal() {
        let iso = Kernel::new(KernelKind::Matern52, 0.7, 2.0);
        let ard = ArdKernel::isotropic(KernelKind::Matern52, 3, 0.7, 2.0);
        let a = [0.1, -0.5, 1.2];
        let b = [0.3, 0.0, -0.4];
        assert!((iso.eval(&a, &b) - ard.eval(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn ard_ignores_dimensions_with_huge_lengthscales() {
        // A huge lengthscale on dim 1 makes the kernel blind to it.
        let ard = ArdKernel::new(KernelKind::Rbf, vec![1.0, 1e9], 1.0);
        let near = ard.eval(&[0.0, 0.0], &[0.0, 100.0]);
        assert!(near > 0.999, "dim 1 should be irrelevant, k = {near}");
        let far = ard.eval(&[0.0, 0.0], &[3.0, 0.0]);
        assert!(far < 0.05, "dim 0 still matters, k = {far}");
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_ard_rejected() {
        let _ = ArdKernel::new(KernelKind::Rbf, vec![], 1.0);
    }
}
