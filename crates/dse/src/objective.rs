/// A black-box minimization objective over a continuous domain.
///
/// `evaluate` returns `None` for *invalid* points — e.g. a decoded hardware
/// configuration for which the scheduler finds no feasible mapping. Invalid
/// evaluations still consume a sample from the search budget, exactly as a
/// failed Timeloop run would in the paper's pipeline.
pub trait Objective {
    /// Dimensionality of the input.
    fn dim(&self) -> usize;

    /// Evaluates the objective, or `None` if the point is invalid.
    fn evaluate(&mut self, x: &[f64]) -> Option<f64>;
}

/// A [`Objective`] defined by a closure, for tests and simple harnesses.
///
/// # Examples
///
/// ```
/// use vaesa_dse::{FnObjective, Objective};
///
/// let mut sphere = FnObjective::new(2, |x| Some(x.iter().map(|v| v * v).sum()));
/// assert_eq!(sphere.evaluate(&[0.0, 0.0]), Some(0.0));
/// ```
pub struct FnObjective<F> {
    dim: usize,
    f: F,
}

impl<F> FnObjective<F>
where
    F: FnMut(&[f64]) -> Option<f64>,
{
    /// Wraps a closure as an objective of the given dimensionality.
    pub fn new(dim: usize, f: F) -> Self {
        FnObjective { dim, f }
    }
}

impl<F> Objective for FnObjective<F>
where
    F: FnMut(&[f64]) -> Option<f64>,
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn evaluate(&mut self, x: &[f64]) -> Option<f64> {
        debug_assert_eq!(x.len(), self.dim, "objective dimension mismatch");
        (self.f)(x)
    }
}

impl<F> std::fmt::Debug for FnObjective<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnObjective")
            .field("dim", &self.dim)
            .finish()
    }
}

/// An objective with analytic gradients, used by the gradient-descent
/// driver (`vae_gd` differentiates the trained performance predictors).
///
/// Implementations must be pure in their input bits: the same `x`, bit for
/// bit, returns the same `(value, gradient)` bits on every call.
/// [`GradientDescent::run`](crate::GradientDescent::run) relies on this to
/// step along the gradient it got with the previous step's value instead
/// of evaluating that point a second time.
pub trait DifferentiableObjective {
    /// Dimensionality of the input.
    fn dim(&self) -> usize;

    /// Returns `(value, gradient)` at `x`.
    fn evaluate_with_grad(&mut self, x: &[f64]) -> (f64, Vec<f64>);
}

/// A [`DifferentiableObjective`] defined by a closure.
pub struct FnDifferentiable<F> {
    dim: usize,
    f: F,
}

impl<F> FnDifferentiable<F>
where
    F: FnMut(&[f64]) -> (f64, Vec<f64>),
{
    /// Wraps a closure returning `(value, gradient)`.
    pub fn new(dim: usize, f: F) -> Self {
        FnDifferentiable { dim, f }
    }
}

impl<F> DifferentiableObjective for FnDifferentiable<F>
where
    F: FnMut(&[f64]) -> (f64, Vec<f64>),
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn evaluate_with_grad(&mut self, x: &[f64]) -> (f64, Vec<f64>) {
        debug_assert_eq!(x.len(), self.dim, "objective dimension mismatch");
        (self.f)(x)
    }
}

impl<F> std::fmt::Debug for FnDifferentiable<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnDifferentiable")
            .field("dim", &self.dim)
            .finish()
    }
}

/// A differentiable objective evaluated over a whole batch of points at
/// once, used by [`GradientDescent::run_batch`](crate::GradientDescent::run_batch)
/// to advance every start of a multi-start descent with one forward and one
/// backward pass.
///
/// Row `r` of the batch must produce the same `(value, gradient)` as a
/// per-point [`DifferentiableObjective`] would on that row alone; the
/// batched descent driver relies on this to stay trace-identical to the
/// serial multi-start loop.
///
/// Like [`DifferentiableObjective`], implementations must be pure in their
/// input bits: the same `xs` returns the same `(values, gradients)` bits on
/// every call, whatever scratch state earlier calls left behind.
/// [`GradientDescent::run_batch`](crate::GradientDescent::run_batch) keeps
/// the gradients of one call for the next step rather than recomputing
/// them.
pub trait BatchDifferentiableObjective {
    /// Dimensionality of each point.
    fn dim(&self) -> usize;

    /// Evaluates `batch` points stored row-major in `xs`
    /// (`xs.len() == batch * self.dim()`).
    ///
    /// Returns `(values, gradients)` with `values.len() == batch` and
    /// `gradients.len() == xs.len()`, gradients stored row-major in the
    /// same layout as `xs`.
    fn evaluate_with_grad_batch(&mut self, xs: &[f64], batch: usize) -> (Vec<f64>, Vec<f64>);
}

/// A [`BatchDifferentiableObjective`] defined by a closure.
pub struct FnBatchDifferentiable<F> {
    dim: usize,
    f: F,
}

impl<F> FnBatchDifferentiable<F>
where
    F: FnMut(&[f64], usize) -> (Vec<f64>, Vec<f64>),
{
    /// Wraps a closure `(xs, batch) -> (values, gradients)`.
    pub fn new(dim: usize, f: F) -> Self {
        FnBatchDifferentiable { dim, f }
    }
}

impl<F> BatchDifferentiableObjective for FnBatchDifferentiable<F>
where
    F: FnMut(&[f64], usize) -> (Vec<f64>, Vec<f64>),
{
    fn dim(&self) -> usize {
        self.dim
    }

    fn evaluate_with_grad_batch(&mut self, xs: &[f64], batch: usize) -> (Vec<f64>, Vec<f64>) {
        debug_assert_eq!(xs.len(), batch * self.dim, "batch layout mismatch");
        (self.f)(xs, batch)
    }
}

impl<F> std::fmt::Debug for FnBatchDifferentiable<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnBatchDifferentiable")
            .field("dim", &self.dim)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_objective_counts_and_returns() {
        let mut calls = 0;
        {
            let mut o = FnObjective::new(1, |x: &[f64]| {
                calls += 1;
                if x[0] < 0.0 {
                    None
                } else {
                    Some(x[0])
                }
            });
            assert_eq!(o.dim(), 1);
            assert_eq!(o.evaluate(&[2.0]), Some(2.0));
            assert_eq!(o.evaluate(&[-1.0]), None);
        }
        assert_eq!(calls, 2);
    }

    #[test]
    fn differentiable_objective_returns_grad() {
        let mut o = FnDifferentiable::new(2, |x: &[f64]| {
            let v = x[0] * x[0] + x[1] * x[1];
            (v, vec![2.0 * x[0], 2.0 * x[1]])
        });
        let (v, g) = o.evaluate_with_grad(&[1.0, -2.0]);
        assert_eq!(v, 5.0);
        assert_eq!(g, vec![2.0, -4.0]);
    }

    #[test]
    fn debug_impls_are_nonempty() {
        let o = FnObjective::new(3, |_: &[f64]| Some(0.0));
        assert!(format!("{o:?}").contains('3'));
        let d = FnDifferentiable::new(2, |_: &[f64]| (0.0, vec![0.0, 0.0]));
        assert!(format!("{d:?}").contains('2'));
    }
}
