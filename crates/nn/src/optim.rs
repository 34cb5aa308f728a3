use crate::Param;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Global optimizer-step counter, cached so the per-batch increment is one
/// relaxed atomic add (no registry lookup) after first use.
fn adam_steps() -> &'static Arc<vaesa_obs::Counter> {
    static C: OnceLock<Arc<vaesa_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| vaesa_obs::counter("nn.adam.steps"))
}

/// The Adam optimizer (Kingma & Ba) with bias correction.
///
/// Holds only hyperparameters and the step counter; the per-parameter moment
/// estimates live inside each [`Param`], so one `Adam` can drive any number
/// of models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate (paper default 1e-3).
    pub learning_rate: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub epsilon: f64,
    t: u64,
}

impl Adam {
    /// Creates Adam with the conventional β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(learning_rate: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            t: 0,
        }
    }

    /// Number of optimization steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to each parameter, in place.
    ///
    /// Equivalent to [`Adam::begin_step`] followed by [`Adam::update`] on
    /// every parameter.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.begin_step();
        for p in params.iter_mut() {
            self.update(p);
        }
    }

    /// Advances the step counter. Call once per optimization step, before
    /// any [`Adam::update`] calls for that step.
    pub fn begin_step(&mut self) {
        self.t += 1;
        adam_steps().incr();
    }

    /// Applies the current step's update to a single parameter.
    ///
    /// Used by model-level helpers (e.g. `Mlp::adam_step`) that visit
    /// parameters one at a time; the bias-correction term is derived from the
    /// step counter advanced by [`Adam::begin_step`].
    ///
    /// # Panics
    ///
    /// Panics if called before any [`Adam::begin_step`].
    pub fn update(&self, p: &mut Param) {
        assert!(self.t > 0, "call begin_step before update");
        let t = self.t as f64;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let n = p.value.len();
        debug_assert_eq!(n, p.grad.len(), "param/grad shape mismatch");
        for i in 0..n {
            let g = p.grad.as_slice()[i];
            let m = self.beta1 * p.m.as_slice()[i] + (1.0 - self.beta1) * g;
            let v = self.beta2 * p.v.as_slice()[i] + (1.0 - self.beta2) * g * g;
            p.m.as_mut_slice()[i] = m;
            p.v.as_mut_slice()[i] = v;
            let m_hat = m / bc1;
            let v_hat = v / bc2;
            p.value.as_mut_slice()[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn quadratic_grad(p: &Param) -> Tensor {
        // f(x) = ½‖x - 3‖² => ∇f = x - 3
        p.value.map(|x| x - 3.0)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = Param::new(Tensor::from_rows(&[&[-4.0, 8.0, 0.0]]));
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            p.grad = quadratic_grad(&p);
            adam.step(&mut [&mut p]);
        }
        assert_eq!(adam.steps(), 500);
        assert!(
            p.value.as_slice().iter().all(|&x| (x - 3.0).abs() < 1e-3),
            "adam failed to converge: {:?}",
            p.value.as_slice()
        );
    }

    #[test]
    fn adam_first_step_magnitude_is_learning_rate() {
        // With bias correction, |Δx| of the very first step equals lr for
        // any nonzero gradient.
        let mut p = Param::new(Tensor::from_rows(&[&[5.0]]));
        p.grad = Tensor::from_rows(&[&[123.0]]);
        let mut adam = Adam::new(0.01);
        adam.step(&mut [&mut p]);
        assert!((p.value.get(0, 0) - (5.0 - 0.01)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_learning_rate_panics() {
        let _ = Adam::new(0.0);
    }
}
