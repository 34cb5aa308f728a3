use crate::{BatchDifferentiableObjective, BoxSpace, DifferentiableObjective};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

fn proxy_passes() -> &'static Arc<vaesa_obs::Counter> {
    static C: OnceLock<Arc<vaesa_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| vaesa_obs::counter("dse.gd.proxy_passes"))
}

fn proxy_ns() -> &'static Arc<vaesa_obs::Histogram> {
    static H: OnceLock<Arc<vaesa_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| vaesa_obs::histogram("dse.gd.proxy_ns"))
}

/// Runs one (possibly batched) objective evaluation, counting it in
/// `dse.gd.proxy_passes` and timing it in `dse.gd.proxy_ns`.
fn proxy_pass<T>(eval: impl FnOnce() -> T) -> T {
    let timer = Instant::now();
    let out = eval();
    proxy_ns().record_duration(timer.elapsed());
    proxy_passes().incr();
    out
}

/// Configuration for [`GradientDescent`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GdConfig {
    /// Step size.
    pub learning_rate: f64,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f64,
    /// Number of gradient steps.
    pub steps: usize,
    /// Per-element gradient clip; `None` disables clipping.
    pub clip: Option<f64>,
}

impl Default for GdConfig {
    fn default() -> Self {
        GdConfig {
            learning_rate: 0.05,
            momentum: 0.8,
            steps: 100,
            clip: Some(10.0),
        }
    }
}

/// One point along a gradient-descent path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GdStep {
    /// Step index (0 is the starting point).
    pub step: usize,
    /// Position after this step.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
}

/// The recorded path of one gradient-descent run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GdPath {
    /// Every step, starting with the initial point.
    pub steps: Vec<GdStep>,
}

impl GdPath {
    /// The final position.
    pub fn final_point(&self) -> &[f64] {
        &self.steps.last().expect("path has at least the start").x
    }

    /// The final objective value.
    pub fn final_value(&self) -> f64 {
        self.steps
            .last()
            .expect("path has at least the start")
            .value
    }

    /// The minimum objective value along the path.
    pub fn best_value(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| s.value)
            .fold(f64::INFINITY, f64::min)
    }

    /// The position at a given step index, if recorded.
    pub fn at_step(&self, step: usize) -> Option<&GdStep> {
        self.steps.get(step)
    }
}

/// Gradient descent over a differentiable objective, projected into a box.
///
/// This drives the paper's `gd` and `vae_gd` flows: the objective is the
/// trained performance-predictor EDP (which is differentiable end to end),
/// and the domain is either the normalized input space or the VAE latent
/// space. Only the *final* point is sent to the scheduler + cost model, so
/// a whole descent costs one simulator query (§III-C2).
///
/// # Examples
///
/// ```
/// use vaesa_dse::{BoxSpace, FnDifferentiable, GdConfig, GradientDescent};
///
/// let space = BoxSpace::symmetric(2, 5.0);
/// let mut objective = FnDifferentiable::new(2, |x: &[f64]| {
///     let v = (x[0] - 2.0).powi(2) + (x[1] + 1.0).powi(2);
///     (v, vec![2.0 * (x[0] - 2.0), 2.0 * (x[1] + 1.0)])
/// });
/// let gd = GradientDescent::new(space, GdConfig::default());
/// let path = gd.run(&mut objective, &[0.0, 0.0]);
/// assert!(path.final_value() < 1e-2);
/// ```
#[derive(Debug, Clone)]
pub struct GradientDescent {
    space: BoxSpace,
    config: GdConfig,
}

impl GradientDescent {
    /// Creates a driver over `space` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the learning rate is not positive or momentum is not in
    /// `[0, 1)`.
    pub fn new(space: BoxSpace, config: GdConfig) -> Self {
        assert!(config.learning_rate > 0.0, "learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&config.momentum),
            "momentum must be in [0, 1)"
        );
        GradientDescent { space, config }
    }

    /// The configured number of steps.
    pub fn steps(&self) -> usize {
        self.config.steps
    }

    /// One clipped momentum step of every row of `xs` along `grad`,
    /// projected back into the box. `grad` is clipped in place.
    fn update(&self, xs: &mut [f64], velocity: &mut [f64], grad: &mut [f64]) {
        if let Some(c) = self.config.clip {
            for g in grad.iter_mut() {
                *g = g.clamp(-c, c);
            }
        }
        for i in 0..xs.len() {
            velocity[i] = self.config.momentum * velocity[i] - self.config.learning_rate * grad[i];
            xs[i] += velocity[i];
        }
        for row in xs.chunks_mut(self.space.dim()) {
            self.space.clamp(row);
        }
    }

    /// Runs descent from `start`, recording every step.
    ///
    /// Each step evaluates the objective once, at the updated point: the
    /// gradient returned there drives the next step, so a descent of `S`
    /// steps makes `S + 1` objective calls. This relies on the objective
    /// returning the same output bits for the same input bits.
    ///
    /// # Panics
    ///
    /// Panics if `start` has the wrong dimensionality.
    pub fn run(&self, objective: &mut dyn DifferentiableObjective, start: &[f64]) -> GdPath {
        assert_eq!(objective.dim(), self.space.dim(), "dimension mismatch");
        assert_eq!(start.len(), self.space.dim(), "start dimension mismatch");
        let mut x = start.to_vec();
        self.space.clamp(&mut x);
        let mut velocity = vec![0.0; x.len()];
        let (v0, mut grad) = proxy_pass(|| objective.evaluate_with_grad(&x));
        let mut steps = vec![GdStep {
            step: 0,
            x: x.clone(),
            value: v0,
        }];
        for step in 1..=self.config.steps {
            self.update(&mut x, &mut velocity, &mut grad);
            let (value, next_grad) = proxy_pass(|| objective.evaluate_with_grad(&x));
            grad = next_grad;
            steps.push(GdStep {
                step,
                x: x.clone(),
                value,
            });
        }
        GdPath { steps }
    }

    /// Runs descent from every start in lockstep, advancing the whole batch
    /// with one batched objective evaluation per gradient step (`S + 1`
    /// batched calls for `S` steps).
    ///
    /// The per-row update arithmetic (clip, momentum, clamp, evaluation at
    /// the updated point) is identical to [`GradientDescent::run`], so as long
    /// as the batched objective is row-equivalent to its per-point
    /// counterpart, path `r` is bit-identical to running
    /// [`GradientDescent::run`] from `starts[r]` alone.
    ///
    /// # Panics
    ///
    /// Panics if any start has the wrong dimensionality.
    pub fn run_batch(
        &self,
        objective: &mut dyn BatchDifferentiableObjective,
        starts: &[Vec<f64>],
    ) -> Vec<GdPath> {
        assert_eq!(objective.dim(), self.space.dim(), "dimension mismatch");
        let dz = self.space.dim();
        let b = starts.len();
        if b == 0 {
            return Vec::new();
        }
        let mut xs: Vec<f64> = Vec::with_capacity(b * dz);
        for start in starts {
            assert_eq!(start.len(), dz, "start dimension mismatch");
            xs.extend_from_slice(start);
        }
        for row in xs.chunks_mut(dz) {
            self.space.clamp(row);
        }
        let mut velocity = vec![0.0; b * dz];
        let (v0, mut grad) = proxy_pass(|| objective.evaluate_with_grad_batch(&xs, b));
        let mut paths: Vec<GdPath> = (0..b)
            .map(|r| GdPath {
                steps: vec![GdStep {
                    step: 0,
                    x: xs[r * dz..(r + 1) * dz].to_vec(),
                    value: v0[r],
                }],
            })
            .collect();
        for step in 1..=self.config.steps {
            self.update(&mut xs, &mut velocity, &mut grad);
            let (values, next_grad) = proxy_pass(|| objective.evaluate_with_grad_batch(&xs, b));
            grad = next_grad;
            for (r, path) in paths.iter_mut().enumerate() {
                path.steps.push(GdStep {
                    step,
                    x: xs[r * dz..(r + 1) * dz].to_vec(),
                    value: values[r],
                });
            }
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FnBatchDifferentiable, FnDifferentiable};

    fn quadratic() -> FnDifferentiable<impl FnMut(&[f64]) -> (f64, Vec<f64>)> {
        FnDifferentiable::new(2, |x: &[f64]| {
            let v = (x[0] - 2.0).powi(2) + (x[1] + 1.0).powi(2);
            (v, vec![2.0 * (x[0] - 2.0), 2.0 * (x[1] + 1.0)])
        })
    }

    #[test]
    fn converges_to_interior_minimum() {
        let gd = GradientDescent::new(BoxSpace::symmetric(2, 5.0), GdConfig::default());
        let path = gd.run(&mut quadratic(), &[-4.0, 4.0]);
        assert_eq!(path.steps.len(), 101);
        let end = path.final_point();
        assert!((end[0] - 2.0).abs() < 0.05, "x0 = {}", end[0]);
        assert!((end[1] + 1.0).abs() < 0.05, "x1 = {}", end[1]);
    }

    #[test]
    fn respects_box_constraints() {
        // Minimum at (2, -1) lies outside the box [-0.5, 0.5]^2.
        let gd = GradientDescent::new(BoxSpace::symmetric(2, 0.5), GdConfig::default());
        let path = gd.run(&mut quadratic(), &[0.0, 0.0]);
        let end = path.final_point();
        assert!((end[0] - 0.5).abs() < 1e-9);
        assert!((end[1] + 0.5).abs() < 1e-9);
        for s in &path.steps {
            assert!(s.x.iter().all(|v| v.abs() <= 0.5 + 1e-12));
        }
    }

    #[test]
    fn value_decreases_overall() {
        let gd = GradientDescent::new(BoxSpace::symmetric(2, 5.0), GdConfig::default());
        let path = gd.run(&mut quadratic(), &[-4.0, 4.0]);
        assert!(path.final_value() < path.steps[0].value / 100.0);
        assert!(path.best_value() <= path.final_value());
    }

    #[test]
    fn at_step_indexes_path() {
        let config = GdConfig {
            steps: 10,
            ..GdConfig::default()
        };
        let gd = GradientDescent::new(BoxSpace::symmetric(2, 5.0), config);
        let path = gd.run(&mut quadratic(), &[1.0, 1.0]);
        assert_eq!(path.at_step(0).unwrap().x, vec![1.0, 1.0]);
        assert!(path.at_step(10).is_some());
        assert!(path.at_step(11).is_none());
    }

    #[test]
    fn clipping_tames_huge_gradients() {
        let mut steep = FnDifferentiable::new(1, |x: &[f64]| (1e6 * x[0] * x[0], vec![2e6 * x[0]]));
        let config = GdConfig {
            learning_rate: 0.01,
            momentum: 0.0,
            steps: 50,
            clip: Some(1.0),
        };
        let gd = GradientDescent::new(BoxSpace::symmetric(1, 2.0), config);
        let path = gd.run(&mut steep, &[1.5]);
        // Without clipping this would oscillate to the box bounds; with
        // clipping it walks steadily down.
        assert!(path.final_value() < path.steps[0].value);
        assert!(path.final_point()[0].abs() < 1.5);
    }

    #[test]
    fn run_batch_matches_run_bitwise_per_start() {
        let dim = 3;
        let scalar = |x: &[f64]| {
            let v = (x[0] - 0.7).powi(2) + (x[1] * x[2]).sin() + x[2] * x[2];
            let g = vec![
                2.0 * (x[0] - 0.7),
                x[2] * (x[1] * x[2]).cos(),
                x[1] * (x[1] * x[2]).cos() + 2.0 * x[2],
            ];
            (v, g)
        };
        let starts: Vec<Vec<f64>> = vec![
            vec![-2.0, 1.5, 0.25],
            vec![0.0, 0.0, 0.0],
            vec![3.0, -3.0, 3.0], // clamped into the box before step 0
            vec![0.4, -0.9, 1.1],
        ];
        let config = GdConfig {
            steps: 25,
            ..GdConfig::default()
        };
        let gd = GradientDescent::new(BoxSpace::symmetric(dim, 2.0), config);
        let serial: Vec<GdPath> = starts
            .iter()
            .map(|s| {
                let mut obj = FnDifferentiable::new(dim, scalar);
                gd.run(&mut obj, s)
            })
            .collect();
        let mut batch_obj = FnBatchDifferentiable::new(dim, |xs: &[f64], batch: usize| {
            let mut values = Vec::with_capacity(batch);
            let mut grads = Vec::with_capacity(xs.len());
            for row in xs.chunks(dim) {
                let (v, g) = scalar(row);
                values.push(v);
                grads.extend_from_slice(&g);
            }
            (values, grads)
        });
        let batched = gd.run_batch(&mut batch_obj, &starts);
        assert_eq!(batched.len(), serial.len());
        for (b, s) in batched.iter().zip(&serial) {
            assert_eq!(b.steps.len(), s.steps.len());
            for (bs, ss) in b.steps.iter().zip(&s.steps) {
                assert_eq!(bs.step, ss.step);
                assert_eq!(bs.value.to_bits(), ss.value.to_bits());
                for (bx, sx) in bs.x.iter().zip(&ss.x) {
                    assert_eq!(bx.to_bits(), sx.to_bits());
                }
            }
        }
    }

    /// A bowl in `x2` with an exponential wall in `x0` (gradients far past
    /// the clip near the upper bound) and a linear pull in `x1` that drives
    /// it into the box's upper face, so both the clip and the clamp engage.
    fn walled(x: &[f64]) -> (f64, Vec<f64>) {
        let e = (3.0 * x[0]).exp();
        let v = e - 4.0 * x[1] + (x[1] * x[2]).sin() + x[2] * x[2];
        let g = vec![
            3.0 * e,
            -4.0 + x[2] * (x[1] * x[2]).cos(),
            x[1] * (x[1] * x[2]).cos() + 2.0 * x[2],
        ];
        (v, g)
    }

    /// The two-calls-per-step descent: a gradient call at `x`, the update,
    /// then a value call at the new `x`. Returns `(x, value)` per step.
    fn two_pass_reference(
        space: &BoxSpace,
        config: GdConfig,
        f: impl Fn(&[f64]) -> (f64, Vec<f64>),
        start: &[f64],
    ) -> Vec<(Vec<f64>, f64)> {
        let mut x = start.to_vec();
        space.clamp(&mut x);
        let mut velocity = vec![0.0; x.len()];
        let mut out = vec![(x.clone(), f(&x).0)];
        for _ in 0..config.steps {
            let (_, mut grad) = f(&x);
            if let Some(c) = config.clip {
                for g in &mut grad {
                    *g = g.clamp(-c, c);
                }
            }
            for i in 0..x.len() {
                velocity[i] = config.momentum * velocity[i] - config.learning_rate * grad[i];
                x[i] += velocity[i];
            }
            space.clamp(&mut x);
            out.push((x.clone(), f(&x).0));
        }
        out
    }

    fn assert_path_matches(path: &GdPath, reference: &[(Vec<f64>, f64)]) {
        assert_eq!(path.steps.len(), reference.len());
        for (s, (x, v)) in path.steps.iter().zip(reference) {
            assert_eq!(s.value.to_bits(), v.to_bits(), "value at step {}", s.step);
            for (a, b) in s.x.iter().zip(x) {
                assert_eq!(a.to_bits(), b.to_bits(), "x at step {}", s.step);
            }
        }
    }

    #[test]
    fn one_pass_per_step_matches_two_pass_reference_bitwise() {
        let dim = 3;
        let space = BoxSpace::symmetric(dim, 1.5);
        let config = GdConfig {
            steps: 40,
            ..GdConfig::default()
        };
        let clip = config.clip.unwrap();
        let starts: Vec<Vec<f64>> = vec![
            vec![1.2, -1.0, 0.5],
            vec![0.9, 0.3, -1.4],
            vec![2.5, -2.5, 0.0], // clamped into the box before step 0
        ];
        let references: Vec<_> = starts
            .iter()
            .map(|s| two_pass_reference(&space, config, walled, s))
            .collect();
        // The fixture must exercise both projections, or the test proves
        // less than it claims.
        assert!(starts
            .iter()
            .any(|s| walled(s).1.iter().any(|g| g.abs() > clip)));
        assert!(references
            .iter()
            .flatten()
            .any(|(x, _)| x[1].to_bits() == 1.5f64.to_bits()));

        let gd = GradientDescent::new(space, config);
        for (start, reference) in starts.iter().zip(&references) {
            let path = gd.run(&mut FnDifferentiable::new(dim, walled), start);
            assert_path_matches(&path, reference);
        }
        let mut batch_obj = FnBatchDifferentiable::new(dim, |xs: &[f64], _| {
            let mut values = Vec::new();
            let mut grads = Vec::with_capacity(xs.len());
            for row in xs.chunks(dim) {
                let (v, g) = walled(row);
                values.push(v);
                grads.extend_from_slice(&g);
            }
            (values, grads)
        });
        let paths = gd.run_batch(&mut batch_obj, &starts);
        for (path, reference) in paths.iter().zip(&references) {
            assert_path_matches(path, reference);
        }
    }

    #[test]
    fn descent_of_s_steps_calls_the_objective_s_plus_one_times() {
        let steps = 17;
        let gd = GradientDescent::new(
            BoxSpace::symmetric(3, 1.5),
            GdConfig {
                steps,
                ..GdConfig::default()
            },
        );
        let mut calls = 0usize;
        gd.run(
            &mut FnDifferentiable::new(3, |x: &[f64]| {
                calls += 1;
                walled(x)
            }),
            &[0.1, 0.2, 0.3],
        );
        assert_eq!(calls, steps + 1);

        let mut batch_calls = 0usize;
        let mut batch_obj = FnBatchDifferentiable::new(3, |xs: &[f64], _| {
            batch_calls += 1;
            let (values, grads): (Vec<f64>, Vec<Vec<f64>>) = xs.chunks(3).map(walled).unzip();
            (values, grads.concat())
        });
        gd.run_batch(&mut batch_obj, &[vec![0.1, 0.2, 0.3], vec![-1.0, 1.0, 0.0]]);
        assert_eq!(batch_calls, steps + 1);
    }

    #[test]
    fn run_batch_empty_starts_is_empty() {
        let gd = GradientDescent::new(BoxSpace::unit(2), GdConfig::default());
        let mut obj = FnBatchDifferentiable::new(2, |xs: &[f64], _| {
            (vec![0.0; xs.len() / 2], vec![0.0; xs.len()])
        });
        assert!(gd.run_batch(&mut obj, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn bad_momentum_panics() {
        let _ = GradientDescent::new(
            BoxSpace::unit(1),
            GdConfig {
                momentum: 1.0,
                ..GdConfig::default()
            },
        );
    }
}
