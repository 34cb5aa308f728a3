use crate::{BoxSpace, Objective, Trace};
use rand::Rng;

/// Uniform random search over a box — the paper's `random` baseline.
///
/// # Examples
///
/// ```
/// use vaesa_dse::{BoxSpace, FnObjective, RandomSearch};
/// use rand::SeedableRng;
///
/// let space = BoxSpace::unit(2);
/// let mut objective = FnObjective::new(2, |x: &[f64]| Some(x[0] + x[1]));
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let trace = RandomSearch::new(space).run(&mut objective, 50, &mut rng);
/// assert_eq!(trace.len(), 50);
/// assert!(trace.best_value().unwrap() < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct RandomSearch {
    space: BoxSpace,
}

impl RandomSearch {
    /// Creates a random search over `space`.
    pub fn new(space: BoxSpace) -> Self {
        RandomSearch { space }
    }

    /// Evaluates `budget` uniform samples.
    pub fn run(
        &self,
        objective: &mut dyn Objective,
        budget: usize,
        mut rng: &mut dyn rand::RngCore,
    ) -> Trace {
        assert_eq!(objective.dim(), self.space.dim(), "dimension mismatch");
        let mut trace = Trace::new("random");
        for _ in 0..budget {
            let x = self.space.sample(&mut rng);
            let v = objective.evaluate(&x);
            trace.record(x, v);
        }
        trace
    }
}

/// Perturbs `x` with independent Gaussian noise of standard deviation
/// `sigma * width_d` per dimension, clamped into the space.
///
/// Used by Bayesian optimization to propose local candidates around the
/// incumbent best point.
pub fn perturb(space: &BoxSpace, x: &[f64], sigma: f64, rng: &mut impl Rng) -> Vec<f64> {
    let widths = space.widths();
    let mut out: Vec<f64> = x
        .iter()
        .zip(&widths)
        .map(|(&v, &w)| v + gaussian(rng) * sigma * w)
        .collect();
    space.clamp(&mut out);
    out
}

/// One standard-normal draw via Box–Muller.
fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnObjective;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_search_improves_with_budget() {
        let space = BoxSpace::symmetric(3, 2.0);
        let mut obj = FnObjective::new(3, |x: &[f64]| Some(x.iter().map(|v| v * v).sum()));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let short = RandomSearch::new(space.clone()).run(&mut obj, 10, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let long = RandomSearch::new(space).run(&mut obj, 500, &mut rng);
        assert!(long.best_value().unwrap() <= short.best_value().unwrap());
    }

    #[test]
    fn random_search_deterministic_per_seed() {
        let space = BoxSpace::unit(2);
        let mut obj = FnObjective::new(2, |x: &[f64]| Some(x[0] * x[1]));
        let t1 =
            RandomSearch::new(space.clone()).run(&mut obj, 20, &mut ChaCha8Rng::seed_from_u64(5));
        let t2 = RandomSearch::new(space).run(&mut obj, 20, &mut ChaCha8Rng::seed_from_u64(5));
        assert_eq!(t1.samples(), t2.samples());
    }

    #[test]
    fn invalid_points_are_recorded_but_not_best() {
        let space = BoxSpace::unit(1);
        let mut obj = FnObjective::new(1, |x: &[f64]| if x[0] < 0.5 { None } else { Some(x[0]) });
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let trace = RandomSearch::new(space).run(&mut obj, 100, &mut rng);
        assert_eq!(trace.len(), 100);
        assert!(trace.best_value().unwrap() >= 0.5);
        assert!(trace.samples().iter().any(|s| s.value.is_none()));
    }

    #[test]
    fn perturb_stays_in_space_and_moves() {
        let space = BoxSpace::unit(4);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let x = vec![0.5; 4];
        let mut moved = false;
        for _ in 0..20 {
            let y = perturb(&space, &x, 0.1, &mut rng);
            assert!(space.contains(&y));
            if y != x {
                moved = true;
            }
        }
        assert!(moved);
    }
}
