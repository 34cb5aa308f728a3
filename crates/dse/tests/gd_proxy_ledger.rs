//! The GD proxy ledger: every batched proxy evaluation a descent makes is
//! counted in `dse.gd.proxy_passes` and timed in `dse.gd.proxy_ns`.
//!
//! This file holds a single test so no other descent in the same process
//! moves the global counter while it is read.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vaesa_dse::{
    BatchDifferentiableObjective, BoxSpace, FnBatchDifferentiable, GdConfig, GdEngine, Objective,
    SearchEngine, SearchObjective,
};

type GradFn = fn(&[f64], usize) -> (Vec<f64>, Vec<f64>);

fn bowl(xs: &[f64], _batch: usize) -> (Vec<f64>, Vec<f64>) {
    let values = xs.chunks(2).map(|r| r[0] * r[0] + r[1] * r[1]).collect();
    let grads = xs.iter().map(|v| 2.0 * v).collect();
    (values, grads)
}

/// A bowl scored directly, with its analytic gradient as the proxy.
struct Bowl(FnBatchDifferentiable<GradFn>);

impl Objective for Bowl {
    fn dim(&self) -> usize {
        2
    }

    fn evaluate(&mut self, x: &[f64]) -> Option<f64> {
        Some(x[0] * x[0] + x[1] * x[1])
    }
}

impl SearchObjective for Bowl {
    fn proxy(&mut self) -> Option<&mut dyn BatchDifferentiableObjective> {
        Some(&mut self.0)
    }
}

#[test]
fn gd_engine_run_of_s_steps_adds_s_plus_one_proxy_passes() {
    let steps = 23;
    let engine = GdEngine {
        config: GdConfig {
            steps,
            ..GdConfig::default()
        },
    };
    let passes = vaesa_obs::counter("dse.gd.proxy_passes");
    let timings = vaesa_obs::histogram("dse.gd.proxy_ns");
    let (passes0, timings0) = (passes.get(), timings.count());
    let mut objective = Bowl(FnBatchDifferentiable::new(2, bowl));
    let trace = engine.run(
        &BoxSpace::symmetric(2, 3.0),
        &mut objective,
        6,
        &mut ChaCha8Rng::seed_from_u64(5),
    );
    assert_eq!(trace.len(), 6);
    assert_eq!(passes.get() - passes0, steps as u64 + 1);
    assert_eq!(timings.count() - timings0, steps as u64 + 1);
}
