//! Batched vs per-start multi-start latent gradient descent — the `vae_gd`
//! hot path, where every descent step differentiates the predictor heads.
//!
//! Uses a freshly initialized paper-config model (dz = 4): the graph work
//! per step is identical to a trained model's, and no scheduler is needed
//! because only the descent itself is timed.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vaesa::{EdpGradBatch, VaesaConfig, VaesaModel};
use vaesa_dse::{
    BatchDifferentiableObjective, BoxSpace, FnBatchDifferentiable, FnDifferentiable, GdConfig,
    GdEngine, GradientDescent, Objective, SearchEngine, SearchObjective,
};

const DZ: usize = 4;
const STEPS: usize = 10;

fn bench_multi_start_gd(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let model = VaesaModel::new(VaesaConfig::paper(), &mut rng);
    let layer = [0.5; 8];
    let space = BoxSpace::symmetric(DZ, 3.0);
    let driver = GradientDescent::new(
        space.clone(),
        GdConfig {
            steps: STEPS,
            ..GdConfig::default()
        },
    );
    for batch in [16usize, 64] {
        let starts: Vec<Vec<f64>> = (0..batch).map(|_| space.sample(&mut rng)).collect();
        c.bench_function(&format!("vae_gd/gd_step_per_start_b{batch}"), |b| {
            b.iter(|| {
                let mut total = 0.0;
                for start in &starts {
                    let mut objective = FnDifferentiable::new(DZ, |z: &[f64]| {
                        model.predicted_edp_grad(z, &layer, 1.0, 1.0)
                    });
                    total += driver.run(&mut objective, start).final_value();
                }
                black_box(total)
            })
        });
        c.bench_function(&format!("vae_gd/gd_step_batch_b{batch}"), |b| {
            b.iter(|| {
                let mut scratch = EdpGradBatch::default();
                let mut objective = FnBatchDifferentiable::new(DZ, |xs: &[f64], n: usize| {
                    model.predicted_edp_grad_batch(xs, n, &layer, 1.0, 1.0, &mut scratch)
                });
                let paths = driver.run_batch(&mut objective, &starts);
                black_box(paths.iter().map(|p| p.final_value()).sum::<f64>())
            })
        });
        // Same batched descent, but entered through the SearchEngine trait
        // (as `DseDriver` does) — measures the unified driver's overhead on
        // top of the raw `run_batch` call above.
        let engine = GdEngine {
            config: GdConfig {
                steps: STEPS,
                ..GdConfig::default()
            },
        };
        c.bench_function(&format!("vae_gd/gd_step_engine_b{batch}"), |b| {
            b.iter(|| {
                let mut scratch = EdpGradBatch::default();
                let mut objective = ProxyOnly {
                    proxy: FnBatchDifferentiable::new(DZ, |xs: &[f64], n: usize| {
                        model.predicted_edp_grad_batch(xs, n, &layer, 1.0, 1.0, &mut scratch)
                    }),
                };
                let mut rng = ChaCha8Rng::seed_from_u64(9 + batch as u64);
                let trace = engine.run(&space, &mut objective, batch, &mut rng);
                black_box(trace.best_value())
            })
        });
    }
    // One proxy pass at Fig. 12's shape: each descent step scores its ten
    // starts in one 10-row forward and backward pass.
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    let zs: Vec<f64> = (0..10).flat_map(|_| space.sample(&mut rng)).collect();
    let mut scratch = EdpGradBatch::default();
    c.bench_function("vae_gd/proxy_pass_b10", |b| {
        b.iter(|| {
            black_box(model.predicted_edp_grad_batch(&zs, 10, &layer, 1.0, 1.0, &mut scratch))
        })
    });
}

/// A [`SearchObjective`] whose final-point scoring reuses the proxy's value
/// — isolates the engine/trace plumbing from any evaluator cost.
struct ProxyOnly<F: FnMut(&[f64], usize) -> (Vec<f64>, Vec<f64>)> {
    proxy: FnBatchDifferentiable<F>,
}

impl<F: FnMut(&[f64], usize) -> (Vec<f64>, Vec<f64>)> Objective for ProxyOnly<F> {
    fn dim(&self) -> usize {
        DZ
    }

    fn evaluate(&mut self, x: &[f64]) -> Option<f64> {
        let (values, _) = self.proxy.evaluate_with_grad_batch(x, 1);
        Some(values[0])
    }
}

impl<F: FnMut(&[f64], usize) -> (Vec<f64>, Vec<f64>)> SearchObjective for ProxyOnly<F> {
    fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<Option<f64>> {
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let (values, _) = self.proxy.evaluate_with_grad_batch(&flat, xs.len());
        values.into_iter().map(Some).collect()
    }

    fn proxy(&mut self) -> Option<&mut dyn BatchDifferentiableObjective> {
        Some(&mut self.proxy)
    }
}

criterion_group!(benches, bench_multi_start_gd);
criterion_main!(benches);
