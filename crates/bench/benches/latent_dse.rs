//! End-to-end microbenchmarks for the latent DSE path: one decoded and
//! scheduled latent sample, and one full predictor-descent (`vae_gd`)
//! sample.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vaesa::flows::{decode_to_config, HardwareEvaluator};
use vaesa::{
    Dataset, DatasetBuilder, DseDriver, SpaceMode, TrainConfig, Trainer, VaesaConfig, VaesaModel,
};
use vaesa_accel::{workloads, DesignSpace};
use vaesa_cosa::CachedScheduler;
use vaesa_dse::{GdConfig, GdEngine};

struct Fixture {
    space: DesignSpace,
    scheduler: CachedScheduler,
    dataset: Dataset,
    model: VaesaModel,
}

fn fixture() -> Fixture {
    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let dataset = DatasetBuilder::new(&space, workloads::alexnet())
        .random_configs(60)
        .grid_per_axis(0)
        .build(&scheduler, &mut rng);
    let mut model = VaesaModel::new(VaesaConfig::paper(), &mut rng);
    Trainer::new(TrainConfig {
        epochs: 5,
        batch_size: 64,
        learning_rate: 1e-3,
    })
    .train_vae(&mut model, &dataset, &mut rng);
    Fixture {
        space,
        scheduler,
        dataset,
        model,
    }
}

fn bench_decode_and_score(c: &mut Criterion) {
    let f = fixture();
    let layers = workloads::alexnet();
    let evaluator = HardwareEvaluator::new(&f.space, &f.scheduler, &layers);
    let z = [0.3, -0.5, 0.1, 0.8];

    c.bench_function("latent_dse/decode_to_config", |b| {
        b.iter(|| {
            black_box(decode_to_config(
                &f.model,
                black_box(&z),
                &f.dataset.hw_norm,
                &evaluator,
            ))
        })
    });
    c.bench_function("latent_dse/decode_and_evaluate_alexnet", |b| {
        b.iter(|| {
            let config = decode_to_config(&f.model, black_box(&z), &f.dataset.hw_norm, &evaluator);
            black_box(evaluator.edp_of_config(&config))
        })
    });
}

fn bench_vae_gd_sample(c: &mut Criterion) {
    let f = fixture();
    let layer = workloads::gd_test_layers()[3].clone();
    let single = vec![layer.clone()];
    let evaluator = HardwareEvaluator::new(&f.space, &f.scheduler, &single);
    let driver = DseDriver::new(&evaluator, &f.dataset)
        .with_model(&f.model)
        .with_gd_layer(&layer);
    let gd = GdEngine {
        config: GdConfig {
            steps: 100,
            ..GdConfig::default()
        },
    };
    c.bench_function("latent_dse/vae_gd_one_sample_100_steps", |b| {
        b.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            black_box(driver.run(&gd, SpaceMode::Latent, 1, &mut rng))
        })
    });
}

criterion_group!(benches, bench_decode_and_score, bench_vae_gd_sample);
criterion_main!(benches);
