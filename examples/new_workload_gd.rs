//! Few-sample optimization for an unseen workload with `vae_gd`.
//!
//! The paper's §IV-D use case: an accelerator must be tuned for a brand-new
//! layer with only a handful of simulator queries. Each `vae_gd` sample
//! descends the trained predictor surface in latent space (free — no
//! simulator involved) and spends exactly one scheduler + cost-model query
//! on the final decoded design.
//!
//! Run with: `cargo run --release --example new_workload_gd`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vaesa_repro::accel::{workloads, DesignSpace};
use vaesa_repro::core::flows::HardwareEvaluator;
use vaesa_repro::core::{
    DatasetBuilder, DseDriver, SpaceMode, TrainConfig, Trainer, VaesaConfig, VaesaModel,
};
use vaesa_repro::cosa::CachedScheduler;
use vaesa_repro::dse::{GdEngine, RandomEngine};

fn main() {
    let samples = 10; // simulator queries we are willing to spend
    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let pool = workloads::training_layers();

    // The unseen layer: Table IV #12, a large strided OCR convolution.
    let layer = workloads::gd_test_layers()[11].clone();
    println!("target layer: {layer}");

    println!("training VAESA on the Table III pool (the target layer is unseen)...");
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let dataset = DatasetBuilder::new(&space, pool)
        .random_configs(250)
        .grid_per_axis(2)
        .build(&scheduler, &mut rng);
    let mut model = VaesaModel::new(VaesaConfig::paper(), &mut rng);
    Trainer::new(TrainConfig {
        epochs: 30,
        batch_size: 64,
        learning_rate: 1e-3,
    })
    .train_vae(&mut model, &dataset, &mut rng);

    let single = vec![layer.clone()];
    let evaluator = HardwareEvaluator::new(&space, &scheduler, &single);

    println!("\nspending {samples} simulator queries per method:");
    // The target layer drives the predictor descent; the evaluator scores
    // the decoded design on that same layer.
    let driver = DseDriver::new(&evaluator, &dataset)
        .with_model(&model)
        .with_gd_layer(&layer);
    let vae_gd = driver.run(
        &GdEngine::default(),
        SpaceMode::Latent,
        samples,
        &mut ChaCha8Rng::seed_from_u64(200),
    );
    let random = driver.run(
        &RandomEngine,
        SpaceMode::Direct,
        samples,
        &mut ChaCha8Rng::seed_from_u64(200),
    );

    let v = vae_gd.best_value().unwrap_or(f64::NAN);
    let r = random.best_value().unwrap_or(f64::NAN);
    println!("  vae_gd best EDP: {v:.4e}");
    println!("  random best EDP: {r:.4e}");
    if v < r {
        println!(
            "  vae_gd found a {:.1}% lower-EDP design with the same budget",
            100.0 * (1.0 - v / r)
        );
    } else {
        println!("  random won this seed — rerun with more samples or another seed");
    }
}
