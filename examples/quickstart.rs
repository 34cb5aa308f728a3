//! Quickstart: the full VAESA pipeline in ~60 lines.
//!
//! 1. Build a labeled dataset by sampling the Table II design space and
//!    scoring each design on AlexNet's layers with the scheduler + cost
//!    model.
//! 2. Train the VAE + predictor model.
//! 3. Run Bayesian optimization in the learned latent space and print the
//!    best hardware configuration found.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vaesa_repro::accel::{workloads, DesignSpace};
use vaesa_repro::core::flows::{decode_to_config, HardwareEvaluator};
use vaesa_repro::core::{
    DatasetBuilder, DseDriver, SpaceMode, TrainConfig, Trainer, VaesaConfig, VaesaModel,
};
use vaesa_repro::cosa::CachedScheduler;
use vaesa_repro::dse::BoEngine;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let layers = workloads::alexnet();

    // 1. Dataset: 200 random designs (plus a coarse grid), labeled per layer.
    println!("building dataset...");
    let dataset = DatasetBuilder::new(&space, layers.clone())
        .random_configs(200)
        .grid_per_axis(2)
        .build(&scheduler, &mut rng);
    println!("  {} labeled (architecture, layer) samples", dataset.len());

    // 2. Train the VAE and predictor heads jointly.
    println!("training VAESA (4-D latent space)...");
    let mut model = VaesaModel::new(VaesaConfig::paper(), &mut rng);
    let history = Trainer::new(TrainConfig {
        epochs: 30,
        batch_size: 64,
        learning_rate: 1e-3,
    })
    .train_vae(&mut model, &dataset, &mut rng);
    let last = history.last();
    println!(
        "  final losses: recon {:.4}, kld {:.2}, latency {:.4}, energy {:.4}",
        last.recon, last.kld, last.latency, last.energy
    );

    // 3. Search the latent space with Bayesian optimization.
    println!("running vae_bo for 100 samples...");
    let evaluator = HardwareEvaluator::new(&space, &scheduler, &layers);
    let trace = DseDriver::new(&evaluator, &dataset).with_model(&model).run(
        &BoEngine::default(),
        SpaceMode::Latent,
        100,
        &mut rng,
    );

    let best_edp = trace.best_value().expect("found a valid design");
    let best_z = trace.best_point().expect("best point recorded");
    let config = decode_to_config(&model, best_z, &dataset.hw_norm, &evaluator);
    let arch = space.describe(&config);

    println!("\nbest design found (AlexNet EDP = {best_edp:.3e} cycles*pJ):");
    println!("  {arch}");
    let train_best = dataset
        .records
        .iter()
        .filter_map(|r| evaluator.edp_of_config(&r.config))
        .fold(f64::INFINITY, f64::min);
    println!("  (for comparison, best workload EDP among training configs: {train_best:.3e})");
}
