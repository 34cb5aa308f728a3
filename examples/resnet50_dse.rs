//! ResNet-50 design-space exploration: `random` vs `bo` vs `vae_bo`.
//!
//! A compact version of the paper's Figure 11 study on one workload: all
//! three search methods get the same sample budget and seed, and the
//! best-EDP-so-far trajectories are printed side by side.
//!
//! Run with: `cargo run --release --example resnet50_dse`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vaesa_repro::accel::{workloads, DesignSpace};
use vaesa_repro::core::flows::HardwareEvaluator;
use vaesa_repro::core::{
    DatasetBuilder, DseDriver, SpaceMode, TrainConfig, Trainer, VaesaConfig, VaesaModel,
};
use vaesa_repro::cosa::CachedScheduler;
use vaesa_repro::dse::{BoEngine, RandomEngine, SearchEngine, Trace};

fn main() {
    let budget = 150;
    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let resnet = workloads::resnet50();
    let pool = workloads::training_layers();

    // Train on the full Table III layer pool, as the paper does.
    println!("building dataset and training VAESA...");
    let mut rng = ChaCha8Rng::seed_from_u64(7);
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

    let evaluator = HardwareEvaluator::new(&space, &scheduler, &resnet);
    println!("searching ({budget} samples per method)...\n");

    // One driver runs every method: the engine picks the search strategy,
    // the mode picks the input space or the latent space.
    let driver = DseDriver::new(&evaluator, &dataset).with_model(&model);
    let run = |engine: &dyn SearchEngine, mode| {
        driver.run(engine, mode, budget, &mut ChaCha8Rng::seed_from_u64(100))
    };
    let t_random = run(&RandomEngine, SpaceMode::Direct);
    let t_bo = run(&BoEngine::default(), SpaceMode::Direct);
    let t_vae_bo = run(&BoEngine::default(), SpaceMode::Latent);

    let curve = |t: &Trace, i: usize| {
        t.samples()
            .get(i)
            .and_then(|s| s.best_so_far)
            .map_or_else(|| "-".to_string(), |v| format!("{v:.3e}"))
    };
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "sample", "random", "bo", "vae_bo"
    );
    for &i in &[9usize, 24, 49, 99, budget - 1] {
        println!(
            "{:>8} {:>12} {:>12} {:>12}",
            i + 1,
            curve(&t_random, i),
            curve(&t_bo, i),
            curve(&t_vae_bo, i)
        );
    }

    println!("\nfinal best ResNet-50 EDP:");
    for t in [&t_random, &t_bo, &t_vae_bo] {
        println!(
            "  {:>8}: {:.4e}",
            t.label(),
            t.best_value().unwrap_or(f64::NAN)
        );
    }
}
