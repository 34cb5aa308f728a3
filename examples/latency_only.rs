//! Optimizing latency and energy separately (§IV-A2).
//!
//! The paper notes the flow "can optimize the latency and energy
//! separately"; this example runs three latent-space searches on the same
//! trained model — one per metric — and shows how the chosen designs
//! differ: the latency-optimal machine maximizes compute, the
//! energy-optimal one favors modest compute with large weight buffers, and
//! the EDP optimum sits between them.
//!
//! Run with: `cargo run --release --example latency_only`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vaesa_repro::accel::{workloads, DesignSpace};
use vaesa_repro::core::flows::{decode_to_config, HardwareEvaluator, Metric};
use vaesa_repro::core::{
    DatasetBuilder, DseDriver, SpaceMode, TrainConfig, Trainer, VaesaConfig, VaesaModel,
};
use vaesa_repro::cosa::CachedScheduler;
use vaesa_repro::dse::BoEngine;

fn main() {
    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let layers = workloads::alexnet();
    let mut rng = ChaCha8Rng::seed_from_u64(17);

    println!("training VAESA once...");
    let dataset = DatasetBuilder::new(&space, workloads::training_layers())
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

    println!("searching AlexNet with three objectives (80 samples each):\n");
    for (name, metric) in [
        ("latency", Metric::Latency),
        ("energy", Metric::Energy),
        ("EDP", Metric::Edp),
    ] {
        let evaluator = HardwareEvaluator::with_metric(&space, &scheduler, &layers, metric);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let trace = DseDriver::new(&evaluator, &dataset).with_model(&model).run(
            &BoEngine::default(),
            SpaceMode::Latent,
            80,
            &mut rng,
        );
        let z = trace.best_point().expect("found a design");
        let config = decode_to_config(&model, z, &dataset.hw_norm, &evaluator);
        let arch = space.describe(&config);
        let w = evaluator.workload_eval(&config).expect("valid design");
        println!("minimize {name}:");
        println!("  design: {arch}");
        println!(
            "  latency {:.3e} cyc | energy {:.3e} pJ | EDP {:.3e}\n",
            w.total_latency_cycles,
            w.total_energy_pj,
            w.edp()
        );
    }
    println!("note how the latency-optimal design maximizes MACs while the");
    println!("energy-optimal one trades throughput for cheaper data movement.");
}
