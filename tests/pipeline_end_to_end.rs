//! End-to-end integration test: dataset construction through latent-space
//! search, spanning every crate in the workspace.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vaesa_repro::accel::{workloads, DesignSpace};
use vaesa_repro::core::flows::{decode_to_config, HardwareEvaluator};
use vaesa_repro::core::{
    Dataset, DatasetBuilder, DseDriver, SpaceMode, TrainConfig, Trainer, VaesaConfig, VaesaModel,
};
use vaesa_repro::cosa::CachedScheduler;
use vaesa_repro::dse::{BoEngine, Trace};

fn quick_train(dataset: &Dataset, dz: usize, seed: u64) -> VaesaModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = VaesaModel::new(VaesaConfig::paper().with_latent_dim(dz), &mut rng);
    Trainer::new(TrainConfig {
        epochs: 20,
        batch_size: 32,
        learning_rate: 3e-3,
    })
    .train_vae(&mut model, dataset, &mut rng);
    model
}

fn vae_bo(
    evaluator: &HardwareEvaluator<'_>,
    model: &VaesaModel,
    dataset: &Dataset,
    budget: usize,
    rng: &mut ChaCha8Rng,
) -> Trace {
    DseDriver::new(evaluator, dataset).with_model(model).run(
        &BoEngine::default(),
        SpaceMode::Latent,
        budget,
        rng,
    )
}

#[test]
fn full_pipeline_finds_valid_competitive_design() {
    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let layers = workloads::alexnet();
    let mut rng = ChaCha8Rng::seed_from_u64(1);

    let dataset = DatasetBuilder::new(&space, layers.clone())
        .random_configs(80)
        .grid_per_axis(0)
        .build(&scheduler, &mut rng);
    assert!(dataset.len() >= 70, "dataset too small: {}", dataset.len());

    let model = quick_train(&dataset, 4, 2);
    let evaluator = HardwareEvaluator::new(&space, &scheduler, &layers);
    let trace = vae_bo(&evaluator, &model, &dataset, 40, &mut rng);

    assert_eq!(trace.len(), 40);
    let best = trace.best_value().expect("found valid designs");
    assert!(best > 0.0 && best.is_finite());

    // The decoded best design must be a legal configuration scoring the
    // same EDP when re-evaluated from scratch.
    let z = trace.best_point().expect("best point");
    let config = decode_to_config(&model, z, &dataset.hw_norm, &evaluator);
    let again = evaluator.edp_of_config(&config).expect("valid design");
    assert!(
        (again - best).abs() <= 1e-9 * best,
        "re-evaluation mismatch"
    );

    // Competitive: within 10x of the best *workload* EDP among the
    // training configurations, despite only 40 samples. (Per-record EDPs
    // are single-layer numbers and not comparable to workload EDP.)
    let train_best = dataset
        .records
        .iter()
        .filter_map(|r| evaluator.edp_of_config(&r.config))
        .fold(f64::INFINITY, f64::min);
    assert!(
        best <= train_best * 10.0,
        "latent search best {best:.3e} far from training best {train_best:.3e}"
    );
}

#[test]
fn pipeline_is_reproducible_across_runs() {
    let run = || {
        let space = DesignSpace::paper();
        let scheduler = CachedScheduler::default();
        let layers = workloads::deepbench();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let dataset = DatasetBuilder::new(&space, layers.clone())
            .random_configs(40)
            .grid_per_axis(0)
            .build(&scheduler, &mut rng);
        let model = quick_train(&dataset, 2, 6);
        let evaluator = HardwareEvaluator::new(&space, &scheduler, &layers);
        let trace = vae_bo(&evaluator, &model, &dataset, 15, &mut rng);
        (dataset.len(), trace.best_value())
    };
    assert_eq!(run(), run());
}

#[test]
fn encoded_training_points_decode_close_to_themselves() {
    // The "reconstructible" property: encode-decode-snap should recover
    // designs near the originals for most training points.
    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let layers = workloads::deepbench();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let dataset = DatasetBuilder::new(&space, layers.clone())
        .random_configs(60)
        .grid_per_axis(0)
        .build(&scheduler, &mut rng);
    let model = quick_train(&dataset, 4, 10);
    let evaluator = HardwareEvaluator::new(&space, &scheduler, &layers);

    let mut log_errors = Vec::new();
    for record in dataset.records.iter().take(50) {
        let normalized = dataset.hw_norm.transform_row(&record.hw_raw);
        let z = model.encode_mean(&vaesa_repro::nn::Tensor::row_vector(&normalized));
        let config = decode_to_config(&model, z.as_slice(), &dataset.hw_norm, &evaluator);
        let rec = space.raw_features(&config);
        for (orig, got) in record.hw_raw.iter().zip(rec) {
            log_errors.push((orig.ln() - got.ln()).abs());
        }
    }
    let mean_err = log_errors.iter().sum::<f64>() / log_errors.len() as f64;
    // Features span ~12 natural-log units; reconstruction should be far
    // better than random guessing (which would average several log units).
    assert!(
        mean_err < 1.5,
        "mean log reconstruction error too high: {mean_err}"
    );
}
