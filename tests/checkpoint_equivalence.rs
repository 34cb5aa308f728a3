//! A saved checkpoint must be a *drop-in replacement* for the live model:
//! the same search with the same seed must produce identical traces.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vaesa_repro::accel::{workloads, DesignSpace};
use vaesa_repro::core::flows::HardwareEvaluator;
use vaesa_repro::core::{
    DatasetBuilder, DseDriver, ModelCheckpoint, SpaceMode, TrainConfig, Trainer, VaesaConfig,
    VaesaModel,
};
use vaesa_repro::cosa::CachedScheduler;
use vaesa_repro::dse::{BoEngine, GdEngine};

#[test]
fn restored_checkpoint_reproduces_searches_exactly() {
    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let layers = workloads::deepbench();
    let mut rng = ChaCha8Rng::seed_from_u64(77);

    let dataset = DatasetBuilder::new(&space, layers.clone())
        .random_configs(50)
        .grid_per_axis(0)
        .build(&scheduler, &mut rng);
    let mut model = VaesaModel::new(VaesaConfig::paper().with_latent_dim(3), &mut rng);
    Trainer::new(TrainConfig {
        epochs: 15,
        batch_size: 32,
        learning_rate: 3e-3,
    })
    .train_vae(&mut model, &dataset, &mut rng);

    // Round-trip through JSON.
    let json = ModelCheckpoint::new(&model, &dataset)
        .to_json()
        .expect("serialize");
    let (restored, _norms) = ModelCheckpoint::from_json(&json)
        .expect("deserialize")
        .into_model();

    let evaluator = HardwareEvaluator::new(&space, &scheduler, &layers);

    // vae_bo: identical traces sample for sample.
    let vae_bo = |m: &VaesaModel| {
        DseDriver::new(&evaluator, &dataset).with_model(m).run(
            &BoEngine::default(),
            SpaceMode::Latent,
            20,
            &mut ChaCha8Rng::seed_from_u64(5),
        )
    };
    assert_eq!(vae_bo(&model).samples(), vae_bo(&restored).samples());

    // vae_gd: identical descents too (exercises the predictor heads).
    let layer = layers[3].clone();
    let single = vec![layer.clone()];
    let ev1 = HardwareEvaluator::new(&space, &scheduler, &single);
    let vae_gd = |m: &VaesaModel| {
        DseDriver::new(&ev1, &dataset)
            .with_model(m)
            .with_gd_layer(&layer)
            .run(
                &GdEngine::default(),
                SpaceMode::Latent,
                3,
                &mut ChaCha8Rng::seed_from_u64(6),
            )
    };
    assert_eq!(vae_gd(&model).samples(), vae_gd(&restored).samples());
}

#[test]
fn checkpoint_dimension_mismatch_is_caught_on_reassembly() {
    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let layers = vec![workloads::alexnet()[2].clone()];
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let dataset = DatasetBuilder::new(&space, layers)
        .random_configs(10)
        .grid_per_axis(0)
        .build(&scheduler, &mut rng);
    let model = VaesaModel::new(VaesaConfig::paper().with_latent_dim(2), &mut rng);
    let mut ckpt = ModelCheckpoint::new(&model, &dataset);
    // Corrupt the config so the encoder no longer matches.
    ckpt.config = ckpt.config.with_latent_dim(4);
    let result = std::panic::catch_unwind(move || ckpt.into_model());
    assert!(result.is_err(), "mismatched checkpoint must not reassemble");
}
