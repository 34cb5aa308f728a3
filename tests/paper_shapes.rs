//! Regression tests for the paper's headline qualitative claims at a tiny,
//! fast scale. The experiment binaries measure these properly (see
//! EXPERIMENTS.md); these tests keep refactors from silently breaking the
//! shapes.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vaesa_repro::accel::{workloads, DesignSpace};
use vaesa_repro::core::{Dataset, DatasetBuilder, TrainConfig, Trainer, VaesaConfig, VaesaModel};
use vaesa_repro::cosa::CachedScheduler;

fn shared_dataset() -> (DesignSpace, CachedScheduler, Dataset) {
    let space = DesignSpace::paper();
    let scheduler = CachedScheduler::default();
    let mut rng = ChaCha8Rng::seed_from_u64(100);
    let layers = vec![
        workloads::alexnet()[2].clone(),
        workloads::resnet50()[6].clone(),
        workloads::resnet50()[13].clone(),
        workloads::deepbench()[4].clone(),
    ];
    let ds = DatasetBuilder::new(&space, layers)
        .random_configs(120)
        .grid_per_axis(0)
        .build(&scheduler, &mut rng);
    (space, scheduler, ds)
}

fn train(ds: &Dataset, dz: usize, alpha: f64, epochs: usize, seed: u64) -> VaesaModel {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = VaesaModel::new(
        VaesaConfig::paper().with_latent_dim(dz).with_alpha(alpha),
        &mut rng,
    );
    Trainer::new(TrainConfig {
        epochs,
        batch_size: 64,
        learning_rate: 3e-3,
    })
    .train_vae(&mut model, ds, &mut rng);
    model
}

fn recon_mse(model: &VaesaModel, ds: &Dataset) -> f64 {
    let z = model.encode_mean(&ds.hw);
    let xhat = model.decode(&z);
    xhat.sub(&ds.hw).map(|v| v * v).mean()
}

/// Figure 10's shape: more latent dimensions reconstruct better.
#[test]
fn recon_improves_with_latent_dimension() {
    let (_, _, ds) = shared_dataset();
    let m1 = train(&ds, 1, 1e-4, 25, 1);
    let m4 = train(&ds, 4, 1e-4, 25, 1);
    let r1 = recon_mse(&m1, &ds);
    let r4 = recon_mse(&m4, &ds);
    assert!(
        r4 < r1,
        "4-D latent ({r4:.5}) should reconstruct better than 1-D ({r1:.5})"
    );
}

/// Figure 9's shape: a heavy KL weight collapses the encoding spread
/// toward the standard normal relative to a light one.
#[test]
fn heavy_kl_weight_collapses_the_encoding() {
    let (_, _, ds) = shared_dataset();
    let loose = train(&ds, 2, 1e-4, 25, 2);
    let tight = train(&ds, 2, 1e-1, 25, 2);
    let spread = |m: &VaesaModel| {
        let z = m.encode_mean(&ds.hw);
        let n = z.rows() as f64;
        let mean = z.sum() / (n * 2.0);
        (z.map(|v| (v - mean) * (v - mean)).mean()).sqrt()
    };
    let s_loose = spread(&loose);
    let s_tight = spread(&tight);
    assert!(
        s_tight < s_loose,
        "alpha=0.1 spread ({s_tight:.3}) should be below alpha=1e-4 spread ({s_loose:.3})"
    );
    // And the collapsed space must sit near the prior's unit scale.
    assert!(s_tight < 2.0, "collapsed spread is {s_tight:.3}");
}

/// §IV-D's shape: predictor descent in the latent space produces better
/// designs than spending the same budget uniformly at random (averaged over
/// layers and seeds).
#[test]
fn vae_gd_beats_random_at_small_budgets() {
    use vaesa_repro::core::flows::HardwareEvaluator;
    use vaesa_repro::core::{DseDriver, SpaceMode};
    use vaesa_repro::dse::{GdEngine, RandomEngine};

    let (space, scheduler, ds) = shared_dataset();
    let model = train(&ds, 4, 1e-4, 35, 3);
    let layers = [
        workloads::gd_test_layers()[4].clone(),
        workloads::gd_test_layers()[6].clone(),
    ];
    let samples = 8;
    let mut gd_wins = 0;
    let mut total = 0;
    for (li, layer) in layers.iter().enumerate() {
        let single = vec![layer.clone()];
        let ev = HardwareEvaluator::new(&space, &scheduler, &single);
        let driver = DseDriver::new(&ev, &ds)
            .with_model(&model)
            .with_gd_layer(layer);
        for seed in 0..3u64 {
            let mut r1 = ChaCha8Rng::seed_from_u64(1000 + 10 * li as u64 + seed);
            let gd = driver.run(&GdEngine::default(), SpaceMode::Latent, samples, &mut r1);
            let mut r2 = ChaCha8Rng::seed_from_u64(1000 + 10 * li as u64 + seed);
            let rnd = driver.run(&RandomEngine, SpaceMode::Direct, samples, &mut r2);
            if let (Some(g), Some(r)) = (gd.best_value(), rnd.best_value()) {
                total += 1;
                if g <= r {
                    gd_wins += 1;
                }
            }
        }
    }
    assert!(total >= 5, "too few valid comparisons");
    assert!(
        gd_wins * 3 >= total * 2,
        "vae_gd won only {gd_wins}/{total} comparisons"
    );
}

/// The reconstructible property: the paper's pipeline never emits an
/// illegal configuration, whatever latent point the search visits.
#[test]
fn every_latent_point_decodes_to_a_legal_design() {
    use vaesa_repro::core::flows::{decode_to_config, latent_box, HardwareEvaluator};

    let (space, scheduler, ds) = shared_dataset();
    let model = train(&ds, 4, 1e-4, 15, 4);
    let layers = vec![workloads::alexnet()[2].clone()];
    let ev = HardwareEvaluator::new(&space, &scheduler, &layers);
    let boxed = latent_box(&model, &ds);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for _ in 0..50 {
        let z = boxed.sample(&mut rng);
        let config = decode_to_config(&model, &z, &ds.hw_norm, &ev);
        // Legality: the config indexes the space, so describe() succeeds and
        // every value is a Table II value.
        let arch = space.describe(&config);
        assert!(arch.pe_count.is_power_of_two() && (4..=64).contains(&arch.pe_count));
        assert!(arch.macs_per_pe % 64 == 0 && arch.macs_per_pe <= 4096);
    }
}
