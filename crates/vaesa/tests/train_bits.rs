//! Pins the training step bit for bit.
//!
//! The digest covers, through `to_bits`:
//! - every parameter and every `History` loss after `Trainer::train_vae`;
//! - the same after `InputPredictors::train`;
//! - the values and gradients of both `predicted_edp_grad_batch` proxies.
//!
//! Three epochs at batch 64 run over a seeded dataset whose size is not a
//! multiple of 64, so every epoch ends on a short batch and the graph
//! reuses its buffers at two shapes. The digest must read the same at one
//! thread and at four; at four, only the 2048-row proxy batch is large
//! enough to split a product across threads. Any change to the tape, the kernels, the optimizer
//! or the batching moves it; the pipelines' CSVs print only 7 significant
//! digits, so their digests can miss last-bit drift that this one catches.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vaesa::{
    Dataset, DatasetBuilder, EdpGradBatch, History, InputPredictors, TrainConfig, Trainer,
    VaesaConfig, VaesaModel,
};
use vaesa_accel::{workloads, DesignSpace};
use vaesa_cosa::CachedScheduler;
use vaesa_nn::Mlp;

/// FNV-1a over little-endian words: stable across platforms and releases.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn float(&mut self, v: f64) {
        for b in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, vs: &[f64]) {
        vs.iter().for_each(|&v| self.float(v));
    }

    fn mlp(&mut self, mlp: &Mlp) {
        self.floats(&mlp.flatten_params());
    }

    fn history(&mut self, h: &History) {
        for e in &h.epochs {
            self.floats(&[e.recon, e.kld, e.latency, e.energy, e.total]);
        }
    }
}

const BATCH: usize = 64;

fn dataset() -> Dataset {
    let layers = vec![
        workloads::alexnet()[2].clone(),
        workloads::resnet50()[5].clone(),
        workloads::resnet50()[12].clone(),
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    DatasetBuilder::new(&DesignSpace::coarse(4), layers)
        .random_configs(70)
        .grid_per_axis(0)
        .build(&CachedScheduler::default(), &mut rng)
}

fn training_digest(ds: &Dataset) -> u64 {
    let trainer = Trainer::new(TrainConfig {
        epochs: 3,
        batch_size: BATCH,
        learning_rate: 3e-3,
    });
    let mut d = Digest::new();
    let layer: Vec<f64> = ds.layers.row(0).to_vec();

    let mut rng = ChaCha8Rng::seed_from_u64(32);
    let mut model = VaesaModel::new(VaesaConfig::paper(), &mut rng);
    d.history(&trainer.train_vae(&mut model, ds, &mut rng));
    for mlp in [
        &model.encoder,
        &model.decoder,
        &model.latency_predictor,
        &model.energy_predictor,
    ] {
        d.mlp(mlp);
    }

    let mut preds = InputPredictors::new(&[64, 32], &mut rng);
    d.history(&preds.train(&trainer, ds, &mut rng));
    d.mlp(&preds.latency);
    d.mlp(&preds.energy);

    // Both proxies through one reused scratch, at three batch sizes. The
    // 2048-row batch is the only case big enough for the row-blocked
    // kernels to fan out across threads; the training steps at batch 64
    // stay on the serial path at any thread count.
    let mut scratch = EdpGradBatch::default();
    for batch in [7usize, 3, 2048] {
        let zs: Vec<f64> = (0..batch * model.latent_dim())
            .map(|_| rng.gen_range(-2.0..2.0))
            .collect();
        let (values, grads) =
            model.predicted_edp_grad_batch(&zs, batch, &layer, 1.7, 2.3, &mut scratch);
        d.floats(&values);
        d.floats(&grads);
        let hws: Vec<f64> = (0..batch * vaesa::HW_FEATURES)
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        let (values, grads) =
            preds.predicted_edp_grad_batch(&hws, batch, &layer, 1.7, 2.3, &mut scratch);
        d.floats(&values);
        d.floats(&grads);
    }
    d.0
}

#[test]
fn training_outputs_match_pinned_digest() {
    const PINNED: u64 = 0xd86d_3f15_c0a0_81f1;
    let ds = dataset();
    assert!(
        !ds.len().is_multiple_of(BATCH) && ds.len() > 2 * BATCH,
        "{} records leave no short last batch",
        ds.len()
    );
    for threads in ["1", "4"] {
        std::env::set_var("VAESA_THREADS", threads);
        let got = training_digest(&ds);
        assert_eq!(
            got, PINNED,
            "training digest moved at {threads} thread(s): {got:#018x}"
        );
    }
}
