use crate::{Dataset, EdpGradBatch, VaesaModel};
use rand::Rng;
use serde::{Deserialize, Serialize};
use vaesa_nn::{randn_into, Activation, Adam, Batcher, Graph, Mlp, Tensor};

/// Training hyperparameters for the joint VAE + predictor pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            batch_size: 64,
            learning_rate: 1e-3,
        }
    }
}

/// Mean per-epoch loss components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Reconstruction MSE.
    pub recon: f64,
    /// KL divergence (unweighted).
    pub kld: f64,
    /// Latency-predictor MSE.
    pub latency: f64,
    /// Energy-predictor MSE.
    pub energy: f64,
    /// Total weighted loss (Eq. 2).
    pub total: f64,
}

/// Per-epoch loss history of one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct History {
    /// One entry per epoch, in order.
    pub epochs: Vec<EpochStats>,
}

impl History {
    /// The final epoch's stats.
    ///
    /// # Panics
    ///
    /// Panics if the history is empty.
    pub fn last(&self) -> EpochStats {
        *self.epochs.last().expect("history has at least one epoch")
    }

    /// The reconstruction-loss curve (Figure 10 plots this for different
    /// latent dimensionalities).
    pub fn recon_curve(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.recon).collect()
    }
}

/// Trains VAESA models and baseline predictors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Trainer {
    /// Hyperparameters.
    pub config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with explicit hyperparameters.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Trains the VAE and predictor heads end to end on `dataset`,
    /// minimizing `L = L_recon + α·L_kld + L_lat + L_en` (Eq. 2).
    ///
    /// Deterministic given the RNG state.
    pub fn train_vae(
        &self,
        model: &mut VaesaModel,
        dataset: &Dataset,
        rng: &mut impl Rng,
    ) -> History {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let mut adam = Adam::new(self.config.learning_rate);
        let batcher = Batcher::new(dataset.len(), self.config.batch_size);
        let dz = model.latent_dim();
        let mut history = History::default();

        // Scratch buffers cycled through the graph every batch: selected into
        // here, moved into graph leaves, and reclaimed via `take_value` after
        // the optimizer step — no per-batch tensor allocations.
        let mut g = Graph::new();
        let empty = || Tensor::zeros(0, 0);
        let mut bufs = [empty(), empty(), empty(), empty(), empty()];

        let train_span = vaesa_obs::global().span("train");
        for _ in 0..self.config.epochs {
            let _epoch_span = train_span.child("epoch");
            let mut sums = [0.0f64; 5];
            let mut batches = 0usize;
            for batch in batcher.epoch(rng) {
                let [hw_b, layer_b, eps_b, lat_b, en_b] = &mut bufs;
                dataset.hw.select_rows_into(&batch, hw_b);
                dataset.layers.select_rows_into(&batch, layer_b);
                dataset.latency.select_rows_into(&batch, lat_b);
                dataset.energy.select_rows_into(&batch, en_b);
                randn_into(batch.len(), dz, rng, eps_b);

                g.reset();
                let [hw, layer, eps, lat, en] = bufs
                    .each_mut()
                    .map(|b| std::mem::replace(b, Tensor::zeros(0, 0)));
                let step = model.train_step(&mut g, hw, layer, eps, lat, en);
                g.backward(step.total);

                sums[0] += g.value(step.recon).get(0, 0);
                sums[1] += g.value(step.kld).get(0, 0);
                sums[2] += g.value(step.latency).get(0, 0);
                sums[3] += g.value(step.energy).get(0, 0);
                sums[4] += g.value(step.total).get(0, 0);
                batches += 1;

                model.encoder.zero_grad();
                model.decoder.zero_grad();
                model.latency_predictor.zero_grad();
                model.energy_predictor.zero_grad();
                model.encoder.accumulate_grads(&g, &step.encoder_pass);
                model.decoder.accumulate_grads(&g, &step.decoder_pass);
                model
                    .latency_predictor
                    .accumulate_grads(&g, &step.latency_pass);
                model
                    .energy_predictor
                    .accumulate_grads(&g, &step.energy_pass);

                adam.begin_step();
                model.encoder.visit_params(&mut |p| adam.update(p));
                model.decoder.visit_params(&mut |p| adam.update(p));
                model
                    .latency_predictor
                    .visit_params(&mut |p| adam.update(p));
                model.energy_predictor.visit_params(&mut |p| adam.update(p));

                for (buf, &leaf) in bufs.iter_mut().zip(&step.input_leaves) {
                    *buf = g.take_value(leaf);
                }
            }
            let n = batches.max(1) as f64;
            let stats = EpochStats {
                recon: sums[0] / n,
                kld: sums[1] / n,
                latency: sums[2] / n,
                energy: sums[3] / n,
                total: sums[4] / n,
            };
            vaesa_obs::series("train.recon").push(stats.recon);
            vaesa_obs::series("train.kld").push(stats.kld);
            vaesa_obs::series("train.predictor_mse").push(stats.latency + stats.energy);
            vaesa_obs::series("train.total").push(stats.total);
            history.epochs.push(stats);
        }
        train_span.finish();
        history
    }
}

/// Stopping rule for [`Trainer::train_vae_until_converged`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Convergence {
    /// Epochs without sufficient improvement before stopping.
    pub patience: usize,
    /// Minimum relative improvement of the total loss that counts as
    /// progress (e.g. `0.01` = 1%).
    pub min_relative_delta: f64,
    /// Hard cap on epochs regardless of progress.
    pub max_epochs: usize,
}

impl Default for Convergence {
    fn default() -> Self {
        Convergence {
            patience: 8,
            min_relative_delta: 0.005,
            max_epochs: 400,
        }
    }
}

impl Trainer {
    /// Trains until the total loss converges (§III-B3: "we then train the
    /// model end-to-end until the loss function converges"), instead of for
    /// a fixed epoch count. The trainer's configured `epochs` field is
    /// ignored; `convergence.max_epochs` bounds the run.
    ///
    /// Returns the history up to the stopping epoch.
    pub fn train_vae_until_converged(
        &self,
        model: &mut VaesaModel,
        dataset: &Dataset,
        convergence: Convergence,
        rng: &mut impl Rng,
    ) -> History {
        assert!(convergence.patience >= 1, "patience must be at least 1");
        assert!(convergence.max_epochs >= 1, "max_epochs must be at least 1");
        let one_epoch = Trainer::new(TrainConfig {
            epochs: 1,
            ..self.config
        });
        let mut history = History::default();
        let mut best = f64::INFINITY;
        let mut since_improvement = 0usize;
        for _ in 0..convergence.max_epochs {
            let h = one_epoch.train_vae(model, dataset, rng);
            let stats = h.last();
            history.epochs.push(stats);
            if stats.total < best * (1.0 - convergence.min_relative_delta) {
                best = stats.total;
                since_improvement = 0;
            } else {
                since_improvement += 1;
                if since_improvement >= convergence.patience {
                    break;
                }
            }
        }
        history
    }
}

/// The `gd` baseline's performance predictors: latency and energy MLPs over
/// the *original* input space (6 hardware + 8 layer features), trained
/// separately from any VAE (§IV-D).
#[derive(Debug, Clone)]
pub struct InputPredictors {
    /// Latency head `14 -> hidden -> 1`, linear output.
    pub latency: Mlp,
    /// Energy head `14 -> hidden -> 1`, linear output.
    pub energy: Mlp,
}

impl InputPredictors {
    /// Builds fresh predictors with the given hidden widths.
    pub fn new(hidden: &[usize], rng: &mut impl Rng) -> Self {
        let mut widths = vec![crate::HW_FEATURES + crate::LAYER_FEATURES];
        widths.extend(hidden);
        widths.push(1);
        // Linear heads for the same reason as the VAESA predictors: sigmoid
        // saturation would zero the gradients `gd` descends.
        InputPredictors {
            latency: Mlp::new(&widths, Activation::LeakyRelu, Activation::Identity, rng),
            energy: Mlp::new(&widths, Activation::LeakyRelu, Activation::Identity, rng),
        }
    }

    /// Trains both heads on the dataset; returns the loss history
    /// (`recon`/`kld` fields are zero).
    pub fn train(&mut self, trainer: &Trainer, dataset: &Dataset, rng: &mut impl Rng) -> History {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let mut adam = Adam::new(trainer.config.learning_rate);
        let batcher = Batcher::new(dataset.len(), trainer.config.batch_size);
        let mut history = History::default();
        // Same buffer-cycling scheme as `Trainer::train_vae`.
        let mut g = Graph::new();
        let mut hw_buf = Tensor::zeros(0, 0);
        let mut layer_buf = Tensor::zeros(0, 0);
        let mut joined_buf = Tensor::zeros(0, 0);
        let mut lat_buf = Tensor::zeros(0, 0);
        let mut en_buf = Tensor::zeros(0, 0);
        for _ in 0..trainer.config.epochs {
            let mut lat_sum = 0.0;
            let mut en_sum = 0.0;
            let mut batches = 0usize;
            for batch in batcher.epoch(rng) {
                dataset.hw.select_rows_into(&batch, &mut hw_buf);
                dataset.layers.select_rows_into(&batch, &mut layer_buf);
                dataset.latency.select_rows_into(&batch, &mut lat_buf);
                dataset.energy.select_rows_into(&batch, &mut en_buf);
                hw_buf.concat_cols_into(&layer_buf, &mut joined_buf);

                g.reset();
                let take = |b: &mut Tensor| std::mem::replace(b, Tensor::zeros(0, 0));
                let x = g.leaf(take(&mut joined_buf));
                let lat_t = g.leaf(take(&mut lat_buf));
                let en_t = g.leaf(take(&mut en_buf));
                let lat_pass = self.latency.forward(&mut g, x);
                let en_pass = self.energy.forward(&mut g, x);
                let lat_loss = g.mse(lat_pass.output, lat_t);
                let en_loss = g.mse(en_pass.output, en_t);
                let total = g.add(lat_loss, en_loss);
                g.backward(total);

                lat_sum += g.value(lat_loss).get(0, 0);
                en_sum += g.value(en_loss).get(0, 0);
                batches += 1;

                self.latency.zero_grad();
                self.energy.zero_grad();
                self.latency.accumulate_grads(&g, &lat_pass);
                self.energy.accumulate_grads(&g, &en_pass);
                adam.begin_step();
                self.latency.visit_params(&mut |p| adam.update(p));
                self.energy.visit_params(&mut |p| adam.update(p));

                joined_buf = g.take_value(x);
                lat_buf = g.take_value(lat_t);
                en_buf = g.take_value(en_t);
            }
            let n = batches.max(1) as f64;
            history.epochs.push(EpochStats {
                recon: 0.0,
                kld: 0.0,
                latency: lat_sum / n,
                energy: en_sum / n,
                total: (lat_sum + en_sum) / n,
            });
        }
        history
    }

    /// Predicted log-EDP proxy and gradient with respect to the 6 hardware
    /// features (layer features held fixed), for the `gd` baseline.
    pub fn predicted_edp_grad(
        &self,
        hw: &[f64],
        layer: &[f64],
        w_lat: f64,
        w_en: f64,
    ) -> (f64, Vec<f64>) {
        assert_eq!(hw.len(), crate::HW_FEATURES, "hardware feature count");
        assert_eq!(layer.len(), crate::LAYER_FEATURES, "layer feature count");
        let mut g = Graph::new();
        let x = g.leaf(Tensor::row_vector(hw));
        let l = g.leaf(Tensor::row_vector(layer));
        let joined = g.concat_cols(x, l);
        let lat = self.latency.forward(&mut g, joined);
        let en = self.energy.forward(&mut g, joined);
        let lat_w = g.scale(lat.output, w_lat);
        let en_w = g.scale(en.output, w_en);
        let sum = g.add(lat_w, en_w);
        let loss = g.sum_all(sum);
        let value = g.value(loss).get(0, 0);
        g.backward(loss);
        let grad = g.grad(x).expect("hw receives gradient").clone().into_vec();
        (value, grad)
    }

    /// Batched [`InputPredictors::predicted_edp_grad`] over `batch`
    /// hardware points stored row-major in `hws`, all under the same
    /// `layer` features; in the default f64 mode row `r` is bit-identical
    /// to the single-row call (see [`EdpGradBatch`]).
    pub fn predicted_edp_grad_batch(
        &self,
        hws: &[f64],
        batch: usize,
        layer: &[f64],
        w_lat: f64,
        w_en: f64,
        scratch: &mut EdpGradBatch,
    ) -> (Vec<f64>, Vec<f64>) {
        scratch.proxy_grad(
            (&self.latency, &self.energy),
            hws,
            (batch, crate::HW_FEATURES),
            layer,
            (w_lat, w_en),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetBuilder, VaesaConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vaesa_accel::{workloads, DesignSpace};
    use vaesa_cosa::CachedScheduler;

    fn dataset() -> Dataset {
        let space = DesignSpace::coarse(4);
        let layers = vec![
            workloads::alexnet()[2].clone(),
            workloads::resnet50()[5].clone(),
        ];
        let scheduler = CachedScheduler::default();
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        DatasetBuilder::new(&space, layers)
            .random_configs(60)
            .grid_per_axis(0)
            .build(&scheduler, &mut rng)
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            epochs: 30,
            batch_size: 32,
            learning_rate: 3e-3,
        }
    }

    #[test]
    fn vae_training_reduces_losses() {
        let ds = dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut model = VaesaModel::new(VaesaConfig::paper().with_latent_dim(2), &mut rng);
        let history = Trainer::new(quick_config()).train_vae(&mut model, &ds, &mut rng);
        let first = history.epochs[0];
        let last = history.last();
        assert!(
            last.recon < first.recon * 0.7,
            "recon {} -> {}",
            first.recon,
            last.recon
        );
        assert!(last.total < first.total, "total did not improve");
        assert_eq!(history.recon_curve().len(), 30);
    }

    #[test]
    fn trained_model_reconstructs_better_than_untrained() {
        let ds = dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let untrained = VaesaModel::new(VaesaConfig::paper(), &mut rng);
        let mut trained = untrained.clone();
        let mut train_rng = ChaCha8Rng::seed_from_u64(13);
        Trainer::new(quick_config()).train_vae(&mut trained, &ds, &mut train_rng);

        let recon_err = |m: &VaesaModel| {
            let z = m.encode_mean(&ds.hw);
            let xhat = m.decode(&z);
            xhat.sub(&ds.hw).map(|v| v * v).mean()
        };
        assert!(recon_err(&trained) < recon_err(&untrained));
    }

    #[test]
    fn predictor_correlates_with_labels_after_training() {
        let ds = dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let mut model = VaesaModel::new(VaesaConfig::paper().with_latent_dim(2), &mut rng);
        let cfg = TrainConfig {
            epochs: 60,
            ..quick_config()
        };
        Trainer::new(cfg).train_vae(&mut model, &ds, &mut rng);
        let z = model.encode_mean(&ds.hw);
        let (lat_pred, _) = model.predict(&z, &ds.layers);
        let corr = vaesa_linalg::stats::pearson(lat_pred.as_slice(), ds.latency.as_slice())
            .expect("non-degenerate");
        assert!(corr > 0.5, "latency prediction correlation only {corr}");
    }

    #[test]
    fn input_predictors_train_and_differentiate() {
        let ds = dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let mut preds = InputPredictors::new(&[32, 16], &mut rng);
        let history = preds.train(&Trainer::new(quick_config()), &ds, &mut rng);
        assert!(history.last().total < history.epochs[0].total);

        let (v, grad) = preds.predicted_edp_grad(&[0.5; 6], &[0.5; 8], 1.0, 1.0);
        assert!(v.is_finite());
        assert_eq!(grad.len(), 6);
        assert!(grad.iter().any(|g| g.abs() > 0.0));
    }

    #[test]
    fn convergence_training_stops_before_the_cap() {
        let ds = dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut model = VaesaModel::new(VaesaConfig::paper().with_latent_dim(2), &mut rng);
        let trainer = Trainer::new(TrainConfig {
            epochs: 1, // ignored by the converged variant
            batch_size: 32,
            learning_rate: 3e-3,
        });
        let convergence = Convergence {
            patience: 4,
            min_relative_delta: 0.01,
            max_epochs: 200,
        };
        let history = trainer.train_vae_until_converged(&mut model, &ds, convergence, &mut rng);
        assert!(
            history.epochs.len() < 200,
            "never converged within the cap ({} epochs)",
            history.epochs.len()
        );
        assert!(history.epochs.len() >= 5, "stopped suspiciously early");
        // Loss actually went down substantially.
        assert!(history.last().total < history.epochs[0].total * 0.8);
    }

    #[test]
    fn convergence_respects_max_epochs() {
        let ds = dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(18);
        let mut model = VaesaModel::new(VaesaConfig::paper().with_latent_dim(2), &mut rng);
        let trainer = Trainer::new(quick_config());
        let convergence = Convergence {
            patience: 50,
            min_relative_delta: 0.5, // absurdly strict: nothing counts
            max_epochs: 3,
        };
        let history = trainer.train_vae_until_converged(&mut model, &ds, convergence, &mut rng);
        assert_eq!(history.epochs.len(), 3);
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let ds = dataset();
        let run = || {
            let mut rng = ChaCha8Rng::seed_from_u64(16);
            let mut model = VaesaModel::new(VaesaConfig::paper(), &mut rng);
            let cfg = TrainConfig {
                epochs: 3,
                ..quick_config()
            };
            Trainer::new(cfg).train_vae(&mut model, &ds, &mut rng);
            model.encoder.flatten_params()
        };
        // Repeat runs must agree bit-for-bit, and the thread count must not
        // influence the result (fixed accumulation order in the kernels).
        let baseline = run();
        assert_eq!(baseline, run());
        for threads in ["1", "2", "5"] {
            std::env::set_var("VAESA_THREADS", threads);
            assert_eq!(
                baseline,
                run(),
                "trained params differ at {threads} threads"
            );
        }
        std::env::remove_var("VAESA_THREADS");
    }
}
