use rand::Rng;
use serde::{Deserialize, Serialize};
use vaesa_nn::{randn, Activation, Graph, Mlp, MlpPass, Tensor, VarId};

/// Hyperparameters of the VAESA model (§III-B1, §IV-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VaesaConfig {
    /// Latent dimensionality (the paper selects 4; 2 is used for
    /// visualization).
    pub latent_dim: usize,
    /// Weight α on the KL-divergence loss term (the paper selects 1e-4).
    pub alpha: f64,
    /// Encoder hidden-layer widths (decoder mirrors them).
    pub encoder_hidden: Vec<usize>,
    /// Predictor hidden-layer widths.
    pub predictor_hidden: Vec<usize>,
}

impl VaesaConfig {
    /// The paper's configuration: 4-D latent space, α = 1e-4.
    pub fn paper() -> Self {
        VaesaConfig {
            latent_dim: 4,
            alpha: 1e-4,
            encoder_hidden: vec![32, 16],
            predictor_hidden: vec![64, 32],
        }
    }

    /// Same architecture with a different latent dimensionality.
    pub fn with_latent_dim(mut self, dz: usize) -> Self {
        assert!(dz >= 1, "latent dim must be at least 1");
        self.latent_dim = dz;
        self
    }

    /// Same architecture with a different KL weight.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha >= 0.0, "alpha must be non-negative");
        self.alpha = alpha;
        self
    }
}

impl Default for VaesaConfig {
    fn default() -> Self {
        VaesaConfig::paper()
    }
}

/// Number of hardware features (Table II parameters).
pub const HW_FEATURES: usize = 6;
/// Number of DNN-layer features (Table IV columns).
pub const LAYER_FEATURES: usize = 8;

/// The VAESA model: a symmetric MLP variational autoencoder over the
/// normalized hardware features, plus latency and energy predictor heads
/// conditioned on the latent point and the layer features (Figure 3).
///
/// All four networks train jointly; see [`crate::Trainer`].
#[derive(Debug, Clone)]
pub struct VaesaModel {
    config: VaesaConfig,
    /// Encoder `6 -> hidden -> 2·dz` (μ and raw log-variance heads).
    pub encoder: Mlp,
    /// Decoder `dz -> reversed hidden -> 6`, sigmoid output (features are
    /// normalized into `[0, 1)`).
    pub decoder: Mlp,
    /// Latency head `dz + 8 -> hidden -> 1`, linear output.
    pub latency_predictor: Mlp,
    /// Energy head `dz + 8 -> hidden -> 1`, linear output.
    pub energy_predictor: Mlp,
}

/// Graph node ids produced by one training forward pass; the trainer uses
/// them to read losses and route gradients.
#[derive(Debug)]
pub struct TrainStep {
    /// Total loss node (`L = L_recon + α·L_kld + L_lat + L_en`, Eq. 2).
    pub total: VarId,
    /// Reconstruction MSE node.
    pub recon: VarId,
    /// KL-divergence node.
    pub kld: VarId,
    /// Latency-predictor MSE node.
    pub latency: VarId,
    /// Energy-predictor MSE node.
    pub energy: VarId,
    /// Encoder pass (for gradient accumulation).
    pub encoder_pass: MlpPass,
    /// Decoder pass.
    pub decoder_pass: MlpPass,
    /// Latency-head pass.
    pub latency_pass: MlpPass,
    /// Energy-head pass.
    pub energy_pass: MlpPass,
    /// Input leaf ids in `(hw, layer, eps, lat, en)` order; the trainer
    /// reclaims these buffers via [`Graph::take_value`] to avoid per-batch
    /// allocations.
    pub input_leaves: [VarId; 5],
}

/// Reusable buffers for [`VaesaModel::predicted_edp_grad_batch`] and
/// [`InputPredictors::predicted_edp_grad_batch`](crate::InputPredictors::predicted_edp_grad_batch):
/// the graph tape and the two input leaf tensors survive across calls, so
/// the batched gradient-descent hot loop performs no per-step graph or
/// leaf allocations.
#[derive(Debug, Default)]
pub struct EdpGradBatch {
    g: Graph,
    xs: Tensor,
    layer_rep: Tensor,
}

impl EdpGradBatch {
    /// The batched log-EDP proxy `w_lat · lat̂ + w_en · ên` of a
    /// `(latency, energy)` predictor pair and its gradient with respect to
    /// the `batch` points stored row-major in `xs` (`dim` features each),
    /// every point joined with the same `layer` features.
    ///
    /// One `B x dim` forward and one backward pass replace `B` single-row
    /// graph builds. Every op on the predictor path is row-independent, so
    /// in the default f64 mode row `r` of both outputs is bit-identical to
    /// the single-row computation at any thread count.
    pub(crate) fn proxy_grad(
        &mut self,
        (latency, energy): (&Mlp, &Mlp),
        xs: &[f64],
        (batch, dim): (usize, usize),
        layer: &[f64],
        (w_lat, w_en): (f64, f64),
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(xs.len(), batch * dim, "batch layout mismatch");
        assert_eq!(layer.len(), LAYER_FEATURES, "layer feature count mismatch");
        if batch == 0 {
            return (Vec::new(), Vec::new());
        }

        self.xs.copy_from_flat(batch, dim, xs);
        self.layer_rep.resize_uninit(batch, LAYER_FEATURES);
        for row in self.layer_rep.as_mut_slice().chunks_mut(LAYER_FEATURES) {
            row.copy_from_slice(layer);
        }

        let g = &mut self.g;
        g.reset();
        let xi = g.leaf(std::mem::replace(&mut self.xs, Tensor::zeros(0, 0)));
        let li = g.leaf(std::mem::replace(&mut self.layer_rep, Tensor::zeros(0, 0)));
        let joined = g.concat_cols(xi, li);
        let lat = latency.forward(g, joined);
        let en = energy.forward(g, joined);
        let lat_w = g.scale(lat.output, w_lat);
        let en_w = g.scale(en.output, w_en);
        let sum = g.add(lat_w, en_w);
        let loss = g.sum_all(sum);
        // Per-row proxy values: `loss` sums the B x 1 column, so reading the
        // column itself gives each row's scalar (for B = 1 this is exactly
        // the single-row path's `loss` value).
        let values = g.value(sum).as_slice().to_vec();
        g.backward(loss);
        let grads = g
            .grad(xi)
            .expect("inputs receive a gradient")
            .as_slice()
            .to_vec();
        self.xs = g.take_value(xi);
        self.layer_rep = g.take_value(li);
        (values, grads)
    }
}

impl VaesaModel {
    /// Builds a model with freshly initialized weights.
    pub fn new(config: VaesaConfig, rng: &mut impl Rng) -> Self {
        let dz = config.latent_dim;
        let mut enc_widths = vec![HW_FEATURES];
        enc_widths.extend(&config.encoder_hidden);
        enc_widths.push(2 * dz);
        let mut dec_widths = vec![dz];
        dec_widths.extend(config.encoder_hidden.iter().rev());
        dec_widths.push(HW_FEATURES);
        let mut pred_widths = vec![dz + LAYER_FEATURES];
        pred_widths.extend(&config.predictor_hidden);
        pred_widths.push(1);

        VaesaModel {
            encoder: Mlp::new(
                &enc_widths,
                Activation::LeakyRelu,
                Activation::Identity,
                rng,
            ),
            decoder: Mlp::new(&dec_widths, Activation::LeakyRelu, Activation::Sigmoid, rng),
            // Linear regression heads: labels are normalized into [0, 1),
            // but a sigmoid output would saturate (zero gradient) away from
            // the data region, stalling latent-space gradient descent.
            latency_predictor: Mlp::new(
                &pred_widths,
                Activation::LeakyRelu,
                Activation::Identity,
                rng,
            ),
            energy_predictor: Mlp::new(
                &pred_widths,
                Activation::LeakyRelu,
                Activation::Identity,
                rng,
            ),
            config,
        }
    }

    /// Reassembles a model from its parts (used by checkpoint loading).
    ///
    /// # Panics
    ///
    /// Panics if the networks' dimensions disagree with the config.
    pub fn from_parts(
        config: VaesaConfig,
        encoder: Mlp,
        decoder: Mlp,
        latency_predictor: Mlp,
        energy_predictor: Mlp,
    ) -> Self {
        let dz = config.latent_dim;
        assert_eq!(encoder.in_dim(), HW_FEATURES, "encoder input width");
        assert_eq!(encoder.out_dim(), 2 * dz, "encoder output width");
        assert_eq!(decoder.in_dim(), dz, "decoder input width");
        assert_eq!(decoder.out_dim(), HW_FEATURES, "decoder output width");
        assert_eq!(
            latency_predictor.in_dim(),
            dz + LAYER_FEATURES,
            "latency head input width"
        );
        assert_eq!(
            energy_predictor.in_dim(),
            dz + LAYER_FEATURES,
            "energy head input width"
        );
        VaesaModel {
            config,
            encoder,
            decoder,
            latency_predictor,
            energy_predictor,
        }
    }

    /// The model's hyperparameters.
    pub fn config(&self) -> &VaesaConfig {
        &self.config
    }

    /// Latent dimensionality.
    pub fn latent_dim(&self) -> usize {
        self.config.latent_dim
    }

    /// Total trainable parameter count across all four networks.
    pub fn param_count(&self) -> usize {
        self.encoder.param_count()
            + self.decoder.param_count()
            + self.latency_predictor.param_count()
            + self.energy_predictor.param_count()
    }

    /// Runs the encoder on graph node `x`, returning `(μ, logσ²)` nodes.
    ///
    /// The raw log-variance head is squashed with `4·tanh(·)` so σ² stays in
    /// a numerically safe range while remaining differentiable.
    pub fn encode_nodes(&self, g: &mut Graph, x: VarId) -> (VarId, VarId, MlpPass) {
        let dz = self.config.latent_dim;
        let pass = self.encoder.forward(g, x);
        let mu = g.slice_cols(pass.output, 0, dz);
        let raw_lv = g.slice_cols(pass.output, dz, 2 * dz);
        let squashed = g.tanh(raw_lv);
        let log_var = g.scale(squashed, 4.0);
        (mu, log_var, pass)
    }

    /// One full training forward pass over a minibatch.
    ///
    /// `hw` is the `B x 6` normalized hardware batch, `layer` the `B x 8`
    /// normalized layer batch, `eps` a `B x dz` standard-normal tensor for
    /// the reparameterization trick, and `lat`/`en` the `B x 1` normalized
    /// labels.
    pub fn train_step(
        &self,
        g: &mut Graph,
        hw: Tensor,
        layer: Tensor,
        eps: Tensor,
        lat: Tensor,
        en: Tensor,
    ) -> TrainStep {
        let x = g.leaf(hw);
        let layer_id = g.leaf(layer);
        let eps_id = g.leaf(eps);
        let lat_target = g.leaf(lat);
        let en_target = g.leaf(en);

        let (mu, log_var, encoder_pass) = self.encode_nodes(g, x);

        // z = μ + ε ⊙ exp(½ logσ²)
        let half_lv = g.scale(log_var, 0.5);
        let sigma = g.exp(half_lv);
        let noise = g.mul(eps_id, sigma);
        let z = g.add(mu, noise);

        let decoder_pass = self.decoder.forward(g, z);
        let recon = g.mse(decoder_pass.output, x);
        let kld = g.kl_divergence(mu, log_var);

        let pred_in = g.concat_cols(z, layer_id);
        let latency_pass = self.latency_predictor.forward(g, pred_in);
        let energy_pass = self.energy_predictor.forward(g, pred_in);
        let latency = g.mse(latency_pass.output, lat_target);
        let energy = g.mse(energy_pass.output, en_target);

        let weighted_kld = g.scale(kld, self.config.alpha);
        let vae_loss = g.add(recon, weighted_kld);
        let pred_loss = g.add(latency, energy);
        let total = g.add(vae_loss, pred_loss);

        TrainStep {
            total,
            recon,
            kld,
            latency,
            energy,
            encoder_pass,
            decoder_pass,
            latency_pass,
            energy_pass,
            input_leaves: [x, layer_id, eps_id, lat_target, en_target],
        }
    }

    /// Deterministically encodes hardware features to latent means.
    ///
    /// `hw` is `B x 6` normalized; returns `B x dz`.
    pub fn encode_mean(&self, hw: &Tensor) -> Tensor {
        let mut g = Graph::new();
        let x = g.leaf(hw.clone());
        let (mu, _, _) = self.encode_nodes(&mut g, x);
        g.value(mu).clone()
    }

    /// Encodes hardware features to `(μ, logσ²)`.
    pub fn encode_params(&self, hw: &Tensor) -> (Tensor, Tensor) {
        let mut g = Graph::new();
        let x = g.leaf(hw.clone());
        let (mu, lv, _) = self.encode_nodes(&mut g, x);
        (g.value(mu).clone(), g.value(lv).clone())
    }

    /// Decodes latent points to normalized hardware features (`B x 6`).
    pub fn decode(&self, z: &Tensor) -> Tensor {
        let mut g = Graph::new();
        let zi = g.leaf(z.clone());
        let pass = self.decoder.forward(&mut g, zi);
        g.value(pass.output).clone()
    }

    /// Predicts `(normalized log-latency, normalized log-energy)` for latent
    /// points `z` (`B x dz`) under layer features `layer` (`B x 8`).
    pub fn predict(&self, z: &Tensor, layer: &Tensor) -> (Tensor, Tensor) {
        let mut g = Graph::new();
        let zi = g.leaf(z.clone());
        let li = g.leaf(layer.clone());
        let joined = g.concat_cols(zi, li);
        let lat = self.latency_predictor.forward(&mut g, joined);
        let en = self.energy_predictor.forward(&mut g, joined);
        (g.value(lat.output).clone(), g.value(en.output).clone())
    }

    /// Predicted log-EDP proxy and its gradient with respect to `z`.
    ///
    /// The proxy is `w_lat · lat̂ + w_en · ên` where the weights are the
    /// normalizers' log-range widths, making the proxy an affine function of
    /// predicted `ln(latency) + ln(energy) = ln(EDP)` — the quantity
    /// `vae_gd` descends (§III-C2).
    pub fn predicted_edp_grad(
        &self,
        z: &[f64],
        layer: &[f64],
        w_lat: f64,
        w_en: f64,
    ) -> (f64, Vec<f64>) {
        assert_eq!(z.len(), self.config.latent_dim, "latent dimension mismatch");
        assert_eq!(layer.len(), LAYER_FEATURES, "layer feature count mismatch");
        let mut g = Graph::new();
        let zi = g.leaf(Tensor::row_vector(z));
        let li = g.leaf(Tensor::row_vector(layer));
        let joined = g.concat_cols(zi, li);
        let lat = self.latency_predictor.forward(&mut g, joined);
        let en = self.energy_predictor.forward(&mut g, joined);
        let lat_w = g.scale(lat.output, w_lat);
        let en_w = g.scale(en.output, w_en);
        let sum = g.add(lat_w, en_w);
        let loss = g.sum_all(sum);
        let value = g.value(loss).get(0, 0);
        g.backward(loss);
        let grad = g
            .grad(zi)
            .expect("z receives a gradient")
            .clone()
            .into_vec();
        (value, grad)
    }

    /// Batched [`VaesaModel::predicted_edp_grad`]: proxy values and
    /// z-gradients for `batch` latent points stored row-major in `zs`
    /// (`zs.len() == batch * dz`), all under the same `layer` features.
    ///
    /// In the default f64 mode row `r` of both outputs is bit-identical to
    /// `predicted_edp_grad(&zs[r*dz..], ...)` at any thread count (see
    /// [`EdpGradBatch`]). Under `VAESA_PRECISION=f32` the f32 routing guard
    /// is shape-dependent (a wide batch amortizes the f32 conversion, a
    /// single row does not), so batch and single-row results agree only to
    /// the documented f32 tolerances.
    pub fn predicted_edp_grad_batch(
        &self,
        zs: &[f64],
        batch: usize,
        layer: &[f64],
        w_lat: f64,
        w_en: f64,
        scratch: &mut EdpGradBatch,
    ) -> (Vec<f64>, Vec<f64>) {
        scratch.proxy_grad(
            (&self.latency_predictor, &self.energy_predictor),
            zs,
            (batch, self.config.latent_dim),
            layer,
            (w_lat, w_en),
        )
    }

    /// Draws `n` latent samples from the prior `N(0, I)`.
    pub fn sample_prior(&self, n: usize, rng: &mut impl Rng) -> Tensor {
        randn(n, self.config.latent_dim, rng)
    }

    /// Predicted whole-network log-EDP and its gradient with respect to `z`.
    ///
    /// The paper's §IV-D outlook: "a user who wants to quickly optimize an
    /// accelerator for an arbitrary neural network design could predict
    /// performance for the full network by summing latency and energy
    /// predictions for multiple layers." This implements that objective
    /// end-to-end differentiably:
    ///
    /// `ln( Σ_l exp(w_lat·lat̂_l + m_lat) ) + ln( Σ_l exp(w_en·ên_l + m_en) )`
    ///
    /// i.e. the log of (sum of denormalized per-layer latencies) times
    /// (sum of denormalized per-layer energies) — exactly `ln` of the
    /// workload EDP the evaluator scores.
    ///
    /// `layers_normalized` is an `L x 8` tensor of normalized layer
    /// features; `(w, m)` pairs are the label normalizers' `(log_range,
    /// log_min)`.
    pub fn predicted_network_edp_grad(
        &self,
        z: &[f64],
        layers_normalized: &Tensor,
        lat_affine: (f64, f64),
        en_affine: (f64, f64),
    ) -> (f64, Vec<f64>) {
        assert_eq!(z.len(), self.config.latent_dim, "latent dimension mismatch");
        assert_eq!(
            layers_normalized.cols(),
            LAYER_FEATURES,
            "layer feature count mismatch"
        );
        let n_layers = layers_normalized.rows();
        assert!(n_layers > 0, "need at least one layer");

        let mut g = Graph::new();
        let zi = g.leaf(Tensor::row_vector(z));
        // Replicate z across L rows differentiably: ones(L,1) x z(1,dz).
        let ones = g.leaf(Tensor::fill(n_layers, 1, 1.0));
        let z_rep = g.matmul(ones, zi);
        let li = g.leaf(layers_normalized.clone());
        let joined = g.concat_cols(z_rep, li);

        let lat = self.latency_predictor.forward(&mut g, joined);
        let en = self.energy_predictor.forward(&mut g, joined);

        let mut raw_total = |pred: vaesa_nn::VarId, (w, m): (f64, f64)| {
            let scaled = g.scale(pred, w);
            let shifted = g.add_scalar(scaled, m);
            let raw = g.exp(shifted);
            let total = g.sum_all(raw);
            g.ln(total)
        };
        let log_lat_total = raw_total(lat.output, lat_affine);
        let log_en_total = raw_total(en.output, en_affine);
        let loss = g.add(log_lat_total, log_en_total);

        let value = g.value(loss).get(0, 0);
        g.backward(loss);
        let grad = g
            .grad(zi)
            .expect("z receives a gradient")
            .clone()
            .into_vec();
        (value, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn model(dz: usize) -> VaesaModel {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        VaesaModel::new(VaesaConfig::paper().with_latent_dim(dz), &mut rng)
    }

    #[test]
    fn shapes_follow_config() {
        let m = model(4);
        assert_eq!(m.latent_dim(), 4);
        assert_eq!(m.encoder.in_dim(), 6);
        assert_eq!(m.encoder.out_dim(), 8); // 2 * dz
        assert_eq!(m.decoder.in_dim(), 4);
        assert_eq!(m.decoder.out_dim(), 6);
        assert_eq!(m.latency_predictor.in_dim(), 12); // dz + 8
        assert!(m.param_count() > 1000);
    }

    #[test]
    fn encode_decode_shapes() {
        let m = model(2);
        let hw = Tensor::fill(5, 6, 0.5);
        let z = m.encode_mean(&hw);
        assert_eq!(z.shape(), (5, 2));
        let xhat = m.decode(&z);
        assert_eq!(xhat.shape(), (5, 6));
        // Sigmoid decoder output lies in (0, 1).
        assert!(xhat.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn log_variance_is_bounded() {
        let m = model(3);
        let hw = Tensor::fill(4, 6, 0.9);
        let (_, lv) = m.encode_params(&hw);
        assert!(lv.as_slice().iter().all(|&v| v.abs() <= 4.0));
    }

    #[test]
    fn train_step_losses_are_finite_and_positive() {
        let m = model(2);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut g = Graph::new();
        let step = m.train_step(
            &mut g,
            Tensor::fill(8, 6, 0.3),
            Tensor::fill(8, 8, 0.6),
            randn(8, 2, &mut rng),
            Tensor::fill(8, 1, 0.4),
            Tensor::fill(8, 1, 0.7),
        );
        for id in [step.total, step.recon, step.latency, step.energy] {
            let v = g.value(id).get(0, 0);
            assert!(v.is_finite() && v >= 0.0, "loss {v}");
        }
        assert!(g.value(step.kld).get(0, 0).is_finite());
        // Total combines the parts per Eq. 2.
        let total = g.value(step.total).get(0, 0);
        let parts = g.value(step.recon).get(0, 0)
            + 1e-4 * g.value(step.kld).get(0, 0)
            + g.value(step.latency).get(0, 0)
            + g.value(step.energy).get(0, 0);
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    fn backward_reaches_all_networks() {
        let m = model(2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut g = Graph::new();
        let step = m.train_step(
            &mut g,
            Tensor::fill(4, 6, 0.3),
            Tensor::fill(4, 8, 0.6),
            randn(4, 2, &mut rng),
            Tensor::fill(4, 1, 0.4),
            Tensor::fill(4, 1, 0.7),
        );
        g.backward(step.total);
        for pass in [
            &step.encoder_pass,
            &step.decoder_pass,
            &step.latency_pass,
            &step.energy_pass,
        ] {
            let touched = pass
                .param_ids
                .iter()
                .any(|&(w, b)| g.grad(w).is_some() || g.grad(b).is_some());
            assert!(touched, "a network received no gradient");
        }
    }

    #[test]
    fn predicted_edp_grad_matches_finite_difference() {
        let m = model(3);
        let z = [0.2, -0.4, 0.1];
        let layer = [0.5; 8];
        let (v, grad) = m.predicted_edp_grad(&z, &layer, 2.0, 3.0);
        assert!(v.is_finite());
        let eps = 1e-6;
        for i in 0..3 {
            let mut zp = z;
            zp[i] += eps;
            let (vp, _) = m.predicted_edp_grad(&zp, &layer, 2.0, 3.0);
            zp[i] = z[i] - eps;
            let (vm, _) = m.predicted_edp_grad(&zp, &layer, 2.0, 3.0);
            let numeric = (vp - vm) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-6,
                "dim {i}: analytic {} vs numeric {numeric}",
                grad[i]
            );
        }
    }

    #[test]
    fn predicted_edp_grad_batch_matches_single_row_bitwise() {
        let m = model(3);
        let layer = [0.5; 8];
        let zs: Vec<Vec<f64>> = vec![
            vec![0.2, -0.4, 0.1],
            vec![-1.3, 0.0, 0.7],
            vec![0.0, 0.0, 0.0],
            vec![2.0, -2.0, 0.5],
            vec![0.31, 0.77, -0.09],
        ];
        let flat: Vec<f64> = zs.iter().flatten().copied().collect();
        let mut scratch = EdpGradBatch::default();
        // Run twice through the same scratch to exercise buffer reclaim.
        for _ in 0..2 {
            let (values, grads) =
                m.predicted_edp_grad_batch(&flat, zs.len(), &layer, 2.0, 3.0, &mut scratch);
            assert_eq!(values.len(), zs.len());
            assert_eq!(grads.len(), flat.len());
            for (r, z) in zs.iter().enumerate() {
                let (v, g) = m.predicted_edp_grad(z, &layer, 2.0, 3.0);
                assert_eq!(values[r].to_bits(), v.to_bits(), "row {r} value");
                for (d, (bg, sg)) in grads[r * 3..(r + 1) * 3].iter().zip(&g).enumerate() {
                    assert_eq!(bg.to_bits(), sg.to_bits(), "row {r} grad dim {d}");
                }
            }
        }
    }

    #[test]
    fn predicted_edp_grad_batch_empty_batch() {
        let m = model(2);
        let mut scratch = EdpGradBatch::default();
        let (v, g) = m.predicted_edp_grad_batch(&[], 0, &[0.5; 8], 1.0, 1.0, &mut scratch);
        assert!(v.is_empty() && g.is_empty());
    }

    #[test]
    fn prior_samples_have_right_shape() {
        let m = model(4);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let z = m.sample_prior(10, &mut rng);
        assert_eq!(z.shape(), (10, 4));
    }

    #[test]
    fn deterministic_construction_per_seed() {
        let a = model(4);
        let b = model(4);
        assert_eq!(a.encoder.flatten_params(), b.encoder.flatten_params());
        assert_eq!(a.decoder.flatten_params(), b.decoder.flatten_params());
    }
}
