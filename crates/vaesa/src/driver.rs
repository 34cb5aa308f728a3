//! The single evaluation driver behind every DSE flow: one
//! [`DseDriver::run`] call covers each [`SearchEngine`] in each of the two
//! evaluation modes ([`SpaceMode`]).
//!
//! The two modes are the paper's two ways of judging a candidate:
//!
//! - [`SpaceMode::Direct`] searches the normalized input box `[0, 1]^6`;
//!   each point is denormalized, snapped to the nearest legal design, and
//!   scheduled.
//! - [`SpaceMode::Latent`] searches the VAE latent box
//!   ([`latent_box`](crate::flows::latent_box)); each point is decoded
//!   through the trained decoder, snapped, and scheduled.
//!
//! Both funnel into [`HardwareEvaluator`] and its cached scheduler, and
//! both expose a differentiable predictor proxy to gradient engines when
//! the driver is configured with a layer (and, in direct mode, trained
//! input-space predictors). Batch scoring fans out across the
//! [`vaesa_par`] pool with results in input order, so traces stay
//! bit-identical at any thread count (the PR 1 determinism policy).

use crate::flows::{
    decode_to_config, decode_to_configs, latent_box, proxy_weights, score_batch, HardwareEvaluator,
    Metric,
};
use crate::{Dataset, EdpGradBatch, InputPredictors, Normalizer, VaesaModel};
use rand::RngCore;
use vaesa_accel::LayerShape;
use vaesa_dse::{
    BatchDifferentiableObjective, BoxSpace, Objective, SearchEngine, SearchObjective, Trace,
};

/// Which space a [`DseDriver::run`] searches, and therefore how candidate
/// points become hardware designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceMode {
    /// The normalized design-feature box `[0, 1]^6`: denormalize + snap.
    Direct,
    /// The VAE latent box: decode through the model + snap. Trace labels
    /// get a `vae_` prefix (`vae_bo`, `vae_gd`, ...).
    Latent,
}

/// Everything needed to run any engine in any mode against one workload:
/// the evaluator (space + scheduler + layers + metric), the dataset (whose
/// normalizers map both spaces back to designs and whose statistics weight
/// the gradient proxies), and — when configured — the trained model, the
/// proxy layer for gradient engines, and input-space predictors.
///
/// Built once per experiment and reused across engines; it is the only
/// way to run a search.
#[derive(Debug)]
pub struct DseDriver<'a> {
    evaluator: &'a HardwareEvaluator<'a>,
    dataset: &'a Dataset,
    model: Option<&'a VaesaModel>,
    gd_layer: Option<&'a LayerShape>,
    predictors: Option<&'a InputPredictors>,
}

impl<'a> DseDriver<'a> {
    /// A driver for direct-mode engines; the builder methods below enable
    /// latent mode and the gradient engines.
    pub fn new(evaluator: &'a HardwareEvaluator<'a>, dataset: &'a Dataset) -> Self {
        DseDriver {
            evaluator,
            dataset,
            model: None,
            gd_layer: None,
            predictors: None,
        }
    }

    /// Enables [`SpaceMode::Latent`] with a trained model.
    pub fn with_model(mut self, model: &'a VaesaModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Enables gradient engines: this layer drives the differentiable
    /// predictor proxy (the evaluator still scores the full workload).
    pub fn with_gd_layer(mut self, layer: &'a LayerShape) -> Self {
        self.gd_layer = Some(layer);
        self
    }

    /// Enables gradient engines in direct mode with input-space predictors.
    pub fn with_input_predictors(mut self, predictors: &'a InputPredictors) -> Self {
        self.predictors = Some(predictors);
        self
    }

    /// Runs `engine` over the chosen space for exactly `budget` true
    /// evaluations and returns its trace, labeled `engine.name()` in
    /// direct mode and `vae_<name>` in latent mode.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is latent without [`DseDriver::with_model`], or if
    /// `engine` needs a gradient proxy the driver is not configured for.
    pub fn run(
        &self,
        engine: &dyn SearchEngine,
        mode: SpaceMode,
        budget: usize,
        rng: &mut dyn RngCore,
    ) -> Trace {
        // One span per driver call (the chokepoint every DSE flow funnels
        // through), plus the trace's trajectory/budget record — search
        // itself runs uninstrumented.
        let run_span = vaesa_obs::global().span("dse/run");
        let (dataset, metric) = (self.dataset, self.evaluator.metric());
        let trace = match mode {
            SpaceMode::Direct => {
                let space = BoxSpace::unit(crate::HW_FEATURES);
                let proxy = match (self.predictors, self.gd_layer) {
                    (Some(p), Some(layer)) => Some(InputProxy::new(p, dataset, layer, metric)),
                    _ => None,
                };
                let mut objective = DirectObjective {
                    evaluator: self.evaluator,
                    hw_norm: &dataset.hw_norm,
                    proxy,
                };
                engine.run(&space, &mut objective, budget, rng)
            }
            SpaceMode::Latent => {
                let model = self
                    .model
                    .expect("latent mode needs DseDriver::with_model(..)");
                let space = latent_box(model, dataset);
                let proxy = self
                    .gd_layer
                    .map(|l| BatchEdpObjective::new(model, dataset, l, metric));
                let mut objective = LatentObjective {
                    evaluator: self.evaluator,
                    model,
                    hw_norm: &dataset.hw_norm,
                    proxy,
                };
                let mut trace = engine.run(&space, &mut objective, budget, rng);
                trace.set_label(format!("vae_{}", engine.name()));
                trace
            }
        };
        run_span.finish();
        vaesa_dse::record_trace(&trace);
        trace
    }
}

/// Direct-mode objective: denormalize + snap + schedule.
struct DirectObjective<'a> {
    evaluator: &'a HardwareEvaluator<'a>,
    hw_norm: &'a Normalizer,
    proxy: Option<InputProxy<'a>>,
}

impl Objective for DirectObjective<'_> {
    fn dim(&self) -> usize {
        crate::HW_FEATURES
    }

    fn evaluate(&mut self, x: &[f64]) -> Option<f64> {
        self.evaluator.edp_of_normalized(x, self.hw_norm)
    }
}

impl SearchObjective for DirectObjective<'_> {
    fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<Option<f64>> {
        score_batch(self.evaluator, self.hw_norm, xs)
    }

    fn proxy(&mut self) -> Option<&mut dyn BatchDifferentiableObjective> {
        self.proxy
            .as_mut()
            .map(|p| p as &mut dyn BatchDifferentiableObjective)
    }
}

/// Latent-mode objective: decode + snap + schedule. Batches share one
/// decoder forward pass and fan scheduling out across the thread pool,
/// slot-equivalent to the scalar path
/// ([`decode_to_configs`] is row-equivalent to [`decode_to_config`]).
struct LatentObjective<'a> {
    evaluator: &'a HardwareEvaluator<'a>,
    model: &'a VaesaModel,
    hw_norm: &'a Normalizer,
    proxy: Option<BatchEdpObjective<'a>>,
}

impl Objective for LatentObjective<'_> {
    fn dim(&self) -> usize {
        self.model.latent_dim()
    }

    fn evaluate(&mut self, z: &[f64]) -> Option<f64> {
        let config = decode_to_config(self.model, z, self.hw_norm, self.evaluator);
        self.evaluator.edp_of_config(&config)
    }
}

impl SearchObjective for LatentObjective<'_> {
    fn evaluate_batch(&mut self, zs: &[Vec<f64>]) -> Vec<Option<f64>> {
        let configs = decode_to_configs(self.model, zs, self.hw_norm, self.evaluator);
        vaesa_par::par_map(&configs, |c| self.evaluator.edp_of_config(c))
    }

    fn proxy(&mut self) -> Option<&mut dyn BatchDifferentiableObjective> {
        self.proxy
            .as_mut()
            .map(|p| p as &mut dyn BatchDifferentiableObjective)
    }
}

/// The batched `vae_gd` descent objective: one call produces proxy values
/// and z-gradients for a whole batch of latent points under a fixed layer,
/// reusing graph and leaf buffers across descent steps
/// ([`VaesaModel::predicted_edp_grad_batch`]).
///
/// Public so the benchmark harness can drive
/// [`GradientDescent::run_batch`](vaesa_dse::GradientDescent::run_batch)
/// with the exact objective the flow uses.
#[derive(Debug)]
pub struct BatchEdpObjective<'a> {
    model: &'a VaesaModel,
    layer_n: Vec<f64>,
    w_lat: f64,
    w_en: f64,
    scratch: EdpGradBatch,
}

impl<'a> BatchEdpObjective<'a> {
    /// Builds the objective for one layer under the evaluator's metric.
    pub fn new(
        model: &'a VaesaModel,
        dataset: &Dataset,
        layer: &LayerShape,
        metric: Metric,
    ) -> Self {
        let layer_n = dataset.layer_norm.transform_row(&layer.features());
        let (w_lat, w_en) = proxy_weights(metric, dataset);
        BatchEdpObjective {
            model,
            layer_n,
            w_lat,
            w_en,
            scratch: EdpGradBatch::default(),
        }
    }
}

impl BatchDifferentiableObjective for BatchEdpObjective<'_> {
    fn dim(&self) -> usize {
        self.model.latent_dim()
    }

    fn evaluate_with_grad_batch(&mut self, xs: &[f64], batch: usize) -> (Vec<f64>, Vec<f64>) {
        self.model.predicted_edp_grad_batch(
            xs,
            batch,
            &self.layer_n,
            self.w_lat,
            self.w_en,
            &mut self.scratch,
        )
    }
}

/// Direct-mode gradient proxy over the input-space predictors: one batched
/// pass per descent step, equivalent to per-point calls because every row
/// is evaluated independently.
struct InputProxy<'a> {
    predictors: &'a InputPredictors,
    layer_n: Vec<f64>,
    w_lat: f64,
    w_en: f64,
    scratch: EdpGradBatch,
}

impl<'a> InputProxy<'a> {
    fn new(
        predictors: &'a InputPredictors,
        dataset: &Dataset,
        layer: &LayerShape,
        metric: Metric,
    ) -> Self {
        let layer_n = dataset.layer_norm.transform_row(&layer.features());
        let (w_lat, w_en) = proxy_weights(metric, dataset);
        InputProxy {
            predictors,
            layer_n,
            w_lat,
            w_en,
            scratch: EdpGradBatch::default(),
        }
    }
}

impl BatchDifferentiableObjective for InputProxy<'_> {
    fn dim(&self) -> usize {
        crate::HW_FEATURES
    }

    fn evaluate_with_grad_batch(&mut self, xs: &[f64], batch: usize) -> (Vec<f64>, Vec<f64>) {
        self.predictors.predicted_edp_grad_batch(
            xs,
            batch,
            &self.layer_n,
            self.w_lat,
            self.w_en,
            &mut self.scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Fixture;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vaesa_cosa::CachedScheduler;
    use vaesa_dse::{engine_by_name, FnDifferentiable, GdConfig, GdEngine, GradientDescent};

    /// The random driver path must stay bit-identical to the serial
    /// draw-score-record reference at any thread count (the PR 1 `to_bits`
    /// equivalence guarantee, now pointed at the driver).
    #[test]
    fn random_driver_matches_serial_reference_trace() {
        let f = Fixture::new();
        let ev = f.evaluator();
        let ds = f.dataset();

        // Serial reference: a draw-score-record loop, one point at a time.
        let space = BoxSpace::unit(crate::HW_FEATURES);
        let mut rng = ChaCha8Rng::seed_from_u64(60);
        let mut serial = Trace::new("random");
        for _ in 0..25 {
            let x = space.sample(&mut rng);
            let v = ev.edp_of_normalized(&x, &ds.hw_norm);
            serial.record(x, v);
        }

        let driver = DseDriver::new(&ev, &ds);
        let engine = engine_by_name("random").unwrap();
        for threads in ["1", "3", "8"] {
            std::env::set_var("VAESA_THREADS", threads);
            let par = driver.run(
                engine.as_ref(),
                SpaceMode::Direct,
                25,
                &mut ChaCha8Rng::seed_from_u64(60),
            );
            assert_eq!(serial, par, "threads = {threads}");
        }
        std::env::remove_var("VAESA_THREADS");
    }

    /// The latent GD driver path must stay bit-identical to the serial
    /// per-start descent reference (one full descent per sample) at
    /// 1/2/5 threads.
    #[test]
    fn vae_gd_driver_matches_serial_reference_trace() {
        let f = Fixture::new();
        let ds = f.dataset();
        let model = f.trained_model(&ds);
        let layer = f.layers[0].clone();
        let single = vec![layer.clone()];
        let ev = HardwareEvaluator::new(&f.space, &f.scheduler, &single);
        let gd_cfg = GdConfig {
            steps: 30,
            ..GdConfig::default()
        };

        // Serial reference: one full descent per sample, one scheduler
        // query per sample, samples drawn one at a time.
        let layer_n = ds.layer_norm.transform_row(&layer.features());
        let (w_lat, w_en) = proxy_weights(ev.metric(), &ds);
        let space = latent_box(&model, &ds);
        let gd = GradientDescent::new(space.clone(), gd_cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let mut serial = Trace::new("vae_gd");
        for _ in 0..4 {
            let start = space.sample(&mut rng);
            let mut objective = FnDifferentiable::new(model.latent_dim(), |z: &[f64]| {
                model.predicted_edp_grad(z, &layer_n, w_lat, w_en)
            });
            let path = gd.run(&mut objective, &start);
            let z = path.final_point();
            let config = decode_to_config(&model, z, &ds.hw_norm, &ev);
            serial.record(z.to_vec(), ev.edp_of_config(&config));
        }

        let driver = DseDriver::new(&ev, &ds)
            .with_model(&model)
            .with_gd_layer(&layer);
        let engine = GdEngine { config: gd_cfg };
        for threads in ["1", "2", "5"] {
            std::env::set_var("VAESA_THREADS", threads);
            let batched = driver.run(
                &engine,
                SpaceMode::Latent,
                4,
                &mut ChaCha8Rng::seed_from_u64(61),
            );
            assert_eq!(serial, batched, "threads = {threads}");
        }
        std::env::remove_var("VAESA_THREADS");
    }

    /// Every engine runs through the driver in both modes, spends its
    /// budget exactly, and never over-calls the scheduler: with a
    /// single-layer workload, scheduler lookups == budget.
    #[test]
    fn all_engines_run_in_both_modes_within_budget() {
        let f = Fixture::new();
        let ds = f.dataset();
        let model = f.trained_model(&ds);
        let preds = f.trained_input_predictors(&ds);
        let layer = f.layers[0].clone();
        let single = vec![layer.clone()];
        let budget = 12usize;

        for name in ["random", "bo", "evo", "sa", "cd", "gd"] {
            let engine = engine_by_name(name).unwrap();
            for mode in [SpaceMode::Direct, SpaceMode::Latent] {
                // Fresh scheduler per run so lookup deltas are exact.
                let scheduler = CachedScheduler::default();
                let ev = HardwareEvaluator::new(&f.space, &scheduler, &single);
                let driver = DseDriver::new(&ev, &ds)
                    .with_model(&model)
                    .with_gd_layer(&layer)
                    .with_input_predictors(&preds);
                let mut rng = ChaCha8Rng::seed_from_u64(70);
                let trace = driver.run(engine.as_ref(), mode, budget, &mut rng);
                let want_label = match mode {
                    SpaceMode::Direct => name.to_string(),
                    SpaceMode::Latent => format!("vae_{name}"),
                };
                assert_eq!(trace.label(), want_label);
                assert_eq!(trace.len(), budget, "{want_label} trace length");
                let stats = scheduler.cache_stats();
                assert_eq!(
                    stats.hits + stats.misses,
                    budget as u64,
                    "{want_label} scheduler lookups"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "with_model")]
    fn latent_mode_without_model_panics() {
        let f = Fixture::new();
        let ev = f.evaluator();
        let ds = f.dataset();
        let driver = DseDriver::new(&ev, &ds);
        let engine = engine_by_name("random").unwrap();
        let _ = driver.run(
            engine.as_ref(),
            SpaceMode::Latent,
            2,
            &mut ChaCha8Rng::seed_from_u64(1),
        );
    }

    #[test]
    fn input_proxy_batch_matches_per_point_calls() {
        let f = Fixture::new();
        let ds = f.dataset();
        let preds = f.trained_input_predictors(&ds);
        let layer = f.layers[0].clone();
        let mut proxy = InputProxy::new(&preds, &ds, &layer, Metric::Edp);
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let space = BoxSpace::unit(crate::HW_FEATURES);
        let points: Vec<Vec<f64>> = (0..5).map(|_| space.sample(&mut rng)).collect();
        let flat: Vec<f64> = points.iter().flatten().copied().collect();
        let (values, grads) = proxy.evaluate_with_grad_batch(&flat, points.len());
        for (i, p) in points.iter().enumerate() {
            let layer_n = ds.layer_norm.transform_row(&layer.features());
            let (w_lat, w_en) = proxy_weights(Metric::Edp, &ds);
            let (v, g) = preds.predicted_edp_grad(p, &layer_n, w_lat, w_en);
            assert_eq!(values[i], v);
            assert_eq!(
                &grads[i * crate::HW_FEATURES..(i + 1) * crate::HW_FEATURES],
                &g[..]
            );
        }
    }
}
