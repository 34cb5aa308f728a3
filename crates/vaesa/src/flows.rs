//! The design-space-exploration flows of §III-C and §IV: `random`, `bo`,
//! `vae_bo`, `gd`, and `vae_gd`.
//!
//! All flows minimize workload EDP. The input-space flows search the
//! normalized 6-feature box `[0, 1]^6`; the latent flows search the VAE
//! latent box and decode candidates back through the decoder. Every decoded
//! or denormalized point is snapped to the nearest legal design (the
//! "reconstructible" property) before it is scheduled and scored.
//!
//! Every flow runs through [`DseDriver`](crate::driver::DseDriver): one
//! [`SearchEngine`](vaesa_dse::SearchEngine) in one
//! [`SpaceMode`](crate::driver::SpaceMode). This module holds what the
//! driver evaluates with — the [`HardwareEvaluator`], latent decoding and
//! the latent search box — plus the Figure 13 per-step measurement
//! [`vae_gd_edp_at_steps`].

use crate::{Dataset, Normalizer, VaesaModel};
use vaesa_accel::{ArchConfig, DesignSpace, LayerShape};
use vaesa_cosa::CachedScheduler;
use vaesa_dse::{BoxSpace, FnDifferentiable, GdConfig, GradientDescent};
use vaesa_nn::Tensor;

/// Which scalar the search minimizes (§IV-A2: the flow can optimize the
/// energy-delay product, or latency and energy separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// Energy-delay product, the paper's featured objective.
    #[default]
    Edp,
    /// Total workload latency in cycles.
    Latency,
    /// Total workload energy in pJ.
    Energy,
}

impl Metric {
    /// Extracts the metric from a workload evaluation.
    pub fn of(self, eval: &vaesa_cosa::WorkloadEval) -> f64 {
        match self {
            Metric::Edp => eval.edp(),
            Metric::Latency => eval.total_latency_cycles,
            Metric::Energy => eval.total_energy_pj,
        }
    }
}

/// Shared scoring backend: snaps candidate designs to the discrete space,
/// schedules the workload, and returns the chosen [`Metric`].
#[derive(Debug)]
pub struct HardwareEvaluator<'a> {
    space: &'a DesignSpace,
    scheduler: &'a CachedScheduler,
    layers: &'a [LayerShape],
    metric: Metric,
}

impl<'a> HardwareEvaluator<'a> {
    /// Creates an EDP-minimizing evaluator for a workload (a set of layers
    /// whose latency and energy are summed before forming EDP).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(
        space: &'a DesignSpace,
        scheduler: &'a CachedScheduler,
        layers: &'a [LayerShape],
    ) -> Self {
        Self::with_metric(space, scheduler, layers, Metric::Edp)
    }

    /// Creates an evaluator minimizing an explicit [`Metric`].
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn with_metric(
        space: &'a DesignSpace,
        scheduler: &'a CachedScheduler,
        layers: &'a [LayerShape],
        metric: Metric,
    ) -> Self {
        assert!(!layers.is_empty(), "workload needs at least one layer");
        HardwareEvaluator {
            space,
            scheduler,
            layers,
            metric,
        }
    }

    /// The design space being searched.
    pub fn space(&self) -> &DesignSpace {
        self.space
    }

    /// The metric being minimized.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Full workload evaluation of a design point, or `None` if any layer
    /// has no valid mapping.
    pub fn workload_eval(&self, config: &ArchConfig) -> Option<vaesa_cosa::WorkloadEval> {
        let arch = self.space.describe(config);
        self.scheduler.schedule_workload(&arch, self.layers).ok()
    }

    /// The selected metric of a concrete design point, or `None` if any
    /// layer has no valid mapping. Named `edp_of_config` because EDP is the
    /// default metric; with [`Metric::Latency`]/[`Metric::Energy`] it
    /// returns that quantity instead.
    pub fn edp_of_config(&self, config: &ArchConfig) -> Option<f64> {
        self.workload_eval(config).map(|w| self.metric.of(&w))
    }

    /// Snaps a normalized feature row to the nearest legal design point
    /// (in log space, matching the feature normalization).
    pub fn snap(&self, normalized_hw: &[f64], hw_norm: &Normalizer) -> ArchConfig {
        let logs = hw_norm.inverse_row_log(normalized_hw);
        let arr: [f64; 6] = logs.try_into().expect("6 hardware features");
        self.space.config_from_log_nearest(&arr)
    }

    /// Workload EDP of a normalized feature row (snap + schedule).
    pub fn edp_of_normalized(&self, normalized_hw: &[f64], hw_norm: &Normalizer) -> Option<f64> {
        self.edp_of_config(&self.snap(normalized_hw, hw_norm))
    }
}

/// Decodes a latent point to a legal design point through the decoder and
/// nearest-value snapping.
pub fn decode_to_config(
    model: &VaesaModel,
    z: &[f64],
    hw_norm: &Normalizer,
    evaluator: &HardwareEvaluator<'_>,
) -> ArchConfig {
    vaesa_obs::counter("dse.decodes").incr();
    let decoded = model.decode(&Tensor::row_vector(z));
    evaluator.snap(decoded.row(0), hw_norm)
}

/// Decodes a batch of latent points to legal design points through one
/// decoder forward pass.
///
/// The decoder graph is row-independent, so entry `r` is identical to
/// [`decode_to_config`] on `zs[r]` alone.
pub fn decode_to_configs(
    model: &VaesaModel,
    zs: &[Vec<f64>],
    hw_norm: &Normalizer,
    evaluator: &HardwareEvaluator<'_>,
) -> Vec<ArchConfig> {
    if zs.is_empty() {
        return Vec::new();
    }
    vaesa_obs::counter("dse.decodes").add(zs.len() as u64);
    let refs: Vec<&[f64]> = zs.iter().map(Vec::as_slice).collect();
    let decoded = model.decode(&Tensor::from_rows(&refs));
    (0..zs.len())
        .map(|r| evaluator.snap(decoded.row(r), hw_norm))
        .collect()
}

/// Fallback half-width of the latent search box when no dataset is
/// available. The KL-regularized latent space concentrates near the origin;
/// ±3 standard deviations of the prior covers effectively all of it.
pub const LATENT_HALF_WIDTH: f64 = 3.0;

/// Dataset rows [`latent_box`] encodes per pass.
const ENCODE_BLOCK_ROWS: usize = 256;

/// The latent search box: the axis-aligned bounding box of the encoded
/// training data, widened by 25% per side (at least ±0.5).
///
/// Searching where the training data actually landed matters because the
/// decoder is only trained (and therefore only reconstructible) on that
/// region; a fixed prior-based box can clip it or waste budget outside it.
pub fn latent_box(model: &VaesaModel, dataset: &Dataset) -> BoxSpace {
    let dz = model.latent_dim();
    let mut lo = vec![f64::INFINITY; dz];
    let mut hi = vec![f64::NEG_INFINITY; dz];
    // Encode in row blocks: every row encodes independently, so the box is
    // the one a whole-dataset pass gives, while the encoder's intermediates
    // stay tens of KB instead of several MB per concurrent search.
    let cols = dataset.hw.cols();
    for block in dataset.hw.as_slice().chunks(ENCODE_BLOCK_ROWS * cols) {
        let z = model.encode_mean(&Tensor::from_vec(block.len() / cols, cols, block.to_vec()));
        for r in 0..z.rows() {
            for d in 0..dz {
                lo[d] = lo[d].min(z.get(r, d));
                hi[d] = hi[d].max(z.get(r, d));
            }
        }
    }
    for d in 0..dz {
        if !lo[d].is_finite() || !hi[d].is_finite() {
            lo[d] = -LATENT_HALF_WIDTH;
            hi[d] = LATENT_HALF_WIDTH;
        }
        let margin = (0.25 * (hi[d] - lo[d])).max(0.5);
        lo[d] -= margin;
        hi[d] += margin;
    }
    BoxSpace::new(lo, hi)
}

/// Scores a batch of normalized candidate rows through the evaluator in
/// parallel (snap + schedule per candidate), preserving input order.
///
/// The scheduler queries dominate DSE wall-clock; batch flows hand their
/// candidate sets here so the snap/schedule/score pipeline fans out across
/// the [`vaesa_par`] pool. Output slot `i` always belongs to candidate `i`,
/// so callers can zip scores back onto candidates for any thread count.
pub fn score_batch(
    evaluator: &HardwareEvaluator<'_>,
    hw_norm: &Normalizer,
    candidates: &[Vec<f64>],
) -> Vec<Option<f64>> {
    vaesa_par::par_map(candidates, |x| evaluator.edp_of_normalized(x, hw_norm))
}

/// Decoded-design EDP after a fixed number of GD steps from a given start
/// (the Figure 13 measurement): returns `(edp_at_each_requested_step)`.
pub fn vae_gd_edp_at_steps(
    evaluator: &HardwareEvaluator<'_>,
    model: &VaesaModel,
    dataset: &Dataset,
    layer: &LayerShape,
    start: &[f64],
    step_counts: &[usize],
    gd: GdConfig,
) -> Vec<Option<f64>> {
    let layer_n = dataset.layer_norm.transform_row(&layer.features());
    let (w_lat, w_en) = proxy_weights(evaluator.metric(), dataset);
    let max_steps = step_counts.iter().copied().max().unwrap_or(0);
    let config = GdConfig {
        steps: max_steps,
        ..gd
    };
    let space = latent_box(model, dataset);
    let driver = GradientDescent::new(space, config);
    let mut objective = FnDifferentiable::new(model.latent_dim(), |z: &[f64]| {
        model.predicted_edp_grad(z, &layer_n, w_lat, w_en)
    });
    let path = driver.run(&mut objective, start);
    step_counts
        .iter()
        .map(|&s| {
            let z = &path.at_step(s).expect("step recorded").x;
            let config = decode_to_config(model, z, &dataset.hw_norm, evaluator);
            evaluator.edp_of_config(&config)
        })
        .collect()
}

/// Log-range weights turning normalized predictor outputs into a quantity
/// monotone in the chosen metric: ln EDP = ln latency + ln energy, so EDP
/// weights both heads by their log ranges; latency/energy-only metrics zero
/// out the other head.
pub(crate) fn proxy_weights(metric: Metric, dataset: &Dataset) -> (f64, f64) {
    let w_lat = dataset.latency_norm.log_range()[0];
    let w_en = dataset.energy_norm.log_range()[0];
    match metric {
        Metric::Edp => (w_lat, w_en),
        Metric::Latency => (w_lat, 0.0),
        Metric::Energy => (0.0, w_en),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Fixture;
    use crate::{DseDriver, SpaceMode};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vaesa_accel::ArchParam;
    use vaesa_dse::{BoEngine, CdEngine, GdEngine, RandomEngine};

    #[test]
    fn evaluator_scores_configs_and_normalized_rows() {
        let f = Fixture::new();
        let ev = f.evaluator();
        let ds = f.dataset();
        let config = ds.records[0].config;
        let direct = ev.edp_of_config(&config).unwrap();
        assert!(direct > 0.0);
        // Round-tripping the exact normalized features recovers the config.
        let normalized = ds.hw_norm.transform_row(&ds.records[0].hw_raw);
        let snapped = ev.snap(&normalized, &ds.hw_norm);
        assert_eq!(snapped, config);
        assert_eq!(ev.edp_of_normalized(&normalized, &ds.hw_norm), Some(direct));
    }

    #[test]
    fn batched_decode_matches_single_decode() {
        let f = Fixture::new();
        let ds = f.dataset();
        let model = f.trained_model(&ds);
        let ev = f.evaluator();
        let mut rng = ChaCha8Rng::seed_from_u64(63);
        let space = latent_box(&model, &ds);
        let zs: Vec<Vec<f64>> = (0..9).map(|_| space.sample(&mut rng)).collect();
        let batched = decode_to_configs(&model, &zs, &ds.hw_norm, &ev);
        for (z, b) in zs.iter().zip(&batched) {
            assert_eq!(*b, decode_to_config(&model, z, &ds.hw_norm, &ev));
        }
        assert!(decode_to_configs(&model, &[], &ds.hw_norm, &ev).is_empty());
    }

    #[test]
    fn score_batch_preserves_candidate_order() {
        let f = Fixture::new();
        let ev = f.evaluator();
        let ds = f.dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(62);
        let space = BoxSpace::unit(crate::HW_FEATURES);
        let candidates: Vec<Vec<f64>> = (0..12).map(|_| space.sample(&mut rng)).collect();
        let batch = score_batch(&ev, &ds.hw_norm, &candidates);
        for (x, v) in candidates.iter().zip(&batch) {
            assert_eq!(*v, ev.edp_of_normalized(x, &ds.hw_norm));
        }
    }

    #[test]
    fn vae_bo_finds_competitive_designs() {
        let f = Fixture::new();
        let ev = f.evaluator();
        let ds = f.dataset();
        let model = f.trained_model(&ds);
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let trace = DseDriver::new(&ev, &ds).with_model(&model).run(
            &BoEngine::default(),
            SpaceMode::Latent,
            30,
            &mut rng,
        );
        assert_eq!(trace.label(), "vae_bo");
        assert_eq!(trace.len(), 30);
        let best = trace.best_value().expect("found valid designs");
        // The latent search should land within 100x of the best training
        // EDP (a loose sanity bound; the experiment pipelines measure the
        // real comparison).
        let train_best = ds.records[ds.best_index()].edp();
        assert!(
            best < train_best * 100.0,
            "best {best:.3e} vs {train_best:.3e}"
        );
    }

    #[test]
    fn vae_gd_improves_over_its_own_starts() {
        let f = Fixture::new();
        let ds = f.dataset();
        let model = f.trained_model(&ds);
        let layer = f.layers[0].clone();
        let single = vec![layer.clone()];
        let ev_single = HardwareEvaluator::new(&f.space, &f.scheduler, &single);

        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let gd_cfg = GdConfig {
            steps: 50,
            ..GdConfig::default()
        };
        let trace = DseDriver::new(&ev_single, &ds)
            .with_model(&model)
            .with_gd_layer(&layer)
            .run(&GdEngine { config: gd_cfg }, SpaceMode::Latent, 5, &mut rng);
        assert_eq!(trace.label(), "vae_gd");
        assert_eq!(trace.len(), 5);
        assert!(trace.best_value().is_some());

        // Figure 13 protocol: EDP after steps 0 and 50 from the same start.
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        let space = latent_box(&model, &ds);
        let mut improved = 0;
        let mut comparisons = 0;
        for _ in 0..5 {
            let start = space.sample(&mut rng);
            let edps =
                vae_gd_edp_at_steps(&ev_single, &model, &ds, &layer, &start, &[0, 50], gd_cfg);
            if let (Some(e0), Some(e1)) = (edps[0], edps[1]) {
                comparisons += 1;
                if e1 <= e0 {
                    improved += 1;
                }
            }
        }
        assert!(comparisons >= 3, "too few valid start/end pairs");
        assert!(
            improved * 2 >= comparisons,
            "GD improved only {improved}/{comparisons} starts"
        );
    }

    #[test]
    fn metric_selects_the_optimized_quantity() {
        let f = Fixture::new();
        let ds = f.dataset();
        let config = ds.records[0].config;
        let edp_ev = HardwareEvaluator::with_metric(&f.space, &f.scheduler, &f.layers, Metric::Edp);
        let lat_ev =
            HardwareEvaluator::with_metric(&f.space, &f.scheduler, &f.layers, Metric::Latency);
        let en_ev =
            HardwareEvaluator::with_metric(&f.space, &f.scheduler, &f.layers, Metric::Energy);
        let w = edp_ev.workload_eval(&config).expect("valid");
        assert_eq!(edp_ev.edp_of_config(&config), Some(w.edp()));
        assert_eq!(lat_ev.edp_of_config(&config), Some(w.total_latency_cycles));
        assert_eq!(en_ev.edp_of_config(&config), Some(w.total_energy_pj));
        // EDP = latency * energy, and the parts are smaller than the product
        // for any realistically sized workload.
        assert!(w.edp() > w.total_latency_cycles);
        assert!(w.edp() > w.total_energy_pj);
    }

    #[test]
    fn latency_metric_changes_the_search_target() {
        // Optimizing latency alone must never find a *lower-latency* design
        // than optimizing it directly... i.e. the latency-metric search's
        // best latency <= the EDP-metric search's best latency (same seed).
        let f = Fixture::new();
        let ds = f.dataset();
        let lat_ev =
            HardwareEvaluator::with_metric(&f.space, &f.scheduler, &f.layers, Metric::Latency);
        let edp_ev = HardwareEvaluator::new(&f.space, &f.scheduler, &f.layers);
        let mut r1 = ChaCha8Rng::seed_from_u64(33);
        let lat_trace =
            DseDriver::new(&lat_ev, &ds).run(&RandomEngine, SpaceMode::Direct, 30, &mut r1);
        let mut r2 = ChaCha8Rng::seed_from_u64(33);
        let edp_trace =
            DseDriver::new(&edp_ev, &ds).run(&RandomEngine, SpaceMode::Direct, 30, &mut r2);
        // Same seed, same sampled designs: the latency trace's best value is
        // the min latency over those designs, which lower-bounds the latency
        // of the EDP trace's best design.
        let best_lat = lat_trace.best_value().expect("valid");
        let edp_best_point = edp_trace.best_point().expect("point");
        let cfg = edp_ev.snap(edp_best_point, &ds.hw_norm);
        let edp_best_latency = edp_ev
            .workload_eval(&cfg)
            .expect("valid")
            .total_latency_cycles;
        assert!(best_lat <= edp_best_latency + 1e-9);
    }

    #[test]
    fn coordinate_descent_improves_and_respects_budget() {
        let f = Fixture::new();
        let ev = f.evaluator();
        let ds = f.dataset();
        let mut rng = ChaCha8Rng::seed_from_u64(49);
        let trace =
            DseDriver::new(&ev, &ds).run(&CdEngine::default(), SpaceMode::Direct, 60, &mut rng);
        assert_eq!(trace.label(), "cd");
        assert_eq!(trace.len(), 60);
        let best = trace.best_value().expect("found valid designs");
        // Better than its own first valid sample (descent did something).
        let first = trace
            .samples()
            .iter()
            .find_map(|s| s.value)
            .expect("some valid start");
        assert!(best <= first);
    }

    #[test]
    fn decode_always_yields_legal_configs() {
        let f = Fixture::new();
        let ds = f.dataset();
        let model = f.trained_model(&ds);
        let mut rng = ChaCha8Rng::seed_from_u64(28);
        let space = latent_box(&model, &ds);
        let ev = f.evaluator();
        for _ in 0..20 {
            let z = space.sample(&mut rng);
            let config = decode_to_config(&model, &z, &ds.hw_norm, &ev);
            // Index validity is enforced by construction; describe() must work.
            let arch = f.space.describe(&config);
            assert!(arch.pe_count >= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Snap must return a design inside the space for *any* normalized
        /// row — including rows far outside `[0, 1]^6`, which search
        /// engines and the decoder can both produce.
        #[test]
        fn snap_always_lands_inside_the_design_space(
            row in proptest::collection::vec(-4.0f64..5.0, 6usize)
        ) {
            let space = DesignSpace::coarse(4);
            let scheduler = CachedScheduler::default();
            let layers = vec![vaesa_accel::workloads::alexnet()[2].clone()];
            let ev = HardwareEvaluator::new(&space, &scheduler, &layers);
            // A normalizer with a feature-like spread (values spanning
            // orders of magnitude); fitting it per case is cheap.
            let hw_norm = Normalizer::fit(&[
                vec![4.0, 16.0, 1024.0, 65536.0, 2.0, 8.0],
                vec![1024.0, 4096.0, 1_048_576.0, 33_554_432.0, 64.0, 512.0],
            ]);
            let config = ev.snap(&row, &hw_norm);
            let indices = config.indices();
            for (axis, &param) in ArchParam::ALL.iter().enumerate() {
                prop_assert!(
                    indices[axis] < space.num_values(param),
                    "axis {} index {} out of range",
                    axis,
                    indices[axis]
                );
            }
            // The snapped design is fully describable (all derived fields).
            let arch = space.describe(&config);
            prop_assert!(arch.pe_count >= 1);
        }
    }
}
