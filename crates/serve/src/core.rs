//! The served model state: everything `vaesa-serve` builds once at startup
//! and then shares (immutably, except for the scheduler's interior caches)
//! across every connection handler and search worker.
//!
//! Startup mirrors the experiment pipeline: sample a labeled dataset
//! through the cached scheduler, train the VAE +
//! predictor heads, and fit a GP surrogate over encoded latent points so
//! `/predict` can report both the head's latency/energy estimates and the
//! GP's EDP posterior. Handlers construct the borrowing
//! [`HardwareEvaluator`] per call — it is a few pointers, while its
//! referents live in [`ServeCore`] for the daemon's lifetime.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vaesa::flows::{decode_to_configs, HardwareEvaluator};
use vaesa::{
    Dataset, DatasetBuilder, DseDriver, SpaceMode, TrainConfig, Trainer, VaesaConfig, VaesaModel,
};
use vaesa_accel::{workloads, ArchDescription, DesignSpace, LayerShape};
use vaesa_cosa::CachedScheduler;
use vaesa_dse::{engine_by_name, GpRegressor};
use vaesa_nn::Tensor;

use crate::jobs::{SearchSpec, SearchSummary};

/// Sizing knobs for the startup build. The defaults are sized for an
/// interactive daemon (seconds of startup); CI smoke runs shrink them
/// further via CLI flags.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Random design points in the training dataset (plus a 2-per-axis
    /// grid sweep, as in the experiment harness).
    pub n_configs: usize,
    /// VAE training epochs.
    pub epochs: usize,
    /// Latent dimensionality.
    pub latent_dim: usize,
    /// Number of workload layers served (prefix of the paper's training
    /// set; also the workload every search job optimizes).
    pub n_layers: usize,
    /// Seed for dataset sampling and training.
    pub seed: u64,
    /// Cap on GP training points (kernel solves are cubic).
    pub gp_cap: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            n_configs: 300,
            epochs: 30,
            latent_dim: 4,
            n_layers: 4,
            seed: 7,
            gp_cap: 256,
        }
    }
}

/// One `/predict` result row.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Prediction {
    /// Predictor-head latency estimate (cycles, reference layer units).
    pub latency: f64,
    /// Predictor-head energy estimate (pJ).
    pub energy: f64,
    /// Head latency × energy.
    pub edp: f64,
    /// GP posterior mean of ln(EDP) at the encoded latent point.
    pub gp_log_edp_mean: f64,
    /// GP posterior standard deviation of ln(EDP).
    pub gp_log_edp_std: f64,
}

/// One `/decode` result row: the snapped design plus its true workload EDP
/// under the served layers (when the schedule is feasible).
#[derive(Debug, Clone, serde::Serialize)]
pub struct Decoded {
    /// The concrete hardware design.
    pub arch: ArchDescription,
    /// True (scheduler + cost model) workload EDP, if feasible.
    pub edp: Option<f64>,
}

/// The shared daemon state. See the module docs.
#[derive(Debug)]
pub struct ServeCore {
    space: DesignSpace,
    scheduler: CachedScheduler,
    layers: Vec<LayerShape>,
    dataset: Dataset,
    model: VaesaModel,
    gp: GpRegressor,
    /// The reference layer for `/predict` and gradient-engine proxies.
    gd_layer: LayerShape,
    /// The reference layer's normalized features, for the predictor head.
    layer_row: Vec<f64>,
}

impl ServeCore {
    /// Builds the full served state: dataset → VAE training → GP fit.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero configs/layers) or
    /// the GP fit fails — both indicate an unusable daemon, so failing
    /// loudly at startup beats serving errors forever.
    pub fn build(config: &CoreConfig) -> Self {
        let span = vaesa_obs::global().span("serve/build");
        let space = DesignSpace::paper();
        let scheduler = CachedScheduler::default();
        let mut layers = workloads::training_layers();
        layers.truncate(config.n_layers.max(1));

        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let dataset = DatasetBuilder::new(&space, layers.clone())
            .random_configs(config.n_configs)
            .grid_per_axis(2)
            .build(&scheduler, &mut rng);

        let vaesa_config = VaesaConfig::paper().with_latent_dim(config.latent_dim);
        let mut model = VaesaModel::new(vaesa_config, &mut rng);
        let trainer = Trainer::new(TrainConfig {
            epochs: config.epochs,
            batch_size: 64,
            learning_rate: 1e-3,
        });
        trainer.train_vae(&mut model, &dataset, &mut rng);

        let gd_layer = layers[0].clone();
        let layer_row = dataset.layer_norm.transform_row(&gd_layer.features());

        let gp = fit_latent_gp(&model, &dataset, &gd_layer, config.gp_cap);
        span.finish();
        vaesa_obs::gauge("serve.core.dataset_len").set(dataset.len() as f64);
        vaesa_obs::gauge("serve.core.gp_points").set(gp.len() as f64);

        ServeCore {
            space,
            scheduler,
            layers,
            dataset,
            model,
            gp,
            gd_layer,
            layer_row,
        }
    }

    /// The VAE's latent dimensionality (row width for `/decode` and
    /// `/search` best points in latent mode).
    pub fn latent_dim(&self) -> usize {
        self.model.latent_dim()
    }

    /// The served workload layers.
    pub fn layers(&self) -> &[LayerShape] {
        &self.layers
    }

    /// The shared scheduler, for stats publication.
    pub fn scheduler(&self) -> &CachedScheduler {
        &self.scheduler
    }

    /// Batched `/predict`: raw Table-II hardware rows → head latency /
    /// energy (reference-layer units) + GP ln(EDP) posterior.
    ///
    /// # Panics
    ///
    /// Panics if any row is not six strictly positive values (the handler
    /// validates before submitting).
    pub fn predict(&self, hw_raw: Vec<Vec<f64>>) -> Vec<Prediction> {
        if hw_raw.is_empty() {
            return Vec::new();
        }
        let hw = self.dataset.hw_norm.transform_tensor(&hw_raw);
        let z = self.model.encode_mean(&hw);
        let layer_rows: Vec<&[f64]> = (0..z.rows()).map(|_| self.layer_row.as_slice()).collect();
        let layer = Tensor::from_rows(&layer_rows);
        let (lat_n, en_n) = self.model.predict(&z, &layer);

        let zs: Vec<Vec<f64>> = (0..z.rows()).map(|r| z.row(r).to_vec()).collect();
        let gp_out = self.gp.predict_batch(&zs);

        (0..z.rows())
            .map(|r| {
                let latency = self.dataset.latency_norm.inverse_row(&[lat_n.get(r, 0)])[0];
                let energy = self.dataset.energy_norm.inverse_row(&[en_n.get(r, 0)])[0];
                let (gp_mean, gp_std) = gp_out[r];
                Prediction {
                    latency,
                    energy,
                    edp: latency * energy,
                    gp_log_edp_mean: gp_mean,
                    gp_log_edp_std: gp_std,
                }
            })
            .collect()
    }

    /// Batched `/decode`: latent rows → snapped designs + true workload EDP.
    ///
    /// # Panics
    ///
    /// Panics if any row's width differs from [`ServeCore::latent_dim`]
    /// (the handler validates before submitting).
    pub fn decode(&self, zs: Vec<Vec<f64>>) -> Vec<Decoded> {
        if zs.is_empty() {
            return Vec::new();
        }
        let evaluator = HardwareEvaluator::new(&self.space, &self.scheduler, &self.layers);
        let configs = decode_to_configs(&self.model, &zs, &self.dataset.hw_norm, &evaluator);
        configs
            .into_iter()
            .map(|config| Decoded {
                edp: evaluator.edp_of_config(&config),
                arch: self.space.describe(&config),
            })
            .collect()
    }

    /// Validates a search spec at admission time so `/search` can reject
    /// bad requests with a 400 instead of failing the job later.
    pub fn validate_spec(&self, spec: &SearchSpec) -> Result<(), String> {
        if engine_by_name(&spec.engine).is_none() {
            return Err(format!(
                "unknown engine {:?} (expected random|bo|evo|sa|cd|gd)",
                spec.engine
            ));
        }
        match spec.mode.as_str() {
            "latent" => {}
            "direct" => {
                // Gradient engines need a differentiable proxy; the daemon
                // only configures the latent-space one.
                if spec.engine == "gd" {
                    return Err(
                        "engine \"gd\" requires mode \"latent\" (no input-space predictors are served)"
                            .to_string(),
                    );
                }
            }
            other => return Err(format!("unknown mode {other:?} (expected latent|direct)")),
        }
        if spec.budget == 0 {
            return Err("budget must be positive".to_string());
        }
        Ok(())
    }

    /// Runs one validated search job to completion and summarizes it.
    pub fn run_search(&self, spec: &SearchSpec) -> Result<SearchSummary, String> {
        self.validate_spec(spec)?;
        let engine = engine_by_name(&spec.engine).expect("validated above");
        let mode = match spec.mode.as_str() {
            "direct" => SpaceMode::Direct,
            _ => SpaceMode::Latent,
        };
        let evaluator = HardwareEvaluator::new(&self.space, &self.scheduler, &self.layers);
        let driver = DseDriver::new(&evaluator, &self.dataset)
            .with_model(&self.model)
            .with_gd_layer(&self.gd_layer);
        let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
        let trace = driver.run(engine.as_ref(), mode, spec.budget, &mut rng);

        let best_point = trace.best_point().map(<[f64]>::to_vec);
        let best_arch = best_point.as_deref().map(|point| {
            let config = match mode {
                SpaceMode::Latent => decode_to_configs(
                    &self.model,
                    &[point.to_vec()],
                    &self.dataset.hw_norm,
                    &evaluator,
                )
                .remove(0),
                SpaceMode::Direct => evaluator.snap(point, &self.dataset.hw_norm),
            };
            self.space.describe(&config)
        });
        Ok(SearchSummary {
            label: trace.label().to_string(),
            evals: trace.len() as u64,
            best_value: trace.best_value(),
            best_point,
            best_arch,
        })
    }
}

/// Fits the `/predict` GP: encoded latent means of up to `cap` unique
/// designs (reference layer only, so EDP is single-layer) against ln(EDP).
fn fit_latent_gp(
    model: &VaesaModel,
    dataset: &Dataset,
    reference: &LayerShape,
    cap: usize,
) -> GpRegressor {
    let ref_features = reference.features();
    let mut seen = std::collections::HashSet::new();
    let mut rows: Vec<&[f64]> = Vec::new();
    let mut ys = Vec::new();
    for (i, record) in dataset.records.iter().enumerate() {
        if record.layer_raw != ref_features {
            continue;
        }
        // One point per unique design: duplicate inputs make the kernel
        // matrix singular.
        if !seen.insert(record.config.indices()) {
            continue;
        }
        rows.push(dataset.hw.row(i));
        ys.push((record.latency * record.energy).ln());
        if rows.len() >= cap {
            break;
        }
    }
    assert!(
        rows.len() >= 2,
        "GP needs at least two unique reference-layer samples, got {}",
        rows.len()
    );
    let hw = Tensor::from_rows(&rows);
    let z = model.encode_mean(&hw);
    let xs: Vec<Vec<f64>> = (0..z.rows()).map(|r| z.row(r).to_vec()).collect();
    GpRegressor::fit(&xs, &ys).expect("latent GP fit on unique designs")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest build that still exercises every path; shared by the
    /// unit tests here and reused (via `test_config`) by the e2e test.
    pub fn test_config() -> CoreConfig {
        CoreConfig {
            n_configs: 24,
            epochs: 2,
            latent_dim: 3,
            n_layers: 2,
            seed: 11,
            gp_cap: 32,
        }
    }

    #[test]
    fn build_predict_decode_and_search_work_end_to_end() {
        let core = ServeCore::build(&test_config());
        assert_eq!(core.latent_dim(), 3);
        assert_eq!(core.layers().len(), 2);

        let preds = core.predict(vec![
            vec![64.0, 4.0, 128.0, 4096.0, 8192.0, 65536.0],
            vec![128.0, 2.0, 256.0, 2048.0, 4096.0, 131072.0],
        ]);
        assert_eq!(preds.len(), 2);
        for p in &preds {
            assert!(p.latency > 0.0 && p.energy > 0.0, "head outputs raw units");
            assert!(p.gp_log_edp_std >= 0.0);
            assert!(p.edp.is_finite());
        }

        let decoded = core.decode(vec![vec![0.0; 3], vec![0.25; 3]]);
        assert_eq!(decoded.len(), 2);
        assert!(decoded[0].arch.pe_count >= 1);

        let spec = SearchSpec {
            engine: "random".to_string(),
            mode: "latent".to_string(),
            budget: 6,
            seed: 3,
        };
        let summary = core.run_search(&spec).unwrap();
        assert_eq!(summary.label, "vae_random");
        assert_eq!(summary.evals, 6);
        assert!(summary.best_arch.is_some());

        // Identical specs reproduce identical results (seeded RNG).
        let again = core.run_search(&spec).unwrap();
        assert_eq!(summary.best_value, again.best_value);
    }

    #[test]
    fn invalid_specs_are_rejected_at_admission() {
        let core = ServeCore::build(&test_config());
        let base = SearchSpec {
            engine: "random".to_string(),
            mode: "latent".to_string(),
            budget: 4,
            seed: 0,
        };
        let bad_engine = SearchSpec {
            engine: "quantum".to_string(),
            ..base.clone()
        };
        assert!(core
            .validate_spec(&bad_engine)
            .unwrap_err()
            .contains("unknown engine"));
        let bad_mode = SearchSpec {
            mode: "sideways".to_string(),
            ..base.clone()
        };
        assert!(core
            .validate_spec(&bad_mode)
            .unwrap_err()
            .contains("unknown mode"));
        let gd_direct = SearchSpec {
            engine: "gd".to_string(),
            mode: "direct".to_string(),
            ..base.clone()
        };
        assert!(core
            .validate_spec(&gd_direct)
            .unwrap_err()
            .contains("latent"));
        let no_budget = SearchSpec { budget: 0, ..base };
        assert!(core
            .validate_spec(&no_budget)
            .unwrap_err()
            .contains("budget"));
    }
}
