#![deny(missing_docs)]
//! VAESA: a variational-autoencoder-based design-space-exploration
//! framework for DNN accelerators — the core contribution of
//! *"Learning A Continuous and Reconstructible Latent Space for Hardware
//! Accelerator Design"* (ISPASS 2022), reimplemented in Rust.
//!
//! The pipeline (Figure 3 of the paper):
//!
//! 1. [`DatasetBuilder`] samples the discrete design space, labels each
//!    `(architecture, layer)` pair through the CoSA-style scheduler and the
//!    Timeloop-style cost model, and normalizes everything with
//!    [`Normalizer`] (log + min–max, §IV-A4).
//! 2. [`VaesaModel`] — a symmetric MLP VAE over the 6 hardware features with
//!    latency/energy predictor heads conditioned on `(z, layer)` — trains
//!    end to end via [`Trainer`] with the joint loss
//!    `L = L_recon + α·L_kld + L_lat + L_en` (Eqs. 1–2).
//! 3. The [`driver`] module runs design-space exploration: a single
//!    [`DseDriver`] evaluates any [`SearchEngine`](vaesa_dse::SearchEngine)
//!    (`random`, `bo`, `evo`, `sa`, `cd`, `gd`) in either the normalized
//!    input space or the VAE latent box ([`SpaceMode`]). Every candidate is
//!    decoded/snapped back to a *legal* hardware configuration before
//!    scoring — the "reconstructible" property in the paper's title. A
//!    paper flow is an engine plus a mode: `vae_bo` is
//!    [`BoEngine`](vaesa_dse::BoEngine) in [`SpaceMode::Latent`]. The
//!    [`flows`] module holds the evaluator and the latent decoding the
//!    driver scores with.
//! 4. [`interpolate`] probes latent-space smoothness between the worst and
//!    best designs (Figures 7–8).
//!
//! # Examples
//!
//! ```no_run
//! use rand::SeedableRng;
//! use vaesa::{DatasetBuilder, DseDriver, SpaceMode, Trainer, VaesaConfig, VaesaModel};
//! use vaesa::flows::HardwareEvaluator;
//! use vaesa_accel::{workloads, DesignSpace};
//! use vaesa_cosa::CachedScheduler;
//! use vaesa_dse::BoEngine;
//!
//! let space = DesignSpace::paper();
//! let scheduler = CachedScheduler::default();
//! let layers = workloads::alexnet();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//!
//! // 1. Dataset.
//! let dataset = DatasetBuilder::new(&space, layers.clone())
//!     .random_configs(500)
//!     .build(&scheduler, &mut rng);
//! // 2. Train.
//! let mut model = VaesaModel::new(VaesaConfig::paper(), &mut rng);
//! Trainer::default().train_vae(&mut model, &dataset, &mut rng);
//! // 3. Search the latent space.
//! let evaluator = HardwareEvaluator::new(&space, &scheduler, &layers);
//! let trace = DseDriver::new(&evaluator, &dataset)
//!     .with_model(&model)
//!     .run(&BoEngine::default(), SpaceMode::Latent, 200, &mut rng);
//! println!("best EDP: {:?}", trace.best_value());
//! ```

mod dataset;
pub mod driver;
pub mod flows;
pub mod interpolate;
mod model;
mod normalize;
pub mod pareto;
mod persist;
pub mod report;
#[cfg(test)]
pub(crate) mod testutil;
mod trainer;

pub use dataset::{Dataset, DatasetBuilder, Record};
pub use driver::{BatchEdpObjective, DseDriver, SpaceMode};
pub use model::{EdpGradBatch, TrainStep, VaesaConfig, VaesaModel, HW_FEATURES, LAYER_FEATURES};
pub use normalize::Normalizer;
pub use persist::{CheckpointNormalizers, ModelCheckpoint, PersistError};
pub use trainer::{Convergence, EpochStats, History, InputPredictors, TrainConfig, Trainer};
