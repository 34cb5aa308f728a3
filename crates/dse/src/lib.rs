#![deny(missing_docs)]
//! Search algorithms for hardware design-space exploration: random search,
//! Gaussian-process Bayesian optimization, and a gradient-descent driver.
//!
//! These are the search strategies the VAESA paper runs both on the original
//! design space (`bo`, `random`, `gd` baselines) and on the learned latent
//! space (`vae_bo`, `vae_gd`):
//!
//! - [`BoxSpace`]: the continuous search domain.
//! - [`Objective`] / [`DifferentiableObjective`]: black-box and
//!   gradient-capable objectives (invalid design points return `None` and
//!   consume budget).
//! - [`RandomSearch`]: the `random` baseline.
//! - [`GpRegressor`] + [`BayesOpt`]: Matérn-5/2 Gaussian process with
//!   incremental Cholesky updates and an expected-improvement acquisition.
//! - [`EvolutionarySearch`]: a tournament-selection genetic baseline (the
//!   Table I "NAAS: Evolutionary" class), usable on either space.
//! - [`SimulatedAnnealing`]: the traditional hardware-DSE workhorse, as a
//!   third black-box engine.
//! - [`GradientDescent`]: projected momentum descent for predictor-based
//!   search.
//! - [`SearchEngine`] + [`SearchObjective`]: the unified engine layer —
//!   every optimizer above behind one `run(space, objective, budget, rng)`
//!   trait with exact budget accounting ([`RandomEngine`], [`BoEngine`],
//!   [`EvoEngine`], [`SaEngine`], [`CdEngine`], [`GdEngine`]).
//! - [`Trace`] / [`SearchOutcome`]: per-sample logs and run summaries with
//!   the paper's metrics (best EDP, samples-to-within-3%).
//!
//! # Examples
//!
//! ```
//! use vaesa_dse::{BayesOpt, BoxSpace, FnObjective};
//! use rand::SeedableRng;
//!
//! // Minimize a bumpy 2-D function with 40 samples of BO.
//! let space = BoxSpace::symmetric(2, 2.0);
//! let mut objective = FnObjective::new(2, |x: &[f64]| {
//!     Some(x[0].powi(2) + x[1].powi(2) + (3.0 * x[0]).sin() * 0.2)
//! });
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let trace = BayesOpt::new(space).run(&mut objective, 40, &mut rng);
//! assert!(trace.best_value().unwrap() < 0.5);
//! ```

mod annealing;
mod bayesopt;
mod engine;
mod evolutionary;
mod gp;
mod gradient;
pub mod normal;
mod objective;
mod random;
mod space;
mod trace;

pub use annealing::{AnnealingConfig, SimulatedAnnealing};
pub use bayesopt::{expected_improvement, expected_improvement_batch, BayesOpt, BayesOptConfig};
pub use engine::{
    engine_by_name, BoEngine, CdConfig, CdEngine, EvoEngine, GdEngine, RandomEngine, SaEngine,
    SearchEngine, SearchObjective, SearchOutcome,
};
pub use evolutionary::{EvolutionConfig, EvolutionarySearch};
pub use gp::GpRegressor;
pub use gradient::{GdConfig, GdPath, GdStep, GradientDescent};
pub use objective::{
    BatchDifferentiableObjective, DifferentiableObjective, FnBatchDifferentiable, FnDifferentiable,
    FnObjective, Objective,
};
pub use random::{perturb, RandomSearch};
pub use space::BoxSpace;
pub use trace::{record_trace, Sample, Trace};
