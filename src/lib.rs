#![deny(missing_docs)]
//! Facade crate for the VAESA reproduction workspace.
//!
//! This crate re-exports the public API of every workspace member so that
//! examples, integration tests, and downstream users can depend on a single
//! crate:
//!
//! - [`linalg`] — dense linear algebra and statistics ([`vaesa_linalg`]).
//! - [`nn`] — tensors, reverse-mode autodiff, MLPs, optimizers ([`vaesa_nn`]).
//! - [`accel`] — the Simba-like accelerator design space and DNN workloads
//!   ([`vaesa_accel`]).
//! - [`timeloop`] — the analytical latency/energy cost model
//!   ([`vaesa_timeloop`]).
//! - [`cosa`] — the one-shot scheduler ([`vaesa_cosa`]).
//! - [`dse`] — random search, Gaussian-process Bayesian optimization,
//!   and gradient descent drivers ([`vaesa_dse`]).
//! - [`core`] — the VAESA model itself: VAE + performance predictors and the
//!   latent-space DSE flows ([`vaesa`]).
//! - [`serve`] — the DSE-as-a-service daemon: predict/decode/search over
//!   HTTP with a persistent cross-run evaluation cache ([`vaesa_serve`]).
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run: build a dataset from
//! the scheduler + cost model, train the VAE with predictor heads, and search
//! the latent space with Bayesian optimization.

pub use vaesa as core;
pub use vaesa_accel as accel;
pub use vaesa_cosa as cosa;
pub use vaesa_dse as dse;
pub use vaesa_linalg as linalg;
pub use vaesa_nn as nn;
pub use vaesa_serve as serve;
pub use vaesa_timeloop as timeloop;
