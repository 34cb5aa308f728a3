#![deny(missing_docs)]
//! Dense `f64` kernels and statistics for the VAESA reproduction.
//!
//! This crate holds what the Gaussian-process regression inside Bayesian
//! optimization needs, plus the workspace's one SIMD tier detection:
//!
//! - [`Cholesky`]: the factorization of a dense symmetric matrix, with
//!   jitter escalation, written straight into a packed lower triangle.
//! - [`triangular`]: the blocked multi-right-hand-side forward substitution
//!   over that packed triangle, the batched-inference substrate for GP
//!   prediction over candidate pools.
//! - [`simd_level`] and [`cpu_features`]: the SIMD tier every vector kernel
//!   dispatches on (the solves here and the `vaesa-nn` products), detected
//!   once per process.
//! - [`stats`]: summary statistics (means, standard deviations, quantiles,
//!   correlations) used by the experiment harness and tests.
//!
//! Everything is pure Rust over `f64`; no BLAS/LAPACK bindings are used.
//!
//! # Examples
//!
//! ```
//! use vaesa_linalg::{triangular, Cholesky};
//!
//! // Factor A = L Lᵀ, then solve L y = b for two right-hand sides at once
//! // (the columns of the row-major 2 x 2 matrix `b`).
//! let l = Cholesky::new(&[4.0, 2.0, 2.0, 5.0], 2)?.into_factor();
//! assert_eq!(l, [2.0, 1.0, 2.0]);
//! let mut b = [2.0, 4.0, 3.0, 6.0];
//! triangular::solve_lower_multi(&l, 2, &mut b, 2);
//! assert_eq!(b, [1.0, 2.0, 1.0, 2.0]);
//! # Ok::<(), vaesa_linalg::LinalgError>(())
//! ```

mod cholesky;
mod error;
mod simd;
pub mod stats;
pub mod triangular;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use simd::{cpu_features, simd_level, SimdLevel};

/// Result alias for the fallible operations of this crate.
type Result<T> = std::result::Result<T, LinalgError>;
