#![deny(missing_docs)]
//! Dense linear algebra and statistics substrate for the VAESA reproduction.
//!
//! This crate provides the small set of numerical kernels the rest of the
//! workspace relies on:
//!
//! - [`Matrix`]: a row-major dense `f64` matrix with the usual arithmetic,
//!   products, and views.
//! - [`Cholesky`]: a Cholesky factorization with jitter escalation, used by
//!   the Gaussian-process regression inside Bayesian optimization.
//! - [`triangular`]: blocked multi-right-hand-side triangular solves, the
//!   batched-inference substrate for GP prediction over candidate pools.
//! - [`stats`]: summary statistics (means, standard deviations, quantiles,
//!   correlations) used by the experiment harness and tests.
//!
//! Everything is pure Rust over `f64`; no BLAS/LAPACK bindings are used.
//!
//! # Examples
//!
//! ```
//! use vaesa_linalg::{Matrix, Cholesky};
//!
//! // Solve the SPD system A x = b.
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
//! let chol = Cholesky::new(&a).unwrap();
//! let x = chol.solve(&[2.0, 1.0]);
//! let ax = a.matvec(&x);
//! assert!((ax[0] - 2.0).abs() < 1e-12 && (ax[1] - 1.0).abs() < 1e-12);
//! ```

mod cholesky;
mod error;
mod matrix;
pub mod stats;
pub mod triangular;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;

/// Convenience result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
