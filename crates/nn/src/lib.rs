#![deny(missing_docs)]
//! Tensors, reverse-mode automatic differentiation, MLP layers, and
//! optimizers — the neural-network substrate for the VAESA reproduction.
//!
//! The paper trains its VAE and performance predictors with PyTorch; this
//! crate provides the equivalent machinery from scratch:
//!
//! - [`Tensor`]: dense 2-D `f64` arrays (batch × features). Its matmul
//!   family, and the elementwise passes of a fused layer, run AVX2 or
//!   AVX-512 f64 kernels where the CPU has them, with the same bits as the
//!   scalar kernels (`vaesa_linalg::simd_level` picks the tier).
//! - [`Graph`]: a define-by-run autodiff tape with the operations the VAESA
//!   models need (matmul, a fused fully connected layer, broadcasting bias,
//!   leaky ReLU/sigmoid/tanh, exp, slicing/concatenation, MSE and
//!   Gaussian-KL losses). Its slots keep their buffers across
//!   [`Graph::reset`], so a tape reused by a training loop stops
//!   allocating after the first step.
//! - [`Linear`] / [`Mlp`]: fully connected networks with Kaiming-uniform
//!   initialization.
//! - [`Adam`]: the optimizer; it carries per-parameter moments in
//!   [`Param`].
//! - [`Batcher`], [`randn`], [`rand_uniform`]: minibatching and sampling
//!   helpers (seeded, deterministic).
//!
//! # Examples
//!
//! Train a tiny regressor on `y = 2x`:
//!
//! ```
//! use vaesa_nn::{Activation, Adam, Graph, Mlp, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut mlp = Mlp::new(&[1, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
//! let mut adam = Adam::new(0.01);
//! let xs = Tensor::from_rows(&[&[0.0], &[0.5], &[1.0]]);
//! let ys = xs.scale(2.0);
//! let mut last_loss = f64::INFINITY;
//! // One tape for the whole loop: `reset` keeps every buffer.
//! let mut g = Graph::new();
//! for _ in 0..1000 {
//!     g.reset();
//!     let x = g.constant(xs.clone());
//!     let t = g.constant(ys.clone());
//!     let pass = mlp.forward(&mut g, x);
//!     let loss = g.mse(pass.output, t);
//!     g.backward(loss);
//!     mlp.zero_grad();
//!     mlp.accumulate_grads(&g, &pass);
//!     mlp.adam_step(&mut adam);
//!     last_loss = g.value(loss).get(0, 0);
//! }
//! assert!(last_loss < 1e-3);
//! ```

mod data;
mod graph;
mod layers;
mod optim;
mod simd64;
mod tensor;

pub use data::{rand_uniform, randn, randn_into, Batcher};
pub use graph::{finite_diff_check, Graph, VarId};
pub use layers::{Activation, Linear, Mlp, MlpPass, Param};
pub use optim::Adam;
pub use tensor::Tensor;
