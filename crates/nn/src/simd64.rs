//! `f64` kernels behind the [`Tensor`](crate::Tensor) products
//! ([`matmul`](crate::Tensor::matmul),
//! [`matmul_transpose_a`](crate::Tensor::matmul_transpose_a),
//! [`matmul_transpose_b`](crate::Tensor::matmul_transpose_b)) and the
//! elementwise epilogues of a fused layer.
//!
//! Each kernel has a scalar body plus AVX2 and AVX-512F bodies generated
//! from one template; the tier is the one `vaesa_linalg::simd_level`
//! detects once per process for every dense `f64` kernel, with the scalar
//! bodies as the fallback. The SIMD bodies vectorize across output columns
//! and give every output element exactly the operations of the scalar
//! body, in the same order, each rounded separately — never FMA. Every
//! tier therefore produces the same IEEE-754 bits on every machine
//! (DESIGN.md §3.2, "Numerics"). Per output element:
//!
//! - `matmul`: starting from `0.0`, one add per panel of [`PANEL`]
//!   consecutive inner-dimension rows, panels in increasing `k`, of the
//!   panel sum `((a₀b₀ + a₁b₁) + a₂b₂) + a₃b₃`. A short last panel is
//!   padded with zero rows, whose `0.0 · 0.0` terms add `+0.0`.
//! - `matmul_transpose_a`: starting from `0.0`, `+= a[r][i] · b[r][j]` for
//!   `r` in increasing order.
//! - `matmul_transpose_b`: four lanes, lane `t` summing from `0.0` the
//!   products at `k ≡ t (mod 4)` over the whole chunks of four in increasing
//!   `k`, a tail summing the leftover `k` from `0.0` in increasing order, and
//!   the result `((l₀ + l₁) + (l₂ + l₃)) + tail`.
//! - `bias_act`: `act(v + b)`. Leaky ReLU is `x > 0 ? x : slope · x`, a
//!   compare and a blend; sigmoid and tanh make one libm call per element.
//! - `local_grad`: `g · act'(y)` from the layer's output `y`, with
//!   `act'` of [`crate::tensor`]: `y > 0 ? 1 : slope`, `y · (1 − y)`,
//!   `1 − y · y`, or `1` for the identity.
//! - `sum_rows`: starting from `0.0`, `+= x[r][j]` for `r` in increasing
//!   order.
//!
//! Parallelism splits only output rows, in row blocks fixed by shape, so
//! the bits are also independent of the thread count.

use crate::layers::LEAKY_SLOPE;
use crate::tensor::{leaky_relu, leaky_slope_of_output, run_rowblocks, sigmoid};
use crate::tensor::{sigmoid_slope, tanh_slope};
use crate::Activation;
use std::cell::RefCell;
use vaesa_linalg::simd_level;

/// Inner-dimension panel width of the `matmul` accumulation.
const PANEL: usize = 4;

/// SIMD tile shape of `matmul` and `matmul_transpose_a`: 4 output rows × 2
/// vectors, eight accumulators in flight.
#[cfg(target_arch = "x86_64")]
const ROWS: usize = 4;
#[cfg(target_arch = "x86_64")]
const COLS: usize = 2;
/// Vectors of column sums in flight in `sum_rows`.
#[cfg(target_arch = "x86_64")]
const SUM_COLS: usize = 4;

/// One product over row-major buffers, `(a, b, d0, d1, d2, out)`:
/// `(A, B, m, inner, n)` for `matmul` (`A` is `m x inner`, `B` is
/// `inner x n`); `(A, B, r, p, n)` for `matmul_transpose_a` (`A` is `r x p`,
/// `B` is `r x n`); `(A, B, m, inner, n)` for `matmul_transpose_b` (`A` is
/// `m x inner`, `B` is `n x inner`). `out` receives the result rows; its
/// prior contents are never read.
pub(crate) type Product = unsafe fn(&[f64], &[f64], usize, usize, usize, &mut [f64]);

/// `(out, bias, act)`: every row of `out` (rows as wide as the non-empty
/// `bias`) becomes `act(row + bias)`.
pub(crate) type BiasAct = unsafe fn(&mut [f64], &[f64], Activation);

/// `(out, g, y, act)`: `out = g · act'(y)` elementwise, `act'` taken from
/// the activation's output `y`; the three slices have one length.
pub(crate) type LocalGrad = unsafe fn(&mut [f64], &[f64], &[f64], Activation);

/// `(x, out)`: the column sums of the rows of `x` (rows as wide as the
/// non-empty `out`) into `out`, whose prior contents are never read.
pub(crate) type SumRows = unsafe fn(&[f64], &mut [f64]);

/// The kernels of one SIMD tier.
pub(crate) struct Tier {
    pub matmul: Product,
    pub matmul_ta: Product,
    pub matmul_tb: Product,
    pub bias_act: BiasAct,
    pub local_grad: LocalGrad,
    pub sum_rows: SumRows,
}

thread_local! {
    /// The SIMD `matmul_transpose_b` bodies' copy of `Bᵀ`, kept per thread
    /// so a training step's backward products allocate nothing.
    static TRANSPOSED: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The tier [`simd_level`] selects for this process.
pub(crate) fn tier() -> &'static Tier {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        vaesa_linalg::SimdLevel::Avx512 => &avx512::TIER,
        #[cfg(target_arch = "x86_64")]
        vaesa_linalg::SimdLevel::Avx2 => &avx2::TIER,
        _ => &SCALAR,
    }
}

/// The portable bodies; every SIMD body reproduces their bits.
pub(crate) const SCALAR: Tier = Tier {
    matmul: matmul_scalar,
    matmul_ta: matmul_ta_scalar,
    matmul_tb: matmul_tb_scalar,
    bias_act: bias_act_scalar,
    local_grad: local_grad_scalar,
    sum_rows: sum_rows_scalar,
};

/// `unsafe` only to share the [`Product`] signature; always safe to call.
unsafe fn matmul_scalar(a: &[f64], b: &[f64], m: usize, inner: usize, n: usize, out: &mut [f64]) {
    run_rowblocks(out, n, m * n * inner, |first_row, chunk| {
        for (r, out_row) in chunk.chunks_mut(n).enumerate() {
            let a_row = &a[(first_row + r) * inner..][..inner];
            matmul_row(a_row, b, out_row);
        }
    });
}

/// One output row of `A · B`: `out_row += a_row · B` with `B` row-major
/// `inner x n`. Panels of [`PANEL`] rows of `B` in increasing `k`; each adds
/// `((a₀b₀ + a₁b₁) + a₂b₂) + a₃b₃` to the element as separate multiplies and
/// adds, the padding rows of a short last panel contributing `0.0 · 0.0`.
fn matmul_row(a_row: &[f64], b: &[f64], out_row: &mut [f64]) {
    let (inner, n) = (a_row.len(), out_row.len());
    out_row.fill(0.0);
    let mut k0 = 0;
    while k0 + PANEL <= inner {
        let (a0, a1, a2, a3) = (a_row[k0], a_row[k0 + 1], a_row[k0 + 2], a_row[k0 + 3]);
        let b0 = &b[k0 * n..][..n];
        let b1 = &b[(k0 + 1) * n..][..n];
        let b2 = &b[(k0 + 2) * n..][..n];
        let b3 = &b[(k0 + 3) * n..][..n];
        for j in 0..n {
            out_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
        }
        k0 += PANEL;
    }
    if k0 < inner {
        let a_at = |t: usize| if k0 + t < inner { a_row[k0 + t] } else { 0.0 };
        let b_at = |t: usize, j: usize| {
            if k0 + t < inner {
                b[(k0 + t) * n + j]
            } else {
                0.0
            }
        };
        let (a0, a1, a2, a3) = (a_at(0), a_at(1), a_at(2), a_at(3));
        for (j, o) in out_row.iter_mut().enumerate() {
            *o += a0 * b_at(0, j) + a1 * b_at(1, j) + a2 * b_at(2, j) + a3 * b_at(3, j);
        }
    }
}

/// `unsafe` only to share the [`Product`] signature; always safe to call.
unsafe fn matmul_ta_scalar(
    a: &[f64],
    b: &[f64],
    r_dim: usize,
    p: usize,
    n: usize,
    out: &mut [f64],
) {
    run_rowblocks(out, n, p * n * r_dim, |first_row, chunk| {
        for (i, out_row) in chunk.chunks_mut(n).enumerate() {
            out_row.fill(0.0);
            for r in 0..r_dim {
                let coeff = a[r * p + first_row + i];
                let b_row = &b[r * n..(r + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += coeff * bv;
                }
            }
        }
    });
}

/// `unsafe` only to share the [`Product`] signature; always safe to call.
unsafe fn matmul_tb_scalar(
    a: &[f64],
    b: &[f64],
    m: usize,
    inner: usize,
    n: usize,
    out: &mut [f64],
) {
    run_rowblocks(out, n, m * n * inner, |first_row, chunk| {
        for (i, out_row) in chunk.chunks_mut(n).enumerate() {
            let a_row = &a[(first_row + i) * inner..][..inner];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b[j * inner..(j + 1) * inner];
                // Four independent lanes break the serial add chain; their
                // layout, and so the final value, depends on `inner` only.
                let mut acc = [0.0f64; 4];
                let a4 = a_row.chunks_exact(4);
                let b4 = b_row.chunks_exact(4);
                let (ra, rb) = (a4.remainder(), b4.remainder());
                for (ca, cb) in a4.zip(b4) {
                    acc[0] += ca[0] * cb[0];
                    acc[1] += ca[1] * cb[1];
                    acc[2] += ca[2] * cb[2];
                    acc[3] += ca[3] * cb[3];
                }
                let mut tail = 0.0;
                for (&x, &y) in ra.iter().zip(rb) {
                    tail += x * y;
                }
                *o = (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail;
            }
        }
    });
}

/// `unsafe` only to share the [`BiasAct`] signature; always safe to call.
unsafe fn bias_act_scalar(out: &mut [f64], bias: &[f64], act: Activation) {
    fn run(out: &mut [f64], bias: &[f64], f: impl Fn(f64) -> f64) {
        for row in out.chunks_exact_mut(bias.len()) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = f(*v + b);
            }
        }
    }
    match act {
        Activation::Identity => run(out, bias, |v| v),
        Activation::LeakyRelu => run(out, bias, |v| leaky_relu(v, LEAKY_SLOPE)),
        Activation::Sigmoid => run(out, bias, sigmoid),
        Activation::Tanh => run(out, bias, f64::tanh),
    }
}

/// `unsafe` only to share the [`LocalGrad`] signature; always safe to call.
unsafe fn local_grad_scalar(out: &mut [f64], g: &[f64], y: &[f64], act: Activation) {
    fn run(out: &mut [f64], g: &[f64], y: &[f64], d: impl Fn(f64) -> f64) {
        for ((o, &gv), &yv) in out.iter_mut().zip(g).zip(y) {
            *o = gv * d(yv);
        }
    }
    match act {
        Activation::Identity => run(out, g, y, |_| 1.0),
        Activation::LeakyRelu => run(out, g, y, leaky_slope_of_output),
        Activation::Sigmoid => run(out, g, y, sigmoid_slope),
        Activation::Tanh => run(out, g, y, tanh_slope),
    }
}

/// `unsafe` only to share the [`SumRows`] signature; always safe to call.
unsafe fn sum_rows_scalar(x: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for row in x.chunks_exact(out.len()) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// The activation of a SIMD epilogue body, as a const-generic parameter.
#[cfg(target_arch = "x86_64")]
mod act {
    pub const IDENTITY: u8 = 0;
    pub const LEAKY: u8 = 1;
    pub const SIGMOID: u8 = 2;
    pub const TANH: u8 = 3;
}

/// Expands to one SIMD tier's `TIER` and its bodies. The expansion site
/// supplies the vector type `V`, its width `LANES`, a tail `Mask`,
/// `TB_ROWS` (the `matmul_transpose_b` tile height) and `#[inline]` helpers
/// `zero`, `splat`, `add`, `sub`, `mul`, `select_pos`, `mask`, `load` and
/// `store` compiled for `$feature`. `FULL` tiles use unmasked loads and
/// stores; the last, partial vector of a row uses `mask(lanes)`. Every
/// element sees the scalar body's operation sequence (module docs); the
/// blocking only changes how many elements are in flight.
///
/// # Safety
///
/// Every generated `unsafe fn` requires `$feature`. The tile functions
/// take raw pointers and touch exactly the rows and columns of their tile;
/// the `*_tiles` loops keep every tile inside the buffers the `Tier`
/// bodies were given.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_tier {
    ($feature:literal) => {
        pub(crate) const TIER: super::Tier = super::Tier {
            matmul,
            matmul_ta,
            matmul_tb,
            bias_act,
            local_grad,
            sum_rows,
        };

        /// # Safety
        ///
        /// Requires the tier's CPU feature.
        #[target_feature(enable = $feature)]
        unsafe fn bias_act(out: &mut [f64], bias: &[f64], activation: Activation) {
            match activation {
                Activation::Identity => bias_act_rows::<{ act::IDENTITY }>(out, bias),
                Activation::LeakyRelu => bias_act_rows::<{ act::LEAKY }>(out, bias),
                // The libm call per element stays scalar; only the bias
                // add is vectorized.
                Activation::Sigmoid => {
                    bias_act_rows::<{ act::IDENTITY }>(out, bias);
                    out.iter_mut().for_each(|v| *v = sigmoid(*v));
                }
                Activation::Tanh => {
                    bias_act_rows::<{ act::IDENTITY }>(out, bias);
                    out.iter_mut().for_each(|v| *v = v.tanh());
                }
            }
        }

        /// `row = ACT(row + bias)` for every row of `out`; `ACT` is the
        /// identity or leaky ReLU.
        #[target_feature(enable = $feature)]
        unsafe fn bias_act_rows<const ACT: u8>(out: &mut [f64], bias: &[f64]) {
            let n = bias.len();
            let (o, b) = (out.as_mut_ptr(), bias.as_ptr());
            for r in 0..out.len() / n {
                let row = o.add(r * n);
                let mut j = 0;
                while j + LANES <= n {
                    bias_act_vec::<ACT, true>(row.add(j), b.add(j), mask(LANES));
                    j += LANES;
                }
                if j < n {
                    bias_act_vec::<ACT, false>(row.add(j), b.add(j), mask(n - j));
                }
            }
        }

        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn bias_act_vec<const ACT: u8, const FULL: bool>(
            p: *mut f64,
            b: *const f64,
            m: Mask,
        ) {
            let v = add(load::<FULL>(p, m), load::<FULL>(b, m));
            let v = if ACT == act::LEAKY {
                select_pos(v, v, mul(splat(LEAKY_SLOPE), v))
            } else {
                v
            };
            store::<FULL>(p, m, v);
        }

        /// # Safety
        ///
        /// Requires the tier's CPU feature.
        #[target_feature(enable = $feature)]
        unsafe fn local_grad(out: &mut [f64], g: &[f64], y: &[f64], activation: Activation) {
            match activation {
                Activation::Identity => local_grad_all::<{ act::IDENTITY }>(out, g, y),
                Activation::LeakyRelu => local_grad_all::<{ act::LEAKY }>(out, g, y),
                Activation::Sigmoid => local_grad_all::<{ act::SIGMOID }>(out, g, y),
                Activation::Tanh => local_grad_all::<{ act::TANH }>(out, g, y),
            }
        }

        #[target_feature(enable = $feature)]
        unsafe fn local_grad_all<const ACT: u8>(out: &mut [f64], g: &[f64], y: &[f64]) {
            let n = out.len();
            let (o, g, y) = (out.as_mut_ptr(), g.as_ptr(), y.as_ptr());
            let mut j = 0;
            while j + LANES <= n {
                local_grad_vec::<ACT, true>(o.add(j), g.add(j), y.add(j), mask(LANES));
                j += LANES;
            }
            if j < n {
                local_grad_vec::<ACT, false>(o.add(j), g.add(j), y.add(j), mask(n - j));
            }
        }

        /// `g · act'(y)` for one vector; the derivative is formed as in
        /// the scalar `act'` and multiplied on the right.
        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn local_grad_vec<const ACT: u8, const FULL: bool>(
            o: *mut f64,
            g: *const f64,
            y: *const f64,
            m: Mask,
        ) {
            let y = load::<FULL>(y, m);
            let d = match ACT {
                act::LEAKY => select_pos(y, splat(1.0), splat(LEAKY_SLOPE)),
                act::SIGMOID => mul(y, sub(splat(1.0), y)),
                act::TANH => sub(splat(1.0), mul(y, y)),
                _ => splat(1.0),
            };
            store::<FULL>(o, m, mul(load::<FULL>(g, m), d));
        }

        /// # Safety
        ///
        /// Requires the tier's CPU feature.
        #[target_feature(enable = $feature)]
        unsafe fn sum_rows(x: &[f64], out: &mut [f64]) {
            let n = out.len();
            let rows = x.len() / n;
            let (x, o) = (x.as_ptr(), out.as_mut_ptr());
            let mut j = 0;
            while j + SUM_COLS * LANES <= n {
                sum_rows_tile::<SUM_COLS, true>(x.add(j), rows, n, o.add(j), mask(LANES));
                j += SUM_COLS * LANES;
            }
            while j + LANES <= n {
                sum_rows_tile::<1, true>(x.add(j), rows, n, o.add(j), mask(LANES));
                j += LANES;
            }
            if j < n {
                sum_rows_tile::<1, false>(x.add(j), rows, n, o.add(j), mask(n - j));
            }
        }

        /// `C` vectors of column sums, each accumulator starting from
        /// `0.0` and adding the rows in increasing order.
        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn sum_rows_tile<const C: usize, const FULL: bool>(
            x: *const f64,
            rows: usize,
            n: usize,
            out: *mut f64,
            m: Mask,
        ) {
            let mut acc = [zero(); C];
            for r in 0..rows {
                for (c, a) in acc.iter_mut().enumerate() {
                    *a = add(*a, load::<FULL>(x.add(r * n + c * LANES), m));
                }
            }
            for (c, &a) in acc.iter().enumerate() {
                store::<FULL>(out.add(c * LANES), m, a);
            }
        }

        /// # Safety
        ///
        /// Requires the tier's CPU feature.
        unsafe fn matmul(a: &[f64], b: &[f64], m: usize, inner: usize, n: usize, out: &mut [f64]) {
            run_rowblocks(out, n, m * n * inner, |first_row, chunk| {
                // SAFETY: the caller guarantees the CPU feature.
                unsafe { matmul_rows(&a[first_row * inner..], b, inner, n, chunk) }
            });
        }

        /// # Safety
        ///
        /// Requires the tier's CPU feature.
        unsafe fn matmul_ta(
            a: &[f64],
            b: &[f64],
            r_dim: usize,
            p: usize,
            n: usize,
            out: &mut [f64],
        ) {
            run_rowblocks(out, n, p * n * r_dim, |first_row, chunk| {
                // SAFETY: the caller guarantees the CPU feature.
                unsafe { matmul_ta_rows(&a[first_row..], b, r_dim, p, n, chunk) }
            });
        }

        /// # Safety
        ///
        /// Requires the tier's CPU feature.
        unsafe fn matmul_tb(
            a: &[f64],
            b: &[f64],
            m: usize,
            inner: usize,
            n: usize,
            out: &mut [f64],
        ) {
            // Output columns are rows of B; one O(n·inner) transpose turns
            // each lane's operand into a contiguous load.
            TRANSPOSED.with_borrow_mut(|bt| {
                // SAFETY: the caller guarantees the CPU feature.
                unsafe { transpose_into(b, n, inner, bt) };
                let bt = &*bt;
                run_rowblocks(out, n, m * n * inner, |first_row, chunk| {
                    // SAFETY: the caller guarantees the CPU feature.
                    unsafe { matmul_tb_rows(&a[first_row * inner..], bt, inner, n, chunk) }
                });
            });
        }

        /// Writes the transpose of a row-major `rows x cols` buffer into
        /// `out`, moving 4×4 blocks through 256-bit registers (every
        /// AVX-512F CPU has AVX2).
        #[target_feature(enable = $feature)]
        unsafe fn transpose_into(src: &[f64], rows: usize, cols: usize, out: &mut Vec<f64>) {
            out.clear();
            out.resize(src.len(), 0.0);
            let (s, o) = (src.as_ptr(), out.as_mut_ptr());
            let (rows4, cols4) = (rows - rows % 4, cols - cols % 4);
            for r in (0..rows4).step_by(4) {
                for c in (0..cols4).step_by(4) {
                    let p = s.add(r * cols + c);
                    let x0 = _mm256_loadu_pd(p);
                    let x1 = _mm256_loadu_pd(p.add(cols));
                    let x2 = _mm256_loadu_pd(p.add(2 * cols));
                    let x3 = _mm256_loadu_pd(p.add(3 * cols));
                    // Pairs of rows interleaved, then 128-bit halves swapped.
                    let t0 = _mm256_unpacklo_pd(x0, x1);
                    let t1 = _mm256_unpackhi_pd(x0, x1);
                    let t2 = _mm256_unpacklo_pd(x2, x3);
                    let t3 = _mm256_unpackhi_pd(x2, x3);
                    let q = o.add(c * rows + r);
                    _mm256_storeu_pd(q, _mm256_permute2f128_pd::<0x20>(t0, t2));
                    _mm256_storeu_pd(q.add(rows), _mm256_permute2f128_pd::<0x20>(t1, t3));
                    _mm256_storeu_pd(q.add(2 * rows), _mm256_permute2f128_pd::<0x31>(t0, t2));
                    _mm256_storeu_pd(q.add(3 * rows), _mm256_permute2f128_pd::<0x31>(t1, t3));
                }
            }
            for r in 0..rows {
                let edge = if r < rows4 { cols4 } else { 0 };
                for c in edge..cols {
                    *o.add(c * rows + r) = *s.add(r * cols + c);
                }
            }
        }

        /// `out = A · B` for the rows of `out`, `a` starting at the first.
        #[target_feature(enable = $feature)]
        unsafe fn matmul_rows(a: &[f64], b: &[f64], inner: usize, n: usize, out: &mut [f64]) {
            let (a, b, o) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
            let rows = out.len() / n;
            let mut r = 0;
            while r + ROWS <= rows {
                matmul_tiles::<ROWS>(a.add(r * inner), b, inner, n, o.add(r * n));
                r += ROWS;
            }
            for r in r..rows {
                matmul_tiles::<1>(a.add(r * inner), b, inner, n, o.add(r * n));
            }
        }

        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn matmul_tiles<const R: usize>(
            a: *const f64,
            b: *const f64,
            inner: usize,
            n: usize,
            o: *mut f64,
        ) {
            let mut j = 0;
            while j + COLS * LANES <= n {
                matmul_tile::<R, COLS, true>(a, b.add(j), inner, n, o.add(j), mask(LANES));
                j += COLS * LANES;
            }
            while j + LANES <= n {
                matmul_tile::<R, 1, true>(a, b.add(j), inner, n, o.add(j), mask(LANES));
                j += LANES;
            }
            if j < n {
                matmul_tile::<R, 1, false>(a, b.add(j), inner, n, o.add(j), mask(n - j));
            }
        }

        /// `R` rows × `C` vectors of `A · B`: `a` points at the first
        /// row's first element, `b` and `out` at the tile's first column.
        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn matmul_tile<const R: usize, const C: usize, const FULL: bool>(
            a: *const f64,
            b: *const f64,
            inner: usize,
            n: usize,
            out: *mut f64,
            m: Mask,
        ) {
            let mut acc = [[zero(); C]; R];
            let mut k0 = 0;
            while k0 + PANEL <= inner {
                for c in 0..C {
                    let bp = b.add(k0 * n + c * LANES);
                    let b0 = load::<FULL>(bp, m);
                    let b1 = load::<FULL>(bp.add(n), m);
                    let b2 = load::<FULL>(bp.add(2 * n), m);
                    let b3 = load::<FULL>(bp.add(3 * n), m);
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let ap = a.add(r * inner + k0);
                        let mut s = mul(splat(*ap), b0);
                        s = add(s, mul(splat(*ap.add(1)), b1));
                        s = add(s, mul(splat(*ap.add(2)), b2));
                        s = add(s, mul(splat(*ap.add(3)), b3));
                        acc_r[c] = add(acc_r[c], s);
                    }
                }
                k0 += PANEL;
            }
            if k0 < inner {
                let live = inner - k0;
                for c in 0..C {
                    let bp = b.add(k0 * n + c * LANES);
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let ap = a.add(r * inner + k0);
                        let mut s = mul(splat(*ap), load::<FULL>(bp, m));
                        for t in 1..PANEL {
                            // A padding row's `0.0 · 0.0` term is `+0.0`.
                            let term = if t < live {
                                mul(splat(*ap.add(t)), load::<FULL>(bp.add(t * n), m))
                            } else {
                                zero()
                            };
                            s = add(s, term);
                        }
                        acc_r[c] = add(acc_r[c], s);
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                for (c, &v) in acc_r.iter().enumerate() {
                    store::<FULL>(out.add(r * n + c * LANES), m, v);
                }
            }
        }

        /// `out = Aᵀ · B` for the rows of `out`, `a` starting at the column
        /// of `A` (`r_dim x p`) that gives the first.
        #[target_feature(enable = $feature)]
        unsafe fn matmul_ta_rows(
            a: &[f64],
            b: &[f64],
            r_dim: usize,
            p: usize,
            n: usize,
            out: &mut [f64],
        ) {
            let (a, b, o) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
            let rows = out.len() / n;
            let mut i = 0;
            while i + ROWS <= rows {
                matmul_ta_tiles::<ROWS>(a.add(i), b, r_dim, p, n, o.add(i * n));
                i += ROWS;
            }
            for i in i..rows {
                matmul_ta_tiles::<1>(a.add(i), b, r_dim, p, n, o.add(i * n));
            }
        }

        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn matmul_ta_tiles<const R: usize>(
            a: *const f64,
            b: *const f64,
            r_dim: usize,
            p: usize,
            n: usize,
            o: *mut f64,
        ) {
            let mut j = 0;
            while j + COLS * LANES <= n {
                matmul_ta_tile::<R, COLS, true>(a, b.add(j), r_dim, p, n, o.add(j), mask(LANES));
                j += COLS * LANES;
            }
            while j + LANES <= n {
                matmul_ta_tile::<R, 1, true>(a, b.add(j), r_dim, p, n, o.add(j), mask(LANES));
                j += LANES;
            }
            if j < n {
                matmul_ta_tile::<R, 1, false>(a, b.add(j), r_dim, p, n, o.add(j), mask(n - j));
            }
        }

        /// `R` rows × `C` vectors of `Aᵀ · B`: `a` points at the tile's
        /// first column of `A`'s first row, `b` and `out` at the tile's
        /// first output column.
        #[allow(clippy::too_many_arguments)]
        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn matmul_ta_tile<const R: usize, const C: usize, const FULL: bool>(
            a: *const f64,
            b: *const f64,
            r_dim: usize,
            p: usize,
            n: usize,
            out: *mut f64,
            m: Mask,
        ) {
            let mut acc = [[zero(); C]; R];
            for r in 0..r_dim {
                let mut bv = [zero(); C];
                for (c, v) in bv.iter_mut().enumerate() {
                    *v = load::<FULL>(b.add(r * n + c * LANES), m);
                }
                for (i, acc_i) in acc.iter_mut().enumerate() {
                    let coeff = splat(*a.add(r * p + i));
                    for (s, &v) in acc_i.iter_mut().zip(&bv) {
                        *s = add(*s, mul(coeff, v));
                    }
                }
            }
            for (i, acc_i) in acc.iter().enumerate() {
                for (c, &v) in acc_i.iter().enumerate() {
                    store::<FULL>(out.add(i * n + c * LANES), m, v);
                }
            }
        }

        /// `out = A · Bᵀ` for the rows of `out`, `a` starting at the first
        /// and `bt = Bᵀ` (`inner x n`).
        #[target_feature(enable = $feature)]
        unsafe fn matmul_tb_rows(a: &[f64], bt: &[f64], inner: usize, n: usize, out: &mut [f64]) {
            let (a, bt, o) = (a.as_ptr(), bt.as_ptr(), out.as_mut_ptr());
            let rows = out.len() / n;
            let mut r = 0;
            while r + TB_ROWS <= rows {
                matmul_tb_tiles::<TB_ROWS>(a.add(r * inner), bt, inner, n, o.add(r * n));
                r += TB_ROWS;
            }
            for r in r..rows {
                matmul_tb_tiles::<1>(a.add(r * inner), bt, inner, n, o.add(r * n));
            }
        }

        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn matmul_tb_tiles<const R: usize>(
            a: *const f64,
            bt: *const f64,
            inner: usize,
            n: usize,
            o: *mut f64,
        ) {
            let mut j = 0;
            while j + LANES <= n {
                matmul_tb_tile::<R, true>(a, bt.add(j), inner, n, o.add(j), mask(LANES));
                j += LANES;
            }
            if j < n {
                matmul_tb_tile::<R, false>(a, bt.add(j), inner, n, o.add(j), mask(n - j));
            }
        }

        /// `R` rows × one vector of `A · Bᵀ`: four lane accumulators and a
        /// tail per element, combined as `((l₀ + l₁) + (l₂ + l₃)) + tail`.
        /// `a` points at the first row, `bt` and `out` at the first column.
        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn matmul_tb_tile<const R: usize, const FULL: bool>(
            a: *const f64,
            bt: *const f64,
            inner: usize,
            n: usize,
            out: *mut f64,
            m: Mask,
        ) {
            let mut lanes = [[zero(); 4]; R];
            let mut k = 0;
            while k + 4 <= inner {
                for t in 0..4 {
                    let bv = load::<FULL>(bt.add((k + t) * n), m);
                    for (r, lanes_r) in lanes.iter_mut().enumerate() {
                        lanes_r[t] = add(lanes_r[t], mul(splat(*a.add(r * inner + k + t)), bv));
                    }
                }
                k += 4;
            }
            let mut tail = [zero(); R];
            while k < inner {
                let bv = load::<FULL>(bt.add(k * n), m);
                for (r, tail_r) in tail.iter_mut().enumerate() {
                    *tail_r = add(*tail_r, mul(splat(*a.add(r * inner + k)), bv));
                }
                k += 1;
            }
            for (r, l) in lanes.iter().enumerate() {
                let v = add(add(add(l[0], l[1]), add(l[2], l[3])), tail[r]);
                store::<FULL>(out.add(r * n), m, v);
            }
        }
    };
}

/// 256-bit bodies: four `f64` lanes, `maskload`/`maskstore` tails.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{
        act, run_rowblocks, sigmoid, COLS, LEAKY_SLOPE, PANEL, ROWS, SUM_COLS, TRANSPOSED,
    };
    use crate::Activation;
    use std::arch::x86_64::*;

    type V = __m256d;
    type Mask = __m256i;
    const LANES: usize = 4;
    /// Sixteen registers hold 2 rows × 4 lanes of `matmul_transpose_b`
    /// accumulators, not 4 rows.
    const TB_ROWS: usize = 2;

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn zero() -> V {
        _mm256_setzero_pd()
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn splat(x: f64) -> V {
        _mm256_set1_pd(x)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add(x: V, y: V) -> V {
        _mm256_add_pd(x, y)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sub(x: V, y: V) -> V {
        _mm256_sub_pd(x, y)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul(x: V, y: V) -> V {
        _mm256_mul_pd(x, y)
    }

    /// `pos` in the lanes where `y > 0` (false for NaN), else `neg`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn select_pos(y: V, pos: V, neg: V) -> V {
        _mm256_blendv_pd(neg, pos, _mm256_cmp_pd::<_CMP_GT_OQ>(y, zero()))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mask(lanes: usize) -> Mask {
        _mm256_cmpgt_epi64(
            _mm256_set1_epi64x(lanes as i64),
            _mm256_setr_epi64x(0, 1, 2, 3),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load<const FULL: bool>(p: *const f64, m: Mask) -> V {
        if FULL {
            _mm256_loadu_pd(p)
        } else {
            _mm256_maskload_pd(p, m)
        }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store<const FULL: bool>(p: *mut f64, m: Mask, v: V) {
        if FULL {
            _mm256_storeu_pd(p, v)
        } else {
            _mm256_maskstore_pd(p, m, v)
        }
    }

    simd_tier!("avx2");
}

/// 512-bit bodies: eight `f64` lanes, mask-register tails.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{
        act, run_rowblocks, sigmoid, COLS, LEAKY_SLOPE, PANEL, ROWS, SUM_COLS, TRANSPOSED,
    };
    use crate::Activation;
    use std::arch::x86_64::*;

    type V = __m512d;
    type Mask = __mmask8;
    const LANES: usize = 8;
    /// Thirty-two registers hold 4 rows × 4 lanes of `matmul_transpose_b`
    /// accumulators.
    const TB_ROWS: usize = 4;

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn zero() -> V {
        _mm512_setzero_pd()
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn splat(x: f64) -> V {
        _mm512_set1_pd(x)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn add(x: V, y: V) -> V {
        _mm512_add_pd(x, y)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn sub(x: V, y: V) -> V {
        _mm512_sub_pd(x, y)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn mul(x: V, y: V) -> V {
        _mm512_mul_pd(x, y)
    }

    /// `pos` in the lanes where `y > 0` (false for NaN), else `neg`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn select_pos(y: V, pos: V, neg: V) -> V {
        _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_GT_OQ>(y, zero()), neg, pos)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn mask(lanes: usize) -> Mask {
        ((1u32 << lanes) - 1) as Mask
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load<const FULL: bool>(p: *const f64, m: Mask) -> V {
        if FULL {
            _mm512_loadu_pd(p)
        } else {
            _mm512_maskz_loadu_pd(m, p)
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store<const FULL: bool>(p: *mut f64, m: Mask, v: V) {
        if FULL {
            _mm512_storeu_pd(p, v)
        } else {
            _mm512_mask_storeu_pd(p, m, v)
        }
    }

    simd_tier!("avx512f");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SIMD tiers this CPU can run, by name.
    fn simd_tiers() -> Vec<(&'static str, &'static Tier)> {
        #[allow(unused_mut)]
        let mut tiers = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if simd_level() >= vaesa_linalg::SimdLevel::Avx2 {
                tiers.push(("avx2", &avx2::TIER));
            }
            if simd_level() >= vaesa_linalg::SimdLevel::Avx512 {
                tiers.push(("avx512f", &avx512::TIER));
            }
        }
        tiers
    }

    /// Value mixes: mostly normal values with signed zeros and subnormals;
    /// the same with NaN, ±Inf and overflowing magnitudes (so results hold
    /// ±Inf and NaN); and only zeros and subnormals, whose products
    /// underflow to signed zeros.
    #[derive(Clone, Copy, Debug)]
    enum Mix {
        Finite,
        NonFinite,
        Tiny,
    }

    fn values(len: usize, salt: u64, mix: Mix) -> Vec<f64> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let sign = if state & (1 << 20) == 0 { 1.0 } else { -1.0 };
                let normal = ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0;
                let subnormal = sign * f64::from_bits((state >> 13) & ((1 << 40) - 1));
                match (mix, (state >> 58) % 32) {
                    (_, 0) => 0.0,
                    (_, 1) => -0.0,
                    (_, 2 | 3) => subnormal,
                    (Mix::NonFinite, 4) => sign * f64::INFINITY,
                    (Mix::NonFinite, 5) => sign * 1e300,
                    (Mix::NonFinite, 6) => f64::NAN,
                    (Mix::Tiny, 4..=15) => subnormal,
                    (Mix::Tiny, _) => sign * 0.0,
                    _ => normal,
                }
            })
            .collect()
    }

    /// `m x k x n` shapes with every dimension in `1..=70`: every `n` (so
    /// every remainder mod 4 and mod 8), `inner == 1`, and row counts
    /// covering every remainder of the row blocking.
    fn shapes() -> Vec<(usize, usize, usize)> {
        const MS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 64, 70];
        const KS: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 17, 33, 70];
        let mut shapes = Vec::new();
        for n in 1..=70 {
            shapes.push((MS[n % MS.len()], 1, n));
            for t in 0..3 {
                shapes.push((MS[(n + 5 * t) % MS.len()], KS[(3 * n + t) % KS.len()], n));
            }
        }
        shapes
    }

    /// Finite (and infinite) results must agree bit for bit; NaN results
    /// must sit at the same positions.
    fn assert_same_bits(want: &[f64], got: &[f64], what: &str) {
        for (e, (&w, &g)) in want.iter().zip(got).enumerate() {
            let same = if w.is_nan() {
                g.is_nan()
            } else {
                w.to_bits() == g.to_bits()
            };
            assert!(same, "{what}: element {e} is {g:e}, scalar gives {w:e}");
        }
    }

    const NAMES: [&str; 3] = ["matmul", "matmul_transpose_a", "matmul_transpose_b"];

    /// `tier`'s three products for one `m x k x n` shape: `matmul` and
    /// `matmul_transpose_b` read `a` as `m x k`, `matmul_transpose_a` as
    /// `k x m` (`r x p`); `bt` is `n x k`.
    fn products(
        tier: &Tier,
        a: &[f64],
        b: &[f64],
        bt: &[f64],
        (m, k, n): (usize, usize, usize),
    ) -> [Vec<f64>; 3] {
        let run = |f: Product, b: &[f64], d0: usize, d1: usize| {
            // Stale contents must never reach the result.
            let mut out = vec![f64::NAN; m * n];
            // SAFETY: `simd_tiers` checked the CPU features.
            unsafe { f(a, b, d0, d1, n, &mut out) };
            out
        };
        [
            run(tier.matmul, b, m, k),
            run(tier.matmul_ta, b, k, m),
            run(tier.matmul_tb, bt, m, k),
        ]
    }

    const ACTIVATIONS: [Activation; 4] = [
        Activation::Identity,
        Activation::LeakyRelu,
        Activation::Sigmoid,
        Activation::Tanh,
    ];

    /// `tier`'s epilogues over `x` (`rows x bias.len()`): `bias_act` of `x`
    /// and `local_grad` with `x` as the gradient and `y` as the output, per
    /// activation; and `sum_rows` of `x`.
    fn epilogues(tier: &Tier, x: &[f64], y: &[f64], bias: &[f64]) -> Vec<(String, Vec<f64>)> {
        let mut outs = Vec::new();
        // SAFETY (every call): `simd_tiers` checked the CPU features.
        for act in ACTIVATIONS {
            let mut out = x.to_vec();
            unsafe { (tier.bias_act)(&mut out, bias, act) };
            outs.push((format!("bias_act {act:?}"), out));
            // Stale contents must never reach the result.
            let mut out = vec![f64::NAN; x.len()];
            unsafe { (tier.local_grad)(&mut out, x, y, act) };
            outs.push((format!("local_grad {act:?}"), out));
        }
        let mut out = vec![f64::NAN; bias.len()];
        unsafe { (tier.sum_rows)(x, &mut out) };
        outs.push(("sum_rows".to_string(), out));
        outs
    }

    #[test]
    fn simd_bodies_match_the_scalar_bodies_bit_for_bit() {
        let tiers = simd_tiers();
        if tiers.is_empty() {
            println!("this CPU has no AVX2: checked only the scalar body");
        }
        for mix in [Mix::Finite, Mix::NonFinite, Mix::Tiny] {
            for (s, &(m, k, n)) in shapes().iter().enumerate() {
                let salt = s as u64 * 3;
                let a = values(m * k, salt, mix);
                let b = values(k * n, salt + 1, mix);
                let bt = values(n * k, salt + 2, mix);
                let want = products(&SCALAR, &a, &b, &bt, (m, k, n));
                for &(tier_name, tier) in &tiers {
                    let got = products(tier, &a, &b, &bt, (m, k, n));
                    for ((name, w), g) in NAMES.iter().zip(&want).zip(&got) {
                        let what = format!("{tier_name} {name} {m}x{k}x{n} {mix:?}");
                        assert_same_bits(w, g, &what);
                    }
                }
            }
            // Every width in 1..=70, so every vector tail; row counts up to
            // a batch and past it.
            const ROWS: [usize; 8] = [1, 2, 3, 5, 8, 13, 64, 70];
            for n in 1..=70 {
                let rows = ROWS[n % ROWS.len()];
                let salt = 1000 + n as u64 * 3;
                let bias = values(n, salt, mix);
                let mut x = values(rows * n, salt + 1, mix);
                let y = values(rows * n, salt + 2, mix);
                // Some sums are exactly zero before the activation.
                for (e, v) in x.iter_mut().enumerate().step_by(5) {
                    *v = -bias[e % n];
                }
                let want = epilogues(&SCALAR, &x, &y, &bias);
                for &(tier_name, tier) in &tiers {
                    let got = epilogues(tier, &x, &y, &bias);
                    for ((name, w), (_, g)) in want.iter().zip(&got) {
                        let what = format!("{tier_name} {name} {rows}x{n} {mix:?}");
                        assert_same_bits(w, g, &what);
                    }
                }
            }
        }
    }
}
