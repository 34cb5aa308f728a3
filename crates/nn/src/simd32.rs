//! SIMD `f32` compute backend for the [`Tensor`](crate::Tensor) hot loops.
//!
//! When the process-global [`Precision`](vaesa_linalg::Precision) is
//! [`F32`](vaesa_linalg::Precision::F32), the `Tensor` matmul family, the
//! elementwise activations, and the Adam update route through this module:
//! operands are rounded to `f32` once, the O(m·k·n) work runs in wide `f32`
//! SIMD (runtime-dispatched AVX2+FMA or AVX-512F+FMA, scalar fallback), and
//! results are widened back to `f64` storage. Conversion is O(elements) while
//! the kernels are O(elements · inner), so the round trip is amortized for
//! every shape the models use.
//!
//! Accumulation order is pinned exactly like the `f64` kernels — fixed panel
//! and lane layouts, row blocks independent of thread count — so a given
//! machine produces bit-identical `f32` results for every `VAESA_THREADS`
//! setting. Across machines the FMA contraction in the SIMD bodies may round
//! differently from the scalar fallback; the determinism gate only ever
//! compares runs from the same machine, and cross-machine comparability is
//! handled by the `cpu_features` manifest line (see DESIGN.md, "Precision
//! policy").
//!
//! `matmul_transpose_b` materializes `Bᵀ` and reuses the panel matmul
//! kernel, so every product accumulates in `f32` through the same kernel.

use std::sync::{Arc, OnceLock};

/// Count of matmul-family products routed through the f32 backend. Counters
/// are deterministic (call counts never depend on thread count), so this is
/// safe to include in the manifest's gated slice; it only appears when the
/// run actually executed f32 kernels.
fn f32_matmuls() -> &'static Arc<vaesa_obs::Counter> {
    static C: OnceLock<Arc<vaesa_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| vaesa_obs::counter("nn.f32.matmuls"))
}

/// SIMD tier selected once per process from runtime feature detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimdLevel {
    Avx512,
    Avx2,
    Scalar,
}

pub(crate) fn simd_level() -> SimdLevel {
    static L: OnceLock<SimdLevel> = OnceLock::new();
    *L.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

#[inline]
pub(crate) fn to_f32(src: &[f64]) -> Vec<f32> {
    src.iter().map(|&v| v as f32).collect()
}

/// Whether an `m x k` · `k x n`-shaped product is worth the f64→f32 round
/// trip: the O(m·k·n) kernel must dominate the O(m·k + k·n + m·n)
/// conversion passes by enough to beat the f64 SIMD kernels, which run at
/// half the f32 lane count but need no conversion. On the AVX-512
/// reference host the f32 matmul family breaks even with f64 at a ratio of
/// about 10 to 16 (the transpose-A variant last, as it also transposes
/// `A`); below 16 the precision-routed `Tensor` paths keep the f64 kernels.
pub(crate) fn amortizes(m: usize, k: usize, n: usize) -> bool {
    m * k * n >= 16 * (m * k + k * n + m * n)
}

/// Transposed copy of a row-major `rows x cols` buffer.
fn transpose_f32(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(src.len(), rows * cols);
    let mut out = vec![0.0f32; src.len()];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = src[r * cols + c];
        }
    }
    out
}

/// Fused round-and-transpose of a row-major `rows x cols` `f64` buffer:
/// one pass instead of a narrowing pass followed by a transpose pass.
fn transpose_to_f32(src: &[f64], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(src.len(), rows * cols);
    let mut out = vec![0.0f32; src.len()];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = src[r * cols + c] as f32;
        }
    }
    out
}

#[inline]
fn write_f64(src: &[f32], dst: &mut [f64]) {
    debug_assert_eq!(src.len(), dst.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f64::from(s);
    }
}

// ---------------------------------------------------------------------------
// matmul: out_row += a_row * B, B row-major, k unrolled in panels of four.
// ---------------------------------------------------------------------------

/// One output row of `A * B`. `FMA` bodies contract with `mul_add` (compiled
/// to hardware FMA under `#[target_feature]`); the scalar body uses separate
/// multiply/add so the fallback never hits the libm soft-float `fma`.
#[inline(always)]
fn matmul_row_body<const FMA: bool>(a_row: &[f32], b: &[f32], out_row: &mut [f32]) {
    let inner = a_row.len();
    let n = out_row.len();
    debug_assert_eq!(b.len(), inner * n);
    let mut k = 0;
    while k + 4 <= inner {
        let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
        let b0 = &b[k * n..][..n];
        let b1 = &b[(k + 1) * n..][..n];
        let b2 = &b[(k + 2) * n..][..n];
        let b3 = &b[(k + 3) * n..][..n];
        for j in 0..n {
            let mut acc = out_row[j];
            if FMA {
                acc = a0.mul_add(b0[j], acc);
                acc = a1.mul_add(b1[j], acc);
                acc = a2.mul_add(b2[j], acc);
                acc = a3.mul_add(b3[j], acc);
            } else {
                acc += a0 * b0[j];
                acc += a1 * b1[j];
                acc += a2 * b2[j];
                acc += a3 * b3[j];
            }
            out_row[j] = acc;
        }
        k += 4;
    }
    while k < inner {
        let a0 = a_row[k];
        let b_row = &b[k * n..][..n];
        for j in 0..n {
            if FMA {
                out_row[j] = a0.mul_add(b_row[j], out_row[j]);
            } else {
                out_row[j] += a0 * b_row[j];
            }
        }
        k += 1;
    }
}

type MatmulBlock = unsafe fn(&[f32], &[f32], usize, usize, usize, &mut [f32]);

/// Four-row register-blocked `A * B` tile in AVX-512 intrinsics. Each
/// output element accumulates along one FMA chain in ascending-`k` order —
/// the same per-element arithmetic as [`matmul_row_body`]'s FMA variant —
/// but with up to eight independent chains (4 rows x 2 column vectors) in
/// flight, so the chains hide each other's four-cycle FMA latency.
///
/// # Safety
///
/// Requires AVX-512F and FMA (guaranteed by the [`simd_level`] dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn matmul_block_avx512(
    a: &[f32],
    b: &[f32],
    first_row: usize,
    inner: usize,
    n: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let rows = out.len() / n;
    if rows != 4 {
        for (r, out_row) in out.chunks_mut(n).enumerate() {
            let i = first_row + r;
            matmul_row_body::<true>(&a[i * inner..(i + 1) * inner], b, out_row);
        }
        return;
    }
    let a0 = &a[first_row * inner..][..inner];
    let a1 = &a[(first_row + 1) * inner..][..inner];
    let a2 = &a[(first_row + 2) * inner..][..inner];
    let a3 = &a[(first_row + 3) * inner..][..inner];
    let (o01, o23) = out.split_at_mut(2 * n);
    let (o0, o1) = o01.split_at_mut(n);
    let (o2, o3) = o23.split_at_mut(n);
    let mut j = 0;
    // 32-column tiles: eight chains saturate the two FMA ports.
    while j + 32 <= n {
        let mut s00 = _mm512_loadu_ps(o0.as_ptr().add(j));
        let mut s01 = _mm512_loadu_ps(o0.as_ptr().add(j + 16));
        let mut s10 = _mm512_loadu_ps(o1.as_ptr().add(j));
        let mut s11 = _mm512_loadu_ps(o1.as_ptr().add(j + 16));
        let mut s20 = _mm512_loadu_ps(o2.as_ptr().add(j));
        let mut s21 = _mm512_loadu_ps(o2.as_ptr().add(j + 16));
        let mut s30 = _mm512_loadu_ps(o3.as_ptr().add(j));
        let mut s31 = _mm512_loadu_ps(o3.as_ptr().add(j + 16));
        for k in 0..inner {
            let b0 = _mm512_loadu_ps(b.as_ptr().add(k * n + j));
            let b1 = _mm512_loadu_ps(b.as_ptr().add(k * n + j + 16));
            let v0 = _mm512_set1_ps(*a0.get_unchecked(k));
            s00 = _mm512_fmadd_ps(v0, b0, s00);
            s01 = _mm512_fmadd_ps(v0, b1, s01);
            let v1 = _mm512_set1_ps(*a1.get_unchecked(k));
            s10 = _mm512_fmadd_ps(v1, b0, s10);
            s11 = _mm512_fmadd_ps(v1, b1, s11);
            let v2 = _mm512_set1_ps(*a2.get_unchecked(k));
            s20 = _mm512_fmadd_ps(v2, b0, s20);
            s21 = _mm512_fmadd_ps(v2, b1, s21);
            let v3 = _mm512_set1_ps(*a3.get_unchecked(k));
            s30 = _mm512_fmadd_ps(v3, b0, s30);
            s31 = _mm512_fmadd_ps(v3, b1, s31);
        }
        _mm512_storeu_ps(o0.as_mut_ptr().add(j), s00);
        _mm512_storeu_ps(o0.as_mut_ptr().add(j + 16), s01);
        _mm512_storeu_ps(o1.as_mut_ptr().add(j), s10);
        _mm512_storeu_ps(o1.as_mut_ptr().add(j + 16), s11);
        _mm512_storeu_ps(o2.as_mut_ptr().add(j), s20);
        _mm512_storeu_ps(o2.as_mut_ptr().add(j + 16), s21);
        _mm512_storeu_ps(o3.as_mut_ptr().add(j), s30);
        _mm512_storeu_ps(o3.as_mut_ptr().add(j + 16), s31);
        j += 32;
    }
    // Masked tail covers everything under 32 columns, 16 at a time.
    while j < n {
        let lanes = (n - j).min(16);
        let mask: __mmask16 = ((1u32 << lanes) - 1) as __mmask16;
        let mut s0 = _mm512_maskz_loadu_ps(mask, o0.as_ptr().add(j));
        let mut s1 = _mm512_maskz_loadu_ps(mask, o1.as_ptr().add(j));
        let mut s2 = _mm512_maskz_loadu_ps(mask, o2.as_ptr().add(j));
        let mut s3 = _mm512_maskz_loadu_ps(mask, o3.as_ptr().add(j));
        for k in 0..inner {
            let vb = _mm512_maskz_loadu_ps(mask, b.as_ptr().add(k * n + j));
            s0 = _mm512_fmadd_ps(_mm512_set1_ps(*a0.get_unchecked(k)), vb, s0);
            s1 = _mm512_fmadd_ps(_mm512_set1_ps(*a1.get_unchecked(k)), vb, s1);
            s2 = _mm512_fmadd_ps(_mm512_set1_ps(*a2.get_unchecked(k)), vb, s2);
            s3 = _mm512_fmadd_ps(_mm512_set1_ps(*a3.get_unchecked(k)), vb, s3);
        }
        _mm512_mask_storeu_ps(o0.as_mut_ptr().add(j), mask, s0);
        _mm512_mask_storeu_ps(o1.as_mut_ptr().add(j), mask, s1);
        _mm512_mask_storeu_ps(o2.as_mut_ptr().add(j), mask, s2);
        _mm512_mask_storeu_ps(o3.as_mut_ptr().add(j), mask, s3);
        j += lanes;
    }
}

/// AVX2 variant of [`matmul_block_avx512`]: 8-wide vectors, 16-column
/// tiles, `maskload`/`maskstore` tail. Same ascending-`k` chains.
///
/// # Safety
///
/// Requires AVX2 and FMA (guaranteed by the [`simd_level`] dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul_block_avx2(
    a: &[f32],
    b: &[f32],
    first_row: usize,
    inner: usize,
    n: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let rows = out.len() / n;
    if rows != 4 {
        for (r, out_row) in out.chunks_mut(n).enumerate() {
            let i = first_row + r;
            matmul_row_body::<true>(&a[i * inner..(i + 1) * inner], b, out_row);
        }
        return;
    }
    let a0 = &a[first_row * inner..][..inner];
    let a1 = &a[(first_row + 1) * inner..][..inner];
    let a2 = &a[(first_row + 2) * inner..][..inner];
    let a3 = &a[(first_row + 3) * inner..][..inner];
    let (o01, o23) = out.split_at_mut(2 * n);
    let (o0, o1) = o01.split_at_mut(n);
    let (o2, o3) = o23.split_at_mut(n);
    let mut j = 0;
    while j + 16 <= n {
        let mut s00 = _mm256_loadu_ps(o0.as_ptr().add(j));
        let mut s01 = _mm256_loadu_ps(o0.as_ptr().add(j + 8));
        let mut s10 = _mm256_loadu_ps(o1.as_ptr().add(j));
        let mut s11 = _mm256_loadu_ps(o1.as_ptr().add(j + 8));
        let mut s20 = _mm256_loadu_ps(o2.as_ptr().add(j));
        let mut s21 = _mm256_loadu_ps(o2.as_ptr().add(j + 8));
        let mut s30 = _mm256_loadu_ps(o3.as_ptr().add(j));
        let mut s31 = _mm256_loadu_ps(o3.as_ptr().add(j + 8));
        for k in 0..inner {
            let b0 = _mm256_loadu_ps(b.as_ptr().add(k * n + j));
            let b1 = _mm256_loadu_ps(b.as_ptr().add(k * n + j + 8));
            let v0 = _mm256_set1_ps(*a0.get_unchecked(k));
            s00 = _mm256_fmadd_ps(v0, b0, s00);
            s01 = _mm256_fmadd_ps(v0, b1, s01);
            let v1 = _mm256_set1_ps(*a1.get_unchecked(k));
            s10 = _mm256_fmadd_ps(v1, b0, s10);
            s11 = _mm256_fmadd_ps(v1, b1, s11);
            let v2 = _mm256_set1_ps(*a2.get_unchecked(k));
            s20 = _mm256_fmadd_ps(v2, b0, s20);
            s21 = _mm256_fmadd_ps(v2, b1, s21);
            let v3 = _mm256_set1_ps(*a3.get_unchecked(k));
            s30 = _mm256_fmadd_ps(v3, b0, s30);
            s31 = _mm256_fmadd_ps(v3, b1, s31);
        }
        _mm256_storeu_ps(o0.as_mut_ptr().add(j), s00);
        _mm256_storeu_ps(o0.as_mut_ptr().add(j + 8), s01);
        _mm256_storeu_ps(o1.as_mut_ptr().add(j), s10);
        _mm256_storeu_ps(o1.as_mut_ptr().add(j + 8), s11);
        _mm256_storeu_ps(o2.as_mut_ptr().add(j), s20);
        _mm256_storeu_ps(o2.as_mut_ptr().add(j + 8), s21);
        _mm256_storeu_ps(o3.as_mut_ptr().add(j), s30);
        _mm256_storeu_ps(o3.as_mut_ptr().add(j + 8), s31);
        j += 16;
    }
    while j < n {
        let lanes = (n - j).min(8) as i32;
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes), idx);
        let mut s0 = _mm256_maskload_ps(o0.as_ptr().add(j), mask);
        let mut s1 = _mm256_maskload_ps(o1.as_ptr().add(j), mask);
        let mut s2 = _mm256_maskload_ps(o2.as_ptr().add(j), mask);
        let mut s3 = _mm256_maskload_ps(o3.as_ptr().add(j), mask);
        for k in 0..inner {
            let vb = _mm256_maskload_ps(b.as_ptr().add(k * n + j), mask);
            s0 = _mm256_fmadd_ps(_mm256_set1_ps(*a0.get_unchecked(k)), vb, s0);
            s1 = _mm256_fmadd_ps(_mm256_set1_ps(*a1.get_unchecked(k)), vb, s1);
            s2 = _mm256_fmadd_ps(_mm256_set1_ps(*a2.get_unchecked(k)), vb, s2);
            s3 = _mm256_fmadd_ps(_mm256_set1_ps(*a3.get_unchecked(k)), vb, s3);
        }
        _mm256_maskstore_ps(o0.as_mut_ptr().add(j), mask, s0);
        _mm256_maskstore_ps(o1.as_mut_ptr().add(j), mask, s1);
        _mm256_maskstore_ps(o2.as_mut_ptr().add(j), mask, s2);
        _mm256_maskstore_ps(o3.as_mut_ptr().add(j), mask, s3);
        j += lanes as usize;
    }
}

/// `unsafe` only to share the dispatch-table signature; always safe to
/// call. Per-row panel body — the portable fallback.
unsafe fn matmul_block_scalar(
    a: &[f32],
    b: &[f32],
    first_row: usize,
    inner: usize,
    n: usize,
    out: &mut [f32],
) {
    for (r, out_row) in out.chunks_mut(n).enumerate() {
        let i = first_row + r;
        matmul_row_body::<false>(&a[i * inner..(i + 1) * inner], b, out_row);
    }
}

fn matmul_block_kernel() -> MatmulBlock {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => matmul_block_avx512,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => matmul_block_avx2,
        _ => matmul_block_scalar,
    }
}

// ---------------------------------------------------------------------------
// Elementwise: leaky ReLU fused with the f64<->f32 round trip — one pass
// that narrows each lane to f32, selects branch-free, and widens back.
// No intermediate f32 buffers; the select multiply carries no FMA, so the
// result is bit-identical across SIMD tiers.
// ---------------------------------------------------------------------------

#[inline(always)]
fn leaky_body(src: &[f64], slope: f32, dst: &mut [f64]) {
    for (d, &v) in dst.iter_mut().zip(src) {
        let x = v as f32;
        *d = f64::from(if x > 0.0 { x } else { slope * x });
    }
}

type LeakyKernel = unsafe fn(&[f64], f32, &mut [f64]);

/// # Safety
///
/// Requires AVX-512F (guaranteed by the [`simd_level`] dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn leaky_avx512(src: &[f64], slope: f32, dst: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = src.len();
    let vs = _mm256_set1_ps(slope);
    let zero = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let x = _mm512_cvtpd_ps(_mm512_loadu_pd(src.as_ptr().add(i)));
        let keep = _mm256_cmp_ps::<_CMP_GT_OQ>(x, zero);
        let r = _mm256_blendv_ps(_mm256_mul_ps(x, vs), x, keep);
        _mm512_storeu_pd(dst.as_mut_ptr().add(i), _mm512_cvtps_pd(r));
        i += 8;
    }
    leaky_body(&src[i..], slope, &mut dst[i..]);
}

/// # Safety
///
/// Requires AVX2 (guaranteed by the [`simd_level`] dispatch).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn leaky_avx2(src: &[f64], slope: f32, dst: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = src.len();
    let vs = _mm_set1_ps(slope);
    let zero = _mm_setzero_ps();
    let mut i = 0;
    while i + 4 <= n {
        let x = _mm256_cvtpd_ps(_mm256_loadu_pd(src.as_ptr().add(i)));
        let keep = _mm_cmpgt_ps(x, zero);
        let r = _mm_blendv_ps(_mm_mul_ps(x, vs), x, keep);
        _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_cvtps_pd(r));
        i += 4;
    }
    leaky_body(&src[i..], slope, &mut dst[i..]);
}

/// `unsafe` only to share the dispatch-table signature; always safe to call.
unsafe fn leaky_scalar(src: &[f64], slope: f32, dst: &mut [f64]) {
    leaky_body(src, slope, dst)
}

/// Leaky ReLU over an `f64` buffer with f32 rounding semantics, in a single
/// fused narrow-select-widen pass.
pub(crate) fn leaky_relu(src: &[f64], slope: f64) -> Vec<f64> {
    let kernel: LeakyKernel = match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => leaky_avx512,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => leaky_avx2,
        _ => leaky_scalar,
    };
    let mut out = vec![0.0f64; src.len()];
    // SAFETY: the kernel was selected under runtime feature detection.
    unsafe { kernel(src, slope as f32, &mut out) };
    out
}

// ---------------------------------------------------------------------------
// Drivers shared by the precision-routed Tensor methods and TensorF32.
// ---------------------------------------------------------------------------

fn matmul_rows(a32: &[f32], b32: &[f32], m: usize, inner: usize, n: usize, out32: &mut [f32]) {
    let kernel = matmul_block_kernel();
    crate::tensor::run_rowblocks(out32, n, m * n * inner, |first_row, chunk| {
        // SAFETY: the kernel was selected under runtime feature detection.
        unsafe { kernel(a32, b32, first_row, inner, n, chunk) }
    });
}

/// `out = A * B` through the f32 backend; shapes as in `Tensor::matmul`.
pub(crate) fn matmul_into(a: &[f64], b: &[f64], m: usize, inner: usize, n: usize, out: &mut [f64]) {
    f32_matmuls().incr();
    let (a32, b32) = (to_f32(a), to_f32(b));
    let mut out32 = vec![0.0f32; m * n];
    matmul_rows(&a32, &b32, m, inner, n, &mut out32);
    write_f64(&out32, out);
}

fn matmul_ta_rows(a32: &[f32], b32: &[f32], r_dim: usize, p: usize, n: usize, out32: &mut [f32]) {
    // Materializing Aᵀ once turns Aᵀ·B into the plain row-panel product over
    // contiguous B rows: the O(r·p) gather is amortized by the O(r·p·n)
    // kernel, and each output row sees the same column values in the same
    // order a per-row strided gather would produce.
    let at = transpose_f32(a32, r_dim, p);
    matmul_rows(&at, b32, p, r_dim, n, out32);
}

/// `out = Aᵀ * B` through the f32 backend; shapes as in
/// `Tensor::matmul_transpose_a` (`A` is `r_dim x p`, `B` is `r_dim x n`).
pub(crate) fn matmul_ta_into(
    a: &[f64],
    b: &[f64],
    r_dim: usize,
    p: usize,
    n: usize,
    out: &mut [f64],
) {
    f32_matmuls().incr();
    // Aᵀ is materialized straight from the f64 source — the narrowing pass
    // and the transpose fuse into one sweep.
    let at = transpose_to_f32(a, r_dim, p);
    let b32 = to_f32(b);
    let mut out32 = vec![0.0f32; p * n];
    matmul_rows(&at, &b32, p, r_dim, n, &mut out32);
    write_f64(&out32, out);
}

fn matmul_tb_rows(a32: &[f32], b32: &[f32], m: usize, inner: usize, n: usize, out32: &mut [f32]) {
    // Materializing Bᵀ once (an O(n·inner) copy) turns every output row into
    // the same contiguous panel product the plain matmul kernel runs — ~3x
    // faster on the backward-pass shapes than strided per-element dot
    // products.
    let bt = transpose_f32(b32, n, inner);
    matmul_rows(a32, &bt, m, inner, n, out32);
}

/// `out = A * Bᵀ` through the f32 backend; shapes as in
/// `Tensor::matmul_transpose_b` (`A` is `m x inner`, `B` is `n x inner`).
pub(crate) fn matmul_tb_into(
    a: &[f64],
    b: &[f64],
    m: usize,
    inner: usize,
    n: usize,
    out: &mut [f64],
) {
    f32_matmuls().incr();
    let a32 = to_f32(a);
    let mut out32 = vec![0.0f32; m * n];
    // Bᵀ is materialized straight from the f64 source (narrow and transpose
    // in one sweep), then the plain panel kernel runs.
    let bt = transpose_to_f32(b, n, inner);
    matmul_rows(&a32, &bt, m, inner, n, &mut out32);
    write_f64(&out32, out);
}

// ---------------------------------------------------------------------------
// Adam: the elementwise moment/update loop in f32.
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn adam_body(
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    for i in 0..value.len() {
        let g = grad[i];
        let mi = beta1 * m[i] + (1.0 - beta1) * g;
        let vi = beta2 * v[i] + (1.0 - beta2) * g * g;
        m[i] = mi;
        v[i] = vi;
        let m_hat = mi / bc1;
        let v_hat = vi / bc2;
        value[i] -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

type AdamKernel =
    unsafe fn(&mut [f32], &[f32], &mut [f32], &mut [f32], f32, f32, f32, f32, f32, f32);

#[allow(clippy::too_many_arguments)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn adam_avx512(
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    adam_body(value, grad, m, v, lr, beta1, beta2, eps, bc1, bc2)
}

#[allow(clippy::too_many_arguments)]
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn adam_avx2(
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    adam_body(value, grad, m, v, lr, beta1, beta2, eps, bc1, bc2)
}

/// `unsafe` only to share the dispatch-table signature; always safe to call.
#[allow(clippy::too_many_arguments)]
unsafe fn adam_scalar(
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    adam_body(value, grad, m, v, lr, beta1, beta2, eps, bc1, bc2)
}

/// One Adam update in f32: moments and parameters are rounded to f32,
/// updated with the SIMD-vectorized loop, and widened back.
#[allow(clippy::too_many_arguments)]
pub(crate) fn adam_update(
    value: &mut [f64],
    grad: &[f64],
    m: &mut [f64],
    v: &mut [f64],
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    bc1: f64,
    bc2: f64,
) {
    let kernel: AdamKernel = match simd_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => adam_avx512,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => adam_avx2,
        _ => adam_scalar,
    };
    let mut value32 = to_f32(value);
    let grad32 = to_f32(grad);
    let mut m32 = to_f32(m);
    let mut v32 = to_f32(v);
    // SAFETY: the kernel was selected under runtime feature detection.
    unsafe {
        kernel(
            &mut value32,
            &grad32,
            &mut m32,
            &mut v32,
            lr as f32,
            beta1 as f32,
            beta2 as f32,
            eps as f32,
            bc1 as f32,
            bc2 as f32,
        )
    };
    write_f64(&value32, value);
    write_f64(&m32, m);
    write_f64(&v32, v);
}

// ---------------------------------------------------------------------------
// TensorF32: a thin public handle on the same kernels.
// ---------------------------------------------------------------------------

/// A dense, row-major `f32` tensor over the same SIMD kernels the
/// precision-routed [`Tensor`](crate::Tensor) paths use.
///
/// This is the direct way to drive the f32 backend without flipping the
/// process-global [`Precision`](vaesa_linalg::Precision) — benchmarks and
/// property tests compare it against the `f64` reference kernel for the
/// same inputs.
///
/// # Examples
///
/// ```
/// use vaesa_nn::{Tensor, TensorF32};
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let c = TensorF32::from_f64(&a).matmul(&TensorF32::from_f64(&a)).to_f64();
/// assert_eq!(c.get(0, 0), 7.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TensorF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl TensorF32 {
    /// Creates a `rows x cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        TensorF32 {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        TensorF32 { rows, cols, data }
    }

    /// Rounds an `f64` tensor to `f32` storage.
    pub fn from_f64(t: &crate::Tensor) -> Self {
        TensorF32 {
            rows: t.rows(),
            cols: t.cols(),
            data: to_f32(t.as_slice()),
        }
    }

    /// Widens back to an `f64` tensor (exact: every `f32` is an `f64`).
    pub fn to_f64(&self) -> crate::Tensor {
        crate::Tensor::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| f64::from(v)).collect(),
        )
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self * other` on the SIMD f32 kernel; accumulation
    /// order is fixed for every thread count and SIMD width.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &TensorF32) -> TensorF32 {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions differ ({} vs {})",
            self.cols, other.rows
        );
        let (m, inner, n) = (self.rows, self.cols, other.cols);
        let mut out = TensorF32::zeros(m, n);
        if m == 0 || n == 0 || inner == 0 {
            return out;
        }
        matmul_rows(&self.data, &other.data, m, inner, n, &mut out.data);
        out
    }

    /// Fused product `selfᵀ * other` (shapes as in
    /// `Tensor::matmul_transpose_a`).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_transpose_a(&self, other: &TensorF32) -> TensorF32 {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transpose_a: shared row counts differ ({} vs {})",
            self.rows, other.rows
        );
        let (r_dim, p, n) = (self.rows, self.cols, other.cols);
        let mut out = TensorF32::zeros(p, n);
        if p == 0 || n == 0 || r_dim == 0 {
            return out;
        }
        matmul_ta_rows(&self.data, &other.data, r_dim, p, n, &mut out.data);
        out
    }

    /// Fused product `self * otherᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b(&self, other: &TensorF32) -> TensorF32 {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b: inner dimensions differ ({} vs {})",
            self.cols, other.cols
        );
        let (m, inner, n) = (self.rows, self.cols, other.rows);
        let mut out = TensorF32::zeros(m, n);
        if m == 0 || n == 0 || inner == 0 {
            return out;
        }
        matmul_tb_rows(&self.data, &other.data, m, inner, n, &mut out.data);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn pattern(rows: usize, cols: usize, salt: u64) -> Tensor {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn f32_matmul_tracks_f64_reference() {
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 5), (7, 13, 17), (64, 65, 63)] {
            let a = pattern(m, k, 3);
            let b = pattern(k, n, 4);
            let exact = a.matmul(&b);
            let fast = TensorF32::from_f64(&a)
                .matmul(&TensorF32::from_f64(&b))
                .to_f64();
            let tol = 1e-4 * k.max(1) as f64;
            assert!(
                fast.approx_eq(&exact, tol),
                "f32 matmul diverged at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn f32_transpose_variants_track_f64_reference() {
        let (m, k, n) = (13, 17, 5);
        let a = pattern(m, k, 7);
        let b = pattern(m, n, 8);
        let c = pattern(n, k, 9);
        let (a32, b32, c32) = (
            TensorF32::from_f64(&a),
            TensorF32::from_f64(&b),
            TensorF32::from_f64(&c),
        );
        let tol = 1e-4 * m.max(k) as f64;
        assert!(a32
            .matmul_transpose_a(&b32)
            .to_f64()
            .approx_eq(&a.matmul_transpose_a(&b), tol));
        assert!(a32
            .matmul_transpose_b(&c32)
            .to_f64()
            .approx_eq(&a.matmul_transpose_b(&c), tol));
    }

    #[test]
    fn empty_shapes_are_well_formed() {
        let a = TensorF32::zeros(0, 4);
        let b = TensorF32::zeros(4, 3);
        assert_eq!(a.matmul(&b).shape(), (0, 3));
        let c = TensorF32::zeros(2, 0);
        assert_eq!(c.matmul(&TensorF32::zeros(0, 5)).as_slice(), &[0.0; 10]);
        assert_eq!(
            c.matmul_transpose_b(&TensorF32::zeros(3, 0)).shape(),
            (2, 3)
        );
    }

    #[test]
    fn adam_update_f32_tracks_f64() {
        let n = 37;
        let value = pattern(1, n, 31).into_vec();
        let grad = pattern(1, n, 32).into_vec();
        let m0 = pattern(1, n, 33).map(|x| x * 0.1).into_vec();
        let v0 = pattern(1, n, 34).map(|x| x.abs() * 0.01).into_vec();
        let (lr, b1, b2, eps) = (1e-3, 0.9, 0.999, 1e-8);
        let (bc1, bc2) = (1.0 - 0.9f64.powi(3), 1.0 - 0.999f64.powi(3));

        // f64 reference update.
        let mut value64 = value.clone();
        let mut m64 = m0.clone();
        let mut v64 = v0.clone();
        for i in 0..n {
            let g = grad[i];
            let m = b1 * m64[i] + (1.0 - b1) * g;
            let v = b2 * v64[i] + (1.0 - b2) * g * g;
            m64[i] = m;
            v64[i] = v;
            value64[i] -= lr * (m / bc1) / ((v / bc2).sqrt() + eps);
        }

        let mut value32 = value.clone();
        let mut m32 = m0.clone();
        let mut v32 = v0.clone();
        adam_update(
            &mut value32,
            &grad,
            &mut m32,
            &mut v32,
            lr,
            b1,
            b2,
            eps,
            bc1,
            bc2,
        );
        for i in 0..n {
            assert!(
                (value32[i] - value64[i]).abs() < 1e-5,
                "adam f32 diverged at {i}: {} vs {}",
                value32[i],
                value64[i]
            );
        }
    }
}
