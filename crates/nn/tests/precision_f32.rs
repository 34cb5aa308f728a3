//! Property tests for the f32 SIMD backend: every f32 matmul variant must
//! stay within an analytic error bound of an f64 reference computed on the
//! same (f32-rounded) inputs, across random shapes including empty, 1-row,
//! and odd-tail cases. A separate serialized section checks the precision-
//! routed `Tensor` path: bounded drift where f32 routing engages, bit-exact
//! f64 results where the amortize guard keeps it off.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;
use vaesa_nn::{randn, set_precision, Precision, Tensor, TensorF32};

/// Scalar f64 reference matmul that never consults the global precision
/// mode, so these tests stay correct even if another test in this binary is
/// concurrently holding the mode at f32.
fn ref_matmul(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            for j in 0..n {
                out[i * n + j] += av * b[kk * n + j];
            }
        }
    }
    out
}

/// Element-wise magnitude reference `Σ_k |a||b|`, the scale the rounding
/// bound is relative to.
fn abs_matmul(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let aa: Vec<f64> = a.iter().map(|v| v.abs()).collect();
    let bb: Vec<f64> = b.iter().map(|v| v.abs()).collect();
    ref_matmul(&aa, &bb, m, k, n)
}

/// Asserts `|got - want| <= bound` element-wise, where the bound charges one
/// f32 ulp (~1.2e-7) per accumulation step against the magnitude sum, plus
/// an absolute floor for cancellation down to zero.
fn assert_within_f32_bound(
    got: &[f64],
    want: &[f64],
    mags: &[f64],
    inner: usize,
) -> Result<(), TestCaseError> {
    const EPS32: f64 = f32::EPSILON as f64; // 1.19e-7
    for ((&g, &w), &m) in got.iter().zip(want).zip(mags) {
        let bound = EPS32 * (inner as f64 + 4.0) * m + 1e-9;
        prop_assert!(
            (g - w).abs() <= bound,
            "f32 result {g} vs f64 reference {w} exceeds bound {bound} (magnitude {m}, inner {inner})"
        );
    }
    Ok(())
}

/// Inputs rounded to f32 once, then widened: both sides of every comparison
/// see the identical operand values, so the check isolates kernel
/// accumulation error from input representation error.
fn rounded_pair(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> (TensorF32, Vec<f64>) {
    let t = randn(rows, cols, rng);
    let t32 = TensorF32::from_f64(&t);
    let widened: Vec<f64> = t32.as_slice().iter().map(|&v| f64::from(v)).collect();
    (t32, widened)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `TensorF32::matmul` tracks the f64 reference within the accumulation
    /// bound for random shapes, including empty dims (0), single rows, and
    /// odd tails that exercise the masked SIMD lanes.
    #[test]
    fn f32_matmul_within_bound(
        seed in 0u64..1000,
        m in 0usize..34,
        k in 0usize..34,
        n in 0usize..34,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (a32, a) = rounded_pair(m, k, &mut rng);
        let (b32, b) = rounded_pair(k, n, &mut rng);
        let got = a32.matmul(&b32).to_f64();
        let want = ref_matmul(&a, &b, m, k, n);
        let mags = abs_matmul(&a, &b, m, k, n);
        assert_within_f32_bound(got.as_slice(), &want, &mags, k)?;
    }

    /// The fused-transpose variants (`AᵀB` and `ABᵀ`) satisfy the same
    /// bound.
    #[test]
    fn f32_transpose_matmuls_within_bound(
        seed in 0u64..1000,
        m in 0usize..34,
        k in 0usize..34,
        n in 0usize..34,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        // AᵀB: A is k x m (shared dim first), B is k x n.
        let (a32, a) = rounded_pair(k, m, &mut rng);
        let (b32, b) = rounded_pair(k, n, &mut rng);
        let got = a32.matmul_transpose_a(&b32).to_f64();
        let mut at = vec![0.0; m * k];
        for r in 0..k {
            for c in 0..m {
                at[c * k + r] = a[r * m + c];
            }
        }
        let want = ref_matmul(&at, &b, m, k, n);
        let mags = abs_matmul(&at, &b, m, k, n);
        assert_within_f32_bound(got.as_slice(), &want, &mags, k)?;

        // ABᵀ: A is m x k, B is n x k (shared dim last).
        let (a32, a) = rounded_pair(m, k, &mut rng);
        let (b32, b) = rounded_pair(n, k, &mut rng);
        let mut bt = vec![0.0; k * n];
        for r in 0..n {
            for c in 0..k {
                bt[c * n + r] = b[r * k + c];
            }
        }
        let want = ref_matmul(&a, &bt, m, k, n);
        let mags = abs_matmul(&a, &bt, m, k, n);
        let got = a32.matmul_transpose_b(&b32).to_f64();
        assert_within_f32_bound(got.as_slice(), &want, &mags, k)?;
    }
}

/// Tests below flip the process-global precision; they serialize on this
/// mutex and restore f64 on drop (including panic unwinds) so concurrent
/// tests in this binary never observe a stray f32 mode.
static PRECISION_LOCK: Mutex<()> = Mutex::new(());

struct F32ModeGuard<'a> {
    _lock: std::sync::MutexGuard<'a, ()>,
}

impl F32ModeGuard<'_> {
    fn engage() -> Self {
        let lock = PRECISION_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_precision(Precision::F32);
        F32ModeGuard { _lock: lock }
    }
}

impl Drop for F32ModeGuard<'_> {
    fn drop(&mut self) {
        set_precision(Precision::F64);
    }
}

/// With the global mode at f32, a shape large enough to amortize the
/// conversion routes through the f32 kernels (bounded drift from the f64
/// reference), while a shape below the amortize threshold stays on the f64
/// path bit-exactly.
#[test]
fn routed_tensor_matmul_respects_amortize_guard() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    // 64x64x48: m*k*n = 196_608 >= 4*(m*k + k*n + m*n) = 40_960 → routes.
    let a = randn(64, 64, &mut rng);
    let b = randn(64, 48, &mut rng);
    // 64x32x1: head-output shape, conversion dominates → stays f64.
    let c = randn(64, 32, &mut rng);
    let d = randn(32, 1, &mut rng);

    let want_ab = a.matmul(&b);
    let want_cd = c.matmul(&d);

    let _mode = F32ModeGuard::engage();
    let got_ab = a.matmul(&b);
    let got_cd = c.matmul(&d);

    const EPS32: f64 = f32::EPSILON as f64;
    let mags = abs_matmul(a.as_slice(), b.as_slice(), 64, 64, 48);
    for ((&g, &w), &m) in got_ab.as_slice().iter().zip(want_ab.as_slice()).zip(&mags) {
        // One extra (input-rounding) ulp per operand pair on top of the
        // accumulation bound: the routed path narrows f64 inputs itself.
        let bound = EPS32 * (64.0 + 4.0 + 2.0) * m + 1e-9;
        assert!(
            (g - w).abs() <= bound,
            "routed f32 {g} vs f64 {w} > {bound}"
        );
    }
    assert!(
        got_ab.as_slice() != want_ab.as_slice(),
        "64x64x48 should have routed to f32 (bit-identical result means the guard never engaged)"
    );
    assert_eq!(
        got_cd.as_slice(),
        want_cd.as_slice(),
        "sub-threshold shape must stay bit-exact f64 under f32 mode"
    );
}

/// The f32 fused leaky-ReLU matches the f64 activation within one f32
/// rounding of the input, and preserves sign-selection semantics exactly
/// (negative slope side, zero, NaN propagation).
#[test]
fn routed_leaky_relu_tracks_f64() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let x = randn(33, 17, &mut rng); // odd tail on both SIMD widths
    let want = x.leaky_relu(0.01);

    let _mode = F32ModeGuard::engage();
    let got = x.leaky_relu(0.01);
    const EPS32: f64 = f32::EPSILON as f64;
    for (&g, (&w, &src)) in got
        .as_slice()
        .iter()
        .zip(want.as_slice().iter().zip(x.as_slice()))
    {
        let bound = 2.0 * EPS32 * src.abs() + 1e-12;
        assert!((g - w).abs() <= bound, "leaky f32 {g} vs f64 {w} at {src}");
        assert_eq!(g > 0.0, w > 0.0, "slope selection must match at {src}");
    }

    // Edge semantics: the f32 path must agree with the scalar definition
    // `if x > 0 { x } else { slope * x }` on zero signs and NaN.
    let edge = Tensor::from_vec(1, 4, vec![0.0, -0.0, f64::NAN, -1.0]);
    let e = edge.leaky_relu(0.01);
    assert_eq!(e.get(0, 0), 0.0);
    assert_eq!(e.get(0, 1).to_bits(), (-0.0f64 * 0.01).to_bits());
    assert!(e.get(0, 2).is_nan());
    assert!((e.get(0, 3) - (-0.01)).abs() <= 1e-9);
}
