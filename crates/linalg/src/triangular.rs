//! Blocked multi-right-hand-side forward substitution.
//!
//! One K*-matrix solve replaces hundreds of per-candidate vector solves in
//! the Gaussian-process prediction hot path. The right-hand sides sit in the
//! columns of a row-major matrix, so the innermost loop runs contiguously
//! across RHS columns and vectorizes; the factor entry `L[i][k]` is loaded
//! once per row pair instead of once per RHS.
//!
//! Per column, the accumulation order and the final division are exactly the
//! sequence a single-RHS solve performs (subtract `L[i][k]·y[k]` for
//! `k = 0..i` in order, then divide by the diagonal), so batched results are
//! bit-identical to per-column solves — at any thread count, because columns
//! are arithmetically independent and the parallel path only partitions them.
//!
//! Output rows advance in blocks of `ROW_BLOCK`: each already-solved row
//! streams through cache once per block instead of once per output row, and
//! the fused update applies it to all rows of the block. For a fixed output
//! element the subtractions still arrive in increasing-`k` order, so blocking
//! never changes a single bit. The row-update kernels have AVX2 and
//! AVX-512F bodies picked by [`crate::simd_level`]; wider registers execute
//! the same IEEE operations, never FMA, so every tier gives the same bits.

use crate::simd_level;

/// Minimum `n²·m` volume before the column blocks fan out across the thread
/// pool; below this the fan-out costs more than the work it hides.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// Output rows advanced together by the blocked forward substitution. Four
/// rows share each streamed prior row while staying comfortably inside L1
/// alongside it for the RHS widths the DSE hot paths use.
const ROW_BLOCK: usize = 4;

/// `(y, p, c)`: `y[j] -= c · p[j]` across one row pair.
type AxpySub = unsafe fn(&mut [f64], &[f64], f64);

/// `(y0, y1, y2, y3, p, c)`: one streamed prior row `p` applied to four
/// in-progress rows at once, `yr[j] -= c[r] · p[j]`.
type AxpySub4 = unsafe fn(&mut [f64], &mut [f64], &mut [f64], &mut [f64], &[f64], [f64; 4]);

/// `(y0, y1, y2, y3, pa, pb, ca, cb)`: two consecutive prior rows applied to
/// four in-progress rows, `yr[j] = (yr[j] − ca[r]·pa[j]) − cb[r]·pb[j]`.
type AxpySub4x2 =
    unsafe fn(&mut [f64], &mut [f64], &mut [f64], &mut [f64], &[f64], &[f64], [f64; 4], [f64; 4]);

/// The row-update kernels of one SIMD tier.
///
/// # Safety
///
/// A SIMD tier's kernels may be called only on a CPU where
/// [`simd_level`] reports that tier or a wider one.
struct Kernels {
    axpy_sub: AxpySub,
    axpy_sub4: AxpySub4,
    axpy_sub4x2: AxpySub4x2,
}

/// The portable bodies; every SIMD tier compiles these same bodies.
const SCALAR: Kernels = Kernels {
    axpy_sub: axpy_sub_body,
    axpy_sub4: axpy_sub4_body,
    axpy_sub4x2: axpy_sub4x2_body,
};

/// The kernels of the tier [`simd_level`] selects for this process.
fn kernels() -> &'static Kernels {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        crate::SimdLevel::Avx512 => &avx512::KERNELS,
        #[cfg(target_arch = "x86_64")]
        crate::SimdLevel::Avx2 => &avx2::KERNELS,
        _ => &SCALAR,
    }
}

#[inline(always)]
fn axpy_sub_body(y: &mut [f64], p: &[f64], c: f64) {
    for (y, &p) in y.iter_mut().zip(p) {
        *y -= c * p;
    }
}

#[inline(always)]
fn axpy_sub4_body(
    y0: &mut [f64],
    y1: &mut [f64],
    y2: &mut [f64],
    y3: &mut [f64],
    p: &[f64],
    c: [f64; 4],
) {
    let len = p.len();
    assert!(y0.len() == len && y1.len() == len && y2.len() == len && y3.len() == len);
    for j in 0..len {
        let pj = p[j];
        y0[j] -= c[0] * pj;
        y1[j] -= c[1] * pj;
        y2[j] -= c[2] * pj;
        y3[j] -= c[3] * pj;
    }
}

/// Each output element is loaded and stored once for both updates, and the
/// two subtractions happen in `pa`-then-`pb` order — the same sequence two
/// [`axpy_sub4_body`] calls would perform.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat slices keep the kernel registerizable
fn axpy_sub4x2_body(
    y0: &mut [f64],
    y1: &mut [f64],
    y2: &mut [f64],
    y3: &mut [f64],
    pa: &[f64],
    pb: &[f64],
    ca: [f64; 4],
    cb: [f64; 4],
) {
    let len = pa.len();
    assert!(
        pb.len() == len && y0.len() == len && y1.len() == len && y2.len() == len && y3.len() == len
    );
    for j in 0..len {
        let a = pa[j];
        let b = pb[j];
        y0[j] = (y0[j] - ca[0] * a) - cb[0] * b;
        y1[j] = (y1[j] - ca[1] * a) - cb[1] * b;
        y2[j] = (y2[j] - ca[2] * a) - cb[2] * b;
        y3[j] = (y3[j] - ca[3] * a) - cb[3] * b;
    }
}

/// The scalar bodies compiled under one target feature, so the compiler
/// widens their loops to that tier's registers.
#[cfg(target_arch = "x86_64")]
macro_rules! simd_kernels {
    ($feature:literal) => {
        use super::{axpy_sub4_body, axpy_sub4x2_body, axpy_sub_body, Kernels};

        #[target_feature(enable = $feature)]
        unsafe fn axpy_sub(y: &mut [f64], p: &[f64], c: f64) {
            axpy_sub_body(y, p, c)
        }

        #[target_feature(enable = $feature)]
        unsafe fn axpy_sub4(
            y0: &mut [f64],
            y1: &mut [f64],
            y2: &mut [f64],
            y3: &mut [f64],
            p: &[f64],
            c: [f64; 4],
        ) {
            axpy_sub4_body(y0, y1, y2, y3, p, c)
        }

        #[target_feature(enable = $feature)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn axpy_sub4x2(
            y0: &mut [f64],
            y1: &mut [f64],
            y2: &mut [f64],
            y3: &mut [f64],
            pa: &[f64],
            pb: &[f64],
            ca: [f64; 4],
            cb: [f64; 4],
        ) {
            axpy_sub4x2_body(y0, y1, y2, y3, pa, pb, ca, cb)
        }

        /// This tier's kernels; callable only where [`crate::simd_level`]
        /// reports the tier.
        pub(super) const KERNELS: Kernels = Kernels {
            axpy_sub,
            axpy_sub4,
            axpy_sub4x2,
        };
    };
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    simd_kernels!("avx2");
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    simd_kernels!("avx512f");
}

/// `y[j] /= d` across one row.
#[inline(always)]
fn div_row(y: &mut [f64], d: f64) {
    for y in y.iter_mut() {
        *y /= d;
    }
}

/// Offset of row `i` in a packed row-major lower triangle (row `i` holds
/// `i + 1` entries); `packed_row_offset(n)` is the length of a packed
/// triangle of dimension `n`.
#[inline]
pub fn packed_row_offset(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Forward substitution `L Y = B` on one row-major `n x m` block, in place.
///
/// Rows advance in blocks of [`ROW_BLOCK`]: the updates from already-solved
/// rows (`k < i0`) are applied to the whole block first — one streamed pass
/// over the prior rows instead of one per output row — and the triangular
/// dependencies inside the block are resolved afterwards. Per output element
/// the subtraction order is still `k = 0..i` ascending, then the division.
fn forward_block(l: &[f64], n: usize, data: &mut [f64], m: usize) {
    let kernels = kernels();
    let mut i0 = 0;
    while i0 < n {
        let ib = ROW_BLOCK.min(n - i0);
        let (prior, rest) = data.split_at_mut(i0 * m);
        let block = &mut rest[..ib * m];
        // Phase 1: contributions from all fully-solved rows, k ascending.
        if ib == ROW_BLOCK {
            let (y0, tail) = block.split_at_mut(m);
            let (y1, tail) = tail.split_at_mut(m);
            let (y2, y3) = tail.split_at_mut(m);
            let offs = [
                packed_row_offset(i0),
                packed_row_offset(i0 + 1),
                packed_row_offset(i0 + 2),
                packed_row_offset(i0 + 3),
            ];
            let coeffs = |k: usize| {
                [
                    l[offs[0] + k],
                    l[offs[1] + k],
                    l[offs[2] + k],
                    l[offs[3] + k],
                ]
            };
            let mut k = 0;
            while k + 1 < i0 {
                let (pa, pb) = prior[k * m..(k + 2) * m].split_at(m);
                let (ca, cb) = (coeffs(k), coeffs(k + 1));
                // SAFETY: `kernels` picked a tier this CPU runs.
                unsafe { (kernels.axpy_sub4x2)(y0, y1, y2, y3, pa, pb, ca, cb) };
                k += 2;
            }
            if k < i0 {
                let p = &prior[k * m..(k + 1) * m];
                // SAFETY: `kernels` picked a tier this CPU runs.
                unsafe { (kernels.axpy_sub4)(y0, y1, y2, y3, p, coeffs(k)) };
            }
        } else {
            for r in 0..ib {
                let off = packed_row_offset(i0 + r);
                let row_r = &mut block[r * m..(r + 1) * m];
                for k in 0..i0 {
                    let p = &prior[k * m..(k + 1) * m];
                    // SAFETY: `kernels` picked a tier this CPU runs.
                    unsafe { (kernels.axpy_sub)(row_r, p, l[off + k]) };
                }
            }
        }
        // Phase 2: triangular dependencies inside the block, then divide.
        for r in 0..ib {
            let i = i0 + r;
            let off = packed_row_offset(i);
            let (done, row_i) = block.split_at_mut(r * m);
            let row_i = &mut row_i[..m];
            for q in 0..r {
                let p = &done[q * m..(q + 1) * m];
                // SAFETY: `kernels` picked a tier this CPU runs.
                unsafe { (kernels.axpy_sub)(row_i, p, l[off + i0 + q]) };
            }
            div_row(row_i, l[off + i]);
        }
        i0 += ib;
    }
}

/// Solves `L Y = B` in place for every column of the row-major `n x m`
/// matrix `b`, where `l` is a packed row-major lower triangle of dimension
/// `n` (see [`packed_row_offset`]).
///
/// Column `j` of the result is bit-identical to a single-RHS forward
/// substitution on column `j` of `b`, at any thread count.
///
/// # Panics
///
/// Panics if `l.len() != n(n+1)/2` or `b.len() != n * m`.
pub fn solve_lower_multi(l: &[f64], n: usize, b: &mut [f64], m: usize) {
    solve_lower_multi_threads(l, n, b, m, vaesa_par::num_threads());
}

/// [`solve_lower_multi`] on at most `threads` workers. Large problems split
/// the columns into per-thread blocks, each solved with the same per-column
/// arithmetic, so the split never changes results.
fn solve_lower_multi_threads(l: &[f64], n: usize, b: &mut [f64], m: usize, threads: usize) {
    assert_eq!(
        l.len(),
        packed_row_offset(n),
        "packed triangle length {} != n(n+1)/2 for n = {n}",
        l.len()
    );
    assert_eq!(b.len(), n * m, "rhs has {} entries, not {n} x {m}", b.len());
    if n == 0 || m == 0 {
        return;
    }
    if threads > 1 && m >= 2 && n * n * m >= PAR_MIN_FLOPS {
        let ranges = vaesa_par::split_ranges(m, threads.min(m));
        let src = &*b;
        let solved: Vec<Vec<f64>> = vaesa_par::par_map_threads(&ranges, threads, |r| {
            let w = r.len();
            let mut block = vec![0.0; n * w];
            for i in 0..n {
                block[i * w..(i + 1) * w].copy_from_slice(&src[i * m + r.start..i * m + r.end]);
            }
            forward_block(l, n, &mut block, w);
            block
        });
        for (r, block) in ranges.iter().zip(solved) {
            let w = r.len();
            for i in 0..n {
                b[i * m + r.start..i * m + r.end].copy_from_slice(&block[i * w..(i + 1) * w]);
            }
        }
    } else {
        forward_block(l, n, b, m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random stream for building test systems.
    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    /// A well-conditioned packed lower triangle: unit-scale diagonal,
    /// small off-diagonal entries.
    fn random_packed(n: usize, seed: &mut u64) -> Vec<f64> {
        let mut l = Vec::with_capacity(packed_row_offset(n));
        for i in 0..n {
            for _ in 0..i {
                l.push(0.4 * lcg(seed));
            }
            l.push(1.0 + 0.5 * lcg(seed).abs());
        }
        l
    }

    fn random_rhs(len: usize, seed: &mut u64) -> Vec<f64> {
        (0..len).map(|_| lcg(seed) * 3.0).collect()
    }

    /// Reference single-RHS forward substitution on a packed triangle.
    fn solve_lower_single(l: &[f64], n: usize, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        for i in 0..n {
            let off = packed_row_offset(i);
            let mut sum = y[i];
            for k in 0..i {
                sum -= l[off + k] * y[k];
            }
            y[i] = sum / l[off + i];
        }
        y
    }

    /// Checks `solve_lower_multi` column by column against the reference.
    fn assert_matches_per_column(l: &[f64], n: usize, b: &[f64], m: usize) {
        let mut out = b.to_vec();
        solve_lower_multi(l, n, &mut out, m);
        for j in 0..m {
            let col: Vec<f64> = (0..n).map(|i| b[i * m + j]).collect();
            let y = solve_lower_single(l, n, &col);
            for i in 0..n {
                assert_eq!(out[i * m + j].to_bits(), y[i].to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn multi_solve_matches_single_rhs_bitwise() {
        let mut seed = 7u64;
        for (n, m) in [(1, 1), (3, 5), (17, 9), (40, 33)] {
            let l = random_packed(n, &mut seed);
            let b = random_rhs(n * m, &mut seed);
            assert_matches_per_column(&l, n, &b, m);
        }
    }

    #[test]
    fn parallel_split_is_bit_identical_to_serial() {
        let mut seed = 11u64;
        let n = 120;
        let m = 96;
        // Large enough to cross PAR_MIN_FLOPS so the ranged path runs.
        assert!(n * n * m >= PAR_MIN_FLOPS);
        let l = random_packed(n, &mut seed);
        let b = random_rhs(n * m, &mut seed);
        let mut base = b.clone();
        solve_lower_multi_threads(&l, n, &mut base, m, 1);
        for threads in [2, 5] {
            let mut out = b.clone();
            solve_lower_multi_threads(&l, n, &mut out, m, threads);
            for (a, b) in base.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rhs has")]
    fn shape_mismatch_panics() {
        let l = random_packed(4, &mut 1u64);
        solve_lower_multi(&l, 4, &mut [0.0; 6], 2);
    }

    #[test]
    fn empty_rhs_is_a_no_op() {
        let l = random_packed(4, &mut 5u64);
        solve_lower_multi(&l, 4, &mut [], 0);
    }

    /// The tiers this CPU runs, scalar included, by name.
    fn tiers() -> Vec<(&'static str, &'static Kernels)> {
        #[allow(unused_mut)]
        let mut tiers = vec![("scalar", &SCALAR)];
        #[cfg(target_arch = "x86_64")]
        {
            if simd_level() >= crate::SimdLevel::Avx2 {
                tiers.push(("avx2", &avx2::KERNELS));
            }
            if simd_level() >= crate::SimdLevel::Avx512 {
                tiers.push(("avx512f", &avx512::KERNELS));
            }
        }
        tiers
    }

    /// Normal values mixed with signed zeros, subnormals, ±Inf, NaN and
    /// overflowing magnitudes.
    fn values(len: usize, salt: u64) -> Vec<f64> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let sign = if state & (1 << 20) == 0 { 1.0 } else { -1.0 };
                match (state >> 58) % 16 {
                    0 => 0.0,
                    1 => -0.0,
                    2 | 3 => sign * f64::from_bits((state >> 13) & ((1 << 40) - 1)),
                    4 => sign * f64::INFINITY,
                    5 => sign * 1e300,
                    6 => f64::NAN,
                    _ => ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0,
                }
            })
            .collect()
    }

    /// Same bits, except that a NaN only has to sit at the same position.
    fn assert_same_bits(want: &[f64], got: &[f64], what: &str) {
        assert_eq!(want.len(), got.len());
        for (e, (&w, &g)) in want.iter().zip(got).enumerate() {
            let same = if w.is_nan() {
                g.is_nan()
            } else {
                w.to_bits() == g.to_bits()
            };
            assert!(same, "{what}: element {e} is {g:e}, expected {w:e}");
        }
    }

    /// Every tier's three kernels give, per element, the bits of the
    /// documented scalar expression: `y − c·p` for `axpy_sub` and
    /// `axpy_sub4`, and `(y − ca·pa) − cb·pb` for `axpy_sub4x2`.
    #[test]
    fn every_tier_matches_the_scalar_expression_bit_for_bit() {
        for len in 0..=17 {
            let salt = len as u64 * 11;
            let rows: Vec<Vec<f64>> = (0..4).map(|r| values(len, salt + r)).collect();
            let (pa, pb) = (values(len, salt + 4), values(len, salt + 5));
            let c = values(8, salt + 6);
            let ca = [c[0], c[1], c[2], c[3]];
            let cb = [c[4], c[5], c[6], c[7]];
            for (name, k) in tiers() {
                let what = |kernel: &str, r: usize| format!("{name} {kernel} row {r} len {len}");
                // SAFETY (every call): `tiers` lists only what this CPU runs.
                let mut y = rows[0].clone();
                unsafe { (k.axpy_sub)(&mut y, &pa, ca[0]) };
                let want: Vec<f64> = rows[0]
                    .iter()
                    .zip(&pa)
                    .map(|(y, p)| y - ca[0] * p)
                    .collect();
                assert_same_bits(&want, &y, &what("axpy_sub", 0));

                let mut y = rows.clone();
                let [y0, y1, y2, y3] = &mut y[..] else {
                    unreachable!()
                };
                unsafe { (k.axpy_sub4)(y0, y1, y2, y3, &pa, ca) };
                for (r, got) in y.iter().enumerate() {
                    let want: Vec<f64> = rows[r]
                        .iter()
                        .zip(&pa)
                        .map(|(y, p)| y - ca[r] * p)
                        .collect();
                    assert_same_bits(&want, got, &what("axpy_sub4", r));
                }

                let mut y = rows.clone();
                let [y0, y1, y2, y3] = &mut y[..] else {
                    unreachable!()
                };
                unsafe { (k.axpy_sub4x2)(y0, y1, y2, y3, &pa, &pb, ca, cb) };
                for (r, got) in y.iter().enumerate() {
                    let want: Vec<f64> = (0..len)
                        .map(|j| (rows[r][j] - ca[r] * pa[j]) - cb[r] * pb[j])
                        .collect();
                    assert_same_bits(&want, got, &what("axpy_sub4x2", r));
                }
            }
        }
    }

    proptest! {
        /// Multi-RHS solves agree with column-by-column single-RHS solves on
        /// random well-conditioned systems.
        #[test]
        fn multi_rhs_agrees_with_per_column(
            n in 1usize..24,
            m in 1usize..12,
            raw in proptest::collection::vec(-1.0f64..1.0, 24 * 25 / 2 + 24 * 12),
        ) {
            // Build the packed factor and RHS from the raw pool.
            let mut l = Vec::with_capacity(packed_row_offset(n));
            let mut it = raw.iter().copied();
            for i in 0..n {
                for _ in 0..i {
                    l.push(0.4 * it.next().unwrap_or(0.3));
                }
                // Diagonal bounded away from zero: well-conditioned.
                l.push(1.0 + it.next().unwrap_or(0.0).abs());
            }
            let b: Vec<f64> = (0..n * m).map(|_| 2.5 * it.next().unwrap_or(0.7)).collect();
            assert_matches_per_column(&l, n, &b, m);
        }
    }
}
