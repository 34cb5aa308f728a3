//! Blocked multi-right-hand-side triangular solves.
//!
//! One K*-matrix solve replaces hundreds of per-candidate vector solves in
//! the Gaussian-process prediction hot path. The right-hand sides sit in the
//! columns of a row-major matrix, so the innermost loop runs contiguously
//! across RHS columns and vectorizes; the factor entry `L[i][k]` is loaded
//! once per row pair instead of once per RHS.
//!
//! Per column, the accumulation order and the final division are exactly the
//! sequence the single-RHS solves perform (subtract `L[i][k]·y[k]` for
//! `k = 0..i` in order, then divide by the diagonal), so batched results are
//! bit-identical to per-column solves — at any thread count, because columns
//! are arithmetically independent and the parallel path only partitions them.
//!
//! Forward substitution additionally processes output rows in blocks of
//! `ROW_BLOCK`: each already-solved row streams through cache once per
//! block instead of once per output row, and the fused update applies it to
//! all rows of the block. For a fixed output element the subtractions still
//! arrive in increasing-`k` order, so blocking never changes a single bit.
//! On `x86_64` the row-update kernels dispatch to an AVX-compiled copy at
//! runtime; wider registers execute the same IEEE operations, so results
//! are identical with or without it.

use crate::Matrix;

/// Minimum `n²·m` volume before the column blocks fan out across the thread
/// pool; below this the fan-out costs more than the work it hides.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// Output rows advanced together by the blocked forward substitution. Four
/// rows share each streamed prior row while staying comfortably inside L1
/// alongside it for the RHS widths the DSE hot paths use.
const ROW_BLOCK: usize = 4;

/// `y[j] -= c · p[j]` across one row pair.
#[inline(always)]
fn axpy_sub_body(y: &mut [f64], p: &[f64], c: f64) {
    for (y, &p) in y.iter_mut().zip(p) {
        *y -= c * p;
    }
}

/// One streamed prior row `p` applied to four in-progress rows at once.
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

/// Two consecutive prior rows applied to four in-progress rows: each output
/// element is loaded and stored once for both updates, and the two
/// subtractions happen in `pa`-then-`pb` order — the same sequence two
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_sub_avx512(y: &mut [f64], p: &[f64], c: f64) {
    axpy_sub_body(y, p, c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn axpy_sub_avx(y: &mut [f64], p: &[f64], c: f64) {
    axpy_sub_body(y, p, c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_sub4_avx512(
    y0: &mut [f64],
    y1: &mut [f64],
    y2: &mut [f64],
    y3: &mut [f64],
    p: &[f64],
    c: [f64; 4],
) {
    axpy_sub4_body(y0, y1, y2, y3, p, c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn axpy_sub4_avx(
    y0: &mut [f64],
    y1: &mut [f64],
    y2: &mut [f64],
    y3: &mut [f64],
    p: &[f64],
    c: [f64; 4],
) {
    axpy_sub4_body(y0, y1, y2, y3, p, c);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn axpy_sub4x2_avx512(
    y0: &mut [f64],
    y1: &mut [f64],
    y2: &mut [f64],
    y3: &mut [f64],
    pa: &[f64],
    pb: &[f64],
    ca: [f64; 4],
    cb: [f64; 4],
) {
    axpy_sub4x2_body(y0, y1, y2, y3, pa, pb, ca, cb);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)]
unsafe fn axpy_sub4x2_avx(
    y0: &mut [f64],
    y1: &mut [f64],
    y2: &mut [f64],
    y3: &mut [f64],
    pa: &[f64],
    pb: &[f64],
    ca: [f64; 4],
    cb: [f64; 4],
) {
    axpy_sub4x2_body(y0, y1, y2, y3, pa, pb, ca, cb);
}

#[inline]
fn axpy_sub(y: &mut [f64], p: &[f64], c: f64) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: each call is guarded by runtime feature detection.
        if is_x86_feature_detected!("avx512f") {
            return unsafe { axpy_sub_avx512(y, p, c) };
        }
        if is_x86_feature_detected!("avx") {
            return unsafe { axpy_sub_avx(y, p, c) };
        }
    }
    axpy_sub_body(y, p, c)
}

#[inline]
fn axpy_sub4(
    y0: &mut [f64],
    y1: &mut [f64],
    y2: &mut [f64],
    y3: &mut [f64],
    p: &[f64],
    c: [f64; 4],
) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: each call is guarded by runtime feature detection.
        if is_x86_feature_detected!("avx512f") {
            return unsafe { axpy_sub4_avx512(y0, y1, y2, y3, p, c) };
        }
        if is_x86_feature_detected!("avx") {
            return unsafe { axpy_sub4_avx(y0, y1, y2, y3, p, c) };
        }
    }
    axpy_sub4_body(y0, y1, y2, y3, p, c)
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn axpy_sub4x2(
    y0: &mut [f64],
    y1: &mut [f64],
    y2: &mut [f64],
    y3: &mut [f64],
    pa: &[f64],
    pb: &[f64],
    ca: [f64; 4],
    cb: [f64; 4],
) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: each call is guarded by runtime feature detection.
        if is_x86_feature_detected!("avx512f") {
            return unsafe { axpy_sub4x2_avx512(y0, y1, y2, y3, pa, pb, ca, cb) };
        }
        if is_x86_feature_detected!("avx") {
            return unsafe { axpy_sub4x2_avx(y0, y1, y2, y3, pa, pb, ca, cb) };
        }
    }
    axpy_sub4x2_body(y0, y1, y2, y3, pa, pb, ca, cb)
}

/// `y[j] /= d` across one row.
#[inline(always)]
fn div_row(y: &mut [f64], d: f64) {
    for y in y.iter_mut() {
        *y /= d;
    }
}

/// Offset of row `i` in a packed row-major lower triangle (row `i` holds
/// `i + 1` entries).
#[inline]
pub fn packed_row_offset(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Number of entries in a packed lower triangle of dimension `n`.
#[inline]
pub fn packed_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// How the lower-triangular factor is laid out in its backing slice.
#[derive(Debug, Clone, Copy)]
enum TriLayout {
    /// Packed rows: row `i` starts at `i(i+1)/2` and holds `i + 1` entries.
    Packed,
    /// Dense row-major `n x n` storage; entries above the diagonal ignored.
    Dense { n: usize },
}

impl TriLayout {
    #[inline]
    fn row_offset(self, i: usize) -> usize {
        match self {
            TriLayout::Packed => packed_row_offset(i),
            TriLayout::Dense { n } => i * n,
        }
    }
}

/// Forward substitution `L Y = B` on one row-major `n x m` block, in place.
///
/// Rows advance in blocks of [`ROW_BLOCK`]: the updates from already-solved
/// rows (`k < i0`) are applied to the whole block first — one streamed pass
/// over the prior rows instead of one per output row — and the triangular
/// dependencies inside the block are resolved afterwards. Per output element
/// the subtraction order is still `k = 0..i` ascending, then the division.
fn forward_block(l: &[f64], layout: TriLayout, n: usize, data: &mut [f64], m: usize) {
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
                layout.row_offset(i0),
                layout.row_offset(i0 + 1),
                layout.row_offset(i0 + 2),
                layout.row_offset(i0 + 3),
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
                axpy_sub4x2(y0, y1, y2, y3, pa, pb, coeffs(k), coeffs(k + 1));
                k += 2;
            }
            if k < i0 {
                axpy_sub4(y0, y1, y2, y3, &prior[k * m..(k + 1) * m], coeffs(k));
            }
        } else {
            for r in 0..ib {
                let off = layout.row_offset(i0 + r);
                let row_r = &mut block[r * m..(r + 1) * m];
                for k in 0..i0 {
                    axpy_sub(row_r, &prior[k * m..(k + 1) * m], l[off + k]);
                }
            }
        }
        // Phase 2: triangular dependencies inside the block, then divide.
        for r in 0..ib {
            let i = i0 + r;
            let off = layout.row_offset(i);
            let (done, row_i) = block.split_at_mut(r * m);
            let row_i = &mut row_i[..m];
            for q in 0..r {
                axpy_sub(row_i, &done[q * m..(q + 1) * m], l[off + i0 + q]);
            }
            div_row(row_i, l[off + i]);
        }
        i0 += ib;
    }
}

/// Back substitution `Lᵀ X = Y` on one row-major `n x m` block, in place.
fn backward_block(l: &[f64], layout: TriLayout, n: usize, data: &mut [f64], m: usize) {
    for i in (0..n).rev() {
        let (head, tail) = data.split_at_mut((i + 1) * m);
        let row_i = &mut head[i * m..];
        for k in (i + 1)..n {
            let lki = l[layout.row_offset(k) + i];
            axpy_sub(row_i, &tail[(k - i - 1) * m..(k - i) * m], lki);
        }
        div_row(row_i, l[layout.row_offset(i) + i]);
    }
}

/// Runs a triangular solve over all columns of `b`, splitting the columns
/// into per-thread blocks when the problem is large enough. Each block is
/// solved with the same per-column arithmetic, so the split never changes
/// results.
fn solve_multi_dispatch(l: &[f64], layout: TriLayout, n: usize, b: &mut Matrix, lower: bool) {
    let m = b.cols();
    if n == 0 || m == 0 {
        return;
    }
    let threads = vaesa_par::num_threads();
    if threads > 1 && m >= 2 && n * n * m >= PAR_MIN_FLOPS {
        let ranges = vaesa_par::split_ranges(m, threads.min(m));
        let src = b.as_slice();
        let solved: Vec<Vec<f64>> = vaesa_par::par_map(&ranges, |r| {
            let w = r.len();
            let mut block = vec![0.0; n * w];
            for i in 0..n {
                block[i * w..(i + 1) * w].copy_from_slice(&src[i * m + r.start..i * m + r.end]);
            }
            if lower {
                forward_block(l, layout, n, &mut block, w);
            } else {
                backward_block(l, layout, n, &mut block, w);
            }
            block
        });
        let dst = b.as_mut_slice();
        for (r, block) in ranges.iter().zip(solved) {
            let w = r.len();
            for i in 0..n {
                dst[i * m + r.start..i * m + r.end].copy_from_slice(&block[i * w..(i + 1) * w]);
            }
        }
    } else if lower {
        forward_block(l, layout, n, b.as_mut_slice(), m);
    } else {
        backward_block(l, layout, n, b.as_mut_slice(), m);
    }
}

fn check_shapes(l_len: usize, n: usize, b: &Matrix) {
    assert_eq!(
        l_len,
        packed_len(n),
        "packed triangle length {} != n(n+1)/2 for n = {n}",
        l_len
    );
    assert_eq!(b.rows(), n, "rhs has {} rows, factor dim {n}", b.rows());
}

/// Solves `L Y = B` in place for every column of `b` (`n x m`), where `l`
/// is a packed row-major lower triangle of dimension `n`.
///
/// Column `j` of the result is bit-identical to a single-RHS forward
/// substitution on column `j` of `b`, at any thread count.
///
/// # Panics
///
/// Panics if `l.len() != n(n+1)/2` or `b.rows() != n`.
pub fn solve_lower_multi(l: &[f64], n: usize, b: &mut Matrix) {
    check_shapes(l.len(), n, b);
    solve_multi_dispatch(l, TriLayout::Packed, n, b, true);
}

/// Solves `Lᵀ X = Y` in place for every column of `b` (`n x m`), where `l`
/// is a packed row-major lower triangle of dimension `n`.
///
/// Column `j` of the result is bit-identical to a single-RHS back
/// substitution on column `j` of `b`, at any thread count.
///
/// # Panics
///
/// Panics if `l.len() != n(n+1)/2` or `b.rows() != n`.
pub fn solve_upper_multi(l: &[f64], n: usize, b: &mut Matrix) {
    check_shapes(l.len(), n, b);
    solve_multi_dispatch(l, TriLayout::Packed, n, b, false);
}

/// [`solve_lower_multi`] for a dense row-major `n x n` lower-triangular
/// factor (entries above the diagonal are ignored).
pub(crate) fn solve_lower_multi_dense(l: &Matrix, b: &mut Matrix) {
    let n = l.rows();
    solve_multi_dispatch(l.as_slice(), TriLayout::Dense { n }, n, b, true);
}

/// [`solve_upper_multi`] for a dense row-major `n x n` lower-triangular
/// factor (entries above the diagonal are ignored).
pub(crate) fn solve_upper_multi_dense(l: &Matrix, b: &mut Matrix) {
    let n = l.rows();
    solve_multi_dispatch(l.as_slice(), TriLayout::Dense { n }, n, b, false);
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
        let mut l = Vec::with_capacity(packed_len(n));
        for i in 0..n {
            for _ in 0..i {
                l.push(0.4 * lcg(seed));
            }
            l.push(1.0 + 0.5 * lcg(seed).abs());
        }
        l
    }

    fn random_matrix(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = lcg(seed) * 3.0;
        }
        m
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

    /// Reference single-RHS back substitution on a packed triangle.
    fn solve_upper_single(l: &[f64], n: usize, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in (i + 1)..n {
                sum -= l[packed_row_offset(k) + i] * x[k];
            }
            x[i] = sum / l[packed_row_offset(i) + i];
        }
        x
    }

    #[test]
    fn multi_solves_match_single_rhs_bitwise() {
        let mut seed = 7u64;
        for (n, m) in [(1, 1), (3, 5), (17, 9), (40, 33)] {
            let l = random_packed(n, &mut seed);
            let b = random_matrix(n, m, &mut seed);
            let mut lower = b.clone();
            solve_lower_multi(&l, n, &mut lower);
            let mut upper = b.clone();
            solve_upper_multi(&l, n, &mut upper);
            for j in 0..m {
                let col: Vec<f64> = (0..n).map(|i| b[(i, j)]).collect();
                let yl = solve_lower_single(&l, n, &col);
                let yu = solve_upper_single(&l, n, &col);
                for i in 0..n {
                    assert_eq!(lower[(i, j)].to_bits(), yl[i].to_bits(), "lower ({i},{j})");
                    assert_eq!(upper[(i, j)].to_bits(), yu[i].to_bits(), "upper ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn parallel_split_is_bit_identical_to_serial() {
        // Large enough to cross PAR_MIN_FLOPS so the ranged path runs.
        let mut seed = 11u64;
        let n = 120;
        let m = 96;
        let l = random_packed(n, &mut seed);
        let b = random_matrix(n, m, &mut seed);
        std::env::set_var("VAESA_THREADS", "1");
        let mut base = b.clone();
        solve_lower_multi(&l, n, &mut base);
        solve_upper_multi(&l, n, &mut base);
        for threads in ["2", "5"] {
            std::env::set_var("VAESA_THREADS", threads);
            let mut out = b.clone();
            solve_lower_multi(&l, n, &mut out);
            solve_upper_multi(&l, n, &mut out);
            for (a, b) in base.as_slice().iter().zip(out.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
        std::env::remove_var("VAESA_THREADS");
    }

    #[test]
    fn round_trip_recovers_rhs() {
        let mut seed = 3u64;
        let n = 25;
        let l = random_packed(n, &mut seed);
        let b = random_matrix(n, 7, &mut seed);
        let mut x = b.clone();
        solve_lower_multi(&l, n, &mut x);
        solve_upper_multi(&l, n, &mut x);
        // Multiply back: (L Lᵀ) x should give b.
        for j in 0..7 {
            for i in 0..n {
                // (L Lᵀ)[i][r] = Σ_k L[i][k] L[r][k], k ≤ min(i, r)
                let mut acc = 0.0;
                for r in 0..n {
                    let mut entry = 0.0;
                    for k in 0..=i.min(r) {
                        entry += l[packed_row_offset(i) + k] * l[packed_row_offset(r) + k];
                    }
                    acc += entry * x[(r, j)];
                }
                assert!((acc - b[(i, j)]).abs() < 1e-9, "({i},{j}): {acc}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rhs has")]
    fn shape_mismatch_panics() {
        let l = random_packed(4, &mut 1u64);
        let mut b = Matrix::zeros(3, 2);
        solve_lower_multi(&l, 4, &mut b);
    }

    #[test]
    fn empty_rhs_is_a_no_op() {
        let l = random_packed(4, &mut 5u64);
        let mut b = Matrix::zeros(4, 0);
        solve_lower_multi(&l, 4, &mut b);
        solve_upper_multi(&l, 4, &mut b);
        assert_eq!(b.shape(), (4, 0));
    }

    proptest! {
        /// Multi-RHS solves agree with column-by-column single-RHS solves on
        /// random well-conditioned systems (the satellite-task property).
        #[test]
        fn multi_rhs_agrees_with_per_column(
            n in 1usize..24,
            m in 1usize..12,
            raw in proptest::collection::vec(-1.0f64..1.0, 24 * 25 / 2 + 24 * 12),
        ) {
            // Build the packed factor and RHS from the raw pool.
            let mut l = Vec::with_capacity(packed_len(n));
            let mut it = raw.iter().copied();
            for i in 0..n {
                for _ in 0..i {
                    l.push(0.4 * it.next().unwrap_or(0.3));
                }
                // Diagonal bounded away from zero: well-conditioned.
                l.push(1.0 + it.next().unwrap_or(0.0).abs());
            }
            let mut b = Matrix::zeros(n, m);
            for v in b.as_mut_slice() {
                *v = 2.5 * it.next().unwrap_or(0.7);
            }
            let mut lower = b.clone();
            solve_lower_multi(&l, n, &mut lower);
            let mut upper = b.clone();
            solve_upper_multi(&l, n, &mut upper);
            for j in 0..m {
                let col: Vec<f64> = (0..n).map(|i| b[(i, j)]).collect();
                let yl = solve_lower_single(&l, n, &col);
                let yu = solve_upper_single(&l, n, &col);
                for i in 0..n {
                    prop_assert_eq!(lower[(i, j)].to_bits(), yl[i].to_bits());
                    prop_assert_eq!(upper[(i, j)].to_bits(), yu[i].to_bits());
                }
            }
        }
    }
}
