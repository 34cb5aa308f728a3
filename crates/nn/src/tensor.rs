use crate::layers::LEAKY_SLOPE;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, two-dimensional `f64` tensor.
///
/// Throughout this workspace the first dimension is the batch dimension and
/// the second is the feature dimension, so a minibatch of 32 six-feature
/// hardware configurations is a `32 x 6` tensor.
///
/// `Tensor` deliberately supports only the operations the VAESA models need;
/// autodiff over these operations lives in [`crate::Graph`].
///
/// # Examples
///
/// ```
/// use vaesa_nn::Tensor;
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Tensor::fill(2, 2, 1.0);
/// let sum = a.add(&b);
/// assert_eq!(sum.get(1, 1), 5.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// Creates a `rows x cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` tensor filled with `value`.
    pub fn fill(rows: usize, cols: usize, value: f64) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "from_rows requires equal-length rows"
        );
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a single-row tensor from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Tensor::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows (batch size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (feature count).
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

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = value;
    }

    /// Borrows the flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Stacks row tensors vertically.
    ///
    /// # Panics
    ///
    /// Panics if the input is empty or the column counts differ.
    pub fn vstack(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "vstack requires at least one tensor");
        let cols = parts[0].cols;
        assert!(
            parts.iter().all(|p| p.cols == cols),
            "vstack requires equal column counts"
        );
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Tensor { rows, cols, data }
    }

    /// Selects a subset of rows by index, cloning them into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(0, 0);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Like [`Tensor::select_rows`], but reuses `out`'s buffer instead of
    /// allocating — the training loop calls this once per minibatch.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Tensor) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
        }
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise logistic sigmoid `1 / (1 + e^-x)`.
    pub fn sigmoid(&self) -> Tensor {
        self.map(sigmoid)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f64::tanh)
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f64::exp)
    }

    /// Elementwise leaky ReLU (`x` for positive inputs, `slope * x`
    /// otherwise).
    pub fn leaky_relu(&self, slope: f64) -> Tensor {
        self.map(|x| leaky_relu(x, slope))
    }

    fn zip(&self, other: &Tensor, op: &str, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, "add", |a, b| a + b)
    }

    /// Elementwise sum in place (`self += other`), avoiding the fresh
    /// allocation of [`Tensor::add`] on gradient-accumulation paths.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_assign: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        if self.data.is_empty() {
            return;
        }
        // `self += other` is the identity bias add of one row as wide as
        // the whole buffer.
        let bias_act = crate::simd64::tier().bias_act;
        // SAFETY: the tier was selected under runtime feature detection,
        // and the shapes (so the lengths) were asserted equal above.
        unsafe { bias_act(&mut self.data, &other.data, crate::Activation::Identity) };
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes to `rows x cols`, reusing the backing buffer when possible.
    ///
    /// Element values after the call are unspecified; callers are expected to
    /// overwrite the whole tensor (e.g. [`crate::randn_into`]).
    pub fn resize_uninit(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to `rows x cols` and overwrites the contents with `data`
    /// (row-major), reusing the backing buffer when possible.
    ///
    /// This is the batched-inference counterpart of [`Tensor::from_vec`]
    /// for hot loops that refill the same tensor every iteration.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn copy_from_flat(&mut self, rows: usize, cols: usize, data: &[f64]) {
        assert_eq!(
            data.len(),
            rows * cols,
            "copy_from_flat: {} elements cannot fill a {rows}x{cols} tensor",
            data.len()
        );
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.extend_from_slice(data);
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, "sub", |a, b| a - b)
    }

    /// Elementwise product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, "mul", |a, b| a * b)
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f64) -> Tensor {
        self.map(|v| v * k)
    }

    /// Matrix product `self * other`, parallelized over output rows for
    /// large products.
    ///
    /// Every output element adds, panel by panel in increasing `k`, the
    /// four-term sum of a panel of four inner-dimension rows (a short last
    /// panel padded with zero rows), with separate multiplies and adds. The
    /// scalar, AVX2 and AVX-512 kernels all run that sequence, so results
    /// are bit-identical on every machine and for every thread count (see
    /// DESIGN.md, "Threading & determinism policy").
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        matmul_into(self, other, &mut out);
        out
    }

    /// Fused product `selfᵀ * other` without materializing the transpose.
    ///
    /// `self` is `r x p`, `other` is `r x n`; the result is `p x n` with
    /// `out[i][j] = Σ_r self[r][i] * other[r][j]`. Accumulation runs over
    /// `r` in increasing order for every output element, independent of
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_transpose_a(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        matmul_ta_into(self, other, &mut out);
        out
    }

    /// Fused product `self * otherᵀ` without materializing `otherᵀ` as a
    /// tensor.
    ///
    /// `self` is `m x k`, `other` is `n x k`; the result is `m x n` built
    /// from row dot products. Each dot product accumulates in four
    /// interleaved lanes (lane `t` takes the products at `k ≡ t (mod 4)`
    /// over whole chunks of four, in increasing `k`), sums the leftover
    /// `k % 4` products in a tail, and returns
    /// `((l₀ + l₁) + (l₂ + l₃)) + tail`, independent of thread count and
    /// SIMD tier.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        matmul_tb_into(self, other, &mut out);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds a `1 x cols` row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(
            bias.shape(),
            (1, self.cols),
            "broadcast bias must be 1x{}, got {:?}",
            self.cols,
            bias.shape()
        );
        if self.cols == 0 {
            return self.clone();
        }
        // Single fused pass: the clone-then-add formulation touched every
        // element twice. Same additions in the same order, one traversal.
        let mut data = Vec::with_capacity(self.data.len());
        for row in self.data.chunks_exact(self.cols) {
            data.extend(row.iter().zip(&bias.data).map(|(&v, &b)| v + b));
        }
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Sums every element.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of every element; 0.0 for an empty tensor.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Sums over rows, producing a `1 x cols` tensor.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::default();
        self.sum_rows_into(&mut out);
        out
    }

    /// Like [`Tensor::sum_rows`], writing into `out`'s buffer. Column `c`
    /// starts from `0.0` and adds the rows in increasing order.
    pub(crate) fn sum_rows_into(&self, out: &mut Tensor) {
        out.resize_uninit(1, self.cols);
        if self.cols == 0 {
            return;
        }
        // SAFETY: the tier was selected under runtime feature detection.
        unsafe { (crate::simd64::tier().sum_rows)(&self.data, &mut out.data) };
    }

    /// Copies columns `[start, end)` into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.cols()`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert!(
            start <= end && end <= self.cols,
            "invalid column range {start}..{end}"
        );
        let width = end - start;
        let mut data = Vec::with_capacity(self.rows * width);
        for r in 0..self.rows {
            data.extend_from_slice(&self.data[r * self.cols + start..r * self.cols + end]);
        }
        Tensor {
            rows: self.rows,
            cols: width,
            data,
        }
    }

    /// Concatenates two tensors with equal row counts along columns.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(0, 0);
        self.concat_cols_into(other, &mut out);
        out
    }

    /// Like [`Tensor::concat_cols`], but reuses `out`'s buffer.
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch.
    pub fn concat_cols_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "concat_cols: row counts differ ({} vs {})",
            self.rows, other.rows
        );
        let cols = self.cols + other.cols;
        out.rows = self.rows;
        out.cols = cols;
        out.data.clear();
        out.data.reserve(self.rows * cols);
        for r in 0..self.rows {
            out.data.extend_from_slice(self.row(r));
            out.data.extend_from_slice(other.row(r));
        }
    }

    /// Largest absolute element, or 0.0 when empty.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }

    /// Returns `true` if both tensors have the same shape and all elements
    /// are within `tol` of each other.
    pub fn approx_eq(&self, other: &Tensor, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

/// Logistic sigmoid `1 / (1 + e^-x)`.
pub(crate) fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Leaky ReLU: `x` for positive inputs, `slope * x` otherwise.
pub(crate) fn leaky_relu(x: f64, slope: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        slope * x
    }
}

/// Sigmoid's derivative, from its output `y`.
pub(crate) fn sigmoid_slope(y: f64) -> f64 {
    y * (1.0 - y)
}

/// Tanh's derivative, from its output `y`.
pub(crate) fn tanh_slope(y: f64) -> f64 {
    1.0 - y * y
}

/// [`Activation::LeakyRelu`](crate::Activation::LeakyRelu)'s derivative,
/// from its output `y`: with a positive slope, `y > 0` exactly when the
/// input is.
pub(crate) fn leaky_slope_of_output(y: f64) -> f64 {
    if y > 0.0 {
        1.0
    } else {
        LEAKY_SLOPE
    }
}

/// `out = a · b` ([`Tensor::matmul`]), reusing `out`'s buffer.
pub(crate) fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(
        a.cols, b.rows,
        "matmul: inner dimensions differ ({} vs {})",
        a.cols, b.rows
    );
    let dims = (a.rows, a.cols, b.cols);
    let kernel = crate::simd64::tier().matmul;
    product_into(kernel, &a.data, &b.data, dims, (a.rows, b.cols), out);
}

/// `out = aᵀ · b` ([`Tensor::matmul_transpose_a`]), reusing `out`'s buffer.
pub(crate) fn matmul_ta_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(
        a.rows, b.rows,
        "matmul_transpose_a: shared row counts differ ({} vs {})",
        a.rows, b.rows
    );
    let dims = (a.rows, a.cols, b.cols);
    let kernel = crate::simd64::tier().matmul_ta;
    product_into(kernel, &a.data, &b.data, dims, (a.cols, b.cols), out);
}

/// `out = a · bᵀ` ([`Tensor::matmul_transpose_b`]), reusing `out`'s buffer.
pub(crate) fn matmul_tb_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    assert_eq!(
        a.cols, b.cols,
        "matmul_transpose_b: inner dimensions differ ({} vs {})",
        a.cols, b.cols
    );
    let dims = (a.rows, a.cols, b.rows);
    let kernel = crate::simd64::tier().matmul_tb;
    product_into(kernel, &a.data, &b.data, dims, (a.rows, b.rows), out);
}

/// Reshapes `out` to `shape` and runs one product kernel into it (see
/// [`crate::simd64::Product`] for `dims`); an empty inner or outer
/// dimension gives zeros.
fn product_into(
    kernel: crate::simd64::Product,
    a: &[f64],
    b: &[f64],
    (d0, d1, d2): (usize, usize, usize),
    (rows, cols): (usize, usize),
    out: &mut Tensor,
) {
    out.resize_uninit(rows, cols);
    if d0 == 0 || d1 == 0 || d2 == 0 {
        out.data.fill(0.0);
        return;
    }
    // SAFETY: the tier was selected under runtime feature detection.
    unsafe { kernel(a, b, d0, d1, d2, &mut out.data) };
}

/// Output rows per parallel work chunk.
const ROW_BLOCK: usize = 4;

/// Multiply-accumulate count above which a product is worth fanning out
/// to the worker pool (below it, thread spawn costs dominate). The SIMD f64
/// bodies run about 10^7 multiply-accumulates per millisecond, so a product
/// below 2^20 finishes serially within a few spawn-and-joins of the pool.
const PAR_FLOP_THRESHOLD: usize = 1 << 20;

/// Runs `kernel(first_row, chunk)` over consecutive [`ROW_BLOCK`]-row
/// chunks of the `n`-wide rows of `data` (the last chunk possibly short),
/// fanning out to the worker pool when the product is large enough
/// (`flops` multiply-accumulates) and a pool exists. Chunk boundaries are
/// fixed by [`ROW_BLOCK`], never by thread count, so the arithmetic each
/// output element sees is identical in serial and parallel runs. Kernels
/// get whole blocks so they can register-block over rows.
pub(crate) fn run_rowblocks(
    data: &mut [f64],
    n: usize,
    flops: usize,
    kernel: impl Fn(usize, &mut [f64]) + Sync,
) {
    debug_assert_eq!(data.len() % n, 0);
    if flops >= PAR_FLOP_THRESHOLD && vaesa_par::num_threads() > 1 {
        vaesa_par::par_chunks_mut(data, ROW_BLOCK * n, |_, offset, chunk| {
            kernel(offset / n, chunk);
        });
    } else {
        for (c, chunk) in data.chunks_mut(ROW_BLOCK * n).enumerate() {
            kernel(c * ROW_BLOCK, chunk);
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:>11.5} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 12 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_accessors() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(1, 2), 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn copy_from_flat_reshapes_and_overwrites() {
        let mut t = Tensor::from_rows(&[&[9.0, 9.0, 9.0], &[9.0, 9.0, 9.0]]);
        t.copy_from_flat(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "copy_from_flat")]
    fn copy_from_flat_bad_shape_panics() {
        let mut t = Tensor::zeros(1, 1);
        t.copy_from_flat(2, 2, &[1.0]);
    }

    #[test]
    fn elementwise_and_scale() {
        let a = Tensor::from_rows(&[&[1.0, -2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 2.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-2.0, -6.0]);
        assert_eq!(a.mul(&b).as_slice(), &[3.0, -8.0]);
        assert_eq!(a.scale(-1.0).as_slice(), &[-1.0, 2.0]);
        assert_eq!(a.map(f64::abs).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn matmul_and_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
        assert_eq!(a.transpose().as_slice(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn broadcast_bias() {
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::row_vector(&[10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.sum_rows().as_slice(), &[4.0, 6.0]);
        assert_eq!(t.max_abs(), 4.0);
    }

    #[test]
    fn slicing_and_concat() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]]);
        let left = t.slice_cols(0, 2);
        let right = t.slice_cols(2, 4);
        assert_eq!(left.as_slice(), &[1.0, 2.0, 5.0, 6.0]);
        assert_eq!(right.as_slice(), &[3.0, 4.0, 7.0, 8.0]);
        let joined = left.concat_cols(&right);
        assert!(joined.approx_eq(&t, 0.0));
    }

    #[test]
    fn stacking_and_selection() {
        let a = Tensor::row_vector(&[1.0, 2.0]);
        let b = Tensor::row_vector(&[3.0, 4.0]);
        let s = Tensor::vstack(&[a, b]);
        assert_eq!(s.shape(), (2, 2));
        let sel = s.select_rows(&[1, 0, 1]);
        assert_eq!(sel.as_slice(), &[3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(1, 1);
        assert!(format!("{t}").contains("1x1"));
    }

    /// Plain i-k-j triple loop, the pre-blocking semantics (minus the
    /// removed zero-skip branch): the oracle for the packed kernel.
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.cols(), b.rows());
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a.get(i, k);
                for j in 0..b.cols() {
                    let cur = out.get(i, j);
                    out.set(i, j, cur + av * b.get(k, j));
                }
            }
        }
        out
    }

    /// Deterministic pseudo-random filler (no RNG dependency needed).
    fn pattern_tensor(rows: usize, cols: usize, salt: u64) -> Tensor {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Uniform-ish in [-2, 2), plus exact zeros so the removed
                // zero-skip branch's absence is exercised on sparse data.
                if state.is_multiple_of(7) {
                    0.0
                } else {
                    ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
                }
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn blocked_matmul_matches_reference_on_odd_shapes() {
        // Odd/prime shapes stress the panel tail and row-block tail paths.
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 5),
            (5, 7, 3),
            (7, 13, 17),
            (13, 4, 1),
            (1, 31, 37),
            (31, 37, 13),
            (64, 65, 63),
        ] {
            let a = pattern_tensor(m, k, (m * 1000 + k) as u64);
            let b = pattern_tensor(k, n, (k * 1000 + n) as u64);
            let fast = a.matmul(&b);
            let slow = matmul_reference(&a, &b);
            assert!(
                fast.approx_eq(&slow, 1e-12),
                "blocked matmul diverged from reference at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn blocked_matmul_is_deterministic_across_thread_counts() {
        // Big enough to cross PAR_FLOP_THRESHOLD and actually fan out.
        let a = pattern_tensor(130, 80, 1);
        let b = pattern_tensor(80, 103, 2);
        let baseline = {
            std::env::set_var("VAESA_THREADS", "1");
            a.matmul(&b)
        };
        for threads in ["2", "3", "8"] {
            std::env::set_var("VAESA_THREADS", threads);
            let out = a.matmul(&b);
            assert_eq!(
                out.as_slice(),
                baseline.as_slice(),
                "thread count {threads} changed matmul bits"
            );
        }
        std::env::remove_var("VAESA_THREADS");
    }

    #[test]
    fn transpose_fused_variants_match_materialized_transpose() {
        for &(m, k, n) in &[(3, 5, 7), (13, 17, 5), (40, 33, 29)] {
            let a = pattern_tensor(m, k, 11);
            let b = pattern_tensor(m, n, 12);
            let fused = a.matmul_transpose_a(&b);
            let materialized = a.transpose().matmul(&b);
            assert!(
                fused.approx_eq(&materialized, 1e-12),
                "matmul_transpose_a diverged at {m}x{k}x{n}"
            );

            let c = pattern_tensor(n, k, 13);
            let fused_b = a.matmul_transpose_b(&c);
            let materialized_b = a.matmul(&c.transpose());
            assert!(
                fused_b.approx_eq(&materialized_b, 1e-12),
                "matmul_transpose_b diverged at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn empty_products_are_well_formed() {
        let a = Tensor::zeros(0, 4);
        let b = Tensor::zeros(4, 3);
        assert_eq!(a.matmul(&b).shape(), (0, 3));
        let c = Tensor::zeros(2, 0);
        let d = Tensor::zeros(3, 0);
        assert_eq!(c.matmul(&Tensor::zeros(0, 5)).shape(), (2, 5));
        assert_eq!(c.matmul(&Tensor::zeros(0, 5)).as_slice(), &[0.0; 10]);
        assert_eq!(c.matmul_transpose_b(&d).shape(), (2, 3));
    }

    #[test]
    fn select_rows_into_reuses_buffer() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut out = Tensor::zeros(0, 0);
        t.select_rows_into(&[2, 0], &mut out);
        assert_eq!(out.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
        let ptr = out.as_slice().as_ptr();
        t.select_rows_into(&[1, 1], &mut out);
        assert_eq!(out.as_slice(), &[3.0, 4.0, 3.0, 4.0]);
        assert_eq!(ptr, out.as_slice().as_ptr(), "buffer must be reused");
    }

    #[test]
    fn add_assign_and_fill_zero() {
        let mut a = Tensor::from_rows(&[&[1.0, 2.0]]);
        let b = Tensor::from_rows(&[&[10.0, 20.0]]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }
}
