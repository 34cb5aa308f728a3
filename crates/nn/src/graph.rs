use crate::Tensor;

/// Identifier of a value node in a [`Graph`].
///
/// `VarId`s are only meaningful for the graph that created them; using an id
/// from a different graph is a logic error (caught by bounds assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(usize);

/// The primitive differentiable operations supported by the tape.
#[derive(Debug, Clone)]
enum Op {
    /// A leaf value (input, parameter, or constant).
    Leaf,
    /// Matrix product `a * b`.
    MatMul(VarId, VarId),
    /// Elementwise sum of two same-shape tensors.
    Add(VarId, VarId),
    /// Elementwise difference `a - b`.
    Sub(VarId, VarId),
    /// Elementwise product.
    Mul(VarId, VarId),
    /// Adds a `1 x cols` bias row to every row of `a`.
    AddRowBroadcast(VarId, VarId),
    /// Multiplies by a compile-time constant.
    Scale(VarId, f64),
    /// Adds a constant to every element (the constant's gradient is zero,
    /// so it is not stored).
    AddScalar(VarId),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(VarId, f64),
    /// Logistic sigmoid.
    Sigmoid(VarId),
    /// Hyperbolic tangent.
    Tanh(VarId),
    /// Elementwise exponential.
    Exp(VarId),
    /// Elementwise natural log (inputs must be positive).
    Ln(VarId),
    /// Elementwise square.
    Square(VarId),
    /// Sum of all elements, producing a `1 x 1` tensor.
    SumAll(VarId),
    /// Mean of all elements, producing a `1 x 1` tensor.
    MeanAll(VarId),
    /// Column slice `[start, end)`.
    SliceCols(VarId, usize, usize),
    /// Column concatenation of two tensors with equal row counts.
    ConcatCols(VarId, VarId),
}

#[derive(Debug, Clone)]
struct Node {
    value: Tensor,
    op: Op,
}

/// A dynamically built reverse-mode automatic-differentiation tape.
///
/// Every operation appends a node holding the forward value; [`Graph::backward`]
/// then walks the tape in reverse, accumulating gradients with respect to a
/// scalar (`1 x 1`) loss node.
///
/// The graph is rebuilt each training step (define-by-run), which keeps the
/// implementation simple and makes control flow in model code trivially
/// correct.
///
/// # Examples
///
/// ```
/// use vaesa_nn::{Graph, Tensor};
///
/// let mut g = Graph::new();
/// let x = g.leaf(Tensor::from_rows(&[&[3.0]]));
/// let y = g.square(x); // y = x²  =>  dy/dx = 2x = 6
/// g.backward(y);
/// assert_eq!(g.grad(x).unwrap().get(0, 0), 6.0);
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op) -> VarId {
        self.nodes.push(Node { value, op });
        self.grads.push(None);
        VarId(self.nodes.len() - 1)
    }

    /// Adds a leaf node (input, parameter, or constant) holding `value`.
    pub fn leaf(&mut self, value: Tensor) -> VarId {
        self.push(value, Op::Leaf)
    }

    /// Forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Gradient of the last [`Graph::backward`] loss with respect to node
    /// `id`, or `None` if the node did not receive a gradient.
    pub fn grad(&self, id: VarId) -> Option<&Tensor> {
        self.grads[id.0].as_ref()
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Adds a `1 x cols` bias row to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: VarId, bias: VarId) -> VarId {
        let v = self.value(a).add_row_broadcast(self.value(bias));
        self.push(v, Op::AddRowBroadcast(a, bias))
    }

    /// Multiplies every element by the constant `k`.
    pub fn scale(&mut self, a: VarId, k: f64) -> VarId {
        let v = self.value(a).scale(k);
        self.push(v, Op::Scale(a, k))
    }

    /// Adds the constant `k` to every element.
    pub fn add_scalar(&mut self, a: VarId, k: f64) -> VarId {
        let v = self.value(a).map(|x| x + k);
        self.push(v, Op::AddScalar(a))
    }

    /// Leaky ReLU activation: `x if x > 0 else slope * x`.
    pub fn leaky_relu(&mut self, a: VarId, slope: f64) -> VarId {
        let v = self.value(a).leaky_relu(slope);
        self.push(v, Op::LeakyRelu(a, slope))
    }

    /// Logistic sigmoid activation.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let v = self.value(a).sigmoid();
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent activation.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let v = self.value(a).tanh();
        self.push(v, Op::Tanh(a))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: VarId) -> VarId {
        let v = self.value(a).exp();
        self.push(v, Op::Exp(a))
    }

    /// Elementwise natural logarithm.
    ///
    /// # Panics
    ///
    /// Debug-asserts that all inputs are positive.
    pub fn ln(&mut self, a: VarId) -> VarId {
        debug_assert!(
            self.value(a).as_slice().iter().all(|&x| x > 0.0),
            "ln requires positive inputs"
        );
        let v = self.value(a).ln();
        self.push(v, Op::Ln(a))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: VarId) -> VarId {
        let v = self.value(a).map(|x| x * x);
        self.push(v, Op::Square(a))
    }

    /// Sum of all elements as a `1 x 1` tensor.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let v = Tensor::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(v, Op::SumAll(a))
    }

    /// Mean of all elements as a `1 x 1` tensor.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let v = Tensor::from_vec(1, 1, vec![self.value(a).mean()]);
        self.push(v, Op::MeanAll(a))
    }

    /// Column slice `[start, end)`.
    pub fn slice_cols(&mut self, a: VarId, start: usize, end: usize) -> VarId {
        let v = self.value(a).slice_cols(start, end);
        self.push(v, Op::SliceCols(a, start, end))
    }

    /// Column-wise concatenation.
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.value(a).concat_cols(self.value(b));
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Mean-squared error between `pred` and `target` as a `1 x 1` node.
    ///
    /// This is the reconstruction / predictor loss used throughout VAESA.
    pub fn mse(&mut self, pred: VarId, target: VarId) -> VarId {
        let diff = self.sub(pred, target);
        let sq = self.square(diff);
        self.mean_all(sq)
    }

    /// KL divergence `KL(N(μ, σ²) ‖ N(0, I))` averaged over the batch,
    /// from `mu` and `log_var` tensors of shape `batch x dz`:
    ///
    /// `-0.5 * mean_batch( Σ_d (1 + logσ² - μ² - σ²) )`
    pub fn kl_divergence(&mut self, mu: VarId, log_var: VarId) -> VarId {
        let dz = self.value(mu).cols() as f64;
        let mu2 = self.square(mu);
        let var = self.exp(log_var);
        let one_plus = self.add_scalar(log_var, 1.0);
        let t1 = self.sub(one_plus, mu2);
        let t2 = self.sub(t1, var);
        // mean over all N·dz elements times dz = batch-mean of the row sums
        let m = self.mean_all(t2);
        self.scale(m, -0.5 * dz)
    }

    /// Runs reverse-mode differentiation from the scalar node `loss`.
    ///
    /// Gradients from any previous `backward` call are cleared first.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `1 x 1` tensor.
    pub fn backward(&mut self, loss: VarId) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward requires a scalar (1x1) loss node"
        );
        for g in &mut self.grads {
            *g = None;
        }
        self.grads[loss.0] = Some(Tensor::from_vec(1, 1, vec![1.0]));

        for i in (0..self.nodes.len()).rev() {
            // Take the node's gradient out of its slot for the duration of
            // this step and put it back afterwards: arms that only read the
            // upstream gradient (matmul, scale, slicing) then skip the full
            // clone the old `grads[i].clone()` formulation paid on every
            // live node. Operands always precede their node on the tape, so
            // no `accumulate` below can touch slot `i` while it is empty.
            let Some(gout) = self.grads[i].take() else {
                continue;
            };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    // Fused variants avoid materializing transposed copies
                    // of the forward values on every backward step.
                    let ga = gout.matmul_transpose_b(&self.nodes[b.0].value);
                    let gb = self.nodes[a.0].value.matmul_transpose_a(&gout);
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
                Op::Add(a, b) => {
                    self.accumulate(a, gout.clone());
                    self.accumulate(b, gout.clone());
                }
                Op::Sub(a, b) => {
                    self.accumulate(a, gout.clone());
                    // Elementwise negation flips the sign bit exactly like
                    // the old `scale(-1.0)`.
                    self.accumulate(b, gout.map(|v| -v));
                }
                Op::Mul(a, b) => {
                    self.accumulate(a, gout.mul(&self.nodes[b.0].value));
                    self.accumulate(b, gout.mul(&self.nodes[a.0].value));
                }
                Op::AddRowBroadcast(a, bias) => {
                    self.accumulate(bias, gout.sum_rows());
                    self.accumulate(a, gout.clone());
                }
                Op::Scale(a, k) => self.accumulate(a, gout.scale(k)),
                Op::AddScalar(a) => self.accumulate(a, gout.clone()),
                // The unary backward rules below multiply a copy of `gout`
                // in place with the local derivative, fused into one
                // branch-free loop each. Every fused form performs the exact
                // rounding sequence of the old two-tensor formulation, so
                // f64 results stay bit-identical.
                Op::LeakyRelu(a, slope) => {
                    let mut g = gout.clone();
                    for (gv, &xv) in g
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[a.0].value.as_slice())
                    {
                        *gv *= if xv > 0.0 { 1.0 } else { slope };
                    }
                    self.accumulate(a, g);
                }
                Op::Sigmoid(a) => {
                    let mut g = gout.clone();
                    for (gv, &yv) in g
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[i].value.as_slice())
                    {
                        *gv *= yv * (1.0 - yv);
                    }
                    self.accumulate(a, g);
                }
                Op::Tanh(a) => {
                    let mut g = gout.clone();
                    for (gv, &yv) in g
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[i].value.as_slice())
                    {
                        *gv *= 1.0 - yv * yv;
                    }
                    self.accumulate(a, g);
                }
                Op::Exp(a) => {
                    let mut g = gout.clone();
                    for (gv, &yv) in g
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[i].value.as_slice())
                    {
                        *gv *= yv;
                    }
                    self.accumulate(a, g);
                }
                Op::Ln(a) => {
                    let mut g = gout.clone();
                    for (gv, &xv) in g
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[a.0].value.as_slice())
                    {
                        *gv *= 1.0 / xv;
                    }
                    self.accumulate(a, g);
                }
                Op::Square(a) => {
                    let mut g = gout.clone();
                    for (gv, &xv) in g
                        .as_mut_slice()
                        .iter_mut()
                        .zip(self.nodes[a.0].value.as_slice())
                    {
                        *gv *= 2.0 * xv;
                    }
                    self.accumulate(a, g);
                }
                Op::SumAll(a) => {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let g = Tensor::fill(r, c, gout.get(0, 0));
                    self.accumulate(a, g);
                }
                Op::MeanAll(a) => {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let n = (r * c) as f64;
                    let g = Tensor::fill(r, c, gout.get(0, 0) / n);
                    self.accumulate(a, g);
                }
                Op::SliceCols(a, start, _end) => {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let width = gout.cols();
                    let mut g = Tensor::zeros(r, c);
                    for row in 0..r {
                        g.as_mut_slice()[row * c + start..row * c + start + width]
                            .copy_from_slice(gout.row(row));
                    }
                    self.accumulate(a, g);
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.nodes[a.0].value.cols();
                    let cb = self.nodes[b.0].value.cols();
                    self.accumulate(a, gout.slice_cols(0, ca));
                    self.accumulate(b, gout.slice_cols(ca, ca + cb));
                }
            }
            self.grads[i] = Some(gout);
        }
    }

    fn accumulate(&mut self, id: VarId, g: Tensor) {
        match &mut self.grads[id.0] {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Clears the tape for reuse, keeping both backing allocations so a
    /// per-minibatch training loop stops paying two `Vec` growths per step.
    ///
    /// All previously issued [`VarId`]s become invalid.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.grads.clear();
    }

    /// Takes the forward value out of node `id`, leaving an empty tensor.
    ///
    /// The training loop uses this to reclaim minibatch input buffers
    /// after the optimizer step, feeding them back into
    /// [`Tensor::select_rows_into`] for the next batch instead of
    /// allocating fresh tensors.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn take_value(&mut self, id: VarId) -> Tensor {
        std::mem::replace(&mut self.nodes[id.0].value, Tensor::zeros(0, 0))
    }
}

/// Checks an analytic gradient against central finite differences.
///
/// `f` must build a fresh graph from the flat parameter vector `x` and
/// return the scalar loss; `analytic` is the gradient to verify. Returns the
/// maximum absolute discrepancy.
///
/// Intended for tests; O(len(x)) evaluations of `f`.
pub fn finite_diff_check(
    x: &[f64],
    analytic: &[f64],
    eps: f64,
    mut f: impl FnMut(&[f64]) -> f64,
) -> f64 {
    assert_eq!(x.len(), analytic.len(), "gradient length mismatch");
    let mut worst: f64 = 0.0;
    let mut xp = x.to_vec();
    for i in 0..x.len() {
        xp[i] = x[i] + eps;
        let fp = f(&xp);
        xp[i] = x[i] - eps;
        let fm = f(&xp);
        xp[i] = x[i];
        let numeric = (fp - fm) / (2.0 * eps);
        worst = worst.max((numeric - analytic[i]).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(v: f64) -> Tensor {
        Tensor::from_vec(1, 1, vec![v])
    }

    #[test]
    fn simple_chain_rule() {
        // y = (2x + 1)² at x = 3 => y = 49, dy/dx = 2*(2x+1)*2 = 28
        let mut g = Graph::new();
        let x = g.leaf(scalar(3.0));
        let s = g.scale(x, 2.0);
        let t = g.add_scalar(s, 1.0);
        let y = g.square(t);
        assert_eq!(g.value(y).get(0, 0), 49.0);
        g.backward(y);
        assert_eq!(g.grad(x).unwrap().get(0, 0), 28.0);
    }

    #[test]
    fn matmul_gradients_match_finite_difference() {
        // loss = mean((A·B)²) for random-ish A, B.
        let a0 = [0.5, -1.0, 2.0, 0.3, 1.5, -0.7];
        let b0 = [1.0, -0.5, 0.25, 2.0, -1.5, 0.75];
        let build = |av: &[f64], bv: &[f64]| {
            let mut g = Graph::new();
            let a = g.leaf(Tensor::from_vec(2, 3, av.to_vec()));
            let b = g.leaf(Tensor::from_vec(3, 2, bv.to_vec()));
            let p = g.matmul(a, b);
            let sq = g.square(p);
            let l = g.mean_all(sq);
            (g, a, b, l)
        };
        let (mut g, a, b, l) = build(&a0, &b0);
        g.backward(l);
        let ga = g.grad(a).unwrap().clone().into_vec();
        let gb = g.grad(b).unwrap().clone().into_vec();

        let worst_a = finite_diff_check(&a0, &ga, 1e-6, |av| {
            let (g, _, _, l) = build(av, &b0);
            g.value(l).get(0, 0)
        });
        let worst_b = finite_diff_check(&b0, &gb, 1e-6, |bv| {
            let (g, _, _, l) = build(&a0, bv);
            g.value(l).get(0, 0)
        });
        assert!(worst_a < 1e-7, "matmul grad A off by {worst_a}");
        assert!(worst_b < 1e-7, "matmul grad B off by {worst_b}");
    }

    #[test]
    fn activations_match_finite_difference() {
        let x0 = [-1.2, -0.1, 0.0, 0.4, 2.5];
        for act in ["leaky", "sigmoid", "tanh", "exp"] {
            let build = |xv: &[f64]| {
                let mut g = Graph::new();
                let x = g.leaf(Tensor::from_vec(1, xv.len(), xv.to_vec()));
                let y = match act {
                    "leaky" => g.leaky_relu(x, 0.01),
                    "sigmoid" => g.sigmoid(x),
                    "tanh" => g.tanh(x),
                    "exp" => g.exp(x),
                    _ => unreachable!(),
                };
                let sq = g.square(y);
                let l = g.sum_all(sq);
                (g, x, l)
            };
            let (mut g, x, l) = build(&x0);
            g.backward(l);
            let gx = g.grad(x).unwrap().clone().into_vec();
            let worst = finite_diff_check(&x0, &gx, 1e-6, |xv| {
                let (g, _, l) = build(xv);
                g.value(l).get(0, 0)
            });
            // leaky relu has a kink at 0.0 (x0 contains 0.0) where the
            // subgradient is used; skip exactness there by tolerance.
            assert!(worst < 1e-2, "{act} grad off by {worst}");
        }
    }

    #[test]
    fn ln_gradient() {
        let x0 = [0.5, 1.0, 3.0];
        let build = |xv: &[f64]| {
            let mut g = Graph::new();
            let x = g.leaf(Tensor::from_vec(1, 3, xv.to_vec()));
            let y = g.ln(x);
            let l = g.sum_all(y);
            (g, x, l)
        };
        let (mut g, x, l) = build(&x0);
        g.backward(l);
        let gx = g.grad(x).unwrap().clone().into_vec();
        assert!((gx[0] - 2.0).abs() < 1e-12);
        assert!((gx[1] - 1.0).abs() < 1e-12);
        assert!((gx[2] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn broadcast_bias_gradient_sums_over_rows() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let b = g.leaf(Tensor::row_vector(&[0.1, 0.2]));
        let y = g.add_row_broadcast(x, b);
        let l = g.sum_all(y);
        g.backward(l);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[3.0, 3.0]);
        assert_eq!(g.grad(x).unwrap().as_slice(), &[1.0; 6]);
    }

    #[test]
    fn slice_and_concat_route_gradients() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        let left = g.slice_cols(x, 0, 2);
        let right = g.slice_cols(x, 2, 4);
        let scaled = g.scale(right, 10.0);
        let joined = g.concat_cols(left, scaled);
        let l = g.sum_all(joined);
        g.backward(l);
        assert_eq!(g.grad(x).unwrap().as_slice(), &[1.0, 1.0, 10.0, 10.0]);
    }

    #[test]
    fn mse_matches_manual_computation() {
        let mut g = Graph::new();
        let pred = g.leaf(Tensor::from_rows(&[&[1.0, 2.0]]));
        let target = g.leaf(Tensor::from_rows(&[&[0.0, 4.0]]));
        let l = g.mse(pred, target);
        // ((1-0)² + (2-4)²)/2 = (1 + 4)/2 = 2.5
        assert_eq!(g.value(l).get(0, 0), 2.5);
        g.backward(l);
        // d/dpred = 2*(pred-target)/n = [1, -2]
        assert_eq!(g.grad(pred).unwrap().as_slice(), &[1.0, -2.0]);
    }

    #[test]
    fn kl_divergence_of_standard_normal_is_zero() {
        let mut g = Graph::new();
        let mu = g.leaf(Tensor::zeros(4, 2));
        let logvar = g.leaf(Tensor::zeros(4, 2));
        let kl = g.kl_divergence(mu, logvar);
        assert!(g.value(kl).get(0, 0).abs() < 1e-12);
    }

    #[test]
    fn kl_divergence_known_value_and_gradient() {
        // KL(N(μ, σ²) || N(0,1)) per dim = 0.5(μ² + σ² - lnσ² - 1).
        // For μ=1, lnσ²=0 (σ²=1): 0.5 * 1 = 0.5 per dim, 2 dims => 1.0.
        let mu0 = [1.0, 1.0];
        let build = |m: &[f64]| {
            let mut g = Graph::new();
            let mu = g.leaf(Tensor::from_vec(1, 2, m.to_vec()));
            let lv = g.leaf(Tensor::zeros(1, 2));
            let kl = g.kl_divergence(mu, lv);
            (g, mu, kl)
        };
        let (mut g, mu, kl) = build(&mu0);
        assert!((g.value(kl).get(0, 0) - 1.0).abs() < 1e-12);
        g.backward(kl);
        let gmu = g.grad(mu).unwrap().clone().into_vec();
        let worst = finite_diff_check(&mu0, &gmu, 1e-6, |m| {
            let (g, _, kl) = build(m);
            g.value(kl).get(0, 0)
        });
        assert!(worst < 1e-8, "kl grad off by {worst}");
    }

    #[test]
    fn gradients_accumulate_through_shared_nodes() {
        // y = x + x => dy/dx = 2
        let mut g = Graph::new();
        let x = g.leaf(scalar(5.0));
        let y = g.add(x, x);
        let l = g.sum_all(y);
        g.backward(l);
        assert_eq!(g.grad(x).unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn backward_clears_previous_gradients() {
        let mut g = Graph::new();
        let x = g.leaf(scalar(2.0));
        let y = g.square(x);
        g.backward(y);
        assert_eq!(g.grad(x).unwrap().get(0, 0), 4.0);
        g.backward(y); // same loss again: must not double-accumulate
        assert_eq!(g.grad(x).unwrap().get(0, 0), 4.0);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar_loss() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(2, 2));
        g.backward(x);
    }

    #[test]
    fn reset_reuses_tape_allocations() {
        let mut g = Graph::new();
        let x = g.leaf(scalar(2.0));
        let y = g.square(x);
        g.backward(y);
        g.reset();
        assert!(g.is_empty());
        let x2 = g.leaf(scalar(3.0));
        let y2 = g.square(x2);
        g.backward(y2);
        assert_eq!(g.grad(x2).unwrap().get(0, 0), 6.0);
    }

    #[test]
    fn take_value_reclaims_leaf_buffer() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0]]));
        let taken = g.take_value(x);
        assert_eq!(taken.as_slice(), &[1.0, 2.0]);
        assert!(g.value(x).is_empty());
    }

    #[test]
    fn unreached_nodes_have_no_grad() {
        let mut g = Graph::new();
        let x = g.leaf(scalar(1.0));
        let unused = g.leaf(scalar(9.0));
        let y = g.square(x);
        g.backward(y);
        assert!(g.grad(unused).is_none());
    }
}
