use crate::simd64::tier;
use crate::tensor::{leaky_relu, matmul_into, matmul_ta_into, matmul_tb_into, sigmoid};
use crate::tensor::{sigmoid_slope, tanh_slope};
use crate::{Activation, Tensor};

/// Identifier of a value node in a [`Graph`].
///
/// `VarId`s are only meaningful for the graph that created them, until its
/// next [`Graph::reset`]; using a stale id or one from a different graph is
/// a logic error (caught by bounds assertions where the tape is shorter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

/// The primitive differentiable operations supported by the tape.
#[derive(Debug, Clone, Copy, Default)]
enum Op {
    /// A leaf value (input, parameter, or constant).
    #[default]
    Leaf,
    /// Matrix product `a * b`.
    MatMul(VarId, VarId),
    /// Fully connected layer `act(x * w + bias)` as one node.
    Linear(VarId, VarId, VarId, Activation),
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

/// One tape slot. The slot and its three buffers outlive [`Graph::reset`],
/// so a tape that records the same ops every step allocates only in its
/// first step (and when a shape grows).
#[derive(Debug, Default)]
struct Node {
    op: Op,
    value: Tensor,
    /// Gradient of the last loss; meaningful only while `has_grad`.
    grad: Tensor,
    /// A fused [`Op::Linear`]'s gradient with respect to its
    /// pre-activation.
    scratch: Tensor,
    /// Whether the node depends on a differentiable leaf; a node that
    /// does not (data) gets no gradient.
    needs_grad: bool,
    /// Whether the current backward pass has written `grad`.
    has_grad: bool,
}

/// A dynamically built reverse-mode automatic-differentiation tape.
///
/// Every operation appends a node holding the forward value; [`Graph::backward`]
/// then walks the tape in reverse, accumulating gradients with respect to a
/// scalar (`1 x 1`) loss node.
///
/// The tape is rebuilt each training step (define-by-run), which keeps
/// model code simple. [`Graph::reset`] keeps every slot's value, gradient
/// and scratch buffer, and ops write into them, so a loop that records the
/// same ops each step stops allocating after its first step (DESIGN.md
/// §2.2, "The tape's reuse contract"). Leaves made by [`Graph::constant`]
/// or [`Graph::frozen`] get no gradient, and neither does anything computed
/// only from them.
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
    /// Slots `0..len` hold the current tape; later slots keep the buffers
    /// of a longer earlier tape.
    nodes: Vec<Node>,
    len: usize,
    /// Holds a gradient contribution while it is added into a node that
    /// already has one.
    tmp: Tensor,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn node(&self, id: VarId) -> &Node {
        assert!(id.0 < self.len, "{id:?} is not on this tape");
        &self.nodes[id.0]
    }

    /// Appends a slot for `op`, returning the nodes before it and the
    /// slot's value buffer for the op to fill. The new node's id is
    /// [`Graph::last`].
    fn push(&mut self, op: Op, needs_grad: bool) -> (&[Node], &mut Tensor) {
        let i = self.len;
        if i == self.nodes.len() {
            self.nodes.push(Node::default());
        }
        self.len += 1;
        let (before, rest) = self.nodes.split_at_mut(i);
        let node = &mut rest[0];
        node.op = op;
        node.needs_grad = needs_grad;
        node.has_grad = false;
        (before, &mut node.value)
    }

    fn last(&self) -> VarId {
        VarId(self.len - 1)
    }

    /// Whether a node over `operands` needs a gradient: whether any of
    /// them does.
    fn needs_grad(&self, operands: &[VarId]) -> bool {
        operands.iter().any(|&id| self.node(id).needs_grad)
    }

    /// Adds a differentiable leaf node holding `value`.
    pub fn leaf(&mut self, value: Tensor) -> VarId {
        *self.push(Op::Leaf, true).1 = value;
        self.last()
    }

    /// Adds a leaf that receives no gradient: data, targets or noise.
    /// Gradient products that would only feed it are skipped.
    pub fn constant(&mut self, value: Tensor) -> VarId {
        *self.push(Op::Leaf, false).1 = value;
        self.last()
    }

    /// Adds a differentiable leaf holding a copy of `value`, written into
    /// the slot's retained buffer (the per-step route for parameters).
    pub fn param(&mut self, value: &Tensor) -> VarId {
        self.copy_leaf(value, true)
    }

    /// Like [`Graph::param`], but the leaf receives no gradient: a
    /// parameter that is read and not trained, as in a gradient-descent
    /// proxy. Its weight-gradient products are skipped, and every other
    /// gradient keeps its bits.
    pub fn frozen(&mut self, value: &Tensor) -> VarId {
        self.copy_leaf(value, false)
    }

    fn copy_leaf(&mut self, value: &Tensor, needs_grad: bool) -> VarId {
        let (rows, cols) = value.shape();
        self.push(Op::Leaf, needs_grad)
            .1
            .copy_from_flat(rows, cols, value.as_slice());
        self.last()
    }

    /// Forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not on the current tape.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.node(id).value
    }

    /// Gradient of the last [`Graph::backward`] loss with respect to node
    /// `id`, or `None` if the node did not receive a gradient (it was not
    /// reached, or it depends on no differentiable leaf).
    pub fn grad(&self, id: VarId) -> Option<&Tensor> {
        let n = self.node(id);
        n.has_grad.then_some(&n.grad)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let needs_grad = self.needs_grad(&[a, b]);
        let (nodes, out) = self.push(Op::MatMul(a, b), needs_grad);
        matmul_into(&nodes[a.0].value, &nodes[b.0].value, out);
        self.last()
    }

    /// Fully connected layer `act(x · w + bias)` as one node: the product
    /// writes the node's buffer, and one pass adds the bias row and applies
    /// the activation. Each element sees the operations of the unfused
    /// `matmul`, `add_row_broadcast` and activation nodes, in the same
    /// order, so values and gradients are bit-identical to theirs.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not `x.cols() x n` or `bias` is not `1 x n`.
    pub fn linear(&mut self, x: VarId, w: VarId, bias: VarId, act: Activation) -> VarId {
        let cols = self.value(w).cols();
        assert_eq!(
            self.value(bias).shape(),
            (1, cols),
            "linear: bias must be 1x{cols}"
        );
        let needs_grad = self.needs_grad(&[x, w, bias]);
        let (nodes, out) = self.push(Op::Linear(x, w, bias, act), needs_grad);
        matmul_into(&nodes[x.0].value, &nodes[w.0].value, out);
        bias_act(out, nodes[bias.0].value.as_slice(), act);
        self.last()
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.zip(Op::Add(a, b), a, b, "add", |x, y| x + y)
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        self.zip(Op::Sub(a, b), a, b, "sub", |x, y| x - y)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        self.zip(Op::Mul(a, b), a, b, "mul", |x, y| x * y)
    }

    fn zip(
        &mut self,
        op: Op,
        a: VarId,
        b: VarId,
        what: &str,
        f: impl Fn(f64, f64) -> f64,
    ) -> VarId {
        let (rows, cols) = self.value(a).shape();
        assert_eq!(
            (rows, cols),
            self.value(b).shape(),
            "{what}: shape mismatch {:?} vs {:?}",
            (rows, cols),
            self.value(b).shape()
        );
        let needs_grad = self.needs_grad(&[a, b]);
        let (nodes, out) = self.push(op, needs_grad);
        out.resize_uninit(rows, cols);
        let (xs, ys) = (nodes[a.0].value.as_slice(), nodes[b.0].value.as_slice());
        for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(xs).zip(ys) {
            *o = f(x, y);
        }
        self.last()
    }

    /// Adds a `1 x cols` bias row to every row of `a`.
    pub fn add_row_broadcast(&mut self, a: VarId, bias: VarId) -> VarId {
        let cols = self.value(a).cols();
        assert_eq!(
            self.value(bias).shape(),
            (1, cols),
            "broadcast bias must be 1x{cols}, got {:?}",
            self.value(bias).shape()
        );
        let needs_grad = self.needs_grad(&[a, bias]);
        let (nodes, out) = self.push(Op::AddRowBroadcast(a, bias), needs_grad);
        let src = &nodes[a.0].value;
        out.copy_from_flat(src.rows(), cols, src.as_slice());
        bias_act(out, nodes[bias.0].value.as_slice(), Activation::Identity);
        self.last()
    }

    fn map(&mut self, op: Op, a: VarId, f: impl Fn(f64) -> f64) -> VarId {
        let (rows, cols) = self.value(a).shape();
        let needs_grad = self.needs_grad(&[a]);
        let (nodes, out) = self.push(op, needs_grad);
        out.resize_uninit(rows, cols);
        for (o, &x) in out
            .as_mut_slice()
            .iter_mut()
            .zip(nodes[a.0].value.as_slice())
        {
            *o = f(x);
        }
        self.last()
    }

    /// Multiplies every element by the constant `k`.
    pub fn scale(&mut self, a: VarId, k: f64) -> VarId {
        self.map(Op::Scale(a, k), a, |x| x * k)
    }

    /// Adds the constant `k` to every element.
    pub fn add_scalar(&mut self, a: VarId, k: f64) -> VarId {
        self.map(Op::AddScalar(a), a, |x| x + k)
    }

    /// Leaky ReLU activation: `x if x > 0 else slope * x`.
    pub fn leaky_relu(&mut self, a: VarId, slope: f64) -> VarId {
        self.map(Op::LeakyRelu(a, slope), a, |x| leaky_relu(x, slope))
    }

    /// Logistic sigmoid activation.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        self.map(Op::Sigmoid(a), a, sigmoid)
    }

    /// Hyperbolic tangent activation.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        self.map(Op::Tanh(a), a, f64::tanh)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: VarId) -> VarId {
        self.map(Op::Exp(a), a, f64::exp)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: VarId) -> VarId {
        self.map(Op::Square(a), a, |x| x * x)
    }

    fn reduce(&mut self, op: Op, a: VarId, v: f64) -> VarId {
        let needs_grad = self.needs_grad(&[a]);
        self.push(op, needs_grad).1.copy_from_flat(1, 1, &[v]);
        self.last()
    }

    /// Sum of all elements as a `1 x 1` tensor.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let v = self.value(a).sum();
        self.reduce(Op::SumAll(a), a, v)
    }

    /// Mean of all elements as a `1 x 1` tensor.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let v = self.value(a).mean();
        self.reduce(Op::MeanAll(a), a, v)
    }

    /// Column slice `[start, end)`.
    pub fn slice_cols(&mut self, a: VarId, start: usize, end: usize) -> VarId {
        let (rows, cols) = self.value(a).shape();
        assert!(
            start <= end && end <= cols,
            "invalid column range {start}..{end}"
        );
        let needs_grad = self.needs_grad(&[a]);
        let (nodes, out) = self.push(Op::SliceCols(a, start, end), needs_grad);
        out.resize_uninit(rows, end - start);
        copy_cols(&nodes[a.0].value, start, out, 0);
        self.last()
    }

    /// Column-wise concatenation.
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let (rows, ca) = self.value(a).shape();
        let cb = self.value(b).cols();
        assert_eq!(
            rows,
            self.value(b).rows(),
            "concat_cols: row counts differ ({rows} vs {})",
            self.value(b).rows()
        );
        let needs_grad = self.needs_grad(&[a, b]);
        let (nodes, out) = self.push(Op::ConcatCols(a, b), needs_grad);
        out.resize_uninit(rows, ca + cb);
        copy_cols(&nodes[a.0].value, 0, out, 0);
        copy_cols(&nodes[b.0].value, 0, out, ca);
        self.last()
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
    /// Gradients from any previous `backward` call are cleared first. Each
    /// node's first gradient contribution is written straight into its
    /// retained buffer; later ones are computed aside and added, which
    /// rounds exactly like summing freshly allocated tensors.
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
        for n in &mut self.nodes[..self.len] {
            n.has_grad = false;
        }
        let seed = &mut self.nodes[loss.0];
        seed.grad.copy_from_flat(1, 1, &[1.0]);
        seed.has_grad = true;

        let Graph { nodes, tmp, .. } = self;
        for i in (0..=loss.0).rev() {
            let (lo, hi) = nodes.split_at_mut(i);
            let Node {
                op,
                value,
                grad: gout,
                scratch,
                needs_grad,
                has_grad,
            } = &mut hi[0];
            if !*has_grad || !*needs_grad {
                continue;
            }
            let (gout, value, shape) = (&*gout, &*value, value.shape());
            // The upstream gradient passed through unchanged.
            let pass =
                |_: &[Node], out: &mut Tensor| write(out, shape, gout.as_slice().iter().copied());
            match *op {
                Op::Leaf => {}
                Op::MatMul(a, b) => product_grads(lo, tmp, a, b, gout),
                Op::Linear(x, w, bias, act) => {
                    // The same rules as the unfused `MatMul`,
                    // `AddRowBroadcast` and activation arms, on the
                    // pre-activation's gradient.
                    let gpre = match act {
                        Activation::Identity => gout,
                        _ => local_grad(scratch, gout, value, act),
                    };
                    contribute(lo, tmp, bias, |_, out| gpre.sum_rows_into(out));
                    product_grads(lo, tmp, x, w, gpre);
                }
                Op::Add(a, b) => {
                    contribute(lo, tmp, a, pass);
                    contribute(lo, tmp, b, pass);
                }
                Op::Sub(a, b) => {
                    contribute(lo, tmp, a, pass);
                    contribute(lo, tmp, b, |_, out| {
                        write(out, shape, gout.as_slice().iter().map(|&g| -g))
                    });
                }
                Op::Mul(a, b) => {
                    contribute(lo, tmp, a, |n, out| {
                        write(out, shape, times(gout, &n[b.0].value, |v| v))
                    });
                    contribute(lo, tmp, b, |n, out| {
                        write(out, shape, times(gout, &n[a.0].value, |v| v))
                    });
                }
                Op::AddRowBroadcast(a, bias) => {
                    contribute(lo, tmp, bias, |_, out| gout.sum_rows_into(out));
                    contribute(lo, tmp, a, pass);
                }
                Op::Scale(a, k) => {
                    contribute(lo, tmp, a, |_, out| {
                        write(out, shape, gout.as_slice().iter().map(|&g| g * k))
                    });
                }
                Op::AddScalar(a) => contribute(lo, tmp, a, pass),
                Op::LeakyRelu(a, slope) => {
                    let d = |x: f64| if x > 0.0 { 1.0 } else { slope };
                    contribute(lo, tmp, a, |n, out| {
                        write(out, shape, times(gout, &n[a.0].value, d))
                    });
                }
                Op::Sigmoid(a) => {
                    contribute(lo, tmp, a, |_, out| {
                        write(out, shape, times(gout, value, sigmoid_slope))
                    });
                }
                Op::Tanh(a) => {
                    contribute(lo, tmp, a, |_, out| {
                        write(out, shape, times(gout, value, tanh_slope))
                    });
                }
                Op::Exp(a) => {
                    contribute(lo, tmp, a, |_, out| {
                        write(out, shape, times(gout, value, |y| y))
                    });
                }
                Op::Square(a) => {
                    contribute(lo, tmp, a, |n, out| {
                        write(out, shape, times(gout, &n[a.0].value, |x| 2.0 * x))
                    });
                }
                Op::SumAll(a) => {
                    let g = gout.get(0, 0);
                    contribute(lo, tmp, a, |n, out| {
                        let (r, c) = n[a.0].value.shape();
                        write(out, (r, c), std::iter::repeat_n(g, r * c))
                    });
                }
                Op::MeanAll(a) => {
                    contribute(lo, tmp, a, |n, out| {
                        let (r, c) = n[a.0].value.shape();
                        let g = gout.get(0, 0) / (r * c) as f64;
                        write(out, (r, c), std::iter::repeat_n(g, r * c))
                    });
                }
                Op::SliceCols(a, start, _end) => {
                    // The rest of `a` gets explicit `+0.0`s: added to an
                    // earlier contribution they turn its `-0.0`s into
                    // `+0.0`, and the bits depend on that.
                    contribute(lo, tmp, a, |n, out| {
                        let (r, c) = n[a.0].value.shape();
                        write(out, (r, c), std::iter::repeat_n(0.0, r * c));
                        copy_cols(gout, 0, out, start);
                    });
                }
                Op::ConcatCols(a, b) => {
                    let ca = lo[a.0].value.cols();
                    contribute(lo, tmp, a, |_, out| {
                        out.resize_uninit(shape.0, ca);
                        copy_cols(gout, 0, out, 0);
                    });
                    contribute(lo, tmp, b, |_, out| {
                        out.resize_uninit(shape.0, shape.1 - ca);
                        copy_cols(gout, ca, out, 0);
                    });
                }
            }
        }
    }

    /// Clears the tape for reuse. Every slot keeps its value, gradient and
    /// scratch buffers, so the next step's ops write into them.
    ///
    /// All previously issued [`VarId`]s become invalid.
    pub fn reset(&mut self) {
        self.len = 0;
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
    /// Panics if `id` is not on the current tape.
    pub fn take_value(&mut self, id: VarId) -> Tensor {
        assert!(id.0 < self.len, "{id:?} is not on this tape");
        std::mem::take(&mut self.nodes[id.0].value)
    }
}

/// Adds `bias` to every row of `out` and applies `act` to each sum.
fn bias_act(out: &mut Tensor, bias: &[f64], act: Activation) {
    if bias.is_empty() {
        return;
    }
    // SAFETY: the tier was selected under runtime feature detection.
    unsafe { (tier().bias_act)(out.as_mut_slice(), bias, act) };
}

/// Copies every row of `src`, from column `from` on, into `dst` from
/// column `at` on, as many columns as fit in the narrower side.
fn copy_cols(src: &Tensor, from: usize, dst: &mut Tensor, at: usize) {
    let (sc, dc) = (src.cols(), dst.cols());
    let width = (sc - from).min(dc - at);
    if width == 0 {
        return;
    }
    let rows = dst.as_mut_slice().chunks_exact_mut(dc);
    for (d, s) in rows.zip(src.as_slice().chunks_exact(sc)) {
        d[at..at + width].copy_from_slice(&s[from..from + width]);
    }
}

/// Reshapes `out` to `shape` and fills it from `values`, row-major.
fn write(out: &mut Tensor, (rows, cols): (usize, usize), values: impl Iterator<Item = f64>) {
    out.resize_uninit(rows, cols);
    for (o, v) in out.as_mut_slice().iter_mut().zip(values) {
        *o = v;
    }
}

/// `g[k] * d(x[k])` for every element.
fn times<'a>(
    g: &'a Tensor,
    x: &'a Tensor,
    d: impl Fn(f64) -> f64 + 'a,
) -> impl Iterator<Item = f64> + 'a {
    g.as_slice()
        .iter()
        .zip(x.as_slice())
        .map(move |(&gv, &xv)| gv * d(xv))
}

/// Adds the gradients of the product `a · b` into `a` and `b`, from the
/// product's gradient `g`.
fn product_grads(nodes: &mut [Node], tmp: &mut Tensor, a: VarId, b: VarId, g: &Tensor) {
    contribute(nodes, tmp, a, |n, out| {
        matmul_tb_into(g, &n[b.0].value, out)
    });
    contribute(nodes, tmp, b, |n, out| {
        matmul_ta_into(&n[a.0].value, g, out)
    });
}

/// Writes `g · act'(y)` into `scratch`, the gradient of a fused layer's
/// pre-activation from its output `y`.
fn local_grad<'a>(scratch: &'a mut Tensor, g: &Tensor, y: &Tensor, act: Activation) -> &'a Tensor {
    let (rows, cols) = g.shape();
    assert_eq!(
        y.shape(),
        (rows, cols),
        "local_grad: gradient and output shapes differ"
    );
    scratch.resize_uninit(rows, cols);
    // SAFETY: the tier was selected under runtime feature detection, and
    // the three buffers have one length (asserted and resized above).
    unsafe { (tier().local_grad)(scratch.as_mut_slice(), g.as_slice(), y.as_slice(), act) };
    scratch
}

/// Adds one gradient contribution into node `dst`, if it needs one.
/// `compute` writes the contribution, shaped like `dst`, into
/// the tensor it is handed: `dst`'s own buffer for the first contribution
/// of a backward pass, else `tmp`, which is then added in.
fn contribute(
    nodes: &mut [Node],
    tmp: &mut Tensor,
    dst: VarId,
    compute: impl FnOnce(&[Node], &mut Tensor),
) {
    if !nodes[dst.0].needs_grad {
        return;
    }
    let mut grad = std::mem::take(&mut nodes[dst.0].grad);
    if nodes[dst.0].has_grad {
        compute(nodes, tmp);
        grad.add_assign(tmp);
    } else {
        compute(nodes, &mut grad);
    }
    let node = &mut nodes[dst.0];
    node.grad = grad;
    node.has_grad = true;
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
    fn broadcast_bias_gradient_sums_over_rows() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let b = g.leaf(Tensor::row_vector(&[0.1, 0.2]));
        let y = g.add_row_broadcast(x, b);
        assert_eq!(g.value(y).as_slice(), &[1.1, 2.2, 3.1, 4.2, 5.1, 6.2]);
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

    /// Deterministic values with exact zeros and both signs, so leaky
    /// ReLU's kink and signed-zero sums are exercised.
    fn pattern(rows: usize, cols: usize, salt: u64) -> Tensor {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match state >> 60 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0,
                }
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn bits(t: &Tensor) -> Vec<u64> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `loss = mean(act(x·w + b)²)` through the fused node or through the
    /// separate `matmul`, `add_row_broadcast` and activation nodes, on one
    /// reused graph; returns the output and the x, w, b gradients.
    fn layer_pass(g: &mut Graph, fused: bool, act: Activation, x: &Tensor) -> [Tensor; 4] {
        let (w0, b0) = (pattern(x.cols(), 7, 3), pattern(1, 7, 4));
        g.reset();
        let x = g.leaf(x.clone());
        let w = g.param(&w0);
        let b = g.param(&b0);
        let y = if fused {
            g.linear(x, w, b, act)
        } else {
            let p = g.matmul(x, w);
            let pre = g.add_row_broadcast(p, b);
            act.apply(g, pre)
        };
        let sq = g.square(y);
        let l = g.mean_all(sq);
        g.backward(l);
        let grad = |id| g.grad(id).expect("differentiable").clone();
        [g.value(y).clone(), grad(x), grad(w), grad(b)]
    }

    #[test]
    fn fused_linear_matches_the_unfused_ops_bit_for_bit() {
        let (mut fused, mut unfused) = (Graph::new(), Graph::new());
        for act in [
            Activation::LeakyRelu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ] {
            // A full batch, a short one, then the full one again: the
            // reused slots shrink and grow.
            for (rows, salt) in [(13, 1), (5, 2), (13, 5)] {
                let x = pattern(rows, 9, salt);
                let want = layer_pass(&mut unfused, false, act, &x);
                let got = layer_pass(&mut fused, true, act, &x);
                for (what, (w, g)) in ["value", "dx", "dw", "db"]
                    .iter()
                    .zip(want.iter().zip(&got))
                {
                    assert_eq!(w.shape(), g.shape(), "{act:?} {what} shape");
                    assert_eq!(bits(w), bits(g), "{act:?} {what} at {rows} rows");
                }
            }
        }
    }

    #[test]
    fn constants_and_what_only_they_feed_get_no_gradient() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0]]));
        let c = g.constant(Tensor::from_rows(&[&[3.0, 4.0]]));
        let c2 = g.square(c);
        let prod = g.mul(x, c2);
        let l = g.sum_all(prod);
        g.backward(l);
        assert!(g.grad(c).is_none());
        assert!(g.grad(c2).is_none());
        assert_eq!(g.grad(x).unwrap().as_slice(), &[9.0, 16.0]);
    }

    #[test]
    fn a_constant_side_of_a_concatenation_moves_no_gradient_bits() {
        // The proxy pattern: a differentiable point joined with data
        // features feeds two layers. Making the data constant skips its
        // gradient and leaves the point's gradient bits as they were.
        let run = |data_is_constant: bool| {
            let mut g = Graph::new();
            let x = g.leaf(pattern(6, 3, 7));
            let l0 = pattern(6, 5, 8);
            let l = if data_is_constant {
                g.constant(l0)
            } else {
                g.leaf(l0)
            };
            let joined = g.concat_cols(x, l);
            let mut sum = None;
            for salt in [9, 10] {
                let w = g.param(&pattern(8, 4, salt));
                let b = g.param(&pattern(1, 4, salt + 10));
                let h = g.linear(joined, w, b, Activation::LeakyRelu);
                sum = Some(match sum {
                    None => h,
                    Some(s) => g.add(s, h),
                });
            }
            let loss = g.sum_all(sum.unwrap());
            g.backward(loss);
            (g.grad(x).unwrap().clone(), g.grad(l).is_some())
        };
        let (want, data_grad) = run(false);
        let (got, no_data_grad) = run(true);
        assert_eq!(bits(&want), bits(&got));
        assert!(data_grad && !no_data_grad);
    }

    #[test]
    fn reset_keeps_op_buffers_across_steps_and_shapes() {
        let mut g = Graph::new();
        let w0 = pattern(4, 3, 1);
        let mut step = |rows: usize| {
            g.reset();
            let x = g.constant(pattern(rows, 4, rows as u64));
            let w = g.param(&w0);
            let y = g.matmul(x, w);
            let sq = g.square(y);
            let l = g.mean_all(sq);
            g.backward(l);
            (
                g.value(y).as_slice().as_ptr(),
                g.grad(y).unwrap().as_slice().as_ptr(),
                g.grad(w).unwrap().as_slice().as_ptr(),
            )
        };
        let first = step(8);
        assert_eq!(step(8), first, "a repeated step reuses every buffer");
        step(3);
        assert_eq!(step(8), first, "shrinking keeps the capacity");
    }
}
