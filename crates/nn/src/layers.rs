use crate::{Graph, Tensor, VarId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A trainable parameter tensor together with its gradient and Adam moments.
///
/// Layers own their `Param`s; the optimizer mutates them through
/// [`crate::Adam::step`] / [`crate::Adam::update`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass.
    pub grad: Tensor,
    /// First-moment estimate (Adam state).
    pub m: Tensor,
    /// Second-moment estimate (Adam state).
    pub v: Tensor,
}

impl Param {
    /// Wraps a value tensor with zeroed gradient and optimizer state.
    pub fn new(value: Tensor) -> Self {
        let (r, c) = value.shape();
        Param {
            value,
            grad: Tensor::zeros(r, c),
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
        }
    }

    /// Resets the gradient to zero in place, keeping the buffer allocation.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// Activation functions available between MLP layers.
///
/// The paper's VAE uses leaky ReLU between layers (§III-B1); sigmoid is used
/// on decoder/predictor outputs because all features and labels are
/// min-max-normalized into `[0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Leaky ReLU with negative slope 0.01.
    #[default]
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// No activation.
    Identity,
}

impl Activation {
    /// Applies the activation to a graph node.
    pub fn apply(self, g: &mut Graph, x: VarId) -> VarId {
        match self {
            Activation::LeakyRelu => g.leaky_relu(x, LEAKY_SLOPE),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Tanh => g.tanh(x),
            Activation::Identity => x,
        }
    }
}

/// Negative slope of [`Activation::LeakyRelu`].
pub(crate) const LEAKY_SLOPE: f64 = 0.01;

/// A fully connected layer `y = x W + b`.
///
/// Weights are initialized with Kaiming-uniform scaling
/// (`U(-√(6/fan_in), √(6/fan_in))`), biases at zero.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix of shape `in_dim x out_dim`.
    pub weight: Param,
    /// Bias row of shape `1 x out_dim`.
    pub bias: Param,
}

impl Linear {
    /// Creates a new layer with Kaiming-uniform weights drawn from `rng`.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        let bound = (6.0 / in_dim as f64).sqrt();
        let data: Vec<f64> = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Linear {
            weight: Param::new(Tensor::from_vec(in_dim, out_dim, data)),
            bias: Param::new(Tensor::zeros(1, out_dim)),
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Runs the layer on graph node `x` as one fused node `act(x W + b)`
    /// ([`Graph::linear`]), its weight and bias recorded by `leaf`
    /// ([`Graph::param`] or [`Graph::frozen`]); returns `(output, weight
    /// id, bias id)`.
    fn record(
        &self,
        g: &mut Graph,
        x: VarId,
        act: Activation,
        leaf: impl Fn(&mut Graph, &Tensor) -> VarId,
    ) -> (VarId, VarId, VarId) {
        let w = leaf(g, &self.weight.value);
        let b = leaf(g, &self.bias.value);
        (g.linear(x, w, b, act), w, b)
    }
}

/// A multilayer perceptron with a uniform hidden activation and an optional
/// output activation.
///
/// This is the building block for the VAE encoder, decoder, and the latency
/// and energy predictor heads.
///
/// # Examples
///
/// ```
/// use vaesa_nn::{Mlp, Activation, Graph, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mlp = Mlp::new(&[4, 8, 2], Activation::LeakyRelu, Activation::Identity, &mut rng);
/// let mut g = Graph::new();
/// let x = g.leaf(Tensor::zeros(3, 4));
/// let y = mlp.forward(&mut g, x).output;
/// assert_eq!(g.value(y).shape(), (3, 2));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

/// The result of an [`Mlp::forward`] pass: the output node plus where its
/// parameter leaves sit on the tape, used to route gradients back into the
/// model. Plain data, so a training step records its passes without
/// allocating.
#[derive(Debug, Clone, Copy)]
pub struct MlpPass {
    /// Graph node holding the MLP output.
    pub output: VarId,
    /// The first layer's weight node. Each layer records three consecutive
    /// nodes — weight, bias, output — so the rest follow from it.
    first_weight: VarId,
    depth: usize,
}

impl MlpPass {
    /// Nodes each layer records on the tape: weight, bias, output.
    const NODES_PER_LAYER: usize = 3;

    /// `(weight id, bias id)` per layer, in layer order.
    pub fn param_ids(&self) -> impl Iterator<Item = (VarId, VarId)> {
        let first = self.first_weight.0;
        (0..self.depth).map(move |i| {
            let w = first + i * Self::NODES_PER_LAYER;
            (VarId(w), VarId(w + 1))
        })
    }
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[6, 32, 16, 4]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    pub fn new(
        widths: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            hidden_activation,
            output_activation,
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("mlp has layers").in_dim()
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("mlp has layers").out_dim()
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weight.value.len() + l.bias.value.len())
            .sum()
    }

    /// Runs the MLP on graph node `x`, its parameters recorded by
    /// [`Graph::param`] so they receive gradients.
    pub fn forward(&self, g: &mut Graph, x: VarId) -> MlpPass {
        self.record(g, x, Graph::param)
    }

    /// Runs the MLP on graph node `x` with its parameters as
    /// [`Graph::frozen`] leaves: the input still gets its gradient, with
    /// the same bits as through [`Mlp::forward`], but no weight or bias
    /// gradient is computed.
    pub fn forward_frozen(&self, g: &mut Graph, x: VarId) -> MlpPass {
        self.record(g, x, Graph::frozen)
    }

    fn record(
        &self,
        g: &mut Graph,
        x: VarId,
        leaf: impl Fn(&mut Graph, &Tensor) -> VarId,
    ) -> MlpPass {
        let mut h = x;
        let mut first_weight = None;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i == last {
                self.output_activation
            } else {
                self.hidden_activation
            };
            let (out, w, b) = layer.record(g, h, act, &leaf);
            let first = first_weight.get_or_insert(w).0 + i * MlpPass::NODES_PER_LAYER;
            assert_eq!(
                (w.0, b.0),
                (first, first + 1),
                "each layer records (weight, bias, output) consecutively"
            );
            h = out;
        }
        MlpPass {
            output: h,
            first_weight: first_weight.expect("mlp has layers"),
            depth: self.layers.len(),
        }
    }

    /// Adds the gradients recorded in `g` for the pass `pass` into each
    /// parameter's `grad` buffer.
    ///
    /// Call after `g.backward(loss)`. Parameters that received no gradient
    /// (e.g. when the loss does not depend on this MLP) are left untouched.
    pub fn accumulate_grads(&mut self, g: &Graph, pass: &MlpPass) {
        assert_eq!(
            pass.depth,
            self.layers.len(),
            "pass does not match this MLP"
        );
        for (layer, (wid, bid)) in self.layers.iter_mut().zip(pass.param_ids()) {
            if let Some(gw) = g.grad(wid) {
                layer.weight.grad.add_assign(gw);
            }
            if let Some(gb) = g.grad(bid) {
                layer.bias.grad.add_assign(gb);
            }
        }
    }

    /// Visits every parameter mutably (weights then bias, per layer).
    pub fn visit_params(&mut self, f: &mut impl FnMut(&mut Param)) {
        for layer in &mut self.layers {
            f(&mut layer.weight);
            f(&mut layer.bias);
        }
    }

    /// Resets all gradients to zero.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Flattens all parameter values into one vector (for tests and
    /// finite-difference checks).
    pub fn flatten_params(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for layer in &self.layers {
            out.extend_from_slice(layer.weight.value.as_slice());
            out.extend_from_slice(layer.bias.value.as_slice());
        }
        out
    }

    /// Overwrites all parameter values from a flat vector produced by
    /// [`Mlp::flatten_params`].
    ///
    /// # Panics
    ///
    /// Panics if `flat` has the wrong length.
    pub fn unflatten_params(&mut self, flat: &[f64]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat parameter length mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            for dst in [&mut layer.weight, &mut layer.bias] {
                let n = dst.value.len();
                let (r, c) = dst.value.shape();
                dst.value = Tensor::from_vec(r, c, flat[offset..offset + n].to_vec());
                offset += n;
            }
        }
    }

    /// Applies one Adam step to every parameter of this MLP.
    ///
    /// Advances the optimizer's step counter exactly once, then updates each
    /// parameter with the same bias correction.
    pub fn adam_step(&mut self, adam: &mut crate::Adam) {
        adam.begin_step();
        self.visit_params(&mut |p| adam.update(p));
    }

    /// Flattens all parameter gradients in the same order as
    /// [`Mlp::flatten_params`].
    pub fn flatten_grads(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for layer in &self.layers {
            out.extend_from_slice(layer.weight.grad.as_slice());
            out.extend_from_slice(layer.bias.grad.as_slice());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite_diff_check;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_shapes_and_init_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let l = Linear::new(6, 3, &mut rng);
        assert_eq!(l.in_dim(), 6);
        assert_eq!(l.out_dim(), 3);
        let bound = (6.0f64 / 6.0).sqrt();
        assert!(l.weight.value.as_slice().iter().all(|w| w.abs() <= bound));
        assert!(l.bias.value.as_slice().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn mlp_forward_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mlp = Mlp::new(
            &[5, 7, 3],
            Activation::LeakyRelu,
            Activation::Sigmoid,
            &mut rng,
        );
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.depth(), 2);
        assert_eq!(mlp.param_count(), 5 * 7 + 7 + 7 * 3 + 3);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(4, 5));
        let pass = mlp.forward(&mut g, x);
        assert_eq!(g.value(pass.output).shape(), (4, 3));
        // Sigmoid output stays in (0, 1).
        assert!(g
            .value(pass.output)
            .as_slice()
            .iter()
            .all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn mlp_gradients_match_finite_difference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[3, 4, 2], Activation::Tanh, Activation::Identity, &mut rng);
        let x = Tensor::from_rows(&[&[0.3, -0.8, 0.5], &[1.0, 0.2, -0.4]]);
        let target = Tensor::from_rows(&[&[0.1, 0.9], &[-0.5, 0.3]]);

        let loss_of = |mlp: &Mlp| {
            let mut g = Graph::new();
            let xi = g.leaf(x.clone());
            let ti = g.leaf(target.clone());
            let pass = mlp.forward(&mut g, xi);
            let l = g.mse(pass.output, ti);
            (g, pass, l)
        };

        let (mut g, pass, l) = loss_of(&mlp);
        g.backward(l);
        mlp.zero_grad();
        mlp.accumulate_grads(&g, &pass);
        let analytic = mlp.flatten_grads();
        let theta = mlp.flatten_params();

        let mut probe = mlp.clone();
        let worst = finite_diff_check(&theta, &analytic, 1e-6, |p| {
            probe.unflatten_params(p);
            let (g, _, l) = loss_of(&probe);
            g.value(l).get(0, 0)
        });
        assert!(worst < 1e-7, "mlp grads off by {worst}");
    }

    #[test]
    fn flatten_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut mlp = Mlp::new(
            &[2, 3, 1],
            Activation::LeakyRelu,
            Activation::Identity,
            &mut rng,
        );
        let flat = mlp.flatten_params();
        let mut clone = mlp.clone();
        clone.unflatten_params(&flat);
        assert_eq!(clone.flatten_params(), flat);
        // Mutating through unflatten changes the forward result.
        let bumped: Vec<f64> = flat.iter().map(|v| v + 1.0).collect();
        mlp.unflatten_params(&bumped);
        assert_ne!(mlp.flatten_params(), flat);
    }

    #[test]
    fn accumulate_grads_adds_rather_than_overwrites() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut mlp = Mlp::new(
            &[2, 2],
            Activation::Identity,
            Activation::Identity,
            &mut rng,
        );
        let x = Tensor::from_rows(&[&[1.0, 1.0]]);
        let t = Tensor::from_rows(&[&[0.0, 0.0]]);
        let run = |mlp: &Mlp| {
            let mut g = Graph::new();
            let xi = g.leaf(x.clone());
            let ti = g.leaf(t.clone());
            let pass = mlp.forward(&mut g, xi);
            let l = g.mse(pass.output, ti);
            g.backward(l);
            (g, pass)
        };
        mlp.zero_grad();
        let (g1, p1) = run(&mlp);
        mlp.accumulate_grads(&g1, &p1);
        let once = mlp.flatten_grads();
        let (g2, p2) = run(&mlp);
        mlp.accumulate_grads(&g2, &p2);
        let twice = mlp.flatten_grads();
        for (a, b) in once.iter().zip(&twice) {
            assert!((b - 2.0 * a).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_grad_clears() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut mlp = Mlp::new(
            &[2, 2],
            Activation::Identity,
            Activation::Identity,
            &mut rng,
        );
        mlp.visit_params(&mut |p| p.grad = Tensor::fill(p.grad.rows(), p.grad.cols(), 3.0));
        mlp.zero_grad();
        assert!(mlp.flatten_grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_rejects_single_width() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let _ = Mlp::new(&[4], Activation::Identity, Activation::Identity, &mut rng);
    }
}
