//! Network building blocks: linear layers, MLPs and the paper's CNN trunk.
//!
//! Parameter ownership stays in the layer structs as plain [`Tensor`]s; a
//! forward pass binds them into a fresh [`Graph`] as leaves via
//! [`bind_params`], mirroring how a Stellaris learner function initialises
//! its policy model from the cached weights on every invocation.

use std::borrow::Cow;

use rand::Rng;

use crate::conv::{Conv2dSpec, Filters};
use crate::gemm::FusedAct;
use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Activation functions used in Table II of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Hyperbolic tangent (MuJoCo MLPs).
    Tanh,
    /// Rectified linear unit (Atari CNNs).
    Relu,
}

impl Activation {
    /// The fused-epilogue equivalent, for [`Graph::dense`],
    /// [`Graph::conv2d_rows`] and [`Tensor::matmul_bias_act`].
    /// Bit-identical to applying the activation as a separate op (see
    /// DESIGN.md §11).
    pub fn fused(self) -> FusedAct {
        match self {
            Activation::Tanh => FusedAct::Tanh,
            Activation::Relu => FusedAct::Relu,
        }
    }
}

/// Anything that owns a flat list of trainable tensors.
pub trait ParamSet {
    /// Immutable references to every parameter tensor, in a stable order.
    fn params(&self) -> Vec<&Tensor>;
    /// Mutable references to every parameter tensor, in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Shapes of all parameters.
    fn param_shapes(&self) -> Vec<Vec<usize>> {
        self.params().iter().map(|t| t.shape().to_vec()).collect()
    }

    /// Total trainable scalar count.
    fn num_scalars(&self) -> usize {
        self.params().iter().map(|t| t.numel()).sum()
    }

    /// Serialises all parameters into one flat buffer.
    fn flatten(&self) -> Vec<f32> {
        let params = self.params();
        let mut flat = Vec::with_capacity(params.iter().map(|t| t.numel()).sum());
        for t in params {
            flat.extend_from_slice(t.data());
        }
        flat
    }

    /// Loads all parameters from a flat buffer produced by
    /// [`ParamSet::flatten`], copying into the existing tensors.
    fn load_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            self.num_scalars(),
            flat.len(),
            "unflatten_all length mismatch"
        );
        let mut rest = flat;
        for dst in self.params_mut() {
            let (head, tail) = rest.split_at(dst.numel());
            dst.data_mut().copy_from_slice(head);
            rest = tail;
        }
    }
}

/// Binds a parameter list into a graph as leaf variables that borrow the
/// tensors ([`Graph::param`]): no weight is copied.
pub fn bind_params<'p>(g: &Graph<'p>, params: &[&'p Tensor]) -> Vec<Var> {
    params.iter().map(|&t| g.param(t)).collect()
}

/// Fully-connected layer: weight `[in, out]` plus bias `[out]`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix, `[in_dim, out_dim]`.
    pub w: Tensor,
    /// Bias vector, `[out_dim]`.
    pub b: Tensor,
}

impl Linear {
    /// Xavier-uniform initialised layer; `gain` scales the init range
    /// (use a small gain like 0.01 for policy output heads).
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, gain: f32, rng: &mut R) -> Self {
        let bound = gain * (6.0 / (in_dim + out_dim) as f32).sqrt();
        Self {
            w: Tensor::rand_uniform(&[in_dim, out_dim], -bound, bound.max(1e-8), rng),
            b: Tensor::zeros(&[out_dim]),
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[1]
    }

    /// `x @ w + b` where `wv`/`bv` are this layer's bound parameter vars,
    /// recorded as a single fused node.
    pub fn forward(&self, g: &Graph, x: Var, wv: Var, bv: Var) -> Var {
        g.dense(x, wv, bv, FusedAct::Identity)
    }
}

/// Multi-layer perceptron with a uniform hidden activation and a linear
/// output layer (Table II's "2 x 256, Tanh" configuration and friends).
#[derive(Clone, Debug)]
pub struct Mlp {
    /// All layers, applied in order; activation after every layer except the last.
    pub layers: Vec<Linear>,
    /// Hidden activation.
    pub activation: Activation,
}

impl Mlp {
    /// Builds an MLP from layer sizes `[in, h1, ..., out]`. The final layer's
    /// init is scaled by `out_gain`.
    pub fn new<R: Rng + ?Sized>(
        sizes: &[usize],
        activation: Activation,
        out_gain: f32,
        rng: &mut R,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "Mlp needs at least input and output sizes"
        );
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let gain = if i == sizes.len() - 2 { out_gain } else { 1.0 };
            layers.push(Linear::new(sizes[i], sizes[i + 1], gain, rng));
        }
        Self { layers, activation }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output feature dimension.
    #[expect(
        clippy::unwrap_used,
        reason = "`new` asserts sizes.len() >= 2, so layers is never empty"
    )]
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim()
    }

    /// Graph-free forward pass for inference (actor-side sampling needs no
    /// gradients, mirroring the paper's actor/learner split).
    pub fn forward_plain(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let act = if i + 1 < self.layers.len() {
                self.activation.fused()
            } else {
                FusedAct::Identity
            };
            h = h.matmul_bias_act(&layer.w, &layer.b, act);
        }
        h
    }

    /// Forward pass; `params` must come from [`bind_params`] over
    /// [`ParamSet::params`] (order: `w0, b0, w1, b1, ...`). Each layer is
    /// one fused dense node.
    pub fn forward(&self, g: &Graph, x: Var, params: &[Var]) -> Var {
        assert_eq!(
            params.len(),
            self.layers.len() * 2,
            "param var count mismatch"
        );
        let mut h = x;
        for i in 0..self.layers.len() {
            let act = if i + 1 < self.layers.len() {
                self.activation.fused()
            } else {
                FusedAct::Identity
            };
            h = g.dense(h, params[2 * i], params[2 * i + 1], act);
        }
        h
    }
}

impl ParamSet for Mlp {
    fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| [&l.w, &l.b]).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| [&mut l.w, &mut l.b])
            .collect()
    }
}

/// One convolutional layer of the Atari trunk.
#[derive(Clone, Debug)]
pub struct ConvLayer {
    /// Filters, `[out_c, in_c, kh, kw]`, with the re-lay the graph-free
    /// forward reads ([`Filters`]).
    pub w: Filters,
    /// Bias, `[out_c]`.
    pub b: Tensor,
    /// Stride for both spatial axes.
    pub stride: usize,
}

impl ConvLayer {
    /// Kaiming-style uniform init.
    pub fn new<R: Rng + ?Sized>(
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        rng: &mut R,
    ) -> Self {
        let fan_in = (in_c * k * k) as f32;
        let bound = (6.0 / fan_in).sqrt();
        Self {
            w: Tensor::rand_uniform(&[out_c, in_c, k, k], -bound, bound, rng).into(),
            b: Tensor::zeros(&[out_c]),
            stride,
        }
    }

    /// Geometry of this layer over `batch` images of shape `[c, h, w]`.
    fn spec(&self, batch: usize, [c, h, w]: [usize; 3]) -> Conv2dSpec {
        Conv2dSpec::infer(&[batch, c, h, w], self.w.shape(), self.stride)
    }
}

/// Convolutional trunk + fully-connected feature layer, the paper's Atari
/// architecture (Table II). The paper's final `256 @ 11x11` convolution
/// collapses the feature map to `1x1`, which is algebraically a dense layer
/// over the flattened map; we implement it as exactly that.
#[derive(Clone, Debug)]
pub struct Cnn {
    /// Input image geometry `[c, h, w]` (after frame stacking).
    pub input_shape: [usize; 3],
    /// Strided conv layers (ReLU between them).
    pub convs: Vec<ConvLayer>,
    /// Dense layer from the flattened final map to the feature vector.
    pub fc: Linear,
    /// Output head from features to logits/values.
    pub head: Linear,
    /// Hidden activation (ReLU in the paper).
    pub activation: Activation,
}

impl Cnn {
    /// Builds the Table II trunk for an input of shape `[c,h,w]`, producing
    /// `out_dim` outputs. Conv geometry is `16@8x8/4` then `32@4x4/2`
    /// (clamped for small inputs), feature size 256.
    pub fn table2<R: Rng + ?Sized>(
        input_shape: [usize; 3],
        out_dim: usize,
        out_gain: f32,
        rng: &mut R,
    ) -> Self {
        let [c, h, w] = input_shape;
        let k1 = 8.min(h).min(w);
        let s1 = 4.min(k1).max(1);
        let h1 = (h - k1) / s1 + 1;
        let w1 = (w - k1) / s1 + 1;
        let k2 = 4.min(h1).min(w1);
        let s2 = 2.min(k2).max(1);
        let h2 = (h1 - k2) / s2 + 1;
        let w2 = (w1 - k2) / s2 + 1;
        let convs = vec![
            ConvLayer::new(c, 16, k1, s1, rng),
            ConvLayer::new(16, 32, k2, s2, rng),
        ];
        let flat = 32 * h2 * w2;
        Self {
            input_shape,
            convs,
            fc: Linear::new(flat, 256, 1.0, rng),
            head: Linear::new(256, out_dim, out_gain, rng),
            activation: Activation::Relu,
        }
    }

    /// Output dimension of the head.
    pub fn out_dim(&self) -> usize {
        self.head.out_dim()
    }

    /// Flattened input dimension `c*h*w` the forward pass expects per row.
    pub fn in_dim(&self) -> usize {
        self.input_shape.iter().product()
    }

    /// Graph-free forward pass for inference over a `[batch, c*h*w]`
    /// matrix. Each convolution reads its filters' held re-lay
    /// ([`Filters::forward`]), so an actor's batch-1 step does not re-lay
    /// them.
    pub fn forward_plain(&self, x: &Tensor) -> Tensor {
        let batch = x.shape()[0];
        let mut chw = self.input_shape;
        let mut cur = Cow::Borrowed(x.data());
        for conv in &self.convs {
            let spec = conv.spec(batch, chw);
            cur = Cow::Owned(
                conv.w
                    .forward(&cur, conv.b.data(), &spec, self.activation.fused()),
            );
            chw = spec.out_chw();
        }
        let flat = Tensor::from_vec(cur.into_owned(), &[batch, chw.iter().product()]);
        let feat = flat.matmul_bias_act(&self.fc.w, &self.fc.b, self.activation.fused());
        feat.matmul_bias_act(&self.head.w, &self.head.b, FusedAct::Identity)
    }

    /// Forward pass over a `[batch, c*h*w]` observation matrix. The image
    /// rows stay rows from the observation to the dense head
    /// ([`Graph::conv2d_rows`]): no reshape, so no copy of either. Each
    /// layer's activation is fused into its convolution node.
    pub fn forward(&self, g: &Graph, x: Var, params: &[Var]) -> Var {
        let expected = self.convs.len() * 2 + 4;
        assert_eq!(params.len(), expected, "param var count mismatch");
        let mut chw = self.input_shape;
        let mut cur = x;
        for (i, conv) in self.convs.iter().enumerate() {
            let (w, b) = (params[2 * i], params[2 * i + 1]);
            cur = g.conv2d_rows(cur, chw, w, b, conv.stride, self.activation.fused());
            chw = conv.spec(1, chw).out_chw();
        }
        let base = self.convs.len() * 2;
        let feat = g.dense(cur, params[base], params[base + 1], self.activation.fused());
        self.head
            .forward(g, feat, params[base + 2], params[base + 3])
    }
}

impl ParamSet for Cnn {
    fn params(&self) -> Vec<&Tensor> {
        let mut out: Vec<&Tensor> = self.convs.iter().flat_map(|l| [&*l.w, &l.b]).collect();
        out.extend([&self.fc.w, &self.fc.b, &self.head.w, &self.head.b]);
        out
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out: Vec<&mut Tensor> = self
            .convs
            .iter_mut()
            .flat_map(|l| [&mut *l.w, &mut l.b])
            .collect();
        out.extend([
            &mut self.fc.w,
            &mut self.fc.b,
            &mut self.head.w,
            &mut self.head.b,
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn mlp_shapes_match_table2_mujoco() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        // Table II: two fully-connected layers of 256 hidden units.
        let mlp = Mlp::new(&[11, 256, 256, 3], Activation::Tanh, 0.01, &mut rng);
        assert_eq!(mlp.layers.len(), 3);
        assert_eq!(mlp.layers[0].w.shape(), &[11, 256]);
        assert_eq!(mlp.layers[1].w.shape(), &[256, 256]);
        assert_eq!(mlp.out_dim(), 3);
    }

    #[test]
    fn mlp_forward_shape_and_grads() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mlp = Mlp::new(&[4, 8, 2], Activation::Tanh, 1.0, &mut rng);
        let g = Graph::new();
        let x = g.input(Tensor::randn(&[5, 4], 1.0, &mut rng));
        let vars = bind_params(&g, &mlp.params());
        let y = mlp.forward(&g, x, &vars);
        assert_eq!(g.shape_of(y), vec![5, 2]);
        let sq = g.square(y);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss, &vars);
        assert_eq!(grads.len(), mlp.params().len());
        for (grad, p) in grads.iter().zip(mlp.params()) {
            assert_eq!(grad.shape(), p.shape());
            assert!(grad.is_finite());
        }
        // Some gradient must be non-zero.
        assert!(grads.iter().any(|t| t.max_abs() > 0.0));
    }

    #[test]
    fn cnn_table2_collapses_84x84_like_paper() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let cnn = Cnn::table2([3, 84, 84], 6, 0.01, &mut rng);
        // 84 -> 20 -> 9 spatial, flattened 32*9*9 into a 256 feature layer
        // (the paper's 256@11x11... wait, stride-4 8x8 gives 20, stride-2 4x4
        // gives 9; the paper's final conv spans the remaining 9x9/11x11 map).
        assert_eq!(cnn.fc.in_dim(), 32 * 9 * 9);
        assert_eq!(cnn.fc.out_dim(), 256);
        assert_eq!(cnn.out_dim(), 6);
    }

    #[test]
    fn cnn_forward_small_input() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let cnn = Cnn::table2([2, 20, 20], 4, 1.0, &mut rng);
        let g = Graph::new();
        let x = g.input(Tensor::randn(&[3, 2 * 20 * 20], 1.0, &mut rng));
        let vars = bind_params(&g, &cnn.params());
        let y = cnn.forward(&g, x, &vars);
        assert_eq!(g.shape_of(y), vec![3, 4]);
        let loss = g.mean_all(g.square(y));
        let grads = g.backward(loss, &vars);
        for (grad, p) in grads.iter().zip(cnn.params()) {
            assert_eq!(grad.shape(), p.shape());
            assert!(grad.is_finite());
        }
    }

    #[test]
    fn flatten_load_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mlp = Mlp::new(&[3, 5, 2], Activation::Relu, 1.0, &mut rng);
        let flat = mlp.flatten();
        let mut other = Mlp::new(&[3, 5, 2], Activation::Relu, 1.0, &mut rng);
        assert_ne!(other.flatten(), flat);
        let before: Vec<*const f32> = other.params().iter().map(|t| t.data().as_ptr()).collect();
        other.load_flat(&flat);
        assert_eq!(other.flatten(), flat);
        let after: Vec<*const f32> = other.params().iter().map(|t| t.data().as_ptr()).collect();
        assert_eq!(before, after, "load_flat copies into the existing tensors");
    }

    #[test]
    #[should_panic(expected = "unflatten_all length mismatch")]
    fn load_flat_rejects_wrong_length() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut mlp = Mlp::new(&[3, 5, 2], Activation::Relu, 1.0, &mut rng);
        let mut flat = mlp.flatten();
        flat.pop();
        mlp.load_flat(&flat);
    }

    #[test]
    fn mlp_forward_plain_matches_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mlp = Mlp::new(&[5, 7, 3], Activation::Tanh, 1.0, &mut rng);
        let x = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let g = Graph::new();
        let xv = g.input(x.clone());
        let vars = bind_params(&g, &mlp.params());
        let want = g.value(mlp.forward(&g, xv, &vars));
        let got = mlp.forward_plain(&x);
        for (a, b) in got.data().iter().zip(want.data().iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn cnn_forward_plain_matches_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let cnn = Cnn::table2([2, 16, 16], 3, 1.0, &mut rng);
        let x = Tensor::randn(&[2, 2 * 16 * 16], 1.0, &mut rng);
        let g = Graph::new();
        let xv = g.input(x.clone());
        let vars = bind_params(&g, &cnn.params());
        let want = g.value(cnn.forward(&g, xv, &vars));
        let got = cnn.forward_plain(&x);
        assert_eq!(got.shape(), want.shape());
        for (a, b) in got.data().iter().zip(want.data().iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn num_scalars_counts_weights_and_biases() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mlp = Mlp::new(&[3, 4, 2], Activation::Tanh, 1.0, &mut rng);
        assert_eq!(mlp.num_scalars(), 3 * 4 + 4 + 4 * 2 + 2);
    }
}
