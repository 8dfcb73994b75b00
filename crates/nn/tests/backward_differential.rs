//! Differential tests pinning the packed hot-path kernels to the retained
//! naive references.
//!
//! The GEMM contract is **bit-exact** (see the exactness argument in
//! `gemm.rs`): the packed kernel adds products in the same ascending-`k`
//! order as the naive `ikj` loop, never fuses multiply and add, and splits
//! the reduction only at exact f32 store/load boundaries — so every
//! comparison here is `==`, not a tolerance. The same holds for the
//! arena-recycling backward pass vs the historical cloning strategy: both
//! run the identical closures in the identical order, so gradients match
//! bit for bit on the Table II MLP and CNN.
//!
//! The convolution is pinned the same way: [`per_image`] keeps the
//! one-product-per-image form the crate used before it batched a layer into
//! one product per mini-batch, and the batched node must reproduce its
//! output, `dW`, `db` and `dX` exactly (reduction-order argument:
//! `conv.rs` module docs).

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stellaris_nn::gemm::{gemm, gemm_bias_act, gemm_naive, FusedAct, MatRef, MR};
use stellaris_nn::{
    bind_params, Activation, Cnn, ConvLayer, Graph, Linear, Mlp, ParamSet, Tensor, Var,
};

/// The per-image convolution (`im2col` one image at a time, `W2 x col`,
/// `dW += G_i x col^T`, `W2^T x G_i` through `col2im`): the reference the
/// batched products are compared with.
mod per_image {
    use stellaris_nn::conv::Conv2dSpec;
    use stellaris_nn::gemm::{gemm, MatRef};
    use stellaris_nn::Tensor;

    /// Expands each batch image into a `[ckk, oh*ow]` column matrix.
    fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Vec<Tensor> {
        let mut cols = Vec::with_capacity(spec.batch);
        let chw = spec.in_c * spec.in_h * spec.in_w;
        for b in 0..spec.batch {
            let img = &input.data()[b * chw..(b + 1) * chw];
            let mut col = vec![0.0f32; spec.ckk() * spec.out_hw()];
            let mut row = 0usize;
            for c in 0..spec.in_c {
                for ky in 0..spec.kh {
                    for kx in 0..spec.kw {
                        let dst = &mut col[row * spec.out_hw()..(row + 1) * spec.out_hw()];
                        let mut di = 0usize;
                        for oy in 0..spec.out_h {
                            let iy = oy * spec.stride + ky;
                            let base = c * spec.in_h * spec.in_w + iy * spec.in_w + kx;
                            for ox in 0..spec.out_w {
                                dst[di] = img[base + ox * spec.stride];
                                di += 1;
                            }
                        }
                        row += 1;
                    }
                }
            }
            cols.push(Tensor::from_vec(col, &[spec.ckk(), spec.out_hw()]));
        }
        cols
    }

    /// Scatters a `[ckk, oh*ow]` column gradient back onto image `b` of `dx`.
    fn col2im(dcol: &[f32], spec: &Conv2dSpec, b: usize, dx: &mut Tensor) {
        let chw = spec.in_c * spec.in_h * spec.in_w;
        let img = &mut dx.data_mut()[b * chw..(b + 1) * chw];
        let mut row = 0usize;
        for c in 0..spec.in_c {
            for ky in 0..spec.kh {
                for kx in 0..spec.kw {
                    let src = &dcol[row * spec.out_hw()..(row + 1) * spec.out_hw()];
                    let mut si = 0usize;
                    for oy in 0..spec.out_h {
                        let iy = oy * spec.stride + ky;
                        let base = c * spec.in_h * spec.in_w + iy * spec.in_w + kx;
                        for ox in 0..spec.out_w {
                            img[base + ox * spec.stride] += src[si];
                            si += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    /// Output and the three gradients of one convolution.
    pub struct Conv {
        pub out: Tensor,
        pub dw: Tensor,
        pub db: Tensor,
        pub dx: Tensor,
    }

    /// `x [b,c,h,w]`, `w [o,c,kh,kw]`, `bias [o]`, and the gradient `g`
    /// arriving at the output `[b,o,oh,ow]`.
    pub fn conv(x: &Tensor, w: &Tensor, bias: &Tensor, stride: usize, g: &Tensor) -> Conv {
        let spec = Conv2dSpec::infer(x.shape(), w.shape(), stride);
        let (b, oc, hw, ckk) = (spec.batch, spec.out_c, spec.out_hw(), spec.ckk());
        let cols = im2col(x, &spec);
        let w2 = w.reshape(&[oc, ckk]);
        let mut out = Vec::with_capacity(b * oc * hw);
        for col in &cols {
            let o = w2.matmul(col);
            for (ch, chunk) in o.data().chunks(hw).enumerate() {
                let beta = bias.data()[ch];
                out.extend(chunk.iter().map(|&v| v + beta));
            }
        }
        let out = Tensor::from_vec(out, &[b, oc, spec.out_h, spec.out_w]);
        assert_eq!(g.numel(), out.numel());
        let mut dw = Tensor::zeros(w.shape());
        let mut db = Tensor::zeros(&[oc]);
        let mut dx = Tensor::zeros(x.shape());
        let mut dcol = vec![0.0f32; ckk * hw];
        for (bi, col) in cols.iter().enumerate() {
            let gslice = &g.data()[bi * oc * hw..(bi + 1) * oc * hw];
            gemm(
                MatRef::new(gslice, oc, hw),
                MatRef::new(col.data(), ckk, hw).t(),
                dw.data_mut(),
                true,
            );
            for (ch, chunk) in gslice.chunks(hw).enumerate() {
                db.data_mut()[ch] += chunk.iter().sum::<f32>();
            }
            gemm(
                MatRef::new(w2.data(), oc, ckk).t(),
                MatRef::new(gslice, oc, hw),
                &mut dcol,
                false,
            );
            col2im(&dcol, &spec, bi, &mut dx);
        }
        Conv { out, dw, db, dx }
    }
}

fn randvec(rng: &mut ChaCha8Rng, n: usize) -> Vec<f32> {
    Tensor::randn(&[n.max(1)], 1.0, rng).data()[..n].to_vec()
}

/// `gemm_bias_act` over an `m`-row matrix against its `m` single-row calls
/// stacked. From `m = MR` up the batched call runs the packed kernel while
/// every single-row call takes the small-`m` route, so this pins the two
/// routes to each other row by row — the property that lets the rollout
/// keep each step's actor output instead of re-running the batch.
fn batched_and_stacked_rows(m: usize, n: usize, k: usize, seed: u64) -> [(Vec<f32>, Vec<f32>); 3] {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = randvec(&mut rng, m * k);
    let b = randvec(&mut rng, k * n);
    let bias = randvec(&mut rng, n);
    [FusedAct::Identity, FusedAct::Tanh, FusedAct::Relu].map(|act| {
        let bm = MatRef::new(&b, k, n);
        let mut batched = vec![0.0f32; m * n];
        gemm_bias_act(MatRef::new(&a, m, k), bm, &bias, act, &mut batched);
        let mut stacked = vec![0.0f32; m * n];
        for (i, crow) in stacked.chunks_mut(n).enumerate() {
            let arow = MatRef::new(&a[i * k..(i + 1) * k], 1, k);
            gemm_bias_act(arow, bm, &bias, act, crow);
        }
        (batched, stacked)
    })
}

proptest! {
    /// Packed GEMM is bit-identical to the naive reference for arbitrary
    /// shapes, including edge tiles (m, n not multiples of MR/NR) and
    /// reductions longer than one KC block.
    #[test]
    fn packed_gemm_matches_naive(
        m in 1usize..70,
        n in 1usize..70,
        k in 0usize..40,
        seed in 0u64..1000,
        accumulate in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = randvec(&mut rng, m * k);
        let b = randvec(&mut rng, k * n);
        let c0 = randvec(&mut rng, m * n);
        let mut c_naive = c0.clone();
        let mut c_packed = c0;
        gemm_naive(MatRef::new(&a, m, k), MatRef::new(&b, k, n), &mut c_naive, accumulate);
        gemm(MatRef::new(&a, m, k), MatRef::new(&b, k, n), &mut c_packed, accumulate);
        prop_assert_eq!(c_naive, c_packed);
    }

    /// Rows of a product are independent, whichever route serves the call.
    #[test]
    fn prop_rows_are_independent(
        m in 1usize..2 * MR + 2,
        n in 1usize..70,
        k in 0usize..40,
        seed in 0u64..1000,
    ) {
        for (batched, stacked) in batched_and_stacked_rows(m, n, k, seed) {
            prop_assert_eq!(batched, stacked);
        }
    }

    /// Transposed views feed the packed kernel through stride swaps; the
    /// result must still match the naive reference walking the same strides.
    #[test]
    fn packed_gemm_matches_naive_transposed(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..24,
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // a stored as [k, m], used as a^T; b stored as [n, k], used as b^T.
        let a = randvec(&mut rng, k * m);
        let b = randvec(&mut rng, n * k);
        let mut c_naive = vec![0.0f32; m * n];
        let mut c_packed = vec![0.0f32; m * n];
        let at = MatRef::new(&a, k, m).t();
        let bt = MatRef::new(&b, n, k).t();
        gemm_naive(at, bt, &mut c_naive, false);
        gemm(at, bt, &mut c_packed, false);
        prop_assert_eq!(c_naive, c_packed);
    }
}

proptest! {
    /// One product per layer per mini-batch gives the bits of one product
    /// per image: output, `dW`, `db` and `dX` of `Graph::conv2d`, with
    /// `b*oh*ow` and `out_c` landing on both sides of `MR` and `NR`; and the
    /// graph-free forward (the actors run it at batch 1) equals the graph's.
    #[test]
    fn prop_batched_conv_matches_per_image_reference(
        batch in 1usize..6,
        in_c in 1usize..5,
        k in 1usize..6,
        stride in 1usize..4,
        out_c in 1usize..21,
        h in 5usize..15,
        w in 5usize..15,
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x = Tensor::randn(&[batch, in_c, h, w], 1.0, &mut rng);
        let conv = ConvLayer {
            w: Tensor::randn(&[out_c, in_c, k, k], 0.5, &mut rng),
            b: Tensor::randn(&[out_c], 0.5, &mut rng),
            stride,
        };

        let g = Graph::new();
        let (xv, wv, bv) = (g.input(x.clone()), g.input(conv.w.clone()), g.input(conv.b.clone()));
        let y = g.conv2d(xv, wv, bv, stride);
        let loss = g.mean_all(g.square(g.tanh(y)));
        let grads = g.backward(loss, &[y, wv, bv, xv]);
        let want = per_image::conv(&x, &conv.w, &conv.b, stride, &grads[0]);
        prop_assert_eq!(g.value(y), want.out);
        prop_assert_eq!(&grads[1], &want.dw);
        prop_assert_eq!(&grads[2], &want.db);
        prop_assert_eq!(&grads[3], &want.dx);

        let flat = want.out.numel() / batch;
        let cnn = Cnn {
            input_shape: [in_c, h, w],
            convs: vec![conv],
            fc: Linear::new(flat, 7, 1.0, &mut rng),
            head: Linear::new(7, 3, 1.0, &mut rng),
            activation: Activation::Relu,
        };
        for rows in [1, batch] {
            let obs = Tensor::from_vec(x.data()[..rows * cnn.in_dim()].to_vec(), &[rows, cnn.in_dim()]);
            let g = Graph::new();
            let vars = bind_params(&g, &cnn.params());
            let via_graph = g.value(cnn.forward(&g, g.input(obs.clone()), &vars));
            prop_assert_eq!(cnn.forward_plain(&obs), via_graph);
        }
    }
}

#[test]
fn packed_gemm_matches_naive_beyond_one_kc_block() {
    // k = 700 spans multiple KC blocks; the store/load seam must not
    // reassociate the per-element sum.
    let (m, n, k) = (9, 21, 700);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let a = randvec(&mut rng, m * k);
    let b = randvec(&mut rng, k * n);
    let mut c_naive = vec![0.0f32; m * n];
    let mut c_packed = vec![0.0f32; m * n];
    gemm_naive(
        MatRef::new(&a, m, k),
        MatRef::new(&b, k, n),
        &mut c_naive,
        false,
    );
    gemm(
        MatRef::new(&a, m, k),
        MatRef::new(&b, k, n),
        &mut c_packed,
        false,
    );
    assert_eq!(c_naive, c_packed);
}

#[test]
fn rows_are_independent_beyond_one_kc_block() {
    for (batched, stacked) in batched_and_stacked_rows(2 * MR + 1, 21, 700, 8) {
        assert_eq!(batched, stacked);
    }
}

/// Builds the graph, runs one forward pass, and returns gradients from the
/// requested strategy.
fn grads_of(
    x: &Tensor,
    params: &[&Tensor],
    fwd: impl Fn(&Graph, &[Var]) -> Var,
    cloning: bool,
) -> Vec<Tensor> {
    let g = Graph::new();
    let mut vars = vec![g.input(x.clone())];
    vars.extend(bind_params(&g, params));
    let out = fwd(&g, &vars);
    let loss = g.mean_all(g.square(out));
    if cloning {
        g.backward_cloning(loss, &vars[1..])
    } else {
        g.backward(loss, &vars[1..])
    }
}

#[test]
fn inplace_backward_matches_cloning_on_table2_mlp() {
    // Table II Hopper actor: 11 -> 256 -> 256 -> 3.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mlp = Mlp::new(&[11, 256, 256, 3], Activation::Tanh, 0.01, &mut rng);
    let x = Tensor::randn(&[16, 11], 1.0, &mut rng);
    let params = mlp.params();
    let fwd = |g: &Graph, vars: &[Var]| mlp.forward(g, vars[0], &vars[1..]);
    let arena = grads_of(&x, &params, fwd, false);
    let cloned = grads_of(&x, &params, fwd, true);
    assert_eq!(arena.len(), cloned.len());
    for (a, c) in arena.iter().zip(&cloned) {
        assert_eq!(a, c, "arena backward diverged from the cloning reference");
    }
}

#[test]
fn inplace_backward_matches_cloning_on_table2_cnn() {
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let cnn = Cnn::table2([4, 20, 20], 6, 0.01, &mut rng);
    let x = Tensor::randn(&[3, cnn.in_dim()], 1.0, &mut rng);
    let params = cnn.params();
    let fwd = |g: &Graph, vars: &[Var]| cnn.forward(g, vars[0], &vars[1..]);
    let arena = grads_of(&x, &params, fwd, false);
    let cloned = grads_of(&x, &params, fwd, true);
    assert_eq!(arena.len(), cloned.len());
    for (a, c) in arena.iter().zip(&cloned) {
        assert_eq!(a, c, "arena backward diverged from the cloning reference");
    }
}

#[test]
fn table2_cnn_observation_gradient_matches_per_image_reference() {
    // The training paths never ask for the observation's gradient, so the
    // tape skips it; asked for, it is still the per-image value, and asking
    // changes no parameter gradient.
    let mut rng = ChaCha8Rng::seed_from_u64(46);
    let cnn = Cnn::table2([4, 20, 20], 6, 0.01, &mut rng);
    let batch = 3;
    let x = Tensor::randn(&[batch, cnn.in_dim()], 1.0, &mut rng);
    let params = cnn.params();

    // The trunk spelled out op by op, to reach the gradient arriving at the
    // first convolution's output.
    let g = Graph::new();
    let xv = g.input(x.clone());
    let vars = bind_params(&g, &params);
    let x4 = g.reshape(xv, &[batch, 4, 20, 20]);
    let c1 = g.conv2d(x4, vars[0], vars[1], cnn.convs[0].stride);
    let c2 = g.conv2d(g.relu(c1), vars[2], vars[3], cnn.convs[1].stride);
    let flat = g.reshape(g.relu(c2), &[batch, cnn.fc.in_dim()]);
    let feat = g.dense(flat, vars[4], vars[5], FusedAct::Relu);
    let out = g.dense(feat, vars[6], vars[7], FusedAct::Identity);
    let loss = g.mean_all(g.square(out));
    let spelled = g.backward(loss, &[xv, c1]);
    let want = per_image::conv(
        &x.reshape(&[batch, 4, 20, 20]),
        params[0],
        params[1],
        cnn.convs[0].stride,
        &spelled[1],
    );
    assert_eq!(spelled[0].data(), want.dx.data());
    assert!(want.dx.max_abs() > 0.0);

    let fwd = |g: &Graph, vars: &[Var]| cnn.forward(g, vars[0], &vars[1..]);
    let params_only = grads_of(&x, &params, fwd, false);
    let g = Graph::new();
    let mut all = vec![g.input(x.clone())];
    all.extend(bind_params(&g, &params));
    let loss = g.mean_all(g.square(fwd(&g, &all)));
    for with_obs in [g.backward(loss, &all), g.backward_cloning(loss, &all)] {
        assert_eq!(with_obs[0], spelled[0]);
        assert_eq!(with_obs[1..], params_only[..]);
    }
}

#[test]
fn backward_into_reuses_buffers_and_matches_backward() {
    let mut rng = ChaCha8Rng::seed_from_u64(44);
    let mlp = Mlp::new(&[5, 8, 2], Activation::Relu, 1.0, &mut rng);
    let params = mlp.params();
    let mut grads: Vec<Tensor> = Vec::new();
    for step in 0..3 {
        let x = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let g = Graph::new();
        let mut vars = vec![g.input(x.clone())];
        vars.extend(bind_params(&g, &params));
        let out = mlp.forward(&g, vars[0], &vars[1..]);
        let loss = g.mean_all(g.square(out));
        g.backward_into(loss, &vars[1..], &mut grads);
        let fresh = g.backward(loss, &vars[1..]);
        assert_eq!(grads, fresh, "backward_into diverged at step {step}");
    }
}

#[test]
fn multi_use_node_gradients_match_between_strategies() {
    // A node consumed by several ops exercises the accumulation ("+=") path
    // in both strategies; order is identical, so equality is still exact.
    let mut rng = ChaCha8Rng::seed_from_u64(45);
    let w = Tensor::randn(&[6, 6], 1.0, &mut rng);
    let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
    let run = |cloning: bool| {
        let g = Graph::new();
        let xv = g.input(x.clone());
        let wv = g.input(w.clone());
        let h = g.matmul(xv, wv);
        let s = g.add(g.tanh(h), g.square(h)); // h used twice
        let loss = g.mean_all(g.mul(s, s)); // s used twice
        if cloning {
            g.backward_cloning(loss, &[xv, wv])
        } else {
            g.backward(loss, &[xv, wv])
        }
    };
    assert_eq!(run(false), run(true));
}
