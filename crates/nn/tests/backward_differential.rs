//! Differential tests pinning the packed hot-path kernels to the retained
//! naive references.
//!
//! The GEMM contract is **bit-exact** (see the exactness argument in
//! `gemm.rs`): the packed kernel adds products in the same ascending-`k`
//! order as the naive `ikj` loop, never fuses multiply and add, and splits
//! the reduction only at exact f32 store/load boundaries — so every
//! comparison here is `==`, not a tolerance. `backward_into` with warm
//! buffers matches `backward` the same way. The arena-vs-cloning backward
//! and batched-vs-per-image convolution oracles are test-only code inside
//! the crate, so those comparisons live in `graph.rs`'s tests.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stellaris_nn::gemm::{gemm, gemm_bias_act, gemm_naive, FusedAct, MatRef, MR};
use stellaris_nn::{bind_params, Activation, Graph, Mlp, ParamSet, Tensor};

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
