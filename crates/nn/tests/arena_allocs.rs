//! Pins the A9 allowlist to what a warm backward pass really allocates.
//!
//! `stellaris_analyze::ALLOC_ALLOWLIST` names, statically, every fresh
//! allocation reachable from the hot roots. This test counts them
//! dynamically: a counting global allocator wraps the system one, and a warm
//! `Graph::backward_into` on each Table II model, and on a tape through
//! every backward closure of the graph, must perform exactly one heap
//! allocation per allowlist entry. Adding or removing an entry, or a new
//! allocation on the warm path (a copy made inside a backward closure, say),
//! fails here.
//!
//! The counter is process-global, so this file holds a single test: no
//! other test thread can allocate while a step is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stellaris_analyze::ALLOC_ALLOWLIST;
use stellaris_nn::{bind_params, Activation, Cnn, FusedAct, Graph, Mlp, ParamSet, Tensor, Var};

/// Allocation-counting wrapper around the system allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a plain
// relaxed atomic and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's layout to `System.alloc` unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come straight from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's pointer and sizes to `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations, fresh or grown, that `f` performs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

/// Allocations of three warm `backward_into` steps. Each step records a
/// fresh tape outside the count, as a learner's mini-batch loop does.
fn warm_step_allocs(
    x: &Tensor,
    params: &[&Tensor],
    fwd: impl Fn(&Graph, &[Var]) -> Var,
) -> Vec<u64> {
    let build = || {
        let g = Graph::new();
        let mut vars = vec![g.input(x.clone())];
        vars.extend(bind_params(&g, params));
        let out = fwd(&g, &vars);
        let loss = g.mean_all(g.square(out));
        (g, vars, loss)
    };
    // Warm the thread-local arena pool and the reusable gradient buffers.
    let mut grads = Vec::new();
    let (g, vars, loss) = build();
    g.backward_into(loss, &vars[1..], &mut grads);
    (0..3)
        .map(|_| {
            let (g, vars, loss) = build();
            allocs_during(|| g.backward_into(loss, &vars[1..], &mut grads))
        })
        .collect()
}

#[test]
fn warm_backward_allocates_once_per_a9_allowlist_entry() {
    let want = vec![ALLOC_ALLOWLIST.len() as u64; 3];
    let mut rng = ChaCha8Rng::seed_from_u64(0xbeef);

    // Table II Hopper MLP: 11 -> 256 -> 256 -> 3, batch 64.
    let mlp = Mlp::new(&[11, 256, 256, 3], Activation::Tanh, 0.01, &mut rng);
    let x = Tensor::randn(&[64, 11], 1.0, &mut rng);
    let got = warm_step_allocs(&x, &mlp.params(), |g, vars| {
        mlp.forward(g, vars[0], &vars[1..])
    });
    assert_eq!(got, want, "MLP allocs per warm step vs the A9 allowlist");

    // Table II CNN trunk on a small frame.
    let cnn = Cnn::table2([4, 20, 20], 6, 0.01, &mut rng);
    let x = Tensor::randn(&[8, cnn.in_dim()], 1.0, &mut rng);
    let got = warm_step_allocs(&x, &cnn.params(), |g, vars| {
        cnn.forward(g, vars[0], &vars[1..])
    });
    assert_eq!(got, want, "CNN allocs per warm step vs the A9 allowlist");

    // Every backward closure of the tape, the loss ops' included: both
    // convolution entry points (the second one's input gradient wanted),
    // the fused dense layer, every elementwise, broadcast and reduction op,
    // and the softmax family. The two models above reach only some of them.
    let x = Tensor::randn(&[4, 2 * 6 * 6], 1.0, &mut rng);
    let params = [
        Tensor::randn(&[3, 2, 3, 3], 0.3, &mut rng), // conv 1: [4, 2x6x6] -> [4, 3x4x4]
        Tensor::randn(&[3], 0.1, &mut rng),
        Tensor::randn(&[2, 3, 3, 3], 0.3, &mut rng), // conv 2: -> [4, 2x2x2]
        Tensor::randn(&[2], 0.1, &mut rng),
        Tensor::randn(&[8, 6], 0.3, &mut rng), // dense: -> [4, 6]
        Tensor::randn(&[6], 0.1, &mut rng),
        Tensor::randn(&[6, 6], 0.3, &mut rng), // matmul
        Tensor::randn(&[6], 1.0, &mut rng),    // mul_row
        Tensor::randn(&[1], 1.0, &mut rng),    // add_scalar_var
    ];
    let got = warm_step_allocs(&x, &params.iter().collect::<Vec<_>>(), |g, v| {
        let &[x, cw1, cb1, cw2, cb2, dw, db, mw, row, s] = v else {
            unreachable!("ten vars: the input and nine parameters")
        };
        let h1 = g.conv2d_rows(x, [2, 6, 6], cw1, cb1, 1, FusedAct::Relu);
        let rows = g.conv2d_rows(h1, [3, 4, 4], cw2, cb2, 1, FusedAct::Identity);
        let planes = g.conv2d(g.reshape(h1, &[4, 3, 4, 4]), cw2, cb2, 1);
        let h2 = g.add(rows, g.reshape(planes, &[4, 8]));
        let h3 = g.dense(h2, dw, db, FusedAct::Tanh);
        let h4 = g.add_bias(g.matmul(h3, mw), db);
        let h5 = g.mul_row(h4, row);
        let e = g.sub(g.mul(h3, h5), g.scale(h4, 0.5));
        let e = g.add(g.minimum(e, h5), g.maximum(h4, h3));
        let e = g.add_scalar_var(g.add_scalar(e, 0.1), s, 0.5);
        let e = g.clamp(g.exp(g.relu(g.tanh(e))), 0.0, 4.0);
        let e = g.min_scalar(g.sqrt(g.add_scalar(g.square(e), 1.0)), 3.0);
        let picked = g.gather_cols(g.log_softmax(e), &[0, 2, 4, 5]);
        g.add(picked, g.sum_rows(e))
    });
    assert_eq!(
        got, want,
        "every-op allocs per warm step vs the A9 allowlist"
    );
}
