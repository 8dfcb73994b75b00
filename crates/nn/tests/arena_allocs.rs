//! Pins the A9 allowlist to what a warm backward pass really allocates.
//!
//! `stellaris_analyze::ALLOC_ALLOWLIST` names, statically, every fresh
//! allocation reachable from the hot roots. This test counts them
//! dynamically: a counting global allocator wraps the system one, and a warm
//! `Graph::backward_into` on each Table II model must perform exactly one
//! heap allocation per allowlist entry. Adding or removing an entry, or a
//! new allocation on the warm path, fails here.
//!
//! The counter is process-global, so this file holds a single test: no
//! other test thread can allocate while a step is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stellaris_analyze::ALLOC_ALLOWLIST;
use stellaris_nn::{bind_params, Activation, Cnn, Graph, Mlp, ParamSet, Tensor, Var};

/// Allocation-counting wrapper around the system allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a plain
// relaxed atomic and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    // SAFETY: `ptr`/`layout` come straight from the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: forwards the caller's pointer and sizes to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
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
}
