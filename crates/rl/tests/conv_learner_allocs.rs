//! A warm Table II CNN gradient allocates nothing as large as its own
//! observation batch.
//!
//! No buffer of the convolution learner scales with the patch matrix
//! (`b*oh*ow` rows of `c*kh*kw` pixels, 7.6 MiB for the 42-px first layer at
//! batch 128, three times the observation batch): the forward and the
//! weight gradient read the image directly, and their re-lays live in the
//! gradient arena's reused scratch. The tape borrows the observation batch
//! rather than holding a copy, so the largest allocation of a warm
//! `ppo_gradients` is smaller than the batch (it is the first layer's
//! output, a quarter of it). The direct kernels exist under
//! `target_feature = "avx512f"` only; the portable forward still builds a
//! patch matrix, so this file compiles to nothing elsewhere.
//!
//! The recorder is process-global, so this file holds a single test: no
//! other test thread can allocate while a gradient is measured.
#![cfg(target_feature = "avx512f")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use stellaris_envs::{make_env, EnvConfig, EnvId};
use stellaris_rl::{fill_gae, ppo_gradients, PolicyNet, PolicySpec, PpoConfig, RolloutWorker};

/// Records the largest allocation, fresh or grown, since the last reset.
struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates every operation to `System`; the recorder is a plain
// relaxed atomic and never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwards the caller's layout to `System.alloc` unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come straight from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: forwards the caller's pointer and sizes to `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

#[test]
fn warm_cnn_gradient_allocates_nothing_as_large_as_its_observations() {
    // SpaceInvaders at the default 42-px frames, three stacked, under the
    // Table II CNN, and the benchmark's mini-batch of 128.
    let env_cfg = EnvConfig::default();
    assert_eq!(env_cfg.frame_size, 42);
    let mut env = make_env(EnvId::SpaceInvaders, env_cfg);
    env.reset(7);
    let policy = PolicyNet::new(PolicySpec::for_env(env.as_ref()), 7);
    let mut worker = RolloutWorker::new(env, 7);
    let mut batch = worker.collect(&policy, 128);
    fill_gae(&mut batch, 0.99, 0.95);
    let obs_bytes = batch.obs.numel() * std::mem::size_of::<f32>();
    let cfg = PpoConfig::paper();

    // The first call grows the arena, its scratch and the GEMM packing
    // buffers; the later ones find them warm.
    ppo_gradients(&policy, &batch, &cfg, None);
    for step in 0..2 {
        LARGEST.store(0, Ordering::Relaxed);
        ppo_gradients(&policy, &batch, &cfg, None);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest < obs_bytes,
            "warm step {step}: an allocation of {largest} B is as large as the {obs_bytes}-B observation batch"
        );
    }
}
