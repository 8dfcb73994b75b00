//! Hot-path micro-benchmark gate: records the perf trajectory of the
//! compute kernels the training loop lives in — packed GEMM vs the naive
//! reference, the allocation-free backward pass vs the cloning reference,
//! pre-allocated gradient aggregation, and reserved-capacity codec
//! encoding — plus one tiny end-to-end training round as a smoke signal.
//!
//! Writes `BENCH_hotpath.json` at the repository root so successive PRs
//! leave a machine-readable perf trail. CI runs `--tiny` (see the
//! `bench-smoke` job) purely to keep the harness compiling and the JSON
//! schema stable; absolute numbers are only meaningful from a quiet
//! machine via `cargo run --release -p stellaris-bench --bin hotpath`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::BytesMut;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stellaris_cache::Codec;
use stellaris_core::{frameworks, train, GradAccumulator, GradientMsg};
use stellaris_envs::EnvId;
use stellaris_nn::gemm::{gemm, gemm_naive, MatRef};
use stellaris_nn::graph::Graph;
use stellaris_nn::{bind_params, Activation, Cnn, Mlp, ParamSet, Tensor};

/// Allocation-counting wrapper around the system allocator, so the
/// backward-pass benchmark can report heap allocations per step rather
/// than inferring them from timing noise.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counters are plain
// relaxed atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    // SAFETY: `ptr`/`layout` come straight from the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: forwards the caller's pointer and sizes to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns `(wall_seconds, alloc_calls, alloc_bytes)`.
fn measured(f: impl FnOnce()) -> (f64, u64, u64) {
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let t0 = Instant::now();
    f();
    let dt = t0.elapsed().as_secs_f64();
    (
        dt,
        ALLOC_CALLS.load(Ordering::Relaxed) - calls0,
        ALLOC_BYTES.load(Ordering::Relaxed) - bytes0,
    )
}

fn fill(rng: &mut ChaCha8Rng, n: usize) -> Vec<f32> {
    Tensor::randn(&[n], 1.0, rng).data().to_vec()
}

struct GemmRow {
    name: &'static str,
    m: usize,
    n: usize,
    k: usize,
    naive_s: f64,
    packed_s: f64,
}

fn bench_gemm(reps: usize, rng: &mut ChaCha8Rng) -> Vec<GemmRow> {
    // Square stress shape, the three Table II matmul shapes the learners
    // issue (MLP hidden, policy head, CNN fc), and the three single-row
    // products an actor issues per network per environment step (Hopper
    // MLP) — `m < MR`, so `gemm` serves them with the reference loop and
    // their "packed" column times that route.
    // Last column: how many times `reps` a timed loop runs the shape. The
    // microsecond-scale actor products repeat until a loop does about the
    // work of one `square_512` call; the learner shapes run `reps` times.
    let shapes: &[(&'static str, usize, usize, usize, usize)] = &[
        ("square_512", 512, 512, 512, 1),
        ("mlp_hidden_b4096", 4096, 256, 256, 1),
        ("policy_head_b4096", 4096, 3, 256, 1),
        ("cnn_fc_b256", 256, 256, 2592, 1),
        ("act_hidden_m1", 1, 256, 256, 2_000),
        ("act_input_m1", 1, 256, 11, 50_000),
        ("act_head_m1", 1, 3, 256, 175_000),
    ];
    let mut rows = Vec::new();
    for &(name, m, n, k, rep_scale) in shapes {
        let reps = reps * rep_scale;
        let a = fill(rng, m * k);
        let b = fill(rng, k * n);
        let mut c_naive = vec![0.0f32; m * n];
        let mut c_packed = vec![0.0f32; m * n];
        // Warm both paths once (pack buffers, page faults).
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
        assert_eq!(
            c_naive, c_packed,
            "packed GEMM diverged from reference on {name}"
        );
        let (naive_s, _, _) = measured(|| {
            for _ in 0..reps {
                gemm_naive(
                    MatRef::new(&a, m, k),
                    MatRef::new(&b, k, n),
                    &mut c_naive,
                    false,
                );
            }
        });
        let (packed_s, _, _) = measured(|| {
            for _ in 0..reps {
                gemm(
                    MatRef::new(&a, m, k),
                    MatRef::new(&b, k, n),
                    &mut c_packed,
                    false,
                );
            }
        });
        stellaris_bench::progress!(
            "gemm {name:<18} {m}x{n}x{k}: naive {:.1} ms  packed {:.1} ms  ({:.2}x)",
            naive_s * 1e3 / reps as f64,
            packed_s * 1e3 / reps as f64,
            naive_s / packed_s.max(1e-12),
        );
        rows.push(GemmRow {
            name,
            m,
            n,
            k,
            naive_s: naive_s / reps as f64,
            packed_s: packed_s / reps as f64,
        });
    }
    rows
}

struct BackwardRow {
    model: &'static str,
    cloning_s: f64,
    cloning_allocs: u64,
    arena_s: f64,
    arena_allocs: u64,
}

/// Benchmarks the backward pass alone (the graph + forward tape is rebuilt
/// untimed for every rep): the historical cloning strategy returning fresh
/// gradient tensors vs the recycled arena writing into warm buffers via
/// `backward_into`.
fn bench_backward_model(
    model: &'static str,
    reps: usize,
    x: &Tensor,
    params: Vec<&Tensor>,
    fwd: impl Fn(&Graph, &[stellaris_nn::Var]) -> stellaris_nn::Var,
) -> BackwardRow {
    let build = || {
        let g = Graph::new();
        let mut vars = vec![g.input(x.clone())];
        vars.extend(bind_params(&g, &params));
        let out = fwd(&g, &vars);
        let loss = g.mean_all(g.square(out));
        (g, vars, loss)
    };
    // Warm: populate the thread-local arena pool and the reusable grad
    // buffers, and fault in pages.
    let mut grads: Vec<Tensor> = Vec::new();
    {
        let (g, vars, loss) = build();
        g.backward_into(loss, &vars[1..], &mut grads);
        let _ = g.backward_cloning(loss, &vars[1..]);
    }
    let (mut cloning_s, mut cloning_allocs) = (0.0, 0u64);
    for _ in 0..reps {
        let (g, vars, loss) = build();
        let (dt, a, _) = measured(|| {
            let _ = g.backward_cloning(loss, &vars[1..]);
        });
        cloning_s += dt;
        cloning_allocs += a;
    }
    let (mut arena_s, mut arena_allocs) = (0.0, 0u64);
    for _ in 0..reps {
        let (g, vars, loss) = build();
        let (dt, a, _) = measured(|| {
            g.backward_into(loss, &vars[1..], &mut grads);
        });
        arena_s += dt;
        arena_allocs += a;
    }
    stellaris_bench::progress!(
        "backward {model:<10}: cloning {:.2} ms / {} allocs per step; arena {:.2} ms / {} allocs per step",
        cloning_s * 1e3 / reps as f64,
        cloning_allocs / reps as u64,
        arena_s * 1e3 / reps as f64,
        arena_allocs / reps as u64,
    );
    BackwardRow {
        model,
        cloning_s: cloning_s / reps as f64,
        cloning_allocs: cloning_allocs / reps as u64,
        arena_s: arena_s / reps as f64,
        arena_allocs: arena_allocs / reps as u64,
    }
}

fn bench_backward(reps: usize, rng: &mut ChaCha8Rng) -> Vec<BackwardRow> {
    // Table II Hopper MLP: 11 -> 256 -> 256 -> 3, batch 64.
    let mlp = Mlp::new(&[11, 256, 256, 3], Activation::Tanh, 0.01, rng);
    let x = Tensor::randn(&[64, 11], 1.0, rng);
    let mlp_params = mlp.params();
    let mlp_row = bench_backward_model("mlp", reps, &x, mlp_params, |g, vars| {
        mlp.forward(g, vars[0], &vars[1..])
    });

    // Table II CNN trunk on a small frame so the bench stays laptop-sized.
    let cnn = Cnn::table2([4, 20, 20], 6, 0.01, rng);
    let xc = Tensor::randn(&[8, cnn.in_dim()], 1.0, rng);
    let cnn_params = cnn.params();
    let cnn_row = bench_backward_model("cnn", reps.div_ceil(4), &xc, cnn_params, |g, vars| {
        cnn.forward(g, vars[0], &vars[1..])
    });
    vec![mlp_row, cnn_row]
}

struct AggRow {
    fresh_s: f64,
    fresh_allocs: u64,
    reused_s: f64,
    reused_allocs: u64,
}

fn bench_aggregation(reps: usize, rng: &mut ChaCha8Rng) -> AggRow {
    // Table II MLP gradient layout, 8 learners per aggregation batch.
    let shapes: Vec<Vec<usize>> = vec![
        vec![11, 256],
        vec![256],
        vec![256, 256],
        vec![256],
        vec![256, 3],
        vec![3],
    ];
    let msgs: Vec<Vec<Tensor>> = (0..8)
        .map(|_| shapes.iter().map(|s| Tensor::randn(s, 0.1, rng)).collect())
        .collect();
    // Old path: a fresh weighted-average tensor set per aggregation.
    let fresh = || {
        let mut acc: Vec<Tensor> = shapes.iter().map(|s| Tensor::zeros(s)).collect();
        for grads in &msgs {
            for (a, g) in acc.iter_mut().zip(grads) {
                a.axpy(0.125, g);
            }
        }
        acc
    };
    let mut accum = GradAccumulator::new(&shapes);
    let reused = |accum: &mut GradAccumulator| {
        accum.reset();
        for grads in &msgs {
            accum.accumulate(grads, 0.125);
        }
    };
    let _ = fresh();
    reused(&mut accum);
    let (fresh_s, fresh_allocs, _) = measured(|| {
        for _ in 0..reps {
            let _ = fresh();
        }
    });
    let (reused_s, reused_allocs, _) = measured(|| {
        for _ in 0..reps {
            reused(&mut accum);
        }
    });
    stellaris_bench::progress!(
        "aggregation (8 learners): fresh {:.1} us / {} allocs; reused {:.1} us / {} allocs",
        fresh_s * 1e6 / reps as f64,
        fresh_allocs / reps as u64,
        reused_s * 1e6 / reps as f64,
        reused_allocs / reps as u64,
    );
    AggRow {
        fresh_s: fresh_s / reps as f64,
        fresh_allocs: fresh_allocs / reps as u64,
        reused_s: reused_s / reps as f64,
        reused_allocs: reused_allocs / reps as u64,
    }
}

struct CodecRow {
    bytes: usize,
    grow_s: f64,
    grow_allocs: u64,
    reserved_s: f64,
    reserved_allocs: u64,
}

fn bench_codec(reps: usize, rng: &mut ChaCha8Rng) -> CodecRow {
    let msg = GradientMsg {
        learner_id: 1,
        grads: vec![
            Tensor::randn(&[11, 256], 0.1, rng),
            Tensor::randn(&[256], 0.1, rng),
            Tensor::randn(&[256, 256], 0.1, rng),
            Tensor::randn(&[256], 0.1, rng),
            Tensor::randn(&[256, 3], 0.1, rng),
            Tensor::randn(&[3], 0.1, rng),
        ],
        base_version: 7,
        batch_len: 64,
        is_ratio: 1.0,
        kl: 0.01,
        surrogate: 0.2,
    };
    let total = msg.encoded_len();
    // Old path: encode into an unsized BytesMut that grows geometrically.
    let (grow_s, grow_allocs, _) = measured(|| {
        for _ in 0..reps {
            let mut buf = BytesMut::new();
            msg.encode(&mut buf);
            assert_eq!(buf.len(), total);
        }
    });
    // New path: `to_bytes` reserves `encoded_len()` up front.
    let (reserved_s, reserved_allocs, _) = measured(|| {
        for _ in 0..reps {
            let b = msg.to_bytes();
            assert_eq!(b.len(), total);
        }
    });
    stellaris_bench::progress!(
        "codec GradientMsg ({total} B): grow {:.1} us / {} allocs; reserved {:.1} us / {} allocs",
        grow_s * 1e6 / reps as f64,
        grow_allocs / reps as u64,
        reserved_s * 1e6 / reps as f64,
        reserved_allocs / reps as u64,
    );
    CodecRow {
        bytes: total,
        grow_s: grow_s / reps as f64,
        grow_allocs: grow_allocs / reps as u64,
        reserved_s: reserved_s / reps as f64,
        reserved_allocs: reserved_allocs / reps as u64,
    }
}

fn bench_e2e(rounds: usize) -> f64 {
    let mut cfg = frameworks::stellaris(EnvId::Hopper, 1);
    cfg.rounds = rounds;
    let t0 = Instant::now();
    let res = train(&cfg);
    let dt = t0.elapsed().as_secs_f64();
    stellaris_bench::progress!(
        "e2e: {} rounds in {:.2} s ({} rows)",
        rounds,
        dt,
        res.rows.len()
    );
    dt
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let _telemetry = stellaris_bench::telemetry_from_env();
    stellaris_bench::banner(
        "hotpath",
        "hot-path kernel benchmarks (GEMM / backward / aggregation / codec)",
    );
    let (gemm_reps, bwd_reps, agg_reps, codec_reps, e2e_rounds) = if tiny {
        (1, 2, 10, 10, 1)
    } else {
        (10, 50, 2000, 500, 3)
    };
    let mut rng = ChaCha8Rng::seed_from_u64(0xbeef);

    let gemm_rows = bench_gemm(gemm_reps, &mut rng);
    let bwd_rows = bench_backward(bwd_reps, &mut rng);
    let agg = bench_aggregation(agg_reps, &mut rng);
    let codec = bench_codec(codec_reps, &mut rng);
    let e2e_s = bench_e2e(e2e_rounds);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"hotpath\",");
    let _ = writeln!(json, "  \"tiny\": {tiny},");
    let _ = writeln!(json, "  \"gemm\": [");
    for (i, r) in gemm_rows.iter().enumerate() {
        let comma = if i + 1 < gemm_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"shape\": \"{}\", \"m\": {}, \"n\": {}, \"k\": {}, \"naive_ms\": {:.4}, \"packed_ms\": {:.4}, \"speedup\": {:.2}}}{comma}",
            r.name, r.m, r.n, r.k, r.naive_s * 1e3, r.packed_s * 1e3,
            r.naive_s / r.packed_s.max(1e-12)
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"backward\": [");
    for (i, r) in bwd_rows.iter().enumerate() {
        let comma = if i + 1 < bwd_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"model\": \"{}\", \"cloning_ms\": {:.4}, \"cloning_allocs\": {}, \"arena_ms\": {:.4}, \"arena_allocs\": {}, \"alloc_reduction\": {:.1}}}{comma}",
            r.model, r.cloning_s * 1e3, r.cloning_allocs, r.arena_s * 1e3, r.arena_allocs,
            r.cloning_allocs as f64 / (r.arena_allocs.max(1)) as f64
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"aggregation\": {{\"fresh_us\": {:.3}, \"fresh_allocs\": {}, \"reused_us\": {:.3}, \"reused_allocs\": {}}},",
        agg.fresh_s * 1e6, agg.fresh_allocs, agg.reused_s * 1e6, agg.reused_allocs
    );
    let _ = writeln!(
        json,
        "  \"codec\": {{\"msg_bytes\": {}, \"grow_us\": {:.3}, \"grow_allocs\": {}, \"reserved_us\": {:.3}, \"reserved_allocs\": {}}},",
        codec.bytes, codec.grow_s * 1e6, codec.grow_allocs, codec.reserved_s * 1e6, codec.reserved_allocs
    );
    let _ = writeln!(json, "  \"e2e_train_s\": {e2e_s:.3}");
    let _ = writeln!(json, "}}");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, &json).expect("write BENCH_hotpath.json");
    stellaris_bench::progress!("wrote {path}");
}
