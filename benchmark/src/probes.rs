//! Isolated probes: one public function of one layer, timed alone at the
//! workload's shapes. Each reports a median only; they say what a layer
//! costs, the cycle and the attribution say what share of a run that is.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::api::{
    fill_gae, gemm_bias_act, make_env, trace, write_value_frame, Action, ActionSpace, Backbone,
    ChaCha8Rng, EnvConfig, FrameReader, FunctionKind, FusedAct, GradientMsg, GradientRequest,
    MatRef, ParamSet, PolicyNet, ProcessConfig, ProcessPool, RolloutWorker, SeedableRng, Tensor,
    WireTransport, DEFAULT_MAX_FRAME,
};
use crate::report::Report;
use crate::stats::median;
use crate::workloads::{Driver, Workload};

/// Median microseconds per call of `f`, from up to `samples` timings of
/// `batch` back-to-back calls each, stopping early after `budget`.
fn p50_us(samples: usize, batch: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy set-up
    let t0 = Instant::now();
    let mut per_call = Vec::with_capacity(samples);
    while per_call.len() < samples && (per_call.len() < 5 || t0.elapsed() < budget) {
        let s = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(s.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    median(&per_call)
}

const BUDGET: Duration = Duration::from_millis(250);

fn fixed_action(space: ActionSpace) -> Action {
    match space {
        ActionSpace::Discrete(_) => Action::Discrete(1),
        ActionSpace::Continuous { dim, .. } => Action::Continuous(vec![0.1; dim]),
    }
}

fn env_probes(w: &Workload, seed: u64, r: &mut Report) {
    let mut env = make_env(w.env, EnvConfig::default());
    let mut next_seed = seed;
    env.reset(next_seed);
    let action = fixed_action(env.action_space());
    r.metric(
        "envs.step.p50_us",
        p50_us(200, 32, BUDGET, || {
            if black_box(env.step(&action)).done {
                next_seed += 1;
                env.reset(next_seed);
            }
        }),
    );
    r.metric(
        "envs.reset.p50_us",
        p50_us(200, 4, BUDGET, || {
            next_seed += 1;
            black_box(env.reset(next_seed));
        }),
    );
}

/// The GEMM that dominates the policy's forward pass: a hidden layer at the
/// minibatch for the MLP, the first convolution's per-image im2col product
/// (`out_c x in_c*k*k x out_h*out_w`) for the CNN.
fn dominant_gemm_shape(w: &Workload, policy: &PolicyNet) -> (usize, usize, usize) {
    match &policy.actor {
        Backbone::Mlp(_) => (w.minibatch, policy.spec.hidden, policy.spec.hidden),
        Backbone::Cnn(cnn) => {
            let conv = &cnn.convs[0];
            let [out_c, in_c, kh, kw] = conv.w.shape() else {
                unreachable!("conv weights are [out_c, in_c, kh, kw]")
            };
            let [_, h, wid] = cnn.input_shape;
            let out_hw = ((h - kh) / conv.stride + 1) * ((wid - kw) / conv.stride + 1);
            (*out_c, in_c * kh * kw, out_hw)
        }
    }
}

fn nn_probes(w: &Workload, seed: u64, policy: &PolicyNet, r: &mut Report) {
    let (m, k, n) = dominant_gemm_shape(w, policy);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.01 - 0.06).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.02 - 0.06).collect();
    let bias = vec![0.01f32; n];
    let mut c = vec![0.0f32; m * n];
    let us = p50_us(200, 4, BUDGET, || {
        gemm_bias_act(
            MatRef::new(&a, m, k),
            MatRef::new(&b, k, n),
            &bias,
            FusedAct::Tanh,
            &mut c,
        );
        black_box(&c);
    });
    r.metric("nn.gemm.p50_us", us);
    r.metric("nn.gemm.gflops", (2 * m * k * n) as f64 / (us * 1e3));

    let mut worker = RolloutWorker::new(make_env(w.env, EnvConfig::default()), seed);
    let obs = worker.collect(policy, w.minibatch).obs;
    r.metric(
        "nn.forward_batch.p50_us",
        p50_us(100, 1, BUDGET, || {
            black_box(policy.dist_params(&obs));
        }),
    );
    let one: Vec<f32> = obs.data()[..policy.spec.obs_dim()].to_vec();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    r.metric(
        "rl.act.p50_us",
        p50_us(200, 8, BUDGET, || {
            black_box(policy.act(&one, &mut rng));
        }),
    );
}

fn telemetry_probes(r: &mut Report) {
    let cost_ns = |on: bool| {
        if on {
            trace::enable();
        }
        let us = p50_us(50, 1000, BUDGET, || {
            drop(black_box(trace::span("bench.probe")))
        });
        trace::disable();
        trace::drain();
        us * 1e3
    };
    r.metric("telemetry.span_off_ns", cost_ns(false));
    r.metric("telemetry.span_ns", cost_ns(true));
}

/// Request/reply over a loopback TCP pair at the remote loop's sizes: a
/// `GradientRequest` (snapshot + minibatch) out, a `GradientMsg` back.
fn frame_rtt_us(w: &Workload, seed: u64, policy: &PolicyNet) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("frame probe: {e}");
    let mut worker = RolloutWorker::new(make_env(w.env, EnvConfig::default()), seed);
    let mut batch = worker.collect(policy, w.minibatch);
    fill_gae(&mut batch, 0.99, 0.95);
    let request = GradientRequest {
        snap: policy.snapshot(),
        batch,
        cap: Some(1.0),
        learner_id: 0,
    };
    let reply = GradientMsg {
        learner_id: 0,
        grads: policy
            .params()
            .into_iter()
            .map(|p| Tensor::zeros(p.shape()))
            .collect(),
        base_version: 0,
        batch_len: w.minibatch,
        is_ratio: 1.0,
        kl: 0.0,
        surrogate: 0.0,
    };

    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    std::thread::scope(|s| {
        // Echo side: answers every request frame with the reply frame until
        // the client hangs up.
        let server = s.spawn(move || -> Result<(), String> {
            let (stream, _) = listener.accept().map_err(io)?;
            let mut reader = FrameReader::new(stream);
            while let Ok(frame) = reader.read_frame() {
                let id = frame.header.trace_id;
                write_value_frame(reader.get_mut(), 1, id, &reply, DEFAULT_MAX_FRAME)
                    .map_err(|e| format!("frame probe reply: {e}"))?;
            }
            Ok(())
        });
        let stream = TcpStream::connect(addr).map_err(io)?;
        let mut reader = FrameReader::new(stream);
        let mut failed = None;
        let us = p50_us(100, 1, Duration::from_millis(500), || {
            let sent = write_value_frame(reader.get_mut(), 2, 7, &request, DEFAULT_MAX_FRAME);
            match sent.and_then(|()| reader.read_frame()) {
                Ok(frame) => drop(black_box(frame)),
                Err(e) => failed = Some(format!("frame probe: {e}")),
            }
        });
        drop(reader); // hang up so the echo side leaves its loop
        server
            .join()
            .map_err(|_| "frame probe echo thread panicked".to_owned())??;
        failed.map_or(Ok(us), Err)
    })
}

/// Median spawn -> HELLO latency of a cold `stellaris worker` process.
fn spawn_ms(worker_bin: &str) -> Result<f64, String> {
    let proc_cfg = ProcessConfig {
        transport: WireTransport::Tcp,
        ..ProcessConfig::default()
    };
    let pool = ProcessPool::new(worker_bin, vec!["worker".to_owned()], proc_cfg);
    let mut ms = Vec::new();
    for index in 0..5 {
        let proc = pool
            .checkout(FunctionKind::Learner, index)
            .map_err(|e| format!("spawn probe: {e}"))?;
        ms.push(proc.cold_start().as_secs_f64() * 1e3);
        // Dropping the worker kills and reaps the child.
    }
    Ok(median(&ms))
}

pub fn run(w: &Workload, seed: u64, worker_bin: &str) -> Result<Report, String> {
    let mut r = Report::default();
    let policy = w.policy(seed);
    env_probes(w, seed, &mut r);
    nn_probes(w, seed, &policy, &mut r);
    telemetry_probes(&mut r);
    if w.driver == Driver::RemoteTcp {
        r.metric("cache.frame.rtt.p50_us", frame_rtt_us(w, seed, &policy)?);
        r.metric("serverless.process.spawn_ms", spawn_ms(worker_bin)?);
    }
    Ok(r)
}
