//! The sampled per-node `nn.op` spans: the process's first traced tape,
//! and then one in 64 whatever thread records it, records one forward span
//! per node it appends and one backward span per closure it runs, each
//! naming its op, and the backward's seeding and copy-out as two more.
//!
//! Tracing and the tape count are process-global, so this file holds a
//! single test.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stellaris_nn::{bind_params, Activation, Graph, Mlp, ParamSet, Tensor};
use stellaris_telemetry::{self as telemetry, FieldValue};

/// Records and differentiates one tape of a small Tanh MLP on this thread,
/// then flushes the thread's events.
fn one_tape() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mlp = Mlp::new(&[11, 16, 16, 3], Activation::Tanh, 0.01, &mut rng);
    let x = Tensor::randn(&[8, 11], 1.0, &mut rng);
    let params = mlp.params();
    let g = Graph::new();
    let vars = bind_params(&g, &params);
    let out = mlp.forward(&g, g.input(x), &vars);
    let loss = g.mean_all(g.square(out));
    g.backward(loss, &vars);
    telemetry::flush_thread();
}

/// The `nn.op` spans drained so far, as the op names of each pass.
fn drain_ops() -> (Vec<String>, Vec<String>) {
    let field = |fields: &[(&str, FieldValue)], key: &str| {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    let mut forward = Vec::new();
    let mut backward = Vec::new();
    for e in telemetry::drain().iter().filter(|e| e.name == "nn.op") {
        let Some(FieldValue::Text(op)) = field(&e.fields, "op") else {
            panic!("nn.op span without an op name: {:?}", e.fields);
        };
        match field(&e.fields, "pass") {
            Some(FieldValue::Text(p)) if p == "forward" => forward.push(op),
            Some(FieldValue::Text(p)) if p == "backward" => backward.push(op),
            other => panic!("nn.op span with pass {other:?}"),
        }
    }
    (forward, backward)
}

#[test]
fn first_tape_and_every_64th_name_each_op() {
    telemetry::enable();
    // 65 tapes on one thread: the first and the 65th are sampled.
    std::thread::spawn(|| (0..=64).for_each(|_| one_tape()))
        .join()
        .unwrap();
    let (forward, backward) = drain_ops();
    // Two sampled tapes of 13 nodes (six parameters, the input, two Tanh
    // dense layers and the linear head, and the loss), of which six run a backward closure, between
    // the backward's seeding and its copy of the gradients out.
    let tape_fwd = [
        "param",
        "param",
        "param",
        "param",
        "param",
        "param",
        "input",
        "dense_tanh",
        "dense_tanh",
        "dense",
        "square",
        "sum_all",
        "scale",
    ];
    let tape_bwd = [
        "seed",
        "scale",
        "sum_all",
        "square",
        "dense",
        "dense_tanh",
        "dense_tanh",
        "gradients",
    ];
    assert_eq!(forward, [tape_fwd, tape_fwd].concat());
    assert_eq!(backward, [tape_bwd, tape_bwd].concat());

    // 128 more tapes, each on a fresh thread, as a lock-step learner runs
    // its invocations: the count is the process's, so two of them (the
    // 129th and the 193rd tape) are sampled, not all 128.
    for _ in 0..128 {
        std::thread::spawn(one_tape).join().unwrap();
    }
    telemetry::disable();
    let (forward, backward) = drain_ops();
    assert_eq!(forward, [tape_fwd, tape_fwd].concat());
    assert_eq!(backward, [tape_bwd, tape_bwd].concat());
}
