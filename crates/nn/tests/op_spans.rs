//! The sampled per-node `nn.op` spans: a thread's first tape, and then one
//! in 64, records one forward span per node it appends and one backward
//! span per closure it runs, each naming its op, and the backward's seeding
//! and copy-out as two more.
//!
//! Tracing is process-global, so this file holds a single test.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use stellaris_nn::{bind_params, Activation, Graph, Mlp, ParamSet, Tensor};
use stellaris_telemetry::{self as telemetry, FieldValue};

#[test]
fn first_tape_and_every_64th_name_each_op() {
    telemetry::enable();
    std::thread::spawn(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mlp = Mlp::new(&[11, 16, 16, 3], Activation::Tanh, 0.01, &mut rng);
        let x = Tensor::randn(&[8, 11], 1.0, &mut rng);
        let params = mlp.params();
        for _ in 0..=64 {
            let g = Graph::new();
            let vars = bind_params(&g, &params);
            let out = mlp.forward(&g, g.input(x.clone()), &vars);
            let loss = g.mean_all(g.square(out));
            g.backward(loss, &vars);
        }
        telemetry::flush_thread();
    })
    .join()
    .unwrap();
    telemetry::disable();

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
}
