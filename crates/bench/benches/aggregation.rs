//! Parameter-function benchmarks: staleness-aware aggregation throughput
//! against the baseline rules, over realistic gradient sizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use stellaris_core::{AggregationRule, GradientMsg, ShardedParameterServer};
use stellaris_envs::ActionSpace;
use stellaris_nn::{ParamSet, Sgd, Tensor};
use stellaris_rl::{PolicyNet, PolicySpec};

fn policy() -> PolicyNet {
    PolicyNet::new(
        PolicySpec {
            obs_shape: vec![11],
            action_space: ActionSpace::Continuous { dim: 3, bound: 1.0 },
            hidden: 64,
        },
        0,
    )
}

fn msg(p: &PolicyNet, base: u64) -> GradientMsg {
    GradientMsg {
        learner_id: 0,
        grads: p
            .params()
            .iter()
            .map(|t| Tensor::full(t.shape(), 0.001))
            .collect(),
        base_version: base,
        batch_len: 128,
        is_ratio: 1.0,
        kl: 0.001,
        surrogate: 0.1,
    }
}

fn bench_rules(c: &mut Criterion) {
    for rule in [
        AggregationRule::stellaris_default(),
        AggregationRule::PureAsync,
        AggregationRule::Softsync { c: 4 },
    ] {
        let name = format!("aggregate_{}", rule.name());
        c.bench_function(&name, |bench| {
            let p = policy();
            let ps = ShardedParameterServer::new(p.clone(), rule.clone(), 1, || {
                Box::new(Sgd::new(1e-3, 0.0))
            });
            bench.iter(|| {
                let m = msg(&p, ps.clock());
                black_box(ps.offer(&m))
            })
        });
    }
}

fn bench_gradient_codec(c: &mut Criterion) {
    use stellaris_cache::Codec;
    let p = policy();
    let m = msg(&p, 0);
    c.bench_function("gradient_msg_encode", |bench| {
        bench.iter(|| black_box(m.to_bytes()))
    });
    let bytes = m.to_bytes();
    c.bench_function("gradient_msg_decode", |bench| {
        bench.iter(|| black_box(GradientMsg::from_bytes(&bytes).unwrap()))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_rules, bench_gradient_codec
);
criterion_main!(benches);
