//! Extending Stellaris with your own environment: implement the `Env`
//! trait and run the full asynchronous serverless training stack on it.
//!
//! The environment here is a toy "thermostat": keep a noisy temperature at
//! the setpoint with a single continuous control.
//!
//! Run with: `cargo run --release --example custom_env`

#![allow(clippy::print_stdout)]

use stellaris::envs::{env_rng, Step};
use stellaris::prelude::*;
use stellaris::rl::fill_gae;
use stellaris_nn::{Adam, ParamSet};

/// A one-dimensional temperature-control task.
struct Thermostat {
    temp: f32,
    setpoint: f32,
    t: usize,
    rng: stellaris::envs::EnvRng,
}

impl Thermostat {
    fn new() -> Self {
        Self {
            temp: 15.0,
            setpoint: 21.0,
            t: 0,
            rng: env_rng(0),
        }
    }
}

impl Env for Thermostat {
    fn name(&self) -> &'static str {
        "Thermostat"
    }

    fn obs_shape(&self) -> Vec<usize> {
        vec![2]
    }

    fn action_space(&self) -> ActionSpace {
        ActionSpace::Continuous { dim: 1, bound: 1.0 }
    }

    fn reset(&mut self, seed: u64) -> Vec<f32> {
        self.rng = env_rng(seed);
        self.temp = 15.0;
        self.t = 0;
        vec![self.temp / 30.0, self.setpoint / 30.0]
    }

    fn step(&mut self, action: &Action) -> Step {
        use rand::Rng;
        let heat = action.continuous()[0].clamp(-1.0, 1.0);
        // Heater power, ambient leakage toward 10C, and sensor noise.
        self.temp += 0.8 * heat - 0.05 * (self.temp - 10.0) + self.rng.gen_range(-0.1f32..0.1);
        self.t += 1;
        let err = (self.temp - self.setpoint).abs();
        Step {
            obs: vec![self.temp / 30.0, self.setpoint / 30.0],
            reward: -err,
            done: self.t >= 120,
        }
    }

    fn max_steps(&self) -> usize {
        120
    }
}

fn main() {
    // Since this env is not in the `EnvId` registry, drive the training
    // loop directly against the library's building blocks: rollouts, GAE,
    // PPO gradients and an optimizer — the same pieces the orchestrator
    // wires through the serverless platform.
    let mut env = Thermostat::new();
    env.reset(0);
    let mut spec = PolicySpec::for_env(&env);
    spec.hidden = 32;
    let mut policy = PolicyNet::new(spec, 0);
    let mut worker = RolloutWorker::new(Box::new(Thermostat::new()), 1);
    let mut opt = Adam::new(3e-4);
    let ppo = PpoConfig::scaled();

    println!("Training PPO on a custom Thermostat environment\n");
    for iter in 0..40 {
        let mut batch = worker.collect(&policy, 480);
        fill_gae(&mut batch, ppo.gamma, ppo.gae_lambda);
        batch.normalize_advantages();
        for mb in batch.minibatches(120) {
            let (grads, _) = stellaris::rl::ppo_gradients(&policy, &mb, &ppo, None);
            let mut params: Vec<Tensor> = policy.params().into_iter().cloned().collect();
            opt.step(&mut params, &grads);
            policy.load_flat(&stellaris_nn::flatten_all(&params));
            policy.version += 1;
        }
        if iter % 8 == 0 || iter == 39 {
            let mut eval_env = Thermostat::new();
            let reward = evaluate(&policy, &mut eval_env, 3, 99);
            println!("iter {iter:>3}: mean episodic reward {reward:>8.1}");
        }
    }
    println!("\nReward is -|temperature error| per step; climbing toward 0 means");
    println!("the policy learned to hold the setpoint.");
}
