//! First-order optimizers: SGD (with momentum), Adam and RMSProp.
//!
//! The paper's parameter function performs the policy update with an
//! off-the-shelf optimizer (§V-C, Eq. 4 mentions "SGD, Adam, or RMSProp");
//! the staleness-modulated learning rate is applied per-gradient *before*
//! aggregation, so the optimizer itself stays standard.

#![warn(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

use crate::tensor::Tensor;

/// A stateful first-order optimizer over a flat parameter list.
pub trait Optimizer: Send {
    /// Applies one update step through mutable references. This is the
    /// zero-copy entry point: the parameter server hands in borrows of the
    /// live policy tensors (via [`crate::ParamSet::params_mut`]) so no
    /// parameter copies are made around the update.
    fn step_refs(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]);

    /// Applies one update step in place. `grads` must align with `params`.
    fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) {
        let mut refs: Vec<&mut Tensor> = params.iter_mut().collect();
        self.step_refs(&mut refs, grads);
    }
    /// Current base learning rate (the paper's `α_0`).
    fn lr(&self) -> f32;
    /// Overrides the base learning rate.
    fn set_lr(&mut self, lr: f32);
    /// Human-readable name for logs.
    fn name(&self) -> &'static str;
}

/// Plain SGD with optional momentum.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates SGD with the given learning rate and momentum (0 disables).
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step_refs(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]) {
        assert_eq!(params.len(), grads.len(), "param/grad count mismatch");
        if self.momentum > 0.0 && self.velocity.is_empty() {
            self.velocity = grads.iter().map(|g| Tensor::zeros(g.shape())).collect();
        }
        for (i, (p, g)) in params.iter_mut().zip(grads.iter()).enumerate() {
            if self.momentum > 0.0 {
                let v = &mut self.velocity[i];
                v.scale_inplace(self.momentum);
                v.axpy(1.0, g);
                p.axpy(-self.lr, v);
            } else {
                p.axpy(-self.lr, g);
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

/// Adam (Kingma & Ba), the optimizer used for both PPO and IMPACT in §VIII-B.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with the canonical betas (0.9, 0.999) and epsilon 1e-8.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Fully parameterised Adam.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step_refs(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]) {
        assert_eq!(params.len(), grads.len(), "param/grad count mismatch");
        if self.m.is_empty() {
            self.m = grads.iter().map(|g| Tensor::zeros(g.shape())).collect();
            self.v = grads.iter().map(|g| Tensor::zeros(g.shape())).collect();
        }
        self.t += 1;
        // Saturate the exponent: past step 2^31 a wrapped `i32` would make
        // the bias correction -inf and freeze every parameter.
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads.iter())
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            for ((pd, &gd), (md, vd)) in p
                .data_mut()
                .iter_mut()
                .zip(g.data().iter())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                *md = self.beta1 * *md + (1.0 - self.beta1) * gd;
                *vd = self.beta2 * *vd + (1.0 - self.beta2) * gd * gd;
                let mhat = *md / bc1;
                let vhat = *vd / bc2;
                *pd -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn name(&self) -> &'static str {
        "adam"
    }
}

/// RMSProp with exponential moving average of squared gradients.
pub struct RmsProp {
    lr: f32,
    alpha: f32,
    eps: f32,
    sq: Vec<Tensor>,
}

impl RmsProp {
    /// RMSProp with decay `alpha` (typically 0.99).
    pub fn new(lr: f32, alpha: f32) -> Self {
        Self {
            lr,
            alpha,
            eps: 1e-8,
            sq: Vec::new(),
        }
    }
}

impl Optimizer for RmsProp {
    fn step_refs(&mut self, params: &mut [&mut Tensor], grads: &[Tensor]) {
        assert_eq!(params.len(), grads.len(), "param/grad count mismatch");
        if self.sq.is_empty() {
            self.sq = grads.iter().map(|g| Tensor::zeros(g.shape())).collect();
        }
        for ((p, g), s) in params.iter_mut().zip(grads.iter()).zip(self.sq.iter_mut()) {
            for ((pd, &gd), sd) in p
                .data_mut()
                .iter_mut()
                .zip(g.data().iter())
                .zip(s.data_mut().iter_mut())
            {
                *sd = self.alpha * *sd + (1.0 - self.alpha) * gd * gd;
                *pd -= self.lr * gd / (sd.sqrt() + self.eps);
            }
        }
    }

    fn lr(&self) -> f32 {
        self.lr
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn name(&self) -> &'static str {
        "rmsprop"
    }
}

/// Named optimizer choices for configs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OptimizerKind {
    /// Plain SGD.
    Sgd,
    /// SGD with 0.9 momentum.
    SgdMomentum,
    /// Adam (paper default).
    Adam,
    /// RMSProp.
    RmsProp,
}

impl OptimizerKind {
    /// Instantiates the optimizer with learning rate `lr`.
    pub fn build(self, lr: f32) -> Box<dyn Optimizer> {
        match self {
            OptimizerKind::Sgd => Box::new(Sgd::new(lr, 0.0)),
            OptimizerKind::SgdMomentum => Box::new(Sgd::new(lr, 0.9)),
            OptimizerKind::Adam => Box::new(Adam::new(lr)),
            OptimizerKind::RmsProp => Box::new(RmsProp::new(lr, 0.99)),
        }
    }
}

/// Rescales gradients in place so their global L2 norm is at most
/// `max_norm`; returns the pre-clip norm.
pub fn clip_grad_norm(grads: &mut [Tensor], max_norm: f32) -> f32 {
    let total: f32 = grads.iter().map(Tensor::sq_norm).sum::<f32>().sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for g in grads.iter_mut() {
            g.scale_inplace(scale);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(params: &[Tensor]) -> Vec<Tensor> {
        // f(x) = 0.5 * ||x||^2, grad = x
        params.to_vec()
    }

    fn run_to_convergence(mut opt: Box<dyn Optimizer>, steps: usize) -> f32 {
        let mut params = vec![Tensor::from_vec(vec![3.0, -2.0, 1.5], &[3])];
        for _ in 0..steps {
            let grads = quadratic_grad(&params);
            opt.step(&mut params, &grads);
        }
        params[0].norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let n = run_to_convergence(Box::new(Sgd::new(0.1, 0.0)), 200);
        assert!(n < 1e-3, "norm {n}");
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        let n = run_to_convergence(Box::new(Sgd::new(0.05, 0.9)), 300);
        assert!(n < 1e-2, "norm {n}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let n = run_to_convergence(Box::new(Adam::new(0.05)), 500);
        assert!(n < 1e-2, "norm {n}");
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        let n = run_to_convergence(Box::new(RmsProp::new(0.02, 0.99)), 800);
        assert!(n < 5e-2, "norm {n}");
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // Bias correction makes the very first Adam step ~= lr * sign(grad).
        let mut opt = Adam::new(0.1);
        let mut params = vec![Tensor::from_vec(vec![1.0], &[1])];
        let grads = vec![Tensor::from_vec(vec![123.0], &[1])];
        opt.step(&mut params, &grads);
        assert!((params[0].data()[0] - 0.9).abs() < 1e-3);
    }

    #[test]
    fn adam_keeps_stepping_past_step_2_pow_31() {
        // Steady state at step i32::MAX (m = g, v = g^2): the next step,
        // number 2^31, must still move the parameter by about lr.
        let mut opt = Adam::new(0.1);
        opt.t = i32::MAX as u64;
        opt.m = vec![Tensor::from_vec(vec![2.0], &[1])];
        opt.v = vec![Tensor::from_vec(vec![4.0], &[1])];
        let mut params = vec![Tensor::from_vec(vec![1.0], &[1])];
        opt.step(&mut params, &[Tensor::from_vec(vec![2.0], &[1])]);
        assert!((params[0].data()[0] - 0.9).abs() < 1e-3, "{params:?}");
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut grads = vec![Tensor::from_vec(vec![3.0, 4.0], &[2])];
        let pre = clip_grad_norm(&mut grads, 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((grads[0].norm() - 1.0).abs() < 1e-5);

        let mut small = vec![Tensor::from_vec(vec![0.3, 0.4], &[2])];
        let pre2 = clip_grad_norm(&mut small, 1.0);
        assert!((pre2 - 0.5).abs() < 1e-6);
        assert!(
            (small[0].norm() - 0.5).abs() < 1e-6,
            "unchanged when under bound"
        );
    }

    #[test]
    fn step_refs_matches_step() {
        let grads = vec![Tensor::from_vec(vec![1.0, -2.0], &[2])];
        let mut owned = vec![Tensor::from_vec(vec![3.0, 4.0], &[2])];
        let mut borrowed = owned.clone();
        let mut opt_a = Adam::new(0.1);
        let mut opt_b = Adam::new(0.1);
        opt_a.step(&mut owned, &grads);
        let mut refs: Vec<&mut Tensor> = borrowed.iter_mut().collect();
        opt_b.step_refs(&mut refs, &grads);
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn set_lr_roundtrip() {
        let mut opt = Adam::new(0.001);
        opt.set_lr(0.5);
        assert_eq!(opt.lr(), 0.5);
    }

    #[test]
    fn kind_builds_named_optimizers() {
        assert_eq!(OptimizerKind::Adam.build(0.1).name(), "adam");
        assert_eq!(OptimizerKind::Sgd.build(0.1).name(), "sgd");
        assert_eq!(OptimizerKind::RmsProp.build(0.1).name(), "rmsprop");
    }
}
