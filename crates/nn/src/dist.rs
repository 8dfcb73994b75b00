//! Policy action distributions: diagonal Gaussian (MuJoCo) and categorical
//! (Atari).
//!
//! Two API surfaces exist on purpose. The *graph* functions build
//! differentiable log-probability / entropy / KL nodes for learner-side loss
//! construction. The *value* functions are plain `f32` math for the actor
//! side, where trajectories are sampled without any gradient bookkeeping —
//! exactly the actor/learner split of the paper's architecture.

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

const LN_2PI: f32 = 1.837_877_1; // ln(2π)

// ---------------------------------------------------------------------------
// Graph-side (differentiable) distribution math
// ---------------------------------------------------------------------------

/// Log-probability of `actions` (`[B,D]`, constant) under a diagonal
/// Gaussian with mean node `mu` (`[B,D]`) and log-std node `log_std`
/// (`[D]`). Returns a `[B]` node.
pub fn gaussian_log_prob(g: &Graph, mu: Var, log_std: Var, actions: &Tensor) -> Var {
    let dims = actions.shape()[1];
    let a = g.input(actions.clone());
    let diff = g.sub(a, mu);
    let dsq = g.square(diff);
    let inv_var = g.exp(g.scale(log_std, -2.0));
    let weighted = g.mul_row(dsq, inv_var);
    let maha = g.sum_rows(weighted);
    let half = g.scale(maha, -0.5);
    let ls_sum = g.sum_all(log_std);
    let lp = g.add_scalar_var(half, ls_sum, -1.0);
    g.add_scalar(lp, -0.5 * dims as f32 * LN_2PI)
}

/// Mean entropy (`[1]` node) of a diagonal Gaussian with log-std node of
/// dimension `dims`. Entropy is independent of the mean.
pub fn gaussian_entropy(g: &Graph, log_std: Var, dims: usize) -> Var {
    let s = g.sum_all(log_std);
    g.add_scalar(s, 0.5 * dims as f32 * (1.0 + LN_2PI))
}

/// Mean KL(old ‖ new) over a batch for diagonal Gaussians; `mu_old`
/// (`[B,D]`) and `ls_old` (`[D]`) are constants (the behaviour policy at
/// sampling time), `mu_new`/`ls_new` are graph nodes.
pub fn gaussian_kl_mean(
    g: &Graph,
    mu_old: &Tensor,
    ls_old: &Tensor,
    mu_new: Var,
    ls_new: Var,
) -> Var {
    let dims = mu_old.shape()[1];
    let old = g.input(mu_old.clone());
    let diff = g.sub(old, mu_new);
    let dsq = g.square(diff);
    let var_old_row = g.input(ls_old.map(|x| (2.0 * x).exp()));
    let numer = g.add_bias(dsq, var_old_row); // σ_old² + (μ_old-μ_new)²
    let half_inv_var_new = g.scale(g.exp(g.scale(ls_new, -2.0)), 0.5);
    let quad = g.mul_row(numer, half_inv_var_new);
    let per_sample = g.sum_rows(quad);
    let mean_quad = g.mean_all(per_sample);
    let with_new_ls = g.add_scalar_var(mean_quad, g.sum_all(ls_new), 1.0);
    g.add_scalar(with_new_ls, -ls_old.sum() - 0.5 * dims as f32)
}

/// Log-probability of discrete `actions` under `logits` (`[B,K]` node).
/// Returns a `[B]` node.
pub fn categorical_log_prob(g: &Graph, logits: Var, actions: &[usize]) -> Var {
    let lsm = g.log_softmax(logits);
    g.gather_cols(lsm, actions)
}

/// Mean entropy (`[1]` node) of categorical distributions given `logits`.
pub fn categorical_entropy_mean(g: &Graph, logits: Var) -> Var {
    let lsm = g.log_softmax(logits);
    let p = g.exp(lsm);
    let plogp = g.mul(p, lsm);
    let rows = g.sum_rows(plogp);
    g.scale(g.mean_all(rows), -1.0)
}

/// Mean KL(old ‖ new) over a batch of categorical distributions.
/// `old_logits` is constant; `new_logits` is a graph node.
pub fn categorical_kl_mean(g: &Graph, old_logits: &Tensor, new_logits: Var) -> Var {
    let (b, k) = (old_logits.shape()[0], old_logits.shape()[1]);
    let mut p_old = vec![0.0f32; b * k];
    let mut const_term = 0.0f64;
    for (row, dst) in old_logits.data().chunks(k).zip(p_old.chunks_mut(k)) {
        let lp = log_softmax_1d(row);
        for ((d, &l), _) in dst.iter_mut().zip(lp.iter()).zip(row.iter()) {
            *d = l.exp();
        }
        const_term += lp.iter().map(|&l| (l.exp() * l) as f64).sum::<f64>();
    }
    let const_mean = (const_term / b as f64) as f32;
    let pc = g.input(Tensor::from_vec(p_old, &[b, k]));
    let lsm_new = g.log_softmax(new_logits);
    let cross = g.sum_rows(g.mul(pc, lsm_new));
    let neg_cross_mean = g.scale(g.mean_all(cross), -1.0);
    g.add_scalar(neg_cross_mean, const_mean)
}

// ---------------------------------------------------------------------------
// Plain-value (actor-side) distribution math
// ---------------------------------------------------------------------------

/// Numerically stable log-softmax of one logits row.
pub fn log_softmax_1d(logits: &[f32]) -> Vec<f32> {
    let mx = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let lse = logits.iter().map(|&x| (x - mx).exp()).sum::<f32>().ln() + mx;
    logits.iter().map(|&x| x - lse).collect()
}

/// Samples a categorical action from logits; returns `(action, log_prob)`.
pub fn sample_categorical<R: Rng + ?Sized>(logits: &[f32], rng: &mut R) -> (usize, f32) {
    let lp = log_softmax_1d(logits);
    let u: f32 = rng.gen_range(0.0..1.0);
    let mut acc = 0.0f32;
    for (i, &l) in lp.iter().enumerate() {
        acc += l.exp();
        if u < acc {
            return (i, lp[i]);
        }
    }
    let last = lp.len() - 1;
    (last, lp[last])
}

/// Greedy (argmax) categorical action; returns `(action, log_prob)`.
pub fn argmax_categorical(logits: &[f32]) -> (usize, f32) {
    let lp = log_softmax_1d(logits);
    let (i, _) =
        logits
            .iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                if v > bv {
                    (i, v)
                } else {
                    (bi, bv)
                }
            });
    (i, lp[i])
}

/// Log-probability of a discrete action under logits.
pub fn categorical_logp_value(logits: &[f32], action: usize) -> f32 {
    log_softmax_1d(logits)[action]
}

/// KL(old ‖ new) between two categorical distributions given their logits.
pub fn categorical_kl_value(old_logits: &[f32], new_logits: &[f32]) -> f32 {
    let lo = log_softmax_1d(old_logits);
    let ln = log_softmax_1d(new_logits);
    lo.iter()
        .zip(ln.iter())
        .map(|(&a, &b)| a.exp() * (a - b))
        .sum()
}

/// Samples from a diagonal Gaussian; returns `(action, log_prob)`.
pub fn sample_gaussian<R: Rng + ?Sized>(
    mu: &[f32],
    log_std: &[f32],
    rng: &mut R,
) -> (Vec<f32>, f32) {
    assert_eq!(mu.len(), log_std.len(), "mu/log_std dim mismatch");
    let mut action = Vec::with_capacity(mu.len());
    for (&m, &ls) in mu.iter().zip(log_std.iter()) {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        action.push(m + z * ls.exp());
    }
    let lp = gaussian_logp_value(mu, log_std, &action);
    (action, lp)
}

/// Log-probability of `action` under a diagonal Gaussian.
pub fn gaussian_logp_value(mu: &[f32], log_std: &[f32], action: &[f32]) -> f32 {
    let mut lp = -0.5 * mu.len() as f32 * LN_2PI;
    for ((&m, &ls), &a) in mu.iter().zip(log_std.iter()).zip(action.iter()) {
        let z = (a - m) / ls.exp();
        lp += -0.5 * z * z - ls;
    }
    lp
}

/// KL(old ‖ new) between two diagonal Gaussians (single sample row).
pub fn gaussian_kl_value(mu_old: &[f32], ls_old: &[f32], mu_new: &[f32], ls_new: &[f32]) -> f32 {
    let mut kl = 0.0f32;
    for i in 0..mu_old.len() {
        let vo = (2.0 * ls_old[i]).exp();
        let vn = (2.0 * ls_new[i]).exp();
        let d = mu_old[i] - mu_new[i];
        kl += ls_new[i] - ls_old[i] + (vo + d * d) / (2.0 * vn) - 0.5;
    }
    kl
}

#[cfg(test)]
#[expect(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn graph_gaussian_logp_matches_value_fn() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mu = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let ls = Tensor::randn(&[3], 0.3, &mut rng);
        let actions = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let g = Graph::new();
        let muv = g.input(mu.clone());
        let lsv = g.input(ls.clone());
        let lp = gaussian_log_prob(&g, muv, lsv, &actions);
        let got = g.value(lp);
        for i in 0..4 {
            let want = gaussian_logp_value(mu.row(i).data(), ls.data(), actions.row(i).data());
            assert!(
                (got.data()[i] - want).abs() < 1e-4,
                "{} vs {want}",
                got.data()[i]
            );
        }
    }

    #[test]
    fn graph_categorical_logp_matches_value_fn() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let logits = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let actions = [0usize, 3, 1, 2, 2];
        let g = Graph::new();
        let lv = g.input(logits.clone());
        let lp = categorical_log_prob(&g, lv, &actions);
        let got = g.value(lp);
        for i in 0..5 {
            let want = categorical_logp_value(logits.row(i).data(), actions[i]);
            assert!((got.data()[i] - want).abs() < 1e-5);
        }
    }

    #[test]
    fn gaussian_logp_grad_check_wrt_mu() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mu0 = Tensor::randn(&[3, 2], 0.5, &mut rng);
        let ls = Tensor::zeros(&[2]);
        let actions = Tensor::randn(&[3, 2], 1.0, &mut rng);
        let g = Graph::new();
        let muv = g.input(mu0.clone());
        let lsv = g.input(ls.clone());
        let lp = gaussian_log_prob(&g, muv, lsv, &actions);
        let loss = g.mean_all(lp);
        let grad = g.backward(loss, &[muv]).remove(0);
        // d logp / d mu = (a - mu) / sigma^2; mean over batch divides by B.
        for i in 0..mu0.numel() {
            let want = (actions.data()[i] - mu0.data()[i]) / 3.0;
            assert!((grad.data()[i] - want).abs() < 1e-4);
        }
    }

    #[test]
    fn categorical_entropy_uniform_is_log_k() {
        let g = Graph::new();
        let logits = g.input(Tensor::zeros(&[2, 8]));
        let h = categorical_entropy_mean(&g, logits);
        let got = g.value(h).data()[0];
        assert!((got - (8f32).ln()).abs() < 1e-5, "{got}");
    }

    #[test]
    fn gaussian_entropy_unit_variance() {
        let g = Graph::new();
        let ls = g.input(Tensor::zeros(&[3]));
        let h = gaussian_entropy(&g, ls, 3);
        let want = 0.5 * 3.0 * (1.0 + LN_2PI);
        assert!((g.value(h).data()[0] - want).abs() < 1e-5);
    }

    #[test]
    fn kl_zero_when_equal_categorical() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let logits = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let g = Graph::new();
        let newv = g.input(logits.clone());
        let kl = categorical_kl_mean(&g, &logits, newv);
        assert!(g.value(kl).data()[0].abs() < 1e-5);
        // Value-side agreement.
        assert!(categorical_kl_value(logits.row(0).data(), logits.row(0).data()).abs() < 1e-6);
    }

    #[test]
    fn kl_positive_when_different() {
        let old = Tensor::from_vec(vec![2.0, 0.0, 0.0], &[1, 3]);
        let new = Tensor::from_vec(vec![0.0, 2.0, 0.0], &[1, 3]);
        let g = Graph::new();
        let newv = g.input(new.clone());
        let kl = categorical_kl_mean(&g, &old, newv);
        let got = g.value(kl).data()[0];
        let want = categorical_kl_value(old.row(0).data(), new.row(0).data());
        assert!(got > 0.1);
        assert!((got - want).abs() < 1e-5);
    }

    #[test]
    fn gaussian_kl_graph_matches_value() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mu_old = Tensor::randn(&[3, 2], 1.0, &mut rng);
        let ls_old = Tensor::randn(&[2], 0.2, &mut rng);
        let mu_new = Tensor::randn(&[3, 2], 1.0, &mut rng);
        let ls_new = Tensor::randn(&[2], 0.2, &mut rng);
        let g = Graph::new();
        let muv = g.input(mu_new.clone());
        let lsv = g.input(ls_new.clone());
        let kl = gaussian_kl_mean(&g, &mu_old, &ls_old, muv, lsv);
        let got = g.value(kl).data()[0];
        let want: f32 = (0..3)
            .map(|i| {
                gaussian_kl_value(
                    mu_old.row(i).data(),
                    ls_old.data(),
                    mu_new.row(i).data(),
                    ls_new.data(),
                )
            })
            .sum::<f32>()
            / 3.0;
        assert!((got - want).abs() < 1e-4, "{got} vs {want}");
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Heavily peaked logits: action 2 should dominate.
        let logits = [0.0f32, 0.0, 6.0, 0.0];
        let mut counts = [0usize; 4];
        for _ in 0..500 {
            let (a, lp) = sample_categorical(&logits, &mut rng);
            counts[a] += 1;
            assert!(lp <= 0.0);
        }
        assert!(counts[2] > 450, "{counts:?}");
    }

    #[test]
    fn gaussian_sampling_statistics() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mu = [1.0f32, -1.0];
        let ls = [0.0f32, 0.0];
        let mut sums = [0.0f64; 2];
        let n = 4000;
        for _ in 0..n {
            let (a, lp) = sample_gaussian(&mu, &ls, &mut rng);
            sums[0] += a[0] as f64;
            sums[1] += a[1] as f64;
            assert!(lp.is_finite());
        }
        assert!((sums[0] / n as f64 - 1.0).abs() < 0.1);
        assert!((sums[1] / n as f64 + 1.0).abs() < 0.1);
    }

    #[test]
    fn argmax_picks_mode() {
        let (a, lp) = argmax_categorical(&[0.1, 3.0, -1.0]);
        assert_eq!(a, 1);
        assert!(lp < 0.0);
    }
}
