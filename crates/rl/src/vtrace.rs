//! V-trace off-policy correction (Espeholt et al., IMPALA), the advantage
//! estimator IMPACT builds on (§VIII-B: "V-trace importance sampling").

#![warn(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

/// Inputs to the V-trace computation for one trajectory slice.
pub struct VtraceInput<'a> {
    /// Behaviour-policy log-probs of the taken actions.
    pub behaviour_logp: &'a [f32],
    /// Target-policy log-probs of the same actions.
    pub target_logp: &'a [f32],
    /// Rewards.
    pub rewards: &'a [f32],
    /// Current value estimates `V(s_t)` under the target critic.
    pub values: &'a [f32],
    /// Episode-termination flags.
    pub dones: &'a [bool],
    /// Bootstrap value for the state after the last transition.
    pub bootstrap_value: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Truncation level ρ̄ for the TD correction weight.
    pub rho_bar: f32,
    /// Truncation level c̄ for the trace-cutting weight.
    pub c_bar: f32,
}

/// V-trace outputs: value targets `vs` and policy-gradient advantages.
#[derive(Clone, Debug, PartialEq)]
pub struct VtraceOutput {
    /// Corrected value targets `v_s`.
    pub vs: Vec<f32>,
    /// Policy-gradient advantages `ρ_t (r_t + γ v_{s+1} - V(s_t))`.
    pub advantages: Vec<f32>,
}

/// Computes V-trace targets with the standard backward recursion.
pub fn vtrace(input: &VtraceInput<'_>) -> VtraceOutput {
    let t = input.rewards.len();
    assert_eq!(input.behaviour_logp.len(), t, "logp length mismatch");
    assert_eq!(input.target_logp.len(), t, "logp length mismatch");
    assert_eq!(input.values.len(), t, "values length mismatch");
    assert_eq!(input.dones.len(), t, "dones length mismatch");

    let rhos: Vec<f32> = input
        .target_logp
        .iter()
        .zip(input.behaviour_logp.iter())
        .map(|(&tp, &bp)| (tp - bp).exp())
        .collect();
    let clipped_rho: Vec<f32> = rhos.iter().map(|&r| r.min(input.rho_bar)).collect();
    let clipped_c: Vec<f32> = rhos.iter().map(|&r| r.min(input.c_bar)).collect();

    let mut vs = vec![0.0f32; t];
    let mut acc = 0.0f32; // vs_{t+1} - V_{t+1}
    for i in (0..t).rev() {
        let not_done = if input.dones[i] { 0.0 } else { 1.0 };
        let next_value = if i + 1 < t {
            input.values[i + 1]
        } else {
            input.bootstrap_value
        };
        let delta = clipped_rho[i]
            * (input.rewards[i] + input.gamma * next_value * not_done - input.values[i]);
        acc = delta + input.gamma * clipped_c[i] * not_done * acc;
        vs[i] = input.values[i] + acc;
    }

    let advantages: Vec<f32> = (0..t)
        .map(|i| {
            let not_done = if input.dones[i] { 0.0 } else { 1.0 };
            let vs_next = if i + 1 < t {
                vs[i + 1]
            } else {
                input.bootstrap_value
            };
            clipped_rho[i] * (input.rewards[i] + input.gamma * vs_next * not_done - input.values[i])
        })
        .collect();

    VtraceOutput { vs, advantages }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_policy_input<'a>(
        rewards: &'a [f32],
        values: &'a [f32],
        dones: &'a [bool],
        logp: &'a [f32],
        bootstrap: f32,
    ) -> VtraceInput<'a> {
        VtraceInput {
            behaviour_logp: logp,
            target_logp: logp,
            rewards,
            values,
            dones,
            bootstrap_value: bootstrap,
            gamma: 0.99,
            rho_bar: 1.0,
            c_bar: 1.0,
        }
    }

    #[test]
    fn on_policy_vtrace_equals_n_step_return() {
        // When behaviour == target (ρ = c = 1), vs is the n-step TD(1) return.
        let rewards = [1.0, 1.0, 1.0];
        let values = [0.0, 0.0, 0.0];
        let dones = [false, false, true];
        let logp = [-0.3, -0.3, -0.3];
        let out = vtrace(&on_policy_input(&rewards, &values, &dones, &logp, 0.0));
        let g = 0.99f32;
        let want0 = 1.0 + g * (1.0 + g * 1.0);
        assert!((out.vs[0] - want0).abs() < 1e-4, "{} vs {want0}", out.vs[0]);
        assert!((out.vs[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rho_clipping_bounds_update() {
        // Target much more likely than behaviour: ρ huge, must clip to rho_bar.
        let rewards = [1.0];
        let values = [0.0];
        let dones = [true];
        let input = VtraceInput {
            behaviour_logp: &[-5.0],
            target_logp: &[0.0],
            rewards: &rewards,
            values: &values,
            dones: &dones,
            bootstrap_value: 0.0,
            gamma: 0.99,
            rho_bar: 1.0,
            c_bar: 1.0,
        };
        let out = vtrace(&input);
        assert!((out.vs[0] - 1.0).abs() < 1e-5, "clipped delta = 1 * reward");
        assert!((out.advantages[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn low_rho_shrinks_correction() {
        // Target much *less* likely: ρ ≈ 0, so the target barely moves V.
        let rewards = [10.0];
        let values = [2.0];
        let dones = [true];
        let input = VtraceInput {
            behaviour_logp: &[0.0],
            target_logp: &[-8.0],
            rewards: &rewards,
            values: &values,
            dones: &dones,
            bootstrap_value: 0.0,
            gamma: 0.99,
            rho_bar: 1.0,
            c_bar: 1.0,
        };
        let out = vtrace(&input);
        assert!(
            (out.vs[0] - 2.0).abs() < 0.01,
            "vs ~ V when rho ~ 0: {}",
            out.vs[0]
        );
    }

    #[test]
    fn done_stops_trace_propagation() {
        let rewards = [0.0, 5.0];
        let values = [1.0, 1.0];
        let dones = [true, false];
        let logp = [-0.1, -0.1];
        let out = vtrace(&on_policy_input(&rewards, &values, &dones, &logp, 0.0));
        // Step 0 terminal: vs[0] = V + ρ(r - V) = 1 + (0 - 1) = 0, no leak from step 1.
        assert!((out.vs[0] - 0.0).abs() < 1e-5, "{}", out.vs[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let input = VtraceInput {
            behaviour_logp: &[0.0],
            target_logp: &[0.0, 0.0],
            rewards: &[1.0],
            values: &[0.0],
            dones: &[false],
            bootstrap_value: 0.0,
            gamma: 0.99,
            rho_bar: 1.0,
            c_bar: 1.0,
        };
        let _ = vtrace(&input);
    }
}
