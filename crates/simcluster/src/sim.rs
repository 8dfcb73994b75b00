//! The discrete-event simulation of the Stellaris pipeline.
//!
//! Actors, learner slots and the parameter function are modelled as
//! stations in a queueing network. Each gradient carries its base policy
//! clock into `stellaris-core`'s own [`StalenessGate`], the one the real
//! parameter plane runs, so the clock, the Eq. 3 admission and the
//! staleness ledger are the real ones. Only the tensor arithmetic is
//! replaced by virtual service times. One paper-scale training run (128
//! actors x 1024 steps x 50 rounds) simulates in milliseconds.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use stellaris_core::{AggregationRule, StalenessGate};
use stellaris_serverless::{Cluster, CostBreakdown};

use crate::profile::TimingProfile;

/// Billing model for the simulated run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimBilling {
    /// Pay per function-second of actual work.
    Serverless,
    /// Reserve the whole cluster for the whole virtual duration.
    Serverful,
}

/// Simulation configuration (mirrors `TrainConfig`'s scale knobs).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of actors (paper: 128 on the regular testbed).
    pub n_actors: usize,
    /// Timesteps per actor batch (paper: 1024).
    pub actor_steps: usize,
    /// Learner mini-batch size (paper: 4096 MuJoCo / 256 Atari).
    pub minibatch: usize,
    /// Concurrent learner slots (paper: 4 per V100).
    pub max_learners: usize,
    /// Training rounds (paper: 50).
    pub rounds: usize,
    /// Timesteps consumed per round.
    pub round_timesteps: usize,
    /// Aggregation rule (the real `stellaris-core` logic).
    pub rule: AggregationRule,
    /// Synchronous-barrier semantics: the next round's sampling waits for
    /// all learning to finish, and learners bill until their wave completes
    /// (serverful multi-learner baselines).
    pub sync_barrier: bool,
    /// Cluster prices/slots.
    pub cluster: Cluster,
    /// Billing model.
    pub billing: SimBilling,
    /// Operation timings.
    pub timing: TimingProfile,
    /// RNG seed for jitter.
    pub seed: u64,
}

impl SimConfig {
    /// Stellaris at the paper's regular-testbed scale on a MuJoCo task.
    pub fn stellaris_paper_mujoco() -> Self {
        let cluster = Cluster::regular();
        Self {
            n_actors: cluster.actor_slots(),
            actor_steps: 1024,
            minibatch: 4096,
            max_learners: cluster.learner_slots(),
            rounds: 50,
            round_timesteps: cluster.actor_slots() * 1024,
            rule: AggregationRule::stellaris_default(),
            sync_barrier: false,
            cluster,
            billing: SimBilling::Serverless,
            timing: TimingProfile::mujoco_v100(),
            seed: 1,
        }
    }

    /// A scale stress configuration: `n_learners` simulated learner slots
    /// (thousands are fine — the queueing network is O(events), not
    /// O(threads)) fed by a proportionally sized actor pool, short rounds,
    /// small mini-batches so every slot sees work.
    pub fn stellaris_scale(n_learners: usize) -> Self {
        let n_learners = n_learners.max(1);
        Self {
            n_actors: (n_learners / 4).max(4),
            actor_steps: 64,
            minibatch: 32,
            max_learners: n_learners,
            rounds: 3,
            round_timesteps: (n_learners / 4).max(4) * 64,
            timing: TimingProfile::test_flat(),
            seed: 3,
            ..Self::stellaris_paper_mujoco()
        }
    }

    /// The serverful synchronous baseline at the same scale.
    pub fn sync_serverful_paper_mujoco() -> Self {
        let base = Self::stellaris_paper_mujoco();
        Self {
            rule: AggregationRule::FullSync {
                n: base.max_learners,
            },
            sync_barrier: true,
            billing: SimBilling::Serverful,
            ..base
        }
    }

    /// Stellaris at paper scale on an Atari-class workload (Table III's
    /// 256-sample batches, CNN-heavy service times).
    pub fn stellaris_paper_atari() -> Self {
        Self {
            minibatch: 256,
            timing: TimingProfile::atari_v100(),
            ..Self::stellaris_paper_mujoco()
        }
    }

    /// Stellaris on the §VIII-D HPC testbed (16 V100s, 960 actor cores).
    pub fn stellaris_hpc_atari() -> Self {
        let cluster = Cluster::hpc();
        Self {
            n_actors: cluster.actor_slots(),
            max_learners: cluster.learner_slots(),
            round_timesteps: cluster.actor_slots() * 1024,
            cluster,
            ..Self::stellaris_paper_atari()
        }
    }

    /// PAR-RL-style synchronous serverful training on the HPC testbed.
    pub fn parrl_hpc_atari() -> Self {
        let base = Self::stellaris_hpc_atari();
        Self {
            rule: AggregationRule::FullSync {
                n: base.max_learners,
            },
            sync_barrier: true,
            billing: SimBilling::Serverful,
            ..base
        }
    }

    /// A small deterministic configuration for tests.
    pub fn test_small() -> Self {
        Self {
            n_actors: 4,
            actor_steps: 64,
            minibatch: 64,
            max_learners: 2,
            rounds: 3,
            round_timesteps: 256,
            rule: AggregationRule::stellaris_default(),
            sync_barrier: false,
            cluster: Cluster::tiny(),
            billing: SimBilling::Serverless,
            timing: TimingProfile::test_flat(),
            seed: 7,
        }
    }
}

/// Per-round simulated metrics.
#[derive(Clone, Copy, Debug)]
pub struct SimRound {
    /// Round index.
    pub round: usize,
    /// Virtual seconds elapsed at round end.
    pub virtual_time_s: f64,
    /// Learner invocations so far.
    pub invocations: u64,
    /// Policy updates so far.
    pub updates: u64,
    /// Mean staleness of gradients aggregated during this round.
    pub mean_staleness: f64,
    /// Cumulative cost in USD.
    pub cost_usd: f64,
}

/// Full simulation output.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-round rows.
    pub rows: Vec<SimRound>,
    /// Total virtual duration in seconds.
    pub virtual_time_s: f64,
    /// Total learner billed seconds (includes sync barrier waits).
    pub learner_busy_s: f64,
    /// Total learner compute seconds (excludes barrier waits).
    pub learner_exec_s: f64,
    /// Total actor busy seconds.
    pub actor_busy_s: f64,
    /// Parameter-function busy seconds.
    pub parameter_busy_s: f64,
    /// Learner invocations.
    pub invocations: u64,
    /// Policy updates.
    pub updates: u64,
    /// Staleness of every aggregated gradient.
    pub staleness_log: Vec<u64>,
    /// GPU-slot utilisation (learner + parameter busy / slot-time).
    pub gpu_utilization: f64,
    /// Final cost under the configured billing.
    pub cost: CostBreakdown,
}

impl SimResult {
    /// Mean staleness over the whole run.
    pub fn mean_staleness(&self) -> f64 {
        if self.staleness_log.is_empty() {
            0.0
        } else {
            self.staleness_log.iter().sum::<u64>() as f64 / self.staleness_log.len() as f64
        }
    }
}

#[derive(Debug)]
enum EventKind {
    /// An actor's sampling cycle completed; its batch reaches the loader.
    ActorBatch { actor: usize, steps: usize },
    /// A learner finished one mini-batch gradient.
    LearnerDone { base_clock: u64, done_t: f64 },
}

struct Event {
    t: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Min-heap: earlier time first; sequence breaks ties deterministically.
        other
            .t
            .partial_cmp(&self.t)
            .unwrap_or(CmpOrdering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Runs the simulation to completion.
///
/// ```
/// use stellaris_simcluster::{simulate, SimConfig};
/// let result = simulate(&SimConfig::test_small());
/// assert_eq!(result.rows.len(), 3);
/// assert!(result.cost.total() > 0.0);
/// ```
pub fn simulate(cfg: &SimConfig) -> SimResult {
    assert!(cfg.n_actors > 0 && cfg.max_learners > 0 && cfg.rounds > 0);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut heap: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = 0.0f64;

    let mut gate = StalenessGate::new(cfg.rule.clone(), 0);
    let mut invocations = 0u64;
    // Every committed gradient's staleness: the gate's ledger keeps only
    // the most recent ones, and a paper-scale run commits more.
    let mut staleness_log: Vec<u64> = Vec::new();
    let mut round_staleness_start = 0usize;

    // Finish times of the gradients the gate holds, in arrival order.
    let mut held_done: Vec<f64> = Vec::new();
    let mut backlog: Vec<usize> = Vec::new(); // pending mini-batch job sizes (samples)
    let mut free_learners = cfg.max_learners;
    let mut warm_containers = 0usize;

    let mut learner_busy = 0.0f64; // billed (includes sync barrier waits)
    let mut learner_exec = 0.0f64; // pure compute (for utilisation)
    let mut actor_busy = 0.0f64;
    let mut parameter_busy = 0.0f64;

    let mut round = 0usize;
    let quota_per_round = (cfg.round_timesteps / cfg.actor_steps).max(1) * cfg.actor_steps;
    let mut quota_left = quota_per_round;
    let mut inflight_steps = 0usize; // steps being sampled right now
    let mut rows: Vec<SimRound> = Vec::with_capacity(cfg.rounds);
    let mut actor_free: Vec<bool> = vec![true; cfg.n_actors];

    let jit = {
        let j = cfg.timing.jitter;
        move |rng: &mut ChaCha8Rng| {
            if j == 0.0 {
                1.0
            } else {
                rng.gen_range(1.0 - j..1.0 + j)
            }
        }
    };

    macro_rules! push_event {
        ($t:expr, $kind:expr) => {{
            seq += 1;
            heap.push(Event {
                t: $t,
                seq,
                kind: $kind,
            });
        }};
    }

    let cost_at =
        |learner_busy: f64, actor_busy: f64, parameter_busy: f64, now: f64| -> CostBreakdown {
            match cfg.billing {
                SimBilling::Serverless => CostBreakdown {
                    learner_usd: (learner_busy + parameter_busy) / 1e6
                        * cfg.cluster.learner_fn_price(),
                    actor_usd: actor_busy / 1e6 * cfg.cluster.actor_fn_price(),
                    wasted_usd: 0.0,
                },
                SimBilling::Serverful => {
                    let secs = now / 1e6;
                    CostBreakdown {
                        learner_usd: cfg.cluster.gpu_vms.itype.per_second()
                            * cfg.cluster.gpu_vms.count as f64
                            * secs,
                        actor_usd: cfg.cluster.cpu_vms.itype.per_second()
                            * cfg.cluster.cpu_vms.count as f64
                            * secs,
                        wasted_usd: 0.0,
                    }
                }
            }
        };

    // Kick off as many actor cycles as the first round's quota allows.
    macro_rules! start_actors {
        () => {
            // Sync baselines do not sample while learning is in flight.
            let barrier_blocked = cfg.sync_barrier
                && (!backlog.is_empty() || gate.pending() > 0 || free_learners < cfg.max_learners);
            if !barrier_blocked {
                for a in 0..cfg.n_actors {
                    if actor_free[a] && quota_left >= cfg.actor_steps {
                        actor_free[a] = false;
                        quota_left -= cfg.actor_steps;
                        inflight_steps += cfg.actor_steps;
                        let sample =
                            cfg.actor_steps as f64 * cfg.timing.actor_step_us * jit(&mut rng);
                        let dur = cfg.timing.policy_pull_us + sample + cfg.timing.traj_push_us;
                        actor_busy += dur;
                        push_event!(
                            now + dur,
                            EventKind::ActorBatch {
                                actor: a,
                                steps: cfg.actor_steps
                            }
                        );
                    }
                }
            }
        };
    }

    macro_rules! dispatch_learners {
        () => {
            while free_learners > 0 && !backlog.is_empty() {
                let job_samples = backlog.pop().unwrap_or(cfg.minibatch);
                free_learners -= 1;
                invocations += 1;
                let startup = if warm_containers > 0 {
                    warm_containers -= 1;
                    cfg.timing.warm_start_us
                } else {
                    cfg.timing.cold_start_us
                };
                let exec = job_samples as f64 * cfg.timing.learner_us_per_sample * jit(&mut rng);
                learner_busy += exec; // startup is unbilled, as in §VIII-A
                learner_exec += exec;
                let done_t = now + startup + cfg.timing.policy_pull_us + exec;
                push_event!(
                    done_t,
                    EventKind::LearnerDone {
                        base_clock: gate.clock(),
                        done_t
                    }
                );
            }
        };
    }

    // Commits everything the gate holds: one policy update.
    macro_rules! commit {
        () => {
            if cfg.sync_barrier {
                // Synchronous learners bill until the wave completes.
                let wave_end = held_done.iter().fold(0.0f64, |m, &t| m.max(t));
                for &t in &held_done {
                    learner_busy += wave_end - t;
                }
            }
            held_done.clear();
            staleness_log.extend_from_slice(gate.commit());
            parameter_busy += cfg.timing.aggregate_us;
        };
    }

    start_actors!();

    while let Some(ev) = heap.pop() {
        now = ev.t;
        match ev.kind {
            EventKind::ActorBatch { actor, steps } => {
                actor_free[actor] = true;
                inflight_steps -= steps;
                // Split the batch into mini-batch jobs (last one may be short).
                let mut remaining = steps;
                while remaining > 0 {
                    let job = remaining.min(cfg.minibatch);
                    backlog.push(job);
                    remaining -= job;
                }
                dispatch_learners!();
                start_actors!();
            }
            EventKind::LearnerDone { base_clock, done_t } => {
                free_learners += 1;
                warm_containers += 1;
                gate.arrive(base_clock);
                held_done.push(done_t);
                if gate.admits() {
                    commit!();
                }
                dispatch_learners!();
                start_actors!();
            }
        }

        // Partial final wave: when no more gradients can arrive, the gate's
        // hold is lifted for the remainder (as the real orchestrator's
        // `commit_pending` does for the last wave of a round).
        if quota_left == 0
            && inflight_steps == 0
            && backlog.is_empty()
            && free_learners == cfg.max_learners
            && gate.pending() > 0
        {
            commit!();
        }

        // Round boundary: quota fully sampled and (for sync) pipeline drained.
        let round_done = quota_left == 0
            && inflight_steps == 0
            && (!cfg.sync_barrier
                || (backlog.is_empty() && gate.pending() == 0 && heap.is_empty()));
        if round_done {
            let new = &staleness_log[round_staleness_start..];
            let mean = if new.is_empty() {
                0.0
            } else {
                new.iter().sum::<u64>() as f64 / new.len() as f64
            };
            round_staleness_start = staleness_log.len();
            let cost = cost_at(learner_busy, actor_busy, parameter_busy, now);
            rows.push(SimRound {
                round,
                virtual_time_s: now / 1e6,
                invocations,
                updates: gate.updates(),
                mean_staleness: mean,
                cost_usd: cost.total(),
            });
            gate.end_round();
            round += 1;
            if round >= cfg.rounds {
                break;
            }
            quota_left = quota_per_round;
            start_actors!();
        }
    }

    let gpu_slot_time = now * cfg.max_learners as f64;
    SimResult {
        rows,
        virtual_time_s: now / 1e6,
        learner_busy_s: learner_busy / 1e6,
        learner_exec_s: learner_exec / 1e6,
        actor_busy_s: actor_busy / 1e6,
        parameter_busy_s: parameter_busy / 1e6,
        invocations,
        updates: gate.updates(),
        gpu_utilization: if gpu_slot_time > 0.0 {
            ((learner_exec + parameter_busy) / gpu_slot_time).min(1.0)
        } else {
            0.0
        },
        cost: cost_at(learner_busy, actor_busy, parameter_busy, now),
        staleness_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_completes_all_rounds() {
        let cfg = SimConfig::test_small();
        let res = simulate(&cfg);
        assert_eq!(res.rows.len(), 3);
        assert!(res.virtual_time_s > 0.0);
        assert!(res.updates > 0);
        // 3 rounds x 256 steps / 64 minibatch = 12 gradient jobs; the tail
        // of the final round may still be queued at shutdown, exactly like
        // the real orchestrator closing its work queue.
        assert!(
            res.invocations >= 8 && res.invocations <= 12,
            "{}",
            res.invocations
        );
        assert!(res.cost.total() > 0.0);
    }

    #[test]
    fn deterministic_without_jitter() {
        let cfg = SimConfig::test_small();
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        assert_eq!(a.virtual_time_s, b.virtual_time_s);
        assert_eq!(a.staleness_log, b.staleness_log);
    }

    #[test]
    fn async_is_faster_than_sync_barrier() {
        let async_cfg = SimConfig::test_small();
        let sync_cfg = SimConfig {
            rule: AggregationRule::FullSync { n: 2 },
            sync_barrier: true,
            ..SimConfig::test_small()
        };
        let a = simulate(&async_cfg);
        let s = simulate(&sync_cfg);
        assert!(
            a.virtual_time_s < s.virtual_time_s,
            "overlapping learning with sampling must shorten the run: {} vs {}",
            a.virtual_time_s,
            s.virtual_time_s
        );
    }

    #[test]
    fn serverless_cheaper_than_serverful_at_paper_scale() {
        let st = simulate(&SimConfig::stellaris_paper_mujoco());
        let sf = simulate(&SimConfig::sync_serverful_paper_mujoco());
        assert!(
            st.cost.total() < sf.cost.total(),
            "Stellaris {} vs serverful {}",
            st.cost.total(),
            sf.cost.total()
        );
        // Paper's Fig. 8 reduction band: sanity check it is a real gap.
        let saving = 1.0 - st.cost.total() / sf.cost.total();
        assert!(saving > 0.1, "saving {saving}");
    }

    #[test]
    fn staleness_grows_with_learner_count() {
        let mk = |learners: usize| SimConfig {
            max_learners: learners,
            rule: AggregationRule::PureAsync,
            minibatch: 16,
            ..SimConfig::test_small()
        };
        let few = simulate(&mk(1));
        let many = simulate(&mk(8));
        assert!(
            many.mean_staleness() > few.mean_staleness(),
            "Fig. 3b: staleness must grow with the learner group: {} vs {}",
            few.mean_staleness(),
            many.mean_staleness()
        );
        assert_eq!(few.mean_staleness(), 0.0, "a single learner is never stale");
    }

    #[test]
    fn hpc_presets_reproduce_fig12_direction() {
        let st = simulate(&SimConfig {
            rounds: 5,
            ..SimConfig::stellaris_hpc_atari()
        });
        let pr = simulate(&SimConfig {
            rounds: 5,
            ..SimConfig::parrl_hpc_atari()
        });
        assert!(
            st.cost.total() < pr.cost.total(),
            "Stellaris must be cheaper on HPC"
        );
        assert!(
            st.virtual_time_s < pr.virtual_time_s,
            "and faster wall-clock"
        );
    }

    #[test]
    fn utilization_is_a_fraction() {
        let res = simulate(&SimConfig::stellaris_paper_mujoco());
        assert!(res.gpu_utilization > 0.0 && res.gpu_utilization <= 1.0);
        assert!(
            res.actor_busy_s > res.learner_busy_s,
            "sampling dominates MuJoCo"
        );
    }

    #[test]
    fn rounds_report_monotone_time_and_cost() {
        let res = simulate(&SimConfig::stellaris_paper_mujoco());
        for w in res.rows.windows(2) {
            assert!(w[1].virtual_time_s >= w[0].virtual_time_s);
            assert!(w[1].cost_usd >= w[0].cost_usd);
            assert!(w[1].invocations >= w[0].invocations);
        }
        assert_eq!(res.rows.len(), 50);
    }

    #[test]
    fn scale_preset_runs_thousands_of_learners() {
        let res = simulate(&SimConfig::stellaris_scale(4096));
        assert_eq!(res.rows.len(), 3, "all rounds must complete at 4k slots");
        assert!(res.updates > 0);
        assert!(
            res.invocations >= 1000,
            "thousands of learner slots must actually be exercised: {}",
            res.invocations
        );
        assert!(!res.staleness_log.is_empty());
    }

    /// FNV-1a over the staleness samples, in order.
    fn log_checksum(log: &[u64]) -> u64 {
        log.iter().fold(0xcbf2_9ce4_8422_2325, |h, &d| {
            (h ^ d).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every preset's output, bit for bit: updates, invocations, the
    /// staleness log's length and checksum, and the bits of the virtual
    /// duration and the total cost.
    #[test]
    fn presets_are_pinned() {
        type Golden = (&'static str, SimConfig, u64, u64, usize, u64, u64, u64);
        let goldens: [Golden; 7] = [
            (
                "stellaris_paper_mujoco",
                SimConfig::stellaris_paper_mujoco(),
                142,
                2682,
                2623,
                0xaf11427e1b7e0bca,
                0x4033c9e2dddb64d1,
                0x3fa765106c40cde0,
            ),
            (
                "sync_serverful_paper_mujoco",
                SimConfig::sync_serverful_paper_mujoco(),
                800,
                6400,
                6400,
                0xee5189047f4d3e19,
                0x404d2911b6dcfd79,
                0x3fc6d7d62bcbffa9,
            ),
            (
                "stellaris_paper_atari",
                SimConfig::stellaris_paper_atari(),
                491,
                8471,
                8422,
                0xaacb786d09185eb,
                0x40603129c1f91309,
                0x3fd51d223c9813a6,
            ),
            (
                "stellaris_hpc_atari",
                SimConfig::stellaris_hpc_atari(),
                452,
                67993,
                67827,
                0x16055ad83e6d7a44,
                0x40603c47bd85797b,
                0x400435b285847d1a,
            ),
            (
                "parrl_hpc_atari",
                SimConfig::parrl_hpc_atari(),
                3000,
                192000,
                192000,
                0x7ce1401362e40af7,
                0x407ba6923545e8ba,
                0x4024e1bca6637d60,
            ),
            (
                "test_small",
                SimConfig::test_small(),
                3,
                8,
                5,
                0x44c509d0cef90fe7,
                0x3f96bb98c7e28241,
                0x3ed26e8ef649eb28,
            ),
            (
                "stellaris_scale(64)",
                SimConfig::stellaris_scale(64),
                1,
                96,
                1,
                0xaf63bd4c8601b7df,
                0x3f96bb98c7e28241,
                0x3ee60cede053f962,
            ),
        ];
        for (name, cfg, updates, invocations, len, log, time, cost) in goldens {
            let r = simulate(&cfg);
            assert_eq!(r.updates, updates, "{name}: updates");
            assert_eq!(r.invocations, invocations, "{name}: invocations");
            assert_eq!(r.staleness_log.len(), len, "{name}: gradients aggregated");
            assert_eq!(log_checksum(&r.staleness_log), log, "{name}: staleness log");
            assert_eq!(r.virtual_time_s.to_bits(), time, "{name}: virtual time");
            assert_eq!(r.cost.total().to_bits(), cost, "{name}: cost");
        }
    }

    #[test]
    fn cold_starts_only_until_pool_warms() {
        // With flat timing, the first max_learners dispatches are cold; the
        // virtual duration must exceed pure exec by at least one cold start.
        let cfg = SimConfig::test_small();
        let res = simulate(&cfg);
        let min_exec = 64.0 * 10.0 / 1e6; // one minibatch
        assert!(res.virtual_time_s > min_exec);
    }
}
