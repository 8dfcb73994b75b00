//! The in-process venue of the cycle: the substrates a training run shares
//! (`Run`: serverless platform, timers, parameter function, Eq. 2's ratio
//! board) and the two halves `LocalActors` and `LocalLearners`, whose
//! functions run on threads beside them — the twins of `remote`'s
//! `ProcessActor` and `ProcessLearners`, whose functions are child
//! processes.
//!
//! Data moves the way §V-B moves it between functions on one server, over
//! shared memory: actor functions collect under the policy the cycle hands
//! them (Step ①), and learner functions differentiate against the cycle's
//! published policy — asynchronous ones with Eq. 2's global IS-truncation
//! cap, under SSP behind a dispatch throttle — and hand each gradient to
//! the aggregator by value (Step ②). Every function is invoked through the
//! serverless platform: fault injection, retry, billing.
//!
//! Each function body sits in a `Host`: resident on a thread of its own
//! for the asynchronous schedule, lent to a fresh thread per call for the
//! lock-step one. A call on either half hands its work to the hosts and
//! returns once all of it has come back, so a round's work still ends with
//! the round, and a panic raised on a host is re-raised on the caller.

use std::convert::Infallible;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, Scope, ScopedJoinHandle};
use std::time::Instant;

use parking_lot::Mutex;
use stellaris_rl::{PolicySnapshot, SampleBatch};
use stellaris_serverless::{FaultPlan, FunctionKind, OverheadMode, Platform, StartupProfile};
use stellaris_telemetry as telemetry;

use crate::aggregation::SspThrottle;
use crate::autoscale::LearnerAutoscaler;
use crate::config::{Deployment, LearnerMode, TrainConfig};
use crate::cycle::{ActorBody, Actors, LearnerBody, Learners, Published};
use crate::messages::GradientMsg;
use crate::metrics::{Component, Timers};
use crate::orchestrator::parameter_plane;
use crate::parameter::ShardedParameterServer;
use crate::truncation::RatioBoard;

/// The substrates both schedules run on in process.
pub(crate) struct Run<'a> {
    pub(crate) cfg: &'a TrainConfig,
    pub(crate) start: Instant,
    pub(crate) platform: Platform,
    pub(crate) timers: Timers,
    pub(crate) server: ShardedParameterServer,
    /// Eq. 2's global view for asynchronous learners; disabled for
    /// lock-step waves, whose members all differentiate one snapshot.
    board: RatioBoard,
    throttle: Option<SspThrottle>,
}

impl<'a> Run<'a> {
    /// Whether this run's learners are asynchronous.
    pub(crate) fn asynchronous(&self) -> bool {
        matches!(self.cfg.learner_mode, LearnerMode::Async { .. })
    }

    /// Builds the substrates with `learner_slots` prewarmed learner
    /// functions.
    pub(crate) fn start(cfg: &'a TrainConfig, learner_slots: usize) -> Self {
        let start = Instant::now();
        let platform = Platform::new(
            learner_slots,
            cfg.n_actors,
            StartupProfile::default(),
            OverheadMode::Record,
        )
        .with_faults(Arc::new(FaultPlan::new(cfg.faults.clone())));
        platform.prewarm(FunctionKind::Learner, learner_slots);
        platform.prewarm(FunctionKind::Actor, cfg.n_actors);
        let asynchronous = matches!(cfg.learner_mode, LearnerMode::Async { .. });
        Self {
            cfg,
            start,
            platform,
            timers: Timers::default(),
            server: parameter_plane(cfg),
            board: match cfg.truncation_rho {
                Some(rho) if asynchronous => RatioBoard::new(rho),
                _ => RatioBoard::disabled(),
            },
            throttle: cfg.learner_mode.rule().ssp_bound().map(SspThrottle::new),
        }
    }
}

/// A boxed invocation of a body.
type Invocation<'s, B> = Box<dyn FnOnce(&mut B) + Send + 's>;

/// An invocation on its way: its result to come, and for a per-call host
/// the thread running it.
pub(crate) struct Pending<'a, R> {
    result: Receiver<thread::Result<R>>,
    thread: Option<ScopedJoinHandle<'a, ()>>,
}

impl<R> Pending<'_, R> {
    /// Waits for the invocation: its result, `None` if its host was gone,
    /// or the panic it raised, re-raised on this thread. A per-call
    /// thread is joined first, so its thread-local memory is freed before
    /// the caller moves on.
    pub(crate) fn joined(self) -> Option<R> {
        let out = self.result.recv();
        if let Some(thread) = self.thread {
            // The invocation caught its own panic; the thread cannot fail.
            let _exited = thread.join();
        }
        match out {
            Ok(Ok(out)) => Some(out),
            Ok(Err(payload)) => panic::resume_unwind(payload),
            Err(_) => None,
        }
    }
}

/// `work` as an invocation that reports its result, or the panic it
/// raised, once it has run.
fn reporting<'s, B, R: Send + 's>(
    work: impl FnOnce(&mut B) -> R + Send + 's,
) -> (impl FnOnce(&mut B) + Send + 's, Receiver<thread::Result<R>>) {
    let (done, result) = mpsc::sync_channel(1);
    let invocation = move |body: &mut B| {
        let out = panic::catch_unwind(AssertUnwindSafe(|| work(body)));
        // The spans must be in the sink before the caller reads the trace,
        // not whenever the thread's locals are torn down.
        telemetry::flush_thread();
        // The caller stops waiting only when it is unwinding itself.
        let _unwatched = done.send(out);
    };
    (invocation, result)
}

/// A resident function instance: one thread owns the body for the whole
/// run and runs the invocations handed to it, so what that thread keeps —
/// its allocator arena, the autodiff and packing scratch — stays warm
/// between invocations, as a warm container's memory does.
pub(crate) struct Resident<'s, B> {
    invocations: Sender<Invocation<'s, B>>,
}

impl<'s, B: Send + 's> Resident<'s, B> {
    /// Starts the host thread on the run's `scope`; it ends once the host
    /// is dropped.
    pub(crate) fn spawn(scope: &'s Scope<'s, '_>, mut body: B) -> Self {
        let (invocations, pending) = mpsc::channel::<Invocation<'s, B>>();
        scope.spawn(move || {
            for invocation in pending {
                invocation(&mut body);
            }
        });
        Self { invocations }
    }

    /// Hands `work` to the host thread.
    pub(crate) fn invoke<R: Send + 's>(
        &self,
        work: impl FnOnce(&mut B) -> R + Send + 's,
    ) -> Pending<'static, R> {
        let (invocation, result) = reporting(work);
        // A host that is gone drops the invocation, and with it the
        // reporter: `joined` then reports the work as lost.
        let _gone = self.invocations.send(Box::new(invocation));
        Pending {
            result,
            thread: None,
        }
    }
}

/// A function instance of [`LocalActors`] or [`LocalLearners`].
///
/// The asynchronous schedule keeps every body [`Resident`]. A thread per
/// invocation paid for its memory again every round: on
/// `invaders_cnn_async` five times the page faults, and 0.72x the
/// env-steps/s. Lock-step runs each invocation *per call*, on a fresh
/// thread that exits with it: its collect and learn phases never overlap,
/// so they reuse each other's memory, where resident threads kept both
/// (`hopper_mlp_sync` peak RSS 26 against 32 MiB).
pub(crate) enum Host<'s, B> {
    Resident(Resident<'s, B>),
    /// The body, lent to a fresh thread per invocation.
    PerCall(Mutex<B>),
}

impl<'s, B: Send + 's> Host<'s, B> {
    /// A resident host on the run's `scope`, or a per-call one.
    pub(crate) fn new(scope: &'s Scope<'s, '_>, resident: bool, body: B) -> Self {
        if resident {
            Host::Resident(Resident::spawn(scope, body))
        } else {
            Host::PerCall(Mutex::new(body))
        }
    }

    /// Hands `work` to the host; a per-call host runs it on a thread of
    /// `scope`.
    pub(crate) fn invoke<'a, R: Send + 's>(
        &'a self,
        scope: &'a Scope<'a, '_>,
        work: impl FnOnce(&mut B) -> R + Send + 's,
    ) -> Pending<'a, R> {
        match self {
            Host::Resident(host) => host.invoke(work),
            Host::PerCall(body) => {
                let (invocation, result) = reporting(work);
                let call = move || {
                    let mut body = body.lock();
                    invocation(&mut body);
                };
                let thread = scope.spawn(call);
                Pending {
                    result,
                    thread: Some(thread),
                }
            }
        }
    }
}

/// The in-process actor half of both schedules: one host per actor slot.
pub(crate) struct LocalActors<'s> {
    run: &'s Run<'s>,
    hosts: Vec<Host<'s, ActorBody>>,
    /// Slots that collect: all of them, unless `dynamic_actors` rescales.
    active: usize,
    last_reward: f32,
}

impl<'s> LocalActors<'s> {
    pub(crate) fn new(scope: &'s Scope<'s, '_>, run: &'s Run<'s>) -> Self {
        let cfg = run.cfg;
        Self {
            run,
            hosts: (0..cfg.n_actors)
                .map(|a| Host::new(scope, run.asynchronous(), ActorBody::new(cfg, a)))
                .collect(),
            active: if cfg.dynamic_actors {
                (cfg.n_actors / 2).max(1)
            } else {
                cfg.n_actors
            },
            last_reward: f32::NEG_INFINITY,
        }
    }

    /// MinionsRL's dynamic actor scaling, after a round judged at
    /// `reward`: two more actor slots when the reward improved, one fewer
    /// otherwise, within `[1, n_actors]`.
    pub(crate) fn rescale(&mut self, reward: f32) {
        if self.run.cfg.dynamic_actors {
            self.active = if reward > self.last_reward {
                (self.active + 2).min(self.hosts.len())
            } else {
                self.active.saturating_sub(1).max(1)
            };
        }
        self.last_reward = reward;
    }
}

impl Actors for LocalActors<'_> {
    type Error = Infallible;

    /// Deals the round's data budget — `round_timesteps / actor_steps`
    /// collects, at least one — round-robin over the active slots, in
    /// waves that each share `snap` with their slots.
    fn collect(
        &mut self,
        snap: &Arc<PolicySnapshot>,
    ) -> Result<Vec<Option<SampleBatch>>, Infallible> {
        let run = self.run;
        let collects = (run.cfg.round_timesteps / run.cfg.actor_steps).max(1);
        let active = &self.hosts[..self.active];
        let mut batches = Vec::with_capacity(collects);
        while batches.len() < collects {
            let wave = active.len().min(collects - batches.len());
            thread::scope(|s| {
                let pending: Vec<_> = active[..wave]
                    .iter()
                    .map(|host| {
                        let snap = Arc::clone(snap);
                        host.invoke(s, move |actor| invoke_collect(run, actor, &snap))
                    })
                    .collect();
                batches.extend(pending.into_iter().map(|p| p.joined().flatten()));
            });
        }
        Ok(batches)
    }
}

/// The in-process learner half of both schedules: one host per learner
/// slot.
pub(crate) struct LocalLearners<'s> {
    run: &'s Run<'s>,
    hosts: Vec<Host<'s, LearnerBody>>,
    /// Sizes each call's pool: pinned at every slot unless
    /// `dynamic_learners`.
    autoscaler: LearnerAutoscaler,
}

impl<'s> LocalLearners<'s> {
    pub(crate) fn new(scope: &'s Scope<'s, '_>, run: &'s Run<'s>, n_learners: usize) -> Self {
        let cfg = run.cfg;
        Self {
            run,
            hosts: (0..n_learners)
                .map(|_| Host::new(scope, run.asynchronous(), LearnerBody::new(cfg)))
                .collect(),
            autoscaler: if cfg.dynamic_learners {
                LearnerAutoscaler::new(1, n_learners)
            } else {
                LearnerAutoscaler::pinned(n_learners)
            },
        }
    }
}

impl Learners for LocalLearners<'_> {
    type Error = Infallible;

    fn wave_width(&self, _minibatches: usize) -> usize {
        self.hosts.len()
    }

    /// Deals `wave` round-robin over the slots the autoscaler sizes for it
    /// and hands each gradient over on this thread as it arrives. Lock-step
    /// waves are billed their synchronous hold: a learner function keeps
    /// its slot (and its bill running) until the wave's straggler finishes,
    /// the economic cost of synchrony the paper's Fig. 2(b)/8 expose.
    fn gradients(
        &mut self,
        policy: &Published,
        wave: Vec<SampleBatch>,
        arrived: &mut dyn FnMut(usize, GradientMsg),
    ) -> Result<(), Infallible> {
        let run = self.run;
        let slots = self.autoscaler.decide(wave.len()).min(self.hosts.len());
        let mut shares: Vec<Vec<(usize, SampleBatch)>> = (0..slots).map(|_| Vec::new()).collect();
        for (i, mb) in wave.into_iter().enumerate() {
            shares[i % slots].push((i, mb));
        }
        let finishes = thread::scope(|s| {
            let (tx, landed) = mpsc::channel();
            let pending: Vec<_> = self
                .hosts
                .iter()
                .zip(shares)
                .enumerate()
                .filter(|(_, (_, share))| !share.is_empty())
                .map(|(l, (host, share))| {
                    let (tx, policy) = (tx.clone(), policy.clone());
                    host.invoke(s, move |learner| {
                        for (i, mb) in share {
                            let out = invoke_gradient(run, learner, &policy, &mb, l);
                            if tx.send((i, out)).is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut finishes = Vec::new();
            for (i, out) in landed {
                if let Some((finish, msg)) = out {
                    finishes.push(finish);
                    arrived(i, msg);
                }
            }
            // Re-raise a learner's panic here; a share whose host was gone
            // has simply never arrived.
            for share in pending {
                share.joined();
            }
            finishes
        });
        if !run.asynchronous() {
            if let Some(wave_end) = finishes.iter().max() {
                for finish in &finishes {
                    run.platform
                        .bill_hold(FunctionKind::Learner, *wave_end - *finish);
                }
            }
        }
        Ok(())
    }
}

/// Step ① for one actor slot: pull `snap` and collect through the
/// platform's fault/retry/billing path (serverful actors bypass it).
/// `None` once the retry budget is spent.
fn invoke_collect(run: &Run, actor: &mut ActorBody, snap: &PolicySnapshot) -> Option<SampleBatch> {
    let cfg = run.cfg;
    let mut collect = || {
        let _t = run.timers.span(Component::ActorSampling);
        actor.collect(snap, cfg.actor_steps)
    };
    if cfg.deployment == Deployment::Serverful {
        return Some(collect());
    }
    run.platform
        .invoke_retry(
            FunctionKind::Actor,
            &cfg.retry,
            cfg.invoke_deadline,
            &mut collect,
        )
        .ok()
        .map(|(batch, _rec)| batch)
}

/// Step ② for one mini-batch on learner slot `l`. The invocation reads
/// the published policy when it starts — a retry re-reads it, so a
/// straggler's re-execution carries a fresher `base_version`, whose
/// residual staleness is what the Eq. 3 threshold and Eq. 4 weight absorb.
/// Returns when the invocation finished and the gradient it computed, to
/// be handed to the aggregator as it is; `None` once its retries are spent.
fn invoke_gradient(
    run: &Run,
    learner: &mut LearnerBody,
    policy: &Published,
    mb: &SampleBatch,
    l: usize,
) -> Option<(Instant, GradientMsg)> {
    let (cfg, board, throttle) = (run.cfg, &run.board, run.throttle.as_ref());
    let token = throttle.map(|t| t.begin(policy.get().version));
    let mut compute = || {
        let _t = run.timers.span(Component::Gradient);
        let msg = learner.gradient(&policy.get(), mb, board.cap(), l);
        board.publish(l, msg.is_ratio);
        msg
    };
    let out = run.platform.invoke_retry(
        FunctionKind::Learner,
        &cfg.retry,
        cfg.invoke_deadline,
        &mut compute,
    );
    if let (Some(th), Some(t)) = (throttle, token) {
        th.end(t);
    }
    out.ok().map(|(msg, _rec)| (Instant::now(), msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic on a host comes back to the caller through the invocation,
    /// and the host lives on for the next one, resident or per call.
    #[test]
    fn host_panics_surface_on_the_caller() {
        thread::scope(|run| {
            for resident in [true, false] {
                let host = Host::new(run, resident, 0u32);
                let failed = panic::catch_unwind(AssertUnwindSafe(|| {
                    thread::scope(|s| host.invoke(s, |_| panic!("host died")).joined())
                }));
                assert!(failed.is_err(), "the panic is re-raised on the caller");
                let bumped = thread::scope(|s| {
                    host.invoke(s, |n: &mut u32| {
                        *n += 1;
                        *n
                    })
                    .joined()
                });
                assert_eq!(bumped, Some(1), "the body survives");
            }
        });
    }
}
