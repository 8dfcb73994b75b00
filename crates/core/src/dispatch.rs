//! The one dispatcher both venues run on: [`Slots`] is the cycle's actor
//! half and its learner half alike, over slots that each hold a [`Link`]
//! to a function — in process (`local`) or over a socket (`remote`).
//!
//! The paper's §V-B treats shared memory and RPC as two tiers of one data
//! path, so the path is written once. The dispatcher deals a wave's calls
//! round-robin over its slots, draws each call's faults on the calling
//! thread in call order before any slot starts, runs each slot's share on
//! that slot's [`Host`], hands every result back on the calling thread as
//! it lands, joins every host (re-raising a panic), and reports the lowest
//! slot's typed error only after everything that landed was handed over.
//! A link is what one call *is*: a function body behind the serverless
//! platform, or a worker process behind a framed socket.
//!
//! The per-venue constants are constructor values set by the two callers,
//! `orchestrator::train` and `RemoteFleet::run`: how many calls a dispatch
//! deals (the lock-step wave width, or a round's collects), whether slots
//! are lock-step, and which fault classes a link can apply.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, Scope, ScopedJoinHandle};
use std::time::Instant;

use parking_lot::Mutex;
use stellaris_rl::{PolicySnapshot, SampleBatch};
use stellaris_serverless::{FaultPlan, Faults, FunctionKind, Platform};
use stellaris_telemetry::{self as telemetry, SpanGuard};

use crate::autoscale::LearnerAutoscaler;
use crate::cycle::{Actors, Learners, Published};
use crate::messages::GradientMsg;

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

/// The function instance behind one slot, holding that slot's link.
///
/// The in-process asynchronous schedule keeps every body [`Resident`]. A
/// thread per invocation paid for its memory again every round: on
/// `invaders_cnn_async` five times the page faults, and 0.72x the
/// env-steps/s. Lock-step, in process and over sockets, runs each
/// invocation *per call*, on a fresh thread that exits with it: its collect
/// and learn phases never overlap, so they reuse each other's memory, where
/// resident threads kept both (`hopper_mlp_sync` peak RSS 24 against
/// 32-37 MiB).
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

    /// Runs `visit` on the body between calls: on the host's own thread
    /// for a resident host, on this one for a per-call host.
    fn visit(&self, visit: impl FnOnce(&mut B) + Send + 's) {
        match self {
            Host::Resident(host) => {
                host.invoke(visit).joined();
            }
            Host::PerCall(body) => visit(&mut body.lock()),
        }
    }
}

/// One slot's link to its function: what one call *is* in its venue.
pub(crate) trait Link: Send {
    /// What one call takes: a learner's published policy and mini-batch,
    /// or an actor's policy.
    type Job: Send + 'static;
    /// What one call gives back: a gradient, or a batch.
    type Out: Send + 'static;
    /// What fails the round.
    type Error: Send + 'static;

    /// Opens the span a wave of `calls` nests under, on the dispatching
    /// thread (none in process, where a call's spans are its host's own).
    fn wave_span(_wave: usize, _calls: usize) -> Option<SpanGuard> {
        None
    }

    /// Call `i` of a wave, on slot `l`, with the faults drawn for it;
    /// `wave` is the id of the wave's span (0 without one). `None` when the
    /// call's retries ran out and its result is lost.
    fn call(
        &mut self,
        job: Self::Job,
        i: usize,
        l: usize,
        faults: Faults,
        wave: u64,
    ) -> Result<Option<Self::Out>, Self::Error>;
}

/// A learner call: the policy the learner reads when it starts, and its
/// mini-batch.
pub(crate) type Minibatch = (Published, SampleBatch);

/// Draws one call's faults: the classes a link can apply.
pub(crate) type Draw = fn(&FaultPlan) -> Faults;

/// A link that can apply no fault draws none.
pub(crate) fn no_faults(_plan: &FaultPlan) -> Faults {
    Faults::default()
}

/// One half of a fleet in either venue: one [`Host`] per slot, each
/// holding its link. Its links' jobs make it the learner half
/// ([`Minibatch`] in, gradients out) or the actor half (a policy in,
/// batches out).
pub(crate) struct Slots<'s, K> {
    hosts: Vec<Host<'s, K>>,
    platform: &'s Platform,
    draw: Draw,
    /// Lock-step: per-call hosts, and each learner call billed its hold
    /// until its wave's last one lands.
    lockstep: bool,
    /// The calls one dispatch deals: a lock-step wave's mini-batches
    /// (`None`: the whole round) or a round's collects.
    width: Option<usize>,
    /// Learners size each wave's pool with a [`LearnerAutoscaler`], and
    /// actors rescale on the reward; otherwise every slot takes calls.
    dynamic: bool,
    /// Actor slots that collect.
    active: usize,
    last_reward: f32,
    /// Waves dealt so far.
    waves: usize,
}

impl<'s, K: Link + 's> Slots<'s, K> {
    /// One slot per link, resident unless `lockstep`, dealing `width`
    /// calls at a time and drawing each call's faults with `draw` from
    /// `platform`'s plan.
    pub(crate) fn new(
        scope: &'s Scope<'s, '_>,
        platform: &'s Platform,
        links: Vec<K>,
        lockstep: bool,
        width: Option<usize>,
        draw: Draw,
        dynamic: bool,
    ) -> Self {
        let n = links.len();
        Self {
            hosts: links
                .into_iter()
                .map(|link| Host::new(scope, !lockstep, link))
                .collect(),
            platform,
            draw,
            lockstep,
            width,
            dynamic,
            active: if dynamic { (n / 2).max(1) } else { n },
            last_reward: f32::NEG_INFINITY,
            waves: 0,
        }
    }

    /// Runs `visit` on every slot's link between dispatches.
    pub(crate) fn visit(&self, visit: impl Fn(&mut K) + Copy + Send + 's) {
        for host in &self.hosts {
            host.visit(visit);
        }
    }

    /// Deals `jobs` round-robin over the first `slots` slots, with one
    /// fault draw per call in call order before any slot starts, and hands
    /// each result over on this thread, with its index, as it lands. Every
    /// slot is joined before this returns, in slot order, and a panic
    /// re-raised. Returns when each landed call finished, and the lowest
    /// slot's error.
    fn deal(
        &mut self,
        jobs: Vec<K::Job>,
        slots: usize,
        arrived: &mut dyn FnMut(usize, K::Out),
    ) -> (Vec<Instant>, Option<K::Error>) {
        let slots = slots.min(self.hosts.len());
        let plan = self.platform.faults();
        let calls = jobs.len();
        let mut shares: Vec<Vec<_>> = (0..slots).map(|_| Vec::new()).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            shares[i % slots].push((i, job, (self.draw)(plan)));
        }
        let span = K::wave_span(self.waves, calls);
        self.waves += 1;
        let wave = span.as_ref().map_or(0, SpanGuard::id);
        thread::scope(|s| {
            let (tx, landed) = mpsc::channel();
            let pending: Vec<_> = self
                .hosts
                .iter()
                .zip(shares)
                .enumerate()
                .filter(|(_, (_, share))| !share.is_empty())
                .map(|(l, (host, share))| {
                    let tx = tx.clone();
                    host.invoke(s, move |link: &mut K| {
                        for (i, job, faults) in share {
                            let Some(out) = link.call(job, i, l, faults, wave)? else {
                                continue;
                            };
                            if tx.send((i, out, Instant::now())).is_err() {
                                break;
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            drop(tx);
            let mut finishes = Vec::new();
            for (i, out, finish) in landed {
                finishes.push(finish);
                arrived(i, out);
            }
            // A share whose host was gone has simply never arrived.
            let outs: Vec<_> = pending.into_iter().map(Pending::joined).collect();
            (finishes, outs.into_iter().flatten().find_map(Result::err))
        })
    }
}

impl<K> Slots<'_, K> {
    /// MinionsRL's dynamic actor scaling, after a round judged at
    /// `reward`: two more actor slots when the reward improved, one fewer
    /// otherwise, within `[1, slots]`.
    pub(crate) fn rescale(&mut self, reward: f32) {
        if self.dynamic {
            self.active = if reward > self.last_reward {
                (self.active + 2).min(self.hosts.len())
            } else {
                self.active.saturating_sub(1).max(1)
            };
        }
        self.last_reward = reward;
    }
}

impl<'s, K: Link<Job = Minibatch, Out = GradientMsg> + 's> Learners for Slots<'s, K> {
    type Error = K::Error;

    fn wave_width(&self, minibatches: usize) -> usize {
        self.width.unwrap_or(minibatches)
    }

    /// Deals `wave` over the slots the autoscaler sizes for it. Lock-step
    /// waves are billed their synchronous hold: a learner function keeps
    /// its slot (and its bill running) until the wave's straggler
    /// finishes, the economic cost of synchrony the paper's Fig. 2(b)/8
    /// expose.
    fn gradients(
        &mut self,
        policy: &Published,
        wave: Vec<SampleBatch>,
        arrived: &mut dyn FnMut(usize, GradientMsg),
    ) -> Result<(), K::Error> {
        let n = self.hosts.len();
        let slots = if self.dynamic {
            LearnerAutoscaler::new(1, n).decide(wave.len())
        } else {
            n
        };
        let jobs = wave.into_iter().map(|mb| (policy.clone(), mb)).collect();
        let (finishes, failed) = self.deal(jobs, slots, arrived);
        if let Some(wave_end) = finishes.iter().max().filter(|_| self.lockstep) {
            for finish in &finishes {
                self.platform
                    .bill_hold(FunctionKind::Learner, *wave_end - *finish);
            }
        }
        failed.map_or(Ok(()), Err)
    }
}

impl<'s, K: Link<Job = Arc<PolicySnapshot>, Out = SampleBatch> + 's> Actors for Slots<'s, K> {
    type Error = K::Error;

    /// Deals the round's collects over the active slots, each under `snap`.
    fn collect(
        &mut self,
        snap: &Arc<PolicySnapshot>,
    ) -> Result<Vec<Option<SampleBatch>>, K::Error> {
        let collects = self.width.unwrap_or(1);
        let mut batches: Vec<_> = (0..collects).map(|_| None).collect();
        let jobs = (0..collects).map(|_| Arc::clone(snap)).collect();
        let (_, failed) = self.deal(jobs, self.active, &mut |i, batch| batches[i] = Some(batch));
        failed.map_or(Ok(batches), Err)
    }
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
