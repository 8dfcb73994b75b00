//! Cross-process training workers: the wire data types, the child-side
//! serve loop, and the parent-side fleet — [`RemoteFleet::run`] is the
//! shared lock-step cycle ([`crate::cycle::lockstep_round`]) over the one
//! dispatcher (`dispatch::Slots`), whose socket links (`ProcessActor`,
//! `ProcessLearner`) reach functions that are child processes.
//!
//! Everything in this module rides the length-prefixed frame protocol of
//! [`stellaris_cache::frame`]: the parent spawns worker processes through
//! [`stellaris_serverless::ProcessPool`] (cold starts are *measured*
//! spawn→HELLO latency), drives a training round over the socket, and
//! injects the PR 4 chaos classes against *real* process lifecycles —
//! a crash is a child calling `exit()` halfway through its reply, a
//! dropped frame is a killed peer, corruption is a syntactically intact
//! frame whose payload no longer decodes. Every failure surfaces as a
//! typed [`RemoteError`] and is recovered by the configured retry policy.
//!
//! Policy state on a worker is addressed by version: the actor is sent a
//! policy once per clock move (`LOAD_POLICY`), and a learner's first call
//! at a new version carries the snapshot (`GRADIENT`, which the worker
//! keeps) while every later one names the version only (`GRADIENT_AT`;
//! `ERR stale-base` in-band if the worker does not hold it). A wave's
//! mini-batches are dealt over one slot per learner process, each slot's
//! share on a thread of its own; chaos is drawn before the slots start and
//! gradients are offered in mini-batch order, so concurrency never reaches
//! the weights.
//!
//! Span stitching: each request frame carries the parent-side span ID in
//! its trace-ID header field; the worker opens its handler spans with
//! [`stellaris_telemetry::span_with_parent`] under a disjoint per-worker
//! span-ID base, and `PULL_SPANS` ships the child's events back as the
//! trace's own JSONL ([`stellaris_telemetry::write_jsonl`], read back with
//! [`stellaris_telemetry::read_jsonl`], fields typed) for
//! [`stellaris_telemetry::ingest_events`] so one merged trace covers both
//! sides of the socket.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use parking_lot::Mutex;
use stellaris_cache::frame::{op, Frame, FrameReader, WireError};
use stellaris_cache::{Codec, CodecError};
use stellaris_envs::{EnvConfig, EnvId};
use stellaris_rl::{ImpactConfig, PolicySnapshot, PpoConfig, SampleBatch};
use stellaris_serverless::{
    FaultPlan, FaultReport, Faults, FunctionKind, OverheadMode, Platform, ProcessConfig,
    ProcessPool, SpawnError, StartupProfile, WorkerProcess,
};
use stellaris_telemetry::{self as telemetry, Event, SpanGuard};

use crate::config::{Algo, TrainConfig};
use crate::cycle::{lockstep_round, ActorBody, CycleTotals, LearnerBody};
use crate::dispatch::{no_faults, Link, Minibatch, Slots};
use crate::messages::GradientMsg;
use crate::metrics::Timers;
use crate::orchestrator::{learner_invocations, parameter_plane};

// ---------------------------------------------------------------------------
// Wire data types
// ---------------------------------------------------------------------------

/// Everything a worker process needs to build its environment, policy and
/// rollout state (the payload of an `INIT` frame).
///
/// The algorithm travels as a family tag; workers use the laptop-scale
/// hyperparameter presets, which is exactly what the test-scale fleet
/// configurations run on the parent side too.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteSetup {
    /// Environment display name (parsed via [`EnvId::parse`]).
    pub env: String,
    /// Rendered frame side length ([`EnvConfig::frame_size`]).
    pub frame_size: usize,
    /// Episode cap ([`EnvConfig::max_steps`]).
    pub max_steps: usize,
    /// Policy hidden width.
    pub hidden: usize,
    /// Master seed (rollout streams derive from it like the orchestrator's
    /// actor threads do).
    pub seed: u64,
    /// Algorithm family tag: 0 = PPO, 1 = IMPACT.
    pub algo: u8,
    /// Timesteps per collect request.
    pub actor_steps: usize,
}

/// `RemoteSetup::algo` tag for PPO.
pub const ALGO_PPO: u8 = 0;
/// `RemoteSetup::algo` tag for IMPACT.
pub const ALGO_IMPACT: u8 = 1;

impl RemoteSetup {
    /// Projects a training config onto the wire setup.
    pub fn from_train(cfg: &TrainConfig) -> Self {
        Self {
            env: cfg.env_id.name().to_string(),
            frame_size: cfg.env_cfg.frame_size,
            max_steps: cfg.env_cfg.max_steps,
            hidden: cfg.hidden,
            seed: cfg.seed,
            algo: match cfg.algo {
                Algo::Ppo(_) => ALGO_PPO,
                Algo::Impact(_) => ALGO_IMPACT,
            },
            actor_steps: cfg.actor_steps,
        }
    }

    /// Reconstructs the algorithm (scaled presets) from the family tag.
    pub fn algo_config(&self) -> Result<Algo, CodecError> {
        match self.algo {
            ALGO_PPO => Ok(Algo::Ppo(PpoConfig::scaled())),
            ALGO_IMPACT => Ok(Algo::Impact(ImpactConfig::scaled())),
            _ => Err(CodecError::Corrupt("algo tag")),
        }
    }

    /// The worker-side view of the job: the scaled preset with every field
    /// this setup carries laid over it (function bodies read nothing else).
    /// An unknown environment or algorithm tag, or a zero `actor_steps`
    /// (what `COLLECT 0` collects), is the `INIT` rejection text.
    pub fn train_config(&self) -> Result<TrainConfig, String> {
        let Some(env_id) = EnvId::parse(&self.env) else {
            return Err(format!("unknown env: {}", self.env));
        };
        if self.actor_steps == 0 {
            return Err("bad setup: actor_steps must be positive".to_string());
        }
        Ok(TrainConfig {
            env_cfg: EnvConfig {
                frame_size: self.frame_size,
                max_steps: self.max_steps,
            },
            hidden: self.hidden,
            algo: self.algo_config().map_err(|e| format!("bad setup: {e}"))?,
            actor_steps: self.actor_steps,
            ..TrainConfig::stellaris_scaled(env_id, self.seed)
        })
    }
}

impl Codec for RemoteSetup {
    fn encode(&self, buf: &mut BytesMut) {
        self.env.encode(buf);
        self.frame_size.encode(buf);
        self.max_steps.encode(buf);
        self.hidden.encode(buf);
        self.seed.encode(buf);
        self.algo.encode(buf);
        self.actor_steps.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self {
            env: String::decode(buf)?,
            frame_size: usize::decode(buf)?,
            max_steps: usize::decode(buf)?,
            hidden: usize::decode(buf)?,
            seed: u64::decode(buf)?,
            algo: u8::decode(buf)?,
            actor_steps: usize::decode(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.env.encoded_len()
            + self.frame_size.encoded_len()
            + self.max_steps.encoded_len()
            + self.hidden.encoded_len()
            + self.seed.encoded_len()
            + self.algo.encoded_len()
            + self.actor_steps.encoded_len()
    }
}

/// One self-contained learner-function invocation (the payload of a
/// `GRADIENT` frame): the snapshot to differentiate against, the
/// mini-batch, and the global IS-truncation cap (`None` travels as a NaN
/// sentinel — NaN is never a valid cap). The worker keeps the snapshot, so
/// later calls at the same version can travel as a [`GradientCall`].
#[derive(Clone, Debug, PartialEq)]
pub struct GradientRequest {
    /// Policy snapshot the gradient is computed against.
    pub snap: PolicySnapshot,
    /// GAE-processed mini-batch.
    pub batch: SampleBatch,
    /// Global IS-truncation cap (Eq. 2's ρ view), if enabled.
    pub cap: Option<f32>,
    /// Learner slot identity (flows into `GradientMsg::learner_id`).
    pub learner_id: usize,
}

impl Codec for GradientRequest {
    fn encode(&self, buf: &mut BytesMut) {
        self.snap.encode(buf);
        encode_call_tail(&self.batch, self.cap, self.learner_id, buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let snap = PolicySnapshot::decode(buf)?;
        let (batch, cap, learner_id) = decode_call_tail(buf)?;
        Ok(Self {
            snap,
            batch,
            cap,
            learner_id,
        })
    }

    fn encoded_len(&self) -> usize {
        self.snap.encoded_len() + call_tail_len(&self.batch, self.learner_id)
    }
}

/// A learner-function invocation against a policy the worker already holds
/// (the payload of a `GRADIENT_AT` frame): a [`GradientRequest`] with the
/// snapshot replaced by its version.
#[derive(Clone, Debug, PartialEq)]
pub struct GradientCall {
    /// Version of the snapshot the gradient is computed against.
    pub version: u64,
    /// GAE-processed mini-batch.
    pub batch: SampleBatch,
    /// Global IS-truncation cap (Eq. 2's ρ view), if enabled.
    pub cap: Option<f32>,
    /// Learner slot identity (flows into `GradientMsg::learner_id`).
    pub learner_id: usize,
}

impl GradientCall {
    /// The opcode and payload this call travels as: with a snapshot to
    /// `push`, the self-contained `GRADIENT` frame ([`GradientRequest`]'s
    /// layout, written without cloning the snapshot); without one, the slim
    /// `GRADIENT_AT` frame.
    fn frame(&self, push: Option<&PolicySnapshot>) -> (u8, bytes::Bytes) {
        let Some(snap) = push else {
            return (op::GRADIENT_AT, self.to_bytes());
        };
        let tail = call_tail_len(&self.batch, self.learner_id);
        let mut buf = BytesMut::with_capacity(snap.encoded_len() + tail);
        snap.encode(&mut buf);
        encode_call_tail(&self.batch, self.cap, self.learner_id, &mut buf);
        (op::GRADIENT, buf.freeze())
    }
}

impl Codec for GradientCall {
    fn encode(&self, buf: &mut BytesMut) {
        self.version.encode(buf);
        encode_call_tail(&self.batch, self.cap, self.learner_id, buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let version = u64::decode(buf)?;
        let (batch, cap, learner_id) = decode_call_tail(buf)?;
        Ok(Self {
            version,
            batch,
            cap,
            learner_id,
        })
    }

    fn encoded_len(&self) -> usize {
        self.version.encoded_len() + call_tail_len(&self.batch, self.learner_id)
    }
}

/// What both learner frames carry after their policy address (snapshot or
/// version): mini-batch, cap (NaN = `None`), learner slot.
fn encode_call_tail(batch: &SampleBatch, cap: Option<f32>, learner_id: usize, buf: &mut BytesMut) {
    batch.encode(buf);
    cap.unwrap_or(f32::NAN).encode(buf);
    learner_id.encode(buf);
}

fn decode_call_tail(buf: &mut &[u8]) -> Result<(SampleBatch, Option<f32>, usize), CodecError> {
    let batch = SampleBatch::decode(buf)?;
    let raw_cap = f32::decode(buf)?;
    let learner_id = usize::decode(buf)?;
    Ok((batch, (!raw_cap.is_nan()).then_some(raw_cap), learner_id))
}

fn call_tail_len(batch: &SampleBatch, learner_id: usize) -> usize {
    batch.encoded_len() + f32::NAN.encoded_len() + learner_id.encoded_len()
}

// ---------------------------------------------------------------------------
// Child side: the worker serve loop
// ---------------------------------------------------------------------------

/// A worker process does not know which function it hosts until the first
/// request: the learner body is built at `INIT`, the actor body — the only
/// one that owns a rollout environment — on the first `COLLECT`.
struct WorkerState {
    cfg: TrainConfig,
    actor: Option<ActorBody>,
    learner: LearnerBody,
    snap: Option<PolicySnapshot>,
}

impl WorkerState {
    fn build(setup: &RemoteSetup) -> Result<Self, String> {
        let cfg = setup.train_config()?;
        let learner = LearnerBody::new(&cfg);
        Ok(Self {
            cfg,
            actor: None,
            learner,
            snap: None,
        })
    }

    /// Holds `snap` if it fits the INIT'd network, else says why not: a
    /// snapshot of another length would fail the policy load mid-work.
    fn hold(&mut self, snap: PolicySnapshot) -> Result<(), String> {
        let want = self.learner.num_scalars();
        if snap.flat.len() != want {
            return Err(format!(
                "snapshot holds {} scalars, the network {want}",
                snap.flat.len()
            ));
        }
        self.snap = Some(snap);
        Ok(())
    }
}

fn send_ok<S: Read + Write>(
    r: &mut FrameReader<S>,
    trace: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    let cap = r.max_frame();
    stellaris_cache::frame::write_frame(r.get_mut(), op::OK, trace, payload, cap)
}

fn send_ok_value<S: Read + Write, T: Codec>(
    r: &mut FrameReader<S>,
    trace: u64,
    value: &T,
) -> Result<(), WireError> {
    let cap = r.max_frame();
    stellaris_cache::frame::write_value_frame(r.get_mut(), op::OK, trace, value, cap)
}

fn send_err<S: Read + Write>(
    r: &mut FrameReader<S>,
    trace: u64,
    msg: String,
) -> Result<(), WireError> {
    let cap = r.max_frame();
    stellaris_cache::frame::write_value_frame(r.get_mut(), op::ERR, trace, &msg, cap)
}

/// The one gradient body behind both learner opcodes: differentiate against
/// the held snapshot if it is the version the call names, otherwise answer
/// `ERR stale-base` in-band (the stream stays in sync and the parent
/// re-sends a self-contained `GRADIENT`).
fn answer_gradient<S: Read + Write>(
    reader: &mut FrameReader<S>,
    trace: u64,
    state: &mut WorkerState,
    call: &GradientCall,
) -> Result<(), WireError> {
    let Some(snap) = state.snap.as_ref().filter(|s| s.version == call.version) else {
        let held = state.snap.as_ref().map(|s| s.version);
        let msg = format!(
            "stale-base: call names v{}, worker holds {held:?}",
            call.version
        );
        return send_err(reader, trace, msg);
    };
    let span = telemetry::span_with_parent(
        "remote.gradient",
        trace,
        vec![("learner", call.learner_id.into())],
    );
    let msg = state
        .learner
        .gradient(snap, &call.batch, call.cap, call.learner_id);
    drop(span);
    send_ok_value(reader, trace, &msg)
}

/// The worker-process main loop: HELLO, then serve request frames until
/// `SHUTDOWN`, the peer hangs up, or a `CRASH` frame terminates the
/// process mid-work.
///
/// Malformed payloads and protocol misuse are answered with an `ERR`
/// frame and the conversation continues — a frame that *parses* but does
/// not *decode* must never desynchronise the stream. Only transport-level
/// failures (EOF, I/O errors, frames over the cap) end the loop.
pub fn serve_worker<S: Read + Write>(
    stream: S,
    span_base: u64,
    max_frame: usize,
) -> Result<(), WireError> {
    telemetry::enable();
    telemetry::set_span_id_base(span_base);
    let mut reader = FrameReader::with_cap(stream, max_frame);
    let cap = reader.max_frame();
    stellaris_cache::frame::write_frame(reader.get_mut(), op::HELLO, span_base, &[], cap)?;
    let mut state: Option<WorkerState> = None;
    loop {
        let frame = reader.read_frame()?;
        let trace = frame.header.trace_id;
        match frame.header.kind {
            op::INIT => match frame.decode_value::<RemoteSetup>() {
                Ok(setup) => match WorkerState::build(&setup) {
                    Ok(s) => {
                        state = Some(s);
                        send_ok(&mut reader, trace, &[])?;
                    }
                    Err(msg) => send_err(&mut reader, trace, msg)?,
                },
                Err(e) => send_err(&mut reader, trace, format!("bad INIT: {e}"))?,
            },
            op::LOAD_POLICY => match (&mut state, frame.decode_value::<PolicySnapshot>()) {
                (Some(s), Ok(snap)) => match s.hold(snap) {
                    Ok(()) => send_ok(&mut reader, trace, &[])?,
                    Err(msg) => send_err(&mut reader, trace, format!("bad LOAD_POLICY: {msg}"))?,
                },
                (None, _) => send_err(&mut reader, trace, "not initialised".to_string())?,
                (_, Err(e)) => send_err(&mut reader, trace, format!("bad LOAD_POLICY: {e}"))?,
            },
            op::COLLECT => match (&mut state, frame.decode_value::<u64>()) {
                (Some(s), Ok(steps)) => {
                    let Some(snap) = &s.snap else {
                        send_err(&mut reader, trace, "no policy loaded".to_string())?;
                        continue;
                    };
                    let steps = match usize::try_from(steps) {
                        Ok(0) => s.cfg.actor_steps,
                        Ok(n) => n,
                        Err(_) => usize::MAX,
                    };
                    let span = telemetry::span_with_parent(
                        "remote.collect",
                        trace,
                        vec![("steps", steps.into())],
                    );
                    let actor = s.actor.get_or_insert_with(|| ActorBody::new(&s.cfg, 0));
                    // Refuse up front what the reply frame could not carry:
                    // collecting first would only fail the send, and end
                    // the conversation, after the work.
                    let bound = actor.batch_len_bound(steps as u64);
                    if bound > cap as u64 {
                        drop(span);
                        let msg = format!(
                            "COLLECT of {steps} steps may need {bound} B, over the {cap} B frame cap"
                        );
                        send_err(&mut reader, trace, msg)?;
                        continue;
                    }
                    let batch = actor.collect(snap, steps);
                    drop(span);
                    send_ok_value(&mut reader, trace, &batch)?;
                }
                (None, _) => send_err(&mut reader, trace, "not initialised".to_string())?,
                (_, Err(e)) => send_err(&mut reader, trace, format!("bad COLLECT: {e}"))?,
            },
            op::GRADIENT => match (&mut state, frame.decode_value::<GradientRequest>()) {
                (Some(s), Ok(req)) => {
                    let call = GradientCall {
                        version: req.snap.version,
                        batch: req.batch,
                        cap: req.cap,
                        learner_id: req.learner_id,
                    };
                    match s.hold(req.snap) {
                        Ok(()) => answer_gradient(&mut reader, trace, s, &call)?,
                        Err(msg) => send_err(&mut reader, trace, format!("bad GRADIENT: {msg}"))?,
                    }
                }
                (None, _) => send_err(&mut reader, trace, "not initialised".to_string())?,
                (_, Err(e)) => send_err(&mut reader, trace, format!("bad GRADIENT: {e}"))?,
            },
            op::GRADIENT_AT => match (&mut state, frame.decode_value::<GradientCall>()) {
                (Some(s), Ok(call)) => answer_gradient(&mut reader, trace, s, &call)?,
                (None, _) => send_err(&mut reader, trace, "not initialised".to_string())?,
                (_, Err(e)) => send_err(&mut reader, trace, format!("bad GRADIENT_AT: {e}"))?,
            },
            op::PULL_SPANS => {
                let mut jsonl = Vec::new();
                match telemetry::write_jsonl(&telemetry::drain(), &mut jsonl) {
                    Ok(()) => send_ok(&mut reader, trace, &jsonl)?,
                    Err(e) => send_err(&mut reader, trace, format!("PULL_SPANS: {e}"))?,
                }
            }
            op::SLEEP => match frame.decode_value::<u64>() {
                Ok(ms) => {
                    let span = telemetry::span_with_parent("remote.sleep", trace, Vec::new());
                    std::thread::sleep(Duration::from_millis(ms.min(60_000)));
                    drop(span);
                    send_ok(&mut reader, trace, &[])?;
                }
                Err(e) => send_err(&mut reader, trace, format!("bad SLEEP: {e}"))?,
            },
            op::CRASH => {
                // The chaos hook for "the function died mid-work": exit
                // halfway through a reply (a header announcing 64 payload
                // bytes, then 32 of them), so the parent's read sees a
                // real frame cut short by a real EOF on a real socket.
                let mut reply = Vec::new();
                stellaris_cache::frame::write_frame(&mut reply, op::OK, trace, &[0; 64], cap)?;
                let stream = reader.get_mut();
                let _cut_reply_may_race_hangup = stream
                    .write_all(&reply[..reply.len() - 32])
                    .and_then(|()| stream.flush());
                std::process::exit(17);
            }
            op::SHUTDOWN => {
                send_ok(&mut reader, trace, &[])?;
                return Ok(());
            }
            op::RELAY => send_ok(&mut reader, trace, &frame.payload)?,
            other => send_err(&mut reader, trace, format!("unknown opcode {other}"))?,
        }
    }
}

// ---------------------------------------------------------------------------
// Parent side: typed client + fleet driver
// ---------------------------------------------------------------------------

/// Failure talking to a remote worker.
#[derive(Clone, Debug, PartialEq)]
pub enum RemoteError {
    /// Spawning or handshaking the worker process failed.
    Spawn(SpawnError),
    /// Frame-level transport failure (connection reset, truncation, a
    /// frame over the cap).
    Wire(WireError),
    /// The worker answered with an `ERR` frame (e.g. a corrupted payload
    /// that parsed as a frame but did not decode).
    Rejected(String),
    /// The worker answered with an unexpected opcode.
    Protocol(u8),
    /// A `PULL_SPANS` reply that is not UTF-8 trace JSONL; nothing of it
    /// was ingested.
    Spans(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Spawn(e) => write!(f, "spawn failed: {e}"),
            RemoteError::Wire(e) => write!(f, "wire failure: {e}"),
            RemoteError::Rejected(msg) => write!(f, "worker rejected request: {msg}"),
            RemoteError::Protocol(k) => write!(f, "unexpected reply opcode {k}"),
            RemoteError::Spans(e) => write!(f, "unreadable span reply: {e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<SpawnError> for RemoteError {
    fn from(e: SpawnError) -> Self {
        RemoteError::Spawn(e)
    }
}

impl From<WireError> for RemoteError {
    fn from(e: WireError) -> Self {
        RemoteError::Wire(e)
    }
}

/// Reads a `PULL_SPANS` payload: all of it, or a typed error and no events.
fn read_spans(payload: &[u8]) -> Result<Vec<Event>, RemoteError> {
    let text =
        std::str::from_utf8(payload).map_err(|e| RemoteError::Spans(format!("not UTF-8: {e}")))?;
    telemetry::read_jsonl(text).map_err(RemoteError::Spans)
}

/// Typed request/reply client over one worker process's framed socket.
pub struct RemoteWorker {
    proc: WorkerProcess,
}

impl RemoteWorker {
    /// Wraps a checked-out worker process.
    pub fn new(proc: WorkerProcess) -> Self {
        Self { proc }
    }

    /// The underlying process (chaos hooks: `kill`, `pid`, `is_alive`).
    pub fn process(&mut self) -> &mut WorkerProcess {
        &mut self.proc
    }

    /// Unwraps back to the process, e.g. for pool check-in.
    pub fn into_process(self) -> WorkerProcess {
        self.proc
    }

    fn request(&mut self, kind: u8, trace: u64, payload: &[u8]) -> Result<Frame, RemoteError> {
        self.proc.send(kind, trace, payload)?;
        let reply = self.proc.recv()?;
        match reply.header.kind {
            op::OK => Ok(reply),
            op::ERR => {
                let msg = match reply.decode_value::<String>() {
                    Ok(m) => m,
                    Err(_) => String::from("undecodable rejection"),
                };
                Err(RemoteError::Rejected(msg))
            }
            k => Err(RemoteError::Protocol(k)),
        }
    }

    /// Initialises the worker's environment/policy state.
    pub fn init(&mut self, setup: &RemoteSetup, trace: u64) -> Result<(), RemoteError> {
        self.request(op::INIT, trace, &setup.to_bytes()).map(|_| ())
    }

    /// Ships a policy snapshot for subsequent collects.
    pub fn load_policy(&mut self, snap: &PolicySnapshot, trace: u64) -> Result<(), RemoteError> {
        self.request(op::LOAD_POLICY, trace, &snap.to_bytes())
            .map(|_| ())
    }

    /// Collects `steps` timesteps remotely (0 = the setup's default).
    pub fn collect(&mut self, steps: u64, trace: u64) -> Result<SampleBatch, RemoteError> {
        let reply = self.request(op::COLLECT, trace, &steps.to_bytes())?;
        Ok(reply.decode_value::<SampleBatch>()?)
    }

    /// Computes one gradient remotely from a self-contained request; the
    /// worker keeps `req.snap`.
    pub fn gradient(
        &mut self,
        req: &GradientRequest,
        trace: u64,
    ) -> Result<GradientMsg, RemoteError> {
        self.gradient_frame(op::GRADIENT, &req.to_bytes(), trace)
    }

    fn gradient_frame(
        &mut self,
        kind: u8,
        payload: &[u8],
        trace: u64,
    ) -> Result<GradientMsg, RemoteError> {
        let reply = self.request(kind, trace, payload)?;
        Ok(reply.decode_value::<GradientMsg>()?)
    }

    /// Computes one gradient remotely against version `call.version`: with
    /// `push`, the snapshot of that version rides along (a `GRADIENT` frame)
    /// and the worker keeps it; without, the worker must already hold it
    /// and answers `stale-base` ([`RemoteError::Rejected`]) if it does not.
    pub fn gradient_at(
        &mut self,
        call: &GradientCall,
        push: Option<&PolicySnapshot>,
        trace: u64,
    ) -> Result<GradientMsg, RemoteError> {
        let (kind, bytes) = call.frame(push);
        self.gradient_frame(kind, &bytes, trace)
    }

    /// Chaos hook: sends the call with its payload truncated — a
    /// syntactically valid frame whose payload no longer decodes. The
    /// stream stays in sync; the worker answers `ERR` and this returns
    /// [`RemoteError::Rejected`].
    pub fn gradient_corrupted(
        &mut self,
        call: &GradientCall,
        push: Option<&PolicySnapshot>,
        trace: u64,
    ) -> Result<GradientMsg, RemoteError> {
        let (kind, bytes) = call.frame(push);
        self.gradient_frame(kind, &bytes[..bytes.len() / 2], trace)
    }

    /// Chaos hook: makes the worker sleep (a genuinely slow peer).
    pub fn sleep(&mut self, ms: u64, trace: u64) -> Result<(), RemoteError> {
        self.request(op::SLEEP, trace, &ms.to_bytes()).map(|_| ())
    }

    /// Chaos hook: orders the child to exit mid-work, halfway through its
    /// reply. Always returns the resulting typed transport error (the read
    /// observes a frame cut short by a real EOF,
    /// [`WireError::Truncated`]).
    pub fn crash(&mut self) -> RemoteError {
        let _send_may_race_exit = self.proc.send(op::CRASH, 0, &[]);
        match self.proc.recv() {
            Ok(f) => RemoteError::Protocol(f.header.kind),
            Err(e) => RemoteError::Wire(e),
        }
    }

    /// Drains the worker's telemetry buffer across the socket into this
    /// process's trace and returns how many events it held. The reply is
    /// the worker's [`telemetry::write_jsonl`], read back by
    /// [`telemetry::read_jsonl`] with every field typed; a reply that does
    /// not read is an error, and none of it is ingested.
    pub fn pull_spans(&mut self, trace: u64) -> Result<usize, RemoteError> {
        let reply = self.request(op::PULL_SPANS, trace, &[])?;
        let events = read_spans(&reply.payload)?;
        let n = events.len();
        telemetry::ingest_events(events);
        Ok(n)
    }

    /// Graceful shutdown: the worker acknowledges and exits its loop.
    pub fn shutdown(&mut self) -> Result<(), RemoteError> {
        self.request(op::SHUTDOWN, 0, &[]).map(|_| ())
    }
}

/// Everything a remote training run reports (the cross-process analogue
/// of `TrainResult`, scoped to what the socket path can observe).
#[derive(Clone, Debug, Default)]
pub struct RemoteRunReport {
    /// Rounds driven.
    pub rounds: usize,
    /// Final policy clock.
    pub final_version: u64,
    /// Order-sensitive checksum of the final snapshot weights; equal
    /// checksums mean bitwise-equal policies.
    pub final_checksum: u64,
    /// Gradients folded into the policy.
    pub grads_aggregated: u64,
    /// Staleness of every aggregated gradient, in admission order.
    pub staleness_log: Vec<u64>,
    /// Fresh worker processes spawned (cold starts).
    pub cold_spawns: u64,
    /// Keep-alive reuses of live idle workers (warm starts).
    pub warm_reuses: u64,
    /// Typed transport errors that a retry subsequently recovered.
    pub recovered: u64,
    /// Everything the fault plan injected and observed.
    pub faults: FaultReport,
    /// Worker-side telemetry events merged into the parent trace.
    pub events_ingested: usize,
    /// Learner invocations recorded on the platform (including failures).
    pub learner_invocations: u64,
    /// Full policy snapshots that crossed a socket and landed: the actor's
    /// `LOAD_POLICY` frames plus every learner call that carried its
    /// snapshot (the first one a learner worker serves at each new version,
    /// and self-contained retries).
    pub policy_full_pulls: u64,
    /// Always 0: nothing increments it. Kept because `benchmark/` reads it;
    /// it leaves with a later `benchmark`-archetype issue.
    pub policy_delta_pulls: u64,
    /// Encoded snapshot bytes of those loads
    /// (`policy_full_pulls * snap.encoded_len()`).
    pub policy_bytes_full: u64,
    /// Always 0, kept for the same reader as `policy_delta_pulls`.
    pub policy_bytes_delta: u64,
}

/// Order-sensitive FNV-1a fold over a snapshot's raw `f32` bits: two runs
/// with equal checksums hold bitwise-identical weights in the same order.
pub fn snapshot_checksum(snap: &PolicySnapshot) -> u64 {
    snap.flat.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, f| {
        (h ^ u64::from(f.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Drives training rounds against real worker child processes: one
/// fault-free actor worker collects trajectories, `max_learners` learner
/// workers compute gradients concurrently, each over its own socket, under
/// seeded chaos, and the parent aggregates deterministically (mini-batch
/// order) so same-seed runs reproduce the same final policy bit-for-bit.
pub struct RemoteFleet {
    pool: ProcessPool,
    /// Bills the workers' invocations and holds the run's fault plan.
    platform: Platform,
    cfg: TrainConfig,
}

impl RemoteFleet {
    /// Creates a fleet that spawns `program worker_args... --connect ADDR
    /// --span-base N --max-frame BYTES` per worker.
    pub fn new(
        program: impl Into<String>,
        worker_args: Vec<String>,
        proc_cfg: ProcessConfig,
        cfg: TrainConfig,
    ) -> Self {
        let platform = Platform::new(
            cfg.max_learners.max(1),
            1,
            StartupProfile::default(),
            OverheadMode::Record,
        )
        .with_faults(Arc::new(FaultPlan::new(cfg.faults.clone())));
        Self {
            pool: ProcessPool::new(program, worker_args, proc_cfg),
            platform,
            cfg,
        }
    }

    /// The training configuration this fleet runs.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    fn checkout_worker(
        &self,
        kind: FunctionKind,
        index: usize,
        setup: &RemoteSetup,
    ) -> Result<RemoteWorker, RemoteError> {
        let proc = self.pool.checkout(kind, index)?;
        let cold = proc.is_cold();
        let cold_start = proc.cold_start();
        let mut worker = RemoteWorker::new(proc);
        if cold {
            let t0 = Instant::now();
            worker.init(setup, 0)?;
            let exec = t0.elapsed();
            self.platform
                .record_remote(kind, exec, exec + cold_start, cold_start, true, false);
        }
        Ok(worker)
    }

    /// Records one warm remote invocation attempt on the platform.
    fn record_warm(&self, kind: FunctionKind, exec: Duration, failed: bool) {
        self.platform
            .record_remote(kind, exec, exec, Duration::ZERO, false, failed);
    }

    /// Runs the configured number of rounds of the lock-step cycle over
    /// one actor worker and `max_learners` learner workers, each a child
    /// process behind a framed socket, through the same dispatcher as
    /// [`crate::orchestrator::train`]. The wave is the whole round, with
    /// `cfg.truncation_rho` as the IS cap, and the actor collects once a
    /// round. Actor traffic is fault-free (its rollout stream must survive
    /// the whole run for same-seed determinism); learner traffic carries
    /// the seeded chaos plan, and every injected fault must surface as a
    /// typed error and be absorbed by the retry budget or the round's
    /// quorum degradation.
    pub fn run(&self) -> Result<RemoteRunReport, RemoteError> {
        let cfg = &self.cfg;
        let setup = RemoteSetup::from_train(cfg);
        let n_learners = cfg.max_learners.max(1);
        // What the links count as they go: `recovered`, `events_ingested`,
        // `policy_full_pulls` and `policy_bytes_full`.
        let tally = Mutex::new(RemoteRunReport::default());
        let actor = ProcessActor {
            fleet: self,
            tally: &tally,
            // The actor's span base must not collide with any learner's, so
            // it takes the index right above the learner range.
            worker: self.checkout_worker(FunctionKind::Actor, n_learners, &setup)?,
            holds: None,
        };
        let learners = (0..n_learners)
            .map(|_| ProcessLearner {
                fleet: self,
                setup: &setup,
                tally: &tally,
                worker: None,
                holds: None,
            })
            .collect();
        let server = parameter_plane(cfg);
        let timers = Timers::default();
        // No judge reads a probe here, so none is captured.
        let mut totals = CycleTotals {
            probe_captured: true,
            ..CycleTotals::default()
        };
        std::thread::scope(|s| {
            // The socket fleet's shape is fixed: no slot rescales.
            let (platform, draw) = (&self.platform, FaultPlan::draw_request);
            let mut actors = Slots::new(s, platform, vec![actor], true, Some(1), no_faults, false);
            let mut learners = Slots::new(s, platform, learners, true, None, draw, false);
            for round in 0..cfg.rounds {
                let mut round_span =
                    telemetry::span_with("fleet.round", vec![("round", round.into())]);
                lockstep_round(
                    &mut actors,
                    &mut learners,
                    &server,
                    cfg,
                    &timers,
                    &mut totals,
                )?;
                server.advance_round();
                round_span.field("version", server.clock());
                let (last, trace) = (round + 1 == cfg.rounds, round_span.id());
                learners.visit(move |link| link.end_round(last, trace));
            }
            actors.visit(ProcessActor::finish);
            Ok::<_, RemoteError>(())
        })?;
        self.pool.shutdown();

        let (cold_spawns, warm_reuses) = self.pool.start_counts();
        Ok(RemoteRunReport {
            rounds: cfg.rounds,
            final_version: server.clock(),
            final_checksum: snapshot_checksum(&server.snapshot()),
            grads_aggregated: server.grads_aggregated(),
            staleness_log: server.staleness_log().to_vec(),
            cold_spawns,
            warm_reuses,
            faults: self.platform.faults().report(),
            learner_invocations: learner_invocations(&self.platform),
            ..tally.into_inner()
        })
    }
}

/// The actor link over a socket: one actor worker process.
struct ProcessActor<'a> {
    fleet: &'a RemoteFleet,
    tally: &'a Mutex<RemoteRunReport>,
    worker: RemoteWorker,
    /// The policy version the worker holds; `None` until the first
    /// `LOAD_POLICY`.
    holds: Option<u64>,
}

impl ProcessActor<'_> {
    /// After the last round: the worker's spans are pulled and it shuts
    /// down.
    fn finish(&mut self) {
        if let Ok(n) = self.worker.pull_spans(0) {
            self.tally.lock().events_ingested += n;
        }
        let _graceful = self.worker.shutdown();
    }
}

impl Link for ProcessActor<'_> {
    type Job = Arc<PolicySnapshot>;
    type Out = SampleBatch;
    type Error = RemoteError;

    fn wave_span(wave: usize, _calls: usize) -> Option<SpanGuard> {
        Some(telemetry::span_with(
            "fleet.collect",
            vec![("round", wave.into())],
        ))
    }

    /// The actor worker is sent `snap` whole unless it already holds that
    /// version (one `LOAD_POLICY` per clock move), then collects under it.
    fn call(
        &mut self,
        snap: Arc<PolicySnapshot>,
        _i: usize,
        _l: usize,
        _faults: Faults,
        wave: u64,
    ) -> Result<Option<SampleBatch>, RemoteError> {
        let t0 = Instant::now();
        if self.holds != Some(snap.version) {
            self.worker.load_policy(&snap, wave)?;
            let mut tally = self.tally.lock();
            tally.policy_full_pulls += 1;
            tally.policy_bytes_full += snap.encoded_len() as u64;
            self.holds = Some(snap.version);
        }
        let steps = self.fleet.cfg.actor_steps as u64;
        let batch = self.worker.collect(steps, wave)?;
        self.fleet
            .record_warm(FunctionKind::Actor, t0.elapsed(), false);
        Ok(Some(batch))
    }
}

/// The learner link over a socket: the worker checked out this round, and
/// the policy version its process holds. The version outlives the checkout
/// because the process idles in the pool between rounds with its state
/// intact.
struct ProcessLearner<'a> {
    fleet: &'a RemoteFleet,
    setup: &'a RemoteSetup,
    tally: &'a Mutex<RemoteRunReport>,
    worker: Option<RemoteWorker>,
    holds: Option<u64>,
}

impl ProcessLearner<'_> {
    /// Keep-alive between rounds: the worker idles in the pool and the next
    /// round's checkout reuses it warm. After the last round its spans are
    /// pulled and it shuts down (drop kills whatever is left).
    fn end_round(&mut self, last: bool, trace: u64) {
        let Some(mut w) = self.worker.take() else {
            return;
        };
        if last {
            if let Ok(n) = w.pull_spans(trace) {
                self.tally.lock().events_ingested += n;
            }
            let _graceful = w.shutdown();
        } else {
            self.fleet.pool.checkin(w.into_process());
        }
    }
}

impl Link for ProcessLearner<'_> {
    type Job = Minibatch;
    type Out = GradientMsg;
    type Error = RemoteError;

    fn wave_span(wave: usize, calls: usize) -> Option<SpanGuard> {
        Some(telemetry::span_with(
            "fleet.wave",
            vec![("round", wave.into()), ("minibatches", calls.into())],
        ))
    }

    /// One mini-batch over this slot's socket, against the policy published
    /// when it starts. The first call at a new version carries the snapshot
    /// and the worker keeps it; later ones name the version only. The
    /// call's faults hit its first attempt. Fails only when no worker could
    /// be spawned within the retry budget.
    fn call(
        &mut self,
        (policy, batch): Minibatch,
        i: usize,
        l: usize,
        faults: Faults,
        wave: u64,
    ) -> Result<Option<GradientMsg>, RemoteError> {
        let ProcessLearner {
            fleet,
            setup,
            tally,
            worker,
            holds,
        } = self;
        let snap = policy.get();
        let call = GradientCall {
            version: snap.version,
            batch,
            cap: fleet.cfg.truncation_rho,
            learner_id: l,
        };
        let mut span = telemetry::span_with_parent(
            "fleet.gradient",
            wave,
            vec![("minibatch", i.into()), ("learner", l.into())],
        );
        let outcome = fleet
            .platform
            .faults()
            .with_retry(&fleet.cfg.retry, |attempt| {
                let w = match &mut *worker {
                    Some(w) => w,
                    slot => {
                        let mut w = fleet.checkout_worker(FunctionKind::Learner, l, setup)?;
                        // A fresh process (the last one was poisoned, or died
                        // idle in the pool) holds nothing.
                        if w.process().is_cold() {
                            *holds = None;
                        }
                        slot.insert(w)
                    }
                };
                let push = (*holds != Some(snap.version)).then_some(&*snap);
                let injected = if attempt == 0 {
                    faults
                } else {
                    Faults::default()
                };
                let t0 = Instant::now();
                let result = if injected.dropped {
                    // Frame drop, socket edition: the peer vanishes and the
                    // connection resets under the request.
                    w.process().kill();
                    w.gradient_at(&call, push, span.id())
                } else if injected.crash {
                    Err(w.crash())
                } else if injected.corrupt {
                    w.gradient_corrupted(&call, push, span.id())
                } else {
                    if let Some(dur) = injected.straggle {
                        let _slow_peer = w.sleep(dur.as_millis() as u64, span.id());
                    }
                    w.gradient_at(&call, push, span.id())
                };
                fleet.record_warm(FunctionKind::Learner, t0.elapsed(), result.is_err());
                match &result {
                    Ok(_) => {
                        let mut tally = tally.lock();
                        if push.is_some() {
                            *holds = Some(snap.version);
                            tally.policy_full_pulls += 1;
                            tally.policy_bytes_full += snap.encoded_len() as u64;
                        }
                        if attempt > 0 {
                            tally.recovered += 1;
                            span.field("recovered_after", attempt);
                        }
                    }
                    Err(e) => {
                        span.field("error", format!("{e}"));
                        // Whatever failed (`stale-base` included), the retry is
                        // self-contained: forget what the worker held.
                        *holds = None;
                        // A rejected frame leaves the stream in sync; anything
                        // wire-level poisons the connection and the worker
                        // respawns cold.
                        if !matches!(e, RemoteError::Rejected(_)) {
                            *worker = None;
                        }
                    }
                }
                result
            });
        match outcome {
            Ok(msg) => Ok(Some(msg)),
            // No worker could be spawned within the whole budget.
            Err(e @ RemoteError::Spawn(_)) => Err(e),
            // Quorum degradation: this mini-batch's gradient is permanently
            // lost and the round proceeds without it.
            Err(_) => {
                span.field("exhausted", true);
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::fresh_net;
    use std::net::TcpListener;
    use stellaris_cache::frame::{write_value_frame, DEFAULT_MAX_FRAME};
    use stellaris_rl::fill_gae;
    use stellaris_serverless::WireStream;
    use stellaris_telemetry::FieldValue;

    fn tiny_setup() -> RemoteSetup {
        RemoteSetup {
            env: "PointMass".to_string(),
            frame_size: 20,
            max_steps: 80,
            hidden: 16,
            seed: 11,
            algo: ALGO_PPO,
            actor_steps: 32,
        }
    }

    /// An in-thread `serve_worker` behind a real TCP pair, HELLO consumed.
    fn dial_worker(
        span_base: u64,
    ) -> (
        std::thread::JoinHandle<Result<(), WireError>>,
        FrameReader<WireStream>,
    ) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            serve_worker(WireStream::Tcp(stream), span_base, DEFAULT_MAX_FRAME)
        });
        let stream = WireStream::connect_addr(&format!("tcp:127.0.0.1:{port}")).unwrap();
        let mut reader = FrameReader::new(stream);
        assert_eq!(reader.read_frame().unwrap().header.kind, op::HELLO);
        (server, reader)
    }

    #[test]
    fn setup_and_request_codecs_roundtrip() {
        let s = tiny_setup();
        assert_eq!(RemoteSetup::from_bytes(&s.to_bytes()).unwrap(), s);
        assert_eq!(s.encoded_len(), s.to_bytes().len());

        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 11);
        let snap = fresh_net(&cfg).snapshot();
        let batch = ActorBody::new(&cfg, 0).collect(&snap, 16);
        for cap in [Some(1.0f32), None] {
            let req = GradientRequest {
                snap: snap.clone(),
                batch: batch.clone(),
                cap,
                learner_id: 2,
            };
            let back = GradientRequest::from_bytes(&req.to_bytes()).unwrap();
            assert_eq!(back.cap, cap, "NaN sentinel must round-trip None");
            assert_eq!(back, req);
            assert_eq!(req.encoded_len(), req.to_bytes().len());
        }
    }

    #[test]
    fn setup_from_train_maps_algo_tags() {
        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 1);
        assert_eq!(RemoteSetup::from_train(&cfg).algo, ALGO_PPO);
        let cfg = cfg.with_impact(ImpactConfig::scaled());
        assert_eq!(RemoteSetup::from_train(&cfg).algo, ALGO_IMPACT);
        let s = RemoteSetup::from_train(&cfg);
        assert_eq!(s.algo_config().unwrap().name(), "IMPACT");
        for tag in [2, 9] {
            let bad = RemoteSetup {
                algo: tag,
                ..s.clone()
            };
            assert_eq!(
                bad.algo_config().unwrap_err(),
                CodecError::Corrupt("algo tag"),
                "tag {tag} is a typed error, not a panic"
            );
            let msg = bad.train_config().unwrap_err();
            assert!(msg.contains("algo tag"), "INIT rejection text: {msg}");
        }
    }

    #[test]
    fn span_replies_are_read_whole_or_not_at_all() {
        let good = "{\"type\":\"span\",\"name\":\"remote.gradient\",\"id\":1099511627779,\
                    \"parent\":42,\"tid\":1,\"ts_us\":10,\"dur_us\":5,\"fields\":{\"learner\":2}}\n";
        let events = read_spans(good.as_bytes()).unwrap();
        assert_eq!(events[0].name, "remote.gradient");
        assert_eq!(events[0].parent, 42);
        assert_eq!(events[0].fields, vec![("learner", FieldValue::U64(2))]);
        let truncated = format!("{good}{}", &good[..good.len() / 2]);
        for bad in [&b"\xff\xfe"[..], truncated.as_bytes()] {
            assert!(matches!(read_spans(bad), Err(RemoteError::Spans(_))));
        }
    }

    /// Full conversation against `serve_worker` on a real TCP socket:
    /// HELLO → INIT → LOAD_POLICY → COLLECT → GRADIENT (clean, corrupt,
    /// clean again) → PULL_SPANS → SHUTDOWN. Also pins that the remote
    /// gradient equals the local learner body's on identical inputs.
    #[test]
    fn serve_worker_conversation_over_tcp() {
        let (server, mut reader) = dial_worker(1 << 40);
        let cap = reader.max_frame();

        // Requests before INIT are rejected, not fatal.
        write_value_frame(reader.get_mut(), op::COLLECT, 1, &8u64, cap).unwrap();
        let early = reader.read_frame().unwrap();
        assert_eq!(early.header.kind, op::ERR);

        // An unknown algorithm tag is rejected with its text, not fatal.
        let bad = RemoteSetup {
            algo: 2,
            ..tiny_setup()
        };
        write_value_frame(reader.get_mut(), op::INIT, 2, &bad, cap).unwrap();
        let rejected = reader.read_frame().unwrap();
        assert_eq!(rejected.header.kind, op::ERR);
        let msg = rejected.decode_value::<String>().unwrap();
        assert!(msg.contains("algo tag"), "{msg}");

        let setup = tiny_setup();
        write_value_frame(reader.get_mut(), op::INIT, 2, &setup, cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);

        // A collect before any policy arrived is rejected, not fatal.
        write_value_frame(reader.get_mut(), op::COLLECT, 3, &8u64, cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::ERR);

        let cfg = setup.train_config().unwrap();
        let snap = fresh_net(&cfg).snapshot();
        write_value_frame(reader.get_mut(), op::LOAD_POLICY, 3, &snap, cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);

        write_value_frame(reader.get_mut(), op::COLLECT, 4, &16u64, cap).unwrap();
        let reply = reader.read_frame().unwrap();
        assert_eq!(reply.header.kind, op::OK);
        assert_eq!(reply.header.trace_id, 4, "reply echoes the request trace");
        let batch = reply.decode_value::<SampleBatch>().unwrap();
        assert_eq!(batch.len(), 16);

        let mut gae_batch = batch.clone();
        fill_gae(&mut gae_batch, 0.99, 0.95);
        gae_batch.normalize_advantages();
        let req = GradientRequest {
            snap: snap.clone(),
            batch: gae_batch,
            cap: Some(1.0),
            learner_id: 0,
        };

        // Corrupt first: intact frame, undecodable payload → ERR, and the
        // stream must stay usable.
        let bytes = req.to_bytes();
        stellaris_cache::frame::write_frame(
            reader.get_mut(),
            op::GRADIENT,
            5,
            &bytes[..bytes.len() / 2],
            cap,
        )
        .unwrap();
        let rejected = reader.read_frame().unwrap();
        assert_eq!(rejected.header.kind, op::ERR);
        let msg = rejected.decode_value::<String>().unwrap();
        assert!(msg.contains("bad GRADIENT"), "typed rejection: {msg}");

        write_value_frame(reader.get_mut(), op::GRADIENT, 6, &req, cap).unwrap();
        let reply = reader.read_frame().unwrap();
        assert_eq!(reply.header.kind, op::OK);
        let remote_msg = reply.decode_value::<GradientMsg>().unwrap();

        // The same inputs through a local learner body must agree
        // bit-for-bit — both sides built it from the same setup.
        let local_msg = LearnerBody::new(&cfg).gradient(&req.snap, &req.batch, req.cap, 0);
        assert_eq!(remote_msg, local_msg, "remote and local gradients diverge");

        write_value_frame(reader.get_mut(), op::PULL_SPANS, 7, &0u8, cap).unwrap();
        let spans = reader.read_frame().unwrap();
        assert_eq!(spans.header.kind, op::OK);
        let events = read_spans(&spans.payload).unwrap();
        let collect = events
            .iter()
            .find(|e| e.name == "remote.collect")
            .expect("collect span crossed the wire");
        assert_eq!(collect.parent, 4, "span parents onto the request trace id");
        assert!(
            collect.id >= 1 << 40,
            "child ids minted above the span base"
        );
        let grad = events
            .iter()
            .find(|e| e.name == "remote.gradient")
            .expect("gradient span crossed the wire");
        assert_eq!(grad.parent, 6);
        assert!(
            matches!(grad.fields[..], [("learner", FieldValue::U64(_))]),
            "worker fields arrive typed: {:?}",
            grad.fields
        );

        stellaris_cache::frame::write_frame(reader.get_mut(), op::SHUTDOWN, 8, &[], cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);
        server.join().unwrap().unwrap();
    }

    /// The version-addressed half of the learner protocol against a live
    /// worker: a `GRADIENT_AT` naming a version the worker does not hold is
    /// `ERR stale-base` with the stream intact, a `GRADIENT` installs its
    /// snapshot, and the slim call at that version then returns the very
    /// bytes the self-contained request did.
    #[test]
    fn gradient_at_needs_the_named_version_over_tcp() {
        let (server, mut reader) = dial_worker(3 << 40);
        let cap = reader.max_frame();
        // Every frame rides trace id 6: the workers of this test binary
        // share one telemetry buffer, and the conversation test asserts
        // that the `remote.gradient` span it drains has parent 6.
        let mut ask = |kind: u8, payload: &[u8]| {
            stellaris_cache::frame::write_frame(reader.get_mut(), kind, 6, payload, cap).unwrap();
            reader.read_frame().unwrap()
        };
        let rejection = |reply: &Frame| {
            assert_eq!(reply.header.kind, op::ERR);
            reply.decode_value::<String>().unwrap()
        };

        let setup = tiny_setup();
        assert_eq!(ask(op::INIT, &setup.to_bytes()).header.kind, op::OK);
        let cfg = setup.train_config().unwrap();
        let snap = fresh_net(&cfg).snapshot();
        let mut batch = ActorBody::new(&cfg, 0).collect(&snap, 16);
        fill_gae(&mut batch, 0.99, 0.95);
        batch.normalize_advantages();
        let call = GradientCall {
            version: snap.version,
            batch,
            cap: Some(1.0),
            learner_id: 1,
        };
        assert_eq!(GradientCall::from_bytes(&call.to_bytes()).unwrap(), call);
        assert_eq!(call.encoded_len(), call.to_bytes().len());

        // No policy yet: rejected in band, and the next frame is answered.
        let msg = rejection(&ask(op::GRADIENT_AT, &call.to_bytes()));
        assert!(msg.contains("stale-base"), "typed rejection: {msg}");

        // The self-contained frame is `GradientRequest`'s layout, written
        // without owning the snapshot; the worker keeps what it carries.
        let (kind, pushed) = call.frame(Some(&snap));
        let req = GradientRequest {
            snap: snap.clone(),
            batch: call.batch.clone(),
            cap: call.cap,
            learner_id: call.learner_id,
        };
        assert_eq!((kind, &pushed[..]), (op::GRADIENT, &req.to_bytes()[..]));
        let full = ask(kind, &pushed);
        assert_eq!(full.header.kind, op::OK);

        let (kind, slim_bytes) = call.frame(None);
        assert_eq!(kind, op::GRADIENT_AT);
        let saved = snap.encoded_len() - snap.version.encoded_len();
        assert_eq!(pushed.len() - slim_bytes.len(), saved);
        let slim = ask(kind, &slim_bytes);
        assert_eq!(slim.header.kind, op::OK);
        assert_eq!(slim.payload, full.payload, "slim and full gradients differ");
        let local = LearnerBody::new(&cfg).gradient(&snap, &call.batch, call.cap, 1);
        assert_eq!(slim.decode_value::<GradientMsg>().unwrap(), local);

        // One version on: the worker still holds `snap.version` only.
        let ahead = GradientCall {
            version: snap.version + 1,
            ..call.clone()
        };
        let msg = rejection(&ask(op::GRADIENT_AT, &ahead.to_bytes()));
        assert!(msg.contains("stale-base"), "typed rejection: {msg}");

        // Intact frame, truncated payload: ERR, stream still in sync.
        let msg = rejection(&ask(op::GRADIENT_AT, &slim_bytes[..slim_bytes.len() / 2]));
        assert!(msg.contains("bad GRADIENT_AT"), "typed rejection: {msg}");
        assert_eq!(ask(op::GRADIENT_AT, &slim_bytes).payload, full.payload);

        assert_eq!(ask(op::SHUTDOWN, &[]).header.kind, op::OK);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn unknown_opcode_is_rejected_not_fatal() {
        let (server, mut reader) = dial_worker(2 << 40);
        let cap = reader.max_frame();
        // 11 is the retired delta opcode: a stale parent gets the same ERR.
        for (trace, kind) in [(8, 0x3f), (9, 11)] {
            stellaris_cache::frame::write_frame(reader.get_mut(), kind, trace, b"??", cap).unwrap();
            let reply = reader.read_frame().unwrap();
            assert_eq!((reply.header.kind, reply.header.trace_id), (op::ERR, trace));
        }
        stellaris_cache::frame::write_frame(reader.get_mut(), op::SHUTDOWN, 10, &[], cap).unwrap();
        assert_eq!(reader.read_frame().unwrap().header.kind, op::OK);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn snapshot_checksum_is_order_and_bit_sensitive() {
        let cfg = TrainConfig::test_tiny(EnvId::PointMass, 3);
        let snap = fresh_net(&cfg).snapshot();
        let same = fresh_net(&cfg).snapshot();
        assert_eq!(snapshot_checksum(&snap), snapshot_checksum(&same));
        let mut tweaked = snap.clone();
        tweaked.flat[0] += 1.0e-6;
        assert_ne!(snapshot_checksum(&snap), snapshot_checksum(&tweaked));
    }
}
