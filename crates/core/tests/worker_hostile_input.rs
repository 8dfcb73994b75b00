//! A worker survives whatever its parent sends: `serve_worker` driven over an
//! in-memory stream by hostile frame sequences.
//!
//! Every whole request gets exactly one `OK` or `ERR`, in order; a frame cut
//! short ends the conversation with a typed `WireError`; and `GRADIENT_AT`
//! answers only for the policy version the worker holds. The telemetry sink
//! `PULL_SPANS` drains is process-global, so these tests live in their own
//! binary.

use std::io::{Cursor, Read, Write};
use std::sync::OnceLock;

use proptest::prelude::*;
use stellaris_cache::frame::{op, write_frame, Frame, FrameReader, WireError};
use stellaris_cache::Codec;
use stellaris_core::remote::{ALGO_IMPACT, ALGO_PPO};
use stellaris_core::{
    fresh_net, serve_worker, ActorBody, GradientCall, GradientMsg, GradientRequest, RemoteSetup,
};
use stellaris_rl::{fill_gae, PolicySnapshot, SampleBatch};

/// A worker's two pipe ends in memory: it reads `input` and appends to
/// `output`.
struct Duplex {
    input: Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Read for Duplex {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Duplex {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serves `input` with frame cap `cap` until the worker stops; returns how
/// it stopped and every frame it wrote after `HELLO`.
fn serve(input: Vec<u8>, cap: usize) -> (Result<(), WireError>, Vec<Frame>) {
    let mut io = Duplex {
        input: Cursor::new(input),
        output: Vec::new(),
    };
    let result = serve_worker(&mut io, 5 << 40, cap);
    let mut written = FrameReader::with_cap(Cursor::new(io.output), cap);
    assert_eq!(written.read_frame().unwrap().header.kind, op::HELLO);
    let mut replies = Vec::new();
    while let Ok(frame) = written.read_frame() {
        replies.push(frame);
    }
    (result, replies)
}

fn frame(kind: u8, trace: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, kind, trace, payload, usize::MAX).unwrap();
    out
}

/// What the requests are built from: a tiny PointMass setup, its initial
/// policy, and a GAE-processed batch collected under it.
struct Fixture {
    setup: RemoteSetup,
    snap: PolicySnapshot,
    batch: SampleBatch,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let setup = RemoteSetup {
            env: "PointMass".to_string(),
            frame_size: 20,
            max_steps: 40,
            hidden: 16,
            seed: 11,
            algo: ALGO_PPO,
            actor_steps: 16,
        };
        let cfg = setup.train_config().unwrap();
        let snap = fresh_net(&cfg).snapshot();
        let mut batch = ActorBody::new(&cfg, 0).collect(&snap, 16);
        fill_gae(&mut batch, 0.99, 0.95);
        batch.normalize_advantages();
        Fixture { setup, snap, batch }
    })
}

fn snap_at(version: u64) -> PolicySnapshot {
    PolicySnapshot {
        version,
        ..fixture().snap.clone()
    }
}

#[test]
fn collect_over_the_frame_cap_is_refused_in_band() {
    // The tiny policy fits in 16 KiB, and so does an 8-step batch, but 1024
    // PointMass steps do not: the worker must say so before collecting and
    // keep serving, not collect and then die on the oversized reply.
    let cap = 16 << 10;
    let fx = fixture();
    let mut input = frame(op::INIT, 1, &fx.setup.to_bytes());
    input.extend(frame(op::LOAD_POLICY, 2, &fx.snap.to_bytes()));
    input.extend(frame(op::COLLECT, 3, &8u64.to_bytes()));
    input.extend(frame(op::COLLECT, 4, &1024u64.to_bytes()));
    input.extend(frame(op::RELAY, 5, b"still here"));
    let (result, replies) = serve(input, cap);

    let got: Vec<(u8, u64)> = replies
        .iter()
        .map(|f| (f.header.kind, f.header.trace_id))
        .collect();
    assert_eq!(
        got,
        [
            (op::OK, 1),
            (op::OK, 2),
            (op::OK, 3),
            (op::ERR, 4),
            (op::OK, 5)
        ]
    );
    assert_eq!(replies[2].decode_value::<SampleBatch>().unwrap().len(), 8);
    let msg = replies[3].decode_value::<String>().unwrap();
    assert!(msg.contains("frame cap"), "{msg}");
    assert_eq!(replies[4].payload, b"still here");
    // The input ran out at a frame boundary.
    assert_eq!(result, Err(WireError::Truncated));
}

/// One whole request of a hostile sequence, from a choice and two seeds.
fn request(choice: u8, n: u64, junk: &[u8]) -> (u8, Vec<u8>) {
    let fx = fixture();
    let call = |version| GradientCall {
        version,
        batch: fx.batch.clone(),
        cap: Some(1.0),
        learner_id: 2,
    };
    match choice {
        // An INIT, one in three with the retired algorithm tag 2.
        0 => {
            let algo = [2, ALGO_PPO, ALGO_IMPACT][(n % 3) as usize];
            let setup = RemoteSetup {
                algo,
                ..fx.setup.clone()
            };
            (op::INIT, setup.to_bytes().to_vec())
        }
        1 => (op::LOAD_POLICY, snap_at(n % 3).to_bytes().to_vec()),
        // A short collect, or any step count at all.
        2 => {
            let steps = if n.is_multiple_of(2) { n % 40 } else { n };
            (op::COLLECT, steps.to_bytes().to_vec())
        }
        3 => {
            let req = GradientRequest {
                snap: snap_at(n % 3),
                batch: fx.batch.clone(),
                cap: None,
                learner_id: 1,
            };
            (op::GRADIENT, req.to_bytes().to_vec())
        }
        // Versions 0-2 are ones a worker may hold, 3 never.
        4 => (op::GRADIENT_AT, call(n % 4).to_bytes().to_vec()),
        5 => (op::PULL_SPANS, junk.to_vec()),
        6 => (op::SLEEP, 0u64.to_bytes().to_vec()),
        7 => (op::RELAY, junk.to_vec()),
        8 => (op::SHUTDOWN, junk.to_vec()),
        // An opcode no worker serves (0x3f), the retired 11, a reply opcode.
        9 => ([0x3f, 11, op::OK][(n % 3) as usize], junk.to_vec()),
        // Random bytes where a typed payload belongs.
        10 => {
            let kinds = [
                op::INIT,
                op::LOAD_POLICY,
                op::COLLECT,
                op::GRADIENT,
                op::GRADIENT_AT,
            ];
            (kinds[(n % 5) as usize], junk.to_vec())
        }
        // A typed payload cut short.
        _ => {
            let (kind, whole) = match n % 4 {
                0 => (op::INIT, fx.setup.to_bytes()),
                1 => (op::LOAD_POLICY, fx.snap.to_bytes()),
                2 => (op::GRADIENT_AT, call(0).to_bytes()),
                _ => (op::COLLECT, 8u64.to_bytes()),
            };
            let cut = (n / 4) as usize % whole.len();
            (kind, whole[..cut].to_vec())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_frames_get_one_typed_reply_each(
        choices in collection::vec(0u8..12, 1..10),
        seeds in collection::vec(any::<u64>(), 10..11),
        junk in collection::vec(any::<u8>(), 0..24),
        handshake in any::<bool>(),
        cut_last in any::<bool>(),
        cut_at in any::<u64>(),
    ) {
        let cap = 64 << 10;
        // Half the sequences open with a valid INIT and LOAD_POLICY, so the
        // hostile frames also meet a worker with a policy to collect under
        // and differentiate against.
        let opening = [(0, 1), (1, seeds[0])];
        let frames: Vec<(u8, Vec<u8>)> = opening[..if handshake { 2 } else { 0 }]
            .iter()
            .copied()
            .chain(choices.iter().copied().zip(seeds.iter().copied()))
            .map(|(c, n)| request(c, n, &junk[..(n % (junk.len() as u64 + 1)) as usize]))
            .collect();
        let mut input = Vec::new();
        let mut whole = frames.len();
        for (i, (kind, payload)) in frames.iter().enumerate() {
            let bytes = frame(*kind, i as u64 + 1, payload);
            if cut_last && i + 1 == frames.len() {
                let keep = 1 + (cut_at % (bytes.len() as u64 - 1)) as usize;
                input.extend_from_slice(&bytes[..keep]);
                whole -= 1;
            } else {
                input.extend(bytes);
            }
        }
        let (result, replies) = serve(input, cap);

        // The worker answers every whole request up to a SHUTDOWN, in order.
        let shutdown = frames[..whole].iter().position(|(k, _)| *k == op::SHUTDOWN);
        let answered = shutdown.map_or(whole, |i| i + 1);
        prop_assert_eq!(replies.len(), answered);
        // Without one, the input runs out: mid-frame when the last frame
        // was cut, at a frame boundary otherwise.
        let end = if shutdown.is_some() { Ok(()) } else { Err(WireError::Truncated) };
        prop_assert_eq!(&result, &end);

        // The version the worker holds follows the requests it accepted.
        let mut held: Option<u64> = None;
        for (i, (reply, (kind, payload))) in replies.iter().zip(&frames).enumerate() {
            prop_assert_eq!(reply.header.trace_id, i as u64 + 1);
            prop_assert!(reply.header.kind == op::OK || reply.header.kind == op::ERR);
            let ok = reply.header.kind == op::OK;
            match *kind {
                op::INIT if ok => held = None,
                op::LOAD_POLICY if ok => held = PolicySnapshot::from_bytes(payload).ok().map(|s| s.version),
                op::GRADIENT if ok => held = GradientRequest::from_bytes(payload).ok().map(|r| r.snap.version),
                op::GRADIENT_AT => {
                    let named = GradientCall::from_bytes(payload).ok().map(|c| c.version);
                    prop_assert_eq!(ok, named.is_some() && named == held, "GRADIENT_AT {:?}, worker holds {:?}", named, held);
                    if ok {
                        let msg = reply.decode_value::<GradientMsg>().unwrap();
                        prop_assert_eq!(Some(msg.base_version), named);
                    }
                }
                _ => {}
            }
        }
    }
}
