//! Length-prefixed wire frames for cross-process transport.
//!
//! The paper runs agents, cache and learners as separate serverless
//! functions; payloads leave the process as bytes on a socket. This module
//! defines the frame layout those bytes travel in and a streaming reader
//! that is safe against the three classic length-prefix failure modes:
//!
//! 1. **Silent truncation on encode** — element counts are converted with
//!    [`crate::codec::checked_len_u32`] and oversized values are rejected
//!    with a typed error *before* any bytes hit the socket
//!    (see [`write_value_frame`]).
//! 2. **Unbounded allocation on decode** — a hostile 4-byte length prefix
//!    is checked against a configurable cap ([`FrameReader::with_cap`])
//!    *before* the payload buffer is allocated.
//! 3. **Partial reads** — [`FrameReader`] loops over short reads (TCP
//!    returns whatever is in the kernel buffer); a peer that dies mid-frame
//!    surfaces as [`WireError::Truncated`], not a panic or a hang on
//!    garbage.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       1     magic      (0xC5)
//! 1       1     version    (1)
//! 2       1     kind       (opcode, see [`op`])
//! 3       1     flags      (reserved, 0)
//! 4       8     trace_id   (telemetry span id of the *sender's* current
//!                           span; receivers parent remote work under it)
//! 12      4     len        (payload byte length)
//! 16      len   payload    (a [`Codec`]-encoded value)
//! ```

use std::io::{Read, Write};

use bytes::BytesMut;

use crate::codec::{checked_len_u32, Codec, CodecError};

/// First byte of every frame; rejects peers speaking a different protocol.
pub const FRAME_MAGIC: u8 = 0xC5;
/// Wire protocol version carried in byte 1 of the header.
pub const FRAME_VERSION: u8 = 1;
/// Fixed size of the frame header in bytes.
pub const HEADER_LEN: usize = 16;
/// Default payload cap: 64 MiB, comfortably above the largest gradient
/// message the paper's models produce while bounding hostile prefixes.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

/// Frame opcodes shared by every process that speaks the wire protocol.
///
/// They live here (not in `stellaris-core`) so the serverless crate can
/// handshake with spawned workers without depending on core.
pub mod op {
    /// First frame a worker sends after connecting; payload is its worker
    /// index. Receipt marks the end of cold start.
    pub const HELLO: u8 = 1;
    /// Configure the worker (environment, model size, seed, algorithm).
    pub const INIT: u8 = 2;
    /// Install a policy snapshot.
    pub const LOAD_POLICY: u8 = 3;
    /// Run an environment rollout and return the sample batch.
    pub const COLLECT: u8 = 4;
    /// Install the policy snapshot the payload carries, compute gradients
    /// for its minibatch against it and return the gradient message. The
    /// worker keeps the snapshot for later [`GRADIENT_AT`] calls.
    pub const GRADIENT: u8 = 5;
    /// Return the worker's buffered telemetry events for span stitching.
    pub const PULL_SPANS: u8 = 6;
    /// Chaos: stall for the given number of milliseconds (slow peer).
    pub const SLEEP: u8 = 7;
    /// Chaos: exit the process immediately without replying (crash
    /// mid-work; the parent observes a clean EOF / connection reset).
    pub const CRASH: u8 = 8;
    /// Graceful shutdown; worker acknowledges then exits.
    pub const SHUTDOWN: u8 = 9;
    /// Echo the payload back verbatim (a transport-level ping the worker
    /// answers; the process-pool and frame tests use it).
    pub const RELAY: u8 = 10;
    // 11 is retired (wire numbers are never reused or renumbered).
    /// Compute gradients for a minibatch against the policy version the
    /// payload *names*: the worker must already hold that version (from a
    /// `GRADIENT` or `LOAD_POLICY`) and replies `ERR stale-base` when it
    /// does not, so the parent re-sends a self-contained `GRADIENT`.
    pub const GRADIENT_AT: u8 = 12;
    /// Successful reply; payload is operation-specific.
    pub const OK: u8 = 0x40;
    /// Failed reply; payload is a `String` describing the error.
    pub const ERR: u8 = 0x41;
}

/// Transport-layer failure reading or writing a frame.
///
/// Holds [`std::io::ErrorKind`] rather than `std::io::Error` so transport
/// errors stay `Clone`/`Eq` and can be asserted on in tests and counted in
/// fault reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// A length (payload or value) exceeds the configured frame cap.
    TooLarge {
        /// The offending length in bytes.
        len: usize,
        /// The cap it exceeded.
        cap: usize,
    },
    /// First header byte was not [`FRAME_MAGIC`].
    BadMagic(u8),
    /// Header version byte was not [`FRAME_VERSION`].
    BadVersion(u8),
    /// The stream ended mid-header or mid-payload (peer died or reset).
    Truncated,
    /// An OS-level I/O failure (connection refused, reset, timeout, ...).
    Io(std::io::ErrorKind),
    /// The frame arrived intact but its payload failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooLarge { len, cap } => {
                write!(f, "frame length {len} exceeds cap {cap}")
            }
            WireError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02x}"),
            WireError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            WireError::Truncated => write!(f, "stream truncated mid-frame"),
            WireError::Io(kind) => write!(f, "io error: {kind:?}"),
            WireError::Codec(e) => write!(f, "payload decode failed: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    }
}

/// Parsed frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Opcode (see [`op`]).
    pub kind: u8,
    /// Reserved flag bits (must currently be 0 on send; ignored on read).
    pub flags: u8,
    /// Telemetry span id of the sender's active span, for cross-process
    /// span stitching; 0 means "no active span".
    pub trace_id: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// One decoded frame: header plus owned payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The parsed header.
    pub header: FrameHeader,
    /// Payload bytes, exactly `header.len` long.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Decodes the payload as a [`Codec`] value, requiring full consumption.
    pub fn decode_value<T: Codec>(&self) -> Result<T, WireError> {
        T::from_bytes(&self.payload).map_err(WireError::Codec)
    }
}

/// Parses a 16-byte header buffer. Validates magic and version but not the
/// length — the caller checks `len` against its cap before allocating.
fn parse_header(raw: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
    if raw[0] != FRAME_MAGIC {
        return Err(WireError::BadMagic(raw[0]));
    }
    if raw[1] != FRAME_VERSION {
        return Err(WireError::BadVersion(raw[1]));
    }
    let mut trace = [0u8; 8];
    trace.copy_from_slice(&raw[4..12]);
    let mut len = [0u8; 4];
    len.copy_from_slice(&raw[12..16]);
    Ok(FrameHeader {
        kind: raw[2],
        flags: raw[3],
        trace_id: u64::from_le_bytes(trace),
        len: u32::from_le_bytes(len),
    })
}

fn header_bytes(kind: u8, trace_id: u64, len: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0] = FRAME_MAGIC;
    h[1] = FRAME_VERSION;
    h[2] = kind;
    h[3] = 0;
    h[4..12].copy_from_slice(&trace_id.to_le_bytes());
    h[12..16].copy_from_slice(&len.to_le_bytes());
    h
}

/// Writes one frame with the given raw payload, enforcing `cap` on the
/// payload size *before* any bytes are written so an oversized value never
/// leaves a half-frame on the socket.
pub fn write_frame<W: Write>(
    w: &mut W,
    kind: u8,
    trace_id: u64,
    payload: &[u8],
    cap: usize,
) -> Result<(), WireError> {
    if payload.len() > cap {
        return Err(WireError::TooLarge {
            len: payload.len(),
            cap,
        });
    }
    let len = checked_len_u32(payload.len()).map_err(WireError::Codec)?;
    w.write_all(&header_bytes(kind, trace_id, len))?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Encodes `value` and writes it as one frame.
///
/// The size check uses [`Codec::encoded_len`] *before* encoding, so a value
/// too large for the cap (or for the u32 length prefix) is rejected with a
/// typed error without allocating its encoding — this is the wire-facing
/// guard that keeps the codec's documented length-prefix panic unreachable
/// from a socket.
pub fn write_value_frame<W: Write, T: Codec>(
    w: &mut W,
    kind: u8,
    trace_id: u64,
    value: &T,
    cap: usize,
) -> Result<(), WireError> {
    let len = value.encoded_len();
    if len > cap {
        return Err(WireError::TooLarge { len, cap });
    }
    checked_len_u32(len).map_err(WireError::Codec)?;
    let mut buf = BytesMut::with_capacity(len);
    value.encode(&mut buf);
    write_frame(w, kind, trace_id, &buf, cap)
}

/// Reads exactly `buf.len()` bytes, looping over short reads and retrying
/// `Interrupted`. A clean EOF before the buffer fills is reported as
/// `UnexpectedEof` (which maps to [`WireError::Truncated`]).
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Streaming frame reader over any [`Read`] (TCP, UDS, pipes, in-memory
/// cursors in tests).
pub struct FrameReader<R: Read> {
    inner: R,
    max_frame: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner` with the [`DEFAULT_MAX_FRAME`] payload cap.
    pub fn new(inner: R) -> Self {
        Self::with_cap(inner, DEFAULT_MAX_FRAME)
    }

    /// Wraps `inner` with an explicit payload cap in bytes.
    pub fn with_cap(inner: R, max_frame: usize) -> Self {
        Self { inner, max_frame }
    }

    /// The configured payload cap in bytes.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Mutable access to the underlying stream, e.g. to write on a duplex
    /// socket owned by this reader.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Consumes the reader, returning the underlying stream.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Reads the next complete frame.
    ///
    /// The header's length field is validated against the cap *before* the
    /// payload buffer is allocated: a hostile 4-byte prefix costs at most a
    /// 16-byte header read, never a multi-gigabyte `Vec`. The payload is
    /// read into spare capacity rather than a zero-filled buffer; a stream
    /// that ends short of `len` is [`WireError::Truncated`].
    pub fn read_frame(&mut self) -> Result<Frame, WireError> {
        let mut raw = [0u8; HEADER_LEN];
        read_full(&mut self.inner, &mut raw)?;
        let header = parse_header(&raw)?;
        let len = header.len as usize;
        if len > self.max_frame {
            return Err(WireError::TooLarge {
                len,
                cap: self.max_frame,
            });
        }
        let mut payload = Vec::with_capacity(len);
        (&mut self.inner)
            .take(len as u64)
            .read_to_end(&mut payload)?;
        if payload.len() < len {
            return Err(WireError::Truncated);
        }
        Ok(Frame { header, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn frame_bytes(kind: u8, trace_id: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, kind, trace_id, payload, DEFAULT_MAX_FRAME).unwrap();
        out
    }

    #[test]
    fn roundtrip_value_frame() {
        let value = vec![1.0f32, -2.5, 3.25];
        let mut wire = Vec::new();
        write_value_frame(
            &mut wire,
            op::COLLECT,
            0xDEAD_BEEF,
            &value,
            DEFAULT_MAX_FRAME,
        )
        .unwrap();
        let mut reader = FrameReader::new(Cursor::new(wire));
        let frame = reader.read_frame().unwrap();
        assert_eq!(frame.header.kind, op::COLLECT);
        assert_eq!(frame.header.trace_id, 0xDEAD_BEEF);
        assert_eq!(frame.decode_value::<Vec<f32>>().unwrap(), value);
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocation() {
        // Header claims a 4 GiB-1 payload; with a 1 KiB cap the reader must
        // refuse before allocating anything.
        let mut wire = header_bytes(op::OK, 0, u32::MAX).to_vec();
        wire.extend_from_slice(&[0u8; 32]);
        let mut reader = FrameReader::with_cap(Cursor::new(wire), 1024);
        assert_eq!(
            reader.read_frame(),
            Err(WireError::TooLarge {
                len: u32::MAX as usize,
                cap: 1024
            })
        );
    }

    #[test]
    fn oversized_write_rejected_before_any_bytes() {
        let big = vec![0u8; 100];
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, op::OK, 0, &big, 10).unwrap_err();
        assert_eq!(err, WireError::TooLarge { len: 100, cap: 10 });
        assert!(wire.is_empty(), "no partial frame may be written");

        let value = vec![1.0f32; 64];
        let mut wire = Vec::new();
        let err = write_value_frame(&mut wire, op::GRADIENT, 0, &value, 16).unwrap_err();
        assert!(matches!(err, WireError::TooLarge { .. }));
        assert!(wire.is_empty());
    }

    #[test]
    fn bad_magic_and_version_detected() {
        let mut wire = frame_bytes(op::OK, 0, b"x");
        wire[0] = 0x00;
        let mut reader = FrameReader::new(Cursor::new(wire));
        assert_eq!(reader.read_frame(), Err(WireError::BadMagic(0x00)));

        let mut wire = frame_bytes(op::OK, 0, b"x");
        wire[1] = 9;
        let mut reader = FrameReader::new(Cursor::new(wire));
        assert_eq!(reader.read_frame(), Err(WireError::BadVersion(9)));
    }

    #[test]
    fn eof_mid_frame_is_truncated() {
        let wire = frame_bytes(op::OK, 7, b"hello world");
        for cut in 0..wire.len() {
            let mut reader = FrameReader::new(Cursor::new(wire[..cut].to_vec()));
            assert_eq!(
                reader.read_frame(),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    /// A reader that dribbles one byte per `read()` call — the pathological
    /// partial-read pattern real sockets approximate under load.
    struct OneByte<R: Read>(R);
    impl<R: Read> Read for OneByte<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.read(&mut buf[..1])
        }
    }

    #[test]
    fn partial_reads_reassemble() {
        let value = "stellaris".to_string();
        let mut wire = Vec::new();
        write_value_frame(&mut wire, op::HELLO, 42, &value, DEFAULT_MAX_FRAME).unwrap();
        let mut reader = FrameReader::new(OneByte(Cursor::new(wire)));
        let frame = reader.read_frame().unwrap();
        assert_eq!(frame.header.trace_id, 42);
        assert_eq!(frame.decode_value::<String>().unwrap(), value);
    }

    #[test]
    fn back_to_back_frames_stay_in_sync() {
        let mut wire = Vec::new();
        for i in 0..5u64 {
            write_value_frame(&mut wire, op::OK, i, &i, DEFAULT_MAX_FRAME).unwrap();
        }
        let mut reader = FrameReader::new(Cursor::new(wire));
        for i in 0..5u64 {
            let frame = reader.read_frame().unwrap();
            assert_eq!(frame.header.trace_id, i);
            assert_eq!(frame.decode_value::<u64>().unwrap(), i);
        }
        assert_eq!(reader.read_frame(), Err(WireError::Truncated));
    }

    proptest! {
        #[test]
        fn prop_byte_soup_never_panics_never_overallocates(
            data in proptest::collection::vec(any::<u8>(), 0..128),
            cap in 0usize..4096,
        ) {
            // Arbitrary bytes through a capped reader: every outcome is a
            // typed error or a frame whose payload respects the cap.
            let mut reader = FrameReader::with_cap(Cursor::new(data), cap);
            if let Ok(frame) = reader.read_frame() {
                prop_assert!(frame.payload.len() <= cap);
            }
        }

        #[test]
        fn prop_truncated_frames_through_reader_error_cleanly(
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            trace in any::<u64>(),
        ) {
            let wire = frame_bytes(op::RELAY, trace, &payload);
            for cut in 0..wire.len() {
                let mut reader = FrameReader::new(Cursor::new(wire[..cut].to_vec()));
                prop_assert_eq!(reader.read_frame(), Err(WireError::Truncated));
            }
            let mut reader = FrameReader::new(Cursor::new(wire));
            let frame = reader.read_frame();
            prop_assert!(frame.is_ok());
            prop_assert_eq!(frame.ok().map(|f| f.payload), Some(payload));
        }
    }
}
