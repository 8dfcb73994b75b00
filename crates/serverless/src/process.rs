//! Real child processes behind the platform: spawn worker functions as OS
//! processes connected over TCP or Unix-domain sockets.
//!
//! The paper's functions are containers on a serverless cluster; this
//! module is the repo's closest local analogue. Each checkout either
//! reuses a live idle worker (warm start) or spawns a fresh process and
//! waits for its HELLO frame (cold start — the *measured* spawn→handshake
//! latency, not a simulated sleep). Idle workers are kept alive for the
//! platform's keep-alive window and reaped on expiry, and a worker can be
//! killed mid-conversation to exercise crash recovery against a real
//! process lifecycle.
//!
//! Every spawn binds its own ephemeral listener (TCP on `127.0.0.1:0`, or
//! a fresh per-worker socket path for UDS), so concurrent spawns can never
//! cross-connect.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use stellaris_cache::frame::{op, Frame, FrameReader, WireError, DEFAULT_MAX_FRAME};

use crate::platform::FunctionKind;

/// Which socket family worker connections use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireTransport {
    /// TCP over loopback (always available).
    Tcp,
    /// Unix-domain sockets (unix targets only).
    #[cfg(unix)]
    Uds,
}

/// A connected duplex byte stream of either family.
pub enum WireStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl WireStream {
    /// Connects to an address of the form `tcp:HOST:PORT` or `uds:/path`
    /// (the form [`ProcessPool`] passes to workers via `--connect`).
    pub fn connect_addr(addr: &str) -> std::io::Result<Self> {
        if let Some(rest) = addr.strip_prefix("tcp:") {
            let stream = TcpStream::connect(rest)?;
            // A frame is two writes (header, payload) and then a read of the
            // reply: with Nagle on, the second write waits out the peer's
            // delayed ACK of the first, on every request/reply pair.
            stream.set_nodelay(true)?;
            return Ok(WireStream::Tcp(stream));
        }
        #[cfg(unix)]
        if let Some(rest) = addr.strip_prefix("uds:") {
            return Ok(WireStream::Unix(UnixStream::connect(rest)?));
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unsupported wire address: {addr}"),
        ))
    }

    /// Sets the read timeout on the underlying socket (`None` blocks
    /// forever).
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            WireStream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    /// Shuts down both directions, forcing the peer's next read to EOF.
    pub fn shutdown(&self) -> std::io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            WireStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            WireStream::Unix(s) => s.flush(),
        }
    }
}

/// Failure spawning or handshaking a worker process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpawnError {
    /// OS-level failure launching the child or binding the listener.
    Io(std::io::ErrorKind),
    /// The child never connected within the accept timeout.
    AcceptTimeout,
    /// The connection opened but the first frame was not a HELLO.
    BadHello(u8),
    /// Frame-level failure during the handshake.
    Wire(WireError),
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::Io(kind) => write!(f, "spawn io error: {kind:?}"),
            SpawnError::AcceptTimeout => write!(f, "worker never connected back"),
            SpawnError::BadHello(k) => write!(f, "expected HELLO, got opcode {k}"),
            SpawnError::Wire(e) => write!(f, "handshake failed: {e}"),
        }
    }
}

impl std::error::Error for SpawnError {}

impl From<std::io::Error> for SpawnError {
    fn from(e: std::io::Error) -> Self {
        SpawnError::Io(e.kind())
    }
}

impl From<WireError> for SpawnError {
    fn from(e: WireError) -> Self {
        SpawnError::Wire(e)
    }
}

/// Tuning knobs for spawning and talking to worker processes.
#[derive(Clone, Debug)]
pub struct ProcessConfig {
    /// Socket family for worker connections.
    pub transport: WireTransport,
    /// How long to wait for a spawned child to connect back.
    pub accept_timeout: Duration,
    /// Per-read socket timeout on worker conversations (guards against a
    /// hung peer; a worker that straggles longer surfaces as a timeout
    /// `WireError::Io`).
    pub io_timeout: Duration,
    /// Max accepted payload size per frame, in bytes.
    pub max_frame: usize,
    /// How long an idle worker stays checked in before it is reaped
    /// (mirrors the platform's container keep-alive).
    pub keep_alive: Duration,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        Self {
            transport: WireTransport::Tcp,
            accept_timeout: Duration::from_secs(20),
            io_timeout: Duration::from_secs(60),
            max_frame: DEFAULT_MAX_FRAME,
            keep_alive: Duration::from_secs(600),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, String),
}

static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

fn bind_listener(transport: WireTransport) -> std::io::Result<(Listener, String)> {
    match transport {
        WireTransport::Tcp => {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let addr = format!("tcp:127.0.0.1:{}", listener.local_addr()?.port());
            Ok((Listener::Tcp(listener), addr))
        }
        #[cfg(unix)]
        WireTransport::Uds => {
            let n = UDS_COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("stellaris-worker-{}-{n}.sock", std::process::id()));
            let path_str = path.to_string_lossy().into_owned();
            // A stale socket from a crashed previous run would fail the bind.
            let _removed = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            Ok((
                Listener::Unix(listener, path_str.clone()),
                format!("uds:{path_str}"),
            ))
        }
    }
}

/// Accepts one connection with a deadline, via non-blocking polling (the
/// std listeners have no native accept timeout).
fn accept_with_timeout(listener: &Listener, timeout: Duration) -> Result<WireStream, SpawnError> {
    let deadline = Instant::now() + timeout;
    match listener {
        Listener::Tcp(l) => l.set_nonblocking(true)?,
        #[cfg(unix)]
        Listener::Unix(l, _) => l.set_nonblocking(true)?,
    }
    loop {
        let accepted = match listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| WireStream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| WireStream::Unix(s)),
        };
        match accepted {
            Ok(stream) => {
                match &stream {
                    WireStream::Tcp(s) => {
                        s.set_nonblocking(false)?;
                        // Same write-write-read reason as `connect_addr`.
                        s.set_nodelay(true)?;
                    }
                    #[cfg(unix)]
                    WireStream::Unix(s) => s.set_nonblocking(false)?,
                }
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(SpawnError::AcceptTimeout);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _removed = std::fs::remove_file(path.as_str());
        }
    }
}

/// A live worker process with its framed duplex connection.
pub struct WorkerProcess {
    child: Child,
    reader: FrameReader<WireStream>,
    kind: FunctionKind,
    index: usize,
    /// Measured spawn→HELLO latency (zero for warm checkouts).
    cold_start: Duration,
    /// Whether this checkout spawned a fresh process.
    cold: bool,
}

impl WorkerProcess {
    /// Function kind this worker was checked out for.
    pub fn kind(&self) -> FunctionKind {
        self.kind
    }

    /// Worker index (drives the child's span-ID base).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether this checkout spawned a fresh process.
    pub fn is_cold(&self) -> bool {
        self.cold
    }

    /// Measured spawn→HELLO latency (zero for warm checkouts).
    pub fn cold_start(&self) -> Duration {
        self.cold_start
    }

    /// OS process ID of the child.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one frame with a raw payload.
    pub fn send(&mut self, kind: u8, trace_id: u64, payload: &[u8]) -> Result<(), WireError> {
        let cap = self.reader.max_frame();
        stellaris_cache::frame::write_frame(self.reader.get_mut(), kind, trace_id, payload, cap)
    }

    /// Reads the next frame from the worker.
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        self.reader.read_frame()
    }

    /// Kills the worker process outright — the chaos hook for "the
    /// container died": the parent's next read on the stream observes a
    /// real EOF/reset.
    pub fn kill(&mut self) {
        let _killed = self.child.kill();
        let _reaped = self.child.wait();
    }

    /// True while the process has not exited.
    pub fn is_alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        // A dropped (not checked-in) worker must never outlive the pool.
        self.kill();
    }
}

struct IdleWorker {
    worker: WorkerProcess,
    expires: Instant,
}

/// Spawns and pools worker processes, one listener per spawn.
pub struct ProcessPool {
    program: String,
    base_args: Vec<String>,
    cfg: ProcessConfig,
    idle: Mutex<Vec<IdleWorker>>,
    spawned: AtomicU64,
    reused: AtomicU64,
}

impl ProcessPool {
    /// Creates a pool that runs `program base_args... --connect ADDR
    /// --span-base N --max-frame BYTES` per spawn.
    pub fn new(program: impl Into<String>, base_args: Vec<String>, cfg: ProcessConfig) -> Self {
        Self {
            program: program.into(),
            base_args,
            cfg,
            idle: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &ProcessConfig {
        &self.cfg
    }

    /// `(cold spawns, warm reuses)` so far.
    pub fn start_counts(&self) -> (u64, u64) {
        (
            self.spawned.load(Ordering::Relaxed),
            self.reused.load(Ordering::Relaxed),
        )
    }

    /// Disjoint span-ID base for a worker index, so IDs minted in the child
    /// can never collide with the parent's (or a sibling's) when traces are
    /// merged.
    pub fn span_base(index: usize) -> u64 {
        (index as u64 + 1) << 40
    }

    /// Checks out a worker: reuses a live idle worker for the same
    /// kind/index when one is within its keep-alive window, otherwise
    /// spawns a fresh process and waits for its HELLO.
    pub fn checkout(&self, kind: FunctionKind, index: usize) -> Result<WorkerProcess, SpawnError> {
        let now = Instant::now();
        let mut idle = self.idle.lock();
        // Reap expired entries first (their Drop kills the process).
        idle.retain(|w| w.expires > now);
        if let Some(pos) = idle
            .iter()
            .position(|w| w.worker.kind == kind && w.worker.index == index)
        {
            let mut entry = idle.swap_remove(pos);
            drop(idle);
            if entry.worker.is_alive() {
                self.reused.fetch_add(1, Ordering::Relaxed);
                entry.worker.cold = false;
                entry.worker.cold_start = Duration::ZERO;
                return Ok(entry.worker);
            }
            // The process died while idle; fall through to a cold spawn.
        } else {
            drop(idle);
        }
        self.spawn(kind, index)
    }

    /// Returns a healthy worker to the pool for warm reuse.
    pub fn checkin(&self, worker: WorkerProcess) {
        self.idle.lock().push(IdleWorker {
            worker,
            expires: Instant::now() + self.cfg.keep_alive,
        });
    }

    /// Kills every idle worker.
    pub fn shutdown(&self) {
        self.idle.lock().clear();
    }

    fn spawn(&self, kind: FunctionKind, index: usize) -> Result<WorkerProcess, SpawnError> {
        let mut span = stellaris_telemetry::span_with(
            "serverless.spawn_worker",
            vec![("kind", kind.name().into()), ("index", index.into())],
        );
        let (listener, addr) = bind_listener(self.cfg.transport)?;
        let t0 = Instant::now();
        let mut child = Command::new(&self.program)
            .args(&self.base_args)
            .arg("--connect")
            .arg(&addr)
            .arg("--span-base")
            .arg(Self::span_base(index).to_string())
            .arg("--max-frame")
            .arg(self.cfg.max_frame.to_string())
            .stdin(Stdio::null())
            .spawn()?;
        let stream = match accept_with_timeout(&listener, self.cfg.accept_timeout) {
            Ok(s) => s,
            Err(e) => {
                let _killed = child.kill();
                let _reaped = child.wait();
                return Err(e);
            }
        };
        stream.set_read_timeout(Some(self.cfg.io_timeout))?;
        let mut reader = FrameReader::with_cap(stream, self.cfg.max_frame);
        let hello = match reader.read_frame() {
            Ok(f) => f,
            Err(e) => {
                let _killed = child.kill();
                let _reaped = child.wait();
                return Err(e.into());
            }
        };
        if hello.header.kind != op::HELLO {
            let _killed = child.kill();
            let _reaped = child.wait();
            return Err(SpawnError::BadHello(hello.header.kind));
        }
        let cold_start = t0.elapsed();
        span.field("cold_start_us", cold_start.as_micros() as u64);
        self.spawned.fetch_add(1, Ordering::Relaxed);
        Ok(WorkerProcess {
            child,
            reader,
            kind,
            index,
            cold_start,
            cold: true,
        })
    }
}

impl Drop for ProcessPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_addr_rejects_unknown_scheme() {
        let err = WireStream::connect_addr("carrier-pigeon:coop/3");
        assert!(err.is_err());
        assert_eq!(
            err.map(|_| ()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn tcp_stream_roundtrips_frames() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = FrameReader::new(WireStream::Tcp(stream));
            let frame = reader.read_frame().unwrap();
            let cap = reader.max_frame();
            stellaris_cache::frame::write_frame(
                reader.get_mut(),
                op::OK,
                frame.header.trace_id,
                &frame.payload,
                cap,
            )
            .unwrap();
        });
        let stream = WireStream::connect_addr(&format!("tcp:127.0.0.1:{port}")).unwrap();
        let mut reader = FrameReader::new(stream);
        let cap = reader.max_frame();
        stellaris_cache::frame::write_frame(reader.get_mut(), op::RELAY, 77, b"ping", cap).unwrap();
        let reply = reader.read_frame().unwrap();
        assert_eq!(reply.header.kind, op::OK);
        assert_eq!(reply.header.trace_id, 77);
        assert_eq!(reply.payload, b"ping");
        server.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn uds_stream_roundtrips_frames() {
        let (listener, addr) = bind_listener(WireTransport::Uds).unwrap();
        let path = addr.strip_prefix("uds:").unwrap().to_string();
        let server = std::thread::spawn(move || {
            let stream = accept_with_timeout(&listener, Duration::from_secs(5)).unwrap();
            let mut reader = FrameReader::new(stream);
            let frame = reader.read_frame().unwrap();
            assert_eq!(frame.payload, b"over-uds");
        });
        let stream = WireStream::connect_addr(&format!("uds:{path}")).unwrap();
        let mut reader = FrameReader::new(stream);
        let cap = reader.max_frame();
        stellaris_cache::frame::write_frame(reader.get_mut(), op::RELAY, 0, b"over-uds", cap)
            .unwrap();
        server.join().unwrap();
    }

    /// Not a test of its own: the child half of the checkout tests below.
    /// [`hello_pool`] re-runs this test binary filtered down to this
    /// function; the `--connect ADDR` the pool appends lands after `--` as
    /// one more (unmatched) filter and is read back from the arguments. In
    /// a normal test run there is no `--connect` and it returns at once.
    #[test]
    fn hello_worker() {
        let args: Vec<String> = std::env::args().collect();
        let Some(at) = args.iter().position(|a| a == "--connect") else {
            return;
        };
        let stream = WireStream::connect_addr(&args[at + 1]).unwrap();
        if let WireStream::Tcp(s) = &stream {
            assert!(s.nodelay().unwrap(), "worker side must disable Nagle");
        }
        let mut reader = FrameReader::new(stream);
        let cap = reader.max_frame();
        stellaris_cache::frame::write_frame(reader.get_mut(), op::HELLO, 0, &[], cap).unwrap();
        // Echo until the parent hangs up.
        while let Ok(frame) = reader.read_frame() {
            let trace = frame.header.trace_id;
            stellaris_cache::frame::write_frame(
                reader.get_mut(),
                op::OK,
                trace,
                &frame.payload,
                cap,
            )
            .unwrap();
        }
    }

    fn hello_pool(transport: WireTransport) -> ProcessPool {
        let exe = std::env::current_exe().unwrap();
        let args = ["process::tests::hello_worker", "--exact", "--"];
        ProcessPool::new(
            exe.to_string_lossy(),
            args.map(String::from).to_vec(),
            ProcessConfig {
                transport,
                ..ProcessConfig::default()
            },
        )
    }

    fn echo(worker: &mut WorkerProcess, payload: &[u8]) {
        worker.send(op::RELAY, 9, payload).unwrap();
        let reply = worker.recv().unwrap();
        assert_eq!((reply.header.kind, reply.header.trace_id), (op::OK, 9));
        assert_eq!(reply.payload, payload);
    }

    /// Both ends of a TCP worker connection run with Nagle off: a frame is
    /// header-write, payload-write, then a read, which otherwise stalls on
    /// the peer's delayed ACK.
    #[test]
    fn tcp_checkout_sets_nodelay_on_both_ends() {
        let pool = hello_pool(WireTransport::Tcp);
        let mut worker = pool
            .checkout(FunctionKind::Learner, 0)
            .expect("tcp checkout");
        match worker.reader.get_mut() {
            WireStream::Tcp(s) => assert!(s.nodelay().unwrap(), "parent side must disable Nagle"),
            #[cfg(unix)]
            WireStream::Unix(_) => panic!("tcp pool handed out a unix stream"),
        }
        // The child asserts its own side before HELLO; an echo proves it is
        // still serving, i.e. that assertion held.
        echo(&mut worker, b"nagle-free");

        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        match WireStream::connect_addr(&format!("tcp:127.0.0.1:{port}")).unwrap() {
            WireStream::Tcp(s) => assert!(s.nodelay().unwrap()),
            #[cfg(unix)]
            WireStream::Unix(_) => panic!("tcp address dialled a unix stream"),
        }
    }

    /// The option is TCP-only: a unix-domain checkout is untouched by it.
    #[cfg(unix)]
    #[test]
    fn uds_checkout_still_works() {
        let pool = hello_pool(WireTransport::Uds);
        let mut worker = pool
            .checkout(FunctionKind::Learner, 0)
            .expect("uds checkout");
        assert!(matches!(worker.reader.get_mut(), WireStream::Unix(_)));
        echo(&mut worker, b"over-uds");
    }

    #[test]
    fn spawn_failure_is_typed() {
        let pool = ProcessPool::new(
            "/nonexistent/stellaris-no-such-binary",
            vec![],
            ProcessConfig::default(),
        );
        let err = pool.checkout(FunctionKind::Learner, 0).map(|_| ());
        assert_eq!(err, Err(SpawnError::Io(std::io::ErrorKind::NotFound)));
    }

    #[test]
    fn accept_timeout_when_child_never_connects() {
        // The child launches fine but never dials back (the `--connect ...`
        // args land as ignored positional params of the `-c` script).
        let pool = ProcessPool::new(
            "sh",
            vec!["-c".into(), "sleep 5".into()],
            ProcessConfig {
                accept_timeout: Duration::from_millis(100),
                ..ProcessConfig::default()
            },
        );
        let err = pool.checkout(FunctionKind::Actor, 0).map(|_| ());
        assert_eq!(err, Err(SpawnError::AcceptTimeout));
    }

    #[test]
    fn span_bases_are_disjoint() {
        assert!(ProcessPool::span_base(0) >= 1 << 40);
        assert_ne!(ProcessPool::span_base(0), ProcessPool::span_base(1));
        assert!(ProcessPool::span_base(1) - ProcessPool::span_base(0) >= 1 << 40);
    }
}
