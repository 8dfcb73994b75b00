//! Per-function fact extraction over the masked source model.
//!
//! For every function in a file this module records, by linear scan over the
//! masked text: lock acquisitions (with a normalized *lock id*), guard live
//! ranges (named bindings live to the end of the enclosing block or a
//! `drop(..)`, temporaries to the end of their statement span), channel
//! sends/receives, directly-blocking operations (condvar waits, joins,
//! sleeps), outgoing calls, thread/rayon spawns, channel-pair and queue
//! declarations, non-deterministic source reads (wall clocks, ambient RNGs,
//! `HashMap`/`HashSet` iteration, thread identity), atomic operations with
//! their `Ordering`, float-reduction sites, panic sites and fresh
//! allocations. The call graph ([`crate::callgraph`]) stitches
//! these facts into whole-workspace summaries; the analyses
//! ([`crate::analyses`], [`crate::dataflow`]) consume both.
//!
//! The model is linear, not path-sensitive: a guard dropped on one branch is
//! treated as dropped for the rest of the function. That trades a small
//! false-negative surface for a zero-false-positive bar on this repo (see
//! DESIGN.md §9).

use std::collections::BTreeSet;

use crate::source::{boundary_ok, find_token, match_brace, statement_spans, SourceFile};

/// Lock-acquisition tokens.
pub const LOCK_TOKENS: [&str; 3] = [".lock()", ".read()", ".write()"];

/// Channel-operation tokens: `(send?, token)`.
pub const CHANNEL_TOKENS: [(bool, &str); 5] = [
    (true, ".send("),
    (false, ".recv()"),
    (false, ".recv_timeout("),
    (false, ".recv_deadline("),
    (false, ".try_recv()"),
];

/// Condvar-style waits: these release the guard passed as an argument but
/// still block every *other* live guard.
const WAIT_TOKENS: [&str; 5] = [
    ".wait(",
    ".wait_timeout(",
    ".wait_until(",
    ".wait_while(",
    ".wait_for(",
];

/// One lock acquisition site.
#[derive(Clone, Debug)]
pub struct Acquire {
    /// Normalized lock identity, e.g. `BlockingQueue::self.inner`.
    pub lock_id: String,
    /// Byte offset of the acquisition token in the file.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
}

/// A guard's live range.
#[derive(Clone, Debug)]
pub struct GuardRange {
    /// Lock this guard holds.
    pub lock_id: String,
    /// Binding name for `let g = ..` / `g = ..` guards; `None` for
    /// temporaries.
    pub binding: Option<String>,
    /// Offset of the acquisition token.
    pub acquire_offset: usize,
    /// Live range: `(acquire_offset, end)`, end exclusive.
    pub end: usize,
    /// Statement span (from [`statement_spans`]) containing the acquisition;
    /// a temporary guard is held while anything in it runs.
    pub span: (usize, usize),
    /// 1-based line of the acquisition.
    pub line: usize,
}

impl GuardRange {
    /// Whether the guard is held while the code at `offset` runs. A named
    /// guard is held after its acquisition; a temporary for its whole
    /// statement, so `tx.send(state.lock().snapshot())` holds it while
    /// `send` runs although `send` comes first in the text.
    pub fn held_at(&self, offset: usize) -> bool {
        let from = if self.binding.is_some() {
            self.acquire_offset
        } else {
            self.span.0
        };
        offset >= from && offset < self.end && offset != self.acquire_offset
    }
}

/// A channel send/recv site.
#[derive(Clone, Debug)]
pub struct ChanSite {
    /// `true` for send, `false` for recv.
    pub send: bool,
    /// Normalized receiver chain, e.g. `self.tx` (may be empty).
    pub receiver: String,
    /// Byte offset of the token.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
}

/// A directly-blocking operation.
#[derive(Clone, Debug)]
pub struct BlockSite {
    /// Short label, e.g. `.wait(` or `join`.
    pub what: String,
    /// Guard binding this wait releases (condvar protocol), if any.
    pub releases: Option<String>,
    /// Byte offset of the token.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
}

/// An outgoing call site.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name as written (last path segment).
    pub name: String,
    /// `Type` for `Type::name(..)` / `Self::name(..)` calls.
    pub type_qual: Option<String>,
    /// Normalized receiver chain for method calls (`a.b` for `a.b.name()`).
    pub receiver: Option<String>,
    /// Byte offset of the callee name.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
}

/// A `let (tx, rx) = channel()`-style declaration.
#[derive(Clone, Debug)]
pub struct ChannelPair {
    /// Sender binding.
    pub tx: String,
    /// Receiver binding.
    pub rx: String,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// A local binding of a first-party queue (`BlockingQueue`/`GradientQueue`).
#[derive(Clone, Debug)]
pub struct QueueDecl {
    /// Binding name.
    pub name: String,
    /// Byte span of the declaring statement.
    pub span: (usize, usize),
    /// 1-based line.
    pub line: usize,
}

/// Kind of non-deterministic source read tracked by the A4 taint analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaintKind {
    /// Wall-clock reads: `Instant::now`, `SystemTime::now`, `.elapsed()`.
    Time,
    /// Ambient (unseeded) RNG: `thread_rng`, `from_entropy`, `rand::random`.
    Rng,
    /// `HashMap`/`HashSet` iteration order.
    MapIter,
    /// Thread identity / parallelism reads.
    ThreadId,
}

impl TaintKind {
    /// Human description used in findings and witnesses.
    pub fn describe(self) -> &'static str {
        match self {
            TaintKind::Time => "wall-clock time",
            TaintKind::Rng => "ambient (unseeded) RNG",
            TaintKind::MapIter => "HashMap/HashSet iteration order",
            TaintKind::ThreadId => "thread identity/parallelism",
        }
    }
}

/// One non-deterministic source read.
#[derive(Clone, Debug)]
pub struct TaintSite {
    /// What kind of source this is.
    pub kind: TaintKind,
    /// The source as written, e.g. `Instant::now` or `self.parts.values()`.
    pub what: String,
    /// Byte offset of the token.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
    /// A recognized sanitizer neutralizes the read (order-insensitive
    /// min/max reduction or collect-then-sort for map iteration; see
    /// DESIGN.md §12).
    pub sanitized: bool,
}

/// Atomic operation shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomicOp {
    Load,
    Store,
    /// Read-modify-write: `fetch_*`, `swap`, `compare_exchange*`.
    Rmw,
}

impl AtomicOp {
    /// Lower-case label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            AtomicOp::Load => "load",
            AtomicOp::Store => "store",
            AtomicOp::Rmw => "read-modify-write",
        }
    }
}

/// One atomic operation with an explicit `Ordering` argument.
#[derive(Clone, Debug)]
pub struct AtomicSite {
    /// Normalized atomic identity (same qualification scheme as lock ids).
    pub atom_id: String,
    /// Operation shape.
    pub op: AtomicOp,
    /// Ordering name: `Relaxed`, `Acquire`, `Release`, `AcqRel`, `SeqCst`.
    /// For `compare_exchange`/`fetch_update` this is the success ordering.
    pub ordering: String,
    /// Byte offset of the token.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
}

/// One float reduction whose accumulation order is unstable.
#[derive(Clone, Debug)]
pub struct ReduceSite {
    /// What destabilizes the order: `parallel iterator` or
    /// `HashMap/HashSet iteration`.
    pub over: &'static str,
    /// Reduction adapter, e.g. `.sum` / `.fold`.
    pub what: String,
    /// Byte offset of the token.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
}

/// One potentially-panicking operation (A8).
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// What panics as written, e.g. `.unwrap()`, `panic!`, `index []`.
    pub what: String,
    /// Byte offset of the token.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
}

/// One unconditional fresh allocation (A9). Capacity-reusing calls
/// (`resize`, `reserve`, `push`, `extend`) are deliberately absent: they
/// are policed dynamically by the counting-allocator bench, while A9 pins
/// the *fresh* allocations that can never amortize to zero.
#[derive(Clone, Debug)]
pub struct AllocSite {
    /// Allocation kind, e.g. `vec!`, `to_vec`, `collect`, `Box::new`.
    pub what: String,
    /// Byte offset of the token.
    pub offset: usize,
    /// 1-based line.
    pub line: usize,
}

/// Everything the analyses need to know about one function.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Qualified name: `Type::name` for inherent/trait methods, bare `name`
    /// for free functions.
    pub name: String,
    /// Impl type, when the function sits in an `impl` block.
    pub impl_type: Option<String>,
    /// Repo-relative path of the defining file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body byte range (inside the braces).
    pub body: (usize, usize),
    /// Lock acquisitions, in source order.
    pub acquires: Vec<Acquire>,
    /// Guard live ranges.
    pub guards: Vec<GuardRange>,
    /// Channel operations.
    pub chans: Vec<ChanSite>,
    /// Directly-blocking operations.
    pub blocks: Vec<BlockSite>,
    /// Outgoing calls.
    pub calls: Vec<CallSite>,
    /// Lines with `spawn(..)` calls (thread/rayon).
    pub spawns: Vec<usize>,
    /// `let (tx, rx) = channel()` declarations.
    pub pairs: Vec<ChannelPair>,
    /// First-party queue bindings.
    pub queues: Vec<QueueDecl>,
    /// `drop(name)` sites as `(name, offset)`.
    pub drops: Vec<(String, usize)>,
    /// Non-deterministic source reads (A4).
    pub taints: Vec<TaintSite>,
    /// Atomic operations with explicit orderings (A5).
    pub atomics: Vec<AtomicSite>,
    /// Order-unstable float reductions (A6).
    pub reductions: Vec<ReduceSite>,
    /// Potentially-panicking operations (A8).
    pub panics: Vec<PanicSite>,
    /// Unconditional fresh allocations (A9).
    pub allocs: Vec<AllocSite>,
}

impl FnInfo {
    /// Number of word-bounded occurrences of `ident` in the body.
    pub fn ident_uses(&self, masked: &str, ident: &str) -> usize {
        let body = &masked[self.body.0..self.body.1];
        find_token(body, ident)
            .into_iter()
            .filter(|&at| boundary_ok(body, at, ident))
            .count()
    }

    /// The named guard live at `offset` with binding `name`, if any.
    pub fn live_guard(&self, name: &str, offset: usize) -> Option<&GuardRange> {
        self.guards.iter().find(|g| {
            g.binding.as_deref() == Some(name) && g.acquire_offset < offset && offset < g.end
        })
    }
}

/// The extracted model of one file.
pub struct FileModel {
    /// Repo-relative path.
    pub path: String,
    /// Functions, in source order.
    pub fns: Vec<FnInfo>,
}

/// Extracts the model for one source file.
pub fn model_file(path: &str, src: &SourceFile) -> FileModel {
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
        .to_string();
    let masked = src.masked.as_str();
    let bytes = masked.as_bytes();
    let impls = impl_spans(masked);
    let spans = statement_spans(masked);
    let mut fns = raw_fns(masked, src, &impls, &stem);
    for f in &mut fns {
        f.file = path.to_string();
    }
    // Body ranges of *other* functions nested inside a function are skipped
    // when scanning events (closures are kept: they run on the owner's
    // facts).
    let bodies: Vec<(usize, usize)> = fns.iter().map(|f| f.body).collect();
    let maps = map_idents(masked);
    for (idx, f) in fns.iter_mut().enumerate() {
        let nested: Vec<(usize, usize)> = bodies
            .iter()
            .enumerate()
            .filter(|&(j, b)| j != idx && b.0 >= f.body.0 && b.1 <= f.body.1)
            .map(|(_, &b)| b)
            .collect();
        extract_facts(f, src, bytes, &spans, &nested, &maps);
    }
    FileModel {
        path: path.to_string(),
        fns,
    }
}

/// `impl` blocks as `(type_name, open_brace, close_brace)`.
fn impl_spans(masked: &str) -> Vec<(String, usize, usize)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for at in find_token(masked, "impl") {
        if !boundary_ok(masked, at, "impl") {
            continue;
        }
        // Genuine item position: preceded by nothing, a block/item boundary,
        // an attribute `]`, or the `unsafe` keyword — not `-> impl Trait` or
        // `x: impl Fn()`.
        let before = masked[..at].trim_end();
        let genuine = before.is_empty()
            || before.ends_with(['{', '}', ';', ']'])
            || before.ends_with("unsafe");
        if !genuine {
            continue;
        }
        let Some(rel_open) = masked[at..].find('{') else {
            continue;
        };
        let open = at + rel_open;
        let mut header = &masked[at + "impl".len()..open];
        // Skip the impl's own parameter list: `impl<T: Clone> Q<T>` is `Q`'s.
        if let Some(params) = header.trim_start().strip_prefix('<') {
            let mut depth = 1usize;
            let mut prev = b'<';
            for (i, b) in params.bytes().enumerate() {
                match b {
                    b'<' => depth += 1,
                    b'>' if prev != b'-' => {
                        depth -= 1;
                        if depth == 0 {
                            header = &params[i + 1..];
                            break;
                        }
                    }
                    _ => {}
                }
                prev = b;
            }
        }
        if let Some(w) = header.find(" where ") {
            header = &header[..w];
        }
        if let Some(f) = header.rfind(" for ") {
            header = &header[f + " for ".len()..];
        }
        let mut ty = header.trim();
        if let Some(lt) = ty.find('<') {
            ty = ty[..lt].trim_end();
        }
        ty = ty.trim_start_matches('&').trim_start_matches("dyn ").trim();
        let ty = ty.rsplit("::").next().unwrap_or(ty).trim();
        if ty.is_empty() {
            continue;
        }
        out.push((ty.to_string(), open, match_brace(bytes, open)));
    }
    out
}

/// Finds `fn` items (outside test regions) and their body ranges.
fn raw_fns(
    masked: &str,
    src: &SourceFile,
    impls: &[(String, usize, usize)],
    stem: &str,
) -> Vec<FnInfo> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for at in find_token(masked, "fn") {
        if !boundary_ok(masked, at, "fn") || src.in_test(at) {
            continue;
        }
        let mut i = at + 2;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
            i += 1;
        }
        if i == name_start {
            continue; // `fn` inside `Fn(..)` bounds or similar.
        }
        let fname = &masked[name_start..i];
        // Skip generics, find the parameter list, then the body brace; a `;`
        // first means a bodiless declaration (trait method, extern).
        let Some(rel_paren) = masked[i..].find('(') else {
            continue;
        };
        let close_paren = match_paren(bytes, i + rel_paren);
        let mut j = close_paren;
        let mut open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'{' => {
                    open = Some(j);
                    break;
                }
                b';' => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else { continue };
        let close = match_brace(bytes, open);
        let impl_type = impls
            .iter()
            .rfind(|&&(_, o, c)| o < at && at < c)
            .map(|(t, _, _)| t.clone());
        let name = match &impl_type {
            Some(t) => format!("{t}::{fname}"),
            None => format!("{stem}::{fname}"),
        };
        out.push(FnInfo {
            name,
            impl_type,
            file: String::new(), // filled by model_file
            line: src.line_of(at),
            body: (open + 1, close),
            acquires: Vec::new(),
            guards: Vec::new(),
            chans: Vec::new(),
            blocks: Vec::new(),
            calls: Vec::new(),
            spawns: Vec::new(),
            pairs: Vec::new(),
            queues: Vec::new(),
            drops: Vec::new(),
            taints: Vec::new(),
            atomics: Vec::new(),
            reductions: Vec::new(),
            panics: Vec::new(),
            allocs: Vec::new(),
        });
    }
    out
}

/// Byte offset just past the `)` matching the `(` at `open` (or EOF).
fn match_paren(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

fn in_ranges(ranges: &[(usize, usize)], at: usize) -> bool {
    ranges.iter().any(|&(s, e)| s <= at && at < e)
}

/// Statement span containing `at` (falls back to a point span).
fn span_of(spans: &[(usize, usize)], at: usize) -> (usize, usize) {
    let idx = spans.partition_point(|&(s, _)| s <= at);
    if idx > 0 {
        let (s, e) = spans[idx - 1];
        if at < e.max(s + 1) {
            return (s, e);
        }
    }
    (at, at)
}

fn extract_facts(
    f: &mut FnInfo,
    src: &SourceFile,
    bytes: &[u8],
    spans: &[(usize, usize)],
    nested: &[(usize, usize)],
    maps: &BTreeSet<String>,
) {
    let masked = std::str::from_utf8(bytes).expect("masked text is the source UTF-8");
    let (b0, b1) = f.body;
    let body = &masked[b0..b1];
    let skip = |at: usize| in_ranges(nested, at) || src.in_test(at);
    let qual = f.impl_type.clone();

    // Lock acquisitions and guard ranges.
    for token in LOCK_TOKENS {
        for rel in find_token(body, token) {
            let at = b0 + rel;
            if skip(at) {
                continue;
            }
            let receiver = receiver_chain(masked, at);
            let lock_id = lock_id(&receiver, qual.as_deref(), &stem_of(&f.name));
            let line = src.line_of(at);
            f.acquires.push(Acquire {
                lock_id: lock_id.clone(),
                offset: at,
                line,
            });
            let span = span_of(spans, at);
            let head = masked[span.0..span.1].trim_start();
            let binding = guard_binding(head, masked, at + token.len(), span.1);
            let end = if binding.is_some() {
                enclosing_block_end(bytes, b0, b1, at)
            } else {
                temp_guard_end(bytes, head, span)
            };
            f.guards.push(GuardRange {
                lock_id,
                binding,
                acquire_offset: at,
                end,
                span,
                line,
            });
        }
    }

    // Channel operations.
    for (send, token) in CHANNEL_TOKENS {
        for rel in find_token(body, token) {
            let at = b0 + rel;
            if skip(at) {
                continue;
            }
            f.chans.push(ChanSite {
                send,
                receiver: receiver_chain(masked, at),
                offset: at,
                line: src.line_of(at),
            });
        }
    }

    // Directly-blocking operations: condvar waits, `.join()`, sleeps.
    for token in WAIT_TOKENS {
        for rel in find_token(body, token) {
            let at = b0 + rel;
            if skip(at) {
                continue;
            }
            let open = at + token.len() - 1;
            let args_end = match_paren(bytes, open).saturating_sub(1).max(open + 1);
            let args = masked[open + 1..args_end.min(b1)].trim();
            let released = wait_released_guard(args);
            f.blocks.push(BlockSite {
                what: token.to_string(),
                releases: released,
                offset: at,
                line: src.line_of(at),
            });
        }
    }
    for rel in find_token(body, ".join()") {
        let at = b0 + rel;
        if !skip(at) {
            f.blocks.push(BlockSite {
                what: "join".to_string(),
                releases: None,
                offset: at,
                line: src.line_of(at),
            });
        }
    }

    // Calls, spawns, sleeps, and drops.
    scan_calls(f, src, masked, b0, b1, nested);

    // Non-deterministic sources (A4), atomic orderings (A5), and
    // order-unstable reductions (A6).
    scan_taints(f, src, masked, b0, b1, nested, spans, maps);
    scan_atomics(f, src, masked, b0, b1, nested);
    scan_reductions(f, src, masked, b0, b1, nested, spans);

    // Panic (A8) and fresh-allocation (A9) sites.
    scan_panics(f, src, masked, b0, b1, nested);
    scan_allocs(f, src, masked, b0, b1, nested);

    // Truncate named-guard ranges at `drop(binding)`.
    let drops = f.drops.clone();
    for g in &mut f.guards {
        if let Some(name) = &g.binding {
            for (dropped, at) in &drops {
                if dropped == name && g.acquire_offset < *at && *at < g.end {
                    g.end = *at;
                }
            }
        }
    }

    // Channel pairs and queue declarations, per statement span.
    for &(s, e) in spans {
        if e <= b0 || s >= b1 || skip(s.max(b0)) {
            continue;
        }
        let span = &masked[s.max(b0)..e.min(b1)];
        let head = span.trim_start();
        let line = src.line_of(s.max(b0));
        if let Some((tx, rx)) = parse_pair_binding(head) {
            if ["channel", "unbounded", "bounded", "sync_channel"]
                .iter()
                .any(|t| span.contains(&format!("{t}(")))
            {
                f.pairs.push(ChannelPair { tx, rx, line });
            }
        }
        if let Some(name) = parse_let_binding(head) {
            if span.contains("BlockingQueue::new") || span.contains("GradientQueue::new") {
                f.queues.push(QueueDecl {
                    name,
                    span: (s, e),
                    line,
                });
            }
        }
    }
}

fn stem_of(name: &str) -> String {
    name.split("::").next().unwrap_or(name).to_string()
}

/// Wall-clock reads.
const TIME_TOKENS: [&str; 4] = [
    "Instant::now(",
    "SystemTime::now(",
    "UNIX_EPOCH",
    ".elapsed()",
];

/// Ambient (unseeded) RNG reads. Seeded streams (`ChaCha8Rng::seed_from_u64`
/// et al.) are deterministic and deliberately absent.
const RNG_TOKENS: [&str; 3] = ["thread_rng(", "from_entropy(", "rand::random"];

/// Thread-identity / parallelism reads.
const THREAD_TOKENS: [&str; 3] = [
    "available_parallelism(",
    "thread::current(",
    "current_num_threads(",
];

/// Iteration adapters whose order is arbitrary on hash collections.
const MAP_ITER_TOKENS: [&str; 7] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

/// Rayon adapters that make reduction order scheduling-dependent.
const PAR_TOKENS: [&str; 6] = [
    ".par_iter()",
    ".par_iter_mut()",
    ".into_par_iter()",
    ".par_chunks(",
    ".par_chunks_mut(",
    ".par_bridge()",
];

/// Bindings and fields in a file whose declared (or constructed) type is a
/// `HashMap`/`HashSet`. Walks back from each type token over wrappers
/// (`Arc<`, `Mutex<`, `&`, paths) to the `name:` field/param or `name =`
/// binding that owns it.
fn map_idents(masked: &str) -> BTreeSet<String> {
    let bytes = masked.as_bytes();
    let mut out = BTreeSet::new();
    for tok in ["HashMap", "HashSet"] {
        for at in find_token(masked, tok) {
            if !boundary_ok(masked, at, tok) {
                continue;
            }
            let mut i = at;
            loop {
                while i > 0 && bytes[i - 1].is_ascii_whitespace() {
                    i -= 1;
                }
                if i > 0 && bytes[i - 1] == b'<' {
                    i -= 1;
                    while i > 0
                        && (bytes[i - 1] == b'_'
                            || bytes[i - 1] == b':'
                            || bytes[i - 1].is_ascii_alphanumeric())
                    {
                        i -= 1;
                    }
                    continue;
                }
                if i > 0 && bytes[i - 1] == b'&' {
                    i -= 1;
                    continue;
                }
                break;
            }
            if i == 0 {
                continue;
            }
            // `name: HashMap<..>` (struct field / typed binding, not `::`)
            // or `name = HashMap::new()` (assignment, not `==`/`!=`/…).
            let field = bytes[i - 1] == b':' && !(i >= 2 && bytes[i - 2] == b':');
            let assign = bytes[i - 1] == b'='
                && !(i >= 2 && matches!(bytes[i - 2], b'=' | b'!' | b'<' | b'>'));
            let name = if field || assign {
                ident_before(masked, i - 1)
            } else {
                None
            };
            if let Some(n) = name {
                out.insert(n);
            }
        }
    }
    out
}

/// The identifier ending just before `end` (after skipping whitespace).
fn ident_before(masked: &str, end: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let mut i = end;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    let stop = i;
    while i > 0 && (bytes[i - 1] == b'_' || bytes[i - 1].is_ascii_alphanumeric()) {
        i -= 1;
    }
    if i == stop {
        return None;
    }
    let name = &masked[i..stop];
    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) || name == "mut" || name == "let" {
        return None;
    }
    Some(name.to_string())
}

/// Order-insensitive reduction tail: the combiner is pure min/max with no
/// arithmetic, e.g. `.fold(f32::INFINITY, |m, &r| m.min(r))`.
fn order_insensitive(tail: &str) -> bool {
    (tail.contains(".min(") || tail.contains(".max("))
        && !tail.contains('+')
        && !tail.contains('*')
        && !tail.contains('/')
        && !tail.contains(" - ")
}

/// Collect-then-sort: a later in-function sort neutralizes iteration order
/// before it can reach a result.
fn sorted_later(masked: &str, after: usize, b1: usize) -> bool {
    let rest = &masked[after.min(b1)..b1];
    [
        ".sort()",
        ".sort_unstable()",
        ".sort_by(",
        ".sort_by_key(",
        ".sort_unstable_by(",
        ".sort_unstable_by_key(",
    ]
    .iter()
    .any(|t| rest.contains(t))
}

#[expect(clippy::too_many_arguments)]
fn scan_taints(
    f: &mut FnInfo,
    src: &SourceFile,
    masked: &str,
    b0: usize,
    b1: usize,
    nested: &[(usize, usize)],
    spans: &[(usize, usize)],
    maps: &BTreeSet<String>,
) {
    let body = &masked[b0..b1];
    let skip = |at: usize| in_ranges(nested, at) || src.in_test(at);

    for (kind, tokens) in [
        (TaintKind::Time, &TIME_TOKENS[..]),
        (TaintKind::Rng, &RNG_TOKENS[..]),
        (TaintKind::ThreadId, &THREAD_TOKENS[..]),
    ] {
        for &token in tokens {
            for rel in find_token(body, token) {
                let at = b0 + rel;
                if skip(at) || !boundary_ok(body, rel, token) {
                    continue;
                }
                f.taints.push(TaintSite {
                    kind,
                    what: token.trim_end_matches('(').to_string(),
                    offset: at,
                    line: src.line_of(at),
                    sanitized: false,
                });
            }
        }
    }

    // Iteration adapters on known hash-collection bindings.
    for token in MAP_ITER_TOKENS {
        for rel in find_token(body, token) {
            let at = b0 + rel;
            if skip(at) {
                continue;
            }
            let recv = receiver_chain(masked, at);
            let last = recv.rsplit('.').next().unwrap_or("");
            if !maps.contains(last) {
                continue;
            }
            let span = span_of(spans, at);
            let tail = &masked[(at + token.len()).min(span.1)..span.1];
            let sanitized = order_insensitive(tail) || sorted_later(masked, at + token.len(), b1);
            f.taints.push(TaintSite {
                kind: TaintKind::MapIter,
                what: format!("{recv}{}", token.trim_end_matches('(')),
                offset: at,
                line: src.line_of(at),
                sanitized,
            });
        }
    }

    // `for x in &self.map { .. }` — direct iteration without an adapter.
    let bb = body.as_bytes();
    for rel in find_token(body, "in") {
        let at = b0 + rel;
        if skip(at) || !boundary_ok(body, rel, "in") {
            continue;
        }
        // Keyword position: whitespace on both sides.
        if rel == 0
            || !bb[rel - 1].is_ascii_whitespace()
            || rel + 2 >= bb.len()
            || !bb[rel + 2].is_ascii_whitespace()
        {
            continue;
        }
        let mut k = rel + 2;
        while k < bb.len() && bb[k].is_ascii_whitespace() {
            k += 1;
        }
        while k < bb.len() && bb[k] == b'&' {
            k += 1;
        }
        if body[k..].starts_with("mut ") {
            k += 4;
        }
        let mut last_seg: Option<(usize, usize)>;
        loop {
            let s = k;
            while k < bb.len() && (bb[k] == b'_' || bb[k].is_ascii_alphanumeric()) {
                k += 1;
            }
            if k == s {
                last_seg = None;
                break;
            }
            last_seg = Some((s, k));
            if k < bb.len() && bb[k] == b'.' {
                k += 1;
                continue;
            }
            break;
        }
        let Some((s, e)) = last_seg else { continue };
        let mut w = k;
        while w < bb.len() && bb[w].is_ascii_whitespace() {
            w += 1;
        }
        if w >= bb.len() || bb[w] != b'{' || !maps.contains(&body[s..e]) {
            continue;
        }
        f.taints.push(TaintSite {
            kind: TaintKind::MapIter,
            what: format!("for .. in {}", &body[s..e]),
            offset: b0 + s,
            line: src.line_of(b0 + s),
            sanitized: sorted_later(masked, e + b0, b1),
        });
    }
    f.taints.sort_by_key(|t| t.offset);
}

/// Atomic operations carrying an explicit `Ordering` argument.
const ATOMIC_TOKENS: [(AtomicOp, &str); 14] = [
    (AtomicOp::Load, ".load("),
    (AtomicOp::Store, ".store("),
    (AtomicOp::Rmw, ".swap("),
    (AtomicOp::Rmw, ".fetch_add("),
    (AtomicOp::Rmw, ".fetch_sub("),
    (AtomicOp::Rmw, ".fetch_and("),
    (AtomicOp::Rmw, ".fetch_or("),
    (AtomicOp::Rmw, ".fetch_xor("),
    (AtomicOp::Rmw, ".fetch_min("),
    (AtomicOp::Rmw, ".fetch_max("),
    (AtomicOp::Rmw, ".fetch_update("),
    (AtomicOp::Rmw, ".fetch_nand("),
    (AtomicOp::Rmw, ".compare_exchange("),
    (AtomicOp::Rmw, ".compare_exchange_weak("),
];

fn scan_atomics(
    f: &mut FnInfo,
    src: &SourceFile,
    masked: &str,
    b0: usize,
    b1: usize,
    nested: &[(usize, usize)],
) {
    let body = &masked[b0..b1];
    let bytes = masked.as_bytes();
    let skip = |at: usize| in_ranges(nested, at) || src.in_test(at);
    let qual = f.impl_type.clone();
    for (op, token) in ATOMIC_TOKENS {
        for rel in find_token(body, token) {
            let at = b0 + rel;
            if skip(at) {
                continue;
            }
            let open = at + token.len() - 1;
            let close = match_paren(bytes, open);
            let args = &masked[open + 1..close.saturating_sub(1).max(open + 1).min(b1)];
            // The `Ordering::` in the arguments is what distinguishes an
            // atomic op from e.g. `Vec::swap` or a config `load`. For
            // two-ordering ops the first (success) ordering is the protocol.
            let Some(ord_at) = args.find("Ordering::") else {
                continue;
            };
            let ord = args["Ordering::".len() + ord_at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric())
                .collect::<String>();
            if ord.is_empty() {
                continue;
            }
            let receiver = receiver_chain(masked, at);
            f.atomics.push(AtomicSite {
                atom_id: lock_id(&receiver, qual.as_deref(), &stem_of(&f.name)),
                op,
                ordering: ord,
                offset: at,
                line: src.line_of(at),
            });
        }
    }
    f.atomics.sort_by_key(|a| a.offset);
}

fn scan_reductions(
    f: &mut FnInfo,
    src: &SourceFile,
    masked: &str,
    b0: usize,
    b1: usize,
    nested: &[(usize, usize)],
    spans: &[(usize, usize)],
) {
    let body = &masked[b0..b1];
    let skip = |at: usize| in_ranges(nested, at) || src.in_test(at);
    for token in [".sum", ".product", ".fold(", ".reduce("] {
        for rel in find_token(body, token) {
            let at = b0 + rel;
            if skip(at) {
                continue;
            }
            if !token.ends_with('(') {
                // `.sum()` / `.sum::<f32>()` — not `.summary(..)`.
                let next = body[rel + token.len()..].chars().next();
                if !matches!(next, Some('(') | Some(':')) {
                    continue;
                }
            }
            let span = span_of(spans, at);
            let prefix = &masked[span.0.min(at)..at];
            let over = if PAR_TOKENS.iter().any(|t| prefix.contains(t)) {
                "parallel iterator"
            } else if f
                .taints
                .iter()
                .any(|t| t.kind == TaintKind::MapIter && span.0 <= t.offset && t.offset < at)
            {
                "HashMap/HashSet iteration"
            } else {
                continue;
            };
            let tail = &masked[at..span.1.max(at)];
            if order_insensitive(tail) {
                continue;
            }
            f.reductions.push(ReduceSite {
                over,
                what: token.trim_end_matches('(').to_string(),
                offset: at,
                line: src.line_of(at),
            });
        }
    }
    f.reductions.sort_by_key(|r| r.offset);
}

/// A `lint:allow(A8): why` comment on the same line or up to three lines
/// above consumes the panic site at extraction time (mirroring the
/// `// SAFETY:` window), so a justified site never becomes a finding and the
/// workspace stays at zero suppressions.
fn a8_allowed(src: &SourceFile, line: usize) -> bool {
    (line.saturating_sub(3)..=line).any(|l| {
        l >= 1
            && src
                .comment_text(l)
                .is_some_and(|c| c.contains("lint:allow(A8)"))
    })
}

/// Always-panicking macros and panicking `Option`/`Result` projections
/// (A8). `assert!`/`debug_assert!` are deliberately absent — they state
/// intended preconditions and the debug family strips in release — and
/// unchecked arithmetic overflow is out of scope (release builds wrap);
/// see DESIGN.md §14.
const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Short names of wire-decode functions where index expressions are also
/// panic sites: once real sockets land, a short frame must not be able to
/// take down a learner via `buf[..n]`.
const DECODE_FN_NAMES: [&str; 3] = ["decode", "decode_seq", "from_bytes"];

fn scan_panics(
    f: &mut FnInfo,
    src: &SourceFile,
    masked: &str,
    b0: usize,
    b1: usize,
    nested: &[(usize, usize)],
) {
    let body = &masked[b0..b1];
    let bytes = masked.as_bytes();
    let skip = |at: usize| in_ranges(nested, at) || src.in_test(at);
    for token in PANIC_TOKENS {
        for rel in find_token(body, token) {
            let at = b0 + rel;
            if skip(at) || !boundary_ok(body, rel, token) {
                continue;
            }
            let line = src.line_of(at);
            if a8_allowed(src, line) {
                continue;
            }
            f.panics.push(PanicSite {
                what: token.trim_end_matches('(').to_string(),
                offset: at,
                line,
            });
        }
    }
    let short = f.name.rsplit("::").next().unwrap_or(&f.name);
    if DECODE_FN_NAMES.contains(&short) {
        for (rel, _) in body.char_indices().filter(|&(_, c)| c == '[') {
            let at = b0 + rel;
            if skip(at) {
                continue;
            }
            // Index position: the previous non-ws byte must end a value
            // (identifier, `)`, `]`) — array literals/types, attributes,
            // and `vec![` all fail this test.
            let mut k = at;
            while k > b0 && bytes[k - 1].is_ascii_whitespace() {
                k -= 1;
            }
            if k == b0 {
                continue;
            }
            let prev = bytes[k - 1];
            if !(prev == b'_' || prev == b')' || prev == b']' || prev.is_ascii_alphanumeric()) {
                continue;
            }
            let line = src.line_of(at);
            if a8_allowed(src, line) {
                continue;
            }
            f.panics.push(PanicSite {
                what: "index []".to_string(),
                offset: at,
                line,
            });
        }
    }
    f.panics.sort_by_key(|p| p.offset);
}

/// Unconditional fresh-allocation tokens (A9) as `(kind, token)` pairs.
/// Capacity-reusing calls (`resize`, `reserve`, `extend`, `push`) are
/// deliberately absent: the counting-allocator bench polices those
/// dynamically; A9 pins fresh allocations that can never amortize away.
const ALLOC_TOKENS: [(&str, &str); 13] = [
    ("Vec::new", "Vec::new("),
    ("VecDeque::new", "VecDeque::new("),
    ("with_capacity", "::with_capacity("),
    ("vec!", "vec!["),
    ("Box::new", "Box::new("),
    ("to_vec", ".to_vec()"),
    ("collect", ".collect()"),
    ("collect", ".collect::<"),
    ("format!", "format!("),
    ("to_owned", ".to_owned()"),
    ("to_string", ".to_string()"),
    ("String::new", "String::new("),
    ("String::from", "String::from("),
];

fn scan_allocs(
    f: &mut FnInfo,
    src: &SourceFile,
    masked: &str,
    b0: usize,
    b1: usize,
    nested: &[(usize, usize)],
) {
    let body = &masked[b0..b1];
    let skip = |at: usize| in_ranges(nested, at) || src.in_test(at);
    for (kind, token) in ALLOC_TOKENS {
        for rel in find_token(body, token) {
            let at = b0 + rel;
            if skip(at) || !boundary_ok(body, rel, token) {
                continue;
            }
            f.allocs.push(AllocSite {
                what: kind.to_string(),
                offset: at,
                line: src.line_of(at),
            });
        }
    }
    f.allocs.sort_by_key(|a| a.offset);
}

/// Normalized lock identity. `self.*` receivers are qualified by the impl
/// type so `BlockingQueue::self.inner` and `GradientQueue::self.inner` stay
/// distinct; other receivers are qualified by the defining scope so a local
/// `server` in two files never aliases.
fn lock_id(receiver: &str, impl_type: Option<&str>, scope: &str) -> String {
    let recv = if receiver.is_empty() {
        "<expr>"
    } else {
        receiver
    };
    if recv == "self" || recv.starts_with("self.") {
        format!("{}::{recv}", impl_type.unwrap_or(scope))
    } else {
        format!("{scope}::{recv}")
    }
}

/// Walks backwards from `at` (the `.` of `.lock()` / `.send(` / a method
/// call) and produces a normalized receiver chain: identifiers joined by
/// `.`, with call-argument and index contents elided, so
/// `self.pools[kind_index(kind)].warm` becomes `self.pools.warm` and
/// `sink().events` becomes `sink.events`.
pub fn receiver_chain(masked: &str, at: usize) -> String {
    let bytes = masked.as_bytes();
    let mut segs: Vec<String> = Vec::new();
    let mut i = at;
    loop {
        // Before each segment: skip ws, then expect `)`/`]` groups or a word.
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        let mut suffixed = false;
        while i > 0 && (bytes[i - 1] == b')' || bytes[i - 1] == b']') {
            let close = bytes[i - 1];
            let open = if close == b')' { b'(' } else { b'[' };
            let mut depth = 0usize;
            while i > 0 {
                i -= 1;
                if bytes[i] == close {
                    depth += 1;
                } else if bytes[i] == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
            suffixed = true;
            while i > 0 && bytes[i - 1].is_ascii_whitespace() {
                i -= 1;
            }
        }
        let end = i;
        while i > 0 && (bytes[i - 1] == b'_' || bytes[i - 1].is_ascii_alphanumeric()) {
            i -= 1;
        }
        if i == end {
            // No identifier: `(expr).lock()` or similar — give up on the
            // prefix; what we have is the best normalization available.
            break;
        }
        let _ = suffixed;
        segs.push(masked[i..end].to_string());
        // Continue through `.` or `::` connectors.
        if i >= 1 && bytes[i - 1] == b'.' {
            i -= 1;
        } else if i >= 2 && bytes[i - 1] == b':' && bytes[i - 2] == b':' {
            i -= 2;
        } else {
            break;
        }
    }
    segs.reverse();
    segs.join(".")
}

/// If the statement head binds the lock expression (`let g = ..` /
/// `let mut g = ..` / `g = ..`), and nothing but guard-preserving suffixes
/// (`.unwrap()`, `.expect(..)`, `.unwrap_or_else(..)`) follow the lock token
/// in the span, returns the binding name.
fn guard_binding(head: &str, masked: &str, after: usize, span_end: usize) -> Option<String> {
    let name = parse_let_binding(head).or_else(|| parse_reassignment(head))?;
    let mut tail = masked[after.min(span_end)..span_end].trim();
    loop {
        if tail.is_empty() {
            return Some(name);
        }
        if let Some(rest) = tail.strip_prefix(".unwrap()") {
            tail = rest.trim_start();
            continue;
        }
        let mut stripped = false;
        for prefix in [".expect(", ".unwrap_or_else("] {
            if let Some(rest) = tail.strip_prefix(prefix) {
                let bytes = rest.as_bytes();
                let mut depth = 1usize;
                let mut k = 0;
                while k < bytes.len() && depth > 0 {
                    match bytes[k] {
                        b'(' => depth += 1,
                        b')' => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                tail = rest[k..].trim_start();
                stripped = true;
                break;
            }
        }
        if !stripped {
            // Anything else (arithmetic, a method projecting out of the
            // guard, `?`) means the binding is not the guard itself.
            return None;
        }
    }
}

/// `let name = ..` / `let mut name = ..` / `let name: T = ..` -> `name`.
fn parse_let_binding(head: &str) -> Option<String> {
    let rest = head.strip_prefix("let ")?.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let end = rest
        .find(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    let after = rest[end..].trim_start();
    if after.starts_with('=') && !after.starts_with("==") || after.starts_with(':') {
        Some(rest[..end].to_string())
    } else {
        None
    }
}

/// `name = ..` (re-acquisition into an existing binding) -> `name`.
fn parse_reassignment(head: &str) -> Option<String> {
    let end = head
        .find(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
        .unwrap_or(head.len());
    if end == 0 {
        return None;
    }
    let after = head[end..].trim_start();
    if after.starts_with('=') && !after.starts_with("==") {
        Some(head[..end].to_string())
    } else {
        None
    }
}

/// End of a temporary guard's live range: the statement span, extended to
/// the matching `}` for `match` / `if let` / `while let` scrutinees (whose
/// temporaries live for the whole construct — a classic deadlock footgun).
fn temp_guard_end(bytes: &[u8], head: &str, span: (usize, usize)) -> usize {
    let scrutinee =
        head.starts_with("match ") || head.starts_with("if let ") || head.starts_with("while let ");
    if scrutinee && span.1 < bytes.len() && bytes[span.1] == b'{' {
        return match_brace(bytes, span.1);
    }
    span.1
}

/// End of the block enclosing `at`, clamped to the function body.
fn enclosing_block_end(bytes: &[u8], b0: usize, b1: usize, at: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let mut i = b0;
    while i < at {
        match bytes[i] {
            b'{' => stack.push(i),
            b'}' => {
                stack.pop();
            }
            _ => {}
        }
        i += 1;
    }
    match stack.last() {
        Some(&open) => match_brace(bytes, open).min(b1),
        None => b1,
    }
}

/// For a condvar-wait argument list, the guard binding it releases:
/// `&mut guard` (parking_lot) or a leading bare `guard` (std, by value).
fn wait_released_guard(args: &str) -> Option<String> {
    let rest = args.strip_prefix("&mut ").unwrap_or(args).trim_start();
    let end = rest
        .find(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    let after = rest[end..].trim_start();
    if after.is_empty() || after.starts_with(',') {
        Some(rest[..end].to_string())
    } else {
        None
    }
}

/// Keywords and control-flow words that look like calls in `word (`.
const NON_CALL_WORDS: [&str; 26] = [
    "if", "while", "for", "match", "return", "in", "as", "move", "fn", "let", "loop", "else",
    "unsafe", "ref", "mut", "box", "dyn", "impl", "pub", "where", "use", "mod", "break",
    "continue", "await", "async",
];

fn scan_calls(
    f: &mut FnInfo,
    src: &SourceFile,
    masked: &str,
    b0: usize,
    b1: usize,
    nested: &[(usize, usize)],
) {
    let bytes = masked.as_bytes();
    let mut i = b0;
    while i < b1 {
        let c = bytes[i];
        if !(c == b'_' || c.is_ascii_alphabetic()) {
            i += 1;
            continue;
        }
        let start = i;
        while i < b1 && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
            i += 1;
        }
        if start > b0 && (bytes[start - 1] == b'_' || bytes[start - 1].is_ascii_alphanumeric()) {
            continue; // mid-identifier (can't happen given the scan, but safe)
        }
        let word = &masked[start..i];
        // Look ahead to the next non-ws byte.
        let mut j = i;
        while j < b1 && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= b1 || bytes[j] != b'(' {
            continue;
        }
        if in_ranges(nested, start) || src.in_test(start) {
            continue;
        }
        if NON_CALL_WORDS.contains(&word) {
            continue;
        }
        // Tuple structs / enum variants / type constructors: skip.
        if word.starts_with(|c: char| c.is_ascii_uppercase()) {
            continue;
        }
        // Macros: `word!(..)` never reaches here (the `!` breaks the
        // lookahead), but `word !(..)` would; guard anyway.
        let line = src.line_of(start);
        // Qualifier / receiver context.
        let mut k = start;
        while k > b0 && bytes[k - 1].is_ascii_whitespace() {
            k -= 1;
        }
        let (type_qual, receiver) = if k >= 2 && bytes[k - 1] == b':' && bytes[k - 2] == b':' {
            // `seg::word(` — the segment decides: a type (uppercase/Self)
            // qualifies the call; a module path degrades to a free call.
            let seg_end = k - 2;
            let mut s = seg_end;
            while s > b0 && (bytes[s - 1] == b'_' || bytes[s - 1].is_ascii_alphanumeric()) {
                s -= 1;
            }
            let seg = &masked[s..seg_end];
            // Strip `<..>` turbofish-free generics are not expected here.
            if seg == "Self" || seg.starts_with(|c: char| c.is_ascii_uppercase()) {
                (Some(seg.to_string()), None)
            } else {
                (None, None)
            }
        } else if k >= 1 && bytes[k - 1] == b'.' {
            (None, Some(receiver_chain(masked, k - 1)))
        } else {
            (None, None)
        };
        if word == "spawn" {
            f.spawns.push(line);
        }
        if word == "sleep" {
            f.blocks.push(BlockSite {
                what: "sleep".to_string(),
                releases: None,
                offset: start,
                line,
            });
            continue;
        }
        if word == "drop" && type_qual.is_none() && receiver.is_none() {
            // `drop(name)`: record the dropped binding.
            let close = match_paren(bytes, j);
            let arg = masked[j + 1..close.saturating_sub(1).max(j + 1)].trim();
            if !arg.is_empty() && arg.chars().all(|c| c == '_' || c.is_ascii_alphanumeric()) {
                f.drops.push((arg.to_string(), start));
            }
            continue;
        }
        f.calls.push(CallSite {
            name: word.to_string(),
            type_qual,
            receiver,
            offset: start,
            line,
        });
    }
}

/// `let (a, b) = ..` / `let (mut a, mut b) = ..` -> `(a, b)`.
fn parse_pair_binding(head: &str) -> Option<(String, String)> {
    let rest = head.strip_prefix("let ")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let inner = &rest[..close];
    let mut names = inner
        .split(',')
        .map(|p| p.trim().trim_start_matches("mut ").trim().to_string());
    let a = names.next()?;
    let b = names.next()?;
    if names.next().is_some() || a.is_empty() || b.is_empty() {
        return None;
    }
    let ident = |s: &str| s.chars().all(|c| c == '_' || c.is_ascii_alphanumeric());
    if ident(&a) && ident(&b) {
        Some((a, b))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src_text: &str) -> (SourceFile, FileModel) {
        let src = SourceFile::parse(src_text);
        let m = model_file("crates/x/src/sample.rs", &src);
        (src, m)
    }

    #[test]
    fn finds_functions_and_impl_qualification() {
        let (_, m) =
            model("pub struct Q;\nimpl Q {\n    pub fn push(&self) {}\n}\nfn free_fn() {}\n");
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["Q::push", "sample::free_fn"]);
    }

    #[test]
    fn generic_impl_blocks_qualify_their_methods() {
        let (_, m) = model(
            "impl<T: Clone> Q<T> { fn push(&self) {} }\n\
             impl<F: Fn() -> u64> Tr for W<F> { fn run(&self) {} }\n",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["Q::push", "W::run"]);
    }

    #[test]
    fn return_position_impl_does_not_open_a_block() {
        let (_, m) = model("fn f() -> impl Iterator<Item = u64> {\n    std::iter::empty()\n}\n");
        assert_eq!(m.fns.len(), 1);
        assert!(m.fns[0].impl_type.is_none());
    }

    #[test]
    fn lock_ids_qualify_self_by_impl_type() {
        let (_, m) = model(
            "struct A; impl A { fn f(&self) { let g = self.inner.lock(); g.len(); } }\n\
             struct B; impl B { fn f(&self) { let g = self.inner.lock(); g.len(); } }\n",
        );
        assert_eq!(m.fns[0].acquires[0].lock_id, "A::self.inner");
        assert_eq!(m.fns[1].acquires[0].lock_id, "B::self.inner");
    }

    #[test]
    fn receiver_chain_elides_indexes_and_calls() {
        let masked = "self.pools[kind_index(kind)].warm.lock()";
        let at = masked.find(".lock()").unwrap();
        assert_eq!(receiver_chain(masked, at), "self.pools.warm");
        let masked = "sink().events.lock()";
        let at = masked.find(".lock()").unwrap();
        assert_eq!(receiver_chain(masked, at), "sink.events");
    }

    #[test]
    fn named_guard_lives_to_block_end_or_drop() {
        let (_, m) = model(
            "fn f(a: &M, b: &M) {\n    let g = a.lock();\n    use_it(&g);\n    drop(g);\n    after();\n}\n",
        );
        let f = &m.fns[0];
        let g = &f.guards[0];
        assert_eq!(g.binding.as_deref(), Some("g"));
        let drop_at = f.drops[0].1;
        assert_eq!(g.end, drop_at, "range truncated at drop");
    }

    #[test]
    fn std_unwrap_suffix_still_binds_a_guard() {
        let (_, m) = model("fn f(a: &M) { let g = a.lock().unwrap(); g.len(); }\n");
        assert_eq!(m.fns[0].guards[0].binding.as_deref(), Some("g"));
    }

    #[test]
    fn projection_through_guard_is_a_temporary() {
        let (_, m) = model("fn f(a: &M) { let n = a.lock().len(); other(n); }\n");
        let g = &m.fns[0].guards[0];
        assert!(g.binding.is_none(), "projected value is not a guard");
        assert!(g.end <= m.fns[0].body.1);
    }

    #[test]
    fn match_scrutinee_temporary_extends_to_close_brace() {
        let src_text =
            "fn f(a: &M) {\n    match a.lock().state() {\n        S::X => one(),\n        _ => two(),\n    }\n}\n";
        let (_, m) = model(src_text);
        let g = &m.fns[0].guards[0];
        let close = src_text.rfind('}').unwrap(); // fn close
        assert!(g.end > src_text.find("two").unwrap(), "extends over arms");
        assert!(g.end < close);
    }

    #[test]
    fn condvar_wait_releases_named_guard() {
        let (_, m) = model(
            "fn f(&self) { let mut q = self.m.lock(); while q.is_empty() { self.c.wait(&mut q); } }\n",
        );
        let b = &m.fns[0].blocks[0];
        assert_eq!(b.releases.as_deref(), Some("q"));
    }

    #[test]
    fn path_join_is_not_blocking() {
        let (_, m) = model("fn f(p: &Path) -> PathBuf { p.join(\"x\") }\n");
        assert!(m.fns[0].blocks.is_empty());
        let (_, m) = model("fn f(h: JoinHandle<()>) { h.join(); }\n");
        assert_eq!(m.fns[0].blocks.len(), 1);
    }

    #[test]
    fn calls_record_qualifiers_and_receivers() {
        let (_, m) = model(
            "fn f(x: &T) { helper(1); x.method(2); Kind::of(3); mod_a::free(4); Some(5); }\n",
        );
        let calls = &m.fns[0].calls;
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["helper", "method", "of", "free"]);
        assert_eq!(calls[1].receiver.as_deref(), Some("x"));
        assert_eq!(calls[2].type_qual.as_deref(), Some("Kind"));
        assert!(calls[3].type_qual.is_none(), "module path is a free call");
    }

    #[test]
    fn channel_pairs_and_queue_decls() {
        let (_, m) = model(
            "fn f() {\n    let (tx, rx) = std::sync::mpsc::channel();\n    let q = BlockingQueue::new();\n    tx.send(1u64).ok();\n    let _ = rx.recv();\n    q.push(2u64);\n}\n",
        );
        let f = &m.fns[0];
        assert_eq!(f.pairs.len(), 1);
        assert_eq!(
            (f.pairs[0].tx.as_str(), f.pairs[0].rx.as_str()),
            ("tx", "rx")
        );
        assert_eq!(f.queues.len(), 1);
        assert_eq!(f.queues[0].name, "q");
        assert_eq!(f.chans.iter().filter(|c| c.send).count(), 1);
        assert_eq!(f.chans.iter().filter(|c| !c.send).count(), 1);
    }

    #[test]
    fn nested_fns_do_not_leak_facts() {
        let (_, m) = model(
            "fn outer(a: &M) {\n    fn inner(b: &M) { let g = b.lock(); g.len(); }\n    inner(a);\n}\n",
        );
        let outer = m.fns.iter().find(|f| f.name.ends_with("outer")).unwrap();
        assert!(outer.acquires.is_empty(), "inner's lock is not outer's");
        let inner = m.fns.iter().find(|f| f.name.ends_with("inner")).unwrap();
        assert_eq!(inner.acquires.len(), 1);
    }

    #[test]
    fn panic_sites_respect_boundaries_and_allows() {
        let (_, m) = model(
            "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.unwrap_or(0);\n    // lint:allow(A8): fixture justification\n    let c = x.expect(\"set\");\n    a + b + c\n}\n",
        );
        let p = &m.fns[0].panics;
        assert_eq!(p.len(), 1, "{p:?}");
        assert_eq!(p[0].what, ".unwrap()");
    }

    #[test]
    fn decode_fns_flag_index_expressions_but_other_fns_do_not() {
        let (_, m) = model(
            "fn decode(buf: &[u8]) -> u32 {\n    let head = &buf[..4];\n    let arr = [0u8; 4];\n    arr[0] as u32 + head.len() as u32\n}\nfn helper(buf: &[u8]) -> u8 {\n    buf[0]\n}\n",
        );
        let dec = m.fns.iter().find(|f| f.name.ends_with("decode")).unwrap();
        let idx: Vec<_> = dec.panics.iter().filter(|p| p.what == "index []").collect();
        assert_eq!(idx.len(), 2, "{:?}", dec.panics);
        let other = m.fns.iter().find(|f| f.name.ends_with("helper")).unwrap();
        assert!(other.panics.is_empty(), "{:?}", other.panics);
    }

    #[test]
    fn alloc_sites_track_fresh_allocations_only() {
        let (_, m) = model(
            "fn f(v: &mut Vec<f32>, s: &[f32]) -> Vec<f32> {\n    v.resize(8, 0.0);\n    v.extend_from_slice(s);\n    let w = s.to_vec();\n    let mut out = Vec::with_capacity(8);\n    out.push(1.0);\n    w\n}\n",
        );
        let kinds: Vec<&str> = m.fns[0].allocs.iter().map(|a| a.what.as_str()).collect();
        assert_eq!(kinds, ["to_vec", "with_capacity"]);
    }

    #[test]
    fn test_regions_are_excluded() {
        let (_, m) = model(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.lock(); }\n}\n",
        );
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "sample::prod");
    }
}
