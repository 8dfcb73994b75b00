//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation applied to [`Var`] handles; calling
//! [`Graph::backward`] replays the tape in reverse, accumulating gradients.
//! Each learner function in Stellaris builds a fresh graph per mini-batch
//! (mirroring the per-invocation lifetime of a serverless function), so the
//! tape never outlives one gradient computation. Node values are shared into
//! backward closures via `Rc`, so recording an op never copies tensor data,
//! and parameters are borrowed for the tape's lifetime ([`Graph::param`]),
//! so binding a network copies none of its weights.
//!
//! # Gradient arena
//!
//! Backward closures do not return freshly allocated gradients; they
//! *accumulate* into per-node buffers owned by a [`GradSink`] (axpy-style
//! `+=`). A closure whose product can seed itself from `+0` (the dense and
//! matmul GEMMs, `accumulate = false`) writes a node's first contribution
//! instead ([`GradSink::write`]), so that buffer is neither zeroed nor read
//! back; every element is the same chain from `+0`, so the bits are the
//! same. The buffers live in a thread-local arena that is recycled across
//! `Graph` lifetimes, so once warm, a PPO epoch performs O(1) heap
//! allocations per backward step instead of O(nodes). The counting-allocator
//! test `tests/arena_allocs.rs` holds that discipline: it runs a tape through
//! every backward closure here, so a copy made inside one fails it. A
//! test-only cloning backward pass retains the historical
//! allocate-per-contribution strategy as a differential-test reference;
//! both paths run the same closures and produce identical gradients (see
//! DESIGN.md §11 for the exactness argument).
//!
//! # Gradient reachability
//!
//! Every node records its parents, and `backward(loss, wrt)` says which
//! gradients are wanted. Before replaying the tape, one forward sweep marks
//! the nodes some `wrt` variable can be reached from (a node is marked when
//! it is requested or one of its parents is marked); [`GradSink::with`]
//! returns without claiming a buffer or running its closure for any other
//! parent, so an unmarked node never becomes live and its own backward
//! closure never runs. What disappears on the training paths is the
//! gradient of the observation: the first convolution's `dX` and the first
//! dense layer's. A marked node still receives every contribution it
//! received before, in the same order, so the requested gradients keep their
//! bits; both strategies share the sink and prune alike.
//!
//! # Per-op spans
//!
//! The process's first traced tape, and then one tape in [`OP_SPAN_EVERY`]
//! whatever thread records it, records an `nn.op` span per node while
//! tracing is on: in the forward pass, the time from the previous node's
//! append to this one's (so the span holds the op's compute and the
//! caller's glue before it); in the backward pass, the node's closure, plus
//! the pass's seeding, its copy of the gradients out (`gradients`) and,
//! through [`Graph::backward_clipped`], the norm clip. Each span
//! carries the static op name and the pass, so a learner's step is named
//! op by op from a traced run.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use stellaris_telemetry as telemetry;

use crate::conv::{
    conv2d_forward, conv2d_input_grad, conv2d_weight_grad, gradient_rows, Conv2dSpec,
};
use crate::gemm::{self, FusedAct, MatRef};
use crate::optim::clip_grad_norm;
use crate::tensor::Tensor;

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// The node index inside its graph.
    #[inline]
    pub fn id(self) -> usize {
        self.0
    }
}

/// Gradient callback: receives the node's upstream gradient and accumulates
/// contributions for its parents into the sink.
type BackwardFn<'p> = Box<dyn Fn(&Tensor, &mut GradSink) + 'p>;

/// A node's value: one the tape computed, shared into backward closures by
/// `Rc`, or a parameter the tape borrows for its lifetime `'p`
/// ([`Graph::param`]), so binding a network copies none of its weights.
#[derive(Clone)]
enum Value<'p> {
    Owned(Rc<Tensor>),
    Borrowed(&'p Tensor),
}

impl Value<'_> {
    fn owned(t: Tensor) -> Self {
        Value::Owned(Rc::new(t))
    }
}

impl std::ops::Deref for Value<'_> {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Value::Owned(t) => t,
            Value::Borrowed(t) => t,
        }
    }
}

struct Node<'p> {
    value: Value<'p>,
    /// The op that recorded the node, named in its `nn.op` spans.
    op: &'static str,
    /// The nodes `backward` feeds (no op has more than three).
    parents: [Option<Var>; 3],
    backward: Option<BackwardFn<'p>>,
}

/// Reusable backward workspace: one gradient buffer per node plus a flat
/// scratch vector for ops that need a temporary (fused dense, conv2d).
#[derive(Default)]
struct GradArena {
    bufs: Vec<Tensor>,
    live: Vec<bool>,
    /// Nodes some requested variable is reachable from (module docs).
    wanted: Vec<bool>,
    scratch: Vec<f32>,
}

impl GradArena {
    /// Nodes that received a gradient in the last backward pass.
    fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }
}

thread_local! {
    /// Arena pool shared by every `Graph` on this thread. `backward` pops an
    /// arena (or creates one cold) and returns it when done, so consecutive
    /// graphs — e.g. the minibatch loop of a PPO epoch — reuse the same
    /// gradient buffers. Nested backward calls (gradient checking) simply
    /// grow the pool to the maximum concurrent depth.
    static ARENA_POOL: RefCell<Vec<GradArena>> = const { RefCell::new(Vec::new()) };
}

/// Accumulation target handed to backward closures.
///
/// [`GradSink::with`] hands the closure a zero-initialised (on first touch)
/// gradient buffer for a parent node to accumulate into. In arena mode the
/// buffer is the node's recycled arena slot; in cloning mode (the
/// test-only reference backward pass) a fresh tensor is allocated
/// per contribution and merged, reproducing the historical allocation
/// behaviour exactly.
pub struct GradSink<'a> {
    bufs: &'a mut [Tensor],
    live: &'a mut [bool],
    wanted: &'a [bool],
    nodes: &'a [Node<'a>],
    scratch: &'a mut Vec<f32>,
    cloning: bool,
}

impl GradSink<'_> {
    /// Accumulates into the gradient buffer of `parent`. The closure sees a
    /// buffer shaped like the parent's value; on the parent's first
    /// contribution it is all zeros, afterwards it holds the running sum, so
    /// closures must only ever `+=` into it. When no requested variable is
    /// reachable from `parent` its gradient is not wanted and `f` never runs.
    pub fn with(&mut self, parent: Var, f: impl FnOnce(&mut Tensor)) {
        self.write(parent, |d, first| {
            if first {
                d.data_mut().fill(0.0);
            }
            f(d);
        });
    }

    /// Like [`GradSink::with`], for a closure that can write a first
    /// contribution instead of adding it: when `first` is true the buffer
    /// holds no earlier contribution and its contents are unspecified, and
    /// the closure must set every element to what adding into zeros would
    /// give (a product seeded with `+0`, as `accumulate = false` does).
    /// That saves zeroing the buffer and reading the zeros back. The
    /// cloning reference always passes `first = false` on a zeroed buffer,
    /// so the differential tests compare the two ways bit for bit.
    pub fn write(&mut self, parent: Var, f: impl FnOnce(&mut Tensor, bool)) {
        let pid = parent.0;
        // The tape is append-only, so parents always precede their children;
        // the slice handed to us ends right before the current node.
        assert!(
            pid < self.bufs.len(),
            "backward contribution targets a non-parent node"
        );
        if !self.wanted[pid] {
            return;
        }
        let shape = self.nodes[pid].value.shape();
        if self.cloning {
            let mut tmp = Tensor::zeros(shape);
            f(&mut tmp, false);
            if self.live[pid] {
                self.bufs[pid].add_assign(&tmp);
            } else {
                self.bufs[pid] = tmp;
                self.live[pid] = true;
            }
        } else {
            let first = !self.live[pid];
            if first {
                self.bufs[pid].reuse_as(shape);
                self.live[pid] = true;
            }
            f(&mut self.bufs[pid], first);
        }
    }

    /// Whether `parent`'s gradient is wanted: when it is not, `with` and
    /// `write` skip their closures.
    pub fn wants(&self, parent: Var) -> bool {
        self.wanted.get(parent.0).copied().unwrap_or(false)
    }

    /// Adds `g` verbatim to the parent's gradient (the identity-Jacobian
    /// case: add, broadcast pass-through, ...).
    pub fn add(&mut self, parent: Var, g: &Tensor) {
        self.with(parent, |d| d.add_assign(g));
    }

    /// Borrows the arena's flat scratch vector (empty or holding garbage
    /// from a previous op; callers must clear/resize). Return it with
    /// [`GradSink::restore_scratch`] so the capacity is recycled.
    pub fn take_scratch(&mut self) -> Vec<f32> {
        std::mem::take(self.scratch)
    }

    /// Returns the scratch vector taken with [`GradSink::take_scratch`].
    pub fn restore_scratch(&mut self, scratch: Vec<f32>) {
        *self.scratch = scratch;
    }
}

/// A single-use autodiff tape. `'p` is how long the parameters it borrows
/// ([`Graph::param`]) live.
pub struct Graph<'p> {
    nodes: RefCell<Vec<Node<'p>>>,
    /// Telemetry timestamp of tape creation. The forward pass *is* the
    /// tape's lifetime up to `backward`, so the first `backward` call emits
    /// a retroactive `nn.forward` span covering `[born_us, now]`.
    born_us: u64,
    forward_emitted: Cell<bool>,
    /// Whether this tape records an `nn.op` span per node (module docs).
    sampled: bool,
    /// When the last node was appended (the tape's creation before that).
    last_us: Cell<u64>,
}

/// One tape in this many records per-node `nn.op` spans, the process's
/// first traced tape among them: a sampled tape adds two clock reads and
/// one buffered event per node, which every tape paying would cost more
/// than the ops it names on small networks.
pub const OP_SPAN_EVERY: u64 = 64;

/// Tapes created in this process while tracing was on. One count for every
/// thread, so the sampling rate does not depend on how the tapes are spread
/// over threads (a lock-step learner runs each invocation on a fresh one).
/// Updated `Relaxed`: the count publishes no other data.
static TRACED_TAPES: AtomicU64 = AtomicU64::new(0);

/// Whether a tape created now records `nn.op` spans: tracing is on and
/// this is the process's first traced tape or a multiple of
/// [`OP_SPAN_EVERY`] after it.
fn sample_tape() -> bool {
    telemetry::enabled()
        && TRACED_TAPES
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(OP_SPAN_EVERY)
}

/// Records one `nn.op` span: `op` over `[start, end]` in the given pass.
fn op_span(op: &'static str, pass: &'static str, start: u64, end: u64) {
    telemetry::span_closed(
        "nn.op",
        start,
        end.saturating_sub(start),
        // lint:allow(A9): runs only on a sampled tape with tracing on, never on an untraced warm step
        vec![("op", op.into()), ("pass", pass.into())],
    );
}

impl Default for Graph<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'p> Graph<'p> {
    /// Creates an empty tape.
    pub fn new() -> Self {
        let born_us = telemetry::now_us();
        Self {
            nodes: RefCell::new(Vec::with_capacity(64)),
            born_us,
            forward_emitted: Cell::new(false),
            sampled: sample_tape(),
            last_us: Cell::new(born_us),
        }
    }

    /// Clears the tape for reuse, keeping the node vector's capacity. The telemetry forward-span clock restarts, as if
    /// freshly constructed.
    pub fn reset(&mut self) {
        self.nodes.get_mut().clear();
        self.born_us = telemetry::now_us();
        self.forward_emitted.set(false);
        self.sampled = sample_tape();
        self.last_us.set(self.born_us);
    }

    fn push(
        &self,
        op: &'static str,
        value: Tensor,
        parents: &[Var],
        backward: Option<BackwardFn<'p>>,
    ) -> Var {
        self.push_rc(op, Value::owned(value), parents, backward)
    }

    /// Appends a node; on a sampled tape, the time since the last append
    /// (or the tape's creation) is the op's forward span.
    fn push_rc(
        &self,
        op: &'static str,
        value: Value<'p>,
        parents: &[Var],
        backward: Option<BackwardFn<'p>>,
    ) -> Var {
        if self.sampled {
            let now = telemetry::now_us();
            let start = self.last_us.replace(now);
            op_span(op, "forward", start, now);
        }
        let mut slots = [None; 3];
        assert!(
            parents.len() <= slots.len(),
            "an op has at most three parents"
        );
        for (slot, &p) in slots.iter_mut().zip(parents) {
            *slot = Some(p);
        }
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            op,
            parents: slots,
            backward,
        });
        Var(nodes.len() - 1)
    }

    /// Shared handle to a node's value (cheap; no data copy).
    fn rc(&self, v: Var) -> Value<'p> {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// Inserts a leaf node (input or parameter). Gradients accumulate here
    /// but do not propagate further.
    pub fn input(&self, value: Tensor) -> Var {
        self.push("input", value, &[], None)
    }

    /// Inserts a leaf that borrows `value` for the tape's lifetime instead
    /// of owning a copy: a parameter, bound every step ([`crate::bind_params`]),
    /// or a learner's mini-batch observations, which a copy would double.
    pub fn param(&self, value: &'p Tensor) -> Var {
        self.push_rc("param", Value::Borrowed(value), &[], None)
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    /// Clones the current value of a node.
    pub fn value(&self, v: Var) -> Tensor {
        (*self.nodes.borrow()[v.0].value).clone()
    }

    /// Shape of a node's value.
    pub fn shape_of(&self, v: Var) -> Vec<usize> {
        self.nodes.borrow()[v.0].value.shape().to_vec()
    }

    // ----- elementwise binary ops ------------------------------------------------

    /// Elementwise addition of same-shaped tensors.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let out = self.rc(a).add(&self.rc(b));
        self.push(
            "add",
            out,
            &[a, b],
            Some(Box::new(move |g, sink| {
                sink.add(a, g);
                sink.add(b, g);
            })),
        )
    }

    /// Elementwise subtraction.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let out = self.rc(a).sub(&self.rc(b));
        self.push(
            "sub",
            out,
            &[a, b],
            Some(Box::new(move |g, sink| {
                sink.add(a, g);
                sink.with(b, |d| d.add_assign_map(g, |x| -x));
            })),
        )
    }

    /// Elementwise multiplication.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.rc(a), self.rc(b));
        let out = va.mul(&vb);
        self.push(
            "mul",
            out,
            &[a, b],
            Some(Box::new(move |g, sink| {
                sink.with(a, |d| d.add_assign_zip(g, &vb, |gv, y| gv * y));
                sink.with(b, |d| d.add_assign_zip(g, &va, |gv, x| gv * x));
            })),
        )
    }

    /// Elementwise minimum; gradient routes to the smaller operand (ties to `a`).
    pub fn minimum(&self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.rc(a), self.rc(b));
        let out = va.zip_map(&vb, f32::min);
        let mask = va.zip_map(&vb, |x, y| if x <= y { 1.0 } else { 0.0 });
        self.push(
            "minimum",
            out,
            &[a, b],
            Some(Box::new(move |g, sink| {
                sink.with(a, |d| d.add_assign_zip(g, &mask, |gv, m| gv * m));
                sink.with(b, |d| d.add_assign_zip(g, &mask, |gv, m| gv * (1.0 - m)));
            })),
        )
    }

    /// Elementwise maximum; gradient routes to the larger operand (ties to `a`).
    pub fn maximum(&self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.rc(a), self.rc(b));
        let out = va.zip_map(&vb, f32::max);
        let mask = va.zip_map(&vb, |x, y| if x >= y { 1.0 } else { 0.0 });
        self.push(
            "maximum",
            out,
            &[a, b],
            Some(Box::new(move |g, sink| {
                sink.with(a, |d| d.add_assign_zip(g, &mask, |gv, m| gv * m));
                sink.with(b, |d| d.add_assign_zip(g, &mask, |gv, m| gv * (1.0 - m)));
            })),
        )
    }

    // ----- scalar / rowwise broadcasts -------------------------------------------

    /// Multiplies every element by a constant.
    pub fn scale(&self, a: Var, c: f32) -> Var {
        let out = self.rc(a).scaled(c);
        self.push(
            "scale",
            out,
            &[a],
            Some(Box::new(move |g, sink| {
                sink.with(a, |d| d.add_assign_map(g, |x| x * c));
            })),
        )
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&self, a: Var, c: f32) -> Var {
        let out = self.rc(a).map(|x| x + c);
        self.push(
            "add_scalar",
            out,
            &[a],
            Some(Box::new(move |g, sink| sink.add(a, g))),
        )
    }

    /// Adds a scalar-valued node (`[1]`) to every element of `a`, scaled by
    /// `coeff`: `out = a + coeff * s`.
    pub fn add_scalar_var(&self, a: Var, s: Var, coeff: f32) -> Var {
        let sval = self.rc(s);
        assert_eq!(sval.numel(), 1, "add_scalar_var expects scalar rhs");
        let out = self.rc(a).map(|x| x + coeff * sval.data()[0]);
        self.push(
            "add_scalar_var",
            out,
            &[a, s],
            Some(Box::new(move |g, sink| {
                sink.add(a, g);
                sink.with(s, |d| d.data_mut()[0] += coeff * g.sum());
            })),
        )
    }

    /// Adds a `[n]` bias row to every row of a `[m,n]` matrix.
    pub fn add_bias(&self, a: Var, bias: Var) -> Var {
        let vb = self.rc(bias);
        let n = vb.numel();
        let out = self.rc(a).add_row_broadcast(&vb);
        self.push(
            "add_bias",
            out,
            &[a, bias],
            Some(Box::new(move |g, sink| {
                sink.add(a, g);
                sink.with(bias, |d| {
                    let db = d.data_mut();
                    for row in g.data().chunks(n) {
                        for (acc, &gv) in db.iter_mut().zip(row.iter()) {
                            *acc += gv;
                        }
                    }
                });
            })),
        )
    }

    /// Multiplies every row of a `[m,n]` matrix elementwise by a `[n]` row.
    pub fn mul_row(&self, a: Var, row: Var) -> Var {
        let va = self.rc(a);
        let vr = self.rc(row);
        assert_eq!(va.shape().len(), 2, "mul_row lhs must be 2-D");
        let n = va.shape()[1];
        assert_eq!(vr.numel(), n, "mul_row row length mismatch");
        let mut out = (*va).clone();
        for r in out.data_mut().chunks_mut(n) {
            for (x, &w) in r.iter_mut().zip(vr.data().iter()) {
                *x *= w;
            }
        }
        self.push(
            "mul_row",
            out,
            &[a, row],
            Some(Box::new(move |g, sink| {
                sink.with(a, |d| {
                    for (drow, grow) in d.data_mut().chunks_mut(n).zip(g.data().chunks(n)) {
                        for ((x, &gv), &w) in drow.iter_mut().zip(grow.iter()).zip(vr.data().iter())
                        {
                            *x += gv * w;
                        }
                    }
                });
                sink.with(row, |d| {
                    let dr = d.data_mut();
                    for (grow, arow) in g.data().chunks(n).zip(va.data().chunks(n)) {
                        for j in 0..n {
                            dr[j] += grow[j] * arow[j];
                        }
                    }
                });
            })),
        )
    }

    // ----- elementwise unary ops --------------------------------------------------

    fn unary(
        &self,
        op: &'static str,
        a: Var,
        f: impl Fn(f32) -> f32,
        dfdx_from_out: impl Fn(f32, f32) -> f32 + 'static,
    ) -> Var {
        let va = self.rc(a);
        let out = Value::owned(va.map(f));
        let out_cap = out.clone();
        self.push_rc(
            op,
            out,
            &[a],
            Some(Box::new(move |g, sink| {
                sink.with(a, |d| {
                    d.add_assign_zip3(g, &va, &out_cap, |gv, x, y| gv * dfdx_from_out(x, y))
                });
            })),
        )
    }

    /// Hyperbolic tangent ([`gemm::tanh`], the same function the fused
    /// epilogue applies).
    pub fn tanh(&self, a: Var) -> Var {
        self.unary("tanh", a, gemm::tanh, |_, y| 1.0 - y * y)
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        self.unary(
            "relu",
            a,
            |x| x.max(0.0),
            |x, _| if x > 0.0 { 1.0 } else { 0.0 },
        )
    }

    /// Exponential.
    pub fn exp(&self, a: Var) -> Var {
        self.unary("exp", a, f32::exp, |_, y| y)
    }

    /// Elementwise square.
    pub fn square(&self, a: Var) -> Var {
        self.unary("square", a, |x| x * x, |x, _| 2.0 * x)
    }

    /// Elementwise square root (inputs assumed non-negative).
    pub fn sqrt(&self, a: Var) -> Var {
        self.unary("sqrt", a, f32::sqrt, |_, y| 0.5 / y.max(1e-12))
    }

    /// Clamps values to `[lo, hi]`; gradient is gated to the interior.
    pub fn clamp(&self, a: Var, lo: f32, hi: f32) -> Var {
        self.unary(
            "clamp",
            a,
            move |x| x.clamp(lo, hi),
            move |x, _| if x > lo && x < hi { 1.0 } else { 0.0 },
        )
    }

    /// Elementwise `min(a, c)` against a constant; gradient flows where `a < c`.
    pub fn min_scalar(&self, a: Var, c: f32) -> Var {
        self.unary(
            "min_scalar",
            a,
            move |x| x.min(c),
            move |x, _| if x <= c { 1.0 } else { 0.0 },
        )
    }

    // ----- reductions ---------------------------------------------------------------

    /// Sum of all elements, producing a `[1]` scalar node.
    pub fn sum_all(&self, a: Var) -> Var {
        let out = Tensor::scalar(self.rc(a).sum());
        self.push(
            "sum_all",
            out,
            &[a],
            Some(Box::new(move |g, sink| {
                let g0 = g.data()[0];
                sink.with(a, |d| {
                    for x in d.data_mut() {
                        *x += g0;
                    }
                });
            })),
        )
    }

    /// Mean of all elements, producing a `[1]` scalar node.
    pub fn mean_all(&self, a: Var) -> Var {
        let n = self.rc(a).numel().max(1);
        let s = self.sum_all(a);
        self.scale(s, 1.0 / n as f32)
    }

    /// Row sums of a `[m,n]` matrix, producing a `[m]` vector node.
    pub fn sum_rows(&self, a: Var) -> Var {
        let va = self.rc(a);
        assert_eq!(va.shape().len(), 2, "sum_rows requires a 2-D tensor");
        let (m, n) = (va.shape()[0], va.shape()[1]);
        let data: Vec<f32> = va.data().chunks(n).map(|r| r.iter().sum()).collect();
        self.push(
            "sum_rows",
            Tensor::from_vec(data, &[m]),
            &[a],
            Some(Box::new(move |g, sink| {
                sink.with(a, |d| {
                    for (i, chunk) in d.data_mut().chunks_mut(n).enumerate() {
                        let gi = g.data()[i];
                        for x in chunk {
                            *x += gi;
                        }
                    }
                });
            })),
        )
    }

    // ----- linear algebra -------------------------------------------------------------

    /// Matrix product of 2-D nodes.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.rc(a), self.rc(b));
        let out = va.matmul(&vb);
        let (m, k) = (va.shape()[0], va.shape()[1]);
        let n = vb.shape()[1];
        self.push(
            "matmul",
            out,
            &[a, b],
            Some(Box::new(move |g, sink| {
                // da += g @ bᵀ, db += aᵀ @ g — transposes are stride views,
                // accumulation happens inside the GEMM (no temporaries), and
                // a first contribution is written, not added to zeros.
                sink.write(a, |d, first| {
                    gemm::gemm(
                        MatRef::new(g.data(), m, n),
                        MatRef::new(vb.data(), k, n).t(),
                        d.data_mut(),
                        !first,
                    )
                });
                sink.write(b, |d, first| {
                    gemm::gemm(
                        MatRef::new(va.data(), m, k).t(),
                        MatRef::new(g.data(), m, n),
                        d.data_mut(),
                        !first,
                    )
                });
            })),
        )
    }

    /// Fused dense layer: `act(x @ w + bias)` recorded as a single node.
    ///
    /// Forward runs [`Tensor::matmul_bias_act`]; backward modulates the
    /// upstream gradient by the activation derivative (recovered from the
    /// node's own output) into the arena scratch, adding each modulated row
    /// into the bias gradient in the same pass, then feeds `x` and `w` with
    /// GEMMs that write a first contribution and accumulate a later one.
    /// Gradients are bit-identical to the unfused
    /// `matmul`+`add_bias`+activation chain.
    pub fn dense(&self, x: Var, w: Var, bias: Var, act: FusedAct) -> Var {
        let (vx, vw, vb) = (self.rc(x), self.rc(w), self.rc(bias));
        let out = Value::owned(vx.matmul_bias_act(&vw, &vb, act));
        let (m, k) = (vx.shape()[0], vx.shape()[1]);
        let n = vw.shape()[1];
        let out_cap = out.clone();
        self.push_rc(
            match act {
                FusedAct::Identity => "dense",
                FusedAct::Tanh => "dense_tanh",
                FusedAct::Relu => "dense_relu",
            },
            out,
            &[x, w, bias],
            Some(Box::new(move |g, sink| {
                // gmod = g ⊙ act'(y), with act' read off the stored output,
                // and db += each row of it while the row is in cache.
                let mut gmod = sink.take_scratch();
                gmod.clear();
                let (gv, yv) = (g.data(), out_cap.data());
                if sink.wants(bias) {
                    sink.with(bias, |d| {
                        modulate_rows(gv, yv, act, n, &mut gmod, d.data_mut())
                    });
                } else {
                    modulate_rows(gv, yv, act, n, &mut gmod, &mut []);
                }
                let gm = MatRef::new(&gmod, m, n);
                sink.write(x, |d, first| {
                    gemm::gemm(gm, MatRef::new(vw.data(), k, n).t(), d.data_mut(), !first)
                });
                sink.write(w, |d, first| {
                    gemm::gemm(MatRef::new(vx.data(), m, k).t(), gm, d.data_mut(), !first)
                });
                sink.restore_scratch(gmod);
            })),
        )
    }

    /// Reshape: the node holds a copy of the value under the new shape, and
    /// the gradient is added back flat.
    pub fn reshape(&self, a: Var, shape: &[usize]) -> Var {
        let out = self.value(a).reshaped(shape);
        self.push(
            "reshape",
            out,
            &[a],
            Some(Box::new(move |g, sink| {
                // Same flat buffer, different shape: accumulate flat.
                sink.with(a, |d| d.add_assign_flat(g));
            })),
        )
    }

    // ----- softmax family ----------------------------------------------------------

    /// Row-wise log-softmax of a `[m,n]` logits matrix.
    pub fn log_softmax(&self, logits: Var) -> Var {
        let v = self.rc(logits);
        assert_eq!(v.shape().len(), 2, "log_softmax requires a 2-D tensor");
        let (m, n) = (v.shape()[0], v.shape()[1]);
        let mut out = vec![0.0f32; m * n];
        for (row_in, row_out) in v.data().chunks(n).zip(out.chunks_mut(n)) {
            let mx = row_in.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = row_in.iter().map(|&x| (x - mx).exp()).sum::<f32>().ln() + mx;
            for (o, &x) in row_out.iter_mut().zip(row_in.iter()) {
                *o = x - lse;
            }
        }
        let out = Value::owned(Tensor::from_vec(out, &[m, n]));
        let out_cap = out.clone();
        self.push_rc(
            "log_softmax",
            out,
            &[logits],
            Some(Box::new(move |g, sink| {
                // d logits = g - softmax * rowsum(g)
                sink.with(logits, |d| {
                    for ((drow, grow), orow) in d
                        .data_mut()
                        .chunks_mut(n)
                        .zip(g.data().chunks(n))
                        .zip(out_cap.data().chunks(n))
                    {
                        let gsum: f32 = grow.iter().sum();
                        for ((dv, &gv), &lo) in drow.iter_mut().zip(grow.iter()).zip(orow.iter()) {
                            *dv += gv - lo.exp() * gsum;
                        }
                    }
                });
            })),
        )
    }

    /// Gathers one column per row: `out[i] = a[i, idx[i]]`, producing `[m]`.
    pub fn gather_cols(&self, a: Var, idx: &[usize]) -> Var {
        let va = self.rc(a);
        assert_eq!(va.shape().len(), 2, "gather_cols requires a 2-D tensor");
        let (m, n) = (va.shape()[0], va.shape()[1]);
        assert_eq!(idx.len(), m, "gather_cols index length mismatch");
        let data: Vec<f32> = idx.iter().enumerate().map(|(i, &j)| va.at2(i, j)).collect();
        let idx = idx.to_vec();
        self.push(
            "gather_cols",
            Tensor::from_vec(data, &[m]),
            &[a],
            Some(Box::new(move |g, sink| {
                sink.with(a, |d| {
                    let dm = d.data_mut();
                    for (i, &j) in idx.iter().enumerate() {
                        dm[i * n + j] += g.data()[i];
                    }
                });
            })),
        )
    }

    // ----- convolution ---------------------------------------------------------------

    /// 2-D convolution: input `[b,c,h,w]`, weight `[o,c,kh,kw]`, bias `[o]`,
    /// output `[b,o,oh,ow]`.
    pub fn conv2d(&self, input: Var, weight: Var, bias: Var, stride: usize) -> Var {
        let spec = Conv2dSpec::infer(self.rc(input).shape(), self.rc(weight).shape(), stride);
        let [oc, oh, ow] = spec.out_chw();
        let shape = [spec.batch, oc, oh, ow];
        self.conv2d_node(input, weight, bias, spec, &shape, FusedAct::Identity)
    }

    /// `act(conv2d)` over flattened images, as one node: input `[b, c*h*w]`
    /// with the image geometry `chw` alongside, output `[b, o*oh*ow]`. A
    /// convolutional trunk needs no reshape between the observation matrix,
    /// its layers and the dense head. As in [`Graph::dense`], backward
    /// modulates the upstream gradient by the activation derivative read
    /// off the output, so gradients are bit-identical to the unfused
    /// `conv2d_rows(.., FusedAct::Identity)` + activation chain.
    pub fn conv2d_rows(
        &self,
        input: Var,
        chw: [usize; 3],
        weight: Var,
        bias: Var,
        stride: usize,
        act: FusedAct,
    ) -> Var {
        let x = self.rc(input);
        let [c, h, w] = chw;
        assert_eq!(
            x.shape()[1..],
            [c * h * w],
            "conv2d_rows input must be [b, c*h*w]"
        );
        let b = x.shape()[0];
        let spec = Conv2dSpec::infer(&[b, c, h, w], self.rc(weight).shape(), stride);
        let shape = [b, spec.out_c * spec.out_hw()];
        self.conv2d_node(input, weight, bias, spec, &shape, act)
    }

    /// The convolution node behind both entry points; `shape` only labels the
    /// output, whose flat layout is `[b, o, oh, ow]` either way. The forward
    /// and the three backward products, and why they keep the bits:
    /// [`crate::conv`]. The forward keeps nothing for the backward but the
    /// operands and the output. The backward lays the upstream gradient out
    /// once as the gradient rows `G [b*oh*ow, o]` in the arena scratch;
    /// `dW` and `dX` read the image and the weights directly (or, on the
    /// reference paths, build their patch matrix and column gradient behind
    /// `G` in the same scratch), each only when its gradient is wanted.
    fn conv2d_node(
        &self,
        input: Var,
        weight: Var,
        bias: Var,
        spec: Conv2dSpec,
        shape: &[usize],
        act: FusedAct,
    ) -> Var {
        let (x, w, bv) = (self.rc(input), self.rc(weight), self.rc(bias));
        let out = Value::owned(Tensor::from_vec(
            conv2d_forward(x.data(), w.data(), bv.data(), &spec, act),
            shape,
        ));
        let out_cap = out.clone();
        self.push_rc(
            match act {
                FusedAct::Identity => "conv2d",
                FusedAct::Tanh => "conv2d_tanh",
                FusedAct::Relu => "conv2d_relu",
            },
            out,
            &[input, weight, bias],
            Some(Box::new(move |g, sink| {
                // Scratch: G [b*hw, oc] ⊙ act'(y), then each gradient's
                // workspace behind it. db: per image, each channel's sum of
                // its rows, taken in the same pass.
                let mut scratch = sink.take_scratch();
                let (gv, yv) = (g.data(), out_cap.data());
                if sink.wants(bias) {
                    sink.with(bias, |d| {
                        gradient_rows(gv, yv, act, &spec, &mut scratch, d.data_mut())
                    });
                } else {
                    gradient_rows(gv, yv, act, &spec, &mut scratch, &mut []);
                }
                // dw: the [o,c,kh,kw] buffer is flat-identical to [oc,ckk],
                // so the product accumulates straight into it.
                sink.with(weight, |d| {
                    conv2d_weight_grad(x.data(), &spec, &mut scratch, d.data_mut());
                });
                // dx: W2ᵀ @ Gᵀ, gathered onto the input pixels; a first
                // contribution is written, not added to zeros.
                sink.write(input, |d, first| {
                    conv2d_input_grad(w.data(), &spec, &mut scratch, d.data_mut(), !first);
                });
                sink.restore_scratch(scratch);
            })),
        )
    }

    // ----- backward pass ------------------------------------------------------------

    /// Runs reverse-mode accumulation from the scalar node `loss` and returns
    /// the gradients of the requested variables (zeros where disconnected).
    ///
    /// Gradients accumulate in a recycled thread-local arena, so a warm call
    /// performs O(1) heap allocations (the returned `wrt` clones) regardless
    /// of tape size.
    ///
    /// The first call emits a retroactive `nn.forward` span (tape creation
    /// to now — the window in which all forward ops were recorded) and every
    /// call runs under an `nn.backward` span; tape sizes feed the
    /// `stellaris_nn_backward_nodes` histogram.
    pub fn backward(&self, loss: Var, wrt: &[Var]) -> Vec<Tensor> {
        let mut out = Vec::with_capacity(wrt.len());
        self.backward_into(loss, wrt, &mut out);
        out
    }

    /// Like [`Graph::backward`] but writes the gradients into `out`, reusing
    /// its tensors' storage. With warm buffers (same parameter layout as the
    /// previous step) a call performs zero gradient-related heap allocations;
    /// `tests/arena_allocs.rs` counts what it does allocate.
    pub fn backward_into(&self, loss: Var, wrt: &[Var], out: &mut Vec<Tensor>) {
        ARENA_POOL.with(|pool| {
            let mut arena = pool.borrow_mut().pop().unwrap_or_default();
            self.backward_impl(loss, wrt, &mut arena, false, out);
            pool.borrow_mut().push(arena);
        });
    }

    /// [`Graph::backward`], then [`clip_grad_norm`] over the gradients at
    /// `max_norm`, returning them with the pre-clip norm: a learner's whole
    /// gradient step, whose clip a sampled tape names as one more `nn.op`.
    pub fn backward_clipped(&self, loss: Var, wrt: &[Var], max_norm: f32) -> (Vec<Tensor>, f32) {
        let mut grads = self.backward(loss, wrt);
        let start = self.sampled.then(telemetry::now_us);
        let norm = clip_grad_norm(&mut grads, max_norm);
        if let Some(start) = start {
            op_span("clip_grad_norm", "backward", start, telemetry::now_us());
        }
        (grads, norm)
    }

    /// Reference backward pass with the historical allocation strategy: a
    /// fresh tensor per gradient contribution, merged with `+=`. Produces
    /// gradients identical to [`Graph::backward`] (same closures, same
    /// accumulation order); kept as the differential-test oracle.
    #[cfg(test)]
    pub fn backward_cloning(&self, loss: Var, wrt: &[Var]) -> Vec<Tensor> {
        let mut arena = GradArena::default();
        let mut out = Vec::with_capacity(wrt.len());
        self.backward_impl(loss, wrt, &mut arena, true, &mut out);
        out
    }

    fn backward_impl(
        &self,
        loss: Var,
        wrt: &[Var],
        arena: &mut GradArena,
        cloning: bool,
        out: &mut Vec<Tensor>,
    ) {
        let nodes = self.nodes.borrow();
        if !self.forward_emitted.replace(true) {
            let fwd_end = telemetry::now_us();
            telemetry::span_closed(
                "nn.forward",
                self.born_us,
                fwd_end.saturating_sub(self.born_us),
                vec![("nodes", nodes.len().into())],
            );
        }
        let mut span = telemetry::span_with("nn.backward", vec![("nodes", nodes.len().into())]);
        let seed_start = self.sampled.then(telemetry::now_us);
        telemetry::global()
            .histogram("stellaris_nn_backward_nodes")
            .record(u64::try_from(nodes.len()).unwrap_or(u64::MAX));
        assert_eq!(
            nodes[loss.0].value.numel(),
            1,
            "backward requires a scalar loss node"
        );
        let n = nodes.len();
        if arena.bufs.len() < n {
            arena.bufs.resize_with(n, || Tensor::zeros(&[0]));
        }
        arena.live.truncate(0);
        arena.live.resize(n, false);
        arena.wanted.truncate(0);
        arena.wanted.resize(n, false);
        for v in wrt {
            arena.wanted[v.0] = true;
        }
        for (i, node) in nodes.iter().enumerate() {
            if node.parents.iter().flatten().any(|p| arena.wanted[p.0]) {
                arena.wanted[i] = true;
            }
        }
        {
            let seed = &mut arena.bufs[loss.0];
            seed.reuse_as_zeros(nodes[loss.0].value.shape());
            seed.data_mut().fill(1.0);
            arena.live[loss.0] = true;
        }
        if let Some(start) = seed_start {
            op_span("seed", "backward", start, telemetry::now_us());
        }
        for i in (0..=loss.0).rev() {
            if !arena.live[i] {
                continue;
            }
            let Some(back) = &nodes[i].backward else {
                continue;
            };
            // Parents strictly precede node `i` on the tape, so the buffers
            // below `i` (writable by the sink) never alias `i`'s gradient.
            let (bufs_head, bufs_tail) = arena.bufs.split_at_mut(i);
            let (live_head, _) = arena.live.split_at_mut(i);
            let mut sink = GradSink {
                bufs: bufs_head,
                live: live_head,
                wanted: &arena.wanted[..i],
                nodes: &nodes[..i],
                scratch: &mut arena.scratch,
                cloning,
            };
            let start = self.sampled.then(telemetry::now_us);
            back(&bufs_tail[0], &mut sink);
            if let Some(start) = start {
                op_span(nodes[i].op, "backward", start, telemetry::now_us());
            }
        }
        span.field("live", arena.live_count());
        let start = self.sampled.then(telemetry::now_us);
        out.resize_with(wrt.len(), || Tensor::zeros(&[0]));
        for (slot, v) in out.iter_mut().zip(wrt) {
            if arena.live[v.0] {
                slot.copy_from(&arena.bufs[v.0]);
            } else {
                slot.reuse_as_zeros(nodes[v.0].value.shape());
            }
        }
        if let Some(start) = start {
            op_span("gradients", "backward", start, telemetry::now_us());
        }
    }
}

/// Appends `g ⊙ act'(y)` to `gmod` row by row (`n` columns), `act'` read
/// off the output `y`, and adds each modulated row into `db` unless `db` is
/// empty: one pass where the dense backward made two.
fn modulate_rows(
    g: &[f32],
    y: &[f32],
    act: FusedAct,
    n: usize,
    gmod: &mut Vec<f32>,
    db: &mut [f32],
) {
    // One loop per activation, so each body vectorises.
    fn rows(
        g: &[f32],
        y: &[f32],
        n: usize,
        gmod: &mut Vec<f32>,
        db: &mut [f32],
        deriv: impl Fn(f32) -> f32,
    ) {
        gmod.reserve(g.len());
        for (grow, yrow) in g.chunks_exact(n).zip(y.chunks_exact(n)) {
            let start = gmod.len();
            gmod.extend(grow.iter().zip(yrow).map(|(&gv, &yv)| gv * deriv(yv)));
            for (acc, &v) in db.iter_mut().zip(&gmod[start..]) {
                *acc += v;
            }
        }
    }
    match act {
        FusedAct::Identity => rows(g, y, n, gmod, db, |v| {
            FusedAct::Identity.deriv_from_output(v)
        }),
        FusedAct::Tanh => rows(g, y, n, gmod, db, |v| FusedAct::Tanh.deriv_from_output(v)),
        FusedAct::Relu => rows(g, y, n, gmod, db, |v| FusedAct::Relu.deriv_from_output(v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Central-difference gradient check for a scalar function of one tensor.
    fn grad_check(build: impl Fn(&Graph, Var) -> Var, x0: &Tensor, tol: f32) {
        let g = Graph::new();
        let x = g.input(x0.clone());
        let loss = build(&g, x);
        let analytic = g.backward(loss, &[x]).remove(0);

        let eps = 1e-3f32;
        for i in 0..x0.numel() {
            let mut lo = x0.clone();
            lo.data_mut()[i] -= eps;
            let mut hi = x0.clone();
            hi.data_mut()[i] += eps;
            let gl = Graph::new();
            let fl = gl.value(build(&gl, gl.input(lo)));
            let gh = Graph::new();
            let fh = gh.value(build(&gh, gh.input(hi)));
            let numeric = (fh.data()[0] - fl.data()[0]) / (2.0 * eps);
            let got = analytic.data()[i];
            assert!(
                (got - numeric).abs() < tol * (1.0 + numeric.abs()),
                "elem {i}: analytic {got} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_tanh_square_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let x0 = Tensor::randn(&[2, 3], 1.0, &mut rng);
        grad_check(
            |g, x| {
                let t = g.tanh(x);
                let s = g.square(t);
                g.mean_all(s)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_matmul() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let x0 = Tensor::randn(&[3, 4], 0.5, &mut rng);
        let w = Tensor::randn(&[4, 2], 0.5, &mut rng);
        grad_check(
            move |g, x| {
                let wv = g.input(w.clone());
                let y = g.matmul(x, wv);
                g.sum_all(y)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_weight_side() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = Tensor::randn(&[3, 4], 0.5, &mut rng);
        let w0 = Tensor::randn(&[4, 2], 0.5, &mut rng);
        grad_check(
            move |g, w| {
                let av = g.input(a.clone());
                let y = g.matmul(av, w);
                let sq = g.square(y);
                g.mean_all(sq)
            },
            &w0,
            1e-2,
        );
    }

    #[test]
    fn grad_log_softmax_gather() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let x0 = Tensor::randn(&[4, 5], 1.0, &mut rng);
        grad_check(
            |g, x| {
                let lsm = g.log_softmax(x);
                let picked = g.gather_cols(lsm, &[0, 2, 4, 1]);
                g.mean_all(picked)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_exp() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let x0 = Tensor::rand_uniform(&[6], 0.5, 2.0, &mut rng);
        grad_check(
            |g, x| {
                let e = g.exp(x);
                g.mean_all(e)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_minimum_maximum() {
        let x0 = Tensor::from_vec(vec![-1.0, 0.5, 2.0, -0.2], &[4]);
        let other = Tensor::from_vec(vec![0.0, 0.0, 1.0, -1.0], &[4]);
        grad_check(
            move |g, x| {
                let o = g.input(other.clone());
                let mn = g.minimum(x, o);
                let mx = g.maximum(mn, o);
                let s = g.square(mx);
                g.sum_all(s)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_clamp_interior_only() {
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![-2.0, 0.0, 2.0], &[3]));
        let c = g.clamp(x, -1.0, 1.0);
        let loss = g.sum_all(c);
        let grad = g.backward(loss, &[x]).remove(0);
        assert_eq!(grad.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn grad_bias_broadcast() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let b0 = Tensor::randn(&[3], 1.0, &mut rng);
        let a = Tensor::randn(&[4, 3], 1.0, &mut rng);
        grad_check(
            move |g, b| {
                let av = g.input(a.clone());
                let y = g.add_bias(av, b);
                let s = g.square(y);
                g.mean_all(s)
            },
            &b0,
            1e-2,
        );
    }

    #[test]
    fn grad_mul_row() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let r0 = Tensor::randn(&[3], 1.0, &mut rng);
        let a = Tensor::randn(&[4, 3], 1.0, &mut rng);
        grad_check(
            move |g, r| {
                let av = g.input(a.clone());
                let y = g.mul_row(av, r);
                g.sum_all(y)
            },
            &r0,
            1e-2,
        );
    }

    #[test]
    fn grad_sum_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let x0 = Tensor::randn(&[3, 4], 1.0, &mut rng);
        grad_check(
            |g, x| {
                let rows = g.sum_rows(x);
                let sq = g.square(rows);
                g.mean_all(sq)
            },
            &x0,
            1e-2,
        );
    }

    #[test]
    fn grad_conv2d() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let x0 = Tensor::randn(&[2, 2, 5, 5], 0.5, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[3], 0.5, &mut rng);
        grad_check(
            move |g, x| {
                let wv = g.input(w.clone());
                let bv = g.input(b.clone());
                let y = g.conv2d(x, wv, bv, 2);
                let s = g.square(y);
                g.mean_all(s)
            },
            &x0,
            2e-2,
        );
    }

    #[test]
    fn grad_conv2d_weight_and_bias() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let x = Tensor::randn(&[1, 2, 4, 4], 0.5, &mut rng);
        let w0 = Tensor::randn(&[2, 2, 2, 2], 0.5, &mut rng);
        grad_check(
            move |g, w| {
                let xv = g.input(x.clone());
                let bv = g.input(Tensor::zeros(&[2]));
                let y = g.conv2d(xv, w, bv, 1);
                g.mean_all(y)
            },
            &w0,
            2e-2,
        );
    }

    #[test]
    fn grad_dense_matches_unfused_chain() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let x0 = Tensor::randn(&[5, 7], 0.7, &mut rng);
        let w0 = Tensor::randn(&[7, 3], 0.7, &mut rng);
        let b0 = Tensor::randn(&[3], 0.7, &mut rng);
        for act in [FusedAct::Identity, FusedAct::Tanh, FusedAct::Relu] {
            // Fused graph.
            let gf = Graph::new();
            let (xf, wf, bf) = (
                gf.input(x0.clone()),
                gf.input(w0.clone()),
                gf.input(b0.clone()),
            );
            let yf = gf.dense(xf, wf, bf, act);
            let lf = gf.mean_all(gf.square(yf));
            let grads_f = gf.backward(lf, &[xf, wf, bf]);
            // Unfused graph.
            let gu = Graph::new();
            let (xu, wu, bu) = (
                gu.input(x0.clone()),
                gu.input(w0.clone()),
                gu.input(b0.clone()),
            );
            let mm = gu.matmul(xu, wu);
            let pre = gu.add_bias(mm, bu);
            let yu = match act {
                FusedAct::Identity => pre,
                FusedAct::Tanh => gu.tanh(pre),
                FusedAct::Relu => gu.relu(pre),
            };
            let lu = gu.mean_all(gu.square(yu));
            let grads_u = gu.backward(lu, &[xu, wu, bu]);
            assert_eq!(gf.value(yf), gu.value(yu), "forward {act:?}");
            for (f, u) in grads_f.iter().zip(grads_u.iter()) {
                assert_eq!(f, u, "gradients must match bitwise for {act:?}");
            }
        }
    }

    #[test]
    fn disconnected_grad_is_zero() {
        let g = Graph::new();
        let x = g.input(Tensor::ones(&[3]));
        let y = g.input(Tensor::ones(&[1]));
        let loss = g.mean_all(y);
        let grad = g.backward(loss, &[x]).remove(0);
        assert_eq!(grad, Tensor::zeros(&[3]));
    }

    #[test]
    fn backward_skips_what_wrt_cannot_reach() {
        // Table II CNN loss: with the parameters requested, nothing can be
        // reached from the observation leaf, so it never becomes live; asking
        // for it too costs the first convolution's dX and moves nothing else.
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let cnn = crate::Cnn::table2([4, 20, 20], 6, 0.01, &mut rng);
        let g = Graph::new();
        let obs = g.input(Tensor::randn(&[3, cnn.in_dim()], 1.0, &mut rng));
        let params = crate::bind_params(&g, &crate::ParamSet::params(&cnn));
        let out = cnn.forward(&g, obs, &params);
        let loss = g.mean_all(g.square(out));
        let run = |wrt: &[Var]| {
            let (mut arena, mut grads) = (GradArena::default(), Vec::new());
            g.backward_impl(loss, wrt, &mut arena, false, &mut grads);
            (arena.live_count(), grads)
        };
        let (live, grads) = run(&params);
        let with_obs: Vec<Var> = std::iter::once(obs).chain(params.iter().copied()).collect();
        let (live_with_obs, grads_with_obs) = run(&with_obs);
        assert!(live < g.len(), "{live} of {} nodes live", g.len());
        assert!(live_with_obs > live);
        assert_eq!(grads_with_obs[1..], grads[..]);
        assert!(grads_with_obs[0].max_abs() > 0.0);
    }

    #[test]
    fn shared_subexpression_accumulates() {
        // loss = x*x + x  => dloss/dx = 2x + 1
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![3.0], &[1]));
        let xx = g.mul(x, x);
        let s = g.add(xx, x);
        let loss = g.sum_all(s);
        let grad = g.backward(loss, &[x]).remove(0);
        assert!((grad.data()[0] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn add_scalar_var_broadcasts_and_backprops() {
        let g = Graph::new();
        let a = g.input(Tensor::ones(&[4]));
        let s = g.input(Tensor::scalar(2.0));
        let y = g.add_scalar_var(a, s, -1.0);
        assert_eq!(g.value(y).data(), &[-1.0, -1.0, -1.0, -1.0]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss, &[a, s]);
        assert_eq!(grads[0], Tensor::ones(&[4]));
        assert!((grads[1].data()[0] + 4.0).abs() < 1e-6);
    }

    #[test]
    fn backward_matches_cloning_reference() {
        // One graph, both strategies: the recycled-arena path must produce
        // the same gradients as the allocate-per-contribution reference.
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = Graph::new();
        let x = g.input(Tensor::randn(&[4, 6], 1.0, &mut rng));
        let w = g.input(Tensor::randn(&[6, 3], 0.5, &mut rng));
        let b = g.input(Tensor::randn(&[3], 0.5, &mut rng));
        let mm = g.matmul(x, w);
        let h = g.add_bias(mm, b);
        let t = g.tanh(h);
        let loss = g.mean_all(g.square(t));
        let inplace = g.backward(loss, &[x, w, b]);
        let cloning = g.backward_cloning(loss, &[x, w, b]);
        assert_eq!(inplace, cloning);
    }

    #[test]
    fn arena_recycles_across_graphs() {
        // Three graphs in sequence share the thread-local arena; each must
        // still agree with the cloning reference (no stale-gradient leaks).
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        for round in 0..3 {
            let g = Graph::new();
            let dim = 3 + round; // vary shapes so buffers get reshaped
            let x = g.input(Tensor::randn(&[2, dim], 1.0, &mut rng));
            let w = g.input(Tensor::randn(&[dim, 2], 1.0, &mut rng));
            let y = g.matmul(x, w);
            let loss = g.mean_all(g.square(y));
            assert_eq!(
                g.backward(loss, &[x, w]),
                g.backward_cloning(loss, &[x, w]),
                "round {round}"
            );
        }
    }

    #[test]
    fn reset_clears_tape_for_reuse() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![2.0], &[1]));
        let y = g.square(x);
        let _ = g.backward(y, &[x]);
        assert_eq!(g.len(), 2);
        g.reset();
        assert!(g.is_empty());
        let x2 = g.input(Tensor::from_vec(vec![3.0], &[1]));
        let y2 = g.square(x2);
        let grad = g.backward(y2, &[x2]).remove(0);
        assert!((grad.data()[0] - 6.0).abs() < 1e-6);
    }

    // The arena backward pass is pinned bit for bit to the cloning
    // reference on the Table II MLP and CNN: both run the identical closures
    // in the identical order. The convolution is pinned the same way:
    // [`per_image`] keeps the one-product-per-image form the crate used
    // before it batched a layer into one product per mini-batch, and the
    // batched node must reproduce its output, `dW`, `db` and `dX` exactly
    // (reduction-order argument: `conv.rs` module docs).

    /// The per-image convolution (`im2col` one image at a time, `W2 x col`,
    /// `dW += G_i x col^T`, `W2^T x G_i` through `col2im`): the reference the
    /// batched products are compared with.
    mod per_image {
        use crate::conv::Conv2dSpec;
        use crate::gemm::{gemm, MatRef};
        use crate::tensor::Tensor;

        /// Expands each batch image into a `[ckk, oh*ow]` column matrix.
        fn im2col(input: &Tensor, spec: &Conv2dSpec) -> Vec<Tensor> {
            let mut cols = Vec::with_capacity(spec.batch);
            let chw = spec.in_c * spec.in_h * spec.in_w;
            for b in 0..spec.batch {
                let img = &input.data()[b * chw..(b + 1) * chw];
                let mut col = vec![0.0f32; spec.ckk() * spec.out_hw()];
                let mut row = 0usize;
                for c in 0..spec.in_c {
                    for ky in 0..spec.kh {
                        for kx in 0..spec.kw {
                            let dst = &mut col[row * spec.out_hw()..(row + 1) * spec.out_hw()];
                            let mut di = 0usize;
                            for oy in 0..spec.out_h {
                                let iy = oy * spec.stride + ky;
                                let base = c * spec.in_h * spec.in_w + iy * spec.in_w + kx;
                                for ox in 0..spec.out_w {
                                    dst[di] = img[base + ox * spec.stride];
                                    di += 1;
                                }
                            }
                            row += 1;
                        }
                    }
                }
                cols.push(Tensor::from_vec(col, &[spec.ckk(), spec.out_hw()]));
            }
            cols
        }

        /// Scatters a `[ckk, oh*ow]` column gradient back onto image `b` of `dx`.
        fn col2im(dcol: &[f32], spec: &Conv2dSpec, b: usize, dx: &mut Tensor) {
            let chw = spec.in_c * spec.in_h * spec.in_w;
            let img = &mut dx.data_mut()[b * chw..(b + 1) * chw];
            let mut row = 0usize;
            for c in 0..spec.in_c {
                for ky in 0..spec.kh {
                    for kx in 0..spec.kw {
                        let src = &dcol[row * spec.out_hw()..(row + 1) * spec.out_hw()];
                        let mut si = 0usize;
                        for oy in 0..spec.out_h {
                            let iy = oy * spec.stride + ky;
                            let base = c * spec.in_h * spec.in_w + iy * spec.in_w + kx;
                            for ox in 0..spec.out_w {
                                img[base + ox * spec.stride] += src[si];
                                si += 1;
                            }
                        }
                        row += 1;
                    }
                }
            }
        }

        /// Output and the three gradients of one convolution.
        pub struct Conv {
            pub out: Tensor,
            pub dw: Tensor,
            pub db: Tensor,
            pub dx: Tensor,
        }

        /// `x [b,c,h,w]`, `w [o,c,kh,kw]`, `bias [o]`, and the gradient `g`
        /// arriving at the output `[b,o,oh,ow]`.
        pub fn conv(x: &Tensor, w: &Tensor, bias: &Tensor, stride: usize, g: &Tensor) -> Conv {
            let spec = Conv2dSpec::infer(x.shape(), w.shape(), stride);
            let (b, oc, hw, ckk) = (spec.batch, spec.out_c, spec.out_hw(), spec.ckk());
            let cols = im2col(x, &spec);
            let w2 = w.reshape(&[oc, ckk]);
            let mut out = Vec::with_capacity(b * oc * hw);
            for col in &cols {
                let o = w2.matmul(col);
                for (ch, chunk) in o.data().chunks(hw).enumerate() {
                    let beta = bias.data()[ch];
                    out.extend(chunk.iter().map(|&v| v + beta));
                }
            }
            let out = Tensor::from_vec(out, &[b, oc, spec.out_h, spec.out_w]);
            assert_eq!(g.numel(), out.numel());
            let mut dw = Tensor::zeros(w.shape());
            let mut db = Tensor::zeros(&[oc]);
            let mut dx = Tensor::zeros(x.shape());
            let mut dcol = vec![0.0f32; ckk * hw];
            for (bi, col) in cols.iter().enumerate() {
                let gslice = &g.data()[bi * oc * hw..(bi + 1) * oc * hw];
                gemm(
                    MatRef::new(gslice, oc, hw),
                    MatRef::new(col.data(), ckk, hw).t(),
                    dw.data_mut(),
                    true,
                );
                for (ch, chunk) in gslice.chunks(hw).enumerate() {
                    db.data_mut()[ch] += chunk.iter().sum::<f32>();
                }
                gemm(
                    MatRef::new(w2.data(), oc, ckk).t(),
                    MatRef::new(gslice, oc, hw),
                    &mut dcol,
                    false,
                );
                col2im(&dcol, &spec, bi, &mut dx);
            }
            Conv { out, dw, db, dx }
        }
    }

    proptest! {
        /// One product per layer per mini-batch gives the bits of one product
        /// per image: output, `dW`, `db` and `dX` of `Graph::conv2d`, with
        /// `b*oh*ow` and `out_c` landing on both sides of `MR` and `NR`, and at
        /// 16 and 32 filters, where AVX-512 builds run 32 filters on the
        /// flattened direct forward and, at a 4-wide kernel of stride 2, on
        /// the direct `dW` (the row forward needs 8-wide kernels and the
        /// direct `dX` 16 input channels; `conv.rs` pins those bitwise); and
        /// the graph-free forward (the actors run it at batch 1) equals the
        /// graph's.
        #[test]
        fn prop_batched_conv_matches_per_image_reference(
            batch in 1usize..6,
            in_c in 1usize..5,
            k in 1usize..6,
            stride in 1usize..4,
            narrow_c in 1usize..crate::gemm::NR + 6,
            // 0: `narrow_c` filters; 1, 2: 16 and 32, the direct kernels'.
            width in 0usize..3,
            h in 5usize..15,
            w in 5usize..15,
            seed in 0u64..1000,
        ) {
            let out_c = [narrow_c, 16, 32][width];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let x = Tensor::randn(&[batch, in_c, h, w], 1.0, &mut rng);
            let conv = crate::ConvLayer {
                w: Tensor::randn(&[out_c, in_c, k, k], 0.5, &mut rng).into(),
                b: Tensor::randn(&[out_c], 0.5, &mut rng),
                stride,
            };

            let g = Graph::new();
            let (xv, wv, bv) = (g.input(x.clone()), g.input((*conv.w).clone()), g.input(conv.b.clone()));
            let y = g.conv2d(xv, wv, bv, stride);
            let loss = g.mean_all(g.square(g.tanh(y)));
            let grads = g.backward(loss, &[y, wv, bv, xv]);
            let want = per_image::conv(&x, &conv.w, &conv.b, stride, &grads[0]);
            prop_assert_eq!(g.value(y), want.out);
            prop_assert_eq!(&grads[1], &want.dw);
            prop_assert_eq!(&grads[2], &want.db);
            prop_assert_eq!(&grads[3], &want.dx);

            let flat = want.out.numel() / batch;
            let cnn = crate::Cnn {
                input_shape: [in_c, h, w],
                convs: vec![conv],
                fc: crate::Linear::new(flat, 7, 1.0, &mut rng),
                head: crate::Linear::new(7, 3, 1.0, &mut rng),
                activation: crate::Activation::Relu,
            };
            for rows in [1, batch] {
                let obs = Tensor::from_vec(x.data()[..rows * cnn.in_dim()].to_vec(), &[rows, cnn.in_dim()]);
                let g = Graph::new();
                let vars = crate::bind_params(&g, &crate::ParamSet::params(&cnn));
                let via_graph = g.value(cnn.forward(&g, g.input(obs.clone()), &vars));
                prop_assert_eq!(cnn.forward_plain(&obs), via_graph);
            }
        }
    }

    /// Builds the graph, runs one forward pass, and returns gradients from the
    /// requested strategy.
    fn grads_of(
        x: &Tensor,
        params: &[&Tensor],
        fwd: impl Fn(&Graph, &[Var]) -> Var,
        cloning: bool,
    ) -> Vec<Tensor> {
        let g = Graph::new();
        let mut vars = vec![g.input(x.clone())];
        vars.extend(crate::bind_params(&g, params));
        let out = fwd(&g, &vars);
        let loss = g.mean_all(g.square(out));
        if cloning {
            g.backward_cloning(loss, &vars[1..])
        } else {
            g.backward(loss, &vars[1..])
        }
    }

    #[test]
    fn inplace_backward_matches_cloning_on_table2_mlp() {
        // Table II Hopper actor: 11 -> 256 -> 256 -> 3.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mlp = crate::Mlp::new(&[11, 256, 256, 3], crate::Activation::Tanh, 0.01, &mut rng);
        let x = Tensor::randn(&[16, 11], 1.0, &mut rng);
        let params = crate::ParamSet::params(&mlp);
        let fwd = |g: &Graph, vars: &[Var]| mlp.forward(g, vars[0], &vars[1..]);
        let arena = grads_of(&x, &params, fwd, false);
        let cloned = grads_of(&x, &params, fwd, true);
        assert_eq!(arena.len(), cloned.len());
        for (a, c) in arena.iter().zip(&cloned) {
            assert_eq!(a, c, "arena backward diverged from the cloning reference");
        }
    }

    #[test]
    fn inplace_backward_matches_cloning_on_table2_cnn() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let cnn = crate::Cnn::table2([4, 20, 20], 6, 0.01, &mut rng);
        let x = Tensor::randn(&[3, cnn.in_dim()], 1.0, &mut rng);
        let params = crate::ParamSet::params(&cnn);
        let fwd = |g: &Graph, vars: &[Var]| cnn.forward(g, vars[0], &vars[1..]);
        let arena = grads_of(&x, &params, fwd, false);
        let cloned = grads_of(&x, &params, fwd, true);
        assert_eq!(arena.len(), cloned.len());
        for (a, c) in arena.iter().zip(&cloned) {
            assert_eq!(a, c, "arena backward diverged from the cloning reference");
        }
    }

    #[test]
    fn table2_cnn_observation_gradient_matches_per_image_reference() {
        // The training paths never ask for the observation's gradient, so the
        // tape skips it; asked for, it is still the per-image value, and asking
        // changes no parameter gradient.
        let mut rng = ChaCha8Rng::seed_from_u64(46);
        let cnn = crate::Cnn::table2([4, 20, 20], 6, 0.01, &mut rng);
        let batch = 3;
        let x = Tensor::randn(&[batch, cnn.in_dim()], 1.0, &mut rng);
        let params = crate::ParamSet::params(&cnn);

        // The trunk spelled out op by op, to reach the gradient arriving at the
        // first convolution's output.
        let g = Graph::new();
        let xv = g.input(x.clone());
        let vars = crate::bind_params(&g, &params);
        let x4 = g.reshape(xv, &[batch, 4, 20, 20]);
        let c1 = g.conv2d(x4, vars[0], vars[1], cnn.convs[0].stride);
        let c2 = g.conv2d(g.relu(c1), vars[2], vars[3], cnn.convs[1].stride);
        let flat = g.reshape(g.relu(c2), &[batch, cnn.fc.in_dim()]);
        let feat = g.dense(flat, vars[4], vars[5], FusedAct::Relu);
        let out = g.dense(feat, vars[6], vars[7], FusedAct::Identity);
        let loss = g.mean_all(g.square(out));
        let spelled = g.backward(loss, &[xv, c1]);
        let want = per_image::conv(
            &x.reshape(&[batch, 4, 20, 20]),
            params[0],
            params[1],
            cnn.convs[0].stride,
            &spelled[1],
        );
        assert_eq!(spelled[0].data(), want.dx.data());
        assert!(want.dx.max_abs() > 0.0);

        let fwd = |g: &Graph, vars: &[Var]| cnn.forward(g, vars[0], &vars[1..]);
        let params_only = grads_of(&x, &params, fwd, false);
        let g = Graph::new();
        let mut all = vec![g.input(x.clone())];
        all.extend(crate::bind_params(&g, &params));
        let loss = g.mean_all(g.square(fwd(&g, &all)));
        for with_obs in [g.backward(loss, &all), g.backward_cloning(loss, &all)] {
            assert_eq!(with_obs[0], spelled[0]);
            assert_eq!(with_obs[1..], params_only[..]);
        }
    }

    #[test]
    fn fused_conv_activation_matches_unfused_chain_bitwise() {
        // The Table II CNN at 42 px (16 and 32 filters: the direct kernels
        // on AVX-512 builds). `Cnn::forward` fuses each ReLU into its
        // convolution node; spelled out unfused, every parameter gradient
        // must keep its bits, under both backward strategies.
        let mut rng = ChaCha8Rng::seed_from_u64(47);
        let cnn = crate::Cnn::table2([3, 42, 42], 6, 0.01, &mut rng);
        let x = Tensor::randn(&[5, cnn.in_dim()], 1.0, &mut rng);
        let params = crate::ParamSet::params(&cnn);
        let unfused = |g: &Graph, vars: &[Var]| {
            let mut chw = cnn.input_shape;
            let mut cur = vars[0];
            for (i, conv) in cnn.convs.iter().enumerate() {
                let (w, b) = (vars[1 + 2 * i], vars[2 + 2 * i]);
                let y = g.conv2d_rows(cur, chw, w, b, conv.stride, FusedAct::Identity);
                cur = g.relu(y);
                chw = Conv2dSpec::infer(&[1, chw[0], chw[1], chw[2]], conv.w.shape(), conv.stride)
                    .out_chw();
            }
            let feat = g.dense(cur, vars[5], vars[6], FusedAct::Relu);
            g.dense(feat, vars[7], vars[8], FusedAct::Identity)
        };
        let fused = |g: &Graph, vars: &[Var]| cnn.forward(g, vars[0], &vars[1..]);
        let want = grads_of(&x, &params, unfused, false);
        assert!(want.iter().all(|t| t.max_abs() > 0.0));
        for cloning in [false, true] {
            let got = grads_of(&x, &params, fused, cloning);
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "cloning {cloning}");
            }
        }
    }

    #[test]
    fn multi_use_node_gradients_match_between_strategies() {
        // A node consumed by several ops exercises the accumulation ("+=") path
        // in both strategies; order is identical, so equality is still exact.
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        let w = Tensor::randn(&[6, 6], 1.0, &mut rng);
        let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let run = |cloning: bool| {
            let g = Graph::new();
            let xv = g.input(x.clone());
            let wv = g.input(w.clone());
            let h = g.matmul(xv, wv);
            let s = g.add(g.tanh(h), g.square(h)); // h used twice
            let loss = g.mean_all(g.mul(s, s)); // s used twice
            if cloning {
                g.backward_cloning(loss, &[xv, wv])
            } else {
                g.backward(loss, &[xv, wv])
            }
        };
        assert_eq!(run(false), run(true));
    }
}
