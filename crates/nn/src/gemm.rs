//! Cache-blocked, panel-packed GEMM with a register-tiled micro-kernel.
//!
//! This is the compute core behind [`crate::Tensor::matmul`] and the graph's
//! backward pass. The structure follows the classic Goto/BLIS decomposition:
//! the operands are cut into `MC x KC` (A) and `KC x NC` (B) cache blocks,
//! each block is repacked into contiguous k-major panels of `MR` rows (A) and
//! `NR` columns (B), and an `MR x NR` register-tiled micro-kernel sweeps the
//! packed panels. Packing makes every inner-loop access unit-stride and lets
//! the same kernel serve transposed operands for free: [`MatRef`] carries
//! row/column strides, so `X^T` is just a stride swap — no materialised
//! transpose anywhere on the hot path.
//!
//! # Exactness contract
//!
//! The packed kernel is **bit-identical** to the retained naive reference
//! ([`gemm_naive`]) for every shape, including `k > KC`:
//!
//! * the micro-kernel initialises its accumulators *from C* (zeroed on the
//!   first `KC` block unless accumulating), and an `f32` store/load
//!   round-trip is exact, so splitting `k` into blocks does not reassociate
//!   the per-element sum;
//! * products are added in ascending-`k` order with separately rounded
//!   multiply and add (no fused multiply-add: Rust never fuses implicitly,
//!   and the AVX-512 tile issues `_mm512_mul_ps` then `_mm512_add_ps`);
//! * edge tiles are zero-padded in the packed panels (the packers zero a
//!   ragged panel before filling it); padded lanes only produce values in
//!   padded rows/columns, which are never stored.
//!
//! The same argument makes `accumulate = true` (used by backward) exact: it
//! merely seeds the accumulators with the existing C values.
//!
//! The epilogue adds the bias, then applies the activation over the row;
//! [`FusedAct::Tanh`] is this module's [`tanh`], plain `f32` arithmetic
//! rather than the platform libm's, so fused and unfused chains — and two
//! hosts — agree on its bits.
//!
//! Rows are independent: row `i` of the product is a function of row `i` of
//! A alone, so a batched product equals, bit for bit, its single-row
//! products stacked — whichever of the two routes serves each call (pinned
//! by `prop_rows_are_independent` in `tests/backward_differential.rs`). The
//! rollout relies on this to record the distribution row each action was
//! sampled from in place of a second, batched actor forward, and to run the
//! critic once over a whole rollout instead of once per step.
//!
//! # Register tile
//!
//! The tile is chosen at build time. Under `target_feature = "avx512f"`
//! (`.cargo/config.toml` builds with `target-cpu=native`) it is an explicit
//! `8 x 32` AVX-512 tile holding its accumulators in 16 zmm registers, one
//! of the crate's two `unsafe` functions (with the small-`m` strip below).
//! Everywhere else the portable `4 x 16` tile, an array LLVM
//! autovectorises, is the only kernel. Only the explicit tile can be that
//! wide: an autovectorised `8 x 32` array spills to the stack and runs
//! several times slower.
//!
//! # Small-`m` route
//!
//! A left operand with fewer than `MR` rows and a unit-stride B — the
//! actors' single-observation forwards, `m = 1`, three products per
//! environment step — skips packing. Packing cannot pay below one register
//! tile: `pack_b` copies all `k*n` elements of B to serve `m*k*n`
//! multiply-adds, and `1 - m/MR` of every register tile is zero padding.
//! Each output row is instead cut into column strips whose accumulators
//! stay in registers across the whole `k` reduction. Under AVX-512 the
//! strips are explicit (256 columns in 16 zmm accumulators), followed by
//! 16-column groups and one lane-masked group for the last `n % 16`
//! columns, for every `k`. On the portable build the 64-column strips are
//! autovectorised, and the columns past the last full strip, and every
//! column once `k > KC`, run the reference loop of [`gemm_naive`]. Each
//! element sees the reference's operations in the reference's order, so
//! the route is bit-identical, and it is selected by the operand shapes
//! alone.
//!
//! # Packing
//!
//! B is packed once per `(j0, p0)` cache block and shared by every row
//! slab; each slab packs its own `MC x KC` block of A. The two scratch
//! buffers are thread-local and only ever grow: a call overwrites exactly
//! the panels it reads, and zeroes nothing but a ragged final panel (fewer
//! than `MR` rows or `NR` columns), whose padding lanes must not keep data
//! from an earlier, larger product. A [`MatRef`] comes from `new` or `t()`,
//! so one of its strides is always 1 and a full panel is packed from
//! contiguous runs of the operand — `MR` row slices interleaved, or `MR`
//! (`NR`) adjacent elements per `k`; only ragged panels walk element by
//! element.
//!
//! # Parallelism
//!
//! Inside each block, row-slabs of `MC` rows are distributed over rayon
//! when the FLOP count `m*n*k` crosses [`PAR_GEMM_FLOPS`]. Gating on FLOPs
//! rather than output size (`m*n`) matters for tall-skinny products such as
//! the policy head (`m*k` large, `n` tiny): their output is small but their
//! work is not. The slabs read the block's packed B, which the calling
//! thread holds outside its thread-local slot for the duration of the call.

use std::cell::RefCell;

use rayon::prelude::*;

/// Micro-kernel tile height (rows of A per register tile).
#[cfg(target_feature = "avx512f")]
pub const MR: usize = 8;
/// Micro-kernel tile width (columns of B per register tile): the explicit
/// AVX-512 tile holds its `8 x 32` accumulators in 16 of the 32 zmm
/// registers.
#[cfg(target_feature = "avx512f")]
pub const NR: usize = 32;
/// Micro-kernel tile height (rows of A per register tile).
#[cfg(not(target_feature = "avx512f"))]
pub const MR: usize = 4;
/// Micro-kernel tile width (columns of B per register tile). The portable
/// tile is autovectorised: `MR * NR` is 64 f32 accumulators, small enough
/// that LLVM keeps the whole tile in vector registers (wider autovectorised
/// tiles such as 6x16 or 8x32 spill to the stack and run several times
/// slower).
#[cfg(not(target_feature = "avx512f"))]
pub const NR: usize = 16;
/// Output columns per register strip of the portable small-`m` route: 64
/// f32 accumulators.
#[cfg(not(target_feature = "avx512f"))]
const STRIP: usize = 4 * NR;
/// Rows of A per cache block (L2-resident packed A panel).
const MC: usize = 128;
/// Inner (`k`) extent per cache block. `KC * NR * 4` bytes is one packed B
/// panel: at 256 that is 16 KB for the portable tile, half of a 32 KB L1d,
/// and 32 KB for the AVX-512 tile, two thirds of its host's 48 KB L1d.
const KC: usize = 256;
/// Columns of B per cache block (L3-resident packed B panel).
const NC: usize = 4096;

/// Parallelise when `m*n*k` (one multiply-add each) reaches this many FLOPs.
/// The old heuristic gated on output size `m*n`, which kept tall-skinny
/// products (policy-head shapes like `[4096,256]x[256,4]`) serial forever.
pub const PAR_GEMM_FLOPS: usize = 1 << 20;

/// Whether a `[m,k] x [k,n]` product is worth distributing over rayon.
/// Saturating so absurd shapes cannot overflow the predicate.
#[inline]
pub fn par_worthwhile(m: usize, n: usize, k: usize) -> bool {
    m.saturating_mul(n).saturating_mul(k) >= PAR_GEMM_FLOPS
}

/// Hyperbolic tangent in plain `f32` arithmetic: the one `tanh` of the
/// crate ([`FusedAct::Tanh`], the GEMM epilogue and `Graph::tanh`).
///
/// Branch-free, so the loops that call it vectorise: both halves are
/// computed and one is selected by comparison. Below `|x| = 0.55` it is
/// the odd Taylor series to `x^19`; above, `(1 - t) / (1 + t)` with
/// `t = e^{-2|x|}` from a Cody–Waite reduction (`2^n · e^r`, `|r| ≤ ln2/2`,
/// degree-7 Taylor `e^r`), `|x|` clamped at 10 where the result has
/// rounded to 1. Separately rounded IEEE operations only — no fused multiply-add,
/// no libm — so its bits do not depend on the host. At most 2 ulp from the
/// exact value (1.51 measured over every `f32` in `[0, 12]`); exactly odd;
/// `±0 → ±0`, `NaN → NaN`, `±inf → ±1`.
#[inline]
pub fn tanh(x: f32) -> f32 {
    const SEAM: f32 = 0.55;
    const CLAMP: f32 = 10.0;
    const LN2_HI: f32 = 0.693_145_75; // 0x3f31_7200: n·LN2_HI is exact
    const LN2_LO: f32 = 1.428_606_8e-6;
    // Adding 1.5·2^23 rounds to an integer held in the low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    const SIGN: u32 = 0x8000_0000;
    let a = f32::from_bits(x.to_bits() & !SIGN);
    // Comparison, not `min`: a NaN stays NaN.
    let a = if a > CLAMP { CLAMP } else { a };

    // tanh a = a - a³/3 + 2a⁵/15 - 17a⁷/315 + … - 443861162a¹⁹/1856156927625,
    // coefficients rounded to f32, Horner in a².
    let z = a * a;
    let mut q = -2.391_291_2e-4f32;
    q = q * z + 5.900_274e-4;
    q = q * z - 1.455_834_4e-3;
    q = q * z + 3.592_128e-3;
    q = q * z - 8.863_236e-3;
    q = q * z + 2.186_948_8e-2;
    q = q * z - 5.396_825_4e-2;
    q = q * z + 0.133_333_34;
    q = q * z - 0.333_333_34;
    let series = a + a * (z * q);

    let y = -2.0 * a;
    let k = y * std::f32::consts::LOG2_E + ROUND;
    let n = k - ROUND;
    let r = (y - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.0 / 5040.0f32;
    p = p * r + 1.0 / 720.0;
    p = p * r + 1.0 / 120.0;
    p = p * r + 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    let exp_r = 1.0 + (r + r * (r * p));
    // 2^n from n's two's-complement bits (n ∈ [-29, 0]).
    let two_n = f32::from_bits(k.to_bits().wrapping_sub(ROUND.to_bits()).wrapping_add(127) << 23);
    let t = exp_r * two_n;
    let ratio = (1.0 - t) / (1.0 + t);

    let m = if a < SEAM { series } else { ratio };
    f32::from_bits(m.to_bits() | (x.to_bits() & SIGN))
}

/// Activation fused into the GEMM epilogue by
/// [`crate::Tensor::matmul_bias_act`] and `Graph::dense`.
///
/// The epilogue computes `c = act(c + bias)` as a separate pass after the
/// full `k` reduction, so a fused call rounds identically to the unfused
/// `matmul` → `add_row_broadcast` → `map` chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FusedAct {
    /// No activation; epilogue only adds the bias.
    Identity,
    /// Hyperbolic tangent ([`tanh`]).
    Tanh,
    /// Rectified linear unit (`max(x, 0)`).
    Relu,
}

impl FusedAct {
    /// Applies the activation to a pre-activation value.
    #[inline]
    pub fn activate(self, x: f32) -> f32 {
        match self {
            FusedAct::Identity => x,
            FusedAct::Tanh => tanh(x),
            FusedAct::Relu => x.max(0.0),
        }
    }

    /// Derivative expressed in terms of the *output* `y = act(x)`, which is
    /// what the fused dense backward has in hand (`tanh' = 1 - y²`,
    /// `relu' = [y > 0]` — equivalent to `[x > 0]` since `y = max(x, 0)`).
    #[inline]
    pub fn deriv_from_output(self, y: f32) -> f32 {
        match self {
            FusedAct::Identity => 1.0,
            FusedAct::Tanh => 1.0 - y * y,
            FusedAct::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Borrowed view of a 2-D `f32` matrix with explicit strides.
///
/// `new` wraps a row-major buffer; [`MatRef::t`] yields the transposed view
/// by swapping extents and strides, so transposed operands feed the packed
/// kernel without copying.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// Row-major `rows x cols` view over `data`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "MatRef backing buffer has wrong length"
        );
        Self {
            data,
            rows,
            cols,
            rs: cols,
            cs: 1,
        }
    }

    /// The transposed view (no copy; strides swap).
    pub fn t(self) -> Self {
        Self {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            rs: self.cs,
            cs: self.rs,
        }
    }

    /// Logical number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// `c = a @ b` (or `c += a @ b` when `accumulate`), packed/blocked kernel.
///
/// `c` must hold exactly `a.rows * b.cols` elements, row-major.
pub fn gemm(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], accumulate: bool) {
    gemm_fused(a, b, None, FusedAct::Identity, c, accumulate);
}

/// `c = act(a @ b + bias)` with the bias broadcast over rows; the epilogue
/// runs after the full reduction so rounding matches the unfused chain.
pub fn gemm_bias_act(a: MatRef<'_>, b: MatRef<'_>, bias: &[f32], act: FusedAct, c: &mut [f32]) {
    gemm_fused(a, b, Some(bias), act, c, false);
}

thread_local! {
    /// Reusable packed-A scratch, one per thread: every slab packs its own
    /// block of A, so warm GEMM calls allocate nothing.
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Reusable packed-B scratch of the thread that issued the call.
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

fn gemm_fused(
    a: MatRef<'_>,
    b: MatRef<'_>,
    bias: Option<&[f32]>,
    act: FusedAct,
    c: &mut [f32],
    accumulate: bool,
) {
    let (m, k) = (a.rows, a.cols);
    let n = b.cols;
    assert_eq!(
        k, b.rows,
        "matmul inner dimensions differ: {} vs {}",
        k, b.rows
    );
    assert_eq!(c.len(), m * n, "gemm output buffer has wrong length");
    if let Some(bv) = bias {
        assert_eq!(bv.len(), n, "gemm bias length must equal output columns");
    }
    if c.is_empty() {
        return;
    }
    if k == 0 {
        // Empty reduction: C is all zeros (or untouched when accumulating),
        // but the epilogue still applies.
        if !accumulate {
            c.fill(0.0);
        }
        epilogue(c, n, 0, n, bias, act);
        return;
    }

    if m < MR && b.cs == 1 {
        // Below one register tile packing cannot pay (module docs): run the
        // reference row loop directly on the unpacked operands.
        if !accumulate {
            c.fill(0.0);
        }
        accumulate_row_strips(a, b, c);
        epilogue(c, n, 0, n, bias, act);
        return;
    }

    let par = par_worthwhile(m, n, k) && m > MC;
    // Taken out of its slot rather than borrowed in place: the slabs below
    // may run as rayon jobs, and a thread waiting on them must be free to
    // start another product.
    let mut bpack = PACK_B.take();
    for j0 in (0..n).step_by(NC) {
        let nc = (n - j0).min(NC);
        for (pci, p0) in (0..k).step_by(KC).enumerate() {
            let kc = (k - p0).min(KC);
            pack_b(b, p0, kc, j0, nc, &mut bpack);
            // First KC block seeds the accumulators (unless the caller
            // asked to accumulate); later blocks resume from C, which
            // keeps the per-element summation order sequential in k.
            let init = !accumulate && pci == 0;
            let slab = |(blk, cslab): (usize, &mut [f32])| {
                gemm_block(a, blk * MC, p0, kc, &bpack, j0, nc, cslab, n, init);
            };
            if par {
                c.par_chunks_mut(MC * n).enumerate().for_each(slab);
            } else {
                c.chunks_mut(MC * n).enumerate().for_each(slab);
            }
        }
        epilogue(c, n, j0, nc, bias, act);
    }
    PACK_B.set(bpack);
}

/// One `(j0, p0)` block of one row-slab (`mc <= MC` rows starting at `i0`):
/// packs the slab's block of A and sweeps the register tiles against the
/// block's packed B.
#[expect(clippy::too_many_arguments)]
fn gemm_block(
    a: MatRef<'_>,
    i0: usize,
    p0: usize,
    kc: usize,
    bpack: &[f32],
    j0: usize,
    nc: usize,
    cslab: &mut [f32],
    n: usize,
    init: bool,
) {
    let mc = cslab.len() / n;
    PACK_A.with_borrow_mut(|apack| {
        pack_a(a, i0, mc, p0, kc, apack);
        for jp in 0..nc.div_ceil(NR) {
            let jr = j0 + jp * NR;
            let nr = (nc - jp * NR).min(NR);
            let bp = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
            for ip in 0..mc.div_ceil(MR) {
                let ir = ip * MR;
                let mr = (mc - ir).min(MR);
                let ap = &apack[ip * kc * MR..(ip + 1) * kc * MR];
                micro_kernel(kc, ap, bp, &mut cslab[ir * n + jr..], n, mr, nr, init);
            }
        }
    });
}

/// `c[r, j0..j0+nc] = act(c + bias)` over every row of `cslab`.
fn epilogue(
    cslab: &mut [f32],
    n: usize,
    j0: usize,
    nc: usize,
    bias: Option<&[f32]>,
    act: FusedAct,
) {
    if bias.is_none() && act == FusedAct::Identity {
        return;
    }
    for row in cslab.chunks_exact_mut(n) {
        let row = &mut row[j0..j0 + nc];
        if let Some(bv) = bias {
            for (x, &bb) in row.iter_mut().zip(&bv[j0..j0 + nc]) {
                *x += bb;
            }
        }
        activate_row(act, row);
    }
}

/// `x = act(x)` over a row, the activation chosen once outside the loop so
/// the loop body vectorises.
fn activate_row(act: FusedAct, row: &mut [f32]) {
    match act {
        FusedAct::Identity => {}
        FusedAct::Tanh => row.iter_mut().for_each(|x| *x = tanh(*x)),
        FusedAct::Relu => row.iter_mut().for_each(|x| *x = x.max(0.0)),
    }
}

/// Grows `buf` to hold `len` elements; it never shrinks, and what it
/// already holds is left for the packers to overwrite.
fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Packs `kc` columns of an `mc`-row slab of A into k-major `MR`-row panels,
/// zero-padding the ragged final panel.
fn pack_a(a: MatRef<'_>, i0: usize, mc: usize, p0: usize, kc: usize, buf: &mut Vec<f32>) {
    let mpanels = mc.div_ceil(MR);
    grow(buf, mpanels * kc * MR);
    for ip in 0..mpanels {
        let ibase = i0 + ip * MR;
        let h = (i0 + mc - ibase).min(MR);
        let panel = &mut buf[ip * kc * MR..(ip + 1) * kc * MR];
        if h < MR {
            panel.fill(0.0);
            for (p, chunk) in panel.chunks_exact_mut(MR).enumerate() {
                for (r, slot) in chunk.iter_mut().take(h).enumerate() {
                    *slot = a.at(ibase + r, p0 + p);
                }
            }
        } else if a.cs == 1 {
            // Row-major A: interleave MR row slices.
            let rows: [&[f32]; MR] = std::array::from_fn(|r| {
                let start = (ibase + r) * a.rs + p0;
                &a.data[start..start + kc]
            });
            for (p, chunk) in panel.chunks_exact_mut(MR).enumerate() {
                for (slot, row) in chunk.iter_mut().zip(&rows) {
                    *slot = row[p];
                }
            }
        } else {
            // Transposed view (`rs == 1`): the MR rows are adjacent per k.
            for (p, chunk) in panel.chunks_exact_mut(MR).enumerate() {
                let start = (p0 + p) * a.cs + ibase;
                chunk.copy_from_slice(&a.data[start..start + MR]);
            }
        }
    }
}

/// Packs a `kc x nc` block of B into k-major `NR`-column panels,
/// zero-padding the ragged final panel.
fn pack_b(b: MatRef<'_>, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut Vec<f32>) {
    let npanels = nc.div_ceil(NR);
    grow(buf, npanels * kc * NR);
    for jp in 0..npanels {
        let jbase = j0 + jp * NR;
        let w = (j0 + nc - jbase).min(NR);
        let panel = &mut buf[jp * kc * NR..(jp + 1) * kc * NR];
        if w < NR {
            panel.fill(0.0);
            for (p, chunk) in panel.chunks_exact_mut(NR).enumerate() {
                for (cj, slot) in chunk.iter_mut().take(w).enumerate() {
                    *slot = b.at(p0 + p, jbase + cj);
                }
            }
        } else if b.cs == 1 {
            // Row-major B: the NR columns are adjacent per k.
            for (p, chunk) in panel.chunks_exact_mut(NR).enumerate() {
                let start = (p0 + p) * b.rs + jbase;
                chunk.copy_from_slice(&b.data[start..start + NR]);
            }
        } else {
            // Transposed view (`rs == 1`): each packed column is contiguous
            // along k.
            for cj in 0..NR {
                let start = (jbase + cj) * b.cs + p0;
                let col = &b.data[start..start + kc];
                for (chunk, &v) in panel.chunks_exact_mut(NR).zip(col) {
                    chunk[cj] = v;
                }
            }
        }
    }
}

/// The `MR x NR` register tile: seeds accumulators from C (or zero when
/// `init`), sweeps the packed panels in ascending `k`, stores the valid
/// `mr x nr` region back. Plain `a*b` + `+=` — no FMA — so rounding matches
/// the naive reference bit for bit.
#[cfg(not(target_feature = "avx512f"))]
#[expect(clippy::too_many_arguments)]
#[inline]
fn micro_kernel(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    init: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !init {
        for (r, accr) in acc.iter_mut().enumerate().take(mr) {
            accr[..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
        }
    }
    for (arow, brow) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = arow[r];
            for (x, &bb) in accr.iter_mut().zip(brow) {
                *x += av * bb;
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(mr) {
        c[r * ldc..r * ldc + nr].copy_from_slice(&accr[..nr]);
    }
}

/// The `MR x NR` register tile in explicit AVX-512: the same contract as
/// the portable tile, its `8 x 32` accumulators held in 16 zmm registers.
/// Each `k` broadcasts the row's A value and adds `_mm512_mul_ps` into the
/// accumulator with `_mm512_add_ps` — two rounded operations, never a
/// fused multiply-add — in ascending `k`, so every lane rounds exactly as
/// the naive reference does. A ragged tile reads and writes C through
/// lane masks, so only the valid `mr x nr` region is touched.
#[cfg(target_feature = "avx512f")]
#[expect(
    unsafe_code,
    reason = "explicit SIMD tile: unaligned vector loads/stores of panel and C memory whose bounds the asserts at the top establish"
)]
#[expect(clippy::too_many_arguments)]
#[inline]
fn micro_kernel(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    init: bool,
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps,
        _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
    };
    /// f32 lanes per zmm register; a tile row is two of them.
    const L: usize = 16;
    const _: () = assert!(NR == 2 * L);
    assert!(ap.len() >= kc * MR, "packed A panel shorter than kc rows");
    assert!(bp.len() >= kc * NR, "packed B panel shorter than kc rows");
    assert!(
        (1..=MR).contains(&mr) && (1..=NR).contains(&nr),
        "tile extent"
    );
    assert!(c.len() >= (mr - 1) * ldc + nr, "C tile out of bounds");
    // Lane j of half h is live iff h*L + j < nr.
    let mask = |h: usize| -> u16 {
        let live = nr.saturating_sub(h * L).min(L);
        u16::try_from((1u32 << live) - 1).unwrap_or(u16::MAX)
    };
    let masks = [mask(0), mask(1)];
    let panels = ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc);

    // A masked C access starts at row r < mr, column h*L < nr (its mask is
    // nonzero), and touches only the live lanes, columns h*L..nr.
    // SAFETY: compiled only with avx512f enabled (the cfg above); unmasked
    // loads read 16 lanes at offset 0 or L of `brow`, exactly NR = 2*L long;
    // masked C lanes lie inside `c` by the bound asserted above.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        if !init {
            for (r, accr) in acc.iter_mut().enumerate().take(mr) {
                for (h, x) in accr.iter_mut().enumerate() {
                    if masks[h] != 0 {
                        *x = _mm512_maskz_loadu_ps(masks[h], c[r * ldc + h * L..].as_ptr());
                    }
                }
            }
        }
        if masks[1] == 0 {
            // Only the first half is live (`n <= 16`, e.g. a 16-filter
            // convolution): the padded half's arithmetic is skipped.
            for (arow, brow) in panels {
                let b0 = _mm512_loadu_ps(brow.as_ptr());
                for (accr, &av) in acc.iter_mut().zip(arow) {
                    accr[0] = _mm512_add_ps(accr[0], _mm512_mul_ps(_mm512_set1_ps(av), b0));
                }
            }
        } else {
            for (arow, brow) in panels {
                let b0 = _mm512_loadu_ps(brow.as_ptr());
                let b1 = _mm512_loadu_ps(brow[L..].as_ptr());
                for (accr, &av) in acc.iter_mut().zip(arow) {
                    let av = _mm512_set1_ps(av);
                    accr[0] = _mm512_add_ps(accr[0], _mm512_mul_ps(av, b0));
                    accr[1] = _mm512_add_ps(accr[1], _mm512_mul_ps(av, b1));
                }
            }
        }
        for (r, accr) in acc.iter().enumerate().take(mr) {
            for (h, &x) in accr.iter().enumerate() {
                if masks[h] != 0 {
                    _mm512_mask_storeu_ps(c[r * ldc + h * L..].as_mut_ptr(), masks[h], x);
                }
            }
        }
    }
}

/// Retained naive reference kernel (`ikj`, ascending `k`, no zero-skip, no
/// blocking). The packed kernel is pinned to this bit for bit by the
/// differential tests.
pub fn gemm_naive(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], accumulate: bool) {
    let (m, k) = (a.rows, a.cols);
    let n = b.cols;
    assert_eq!(
        k, b.rows,
        "matmul inner dimensions differ: {} vs {}",
        k, b.rows
    );
    assert_eq!(c.len(), m * n, "gemm output buffer has wrong length");
    if !accumulate {
        c.fill(0.0);
    }
    accumulate_rows(a, b, c, 0);
}

/// `c += a @ b` for `m < MR` and a unit-stride B. Each output row is cut
/// into `STRIP`-column strips whose accumulators stay in registers across
/// the whole `k` reduction, where the `ikj` loop loads and stores the C row
/// once per `k`; every element still sees the reference's sequence of
/// operations (seeded from C, ascending `k`, separate multiply and add), so
/// the bits are the same. Columns past the last full strip, and every
/// column when `k > KC` (B then no longer sits in L2, and the strips'
/// column-block walk over it lost to the row-major one), take the
/// reference loop.
#[cfg(not(target_feature = "avx512f"))]
fn accumulate_row_strips(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32]) {
    let (k, n) = (a.cols, b.cols);
    let strips = if k <= KC { n / STRIP } else { 0 };
    for i in 0..a.rows {
        let crow = &mut c[i * n..i * n + strips * STRIP];
        for (s, cstrip) in crow.chunks_exact_mut(STRIP).enumerate() {
            let mut acc = [0.0f32; STRIP];
            acc.copy_from_slice(cstrip);
            for p in 0..k {
                let av = a.at(i, p);
                let start = p * b.rs + s * STRIP;
                for (x, &bv) in acc.iter_mut().zip(&b.data[start..start + STRIP]) {
                    *x += av * bv;
                }
            }
            cstrip.copy_from_slice(&acc);
        }
    }
    accumulate_rows(a, b, c, strips * STRIP);
}

/// `c += a @ b` for `m < MR` and a unit-stride B, in explicit AVX-512:
/// each output row is swept by 256-column strips of 16 zmm accumulators
/// (one contiguous 1 KB run of each B row per `k`, which streamed faster
/// than two 128-column passes), then by 16-column groups of one, the last
/// with its lanes past `n` masked off. The accumulators stay in registers
/// across the whole `k` reduction, for every `k`, so no column runs the
/// reference loop; every element still sees its operations (seeded from C,
/// ascending `k`, `_mm512_mul_ps` then `_mm512_add_ps`), so the bits are
/// the same.
#[cfg(target_feature = "avx512f")]
fn accumulate_row_strips(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32]) {
    const L: usize = 16;
    const W: usize = 16;
    let n = b.cols;
    for (i, crow) in c.chunks_exact_mut(n).enumerate().take(a.rows) {
        let arow = a.data[i * a.rs..].iter().step_by(a.cs).take(a.cols);
        let mut j = 0;
        while j + W * L <= n {
            row_strip::<W>(arow.clone(), b, j, crow);
            j += W * L;
        }
        while j < n {
            row_strip::<1>(arow.clone(), b, j, crow);
            j += L;
        }
    }
}

/// `crow[j..] += arow @ b[:, j..]` over the `W * 16` columns from `j`, in
/// `W` zmm accumulators, the lanes at or past `n = crow.len() = b.cols`
/// masked off; `arow` is read for at most `b.rows` values. Panics unless B
/// is unit-stride and the last register has a live lane.
#[cfg(target_feature = "avx512f")]
#[expect(
    unsafe_code,
    reason = "explicit SIMD strip: masked vector loads/stores of B and C rows whose bounds the asserts at the top establish"
)]
#[inline]
fn row_strip<'a, const W: usize>(
    arow: impl Iterator<Item = &'a f32>,
    b: MatRef<'a>,
    j: usize,
    crow: &mut [f32],
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps,
        _mm512_setzero_ps,
    };
    const L: usize = 16;
    let n = b.cols;
    assert!(
        b.cs == 1 && crow.len() == n && j + (W - 1) * L < n,
        "strip out of bounds"
    );
    assert!(
        b.rows
            .checked_sub(1)
            .is_none_or(|last| last * b.rs + n <= b.data.len()),
        "unit-stride B out of bounds"
    );
    // Register t holds columns j + t*L..; by the first assert all but the
    // last lie wholly below n, and the last has 1..=L live lanes.
    let last = u16::MAX >> (L - (n - j - (W - 1) * L).min(L));
    let mask = |t: usize| if t + 1 < W { u16::MAX } else { last };
    // Every live lane of register t is a column below n, so a C access
    // stays in `crow` and the B access of row p < b.rows stays inside
    // `b.data` by the second assert. The row pointer only advances with
    // `wrapping_add`, so the step past the last row is never dereferenced.
    // SAFETY: compiled only with avx512f enabled (the cfg above); every
    // live lane is in bounds by the above, and masked-off lanes are never
    // touched.
    unsafe {
        let mut acc = [_mm512_setzero_ps(); W];
        for (t, x) in acc.iter_mut().enumerate() {
            *x = _mm512_maskz_loadu_ps(mask(t), crow[j + t * L..].as_ptr());
        }
        let mut brow = b.data.as_ptr().wrapping_add(j);
        for &av in arow.take(b.rows) {
            let av = _mm512_set1_ps(av);
            for (t, x) in acc.iter_mut().enumerate() {
                let bv = _mm512_maskz_loadu_ps(mask(t), brow.wrapping_add(t * L));
                *x = _mm512_add_ps(*x, _mm512_mul_ps(av, bv));
            }
            brow = brow.wrapping_add(b.rs);
        }
        for (t, &x) in acc.iter().enumerate() {
            _mm512_mask_storeu_ps(crow[j + t * L..].as_mut_ptr(), mask(t), x);
        }
    }
}

/// `c[:, j0..] += a @ b[:, j0..]`, one output row at a time: the loop the
/// exactness contract is written against (at `j0 = 0`), and the small-`m`
/// route's kernel past its last register strip.
fn accumulate_rows(a: MatRef<'_>, b: MatRef<'_>, c: &mut [f32], j0: usize) {
    let n = b.cols;
    for i in 0..a.rows {
        let crow = &mut c[i * n + j0..(i + 1) * n];
        for p in 0..a.cols {
            let av = a.at(i, p);
            if b.cs == 1 {
                let brow = &b.data[p * b.rs + j0..p * b.rs + n];
                for (o, &bv) in crow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            } else {
                for (j, o) in (j0..).zip(crow.iter_mut()) {
                    *o += av * b.data[p * b.rs + j * b.cs];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rand_vec(rng: &mut ChaCha8Rng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.5f32..1.5)).collect()
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{ctx}: element {i} differs: {g} vs {w}"
            );
        }
    }

    fn check_shape(m: usize, k: usize, n: usize, rng: &mut ChaCha8Rng) {
        let a = rand_vec(rng, m * k);
        let b = rand_vec(rng, k * n);
        let mut packed = vec![0.0f32; m * n];
        let mut naive = vec![0.0f32; m * n];
        gemm(
            MatRef::new(&a, m, k),
            MatRef::new(&b, k, n),
            &mut packed,
            false,
        );
        gemm_naive(
            MatRef::new(&a, m, k),
            MatRef::new(&b, k, n),
            &mut naive,
            false,
        );
        assert_bits_eq(&packed, &naive, &format!("{m}x{k}x{n}"));
    }

    #[test]
    fn packed_matches_naive_bitwise_on_edge_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        // Deliberately ragged vs the MR x NR tile (whichever one the build
        // selected) and the MC row slab.
        for (m, k, n) in [
            (1, 1, 1),
            (MR - 1, 5, 2),
            (MR, 16, NR),
            (MR + 1, 17, NR + 3),
            (8 * MR + 1, 7, 8 * NR + 2),
            (MC + 2, 40, 2 * NR + 1),
        ] {
            check_shape(m, k, n, &mut rng);
        }
    }

    #[test]
    fn packed_matches_naive_bitwise_across_kc_blocks() {
        // k > KC forces multiple KC blocks; the accumulators reload C
        // between blocks, so the result must still be bit-identical.
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        check_shape(9, KC + 300, 21, &mut rng);
    }

    #[test]
    fn accumulate_adds_on_top_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (m, k, n) = (13, 37, 29);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let seed = rand_vec(&mut rng, m * n);
        let mut packed = seed.clone();
        let mut naive = seed.clone();
        gemm(
            MatRef::new(&a, m, k),
            MatRef::new(&b, k, n),
            &mut packed,
            true,
        );
        gemm_naive(
            MatRef::new(&a, m, k),
            MatRef::new(&b, k, n),
            &mut naive,
            true,
        );
        assert_bits_eq(&packed, &naive, "accumulate");
    }

    #[test]
    fn small_m_matches_naive_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        // Every m below one register tile; n below, at and past one 16-lane
        // group, one register strip and two, plus a row of one wide strip
        // and nine groups, the last ragged (401), and one past two wide
        // strips (513); k from one to past one KC block, including the
        // CNN's 288-wide `fc`. Both seedings, and the plain product beside every epilogue, which
        // the want side applies one scalar element at a time.
        let epilogues = [
            (false, FusedAct::Identity),
            (true, FusedAct::Identity),
            (true, FusedAct::Relu),
            (false, FusedAct::Tanh),
            (true, FusedAct::Tanh),
        ];
        let ns = [1, 2, 3, 6, 15, 16, 17, 127, 128, 129, 256, 257, 401, 513];
        for (k, n) in [0, 1, 11, 256, 257, 288]
            .into_iter()
            .flat_map(|k| ns.map(|n| (k, n)))
        {
            let a = rand_vec(&mut rng, MR * k);
            let b = rand_vec(&mut rng, k * n);
            // The same B stored transposed: not unit-stride, so the packed
            // kernel serves it whatever `m` is.
            let b_t: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
            // Wide enough that tanh leaves its Taylor series for the ratio.
            let bias: Vec<f32> = rand_vec(&mut rng, n).iter().map(|x| 4.0 * x).collect();
            let seed = rand_vec(&mut rng, MR * n);
            for (m, accumulate) in (1..MR).flat_map(|m| [(m, false), (m, true)]) {
                let am = MatRef::new(&a[..m * k], m, k);
                let mut reduced = seed[..m * n].to_vec();
                gemm_naive(am, MatRef::new(&b, k, n), &mut reduced, accumulate);
                for (with_bias, act) in epilogues {
                    let bias = with_bias.then_some(&bias[..]);
                    let mut want = reduced.clone();
                    for row in want.chunks_exact_mut(n) {
                        for (j, x) in row.iter_mut().enumerate() {
                            *x = act.activate(*x + bias.map_or(0.0, |bv| bv[j]));
                        }
                    }
                    for (bv, ctx) in [
                        (MatRef::new(&b, k, n), "unit-stride B"),
                        (MatRef::new(&b_t, n, k).t(), "transposed B"),
                    ] {
                        let mut got = seed[..m * n].to_vec();
                        gemm_fused(am, bv, bias, act, &mut got, accumulate);
                        let ctx = format!("{ctx} {m}x{k}x{n} acc={accumulate} {act:?} {bias:?}");
                        assert_bits_eq(&got, &want, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn slab_and_block_seams_match_naive_bitwise() {
        // m crosses one and two row-slab boundaries, k sits either side of a
        // KC block, n either side of a register tile; every operand view,
        // both seedings and every epilogue. The last shape has the first
        // Table II convolution's k and n (192 and 16 filters).
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let seams = [MC + 1, 2 * MC + 3].into_iter().flat_map(|m| {
            [KC - 1, KC + 5]
                .into_iter()
                .flat_map(move |k| [NR - 1, NR + 1, 3 * NR + 2].map(|n| (m, k, n)))
        });
        for (m, k, n) in seams.chain([(2 * MC + 3, 192, 16)]) {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            // The same operands stored transposed, read back through `t()`.
            let a_t: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();
            let b_t: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
            let bias = rand_vec(&mut rng, n);
            let seed = rand_vec(&mut rng, m * n);
            for accumulate in [false, true] {
                let mut reduced = seed.clone();
                gemm_naive(
                    MatRef::new(&a, m, k),
                    MatRef::new(&b, k, n),
                    &mut reduced,
                    accumulate,
                );
                for act in [FusedAct::Identity, FusedAct::Tanh, FusedAct::Relu] {
                    let mut want = reduced.clone();
                    epilogue(&mut want, n, 0, n, Some(&bias), act);
                    for (av, bv, ctx) in [
                        (MatRef::new(&a, m, k), MatRef::new(&b, k, n), "A, B"),
                        (MatRef::new(&a_t, k, m).t(), MatRef::new(&b, k, n), "At, B"),
                        (MatRef::new(&a, m, k), MatRef::new(&b_t, n, k).t(), "A, Bt"),
                        (
                            MatRef::new(&a_t, k, m).t(),
                            MatRef::new(&b_t, n, k).t(),
                            "At, Bt",
                        ),
                    ] {
                        let mut got = seed.clone();
                        gemm_fused(av, bv, Some(&bias), act, &mut got, accumulate);
                        let ctx = format!("{ctx} {m}x{k}x{n} acc={accumulate} {act:?}");
                        assert_bits_eq(&got, &want, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn pack_buffers_never_leak_between_calls() {
        // The scratch only grows, so a product packs into whatever an
        // earlier, larger one left there: a large ragged product, then
        // smaller ones whose last panels have fewer rows than MR and fewer
        // columns than NR, on this one thread.
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        for (m, k, n) in [
            (MC + MR + 1, KC + 9, 2 * NR + 5),
            (MR + 1, 40, NR + 3),
            (2 * MR - 1, 7, NR - 1),
            (MR, 3, 1),
        ] {
            check_shape(m, k, n, &mut rng);
            let (a_t, b_t) = (rand_vec(&mut rng, k * m), rand_vec(&mut rng, n * k));
            let (at, bt) = (MatRef::new(&a_t, k, m).t(), MatRef::new(&b_t, n, k).t());
            let (mut packed, mut naive) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
            gemm(at, bt, &mut packed, false);
            gemm_naive(at, bt, &mut naive, false);
            assert_bits_eq(&packed, &naive, &format!("transposed {m}x{k}x{n}"));
        }

        // What a leak would be: padding lanes of a ragged panel keeping what
        // the buffer held. No stored element depends on them (the kernel
        // never writes padded rows or columns back), so the products above
        // cannot see it; the contract is that the lanes are zero.
        let (h, w, kc) = (MR - 1, NR - 3, 5);
        let a = rand_vec(&mut rng, (MR + h) * kc);
        let b = rand_vec(&mut rng, kc * (NR + w));
        let a_t: Vec<f32> = (0..a.len())
            .map(|i| a[(i % (MR + h)) * kc + i / (MR + h)])
            .collect();
        let b_t: Vec<f32> = (0..b.len())
            .map(|i| b[(i % kc) * (NR + w) + i / kc])
            .collect();
        for av in [
            MatRef::new(&a, MR + h, kc),
            MatRef::new(&a_t, kc, MR + h).t(),
        ] {
            let mut buf = vec![f32::NAN; 4 * MR * kc];
            pack_a(av, 0, MR + h, 0, kc, &mut buf);
            for (i, &v) in buf[..2 * MR * kc].iter().enumerate() {
                let (row, p) = (i / (MR * kc) * MR + i % MR, i % (MR * kc) / MR);
                let want = if row < MR + h { av.at(row, p) } else { 0.0 };
                assert_eq!(v.to_bits(), want.to_bits(), "pack_a lane {i}");
            }
        }
        for bv in [
            MatRef::new(&b, kc, NR + w),
            MatRef::new(&b_t, NR + w, kc).t(),
        ] {
            let mut buf = vec![f32::NAN; 4 * NR * kc];
            pack_b(bv, 0, kc, 0, NR + w, &mut buf);
            for (i, &v) in buf[..2 * NR * kc].iter().enumerate() {
                let (col, p) = (i / (NR * kc) * NR + i % NR, i % (NR * kc) / NR);
                let want = if col < NR + w { bv.at(p, col) } else { 0.0 };
                assert_eq!(v.to_bits(), want.to_bits(), "pack_b lane {i}");
            }
        }
    }

    #[test]
    fn transposed_views_feed_the_kernel() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let (m, k, n) = (11, 23, 9);
        // a_t stored as [k, m]; b_t stored as [n, k].
        let a_t = rand_vec(&mut rng, k * m);
        let b_t = rand_vec(&mut rng, n * k);
        let mut packed = vec![0.0f32; m * n];
        let mut naive = vec![0.0f32; m * n];
        let a = MatRef::new(&a_t, k, m).t();
        let b = MatRef::new(&b_t, n, k).t();
        gemm(a, b, &mut packed, false);
        gemm_naive(a, b, &mut naive, false);
        assert_bits_eq(&packed, &naive, "transposed");
    }

    #[test]
    fn fused_bias_act_matches_unfused_chain() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let (m, k, n) = (7, 33, 18);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let bias = rand_vec(&mut rng, n);
        for act in [FusedAct::Identity, FusedAct::Tanh, FusedAct::Relu] {
            let mut fused = vec![0.0f32; m * n];
            gemm_bias_act(
                MatRef::new(&a, m, k),
                MatRef::new(&b, k, n),
                &bias,
                act,
                &mut fused,
            );
            let mut plain = vec![0.0f32; m * n];
            gemm(
                MatRef::new(&a, m, k),
                MatRef::new(&b, k, n),
                &mut plain,
                false,
            );
            for (r, row) in plain.chunks_mut(n).enumerate() {
                for (j, x) in row.iter_mut().enumerate() {
                    *x = act.activate(*x + bias[j]);
                }
                assert_bits_eq(row, &fused[r * n..(r + 1) * n], "fused epilogue");
            }
        }
    }

    /// `|tanh(x) - tanh_ref(x)|` in units of the `f32` spacing at the
    /// reference, which is `f64` tanh of the exactly widened input.
    fn tanh_ulp_error(x: f32) -> f64 {
        let want = f64::from(x).tanh();
        let got = f64::from(tanh(x));
        if want == 0.0 {
            return if got == 0.0 { 0.0 } else { f64::INFINITY };
        }
        let exp = i32::try_from((want.abs().to_bits() >> 52) & 0x7ff).unwrap() - 1023;
        (got - want).abs() / 2f64.powi(exp.max(-126) - 23)
    }

    /// The contract on one input: within 2 ulp, exactly odd, inside [-1, 1].
    fn check_tanh(x: f32) {
        let y = tanh(x);
        let err = tanh_ulp_error(x);
        assert!(err <= 2.0, "tanh({x:e}) = {y:e}: {err:.3} ulp");
        assert_eq!(tanh(-x).to_bits(), (-y).to_bits(), "odd at {x:e}");
        assert!(y.abs() <= 1.0, "tanh({x:e}) = {y:e} outside [-1, 1]");
    }

    #[test]
    fn tanh_within_two_ulp_and_odd() {
        // Every 4099th bit pattern in [0, 12], both signs.
        let top = 12.0f32.to_bits();
        for bits in (0..=top).step_by(4099) {
            check_tanh(f32::from_bits(bits));
            check_tanh(-f32::from_bits(bits));
        }
        // Densely around the series/ratio seam, the saturation to 1 and the
        // clamp.
        for centre in [0.55f32, 9.01, 10.0] {
            let c = centre.to_bits();
            for bits in c - 4096..=c + 4096 {
                check_tanh(f32::from_bits(bits));
            }
        }
        // Subnormals and the smallest normals.
        for bits in (1..0x0100_0000u32).step_by(65_537) {
            check_tanh(f32::from_bits(bits));
        }
    }

    #[test]
    fn tanh_special_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(-f32::NAN).is_nan());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        // Past saturation the result is ±1 exactly, through the clamp too.
        for x in [9.1f32, 10.0, 10.5, 88.0, f32::MAX] {
            assert_eq!(tanh(x), 1.0, "tanh({x})");
            assert_eq!(tanh(-x), -1.0, "tanh(-{x})");
        }
        let tiny = f32::from_bits(1);
        assert_eq!(tanh(tiny), tiny, "tanh x = x below the first ulp");
    }

    #[test]
    fn tanh_over_a_row_equals_per_element_calls() {
        // Lengths 1..=67 at offsets 0..16 cover the vectorised body, its
        // misaligned starts and the scalar tail.
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let src: Vec<f32> = (0..83).map(|_| rng.gen_range(-12.0f32..12.0)).collect();
        for len in 1..=67 {
            for off in 0..16 {
                let mut row = src[off..off + len].to_vec();
                activate_row(FusedAct::Tanh, &mut row);
                for (i, (&got, &x)) in row.iter().zip(&src[off..]).enumerate() {
                    let want = std::hint::black_box(tanh)(x);
                    assert_eq!(got.to_bits(), want.to_bits(), "len {len} off {off} i {i}");
                }
            }
        }
    }

    /// Every `f32` in [0, 12]: about 1.1e9 inputs, so it is left out of the
    /// default run (`cargo test --release -p stellaris-nn -- --ignored
    /// tanh_exhaustive`). Prints the maximum error.
    #[test]
    #[ignore]
    fn tanh_exhaustive_scan() {
        let (mut worst, mut at) = (0.0f64, 0.0f32);
        for bits in 0..=12.0f32.to_bits() {
            let x = f32::from_bits(bits);
            let err = tanh_ulp_error(x);
            if err > worst {
                (worst, at) = (err, x);
            }
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "odd at {x:e}");
        }
        println!("tanh max error over [0, 12]: {worst:.4} ulp at {at:e}");
        assert!(worst <= 2.0);
    }

    #[test]
    fn par_threshold_keys_on_flops_not_output_size() {
        // Policy-head shape: tiny output (m*n = 8192 was below the old
        // m*n threshold of 16384) but 4.2M multiply-adds of work.
        assert!(par_worthwhile(2048, 4, 512), "tall-skinny must parallelise");
        assert!(!par_worthwhile(64, 64, 8), "small products stay serial");
        assert!(
            par_worthwhile(usize::MAX, usize::MAX, usize::MAX),
            "saturates"
        );
    }

    #[test]
    fn degenerate_dims_are_safe() {
        let a: Vec<f32> = vec![];
        let b = vec![1.0f32, 2.0];
        // k = 0: result is the zero matrix.
        let mut c = vec![9.0f32; 2];
        gemm(MatRef::new(&a, 1, 0), MatRef::new(&a, 0, 2), &mut c, false);
        assert_eq!(c, vec![0.0, 0.0]);
        // m = 0 / n = 0: empty output, no panic.
        let mut empty: Vec<f32> = vec![];
        gemm(
            MatRef::new(&a, 0, 2),
            MatRef::new(&b, 2, 1),
            &mut empty,
            false,
        );
        gemm(
            MatRef::new(&b, 1, 2),
            MatRef::new(&a, 2, 0),
            &mut empty,
            false,
        );
    }
}
