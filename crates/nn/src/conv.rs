//! 2-D convolution kernels: a direct forward, a direct weight gradient and
//! a direct input gradient, with im2col products as their references.
//!
//! The paper's Atari policy (Table II) uses strided convolutions with no
//! padding, so this module implements valid (unpadded) strided convolution
//! only. [`im2col`] expands the whole mini-batch into one patch matrix with
//! a row per output position, `[b*oh*ow, ckk]`. `W2` is the weight read
//! as `[out_c, ckk]`, and `G` the upstream gradient times the activation's
//! derivative, laid out by [`gradient_rows`] as `[b*oh*ow, out_c]` (one
//! output position's filters side by side; `G^T` is a stride view of it):
//!
//! * forward — [`conv2d_forward`] (`Graph::conv2d*`) and
//!   [`Filters::forward`] (`Cnn::forward_plain`), one forward behind both.
//!   Under `target_feature = "avx512f"`, Table II's first layer (16
//!   filters of 8x8 at stride 4, output rows of at least 9) runs a row
//!   kernel: 9 adjacent positions of one output row, one zmm accumulator
//!   each, every pixel a constant offset from its kernel row's base, so
//!   neighbouring windows share their broadcasts. Layers of 32 filters
//!   (Table II's second) run a flattened kernel: 9 output positions by two
//!   zmm accumulators over each image's `oh*ow` positions (a 42-px frame's
//!   whole second-layer output, so an actor's batch-1 step is one tile).
//!   Both broadcast each pixel straight from the image, with no patch
//!   matrix, read the filters re-laid as `[ckk, out_c]`, and apply the
//!   bias and activation as they write `[b, out_c, oh, ow]`: one 16x16
//!   transpose turns a tile's positions into lanes, so each filter's run
//!   of them is one masked store. [`conv2d_forward`]
//!   re-lays the filters on every call, which a mini-batch amortises;
//!   [`Filters`] holds the re-lay beside the weights a layer owns, built by
//!   its first forward and dropped by any mutable borrow of them, so a
//!   forward never reads the re-lay of other weights. Other widths and the
//!   portable build run `conv2d_reference`: the patch matrix times `W2^T`
//!   on the packed kernel in [`crate::gemm`], then one transposing pass for
//!   the bias and activation;
//! * `db` — summed by [`gradient_rows`] in the pass that lays `G` out:
//!   per image and, under `target_feature = "avx512f"`, per 16-channel
//!   group, a register seeded with −0.0 takes the group's transposed rows
//!   in ascending position order (the portable pass sums each channel's
//!   plane with `Iterator::sum`, the same chain), and each image's sums
//!   are added onto `db` in image order: lane by lane, the strided scalar
//!   chain `db[o] += Σ_positions G[.., o]` the graph ran as a walk of its
//!   own;
//! * `dW += G^T [out_c, b*hw] x patches [b*hw, ckk]` —
//!   [`conv2d_weight_grad`], accumulating into the weight's gradient
//!   buffer. Under `target_feature = "avx512f"` Table II's layers (16
//!   filters at stride 4, 32 at stride 2) run a direct kernel: per block
//!   of images (at least 64 output positions), per tile of two kernel
//!   rows by 8 (16 filters) or 4 (32 filters) columns, `out_c / 16` zmm
//!   accumulators per column, seeded from a `[ckk, out_c]` re-lay of
//!   `dW`; per output position one row of `G`, and one pixel per column
//!   broadcast straight from the image. Other
//!   geometries and the portable build append the patch matrix to the
//!   caller's scratch and run the packed GEMM. The graph calls this in the
//!   backward pass only, and only when the weight's gradient is wanted, so
//!   no patch matrix outlives one backward closure;
//! * `dX += col2im(W2^T [ckk, out_c] x G^T [out_c, b*hw])` —
//!   [`conv2d_input_grad`], only when the input's gradient is wanted (on
//!   the training paths, the second layer's). Under `target_feature =
//!   "avx512f"` 16 input channels under 32 filters (Table II's second
//!   layer) run a direct kernel with a lane per input channel: per image,
//!   `dX` is transposed into a pixel-major tile, each contribution
//!   `(kernel offset, output position)` is computed in a register and
//!   added onto its pixel's tile row, and the tile goes back. Other
//!   geometries and the portable build compute the column gradient `dcol`
//!   on the packed GEMM and scatter it with [`col2im`]. A first
//!   contribution is written (`accumulate = false`): the tile starts from
//!   zeros instead of `dX` (the reference zeroes `dX` first), so the
//!   graph's buffer for it is neither zeroed nor read.
//!
//! # Same bits as the reference
//!
//! The direct kernels compute every element as the packed GEMM does, by
//! one fused multiply-add per term (`_mm512_fmadd_ps`, rounded once, as
//! every product kernel of [`crate::gemm`] does), in ascending reduction
//! order, with the GEMM's A operand as the multiply's first operand:
//!
//! * the forward seeds its accumulators from zero, adds the products of
//!   the `(c, ky, kx)` offsets in ascending order with the pixel first,
//!   then computes `act(sum + bias)`;
//! * `dW` seeds its accumulators from `dW`'s current value, as the GEMM's
//!   `accumulate` does, and adds the products of the `b*oh*ow` rows in
//!   ascending order with `G^T` first: the packed GEMM reduces the same
//!   `k` in `KC` blocks that resume exactly from C, and the kernel's
//!   store and reload of its partial sums between image blocks is as
//!   exact;
//! * `dX` gives each contribution the reference's `dcol` element, an
//!   ascending-`out_c` chain seeded at +0 with `W2^T` first, and adds the
//!   contributions onto a pixel's current value in `col2im`'s order:
//!   ascending `(ky, kx)` (a pixel takes at most one contribution per
//!   kernel offset, and the kernel's tiles of two kernel columns need a
//!   stride of at least two, so no pixel takes two of one tile's).
//!
//! So each output is bit-identical to its reference
//! (`direct_forward_matches_reference_bitwise`,
//! `direct_dw_matches_reference_bitwise`,
//! `direct_dx_matches_reference_bitwise`), and
//! `forward_fuses_multiply_and_add`, `dw_fuses_multiply_and_add` and
//! `dx_fuses_multiply_and_add` tell each kernel from an unfused one. The
//! bias sum meets the strided scalar chain
//! (`bias_sums_match_the_strided_chain_bitwise`, with an all-(−0.0)
//! channel that a +0.0 seed would flip), the held filters meet fresh ones
//! after a change (`held_filters_follow_every_change`), and a first-write
//! `dX` meets one accumulated onto zeros.
//!
//! # Same bits as one product per image
//!
//! The per-image form (`W2 x col_i`, `dW += G_i x col_i^T`,
//! `W2^T x G_i` through `col2im`, image by image — kept as the reference
//! in `graph.rs`'s tests) computes the same sums in the same order. Every
//! output element is one ascending-`k` reduction under the exactness
//! contract of [`crate::gemm`]; the forward swaps the operands, and `f32`
//! products commute. `dW`'s reduction index runs image-major, then output
//! position — the order in which the per-image accumulating calls added
//! their terms, each resuming from the stored partial sum, which is exact.
//! `dcol` reduces over `out_c` either way, and a pixel belongs to one
//! image, so `col2im` (and the direct `dX`, which gathers in its order)
//! adds a pixel's contributions in the per-image order.

use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

use crate::gemm::{self, FusedAct, MatRef};
use crate::tensor::Tensor;

/// Resolved convolution geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both axes).
    pub stride: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dSpec {
    /// Infers the full geometry from input/weight shapes, panicking on any
    /// incompatibility (treated as a programming error, like shape errors in
    /// the tensor layer).
    pub fn infer(input: &[usize], weight: &[usize], stride: usize) -> Self {
        assert_eq!(input.len(), 4, "conv2d input must be [b,c,h,w]");
        assert_eq!(weight.len(), 4, "conv2d weight must be [o,c,kh,kw]");
        assert!(stride >= 1, "conv2d stride must be >= 1");
        let (batch, in_c, in_h, in_w) = (input[0], input[1], input[2], input[3]);
        let (out_c, wc, kh, kw) = (weight[0], weight[1], weight[2], weight[3]);
        assert_eq!(
            in_c, wc,
            "conv2d channel mismatch: input {in_c}, weight {wc}"
        );
        assert!(kh <= in_h && kw <= in_w, "kernel larger than input");
        let out_h = (in_h - kh) / stride + 1;
        let out_w = (in_w - kw) / stride + 1;
        Self {
            batch,
            in_c,
            in_h,
            in_w,
            out_c,
            kh,
            kw,
            stride,
            out_h,
            out_w,
        }
    }

    /// Column height: `C * kh * kw`.
    #[inline]
    pub fn ckk(&self) -> usize {
        self.in_c * self.kh * self.kw
    }

    /// Output spatial size `OH * OW`.
    #[inline]
    pub fn out_hw(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Geometry `[c, h, w]` of one output image.
    #[inline]
    pub fn out_chw(&self) -> [usize; 3] {
        [self.out_c, self.out_h, self.out_w]
    }
}

/// Expands a `[b, c, h, w]` batch (flat) into the `[b*oh*ow, ckk]` patch
/// matrix, appended to `patches`: row `(image, oy, ox)` holds that output
/// position's receptive field in `(c, ky, kx)` order, copied `kw`
/// contiguous pixels at a time.
pub fn im2col(input: &[f32], spec: &Conv2dSpec, patches: &mut Vec<f32>) {
    let hw_in = spec.in_h * spec.in_w;
    let chw = spec.in_c * hw_in;
    assert_eq!(
        input.len(),
        spec.batch * chw,
        "conv2d input length does not match its geometry"
    );
    patches.reserve(spec.batch * spec.out_hw() * spec.ckk());
    for img in input.chunks_exact(chw) {
        for oy in 0..spec.out_h {
            for ox in 0..spec.out_w {
                let origin = oy * spec.stride * spec.in_w + ox * spec.stride;
                for c in 0..spec.in_c {
                    for ky in 0..spec.kh {
                        let src = c * hw_in + ky * spec.in_w + origin;
                        patches.extend_from_slice(&img[src..src + spec.kw]);
                    }
                }
            }
        }
    }
}

/// `act(conv(x, w) + bias)` for a flat `[b, c, h, w]` input, as the flat
/// `[b, out_c, oh, ow]` output: the one convolution forward in the crate.
/// Under `target_feature = "avx512f"` the row kernel serves 16 filters of
/// width 8 at stride 4 on output rows of at least 9 (Table II's first
/// layer) and the flattened kernel serves 32 filters (its second); every
/// other call runs `conv2d_reference`, with the same bits (module docs).
pub fn conv2d_forward(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
    act: FusedAct,
) -> Vec<f32> {
    forward(x, w, None, bias, spec, act)
}

/// The forward behind [`conv2d_forward`] and [`Filters::forward`]. The
/// direct kernels read the filters re-laid as `[ckk, out_c]`; `held`, when
/// given, keeps that re-lay of `w` from one call to the next, else each
/// call makes its own.
fn forward(
    x: &[f32],
    w: &[f32],
    held: Option<&OnceLock<Vec<f32>>>,
    bias: &[f32],
    spec: &Conv2dSpec,
    act: FusedAct,
) -> Vec<f32> {
    #[cfg(target_feature = "avx512f")]
    {
        let row = (spec.out_c, spec.kw, spec.stride) == (16, 8, 4) && spec.out_w >= direct::PR;
        if row || spec.out_c == 32 {
            let fresh;
            let wt = match held {
                Some(cell) => cell.get_or_init(|| direct::by_offset(w, spec.out_c)),
                None => {
                    fresh = direct::by_offset(w, spec.out_c);
                    &fresh
                }
            };
            return match row {
                true => direct::conv2d_row_direct::<8, 4>(x, wt, bias, spec, act),
                false => direct::conv2d_direct(x, wt, bias, spec, act),
            };
        }
    }
    #[cfg(not(target_feature = "avx512f"))]
    let _ = held;
    conv2d_reference(x, w, bias, spec, act)
}

/// A convolution's filters `[out_c, in_c, kh, kw]`, holding the re-lay the
/// direct forward kernels read beside them, so that a forward at batch 1
/// (an actor's step) does not re-lay the filters on every call. The re-lay
/// is built by the first forward that needs it, and every mutable borrow
/// of the filters ([`DerefMut`], the only way to one) drops it first: a
/// forward that follows any change to the filters builds it anew, so it
/// never reads a re-lay of other weights.
#[derive(Clone, Debug)]
pub struct Filters {
    w: Tensor,
    by_offset: OnceLock<Vec<f32>>,
}

impl Filters {
    /// `act(conv(x, filters) + bias)`: [`conv2d_forward`] reading the held
    /// re-lay. Panics unless `spec` has these filters' shape.
    pub fn forward(&self, x: &[f32], bias: &[f32], spec: &Conv2dSpec, act: FusedAct) -> Vec<f32> {
        assert_eq!(
            self.w.shape(),
            [spec.out_c, spec.in_c, spec.kh, spec.kw],
            "conv2d filters do not match the geometry"
        );
        forward(x, self.w.data(), Some(&self.by_offset), bias, spec, act)
    }
}

impl From<Tensor> for Filters {
    fn from(w: Tensor) -> Self {
        Self {
            w,
            by_offset: OnceLock::new(),
        }
    }
}

impl Deref for Filters {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        &self.w
    }
}

impl DerefMut for Filters {
    /// Drops the held re-lay: the caller may change the filters.
    fn deref_mut(&mut self) -> &mut Tensor {
        self.by_offset.take();
        &mut self.w
    }
}

/// The reference forward: the [`im2col`] patch matrix times `W2^T` on the
/// packed GEMM, then one transposing pass that adds the bias and applies
/// `act` into `[b, out_c, oh, ow]`.
pub(crate) fn conv2d_reference(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
    act: FusedAct,
) -> Vec<f32> {
    let (oc, hw, ckk) = (spec.out_c, spec.out_hw(), spec.ckk());
    assert_eq!(bias.len(), oc, "conv2d bias length must equal out_c");
    let mut patches = Vec::new();
    im2col(x, spec, &mut patches);
    let rows = spec.batch * hw;
    let mut prod = vec![0.0f32; rows * oc];
    gemm::gemm(
        MatRef::new(&patches, rows, ckk),
        MatRef::new(w, oc, ckk).t(),
        &mut prod,
        false,
    );
    // [b*hw, oc] -> [b, oc, hw], adding the bias on the way.
    let mut out = Vec::with_capacity(rows * oc);
    for img in prod.chunks_exact(hw * oc) {
        for (ch, &beta) in bias.iter().enumerate() {
            out.extend(img.chunks_exact(oc).map(|pos| act.activate(pos[ch] + beta)));
        }
    }
    out
}

/// `dW += G^T x patches` for the flat `[b, c, h, w]` input `x`,
/// accumulating into `dw` (`[out_c, ckk]`, flat-identical to
/// `[o, c, kh, kw]`). `scratch` starts with the gradient rows
/// `G [b*oh*ow, out_c]` as [`gradient_rows`] leaves them; the call replaces
/// what lies behind `G` with its own workspace (the direct kernel's
/// `[ckk, out_c]` re-lay of `dW`, the reference's patch matrix), so a warm
/// caller allocates nothing. Under `target_feature = "avx512f"` the direct
/// kernel serves 16 filters at stride 4 of a width that is a multiple of 8
/// and 32 filters at stride 2 of a width that is a multiple of 4 (Table
/// II's two layers); every other call runs `dw_reference`, with the same
/// bits (module docs).
pub fn conv2d_weight_grad(x: &[f32], spec: &Conv2dSpec, scratch: &mut Vec<f32>, dw: &mut [f32]) {
    #[cfg(target_feature = "avx512f")]
    match (spec.out_c, spec.kw, spec.stride) {
        (16, kw, 4) if kw.is_multiple_of(8) => {
            return direct::conv2d_dw_direct::<1, 8, 4>(x, spec, scratch, dw)
        }
        (32, kw, 2) if kw.is_multiple_of(4) => {
            return direct::conv2d_dw_direct::<2, 4, 2>(x, spec, scratch, dw)
        }
        _ => {}
    }
    dw_reference(x, spec, scratch, dw);
}

/// The reference weight gradient: the [`im2col`] patch matrix, appended to
/// `scratch` behind `G`, times `G^T` (a stride view of `G`) on the packed
/// GEMM, accumulating.
pub(crate) fn dw_reference(x: &[f32], spec: &Conv2dSpec, scratch: &mut Vec<f32>, dw: &mut [f32]) {
    let rows = spec.batch * spec.out_hw();
    let lead = spec.out_c * rows;
    assert!(
        lead <= scratch.len(),
        "scratch must start with the gradient rows [b*oh*ow, out_c]"
    );
    scratch.truncate(lead);
    im2col(x, spec, scratch);
    let (g, patches) = scratch.split_at(lead);
    gemm::gemm(
        MatRef::new(g, rows, spec.out_c).t(),
        MatRef::new(patches, rows, spec.ckk()),
        dw,
        true,
    );
}

/// `dX += col2im(W2^T x G^T)` for the flat `[b, c, h, w]` input gradient
/// `dx`, or, unless `accumulate`, `dX = col2im(..)` onto zeros: `dx`'s
/// contents are then never read, so a first contribution needs no zeroed
/// buffer, and every element is what adding into zeros gives. `scratch`
/// starts with the gradient rows `G [b*oh*ow, out_c]` as
/// [`gradient_rows`] leaves them; the call replaces what lies behind `G`
/// with its own workspace (the direct kernel's re-laid weights and image
/// tile, the reference's column gradient). Under `target_feature =
/// "avx512f"` the direct kernel serves 16 input channels under 32 filters
/// at a stride of at least two and an even kernel width (Table II's second
/// layer); every other call runs `dx_reference`, with the same bits
/// (module docs).
pub fn conv2d_input_grad(
    w: &[f32],
    spec: &Conv2dSpec,
    scratch: &mut Vec<f32>,
    dx: &mut [f32],
    accumulate: bool,
) {
    // The kernel's tiles of two kernel columns need a stride of at least
    // two, so that no pixel takes two of a tile's contributions (module
    // docs).
    #[cfg(target_feature = "avx512f")]
    if (spec.in_c, spec.out_c) == (16, 32) && spec.stride >= 2 && spec.kw.is_multiple_of(2) {
        return direct::conv2d_dx_direct(w, spec, scratch, dx, accumulate);
    }
    dx_reference(w, spec, scratch, dx, accumulate);
}

/// The reference input gradient: `dcol = W2^T [ckk, out_c] x G^T [out_c,
/// b*oh*ow]` on the packed GEMM, appended to `scratch` behind `G`, then
/// scattered onto `dx` (zeroed first unless `accumulate`) by [`col2im`].
pub(crate) fn dx_reference(
    w: &[f32],
    spec: &Conv2dSpec,
    scratch: &mut Vec<f32>,
    dx: &mut [f32],
    accumulate: bool,
) {
    let (oc, ckk) = (spec.out_c, spec.ckk());
    let rows = spec.batch * spec.out_hw();
    let lead = oc * rows;
    assert!(
        lead <= scratch.len(),
        "scratch must start with the gradient rows [b*oh*ow, out_c]"
    );
    scratch.truncate(lead);
    scratch.resize(lead + ckk * rows, 0.0);
    let (g, dcol) = scratch.split_at_mut(lead);
    gemm::gemm(
        MatRef::new(w, oc, ckk).t(),
        MatRef::new(g, rows, oc).t(),
        dcol,
        false,
    );
    if !accumulate {
        dx.fill(0.0);
    }
    col2im(dcol, spec, dx);
}

/// The direct kernels (module docs).
#[cfg(target_feature = "avx512f")]
mod direct {
    use std::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_cmp_ps_mask, _mm512_fmadd_ps, _mm512_loadu_ps,
        _mm512_mask_blend_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_max_ps,
        _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps, _mm512_sub_ps,
        _CMP_GT_OQ,
    };

    use super::Conv2dSpec;
    use crate::gemm::simd::{tanh16, transpose16};
    use crate::gemm::FusedAct;

    /// f32 lanes per zmm register.
    const L: usize = 16;
    /// Kernel columns per register tile of the input gradient.
    const KX: usize = 2;
    /// Output positions per register tile of the row forward (all nine of
    /// a 42-px frame's first-layer output row), of the flattened forward
    /// and of the input gradient (a 42-px frame's whole second-layer
    /// output, a ninth of an 84-px one's: a batch-1 step runs one tile).
    pub(super) const PR: usize = 9;

    /// The extents every index of a direct kernel is formed from.
    struct Dims {
        /// Pixels per input channel plane.
        hw_in: usize,
        /// Pixels per input image.
        chw: usize,
        /// Input pixels between vertically adjacent windows.
        row_step: usize,
        /// Output positions per image.
        hw: usize,
        /// Kernel offsets `(c, ky, kx)`.
        ckk: usize,
        /// The last position's origin plus the last kernel offset: the
        /// largest index into the input any broadcast reads.
        reach: usize,
    }

    impl Dims {
        /// `spec`'s extents, or `None` if any of them overflows `usize`.
        /// Every product is checked, so no index a kernel forms from them
        /// can wrap.
        fn of(spec: &Conv2dSpec) -> Option<Self> {
            let hw_in = spec.in_h.checked_mul(spec.in_w)?;
            let chw = spec.in_c.checked_mul(hw_in)?;
            let row_step = spec.stride.checked_mul(spec.in_w)?;
            let hw = spec.out_h.checked_mul(spec.out_w)?;
            let ckk = spec.in_c.checked_mul(spec.kh)?.checked_mul(spec.kw)?;
            let reach = [
                (spec.batch, chw),
                (spec.out_h, row_step),
                (spec.out_w, spec.stride),
                (spec.in_c, hw_in),
                (spec.kh, spec.in_w),
                (spec.kw, 1),
            ]
            .into_iter()
            .try_fold(0usize, |sum, (n, step)| {
                sum.checked_add(n.saturating_sub(1).checked_mul(step)?)
            })?;
            Some(Self {
                hw_in,
                chw,
                row_step,
                hw,
                ckk,
                reach,
            })
        }

        /// [`Dims::of`] for a kernel whose image operand holds `x` floats
        /// (`batch * chw`) and whose filter operand holds `filters`
        /// (`out_c * ckk`), panicking unless every length matches `spec`.
        fn checked(spec: &Conv2dSpec, x: usize, filters: usize) -> Option<Self> {
            let dims = Self::of(spec);
            assert!(dims.is_some(), "conv2d geometry overflows usize");
            let dims = dims?;
            assert_eq!(
                spec.batch.checked_mul(dims.chw),
                Some(x),
                "conv2d input length does not match its geometry"
            );
            assert_eq!(
                dims.ckk.checked_mul(spec.out_c),
                Some(filters),
                "conv2d weight length does not match its geometry"
            );
            Some(dims)
        }
    }

    /// `W2 [out_c, ckk]` re-laid as `[ckk, out_c]` (`out_c` a multiple of
    /// 16): one kernel offset's filters are adjacent registers.
    fn filters_by_offset(w: &[f32], ckk: usize, oc: usize, wt: &mut [f32]) {
        for (c0, filters) in (0..oc).step_by(L).zip(w.chunks_exact(L * ckk)) {
            planes_to_rows(filters, &mut wt[c0..], oc);
        }
    }

    /// [`filters_by_offset`] of the `oc` filters `w` into a new buffer: the
    /// forward kernels' filter operand.
    pub(super) fn by_offset(w: &[f32], oc: usize) -> Vec<f32> {
        let mut wt = vec![0.0f32; w.len()];
        filters_by_offset(w, w.len() / oc, oc, &mut wt);
        wt
    }

    /// `act(conv(x, w) + bias)` for 32 filters (`G` registers), the
    /// filters `wt` re-laid by [`by_offset`]. Tiles of `PR` output positions
    /// run over each image's flattened `oh*ow` positions; each holds
    /// `PR x G` accumulators and, per kernel offset `(c, ky, kx)` in
    /// ascending order, loads `G` registers of the re-laid weights and
    /// broadcasts one pixel per position. [`store_runs`] writes the tile.
    /// An image's ragged last tile computes its missing positions on its
    /// last real one and stores nothing for them. Panics unless the
    /// operand lengths match `spec` and the farthest pixel any position
    /// reads lies inside `x`.
    #[expect(
        unsafe_code,
        reason = "explicit SIMD kernel: unaligned vector loads of repacked weights, pixel broadcasts and masked stores of the output, whose bounds the asserts at the top establish"
    )]
    pub(super) fn conv2d_direct(
        x: &[f32],
        wt: &[f32],
        bias: &[f32],
        spec: &Conv2dSpec,
        act: FusedAct,
    ) -> Vec<f32> {
        /// Registers per position: 32 filters.
        const G: usize = 2;
        let oc = G * L;
        let (ow, stride) = (spec.out_w, spec.stride);
        let Some(Dims {
            hw_in,
            chw,
            row_step,
            hw,
            reach,
            ..
        }) = Dims::checked(spec, x.len(), wt.len())
        else {
            return Vec::new();
        };
        assert_eq!(spec.out_c, oc, "direct kernel width");
        assert_eq!(bias.len(), oc, "conv2d bias length must equal out_c");
        let mut out = vec![0.0f32; spec.batch * hw * oc];
        if spec.batch * hw == 0 {
            return out;
        }
        assert!(reach < x.len(), "conv2d window out of bounds");
        let (xp, wp, op) = (x.as_ptr(), wt.as_ptr(), out.as_mut_ptr());
        for img in 0..spec.batch {
            for s0 in (0..hw).step_by(PR) {
                let live = (hw - s0).min(PR);
                let org: [usize; PR] = std::array::from_fn(|p| {
                    let s = s0 + p.min(live - 1);
                    img * chw + (s / ow) * row_step + (s % ow) * stride
                });
                // A position s < hw of image img < batch has oy < out_h
                // and ox < ow, and a kernel offset has c < in_c, ky < kh
                // and kx < kw, so origin + offset <= `reach` < x.len() (no
                // term wraps: each is at most its checked counterpart). The
                // weight loads read oc = G*L floats from q*oc for q < ckk,
                // inside `wt`'s ckk*oc, and the bias loads L floats from
                // g*L, g < G, inside `bias` (asserted oc long). Filter
                // g*L + o's run of `live` positions starts at
                // img*oc*hw + (g*L + o)*hw + s0, and s0 + live <= hw,
                // inside `out`'s batch*oc*hw.
                // SAFETY: compiled only with avx512f enabled (the cfg on
                // this module); every access is in bounds by the above.
                unsafe {
                    let bases = org.map(|o| xp.add(o));
                    let mut acc = [[_mm512_setzero_ps(); G]; PR];
                    let mut q = 0;
                    for c in 0..spec.in_c {
                        for ky in 0..spec.kh {
                            let row = c * hw_in + ky * spec.in_w;
                            for off in row..row + spec.kw {
                                let wv: [_; G] = std::array::from_fn(|g| {
                                    _mm512_loadu_ps(wp.add(q * oc + g * L))
                                });
                                for (accp, &base) in acc.iter_mut().zip(&bases) {
                                    let a = _mm512_set1_ps(*base.add(off));
                                    for (x, &wg) in accp.iter_mut().zip(&wv) {
                                        *x = _mm512_fmadd_ps(a, wg, *x);
                                    }
                                }
                                q += 1;
                            }
                        }
                    }
                    for g in 0..G {
                        let beta = _mm512_loadu_ps(bias.as_ptr().add(g * L));
                        let runs = op.add(img * oc * hw + g * L * hw + s0);
                        store_runs(acc.map(|accp| accp[g]), live, beta, act, runs, hw);
                    }
                }
            }
        }
        out
    }

    /// `act(conv(x, w) + bias)` for 16 filters `K` pixels wide at stride
    /// `S`, the filters `wt` re-laid by [`by_offset`], on output rows at
    /// least `PR` positions long. Each register tile
    /// is `PR` adjacent positions of one output row, one accumulator each;
    /// per kernel row `(c, ky)` in ascending order it loads that row's `K`
    /// filter registers and, position by position, adds the `K` products in
    /// ascending `kx`. Every pixel offset is a constant from the row's
    /// base, so the windows of neighbouring positions share their
    /// broadcasts; [`store_runs`] writes the tile. A row whose length is
    /// not a multiple of `PR` ends with a tile that overlaps its
    /// predecessor and stores the shared positions again, with the same
    /// bits. Panics unless the operand lengths match
    /// `spec` and the farthest pixel any position reads lies inside `x`.
    #[expect(
        unsafe_code,
        reason = "explicit SIMD kernel: unaligned vector loads of repacked weights, pixel broadcasts and masked stores of the output, whose bounds the asserts at the top establish"
    )]
    pub(super) fn conv2d_row_direct<const K: usize, const S: usize>(
        x: &[f32],
        wt: &[f32],
        bias: &[f32],
        spec: &Conv2dSpec,
        act: FusedAct,
    ) -> Vec<f32> {
        let (ow, in_w) = (spec.out_w, spec.in_w);
        let Some(Dims {
            hw_in,
            chw,
            row_step,
            hw,
            reach,
            ..
        }) = Dims::checked(spec, x.len(), wt.len())
        else {
            return Vec::new();
        };
        assert_eq!(spec.out_c, L, "direct kernel width");
        assert_eq!((spec.kw, spec.stride), (K, S), "direct kernel geometry");
        assert!(ow >= PR, "an output row holds a whole tile");
        assert_eq!(bias.len(), L, "conv2d bias length must equal out_c");
        let mut out = vec![0.0f32; spec.batch * hw * L];
        if spec.batch * hw == 0 {
            return out;
        }
        assert!(reach < x.len(), "conv2d window out of bounds");
        let (xp, wp, op) = (x.as_ptr(), wt.as_ptr(), out.as_mut_ptr());
        for img in 0..spec.batch {
            for oy in 0..spec.out_h {
                for ox0 in (0..ow).step_by(PR) {
                    let ox0 = ox0.min(ow - PR);
                    let origin = img * chw + oy * row_step + ox0 * S;
                    // Position ox0 + p of row oy of image img, p < PR, has
                    // ox0 + p < ow, and a kernel offset has c < in_c,
                    // ky < kh and kx < K = kw, so origin + c*hw_in +
                    // ky*in_w + p*S + kx <= `reach` < x.len() (no term
                    // wraps: each is at most its checked counterpart). The
                    // weight loads read L floats from q*L, q < ckk, inside
                    // `wt`'s ckk*L, and the bias load L floats of `bias`
                    // (asserted L long). Filter o's run of PR positions
                    // starts at img*L*hw + o*hw + oy*ow + ox0, and
                    // oy*ow + ox0 + PR <= hw, inside `out`'s batch*L*hw.
                    // SAFETY: compiled only with avx512f enabled (the cfg
                    // on this module); every access is in bounds by the
                    // above.
                    unsafe {
                        let mut acc = [_mm512_setzero_ps(); PR];
                        for k in 0..spec.in_c * spec.kh {
                            let (c, ky) = (k / spec.kh, k % spec.kh);
                            let wv: [_; K] =
                                std::array::from_fn(|kx| _mm512_loadu_ps(wp.add((k * K + kx) * L)));
                            let base = xp.add(origin + c * hw_in + ky * in_w);
                            for (p, a) in acc.iter_mut().enumerate() {
                                for (kx, &wk) in wv.iter().enumerate() {
                                    let pix = _mm512_set1_ps(*base.add(p * S + kx));
                                    *a = _mm512_fmadd_ps(pix, wk, *a);
                                }
                            }
                        }
                        let beta = _mm512_loadu_ps(bias.as_ptr());
                        let runs = op.add(img * L * hw + oy * ow + ox0);
                        store_runs(acc, PR, beta, act, runs, hw);
                    }
                }
            }
        }
        out
    }

    /// Writes `act(v + beta)` for the first `live` of `acc`, the
    /// accumulators of consecutive output positions of one image (16
    /// filters each), into the 16 filter planes that start at `runs`, `hw`
    /// floats apart: one 16x16 transpose turns the positions into lanes,
    /// so each filter's run is one masked store. The bias is added and the
    /// activation applied lane by lane as the scalar `act.activate(v +
    /// beta)` does: ReLU as `max(v, 0)`, which gives 0 on NaN as
    /// `f32::max` does ([`tanh16`] is the scalar tanh's operations).
    ///
    /// # Safety
    ///
    /// avx512f must be enabled, `live <= PR`, and every run `runs + o*hw`,
    /// `o < 16`, must hold `live` floats.
    #[expect(
        unsafe_code,
        reason = "explicit SIMD epilogue: masked vector stores whose bounds the caller establishes"
    )]
    #[inline(always)]
    // SAFETY: callers pass the `# Safety` bounds, established in the
    // forward kernels by the asserts at their tops.
    unsafe fn store_runs(
        acc: [__m512; PR],
        live: usize,
        beta: __m512,
        act: FusedAct,
        runs: *mut f32,
        hw: usize,
    ) {
        // SAFETY: the caller's contract covers every store.
        unsafe {
            let zero = _mm512_setzero_ps();
            let rows = std::array::from_fn(|p| match p < PR {
                true => _mm512_add_ps(acc[p], beta),
                false => zero,
            });
            let mask = u16::MAX >> (L - live);
            for (o, &run) in transpose16(rows).iter().enumerate() {
                let run = match act {
                    FusedAct::Identity => run,
                    FusedAct::Tanh => tanh16(run),
                    FusedAct::Relu => _mm512_max_ps(run, zero),
                };
                _mm512_mask_storeu_ps(runs.add(o * hw), mask, run);
            }
        }
    }

    /// `dW += G^T x patches` for `out_c = 16 * G` filters at stride `S`,
    /// the kernel's width a multiple of `K`. `dW` is first re-laid behind
    /// the gradient rows in `scratch` as `[ckk, out_c]`, so one column's
    /// filters are `G` adjacent registers. The images go in blocks of at
    /// least 64 output positions. Each register tile is `K` adjacent
    /// columns of two kernel rows `(c, ky)`, `(c, ky + 1)`: `2 x K x G`
    /// accumulators, seeded from the re-lay and stored back after each
    /// block. Per output position in ascending order it loads that
    /// position's `G` registers of `G` and broadcasts one pixel per column,
    /// each a constant offset from its kernel row's base. A kernel of odd height computes its last
    /// row twice and stores the same bits twice. Panics unless the operand
    /// lengths match `spec` and the farthest pixel any position reads lies
    /// inside `x`.
    #[expect(
        unsafe_code,
        reason = "explicit SIMD kernel: unaligned vector loads of the gradient rows and the re-laid dW, and pixel broadcasts, whose bounds the asserts at the top establish"
    )]
    pub(super) fn conv2d_dw_direct<const G: usize, const K: usize, const S: usize>(
        x: &[f32],
        spec: &Conv2dSpec,
        scratch: &mut Vec<f32>,
        dw: &mut [f32],
    ) {
        const {
            assert!(
                G == 1 || G == 2,
                "a tile column holds at most two registers"
            )
        };
        let oc = G * L;
        let (kh, kw, stride) = (spec.kh, spec.kw, spec.stride);
        let Some(Dims {
            hw_in,
            chw,
            hw,
            ckk,
            reach,
            ..
        }) = Dims::checked(spec, x.len(), dw.len())
        else {
            return;
        };
        assert_eq!(spec.out_c, oc, "direct kernel width");
        assert!(
            kw.is_multiple_of(K) && stride == S,
            "direct kernel geometry"
        );
        let rows = spec.batch * hw;
        assert!(
            rows.checked_mul(oc).is_some_and(|n| n <= scratch.len()),
            "scratch must start with the gradient rows [b*oh*ow, out_c]"
        );
        if rows == 0 || ckk == 0 {
            return;
        }
        assert!(reach < x.len(), "conv2d window out of bounds");
        let lead = rows * oc;
        scratch.truncate(lead);
        scratch.resize(lead + ckk * oc, 0.0);
        let (grows, dwt) = scratch.split_at_mut(lead);
        filters_by_offset(dw, ckk, oc, dwt);
        let (xp, gp, dp) = (x.as_ptr(), grows.as_ptr(), dwt.as_mut_ptr());
        // Images per block: at least 64 output positions between a tile's
        // load and store of its partial sums.
        let block = 64usize.div_ceil(hw);
        for img0 in (0..spec.batch).step_by(block) {
            let imgs = img0..(img0 + block).min(spec.batch);
            for c in 0..spec.in_c {
                for ky0 in (0..kh).step_by(2) {
                    let kys = [ky0, (ky0 + 1).min(kh - 1)];
                    for kx0 in (0..kw).step_by(K) {
                        let cols = kys.map(|ky| (c * kh + ky) * kw + kx0);
                        // Column cols[i] + j < ckk (c < in_c, ky < kh,
                        // kx0 + j < kw), so the re-lay access covers oc =
                        // G*L floats from (cols[i] + j)*oc, inside `dwt`'s
                        // ckk*oc. Position (img, oy, ox) loads oc floats
                        // from its row r*oc, r < rows, inside `grows`; its
                        // pixel for column (c, ky, kx) is img*chw +
                        // c*hw_in + oy*stride*in_w + ky*in_w + ox*stride +
                        // kx <= `reach` < x.len() (no term wraps: each is
                        // at most its checked counterpart).
                        // SAFETY: compiled only with avx512f enabled (the
                        // cfg on this module); every access is in bounds by
                        // the above.
                        unsafe {
                            let mut acc: [[[__m512; G]; K]; 2] = cols.map(|col| {
                                std::array::from_fn(|j| {
                                    std::array::from_fn(|g| {
                                        _mm512_loadu_ps(dp.add((col + j) * oc + g * L))
                                    })
                                })
                            });
                            let mut grow = gp.add(img0 * hw * oc);
                            let rows = imgs
                                .clone()
                                .flat_map(|img| (0..spec.out_h).map(move |oy| (img, oy)));
                            for (img, oy) in rows {
                                let bases = kys.map(|ky| {
                                    xp.add(
                                        img * chw
                                            + c * hw_in
                                            + (oy * stride + ky) * spec.in_w
                                            + kx0,
                                    )
                                });
                                let pairs = spec.out_w / 2;
                                for ox in (0..pairs).map(|p| 2 * p) {
                                    dw_positions::<G, K, S, 2>(&mut acc, bases, ox, grow);
                                    grow = grow.add(2 * oc);
                                }
                                if !spec.out_w.is_multiple_of(2) {
                                    dw_positions::<G, K, S, 1>(&mut acc, bases, 2 * pairs, grow);
                                    grow = grow.add(oc);
                                }
                            }
                            for (acci, &col) in acc.iter().zip(&cols) {
                                for (j, accj) in acci.iter().enumerate() {
                                    for (g, &s) in accj.iter().enumerate() {
                                        _mm512_storeu_ps(dp.add((col + j) * oc + g * L), s);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        for (c0, filters) in (0..oc).step_by(L).zip(dw.chunks_exact_mut(L * ckk)) {
            rows_to_planes(&dwt[c0..], oc, filters);
        }
    }

    /// Adds the products of the `U` output positions from `ox` of one
    /// output row onto a `dW` tile of two kernel rows (`bases`, their first
    /// column's pixel in the window of position 0) by `K` columns, position
    /// by position in ascending order: position `ox + u` loads its `G`
    /// registers of `G` from `grow + u*out_c` and broadcasts the pixel
    /// `(ox + u)*S + j` of each row for column `j`. With `S` and `K`
    /// constants, the pixels that neighbouring windows share are loaded
    /// once.
    ///
    /// # Safety
    ///
    /// avx512f must be enabled, `grow` must hold `U` rows of `16 * G`
    /// floats, and each base must hold `(ox + U - 1)*S + K` floats.
    #[expect(
        unsafe_code,
        reason = "explicit SIMD kernel body: vector loads and pixel broadcasts whose bounds the caller establishes"
    )]
    #[inline(always)]
    // SAFETY: callers pass the `# Safety` bounds, established in
    // `conv2d_dw_direct` by the asserts at its top.
    unsafe fn dw_positions<const G: usize, const K: usize, const S: usize, const U: usize>(
        acc: &mut [[[__m512; G]; K]; 2],
        bases: [*const f32; 2],
        ox: usize,
        grow: *const f32,
    ) {
        // SAFETY: the caller's contract covers every load.
        unsafe {
            let gv: [[__m512; G]; U] = std::array::from_fn(|u| {
                std::array::from_fn(|g| _mm512_loadu_ps(grow.add((u * G + g) * L)))
            });
            for (acci, &base) in acc.iter_mut().zip(&bases) {
                let pix = base.add(ox * S);
                for (j, accj) in acci.iter_mut().enumerate() {
                    for (u, gu) in gv.iter().enumerate() {
                        let a = _mm512_set1_ps(*pix.add(u * S + j));
                        for (s, &gg) in accj.iter_mut().zip(gu) {
                            *s = _mm512_fmadd_ps(gg, a, *s);
                        }
                    }
                }
            }
        }
    }

    /// `dX += col2im(W2^T x G^T)` for 16 input channels (one register, a
    /// lane per channel) under 32 filters, computing each input pixel's
    /// gradient in registers with no column matrix. Per image, `dX` is
    /// transposed into a pixel-major tile `[h*w, 16]` behind the gradient
    /// rows in `scratch` (unless `accumulate`, the tile starts from zeros
    /// and `dX` is not read); then, per pair of kernel columns
    /// `(ky, kx..kx + 2)` in ascending order and per `PR` output positions,
    /// each contribution is an ascending-`out_c` fused multiply-add chain
    /// from +0 (a register of the re-laid weights times one broadcast
    /// gradient), added onto its pixel's tile row; the tile goes back when
    /// the image is done. A tile's positions are consecutive gradient rows,
    /// so a ragged last tile reads rows past the image (the next image's,
    /// or zero padding behind the last) and adds nothing of them. Panics
    /// unless the operand lengths match `spec`, the stride is at least two,
    /// the kernel's width is even and the farthest pixel any window covers
    /// lies inside `dx`.
    #[expect(
        unsafe_code,
        reason = "explicit SIMD kernel: unaligned vector loads of the re-laid weights and the image tile, and gradient broadcasts, whose bounds the asserts at the top establish"
    )]
    pub(super) fn conv2d_dx_direct(
        w: &[f32],
        spec: &Conv2dSpec,
        scratch: &mut Vec<f32>,
        dx: &mut [f32],
        accumulate: bool,
    ) {
        /// Filters.
        const OC: usize = 32;
        let (kh, kw, stride, ow) = (spec.kh, spec.kw, spec.stride, spec.out_w);
        let Some(Dims {
            hw_in,
            chw,
            row_step,
            hw,
            ckk,
            reach,
        }) = Dims::checked(spec, dx.len(), w.len())
        else {
            return;
        };
        assert_eq!((spec.in_c, spec.out_c), (L, OC), "direct kernel width");
        assert!(
            kw.is_multiple_of(KX) && stride >= KX,
            "direct kernel geometry"
        );
        let rows = spec.batch * hw;
        assert!(
            rows.checked_mul(OC).is_some_and(|n| n <= scratch.len()),
            "scratch must start with the gradient rows [b*oh*ow, out_c]"
        );
        if rows == 0 {
            return;
        }
        // With in_c = 16 channels, `reach` < dx.len() = (batch - 1)*chw +
        // 16*hw_in puts the farthest pixel any window covers below hw_in:
        // every store lands inside the image tile.
        assert!(reach < dx.len(), "conv2d window out of bounds");
        let lead = rows * OC;
        // Behind the gradient rows: PR rows of zeros for a ragged tile to
        // read, the weights as [kh*kw, OC, 16] (one offset's filter for
        // all 16 channels is one register), the image tile [h*w, 16].
        scratch.truncate(lead);
        scratch.resize(lead + PR * OC + ckk * OC + hw_in * L, 0.0);
        let (grows, rest) = scratch.split_at_mut(lead + PR * OC);
        let (wt, tile) = rest.split_at_mut(ckk * OC);
        for (o, filter) in w.chunks_exact(ckk).enumerate() {
            planes_to_rows(filter, &mut wt[o * L..], OC * L);
        }
        let (gp, wp) = (grows.as_ptr(), wt.as_ptr());
        for (img, plane) in dx.chunks_exact_mut(chw).enumerate() {
            match accumulate {
                true => planes_to_rows(plane, tile, L),
                false => tile.fill(0.0),
            }
            let tp = tile.as_mut_ptr();
            for ky in 0..kh {
                for kx0 in (0..kw).step_by(KX) {
                    let wk = (ky * kw + kx0) * OC * L;
                    for p0 in (0..hw).step_by(PR) {
                        let live = (hw - p0).min(PR);
                        // Each live position's window origin in the image.
                        let (mut oy, mut ox) = (p0 / ow, p0 % ow);
                        let origin: [usize; PR] = std::array::from_fn(|_| {
                            let at = oy * row_step + ox * stride;
                            (oy, ox) = if ox + 1 == ow {
                                (oy + 1, 0)
                            } else {
                                (oy, ox + 1)
                            };
                            at
                        });
                        // The weight loads read L floats from
                        // wk + (j*OC + o)*L with ky*kw + kx0 + j < kh*kw,
                        // o < OC, inside `wt`'s kh*kw*OC*L = ckk*OC. A tile's broadcasts
                        // read row r0 + p < rows + PR, filter o < OC, inside
                        // `grows` (the rows and their PR-row padding). A
                        // live position (oy, ox), oy < out_h, ox < ow, with
                        // kernel offset (ky, kx) lands on pixel
                        // (oy*stride + ky)*in_w + ox*stride + kx < hw_in
                        // (the `reach` assert; no term wraps: each is at
                        // most its checked counterpart), whose L-float row
                        // lies inside `tile`.
                        // SAFETY: compiled only with avx512f enabled (the
                        // cfg on this module); every access is in bounds by
                        // the above.
                        unsafe {
                            let g0 = gp.add((img * hw + p0) * OC);
                            let mut acc = [[_mm512_setzero_ps(); PR]; KX];
                            for o in 0..OC {
                                let wv: [_; KX] = std::array::from_fn(|j| {
                                    _mm512_loadu_ps(wp.add(wk + (j * OC + o) * L))
                                });
                                for p in 0..PR {
                                    let gv = _mm512_set1_ps(*g0.add(p * OC + o));
                                    for (accj, &wj) in acc.iter_mut().zip(&wv) {
                                        accj[p] = _mm512_fmadd_ps(wj, gv, accj[p]);
                                    }
                                }
                            }
                            for (j, accj) in acc.iter().enumerate() {
                                let offset = ky * spec.in_w + kx0 + j;
                                for (&a, &at) in accj.iter().zip(&origin).take(live) {
                                    let t = tp.add((at + offset) * L);
                                    _mm512_storeu_ps(t, _mm512_add_ps(_mm512_loadu_ps(t), a));
                                }
                            }
                        }
                    }
                }
            }
            rows_to_planes(tile, L, plane);
        }
    }

    /// Copies 16 channel planes of `n` pixels (`planes`, `[16, n]`) into
    /// the first 16 columns of the pixel-major rows `[n, ld]` at the front
    /// of `rows`, 16 pixels at a time through [`transpose16`]; a ragged
    /// last block reads only its live lanes and writes only its live rows.
    #[expect(
        unsafe_code,
        reason = "explicit SIMD transpose: masked vector loads and vector stores whose bounds the asserts at the top establish"
    )]
    pub(super) fn planes_to_rows(planes: &[f32], rows: &mut [f32], ld: usize) {
        let n = planes.len() / L;
        assert!(
            fits(planes.len(), rows.len(), ld),
            "{n} rows of {ld} floats"
        );
        let (pp, rp) = (planes.as_ptr(), rows.as_mut_ptr());
        for p0 in (0..n).step_by(L) {
            let live = (n - p0).min(L);
            let mask = u16::MAX >> (L - live);
            // Plane c's lanes p0..p0 + live lie inside its n pixels (the
            // masked-off lanes are not read), and row p0 + j, j < live,
            // covers L floats from (p0 + j)*ld, at most (n - 1)*ld + L <=
            // rows.len() (`fits`).
            // SAFETY: compiled only with avx512f enabled (the cfg on this
            // module); every access is in bounds by the above.
            unsafe {
                let block =
                    std::array::from_fn(|c| _mm512_maskz_loadu_ps(mask, pp.add(c * n + p0)));
                for (j, &col) in transpose16(block).iter().enumerate().take(live) {
                    _mm512_storeu_ps(rp.add((p0 + j) * ld), col);
                }
            }
        }
    }

    /// [`planes_to_rows`] of the upstream gradient planes `g` times `act`'s
    /// derivative at the output planes `y`, the product taken in registers
    /// between the loads and the transpose: the scalar `g * act'(y)`, one
    /// rounding per element (`1 - y*y` for Tanh, a `y > 0` select for ReLU,
    /// false on NaN as the scalar comparison is), so the rows keep its bits.
    /// Returns each channel's sum of its rows: one register seeded with
    /// −0.0 takes every transposed row in ascending order, which is, lane
    /// by lane, the chain `Iterator::sum` folds over a channel's positions.
    #[expect(
        unsafe_code,
        reason = "explicit SIMD transpose: masked vector loads and vector stores whose bounds the asserts at the top establish"
    )]
    pub(super) fn gradient_planes_to_rows(
        g: &[f32],
        y: &[f32],
        act: FusedAct,
        rows: &mut [f32],
        ld: usize,
    ) -> [f32; L] {
        let n = g.len() / L;
        assert!(
            y.len() == g.len() && fits(g.len(), rows.len(), ld),
            "{n} rows of {ld} floats"
        );
        let (gp, yp, rp) = (g.as_ptr(), y.as_ptr(), rows.as_mut_ptr());
        // SAFETY: compiled only with avx512f enabled (the cfg on this
        // module); a register operation touches no memory.
        let mut sum = unsafe { _mm512_set1_ps(-0.0) };
        for p0 in (0..n).step_by(L) {
            let live = (n - p0).min(L);
            let mask = u16::MAX >> (L - live);
            // As in `planes_to_rows`, `y` read at the same offsets as `g`,
            // which has its length.
            // SAFETY: compiled only with avx512f enabled (the cfg on this
            // module); every access is in bounds by the above.
            unsafe {
                let block = std::array::from_fn(|c| {
                    let gv = _mm512_maskz_loadu_ps(mask, gp.add(c * n + p0));
                    let yv = _mm512_maskz_loadu_ps(mask, yp.add(c * n + p0));
                    let one = _mm512_set1_ps(1.0);
                    let deriv = match act {
                        FusedAct::Identity => one,
                        FusedAct::Tanh => _mm512_sub_ps(one, _mm512_mul_ps(yv, yv)),
                        FusedAct::Relu => {
                            let zero = _mm512_setzero_ps();
                            let live = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(yv, zero);
                            _mm512_mask_blend_ps(live, zero, one)
                        }
                    };
                    _mm512_mul_ps(gv, deriv)
                });
                for (j, &col) in transpose16(block).iter().enumerate().take(live) {
                    _mm512_storeu_ps(rp.add((p0 + j) * ld), col);
                    sum = _mm512_add_ps(sum, col);
                }
            }
        }
        let mut sums = [0.0f32; L];
        // SAFETY: compiled only with avx512f enabled (the cfg on this
        // module); the store writes the L floats of `sums`.
        unsafe { _mm512_storeu_ps(sums.as_mut_ptr(), sum) };
        sums
    }

    /// The inverse of [`planes_to_rows`]: the first 16 columns of the rows
    /// `[n, ld]` at the front of `rows` back into the planes `[16, n]`.
    #[expect(
        unsafe_code,
        reason = "explicit SIMD transpose: vector loads and masked vector stores whose bounds the asserts at the top establish"
    )]
    pub(super) fn rows_to_planes(rows: &[f32], ld: usize, planes: &mut [f32]) {
        let n = planes.len() / L;
        assert!(
            fits(planes.len(), rows.len(), ld),
            "{n} rows of {ld} floats"
        );
        let (rp, pp) = (rows.as_ptr(), planes.as_mut_ptr());
        for p0 in (0..n).step_by(L) {
            let live = (n - p0).min(L);
            let mask = u16::MAX >> (L - live);
            // As in `planes_to_rows`, with the loads and stores swapped:
            // live rows only are read, live lanes only written.
            // SAFETY: compiled only with avx512f enabled (the cfg on this
            // module); every access is in bounds by the above.
            unsafe {
                let block = std::array::from_fn(|j| match j < live {
                    true => _mm512_loadu_ps(rp.add((p0 + j) * ld)),
                    false => _mm512_setzero_ps(),
                });
                for (c, &col) in transpose16(block).iter().enumerate() {
                    _mm512_mask_storeu_ps(pp.add(c * n + p0), mask, col);
                }
            }
        }
    }

    /// Whether `planes` floats are whole 16-channel planes of `n` pixels
    /// whose `n` rows of `ld >= 16` floats (the last one 16 long) fit in
    /// `rows` floats.
    fn fits(planes: usize, rows: usize, ld: usize) -> bool {
        let n = planes / L;
        planes == L * n && ld >= L && n.checked_mul(ld).is_some_and(|len| len + L <= rows + ld)
    }
}

/// Re-lays the upstream gradient `[b, out_c, hw]` of the output `y` as
/// the gradient rows `G [b*hw, out_c]` into `rows` (replacing its
/// contents), each element multiplied by `act`'s derivative at `y`: one
/// output position's filters side by side, as the direct kernels load
/// them. `G^T`, a stride view of it, is the left operand of the `dW`
/// product and the right operand of the `dcol` product.
///
/// Unless `db` is empty, the same pass adds the bias gradient into it:
/// per image in order, each channel's sum of its rows, one chain from
/// −0.0 over the positions in ascending order (what `Iterator::sum` folds,
/// so `-0.0 + -0.0` stays −0.0), is added onto `db[o]`.
pub fn gradient_rows(
    g: &[f32],
    y: &[f32],
    act: FusedAct,
    spec: &Conv2dSpec,
    rows: &mut Vec<f32>,
    db: &mut [f32],
) {
    let (oc, hw) = (spec.out_c, spec.out_hw());
    assert_eq!(
        g.len(),
        y.len(),
        "conv2d gradient and output lengths differ"
    );
    assert!(
        db.is_empty() || db.len() == oc,
        "conv2d bias gradient length must equal out_c"
    );
    // Every element of the rows is written below, so what the buffer held
    // is left in place rather than zeroed.
    let n = g.len();
    let blocks = g.chunks_exact(oc * hw).zip(y.chunks_exact(oc * hw));
    #[cfg(target_feature = "avx512f")]
    if oc.is_multiple_of(16) {
        // Each block of 16 planes is multiplied in registers on its way
        // through the transpose, and summed there: one pass.
        rows.resize(n, 0.0);
        for ((gi, yi), ri) in blocks.zip(rows.chunks_exact_mut(oc * hw)) {
            let planes = gi.chunks_exact(16 * hw).zip(yi.chunks_exact(16 * hw));
            for (c0, (gp, yp)) in (0..oc).step_by(16).zip(planes) {
                let sums = direct::gradient_planes_to_rows(gp, yp, act, &mut ri[c0..], oc);
                for (acc, s) in db.iter_mut().skip(c0).zip(sums) {
                    *acc += s;
                }
            }
        }
        return;
    }
    // One image's products in their own layout first, behind the rows,
    // then moved into place: the product loop runs over contiguous
    // elements, and the transposing one only copies.
    rows.resize(n + oc * hw, 0.0);
    let (out, prod) = rows.split_at_mut(n);
    for ((gi, yi), ri) in blocks.zip(out.chunks_exact_mut(oc * hw)) {
        for ((p, &gv), &yv) in prod.iter_mut().zip(gi).zip(yi) {
            *p = gv * act.deriv_from_output(yv);
        }
        for (o, plane) in prod.chunks_exact(hw).enumerate() {
            for (&v, filters) in plane.iter().zip(ri.chunks_exact_mut(oc)) {
                filters[o] = v;
            }
        }
        for (acc, plane) in db.iter_mut().zip(prod.chunks_exact(hw)) {
            *acc += plane.iter().sum::<f32>();
        }
    }
    rows.truncate(n);
}

/// Scatters the column gradient `dcol [ckk, b*oh*ow]` back onto the flat
/// `[b, c, h, w]` input gradient `dx` (accumulating, since output windows
/// overlap when `stride < k`).
pub fn col2im(dcol: &[f32], spec: &Conv2dSpec, dx: &mut [f32]) {
    let hw = spec.out_hw();
    let ld = spec.batch * hw;
    let chw = spec.in_c * spec.in_h * spec.in_w;
    for (bi, img) in dx.chunks_exact_mut(chw).enumerate() {
        let mut row = 0usize;
        for c in 0..spec.in_c {
            for ky in 0..spec.kh {
                for kx in 0..spec.kw {
                    let src = &dcol[row * ld + bi * hw..row * ld + (bi + 1) * hw];
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn spec_infer_matches_paper_atari_geometry() {
        // Table II first layer: 16 filters of 8x8 (stride 4) over 84x84.
        let spec = Conv2dSpec::infer(&[1, 3, 84, 84], &[16, 3, 8, 8], 4);
        assert_eq!((spec.out_h, spec.out_w), (20, 20));
        // Second layer: 32 of 4x4 (stride 2).
        let spec2 = Conv2dSpec::infer(&[1, 16, 20, 20], &[32, 16, 4, 4], 2);
        assert_eq!((spec2.out_h, spec2.out_w), (9, 9));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: one single-pixel patch per position.
        let img: Vec<f32> = (0..18).map(|x| x as f32).collect();
        let spec = Conv2dSpec::infer(&[2, 1, 3, 3], &[1, 1, 1, 1], 1);
        let mut patches = vec![-1.0];
        im2col(&img, &spec, &mut patches);
        // Appended behind what the buffer held.
        assert_eq!(patches[0], -1.0);
        assert_eq!(patches[1..], img);
    }

    #[test]
    fn im2col_rows_are_receptive_fields() {
        // Two channels of 3x3, 2x2 kernel, stride 1: the last output
        // position (1, 1) sees rows 1..3 x cols 1..3 of each channel.
        let img: Vec<f32> = (0..18).map(|x| x as f32).collect();
        let spec = Conv2dSpec::infer(&[1, 2, 3, 3], &[1, 2, 2, 2], 1);
        let mut patches = Vec::new();
        im2col(&img, &spec, &mut patches);
        assert_eq!(patches.len(), 4 * 8);
        assert_eq!(
            &patches[3 * 8..],
            &[4.0, 5.0, 7.0, 8.0, 13.0, 14.0, 16.0, 17.0]
        );
    }

    #[test]
    fn forward_matches_direct_convolution() {
        let img: Vec<f32> = (0..16).map(|x| x as f32).collect();
        let w = [1.0, 0.0, 0.0, -1.0];
        let spec = Conv2dSpec::infer(&[1, 1, 4, 4], &[1, 1, 2, 2], 1);
        // out[y][x] = img[y][x] - img[y+1][x+1] + 0.5 = -4.5 everywhere.
        let out = conv2d_forward(&img, &w, &[0.5], &spec, FusedAct::Identity);
        assert_eq!(out, vec![-4.5; 9]);
        let relu = conv2d_forward(&img, &w, &[0.5], &spec, FusedAct::Relu);
        assert_eq!(relu, vec![0.0; 9]);
    }

    /// A pixel that is mostly a plain normal draw, else NaN with a random
    /// payload and sign, an infinity, a subnormal or a signed zero.
    fn pixel(rng: &mut ChaCha8Rng) -> f32 {
        let sign = rng.gen_range(0u32..2) << 31;
        match rng.gen_range(0..1000) {
            0 => f32::from_bits(sign | 0x7fc0_0000 | rng.gen_range(0u32..1 << 22)),
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3..=9 => f32::from_bits(sign | rng.gen_range(1u32..1 << 23)),
            10..=19 => f32::from_bits(sign),
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    #[test]
    fn direct_forward_matches_reference_bitwise() {
        // The Table II layers at 42 and 84 px, `(in_c, side, k, stride)`:
        // conv1 over three stacked frames (42 -> 9, 84 -> 20), conv2 over
        // its 16 maps (9 -> 3, 20 -> 9). Batch 1 is an actor's step: a
        // 42-px conv2 is one 9-position tile. Batches 2, 3 and 129 run
        // several images, and the 20-px maps (400 positions per image)
        // end each image with a ragged tile. On AVX-512 builds 16
        // filters take the row kernel on conv1 and 32 the flattened kernel
        // everywhere; 16 on conv2, 8 and 48 fall back. Every route must
        // give the reference's bits, for every epilogue, on pixels that
        // include NaN payloads, infinities, subnormals and signed zeros;
        // so must the held filters' forward, twice (the second call reads
        // the re-lay the first one built).
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        let layers = [(3, 42, 8, 4), (16, 9, 4, 2), (16, 20, 4, 2), (3, 84, 8, 4)];
        let acts = [FusedAct::Identity, FusedAct::Relu, FusedAct::Tanh];
        for (i, (in_c, side, k, stride)) in layers.into_iter().enumerate() {
            for (batch, out_c) in [1, 2, 3, 129]
                .into_iter()
                .flat_map(|b| [16, 32, 8, 48].map(|oc| (b, oc)))
            {
                // The big batch only where the direct kernel runs, and
                // not on the 84-px frames, to keep debug builds quick.
                if batch > 3 && (i == 3 || !matches!(out_c, 16 | 32)) {
                    continue;
                }
                let spec =
                    Conv2dSpec::infer(&[batch, in_c, side, side], &[out_c, in_c, k, k], stride);
                let x: Vec<f32> = (0..batch * in_c * side * side)
                    .map(|_| pixel(&mut rng))
                    .collect();
                let w: Vec<f32> = (0..out_c * spec.ckk())
                    .map(|_| rng.gen_range(-0.3f32..0.3))
                    .collect();
                let bias: Vec<f32> = (0..out_c).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let held = Filters::from(Tensor::from_vec(w.clone(), &[out_c, in_c, k, k]));
                for act in acts {
                    let want = conv2d_reference(&x, &w, &bias, &spec, act);
                    for got in [
                        conv2d_forward(&x, &w, &bias, &spec, act),
                        held.forward(&x, &bias, &spec, act),
                        held.forward(&x, &bias, &spec, act),
                    ] {
                        assert_eq!(got.len(), want.len());
                        for (j, (g, r)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                r.to_bits(),
                                "{spec:?} {act:?}: element {j} is {g}, reference {r}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The rounding residual of the product `a * b`: exact in f64, the
    /// product of two f32, minus its own f32 rounding.
    fn residual(a: f32, b: f32) -> f32 {
        (f64::from(a) * f64::from(b) - f64::from(a * b)) as f32
    }

    #[test]
    fn forward_fuses_multiply_and_add() {
        // Two channels under filters whose last tap is 1 on channel 0 and
        // w on channel 1, every other tap 0: at each window's last pixel
        // channel 0 holds -(x*w) rounded to f32 and channel 1 holds x, with
        // x*w not exact. One fused multiply-add per term leaves the
        // product's nonzero rounding residual; a separate multiply and add
        // leaves 0, and a kernel that drops the last term leaves -(x*w).
        // `(side, k, stride)`: 1x1 windows, where 32 filters take the
        // flattened direct kernel on AVX-512 builds and each image's 16
        // positions give a whole tile and a ragged last one; and
        // Table II's first layer on 42-px frames, where 16 filters take the
        // row kernel. 8 filters, and 16 on 1x1 windows, take the reference.
        let mut rng = ChaCha8Rng::seed_from_u64(36);
        let w1 = 1.1f32;
        for (side, k, stride) in [(4, 1, 1), (42, 8, 4)] {
            let batch = 2;
            let mut x: Vec<f32> = (0..batch * 2 * side * side)
                .map(|_| rng.gen_range(-2.0f32..2.0))
                .collect();
            for out_c in [16, 32, 8] {
                let spec = Conv2dSpec::infer(&[batch, 2, side, side], &[out_c, 2, k, k], stride);
                let kk = k * k;
                let mut w = vec![0.0f32; out_c * 2 * kk];
                for filter in w.chunks_exact_mut(2 * kk) {
                    (filter[kk - 1], filter[2 * kk - 1]) = (1.0, w1);
                }
                // Each window's last pixel, per image: (plane offset, x).
                let last = |img: usize, s: usize| {
                    let (oy, ox) = (s / spec.out_w, s % spec.out_w);
                    img * 2 * side * side + (oy * stride + k - 1) * side + ox * stride + k - 1
                };
                for img in 0..batch {
                    for s in 0..spec.out_hw() {
                        let at = last(img, s);
                        x[at] = -(x[at + side * side] * w1);
                    }
                }
                let got = conv2d_forward(&x, &w, &vec![0.0; out_c], &spec, FusedAct::Identity);
                for (j, &g) in got.iter().enumerate() {
                    let hw = spec.out_hw();
                    let (img, s) = (j / (out_c * hw), j % hw);
                    let want = residual(x[last(img, s) + side * side], w1);
                    assert!(want != 0.0, "the product of position {s} must be inexact");
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "{spec:?}: element {j} is {g}, fused {want}"
                    );
                }
            }
        }
    }

    /// `conv2d_weight_grad` and `dw_reference` on one set of gradient rows
    /// `g`, each onto its own copy of `dw0`: the two results, bit patterns.
    /// The scratch each call leaves must still start with `g`.
    fn both_dw(x: &[f32], g: &[f32], dw0: &[f32], spec: &Conv2dSpec) -> [Vec<u32>; 2] {
        [conv2d_weight_grad, dw_reference].map(|kernel| {
            let mut scratch = g.to_vec();
            let mut dw = dw0.to_vec();
            kernel(x, spec, &mut scratch, &mut dw);
            assert_eq!(
                bits(&scratch[..g.len()]),
                bits(g),
                "{spec:?}: G overwritten"
            );
            bits(&dw)
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `n` draws: the forward's pixels (NaN payloads, infinities,
    /// subnormals, signed zeros) when `special`, else plain values.
    fn draw(rng: &mut ChaCha8Rng, n: usize, special: bool) -> Vec<f32> {
        (0..n)
            .map(|_| match special {
                true => pixel(rng),
                false => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    #[test]
    fn direct_dw_matches_reference_bitwise() {
        // The forward test's layers, batches and filter counts: 16 filters
        // at stride 4 and 32 at stride 2 take the direct kernel on AVX-512
        // builds, other pairs fall back. Both must give the reference's bits when
        // accumulating onto a nonzero `dW`. The image or the gradient is
        // drawn from the forward's pixels, the other operand from plain
        // values; then both from plain values, since a long reduction over
        // the special pixels is mostly NaN and would hide a wrong order.
        // Never both specials at once: when both factors of one product are
        // NaN, which payload `vfmadd` returns depends on the order the
        // compiler encodes them in, which it picks freely (the product
        // commutes) in the GEMM tile too, so no kernel can promise those
        // bits.
        // The last two layers are Table II's with a kernel of odd height
        // (3 x 8 at stride 4 for 16 filters, 3 x 4 at stride 2 for 32), whose
        // last kernel row the direct kernel computes and stores twice.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let layers = [
            (3, 42, 8, 8, 4),
            (16, 9, 4, 4, 2),
            (16, 20, 4, 4, 2),
            (3, 84, 8, 8, 4),
            (3, 42, 3, 8, 4),
            (16, 9, 3, 4, 2),
        ];
        for (i, (in_c, side, kh, kw, stride)) in layers.into_iter().enumerate() {
            for (batch, out_c) in [1, 2, 3, 129]
                .into_iter()
                .flat_map(|b| [16, 32, 8, 48].map(|oc| (b, oc)))
            {
                if batch > 3 && (i == 3 || !matches!(out_c, 16 | 32)) {
                    continue;
                }
                let spec =
                    Conv2dSpec::infer(&[batch, in_c, side, side], &[out_c, in_c, kh, kw], stride);
                let rows = batch * spec.out_hw();
                let dw0: Vec<f32> = (0..out_c * spec.ckk())
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect();
                for special in [[true, false], [false, true], [false, false]] {
                    let x = draw(&mut rng, batch * in_c * side * side, special[0]);
                    let g = draw(&mut rng, rows * out_c, special[1]);
                    let [got, want] = both_dw(&x, &g, &dw0, &spec);
                    for (j, (g, r)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g,
                            r,
                            "{spec:?} special {special:?}: element {j} is {}, reference {}",
                            f32::from_bits(*g),
                            f32::from_bits(*r)
                        );
                    }
                    if special == [false, false] {
                        assert!(got.iter().zip(&dw0).all(|(g, d)| *g != d.to_bits()));
                    }
                }
            }
        }
    }

    #[test]
    fn dw_fuses_multiply_and_add() {
        // A gradient that is zero but for the last output position, where
        // filter o holds g_o. `dW[o][q]` is seeded with -(g_o*x_q) rounded
        // to f32, x_q being column q's pixel there, with g_o*x_q not exact:
        // one fused multiply-add per term leaves the product's nonzero
        // rounding residual, a separate multiply and add leaves 0, and a
        // kernel that drops the last position leaves the seed.
        // `(in_c, side, kh, kw, stride, out_c)`: Table II's layers, and the
        // same with a kernel of odd height (3 rows, whose last the kernel
        // computes twice), which take the direct kernel on AVX-512 builds;
        // and 1x1 windows, which take the reference.
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let batch = 2;
        for (in_c, side, kh, kw, stride, out_c) in [
            (3, 42, 8, 8, 4, 16),
            (16, 9, 4, 4, 2, 32),
            (3, 42, 3, 8, 4, 16),
            (16, 9, 3, 4, 2, 32),
            (20, 3, 1, 1, 1, 16),
            (20, 3, 1, 1, 1, 8),
        ] {
            let spec =
                Conv2dSpec::infer(&[batch, in_c, side, side], &[out_c, in_c, kh, kw], stride);
            let x = draw(&mut rng, batch * in_c * side * side, false);
            let mut patches = Vec::new();
            im2col(&x, &spec, &mut patches);
            let pix = &patches[patches.len() - spec.ckk()..];
            let rows = batch * spec.out_hw();
            let gs = draw(&mut rng, out_c, false);
            let mut g = vec![0.0f32; rows * out_c];
            g[(rows - 1) * out_c..].copy_from_slice(&gs);
            let dw0: Vec<f32> = gs
                .iter()
                .flat_map(|&g| pix.iter().map(move |&v| -(g * v)))
                .collect();
            let mut scratch = g;
            let mut dw = dw0;
            conv2d_weight_grad(&x, &spec, &mut scratch, &mut dw);
            for (j, &d) in dw.iter().enumerate() {
                let want = residual(gs[j / spec.ckk()], pix[j % spec.ckk()]);
                assert!(want != 0.0, "the product of column {j} must be inexact");
                assert_eq!(
                    d.to_bits(),
                    want.to_bits(),
                    "{spec:?}: element {j} is {d}, fused {want}"
                );
            }
        }
    }

    /// `conv2d_input_grad` and `dx_reference` on one set of gradient rows
    /// `g`, each onto its own copy of `dx0`: the two results, bit patterns.
    fn both_dx(
        w: &[f32],
        g: &[f32],
        dx0: &[f32],
        spec: &Conv2dSpec,
        accumulate: bool,
    ) -> [Vec<u32>; 2] {
        [conv2d_input_grad, dx_reference].map(|kernel| {
            let mut scratch = g.to_vec();
            let mut dx = dx0.to_vec();
            kernel(w, spec, &mut scratch, &mut dx, accumulate);
            assert_eq!(
                bits(&scratch[..g.len()]),
                bits(g),
                "{spec:?}: G overwritten"
            );
            bits(&dx)
        })
    }

    #[test]
    fn direct_dx_matches_reference_bitwise() {
        // Table II's second layer at 42 and 84 px, over 16 input channels;
        // one at stride 1 and one of odd width, which fall back because the
        // kernel's two-column tiles need neither; and the first layer,
        // whose 3 channels always fall back. 32 filters take the direct
        // kernel on AVX-512 builds, 16, 8 and 48 fall back. Batches 1-3
        // and 129 give ragged position tiles that read into the next image
        // and past the last. Both must give the reference's bits when
        // accumulating onto a nonzero `dX`, with the weights or the gradient
        // drawn from the forward's special pixels (never both, as for `dW`),
        // then both plain; and, writing a first contribution onto a `dX` of
        // NaNs, which neither may read, the bits of accumulating onto zeros.
        let mut rng = ChaCha8Rng::seed_from_u64(49);
        let layers = [
            (16, 9, 4, 2),
            (16, 20, 4, 2),
            (16, 7, 3, 1),
            (16, 11, 3, 2),
            (3, 42, 8, 4),
        ];
        for (i, (in_c, side, k, stride)) in layers.into_iter().enumerate() {
            for (batch, out_c) in [1, 2, 3, 129]
                .into_iter()
                .flat_map(|b| [16, 32, 8, 48].map(|oc| (b, oc)))
            {
                if batch > 3 && (i > 1 || out_c != 32) {
                    continue;
                }
                let spec =
                    Conv2dSpec::infer(&[batch, in_c, side, side], &[out_c, in_c, k, k], stride);
                let rows = batch * spec.out_hw();
                let dx0 = draw(&mut rng, batch * in_c * side * side, false);
                for special in [[true, false], [false, true], [false, false]] {
                    let w = draw(&mut rng, out_c * spec.ckk(), special[0]);
                    let g = draw(&mut rng, rows * out_c, special[1]);
                    let [got, want] = both_dx(&w, &g, &dx0, &spec, true);
                    for (j, (g, r)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g,
                            r,
                            "{spec:?} special {special:?}: element {j} is {}, reference {}",
                            f32::from_bits(*g),
                            f32::from_bits(*r)
                        );
                    }
                    let [onto_zeros, _] = both_dx(&w, &g, &vec![0.0; dx0.len()], &spec, true);
                    let written = both_dx(&w, &g, &vec![f32::NAN; dx0.len()], &spec, false);
                    for first in written {
                        assert!(
                            first == onto_zeros,
                            "{spec:?} special {special:?}: first write"
                        );
                    }
                    if special == [false, false] {
                        // Every pixel some window covers has moved.
                        let mut covered = vec![0.0f32; dx0.len()];
                        col2im(&vec![1.0; spec.ckk() * rows], &spec, &mut covered);
                        let moved = got.iter().zip(&dx0).map(|(g, d)| *g != d.to_bits());
                        assert!(moved.zip(&covered).all(|(m, &c)| m == (c > 0.0)));
                    }
                }
            }
        }
    }

    #[test]
    fn dx_fuses_multiply_and_add() {
        // Every filter but the last two is 0, and so is its gradient. At
        // kernel offset q those two hold -(a_q*b) rounded to f32 and a_q,
        // and their gradients are 1 and b at every position, with a_q*b not
        // exact. Each contribution's chain then ends in the product's
        // nonzero rounding residual, which `col2im` adds onto `dX` in the
        // reference's order; a separate multiply and add gives
        // contributions of 0, and a kernel that drops the last filter
        // leaves -(a_q*b). Table II's second layer at 42 px, where 32
        // filters take the direct kernel on AVX-512 builds and 16 and 8 the
        // reference, onto a `dX` of zeros, which rounds no residual away.
        let mut rng = ChaCha8Rng::seed_from_u64(50);
        let (batch, b) = (2, 1.1f32);
        for out_c in [16, 32, 8] {
            let spec = Conv2dSpec::infer(&[batch, 16, 9, 9], &[out_c, 16, 4, 4], 2);
            let (ckk, rows) = (spec.ckk(), batch * spec.out_hw());
            let a = draw(&mut rng, ckk, false);
            let mut w = vec![0.0f32; out_c * ckk];
            let (negated, last) = w[(out_c - 2) * ckk..].split_at_mut(ckk);
            for ((n, l), &aq) in negated.iter_mut().zip(last.iter_mut()).zip(&a) {
                (*n, *l) = (-(aq * b), aq);
            }
            let mut g = vec![0.0f32; rows * out_c];
            for filters in g.chunks_exact_mut(out_c) {
                (filters[out_c - 2], filters[out_c - 1]) = (1.0, b);
            }
            let mut dcol = vec![0.0f32; ckk * rows];
            for (col, &aq) in dcol.chunks_exact_mut(rows).zip(&a) {
                col.fill(residual(aq, b));
                assert!(col[0] != 0.0, "the product {aq} * {b} must be inexact");
            }
            let mut want = vec![0.0f32; batch * 16 * 81];
            col2im(&dcol, &spec, &mut want);
            let mut dx = vec![0.0f32; want.len()];
            conv2d_input_grad(&w, &spec, &mut g, &mut dx, true);
            for (j, (d, r)) in dx.iter().zip(&want).enumerate() {
                assert_eq!(
                    d.to_bits(),
                    r.to_bits(),
                    "{spec:?}: element {j} is {d}, fused {r}"
                );
            }
            assert!(want.iter().any(|&r| r != 0.0));
        }
    }

    #[test]
    #[cfg_attr(
        target_feature = "avx512f",
        should_panic(expected = "conv2d window out of bounds")
    )]
    #[cfg_attr(not(target_feature = "avx512f"), should_panic)]
    fn input_grad_rejects_windows_past_the_image() {
        // A hand-built spec whose 10 x 10 output claims more windows than
        // a 4 x 4 image holds at stride 2: the direct kernel's geometry
        // (16 channels, 32 filters, an even kernel width) with every
        // operand the length the spec asks for, so only the window reach
        // can refuse it (the reference's `col2im` indexes out of bounds).
        let spec = Conv2dSpec {
            out_h: 10,
            out_w: 10,
            ..Conv2dSpec::infer(&[1, 16, 4, 4], &[32, 16, 2, 2], 2)
        };
        let w = vec![0.5f32; 32 * spec.ckk()];
        let mut scratch = vec![1.0f32; spec.out_hw() * 32];
        let mut dx = vec![0.0f32; 16 * 16];
        conv2d_input_grad(&w, &spec, &mut scratch, &mut dx, true);
    }

    #[test]
    fn gradient_rows_are_position_major() {
        // [b=2, oc=2, hw=2] -> [b*hw=4, oc=2], times act'(y).
        let spec = Conv2dSpec::infer(&[2, 1, 1, 2], &[2, 1, 1, 1], 1);
        let g = [0.0, 1.0, 10.0, 11.0, 2.0, 3.0, 12.0, 13.0];
        let y = [1.0, 0.0, 2.0, 0.5, 0.0, 3.0, 0.0, 1.0];
        let mut rows = vec![9.0f32; 3];
        gradient_rows(&g, &y, FusedAct::Identity, &spec, &mut rows, &mut []);
        assert_eq!(rows, [0.0, 10.0, 1.0, 11.0, 2.0, 12.0, 3.0, 13.0]);
        // Under ReLU the positions whose output is zero pass no gradient.
        gradient_rows(&g, &y, FusedAct::Relu, &spec, &mut rows, &mut []);
        assert_eq!(rows, [0.0, 10.0, 0.0, 11.0, 0.0, 0.0, 3.0, 13.0]);
        // 16 and 32 filters (the AVX-512 build's block transpose), over
        // position counts with a ragged last block of 16.
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        for (oc, side) in [(16, 9), (32, 3), (32, 20), (8, 5)] {
            let spec = Conv2dSpec::infer(&[3, 1, side, side], &[oc, 1, 1, 1], 1);
            let hw = spec.out_hw();
            let g = draw(&mut rng, 3 * oc * hw, true);
            let y = draw(&mut rng, 3 * oc * hw, false);
            for act in [FusedAct::Identity, FusedAct::Relu, FusedAct::Tanh] {
                gradient_rows(&g, &y, act, &spec, &mut rows, &mut []);
                let want: Vec<f32> = (0..3 * hw)
                    .flat_map(|r| (0..oc).map(move |o| (r / hw * oc + o) * hw + r % hw))
                    .map(|j| g[j] * act.deriv_from_output(y[j]))
                    .collect();
                assert_eq!(bits(&rows), bits(&want), "{oc} filters of {hw} positions");
            }
        }
    }

    #[test]
    fn bias_sums_match_the_strided_chain_bitwise() {
        // `gradient_rows` adds the bias gradient in its one pass; the chain
        // it must reproduce is the strided scalar one: per channel, per
        // image in order, `Iterator::sum` over the channel's rows (a fold
        // from -0.0 in ascending position order) added onto `db`. Table
        // II's layers (16 filters over 81 positions, 32 over 9) and 24
        // filters, which fall back to the scalar pass on AVX-512 builds,
        // at batches 1, 3 and 129, under every activation, onto a `db`
        // that holds -0.0 in its first channel and plain values elsewhere.
        // The first channel's gradient is -0.0 everywhere: its sum is -0.0
        // and `-0.0 + -0.0` keeps the sign, which a +0.0 seed would flip.
        // One position of the second channel is a NaN with a payload; the
        // third holds +inf and -inf; the fourth a lone -inf. Only the last
        // image carries them, so no chain meets two NaNs, whose payload
        // order the compiler may pick either way.
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        for (oc, side) in [(16, 9), (32, 3), (24, 9)] {
            for batch in [1, 3, 129] {
                let spec = Conv2dSpec::infer(&[batch, 1, side, side], &[oc, 1, 1, 1], 1);
                let hw = spec.out_hw();
                let mut g = draw(&mut rng, batch * oc * hw, false);
                let last = (batch - 1) * oc * hw;
                for img in g.chunks_exact_mut(oc * hw) {
                    img[..hw].fill(-0.0);
                }
                g[last + hw + hw / 2] = f32::from_bits(0x7fc0_1234);
                g[last + 2 * hw] = f32::INFINITY;
                g[last + 3 * hw - 1] = f32::NEG_INFINITY;
                g[last + 3 * hw + 1] = f32::NEG_INFINITY;
                // The first four channels' outputs lie in (0, 1), where
                // every activation's derivative is positive: their rows
                // keep the gradient's signs and specials.
                let y: Vec<f32> = draw(&mut rng, g.len(), false)
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| match j % (oc * hw) < 4 * hw {
                        true => 0.25 + 0.3 * v.abs(),
                        false => v,
                    })
                    .collect();
                let db0: Vec<f32> = std::iter::once(-0.0)
                    .chain(draw(&mut rng, oc - 1, false))
                    .collect();
                for act in [FusedAct::Identity, FusedAct::Relu, FusedAct::Tanh] {
                    let (mut rows, mut db) = (Vec::new(), db0.clone());
                    gradient_rows(&g, &y, act, &spec, &mut rows, &mut db);
                    let mut want = db0.clone();
                    for (o, acc) in want.iter_mut().enumerate() {
                        for img in rows.chunks_exact(hw * oc) {
                            *acc += img.iter().skip(o).step_by(oc).sum::<f32>();
                        }
                    }
                    assert_eq!(
                        bits(&db),
                        bits(&want),
                        "{oc} filters, batch {batch}, {act:?}"
                    );
                    assert_eq!(db[0].to_bits(), (-0.0f32).to_bits());
                    assert!(db[1].is_nan() && db[2].is_nan() && db[3] == f32::NEG_INFINITY);
                }
            }
        }
    }

    #[test]
    fn held_filters_follow_every_change() {
        // A forward through held filters, then a change through the only
        // mutable borrow there is: the next forward computes with the new
        // filters, bit for bit what fresh filters give, never with the
        // re-lay of the old ones. Table II's layers: the row kernel's 16
        // filters and the flattened kernel's 32 on AVX-512 builds.
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        for (in_c, side, oc, k, stride) in [(3, 42, 16, 8, 4), (16, 9, 32, 4, 2)] {
            let spec = Conv2dSpec::infer(&[1, in_c, side, side], &[oc, in_c, k, k], stride);
            let x = draw(&mut rng, in_c * side * side, false);
            let bias = draw(&mut rng, oc, false);
            let shape = [oc, in_c, k, k];
            let mut held = Filters::from(Tensor::from_vec(
                draw(&mut rng, oc * spec.ckk(), false),
                &shape,
            ));
            let before = held.forward(&x, &bias, &spec, FusedAct::Relu);
            let next = draw(&mut rng, oc * spec.ckk(), false);
            held.data_mut().copy_from_slice(&next);
            let fresh = Filters::from(Tensor::from_vec(next, &shape));
            let got = held.forward(&x, &bias, &spec, FusedAct::Relu);
            assert_eq!(
                bits(&got),
                bits(&fresh.forward(&x, &bias, &spec, FusedAct::Relu))
            );
            assert_ne!(bits(&got), bits(&before));
        }
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        let spec = Conv2dSpec::infer(&[2, 1, 3, 3], &[1, 1, 2, 2], 1);
        let dcol = vec![1.0f32; spec.ckk() * spec.batch * spec.out_hw()];
        let mut dx = vec![0.0f32; 18];
        col2im(&dcol, &spec, &mut dx);
        for img in dx.chunks(9) {
            // Centre pixel is covered by all four 2x2 windows, corners by one.
            assert_eq!((img[4], img[0], img[8]), (4.0, 1.0, 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn spec_rejects_channel_mismatch() {
        Conv2dSpec::infer(&[1, 3, 8, 8], &[4, 2, 3, 3], 1);
    }
}
