//! 2-D convolution kernels: a direct forward and a direct weight gradient,
//! with im2col products as their reference and for the input gradient.
//!
//! The paper's Atari policy (Table II) uses strided convolutions with no
//! padding, so this module implements valid (unpadded) strided convolution
//! only. [`im2col`] expands the whole mini-batch into one patch matrix with
//! a row per output position, `[b*oh*ow, c*kh*kw]`. `W2` is the weight read
//! as `[out_c, ckk]` and `G` the upstream gradient `[b, out_c, oh*ow]`:
//!
//! * forward — [`conv2d_forward`], shared by `Graph::conv2d*` and
//!   `Cnn::forward_plain`. Under `target_feature = "avx512f"`, a layer of
//!   16 or 32 filters (every Table II layer) runs a direct kernel: 8 output
//!   positions by `out_c / 16` zmm accumulators, each pixel broadcast
//!   straight from the image, with no patch matrix and no packing, and the
//!   bias and activation applied as it writes `[b, out_c, oh, ow]`. Other
//!   widths and the portable build run `conv2d_reference`: the patch
//!   matrix times `W2^T` on the packed kernel in [`crate::gemm`], then one
//!   transposing pass for the bias and activation;
//! * `dW += G^T [out_c, b*hw] x patches [b*hw, ckk]` — [`conv2d_weight_grad`],
//!   accumulating into the weight's gradient buffer. Under
//!   `target_feature = "avx512f"` 16 and 32 filters run a direct kernel:
//!   per tile of `ckk` columns, `out_c / 16` zmm accumulators per column,
//!   seeded from `dW`; per output position one row of `G` loaded from its
//!   `[b*hw, out_c]` re-lay, and one pixel per column broadcast straight
//!   from the image. Other widths and the portable build append the patch
//!   matrix to the caller's scratch and run the packed GEMM. The graph
//!   calls this in the backward pass only, and only when the weight's
//!   gradient is wanted, so no patch matrix outlives one backward closure;
//! * `dcol = W2^T [ckk, out_c] x G^T [out_c, b*hw]`, scattered back onto the
//!   input by [`col2im`] — only when the input's gradient is wanted.
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
//!   then computes `act(sum + bias)` in scalar code;
//! * `dW` seeds its accumulators from `dW`'s current value, as the GEMM's
//!   `accumulate` does, and adds the products of the `b*oh*ow` rows in
//!   ascending order with `G^T` first: the packed GEMM reduces the same
//!   `k` in `KC` blocks that resume exactly from C.
//!
//! So each output is bit-identical to its reference
//! (`direct_forward_matches_reference_bitwise`,
//! `direct_dw_matches_reference_bitwise`), and
//! `forward_fuses_multiply_and_add` and `dw_fuses_multiply_and_add` tell
//! either kernel from an unfused one.
//!
//! # Same bits as one product per image
//!
//! The per-image form (`W2 x col_i`, `dW += G_i x col_i^T`,
//! `W2^T x G_i`, image by image — kept as the reference in `graph.rs`'s
//! tests) computes the same sums in the same order. Every output element
//! is one ascending-`k` reduction under the exactness contract of
//! [`crate::gemm`]; the forward swaps the operands, and `f32` products
//! commute. `dW`'s reduction index runs image-major, then
//! output position — the order in which the per-image accumulating calls
//! added their terms, each resuming from the stored partial sum, which is
//! exact. `dcol` reduces over `out_c` either way, and [`col2im`] visits the
//! `(kernel offset, position)` pairs of a destination pixel in the per-image
//! order, because a pixel belongs to one image.

use crate::gemm::{self, FusedAct, MatRef};

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
/// Under `target_feature = "avx512f"` the direct kernel serves 16 and 32
/// filters; every other call runs `conv2d_reference`, with the same bits
/// (module docs).
pub fn conv2d_forward(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
    act: FusedAct,
) -> Vec<f32> {
    #[cfg(target_feature = "avx512f")]
    match spec.out_c {
        16 => return direct::conv2d_direct::<1>(x, w, bias, spec, act),
        32 => return direct::conv2d_direct::<2>(x, w, bias, spec, act),
        _ => {}
    }
    conv2d_reference(x, w, bias, spec, act)
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
/// `[o, c, kh, kw]`). `scratch` holds `G^T [out_c, b*oh*ow]` as
/// [`gradient_rows`] leaves it; the call grows it behind `G^T` for its own
/// workspace (the direct kernel's `[b*oh*ow, out_c]` re-lay of `G`, the
/// reference's patch matrix), so a warm caller allocates nothing. Under
/// `target_feature = "avx512f"` the direct kernel serves 16 and 32
/// filters; every other call runs `dw_reference`, with the same bits
/// (module docs).
pub fn conv2d_weight_grad(x: &[f32], spec: &Conv2dSpec, scratch: &mut Vec<f32>, dw: &mut [f32]) {
    #[cfg(target_feature = "avx512f")]
    match spec.out_c {
        16 => return direct::conv2d_dw_direct::<1, 16>(x, spec, scratch, dw),
        32 => return direct::conv2d_dw_direct::<2, 8>(x, spec, scratch, dw),
        _ => {}
    }
    dw_reference(x, spec, scratch, dw);
}

/// The reference weight gradient: the [`im2col`] patch matrix, appended to
/// `scratch` behind `G^T`, times `G^T` on the packed GEMM, accumulating.
pub(crate) fn dw_reference(x: &[f32], spec: &Conv2dSpec, scratch: &mut Vec<f32>, dw: &mut [f32]) {
    let rows = spec.batch * spec.out_hw();
    let lead = spec.out_c * rows;
    assert_eq!(
        scratch.len(),
        lead,
        "scratch must hold G^T [out_c, b*oh*ow]"
    );
    im2col(x, spec, scratch);
    let (gt, patches) = scratch.split_at(lead);
    gemm::gemm(
        MatRef::new(gt, spec.out_c, rows),
        MatRef::new(patches, rows, spec.ckk()),
        dw,
        true,
    );
}

/// The direct kernels (module docs).
#[cfg(target_feature = "avx512f")]
mod direct {
    use super::Conv2dSpec;
    use crate::gemm::FusedAct;

    /// f32 lanes per zmm register.
    const L: usize = 16;
    /// Output positions per register tile of the forward.
    const P: usize = 8;

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
    }

    /// `act(conv(x, w) + bias)` for `out_c = 16 * G` filters. Tiles of `P`
    /// output positions run over the flattened `b*oh*ow` rows across image
    /// boundaries; each holds `P x G` accumulators and, per kernel offset
    /// `(c, ky, kx)` in ascending order, loads `G` registers of the
    /// repacked weights and broadcasts one pixel per position. A ragged
    /// last tile computes its missing positions on its last real one and
    /// stores nothing for them. Panics unless the operand lengths match
    /// `spec` and the farthest pixel any position reads lies inside `x`.
    #[expect(
        unsafe_code,
        reason = "explicit SIMD kernel: unaligned vector loads of repacked weights and pixel broadcasts whose bounds the asserts at the top establish"
    )]
    pub(super) fn conv2d_direct<const G: usize>(
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        spec: &Conv2dSpec,
        act: FusedAct,
    ) -> Vec<f32> {
        use std::arch::x86_64::{
            _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
        };
        const { assert!(G == 1 || G == 2, "a tile row holds at most two registers") };
        let oc = G * L;
        let (ow, stride) = (spec.out_w, spec.stride);
        let dims = Dims::of(spec);
        assert!(dims.is_some(), "conv2d geometry overflows usize");
        let Some(Dims {
            hw_in,
            chw,
            row_step,
            hw,
            ckk,
            reach,
        }) = dims
        else {
            return Vec::new();
        };
        assert_eq!(spec.out_c, oc, "direct kernel width");
        assert_eq!(
            spec.batch.checked_mul(chw),
            Some(x.len()),
            "conv2d input length does not match its geometry"
        );
        assert_eq!(
            ckk.checked_mul(oc),
            Some(w.len()),
            "conv2d weight length does not match its geometry"
        );
        assert_eq!(bias.len(), oc, "conv2d bias length must equal out_c");
        let rows = spec.batch * hw;
        let mut out = vec![0.0f32; rows * oc];
        if rows == 0 {
            return out;
        }
        assert!(reach < x.len(), "conv2d window out of bounds");
        // W2 [oc, ckk] re-laid as [ckk, oc]: one kernel offset's filters
        // are G adjacent registers.
        let mut wt = vec![0.0f32; ckk * oc];
        for (q, filters) in wt.chunks_exact_mut(oc).enumerate() {
            for (v, wrow) in filters.iter_mut().zip(w.chunks_exact(ckk)) {
                *v = wrow[q];
            }
        }
        let origin = |r: usize| {
            let (img, s) = (r / hw, r % hw);
            img * chw + (s / ow) * row_step + (s % ow) * stride
        };
        let (xp, wp) = (x.as_ptr(), wt.as_ptr());
        let mut tile = [[0.0f32; 2 * L]; P];
        for r0 in (0..rows).step_by(P) {
            let live = (rows - r0).min(P);
            let org: [usize; P] = std::array::from_fn(|p| origin(r0 + p.min(live - 1)));
            // A position below `rows` has img < batch, oy < out_h and
            // ox < ow, and a kernel offset has c < in_c, ky < kh and
            // kx < kw, so origin + offset <= `reach` < x.len() (no term
            // wraps: each is at most its checked counterpart). The weight
            // loads read oc = G*L floats from q*oc for q < ckk, inside
            // `wt`'s ckk*oc; each store writes L floats from g*L, g < G <= 2,
            // inside a 2*L-float tile row.
            // SAFETY: compiled only with avx512f enabled (the cfg on this
            // module); every access is in bounds by the above.
            unsafe {
                let bases = org.map(|o| xp.add(o));
                let mut acc = [[_mm512_setzero_ps(); G]; P];
                let mut q = 0;
                for c in 0..spec.in_c {
                    for ky in 0..spec.kh {
                        let row = c * hw_in + ky * spec.in_w;
                        for off in row..row + spec.kw {
                            let wv: [_; G] =
                                std::array::from_fn(|g| _mm512_loadu_ps(wp.add(q * oc + g * L)));
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
                for (trow, accp) in tile.iter_mut().zip(&acc) {
                    for (g, &x) in accp.iter().enumerate() {
                        _mm512_storeu_ps(trow[g * L..].as_mut_ptr(), x);
                    }
                }
            }
            for (p, trow) in tile.iter().enumerate().take(live) {
                let (img, s) = ((r0 + p) / hw, (r0 + p) % hw);
                let dst = &mut out[img * oc * hw + s..];
                for (o, (&v, &beta)) in trow.iter().zip(bias).enumerate() {
                    dst[o * hw] = act.activate(v + beta);
                }
            }
        }
        out
    }

    /// `dW += G^T x patches` for `out_c = 16 * G` filters, `Q` columns of
    /// `dW` (kernel offsets `(c, ky, kx)`) per register tile. `G^T` is
    /// first re-laid behind itself in `scratch` as `[b*oh*ow, out_c]`, so
    /// one output position's filters are `G` adjacent registers. Each tile
    /// holds `Q x G` accumulators seeded from `dW` and, per output
    /// position in ascending order, loads that position's `G` registers of
    /// the re-lay and broadcasts one pixel per column straight from the
    /// image. A ragged last tile computes its missing columns on its last
    /// real one and stores nothing for them. Panics unless the operand
    /// lengths match `spec` and the farthest pixel any position reads lies
    /// inside `x`.
    #[expect(
        unsafe_code,
        reason = "explicit SIMD kernel: unaligned vector loads of the re-laid gradient and pixel broadcasts whose bounds the asserts at the top establish"
    )]
    pub(super) fn conv2d_dw_direct<const G: usize, const Q: usize>(
        x: &[f32],
        spec: &Conv2dSpec,
        scratch: &mut Vec<f32>,
        dw: &mut [f32],
    ) {
        use std::arch::x86_64::{
            _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_storeu_ps,
        };
        const { assert!(G == 1 || G == 2, "a tile row holds at most two registers") };
        let oc = G * L;
        let dims = Dims::of(spec);
        assert!(dims.is_some(), "conv2d geometry overflows usize");
        let Some(Dims {
            hw_in,
            chw,
            row_step,
            hw,
            ckk,
            reach,
        }) = dims
        else {
            return;
        };
        assert_eq!(spec.out_c, oc, "direct kernel width");
        assert_eq!(
            spec.batch.checked_mul(chw),
            Some(x.len()),
            "conv2d input length does not match its geometry"
        );
        assert_eq!(
            ckk.checked_mul(oc),
            Some(dw.len()),
            "conv2d weight length does not match its geometry"
        );
        let rows = spec.batch * hw;
        assert_eq!(
            rows.checked_mul(oc),
            Some(scratch.len()),
            "scratch must hold G^T [out_c, b*oh*ow]"
        );
        if rows == 0 || ckk == 0 {
            return;
        }
        assert!(reach < x.len(), "conv2d window out of bounds");
        scratch.resize(2 * rows * oc, 0.0);
        let (gt, gr) = scratch.split_at_mut(rows * oc);
        for (o, grad) in gt.chunks_exact(rows).enumerate() {
            for (&v, filters) in grad.iter().zip(gr.chunks_exact_mut(oc)) {
                filters[o] = v;
            }
        }
        let offset = |q: usize| {
            let (c, k) = (q / (spec.kh * spec.kw), q % (spec.kh * spec.kw));
            c * hw_in + (k / spec.kw) * spec.in_w + k % spec.kw
        };
        let (xp, gp) = (x.as_ptr(), gr.as_ptr());
        let mut tile = [[0.0f32; 2 * L]; Q];
        for q0 in (0..ckk).step_by(Q) {
            let live = (ckk - q0).min(Q);
            let offs: [usize; Q] = std::array::from_fn(|j| offset(q0 + j.min(live - 1)));
            for (j, trow) in tile.iter_mut().enumerate().take(live) {
                for (t, wrow) in trow.iter_mut().zip(dw.chunks_exact(ckk)) {
                    *t = wrow[q0 + j];
                }
            }
            // A position (img, oy, ox) has img < batch, oy < out_h and
            // ox < out_w, and a column's offset has c < in_c, ky < kh and
            // kx < kw, so origin + offset <= `reach` < x.len() (no term
            // wraps: each is at most its checked counterpart). Position r
            // < rows loads oc = G*L floats from r*oc, inside `gr`'s
            // rows*oc; each tile row access covers L floats from g*L,
            // g < G <= 2, inside a 2*L-float tile row.
            // SAFETY: compiled only with avx512f enabled (the cfg on this
            // module); every access is in bounds by the above.
            unsafe {
                let mut acc: [[_; G]; Q] = std::array::from_fn(|j| {
                    std::array::from_fn(|g| _mm512_loadu_ps(tile[j][g * L..].as_ptr()))
                });
                let mut grow = gp;
                for img in 0..spec.batch {
                    for oy in 0..spec.out_h {
                        for ox in 0..spec.out_w {
                            let base = xp.add(img * chw + oy * row_step + ox * spec.stride);
                            let gv: [_; G] =
                                std::array::from_fn(|g| _mm512_loadu_ps(grow.add(g * L)));
                            for (accq, &off) in acc.iter_mut().zip(&offs) {
                                let a = _mm512_set1_ps(*base.add(off));
                                for (s, &gg) in accq.iter_mut().zip(&gv) {
                                    *s = _mm512_fmadd_ps(gg, a, *s);
                                }
                            }
                            grow = grow.add(oc);
                        }
                    }
                }
                for (trow, accq) in tile.iter_mut().zip(&acc) {
                    for (g, &s) in accq.iter().enumerate() {
                        _mm512_storeu_ps(trow[g * L..].as_mut_ptr(), s);
                    }
                }
            }
            for (j, trow) in tile.iter().enumerate().take(live) {
                for (&t, wrow) in trow.iter().zip(dw.chunks_exact_mut(ckk)) {
                    wrow[q0 + j] = t;
                }
            }
        }
    }
}

/// Re-lays the upstream gradient `[b, out_c, hw]` of the output `y` as
/// `G^T [out_c, b*hw]` into `gt` (replacing its contents), each element
/// multiplied by `act`'s derivative at `y` — the left operand of the `dW`
/// product, the right operand of the `dcol` product, and what `db` sums.
pub fn gradient_rows(g: &[f32], y: &[f32], act: FusedAct, spec: &Conv2dSpec, gt: &mut Vec<f32>) {
    let (oc, hw) = (spec.out_c, spec.out_hw());
    assert_eq!(
        g.len(),
        y.len(),
        "conv2d gradient and output lengths differ"
    );
    gt.truncate(0);
    gt.reserve(g.len());
    for ch in 0..oc {
        for (gi, yi) in g.chunks_exact(oc * hw).zip(y.chunks_exact(oc * hw)) {
            let (gp, yp) = (&gi[ch * hw..(ch + 1) * hw], &yi[ch * hw..(ch + 1) * hw]);
            gt.extend(
                gp.iter()
                    .zip(yp)
                    .map(|(&gv, &yv)| gv * act.deriv_from_output(yv)),
            );
        }
    }
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
        // its 16 maps (9 -> 3, 20 -> 9). Batches 1-3 and 129 give row
        // counts that are not multiples of the 8-position tile, and tiles
        // that straddle images. 16 and 32 filters take the direct kernel
        // on AVX-512 builds, 8 and 48 always fall back; both must give the
        // reference's bits, for every epilogue, on pixels that include
        // NaN payloads, infinities, subnormals and signed zeros.
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
                for act in acts {
                    let got = conv2d_forward(&x, &w, &bias, &spec, act);
                    let want = conv2d_reference(&x, &w, &bias, &spec, act);
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

    #[test]
    fn forward_fuses_multiply_and_add() {
        // Two channels under a 1x1 kernel whose every filter is [1, w]:
        // channel 0 holds -(x*w) rounded to f32 and channel 1 holds x, with
        // x*w not exact. One fused multiply-add per term leaves the
        // product's nonzero rounding residual; a separate multiply and add
        // leaves 0. 16 and 32 filters take the direct kernel on AVX-512
        // builds, 8 the reference; 18 positions give a ragged tile that
        // straddles the two images.
        let mut rng = ChaCha8Rng::seed_from_u64(36);
        let (batch, side) = (2, 3);
        let w1 = 1.1f32;
        let xs: Vec<f32> = (0..batch * side * side)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();
        let mut x = Vec::new();
        for img in xs.chunks_exact(side * side) {
            x.extend(img.iter().map(|&v| -(v * w1)));
            x.extend_from_slice(img);
        }
        // Exact in f64: the product of two f32, plus its own f32 rounding.
        let residual = |v: f32| (f64::from(v) * f64::from(w1) - f64::from(v * w1)) as f32;
        for out_c in [16, 32, 8] {
            let spec = Conv2dSpec::infer(&[batch, 2, side, side], &[out_c, 2, 1, 1], 1);
            let w: Vec<f32> = (0..out_c).flat_map(|_| [1.0, w1]).collect();
            let got = conv2d_forward(&x, &w, &vec![0.0; out_c], &spec, FusedAct::Identity);
            for (j, &g) in got.iter().enumerate() {
                let (img, s) = (j / (out_c * side * side), j % (side * side));
                let want = residual(xs[img * side * side + s]);
                assert!(want != 0.0, "the product of position {s} must be inexact");
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "{out_c} filters: element {j} is {g}, fused {want}"
                );
            }
        }
    }

    /// `conv2d_weight_grad` and `dw_reference` on one `G^T`, each onto its
    /// own copy of `dw0`: the two results, bit patterns, and the scratch
    /// the call left, whose front must still be `G^T`.
    fn both_dw(x: &[f32], gt: &[f32], dw0: &[f32], spec: &Conv2dSpec) -> [Vec<u32>; 2] {
        [conv2d_weight_grad, dw_reference].map(|kernel| {
            let mut scratch = gt.to_vec();
            let mut dw = dw0.to_vec();
            kernel(x, spec, &mut scratch, &mut dw);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&scratch[..gt.len()]),
                bits(gt),
                "{spec:?}: G^T overwritten"
            );
            bits(&dw)
        })
    }

    #[test]
    fn direct_dw_matches_reference_bitwise() {
        // The forward test's layers, batches and filter counts: 16 and 32
        // filters take the direct kernel on AVX-512 builds, 8 and 48
        // always fall back. Both must give the reference's bits when
        // accumulating onto a nonzero `dW`. The image or the gradient is
        // drawn from the forward's pixels (NaN payloads, infinities,
        // subnormals, signed zeros), the other operand from plain values;
        // then both from plain values, since a long reduction over the
        // special pixels is mostly NaN and would hide a wrong order. Never
        // both specials at once: when both factors of one product are NaN,
        // which payload `vfmadd` returns depends on the order the compiler
        // encodes them in, which it picks freely (the product commutes) in
        // the GEMM tile too, so no kernel can promise those bits.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let layers = [(3, 42, 8, 4), (16, 9, 4, 2), (16, 20, 4, 2), (3, 84, 8, 4)];
        for (i, (in_c, side, k, stride)) in layers.into_iter().enumerate() {
            for (batch, out_c) in [1, 2, 3, 129]
                .into_iter()
                .flat_map(|b| [16, 32, 8, 48].map(|oc| (b, oc)))
            {
                if batch > 3 && (i == 3 || !matches!(out_c, 16 | 32)) {
                    continue;
                }
                let spec =
                    Conv2dSpec::infer(&[batch, in_c, side, side], &[out_c, in_c, k, k], stride);
                let rows = batch * spec.out_hw();
                let dw0: Vec<f32> = (0..out_c * spec.ckk())
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect();
                for special in [[true, false], [false, true], [false, false]] {
                    let mut draw = |n: usize, special: bool| -> Vec<f32> {
                        (0..n)
                            .map(|_| match special {
                                true => pixel(&mut rng),
                                false => rng.gen_range(-2.0f32..2.0),
                            })
                            .collect()
                    };
                    let x = draw(batch * in_c * side * side, special[0]);
                    let gt = draw(out_c * rows, special[1]);
                    let [got, want] = both_dw(&x, &gt, &dw0, &spec);
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
        // One channel per column of a 1x1 kernel, and a gradient that is
        // zero but for the last output position, where filter o holds g_o.
        // `dW[o][c]` is seeded with -(g_o*x_c) rounded to f32, x_c being
        // channel c's pixel there, with g_o*x_c not exact: one fused
        // multiply-add per term leaves the product's nonzero rounding
        // residual, a separate multiply and add leaves 0, and a kernel
        // that drops the last position leaves the seed. 16 and 32 filters
        // take the direct kernel on AVX-512 builds, 8 the reference; 20
        // columns leave a ragged tile.
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let (batch, in_c, side) = (2, 20, 3);
        let x: Vec<f32> = (0..batch * in_c * side * side)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();
        let last = &x[(batch - 1) * in_c * side * side..];
        let pix: Vec<f32> = (0..in_c)
            .map(|c| last[c * side * side + side * side - 1])
            .collect();
        let residual = |g: f32, v: f32| (f64::from(g) * f64::from(v) - f64::from(g * v)) as f32;
        for out_c in [16, 32, 8] {
            let spec = Conv2dSpec::infer(&[batch, in_c, side, side], &[out_c, in_c, 1, 1], 1);
            let rows = batch * spec.out_hw();
            let gs: Vec<f32> = (0..out_c).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut gt = vec![0.0f32; out_c * rows];
            for (grad, &g) in gt.chunks_exact_mut(rows).zip(&gs) {
                grad[rows - 1] = g;
            }
            let dw0: Vec<f32> = gs
                .iter()
                .flat_map(|&g| pix.iter().map(move |&v| -(g * v)))
                .collect();
            let mut scratch = gt;
            let mut dw = dw0;
            conv2d_weight_grad(&x, &spec, &mut scratch, &mut dw);
            for (j, &d) in dw.iter().enumerate() {
                let want = residual(gs[j / in_c], pix[j % in_c]);
                assert!(want != 0.0, "the product of column {j} must be inexact");
                assert_eq!(
                    d.to_bits(),
                    want.to_bits(),
                    "{out_c} filters: element {j} is {d}, fused {want}"
                );
            }
        }
    }

    #[test]
    fn gradient_rows_puts_channels_first() {
        // [b=2, oc=2, hw=2] -> [oc=2, b*hw=4].
        let spec = Conv2dSpec::infer(&[2, 1, 1, 2], &[2, 1, 1, 1], 1);
        let g = [0.0, 1.0, 10.0, 11.0, 2.0, 3.0, 12.0, 13.0];
        let y = [1.0, 0.0, 2.0, 0.5, 0.0, 3.0, 0.0, 1.0];
        let mut gt = vec![9.0f32; 3];
        gradient_rows(&g, &y, FusedAct::Identity, &spec, &mut gt);
        assert_eq!(gt, [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]);
        // Under ReLU the positions whose output is zero pass no gradient.
        gradient_rows(&g, &y, FusedAct::Relu, &spec, &mut gt);
        assert_eq!(gt, [0.0, 0.0, 0.0, 3.0, 10.0, 11.0, 0.0, 13.0]);
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
