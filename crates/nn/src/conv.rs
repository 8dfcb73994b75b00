//! im2col-based 2-D convolution kernels.
//!
//! The paper's Atari policy (Table II) uses strided convolutions with no
//! padding, so this module implements valid (unpadded) strided convolution
//! only. [`im2col`] expands the whole mini-batch into one patch matrix with
//! a row per output position, `[b*oh*ow, c*kh*kw]`, so a layer is three
//! products on the packed kernel in [`crate::gemm`], each issued once per
//! mini-batch (`W2` is the weight read as `[out_c, ckk]`, `G` the upstream
//! gradient `[b, out_c, oh*ow]`):
//!
//! * forward — `patches [b*hw, ckk] x W2^T [ckk, out_c]`, then one
//!   transposing pass that adds the bias into `[b, out_c, oh, ow]`
//!   ([`conv2d_forward`], shared by `Graph::conv2d` and
//!   `Cnn::forward_plain`);
//! * `dW += G^T [out_c, b*hw] x patches [b*hw, ckk]`, accumulating into the
//!   weight's gradient buffer;
//! * `dcol = W2^T [ckk, out_c] x G^T [out_c, b*hw]`, scattered back onto the
//!   input by [`col2im`] — only when the input's gradient is wanted.
//!
//! # Same bits as one product per image
//!
//! The per-image form (`W2 x col_i`, `dW += G_i x col_i^T`,
//! `W2^T x G_i`, image by image — kept as the reference in
//! `tests/backward_differential.rs`) computes the same sums in the same
//! order. Every output element is one ascending-`k` reduction under the
//! exactness contract of [`crate::gemm`]; the forward swaps the operands,
//! and `f32` products commute. `dW`'s reduction index runs image-major, then
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
/// matrix: row `(image, oy, ox)` holds that output position's receptive
/// field in `(c, ky, kx)` order, copied `kw` contiguous pixels at a time.
pub fn im2col(input: &[f32], spec: &Conv2dSpec) -> Vec<f32> {
    let hw_in = spec.in_h * spec.in_w;
    let chw = spec.in_c * hw_in;
    assert_eq!(
        input.len(),
        spec.batch * chw,
        "conv2d input length does not match its geometry"
    );
    let mut patches = Vec::with_capacity(spec.batch * spec.out_hw() * spec.ckk());
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
    patches
}

/// `act(conv(x, w) + bias)` for a flat `[b, c, h, w]` input: returns the
/// flat `[b, out_c, oh, ow]` output and the patch matrix the backward pass
/// needs. The one convolution forward in the crate (module docs).
pub fn conv2d_forward(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    spec: &Conv2dSpec,
    act: FusedAct,
) -> (Vec<f32>, Vec<f32>) {
    let (oc, hw, ckk) = (spec.out_c, spec.out_hw(), spec.ckk());
    assert_eq!(bias.len(), oc, "conv2d bias length must equal out_c");
    let patches = im2col(x, spec);
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
    (out, patches)
}

/// Re-lays the upstream gradient `[b, out_c, hw]` as `G^T [out_c, b*hw]`
/// into `gt` (replacing its contents) — the left operand of the `dW`
/// product and the right operand of the `dcol` product.
pub fn gradient_rows(g: &[f32], spec: &Conv2dSpec, gt: &mut Vec<f32>) {
    let (oc, hw) = (spec.out_c, spec.out_hw());
    gt.truncate(0);
    gt.reserve(g.len());
    for ch in 0..oc {
        for img in g.chunks_exact(oc * hw) {
            gt.extend_from_slice(&img[ch * hw..(ch + 1) * hw]);
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
        assert_eq!(im2col(&img, &spec), img);
    }

    #[test]
    fn im2col_rows_are_receptive_fields() {
        // Two channels of 3x3, 2x2 kernel, stride 1: the last output
        // position (1, 1) sees rows 1..3 x cols 1..3 of each channel.
        let img: Vec<f32> = (0..18).map(|x| x as f32).collect();
        let spec = Conv2dSpec::infer(&[1, 2, 3, 3], &[1, 2, 2, 2], 1);
        let patches = im2col(&img, &spec);
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
        let (out, patches) = conv2d_forward(&img, &w, &[0.5], &spec, FusedAct::Identity);
        assert_eq!(patches.len(), spec.out_hw() * spec.ckk());
        // out[y][x] = img[y][x] - img[y+1][x+1] + 0.5 = -4.5 everywhere.
        assert_eq!(out, vec![-4.5; 9]);
        let (relu, _) = conv2d_forward(&img, &w, &[0.5], &spec, FusedAct::Relu);
        assert_eq!(relu, vec![0.0; 9]);
    }

    #[test]
    fn gradient_rows_puts_channels_first() {
        // [b=2, oc=2, hw=2] -> [oc=2, b*hw=4].
        let spec = Conv2dSpec::infer(&[2, 1, 1, 2], &[2, 1, 1, 1], 1);
        let g = [0.0, 1.0, 10.0, 11.0, 2.0, 3.0, 12.0, 13.0];
        let mut gt = vec![9.0f32; 3];
        gradient_rows(&g, &spec, &mut gt);
        assert_eq!(gt, [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]);
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
