//! Dense row-major `f32` tensors.
//!
//! The tensor type is deliberately simple: a shape vector plus a flat data
//! buffer. Stellaris' policy networks are small (Table II of the paper:
//! 2x256 MLPs and three-layer CNNs), so the priority is predictable memory
//! behaviour and cheap cloning for the gradient-message pipeline rather than
//! a full broadcasting engine. Matrix multiplication runs on the packed,
//! cache-blocked kernel in [`crate::gemm`], on the calling thread.

use crate::gemm::{self, FusedAct, MatRef};
use rand::Rng;

/// A dense row-major tensor of `f32` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a flat buffer and shape. Panics if the element
    /// count does not match the shape product.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "tensor data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// A scalar (shape `[1]`) tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            shape: vec![1],
            data: vec![value],
        }
    }

    /// Standard-normal initialised tensor scaled by `std`.
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let numel: usize = shape.iter().product();
        let mut data = Vec::with_capacity(numel);
        // Box-Muller transform; two samples per trig pair.
        while data.len() < numel {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < numel {
                data.push(r * theta.sin() * std);
            }
        }
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Uniformly initialised tensor over `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| rng.gen_range(lo..hi)).collect();
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the flat buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Number of rows when interpreted as a 2-D matrix.
    #[inline]
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns when interpreted as a 2-D matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Element accessor for 2-D tensors.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Reinterprets the buffer with a new shape of equal element count.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, self.data.len(), "reshape element count mismatch");
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// In-place reshape (no data copy beyond the shape vector).
    pub fn reshaped(mut self, shape: &[usize]) -> Tensor {
        let numel: usize = shape.iter().product();
        assert_eq!(numel, self.data.len(), "reshape element count mismatch");
        self.shape = shape.to_vec();
        self
    }

    /// Matrix transpose of a 2-D tensor.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose requires a 2-D tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor {
            shape: vec![c, r],
            data: out,
        }
    }

    /// Matrix product of two 2-D tensors (`[m,k] x [k,n] -> [m,n]`).
    ///
    /// Runs the packed/blocked GEMM in [`crate::gemm`]; parallelises over
    /// row slabs once `m*n*k` crosses the FLOP threshold.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let (m, n) = self.matmul_dims(rhs);
        let mut out = Tensor::zeros(&[m, n]);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// In-place matrix product: `out = self @ rhs` without allocating.
    /// `out` must already have shape `[m, n]`.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        let (m, n) = self.matmul_dims(rhs);
        assert_eq!(out.shape, [m, n], "matmul_into output shape mismatch");
        let k = self.shape[1];
        gemm::gemm(
            MatRef::new(&self.data, m, k),
            MatRef::new(&rhs.data, k, n),
            &mut out.data,
            false,
        );
    }

    /// Fused dense-layer forward: `act(self @ w + bias)` in one pass.
    ///
    /// The bias add and activation run as a GEMM epilogue after the full
    /// reduction, so the result rounds identically to the unfused
    /// `matmul` → [`Tensor::add_row_broadcast`] → [`Tensor::map`] chain.
    pub fn matmul_bias_act(&self, w: &Tensor, bias: &Tensor, act: FusedAct) -> Tensor {
        let (m, n) = self.matmul_dims(w);
        assert_eq!(bias.numel(), n, "matmul_bias_act bias length mismatch");
        let k = self.shape[1];
        let mut out = Tensor::zeros(&[m, n]);
        gemm::gemm_bias_act(
            MatRef::new(&self.data, m, k),
            MatRef::new(&w.data, k, n),
            &bias.data,
            act,
            &mut out.data,
        );
        out
    }

    fn matmul_dims(&self, rhs: &Tensor) -> (usize, usize) {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2-D");
        let (k, k2) = (self.shape[1], rhs.shape[0]);
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        (self.shape[0], rhs.shape[1])
    }

    /// Elementwise binary operation against a same-shaped tensor.
    pub fn zip_map(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "zip_map shape mismatch");
        let mut data = Vec::with_capacity(self.data.len());
        data.extend(
            self.data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b)),
        );
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Elementwise binary operation written into an existing tensor
    /// (`out[i] = f(self[i], rhs[i])`, no allocation).
    pub fn zip_map_into(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32, out: &mut Tensor) {
        assert_eq!(self.shape, rhs.shape, "zip_map_into shape mismatch");
        assert_eq!(self.shape, out.shape, "zip_map_into output shape mismatch");
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&rhs.data) {
            *o = f(a, b);
        }
    }

    /// Elementwise unary map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = Vec::with_capacity(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Elementwise unary map written into an existing tensor (no allocation).
    pub fn map_into(&self, f: impl Fn(f32) -> f32, out: &mut Tensor) {
        assert_eq!(self.shape, out.shape, "map_into output shape mismatch");
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// Elementwise addition.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b)
    }

    /// Elementwise subtraction.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b)
    }

    /// Elementwise multiplication.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a * b)
    }

    /// Adds `rhs` scaled by `alpha` in place (`self += alpha * rhs`).
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Plain in-place addition (`self += rhs`, same shape).
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// In-place addition ignoring shape (`self.flat += rhs.flat`); used by
    /// the reshape backward, where element counts match but shapes differ.
    pub fn add_assign_flat(&mut self, rhs: &Tensor) {
        assert_eq!(
            self.data.len(),
            rhs.data.len(),
            "add_assign_flat element count mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// Accumulating unary map: `self[i] += f(src[i])`.
    pub fn add_assign_map(&mut self, src: &Tensor, f: impl Fn(f32) -> f32) {
        assert_eq!(self.shape, src.shape, "add_assign_map shape mismatch");
        for (a, &x) in self.data.iter_mut().zip(src.data.iter()) {
            *a += f(x);
        }
    }

    /// Accumulating binary map: `self[i] += f(x[i], y[i])`.
    pub fn add_assign_zip(&mut self, x: &Tensor, y: &Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape, x.shape, "add_assign_zip shape mismatch");
        assert_eq!(self.shape, y.shape, "add_assign_zip shape mismatch");
        for ((a, &xv), &yv) in self.data.iter_mut().zip(x.data.iter()).zip(y.data.iter()) {
            *a += f(xv, yv);
        }
    }

    /// Accumulating ternary map: `self[i] += f(x[i], y[i], z[i])`.
    pub fn add_assign_zip3(
        &mut self,
        x: &Tensor,
        y: &Tensor,
        z: &Tensor,
        f: impl Fn(f32, f32, f32) -> f32,
    ) {
        assert_eq!(self.shape, x.shape, "add_assign_zip3 shape mismatch");
        assert_eq!(self.shape, y.shape, "add_assign_zip3 shape mismatch");
        assert_eq!(self.shape, z.shape, "add_assign_zip3 shape mismatch");
        for (((a, &xv), &yv), &zv) in self
            .data
            .iter_mut()
            .zip(x.data.iter())
            .zip(y.data.iter())
            .zip(z.data.iter())
        {
            *a += f(xv, yv, zv);
        }
    }

    /// Reshapes this tensor in place to `shape` and zero-fills it, keeping
    /// the existing heap allocation whenever the capacity suffices. This is
    /// the gradient-arena recycling primitive: a warm arena buffer is reused
    /// across backward passes without touching the allocator.
    pub(crate) fn reuse_as_zeros(&mut self, shape: &[usize]) {
        let numel: usize = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.clear();
        self.data.resize(numel, 0.0);
    }

    /// Takes `shape`, reusing the heap allocation as [`Tensor::reuse_as_zeros`]
    /// does, but leaves whatever the kept elements held: for a buffer its
    /// next writer overwrites whole (a first-write gradient).
    pub(crate) fn reuse_as(&mut self, shape: &[usize]) {
        let numel: usize = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(numel, 0.0);
    }

    /// Becomes a copy of `src` (shape and data), reusing this tensor's heap
    /// allocations whenever their capacity suffices. The in-place counterpart
    /// of `clone()` for warm gradient buffers.
    pub fn copy_from(&mut self, src: &Tensor) {
        self.shape.truncate(0);
        self.shape.extend_from_slice(&src.shape);
        self.data.truncate(0);
        self.data.extend_from_slice(&src.data);
    }

    /// Scales every element in place.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// Adds a row vector (`[n]` or `[1,n]`) to every row of a `[m,n]` tensor.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "add_row_broadcast lhs must be 2-D");
        let (m, n) = (self.shape[0], self.shape[1]);
        assert_eq!(row.numel(), n, "broadcast row length mismatch");
        let mut data = self.data.clone();
        for i in 0..m {
            for j in 0..n {
                data[i * n + j] += row.data[j];
            }
        }
        Tensor {
            shape: vec![m, n],
            data,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Squared L2 norm of the buffer.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// L2 norm of the buffer.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Extracts row `i` of a 2-D tensor as a new `[n]` tensor.
    pub fn row(&self, i: usize) -> Tensor {
        assert_eq!(self.shape.len(), 2, "row() requires a 2-D tensor");
        let n = self.shape[1];
        Tensor {
            shape: vec![n],
            data: self.data[i * n..(i + 1) * n].to_vec(),
        }
    }

    /// Stacks `[n]`-shaped rows into a `[m,n]` matrix.
    pub fn stack_rows(rows: &[Vec<f32>]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows requires at least one row");
        let n = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * n);
        for r in rows {
            assert_eq!(r.len(), n, "stack_rows ragged input");
            data.extend_from_slice(r);
        }
        Tensor {
            shape: vec![rows.len(), n],
            data,
        }
    }
}

/// Flattens a list of tensors into one contiguous buffer (for snapshots and
/// gradient messages).
pub fn flatten_all(tensors: &[Tensor]) -> Vec<f32> {
    let total: usize = tensors.iter().map(Tensor::numel).sum();
    let mut out = Vec::with_capacity(total);
    for t in tensors {
        out.extend_from_slice(t.data());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn matmul_matches_manual() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let a = Tensor::randn(&[64, 300], 1.0, &mut rng);
        let b = Tensor::randn(&[300, 300], 1.0, &mut rng);
        // Two `k` blocks (300 > `KC`) against a reference triple loop.
        let c = a.matmul(&b);
        let mut want = vec![0.0f32; 64 * 300];
        for i in 0..64 {
            for kk in 0..300 {
                let av = a.at2(i, kk);
                for j in 0..300 {
                    want[i * 300 + j] += av * b.at2(kk, j);
                }
            }
        }
        for (got, want) in c.data().iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn broadcast_row_adds_bias() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let c = a.add_row_broadcast(&b);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn randn_is_roughly_standard() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    #[should_panic(expected = "matmul inner dimensions differ")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[4]);
        let b = Tensor::full(&[4], 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let m = Tensor::stack_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.shape(), &[2, 2]);
        assert_eq!(m.at2(1, 0), 3.0);
    }

    #[test]
    fn tall_skinny_policy_head_parallelises_and_matches_reference() {
        // A policy-head product: a tiny output (m*n = 8192) over many row
        // slabs and 4.2M multiply-adds. The result must stay bit-identical
        // to the naive reference.
        use crate::gemm::{gemm_naive, MatRef};
        let (m, k, n) = (2048usize, 512usize, 4usize);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let c = a.matmul(&b);
        let mut want = vec![0.0f32; m * n];
        gemm_naive(
            MatRef::new(a.data(), m, k),
            MatRef::new(b.data(), k, n),
            &mut want,
            false,
        );
        for (got, want) in c.data().iter().zip(want.iter()) {
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
        }
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let a = Tensor::randn(&[9, 17], 1.0, &mut rng);
        let b = Tensor::randn(&[17, 5], 1.0, &mut rng);
        let mut out = Tensor::full(&[9, 5], 7.0); // stale values must be overwritten
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn map_and_zip_map_into_variants_match() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![0.5, 0.5, 2.0, 2.0], &[2, 2]);
        let mut out = Tensor::zeros(&[2, 2]);
        a.zip_map_into(&b, |x, y| x * y, &mut out);
        assert_eq!(out, a.zip_map(&b, |x, y| x * y));
        a.map_into(|x| x.abs(), &mut out);
        assert_eq!(out, a.map(f32::abs));
    }

    #[test]
    fn fused_matmul_bias_act_matches_unfused_chain() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let x = Tensor::randn(&[6, 13], 1.0, &mut rng);
        let w = Tensor::randn(&[13, 4], 0.5, &mut rng);
        let b = Tensor::randn(&[4], 0.5, &mut rng);
        for (act, f) in [
            (FusedAct::Identity, None),
            (FusedAct::Tanh, Some(crate::gemm::tanh as fn(f32) -> f32)),
            (
                FusedAct::Relu,
                Some((|v: f32| v.max(0.0)) as fn(f32) -> f32),
            ),
        ] {
            let fused = x.matmul_bias_act(&w, &b, act);
            let mut plain = x.matmul(&w).add_row_broadcast(&b);
            if let Some(f) = f {
                plain = plain.map(f);
            }
            assert_eq!(fused, plain, "fused {act:?} must match unfused chain");
        }
    }

    #[test]
    fn accumulate_helpers_match_axpy_semantics() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[2.0, 3.0, 4.0]);
        a.add_assign_map(&b, |x| -x);
        assert_eq!(a.data(), &[1.0, 1.0, 1.0]);
        a.add_assign_zip(&b, &b, |x, y| x * y);
        assert_eq!(a.data(), &[2.0, 5.0, 10.0]);
        a.add_assign_zip3(&b, &b, &b, |x, y, z| x * y * z);
        assert_eq!(a.data(), &[3.0, 13.0, 37.0]);
        let flat = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3, 1]);
        a.add_assign_flat(&flat);
        assert_eq!(a.data(), &[4.0, 14.0, 38.0]);
    }

    #[test]
    fn reuse_as_zeros_keeps_capacity() {
        let mut t = Tensor::from_vec(vec![1.0; 64], &[8, 8]);
        let cap = t.data.capacity();
        t.reuse_as_zeros(&[4, 4]);
        assert_eq!(t.shape(), &[4, 4]);
        assert!(t.data().iter().all(|&x| x == 0.0));
        assert_eq!(t.data.capacity(), cap, "allocation must be reused");
    }
}
