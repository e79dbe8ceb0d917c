//! Compiled inference plans: the allocation-free batched forward pass.
//!
//! [`Mlp::predict`] walks the layer list and allocates a fresh activation
//! matrix per layer — fine for training-time evaluation, wasteful in the
//! localization hot loop where the same two networks are applied to every
//! ring of every iteration of every trial. A [`CompiledMlp`] is built once
//! from a trained network and fixes all of that:
//!
//! * every BatchNorm's affine transform is **folded** into the adjacent
//!   Linear at plan-build time (both [`BlockOrder`]s), so the plan is a
//!   pure chain of `Linear [+ ReLU]` stages;
//! * all weights and biases live in one **flat buffer**, laid out in
//!   execution order (cache-friendly, no per-layer pointer chasing);
//! * forward passes run through a caller-owned [`InferenceScratch`]
//!   ping-pong arena — **zero allocations after warm-up**;
//! * the inner product is a register-tiled kernel that reuses each
//!   loaded weight across several batch rows, with bias add and ReLU
//!   fused into the accumulator spill: 4×4 tiles on the portable and
//!   AVX2 paths, 12-row × 16-output tiles on AVX-512;
//! * the SIMD weights are packed once, at compile time, for the ISA the
//!   plan runs on (8-lane blocks for the AVX-512 rung, 4-lane otherwise).
//!
//! Parity with [`Mlp::predict`] (inference-mode BatchNorm statistics) is
//! exact up to floating-point re-association and is locked down by unit
//! and property tests.

use crate::fold::fuse_stages;
use crate::mlp::Mlp;
use crate::quant_plan::QuantScratch;
use crate::simd::{self, KernelIsa};
use crate::tensor::Matrix;

/// One fused stage of the plan: a Linear (BN already folded in) with an
/// optional trailing ReLU, addressing weights inside the shared flat
/// buffer.
#[derive(Debug, Clone, Copy)]
struct PlanStage {
    in_dim: usize,
    out_dim: usize,
    /// Offset of the `[out_dim × in_dim]` row-major weight block.
    w_off: usize,
    /// Offset of the `[out_dim]` bias block.
    b_off: usize,
    /// Offset of the column-blocked packed weights (SIMD kernels).
    p_off: usize,
    /// Length of the packed block (see [`simd::pack_f64_blocks`]).
    p_len: usize,
    relu: bool,
}

/// A network compiled for batched inference. Build once per trained model
/// with [`CompiledMlp::compile`], then call
/// [`forward_batch`](CompiledMlp::forward_batch) from the hot loop.
#[derive(Debug, Clone)]
pub struct CompiledMlp {
    /// All stage weights and biases, in execution order.
    buf: Vec<f64>,
    /// Column-blocked packed weights for the SIMD kernels, all stages
    /// concatenated (see [`simd::pack_f64_blocks`]), in the block width
    /// of `isa`'s arm.
    packed: Vec<f64>,
    /// The rung the plan was compiled for and runs on; the packed weights
    /// are in its block width.
    isa: KernelIsa,
    stages: Vec<PlanStage>,
    input_dim: usize,
    output_dim: usize,
    /// Widest activation the plan produces (scratch sizing).
    max_width: usize,
}

/// Reusable activation arena for [`CompiledMlp`] forward passes. Buffers
/// grow to fit the largest batch seen and are never shrunk, so a scratch
/// that has served a batch of size `n` serves every later batch `≤ n`
/// without touching the allocator.
#[derive(Debug, Clone, Default)]
pub struct InferenceScratch {
    a: Vec<f64>,
    b: Vec<f64>,
    out: Vec<f64>,
    /// Row-major staging buffer for the structure-of-arrays entry point
    /// ([`CompiledMlp::forward_select`]); the ping-pong planes can't hold
    /// the input because stage 0 reads it in place.
    staged: Vec<f64>,
    /// Companion arena for the fixed-point INT8 plan
    /// ([`crate::quant_plan::CompiledQuantMlp`]), so call sites that
    /// switch between float and quantized backends thread one scratch.
    pub quant: QuantScratch,
}

impl InferenceScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, batch: usize, max_width: usize, out_dim: usize) {
        let need = batch * max_width;
        if self.a.len() < need {
            self.a.resize(need, 0.0);
            self.b.resize(need, 0.0);
        }
        if self.out.len() < batch * out_dim {
            self.out.resize(batch * out_dim, 0.0);
        }
    }
}

impl CompiledMlp {
    /// Compile a trained network into a fused inference plan. The plan
    /// captures the network's *inference-mode* behaviour (running
    /// BatchNorm statistics); later training of the source `Mlp` does not
    /// update the plan — recompile instead. The plan runs on the host's
    /// detected rung ([`simd::detected_isa`]).
    pub fn compile(mlp: &Mlp) -> Self {
        Self::compile_on(mlp, simd::detected_isa())
    }

    /// [`compile`](Self::compile) for the kernel arm of rung `isa`: the
    /// parity tests and benches compare rungs side by side this way.
    ///
    /// # Panics
    /// If this host cannot run `isa` ([`KernelIsa::is_supported`]).
    pub fn compile_on(mlp: &Mlp, isa: KernelIsa) -> Self {
        assert!(isa.is_supported(), "this host cannot run {isa} kernels");
        let fused = fuse_stages(mlp);
        let lanes = simd::f64_block_lanes(isa);
        let mut buf = Vec::new();
        let mut packed = Vec::new();
        let mut stages = Vec::with_capacity(fused.len());
        let mut max_width = mlp.input_dim();
        for (lin, relu) in &fused {
            let w_off = buf.len();
            buf.extend_from_slice(lin.weight.as_slice());
            let b_off = buf.len();
            buf.extend_from_slice(&lin.bias);
            let p_off = packed.len();
            packed.extend_from_slice(&simd::pack_f64_blocks(
                lin.weight.as_slice(),
                lin.in_dim(),
                lin.out_dim(),
                lanes,
            ));
            stages.push(PlanStage {
                in_dim: lin.in_dim(),
                out_dim: lin.out_dim(),
                w_off,
                b_off,
                p_off,
                p_len: packed.len() - p_off,
                relu: *relu,
            });
            max_width = max_width.max(lin.out_dim());
        }
        CompiledMlp {
            buf,
            packed,
            isa,
            stages,
            input_dim: mlp.input_dim(),
            output_dim: fused.last().map(|(l, _)| l.out_dim()).unwrap_or(0),
            max_width,
        }
    }

    /// Input feature width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output width (1 for both of the paper's networks).
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Number of fused Linear stages (BN and ReLU no longer count).
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Total `f64`s in the flat parameter buffer.
    pub fn param_count(&self) -> usize {
        self.buf.len()
    }

    /// Batched forward pass through the caller's scratch arena. Returns
    /// the `[batch × output_dim]` row-major outputs, borrowed from the
    /// scratch. Allocation-free once the scratch has grown to the batch
    /// size.
    pub fn forward_batch<'s>(&self, x: &Matrix, scratch: &'s mut InferenceScratch) -> &'s [f64] {
        assert_eq!(x.cols(), self.input_dim, "input width mismatch");
        let batch = x.rows();
        scratch.ensure(batch, self.max_width, self.output_dim);
        if batch == 0 {
            return &scratch.out[..0];
        }
        self.run_rows(
            x.as_slice(),
            batch,
            &mut scratch.a,
            &mut scratch.b,
            &mut scratch.out,
        );
        &scratch.out[..batch * self.output_dim]
    }

    /// Forward pass over selected rows of a feature-major plane set
    /// (structure-of-arrays staging — see [`crate::soa`]). `active`
    /// indexes rows of `planes`; `append` optionally supplies one extra
    /// trailing input shared by every row (the localizer's polar angle).
    /// Staging is one contiguous sweep per feature plane into the
    /// scratch's staging buffer; the rows it produces are value-identical
    /// to a gathered matrix, so results match
    /// [`forward_batch`](Self::forward_batch) exactly.
    pub fn forward_select<'s>(
        &self,
        planes: &crate::soa::FeaturePlanes,
        active: &[u32],
        append: Option<f64>,
        scratch: &'s mut InferenceScratch,
    ) -> &'s [f64] {
        let d = self.input_dim;
        assert_eq!(
            planes.features() + usize::from(append.is_some()),
            d,
            "input width mismatch"
        );
        let batch = active.len();
        scratch.ensure(batch, self.max_width, self.output_dim);
        if batch == 0 {
            return &scratch.out[..0];
        }
        if scratch.staged.len() < batch * d {
            scratch.staged.resize(batch * d, 0.0);
        }
        for f in 0..planes.features() {
            let plane = planes.plane(f);
            for (r, &i) in active.iter().enumerate() {
                scratch.staged[r * d + f] = plane[i as usize];
            }
        }
        if let Some(v) = append {
            for r in 0..batch {
                scratch.staged[r * d + d - 1] = v;
            }
        }
        let InferenceScratch {
            a, b, out, staged, ..
        } = scratch;
        self.run_rows(&staged[..batch * d], batch, a, b, out);
        &scratch.out[..batch * self.output_dim]
    }

    /// Scalar convenience: forward one feature vector (the on-board
    /// single-ring path). Still allocation-free through the scratch.
    pub fn forward_one(&self, features: &[f64], scratch: &mut InferenceScratch) -> f64 {
        assert_eq!(features.len(), self.input_dim, "input width mismatch");
        scratch.ensure(1, self.max_width, self.output_dim);
        self.run_rows(
            features,
            1,
            &mut scratch.a,
            &mut scratch.b,
            &mut scratch.out,
        );
        scratch.out[0]
    }

    /// Allocating convenience with the same signature shape as
    /// [`Mlp::predict`] — for tests and one-off calls outside hot loops.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let mut scratch = InferenceScratch::new();
        let out = self.forward_batch(x, &mut scratch).to_vec();
        Matrix::from_vec(x.rows(), self.output_dim, out)
    }

    /// Run `batch` rows (flat row-major `x`, stride `input_dim`) through
    /// every stage, ping-ponging between `a` and `b` and writing the final
    /// stage into `out`.
    fn run_rows(&self, x: &[f64], batch: usize, a: &mut [f64], b: &mut [f64], out: &mut [f64]) {
        let last = self.stages.len() - 1;
        let mut src_is_a = false; // stage 0 reads from `x`
        for (s, stage) in self.stages.iter().enumerate() {
            let w = &self.buf[stage.w_off..stage.w_off + stage.out_dim * stage.in_dim];
            let bias = &self.buf[stage.b_off..stage.b_off + stage.out_dim];
            let packed = &self.packed[stage.p_off..stage.p_off + stage.p_len];
            // borrow juggling: source is x, a, or b; destination is the
            // *other* scratch half, or `out` for the last stage
            let (src, dst): (&[f64], &mut [f64]) = if s == 0 {
                (x, if last == 0 { &mut *out } else { &mut *a })
            } else if src_is_a {
                (&*a, if s == last { &mut *out } else { &mut *b })
            } else {
                (&*b, if s == last { &mut *out } else { &mut *a })
            };
            run_plan_stage(
                &src[..batch * stage.in_dim],
                batch,
                self.isa,
                stage,
                w,
                bias,
                packed,
                &mut dst[..batch * stage.out_dim],
            );
            src_is_a = !src_is_a;
        }
    }
}

/// Dispatch one float stage to rung `isa`'s kernel. The vector paths
/// contract multiply-adds to FMA — allowed by the plan's rounding
/// contract (parity with `Mlp::predict` is tolerance-, not bit-, based);
/// the AVX-512 arm is bit-identical to the AVX2 arm. Portable dispatch
/// lands on [`gemm_bias_act`], the specification kernel. `packed` must
/// be in `isa`'s block width ([`simd::f64_block_lanes`]).
#[allow(clippy::too_many_arguments, unused_variables)]
fn run_plan_stage(
    x: &[f64],
    rows: usize,
    isa: KernelIsa,
    stage: &PlanStage,
    w: &[f64],
    bias: &[f64],
    packed: &[f64],
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx512 {
        // SAFETY: `compile_on` asserted the host runs `isa`; slices cut
        // to the stage's exact shapes by the caller, `packed` in 8-lane
        // blocks.
        unsafe {
            simd::gemm_f64_avx512(
                x,
                rows,
                stage.in_dim,
                stage.out_dim,
                w,
                bias,
                packed,
                stage.relu,
                out,
            )
        };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if isa.has_avx2() && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: AVX2+FMA verified at runtime; shapes as above, `packed`
        // in 4-lane blocks.
        unsafe {
            simd::gemm_f64_avx2(
                x,
                rows,
                stage.in_dim,
                stage.out_dim,
                w,
                bias,
                packed,
                stage.relu,
                out,
            )
        };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if isa == KernelIsa::Neon {
        // SAFETY: NEON is baseline on aarch64; shapes as above.
        unsafe {
            simd::gemm_f64_neon(
                x,
                rows,
                stage.in_dim,
                stage.out_dim,
                w,
                bias,
                packed,
                stage.relu,
                out,
            )
        };
        return;
    }
    gemm_bias_act(
        x,
        rows,
        stage.in_dim,
        w,
        bias,
        stage.out_dim,
        stage.relu,
        out,
    );
}

/// `out[r][o] = act(Σₖ x[r][k]·w[o][k] + bias[o])` with a 4×4 register
/// tile over (rows, outputs): each loaded weight is reused across four
/// batch rows and each loaded activation across four output units, which
/// is what buys the compiled path its throughput over the naive
/// one-dot-per-element loop in `Matrix::matmul_transpose`.
#[allow(clippy::too_many_arguments)]
fn gemm_bias_act(
    x: &[f64],
    rows: usize,
    in_dim: usize,
    w: &[f64],
    bias: &[f64],
    out_dim: usize,
    relu: bool,
    out: &mut [f64],
) {
    debug_assert_eq!(x.len(), rows * in_dim);
    debug_assert_eq!(w.len(), out_dim * in_dim);
    debug_assert_eq!(out.len(), rows * out_dim);
    // Bounds-check audit: no `unsafe` needed. Every row/column is
    // re-sliced to *exactly* `in_dim` elements before the k-loop, and the
    // k-loop bound is that same `in_dim`, so LLVM proves `k < len` and
    // elides every interior bounds check. The slicing itself is the
    // checked boundary — a misshaped caller panics at the slice, never
    // reads out of bounds.
    let r_tiles = rows / 4 * 4;
    let o_tiles = out_dim / 4 * 4;
    let mut r = 0;
    while r < r_tiles {
        let x0 = &x[r * in_dim..(r + 1) * in_dim];
        let x1 = &x[(r + 1) * in_dim..(r + 2) * in_dim];
        let x2 = &x[(r + 2) * in_dim..(r + 3) * in_dim];
        let x3 = &x[(r + 3) * in_dim..(r + 4) * in_dim];
        let mut o = 0;
        while o < o_tiles {
            let w0 = &w[o * in_dim..(o + 1) * in_dim];
            let w1 = &w[(o + 1) * in_dim..(o + 2) * in_dim];
            let w2 = &w[(o + 2) * in_dim..(o + 3) * in_dim];
            let w3 = &w[(o + 3) * in_dim..(o + 4) * in_dim];
            let mut acc = [[0.0f64; 4]; 4];
            for k in 0..in_dim {
                let xv = [x0[k], x1[k], x2[k], x3[k]];
                let wv = [w0[k], w1[k], w2[k], w3[k]];
                for (row_acc, &xk) in acc.iter_mut().zip(&xv) {
                    for (cell, &wk) in row_acc.iter_mut().zip(&wv) {
                        *cell += xk * wk;
                    }
                }
            }
            for (i, row_acc) in acc.iter().enumerate() {
                let dst = &mut out[(r + i) * out_dim + o..(r + i) * out_dim + o + 4];
                for (j, (d, v)) in dst.iter_mut().zip(row_acc).enumerate() {
                    let y = v + bias[o + j];
                    *d = if relu { y.max(0.0) } else { y };
                }
            }
            o += 4;
        }
        // remainder output units for this row tile
        for oo in o_tiles..out_dim {
            let w_row = &w[oo * in_dim..(oo + 1) * in_dim];
            for (i, x_row) in [x0, x1, x2, x3].iter().enumerate() {
                let y = dot(x_row, w_row) + bias[oo];
                out[(r + i) * out_dim + oo] = if relu { y.max(0.0) } else { y };
            }
        }
        r += 4;
    }
    // remainder rows
    for rr in r_tiles..rows {
        let x_row = &x[rr * in_dim..(rr + 1) * in_dim];
        for oo in 0..out_dim {
            let y = dot(x_row, &w[oo * in_dim..(oo + 1) * in_dim]) + bias[oo];
            out[rr * out_dim + oo] = if relu { y.max(0.0) } else { y };
        }
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::BlockOrder;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn trained_mlp(input: usize, hidden: &[usize], order: BlockOrder, seed: u64) -> Mlp {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = Mlp::new(input, hidden, order, &mut rng);
        // push BN running statistics off their init so folding matters
        let data = Matrix::he_uniform(64, input, &mut rng);
        m.forward(&data, true);
        m.forward(&Matrix::he_uniform(64, input, &mut rng), true);
        m
    }

    fn assert_parity(m: &Mlp, x: &Matrix, tol: f64) {
        let plan = CompiledMlp::compile(m);
        let want = m.predict(x);
        let mut scratch = InferenceScratch::new();
        let got = plan.forward_batch(x, &mut scratch);
        assert_eq!(got.len(), want.rows() * want.cols());
        for (g, w) in got.iter().zip(want.as_slice()) {
            assert!((g - w).abs() < tol, "compiled {g} vs predict {w}");
        }
    }

    #[test]
    fn forward_select_matches_gathered_batch_exactly() {
        // SoA staging produces value-identical rows, so the float plan
        // must agree with the gathered path bit-for-bit (same kernel)
        let m = trained_mlp(13, &[32, 16], BlockOrder::LinearFirst, 30);
        let plan = CompiledMlp::compile(&m);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let data = Matrix::he_uniform(24, 12, &mut rng);
        let mut planes = crate::soa::FeaturePlanes::new();
        planes.resize(12, 24);
        for f in 0..12 {
            for i in 0..24 {
                planes.plane_mut(f)[i] = data.row(i)[f];
            }
        }
        let polar = 63.25;
        let mut scratch = InferenceScratch::new();
        for active in [(0..24u32).collect::<Vec<_>>(), vec![1, 2, 21], vec![]] {
            let got = plan
                .forward_select(&planes, &active, Some(polar), &mut scratch)
                .to_vec();
            let mut x = Matrix::zeros(active.len(), 13);
            for (r, &i) in active.iter().enumerate() {
                x.row_mut(r)[..12].copy_from_slice(data.row(i as usize));
                x.row_mut(r)[12] = polar;
            }
            let want = plan
                .forward_batch(&x, &mut InferenceScratch::new())
                .to_vec();
            assert_eq!(got, want, "active {active:?}");
        }
    }

    #[test]
    fn parity_batch_norm_first() {
        let m = trained_mlp(13, &[32, 16], BlockOrder::BatchNormFirst, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let x = Matrix::he_uniform(37, 13, &mut rng); // odd batch: tiling remainders
        assert_parity(&m, &x, 1e-9);
    }

    #[test]
    fn parity_linear_first() {
        let m = trained_mlp(13, &[32, 16], BlockOrder::LinearFirst, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let x = Matrix::he_uniform(37, 13, &mut rng);
        assert_parity(&m, &x, 1e-9);
    }

    #[test]
    fn parity_tiny_and_single_row() {
        let m = trained_mlp(5, &[3], BlockOrder::BatchNormFirst, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for rows in [1, 2, 3, 4, 5] {
            let x = Matrix::he_uniform(rows, 5, &mut rng);
            assert_parity(&m, &x, 1e-9);
        }
        let plan = CompiledMlp::compile(&m);
        let mut scratch = InferenceScratch::new();
        let f = [0.3, -0.2, 0.9, 0.0, 1.4];
        let one = plan.forward_one(&f, &mut scratch);
        assert!((one - m.predict_one(&f)).abs() < 1e-9);
    }

    #[test]
    fn stages_are_fused() {
        // BatchNormFirst with two hidden layers: 3 BN + 3 Linear + 2 ReLU
        // layers must compile to exactly 3 Linear stages
        let m = trained_mlp(7, &[8, 4], BlockOrder::BatchNormFirst, 4);
        let plan = CompiledMlp::compile(&m);
        assert_eq!(plan.stage_count(), 3);
        assert_eq!(plan.input_dim(), 7);
        assert_eq!(plan.output_dim(), 1);
        // flat buffer holds exactly the fused Linear parameters
        assert_eq!(plan.param_count(), 7 * 8 + 8 + 8 * 4 + 4 + 4 + 1);
    }

    #[test]
    fn scratch_reuse_across_batch_sizes() {
        let m = trained_mlp(6, &[10], BlockOrder::LinearFirst, 5);
        let plan = CompiledMlp::compile(&m);
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut scratch = InferenceScratch::new();
        // warm up on the largest batch, then shrink: outputs must match
        // fresh-scratch runs exactly
        for rows in [64, 5, 1, 33, 64] {
            let x = Matrix::he_uniform(rows, 6, &mut rng);
            let got = plan.forward_batch(&x, &mut scratch).to_vec();
            let want = m.predict(&x);
            for (g, w) in got.iter().zip(want.as_slice()) {
                assert!((g - w).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn simd_kernel_matches_portable_within_fma_tolerance() {
        // the vector arms may contract mul+add to FMA, so parity is
        // tolerance-based (each op differs by ≤ 1 ulp from the scalar
        // chain); shapes cover full 4- and 8-blocks, half blocks, tail
        // outputs and tail rows, on every rung the host runs
        for (seed, hidden) in [(20u64, vec![32usize, 16]), (21, vec![10, 6]), (22, vec![3])] {
            let m = trained_mlp(13, &hidden, BlockOrder::BatchNormFirst, seed);
            let portable = CompiledMlp::compile_on(&m, KernelIsa::Portable);
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
            for rows in [1usize, 4, 5, 37] {
                let x = Matrix::he_uniform(rows, 13, &mut rng);
                let ref_out = portable.predict(&x);
                for isa in simd::supported_isas() {
                    let vec_out = CompiledMlp::compile_on(&m, isa).predict(&x);
                    for (v, p) in vec_out.as_slice().iter().zip(ref_out.as_slice()) {
                        assert!((v - p).abs() < 1e-9, "{isa} {v} vs portable {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn predict_convenience_matches() {
        let m = trained_mlp(4, &[6], BlockOrder::BatchNormFirst, 6);
        let plan = CompiledMlp::compile(&m);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let x = Matrix::he_uniform(9, 4, &mut rng);
        let a = plan.predict(&x);
        let b = m.predict(&x);
        assert_eq!(a.rows(), b.rows());
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-9);
        }
    }
}
