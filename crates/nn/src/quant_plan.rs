//! Compiled fixed-point INT8 inference plans — the quantized counterpart
//! of [`crate::compiled`].
//!
//! [`crate::quant::QuantizedLayer::forward_int8`] is the *specification*
//! kernel: scalar, one sample at a time, with a per-element `f64`
//! requantization multiply. A [`CompiledQuantMlp`] is built once from a
//! [`QuantizedMlp`] and restates that computation for the hot loop:
//!
//! * all layer weights live in one flat `i8` buffer with `i32` biases,
//!   laid out in execution order;
//! * the activation zero-point correction `Σ w·(x − zₓ)` is hoisted out
//!   of the inner loop at compile time (`bias − zₓ·Σw` per output row),
//!   so the MAC loop is a pure `i8×i8 → i32` dot product;
//! * the per-row `f64` requantization multiplier `s_w·s_x/s_y` is
//!   replaced by a precomputed integer fixed-point pair
//!   [`Requant`]`{ multiplier, shift }` applied with round-to-nearest-even
//!   — the inner loop performs **no floating-point arithmetic at all**;
//! * batched forwards run through a caller-owned [`QuantScratch`]
//!   ping-pong arena (zero allocations after warm-up) with the same 4×4
//!   register tiling as the float plan, and go rayon-parallel over batch
//!   rows once the work crosses
//!   [`crate::tensor::PAR_SIMD_FLOP_THRESHOLD`] (the vector kernels
//!   raised the fork break-even ~20x over the scalar matmul threshold).
//!
//! This plan is the arithmetic contract of the deployment: per-sample
//! inference ([`QuantizedMlp::forward_one`]) and the FPGA co-simulation in
//! `adapt-fpga` both execute it, so "hardware" and CPU results are
//! bit-identical by construction. Round-to-nearest-even is the rounding
//! mode because it is (a) statistically unbiased — requantization happens
//! between every pair of layers, and a half-up rule would push every
//! layer's outputs systematically toward +∞ — and (b) what an FPGA
//! implements for free: the tie test is a mask compare on the bits
//! shifted out, with no sign handling (half-away-from-zero needs the
//! sign) and no floating-point unit.

use crate::quant::{QuantParams, QuantizedMlp};
use crate::simd::{self, KernelIsa, QuantStageKernel};
use crate::tensor::PAR_SIMD_FLOP_THRESHOLD;
use rayon::prelude::*;

/// A requantization multiplier `m = s_w·s_x/s_y` in integer fixed point:
/// `m ≈ multiplier · 2^(−shift)` with `multiplier` normalized into
/// `[2^30, 2^31)`, so the pair carries 31 significant bits of `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requant {
    /// Fixed-point mantissa, in `[2^30, 2^31)` (or 0 for a vanishing
    /// multiplier).
    pub multiplier: i32,
    /// Right-shift applied to `acc · multiplier`.
    pub shift: u32,
}

impl Requant {
    /// Encode a positive real multiplier. Multipliers are products of
    /// quantization scales and therefore positive; values at or above
    /// `2^31` cannot arise from i8 layer arithmetic and are rejected.
    pub fn from_multiplier(m: f64) -> Self {
        assert!(
            m > 0.0 && m.is_finite(),
            "requant multiplier must be positive and finite, got {m}"
        );
        // normalize m = f · 2^e with f ∈ [0.5, 1)
        let mut f = m;
        let mut e = 0i32;
        while f >= 1.0 {
            f *= 0.5;
            e += 1;
        }
        while f < 0.5 {
            f *= 2.0;
            e -= 1;
        }
        let mut q = (f * (1u64 << 31) as f64).round() as i64;
        if q == 1 << 31 {
            q >>= 1;
            e += 1;
        }
        assert!(31 - e >= 0, "requant multiplier {m} too large for i8 math");
        let mut shift = (31 - e) as u32;
        // a vanishing multiplier (m < ~2^-32) would need shift > 62;
        // renormalize the mantissa down until the shift is applicable
        while shift > 62 {
            q = rne_shr(q, 1);
            shift -= 1;
        }
        Requant {
            multiplier: q as i32,
            shift,
        }
    }

    /// Apply to an `i32` accumulator: round-to-nearest-even of
    /// `acc · multiplier / 2^shift`.
    #[inline]
    pub fn apply(self, acc: i32) -> i32 {
        rne_shr(acc as i64 * self.multiplier as i64, self.shift) as i32
    }
}

/// Round-to-nearest-even right shift: RNE of `v / 2^shift`. `shift` must
/// be ≤ 62 (guaranteed by [`Requant::from_multiplier`]).
#[inline]
fn rne_shr(v: i64, shift: u32) -> i64 {
    if shift == 0 {
        return v;
    }
    let half = 1i64 << (shift - 1);
    let floor = v >> shift; // arithmetic shift: floors toward −∞
    let rem = v & ((1i64 << shift) - 1); // non-negative remainder
    floor + (rem > half || (rem == half && floor & 1 == 1)) as i64
}

/// One fused stage of the quantized plan, addressing the shared flat
/// buffers.
#[derive(Debug, Clone, Copy)]
struct QuantStage {
    in_dim: usize,
    out_dim: usize,
    /// Offset of the `[out_dim × in_dim]` row-major `i8` weight block.
    w_off: usize,
    /// Offset of the `[out_dim]` zero-point-corrected `i32` bias block.
    b_off: usize,
    /// Offset of the `[out_dim]` per-row requantization pairs.
    q_off: usize,
    /// Offset of the pair-interleaved packed weight block (SIMD kernels).
    p_off: usize,
    /// Byte length of the packed block (`⌈in/2⌉·16·(out/8)`).
    p_len: usize,
    /// Whether the vector requantizer can serve this stage: every shift
    /// must be in `1..=62` (a zero shift would need a pass-through lane
    /// the SIMD RNE sequence does not implement — such stages run on the
    /// portable kernel).
    simd_ok: bool,
    /// Output zero point (ReLU clamps here; it is real zero).
    zy: i32,
    relu: bool,
}

/// A quantized network compiled for batched inference. Build once with
/// [`CompiledQuantMlp::compile`] (or let [`QuantizedMlp`] cache one), then
/// call [`forward_batch`](CompiledQuantMlp::forward_batch) from the hot
/// loop.
#[derive(Debug, Clone)]
pub struct CompiledQuantMlp {
    /// All stage weights, flat, in execution order.
    weights: Vec<i8>,
    /// Per-row biases with the input-zero-point correction folded in:
    /// `bias_q[o] − zₓ·Σₖ w[o][k]`.
    biases: Vec<i32>,
    /// Per-row fixed-point requantization pairs.
    requants: Vec<Requant>,
    /// Pair-interleaved packed weights for the SIMD kernels, all stages
    /// concatenated (see [`simd::pack_i8_pairs`]).
    packed: Vec<i8>,
    /// `requants` multipliers widened to i64 for vector loads.
    rq_mult: Vec<i64>,
    /// `requants` shifts widened to i64 for vector loads.
    rq_shift: Vec<i64>,
    /// The rung the plan was compiled for and runs on.
    isa: KernelIsa,
    stages: Vec<QuantStage>,
    /// Optional per-feature float input normalization `(scale, shift)`,
    /// applied before quantization (13 multiply-adds — input conditioning,
    /// not part of the integer pipeline).
    input_norm: Option<(Vec<f64>, Vec<f64>)>,
    /// Quantization of the first layer's input activations.
    input_params: QuantParams,
    /// Quantization of the last layer's outputs (for the final dequant).
    output_params: QuantParams,
    input_dim: usize,
    /// Widest activation the plan produces (scratch sizing).
    max_width: usize,
    /// Multiply-accumulates per sample (parallelism threshold).
    macs_per_sample: usize,
}

/// Reusable arena for [`CompiledQuantMlp`] forward passes: two ping-pong
/// `i8` activation planes and the dequantized `f64` output buffer. Grow-
/// only — a scratch that has served a batch of size `n` serves every later
/// batch `≤ n` without touching the allocator.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    a: Vec<i8>,
    b: Vec<i8>,
    out: Vec<f64>,
}

impl QuantScratch {
    /// An empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, batch: usize, max_width: usize) {
        let need = batch * max_width;
        if self.a.len() < need {
            self.a.resize(need, 0);
            self.b.resize(need, 0);
        }
        if self.out.len() < batch {
            self.out.resize(batch, 0.0);
        }
    }
}

impl CompiledQuantMlp {
    /// Compile a quantized network into a fixed-point inference plan that
    /// runs on the host's detected rung ([`simd::detected_isa`]).
    pub fn compile(net: &QuantizedMlp) -> Self {
        Self::compile_on(net, simd::detected_isa())
    }

    /// [`compile`](Self::compile) for the kernel arm of rung `isa`: the
    /// parity tests and benches compare rungs side by side this way.
    ///
    /// # Panics
    /// If this host cannot run `isa` ([`KernelIsa::is_supported`]).
    pub fn compile_on(net: &QuantizedMlp, isa: KernelIsa) -> Self {
        assert!(isa.is_supported(), "this host cannot run {isa} kernels");
        assert!(!net.layers.is_empty(), "cannot compile an empty network");
        assert_eq!(
            net.layers.last().unwrap().out_dim,
            1,
            "quantized plans serve scalar-output (logit) networks"
        );
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        let mut requants = Vec::new();
        let mut packed = Vec::new();
        let mut stages = Vec::with_capacity(net.layers.len());
        let mut max_width = net.input_dim();
        let mut macs = 0usize;
        for layer in &net.layers {
            let w_off = weights.len();
            weights.extend_from_slice(&layer.weight_q);
            let b_off = biases.len();
            let q_off = requants.len();
            let p_off = packed.len();
            packed.extend_from_slice(&simd::pack_i8_pairs(
                &layer.weight_q,
                layer.in_dim,
                layer.out_dim,
            ));
            let zx = layer.input_params.zero_point;
            let sx = layer.input_params.scale;
            let sy = layer.output_params.scale;
            for o in 0..layer.out_dim {
                let row = &layer.weight_q[o * layer.in_dim..(o + 1) * layer.in_dim];
                // hoist the activation zero point: Σ w·(x − zₓ) =
                // Σ w·x − zₓ·Σw, exactly, in i32 (|Σw| ≤ in_dim·127)
                let row_sum: i32 = row.iter().map(|&w| w as i32).sum();
                biases.push(layer.bias_q[o] - zx * row_sum);
                requants.push(Requant::from_multiplier(layer.weight_scales[o] * sx / sy));
            }
            let simd_ok = requants[q_off..]
                .iter()
                .all(|r| (1..=62).contains(&r.shift));
            stages.push(QuantStage {
                in_dim: layer.in_dim,
                out_dim: layer.out_dim,
                w_off,
                b_off,
                q_off,
                p_off,
                p_len: packed.len() - p_off,
                simd_ok,
                zy: layer.output_params.zero_point,
                relu: layer.relu,
            });
            max_width = max_width.max(layer.out_dim);
            macs += layer.in_dim * layer.out_dim;
        }
        let rq_mult = requants.iter().map(|r| r.multiplier as i64).collect();
        let rq_shift = requants.iter().map(|r| r.shift as i64).collect();
        CompiledQuantMlp {
            weights,
            biases,
            requants,
            packed,
            rq_mult,
            rq_shift,
            isa,
            stages,
            input_norm: net.input_norm.clone(),
            input_params: net.layers[0].input_params,
            output_params: net.layers.last().unwrap().output_params,
            input_dim: net.input_dim(),
            max_width,
            macs_per_sample: macs,
        }
    }

    /// Input feature width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of fused integer stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Multiply-accumulates per sample.
    pub fn macs_per_sample(&self) -> usize {
        self.macs_per_sample
    }

    /// Batched forward pass: `x` is `[batch × input_dim]` row-major `f64`
    /// features. Returns the dequantized logits (one per row), borrowed
    /// from the scratch. Allocation-free once the scratch has grown to
    /// the batch size; pure integer arithmetic between the quantize and
    /// dequantize boundaries.
    pub fn forward_batch<'s>(
        &self,
        x: &crate::tensor::Matrix,
        scratch: &'s mut QuantScratch,
    ) -> &'s [f64] {
        assert_eq!(x.cols(), self.input_dim, "input width mismatch");
        let batch = x.rows();
        scratch.ensure(batch, self.max_width);
        if batch == 0 {
            return &scratch.out[..0];
        }
        self.quantize_inputs(x.as_slice(), batch, &mut scratch.a);
        self.run_stages(batch, &mut scratch.a, &mut scratch.b);
        // the final activations sit in `a` or `b` depending on parity
        let last = if self.stages.len() % 2 == 1 {
            &scratch.b
        } else {
            &scratch.a
        };
        for (o, &q) in scratch.out[..batch].iter_mut().zip(&last[..batch]) {
            *o = self.output_params.dequantize(q);
        }
        &scratch.out[..batch]
    }

    /// Forward pass over selected rows of a feature-major plane set
    /// (structure-of-arrays staging — see [`crate::soa`]). `active`
    /// indexes rows of `planes`; `append` optionally supplies one extra
    /// trailing input shared by every row (the localizer's polar angle).
    /// Staging and quantization fuse into one sweep per feature plane
    /// with the per-feature normalization constants hoisted out of the
    /// row loop, and the shared appended input is quantized exactly
    /// once. Bit-identical to gathering the same rows into a row-major
    /// matrix and calling [`forward_batch`](Self::forward_batch): the
    /// staged i8 plane holds the same values (quantize is a pure
    /// per-element function), and everything after staging is shared.
    pub fn forward_select<'s>(
        &self,
        planes: &crate::soa::FeaturePlanes,
        active: &[u32],
        append: Option<f64>,
        scratch: &'s mut QuantScratch,
    ) -> &'s [f64] {
        let d = self.input_dim;
        assert_eq!(
            planes.features() + usize::from(append.is_some()),
            d,
            "input width mismatch"
        );
        let batch = active.len();
        scratch.ensure(batch, self.max_width);
        if batch == 0 {
            return &scratch.out[..0];
        }
        let qp = self.input_params;
        let dst = &mut scratch.a;
        for f in 0..planes.features() {
            let plane = planes.plane(f);
            match &self.input_norm {
                Some((scale, shift)) => {
                    let (a, b) = (scale[f], shift[f]);
                    for (r, &i) in active.iter().enumerate() {
                        dst[r * d + f] = qp.quantize(plane[i as usize] * a + b);
                    }
                }
                None => {
                    for (r, &i) in active.iter().enumerate() {
                        dst[r * d + f] = qp.quantize(plane[i as usize]);
                    }
                }
            }
        }
        if let Some(v) = append {
            let f = d - 1;
            let q = match &self.input_norm {
                Some((scale, shift)) => qp.quantize(v * scale[f] + shift[f]),
                None => qp.quantize(v),
            };
            for r in 0..batch {
                dst[r * d + f] = q;
            }
        }
        self.run_stages(batch, &mut scratch.a, &mut scratch.b);
        let last = if self.stages.len() % 2 == 1 {
            &scratch.b
        } else {
            &scratch.a
        };
        for (o, &q) in scratch.out[..batch].iter_mut().zip(&last[..batch]) {
            *o = self.output_params.dequantize(q);
        }
        &scratch.out[..batch]
    }

    /// Scalar convenience: one feature vector through the same plan
    /// (the on-board single-ring path). Allocation-free via the scratch.
    pub fn forward_one(&self, features: &[f64], scratch: &mut QuantScratch) -> f64 {
        assert_eq!(features.len(), self.input_dim, "input width mismatch");
        scratch.ensure(1, self.max_width);
        self.quantize_inputs(features, 1, &mut scratch.a);
        self.run_stages(1, &mut scratch.a, &mut scratch.b);
        let q = if self.stages.len() % 2 == 1 {
            scratch.b[0]
        } else {
            scratch.a[0]
        };
        self.output_params.dequantize(q)
    }

    /// Normalize (optional input BN affine) and quantize `batch` rows of
    /// `x` into the i8 plane `dst`.
    fn quantize_inputs(&self, x: &[f64], batch: usize, dst: &mut [i8]) {
        let d = self.input_dim;
        let qp = self.input_params;
        match &self.input_norm {
            Some((scale, shift)) => {
                for r in 0..batch {
                    let row = &x[r * d..(r + 1) * d];
                    let out = &mut dst[r * d..(r + 1) * d];
                    for (o, ((&v, &a), &b)) in out.iter_mut().zip(row.iter().zip(scale).zip(shift))
                    {
                        *o = qp.quantize(v * a + b);
                    }
                }
            }
            None => {
                for r in 0..batch {
                    let row = &x[r * d..(r + 1) * d];
                    let out = &mut dst[r * d..(r + 1) * d];
                    for (o, &v) in out.iter_mut().zip(row) {
                        *o = qp.quantize(v);
                    }
                }
            }
        }
    }

    /// Run `batch` quantized rows through every stage, ping-ponging
    /// between `a` and `b` (stage 0 reads `a`). Each stage goes
    /// rayon-parallel over row blocks once `batch × macs` crosses the
    /// measured threshold; results are bit-identical either way (integer
    /// arithmetic, row-independent).
    fn run_stages(&self, batch: usize, a: &mut [i8], b: &mut [i8]) {
        let isa = self.isa;
        let mut src_is_a = true;
        for stage in &self.stages {
            let w = &self.weights[stage.w_off..stage.w_off + stage.out_dim * stage.in_dim];
            let bias = &self.biases[stage.b_off..stage.b_off + stage.out_dim];
            let rq = &self.requants[stage.q_off..stage.q_off + stage.out_dim];
            let kern = QuantStageKernel {
                w,
                packed: &self.packed[stage.p_off..stage.p_off + stage.p_len],
                bias,
                rq,
                rq_mult: &self.rq_mult[stage.q_off..stage.q_off + stage.out_dim],
                rq_shift: &self.rq_shift[stage.q_off..stage.q_off + stage.out_dim],
                in_dim: stage.in_dim,
                out_dim: stage.out_dim,
                zy: stage.zy,
                relu: stage.relu,
            };
            let (src, dst): (&[i8], &mut [i8]) = if src_is_a {
                (&*a, &mut *b)
            } else {
                (&*b, &mut *a)
            };
            let src = &src[..batch * stage.in_dim];
            let dst = &mut dst[..batch * stage.out_dim];
            if batch * stage.in_dim * stage.out_dim >= PAR_SIMD_FLOP_THRESHOLD && batch > 4 {
                // 16-row blocks: multiples of the 4-row tile, fine-grained
                // enough for the scoped-thread pool to balance
                let rows_per = 16usize;
                dst.par_chunks_mut(rows_per * stage.out_dim)
                    .zip(src.par_chunks(rows_per * stage.in_dim))
                    .for_each(|(dchunk, schunk)| {
                        let rows = schunk.len() / stage.in_dim;
                        run_stage_rows(schunk, rows, isa, stage, &kern, dchunk);
                    });
            } else {
                run_stage_rows(src, batch, isa, stage, &kern, dst);
            }
            src_is_a = !src_is_a;
        }
    }
}

/// Dispatch one stage's row block to rung `isa`'s kernel. Stages the
/// vector requantizer cannot serve (`simd_ok == false`) and portable
/// dispatch both land on [`gemm_i8`], the specification kernel; the
/// vector paths are bit-identical to it (see [`crate::simd`]).
#[allow(unused_variables)]
fn run_stage_rows(
    x: &[i8],
    rows: usize,
    isa: KernelIsa,
    stage: &QuantStage,
    kern: &QuantStageKernel,
    out: &mut [i8],
) {
    #[cfg(target_arch = "x86_64")]
    if isa.has_avx2() && stage.simd_ok {
        // SAFETY: `compile_on` asserted the host runs `isa`, and the
        // kernel struct was sliced to the stage's exact shapes above.
        unsafe { simd::gemm_i8_avx2(x, rows, kern, out) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if isa == KernelIsa::Neon && stage.simd_ok {
        // SAFETY: NEON is baseline on aarch64; shapes as above.
        unsafe { simd::gemm_i8_neon(x, rows, kern, out) };
        return;
    }
    gemm_i8(
        x,
        rows,
        stage.in_dim,
        kern.w,
        kern.bias,
        kern.rq,
        stage,
        out,
    );
}

/// `out[r][o] = sat8( requant(Σₖ x[r][k]·w[o][k] + bias[o]) + zy )` with a
/// 4×4 register tile over (rows, outputs): 16 independent `i32`
/// accumulators per tile, each loaded weight reused across four batch rows
/// and each loaded activation across four output units — the integer twin
/// of the float plan's kernel. Bias already carries the input-zero-point
/// correction, so the inner loop is a bare `i8×i8 → i32` dot product.
#[allow(clippy::too_many_arguments)]
fn gemm_i8(
    x: &[i8],
    rows: usize,
    in_dim: usize,
    w: &[i8],
    bias: &[i32],
    rq: &[Requant],
    stage: &QuantStage,
    out: &mut [i8],
) {
    let out_dim = stage.out_dim;
    debug_assert_eq!(x.len(), rows * in_dim);
    debug_assert_eq!(w.len(), out_dim * in_dim);
    debug_assert_eq!(out.len(), rows * out_dim);
    let finish = |acc: i32, o: usize| -> i8 {
        let mut y = rq[o].apply(acc) + stage.zy;
        if stage.relu {
            y = y.max(stage.zy); // ReLU in quantized space: clamp at real 0
        }
        y.clamp(-128, 127) as i8
    };
    // Bounds-check audit: same argument as the float kernel
    // (`compiled::gemm_bias_act`) — exact-length subslices ahead of the
    // k-loop let LLVM elide every interior check, so the hot loop needs
    // no `get_unchecked`/`unsafe` to be check-free.
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
            let mut acc = [[0i32; 4]; 4];
            for k in 0..in_dim {
                let xv = [x0[k] as i32, x1[k] as i32, x2[k] as i32, x3[k] as i32];
                let wv = [w0[k] as i32, w1[k] as i32, w2[k] as i32, w3[k] as i32];
                for (row_acc, &xk) in acc.iter_mut().zip(&xv) {
                    for (cell, &wk) in row_acc.iter_mut().zip(&wv) {
                        *cell += xk * wk;
                    }
                }
            }
            for (i, row_acc) in acc.iter().enumerate() {
                let dst = &mut out[(r + i) * out_dim + o..(r + i) * out_dim + o + 4];
                for (j, (d, &v)) in dst.iter_mut().zip(row_acc).enumerate() {
                    *d = finish(v + bias[o + j], o + j);
                }
            }
            o += 4;
        }
        // remainder output units for this row tile
        for oo in o_tiles..out_dim {
            let w_row = &w[oo * in_dim..(oo + 1) * in_dim];
            for (i, x_row) in [x0, x1, x2, x3].iter().enumerate() {
                out[(r + i) * out_dim + oo] = finish(dot_i8(x_row, w_row) + bias[oo], oo);
            }
        }
        r += 4;
    }
    // remainder rows
    for rr in r_tiles..rows {
        let x_row = &x[rr * in_dim..(rr + 1) * in_dim];
        for oo in 0..out_dim {
            let acc = dot_i8(x_row, &w[oo * in_dim..(oo + 1) * in_dim]) + bias[oo];
            out[rr * out_dim + oo] = finish(acc, oo);
        }
    }
}

#[inline]
fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{BlockOrder, Mlp};
    use crate::quant::QuantizedMlp;
    use crate::tensor::Matrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rne_shr_rounds_to_nearest_even() {
        // value / 4: 5/4 = 1.25 → 1, 6/4 = 1.5 → 2 (even), 7/4 → 2,
        // 10/4 = 2.5 → 2 (even), -6/4 = -1.5 → -2 (even), -5/4 → -1
        assert_eq!(rne_shr(5, 2), 1);
        assert_eq!(rne_shr(6, 2), 2);
        assert_eq!(rne_shr(7, 2), 2);
        assert_eq!(rne_shr(10, 2), 2);
        assert_eq!(rne_shr(-6, 2), -2);
        assert_eq!(rne_shr(-5, 2), -1);
        assert_eq!(rne_shr(-10, 2), -2);
        assert_eq!(rne_shr(0, 17), 0);
    }

    #[test]
    fn requant_exact_for_power_of_two_multipliers() {
        for (m, acc, want) in [(0.5, 7, 4), (0.25, 10, 2), (2.0, -3, -6), (1.0, 9, 9)] {
            let r = Requant::from_multiplier(m);
            assert_eq!(r.apply(acc), want, "m={m}, acc={acc}");
        }
    }

    #[test]
    fn requant_tracks_f64_multiplier() {
        // across a log-spaced sweep of multipliers and accumulators the
        // fixed-point pair reproduces the f64 product to the unit
        for i in 0..200 {
            let m = 1e-6 * 1.12f64.powi(i);
            let r = Requant::from_multiplier(m);
            for acc in [-100_000, -777, -1, 0, 1, 500, 33_333] {
                let fixed = r.apply(acc);
                let float = (acc as f64 * m).round() as i32;
                assert!(
                    (fixed - float).abs() <= 1,
                    "m={m}, acc={acc}: fixed {fixed} vs float {float}"
                );
            }
        }
    }

    #[test]
    fn vanishing_multiplier_is_zero() {
        let r = Requant::from_multiplier(1e-300);
        assert_eq!(r.apply(i32::MAX), 0);
        assert_eq!(r.apply(i32::MIN), 0);
    }

    fn quantized_net(seed: u64, hidden: &[usize]) -> (QuantizedMlp, Matrix) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut model = Mlp::new(7, hidden, BlockOrder::LinearFirst, &mut rng);
        let calib = Matrix::he_uniform(128, 7, &mut rng);
        for _ in 0..10 {
            model.forward(&calib, true);
        }
        (QuantizedMlp::quantize(&model, &calib), calib)
    }

    #[test]
    fn batched_matches_forward_one_bit_exactly() {
        let (net, calib) = quantized_net(3, &[18, 9]);
        let plan = CompiledQuantMlp::compile(&net);
        let mut scratch = QuantScratch::new();
        for rows in [1, 2, 3, 4, 5, 37, 128] {
            let mut x = Matrix::zeros(rows, 7);
            for r in 0..rows {
                x.row_mut(r).copy_from_slice(calib.row(r % 128));
            }
            let got = plan.forward_batch(&x, &mut scratch).to_vec();
            for (r, &g) in got.iter().enumerate() {
                let want = net.forward_one(x.row(r));
                assert_eq!(g, want, "row {r} of {rows}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_transparent() {
        let (net, calib) = quantized_net(4, &[12]);
        let plan = CompiledQuantMlp::compile(&net);
        let mut warm = QuantScratch::new();
        for rows in [64, 3, 1, 17, 64] {
            let mut x = Matrix::zeros(rows, 7);
            for r in 0..rows {
                x.row_mut(r).copy_from_slice(calib.row((r * 5) % 128));
            }
            let reused = plan.forward_batch(&x, &mut warm).to_vec();
            let fresh = plan.forward_batch(&x, &mut QuantScratch::new()).to_vec();
            assert_eq!(reused, fresh);
        }
    }

    #[test]
    fn forward_one_matches_batch_row() {
        let (net, calib) = quantized_net(5, &[10, 6]);
        let plan = CompiledQuantMlp::compile(&net);
        let mut scratch = QuantScratch::new();
        for i in 0..16 {
            let one = plan.forward_one(calib.row(i), &mut scratch);
            let mut x = Matrix::zeros(1, 7);
            x.row_mut(0).copy_from_slice(calib.row(i));
            let batch = plan.forward_batch(&x, &mut scratch)[0];
            assert_eq!(one, batch);
        }
    }

    /// Round every weight and activation scale of `net` to a power of
    /// two, so each requant multiplier is exactly `2^k` and one
    /// accumulator in `2^-k` lands on a rounding tie.
    fn round_scales_to_powers_of_two(net: &mut QuantizedMlp) {
        let pow2 = |s: f64| s.log2().round().exp2();
        for layer in &mut net.layers {
            layer.input_params.scale = pow2(layer.input_params.scale);
            layer.output_params.scale = pow2(layer.output_params.scale);
            for s in &mut layer.weight_scales {
                *s = pow2(*s);
            }
        }
    }

    #[test]
    fn simd_kernel_bit_identical_to_portable() {
        // every shape here exercises a different kernel corner: full
        // 8-output blocks, tail outputs, odd input widths, tail rows;
        // trained scales almost never round on a tie, so each shape also
        // runs with power-of-two scales, where ties are common
        for ((seed, hidden), ties) in [
            (10u64, vec![16usize, 8]),
            (11, vec![24, 9]),  // tail output unit
            (12, vec![8]),      // single hidden stage
            (13, vec![33, 17]), // odd everything
        ]
        .into_iter()
        .flat_map(|case| [(case.clone(), false), (case, true)])
        {
            let (mut net, calib) = quantized_net(seed, &hidden);
            if ties {
                round_scales_to_powers_of_two(&mut net);
            }
            let portable = CompiledQuantMlp::compile_on(&net, KernelIsa::Portable);
            for rows in [1usize, 3, 4, 5, 16, 31, 128] {
                let mut x = Matrix::zeros(rows, 7);
                for r in 0..rows {
                    x.row_mut(r).copy_from_slice(calib.row((r * 7) % 128));
                }
                let ref_out = portable
                    .forward_batch(&x, &mut QuantScratch::new())
                    .to_vec();
                for isa in simd::supported_isas() {
                    let plan = CompiledQuantMlp::compile_on(&net, isa);
                    let vec_out = plan.forward_batch(&x, &mut QuantScratch::new()).to_vec();
                    assert_eq!(
                        vec_out, ref_out,
                        "{isa}, hidden {hidden:?}, ties {ties}, rows {rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn forward_select_bit_identical_to_gathered_batch() {
        // SoA staging with an active-index subset and a shared appended
        // column must reproduce the gathered row-major path exactly
        let (net, calib) = quantized_net(7, &[16, 9]);
        let plan = CompiledQuantMlp::compile(&net);
        let n = 32usize;
        let mut planes = crate::soa::FeaturePlanes::new();
        planes.resize(6, n);
        for f in 0..6 {
            for i in 0..n {
                planes.plane_mut(f)[i] = calib.row(i)[f];
            }
        }
        let polar = 41.5;
        let mut scratch = QuantScratch::new();
        for active in [
            (0..n as u32).collect::<Vec<_>>(),
            vec![0, 5, 6, 17, 31],
            vec![3],
            vec![],
        ] {
            let got = plan
                .forward_select(&planes, &active, Some(polar), &mut scratch)
                .to_vec();
            let mut x = Matrix::zeros(active.len(), 7);
            for (r, &i) in active.iter().enumerate() {
                x.row_mut(r)[..6].copy_from_slice(&calib.row(i as usize)[..6]);
                x.row_mut(r)[6] = polar;
            }
            let want = plan.forward_batch(&x, &mut QuantScratch::new()).to_vec();
            assert_eq!(got, want, "active {active:?}");
        }
    }

    #[test]
    fn parallel_path_bit_identical_to_sequential() {
        // a batch whose widest stage crosses PAR_SIMD_FLOP_THRESHOLD on
        // the wide net must agree with per-row forwards exactly
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut model = Mlp::new(13, &[256, 128, 64], BlockOrder::LinearFirst, &mut rng);
        let calib = Matrix::he_uniform(256, 13, &mut rng);
        for _ in 0..5 {
            model.forward(&calib, true);
        }
        let net = QuantizedMlp::quantize(&model, &calib);
        let plan = CompiledQuantMlp::compile(&net);
        // the fork gate is per-stage, so check the widest stage crosses it
        let widest = plan
            .stages
            .iter()
            .map(|s| 256 * s.in_dim * s.out_dim)
            .max()
            .unwrap();
        assert!(
            widest >= PAR_SIMD_FLOP_THRESHOLD,
            "test batch no longer exercises the parallel path"
        );
        let mut scratch = QuantScratch::new();
        let batched = plan.forward_batch(&calib, &mut scratch).to_vec();
        let mut one = QuantScratch::new();
        for (r, &b) in batched.iter().enumerate() {
            assert_eq!(b, plan.forward_one(calib.row(r), &mut one), "row {r}");
        }
    }
}
