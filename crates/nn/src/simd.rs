//! Runtime-dispatched SIMD kernels for the compiled inference plans.
//!
//! The portable scalar kernels in [`crate::quant_plan`] and
//! [`crate::compiled`] remain the *source of truth*: every SIMD path here
//! must produce either bit-identical results (INT8 — integer arithmetic
//! is associative, and the vector requantization replays `rne_shr`
//! exactly) or results within the documented rounding contract (the f64
//! plan may contract multiply-adds into FMAs, which the parity tests
//! already tolerate). The host's rung is detected at runtime, on a ladder:
//!
//! * x86-64 with AVX-512F (and AVX2+FMA) → [`KernelIsa::Avx512`];
//! * x86-64 with AVX2 → [`KernelIsa::Avx2`] (`is_x86_feature_detected!`);
//! * aarch64 → [`KernelIsa::Neon`] (baseline NEON is mandatory there);
//! * anything else → [`KernelIsa::Portable`].
//!
//! Two kernels have an AVX-512 arm: the f64 plan GEMM
//! ([`gemm_f64_avx512`]) and the approximation screen
//! (`screen_plane_avx512`). Each is bit-identical to the AVX2 arm beside
//! it, so an AVX-512 host computes the same numbers as an AVX2 host.
//! Every other kernel (the INT8 GEMM, the sky-map sweep) takes its AVX2
//! arm on both rungs: dispatch sites test [`KernelIsa::has_avx2`], never
//! `== Avx2`.
//!
//! The rung is a value, never process state: a compiled plan records the
//! rung it was compiled for, and the sweep and the screen take theirs as
//! an argument. Production passes [`detected_isa`]; the parity tests pass
//! every rung of [`supported_isas`] (portable included) side by side in
//! one process, and the `_portable` bench arms the portable rung. Each
//! entry point asserts [`KernelIsa::is_supported`], because running a
//! vector arm the host lacks is undefined behaviour.
//!
//! ## INT8 kernel layout
//!
//! `_mm256_madd_epi16` multiplies adjacent i16 pairs and sums them into
//! i32 lanes, so the AVX2 kernel consumes weights repacked at plan-compile
//! time into *pair-interleaved blocks*: for each block of 8 output units
//! and each input pair `k = (2j, 2j+1)`, 16 bytes hold
//! `[w[o][2j], w[o][2j+1]]` for the 8 outputs `o`. One `madd` then
//! computes two MACs for 8 outputs at once (16 MACs/instruction); an odd
//! trailing input is padded with a zero weight. Activations are broadcast
//! as sign-extended i16 pairs. Accumulation is exact i32 (each product
//! pair is ≤ `2·127²` and input widths are far below overflow).
//!
//! Requantization is vectorized in 4×i64 lanes: the `acc·multiplier`
//! product uses `_mm256_mul_epi32` (signed 32×32→64, exact), and the
//! round-to-nearest-even shift replays the scalar `rne_shr` — floor via
//! the unsigned-bias trick (AVX2 has no 64-bit arithmetic variable
//! shift), remainder/half compares, tie-to-even adjust — so the i8
//! outputs are bit-identical to the portable kernel by construction.

/// A rung of the kernel ladder: which arm a plan, sweep or screen runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelIsa {
    /// x86-64 AVX-512F: 8-lane arms for the f64 GEMM and the screen, the
    /// AVX2 arms for every other kernel.
    Avx512,
    /// x86-64 AVX2 (+FMA for the f64 plan) vector kernels.
    Avx2,
    /// aarch64 NEON vector kernels.
    Neon,
    /// The portable scalar kernels (the specification path).
    Portable,
}

impl KernelIsa {
    /// Stable lowercase name used in bench reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            KernelIsa::Avx512 => "avx512",
            KernelIsa::Avx2 => "avx2",
            KernelIsa::Neon => "neon",
            KernelIsa::Portable => "portable",
        }
    }

    /// Whether a kernel's AVX2 arm may run under this ISA: the AVX2 rung
    /// and the AVX-512 rung above it. The one predicate every AVX2
    /// dispatch site tests, so a kernel without an AVX-512 arm keeps its
    /// AVX2 arm on an AVX-512 host.
    pub fn has_avx2(self) -> bool {
        matches!(self, KernelIsa::Avx512 | KernelIsa::Avx2)
    }

    /// Whether this host can run the ISA's kernels: the portable rung
    /// always, a vector rung at or below the detected one.
    pub fn is_supported(self) -> bool {
        let host = detected_isa();
        match self {
            KernelIsa::Portable => true,
            KernelIsa::Avx2 => host.has_avx2(),
            KernelIsa::Avx512 | KernelIsa::Neon => self == host,
        }
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The best ISA the hardware supports: the rung production code runs.
pub fn detected_isa() -> KernelIsa {
    #[cfg(target_arch = "x86_64")]
    {
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        if avx2
            && std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("avx512f")
        {
            return KernelIsa::Avx512;
        }
        if avx2 {
            return KernelIsa::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return KernelIsa::Neon;
    }
    #[allow(unreachable_code)]
    KernelIsa::Portable
}

/// Every ISA this host can run, from the portable rung up: the set the
/// kernel parity tests loop over.
pub fn supported_isas() -> Vec<KernelIsa> {
    [
        KernelIsa::Portable,
        KernelIsa::Neon,
        KernelIsa::Avx2,
        KernelIsa::Avx512,
    ]
    .into_iter()
    .filter(|isa| isa.is_supported())
    .collect()
}

/// Human-readable feature summary for bench provenance (`avx2,fma` on an
/// AVX2 x86-64 host, `avx2,fma,avx512f` on an AVX-512 one, `neon` on
/// aarch64, empty otherwise).
pub fn detected_features() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut feats: Vec<&'static str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        feats.push("neon");
    }
    feats
}

// ---------------------------------------------------------------------
// INT8 GEMM + requantize (AVX2)
// ---------------------------------------------------------------------

/// Pack a `[out_dim × in_dim]` row-major i8 weight block into the
/// pair-interleaved layout the AVX2 kernel consumes. Only full blocks of
/// 8 output units are packed (`out_dim / 8 * 8`); tail outputs run on the
/// scalar finish inside the kernel. Returns an empty buffer when there is
/// nothing to vectorize.
pub(crate) fn pack_i8_pairs(w: &[i8], in_dim: usize, out_dim: usize) -> Vec<i8> {
    let kp = in_dim.div_ceil(2);
    let n_blocks = out_dim / 8;
    let mut packed = vec![0i8; n_blocks * kp * 16];
    for ob in 0..n_blocks {
        for j in 0..kp {
            let base = (ob * kp + j) * 16;
            for lane in 0..8 {
                let o = ob * 8 + lane;
                packed[base + 2 * lane] = w[o * in_dim + 2 * j];
                packed[base + 2 * lane + 1] = if 2 * j + 1 < in_dim {
                    w[o * in_dim + 2 * j + 1]
                } else {
                    0
                };
            }
        }
    }
    packed
}

/// Lanes per packed f64 weight block for the plan GEMM arm `isa` runs:
/// 8 (one zmm) on AVX-512, 4 (one ymm, or two NEON registers) otherwise.
pub(crate) fn f64_block_lanes(isa: KernelIsa) -> usize {
    if isa == KernelIsa::Avx512 {
        8
    } else {
        4
    }
}

/// Pack a `[out_dim × in_dim]` row-major f64 weight block into `lanes`-wide
/// column blocks: for each block of output units, the weights of input
/// `k` sit contiguously as `[w[o][k], w[o+1][k], …]`. Only the
/// `out_dim / 4 · 4` outputs every vector arm runs as an FMA chain are
/// packed; with 8 lanes a last half block is zero-padded. The
/// `out_dim % 4` tail outputs are not packed.
pub(crate) fn pack_f64_blocks(w: &[f64], in_dim: usize, out_dim: usize, lanes: usize) -> Vec<f64> {
    let n_vec = out_dim / 4 * 4;
    let n_blocks = n_vec.div_ceil(lanes);
    let mut packed = vec![0f64; n_blocks * in_dim * lanes];
    for o in 0..n_vec {
        let (ob, lane) = (o / lanes, o % lanes);
        for k in 0..in_dim {
            packed[(ob * in_dim + k) * lanes + lane] = w[o * in_dim + k];
        }
    }
    packed
}

/// Everything one quantized stage's SIMD kernel needs, borrowed from the
/// plan's flat buffers.
pub(crate) struct QuantStageKernel<'a> {
    /// Row-major weights (tail outputs).
    pub w: &'a [i8],
    /// Pair-interleaved packed weights (full 8-output blocks).
    pub packed: &'a [i8],
    /// Per-output bias with the input-zero-point correction folded in.
    pub bias: &'a [i32],
    /// Per-output requantization pairs (tail outputs / scalar finish).
    pub rq: &'a [crate::quant_plan::Requant],
    /// Per-output requant multipliers widened to i64 (SIMD loads).
    pub rq_mult: &'a [i64],
    /// Per-output requant shifts widened to i64 (SIMD loads).
    pub rq_shift: &'a [i64],
    pub in_dim: usize,
    pub out_dim: usize,
    /// Output zero point (ReLU clamps here).
    pub zy: i32,
    pub relu: bool,
}

/// Largest input-pair count served by the stack-allocated activation-pair
/// staging buffer (input widths ≤ 256; every real network is far below).
const MAX_STACK_PAIRS: usize = 128;

/// Build the broadcast-ready activation pairs of one row: little-endian
/// `[x[2j] as i16, x[2j+1] as i16]` packed into a u32 per input pair, the
/// exact operand layout `_mm256_madd_epi16` pairs against the packed
/// weights. An odd trailing input pairs with zero (its packed weight is
/// also zero, so the product term vanishes either way).
#[inline]
fn fill_pairs(row: &[i8], kp: usize, dst: &mut [u32]) {
    let full = row.len() / 2;
    for j in 0..full {
        let lo = row[2 * j] as i16 as u16 as u32;
        let hi = row[2 * j + 1] as i16 as u16 as u32;
        dst[j] = lo | (hi << 16);
    }
    if full < kp {
        dst[full] = row[2 * full] as i16 as u16 as u32;
    }
}

/// AVX2 INT8 stage kernel: `rows × in_dim` i8 activations through one
/// fused Linear + requantize + (ReLU) stage, bit-identical to the
/// portable `gemm_i8`.
///
/// # Safety
/// Caller must ensure AVX2 is available ([`KernelIsa::is_supported`])
/// and that the slice shapes satisfy the `QuantStageKernel` contract:
/// `x.len() == rows·in_dim`, `out.len() == rows·out_dim`, packed/bias/
/// requant buffers sized by [`pack_i8_pairs`] / `out_dim`. All interior
/// accesses below are bounded by those shapes: the block loop covers
/// `out_dim/8` full blocks (8-byte stores at `o ≤ out_dim−8`), the pair
/// loop covers `kp = ⌈in_dim/2⌉` packed 16-byte groups allocated by
/// `pack_i8_pairs`, and tail rows/outputs fall back to safe slice code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gemm_i8_avx2(x: &[i8], rows: usize, k: &QuantStageKernel, out: &mut [i8]) {
    use std::arch::x86_64::*;
    let in_dim = k.in_dim;
    let out_dim = k.out_dim;
    debug_assert_eq!(x.len(), rows * in_dim);
    debug_assert_eq!(out.len(), rows * out_dim);
    let kp = in_dim.div_ceil(2);
    let n_blocks = out_dim / 8;
    debug_assert_eq!(k.packed.len(), n_blocks * kp * 16);
    let tail_o = n_blocks * 8;

    let mut heap_pairs: Vec<u32>;
    let mut stack_pairs = [0u32; 4 * MAX_STACK_PAIRS];
    let pairs: &mut [u32] = if kp <= MAX_STACK_PAIRS {
        &mut stack_pairs[..4 * kp]
    } else {
        heap_pairs = vec![0u32; 4 * kp];
        &mut heap_pairs
    };

    let scalar_finish = |acc: i32, o: usize| -> i8 {
        let mut y = k.rq[o].apply(acc) + k.zy;
        if k.relu {
            y = y.max(k.zy);
        }
        y.clamp(-128, 127) as i8
    };

    let mut r = 0;
    // row quads: four rows share every packed-weight load
    while r + 4 <= rows {
        for q in 0..4 {
            fill_pairs(
                &x[(r + q) * in_dim..(r + q + 1) * in_dim],
                kp,
                &mut pairs[q * kp..(q + 1) * kp],
            );
        }
        for ob in 0..n_blocks {
            let o = ob * 8;
            let bias_v = _mm256_loadu_si256(k.bias.as_ptr().add(o) as *const __m256i);
            let mut acc = [bias_v; 4];
            let pw = k.packed.as_ptr().add(ob * kp * 16);
            for j in 0..kp {
                let wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(pw.add(j * 16) as *const __m128i));
                for (q, a) in acc.iter_mut().enumerate() {
                    let xv = _mm256_set1_epi32(*pairs.get_unchecked(q * kp + j) as i32);
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(wv, xv));
                }
            }
            for (q, &a) in acc.iter().enumerate() {
                requant_store_avx2(
                    a,
                    k.rq_mult.as_ptr().add(o),
                    k.rq_shift.as_ptr().add(o),
                    k.zy,
                    k.relu,
                    out.as_mut_ptr().add((r + q) * out_dim + o),
                );
            }
        }
        for oo in tail_o..out_dim {
            let w_row = &k.w[oo * in_dim..(oo + 1) * in_dim];
            for q in 0..4 {
                let x_row = &x[(r + q) * in_dim..(r + q + 1) * in_dim];
                let acc = dot_i8_scalar(x_row, w_row) + k.bias[oo];
                out[(r + q) * out_dim + oo] = scalar_finish(acc, oo);
            }
        }
        r += 4;
    }
    // remainder rows, one at a time through the same vector blocks
    while r < rows {
        let x_row = &x[r * in_dim..(r + 1) * in_dim];
        fill_pairs(x_row, kp, &mut pairs[..kp]);
        for ob in 0..n_blocks {
            let o = ob * 8;
            let mut acc = _mm256_loadu_si256(k.bias.as_ptr().add(o) as *const __m256i);
            let pw = k.packed.as_ptr().add(ob * kp * 16);
            for j in 0..kp {
                let wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(pw.add(j * 16) as *const __m128i));
                let xv = _mm256_set1_epi32(*pairs.get_unchecked(j) as i32);
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(wv, xv));
            }
            requant_store_avx2(
                acc,
                k.rq_mult.as_ptr().add(o),
                k.rq_shift.as_ptr().add(o),
                k.zy,
                k.relu,
                out.as_mut_ptr().add(r * out_dim + o),
            );
        }
        for oo in tail_o..out_dim {
            let acc = dot_i8_scalar(x_row, &k.w[oo * in_dim..(oo + 1) * in_dim]) + k.bias[oo];
            out[r * out_dim + oo] = scalar_finish(acc, oo);
        }
        r += 1;
    }
}

#[inline]
fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// Requantize 8 i32 accumulators against their per-output fixed-point
/// pairs, add the output zero point, apply ReLU/saturation, and store 8
/// i8 results. Exactly replays `Requant::apply` (`rne_shr`) per lane.
///
/// # Safety
/// AVX2 required; `mult`/`shift` must have 8 readable i64 each (shifts in
/// `1..=62`, guaranteed by the plan's `simd_ok` gate) and `dst` 8
/// writable bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requant_store_avx2(
    acc: std::arch::x86_64::__m256i,
    mult: *const i64,
    shift: *const i64,
    zy: i32,
    relu: bool,
    dst: *mut i8,
) {
    use std::arch::x86_64::*;
    let lo64 = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc));
    let hi64 = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc, 1));
    let r_lo = rne_mul_shr_i64x4(
        lo64,
        _mm256_loadu_si256(mult as *const __m256i),
        _mm256_loadu_si256(shift as *const __m256i),
    );
    let r_hi = rne_mul_shr_i64x4(
        hi64,
        _mm256_loadu_si256(mult.add(4) as *const __m256i),
        _mm256_loadu_si256(shift.add(4) as *const __m256i),
    );
    // take the low 32 bits of each i64 lane (the portable kernel casts
    // `rne_shr(..) as i32`, i.e. truncates) and merge into 8 i32
    let idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    let a = _mm256_permutevar8x32_epi32(r_lo, idx);
    let b = _mm256_permutevar8x32_epi32(r_hi, idx);
    let mut y = _mm256_blend_epi32(a, b, 0b1111_0000);
    let zy_v = _mm256_set1_epi32(zy);
    y = _mm256_add_epi32(y, zy_v);
    if relu {
        y = _mm256_max_epi32(y, zy_v);
    }
    y = _mm256_max_epi32(y, _mm256_set1_epi32(-128));
    y = _mm256_min_epi32(y, _mm256_set1_epi32(127));
    let lo128 = _mm256_castsi256_si128(y);
    let hi128 = _mm256_extracti128_si256(y, 1);
    let p16 = _mm_packs_epi32(lo128, hi128);
    let p8 = _mm_packs_epi16(p16, p16);
    _mm_storel_epi64(dst as *mut __m128i, p8);
}

/// Four-lane `rne_shr(acc · mult, shift)`: exact signed 32×32→64 product
/// (`_mm256_mul_epi32` reads the sign-extended low halves), then the
/// round-to-nearest-even shift. The arithmetic 64-bit shift AVX2 lacks is
/// emulated with the unsigned-bias identity
/// `v >>a s = ((v ⊕ 2⁶³) >>l s) − (2⁶³ >>l s)`.
///
/// # Safety
/// AVX2 required; every `shift` lane must be in `1..=62`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rne_mul_shr_i64x4(
    acc64: std::arch::x86_64::__m256i,
    mult: std::arch::x86_64::__m256i,
    shift: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let prod = _mm256_mul_epi32(acc64, mult);
    let one = _mm256_set1_epi64x(1);
    let mask = _mm256_sub_epi64(_mm256_sllv_epi64(one, shift), one);
    let half = _mm256_sllv_epi64(one, _mm256_sub_epi64(shift, one));
    let rem = _mm256_and_si256(prod, mask);
    let sign = _mm256_set1_epi64x(i64::MIN);
    let floor = _mm256_sub_epi64(
        _mm256_srlv_epi64(_mm256_xor_si256(prod, sign), shift),
        _mm256_srlv_epi64(sign, shift),
    );
    let gt = _mm256_cmpgt_epi64(rem, half);
    let eq = _mm256_cmpeq_epi64(rem, half);
    let odd = _mm256_cmpeq_epi64(_mm256_and_si256(floor, one), one);
    let inc = _mm256_or_si256(gt, _mm256_and_si256(eq, odd));
    // inc lanes are 0 or -1; subtracting adds the rounding unit
    _mm256_sub_epi64(floor, inc)
}

// ---------------------------------------------------------------------
// INT8 GEMM (NEON)
// ---------------------------------------------------------------------

/// NEON INT8 stage kernel: the MAC loop runs on `vmull_s8` +
/// `vpadalq_s16` over the same pair-interleaved packed weights as the
/// AVX2 path (pairwise add collapses each output's two products), while
/// requantization reuses the scalar `Requant::apply` per output —
/// bit-identical by construction.
///
/// # Safety
/// aarch64 NEON (baseline); same shape contract as [`gemm_i8_avx2`].
#[cfg(target_arch = "aarch64")]
pub(crate) unsafe fn gemm_i8_neon(x: &[i8], rows: usize, k: &QuantStageKernel, out: &mut [i8]) {
    use std::arch::aarch64::*;
    let in_dim = k.in_dim;
    let out_dim = k.out_dim;
    let kp = in_dim.div_ceil(2);
    let n_blocks = out_dim / 8;
    let tail_o = n_blocks * 8;
    let scalar_finish = |acc: i32, o: usize| -> i8 {
        let mut y = k.rq[o].apply(acc) + k.zy;
        if k.relu {
            y = y.max(k.zy);
        }
        y.clamp(-128, 127) as i8
    };
    for r in 0..rows {
        let x_row = &x[r * in_dim..(r + 1) * in_dim];
        for ob in 0..n_blocks {
            let o = ob * 8;
            // accumulators for outputs o..o+4 and o+4..o+8
            let mut acc_lo = vld1q_s32(k.bias.as_ptr().add(o));
            let mut acc_hi = vld1q_s32(k.bias.as_ptr().add(o + 4));
            let pw = k.packed.as_ptr().add(ob * kp * 16);
            for j in 0..kp {
                // broadcast the activation pair across 4 output slots
                let x0 = *x_row.get_unchecked(2 * j);
                let x1 = if 2 * j + 1 < in_dim {
                    *x_row.get_unchecked(2 * j + 1)
                } else {
                    0
                };
                let pair = u16::from_le_bytes([x0 as u8, x1 as u8]);
                let xv = vreinterpret_s8_u16(vdup_n_u16(pair));
                let w_lo = vld1_s8(pw.add(j * 16));
                let w_hi = vld1_s8(pw.add(j * 16 + 8));
                acc_lo = vpadalq_s16(acc_lo, vmull_s8(w_lo, xv));
                acc_hi = vpadalq_s16(acc_hi, vmull_s8(w_hi, xv));
            }
            let mut lanes = [0i32; 8];
            vst1q_s32(lanes.as_mut_ptr(), acc_lo);
            vst1q_s32(lanes.as_mut_ptr().add(4), acc_hi);
            for (lane, &acc) in lanes.iter().enumerate() {
                out[r * out_dim + o + lane] = scalar_finish(acc, o + lane);
            }
        }
        for oo in tail_o..out_dim {
            let acc = dot_i8_scalar(x_row, &k.w[oo * in_dim..(oo + 1) * in_dim]) + k.bias[oo];
            out[r * out_dim + oo] = scalar_finish(acc, oo);
        }
    }
}

// ---------------------------------------------------------------------
// f64 GEMM + bias + ReLU (AVX2+FMA / NEON)
// ---------------------------------------------------------------------

/// AVX2+FMA f64 stage kernel over 4-output column blocks packed by
/// [`pack_f64_blocks`]: each loaded weight quad serves four batch rows,
/// each broadcast activation serves four output units, and the
/// multiply-add contracts to FMA (allowed by the float plan's rounding
/// contract — parity tests use tolerances, not bit equality).
///
/// # Safety
/// AVX2+FMA required; `x.len() == rows·in_dim`, `out.len() ==
/// rows·out_dim`, `packed` sized by [`pack_f64_blocks`] at 4 lanes, `bias` has
/// `out_dim` entries. Block stores touch `o ≤ out_dim − 4` only; tails
/// run on safe slice code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_f64_avx2(
    x: &[f64],
    rows: usize,
    in_dim: usize,
    out_dim: usize,
    w: &[f64],
    bias: &[f64],
    packed: &[f64],
    relu: bool,
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n_blocks = out_dim / 4;
    let tail_o = n_blocks * 4;
    let zero = _mm256_setzero_pd();
    let mut r = 0;
    while r + 4 <= rows {
        let xp = [
            x.as_ptr().add(r * in_dim),
            x.as_ptr().add((r + 1) * in_dim),
            x.as_ptr().add((r + 2) * in_dim),
            x.as_ptr().add((r + 3) * in_dim),
        ];
        let mut ob = 0;
        // paired output blocks: 8 independent accumulator chains per k
        // step, enough to hide the ~4-cycle FMA latency that a single
        // 4-chain block leaves exposed; the 4 activation broadcasts are
        // shared across both weight vectors
        while ob + 2 <= n_blocks {
            let o = ob * 4;
            let bias0 = _mm256_loadu_pd(bias.as_ptr().add(o));
            let bias1 = _mm256_loadu_pd(bias.as_ptr().add(o + 4));
            let mut acc0 = [bias0; 4];
            let mut acc1 = [bias1; 4];
            let pw0 = packed.as_ptr().add(ob * in_dim * 4);
            let pw1 = packed.as_ptr().add((ob + 1) * in_dim * 4);
            for k in 0..in_dim {
                let wv0 = _mm256_loadu_pd(pw0.add(k * 4));
                let wv1 = _mm256_loadu_pd(pw1.add(k * 4));
                for q in 0..4 {
                    let xb = _mm256_set1_pd(*xp[q].add(k));
                    acc0[q] = _mm256_fmadd_pd(xb, wv0, acc0[q]);
                    acc1[q] = _mm256_fmadd_pd(xb, wv1, acc1[q]);
                }
            }
            for q in 0..4 {
                let y0 = if relu {
                    _mm256_max_pd(acc0[q], zero)
                } else {
                    acc0[q]
                };
                let y1 = if relu {
                    _mm256_max_pd(acc1[q], zero)
                } else {
                    acc1[q]
                };
                _mm256_storeu_pd(out.as_mut_ptr().add((r + q) * out_dim + o), y0);
                _mm256_storeu_pd(out.as_mut_ptr().add((r + q) * out_dim + o + 4), y1);
            }
            ob += 2;
        }
        if ob < n_blocks {
            let o = ob * 4;
            let bias_v = _mm256_loadu_pd(bias.as_ptr().add(o));
            let mut acc = [bias_v; 4];
            let pw = packed.as_ptr().add(ob * in_dim * 4);
            for k in 0..in_dim {
                let wv = _mm256_loadu_pd(pw.add(k * 4));
                for (q, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_fmadd_pd(_mm256_set1_pd(*xp[q].add(k)), wv, *a);
                }
            }
            for (q, &a) in acc.iter().enumerate() {
                let y = if relu { _mm256_max_pd(a, zero) } else { a };
                _mm256_storeu_pd(out.as_mut_ptr().add((r + q) * out_dim + o), y);
            }
        }
        for oo in tail_o..out_dim {
            let w_row = &w[oo * in_dim..(oo + 1) * in_dim];
            for q in 0..4 {
                let x_row = &x[(r + q) * in_dim..(r + q + 1) * in_dim];
                let y = dot_f64_scalar(x_row, w_row) + bias[oo];
                out[(r + q) * out_dim + oo] = if relu { y.max(0.0) } else { y };
            }
        }
        r += 4;
    }
    while r < rows {
        let x_row = &x[r * in_dim..(r + 1) * in_dim];
        for ob in 0..n_blocks {
            let o = ob * 4;
            let mut acc = _mm256_loadu_pd(bias.as_ptr().add(o));
            let pw = packed.as_ptr().add(ob * in_dim * 4);
            for (k, &xv) in x_row.iter().enumerate() {
                acc = _mm256_fmadd_pd(_mm256_set1_pd(xv), _mm256_loadu_pd(pw.add(k * 4)), acc);
            }
            let y = if relu { _mm256_max_pd(acc, zero) } else { acc };
            _mm256_storeu_pd(out.as_mut_ptr().add(r * out_dim + o), y);
        }
        for oo in tail_o..out_dim {
            let y = dot_f64_scalar(x_row, &w[oo * in_dim..(oo + 1) * in_dim]) + bias[oo];
            out[r * out_dim + oo] = if relu { y.max(0.0) } else { y };
        }
        r += 1;
    }
}

/// Rows per full AVX-512 f64 tile. Twelve rows × two 8-output blocks
/// hold 24 zmm accumulators, and one pass over a block pair's packed
/// weights serves all twelve rows (layer 2's 256 KB of packed weights
/// are re-read from L2 once per tile).
#[cfg(target_arch = "x86_64")]
const F64_ROW_TILE: usize = 12;

/// Widest `in_dim` whose transposed row tile is staged on the stack
/// (12 × 256 f64, 24 KB); wider stages stage on the heap.
#[cfg(target_arch = "x86_64")]
const MAX_STACK_IN: usize = 256;

/// AVX-512 f64 stage kernel over 8-output column blocks packed by
/// [`pack_f64_blocks`] at 8 lanes, bit-identical to [`gemm_f64_avx2`].
/// Every output keeps the AVX2 arm's arithmetic: the `out_dim / 4 · 4`
/// vector outputs start from the bias and take one FMA per input in `k`
/// order, and the `out_dim % 4` tail outputs are the same scalar dot
/// plus bias. Rows run in 12-row tiles, then 4-row tiles, then single
/// rows; each tile's rows are first transposed into a `k`-major staging
/// buffer so every activation broadcast comes from one pointer.
///
/// # Safety
/// AVX-512F required ([`KernelIsa::is_supported`]); `x.len() ==
/// rows·in_dim`, `out.len() == rows·out_dim`, `packed` sized by
/// [`pack_f64_blocks`] at 8 lanes, `bias` has `out_dim` entries. A half
/// block's bias load and output store are masked to its valid lanes;
/// tails run on safe slice code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_f64_avx512(
    x: &[f64],
    rows: usize,
    in_dim: usize,
    out_dim: usize,
    w: &[f64],
    bias: &[f64],
    packed: &[f64],
    relu: bool,
    out: &mut [f64],
) {
    use std::mem::MaybeUninit;
    debug_assert_eq!(x.len(), rows * in_dim);
    debug_assert_eq!(out.len(), rows * out_dim);
    let n_vec = out_dim / 4 * 4;
    debug_assert_eq!(packed.len(), n_vec.div_ceil(8) * in_dim * 8);
    let tile = F64Tile {
        in_dim,
        out_dim,
        n_vec,
        bias: bias.as_ptr(),
        packed: packed.as_ptr(),
        relu,
    };
    // written in full by `stage_rows` before every read
    let mut stack = [MaybeUninit::<f64>::uninit(); F64_ROW_TILE * MAX_STACK_IN];
    let mut heap: Vec<f64>;
    let staged: *mut f64 = if in_dim <= MAX_STACK_IN {
        stack.as_mut_ptr() as *mut f64
    } else {
        heap = vec![0.0; F64_ROW_TILE * in_dim];
        heap.as_mut_ptr()
    };
    // a tail-only stage (the output layer) has no vector outputs to stage for
    let mut r = if n_vec == 0 { rows } else { 0 };
    while r + F64_ROW_TILE <= rows {
        stage_rows::<F64_ROW_TILE>(x, r, in_dim, staged);
        tile.rows::<F64_ROW_TILE>(staged, out.as_mut_ptr().add(r * out_dim));
        r += F64_ROW_TILE;
    }
    while r + 4 <= rows {
        stage_rows::<4>(x, r, in_dim, staged);
        tile.rows::<4>(staged, out.as_mut_ptr().add(r * out_dim));
        r += 4;
    }
    while r < rows {
        // a single row is already k-major
        tile.rows::<1>(
            x.as_ptr().add(r * in_dim),
            out.as_mut_ptr().add(r * out_dim),
        );
        r += 1;
    }
    for r in 0..rows {
        let x_row = &x[r * in_dim..(r + 1) * in_dim];
        for oo in n_vec..out_dim {
            let y = dot_f64_scalar(x_row, &w[oo * in_dim..(oo + 1) * in_dim]) + bias[oo];
            out[r * out_dim + oo] = if relu { y.max(0.0) } else { y };
        }
    }
}

/// Transpose rows `r..r+R` of `x` into `dst` as `dst[k·R + q] =
/// x[r+q][k]`, the order [`F64Tile::rows`] broadcasts them in.
///
/// # Safety
/// `dst` must have `R·in_dim` writable f64 and `x` at least `(r+R)·in_dim`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn stage_rows<const R: usize>(x: &[f64], r: usize, in_dim: usize, dst: *mut f64) {
    for q in 0..R {
        let row = &x[(r + q) * in_dim..(r + q + 1) * in_dim];
        for (k, &v) in row.iter().enumerate() {
            *dst.add(k * R + q) = v;
        }
    }
}

/// One f64 stage's shape and parameters, as the AVX-512 tile loop sees
/// them.
#[cfg(target_arch = "x86_64")]
struct F64Tile {
    in_dim: usize,
    out_dim: usize,
    /// Outputs run as FMA chains (`out_dim / 4 · 4`).
    n_vec: usize,
    bias: *const f64,
    packed: *const f64,
    relu: bool,
}

#[cfg(target_arch = "x86_64")]
impl F64Tile {
    /// Lane mask of 8-output block `ob`: all 8 lanes, or the 4 of a last
    /// half block.
    #[inline(always)]
    fn mask(&self, ob: usize) -> u8 {
        let valid = (self.n_vec - ob * 8).min(8);
        (0xffu16 >> (8 - valid)) as u8
    }

    /// The vector outputs of `R` rows: block pairs (16 accumulator chains
    /// per row pair, each broadcast shared by both weight vectors), then
    /// a last odd block.
    ///
    /// # Safety
    /// AVX-512F required; `xt` holds the `R` rows `k`-major
    /// (`xt[k·R + q]`), `out` points at the first row's outputs with
    /// `R` rows of stride `out_dim` behind it.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn rows<const R: usize>(&self, xt: *const f64, out: *mut f64) {
        use std::arch::x86_64::*;
        let in_dim = self.in_dim;
        let n_blocks = self.n_vec.div_ceil(8);
        let zero = _mm512_setzero_pd();
        let mut ob = 0;
        while ob + 2 <= n_blocks {
            let o = ob * 8;
            let (m0, m1) = (self.mask(ob), self.mask(ob + 1));
            let mut acc0 = [_mm512_maskz_loadu_pd(m0, self.bias.add(o)); R];
            let mut acc1 = [_mm512_maskz_loadu_pd(m1, self.bias.add(o + 8)); R];
            let pw0 = self.packed.add(ob * in_dim * 8);
            let pw1 = pw0.add(in_dim * 8);
            for k in 0..in_dim {
                let wv0 = _mm512_loadu_pd(pw0.add(k * 8));
                let wv1 = _mm512_loadu_pd(pw1.add(k * 8));
                for q in 0..R {
                    let xb = _mm512_set1_pd(*xt.add(k * R + q));
                    acc0[q] = _mm512_fmadd_pd(xb, wv0, acc0[q]);
                    acc1[q] = _mm512_fmadd_pd(xb, wv1, acc1[q]);
                }
            }
            for q in 0..R {
                let (y0, y1) = if self.relu {
                    (_mm512_max_pd(acc0[q], zero), _mm512_max_pd(acc1[q], zero))
                } else {
                    (acc0[q], acc1[q])
                };
                let dst = out.add(q * self.out_dim + o);
                _mm512_mask_storeu_pd(dst, m0, y0);
                _mm512_mask_storeu_pd(dst.add(8), m1, y1);
            }
            ob += 2;
        }
        if ob < n_blocks {
            let o = ob * 8;
            let m = self.mask(ob);
            let mut acc = [_mm512_maskz_loadu_pd(m, self.bias.add(o)); R];
            let pw = self.packed.add(ob * in_dim * 8);
            for k in 0..in_dim {
                let wv = _mm512_loadu_pd(pw.add(k * 8));
                for (q, a) in acc.iter_mut().enumerate() {
                    *a = _mm512_fmadd_pd(_mm512_set1_pd(*xt.add(k * R + q)), wv, *a);
                }
            }
            for (q, &a) in acc.iter().enumerate() {
                let y = if self.relu { _mm512_max_pd(a, zero) } else { a };
                _mm512_mask_storeu_pd(out.add(q * self.out_dim + o), m, y);
            }
        }
    }
}

/// NEON f64 stage kernel: two `float64x2_t` accumulators cover each
/// 4-output block with `vfmaq_f64`; tails fall back to scalar.
///
/// # Safety
/// aarch64 NEON; same shape contract as [`gemm_f64_avx2`].
#[cfg(target_arch = "aarch64")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_f64_neon(
    x: &[f64],
    rows: usize,
    in_dim: usize,
    out_dim: usize,
    w: &[f64],
    bias: &[f64],
    packed: &[f64],
    relu: bool,
    out: &mut [f64],
) {
    use std::arch::aarch64::*;
    let n_blocks = out_dim / 4;
    let tail_o = n_blocks * 4;
    let zero = vdupq_n_f64(0.0);
    for r in 0..rows {
        let x_row = &x[r * in_dim..(r + 1) * in_dim];
        for ob in 0..n_blocks {
            let o = ob * 4;
            let mut acc0 = vld1q_f64(bias.as_ptr().add(o));
            let mut acc1 = vld1q_f64(bias.as_ptr().add(o + 2));
            let pw = packed.as_ptr().add(ob * in_dim * 4);
            for (k, &xv) in x_row.iter().enumerate() {
                let xb = vdupq_n_f64(xv);
                acc0 = vfmaq_f64(acc0, xb, vld1q_f64(pw.add(k * 4)));
                acc1 = vfmaq_f64(acc1, xb, vld1q_f64(pw.add(k * 4 + 2)));
            }
            if relu {
                acc0 = vmaxq_f64(acc0, zero);
                acc1 = vmaxq_f64(acc1, zero);
            }
            vst1q_f64(out.as_mut_ptr().add(r * out_dim + o), acc0);
            vst1q_f64(out.as_mut_ptr().add(r * out_dim + o + 2), acc1);
        }
        for oo in tail_o..out_dim {
            let y = dot_f64_scalar(x_row, &w[oo * in_dim..(oo + 1) * in_dim]) + bias[oo];
            out[r * out_dim + oo] = if relu { y.max(0.0) } else { y };
        }
    }
}

#[inline]
fn dot_f64_scalar(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

// ---------------------------------------------------------------------
// The cone log-likelihood kernels: the robust cone log-likelihood hot
// loop, in two shapes over one piece of arithmetic.
//
// * `sweep_cone_logls` scores every direction of a plane exactly. The
//   posterior sky map (`adapt_localize::SkyPosterior`, on either the
//   raster or the HEALPix pixelization) needs every pixel's value.
// * `argmax_cone_logl` returns only the best direction of a plane, the
//   question the localizer's approximation stage
//   (`adapt_localize::approximate`) asks of its cone-sampled candidates.
//   It screens the plane with a bounded-error polynomial `acos`, then
//   re-scores only the candidates the error bound cannot rule out with
//   `ConeGeom::point_logl`, so the winner and its value are exactly what
//   the sweep's argmax would give.
//
// Each user precomputes one [`ConeGeom`] per Compton ring; the exact
// scores of both kernels come from `ConeGeom::point_logl`'s arithmetic
// summed in ring order, so the pixelizations (and the coarse-to-fine
// refinement passes built on them) and the approximation stage agree bit
// for bit on every dispatch path.

use adapt_math::vec3::UnitVec3;
use rayon::prelude::*;

/// Per-ring quantities reused for every candidate pixel: the cone
/// geometry plus the cosine-space gap past which the robust likelihood
/// is guaranteed to sit on its floor (`|cos a − cos b| ≤ |a − b|`),
/// letting the sweep skip the `acos` entirely for floored rings.
#[derive(Debug, Clone)]
pub struct ConeGeom {
    /// Cone axis (the ring's scatter direction).
    pub axis: UnitVec3,
    /// Cone cosine, clamped to `[-1, 1]`.
    pub eta: f64,
    /// Cone opening angle `acos η` (radians).
    pub cone_theta: f64,
    /// Angular sigma of the ring (radians).
    pub sigma: f64,
    /// `floor_z · σ`: if `|axis·c − η| ≥ skip_gap (+ ρ)`, the ring
    /// floors at `c` (over the whole cell of radius ρ).
    pub skip_gap: f64,
}

impl ConeGeom {
    /// Exact robust log-likelihood contribution at a point given by its
    /// components, skipping the `acos` when the ring provably floors
    /// out. Identical to the scalar robust likelihood bit for bit: same
    /// dot-product order, same clamp, same floor constant, and the
    /// skip-gap early-out only fires where the `max` would have
    /// returned the floor anyway (`|cos a − cos b| ≤ |a − b|` puts the
    /// residual past `floor_z`).
    #[inline]
    pub fn point_logl(&self, x: f64, y: f64, z: f64, floor_const: f64) -> f64 {
        let a = self.axis.as_vec();
        let dot = (a.x * x + a.y * y + a.z * z).clamp(-1.0, 1.0);
        if (dot - self.eta).abs() >= self.skip_gap {
            return floor_const;
        }
        let zz = (dot.acos() - self.cone_theta) / self.sigma;
        (-0.5 * zz * zz).max(floor_const)
    }

    /// Exact contribution at a cell center plus an upper bound valid
    /// over the whole cell of angular radius `rho` (one shared `acos`).
    #[inline]
    pub fn cell_logl_and_bound(&self, c: UnitVec3, rho: f64, floor_const: f64) -> (f64, f64) {
        let dot = self.axis.cos_angle_to(c);
        if (dot - self.eta).abs() >= self.skip_gap + rho {
            return (floor_const, floor_const);
        }
        let d_theta = (dot.clamp(-1.0, 1.0).acos() - self.cone_theta).abs();
        let z = d_theta / self.sigma;
        let z_min = (d_theta - rho).max(0.0) / self.sigma;
        (
            (-0.5 * z * z).max(floor_const),
            (-0.5 * z_min * z_min).max(floor_const),
        )
    }
}

/// Pixel rows per parallel sweep chunk: multiples of the 4-wide vector
/// groups, large enough that rayon's spawn cost amortizes.
const CONE_SWEEP_CHUNK: usize = 1024;

/// Accumulate every cone's robust log-likelihood over a pixel plane.
/// Pixels are transposed into structure-of-arrays component planes so
/// the inner loop is a contiguous batch of dot products per ring; the
/// ring loop runs *outside* the pixel loop, which preserves each
/// pixel's ring-order summation and keeps the result bit-identical to
/// the per-pixel scalar sweep on every arm; `isa` picks the arm.
///
/// # Panics
/// If this host cannot run `isa` ([`KernelIsa::is_supported`]).
pub fn sweep_cone_logls(
    geoms: &[ConeGeom],
    centers: &[UnitVec3],
    floor_const: f64,
    isa: KernelIsa,
) -> Vec<f64> {
    assert!(isa.is_supported(), "this host cannot run {isa} kernels");
    let n = centers.len();
    let mut px = Vec::with_capacity(n);
    let mut py = Vec::with_capacity(n);
    let mut pz = Vec::with_capacity(n);
    for c in centers {
        let v = c.as_vec();
        px.push(v.x);
        py.push(v.y);
        pz.push(v.z);
    }
    let mut logls = vec![0.0f64; n];
    let px_base = px.as_ptr() as usize;
    logls
        .par_chunks_mut(CONE_SWEEP_CHUNK)
        .zip(px.par_chunks(CONE_SWEEP_CHUNK))
        .for_each(|(out, pxc)| {
            // recover this chunk's offset from its position in the plane
            let s = (pxc.as_ptr() as usize - px_base) / std::mem::size_of::<f64>();
            let e = s + out.len();
            sweep_cone_chunk(geoms, pxc, &py[s..e], &pz[s..e], floor_const, isa, out);
        });
    logls
}

/// One chunk of the sweep, dispatched by ISA. The portable path is the
/// specification; the AVX2 path, which AVX-512 hosts also run, is
/// bit-identical to it (dot products in `Vec3::dot`'s association order
/// with no FMA, scalar `acos` fallback on the exact vector-computed dot).
/// NEON currently inherits the portable path — the sweep is memory-light
/// and the scalar skip-gap test already floors most pixels.
#[allow(unused_variables)]
fn sweep_cone_chunk(
    geoms: &[ConeGeom],
    px: &[f64],
    py: &[f64],
    pz: &[f64],
    floor_const: f64,
    isa: KernelIsa,
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if isa.has_avx2() {
        // SAFETY: `sweep_cone_logls` asserted the host runs `isa`;
        // px/py/pz/out all have the chunk's length by construction there.
        unsafe { sweep_cone_chunk_avx2(geoms, px, py, pz, floor_const, out) };
        return;
    }
    for g in geoms {
        for (i, o) in out.iter_mut().enumerate() {
            *o += g.point_logl(px[i], py[i], pz[i], floor_const);
        }
    }
}

/// AVX2 sweep: per ring, 4-pixel dot products, clamp, and the
/// cosine-space skip-gap test as a vector compare. Fully floored groups
/// (the common case away from the cones — a single `movemask` test) add
/// the floor constant without touching `acos`; mixed groups finish per
/// lane on the exact vector-computed dot, so every arithmetic step
/// matches [`ConeGeom::point_logl`] bit for bit.
///
/// # Safety
/// AVX2 required (runtime-dispatched). `px`, `py`, `pz`, `out` must
/// share one length; vector loads stop at `n/4*4` and the tail runs on
/// safe scalar code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_cone_chunk_avx2(
    geoms: &[ConeGeom],
    px: &[f64],
    py: &[f64],
    pz: &[f64],
    floor_const: f64,
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = out.len();
    debug_assert!(px.len() == n && py.len() == n && pz.len() == n);
    let n4 = n / 4 * 4;
    let neg1 = _mm256_set1_pd(-1.0);
    let pos1 = _mm256_set1_pd(1.0);
    let signbit = _mm256_set1_pd(-0.0);
    let floorv = _mm256_set1_pd(floor_const);
    for g in geoms {
        let a = g.axis.as_vec();
        let axv = _mm256_set1_pd(a.x);
        let ayv = _mm256_set1_pd(a.y);
        let azv = _mm256_set1_pd(a.z);
        let etav = _mm256_set1_pd(g.eta);
        let gapv = _mm256_set1_pd(g.skip_gap);
        let mut i = 0;
        while i < n4 {
            // Vec3::dot association order: (x·x + y·y) + z·z, no FMA
            let d = _mm256_add_pd(
                _mm256_add_pd(
                    _mm256_mul_pd(axv, _mm256_loadu_pd(px.as_ptr().add(i))),
                    _mm256_mul_pd(ayv, _mm256_loadu_pd(py.as_ptr().add(i))),
                ),
                _mm256_mul_pd(azv, _mm256_loadu_pd(pz.as_ptr().add(i))),
            );
            let d = _mm256_min_pd(_mm256_max_pd(d, neg1), pos1);
            let abs_diff = _mm256_andnot_pd(signbit, _mm256_sub_pd(d, etav));
            let floored = _mm256_cmp_pd::<_CMP_GE_OQ>(abs_diff, gapv);
            let mask = _mm256_movemask_pd(floored);
            if mask == 0b1111 {
                let cur = _mm256_loadu_pd(out.as_ptr().add(i));
                _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_add_pd(cur, floorv));
            } else {
                let mut dots = [0.0f64; 4];
                _mm256_storeu_pd(dots.as_mut_ptr(), d);
                for (lane, &dv) in dots.iter().enumerate() {
                    let add = if (mask >> lane) & 1 == 1 {
                        floor_const
                    } else {
                        let z = (dv.acos() - g.cone_theta) / g.sigma;
                        (-0.5 * z * z).max(floor_const)
                    };
                    *out.get_unchecked_mut(i + lane) += add;
                }
            }
            i += 4;
        }
        for i in n4..n {
            out[i] += g.point_logl(px[i], py[i], pz[i], floor_const);
        }
    }
}

/// Abramowitz & Stegun 4.4.46: `acos x = √(1−x)·P₇(x) + e(x)` on
/// `[0, 1]`, quoted there as `|e| ≤ 2·10⁻⁸`. Coefficients in ascending
/// order.
const ACOS_P7: [f64; 8] = [
    1.570_796_305_0,
    -0.214_598_801_6,
    0.088_978_987_4,
    -0.050_174_304_6,
    0.030_891_881_0,
    -0.017_088_125_6,
    0.006_670_090_1,
    -0.001_262_491_1,
];

/// Angle-space error bound (radians) the screen's margin assumes per
/// ring. [`acos_screen`]'s measured maximum error against `f64::acos`,
/// f64 evaluation rounding included, is 2.18·10⁻⁸ over `[−1, 1]`, at
/// `x = 0` where it is `ACOS_P7[0] − π/2`. The other per-ring
/// differences between a screen term and [`ConeGeom::point_logl`]
/// (multiplying by a rounded `1/σ` instead of dividing, `acos`
/// rounding, the exact path's cosine-space skip test) are a few ulps.
/// This constant leaves at least 2× headroom over their sum, and the
/// polynomial bound test pins the measured error at no more than half
/// of it.
const SCREEN_ACOS_EPS: f64 = 5e-8;

/// The screen's polynomial `acos`, reflected as `π − acos|x|` for
/// `x < 0`. Horner steps are separate multiplies and adds (no FMA), so
/// the AVX2 arm reproduces it lane for lane.
#[inline]
fn acos_screen(x: f64) -> f64 {
    let ax = x.abs();
    let mut p = ACOS_P7[7];
    for &c in ACOS_P7[..7].iter().rev() {
        p = p * ax + c;
    }
    let r = (1.0 - ax).sqrt() * p;
    if x < 0.0 {
        std::f64::consts::PI - r
    } else {
        r
    }
}

/// The screen's view of a ring set: structure-of-arrays planes of the
/// cone axes, opening angles and inverse angular sigmas, swept in the
/// screen's inner loop.
struct ScreenRings {
    ax: Vec<f64>,
    ay: Vec<f64>,
    az: Vec<f64>,
    theta: Vec<f64>,
    inv_sigma: Vec<f64>,
}

impl ScreenRings {
    fn new(geoms: &[ConeGeom]) -> Self {
        let mut r = ScreenRings {
            ax: Vec::with_capacity(geoms.len()),
            ay: Vec::with_capacity(geoms.len()),
            az: Vec::with_capacity(geoms.len()),
            theta: Vec::with_capacity(geoms.len()),
            inv_sigma: Vec::with_capacity(geoms.len()),
        };
        for g in geoms {
            let a = g.axis.as_vec();
            r.ax.push(a.x);
            r.ay.push(a.y);
            r.az.push(a.z);
            r.theta.push(g.cone_theta);
            r.inv_sigma.push(1.0 / g.sigma);
        }
        r
    }
}

/// One candidate's screen score: [`ConeGeom::point_logl`]'s arithmetic
/// with [`acos_screen`] in place of `acos` and no skip test, summed in
/// ring order from `0.0`. The portable arm and the AVX2 tail.
#[inline]
fn screen_point(rings: &ScreenRings, x: f64, y: f64, z: f64, floor_const: f64) -> f64 {
    // equal-length slices let the compiler drop the bounds checks
    let n = rings.ax.len();
    let (ay, az) = (&rings.ay[..n], &rings.az[..n]);
    let (theta, inv_sigma) = (&rings.theta[..n], &rings.inv_sigma[..n]);
    let mut acc = 0.0;
    for (r, &ax) in rings.ax.iter().enumerate() {
        let dot = (ax * x + ay[r] * y + az[r] * z).clamp(-1.0, 1.0);
        let zz = (acos_screen(dot) - theta[r]) * inv_sigma[r];
        acc += (-0.5 * zz * zz).max(floor_const);
    }
    acc
}

/// Screen a plane of candidates, dispatched by ISA. Every arm runs the
/// same operations in the same order.
#[allow(unused_variables)]
fn screen_plane(
    rings: &ScreenRings,
    px: &[f64],
    py: &[f64],
    pz: &[f64],
    floor_const: f64,
    isa: KernelIsa,
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if isa == KernelIsa::Avx512 {
        // SAFETY: AVX-512F verified by runtime dispatch; px/py/pz/out all
        // have the plane's length by construction in `screen_cone_logls`.
        unsafe { screen_plane_avx512(rings, px, py, pz, floor_const, out) };
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if isa.has_avx2() {
        // SAFETY: AVX2 verified by runtime dispatch; shapes as above.
        unsafe { screen_plane_avx2(rings, px, py, pz, floor_const, out) };
        return;
    }
    for (i, o) in out.iter_mut().enumerate() {
        *o = screen_point(rings, px[i], py[i], pz[i], floor_const);
    }
}

/// AVX2 screen: candidates in blocks of 8 (two vectors) in the outer
/// loop, the ring planes in the inner loop, so the block's components
/// and both accumulators stay in registers. The tail runs on
/// [`screen_point`].
///
/// # Safety
/// AVX2 required (runtime-dispatched). `px`, `py`, `pz`, `out` must
/// share one length; vector loads stop at `n/8*8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn screen_plane_avx2(
    rings: &ScreenRings,
    px: &[f64],
    py: &[f64],
    pz: &[f64],
    floor_const: f64,
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = out.len();
    debug_assert!(px.len() == n && py.len() == n && pz.len() == n);
    let n8 = n / 8 * 8;
    let nr = rings.ax.len();
    let zero = _mm256_setzero_pd();
    let mut i = 0;
    while i < n8 {
        let x0 = _mm256_loadu_pd(px.as_ptr().add(i));
        let y0 = _mm256_loadu_pd(py.as_ptr().add(i));
        let z0 = _mm256_loadu_pd(pz.as_ptr().add(i));
        let x1 = _mm256_loadu_pd(px.as_ptr().add(i + 4));
        let y1 = _mm256_loadu_pd(py.as_ptr().add(i + 4));
        let z1 = _mm256_loadu_pd(pz.as_ptr().add(i + 4));
        let mut acc0 = zero;
        let mut acc1 = zero;
        // r < nr = rings.ax.len(), as `screen_term_avx2` requires
        for r in 0..nr {
            acc0 = _mm256_add_pd(acc0, screen_term_avx2(rings, r, x0, y0, z0, floor_const));
            acc1 = _mm256_add_pd(acc1, screen_term_avx2(rings, r, x1, y1, z1, floor_const));
        }
        _mm256_storeu_pd(out.as_mut_ptr().add(i), acc0);
        _mm256_storeu_pd(out.as_mut_ptr().add(i + 4), acc1);
        i += 8;
    }
    for i in n8..n {
        out[i] = screen_point(rings, px[i], py[i], pz[i], floor_const);
    }
}

/// One ring's screen term for four candidates, in [`screen_point`]'s
/// operation order.
///
/// # Safety
/// AVX2 required; `r < rings.ax.len()`. `ScreenRings::new` fills all
/// five planes together, so that bound covers every plane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn screen_term_avx2(
    rings: &ScreenRings,
    r: usize,
    x: std::arch::x86_64::__m256d,
    y: std::arch::x86_64::__m256d,
    z: std::arch::x86_64::__m256d,
    floor_const: f64,
) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::*;
    let d = _mm256_add_pd(
        _mm256_add_pd(
            _mm256_mul_pd(_mm256_broadcast_sd(rings.ax.get_unchecked(r)), x),
            _mm256_mul_pd(_mm256_broadcast_sd(rings.ay.get_unchecked(r)), y),
        ),
        _mm256_mul_pd(_mm256_broadcast_sd(rings.az.get_unchecked(r)), z),
    );
    let d = _mm256_min_pd(_mm256_max_pd(d, _mm256_set1_pd(-1.0)), _mm256_set1_pd(1.0));
    let ad = _mm256_andnot_pd(_mm256_set1_pd(-0.0), d);
    let mut p = _mm256_set1_pd(ACOS_P7[7]);
    for &c in ACOS_P7[..7].iter().rev() {
        p = _mm256_add_pd(_mm256_mul_pd(p, ad), _mm256_set1_pd(c));
    }
    let a = _mm256_mul_pd(_mm256_sqrt_pd(_mm256_sub_pd(_mm256_set1_pd(1.0), ad)), p);
    let neg = _mm256_cmp_pd::<_CMP_LT_OQ>(d, _mm256_setzero_pd());
    let a = _mm256_blendv_pd(
        a,
        _mm256_sub_pd(_mm256_set1_pd(std::f64::consts::PI), a),
        neg,
    );
    let zz = _mm256_mul_pd(
        _mm256_sub_pd(a, _mm256_broadcast_sd(rings.theta.get_unchecked(r))),
        _mm256_broadcast_sd(rings.inv_sigma.get_unchecked(r)),
    );
    _mm256_max_pd(
        _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(-0.5), zz), zz),
        _mm256_set1_pd(floor_const),
    )
}

/// AVX-512 screen: candidates in blocks of 16 (two zmm vectors) in the
/// outer loop and the ring planes in the inner loop, as in
/// [`screen_plane_avx2`]; a tail of fewer than 16 runs in masked 8-lane
/// blocks. Every lane runs [`screen_point`]'s operations in its order
/// (separate multiplies and adds, no FMA), so the scores are bit-equal
/// to the portable and AVX2 arms.
///
/// # Safety
/// AVX-512F required (runtime-dispatched). `px`, `py`, `pz`, `out` must
/// share one length; full loads stop at `n/16*16` and the tail's loads
/// and stores are masked to its valid lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn screen_plane_avx512(
    rings: &ScreenRings,
    px: &[f64],
    py: &[f64],
    pz: &[f64],
    floor_const: f64,
    out: &mut [f64],
) {
    use std::arch::x86_64::*;
    let n = out.len();
    debug_assert!(px.len() == n && py.len() == n && pz.len() == n);
    let nr = rings.ax.len();
    let zero = _mm512_setzero_pd();
    let mut i = 0;
    while i + 16 <= n {
        let x0 = _mm512_loadu_pd(px.as_ptr().add(i));
        let y0 = _mm512_loadu_pd(py.as_ptr().add(i));
        let z0 = _mm512_loadu_pd(pz.as_ptr().add(i));
        let x1 = _mm512_loadu_pd(px.as_ptr().add(i + 8));
        let y1 = _mm512_loadu_pd(py.as_ptr().add(i + 8));
        let z1 = _mm512_loadu_pd(pz.as_ptr().add(i + 8));
        let mut acc0 = zero;
        let mut acc1 = zero;
        // r < nr = rings.ax.len(), as `screen_term_avx512` requires
        for r in 0..nr {
            acc0 = _mm512_add_pd(acc0, screen_term_avx512(rings, r, x0, y0, z0, floor_const));
            acc1 = _mm512_add_pd(acc1, screen_term_avx512(rings, r, x1, y1, z1, floor_const));
        }
        _mm512_storeu_pd(out.as_mut_ptr().add(i), acc0);
        _mm512_storeu_pd(out.as_mut_ptr().add(i + 8), acc1);
        i += 16;
    }
    while i < n {
        // masked-off lanes score the origin, which is finite and unstored
        let m = (0xffu16 >> (8 - (n - i).min(8))) as u8;
        let x = _mm512_maskz_loadu_pd(m, px.as_ptr().add(i));
        let y = _mm512_maskz_loadu_pd(m, py.as_ptr().add(i));
        let z = _mm512_maskz_loadu_pd(m, pz.as_ptr().add(i));
        let mut acc = zero;
        for r in 0..nr {
            acc = _mm512_add_pd(acc, screen_term_avx512(rings, r, x, y, z, floor_const));
        }
        _mm512_mask_storeu_pd(out.as_mut_ptr().add(i), m, acc);
        i += 8;
    }
}

/// One ring's screen term for eight candidates, in [`screen_point`]'s
/// operation order ([`screen_term_avx2`] on zmm registers).
///
/// # Safety
/// AVX-512F required; `r < rings.ax.len()` (see [`screen_term_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn screen_term_avx512(
    rings: &ScreenRings,
    r: usize,
    x: std::arch::x86_64::__m512d,
    y: std::arch::x86_64::__m512d,
    z: std::arch::x86_64::__m512d,
    floor_const: f64,
) -> std::arch::x86_64::__m512d {
    use std::arch::x86_64::*;
    let d = _mm512_add_pd(
        _mm512_add_pd(
            _mm512_mul_pd(_mm512_set1_pd(*rings.ax.get_unchecked(r)), x),
            _mm512_mul_pd(_mm512_set1_pd(*rings.ay.get_unchecked(r)), y),
        ),
        _mm512_mul_pd(_mm512_set1_pd(*rings.az.get_unchecked(r)), z),
    );
    let d = _mm512_min_pd(_mm512_max_pd(d, _mm512_set1_pd(-1.0)), _mm512_set1_pd(1.0));
    // clears the sign bit, as the AVX2 arm's `andnot(-0.0, d)` does
    let ad = _mm512_abs_pd(d);
    let mut p = _mm512_set1_pd(ACOS_P7[7]);
    for &c in ACOS_P7[..7].iter().rev() {
        p = _mm512_add_pd(_mm512_mul_pd(p, ad), _mm512_set1_pd(c));
    }
    let a = _mm512_mul_pd(_mm512_sqrt_pd(_mm512_sub_pd(_mm512_set1_pd(1.0), ad)), p);
    let neg = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(d, _mm512_setzero_pd());
    let a = _mm512_mask_blend_pd(
        neg,
        a,
        _mm512_sub_pd(_mm512_set1_pd(std::f64::consts::PI), a),
    );
    let zz = _mm512_mul_pd(
        _mm512_sub_pd(a, _mm512_set1_pd(*rings.theta.get_unchecked(r))),
        _mm512_set1_pd(*rings.inv_sigma.get_unchecked(r)),
    );
    _mm512_max_pd(
        _mm512_mul_pd(_mm512_mul_pd(_mm512_set1_pd(-0.5), zz), zz),
        _mm512_set1_pd(floor_const),
    )
}

/// Screen scores of every center, on one thread: the approximation
/// stage's plane is about a thousand candidates, well inside one
/// [`CONE_SWEEP_CHUNK`].
fn screen_cone_logls(
    rings: &ScreenRings,
    centers: &[UnitVec3],
    floor_const: f64,
    isa: KernelIsa,
) -> Vec<f64> {
    let (mut px, mut py, mut pz) = (
        Vec::with_capacity(centers.len()),
        Vec::with_capacity(centers.len()),
        Vec::with_capacity(centers.len()),
    );
    for c in centers {
        let v = c.as_vec();
        px.push(v.x);
        py.push(v.y);
        pz.push(v.z);
    }
    let mut scores = vec![0.0f64; centers.len()];
    screen_plane(rings, &px, &py, &pz, floor_const, isa, &mut scores);
    scores
}

/// The margin `E` that bounds `|screen score − exact score|` for every
/// candidate: with `δᵢ = ε/σᵢ` ([`SCREEN_ACOS_EPS`]) and
/// `F = floor_const = −½·floor_z²`,
/// `E = Σᵢ δᵢ(floor_z + δᵢ) + 2·γₙ·n·|F|`.
///
/// The first sum bounds the per-ring terms: a ring's residual moves by
/// at most `δᵢ` in sigma units, and the floored Gaussian
/// `max(−½z², F)` changes by at most `δ(floor_z + δ)` when `z` moves by
/// `δ` (it is flat past `floor_z`). The second bounds the rounding of
/// the two ring-order sums: each adds `n` terms in `[F, 0]`, so each
/// errs by at most `γₙ·n·|F|`, `γₙ = n·u/(1 − n·u)`.
fn screen_margin(geoms: &[ConeGeom], floor_const: f64) -> f64 {
    let floor_z = (-2.0 * floor_const).max(0.0).sqrt();
    let n = geoms.len() as f64;
    let nu = n * f64::EPSILON / 2.0;
    let gamma_n = nu / (1.0 - nu);
    let rings: f64 = geoms
        .iter()
        .map(|g| {
            let delta = SCREEN_ACOS_EPS / g.sigma;
            delta * (floor_z + delta)
        })
        .sum();
    rings + 2.0 * gamma_n * n * floor_const.abs()
}

/// The first strict maximum of the joint robust log-likelihood over
/// `centers`, with its exact value: the index and the bits of
/// `sweep_cone_logls(geoms, centers, floor_const, isa)`'s first strict
/// maximum, or `None` for an empty plane. `isa` picks the screen's arm
/// (the localizer passes [`detected_isa`]); every arm gives the same bits.
///
/// 1. *Screen.* Every candidate gets a score `S` from a polynomial
///    `acos` with a proven error bound (AVX-512 blocks of 16, AVX2
///    blocks of 8, or the portable arm).
/// 2. *Margin.* `screen_margin` bounds `|S_k − L_k| ≤ E` for every
///    candidate `k`, where `L_k` is the exact score the sweep returns.
/// 3. *Verify.* Candidates with `S ≥ max S − 2E` are re-scored, in
///    plane order, with [`ConeGeom::point_logl`] summed in ring order
///    from `0.0` — the sweep's own arithmetic on both dispatch paths —
///    and the first strict maximum of those exact scores is returned.
///
/// *The winner always survives, with its bits.* Let `w` be the sweep's
/// first strict maximum. For every candidate `k`,
/// `S_w ≥ L_w − E ≥ L_k − E ≥ S_k − 2E`, so `S_w ≥ max S − 2E` and `w`
/// is re-scored, with exactly the sweep's value. Every survivor before
/// `w` has `L < L_w` (`w` is the first maximum) and every one after it
/// has `L ≤ L_w`, so the strict-`>` scan over survivors in plane order
/// lands on `w`; among tied maxima the earliest index wins, as in the
/// sweep. The 2× headroom of the error constant also absorbs the
/// rounding of `E` and of the cut itself. When every candidate survives
/// the cost is that of the exact sweep plus the screen.
///
/// # Panics
/// If this host cannot run `isa` ([`KernelIsa::is_supported`]).
pub fn argmax_cone_logl(
    geoms: &[ConeGeom],
    centers: &[UnitVec3],
    floor_const: f64,
    isa: KernelIsa,
) -> Option<(usize, f64)> {
    assert!(isa.is_supported(), "this host cannot run {isa} kernels");
    let scores = screen_cone_logls(&ScreenRings::new(geoms), centers, floor_const, isa);
    let max_score = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let cut = max_score - 2.0 * screen_margin(geoms, floor_const);
    let mut best: Option<(usize, f64)> = None;
    for (i, (c, &s)) in centers.iter().zip(&scores).enumerate() {
        if s < cut {
            continue;
        }
        let v = c.as_vec();
        let ll = geoms
            .iter()
            .fold(0.0, |acc, g| acc + g.point_logl(v.x, v.y, v.z, floor_const));
        if best.is_none_or(|(_, b)| ll > b) {
            best = Some((i, ll));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_name_roundtrip() {
        assert_eq!(KernelIsa::Avx512.name(), "avx512");
        assert_eq!(KernelIsa::Avx2.name(), "avx2");
        assert_eq!(KernelIsa::Neon.name(), "neon");
        assert_eq!(KernelIsa::Portable.name(), "portable");
        assert_eq!(KernelIsa::Avx512.to_string(), "avx512");
    }

    #[test]
    fn avx2_arms_serve_both_x86_rungs() {
        assert!(KernelIsa::Avx512.has_avx2());
        assert!(KernelIsa::Avx2.has_avx2());
        assert!(!KernelIsa::Neon.has_avx2());
        assert!(!KernelIsa::Portable.has_avx2());
        let isas = supported_isas();
        assert_eq!(isas[0], KernelIsa::Portable);
        assert_eq!(isas.last(), Some(&detected_isa()));
        assert!(isas.iter().all(|isa| isa.is_supported()));
    }

    #[test]
    fn pack_i8_pairs_interleaves_and_pads() {
        // 2 outputs... below the 8-block size: nothing packed
        assert!(pack_i8_pairs(&[1, 2, 3, 4], 2, 2).is_empty());
        // 8 outputs × 3 inputs: one block, 2 pairs, odd input padded
        let w: Vec<i8> = (0..24).map(|v| v as i8).collect();
        let p = pack_i8_pairs(&w, 3, 8);
        assert_eq!(p.len(), 2 * 16);
        // pair 0 of output 0 is (w[0][0], w[0][1]) = (0, 1)
        assert_eq!(&p[0..2], &[0, 1]);
        // pair 1 of output 0 is (w[0][2], pad) = (2, 0)
        assert_eq!(&p[16..18], &[2, 0]);
        // pair 0 of output 7 is (w[7][0], w[7][1]) = (21, 22)
        assert_eq!(&p[14..16], &[21, 22]);
    }

    #[test]
    fn pack_f64_quads_transposes_blocks() {
        let w: Vec<f64> = (0..8).map(|v| v as f64).collect(); // 4 outputs × 2 inputs
        let p = pack_f64_blocks(&w, 2, 4, 4);
        assert_eq!(p, vec![0.0, 2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0]);
        // 8 lanes: the same 4 outputs, zero-padded to one block
        let p8 = pack_f64_blocks(&w, 2, 4, 8);
        let z = 0.0;
        assert_eq!(
            p8,
            vec![0.0, 2.0, 4.0, 6.0, z, z, z, z, 1.0, 3.0, 5.0, 7.0, z, z, z, z]
        );
        // tail-only shapes pack nothing
        assert!(pack_f64_blocks(&w[..6], 2, 3, 4).is_empty());
        assert!(pack_f64_blocks(&w[..6], 2, 3, 8).is_empty());
        assert_eq!(f64_block_lanes(KernelIsa::Avx512), 8);
        assert_eq!(f64_block_lanes(KernelIsa::Avx2), 4);
    }

    /// The AVX-512 f64 GEMM arm against the AVX2 arm, bit for bit, over
    /// random shapes: rows 1–40 (tails below the 12-row tile and below
    /// 4), `in_dim` 1–20, `out_dim` 1–40 (tails below 8, below a block
    /// pair and below 4), ReLU on and off.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn gemm_f64_avx512_matches_avx2_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        if !KernelIsa::Avx512.is_supported() {
            eprintln!("note: no avx512f on this host; AVX-512 GEMM arm not compared");
            return;
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xA512);
        let mut shapes: Vec<(usize, usize, usize)> = (0..400)
            .map(|_| {
                (
                    rng.gen_range(1..=40),
                    rng.gen_range(1..=20),
                    rng.gen_range(1..=40),
                )
            })
            .collect();
        // every remainder path at least once: 12/4/1-row tiles, block
        // pairs, an odd block, a half block, tail outputs
        shapes.extend([
            (12, 3, 16),
            (13, 5, 8),
            (16, 1, 4),
            (3, 7, 20),
            (25, 13, 36),
            (40, 20, 1),
        ]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rows, in_dim, out_dim) in shapes {
            let x: Vec<f64> = (0..rows * in_dim)
                .map(|_| rng.gen_range(-2.0..2.0))
                .collect();
            let w: Vec<f64> = (0..out_dim * in_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let bias: Vec<f64> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let quads = pack_f64_blocks(&w, in_dim, out_dim, 4);
            let octs = pack_f64_blocks(&w, in_dim, out_dim, 8);
            for relu in [false, true] {
                let mut want = vec![f64::NAN; rows * out_dim];
                let mut got = vec![f64::NAN; rows * out_dim];
                // SAFETY: AVX-512F (hence AVX2+FMA) checked above; every
                // slice has the shape the kernels document
                unsafe {
                    gemm_f64_avx2(
                        x.as_slice(),
                        rows,
                        in_dim,
                        out_dim,
                        &w,
                        &bias,
                        &quads,
                        relu,
                        &mut want,
                    );
                    gemm_f64_avx512(
                        x.as_slice(),
                        rows,
                        in_dim,
                        out_dim,
                        &w,
                        &bias,
                        &octs,
                        relu,
                        &mut got,
                    );
                }
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "rows={rows} in_dim={in_dim} out_dim={out_dim} relu={relu}"
                );
            }
        }
    }

    /// A ring's cone geometry as the localizer builds it
    /// (`adapt_localize::likelihood::cone_geometry`): dη floored at
    /// `MIN_D_ETA = 1e-4`, `sin θ` floored at 0.05.
    fn cone(axis: UnitVec3, eta: f64, d_eta: f64, floor_z: f64) -> ConeGeom {
        let eta = eta.clamp(-1.0, 1.0);
        let cone_theta = eta.acos();
        let sigma = d_eta.max(1e-4) / cone_theta.sin().max(0.05);
        ConeGeom {
            axis,
            eta,
            cone_theta,
            sigma,
            skip_gap: floor_z * sigma,
        }
    }

    /// `n` rings around a hidden source: a sixth pass through it, a sixth
    /// have η = ±1, a sixth sit at the `sin θ` floor, the rest are
    /// random; every fourth has dη at `MIN_D_ETA`. Returns the cones and
    /// `m` candidates: isotropic, exactly on a cone (or a cone's axis),
    /// near the source, and near-duplicates of earlier candidates.
    fn screen_case(n: usize, m: usize, seed: u64, floor_z: f64) -> (Vec<ConeGeom>, Vec<UnitVec3>) {
        use adapt_math::rotation::deflect;
        use adapt_math::sampling::{isotropic_direction, standard_normal};
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let source = isotropic_direction(&mut rng);
        let geoms: Vec<ConeGeom> = (0..n)
            .map(|i| {
                let axis = isotropic_direction(&mut rng);
                let d_eta = if i % 4 == 0 {
                    1e-4
                } else {
                    rng.gen_range(0.005..0.3)
                };
                let sign = if (i / 6) % 2 == 0 { 1.0 } else { -1.0 };
                let eta = match i % 6 {
                    0 => axis.cos_angle_to(source) + d_eta * standard_normal(&mut rng),
                    1 => sign,
                    2 => sign * 0.03f64.cos(),
                    _ => rng.gen_range(-1.0..1.0),
                };
                cone(axis, eta, d_eta, floor_z)
            })
            .collect();
        let mut centers: Vec<UnitVec3> = Vec::with_capacity(m);
        for j in 0..m {
            let c = match j % 5 {
                0 => isotropic_direction(&mut rng),
                1 => {
                    let g = &geoms[j % n];
                    deflect(
                        g.axis,
                        g.cone_theta,
                        rng.gen_range(0.0..std::f64::consts::TAU),
                    )
                }
                2 => geoms[j % n].axis,
                3 => deflect(
                    source,
                    rng.gen_range(0.0..0.02),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                ),
                _ => deflect(
                    centers[j / 2],
                    1e-9 * (j % 7) as f64,
                    rng.gen_range(0.0..std::f64::consts::TAU),
                ),
            };
            centers.push(c);
        }
        (geoms, centers)
    }

    /// The sweep's first strict maximum: the answer `argmax_cone_logl`
    /// must reproduce.
    fn sweep_argmax(logls: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &ll) in logls.iter().enumerate() {
            if best.is_none_or(|(_, b)| ll > b) {
                best = Some((i, ll));
            }
        }
        best
    }

    #[test]
    fn acos_screen_error_is_within_half_the_margin_constant() {
        let steps = 10_000_000u32;
        let mut worst = (0.0f64, 0.0f64);
        let mut check = |x: f64| {
            let err = (acos_screen(x) - x.acos()).abs();
            assert!(err.is_finite(), "acos_screen({x}) is not finite");
            if err > worst.0 {
                worst = (err, x);
            }
        };
        for k in 0..=steps {
            check(-1.0 + 2.0 * k as f64 / steps as f64);
        }
        let specials = [
            1.0,
            -1.0,
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0f64.next_down(),
            (-1.0f64).next_up(),
        ];
        for x in specials {
            check(x);
        }
        // the kernels clamp the dot product before the polynomial, so
        // rounding just past ±1 lands on the endpoints
        for x in [1.0f64.next_up(), (-1.0f64).next_down()] {
            let c = x.clamp(-1.0, 1.0);
            assert!((acos_screen(c) - c.acos()).abs() <= SCREEN_ACOS_EPS / 2.0);
        }
        assert!(
            worst.0 <= SCREEN_ACOS_EPS / 2.0,
            "max |acos_screen − acos| = {:e} at x = {}, above ε/2 = {:e}",
            worst.0,
            worst.1,
            SCREEN_ACOS_EPS / 2.0
        );
    }

    #[test]
    fn screen_scores_stay_within_the_margin_and_argmax_is_exact() {
        let isas = supported_isas();
        for (case, &n) in [1usize, 2, 5, 8, 13, 64, 200, 600, 1200].iter().enumerate() {
            for (floor_z, m) in [(3.0, 8 * (case + 2) + case % 8), (2.0, 61)] {
                let (geoms, centers) = screen_case(n, m, 40 + case as u64, floor_z);
                let floor_const = -0.5 * floor_z * floor_z;
                let margin = screen_margin(&geoms, floor_const);
                let rings = ScreenRings::new(&geoms);
                let screens: Vec<Vec<f64>> = isas
                    .iter()
                    .map(|&isa| screen_cone_logls(&rings, &centers, floor_const, isa))
                    .collect();
                // every vector screen replays the portable arithmetic
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for (isa, screen) in isas.iter().zip(&screens) {
                    assert_eq!(bits(&screens[0]), bits(screen), "n={n} m={m} isa={isa}");
                }
                for &isa in &isas {
                    let ctx = format!("n={n} m={m} floor_z={floor_z} isa={isa}");
                    let exact = sweep_cone_logls(&geoms, &centers, floor_const, isa);
                    for (k, (&s, &l)) in screens[0].iter().zip(&exact).enumerate() {
                        assert!(
                            (s - l).abs() <= margin,
                            "candidate {k}: |S − L| = {:e} > E = {margin:e} ({ctx})",
                            (s - l).abs()
                        );
                    }
                    let got = argmax_cone_logl(&geoms, &centers, floor_const, isa);
                    let want = sweep_argmax(&exact);
                    assert_eq!(
                        got.map(|(i, ll)| (i, ll.to_bits())),
                        want.map(|(i, ll)| (i, ll.to_bits())),
                        "{ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn argmax_ties_keep_the_earliest_index_and_empty_planes_are_none() {
        let (geoms, _) = screen_case(50, 0, 7, 3.0);
        let floor_const = -4.5;
        // through the first ring's cone, and far from it
        let on = adapt_math::rotation::deflect(geoms[0].axis, geoms[0].cone_theta, 0.3);
        let off = geoms[0].axis.flipped();
        for isa in supported_isas() {
            let exact = sweep_cone_logls(&geoms, &[on, off], floor_const, isa);
            assert_ne!(exact[0], exact[1]);
            let (best, other) = if exact[0] > exact[1] {
                (on, off)
            } else {
                (off, on)
            };
            let plane = [
                other, best, best, other, best, best, best, best, best, best, best,
            ];
            let got = argmax_cone_logl(&geoms, &plane, floor_const, isa).unwrap();
            let want = sweep_argmax(&sweep_cone_logls(&geoms, &plane, floor_const, isa)).unwrap();
            assert_eq!(got.0, 1);
            assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
            // with no rings every candidate scores 0.0: the first wins
            assert_eq!(
                argmax_cone_logl(&[], &plane, floor_const, isa),
                Some((0, 0.0))
            );
            assert_eq!(argmax_cone_logl(&geoms, &[], floor_const, isa), None);
        }
    }
}
