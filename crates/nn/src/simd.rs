//! Runtime-dispatched SIMD kernels for the compiled inference plans.
//!
//! The portable scalar kernels in [`crate::quant_plan`] and
//! [`crate::compiled`] remain the *source of truth*: every SIMD path here
//! must produce either bit-identical results (INT8 — integer arithmetic
//! is associative, and the vector requantization replays `rne_shr`
//! exactly) or results within the documented rounding contract (the f64
//! plan may contract multiply-adds into FMAs, which the parity tests
//! already tolerate). Dispatch is decided once per process:
//!
//! * x86-64 with AVX2 → [`KernelIsa::Avx2`] (`is_x86_feature_detected!`);
//! * aarch64 → [`KernelIsa::Neon`] (baseline NEON is mandatory there);
//! * anything else, or `ADAPT_FORCE_PORTABLE=1`, → [`KernelIsa::Portable`].
//!
//! The force-portable override exists for two consumers: the CI fallback
//! job (which builds with `RUSTFLAGS=-Ctarget-cpu=x86-64` and must also
//! *run* the portable kernels, since codegen flags do not disable runtime
//! feature detection) and the bench bins, which measure both paths in one
//! process to emit the per-kernel dispatch report.
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

/// Which kernel implementation the dispatcher selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelIsa {
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
            KernelIsa::Avx2 => "avx2",
            KernelIsa::Neon => "neon",
            KernelIsa::Portable => "portable",
        }
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = follow hardware detection, 1 = force portable. Initialized from
/// the `ADAPT_FORCE_PORTABLE` environment variable on first query;
/// flippable at runtime by benches that measure both paths. All kernel
/// pairs are bit-identical (INT8, skymap) or within the documented f64
/// rounding contract, so a concurrent flip is benign for correctness.
static FORCE_PORTABLE: AtomicU8 = AtomicU8::new(UNINIT);
const UNINIT: u8 = 2;

fn force_portable() -> bool {
    match FORCE_PORTABLE.load(Ordering::Relaxed) {
        UNINIT => {
            let forced = std::env::var("ADAPT_FORCE_PORTABLE")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false);
            FORCE_PORTABLE.store(forced as u8, Ordering::Relaxed);
            forced
        }
        v => v == 1,
    }
}

/// Override hardware dispatch (benches and the fallback CI job). Pass
/// `true` to run the portable kernels regardless of CPU features.
pub fn set_force_portable(force: bool) {
    FORCE_PORTABLE.store(force as u8, Ordering::Relaxed);
}

/// Serializes tests that flip the process-global portable override so
/// they cannot observe each other's toggles.
#[cfg(test)]
pub(crate) fn test_isa_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drop any runtime override and fall back to the `ADAPT_FORCE_PORTABLE`
/// environment default on the next query (test cleanup).
#[cfg(test)]
pub(crate) fn reset_force_portable() {
    FORCE_PORTABLE.store(UNINIT, Ordering::Relaxed);
}

/// The ISA the kernels will run on for the current configuration.
pub fn active_isa() -> KernelIsa {
    if force_portable() {
        return KernelIsa::Portable;
    }
    detected_isa()
}

/// The best ISA the hardware supports, ignoring any portable override.
pub fn detected_isa() -> KernelIsa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
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

/// Human-readable feature summary for bench provenance (`avx2,fma` on a
/// capable x86-64 host, `neon` on aarch64, empty otherwise).
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

/// Pack a `[out_dim × in_dim]` row-major f64 weight block into 4-lane
/// column blocks: for each block of 4 output units, the weights of input
/// `k` sit contiguously as `[w[o][k], w[o+1][k], w[o+2][k], w[o+3][k]]`.
/// Tail outputs (`out_dim % 4`) are not packed.
pub(crate) fn pack_f64_quads(w: &[f64], in_dim: usize, out_dim: usize) -> Vec<f64> {
    let n_blocks = out_dim / 4;
    let mut packed = vec![0f64; n_blocks * in_dim * 4];
    for ob in 0..n_blocks {
        for k in 0..in_dim {
            for lane in 0..4 {
                packed[(ob * in_dim + k) * 4 + lane] = w[(ob * 4 + lane) * in_dim + k];
            }
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
/// Caller must ensure AVX2 is available (dispatched via [`active_isa`])
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
/// [`pack_f64_quads`]: each loaded weight quad serves four batch rows,
/// each broadcast activation serves four output units, and the
/// multiply-add contracts to FMA (allowed by the float plan's rounding
/// contract — parity tests use tolerances, not bit equality).
///
/// # Safety
/// AVX2+FMA required; `x.len() == rows·in_dim`, `out.len() ==
/// rows·out_dim`, `packed` sized by [`pack_f64_quads`], `bias` has
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
// The vectorized cone sweep: the robust cone log-likelihood hot loop,
// shared by three users — the raster (`adapt_localize::SkyMap`) and
// HEALPix (`adapt_healpix::HealpixSkyMap`) pixelizations, and the
// localizer's approximation stage (`adapt_localize::approximate`),
// which scores its cone-sampled candidate directions as one plane.
// Each user precomputes one [`ConeGeom`] per Compton ring and
// accumulates the robust cone log-likelihood over a plane of candidate
// directions; keeping the sweep here guarantees the pixelizations (and
// the coarse-to-fine refinement passes built on them) and the
// approximation stage score with the *same* arithmetic, bit for bit,
// on every dispatch path.

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
/// the per-pixel scalar sweep on every dispatch path.
pub fn sweep_cone_logls(geoms: &[ConeGeom], centers: &[UnitVec3], floor_const: f64) -> Vec<f64> {
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
    let isa = active_isa();
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
/// specification; the AVX2 path is bit-identical to it (dot products in
/// `Vec3::dot`'s association order with no FMA, scalar `acos` fallback
/// on the exact vector-computed dot). NEON currently inherits the
/// portable path — the sweep is memory-light and the scalar skip-gap
/// test already floors most pixels.
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
    if isa == KernelIsa::Avx2 {
        // SAFETY: AVX2 verified by runtime dispatch; px/py/pz/out all
        // have the chunk's length by construction in `sweep_cone_logls`.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_name_roundtrip() {
        assert_eq!(KernelIsa::Avx2.name(), "avx2");
        assert_eq!(KernelIsa::Neon.name(), "neon");
        assert_eq!(KernelIsa::Portable.name(), "portable");
    }

    #[test]
    fn force_portable_overrides_detection() {
        let _guard = test_isa_lock();
        set_force_portable(true);
        assert_eq!(active_isa(), KernelIsa::Portable);
        set_force_portable(false);
        assert_eq!(active_isa(), detected_isa());
        // hand later tests the env-derived default, not our last toggle
        FORCE_PORTABLE.store(UNINIT, Ordering::Relaxed);
    }

    /// The CI fallback job sets `ADAPT_FORCE_PORTABLE=1` and relies on
    /// this assertion to prove the portable kernels actually ran.
    #[test]
    fn forced_portable_env_is_respected() {
        let _guard = test_isa_lock();
        // re-run the env initialization in case another test toggled the
        // cached override
        FORCE_PORTABLE.store(UNINIT, Ordering::Relaxed);
        if std::env::var("ADAPT_FORCE_PORTABLE").as_deref() == Ok("1") {
            assert_eq!(active_isa(), KernelIsa::Portable);
        }
        FORCE_PORTABLE.store(UNINIT, Ordering::Relaxed);
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
        let p = pack_f64_quads(&w, 2, 4);
        assert_eq!(p, vec![0.0, 2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0]);
        // tail-only shapes pack nothing
        assert!(pack_f64_quads(&w[..6], 2, 3).is_empty());
    }
}
