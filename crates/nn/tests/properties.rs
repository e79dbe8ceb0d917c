//! Property-based tests of the neural-network library.

use adapt_nn::mlp::BlockOrder;
use adapt_nn::{
    auc, bce_with_logits, mse, supported_isas, CompiledMlp, CompiledQuantMlp, InferenceScratch,
    KernelIsa, Matrix, Mlp, QuantParams, QuantScheme, QuantScratch, QuantizedMlp, Requant, Sgd,
    WeightBits,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #[test]
    fn matmul_distributes_over_addition(
        seed in 0u64..500,
        rows in 1usize..8,
        inner in 1usize..8,
        cols in 1usize..8,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Matrix::he_uniform(rows, inner, &mut rng);
        let b = Matrix::he_uniform(cols, inner, &mut rng);
        let c = Matrix::he_uniform(cols, inner, &mut rng);
        // a·(b+c)ᵀ = a·bᵀ + a·cᵀ
        let mut bc = b.clone();
        for (v, w) in bc.as_mut_slice().iter_mut().zip(c.as_slice()) {
            *v += w;
        }
        let lhs = a.matmul_transpose(&bc);
        let rhs1 = a.matmul_transpose(&b);
        let rhs2 = a.matmul_transpose(&c);
        for i in 0..rows {
            for j in 0..cols {
                prop_assert!((lhs.get(i, j) - rhs1.get(i, j) - rhs2.get(i, j)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn transpose_reverses_matmul(seed in 0u64..500, n in 1usize..7, m in 1usize..7, k in 1usize..7) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = Matrix::he_uniform(n, k, &mut rng);
        let b = Matrix::he_uniform(k, m, &mut rng);
        // (a b)ᵀ = bᵀ aᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn bce_nonnegative_and_grad_bounded(logit in -50.0f64..50.0, y in 0.0f64..1.0) {
        let out = Matrix::from_vec(1, 1, vec![logit]);
        let l = bce_with_logits(&out, &[y]);
        prop_assert!(l.loss >= -1e-12);
        // gradient of BCE w.r.t. logit is (p - y): bounded by 1
        prop_assert!(l.grad.get(0, 0).abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn mse_zero_iff_exact(target in -10.0f64..10.0) {
        let out = Matrix::from_vec(1, 1, vec![target]);
        let l = mse(&out, &[target]);
        prop_assert!(l.loss.abs() < 1e-15);
        prop_assert!(l.grad.get(0, 0).abs() < 1e-15);
    }

    #[test]
    fn quant_round_trip_error_bounded(lo in -50.0f64..-0.01, hi in 0.01f64..50.0, t in 0.0f64..1.0) {
        let qp = QuantParams::from_range(lo, hi);
        let x = lo + t * (hi - lo);
        prop_assert!((qp.fake_quant(x) - x).abs() <= qp.scale * 0.5 + 1e-9);
        // idempotent: quantizing a quantized value is exact
        let q1 = qp.fake_quant(x);
        prop_assert!((qp.fake_quant(q1) - q1).abs() < 1e-12);
    }

    #[test]
    fn fixed_point_requant_matches_f64_multiplier_path(
        seed in 0u64..400,
        log_m in -20.0f64..4.0,
    ) {
        // across random layer-scale products m = s_w·s_x/s_y, the integer
        // (multiplier, shift) pair must reproduce round(acc·m) for every
        // accumulator that lands in (or clamps to) the representable i8
        // output range. The fixed-point mantissa carries 31 bits of m, so
        // away from exact .5 ties (measure-zero for random real scales)
        // the two paths agree exactly.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let m = rng.gen_range(0.5f64..1.0) * log_m.exp2();
        let rq = Requant::from_multiplier(m);
        // sweep accumulators that cover every representable i8 output
        for target in -130i64..130 {
            let acc = (target as f64 / m).round() as i64;
            if acc.abs() > i32::MAX as i64 {
                continue;
            }
            for delta in [-1i64, 0, 1] {
                let acc = (acc + delta).clamp(i32::MIN as i64, i32::MAX as i64) as i32;
                let fixed = rq.apply(acc);
                let float = ((acc as f64) * m).round() as i32;
                prop_assert_eq!(
                    fixed, float,
                    "m={}, acc={}: fixed {} vs float {}", m, acc, fixed, float
                );
            }
        }
    }

    #[test]
    fn auc_invariant_under_monotone_transform(
        seed in 0u64..200,
        n in 6usize..40,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let probs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..0.99)).collect();
        let labels: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let a1 = auc(&probs, &labels);
        // logit transform is monotone: AUC unchanged
        let transformed: Vec<f64> = probs.iter().map(|&p| (p / (1.0 - p)).ln()).collect();
        let a2 = auc(&transformed, &labels);
        prop_assert!((a1 - a2).abs() < 1e-9, "{a1} vs {a2}");
        prop_assert!((0.0..=1.0).contains(&a1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn forward_is_deterministic_and_finite(seed in 0u64..100, width in 2usize..32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut model = Mlp::new(5, &[width, width / 2 + 1], BlockOrder::BatchNormFirst, &mut rng);
        let x = Matrix::he_uniform(16, 5, &mut rng);
        model.forward(&x, true); // initialize running stats
        let a = model.predict(&x);
        let b = model.predict(&x);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert_eq!(u, v);
            prop_assert!(u.is_finite());
        }
    }

    #[test]
    fn sgd_step_reduces_loss_locally(seed in 0u64..100) {
        // one small step along the gradient must not increase a smooth loss
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut model = Mlp::new(3, &[6], BlockOrder::LinearFirst, &mut rng);
        let x = Matrix::he_uniform(32, 3, &mut rng);
        let y: Vec<f64> = (0..32).map(|i| (i % 2) as f64).collect();
        let out = model.forward(&x, true);
        let before = bce_with_logits(&out, &y);
        model.backward(&before.grad);
        let mut opt = Sgd::new(1e-3);
        opt.step(&mut model);
        let after = bce_with_logits(&model.forward(&x, true), &y);
        prop_assert!(after.loss <= before.loss + 1e-6,
            "loss rose from {} to {}", before.loss, after.loss);
    }

    #[test]
    fn compiled_plan_matches_mlp_predict(
        seed in 0u64..200,
        input_dim in 1usize..16,
        w1 in 1usize..24,
        w2 in 1usize..16,
        batch in 1usize..40,
        order_bn_first in proptest::bool::ANY,
    ) {
        // BatchNorm folding + the register-tiled kernel must reproduce
        // the layer-walking forward pass to float precision on arbitrary
        // shapes, batch sizes, and both block orders.
        let order = if order_bn_first {
            BlockOrder::BatchNormFirst
        } else {
            BlockOrder::LinearFirst
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut model = Mlp::new(input_dim, &[w1, w2], order, &mut rng);
        let calib = Matrix::he_uniform(32.max(batch), input_dim, &mut rng);
        model.forward(&calib, true); // non-trivial BN running statistics
        let plan = CompiledMlp::compile(&model);
        let x = Matrix::he_uniform(batch, input_dim, &mut rng);
        let reference = model.predict(&x);
        let mut scratch = InferenceScratch::new();
        let compiled = plan.forward_batch(&x, &mut scratch);
        prop_assert_eq!(compiled.len(), batch);
        for (c, r) in compiled.iter().zip(reference.as_slice()) {
            prop_assert!((c - r).abs() < 1e-9, "compiled {c} vs predict {r}");
        }
    }

    #[test]
    fn simd_float_kernel_tracks_portable_within_fma_tolerance(
        seed in 0u64..120,
        input_dim in 1usize..16,
        w1 in 1usize..32,
        w2 in 1usize..16,
        batch in 1usize..40,
    ) {
        // the f64 kernel's contract is looser than INT8: FMA contraction
        // re-rounds each accumulate, so we pin to a tight tolerance
        // rather than bits (see DESIGN.md on the dispatch contracts)
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x51ed));
        let mut model = Mlp::new(input_dim, &[w1, w2], BlockOrder::LinearFirst, &mut rng);
        let calib = Matrix::he_uniform(32.max(batch), input_dim, &mut rng);
        model.forward(&calib, true);
        let x = Matrix::he_uniform(batch, input_dim, &mut rng);
        let portable = CompiledMlp::compile_on(&model, KernelIsa::Portable)
            .forward_batch(&x, &mut InferenceScratch::new())
            .to_vec();
        for isa in supported_isas() {
            let plan = CompiledMlp::compile_on(&model, isa);
            let vector = plan.forward_batch(&x, &mut InferenceScratch::new()).to_vec();
            for (v, p) in vector.iter().zip(&portable) {
                prop_assert!((v - p).abs() < 1e-9, "{} {} vs portable {}", isa, v, p);
            }
        }
    }

    #[test]
    fn compiled_quant_plan_bit_identical_to_forward_one(
        seed in 0u64..150,
        input_dim in 2usize..16,
        w1 in 1usize..24,
        w2 in 1usize..16,
        batch in 1usize..48,
        scheme_pc in proptest::bool::ANY,
    ) {
        // batched fixed-point forwards must equal the per-sample path bit
        // for bit on arbitrary shapes, batch sizes, and weight schemes
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut model = Mlp::new(input_dim, &[w1, w2], BlockOrder::LinearFirst, &mut rng);
        let calib = Matrix::he_uniform(32.max(batch), input_dim, &mut rng);
        for _ in 0..3 {
            model.forward(&calib, true);
        }
        let scheme = if scheme_pc { QuantScheme::PerChannel } else { QuantScheme::PerTensor };
        let q = QuantizedMlp::quantize_with(&model, &calib, scheme, WeightBits::Int8);
        let plan = CompiledQuantMlp::compile(&q);
        let x = Matrix::he_uniform(batch, input_dim, &mut rng);
        let mut scratch = QuantScratch::new();
        let batched = plan.forward_batch(&x, &mut scratch);
        prop_assert_eq!(batched.len(), batch);
        for (r, &b) in batched.iter().enumerate() {
            let one = q.forward_one(x.row(r));
            prop_assert_eq!(b, one, "row {} of {}", r, batch);
        }
    }

    #[test]
    fn simd_quant_kernel_bit_identical_across_random_shapes(
        seed in 0u64..150,
        input_dim in 2usize..20,
        w1 in 1usize..40,
        w2 in 1usize..24,
        batch in 1usize..48,
        scheme_pc in proptest::bool::ANY,
    ) {
        // the vectorized INT8 kernel must reproduce the portable spec
        // kernel bit for bit on arbitrary shapes (tail output blocks,
        // odd input widths, tail rows) and both weight-scale schemes, on
        // every rung the host runs.
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9e37));
        let mut model = Mlp::new(input_dim, &[w1, w2], BlockOrder::LinearFirst, &mut rng);
        let calib = Matrix::he_uniform(32.max(batch), input_dim, &mut rng);
        for _ in 0..3 {
            model.forward(&calib, true);
        }
        let scheme = if scheme_pc { QuantScheme::PerChannel } else { QuantScheme::PerTensor };
        let q = QuantizedMlp::quantize_with(&model, &calib, scheme, WeightBits::Int8);
        let x = Matrix::he_uniform(batch, input_dim, &mut rng);
        let portable = CompiledQuantMlp::compile_on(&q, KernelIsa::Portable)
            .forward_batch(&x, &mut QuantScratch::new())
            .to_vec();
        for isa in supported_isas() {
            let plan = CompiledQuantMlp::compile_on(&q, isa);
            let vector = plan.forward_batch(&x, &mut QuantScratch::new()).to_vec();
            prop_assert_eq!(&vector, &portable, "isa {}", isa);
        }
        // and the portable plan itself is already pinned to the scalar
        // reference through the per-sample path:
        for (r, &b) in portable.iter().enumerate() {
            prop_assert_eq!(b, q.forward_one(x.row(r)), "row {} of {}", r, batch);
        }
    }

    #[test]
    fn compiled_quant_plan_tracks_scalar_reference(
        seed in 0u64..100,
        input_dim in 2usize..12,
        width in 2usize..20,
    ) {
        // the plan's RNE fixed-point requantization and the reference
        // kernel's f64-multiplier rounding may disagree only at exact
        // rounding ties — at most one quantization step at the output
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut model = Mlp::new(input_dim, &[width], BlockOrder::LinearFirst, &mut rng);
        let calib = Matrix::he_uniform(48, input_dim, &mut rng);
        for _ in 0..3 {
            model.forward(&calib, true);
        }
        let q = QuantizedMlp::quantize(&model, &calib);
        let out_scale = q.layers.last().unwrap().output_params.scale;
        for r in 0..16 {
            let plan_out = q.forward_one(calib.row(r));
            let ref_out = q.forward_one_reference(calib.row(r));
            prop_assert!(
                (plan_out - ref_out).abs() <= out_scale * (q.layers.len() as f64) + 1e-12,
                "plan {} vs reference {} (scale {})", plan_out, ref_out, out_scale
            );
        }
    }

    #[test]
    fn quantized_network_bounded_outputs(seed in 0u64..50, scheme_pc in proptest::bool::ANY) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut model = Mlp::new(4, &[8], BlockOrder::LinearFirst, &mut rng);
        let calib = Matrix::he_uniform(64, 4, &mut rng);
        model.forward(&calib, true);
        let scheme = if scheme_pc { QuantScheme::PerChannel } else { QuantScheme::PerTensor };
        let q = QuantizedMlp::quantize_with(&model, &calib, scheme, WeightBits::Int8);
        // outputs on calibration-like data stay within the dequantized range
        let out_range = q.layers.last().unwrap().output_params;
        let max_repr = out_range.dequantize(127).max(out_range.dequantize(-128));
        let min_repr = out_range.dequantize(127).min(out_range.dequantize(-128));
        for i in 0..16 {
            let o = q.forward_one(calib.row(i));
            prop_assert!(o.is_finite());
            prop_assert!(o >= min_repr - 1e-9 && o <= max_repr + 1e-9);
        }
    }
}
