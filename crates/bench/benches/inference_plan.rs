//! Criterion benchmarks for the two localization hot-loop optimizations:
//!
//! * **compiled inference plans** — `CompiledMlp::forward_batch` (BN
//!   folded, flat weight buffer, reusable scratch, register-tiled kernel)
//!   against the layer-walking `Mlp::predict` on a paper-scale batch of
//!   rings;
//! * **compiled fixed-point INT8 plans** — `CompiledQuantMlp::forward_batch`
//!   (flat i8 weights, per-row `(multiplier, shift)` requantization,
//!   zero-alloc scratch) against the per-sample scalar reference
//!   `QuantizedMlp::forward_one_reference` on the same batch;
//! * **coarse-to-fine sky maps** — `SkyPosterior::adaptive` against
//!   the flat sweep `SkyPosterior::flat` runs (`sweep_cone_logls` over
//!   every pixel) on a ≥10k-pixel raster grid.
//!
//! Each group also times its compiled arm (the flat sweep, for the sky
//! map) compiled for, or swept on, the portable rung, so the SIMD speedup
//! of every vectorized kernel is measured on identical inputs in the
//! same process. `cargo bench --bench inference_plan`; end-to-end
//! timing is perfbench's (`python3 perfbench/run.py`).

use adapt_localize::{ring_cone_geoms, SkyGrid, SkyPixelization, SkyPosterior};
use adapt_math::sampling::{isotropic_direction, standard_normal};
use adapt_math::vec3::UnitVec3;
use adapt_nn::mlp::BlockOrder;
use adapt_nn::simd::sweep_cone_logls;
use adapt_nn::{
    detected_isa, models, CompiledMlp, CompiledQuantMlp, InferenceScratch, KernelIsa, Matrix, Mlp,
    QuantScratch, QuantizedMlp,
};
use adapt_recon::{ComptonRing, RingFeatures};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn trained_background_net(order: BlockOrder) -> Mlp {
    let mut rng = ChaCha8Rng::seed_from_u64(40);
    let mut net = models::background_network(13, order, &mut rng);
    // push BN running statistics off init so folding is non-trivial
    let calib = Matrix::he_uniform(256, 13, &mut rng);
    net.forward(&calib, true);
    net
}

fn bench_compiled_inference(c: &mut Criterion) {
    let net = trained_background_net(BlockOrder::BatchNormFirst);
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let batch = Matrix::he_uniform(256, 13, &mut rng);

    let mut group = c.benchmark_group("background_net_256_rings");
    group.bench_function("mlp_predict", |b| b.iter(|| black_box(net.predict(&batch))));
    for (name, plan) in [
        ("compiled_forward_batch", CompiledMlp::compile(&net)),
        (
            "compiled_forward_batch_portable",
            CompiledMlp::compile_on(&net, KernelIsa::Portable),
        ),
    ] {
        group.bench_function(name, |b| {
            let mut scratch = InferenceScratch::new();
            b.iter(|| {
                let out = plan.forward_batch(&batch, &mut scratch);
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn bench_int8_inference(c: &mut Criterion) {
    // quantization requires the LinearFirst (quantization-friendly) order
    let net = trained_background_net(BlockOrder::LinearFirst);
    let mut rng = ChaCha8Rng::seed_from_u64(40);
    let calib = Matrix::he_uniform(256, 13, &mut rng);
    let qnet = QuantizedMlp::quantize(&net, &calib);
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let batch = Matrix::he_uniform(256, 13, &mut rng);
    let rows: Vec<Vec<f64>> = (0..256).map(|i| batch.row(i).to_vec()).collect();

    let mut group = c.benchmark_group("int8_background_net_256_rings");
    group.bench_function("per_sample_reference", |b| {
        b.iter(|| {
            black_box(
                rows.iter()
                    .map(|r| qnet.forward_one_reference(r))
                    .sum::<f64>(),
            )
        })
    });
    let portable = CompiledQuantMlp::compile_on(&qnet, KernelIsa::Portable);
    for (name, plan) in [
        ("compiled_forward_batch", qnet.plan()),
        ("compiled_forward_batch_portable", &portable),
    ] {
        group.bench_function(name, |b| {
            let mut scratch = QuantScratch::new();
            b.iter(|| {
                let out = plan.forward_batch(&batch, &mut scratch);
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn skymap_rings(n: usize, seed: u64) -> Vec<ComptonRing> {
    let source = UnitVec3::from_spherical(0.5, 1.0);
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let axis = isotropic_direction(&mut r);
            let eta =
                (axis.cos_angle_to(source) + 0.02 * standard_normal(&mut r)).clamp(-0.999, 0.999);
            ComptonRing {
                axis,
                eta,
                d_eta: 0.02,
                features: RingFeatures::zeroed(),
                truth: None,
            }
        })
        .collect()
}

fn bench_skymap(c: &mut Criterion) {
    let rings = skymap_rings(600, 42);
    let grid = SkyGrid::new(SkyPixelization::Raster, 12_000);

    let geoms = ring_cone_geoms(&rings, 3.0);
    let centers = grid.centers();

    let mut group = c.benchmark_group("skymap_12k_pixels_600_rings");
    group.sample_size(10);
    // the joint log-likelihood of every pixel, as `SkyPosterior::flat`
    // sweeps it at floor 3σ
    for (name, isa) in [
        ("flat_sweep", detected_isa()),
        ("flat_sweep_portable", KernelIsa::Portable),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(sweep_cone_logls(&geoms, &centers, -4.5, isa)))
        });
    }
    group.bench_function("coarse_to_fine", |b| {
        b.iter(|| {
            black_box(SkyPosterior::adaptive(
                grid.clone(),
                &rings,
                3.0,
                1.0,
                adapt_telemetry::noop(),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compiled_inference,
    bench_int8_inference,
    bench_skymap
);
criterion_main!(benches);
