//! Criterion micro-benchmarks of the pipeline's hot kernels: per-ring
//! network inference (FP32 and INT8, and the compiled f64 plan the
//! localizer runs, labelled with its dispatched ISA), photon transport, event
//! reconstruction, one storm lane's event stream, the localization
//! stages, and the rayon-vs-sequential burst simulation ablation called
//! out in DESIGN.md.

use adapt_localize::{approximate, refine, ApproxConfig, RefineConfig};
use adapt_math::sampling::isotropic_direction;
use adapt_math::vec3::UnitVec3;
use adapt_nn::mlp::BlockOrder;
use adapt_nn::{models, CompiledMlp, InferenceScratch, Matrix, QuantizedMlp};
use adapt_recon::{ComptonRing, Reconstructor, RingFeatures};
use adapt_sim::{
    BurstSimulation, Event, FlightProfile, GrbConfig, ParticleOrigin, StreamConfig, StreamingSource,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let x = Matrix::he_uniform(256, 13, &mut rng);
    let w = Matrix::he_uniform(256, 13, &mut rng);
    c.bench_function("matmul_256x13_x_256", |b| {
        b.iter(|| black_box(x.matmul_transpose(&w)))
    });
}

fn bench_inference(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut fp32 = models::background_network(13, BlockOrder::LinearFirst, &mut rng);
    let calib = Matrix::he_uniform(128, 13, &mut rng);
    fp32.forward(&calib, true);
    let int8 = QuantizedMlp::quantize(&fp32, &calib);
    let x: Vec<f64> = (0..13).map(|i| (i as f64 * 0.3).sin()).collect();
    c.bench_function("background_net_fp32_one_ring", |b| {
        b.iter(|| black_box(fp32.predict_one(&x)))
    });
    c.bench_function("background_net_int8_one_ring", |b| {
        b.iter(|| black_box(int8.forward_one(&x)))
    });
    // batched inference of a paper-scale ring set
    let batch = Matrix::he_uniform(597, 13, &mut rng);
    c.bench_function("background_net_fp32_597_rings", |b| {
        b.iter(|| black_box(fp32.predict(&batch)))
    });
    // the compiled plan the localizer runs, on the detected rung's arm
    let plan = CompiledMlp::compile(&fp32);
    let label = format!("background_plan_597_rings_{}", adapt_nn::detected_isa());
    c.bench_function(&label, |b| {
        let mut scratch = InferenceScratch::new();
        b.iter(|| black_box(plan.forward_batch(&batch, &mut scratch)[0]))
    });
    c.bench_function("background_net_int8_597_rings", |b| {
        b.iter(|| black_box(int8.forward(&batch)))
    });
}

fn bench_transport(c: &mut Criterion) {
    let sim = BurstSimulation::with_defaults(GrbConfig::new(1.0, 0.0));
    let transport = sim.transport().clone();
    let down = UnitVec3::PLUS_Z.flipped();
    c.bench_function("transport_one_photon_1mev", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        b.iter(|| {
            let entry = transport.sample_entry_point(&mut rng, down);
            black_box(transport.trace(
                &mut rng,
                entry,
                down,
                1.0,
                ParticleOrigin::Grb,
                UnitVec3::PLUS_Z,
            ))
        })
    });
}

fn bench_reconstruction(c: &mut Criterion) {
    let sim = BurstSimulation::with_defaults(GrbConfig::new(1.0, 0.0));
    let data = sim.simulate(11);
    let recon = Reconstructor::default();
    c.bench_function("reconstruct_burst_events", |b| {
        b.iter(|| black_box(recon.reconstruct_all(&data.events)))
    });
    // the event mix an epoch sees: one second of flight background at
    // float altitude, where more than nine in ten events have a single hit
    let mut config = StreamConfig::new(FlightProfile::antarctic_ldb(), 1.0);
    config.start_h = 20.0;
    let events: Vec<Event> = StreamingSource::new(config, 11).map(|s| s.event).collect();
    c.bench_function("reconstruct_epoch_events", |b| {
        b.iter(|| black_box(recon.reconstruct_all(&events)))
    });
}

fn bench_stream_source(c: &mut Criterion) {
    // one storm lane: 8 s of float background at the nominal flight
    // fluence with one 2 MeV/cm² burst, built, drained and dropped
    let mut config = StreamConfig::new(FlightProfile::antarctic_ldb(), 8.0)
        .with_burst(6.0, GrbConfig::new(2.0, 30.0));
    config.start_h = 20.0;
    config.background.particle_fluence = adapt_onboard::FLIGHT_NOMINAL_FLUENCE;
    c.bench_function("stream_burst_source", |b| {
        b.iter(|| black_box(StreamingSource::new(config.clone(), 13).count()))
    });
}

fn synthetic_rings(n_src: usize, n_bkg: usize, seed: u64) -> (Vec<ComptonRing>, UnitVec3) {
    let source = UnitVec3::from_spherical(0.4, 1.0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rings = Vec::new();
    for i in 0..(n_src + n_bkg) {
        let axis = isotropic_direction(&mut rng);
        let eta = if i < n_src {
            (axis.cos_angle_to(source) + 0.02 * adapt_math::sampling::standard_normal(&mut rng))
                .clamp(-0.999, 0.999)
        } else {
            rng.gen_range(-0.9..0.9)
        };
        rings.push(ComptonRing {
            axis,
            eta,
            d_eta: 0.02,
            features: RingFeatures::zeroed(),
            truth: None,
        });
    }
    (rings, source)
}

fn bench_localization(c: &mut Criterion) {
    let (rings, source) = synthetic_rings(170, 430, 5);
    c.bench_function("approximate_600_rings", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        b.iter(|| black_box(approximate(&rings, &ApproxConfig::default(), &mut rng)))
    });
    let start = UnitVec3::from_spherical(0.45, 1.05);
    c.bench_function("refine_600_rings", |b| {
        b.iter(|| black_box(refine(&rings, start, &RefineConfig::default())))
    });
    let _ = source;
}

fn bench_burst_parallelism(c: &mut Criterion) {
    let sim = BurstSimulation::with_defaults(GrbConfig::new(0.5, 0.0));
    let mut group = c.benchmark_group("burst_simulation");
    group.sample_size(10);
    group.bench_function("rayon_parallel", |b| {
        b.iter_batched(
            || (),
            |_| black_box(sim.simulate(21)),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("sequential", |b| {
        b.iter_batched(
            || (),
            |_| black_box(sim.simulate_sequential(21)),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_inference,
    bench_transport,
    bench_reconstruction,
    bench_stream_source,
    bench_localization,
    bench_burst_parallelism
);
criterion_main!(benches);
