//! Pins the exact bits of the posterior sky maps: an FNV-1a hash over
//! every probability's `to_bits()`, for both pixelizations on the flat
//! path (256 target pixels) and the coarse-to-fine path (4096), at
//! temperature 1 and at the ring-count-adaptive default temperature.
//! Any change to the rasterizer that moves a single bit of any posterior
//! fails here.

use adapt_localize::{default_temperature, SkyPixelization, SkyPosterior};
use adapt_math::sampling::{isotropic_direction, standard_normal};
use adapt_math::vec3::UnitVec3;
use adapt_recon::{ComptonRing, RingFeatures};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rings_through(source: UnitVec3, n: usize, jitter: f64, seed: u64) -> Vec<ComptonRing> {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let axis = isotropic_direction(&mut r);
            let eta =
                (axis.cos_angle_to(source) + jitter * standard_normal(&mut r)).clamp(-0.999, 0.999);
            ComptonRing {
                axis,
                eta,
                d_eta: jitter.max(0.01),
                features: RingFeatures::zeroed(),
                truth: None,
            }
        })
        .collect()
}

fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn posterior_bits_are_pinned() {
    let source = UnitVec3::from_spherical(0.6, 1.3);
    // 16 rings sit below the tempering threshold (temperature 1); 300
    // rings are tempered by `default_temperature`.
    let untempered = rings_through(source, 16, 0.03, 0xB175);
    let tempered = rings_through(source, 300, 0.03, 0xB176);
    assert_eq!(default_temperature(untempered.len()), 1.0);
    assert!(default_temperature(tempered.len()) > 1.0);

    let expected: [(SkyPixelization, usize, bool, u64); 8] = [
        (SkyPixelization::Raster, 256, false, 0x3540bdf49b8f332e),
        (SkyPixelization::Raster, 256, true, 0x4638e4c0f8fb634c),
        (SkyPixelization::Raster, 4096, false, 0x76d1fb358e41ec20),
        (SkyPixelization::Raster, 4096, true, 0x7dd1ad5825d9da4a),
        (SkyPixelization::Healpix, 256, false, 0xfe42888c57f744f3),
        (SkyPixelization::Healpix, 256, true, 0x6e654642aae83c2c),
        (SkyPixelization::Healpix, 4096, false, 0xf21471b4bf51c13f),
        (SkyPixelization::Healpix, 4096, true, 0x9f1496850ff0a7f4),
    ];
    let mut failures = Vec::new();
    for (pixelization, target, tempered_set, want) in expected {
        let rings = if tempered_set { &tempered } else { &untempered };
        let map = SkyPosterior::from_rings_adaptive(pixelization, rings, target, 3.0);
        let got = fnv1a(map.probabilities());
        if got != want {
            failures.push(format!(
                "{} at {target} px, tempered {tempered_set}: {got:#018x} != {want:#018x}",
                pixelization.name()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "posterior bits moved:\n{}",
        failures.join("\n")
    );
}
