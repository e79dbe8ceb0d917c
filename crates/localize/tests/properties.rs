//! Property-based tests of the localization stage.

use adapt_localize::{
    angular_z, approximate, estimate_uncertainty, refine, ApproxConfig, RefineConfig, SkyGrid,
    SkyPixelization, SkyPosterior,
};
use adapt_math::angles::angular_separation;
use adapt_math::sampling::isotropic_direction;
use adapt_math::vec3::UnitVec3;
use adapt_recon::{ComptonRing, RingFeatures};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rings_through(source: UnitVec3, n: usize, jitter: f64, seed: u64) -> Vec<ComptonRing> {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let axis = isotropic_direction(&mut r);
            let eta = (axis.cos_angle_to(source)
                + jitter * adapt_math::sampling::standard_normal(&mut r))
            .clamp(-0.999, 0.999);
            ComptonRing {
                axis,
                eta,
                d_eta: jitter.max(0.005),
                features: RingFeatures::zeroed(),
                truth: None,
            }
        })
        .collect()
}

fn raster(target_pixels: usize) -> SkyGrid {
    SkyGrid::new(SkyPixelization::Raster, target_pixels)
}

/// Untempered flat-sweep posterior.
fn flat(grid: SkyGrid, rings: &[ComptonRing]) -> SkyPosterior {
    SkyPosterior::flat(grid, rings, 3.0, 1.0)
}

/// Untempered coarse-to-fine posterior.
fn adaptive(grid: SkyGrid, rings: &[ComptonRing]) -> SkyPosterior {
    SkyPosterior::adaptive(grid, rings, 3.0, 1.0, adapt_telemetry::noop())
}

proptest! {
    #[test]
    fn angular_z_zero_on_cone(polar in 0.1f64..3.0, az in 0.0f64..6.0, cone in 0.1f64..3.0) {
        let axis = UnitVec3::from_spherical(polar, az);
        let on_cone = adapt_math::rotation::deflect(axis, cone, 1.7);
        let ring = ComptonRing {
            axis,
            eta: cone.cos(),
            d_eta: 0.02,
            features: RingFeatures::zeroed(),
            truth: None,
        };
        prop_assert!(angular_z(&ring, on_cone, ring.d_eta).abs() < 1e-6);
    }

    #[test]
    fn angular_z_sign_tracks_side(cone in 0.3f64..2.5, offset in 0.01f64..0.2) {
        let axis = UnitVec3::PLUS_Z;
        let ring = ComptonRing {
            axis,
            eta: cone.cos(),
            d_eta: 0.02,
            features: RingFeatures::zeroed(),
            truth: None,
        };
        let outside = UnitVec3::from_spherical((cone + offset).min(3.1), 0.0);
        let inside = UnitVec3::from_spherical((cone - offset).max(0.0), 0.0);
        prop_assert!(angular_z(&ring, outside, ring.d_eta) > 0.0);
        prop_assert!(angular_z(&ring, inside, ring.d_eta) < 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn localization_recovers_clean_sources(
        polar in 0.05f64..1.4,
        az in 0.0f64..6.2,
        n in 30usize..120,
        seed in 0u64..300,
    ) {
        let source = UnitVec3::from_spherical(polar, az);
        let rings = rings_through(source, n, 0.015, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFACE);
        let (s0, _) = approximate(&rings, &ApproxConfig::default(), &mut rng).unwrap();
        let res = refine(&rings, s0, &RefineConfig::default()).unwrap();
        let err = angular_separation(res.direction, source);
        prop_assert!(err < 5.0, "clean-source error {err} deg ({n} rings)");
    }

    #[test]
    fn refinement_never_worsens_a_good_start(
        polar in 0.05f64..1.4,
        n in 40usize..150,
        seed in 0u64..200,
    ) {
        let source = UnitVec3::from_spherical(polar, 0.8);
        let rings = rings_through(source, n, 0.02, seed);
        // start exactly at the truth: refinement must stay close
        let res = refine(&rings, source, &RefineConfig::default()).unwrap();
        let drift = angular_separation(res.direction, source);
        prop_assert!(drift < 2.0, "drifted {drift} deg from a perfect start");
    }

    #[test]
    fn skymap_mode_agrees_with_refinement(
        polar in 0.1f64..1.2,
        seed in 0u64..100,
    ) {
        let source = UnitVec3::from_spherical(polar, -1.1);
        let rings = rings_through(source, 60, 0.02, seed);
        let map = flat(raster(1500), &rings);
        let res = refine(&rings, source, &RefineConfig::default()).unwrap();
        // the rasterized posterior peak and the least-squares solution
        // describe the same burst: within a few pixel widths
        prop_assert!(
            angular_separation(map.mode(), res.direction) < 8.0,
            "map mode vs refine: {} deg",
            angular_separation(map.mode(), res.direction)
        );
        // credible regions nest
        prop_assert!(map.credible_region_sr(0.5) <= map.credible_region_sr(0.9) + 1e-12);
    }

    #[test]
    fn adaptive_skymap_matches_brute_force(
        polar in 0.1f64..1.2,
        az in -3.0f64..3.0,
        n in 30usize..90,
        seed in 0u64..100,
    ) {
        // The coarse-to-fine rasterization must reproduce the flat
        // sweep's credible regions: any discrepancy is bounded by one
        // pixel's solid angle (a boundary pixel landing on the other
        // side of the probability cut).
        let source = UnitVec3::from_spherical(polar, az);
        let rings = rings_through(source, n, 0.02, seed);
        let grid = raster(10_000);
        let px_sr = grid.pixel_solid_angle();
        let brute = flat(grid.clone(), &rings);
        let adaptive = adaptive(grid, &rings);
        for credibility in [0.5, 0.9, 0.99] {
            let a = brute.credible_region_sr(credibility);
            let b = adaptive.credible_region_sr(credibility);
            prop_assert!(
                (a - b).abs() <= px_sr + 1e-12,
                "CR{credibility}: brute {a} sr vs adaptive {b} sr (pixel {px_sr} sr)"
            );
        }
        prop_assert!(
            angular_separation(brute.mode(), adaptive.mode()) < 1.0,
            "modes diverge: {} deg",
            angular_separation(brute.mode(), adaptive.mode())
        );
    }

    #[test]
    fn uncertainty_estimate_positive_and_finite(
        polar in 0.1f64..1.3,
        n in 20usize..150,
        d_eta in 0.01f64..0.06,
        seed in 0u64..200,
    ) {
        let source = UnitVec3::from_spherical(polar, 2.2);
        let rings = rings_through(source, n, d_eta, seed);
        if let Some(unc) = estimate_uncertainty(&rings, source, 3.0) {
            prop_assert!(unc.sigma_major_deg > 0.0 && unc.sigma_major_deg.is_finite());
            prop_assert!(unc.sigma_minor_deg > 0.0);
            prop_assert!(unc.sigma_major_deg >= unc.sigma_minor_deg);
            prop_assert!(unc.elongation() >= 1.0);
            prop_assert!(unc.contributing_rings <= n);
        }
    }
}
