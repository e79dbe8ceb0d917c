//! The approximation stage (paper §II): pick a small random sample of
//! rings, enumerate candidate directions lying on those rings' cones, and
//! return the candidate maximizing the joint robust likelihood of all
//! rings.
//!
//! Candidates are drawn first, into one plane, and then handed to the
//! shared cone-likelihood argmax ([`adapt_nn::simd::argmax_cone_logl`]).
//! Each ring's cone geometry is computed once per call with dη floored
//! at [`ApproxConfig::d_eta_floor`]. The kernel screens every candidate
//! with a bounded-error polynomial `acos` and re-scores exactly only the
//! candidates its error margin cannot rule out, adding the per-ring
//! robust terms in ring order with the scalar likelihood's arithmetic.
//! The winning direction is therefore bit-identical to scoring each
//! candidate with [`crate::likelihood::angular_z`], and the draw order
//! (hence the caller's RNG state afterwards) is unchanged.

use crate::skymap::ring_cone_geom;
use adapt_math::rotation::deflect;
use adapt_math::vec3::UnitVec3;
use adapt_nn::simd::{argmax_cone_logl, detected_isa, KernelIsa};
use adapt_recon::ComptonRing;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Tunables of the approximation stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApproxConfig {
    /// Number of rings sampled to build the candidate set and evaluate the
    /// joint likelihood.
    pub sample_rings: usize,
    /// Candidate directions generated per sampled ring (azimuthal steps
    /// around the cone).
    pub candidates_per_ring: usize,
    /// Robustness floor in sigmas for the joint likelihood.
    pub floor_z: f64,
    /// Effective dη floor used *during approximation only*: candidates are
    /// spaced `2π / candidates_per_ring` apart around each cone, so scoring
    /// them against the raw (often very tight) dη would reject every
    /// discrete candidate. Inflating dη to at least this value makes the
    /// coarse search see the true intersection; refinement then works at
    /// full precision.
    pub d_eta_floor: f64,
    /// Restrict candidates to the upper hemisphere (Earth blocks ADAPT's
    /// view from below).
    pub upper_hemisphere_only: bool,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            sample_rings: 24,
            candidates_per_ring: 64,
            floor_z: 3.0,
            d_eta_floor: 0.06,
            upper_hemisphere_only: true,
        }
    }
}

/// Run the approximation stage. Returns the best candidate direction and
/// its joint log-likelihood, or `None` when `rings` is empty.
pub fn approximate<R: Rng + ?Sized>(
    rings: &[ComptonRing],
    config: &ApproxConfig,
    rng: &mut R,
) -> Option<(UnitVec3, f64)> {
    approximate_on(rings, config, rng, detected_isa())
}

/// [`approximate`] with the argmax screen on `isa`'s arm (every arm gives
/// the same bits).
fn approximate_on<R: Rng + ?Sized>(
    rings: &[ComptonRing],
    config: &ApproxConfig,
    rng: &mut R,
    isa: KernelIsa,
) -> Option<(UnitVec3, f64)> {
    if rings.is_empty() {
        return None;
    }
    // candidate directions come from a small random sample of rings, but
    // each candidate's joint likelihood is evaluated over *all* rings:
    // with 2-3x background contamination, a sample-only score lets a
    // candidate that grazes two background cones outbid the true source.
    let mut indices: Vec<usize> = (0..rings.len()).collect();
    indices.shuffle(rng);
    indices.truncate(config.sample_rings.max(1));

    let per_ring = config.candidates_per_ring;
    let mut candidates = Vec::with_capacity(indices.len() * per_ring);
    for &i in &indices {
        let ring = &rings[i];
        let cone_theta = ring.eta.clamp(-1.0, 1.0).acos();
        for k in 0..per_ring {
            let phi =
                std::f64::consts::TAU * (k as f64 + rng.gen_range(0.0..1.0)) / per_ring as f64;
            let candidate = deflect(ring.axis, cone_theta, phi);
            if config.upper_hemisphere_only && candidate.as_vec().z < 0.0 {
                continue;
            }
            candidates.push(candidate);
        }
    }

    let geoms: Vec<_> = rings
        .iter()
        .map(|r| ring_cone_geom(r, r.d_eta.max(config.d_eta_floor), config.floor_z))
        .collect();
    let floor_const = -0.5 * config.floor_z * config.floor_z;
    argmax_cone_logl(&geoms, &candidates, floor_const, isa).map(|(i, ll)| (candidates[i], ll))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::likelihood::angular_z;
    use adapt_math::angles::angular_separation;
    use adapt_recon::RingFeatures;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(51)
    }

    /// Rings whose cones pass through `source`, with small eta jitter.
    fn rings_through(source: UnitVec3, n: usize, jitter: f64, seed: u64) -> Vec<ComptonRing> {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let axis = adapt_math::sampling::isotropic_direction(&mut r);
                let eta = axis.cos_angle_to(source)
                    + jitter * adapt_math::sampling::standard_normal(&mut r);
                ComptonRing {
                    axis,
                    eta: eta.clamp(-0.999, 0.999),
                    d_eta: jitter.max(0.01),
                    features: RingFeatures::zeroed(),
                    truth: None,
                }
            })
            .collect()
    }

    #[test]
    fn finds_direction_near_common_source() {
        let source = UnitVec3::from_spherical(0.4, 1.0);
        let rings = rings_through(source, 40, 0.01, 1);
        let (s0, ll) = approximate(&rings, &ApproxConfig::default(), &mut rng()).unwrap();
        assert!(
            angular_separation(s0, source) < 10.0,
            "approx off by {} deg (ll {ll})",
            angular_separation(s0, source)
        );
    }

    #[test]
    fn empty_input_is_none() {
        assert!(approximate(&[], &ApproxConfig::default(), &mut rng()).is_none());
    }

    #[test]
    fn upper_hemisphere_restriction_respected() {
        // rings through a *below-horizon* source: with the restriction on,
        // every candidate keeps z >= 0
        let source = UnitVec3::from_spherical(2.6, 0.0);
        let rings = rings_through(source, 20, 0.01, 2);
        let cfg = ApproxConfig::default();
        if let Some((s0, _)) = approximate(&rings, &cfg, &mut rng()) {
            assert!(s0.as_vec().z >= 0.0);
        }
        let mut cfg_free = cfg.clone();
        cfg_free.upper_hemisphere_only = false;
        let (s_free, _) = approximate(&rings, &cfg_free, &mut rng()).unwrap();
        assert!(
            angular_separation(s_free, source) < 12.0,
            "unrestricted should find the true (southern) source"
        );
    }

    #[test]
    fn robust_to_background_contamination() {
        let source = UnitVec3::from_spherical(0.3, -2.0);
        let mut rings = rings_through(source, 30, 0.01, 3);
        // add 30 random background rings
        let mut r = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..30 {
            rings.push(ComptonRing {
                axis: adapt_math::sampling::isotropic_direction(&mut r),
                eta: r.gen_range(-0.9..0.9),
                d_eta: 0.02,
                features: RingFeatures::zeroed(),
                truth: None,
            });
        }
        let cfg = ApproxConfig {
            sample_rings: 30,
            ..Default::default()
        };
        let (s0, _) = approximate(&rings, &cfg, &mut rng()).unwrap();
        assert!(
            angular_separation(s0, source) < 12.0,
            "off by {}",
            angular_separation(s0, source)
        );
    }

    /// The scalar scoring loop `approximate` replaced: every candidate
    /// scored against every ring through [`angular_z`], in draw order.
    /// Kept as the specification the vectorized scoring must reproduce.
    fn approximate_scalar_reference<R: Rng + ?Sized>(
        rings: &[ComptonRing],
        config: &ApproxConfig,
        rng: &mut R,
    ) -> Option<(UnitVec3, f64)> {
        if rings.is_empty() {
            return None;
        }
        let mut indices: Vec<usize> = (0..rings.len()).collect();
        indices.shuffle(rng);
        indices.truncate(config.sample_rings.max(1));
        let sample: Vec<ComptonRing> = indices.iter().map(|&i| rings[i].clone()).collect();

        let mut best: Option<(UnitVec3, f64)> = None;
        for ring in &sample {
            let cone_theta = ring.eta.clamp(-1.0, 1.0).acos();
            for k in 0..config.candidates_per_ring {
                let phi = std::f64::consts::TAU * (k as f64 + rng.gen_range(0.0..1.0))
                    / config.candidates_per_ring as f64;
                let candidate = deflect(ring.axis, cone_theta, phi);
                if config.upper_hemisphere_only && candidate.as_vec().z < 0.0 {
                    continue;
                }
                let ll: f64 = rings
                    .iter()
                    .map(|r| {
                        let z = angular_z(r, candidate, r.d_eta.max(config.d_eta_floor));
                        (-0.5 * z * z).max(-0.5 * config.floor_z * config.floor_z)
                    })
                    .sum();
                if best.map(|(_, b)| ll > b).unwrap_or(true) {
                    best = Some((candidate, ll));
                }
            }
        }
        best
    }

    /// A burst on top of isotropic background: a third of the rings pass
    /// through `source`, the rest are random, and dη spans both sides of
    /// the approximation's dη floor.
    fn mixed_rings(n: usize, seed: u64) -> Vec<ComptonRing> {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        let source = adapt_math::sampling::isotropic_direction(&mut r);
        (0..n)
            .map(|i| {
                let axis = adapt_math::sampling::isotropic_direction(&mut r);
                let d_eta = r.gen_range(0.005..0.12);
                let eta = if i % 3 == 0 {
                    axis.cos_angle_to(source)
                        + d_eta * adapt_math::sampling::standard_normal(&mut r)
                } else {
                    r.gen_range(-1.0..1.0)
                };
                ComptonRing {
                    axis,
                    eta: eta.clamp(-1.0, 1.0),
                    d_eta,
                    features: RingFeatures::zeroed(),
                    truth: None,
                }
            })
            .collect()
    }

    /// The screened argmax picks the scalar loop's direction bit for
    /// bit, on every screen arm the host runs (portable, AVX2, AVX-512),
    /// with and without the hemisphere cut (without it the default draws
    /// 1536 candidates, 192 full 8-wide or 96 full 16-wide screen blocks;
    /// the cut leaves arbitrary counts, so each arm's tail after the
    /// blocks runs too). `ll` is
    /// compared by value: the scalar `Sum` of an all-`-0.0` column is
    /// `-0.0` while the kernel's accumulator starts at `+0.0`; the two
    /// are equal and order the same under the strict `>` argmax.
    #[test]
    fn vectorized_scoring_matches_scalar_loop() {
        for isa in adapt_nn::simd::supported_isas() {
            for (case, &n) in [1usize, 2, 3, 7, 24, 25, 100, 333, 600, 1200]
                .iter()
                .enumerate()
            {
                for (seed, upper_hemisphere_only) in (0..6u64).map(|s| (s, s % 2 == 0)) {
                    let seed = 10 * case as u64 + seed;
                    let rings = mixed_rings(n, 100 + seed);
                    let cfg = ApproxConfig {
                        upper_hemisphere_only,
                        ..Default::default()
                    };
                    let mut rng_new = ChaCha8Rng::seed_from_u64(7 + seed);
                    let mut rng_ref = rng_new.clone();
                    let got = approximate_on(&rings, &cfg, &mut rng_new, isa);
                    let want = approximate_scalar_reference(&rings, &cfg, &mut rng_ref);
                    let ctx = format!("n={n} seed={seed} upper={upper_hemisphere_only} isa={isa}");
                    match (got, want) {
                        (Some((s, ll)), Some((s_ref, ll_ref))) => {
                            let (v, v_ref) = (s.as_vec(), s_ref.as_vec());
                            assert_eq!(
                                [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()],
                                [v_ref.x.to_bits(), v_ref.y.to_bits(), v_ref.z.to_bits()],
                                "direction diverged ({ctx})"
                            );
                            assert_eq!(ll, ll_ref, "ll diverged ({ctx})");
                        }
                        (got, want) => assert_eq!(got.is_some(), want.is_some(), "{ctx}"),
                    }
                    assert_eq!(rng_new.next_u64(), rng_ref.next_u64(), "rng state ({ctx})");
                }
            }
        }
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let source = UnitVec3::PLUS_Z;
        let rings = rings_through(source, 25, 0.02, 5);
        let a = approximate(&rings, &ApproxConfig::default(), &mut rng()).unwrap();
        let b = approximate(&rings, &ApproxConfig::default(), &mut rng()).unwrap();
        assert!((a.1 - b.1).abs() < 1e-12);
        assert!(a.0.angle_to(b.0) < 1e-12);
    }
}
