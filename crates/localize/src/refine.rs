//! Iterative robust refinement (paper §II): maximize the joint likelihood
//! of the source given the rings by alternating
//!
//! 1. *gating* — keep the rings with high enough likelihood under the
//!    current estimate `s_i` (|standardized residual| ≤ gate), and
//! 2. *least squares* — solve the almost-linear problem
//!    `min_s Σ w_i (cᵢ·s − ηᵢ)²` over the gated rings (normal equations +
//!    renormalization to the unit sphere),
//!
//! until the estimate converges.

use crate::likelihood::{cone_geometry, MIN_D_ETA};
use adapt_math::linalg::WeightedLsq3;
use adapt_math::vec3::UnitVec3;
use adapt_recon::ComptonRing;
use serde::{Deserialize, Serialize};

/// Tunables of the refinement stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RefineConfig {
    /// Final gate in standardized-residual sigmas: rings farther than this
    /// from the current estimate are excluded from the least-squares solve.
    pub gate_z: f64,
    /// Initial (annealed) gate: the first iteration gates at this width and
    /// the gate shrinks by `gate_decay` per iteration down to `gate_z`,
    /// letting a coarse starting estimate capture the true rings before
    /// tightening.
    pub gate_z_initial: f64,
    /// Multiplicative per-iteration decay of the annealed gate.
    pub gate_decay: f64,
    /// Convergence threshold on the angular update (radians).
    pub tol: f64,
    /// Maximum gate/solve iterations.
    pub max_iterations: usize,
    /// Ridge regularization of the normal equations.
    pub ridge: f64,
    /// Minimum gated rings required to attempt a solve.
    pub min_rings: usize,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            gate_z: 3.0,
            gate_z_initial: 6.0,
            gate_decay: 0.7,
            tol: 1e-4,
            max_iterations: 30,
            ridge: 1e-6,
            min_rings: 3,
        }
    }
}

/// The outcome of refinement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RefineResult {
    /// The refined source direction.
    pub direction: UnitVec3,
    /// Number of gate/solve iterations executed.
    pub iterations: usize,
    /// Rings inside the gate at convergence.
    pub inlier_count: usize,
    /// Whether the angular update dropped below tolerance.
    pub converged: bool,
}

/// Refine `initial` against `rings`. Returns `None` when fewer than
/// `min_rings` rings ever pass the gate (no usable solution).
pub fn refine(
    rings: &[ComptonRing],
    initial: UnitVec3,
    config: &RefineConfig,
) -> Option<RefineResult> {
    // each ring's (cone angle, angular sigma) is the same every iteration;
    // the gate residual is `angular_z` with this geometry hoisted
    let cones: Vec<(f64, f64)> = rings.iter().map(|r| cone_geometry(r, r.d_eta)).collect();
    let mut s = initial;
    let mut lsq = WeightedLsq3::new();
    let mut inliers = 0usize;
    for iteration in 0..config.max_iterations {
        let gate =
            (config.gate_z_initial * config.gate_decay.powi(iteration as i32)).max(config.gate_z);
        lsq.reset();
        inliers = 0;
        for (ring, &(cone_theta, sigma)) in rings.iter().zip(&cones) {
            let z = (ring.axis.angle_to(s) - cone_theta) / sigma;
            if z.abs() <= gate {
                let d = ring.d_eta.max(MIN_D_ETA);
                lsq.add(ring.axis.as_vec(), ring.eta, 1.0 / (d * d));
                inliers += 1;
            }
        }
        if inliers < config.min_rings {
            return None;
        }
        let solution = lsq.solve(config.ridge)?;
        let next = solution.try_normalize()?;
        let delta = s.angle_to(next);
        s = next;
        // only declare convergence once the annealed gate has tightened to
        // its final width — a stable solution under a wide gate may still
        // be background-polluted
        if delta < config.tol && gate <= config.gate_z * 1.0001 {
            return Some(RefineResult {
                direction: s,
                iterations: iteration + 1,
                inlier_count: inliers,
                converged: true,
            });
        }
    }
    Some(RefineResult {
        direction: s,
        iterations: config.max_iterations,
        inlier_count: inliers,
        converged: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_math::angles::angular_separation;
    use adapt_recon::RingFeatures;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rings_through(source: UnitVec3, n: usize, jitter: f64, seed: u64) -> Vec<ComptonRing> {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let axis = adapt_math::sampling::isotropic_direction(&mut r);
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

    #[test]
    fn converges_to_exact_source_with_clean_rings() {
        let source = UnitVec3::from_spherical(0.6, 2.2);
        let rings = rings_through(source, 50, 0.0, 1);
        let start = UnitVec3::from_spherical(0.7, 2.0); // a few degrees off
        let res = refine(&rings, start, &RefineConfig::default()).unwrap();
        assert!(res.converged);
        assert!(
            angular_separation(res.direction, source) < 0.1,
            "residual error {} deg",
            angular_separation(res.direction, source)
        );
        assert_eq!(res.inlier_count, 50);
    }

    #[test]
    fn improves_noisy_start() {
        let source = UnitVec3::from_spherical(0.3, -1.0);
        let rings = rings_through(source, 120, 0.02, 2);
        let start = UnitVec3::from_spherical(0.45, -0.8);
        let before = angular_separation(start, source);
        let res = refine(&rings, start, &RefineConfig::default()).unwrap();
        let after = angular_separation(res.direction, source);
        assert!(after < before, "{after} !< {before}");
        assert!(after < 2.0, "final error {after} deg");
    }

    #[test]
    fn gates_out_background() {
        let source = UnitVec3::from_spherical(0.5, 0.0);
        let mut rings = rings_through(source, 60, 0.015, 3);
        let mut r = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..120 {
            rings.push(ComptonRing {
                axis: adapt_math::sampling::isotropic_direction(&mut r),
                eta: r.gen_range(-0.9..0.9),
                d_eta: 0.02,
                features: RingFeatures::zeroed(),
                truth: None,
            });
        }
        let start = UnitVec3::from_spherical(0.55, 0.1);
        let res = refine(&rings, start, &RefineConfig::default()).unwrap();
        let err = angular_separation(res.direction, source);
        assert!(err < 2.5, "error with 2:1 background contamination: {err}");
        // most inliers should be true rings, most background gated away
        assert!(res.inlier_count < 130, "inliers {}", res.inlier_count);
    }

    #[test]
    fn too_few_rings_is_none() {
        let source = UnitVec3::PLUS_Z;
        let rings = rings_through(source, 2, 0.01, 5);
        assert!(refine(&rings, source, &RefineConfig::default()).is_none());
    }

    #[test]
    fn far_start_with_tight_gate_fails_gracefully() {
        let source = UnitVec3::PLUS_Z;
        let rings = rings_through(source, 30, 0.002, 6);
        // start 90 degrees away with a tight gate: nothing passes
        let start = UnitVec3::PLUS_X;
        let cfg = RefineConfig {
            gate_z: 0.5,
            ..Default::default()
        };
        let res = refine(&rings, start, &cfg);
        // either None (no inliers) or converged somewhere; must not panic
        if let Some(r) = res {
            assert!(r.inlier_count >= cfg.min_rings);
        }
    }

    #[test]
    fn iteration_count_bounded() {
        let source = UnitVec3::PLUS_Z;
        let rings = rings_through(source, 40, 0.05, 7);
        let cfg = RefineConfig {
            max_iterations: 2,
            tol: 0.0, // never converge by tolerance
            ..Default::default()
        };
        let res = refine(&rings, UnitVec3::from_spherical(0.2, 0.0), &cfg).unwrap();
        assert_eq!(res.iterations, 2);
        assert!(!res.converged);
    }
}
