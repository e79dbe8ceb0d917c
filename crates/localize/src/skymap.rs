//! Probability sky maps: the mission product behind the localization.
//!
//! Follow-up observatories consume not just a best-fit direction but a
//! credible region ("90 % containment contour"). This module rasterizes
//! the joint ring likelihood over the visible (upper) hemisphere on an
//! equal-area grid and extracts credible-region areas — the quantity that
//! determines whether a narrow-field telescope can tile the uncertainty.

use crate::likelihood::cone_geometry;
use adapt_math::vec3::UnitVec3;
use adapt_nn::simd::{sweep_cone_logls, ConeGeom};
use adapt_recon::ComptonRing;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// An equal-area pixelization of the upper hemisphere: belts of constant
/// polar angle, each subdivided so every pixel subtends roughly the same
/// solid angle (a simple Lambert-belt scheme). The belt structure is
/// retained so a direction can be mapped to its containing pixel in O(1)
/// — the lookup the coarse-to-fine rasterizer is built on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HemisphereGrid {
    /// Pixel centers.
    centers: Vec<UnitVec3>,
    /// Solid angle per pixel (steradians) — equal across pixels by
    /// construction, stored for area computations.
    pixel_solid_angle: f64,
    /// Number of equal-`cos θ` belts.
    n_belts: usize,
    /// Start index of each belt's pixels in `centers`, plus a final
    /// `centers.len()` sentinel.
    belt_offsets: Vec<usize>,
}

impl HemisphereGrid {
    /// Build a grid with approximately `target_pixels` pixels.
    pub fn new(target_pixels: usize) -> Self {
        assert!(target_pixels >= 4);
        // belts of equal sin-theta spacing in cos(theta): equal area
        let n_belts = ((target_pixels as f64 / 4.0).sqrt().round() as usize).max(2);
        let mut centers = Vec::new();
        let mut belt_offsets = Vec::with_capacity(n_belts + 1);
        for b in 0..n_belts {
            belt_offsets.push(centers.len());
            // cos(theta) descends from 1 to 0 in equal steps: equal area
            let cos_hi = 1.0 - b as f64 / n_belts as f64;
            let cos_lo = 1.0 - (b + 1) as f64 / n_belts as f64;
            let cos_mid = 0.5 * (cos_hi + cos_lo);
            let theta = cos_mid.clamp(0.0, 1.0).acos();
            // pixels in this belt proportional to its circumference
            let n_pix = ((2.0 * std::f64::consts::PI * theta.sin() * n_belts as f64).ceil()
                as usize)
                .max(1);
            for p in 0..n_pix {
                let phi = std::f64::consts::TAU * (p as f64 + 0.5) / n_pix as f64;
                centers.push(UnitVec3::from_spherical(theta, phi));
            }
        }
        belt_offsets.push(centers.len());
        let pixel_solid_angle = 2.0 * std::f64::consts::PI / centers.len() as f64;
        HemisphereGrid {
            centers,
            pixel_solid_angle,
            n_belts,
            belt_offsets,
        }
    }

    /// Number of pixels.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// True if the grid is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }

    /// Pixel centers.
    pub fn centers(&self) -> &[UnitVec3] {
        &self.centers
    }

    /// Solid angle of one pixel (sr).
    pub fn pixel_solid_angle(&self) -> f64 {
        self.pixel_solid_angle
    }

    /// Number of constant-`cos θ` belts.
    pub fn n_belts(&self) -> usize {
        self.n_belts
    }

    /// The pixel index range of belt `b`.
    pub fn belt_pixels(&self, b: usize) -> std::ops::Range<usize> {
        self.belt_offsets[b]..self.belt_offsets[b + 1]
    }

    /// Index of the pixel containing `dir` — O(1): the belt from
    /// `cos θ = z`, the pixel within the belt from the azimuth.
    pub fn pixel_of(&self, dir: UnitVec3) -> usize {
        let v = dir.as_vec();
        let b = (((1.0 - v.z) * self.n_belts as f64) as usize).min(self.n_belts - 1);
        let range = self.belt_pixels(b);
        let n_pix = range.len();
        let mut phi = dir.azimuth();
        if phi < 0.0 {
            phi += std::f64::consts::TAU;
        }
        let p = ((phi / std::f64::consts::TAU * n_pix as f64) as usize).min(n_pix - 1);
        range.start + p
    }

    /// An upper bound on the angular distance (radians) from belt `b`'s
    /// pixel centers to any point inside the pixel: the polar half-extent
    /// plus the azimuthal half-extent traversed at the belt's widest
    /// parallel. This is the enclosing-cone radius the coarse-to-fine
    /// bound propagates.
    pub fn pixel_radius(&self, b: usize) -> f64 {
        let n = self.n_belts as f64;
        let cos_hi = 1.0 - b as f64 / n;
        let cos_lo = 1.0 - (b + 1) as f64 / n;
        let theta_hi = cos_hi.clamp(0.0, 1.0).acos();
        let theta_lo = cos_lo.clamp(0.0, 1.0).acos();
        let theta_c = (0.5 * (cos_hi + cos_lo)).clamp(0.0, 1.0).acos();
        let rho_theta = (theta_c - theta_hi).max(theta_lo - theta_c);
        let n_pix = self.belt_pixels(b).len() as f64;
        rho_theta + theta_lo.sin() * std::f64::consts::PI / n_pix
    }
}

/// A posterior probability map over the upper hemisphere.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkyMap {
    grid: HemisphereGrid,
    /// Normalized pixel probabilities (sum = 1).
    probabilities: Vec<f64>,
}

/// Log-likelihood cut below the running maximum past which pixels cannot
/// contribute visible posterior mass: `e^-34 ≈ 2·10⁻¹⁵` relative weight is
/// below `f64` summation precision, so coarse cells bounded under the cut
/// are inherited instead of refined.
pub const ADAPTIVE_LOGL_CUT: f64 = 34.0;

/// Ratio of fine pixels to coarse cells in the coarse-to-fine pass.
const COARSE_RATIO: usize = 64;

/// Minimum fine-grid size for which the coarse-to-fine pass is worth its
/// bookkeeping; below this `from_rings_adaptive` falls back to the flat
/// sweep.
const MIN_ADAPTIVE_PIXELS: usize = 1024;

/// Precompute one [`ConeGeom`] per ring for the shared vectorized cone
/// sweep ([`adapt_nn::simd::sweep_cone_logls`]) — the translation from
/// the ring's measured `(η, dη)` into the cone geometry the sweep
/// scores. Shared by the raster and HEALPix rasterizers so both
/// pixelizations accumulate bit-identical per-pixel log-likelihoods.
pub fn ring_cone_geoms(rings: &[ComptonRing], floor_z: f64) -> Vec<ConeGeom> {
    ring_cone_geoms_scaled(rings, floor_z, 1.0)
}

/// [`ring_cone_geoms`] with every ring's angular sigma inflated by
/// `sigma_scale` — the coverage-calibration knob: a posterior that
/// empirically under-covers is widened (scale > 1), one that
/// over-covers is sharpened (scale < 1). `sigma_scale = 1` is exactly
/// [`ring_cone_geoms`].
pub fn ring_cone_geoms_scaled(
    rings: &[ComptonRing],
    floor_z: f64,
    sigma_scale: f64,
) -> Vec<ConeGeom> {
    rings
        .iter()
        .map(|r| ring_cone_geom(r, r.d_eta, floor_z, sigma_scale))
        .collect()
}

/// One ring's [`ConeGeom`] scored at uncertainty `d_eta` (the sky maps
/// pass the ring's own dη, the approximation stage its floored dη),
/// with the angular sigma inflated by `sigma_scale`.
pub(crate) fn ring_cone_geom(
    ring: &ComptonRing,
    d_eta: f64,
    floor_z: f64,
    sigma_scale: f64,
) -> ConeGeom {
    let (cone_theta, sigma) = cone_geometry(ring, d_eta);
    let sigma = sigma * sigma_scale;
    ConeGeom {
        axis: ring.axis,
        eta: ring.eta.clamp(-1.0, 1.0),
        cone_theta,
        sigma,
        skip_gap: floor_z * sigma,
    }
}

impl SkyMap {
    /// Rasterize the joint robust likelihood of `rings` over `grid` with
    /// a flat sweep of every pixel — the O(pixels × rings) reference
    /// implementation. Log-likelihoods are stabilized by subtracting the
    /// maximum before exponentiation.
    pub fn from_rings(rings: &[ComptonRing], grid: HemisphereGrid, floor_z: f64) -> Self {
        assert!(!rings.is_empty(), "cannot map an empty ring set");
        let geoms = ring_cone_geoms(rings, floor_z);
        Self::from_cones_flat(&geoms, grid, floor_z)
    }

    /// Flat sweep over precomputed cone geometries — the entry point for
    /// callers that already translated (and possibly sigma-scaled) their
    /// rings via [`ring_cone_geoms_scaled`].
    pub fn from_cones_flat(geoms: &[ConeGeom], grid: HemisphereGrid, floor_z: f64) -> Self {
        Self::from_cones_flat_tempered(geoms, grid, floor_z, 1.0)
    }

    /// [`SkyMap::from_cones_flat`] with the log-likelihood divided by
    /// `temperature` before exponentiation (see
    /// [`SkyMap::from_rings_adaptive_tempered_recorded`]).
    pub fn from_cones_flat_tempered(
        geoms: &[ConeGeom],
        grid: HemisphereGrid,
        floor_z: f64,
        temperature: f64,
    ) -> Self {
        assert!(!geoms.is_empty(), "cannot map an empty cone set");
        let floor_const = -0.5 * floor_z * floor_z;
        let logls = sweep_cone_logls(geoms, &grid.centers, floor_const);
        Self::from_logls(grid, logls, temperature)
    }

    /// Coarse-to-fine rasterization: score a coarse grid first, bound
    /// each coarse cell's joint log-likelihood from above, and refine at
    /// full resolution only the cells whose bound can still reach within
    /// [`ADAPTIVE_LOGL_CUT`] of the running maximum; every other fine
    /// pixel inherits its cell center's value, whose posterior weight is
    /// below `f64` precision by construction. Per ring, a cosine-space
    /// distance test skips the `acos` whenever the robust likelihood is
    /// provably floored.
    ///
    /// Produces the same credible regions as [`SkyMap::from_rings`] (the
    /// property tests pin the areas to within one pixel) at a fraction of
    /// the cost: sub-quadratic in practice because the refined region
    /// shrinks as the ring count — and hence the posterior concentration
    /// — grows.
    pub fn from_rings_adaptive(rings: &[ComptonRing], grid: HemisphereGrid, floor_z: f64) -> Self {
        Self::from_rings_adaptive_recorded(rings, grid, floor_z, adapt_telemetry::noop())
    }

    /// [`SkyMap::from_rings_adaptive`] with the rasterization wall time
    /// reported to `recorder` under [`adapt_telemetry::Stage::SkymapRasterize`].
    pub fn from_rings_adaptive_recorded(
        rings: &[ComptonRing],
        grid: HemisphereGrid,
        floor_z: f64,
        recorder: &dyn adapt_telemetry::Recorder,
    ) -> Self {
        Self::from_rings_adaptive_tempered_recorded(rings, grid, floor_z, 1.0, recorder)
    }

    /// [`SkyMap::from_rings_adaptive_recorded`] with the joint
    /// log-likelihood divided by `temperature` before exponentiation —
    /// posterior ∝ L^(1/T). Tempering leaves the mode exactly where the
    /// untempered posterior puts it while widening every credible
    /// region, so a temperature fit by the coverage-calibration campaign
    /// makes the stated credibility honest without degrading the point
    /// estimate. The adaptive refinement window is widened to
    /// `ADAPTIVE_LOGL_CUT × temperature` so unrefined pixels stay below
    /// `f64` resolution *after* tempering.
    pub fn from_rings_adaptive_tempered_recorded(
        rings: &[ComptonRing],
        grid: HemisphereGrid,
        floor_z: f64,
        temperature: f64,
        recorder: &dyn adapt_telemetry::Recorder,
    ) -> Self {
        let t0 = std::time::Instant::now();
        let map = Self::from_rings_adaptive_inner(rings, grid, floor_z, temperature);
        recorder.duration(adapt_telemetry::Stage::SkymapRasterize, t0.elapsed());
        map
    }

    fn from_rings_adaptive_inner(
        rings: &[ComptonRing],
        grid: HemisphereGrid,
        floor_z: f64,
        temperature: f64,
    ) -> Self {
        assert!(!rings.is_empty(), "cannot map an empty ring set");
        assert!(temperature > 0.0, "temperature must be positive");
        if grid.len() < MIN_ADAPTIVE_PIXELS {
            let geoms = ring_cone_geoms(rings, floor_z);
            return Self::from_cones_flat_tempered(&geoms, grid, floor_z, temperature);
        }
        let floor_const = -0.5 * floor_z * floor_z;
        let geoms = ring_cone_geoms(rings, floor_z);

        // coarse pass: exact value and joint upper bound per coarse cell
        let coarse = HemisphereGrid::new((grid.len() / COARSE_RATIO).max(64));
        let radii: Vec<f64> = (0..coarse.n_belts())
            .flat_map(|b| {
                let rho = coarse.pixel_radius(b);
                coarse.belt_pixels(b).map(move |_| rho)
            })
            .collect();
        let cell_scores: Vec<(f64, f64)> = (0..coarse.len())
            .into_par_iter()
            .map(|j| {
                let c = coarse.centers[j];
                let rho = radii[j];
                let mut exact = 0.0;
                let mut bound = 0.0;
                for g in &geoms {
                    let (e, u) = g.cell_logl_and_bound(c, rho, floor_const);
                    exact += e;
                    bound += u;
                }
                (exact, bound)
            })
            .collect();
        let coarse_max = cell_scores
            .iter()
            .map(|&(e, _)| e)
            .fold(f64::NEG_INFINITY, f64::max);
        let cut = coarse_max - ADAPTIVE_LOGL_CUT * temperature;

        // fine pass: refine only cells whose bound clears the cut. The
        // surviving pixels are compacted into one contiguous plane so the
        // vector sweep runs dense, then scattered back; inherited pixels
        // copy their cell center's exact value.
        let decisions: Vec<(bool, f64)> = grid
            .centers
            .par_iter()
            .map(|&c| {
                let (exact, bound) = cell_scores[coarse.pixel_of(c)];
                (bound >= cut, exact)
            })
            .collect();
        let mut logls = vec![0.0f64; grid.len()];
        let mut refine_idx = Vec::new();
        for (i, &(refine, exact)) in decisions.iter().enumerate() {
            if refine {
                refine_idx.push(i);
            } else {
                logls[i] = exact;
            }
        }
        let refine_centers: Vec<UnitVec3> = refine_idx.iter().map(|&i| grid.centers[i]).collect();
        let refined = sweep_cone_logls(&geoms, &refine_centers, floor_const);
        for (&i, &l) in refine_idx.iter().zip(&refined) {
            logls[i] = l;
        }
        Self::from_logls(grid, logls, temperature)
    }

    /// Normalize raw log-likelihoods into a probability map, dividing by
    /// `temperature` before exponentiation.
    fn from_logls(grid: HemisphereGrid, logls: Vec<f64>, temperature: f64) -> Self {
        let max = logls.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut probabilities: Vec<f64> = logls
            .iter()
            .map(|&l| ((l - max) / temperature).exp())
            .collect();
        let total: f64 = probabilities.iter().sum();
        for p in probabilities.iter_mut() {
            *p /= total;
        }
        SkyMap {
            grid,
            probabilities,
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &HemisphereGrid {
        &self.grid
    }

    /// Pixel probabilities (normalized).
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// The maximum-probability direction.
    pub fn mode(&self) -> UnitVec3 {
        let idx = self
            .probabilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN probability"))
            .map(|(i, _)| i)
            .expect("non-empty map");
        self.grid.centers[idx]
    }

    /// The solid angle (steradians) of the smallest pixel set containing
    /// `credibility` of the posterior mass — the follow-up tiling area.
    pub fn credible_region_sr(&self, credibility: f64) -> f64 {
        assert!((0.0..=1.0).contains(&credibility));
        let mut sorted: Vec<f64> = self.probabilities.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("NaN probability"));
        let mut mass = 0.0;
        let mut pixels = 0usize;
        for p in sorted {
            mass += p;
            pixels += 1;
            if mass >= credibility {
                break;
            }
        }
        pixels as f64 * self.grid.pixel_solid_angle
    }

    /// Credible region expressed as the radius (degrees) of the disc with
    /// the same solid angle — comparable to containment radii.
    pub fn credible_radius_deg(&self, credibility: f64) -> f64 {
        let sr = self.credible_region_sr(credibility);
        // solid angle of a cone of half-angle a: 2*pi*(1-cos a)
        let cos_a = (1.0 - sr / (2.0 * std::f64::consts::PI)).clamp(-1.0, 1.0);
        cos_a.acos().to_degrees()
    }

    /// Total probability of all pixels *more probable than* the pixel
    /// containing `dir` — the "searched mass" statistic: `dir` is inside
    /// the `c`-credible region exactly when its searched mass is below
    /// `c`. Directions below the horizon are outside every region the
    /// hemisphere raster can express and score 1.
    pub fn searched_mass(&self, dir: UnitVec3) -> f64 {
        if dir.as_vec().z < 0.0 {
            return 1.0;
        }
        let p_here = self.probabilities[self.grid.pixel_of(dir)];
        self.probabilities.iter().filter(|&&p| p > p_here).sum()
    }

    /// Posterior mass within `radius_deg` of a direction — the probability
    /// that the source sits inside a follow-up telescope's field of view.
    pub fn mass_within(&self, center: UnitVec3, radius_deg: f64) -> f64 {
        let cos_r = radius_deg.to_radians().cos();
        self.grid
            .centers
            .iter()
            .zip(&self.probabilities)
            .filter(|(c, _)| c.cos_angle_to(center) >= cos_r)
            .map(|(_, &p)| p)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_math::angles::angular_separation;
    use adapt_recon::RingFeatures;
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
                    d_eta: jitter.max(0.01),
                    features: RingFeatures::zeroed(),
                    truth: None,
                }
            })
            .collect()
    }

    #[test]
    fn grid_covers_hemisphere_equally() {
        let grid = HemisphereGrid::new(1000);
        assert!(grid.len() >= 500, "{} pixels", grid.len());
        // all pixels above the horizon
        assert!(grid.centers().iter().all(|c| c.as_vec().z >= -1e-12));
        // total solid angle = 2 pi
        let total = grid.len() as f64 * grid.pixel_solid_angle();
        assert!((total - 2.0 * std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn map_peaks_at_the_source() {
        let source = UnitVec3::from_spherical(0.5, 1.0);
        let rings = rings_through(source, 60, 0.02, 1);
        let map = SkyMap::from_rings(&rings, HemisphereGrid::new(3000), 3.0);
        let mode = map.mode();
        assert!(
            angular_separation(mode, source) < 4.0,
            "mode off by {} deg",
            angular_separation(mode, source)
        );
    }

    #[test]
    fn credible_region_grows_with_credibility_and_uncertainty() {
        let source = UnitVec3::from_spherical(0.3, -0.5);
        let tight = SkyMap::from_rings(
            &rings_through(source, 80, 0.01, 2),
            HemisphereGrid::new(3000),
            3.0,
        );
        let loose = SkyMap::from_rings(
            &rings_through(source, 20, 0.08, 3),
            HemisphereGrid::new(3000),
            3.0,
        );
        assert!(tight.credible_region_sr(0.9) >= tight.credible_region_sr(0.5));
        assert!(
            loose.credible_region_sr(0.9) > tight.credible_region_sr(0.9),
            "loose {} !> tight {}",
            loose.credible_region_sr(0.9),
            tight.credible_region_sr(0.9)
        );
        // radii are consistent transformations
        assert!(tight.credible_radius_deg(0.9) > 0.0);
    }

    #[test]
    fn probabilities_normalized_and_mass_within_covers() {
        let source = UnitVec3::from_spherical(0.4, 2.0);
        let rings = rings_through(source, 50, 0.02, 4);
        let map = SkyMap::from_rings(&rings, HemisphereGrid::new(2000), 3.0);
        let total: f64 = map.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // nearly all mass within 20 degrees of the source for tight rings
        let near = map.mass_within(source, 20.0);
        assert!(near > 0.8, "mass near source {near}");
        // whole hemisphere = 1
        assert!((map.mass_within(UnitVec3::PLUS_Z, 180.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn empty_rings_panics() {
        SkyMap::from_rings(&[], HemisphereGrid::new(100), 3.0);
    }

    #[test]
    fn pixel_of_is_inverse_of_centers() {
        for target in [64, 1000, 5000] {
            let grid = HemisphereGrid::new(target);
            for (i, &c) in grid.centers().iter().enumerate() {
                assert_eq!(grid.pixel_of(c), i, "center {i} of {target}-pixel grid");
            }
        }
    }

    #[test]
    fn pixel_radius_encloses_cell() {
        let grid = HemisphereGrid::new(800);
        let mut r = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..2000 {
            let dir = adapt_math::sampling::isotropic_direction(&mut r);
            let v = dir.as_vec();
            let dir = if v.z < 0.0 {
                adapt_math::vec3::Vec3::from_array([v.x, v.y, -v.z]).normalized()
            } else {
                dir
            };
            let p = grid.pixel_of(dir);
            // recover the belt of pixel p
            let b = (0..grid.n_belts())
                .find(|&b| grid.belt_pixels(b).contains(&p))
                .unwrap();
            let dist = grid.centers()[p].angle_to(dir);
            let rho = grid.pixel_radius(b);
            assert!(
                dist <= rho + 1e-12,
                "point {dist} rad from its pixel center, radius bound {rho}"
            );
        }
    }

    #[test]
    fn adaptive_matches_flat_sweep() {
        let source = UnitVec3::from_spherical(0.45, 1.2);
        let rings = rings_through(source, 70, 0.02, 12);
        let grid = HemisphereGrid::new(12000);
        let flat = SkyMap::from_rings(&rings, grid.clone(), 3.0);
        let adaptive = SkyMap::from_rings_adaptive(&rings, grid, 3.0);
        let tol = flat.grid().pixel_solid_angle();
        for cred in [0.5, 0.9, 0.99] {
            let a = flat.credible_region_sr(cred);
            let b = adaptive.credible_region_sr(cred);
            assert!(
                (a - b).abs() <= tol + 1e-12,
                "{cred}: flat {a} sr vs adaptive {b} sr"
            );
        }
        assert!(angular_separation(flat.mode(), adaptive.mode()) < 1.0);
        // every refined (high-probability) pixel is numerically identical
        let total_diff: f64 = flat
            .probabilities()
            .iter()
            .zip(adaptive.probabilities())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(total_diff < 1e-9, "probability L1 difference {total_diff}");
    }

    #[test]
    fn simd_sweep_bit_identical_to_portable() {
        let source = UnitVec3::from_spherical(0.35, 0.8);
        let rings = rings_through(source, 40, 0.03, 21);
        let grid = HemisphereGrid::new(3000);
        adapt_nn::simd::set_force_portable(true);
        let portable = SkyMap::from_rings(&rings, grid.clone(), 3.0);
        let portable_adaptive = SkyMap::from_rings_adaptive(&rings, HemisphereGrid::new(8000), 3.0);
        adapt_nn::simd::set_force_portable(false);
        let vector = SkyMap::from_rings(&rings, grid, 3.0);
        let vector_adaptive = SkyMap::from_rings_adaptive(&rings, HemisphereGrid::new(8000), 3.0);
        // restore the env-derived default for the rest of the binary
        let env_forced = std::env::var("ADAPT_FORCE_PORTABLE")
            .map(|v| v == "1")
            .unwrap_or(false);
        adapt_nn::simd::set_force_portable(env_forced);
        for (x, y) in portable.probabilities().iter().zip(vector.probabilities()) {
            assert_eq!(x, y, "flat sweep must not depend on ISA");
        }
        for (x, y) in portable_adaptive
            .probabilities()
            .iter()
            .zip(vector_adaptive.probabilities())
        {
            assert_eq!(x, y, "adaptive sweep must not depend on ISA");
        }
    }

    #[test]
    fn adaptive_small_grid_falls_back() {
        let source = UnitVec3::from_spherical(0.2, 0.0);
        let rings = rings_through(source, 30, 0.03, 13);
        let grid = HemisphereGrid::new(500);
        let flat = SkyMap::from_rings(&rings, grid.clone(), 3.0);
        let adaptive = SkyMap::from_rings_adaptive(&rings, grid, 3.0);
        for (x, y) in flat.probabilities().iter().zip(adaptive.probabilities()) {
            assert_eq!(x, y, "fallback must be bit-identical");
        }
    }
}
