//! Probability sky maps: the mission product behind the localization.
//!
//! Follow-up observatories consume not just a best-fit direction but a
//! credible region ("90 % containment contour"). [`SkyPosterior`]
//! rasterizes the joint robust ring likelihood over a [`SkyGrid`] on
//! either pixelization and extracts credible-region areas — the
//! quantity that determines whether a narrow-field telescope can tile
//! the uncertainty. The rasterizer, normalization and every statistic
//! are written once; only the grid's geometry knows the scheme.

use crate::likelihood::cone_geometry;
use crate::pixelization::{SkyGrid, SkyPixelization};
use adapt_math::vec3::UnitVec3;
use adapt_nn::simd::{detected_isa, sweep_cone_logls, ConeGeom, KernelIsa};
use adapt_recon::ComptonRing;
use adapt_telemetry::{Recorder, Stage};
use rayon::prelude::*;

/// An equal-area pixelization of the upper hemisphere: belts of constant
/// polar angle, each subdivided so every pixel subtends roughly the same
/// solid angle (a simple Lambert-belt scheme). The belt structure is
/// retained so a direction can be mapped to its containing pixel in O(1)
/// — the lookup the coarse-to-fine rasterizer is built on.
#[derive(Debug, Clone)]
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

/// Log-likelihood cut below the running maximum past which pixels cannot
/// contribute visible posterior mass: `e^-34 ≈ 2·10⁻¹⁵` relative weight is
/// below `f64` summation precision, so coarse cells bounded under the cut
/// are inherited instead of refined.
pub const ADAPTIVE_LOGL_CUT: f64 = 34.0;

/// Minimum fine-grid size for which the coarse-to-fine pass is worth its
/// bookkeeping; below this [`SkyPosterior::adaptive`] falls back to the
/// flat sweep. For HEALPix this is `nside ≥ 16`.
const MIN_ADAPTIVE_PIXELS: usize = 1024;

/// Coefficient of the ring-count-adaptive likelihood temperature
/// [`SkyPosterior::from_rings_adaptive`] applies (see
/// [`default_temperature`]). Fit by the coverage-calibration campaign
/// (`adapt calibrate`, persisted in `BENCH_calibration.json`); re-fit
/// whenever the reconstruction or perturbation model changes.
pub const TEMPERATURE_RING_COEFF: f64 = 0.24;

/// The likelihood temperature applied when none is given explicitly:
/// posterior ∝ L^(1/T) with `T = max(1, coeff·√N)` for `N` rings.
///
/// The per-ring error model misses the systematic
/// (perturbation-driven) component of the localization error, so the
/// untempered product of N ring likelihoods is far sharper than the
/// true error distribution — its statistical width shrinks like 1/√N
/// against a systematic floor that does not, so credible regions
/// under-cover and the shortfall grows with burst brightness. The
/// calibration campaign measures the required temperature scaling as
/// √N across its constant signal-to-background grid (T*≈7 at ~870
/// rings, T*≈12 at ~2590), which is what a fixed
/// systematic-to-statistical variance ratio predicts. Off that
/// population the law errs conservative: a bright burst on a quiet
/// sky over-covers slightly (regions a touch too wide, never too
/// narrow).
pub fn default_temperature(n_rings: usize) -> f64 {
    (TEMPERATURE_RING_COEFF * (n_rings as f64).sqrt()).max(1.0)
}

/// Precompute one [`ConeGeom`] per ring for the shared vectorized cone
/// sweep ([`adapt_nn::simd::sweep_cone_logls`]) — the translation from
/// the ring's measured `(η, dη)` into the cone geometry the sweep
/// scores.
pub fn ring_cone_geoms(rings: &[ComptonRing], floor_z: f64) -> Vec<ConeGeom> {
    rings
        .iter()
        .map(|r| ring_cone_geom(r, r.d_eta, floor_z))
        .collect()
}

/// One ring's [`ConeGeom`] scored at uncertainty `d_eta` (the sky maps
/// pass the ring's own dη, the approximation stage its floored dη).
pub(crate) fn ring_cone_geom(ring: &ComptonRing, d_eta: f64, floor_z: f64) -> ConeGeom {
    let (cone_theta, sigma) = cone_geometry(ring, d_eta);
    ConeGeom {
        axis: ring.axis,
        eta: ring.eta.clamp(-1.0, 1.0),
        cone_theta,
        sigma,
        skip_gap: floor_z * sigma,
    }
}

/// The robust likelihood's floor: the log-likelihood of a ring whose
/// cone passes farther than `floor_z` sigma from a pixel.
fn floor_const(floor_z: f64) -> f64 {
    -0.5 * floor_z * floor_z
}

/// The cone set of a non-empty ring set, for a positive temperature.
fn checked_cones(rings: &[ComptonRing], floor_z: f64, temperature: f64) -> Vec<ConeGeom> {
    assert!(!rings.is_empty(), "cannot map an empty ring set");
    assert!(temperature > 0.0, "temperature must be positive");
    ring_cone_geoms(rings, floor_z)
}

/// Raw joint log-likelihood of every pixel, swept flat on `isa`'s arm
/// — the O(pixels × rings) reference.
fn flat_logls(grid: &SkyGrid, geoms: &[ConeGeom], floor_z: f64, isa: KernelIsa) -> Vec<f64> {
    sweep_cone_logls(geoms, &grid.centers(), floor_const(floor_z), isa)
}

/// Coarse-to-fine raw log-likelihoods, plus the ascending indices of
/// the pixels that were refined (swept on `isa`'s arm).
///
/// A coarse pass scores every coarse cell exactly at its center and
/// bounds the joint log-likelihood from above over the cell's
/// enclosing cone. Only cells whose bound reaches within
/// `ADAPTIVE_LOGL_CUT × temperature` of the coarse maximum are refined:
/// their fine pixels are compacted into one plane, swept densely in
/// ascending index order, and are bit-identical to the flat sweep (same
/// centers, same kernel, same per-pixel ring-order summation). Every
/// other pixel inherits its cell center's exact value, whose posterior
/// weight stays below `f64` resolution after tempering.
fn adaptive_logls(
    grid: &SkyGrid,
    geoms: &[ConeGeom],
    floor_z: f64,
    temperature: f64,
    isa: KernelIsa,
) -> (Vec<f64>, Vec<usize>) {
    let floor_const = floor_const(floor_z);
    let coarse = grid.coarse();
    let cell_scores: Vec<(f64, f64)> = (0..coarse.grid.len())
        .into_par_iter()
        .map(|j| {
            let c = coarse.grid.center(j);
            let rho = coarse.radii[j];
            let mut exact = 0.0;
            let mut bound = 0.0;
            for g in geoms {
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

    let mut logls = vec![0.0f64; grid.len()];
    let mut refine_idx = Vec::new();
    for (i, &cell) in coarse.cell_of.iter().enumerate() {
        let (exact, bound) = cell_scores[cell];
        if bound >= cut {
            refine_idx.push(i);
        } else {
            logls[i] = exact;
        }
    }
    let refine_centers: Vec<UnitVec3> = refine_idx.par_iter().map(|&i| grid.center(i)).collect();
    let refined = sweep_cone_logls(geoms, &refine_centers, floor_const, isa);
    for (&i, &l) in refine_idx.iter().zip(&refined) {
        logls[i] = l;
    }
    (logls, refine_idx)
}

/// A normalized posterior probability map over a [`SkyGrid`].
#[derive(Debug, Clone)]
pub struct SkyPosterior {
    grid: SkyGrid,
    /// Normalized pixel probabilities (sum = 1), in the grid's pixel order.
    probabilities: Vec<f64>,
}

impl SkyPosterior {
    /// Rasterize the joint robust likelihood of `rings` coarse-to-fine
    /// on the chosen pixelization at the ring-count-adaptive
    /// [`default_temperature`]. `target_pixels` is the hemisphere pixel
    /// budget (see [`SkyGrid::new`]).
    pub fn from_rings_adaptive(
        pixelization: SkyPixelization,
        rings: &[ComptonRing],
        target_pixels: usize,
        floor_z: f64,
    ) -> Self {
        Self::adaptive(
            SkyGrid::new(pixelization, target_pixels),
            rings,
            floor_z,
            default_temperature(rings.len()),
            adapt_telemetry::noop(),
        )
    }

    /// Rasterize with a flat sweep of every pixel — the reference the
    /// coarse-to-fine pass is checked against. The joint log-likelihood
    /// is divided by `temperature` before exponentiation.
    pub fn flat(grid: SkyGrid, rings: &[ComptonRing], floor_z: f64, temperature: f64) -> Self {
        Self::flat_on(grid, rings, floor_z, temperature, detected_isa())
    }

    /// [`flat`](Self::flat), swept on `isa`'s arm.
    fn flat_on(
        grid: SkyGrid,
        rings: &[ComptonRing],
        floor_z: f64,
        temperature: f64,
        isa: KernelIsa,
    ) -> Self {
        let geoms = checked_cones(rings, floor_z, temperature);
        let logls = flat_logls(&grid, &geoms, floor_z, isa);
        Self::from_logls(grid, logls, temperature)
    }

    /// Coarse-to-fine rasterization (flat below 1024 pixels), with the
    /// wall time reported to `recorder` under
    /// [`Stage::SkymapRasterize`] on both paths.
    ///
    /// The joint log-likelihood is divided by `temperature` before
    /// exponentiation — posterior ∝ L^(1/T). Tempering leaves the mode
    /// where the untempered posterior puts it while widening every
    /// credible region, so a temperature fit by the
    /// coverage-calibration campaign makes the stated credibility
    /// honest without degrading the point estimate.
    pub fn adaptive(
        grid: SkyGrid,
        rings: &[ComptonRing],
        floor_z: f64,
        temperature: f64,
        recorder: &dyn Recorder,
    ) -> Self {
        Self::adaptive_on(grid, rings, floor_z, temperature, recorder, detected_isa())
    }

    /// [`adaptive`](Self::adaptive), swept on `isa`'s arm.
    fn adaptive_on(
        grid: SkyGrid,
        rings: &[ComptonRing],
        floor_z: f64,
        temperature: f64,
        recorder: &dyn Recorder,
        isa: KernelIsa,
    ) -> Self {
        let t0 = std::time::Instant::now();
        let geoms = checked_cones(rings, floor_z, temperature);
        let logls = if grid.len() < MIN_ADAPTIVE_PIXELS {
            flat_logls(&grid, &geoms, floor_z, isa)
        } else {
            adaptive_logls(&grid, &geoms, floor_z, temperature, isa).0
        };
        let map = Self::from_logls(grid, logls, temperature);
        recorder.duration(Stage::SkymapRasterize, t0.elapsed());
        map
    }

    /// Normalize raw log-likelihoods into a probability map, dividing by
    /// `temperature` before exponentiation. Log-likelihoods are
    /// stabilized by subtracting the maximum first.
    fn from_logls(grid: SkyGrid, logls: Vec<f64>, temperature: f64) -> Self {
        let max = logls.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut probabilities: Vec<f64> = logls
            .iter()
            .map(|&l| ((l - max) / temperature).exp())
            .collect();
        let total: f64 = probabilities.iter().sum();
        for p in probabilities.iter_mut() {
            *p /= total;
        }
        SkyPosterior {
            grid,
            probabilities,
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &SkyGrid {
        &self.grid
    }

    /// Which pixelization this posterior is rasterized on.
    pub fn pixelization(&self) -> SkyPixelization {
        self.grid.pixelization()
    }

    /// Pixel count.
    pub fn len(&self) -> usize {
        self.probabilities.len()
    }

    /// True only for a degenerate empty map.
    pub fn is_empty(&self) -> bool {
        self.probabilities.is_empty()
    }

    /// Normalized pixel probabilities, in the scheme's pixel order.
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
        self.grid.center(idx)
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
        pixels as f64 * self.grid.pixel_solid_angle()
    }

    /// Credible region expressed as the radius (degrees) of the disc with
    /// the same solid angle — comparable to containment radii. Well
    /// defined for the full sphere: 4π sr maps to 180°.
    pub fn credible_radius_deg(&self, credibility: f64) -> f64 {
        let sr = self.credible_region_sr(credibility);
        // solid angle of a cone of half-angle a: 2*pi*(1-cos a)
        let cos_a = (1.0 - sr / (2.0 * std::f64::consts::PI)).clamp(-1.0, 1.0);
        cos_a.acos().to_degrees()
    }

    /// Total probability of all pixels *more probable than* the pixel
    /// containing `dir` — the "searched mass" statistic: `dir` is inside
    /// the `c`-credible region exactly when its searched mass is below
    /// `c`, which is how the coverage-calibration campaign scores
    /// containment without enumerating region boundaries. Directions the
    /// grid cannot represent (below the raster's horizon) are outside
    /// every region and score 1.
    pub fn searched_mass(&self, dir: UnitVec3) -> f64 {
        match self.grid.pixel_of(dir) {
            None => 1.0,
            Some(here) => {
                let p_here = self.probabilities[here];
                self.probabilities.iter().filter(|&&p| p > p_here).sum()
            }
        }
    }

    /// Posterior mass within `radius_deg` of a direction — the probability
    /// that the source sits inside a follow-up telescope's field of view.
    pub fn mass_within(&self, center: UnitVec3, radius_deg: f64) -> f64 {
        let cos_r = radius_deg.to_radians().cos();
        self.probabilities
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.grid.center(i).cos_angle_to(center) >= cos_r)
            .map(|(_, &p)| p)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_nn::simd::supported_isas;
    use adapt_recon::RingFeatures;
    use adapt_telemetry::FlightRecorder;
    use rand::{Rng, SeedableRng};
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

    fn grid(p: SkyPixelization, target_pixels: usize) -> SkyGrid {
        SkyGrid::new(p, target_pixels)
    }

    fn adaptive(grid: SkyGrid, rings: &[ComptonRing], temperature: f64) -> SkyPosterior {
        SkyPosterior::adaptive(grid, rings, 3.0, temperature, adapt_telemetry::noop())
    }

    #[test]
    fn probabilities_normalize_to_one() {
        let source = UnitVec3::from_spherical(0.7, 1.2);
        let rings = rings_through(source, 20, 0.03, 7);
        for p in SkyPixelization::ALL {
            for target in [256, 4096] {
                let flat = SkyPosterior::flat(grid(p, target), &rings, 3.0, 1.0);
                let refined = adaptive(grid(p, target), &rings, 1.0);
                for map in [flat, refined] {
                    assert_eq!(map.len(), map.grid().len());
                    let total: f64 = map.probabilities().iter().sum();
                    assert!(
                        (total - 1.0).abs() < 1e-9,
                        "{} at {target}: total {total}",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn probabilities_normalized_and_mass_within_covers() {
        let source = UnitVec3::from_spherical(0.4, 2.0);
        let rings = rings_through(source, 50, 0.02, 4);
        for p in SkyPixelization::ALL {
            for target in [256, 4096] {
                let map = SkyPosterior::flat(grid(p, target), &rings, 3.0, 1.0);
                let total: f64 = map.probabilities().iter().sum();
                assert!((total - 1.0).abs() < 1e-9, "{}: total {total}", p.name());
                // nearly all mass within 20 degrees of the source for
                // tight rings
                let near = map.mass_within(source, 20.0);
                assert!(
                    near > 0.8,
                    "{} at {target}: mass near source {near}",
                    p.name()
                );
                // a 180 degree cap about the zenith covers every pixel
                let all = map.mass_within(UnitVec3::PLUS_Z, 180.0);
                assert!((all - 1.0).abs() < 1e-9, "{}: cap {all}", p.name());
            }
        }
    }

    #[test]
    fn mass_within_is_monotone_in_radius() {
        let source = UnitVec3::from_spherical(1.3, 0.3);
        let rings = rings_through(source, 20, 0.03, 53);
        for p in SkyPixelization::ALL {
            let map = SkyPosterior::flat(grid(p, 4096), &rings, 3.0, 1.0);
            let mut prev = 0.0;
            for r in [1.0, 5.0, 20.0, 90.0, 180.0] {
                let m = map.mass_within(source, r);
                assert!(m + 1e-12 >= prev, "{}: mass shrank at {r} deg", p.name());
                prev = m;
            }
            assert!((prev - 1.0).abs() < 1e-9, "180 deg cap must hold all mass");
        }
    }

    #[test]
    fn map_peaks_at_the_source() {
        let source = UnitVec3::from_spherical(0.9, 2.1);
        let rings = rings_through(source, 60, 0.02, 11);
        for p in SkyPixelization::ALL {
            let map = adaptive(grid(p, 16384), &rings, 1.0);
            let err = map.mode().angle_to(source).to_degrees();
            assert!(err < 3.0, "{}: mode {err:.2} deg from truth", p.name());
            // nearly all mass within a generous cap around the source,
            // and the source inside the 95% credible region
            assert!(map.mass_within(source, 15.0) > 0.95, "{}", p.name());
            assert!(map.searched_mass(source) < 0.95, "{}", p.name());
        }
    }

    #[test]
    fn southern_sources_are_representable() {
        // The raster hemisphere grid cannot express this; HEALPix can.
        let source = UnitVec3::from_spherical(2.6, 0.4);
        let rings = rings_through(source, 40, 0.02, 23);
        let map = adaptive(grid(SkyPixelization::Healpix, 16384), &rings, 1.0);
        assert!(map.mode().angle_to(source).to_degrees() < 3.0);
    }

    #[test]
    fn credible_region_grows_with_credibility_and_uncertainty() {
        let source = UnitVec3::from_spherical(0.3, -0.5);
        let tight_rings = rings_through(source, 80, 0.01, 2);
        let loose_rings = rings_through(source, 20, 0.08, 3);
        for p in SkyPixelization::ALL {
            let tight = adaptive(grid(p, 4096), &tight_rings, 1.0);
            let loose = adaptive(grid(p, 4096), &loose_rings, 1.0);
            assert!(tight.credible_region_sr(0.9) >= tight.credible_region_sr(0.5));
            // more uncertain rings give a wider region
            let (loose90, tight90) = (loose.credible_region_sr(0.9), tight.credible_region_sr(0.9));
            assert!(
                loose90 > tight90,
                "{}: loose {loose90} !> tight {tight90}",
                p.name()
            );
            assert!(loose.credible_radius_deg(0.9) > tight.credible_radius_deg(0.9));
            // radii are consistent transformations
            assert!(tight.credible_radius_deg(0.9) > 0.0);
        }
    }

    #[test]
    fn credible_regions_are_nested_and_bounded() {
        let source = UnitVec3::from_spherical(0.5, 0.0);
        let rings = rings_through(source, 30, 0.03, 3);
        for p in SkyPixelization::ALL {
            let map = adaptive(grid(p, 4096), &rings, 1.0);
            let r50 = map.credible_region_sr(0.5);
            let r68 = map.credible_region_sr(0.68);
            let r90 = map.credible_region_sr(0.9);
            let r95 = map.credible_region_sr(0.95);
            assert!(r50 <= r68 && r68 <= r90 && r90 <= r95, "{}", p.name());
            assert!(r95 <= 4.0 * std::f64::consts::PI);
            // a 30-ring localization is tight, and the whole map is at
            // most 180°
            assert!(map.credible_radius_deg(0.9) < 10.0, "{}", p.name());
            assert!(map.credible_radius_deg(1.0) <= 180.0 + 1e-9);
        }
    }

    #[test]
    fn searched_mass_ranks_directions() {
        let source = UnitVec3::from_spherical(0.6, 2.0);
        let rings = rings_through(source, 35, 0.02, 41);
        for p in SkyPixelization::ALL {
            let map = adaptive(grid(p, 16384), &rings, 1.0);
            // The mode has searched mass 0 (no pixel beats it).
            assert_eq!(map.searched_mass(map.mode()), 0.0, "{}", p.name());
            // A direction far from the source is outside tight regions.
            let far = UnitVec3::from_spherical(2.8, 5.0);
            assert!(map.searched_mass(far) > map.searched_mass(source));
            assert!(map.searched_mass(far) > 0.99, "{}", p.name());
        }
    }

    #[test]
    #[should_panic]
    fn empty_rings_panics() {
        SkyPosterior::flat(grid(SkyPixelization::Raster, 100), &[], 3.0, 1.0);
    }

    #[test]
    fn adaptive_is_bit_identical_to_flat_on_refined_pixels() {
        let source = UnitVec3::from_spherical(1.1, 4.0);
        let floor_z = 3.0;
        let geoms = ring_cone_geoms(&rings_through(source, 70, 0.02, 17), floor_z);
        for p in SkyPixelization::ALL {
            for temperature in [1.0, 3.0] {
                let grid = grid(p, 12_000);
                let isa = detected_isa();
                let flat = flat_logls(&grid, &geoms, floor_z, isa);
                let (adaptive, refined) = adaptive_logls(&grid, &geoms, floor_z, temperature, isa);
                assert!(!refined.is_empty(), "{}: nothing refined", p.name());
                assert!(refined.len() < flat.len(), "{}: all refined", p.name());
                assert!(
                    refined.windows(2).all(|w| w[0] < w[1]),
                    "refined out of order"
                );
                let max = flat.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut is_refined = vec![false; flat.len()];
                for &i in &refined {
                    is_refined[i] = true;
                }
                for i in 0..flat.len() {
                    if is_refined[i] {
                        assert_eq!(
                            flat[i].to_bits(),
                            adaptive[i].to_bits(),
                            "{} pixel {i}: refined {} != flat {}",
                            p.name(),
                            adaptive[i],
                            flat[i]
                        );
                    } else {
                        // inherited pixels are provably negligible
                        assert!(flat[i] < max - ADAPTIVE_LOGL_CUT * temperature + 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_matches_flat_sweep() {
        let source = UnitVec3::from_spherical(0.45, 1.2);
        let rings = rings_through(source, 70, 0.02, 12);
        for p in SkyPixelization::ALL {
            let flat = SkyPosterior::flat(grid(p, 12_000), &rings, 3.0, 1.0);
            let adaptive = adaptive(grid(p, 12_000), &rings, 1.0);
            let tol = flat.grid().pixel_solid_angle();
            for cred in [0.5, 0.9, 0.99] {
                let a = flat.credible_region_sr(cred);
                let b = adaptive.credible_region_sr(cred);
                assert!(
                    (a - b).abs() <= tol + 1e-12,
                    "{} {cred}: flat {a} sr vs adaptive {b} sr",
                    p.name()
                );
            }
            assert!(flat.mode().angle_to(adaptive.mode()).to_degrees() < 1.0);
            // inherited pixels carry negligible mass, so the normalized
            // maps agree everywhere
            let total_diff: f64 = flat
                .probabilities()
                .iter()
                .zip(adaptive.probabilities())
                .map(|(x, y)| (x - y).abs())
                .sum();
            assert!(
                total_diff < 1e-9,
                "{}: probability L1 difference {total_diff}",
                p.name()
            );
        }
    }

    #[test]
    fn random_cone_sets_keep_adaptive_and_flat_consistent() {
        // Randomized geometries: jitter, multiplicity and source vary;
        // the adaptive mode and credible regions must match the flat
        // sweep's on either pixelization.
        let mut rng = ChaCha8Rng::seed_from_u64(0xF00D);
        for case in 0..6 {
            let source = UnitVec3::from_spherical(
                rng.gen_range(0.1..std::f64::consts::PI - 0.1),
                rng.gen_range(0.0..std::f64::consts::TAU),
            );
            let n = rng.gen_range(8..40);
            let jitter = rng.gen_range(0.015..0.06);
            let rings = rings_through(source, n, jitter, 0x5EED + case);
            for p in SkyPixelization::ALL {
                let flat = SkyPosterior::flat(grid(p, 4096), &rings, 3.0, 1.0);
                let adaptive = adaptive(grid(p, 4096), &rings, 1.0);
                // The normalization totals differ slightly (unrefined
                // pixels inherit coarse values), which can round two
                // near-equal peak pixels into a tie and flip the argmax —
                // so compare the mode by probability, not by pixel index.
                let p_flat = flat.probabilities();
                let flat_peak = p_flat.iter().cloned().fold(0.0f64, f64::max);
                let at_mode = p_flat[flat.grid().pixel_of(adaptive.mode()).unwrap()];
                assert!(
                    at_mode >= flat_peak * (1.0 - 1e-9),
                    "case {case} {}: adaptive mode is not a flat peak",
                    p.name()
                );
                let px_sr = flat.grid().pixel_solid_angle();
                for c in [0.68, 0.90, 0.95] {
                    let a = flat.credible_region_sr(c);
                    let b = adaptive.credible_region_sr(c);
                    assert!(
                        (a - b).abs() <= px_sr + 1e-12,
                        "case {case} {} credibility {c}: {a} vs {b}",
                        p.name()
                    );
                }
            }
        }
    }

    /// The flat and the coarse-to-fine posterior of `rings`, both swept
    /// on `isa`'s arm.
    fn flat_and_adaptive_on(
        grid: SkyGrid,
        rings: &[ComptonRing],
        isa: KernelIsa,
    ) -> (SkyPosterior, SkyPosterior) {
        let noop = adapt_telemetry::noop();
        (
            SkyPosterior::flat_on(grid.clone(), rings, 3.0, 1.0, isa),
            SkyPosterior::adaptive_on(grid, rings, 3.0, 1.0, noop, isa),
        )
    }

    #[test]
    fn simd_sweep_bit_identical_to_portable() {
        let source = UnitVec3::from_spherical(0.35, 0.8);
        let rings = rings_through(source, 40, 0.03, 21);
        for p in SkyPixelization::ALL {
            let noop = adapt_telemetry::noop();
            let flat = |isa| SkyPosterior::flat_on(grid(p, 3000), &rings, 3.0, 1.0, isa);
            let adaptive =
                |isa| SkyPosterior::adaptive_on(grid(p, 8000), &rings, 3.0, 1.0, noop, isa);
            let (flat_p, adaptive_p) = (flat(KernelIsa::Portable), adaptive(KernelIsa::Portable));
            let name = p.name();
            for isa in supported_isas() {
                assert_eq!(
                    flat_p.probabilities(),
                    flat(isa).probabilities(),
                    "{name} flat {isa}"
                );
                assert_eq!(
                    adaptive_p.probabilities(),
                    adaptive(isa).probabilities(),
                    "{name} adaptive {isa}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        #[test]
        fn vectorized_sweep_bit_identical_to_portable_sweep(
            polar in 0.1f64..1.2,
            az in -3.0f64..3.0,
            n in 20usize..70,
            seed in 0u64..100,
        ) {
            // the SIMD cone-distance sweep preserves per-pixel ring-order
            // summation, so flat AND adaptive maps must match the
            // portable kernel bit for bit — not just to tolerance
            let source = UnitVec3::from_spherical(polar, az);
            let rings = rings_through(source, n, 0.02, seed);
            let grid = grid(SkyPixelization::Raster, 6_000);
            let (flat_p, adap_p) = flat_and_adaptive_on(grid.clone(), &rings, KernelIsa::Portable);
            for isa in supported_isas() {
                let (flat_v, adap_v) = flat_and_adaptive_on(grid.clone(), &rings, isa);
                for (a, b) in flat_v.probabilities().iter().zip(flat_p.probabilities()) {
                    proptest::prop_assert_eq!(a, b, "{} flat sweep diverged", isa);
                }
                for (a, b) in adap_v.probabilities().iter().zip(adap_p.probabilities()) {
                    proptest::prop_assert_eq!(a, b, "{} adaptive sweep diverged", isa);
                }
            }
        }
    }

    #[test]
    fn adaptive_matches_flat_posterior_on_every_isa() {
        // The flat/adaptive agreement holds on the portable kernels as
        // well as on every vector rung the host runs, not just on the
        // one production dispatches to.
        let source = UnitVec3::from_spherical(0.8, 5.5);
        let rings = rings_through(source, 30, 0.025, 29);
        for p in SkyPixelization::ALL {
            for isa in supported_isas() {
                let (flat, adaptive) = flat_and_adaptive_on(grid(p, 12_000), &rings, isa);
                // mode compared by probability: normalization totals differ
                let p_flat = flat.probabilities();
                let flat_peak = p_flat.iter().cloned().fold(0.0f64, f64::max);
                let at_mode = p_flat[flat.grid().pixel_of(adaptive.mode()).unwrap()];
                assert!(at_mode >= flat_peak * (1.0 - 1e-9), "{}", p.name());
                for c in [0.68, 0.90, 0.95] {
                    let a = flat.credible_region_sr(c);
                    let b = adaptive.credible_region_sr(c);
                    assert!(
                        (a - b).abs() <= flat.grid().pixel_solid_angle() + 1e-12,
                        "{} credible region mismatch at {c}: {a} vs {b}",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn adaptive_small_grid_falls_back() {
        let source = UnitVec3::from_spherical(0.2, 0.0);
        let rings = rings_through(source, 30, 0.03, 13);
        for p in SkyPixelization::ALL {
            let flat = SkyPosterior::flat(grid(p, 256), &rings, 3.0, 2.0);
            assert!(flat.len() < MIN_ADAPTIVE_PIXELS);
            let adaptive = adaptive(grid(p, 256), &rings, 2.0);
            assert_eq!(
                flat.probabilities(),
                adaptive.probabilities(),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn small_nside_falls_back_to_flat() {
        // The 1024-pixel minimum keeps the HEALPix decision at
        // `nside < 16`: every smaller nside is swept flat (bit-identical)
        // and nside 16 is the first grid refined coarse-to-fine.
        let source = UnitVec3::from_spherical(0.4, 1.0);
        let rings = rings_through(source, 15, 0.04, 31);
        for nside in [1u32, 2, 4, 8] {
            let grid = SkyGrid::Healpix { nside };
            assert!(grid.len() < MIN_ADAPTIVE_PIXELS);
            let flat = SkyPosterior::flat(grid.clone(), &rings, 3.0, 1.0);
            let adaptive = adaptive(grid, &rings, 1.0);
            assert_eq!(
                flat.probabilities(),
                adaptive.probabilities(),
                "nside {nside}"
            );
        }
        assert!(SkyGrid::Healpix { nside: 16 }.len() >= MIN_ADAPTIVE_PIXELS);
    }

    #[test]
    fn every_posterior_is_timed_once() {
        // Both paths (flat below 1024 pixels, coarse-to-fine above) on
        // both schemes report exactly one rasterization sample.
        let rings = rings_through(UnitVec3::from_spherical(0.5, 1.0), 20, 0.03, 5);
        for p in SkyPixelization::ALL {
            for target in [256, 4096] {
                let recorder = FlightRecorder::new();
                SkyPosterior::adaptive(grid(p, target), &rings, 3.0, 1.0, &recorder);
                assert_eq!(
                    recorder.stage_histogram(Stage::SkymapRasterize).count(),
                    1,
                    "{} at {target} target pixels",
                    p.name()
                );
            }
        }
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
}
