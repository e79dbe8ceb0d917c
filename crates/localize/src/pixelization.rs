//! Sky pixelizations: the geometry posterior sky maps are sampled on.
//!
//! [`SkyGrid`] is the only place the two schemes differ — pixel
//! centers and point lookup, pixel solid angle, the coarse grid the
//! coarse-to-fine pass bounds, and which directions are representable.
//! Everything computed over a grid (the rasterizer, normalization and
//! the credible-region statistics of [`crate::SkyPosterior`]) is written
//! once, so switching pixelizations changes *where* the posterior is
//! sampled, never *what* is sampled.

use crate::skymap::HemisphereGrid;
use adapt_healpix::nested::{npix, pix2vec, pixel_bound_radius, pixel_solid_angle, vec2pix};
use adapt_math::vec3::UnitVec3;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Which equal-area scheme posterior sky maps are rasterized on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
pub enum SkyPixelization {
    /// Lambert-belt raster over the visible (upper) hemisphere — the
    /// historical scheme; O(1) point lookup, but polar-belt pixels
    /// deviate from the nominal solid angle (see DESIGN.md) and the
    /// lower hemisphere is not representable.
    #[default]
    Raster,
    /// Nested HEALPix over the full sphere: exactly equal pixel areas
    /// at every latitude and a quadtree refinement hierarchy.
    Healpix,
}

impl SkyPixelization {
    /// Every variant, for CLI listings and matrix sweeps.
    pub const ALL: [SkyPixelization; 2] = [SkyPixelization::Raster, SkyPixelization::Healpix];

    /// Stable lowercase name (matches the serde encoding).
    pub fn name(&self) -> &'static str {
        match self {
            SkyPixelization::Raster => "raster",
            SkyPixelization::Healpix => "healpix",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "raster" | "hemisphere" => Some(SkyPixelization::Raster),
            "healpix" | "hpx" => Some(SkyPixelization::Healpix),
            _ => None,
        }
    }
}

/// Smallest power-of-two `nside` whose full-sphere pixel count matches
/// a hemisphere raster of `target_pixels`: the sphere needs twice the
/// pixels for the same resolution, so solve `12·nside² ≥ 2·target`.
pub fn nside_for_target_pixels(target_pixels: usize) -> u32 {
    let want = (2 * target_pixels.max(1)) as f64 / 12.0;
    let mut nside = 1u32;
    while ((nside as f64) * (nside as f64)) < want && nside < adapt_healpix::nested::MAX_NSIDE {
        nside *= 2;
    }
    nside
}

/// Ratio of fine pixels to coarse cells in the coarse-to-fine pass.
const COARSE_RATIO: usize = 64;

/// [`COARSE_RATIO`] in HEALPix `nside` (pixel count scales as `nside²`).
const COARSE_NSIDE_RATIO: u32 = 8;

/// The pixel grid of a posterior sky map, on either scheme.
#[derive(Debug, Clone)]
pub enum SkyGrid {
    /// Lambert-belt raster over the upper hemisphere.
    Raster(HemisphereGrid),
    /// Nested HEALPix over the full sphere at resolution `nside`; pixel
    /// centers are computed on demand.
    Healpix { nside: u32 },
}

/// The coarse grid the coarse-to-fine pass scores and bounds, and how
/// the fine grid's pixels fall into its cells.
pub(crate) struct CoarseGrid {
    pub grid: SkyGrid,
    /// Enclosing-cone radius (radians) of each coarse cell.
    pub radii: Vec<f64>,
    /// The coarse cell holding each fine pixel.
    pub cell_of: Vec<usize>,
}

impl SkyGrid {
    /// The grid for a hemisphere pixel budget. HEALPix resolves it via
    /// [`nside_for_target_pixels`] so both schemes sample the sky at
    /// comparable density.
    pub fn new(pixelization: SkyPixelization, target_pixels: usize) -> Self {
        match pixelization {
            SkyPixelization::Raster => SkyGrid::Raster(HemisphereGrid::new(target_pixels)),
            SkyPixelization::Healpix => SkyGrid::Healpix {
                nside: nside_for_target_pixels(target_pixels),
            },
        }
    }

    /// Which scheme this grid is on.
    pub fn pixelization(&self) -> SkyPixelization {
        match self {
            SkyGrid::Raster(_) => SkyPixelization::Raster,
            SkyGrid::Healpix { .. } => SkyPixelization::Healpix,
        }
    }

    /// Pixel count.
    pub fn len(&self) -> usize {
        match self {
            SkyGrid::Raster(g) => g.len(),
            SkyGrid::Healpix { nside } => npix(*nside) as usize,
        }
    }

    /// True only for a degenerate empty grid (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Solid angle of one pixel (sr).
    pub fn pixel_solid_angle(&self) -> f64 {
        match self {
            SkyGrid::Raster(g) => g.pixel_solid_angle(),
            SkyGrid::Healpix { nside } => pixel_solid_angle(*nside),
        }
    }

    /// Center of pixel `i`.
    pub fn center(&self, i: usize) -> UnitVec3 {
        match self {
            SkyGrid::Raster(g) => g.centers()[i],
            SkyGrid::Healpix { nside } => pix2vec(*nside, i as u64),
        }
    }

    /// Every pixel center in index order: borrowed from the raster,
    /// computed in parallel for HEALPix.
    pub fn centers(&self) -> Cow<'_, [UnitVec3]> {
        match self {
            SkyGrid::Raster(g) => Cow::Borrowed(g.centers()),
            SkyGrid::Healpix { .. } => Cow::Owned(
                (0..self.len())
                    .into_par_iter()
                    .map(|i| self.center(i))
                    .collect(),
            ),
        }
    }

    /// Index of the pixel containing `dir`, or `None` when the grid
    /// cannot represent it: the raster covers only the upper
    /// hemisphere.
    pub fn pixel_of(&self, dir: UnitVec3) -> Option<usize> {
        match self {
            SkyGrid::Raster(_) if dir.as_vec().z < 0.0 => None,
            SkyGrid::Raster(g) => Some(g.pixel_of(dir)),
            SkyGrid::Healpix { nside } => Some(vec2pix(*nside, dir) as usize),
        }
    }

    /// The coarse grid at 1/[`COARSE_RATIO`] of this resolution. A
    /// raster pixel falls into the coarse cell holding its center; a
    /// HEALPix pixel into its nested ancestor, so every coarse cell
    /// covers one contiguous index range.
    pub(crate) fn coarse(&self) -> CoarseGrid {
        match self {
            SkyGrid::Raster(fine) => {
                let coarse = HemisphereGrid::new((fine.len() / COARSE_RATIO).max(64));
                let radii = (0..coarse.n_belts())
                    .flat_map(|b| {
                        let rho = coarse.pixel_radius(b);
                        coarse.belt_pixels(b).map(move |_| rho)
                    })
                    .collect();
                let cell_of = fine
                    .centers()
                    .par_iter()
                    .map(|&c| coarse.pixel_of(c))
                    .collect();
                CoarseGrid {
                    grid: SkyGrid::Raster(coarse),
                    radii,
                    cell_of,
                }
            }
            &SkyGrid::Healpix { nside } => {
                let coarse_nside = (nside / COARSE_NSIDE_RATIO).max(1);
                let depth = 2 * (nside / coarse_nside).trailing_zeros();
                CoarseGrid {
                    grid: SkyGrid::Healpix {
                        nside: coarse_nside,
                    },
                    radii: vec![pixel_bound_radius(coarse_nside); npix(coarse_nside) as usize],
                    cell_of: (0..self.len()).map(|i| i >> depth).collect(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SkyPosterior;
    use adapt_recon::{ComptonRing, RingFeatures};
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
    fn pixelization_parses_and_round_trips() {
        for p in SkyPixelization::ALL {
            assert_eq!(SkyPixelization::parse(p.name()), Some(p));
            let json = serde_json::to_string(&p).unwrap();
            assert_eq!(serde_json::from_str::<SkyPixelization>(&json).unwrap(), p);
        }
        assert_eq!(
            SkyPixelization::parse("hpx"),
            Some(SkyPixelization::Healpix)
        );
        assert_eq!(SkyPixelization::parse("mollweide"), None);
        assert_eq!(SkyPixelization::default(), SkyPixelization::Raster);
    }

    #[test]
    fn nside_matches_hemisphere_density() {
        // 12·nside² must reach 2× the hemisphere budget, and the
        // previous power of two must not.
        for target in [64usize, 256, 1024, 16384] {
            let nside = nside_for_target_pixels(target);
            assert!(12 * (nside as usize).pow(2) >= 2 * target);
            if nside > 1 {
                assert!(12 * (nside as usize / 2).pow(2) < 2 * target);
            }
        }
        assert_eq!(nside_for_target_pixels(256), 8);
    }

    #[test]
    fn both_pixelizations_localize_the_same_source() {
        let source = UnitVec3::from_spherical(0.6, 1.0);
        let rings = rings_through(source, 40, 0.02, 19);
        for p in SkyPixelization::ALL {
            let post = SkyPosterior::from_rings_adaptive(p, &rings, 4096, 3.0);
            assert_eq!(post.pixelization(), p);
            assert!(!post.is_empty());
            let err = post.mode().angle_to(source).to_degrees();
            assert!(err < 3.0, "{}: mode {err:.2} deg off", p.name());
            assert!(post.searched_mass(source) < 0.99);
            assert!(post.mass_within(source, 20.0) > 0.9);
        }
    }

    /// Away from the distorted polar belts and the horizon, the two
    /// pixelizations must report the same credible regions to within
    /// discretization tolerance.
    #[test]
    fn raster_and_healpix_credible_regions_agree_at_mid_latitudes() {
        for (seed, polar) in [(101u64, 0.7f64), (103, 0.9), (107, 1.1)] {
            let source = UnitVec3::from_spherical(polar, 0.8 * seed as f64);
            // Wide-ish posterior so the credible regions span many
            // pixels and quantization noise stays subdominant.
            let rings = rings_through(source, 18, 0.06, seed);
            let raster =
                SkyPosterior::from_rings_adaptive(SkyPixelization::Raster, &rings, 8192, 3.0);
            let healpix =
                SkyPosterior::from_rings_adaptive(SkyPixelization::Healpix, &rings, 8192, 3.0);
            let quantum = (2.0 * std::f64::consts::PI / 8192.0)
                .max(4.0 * std::f64::consts::PI / healpix.len() as f64);
            for c in [0.68, 0.90] {
                let a = raster.credible_region_sr(c);
                let b = healpix.credible_region_sr(c);
                let rel = (a - b).abs() / a.max(b);
                assert!(
                    rel < 0.25 || (a - b).abs() < 4.0 * quantum,
                    "seed {seed} credibility {c}: raster {a:.5} sr vs healpix {b:.5} sr ({rel:.2})"
                );
            }
            // Modes agree to a pixel scale.
            assert!(raster.mode().angle_to(healpix.mode()).to_degrees() < 3.0);
        }
    }

    #[test]
    fn tempering_widens_credible_regions_without_moving_the_mode() {
        let source = UnitVec3::from_spherical(0.8, 2.5);
        let rings = rings_through(source, 30, 0.03, 211);
        for p in SkyPixelization::ALL {
            let at = |temperature| {
                SkyPosterior::adaptive(
                    SkyGrid::new(p, 4096),
                    &rings,
                    3.0,
                    temperature,
                    adapt_telemetry::noop(),
                )
            };
            let (tight, wide) = (at(1.0), at(9.0));
            assert!(
                wide.credible_region_sr(0.9) > 2.0 * tight.credible_region_sr(0.9),
                "{}: temperature 9 did not widen the 90% region",
                p.name()
            );
            // tempering preserves the likelihood ranking, so the mode
            // stays put (up to pixels tied in probability)
            assert!(
                wide.mode().angle_to(tight.mode()).to_degrees() < 1.0,
                "{}: tempering moved the mode",
                p.name()
            );
        }
    }

    #[test]
    fn searched_mass_flags_below_horizon_for_raster_only() {
        let source = UnitVec3::from_spherical(0.5, 0.0);
        let rings = rings_through(source, 25, 0.03, 307);
        let below = UnitVec3::from_spherical(2.6, 1.0);
        let raster = SkyPosterior::from_rings_adaptive(SkyPixelization::Raster, &rings, 2048, 3.0);
        assert_eq!(raster.searched_mass(below), 1.0);
        let healpix =
            SkyPosterior::from_rings_adaptive(SkyPixelization::Healpix, &rings, 2048, 3.0);
        // HEALPix represents the whole sphere; a wrong hemisphere point
        // is merely deep in the tail, not undefined.
        assert!(healpix.searched_mass(below) > 0.99);
    }
}
