//! The coverage-calibration campaign: are the posterior sky map's
//! credible regions *credible*?
//!
//! A 90 % credible region is only worth slewing a telescope at if the
//! true source direction actually lands inside it ~90 % of the time.
//! This module simulates a population of bursts at random sky positions
//! across background scales — burst fluence tracks the scale, so every
//! cell is the same threshold-worthy population rather than a burst
//! sinking below detectability — rasterizes each raw ring set's posterior
//! (HEALPix by default) — exactly the posterior the onboard
//! coarse-skymap rung serves in a `GrbAlert` — and scores every stated
//! credibility level by its empirical coverage: the fraction of bursts
//! whose truth direction falls inside the credible region, measured by
//! searched probability mass (truth is inside the c-region iff the
//! total mass of pixels more probable than the truth pixel is below c).
//!
//! The calibration knob is the likelihood *temperature* (posterior ∝
//! L^(1/T)): the per-ring error model misses the systematic component
//! of the localization error, so the untempered product of hundreds of
//! ring likelihoods is far sharper than the true error distribution.
//! Tempering widens every credible region around an unmoved mode. The
//! required temperature grows as √N with the ring count N (the
//! statistical width shrinks as 1/√N against a fixed systematic
//! floor), so the deployed default is the ring-count-adaptive
//! `adapt_localize::default_temperature`; the campaign validates that
//! law across its constant signal-to-background grid, and
//! `--temperature` overrides it with a fixed value when probing.
//!
//! Every burst is seed-deterministic (campaign seed mixed with the cell
//! coordinates and burst index), so any burst replays bit-identically.
//! `adapt calibrate` drives [`run_calibration`] and writes the
//! schema-versioned `BENCH_calibration.json` consumed by `bench_gate`
//! (coverage drifting out of its binomial band is a contract violation)
//! and rendered into EXPERIMENTS.md.

use crate::EnvReport;
use adapt_core::prelude::*;
use adapt_localize::{default_temperature, SkyGrid, SkyPixelization, SkyPosterior};
use adapt_math::angles::deg_to_rad;
use adapt_math::vec3::UnitVec3;
use adapt_sim::BackgroundConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// `BENCH_calibration.json` schema version.
pub const CALIBRATION_SCHEMA: u64 = 1;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CalibrationConfig {
    /// Simulated bursts per background scale.
    pub bursts: usize,
    /// Background-scale axis (multiples of the batch calibration rate).
    pub background_scales: Vec<f64>,
    /// Credibility levels scored for coverage.
    pub credibilities: Vec<f64>,
    /// Burst fluence (MeV/cm²) at background scale 1. Each cell's
    /// actual fluence is `fluence × scale`: the campaign holds the
    /// signal-to-background ratio constant across the scale axis, so
    /// every cell is the same threshold-worthy population (a
    /// fixed-fluence burst under 3× background is simply undetectable
    /// — no posterior width makes a wrong mode coverable).
    pub fluence: f64,
    /// Truth polar angles are drawn uniformly in `[0, max_polar_deg]`.
    pub max_polar_deg: f64,
    /// Hemisphere pixel budget (HEALPix resolves its nside from this).
    pub target_pixels: usize,
    /// Posterior pixelization under test.
    pub pixelization: SkyPixelization,
    /// Fixed likelihood temperature override (posterior ∝ L^(1/T)) —
    /// the calibration knob when probing. `None` (the default) applies
    /// the deployed ring-count-adaptive
    /// [`adapt_localize::default_temperature`] per burst, so the
    /// campaign scores exactly what flies.
    pub temperature: Option<f64>,
    /// Campaign seed; every burst derives its own seed from it.
    pub seed: u64,
    /// Binomial band half-width in standard errors for the verdict.
    pub band_z: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            bursts: 200,
            background_scales: vec![1.0, 3.0],
            credibilities: vec![0.68, 0.90, 0.95],
            fluence: 1.0,
            max_polar_deg: 70.0,
            target_pixels: 3000,
            pixelization: SkyPixelization::Healpix,
            temperature: None,
            seed: 0x0C0B_E44A,
            band_z: 3.0,
        }
    }
}

impl CalibrationConfig {
    /// The CI smoke campaign: enough bursts at one background scale for
    /// the binomial band to catch gross miscalibration (a 3σ band at
    /// N=60, c=0.9 spans roughly ±12 %), small enough to gate commits.
    pub fn smoke() -> Self {
        CalibrationConfig {
            bursts: 60,
            background_scales: vec![1.0],
            ..CalibrationConfig::default()
        }
    }
}

/// The deterministic seed of one burst: campaign seed mixed with the
/// background scale and burst index (same FNV-style lanes as
/// `cell_seed`), so replaying one burst never needs the rest.
pub fn burst_seed(campaign_seed: u64, scale: f64, index: usize) -> u64 {
    let mut h = campaign_seed ^ 0x9E37_79B9_7F4A_7C15;
    h ^= (scale * 16.0) as u64;
    h = h.wrapping_mul(0x100_0000_01B3);
    h ^= index as u64;
    h.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Empirical coverage of one (background scale, credibility) cell.
#[derive(Debug, Clone, Serialize)]
pub struct CoverageCell {
    pub background_scale: f64,
    /// Actual burst fluence of this cell (`config.fluence × scale`).
    pub fluence: f64,
    pub credibility: f64,
    /// Localized bursts entering the cell (the binomial N).
    pub bursts: usize,
    /// Bursts whose truth direction fell inside the credible region.
    pub contained: usize,
    /// `contained / bursts`.
    pub coverage: f64,
    /// One binomial standard error `sqrt(c(1-c)/N)` at the stated level.
    pub binomial_err: f64,
    /// `(coverage - credibility) / binomial_err` — the calibration pull.
    pub coverage_z: f64,
}

/// The schema-versioned campaign report written to
/// `BENCH_calibration.json`. `coverage_cells` is the unique top-level
/// key `bench_gate` detects the kind by.
#[derive(Serialize)]
pub struct CalibrationReport {
    pub schema: u64,
    pub description: String,
    pub env: EnvReport,
    pub pixelization: String,
    /// Mean likelihood temperature applied across localized bursts
    /// (the ring-count-adaptive default unless a fixed override was
    /// given, in which case every burst used that value).
    pub mean_temperature: f64,
    /// Mean raw ring count per localized burst — the N the adaptive
    /// temperature scales with.
    pub mean_rings: f64,
    pub seed: u64,
    /// Burst fluence at background scale 1 (each cell uses
    /// `fluence × scale` — constant signal-to-background ratio).
    pub fluence: f64,
    pub max_polar_deg: f64,
    pub target_pixels: usize,
    /// Bursts attempted per background scale.
    pub bursts_per_scale: usize,
    /// Bursts that produced at least one ring (and hence a posterior).
    pub localized: usize,
    /// Bursts attempted across every scale.
    pub attempted: usize,
    /// `localized / attempted` — gated as an efficiency metric.
    pub localized_fraction: f64,
    /// Mean truth→mode angular error over localized bursts (deg).
    pub mean_error_deg: f64,
    /// Mean disc-equivalent 90 % credible radius (deg) — gated so the
    /// regions cannot silently balloon while staying "calibrated".
    pub mean_credible_radius_90_deg: f64,
    /// Worst calibration pull `max |coverage_z|` across the cells —
    /// the non-overridable contract metric.
    pub coverage_abs_z: f64,
    pub coverage_cells: Vec<CoverageCell>,
}

impl CalibrationReport {
    /// Render the calibration curves as a fixed-width table, ready for
    /// EXPERIMENTS.md or the terminal.
    pub fn render_curves(&self) -> String {
        let mut out = format!(
            "coverage calibration — {} pixelization, mean temperature {:.1}\n\
             {:<8} {:>11} {:>8} {:>10} {:>10} {:>9} {:>7}\n",
            self.pixelization,
            self.mean_temperature,
            "scale",
            "credibility",
            "bursts",
            "contained",
            "coverage",
            "band",
            "pull"
        );
        for c in &self.coverage_cells {
            out.push_str(&format!(
                "{:<8.1} {:>11.2} {:>8} {:>10} {:>10.3} {:>8.3} {:>7.2}\n",
                c.background_scale,
                c.credibility,
                c.bursts,
                c.contained,
                c.coverage,
                c.binomial_err,
                c.coverage_z
            ));
        }
        out.push_str(&format!(
            "\nlocalized {}/{} bursts, mean error {:.2} deg, \
             mean 90% credible radius {:.2} deg, worst pull {:.2}σ\n",
            self.localized,
            self.attempted,
            self.mean_error_deg,
            self.mean_credible_radius_90_deg,
            self.coverage_abs_z
        ));
        out
    }
}

/// Violations the calibration gate treats as hard failures.
#[derive(Debug, Clone, Serialize)]
pub struct CoverageVerdict {
    /// Cells whose empirical coverage left its binomial band.
    pub violations: Vec<String>,
}

/// Check the invariant CI gates on: every cell's empirical coverage
/// must sit within `band_z` binomial standard errors of its stated
/// credibility. A region that over-covers is wastefully large; one that
/// under-covers sends follow-ups to the wrong sky.
pub fn coverage_verdict(report: &CalibrationReport, band_z: f64) -> CoverageVerdict {
    let mut violations = Vec::new();
    for c in &report.coverage_cells {
        if c.coverage_z.abs() > band_z {
            violations.push(format!(
                "scale {:.1} @ {:.0}%: coverage {:.3} is {:.1}σ from {:.2} \
                 (band ±{:.1}σ over {} bursts)",
                c.background_scale,
                c.credibility * 100.0,
                c.coverage,
                c.coverage_z.abs(),
                c.credibility,
                band_z,
                c.bursts
            ));
        }
    }
    CoverageVerdict { violations }
}

/// Run the whole campaign: simulate `bursts` per background scale at
/// random sky positions, rasterize each posterior, and score coverage
/// at every credibility level.
pub fn run_calibration(models: &TrainedModels, config: &CalibrationConfig) -> CalibrationReport {
    let mut cells = Vec::new();
    let mut localized = 0usize;
    let mut attempted = 0usize;
    let mut error_sum = 0.0;
    let mut radius90_sum = 0.0;
    let mut temperature_sum = 0.0;
    let mut rings_sum = 0usize;
    for &scale in &config.background_scales {
        let background = BackgroundConfig {
            particle_fluence: BackgroundConfig::default().particle_fluence * scale,
            ..BackgroundConfig::default()
        };
        let pipeline = Pipeline::new(models).with_background(background);
        // contained[k] counts bursts inside the k-th credibility level
        let mut contained = vec![0usize; config.credibilities.len()];
        let mut cell_localized = 0usize;

        for i in 0..config.bursts {
            attempted += 1;
            let seed = burst_seed(config.seed, scale, i);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let polar_deg = rng.gen::<f64>() * config.max_polar_deg;
            let azimuth_deg = rng.gen::<f64>() * 360.0 - 180.0;
            let mut grb = GrbConfig::new(config.fluence * scale, polar_deg);
            grb.azimuth_deg = azimuth_deg;
            let truth = UnitVec3::from_spherical(deg_to_rad(polar_deg), deg_to_rad(azimuth_deg));

            let (rings, _) = pipeline.simulate_rings(&grb, PerturbationConfig::default(), seed);
            if rings.is_empty() {
                continue;
            }
            let temperature = config
                .temperature
                .unwrap_or_else(|| default_temperature(rings.len()));
            let posterior = SkyPosterior::adaptive(
                SkyGrid::new(config.pixelization, config.target_pixels),
                &rings,
                3.0,
                temperature,
                adapt_telemetry::noop(),
            );
            temperature_sum += temperature;
            rings_sum += rings.len();
            localized += 1;
            cell_localized += 1;
            error_sum += posterior.mode().angle_to(truth).to_degrees();
            radius90_sum += posterior.credible_radius_deg(0.90);
            let searched = posterior.searched_mass(truth);
            for (k, &c) in config.credibilities.iter().enumerate() {
                if searched < c {
                    contained[k] += 1;
                }
            }
        }

        for (k, &credibility) in config.credibilities.iter().enumerate() {
            let n = cell_localized.max(1);
            let coverage = contained[k] as f64 / n as f64;
            let binomial_err = (credibility * (1.0 - credibility) / n as f64).sqrt();
            cells.push(CoverageCell {
                background_scale: scale,
                fluence: config.fluence * scale,
                credibility,
                bursts: cell_localized,
                contained: contained[k],
                coverage,
                binomial_err,
                coverage_z: (coverage - credibility) / binomial_err,
            });
        }
    }

    let coverage_abs_z = cells.iter().map(|c| c.coverage_z.abs()).fold(0.0, f64::max);
    CalibrationReport {
        schema: CALIBRATION_SCHEMA,
        description: format!(
            "coverage calibration: {} bursts x {:?} background scales, credibilities {:?}; \
             regenerate with `adapt train --scale fast --seed 44455 --out models.json && \
             adapt calibrate --models models.json`",
            config.bursts, config.background_scales, config.credibilities
        ),
        env: EnvReport::capture(),
        pixelization: config.pixelization.name().to_string(),
        mean_temperature: temperature_sum / localized.max(1) as f64,
        mean_rings: rings_sum as f64 / localized.max(1) as f64,
        seed: config.seed,
        fluence: config.fluence,
        max_polar_deg: config.max_polar_deg,
        target_pixels: config.target_pixels,
        bursts_per_scale: config.bursts,
        localized,
        attempted,
        localized_fraction: localized as f64 / attempted.max(1) as f64,
        mean_error_deg: error_sum / localized.max(1) as f64,
        mean_credible_radius_90_deg: radius90_sum / localized.max(1) as f64,
        coverage_abs_z,
        coverage_cells: cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_seeds_are_deterministic_and_distinct() {
        let a = burst_seed(1, 1.0, 0);
        assert_eq!(a, burst_seed(1, 1.0, 0));
        assert_ne!(a, burst_seed(1, 1.0, 1));
        assert_ne!(a, burst_seed(1, 3.0, 0));
        assert_ne!(a, burst_seed(2, 1.0, 0));
    }

    fn report_with(cells: Vec<CoverageCell>) -> CalibrationReport {
        let coverage_abs_z = cells.iter().map(|c| c.coverage_z.abs()).fold(0.0, f64::max);
        CalibrationReport {
            schema: CALIBRATION_SCHEMA,
            description: String::new(),
            env: EnvReport::capture(),
            pixelization: "healpix".into(),
            mean_temperature: default_temperature(900),
            mean_rings: 900.0,
            seed: 0,
            fluence: 1.0,
            max_polar_deg: 70.0,
            target_pixels: 3000,
            bursts_per_scale: 200,
            localized: 200,
            attempted: 200,
            localized_fraction: 1.0,
            mean_error_deg: 5.0,
            mean_credible_radius_90_deg: 12.0,
            coverage_abs_z,
            coverage_cells: cells,
        }
    }

    fn cell(credibility: f64, coverage: f64, n: usize) -> CoverageCell {
        let binomial_err = (credibility * (1.0 - credibility) / n as f64).sqrt();
        CoverageCell {
            background_scale: 1.0,
            fluence: 1.0,
            credibility,
            bursts: n,
            contained: (coverage * n as f64).round() as usize,
            coverage,
            binomial_err,
            coverage_z: (coverage - credibility) / binomial_err,
        }
    }

    #[test]
    fn coverage_verdict_flags_out_of_band_cells() {
        // 0.90 stated, 0.70 observed over 200 bursts: a ~9σ shortfall
        let bad = report_with(vec![cell(0.68, 0.69, 200), cell(0.90, 0.70, 200)]);
        let verdict = coverage_verdict(&bad, 3.0);
        assert_eq!(verdict.violations.len(), 1, "{:?}", verdict.violations);
        assert!(verdict.violations[0].contains("90%"));
        assert!(bad.coverage_abs_z > 3.0);

        let good = report_with(vec![cell(0.68, 0.70, 200), cell(0.90, 0.89, 200)]);
        assert!(coverage_verdict(&good, 3.0).violations.is_empty());
        assert!(good.coverage_abs_z < 3.0);
        // the rendered curves carry every cell
        let table = good.render_curves();
        assert!(table.contains("0.68") && table.contains("0.90"));
    }

    #[test]
    fn smoke_config_is_a_strict_shrink() {
        let smoke = CalibrationConfig::smoke();
        let full = CalibrationConfig::default();
        assert!(smoke.bursts < full.bursts);
        assert!(smoke.background_scales.len() <= full.background_scales.len());
        assert_eq!(smoke.credibilities, full.credibilities);
        assert_eq!(smoke.seed, full.seed, "smoke must replay the same seeds");
    }
}
