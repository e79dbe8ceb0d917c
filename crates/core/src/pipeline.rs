//! The end-to-end pipeline: simulate a burst, reconstruct, localize —
//! in any of the paper's evaluation variants.
//!
//! Variants map one-to-one onto the paper's experiment arms:
//!
//! * [`PipelineMode::Baseline`] — the prior (no-ML) pipeline;
//! * [`PipelineMode::Ml`] — the Fig.-6 ML loop (FP32 networks);
//! * [`PipelineMode::MlQuantized`] — INT8 background net + FP32 dEta
//!   (paper Fig. 11);
//! * [`PipelineMode::MlNoPolar`] — the no-polar-input ablation (Fig. 7);
//! * [`PipelineMode::OracleNoBackground`] — truth-stripped background
//!   (Fig. 4, middle bars);
//! * [`PipelineMode::OracleTrueDeta`] — dη replaced by the true η error
//!   (Fig. 4, right bars).

use crate::training::TrainedModels;
use adapt_localize::{
    BackgroundModel, BaselineLocalizer, InferenceWorkspace, MlLocalizer, MlPipelineConfig,
    StageTimings,
};
use adapt_math::angles::angular_separation;
use adapt_nn::{CompiledMlp, Mlp, ThresholdTable};
use adapt_recon::{ComptonRing, ReconCounts, Reconstructor};
use adapt_sim::{
    BackgroundConfig, BurstSimulation, DetectorConfig, GrbConfig, GrbSource, PerturbationConfig,
};
use adapt_telemetry::{Counter, DriftMonitor, DriftReport, Recorder, Stage};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The evaluation variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PipelineMode {
    /// Prior pipeline: approximation + robust refinement, analytic dη,
    /// no background rejection beyond likelihood gating.
    Baseline,
    /// Full ML pipeline (paper Fig. 6).
    Ml,
    /// ML pipeline with the INT8 background classifier.
    MlQuantized,
    /// ML pipeline with the 12-input (no polar angle) background net and a
    /// flat 0.5 threshold.
    MlNoPolar,
    /// Oracle: all true background rings removed before the baseline runs.
    OracleNoBackground,
    /// Oracle: every ring's dη replaced by its true η error.
    OracleTrueDeta,
}

impl PipelineMode {
    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            PipelineMode::Baseline => "No ML (prior pipeline)",
            PipelineMode::Ml => "With ML",
            PipelineMode::MlQuantized => "With ML (INT8 bkg)",
            PipelineMode::MlNoPolar => "With ML (no polar input)",
            PipelineMode::OracleNoBackground => "Oracle: background removed",
            PipelineMode::OracleTrueDeta => "Oracle: true d-eta",
        }
    }
}

/// One trial's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// Localization error in degrees (180° when localization failed).
    pub error_deg: f64,
    /// Whether localization produced a direction at all.
    pub localized: bool,
    /// Rings entering localization.
    pub rings_in: usize,
    /// Rings surviving background rejection (ML modes; otherwise equals
    /// `rings_in`).
    pub rings_surviving: usize,
    /// Events rejected during reconstruction for non-physical geometry or
    /// energy (only populated by [`Pipeline::run_trial`]; zero when
    /// localizing pre-reconstructed rings).
    pub degenerate_rings: usize,
    /// Everything, end to end (excluding the physics simulation, which on
    /// the instrument is the detector itself). The per-stage breakdown
    /// goes to the attached [`Recorder`].
    pub total: Duration,
}

thread_local! {
    /// Per-thread inference workspace: trial drivers fan trials out over
    /// worker threads, and each thread's network buffers warm up once and
    /// are reused by every subsequent trial it runs.
    static WORKSPACE: RefCell<InferenceWorkspace> = RefCell::new(InferenceWorkspace::new());
}

/// The configured end-to-end pipeline.
pub struct Pipeline<'a> {
    models: &'a TrainedModels,
    /// The FP32 background nets compiled once into BN-folded flat-buffer
    /// plans; every trial's `MlLocalizer` borrows these instead of
    /// re-deriving the inference path from the layer list.
    compiled_background: CompiledMlp,
    compiled_background_no_polar: CompiledMlp,
    reconstructor: Reconstructor,
    ml_config: MlPipelineConfig,
    detector: DetectorConfig,
    background: BackgroundConfig,
    recorder: &'a dyn Recorder,
    drift: Option<&'a DriftMonitor>,
}

impl<'a> Pipeline<'a> {
    /// Assemble with default detector/background configuration.
    pub fn new(models: &'a TrainedModels) -> Self {
        Pipeline {
            models,
            compiled_background: CompiledMlp::compile(&models.background),
            compiled_background_no_polar: CompiledMlp::compile(&models.background_no_polar),
            reconstructor: Reconstructor::default(),
            ml_config: MlPipelineConfig::default(),
            detector: DetectorConfig::default(),
            background: BackgroundConfig::default(),
            recorder: adapt_telemetry::noop(),
            drift: None,
        }
    }

    /// Override the ML loop configuration.
    pub fn with_ml_config(mut self, config: MlPipelineConfig) -> Self {
        self.ml_config = config;
        self
    }

    /// Override the simulated background environment — the
    /// coverage-calibration campaign sweeps the particle fluence here.
    pub fn with_background(mut self, background: BackgroundConfig) -> Self {
        self.background = background;
        self
    }

    /// Attach a telemetry recorder (e.g. an
    /// [`adapt_telemetry::FlightRecorder`]): stage durations, pipeline
    /// counters, and the ML loop's per-iteration records are reported to
    /// it. The default is the no-op recorder, which keeps the hot path
    /// free of telemetry cost.
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach an in-flight drift monitor (usually built over the training
    /// campaign's [`DriftReference`](adapt_telemetry::DriftReference),
    /// persisted in [`TrainedModels::drift_reference`]). Each ML-mode
    /// trial feeds its staged feature rows into the monitor's histograms;
    /// call [`record_drift`](Self::record_drift) after a run to compute
    /// PSI divergence and surface it through the recorder's counters.
    pub fn with_drift_monitor(mut self, monitor: &'a DriftMonitor) -> Self {
        self.drift = Some(monitor);
        self
    }

    /// Compute the drift monitor's PSI report over everything observed so
    /// far and push it into the attached recorder's counters
    /// (`drift_rows`, `drift_mean_psi_milli`, `drift_features_flagged`).
    /// Call once per run — counters are cumulative, so calling after each
    /// trial would double-count. Returns `None` when no monitor is
    /// attached.
    pub fn record_drift(&self) -> Option<DriftReport> {
        let monitor = self.drift?;
        let report = monitor.report();
        self.recorder.add(Counter::DriftRows, report.rows_observed);
        self.recorder.add(
            Counter::DriftMeanPsiMilli,
            (report.mean_psi * 1000.0).round().max(0.0) as u64,
        );
        self.recorder.add(
            Counter::DriftFeaturesFlagged,
            report.features_flagged as u64,
        );
        Some(report)
    }

    /// The expected number of GRB photons geometrically intercepted for a
    /// burst config — used in reports.
    pub fn expected_grb_photons(&self, grb: &GrbConfig) -> f64 {
        let geometry = adapt_sim::DetectorGeometry::new(&self.detector);
        GrbSource::new(grb).expected_photons_on_detector(&geometry)
    }

    /// Simulate one burst and return its reconstructed rings (shared by
    /// all modes of a paired comparison).
    pub fn simulate_rings(
        &self,
        grb: &GrbConfig,
        perturbation: PerturbationConfig,
        seed: u64,
    ) -> (Vec<ComptonRing>, Duration) {
        let (rings, recon_time, _) = self.simulate_rings_counted(grb, perturbation, seed);
        (rings, recon_time)
    }

    /// As [`simulate_rings`](Self::simulate_rings), additionally returning
    /// the reconstruction acceptance bookkeeping (attempted / degenerate /
    /// other-rejected counts). Degenerate events are also reported to the
    /// attached recorder.
    pub fn simulate_rings_counted(
        &self,
        grb: &GrbConfig,
        perturbation: PerturbationConfig,
        seed: u64,
    ) -> (Vec<ComptonRing>, Duration, ReconCounts) {
        let sim = BurstSimulation::new(
            self.detector.clone(),
            grb.clone(),
            self.background.clone(),
            perturbation,
        );
        let data = sim.simulate(seed);
        let t = Instant::now();
        let (rings, counts) = self
            .reconstructor
            .reconstruct_all_counted(&data.events, self.recorder);
        (rings, t.elapsed(), counts)
    }

    /// As [`simulate_rings`](Self::simulate_rings) but with the pileup
    /// model applied before reconstruction (the paper's future-work
    /// scenario: events arriving within the detection latency merge).
    /// Returns the rings, the reconstruction time, and the pileup stats.
    pub fn simulate_rings_with_pileup(
        &self,
        grb: &GrbConfig,
        perturbation: PerturbationConfig,
        pileup: &adapt_sim::PileupConfig,
        seed: u64,
    ) -> (Vec<ComptonRing>, Duration, adapt_sim::PileupStats) {
        let sim = BurstSimulation::new(
            self.detector.clone(),
            grb.clone(),
            self.background.clone(),
            perturbation,
        );
        let data = sim.simulate(seed);
        let (events, stats) = adapt_sim::apply_pileup(data.events, pileup);
        let t = Instant::now();
        let rings = self.reconstructor.reconstruct_all(&events);
        (rings, t.elapsed(), stats)
    }

    /// Localize pre-reconstructed rings under a mode. `seed` drives the
    /// localization's internal sampling only.
    pub fn localize_rings(
        &self,
        rings: &[ComptonRing],
        mode: PipelineMode,
        grb: &GrbConfig,
        seed: u64,
        reconstruction_time: Duration,
    ) -> TrialOutcome {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x10C4_117E);
        let source = GrbSource::new(grb).direction;
        let t_total = Instant::now();

        // setup: stage the ring buffers the localizer consumes
        let t_setup = Instant::now();
        let mut staged: Vec<ComptonRing> = match mode {
            PipelineMode::OracleNoBackground => rings
                .iter()
                .filter(|r| !r.is_background_truth())
                .cloned()
                .collect(),
            PipelineMode::OracleTrueDeta => rings
                .iter()
                .map(|r| {
                    let d = r
                        .truth
                        .map(|t| t.true_eta_error(r.axis, r.eta).max(1e-4))
                        .unwrap_or(r.d_eta);
                    r.with_d_eta(d)
                })
                .collect(),
            _ => rings.to_vec(),
        };
        staged.shrink_to_fit();
        let setup = t_setup.elapsed();

        let rings_in = staged.len();
        let (direction, surviving, ml_timings) = match mode {
            PipelineMode::Baseline
            | PipelineMode::OracleNoBackground
            | PipelineMode::OracleTrueDeta => {
                let t = Instant::now();
                let res = BaselineLocalizer::new(self.ml_config.localizer.clone())
                    .localize(&staged, &mut rng);
                let timings = StageTimings {
                    approx_refine: t.elapsed(),
                    ..Default::default()
                };
                (res.map(|r| r.direction), rings_in, timings)
            }
            PipelineMode::Ml | PipelineMode::MlQuantized | PipelineMode::MlNoPolar => {
                let mut cfg = self.ml_config.clone();
                let flat_thresholds;
                let (bkg, thresholds, d_eta): (&dyn BackgroundModel, &ThresholdTable, &Mlp) =
                    match mode {
                        PipelineMode::MlQuantized => (
                            self.models.quantized_background.plan(),
                            &self.models.thresholds,
                            &self.models.d_eta,
                        ),
                        PipelineMode::MlNoPolar => {
                            flat_thresholds = ThresholdTable::uniform(0.5);
                            cfg.use_polar_input = false;
                            (
                                &self.compiled_background_no_polar,
                                &flat_thresholds,
                                &self.models.d_eta_no_polar,
                            )
                        }
                        _ => (
                            &self.compiled_background,
                            &self.models.thresholds,
                            &self.models.d_eta,
                        ),
                    };
                let mut ml =
                    MlLocalizer::new(bkg, thresholds, d_eta, cfg).with_recorder(self.recorder);
                if let Some(monitor) = self.drift {
                    ml = ml.with_drift_monitor(monitor);
                }
                match Self::localize_reusing_workspace(&ml, &staged, &mut rng) {
                    Some(r) => (Some(r.direction), r.surviving_rings, r.timings),
                    None => (None, rings_in, StageTimings::default()),
                }
            }
        };

        let total = t_total.elapsed() + reconstruction_time;
        let (error_deg, localized) = match direction {
            Some(d) => (angular_separation(d, source), true),
            None => (180.0, false),
        };

        // flight-recorder stage rows; the NN stages only exist in the ML
        // modes, so recording them elsewhere would pollute the histograms
        // with structural zeros
        self.recorder
            .duration(Stage::Reconstruction, reconstruction_time);
        self.recorder.duration(Stage::Setup, setup);
        self.recorder
            .duration(Stage::ApproxRefine, ml_timings.approx_refine);
        self.recorder.duration(Stage::Total, total);
        if matches!(
            mode,
            PipelineMode::Ml | PipelineMode::MlQuantized | PipelineMode::MlNoPolar
        ) {
            self.recorder
                .duration(Stage::DEtaInference, ml_timings.d_eta_inference);
            self.recorder
                .duration(Stage::BackgroundInference, ml_timings.background_inference);
        }
        self.recorder.add(Counter::TrialsRun, 1);
        self.recorder.add(Counter::RingsIn, rings_in as u64);
        self.recorder
            .add(Counter::RingsRejected, (rings_in - surviving) as u64);

        TrialOutcome {
            error_deg,
            localized,
            rings_in,
            rings_surviving: surviving,
            degenerate_rings: 0,
            total,
        }
    }

    /// Localize through this thread's persistent workspace, so repeated
    /// trials share warm network buffers.
    fn localize_reusing_workspace(
        ml: &MlLocalizer<'_>,
        rings: &[ComptonRing],
        rng: &mut ChaCha8Rng,
    ) -> Option<adapt_localize::MlLocalizeResult> {
        WORKSPACE.with(|ws| ml.localize_with(rings, rng, &mut ws.borrow_mut()))
    }

    /// Run one full trial (simulate → reconstruct → localize).
    pub fn run_trial(
        &self,
        mode: PipelineMode,
        grb: &GrbConfig,
        perturbation: PerturbationConfig,
        seed: u64,
    ) -> TrialOutcome {
        let (rings, recon_time, counts) = self.simulate_rings_counted(grb, perturbation, seed);
        let mut out = self.localize_rings(&rings, mode, grb, seed, recon_time);
        out.degenerate_rings = counts.degenerate_rings;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train_models, TrainingCampaignConfig};
    use adapt_telemetry::PSI_FLAG;
    use std::sync::OnceLock;

    fn models() -> &'static TrainedModels {
        static MODELS: OnceLock<TrainedModels> = OnceLock::new();
        MODELS.get_or_init(|| train_models(&TrainingCampaignConfig::fast(), 17))
    }

    #[test]
    fn all_modes_produce_outcomes() {
        let m = models();
        let pipeline = Pipeline::new(m);
        let grb = GrbConfig::new(2.0, 0.0);
        for mode in [
            PipelineMode::Baseline,
            PipelineMode::Ml,
            PipelineMode::MlQuantized,
            PipelineMode::MlNoPolar,
            PipelineMode::OracleNoBackground,
            PipelineMode::OracleTrueDeta,
        ] {
            let out = pipeline.run_trial(mode, &grb, PerturbationConfig::default(), 5);
            assert!(out.rings_in > 10, "{mode:?}: {} rings", out.rings_in);
            assert!(out.error_deg >= 0.0 && out.error_deg <= 180.0);
            assert!(out.total > Duration::ZERO);
            if matches!(mode, PipelineMode::Ml | PipelineMode::MlQuantized) {
                assert!(out.rings_surviving <= out.rings_in);
            }
        }
    }

    #[test]
    fn bright_burst_localizes_well_in_all_informative_modes() {
        let m = models();
        let pipeline = Pipeline::new(m);
        let grb = GrbConfig::new(4.0, 0.0);
        for mode in [PipelineMode::OracleNoBackground, PipelineMode::Ml] {
            let out = pipeline.run_trial(mode, &grb, PerturbationConfig::default(), 11);
            assert!(
                out.localized && out.error_deg < 20.0,
                "{mode:?}: error {} deg",
                out.error_deg
            );
        }
    }

    #[test]
    fn shared_rings_make_paired_comparisons() {
        let m = models();
        let pipeline = Pipeline::new(m);
        let grb = GrbConfig::new(1.5, 20.0);
        let (rings, rt) = pipeline.simulate_rings(&grb, PerturbationConfig::default(), 3);
        let a = pipeline.localize_rings(&rings, PipelineMode::Baseline, &grb, 3, rt);
        let b = pipeline.localize_rings(&rings, PipelineMode::Ml, &grb, 3, rt);
        assert_eq!(a.rings_in, b.rings_in);
    }

    #[test]
    fn drift_monitor_sees_ml_trial_features_and_flags_the_polar_shift() {
        let m = models();
        let monitor = DriftMonitor::new(m.drift_reference.clone());
        let pipeline = Pipeline::new(m).with_drift_monitor(&monitor);
        let grb = GrbConfig::new(2.0, 0.0);
        let out = pipeline.run_trial(PipelineMode::Ml, &grb, PerturbationConfig::default(), 5);
        // the first background-rejection pass stages every incoming ring,
        // and only that pass feeds the monitor
        assert_eq!(monitor.rows_observed(), out.rings_in as u64);
        let report = pipeline.record_drift().expect("monitor attached");
        assert_eq!(report.per_feature_psi.len(), 13);
        assert!(report.per_feature_psi.iter().all(|p| p.is_finite()));
        // the training reference spans polar angles {0, 30, 60} deg but a
        // single burst sits at one angle, so the polar-angle feature (the
        // last model input) is a genuine concentrated shift the monitor
        // must flag
        let polar_psi = *report.per_feature_psi.last().unwrap();
        assert!(
            polar_psi > PSI_FLAG,
            "single-angle burst not flagged on the polar feature: PSI {polar_psi}"
        );
        assert!(report.features_flagged >= 1);
        assert!(report.max_psi >= report.mean_psi && report.mean_psi >= 0.0);
    }

    #[test]
    fn drift_counters_reach_the_recorder() {
        let m = models();
        let monitor = DriftMonitor::new(m.drift_reference.clone());
        let recorder = adapt_telemetry::FlightRecorder::new();
        let pipeline = Pipeline::new(m)
            .with_recorder(&recorder)
            .with_drift_monitor(&monitor);
        let grb = GrbConfig::new(2.0, 0.0);
        pipeline.run_trial(PipelineMode::Ml, &grb, PerturbationConfig::default(), 9);
        let report = pipeline.record_drift().expect("monitor attached");
        // the counters mirror the report exactly: rows, milli-PSI, flags
        assert_eq!(recorder.counter(Counter::DriftRows), report.rows_observed);
        assert!(report.rows_observed > 0);
        assert_eq!(
            recorder.counter(Counter::DriftMeanPsiMilli),
            (report.mean_psi * 1000.0).round().max(0.0) as u64
        );
        assert_eq!(
            recorder.counter(Counter::DriftFeaturesFlagged),
            report.features_flagged as u64
        );
    }

    #[test]
    fn baseline_mode_feeds_no_drift_rows() {
        let m = models();
        let monitor = DriftMonitor::new(m.drift_reference.clone());
        let pipeline = Pipeline::new(m).with_drift_monitor(&monitor);
        let grb = GrbConfig::new(2.0, 0.0);
        pipeline.run_trial(
            PipelineMode::Baseline,
            &grb,
            PerturbationConfig::default(),
            5,
        );
        assert_eq!(monitor.rows_observed(), 0);
    }

    #[test]
    fn oracle_no_background_strips_truth_background() {
        let m = models();
        let pipeline = Pipeline::new(m);
        let grb = GrbConfig::new(1.0, 0.0);
        let (rings, rt) = pipeline.simulate_rings(&grb, PerturbationConfig::default(), 7);
        let n_bkg = rings.iter().filter(|r| r.is_background_truth()).count();
        assert!(n_bkg > 0);
        let out = pipeline.localize_rings(&rings, PipelineMode::OracleNoBackground, &grb, 7, rt);
        assert_eq!(out.rings_in, rings.len() - n_bkg);
    }
}
