//! The trigger robustness matrix: hostile-sky scenarios × background
//! scales × trigger configs, each cell replayed through the full
//! [`FlightRuntime`] and scored against its ground-truth injections.
//!
//! Every cell is a deterministic simulation: the cell seed is derived
//! from the campaign seed and the cell's grid coordinates, so replaying
//! any single cell reproduces its alerts bit-identically. A cell run
//! captures per-decision trigger forensics (every fire/no-fire decision
//! near a truth onset) into an optional per-cell NDJSON file that
//! `adapt telemetry-report --forensics` can explain after the fact.
//!
//! `adapt matrix` drives [`run_matrix`] and writes the schema-versioned
//! `BENCH_matrix.json` consumed by `bench_gate` (detection-efficiency
//! regressions are contract violations) and rendered into EXPERIMENTS.md.

use crate::EnvReport;
use adapt_core::training::TrainedModels;
use adapt_onboard::{
    match_alerts_to_truth, FlightRuntime, RuntimeConfig, TruthMatchReport, FLIGHT_NOMINAL_FLUENCE,
};
use adapt_sim::{
    FlightProfile, GrbConfig, Scenario, ScenarioComponent, StreamConfig, StreamingSource,
};
use adapt_telemetry::{render_forensics, FlightRecorder, TriggerDecisionRecord};
use serde::Serialize;
use std::path::PathBuf;

/// `BENCH_matrix.json` schema version.
pub const MATRIX_SCHEMA: u64 = 1;

/// One scenario column of the matrix: a name, the scenario components,
/// and any extra bursts injected through the plain stream path.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Stable cell-id prefix (kebab-case).
    pub name: &'static str,
    /// The hostile-sky component stack.
    pub scenario: Scenario,
    /// Extra ground-truth bursts injected outside the scenario layer.
    pub bursts: Vec<(f64, GrbConfig)>,
}

impl ScenarioSpec {
    /// All ground-truth onsets of this scenario (explicit bursts plus
    /// scenario-layer injections), sorted.
    pub fn truth_onsets_s(&self) -> Vec<f64> {
        let mut onsets: Vec<f64> = self.bursts.iter().map(|(t, _)| *t).collect();
        onsets.extend(self.scenario.injections().iter().map(|inj| inj.t_onset_s));
        onsets.sort_by(f64::total_cmp);
        onsets
    }
}

/// The scenario catalog swept by the full matrix, parameterized by the
/// per-cell stream duration so onsets land after trigger calibration.
pub fn scenario_catalog(duration_s: f64) -> Vec<ScenarioSpec> {
    let d = duration_s;
    let mid = 0.5 * d;
    vec![
        ScenarioSpec {
            name: "quiet",
            scenario: Scenario::quiet(),
            bursts: vec![],
        },
        ScenarioSpec {
            name: "clean-burst",
            scenario: Scenario::quiet(),
            bursts: vec![(mid, GrbConfig::new(1.5, 0.0))],
        },
        ScenarioSpec {
            name: "back-to-back-bursts",
            scenario: Scenario::quiet().with(ScenarioComponent::BackToBackBursts {
                t_onset_s: 0.4 * d,
                separation_s: 20.0,
                fluence: 1.5,
                polar_deg: 10.0,
            }),
            bursts: vec![],
        },
        ScenarioSpec {
            name: "sgr-flare-train",
            scenario: Scenario::quiet().with(ScenarioComponent::SgrFlareTrain {
                t_start_s: 0.3 * d,
                period_s: 30.0,
                flares: 3,
                fluence: 1.0,
                polar_deg: 20.0,
            }),
            bursts: vec![],
        },
        ScenarioSpec {
            name: "solar-flare-ramp",
            scenario: Scenario::quiet().with(ScenarioComponent::SolarFlareRamp {
                t_start_s: 0.2 * d,
                rise_s: 30.0,
                hold_s: 0.4 * d,
                fall_s: 30.0,
                peak_multiplier: 3.0,
            }),
            bursts: vec![(mid, GrbConfig::new(1.5, 0.0))],
        },
        ScenarioSpec {
            name: "saa-step",
            scenario: Scenario::quiet().with(ScenarioComponent::SaaStep {
                t_start_s: 0.3 * d,
                t_end_s: 0.7 * d,
                multiplier: 2.5,
            }),
            bursts: vec![(mid, GrbConfig::new(1.5, 0.0))],
        },
        ScenarioSpec {
            name: "saa-spike",
            scenario: Scenario::quiet().with(ScenarioComponent::SaaSpike {
                t_s: mid,
                sigma_s: 2.0,
                multiplier: 6.0,
            }),
            bursts: vec![],
        },
        ScenarioSpec {
            name: "occultation-dip",
            // Earth occultation blocks the source as well as the
            // background: the dip scales the ambient rate down while a
            // co-timed dropout eats almost every photon — burst included.
            // The dim burst inside is the canonical missed-burst cell.
            scenario: Scenario::quiet()
                .with(ScenarioComponent::OccultationDip {
                    t_start_s: 0.35 * d,
                    t_end_s: 0.65 * d,
                    floor: 0.25,
                })
                .with(ScenarioComponent::DetectorDropout {
                    t_start_s: 0.35 * d,
                    t_end_s: 0.65 * d,
                    drop_fraction: 0.97,
                }),
            bursts: vec![(mid, GrbConfig::new(0.02, 40.0))],
        },
        ScenarioSpec {
            name: "detector-dropout",
            scenario: Scenario::quiet().with(ScenarioComponent::DetectorDropout {
                t_start_s: 0.4 * d,
                t_end_s: 0.6 * d,
                drop_fraction: 0.7,
            }),
            bursts: vec![(mid, GrbConfig::new(0.8, 0.0))],
        },
        ScenarioSpec {
            name: "dead-time",
            scenario: Scenario::quiet()
                .with(ScenarioComponent::DeadTime { tau_s: 2e-4 })
                .with(ScenarioComponent::SaaStep {
                    t_start_s: 0.3 * d,
                    t_end_s: 0.7 * d,
                    multiplier: 2.0,
                }),
            bursts: vec![(mid, GrbConfig::new(1.5, 0.0))],
        },
    ]
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Simulated stream length per cell (s).
    pub duration_s: f64,
    /// Background-scale axis (multiples of the nominal rate).
    pub background_scales: Vec<f64>,
    /// Trigger-threshold axis (sigmas).
    pub threshold_sigmas: Vec<f64>,
    /// Campaign seed; every cell derives its own seed from it.
    pub seed: u64,
    /// Write per-cell decision/alert NDJSON captures into this directory.
    pub ndjson_dir: Option<PathBuf>,
    /// Restrict the scenario axis to these names (empty = all).
    pub scenarios: Vec<String>,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            duration_s: 200.0,
            background_scales: vec![1.0, 3.0],
            threshold_sigmas: vec![7.0, 9.0],
            seed: 0x0ADA_97B1,
            ndjson_dir: None,
            scenarios: Vec::new(),
        }
    }
}

impl MatrixConfig {
    /// The CI smoke grid: quiet + clean-burst + the missed-burst cell at
    /// one background scale and the default threshold — small enough to
    /// gate every commit, rich enough to exercise both forensics paths.
    pub fn smoke() -> Self {
        MatrixConfig {
            duration_s: 120.0,
            background_scales: vec![1.0],
            threshold_sigmas: vec![7.0],
            scenarios: vec![
                "quiet".into(),
                "clean-burst".into(),
                "occultation-dip".into(),
            ],
            ..MatrixConfig::default()
        }
    }
}

/// The deterministic seed of one cell: campaign seed mixed with the
/// cell's grid coordinates (same constant as `epoch_rng_seed`, different
/// lanes), so replaying one cell never needs the rest of the grid.
pub fn cell_seed(campaign_seed: u64, scenario: &str, scale: f64, sigma: f64) -> u64 {
    let mut h = campaign_seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in scenario.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
    }
    h ^= (scale * 16.0) as u64;
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (sigma * 16.0) as u64
}

/// One scored cell of the matrix.
#[derive(Debug, Clone, Serialize)]
pub struct CellReport {
    /// Stable id: `scenario/x{scale}/t{sigma}`.
    pub id: String,
    pub scenario: String,
    /// Scenario component kinds active in this cell.
    pub components: Vec<String>,
    pub background_scale: f64,
    pub threshold_sigma: f64,
    /// Replay seed: rerunning this cell with this seed is bit-identical.
    pub seed: u64,
    pub duration_s: f64,
    pub n_truth: usize,
    pub n_alerts: usize,
    pub detected: usize,
    pub missed: usize,
    pub false_alerts: usize,
    pub detection_efficiency: f64,
    pub false_alerts_per_hour: f64,
    /// Mean onset→trigger latency over the detected onsets (s).
    pub alert_latency_mean_s: Option<f64>,
    /// Mean containment radius over the emitted alerts (deg).
    pub mean_containment_deg: Option<f64>,
    pub events_ingested: u64,
    /// Trigger decisions captured for forensics.
    pub decisions_recorded: usize,
}

/// What one cell run produced beyond the scored row: the raw forensics
/// capture, for rendering or NDJSON export.
pub struct CellOutcome {
    pub report: CellReport,
    pub decisions: Vec<TriggerDecisionRecord>,
    pub truth: TruthMatchReport,
    /// Full NDJSON capture of the run (schema-versioned).
    pub ndjson: String,
}

/// Run one cell through the flight runtime and score it.
pub fn run_cell(
    models: &TrainedModels,
    spec: &ScenarioSpec,
    duration_s: f64,
    background_scale: f64,
    threshold_sigma: f64,
    seed: u64,
) -> CellOutcome {
    let mut stream = StreamConfig::new(FlightProfile::checkout_2h(), duration_s)
        .with_scenario(spec.scenario.clone());
    stream.start_h = 1.5;
    stream.background.particle_fluence = FLIGHT_NOMINAL_FLUENCE;
    stream.background_scale = background_scale;
    for (onset, grb) in &spec.bursts {
        stream = stream.with_burst(*onset, grb.clone());
    }
    let truth_onsets = spec.truth_onsets_s();

    // Deterministic cell contract: full-ml pinned (no wall-clock ladder)
    // and an ingest queue sized so DropNewest never engages — the alert
    // set and every decision record are a pure function of the seeds, so
    // any cell replays bit-identically from its recorded seed.
    let mut rc = RuntimeConfig {
        truth_onsets_s: truth_onsets.clone(),
        deterministic: true,
        ingest_capacity: 1 << 17,
        ..RuntimeConfig::default()
    };
    rc.trigger.threshold_sigma = threshold_sigma;
    rc.seed = seed;
    let truth_window_s = rc.truth_window_s;

    let recorder = FlightRecorder::new();
    let runtime = FlightRuntime::new(models, rc).with_recorder(&recorder);
    let report = runtime.run(StreamingSource::new(stream, seed));

    let truth = match_alerts_to_truth(&report.alerts, &truth_onsets, truth_window_s);
    let decisions = recorder.trigger_decision_records();
    let latency_mean = (!truth.latencies_s.is_empty())
        .then(|| truth.latencies_s.iter().sum::<f64>() / truth.latencies_s.len() as f64);
    let containment_mean = (!report.alerts.is_empty()).then(|| {
        report
            .alerts
            .iter()
            .map(|a| a.containment_radius_deg)
            .sum::<f64>()
            / report.alerts.len() as f64
    });
    let cell = CellReport {
        id: format!("{}/x{background_scale}/t{threshold_sigma}", spec.name),
        scenario: spec.name.to_string(),
        components: spec
            .scenario
            .components
            .iter()
            .map(|c| c.kind().to_string())
            .collect(),
        background_scale,
        threshold_sigma,
        seed,
        duration_s,
        n_truth: truth.n_truth,
        n_alerts: truth.n_alerts,
        detected: truth.detected,
        missed: truth.missed,
        false_alerts: truth.false_alerts,
        detection_efficiency: truth.detection_efficiency(),
        false_alerts_per_hour: truth.false_alerts as f64 / (duration_s / 3600.0),
        alert_latency_mean_s: latency_mean,
        mean_containment_deg: containment_mean,
        events_ingested: report.ingest_stats.pushed,
        decisions_recorded: decisions.len(),
    };
    CellOutcome {
        report: cell,
        decisions,
        truth,
        ndjson: adapt_telemetry::export(&recorder, 1),
    }
}

/// The schema-versioned campaign report written to `BENCH_matrix.json`.
#[derive(Serialize)]
pub struct MatrixReport {
    pub schema: u64,
    pub description: String,
    pub env: EnvReport,
    pub duration_s: f64,
    pub seed: u64,
    pub scenario_kinds: usize,
    pub background_scales: Vec<f64>,
    pub threshold_sigmas: Vec<f64>,
    pub cells: Vec<CellReport>,
}

impl MatrixReport {
    /// Render the matrix as fixed-width tables (one per threshold),
    /// ready for EXPERIMENTS.md or the terminal.
    pub fn render_tables(&self) -> String {
        let mut out = String::new();
        for &sigma in &self.threshold_sigmas {
            out.push_str(&format!("threshold {sigma:.1}σ\n"));
            out.push_str(&format!(
                "{:<22} {:>6} {:>6} {:>5} {:>7} {:>7} {:>9} {:>9} {:>10}\n",
                "scenario", "scale", "truth", "det", "missed", "false", "eff", "fa/hr", "latency_s"
            ));
            for c in self.cells.iter().filter(|c| c.threshold_sigma == sigma) {
                out.push_str(&format!(
                    "{:<22} {:>6.1} {:>6} {:>5} {:>7} {:>7} {:>9.2} {:>9.1} {:>10}\n",
                    c.scenario,
                    c.background_scale,
                    c.n_truth,
                    c.detected,
                    c.missed,
                    c.false_alerts,
                    c.detection_efficiency,
                    c.false_alerts_per_hour,
                    c.alert_latency_mean_s
                        .map(|v| format!("{v:.2}"))
                        .unwrap_or_else(|| "-".into()),
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// Violations the smoke grid treats as hard failures.
#[derive(Debug, Clone, Serialize)]
pub struct SmokeVerdict {
    /// Failures: quiet-cell false alerts, clean-burst misses.
    pub violations: Vec<String>,
}

/// Check the invariants CI gates on: a quiet sky must emit zero false
/// alerts and a clean on-axis burst must always be detected, at every
/// swept background scale and threshold.
pub fn smoke_verdict(report: &MatrixReport) -> SmokeVerdict {
    let mut violations = Vec::new();
    for c in &report.cells {
        if c.scenario == "quiet" && c.false_alerts > 0 {
            violations.push(format!(
                "{}: {} false alerts on a quiet sky",
                c.id, c.false_alerts
            ));
        }
        if c.scenario == "clean-burst" && c.missed > 0 {
            violations.push(format!("{}: clean burst missed", c.id));
        }
    }
    SmokeVerdict { violations }
}

/// Run the whole campaign. Returns the report plus rendered forensics
/// for every cell that missed a burst or fired falsely (the root-cause
/// companion to the scored table).
pub fn run_matrix(models: &TrainedModels, config: &MatrixConfig) -> (MatrixReport, String) {
    let catalog = scenario_catalog(config.duration_s);
    let specs: Vec<&ScenarioSpec> = catalog
        .iter()
        .filter(|s| config.scenarios.is_empty() || config.scenarios.iter().any(|n| n == s.name))
        .collect();
    if let Some(dir) = &config.ndjson_dir {
        std::fs::create_dir_all(dir).expect("create NDJSON directory");
    }

    let mut cells = Vec::new();
    let mut forensics = String::new();
    for spec in &specs {
        for &scale in &config.background_scales {
            for &sigma in &config.threshold_sigmas {
                let seed = cell_seed(config.seed, spec.name, scale, sigma);
                let outcome = run_cell(models, spec, config.duration_s, scale, sigma, seed);
                eprintln!(
                    "cell {:<32} det {}/{} false {} ({} decisions)",
                    outcome.report.id,
                    outcome.report.detected,
                    outcome.report.n_truth,
                    outcome.report.false_alerts,
                    outcome.report.decisions_recorded,
                );
                if let Some(dir) = &config.ndjson_dir {
                    let fname = outcome.report.id.replace('/', "_") + ".ndjson";
                    std::fs::write(dir.join(fname), &outcome.ndjson)
                        .expect("write per-cell NDJSON");
                }
                if outcome.report.missed > 0 || outcome.report.false_alerts > 0 {
                    forensics.push_str(&format!("\n=== cell {} ===\n", outcome.report.id));
                    forensics.push_str(&render_forensics(&outcome.decisions));
                }
                cells.push(outcome.report);
            }
        }
    }

    let report = MatrixReport {
        schema: MATRIX_SCHEMA,
        description: format!(
            "trigger robustness matrix: {} scenarios x {:?} background x {:?} sigma, \
             {}s cells; regenerate with `adapt train --scale fast --seed 44455 --out \
             models.json && adapt matrix --models models.json`",
            specs.len(),
            config.background_scales,
            config.threshold_sigmas,
            config.duration_s
        ),
        env: EnvReport::capture(),
        duration_s: config.duration_s,
        seed: config.seed,
        scenario_kinds: specs.len(),
        background_scales: config.background_scales.clone(),
        threshold_sigmas: config.threshold_sigmas.clone(),
        cells,
    };
    (report, forensics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_the_required_grid() {
        let catalog = scenario_catalog(200.0);
        assert!(catalog.len() >= 6, "matrix needs >= 6 scenario kinds");
        let kinds: Vec<&str> = catalog.iter().map(|s| s.name).collect();
        for required in ["quiet", "clean-burst", "occultation-dip", "dead-time"] {
            assert!(kinds.contains(&required), "missing {required}");
        }
        // every non-quiet scenario carries ground truth or a rate stressor
        for spec in &catalog {
            if spec.name == "quiet" {
                assert!(spec.truth_onsets_s().is_empty());
            } else {
                assert!(
                    !spec.truth_onsets_s().is_empty() || !spec.scenario.is_quiet(),
                    "{} is inert",
                    spec.name
                );
            }
        }
        // back-to-back expands to two truth onsets through the scenario
        let b2b = catalog
            .iter()
            .find(|s| s.name == "back-to-back-bursts")
            .unwrap();
        assert_eq!(b2b.truth_onsets_s().len(), 2);
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let a = cell_seed(1, "quiet", 1.0, 7.0);
        assert_eq!(a, cell_seed(1, "quiet", 1.0, 7.0));
        assert_ne!(a, cell_seed(1, "quiet", 3.0, 7.0));
        assert_ne!(a, cell_seed(1, "quiet", 1.0, 9.0));
        assert_ne!(a, cell_seed(1, "saa-step", 1.0, 7.0));
        assert_ne!(a, cell_seed(2, "quiet", 1.0, 7.0));
    }

    #[test]
    fn smoke_verdict_flags_the_gated_invariants() {
        let mk = |scenario: &str, false_alerts: usize, missed: usize| CellReport {
            id: format!("{scenario}/x1/t7"),
            scenario: scenario.into(),
            components: vec![],
            background_scale: 1.0,
            threshold_sigma: 7.0,
            seed: 0,
            duration_s: 120.0,
            n_truth: 1,
            n_alerts: 1,
            detected: 1 - missed,
            missed,
            false_alerts,
            detection_efficiency: (1 - missed) as f64,
            false_alerts_per_hour: false_alerts as f64 * 30.0,
            alert_latency_mean_s: None,
            mean_containment_deg: None,
            events_ingested: 1000,
            decisions_recorded: 10,
        };
        let report = MatrixReport {
            schema: MATRIX_SCHEMA,
            description: String::new(),
            env: EnvReport::capture(),
            duration_s: 120.0,
            seed: 0,
            scenario_kinds: 2,
            background_scales: vec![1.0],
            threshold_sigmas: vec![7.0],
            cells: vec![
                mk("quiet", 1, 0),
                mk("clean-burst", 0, 1),
                mk("saa-step", 2, 1),
            ],
        };
        let verdict = smoke_verdict(&report);
        assert_eq!(verdict.violations.len(), 2, "{:?}", verdict.violations);
        assert!(verdict.violations[0].contains("quiet"));
        assert!(verdict.violations[1].contains("clean burst missed"));
        // hostile cells may miss or fire falsely without failing smoke
        let tables = report.render_tables();
        assert!(tables.contains("saa-step"));
    }
}
