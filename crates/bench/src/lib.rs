//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each `run_*` function returns the formatted table its binary prints;
//! the `figures` bench target runs them all at a reduced trial count so
//! `cargo bench --workspace` regenerates the full result set. Scale any
//! run toward the paper's protocol with environment variables:
//!
//! | variable            | default | paper value |
//! |---------------------|---------|-------------|
//! | `ADAPT_TRIALS`      | 40      | 1000        |
//! | `ADAPT_META_TRIALS` | 3       | 10          |
//! | `ADAPT_TIMING_REPS` | 50      | 300         |
//! | `ADAPT_TRAIN_SCALE` | default | (270 M photons) |
//!
//! Trained models are cached per training scale, at
//! `target/adapt-models-fast.json` under `ADAPT_TRAIN_SCALE=fast` and
//! `target/adapt-models-default.json` otherwise, so a run at one scale
//! never loads the other's weights (override the path with
//! `ADAPT_MODEL_CACHE`); delete the file to retrain.

use adapt_core::containment_experiment;
use adapt_core::prelude::*;
use adapt_core::{fluence_sweep, format_rows, measure_stages, noise_sweep, polar_sweep};
use adapt_fpga::{background_net_shapes, synthesize, FpgaKernel, Precision, SynthesisConfig};
use std::path::PathBuf;

pub mod calibration;
pub mod matrix;
pub use calibration::{
    burst_seed, coverage_verdict, run_calibration, CalibrationConfig, CalibrationReport,
    CoverageCell, CoverageVerdict, CALIBRATION_SCHEMA,
};
pub use matrix::{
    cell_seed, run_cell, run_matrix, scenario_catalog, smoke_verdict, CellOutcome, CellReport,
    MatrixConfig, MatrixReport, ScenarioSpec, SmokeVerdict, MATRIX_SCHEMA,
};

/// Polar-angle grid of the paper's sweeps.
pub const POLAR_ANGLES: [f64; 9] = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0];

/// Fluence grid of Fig. 9 (MeV/cm²).
pub const FLUENCES: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// Noise grid of Fig. 10 (ε, percent).
pub const EPSILONS: [f64; 4] = [0.0, 1.0, 5.0, 10.0];

/// Where trained models are cached between runs: `ADAPT_MODEL_CACHE`,
/// or else a file keyed by `ADAPT_TRAIN_SCALE` (see `cache_path_for`).
pub fn model_cache_path() -> PathBuf {
    cache_path_for(
        std::env::var("ADAPT_MODEL_CACHE").ok().as_deref(),
        std::env::var("ADAPT_TRAIN_SCALE").ok().as_deref(),
    )
}

/// The model cache path for the given `ADAPT_MODEL_CACHE` and
/// `ADAPT_TRAIN_SCALE` values: the override when set, else
/// `target/adapt-models-fast.json` for the fast scale and
/// `target/adapt-models-default.json` for every other, the same split
/// [`campaign_config`] makes.
fn cache_path_for(cache: Option<&str>, train_scale: Option<&str>) -> PathBuf {
    match (cache, is_fast_scale(train_scale)) {
        (Some(path), _) => PathBuf::from(path),
        (None, true) => PathBuf::from("target/adapt-models-fast.json"),
        (None, false) => PathBuf::from("target/adapt-models-default.json"),
    }
}

fn is_fast_scale(train_scale: Option<&str>) -> bool {
    train_scale == Some("fast")
}

/// The training campaign configuration selected by `ADAPT_TRAIN_SCALE`
/// (`fast` for CI-sized runs, anything else for the standard scale).
pub fn campaign_config() -> TrainingCampaignConfig {
    if is_fast_scale(std::env::var("ADAPT_TRAIN_SCALE").ok().as_deref()) {
        TrainingCampaignConfig::fast()
    } else {
        TrainingCampaignConfig::default()
    }
}

/// Load or train the model set shared by every experiment.
pub fn shared_models() -> TrainedModels {
    TrainedModels::load_or_train(&model_cache_path(), &campaign_config(), 0xADA7)
}

/// Fig. 4: impact of background particles and dη error on localization
/// accuracy (1 MeV/cm², normal incidence; baseline vs the two oracles).
pub fn run_fig4(models: &TrainedModels, spec: TrialSpec) -> String {
    let pipeline = Pipeline::new(models);
    let grb = GrbConfig::new(1.0, 0.0);
    let mut out = String::from(
        "Fig. 4 — error sources at 1 MeV/cm^2, normal incidence\n\
         (paper: full ~10-13 deg @68%; removing background and fixing d-eta\n\
          each substantially tighten both containment levels)\n\n",
    );
    out.push_str(&format!(
        "{:<30} {:>14} {:>14}\n",
        "configuration", "68% (deg)", "95% (deg)"
    ));
    for mode in [
        PipelineMode::Baseline,
        PipelineMode::OracleNoBackground,
        PipelineMode::OracleTrueDeta,
    ] {
        let stats = containment_experiment(
            &pipeline,
            mode,
            &grb,
            PerturbationConfig::default(),
            spec,
            0xF14,
        );
        out.push_str(&format!(
            "{:<30} {:>7.2}±{:<5.2} {:>7.2}±{:<5.2}\n",
            mode.label(),
            stats.c68_mean,
            stats.c68_err,
            stats.c95_mean,
            stats.c95_err
        ));
    }
    out
}

/// Fig. 7: impact of the polar-angle input feature.
pub fn run_fig7(models: &TrainedModels, spec: TrialSpec) -> String {
    let pipeline = Pipeline::new(models);
    let rows = polar_sweep(
        &pipeline,
        &[PipelineMode::MlNoPolar, PipelineMode::Ml],
        1.0,
        &POLAR_ANGLES,
        spec,
        0xF17,
    );
    format!(
        "Fig. 7 — polar-angle input ablation at 1 MeV/cm^2\n\
         (paper: the polar input helps most at the lowest/highest angles)\n\n{}",
        format_rows("angle", &rows)
    )
}

/// Fig. 8: accuracy vs polar angle, ML vs no ML.
pub fn run_fig8(models: &TrainedModels, spec: TrialSpec) -> String {
    let pipeline = Pipeline::new(models);
    let rows = polar_sweep(
        &pipeline,
        &[PipelineMode::Baseline, PipelineMode::Ml],
        1.0,
        &POLAR_ANGLES,
        spec,
        0xF18,
    );
    format!(
        "Fig. 8 — accuracy vs polar angle at 1 MeV/cm^2\n\
         (paper: ML consistently improves accuracy, especially 95% tails;\n\
          <=6 deg @68% across angles at >=1 MeV/cm^2)\n\n{}",
        format_rows("angle", &rows)
    )
}

/// Fig. 9: accuracy vs fluence at normal incidence.
pub fn run_fig9(models: &TrainedModels, spec: TrialSpec) -> String {
    let pipeline = Pipeline::new(models);
    let rows = fluence_sweep(
        &pipeline,
        &[PipelineMode::Baseline, PipelineMode::Ml],
        &FLUENCES,
        spec,
        0xF19,
    );
    format!(
        "Fig. 9 — accuracy vs fluence, normal incidence\n\
         (paper: ML wins grow for dimmer bursts; error shrinks with fluence)\n\n{}",
        format_rows("fluence", &rows)
    )
}

/// Fig. 10: robustness to unmodeled Gaussian perturbation.
pub fn run_fig10(models: &TrainedModels, spec: TrialSpec) -> String {
    let pipeline = Pipeline::new(models);
    let rows = noise_sweep(
        &pipeline,
        &[PipelineMode::Baseline, PipelineMode::Ml],
        1.0,
        &EPSILONS,
        spec,
        0xF1A,
    );
    format!(
        "Fig. 10 — accuracy with inputs perturbed by eps% Gaussian noise\n\
         (paper: ML keeps its advantage under perturbation; 68% error grows\n\
          more slowly with noise when the networks are in the loop)\n\n{}",
        format_rows("eps %", &rows)
    )
}

/// Fig. 11: INT8-quantized vs FP32 background model.
pub fn run_fig11(models: &TrainedModels, spec: TrialSpec) -> String {
    let pipeline = Pipeline::new(models);
    let rows = polar_sweep(
        &pipeline,
        &[PipelineMode::Ml, PipelineMode::MlQuantized],
        1.0,
        &POLAR_ANGLES,
        spec,
        0xF1B,
    );
    format!(
        "Fig. 11 — localization accuracy with the quantized background model\n\
         (paper: INT8 tracks FP32 at 68% containment; 95% tails degrade some)\n\n{}",
        format_rows("angle", &rows)
    )
}

/// Tables I/II: per-stage latency on this host (percentile columns).
pub fn run_table12(models: &TrainedModels, repetitions: usize) -> String {
    run_table12_with(models, repetitions, false)
}

/// As [`run_table12`]; `paper_layout` selects the paper's original
/// two-column (mean + range) rendering instead of the percentile table.
pub fn run_table12_with(models: &TrainedModels, repetitions: usize, paper_layout: bool) -> String {
    let table = measure_stages(models, repetitions, 0x712);
    format!(
        "Tables I/II — stage timing on this host over {} repetitions\n\
         (paper: RPi 3B+ total 834 ms [730-1116]; Atom total 220.7 ms\n\
          [204-246]; NN inference a modest share of the total)\n\n{}",
        repetitions,
        if paper_layout {
            table.format_paper()
        } else {
            table.format()
        }
    )
}

/// Table III: FPGA synthesis model, INT8 vs FP32, plus bit-exact co-sim.
pub fn run_table3(models: &TrainedModels) -> String {
    let cfg = SynthesisConfig::default();
    let shapes = background_net_shapes();
    let int8 = synthesize(&shapes, Precision::Int8, &cfg);
    let fp32 = synthesize(&shapes, Precision::Fp32, &cfg);
    let n_rings = 597; // paper's mean first-iteration ring count
    let mut out = String::from(
        "Table III — FPGA kernel model (10 ns clock), INT8 vs FP32\n\
         (paper: INT8 881/692 cycles, 4.13 ms for 597 rings, 1.75x the\n\
          FP32 throughput, far fewer BRAM/DSP/FF; absolute resource counts\n\
          below come from a first-order model, see EXPERIMENTS.md)\n\n",
    );
    out.push_str(&format!(
        "{:<28} {:>12} {:>12}\n",
        "Statistic", "INT8", "FP32"
    ));
    let rows: Vec<(&str, f64, f64)> = vec![
        (
            "Latency (cycles)",
            int8.latency_cycles as f64,
            fp32.latency_cycles as f64,
        ),
        (
            "Initiation Interval",
            int8.ii_cycles as f64,
            fp32.ii_cycles as f64,
        ),
        (
            "BRAM Blocks",
            int8.bram_blocks as f64,
            fp32.bram_blocks as f64,
        ),
        ("DSP Slices", int8.dsp_slices as f64, fp32.dsp_slices as f64),
        ("Flip-Flops", int8.flip_flops as f64, fp32.flip_flops as f64),
        (
            "Lookup Tables",
            int8.lookup_tables as f64,
            fp32.lookup_tables as f64,
        ),
        (
            "Latency (ms) for 597 rings",
            int8.batch_latency_ms(n_rings, 10.0),
            fp32.batch_latency_ms(n_rings, 10.0),
        ),
    ];
    for (name, a, b) in rows {
        out.push_str(&format!("{:<28} {:>12.2} {:>12.2}\n", name, a, b));
    }
    out.push_str(&format!(
        "\nthroughput ratio FP32->INT8: {:.2}x (paper: 1.75x)\n",
        fp32.ii_cycles as f64 / int8.ii_cycles as f64
    ));

    // bit-exact co-simulation of the INT8 kernel against software
    let kernel = FpgaKernel::new(&models.quantized_background, &cfg);
    let inputs: Vec<Vec<f64>> = (0..32)
        .map(|i| {
            (0..13)
                .map(|j| ((i * 13 + j) as f64 * 0.37).sin())
                .collect()
        })
        .collect();
    let cosim = kernel.cosimulate(&inputs);
    let sw: Vec<f64> = inputs
        .iter()
        .map(|x| models.quantized_background.forward_one(x))
        .collect();
    let exact = cosim.outputs.iter().zip(&sw).all(|(a, b)| a == b);
    out.push_str(&format!(
        "C/RTL-style co-simulation: {} outputs, bit-exact vs software: {}\n",
        cosim.outputs.len(),
        exact
    ));
    out
}

/// Training report: campaign sizes, validation losses, thresholds.
pub fn run_train_report(models: &TrainedModels) -> String {
    let mut out = String::from("Training report\n\n");
    out.push_str(&format!(
        "background val loss (BCE): {:.4}\nd-eta val loss (MSE on ln d-eta): {:.4}\n",
        models.val_losses.0, models.val_losses.1
    ));
    out.push_str("per-polar-bin thresholds: ");
    for t in models.thresholds.as_slice() {
        out.push_str(&format!("{:.2} ", t));
    }
    out.push('\n');
    for angle in [0.0, 40.0, 80.0] {
        let acc = adapt_core::training::background_accuracy_at(models, angle, 0xACC);
        out.push_str(&format!(
            "background accuracy on fresh burst @ {angle:>2.0} deg: {:.3}\n",
            acc
        ));
    }
    out
}

/// Measurement provenance shared by every JSON benchmark report
/// (`BENCH_matrix.json`, `BENCH_calibration.json`, perfbench results):
/// which tree, which CPU, and which kernel rung the production kernels
/// ran on — so a checked-in report can never be mistaken for numbers
/// from a different machine or fallback path.
#[derive(serde::Serialize)]
pub struct EnvReport {
    pub git_rev: String,
    pub cpu_model: String,
    /// The rung production kernels run on this host
    /// ([`adapt_nn::detected_isa`]).
    pub kernel_isa: String,
    /// CPU features the detector saw (superset of what the kernels use).
    pub isa_features: Vec<String>,
}

impl EnvReport {
    /// Capture provenance for this host, with the rung production
    /// kernels run on.
    pub fn capture() -> Self {
        EnvReport {
            git_rev: git_rev(),
            cpu_model: cpu_model(),
            kernel_isa: adapt_nn::detected_isa().to_string(),
            isa_features: adapt_nn::detected_features()
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

/// Short git revision of the working tree, or `"unknown"` outside git.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// First `model name` from /proc/cpuinfo (Linux), or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `"schema"` field of an existing report file, if any. Files from
/// before the field existed count as schema 1. Report writers use this
/// to refuse clobbering a file written by a *newer* schema, so a stale
/// binary cannot silently downgrade checked-in results.
pub fn existing_schema(path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: serde::Value = serde_json::from_str(&text).ok()?;
    Some(match v.get("schema") {
        Some(serde::Value::UInt(n)) => *n,
        Some(serde::Value::Int(n)) => (*n).max(0) as u64,
        _ => 1,
    })
}

/// Timing repetitions from the environment (default 50; paper 300).
pub fn timing_reps() -> usize {
    std::env::var("ADAPT_TIMING_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

/// Ablation study over the design choices DESIGN.md calls out: the dEta
/// update policy, single-shot vs iterative background rejection, the
/// approximation sample size, and the refinement gate width.
pub fn run_ablations(models: &TrainedModels, spec: TrialSpec) -> String {
    use adapt_localize::{DEtaUpdate, MlPipelineConfig};
    let grb = GrbConfig::new(1.0, 0.0);
    let mut out = String::from("Ablations at 1 MeV/cm^2, normal incidence (68%/95% deg)\n\n");
    let mut run = |label: &str, cfg: MlPipelineConfig| {
        let pipeline = Pipeline::new(models).with_ml_config(cfg);
        let stats = containment_experiment(
            &pipeline,
            PipelineMode::Ml,
            &grb,
            PerturbationConfig::default(),
            spec,
            0xAB1A,
        );
        out.push_str(&format!(
            "{:<44} {:>6.2}±{:<5.2} {:>6.2}±{:<5.2}\n",
            label, stats.c68_mean, stats.c68_err, stats.c95_mean, stats.c95_err
        ));
    };

    run(
        "paper defaults (Replace, 5 iter)",
        MlPipelineConfig::default(),
    );
    run(
        "dEta policy: Inflate (only widen)",
        MlPipelineConfig {
            d_eta_update: DEtaUpdate::Inflate,
            ..Default::default()
        },
    );
    run(
        "dEta policy: Off (background net only)",
        MlPipelineConfig {
            d_eta_update: DEtaUpdate::Off,
            ..Default::default()
        },
    );
    run(
        "single-shot background rejection (1 iter)",
        MlPipelineConfig {
            max_ml_iterations: 1,
            ..Default::default()
        },
    );
    for sample in [8, 48] {
        let mut cfg = MlPipelineConfig::default();
        cfg.localizer.approx.sample_rings = sample;
        run(&format!("approx sample_rings = {sample}"), cfg);
    }
    for gate in [2.0, 5.0] {
        let mut cfg = MlPipelineConfig::default();
        cfg.localizer.refine.gate_z = gate;
        run(&format!("refinement gate_z = {gate}"), cfg);
    }
    out
}

/// Burst-trigger study (the "detect" half of detect-and-localize):
/// detection efficiency and trigger significance vs fluence, judged by
/// the flight trigger replayed after a quiet lead.
pub fn run_detection(spec: TrialSpec) -> String {
    use adapt_onboard::{OnlineTriggerConfig, TriggerReplay};
    use adapt_sim::{BurstSimulation, GrbConfig};
    let config = OnlineTriggerConfig::default();
    let quiet = BurstSimulation::with_defaults(GrbConfig::new(1e-9, 0.0));
    let window_s = quiet.duration_s();
    let lead = (0..TriggerReplay::lead_windows(&config, window_s))
        .map(|i| quiet.simulate(900 + i as u64).events)
        .collect();
    let replay = TriggerReplay::new(config.clone(), window_s, lead);
    let rate = replay.background_rate_hz().unwrap_or(0.0);

    let mut out = format!(
        "Burst-trigger study (flight trigger: {:.1}-sigma threshold, min {} counts; \
         background rate {rate:.0} events/s)\n\n{:>10} {:>12} {:>16} {:>14}\n",
        config.threshold_sigma,
        config.min_counts,
        "fluence",
        "efficiency",
        "mean max-sigma",
        "trials"
    );
    let trials = spec.trials_per_meta * spec.meta_trials;
    // the first row is background only: its efficiency is the false-alarm rate
    for fluence in [1e-9, 0.01, 0.03, 0.1, 0.25, 0.3, 1.0] {
        let sim = BurstSimulation::with_defaults(GrbConfig::new(fluence, 0.0));
        let mut detected = 0usize;
        let mut sig_sum = 0.0;
        for t in 0..trials {
            let verdict = replay.judge(sim.simulate(3000 + t as u64).events);
            if verdict.fired {
                detected += 1;
            }
            sig_sum += verdict.sigma;
        }
        out.push_str(&format!(
            "{:>10.2} {:>12.2} {:>16.1} {:>14}\n",
            fluence,
            detected as f64 / trials as f64,
            sig_sum / trials as f64,
            trials
        ));
    }
    out
}

/// Pileup study (paper future work): localization accuracy when events
/// within the coincidence window merge, vs the clean readout, across
/// burst brightness (brighter bursts pile up more).
pub fn run_pileup(models: &TrainedModels, spec: TrialSpec) -> String {
    use adapt_math::stats::{containment_radius, RunningStats};
    use adapt_sim::PileupConfig;
    let pipeline = Pipeline::new(models);
    // a generous window exaggerates the effect enough to measure at
    // laptop-scale trial counts
    let pileup_cfg = PileupConfig {
        coincidence_window_s: 200e-6,
    };
    let trials = spec.trials_per_meta * spec.meta_trials;
    let mut out = format!(
        "Pileup study ({} us coincidence window, ML pipeline)\n\n{:>10} {:>10} {:>14} {:>14} {:>12}\n",
        pileup_cfg.coincidence_window_s * 1e6,
        "fluence",
        "readout",
        "68% (deg)",
        "95% (deg)",
        "pileup frac"
    );
    for fluence in [1.0, 4.0] {
        let grb = GrbConfig::new(fluence, 0.0);
        for clean in [true, false] {
            let mut errors = Vec::with_capacity(trials);
            let mut frac = RunningStats::new();
            for t in 0..trials {
                let seed = 5000 + t as u64;
                let outcome = if clean {
                    let (rings, rt) =
                        pipeline.simulate_rings(&grb, PerturbationConfig::default(), seed);
                    pipeline.localize_rings(&rings, PipelineMode::Ml, &grb, seed, rt)
                } else {
                    let (rings, rt, stats) = pipeline.simulate_rings_with_pileup(
                        &grb,
                        PerturbationConfig::default(),
                        &pileup_cfg,
                        seed,
                    );
                    frac.push(stats.pileup_fraction());
                    pipeline.localize_rings(&rings, PipelineMode::Ml, &grb, seed, rt)
                };
                errors.push(outcome.error_deg);
            }
            out.push_str(&format!(
                "{:>10.2} {:>10} {:>14.2} {:>14.2} {:>12.3}\n",
                fluence,
                if clean { "clean" } else { "pileup" },
                containment_radius(&errors, 0.68).unwrap(),
                containment_radius(&errors, 0.95).unwrap(),
                frac.mean(),
            ));
        }
    }
    out
}

/// Failure injection: localization accuracy with a fraction of fiber
/// cells dead (unmodeled instrument degradation).
pub fn run_failure_injection(models: &TrainedModels, spec: TrialSpec) -> String {
    let pipeline = Pipeline::new(models);
    let grb = GrbConfig::new(1.0, 0.0);
    let mut out =
        String::from("Failure injection: dead fiber cells at 1 MeV/cm^2 (ML pipeline)\n\n");
    out.push_str(&format!(
        "{:>12} {:>14} {:>14} {:>10}\n",
        "dead frac", "68% (deg)", "95% (deg)", "rings"
    ));
    for dead in [0.0, 0.05, 0.1, 0.2] {
        let stats = containment_experiment(
            &pipeline,
            PipelineMode::Ml,
            &grb,
            PerturbationConfig {
                epsilon_percent: 0.0,
                dead_channel_fraction: dead,
            },
            spec,
            0xDEAD,
        );
        out.push_str(&format!(
            "{:>12.2} {:>7.2}±{:<5.2} {:>7.2}±{:<5.2} {:>10.1}\n",
            dead, stats.c68_mean, stats.c68_err, stats.c95_mean, stats.c95_err, stats.mean_rings_in
        ));
    }
    out
}

/// FPGA design-space exploration: the II/resource Pareto frontier for
/// INT4 / INT8 / FP32 kernels.
pub fn run_fpga_dse() -> String {
    use adapt_fpga::{pareto_frontier, sweep};
    let shapes = background_net_shapes();
    let mut out = String::from("FPGA design-space exploration (background net, 10 ns clock)\n");
    for precision in [Precision::Int4, Precision::Int8, Precision::Fp32] {
        out.push_str(&format!(
            "\n{:?} Pareto frontier (II vs DSP):\n{:>10} {:>10} {:>10} {:>14}\n",
            precision, "II", "DSP", "BRAM", "ms/597 rings"
        ));
        let pts = sweep(&shapes, precision, 40, 4000, 10);
        for p in pareto_frontier(&pts) {
            out.push_str(&format!(
                "{:>10} {:>10} {:>10} {:>14.2}\n",
                p.report.ii_cycles, p.report.dsp_slices, p.report.bram_blocks, p.batch_ms_597
            ));
        }
    }
    out
}

/// Quantization-strategy comparison (paper future work): PTQ vs QAT,
/// per-tensor vs per-channel, INT8 vs INT4 — classifier accuracy on a
/// fresh burst's rings.
pub fn run_quant_strategies(models: &TrainedModels) -> String {
    use adapt_nn::{sigmoid, QuantScheme, QuantizedMlp, WeightBits};
    use adapt_recon::Reconstructor;
    use adapt_sim::BurstSimulation;
    // calibration set: rings from a training-like burst
    let sim = BurstSimulation::with_defaults(GrbConfig::new(4.0, 0.0));
    let cal_rings = Reconstructor::default().reconstruct_all(&sim.simulate(77).events);
    let mut cal = Vec::new();
    for r in &cal_rings {
        cal.extend_from_slice(&r.features.to_model_input(0.0));
    }
    let calib = adapt_nn::Matrix::from_vec(cal_rings.len(), 13, cal);
    // evaluation set: fresh burst
    let eval_rings = Reconstructor::default().reconstruct_all(&sim.simulate(78).events);
    let parent = &models.background_linear_first;
    let accuracy = |q: &QuantizedMlp| {
        let mut ok = 0;
        for r in &eval_rings {
            let x = r.features.to_model_input(0.0);
            let pred = sigmoid(q.forward_one(&x)) >= 0.5;
            if pred == r.is_background_truth() {
                ok += 1;
            }
        }
        ok as f64 / eval_rings.len() as f64
    };
    let float_acc = {
        let mut ok = 0;
        for r in &eval_rings {
            let x = r.features.to_model_input(0.0);
            if (sigmoid(parent.predict_one(&x)) >= 0.5) == r.is_background_truth() {
                ok += 1;
            }
        }
        ok as f64 / eval_rings.len() as f64
    };
    let mut out = format!(
        "Quantization strategies ({} eval rings)\n\nFP32 parent accuracy: {:.3}\n\n{:<34} {:>10} {:>12}\n",
        eval_rings.len(),
        float_acc,
        "strategy",
        "accuracy",
        "bytes"
    );
    for (label, scheme, bits) in [
        (
            "per-tensor INT8 (paper config)",
            QuantScheme::PerTensor,
            WeightBits::Int8,
        ),
        (
            "per-channel INT8",
            QuantScheme::PerChannel,
            WeightBits::Int8,
        ),
        ("per-tensor INT4", QuantScheme::PerTensor, WeightBits::Int4),
        (
            "per-channel INT4",
            QuantScheme::PerChannel,
            WeightBits::Int4,
        ),
    ] {
        let q = QuantizedMlp::quantize_with(parent, &calib, scheme, bits);
        out.push_str(&format!(
            "{:<34} {:>10.3} {:>12}\n",
            label,
            accuracy(&q),
            q.model_bytes()
        ));
    }
    out.push_str("\n(the cached QAT + per-tensor INT8 deployment model: ");
    out.push_str(&format!(
        "{:.3} accuracy, {} bytes)\n",
        accuracy(&models.quantized_background),
        models.quantized_background.model_bytes()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_cache_is_keyed_by_training_scale() {
        let fast = PathBuf::from("target/adapt-models-fast.json");
        let default = PathBuf::from("target/adapt-models-default.json");
        assert_eq!(cache_path_for(None, Some("fast")), fast);
        assert_eq!(cache_path_for(None, None), default);
        assert_eq!(cache_path_for(None, Some("default")), default);
        assert_eq!(cache_path_for(None, Some("FAST")), default);
        assert_ne!(
            cache_path_for(None, Some("fast")),
            cache_path_for(None, None)
        );
        // the override wins at either scale
        for scale in [None, Some("fast")] {
            assert_eq!(
                cache_path_for(Some("/tmp/m.json"), scale),
                PathBuf::from("/tmp/m.json")
            );
        }
    }
}
