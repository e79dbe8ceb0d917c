//! The stage-timing harness behind paper Tables I and II.
//!
//! The paper times reconstruction, localization setup, the two network
//! inferences, and approximation + refinement over 300 repetitions of a
//! 1 MeV/cm², normally-incident burst, on a Raspberry Pi 3B+ and an Atom
//! E3845. We time the same stage breakdown on the current host — absolute
//! numbers differ with the hardware, but the *structure* (NN inference a
//! modest share; five full iterations well under a second) is the claim
//! under reproduction.
//!
//! The pipeline records each stage into its attached
//! [`FlightRecorder`]'s latency histograms, so the table reports
//! percentiles (p50/p99) alongside the paper's mean/range columns, and
//! min/max are the histogram's exact extremes rather than a
//! separately-tracked pair that can drift out of sync with the
//! distribution.

use crate::pipeline::{Pipeline, PipelineMode};
use crate::training::TrainedModels;
use adapt_sim::{GrbConfig, PerturbationConfig};
use adapt_telemetry::{FlightRecorder, Stage};
use serde::{Deserialize, Serialize};

/// Aggregated timing for one pipeline stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageRow {
    /// Stage name as in the paper's tables.
    pub stage: String,
    /// Mean time (ms).
    pub mean_ms: f64,
    /// Median time (ms).
    pub p50_ms: f64,
    /// 99th-percentile time (ms).
    pub p99_ms: f64,
    /// Smallest observed time (ms).
    pub min_ms: f64,
    /// Largest observed time (ms).
    pub max_ms: f64,
}

/// The full timing table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimingTable {
    /// One row per stage, in the paper's order.
    pub rows: Vec<StageRow>,
    /// Repetitions measured.
    pub repetitions: usize,
}

impl TimingTable {
    /// Render with the percentile columns.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>14} {:>10} {:>10} {:>16}\n",
            "Stage", "Mean Time (ms)", "p50 (ms)", "p99 (ms)", "Range (ms)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<22} {:>14.1} {:>10.1} {:>10.1} {:>8.0}-{:<7.0}\n",
                r.stage, r.mean_ms, r.p50_ms, r.p99_ms, r.min_ms, r.max_ms
            ));
        }
        out
    }

    /// Render in the paper's original two-column format (mean + range),
    /// matching Tables I/II for side-by-side comparison.
    pub fn format_paper(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>14} {:>16}\n",
            "Stage", "Mean Time (ms)", "Range (ms)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<22} {:>14.1} {:>8.0}-{:<7.0}\n",
                r.stage, r.mean_ms, r.min_ms, r.max_ms
            ));
        }
        out
    }
}

/// Measure the stage breakdown over `repetitions` runs of the standard
/// 1 MeV/cm² normally-incident burst (paper protocol: 300 repetitions).
/// The rows are the stage histograms the pipeline records into its
/// attached [`FlightRecorder`].
pub fn measure_stages(models: &TrainedModels, repetitions: usize, seed: u64) -> TimingTable {
    let recorder = FlightRecorder::new();
    let pipeline = Pipeline::new(models).with_recorder(&recorder);
    let grb = GrbConfig::new(1.0, 0.0);
    for rep in 0..repetitions {
        pipeline.run_trial(
            PipelineMode::Ml,
            &grb,
            PerturbationConfig::default(),
            seed.wrapping_add(rep as u64),
        );
    }
    let rows = [
        Stage::Reconstruction,
        Stage::Setup,
        Stage::DEtaInference,
        Stage::BackgroundInference,
        Stage::ApproxRefine,
        Stage::Total,
    ]
    .into_iter()
    .map(|stage| {
        let s = recorder.stage_snapshot(stage);
        StageRow {
            stage: stage.table_label().to_string(),
            mean_ms: s.mean_ms,
            p50_ms: s.p50_ms,
            p99_ms: s.p99_ms,
            min_ms: s.min_ms,
            max_ms: s.max_ms,
        }
    })
    .collect();
    TimingTable { rows, repetitions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train_models, TrainingCampaignConfig};
    use std::sync::OnceLock;

    fn models() -> &'static crate::training::TrainedModels {
        static MODELS: OnceLock<crate::training::TrainedModels> = OnceLock::new();
        MODELS.get_or_init(|| train_models(&TrainingCampaignConfig::fast(), 29))
    }

    #[test]
    fn timing_table_has_paper_rows() {
        let table = measure_stages(models(), 3, 1);
        let stages: Vec<&str> = table.rows.iter().map(|r| r.stage.as_str()).collect();
        assert_eq!(
            stages,
            vec![
                "Reconstruction",
                "Localization Setup",
                "DEta NN Inference",
                "Bkg NN Inference",
                "Approx + Refine",
                "Total (Max 5 iter)"
            ]
        );
        for r in &table.rows {
            assert!(r.mean_ms >= 0.0);
            assert!(r.min_ms <= r.mean_ms + 1e-9);
            assert!(r.max_ms >= r.mean_ms - 1e-9);
            // percentiles are ordered and bracketed by the exact extremes
            assert!(r.min_ms <= r.p50_ms + 1e-9, "{}: min > p50", r.stage);
            assert!(r.p50_ms <= r.p99_ms + 1e-9, "{}: p50 > p99", r.stage);
            assert!(r.p99_ms <= r.max_ms + 1e-9, "{}: p99 > max", r.stage);
        }
        // total dominates every component
        let total = table.rows.last().unwrap().mean_ms;
        assert!(total >= table.rows[0].mean_ms);
        let text = table.format();
        assert!(text.contains("Bkg NN Inference"));
        assert!(text.contains("p99 (ms)"));
        // the paper rendering keeps the original two-column layout
        let paper = table.format_paper();
        assert!(paper.contains("Range (ms)"));
        assert!(!paper.contains("p99"));
    }
}
