//! `adapt-core`: the end-to-end ADAPT GRB analysis pipeline with machine
//! learning — the facade crate of the reproduction of *Machine Learning
//! Aboard the ADAPT Gamma-Ray Telescope* (SC 2024).
//!
//! The crate ties the substrates together:
//!
//! * [`training`] — the simulated training campaign (nine polar angles,
//!   boosted background), dataset construction, model training with the
//!   paper's hyperparameters, per-polar-bin thresholds, QAT + INT8
//!   quantization, and on-disk model caching;
//! * [`pipeline`] — simulate → reconstruct → localize under any of the
//!   paper's evaluation arms (baseline, ML, quantized ML, no-polar
//!   ablation, and the two Fig.-4 oracles);
//! * [`experiments`] — containment statistics with meta-trial error bars
//!   and the sweeps behind every accuracy figure;
//! * [`timing`] — the stage-latency tables (paper Tables I/II).
//!
//! ```no_run
//! use adapt_core::prelude::*;
//!
//! let models = train_models(&TrainingCampaignConfig::fast(), 7);
//! let pipeline = Pipeline::new(&models);
//! let outcome = pipeline.run_trial(
//!     PipelineMode::Ml,
//!     &GrbConfig::new(1.0, 0.0),
//!     PerturbationConfig::default(),
//!     42,
//! );
//! println!("localized to within {:.1} degrees", outcome.error_deg);
//! ```

pub mod experiments;
pub mod pipeline;
pub mod timing;
pub mod training;

pub use experiments::{
    containment_experiment, fluence_sweep, format_rows, noise_sweep, polar_sweep, ContainmentStats,
    FigureRow, TrialSpec,
};
pub use pipeline::{Pipeline, PipelineMode, TrialOutcome};
pub use timing::{measure_stages, StageRow, TimingTable};
pub use training::{
    background_dataset, d_eta_dataset, feature_schema_hash, generate_training_rings, train_models,
    train_models_tracked, LabeledRing, ModelLoadError, ModelProvenance, TrainedModels,
    TrainingCampaignConfig, FEATURE_SCHEMA, MODELS_SCHEMA,
};

/// Everything a downstream user typically needs in one import.
pub mod prelude {
    pub use crate::experiments::{containment_experiment, TrialSpec};
    pub use crate::pipeline::{Pipeline, PipelineMode};
    pub use crate::timing::measure_stages;
    pub use crate::training::{train_models, TrainedModels, TrainingCampaignConfig};
    pub use adapt_sim::{GrbConfig, PerturbationConfig};
}
