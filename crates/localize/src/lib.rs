//! `adapt-localize`: GRB source localization from Compton rings.
//!
//! Implements the paper's two-stage localization algorithm and its ML
//! extension:
//!
//! * [`likelihood`] — the radially-symmetric Gaussian ring model and its
//!   robust (outlier-floored) variant;
//! * [`approx`] — the sampling-based initial approximation;
//! * [`mod@refine`] — robust iterative reweighted least squares on the
//!   almost-linear system `cᵢ·s ≈ ηᵢ`;
//! * [`localizer`] — the baseline (no-ML) pipeline;
//! * [`ml`] — the Fig.-6 loop weaving the background and dEta networks
//!   into localization, with per-stage timing capture;
//! * [`pixelization`] — the raster and HEALPix pixel grids ([`SkyGrid`]);
//! * [`skymap`] — posterior sky maps and their credible regions
//!   ([`SkyPosterior`]).

pub mod approx;
pub mod likelihood;
pub mod localizer;
pub mod ml;
pub mod pixelization;
pub mod refine;
pub mod skymap;
pub mod uncertainty;

pub use approx::{approximate, ApproxConfig};
pub use likelihood::{angular_z, cone_geometry, joint_log_likelihood, ring_log_likelihood};
pub use localizer::{BaselineLocalizer, LocalizeResult, LocalizerConfig};
pub use ml::{
    BackgroundModel, DEtaUpdate, InferenceWorkspace, MlLocalizeResult, MlLocalizer,
    MlPipelineConfig, StageTimings,
};
pub use pixelization::{nside_for_target_pixels, SkyGrid, SkyPixelization};
pub use refine::{refine, RefineConfig, RefineResult};
pub use skymap::{
    default_temperature, ring_cone_geoms, HemisphereGrid, SkyPosterior, TEMPERATURE_RING_COEFF,
};
pub use uncertainty::{estimate_uncertainty, DirectionUncertainty};
