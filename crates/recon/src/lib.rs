//! `adapt-recon`: Compton event reconstruction for the ADAPT pipeline.
//!
//! Turns measured detector events into [`ComptonRing`]s — the per-photon
//! source constraints consumed by localization — via:
//!
//! * [`sequence`] — recovering the interaction order (Klein–Nishina ranking
//!   for 2-hit events, redundancy testing for 3+),
//! * [`error_prop`] — first-order propagation of the reported measurement
//!   uncertainties into the analytic dη estimate,
//! * [`features`] — the twelve model input features of the paper plus the
//!   appended polar-angle estimate,
//! * [`reconstruct`] — the driver with the pipeline's quality filters.
//!
//! ```
//! use adapt_sim::{BurstSimulation, GrbConfig};
//! use adapt_recon::Reconstructor;
//!
//! let sim = BurstSimulation::with_defaults(GrbConfig::new(1.0, 0.0));
//! let burst = sim.simulate(1);
//! let rings = Reconstructor::default().reconstruct_all(&burst.events);
//! assert!(!rings.is_empty());
//! ```

pub mod error_prop;
pub mod features;
pub mod reconstruct;
pub mod ring;
pub mod sequence;

pub use features::{RingFeatures, N_FEATURES_WITH_POLAR, N_STATIC_FEATURES};
pub use reconstruct::{ReconConfig, ReconCounts, ReconError, Reconstructor};
pub use ring::{ComptonRing, RingTruth};
pub use sequence::{can_sequence, sequence_hits, SequenceError, Sequencing};
