//! Mathematical foundations for the ADAPT ML reproduction.
//!
//! This crate collects the geometry, small-scale linear algebra, statistics,
//! and sampling utilities shared by the physics simulator, the event
//! reconstruction, the neural-network library, and the localization stages.
//!
//! Everything here is deliberately dependency-light and allocation-conscious:
//! the hot paths of the pipeline (photon transport, ring intersection,
//! batched inference) call into these routines millions of times per
//! simulated burst.
//!
//! # Modules
//!
//! * [`vec3`] — 3-D vectors and unit vectors with the usual algebra.
//! * [`rotation`] — proper rotations (3×3 orthonormal matrices), Rodrigues
//!   construction, and frame transforms.
//! * [`linalg`] — small dense matrices, 3×3 solvers, and the weighted
//!   least-squares kernel used by localization.
//! * [`stats`] — streaming moments, quantiles, containment radii, and
//!   histograms.
//! * [`special`] — `erf`/`erfc`, the normal CDF and its inverse.
//! * [`sampling`] — random directions, power-law sampling, and other
//!   distribution helpers used by the Monte-Carlo transport.
//! * [`angles`] — angular-separation helpers and degree/radian conversions.

pub mod angles;
pub mod linalg;
pub mod rotation;
pub mod sampling;
pub mod special;
pub mod stats;
pub mod vec3;

pub use angles::{angular_separation, deg_to_rad, polar_angle_deg, rad_to_deg};
pub use linalg::{solve3, Mat3};
pub use rotation::Rotation;
pub use stats::{containment_radius, quantile, Histogram, RunningStats};
pub use vec3::{UnitVec3, Vec3};

/// Electron rest mass energy in MeV, the natural energy scale of Compton
/// kinematics (`m_e c^2`).
pub const ELECTRON_REST_MEV: f64 = 0.510_998_95;
