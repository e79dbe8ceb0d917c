//! # adapt-onboard — the streaming flight runtime
//!
//! Everything before this crate processes a *batch*: simulate a burst,
//! reconstruct it, localize it. Aboard the balloon the problem is a
//! *stream* — background arrives continuously at an altitude-dependent
//! rate, a GRB is a transient excess nobody scheduled, and an alert is
//! only useful if it leaves the gondola within a latency budget.
//!
//! This crate closes that gap:
//!
//! - [`StreamingSource`](adapt_sim::StreamingSource) (in `adapt-sim`)
//!   replays the detector simulation as a time-ordered event stream
//!   against a [`FlightProfile`](adapt_sim::FlightProfile), with
//!   injectable GRB onsets;
//! - [`queue::BoundedQueue`] decouples the pipeline stages with explicit
//!   capacity, drop policy, and depth accounting;
//! - [`trigger::OnlineTrigger`] watches the event rate through sliding
//!   windows and opens a localization epoch on a significant excess; it is
//!   the only rate trigger, and [`trigger::TriggerReplay`] runs it over
//!   batch burst windows for `adapt simulate` and the detection study;
//! - [`scheduler::EpochScheduler`] is the one degradation ladder: it
//!   schedules each epoch's localization under a deadline, degrading
//!   `full-ml → reduced-ml → coarse-skymap → classical` as the budget or
//!   the backlog demands, and emits [`runtime::GrbAlert`]s — the flight
//!   runtime's worker and the ground service's pool workers both call it;
//! - [`runtime::FlightRuntime`] wires source, trigger and scheduler into
//!   the single-stream flight pipeline, with lossy ingest and truth
//!   matching;
//! - [`checkpoint::Checkpoint`] snapshots trigger + scheduler state so a
//!   killed process resumes mid-burst without losing the epoch.
//!
//! The CLI front-end is `adapt fly`; the repository benchmark's
//! `flight-hostile` workload (`perfbench/`) times it under rate
//! transitions.

pub mod checkpoint;
pub mod queue;
pub mod runtime;
pub mod scheduler;
pub mod trigger;

pub use checkpoint::{Checkpoint, CHECKPOINT_SCHEMA};
pub use queue::{BoundedQueue, DropPolicy, QueueStats};
pub use runtime::{
    match_alerts_to_truth, ContainmentSource, DegradationLevel, EpochLocalizer, EpochOutcome,
    FlightRunReport, FlightRuntime, GrbAlert, RuntimeConfig, TruthMatchReport, COARSE_PIXELS,
    REDUCED_ITERATIONS,
};
pub use scheduler::{epoch_rng_seed, EpochScheduler, ScheduledEpoch, COST_PRIORS_MS};
pub use trigger::{OnlineTrigger, OnlineTriggerConfig, OpenEpoch, ReplayVerdict, TriggerReplay};

/// Background `particle_fluence` (per second) giving a flight-plausible
/// measured rate — roughly 150 events/s at float altitude — that the
/// runtime sustains far faster than real time. The batch default
/// (`BackgroundConfig::default().particle_fluence = 25.0`) models a
/// dense calibration exposure, not a live stream: interpreted per-second
/// it would mean ~200k measured events/s.
pub const FLIGHT_NOMINAL_FLUENCE: f64 = 0.02;
