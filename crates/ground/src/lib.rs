//! # adapt-ground — the multi-tenant ground-segment alert service
//!
//! The flight runtime (`adapt-onboard`) serves one balloon; the ground
//! segment replays *hundreds* of flight streams — live downlinks,
//! archival reprocessing, simulation campaigns — against one machine.
//! Running one [`FlightRuntime`](adapt_onboard::FlightRuntime) per
//! stream would compile the inference plans N times and strand each
//! stream's worker on its own queue. This crate shares both:
//!
//! - [`service::GroundService`] drives N [`StreamingSource`] tenants
//!   through sharded ingest lanes (per-stream [`OnlineTrigger`] state,
//!   cheap ticks, structurally zero ingest drops) into one epoch FIFO
//!   (an [`adapt_onboard::BoundedQueue`]) that every localization worker
//!   pops; every tenant has the same relative deadline, so admission
//!   order is deadline order;
//! - every worker localizes through one shared
//!   [`EpochScheduler`](adapt_onboard::EpochScheduler) — the same
//!   degradation ladder, spans, alert assembly and transition log as the
//!   flight runtime — executing the *same* compiled plans (one
//!   [`CompiledMlp`](adapt_nn::CompiledMlp), one shared INT8 plan) with
//!   per-worker scratch, and each epoch's RNG derives from
//!   [`epoch_rng_seed`](adapt_onboard::epoch_rng_seed) — localizations
//!   are bit-identical to a single-stream run with the same seeds;
//! - [`fanout::SubscriberPopulation`] delivers each alert to the
//!   matching slice of a 10k–1M subscriber population through
//!   polar-band-indexed filters and bounded mailboxes with
//!   slow-consumer shedding.
//!
//! The CLI front-end is `adapt serve`; the repository benchmark's
//! `storm` workload (`perfbench/`) times it at 128 tenants.
//!
//! [`StreamingSource`]: adapt_sim::StreamingSource
//! [`OnlineTrigger`]: adapt_onboard::OnlineTrigger

pub mod fanout;
pub mod service;

pub use fanout::{FanoutStats, PublishOutcome, SubscriberFilter, SubscriberPopulation};
pub use service::{
    synth_fleet, GroundAlert, GroundConfig, GroundReport, GroundService, PoolStats, StreamSpec,
};
