//! `adapt-telemetry`: the flight recorder behind the pipeline's
//! latency and convergence claims.
//!
//! The paper's operational claims are latency claims (Tables I/II time
//! every pipeline stage on flight-class CPUs; the Fig.-6 loop must
//! converge within a deadline), so the reproduction carries a telemetry
//! layer able to answer *why* a trial was slow and *how* the iterative
//! loop behaved:
//!
//! * [`LatencyHistogram`] — a lock-free, fixed-bucket log2 histogram
//!   (8 linear sub-buckets per octave → quantile error ≤ 12.5 %),
//!   mergeable across threads, with exact mean/min/max;
//! * [`Recorder`] — the span/counter trait instrumented code talks to;
//!   [`NoopRecorder`] (the default everywhere) makes disabled telemetry
//!   cost one empty virtual call per stage;
//! * [`FlightRecorder`] — the enabled implementation: per-stage
//!   histograms, atomic counters, and loop-introspection records
//!   (rings kept/dropped, background-score histograms, dη correction
//!   magnitudes, per-iteration angular steps);
//! * [`ndjson`] — NDJSON export plus the schema validator consumed by
//!   `adapt telemetry-report` and the CI telemetry gate;
//! * [`run`] — the training-side WandB substitute: [`RunTracker`]
//!   streams per-epoch NDJSON into `artifacts/runs/<run-id>/`, NaN/inf
//!   and divergence watchdogs abort bad runs with a recorded reason, and
//!   an atomic [`RunManifest`] carries provenance (config, data seed,
//!   feature-schema hash, weight checksum, host);
//! * [`drift`] — training-time [`DriftReference`] statistics plus the
//!   inference-side [`DriftMonitor`] whose PSI scores surface through
//!   the drift counters and `telemetry-report`;
//! * [`live`] — the *live* observability layer: a lock-free
//!   [`MetricsRegistry`] of named, labeled counters/gauges/histograms,
//!   the [`LiveObserver`] — a [`Recorder`] projecting facts into that
//!   registry under derived names, and the periodic snapshot exporter
//!   (NDJSON stream + Prometheus text exposition over
//!   [`MetricsServer`]) — the [`FanOut`] recorder that feeds it, and the
//!   `adapt top` renderer;
//! * [`health`] — the [`SloWatchdog`] turning registry snapshots into
//!   greppable `health:` verdicts (deadline burn, queue saturation,
//!   pool stalls, rolling alert rate, drift);
//! * [`trace`] — causal alert traces: [`TraceSpanRecord`]s minted at
//!   trigger open and carried through scheduling, localization, and
//!   fan-out, reconstructed into span trees by `telemetry-report
//!   --trace`.
//!
//! Overhead budget: recording one span is a bucket-index computation and
//! five relaxed atomic ops (~10 ns); a disabled recorder is one virtual
//! call with an empty body. Neither path allocates. Loop-introspection
//! records take a mutex, but only once per rejection iteration (≤ 5 per
//! localization), far off the per-ring hot path.

mod codec;
pub mod drift;
pub mod forensics;
pub mod health;
pub mod histogram;
pub mod live;
pub mod ndjson;
pub mod recorder;
pub mod run;
pub mod trace;

pub use drift::{DriftMonitor, DriftReference, DriftReport, DRIFT_BINS, PSI_FLAG};
pub use forensics::render_forensics;
pub use health::{HealthLine, SloConfig, SloWatchdog};
pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use live::{
    parse_live_stream, render_top, CounterHandle, FanOut, GaugeHandle, HistogramHandle,
    LiveObserver, LiveSnapshot, MetricKind, MetricSample, MetricsRegistry, MetricsServer,
    RegistrySnapshot, LIVE_SCHEMA,
};
pub use ndjson::{export, validate as validate_ndjson, NdjsonSummary, NDJSON_SCHEMA};
pub use recorder::{
    noop, AlertRecord, Counter, DegradationRecord, FlightRecorder, LoopEvent, LoopIterationRecord,
    LoopSummaryRecord, NoopRecorder, QueueGauge, Recorder, Stage, TraceSpanRecord, TrialRecord,
    TriggerDecisionRecord, WindowDecision, SCORE_BINS,
};
pub use run::{
    diff_manifests, fnv1a_hex, list_runs, load_manifest, validate_run, write_atomic, AbortReason,
    EpochRecord, HostInfo, ManifestDraft, RunManifest, RunSummary, RunTracker, Watchdog,
    WatchdogConfig, RUN_SCHEMA,
};
pub use trace::{end_to_end_ms, render_trace, render_trace_table, trace_ids};
