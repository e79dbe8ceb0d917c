//! The multi-tenant ground service: N flight streams, one localization
//! pool.
//!
//! ```text
//!   stream 0 ─┐                        ┌─ worker 0 ─┐
//!   stream 1 ─┼─ ingest shard 0 ─┐     ├─ worker 1 ─┼─ alerts ─ fan-out
//!   stream 2 ─┼─ ingest shard 1 ─┼─FIFO┤            ┆
//!      ...    ┘                  ┘     └─ worker W ─┘
//! ```
//!
//! Ingest is cheap and sharded: each shard thread owns a set of *lanes*
//! (a [`StreamingSource`] plus that stream's [`OnlineTrigger`]) and
//! advances them round-robin in `TICK_S` (0.5 s) slices of stream time,
//! feeding every event straight into the stream's trigger — no intermediate
//! queue, so ground ingest never drops an event. Localization is
//! expensive and pooled: a completed epoch is pushed into one shared
//! [`BoundedQueue`] (a FIFO without a capacity limit, so a push never
//! sheds or stalls), and whichever worker is free first takes the oldest
//! epoch anywhere in the system. Every tenant has the same relative
//! deadline, so admission order is deadline order.
//!
//! Every worker localizes through one shared [`EpochScheduler`] — the
//! same degradation ladder the single-stream
//! [`FlightRuntime`](adapt_onboard::FlightRuntime) worker calls — so
//! level choice, the cost model, spans, alert assembly and the transition
//! log are one implementation. All workers execute the *same* compiled
//! plans (the float [`CompiledMlp`] built once before the pool starts and
//! the INT8 plan from the model set's shared cache) with per-worker
//! scratch ([`InferenceWorkspace`]) and a per-epoch RNG derived by
//! [`epoch_rng_seed`](adapt_onboard::epoch_rng_seed) from the stream's
//! localizer seed. That derivation is what makes every localization
//! bit-identical to a single-stream run with the same seeds, regardless
//! of worker count or pop order.
//!
//! The degradation ladder engages per *task*, not per service: a worker
//! picks the level from the epoch's own remaining deadline slack and the
//! pool backlog normalized per worker, so only epochs actually behind
//! degrade. `deterministic: true` pins `full-ml` (level choice is the
//! one wall-clock-dependent decision) for replay comparisons.

use crate::fanout::SubscriberPopulation;
use adapt_core::training::TrainedModels;
use adapt_localize::{InferenceWorkspace, SkyPixelization};
use adapt_math::stats::quantile_ceil_rank;
use adapt_nn::CompiledMlp;
use adapt_onboard::{
    BoundedQueue, DropPolicy, EpochLocalizer, EpochScheduler, GrbAlert, OnlineTrigger,
    OnlineTriggerConfig, OpenEpoch, ScheduledEpoch, COARSE_PIXELS, REDUCED_ITERATIONS,
};
use adapt_sim::{FlightProfile, GrbConfig, StreamConfig, StreamingSource};
use adapt_telemetry::{Counter, CounterHandle, FanOut, LiveObserver, Recorder, TraceSpanRecord};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Stream-time slice a lane advances per round-robin turn (s).
const TICK_S: f64 = 0.5;

/// One tenant stream of the service.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Stable tenant id.
    pub id: usize,
    /// The simulated flight stream.
    pub config: StreamConfig,
    /// Seed of the event stream itself.
    pub source_seed: u64,
    /// Seed of the per-epoch localizer RNG (the single-stream
    /// [`RuntimeConfig::seed`](adapt_onboard::RuntimeConfig) equivalent).
    pub localizer_seed: u64,
}

/// Service tuning.
#[derive(Debug, Clone)]
pub struct GroundConfig {
    /// Localization pool workers.
    pub workers: usize,
    /// Ingest shard threads (each advances `streams / shards` lanes).
    pub ingest_shards: usize,
    /// Per-alert deadline: epoch-ready to alert-emitted (ms).
    pub deadline_ms: f64,
    /// Online trigger tuning, applied to every stream.
    pub trigger: OnlineTriggerConfig,
    /// Pin `full-ml` (skip the wall-clock-dependent level choice) so the
    /// alert set is a pure function of the stream seeds.
    pub deterministic: bool,
}

impl Default for GroundConfig {
    fn default() -> Self {
        GroundConfig {
            workers: 4,
            ingest_shards: 2,
            deadline_ms: 500.0,
            trigger: OnlineTriggerConfig::default(),
            deterministic: false,
        }
    }
}

/// A localized alert with its tenant provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroundAlert {
    /// Tenant stream that triggered.
    pub stream_id: usize,
    /// Epoch index within that stream (trigger order).
    pub epoch_index: u64,
    /// The alert itself.
    pub alert: GrbAlert,
}

impl GroundAlert {
    /// The deterministic fields, bit-exact: everything a replay with the
    /// same seeds must reproduce regardless of worker count, pop order,
    /// or wall-clock load. Scheduling artifacts (latency, queue depths,
    /// the mode under non-deterministic level choice) are excluded.
    pub fn deterministic_key(&self) -> (usize, u64, [u64; 5], usize, usize) {
        (
            self.stream_id,
            self.epoch_index,
            [
                self.alert.t_trigger_s.to_bits(),
                self.alert.significance_sigma.to_bits(),
                self.alert.polar_deg.to_bits(),
                self.alert.azimuth_deg.to_bits(),
                self.alert.containment_radius_deg.to_bits(),
            ],
            self.alert.rings,
            self.alert.surviving_rings,
        )
    }
}

/// Lifetime counters of the epoch queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Epochs admitted.
    pub pushed: u64,
    /// Maximum epochs pending at once.
    pub max_pending: usize,
}

/// What one service run did.
#[derive(Debug, Clone)]
pub struct GroundReport {
    /// Every emitted alert, sorted by `(stream_id, epoch_index)`.
    pub alerts: Vec<GroundAlert>,
    /// Streams served.
    pub streams: usize,
    /// Events fed through the triggers (sum over streams).
    pub events_ingested: u64,
    /// Events dropped at ingest — structurally zero (lanes are
    /// pull-based; there is no lossy ground ingest queue), reported so
    /// smoke checks can assert it.
    pub events_dropped: u64,
    /// Localization epochs dispatched to the pool.
    pub epochs_dispatched: u64,
    /// Alerts per degradation level (ladder order).
    pub per_level: [u64; 4],
    /// Pool lifetime counters.
    pub pool: PoolStats,
    /// Wall time of the run (s).
    pub wall_s: f64,
    /// Stream-time each tenant covered (s).
    pub sim_duration_s: f64,
    /// `streams × sim_duration_s / wall_s`: how many real-time streams
    /// this machine sustains.
    pub aggregate_realtime_factor: f64,
    /// Epoch-ready to alert-emitted latencies (ms), one per alert, in
    /// emission order.
    pub epoch_latencies_ms: Vec<f64>,
}

impl GroundReport {
    /// Epoch-latency percentile (`q` in `[0, 1]`); `None` with no alerts.
    pub fn latency_percentile_ms(&self, q: f64) -> Option<f64> {
        quantile_ceil_rank(&self.epoch_latencies_ms, q)
    }
}

/// One stream's ingest state inside a shard.
struct Lane {
    stream_id: usize,
    localizer_seed: u64,
    source: StreamingSource,
    trigger: OnlineTrigger,
    next_epoch_index: u64,
    /// An event pulled past the current slice, held for the next turn.
    pending: Option<adapt_sim::StreamedEvent>,
    clock_s: f64,
    events: u64,
    done: bool,
}

/// The multi-tenant ground service. Borrows the trained models once;
/// every pool worker executes the same compiled plans.
pub struct GroundService<'a> {
    models: &'a TrainedModels,
    config: GroundConfig,
    recorder: &'a dyn Recorder,
    live: Option<&'a LiveObserver>,
}

impl<'a> GroundService<'a> {
    /// A service with the default no-op recorder.
    pub fn new(models: &'a TrainedModels, config: GroundConfig) -> Self {
        GroundService {
            models,
            config,
            recorder: adapt_telemetry::noop(),
            live: None,
        }
    }

    /// Attach a telemetry recorder.
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attach a live observer: every recorder fact is projected into its
    /// registry, plus the pool size and per-worker epoch counts, and the
    /// ingest shards' stream clocks tick its periodic snapshots.
    pub fn with_live(mut self, observer: &'a LiveObserver) -> Self {
        self.live = Some(observer);
        self
    }

    /// Drive every stream to completion through the shared pool,
    /// optionally fanning each alert out to a subscriber population.
    pub fn run(
        &self,
        specs: Vec<StreamSpec>,
        fanout: Option<&SubscriberPopulation>,
    ) -> GroundReport {
        let config = &self.config;
        let live = self.live;
        let fan_out = FanOut::new(self.recorder, live);
        let recorder = fan_out.recorder();
        let models = self.models;
        assert!(!specs.is_empty(), "the service needs at least one stream");
        assert!(config.workers > 0 && config.ingest_shards > 0);
        let n_streams = specs.len();
        let sim_duration_s = specs
            .iter()
            .map(|s| s.config.duration_s)
            .fold(0.0, f64::max);
        recorder.add(Counter::StreamsServed, n_streams as u64);
        // the one ground-only fact without a Recorder twin: which worker
        // localized each epoch (`adapt top`'s by-worker table)
        let per_worker: Vec<CounterHandle> = live.map_or_else(Vec::new, |obs| {
            let reg = obs.registry();
            reg.gauge("adapt_pool_workers", &[])
                .set(config.workers as f64);
            (0..config.workers)
                .map(|w| reg.counter("adapt_worker_epochs_total", &[("worker", &w.to_string())]))
                .collect()
        });

        // the shared plan cache: compile both plans once, before any
        // worker exists — every EpochLocalizer borrows these
        models.quantized_background.plan();
        let compiled_background = CompiledMlp::compile(&models.background);
        let scheduler = EpochScheduler::new(
            EpochLocalizer::new(
                models,
                &compiled_background,
                REDUCED_ITERATIONS,
                COARSE_PIXELS,
                SkyPixelization::default(),
                recorder,
            ),
            config.deadline_ms,
            config.deterministic,
        );

        // one FIFO for every worker: unbounded and blocking, so an epoch
        // is never shed and ingest never stalls on a push
        let pool: BoundedQueue<ScheduledEpoch> =
            BoundedQueue::new("pool", usize::MAX, DropPolicy::Block);
        let alerts: Mutex<Vec<GroundAlert>> = Mutex::new(Vec::new());
        let per_level: [AtomicU64; 4] = Default::default();
        let events_ingested = AtomicU64::new(0);

        // distribute lanes round-robin across the ingest shards
        let mut shards: Vec<Vec<Lane>> = (0..config.ingest_shards).map(|_| Vec::new()).collect();
        for spec in specs {
            let shard = spec.id % config.ingest_shards;
            shards[shard].push(Lane {
                stream_id: spec.id,
                localizer_seed: spec.localizer_seed,
                source: StreamingSource::new(spec.config, spec.source_seed),
                trigger: OnlineTrigger::new(config.trigger.clone()),
                next_epoch_index: 0,
                pending: None,
                clock_s: 0.0,
                events: 0,
                done: false,
            });
        }

        let t_start = Instant::now();
        std::thread::scope(|scope| {
            let pool = &pool;
            let scheduler = &scheduler;
            let alerts = &alerts;
            let per_level = &per_level;
            let events_ingested = &events_ingested;
            let per_worker = &per_worker;

            // ── ingest shards: advance lanes in TICK_S stream-time slices ──
            let shard_handles: Vec<_> = shards
                .into_iter()
                .map(|mut lanes| {
                    scope.spawn(move || {
                        let mut active = lanes.len();
                        let dispatch = |lane: &mut Lane, epoch: OpenEpoch| {
                            let job = scheduler.admit(
                                lane.stream_id,
                                lane.next_epoch_index,
                                lane.localizer_seed,
                                epoch,
                                pool.len(),
                            );
                            lane.next_epoch_index += 1;
                            pool.push(job);
                            recorder.queue_depth("pool", pool.len() as u64);
                        };
                        while active > 0 {
                            for lane in &mut lanes {
                                if lane.done {
                                    continue;
                                }
                                let until = lane.clock_s + TICK_S;
                                let mut slice_events = 0u64;
                                loop {
                                    let ev = match lane.pending.take() {
                                        Some(ev) => ev,
                                        None => match lane.source.next() {
                                            Some(ev) => ev,
                                            None => {
                                                // stream exhausted: flush
                                                // the tail epoch and retire
                                                // the lane
                                                if let Some(tail) = lane.trigger.flush() {
                                                    dispatch(lane, tail);
                                                }
                                                lane.done = true;
                                                active -= 1;
                                                break;
                                            }
                                        },
                                    };
                                    if ev.t_s >= until {
                                        lane.pending = Some(ev);
                                        break;
                                    }
                                    slice_events += 1;
                                    if let Some(epoch) = lane.trigger.observe(&ev) {
                                        dispatch(lane, epoch);
                                    }
                                }
                                lane.clock_s = until;
                                lane.events += slice_events;
                                if slice_events > 0 {
                                    recorder.add(Counter::EventsIngested, slice_events);
                                }
                                if let Some(obs) = live {
                                    // shard clocks race ahead of each
                                    // other; the observer's CAS election
                                    // makes concurrent ticks cheap
                                    obs.tick(lane.clock_s);
                                }
                            }
                        }
                        lanes.iter().map(|l| l.events).sum::<u64>()
                    })
                })
                .collect();

            // ── pool workers: epochs → alerts, degrading per task ──
            for w in 0..config.workers {
                scope.spawn(move || {
                    let mut ws = InferenceWorkspace::new();
                    while let Some(job) = pool.pop() {
                        // backlog normalized per worker: only global
                        // pressure beyond what the pool can absorb
                        // forbids the expensive rungs
                        let backlog = pool.len() / config.workers;
                        let depths = || (0, pool.len());
                        let Some(alert) =
                            scheduler.localize(&job, backlog, Some(w), depths, &mut ws)
                        else {
                            continue;
                        };
                        per_level[alert.mode.slot()].fetch_add(1, Ordering::Relaxed);
                        // refresh the pool gauge the push set, or the
                        // watchdog would see stale pending work
                        recorder.queue_depth("pool", alert.epoch_depth as u64);
                        if let Some(c) = per_worker.get(w) {
                            c.inc();
                        }
                        let ground = Arc::new(GroundAlert {
                            stream_id: job.stream_id,
                            epoch_index: job.index,
                            alert,
                        });
                        if let Some(pop) = fanout {
                            let fan_start_ms = job.ready.elapsed().as_secs_f64() * 1e3;
                            let out = pop.publish(&ground);
                            recorder.add(Counter::AlertsFannedOut, out.delivered);
                            if out.shed > 0 {
                                recorder.add(Counter::FanoutShed, out.shed);
                            }
                            if recorder.is_enabled() {
                                let fan_end_ms = job.ready.elapsed().as_secs_f64() * 1e3;
                                recorder.trace_span(&TraceSpanRecord {
                                    span: "fanout".into(),
                                    duration_ms: fan_end_ms - fan_start_ms,
                                    detail: format!(
                                        "matched={} delivered={} shed={}",
                                        out.matched, out.delivered, out.shed
                                    ),
                                    ..job.child_span(fan_start_ms, pool.len())
                                });
                            }
                        }
                        alerts.lock().unwrap().push((*ground).clone());
                    }
                });
            }

            // ingest finishes first; closing the pool releases the
            // workers once the backlog drains
            let mut total_events = 0u64;
            for h in shard_handles {
                total_events += h.join().expect("ingest shard panicked");
            }
            events_ingested.store(total_events, Ordering::Relaxed);
            pool.close();
        });
        let wall_s = t_start.elapsed().as_secs_f64();

        let queue_stats = pool.stats();
        let pool_stats = PoolStats {
            pushed: queue_stats.pushed,
            max_pending: queue_stats.max_depth,
        };
        let mut alerts = alerts.into_inner().unwrap();
        let epoch_latencies_ms = alerts.iter().map(|a| a.alert.latency_ms).collect();
        alerts.sort_by_key(|a| (a.stream_id, a.epoch_index));
        GroundReport {
            alerts,
            streams: n_streams,
            events_ingested: events_ingested.load(Ordering::Relaxed),
            events_dropped: 0,
            epochs_dispatched: pool_stats.pushed,
            per_level: per_level.map(|c| c.into_inner()),
            pool: pool_stats,
            wall_s,
            sim_duration_s,
            aggregate_realtime_factor: n_streams as f64 * sim_duration_s / wall_s.max(1e-9),
            epoch_latencies_ms,
        }
    }
}

/// Synthesize a tenant fleet: `n` antarctic-float streams of
/// `duration_s`, staggered along the profile, each with one scheduled
/// burst (varying fluence phase and polar angle) so the pool sees a
/// realistic trigger mix. Deterministic in `base_seed`.
pub fn synth_fleet(n: usize, duration_s: f64, base_seed: u64) -> Vec<StreamSpec> {
    (0..n)
        .map(|i| {
            let mut config = StreamConfig::new(FlightProfile::antarctic_ldb(), duration_s);
            // stagger starts across the float portion of the profile
            config.start_h = 1.9 + (i as f64 * 0.37) % 18.0;
            config.background.particle_fluence = adapt_onboard::FLIGHT_NOMINAL_FLUENCE;
            let onset = 0.35 * duration_s + (i as f64 * 1.7) % (0.3 * duration_s);
            let angle = (i as f64 * 9.0) % 72.0;
            config = config.with_burst(onset, GrbConfig::new(2.0, angle));
            StreamSpec {
                id: i,
                config,
                source_seed: base_seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
                localizer_seed: base_seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407),
            }
        })
        .collect()
}
