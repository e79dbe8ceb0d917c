//! The one degradation ladder, called by the single-stream
//! [`FlightRuntime`](crate::FlightRuntime) worker and the ground pool
//! workers alike. A caller [`admit`](EpochScheduler::admit)s each
//! triggered epoch, queues it, and hands it to
//! [`localize`](EpochScheduler::localize), which estimates every rung's
//! cost from an EWMA of past runs and picks the best one that fits
//! `(deadline − time queued) × safety factor`, degrading further under
//! backlog:
//!
//! 1. `full-ml` — float compiled background net, 5 loop iterations;
//! 2. `reduced-ml` — INT8 plan, fewer loop iterations;
//! 3. `coarse-skymap` — adaptive sky map on a small grid, mode + 90 %
//!    credible radius;
//! 4. `classical` — baseline approximate + refine, no ML.
//!
//! A rung that fails falls through to the next; an epoch with ≥ 1 ring
//! *always* alerts — late beats never. The scheduler owns the per-epoch
//! RNG, the spans, alert assembly and the transition log; callers keep
//! their queues, checkpoints and fan-out.

use crate::runtime::{DegradationLevel, EpochLocalizer, EpochOutcome, GrbAlert};
use crate::trigger::OpenEpoch;
use adapt_localize::InferenceWorkspace;
use adapt_math::angles::polar_angle_deg;
use adapt_math::rad_to_deg;
use adapt_telemetry::{AlertRecord, Counter, DegradationRecord, Recorder, Stage, TraceSpanRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;
use std::time::Instant;

/// Initial (pre-observation) per-level cost priors (ms), replaced by the
/// EWMA after one observation each: the median per-rung p50s of four
/// `epoch-deck` runs (`perfbench`, seed 1, 96 epochs of ~100–1000 rings,
/// 2-core AVX2 Xeon), measured before the approximation stage screened
/// its candidates with a bounded-error `acos`. That screen made the three
/// approximating rungs cheaper, and classical now undercuts
/// coarse-skymap. The values are kept deliberately: forced-degradation
/// checks (flight leg B of the ground `counter_coverage` test, the flight
/// and serve `--deadline-ms 5` CI smokes) are calibrated against them,
/// and re-deriving them belongs with re-ordering the ladder.
pub const COST_PRIORS_MS: [f64; 4] = [5.7, 5.4, 1.9, 4.1];

/// EWMA weight of a new cost observation.
pub(crate) const COST_ALPHA: f64 = 0.4;

/// Fraction of the remaining deadline budget a rung's cost estimate must
/// fit inside to be chosen.
const SAFETY_FACTOR: f64 = 0.8;

/// The per-epoch localizer RNG seed: every consumer of an epoch stream
/// (the single-stream runtime and the ground-segment pool) derives its
/// RNG the same way, which is what makes multi-tenant localizations
/// bit-identical to a single-stream run with the same seed.
pub fn epoch_rng_seed(stream_seed: u64, epoch_index: u64) -> u64 {
    stream_seed ^ epoch_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Pick the best ladder level whose cost estimate fits the budget, under
/// epoch-backlog pressure gates. Returns the level and the reason a
/// better level was rejected (`"nominal"` when none was).
pub(crate) fn choose_level(
    cost_model_ms: &[f64; 4],
    budget_ms: f64,
    backlog: usize,
) -> (DegradationLevel, &'static str) {
    let mut reason = "nominal";
    for level in DegradationLevel::ALL {
        let slot = level.slot();
        // deeper backlog forbids the more expensive rungs outright
        if backlog > slot {
            reason = "queue-pressure";
            continue;
        }
        if cost_model_ms[slot] <= budget_ms {
            return (level, reason);
        }
        reason = "deadline-budget";
    }
    (DegradationLevel::Classical, reason)
}

/// An epoch admitted to the scheduler, queued by the caller until a
/// worker hands it to [`EpochScheduler::localize`].
pub struct ScheduledEpoch {
    /// Tenant stream (`0` for the single-stream flight runtime).
    pub stream_id: usize,
    /// Epoch index within its stream (trigger order).
    pub index: u64,
    /// The stream's localizer seed ([`epoch_rng_seed`] input).
    pub stream_seed: u64,
    /// The triggered epoch.
    pub epoch: OpenEpoch,
    /// When the epoch became ready: the alert deadline counts from here.
    pub ready: Instant,
}

impl ScheduledEpoch {
    /// An unnamed span of this epoch's causal trace `s{stream}.e{index}`,
    /// a child of its root `trigger` span; callers name it and fill in
    /// the rest.
    pub fn child_span(&self, start_ms: f64, queue_depth: usize) -> TraceSpanRecord {
        TraceSpanRecord {
            trace_id: format!("s{}.e{}", self.stream_id, self.index),
            span: String::new(),
            parent: Some("trigger".into()),
            t_s: self.epoch.t_trigger_s,
            start_ms,
            duration_ms: 0.0,
            queue_depth: queue_depth as u64,
            detail: String::new(),
        }
    }
}

/// Why a ladder lock can fail: only a worker that panicked mid-update
/// poisons it.
const POISONED: &str = "a worker panicked while holding the ladder";

/// The ladder's learned state.
struct Ladder {
    cost_model_ms: [f64; 4],
    level: DegradationLevel,
    transitions: Vec<DegradationRecord>,
}

impl Ladder {
    /// Learn the produced rung's cost and log the transition, if the rung
    /// changed. `reason` is the level-choice reason; a fall-through
    /// overrides it with `localization-failed` and an upward move with
    /// `recovered`.
    fn observe(
        &mut self,
        t_s: f64,
        out: &EpochOutcome,
        reason: &str,
        compute_ms: f64,
    ) -> Option<&DegradationRecord> {
        let slot = out.level.slot();
        self.cost_model_ms[slot] =
            (1.0 - COST_ALPHA) * self.cost_model_ms[slot] + COST_ALPHA * compute_ms;
        let previous = std::mem::replace(&mut self.level, out.level);
        if previous == out.level {
            return None;
        }
        let reason = if slot < previous.slot() {
            "recovered"
        } else if out.fell_through {
            "localization-failed"
        } else {
            reason
        };
        self.transitions.push(DegradationRecord {
            t_s,
            from: previous.name().to_string(),
            to: out.level.name().to_string(),
            reason: reason.to_string(),
        });
        self.transitions.last()
    }
}

/// The degradation-ladder scheduler. Immutable apart from one mutex over
/// its learned state, so any number of workers share it by reference.
pub struct EpochScheduler<'a> {
    localizer: EpochLocalizer<'a>,
    recorder: &'a dyn Recorder,
    deadline_ms: f64,
    deterministic: bool,
    ladder: Mutex<Ladder>,
}

impl<'a> EpochScheduler<'a> {
    /// A scheduler at `full-ml` with the cost priors. `deadline_ms` is the
    /// epoch-ready → alert budget; a rung's cost estimate must fit inside
    /// [`SAFETY_FACTOR`] of what remains. `deterministic` pins `full-ml`.
    pub fn new(localizer: EpochLocalizer<'a>, deadline_ms: f64, deterministic: bool) -> Self {
        EpochScheduler {
            recorder: localizer.recorder,
            localizer,
            deadline_ms,
            deterministic,
            ladder: Mutex::new(Ladder {
                cost_model_ms: COST_PRIORS_MS,
                level: DegradationLevel::FullMl,
                transitions: Vec::new(),
            }),
        }
    }

    /// Resume learned state: a checkpoint's cost model (slots it lacks
    /// keep their prior) and rung.
    pub fn with_state(mut self, cost_model_ms: &[f64], level: DegradationLevel) -> Self {
        let ladder = self.ladder.get_mut().expect(POISONED);
        for (slot, &ms) in ladder.cost_model_ms.iter_mut().zip(cost_model_ms) {
            *slot = ms;
        }
        ladder.level = level;
        self
    }

    /// The learned cost model and current rung, for checkpoints.
    pub fn snapshot(&self) -> ([f64; 4], DegradationLevel) {
        let ladder = self.ladder.lock().expect(POISONED);
        (ladder.cost_model_ms, ladder.level)
    }

    /// The transitions logged so far, in order.
    pub fn into_transitions(self) -> Vec<DegradationRecord> {
        self.ladder.into_inner().expect(POISONED).transitions
    }

    /// Admit epoch `index` of stream `stream_id` (localizer seed
    /// `stream_seed`): stamp it ready, count it, and open its causal trace
    /// with the root `trigger` span, reporting the caller's `queue_depth`.
    /// The span's `events=` detail counts the epoch's events, which are
    /// only the ones reconstruction can sequence (multi-site events).
    pub fn admit(
        &self,
        stream_id: usize,
        index: u64,
        stream_seed: u64,
        epoch: OpenEpoch,
        queue_depth: usize,
    ) -> ScheduledEpoch {
        let job = ScheduledEpoch {
            stream_id,
            index,
            stream_seed,
            epoch,
            ready: Instant::now(),
        };
        self.recorder.add(Counter::EpochsOpened, 1);
        if self.recorder.is_enabled() {
            let (sigma, events) = (job.epoch.significance_sigma, job.epoch.events.len());
            self.recorder.trace_span(&TraceSpanRecord {
                span: "trigger".into(),
                parent: None,
                detail: format!("sigma={sigma:.1} events={events}"),
                ..job.child_span(0.0, queue_depth)
            });
        }
        job
    }

    /// Localize one admitted epoch and emit its alert. `backlog` gates
    /// the expensive rungs; `worker` tags the `schedule` span; `depths`
    /// reads the caller's `(ingest, epoch)` queue depths for the
    /// `localize` span and the alert. `None` when no ring reconstructs.
    pub fn localize(
        &self,
        job: &ScheduledEpoch,
        backlog: usize,
        worker: Option<usize>,
        depths: impl Fn() -> (usize, usize),
        ws: &mut InferenceWorkspace,
    ) -> Option<GrbAlert> {
        let recorder = self.recorder;
        let waited_ms = job.ready.elapsed().as_secs_f64() * 1e3;
        let (chosen, reason) = if self.deterministic {
            (DegradationLevel::FullMl, "pinned")
        } else {
            let cost = self.ladder.lock().expect(POISONED).cost_model_ms;
            let budget_ms = (self.deadline_ms - waited_ms) * SAFETY_FACTOR;
            choose_level(&cost, budget_ms, backlog)
        };
        if recorder.is_enabled() {
            let worker = worker.map(|w| format!(" worker={w}")).unwrap_or_default();
            recorder.trace_span(&TraceSpanRecord {
                span: "queue-wait".into(),
                duration_ms: waited_ms,
                ..job.child_span(0.0, backlog)
            });
            recorder.trace_span(&TraceSpanRecord {
                span: "schedule".into(),
                detail: format!("level={} reason={reason}{worker}", chosen.name()),
                ..job.child_span(waited_ms, backlog)
            });
        }

        let mut rng = ChaCha8Rng::seed_from_u64(epoch_rng_seed(job.stream_seed, job.index));
        let t_compute = Instant::now();
        let out = self
            .localizer
            .localize_epoch(&job.epoch, chosen, &mut rng, ws)?;
        let compute = t_compute.elapsed();
        let compute_ms = compute.as_secs_f64() * 1e3;
        recorder.duration(Stage::Total, compute);
        let (ingest_depth, epoch_depth) = depths();
        if recorder.is_enabled() {
            recorder.trace_span(&TraceSpanRecord {
                span: "localize".into(),
                duration_ms: compute_ms,
                detail: format!("level={} rings={}", out.level.name(), out.rings),
                ..job.child_span(waited_ms, epoch_depth)
            });
        }

        let latency = job.ready.elapsed();
        recorder.duration(Stage::AlertLatency, latency);
        let t_s = job.epoch.t_trigger_s;
        let alert = GrbAlert {
            t_trigger_s: t_s,
            significance_sigma: job.epoch.significance_sigma,
            polar_deg: polar_angle_deg(out.direction),
            azimuth_deg: rad_to_deg(out.direction.azimuth()),
            containment_radius_deg: out.containment_radius_deg,
            containment_source: out.containment_source,
            mode: out.level,
            rings: out.rings,
            surviving_rings: out.surviving_rings,
            latency_ms: latency.as_secs_f64() * 1e3,
            deadline_ms: self.deadline_ms,
            ingest_depth,
            epoch_depth,
        };
        recorder.alert(&AlertRecord {
            stream_id: job.stream_id as u64,
            t_s,
            mode: out.level.name().to_string(),
            polar_deg: alert.polar_deg,
            azimuth_deg: alert.azimuth_deg,
            containment_radius_deg: alert.containment_radius_deg,
            containment_source: alert.containment_source.name().to_string(),
            latency_ms: alert.latency_ms,
            rings: alert.rings as u64,
            ingest_depth: ingest_depth as u64,
            epoch_depth: epoch_depth as u64,
        });

        let mut ladder = self.ladder.lock().expect(POISONED);
        if let Some(rec) = ladder.observe(t_s, &out, reason, compute_ms) {
            recorder.degradation(rec);
        }
        Some(alert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ContainmentSource;
    use adapt_math::vec3::UnitVec3;

    fn outcome(level: DegradationLevel, fell_through: bool) -> EpochOutcome {
        EpochOutcome {
            direction: UnitVec3::from_spherical(0.3, 1.0),
            level,
            rings: 100,
            surviving_rings: 60,
            containment_radius_deg: 2.0,
            containment_source: ContainmentSource::Heuristic,
            fell_through,
        }
    }

    fn ladder() -> Ladder {
        Ladder {
            cost_model_ms: COST_PRIORS_MS,
            level: DegradationLevel::FullMl,
            transitions: Vec::new(),
        }
    }

    #[test]
    fn ewma_learns_only_the_produced_rung() {
        let mut ladder = ladder();
        ladder.observe(
            1.0,
            &outcome(DegradationLevel::ReducedMl, false),
            "nominal",
            10.0,
        );
        let want = (1.0 - COST_ALPHA) * COST_PRIORS_MS[1] + COST_ALPHA * 10.0;
        assert_eq!(ladder.cost_model_ms[1].to_bits(), want.to_bits());
        for slot in [0, 2, 3] {
            assert_eq!(ladder.cost_model_ms[slot], COST_PRIORS_MS[slot]);
        }
    }

    #[test]
    fn unchanged_level_logs_no_transition() {
        let mut ladder = ladder();
        let rec = ladder.observe(
            1.0,
            &outcome(DegradationLevel::FullMl, false),
            "pinned",
            5.0,
        );
        assert!(rec.is_none());
        assert!(ladder.transitions.is_empty());
        assert_eq!(ladder.level, DegradationLevel::FullMl);
    }

    #[test]
    fn transitions_carry_their_reasons() {
        let mut ladder = ladder();
        let down = outcome(DegradationLevel::Classical, false);
        let rec = ladder.observe(1.0, &down, "deadline-budget", 3.0).cloned();
        let rec = rec.expect("full-ml -> classical is a transition");
        assert_eq!(
            (rec.from.as_str(), rec.to.as_str(), rec.reason.as_str()),
            ("full-ml", "classical", "deadline-budget")
        );

        // an upward move is a recovery, whatever the level choice said
        let up = outcome(DegradationLevel::ReducedMl, false);
        let rec = ladder.observe(2.0, &up, "nominal", 3.0).cloned().unwrap();
        assert_eq!(
            (rec.to.as_str(), rec.reason.as_str()),
            ("reduced-ml", "recovered")
        );

        // a rung that failed and fell through names the failure
        let fell = outcome(DegradationLevel::CoarseSkymap, true);
        let rec = ladder.observe(3.0, &fell, "nominal", 3.0).cloned().unwrap();
        assert_eq!(
            (rec.from.as_str(), rec.to.as_str(), rec.reason.as_str()),
            ("reduced-ml", "coarse-skymap", "localization-failed")
        );
        assert_eq!(ladder.transitions.len(), 3);
        assert_eq!(ladder.transitions[2].t_s, 3.0);
    }
}
