//! Streaming event generation: the flight-time view of the simulator.
//!
//! The batched [`BurstSimulation`](crate::campaign::BurstSimulation) draws
//! every event of an exposure window at once; the onboard runtime instead
//! consumes a time-ordered stream spanning hours, with the background rate
//! following the balloon's [`FlightProfile`](crate::flight::FlightProfile)
//! and GRBs injected at scheduled onsets. [`StreamingSource`] provides that
//! stream as an iterator of [`StreamedEvent`]s while *sharing* the batched
//! per-particle code path ([`BurstSimulation::grb_event`] /
//! [`BurstSimulation::background_event`]) — there is exactly one
//! transport-and-response sampling implementation in the crate.
//!
//! Background arrivals form a nonhomogeneous Poisson process
//! `λ(t) = λ_nominal · scale · background_multiplier_at(t)` realized by
//! thinning against the profile's rate ceiling. Arrival times are drawn
//! sequentially (cheap), then each accepted particle is transported in
//! rayon-parallel blocks using its counter-derived RNG — so the event
//! content at a given index is deterministic regardless of block size or
//! thread count.

use crate::campaign::BurstSimulation;
use crate::config::{BackgroundConfig, DetectorConfig, GrbConfig, PerturbationConfig};
use crate::event::{Event, MeasuredHit, ParticleOrigin, TrueEvent, TrueHit};
use crate::flight::FlightProfile;
use crate::scenario::Scenario;
use adapt_math::sampling::{exponential, poisson};
use adapt_math::vec3::UnitVec3;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Background arrivals are generated (and transported in parallel) in
/// blocks of this many simulated seconds.
const BLOCK_S: f64 = 4.0;

/// Particles transported per parallel chunk; each chunk fills its own
/// [`EventStore`], appended in index order.
const CHUNK: u64 = 1024;

/// A GRB injected into the stream at a scheduled onset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BurstInjection {
    /// Stream time of the burst-window start (s from stream start).
    pub t_onset_s: f64,
    /// The burst itself (fluence, direction, spectrum, light curve).
    pub grb: GrbConfig,
}

/// Configuration of a [`StreamingSource`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Detector geometry and response.
    pub detector: DetectorConfig,
    /// Background population; `particle_fluence` is interpreted as the
    /// *nominal per-second* fluence (particles/cm²/s) before the flight
    /// profile's multiplier is applied.
    pub background: BackgroundConfig,
    /// Detector perturbation (usually none in flight replays).
    pub perturbation: PerturbationConfig,
    /// Altitude profile scaling the background rate over the stream.
    pub profile: FlightProfile,
    /// Mission-elapsed time (hours) at stream time zero.
    pub start_h: f64,
    /// Stream length (s).
    pub duration_s: f64,
    /// Extra multiplier on the nominal background rate (load knob:
    /// `4.0` = "4x nominal background").
    pub background_scale: f64,
    /// Scheduled GRBs.
    pub bursts: Vec<BurstInjection>,
    /// Hostile-sky anomalies stacked on the stream (quiet by default).
    pub scenario: Scenario,
}

impl StreamConfig {
    /// Defaults: standard detector, nominal background treated as a
    /// per-second rate, no perturbation, stream starting at mission t=0.
    pub fn new(profile: FlightProfile, duration_s: f64) -> Self {
        StreamConfig {
            detector: DetectorConfig::default(),
            background: BackgroundConfig::default(),
            perturbation: PerturbationConfig::default(),
            profile,
            start_h: 0.0,
            duration_s,
            background_scale: 1.0,
            bursts: Vec::new(),
            scenario: Scenario::default(),
        }
    }

    /// Add a burst injection (builder style).
    pub fn with_burst(mut self, t_onset_s: f64, grb: GrbConfig) -> Self {
        self.bursts.push(BurstInjection { t_onset_s, grb });
        self
    }

    /// Attach a hostile-sky scenario (builder style).
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }
}

/// One measured event with its absolute stream arrival time. The
/// embedded event's `arrival_time` equals `t_s`, so downstream windowing
/// can use either.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamedEvent {
    /// Arrival time (s from stream start).
    pub t_s: f64,
    /// The measured event.
    pub event: Event,
}

/// Counters describing what a [`StreamingSource`] generated so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Incident background particles aimed at the detector.
    pub n_background_incident: u64,
    /// Incident GRB photons aimed at the detector (all injections).
    pub n_grb_incident: u64,
    /// Measured events yielded.
    pub n_measured: u64,
    /// Pre-generated burst photons lost to detector-dropout windows.
    pub n_outage_dropped: u64,
    /// Merged-stream events suppressed by dead-time.
    pub n_dead_time_dropped: u64,
}

/// The truth scalars and hit ranges of one stored event; its hits live in
/// the owning [`EventStore`]'s flat vectors.
#[derive(Debug, Clone, Copy)]
struct EventHeader {
    /// Arrival time (s from stream start), also the event's `arrival_time`.
    t_s: f64,
    origin: ParticleOrigin,
    source_dir: UnitVec3,
    incident_energy: f64,
    true_eta: Option<f64>,
    /// `measured[start..end]` of the store.
    measured: (u32, u32),
    /// `truth[start..end]` of the store.
    truth: (u32, u32),
}

/// Events in three flat vectors: headers, measured hits and true hits.
#[derive(Debug, Default)]
struct EventStore {
    headers: Vec<EventHeader>,
    measured: Vec<MeasuredHit>,
    truth: Vec<TrueHit>,
}

/// `i` as a stored hit index.
fn hit_index(i: usize) -> u32 {
    u32::try_from(i).expect("event store exceeds u32 hits")
}

/// Append `hits` to `flat` and return their `(start, end)` range.
fn push_range<T: Copy>(flat: &mut Vec<T>, hits: &[T]) -> (u32, u32) {
    let start = flat.len();
    flat.extend_from_slice(hits);
    (hit_index(start), hit_index(flat.len()))
}

impl EventStore {
    /// Copy `event` in; its `arrival_time` becomes the stored `t_s`.
    fn push(&mut self, event: &Event) {
        let measured = push_range(&mut self.measured, &event.hits);
        let truth = push_range(&mut self.truth, &event.truth.hits);
        self.headers.push(EventHeader {
            t_s: event.arrival_time,
            origin: event.truth.origin,
            source_dir: event.truth.source_dir,
            incident_energy: event.truth.incident_energy,
            true_eta: event.truth.true_eta,
            measured,
            truth,
        });
    }

    /// Move `other`'s events to the end of this store.
    fn append(&mut self, other: EventStore) {
        let shift = |r: (u32, u32), base: usize| {
            (
                hit_index(r.0 as usize + base),
                hit_index(r.1 as usize + base),
            )
        };
        let (m0, t0) = (self.measured.len(), self.truth.len());
        self.headers
            .extend(other.headers.iter().map(|h| EventHeader {
                measured: shift(h.measured, m0),
                truth: shift(h.truth, t0),
                ..*h
            }));
        self.measured.extend_from_slice(&other.measured);
        self.truth.extend_from_slice(&other.truth);
    }

    /// Transport particles `0..n` in parallel contiguous chunks through
    /// `make` and append the events it returns in index order. Each event
    /// is copied into its chunk's store and dropped at once.
    fn extend_par<F>(&mut self, n: u64, make: F)
    where
        F: Fn(u64) -> Option<Event> + Sync,
    {
        let make = &make;
        let chunks: Vec<EventStore> = (0..n.div_ceil(CHUNK))
            .into_par_iter()
            .map(|c| {
                let mut store = EventStore::default();
                for i in c * CHUNK..((c + 1) * CHUNK).min(n) {
                    if let Some(event) = make(i) {
                        store.push(&event);
                    }
                }
                store
            })
            .collect();
        for chunk in chunks {
            self.append(chunk);
        }
    }

    fn clear(&mut self) {
        self.headers.clear();
        self.measured.clear();
        self.truth.clear();
    }

    /// Arrival time of event `i`, if it exists.
    fn t_s(&self, i: usize) -> Option<f64> {
        self.headers.get(i).map(|h| h.t_s)
    }

    /// Build event `i` as the stream yields it.
    fn event(&self, i: usize) -> StreamedEvent {
        let h = &self.headers[i];
        let range = |r: (u32, u32)| r.0 as usize..r.1 as usize;
        StreamedEvent {
            t_s: h.t_s,
            event: Event {
                hits: self.measured[range(h.measured)].to_vec(),
                truth: TrueEvent {
                    origin: h.origin,
                    source_dir: h.source_dir,
                    incident_energy: h.incident_energy,
                    hits: self.truth[range(h.truth)].to_vec(),
                    true_eta: h.true_eta,
                },
                arrival_time: h.t_s,
            },
        }
    }
}

/// Where the merged stream's head event lives.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Burst(usize),
    Block(usize),
}

/// A time-ordered iterator of measured events over a flight profile.
///
/// `seed` fully determines the stream. Burst events are pre-generated at
/// construction (bursts are short and sparse); background events are
/// generated lazily in `BLOCK_S`-second blocks so multi-hour streams
/// never materialize in memory. Both live in one flat store each (hits in
/// two vectors, one small header per event), and each yielded
/// [`StreamedEvent`] is built on pop, so a source never owns one heap
/// block per event. That is for teardown: dropping 128 drained storm
/// lanes (~1.7M pre-generated burst events) took 360–470 ms with one
/// event per `StreamedEvent` and takes 10–15 ms from flat stores.
pub struct StreamingSource {
    sim: BurstSimulation,
    profile: FlightProfile,
    start_h: f64,
    duration_s: f64,
    /// Incident-particle ceiling rate (Hz) the thinning draws against.
    rate_max_hz: f64,
    /// Nominal incident rate (Hz) at multiplier 1, including the scale.
    rate_scaled_hz: f64,
    arrival_rng: ChaCha8Rng,
    bkg_stream: u64,
    bkg_index: u64,
    /// Next candidate arrival of the rate-`rate_max_hz` homogeneous
    /// process (s); thinning accepts a subset.
    next_candidate_s: f64,
    /// Pre-generated burst events in time order.
    bursts: EventStore,
    next_burst: usize,
    /// The current background block in time order.
    block: EventStore,
    block_pos: usize,
    /// Background generated for all t < block_end_s.
    block_end_s: f64,
    scenario: Scenario,
    /// Largest dead-time constant across scenario components, if any.
    dead_tau_s: Option<f64>,
    /// Arrival time of the last emitted event (dead-time reference).
    last_emitted_s: f64,
    stats: StreamStats,
}

impl StreamingSource {
    /// Build the source; pre-generates all burst events (through the
    /// shared [`BurstSimulation::grb_event`] path) and prepares the lazy
    /// background process.
    pub fn new(config: StreamConfig, seed: u64) -> Self {
        let mut master = ChaCha8Rng::seed_from_u64(seed);
        let bkg_stream: u64 = master.gen();

        // Background transport scenario: a zero-fluence GRB so the shared
        // BurstSimulation only ever contributes background events here.
        let mut null_grb = GrbConfig::new(0.0, 0.0);
        null_grb.duration_s = 1.0;
        let sim = BurstSimulation::new(
            config.detector.clone(),
            null_grb,
            config.background.clone(),
            config.perturbation,
        );

        // `particle_fluence` is per-second here, so the batched
        // "per-window" expectation with a 1 s window is a rate in Hz.
        let rate_nominal_hz = sim.expected_background_particles();
        let rate_scaled_hz = rate_nominal_hz * config.background_scale;

        // Thinning ceiling: the profile multiplier is piecewise-smooth;
        // probe it on a fine grid and add a safety margin. Acceptance is
        // clamped to 1, so a probe miss softly caps the peak instead of
        // biasing the rest of the stream. Scenario rate modifiers fold in
        // through their analytic bound, so ramps/steps/spikes never clip.
        let end_h = config.start_h + config.duration_s / 3600.0;
        let mut mult_max = f64::MIN;
        for i in 0..=2048 {
            let t_h = config.start_h + (end_h - config.start_h) * i as f64 / 2048.0;
            mult_max = mult_max.max(config.profile.background_multiplier_at(t_h));
        }
        let scenario = config.scenario.clone();
        let rate_max_hz =
            (rate_scaled_hz * mult_max * scenario.rate_multiplier_bound() * 1.05).max(1e-9);

        let mut stats = StreamStats::default();

        // Pre-generate burst events: per-injection Poisson count and
        // decorrelated stream, exactly like a batched window, with
        // arrival times shifted to the onset. Scenario components with a
        // photon-population channel expand into ordinary injections here.
        let scenario_injections = scenario.injections();
        let mut bursts = EventStore::default();
        for inj in config.bursts.iter().chain(&scenario_injections) {
            let bsim = BurstSimulation::new(
                config.detector.clone(),
                inj.grb.clone(),
                config.background.clone(),
                config.perturbation,
            );
            let n = poisson(&mut master, bsim.expected_grb_photons());
            let stream: u64 = master.gen();
            stats.n_grb_incident += n;
            let onset = inj.t_onset_s;
            let duration = config.duration_s;
            bursts.extend_par(n, |i| {
                let mut e = bsim.grb_event(stream, i)?;
                e.arrival_time += onset;
                (e.arrival_time < duration).then_some(e)
            });
        }
        // Stable, so equal times keep injection-then-index order.
        bursts.headers.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));

        // Detector dropouts thin the pre-generated burst photons with a
        // dedicated construction-time stream; the draw sequence depends
        // only on the (deterministic) sorted event list, so replays and
        // `skip_until` restores see the identical survivor set. The RNG
        // is only minted when a dropout exists, keeping quiet-scenario
        // streams draw-for-draw identical to the pre-scenario source.
        if scenario.has_dropouts() {
            let mut drop_rng = ChaCha8Rng::seed_from_u64(master.gen());
            bursts.headers.retain(|h| {
                let survival = scenario.survival_at(h.t_s);
                let keep = survival >= 1.0 || drop_rng.gen::<f64>() < survival;
                if !keep {
                    stats.n_outage_dropped += 1;
                }
                keep
            });
        }

        // First candidate arrival of the ceiling-rate process.
        let mut arrival_rng = master;
        let first = exponential(&mut arrival_rng, 1.0 / rate_max_hz);

        StreamingSource {
            sim,
            profile: config.profile,
            start_h: config.start_h,
            duration_s: config.duration_s,
            rate_max_hz,
            rate_scaled_hz,
            arrival_rng,
            bkg_stream,
            bkg_index: 0,
            next_candidate_s: first,
            bursts,
            next_burst: 0,
            block: EventStore::default(),
            block_pos: 0,
            block_end_s: 0.0,
            dead_tau_s: scenario.dead_time_s(),
            scenario,
            last_emitted_s: f64::NEG_INFINITY,
            stats,
        }
    }

    /// Generation counters so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// The incident-background ceiling rate (Hz) used for thinning.
    pub fn rate_max_hz(&self) -> f64 {
        self.rate_max_hz
    }

    /// Background multiplier at stream time `t_s`.
    pub fn multiplier_at(&self, t_s: f64) -> f64 {
        self.profile
            .background_multiplier_at(self.start_h + t_s / 3600.0)
    }

    /// The hostile-sky scenario stacked on this stream.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The instantaneous background intensity λ(t) the thinning loop
    /// targets at `t_s`: nominal rate × profile multiplier × scenario
    /// rate modifiers × scenario dropout survival. By construction this
    /// never exceeds [`rate_max_hz`](Self::rate_max_hz) (modulo the
    /// profile grid probe), which the envelope property test pins.
    pub fn instantaneous_rate_hz(&self, t_s: f64) -> f64 {
        self.rate_scaled_hz
            * self.multiplier_at(t_s)
            * self.scenario.rate_multiplier_at(t_s)
            * self.scenario.survival_at(t_s)
    }

    /// Generate the next background block: thin candidate arrivals over
    /// `[block_end_s, block_end_s + BLOCK_S)`, then transport the accepted
    /// particles in parallel through the shared batched path.
    fn generate_block(&mut self) {
        let t0 = self.block_end_s;
        let t1 = (t0 + BLOCK_S).min(self.duration_s);
        let mut accepted: Vec<(f64, u64)> = Vec::new();
        while self.next_candidate_s < t1 {
            let t = self.next_candidate_s;
            let lambda = self.instantaneous_rate_hz(t);
            let p = (lambda / self.rate_max_hz).min(1.0);
            if self.arrival_rng.gen::<f64>() < p {
                accepted.push((t, self.bkg_index));
                self.bkg_index += 1;
            }
            self.next_candidate_s = t + exponential(&mut self.arrival_rng, 1.0 / self.rate_max_hz);
        }
        self.stats.n_background_incident += accepted.len() as u64;
        let sim = &self.sim;
        let stream = self.bkg_stream;
        self.block.clear();
        self.block.extend_par(accepted.len() as u64, |k| {
            let (t, i) = accepted[k as usize];
            let mut e = sim.background_event(stream, i)?;
            e.arrival_time = t;
            Some(e)
        });
        self.block_pos = 0;
        self.block_end_s = t1;
    }

    /// Skip the stream forward so the next yielded event has
    /// `t_s > after_s` (checkpoint-restore: deterministically regenerate
    /// and discard everything already consumed). Dead-time bookkeeping
    /// replays event-for-event, so the suppression pattern after the cut
    /// matches an uninterrupted stream exactly. Skipped events are never
    /// built: dead-time needs only their times.
    pub fn skip_until(&mut self, after_s: f64) {
        while let Some(t) = self.peek_time() {
            if t > after_s {
                break;
            }
            let (t, _) = self.pop_head().expect("peeked event must pop");
            self.admit(t);
        }
    }

    /// Advance past the merged head event without applying dead-time;
    /// returns its time and where it lives until the next pop.
    fn pop_head(&mut self) -> Option<(f64, Slot)> {
        self.peek_time()?;
        let tb = self.bursts.t_s(self.next_burst);
        let tg = self.block.t_s(self.block_pos);
        let take_burst = match (tg, tb) {
            (Some(g), Some(b)) => b <= g,
            (None, Some(_)) => true,
            _ => false,
        };
        Some(if take_burst {
            self.next_burst += 1;
            (tb?, Slot::Burst(self.next_burst - 1))
        } else {
            self.block_pos += 1;
            (tg?, Slot::Block(self.block_pos - 1))
        })
    }

    /// Build the event a [`pop_head`](Self::pop_head) returned.
    fn build(&self, slot: Slot) -> StreamedEvent {
        match slot {
            Slot::Burst(i) => self.bursts.event(i),
            Slot::Block(i) => self.block.event(i),
        }
    }

    /// Dead-time bookkeeping for one popped event; true when the event
    /// is emitted, false when it is suppressed. Dead-time acts on the
    /// merged stream: an event within τ of the previously emitted event
    /// is lost regardless of origin.
    fn admit(&mut self, t_s: f64) -> bool {
        if let Some(tau) = self.dead_tau_s {
            if t_s - self.last_emitted_s < tau {
                self.stats.n_dead_time_dropped += 1;
                return false;
            }
        }
        self.last_emitted_s = t_s;
        self.stats.n_measured += 1;
        true
    }

    fn peek_time(&mut self) -> Option<f64> {
        loop {
            let tb = self.bursts.t_s(self.next_burst);
            let tg = self.block.t_s(self.block_pos);
            match (tg, tb) {
                (Some(g), Some(b)) => return Some(g.min(b)),
                (Some(g), None) => return Some(g),
                (None, Some(b)) if b <= self.block_end_s || self.block_end_s >= self.duration_s => {
                    return Some(b)
                }
                (None, _) => {
                    if self.block_end_s >= self.duration_s {
                        return None;
                    }
                    self.generate_block();
                }
            }
        }
    }
}

impl Iterator for StreamingSource {
    type Item = StreamedEvent;

    fn next(&mut self) -> Option<StreamedEvent> {
        loop {
            let (t_s, slot) = self.pop_head()?;
            if self.admit(t_s) {
                return Some(self.build(slot));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioComponent;
    use adapt_math::vec3::Vec3;

    fn quick_config(duration_s: f64) -> StreamConfig {
        let mut c = StreamConfig::new(FlightProfile::antarctic_ldb(), duration_s);
        // keep debug-mode test transport cheap
        c.background.particle_fluence = 2.0;
        c.start_h = 20.0; // at float: multiplier ~1
        c
    }

    /// The source as it was before events moved into an [`EventStore`]:
    /// one `StreamedEvent` per pre-generated event, stable-sorted,
    /// thinned, cloned on pop. [`StreamingSource`] must yield the same
    /// stream bit for bit.
    struct ReferenceSource {
        sim: BurstSimulation,
        profile: FlightProfile,
        start_h: f64,
        duration_s: f64,
        rate_max_hz: f64,
        rate_scaled_hz: f64,
        arrival_rng: ChaCha8Rng,
        bkg_stream: u64,
        bkg_index: u64,
        next_candidate_s: f64,
        burst_events: Vec<StreamedEvent>,
        next_burst: usize,
        block: Vec<StreamedEvent>,
        block_pos: usize,
        block_end_s: f64,
        scenario: Scenario,
        dead_tau_s: Option<f64>,
        last_emitted_s: f64,
        stats: StreamStats,
    }

    impl ReferenceSource {
        fn new(config: StreamConfig, seed: u64) -> Self {
            let mut master = ChaCha8Rng::seed_from_u64(seed);
            let bkg_stream: u64 = master.gen();
            let mut null_grb = GrbConfig::new(0.0, 0.0);
            null_grb.duration_s = 1.0;
            let sim = BurstSimulation::new(
                config.detector.clone(),
                null_grb,
                config.background.clone(),
                config.perturbation,
            );
            let rate_scaled_hz = sim.expected_background_particles() * config.background_scale;
            let end_h = config.start_h + config.duration_s / 3600.0;
            let mut mult_max = f64::MIN;
            for i in 0..=2048 {
                let t_h = config.start_h + (end_h - config.start_h) * i as f64 / 2048.0;
                mult_max = mult_max.max(config.profile.background_multiplier_at(t_h));
            }
            let scenario = config.scenario.clone();
            let rate_max_hz =
                (rate_scaled_hz * mult_max * scenario.rate_multiplier_bound() * 1.05).max(1e-9);
            let mut stats = StreamStats::default();
            let scenario_injections = scenario.injections();
            let mut burst_events: Vec<StreamedEvent> = Vec::new();
            for inj in config.bursts.iter().chain(&scenario_injections) {
                let bsim = BurstSimulation::new(
                    config.detector.clone(),
                    inj.grb.clone(),
                    config.background.clone(),
                    config.perturbation,
                );
                let n = poisson(&mut master, bsim.expected_grb_photons());
                let stream: u64 = master.gen();
                stats.n_grb_incident += n;
                let onset = inj.t_onset_s;
                let duration = config.duration_s;
                let mut evs: Vec<StreamedEvent> = (0..n)
                    .into_par_iter()
                    .filter_map(|i| {
                        let mut e = bsim.grb_event(stream, i)?;
                        let t = onset + e.arrival_time;
                        if t >= duration {
                            return None;
                        }
                        e.arrival_time = t;
                        Some(StreamedEvent { t_s: t, event: e })
                    })
                    .collect();
                burst_events.append(&mut evs);
            }
            burst_events.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
            if scenario.has_dropouts() {
                let mut drop_rng = ChaCha8Rng::seed_from_u64(master.gen());
                burst_events.retain(|ev| {
                    let survival = scenario.survival_at(ev.t_s);
                    let keep = survival >= 1.0 || drop_rng.gen::<f64>() < survival;
                    if !keep {
                        stats.n_outage_dropped += 1;
                    }
                    keep
                });
            }
            let mut arrival_rng = master;
            let first = exponential(&mut arrival_rng, 1.0 / rate_max_hz);
            ReferenceSource {
                sim,
                profile: config.profile,
                start_h: config.start_h,
                duration_s: config.duration_s,
                rate_max_hz,
                rate_scaled_hz,
                arrival_rng,
                bkg_stream,
                bkg_index: 0,
                next_candidate_s: first,
                burst_events,
                next_burst: 0,
                block: Vec::new(),
                block_pos: 0,
                block_end_s: 0.0,
                dead_tau_s: scenario.dead_time_s(),
                scenario,
                last_emitted_s: f64::NEG_INFINITY,
                stats,
            }
        }

        fn generate_block(&mut self) {
            let t0 = self.block_end_s;
            let t1 = (t0 + BLOCK_S).min(self.duration_s);
            let mut accepted: Vec<(f64, u64)> = Vec::new();
            while self.next_candidate_s < t1 {
                let t = self.next_candidate_s;
                let lambda = self.rate_scaled_hz
                    * self
                        .profile
                        .background_multiplier_at(self.start_h + t / 3600.0)
                    * self.scenario.rate_multiplier_at(t)
                    * self.scenario.survival_at(t);
                let p = (lambda / self.rate_max_hz).min(1.0);
                if self.arrival_rng.gen::<f64>() < p {
                    accepted.push((t, self.bkg_index));
                    self.bkg_index += 1;
                }
                self.next_candidate_s =
                    t + exponential(&mut self.arrival_rng, 1.0 / self.rate_max_hz);
            }
            self.stats.n_background_incident += accepted.len() as u64;
            let sim = &self.sim;
            let stream = self.bkg_stream;
            self.block = accepted
                .par_iter()
                .filter_map(|&(t, i)| {
                    sim.background_event(stream, i).map(|mut e| {
                        e.arrival_time = t;
                        StreamedEvent { t_s: t, event: e }
                    })
                })
                .collect();
            self.block_pos = 0;
            self.block_end_s = t1;
        }

        fn pop_raw(&mut self) -> Option<StreamedEvent> {
            self.peek_time()?;
            let tb = self.burst_events.get(self.next_burst).map(|e| e.t_s);
            let tg = self.block.get(self.block_pos).map(|e| e.t_s);
            let take_burst = match (tg, tb) {
                (Some(g), Some(b)) => b <= g,
                (None, Some(_)) => true,
                _ => false,
            };
            Some(if take_burst {
                let ev = self.burst_events[self.next_burst].clone();
                self.next_burst += 1;
                ev
            } else {
                let ev = self.block[self.block_pos].clone();
                self.block_pos += 1;
                ev
            })
        }

        fn admit(&mut self, t_s: f64) -> bool {
            if let Some(tau) = self.dead_tau_s {
                if t_s - self.last_emitted_s < tau {
                    self.stats.n_dead_time_dropped += 1;
                    return false;
                }
            }
            self.last_emitted_s = t_s;
            self.stats.n_measured += 1;
            true
        }

        fn peek_time(&mut self) -> Option<f64> {
            loop {
                let tb = self.burst_events.get(self.next_burst).map(|e| e.t_s);
                let tg = self.block.get(self.block_pos).map(|e| e.t_s);
                match (tg, tb) {
                    (Some(g), Some(b)) => return Some(g.min(b)),
                    (Some(g), None) => return Some(g),
                    (None, Some(b))
                        if b <= self.block_end_s || self.block_end_s >= self.duration_s =>
                    {
                        return Some(b)
                    }
                    (None, _) => {
                        if self.block_end_s >= self.duration_s {
                            return None;
                        }
                        self.generate_block();
                    }
                }
            }
        }
    }

    impl Iterator for ReferenceSource {
        type Item = StreamedEvent;

        fn next(&mut self) -> Option<StreamedEvent> {
            loop {
                let ev = self.pop_raw()?;
                if self.admit(ev.t_s) {
                    return Some(ev);
                }
            }
        }
    }

    fn assert_vec3_bits(a: Vec3, b: Vec3, what: &str) {
        assert_eq!(
            [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
            [b.x.to_bits(), b.y.to_bits(), b.z.to_bits()],
            "{what}"
        );
    }

    /// Assert that two streamed events agree field for field, floats bit
    /// for bit.
    fn assert_same_event(a: &StreamedEvent, b: &StreamedEvent) {
        assert_eq!(a.t_s.to_bits(), b.t_s.to_bits(), "t_s");
        let (x, y) = (&a.event, &b.event);
        assert_eq!(
            x.arrival_time.to_bits(),
            y.arrival_time.to_bits(),
            "arrival_time"
        );
        assert_eq!(
            x.hits.len(),
            y.hits.len(),
            "measured hit count at t={}",
            a.t_s
        );
        for (h, g) in x.hits.iter().zip(&y.hits) {
            assert_vec3_bits(h.position, g.position, "measured position");
            assert_vec3_bits(h.sigma_position, g.sigma_position, "sigma_position");
            assert_eq!(h.energy.to_bits(), g.energy.to_bits(), "measured energy");
            assert_eq!(
                h.sigma_energy.to_bits(),
                g.sigma_energy.to_bits(),
                "sigma_energy"
            );
            assert_eq!(h.layer, g.layer, "measured layer");
        }
        let (s, r) = (&x.truth, &y.truth);
        assert_eq!(s.origin, r.origin, "origin");
        assert_vec3_bits(s.source_dir.as_vec(), r.source_dir.as_vec(), "source_dir");
        assert_eq!(
            s.incident_energy.to_bits(),
            r.incident_energy.to_bits(),
            "incident_energy"
        );
        assert_eq!(
            s.true_eta.map(f64::to_bits),
            r.true_eta.map(f64::to_bits),
            "true_eta"
        );
        assert_eq!(s.hits.len(), r.hits.len(), "true hit count at t={}", a.t_s);
        for (h, g) in s.hits.iter().zip(&r.hits) {
            assert_vec3_bits(h.position, g.position, "true position");
            assert_eq!(h.energy.to_bits(), g.energy.to_bits(), "true energy");
            assert_eq!(h.layer, g.layer, "true layer");
            assert_eq!(h.kind, g.kind, "interaction kind");
        }
    }

    fn assert_same_stream(a: &[StreamedEvent], b: &[StreamedEvent]) {
        assert_eq!(a.len(), b.len(), "event count");
        for (x, y) in a.iter().zip(b) {
            assert_same_event(x, y);
        }
    }

    fn assert_same_stats(a: StreamStats, b: StreamStats) {
        assert_eq!(a.n_background_incident, b.n_background_incident);
        assert_eq!(a.n_grb_incident, b.n_grb_incident);
        assert_eq!(a.n_measured, b.n_measured);
        assert_eq!(a.n_outage_dropped, b.n_outage_dropped);
        assert_eq!(a.n_dead_time_dropped, b.n_dead_time_dropped);
    }

    #[test]
    fn flat_store_yields_the_reference_stream() {
        // two overlapping bursts, background over three BLOCK_S blocks, a
        // dropout thinning the second burst and dead time on the merge
        let cfg = quick_config(10.0)
            .with_burst(4.6, GrbConfig::new(1.0, 10.0))
            .with_burst(5.1, GrbConfig::new(0.8, 40.0))
            .with_scenario(
                Scenario::quiet()
                    .with(ScenarioComponent::DetectorDropout {
                        t_start_s: 5.3,
                        t_end_s: 5.8,
                        drop_fraction: 0.5,
                    })
                    .with(ScenarioComponent::DeadTime { tau_s: 1e-4 }),
            );
        let mut reference = ReferenceSource::new(cfg.clone(), 23);
        let mut source = StreamingSource::new(cfg, 23);
        let want: Vec<StreamedEvent> = reference.by_ref().collect();
        let got: Vec<StreamedEvent> = source.by_ref().collect();
        assert_same_stream(&got, &want);
        let (stats, reference_stats) = (source.stats(), reference.stats);
        assert!(stats.n_outage_dropped > 0 && stats.n_dead_time_dropped > 0);
        assert!(stats.n_grb_incident > 0 && want.last().unwrap().t_s > 2.0 * BLOCK_S);
        assert_same_stats(stats, reference_stats);
    }

    #[test]
    fn stream_is_time_ordered_and_deterministic() {
        let cfg = quick_config(6.0).with_burst(2.0, GrbConfig::new(1.0, 0.0));
        let a: Vec<StreamedEvent> = StreamingSource::new(cfg.clone(), 42).collect();
        let b: Vec<StreamedEvent> = StreamingSource::new(cfg, 42).collect();
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.t_s, y.t_s);
            assert_eq!(x.event.hits.len(), y.event.hits.len());
        }
        for w in a.windows(2) {
            assert!(
                w[0].t_s <= w[1].t_s,
                "out of order: {} > {}",
                w[0].t_s,
                w[1].t_s
            );
        }
        for ev in &a {
            assert!((0.0..6.0).contains(&ev.t_s));
            assert_eq!(ev.t_s, ev.event.arrival_time);
        }
    }

    #[test]
    fn burst_events_cluster_at_the_onset() {
        let cfg = quick_config(8.0).with_burst(5.0, GrbConfig::new(2.0, 10.0));
        let events: Vec<StreamedEvent> = StreamingSource::new(cfg, 7).collect();
        let grb: Vec<f64> = events
            .iter()
            .filter(|e| e.event.truth.origin == ParticleOrigin::Grb)
            .map(|e| e.t_s)
            .collect();
        assert!(
            grb.len() > 20,
            "streamed burst produced {} events",
            grb.len()
        );
        // GRB window is 1 s starting at the onset
        assert!(grb.iter().all(|&t| (5.0..6.0).contains(&t)));
    }

    #[test]
    fn rate_follows_the_flight_profile() {
        // ascent start (low multiplier ~0.35 of nominal) vs Pfotzer
        // crossing: the Pfotzer stream must be denser
        let mut low = quick_config(30.0);
        low.start_h = 0.0; // sea level: residual floor
        let mut peak = quick_config(30.0);
        peak.start_h = 1.3; // ~16.5 km: Pfotzer maximum
        let n_low = StreamingSource::new(low, 3).count();
        let n_peak = StreamingSource::new(peak, 3).count();
        assert!(
            n_peak as f64 > 1.5 * n_low.max(1) as f64,
            "low {n_low}, peak {n_peak}"
        );
    }

    fn hostile(duration_s: f64) -> StreamConfig {
        quick_config(duration_s).with_scenario(
            Scenario::quiet()
                .with(ScenarioComponent::SolarFlareRamp {
                    t_start_s: 1.0,
                    rise_s: 2.0,
                    hold_s: 1.0,
                    fall_s: 2.0,
                    peak_multiplier: 3.0,
                })
                .with(ScenarioComponent::SgrFlareTrain {
                    t_start_s: 2.0,
                    period_s: 1.5,
                    flares: 2,
                    fluence: 0.8,
                    polar_deg: 25.0,
                })
                .with(ScenarioComponent::DetectorDropout {
                    t_start_s: 4.0,
                    t_end_s: 5.0,
                    drop_fraction: 0.5,
                })
                .with(ScenarioComponent::DeadTime { tau_s: 1e-4 }),
        )
    }

    #[test]
    fn scenario_stream_is_deterministic() {
        let cfg = hostile(6.0);
        let a: Vec<StreamedEvent> = StreamingSource::new(cfg.clone(), 42).collect();
        let b: Vec<StreamedEvent> = StreamingSource::new(cfg, 42).collect();
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.t_s, y.t_s);
            assert_eq!(x.event.hits.len(), y.event.hits.len());
        }
        for w in a.windows(2) {
            assert!(w[0].t_s <= w[1].t_s);
        }
    }

    #[test]
    fn saa_step_raises_the_background_rate() {
        let mut quiet = quick_config(20.0);
        quiet.background.particle_fluence = 6.0;
        let stepped =
            quiet
                .clone()
                .with_scenario(Scenario::quiet().with(ScenarioComponent::SaaStep {
                    t_start_s: 0.0,
                    t_end_s: 20.0,
                    multiplier: 4.0,
                }));
        let n_quiet = StreamingSource::new(quiet, 9).count();
        let n_step = StreamingSource::new(stepped, 9).count();
        assert!(
            n_step as f64 > 2.5 * n_quiet.max(1) as f64,
            "quiet {n_quiet}, stepped {n_step}"
        );
    }

    #[test]
    fn occultation_dip_suppresses_events_inside_the_window() {
        let mut cfg = quick_config(12.0);
        cfg.background.particle_fluence = 8.0;
        let cfg = cfg.with_scenario(Scenario::quiet().with(ScenarioComponent::OccultationDip {
            t_start_s: 4.0,
            t_end_s: 8.0,
            floor: 0.05,
        }));
        let events: Vec<StreamedEvent> = StreamingSource::new(cfg, 5).collect();
        let inside = events
            .iter()
            .filter(|e| (4.0..8.0).contains(&e.t_s))
            .count();
        let outside = events.len() - inside;
        assert!(
            (inside as f64) < 0.25 * outside as f64,
            "inside {inside}, outside {outside}"
        );
    }

    #[test]
    fn dead_time_enforces_minimum_separation() {
        let tau = 0.01;
        let mut cfg = quick_config(10.0);
        cfg.background.particle_fluence = 10.0;
        let cfg =
            cfg.with_scenario(Scenario::quiet().with(ScenarioComponent::DeadTime { tau_s: tau }));
        let mut src = StreamingSource::new(cfg, 21);
        let events: Vec<StreamedEvent> = src.by_ref().collect();
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(
                w[1].t_s - w[0].t_s >= tau,
                "dead-time violated: {} then {}",
                w[0].t_s,
                w[1].t_s
            );
        }
        assert!(src.stats().n_dead_time_dropped > 0);
    }

    #[test]
    fn scenario_skip_until_resumes_the_same_tail() {
        let cfg = hostile(6.0);
        let full: Vec<StreamedEvent> = StreamingSource::new(cfg.clone(), 11).collect();
        let cut = 3.7;
        let mut resumed = StreamingSource::new(cfg, 11);
        resumed.skip_until(cut);
        let tail: Vec<StreamedEvent> = resumed.collect();
        let expected: Vec<StreamedEvent> = full.into_iter().filter(|e| e.t_s > cut).collect();
        assert_same_stream(&tail, &expected);
    }

    #[test]
    fn skip_until_resumes_the_same_tail() {
        let cfg = quick_config(6.0).with_burst(3.0, GrbConfig::new(1.0, 0.0));
        let full: Vec<StreamedEvent> = StreamingSource::new(cfg.clone(), 11).collect();
        let cut = 3.2;
        let mut resumed = StreamingSource::new(cfg, 11);
        resumed.skip_until(cut);
        let tail: Vec<StreamedEvent> = resumed.collect();
        let expected: Vec<StreamedEvent> = full.into_iter().filter(|e| e.t_s > cut).collect();
        assert_same_stream(&tail, &expected);
    }
}
