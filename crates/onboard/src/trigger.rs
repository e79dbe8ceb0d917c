//! Online sliding-window rate trigger — the system's one burst trigger.
//!
//! In flight the decision must be made event by event. This trigger
//! keeps a rolling background-rate estimate over a trailing calibration
//! window, evaluates a multi-width significance test at every arrival
//! (Gaussian approximation `(n − λ)/√λ`, plus a minimum-count guard so
//! tiny expected counts cannot manufacture significance), and on firing
//! opens a *localization epoch*: the events from `pre_window_s` before
//! the trigger through `post_window_s` after it, handed to the localizer
//! as one batch.
//!
//! Batch studies judge a simulated burst window with the same trigger:
//! [`TriggerReplay`] calibrates it on a quiet lead and replays the window
//! after it.
//!
//! Every arrival counts toward the rates, but only events reconstruction
//! can sequence ([`can_sequence`]: two hits up to the sequencer's limit)
//! are buffered for an epoch. The rest can never form a ring, and in a
//! flight background they are nine in ten arrivals.
//!
//! While an epoch is open (and through a refractory period after it) the
//! trigger is suppressed, and rate calibration restarts afterwards so
//! burst events never contaminate the background estimate. The whole
//! trigger state serializes, which is what makes mid-burst
//! checkpoint/restore possible.

use adapt_recon::can_sequence;
use adapt_sim::{Event, StreamedEvent};
use adapt_telemetry::{TriggerDecisionRecord, WindowDecision};
use serde::{Deserialize, Serialize};

/// Tuning of the online trigger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineTriggerConfig {
    /// Sliding-window widths evaluated at each arrival (s).
    pub window_widths_s: Vec<f64>,
    /// Significance threshold (Gaussian sigmas). The test runs at every
    /// arrival for hours, so the look-elsewhere budget is large.
    pub threshold_sigma: f64,
    /// Minimum counts in the winning window — the Gaussian approximation
    /// is anticonservative at tiny expected counts.
    pub min_counts: usize,
    /// Trailing horizon of the background-rate estimate (s).
    pub calibration_window_s: f64,
    /// Quiet time required before the trigger arms (s).
    pub min_calibration_s: f64,
    /// Epoch context collected before the trigger time (s).
    pub pre_window_s: f64,
    /// Epoch collection after the trigger time (s).
    pub post_window_s: f64,
    /// Suppression after an epoch closes (s); calibration restarts when
    /// it expires.
    pub refractory_s: f64,
}

impl Default for OnlineTriggerConfig {
    fn default() -> Self {
        OnlineTriggerConfig {
            window_widths_s: vec![0.064, 0.256, 1.024],
            threshold_sigma: 7.0,
            min_counts: 8,
            calibration_window_s: 30.0,
            min_calibration_s: 2.0,
            pre_window_s: 1.0,
            post_window_s: 1.5,
            refractory_s: 10.0,
        }
    }
}

/// An open (or just-completed) localization epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenEpoch {
    /// Stream time the trigger fired (s).
    pub t_trigger_s: f64,
    /// Significance of the winning window (sigmas).
    pub significance_sigma: f64,
    /// Width of the winning window (s).
    pub width_s: f64,
    /// The epoch keeps collecting events until this stream time.
    pub collect_until_s: f64,
    /// Collected events that reconstruction can sequence, in arrival
    /// order (arrival times are absolute stream seconds). Events with one
    /// hit, or more than reconstruction sequences, never enter an epoch:
    /// they cannot form a ring, so the epoch's rings are the same as those
    /// of every arrival in its window.
    pub events: Vec<Event>,
}

/// The serializable trigger state machine. Feed it every measured event
/// in time order via [`observe`](OnlineTrigger::observe); it returns a
/// completed epoch when one closes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineTrigger {
    config: OnlineTriggerConfig,
    /// Arrival times inside the calibration horizon (sorted; `times_head`
    /// marks the logical front — a serde-friendly ring buffer).
    times: Vec<f64>,
    times_head: usize,
    /// Recent sequenceable events inside the pre-window horizon (epoch
    /// seeding). Arrivals that no later fire's pre-window can reach are not
    /// kept.
    recent: Vec<StreamedEvent>,
    recent_head: usize,
    /// Rate calibration restarts at this stream time.
    cal_start_s: f64,
    /// Triggering is suppressed before this stream time.
    frozen_until_s: f64,
    /// The currently collecting epoch, if any.
    epoch: Option<OpenEpoch>,
    /// Events observed in total.
    events_seen: u64,
    /// Last observed arrival time.
    last_t_s: f64,
}

impl OnlineTrigger {
    /// A fresh trigger at stream time zero.
    pub fn new(config: OnlineTriggerConfig) -> Self {
        OnlineTrigger {
            config,
            times: Vec::new(),
            times_head: 0,
            recent: Vec::new(),
            recent_head: 0,
            cal_start_s: 0.0,
            frozen_until_s: 0.0,
            epoch: None,
            events_seen: 0,
            last_t_s: 0.0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &OnlineTriggerConfig {
        &self.config
    }

    /// Whether an epoch is currently collecting.
    pub fn has_open_epoch(&self) -> bool {
        self.epoch.is_some()
    }

    /// The epoch currently collecting, if any.
    pub fn open_epoch(&self) -> Option<&OpenEpoch> {
        self.epoch.as_ref()
    }

    /// Events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Last observed arrival time (s).
    pub fn last_t_s(&self) -> f64 {
        self.last_t_s
    }

    /// The current background-rate estimate (Hz), if calibrated.
    pub fn background_rate_hz(&self) -> Option<f64> {
        let elapsed = self.last_t_s - self.cal_start_s;
        if elapsed < self.config.min_calibration_s {
            return None;
        }
        Some(self.rate_at(self.last_t_s, elapsed))
    }

    fn live_times(&self) -> &[f64] {
        &self.times[self.times_head..]
    }

    fn rate_at(&self, t: f64, elapsed: f64) -> f64 {
        let horizon = self.config.calibration_window_s.min(elapsed);
        let slice = self.live_times();
        let from = t - horizon;
        let start = slice.partition_point(|&x| x <= from);
        (slice.len() - start) as f64 / horizon.max(1e-9)
    }

    fn purge(&mut self, t: f64) {
        let time_cutoff = (t - self.config.calibration_window_s).max(self.cal_start_s);
        while self.times_head < self.times.len() && self.times[self.times_head] <= time_cutoff {
            self.times_head += 1;
        }
        if self.times_head > 64 && self.times_head * 2 >= self.times.len() {
            self.times.drain(..self.times_head);
            self.times_head = 0;
        }
        let recent_cutoff = t - self.config.pre_window_s;
        while self.recent_head < self.recent.len()
            && self.recent[self.recent_head].t_s < recent_cutoff
        {
            self.recent_head += 1;
        }
        if self.recent_head > 64 && self.recent_head * 2 >= self.recent.len() {
            self.recent.drain(..self.recent_head);
            self.recent_head = 0;
        }
    }

    /// Feed one measured event (events must arrive in time order).
    /// Returns an epoch when this arrival closed it.
    pub fn observe(&mut self, se: &StreamedEvent) -> Option<OpenEpoch> {
        self.observe_explained(se, false).0
    }

    /// Snapshot the decision state into a forensics record.
    #[allow(clippy::too_many_arguments)]
    fn decision(
        &self,
        t: f64,
        fired: bool,
        near_truth: bool,
        reason: &str,
        elapsed: f64,
        frozen: bool,
        windows: Vec<WindowDecision>,
    ) -> TriggerDecisionRecord {
        TriggerDecisionRecord {
            t_s: t,
            fired,
            near_truth,
            reason: reason.to_string(),
            background_rate_hz: self.rate_at(t, elapsed),
            calibration_elapsed_s: elapsed,
            threshold_sigma: self.config.threshold_sigma,
            frozen,
            windows,
        }
    }

    /// [`observe`](OnlineTrigger::observe), plus per-decision forensics.
    ///
    /// When `near_truth` is set (the caller knows a ground-truth onset is
    /// nearby) *every* decision emits a [`TriggerDecisionRecord`] — fire
    /// or no-fire, with the reason the trigger stayed quiet (`epoch-open`,
    /// `refractory`, `calibrating`, `below-threshold`) and the per-width
    /// window evidence. A fire always emits a record, so false alerts far
    /// from any truth onset can be reconstructed too.
    pub fn observe_explained(
        &mut self,
        se: &StreamedEvent,
        near_truth: bool,
    ) -> (Option<OpenEpoch>, Option<TriggerDecisionRecord>) {
        let t = se.t_s;
        self.events_seen += 1;
        self.last_t_s = t;

        // close a finished epoch before anything else
        let mut completed = None;
        if let Some(ep) = &self.epoch {
            if t > ep.collect_until_s {
                completed = self.epoch.take();
            }
        }

        // restart calibration once the refractory window has passed, so
        // epoch events never contaminate the background estimate
        if self.epoch.is_none()
            && t >= self.frozen_until_s
            && self.cal_start_s < self.frozen_until_s
        {
            self.cal_start_s = self.frozen_until_s;
        }

        let sequenceable = can_sequence(se.event.hits.len());
        self.times.push(t);
        // the next fire comes at or after `frozen_until_s`, so its
        // pre-window never reaches back before `frozen_until_s − pre`
        if sequenceable && t >= self.frozen_until_s - self.config.pre_window_s {
            self.recent.push(se.clone());
        }
        self.purge(t);

        let frozen = t < self.frozen_until_s;
        let elapsed = (t - self.cal_start_s).max(0.0);

        if let Some(ep) = &mut self.epoch {
            if sequenceable && t <= ep.collect_until_s {
                ep.events.push(se.event.clone());
            }
            let rec = near_truth
                .then(|| self.decision(t, false, true, "epoch-open", elapsed, frozen, Vec::new()));
            return (completed, rec);
        }

        if frozen {
            let rec = near_truth
                .then(|| self.decision(t, false, true, "refractory", elapsed, true, Vec::new()));
            return (completed, rec);
        }

        if elapsed < self.config.min_calibration_s {
            let rec = near_truth
                .then(|| self.decision(t, false, true, "calibrating", elapsed, false, Vec::new()));
            return (completed, rec);
        }
        let rate = self.rate_at(t, elapsed);

        let mut windows: Vec<WindowDecision> = Vec::new();
        let mut fired = false;
        for &w in &self.config.window_widths_s {
            if w > elapsed {
                continue;
            }
            let slice = self.live_times();
            let from = t - w;
            let n = slice.len() - slice.partition_point(|&x| x <= from);
            if n < self.config.min_counts {
                continue;
            }
            let expected = (rate * w).max(1e-12);
            let significance = (n as f64 - expected) / expected.sqrt();
            let crossed = significance >= self.config.threshold_sigma;
            if near_truth || crossed {
                windows.push(WindowDecision {
                    width_s: w,
                    counts: n as u64,
                    expected,
                    sigma: significance,
                });
            }
            if crossed {
                let events: Vec<Event> = self.recent[self.recent_head..]
                    .iter()
                    .filter(|e| e.t_s >= t - self.config.pre_window_s)
                    .map(|e| e.event.clone())
                    .collect();
                self.epoch = Some(OpenEpoch {
                    t_trigger_s: t,
                    significance_sigma: significance,
                    width_s: w,
                    collect_until_s: t + self.config.post_window_s,
                    events,
                });
                self.frozen_until_s = t + self.config.post_window_s + self.config.refractory_s;
                fired = true;
                break;
            }
        }
        let rec = if fired {
            Some(self.decision(t, true, near_truth, "fired", elapsed, false, windows))
        } else {
            near_truth
                .then(|| self.decision(t, false, true, "below-threshold", elapsed, false, windows))
        };
        (completed, rec)
    }

    /// Close and return the open epoch at stream end (the post-window may
    /// not have elapsed; whatever was collected is localized).
    pub fn flush(&mut self) -> Option<OpenEpoch> {
        self.epoch.take()
    }
}

/// The trigger's verdict on one replayed burst window.
#[derive(Debug, Clone, Copy)]
pub struct ReplayVerdict {
    /// Whether the trigger fired inside the window.
    pub fired: bool,
    /// The crossing window's significance if it fired, else the largest
    /// significance evaluated in the window (0 when none was evaluated).
    pub sigma: f64,
    /// Time of that decision from the window start (s).
    pub t_s: f64,
}

/// Judges batch burst windows (`BurstSimulation` event lists) with the
/// flight trigger. A quiet lead calibrates the trigger once; each judged
/// window then continues from a copy of that state, laid end to end after
/// the lead.
#[derive(Debug)]
pub struct TriggerReplay {
    trigger: OnlineTrigger,
    /// Stream time of the judged window's start (s).
    window_start_s: f64,
}

impl TriggerReplay {
    /// Quiet windows of `window_s` a lead needs to arm the trigger before
    /// the judged window starts: ⌈`min_calibration_s` / `window_s`⌉ + 1.
    pub fn lead_windows(config: &OnlineTriggerConfig, window_s: f64) -> usize {
        (config.min_calibration_s / window_s).ceil() as usize + 1
    }

    /// Calibrate `config`'s trigger on the `lead` windows, each `window_s`
    /// long, in order.
    pub fn new(config: OnlineTriggerConfig, window_s: f64, lead: Vec<Vec<Event>>) -> Self {
        let mut trigger = OnlineTrigger::new(config);
        let window_start_s = lead.len() as f64 * window_s;
        for (i, events) in lead.into_iter().enumerate() {
            for se in stream_window(events, i as f64 * window_s) {
                trigger.observe(&se);
            }
        }
        TriggerReplay {
            trigger,
            window_start_s,
        }
    }

    /// The background-rate estimate the lead left (Hz), if calibrated.
    pub fn background_rate_hz(&self) -> Option<f64> {
        self.trigger.background_rate_hz()
    }

    /// Replay `window` after the lead.
    pub fn judge(&self, window: Vec<Event>) -> ReplayVerdict {
        let mut best: Option<(f64, f64)> = None;
        for rec in self.decisions(window) {
            if rec.fired {
                let crossing = rec
                    .windows
                    .iter()
                    .find(|w| w.sigma >= rec.threshold_sigma)
                    .expect("a fired record carries its crossing window");
                return ReplayVerdict {
                    fired: true,
                    sigma: crossing.sigma,
                    t_s: rec.t_s - self.window_start_s,
                };
            }
            for w in &rec.windows {
                if best.is_none_or(|(sigma, _)| w.sigma > sigma) {
                    best = Some((w.sigma, rec.t_s));
                }
            }
        }
        let (sigma, t) = best.unwrap_or((0.0, self.window_start_s));
        ReplayVerdict {
            fired: false,
            sigma,
            t_s: t - self.window_start_s,
        }
    }

    /// Every decision record of `window`'s replay, in arrival order.
    fn decisions(&self, window: Vec<Event>) -> impl Iterator<Item = TriggerDecisionRecord> {
        let mut trigger = self.trigger.clone();
        stream_window(window, self.window_start_s)
            .filter_map(move |se| trigger.observe_explained(&se, true).1)
    }
}

/// `events` stably ordered by arrival time and shifted to start at
/// `offset_s` of the replay stream.
fn stream_window(mut events: Vec<Event>, offset_s: f64) -> impl Iterator<Item = StreamedEvent> {
    events.sort_by(|a, b| a.arrival_time.total_cmp(&b.arrival_time));
    events.into_iter().map(move |mut event| {
        event.arrival_time += offset_s;
        StreamedEvent {
            t_s: event.arrival_time,
            event,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_math::vec3::Vec3;
    use adapt_sim::{Event, MeasuredHit, ParticleOrigin, TrueEvent};

    fn dummy_event(t: f64) -> StreamedEvent {
        let hit = MeasuredHit {
            position: Vec3::new(0.0, 0.0, 6.0),
            energy: 0.2,
            sigma_position: Vec3::new(0.1, 0.1, 0.75),
            sigma_energy: 0.02,
            layer: 0,
        };
        StreamedEvent {
            t_s: t,
            event: Event {
                hits: vec![hit, hit],
                arrival_time: t,
                truth: TrueEvent {
                    origin: ParticleOrigin::Background,
                    source_dir: adapt_math::vec3::UnitVec3::from_spherical(0.0, 0.0),
                    incident_energy: 0.4,
                    hits: vec![],
                    true_eta: None,
                },
            },
        }
    }

    fn feed_uniform(trig: &mut OnlineTrigger, t0: f64, t1: f64, rate_hz: f64) -> usize {
        let dt = 1.0 / rate_hz;
        let mut fired = 0;
        let mut t = t0;
        while t < t1 {
            if trig.observe(&dummy_event(t)).is_some() {
                fired += 1;
            }
            t += dt;
        }
        fired
    }

    #[test]
    fn steady_background_never_triggers() {
        let mut trig = OnlineTrigger::new(OnlineTriggerConfig::default());
        let closed = feed_uniform(&mut trig, 0.0, 120.0, 50.0);
        assert_eq!(closed, 0);
        assert!(!trig.has_open_epoch());
        let rate = trig.background_rate_hz().unwrap();
        assert!((rate - 50.0).abs() < 5.0, "rate estimate {rate}");
    }

    #[test]
    fn burst_opens_one_epoch_with_pre_window_context() {
        let cfg = OnlineTriggerConfig::default();
        let pre = cfg.pre_window_s;
        let mut trig = OnlineTrigger::new(cfg);
        feed_uniform(&mut trig, 0.0, 30.0, 40.0);
        // burst: 300 events in 0.25 s on top of the background
        let mut closed = None;
        for i in 0..300 {
            let t = 30.0 + 0.25 * i as f64 / 300.0;
            if let Some(ep) = trig.observe(&dummy_event(t)) {
                closed = Some(ep);
            }
        }
        assert!(trig.has_open_epoch(), "epoch must open during the burst");
        assert!(closed.is_none(), "epoch cannot close during the burst");
        // quiet tail closes the epoch; refractory suppresses re-triggering
        let mut epochs = Vec::new();
        let mut t = 30.3;
        while t < 60.0 {
            if let Some(ep) = trig.observe(&dummy_event(t)) {
                epochs.push(ep);
            }
            t += 1.0 / 40.0;
        }
        assert_eq!(epochs.len(), 1, "exactly one epoch for one burst");
        let ep = &epochs[0];
        assert!(ep.t_trigger_s >= 30.0 && ep.t_trigger_s < 30.3);
        assert!(ep.significance_sigma >= 7.0);
        // pre-window context made it into the epoch
        assert!(ep
            .events
            .iter()
            .any(|e| e.arrival_time < ep.t_trigger_s && e.arrival_time >= ep.t_trigger_s - pre));
        // post-window collection
        assert!(ep
            .events
            .iter()
            .any(|e| e.arrival_time > ep.t_trigger_s + 1.0));
    }

    #[test]
    fn trigger_state_serializes_round_trip() {
        let mut trig = OnlineTrigger::new(OnlineTriggerConfig::default());
        feed_uniform(&mut trig, 0.0, 10.0, 30.0);
        for i in 0..200 {
            trig.observe(&dummy_event(10.0 + i as f64 * 0.001));
        }
        assert!(trig.has_open_epoch());
        let json = serde_json::to_string(&trig).unwrap();
        let mut restored: OnlineTrigger = serde_json::from_str(&json).unwrap();
        assert!(restored.has_open_epoch());
        assert_eq!(restored.events_seen(), trig.events_seen());
        // both copies evolve identically
        let a = feed_uniform(&mut trig, 10.3, 14.0, 30.0);
        let b = feed_uniform(&mut restored, 10.3, 14.0, 30.0);
        assert_eq!(a, b);
        assert_eq!(a, 1, "the open epoch closes after the burst");
    }

    #[test]
    fn observe_explained_reports_every_trigger_state() {
        let mut trig = OnlineTrigger::new(OnlineTriggerConfig::default());
        // calibrating: not enough quiet time yet
        let (_, rec) = trig.observe_explained(&dummy_event(0.5), true);
        let rec = rec.expect("near-truth decisions always record");
        assert!(!rec.fired);
        assert_eq!(rec.reason, "calibrating");
        // quiet background: below-threshold with window evidence
        feed_uniform(&mut trig, 1.0, 30.0, 40.0);
        let (_, rec) = trig.observe_explained(&dummy_event(30.01), true);
        let rec = rec.unwrap();
        assert_eq!(rec.reason, "below-threshold");
        assert!(
            !rec.windows.is_empty(),
            "calibrated decision carries windows"
        );
        assert!(rec.windows.iter().all(|w| w.sigma < rec.threshold_sigma));
        assert!((rec.background_rate_hz - 40.0).abs() < 5.0);
        // burst: the firing decision records even far from truth
        let mut fired = None;
        for i in 0..300 {
            let t = 30.02 + 0.25 * i as f64 / 300.0;
            let (_, rec) = trig.observe_explained(&dummy_event(t), false);
            if let Some(r) = rec {
                fired = Some(r);
                break;
            }
        }
        let fired = fired.expect("burst must fire and record");
        assert!(fired.fired && fired.reason == "fired");
        assert!(!fired.near_truth);
        let crossing = fired
            .windows
            .iter()
            .find(|w| w.sigma >= fired.threshold_sigma)
            .expect("fired record carries the crossing window");
        assert!(crossing.counts as usize >= 8);
        // epoch open while collecting
        let (_, rec) = trig.observe_explained(&dummy_event(30.4), true);
        assert_eq!(rec.unwrap().reason, "epoch-open");
        // refractory after the epoch closes
        let (_, rec) = trig.observe_explained(&dummy_event(35.0), true);
        let rec = rec.unwrap();
        assert_eq!(rec.reason, "refractory");
        assert!(rec.frozen);
        // quiet observation without truth context records nothing
        let (_, rec) = trig.observe_explained(&dummy_event(35.1), false);
        assert!(rec.is_none());
    }

    /// Every float of a ring as bits: axis, η, dη and the features.
    fn ring_bits(r: &adapt_recon::ComptonRing) -> Vec<u64> {
        let axis = r.axis.as_vec();
        let mut floats = vec![axis.x, axis.y, axis.z, r.eta, r.d_eta];
        floats.extend(r.features.to_static_array());
        floats.into_iter().map(f64::to_bits).collect()
    }

    /// Run `cfg`'s trigger over a flight stream at float altitude with a
    /// bright burst at each onset, and check every epoch holds exactly the
    /// sequenceable arrivals of its window, with the rings of all of them.
    fn epochs_of_flight_stream(cfg: OnlineTriggerConfig, onsets_s: &[f64]) -> Vec<OpenEpoch> {
        use adapt_recon::Reconstructor;
        use adapt_sim::{FlightProfile, GrbConfig, StreamConfig, StreamingSource};
        let duration_s = onsets_s.last().unwrap() + 4.0;
        let mut config = StreamConfig::new(FlightProfile::checkout_2h(), duration_s);
        for &t in onsets_s {
            config = config.with_burst(t, GrbConfig::new(1.0, 0.0));
        }
        config.start_h = 1.9;
        config.background.particle_fluence = crate::FLIGHT_NOMINAL_FLUENCE;
        let arrivals: Vec<StreamedEvent> = StreamingSource::new(config, 0xE90C).collect();

        let pre = cfg.pre_window_s;
        let mut trig = OnlineTrigger::new(cfg);
        let mut epochs: Vec<OpenEpoch> =
            arrivals.iter().filter_map(|se| trig.observe(se)).collect();
        epochs.extend(trig.flush());
        assert_eq!(epochs.len(), onsets_s.len(), "one epoch per burst");

        for ep in &epochs {
            let window: Vec<Event> = arrivals
                .iter()
                .filter(|se| se.t_s >= ep.t_trigger_s - pre && se.t_s <= ep.collect_until_s)
                .map(|se| se.event.clone())
                .collect();
            let sequenceable: Vec<&Event> = window
                .iter()
                .filter(|e| can_sequence(e.hits.len()))
                .collect();
            assert!(
                sequenceable.len() * 2 < window.len(),
                "flight background is mostly single-site: {} of {}",
                sequenceable.len(),
                window.len()
            );
            let json = |e: &Event| serde_json::to_string(e).unwrap();
            assert_eq!(ep.events.len(), sequenceable.len());
            for (i, (got, want)) in ep.events.iter().zip(&sequenceable).enumerate() {
                assert_eq!(json(got), json(want), "epoch event {i}");
            }

            // the unbuffered events never formed a ring: same rings, same order
            let recon = Reconstructor::default();
            let noop = adapt_telemetry::noop();
            let (rings, counts) = recon.reconstruct_all_counted(&ep.events, noop);
            let (want, want_counts) = recon.reconstruct_all_counted(&window, noop);
            assert!(!rings.is_empty());
            assert_eq!(counts.reconstructed, want_counts.reconstructed);
            assert_eq!(rings.len(), want.len());
            for (i, (got, want)) in rings.iter().zip(&want).enumerate() {
                assert_eq!(ring_bits(got), ring_bits(want), "ring {i}");
            }
        }
        epochs
    }

    #[test]
    fn epoch_holds_the_sequenceable_arrivals_of_its_window() {
        epochs_of_flight_stream(OnlineTriggerConfig::default(), &[4.0]);

        // a refractory shorter than the pre-window: the second burst's
        // pre-window reaches back through the first epoch's refractory
        // into the epoch itself, so arrivals there must still be buffered
        let cfg = OnlineTriggerConfig {
            pre_window_s: 3.0,
            refractory_s: 0.5,
            min_calibration_s: 0.5,
            ..OnlineTriggerConfig::default()
        };
        let (pre, post, refractory) = (cfg.pre_window_s, cfg.post_window_s, cfg.refractory_s);
        let epochs = epochs_of_flight_stream(cfg, &[3.0, 5.8]);
        let frozen_until = epochs[0].t_trigger_s + post + refractory;
        assert!(epochs[1].t_trigger_s - pre < epochs[0].t_trigger_s);
        let reached_back = epochs[1]
            .events
            .iter()
            .filter(|e| e.arrival_time < frozen_until)
            .count();
        assert!(
            reached_back > 100,
            "{reached_back} events before {frozen_until} s"
        );
    }

    #[test]
    fn min_counts_guard_blocks_low_rate_false_alarms() {
        // at 2 Hz a single pair of close arrivals would be "5 sigma" under
        // the Gaussian approximation; the count guard must hold it back
        let mut trig = OnlineTrigger::new(OnlineTriggerConfig::default());
        feed_uniform(&mut trig, 0.0, 60.0, 2.0);
        // two extra events close together
        trig.observe(&dummy_event(60.001));
        trig.observe(&dummy_event(60.002));
        assert!(!trig.has_open_epoch(), "min_counts must gate the trigger");
    }

    /// The flight trigger calibrated on quiet windows from `seed` on.
    fn quiet_lead(seed: u64) -> TriggerReplay {
        use adapt_sim::{BurstSimulation, GrbConfig};
        let quiet = BurstSimulation::with_defaults(GrbConfig::new(1e-6, 0.0));
        let cfg = OnlineTriggerConfig::default();
        let lead = (0..TriggerReplay::lead_windows(&cfg, quiet.duration_s()))
            .map(|i| quiet.simulate(seed + i as u64).events)
            .collect();
        TriggerReplay::new(cfg, quiet.duration_s(), lead)
    }

    fn burst_window(fluence: f64, seed: u64) -> Vec<Event> {
        use adapt_sim::{BurstSimulation, GrbConfig};
        BurstSimulation::with_defaults(GrbConfig::new(fluence, 0.0))
            .simulate(seed)
            .events
    }

    #[test]
    fn bright_burst_triggers() {
        let verdict = quiet_lead(1).judge(burst_window(1.0, 2));
        assert!(
            verdict.fired,
            "1 MeV/cm^2 burst must trigger (sigma {:.1})",
            verdict.sigma
        );
        assert!(verdict.sigma >= OnlineTriggerConfig::default().threshold_sigma);
        // the FRED pulse starts at 0.1 s: the trigger fires near the pulse
        assert!(
            (0.0..0.6).contains(&verdict.t_s),
            "trigger at {} s",
            verdict.t_s
        );
    }

    #[test]
    fn background_only_does_not_trigger() {
        let replay = quiet_lead(3);
        let false_alarms = (10..20)
            .filter(|&seed| replay.judge(burst_window(1e-6, seed)).fired)
            .count();
        assert!(false_alarms <= 1, "{false_alarms}/10 false alarms");
    }

    #[test]
    fn detection_efficiency_grows_with_fluence() {
        let replay = quiet_lead(4);
        let efficiency = |fluence: f64| {
            let hits = (0..8)
                .filter(|seed| replay.judge(burst_window(fluence, 100 + seed)).fired)
                .count();
            hits as f64 / 8.0
        };
        let dim = efficiency(0.02);
        let bright = efficiency(1.0);
        assert!(bright > dim, "bright {bright} !> dim {dim}");
        assert_eq!(bright, 1.0, "bright bursts always detected");
    }

    #[test]
    fn empty_event_list() {
        let verdict = quiet_lead(5).judge(Vec::new());
        assert!(!verdict.fired);
        assert!(verdict.sigma <= 0.0);
    }

    #[test]
    fn zero_background_rate_is_safe() {
        use adapt_sim::{
            BackgroundConfig, BurstSimulation, DetectorConfig, GrbConfig, PerturbationConfig,
        };
        let sim = |fluence: f64| {
            BurstSimulation::new(
                DetectorConfig::default(),
                GrbConfig::new(fluence, 0.0),
                BackgroundConfig {
                    particle_fluence: 0.0,
                    ..BackgroundConfig::default()
                },
                PerturbationConfig::default(),
            )
        };
        // no background anywhere: the rate estimate is the burst's own
        let cfg = OnlineTriggerConfig::default();
        let lead = (0..TriggerReplay::lead_windows(&cfg, 1.0))
            .map(|i| sim(1e-6).simulate(i as u64).events)
            .collect();
        let replay = TriggerReplay::new(cfg, 1.0, lead);
        let window = sim(0.5).simulate(5).events;
        assert!(!window.is_empty());
        for rec in replay.decisions(window.clone()) {
            for w in &rec.windows {
                assert!(w.sigma.is_finite(), "sigma {} at {} s", w.sigma, rec.t_s);
            }
        }
        assert!(replay.judge(window).sigma.is_finite());
    }
}
