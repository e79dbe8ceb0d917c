//! SLO/health watchdog: turns live registry snapshots into greppable
//! `health:` verdicts.
//!
//! The watchdog is convention-based: it inspects
//! [`crate::live::RegistrySnapshot`] samples by metric-name pattern so
//! it works unchanged for the flight runtime and the ground service —
//! latency histograms (`*latency*`) drive the deadline-budget burn rate,
//! paired `*_depth`/`*_capacity` gauges drive queue-saturation, the
//! pool's `adapt_pool_queue_depth` gauge plus a frozen completion counter
//! drives pool-stall detection (no epoch completed in k×p99), alert
//! counters drive the rolling alert-rate budget, and the drift counters
//! carry the drift verdict. Checks whose inputs are absent simply don't report —
//! a flight capture without a pool never emits a pool verdict.

use crate::live::{MetricKind, RegistrySnapshot};
use serde::Serialize;
use std::time::Instant;

/// The live projection of `queue_depth("pool", ..)`: the pending work.
const POOL_DEPTH_GAUGE: &str = "adapt_pool_queue_depth";

/// Service-level objectives the watchdog enforces.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Per-epoch latency budget (ms); the deadline-burn check compares
    /// every latency histogram's p99 against it.
    pub deadline_ms: f64,
    /// Highest tolerated p99/deadline ratio before `deadline-burn`
    /// breaches (1.0 = p99 may consume the whole budget).
    pub max_deadline_burn: f64,
    /// Highest tolerated depth/capacity fill of any bounded queue.
    pub max_queue_fill: f64,
    /// Pool-stall multiplier `k`: breach when work is pending but no
    /// completion counter has moved for more than `k × p99` wall time.
    pub stall_factor: f64,
    /// Rolling alert budget (alerts per simulated hour); a trigger
    /// running away on background fluctuations trips this long before a
    /// human would notice the false-alert flood.
    pub max_alerts_per_sim_hour: f64,
    /// Sliding window for the alert-rate estimate (simulated seconds).
    pub alert_window_s: f64,
    /// Drift verdict: breach when more than this many features exceed
    /// the PSI flag threshold.
    pub max_drift_features_flagged: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            deadline_ms: 500.0,
            max_deadline_burn: 1.0,
            max_queue_fill: 0.9,
            stall_factor: 10.0,
            max_alerts_per_sim_hour: 30.0,
            alert_window_s: 600.0,
            max_drift_features_flagged: 0,
        }
    }
}

/// One watchdog verdict.
#[derive(Debug, Clone, Serialize)]
pub struct HealthLine {
    /// Check machine name (`deadline-burn`, `queue-saturation`,
    /// `pool-stall`, `alert-rate`, `drift`, or `crashed`).
    pub check: String,
    /// Whether the objective held.
    pub ok: bool,
    /// Human-readable evidence.
    pub detail: String,
}

impl HealthLine {
    /// The greppable one-line rendering (`health: <check> <OK|BREACH> …`).
    pub fn render(&self) -> String {
        format!(
            "health: {} {} {}",
            self.check,
            if self.ok { "OK" } else { "BREACH" },
            self.detail
        )
    }
}

/// Stateful watchdog: call [`Self::evaluate`] on each registry snapshot.
#[derive(Debug)]
pub struct SloWatchdog {
    config: SloConfig,
    /// `(t_s, total alerts)` history inside the sliding window.
    alert_history: Vec<(f64, f64)>,
    /// Completion-counter total at the last evaluation, plus the wall
    /// instant it last *moved* — the stall detector's memory.
    last_completed: f64,
    last_progress: Instant,
}

impl SloWatchdog {
    /// A watchdog enforcing `config`.
    pub fn new(config: SloConfig) -> Self {
        SloWatchdog {
            config,
            alert_history: Vec::new(),
            last_completed: 0.0,
            last_progress: Instant::now(),
        }
    }

    /// The configured objectives.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Evaluate every applicable check against one snapshot.
    pub fn evaluate(&mut self, t_s: f64, snap: &RegistrySnapshot) -> Vec<HealthLine> {
        let mut out = Vec::new();
        let cfg = &self.config;

        // deadline-burn: worst p99/deadline ratio over latency histograms.
        let mut worst: Option<(f64, &str)> = None;
        for s in &snap.samples {
            if let Some(h) = &s.hist {
                if s.name.contains("latency") && h.count > 0 {
                    let burn = h.p99_ms / cfg.deadline_ms.max(1e-9);
                    if worst.map(|(w, _)| burn > w).unwrap_or(true) {
                        worst = Some((burn, &s.name));
                    }
                }
            }
        }
        if let Some((burn, name)) = worst {
            out.push(HealthLine {
                check: "deadline-burn".into(),
                ok: burn <= cfg.max_deadline_burn,
                detail: format!(
                    "{name} p99 {:.1} ms of {:.0} ms budget (burn {:.2}, limit {:.2})",
                    burn * cfg.deadline_ms,
                    cfg.deadline_ms,
                    burn,
                    cfg.max_deadline_burn
                ),
            });
        }

        // queue-saturation: every *_depth gauge paired with *_capacity.
        let mut worst_fill: Option<(f64, String)> = None;
        for s in &snap.samples {
            if s.kind != MetricKind::Gauge || !s.name.ends_with("_depth") {
                continue;
            }
            let cap_name = format!("{}_capacity", s.name.trim_end_matches("_depth"));
            let cap = snap
                .samples
                .iter()
                .find(|c| c.name == cap_name && c.labels == s.labels)
                .map(|c| c.value);
            let Some(cap) = cap.filter(|&c| c > 0.0) else {
                continue;
            };
            let fill = s.value / cap;
            if worst_fill.as_ref().map(|(w, _)| fill > *w).unwrap_or(true) {
                worst_fill = Some((fill, s.series()));
            }
        }
        if let Some((fill, series)) = worst_fill {
            out.push(HealthLine {
                check: "queue-saturation".into(),
                ok: fill <= cfg.max_queue_fill,
                detail: format!(
                    "worst fill {fill:.2} at {series} (limit {:.2})",
                    cfg.max_queue_fill
                ),
            });
        }

        // pool-stall: pending work but no completions for > k×p99 wall.
        let pool = snap
            .samples
            .iter()
            .find(|s| s.kind == MetricKind::Gauge && s.name == POOL_DEPTH_GAUGE);
        let pending = pool.map_or(0.0, |s| s.value);
        let completed = snap.counter_total("adapt_alerts_emitted_total")
            + snap.counter_total("adapt_epochs_localized_total");
        if completed > self.last_completed {
            self.last_completed = completed;
            self.last_progress = Instant::now();
        }
        if pool.is_some() {
            let p99_ms = snap
                .samples
                .iter()
                .filter_map(|s| s.hist.as_ref())
                .filter(|h| h.count > 0)
                .map(|h| h.p99_ms)
                .fold(0.0f64, f64::max)
                .max(50.0); // floor: an idle-start service isn't stalled
            let idle_ms = self.last_progress.elapsed().as_secs_f64() * 1e3;
            let limit_ms = cfg.stall_factor * p99_ms;
            let stalled = pending > 0.0 && idle_ms > limit_ms;
            out.push(HealthLine {
                check: "pool-stall".into(),
                ok: !stalled,
                detail: format!(
                    "{pending:.0} pending, {idle_ms:.0} ms since last completion (limit {limit_ms:.0} ms = {}×p99)",
                    cfg.stall_factor
                ),
            });
        }

        // alert-rate: rolling alerts per simulated hour.
        let alerts = snap.counter_total("adapt_alerts_emitted_total");
        self.alert_history.push((t_s, alerts));
        self.alert_history
            .retain(|(t, _)| *t >= t_s - cfg.alert_window_s);
        if let (Some((t0, a0)), Some((t1, a1))) = (
            self.alert_history.first().copied(),
            self.alert_history.last().copied(),
        ) {
            let span_s = (t1 - t0).max(cfg.alert_window_s.min(t_s.max(1e-9)));
            let rate_per_h = (a1 - a0).max(0.0) * 3600.0 / span_s.max(1e-9);
            out.push(HealthLine {
                check: "alert-rate".into(),
                ok: rate_per_h <= cfg.max_alerts_per_sim_hour,
                detail: format!(
                    "{rate_per_h:.1} alerts/sim-h over last {span_s:.0} s (budget {:.1}/h)",
                    cfg.max_alerts_per_sim_hour
                ),
            });
        }

        // drift: flagged-feature counter, when the monitor is active.
        let drift_rows = snap.counter_total("adapt_drift_rows_total");
        if drift_rows > 0.0 {
            let flagged = snap.counter_total("adapt_drift_features_flagged_total");
            out.push(HealthLine {
                check: "drift".into(),
                ok: flagged as u64 <= cfg.max_drift_features_flagged,
                detail: format!(
                    "{flagged:.0} features past PSI flag over {drift_rows:.0} rows (limit {})",
                    cfg.max_drift_features_flagged
                ),
            });
        }

        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::MetricsRegistry;

    #[test]
    fn deadline_burn_flags_slow_p99() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("adapt_alert_latency_ms", &[]);
        h.record_ms(900.0);
        let mut wd = SloWatchdog::new(SloConfig {
            deadline_ms: 500.0,
            ..SloConfig::default()
        });
        let lines = wd.evaluate(1.0, &reg.snapshot());
        let burn = lines.iter().find(|l| l.check == "deadline-burn").unwrap();
        assert!(!burn.ok, "p99 900 ms must breach a 500 ms budget: {burn:?}");
        assert!(burn.render().starts_with("health: deadline-burn BREACH"));
    }

    #[test]
    fn queue_saturation_pairs_depth_with_capacity() {
        let reg = MetricsRegistry::new();
        reg.gauge("adapt_ingest_queue_depth", &[("queue", "ingest")])
            .set(95.0);
        reg.gauge("adapt_ingest_queue_capacity", &[("queue", "ingest")])
            .set(100.0);
        let mut wd = SloWatchdog::new(SloConfig::default());
        let lines = wd.evaluate(1.0, &reg.snapshot());
        let sat = lines
            .iter()
            .find(|l| l.check == "queue-saturation")
            .unwrap();
        assert!(!sat.ok, "fill 0.95 must breach limit 0.9: {sat:?}");
    }

    #[test]
    fn alert_rate_tracks_rolling_window() {
        let reg = MetricsRegistry::new();
        let alerts = reg.counter("adapt_alerts_emitted_total", &[]);
        let mut wd = SloWatchdog::new(SloConfig {
            max_alerts_per_sim_hour: 10.0,
            alert_window_s: 100.0,
            ..SloConfig::default()
        });
        let first = wd.evaluate(0.0, &reg.snapshot());
        // 50 alerts in 100 simulated seconds = 1800/h: way past budget.
        alerts.add(50);
        let lines = wd.evaluate(100.0, &reg.snapshot());
        let rate = lines.iter().find(|l| l.check == "alert-rate").unwrap();
        assert!(!rate.ok, "1800 alerts/h must breach 10/h: {rate:?}");
        // the first evaluation (no alerts yet) was fine
        assert!(first
            .iter()
            .filter(|l| l.check == "alert-rate")
            .all(|l| l.ok));
    }

    #[test]
    fn pool_stall_requires_pending_work_and_silence() {
        let reg = MetricsRegistry::new();
        reg.gauge(POOL_DEPTH_GAUGE, &[("queue", "pool")]).set(4.0);
        let emitted = reg.counter("adapt_alerts_emitted_total", &[]);
        let mut wd = SloWatchdog::new(SloConfig {
            stall_factor: 0.0, // any silence counts as a stall
            ..SloConfig::default()
        });
        let lines = wd.evaluate(1.0, &reg.snapshot());
        let stall = lines.iter().find(|l| l.check == "pool-stall").unwrap();
        assert!(!stall.ok, "pending work + zero stall budget: {stall:?}");
        // progress resets the stall clock
        emitted.inc();
        reg.gauge(POOL_DEPTH_GAUGE, &[("queue", "pool")]).set(0.0);
        let lines = wd.evaluate(2.0, &reg.snapshot());
        assert!(lines.iter().find(|l| l.check == "pool-stall").unwrap().ok);
    }

    #[test]
    fn flight_queues_arm_no_pool_stall() {
        // a flight runtime has bounded ingest/epoch queues and no pool
        let reg = MetricsRegistry::new();
        for q in ["ingest", "epoch"] {
            reg.gauge(&format!("adapt_{q}_queue_depth"), &[("queue", q)])
                .set(3.0);
            reg.gauge(&format!("adapt_{q}_queue_capacity"), &[("queue", q)])
                .set(4.0);
        }
        let mut wd = SloWatchdog::new(SloConfig {
            stall_factor: 0.0,
            ..SloConfig::default()
        });
        let lines = wd.evaluate(1.0, &reg.snapshot());
        assert!(lines.iter().any(|l| l.check == "queue-saturation"));
        assert!(!lines.iter().any(|l| l.check == "pool-stall"), "{lines:?}");
    }

    #[test]
    fn drift_check_is_inactive_without_rows() {
        let reg = MetricsRegistry::new();
        let mut wd = SloWatchdog::new(SloConfig::default());
        assert!(!wd
            .evaluate(1.0, &reg.snapshot())
            .iter()
            .any(|l| l.check == "drift"));
        reg.counter("adapt_drift_rows_total", &[]).add(100);
        reg.counter("adapt_drift_features_flagged_total", &[])
            .add(2);
        let lines = wd.evaluate(2.0, &reg.snapshot());
        let drift = lines.iter().find(|l| l.check == "drift").unwrap();
        assert!(
            !drift.ok,
            "2 flagged features must breach limit 0: {drift:?}"
        );
    }
}
