//! Live service observability: a lock-free metrics registry with named,
//! labeled handles, a periodic snapshot exporter (NDJSON stream +
//! Prometheus-style text exposition over a tiny blocking HTTP endpoint),
//! and the `adapt top` table renderer.
//!
//! The registry is a projection of [`Recorder`] facts: [`LiveObserver`]
//! implements [`Recorder`], naming each metric after the fact, and
//! runtimes hand instrumented code one [`FanOut`] recorder. Handles are
//! registered on first use (the only locked path); after that
//! [`CounterHandle`] / [`GaugeHandle`] / [`HistogramHandle`] are plain
//! `Arc`s around atomics, so the hot path never takes a lock and never
//! allocates.
//! [`LiveObserver::tick`] snapshots the registry every N *simulated*
//! seconds (gated by one atomic compare-exchange, so concurrent shards
//! can all call it cheaply), appends a `live_snapshot` NDJSON line, and
//! runs the [`crate::health::SloWatchdog`] over the snapshot, emitting
//! greppable `health:` lines.

use crate::codec;
use crate::health::{HealthLine, SloConfig, SloWatchdog};
use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::recorder::{
    AlertRecord, Counter, DegradationRecord, LoopIterationRecord, LoopSummaryRecord, Recorder,
    Stage, TraceSpanRecord, TriggerDecisionRecord,
};
use serde::{Deserialize, Serialize, Value};
use std::borrow::Borrow;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Schema version of the `live_*` NDJSON snapshot stream (independent of
/// the flight-capture schema in [`crate::ndjson`]).
pub const LIVE_SCHEMA: u32 = 1;

/// What a registry entry measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Last-write-wins instantaneous value.
    Gauge,
    /// Latency distribution ([`LatencyHistogram`]).
    Histogram,
}

impl MetricKind {
    /// Stable machine name (NDJSON / exposition `# TYPE` value).
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A registered metric's value cell, shared with the handles.
#[derive(Debug, Clone)]
enum EntryValue {
    Counter(Arc<AtomicU64>),
    /// f64 stored as its bit pattern.
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<LatencyHistogram>),
}

impl EntryValue {
    fn kind(&self) -> MetricKind {
        match self {
            EntryValue::Counter(_) => MetricKind::Counter,
            EntryValue::Gauge(_) => MetricKind::Gauge,
            EntryValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// One registered metric: a name, a label set, and its value cell.
#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    value: EntryValue,
}

/// A handle to a registered counter; `inc`/`add` are single relaxed
/// atomic adds. Clone freely — all clones share the same cell.
#[derive(Debug, Clone)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A handle to a registered gauge; `set` is one relaxed atomic store.
#[derive(Debug, Clone)]
pub struct GaugeHandle(Arc<AtomicU64>);

impl GaugeHandle {
    /// Overwrite the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A handle to a registered latency histogram.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<LatencyHistogram>);

impl HistogramHandle {
    /// Record one duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.0.record(d);
    }

    /// Record a millisecond value.
    #[inline]
    pub fn record_ms(&self, ms: f64) {
        self.0.record_ns((ms.max(0.0) * 1e6) as u64);
    }

    /// Coherent percentile snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

/// One metric's value at snapshot time.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric base name (e.g. `adapt_alerts_emitted_total`).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// Kind of the backing cell.
    pub kind: MetricKind,
    /// Counter/gauge value (counters as exact integers in f64; 0 for
    /// histograms — see `hist`).
    pub value: f64,
    /// Percentile summary when `kind` is `Histogram`.
    pub hist: Option<HistogramSnapshot>,
}

impl MetricSample {
    /// `name{k="v",...}` — the exposition/series identity of this sample.
    pub fn series(&self) -> String {
        render_series(&self.name, &self.labels)
    }
}

fn render_series(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{name}{{{}}}", inner.join(","))
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Every sample, in registration order.
    pub samples: Vec<MetricSample>,
}

impl RegistrySnapshot {
    /// First sample whose base name matches exactly.
    pub fn find(&self, name: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Sum of all counter samples sharing a base name (across labels).
    pub fn counter_total(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name && s.kind == MetricKind::Counter)
            .map(|s| s.value)
            .sum()
    }
}

/// The lock-free metrics registry. Registration (cold, once per handle)
/// takes a mutex; everything after goes through the returned handles.
/// Series of one metric family are kept together, in registration order.
/// Registering the same name + label set twice returns a handle to the
/// same cell, so re-entrant services compose.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cell of `name` + `labels`, made by `make` on first use.
    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> EntryValue,
    ) -> EntryValue {
        assert!(
            valid_metric_name(name),
            "metric name {name:?} must match [a-zA-Z_][a-zA-Z0-9_]*"
        );
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                assert!(valid_metric_name(k), "label name {k:?} invalid");
                (k.to_string(), v.to_string())
            })
            .collect();
        let mut entries = self.entries.lock().unwrap();
        if let Some(found) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return found.value.clone();
        }
        // after the last series of the same family, so families stay whole
        let at = entries.iter().rposition(|e| e.name == name);
        let at = at.map_or(entries.len(), |i| i + 1);
        let value = make();
        let entry = Entry {
            name: name.to_string(),
            labels,
            value: value.clone(),
        };
        entries.insert(at, entry);
        value
    }

    /// Register (or re-open) a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        match self.register(name, labels, || EntryValue::Counter(Default::default())) {
            EntryValue::Counter(c) => CounterHandle(c),
            other => panic!("{name} already registered as {:?}", other.kind()),
        }
    }

    /// Register (or re-open) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        // 0 is also the bit pattern of 0.0
        match self.register(name, labels, || EntryValue::Gauge(Default::default())) {
            EntryValue::Gauge(g) => GaugeHandle(g),
            other => panic!("{name} already registered as {:?}", other.kind()),
        }
    }

    /// Register (or re-open) a latency histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        match self.register(name, labels, || EntryValue::Histogram(Default::default())) {
            EntryValue::Histogram(h) => HistogramHandle(h),
            other => panic!("{name} already registered as {:?}", other.kind()),
        }
    }

    /// Copy every metric without stopping writers. The mutex guards only
    /// the entry *list* (it blocks registration, never a handle); values
    /// are read through the same atomics the workers write, and
    /// histograms use the coherent [`LatencyHistogram::snapshot`].
    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self.entries.lock().unwrap();
        let samples = entries
            .iter()
            .map(|e| {
                let (value, hist) = match &e.value {
                    EntryValue::Counter(c) => (c.load(Ordering::Relaxed) as f64, None),
                    EntryValue::Gauge(g) => (f64::from_bits(g.load(Ordering::Relaxed)), None),
                    EntryValue::Histogram(h) => (0.0, Some(h.snapshot())),
                };
                MetricSample {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    kind: e.value.kind(),
                    value,
                    hist,
                }
            })
            .collect();
        RegistrySnapshot { samples }
    }

    /// Prometheus-style text exposition (version 0.0.4): one `# TYPE`
    /// comment per metric name, counters/gauges as plain series,
    /// histograms as `summary` quantile series plus `_count`/`_sum`.
    pub fn exposition(&self) -> String {
        exposition_text(&self.snapshot())
    }
}

/// Render a snapshot as Prometheus text exposition.
pub fn exposition_text(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut typed: Vec<&str> = Vec::new();
    for s in &snap.samples {
        if !typed.contains(&s.name.as_str()) {
            typed.push(&s.name);
            let ty = match s.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "summary",
            };
            out.push_str(&format!("# TYPE {} {ty}\n", s.name));
        }
        match (&s.kind, &s.hist) {
            (MetricKind::Histogram, Some(h)) => {
                for (q, v) in [("0.5", h.p50_ms), ("0.9", h.p90_ms), ("0.99", h.p99_ms)] {
                    let mut labels = s.labels.clone();
                    labels.push(("quantile".to_string(), q.to_string()));
                    out.push_str(&format!("{} {v}\n", render_series(&s.name, &labels)));
                }
                out.push_str(&format!(
                    "{} {}\n",
                    render_series(&format!("{}_count", s.name), &s.labels),
                    h.count
                ));
                out.push_str(&format!(
                    "{} {}\n",
                    render_series(&format!("{}_sum", s.name), &s.labels),
                    h.mean_ms * h.count as f64
                ));
            }
            _ => out.push_str(&format!("{} {}\n", s.series(), s.value)),
        }
    }
    out
}

/// One parsed `live_snapshot` line of the snapshot stream.
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    /// Simulated stream time of the snapshot (s).
    pub t_s: f64,
    /// Whether this is the final snapshot (service finished).
    pub is_final: bool,
    /// Metric samples.
    pub samples: Vec<MetricSample>,
    /// Watchdog verdicts at this snapshot.
    pub health: Vec<HealthLine>,
}

/// The periodic exporter: owns the registry, the SLO watchdog, and the
/// NDJSON snapshot stream. `tick(t_s)` is safe (and cheap) to call from
/// every shard/worker on every slice — it no-ops until the next snapshot
/// is due, and one atomic compare-exchange elects the snapshotting
/// thread.
#[derive(Debug)]
pub struct LiveObserver {
    registry: MetricsRegistry,
    every_s: f64,
    next_due_bits: AtomicU64,
    out: Mutex<Option<std::fs::File>>,
    watchdog: Mutex<SloWatchdog>,
    breaches: AtomicU64,
    snapshots: AtomicU64,
    /// Print `health:` lines to stdout as they are evaluated.
    pub print_health: AtomicBool,
    counters: [OnceLock<CounterHandle>; Counter::ALL.len()],
    stages: [OnceLock<HistogramHandle>; Stage::ALL.len()],
    queue_depths: HandleTable<String, GaugeHandle>,
    alerts_by_stream: HandleTable<u64, CounterHandle>,
    localized_by_level: HandleTable<String, CounterHandle>,
}

/// Labeled handles registered on first use and found again without the
/// registry lock: write-once slots scanned in order. Past the last slot,
/// calls go to the (locked) registry, which returns the same cell.
#[derive(Debug)]
struct HandleTable<K, H> {
    slots: Box<[OnceLock<(K, H)>]>,
}

impl<K, H> HandleTable<K, H> {
    fn new(capacity: usize) -> Self {
        HandleTable {
            slots: (0..capacity).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Apply `f` to `key`'s handle, made by `register` on first use.
    fn with<Q>(&self, key: &Q, register: impl FnOnce() -> H, f: impl FnOnce(&H))
    where
        K: Borrow<Q>,
        Q: PartialEq + ToOwned<Owned = K> + ?Sized,
    {
        let mut register = Some(register);
        for slot in self.slots.iter() {
            // a slot another key won is skipped; ours matches by construction
            let (k, h) = slot.get_or_init(|| (key.to_owned(), register.take().unwrap()()));
            if k.borrow() == key {
                return f(h);
            }
        }
        if let Some(register) = register {
            f(&register());
        }
    }
}

impl LiveObserver {
    /// An observer snapshotting every `every_s` simulated seconds.
    pub fn new(every_s: f64, slo: SloConfig) -> Self {
        LiveObserver {
            registry: MetricsRegistry::new(),
            every_s: every_s.max(1e-3),
            next_due_bits: AtomicU64::new(0f64.to_bits()),
            out: Mutex::new(None),
            watchdog: Mutex::new(SloWatchdog::new(slo)),
            breaches: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            print_health: AtomicBool::new(false),
            counters: Default::default(),
            stages: Default::default(),
            queue_depths: HandleTable::new(8),
            alerts_by_stream: HandleTable::new(1024),
            localized_by_level: HandleTable::new(8),
        }
    }

    /// Stream snapshots to an NDJSON file (created/truncated now; the
    /// `live_meta` header line is written immediately).
    pub fn with_output(self, path: &std::path::Path) -> std::io::Result<Self> {
        let mut file = std::fs::File::create(path)?;
        let meta = LiveMeta {
            schema: LIVE_SCHEMA,
            every_s: self.every_s,
        };
        writeln!(file, "{}", codec::line("live_meta", &[&meta]))?;
        *self.out.lock().unwrap() = Some(file);
        Ok(self)
    }

    /// The registry: [`Recorder`] calls land here, and services set
    /// their configuration gauges on it directly.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Snapshot cadence (simulated seconds).
    pub fn every_s(&self) -> f64 {
        self.every_s
    }

    /// Snapshots taken so far.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// Health checks that have reported BREACH so far.
    pub fn breaches(&self) -> u64 {
        self.breaches.load(Ordering::Relaxed)
    }

    /// Current Prometheus exposition of the registry.
    pub fn exposition(&self) -> String {
        self.registry.exposition()
    }

    /// Advance simulated time; snapshot if a period boundary was crossed.
    /// Returns the health lines evaluated at this tick (empty when the
    /// snapshot wasn't due or another thread won the election).
    pub fn tick(&self, t_s: f64) -> Vec<HealthLine> {
        loop {
            let due_bits = self.next_due_bits.load(Ordering::Acquire);
            if t_s < f64::from_bits(due_bits) {
                return Vec::new();
            }
            let next = (f64::from_bits(due_bits) + self.every_s).max(t_s);
            if self
                .next_due_bits
                .compare_exchange(
                    due_bits,
                    next.to_bits(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                return self.snapshot_now(t_s, false);
            }
            // lost the election; re-check against the new threshold
        }
    }

    /// Take the final snapshot (marked `"final":true`) regardless of the
    /// cadence, and return its health lines.
    pub fn finish(&self, t_s: f64) -> Vec<HealthLine> {
        self.snapshot_now(t_s, true)
    }

    fn snapshot_now(&self, t_s: f64, is_final: bool) -> Vec<HealthLine> {
        let snap = self.registry.snapshot();
        let health = self.watchdog.lock().unwrap().evaluate(t_s, &snap);
        let new_breaches = health.iter().filter(|h| !h.ok).count() as u64;
        self.breaches.fetch_add(new_breaches, Ordering::Relaxed);
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        if self.print_health.load(Ordering::Relaxed) {
            // best-effort: health printing runs on ingest threads, and a
            // closed stdout (`adapt fly | head`) must never panic them —
            // a wedged runtime is worse than a lost health line
            let mut out = std::io::stdout().lock();
            for line in &health {
                let _ = writeln!(out, "{}", line.render());
            }
        }
        if let Some(file) = self.out.lock().unwrap().as_mut() {
            let _ = writeln!(file, "{}", snapshot_line(t_s, is_final, &snap, &health));
            let _ = file.flush();
        }
        health
    }
}

/// The live projection of [`Recorder`] facts. Names are derived from the
/// fact, never hand-registered; `is_enabled` stays `false`, so an
/// attached observer switches on no span or forensics work.
impl Recorder for LiveObserver {
    fn duration(&self, stage: Stage, d: Duration) {
        let name = || format!("adapt_{}_ms", stage.name());
        let slot = &self.stages[stage as usize];
        slot.get_or_init(|| self.registry.histogram(&name(), &[]))
            .record(d);
    }

    fn add(&self, counter: Counter, n: u64) {
        let name = || format!("adapt_{}_total", counter.name());
        let slot = &self.counters[counter as usize];
        slot.get_or_init(|| self.registry.counter(&name(), &[]))
            .add(n);
    }

    fn degradation(&self, _record: &DegradationRecord) {
        self.add(Counter::DegradationTransitions, 1);
    }

    fn alert(&self, record: &AlertRecord) {
        let (stream, level) = (record.stream_id, record.mode.as_str());
        let by_stream = || {
            let label = stream.to_string();
            self.registry
                .counter("adapt_alerts_emitted_total", &[("stream", &label)])
        };
        self.alerts_by_stream
            .with(&stream, by_stream, CounterHandle::inc);
        let by_level = || {
            self.registry
                .counter("adapt_epochs_localized_total", &[("level", level)])
        };
        self.localized_by_level
            .with(level, by_level, CounterHandle::inc);
    }

    fn queue_depth(&self, queue: &str, depth: u64) {
        let gauge = || {
            let name = format!("adapt_{queue}_queue_depth");
            self.registry.gauge(&name, &[("queue", queue)])
        };
        self.queue_depths
            .with(queue, gauge, |g| g.set(depth as f64));
    }
}

/// The one recorder a runtime hands its instrumented code: every call
/// goes to the attached recorder and, when a live observer is attached,
/// to the observer too.
pub struct FanOut<'a> {
    recorder: &'a dyn Recorder,
    live: Option<&'a LiveObserver>,
}

impl<'a> FanOut<'a> {
    /// Fan `recorder` out to `live`.
    pub fn new(recorder: &'a dyn Recorder, live: Option<&'a LiveObserver>) -> Self {
        FanOut { recorder, live }
    }

    /// This fan-out, or the attached recorder itself when no observer is
    /// attached (no extra indirection).
    pub fn recorder(&self) -> &dyn Recorder {
        match self.live {
            Some(_) => self,
            None => self.recorder,
        }
    }
}

/// Forwards each listed [`Recorder`] method to the attached recorder and
/// then to the observer, if one is attached.
macro_rules! fan_out {
    ($($method:ident($($arg:ident: $ty:ty),*);)*) => {$(
        fn $method(&self, $($arg: $ty),*) {
            self.recorder.$method($($arg),*);
            if let Some(live) = self.live {
                live.$method($($arg),*);
            }
        }
    )*};
}

impl Recorder for FanOut<'_> {
    fn is_enabled(&self) -> bool {
        // the observer never asks for extra work
        self.recorder.is_enabled()
    }

    fan_out! {
        duration(stage: Stage, d: Duration);
        add(counter: Counter, n: u64);
        loop_iteration(record: &LoopIterationRecord);
        loop_summary(record: &LoopSummaryRecord);
        degradation(record: &DegradationRecord);
        alert(record: &AlertRecord);
        queue_depth(queue: &str, depth: u64);
        trace_span(record: &TraceSpanRecord);
        trigger_decision(record: &TriggerDecisionRecord);
    }
}

/// The stream's `live_meta` header line.
#[derive(Serialize)]
struct LiveMeta {
    schema: u32,
    every_s: f64,
}

/// Serialize one snapshot as a `live_snapshot` NDJSON line.
fn snapshot_line(
    t_s: f64,
    is_final: bool,
    snap: &RegistrySnapshot,
    health: &[HealthLine],
) -> String {
    let metrics = snap
        .samples
        .iter()
        .map(|s| {
            let labels = s
                .labels
                .iter()
                .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                .collect();
            let mut fields = vec![
                ("name".to_string(), Value::Str(s.name.clone())),
                ("labels".to_string(), Value::Obj(labels)),
                ("kind".to_string(), Value::Str(s.kind.name().into())),
            ];
            // a histogram's percentile fields, else the value
            match s.hist.to_value() {
                Value::Obj(hist) => fields.extend(hist),
                _ => fields.push(("value".to_string(), Value::Float(s.value))),
            }
            Value::Obj(fields)
        })
        .collect();
    let body = Value::Obj(vec![
        ("t_s".to_string(), Value::Float(t_s)),
        ("final".to_string(), Value::Bool(is_final)),
        ("metrics".to_string(), Value::Arr(metrics)),
        ("health".to_string(), health.to_vec().to_value()),
    ]);
    codec::line("live_snapshot", &[&body])
}

/// Field `key` of `v`: `None` when absent or `null` (a NaN gauge is
/// written as `null`), an error naming the field when present with a
/// type other than `T`.
fn field<T: Deserialize>(v: &Value, key: &str) -> Result<Option<T>, String> {
    match v.get(key) {
        // the vendored `f64` reads null as NaN; here null is absent
        None | Some(Value::Null) => Ok(None),
        Some(f) => T::from_value(f)
            .map(Some)
            .map_err(|e| format!("field `{key}`: {e}")),
    }
}

/// Parse a live snapshot stream (the file `--live-out` writes). Returns
/// every snapshot in order; unknown line types and present fields of the
/// wrong type are rejected, naming the line, so schema drift and
/// corruption are loud.
pub fn parse_live_stream(text: &str) -> Result<Vec<LiveSnapshot>, String> {
    let mut snaps = Vec::new();
    for line in codec::lines(text) {
        let line = line?;
        let (lineno, v) = (line.lineno, &line.value);
        let at = |e: String| format!("line {lineno}: {e}");
        match line.ty.as_str() {
            "live_meta" => {
                let schema: f64 = field(v, "schema")
                    .map_err(at)?
                    .ok_or_else(|| format!("line {lineno}: live_meta missing schema"))?;
                if schema as u32 > LIVE_SCHEMA {
                    return Err(format!(
                        "line {lineno}: live stream schema {schema} is newer than supported {LIVE_SCHEMA}"
                    ));
                }
            }
            "live_snapshot" => {
                let t_s = field(v, "t_s")
                    .map_err(at)?
                    .ok_or_else(|| format!("line {lineno}: snapshot missing t_s"))?;
                let metrics: Vec<Value> = field(v, "metrics").map_err(at)?.unwrap_or_default();
                let samples = metrics
                    .iter()
                    .map(|m| read_metric(m).map_err(at))
                    .collect::<Result<_, _>>()?;
                let checks: Vec<Value> = field(v, "health").map_err(at)?.unwrap_or_default();
                let health = checks
                    .iter()
                    .enumerate()
                    .map(|(i, c)| read_health(c).map_err(|e| at(format!("health entry {i}: {e}"))))
                    .collect::<Result<_, _>>()?;
                snaps.push(LiveSnapshot {
                    t_s,
                    is_final: field(v, "final").map_err(at)? == Some(true),
                    samples,
                    health,
                });
            }
            other => return Err(format!("line {lineno}: unknown live line type {other:?}")),
        }
    }
    Ok(snaps)
}

/// One entry of a snapshot's `health`: an absent check name reads as
/// `?`, an absent verdict as failed.
fn read_health(c: &Value) -> Result<HealthLine, String> {
    Ok(HealthLine {
        check: field(c, "check")?.unwrap_or_else(|| "?".into()),
        ok: field(c, "ok")? == Some(true),
        detail: field(c, "detail")?.unwrap_or_default(),
    })
}

/// One entry of a snapshot's `metrics`: a name and a known kind are
/// required; a number that is absent or `null` reads as 0, and any field
/// of the wrong type is an error naming the metric.
fn read_metric(m: &Value) -> Result<MetricSample, String> {
    let name: String = field(m, "name")?.ok_or("metric missing name")?;
    let in_metric = |e: String| format!("metric {name}: {e}");
    let kind = match field::<String>(m, "kind").map_err(in_metric)?.as_deref() {
        Some("counter") => MetricKind::Counter,
        Some("gauge") => MetricKind::Gauge,
        Some("histogram") => MetricKind::Histogram,
        other => return Err(format!("metric {name} has unknown kind {other:?}")),
    };
    let bad_labels = |e: serde::Error| in_metric(format!("field `labels`: {e}"));
    let labels = match field::<Value>(m, "labels").map_err(in_metric)? {
        None => Vec::new(),
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| Ok((k.clone(), String::from_value(v).map_err(bad_labels)?)))
            .collect::<Result<_, String>>()?,
        Some(other) => return Err(bad_labels(serde::Error::expected("object", &other))),
    };
    let num =
        |key: &str| -> Result<f64, String> { Ok(field(m, key).map_err(in_metric)?.unwrap_or(0.0)) };
    let hist = if kind == MetricKind::Histogram {
        Some(HistogramSnapshot {
            count: num("count")? as u64,
            mean_ms: num("mean_ms")?,
            p50_ms: num("p50_ms")?,
            p90_ms: num("p90_ms")?,
            p99_ms: num("p99_ms")?,
            min_ms: num("min_ms")?,
            max_ms: num("max_ms")?,
        })
    } else {
        None
    };
    let value = num("value")?;
    Ok(MetricSample {
        name,
        labels,
        kind,
        value,
        hist,
    })
}

/// Render one snapshot as the `adapt top` table: global counters, then
/// per-label-dimension breakdowns (stream/worker/level/queue), then latency
/// histograms and health verdicts.
pub fn render_top(snap: &LiveSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "adapt top — t={:.1} sim-s{}\n",
        snap.t_s,
        if snap.is_final { " (final)" } else { "" }
    ));
    out.push_str(&format!("{:-<66}\n", ""));
    // Global (label-free) counters and gauges.
    for s in &snap.samples {
        if s.labels.is_empty() && s.kind != MetricKind::Histogram {
            let v = if s.kind == MetricKind::Counter {
                format!("{}", s.value as u64)
            } else {
                format!("{:.2}", s.value)
            };
            out.push_str(&format!("  {:<44} {:>18}\n", s.name, v));
        }
    }
    // Breakdown tables per label dimension.
    for dim in ["stream", "worker", "level", "queue"] {
        let mut rows: Vec<(&MetricSample, &str)> = snap
            .samples
            .iter()
            .filter_map(|s| {
                s.labels
                    .iter()
                    .find(|(k, _)| k == dim)
                    .map(|(_, v)| (s, v.as_str()))
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        rows.sort_by(|a, b| {
            let key = |v: &str| {
                v.parse::<u64>()
                    .map_or((1, v.to_string()), |n| (0, format!("{n:020}")))
            };
            key(a.1)
                .cmp(&key(b.1))
                .then_with(|| a.0.name.cmp(&b.0.name))
        });
        out.push_str(&format!("  by {dim}:\n"));
        for (s, v) in rows {
            match &s.hist {
                Some(h) => out.push_str(&format!(
                    "    {dim}={v:<8} {:<34} n={} p50={:.2}ms p99={:.2}ms\n",
                    s.name, h.count, h.p50_ms, h.p99_ms
                )),
                None => out.push_str(&format!(
                    "    {dim}={v:<8} {:<34} {}\n",
                    s.name,
                    if s.kind == MetricKind::Counter {
                        format!("{}", s.value as u64)
                    } else {
                        format!("{:.2}", s.value)
                    }
                )),
            }
        }
    }
    // Label-free histograms.
    for s in &snap.samples {
        if let (true, Some(h)) = (s.labels.is_empty(), &s.hist) {
            out.push_str(&format!(
                "  {:<34} n={:<7} p50={:.2}ms p90={:.2}ms p99={:.2}ms max={:.2}ms\n",
                s.name, h.count, h.p50_ms, h.p90_ms, h.p99_ms, h.max_ms
            ));
        }
    }
    for line in &snap.health {
        out.push_str(&format!("  {}\n", line.render()));
    }
    out
}

/// A tiny blocking HTTP endpoint serving the observer's Prometheus
/// exposition (std `TcpListener` only — no external dependencies). Every
/// GET, whatever the path, returns the current exposition text.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9900`; port 0 picks a free port) and
    /// serve the observer's exposition until [`Self::shutdown`] or drop.
    pub fn start(addr: &str, observer: Arc<LiveObserver>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("adapt-metrics".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                    let _ = serve_one(&mut stream, &observer);
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Nudge the blocking accept() awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

fn serve_one(stream: &mut TcpStream, observer: &LiveObserver) -> std::io::Result<()> {
    // Read just enough to consume the request line; we answer every
    // method/path the same way.
    let mut buf = [0u8; 1024];
    let _ = stream.read(&mut buf)?;
    let body = observer.exposition();
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_dedups_and_counts() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("adapt_alerts_emitted_total", &[("stream", "0")]);
        let b = reg.counter("adapt_alerts_emitted_total", &[("stream", "0")]);
        let c = reg.counter("adapt_alerts_emitted_total", &[("stream", "1")]);
        a.inc();
        b.add(2);
        c.inc();
        assert_eq!(a.get(), 3, "same name+labels share one cell");
        assert_eq!(c.get(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.samples.len(), 2);
        assert_eq!(snap.counter_total("adapt_alerts_emitted_total"), 4.0);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn bad_metric_names_are_rejected() {
        MetricsRegistry::new().counter("bad name!", &[]);
    }

    #[test]
    fn exposition_renders_types_and_series() {
        let reg = MetricsRegistry::new();
        reg.counter("adapt_alerts_emitted_total", &[("stream", "0")])
            .add(7);
        reg.gauge("adapt_pool_queue_depth", &[]).set(3.5);
        reg.counter("adapt_alerts_emitted_total", &[("stream", "1")])
            .add(2);
        let h = reg.histogram("adapt_epoch_latency_ms", &[("worker", "0")]);
        h.record_ms(10.0);
        h.record_ms(20.0);
        let text = reg.exposition();
        // a family's series stay together under one TYPE line, even when
        // registered apart
        assert!(text.starts_with(
            "# TYPE adapt_alerts_emitted_total counter\n\
             adapt_alerts_emitted_total{stream=\"0\"} 7\n\
             adapt_alerts_emitted_total{stream=\"1\"} 2\n"
        ));
        assert!(text.contains("# TYPE adapt_pool_queue_depth gauge"));
        assert!(text.contains("adapt_pool_queue_depth 3.5"));
        assert!(text.contains("# TYPE adapt_epoch_latency_ms summary"));
        assert!(text.contains("adapt_epoch_latency_ms{worker=\"0\",quantile=\"0.99\"}"));
        assert!(text.contains("adapt_epoch_latency_ms_count{worker=\"0\"} 2"));
    }

    #[test]
    fn observer_projects_recorder_facts_under_derived_names() {
        let obs = LiveObserver::new(5.0, SloConfig::default());
        let fan = FanOut::new(crate::noop(), Some(&obs));
        let rec = fan.recorder();
        assert!(!rec.is_enabled(), "an observer switches on no extra work");
        rec.add(Counter::AlertsFannedOut, 2);
        rec.add(Counter::AlertsFannedOut, 3);
        rec.duration(Stage::AlertLatency, Duration::from_millis(4));
        rec.queue_depth("pool", 7);
        rec.queue_depth("pool", 5);
        for (stream_id, mode) in [(3, "full-ml"), (3, "classical"), (11, "full-ml")] {
            rec.alert(&AlertRecord {
                stream_id,
                t_s: 1.0,
                mode: mode.into(),
                polar_deg: 10.0,
                azimuth_deg: 0.0,
                containment_radius_deg: 2.0,
                containment_source: "heuristic".into(),
                latency_ms: 4.0,
                rings: 10,
                ingest_depth: 0,
                epoch_depth: 0,
            });
        }
        rec.degradation(&DegradationRecord {
            t_s: 1.0,
            from: "full-ml".into(),
            to: "classical".into(),
            reason: "deadline-budget".into(),
        });
        let text = obs.exposition();
        assert!(text.contains("adapt_alerts_fanned_out_total 5"), "{text}");
        assert!(text.contains("adapt_alert_latency_ms_count 1"), "{text}");
        assert!(
            text.contains("adapt_pool_queue_depth{queue=\"pool\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("adapt_alerts_emitted_total{stream=\"3\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("adapt_alerts_emitted_total{stream=\"11\"} 1"),
            "{text}"
        );
        assert!(text.contains("adapt_epochs_localized_total{level=\"full-ml\"} 2"));
        assert!(
            text.contains("adapt_degradation_transitions_total 1"),
            "{text}"
        );
    }

    #[test]
    fn handle_table_falls_back_to_the_registry_when_full() {
        let reg = MetricsRegistry::new();
        let table: HandleTable<u64, CounterHandle> = HandleTable::new(1);
        for stream in [0u64, 1, 1, 0] {
            let label = stream.to_string();
            let register = || reg.counter("adapt_alerts_emitted_total", &[("stream", &label)]);
            table.with(&stream, register, CounterHandle::inc);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.samples.len(), 2);
        assert!(snap.samples.iter().all(|s| s.value == 2.0));
    }

    #[test]
    fn observer_ticks_on_cadence_and_streams_snapshots() {
        let dir = std::env::temp_dir().join(format!("adapt_live_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.ndjson");
        let obs = LiveObserver::new(10.0, SloConfig::default())
            .with_output(&path)
            .unwrap();
        let alerts = obs.registry().counter("adapt_alerts_emitted_total", &[]);
        obs.tick(0.0); // first period boundary
        assert_eq!(obs.snapshots_taken(), 1);
        obs.tick(0.5); // within the first period: no new snapshot
        assert_eq!(obs.snapshots_taken(), 1);
        alerts.add(3);
        obs.tick(10.5); // crossed the boundary
        assert_eq!(obs.snapshots_taken(), 2);
        obs.finish(12.0);
        let text = std::fs::read_to_string(&path).unwrap();
        let snaps = parse_live_stream(&text).unwrap();
        assert!(snaps.len() >= 2);
        let last = snaps.last().unwrap();
        assert!(last.is_final);
        assert_eq!(
            last.samples
                .iter()
                .find(|s| s.name == "adapt_alerts_emitted_total")
                .unwrap()
                .value,
            3.0
        );
        let rendered = render_top(last);
        assert!(rendered.contains("adapt_alerts_emitted_total"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_server_serves_exposition() {
        let obs = Arc::new(LiveObserver::new(5.0, SloConfig::default()));
        obs.registry()
            .counter("adapt_alerts_emitted_total", &[])
            .add(9);
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&obs)).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.contains("adapt_alerts_emitted_total 9"));
        server.shutdown();
    }
}
