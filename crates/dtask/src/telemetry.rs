//! Live telemetry plane: flight recorder, HTTP exporter, straggler detector.
//!
//! Everything else observability-wise in this runtime is post-mortem —
//! [`crate::trace::TraceRecorder::collect`] drains rings after the run and
//! [`crate::snapshot::StatsSnapshot`] is captured on demand. A production
//! in-transit cluster needs a *live* operator view while the simulation is
//! coupled. This module provides one, in three parts:
//!
//! * **Flight recorder.** The scheduler thread captures counter deltas from
//!   [`crate::stats::SchedulerStats`] every 25 ms into a bounded
//!   time-series ring of [`FlightSample`]s: tasks/s reported,
//!   per-[`WireLane`] bytes/s, ready-queue depth + per-interval high
//!   watermark, steal and miss rates, store spill pressure, and heartbeat
//!   gap ages published by the scheduler.
//! * **HTTP exporter.** A minimal std-only server
//!   ([`std::net::TcpListener`], no deps — the first real socket in the
//!   codebase, a stepping stone toward cross-process deployment) answering
//!   `GET /metrics` (Prometheus exposition), `/snapshot.json`,
//!   `/flight.json`, `/alerts.json`, and `/health`.
//! * **Straggler detector.** Per-op-kind exec-duration baselines (bounded
//!   recent window, median/MAD) flag executions exceeding
//!   k×baseline online: a [`EventKind::Straggler`] trace instant, the
//!   `stragglers_flagged` counter, and a structured [`Alert`].
//!
//! Every [`crate::Cluster`] runs all of it; [`TelemetryConfig`] only says
//! where the exporter listens. None of it sends a message: the plane reads
//! counters and gauges, so the paper's message counts hold with it running.

use crate::json::Json;
use crate::key::Key;
use crate::net::{accept_until_stopped, stop_accepting};
use crate::snapshot::StatsSnapshot;
use crate::stats::{Counters, Metric, MsgClass, SchedulerStats, WireLane};
use crate::threads::ThreadRole;
use crate::trace::TraceRecorder;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Flight-recorder sampling interval.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);
/// Flight ring capacity in samples; the oldest sample is evicted (and
/// counted) when full.
const FLIGHT_CAPACITY: usize = 512;
/// Alert ring capacity; the oldest alert is evicted when full.
const ALERT_CAPACITY: usize = 256;
/// Straggler threshold multiplier: flag an execution whose duration exceeds
/// `max(k × median, median + 4×1.4826×MAD)` for its op kind.
const STRAGGLER_K: f64 = 4.0;
/// Recent-duration window per op kind feeding the median/MAD baseline.
const STRAGGLER_WINDOW: usize = 64;
/// Baseline samples required per op kind before flagging anything.
const STRAGGLER_MIN_SAMPLES: u64 = 8;
/// Absolute duration floor: executions faster than 1 ms are never
/// stragglers whatever their baseline, so microsecond ops do not flag on
/// scheduler jitter.
const STRAGGLER_MIN_NS: u64 = 1_000_000;

/// Live-telemetry configuration (part of [`crate::ClusterConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Address the HTTP exporter binds. Loopback with an OS-assigned port
    /// by default ([`crate::Cluster::telemetry_addr`] reports what was
    /// bound); set `0.0.0.0:PORT` so a remote scraper can reach it.
    pub bind: SocketAddr,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
        }
    }
}

// ---- alerts -----------------------------------------------------------------

/// What kind of anomaly an [`Alert`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// A task execution exceeded k× its op-kind baseline.
    Straggler,
}

impl AlertKind {
    /// Stable snake_case name (JSON `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::Straggler => "straggler",
        }
    }
}

/// One structured anomaly record, queryable over `/alerts.json`.
#[derive(Debug, Clone)]
pub struct Alert {
    /// What was detected.
    pub kind: AlertKind,
    /// Milliseconds since the telemetry epoch.
    pub t_ms: f64,
    /// The task key, when the alert concerns one.
    pub key: Option<String>,
    /// The worker involved, when one is identifiable.
    pub worker: Option<usize>,
    /// Observed value (straggler: duration ms).
    pub value: f64,
    /// The threshold the value exceeded, in the same unit.
    pub threshold: f64,
}

impl Alert {
    /// JSON rendering (one element of `/alerts.json`'s `alerts` array).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .set("kind", self.kind.name())
            .set("t_ms", self.t_ms);
        if let Some(key) = &self.key {
            doc = doc.set("key", key.as_str());
        }
        if let Some(worker) = self.worker {
            doc = doc.set("worker", worker);
        }
        doc.set("value", self.value)
            .set("threshold", self.threshold)
    }
}

// ---- flight recorder --------------------------------------------------------

/// One flight-recorder interval: rollup rates computed from counter deltas
/// between two consecutive samples, plus scheduler-published gauges.
#[derive(Debug, Clone)]
pub struct FlightSample {
    /// Milliseconds since the telemetry epoch at sample time.
    pub t_ms: f64,
    /// Actual interval length (the sampler is best-effort, not isochronous).
    pub dt_ms: f64,
    /// Task completion/error reports per second over the interval.
    pub tasks_per_s: f64,
    /// Serialized bytes/s per wire lane (zero under the InProc transport).
    pub lane_bytes_per_s: [f64; WireLane::COUNT],
    /// Ready-queue depth at sample time (scheduler gauge).
    pub queue_depth: u64,
    /// Ready-queue high watermark over the interval.
    pub queue_depth_peak: u64,
    /// Live workers at sample time (scheduler gauge).
    pub workers_alive: u64,
    /// Active client sessions at sample time (scheduler gauge; 0 on
    /// single-tenant clusters, which never register a session).
    pub sessions_active: u64,
    /// Successful steals per second.
    pub steals_per_s: f64,
    /// Steal misses per second.
    pub steal_misses_per_s: f64,
    /// Store spills per second (spill pressure).
    pub spills_per_s: f64,
    /// Spilled payload bytes per second.
    pub spill_bytes_per_s: f64,
    /// Cumulative stragglers flagged up to this sample.
    pub stragglers_flagged: u64,
    /// Oldest worker heartbeat age in ms (0 with no tracked workers).
    pub worker_gap_ms: f64,
    /// Oldest client heartbeat age in ms (0 with no heartbeating clients).
    pub client_gap_ms: f64,
}

impl FlightSample {
    /// JSON rendering (one element of `/flight.json`'s `samples` array).
    pub fn to_json(&self) -> Json {
        let lanes = WireLane::ALL
            .iter()
            .zip(self.lane_bytes_per_s.iter())
            .fold(Json::obj(), |doc, (lane, rate)| doc.set(lane.name(), *rate));
        Json::obj()
            .set("t_ms", self.t_ms)
            .set("dt_ms", self.dt_ms)
            .set("tasks_per_s", self.tasks_per_s)
            .set("lane_bytes_per_s", lanes)
            .set("queue_depth", self.queue_depth)
            .set("queue_depth_peak", self.queue_depth_peak)
            .set("workers_alive", self.workers_alive)
            .set("sessions_active", self.sessions_active)
            .set("steals_per_s", self.steals_per_s)
            .set("steal_misses_per_s", self.steal_misses_per_s)
            .set("spills_per_s", self.spills_per_s)
            .set("spill_bytes_per_s", self.spill_bytes_per_s)
            .set("stragglers_flagged", self.stragglers_flagged)
            .set("worker_gap_ms", self.worker_gap_ms)
            .set("client_gap_ms", self.client_gap_ms)
    }
}

/// Per-op-kind exec-duration baseline: a bounded window of recent durations
/// summarized by median/MAD when an execution is long enough to judge (the
/// window is small, so sorting a stack copy beats maintaining order).
struct OpBaseline {
    window: VecDeque<u64>,
    samples: u64,
}

impl OpBaseline {
    fn new() -> Self {
        OpBaseline {
            window: VecDeque::with_capacity(STRAGGLER_WINDOW),
            samples: 0,
        }
    }

    /// Judge `dur_ns` against the baseline *before* it joins the window,
    /// then add it. Allocates nothing.
    fn observe(&mut self, dur_ns: u64) -> bool {
        let flagged = self.samples >= STRAGGLER_MIN_SAMPLES && dur_ns >= STRAGGLER_MIN_NS && {
            let (median, mad) = self.median_mad();
            dur_ns as f64 > (STRAGGLER_K * median).max(median + 4.0 * 1.4826 * mad)
        };
        if self.window.len() == STRAGGLER_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(dur_ns);
        self.samples += 1;
        flagged
    }

    fn median_mad(&self) -> (f64, f64) {
        let mut buf = [0u64; STRAGGLER_WINDOW];
        let durs = &mut buf[..self.window.len()];
        durs.iter_mut().zip(&self.window).for_each(|(d, &w)| *d = w);
        durs.sort_unstable();
        let median = mid(durs);
        durs.iter_mut()
            .for_each(|d| *d = (*d as f64 - median).abs() as u64);
        durs.sort_unstable();
        (median, mid(durs))
    }
}

fn mid(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2] as f64
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) as f64 / 2.0
    }
}

/// What the flight sampler keeps between two samples: when it last ran and
/// every counter as captured then, so a rate is `(now - prev) / dt` of any
/// registry row. The scheduler pump owns one and samples when it is due,
/// so the sampler costs no thread of its own (see [`Exporter`] for why that
/// matters).
pub(crate) struct SamplerCursor {
    t_prev: Instant,
    prev: Counters<u64>,
}

impl SamplerCursor {
    pub(crate) fn new() -> Self {
        SamplerCursor {
            t_prev: Instant::now(),
            prev: Counters::default(),
        }
    }

    /// When the next sample is due.
    pub(crate) fn due(&self) -> Instant {
        self.t_prev + SAMPLE_EVERY
    }
}

// ---- the hub ----------------------------------------------------------------

/// Shared live-telemetry state: scheduler-published gauges, the straggler
/// detector, and the bounded flight/alert rings. One per cluster, handed to
/// the scheduler (which also samples it), every executor slot, and the HTTP
/// exporter. A `dtask-node` builds one for its executors alone, with no
/// thread reading it.
pub struct TelemetryHub {
    stats: Arc<SchedulerStats>,
    epoch: Instant,
    // Scheduler-published gauges (Relaxed; refreshed once per ingest loop).
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
    workers_alive: AtomicU64,
    sessions_active: AtomicU64,
    worker_gap_ns: AtomicU64,
    client_gap_ns: AtomicU64,
    // Straggler baselines, keyed by op kind.
    baselines: Mutex<HashMap<String, OpBaseline>>,
    // Bounded rings.
    flight: Mutex<VecDeque<FlightSample>>,
    flight_evicted: AtomicU64,
    alerts: Mutex<VecDeque<Alert>>,
    alerts_total: AtomicU64,
}

impl TelemetryHub {
    /// Fresh hub publishing into `stats`.
    pub fn new(stats: Arc<SchedulerStats>) -> Self {
        TelemetryHub {
            stats,
            epoch: Instant::now(),
            queue_depth: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
            workers_alive: AtomicU64::new(0),
            sessions_active: AtomicU64::new(0),
            worker_gap_ns: AtomicU64::new(0),
            client_gap_ns: AtomicU64::new(0),
            baselines: Mutex::new(HashMap::new()),
            flight: Mutex::new(VecDeque::new()),
            flight_evicted: AtomicU64::new(0),
            alerts: Mutex::new(VecDeque::new()),
            alerts_total: AtomicU64::new(0),
        }
    }

    /// Milliseconds since the hub was built.
    fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1e6
    }

    // ---- scheduler gauges ---------------------------------------------------

    /// Publish the scheduler-side gauges: ready-queue depth, live workers,
    /// and the oldest worker/client heartbeat ages. Called once per scheduler
    /// loop iteration; a handful of Relaxed stores.
    pub fn publish_scheduler(
        &self,
        queue_depth: u64,
        workers_alive: u64,
        sessions_active: u64,
        worker_gap_ns: u64,
        client_gap_ns: u64,
    ) {
        self.queue_depth.store(queue_depth, Ordering::Relaxed);
        self.queue_depth_peak
            .fetch_max(queue_depth, Ordering::Relaxed);
        self.workers_alive.store(workers_alive, Ordering::Relaxed);
        self.sessions_active
            .store(sessions_active, Ordering::Relaxed);
        self.worker_gap_ns.store(worker_gap_ns, Ordering::Relaxed);
        self.client_gap_ns.store(client_gap_ns, Ordering::Relaxed);
    }

    // ---- straggler detection ------------------------------------------------

    /// Observe one completed execution of `op` and decide — against the
    /// baseline *before* this observation joins it — whether it straggled.
    /// On a flag: bumps `stragglers_flagged` and raises an [`Alert`]; the
    /// caller owns the trace instant (the event belongs on the executing
    /// slot's track).
    pub fn observe_exec(&self, op: &str, key: &Key, worker: usize, dur_ns: u64) -> bool {
        let flagged = {
            let mut baselines = self.baselines.lock();
            match baselines.get_mut(op) {
                Some(base) => base.observe(dur_ns),
                None => baselines
                    .entry(op.to_string())
                    .or_insert_with(OpBaseline::new)
                    .observe(dur_ns),
            }
        };
        if flagged {
            self.stats.inc(Metric::StragglersFlagged);
            self.raise(Alert {
                kind: AlertKind::Straggler,
                t_ms: self.now_ms(),
                key: Some(key.as_str().to_string()),
                worker: Some(worker),
                value: dur_ns as f64 / 1e6,
                threshold: STRAGGLER_K,
            });
        }
        flagged
    }

    // ---- alerts -------------------------------------------------------------

    fn raise(&self, alert: Alert) {
        self.alerts_total.fetch_add(1, Ordering::Relaxed);
        let mut alerts = self.alerts.lock();
        if alerts.len() == ALERT_CAPACITY {
            alerts.pop_front();
        }
        alerts.push_back(alert);
    }

    /// Current contents of the alert ring, oldest first.
    pub fn alerts(&self) -> Vec<Alert> {
        self.alerts.lock().iter().cloned().collect()
    }

    /// Alerts raised since startup (including any evicted from the ring).
    pub fn alerts_total(&self) -> u64 {
        self.alerts_total.load(Ordering::Relaxed)
    }

    /// The `/alerts.json` document.
    pub fn alerts_json(&self) -> Json {
        Json::obj().set("total", self.alerts_total()).set(
            "alerts",
            Json::Arr(self.alerts().iter().map(Alert::to_json).collect()),
        )
    }

    // ---- flight recorder ----------------------------------------------------

    /// Take one flight sample: counter deltas since `cursor` and gauge
    /// reads. Called by the scheduler thread.
    pub(crate) fn sample(&self, cursor: &mut SamplerCursor) {
        let now = Instant::now();
        let dt = now.saturating_duration_since(cursor.t_prev);
        let dt_s = dt.as_secs_f64().max(1e-9);
        cursor.t_prev = now;

        let now = self.stats.capture();
        let prev = &cursor.prev;
        let per_s = |read: &dyn Fn(&Counters<u64>) -> u64| (read(&now) - read(prev)) as f64 / dt_s;
        let scalar_per_s = |metric: Metric| per_s(&|c| c.get(metric));

        let worker_gap_ns = self.worker_gap_ns.load(Ordering::Relaxed);
        let client_gap_ns = self.client_gap_ns.load(Ordering::Relaxed);
        let sample = FlightSample {
            t_ms: self.now_ms(),
            dt_ms: dt.as_nanos() as f64 / 1e6,
            tasks_per_s: per_s(&|c| c.count(MsgClass::TaskReport)),
            lane_bytes_per_s: WireLane::ALL.map(|lane| per_s(&|c| c.wire_bytes(lane))),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.swap(0, Ordering::Relaxed),
            workers_alive: self.workers_alive.load(Ordering::Relaxed),
            sessions_active: self.sessions_active.load(Ordering::Relaxed),
            steals_per_s: scalar_per_s(Metric::TasksStolen),
            steal_misses_per_s: scalar_per_s(Metric::StealMisses),
            spills_per_s: scalar_per_s(Metric::StoreSpills),
            spill_bytes_per_s: scalar_per_s(Metric::StoreSpillBytes),
            stragglers_flagged: now.stragglers_flagged(),
            worker_gap_ms: worker_gap_ns as f64 / 1e6,
            client_gap_ms: client_gap_ns as f64 / 1e6,
        };
        cursor.prev = now;

        let mut flight = self.flight.lock();
        if flight.len() == FLIGHT_CAPACITY {
            flight.pop_front();
            self.flight_evicted.fetch_add(1, Ordering::Relaxed);
        }
        flight.push_back(sample);
    }

    /// Current contents of the flight ring, oldest first.
    pub fn flight(&self) -> Vec<FlightSample> {
        self.flight.lock().iter().cloned().collect()
    }

    /// Samples evicted from a full flight ring.
    pub fn flight_evicted(&self) -> u64 {
        self.flight_evicted.load(Ordering::Relaxed)
    }

    /// The `/flight.json` document.
    pub fn flight_json(&self) -> Json {
        Json::obj()
            .set("sample_every_ms", SAMPLE_EVERY.as_nanos() as f64 / 1e6)
            .set("evicted", self.flight_evicted())
            .set(
                "samples",
                Json::Arr(self.flight().iter().map(FlightSample::to_json).collect()),
            )
    }
}

/// The HTTP exporter of one cluster. Its listener is bound when the cluster
/// is built; a thread serves it from the first time its address is handed
/// out, or at once for a fixed port, which a scraper can know without
/// asking. Until then a connection waits in the listen backlog. A thread
/// started and ended with every cluster moves the cluster's own threads
/// onto each other's malloc arenas, and raised the benchmark's peak RSS by
/// up to a third (EXPERIMENTS.md, "Telemetry stops being a mode").
/// Dropping the exporter stops and joins its thread.
pub(crate) struct Exporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The accept loop, until a thread runs it.
    accept: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Exporter {
    /// Bind the exporter at `bind`; serve it at once if the port is fixed.
    pub(crate) fn bind(
        hub: &Arc<TelemetryHub>,
        tracer: &Arc<TraceRecorder>,
        bind: SocketAddr,
    ) -> std::io::Result<Exporter> {
        let listener = TcpListener::bind(bind)?;
        let stop = Arc::new(AtomicBool::new(false));
        let (hub, tracer, flag) = (Arc::clone(hub), Arc::clone(tracer), Arc::clone(&stop));
        let exporter = Exporter {
            addr: listener.local_addr()?,
            stop,
            accept: Mutex::new(Some(Box::new(move || {
                // One request per connection (scrape traffic; no keep-alive).
                accept_until_stopped(&listener, &flag, |stream, _| {
                    handle_request(stream, &hub, &tracer)
                })
            }))),
            thread: Mutex::new(None),
        };
        if bind.port() != 0 {
            exporter.serve()?;
        }
        Ok(exporter)
    }

    /// Serve the exporter from now on, and say where it listens.
    pub(crate) fn serve(&self) -> std::io::Result<SocketAddr> {
        if let Some(accept) = self.accept.lock().take() {
            let thread = std::thread::Builder::new()
                .name(ThreadRole::Telemetry.name())
                .spawn(accept)?;
            *self.thread.lock() = Some(thread);
        }
        Ok(self.addr)
    }

    /// Stop serving and join the thread; the listener closes.
    pub(crate) fn stop(&mut self) {
        self.accept.get_mut().take();
        if let Some(thread) = self.thread.get_mut().take() {
            stop_accepting(&self.stop, self.addr);
            let _ = thread.join();
        }
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_request(mut stream: TcpStream, hub: &TelemetryHub, tracer: &TraceRecorder) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));

    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = match std::str::from_utf8(&buf)
        .ok()
        .and_then(|text| text.lines().next())
    {
        Some(line) => line,
        None => return,
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return,
    };
    if method != "GET" {
        respond(
            &mut stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
        return;
    }
    // Strip any query string; scrapers sometimes append one.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => {
            let body = StatsSnapshot::capture_with_tracer(&hub.stats, tracer).to_prometheus();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/snapshot.json" => {
            let body = StatsSnapshot::capture_with_tracer(&hub.stats, tracer)
                .to_json()
                .to_string_pretty();
            respond(&mut stream, 200, "application/json", &body);
        }
        "/flight.json" => {
            respond(
                &mut stream,
                200,
                "application/json",
                &hub.flight_json().to_string_pretty(),
            );
        }
        "/alerts.json" => {
            respond(
                &mut stream,
                200,
                "application/json",
                &hub.alerts_json().to_string_pretty(),
            );
        }
        "/health" => respond(&mut stream, 200, "text/plain; charset=utf-8", "ok\n"),
        _ => respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_hub() -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub::new(Arc::new(SchedulerStats::new())))
    }

    #[test]
    fn straggler_detector_flags_deterministically() {
        let hub = test_hub();
        let key = Key::new("t");
        // Build a tight baseline of 1 ms runs; nothing flags while it forms.
        for _ in 0..8 {
            assert!(!hub.observe_exec("sum", &key, 0, 1_000_000));
        }
        // Small jitter stays unflagged (within k×median).
        assert!(!hub.observe_exec("sum", &key, 0, 2_000_000));
        // A 50× outlier flags: counter + alert with the task key.
        let slow = Key::new("slow");
        assert!(hub.observe_exec("sum", &slow, 1, 50_000_000));
        assert_eq!(hub.stats.stragglers_flagged(), 1);
        let alerts = hub.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Straggler);
        assert_eq!(alerts[0].key.as_deref(), Some("slow"));
        assert_eq!(alerts[0].worker, Some(1));
        // A different op kind has its own (empty) baseline: never flags.
        assert!(!hub.observe_exec("matmul", &key, 0, 50_000_000));
    }

    #[test]
    fn straggler_respects_min_duration_floor() {
        let hub = test_hub();
        let key = Key::new("t");
        for _ in 0..8 {
            hub.observe_exec("sum", &key, 0, 100);
        }
        // 100× the baseline but under the 1 ms floor: not a straggler.
        assert!(!hub.observe_exec("sum", &key, 0, 10_000));
        assert_eq!(hub.alerts_total(), 0);
    }

    #[test]
    fn flight_ring_is_bounded_and_counts_evictions() {
        let hub = test_hub();
        let mut cursor = SamplerCursor::new();
        for _ in 0..FLIGHT_CAPACITY + 2 {
            hub.sample(&mut cursor);
        }
        assert_eq!(hub.flight().len(), FLIGHT_CAPACITY);
        assert_eq!(hub.flight_evicted(), 2);
        let doc = hub.flight_json();
        assert_eq!(doc.get("evicted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            doc.get("samples").and_then(Json::as_arr).unwrap().len(),
            FLIGHT_CAPACITY
        );
    }

    #[test]
    fn flight_sample_rates_reflect_counter_deltas() {
        let hub = test_hub();
        let mut cursor = SamplerCursor::new();
        cursor.t_prev -= Duration::from_secs(1);
        for _ in 0..10 {
            hub.stats.record(MsgClass::TaskReport, 0);
        }
        hub.stats.record_wire(WireLane::SchedIn, 1000);
        hub.stats.inc(Metric::StoreSpills);
        hub.stats.add(Metric::StoreSpillBytes, 4096);
        hub.publish_scheduler(3, 2, 1, 7_000_000, 0);
        hub.sample(&mut cursor);
        let s = &hub.flight()[0];
        // dt ≈ 1 s, so rates ≈ deltas (loose bounds: wall clock moved a bit).
        assert!(
            s.tasks_per_s > 5.0 && s.tasks_per_s <= 10.5,
            "{}",
            s.tasks_per_s
        );
        assert!(s.lane_bytes_per_s[0] > 500.0);
        assert!(s.spills_per_s > 0.5);
        assert!(s.spill_bytes_per_s > 2000.0);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.workers_alive, 2);
        assert!((s.worker_gap_ms - 7.0).abs() < 1e-9);
        // Second sample with no new activity: rates drop to zero.
        std::thread::sleep(Duration::from_millis(2));
        hub.sample(&mut cursor);
        let s2 = &hub.flight()[1];
        assert_eq!(s2.tasks_per_s, 0.0);
        assert_eq!(s2.lane_bytes_per_s[0], 0.0);
    }

    #[test]
    fn exporter_serves_all_endpoints() {
        let hub = test_hub();
        let exporter = Exporter::bind(
            &hub,
            &Arc::new(TraceRecorder::disabled()),
            TelemetryConfig::default().bind,
        )
        .unwrap();
        let addr = exporter.serve().unwrap();
        let get = |path: &str| -> (u16, String) {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut response = String::new();
            conn.read_to_string(&mut response).unwrap();
            let status: u16 = response
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap();
            let body = response
                .split_once("\r\n\r\n")
                .map(|(_, b)| b.to_string())
                .unwrap_or_default();
            (status, body)
        };

        let (status, body) = get("/health");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = get("/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE dtask_messages_total counter"));
        assert!(body.ends_with('\n'));

        let (status, body) = get("/snapshot.json");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert!(doc.get("messages").is_some());

        let (status, body) = get("/flight.json?x=1");
        assert_eq!(status, 200);
        assert!(Json::parse(&body).unwrap().get("samples").is_some());

        let (status, body) = get("/alerts.json");
        assert_eq!(status, 200);
        assert!(Json::parse(&body).unwrap().get("alerts").is_some());

        let (status, _) = get("/nope");
        assert_eq!(status, 404);
    }
}
