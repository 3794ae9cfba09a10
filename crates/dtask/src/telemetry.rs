//! Live telemetry plane: flight recorder, HTTP exporter, straggler detector.
//!
//! Everything else observability-wise in this runtime is post-mortem —
//! [`crate::trace::TraceRecorder::collect`] drains rings after the run and
//! [`crate::snapshot::StatsSnapshot`] is captured on demand. A production
//! in-transit cluster needs a *live* operator view while the simulation is
//! coupled. This module provides one, in three parts:
//!
//! * **Flight recorder.** A sampler thread captures counter deltas from
//!   [`crate::stats::SchedulerStats`] every [`TelemetryConfig::sample_every`]
//!   into a bounded time-series ring of [`FlightSample`]s: tasks/s reported,
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
//! All of it sits behind [`TelemetryConfig`] on
//! [`crate::ClusterConfig`], **off by default** with zero behavioral delta:
//! a disabled config spawns no threads, binds no socket, and hands the
//! scheduler and executors no hub to publish into.

use crate::json::Json;
use crate::key::Key;
use crate::net::{accept_until_stopped, stop_accepting};
use crate::snapshot::StatsSnapshot;
use crate::stats::{Counters, Metric, MsgClass, SchedulerStats, WireLane};
use crate::trace::TraceRecorder;
use crate::worker::Pinger;
use crossbeam::channel::RecvTimeoutError;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Live-telemetry configuration (part of [`crate::ClusterConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Run the telemetry plane? Off by default: no sampler thread, no
    /// socket, no detector — asserted byte-identical to seed behavior.
    pub enabled: bool,
    /// Flight-recorder sampling interval.
    pub sample_every: Duration,
    /// Serve the HTTP endpoints? (`enabled` must also be set.)
    pub serve_http: bool,
    /// TCP port for the exporter; `0` asks the OS for a free port
    /// ([`crate::Cluster::telemetry_addr`] reports what was bound).
    pub http_port: u16,
    /// Address the exporter binds. Loopback by default; set `0.0.0.0` (or a
    /// specific interface) so a remote scraper can reach a worker node's
    /// `/metrics` in multi-process deployments.
    pub bind_addr: std::net::IpAddr,
    /// Baseline samples required per op kind before flagging anything.
    pub straggler_min_samples: usize,
    /// Absolute duration floor in nanoseconds — executions faster than this
    /// are never stragglers regardless of baseline (keeps microsecond ops
    /// from flagging on scheduler jitter).
    pub straggler_min_ns: u64,
    /// Raise a [`AlertKind::QueueDepth`] alert when the per-interval
    /// ready-queue high watermark reaches this depth (rising edge only).
    pub queue_depth_alert: Option<u64>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            sample_every: Duration::from_millis(25),
            serve_http: true,
            http_port: 0,
            bind_addr: std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            straggler_min_samples: 8,
            straggler_min_ns: 1_000_000,
            queue_depth_alert: None,
        }
    }
}

impl TelemetryConfig {
    /// Telemetry on with the default sampling interval and exporter.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }
}

// ---- alerts -----------------------------------------------------------------

/// What kind of anomaly an [`Alert`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// A task execution exceeded k× its op-kind baseline.
    Straggler,
    /// The ready-queue high watermark crossed the configured depth.
    QueueDepth,
}

impl AlertKind {
    /// Stable snake_case name (JSON `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::Straggler => "straggler",
            AlertKind::QueueDepth => "queue_depth",
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
    /// Observed value (straggler: duration ms; queue: depth).
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
/// summarized by median/MAD at flag time (the window is small, so sorting a
/// copy on each observation is cheaper than maintaining order).
struct OpBaseline {
    window: VecDeque<u64>,
    samples: u64,
}

impl OpBaseline {
    fn median_mad(&self) -> (f64, f64) {
        let mut durs: Vec<u64> = self.window.iter().copied().collect();
        durs.sort_unstable();
        let median = mid(&durs);
        let mut devs: Vec<u64> = durs
            .iter()
            .map(|&d| (d as f64 - median).abs() as u64)
            .collect();
        devs.sort_unstable();
        (median, mid(&devs))
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

/// What one sampler keeps between two `sample` calls: when it last ran and
/// every counter as captured then, so a rate is `(now - prev) / dt` of any
/// registry row.
struct SamplerCursor {
    t_prev: Instant,
    prev: Counters<u64>,
}

impl SamplerCursor {
    fn new() -> Self {
        SamplerCursor {
            t_prev: Instant::now(),
            prev: Counters::default(),
        }
    }
}

// ---- the hub ----------------------------------------------------------------

/// Shared live-telemetry state: scheduler-published gauges, the straggler
/// detector, and the bounded flight/alert rings. One per cluster, handed to
/// the scheduler, every executor slot, the sampler thread, and the HTTP
/// exporter. Absent entirely (no `Arc`, no atomics touched) when telemetry
/// is off.
pub struct TelemetryHub {
    config: TelemetryConfig,
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
    // Rising-edge latch for the queue-depth alert (avoids one alert per
    // sample while the condition persists).
    queue_latched: AtomicBool,
}

impl TelemetryHub {
    /// Fresh hub (the config is assumed `enabled`; a disabled config should
    /// never construct one).
    pub fn new(config: TelemetryConfig, stats: Arc<SchedulerStats>) -> Self {
        TelemetryHub {
            config,
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
            queue_latched: AtomicBool::new(false),
        }
    }

    /// The config this hub runs under.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
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
            let base = baselines
                .entry(op.to_string())
                .or_insert_with(|| OpBaseline {
                    window: VecDeque::with_capacity(STRAGGLER_WINDOW),
                    samples: 0,
                });
            let flagged = base.samples >= self.config.straggler_min_samples as u64
                && dur_ns >= self.config.straggler_min_ns
                && {
                    let (median, mad) = base.median_mad();
                    let threshold = (STRAGGLER_K * median).max(median + 4.0 * 1.4826 * mad);
                    dur_ns as f64 > threshold
                };
            if base.window.len() == STRAGGLER_WINDOW {
                base.window.pop_front();
            }
            base.window.push_back(dur_ns);
            base.samples += 1;
            flagged
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

    /// Take one flight sample: counter deltas since `cursor`, gauge reads,
    /// threshold-alert checks. Called by the sampler thread.
    fn sample(&self, cursor: &mut SamplerCursor) {
        let now = Instant::now();
        let dt = now.saturating_duration_since(cursor.t_prev);
        let dt_s = dt.as_secs_f64().max(1e-9);
        cursor.t_prev = now;

        let now = self.stats.capture();
        let prev = &cursor.prev;
        let per_s = |read: &dyn Fn(&Counters<u64>) -> u64| (read(&now) - read(prev)) as f64 / dt_s;
        let scalar_per_s = |metric: Metric| per_s(&|c| c.get(metric));

        let queue_depth_peak = self.queue_depth_peak.swap(0, Ordering::Relaxed);
        let worker_gap_ns = self.worker_gap_ns.load(Ordering::Relaxed);
        let client_gap_ns = self.client_gap_ns.load(Ordering::Relaxed);
        let sample = FlightSample {
            t_ms: self.now_ms(),
            dt_ms: dt.as_nanos() as f64 / 1e6,
            tasks_per_s: per_s(&|c| c.count(MsgClass::TaskReport)),
            lane_bytes_per_s: WireLane::ALL.map(|lane| per_s(&|c| c.wire_bytes(lane))),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_peak,
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

        if let Some(depth) = self.config.queue_depth_alert {
            self.edge_alert(
                &self.queue_latched,
                queue_depth_peak >= depth,
                Alert {
                    kind: AlertKind::QueueDepth,
                    t_ms: sample.t_ms,
                    key: None,
                    worker: None,
                    value: queue_depth_peak as f64,
                    threshold: depth as f64,
                },
            );
        }

        let mut flight = self.flight.lock();
        if flight.len() == FLIGHT_CAPACITY {
            flight.pop_front();
            self.flight_evicted.fetch_add(1, Ordering::Relaxed);
        }
        flight.push_back(sample);
    }

    /// Raise `alert` only on the rising edge of `condition`.
    fn edge_alert(&self, latch: &AtomicBool, condition: bool, alert: Alert) {
        if condition {
            if !latch.swap(true, Ordering::Relaxed) {
                self.raise(alert);
            }
        } else {
            latch.store(false, Ordering::Relaxed);
        }
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
            .set(
                "sample_every_ms",
                self.config.sample_every.as_nanos() as f64 / 1e6,
            )
            .set("evicted", self.flight_evicted())
            .set(
                "samples",
                Json::Arr(self.flight().iter().map(FlightSample::to_json).collect()),
            )
    }
}

/// The telemetry plane's threads: the flight sampler and, when
/// [`TelemetryConfig::serve_http`] is set, the HTTP exporter. Dropping the
/// value stops and joins both; the sampler takes one final sample on the
/// way out, so short runs always leave a non-empty flight.
pub(crate) struct TelemetryThreads {
    sampler: Option<Pinger>,
    exporter: Option<Exporter>,
}

struct Exporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl TelemetryThreads {
    /// Spawn the sampler and (optionally) bind and serve the exporter. On
    /// an error the threads already running are stopped before it returns.
    pub(crate) fn spawn(
        hub: &Arc<TelemetryHub>,
        stats: &Arc<SchedulerStats>,
        tracer: &Arc<TraceRecorder>,
    ) -> std::io::Result<TelemetryThreads> {
        let sampler_hub = Arc::clone(hub);
        let mut threads = TelemetryThreads {
            sampler: Some(Pinger::spawn_with(
                "dtask-telemetry-sampler".into(),
                move |stop| {
                    let mut cursor = SamplerCursor::new();
                    while let Err(RecvTimeoutError::Timeout) =
                        stop.recv_timeout(sampler_hub.config.sample_every)
                    {
                        sampler_hub.sample(&mut cursor);
                    }
                    sampler_hub.sample(&mut cursor);
                },
            )?),
            exporter: None,
        };
        if hub.config.serve_http {
            let listener = TcpListener::bind((hub.config.bind_addr, hub.config.http_port))?;
            let addr = listener.local_addr()?;
            let stop = Arc::new(AtomicBool::new(false));
            let (hub, stats, tracer, flag) = (
                Arc::clone(hub),
                Arc::clone(stats),
                Arc::clone(tracer),
                Arc::clone(&stop),
            );
            let thread = std::thread::Builder::new()
                .name("dtask-telemetry-http".into())
                .spawn(move || {
                    // One request per connection (scrape traffic; no
                    // keep-alive).
                    accept_until_stopped(&listener, &flag, |stream, _| {
                        handle_request(stream, &hub, &stats, &tracer)
                    })
                })?;
            threads.exporter = Some(Exporter { addr, stop, thread });
        }
        Ok(threads)
    }

    /// Where the HTTP exporter is listening, if it is serving.
    pub(crate) fn addr(&self) -> Option<SocketAddr> {
        self.exporter.as_ref().map(|e| e.addr)
    }
}

impl Drop for TelemetryThreads {
    fn drop(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
        if let Some(exporter) = self.exporter.take() {
            stop_accepting(&exporter.stop, exporter.addr);
            let _ = exporter.thread.join();
        }
    }
}

fn handle_request(
    mut stream: TcpStream,
    hub: &TelemetryHub,
    stats: &SchedulerStats,
    tracer: &TraceRecorder,
) {
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
            let body = StatsSnapshot::capture_with_tracer(stats, tracer).to_prometheus();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            );
        }
        "/snapshot.json" => {
            let body = StatsSnapshot::capture_with_tracer(stats, tracer)
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

    fn test_hub(config: TelemetryConfig) -> Arc<TelemetryHub> {
        Arc::new(TelemetryHub::new(config, Arc::new(SchedulerStats::new())))
    }

    #[test]
    fn config_defaults_off() {
        let config = TelemetryConfig::default();
        assert!(!config.enabled);
        assert!(TelemetryConfig::enabled().enabled);
        assert_eq!(config.sample_every, Duration::from_millis(25));
    }

    #[test]
    fn straggler_detector_flags_deterministically() {
        let config = TelemetryConfig {
            straggler_min_samples: 4,
            straggler_min_ns: 0,
            ..TelemetryConfig::enabled()
        };
        let hub = test_hub(config);
        let key = Key::new("t");
        // Build a tight baseline; nothing flags while it forms.
        for _ in 0..8 {
            assert!(!hub.observe_exec("sum", &key, 0, 1_000));
        }
        // Small jitter stays unflagged (within k×median).
        assert!(!hub.observe_exec("sum", &key, 0, 2_000));
        // A 50× outlier flags: counter + alert with the task key.
        let slow = Key::new("slow");
        assert!(hub.observe_exec("sum", &slow, 1, 50_000));
        assert_eq!(hub.stats.stragglers_flagged(), 1);
        let alerts = hub.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Straggler);
        assert_eq!(alerts[0].key.as_deref(), Some("slow"));
        assert_eq!(alerts[0].worker, Some(1));
        // A different op kind has its own (empty) baseline: never flags.
        assert!(!hub.observe_exec("matmul", &key, 0, 50_000));
    }

    #[test]
    fn straggler_respects_min_duration_floor() {
        let config = TelemetryConfig {
            straggler_min_samples: 2,
            straggler_min_ns: 1_000_000,
            ..TelemetryConfig::enabled()
        };
        let hub = test_hub(config);
        let key = Key::new("t");
        for _ in 0..8 {
            hub.observe_exec("sum", &key, 0, 100);
        }
        // 100× the baseline but under the 1 ms floor: not a straggler.
        assert!(!hub.observe_exec("sum", &key, 0, 10_000));
        assert_eq!(hub.alerts_total(), 0);
    }

    #[test]
    fn threshold_alerts_fire_on_rising_edge_only() {
        let config = TelemetryConfig {
            queue_depth_alert: Some(10),
            ..TelemetryConfig::enabled()
        };
        let hub = test_hub(config);
        let mut cursor = SamplerCursor::new();
        hub.publish_scheduler(15, 2, 0, 0, 0);
        hub.sample(&mut cursor); // crossing: one alert
        hub.publish_scheduler(20, 2, 0, 0, 0);
        hub.sample(&mut cursor); // still high: latched, no new alert
        hub.publish_scheduler(1, 2, 0, 0, 0);
        hub.sample(&mut cursor); // back below: latch resets
        hub.publish_scheduler(12, 2, 0, 0, 0);
        hub.sample(&mut cursor); // second crossing: second alert
        let alerts = hub.alerts();
        assert_eq!(alerts.len(), 2);
        assert!(alerts.iter().all(|a| a.kind == AlertKind::QueueDepth));
        assert_eq!(alerts[0].value, 15.0);
        assert_eq!(alerts[1].value, 12.0);
    }

    #[test]
    fn flight_ring_is_bounded_and_counts_evictions() {
        let hub = test_hub(TelemetryConfig::enabled());
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
        let hub = test_hub(TelemetryConfig::enabled());
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
        let hub = test_hub(TelemetryConfig::enabled());
        let threads = TelemetryThreads::spawn(
            &hub,
            &Arc::clone(&hub.stats),
            &Arc::new(TraceRecorder::disabled()),
        )
        .unwrap();
        let addr = threads.addr().unwrap();
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

        drop(threads);
        assert!(!hub.flight().is_empty(), "final sample taken at stop");
    }
}
