//! End-to-end task-lifecycle tracing.
//!
//! The paper's argument is about *where time and messages go* — contract
//! setup vs per-timestep metadata, gather vs compute, scheduler occupancy.
//! The aggregate counters in [`crate::stats::SchedulerStats`] measure the
//! totals; this module records the **per-event timeline** underneath them:
//! every task and external block's lifecycle
//!
//! ```text
//! submit → optimize → ready → assign → gather(per dep) → exec → report → gather-to-client
//! ```
//!
//! plus bridge-side events (contract setup, per-timestep block publish,
//! DEISA1 scatter/queue ops), each stamped with monotonic nanoseconds since
//! the recorder epoch.
//!
//! Design:
//! * **One bounded buffer per actor.** Actors are the scheduler thread,
//!   every worker executor slot, and every client/bridge. Recording pushes
//!   onto the owner's mutex-guarded `Vec` (uncontended but for the shared
//!   transport track); buffers are drained only on snapshot
//!   ([`TraceRecorder::collect`]). A full buffer drops the newest event and
//!   counts it — tracing never blocks on a consumer.
//! * **Disabled ⇒ zero cost.** With [`TraceConfig::enabled`]`= false` every
//!   [`TraceHandle`] is empty: `start()` returns `None` without reading the
//!   clock and `span`/`instant` return after one branch — no allocation, no
//!   atomic, no fence on the hot path.
//! * **Exporters.** [`TraceLog::to_chrome_json`] emits Chrome trace-event
//!   JSON (open in Perfetto / `chrome://tracing`; one row per worker slot +
//!   scheduler + each client/bridge) and [`TraceLog::phase_report`] walks the
//!   spans to attribute end-to-end makespan to {contract setup,
//!   external-data wait, gather, compute, scheduler occupancy}.

use crate::json::Json;
use crate::key::Key;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Event-recording configuration (part of [`crate::ClusterConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record lifecycle events? Off by default: a disabled recorder hands
    /// out empty handles whose record calls are a single branch.
    pub enabled: bool,
    /// Buffer capacity per actor, in events (rounded up to a power of two).
    /// A full buffer drops the newest event and counts the drop.
    pub capacity_per_actor: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity_per_actor: 1 << 14,
        }
    }
}

impl TraceConfig {
    /// Tracing on with the default per-actor capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// Who recorded an event (one buffer — one Chrome trace row — per actor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceActor {
    /// The scheduler thread.
    Scheduler,
    /// One executor slot of one worker.
    WorkerSlot {
        /// Worker id.
        worker: usize,
        /// Slot index within the worker.
        slot: usize,
    },
    /// A client — analytics clients and bridges both connect as clients;
    /// bridges relabel their track via [`TraceHandle::set_label`].
    Client {
        /// Client id.
        id: usize,
    },
    /// The transport router (the coded backends record per-message
    /// wire sizes here; senders on any thread share this one track).
    Transport,
    /// One worker's object store (the data server thread records store
    /// hit/miss/spill/fetch events here).
    Store {
        /// Worker id.
        worker: usize,
    },
}

/// Task/block lifecycle event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Client submitted a graph (instant; arg = specs sent).
    Submit,
    /// Ahead-of-time graph optimization (span; arg = tasks out).
    Optimize,
    /// Client registered external tasks (instant; arg = keys).
    RegisterExternal,
    /// Scheduler saw all deps of a task in memory (instant; key).
    TaskReady,
    /// Scheduler assigned a task to a worker (instant; key, arg = worker).
    Assign,
    /// One scheduler placement pass (span; arg = tasks assigned).
    AssignPass,
    /// One scheduler inbox burst handled (span; arg = messages).
    Ingest,
    /// One remote dependency fetched from a peer (span; key = dep,
    /// arg = peer worker asked).
    GatherDep,
    /// Whole dependency gather of one task (span; arg = remote deps).
    GatherBatch,
    /// Task op/fused-chain computation (span; key, arg = worker).
    Exec,
    /// Scheduler received a task completion/error report (instant; key,
    /// arg = worker).
    Report,
    /// Client fetched a result payload from a worker (span; key,
    /// arg = bytes).
    GatherToClient,
    /// Classic scatter (span; key = first key, arg = payload bytes).
    Scatter,
    /// Extended external scatter of §2.2 (span; key = first key,
    /// arg = payload bytes).
    ScatterExternal,
    /// Contract setup step — descriptor publish/wait, contract sign/wait
    /// (span; arg = rank or 0).
    ContractSetup,
    /// Per-timestep block publish by a bridge (span; key = block,
    /// arg = timestep).
    Publish,
    /// Distributed queue op (instant; arg = 0 push / 1 pop).
    QueueOp,
    /// One framed transport message sent (instant; arg = serialized
    /// bytes-on-the-wire). Only the coded backends emit these.
    WireSend,
    /// The liveness sweep declared a peer dead (instant; arg = worker id,
    /// or `u64::MAX - client id` for client peers).
    PeerLost,
    /// A task was re-queued after a peer loss (instant; key = task,
    /// arg = retry attempt number).
    Resubmit,
    /// Object store evicted an entry to disk under its memory budget
    /// (span; key = entry, arg = payload bytes written).
    StoreSpill,
    /// Object store restored a spilled entry into memory on access
    /// (span; key = entry, arg = payload bytes read).
    StoreRestore,
    /// Object store get of an absent key (instant; key).
    StoreMiss,
    /// A data server answered a peer/client `Fetch` of a store entry
    /// (instant; key = entry, arg = payload bytes served).
    StoreFetch,
    /// A consumer resolved a proxy handle via a data-lane fetch to its
    /// holder (span; key = entry, arg = payload bytes received).
    ProxyFetch,
    /// A queued assignment was re-pointed from a loaded victim to an idle
    /// thief (instant; key = task, arg = thief worker id).
    Steal,
    /// The online anomaly detector flagged a task execution as a straggler —
    /// its exec duration exceeded k× the robust per-op baseline (instant;
    /// key = task, arg = exec duration in nanoseconds).
    Straggler,
}

impl EventKind {
    /// Stable name (Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Submit => "submit",
            EventKind::Optimize => "optimize",
            EventKind::RegisterExternal => "register_external",
            EventKind::TaskReady => "ready",
            EventKind::Assign => "assign",
            EventKind::AssignPass => "assign_pass",
            EventKind::Ingest => "ingest",
            EventKind::GatherDep => "gather_dep",
            EventKind::GatherBatch => "gather",
            EventKind::Exec => "exec",
            EventKind::Report => "report",
            EventKind::GatherToClient => "gather_to_client",
            EventKind::Scatter => "scatter",
            EventKind::ScatterExternal => "scatter_external",
            EventKind::ContractSetup => "contract_setup",
            EventKind::Publish => "publish",
            EventKind::QueueOp => "queue_op",
            EventKind::WireSend => "wire_send",
            EventKind::PeerLost => "peer_lost",
            EventKind::Resubmit => "resubmit",
            EventKind::StoreSpill => "store_spill",
            EventKind::StoreRestore => "store_restore",
            EventKind::StoreMiss => "store_miss",
            EventKind::StoreFetch => "store_fetch",
            EventKind::ProxyFetch => "proxy_fetch",
            EventKind::Steal => "steal",
            EventKind::Straggler => "straggler",
        }
    }

    /// Name of the kind-specific `arg` payload (Chrome `args` field).
    fn arg_name(self) -> &'static str {
        match self {
            EventKind::Submit => "tasks",
            EventKind::Optimize => "tasks_out",
            EventKind::RegisterExternal => "keys",
            EventKind::TaskReady => "seq",
            EventKind::Assign | EventKind::Exec | EventKind::Report | EventKind::Steal => "worker",
            EventKind::AssignPass => "assigned",
            EventKind::Ingest => "messages",
            EventKind::GatherDep => "peer",
            EventKind::GatherBatch => "remote_deps",
            EventKind::GatherToClient | EventKind::Scatter | EventKind::ScatterExternal => "bytes",
            EventKind::ContractSetup => "rank",
            EventKind::Publish => "timestep",
            EventKind::QueueOp => "pop",
            EventKind::WireSend => "bytes",
            EventKind::PeerLost => "peer",
            EventKind::Resubmit => "retry",
            EventKind::StoreSpill
            | EventKind::StoreRestore
            | EventKind::StoreFetch
            | EventKind::ProxyFetch => "bytes",
            EventKind::StoreMiss => "seq",
            EventKind::Straggler => "dur_ns",
        }
    }
}

/// One recorded event. `dur_ns == 0` marks an instant.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Nanoseconds since the recorder epoch (span start for spans).
    pub t_ns: u64,
    /// Span duration (0 for instants).
    pub dur_ns: u64,
    /// The task/block key, when the event concerns one.
    pub key: Option<Key>,
    /// Kind-specific payload (see [`EventKind::arg_name`]).
    pub arg: u64,
}

// ---- bounded per-actor buffer -----------------------------------------------

struct BufferState {
    events: Vec<TraceEvent>,
    /// Events discarded because the buffer was full at push time.
    dropped: u64,
    /// Optional display label for this actor's trace row (e.g. a bridge
    /// rank); set off the hot path, read only at export.
    label: Option<String>,
}

/// One actor's recorded events: a locked `Vec` that holds at most `cap`
/// events between two drains. A push into a full buffer drops the event
/// and counts it.
struct EventBuffer {
    cap: usize,
    state: Mutex<BufferState>,
}

impl EventBuffer {
    fn new(capacity: usize) -> Self {
        EventBuffer {
            cap: capacity.next_power_of_two().max(2),
            state: Mutex::new(BufferState {
                events: Vec::new(),
                dropped: 0,
                label: None,
            }),
        }
    }

    fn push(&self, event: TraceEvent) {
        let mut state = self.state.lock();
        if state.events.len() < self.cap {
            state.events.push(event);
        } else {
            state.dropped += 1;
        }
    }
}

// ---- recorder & handles ----------------------------------------------------

struct Registered {
    actor: TraceActor,
    buffer: Arc<EventBuffer>,
}

struct TraceShared {
    epoch: Instant,
    capacity: usize,
    actors: Mutex<Vec<Registered>>,
}

/// The cluster-wide trace recorder. Disabled recorders are inert and free.
pub struct TraceRecorder {
    shared: Option<Arc<TraceShared>>,
}

impl TraceRecorder {
    /// Build from config. `enabled: false` yields an inert recorder.
    pub fn new(config: TraceConfig) -> Self {
        TraceRecorder {
            shared: config.enabled.then(|| {
                Arc::new(TraceShared {
                    epoch: Instant::now(),
                    capacity: config.capacity_per_actor,
                    actors: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    /// An always-disabled recorder.
    pub fn disabled() -> Self {
        TraceRecorder { shared: None }
    }

    /// Is event recording on?
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Register an actor; returns its recording handle (empty when the
    /// recorder is disabled). Called at actor construction, never on the hot
    /// path.
    pub fn register(&self, actor: TraceActor) -> TraceHandle {
        let Some(shared) = &self.shared else {
            return TraceHandle { inner: None };
        };
        let buffer = Arc::new(EventBuffer::new(shared.capacity));
        shared.actors.lock().push(Registered {
            actor,
            buffer: Arc::clone(&buffer),
        });
        TraceHandle {
            inner: Some(HandleInner {
                epoch: shared.epoch,
                buffer,
            }),
        }
    }

    /// Total events lost to full buffers across every registered actor, without
    /// draining anything. Snapshots surface this so a clipped trace is never
    /// mistaken for a complete one.
    pub fn dropped_total(&self) -> u64 {
        let Some(shared) = &self.shared else {
            return 0;
        };
        shared
            .actors
            .lock()
            .iter()
            .map(|r| r.buffer.state.lock().dropped)
            .sum()
    }

    /// Drain every actor's buffer into a [`TraceLog`] snapshot. Events
    /// recorded after the drain belong to the next `collect` call.
    pub fn collect(&self) -> TraceLog {
        let mut tracks = Vec::new();
        if let Some(shared) = &self.shared {
            for reg in shared.actors.lock().iter() {
                let (mut events, label, dropped) = {
                    let mut state = reg.buffer.state.lock();
                    let events = std::mem::take(&mut state.events);
                    (events, state.label.clone(), state.dropped)
                };
                events.sort_by_key(|e| e.t_ns);
                tracks.push(TraceTrack {
                    actor: reg.actor,
                    label,
                    dropped,
                    events,
                });
            }
        }
        TraceLog { tracks }
    }
}

struct HandleInner {
    epoch: Instant,
    buffer: Arc<EventBuffer>,
}

/// Per-actor recording handle. Cloning shares the buffer.
pub struct TraceHandle {
    inner: Option<HandleInner>,
}

impl Clone for TraceHandle {
    fn clone(&self) -> Self {
        TraceHandle {
            inner: self.inner.as_ref().map(|i| HandleInner {
                epoch: i.epoch,
                buffer: Arc::clone(&i.buffer),
            }),
        }
    }
}

impl TraceHandle {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        TraceHandle { inner: None }
    }

    /// Is this handle recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Name this actor's trace row (e.g. `bridge-rank0`). No-op when
    /// disabled; cold path.
    pub fn set_label(&self, label: impl Into<String>) {
        if let Some(inner) = &self.inner {
            inner.buffer.state.lock().label = Some(label.into());
        }
    }

    /// Span start marker: reads the clock only when recording is on, so the
    /// disabled hot path never touches the clock.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Record a span opened by [`TraceHandle::start`]. When `started` is
    /// `None` (disabled recorder) this is a single branch.
    #[inline]
    pub fn span(&self, kind: EventKind, started: Option<Instant>, key: Option<&Key>, arg: u64) {
        let (Some(inner), Some(t0)) = (&self.inner, started) else {
            return;
        };
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let t_ns = t0.saturating_duration_since(inner.epoch).as_nanos() as u64;
        inner.buffer.push(TraceEvent {
            kind,
            t_ns,
            dur_ns,
            key: key.cloned(),
            arg,
        });
    }

    /// Record an instant event. Single branch when disabled.
    #[inline]
    pub fn instant(&self, kind: EventKind, key: Option<&Key>, arg: u64) {
        let Some(inner) = &self.inner else {
            return;
        };
        let t_ns = inner.epoch.elapsed().as_nanos() as u64;
        inner.buffer.push(TraceEvent {
            kind,
            t_ns,
            dur_ns: 0,
            key: key.cloned(),
            arg,
        });
    }
}

// ---- collected log, Chrome export, phase report ----------------------------

/// All events of one actor, drained at snapshot time.
pub struct TraceTrack {
    /// Who recorded these events.
    pub actor: TraceActor,
    /// Optional display label (bridges name themselves).
    pub label: Option<String>,
    /// Events lost to a full buffer.
    pub dropped: u64,
    /// Events sorted by start time.
    pub events: Vec<TraceEvent>,
}

impl TraceTrack {
    fn display_name(&self) -> String {
        if let Some(label) = &self.label {
            return label.clone();
        }
        match self.actor {
            TraceActor::Scheduler => "scheduler".into(),
            TraceActor::WorkerSlot { worker, slot } => format!("w{worker}/slot{slot}"),
            TraceActor::Client { id } => format!("client-{id}"),
            TraceActor::Transport => "transport".into(),
            TraceActor::Store { worker } => format!("w{worker}/store"),
        }
    }
}

/// Chrome process ids: one process per actor family, so Perfetto groups the
/// scheduler, the worker slots, and the clients/bridges into three lanes.
const PID_SCHEDULER: u64 = 1;
const PID_WORKERS: u64 = 2;
const PID_CLIENTS: u64 = 3;
const PID_TRANSPORT: u64 = 4;

fn chrome_ids(actor: TraceActor) -> (u64, u64) {
    match actor {
        TraceActor::Scheduler => (PID_SCHEDULER, 0),
        TraceActor::WorkerSlot { worker, slot } => {
            (PID_WORKERS, ((worker as u64) << 8) | slot as u64)
        }
        TraceActor::Client { id } => (PID_CLIENTS, id as u64),
        TraceActor::Transport => (PID_TRANSPORT, 0),
        // Store tracks live in the workers lane, below every slot of their
        // worker (slot tids are small; 0xFF keeps the row distinct).
        TraceActor::Store { worker } => (PID_WORKERS, ((worker as u64) << 8) | 0xFF),
    }
}

/// A drained trace snapshot.
pub struct TraceLog {
    /// One track per registered actor.
    pub tracks: Vec<TraceTrack>,
}

impl TraceLog {
    /// Total events across all tracks.
    pub fn n_events(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Events of one kind across all tracks.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = (&TraceTrack, &TraceEvent)> {
        self.tracks.iter().flat_map(move |t| {
            t.events
                .iter()
                .filter(move |e| e.kind == kind)
                .map(move |e| (t, e))
        })
    }

    /// Export as a Chrome trace-event document (load the written file in
    /// Perfetto or `chrome://tracing`). Timestamps are microseconds.
    pub fn to_chrome_json(&self) -> Json {
        let mut events: Vec<Json> = Vec::with_capacity(self.n_events() + 2 * self.tracks.len() + 3);
        for (pid, name) in [
            (PID_SCHEDULER, "scheduler"),
            (PID_WORKERS, "workers"),
            (PID_CLIENTS, "clients+bridges"),
        ] {
            events.push(
                Json::obj()
                    .set("ph", "M")
                    .set("name", "process_name")
                    .set("pid", pid)
                    .set("tid", 0u64)
                    .set("args", Json::obj().set("name", name)),
            );
        }
        for track in &self.tracks {
            let (pid, tid) = chrome_ids(track.actor);
            events.push(
                Json::obj()
                    .set("ph", "M")
                    .set("name", "thread_name")
                    .set("pid", pid)
                    .set("tid", tid)
                    .set("args", Json::obj().set("name", track.display_name())),
            );
            for e in &track.events {
                let mut args = Json::obj();
                if let Some(key) = &e.key {
                    args = args.set("key", key.as_str());
                }
                args = args.set(e.kind.arg_name(), e.arg);
                if track.dropped > 0 {
                    // Stamp once would do, but per-event is simpler to read.
                    args = args.set("ring_dropped", track.dropped);
                }
                let mut ev = Json::obj()
                    .set("name", e.kind.name())
                    .set("cat", "dtask")
                    .set("pid", pid)
                    .set("tid", tid)
                    .set("ts", e.t_ns as f64 / 1e3);
                if e.dur_ns == 0 {
                    ev = ev.set("ph", "i").set("s", "t");
                } else {
                    ev = ev.set("ph", "X").set("dur", e.dur_ns as f64 / 1e3);
                }
                events.push(ev.set("args", args));
            }
        }
        Json::obj()
            .set("traceEvents", Json::Arr(events))
            .set("displayTimeUnit", "ms")
    }

    /// Write the Chrome trace to a file (pretty JSON).
    pub fn write_chrome(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json().to_string_pretty())
    }

    /// Attribute the traced makespan to phases (see [`PhaseReport`]). The
    /// phases partition the makespan exactly: every nanosecond between the
    /// first and last event is attributed to exactly one phase, by priority
    /// compute > gather > scheduler > contract setup when spans overlap.
    pub fn phase_report(&self) -> PhaseReport {
        #[derive(Clone, Copy, PartialEq)]
        enum Cat {
            Compute = 0,
            Gather = 1,
            Sched = 2,
            Contract = 3,
        }
        let cat_of = |kind: EventKind| -> Option<Cat> {
            match kind {
                EventKind::Exec => Some(Cat::Compute),
                EventKind::GatherDep | EventKind::GatherBatch | EventKind::GatherToClient => {
                    Some(Cat::Gather)
                }
                EventKind::AssignPass | EventKind::Ingest | EventKind::Optimize => Some(Cat::Sched),
                EventKind::ContractSetup => Some(Cat::Contract),
                _ => None,
            }
        };

        let dropped: u64 = self.tracks.iter().map(|t| t.dropped).sum();
        let mut t_min = u64::MAX;
        let mut t_max = 0u64;
        let mut ext_deadline = 0u64; // last external block arrival
        let mut deltas: Vec<(u64, usize, i64)> = Vec::new();
        for track in &self.tracks {
            for e in &track.events {
                let end = e.t_ns + e.dur_ns;
                t_min = t_min.min(e.t_ns);
                t_max = t_max.max(end);
                if matches!(e.kind, EventKind::ScatterExternal | EventKind::Publish) {
                    ext_deadline = ext_deadline.max(end);
                }
                if let Some(cat) = cat_of(e.kind) {
                    if e.dur_ns > 0 {
                        deltas.push((e.t_ns, cat as usize, 1));
                        deltas.push((end, cat as usize, -1));
                    }
                }
            }
        }
        if t_min > t_max {
            // Empty log — but dropped events still deserve the caveat.
            return PhaseReport {
                dropped,
                ..PhaseReport::default()
            };
        }
        // Segment boundaries: every span edge plus the external deadline, so
        // no segment straddles the external-wait cutoff.
        let mut points: Vec<u64> = deltas.iter().map(|&(t, _, _)| t).collect();
        points.push(t_min);
        points.push(t_max);
        if ext_deadline > 0 {
            points.push(ext_deadline);
        }
        points.sort_unstable();
        points.dedup();
        deltas.sort_unstable_by_key(|&(t, _, _)| t);

        let mut report = PhaseReport {
            makespan_ns: t_max - t_min,
            dropped,
            ..PhaseReport::default()
        };
        let mut active = [0i64; 4];
        let mut di = 0usize;
        for w in points.windows(2) {
            let (a, b) = (w[0], w[1]);
            while di < deltas.len() && deltas[di].0 <= a {
                active[deltas[di].1] += deltas[di].2;
                di += 1;
            }
            let len = b - a;
            if active[Cat::Compute as usize] > 0 {
                report.compute_ns += len;
            } else if active[Cat::Gather as usize] > 0 {
                report.gather_ns += len;
            } else if active[Cat::Sched as usize] > 0 {
                report.scheduler_ns += len;
            } else if active[Cat::Contract as usize] > 0 {
                report.contract_setup_ns += len;
            } else if b <= ext_deadline {
                report.external_wait_ns += len;
            } else {
                report.other_ns += len;
            }
        }
        report
    }
}

/// Phase attribution of the traced makespan. The six phase fields are a
/// partition: they sum to [`PhaseReport::makespan_ns`] exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseReport {
    /// First event start → last event end.
    pub makespan_ns: u64,
    /// Contract-setup spans (descriptor/contract variable waits) with no
    /// higher-priority work running.
    pub contract_setup_ns: u64,
    /// Idle time before the last external block arrived — waiting on the
    /// external environment.
    pub external_wait_ns: u64,
    /// Dependency gathers (worker peer fetches + client result gathers).
    pub gather_ns: u64,
    /// Task computation (op / fused-chain execution).
    pub compute_ns: u64,
    /// Scheduler occupancy (placement passes, inbox bursts, graph
    /// optimization) not overlapped by worker activity.
    pub scheduler_ns: u64,
    /// Idle after the last external block (e.g. shutdown straggle).
    pub other_ns: u64,
    /// Events lost to full buffers across the drained tracks. When nonzero the
    /// phase attribution under-counts whatever the dropped spans covered.
    pub dropped: u64,
}

impl PhaseReport {
    /// Sum of the six phase fields (equals `makespan_ns` by construction).
    pub fn phases_total_ns(&self) -> u64 {
        self.contract_setup_ns
            + self.external_wait_ns
            + self.gather_ns
            + self.compute_ns
            + self.scheduler_ns
            + self.other_ns
    }

    /// Render the per-phase breakdown as an aligned text table.
    pub fn to_table(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let pct = |ns: u64| {
            if self.makespan_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / self.makespan_ns as f64
            }
        };
        let mut out = String::new();
        out.push_str(&format!(
            "critical-path phase report (makespan {:.3} ms)\n",
            ms(self.makespan_ns)
        ));
        for (name, ns) in [
            ("contract setup", self.contract_setup_ns),
            ("external-data wait", self.external_wait_ns),
            ("gather", self.gather_ns),
            ("compute", self.compute_ns),
            ("scheduler occupancy", self.scheduler_ns),
            ("other idle", self.other_ns),
        ] {
            out.push_str(&format!(
                "  {name:<20} {:>10.3} ms  {:>5.1}%\n",
                ms(ns),
                pct(ns)
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "  CAVEAT: {} trace event(s) dropped by full buffers — phases under-counted\n",
                self.dropped
            ));
        }
        out
    }

    /// JSON rendering (same schema as the snapshot documents).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("makespan_ns", self.makespan_ns)
            .set("contract_setup_ns", self.contract_setup_ns)
            .set("external_wait_ns", self.external_wait_ns)
            .set("gather_ns", self.gather_ns)
            .set("compute_ns", self.compute_ns)
            .set("scheduler_ns", self.scheduler_ns)
            .set("other_ns", self.other_ns)
            .set("dropped", self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, t_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            kind,
            t_ns,
            dur_ns,
            key: None,
            arg: 0,
        }
    }

    #[test]
    fn full_buffer_drops_and_counts_the_newest_events() {
        // Capacity 3 rounds up to 4: the fifth and later pushes are dropped.
        let buffer = EventBuffer::new(3);
        for i in 0..7u64 {
            buffer.push(ev(EventKind::Exec, i, 0));
        }
        let state = buffer.state.lock();
        assert_eq!(state.dropped, 3);
        let kept: Vec<u64> = state.events.iter().map(|e| e.t_ns).collect();
        assert_eq!(kept, [0, 1, 2, 3]);
    }

    #[test]
    fn collect_drains_fifo_across_calls() {
        let recorder = TraceRecorder::new(TraceConfig {
            enabled: true,
            capacity_per_actor: 4,
        });
        let h = recorder.register(TraceActor::Scheduler);
        let args =
            |log: TraceLog| -> Vec<u64> { log.tracks[0].events.iter().map(|e| e.arg).collect() };
        for i in 0..3u64 {
            h.instant(EventKind::Submit, None, i);
        }
        assert_eq!(args(recorder.collect()), [0, 1, 2]);
        // The drain freed the space: four more fit, the fifth is dropped.
        for i in 3..8u64 {
            h.instant(EventKind::Submit, None, i);
        }
        let log = recorder.collect();
        assert_eq!(log.tracks[0].dropped, 1);
        assert_eq!(args(log), [3, 4, 5, 6]);
    }

    #[test]
    fn concurrent_pushes_below_capacity_lose_nothing() {
        let recorder = TraceRecorder::new(TraceConfig {
            enabled: true,
            capacity_per_actor: 4 * 1000,
        });
        let h = recorder.register(TraceActor::Transport);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.instant(EventKind::WireSend, None, t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let log = recorder.collect();
        assert_eq!(log.tracks[0].dropped, 0);
        let mut args: Vec<u64> = log.tracks[0].events.iter().map(|e| e.arg).collect();
        args.sort_unstable();
        assert_eq!(args, (0..4000).collect::<Vec<_>>());
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = TraceRecorder::new(TraceConfig::default());
        assert!(!recorder.is_enabled());
        let handle = recorder.register(TraceActor::Scheduler);
        assert!(!handle.is_enabled());
        assert!(handle.start().is_none(), "no clock read when disabled");
        handle.instant(EventKind::Submit, None, 1);
        handle.span(EventKind::Exec, None, None, 0);
        assert_eq!(recorder.collect().n_events(), 0);
    }

    #[test]
    fn enabled_recorder_round_trips_events() {
        let recorder = TraceRecorder::new(TraceConfig::enabled());
        let sched = recorder.register(TraceActor::Scheduler);
        let slot = recorder.register(TraceActor::WorkerSlot { worker: 1, slot: 0 });
        let key = Key::new("k");
        sched.instant(EventKind::TaskReady, Some(&key), 0);
        let t0 = slot.start();
        assert!(t0.is_some());
        slot.span(EventKind::Exec, t0, Some(&key), 1);
        let log = recorder.collect();
        assert_eq!(log.n_events(), 2);
        let execs: Vec<_> = log.events_of(EventKind::Exec).collect();
        assert_eq!(execs.len(), 1);
        assert_eq!(execs[0].1.key.as_ref().unwrap().as_str(), "k");
        // Second collect sees only new events.
        assert_eq!(recorder.collect().n_events(), 0);
    }

    #[test]
    fn chrome_export_structure() {
        let recorder = TraceRecorder::new(TraceConfig::enabled());
        let h = recorder.register(TraceActor::WorkerSlot { worker: 0, slot: 2 });
        h.set_label("bridge-rank0");
        let t0 = h.start();
        h.span(EventKind::Exec, t0, Some(&Key::new("task-1")), 0);
        let doc = recorder.collect().to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 3 process_name + 1 thread_name + 1 span.
        assert_eq!(events.len(), 5);
        let span = events.last().unwrap();
        assert_eq!(span.get("name"), Some(&Json::Str("exec".into())));
        assert_eq!(span.get("ph"), Some(&Json::Str("X".into())));
        assert!(span.get("dur").is_some());
        let meta = &events[3];
        assert_eq!(meta.get("name"), Some(&Json::Str("thread_name".into())));
        assert_eq!(
            meta.get("args").and_then(|a| a.get("name")),
            Some(&Json::Str("bridge-rank0".into()))
        );
    }

    #[test]
    fn phase_report_partitions_makespan() {
        // Hand-built timeline: contract [0,10), ext wait [10,20) (uncovered,
        // publish ends at 20), gather [20,30), exec [30,50) overlapping a
        // sched pass [45,55), idle [55,60) after a final report at 60.
        let log = TraceLog {
            tracks: vec![TraceTrack {
                actor: TraceActor::Scheduler,
                label: None,
                dropped: 0,
                events: vec![
                    ev(EventKind::ContractSetup, 0, 10),
                    ev(EventKind::Publish, 18, 2),
                    ev(EventKind::GatherBatch, 20, 10),
                    ev(EventKind::Exec, 30, 20),
                    ev(EventKind::AssignPass, 45, 10),
                    ev(EventKind::Report, 60, 0),
                ],
            }],
        };
        let r = log.phase_report();
        assert_eq!(r.makespan_ns, 60);
        assert_eq!(r.phases_total_ns(), r.makespan_ns, "exact partition");
        assert_eq!(r.contract_setup_ns, 10);
        // Uncovered [10,18) is before the publish end (20) → external wait;
        // the publish span itself is uncovered-by-category but <= deadline.
        assert_eq!(r.external_wait_ns, 10);
        assert_eq!(r.gather_ns, 10);
        assert_eq!(r.compute_ns, 20);
        assert_eq!(r.scheduler_ns, 5, "only the part not overlapped by exec");
        assert_eq!(r.other_ns, 5);
        let table = r.to_table();
        assert!(table.contains("external-data wait"));
    }

    #[test]
    fn empty_log_reports_zero_makespan() {
        let log = TraceLog { tracks: vec![] };
        let r = log.phase_report();
        assert_eq!(r.makespan_ns, 0);
        assert_eq!(r.phases_total_ns(), 0);
    }

    #[test]
    fn dropped_total_counts_without_draining() {
        let recorder = TraceRecorder::new(TraceConfig {
            enabled: true,
            capacity_per_actor: 2,
        });
        let h = recorder.register(TraceActor::Scheduler);
        for i in 0..5u64 {
            h.instant(EventKind::Submit, None, i);
        }
        assert_eq!(recorder.dropped_total(), 3);
        // Non-draining: the buffer still holds its 2 events.
        let log = recorder.collect();
        assert_eq!(log.n_events(), 2);
        assert_eq!(log.phase_report().dropped, 3);
        assert!(TraceRecorder::disabled().dropped_total() == 0);
    }

    #[test]
    fn phase_table_warns_on_dropped_events() {
        let log_with = |dropped: u64| TraceLog {
            tracks: vec![TraceTrack {
                actor: TraceActor::Scheduler,
                label: None,
                dropped,
                events: vec![ev(EventKind::Exec, 0, 10)],
            }],
        };
        assert!(!log_with(0).phase_report().to_table().contains("CAVEAT"));
        let report = log_with(7).phase_report();
        assert_eq!(report.dropped, 7);
        let table = report.to_table();
        assert!(table.contains("CAVEAT"));
        assert!(table.contains('7'));
    }
}
