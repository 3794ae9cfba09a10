//! The centralized scheduler: task-state machine and placement.
//!
//! State machine (superset of Dask's, with the paper's addition):
//!
//! ```text
//!            register_external
//!    ┌──────────────────────────► External ──┐ update_data(external=true)
//!    │                                        ▼ (handled like task-finished)
//!  (new) ── submit ──► Waiting ──► Ready ──► Processing ──► Memory
//!    │                                        │
//!    └── scatter/update_data ─────────────────┴──► Erred
//! ```
//!
//! The crucial behaviour from §2.2 of the paper: when an `UpdateData` with
//! `external = true` arrives, the scheduler does **not** merely record the
//! data (classic `scatter`); it transitions the task `External → Memory` and
//! then runs the same dependent-unblocking cascade as `handle_task_finished`,
//! so graphs submitted *before the data existed* start flowing.
//!
//! # One core, three drivers
//!
//! This file is the **core**: [`Scheduler::step`] takes the state, a batch
//! of [`SchedMsg`]s and the current time, and sends what follows from them
//! into a [`Sink`]. It reads no clock, waits on no channel and owns no
//! thread, so whoever calls it decides what time it is and where the
//! messages go. Three drivers call it:
//!
//! * the live pump (`scheduler/pump.rs`): blocks on the scheduler inbox,
//!   drains a burst, reads the wall clock once and steps; its sink is the
//!   transport [`Endpoint`](crate::transport::Endpoint);
//! * the policy simulator (`insitu-sim::schedlab`, a configuration of the
//!   virtual cluster in `insitu-sim::vcore`): steps under a virtual clock
//!   and delivers the outbound messages to worker cores and object stores
//!   in the same thread;
//! * the paper's figures (`insitu-sim::simside`): steps under a virtual
//!   clock the bridges' and the adaptor's real messages, each charged a
//!   scheduler service time.

use crate::datum::Datum;
use crate::key::{Key, KeyMap, SessionId, DEFAULT_SESSION};
use crate::msg::{
    Assignment, ClientId, ClientMsg, DataMsg, ErrorCause, ExecMsg, SchedMsg, TaskError, WorkerId,
};
use crate::policy::{PolicyConfig, SchedulingPolicy, WorkerState};
use crate::spec::TaskSpec;
use crate::stats::{Metric, MsgClass, SchedulerStats};
use crate::telemetry::TelemetryHub;
use crate::trace::{EventKind, TraceHandle};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod pump;

/// Where the core's outbound messages go: worker executor inboxes, worker
/// stores and client notification queues. The live pump passes the
/// scheduler's transport endpoint; the simulator passes a collector.
pub trait Sink {
    /// Send to worker `worker`'s executor inbox.
    fn send_exec(&self, worker: WorkerId, msg: ExecMsg);
    /// Send to worker `worker`'s store.
    fn send_data(&self, worker: WorkerId, msg: DataMsg);
    /// Notify a client.
    fn send_client(&self, client: ClientId, msg: ClientMsg);
}

/// What one [`Scheduler::step`] did, for its driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// The batch carried `Shutdown`: the driver stops stepping.
    pub shutdown: bool,
    /// The step ran a placement pass (the live pump times those).
    pub placed: bool,
}

/// Failure-detection and recovery parameters for the scheduler loop.
///
/// The paper's DEISA variants map onto `heartbeat_timeout` directly:
/// DEISA1 pings every 5 s and DEISA2 every 60 s, so a finite timeout of a
/// few intervals detects their silence; DEISA3 sends no heartbeats at all —
/// `None` (the default) reproduces that trade of fault tolerance for the
/// `1 + R` message count, and the liveness sweep never runs.
#[derive(Debug, Clone)]
pub struct LivenessConfig {
    /// Declare a peer (worker or heartbeating client) dead after this long
    /// without a heartbeat. `None` disables failure detection entirely.
    pub heartbeat_timeout: Option<Duration>,
    /// Bounded resubmission budget per task; once exceeded the task errs
    /// with [`ErrorCause::PeerLost`].
    pub max_retries: u32,
    /// Base of the exponential backoff between resubmissions (the n-th
    /// retry waits `base · 2^(n-1)`).
    pub retry_backoff: Duration,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig {
            heartbeat_timeout: None,
            max_retries: 3,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

/// Scheduler-side task states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Paper §2.2: known to the scheduler, produced by an external
    /// environment; not schedulable nor runnable here.
    External,
    /// Waiting on dependencies.
    Waiting,
    /// All dependencies in memory; queued for placement.
    Ready,
    /// Sent to a worker.
    Processing,
    /// Result available on ≥1 worker.
    Memory,
    /// Failed (or a dependency failed).
    Erred,
}

/// A task inside the core: the slot of the task slab its entry lives in and
/// the generation the slot was at when the task took it. A slot's generation
/// moves on when its task is released, so an id kept past its task's release
/// (in a queue, a backoff list or another task's edges) resolves to nothing,
/// even once the slot holds a new task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId {
    slot: u32,
    gen: u32,
}

impl TaskId {
    pub(crate) const fn new(slot: u32, gen: u32) -> Self {
        TaskId { slot, gen }
    }

    /// The slab slot this id names (policies index per-task state by it).
    pub(crate) fn slot(self) -> usize {
        self.slot as usize
    }
}

struct TaskEntry {
    /// The key the task was submitted, registered or reported under: what
    /// the core's messages name it by.
    key: Key,
    spec: Option<Arc<TaskSpec>>,
    state: TaskState,
    /// The task's dependencies in `spec.deps` order, repeats included
    /// (empty for a task whose spec came after its entry).
    deps: Vec<TaskId>,
    /// Tasks wired to wait on this one. Released ones stay listed as stale
    /// ids until [`TaskTable::unlink`] compacts the list.
    dependents: Vec<TaskId>,
    /// How many listed dependents were released since the last compaction
    /// (an upper bound: a dependency listed twice counts twice).
    released_dependents: usize,
    /// The [`TaskTable::next_mark`] of the last pass that visited this task
    /// as a dependency; a pass skips a dependency it already visited.
    mark: u64,
    /// Number of dependencies not yet in memory.
    n_waiting: usize,
    who_has: Vec<WorkerId>,
    nbytes: u64,
    error: Option<TaskError>,
    /// Clients to notify on completion.
    waiters: Vec<ClientId>,
    /// Worker this task is processing on (recovery needs to know which
    /// in-flight tasks died with a worker).
    assigned_to: Option<WorkerId>,
    /// Resubmissions consumed after peer losses (bounded by
    /// [`LivenessConfig::max_retries`]; reset on success).
    retries: u32,
}

impl TaskEntry {
    fn new(key: Key, state: TaskState) -> Self {
        TaskEntry {
            key,
            spec: None,
            state,
            deps: Vec::new(),
            dependents: Vec::new(),
            released_dependents: 0,
            mark: 0,
            n_waiting: 0,
            who_has: Vec::new(),
            nbytes: 0,
            error: None,
            waiters: Vec::new(),
            assigned_to: None,
            retries: 0,
        }
    }

    /// Forget the task, keeping the capacity of every list for the slot's
    /// next task. The key stays until that task overwrites it.
    fn clear(&mut self) {
        self.spec = None;
        self.deps.clear();
        self.dependents.clear();
        self.released_dependents = 0;
        self.n_waiting = 0;
        self.who_has.clear();
        self.nbytes = 0;
        self.error = None;
        self.waiters.clear();
        self.assigned_to = None;
        self.retries = 0;
    }
}

struct Slot {
    gen: u32,
    live: bool,
    entry: TaskEntry,
}

/// Slots per chunk of the task slab. A chunk never moves once allocated, so
/// growing the slab copies no entry: doubling one flat `Vec` instead stalls
/// the step that grows it for a copy of every entry, which showed as a
/// slower tail of rounds on the retained storm.
const CHUNK: usize = 1024;

/// The core's tasks: entries in a slab of reusable slots addressed by
/// [`TaskId`], and the one map from a [`Key`] to its id. A key is hashed
/// only where a message names it; inside the core every reference is an id.
#[derive(Default)]
struct TaskTable {
    /// The slab: slot `i` is `chunks[i / CHUNK][i % CHUNK]`.
    chunks: Vec<Vec<Slot>>,
    /// Free slots, the most recently released last.
    vacant: Vec<u32>,
    index: KeyMap<TaskId>,
    /// The last mark handed out by [`TaskTable::next_mark`].
    mark: u64,
}

impl TaskTable {
    fn id(&self, key: &Key) -> Option<TaskId> {
        self.index.get(key).copied()
    }

    fn slot(&mut self, slot: usize) -> &mut Slot {
        &mut self.chunks[slot / CHUNK][slot % CHUNK]
    }

    fn get(&self, id: TaskId) -> Option<&TaskEntry> {
        let slot = self.chunks.get(id.slot() / CHUNK)?.get(id.slot() % CHUNK)?;
        (slot.live && slot.gen == id.gen).then_some(&slot.entry)
    }

    fn get_mut(&mut self, id: TaskId) -> Option<&mut TaskEntry> {
        let slot = self
            .chunks
            .get_mut(id.slot() / CHUNK)?
            .get_mut(id.slot() % CHUNK)?;
        (slot.live && slot.gen == id.gen).then_some(&mut slot.entry)
    }

    /// The entry of a task the caller knows is held.
    fn entry(&mut self, id: TaskId) -> &mut TaskEntry {
        self.get_mut(id).expect("a held task")
    }

    /// The task of `key`, made in `state` if the key is new.
    fn intern(&mut self, key: &Key, state: TaskState) -> TaskId {
        match self.id(key) {
            Some(id) => id,
            None => self.insert(key.clone(), state),
        }
    }

    /// Make a task for a key the table does not hold, in a free slot if
    /// there is one.
    fn insert(&mut self, key: Key, state: TaskState) -> TaskId {
        let id = match self.vacant.pop() {
            Some(slot) => {
                let s = self.slot(slot as usize);
                s.live = true;
                s.entry.key = key.clone();
                s.entry.state = state;
                TaskId::new(slot, s.gen)
            }
            None => {
                if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
                    self.chunks.push(Vec::with_capacity(CHUNK));
                }
                let slot =
                    (self.chunks.len() - 1) * CHUNK + self.chunks[self.chunks.len() - 1].len();
                let slot = u32::try_from(slot).expect("fewer than 2^32 tasks");
                self.chunks.last_mut().expect("pushed above").push(Slot {
                    gen: 0,
                    live: true,
                    entry: TaskEntry::new(key.clone(), state),
                });
                TaskId::new(slot, 0)
            }
        };
        self.index.insert(key, id);
        id
    }

    /// First half of a release: the key resolves to nothing from now on.
    /// Its task stays readable until [`TaskTable::free`].
    fn unindex(&mut self, key: &Key) -> Option<TaskId> {
        self.index.remove(key)
    }

    /// Second half of a release: every copy of the id goes stale, and the
    /// slot is free for the next task.
    fn free(&mut self, id: TaskId) {
        let slot = self.slot(id.slot());
        slot.entry.clear();
        slot.live = false;
        slot.gen = slot.gen.wrapping_add(1);
        self.vacant.push(id.slot);
    }

    /// `released` (about to be removed) no longer waits on `dep`. Its id
    /// stays in `dep`'s dependents, stale, until released ones make up
    /// more than half of the list; then the list drops every stale id,
    /// keeping the order of the rest. Each release pays for one slot of
    /// one compaction, so releasing n dependents of one block is O(n).
    fn unlink(&mut self, dep: TaskId, released: TaskId) {
        let Some(entry) = self.get_mut(dep) else {
            return;
        };
        entry.released_dependents += 1;
        if 2 * entry.released_dependents <= entry.dependents.len() {
            return;
        }
        let mut dependents = std::mem::take(&mut entry.dependents);
        dependents.retain(|&d| d != released && self.get(d).is_some());
        let entry = self.entry(dep);
        entry.dependents = dependents;
        entry.released_dependents = 0;
    }

    /// A fresh mark for a pass over dependency lists (see `TaskEntry::mark`).
    fn next_mark(&mut self) -> u64 {
        self.mark += 1;
        self.mark
    }

    /// Every held task, in slot order.
    fn iter_mut(&mut self) -> impl Iterator<Item = (TaskId, &mut TaskEntry)> {
        self.chunks
            .iter_mut()
            .flatten()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(i, s)| (TaskId::new(i as u32, s.gen), &mut s.entry))
    }
}

#[derive(Default)]
struct QueueEntry {
    items: VecDeque<Datum>,
    poppers: VecDeque<ClientId>,
}

/// Per-tenant scheduler state. Only sessions other than
/// [`DEFAULT_SESSION`] get an entry — the single-tenant path never
/// touches this map. A session's task keys are not listed here: every
/// scoped [`Key`] names its session, and teardown selects by that.
#[derive(Default)]
struct SessionState {
    /// Submitted tasks not yet Memory/Erred — the admission-control
    /// denominator. A set, not a counter, so duplicate completion
    /// reports cannot drift it.
    inflight: HashSet<TaskId>,
}

/// The scheduler state the core steps over.
pub struct Scheduler<S> {
    /// Outbound route to every other actor.
    sink: S,
    /// The time of the step in progress, as told by the driver.
    now: Instant,
    tasks: TaskTable,
    /// Placement policy: owns the ready queue (ordering) and the per-task
    /// worker decision. See [`crate::policy`].
    policy: Box<dyn SchedulingPolicy>,
    /// Worker-side stealing on? When set, assignments carry the *full*
    /// dependency placement (including deps the target already holds), so a
    /// stolen task can still locate every input from its new worker.
    steal_enabled: bool,
    /// Per-worker flag: a [`ExecMsg::Steal`] probe is in flight
    /// against this victim and has not been answered with `Stolen` yet. An
    /// idle thief polls faster than a victim finishes a task; without the
    /// guard every poll would queue another redundant probe.
    steal_inflight: Vec<bool>,
    workers: Vec<WorkerState>,
    /// Connected clients; notifications to unknown ids are dropped
    /// (and counted — see [`SchedulerStats::notifies_dropped`]).
    clients: HashSet<ClientId>,
    /// Variables, namespaced per session. Single-tenant traffic lives
    /// entirely under [`DEFAULT_SESSION`], so tenants never observe
    /// each other's names.
    variables: HashMap<(SessionId, String), Datum>,
    /// Clients blocked in `VariableGet { wait: true }` per variable.
    var_waiters: HashMap<(SessionId, String), Vec<ClientId>>,
    queues: HashMap<(SessionId, String), QueueEntry>,
    /// Per-tenant state; empty until a scoped client connects.
    sessions: HashMap<SessionId, SessionState>,
    /// Which session each scoped client belongs to. A session tears
    /// down when its last client disconnects or is swept dead.
    client_session: HashMap<ClientId, SessionId>,
    /// Per-session in-flight task cap. `None` (default) admits
    /// everything and never sends `SubmitOutcome` acks.
    admission_cap: Option<usize>,
    stats: Arc<SchedulerStats>,
    /// Lifecycle event recorder (empty handle when tracing is off).
    tracer: TraceHandle,
    /// Set by handlers that may have produced ready tasks; a step drains
    /// the ready queue once per batch instead of once per message.
    pending_schedule: bool,
    /// Failure-detection and retry policy.
    liveness: LivenessConfig,
    /// Default executor-slot count per worker, kept for workers that
    /// register dynamically without announcing a slot count.
    default_slots: usize,
    /// Last heartbeat per client (only clients that heartbeat are tracked,
    /// and only they can be declared dead).
    client_last_seen: HashMap<ClientId, Instant>,
    /// Tasks parked between a peer loss and their resubmission, with the
    /// instant each becomes due (unordered: the set stays tiny).
    backoff: Vec<(Instant, TaskId)>,
    /// When the liveness sweep last ran.
    last_sweep: Instant,
    /// A placement pass's assignments per worker, kept between passes so
    /// a pass allocates only the batches it sends.
    assignments: Vec<Vec<Assignment>>,
}

impl<S: Sink> Scheduler<S> {
    /// Build a scheduler for `n_workers` workers of `slots_per_worker`
    /// executor slots each (≥1; weights load comparisons during placement)
    /// that sends into `sink`. `now` starts the liveness-sweep clock.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sink: S,
        n_workers: usize,
        slots_per_worker: usize,
        liveness: LivenessConfig,
        policy: PolicyConfig,
        stats: Arc<SchedulerStats>,
        tracer: TraceHandle,
        admission_cap: Option<usize>,
        now: Instant,
    ) -> Self {
        let slots = slots_per_worker.max(1);
        Scheduler {
            sink,
            now,
            tasks: TaskTable::default(),
            steal_enabled: policy.steal_enabled(),
            steal_inflight: vec![false; n_workers],
            policy: policy.build(),
            workers: (0..n_workers)
                .map(|_| WorkerState {
                    processing: 0,
                    slots,
                    alive: true,
                    last_seen: None,
                })
                .collect(),
            clients: HashSet::new(),
            variables: HashMap::new(),
            var_waiters: HashMap::new(),
            queues: HashMap::new(),
            sessions: HashMap::new(),
            client_session: HashMap::new(),
            admission_cap,
            stats,
            tracer,
            pending_schedule: false,
            liveness,
            default_slots: slots,
            client_last_seen: HashMap::new(),
            backoff: Vec::new(),
            last_sweep: now,
            assignments: Vec::new(),
        }
    }

    /// Deployment mode: start with every worker slot *offline* (not
    /// schedulable) until a process attaches and registers through
    /// [`SchedMsg::RegisterWorker`]. The liveness sweep never declares an
    /// offline worker dead (it has no `last_seen`), so a slow-to-attach
    /// node is simply "not yet here", not a failure.
    pub fn with_offline_workers(mut self) -> Self {
        for w in &mut self.workers {
            w.alive = false;
        }
        self
    }

    /// The sink this scheduler sends into.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Advance the state machine: absorb `inbox` (drained, in arrival
    /// order) at time `now`, run the fault work that is due, then drain the
    /// ready queue **once**, so a batch carrying `k` task completions pays
    /// one placement pass instead of `k`. An empty `inbox` is a timer tick
    /// (the live pump sends one when `wakeup_deadline` falls due). Messages
    /// behind a `Shutdown` are dropped.
    pub fn step(&mut self, inbox: &mut Vec<SchedMsg>, now: Instant) -> StepReport {
        self.now = now;
        let mut shutdown = false;
        if !inbox.is_empty() {
            let n = inbox.len() as u64;
            self.stats.record_burst(n);
            let ingest_t0 = self.tracer.start();
            shutdown = !inbox.drain(..).all(|msg| self.handle(msg));
            self.tracer.span(EventKind::Ingest, ingest_t0, None, n);
        }
        self.tick_faults();
        let placed = std::mem::take(&mut self.pending_schedule);
        if placed {
            let pass_t0 = self.tracer.start();
            let n_assigned = self.schedule();
            self.tracer
                .span(EventKind::AssignPass, pass_t0, None, n_assigned);
        }
        StepReport { shutdown, placed }
    }

    /// Refresh the telemetry gauges as of the last step: ready-queue depth,
    /// live-worker count, and the oldest worker/client heartbeat ages.
    fn publish_gauges(&self, hub: &TelemetryHub) {
        let gap_ns = |seen: Instant| self.now.saturating_duration_since(seen).as_nanos() as u64;
        let workers_alive = self.workers.iter().filter(|w| w.alive).count() as u64;
        let worker_gap = self
            .workers
            .iter()
            .filter(|w| w.alive)
            .filter_map(|w| w.last_seen.map(gap_ns))
            .max()
            .unwrap_or(0);
        let client_gap = self
            .client_last_seen
            .values()
            .map(|&seen| gap_ns(seen))
            .max()
            .unwrap_or(0);
        hub.publish_scheduler(
            self.policy.len() as u64,
            workers_alive,
            self.sessions.len() as u64,
            worker_gap,
            client_gap,
        );
    }

    /// Next instant the driver must step even if no message arrives: the
    /// earliest parked resubmission, or the next liveness sweep. `None`
    /// (the default configuration) means "nothing is due, ever".
    fn wakeup_deadline(&self) -> Option<Instant> {
        let backoff_due = self.backoff.iter().map(|(due, _)| *due).min();
        let sweep_due = self
            .liveness
            .heartbeat_timeout
            .map(|t| self.last_sweep + Self::sweep_every(t));
        match (backoff_due, sweep_due) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Sweep cadence: a quarter of the timeout keeps detection latency
    /// within ~1.25× the configured timeout without busy-waking.
    fn sweep_every(timeout: Duration) -> Duration {
        (timeout / 4).max(Duration::from_millis(1))
    }

    /// Run the periodic fault work: due resubmissions, then the liveness
    /// sweep.
    fn tick_faults(&mut self) {
        self.drain_backoff();
        if let Some(timeout) = self.liveness.heartbeat_timeout {
            if self.now.saturating_duration_since(self.last_sweep) >= Self::sweep_every(timeout) {
                self.last_sweep = self.now;
                self.sweep_liveness(timeout);
            }
        }
    }

    fn notify(&self, client: ClientId, msg: ClientMsg) {
        if self.clients.contains(&client) {
            self.sink.send_client(client, msg);
        } else {
            // A silently vanished notification is indistinguishable from
            // a hung client; count it so operators can tell the two
            // apart from `/metrics`.
            self.stats.inc(Metric::NotifiesDropped);
        }
    }

    /// Drop the out-of-band payloads behind any proxy handles inside
    /// `value`: a deleted or overwritten control-path value is the last
    /// reference to its store entries.
    fn release_proxied(&self, value: &Datum) {
        match value {
            Datum::Ref(handle) => self.sink.send_data(
                handle.holder,
                DataMsg::Delete {
                    keys: vec![handle.key.clone()],
                },
            ),
            Datum::List(items) => {
                for item in items {
                    self.release_proxied(item);
                }
            }
            _ => {}
        }
    }

    /// Route one inbox message: unwrap the session tag (if any) and
    /// dispatch. Untagged messages — the entire single-tenant protocol —
    /// run under [`DEFAULT_SESSION`], which takes none of the tenant
    /// bookkeeping paths.
    fn handle(&mut self, msg: SchedMsg) -> bool {
        match msg {
            SchedMsg::Scoped { session, inner } => self.handle_in(session, *inner),
            msg => self.handle_in(DEFAULT_SESSION, msg),
        }
    }

    fn handle_in(&mut self, session: SessionId, msg: SchedMsg) -> bool {
        match msg {
            SchedMsg::Scoped { session, inner } => {
                // Never sent nested; unwrap defensively rather than drop.
                return self.handle_in(session, *inner);
            }
            SchedMsg::ClientConnect { client } => {
                self.clients.insert(client);
                if session != DEFAULT_SESSION {
                    self.client_session.insert(client, session);
                    self.sessions.entry(session).or_default();
                }
            }
            SchedMsg::ClientDisconnect { client } => {
                self.drop_client(client);
            }
            SchedMsg::SubmitGraph { client, specs } => {
                self.stats.record(MsgClass::GraphSubmit, 0);
                if session != DEFAULT_SESSION {
                    if let Some(cap) = self.admission_cap {
                        let inflight = self.sessions.entry(session).or_default().inflight.len();
                        if inflight + specs.len() > cap {
                            // Backpressure, not silent queuing: the graph
                            // is dropped whole and the client told so.
                            self.stats.inc(Metric::AdmissionRejections);
                            self.stats
                                .with_tenant(session, |t| t.admission_rejections += 1);
                            self.notify(
                                client,
                                ClientMsg::SubmitOutcome {
                                    accepted: false,
                                    inflight: inflight as u64,
                                    cap: cap as u64,
                                },
                            );
                            return true;
                        }
                    }
                }
                // Specs are shared (scheduler entry + execute message), not
                // copied.
                let specs: Vec<Arc<TaskSpec>> = specs.into_iter().map(Arc::new).collect();
                let (ids, created) = self.intern_graph(&specs);
                if session != DEFAULT_SESSION {
                    let st = self.sessions.entry(session).or_default();
                    st.inflight.extend(ids.iter().copied());
                    let depth = st.inflight.len() as u64;
                    self.stats.with_tenant(session, |t| {
                        t.tasks += specs.len() as u64;
                        t.queue_depth = depth;
                    });
                    if let Some(cap) = self.admission_cap {
                        self.notify(
                            client,
                            ClientMsg::SubmitOutcome {
                                accepted: true,
                                inflight: depth,
                                cap: cap as u64,
                            },
                        );
                    }
                }
                self.stats
                    .record_n(MsgClass::TaskSubmitted, specs.len() as u64, 0);
                self.wire_graph(&specs, &ids, &created);
            }
            SchedMsg::RegisterExternal { client: _, keys } => {
                self.stats.record(MsgClass::RegisterExternal, 0);
                for key in &keys {
                    self.tasks.intern(key, TaskState::External);
                }
            }
            SchedMsg::UpdateData {
                client: _,
                entries,
                external,
            } => {
                let nbytes: u64 = entries.iter().map(|(_, _, b)| *b).sum();
                let class = if external {
                    MsgClass::UpdateDataExternal
                } else {
                    MsgClass::UpdateData
                };
                self.stats.record(class, nbytes);
                for (key, worker, nbytes) in entries {
                    self.handle_update_data(key, worker, nbytes);
                }
                self.pending_schedule = true;
            }
            SchedMsg::TaskFinished {
                worker,
                key,
                nbytes,
            } => {
                self.stats.record(MsgClass::TaskReport, 0);
                if !self.worker_alive(worker) {
                    // Stale report from a declared-dead worker: its data is
                    // unreachable, so recording the replica would route
                    // future gathers into a black hole.
                    return true;
                }
                self.tracer
                    .instant(EventKind::Report, Some(&key), worker as u64);
                self.workers[worker].processing = self.workers[worker].processing.saturating_sub(1);
                self.handle_task_finished(key, worker, nbytes);
                self.pending_schedule = true;
            }
            SchedMsg::AddReplica { worker, entries } => {
                self.stats.record(MsgClass::AddReplica, 0);
                // A late report from a declared-dead worker must not put it
                // back into `who_has` after `on_worker_lost` purged it.
                if self.worker_alive(worker) {
                    self.apply_replicas(worker, entries);
                }
            }
            SchedMsg::TaskErred {
                worker,
                stored_key,
                error,
                failed_peer,
            } => {
                self.stats.record(MsgClass::TaskReport, 0);
                if !self.worker_alive(worker) {
                    return true;
                }
                self.stats.inc(Metric::TasksErred);
                self.tracer
                    .instant(EventKind::Report, Some(&stored_key), worker as u64);
                self.workers[worker].processing = self.workers[worker].processing.saturating_sub(1);
                // A hung-up data connection is direct evidence of that peer's
                // death: run the full loss recovery now rather than burning
                // this task's retry budget waiting out the heartbeat timeout.
                // Valid even with liveness off — the evidence is the
                // transport's, not a missed heartbeat.
                if let Some(peer) = failed_peer {
                    if peer != worker && self.worker_alive(peer) {
                        self.on_worker_lost(peer);
                    }
                }
                if let Some(id) = self.tasks.id(&stored_key) {
                    if matches!(error.cause, ErrorCause::PeerLost)
                        && self.tasks.entry(id).state == TaskState::Processing
                    {
                        // A gather hit a dead peer mid-fetch: environmental,
                        // not deterministic — resubmit to a survivor instead
                        // of failing the downstream cone.
                        self.retry_or_fail(id);
                    } else {
                        // `error.key` names the originating task (an interior
                        // fused stage, possibly); the scheduler entry to fail
                        // is the spec key it tracks.
                        self.mark_erred(id, error);
                    }
                }
                self.pending_schedule = true;
            }
            SchedMsg::WantResult { client, key } => {
                self.stats.record(MsgClass::WantResult, 0);
                let entry = self.tasks.id(&key).map(|id| self.tasks.entry(id));
                let location = match entry {
                    Some(entry) => match entry.state {
                        TaskState::Memory => Ok(entry.who_has[0]),
                        TaskState::Erred => {
                            Err(entry.error.clone().expect("erred tasks carry an error"))
                        }
                        _ => {
                            entry.waiters.push(client);
                            return true;
                        }
                    },
                    // Unknown key: it could be a future that appears later
                    // (external graphs can be registered after a watch in
                    // principle), but the simplest correct behaviour for
                    // this runtime is to report an error.
                    None => Err(TaskError::new(key.clone(), "unknown key")),
                };
                self.notify(client, ClientMsg::KeyReady { key, location });
            }
            SchedMsg::ReleaseKeys { keys } => {
                self.release_keys(keys);
            }
            SchedMsg::VariableSet { name, value } => {
                self.stats.record(MsgClass::Variable, value.nbytes());
                let slot = (session, name);
                // Overwriting a proxied variable orphans its out-of-band
                // payload: tell the holder's store to drop it.
                if let Some(old) = self.variables.get(&slot) {
                    self.release_proxied(old);
                }
                // Wake waiters.
                if let Some(waiters) = self.var_waiters.remove(&slot) {
                    for client in waiters {
                        self.notify(
                            client,
                            ClientMsg::VariableValue {
                                name: slot.1.clone(),
                                value: value.clone(),
                                found: true,
                            },
                        );
                    }
                }
                self.variables.insert(slot, value);
            }
            SchedMsg::VariableGet { client, name, wait } => {
                self.stats.record(MsgClass::Variable, 0);
                // Lookup is namespaced: another tenant's identically named
                // variable is invisible — a miss here is a clean not-found.
                let value = self.variables.get(&(session, name.clone())).cloned();
                if value.is_none() && wait {
                    self.var_waiters
                        .entry((session, name))
                        .or_default()
                        .push(client);
                    return true;
                }
                let found = value.is_some();
                let value = value.unwrap_or(Datum::Null);
                self.notify(client, ClientMsg::VariableValue { name, value, found });
            }
            SchedMsg::VariableDel { name } => {
                self.stats.record(MsgClass::Variable, 0);
                if let Some(old) = self.variables.remove(&(session, name)) {
                    self.release_proxied(&old);
                }
            }
            SchedMsg::QueuePush { name, value } => {
                self.stats.record(MsgClass::Queue, value.nbytes());
                let q = self.queues.entry((session, name.clone())).or_default();
                if let Some(client) = q.poppers.pop_front() {
                    self.notify(client, ClientMsg::QueueItem { name, value });
                } else {
                    q.items.push_back(value);
                }
            }
            SchedMsg::QueuePop { client, name } => {
                self.stats.record(MsgClass::Queue, 0);
                let q = self.queues.entry((session, name.clone())).or_default();
                if let Some(value) = q.items.pop_front() {
                    self.notify(client, ClientMsg::QueueItem { name, value });
                } else {
                    q.poppers.push_back(client);
                }
            }
            SchedMsg::Heartbeat { client } => {
                self.stats.record(MsgClass::Heartbeat, 0);
                self.note_client_heartbeat(client);
            }
            SchedMsg::WorkerHeartbeat { worker } => {
                self.stats.record(MsgClass::WorkerHeartbeat, 0);
                self.note_worker_heartbeat(worker);
            }
            SchedMsg::StealRequest { worker } => {
                self.handle_steal_request(worker);
            }
            SchedMsg::Stolen {
                victim,
                thief,
                keys,
            } => {
                self.handle_stolen(victim, thief, keys);
            }
            SchedMsg::RegisterWorker { worker, slots } => {
                self.register_worker(worker, slots);
            }
            SchedMsg::Shutdown => return false,
        }
        true
    }

    /// Forget a set of keys: unlink dependency edges, fail orphaned
    /// dependents, and delete the payloads from every holding worker.
    /// Shared by the explicit `ReleaseKeys` message and session teardown.
    fn release_keys(&mut self, keys: Vec<Key>) {
        let mut per_worker: Vec<Vec<Key>> = vec![Vec::new(); self.workers.len()];
        let mut orphans: Vec<(TaskId, TaskError)> = Vec::new();
        for key in keys {
            let Some(id) = self.tasks.unindex(&key) else {
                continue;
            };
            if key.session() != DEFAULT_SESSION {
                if let Some(st) = self.sessions.get_mut(&key.session()) {
                    st.inflight.remove(&id);
                }
            }
            // Unlink the edge from each dependency's dependents list, so
            // the dependency's completion no longer visits this task.
            for i in 0..self.tasks.entry(id).deps.len() {
                let dep = self.tasks.entry(id).deps[i];
                self.tasks.unlink(dep, id);
            }
            let entry = self.tasks.get(id).expect("a held task");
            // Dependents still waiting on this key can never run now: fail
            // them instead of leaving them hung.
            for &dependent in &entry.dependents {
                if dependent != id
                    && self
                        .tasks
                        .get(dependent)
                        .is_some_and(|d| d.state == TaskState::Waiting)
                {
                    orphans.push((
                        dependent,
                        TaskError::new(key.clone(), format!("dependency {key} was released")),
                    ));
                }
            }
            // The message's key goes to the last holder, a clone to the rest.
            if let Some((&last, rest)) = entry.who_has.split_last() {
                for &w in rest {
                    per_worker[w].push(key.clone());
                }
                per_worker[last].push(key);
            }
            self.tasks.free(id);
        }
        for (id, err) in orphans {
            self.mark_erred(id, err);
        }
        for (w, keys) in per_worker.into_iter().enumerate() {
            if !keys.is_empty() {
                self.sink.send_data(w, DataMsg::Delete { keys });
            }
        }
    }

    /// Forget a client — connection set, liveness tracking, parked
    /// variable/queue waiter slots — and, when it was the last client of
    /// a scoped session, tear the whole session down. Shared by the
    /// `ClientDisconnect` handler and the liveness sweep, so an orderly
    /// departure and a detected death release exactly the same state.
    fn drop_client(&mut self, client: ClientId) {
        self.clients.remove(&client);
        self.client_last_seen.remove(&client);
        for waiters in self.var_waiters.values_mut() {
            waiters.retain(|c| *c != client);
        }
        for q in self.queues.values_mut() {
            q.poppers.retain(|c| *c != client);
        }
        if let Some(session) = self.client_session.remove(&client) {
            if !self.client_session.values().any(|&s| s == session) {
                self.teardown_session(session);
            }
        }
    }

    /// Release everything a session owns: its task entries (through the
    /// same path as an explicit `ReleaseKeys`), variables, queue items,
    /// backoff-parked retries, and the out-of-band payloads on every
    /// worker's store. All of it is keyed by session, so other tenants
    /// are untouched.
    fn teardown_session(&mut self, session: SessionId) {
        debug_assert_ne!(
            session, DEFAULT_SESSION,
            "the implicit session never tears down"
        );
        self.sessions.remove(&session);
        // Every entry tagged with the session goes, the External
        // placeholders `wire_graph` made for unknown deps included.
        let keys = self
            .tasks
            .iter_mut()
            .filter(|(_, e)| e.key.session() == session)
            .map(|(_, e)| e.key.clone())
            .collect();
        self.release_keys(keys);
        let variables = self.variables.extract_if(|(s, _), _| *s == session);
        let queues = self.queues.extract_if(|(s, _), _| *s == session);
        let orphaned: Vec<Datum> = variables
            .map(|(_, value)| value)
            .chain(queues.flat_map(|(_, q)| q.items))
            .collect();
        for value in &orphaned {
            self.release_proxied(value);
        }
        self.var_waiters.retain(|(s, _), _| *s != session);
        // Parked retries for released tasks would resurrect nothing
        // (their entries are gone), but dropping them keeps the backoff
        // list from waking the loop for a dead tenant.
        self.backoff.retain(|&(_, id)| self.tasks.get(id).is_some());
        self.stats.with_tenant(session, |t| t.queue_depth = 0);
        // Belt and braces on the data plane: the Delete fan-out above
        // only reaches payloads the scheduler knew about; a sweep per
        // worker also catches session-scoped strays (proxy payloads
        // published out-of-band, spilled entries).
        for worker in 0..self.workers.len() {
            if self.workers[worker].alive {
                self.sink.send_data(worker, DataMsg::Sweep { session });
            }
        }
    }

    /// First half of a graph's insertion: give every spec's key a task (so
    /// intra-graph deps resolve regardless of order). Returns each spec's
    /// task and whether this graph created it. A created task has no edge
    /// yet: a release unlinks every edge of the task it forgets.
    fn intern_graph(&mut self, specs: &[Arc<TaskSpec>]) -> (Vec<TaskId>, Vec<bool>) {
        let mut ids = Vec::with_capacity(specs.len());
        let mut created = Vec::with_capacity(specs.len());
        for spec in specs {
            match self.tasks.id(&spec.key) {
                Some(id) => {
                    // Resubmission of a known key: keep the existing state
                    // (Memory results are reused, like Dask).
                    let entry = self.tasks.entry(id);
                    if entry.spec.is_none()
                        && entry.state != TaskState::External
                        && entry.state != TaskState::Memory
                    {
                        entry.spec = Some(Arc::clone(spec));
                    }
                    ids.push(id);
                    created.push(false);
                }
                None => {
                    let id = self.tasks.insert(spec.key.clone(), TaskState::Waiting);
                    self.tasks.entry(id).spec = Some(Arc::clone(spec));
                    ids.push(id);
                    created.push(true);
                }
            }
        }
        // Priority policies derive per-graph ranks (e.g. b-levels) before any
        // of these tasks can reach the ready queue.
        self.policy.graph_submitted(specs, &ids);
        (ids, created)
    }

    /// Second half of a graph's insertion: wire dependencies, count
    /// unfinished deps, queue roots.
    fn wire_graph(&mut self, specs: &[Arc<TaskSpec>], ids: &[TaskId], created: &[bool]) {
        let mut deps = Vec::new();
        for ((spec, &id), &created) in specs.iter().zip(ids).zip(created) {
            if !created && self.tasks.entry(id).state != TaskState::Waiting {
                continue; // already memory/external/etc.
            }
            deps.clear();
            for dep in &spec.deps {
                // Dependency the scheduler has never heard of (e.g. a
                // released key, or data a bridge will push later): treat
                // it as an implicit external task awaiting data rather
                // than failing the submission.
                deps.push(self.tasks.intern(dep, TaskState::External));
            }
            if created {
                self.tasks.entry(id).deps.extend_from_slice(&deps);
            }
            let mut n_waiting = 0usize;
            let mut missing = None;
            // Duplicate deps (e.g. `f(x, x)`) wire exactly one edge, and the
            // completion cascade decrements `n_waiting` once per edge — so
            // count each distinct dependency once.
            let mark = self.tasks.next_mark();
            for &dep in &deps {
                let dep_entry = self.tasks.entry(dep);
                if dep_entry.mark == mark {
                    continue;
                }
                dep_entry.mark = mark;
                // Only a task that already existed (resubmitted while
                // waiting, or listed twice in this graph) can meet its own
                // edge. The scan is linear in the dependents so far, so
                // running it for every edge would make n tasks fanning out
                // of b blocks cost n²/2b comparisons.
                if created || !dep_entry.dependents.contains(&id) {
                    dep_entry.dependents.push(id);
                }
                match dep_entry.state {
                    TaskState::Memory => {}
                    TaskState::Erred => {
                        // Carry the upstream origin forward and record which
                        // dependency edge delivered it.
                        let via = dep_entry.key.clone();
                        missing = Some(match dep_entry.error.clone() {
                            Some(e) => e.propagated_via(via),
                            None => TaskError::new(via, "upstream error"),
                        });
                    }
                    _ => n_waiting += 1,
                }
            }
            if let Some(err) = missing {
                self.mark_erred(id, err);
                continue;
            }
            let entry = self.tasks.entry(id);
            entry.n_waiting = n_waiting;
            if n_waiting == 0 {
                entry.state = TaskState::Ready;
                self.tracer
                    .instant(EventKind::TaskReady, Some(&spec.key), 0);
                self.policy.push(id);
            }
        }
        self.pending_schedule = true;
    }

    /// Record replica placements reported by a worker's dependency gather.
    /// Only keys still in memory count — a released key may still be
    /// reported by an in-flight gather and must stay forgotten.
    fn apply_replicas(&mut self, worker: WorkerId, entries: Vec<(Key, u64)>) {
        for (key, nbytes) in entries {
            if let Some(entry) = self.tasks.id(&key).map(|id| self.tasks.entry(id)) {
                if entry.state == TaskState::Memory && !entry.who_has.contains(&worker) {
                    entry.who_has.push(worker);
                    if entry.nbytes == 0 {
                        entry.nbytes = nbytes;
                    }
                }
            }
        }
    }

    /// Classic-scatter or external-task data arrival.
    fn handle_update_data(&mut self, key: Key, worker: WorkerId, nbytes: u64) {
        if !self.worker_alive(worker) {
            // The announced holder is already declared dead: the data there
            // is unreachable. With a surviving live replica this is just a
            // stale announcement — drop it; with none, the key (and its
            // cone) is lost with the peer.
            let id = self.tasks.id(&key);
            let has_live_replica = id.and_then(|id| self.tasks.get(id)).is_some_and(|e| {
                e.state == TaskState::Memory && e.who_has.iter().any(|&w| self.worker_alive(w))
            });
            if has_live_replica {
                return;
            }
            self.stats.inc(Metric::ExternalBlocksLost);
            if let Some(id) = id {
                self.mark_erred(
                    id,
                    TaskError::new(key, format!("data landed on dead worker {worker}"))
                        .with_cause(ErrorCause::PeerLost),
                );
            }
            return;
        }
        // The paper's path: treat exactly like a finished task. For a fresh
        // key this is a plain Dask scatter (no dependents can exist yet);
        // for an external one the transition cascade unblocks pre-submitted
        // graphs; for a key already in memory it is a replica announcement;
        // and for one the scheduler planned to compute, the data is accepted
        // and the computation cancelled (last write wins).
        self.handle_task_finished(key, worker, nbytes);
    }

    /// Shared completion path for worker-computed AND external tasks. This is
    /// `handle_task_finished` from §2.2: update structures, then transition
    /// dependents.
    fn handle_task_finished(&mut self, key: Key, worker: WorkerId, nbytes: u64) {
        if key.session() != DEFAULT_SESSION && !self.sessions.contains_key(&key.session()) {
            // Completion report for a torn-down session: the tenant is
            // gone, so the result is garbage. Scrub it from the worker
            // instead of resurrecting a task entry the teardown already
            // released.
            self.sink
                .send_data(worker, DataMsg::Delete { keys: vec![key] });
            return;
        }
        let id = self.tasks.intern(&key, TaskState::External);
        let entry = self.tasks.entry(id);
        if entry.state == TaskState::Memory {
            // Duplicate completion report (replica): record and stop — the
            // dependent cascade must run exactly once.
            if !entry.who_has.contains(&worker) {
                entry.who_has.push(worker);
            }
            return;
        }
        entry.state = TaskState::Memory;
        if !entry.who_has.contains(&worker) {
            entry.who_has.push(worker);
        }
        entry.nbytes = nbytes;
        entry.assigned_to = None;
        entry.retries = 0;
        let waiters = std::mem::take(&mut entry.waiters);
        // Taken for the cascade and put back after it: the cascade readies
        // other tasks and never edits this one's dependents.
        let dependents = std::mem::take(&mut entry.dependents);
        if key.session() != DEFAULT_SESSION {
            let depth = self.sessions.get_mut(&key.session()).map(|st| {
                st.inflight.remove(&id);
                st.inflight.len() as u64
            });
            self.stats.with_tenant(key.session(), |t| {
                t.bytes += nbytes;
                t.queue_depth = depth.unwrap_or(t.queue_depth);
            });
        }
        for client in waiters {
            self.notify(
                client,
                ClientMsg::KeyReady {
                    key: key.clone(),
                    location: Ok(worker),
                },
            );
        }
        // Transition cascade: unblock dependents.
        for &dependent in &dependents {
            if let Some(dep_entry) = self.tasks.get_mut(dependent) {
                if dep_entry.state == TaskState::Waiting {
                    dep_entry.n_waiting = dep_entry.n_waiting.saturating_sub(1);
                    if dep_entry.n_waiting == 0 {
                        dep_entry.state = TaskState::Ready;
                        self.tracer
                            .instant(EventKind::TaskReady, Some(&dep_entry.key), 0);
                        self.policy.push(dependent);
                    }
                }
            }
        }
        self.tasks.entry(id).dependents = dependents;
    }

    /// Mark a task and (transitively) its dependents as erred.
    fn mark_erred(&mut self, id: TaskId, error: TaskError) {
        let mut stack = vec![(id, error, true)];
        while let Some((id, error, is_root)) = stack.pop() {
            let Some(entry) = self.tasks.get_mut(id) else {
                continue;
            };
            if entry.state == TaskState::Erred {
                continue;
            }
            if !is_root && entry.state == TaskState::Memory {
                // A dependent that already computed holds a valid result; a
                // late upstream failure (e.g. a lost replica of an input)
                // must not destroy it. Only the root of a cascade may
                // transition out of Memory.
                continue;
            }
            entry.state = TaskState::Erred;
            entry.error = Some(error.clone());
            let waiters = std::mem::take(&mut entry.waiters);
            let key = entry.key.clone();
            // Dependents see the same origin, one propagation edge further
            // downstream (`via` names the direct dependency).
            stack.extend(
                entry
                    .dependents
                    .iter()
                    .map(|&d| (d, error.propagated_via(key.clone()), false)),
            );
            if key.session() != DEFAULT_SESSION {
                if let Some(st) = self.sessions.get_mut(&key.session()) {
                    st.inflight.remove(&id);
                    let depth = st.inflight.len() as u64;
                    self.stats
                        .with_tenant(key.session(), |t| t.queue_depth = depth);
                }
            }
            for client in waiters {
                self.notify(
                    client,
                    ClientMsg::KeyReady {
                        key: key.clone(),
                        location: Err(error.clone()),
                    },
                );
            }
        }
    }

    fn worker_alive(&self, worker: WorkerId) -> bool {
        self.workers.get(worker).is_some_and(|w| w.alive)
    }

    /// Liveness bookkeeping for a client ping.
    fn note_client_heartbeat(&mut self, client: ClientId) {
        // A ping from an already-departed client (its pinger racing the
        // disconnect) must not resurrect liveness tracking — a stale
        // `last_seen` entry would sit there until the sweep timeout.
        if !self.clients.contains(&client) {
            return;
        }
        if self.client_last_seen.insert(client, self.now).is_none() {
            self.stats.inc(Metric::PeersTracked);
        }
    }

    /// Liveness bookkeeping for a worker ping. Heartbeats from a worker
    /// already declared dead are ignored: its replica map and in-flight
    /// assignments were already torn down, so there is no safe resurrection.
    fn note_worker_heartbeat(&mut self, worker: WorkerId) {
        let Some(entry) = self.workers.get_mut(worker) else {
            return;
        };
        if !entry.alive {
            return;
        }
        if entry.last_seen.is_none() {
            self.stats.inc(Metric::PeersTracked);
        }
        entry.last_seen = Some(self.now);
    }

    /// A worker process attached through the deployment hub: bring its slot
    /// online (growing the table if the id is past the configured count)
    /// and record its announced capacity. Liveness tracking starts with the
    /// worker's first heartbeat, exactly as for in-process workers — the
    /// node sends one immediately after its handshake — so a registered
    /// worker whose pings are disabled is never falsely swept dead.
    fn register_worker(&mut self, worker: WorkerId, slots: usize) {
        while self.workers.len() <= worker {
            self.workers.push(WorkerState {
                processing: 0,
                slots: self.default_slots,
                alive: false,
                last_seen: None,
            });
            self.steal_inflight.push(false);
        }
        let entry = &mut self.workers[worker];
        if slots > 0 {
            entry.slots = slots;
        }
        entry.processing = 0;
        entry.alive = true;
        // Tasks queued while no worker was attached become placeable now.
        self.pending_schedule = true;
    }

    /// Move due parked tasks back into the ready queue.
    fn drain_backoff(&mut self) {
        if self.backoff.is_empty() {
            return;
        }
        let now = self.now;
        let (due, parked): (Vec<_>, Vec<_>) = std::mem::take(&mut self.backoff)
            .into_iter()
            .partition(|(at, _)| *at <= now);
        self.backoff = parked;
        for (_, id) in due {
            let Some(entry) = self.tasks.get(id) else {
                continue;
            };
            // Only still-Ready tasks resubmit; anything released or failed
            // in the meantime just drops off the backoff list.
            if entry.state != TaskState::Ready {
                continue;
            }
            self.stats.inc(Metric::TasksResubmitted);
            self.tracer
                .instant(EventKind::Resubmit, Some(&entry.key), entry.retries as u64);
            // Through the policy queue, not a raw FIFO append: a priority
            // policy must rank resubmissions like any other ready task.
            self.policy.push(id);
            self.pending_schedule = true;
        }
    }

    /// Declare workers and heartbeating clients dead when their last
    /// heartbeat is older than `timeout`.
    fn sweep_liveness(&mut self, timeout: Duration) {
        let now = self.now;
        for worker in 0..self.workers.len() {
            let w = &self.workers[worker];
            // A worker that never heartbeat is not tracked (liveness may be
            // on while worker pings are off); silence alone is not death.
            let dead = w.alive
                && w.last_seen
                    .is_some_and(|seen| now.duration_since(seen) > timeout);
            if dead {
                self.on_worker_lost(worker);
            }
        }
        let lost_clients: Vec<ClientId> = self
            .client_last_seen
            .iter()
            .filter(|(_, seen)| now.duration_since(**seen) > timeout)
            .map(|(c, _)| *c)
            .collect();
        for client in lost_clients {
            if self.clients.contains(&client) {
                self.stats.inc(Metric::PeersLost);
                // Client ids share the worker arg space in trace events;
                // they live at the top of the u64 range to stay distinct.
                self.tracer
                    .instant(EventKind::PeerLost, None, u64::MAX - client as u64);
            }
            // Same teardown as an orderly disconnect: a death must not
            // leak the variables, queues, or store payloads an explicit
            // goodbye would have released.
            self.drop_client(client);
        }
    }

    /// Tear down a dead worker: purge its replicas, then recover every task
    /// it took down — in-flight assignments resubmit (bounded retries) and
    /// results whose only replica it held either recompute (spec known) or
    /// fail their downstream cone with a `PeerLost` attribution.
    fn on_worker_lost(&mut self, worker: WorkerId) {
        self.workers[worker].alive = false;
        self.workers[worker].processing = 0;
        self.stats.inc(Metric::PeersLost);
        self.tracer
            .instant(EventKind::PeerLost, None, worker as u64);
        let mut lost_inflight = Vec::new();
        let mut lost_results = Vec::new();
        for (id, entry) in self.tasks.iter_mut() {
            entry.who_has.retain(|&w| w != worker);
            match entry.state {
                TaskState::Processing if entry.assigned_to == Some(worker) => {
                    lost_inflight.push(id);
                }
                TaskState::Memory if entry.who_has.is_empty() => {
                    lost_results.push(id);
                }
                _ => {}
            }
        }
        for id in lost_inflight {
            self.retry_or_fail(id);
        }
        for id in lost_results {
            self.recover_lost_result(id, worker);
        }
        self.pending_schedule = true;
    }

    /// Resubmit a task whose assignment (or gather) died with a peer, with
    /// exponential backoff; past the retry budget it errs with `PeerLost`.
    fn retry_or_fail(&mut self, id: TaskId) {
        let Some(entry) = self.tasks.get_mut(id) else {
            return;
        };
        entry.retries += 1;
        entry.assigned_to = None;
        let retries = entry.retries;
        if retries > self.liveness.max_retries {
            self.stats.inc(Metric::RetriesExhausted);
            let error = TaskError::new(
                entry.key.clone(),
                format!(
                    "peer lost; {} resubmission(s) exhausted",
                    self.liveness.max_retries
                ),
            )
            .with_cause(ErrorCause::PeerLost);
            self.mark_erred(id, error);
            return;
        }
        // Re-derive readiness: the loss that killed this attempt may also
        // have taken an input out of Memory (recompute in progress), and a
        // resubmission without it would fail hard. Such deps park the task
        // as Waiting instead — the recompute cascade re-readies it.
        let n_waiting = match self.dep_readiness(id) {
            Ok(n) => n,
            Err(error) => return self.mark_erred(id, error),
        };
        let entry = self.tasks.entry(id);
        if n_waiting > 0 {
            entry.state = TaskState::Waiting;
            entry.n_waiting = n_waiting;
            return;
        }
        // Park as Ready but *outside* the ready queue — `schedule` only
        // drains the queue, so the task cannot run before its backoff is
        // due. `drain_backoff` re-queues it.
        entry.state = TaskState::Ready;
        let delay = self.liveness.retry_backoff * 2u32.saturating_pow(retries.saturating_sub(1));
        self.backoff.push((self.now + delay, id));
    }

    /// How many of a task's distinct dependencies are not in Memory yet, or
    /// why it cannot run at all: an erred dependency propagates its error,
    /// and a released one cannot be recomputed (`PeerLost`).
    fn dep_readiness(&self, id: TaskId) -> Result<usize, TaskError> {
        let entry = self.tasks.get(id).expect("a held task");
        let spec = entry.spec.as_ref().expect("a task that runs has a spec");
        let mut seen: HashSet<TaskId> = HashSet::new();
        let mut n_waiting = 0;
        // `deps[i]` is the task of `spec.deps[i]`.
        for (&dep, key) in entry.deps.iter().zip(&spec.deps) {
            if !seen.insert(dep) {
                continue;
            }
            match self.tasks.get(dep) {
                Some(de) if de.state == TaskState::Memory => {}
                Some(de) if de.state == TaskState::Erred => {
                    return Err(match de.error.clone() {
                        Some(e) => e.propagated_via(key.clone()),
                        None => TaskError::new(key.clone(), "upstream error"),
                    });
                }
                Some(_) => n_waiting += 1,
                None => {
                    return Err(TaskError::new(
                        key.clone(),
                        format!("dependency {key} released; cannot recompute"),
                    )
                    .with_cause(ErrorCause::PeerLost));
                }
            }
        }
        Ok(n_waiting)
    }

    /// A Memory result lost its last replica. Prefer recompute when the
    /// spec is known (who_has refetch is moot — there is nowhere left to
    /// fetch from); external blocks have no recipe and must fail.
    fn recover_lost_result(&mut self, id: TaskId, worker: WorkerId) {
        let entry = self.tasks.entry(id);
        if entry.spec.is_none() {
            // External (or scattered) block: the environment produced it,
            // only the dead worker held it. Unrecoverable by design.
            let error = TaskError::new(
                entry.key.clone(),
                format!("external block lost with worker {worker}; no surviving replica"),
            )
            .with_cause(ErrorCause::PeerLost);
            self.stats.inc(Metric::ExternalBlocksLost);
            self.mark_erred(id, error);
            return;
        }
        self.stats.inc(Metric::Recomputes);
        // Dependents that already consumed this result must wait for the
        // recompute (only those not yet running; in-flight ones that trip
        // on the missing input come back through the retry path).
        let dependents = entry.dependents.clone();
        for d in dependents {
            if let Some(de) = self.tasks.get_mut(d) {
                match de.state {
                    TaskState::Waiting => de.n_waiting += 1,
                    TaskState::Ready => {
                        // Possibly still in the ready queue; the demotion
                        // makes `schedule` skip that stale entry.
                        de.state = TaskState::Waiting;
                        de.n_waiting = 1;
                    }
                    _ => {}
                }
            }
        }
        // Re-derive readiness from the surviving dependency states. If this
        // task's own inputs were also lost, their `recover_lost_result`
        // pass re-demotes us via the dependent loop above — order within
        // the lost set does not matter.
        let n_waiting = match self.dep_readiness(id) {
            Ok(n) => n,
            Err(error) => return self.mark_erred(id, error),
        };
        let entry = self.tasks.entry(id);
        entry.n_waiting = n_waiting;
        entry.assigned_to = None;
        entry.error = None;
        if n_waiting == 0 {
            entry.state = TaskState::Ready;
            self.tracer
                .instant(EventKind::TaskReady, Some(&entry.key), 0);
            self.policy.push(id);
        } else {
            entry.state = TaskState::Waiting;
        }
    }

    /// An idle worker asked for work: point the most-loaded live peer that
    /// has more assignments than slots (i.e. queued-but-unstarted work) at
    /// it via [`ExecMsg::Steal`]. The victim answers with
    /// `Stolen`; no peer with surplus is an immediate miss.
    fn handle_steal_request(&mut self, thief: WorkerId) {
        self.stats.inc(Metric::StealRequests);
        if !self.worker_alive(thief) {
            return;
        }
        let victim = (0..self.workers.len())
            .filter(|&w| w != thief && self.workers[w].alive && !self.steal_inflight[w])
            .filter(|&w| self.workers[w].processing > self.workers[w].slots)
            .max_by(|&a, &b| WorkerState::load_cmp(&self.workers[a], &self.workers[b]));
        let Some(victim) = victim else {
            self.stats.inc(Metric::StealMisses);
            return;
        };
        // Take half the surplus: enough to matter, and the victim keeps its
        // slots busy even if its queue estimate was stale.
        let surplus = self.workers[victim].processing - self.workers[victim].slots;
        let max = (surplus / 2).max(1);
        self.steal_inflight[victim] = true;
        self.sink.send_exec(victim, ExecMsg::Steal { thief, max });
    }

    /// A victim reported the assignments it forwarded. Re-point each task
    /// that is still in flight on the victim; anything that completed,
    /// erred, or was recovered while the steal raced stays untouched (the
    /// thief's duplicate completion report is deduplicated like a replica).
    fn handle_stolen(&mut self, victim: WorkerId, thief: WorkerId, keys: Vec<Key>) {
        if victim >= self.workers.len() || thief >= self.workers.len() {
            return;
        }
        self.steal_inflight[victim] = false;
        if keys.is_empty() {
            self.stats.inc(Metric::StealMisses);
            return;
        }
        let thief_alive = self.worker_alive(thief);
        for key in keys {
            let Some(id) = self.tasks.id(&key) else {
                continue;
            };
            let entry = self.tasks.entry(id);
            if entry.state != TaskState::Processing || entry.assigned_to != Some(victim) {
                continue;
            }
            self.workers[victim].processing = self.workers[victim].processing.saturating_sub(1);
            if !thief_alive {
                // The thief died between asking and receiving: the forwarded
                // assignment went into a black hole. Recover like any other
                // in-flight loss.
                self.retry_or_fail(id);
                self.pending_schedule = true;
                continue;
            }
            entry.assigned_to = Some(thief);
            self.workers[thief].processing += 1;
            self.stats.inc(Metric::TasksStolen);
            self.tracer
                .instant(EventKind::Steal, Some(&key), thief as u64);
        }
    }

    /// Drain the ready queue, assigning tasks to workers. Assignments are
    /// coalesced into one `ExecMsg::ExecuteBatch` per worker (the receiving
    /// slot fans the tail back out to its siblings). Returns the number of
    /// tasks assigned this pass.
    fn schedule(&mut self) -> u64 {
        let mut per_worker = std::mem::take(&mut self.assignments);
        per_worker.resize_with(self.workers.len(), Vec::new);
        let mut n_assigned = 0u64;
        // One timestamp per pass: every assignment in the pass shares it, so
        // queue-delay measurement costs one clock read per pass, not per task.
        let assigned_at = self.now;
        while let Some(id) = self.policy.pop() {
            let Some(entry) = self.tasks.get(id) else {
                continue;
            };
            if entry.state != TaskState::Ready {
                continue;
            }
            let spec = Arc::clone(
                entry
                    .spec
                    .as_ref()
                    .expect("ready tasks have specs (external tasks are never ready)"),
            );
            // Split the borrow: the policy mutates itself while reading the
            // task table and worker states through shared references.
            let worker = {
                let Self {
                    ref mut policy,
                    ref tasks,
                    ref workers,
                    ..
                } = *self;
                let lookup = |f: &mut dyn FnMut(u64, &[WorkerId])| {
                    for &dep in &entry.deps {
                        if let Some(e) = tasks.get(dep) {
                            f(e.nbytes, &e.who_has);
                        }
                    }
                };
                policy.decide_worker(&spec, workers, &lookup)
            };
            let Some(worker) = worker else {
                // Every worker is gone: nothing can ever run this.
                self.stats.inc(Metric::RetriesExhausted);
                self.mark_erred(
                    id,
                    TaskError::new(spec.key.clone(), "no live workers remain")
                        .with_cause(ErrorCause::PeerLost),
                );
                continue;
            };
            // Ship locations only for deps the target worker does not hold:
            // local deps resolve from its store, so cloning their (possibly
            // long) `who_has` lists here would be pure overhead. Dead
            // workers are filtered so gathers never try a known black hole.
            // With stealing on, *every* dep location ships — a stolen task
            // must locate inputs the original target held locally.
            let steal_enabled = self.steal_enabled;
            let dep_locations: Vec<(Key, Vec<WorkerId>)> = entry
                .deps
                .iter()
                .filter_map(|&d| {
                    let e = self.tasks.get(d)?;
                    if !steal_enabled && e.who_has.contains(&worker) {
                        return None;
                    }
                    Some((
                        e.key.clone(),
                        e.who_has
                            .iter()
                            .copied()
                            .filter(|&w| self.workers[w].alive)
                            .collect(),
                    ))
                })
                .collect();
            let entry = self.tasks.entry(id);
            entry.state = TaskState::Processing;
            entry.assigned_to = Some(worker);
            self.workers[worker].processing += 1;
            n_assigned += 1;
            self.tracer
                .instant(EventKind::Assign, Some(&spec.key), worker as u64);
            let assignment = Assignment {
                spec,
                dep_locations,
                assigned_at,
            };
            per_worker[worker].push(assignment);
        }
        let mut n_messages = 0u64;
        for (worker, tasks) in per_worker.iter_mut().enumerate() {
            match tasks.len() {
                0 => continue,
                1 => {
                    let assignment = tasks.pop().expect("len checked");
                    self.sink.send_exec(worker, ExecMsg::Execute(assignment));
                }
                _ => {
                    let tasks = std::mem::take(tasks);
                    self.sink.send_exec(worker, ExecMsg::ExecuteBatch { tasks });
                }
            }
            n_messages += 1;
        }
        self.assignments = per_worker;
        self.stats.add(Metric::AssignTasks, n_assigned);
        self.stats.add(Metric::AssignMessages, n_messages);
        n_assigned
    }
}

#[cfg(test)]
mod tests;
