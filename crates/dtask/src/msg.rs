//! Message types exchanged between clients, the scheduler, and workers.
//!
//! No variant carries a live channel handle: replies are id-routed through
//! the transport layer via [`ReplyTo`] tokens (see [`crate::transport`]), so
//! every message can be serialized by the coded backends without
//! special-casing.

use crate::datum::Datum;
use crate::key::{Key, SessionId};
use crate::spec::TaskSpec;
use crate::transport::ReplyTo;
use std::sync::Arc;

/// Worker identifier (index into the cluster's worker table).
pub type WorkerId = usize;

/// Client identifier assigned at connect time.
pub type ClientId = usize;

/// Where a [`TaskError`] came from, relative to the task it is attached to.
///
/// The error's `key` always names the *originally failing* task; the cause
/// records how the failure reached the current task, so fused-chain
/// per-stage attribution and dependency cascades stay distinguishable after
/// a wire round-trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorCause {
    /// The task named by `key` failed while executing.
    Direct,
    /// An interior stage of a fused chain failed; `stored_key` is the spec
    /// key the scheduler tracks (the chain tail), while `key` names the
    /// failing stage.
    FusedStage {
        /// The fused spec's key (what the scheduler tracks).
        stored_key: Key,
    },
    /// The failure propagated through a dependency edge; `via` is the
    /// direct dependency that delivered it.
    Propagated {
        /// The dependency the error arrived through.
        via: Key,
    },
    /// The data (or the worker computing it) was lost with a dead peer and
    /// could not be recovered: an unreplicated external block vanished, or
    /// the bounded resubmission budget ran out. Unlike `Propagated`, this
    /// cause survives dependency-edge propagation unchanged, so the client
    /// at the bottom of the downstream cone still sees the loss attribution.
    PeerLost,
}

/// A task failure, delivered to futures and propagated to dependents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// The task that (originally) failed.
    pub key: Key,
    /// Failure description.
    pub message: String,
    /// How the failure relates to the task it is attached to.
    pub cause: ErrorCause,
}

impl TaskError {
    /// An error originating at `key` itself.
    pub fn new(key: impl Into<Key>, message: impl Into<String>) -> Self {
        TaskError {
            key: key.into(),
            message: message.into(),
            cause: ErrorCause::Direct,
        }
    }

    /// Same error with an explicit cause.
    pub fn with_cause(mut self, cause: ErrorCause) -> Self {
        self.cause = cause;
        self
    }

    /// This same failure as seen one dependency edge further downstream.
    /// A `PeerLost` cause is sticky: the loss attribution must reach the
    /// client even through a long dependent cone.
    pub fn propagated_via(&self, via: Key) -> Self {
        TaskError {
            key: self.key.clone(),
            message: self.message.clone(),
            cause: match self.cause {
                ErrorCause::PeerLost => ErrorCause::PeerLost,
                _ => ErrorCause::Propagated { via },
            },
        }
    }

    /// Did this failure originate somewhere other than the task it is
    /// attached to?
    pub fn is_propagated(&self) -> bool {
        matches!(self.cause, ErrorCause::Propagated { .. })
    }
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} failed: {}", self.key, self.message)?;
        // Keep the loss attribution visible through stringly-typed layers
        // (e.g. model-fetch helpers that map errors to `String`).
        if self.cause == ErrorCause::PeerLost {
            write!(f, " [peer lost]")?;
        }
        Ok(())
    }
}

impl std::error::Error for TaskError {}

/// Messages into the scheduler.
#[derive(Clone)]
pub enum SchedMsg {
    /// A new client connected; its notification route is registered with the
    /// transport router before this message is sent, so the scheduler only
    /// records the id.
    ClientConnect {
        /// Client id (assigned by the cluster).
        client: ClientId,
    },
    /// A client disconnected; pending waiters are dropped.
    ClientDisconnect {
        /// The disconnecting client.
        client: ClientId,
    },
    /// Submit a task graph (any number of interdependent specs).
    SubmitGraph {
        /// Submitting client.
        client: ClientId,
        /// The tasks.
        specs: Vec<TaskSpec>,
    },
    /// Register keys as **external tasks** (paper §2.2): tasks not
    /// schedulable nor runnable by this scheduler; their results will be
    /// pushed later by an external environment via `UpdateData`.
    RegisterExternal {
        /// Registering client.
        client: ClientId,
        /// External task keys.
        keys: Vec<Key>,
    },
    /// Out-of-band data landed on a worker (the second half of `scatter`).
    /// With `external: true` the scheduler handles each key like a finished
    /// task: `External → Memory` plus the full transition cascade.
    UpdateData {
        /// Reporting client.
        client: ClientId,
        /// `(key, worker that now holds it, payload bytes)`.
        entries: Vec<(Key, WorkerId, u64)>,
        /// DEISA mode flag (the `external=` argument of the extended scatter).
        external: bool,
    },
    /// Worker reports a task completed.
    TaskFinished {
        /// Executing worker.
        worker: WorkerId,
        /// Completed task.
        key: Key,
        /// Result size.
        nbytes: u64,
    },
    /// Worker gained replicas of keys it fetched from peers during a
    /// dependency gather. Future placement can then prefer the replica
    /// holder instead of re-fetching from the original producer.
    AddReplica {
        /// Worker that now holds copies.
        worker: WorkerId,
        /// `(key, nbytes)` of each newly cached block.
        entries: Vec<(Key, u64)>,
    },
    /// Worker reports a task failed. `stored_key` is the key the scheduler
    /// tracks (the spec key); `error.key` is the originating task, which for
    /// a fused chain may be an interior stage.
    TaskErred {
        /// Executing worker.
        worker: WorkerId,
        /// Key of the spec that failed (what the scheduler tracks).
        stored_key: Key,
        /// Origin and description of the failure.
        error: TaskError,
        /// Peer whose data connection hung up mid-gather, if that is what
        /// failed the task. Direct evidence of that peer's death — the
        /// scheduler acts on it immediately instead of waiting out the
        /// heartbeat timeout.
        failed_peer: Option<WorkerId>,
    },
    /// Client wants a notification when `key` completes (or errs).
    WantResult {
        /// Asking client.
        client: ClientId,
        /// Key of interest.
        key: Key,
    },
    /// Release keys: forget scheduler state and delete worker copies.
    ReleaseKeys {
        /// Keys to forget.
        keys: Vec<Key>,
    },
    /// Set a named distributed variable.
    VariableSet {
        /// Variable name.
        name: String,
        /// New value.
        value: Datum,
    },
    /// Read a variable; with `wait` the reply is deferred until set.
    VariableGet {
        /// Asking client.
        client: ClientId,
        /// Variable name.
        name: String,
        /// Block until the variable exists?
        wait: bool,
    },
    /// Delete a variable.
    VariableDel {
        /// Variable name.
        name: String,
    },
    /// Push onto a named distributed queue.
    QueuePush {
        /// Queue name.
        name: String,
        /// Item.
        value: Datum,
    },
    /// Pop from a named queue (reply deferred until an item exists).
    QueuePop {
        /// Asking client.
        client: ClientId,
        /// Queue name.
        name: String,
    },
    /// Periodic liveness ping from a client (bridges in DEISA1/2).
    Heartbeat {
        /// Pinging client.
        client: ClientId,
    },
    /// Periodic liveness ping from a worker. Off by default
    /// ([`crate::cluster::FaultConfig::worker_heartbeat`] is `Infinite`);
    /// when enabled the scheduler tracks per-worker `last_seen` and declares
    /// a worker dead after the configured `heartbeat_timeout`.
    WorkerHeartbeat {
        /// Pinging worker.
        worker: WorkerId,
    },
    /// An idle executor slot asks for work: the scheduler picks the most
    /// loaded live peer and tells it (via [`ExecMsg::Steal`]) to hand
    /// queued-but-unstarted assignments to this worker. Sent only when
    /// [`crate::policy::PolicyConfig::steal_poll`] is set.
    StealRequest {
        /// The idle (would-be thief) worker.
        worker: WorkerId,
    },
    /// A victim reports which queued assignments it forwarded to a thief.
    /// Empty `keys` means the victim had nothing unstarted to give (a steal
    /// miss). The scheduler re-points `assigned_to` for each key so loss
    /// recovery and load accounting follow the task to its new worker.
    Stolen {
        /// Worker the assignments were taken from.
        victim: WorkerId,
        /// Worker that received them.
        thief: WorkerId,
        /// Keys of the forwarded assignments.
        keys: Vec<Key>,
    },
    /// A worker process attached through the deployment layer (see
    /// [`crate::node`]): the hub completed the `Hello`/`Welcome` handshake
    /// and tells the scheduler to treat this worker slot as live. In-process
    /// clusters never send it — their workers are alive from construction.
    RegisterWorker {
        /// The id the hub assigned to the attaching process.
        worker: WorkerId,
        /// Executor slots the process announced.
        slots: usize,
    },
    /// Stop the scheduler loop.
    Shutdown,
    /// A tenant-scoped message: the scheduler handles `inner` inside the
    /// named session's namespace (string-named variable/queue operations are
    /// re-keyed per session; connect/disconnect bind the client to the
    /// session). Single-tenant clusters never wrap, so their wire bytes stay
    /// identical to the pre-tenancy format. Never nested.
    Scoped {
        /// The tenant session this message belongs to (never 0).
        session: SessionId,
        /// The wrapped message.
        inner: Box<SchedMsg>,
    },
}

/// One scheduler→worker assignment: the task, the placement of each
/// dependency that needs a remote fetch, and the assignment timestamp (the
/// executor measures queue delay — assign → slot dequeue — against it).
#[derive(Clone)]
pub struct Assignment {
    /// The task (shared with the scheduler's entry — no deep copy).
    pub spec: Arc<TaskSpec>,
    /// Placement of each dependency the scheduler believes is *not* already
    /// on the target worker (local deps resolve from its store and are
    /// omitted here).
    pub dep_locations: Vec<(Key, Vec<WorkerId>)>,
    /// When the scheduler's placement pass shipped this task. Not part of
    /// the wire format: the coded backends' decoder re-stamps it at delivery,
    /// so queue delay measures slot wait, not transport latency.
    pub assigned_at: std::time::Instant,
}

/// Messages a worker's *executor slots* handle: each is stepped into the
/// worker's [`crate::worker::Core`], which every slot thread shares.
#[derive(Clone)]
pub enum ExecMsg {
    /// Run one assigned task.
    Execute(Assignment),
    /// A burst of assignments coalesced by the batched scheduler loop,
    /// queued in order: free slots start them concurrently, and the tail
    /// starts before anything delivered after it.
    ExecuteBatch {
        /// Assignments in placement order.
        tasks: Vec<Assignment>,
    },
    /// The scheduler (answering a [`SchedMsg::StealRequest`]) tells this
    /// worker to forward up to `max` queued-but-unstarted assignments to
    /// `thief`. The worker answers as soon as a slot is between tasks: it
    /// takes them from the head of its queue, reports their keys with
    /// [`SchedMsg::Stolen`], and ships them to the thief's executor.
    Steal {
        /// Worker to forward the assignments to.
        thief: WorkerId,
        /// Upper bound on assignments to hand over.
        max: usize,
    },
    /// Stop one executor slot thread, once everything queued before this
    /// has started.
    Shutdown,
}

/// Messages a worker's store answers, in the thread that delivers them (it
/// never waits on the worker's slots, so dependency fetches can never
/// deadlock).
#[derive(Clone)]
pub enum DataMsg {
    /// Store a value (scatter landing). The ack fires after the store, so
    /// the sender can safely tell the scheduler the data exists.
    Put {
        /// Key to store under.
        key: Key,
        /// The value.
        value: Datum,
        /// Where to route the [`crate::transport::DataReply::PutAck`].
        ack: ReplyTo,
    },
    /// Fetch a value (peer dependency fetch or client gather).
    Get {
        /// Requested key.
        key: Key,
        /// Where to route the value (or the miss error).
        reply: ReplyTo,
    },
    /// Drop stored values.
    Delete {
        /// Keys to drop.
        keys: Vec<Key>,
    },
    /// Report store statistics (introspection / load-balance checks).
    Stats {
        /// Where to route the `(stored keys, stored bytes)` reply.
        reply: ReplyTo,
    },
    /// Drop every stored value belonging to one tenant session (teardown
    /// broadcast; cheaper and race-free vs. enumerating keys scheduler-side,
    /// since the store also holds proxy payloads the scheduler never saw).
    Sweep {
        /// The session whose entries are dropped.
        session: SessionId,
    },
    /// Resolve a proxy handle: fetch a store entry published out-of-band
    /// behind a [`crate::datum::DatumRef`]. Semantically a `Get`, but kept
    /// as its own variant so requester-side accounting can tell proxy
    /// resolution (`proxy_fetch_bytes`) apart from dependency gathers, and
    /// so the wire format can evolve the two independently.
    Fetch {
        /// Key of the store entry the handle points at.
        key: Key,
        /// Where to route the value (or the miss error).
        reply: ReplyTo,
    },
    /// A no-op, kept so that its frame (pinned in the wire golden) still
    /// decodes.
    Shutdown,
}

impl DataMsg {
    /// The reply slot riding this message, if it is a request. Whoever
    /// finds the destination gone cancels it, so the requester observes
    /// "worker hung up" instead of waiting forever.
    pub fn reply_to(&self) -> Option<ReplyTo> {
        match self {
            DataMsg::Put { ack: r, .. }
            | DataMsg::Get { reply: r, .. }
            | DataMsg::Fetch { reply: r, .. }
            | DataMsg::Stats { reply: r } => Some(*r),
            DataMsg::Delete { .. } | DataMsg::Sweep { .. } | DataMsg::Shutdown => None,
        }
    }
}

/// Notifications back to a client.
#[derive(Debug, Clone)]
pub enum ClientMsg {
    /// A watched key reached a terminal state.
    KeyReady {
        /// The key.
        key: Key,
        /// Where the data lives, or the task error.
        location: Result<WorkerId, TaskError>,
    },
    /// Variable read result.
    VariableValue {
        /// Variable name.
        name: String,
        /// The value (`Datum::Null` plus `found: false` when non-waiting get
        /// missed).
        value: Datum,
        /// Whether the variable existed.
        found: bool,
    },
    /// Queue pop result.
    QueueItem {
        /// Queue name.
        name: String,
        /// Popped value.
        value: Datum,
    },
    /// Admission-control verdict for a scoped `SubmitGraph`. Sent only when
    /// the cluster runs with a per-session in-flight cap; `accepted: false`
    /// means the graph was rejected wholesale (backpressure — the client
    /// surfaces the error instead of silently queuing).
    SubmitOutcome {
        /// Was the graph admitted?
        accepted: bool,
        /// The session's in-flight task count at decision time.
        inflight: u64,
        /// The configured per-session cap.
        cap: u64,
    },
}
