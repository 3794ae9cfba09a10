//! Pluggable transport layer: every inter-actor message crosses an
//! [`Endpoint`], and replies are id-routed — no live channel handle ever
//! travels inside a message enum.
//!
//! Four backends, selected per cluster via [`TransportConfig`]:
//!
//! | backend  | encoding | delay | purpose |
//! |----------|----------|-------|---------|
//! | `InProc` | none     | none  | zero-overhead default (plain channels)  |
//! | `Framed` | [`crate::wire`] round-trip per message | none | real bytes-on-the-wire accounting + serialization-tax measurement |
//! | `SimNet` | [`crate::wire`] for sizes | fat-tree latency/bandwidth via [`netsim`] | the DES network model injected into *live* cluster runs |
//! | `Tcp`    | [`crate::wire`] over real sockets ([`crate::net`]) | kernel loopback | every message crosses a nonblocking TCP socket with partial-read reassembly; same backend the multi-process deployment layer runs on |
//!
//! Framed and SimNet record per-lane message/byte counters into
//! [`crate::stats::SchedulerStats`] (`WireLane`), which surface through
//! `StatsSnapshot` and the trace layer; InProc deliberately records nothing
//! so the default path stays allocation- and codec-free.

use crate::key::Key;
use crate::msg::{ClientId, ClientMsg, DataMsg, ExecMsg, SchedMsg, WorkerId};
use crate::stats::{Metric, SchedulerStats, WireLane};
use crate::trace::{EventKind, TraceHandle};
use crate::wire;
use crate::Datum;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which transport backend a cluster's actors communicate over.
#[derive(Debug, Clone, Default)]
pub enum TransportConfig {
    /// Plain in-process channels — the zero-overhead default.
    #[default]
    InProc,
    /// Every message is encoded and decoded through the versioned wire
    /// format, so byte counters are real serialized sizes and round-trip
    /// fidelity is exercised on every send.
    Framed,
    /// Framed sizing plus fat-tree latency/bandwidth delays from the
    /// [`netsim`] network model, injected into the live run.
    SimNet(SimNetConfig),
    /// Every message travels as a routed frame over a real TCP socket
    /// (loopback listener, per-peer writer threads, partial-read
    /// reassembly — see [`crate::net`]). Per-lane accounting counts the
    /// same envelope bytes as `Framed`, so byte totals are directly
    /// comparable; this is also the backend worker processes attached via
    /// the deployment layer speak.
    Tcp,
}

/// Parameters for the [`TransportConfig::SimNet`] backend.
#[derive(Debug, Clone)]
pub struct SimNetConfig {
    /// Fat-tree parameters. `nodes: 0` auto-sizes to scheduler + workers +
    /// a small pool of client nodes when the cluster is built.
    pub network: netsim::NetworkConfig,
}

impl Default for SimNetConfig {
    fn default() -> Self {
        SimNetConfig {
            network: netsim::NetworkConfig {
                nodes: 0,
                ..netsim::NetworkConfig::default()
            },
        }
    }
}

/// Simulated nanoseconds per real nanosecond: injected delays are the
/// model's transfer times divided by this factor, which keeps the model's
/// *relative* contention while compressing wall-clock.
const SIMNET_TIME_SCALE: u64 = 1_000;

/// Number of extra fat-tree nodes client actors are spread over when the
/// SimNet node count is auto-sized.
const SIMNET_CLIENT_NODES: usize = 4;

// ---- fault injection -------------------------------------------------------

/// Drop a deterministic fraction of the messages on one [`WireLane`].
#[derive(Debug, Clone, Copy)]
pub struct LaneDrop {
    /// Lane whose traffic is sampled.
    pub lane: WireLane,
    /// Fraction in `[0, 1]` of messages to drop (Bresenham-spread, so a
    /// fraction of `0.5` drops exactly every second message — deterministic
    /// and seed-free).
    pub fraction: f64,
}

/// A chaos-testing plan pluggable into a cluster's transport: message
/// drops and heartbeat delays.
///
/// All fields default to "no faults"; the plan is inert unless configured.
/// Message drops apply to any backend; heartbeat delay needs the delivery
/// pump of the [`TransportConfig::SimNet`] backend (the only backend with a
/// notion of in-flight time) and is ignored elsewhere.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Per-lane message drop fractions.
    pub drop: Vec<LaneDrop>,
    /// Extra in-flight delay for heartbeat messages (client and worker),
    /// applied by the SimNet delivery pump.
    pub delay_heartbeats: Option<Duration>,
}

impl FaultPlan {
    /// Does this plan inject anything at all?
    pub fn is_inert(&self) -> bool {
        self.drop.is_empty() && self.delay_heartbeats.is_none()
    }
}

/// Runtime state of an active [`FaultPlan`]: per-lane send counters driving
/// the deterministic drop pattern.
struct FaultState {
    plan: FaultPlan,
    seen: [AtomicU64; WireLane::COUNT],
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            seen: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Should the `n`-th message on this lane be dropped? Deterministic:
    /// message `n` (1-based) drops iff `floor(n·p)` advanced past
    /// `floor((n-1)·p)`, spreading drops evenly without randomness.
    fn should_drop(&self, lane: WireLane) -> bool {
        let Some(d) = self.plan.drop.iter().find(|d| d.lane == lane) else {
            return false;
        };
        let p = d.fraction.clamp(0.0, 1.0);
        if p <= 0.0 {
            return false;
        }
        let n = self.seen[lane as usize].fetch_add(1, Ordering::Relaxed) + 1;
        (n as f64 * p).floor() > ((n - 1) as f64 * p).floor()
    }

    /// Extra in-flight delay for this payload (heartbeats only).
    fn extra_delay(&self, payload: &Payload) -> Duration {
        match payload {
            Payload::Sched(SchedMsg::Heartbeat { .. } | SchedMsg::WorkerHeartbeat { .. }) => {
                self.plan.delay_heartbeats.unwrap_or(Duration::ZERO)
            }
            _ => Duration::ZERO,
        }
    }
}

/// Transport-level address of an actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Addr {
    /// The scheduler loop.
    Scheduler,
    /// Worker `w`'s data server.
    WorkerData(WorkerId),
    /// Worker `w`'s executor-slot inbox.
    WorkerExec(WorkerId),
    /// A connected client (or bridge).
    Client(ClientId),
    /// The cluster handle itself (introspection such as `worker_memory`).
    Control,
}

/// A serializable reply token: *where* to route a [`DataReply`] and the
/// correlation id identifying the waiting request. This is what replaced
/// the `Sender` handles that used to live inside [`DataMsg`] variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyTo {
    /// The requester's address (used for SimNet path costing).
    pub addr: Addr,
    /// Correlation id minted by [`Endpoint::request`].
    pub corr: u64,
}

/// Response to a [`DataMsg`] request, routed by correlation id.
#[derive(Debug, Clone)]
pub enum DataReply {
    /// A `Put` landed.
    PutAck,
    /// A `Get` result: the value, or why the key is not here.
    Value(Result<Datum, String>),
    /// Store statistics: `(stored keys, stored bytes)`.
    Stats {
        /// Number of stored keys.
        keys: u64,
        /// Sum of stored payload bytes.
        bytes: u64,
    },
}

/// How one data request ended (see [`Endpoint::request`]).
#[derive(Debug)]
pub enum Outcome {
    /// The holder answered: with the value for a `Get` or `Fetch`
    /// (`DataReply::Value(Ok(..))`), with an ack or its statistics otherwise.
    Value(DataReply),
    /// The holder answered that it does not have the key: its message.
    Miss(String),
    /// The holder hung up: the transport cancelled the reply slot because
    /// its data server is gone.
    HungUp,
}

/// A read that failed, or a task that failed (on such a read or in its
/// own computation): the key it failed on, why, and — when a dead holder
/// rather than the data or the computation is to blame — the first holder
/// that hung up. The scheduler resubmits work that failed on a hung-up
/// holder and treats that holder as dead; every other failure is final.
pub(crate) struct Failure {
    pub(crate) origin: Key,
    pub(crate) message: String,
    pub(crate) hung_peer: Option<WorkerId>,
}

impl From<Failure> for crate::msg::TaskError {
    fn from(f: Failure) -> Self {
        let error = crate::msg::TaskError::new(f.origin, f.message);
        match f.hung_peer {
            Some(_) => error.with_cause(crate::msg::ErrorCause::PeerLost),
            None => error,
        }
    }
}

/// One routed message: what is being delivered, minus the destination
/// (which travels alongside). Public so the wire codec and tests can
/// construct and inspect transport frames.
#[derive(Clone)]
pub enum Payload {
    /// Into the scheduler.
    Sched(SchedMsg),
    /// Into a worker's executor inbox.
    Exec(ExecMsg),
    /// Into a worker's data server.
    Data(DataMsg),
    /// Into a client inbox.
    Client(ClientMsg),
    /// A correlated [`DataReply`].
    Reply {
        /// Correlation id from the originating [`ReplyTo`].
        corr: u64,
        /// The response.
        reply: DataReply,
    },
}

impl Payload {
    /// The reply slot riding this message, if it is a data request.
    fn reply_to(&self) -> Option<ReplyTo> {
        match self {
            Payload::Data(msg) => msg.reply_to(),
            _ => None,
        }
    }
}

// ---- delivery fabric -------------------------------------------------------

/// The scheduler/worker channel ends a cluster hands its router at
/// construction (client and reply routes register dynamically).
pub(crate) struct ClusterChannels {
    pub(crate) sched_tx: Sender<SchedMsg>,
    pub(crate) data_txs: Vec<Sender<DataMsg>>,
    pub(crate) exec_txs: Vec<Sender<ExecMsg>>,
    /// Urgent per-worker lane for [`ExecMsg::Steal`]: a steal probe must
    /// overtake the very backlog it wants to drain, so it cannot share the
    /// FIFO executor inbox with `Execute` traffic.
    pub(crate) steal_txs: Vec<Sender<ExecMsg>>,
}

/// The receiving halves of one worker's channels, plus the loopback sender
/// its executor slots requeue batch tails with.
pub(crate) struct WorkerInbox {
    pub(crate) data_rx: Receiver<DataMsg>,
    pub(crate) exec_rx: Receiver<ExecMsg>,
    pub(crate) steal_rx: Receiver<ExecMsg>,
    pub(crate) exec_tx: Sender<ExecMsg>,
}

impl ClusterChannels {
    /// A fresh channel set for `n_workers`: the sending halves (for the
    /// router), the scheduler's inbox, and each worker's inbox. A caller
    /// that runs no local thread for an actor drops that actor's inbox —
    /// sends to it then fail like sends to any dead actor, and a socket
    /// plane never delivers there anyway.
    pub(crate) fn new(n_workers: usize) -> (ClusterChannels, Receiver<SchedMsg>, Vec<WorkerInbox>) {
        let (sched_tx, sched_rx) = unbounded();
        let mut channels = ClusterChannels {
            sched_tx,
            data_txs: Vec::with_capacity(n_workers),
            exec_txs: Vec::with_capacity(n_workers),
            steal_txs: Vec::with_capacity(n_workers),
        };
        let inboxes = (0..n_workers)
            .map(|_| {
                let (data_tx, data_rx) = unbounded();
                let (exec_tx, exec_rx) = unbounded();
                let (steal_tx, steal_rx) = unbounded();
                channels.data_txs.push(data_tx);
                channels.exec_txs.push(exec_tx.clone());
                channels.steal_txs.push(steal_tx);
                WorkerInbox {
                    data_rx,
                    exec_rx,
                    steal_rx,
                    exec_tx,
                }
            })
            .collect();
        (channels, sched_rx, inboxes)
    }
}

/// The raw channel ends every backend ultimately delivers into.
struct Fabric {
    channels: ClusterChannels,
    clients: Mutex<HashMap<ClientId, Sender<ClientMsg>>>,
    replies: Mutex<HashMap<u64, Sender<DataReply>>>,
}

impl Fabric {
    /// Hand a decoded payload to its destination channel. Channel-closed
    /// errors are swallowed (teardown races), except that a data request
    /// whose server is gone gets its reply slot cancelled so the requester
    /// unblocks with a disconnect instead of waiting forever.
    fn deliver(&self, to: Addr, payload: Payload) {
        match payload {
            Payload::Sched(m) => {
                let _ = self.channels.sched_tx.send(m);
            }
            Payload::Exec(m) => {
                // Steal probes ride the urgent lane: a victim answers after
                // its current task, not after its whole queued backlog.
                let txs = if matches!(m, ExecMsg::Steal { .. }) {
                    &self.channels.steal_txs
                } else {
                    &self.channels.exec_txs
                };
                if let Some(tx) = worker_tx(txs, to_worker(to)) {
                    let _ = tx.send(m);
                }
            }
            Payload::Data(m) => {
                let cancel = match worker_tx(&self.channels.data_txs, to_worker(to)) {
                    Some(tx) => tx.send(m).err().map(|e| e.0),
                    None => Some(m),
                };
                // Dead data server: drop the waiting reply slot so the
                // requester sees "worker hung up", not a hang.
                self.cancel(cancel.and_then(|m| m.reply_to()));
            }
            Payload::Client(m) => {
                let tx = match to {
                    Addr::Client(id) => self.clients.lock().get(&id).cloned(),
                    _ => None,
                };
                if let Some(tx) = tx {
                    let _ = tx.send(m);
                }
            }
            Payload::Reply { corr, reply } => {
                if let Some(tx) = self.replies.lock().remove(&corr) {
                    let _ = tx.send(reply);
                }
            }
        }
    }

    /// Decode an envelope and deliver what it holds: the one place a coded
    /// backend turns bytes back into a message, whether they crossed a
    /// socket or never left [`Router::dispatch`]. An envelope that does not
    /// decode is a codec bug on the sending side: it is dropped loudly, and
    /// the reply slot `riding` it (known only to a sender in this process)
    /// is cancelled so its requester does not wait forever.
    fn deliver_encoded(&self, to: Addr, envelope: &[u8], riding: Option<ReplyTo>) {
        match wire::decode(envelope) {
            Ok(payload) => self.deliver(to, payload),
            Err(e) => {
                eprintln!("dtask: dropping undecodable envelope for {to:?}: {e}");
                self.cancel(riding);
            }
        }
    }

    /// Drop a waiting reply slot: its requester unblocks with a disconnect.
    fn cancel(&self, slot: Option<ReplyTo>) {
        if let Some(r) = slot {
            self.replies.lock().remove(&r.corr);
        }
    }
}

fn to_worker(to: Addr) -> Option<WorkerId> {
    match to {
        Addr::WorkerData(w) | Addr::WorkerExec(w) => Some(w),
        _ => None,
    }
}

fn worker_tx<T>(txs: &[Sender<T>], w: Option<WorkerId>) -> Option<&Sender<T>> {
    w.and_then(|w| txs.get(w))
}

// ---- SimNet backend --------------------------------------------------------

struct PumpJob {
    due: Instant,
    seq: u64,
    to: Addr,
    envelope: Vec<u8>,
    /// The reply slot riding the message (see [`Fabric::deliver_encoded`]).
    riding: Option<ReplyTo>,
}

impl PartialEq for PumpJob {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for PumpJob {}
impl PartialOrd for PumpJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PumpJob {
    // Reversed: BinaryHeap pops the *earliest* due time; the send sequence
    // number breaks ties so simultaneous arrivals keep send order.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct SimNetState {
    net: Mutex<netsim::Network>,
    epoch: Instant,
    n_workers: usize,
    client_nodes: usize,
    seq: AtomicU64,
    pump_tx: Sender<PumpJob>,
}

impl SimNetState {
    fn node_of(&self, a: Addr) -> usize {
        match a {
            Addr::Scheduler | Addr::Control => 0,
            Addr::WorkerData(w) | Addr::WorkerExec(w) => 1 + w.min(self.n_workers - 1),
            Addr::Client(c) => 1 + self.n_workers + (c % self.client_nodes),
        }
    }

    /// Run the message through the fat-tree model; returns when (in real
    /// time, after scaling) it should be delivered.
    fn arrival(&self, from: Addr, to: Addr, bytes: u64) -> (Instant, u64) {
        let scale = SIMNET_TIME_SCALE;
        let now = Instant::now();
        let sim_now =
            (now.saturating_duration_since(self.epoch).as_nanos() as u64).saturating_mul(scale);
        let sim_arrival =
            self.net
                .lock()
                .send(sim_now, self.node_of(from), self.node_of(to), bytes);
        let delay = Duration::from_nanos(sim_arrival.saturating_sub(sim_now) / scale);
        (now + delay, self.seq.fetch_add(1, Ordering::Relaxed))
    }
}

/// Delivery pump: holds delayed messages until their simulated arrival
/// time, then hands them to the fabric. Exits once the router (the only
/// job sender) is gone and the backlog has drained.
fn pump_loop(rx: Receiver<PumpJob>, fabric: Arc<Fabric>) {
    let mut heap: BinaryHeap<PumpJob> = BinaryHeap::new();
    let mut open = true;
    while open || !heap.is_empty() {
        // Deliver everything due.
        while heap.peek().is_some_and(|j| j.due <= Instant::now()) {
            if let Some(job) = heap.pop() {
                fabric.deliver_encoded(job.to, &job.envelope, job.riding);
            }
        }
        let next = match heap.peek() {
            Some(job) => job.due.saturating_duration_since(Instant::now()),
            // Idle with a closed inlet: done.
            None if !open => break,
            None => Duration::from_secs(3600),
        };
        match rx.recv_timeout(next) {
            Ok(job) => heap.push(job),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => open = false,
        }
    }
}

// ---- router ----------------------------------------------------------------

/// How an encoded frame travels once [`Router::dispatch`] has encoded and
/// accounted it.
enum Carrier {
    /// Nowhere: decoded and delivered on the spot (`Framed`).
    Direct,
    /// Through the fat-tree delay model and the delivery pump (`SimNet`).
    SimNet(SimNetState),
    /// Over a socket plane (`Tcp`, deployment hub, worker node). Owning it
    /// here stops and joins the plane's threads when the router drops.
    Socket(crate::net::SocketPlane),
}

enum Backend {
    /// Plain channels: nothing is encoded, nothing is accounted.
    InProc,
    /// Every message goes through the wire codec, then a [`Carrier`].
    Coded(Carrier),
}

/// Shared message router for one cluster: owns the backend, the delivery
/// fabric, and the reply-correlation table. Actors talk to it through
/// per-actor [`Endpoint`]s.
pub struct Router {
    fabric: Arc<Fabric>,
    backend: Backend,
    stats: Arc<SchedulerStats>,
    trace: TraceHandle,
    next_corr: AtomicU64,
    n_workers: usize,
    /// Active fault-injection state; `None` when the plan is inert, so the
    /// fault-free hot path pays one branch.
    faults: Option<FaultState>,
}

impl Router {
    /// The one constructor: build the delivery fabric from `channels`, then
    /// let `backend` build the backend over it. `backend` also gets the
    /// hooks a socket plane is built with (decode-and-deliver into the
    /// fabric, reply-slot cancellation, per-lane accounting of hub-received
    /// frames), so a plane's threads never run without them.
    fn build<E>(
        n_workers: usize,
        channels: ClusterChannels,
        stats: Arc<SchedulerStats>,
        trace: TraceHandle,
        faults: FaultPlan,
        backend: impl FnOnce(&Arc<Fabric>, crate::net::PlaneCallbacks) -> Result<Backend, E>,
    ) -> Result<Arc<Router>, E> {
        let fabric = Arc::new(Fabric {
            channels,
            clients: Mutex::new(HashMap::new()),
            replies: Mutex::new(HashMap::new()),
        });
        let deliver_fabric = Arc::clone(&fabric);
        let cancel_fabric = Arc::clone(&fabric);
        let (account_stats, account_trace) = (Arc::clone(&stats), trace.clone());
        let callbacks = crate::net::PlaneCallbacks {
            deliver: Box::new(move |to, envelope| {
                deliver_fabric.deliver_encoded(to, envelope, None)
            }),
            cancel: Box::new(move |corr| {
                cancel_fabric.replies.lock().remove(&corr);
            }),
            account: Box::new(move |lane, bytes| {
                account_stats.record_wire(lane, bytes);
                account_trace.instant(EventKind::WireSend, None, bytes);
            }),
        };
        let backend = backend(&fabric, callbacks)?;
        Ok(Arc::new(Router {
            fabric,
            backend,
            stats,
            trace,
            next_corr: AtomicU64::new(1),
            n_workers,
            faults: (!faults.is_inert()).then(|| FaultState::new(faults)),
        }))
    }

    /// Build the router for a cluster's channel set. SimNet also spawns the
    /// delivery pump (a daemon thread that drains once the router is
    /// dropped); Tcp binds a private loopback plane and fails if it cannot.
    pub(crate) fn new(
        config: &TransportConfig,
        n_workers: usize,
        channels: ClusterChannels,
        stats: Arc<SchedulerStats>,
        trace: TraceHandle,
        faults: FaultPlan,
    ) -> std::io::Result<Arc<Router>> {
        Router::build(
            n_workers,
            channels,
            stats,
            trace,
            faults,
            |fabric, callbacks| {
                Ok(match config {
                    TransportConfig::InProc => Backend::InProc,
                    TransportConfig::Framed => Backend::Coded(Carrier::Direct),
                    TransportConfig::SimNet(sim) => {
                        let mut net_cfg = sim.network.clone();
                        let min_nodes = 1 + n_workers + SIMNET_CLIENT_NODES;
                        if net_cfg.nodes < min_nodes {
                            net_cfg.nodes = min_nodes;
                        }
                        let client_nodes = (net_cfg.nodes - 1 - n_workers).max(1);
                        let (pump_tx, pump_rx) = unbounded();
                        let pump_fabric = Arc::clone(fabric);
                        std::thread::Builder::new()
                            .name("dtask-simnet-pump".into())
                            .spawn(move || pump_loop(pump_rx, pump_fabric))?;
                        Backend::Coded(Carrier::SimNet(SimNetState {
                            net: Mutex::new(netsim::Network::new(net_cfg)),
                            epoch: Instant::now(),
                            n_workers: n_workers.max(1),
                            client_nodes,
                            seq: AtomicU64::new(0),
                            pump_tx,
                        }))
                    }
                    TransportConfig::Tcp => Backend::Coded(Carrier::Socket(
                        crate::net::SocketPlane::loopback(callbacks)?,
                    )),
                })
            },
        )
    }

    /// Build a router whose backend is the socket plane `start` brings up
    /// (deployment hub or attached worker node — see
    /// [`crate::Cluster::listen`] and [`crate::node`]). Same delivery fabric
    /// as [`Router::new`], but frames route over the plane's live
    /// connections instead of a private loopback listener.
    pub(crate) fn new_socket<E>(
        start: impl FnOnce(crate::net::PlaneCallbacks) -> Result<crate::net::SocketPlane, E>,
        n_workers: usize,
        channels: ClusterChannels,
        stats: Arc<SchedulerStats>,
        trace: TraceHandle,
        faults: FaultPlan,
    ) -> Result<Arc<Router>, E> {
        Router::build(n_workers, channels, stats, trace, faults, |_, callbacks| {
            Ok(Backend::Coded(Carrier::Socket(start(callbacks)?)))
        })
    }

    /// The socket plane behind a `Tcp` backend (deploy bookkeeping:
    /// `await_workers`, `goodbye_all`, registration hook). `None` for the
    /// in-process backends.
    pub(crate) fn plane(&self) -> Option<Arc<crate::net::PlaneShared>> {
        match &self.backend {
            Backend::Coded(Carrier::Socket(plane)) => Some(Arc::clone(&plane.shared)),
            _ => None,
        }
    }

    /// An endpoint speaking as `from`.
    pub fn endpoint(self: &Arc<Self>, from: Addr) -> Endpoint {
        Endpoint {
            from,
            router: Arc::clone(self),
        }
    }

    /// Number of workers behind this router.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Drop every outstanding reply slot: each waiter unblocks with a
    /// disconnect. Used by the node runtime when its hub link dies — any
    /// in-flight cross-process request can no longer be answered.
    pub(crate) fn cancel_all_replies(&self) {
        self.fabric.replies.lock().clear();
    }

    /// Register a client inbox route. Must happen before the client's
    /// `ClientConnect` is sent so notifications can never outrun the route.
    pub(crate) fn register_client(&self, id: ClientId, tx: Sender<ClientMsg>) {
        self.fabric.clients.lock().insert(id, tx);
    }

    /// Remove a client inbox route (client drop).
    pub(crate) fn unregister_client(&self, id: ClientId) {
        self.fabric.clients.lock().remove(&id);
    }

    fn dispatch(&self, from: Addr, to: Addr, payload: Payload) {
        let lane = wire::Kind::of(&payload).lane();
        if let Some(f) = &self.faults {
            if lane.is_some_and(|lane| f.should_drop(lane)) {
                // Lost "on the wire": never encoded, never delivered. The
                // counter is the only evidence — exactly like a real loss.
                self.stats.inc(Metric::InjectedDrops);
                return;
            }
        }
        let carrier = match &self.backend {
            Backend::InProc => return self.fabric.deliver(to, payload),
            Backend::Coded(carrier) => carrier,
        };
        let bytes = wire::encode(&payload);
        if bytes.len() > wire::HEADER_BYTES + wire::MAX_FRAME_BYTES {
            return self.refuse_oversized(from, to, payload, bytes.len());
        }
        if let Some(lane) = lane {
            self.account(lane, bytes.len() as u64);
        }
        // What gets delivered is the *decoded* frame: every coded message
        // proves round-trip fidelity.
        let riding = payload.reply_to();
        match carrier {
            Carrier::Direct => self.fabric.deliver_encoded(to, &bytes, riding),
            Carrier::SimNet(sim) => {
                let (mut due, seq) = sim.arrival(from, to, bytes.len() as u64);
                if let Some(f) = &self.faults {
                    due += f.extra_delay(&payload);
                }
                let _ = sim.pump_tx.send(PumpJob {
                    due,
                    seq,
                    to,
                    envelope: bytes,
                    riding,
                });
            }
            Carrier::Socket(plane) => {
                let meta = match (&payload, riding) {
                    (Payload::Reply { corr, .. }, _) => {
                        crate::net::RouteMeta::Reply { corr: *corr }
                    }
                    (_, Some(r)) => crate::net::RouteMeta::Request { corr: r.corr },
                    _ => crate::net::RouteMeta::Plain,
                };
                match plane.shared.route(to, &bytes, meta) {
                    crate::net::RouteOutcome::Sent => {}
                    crate::net::RouteOutcome::Local => {
                        self.fabric.deliver_encoded(to, &bytes, riding)
                    }
                    // The destination's process is gone: cancel any reply
                    // slot riding the request, exactly like the fabric does
                    // for a dead in-process data server.
                    crate::net::RouteOutcome::PeerGone => self.fabric.cancel(riding),
                }
            }
        }
    }

    /// A message whose encoding is over [`wire::MAX_FRAME_BYTES`] is refused
    /// here, where it was built: the peer's frame reader would drop the
    /// whole connection over it. Whoever waits on the message learns of it.
    /// A request's reply slot is cancelled; an oversized reply is replaced
    /// by the error, so its requester (possibly in another process) is
    /// answered.
    fn refuse_oversized(&self, from: Addr, to: Addr, payload: Payload, len: usize) {
        self.stats.inc(Metric::WireOversized);
        eprintln!(
            "dtask: {from:?} -> {to:?}: message of {len} bytes is over the {} byte frame limit; not sent",
            wire::MAX_FRAME_BYTES
        );
        match payload {
            Payload::Reply { corr, .. } => {
                let reply = DataReply::Value(Err(format!(
                    "reply of {len} bytes is over the {} byte frame limit",
                    wire::MAX_FRAME_BYTES
                )));
                self.dispatch(from, to, Payload::Reply { corr, reply });
            }
            request => self.fabric.cancel(request.reply_to()),
        }
    }

    fn account(&self, lane: WireLane, bytes: u64) {
        self.stats.record_wire(lane, bytes);
        self.trace.instant(EventKind::WireSend, None, bytes);
    }
}

// ---- endpoint --------------------------------------------------------------

/// A cluster actor's handle on the transport: all sends carry this actor's
/// [`Addr`] as the source (the SimNet backend costs paths with it).
#[derive(Clone)]
pub struct Endpoint {
    from: Addr,
    router: Arc<Router>,
}

impl Endpoint {
    /// This endpoint's address.
    pub fn addr(&self) -> Addr {
        self.from
    }

    /// Number of workers reachable through this transport.
    pub fn n_workers(&self) -> usize {
        self.router.n_workers()
    }

    /// Remove a client inbox route (called by `Client::drop`).
    pub(crate) fn unregister_client(&self, id: ClientId) {
        self.router.unregister_client(id);
    }

    /// Send into the scheduler.
    pub fn send_sched(&self, msg: SchedMsg) {
        self.router
            .dispatch(self.from, Addr::Scheduler, Payload::Sched(msg));
    }

    /// Send to worker `w`'s executor inbox.
    pub fn send_exec(&self, w: WorkerId, msg: ExecMsg) {
        self.router
            .dispatch(self.from, Addr::WorkerExec(w), Payload::Exec(msg));
    }

    /// Send to worker `w`'s data server.
    pub fn send_data(&self, w: WorkerId, msg: DataMsg) {
        self.router
            .dispatch(self.from, Addr::WorkerData(w), Payload::Data(msg));
    }

    /// Notify a client.
    pub fn send_client(&self, client: ClientId, msg: ClientMsg) {
        self.router
            .dispatch(self.from, Addr::Client(client), Payload::Client(msg));
    }

    /// Route a reply for a previously received request token.
    pub fn reply(&self, to: ReplyTo, reply: DataReply) {
        self.router.dispatch(
            self.from,
            to.addr,
            Payload::Reply {
                corr: to.corr,
                reply,
            },
        );
    }

    /// Send worker `w`'s data server the request `msg` builds around a fresh
    /// reply slot. The returned receiver yields how the request ended; a
    /// dead server surfaces there as [`Outcome::HungUp`], never as a hang.
    pub fn request(&self, w: WorkerId, msg: impl FnOnce(ReplyTo) -> DataMsg) -> ReplyRx {
        let (reply, rx) = self.reply_slot();
        self.send_data(w, msg(reply));
        rx
    }

    /// Read every key of `wants` from the holders listed with it, in order.
    /// One request per key goes to its first holder before any reply is
    /// awaited, so the wait is the slowest read rather than their sum. A
    /// key whose holder misses or hangs up (or that has no holder) is looked
    /// up in `local`, where it may have landed meanwhile, and then asked of
    /// its next holder. `ask` builds the request (`Get` or `Fetch`); `got`
    /// sees every value a holder sent, with that holder and the trace start
    /// of its request. Values come back in `wants` order; the failure names
    /// the first key no holder served and the first of its holders that
    /// hung up.
    pub(crate) fn fetch(
        &self,
        wants: &[(Key, Vec<WorkerId>)],
        ask: fn(Key, ReplyTo) -> DataMsg,
        tracer: &TraceHandle,
        local: impl Fn(&Key) -> Option<Datum>,
        mut got: impl FnMut(&Key, WorkerId, Option<Instant>, &Datum),
    ) -> Result<Vec<Datum>, Failure> {
        let send = |key: &Key, holder: Option<&WorkerId>| {
            holder.map(|&h| (h, tracer.start(), self.request(h, |r| ask(key.clone(), r))))
        };
        let first: Vec<_> = wants
            .iter()
            .map(|(key, holders)| send(key, holders.first()))
            .collect();
        let mut values = Vec::with_capacity(wants.len());
        for ((key, holders), mut asked) in wants.iter().zip(first) {
            let (mut hung_peer, mut miss) = (None, String::new());
            let mut rest = holders.iter().skip(1);
            let value = loop {
                if let Some((holder, t0, rx)) = asked {
                    match rx.recv() {
                        Outcome::Value(DataReply::Value(Ok(value))) => {
                            got(key, holder, t0, &value);
                            break Some(value);
                        }
                        Outcome::Value(other) => miss = format!(": unexpected reply {other:?}"),
                        Outcome::Miss(m) => miss = format!(": {m}"),
                        Outcome::HungUp => {
                            hung_peer.get_or_insert(holder);
                        }
                    }
                }
                if let Some(value) = local(key) {
                    break Some(value);
                }
                asked = send(key, rest.next());
                if asked.is_none() {
                    break None;
                }
            };
            let Some(value) = value else {
                let hung = hung_peer.map_or("", |_| ", ≥1 hung up");
                let tried = holders.len();
                return Err(Failure {
                    origin: key.clone(),
                    message: format!("{key} unavailable (tried {tried} peers{hung}){miss}"),
                    hung_peer,
                });
            };
            values.push(value);
        }
        Ok(values)
    }

    /// Open a one-shot reply slot: the returned token travels inside a
    /// request message; the returned receiver yields the correlated
    /// response. Dropping the receiver cancels the slot.
    fn reply_slot(&self) -> (ReplyTo, ReplyRx) {
        let corr = self.router.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        self.router.fabric.replies.lock().insert(corr, tx);
        (
            ReplyTo {
                addr: self.from,
                corr,
            },
            ReplyRx {
                corr,
                rx,
                fabric: Arc::clone(&self.router.fabric),
            },
        )
    }
}

/// Receiving half of a one-shot reply slot (see [`Endpoint::request`]).
pub struct ReplyRx {
    corr: u64,
    rx: Receiver<DataReply>,
    fabric: Arc<Fabric>,
}

impl ReplyRx {
    /// Block until the holder answers or hangs up.
    pub fn recv(self) -> Outcome {
        match self.rx.recv() {
            Ok(DataReply::Value(Err(miss))) => Outcome::Miss(miss),
            Ok(reply) => Outcome::Value(reply),
            Err(_) => Outcome::HungUp,
        }
    }
}

impl Drop for ReplyRx {
    fn drop(&mut self) {
        self.fabric.replies.lock().remove(&self.corr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_router(config: TransportConfig) -> (Arc<Router>, Receiver<SchedMsg>) {
        test_router_with_faults(config, FaultPlan::default())
    }

    fn test_router_with_faults(
        config: TransportConfig,
        faults: FaultPlan,
    ) -> (Arc<Router>, Receiver<SchedMsg>) {
        let (sched_tx, sched_rx) = unbounded();
        let router = Router::new(
            &config,
            2,
            ClusterChannels {
                sched_tx,
                data_txs: Vec::new(),
                exec_txs: Vec::new(),
                steal_txs: Vec::new(),
            },
            Arc::new(SchedulerStats::default()),
            TraceHandle::disabled(),
            faults,
        )
        .expect("test router");
        (router, sched_rx)
    }

    #[test]
    fn inproc_records_no_wire_traffic() {
        let (router, rx) = test_router(TransportConfig::InProc);
        let ep = router.endpoint(Addr::Client(0));
        ep.send_sched(SchedMsg::Heartbeat { client: 0 });
        assert!(matches!(rx.recv().unwrap(), SchedMsg::Heartbeat { .. }));
        assert_eq!(router.stats.wire_total_messages(), 0);
        assert_eq!(router.stats.wire_total_bytes(), 0);
    }

    #[test]
    fn framed_counts_real_encoded_sizes() {
        let (router, rx) = test_router(TransportConfig::Framed);
        let ep = router.endpoint(Addr::Client(3));
        let msg = SchedMsg::WantResult {
            client: 3,
            key: Key::new("result-key"),
        };
        let expected = wire::encode(&Payload::Sched(msg.clone())).len() as u64;
        ep.send_sched(msg);
        match rx.recv().unwrap() {
            SchedMsg::WantResult { client, key } => {
                assert_eq!(client, 3);
                assert_eq!(key.as_str(), "result-key");
            }
            _ => panic!("wrong message"),
        }
        assert_eq!(router.stats.wire_messages(WireLane::SchedIn), 1);
        assert_eq!(router.stats.wire_bytes(WireLane::SchedIn), expected);
    }

    #[test]
    fn simnet_delivers_with_delay_and_accounts_bytes() {
        let (router, rx) = test_router(TransportConfig::SimNet(SimNetConfig::default()));
        let ep = router.endpoint(Addr::Client(0));
        ep.send_sched(SchedMsg::Heartbeat { client: 0 });
        // Arrives after a (scaled) network delay, not necessarily
        // immediately — allow a generous wait.
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(got, SchedMsg::Heartbeat { .. }));
        assert_eq!(router.stats.wire_messages(WireLane::SchedIn), 1);
        assert!(router.stats.wire_bytes(WireLane::SchedIn) > 0);
    }

    #[test]
    fn reply_slots_cancel_when_server_is_gone() {
        // No data servers registered at all: a Get must cancel its slot so
        // the requester unblocks instead of hanging.
        let (router, _rx) = test_router(TransportConfig::InProc);
        let ep = router.endpoint(Addr::Client(0));
        let reply_rx = ep.request(5, |reply| DataMsg::Get {
            key: Key::new("x"),
            reply,
        });
        assert!(
            matches!(reply_rx.recv(), Outcome::HungUp),
            "slot must be cancelled"
        );
    }

    #[test]
    fn proxy_fetch_slots_cancel_when_holder_is_gone() {
        // A proxy resolution aimed at a dead holder must unblock the
        // requester the same way a Get does — PeerLost, never a hang.
        let (router, _rx) = test_router(TransportConfig::InProc);
        let ep = router.endpoint(Addr::Client(0));
        let reply_rx = ep.request(5, |reply| DataMsg::Fetch {
            key: Key::new("proxy:c0:0"),
            reply,
        });
        assert!(
            matches!(reply_rx.recv(), Outcome::HungUp),
            "fetch slot must be cancelled"
        );
    }

    #[test]
    fn fault_plan_drops_deterministic_fraction_and_counts() {
        let plan = FaultPlan {
            drop: vec![LaneDrop {
                lane: WireLane::SchedIn,
                fraction: 0.5,
            }],
            ..FaultPlan::default()
        };
        let (router, rx) = test_router_with_faults(TransportConfig::Framed, plan);
        let ep = router.endpoint(Addr::Client(0));
        for _ in 0..10 {
            ep.send_sched(SchedMsg::Heartbeat { client: 0 });
        }
        let mut delivered = 0;
        while rx.try_recv().is_ok() {
            delivered += 1;
        }
        assert_eq!(delivered, 5, "half the lane must be dropped");
        assert_eq!(router.stats.injected_drops(), 5);
        // Dropped frames never hit the wire counters.
        assert_eq!(router.stats.wire_messages(WireLane::SchedIn), 5);
    }

    #[test]
    fn fault_plan_leaves_other_lanes_alone() {
        let plan = FaultPlan {
            drop: vec![LaneDrop {
                lane: WireLane::DataIn,
                fraction: 1.0,
            }],
            ..FaultPlan::default()
        };
        let (router, rx) = test_router_with_faults(TransportConfig::Framed, plan);
        let ep = router.endpoint(Addr::Client(0));
        ep.send_sched(SchedMsg::Heartbeat { client: 0 });
        assert!(rx.try_recv().is_ok(), "sched lane must be untouched");
        assert_eq!(router.stats.injected_drops(), 0);
    }

    #[test]
    fn simnet_heartbeat_delay_is_injected() {
        let plan = FaultPlan {
            delay_heartbeats: Some(Duration::from_millis(80)),
            ..FaultPlan::default()
        };
        let (router, rx) =
            test_router_with_faults(TransportConfig::SimNet(SimNetConfig::default()), plan);
        let ep = router.endpoint(Addr::Client(0));
        let t0 = Instant::now();
        ep.send_sched(SchedMsg::Heartbeat { client: 0 });
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(got, SchedMsg::Heartbeat { .. }));
        assert!(
            t0.elapsed() >= Duration::from_millis(80),
            "heartbeat must arrive late"
        );
        // Non-heartbeat traffic is not delayed by the heartbeat knob (it
        // only pays the network model's own latency, which at the default
        // time scale is far under the injected 80 ms).
        let t1 = Instant::now();
        ep.send_sched(SchedMsg::ClientConnect { client: 0 });
        let _ = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(t1.elapsed() < Duration::from_millis(80));
    }

    #[test]
    fn tcp_delivers_over_real_sockets_and_matches_framed_bytes() {
        let (framed, framed_rx) = test_router(TransportConfig::Framed);
        let (tcp, tcp_rx) = test_router(TransportConfig::Tcp);
        let msg = SchedMsg::WantResult {
            client: 3,
            key: Key::new("result-key"),
        };
        framed.endpoint(Addr::Client(3)).send_sched(msg.clone());
        tcp.endpoint(Addr::Client(3)).send_sched(msg);
        assert!(matches!(
            framed_rx.recv().unwrap(),
            SchedMsg::WantResult { .. }
        ));
        // Tcp delivery crosses a real loopback socket; block until the
        // accept-side reader hands it back.
        assert!(matches!(
            tcp_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            SchedMsg::WantResult { client: 3, .. }
        ));
        // The 9-byte routing preamble is never accounted: per-lane byte
        // totals are envelope bytes, identical to Framed.
        assert_eq!(
            tcp.stats.wire_bytes(WireLane::SchedIn),
            framed.stats.wire_bytes(WireLane::SchedIn)
        );
        assert_eq!(tcp.stats.wire_messages(WireLane::SchedIn), 1);
    }

    #[test]
    fn tcp_reply_slots_cancel_when_server_is_gone() {
        // Same dead-peer contract as InProc/Framed, but the request now
        // crosses a socket before the missing data server is discovered.
        let (router, _rx) = test_router(TransportConfig::Tcp);
        let ep = router.endpoint(Addr::Client(0));
        let reply_rx = ep.request(5, |reply| DataMsg::Get {
            key: Key::new("x"),
            reply,
        });
        assert!(
            matches!(reply_rx.recv(), Outcome::HungUp),
            "slot must be cancelled"
        );
    }

    /// A message over the frame limit used to be sent anyway: the peer's
    /// reader dropped the connection over it, everything sent to that worker
    /// afterwards was discarded, and the `Put`'s ack slot was never
    /// cancelled, so the sender waited forever.
    #[test]
    fn tcp_oversized_put_is_refused_where_it_is_built_and_the_route_stays_usable() {
        let (channels, _sched_rx, inboxes) = ClusterChannels::new(1);
        let router = Router::new(
            &TransportConfig::Tcp,
            1,
            channels,
            Arc::new(SchedulerStats::default()),
            TraceHandle::disabled(),
            FaultPlan::default(),
        )
        .expect("test router");
        let ep = router.endpoint(Addr::Client(0));
        let put = |elements: usize| {
            ep.request(0, |ack| DataMsg::Put {
                key: Key::new("blk"),
                value: Datum::from(linalg::NDArray::zeros(&[elements])),
                ack,
            })
        };

        // 8 bytes per element: the array alone is one element over the limit.
        let ack_rx = put(crate::net::MAX_FRAME_BYTES / 8 + 1);
        assert_eq!(
            ack_rx.rx.recv_timeout(Duration::from_secs(30)).err(),
            Some(RecvTimeoutError::Disconnected),
            "the ack slot of a refused Put must be cancelled"
        );
        assert_eq!(router.stats.wire_oversized(), 1);
        assert_eq!(router.stats.wire_messages(WireLane::DataIn), 0);

        let _ack_rx = put(4);
        match inboxes[0].data_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(DataMsg::Put { value, .. }) => assert_eq!(value.as_array().unwrap().len(), 4),
            _ => panic!("the small Put behind the refused one was not delivered"),
        }
        assert_eq!(router.stats.wire_messages(WireLane::DataIn), 1);
    }

    /// A reply over the limit is answered with the error in its place.
    #[test]
    fn oversized_reply_reaches_its_requester_as_an_error() {
        let (router, _rx) = test_router(TransportConfig::Framed);
        let requester = router.endpoint(Addr::Control);
        let responder = router.endpoint(Addr::WorkerData(0));
        let (token, reply_rx) = requester.reply_slot();
        let block = linalg::NDArray::zeros(&[crate::net::MAX_FRAME_BYTES / 8 + 1]);
        responder.reply(token, DataReply::Value(Ok(block.into())));
        match reply_rx.recv() {
            Outcome::Miss(err) => assert!(err.contains("frame limit"), "{err}"),
            other => panic!("wrong outcome: {other:?}"),
        }
        assert_eq!(router.stats.wire_oversized(), 1);
        assert_eq!(router.stats.wire_messages(WireLane::ReplyIn), 1);
    }

    #[test]
    fn tcp_reply_round_trip() {
        let (router, _rx) = test_router(TransportConfig::Tcp);
        let requester = router.endpoint(Addr::Control);
        let responder = router.endpoint(Addr::WorkerData(0));
        let (token, reply_rx) = requester.reply_slot();
        responder.reply(token, DataReply::Stats { keys: 2, bytes: 96 });
        match reply_rx.recv() {
            Outcome::Value(DataReply::Stats { keys, bytes }) => {
                assert_eq!((keys, bytes), (2, 96));
            }
            other => panic!("wrong reply: {other:?}"),
        }
        assert_eq!(router.stats.wire_messages(WireLane::ReplyIn), 1);
    }

    #[test]
    fn reply_round_trip_over_framed() {
        let (router, _rx) = test_router(TransportConfig::Framed);
        let requester = router.endpoint(Addr::Control);
        let responder = router.endpoint(Addr::WorkerData(0));
        let (token, reply_rx) = requester.reply_slot();
        responder.reply(token, DataReply::Stats { keys: 2, bytes: 96 });
        match reply_rx.recv() {
            Outcome::Value(DataReply::Stats { keys, bytes }) => {
                assert_eq!((keys, bytes), (2, 96));
            }
            other => panic!("wrong reply: {other:?}"),
        }
        assert_eq!(router.stats.wire_messages(WireLane::ReplyIn), 1);
    }
}
