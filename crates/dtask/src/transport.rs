//! Pluggable transport layer: every inter-actor message crosses an
//! [`Endpoint`], and replies are id-routed — no live channel handle ever
//! travels inside a message enum.
//!
//! Three backends, selected per cluster via [`TransportConfig`], ride two
//! carriers. `InProc` hands messages to plain channels (executor messages to
//! their worker's core). Every other backend encodes each message with
//! [`crate::wire`] and sends the bytes over the byte-stream plane of
//! [`crate::net`], whose readers decode them back into the same channels:
//!
//! | backend  | carrier | link per destination node | purpose |
//! |----------|---------|---------------------------|---------|
//! | `InProc` | channels | none | zero-overhead default |
//! | `Framed` | byte-stream plane | an OS pipe | real bytes-on-the-wire accounting + serialization-tax measurement |
//! | `Tcp`    | byte-stream plane | a connected loopback TCP pair | every message crosses a real socket with partial-read reassembly; the plane the multi-process deployment layer runs on |
//!
//! The coded backends record per-lane message/byte counters into
//! [`crate::stats::SchedulerStats`] (`WireLane`) at dispatch, so both
//! report the same counts for the same message sequence; InProc
//! deliberately records nothing, so the default path stays allocation- and
//! codec-free.
//!
//! Every read of data held elsewhere (a slot's dependency gather, proxy
//! resolution, client results) is one [`Gather`]: the holder fallback rule
//! as a stepped value with no I/O and no clock. [`Endpoint::fetch`] drives
//! it over this transport; the DES drives the same value over its stores.

use crate::key::Key;
use crate::msg::{
    ClientId, ClientMsg, DataMsg, ErrorCause, ExecMsg, SchedMsg, TaskError, WorkerId,
};
use crate::net::Plane;
use crate::stats::{Metric, SchedulerStats, WireLane};
use crate::trace::{EventKind, TraceHandle};
use crate::wire;
use crate::worker::Lane;
use crate::Datum;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which transport backend a cluster's actors communicate over.
#[derive(Debug, Clone, Default)]
pub enum TransportConfig {
    /// Plain in-process channels — the zero-overhead default.
    #[default]
    InProc,
    /// Every message is encoded through the versioned wire format and
    /// crosses an in-process pipe, so byte counters are real serialized
    /// sizes and round-trip fidelity is exercised on every send.
    Framed,
    /// Every message travels as a routed frame over a real TCP socket (one
    /// loopback socket pair per destination node, partial-read reassembly —
    /// see [`crate::net`]). Per-lane accounting counts the same envelope
    /// bytes as `Framed`, so byte totals are directly comparable; this is
    /// also the backend worker processes attached via the deployment layer
    /// speak.
    Tcp,
}

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
/// drops, on any backend. Inert unless configured.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Per-lane message drop fractions.
    pub drop: Vec<LaneDrop>,
}

impl FaultPlan {
    /// Does this plan inject anything at all?
    pub fn is_inert(&self) -> bool {
        self.drop.is_empty()
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
    /// The requester's address: where the reply is routed.
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

// ---- delivery fabric -------------------------------------------------------

/// The scheduler/worker inboxes a cluster hands its router at construction
/// (client and reply routes register dynamically).
pub(crate) struct ClusterChannels {
    pub(crate) sched_tx: Sender<SchedMsg>,
    pub(crate) data_txs: Vec<Sender<DataMsg>>,
    /// Each worker's executor core, which the fabric steps deliveries into.
    pub(crate) lanes: Vec<Arc<Lane>>,
}

/// The receiving halves of one worker's inboxes.
pub(crate) struct WorkerInbox {
    pub(crate) data_rx: Receiver<DataMsg>,
    pub(crate) lane: Arc<Lane>,
}

impl ClusterChannels {
    /// A fresh channel set for `n_workers`, each with `slots` executor slots
    /// and `steal_poll`: the router's sending halves, the scheduler's inbox
    /// and each worker's inbox. A caller that runs no local thread for an
    /// actor drops its inbox: a data send to it fails like one to any dead
    /// actor, and a hub or node plane never delivers there anyway.
    pub(crate) fn new(
        n_workers: usize,
        slots: usize,
        steal_poll: Option<Duration>,
    ) -> (ClusterChannels, Receiver<SchedMsg>, Vec<WorkerInbox>) {
        let (sched_tx, sched_rx) = unbounded();
        let mut channels = ClusterChannels {
            sched_tx,
            data_txs: Vec::with_capacity(n_workers),
            lanes: Vec::with_capacity(n_workers),
        };
        let inboxes = (0..n_workers)
            .map(|w| {
                let (data_tx, data_rx) = unbounded();
                let lane = Arc::new(Lane::new(w, slots, steal_poll));
                channels.data_txs.push(data_tx);
                channels.lanes.push(Arc::clone(&lane));
                WorkerInbox { data_rx, lane }
            })
            .collect();
        (channels, sched_rx, inboxes)
    }
}

/// The in-process end of every route: the inboxes messages are delivered
/// into, the open reply slots, and the counters coded traffic is
/// accounted in. A byte-stream plane holds it to deliver what its readers
/// decode and to cancel the slots aimed at a worker it can no longer reach.
pub(crate) struct Fabric {
    channels: ClusterChannels,
    n_workers: usize,
    clients: Mutex<HashMap<ClientId, Sender<ClientMsg>>>,
    /// Open reply slots by correlation id: the worker whose data server the
    /// request went to, and the waiter.
    replies: Mutex<HashMap<u64, (WorkerId, Sender<DataReply>)>>,
    stats: Arc<SchedulerStats>,
    trace: TraceHandle,
}

impl Fabric {
    /// Hand a payload to its destination channel, or step an executor
    /// message into its worker's core. Channel-closed errors are swallowed
    /// (teardown races), except that a data server whose inbox is closed is
    /// gone: [`Fabric::peer_gone`].
    fn deliver(&self, to: Addr, payload: Payload) {
        match payload {
            Payload::Sched(m) => {
                let _ = self.channels.sched_tx.send(m);
            }
            Payload::Exec(m) => {
                if let Some(lane) = to_worker(to).and_then(|w| self.channels.lanes.get(w)) {
                    lane.deliver(m);
                }
            }
            Payload::Data(m) => {
                if let Some(w) = to_worker(to) {
                    let inbox = self.channels.data_txs.get(w);
                    if inbox.is_none_or(|tx| tx.send(m).is_err()) {
                        self.peer_gone(w);
                    }
                }
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
                if let Some((_, tx)) = self.replies.lock().remove(&corr) {
                    let _ = tx.send(reply);
                }
            }
        }
    }

    /// Decode an envelope and deliver what it holds: the one place a coded
    /// backend turns bytes back into a message. An envelope that does not
    /// decode is a codec bug on the sending side: it is dropped loudly, and
    /// when it was bound for a data server every slot aimed at that worker
    /// dies, so no requester waits forever on it.
    pub(crate) fn deliver_encoded(&self, to: Addr, envelope: &[u8]) {
        match wire::decode(envelope) {
            Ok(payload) => self.deliver(to, payload),
            Err(e) => {
                eprintln!("dtask: dropping undecodable envelope for {to:?}: {e}");
                if let Addr::WorkerData(w) = to {
                    self.peer_gone(w);
                }
            }
        }
    }

    /// Worker `w` is unreachable from here: every reply slot aimed at it
    /// dies, and each waiter unblocks with [`Outcome::HungUp`]. The one rule
    /// for every such event — a send into a closed inbox, a retired data
    /// server, a route to a process that is gone, a hub losing a node, a
    /// node losing its hub.
    pub(crate) fn peer_gone(&self, w: WorkerId) {
        self.replies.lock().retain(|_, (asked, _)| *asked != w);
    }

    /// Drop one reply slot: its waiter unblocks with a disconnect.
    pub(crate) fn cancel(&self, corr: u64) {
        self.replies.lock().remove(&corr);
    }

    /// Number of workers behind this fabric.
    pub(crate) fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Count one coded frame of `bytes` on `lane`.
    pub(crate) fn account(&self, lane: WireLane, bytes: u64) {
        self.stats.record_wire(lane, bytes);
        self.trace.instant(EventKind::WireSend, None, bytes);
    }
}

fn to_worker(to: Addr) -> Option<WorkerId> {
    match to {
        Addr::WorkerData(w) | Addr::WorkerExec(w) => Some(w),
        _ => None,
    }
}

// ---- router ----------------------------------------------------------------

/// Shared message router for one cluster: owns the delivery fabric (with
/// the reply-correlation table) and, for a coded backend, the byte-stream
/// plane. Actors talk to it through per-actor [`Endpoint`]s.
pub struct Router {
    fabric: Arc<Fabric>,
    /// The plane coded messages travel on; `None` for InProc, whose messages
    /// go straight into the fabric. Owning it here stops and joins the
    /// plane's threads when the router drops.
    plane: Option<Plane>,
    next_corr: AtomicU64,
    /// Active fault-injection state; `None` when the plan is inert, so the
    /// fault-free hot path pays one branch.
    faults: Option<FaultState>,
}

impl Router {
    /// The one constructor: build the delivery fabric from `channels`, then
    /// let `plane` bring up the plane over it (`None`: InProc), so a plane's
    /// threads never run without the fabric. [`Plane::for_transport`]
    /// builds the plane of a [`TransportConfig`]; a deployment hub and a
    /// worker node build theirs.
    pub(crate) fn new<E>(
        n_workers: usize,
        channels: ClusterChannels,
        stats: Arc<SchedulerStats>,
        trace: TraceHandle,
        faults: FaultPlan,
        plane: impl FnOnce(&Arc<Fabric>) -> Result<Option<Plane>, E>,
    ) -> Result<Arc<Router>, E> {
        let fabric = Arc::new(Fabric {
            channels,
            n_workers,
            clients: Mutex::new(HashMap::new()),
            replies: Mutex::new(HashMap::new()),
            stats,
            trace,
        });
        let plane = plane(&fabric)?;
        Ok(Arc::new(Router {
            fabric,
            plane,
            next_corr: AtomicU64::new(1),
            faults: (!faults.is_inert()).then(|| FaultState::new(faults)),
        }))
    }

    /// The plane behind a coded backend (deploy bookkeeping:
    /// `await_workers`, `goodbye_all`, the hub's address). `None` for InProc.
    pub(crate) fn plane(&self) -> Option<Arc<crate::net::PlaneShared>> {
        self.plane.as_ref().map(|plane| Arc::clone(&plane.shared))
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
        self.fabric.n_workers
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
                self.fabric.stats.inc(Metric::InjectedDrops);
                return;
            }
        }
        let Some(plane) = &self.plane else {
            return self.fabric.deliver(to, payload);
        };
        let bytes = wire::encode(&payload);
        if bytes.len() > wire::HEADER_BYTES + wire::MAX_FRAME_BYTES {
            return self.refuse_oversized(from, to, payload, bytes.len());
        }
        if let Some(lane) = lane {
            self.fabric.account(lane, bytes.len() as u64);
        }
        // What gets delivered is the *decoded* frame: every coded message
        // proves round-trip fidelity.
        plane.shared.route(to, &bytes);
    }

    /// A message whose encoding is over [`wire::MAX_FRAME_BYTES`] is refused
    /// here, where it was built: the peer's frame reader would drop the
    /// whole connection over it. Whoever waits on the message learns of it.
    /// A request's reply slot is cancelled; an oversized reply is replaced
    /// by the error, so its requester (possibly in another process) is
    /// answered.
    fn refuse_oversized(&self, from: Addr, to: Addr, payload: Payload, len: usize) {
        self.fabric.stats.inc(Metric::WireOversized);
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
            Payload::Data(request) => {
                if let Some(slot) = request.reply_to() {
                    self.fabric.cancel(slot.corr);
                }
            }
            _ => {}
        }
    }
}

// ---- endpoint --------------------------------------------------------------

/// A cluster actor's handle on the transport: all sends carry this actor's
/// [`Addr`] as the source, and a reply to one of its requests is routed
/// back to that address.
#[derive(Clone)]
pub struct Endpoint {
    from: Addr,
    router: Arc<Router>,
}

impl Endpoint {
    /// Number of workers reachable through this transport.
    pub fn n_workers(&self) -> usize {
        self.router.n_workers()
    }

    /// Remove a client inbox route (called by `Client::drop`).
    pub(crate) fn unregister_client(&self, id: ClientId) {
        self.router.unregister_client(id);
    }

    /// Worker `w`'s data server is retired: every reply slot aimed at it
    /// dies (see [`Fabric::peer_gone`]).
    pub(crate) fn peer_gone(&self, w: WorkerId) {
        self.router.fabric.peer_gone(w);
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
        let (reply, rx) = self.reply_slot(w);
        self.send_data(w, msg(reply));
        rx
    }

    /// Read every key of `wants` from the holders listed with it: a
    /// [`Gather`] run over this transport, its first asks all out before
    /// the first reply is awaited, so the wait is the slowest read rather
    /// than their sum. `ask` builds each request (`Get` or `Fetch`); `local`
    /// is the recheck; `got` sees every value a holder sent, with that
    /// holder and the trace start of its request.
    pub(crate) fn fetch(
        &self,
        wants: Wants,
        ask: fn(Key, ReplyTo) -> DataMsg,
        tracer: &TraceHandle,
        local: impl Fn(&Key) -> Option<Datum>,
        mut got: impl FnMut(&Key, WorkerId, Option<Instant>, &Datum),
    ) -> Result<Vec<Datum>, Failed> {
        let send = |key: &Key, holder| {
            (
                tracer.start(),
                self.request(holder, |r| ask(key.clone(), r)),
            )
        };
        Gather::run(wants, local, send, |key, holder, (t0, rx)| {
            let outcome = rx.recv();
            if let Outcome::Value(DataReply::Value(Ok(value))) = &outcome {
                got(key, holder, t0, value);
            }
            outcome
        })
    }

    /// Open a one-shot reply slot for a request to worker `w`: the returned
    /// token travels inside the request; the returned receiver yields the
    /// correlated response, or a disconnect once `w` is gone. Dropping the
    /// receiver cancels the slot.
    fn reply_slot(&self, w: WorkerId) -> (ReplyTo, ReplyRx) {
        let corr = self.router.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        self.router.fabric.replies.lock().insert(corr, (w, tx));
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
        self.rx.recv().map_or(Outcome::HungUp, Outcome::from)
    }
}

impl Drop for ReplyRx {
    fn drop(&mut self) {
        self.fabric.cancel(self.corr);
    }
}

impl From<DataReply> for Outcome {
    /// A reply to a `Get` or `Fetch` that carries the miss is a miss.
    fn from(reply: DataReply) -> Outcome {
        match reply {
            DataReply::Value(Err(miss)) => Outcome::Miss(miss),
            reply => Outcome::Value(reply),
        }
    }
}

/// A failed read or task: the error, and the first holder that hung up when
/// a dead holder rather than the data or the computation is to blame (the
/// scheduler then resubmits the work and treats that holder as dead).
pub(crate) type Failed = (TaskError, Option<WorkerId>);

/// The keys a [`Gather`] reads, each with its holders in the order to ask
/// them, and an ask of one (`(i, holder)`: key `i`, of that holder).
type Wants = Vec<(Key, Vec<WorkerId>)>;
type Ask = (usize, WorkerId);

/// One read of several keys from the workers holding them: the holder
/// fallback rule, stepped, with no I/O and no clock. The first asks go out
/// at once, each key to its first holder; replies are then taken in key
/// order. A key whose holder misses or hangs up, or that has no holder, is
/// rechecked in the local store, where it may have landed meanwhile, then
/// asked of its next holder. The failure names the first key no holder
/// served and the first of its holders that hung up.
pub struct Gather {
    wants: Wants,
    /// The values so far, in key order, or the failure.
    values: Result<Vec<Datum>, Failed>,
    /// Of the key in turn: its holders asked (the last one's reply is
    /// awaited), the first of them that hung up, the last miss.
    asked: usize,
    hung: Option<WorkerId>,
    miss: String,
}

impl Gather {
    /// The read of `wants`, and its first asks; `local` is the recheck.
    pub fn new(wants: Wants, local: impl FnMut(&Key) -> Option<Datum>) -> (Gather, Vec<Ask>) {
        let first = wants.iter().enumerate();
        let first = first.filter_map(|(i, (_, holders))| Some((i, *holders.first()?)));
        let first = first.collect();
        let mut gather = Gather {
            values: Ok(Vec::with_capacity(wants.len())),
            wants,
            asked: 0,
            hung: None,
            miss: String::new(),
        };
        gather.settle(None, local);
        (gather, first)
    }

    /// The ask whose reply is taken next; `None` once the read is over.
    pub fn awaited(&self) -> Option<Ask> {
        let i = self.values.as_ref().ok()?.len();
        Some((i, self.wants.get(i)?.1[self.asked - 1]))
    }

    /// Take the reply to the awaited ask: a value serves its key, anything
    /// else has it rechecked in `local`. Returns the ask to send next, if any.
    /// Once the read is over there is nothing to take: a reply is ignored.
    pub fn take(
        &mut self,
        outcome: Outcome,
        local: impl FnMut(&Key) -> Option<Datum>,
    ) -> Option<Ask> {
        let (_, holder) = self.awaited()?;
        match outcome {
            Outcome::Value(DataReply::Value(Ok(value))) => return self.settle(Some(value), local),
            Outcome::Value(other) => self.miss = format!(": unexpected reply {other:?}"),
            Outcome::Miss(miss) => self.miss = format!(": {miss}"),
            Outcome::HungUp => self.hung = self.hung.or(Some(holder)),
        }
        self.settle(None, local)
    }

    /// Run the read to its end: `send` makes each ask, `recv` waits for the
    /// reply to the awaited one. The values come back in key order.
    pub fn run<R>(
        wants: Wants,
        local: impl Fn(&Key) -> Option<Datum>,
        mut send: impl FnMut(&Key, WorkerId) -> R,
        mut recv: impl FnMut(&Key, WorkerId, R) -> Outcome,
    ) -> Result<Vec<Datum>, Failed> {
        let mut out: Vec<Option<R>> = wants.iter().map(|_| None).collect();
        let (mut gather, mut asks) = Gather::new(wants, &local);
        loop {
            for (i, holder) in asks.drain(..) {
                out[i] = Some(send(&gather.wants[i].0, holder));
            }
            let Some((i, holder)) = gather.awaited() else {
                return gather.values;
            };
            let asked = out[i].take().expect("the awaited ask is out");
            let outcome = recv(&gather.wants[i].0, holder, asked);
            asks.extend(gather.take(outcome, &local));
        }
    }

    /// Settle the key in turn: a key whose turn begins awaits its first ask
    /// if it has a holder; otherwise it is served by `value` or `local`,
    /// else asked of its next holder (returned), else the read fails. A key
    /// served passes the turn on.
    fn settle(
        &mut self,
        mut value: Option<Datum>,
        mut local: impl FnMut(&Key) -> Option<Datum>,
    ) -> Option<Ask> {
        let Ok(values) = &mut self.values else {
            return None;
        };
        while let Some((key, holders)) = self.wants.get(values.len()) {
            if self.asked == 0 && !holders.is_empty() {
                self.asked = 1;
                return None;
            }
            if let Some(value) = value.take().or_else(|| local(key)) {
                values.push(value);
                (self.asked, self.hung, self.miss) = (0, None, String::new());
            } else if self.asked < holders.len() {
                self.asked += 1;
                return Some((values.len(), holders[self.asked - 1]));
            } else {
                let hung = self.hung.map_or("", |_| ", ≥1 hung up");
                let (tried, miss) = (holders.len(), &self.miss);
                let message = format!("{key} unavailable (tried {tried} peers{hung}){miss}");
                let mut error = TaskError::new(key.clone(), message);
                if self.hung.is_some() {
                    error.cause = ErrorCause::PeerLost;
                }
                self.values = Err((error, self.hung));
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::RecvTimeoutError;
    use std::convert::Infallible;

    fn router_with(
        config: &TransportConfig,
        n_workers: usize,
        channels: ClusterChannels,
        faults: FaultPlan,
    ) -> Arc<Router> {
        let stats = Arc::new(SchedulerStats::default());
        Router::new(
            n_workers,
            channels,
            stats,
            TraceHandle::disabled(),
            faults,
            |fabric| Ok::<_, Infallible>(Plane::for_transport(config, fabric)),
        )
        .expect("test router")
    }

    fn test_router(config: TransportConfig) -> (Arc<Router>, Receiver<SchedMsg>) {
        test_router_with_faults(config, FaultPlan::default())
    }

    fn test_router_with_faults(
        config: TransportConfig,
        faults: FaultPlan,
    ) -> (Arc<Router>, Receiver<SchedMsg>) {
        let (sched_tx, sched_rx) = unbounded();
        let channels = ClusterChannels {
            sched_tx,
            data_txs: Vec::new(),
            lanes: Vec::new(),
        };
        (router_with(&config, 2, channels, faults), sched_rx)
    }

    // ---- the holder fallback rule, stepped by hand: no thread, no sleep --

    fn wants(keys: &[(&str, &[WorkerId])]) -> Wants {
        keys.iter()
            .map(|(k, h)| (Key::new(*k), h.to_vec()))
            .collect()
    }

    fn value(x: f64) -> Outcome {
        Outcome::Value(DataReply::Value(Ok(Datum::F64(x))))
    }

    fn miss() -> Outcome {
        Outcome::Miss("key d not on this worker".into())
    }

    fn nothing(_: &Key) -> Option<Datum> {
        None
    }

    fn got(gather: Gather) -> Vec<f64> {
        let values = gather.values.expect("the read succeeded");
        values
            .iter()
            .map(|v| v.as_f64().expect("a scalar"))
            .collect()
    }

    #[test]
    fn every_first_ask_goes_out_before_any_reply_is_taken() {
        let keys = wants(&[("a", &[1, 2]), ("b", &[3]), ("c", &[2, 1])]);
        let (mut gather, first) = Gather::new(keys, nothing);
        assert_eq!(first, [(0, 1), (1, 3), (2, 2)]);
        assert_eq!(gather.awaited(), Some((0, 1)));
        assert_eq!(gather.take(value(1.0), nothing), None);
        assert_eq!(gather.awaited(), Some((1, 3)), "b's ask is already out");
        assert_eq!(gather.take(value(2.0), nothing), None);
        assert_eq!(gather.take(value(3.0), nothing), None);
        assert_eq!(gather.awaited(), None);
        assert_eq!(got(gather), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn a_miss_at_the_first_holder_falls_back_to_the_second() {
        let (mut gather, first) = Gather::new(wants(&[("d", &[1, 2])]), nothing);
        assert_eq!(first, [(0, 1)]);
        assert_eq!(gather.take(miss(), nothing), Some((0, 2)));
        assert_eq!(gather.awaited(), Some((0, 2)));
        assert_eq!(gather.take(value(4.0), nothing), None);
        assert_eq!(got(gather), [4.0]);
    }

    #[test]
    fn a_dead_first_holder_falls_back_to_the_second() {
        let (mut gather, _) = Gather::new(wants(&[("d", &[1, 2])]), nothing);
        assert_eq!(gather.take(Outcome::HungUp, nothing), Some((0, 2)));
        assert_eq!(gather.take(value(5.0), nothing), None);
        assert_eq!(got(gather), [5.0]);
    }

    #[test]
    fn when_every_holder_fails_the_first_that_hung_up_is_blamed() {
        // Holder 2 answers "not here"; holders 1 and 3 are dead. Key e's
        // reply is never taken: d is the first key no holder served.
        let keys = wants(&[("d", &[2, 1, 3]), ("e", &[2])]);
        let (mut gather, first) = Gather::new(keys, nothing);
        assert_eq!(first, [(0, 2), (1, 2)]);
        assert_eq!(gather.take(miss(), nothing), Some((0, 1)));
        assert_eq!(gather.take(Outcome::HungUp, nothing), Some((0, 3)));
        assert_eq!(gather.take(Outcome::HungUp, nothing), None);
        assert_eq!(gather.awaited(), None);
        let Err((error, hung_peer)) = gather.values else {
            panic!("the read did not fail");
        };
        assert_eq!(hung_peer, Some(1));
        assert_eq!(error.key, Key::new("d"));
        assert_eq!(error.cause, ErrorCause::PeerLost);
        assert_eq!(
            error.message,
            "d unavailable (tried 3 peers, ≥1 hung up): key d not on this worker"
        );
    }

    #[test]
    fn a_local_store_hit_after_a_miss_ends_the_search() {
        let (mut gather, _) = Gather::new(wants(&[("d", &[1, 2])]), nothing);
        let local = |key: &Key| (key.as_str() == "d").then_some(Datum::F64(6.0));
        assert_eq!(gather.take(miss(), local), None, "holder 2 is never asked");
        assert_eq!(got(gather), [6.0]);
    }

    #[test]
    fn a_key_with_no_holder_is_served_locally_in_its_turn_or_fails_with_no_peer_tried() {
        let keys = wants(&[("a", &[1]), ("b", &[])]);
        let (mut gather, first) = Gather::new(keys.clone(), nothing);
        assert_eq!(first, [(0, 1)]);
        let local = |key: &Key| (key.as_str() == "b").then_some(Datum::F64(8.0));
        assert_eq!(gather.take(value(7.0), local), None);
        assert_eq!(got(gather), [7.0, 8.0]);
        let (gather, _) = Gather::new(keys[1..].to_vec(), nothing);
        assert_eq!(gather.awaited(), None);
        let Err((error, None)) = gather.values else {
            panic!("a key with no holder and no local copy must fail, blaming nobody");
        };
        assert_eq!(error.message, "b unavailable (tried 0 peers)");
        assert_eq!(error.cause, ErrorCause::Direct);
    }

    #[test]
    fn inproc_records_no_wire_traffic() {
        let (router, rx) = test_router(TransportConfig::InProc);
        let ep = router.endpoint(Addr::Client(0));
        ep.send_sched(SchedMsg::Heartbeat { client: 0 });
        assert!(matches!(rx.recv().unwrap(), SchedMsg::Heartbeat { .. }));
        assert_eq!(router.fabric.stats.wire_total_messages(), 0);
        assert_eq!(router.fabric.stats.wire_total_bytes(), 0);
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
        assert_eq!(router.fabric.stats.wire_messages(WireLane::SchedIn), 1);
        assert_eq!(router.fabric.stats.wire_bytes(WireLane::SchedIn), expected);
    }

    #[test]
    fn framed_delivers_in_order_and_accounts_bytes() {
        let (router, rx) = test_router(TransportConfig::Framed);
        for client in 0..5 {
            router
                .endpoint(Addr::Client(client))
                .send_sched(SchedMsg::Heartbeat { client });
        }
        for client in 0..5 {
            let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(
                matches!(got, SchedMsg::Heartbeat { client: c } if c == client),
                "frames to one destination arrive in send order"
            );
        }
        assert_eq!(router.fabric.stats.wire_messages(WireLane::SchedIn), 5);
        assert!(router.fabric.stats.wire_bytes(WireLane::SchedIn) > 0);
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
        };
        let (router, rx) = test_router_with_faults(TransportConfig::Framed, plan);
        let ep = router.endpoint(Addr::Client(0));
        for _ in 0..10 {
            ep.send_sched(SchedMsg::Heartbeat { client: 0 });
        }
        // The pattern keeps the lane's 11th message: behind the ten on the
        // scheduler's link, it marks their end.
        ep.send_sched(SchedMsg::ClientConnect { client: 0 });
        let mut delivered = 0;
        loop {
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(SchedMsg::Heartbeat { .. }) => delivered += 1,
                Ok(_) => break,
                Err(e) => panic!("the marker never arrived: {e:?}"),
            }
        }
        assert_eq!(delivered, 5, "half the lane must be dropped");
        assert_eq!(router.fabric.stats.injected_drops(), 5);
        // Dropped frames never hit the wire counters.
        assert_eq!(router.fabric.stats.wire_messages(WireLane::SchedIn), 6);
    }

    #[test]
    fn fault_plan_leaves_other_lanes_alone() {
        let plan = FaultPlan {
            drop: vec![LaneDrop {
                lane: WireLane::DataIn,
                fraction: 1.0,
            }],
        };
        let (router, rx) = test_router_with_faults(TransportConfig::Framed, plan);
        let ep = router.endpoint(Addr::Client(0));
        ep.send_sched(SchedMsg::Heartbeat { client: 0 });
        assert!(
            rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "sched lane must be untouched"
        );
        assert_eq!(router.fabric.stats.injected_drops(), 0);
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
        // link's reader hands it back.
        assert!(matches!(
            tcp_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            SchedMsg::WantResult { client: 3, .. }
        ));
        // The 9-byte routing preamble is never accounted: per-lane byte
        // totals are envelope bytes, identical to Framed.
        assert_eq!(
            tcp.fabric.stats.wire_bytes(WireLane::SchedIn),
            framed.fabric.stats.wire_bytes(WireLane::SchedIn)
        );
        assert_eq!(tcp.fabric.stats.wire_messages(WireLane::SchedIn), 1);
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
        let (channels, _sched_rx, inboxes) = ClusterChannels::new(1, 1, None);
        let router = router_with(&TransportConfig::Tcp, 1, channels, FaultPlan::default());
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
        assert_eq!(router.fabric.stats.wire_oversized(), 1);
        assert_eq!(router.fabric.stats.wire_messages(WireLane::DataIn), 0);

        let _ack_rx = put(4);
        match inboxes[0].data_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(DataMsg::Put { value, .. }) => assert_eq!(value.as_array().unwrap().len(), 4),
            _ => panic!("the small Put behind the refused one was not delivered"),
        }
        assert_eq!(router.fabric.stats.wire_messages(WireLane::DataIn), 1);
    }

    /// A reply over the limit is answered with the error in its place.
    #[test]
    fn oversized_reply_reaches_its_requester_as_an_error() {
        let (router, _rx) = test_router(TransportConfig::Framed);
        let requester = router.endpoint(Addr::Control);
        let responder = router.endpoint(Addr::WorkerData(0));
        let (token, reply_rx) = requester.reply_slot(0);
        let block = linalg::NDArray::zeros(&[crate::net::MAX_FRAME_BYTES / 8 + 1]);
        responder.reply(token, DataReply::Value(Ok(block.into())));
        match reply_rx.recv() {
            Outcome::Miss(err) => assert!(err.contains("frame limit"), "{err}"),
            other => panic!("wrong outcome: {other:?}"),
        }
        assert_eq!(router.fabric.stats.wire_oversized(), 1);
        assert_eq!(router.fabric.stats.wire_messages(WireLane::ReplyIn), 1);
    }

    #[test]
    fn tcp_reply_round_trip() {
        let (router, _rx) = test_router(TransportConfig::Tcp);
        let requester = router.endpoint(Addr::Control);
        let responder = router.endpoint(Addr::WorkerData(0));
        let (token, reply_rx) = requester.reply_slot(0);
        responder.reply(token, DataReply::Stats { keys: 2, bytes: 96 });
        match reply_rx.recv() {
            Outcome::Value(DataReply::Stats { keys, bytes }) => {
                assert_eq!((keys, bytes), (2, 96));
            }
            other => panic!("wrong reply: {other:?}"),
        }
        assert_eq!(router.fabric.stats.wire_messages(WireLane::ReplyIn), 1);
    }

    #[test]
    fn reply_round_trip_over_framed() {
        let (router, _rx) = test_router(TransportConfig::Framed);
        let requester = router.endpoint(Addr::Control);
        let responder = router.endpoint(Addr::WorkerData(0));
        let (token, reply_rx) = requester.reply_slot(0);
        responder.reply(token, DataReply::Stats { keys: 2, bytes: 96 });
        match reply_rx.recv() {
            Outcome::Value(DataReply::Stats { keys, bytes }) => {
                assert_eq!((keys, bytes), (2, 96));
            }
            other => panic!("wrong reply: {other:?}"),
        }
        assert_eq!(router.fabric.stats.wire_messages(WireLane::ReplyIn), 1);
    }
}
