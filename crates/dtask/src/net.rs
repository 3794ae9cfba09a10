//! Socket plane for the [`crate::TransportConfig::Tcp`] backend and the
//! cross-process deployment layer.
//!
//! Every byte on a socket is a **routed frame**:
//!
//! | bytes   | field                                           |
//! |---------|-------------------------------------------------|
//! | 0       | destination [`Addr`] tag (same tags as the wire codec) |
//! | 1..9    | destination index (worker/client id, LE; `0` otherwise) |
//! | 9..     | a standard [`crate::wire`] envelope (header ‖ body)     |
//!
//! The 9-byte preamble is pure routing — per-lane byte accounting counts
//! only the envelope, so a Tcp cluster reports byte totals identical to the
//! Framed backend.
//!
//! Three plane shapes share this module:
//!
//! * **Loopback** — the `TransportConfig::Tcp` in-process backend: one
//!   listener, one dialed connection per destination node, every message
//!   crossing a real socket with partial-read reassembly.
//! * **Hub** — the deployment listener inside [`crate::Cluster::listen`]:
//!   accepts `dtask-node` worker processes, runs the `Hello`/`Welcome`
//!   registration handshake, and star-routes worker↔worker traffic.
//! * **Node** — the worker-process side (see [`crate::node`]): one
//!   connection to the hub carrying everything.
//!
//! Reply-slot lifetimes across processes: the hub tracks every data request
//! it forwards to a remote node as `(origin, corr) → target`. When a node
//! dies, pending requests against it are cancelled — locally (dropping the
//! reply sender, so the waiter unblocks with a disconnect) when the
//! requester is hub-side, or with a [`NodeMsg::Cancel`] control frame when
//! the requester is another node. That reproduces exactly the in-process
//! dead-worker contract: a requester observes "peer hung up", never a hang.

use crate::stats::WireLane;
use crate::transport::Addr;
use crate::wire::{self, Kind, NodeMsg, NodeWelcome, WireError, HEADER_BYTES};
pub use crate::wire::{MAX_FRAME_BYTES, PREAMBLE_BYTES};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Full frame header: routing preamble + envelope header.
pub const FRAME_HEADER_BYTES: usize = PREAMBLE_BYTES + HEADER_BYTES;

// ---- frame codec ------------------------------------------------------------

/// Build one routed frame: preamble + envelope.
pub fn frame(to: Addr, envelope: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(PREAMBLE_BYTES + envelope.len());
    out.extend_from_slice(&wire::preamble(to));
    out.extend_from_slice(envelope);
    out
}

/// One parsed routed frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Destination actor.
    pub to: Addr,
    /// The complete wire envelope (header ‖ body).
    pub envelope: Vec<u8>,
}

/// Incremental frame parser with partial-read reassembly: push whatever a
/// socket read produced, pull complete frames out. Header fields are
/// validated as soon as their bytes arrive, so garbage is rejected with a
/// structured [`WireError`] instead of being buffered until a bogus length
/// "completes".
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

// Whatever a peer sends, the outcome is a frame, "need more" or a `WireError`.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
impl FrameReader {
    /// Empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Append raw socket bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to parse the next complete frame. `Ok(None)` means "need more
    /// bytes"; errors are structural and poison the stream (the caller
    /// should drop the connection).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        // Both headers are validated as their bytes become visible.
        let to = wire::preamble_addr(&self.buf)?;
        let Some(header) = self.buf.get(PREAMBLE_BYTES..) else {
            return Ok(None);
        };
        let Some((_, body_len)) = wire::check_header(header)? else {
            return Ok(None);
        };
        let total = FRAME_HEADER_BYTES + body_len;
        let Some(envelope) = self.buf.get(PREAMBLE_BYTES..total) else {
            return Ok(None);
        };
        let envelope = envelope.to_vec();
        self.buf.drain(..total);
        Ok(Some(Frame { to, envelope }))
    }

    /// The stream ended: a partially buffered frame is a truncation error,
    /// a clean boundary is fine.
    pub fn at_eof(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Truncated)
        }
    }
}

/// Which plane node an actor address lives on: `0` is the hub process
/// (scheduler, control handle, and every client/bridge), `1 + w` is worker
/// `w`'s process.
pub(crate) fn to_node(a: Addr) -> u64 {
    match a {
        Addr::Scheduler | Addr::Control | Addr::Client(_) => 0,
        Addr::WorkerData(w) | Addr::WorkerExec(w) => 1 + w as u64,
    }
}

// ---- plane ------------------------------------------------------------------

/// Envelope delivery hook: decode and hand the frame to the in-process
/// fabric at the given address (the fabric is transport-private).
type DeliverFn = Box<dyn Fn(Addr, &[u8]) + Send + Sync>;

/// The router-side hooks a plane is built with. The router's delivery fabric
/// exists before any plane does, so every socket thread sees them from its
/// first frame.
pub(crate) struct PlaneCallbacks {
    pub deliver: DeliverFn,
    /// Cancel a local reply slot by correlation id.
    pub cancel: Box<dyn Fn(u64) + Send + Sync>,
    /// Per-lane accounting for frames received by hub readers.
    pub account: Box<dyn Fn(WireLane, u64) + Send + Sync>,
}

/// Hub hook delivering a [`crate::msg::SchedMsg::RegisterWorker`]
/// `(worker, slots)` into the scheduler's inbox.
pub(crate) type RegisterFn = Box<dyn Fn(usize, usize) + Send + Sync>;

/// Dispatch-side metadata the router attaches to a routed envelope so the
/// plane can track cross-process reply lifetimes without re-decoding.
pub(crate) enum RouteMeta {
    /// No reply slot rides this message.
    Plain,
    /// A data request whose reply slot `corr` must be cancelled if the
    /// target dies before answering.
    Request {
        /// The requester-side correlation id.
        corr: u64,
    },
    /// A reply resolving `corr`.
    Reply {
        /// The correlation id being resolved.
        corr: u64,
    },
}

/// Outcome of routing one envelope.
pub(crate) enum RouteOutcome {
    /// Queued onto a live socket.
    Sent,
    /// Destination is this process: the caller must deliver locally.
    Local,
    /// Destination's process is gone: the caller must cancel any reply slot
    /// riding the message (the dead-worker contract).
    PeerGone,
}

enum FrameAction {
    Continue,
    Close,
}

/// Hub-side deployment state.
struct HubState {
    params: HubParams,
    /// Per-worker-id slot claims; an id is assigned once and never reused
    /// (a dead worker's recovery story is resubmission, not resurrection).
    /// Claimed at Hello, released only by pre-registration casualties.
    claimed: Mutex<Vec<bool>>,
    /// Per-worker-id attach flags, set strictly *after* the scheduler
    /// registration is enqueued — `await_workers` returning must imply the
    /// scheduler's inbox already carries every `RegisterWorker`.
    attached: std::sync::Mutex<Vec<bool>>,
    /// Signalled at every attach and at shutdown.
    attach_cv: Condvar,
    /// Enqueues the attach's `RegisterWorker` on the scheduler's raw inbox.
    register: RegisterFn,
    /// Outstanding cross-process data requests: `(origin node, corr)` →
    /// target node. Entries die with the reply that resolves them or with
    /// either endpoint's process.
    pending: Mutex<HashMap<(u64, u64), u64>>,
}

impl HubState {
    fn attached(&self) -> std::sync::MutexGuard<'_, Vec<bool>> {
        self.attached
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

enum Mode {
    Loopback,
    Hub(HubState),
    Node {
        self_node: u64,
        /// Teardown signal into [`crate::node::run_node`]: a `Goodbye`
        /// reason, or a synthesized message when the hub connection drops.
        goodbye_tx: Sender<String>,
    },
}

/// State shared by every socket thread of one plane. The owning
/// [`SocketPlane`] keeps the thread handles; threads keep only this.
pub struct PlaneShared {
    mode: Mode,
    stop: AtomicBool,
    /// Live outbound connections by destination node id. Dropping a sender
    /// retires its writer thread.
    writers: Mutex<HashMap<u64, Sender<Vec<u8>>>>,
    /// Where the plane's listener is bound (loopback and hub modes).
    listen_addr: Option<SocketAddr>,
    callbacks: PlaneCallbacks,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl PlaneShared {
    fn new(mode: Mode, listen_addr: Option<SocketAddr>, callbacks: PlaneCallbacks) -> Arc<Self> {
        Arc::new(PlaneShared {
            mode,
            stop: AtomicBool::new(false),
            writers: Mutex::new(HashMap::new()),
            listen_addr,
            callbacks,
            threads: Mutex::new(Vec::new()),
        })
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Where the listener is bound (loopback and hub planes).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listen_addr
    }

    /// Hub: how many worker processes have completed the handshake.
    pub fn attached_workers(&self) -> usize {
        match &self.mode {
            Mode::Hub(hub) => hub.attached().iter().filter(|a| **a).count(),
            _ => 0,
        }
    }

    /// Hub: block until every worker slot is attached, or `timeout`.
    pub fn await_workers(&self, timeout: Duration) -> bool {
        let Mode::Hub(hub) = &self.mode else {
            return true;
        };
        let (attached, _) = hub
            .attach_cv
            .wait_timeout_while(hub.attached(), timeout, |attached| {
                !self.stopping() && !attached.iter().all(|a| *a)
            })
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        attached.iter().all(|a| *a)
    }

    /// Hub: announce orderly teardown to every attached node. Writes to
    /// already-dead peers fail inside their writer threads, which log and
    /// drain — the teardown sequence itself never blocks or panics.
    pub fn goodbye_all(&self, reason: &str) {
        let env = wire::encode_node(&NodeMsg::Goodbye {
            reason: reason.to_string(),
        });
        let buf = frame(Addr::Control, &env);
        for (node, tx) in self.writers.lock().iter() {
            if *node == 0 {
                continue;
            }
            if tx.send(buf.clone()).is_err() {
                eprintln!("dtask-net: goodbye to node {node} skipped (writer already gone)");
            }
        }
    }

    /// Stop every plane thread. Writers retire when their senders drop and
    /// shut their socket down on the way out, which ends the blocking read
    /// of the reader on the same connection (or, on loopback, of the reader
    /// at the far end). The accept loop is woken by one connection to its
    /// own listener. Joining happens in [`SocketPlane::drop`].
    pub fn shutdown(&self) {
        match self.listen_addr {
            Some(addr) => stop_accepting(&self.stop, addr),
            None => self.stop.store(true, Ordering::SeqCst),
        }
        self.writers.lock().clear();
        if let Mode::Hub(hub) = &self.mode {
            // Taken after the flag is set, so a waiter either sees the flag
            // or is already waiting for this notification.
            let _attached = hub.attached();
            hub.attach_cv.notify_all();
        }
    }

    /// Route one dispatched envelope toward `to`.
    pub(crate) fn route(
        self: &Arc<Self>,
        to: Addr,
        envelope: &[u8],
        meta: RouteMeta,
    ) -> RouteOutcome {
        let dest = to_node(to);
        match &self.mode {
            Mode::Loopback => {
                let tx = match self.loopback_writer(dest) {
                    Some(tx) => tx,
                    // Plane is shutting down: deliver locally so teardown
                    // messages still land.
                    None => return RouteOutcome::Local,
                };
                if tx.send(frame(to, envelope)).is_err() {
                    return RouteOutcome::Local;
                }
                RouteOutcome::Sent
            }
            Mode::Hub(hub) => {
                if dest == 0 {
                    if let RouteMeta::Reply { corr } = meta {
                        // Hub-local reply to a hub-local requester: nothing
                        // pending, but keep the invariant tidy.
                        hub.pending.lock().remove(&(0, corr));
                    }
                    RouteOutcome::Local
                } else if self.hub_forward(hub, 0, to, envelope, &meta) {
                    RouteOutcome::Sent
                } else {
                    // Unattached or dead worker process: same contract as a
                    // closed in-process channel.
                    RouteOutcome::PeerGone
                }
            }
            Mode::Node { self_node, .. } => {
                if dest == *self_node {
                    return RouteOutcome::Local;
                }
                // Everything else — scheduler, clients, peer workers — rides
                // the hub connection (star topology; the hub forwards).
                let tx = self.writers.lock().get(&0).cloned();
                match tx {
                    Some(tx) if tx.send(frame(to, envelope)).is_ok() => RouteOutcome::Sent,
                    _ => RouteOutcome::PeerGone,
                }
            }
        }
    }

    /// Hub: queue one frame from node `origin` onto the connection of `to`'s
    /// worker process, keeping the pending-request map in step — a reply
    /// retires its entry, a request that got queued opens one. `false` when
    /// that process is unattached or gone.
    fn hub_forward(
        &self,
        hub: &HubState,
        origin: u64,
        to: Addr,
        envelope: &[u8],
        meta: &RouteMeta,
    ) -> bool {
        let dest = to_node(to);
        if let RouteMeta::Reply { corr } = meta {
            hub.pending.lock().remove(&(dest, *corr));
        }
        let tx = self.writers.lock().get(&dest).cloned();
        let sent = tx.is_some_and(|tx| tx.send(frame(to, envelope)).is_ok());
        if let (true, RouteMeta::Request { corr }) = (sent, meta) {
            hub.pending.lock().insert((origin, *corr), dest);
        }
        sent
    }

    /// Loopback: connection to destination node `dest`, dialing it (and
    /// spawning its writer) on first use.
    fn loopback_writer(self: &Arc<Self>, dest: u64) -> Option<Sender<Vec<u8>>> {
        let mut writers = self.writers.lock();
        if let Some(tx) = writers.get(&dest) {
            return Some(tx.clone());
        }
        if self.stopping() {
            return None;
        }
        let addr = self.listen_addr?;
        let stream = TcpStream::connect(addr).ok()?;
        let _ = stream.set_nodelay(true);
        let (tx, rx) = unbounded();
        let label = format!("loopback node {dest}");
        let handle = std::thread::Builder::new()
            .name(format!("dtask-net-w{dest}"))
            .spawn(move || writer_loop(stream, rx, label))
            .ok()?;
        self.threads.lock().push(handle);
        writers.insert(dest, tx.clone());
        Some(tx)
    }

    /// Handle one complete inbound frame. `peer` is the sending node when
    /// known (hub readers; `None` on loopback).
    fn handle_frame(self: &Arc<Self>, peer: Option<u64>, f: Frame) -> FrameAction {
        let kind = wire::kind_of(&f.envelope);
        match &self.mode {
            Mode::Loopback => {
                (self.callbacks.deliver)(f.to, &f.envelope);
                FrameAction::Continue
            }
            Mode::Hub(hub) => {
                if kind == Some(Kind::Node) {
                    return match wire::decode_node(&f.envelope) {
                        Ok(NodeMsg::Goodbye { reason }) => {
                            eprintln!("dtask-net: node {} leaving: {reason}", peer.unwrap_or(0));
                            FrameAction::Close
                        }
                        Ok(_) => FrameAction::Continue,
                        Err(e) => {
                            eprintln!("dtask-net: bad control frame: {e}");
                            FrameAction::Close
                        }
                    };
                }
                if let Some(lane) = kind.and_then(Kind::lane) {
                    (self.callbacks.account)(lane, f.envelope.len() as u64);
                }
                let reply = wire::reply_corr(&f.envelope);
                let dest = to_node(f.to);
                if dest == 0 {
                    if let Some(corr) = reply {
                        hub.pending.lock().remove(&(0, corr));
                    }
                    (self.callbacks.deliver)(f.to, &f.envelope);
                    return FrameAction::Continue;
                }
                // Star forwarding: node → node via this hub.
                let meta = if let Some(corr) = reply {
                    RouteMeta::Reply { corr }
                } else if let Some(corr) = wire::request_corr(&f.envelope) {
                    RouteMeta::Request { corr }
                } else {
                    RouteMeta::Plain
                };
                if !self.hub_forward(hub, peer.unwrap_or(0), f.to, &f.envelope, &meta) {
                    // Request against a dead process: cancel at the origin.
                    if let RouteMeta::Request { corr } = meta {
                        self.cancel_at(peer, corr);
                    }
                }
                FrameAction::Continue
            }
            Mode::Node { goodbye_tx, .. } => {
                if kind == Some(Kind::Node) {
                    return match wire::decode_node(&f.envelope) {
                        Ok(NodeMsg::Cancel { corr }) => {
                            (self.callbacks.cancel)(corr);
                            FrameAction::Continue
                        }
                        Ok(NodeMsg::Goodbye { reason }) => {
                            // Retire the hub writer first: anything routed
                            // after this fails fast as PeerGone instead of
                            // queueing onto a connection that is going away.
                            self.writers.lock().clear();
                            let _ = goodbye_tx.send(reason);
                            FrameAction::Close
                        }
                        Ok(_) => FrameAction::Continue,
                        Err(e) => {
                            eprintln!("dtask-net: bad control frame from hub: {e}");
                            FrameAction::Close
                        }
                    };
                }
                (self.callbacks.deliver)(f.to, &f.envelope);
                FrameAction::Continue
            }
        }
    }

    /// Cancel a pending request's reply slot where it lives: locally when
    /// the requester is hub-side, with a control frame when it is a node.
    fn cancel_at(&self, origin: Option<u64>, corr: u64) {
        match origin {
            None | Some(0) => (self.callbacks.cancel)(corr),
            Some(o) => {
                let env = wire::encode_node(&NodeMsg::Cancel { corr });
                let tx = self.writers.lock().get(&o).cloned();
                if let Some(tx) = tx {
                    let _ = tx.send(frame(Addr::Control, &env));
                }
            }
        }
    }

    /// Hub: a worker process's connection is gone. Retire its writer and
    /// resolve every pending request that can no longer complete.
    fn node_down(&self, node: u64) {
        let Mode::Hub(hub) = &self.mode else {
            return;
        };
        let had_writer = self.writers.lock().remove(&node).is_some();
        if had_writer && !self.stopping() {
            eprintln!("dtask-net: worker node {node} disconnected");
        }
        let mut local = Vec::new();
        let mut remote = Vec::new();
        hub.pending.lock().retain(|&(origin, corr), &mut target| {
            if target == node {
                if origin == 0 {
                    local.push(corr);
                } else {
                    remote.push((origin, corr));
                }
                false
            } else {
                // Requests *from* the dead node can never consume their
                // reply; drop the bookkeeping.
                origin != node
            }
        });
        for corr in local {
            (self.callbacks.cancel)(corr);
        }
        for (origin, corr) in remote {
            self.cancel_at(Some(origin), corr);
        }
    }
}

// ---- threads ----------------------------------------------------------------

/// Per-connection writer: drains its queue onto the socket. A write error
/// means the peer is gone — log once, then keep draining so no sender ever
/// blocks on a corpse (the dependency-ordered teardown relies on this).
fn writer_loop(mut stream: TcpStream, rx: Receiver<Vec<u8>>, label: String) {
    let mut dead = false;
    while let Ok(buf) = rx.recv() {
        if dead {
            continue;
        }
        if let Err(e) = stream.write_all(&buf) {
            eprintln!("dtask-net: write to {label} failed ({e}); peer treated as gone");
            dead = true;
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Per-connection reader: reassemble frames, hand them to the plane. On
/// EOF/error, run the mode's peer-death bookkeeping.
fn reader_loop(
    shared: Arc<PlaneShared>,
    mut stream: TcpStream,
    peer: Option<u64>,
    mut fr: FrameReader,
    label: String,
) {
    let mut chunk = vec![0u8; 64 * 1024];
    let mut graceful = false;
    'outer: loop {
        // Parse before reading: a handshake may hand over a reader that
        // already buffers frames the peer sent right behind its `Welcome`.
        loop {
            match fr.next_frame() {
                Ok(Some(f)) => {
                    if matches!(shared.handle_frame(peer, f), FrameAction::Close) {
                        graceful = true;
                        break 'outer;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    eprintln!("dtask-net: {label}: dropping the connection: {e}");
                    break 'outer;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if let Err(e) = fr.at_eof() {
                    eprintln!("dtask-net: {label}: stream ended mid-frame: {e}");
                }
                break;
            }
            Ok(n) => fr.push(&chunk[..n]),
            Err(e) => {
                if !shared.stopping() {
                    eprintln!("dtask-net: {label}: read failed: {e}");
                }
                break;
            }
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    match (&shared.mode, peer) {
        (Mode::Hub(_), Some(node)) => shared.node_down(node),
        (Mode::Node { goodbye_tx, .. }, _) => {
            // Hub link is gone either way: retire the writer so later
            // routes fail fast (PeerGone), then — if this was not an
            // orderly Goodbye — wake the node runtime.
            shared.writers.lock().clear();
            if !graceful && !shared.stopping() {
                let _ = goodbye_tx.send("connection to hub lost".into());
            }
        }
        _ => {}
    }
}

/// Read exactly one frame with an overall deadline (handshake paths). The
/// stream is handed back with no read timeout: its reader blocks until EOF.
fn read_one_frame(
    stream: &mut TcpStream,
    fr: &mut FrameReader,
    timeout: Duration,
) -> Result<Frame, String> {
    let deadline = Instant::now() + timeout;
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(f) = fr.next_frame().map_err(|e| e.to_string())? {
            stream
                .set_read_timeout(None)
                .map_err(|e| format!("handshake socket: {e}"))?;
            return Ok(f);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("handshake timed out".into());
        }
        stream
            .set_read_timeout(Some(left))
            .map_err(|e| format!("handshake socket: {e}"))?;
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(match fr.at_eof() {
                    Err(e) => format!("peer closed mid-handshake: {e}"),
                    Ok(()) => "peer closed during handshake".into(),
                })
            }
            Ok(n) => fr.push(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(e) => return Err(format!("handshake read failed: {e}")),
        }
    }
}

/// Hub side of one accepted connection: registration handshake, then the
/// normal reader loop. Any handshake failure logs a structured error and
/// abandons only this connection — the accept loop keeps serving.
fn hub_conn(shared: Arc<PlaneShared>, mut stream: TcpStream, peer_sock: SocketAddr) {
    let Mode::Hub(hub) = &shared.mode else {
        return;
    };
    let _ = stream.set_nodelay(true);
    let mut fr = FrameReader::new();
    let first = match read_one_frame(&mut stream, &mut fr, hub.params.handshake_timeout) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("dtask-net: handshake with {peer_sock} failed: {e}");
            return;
        }
    };
    let (slots_announced, _mem, capabilities) = match wire::decode_node(&first.envelope) {
        Ok(NodeMsg::Hello {
            slots,
            mem_budget,
            capabilities,
        }) => (slots, mem_budget, capabilities),
        Ok(other) => {
            eprintln!("dtask-net: {peer_sock} sent {other:?} before Hello; dropping");
            return;
        }
        Err(e) => {
            eprintln!("dtask-net: handshake with {peer_sock} failed: {e}");
            return;
        }
    };
    let worker = {
        let mut claimed = hub.claimed.lock();
        match claimed.iter().position(|a| !*a) {
            Some(w) => {
                claimed[w] = true;
                w
            }
            None => {
                let env = wire::encode_node(&NodeMsg::Goodbye {
                    reason: "no free worker slot".into(),
                });
                let _ = stream.write_all(&frame(Addr::Control, &env));
                eprintln!("dtask-net: {peer_sock} rejected: no free worker slot");
                return;
            }
        }
    };
    let slots = if slots_announced > 0 {
        slots_announced
    } else {
        hub.params.default_slots
    };
    // Writer first, then the scheduler registration, then the Welcome and
    // the attach flag — so `await_workers` returning implies the
    // scheduler's inbox already carries the registration, and nothing the
    // node sends after Welcome can outrace its own `RegisterWorker`.
    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dtask-net: {peer_sock}: socket clone failed: {e}");
            hub.claimed.lock()[worker] = false;
            return;
        }
    };
    let (tx, rx) = unbounded();
    let node = 1 + worker as u64;
    let label = format!("worker node {node}");
    match std::thread::Builder::new()
        .name(format!("dtask-net-w{node}"))
        .spawn({
            let label = label.clone();
            move || writer_loop(write_stream, rx, label)
        }) {
        Ok(h) => shared.threads.lock().push(h),
        Err(e) => {
            eprintln!("dtask-net: {peer_sock}: writer spawn failed: {e}");
            hub.claimed.lock()[worker] = false;
            return;
        }
    }
    {
        // Checked under the writers lock that `shutdown` clears after
        // setting the flag: a writer inserted here is always retired, so
        // the reader below always gets its EOF.
        let mut writers = shared.writers.lock();
        if shared.stopping() {
            return;
        }
        writers.insert(node, tx.clone());
    }
    (hub.register)(worker, slots);
    let env = wire::encode_node(&NodeMsg::Welcome(NodeWelcome {
        worker,
        n_workers: hub.params.n_workers,
        slots,
        heartbeat_ms: hub.params.heartbeat_ms,
        mem_budget: hub.params.mem_budget,
        steal_poll_ms: hub.params.steal_poll_ms,
    }));
    let _ = tx.send(frame(Addr::Control, &env));
    // From here only `writers` holds the sender, so clearing it at shutdown
    // retires the writer and ends the read below.
    drop(tx);
    hub.attached()[worker] = true;
    hub.attach_cv.notify_all();
    if capabilities.is_empty() {
        eprintln!("dtask-net: worker {worker} attached from {peer_sock} ({slots} slots)");
    } else {
        eprintln!(
            "dtask-net: worker {worker} attached from {peer_sock} ({slots} slots, caps: {})",
            capabilities.join(",")
        );
    }
    reader_loop(shared, stream, Some(node), fr, label);
}

/// Blocking accept loop, shared by the socket planes and the telemetry
/// exporter: hands every connection to `serve` until `stop` is set and
/// [`stop_accepting`] wakes the blocked `accept`. An error other than a
/// connection aborted before it was accepted means the listener itself is
/// broken, and ends the loop.
pub(crate) fn accept_until_stopped(
    listener: &TcpListener,
    stop: &AtomicBool,
    mut serve: impl FnMut(TcpStream, SocketAddr),
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, peer)) => serve(stream, peer),
            Err(e) if e.kind() == ErrorKind::ConnectionAborted => {}
            Err(e) => {
                eprintln!(
                    "dtask-net: accept on {:?} failed ({e}); listener closed",
                    listener.local_addr()
                );
                return;
            }
        }
    }
}

/// Set `stop` and connect once to `listener_addr` so the
/// [`accept_until_stopped`] blocked on that listener wakes and sees it.
pub(crate) fn stop_accepting(stop: &AtomicBool, listener_addr: SocketAddr) {
    if stop.swap(true, Ordering::SeqCst) {
        return;
    }
    let mut wake = listener_addr;
    match wake.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    let _ = TcpStream::connect(wake);
}

/// Serve one accepted plane connection on its own thread.
fn spawn_conn(shared: &Arc<PlaneShared>, stream: TcpStream, peer_sock: SocketAddr) {
    let conn_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("dtask-net-conn".into())
        .spawn(move || match conn_shared.mode {
            Mode::Loopback => {
                let _ = stream.set_nodelay(true);
                let label = format!("loopback peer {peer_sock}");
                reader_loop(conn_shared, stream, None, FrameReader::new(), label);
            }
            Mode::Hub(_) => hub_conn(conn_shared, stream, peer_sock),
            Mode::Node { .. } => {}
        });
    match spawned {
        Ok(h) => shared.threads.lock().push(h),
        Err(e) => eprintln!("dtask-net: connection thread spawn failed: {e}"),
    }
}

// ---- plane handles ----------------------------------------------------------

/// Owning handle of one socket plane: shared state plus its threads.
/// Dropping it stops and joins everything.
pub struct SocketPlane {
    /// Routing and deploy bookkeeping, shared with every socket thread.
    pub(crate) shared: Arc<PlaneShared>,
}

/// Hub construction parameters (see [`crate::Cluster::listen`]): the cluster
/// config pushed to every node in its `Welcome`, plus handshake patience.
pub(crate) struct HubParams {
    pub n_workers: usize,
    /// Slot count imposed on nodes that announce `0`.
    pub default_slots: usize,
    /// Worker heartbeat interval (`0` = off).
    pub heartbeat_ms: u64,
    /// Executor steal-poll interval (`0` = off).
    pub steal_poll_ms: u64,
    /// Store budget (`None` = keep node-local setting).
    pub mem_budget: Option<u64>,
    pub handshake_timeout: Duration,
}

impl SocketPlane {
    /// Bind `bind` and serve it with an accept loop in the given mode
    /// (loopback and hub planes).
    fn listen(
        bind: impl std::net::ToSocketAddrs,
        mode: Mode,
        callbacks: PlaneCallbacks,
    ) -> std::io::Result<SocketPlane> {
        let listener = TcpListener::bind(bind)?;
        let shared = PlaneShared::new(mode, Some(listener.local_addr()?), callbacks);
        let accept_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("dtask-net-accept".into())
            .spawn(move || {
                accept_until_stopped(&listener, &accept_shared.stop, |stream, peer| {
                    spawn_conn(&accept_shared, stream, peer)
                })
            })?;
        shared.threads.lock().push(handle);
        Ok(SocketPlane { shared })
    }

    /// In-process loopback plane for `TransportConfig::Tcp`: everything a
    /// router dispatches crosses a real 127.0.0.1 socket and is delivered
    /// back into the local fabric by an accept-side reader.
    pub(crate) fn loopback(callbacks: PlaneCallbacks) -> std::io::Result<SocketPlane> {
        SocketPlane::listen(("127.0.0.1", 0), Mode::Loopback, callbacks)
    }

    /// Deployment hub plane: listen for `dtask-node` worker processes.
    /// `register` rides the scheduler's raw inbox, and the attach flag flips
    /// only after it ran — so once `await_workers` returns, the registration
    /// already precedes anything a client submits next.
    pub(crate) fn hub(
        bind: &str,
        params: HubParams,
        callbacks: PlaneCallbacks,
        register: RegisterFn,
    ) -> std::io::Result<SocketPlane> {
        let hub = HubState {
            claimed: Mutex::new(vec![false; params.n_workers]),
            attached: std::sync::Mutex::new(vec![false; params.n_workers]),
            attach_cv: Condvar::new(),
            params,
            register,
            pending: Mutex::new(HashMap::new()),
        };
        SocketPlane::listen(bind, Mode::Hub(hub), callbacks)
    }
}

/// A node's completed registration handshake: the hub connection, whatever
/// the hub sent right behind its `Welcome`, and the cluster config the node
/// sizes its router with before [`NodeHandshake::start`] brings the plane up.
pub(crate) struct NodeHandshake {
    stream: TcpStream,
    reader: FrameReader,
    /// The cluster config the hub assigned.
    pub welcome: NodeWelcome,
}

impl NodeHandshake {
    /// Dial the hub (retrying while it comes up) and run the registration
    /// handshake. No thread is spawned yet.
    pub(crate) fn dial(
        connect: &str,
        slots: usize,
        mem_budget: Option<u64>,
        capabilities: Vec<String>,
        connect_timeout: Duration,
        handshake_timeout: Duration,
    ) -> Result<NodeHandshake, String> {
        let deadline = Instant::now() + connect_timeout;
        let mut stream = loop {
            match TcpStream::connect(connect) {
                Ok(s) => break s,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(format!("connect to {connect} failed: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        };
        let _ = stream.set_nodelay(true);
        let hello = wire::encode_node(&NodeMsg::Hello {
            slots,
            mem_budget,
            capabilities,
        });
        stream
            .write_all(&frame(Addr::Control, &hello))
            .map_err(|e| format!("hello write failed: {e}"))?;
        let mut reader = FrameReader::new();
        let first = read_one_frame(&mut stream, &mut reader, handshake_timeout)?;
        let welcome = match wire::decode_node(&first.envelope) {
            Ok(NodeMsg::Welcome(welcome)) => welcome,
            Ok(NodeMsg::Goodbye { reason }) => {
                return Err(format!("hub rejected registration: {reason}"))
            }
            Ok(other) => return Err(format!("expected Welcome, got {other:?}")),
            Err(e) => return Err(format!("bad Welcome frame: {e}")),
        };
        Ok(NodeHandshake {
            stream,
            reader,
            welcome,
        })
    }

    /// Bring the node plane up on the handshaken connection: one writer and
    /// one reader thread. `goodbye_tx` carries the teardown signal into
    /// [`crate::node::run_node`].
    pub(crate) fn start(
        self,
        callbacks: PlaneCallbacks,
        goodbye_tx: Sender<String>,
    ) -> Result<SocketPlane, String> {
        let NodeHandshake {
            stream,
            reader,
            welcome,
        } = self;
        let mode = Mode::Node {
            self_node: 1 + welcome.worker as u64,
            goodbye_tx,
        };
        let shared = PlaneShared::new(mode, None, callbacks);
        let write_stream = stream
            .try_clone()
            .map_err(|e| format!("socket clone failed: {e}"))?;
        let (tx, rx) = unbounded();
        shared.writers.lock().insert(0, tx);
        let wh = std::thread::Builder::new()
            .name("dtask-net-whub".into())
            .spawn(move || writer_loop(write_stream, rx, "hub".into()))
            .map_err(|e| format!("writer spawn failed: {e}"))?;
        shared.threads.lock().push(wh);
        let plane = SocketPlane { shared };
        let reader_shared = Arc::clone(&plane.shared);
        let rh = std::thread::Builder::new()
            .name("dtask-net-rhub".into())
            .spawn(move || reader_loop(reader_shared, stream, Some(0), reader, "hub".into()))
            .map_err(|e| format!("reader spawn failed: {e}"))?;
        plane.shared.threads.lock().push(rh);
        Ok(plane)
    }
}

impl Drop for SocketPlane {
    fn drop(&mut self) {
        self.shared.shutdown();
        // Connection threads may still be registering handles while we
        // drain; loop until the list stays empty.
        loop {
            let handles: Vec<_> = self.shared.threads.lock().drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_bytes() -> Vec<u8> {
        wire::encode(&crate::transport::Payload::Sched(
            crate::msg::SchedMsg::Heartbeat { client: 7 },
        ))
    }

    #[test]
    fn frame_reader_reassembles_across_every_split_point() {
        let env = env_bytes();
        let buf = frame(Addr::WorkerData(3), &env);
        for split in 1..buf.len() {
            let mut fr = FrameReader::new();
            fr.push(&buf[..split]);
            match fr.next_frame() {
                Ok(None) => {}
                other => panic!("split {split}: premature result {other:?}"),
            }
            fr.push(&buf[split..]);
            let f = fr.next_frame().unwrap().expect("complete frame");
            assert_eq!(f.to, Addr::WorkerData(3));
            assert_eq!(f.envelope, env);
            assert!(fr.next_frame().unwrap().is_none());
            fr.at_eof().unwrap();
        }
    }

    #[test]
    fn frame_reader_rejects_bad_preamble_tag_immediately() {
        let mut fr = FrameReader::new();
        fr.push(&[9]);
        assert_eq!(
            fr.next_frame().err(),
            Some(WireError::BadTag {
                what: "socket addr",
                tag: 9,
            })
        );
    }

    #[test]
    fn frame_reader_rejects_oversized_length() {
        let env = env_bytes();
        let mut buf = frame(Addr::Scheduler, &env);
        let bad_len = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        buf[PREAMBLE_BYTES + 4..FRAME_HEADER_BYTES].copy_from_slice(&bad_len);
        let mut fr = FrameReader::new();
        fr.push(&buf);
        assert_eq!(
            fr.next_frame().err(),
            Some(WireError::Malformed("oversized frame"))
        );
    }

    #[test]
    fn frame_reader_truncation_is_structured_at_eof() {
        let env = env_bytes();
        let buf = frame(Addr::Control, &env);
        let mut fr = FrameReader::new();
        fr.push(&buf[..buf.len() - 1]);
        assert!(fr.next_frame().unwrap().is_none());
        assert_eq!(fr.at_eof().err(), Some(WireError::Truncated));
    }

    #[test]
    fn frame_reader_flags_bad_magic_and_version_early() {
        let env = env_bytes();
        let mut buf = frame(Addr::Scheduler, &env);
        buf[PREAMBLE_BYTES] = 0x00;
        let mut fr = FrameReader::new();
        // Push only up to the first magic byte: the error must not wait for
        // a complete header.
        fr.push(&buf[..PREAMBLE_BYTES + 1]);
        assert_eq!(fr.next_frame().err(), Some(WireError::BadMagic));

        let mut buf = frame(Addr::Scheduler, &env);
        buf[PREAMBLE_BYTES + 2] = wire::WIRE_VERSION + 3;
        let mut fr = FrameReader::new();
        fr.push(&buf);
        assert_eq!(
            fr.next_frame().err(),
            Some(WireError::BadVersion(wire::WIRE_VERSION + 3))
        );
    }

    /// A seeded stream of 512 KiB block frames interleaved with 26-byte
    /// control frames, pushed in pieces cut at random points (inside
    /// preambles, headers and bodies alike): every frame comes out once, in
    /// order and intact, and what stays buffered is exactly the bytes of the
    /// unfinished frame.
    #[test]
    fn frame_reader_reassembles_large_and_small_frames_at_random_cuts() {
        let mut state = 0x5EED_F00Du64;
        let mut next = move |bound: usize| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let block = linalg::NDArray::from_fn(&[256, 256], |i| (i[0] * 256 + i[1]) as f64);
        let big = wire::encode(&crate::transport::Payload::Reply {
            corr: 5,
            reply: crate::transport::DataReply::Value(Ok(block.into())),
        });
        let small = env_bytes();
        assert_eq!(
            (big.len(), frame(Addr::Scheduler, &small).len()),
            (512 * 1024 + 38, 26)
        );
        let mut sent = Vec::new();
        let mut stream_bytes = Vec::new();
        let mut ends = Vec::new();
        for i in 0..40 {
            let (to, env) = if next(3) == 0 {
                (Addr::Client(i), &big)
            } else {
                (Addr::WorkerExec(i), &small)
            };
            stream_bytes.extend_from_slice(&frame(to, env));
            ends.push(stream_bytes.len());
            sent.push((to, env.clone()));
        }
        // One more frame, cut short: the stream ends mid-frame.
        stream_bytes.extend_from_slice(&frame(Addr::Scheduler, &big)[..1000]);

        let mut fr = FrameReader::new();
        let mut got = Vec::new();
        let mut fed = 0;
        while fed < stream_bytes.len() {
            let cut = match next(3) {
                0 => 1 + next(64),
                1 => 1 + next(4096),
                _ => 1 + next(300_000),
            };
            let upto = (fed + cut).min(stream_bytes.len());
            fr.push(&stream_bytes[fed..upto]);
            fed = upto;
            while let Some(f) = fr.next_frame().unwrap() {
                got.push((f.to, f.envelope));
            }
            let consumed = ends.iter().rev().find(|&&e| e <= fed).copied().unwrap_or(0);
            assert_eq!(fr.buffered(), fed - consumed);
            assert_eq!(fr.at_eof().is_ok(), fed == consumed);
        }
        assert!(got == sent, "frames differ from what was sent");
        assert_eq!(fr.buffered(), 1000);
        assert_eq!(fr.at_eof().err(), Some(WireError::Truncated));
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let env = env_bytes();
        let mut stream_bytes = frame(Addr::Scheduler, &env);
        stream_bytes.extend_from_slice(&frame(Addr::Client(2), &env));
        let mut fr = FrameReader::new();
        fr.push(&stream_bytes);
        assert_eq!(fr.next_frame().unwrap().unwrap().to, Addr::Scheduler);
        assert_eq!(fr.next_frame().unwrap().unwrap().to, Addr::Client(2));
        assert!(fr.next_frame().unwrap().is_none());
    }
}
