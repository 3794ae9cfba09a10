//! The byte-stream plane every coded transport rides: the `Framed` and
//! `Tcp` backends of [`crate::TransportConfig`], the deployment hub
//! inside [`crate::Cluster::listen`], and the worker side of [`crate::node`].
//!
//! Every byte on a link is a **routed frame**:
//!
//! | bytes   | field                                           |
//! |---------|-------------------------------------------------|
//! | 0       | destination [`Addr`] tag (same tags as the wire codec) |
//! | 1..9    | destination index (worker/client id, LE; `0` otherwise) |
//! | 9..     | a standard [`crate::wire`] envelope (header ‖ body)     |
//!
//! The 9-byte preamble is pure routing — per-lane byte accounting counts
//! only the envelope, so every coded backend reports the same byte totals.
//!
//! A **link** is one byte pipe per destination node: one writer thread
//! drains the link's queue into it, one reader thread reassembles frames out
//! of it and delivers them. A data request is answered in that reader by its
//! worker's store, and the reply queued on the requester's link. [`writer_loop`]
//! and [`reader_loop`] are written once, over `Write` and `Read`; only the
//! pipe differs:
//!
//! * **In process** (`Framed`, `Tcp`): every node lives in this process.
//!   The plane makes a link the first time it routes to a node — an OS pipe
//!   for `Framed`, a connected `127.0.0.1` TCP pair for `Tcp` — and the
//!   link's reader delivers into the local fabric. Delivery is FIFO per
//!   link.
//! * **Hub** (inside [`crate::Cluster::listen`]): a link is an accepted
//!   `dtask-node` connection, after the `Hello`/`Welcome` registration
//!   handshake. The hub star-routes worker↔worker frames without looking
//!   inside them.
//! * **Node** (see [`crate::node`]): one link, the connection to the hub,
//!   carries everything.
//!
//! Reply slots follow one rule across processes: a slot dies with the
//! worker it asked ([`Fabric::peer_gone`]). A route to a process that is
//! gone applies it on the spot. A hub that loses a node applies it to its
//! own slots and sends [`NodeMsg::PeerGone`] to every other node; a forward
//! that fails sends the same to the frame's origin. A node that loses its
//! hub applies it for every other worker. A requester observes "peer hung
//! up", never a hang.

use crate::msg::WorkerId;
use crate::threads::ThreadRole;
use crate::transport::{Addr, Fabric, TransportConfig};
use crate::wire::{self, Kind, NodeMsg, NodeWelcome, WireError, HEADER_BYTES};
pub use crate::wire::{MAX_FRAME_BYTES, PREAMBLE_BYTES};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, PipeReader, PipeWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
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
fn to_node(a: Addr) -> u64 {
    match a {
        Addr::Scheduler | Addr::Control | Addr::Client(_) => 0,
        Addr::WorkerData(w) | Addr::WorkerExec(w) => 1 + w as u64,
    }
}

/// The worker whose process is plane node `node` (`None` for node 0).
fn worker_on(node: u64) -> Option<WorkerId> {
    node.checked_sub(1).map(|w| w as WorkerId)
}

// ---- links ------------------------------------------------------------------

/// One end of a link's byte pipe.
trait Pipe: Send + 'static {
    /// End the link from this side. A socket is shut down both ways, which
    /// also ends a read blocked on a clone of it; an OS pipe end closes when
    /// it drops.
    fn hang_up(&self) {}
}

impl Pipe for TcpStream {
    fn hang_up(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl Pipe for PipeReader {}

impl Pipe for PipeWriter {}

/// A connected pair of `127.0.0.1` sockets, `(dialed, accepted)`, made
/// without an accept thread: the kernel completes the connect from the
/// listener's backlog, so `accept` returns at once.
fn tcp_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let dialed = TcpStream::connect(listener.local_addr()?)?;
    let _ = dialed.set_nodelay(true);
    Ok((dialed, listener.accept()?.0))
}

/// Per-link writer: drains the queue into `out`, in queue order. A write
/// error means the far end is gone: log once, then keep draining so no
/// sender ever blocks on a corpse (the dependency-ordered teardown relies on
/// this). Once every sender is gone, hang up, which ends the far end's read.
fn writer_loop<W: Write + Pipe>(mut out: W, rx: Receiver<Vec<u8>>, label: String) {
    let mut dead = false;
    while let Ok(bytes) = rx.recv() {
        if dead {
            continue;
        }
        if let Err(e) = out.write_all(&bytes) {
            eprintln!("dtask-net: write to {label} failed ({e}); peer treated as gone");
            dead = true;
        }
    }
    out.hang_up();
}

/// Per-link reader: reassembles frames out of `inp` (after whatever `fr`
/// already holds) and hands them to the plane until EOF, a read error, a
/// frame that does not parse, or a control frame that closes the link; then
/// runs the plane's bookkeeping for the lost link.
fn reader_loop<R: Read + Pipe>(
    shared: Arc<PlaneShared>,
    mut inp: R,
    peer: u64,
    mut fr: FrameReader,
) {
    let label = shared.link_name(peer);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut closed = None;
    'outer: loop {
        // Parse before reading: a handshake may hand over a reader that
        // already buffers frames the peer sent right behind its `Welcome`.
        loop {
            match fr.next_frame() {
                Ok(Some(f)) => {
                    if let Some(reason) = shared.handle_frame(peer, f) {
                        closed = Some(reason);
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
        match inp.read(&mut chunk) {
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
    inp.hang_up();
    shared.link_down(peer, closed);
}

// ---- plane ------------------------------------------------------------------

/// Hub hook delivering a [`crate::msg::SchedMsg::RegisterWorker`]
/// `(worker, slots)` into the scheduler's inbox.
pub(crate) type RegisterFn = Box<dyn Fn(usize, usize) + Send + Sync>;

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
}

impl HubState {
    fn attached(&self) -> std::sync::MutexGuard<'_, Vec<bool>> {
        self.attached
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// How a plane reaches its nodes.
enum Mode {
    /// Every node is in this process (`Framed`, `Tcp`): links are made on
    /// first use, over a loopback TCP pair when `tcp` and an OS pipe
    /// otherwise.
    Local { tcp: bool },
    /// The deployment hub: links are accepted `dtask-node` connections.
    Hub(HubState),
    /// A worker process: one link, to the hub (node 0).
    Node {
        self_node: u64,
        /// Teardown signal into [`crate::node::run_node`]: why the hub link
        /// ended.
        goodbye_tx: Sender<String>,
    },
}

/// State shared by every thread of one plane. The owning [`Plane`] keeps
/// the thread handles; threads keep only this.
pub struct PlaneShared {
    mode: Mode,
    /// Where readers deliver, and whose reply slots die with a lost worker.
    fabric: Arc<Fabric>,
    stop: AtomicBool,
    /// Live links by destination node id. Dropping a sender retires its
    /// writer.
    links: Mutex<HashMap<u64, Sender<Vec<u8>>>>,
    /// Where the hub's listener is bound.
    listen_addr: Option<SocketAddr>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl PlaneShared {
    fn new(mode: Mode, listen_addr: Option<SocketAddr>, fabric: &Arc<Fabric>) -> Arc<Self> {
        Arc::new(PlaneShared {
            mode,
            fabric: Arc::clone(fabric),
            stop: AtomicBool::new(false),
            links: Mutex::new(HashMap::new()),
            listen_addr,
            threads: Mutex::new(Vec::new()),
        })
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Where the hub's listener is bound.
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

    /// Hub: announce orderly teardown to every attached node.
    pub fn goodbye_all(self: &Arc<Self>, reason: &str) {
        self.tell_all(&NodeMsg::Goodbye {
            reason: reason.to_string(),
        });
    }

    /// Stop every plane thread. Writers retire when their senders drop and
    /// hang up on the way out, which ends the read at the far end of each
    /// link (for a socket, also the read on the same connection). The hub's
    /// accept loop is woken by one connection to its own listener. Joining
    /// happens in [`Plane::drop`].
    pub fn shutdown(&self) {
        match self.listen_addr {
            Some(addr) => stop_accepting(&self.stop, addr),
            None => self.stop.store(true, Ordering::SeqCst),
        }
        self.links.lock().clear();
        if let Mode::Hub(hub) = &self.mode {
            // Taken after the flag is set, so a waiter either sees the flag
            // or is already waiting for this notification.
            let _attached = hub.attached();
            hub.attach_cv.notify_all();
        }
    }

    /// Route one encoded envelope toward `to`: into the local fabric when
    /// `to` lives on this process's node, else onto the link of `to`'s node.
    /// When that node's process is gone (or has not attached), its worker is
    /// unreachable and the reply slots aimed at it die here.
    pub(crate) fn route(self: &Arc<Self>, to: Addr, envelope: &[u8]) {
        let dest = to_node(to);
        let via = match &self.mode {
            Mode::Local { .. } => Some(dest),
            Mode::Hub(_) => (dest != 0).then_some(dest),
            // Everything off this node rides the hub link (star topology;
            // the hub forwards).
            Mode::Node { self_node, .. } => (dest != *self_node).then_some(0),
        };
        let Some(link) = via else {
            return self.fabric.deliver_encoded(self, to, envelope);
        };
        if self.send_on(link, frame(to, envelope)) {
            return;
        }
        match self.mode {
            // A link this process could not make: deliver in place rather
            // than lose the message.
            Mode::Local { .. } => self.fabric.deliver_encoded(self, to, envelope),
            _ => {
                if let Some(w) = worker_on(dest) {
                    self.fabric.peer_gone(w);
                }
            }
        }
    }

    /// Queue `bytes` on the link to node `node`; `false` when there is none.
    fn send_on(self: &Arc<Self>, node: u64, bytes: Vec<u8>) -> bool {
        self.link(node).is_some_and(|tx| tx.send(bytes).is_ok())
    }

    /// The link to node `node`: in process, made on first use; on a hub or
    /// a node, the one its handshake opened, while it is up.
    fn link(self: &Arc<Self>, node: u64) -> Option<Sender<Vec<u8>>> {
        let mut links = self.links.lock();
        if let Some(tx) = links.get(&node) {
            return Some(tx.clone());
        }
        let Mode::Local { tcp } = self.mode else {
            return None;
        };
        if self.stopping() {
            return None;
        }
        let fr = FrameReader::new();
        let made = if tcp {
            tcp_pair().and_then(|(out, inp)| self.open_link(&mut links, node, out, inp, fr))
        } else {
            std::io::pipe().and_then(|(inp, out)| self.open_link(&mut links, node, out, inp, fr))
        };
        made.map_err(|e| eprintln!("dtask-net: no link to in-process node {node}: {e}"))
            .ok()
    }

    /// Start a link to node `node` and list it in `links`: a writer draining
    /// its queue into `out`, then a reader reassembling what arrives on
    /// `inp` after whatever `fr` already holds.
    fn open_link<W: Write + Pipe, R: Read + Pipe>(
        self: &Arc<Self>,
        links: &mut HashMap<u64, Sender<Vec<u8>>>,
        node: u64,
        out: W,
        inp: R,
        fr: FrameReader,
    ) -> std::io::Result<Sender<Vec<u8>>> {
        let tx = self.spawn_writer(node, out)?;
        links.insert(node, tx.clone());
        let shared = Arc::clone(self);
        self.spawn(ThreadRole::NetRead(node).name(), move || {
            reader_loop(shared, inp, node, fr)
        })
        .inspect_err(|_| {
            links.remove(&node);
        })?;
        Ok(tx)
    }

    /// Start the writer of the link to node `node` on `out`; the returned
    /// sender is its queue.
    fn spawn_writer<W: Write + Pipe>(&self, node: u64, out: W) -> std::io::Result<Sender<Vec<u8>>> {
        let (tx, rx) = unbounded();
        let label = self.link_name(node);
        self.spawn(ThreadRole::NetWrite(node).name(), move || {
            writer_loop(out, rx, label)
        })?;
        Ok(tx)
    }

    /// Spawn one plane thread, joined when the [`Plane`] drops.
    fn spawn(&self, name: String, body: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let handle = std::thread::Builder::new().name(name).spawn(body)?;
        self.threads.lock().push(handle);
        Ok(())
    }

    /// What log lines call the link to node `node`.
    fn link_name(&self, node: u64) -> String {
        match self.mode {
            Mode::Local { .. } => format!("in-process node {node}"),
            Mode::Hub(_) => format!("worker node {node}"),
            Mode::Node { .. } => "hub".into(),
        }
    }

    /// Hub: queue a control message on node `node`'s link.
    fn tell(self: &Arc<Self>, node: u64, msg: &NodeMsg) -> bool {
        self.send_on(node, frame(Addr::Control, &wire::encode_node(msg)))
    }

    /// Hub: queue a control message on every node's link. A node that
    /// already exited has a dead writer, which drains: this never blocks or
    /// panics.
    fn tell_all(self: &Arc<Self>, msg: &NodeMsg) {
        let nodes: Vec<u64> = self.links.lock().keys().copied().collect();
        for node in nodes {
            if !self.tell(node, msg) {
                eprintln!("dtask-net: {msg:?} to node {node} skipped (link already gone)");
            }
        }
    }

    /// Handle one complete inbound frame from node `peer`. Returns why the
    /// link closes, if this frame closes it.
    fn handle_frame(self: &Arc<Self>, peer: u64, f: Frame) -> Option<String> {
        let kind = wire::kind_of(&f.envelope);
        if kind == Some(Kind::Node) {
            return self.handle_control(peer, &f.envelope);
        }
        let Mode::Hub(_) = self.mode else {
            self.fabric.deliver_encoded(self, f.to, &f.envelope);
            return None;
        };
        // A remote sender's counters never leave its process, so the hub
        // accounts what it receives.
        if let Some(lane) = kind.and_then(Kind::lane) {
            self.fabric.account(lane, f.envelope.len() as u64);
        }
        let dest = to_node(f.to);
        if dest == 0 {
            self.fabric.deliver_encoded(self, f.to, &f.envelope);
        } else if !self.send_on(dest, frame(f.to, &f.envelope)) {
            // Star forwarding moves bytes untouched. Its target's process is
            // gone: the origin's slots aimed at that worker die.
            if let Some(worker) = worker_on(dest) {
                self.tell(peer, &NodeMsg::PeerGone { worker });
            }
        }
        None
    }

    /// A deployment control frame from node `peer`. Returns why the link
    /// closes, if this frame closes it.
    fn handle_control(&self, peer: u64, envelope: &[u8]) -> Option<String> {
        let on_node = matches!(self.mode, Mode::Node { .. });
        match wire::decode_node(envelope) {
            Ok(NodeMsg::Goodbye { reason }) => Some(reason),
            Ok(NodeMsg::PeerGone { worker }) if on_node => {
                self.fabric.peer_gone(worker);
                None
            }
            Ok(NodeMsg::Cancel { corr }) if on_node => {
                self.fabric.cancel(corr);
                None
            }
            Ok(_) => None,
            Err(e) => Some(format!(
                "bad control frame from {}: {e}",
                self.link_name(peer)
            )),
        }
    }

    /// The link to node `peer` is down (`closed`: the reason a frame gave).
    /// Hub: that node's worker is gone — its reply slots die here and,
    /// through [`NodeMsg::PeerGone`], on every other node. Node: the hub is
    /// gone, and with it every other worker; then [`crate::node::run_node`]
    /// is woken.
    fn link_down(self: &Arc<Self>, peer: u64, closed: Option<String>) {
        match &self.mode {
            Mode::Local { .. } => {}
            Mode::Hub(_) => {
                let had_link = self.links.lock().remove(&peer).is_some();
                if had_link && !self.stopping() {
                    match &closed {
                        Some(reason) => eprintln!("dtask-net: worker node {peer} left: {reason}"),
                        None => eprintln!("dtask-net: worker node {peer} disconnected"),
                    }
                }
                if let Some(worker) = worker_on(peer) {
                    self.fabric.peer_gone(worker);
                    self.tell_all(&NodeMsg::PeerGone { worker });
                }
            }
            Mode::Node {
                self_node,
                goodbye_tx,
            } => {
                // Retire the hub link first: a route after this fails fast
                // and its own slot dies.
                self.links.lock().clear();
                let me = worker_on(*self_node);
                for w in (0..self.fabric.n_workers()).filter(|&w| Some(w) != me) {
                    self.fabric.peer_gone(w);
                }
                let _ = goodbye_tx.send(closed.unwrap_or_else(|| "connection to hub lost".into()));
            }
        }
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
/// link's reader. Any handshake failure logs a structured error and abandons
/// only this connection — the accept loop keeps serving.
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
    let node = 1 + worker as u64;
    let tx = match stream
        .try_clone()
        .and_then(|out| shared.spawn_writer(node, out))
    {
        Ok(tx) => tx,
        Err(e) => {
            eprintln!("dtask-net: {peer_sock}: link writer failed to start: {e}");
            hub.claimed.lock()[worker] = false;
            return;
        }
    };
    {
        // Checked under the links lock that `shutdown` clears after setting
        // the flag: a link listed here is always retired, so the reader
        // below always gets its EOF.
        let mut links = shared.links.lock();
        if shared.stopping() {
            return;
        }
        links.insert(node, tx.clone());
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
    // From here only `links` holds the sender, so clearing it at shutdown
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
    reader_loop(shared, stream, node, fr);
}

/// Blocking accept loop, shared by the hub plane and the telemetry
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

// ---- plane handles ----------------------------------------------------------

/// Owning handle of one plane: shared state plus its threads. Dropping it
/// stops and joins everything.
pub struct Plane {
    /// Routing and deploy bookkeeping, shared with every plane thread.
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

impl Plane {
    /// The plane `config` runs on: none for InProc, whose messages never
    /// become bytes; an in-process plane, whose links are made as routes
    /// need them, for every coded backend.
    pub(crate) fn for_transport(config: &TransportConfig, fabric: &Arc<Fabric>) -> Option<Plane> {
        let tcp = match config {
            TransportConfig::InProc => return None,
            TransportConfig::Framed => false,
            TransportConfig::Tcp => true,
        };
        Some(Plane {
            shared: PlaneShared::new(Mode::Local { tcp }, None, fabric),
        })
    }

    /// Deployment hub plane: listen for `dtask-node` worker processes.
    /// `register` rides the scheduler's raw inbox, and the attach flag flips
    /// only after it ran — so once `await_workers` returns, the registration
    /// already precedes anything a client submits next.
    pub(crate) fn hub(
        bind: &str,
        params: HubParams,
        register: RegisterFn,
        fabric: &Arc<Fabric>,
    ) -> std::io::Result<Plane> {
        let listener = TcpListener::bind(bind)?;
        let hub = HubState {
            claimed: Mutex::new(vec![false; params.n_workers]),
            attached: std::sync::Mutex::new(vec![false; params.n_workers]),
            attach_cv: Condvar::new(),
            params,
            register,
        };
        let plane = Plane {
            shared: PlaneShared::new(Mode::Hub(hub), Some(listener.local_addr()?), fabric),
        };
        let accept_shared = Arc::clone(&plane.shared);
        plane.shared.spawn(ThreadRole::NetAccept.name(), move || {
            accept_until_stopped(&listener, &accept_shared.stop, |stream, peer_sock| {
                let conn_shared = Arc::clone(&accept_shared);
                let serve = move || hub_conn(conn_shared, stream, peer_sock);
                if let Err(e) = accept_shared.spawn(ThreadRole::NetConn.name(), serve) {
                    eprintln!("dtask-net: connection thread spawn failed: {e}");
                }
            })
        })?;
        Ok(plane)
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

    /// Bring the node plane up on the handshaken connection: its one link,
    /// to the hub. `goodbye_tx` carries the teardown signal into
    /// [`crate::node::run_node`].
    pub(crate) fn start(
        self,
        fabric: &Arc<Fabric>,
        goodbye_tx: Sender<String>,
    ) -> Result<Plane, String> {
        let NodeHandshake {
            stream,
            reader,
            welcome,
        } = self;
        let mode = Mode::Node {
            self_node: 1 + welcome.worker as u64,
            goodbye_tx,
        };
        let plane = Plane {
            shared: PlaneShared::new(mode, None, fabric),
        };
        let out = stream
            .try_clone()
            .map_err(|e| format!("socket clone failed: {e}"))?;
        let shared = &plane.shared;
        shared
            .open_link(&mut shared.links.lock(), 0, out, stream, reader)
            .map_err(|e| format!("hub link failed to start: {e}"))?;
        Ok(plane)
    }
}

impl Drop for Plane {
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
    use crate::key::Key;
    use crate::msg::DataMsg;
    use crate::stats::SchedulerStats;
    use crate::stats::WireLane;
    use crate::trace::TraceHandle;
    use crate::transport::{ClusterChannels, FaultPlan, LaneDrop, Outcome, ReplyRx, Router};
    use crate::ObjectStore;

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

    /// A router for two workers over the plane `plane` builds, counting in
    /// `stats` and injecting `faults`.
    fn plane_router<E: std::fmt::Debug>(
        channels: ClusterChannels,
        stats: &Arc<SchedulerStats>,
        faults: FaultPlan,
        plane: impl FnOnce(&Arc<Fabric>) -> Result<Plane, E>,
    ) -> Arc<Router> {
        Router::new(
            channels,
            Arc::clone(stats),
            TraceHandle::disabled(),
            faults,
            |fabric| plane(fabric).map(Some),
        )
        .expect("plane")
    }

    /// Whether `reply` ends as `HungUp` within ten seconds.
    fn hangs_up(reply: ReplyRx) -> bool {
        let (tx, rx) = crossbeam::channel::bounded(1);
        std::thread::spawn(move || tx.send(matches!(reply.recv(), Outcome::HungUp)));
        rx.recv_timeout(Duration::from_secs(10)) == Ok(true)
    }

    /// One hub plane and two node planes over real sockets, no scheduler.
    /// Node B's process goes while node A waits on a request to B's worker:
    /// that request, one node A sends afterwards and one the hub sends all
    /// end as `HungUp`.
    #[test]
    fn requests_to_a_lost_node_hang_up_on_the_other_node_and_the_hub() {
        let (hub_channels, _sched_rx) = ClusterChannels::new(2, 1, None, |_| None);
        let params = HubParams {
            n_workers: 2,
            default_slots: 1,
            heartbeat_ms: 0,
            steal_poll_ms: 0,
            mem_budget: None,
            handshake_timeout: Duration::from_secs(10),
        };
        let stats = Arc::new(SchedulerStats::new());
        let hub = plane_router(hub_channels, &stats, FaultPlan::default(), |fabric| {
            Plane::hub("127.0.0.1:0", params, Box::new(|_, _| {}), fabric)
        });
        let addr = hub
            .plane()
            .and_then(|p| p.local_addr())
            .expect("hub address");
        // Each node's worker has a store; every reply it sends is lost on
        // the wire, so a request to it stays in flight.
        let lost = FaultPlan {
            drop: vec![LaneDrop {
                lane: WireLane::ReplyIn,
                fraction: 1.0,
            }],
        };
        let node = || {
            let handshake = NodeHandshake::dial(
                &addr.to_string(),
                1,
                None,
                Vec::new(),
                Duration::from_secs(10),
                Duration::from_secs(10),
            )
            .expect("handshake");
            let worker = handshake.welcome.worker;
            let store = |w| (w == worker).then(|| Arc::new(ObjectStore::unbounded()));
            let (channels, _) = ClusterChannels::new(2, 1, None, store);
            let (goodbye_tx, _) = unbounded();
            let stats = Arc::new(SchedulerStats::new());
            let start = |fabric: &Arc<Fabric>| handshake.start(fabric, goodbye_tx);
            let router = plane_router(channels, &stats, lost.clone(), start);
            (worker, router, stats)
        };
        let (a, node_a, _) = node();
        let (b, node_b, b_stats) = node();
        assert_eq!((a, b), (0, 1));
        let get = |router: &Arc<Router>, from: Addr| {
            router.endpoint(from).request(b, |reply| DataMsg::Get {
                key: Key::new("k"),
                reply,
            })
        };

        // B's worker got the request: its answer is the one reply B lost.
        let in_flight = get(&node_a, Addr::WorkerExec(a));
        let deadline = Instant::now() + Duration::from_secs(10);
        while b_stats.injected_drops() == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(b_stats.injected_drops(), 1, "B never answered the request");
        drop(node_b);
        assert!(hangs_up(in_flight), "node A's request in flight");
        assert!(
            hangs_up(get(&node_a, Addr::WorkerExec(a))),
            "node A's request after the loss"
        );
        assert!(
            hangs_up(get(&hub, Addr::Control)),
            "the hub's request after the loss"
        );
    }
}
