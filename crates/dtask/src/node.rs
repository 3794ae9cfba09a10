//! Worker-process runtime for the deployment layer: what the `dtask-node`
//! binary runs after parsing its command line.
//!
//! [`run_node`] dials a [`crate::Cluster::listen`] hub, performs the
//! versioned registration handshake ([`crate::wire::NodeMsg::Hello`] →
//! [`crate::wire::NodeMsg::Welcome`]), then brings up exactly the worker
//! actors an in-process cluster would have spawned as threads — the assigned
//! number of executor slots over one worker core and its store, and (when
//! the hub asks for it) a heartbeat pinger. All of them talk
//! through a normal [`crate::transport::Router`] whose backend is the
//! node's hub connection, so executor code is byte-for-byte the same code
//! that runs in-process.
//!
//! The call blocks until the hub says [`crate::wire::NodeMsg::Goodbye`]
//! (orderly cluster shutdown) or the connection dies, then tears the worker
//! down in the same dependency order the in-process cluster uses and
//! reports why it exited.

use crate::net::NodeHandshake;
use crate::spec::OpRegistry;
use crate::stats::SchedulerStats;
use crate::store::StoreConfig;
use crate::trace::{TraceHandle, TraceRecorder};
use crate::transport::{ClusterChannels, FaultPlan, Router};
use crate::worker::{new_store, WorkerRuntime, WorkerSpec};
use crossbeam::channel::unbounded;
use std::sync::Arc;
use std::time::Duration;

/// What a worker process announces and how it dials the hub.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Hub address, `HOST:PORT`.
    pub connect: String,
    /// Executor slots to announce. `0` (default) accepts the hub's
    /// cluster-wide slot setting.
    pub slots: usize,
    /// Local store budget to announce; the hub's cluster-wide budget (when
    /// set) overrides it in the `Welcome`.
    pub mem_budget: Option<u64>,
    /// Free-form capability strings, logged by the hub at attach (e.g.
    /// `gpu`, `highmem`); reserved for placement policies.
    pub capabilities: Vec<String>,
    /// How long to keep retrying the initial TCP connect — covers the hub
    /// coming up *after* its nodes, which process launchers routinely do.
    pub connect_timeout: Duration,
    /// Deadline for the `Welcome` once connected.
    pub handshake_timeout: Duration,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            connect: "127.0.0.1:7711".into(),
            slots: 0,
            mem_budget: None,
            capabilities: Vec::new(),
            connect_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// How a completed [`run_node`] went.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Worker id the hub assigned.
    pub worker: usize,
    /// Executor slots this node ran.
    pub slots: usize,
    /// Why the node exited (the hub's `Goodbye` reason, or a description
    /// of the lost connection).
    pub reason: String,
}

/// Attach to a hub and serve as worker until dismissed. Blocks for the
/// node's whole lifetime; returns how it ended, or an error if the
/// handshake never completed.
pub fn run_node(config: NodeConfig, registry: OpRegistry) -> Result<NodeReport, String> {
    let handshake = NodeHandshake::dial(
        &config.connect,
        config.slots,
        config.mem_budget,
        config.capabilities.clone(),
        config.connect_timeout,
        config.handshake_timeout,
    )?;
    let welcome = handshake.welcome.clone();
    let w = welcome.worker;
    let stats = Arc::new(SchedulerStats::new());

    // The router wants the full worker-count layout; only this worker has a
    // store here, built before the plane starts so that a request arriving
    // before the runtime is answered. Every other worker is a dead end the
    // plane never delivers into (their traffic routes to the hub).
    if w >= welcome.n_workers {
        return Err("assigned worker id out of range".into());
    }
    let millis = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let steal_poll = millis(welcome.steal_poll_ms);
    let store_config = StoreConfig {
        mem_budget: welcome.mem_budget.or(config.mem_budget),
        ..StoreConfig::default()
    };
    let tracer = TraceRecorder::disabled();
    let store = |id| (id == w).then(|| new_store(id, store_config.clone(), &stats, &tracer));
    let (channels, _sched_rx) =
        ClusterChannels::new(welcome.n_workers, welcome.slots, steal_poll, store);
    let (goodbye_tx, goodbye_rx) = unbounded();
    let router = Router::new(
        channels,
        Arc::clone(&stats),
        TraceHandle::disabled(),
        FaultPlan::default(),
        |fabric| handshake.start(fabric, goodbye_tx).map(Some),
    )?;

    let mut runtime = WorkerRuntime::spawn(WorkerSpec {
        id: w,
        router: &router,
        registry: &registry,
        stats: &stats,
        heartbeat: millis(welcome.heartbeat_ms),
        tracer: &tracer,
        telemetry: None,
    })
    .map_err(|e| format!("worker thread spawn failed: {e}"))?;

    // Serve until dismissed (or orphaned).
    let reason = goodbye_rx
        .recv()
        .unwrap_or_else(|_| "plane closed".to_string());

    // The hub link is gone, and the plane has already cancelled every reply
    // slot aimed at another worker (a later request fails fast the same
    // way): retire the worker in the orderly order.
    runtime.stop_slots();
    runtime.stop_data();
    Ok(NodeReport {
        worker: w,
        slots: welcome.slots,
        reason,
    })
}
