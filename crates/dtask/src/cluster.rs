//! Cluster bootstrap: spawn scheduler + workers, hand out clients.

use crate::client::Client;
use crate::key::{SessionId, DEFAULT_SESSION};
use crate::msg::{ClientMsg, DataMsg, SchedMsg, WorkerId};
use crate::net::{HubParams, Plane, RegisterFn};
use crate::optimize::OptimizeConfig;
use crate::policy::PolicyConfig;
use crate::scheduler::{LivenessConfig, Scheduler};
use crate::spec::OpRegistry;
use crate::stats::{Metric, SchedulerStats};
use crate::store::StoreConfig;
use crate::telemetry::{TelemetryConfig, TelemetryHub, TelemetryThreads};
use crate::trace::{TraceActor, TraceConfig, TraceRecorder};
use crate::transport::{
    Addr, ClusterChannels, DataReply, FaultPlan, Outcome, Router, TransportConfig,
};
use crate::worker::{new_store, Pinger, WorkerRuntime, WorkerSpec};
use crossbeam::channel::unbounded;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often a client pings the scheduler.
///
/// The paper's three systems differ exactly here: DEISA1 keeps Dask's default
/// (5 s), DEISA2 uses 60 s, DEISA3 uses ∞ ("no need to keep informing the
/// scheduler about the bridges thanks to external tasks").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatInterval {
    /// Ping every given duration.
    Every(Duration),
    /// Never ping (DEISA3).
    Infinite,
}

impl HeartbeatInterval {
    /// Dask's default 5-second interval (DEISA1).
    pub const DASK_DEFAULT: HeartbeatInterval = HeartbeatInterval::Every(Duration::from_secs(5));
}

/// Fault-tolerance knobs: liveness detection, retry policy, worker
/// heartbeats, and the (test/bench-facing) fault-injection plan.
///
/// Everything defaults *off* so the fault machinery costs nothing — and
/// changes no message counts — unless explicitly enabled.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Scheduler-side liveness: declare a worker or heartbeating client
    /// dead after this long without a ping. `None` (default, DEISA3
    /// semantics) disables failure detection.
    pub heartbeat_timeout: Option<Duration>,
    /// How often each worker pings the scheduler
    /// ([`SchedMsg::WorkerHeartbeat`]). `Infinite` by default; enable
    /// together with `heartbeat_timeout` for worker failure detection.
    /// The first ping is sent immediately at startup so a worker killed
    /// before its first interval is still detectable.
    pub worker_heartbeat: HeartbeatInterval,
    /// Resubmission budget per task after peer losses.
    pub max_retries: u32,
    /// Base of the exponential resubmission backoff.
    pub retry_backoff: Duration,
    /// Injected faults: lane drops, acting inside the transport. Workers
    /// are killed with [`Cluster::kill_worker`].
    pub plan: FaultPlan,
}

impl Default for FaultConfig {
    fn default() -> Self {
        let liveness = LivenessConfig::default();
        FaultConfig {
            heartbeat_timeout: liveness.heartbeat_timeout,
            worker_heartbeat: HeartbeatInterval::Infinite,
            max_retries: liveness.max_retries,
            retry_backoff: liveness.retry_backoff,
            plan: FaultPlan::default(),
        }
    }
}

impl FaultConfig {
    /// The scheduler-side slice of this config.
    fn liveness(&self) -> LivenessConfig {
        LivenessConfig {
            heartbeat_timeout: self.heartbeat_timeout,
            max_retries: self.max_retries,
            retry_backoff: self.retry_backoff,
        }
    }
}

/// Multi-tenant serving knobs.
///
/// Sessions are chosen per client, not per cluster: a client from
/// [`Cluster::client`] runs in the implicit session ([`DEFAULT_SESSION`]),
/// whose messages are byte-identical to a single-tenant cluster's — no
/// `Scoped` wrapper ever travels the wire. A client from
/// [`Cluster::client_in`] joins the session it names: task keys,
/// variables, queues, and store payloads are namespaced per session, so
/// every client of one session (bridges and an adaptor, say) shares one
/// namespace, and the departure of a session's last client (orderly or
/// swept dead) releases exactly that session's resources.
#[derive(Debug, Clone, Default)]
pub struct TenancyConfig {
    /// Per-session in-flight task cap. A scoped `SubmitGraph` that would
    /// exceed it is rejected whole and the client told so
    /// ([`crate::msg::ClientMsg::SubmitOutcome`]) — backpressure, not
    /// silent queuing. `None` admits everything (and sends no acks). The
    /// implicit session is never capped.
    pub max_inflight_tasks: Option<usize>,
}

impl TenancyConfig {
    /// An in-flight task cap per session.
    pub fn with_cap(cap: usize) -> Self {
        TenancyConfig {
            max_inflight_tasks: Some(cap),
        }
    }
}

/// Cluster construction options.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of workers.
    pub n_workers: usize,
    /// Executor slots (threads) per worker. `0` means auto:
    /// `max(2, available_parallelism / n_workers)`. Each worker's slots
    /// share one inbox, so a task blocked in a dependency gather or a
    /// long-running op does not stall the tasks queued behind it.
    pub slots_per_worker: usize,
    /// Heartbeat interval applied to clients created with
    /// [`Cluster::client`] (override per client with
    /// [`Cluster::client_with_heartbeat`]).
    pub default_heartbeat: HeartbeatInterval,
    /// Ahead-of-time graph optimization applied by clients at submit time
    /// (cull + linear-chain fusion). Disabled by default: fusing hides
    /// intermediate keys, which is only safe when callers consume declared
    /// outputs. Enable with [`OptimizeConfig::enabled`] for whole-graph
    /// workloads.
    pub optimize: OptimizeConfig,
    /// Task-lifecycle tracing (default: off — disabled handles never touch
    /// the clock or allocate). Enable with [`TraceConfig::enabled`] and read
    /// the log back via [`Cluster::tracer`].
    pub trace: TraceConfig,
    /// Inter-actor transport backend (default:
    /// [`TransportConfig::InProc`] — plain channels, zero overhead).
    /// [`TransportConfig::Framed`] runs every message through the versioned
    /// wire format and counts real serialized bytes;
    /// [`TransportConfig::Tcp`] also sends each one over a loopback socket.
    pub transport: TransportConfig,
    /// Fault tolerance and fault injection (default: everything off).
    pub fault: FaultConfig,
    /// Out-of-band data plane: per-worker object stores (spill budget) and
    /// proxy-handle publication (default: proxies off, no budget — behavior
    /// and message counts identical to a cluster without the store).
    pub store: StoreConfig,
    /// Scheduling policy: which placement/queue strategy the scheduler runs
    /// and whether idle workers steal queued assignments from loaded peers
    /// (default: [`PolicyConfig::locality`], no stealing — behavior and
    /// message counts identical to the pre-policy scheduler).
    pub policy: PolicyConfig,
    /// Live telemetry plane: flight-recorder sampler, HTTP `/metrics`
    /// exporter, and online straggler detection (default: off — no hub is
    /// built, no threads spawn, and the scheduler/executor hot paths take
    /// a single never-true branch). Enable with [`TelemetryConfig::enabled`]
    /// and read back via [`Cluster::telemetry`] / [`Cluster::telemetry_addr`].
    pub telemetry: TelemetryConfig,
    /// Multi-tenant serving: the admission cap of the sessions clients
    /// join with [`Cluster::client_in`] (default: no cap).
    pub tenancy: TenancyConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_workers: 2,
            slots_per_worker: 0,
            default_heartbeat: HeartbeatInterval::Infinite,
            optimize: OptimizeConfig::default(),
            trace: TraceConfig::default(),
            transport: TransportConfig::default(),
            fault: FaultConfig::default(),
            store: StoreConfig::default(),
            policy: PolicyConfig::default(),
            telemetry: TelemetryConfig::default(),
            tenancy: TenancyConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Resolve `slots_per_worker = 0` (auto) to a concrete slot count.
    fn resolved_slots(&self) -> usize {
        if self.slots_per_worker > 0 {
            return self.slots_per_worker;
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        (cores / self.n_workers.max(1)).max(2)
    }
}

/// Deployment-layer options for [`Cluster::listen`]: where the hub accepts
/// `dtask-node` worker processes and how patient the registration handshake
/// is.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// Listen address, e.g. `"127.0.0.1:0"` (OS-assigned port, reported by
    /// [`Cluster::deploy_addr`]) or `"0.0.0.0:7711"` for remote nodes.
    pub bind: String,
    /// How long one accepted connection may take to complete the
    /// `Hello`/`Welcome` handshake before it is dropped (the accept loop
    /// keeps serving either way).
    pub handshake_timeout: Duration,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            bind: "127.0.0.1:0".into(),
            handshake_timeout: Duration::from_secs(10),
        }
    }
}

/// A running in-process cluster: one scheduler thread, `n` workers (data
/// server + executor slots each), all talking through one transport
/// [`Router`].
pub struct Cluster {
    router: Arc<Router>,
    registry: OpRegistry,
    stats: Arc<SchedulerStats>,
    tracer: Arc<TraceRecorder>,
    next_client: AtomicUsize,
    default_heartbeat: HeartbeatInterval,
    optimize: OptimizeConfig,
    store_config: StoreConfig,
    slots_per_worker: usize,
    sched_thread: Option<JoinHandle<()>>,
    /// Local worker runtimes, one per worker id; all `None` on a deployment
    /// hub, `None` for a killed worker. Behind a mutex so `kill_worker`
    /// can retire one worker while the rest keep running. Client heartbeat
    /// pingers are owned by their `Client` handles.
    workers: parking_lot::Mutex<Vec<Option<WorkerRuntime>>>,
    /// Telemetry hub (gauges, flight ring, straggler baselines, alerts);
    /// `None` unless the cluster was built with [`TelemetryConfig::enabled`].
    telemetry: Option<Arc<TelemetryHub>>,
    /// Sampler + HTTP exporter threads. Retired *first* at shutdown: they
    /// only read shared state, so stopping them before the actors keeps the
    /// final flight sample and scrape consistent with a live cluster.
    telemetry_threads: Option<TelemetryThreads>,
    /// Whether the scheduler caps sessions: a client in one then waits for
    /// each submission's ack.
    capped: bool,
    /// Built by [`Cluster::listen`]: workers are remote processes attached
    /// over the deployment plane, not local threads. Shutdown then sends
    /// `Goodbye` over the sockets instead of joining worker threads.
    deploy: bool,
    down: bool,
}

impl Cluster {
    /// Start a cluster with `n_workers` workers and default config.
    pub fn new(n_workers: usize) -> Self {
        Cluster::with_config(ClusterConfig {
            n_workers,
            ..ClusterConfig::default()
        })
    }

    /// Start a cluster from a config, panicking on thread-spawn failure
    /// (the common case; see [`Cluster::try_with_config`] for the fallible
    /// variant).
    pub fn with_config(config: ClusterConfig) -> Self {
        Cluster::try_with_config(config).expect("cluster startup")
    }

    /// Start a cluster from a config. On a thread-spawn failure every
    /// already-spawned actor is torn down in shutdown dependency order
    /// before the error is returned, so a failed startup leaks nothing.
    pub fn try_with_config(config: ClusterConfig) -> std::io::Result<Self> {
        Cluster::build(config, None)
    }

    /// The one cluster shell: shared state, router, telemetry threads and
    /// the scheduler, then either local worker runtimes (`deploy: None`) or
    /// a hub plane that remote workers attach to.
    fn build(config: ClusterConfig, deploy: Option<DeployConfig>) -> std::io::Result<Self> {
        assert!(config.n_workers > 0, "cluster needs at least one worker");
        let slots = config.resolved_slots();
        let stats = Arc::new(SchedulerStats::new());
        let tracer = Arc::new(TraceRecorder::new(config.trace));
        let hub = config
            .telemetry
            .enabled
            .then(|| Arc::new(TelemetryHub::new(config.telemetry, Arc::clone(&stats))));
        let heartbeat = match config.fault.worker_heartbeat {
            HeartbeatInterval::Every(period) => Some(period),
            HeartbeatInterval::Infinite => None,
        };

        // One router fronts every inter-actor channel; actors only ever see
        // `Endpoint`s derived from it. A hub runs no local worker, so it
        // builds no store: every worker-bound message routes over the plane.
        let local = deploy.is_none();
        let store = |id| local.then(|| new_store(id, config.store.clone(), &stats, &tracer));
        let (channels, sched_rx) =
            ClusterChannels::new(config.n_workers, slots, config.policy.steal_poll, store);
        let hub_plane = deploy.as_ref().map(|deploy| {
            let as_ms = |d: Option<Duration>| d.map_or(0, |d| d.as_millis().max(1) as u64);
            let params = HubParams {
                n_workers: config.n_workers,
                default_slots: slots,
                heartbeat_ms: as_ms(heartbeat),
                steal_poll_ms: as_ms(config.policy.steal_poll),
                mem_budget: config.store.mem_budget,
                handshake_timeout: deploy.handshake_timeout,
            };
            let register_tx = channels.sched_tx.clone();
            let register: RegisterFn = Box::new(move |worker, slots| {
                let _ = register_tx.send(SchedMsg::RegisterWorker { worker, slots });
            });
            (deploy.bind.as_str(), params, register)
        });
        let router = Router::new(
            channels,
            Arc::clone(&stats),
            tracer.register(TraceActor::Transport),
            config.fault.plan.clone(),
            |fabric| match hub_plane {
                None => Ok(Plane::for_transport(&config.transport, fabric)),
                Some((bind, params, register)) => {
                    Plane::hub(bind, params, register, fabric).map(Some)
                }
            },
        )?;

        // Build the (thread-less) cluster first: an early return below
        // drops it, and the drop retires exactly the threads recorded so
        // far in dependency order.
        let mut cluster = Cluster {
            router,
            registry: OpRegistry::with_std_ops(),
            stats,
            tracer,
            next_client: AtomicUsize::new(0),
            default_heartbeat: config.default_heartbeat,
            optimize: config.optimize,
            store_config: config.store.clone(),
            slots_per_worker: slots,
            sched_thread: None,
            workers: parking_lot::Mutex::new((0..config.n_workers).map(|_| None).collect()),
            telemetry: hub,
            telemetry_threads: None,
            capped: config.tenancy.max_inflight_tasks.is_some(),
            deploy: deploy.is_some(),
            down: false,
        };

        // Telemetry plane: flight-recorder sampler and (optionally) the HTTP
        // exporter. Spawned before the actors so the first samples cover the
        // whole run; both threads only *read* shared state.
        if let Some(hub) = &cluster.telemetry {
            cluster.telemetry_threads = Some(TelemetryThreads::spawn(
                hub,
                &cluster.stats,
                &cluster.tracer,
            )?);
        }

        // Scheduler thread. On a hub every worker slot starts offline until
        // its process attaches and registers.
        let mut sched = Scheduler::new(
            cluster.router.endpoint(Addr::Scheduler),
            config.n_workers,
            slots,
            config.fault.liveness(),
            config.policy.clone(),
            Arc::clone(&cluster.stats),
            cluster.tracer.register(TraceActor::Scheduler),
            config.tenancy.max_inflight_tasks,
            std::time::Instant::now(),
        );
        if cluster.deploy {
            sched = sched.with_offline_workers();
        }
        let sched_telemetry = cluster.telemetry.clone();
        cluster.sched_thread = Some(
            std::thread::Builder::new()
                .name("dtask-scheduler".into())
                .spawn(move || sched.run(sched_rx, sched_telemetry))?,
        );
        for id in (0..config.n_workers).filter(|_| !cluster.deploy) {
            let runtime = WorkerRuntime::spawn(WorkerSpec {
                id,
                router: &cluster.router,
                registry: &cluster.registry,
                stats: &cluster.stats,
                heartbeat,
                tracer: &cluster.tracer,
                telemetry: cluster.telemetry.as_ref(),
            })?;
            cluster.workers.get_mut()[id] = Some(runtime);
        }
        Ok(cluster)
    }

    /// Start a *deployment hub*: the scheduler plus a listener for
    /// `dtask-node` worker processes — no local worker threads at all.
    ///
    /// Each accepted process runs the versioned registration handshake
    /// ([`crate::wire::NodeMsg::Hello`] → assigned worker id +
    /// [`crate::wire::NodeMsg::Welcome`] with the cluster config), then
    /// serves the normal `ExecMsg`/`DataMsg` loops over its socket. The
    /// scheduler starts with every worker slot offline and brings slots
    /// live as [`SchedMsg::RegisterWorker`] arrives; call
    /// [`Cluster::await_workers`] before submitting if the workload needs
    /// the full cluster. Everything else — clients, stats, tracing,
    /// telemetry — works exactly as in-process.
    pub fn listen(config: ClusterConfig, deploy: DeployConfig) -> std::io::Result<Self> {
        Cluster::build(config, Some(deploy))
    }

    /// The hub plane workers attach to; `None` unless the cluster was built
    /// with [`Cluster::listen`].
    fn hub(&self) -> Option<Arc<crate::net::PlaneShared>> {
        self.router.plane().filter(|_| self.deploy)
    }

    /// Where the deployment hub accepts worker processes; `None` unless the
    /// cluster was built with [`Cluster::listen`].
    pub fn deploy_addr(&self) -> Option<SocketAddr> {
        self.hub().and_then(|plane| plane.local_addr())
    }

    /// Deployment hub: block until every worker slot has a registered
    /// process, or `timeout`. Returns whether the cluster is fully staffed.
    /// In-process clusters are always fully staffed.
    pub fn await_workers(&self, timeout: Duration) -> bool {
        self.hub().is_none_or(|plane| plane.await_workers(timeout))
    }

    /// Deployment hub: how many worker processes are currently attached.
    pub fn attached_workers(&self) -> usize {
        self.hub()
            .map_or(self.n_workers(), |plane| plane.attached_workers())
    }

    /// The shared op registry; register application ops here before
    /// submitting graphs that use them.
    pub fn registry(&self) -> &OpRegistry {
        &self.registry
    }

    /// Shared message counters.
    pub fn stats(&self) -> &Arc<SchedulerStats> {
        &self.stats
    }

    /// The cluster-wide trace recorder. Inert unless the cluster was built
    /// with [`TraceConfig::enabled`]; call
    /// [`TraceRecorder::collect`] after a run to drain the event log.
    pub fn tracer(&self) -> &Arc<TraceRecorder> {
        &self.tracer
    }

    /// The telemetry hub (flight recorder, straggler baselines, alerts).
    /// `None` unless the cluster was built with [`TelemetryConfig::enabled`].
    pub fn telemetry(&self) -> Option<&Arc<TelemetryHub>> {
        self.telemetry.as_ref()
    }

    /// Where the HTTP exporter is listening (`GET /metrics`,
    /// `/snapshot.json`, `/flight.json`, `/alerts.json`, `/health`).
    /// `None` unless telemetry is enabled with `serve_http`.
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry_threads
            .as_ref()
            .and_then(TelemetryThreads::addr)
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.router.n_workers()
    }

    /// Executor slots each worker runs (after `0 = auto` resolution).
    pub fn slots_per_worker(&self) -> usize {
        self.slots_per_worker
    }

    /// Per-worker `(stored keys, stored bytes)` snapshot — how Dask's
    /// dashboard reports worker memory; used by the load-balance tests.
    pub fn worker_memory(&self) -> Vec<(usize, u64)> {
        let endpoint = self.router.endpoint(Addr::Control);
        (0..self.n_workers())
            .map(|w| {
                let stats = endpoint.request(w, |reply| DataMsg::Stats { reply });
                match stats.recv() {
                    Outcome::Value(DataReply::Stats { keys, bytes }) => (keys as usize, bytes),
                    _ => (0, 0),
                }
            })
            .collect()
    }

    /// Kill one worker: stop its heartbeat pinger, retire its store from the
    /// data plane, then retire its executor slots and join their threads.
    /// From the rest of the cluster's point of view the worker silently
    /// vanishes — in-flight fetches against it error out (every reply slot
    /// aimed at it dies with its store), its heartbeats stop, and with
    /// liveness enabled the scheduler declares it dead and recovers. This is
    /// the fault-injection "kill" primitive; it does not tell the scheduler
    /// anything.
    pub fn kill_worker(&self, worker: WorkerId) {
        assert!(worker < self.n_workers(), "no such worker");
        let runtime = self.workers.lock()[worker].take();
        if let Some(mut runtime) = runtime {
            // Data plane first: once the store is retired, every result
            // this worker holds (including those its exec slots finish
            // below, straight into the shared store) is unreachable — the
            // death is observable to any peer immediately, not only after
            // the exec slots drain.
            runtime.stop_data();
            runtime.stop_slots();
        }
        self.stats.inc(Metric::InjectedKills);
    }

    /// Connect a new client to the implicit session with the
    /// cluster-default heartbeat.
    pub fn client(&self) -> Client {
        self.client_with_heartbeat(self.default_heartbeat)
    }

    /// Connect a new client to the implicit session with an explicit
    /// heartbeat interval.
    pub fn client_with_heartbeat(&self, heartbeat: HeartbeatInterval) -> Client {
        self.client_in(DEFAULT_SESSION, heartbeat)
    }

    /// Connect a new client to `session` with an explicit heartbeat
    /// interval. Every client of one session shares its namespace; the
    /// session is torn down when its last client leaves (see
    /// [`TenancyConfig`]).
    pub fn client_in(&self, session: SessionId, heartbeat: HeartbeatInterval) -> Client {
        let id = self.next_client.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded::<ClientMsg>();
        // Register the notification route BEFORE announcing the client: the
        // connect message and any subsequent notification travel the same
        // transport, so ordering here guarantees no notification can ever
        // beat its route.
        self.router.register_client(id, tx);
        let endpoint = self.router.endpoint(Addr::Client(id));
        let connect = SchedMsg::ClientConnect { client: id };
        if session == DEFAULT_SESSION {
            endpoint.send_sched(connect);
        } else {
            endpoint.send_sched(SchedMsg::Scoped {
                session,
                inner: Box::new(connect),
            });
        }
        let heartbeat = match heartbeat {
            HeartbeatInterval::Infinite => None,
            // The client owns (and joins) its pinger, so dropping the
            // client retires the thread *before* its disconnect goes out —
            // no ping can ever trail the goodbye and re-arm liveness
            // tracking. Sends after cluster shutdown land on a closed
            // channel and are dropped by the transport.
            HeartbeatInterval::Every(period) => {
                let hb_endpoint = endpoint.clone();
                let ping = move || hb_endpoint.send_sched(SchedMsg::Heartbeat { client: id });
                Some(
                    Pinger::spawn(format!("dtask-heartbeat-{id}"), period, ping)
                        .expect("spawn heartbeat"),
                )
            }
        };
        Client {
            id,
            session,
            endpoint,
            rx,
            pending: Default::default(),
            stats: Arc::clone(&self.stats),
            scatter_cursor: AtomicUsize::new(id), // stagger placement across clients
            optimize: self.optimize.clone(),
            external_keys: Default::default(),
            tracer: self.tracer.register(TraceActor::Client { id }),
            heartbeat,
            store: self.store_config.clone(),
            proxy_seq: AtomicUsize::new(0),
            await_submit_ack: session != DEFAULT_SESSION && self.capped,
            dead: std::cell::Cell::new(false),
        }
    }

    /// Stop every thread and join them.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Retire threads in dependency order, so nothing ever writes into an
    /// actor that is already gone:
    ///
    /// 0. telemetry sampler and exporter (they only read, so they go before
    ///    any of the state they read starts tearing down; the sampler takes
    ///    one final sample on stop),
    /// 1. every worker's pinger and executor slots (they write into the
    ///    scheduler and read from the stores),
    /// 2. every worker's store (executors are gone, no more peer fetches),
    /// 3. the scheduler itself.
    ///
    /// Killed (or never-spawned) workers have nothing left to retire. Client
    /// heartbeat pingers are joined by their `Client` handles; a still-live
    /// client's pings after this point land on a closed scheduler channel
    /// and are dropped by the transport.
    fn shutdown_inner(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.telemetry_threads = None;
        // Deployment hub: tell every attached worker process to leave. A
        // node that already exited (or was SIGKILLed) has a dead writer —
        // the send is logged and skipped, never a panic or a stall, so the
        // join sequence below always completes.
        if let Some(plane) = self.hub() {
            plane.goodbye_all("cluster shutdown");
        }
        let mut workers = self.workers.lock();
        for runtime in workers.iter_mut().flatten() {
            runtime.stop_slots();
        }
        for runtime in workers.iter_mut().flatten() {
            runtime.stop_data();
        }
        drop(workers);
        self.router
            .endpoint(Addr::Control)
            .send_sched(SchedMsg::Shutdown);
        if let Some(t) = self.sched_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;
    use crate::key::Key;
    use crate::spec::TaskSpec;

    #[test]
    fn submit_and_gather_simple_chain() {
        let cluster = Cluster::new(2);
        let client = cluster.client();
        client.submit(vec![
            TaskSpec::new("a", "const", Datum::F64(2.0), vec![]),
            TaskSpec::new("b", "const", Datum::F64(3.0), vec![]),
            TaskSpec::new(
                "c",
                "sum_scalars",
                Datum::Null,
                vec!["a".into(), "b".into()],
            ),
        ]);
        let r = client.future("c").result().unwrap();
        assert_eq!(r.as_f64(), Some(5.0));
    }

    #[test]
    fn diamond_graph() {
        let cluster = Cluster::new(3);
        let client = cluster.client();
        client.submit(vec![
            TaskSpec::new("root", "const", Datum::F64(1.0), vec![]),
            TaskSpec::new(
                "l",
                "sum_scalars",
                Datum::Null,
                vec!["root".into(), "root".into()],
            ),
            TaskSpec::new("r", "identity", Datum::Null, vec!["root".into()]),
            TaskSpec::new(
                "top",
                "sum_scalars",
                Datum::Null,
                vec!["l".into(), "r".into()],
            ),
        ]);
        assert_eq!(client.future("top").result().unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn scatter_then_depend() {
        let cluster = Cluster::new(2);
        let client = cluster.client();
        client.scatter(vec![(Key::new("x"), Datum::F64(10.0))], None);
        client.submit(vec![TaskSpec::new(
            "y",
            "sum_scalars",
            Datum::Null,
            vec!["x".into()],
        )]);
        assert_eq!(client.future("y").result().unwrap().as_f64(), Some(10.0));
    }

    #[test]
    fn external_task_graph_submitted_before_data() {
        let cluster = Cluster::new(2);
        let client = cluster.client();
        // 1. Register external tasks and submit the graph FIRST.
        client.register_external(vec![Key::new("ext-0"), Key::new("ext-1")]);
        client.submit(vec![TaskSpec::new(
            "sum",
            "sum_scalars",
            Datum::Null,
            vec!["ext-0".into(), "ext-1".into()],
        )]);
        // The graph now sits in Waiting (the scheduler inbox is FIFO; the
        // stepped core test asserts the state itself).
        // 2. The "external environment" pushes the data.
        let bridge = cluster.client();
        bridge.scatter_external(vec![(Key::new("ext-0"), Datum::F64(4.0))], Some(0));
        bridge.scatter_external(vec![(Key::new("ext-1"), Datum::F64(5.0))], Some(1));
        // 3. The pre-submitted graph completes.
        assert_eq!(client.future("sum").result().unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn erred_task_propagates_to_dependents() {
        let cluster = Cluster::new(2);
        cluster
            .registry()
            .register("boom", |_, _| Err("kaboom".into()));
        let client = cluster.client();
        client.submit(vec![
            TaskSpec::new("bad", "boom", Datum::Null, vec![]),
            TaskSpec::new("child", "identity", Datum::Null, vec!["bad".into()]),
        ]);
        let err = client.future("child").result().unwrap_err();
        assert_eq!(err.key.as_str(), "bad");
        assert!(err.message.contains("kaboom"));
    }

    #[test]
    fn panicking_op_is_caught() {
        let cluster = Cluster::new(1);
        cluster
            .registry()
            .register("panic", |_, _| panic!("op blew up"));
        let client = cluster.client();
        client.submit(vec![TaskSpec::new("p", "panic", Datum::Null, vec![])]);
        let err = client.future("p").result().unwrap_err();
        assert!(err.message.contains("blew up"), "{}", err.message);
    }

    #[test]
    fn unknown_op_and_unknown_key() {
        let cluster = Cluster::new(1);
        let client = cluster.client();
        client.submit(vec![TaskSpec::new("u", "no-such-op", Datum::Null, vec![])]);
        assert!(client.future("u").result().is_err());
        assert!(client.future("never-submitted").result().is_err());
    }

    #[test]
    fn cross_worker_dependency_fetch() {
        let cluster = Cluster::new(2);
        let client = cluster.client();
        // Pin the two inputs on different workers; the consumer must fetch one.
        client.scatter(vec![(Key::new("a"), Datum::F64(1.0))], Some(0));
        client.scatter(vec![(Key::new("b"), Datum::F64(2.0))], Some(1));
        client.submit(vec![TaskSpec::new(
            "c",
            "sum_scalars",
            Datum::Null,
            vec!["a".into(), "b".into()],
        )]);
        assert_eq!(client.future("c").result().unwrap().as_f64(), Some(3.0));
        assert!(cluster.stats().count(crate::stats::MsgClass::PeerFetch) >= 1);
        assert!(cluster.stats().gather_batches() >= 1);
        assert!(cluster.stats().gather_wait_ns() > 0);
    }

    /// Wait, yielding, until `done` holds; fail after 10 s. The event
    /// waits below poll a counter the scheduler bumps as it steps each
    /// message, so the step after it sees the state it leaves.
    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "no {what} in 10 s");
            std::thread::yield_now();
        }
    }

    #[test]
    fn variables_set_get_wait() {
        let cluster = Cluster::new(1);
        let setter = cluster.client();
        let getter = cluster.client();
        assert!(getter.var_try_get("v").unwrap().is_none());
        let stats = Arc::clone(cluster.stats());
        let t = std::thread::spawn(move || {
            // The getter's blocking get is parked: the scheduler stepped it.
            let gets = || stats.count(crate::stats::MsgClass::Variable) >= 2;
            wait_until("blocking get", gets);
            setter.var_set("v", Datum::I64(99));
        });
        // Blocking get resolves once set.
        assert_eq!(getter.var_get("v").unwrap().as_i64(), Some(99));
        t.join().unwrap();
        assert!(getter.var_try_get("v").unwrap().is_some());
        getter.var_del("v");
        assert!(getter.var_try_get("v").unwrap().is_none());
    }

    #[test]
    fn queues_block_until_pushed() {
        let cluster = Cluster::new(1);
        let producer = cluster.client();
        let consumer = cluster.client();
        let stats = Arc::clone(cluster.stats());
        let t = std::thread::spawn(move || {
            // The consumer's first pop is parked: the scheduler stepped it.
            let pops = || stats.count(crate::stats::MsgClass::Queue) >= 1;
            wait_until("blocking pop", pops);
            producer.q_push("q", Datum::I64(1));
            producer.q_push("q", Datum::I64(2));
        });
        assert_eq!(consumer.q_pop("q").unwrap().as_i64(), Some(1));
        assert_eq!(consumer.q_pop("q").unwrap().as_i64(), Some(2));
        t.join().unwrap();
    }

    #[test]
    fn release_frees_worker_memory() {
        let cluster = Cluster::new(1);
        let client = cluster.client();
        client.scatter(vec![(Key::new("x"), Datum::F64(1.0))], Some(0));
        assert!(client.future("x").result().is_ok());
        client.release(vec![Key::new("x")]);
        // Same client, same FIFO inbox: the release is handled before the
        // lookup, so the key is forgotten by the scheduler now.
        assert!(client.future("x").result().is_err());
    }

    #[test]
    fn heartbeats_are_counted() {
        let cluster = Cluster::new(1);
        let _client =
            cluster.client_with_heartbeat(HeartbeatInterval::Every(Duration::from_millis(25)));
        let beats = || cluster.stats().count(crate::stats::MsgClass::Heartbeat);
        wait_until("second heartbeat", || beats() >= 2);
        assert!(cluster.stats().count(crate::stats::MsgClass::Heartbeat) >= 2);
    }

    #[test]
    fn no_heartbeats_when_infinite() {
        let cluster = Cluster::new(1);
        let client = cluster.client_with_heartbeat(HeartbeatInterval::Infinite);
        // No pinger runs, so nothing can ever send a heartbeat: no wait.
        assert!(client.heartbeat.is_none());
        assert_eq!(cluster.stats().count(crate::stats::MsgClass::Heartbeat), 0);
    }

    #[test]
    fn result_timeout_fires() {
        let cluster = Cluster::new(1);
        let client = cluster.client();
        client.register_external(vec![Key::new("never")]);
        let err = client
            .future("never")
            .result_timeout(Duration::from_millis(40))
            .unwrap_err();
        assert!(err.message.contains("timed out"));
    }

    #[test]
    fn many_tasks_fan_in() {
        let cluster = Cluster::new(4);
        let client = cluster.client();
        let n = 50;
        let mut specs: Vec<TaskSpec> = (0..n)
            .map(|i| TaskSpec::new(format!("t{i}"), "const", Datum::F64(i as f64), vec![]))
            .collect();
        specs.push(TaskSpec::new(
            "total",
            "sum_scalars",
            Datum::Null,
            (0..n).map(|i| Key::new(format!("t{i}"))).collect(),
        ));
        client.submit(specs);
        let expect = (0..n).sum::<usize>() as f64;
        assert_eq!(
            client.future("total").result().unwrap().as_f64(),
            Some(expect)
        );
    }

    #[test]
    fn gather_many_returns_in_order() {
        let cluster = Cluster::new(3);
        let client = cluster.client();
        let specs: Vec<TaskSpec> = (0..12)
            .map(|i| TaskSpec::new(format!("g{i}"), "const", Datum::F64(i as f64), vec![]))
            .collect();
        client.submit(specs);
        let keys: Vec<Key> = (0..12).map(|i| Key::new(format!("g{i}"))).collect();
        let values = client.gather_many(&keys).unwrap();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(v.as_f64(), Some(i as f64));
        }
    }

    #[test]
    fn gather_many_propagates_errors() {
        let cluster = Cluster::new(1);
        cluster
            .registry()
            .register("bad", |_, _| Err("nope".into()));
        let client = cluster.client();
        client.submit(vec![
            TaskSpec::new("ok", "const", Datum::F64(1.0), vec![]),
            TaskSpec::new("oops", "bad", Datum::Null, vec![]),
        ]);
        let err = client
            .gather_many(&[Key::new("ok"), Key::new("oops")])
            .unwrap_err();
        assert_eq!(err.key.as_str(), "oops");
    }

    #[test]
    fn resubmitted_graph_reuses_memory_results() {
        let cluster = Cluster::new(1);
        let client = cluster.client();
        let graph = vec![
            TaskSpec::new("base", "const", Datum::F64(3.0), vec![]),
            TaskSpec::new(
                "dbl",
                "sum_scalars",
                Datum::Null,
                vec!["base".into(), "base".into()],
            ),
        ];
        client.submit(graph.clone());
        assert_eq!(client.future("dbl").result().unwrap().as_f64(), Some(6.0));
        let assigned_before = cluster.stats().assign_tasks();
        // Resubmitting the same graph must not recompute anything.
        client.submit(graph);
        assert_eq!(client.future("dbl").result().unwrap().as_f64(), Some(6.0));
        // One more round trip: its answer comes from a later scheduler step
        // than the resubmission's, so that step's placement pass is over.
        assert!(client.var_try_get("barrier").unwrap().is_none());
        assert_eq!(
            cluster.stats().assign_tasks(),
            assigned_before,
            "no new task executions"
        );
    }

    #[test]
    fn duplicate_external_registration_is_idempotent() {
        let cluster = Cluster::new(1);
        let client = cluster.client();
        client.register_external(vec![Key::new("dup")]);
        client.register_external(vec![Key::new("dup")]);
        client.submit(vec![TaskSpec::new(
            "use",
            "identity",
            Datum::Null,
            vec!["dup".into()],
        )]);
        let feeder = cluster.client();
        feeder.scatter_external(vec![(Key::new("dup"), Datum::F64(5.0))], Some(0));
        assert_eq!(client.future("use").result().unwrap().as_f64(), Some(5.0));
    }

    fn register_slow_sum(cluster: &Cluster) {
        cluster.registry().register("slow_sum", |params, inputs| {
            let ms = params.as_i64().unwrap_or(0) as u64;
            std::thread::sleep(Duration::from_millis(ms));
            let mut total = 0.0;
            for d in inputs {
                total += d.as_f64().ok_or_else(|| "non-scalar input".to_string())?;
            }
            Ok(Datum::F64(total))
        });
    }

    #[test]
    fn mutual_cross_worker_gather_does_not_deadlock() {
        // Two busy workers fetching from each other at the same time: the
        // stores answering where reads land, plus concurrent gather, must
        // never deadlock.
        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 2,
            slots_per_worker: 1,
            ..ClusterConfig::default()
        });
        register_slow_sum(&cluster);
        let client = cluster.client();
        client.scatter(vec![(Key::new("a0"), Datum::F64(1.0))], Some(0));
        client.scatter(vec![(Key::new("a1"), Datum::F64(2.0))], Some(1));
        client.submit(vec![
            TaskSpec::new(
                "t0",
                "slow_sum",
                Datum::I64(40),
                vec!["a0".into(), "a1".into()],
            ),
            TaskSpec::new(
                "t1",
                "slow_sum",
                Datum::I64(40),
                vec!["a1".into(), "a0".into()],
            ),
        ]);
        let r0 = client
            .future("t0")
            .result_timeout(Duration::from_secs(5))
            .unwrap();
        let r1 = client
            .future("t1")
            .result_timeout(Duration::from_secs(5))
            .unwrap();
        assert_eq!(r0.as_f64(), Some(3.0));
        assert_eq!(r1.as_f64(), Some(3.0));
        assert!(cluster.stats().count(crate::stats::MsgClass::PeerFetch) >= 2);
    }

    #[test]
    fn add_replica_updates_placement() {
        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 2,
            slots_per_worker: 1,
            ..ClusterConfig::default()
        });
        let client = cluster.client();
        // Big block on w0, bigger on w1.
        client.scatter(
            vec![(Key::new("a"), Datum::from(linalg::NDArray::zeros(&[128])))],
            Some(0),
        );
        client.scatter(
            vec![(Key::new("b"), Datum::from(linalg::NDArray::zeros(&[256])))],
            Some(1),
        );
        // y0 lands on w1 (data gravity: b is bigger) and must gather `a`,
        // which replicates it onto w1 and reports AddReplica.
        client.submit(vec![TaskSpec::new(
            "y0",
            "list",
            Datum::Null,
            vec!["a".into(), "b".into()],
        )]);
        client.future("y0").result().unwrap();
        let fetches_after_y0 = cluster.stats().count(crate::stats::MsgClass::PeerFetch);
        assert_eq!(fetches_after_y0, 1, "y0 fetched exactly `a`");
        assert!(cluster.stats().count(crate::stats::MsgClass::AddReplica) >= 1);
        // Small block on w1; y1 depends on {a, c}. Thanks to the replica of
        // `a` on w1, gravity now favours w1 and no further fetch happens.
        // (Without replica feedback w0 would win — `a` originally outweighs
        // `c` — and the task would re-fetch `c` across workers.)
        client.scatter(
            vec![(Key::new("c"), Datum::from(linalg::NDArray::zeros(&[4])))],
            Some(1),
        );
        client.submit(vec![TaskSpec::new(
            "y1",
            "list",
            Datum::Null,
            vec!["a".into(), "c".into()],
        )]);
        client.future("y1").result().unwrap();
        assert_eq!(
            cluster.stats().count(crate::stats::MsgClass::PeerFetch),
            fetches_after_y0,
            "replica-aware placement avoided a second fetch"
        );
    }

    #[test]
    fn released_key_can_be_depended_on_again() {
        // Regression: releasing a key used to leave its edges dangling and
        // made later graphs that depend on it fail with "unknown
        // dependency". Now the dep is treated as an implicit external task.
        let cluster = Cluster::new(1);
        let client = cluster.client();
        client.scatter(vec![(Key::new("x"), Datum::F64(7.0))], Some(0));
        client.submit(vec![TaskSpec::new(
            "y",
            "identity",
            Datum::Null,
            vec!["x".into()],
        )]);
        assert_eq!(client.future("y").result().unwrap().as_f64(), Some(7.0));
        client.release(vec![Key::new("x")]);
        // A new graph depending on the released key waits for fresh data
        // instead of erring out.
        client.submit(vec![TaskSpec::new(
            "y2",
            "identity",
            Datum::Null,
            vec!["x".into()],
        )]);
        let pending = client
            .future("y2")
            .result_timeout(Duration::from_millis(60));
        assert!(pending.is_err(), "y2 must wait for the released key");
        client.scatter_external(vec![(Key::new("x"), Datum::F64(8.0))], Some(0));
        assert_eq!(client.future("y2").result().unwrap().as_f64(), Some(8.0));
    }

    #[test]
    fn release_fails_waiting_dependents() {
        let cluster = Cluster::new(1);
        let client = cluster.client();
        client.register_external(vec![Key::new("ext")]);
        client.submit(vec![TaskSpec::new(
            "w",
            "identity",
            Datum::Null,
            vec!["ext".into()],
        )]);
        client.release(vec![Key::new("ext")]);
        let err = client.future("w").result().unwrap_err();
        assert!(err.message.contains("released"), "{}", err.message);
    }

    #[test]
    fn release_unlinks_dependency_edges() {
        // Releasing a mid-graph key and resubmitting it must not leave a
        // stale edge behind (the old bug double-wired the dependent).
        let cluster = Cluster::new(1);
        let client = cluster.client();
        let graph = |tag: f64| {
            vec![
                TaskSpec::new("base", "const", Datum::F64(tag), vec![]),
                TaskSpec::new("mid", "identity", Datum::Null, vec!["base".into()]),
            ]
        };
        client.submit(graph(1.0));
        assert_eq!(client.future("mid").result().unwrap().as_f64(), Some(1.0));
        client.release(vec![Key::new("mid")]);
        // The release fans a `Delete` out to the holder's store, and a
        // `Delete` still in flight would remove the *recomputed* `mid` (an
        // open race, ROADMAP item 6). Wait for it to land: a scheduler round
        // trip (the release was handled, so its `Delete` was answered in the
        // scheduler's thread), then a read of the store's statistics.
        assert!(client.var_try_get("barrier").unwrap().is_none());
        assert_eq!(cluster.worker_memory()[0].0, 1, "only `base` is left");
        client.submit(graph(2.0));
        // `base` is still in memory (1.0) and is reused; `mid` recomputes.
        assert_eq!(client.future("mid").result().unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn executor_slots_overlap_blocking_tasks() {
        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 1,
            slots_per_worker: 4,
            ..ClusterConfig::default()
        });
        register_slow_sum(&cluster);
        assert_eq!(cluster.slots_per_worker(), 4);
        let client = cluster.client();
        let started = std::time::Instant::now();
        client.submit(
            (0..4)
                .map(|i| TaskSpec::new(format!("s{i}"), "slow_sum", Datum::I64(60), vec![]))
                .collect(),
        );
        for i in 0..4 {
            client.future(format!("s{i}")).result().unwrap();
        }
        let elapsed = started.elapsed();
        // Serial execution would take ≥240 ms; four slots overlap the sleeps.
        assert!(
            elapsed < Duration::from_millis(200),
            "slots did not overlap: {elapsed:?}"
        );
        assert!(cluster.stats().exec_busy_ns() > 0);
    }

    #[test]
    fn auto_slot_resolution_has_floor_of_two() {
        let config = ClusterConfig {
            n_workers: 64, // more workers than any test box has cores
            ..ClusterConfig::default()
        };
        let cluster = Cluster::with_config(config);
        assert!(cluster.slots_per_worker() >= 2);
    }

    #[test]
    fn bursts_are_recorded_in_batched_mode() {
        let cluster = Cluster::new(2);
        let client = cluster.client();
        let specs: Vec<TaskSpec> = (0..16)
            .map(|i| TaskSpec::new(format!("b{i}"), "const", Datum::F64(i as f64), vec![]))
            .collect();
        client.submit(specs);
        let keys: Vec<Key> = (0..16).map(|i| Key::new(format!("b{i}"))).collect();
        client.gather_many(&keys).unwrap();
        assert!(cluster.stats().ingest_bursts() >= 1);
        assert!(cluster.stats().ingest_msgs() >= cluster.stats().ingest_bursts());
        assert!(cluster.stats().assign_passes() >= 1);
    }

    #[test]
    fn fused_chain_executes_with_optimizer_enabled() {
        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 2,
            optimize: OptimizeConfig::enabled(),
            ..ClusterConfig::default()
        });
        let client = cluster.client();
        // root -> m1 -> m2 -> out is strictly linear and fuses to one task.
        client.submit(vec![
            TaskSpec::new("root", "const", Datum::F64(4.0), vec![]),
            TaskSpec::new("m1", "identity", Datum::Null, vec!["root".into()]),
            TaskSpec::new("m2", "identity", Datum::Null, vec!["m1".into()]),
            TaskSpec::new(
                "out",
                "sum_scalars",
                Datum::Null,
                vec!["m2".into(), "m2".into()],
            ),
        ]);
        assert_eq!(client.future("out").result().unwrap().as_f64(), Some(8.0));
        assert_eq!(cluster.stats().optimize_tasks_in(), 4);
        assert_eq!(cluster.stats().optimize_tasks_out(), 4, "stages preserved");
        assert_eq!(cluster.stats().fused_chains(), 1);
        // The scheduler saw one spec, ran one task, got one report.
        assert_eq!(
            cluster.stats().count(crate::stats::MsgClass::TaskSubmitted),
            1
        );
        assert_eq!(cluster.stats().count(crate::stats::MsgClass::TaskReport), 1);
    }

    #[test]
    fn fused_chain_error_names_origin_stage() {
        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 1,
            optimize: OptimizeConfig::enabled(),
            ..ClusterConfig::default()
        });
        cluster
            .registry()
            .register("boom", |_, _| Err("kaboom".into()));
        let client = cluster.client();
        client.submit(vec![
            TaskSpec::new("ok", "const", Datum::F64(1.0), vec![]),
            TaskSpec::new("bad", "boom", Datum::Null, vec!["ok".into()]),
            TaskSpec::new("child", "identity", Datum::Null, vec!["bad".into()]),
        ]);
        let err = client.future("child").result().unwrap_err();
        assert_eq!(err.key.as_str(), "bad", "error attribution survives fusion");
        assert!(err.message.contains("kaboom"));
    }

    #[test]
    fn optimizer_protects_externally_registered_keys() {
        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 2,
            optimize: OptimizeConfig::enabled(),
            ..ClusterConfig::default()
        });
        let client = cluster.client();
        client.register_external(vec![Key::new("blk")]);
        // blk -> step -> out would fuse; blk is external (no in-graph spec)
        // so it must stay a dependency of the fused task.
        client.submit(vec![
            TaskSpec::new("step", "identity", Datum::Null, vec!["blk".into()]),
            TaskSpec::new("out", "identity", Datum::Null, vec!["step".into()]),
        ]);
        let bridge = cluster.client();
        bridge.scatter_external(vec![(Key::new("blk"), Datum::F64(6.0))], Some(0));
        assert_eq!(client.future("out").result().unwrap().as_f64(), Some(6.0));
        assert_eq!(client.external_keys(), vec![Key::new("blk")]);
    }

    #[test]
    fn release_prunes_external_keys_and_unreleased_ones_stay_protected() {
        let cluster = Cluster::new(1);
        let client = cluster.client();
        client.register_external(vec![Key::new("pinned")]);
        for round in 0..40 {
            let keys: Vec<Key> = (0..8)
                .map(|c| Key::new(format!("ext-{round}-{c}")))
                .collect();
            client.register_external(keys.clone());
            let blocks = keys.iter().map(|k| (k.clone(), Datum::F64(1.0)));
            client.scatter_external(blocks.collect(), None);
            client.release(keys);
        }
        // A long-lived client's protected set holds live registrations only.
        assert_eq!(client.external_keys(), vec![Key::new("pinned")]);
        // Dead branches keyed by a live and by a released registration: the
        // optimizer culls only the released one.
        let dead = |key: &str| TaskSpec::new(key, "identity", Datum::Null, vec!["src".into()]);
        let specs = vec![
            TaskSpec::new("src", "const", Datum::F64(1.0), vec![]),
            dead("want"),
            dead("pinned"),
            dead("ext-0-0"),
        ];
        let (kept, report) = crate::optimize::optimize(
            specs,
            &[Key::new("want")],
            &client.external_keys.borrow(),
            &OptimizeConfig::enabled(),
        );
        assert_eq!(report.culled, 1);
        assert!(kept.iter().any(|s| s.key.as_str() == "pinned"));
        assert!(!kept.iter().any(|s| s.key.as_str() == "ext-0-0"));
    }

    #[test]
    fn lost_spill_file_surfaces_as_an_unavailable_dependency() {
        let dir = std::env::temp_dir().join(format!("dtask-lost-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 1,
            store: StoreConfig {
                mem_budget: Some(0),
                spill_dir: Some(dir.clone()),
                ..StoreConfig::default()
            },
            ..ClusterConfig::default()
        });
        let client = cluster.client();
        let block = |fill| Datum::from(linalg::NDArray::full(&[16], fill));
        client.scatter(vec![(Key::new("a"), block(1.0))], None);
        client.scatter(vec![(Key::new("b"), block(2.0))], None); // spills `a`
        assert_eq!(cluster.stats().store_spills(), 1);
        for file in std::fs::read_dir(&dir).unwrap() {
            std::fs::remove_file(file.unwrap().path()).unwrap();
        }
        client.submit(vec![TaskSpec::new(
            "use-a",
            "identity",
            Datum::Null,
            vec!["a".into()],
        )]);
        // The slot survives: an attributed error, and the worker still runs.
        let err = client.future("use-a").result().unwrap_err();
        assert!(
            err.message.contains("dependency a unavailable"),
            "{}",
            err.message
        );
        client.submit(vec![TaskSpec::new(
            "use-b",
            "identity",
            Datum::Null,
            vec!["b".into()],
        )]);
        let b = client.future("use-b").result().unwrap();
        assert_eq!(b.as_array().unwrap().get(&[0]), 2.0);
        drop(client);
        drop(cluster);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn submit_with_outputs_culls_dead_branches() {
        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 1,
            optimize: OptimizeConfig::enabled(),
            ..ClusterConfig::default()
        });
        let client = cluster.client();
        client.submit_with_outputs(
            vec![
                TaskSpec::new("src", "const", Datum::F64(1.0), vec![]),
                TaskSpec::new("want", "identity", Datum::Null, vec!["src".into()]),
                TaskSpec::new("dead", "identity", Datum::Null, vec!["src".into()]),
            ],
            &[Key::new("want")],
        );
        assert_eq!(client.future("want").result().unwrap().as_f64(), Some(1.0));
        assert_eq!(cluster.stats().optimize_culled(), 1);
        // The culled task never reached the scheduler.
        assert!(client
            .future("dead")
            .result_timeout(Duration::from_millis(40))
            .is_err());
    }

    // ---- telemetry plane ----------------------------------------------------

    /// Config for telemetry tests that do not exercise the HTTP exporter.
    fn telemetry_quiet() -> crate::telemetry::TelemetryConfig {
        crate::telemetry::TelemetryConfig {
            serve_http: false,
            sample_every: Duration::from_millis(5),
            ..crate::telemetry::TelemetryConfig::enabled()
        }
    }

    #[test]
    fn telemetry_flight_records_live_run() {
        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 2,
            slots_per_worker: 1,
            telemetry: telemetry_quiet(),
            ..ClusterConfig::default()
        });
        register_slow_sum(&cluster);
        let hub = Arc::clone(cluster.telemetry().expect("telemetry enabled"));
        let client = cluster.client();
        // A sustained workload: enough 5 ms tasks to span several sampling
        // intervals, gathered round by round so task completions spread out.
        for round in 0..6 {
            client.submit(
                (0..4)
                    .map(|i| {
                        TaskSpec::new(format!("r{round}-{i}"), "slow_sum", Datum::I64(5), vec![])
                    })
                    .collect(),
            );
            for i in 0..4 {
                client.future(format!("r{round}-{i}")).result().unwrap();
            }
        }
        cluster.shutdown();
        let flight = hub.flight();
        assert!(
            flight.len() >= 3,
            "flight recorder captured {} samples, want >= 3",
            flight.len()
        );
        assert!(
            flight.iter().any(|s| s.tasks_per_s > 0.0),
            "no sample saw a non-zero task rate"
        );
        assert!(
            flight.iter().any(|s| s.workers_alive == 2),
            "no sample saw both workers alive"
        );
        // Timestamps are monotone: the ring preserves capture order.
        assert!(flight.windows(2).all(|w| w[0].t_ms <= w[1].t_ms));
    }

    #[test]
    fn telemetry_live_http_scrape_during_run() {
        use std::io::{Read as _, Write as _};

        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 2,
            slots_per_worker: 1,
            telemetry: crate::telemetry::TelemetryConfig {
                sample_every: Duration::from_millis(5),
                ..crate::telemetry::TelemetryConfig::enabled()
            },
            ..ClusterConfig::default()
        });
        register_slow_sum(&cluster);
        let addr = cluster.telemetry_addr().expect("exporter bound");
        let scrape = |path: &str| -> String {
            let mut conn = std::net::TcpStream::connect(addr).expect("connect exporter");
            conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut body = String::new();
            conn.read_to_string(&mut body).unwrap();
            body
        };
        let client = cluster.client();
        // Scrape while tasks are genuinely in flight.
        client.submit(
            (0..8)
                .map(|i| TaskSpec::new(format!("t{i}"), "slow_sum", Datum::I64(20), vec![]))
                .collect(),
        );
        let metrics = scrape("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("dtask_messages_total"));
        assert!(metrics.contains("# HELP dtask_wire_bytes_total"));
        for i in 0..8 {
            client.future(format!("t{i}")).result().unwrap();
        }
        // Let the sampler observe the completed work, then read the flight:
        // wait for one sample taken after the last result arrived.
        let hub = cluster.telemetry().expect("telemetry on");
        let taken = || hub.flight().len() as u64 + hub.flight_evicted();
        let done = taken();
        wait_until("sample after the work", || taken() > done);
        let flight = scrape("/flight.json");
        assert!(flight.starts_with("HTTP/1.1 200 OK"), "{flight}");
        let json_body = &flight[flight.find("\r\n\r\n").unwrap() + 4..];
        let doc = crate::json::Json::parse(json_body).expect("valid flight JSON");
        assert!(
            doc.get("samples").is_some(),
            "flight JSON has samples array"
        );
        assert!(scrape("/health").starts_with("HTTP/1.1 200 OK"));
        assert!(scrape("/nope").starts_with("HTTP/1.1 404"));
        cluster.shutdown();
    }

    #[test]
    fn telemetry_flags_injected_straggler_deterministically() {
        // 8 fast executions build the slow_sum baseline, then one 100 ms
        // outlier runs. The 20 ms absolute floor makes this deterministic:
        // no fast task can ever be flagged (even under wild scheduler
        // jitter), and the outlier always clears both floor and k×median.
        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 1,
            slots_per_worker: 1,
            trace: TraceConfig::enabled(),
            telemetry: crate::telemetry::TelemetryConfig {
                straggler_min_samples: 4,
                straggler_min_ns: 20_000_000,
                ..telemetry_quiet()
            },
            ..ClusterConfig::default()
        });
        register_slow_sum(&cluster);
        let hub = Arc::clone(cluster.telemetry().unwrap());
        let client = cluster.client();
        client.submit(
            (0..8)
                .map(|i| TaskSpec::new(format!("fast{i}"), "slow_sum", Datum::I64(1), vec![]))
                .collect(),
        );
        for i in 0..8 {
            client.future(format!("fast{i}")).result().unwrap();
        }
        client.submit(vec![TaskSpec::new(
            "outlier",
            "slow_sum",
            Datum::I64(100),
            vec![],
        )]);
        client.future("outlier").result().unwrap();
        assert_eq!(cluster.stats().stragglers_flagged(), 1);
        let alerts = hub.alerts();
        assert_eq!(alerts.len(), 1, "exactly one alert: {alerts:?}");
        assert_eq!(alerts[0].kind, crate::telemetry::AlertKind::Straggler);
        assert_eq!(alerts[0].key.as_deref(), Some("outlier"));
        assert!(alerts[0].value >= 100.0, "flagged ms is the outlier's");
        let log = cluster.tracer().collect();
        let stragglers: Vec<_> = log.events_of(crate::trace::EventKind::Straggler).collect();
        assert_eq!(stragglers.len(), 1, "one Straggler trace instant");
        let (_, ev) = stragglers[0];
        assert_eq!(ev.key.as_ref().map(|k| k.as_str()), Some("outlier"));
        assert!(ev.arg >= 100_000_000, "instant arg carries the duration");
        cluster.shutdown();
    }

    #[test]
    fn telemetry_off_changes_no_messages_or_wire_bytes() {
        // The same deterministic workload over the real wire format, with
        // telemetry off (seed behavior) and on: every message-class count
        // and every per-lane wire byte total must be identical — the
        // telemetry plane is strictly out-of-band.
        let run = |telemetry: crate::telemetry::TelemetryConfig| {
            let cluster = Cluster::with_config(ClusterConfig {
                n_workers: 1,
                slots_per_worker: 1,
                transport: crate::transport::TransportConfig::Framed,
                telemetry,
                ..ClusterConfig::default()
            });
            let client = cluster.client();
            client.scatter(vec![(Key::new("x"), Datum::F64(4.0))], Some(0));
            client.submit(vec![
                TaskSpec::new("a", "const", Datum::F64(1.0), vec![]),
                TaskSpec::new(
                    "b",
                    "sum_scalars",
                    Datum::Null,
                    vec!["a".into(), "x".into()],
                ),
                TaskSpec::new("c", "identity", Datum::Null, vec!["b".into()]),
            ]);
            assert_eq!(client.future("c").result().unwrap().as_f64(), Some(5.0));
            let counts: Vec<u64> = crate::stats::MsgClass::ALL
                .iter()
                .map(|&m| cluster.stats().count(m))
                .collect();
            let bytes: Vec<u64> = crate::stats::WireLane::ALL
                .iter()
                .map(|&l| cluster.stats().wire_bytes(l))
                .collect();
            cluster.shutdown();
            (counts, bytes)
        };
        let off = run(crate::telemetry::TelemetryConfig::default());
        let on = run(telemetry_quiet());
        assert_eq!(off, on, "telemetry must not perturb the message plane");
    }

    #[test]
    fn worker_memory_reports_stored_data() {
        let cluster = Cluster::new(2);
        let client = cluster.client();
        client.scatter(
            vec![(Key::new("m0"), Datum::from(linalg::NDArray::zeros(&[4])))],
            Some(0),
        );
        client.scatter(
            vec![(Key::new("m1"), Datum::from(linalg::NDArray::zeros(&[8])))],
            Some(1),
        );
        let mem = cluster.worker_memory();
        assert_eq!(mem.len(), 2);
        assert_eq!(mem[0], (1, 32));
        assert_eq!(mem[1], (1, 64));
    }
}
