//! Worker: executor slots + always-responsive data-server thread.
//!
//! Splitting the worker into compute and comm halves mirrors the
//! comm/executor split of a Dask worker and makes peer dependency fetches
//! deadlock-free: the data server never blocks on task execution, so two
//! workers can fetch from each other while both executors are busy.
//!
//! The execution pipeline is built around three ideas:
//!
//! 1. **Concurrent dependency gather** — all missing dependencies of a task
//!    are requested from their first holders *at once* and then collected
//!    ([`Endpoint::fetch`], the one read path proxy resolution and client
//!    results share), so the gather latency is the slowest single fetch
//!    instead of the sum of all fetches.
//! 2. **Executor slots** — a worker runs a pool of executor threads draining
//!    one shared inbox, so a task blocked in a gather (or in a blocking op)
//!    does not stall the tasks queued behind it.
//! 3. **Replica feedback** — blocks cached during a gather are reported to
//!    the scheduler ([`SchedMsg::AddReplica`]) so later placement decisions
//!    see the new copies and stop re-fetching.

use crate::datum::{Datum, DatumRef};
use crate::key::Key;
use crate::msg::{Assignment, DataMsg, ErrorCause, ExecMsg, SchedMsg, TaskError, WorkerId};
use crate::spec::{FusedInput, OpRegistry, TaskSpec, Value};
use crate::stats::{Hist, Metric, MsgClass, SchedulerStats};
use crate::store::{ObjectStore, StoreConfig};
use crate::telemetry::TelemetryHub;
use crate::trace::{EventKind, TraceActor, TraceHandle, TraceRecorder};
use crate::transport::{Addr, DataReply, Endpoint, Failure, Router, WorkerInbox};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared object store of one worker (data server + every executor slot).
pub(crate) type WorkerStore = Arc<ObjectStore>;

/// A periodic thread (a heartbeat, the telemetry sampler) that blocks on its
/// stop channel between ticks, so stopping wakes it at once instead of
/// waiting out a sleep.
pub(crate) struct Pinger {
    stop: Sender<()>,
    thread: JoinHandle<()>,
}

impl Pinger {
    /// Spawn a heartbeat thread: `ping` once at start, then once per
    /// `period`.
    pub(crate) fn spawn(
        name: String,
        period: Duration,
        ping: impl Fn() + Send + 'static,
    ) -> std::io::Result<Pinger> {
        Pinger::spawn_with(name, move |stop| {
            ping();
            while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(period) {
                ping();
            }
        })
    }

    /// Spawn `body` with the stop channel's receiver. Nothing is ever sent
    /// on it: a wait on it ends early only when [`Pinger::stop`] drops the
    /// sender.
    pub(crate) fn spawn_with(
        name: String,
        body: impl FnOnce(Receiver<()>) + Send + 'static,
    ) -> std::io::Result<Pinger> {
        let (stop, stop_rx) = unbounded::<()>();
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || body(stop_rx))?;
        Ok(Pinger { stop, thread })
    }

    /// Wake the thread and join it: once this returns no further tick runs.
    pub(crate) fn stop(self) {
        drop(self.stop);
        let _ = self.thread.join();
    }
}

/// Everything one worker needs to come up, wherever it runs: an in-process
/// [`crate::Cluster`] builds one per worker, a `dtask-node` process builds
/// its own from the hub's `Welcome`.
pub(crate) struct WorkerSpec<'a> {
    pub id: WorkerId,
    /// Executor slots (threads) draining the shared inbox.
    pub slots: usize,
    pub store: StoreConfig,
    pub inbox: WorkerInbox,
    pub router: &'a Arc<Router>,
    pub registry: &'a OpRegistry,
    pub stats: &'a Arc<SchedulerStats>,
    /// See [`Executor::steal_poll`].
    pub steal_poll: Option<Duration>,
    /// Ping the scheduler this often (`None`: never).
    pub heartbeat: Option<Duration>,
    pub tracer: &'a TraceRecorder,
    pub telemetry: Option<&'a Arc<TelemetryHub>>,
}

/// One running worker: the data-server thread, the executor-slot threads and
/// the heartbeat pinger, with the two teardown steps every owner composes.
/// Orderly shutdown and node exit retire slots, then data (nothing may write
/// into a data server that is gone); a fault-injection kill retires data
/// first (see [`crate::Cluster::kill_worker`]). Both steps stop the pinger
/// before anything else, and dropping the runtime runs the orderly order.
pub(crate) struct WorkerRuntime {
    id: WorkerId,
    /// Routes the `Shutdown` messages of the teardown steps.
    control: Endpoint,
    pinger: Option<Pinger>,
    slots: Vec<JoinHandle<()>>,
    data: Option<JoinHandle<()>>,
}

impl WorkerRuntime {
    /// Spawn the worker's threads. On a spawn failure the threads already
    /// running are retired before the error is returned.
    pub(crate) fn spawn(spec: WorkerSpec<'_>) -> std::io::Result<WorkerRuntime> {
        let WorkerSpec { id, router, .. } = spec;
        let store: WorkerStore = Arc::new(ObjectStore::new(
            spec.store,
            id,
            Arc::clone(spec.stats),
            spec.tracer.register(TraceActor::Store { worker: id }),
        ));
        // From here on an early `?` drops `rt`, which retires what it holds.
        let mut rt = WorkerRuntime {
            id,
            control: router.endpoint(Addr::Control),
            pinger: None,
            slots: Vec::with_capacity(spec.slots),
            data: None,
        };
        let data_store = Arc::clone(&store);
        let data_endpoint = router.endpoint(Addr::WorkerData(id));
        let data_rx = spec.inbox.data_rx;
        rt.data = Some(
            std::thread::Builder::new()
                .name(format!("dtask-worker-{id}-data"))
                .spawn(move || run_data_server(data_store, data_rx, data_endpoint))?,
        );
        for slot in 0..spec.slots {
            let exec = Executor {
                id,
                store: Arc::clone(&store),
                rx: spec.inbox.exec_rx.clone(),
                exec_tx: spec.inbox.exec_tx.clone(),
                endpoint: router.endpoint(Addr::WorkerExec(id)),
                registry: spec.registry.clone(),
                stats: Arc::clone(spec.stats),
                steal_poll: spec.steal_poll,
                steal_rx: spec.inbox.steal_rx.clone(),
                tracer: spec
                    .tracer
                    .register(TraceActor::WorkerSlot { worker: id, slot }),
                telemetry: spec.telemetry.cloned(),
            };
            rt.slots.push(
                std::thread::Builder::new()
                    .name(format!("dtask-worker-{id}-exec-{slot}"))
                    .spawn(move || exec.run())?,
            );
        }
        if let Some(period) = spec.heartbeat {
            // The pinger's immediate first ping starts liveness tracking at
            // startup, so a worker killed before its first interval is still
            // detected.
            let endpoint = router.endpoint(Addr::WorkerExec(id));
            rt.pinger = Some(Pinger::spawn(
                format!("dtask-worker-{id}-ping"),
                period,
                move || endpoint.send_sched(SchedMsg::WorkerHeartbeat { worker: id }),
            )?);
        }
        Ok(rt)
    }

    fn stop_pinger(&mut self) {
        if let Some(pinger) = self.pinger.take() {
            pinger.stop();
        }
    }

    /// Teardown step: retire the executor slots. One `Shutdown` per slot —
    /// each slot thread consumes exactly one and exits.
    pub(crate) fn stop_slots(&mut self) {
        self.stop_pinger();
        for _ in 0..self.slots.len() {
            self.control.send_exec(self.id, ExecMsg::Shutdown);
        }
        for thread in self.slots.drain(..) {
            let _ = thread.join();
        }
    }

    /// Teardown step: retire the data server. Once its thread is joined
    /// nothing answers a request to this worker, so every reply slot aimed
    /// at it dies — a request still queued behind the `Shutdown` included.
    pub(crate) fn stop_data(&mut self) {
        self.stop_pinger();
        if let Some(thread) = self.data.take() {
            self.control.send_data(self.id, DataMsg::Shutdown);
            let _ = thread.join();
            self.control.peer_gone(self.id);
        }
    }
}

impl Drop for WorkerRuntime {
    fn drop(&mut self) {
        self.stop_slots();
        self.stop_data();
    }
}

/// The data-server half: serves `Put`/`Get`/`Fetch`/`Delete` until
/// shutdown. Replies are routed back through the transport via the
/// [`ReplyTo`] token carried by each request, so requesters never hand us a
/// live channel.
///
/// [`ReplyTo`]: crate::transport::ReplyTo
pub(crate) fn run_data_server(store: WorkerStore, rx: Receiver<DataMsg>, endpoint: Endpoint) {
    while let Ok(msg) = rx.recv() {
        // A proxy-handle `Fetch` is the same store lookup as a `Get`
        // (spilled entries restore transparently), traced on the holder as
        // data-plane traffic.
        let proxied = matches!(msg, DataMsg::Fetch { .. });
        match msg {
            DataMsg::Put { key, value, ack } => {
                store.insert(key, value);
                endpoint.reply(ack, DataReply::PutAck);
            }
            DataMsg::Get { key, reply } | DataMsg::Fetch { key, reply } => {
                let value = store.get(&key);
                if let (true, Some(v)) = (proxied, &value) {
                    store.note_fetch_served(&key, v.nbytes());
                }
                endpoint.reply(
                    reply,
                    DataReply::Value(value.ok_or_else(|| format!("key {key} not on this worker"))),
                );
            }
            DataMsg::Delete { keys } => {
                store.remove(&keys);
            }
            DataMsg::Sweep { session } => {
                store.remove_session(session);
            }
            DataMsg::Stats { reply } => {
                let (keys, bytes) = store.report();
                endpoint.reply(
                    reply,
                    DataReply::Stats {
                        keys: keys as u64,
                        bytes,
                    },
                );
            }
            DataMsg::Shutdown => break,
        }
    }
}

/// One executor slot: runs tasks, fetching dependencies from peers as needed.
/// A worker spawns several of these over one cloned inbox [`Receiver`].
pub(crate) struct Executor {
    /// This worker's id.
    id: WorkerId,
    /// Local store (shared with the data server and sibling slots).
    store: WorkerStore,
    /// Inbox of execution requests (shared by all slots of this worker).
    rx: Receiver<ExecMsg>,
    /// Loopback sender onto the shared inbox: a slot receiving an
    /// `ExecuteBatch` re-enqueues the tail here so sibling slots run it
    /// concurrently instead of the whole batch serializing on one slot.
    /// Deliberately bypasses the transport — batch fan-out is intra-worker
    /// requeueing, not traffic between actors, so it must not count as
    /// bytes-on-the-wire.
    exec_tx: Sender<ExecMsg>,
    /// Outbound route to the scheduler (completion/replica reports) and to
    /// peer data servers (dependency fetches).
    endpoint: Endpoint,
    /// Shared op registry.
    registry: OpRegistry,
    /// Shared counters.
    stats: Arc<SchedulerStats>,
    /// Work-stealing idle poll: with `Some(poll)`, a slot that waits `poll`
    /// without receiving work sends a [`SchedMsg::StealRequest`] and keeps
    /// waiting. `None` (the default) keeps the loop on a plain blocking
    /// `recv` — zero overhead, identical to the pre-stealing runtime.
    steal_poll: Option<Duration>,
    /// Urgent lane carrying [`ExecMsg::Steal`] probes. Shared (cloned)
    /// across this worker's slots like the main inbox, but drained with
    /// priority between tasks: a probe queued behind a deep backlog on the
    /// FIFO inbox would only ever find an empty queue.
    steal_rx: Receiver<ExecMsg>,
    /// Lifecycle event recorder for this slot (empty when tracing is off).
    tracer: TraceHandle,
    /// Live-telemetry hub: exec durations feed the online straggler
    /// detector. `None` when telemetry is off — the exec path then pays a
    /// single branch and never reads the clock for it.
    telemetry: Option<Arc<TelemetryHub>>,
}

impl Executor {
    /// Run until `Shutdown`.
    fn run(self) {
        'outer: loop {
            // Answer pending steal probes before picking up the next task:
            // this is what lets a thief drain a victim that is busy for the
            // length of its whole backlog.
            self.drain_steals();
            let idle_from = Instant::now();
            let msg = match self.steal_poll {
                None => match self.rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                },
                Some(poll) => loop {
                    // Idle for a full poll interval: ask the scheduler to
                    // route a loaded peer's queued work here, keep waiting.
                    match self.rx.recv_timeout(poll) {
                        Ok(msg) => break msg,
                        Err(RecvTimeoutError::Timeout) => {
                            self.drain_steals();
                            self.endpoint
                                .send_sched(SchedMsg::StealRequest { worker: self.id });
                        }
                        Err(RecvTimeoutError::Disconnected) => break 'outer,
                    }
                },
            };
            self.stats
                .add(Metric::ExecIdleNs, idle_from.elapsed().as_nanos() as u64);
            match msg {
                ExecMsg::Execute(assignment) => self.run_one(assignment),
                ExecMsg::ExecuteBatch { tasks } => {
                    // Run the head inline; fan the tail back onto the shared
                    // inbox so idle sibling slots pick it up immediately.
                    let mut it = tasks.into_iter();
                    if let Some(head) = it.next() {
                        for assignment in it {
                            let _ = self.exec_tx.send(ExecMsg::Execute(assignment));
                        }
                        self.run_one(head);
                    }
                }
                ExecMsg::Steal { thief, max } => self.forward_stolen(thief, max),
                ExecMsg::Shutdown => break,
            }
        }
    }

    /// Answer every steal probe waiting on the urgent lane. The first one
    /// takes whatever the inbox holds; later probes naturally report empty
    /// `Stolen` replies, which the scheduler books as misses.
    fn drain_steals(&self) {
        while let Ok(msg) = self.steal_rx.try_recv() {
            if let ExecMsg::Steal { thief, max } = msg {
                self.forward_stolen(thief, max);
            }
        }
    }

    /// Victim half of the steal protocol: drain queued-but-unstarted
    /// assignments from this worker's shared inbox, hand up to `max` of
    /// them to `thief`, and re-enqueue everything else. The forwarded keys
    /// are reported to the scheduler first ([`SchedMsg::Stolen`]) so
    /// `assigned_to` re-points before the thief can report completion.
    fn forward_stolen(&self, thief: WorkerId, max: usize) {
        let mut stolen: Vec<Assignment> = Vec::new();
        let mut keep: Vec<ExecMsg> = Vec::new();
        while stolen.len() < max {
            match self.rx.try_recv() {
                Ok(ExecMsg::Execute(a)) => stolen.push(a),
                Ok(ExecMsg::ExecuteBatch { mut tasks }) => {
                    let need = max - stolen.len();
                    if tasks.len() > need {
                        let rest = tasks.split_off(need);
                        keep.push(ExecMsg::ExecuteBatch { tasks: rest });
                    }
                    stolen.extend(tasks);
                }
                Ok(ExecMsg::Steal { thief: other, .. }) => {
                    // A second concurrent steal aimed at this worker: what
                    // was available is already going to the first thief.
                    // Answer the miss so the scheduler's books balance.
                    self.endpoint.send_sched(SchedMsg::Stolen {
                        victim: self.id,
                        thief: other,
                        keys: Vec::new(),
                    });
                }
                Ok(msg @ ExecMsg::Shutdown) => {
                    // Keep the slot-count invariant: the shutdown must still
                    // reach a sibling (or come back to us).
                    keep.push(msg);
                    break;
                }
                Err(_) => break,
            }
        }
        for msg in keep {
            let _ = self.exec_tx.send(msg);
        }
        self.endpoint.send_sched(SchedMsg::Stolen {
            victim: self.id,
            thief,
            keys: stolen.iter().map(|a| a.spec.key.clone()).collect(),
        });
        match stolen.len() {
            0 => {}
            1 => {
                let assignment = stolen.pop().expect("len checked");
                self.endpoint.send_exec(thief, ExecMsg::Execute(assignment));
            }
            _ => {
                self.endpoint
                    .send_exec(thief, ExecMsg::ExecuteBatch { tasks: stolen });
            }
        }
    }

    /// Execute one task and report the outcome to the scheduler.
    fn run_one(&self, assignment: Assignment) {
        // Queue delay: scheduler placement → this slot picking the task up.
        self.stats
            .hist(Hist::QueueDelay)
            .record(assignment.assigned_at.elapsed().as_nanos() as u64);
        let Assignment {
            spec,
            dep_locations,
            ..
        } = assignment;
        let busy_from = Instant::now();
        let key = spec.key.clone();
        match self.execute(&spec, &dep_locations) {
            Ok(result) => {
                let nbytes = result.nbytes();
                self.store.insert(key.clone(), result);
                self.endpoint.send_sched(SchedMsg::TaskFinished {
                    worker: self.id,
                    key,
                    nbytes,
                });
            }
            Err(failure) => {
                // Peer loss outranks the other attributions — it tells the
                // scheduler the failure is environmental (retryable), not a
                // property of the task. Otherwise an origin differing from
                // the spec key means an interior fused stage failed.
                let cause = if failure.hung_peer.is_some() {
                    ErrorCause::PeerLost
                } else if failure.origin == key {
                    ErrorCause::Direct
                } else {
                    ErrorCause::FusedStage {
                        stored_key: key.clone(),
                    }
                };
                self.endpoint.send_sched(SchedMsg::TaskErred {
                    worker: self.id,
                    stored_key: key,
                    error: TaskError::new(failure.origin, failure.message).with_cause(cause),
                    failed_peer: failure.hung_peer,
                });
            }
        }
        self.stats
            .record_exec_busy(busy_from.elapsed().as_nanos() as u64);
    }

    /// Resolve every dependency of `spec`: local blocks straight from the
    /// store, the rest in one concurrent fetch from their holders, each
    /// fetched block cached here as a replica (like Dask's dependency
    /// gather). On success the inputs are ordered like `spec.deps`.
    fn gather_deps(
        &self,
        spec: &TaskSpec,
        dep_locations: &[(Key, Vec<WorkerId>)],
        replicas: &mut Vec<(Key, u64)>,
    ) -> Result<Vec<Datum>, Failure> {
        // Every local dependency resolves under one store lock.
        let inputs = self.store.get_many(&spec.deps);
        let wants: Vec<(Key, Vec<WorkerId>)> = spec
            .deps
            .iter()
            .zip(&inputs)
            .filter(|(_, input)| input.is_none())
            .map(|(key, _)| {
                let holders = dep_locations
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, locs)| locs.iter().copied().filter(|&w| w != self.id).collect())
                    .unwrap_or_default();
                (key.clone(), holders)
            })
            .collect();
        if wants.is_empty() {
            return Ok(inputs.into_iter().flatten().collect());
        }
        let gather_from = Instant::now();
        let batch_t0 = self.tracer.start();
        let fetched = self.endpoint.fetch(
            &wants,
            |key, reply| DataMsg::Get { key, reply },
            &self.tracer,
            |key| self.store.get(key),
            |key, peer, t0, value| {
                self.tracer
                    .span(EventKind::GatherDep, t0, Some(key), peer as u64);
                self.stats.record(MsgClass::PeerFetch, value.nbytes());
                self.store.insert(key.clone(), value.clone());
                replicas.push((key.clone(), value.nbytes()));
            },
        )?;
        let n_remote = wants.len() as u64;
        self.tracer
            .span(EventKind::GatherBatch, batch_t0, Some(&spec.key), n_remote);
        self.stats
            .record_gather(n_remote, gather_from.elapsed().as_nanos() as u64);
        let mut fetched = fetched.into_iter();
        Ok(inputs
            .into_iter()
            .map(|input| {
                input
                    .or_else(|| fetched.next())
                    .expect("one fetched value per missing dependency")
            })
            .collect())
    }

    /// Run one registered op under a panic guard.
    fn run_op(&self, op_name: &str, params: &Datum, inputs: &[Datum]) -> Result<Datum, String> {
        let op = self
            .registry
            .get(op_name)
            .ok_or_else(|| format!("unknown op '{op_name}'"))?;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(params, inputs)))
            .unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<panic>".into());
                Err(format!("op '{op_name}' panicked: {msg}"))
            })
    }

    /// Run a task. Errors carry the key of the *originating* computation —
    /// for a fused chain that is the failing interior stage, not the spec
    /// key, so error attribution matches the unfused graph exactly.
    fn execute(
        &self,
        spec: &TaskSpec,
        dep_locations: &[(Key, Vec<WorkerId>)],
    ) -> Result<Datum, Failure> {
        let mut replicas = Vec::new();
        let gathered = self.gather_deps(spec, dep_locations, &mut replicas);
        // Report new replicas even if some other dependency failed: the
        // cached blocks exist either way and placement should know.
        if !replicas.is_empty() {
            self.endpoint.send_sched(SchedMsg::AddReplica {
                worker: self.id,
                entries: replicas,
            });
        }
        // A failed read fails the task as a whole, never one fused stage.
        let read_failed = |what: &str, e: Failure| Failure {
            origin: spec.key.clone(),
            message: format!("{what} {}", e.message),
            hung_peer: e.hung_peer,
        };
        let inputs = gathered.map_err(|e| read_failed("dependency", e))?;
        // Proxy-handle parameters resolve out-of-band *before* the exec span
        // starts: the fetches are data movement, not computation. One
        // resolved datum per op — `[params]` for a plain op, one per stage
        // for a fused chain.
        let resolve = |params| {
            resolve_refs(&self.endpoint, params, &self.stats, &self.tracer, |key| {
                self.store.get(key)
            })
        };
        let stage_params: Vec<Datum> = match &spec.value {
            Value::Op { params, .. } => vec![resolve(params)],
            Value::Fused { stages } => stages.iter().map(|stage| resolve(&stage.params)).collect(),
        }
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| read_failed("proxy", e))?;
        // The exec span covers op computation only — the gather above records
        // its own spans, keeping the lifecycle phases distinct in the trace.
        // The straggler detector times the same region with its own clock
        // read: telemetry and tracing toggle independently.
        let exec_t0 = self.tracer.start();
        let straggle_t0 = self.telemetry.as_ref().map(|_| Instant::now());
        let fail = |origin: &Key, message: String| Failure {
            origin: origin.clone(),
            message,
            hung_peer: None,
        };
        let result = match &spec.value {
            Value::Op { op, .. } => self
                .run_op(op, &stage_params[0], &inputs)
                .map_err(|m| fail(&spec.key, m)),
            Value::Fused { stages } => {
                // Evaluate the chain inline; intermediate results live only
                // on this slot's stack — one store insert, one TaskFinished.
                let mut results: Vec<Datum> = Vec::with_capacity(stages.len());
                for (s_idx, stage) in stages.iter().enumerate() {
                    let stage_inputs: Vec<Datum> = stage
                        .inputs
                        .iter()
                        .map(|input| match *input {
                            FusedInput::Dep(i) => inputs[i].clone(),
                            FusedInput::Stage(s) => results[s].clone(),
                        })
                        .collect();
                    let r = self
                        .run_op(&stage.op, &stage_params[s_idx], &stage_inputs)
                        .map_err(|m| fail(&stage.key, m))?;
                    results.push(r);
                }
                results
                    .pop()
                    .ok_or_else(|| fail(&spec.key, "fused spec with zero stages".to_string()))
            }
        };
        self.tracer
            .span(EventKind::Exec, exec_t0, Some(&spec.key), self.id as u64);
        if let (Some(hub), Some(t0)) = (&self.telemetry, straggle_t0) {
            let dur_ns = t0.elapsed().as_nanos() as u64;
            let op_kind = match &spec.value {
                Value::Op { op, .. } => op.as_str(),
                Value::Fused { .. } => "fused",
            };
            if hub.observe_exec(op_kind, &spec.key, self.id, dur_ns) {
                self.tracer
                    .instant(EventKind::Straggler, Some(&spec.key), dur_ns);
            }
        }
        result
    }
}

/// Resolve every [`DatumRef`] handle inside `value` (lists recurse) to its
/// payload: `local` first (zero-copy on the holder), then one concurrent
/// [`DataMsg::Fetch`] to the holders of the rest. Executors and clients
/// resolve alike, and neither caches a payload it fetched. A holder that
/// hangs up mid-fetch is named in the failure, like a hung gather peer.
pub(crate) fn resolve_refs(
    endpoint: &Endpoint,
    value: &Datum,
    stats: &SchedulerStats,
    tracer: &TraceHandle,
    local: impl Fn(&Key) -> Option<Datum>,
) -> Result<Datum, Failure> {
    if !value.contains_ref() {
        return Ok(value.clone());
    }
    let mut handles: Vec<DatumRef> = Vec::new();
    collect_refs(value, &mut handles);
    let mut resolved: HashMap<Key, Datum> = HashMap::new();
    let mut wants = Vec::new();
    for handle in handles {
        match local(&handle.key) {
            Some(payload) => {
                resolved.insert(handle.key, payload);
            }
            None => wants.push((handle.key, vec![handle.holder])),
        }
    }
    let fetched = endpoint.fetch(
        &wants,
        |key, reply| DataMsg::Fetch { key, reply },
        tracer,
        local,
        |key, _, t0, payload| {
            stats.inc(Metric::ProxyFetches);
            stats.add(Metric::ProxyFetchBytes, payload.nbytes());
            tracer.span(EventKind::ProxyFetch, t0, Some(key), payload.nbytes());
        },
    )?;
    resolved.extend(wants.into_iter().map(|(key, _)| key).zip(fetched));
    Ok(substitute_refs(value, &resolved))
}

/// Collect the distinct [`DatumRef`] handles inside `value` (lists recurse).
fn collect_refs(value: &Datum, out: &mut Vec<DatumRef>) {
    match value {
        Datum::Ref(r) if !out.iter().any(|h| h.key == r.key) => out.push(r.clone()),
        Datum::List(items) => {
            for item in items {
                collect_refs(item, out);
            }
        }
        _ => {}
    }
}

/// Rebuild `value` with every handle replaced by its resolved payload.
fn substitute_refs(value: &Datum, resolved: &HashMap<Key, Datum>) -> Datum {
    match value {
        Datum::Ref(r) => resolved
            .get(&r.key)
            .expect("resolve_refs resolved every handle")
            .clone(),
        Datum::List(items) => {
            Datum::List(items.iter().map(|d| substitute_refs(d, resolved)).collect())
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ClusterChannels, FaultPlan, Outcome};

    /// An in-process router for workers `0..n`.
    fn inproc_router(
        n: usize,
        channels: ClusterChannels,
        stats: &Arc<SchedulerStats>,
    ) -> Arc<Router> {
        let trace = TraceHandle::disabled();
        Router::new(
            n,
            channels,
            Arc::clone(stats),
            trace,
            FaultPlan::default(),
            |_| Ok::<_, std::convert::Infallible>(None),
        )
        .expect("test router")
    }

    /// Workers `0..n` behind an in-process router, each with its own store.
    /// Worker 0 runs the executor under test; every other worker not listed
    /// in `dead` runs a real data server. A dead worker's inbox is dropped,
    /// so requests to it are cancelled like requests to a killed worker.
    struct Rig {
        exec: Executor,
        stores: Vec<WorkerStore>,
        sched_rx: Receiver<SchedMsg>,
        servers: Vec<(WorkerId, JoinHandle<()>)>,
    }

    fn rig(n: usize, dead: &[WorkerId]) -> Rig {
        let (channels, sched_rx, inboxes) = ClusterChannels::new(n);
        let stats = Arc::new(SchedulerStats::new());
        let router = inproc_router(n, channels, &stats);
        let stores: Vec<WorkerStore> = (0..n)
            .map(|id| {
                let config = StoreConfig::default();
                let trace = TraceHandle::disabled();
                Arc::new(ObjectStore::new(config, id, Arc::clone(&stats), trace))
            })
            .collect();
        let mut servers = Vec::new();
        for (id, inbox) in inboxes.into_iter().enumerate().skip(1) {
            if !dead.contains(&id) {
                let (store, endpoint) = (
                    Arc::clone(&stores[id]),
                    router.endpoint(Addr::WorkerData(id)),
                );
                let server =
                    std::thread::spawn(move || run_data_server(store, inbox.data_rx, endpoint));
                servers.push((id, server));
            }
        }
        let (exec_tx, rx) = unbounded();
        let exec = Executor {
            id: 0,
            store: Arc::clone(&stores[0]),
            rx: rx.clone(),
            exec_tx,
            endpoint: router.endpoint(Addr::WorkerExec(0)),
            registry: OpRegistry::with_std_ops(),
            stats,
            steal_poll: None,
            steal_rx: rx,
            tracer: TraceHandle::disabled(),
            telemetry: None,
        };
        Rig {
            exec,
            stores,
            sched_rx,
            servers,
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            for (id, server) in self.servers.drain(..) {
                self.exec.endpoint.send_data(id, DataMsg::Shutdown);
                let _ = server.join();
            }
        }
    }

    impl Rig {
        /// Run `spec` on worker 0 with `d`'s holders listed in that order,
        /// and return what the executor told the scheduler.
        fn run(&self, spec: TaskSpec, holders: &[WorkerId]) -> Vec<SchedMsg> {
            self.exec.run_one(Assignment {
                spec: Arc::new(spec),
                dep_locations: vec![(Key::new("d"), holders.to_vec())],
                assigned_at: Instant::now(),
            });
            std::iter::from_fn(|| self.sched_rx.try_recv().ok()).collect()
        }
    }

    fn reads_d() -> TaskSpec {
        TaskSpec::new("t", "identity", Datum::Null, vec![Key::new("d")])
    }

    /// The `TaskErred` among `msgs`: `(message, cause, failed_peer)`.
    fn erred(msgs: &[SchedMsg]) -> (String, ErrorCause, Option<WorkerId>) {
        for msg in msgs {
            if let SchedMsg::TaskErred {
                error, failed_peer, ..
            } = msg
            {
                return (error.message.clone(), error.cause.clone(), *failed_peer);
            }
        }
        panic!("no TaskErred in {} messages", msgs.len());
    }

    #[test]
    fn a_miss_at_the_first_holder_falls_back_to_the_second_and_caches_one_replica() {
        let rig = rig(3, &[]);
        rig.stores[2].insert(Key::new("d"), Datum::F64(4.0));
        let msgs = rig.run(reads_d(), &[1, 2]);
        let replicas: Vec<_> = msgs
            .iter()
            .filter_map(|m| match m {
                SchedMsg::AddReplica { entries, .. } => Some(entries.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(replicas, [vec![(Key::new("d"), 8)]]);
        assert!(matches!(msgs.last(), Some(SchedMsg::TaskFinished { .. })));
        assert_eq!(
            rig.stores[0].get(&Key::new("t")).unwrap().as_f64(),
            Some(4.0)
        );
        assert_eq!(
            rig.stores[0].get(&Key::new("d")).unwrap().as_f64(),
            Some(4.0)
        );
    }

    #[test]
    fn a_dead_first_holder_falls_back_to_the_second() {
        let rig = rig(3, &[1]);
        rig.stores[2].insert(Key::new("d"), Datum::F64(5.0));
        let msgs = rig.run(reads_d(), &[1, 2]);
        assert!(matches!(msgs.last(), Some(SchedMsg::TaskFinished { .. })));
        assert_eq!(
            rig.stores[0].get(&Key::new("t")).unwrap().as_f64(),
            Some(5.0)
        );
    }

    #[test]
    fn when_every_holder_fails_the_first_that_hung_up_is_blamed() {
        // Holder 2 answers "not here"; holders 1 and 3 are dead.
        let rig = rig(4, &[1, 3]);
        let (message, cause, failed_peer) = erred(&rig.run(reads_d(), &[2, 1, 3]));
        assert_eq!(failed_peer, Some(1), "{message}");
        assert_eq!(cause, ErrorCause::PeerLost);
        assert!(
            message.starts_with("dependency d unavailable (tried 3 peers, ≥1 hung up)"),
            "{message}"
        );
    }

    #[test]
    fn a_proxy_fetch_from_a_dead_holder_blames_that_holder() {
        let rig = rig(2, &[1]);
        let handle = Datum::Ref(DatumRef {
            key: Key::new("proxy:c0:0"),
            shape: vec![4],
            nbytes: 32,
            holder: 1,
            epoch: 0,
        });
        let spec = TaskSpec::new("t", "const", handle, vec![]);
        let (message, cause, failed_peer) = erred(&rig.run(spec, &[]));
        assert_eq!(failed_peer, Some(1), "{message}");
        assert_eq!(cause, ErrorCause::PeerLost);
        assert!(
            message.starts_with("proxy proxy:c0:0 unavailable"),
            "{message}"
        );
    }

    /// A request that reached the inbox behind the data server's `Shutdown`
    /// stayed there when the thread exited, its reply slot open: the
    /// requester waited forever, and a cluster dropped after it never
    /// finished joining.
    #[test]
    fn a_request_queued_behind_the_data_servers_shutdown_hangs_up() {
        let (channels, _sched_rx, inboxes) = ClusterChannels::new(2);
        let stats = Arc::new(SchedulerStats::new());
        let router = inproc_router(2, channels, &stats);
        let requester = router.endpoint(Addr::Control);
        requester.send_data(1, DataMsg::Shutdown);
        let reply = requester.request(1, |reply| DataMsg::Get {
            key: Key::new("k"),
            reply,
        });
        let mut runtime = WorkerRuntime::spawn(WorkerSpec {
            id: 1,
            slots: 0,
            store: StoreConfig::default(),
            inbox: inboxes.into_iter().nth(1).expect("worker 1's inbox"),
            router: &router,
            registry: &OpRegistry::with_std_ops(),
            stats: &stats,
            steal_poll: None,
            heartbeat: None,
            tracer: &TraceRecorder::disabled(),
            telemetry: None,
        })
        .expect("worker threads");
        runtime.stop_data();
        let (tx, rx) = crossbeam::channel::bounded(1);
        std::thread::spawn(move || tx.send(reply.recv()));
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Outcome::HungUp) => {}
            other => panic!("the queued Get was not hung up: {other:?}"),
        }
    }
}
