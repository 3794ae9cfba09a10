//! Worker: executor slots over one core, and a store that answers reads.
//!
//! Peer dependency fetches are deadlock-free because a read never waits on
//! the holder's slots: the holder's store answers it
//! ([`ObjectStore::answer`], which the DES calls too) in the thread that
//! delivers it — the requester's own under InProc, a link reader on a coded
//! backend — so two workers can fetch from each other while both executors
//! are busy. No thread serves the store.
//!
//! The execution pipeline is built around three ideas:
//!
//! 1. **One stepped core** — the worker's queue, free slots, steal probes
//!    and steal poll are a [`Core`]: like `Scheduler::step`, [`Core::step`]
//!    reads no clock and owns no thread; it takes an [`Event`] and pushes
//!    the [`Effect`]s that follow into a sink. The DES's virtual cluster
//!    steps it under a virtual clock; here a [`Lane`] holds it for a pool
//!    of executor-slot threads, so a task blocked in a gather (or a
//!    blocking op) does not stall the tasks queued behind it. Each step ends with the same rules
//!    while a slot is free: every waiting steal probe gets its own answer
//!    from the head of the queue (at once if a slot was free, else at the
//!    next finish), then work starts in arrival order, each `Shutdown`
//!    retiring a slot in its turn. A worker left with a free slot and nothing
//!    queued arms its poll, once per idle spell.
//! 2. **Concurrent dependency gather** — all missing dependencies of a task
//!    are requested from their first holders *at once* and then collected
//!    ([`Endpoint::fetch`] stepping a [`crate::transport::Gather`], the one
//!    read path proxy resolution and client results share), so the gather
//!    latency is the slowest single fetch instead of the sum of all fetches.
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
use crate::transport::{Addr, Endpoint, Failed, Router, Wants};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared object store of one worker: the fabric delivers reads to it, and
/// every executor slot reads and writes it.
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
/// its own from the hub's `Welcome`. Its core and store come from the
/// router, which holds them from the start.
pub(crate) struct WorkerSpec<'a> {
    pub id: WorkerId,
    pub router: &'a Arc<Router>,
    pub registry: &'a OpRegistry,
    pub stats: &'a Arc<SchedulerStats>,
    /// Ping the scheduler this often (`None`: never).
    pub heartbeat: Option<Duration>,
    pub tracer: &'a TraceRecorder,
    pub telemetry: Option<&'a Arc<TelemetryHub>>,
}

/// One running worker: the executor-slot threads and the heartbeat pinger,
/// with the two teardown steps every owner composes. Orderly shutdown and
/// node exit retire slots, then the store (another worker's slot may still
/// read from it); a fault-injection kill retires the store first (see
/// [`crate::Cluster::kill_worker`]). Both steps stop the pinger before
/// anything else, and dropping the runtime runs the orderly order.
pub(crate) struct WorkerRuntime {
    id: WorkerId,
    /// Routes the teardown steps: the slots' `Shutdown`s, the store's
    /// retirement.
    control: Endpoint,
    pinger: Option<Pinger>,
    slots: Vec<JoinHandle<()>>,
}

/// Build worker `id`'s store: before its router, so that no plane can
/// deliver to the worker before its store exists.
pub(crate) fn new_store(
    id: WorkerId,
    config: StoreConfig,
    stats: &Arc<SchedulerStats>,
    tracer: &TraceRecorder,
) -> WorkerStore {
    let trace = tracer.register(TraceActor::Store { worker: id });
    Arc::new(ObjectStore::new(config, id, Arc::clone(stats), trace))
}

impl WorkerRuntime {
    /// Spawn the worker's threads. On a spawn failure the threads already
    /// running are retired before the error is returned.
    pub(crate) fn spawn(spec: WorkerSpec<'_>) -> std::io::Result<WorkerRuntime> {
        let WorkerSpec { id, router, .. } = spec;
        let no_store = || std::io::Error::other(format!("worker {id} has no store here"));
        let (lane, store) = router.worker(id).ok_or_else(no_store)?;
        let slots = lane.state.lock().core.slots();
        // From here on an early `?` drops `rt`, which retires what it holds.
        let mut rt = WorkerRuntime {
            id,
            control: router.endpoint(Addr::Control),
            pinger: None,
            slots: Vec::with_capacity(slots),
        };
        for slot in 0..slots {
            let exec = Executor {
                id,
                store: Arc::clone(&store),
                lane: Arc::clone(&lane),
                endpoint: router.endpoint(Addr::WorkerExec(id)),
                registry: spec.registry.clone(),
                stats: Arc::clone(spec.stats),
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
    /// the core retires a slot for each once the work queued before it starts.
    pub(crate) fn stop_slots(&mut self) {
        self.stop_pinger();
        for _ in 0..self.slots.len() {
            self.control.send_exec(self.id, ExecMsg::Shutdown);
        }
        for thread in self.slots.drain(..) {
            let _ = thread.join();
        }
    }

    /// Teardown step: retire the store from the data plane. From then on
    /// nothing answers a request to this worker, so it hangs up, as does
    /// every reply slot already aimed at it.
    pub(crate) fn stop_data(&mut self) {
        self.stop_pinger();
        self.control.retire_store(self.id);
    }
}

impl Drop for WorkerRuntime {
    fn drop(&mut self) {
        self.stop_slots();
        self.stop_data();
    }
}

/// What happens to a worker.
pub enum Event {
    /// The worker is up: its first idle spell starts.
    Up,
    /// A message reaches the worker's executor inbox.
    Deliver(ExecMsg),
    /// A slot's gather is done, with the replicas it cached.
    Gathered(Vec<(Key, u64)>),
    /// A slot's task `key` finished: its result's size, or why it failed
    /// and the peer to blame.
    Finished {
        key: Key,
        outcome: Result<u64, (TaskError, Option<WorkerId>)>,
    },
    /// The armed steal poll expired.
    PollExpired,
}

/// What the driver does next.
pub enum Effect {
    /// Start this assignment on a free slot.
    Start(Assignment),
    /// Send this to the scheduler (a finish, replicas, a steal's answer).
    Report(SchedMsg),
    /// Hand stolen work to `thief`'s executor, after its `Stolen` report.
    Forward { thief: WorkerId, msg: ExecMsg },
    /// Step [`Event::PollExpired`] one steal-poll interval from now (a
    /// driver with stealing off ignores this).
    ArmPoll,
    /// Retire a free slot.
    Retire,
}

/// One worker's executor state (see the module doc for its rules).
#[derive(Default)]
pub struct Core {
    id: WorkerId,
    /// Unstarted assignments in arrival order; `None` is a `Shutdown`'s
    /// place.
    queue: VecDeque<Option<Assignment>>,
    /// Slots up, and those of them not running a task.
    slots: usize,
    free: usize,
    /// Steal probes `(thief, max)` waiting for a slot to come up for air.
    probes: Vec<(WorkerId, usize)>,
    polling: bool,
}

impl Core {
    /// Worker `id` with `slots` free executor slots.
    pub fn new(id: WorkerId, slots: usize) -> Core {
        Core {
            id,
            slots,
            free: slots,
            ..Core::default()
        }
    }

    /// Executor slots up (running or free).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// No task running and none queued.
    pub fn is_quiet(&self) -> bool {
        self.free == self.slots && self.queue.is_empty()
    }

    /// Apply `event`, pushing what follows into `out`.
    pub fn step(&mut self, event: Event, out: &mut Vec<Effect>) {
        let worker = self.id;
        match event {
            Event::Up => {}
            Event::Deliver(ExecMsg::Execute(a)) => self.queue.push_back(Some(a)),
            Event::Deliver(ExecMsg::ExecuteBatch { tasks }) => {
                self.queue.extend(tasks.into_iter().map(Some))
            }
            Event::Deliver(ExecMsg::Steal { thief, max }) => self.probes.push((thief, max)),
            Event::Deliver(ExecMsg::Shutdown) => self.queue.push_back(None),
            Event::Gathered(entries) => {
                out.push(Effect::Report(SchedMsg::AddReplica { worker, entries }))
            }
            Event::Finished { key, outcome } => {
                self.free += 1;
                out.push(Effect::Report(match outcome {
                    Ok(nbytes) => SchedMsg::TaskFinished {
                        worker,
                        key,
                        nbytes,
                    },
                    Err((error, failed_peer)) => SchedMsg::TaskErred {
                        worker,
                        stored_key: key,
                        error,
                        failed_peer,
                    },
                }));
            }
            Event::PollExpired => {
                self.polling = false;
                if self.free > 0 && self.queue.is_empty() {
                    out.push(Effect::Report(SchedMsg::StealRequest { worker }));
                }
            }
        }
        if self.free > 0 {
            for (thief, max) in std::mem::take(&mut self.probes) {
                self.answer_steal(thief, max, out);
            }
        }
        while self.free > 0 {
            let Some(next) = self.queue.pop_front() else {
                break;
            };
            self.free -= 1;
            match next {
                Some(assignment) => out.push(Effect::Start(assignment)),
                None => {
                    self.slots -= 1;
                    out.push(Effect::Retire);
                }
            }
        }
        if self.free > 0 && self.queue.is_empty() && !self.polling {
            self.polling = true;
            out.push(Effect::ArmPoll);
        }
    }

    /// Victim half of the steal protocol: report the head of the queue (up
    /// to `max` unstarted assignments) as stolen, so the scheduler re-points
    /// it before the thief can finish it, then forward it.
    fn answer_steal(&mut self, thief: WorkerId, max: usize, out: &mut Vec<Effect>) {
        // Never past a `Shutdown`: what is queued behind it stays.
        let stealable = self.queue.iter().take(max).take_while(|a| a.is_some());
        let tasks: Vec<Assignment> = self.queue.drain(..stealable.count()).flatten().collect();
        let keys = tasks.iter().map(|a| a.spec.key.clone()).collect();
        out.push(Effect::Report(SchedMsg::Stolen {
            victim: self.id,
            thief,
            keys,
        }));
        if !tasks.is_empty() {
            let msg = ExecMsg::ExecuteBatch { tasks };
            out.push(Effect::Forward { thief, msg });
        }
    }
}

/// One worker's [`Core`] as its executor slots share it: the fabric steps
/// deliveries in, slot threads step the rest and take the tasks it starts.
/// Nothing is sent under the lock: a slot thread makes the sends a step left
/// through its own endpoint, in order.
pub(crate) struct Lane {
    state: Mutex<LaneState>,
    wake: Condvar,
}

#[derive(Default)]
struct LaneState {
    core: Core,
    /// The core's sink, split after every step into the `Start`s and
    /// `Retire`s and the sends no slot thread has taken yet.
    effects: Vec<Effect>,
    jobs: VecDeque<Effect>,
    sends: Vec<Effect>,
    /// The steal-poll interval (`None`: stealing off) and its deadline.
    poll: Option<Duration>,
    poll_at: Option<Instant>,
}

impl LaneState {
    fn step(&mut self, event: Event) {
        self.core.step(event, &mut self.effects);
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Start(_) | Effect::Retire => self.jobs.push_back(effect),
                Effect::Report(_) | Effect::Forward { .. } => self.sends.push(effect),
                Effect::ArmPoll => self.poll_at = self.poll.map(|p| Instant::now() + p),
            }
        }
    }
}

impl Lane {
    /// Worker `id`'s lane, up with `slots` executor slots and steal poll
    /// `poll`.
    pub(crate) fn new(id: WorkerId, slots: usize, poll: Option<Duration>) -> Lane {
        let core = Core::new(id, slots);
        let mut state = LaneState {
            core,
            poll,
            ..Default::default()
        };
        state.step(Event::Up);
        Lane {
            state: Mutex::new(state),
            wake: Condvar::new(),
        }
    }

    /// A message reaches this worker's executor inbox.
    pub(crate) fn deliver(&self, msg: ExecMsg) {
        let mut st = self.state.lock();
        st.step(Event::Deliver(msg));
        let wake = st.jobs.len() + usize::from(!st.sends.is_empty());
        drop(st);
        for _ in 0..wake {
            self.wake.notify_one();
        }
    }

    /// A free slot's one lock per pick-up: step `done` (its last task's
    /// finish), take the pending sends and the next job (`None`: only
    /// sends); wait while there is neither, stepping the poll when due.
    fn next(&self, mut done: Option<Event>, sends: &mut Vec<Effect>) -> Option<Effect> {
        let mut st = self.state.lock();
        loop {
            // A poll that expired while every slot was busy fires first,
            // as it would have under a clock.
            if st.poll_at.is_some_and(|at| at <= Instant::now()) {
                st.poll_at = None;
                st.step(Event::PollExpired);
            }
            if let Some(event) = done.take() {
                st.step(event);
            }
            sends.append(&mut st.sends);
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if !sends.is_empty() {
                return None;
            }
            st = match st.poll_at {
                None => self.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(at) => {
                    let timeout = at.saturating_duration_since(Instant::now());
                    let waited = self.wake.wait_timeout(st, timeout);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }
}

/// One executor slot of a [`Lane`]: runs the tasks its worker's [`Core`]
/// starts, fetching dependencies from peers as needed.
pub(crate) struct Executor {
    /// This worker's id.
    id: WorkerId,
    /// Local store (shared with the fabric and sibling slots).
    store: WorkerStore,
    /// This worker's core (shared by all slots of this worker).
    lane: Arc<Lane>,
    /// Outbound route to the scheduler (completion/replica reports), to
    /// peer stores (dependency fetches) and to a thief's executor (stolen
    /// work).
    endpoint: Endpoint,
    /// Shared op registry.
    registry: OpRegistry,
    /// Shared counters.
    stats: Arc<SchedulerStats>,
    /// Lifecycle event recorder for this slot (empty when tracing is off).
    tracer: TraceHandle,
    /// Live-telemetry hub: exec durations feed the online straggler
    /// detector. `None` when telemetry is off — the exec path then pays a
    /// single branch and never reads the clock for it.
    telemetry: Option<Arc<TelemetryHub>>,
}

impl Executor {
    /// Run tasks until the core retires this slot.
    fn run(self) {
        let (mut sends, mut done) = (Vec::new(), None);
        loop {
            let idle_from = Instant::now();
            let job = self.lane.next(done.take(), &mut sends);
            self.stats
                .add(Metric::ExecIdleNs, idle_from.elapsed().as_nanos() as u64);
            self.flush(&mut sends);
            match job {
                Some(Effect::Start(assignment)) => done = Some(self.run_one(assignment)),
                Some(_) => break, // `Retire`: the core has retired this slot.
                None => {}
            }
        }
    }

    /// Make the sends a step left, in order.
    fn flush(&self, sends: &mut Vec<Effect>) {
        for effect in sends.drain(..) {
            match effect {
                Effect::Report(msg) => self.endpoint.send_sched(msg),
                Effect::Forward { thief, msg } => self.endpoint.send_exec(thief, msg),
                _ => unreachable!("a lane queues only sends for its slots to make"),
            }
        }
    }

    /// Execute one task; its finish, for the core.
    fn run_one(&self, assignment: Assignment) -> Event {
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
        let outcome = match self.execute(&spec, &dep_locations) {
            Ok(result) => {
                let nbytes = result.nbytes();
                self.store.insert(key.clone(), result);
                Ok(nbytes)
            }
            Err((mut error, hung_peer)) => {
                // Peer loss outranks the other attributions — it tells the
                // scheduler the failure is environmental (retryable), not a
                // property of the task. Otherwise an origin differing from
                // the spec key means an interior fused stage failed.
                if error.cause == ErrorCause::Direct && error.key != key {
                    error.cause = ErrorCause::FusedStage {
                        stored_key: key.clone(),
                    };
                }
                Err((error, hung_peer))
            }
        };
        self.stats
            .record_exec_busy(busy_from.elapsed().as_nanos() as u64);
        Event::Finished { key, outcome }
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
    ) -> Result<Vec<Datum>, Failed> {
        let (inputs, wants) = slot_reads(&self.store, self.id, &spec.deps, dep_locations);
        if wants.is_empty() {
            return Ok(inputs.into_iter().flatten().collect());
        }
        let gather_from = Instant::now();
        let batch_t0 = self.tracer.start();
        let n_remote = wants.len() as u64;
        let fetched = self.endpoint.fetch(
            wants,
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
    ) -> Result<Datum, Failed> {
        let mut replicas = Vec::new();
        let gathered = self.gather_deps(spec, dep_locations, &mut replicas);
        // Report new replicas even if some other dependency failed: the
        // cached blocks exist either way and placement should know.
        if !replicas.is_empty() {
            let mut st = self.lane.state.lock();
            st.step(Event::Gathered(replicas));
            let mut sends = std::mem::take(&mut st.sends);
            drop(st);
            self.flush(&mut sends);
        }
        // A failed read fails the task as a whole, never one fused stage.
        let read_failed = |what: &str, (mut error, hung_peer): Failed| {
            error.key = spec.key.clone();
            error.message = format!("{what} {}", error.message);
            (error, hung_peer)
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
        let fail = |origin: &Key, message: String| (TaskError::new(origin.clone(), message), None);
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

/// What a slot of worker `me` reads before it runs a task on `deps`: each
/// input `store` holds, all taken under one lock (`None` for the others),
/// and each other input with its holders in `dep_locations`, less `me`, in
/// the order to ask them. The live executor and the DES both build a
/// gather's wants here.
pub fn slot_reads(
    store: &ObjectStore,
    me: WorkerId,
    deps: &[Key],
    dep_locations: &[(Key, Vec<WorkerId>)],
) -> (Vec<Option<Datum>>, Wants) {
    let inputs = store.get_many(deps);
    let missing = deps
        .iter()
        .zip(&inputs)
        .filter(|(_, input)| input.is_none());
    let wants = missing.map(|(key, _)| {
        let listed = dep_locations.iter().find(|(k, _)| k == key);
        let holders = listed.map(|(_, h)| h.iter().copied().filter(|&w| w != me).collect());
        (key.clone(), holders.unwrap_or_default())
    });
    let wants = wants.collect();
    (inputs, wants)
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
) -> Result<Datum, Failed> {
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
    let keys: Vec<Key> = wants.iter().map(|(key, _)| key.clone()).collect();
    let fetched = endpoint.fetch(
        wants,
        |key, reply| DataMsg::Fetch { key, reply },
        tracer,
        local,
        |key, _, t0, payload| {
            stats.inc(Metric::ProxyFetches);
            stats.add(Metric::ProxyFetchBytes, payload.nbytes());
            tracer.span(EventKind::ProxyFetch, t0, Some(key), payload.nbytes());
        },
    )?;
    resolved.extend(keys.into_iter().zip(fetched));
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
    use crate::net::Plane;
    use crate::transport::{ClusterChannels, DataReply, FaultPlan, Outcome, TransportConfig};

    /// A router for the workers of `channels` over `transport`.
    fn router(
        transport: &TransportConfig,
        channels: ClusterChannels,
        stats: &Arc<SchedulerStats>,
    ) -> Arc<Router> {
        let trace = TraceHandle::disabled();
        Router::new(
            channels,
            Arc::clone(stats),
            trace,
            FaultPlan::default(),
            |fabric| Ok::<_, std::convert::Infallible>(Plane::for_transport(transport, fabric)),
        )
        .expect("test router")
    }

    /// Workers `0..n` behind an in-process router, each with its own store.
    /// Worker 0 runs the executor under test; every other worker not listed
    /// in `dead` answers reads from its store. A dead worker's store is not
    /// in the router, so requests to it hang up like requests to a killed
    /// worker.
    struct Rig {
        exec: Executor,
        stores: Vec<WorkerStore>,
        sched_rx: Receiver<SchedMsg>,
    }

    fn rig(n: usize, dead: &[WorkerId]) -> Rig {
        let stats = Arc::new(SchedulerStats::new());
        let tracer = TraceRecorder::disabled();
        let stores: Vec<WorkerStore> = (0..n)
            .map(|id| new_store(id, StoreConfig::default(), &stats, &tracer))
            .collect();
        let live = |id: WorkerId| (!dead.contains(&id)).then(|| Arc::clone(&stores[id]));
        let (channels, sched_rx) = ClusterChannels::new(n, 1, None, live);
        let lane = Arc::clone(&channels.lanes[0]);
        let router = router(&TransportConfig::InProc, channels, &stats);
        let exec = Executor {
            id: 0,
            store: Arc::clone(&stores[0]),
            lane,
            endpoint: router.endpoint(Addr::WorkerExec(0)),
            registry: OpRegistry::with_std_ops(),
            stats,
            tracer: TraceHandle::disabled(),
            telemetry: None,
        };
        Rig {
            exec,
            stores,
            sched_rx,
        }
    }

    impl Rig {
        /// Run `spec` on worker 0's one slot, stepped through its core, with
        /// `d`'s holders listed in that order, and return what the executor
        /// told the scheduler.
        fn run(&self, spec: TaskSpec, holders: &[WorkerId]) -> Vec<SchedMsg> {
            let lane = &self.exec.lane;
            lane.deliver(ExecMsg::Execute(Assignment {
                spec: Arc::new(spec),
                dep_locations: vec![(Key::new("d"), holders.to_vec())],
                assigned_at: Instant::now(),
            }));
            let mut sends = Vec::new();
            let Some(Effect::Start(assignment)) = lane.next(None, &mut sends) else {
                panic!("the core did not start the task");
            };
            let done = self.exec.run_one(assignment);
            assert!(lane.next(Some(done), &mut sends).is_none());
            self.exec.flush(&mut sends);
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

    /// Worker `id`'s runtime on `router`, with no heartbeat.
    fn spawn(router: &Arc<Router>, id: WorkerId, stats: &Arc<SchedulerStats>) -> WorkerRuntime {
        WorkerRuntime::spawn(WorkerSpec {
            id,
            router,
            registry: &OpRegistry::with_std_ops(),
            stats,
            heartbeat: None,
            tracer: &TraceRecorder::disabled(),
            telemetry: None,
        })
        .expect("worker threads")
    }

    /// A read once a worker's store is retired hangs up: its requester must
    /// not wait forever, nor keep a cluster dropped after it from joining.
    #[test]
    fn a_request_queued_behind_the_data_servers_shutdown_hangs_up() {
        let stats = Arc::new(SchedulerStats::new());
        let tracer = TraceRecorder::disabled();
        let store = |id| Some(new_store(id, StoreConfig::default(), &stats, &tracer));
        let (channels, _sched_rx) = ClusterChannels::new(2, 0, None, store);
        let router = router(&TransportConfig::InProc, channels, &stats);
        let requester = router.endpoint(Addr::Control);
        spawn(&router, 1, &stats).stop_data();
        let reply = requester.request(1, |reply| DataMsg::Get {
            key: Key::new("k"),
            reply,
        });
        let (tx, rx) = crossbeam::channel::bounded(1);
        std::thread::spawn(move || tx.send(reply.recv()));
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Outcome::HungUp) => {}
            other => panic!("the queued Get was not hung up: {other:?}"),
        }
    }

    /// A `dtask-node` starts its plane before its worker's runtime: a `Put`
    /// delivered in between is acked and stored, and the runtime serves the
    /// same store.
    #[test]
    fn a_put_delivered_before_the_runtime_is_spawned_is_acked_and_stored() {
        for transport in [TransportConfig::InProc, TransportConfig::Tcp] {
            let stats = Arc::new(SchedulerStats::new());
            let tracer = TraceRecorder::disabled();
            let store = |id| Some(new_store(id, StoreConfig::default(), &stats, &tracer));
            let (channels, _sched_rx) = ClusterChannels::new(1, 1, None, store);
            let router = router(&transport, channels, &stats);
            let client = router.endpoint(Addr::Client(0));
            let (key, value) = (Key::new("blk"), Datum::F64(7.0));
            let put = client.request(0, |ack| DataMsg::Put { key, value, ack });
            assert!(
                matches!(put.recv(), Outcome::Value(DataReply::PutAck)),
                "{transport:?}: the early Put was not acked"
            );
            let runtime = spawn(&router, 0, &stats);
            let get = client.request(0, |reply| DataMsg::Get {
                key: Key::new("blk"),
                reply,
            });
            match get.recv() {
                Outcome::Value(DataReply::Value(Ok(v))) => assert_eq!(v.as_f64(), Some(7.0)),
                other => panic!("{transport:?}: the early Put was not stored: {other:?}"),
            }
            drop(runtime);
        }
    }

    // ---- the worker core, stepped by hand: no thread, no sleep ----------

    fn task(key: &str) -> Assignment {
        Assignment {
            spec: Arc::new(TaskSpec::new(key, "identity", Datum::Null, vec![])),
            dep_locations: Vec::new(),
            assigned_at: Instant::now(),
        }
    }

    fn keys(tasks: &[Assignment]) -> String {
        let keys: Vec<&str> = tasks.iter().map(|a| a.spec.key.as_str()).collect();
        keys.join(",")
    }

    /// One line per effect, for comparing whole step outputs.
    fn show(effect: &Effect) -> String {
        match effect {
            Effect::Start(a) => format!("start {}", a.spec.key),
            Effect::Report(SchedMsg::TaskFinished { key, .. }) => format!("finished {key}"),
            Effect::Report(SchedMsg::TaskErred { stored_key, .. }) => format!("erred {stored_key}"),
            Effect::Report(SchedMsg::AddReplica { entries, .. }) => {
                format!("replicas {}", entries.len())
            }
            Effect::Report(SchedMsg::Stolen { thief, keys, .. }) => {
                let keys: Vec<&str> = keys.iter().map(Key::as_str).collect();
                format!("stolen {thief} [{}]", keys.join(","))
            }
            Effect::Report(SchedMsg::StealRequest { worker }) => format!("steal-request {worker}"),
            Effect::Report(_) => "other report".into(),
            Effect::Forward {
                thief,
                msg: ExecMsg::ExecuteBatch { tasks },
            } => format!("forward {thief} [{}]", keys(tasks)),
            Effect::Forward { .. } => "forward other".into(),
            Effect::ArmPoll => "arm".into(),
            Effect::Retire => "retire".into(),
        }
    }

    fn step(core: &mut Core, event: Event) -> Vec<String> {
        let mut out = Vec::new();
        core.step(event, &mut out);
        out.iter().map(show).collect()
    }

    fn deliver(core: &mut Core, msg: ExecMsg) -> Vec<String> {
        step(core, Event::Deliver(msg))
    }

    fn finished(core: &mut Core, key: &str) -> Vec<String> {
        let (key, outcome) = (Key::new(key), Ok(8));
        step(core, Event::Finished { key, outcome })
    }

    fn batch(names: &[&str]) -> ExecMsg {
        ExecMsg::ExecuteBatch {
            tasks: names.iter().map(|k| task(k)).collect(),
        }
    }

    fn steal(thief: WorkerId, max: usize) -> ExecMsg {
        ExecMsg::Steal { thief, max }
    }

    #[test]
    fn a_probe_to_a_busy_victim_is_answered_at_its_next_finish_with_the_head_of_its_queue() {
        let mut victim = Core::new(0, 1);
        assert_eq!(
            deliver(&mut victim, batch(&["a", "b", "c", "d"])),
            ["start a"]
        );
        assert!(
            deliver(&mut victim, steal(1, 2)).is_empty(),
            "busy: the probe waits"
        );
        assert_eq!(
            finished(&mut victim, "a"),
            ["finished a", "stolen 1 [b,c]", "forward 1 [b,c]", "start d"],
            "reported before it is forwarded, and before the freed slot starts the rest"
        );
    }

    #[test]
    fn a_probe_to_a_worker_with_a_free_slot_is_answered_at_once() {
        let mut idle = Core::new(0, 2);
        assert_eq!(step(&mut idle, Event::Up), ["arm"]);
        assert_eq!(deliver(&mut idle, steal(1, 4)), ["stolen 1 []"]);
    }

    #[test]
    fn two_probes_in_a_row_each_get_an_answer() {
        let mut victim = Core::new(0, 1);
        deliver(&mut victim, batch(&["a", "b", "c", "d"]));
        deliver(&mut victim, steal(1, 1));
        deliver(&mut victim, steal(2, 1));
        assert_eq!(
            finished(&mut victim, "a"),
            [
                "finished a",
                "stolen 1 [b]",
                "forward 1 [b]",
                "stolen 2 [c]",
                "forward 2 [c]",
                "start d"
            ]
        );
        // A probe that finds the queue empty is still answered.
        deliver(&mut victim, steal(1, 1));
        assert_eq!(
            finished(&mut victim, "d"),
            ["finished d", "stolen 1 []", "arm"]
        );
    }

    #[test]
    fn a_batch_tail_starts_before_later_deliveries() {
        let mut core = Core::new(0, 1);
        assert_eq!(deliver(&mut core, batch(&["a", "b", "c"])), ["start a"]);
        assert!(deliver(&mut core, ExecMsg::Execute(task("late"))).is_empty());
        assert_eq!(finished(&mut core, "a"), ["finished a", "start b"]);
        assert_eq!(finished(&mut core, "b"), ["finished b", "start c"]);
        assert_eq!(finished(&mut core, "c"), ["finished c", "start late"]);
    }

    #[test]
    fn one_shutdown_retires_exactly_one_slot() {
        let mut core = Core::new(0, 2);
        assert_eq!(deliver(&mut core, ExecMsg::Shutdown), ["retire", "arm"]);
        assert_eq!(core.slots(), 1);
        // A `Shutdown` keeps its place in arrival order: the last slot runs
        // what was queued before it, then retires; what came after it stays
        // queued.
        assert_eq!(deliver(&mut core, batch(&["a", "b", "c"])), ["start a"]);
        assert!(deliver(&mut core, ExecMsg::Shutdown).is_empty());
        assert!(deliver(&mut core, ExecMsg::Execute(task("d"))).is_empty());
        assert_eq!(finished(&mut core, "a"), ["finished a", "start b"]);
        // A steal takes from the head, but never past the `Shutdown`.
        assert!(deliver(&mut core, steal(1, 4)).is_empty());
        assert_eq!(
            finished(&mut core, "b"),
            ["finished b", "stolen 1 [c]", "forward 1 [c]", "retire"]
        );
        assert_eq!(core.slots(), 0);
        assert!(!core.is_quiet(), "d stays queued");
    }

    #[test]
    fn the_poll_is_armed_once_per_idle_spell() {
        let mut core = Core::new(0, 2);
        assert_eq!(step(&mut core, Event::Up), ["arm"]);
        // Still idle with one slot busy: the armed poll stands.
        assert_eq!(deliver(&mut core, ExecMsg::Execute(task("a"))), ["start a"]);
        assert_eq!(
            step(&mut core, Event::PollExpired),
            ["steal-request 0", "arm"],
            "an idle expiry asks and re-arms"
        );
        // Busy: an expiry neither asks nor re-arms; the next idle spell does.
        assert_eq!(deliver(&mut core, ExecMsg::Execute(task("b"))), ["start b"]);
        assert!(step(&mut core, Event::PollExpired).is_empty());
        assert_eq!(finished(&mut core, "a"), ["finished a", "arm"]);
        assert_eq!(finished(&mut core, "b"), ["finished b"]);
        assert!(core.is_quiet());
    }

    #[test]
    fn gathers_and_failures_are_reported_by_the_slot_that_ran_them() {
        let mut core = Core::new(3, 1);
        deliver(&mut core, ExecMsg::Execute(task("a")));
        let fetched = vec![(Key::new("d"), 8)];
        assert_eq!(step(&mut core, Event::Gathered(fetched)), ["replicas 1"]);
        let (key, error) = (Key::new("a"), TaskError::new(Key::new("a"), "boom"));
        let outcome = Err((error, Some(1)));
        assert_eq!(
            step(&mut core, Event::Finished { key, outcome }),
            ["erred a", "arm"]
        );
    }

    /// `tests/policy.rs::stolen_task_from_killed_worker_completes`, stepped:
    /// a one-slot victim with a skewed queue, an idle one-slot thief that
    /// polls, the scheduler's steal between them, then the victim's kill.
    /// The stolen task finishes on the thief. The kill's `Shutdown` queues
    /// behind the work the victim kept, as a message on a FIFO inbox did:
    /// its slot retires only after running it (live, into a store already
    /// retired from the data plane, so the scheduler recomputes it).
    #[test]
    fn a_task_stolen_from_a_worker_that_is_then_killed_finishes_on_the_thief() {
        let (mut victim, mut thief) = (Core::new(0, 1), Core::new(1, 1));
        assert_eq!(step(&mut thief, Event::Up), ["arm"]);
        let skew = ["t0", "t1", "t2", "t3", "t4"];
        assert_eq!(deliver(&mut victim, batch(&skew)), ["start t0"]);
        assert_eq!(
            step(&mut thief, Event::PollExpired),
            ["steal-request 1", "arm"]
        );
        // The scheduler answers the request with a probe to the victim.
        assert!(deliver(&mut victim, steal(1, 1)).is_empty());
        let mut out = Vec::new();
        let (key, outcome) = (Key::new("t0"), Ok(8));
        victim.step(Event::Finished { key, outcome }, &mut out);
        let shown: Vec<String> = out.iter().map(show).collect();
        assert_eq!(
            shown,
            ["finished t0", "stolen 1 [t1]", "forward 1 [t1]", "start t2"]
        );
        let Some(Effect::Forward { msg, .. }) = out.into_iter().nth(2) else {
            unreachable!("checked above")
        };
        assert_eq!(deliver(&mut thief, msg), ["start t1"]);
        // The kill.
        assert!(deliver(&mut victim, ExecMsg::Shutdown).is_empty());
        assert_eq!(finished(&mut victim, "t2"), ["finished t2", "start t3"]);
        assert_eq!(finished(&mut victim, "t3"), ["finished t3", "start t4"]);
        assert_eq!(finished(&mut victim, "t4"), ["finished t4", "retire"]);
        assert_eq!(victim.slots(), 0);
        // The thief's poll armed before the steal still stands.
        assert_eq!(finished(&mut thief, "t1"), ["finished t1"]);
    }
}
