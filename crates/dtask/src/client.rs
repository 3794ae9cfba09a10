//! Client handle: graph submission, futures, scatter, variables, queues.

use crate::datum::{Datum, DatumRef};
use crate::key::{Key, SessionId, DEFAULT_SESSION};
use crate::msg::{ClientId, ClientMsg, DataMsg, SchedMsg, TaskError, WorkerId};
use crate::optimize::{optimize, OptimizeConfig};
use crate::spec::TaskSpec;
use crate::stats::{Metric, MsgClass, SchedulerStats};
use crate::store::StoreConfig;
use crate::trace::{EventKind, TraceHandle};
use crate::transport::Endpoint;
use crate::worker::{resolve_refs, Pinger};
use crossbeam::channel::Receiver;
use std::cell::{Cell, RefCell};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A connected client. Owns its notification inbox, so use one `Client` per
/// thread (clone-by-reconnect via [`crate::Cluster::client`]).
pub struct Client {
    pub(crate) id: ClientId,
    /// This client's session namespace. [`DEFAULT_SESSION`] (the
    /// single-tenant default) keeps every message byte-identical to the
    /// pre-tenancy protocol; any other session scopes every key this
    /// client creates and wraps every scheduler-bound message in
    /// [`SchedMsg::Scoped`].
    pub(crate) session: SessionId,
    /// Outbound route to the scheduler and worker stores.
    pub(crate) endpoint: Endpoint,
    pub(crate) rx: Receiver<ClientMsg>,
    pub(crate) pending: RefCell<VecDeque<ClientMsg>>,
    pub(crate) stats: Arc<SchedulerStats>,
    pub(crate) scatter_cursor: AtomicUsize,
    pub(crate) optimize: OptimizeConfig,
    /// Keys this client registered as external tasks: the optimizer must
    /// never cull them or swallow them into a fused chain.
    pub(crate) external_keys: RefCell<HashSet<Key>>,
    /// Lifecycle event recorder (empty handle when tracing is off). Bridges
    /// relabel their trace row via [`TraceHandle::set_label`].
    pub(crate) tracer: TraceHandle,
    /// This client's heartbeat pinger, when one is running. The client owns
    /// and joins it: drop stops the thread and waits for it *before* sending
    /// the disconnect, so no ping can trail the goodbye and re-arm liveness
    /// tracking for a gone client.
    pub(crate) heartbeat: Option<Pinger>,
    /// Out-of-band data plane config (the cluster's [`StoreConfig`]). With
    /// `proxies` on, large array values bound for the control path
    /// (variables, queue items) are published to a worker store instead and
    /// replaced by a [`DatumRef`] handle.
    pub(crate) store: StoreConfig,
    /// Monotonic per-client sequence for proxy keys (also the handle epoch).
    pub(crate) proxy_seq: AtomicUsize,
    /// Whether the scheduler acks scoped graph submissions with
    /// [`ClientMsg::SubmitOutcome`] (true only for a client in a scoped
    /// session of a cluster with an admission cap).
    pub(crate) await_submit_ack: bool,
    /// Test hook ([`Client::simulate_death`]): drop without the goodbye.
    pub(crate) dead: Cell<bool>,
}

/// A handle to one (eventual) task result.
pub struct DFuture<'a> {
    client: &'a Client,
    key: Key,
}

impl std::fmt::Debug for DFuture<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DFuture({})", self.key)
    }
}

impl Client {
    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// This client's session namespace (0 = the implicit single-tenant
    /// session).
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Scope a key into this client's session. The implicit session
    /// leaves keys untouched (hash- and byte-identical to the seed).
    fn scope(&self, key: Key) -> Key {
        if self.session == DEFAULT_SESSION {
            key
        } else {
            key.with_session(self.session)
        }
    }

    /// Send a scheduler message, tagged with this client's session when
    /// it has one. Single-tenant clients send the bare message — the wire
    /// stays byte-identical to the pre-tenancy protocol.
    fn send_sched(&self, msg: SchedMsg) {
        if self.session == DEFAULT_SESSION {
            self.endpoint.send_sched(msg);
        } else {
            self.endpoint.send_sched(SchedMsg::Scoped {
                session: self.session,
                inner: Box::new(msg),
            });
        }
    }

    /// Number of workers in the cluster.
    pub fn n_workers(&self) -> usize {
        self.endpoint.n_workers()
    }

    /// Shared statistics counters.
    pub fn stats(&self) -> &Arc<SchedulerStats> {
        &self.stats
    }

    /// This client's trace handle (empty when tracing is off). Bridges use
    /// it to record contract-setup/publish spans and to label their row.
    pub fn tracer(&self) -> &TraceHandle {
        &self.tracer
    }

    /// Submit a task graph. Returns immediately; use [`Client::future`] to
    /// wait on results.
    ///
    /// With the cluster's [`OptimizeConfig`] active, the graph is optimized
    /// first with *no declared outputs*: culling is skipped and only fusion
    /// runs (sinks always survive as stored keys; see
    /// [`Client::submit_with_outputs`] to declare outputs and enable
    /// culling).
    pub fn submit(&self, specs: Vec<TaskSpec>) {
        self.submit_with_outputs(specs, &[]);
    }

    /// Submit a task graph declaring which keys will actually be consumed.
    /// The ahead-of-time optimizer (when enabled in the cluster config)
    /// culls tasks unreachable from `outputs` and fuses strictly linear op
    /// chains; externally registered keys are always protected.
    ///
    /// Panics if the scheduler rejects the graph under an admission cap;
    /// use [`Client::try_submit_with_outputs`] to handle backpressure.
    pub fn submit_with_outputs(&self, specs: Vec<TaskSpec>, outputs: &[Key]) {
        if let Err(e) = self.try_submit_with_outputs(specs, outputs) {
            panic!("graph submission failed: {e}");
        }
    }

    /// Like [`Client::submit`], surfacing admission-control backpressure:
    /// in a scoped session under a per-session in-flight cap, a graph
    /// that would exceed the cap is rejected whole and returned as
    /// [`SubmitError::Rejected`] — retry after some in-flight work
    /// completes. Without a cap this never fails (no ack round-trip).
    pub fn try_submit(&self, specs: Vec<TaskSpec>) -> Result<(), SubmitError> {
        self.try_submit_with_outputs(specs, &[])
    }

    /// [`Client::try_submit`] with declared outputs (enables culling).
    pub fn try_submit_with_outputs(
        &self,
        mut specs: Vec<TaskSpec>,
        outputs: &[Key],
    ) -> Result<(), SubmitError> {
        // Scope before optimizing, so the protected/external set (already
        // scoped at registration) matches spec keys.
        let scoped_outputs: Vec<Key>;
        let mut outputs = outputs;
        if self.session != DEFAULT_SESSION {
            for spec in &mut specs {
                spec.key = spec.key.with_session(self.session);
                for dep in &mut spec.deps {
                    *dep = dep.with_session(self.session);
                }
            }
            scoped_outputs = outputs
                .iter()
                .map(|k| k.with_session(self.session))
                .collect();
            outputs = &scoped_outputs;
        }
        if self.optimize.is_active() {
            let opt_t0 = self.tracer.start();
            let protected = self.external_keys.borrow();
            let (optimized, report) = optimize(specs, outputs, &protected, &self.optimize);
            specs = optimized;
            self.tracer
                .span(EventKind::Optimize, opt_t0, None, report.tasks_out as u64);
            self.stats.record_optimize(&report);
        }
        self.tracer
            .instant(EventKind::Submit, None, specs.len() as u64);
        self.send_sched(SchedMsg::SubmitGraph {
            client: self.id,
            specs,
        });
        if !self.await_submit_ack {
            return Ok(());
        }
        // One ack per scoped submission, in submission order on this
        // client's own channel — the next SubmitOutcome is ours.
        let outcome = self
            .wait_msg(None, |m| match m {
                ClientMsg::SubmitOutcome {
                    accepted,
                    inflight,
                    cap,
                } => Some((*accepted, *inflight, *cap)),
                _ => None,
            })
            .map_err(SubmitError::Channel)?;
        match outcome {
            (true, _, _) => Ok(()),
            (false, inflight, cap) => Err(SubmitError::Rejected { inflight, cap }),
        }
    }

    /// Future for any key (submitted, scattered, or external). The key is
    /// scoped into this client's session — tenants can only ever watch
    /// their own namespace.
    pub fn future(&self, key: impl Into<Key>) -> DFuture<'_> {
        DFuture {
            client: self,
            key: self.scope(key.into()),
        }
    }

    /// Register external tasks (paper §2.2): keys whose results an external
    /// environment will push later. Graphs depending on these keys may be
    /// submitted immediately afterwards — before any data exists.
    pub fn register_external(&self, keys: Vec<Key>) {
        let keys: Vec<Key> = keys.into_iter().map(|k| self.scope(k)).collect();
        self.external_keys.borrow_mut().extend(keys.iter().cloned());
        self.tracer
            .instant(EventKind::RegisterExternal, None, keys.len() as u64);
        self.send_sched(SchedMsg::RegisterExternal {
            client: self.id,
            keys,
        });
    }

    /// Keys this client has registered as external tasks (sorted, for
    /// deterministic inspection). The optimizer treats these as protected.
    pub fn external_keys(&self) -> Vec<Key> {
        let mut v: Vec<Key> = self.external_keys.borrow().iter().cloned().collect();
        v.sort();
        v
    }

    /// Classic Dask scatter: place data on workers, then tell the scheduler.
    /// Returns the chosen worker per item.
    pub fn scatter(&self, items: Vec<(Key, Datum)>, worker: Option<WorkerId>) -> Vec<WorkerId> {
        self.scatter_impl(items, worker, false)
    }

    /// The extended scatter of §2.2 (`keys=`, `external=true`): push blocks
    /// produced by the external environment; the scheduler handles each key
    /// like a finished task, cascading into pre-submitted graphs.
    pub fn scatter_external(
        &self,
        items: Vec<(Key, Datum)>,
        worker: Option<WorkerId>,
    ) -> Vec<WorkerId> {
        self.scatter_impl(items, worker, true)
    }

    fn scatter_impl(
        &self,
        items: Vec<(Key, Datum)>,
        worker: Option<WorkerId>,
        external: bool,
    ) -> Vec<WorkerId> {
        let scatter_t0 = self.tracer.start();
        let first_key = items.first().map(|(k, _)| k.clone());
        let mut total_bytes = 0u64;
        let mut placements = Vec::with_capacity(items.len());
        let mut entries = Vec::with_capacity(items.len());
        for (key, value) in items {
            let key = self.scope(key);
            let w = worker.unwrap_or_else(|| {
                self.scatter_cursor.fetch_add(1, Ordering::Relaxed) % self.endpoint.n_workers()
            });
            let nbytes = value.nbytes();
            total_bytes += nbytes;
            self.stats.record(MsgClass::ScatterData, nbytes);
            let put = |ack| DataMsg::Put {
                key: key.clone(),
                value,
                ack,
            };
            // Wait for the worker to own the data before informing the
            // scheduler (otherwise a dependent task could be scheduled and
            // fetch-miss).
            self.endpoint.request(w, put).recv();
            entries.push((key, w, nbytes));
            placements.push(w);
        }
        self.send_sched(SchedMsg::UpdateData {
            client: self.id,
            entries,
            external,
        });
        let kind = if external {
            EventKind::ScatterExternal
        } else {
            EventKind::Scatter
        };
        self.tracer
            .span(kind, scatter_t0, first_key.as_ref(), total_bytes);
        placements
    }

    /// Wait for many keys and gather their values in order. More efficient
    /// than sequential `future(..).result()` calls: all `WantResult`
    /// registrations go out before any wait begins, and all data requests
    /// before any reply is awaited.
    pub fn gather_many(&self, keys: &[Key]) -> Result<Vec<Datum>, TaskError> {
        let keys: Vec<Key> = keys.iter().map(|k| self.scope(k.clone())).collect();
        let keys = &keys[..];
        for key in keys {
            self.send_sched(SchedMsg::WantResult {
                client: self.id,
                key: key.clone(),
            });
        }
        let mut wants = Vec::with_capacity(keys.len());
        for key in keys {
            let k = key.clone();
            let loc = self
                .wait_msg(None, move |m| match m {
                    ClientMsg::KeyReady { key, location } if *key == k => Some(location.clone()),
                    _ => None,
                })
                .map_err(|we| TaskError::new(key.clone(), we.to_string()))??;
            wants.push((key.clone(), vec![loc]));
        }
        self.fetch_results(wants)
    }

    /// Release keys cluster-wide (scheduler state + worker memory).
    pub fn release(&self, keys: Vec<Key>) {
        let keys: Vec<Key> = keys.into_iter().map(|k| self.scope(k)).collect();
        {
            let mut external = self.external_keys.borrow_mut();
            for key in &keys {
                external.remove(key);
            }
        }
        self.send_sched(SchedMsg::ReleaseKeys { keys });
    }

    /// Send one heartbeat now (the automatic pinger uses the same path).
    pub fn heartbeat(&self) {
        self.endpoint
            .send_sched(SchedMsg::Heartbeat { client: self.id });
    }

    // ---- notification plumbing -------------------------------------------

    /// Wait for a notification matching `pred`, buffering everything else.
    fn wait_msg<T>(
        &self,
        timeout: Option<Duration>,
        mut pred: impl FnMut(&ClientMsg) -> Option<T>,
    ) -> Result<T, WaitError> {
        // Scan buffered messages first.
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(|m| pred(m).is_some()) {
                let msg = pending.remove(pos).expect("position valid");
                return Ok(pred(&msg).expect("pred matched"));
            }
        }
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        loop {
            let msg = match deadline {
                None => self.rx.recv().map_err(|_| WaitError::Disconnected)?,
                Some(d) => {
                    let remaining = d
                        .checked_duration_since(std::time::Instant::now())
                        .ok_or(WaitError::Timeout)?;
                    self.rx.recv_timeout(remaining).map_err(|e| match e {
                        crossbeam::channel::RecvTimeoutError::Timeout => WaitError::Timeout,
                        crossbeam::channel::RecvTimeoutError::Disconnected => {
                            WaitError::Disconnected
                        }
                    })?
                }
            };
            if let Some(v) = pred(&msg) {
                return Ok(v);
            }
            self.pending.borrow_mut().push_back(msg);
        }
    }

    /// Read results from the workers holding them (data plane), every
    /// request out before the first reply is awaited. A holder that hung
    /// up is a [`crate::ErrorCause::PeerLost`] error, so callers can tell it
    /// from an ordinary task failure.
    fn fetch_results(&self, wants: Vec<(Key, Vec<WorkerId>)>) -> Result<Vec<Datum>, TaskError> {
        let got = |key: &Key, _, t0, value: &Datum| {
            self.stats.record(MsgClass::GatherData, value.nbytes());
            self.tracer
                .span(EventKind::GatherToClient, t0, Some(key), value.nbytes());
        };
        let get = |key, reply| DataMsg::Get { key, reply };
        let fetched = self.endpoint.fetch(wants, get, &self.tracer, |_| None, got);
        fetched.map_err(|(error, _)| error)
    }

    // ---- out-of-band proxy plane -------------------------------------------

    /// Publish `value` out-of-band if the store config says so: put the
    /// payload on a worker's object store (data lane) and return a
    /// [`DatumRef`] handle for the control path. Values the config keeps
    /// inline (proxies off, scalars, small arrays) come back unchanged.
    fn publish_proxy(&self, value: Datum) -> Datum {
        if self.store.keep_inline(&value) {
            return value;
        }
        let Datum::Array(array) = &value else {
            unreachable!("keep_inline admits only arrays to the proxy plane");
        };
        let seq = self.proxy_seq.fetch_add(1, Ordering::Relaxed);
        let key = self.scope(Key::new(format!("proxy:c{}:{}", self.id, seq)));
        let holder =
            self.scatter_cursor.fetch_add(1, Ordering::Relaxed) % self.endpoint.n_workers();
        let shape = array.shape().to_vec();
        let nbytes = value.nbytes();
        let put = |ack| DataMsg::Put {
            key: key.clone(),
            value,
            ack,
        };
        // Wait for the store to own the payload before the handle travels the
        // control path: a consumer must never resolve a handle into a miss.
        self.endpoint.request(holder, put).recv();
        self.stats.inc(Metric::ProxyPuts);
        self.stats.add(Metric::ProxyPutBytes, nbytes);
        Datum::Ref(DatumRef {
            key,
            shape,
            nbytes,
            holder,
            epoch: seq as u64,
        })
    }

    /// Resolve the [`DatumRef`] handles inside `value` over the data lane
    /// ([`resolve_refs`]). A holder that hung up, or no longer has the
    /// payload, surfaces as [`WaitError::PeerLost`], never as a hang: the
    /// data is lost either way.
    fn resolve_handles(&self, value: &Datum) -> Result<Datum, WaitError> {
        resolve_refs(&self.endpoint, value, &self.stats, &self.tracer, |_| None)
            .map_err(|_| WaitError::PeerLost)
    }

    // ---- variables ---------------------------------------------------------

    /// Set a distributed variable. With proxies enabled in the cluster's
    /// [`StoreConfig`], large array values are published to a worker store
    /// and only a handle rides the scheduler lane.
    pub fn var_set(&self, name: &str, value: Datum) {
        let value = self.publish_proxy(value);
        self.send_sched(SchedMsg::VariableSet {
            name: name.to_string(),
            value,
        });
    }

    /// Blocking read of a variable (waits for it to be set). Proxy handles
    /// resolve transparently to their payloads.
    pub fn var_get(&self, name: &str) -> Result<Datum, WaitError> {
        self.resolve_handles(&self.var_get_raw(name)?)
    }

    /// Blocking read of a variable *without* proxy resolution: a proxied
    /// variable comes back as its [`DatumRef`] handle. This is what actually
    /// travelled the control path — introspection and tests use it to see
    /// handles (and their holders) directly.
    pub fn var_get_raw(&self, name: &str) -> Result<Datum, WaitError> {
        self.send_sched(SchedMsg::VariableGet {
            client: self.id,
            name: name.to_string(),
            wait: true,
        });
        self.wait_msg(None, |m| match m {
            ClientMsg::VariableValue {
                name: n,
                value,
                found: true,
            } if n == name => Some(value.clone()),
            _ => None,
        })
    }

    /// Non-blocking read of a variable. Proxy handles resolve transparently.
    pub fn var_try_get(&self, name: &str) -> Result<Option<Datum>, WaitError> {
        self.send_sched(SchedMsg::VariableGet {
            client: self.id,
            name: name.to_string(),
            wait: false,
        });
        let value = self.wait_msg(None, |m| match m {
            ClientMsg::VariableValue {
                name: n,
                value,
                found,
            } if n == name => Some(found.then(|| value.clone())),
            _ => None,
        })?;
        value.map(|v| self.resolve_handles(&v)).transpose()
    }

    /// Delete a variable.
    pub fn var_del(&self, name: &str) {
        self.send_sched(SchedMsg::VariableDel {
            name: name.to_string(),
        });
    }

    /// Handle for a named distributed variable.
    pub fn variable<'a>(&'a self, name: &str) -> Variable<'a> {
        Variable {
            client: self,
            name: name.to_string(),
        }
    }

    // ---- queues -------------------------------------------------------------

    /// Push onto a named distributed queue. With proxies enabled, large
    /// array items are published out-of-band and only a handle is queued.
    pub fn q_push(&self, name: &str, value: Datum) {
        self.tracer.instant(EventKind::QueueOp, None, 0);
        let value = self.publish_proxy(value);
        self.send_sched(SchedMsg::QueuePush {
            name: name.to_string(),
            value,
        });
    }

    /// Blocking pop from a named queue. A popped proxy handle resolves to
    /// its payload, then the store entry is deleted: queue items are
    /// consumed exactly once, so the pop owns the payload.
    pub fn q_pop(&self, name: &str) -> Result<Datum, WaitError> {
        self.tracer.instant(EventKind::QueueOp, None, 1);
        self.send_sched(SchedMsg::QueuePop {
            client: self.id,
            name: name.to_string(),
        });
        let value = self.wait_msg(None, |m| match m {
            ClientMsg::QueueItem { name: n, value } if n == name => Some(value.clone()),
            _ => None,
        })?;
        let resolved = self.resolve_handles(&value)?;
        if let Datum::Ref(handle) = &value {
            self.endpoint.send_data(
                handle.holder,
                DataMsg::Delete {
                    keys: vec![handle.key.clone()],
                },
            );
        }
        Ok(resolved)
    }

    /// Handle for a named distributed queue.
    pub fn queue<'a>(&'a self, name: &str) -> DQueue<'a> {
        DQueue {
            client: self,
            name: name.to_string(),
        }
    }

    /// Test hook: drop this client *without* the disconnect goodbye, as if
    /// its process died. The heartbeat pinger still stops (a dead process
    /// sends no pings), so the scheduler's liveness sweep — not an orderly
    /// teardown — must reclaim everything the client left behind.
    #[doc(hidden)]
    pub fn simulate_death(self) {
        self.dead.set(true);
        drop(self);
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Stop and *join* the pinger first: once drop returns, no thread is
        // left pinging on behalf of a client that said goodbye (a trailing
        // ping would re-arm liveness tracking until the timeout fired).
        if let Some(pinger) = self.heartbeat.take() {
            pinger.stop();
        }
        if !self.dead.get() {
            self.send_sched(SchedMsg::ClientDisconnect { client: self.id });
        }
        self.endpoint.unregister_client(self.id);
    }
}

/// Errors surfaced by [`Client::try_submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The scheduler's admission control rejected the graph: accepting it
    /// would push this session past its in-flight task cap. `inflight` is
    /// the session's in-flight count at rejection time; retry once some of
    /// it completes.
    Rejected { inflight: u64, cap: u64 },
    /// The notification channel failed while waiting for the ack.
    Channel(WaitError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected { inflight, cap } => write!(
                f,
                "admission rejected: session has {inflight} tasks in flight (cap {cap})"
            ),
            SubmitError::Channel(e) => write!(f, "submission ack failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Errors while waiting on cluster notifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitError {
    /// The scheduler hung up (cluster shut down).
    Disconnected,
    /// The caller-provided timeout elapsed.
    Timeout,
    /// A proxied payload could not be resolved: its holder died (or the
    /// entry was deleted) between publication and this read.
    PeerLost,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::Disconnected => write!(f, "cluster disconnected"),
            WaitError::Timeout => write!(f, "timed out"),
            WaitError::PeerLost => write!(f, "proxy holder hung up [peer lost]"),
        }
    }
}

impl std::error::Error for WaitError {}

impl DFuture<'_> {
    /// The key this future resolves.
    pub fn key(&self) -> &Key {
        &self.key
    }

    /// Block until the task completes and fetch its value.
    pub fn result(&self) -> Result<Datum, TaskError> {
        self.result_impl(None)
    }

    /// Like [`DFuture::result`] with a timeout.
    pub fn result_timeout(&self, timeout: Duration) -> Result<Datum, TaskError> {
        self.result_impl(Some(timeout))
    }

    /// Wait for completion without fetching the payload; returns the worker
    /// holding the result.
    pub fn wait(&self) -> Result<WorkerId, TaskError> {
        self.wait_impl(None)
    }

    fn wait_impl(&self, timeout: Option<Duration>) -> Result<WorkerId, TaskError> {
        self.client.send_sched(SchedMsg::WantResult {
            client: self.client.id,
            key: self.key.clone(),
        });
        let key = self.key.clone();
        match self.client.wait_msg(timeout, move |m| match m {
            ClientMsg::KeyReady { key: k, location } if *k == key => Some(location.clone()),
            _ => None,
        }) {
            Ok(Ok(worker)) => Ok(worker),
            Ok(Err(e)) => Err(e),
            Err(we) => Err(TaskError::new(self.key.clone(), we.to_string())),
        }
    }

    fn result_impl(&self, timeout: Option<Duration>) -> Result<Datum, TaskError> {
        let worker = self.wait_impl(timeout)?;
        let want = (self.key.clone(), vec![worker]);
        Ok(self.client.fetch_results(vec![want])?.remove(0))
    }
}

/// Named distributed variable (paper §2.1: the new protocol uses **two
/// variables** for contract setup instead of `nbr_ranks` queues).
pub struct Variable<'a> {
    client: &'a Client,
    name: String,
}

impl Variable<'_> {
    /// Set the value.
    pub fn set(&self, value: Datum) {
        self.client.var_set(&self.name, value);
    }

    /// Blocking get.
    pub fn get(&self) -> Result<Datum, WaitError> {
        self.client.var_get(&self.name)
    }

    /// Non-blocking get.
    pub fn try_get(&self) -> Result<Option<Datum>, WaitError> {
        self.client.var_try_get(&self.name)
    }

    /// Delete the variable.
    pub fn delete(&self) {
        self.client.var_del(&self.name);
    }
}

/// Named distributed queue (used by the DEISA1 per-rank metadata protocol).
pub struct DQueue<'a> {
    client: &'a Client,
    name: String,
}

impl DQueue<'_> {
    /// Push an item.
    pub fn push(&self, value: Datum) {
        self.client.q_push(&self.name, value);
    }

    /// Blocking pop.
    pub fn pop(&self) -> Result<Datum, WaitError> {
        self.client.q_pop(&self.name)
    }
}
