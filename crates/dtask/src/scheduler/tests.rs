//! Unit tests of the scheduler core, stepped by hand: no thread, no channel,
//! no sleep. Time is whatever the test says it is, and every outbound
//! message lands in an [`Outbox`] the test reads back.

use super::*;
use std::cell::RefCell;

/// A sink that keeps everything.
#[derive(Default)]
struct Outbox {
    exec: RefCell<Vec<(WorkerId, ExecMsg)>>,
    data: RefCell<Vec<(WorkerId, DataMsg)>>,
    client: RefCell<Vec<(ClientId, ClientMsg)>>,
}

impl Sink for Outbox {
    fn send_exec(&self, worker: WorkerId, msg: ExecMsg) {
        self.exec.borrow_mut().push((worker, msg));
    }
    fn send_data(&self, worker: WorkerId, msg: DataMsg) {
        self.data.borrow_mut().push((worker, msg));
    }
    fn send_client(&self, client: ClientId, msg: ClientMsg) {
        self.client.borrow_mut().push((client, msg));
    }
}

impl TaskTable {
    /// Number of tasks held.
    fn len(&self) -> usize {
        self.index.len()
    }
}

/// Tests read entries by key.
impl std::ops::Index<&Key> for TaskTable {
    type Output = TaskEntry;

    fn index(&self, key: &Key) -> &TaskEntry {
        self.id(key)
            .and_then(|id| self.get(id))
            .expect("a held key")
    }
}

const CLIENT: ClientId = 7;
const MS: Duration = Duration::from_millis(1);

/// A core with one connected client, plus the origin of its virtual clock.
struct Rig {
    sched: Scheduler<Outbox>,
    t0: Instant,
    stats: Arc<SchedulerStats>,
}

fn rig(n_workers: usize, liveness: LivenessConfig, policy: PolicyConfig) -> Rig {
    let t0 = Instant::now();
    let stats = Arc::new(SchedulerStats::new());
    let sched = Scheduler::new(
        Outbox::default(),
        n_workers,
        1,
        liveness,
        policy,
        Arc::clone(&stats),
        TraceHandle::disabled(),
        None,
        t0,
    );
    let mut rig = Rig { sched, t0, stats };
    rig.step(vec![SchedMsg::ClientConnect { client: CLIENT }]);
    rig
}

fn plain(n_workers: usize) -> Rig {
    rig(
        n_workers,
        LivenessConfig::default(),
        PolicyConfig::default(),
    )
}

fn watched(n_workers: usize, timeout: Duration) -> Rig {
    rig(
        n_workers,
        LivenessConfig {
            heartbeat_timeout: Some(timeout),
            ..LivenessConfig::default()
        },
        PolicyConfig::default(),
    )
}

impl Rig {
    /// Step at the clock's origin.
    fn step(&mut self, msgs: Vec<SchedMsg>) -> StepReport {
        self.step_at(Duration::ZERO, msgs)
    }

    /// Step at `t0 + offset`.
    fn step_at(&mut self, offset: Duration, mut msgs: Vec<SchedMsg>) -> StepReport {
        let report = self.sched.step(&mut msgs, self.t0 + offset);
        assert!(msgs.is_empty(), "a step drains its inbox");
        report
    }

    /// Every `(worker, task key)` assigned since the last call, in order.
    fn assigned(&self) -> Vec<(WorkerId, String)> {
        let mut out = Vec::new();
        for (worker, msg) in self.sched.sink().exec.borrow_mut().drain(..) {
            match msg {
                ExecMsg::Execute(a) => out.push((worker, a.spec.key.as_str().to_owned())),
                ExecMsg::ExecuteBatch { tasks } => out.extend(
                    tasks
                        .into_iter()
                        .map(|a| (worker, a.spec.key.as_str().to_owned())),
                ),
                ExecMsg::Steal { .. } | ExecMsg::Shutdown => {}
            }
        }
        out
    }

    /// Every steal probe sent since the last call: `(victim, thief, max)`.
    fn probes(&self) -> Vec<(WorkerId, WorkerId, usize)> {
        let mut out = Vec::new();
        self.sched.sink().exec.borrow_mut().retain(|(victim, msg)| {
            if let ExecMsg::Steal { thief, max } = msg {
                out.push((*victim, *thief, *max));
                return false;
            }
            true
        });
        out
    }

    /// Every `KeyReady` sent to [`CLIENT`] since the last call.
    fn ready(&self) -> Vec<(String, Result<WorkerId, TaskError>)> {
        let mut out = Vec::new();
        for (client, msg) in self.sched.sink().client.borrow_mut().drain(..) {
            assert_eq!(client, CLIENT);
            if let ClientMsg::KeyReady { key, location } = msg {
                out.push((key.as_str().to_owned(), location));
            }
        }
        out
    }

    /// Every key a `Delete` named since the last call, with its worker.
    fn deleted(&self) -> Vec<(WorkerId, String)> {
        let mut out = Vec::new();
        for (worker, msg) in self.sched.sink().data.borrow_mut().drain(..) {
            if let DataMsg::Delete { keys } = msg {
                out.extend(keys.iter().map(|k| (worker, k.as_str().to_owned())));
            }
        }
        out
    }

    fn who_has(&self, key: &str) -> Vec<WorkerId> {
        self.sched.tasks[&Key::new(key)].who_has.to_vec()
    }

    fn state(&self, key: &str) -> Option<TaskState> {
        let tasks = &self.sched.tasks;
        let id = tasks.id(&Key::new(key))?;
        tasks.get(id).map(|e| e.state)
    }

    /// The keys wired as dependents of `key`, sorted (released ones are
    /// stale ids and resolve to nothing).
    fn dependents(&self, key: &str) -> Vec<String> {
        let tasks = &self.sched.tasks;
        let mut out: Vec<String> = tasks[&Key::new(key)]
            .dependents
            .iter()
            .filter_map(|&d| tasks.get(d))
            .map(|e| e.key.as_str().to_owned())
            .collect();
        out.sort();
        out
    }
}

fn spec(key: &str, deps: &[&str]) -> TaskSpec {
    TaskSpec::new(
        key,
        "identity",
        Datum::Null,
        deps.iter().map(Key::new).collect(),
    )
}

fn submit(specs: Vec<TaskSpec>) -> SchedMsg {
    SchedMsg::SubmitGraph {
        client: CLIENT,
        specs,
    }
}

fn data(key: &str, worker: WorkerId, external: bool) -> SchedMsg {
    SchedMsg::UpdateData {
        client: CLIENT,
        entries: vec![(Key::new(key), worker, 8)],
        external,
    }
}

fn finished(key: &str, worker: WorkerId) -> SchedMsg {
    SchedMsg::TaskFinished {
        worker,
        key: Key::new(key),
        nbytes: 8,
    }
}

fn want(key: &str) -> SchedMsg {
    SchedMsg::WantResult {
        client: CLIENT,
        key: Key::new(key),
    }
}

fn release(key: &str) -> SchedMsg {
    SchedMsg::ReleaseKeys {
        keys: vec![Key::new(key)],
    }
}

// ---- (i) the paper's external-task cascade ----------------------------------

#[test]
fn external_data_releases_a_graph_submitted_before_it() {
    let mut r = plain(2);
    r.step(vec![SchedMsg::RegisterExternal {
        client: CLIENT,
        keys: vec![Key::new("ext-0"), Key::new("ext-1")],
    }]);
    let report = r.step(vec![submit(vec![spec("sum", &["ext-0", "ext-1"])])]);
    assert!(
        report.placed,
        "a submission always asks for a placement pass"
    );
    assert!(r.assigned().is_empty(), "the graph must sit in Waiting");
    assert_eq!(r.state("sum"), Some(TaskState::Waiting));
    r.step(vec![data("ext-0", 0, true)]);
    assert!(r.assigned().is_empty(), "one of two inputs is not enough");
    r.step(vec![data("ext-1", 1, true)]);
    let assigned = r.assigned();
    assert_eq!(assigned.len(), 1, "exactly one Execute: {assigned:?}");
    assert_eq!(assigned[0].1, "sum");
    assert_eq!(r.state("sum"), Some(TaskState::Processing));
    assert_eq!(r.stats.count(MsgClass::UpdateDataExternal), 2);
    assert_eq!(r.stats.count(MsgClass::RegisterExternal), 1);
}

#[test]
fn a_whole_batch_pays_one_placement_pass() {
    let mut r = plain(2);
    r.step(vec![
        submit(vec![spec("a", &[]), spec("b", &["a"]), spec("c", &["a"])]),
        want("c"),
    ]);
    let w = r.assigned()[0].0;
    // `a` finishing readies both dependents; they leave in one pass.
    r.step(vec![finished("a", w)]);
    let mut keys: Vec<_> = r.assigned().into_iter().map(|(_, k)| k).collect();
    keys.sort();
    assert_eq!(keys, ["b", "c"]);
    assert_eq!(r.stats.assign_tasks(), 3);
    assert!(r.ready().is_empty(), "c is not done yet");
    r.step(vec![finished("c", 0)]);
    assert_eq!(r.ready(), [("c".to_owned(), Ok(0))]);
}

#[test]
fn resubmitted_graph_reuses_memory_results() {
    let mut r = plain(1);
    let graph = || vec![spec("base", &[]), spec("dbl", &["base", "base"])];
    r.step(vec![submit(graph())]);
    assert_eq!(r.assigned(), [(0, "base".to_owned())]);
    r.step(vec![finished("base", 0)]);
    assert_eq!(r.assigned(), [(0, "dbl".to_owned())]);
    r.step(vec![finished("dbl", 0)]);
    r.step(vec![submit(graph()), want("dbl")]);
    assert!(r.assigned().is_empty(), "nothing recomputes");
    assert_eq!(r.ready(), [("dbl".to_owned(), Ok(0))]);
}

#[test]
fn shutdown_drops_the_rest_of_the_batch() {
    let mut r = plain(1);
    let report = r.step(vec![SchedMsg::Shutdown, submit(vec![spec("late", &[])])]);
    assert!(report.shutdown);
    assert_eq!(r.state("late"), None);
    assert!(r.assigned().is_empty());
}

#[test]
fn an_erred_report_is_counted_once_and_a_finished_one_not_at_all() {
    let mut r = plain(1);
    r.step(vec![submit(vec![spec("ok", &[]), spec("bad", &[])])]);
    assert_eq!(r.assigned().len(), 2);
    r.step(vec![finished("ok", 0)]);
    assert_eq!(r.stats.tasks_erred(), 0);
    let error = TaskError::new(Key::new("bad"), "boom");
    r.step(vec![SchedMsg::TaskErred {
        worker: 0,
        stored_key: Key::new("bad"),
        error,
        failed_peer: None,
    }]);
    assert_eq!(r.stats.tasks_erred(), 1);
    assert_eq!(r.state("bad"), Some(TaskState::Erred));
    assert_eq!(
        r.stats.count(MsgClass::TaskReport),
        2,
        "both reports keep their one class"
    );
}

// ---- (ii) heartbeats and the liveness sweep ---------------------------------

#[test]
fn every_heartbeat_is_counted_however_the_batches_fall() {
    // The deterministic form of the DEISA1 window count: N pings in, N
    // counted, whether they arrive one per step or all in one burst.
    let mut r = watched(1, 100 * MS);
    let ping = || SchedMsg::Heartbeat { client: CLIENT };
    for i in 0..5 {
        r.step_at(i * MS, vec![ping()]);
    }
    r.step_at(6 * MS, (0..12).map(|_| ping()).collect());
    assert_eq!(r.stats.count(MsgClass::Heartbeat), 17);
    assert_eq!(r.stats.peers_tracked(), 1);
    assert_eq!(r.stats.peers_lost(), 0);
}

#[test]
fn silent_client_dies_exactly_past_the_timeout() {
    let timeout = 100 * MS;
    let ping = vec![SchedMsg::Heartbeat { client: CLIENT }];
    // Swept at exactly the timeout: still alive.
    let mut r = watched(1, timeout);
    r.step(ping.clone());
    r.step_at(timeout, vec![]);
    assert_eq!(r.stats.peers_lost(), 0);
    assert!(r.sched.clients.contains(&CLIENT));
    // Swept one nanosecond later: dead, and dropped like a disconnect.
    let mut r = watched(1, timeout);
    r.step(ping);
    r.step_at(timeout + Duration::from_nanos(1), vec![]);
    assert_eq!(r.stats.peers_lost(), 1);
    assert!(!r.sched.clients.contains(&CLIENT));
}

#[test]
fn silent_worker_dies_past_the_timeout_and_a_quiet_one_never() {
    let timeout = 100 * MS;
    let mut r = watched(2, timeout);
    // Worker 1 never heartbeats: untracked, so silence is not death.
    r.step(vec![SchedMsg::WorkerHeartbeat { worker: 0 }]);
    assert_eq!(
        r.sched.wakeup_deadline(),
        Some(r.t0 + timeout / 4),
        "the driver must wake for the next sweep"
    );
    r.step_at(timeout, vec![]);
    assert!(r.sched.workers[0].alive);
    r.step_at(2 * timeout, vec![]);
    assert!(!r.sched.workers[0].alive);
    assert!(r.sched.workers[1].alive);
    assert_eq!(r.stats.peers_lost(), 1);
}

#[test]
fn nothing_is_ever_due_with_liveness_off() {
    let mut r = plain(1);
    r.step(vec![SchedMsg::Heartbeat { client: CLIENT }]);
    assert_eq!(r.sched.wakeup_deadline(), None);
    r.step_at(Duration::from_secs(3600), vec![]);
    assert_eq!(r.stats.peers_lost(), 0);
}

// ---- satellite bugfix: late AddReplica from a dead worker -------------------

#[test]
fn late_add_replica_from_a_dead_worker_is_dropped() {
    let timeout = 100 * MS;
    let mut r = watched(2, timeout);
    r.step(vec![
        data("x", 1, false),
        data("x", 0, false),
        SchedMsg::WorkerHeartbeat { worker: 0 },
        SchedMsg::WorkerHeartbeat { worker: 1 },
    ]);
    assert_eq!(r.who_has("x"), [1, 0]);
    // Worker 0 keeps pinging, worker 1 goes silent and is swept dead.
    r.step_at(timeout, vec![SchedMsg::WorkerHeartbeat { worker: 0 }]);
    r.step_at(2 * timeout, vec![]);
    assert!(!r.sched.workers[1].alive);
    assert_eq!(r.who_has("x"), [0]);
    // Its gather report was already in flight: bare and session-scoped.
    let late = || SchedMsg::AddReplica {
        worker: 1,
        entries: vec![(Key::new("x"), 8)],
    };
    r.step_at(
        2 * timeout,
        vec![
            late(),
            SchedMsg::Scoped {
                session: DEFAULT_SESSION,
                inner: Box::new(late()),
            },
            want("x"),
        ],
    );
    assert_eq!(r.who_has("x"), [0], "the dead worker re-entered who_has");
    assert_eq!(r.ready(), [("x".to_owned(), Ok(0))]);
    assert_eq!(r.stats.count(MsgClass::AddReplica), 2);
}

// ---- a retry cannot recompute a released input -----------------------------

#[test]
fn retried_task_whose_input_was_released_errs_instead_of_parking() {
    let mut r = plain(2);
    r.step(vec![
        data("d", 0, false),
        submit(vec![spec("t", &["d"])]),
        want("t"),
    ]);
    let assigned = r.assigned();
    assert_eq!(assigned.len(), 1, "{assigned:?}");
    let worker = assigned[0].0;
    r.step(vec![release("d")]);
    assert_eq!(r.state("d"), None);
    // The gather hit a dead peer: a retry cannot recompute a released input.
    r.step(vec![SchedMsg::TaskErred {
        worker,
        stored_key: Key::new("t"),
        error: TaskError::new(Key::new("t"), "holder hung up").with_cause(ErrorCause::PeerLost),
        failed_peer: None,
    }]);
    let ready = r.ready();
    assert_eq!(
        ready.len(),
        1,
        "the client's future must resolve: {ready:?}"
    );
    assert_eq!(ready[0].0, "t");
    let err = ready[0].1.as_ref().unwrap_err();
    assert_eq!(err.cause, ErrorCause::PeerLost, "{err:?}");
    assert_eq!(r.state("t"), Some(TaskState::Erred));
}

// ---- (iii) stealing ----------------------------------------------------------

#[test]
fn steal_probes_follow_surplus_and_never_overlap() {
    let policy = PolicyConfig {
        steal_poll: Some(MS),
        ..PolicyConfig::locality()
    };
    let mut r = rig(2, LivenessConfig::default(), policy);
    // No surplus anywhere: an immediate miss, no probe.
    r.step(vec![SchedMsg::StealRequest { worker: 1 }]);
    assert!(r.probes().is_empty());
    assert_eq!(r.stats.steal_misses(), 1);
    // Byte gravity herds five tasks onto the one-slot holder of `hot`.
    r.step(vec![data("hot", 0, false)]);
    let keys: Vec<String> = (0..5).map(|i| format!("t{i}")).collect();
    r.step(vec![submit(
        keys.iter().map(|k| spec(k, &["hot"])).collect(),
    )]);
    assert!(r.assigned().iter().all(|(w, _)| *w == 0));
    assert_eq!(r.sched.workers[0].processing, 5);
    // Surplus 4: one probe for half of it.
    r.step(vec![SchedMsg::StealRequest { worker: 1 }]);
    assert_eq!(r.probes(), [(0, 1, 2)]);
    // The thief polls again before the victim answered: no second probe.
    r.step(vec![SchedMsg::StealRequest { worker: 1 }]);
    assert!(r.probes().is_empty());
    assert_eq!(r.stats.steal_misses(), 2);
    // The victim forwards two: they re-point, and the guard lifts.
    r.step(vec![SchedMsg::Stolen {
        victim: 0,
        thief: 1,
        keys: vec![Key::new("t0"), Key::new("t1")],
    }]);
    assert_eq!(r.stats.tasks_stolen(), 2);
    assert_eq!(r.sched.workers[0].processing, 3);
    assert_eq!(r.sched.workers[1].processing, 2);
    assert_eq!(r.sched.tasks[&Key::new("t0")].assigned_to, Some(1));
    r.step(vec![SchedMsg::StealRequest { worker: 1 }]);
    assert_eq!(r.probes(), [(0, 1, 1)], "surplus is 2 now");
    assert_eq!(r.stats.steal_requests(), 4);
}

// ---- (iv) release -------------------------------------------------------------

#[test]
fn release_fails_waiting_dependents() {
    let mut r = plain(1);
    r.step(vec![
        SchedMsg::RegisterExternal {
            client: CLIENT,
            keys: vec![Key::new("ext")],
        },
        submit(vec![spec("w", &["ext"])]),
    ]);
    r.step(vec![release("ext"), want("w")]);
    let ready = r.ready();
    assert_eq!(ready.len(), 1);
    let err = ready[0].1.as_ref().unwrap_err();
    assert!(err.message.contains("released"), "{}", err.message);
    assert_eq!(r.state("ext"), None);
}

#[test]
fn release_deletes_every_replica_and_forgets_the_key() {
    let mut r = plain(2);
    r.step(vec![data("x", 0, false), data("x", 1, false)]);
    r.step(vec![release("x"), want("x")]);
    let mut deleted = r.deleted();
    deleted.sort();
    assert_eq!(deleted, [(0, "x".to_owned()), (1, "x".to_owned())]);
    assert!(r.ready()[0].1.is_err(), "a released key is unknown");
}

#[test]
fn released_key_can_be_depended_on_again() {
    let mut r = plain(1);
    r.step(vec![data("x", 0, false), submit(vec![spec("y", &["x"])])]);
    assert_eq!(r.assigned(), [(0, "y".to_owned())]);
    r.step(vec![finished("y", 0), release("x")]);
    // A new graph on the released key waits for fresh data: the dependency
    // is an implicit external task, not an error.
    r.step(vec![submit(vec![spec("y2", &["x"])])]);
    assert!(r.assigned().is_empty());
    assert_eq!(r.state("x"), Some(TaskState::External));
    r.step(vec![data("x", 0, true)]);
    assert_eq!(r.assigned(), [(0, "y2".to_owned())]);
}

#[test]
fn release_unlinks_dependency_edges() {
    let mut r = plain(1);
    let graph = || vec![spec("base", &[]), spec("mid", &["base"])];
    r.step(vec![submit(graph())]);
    r.step(vec![finished("base", 0)]);
    r.step(vec![finished("mid", 0)]);
    r.assigned();
    r.step(vec![release("mid")]);
    assert!(r.sched.tasks[&Key::new("base")].dependents.is_empty());
    // `base` is still in memory and is reused; `mid` recomputes, once.
    r.step(vec![submit(graph())]);
    assert_eq!(r.assigned(), [(0, "mid".to_owned())]);
    assert_eq!(r.sched.tasks[&Key::new("base")].dependents.len(), 1);
}

#[test]
fn a_finish_report_after_its_release_deletes_the_result() {
    let mut r = plain(1);
    r.step(vec![submit(vec![spec("a", &[])])]);
    assert_eq!(r.assigned(), [(0, "a".to_owned())]);
    r.step(vec![release("a")]);
    assert!(r.deleted().is_empty(), "no worker holds `a` yet");
    // The worker ran `a` anyway: its report must not bring `a` back.
    r.step(vec![finished("a", 0)]);
    assert_eq!(r.sched.tasks.len(), 0, "a released key stays released");
    assert_eq!(r.deleted(), [(0, "a".to_owned())]);
    assert_eq!(r.sched.workers[0].processing, 0);
}

#[test]
fn reports_for_a_torn_down_session_delete_their_data() {
    let mut r = plain(1);
    let (tenant, session) = (9, 3);
    let scoped = |inner| SchedMsg::Scoped {
        session,
        inner: Box::new(inner),
    };
    let (ran, published) = (Key::new("a"), Key::new("b"));
    let (ran, published) = (ran.with_session(session), published.with_session(session));
    r.step(vec![
        scoped(SchedMsg::ClientConnect { client: tenant }),
        scoped(SchedMsg::SubmitGraph {
            client: tenant,
            specs: vec![TaskSpec::new(ran.clone(), "identity", Datum::Null, vec![])],
        }),
    ]);
    assert_eq!(r.assigned(), [(0, "a".to_owned())]);
    r.step(vec![scoped(SchedMsg::ClientDisconnect { client: tenant })]);
    assert_eq!(r.sched.tasks.len(), 0, "the teardown releases the session");
    assert!(r.deleted().is_empty(), "no worker holds `a` yet");
    // The task's report and a block the tenant published land after the
    // teardown: neither makes a task, and the worker drops both.
    r.step(vec![
        SchedMsg::TaskFinished {
            worker: 0,
            key: ran,
            nbytes: 8,
        },
        SchedMsg::UpdateData {
            client: tenant,
            entries: vec![(published, 0, 8)],
            external: true,
        },
    ]);
    assert_eq!(r.sched.tasks.len(), 0);
    assert_eq!(r.deleted(), [(0, "a".to_owned()), (0, "b".to_owned())]);
}

#[test]
fn a_released_key_leaves_no_holder_of_its_text() {
    let mut r = plain(2);
    let keys: Vec<Key> = (0..6).map(|i| Key::new(format!("k{i}"))).collect();
    // A chain k0 <- k1 <- ... <- k5, run to the end and then released.
    let specs = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let deps = keys[..i].last().cloned().into_iter().collect();
            TaskSpec::new(key.clone(), "identity", Datum::Null, deps)
        })
        .collect();
    r.step(vec![
        submit(specs),
        SchedMsg::WantResult {
            client: CLIENT,
            key: keys[5].clone(),
        },
    ]);
    loop {
        let placed = r.assigned();
        if placed.is_empty() {
            break;
        }
        r.step(placed.iter().map(|(w, k)| finished(k, *w)).collect());
    }
    assert_eq!(r.ready().len(), 1);
    r.step(vec![SchedMsg::ReleaseKeys { keys: keys.clone() }]);
    assert_eq!(r.deleted().len(), 6);
    assert_eq!(r.sched.tasks.len(), 0);
    // The sink's messages are drained; the test's own keys are all that is
    // left of each text.
    for key in &keys {
        assert_eq!(key.holders(), 1, "{key:?}");
    }
}

#[test]
fn a_small_list_reads_as_the_slice_it_was_given() {
    let mut list = SmallList::default();
    assert!(list.is_empty());
    list.push(3);
    assert!(
        matches!(list, SmallList::One(3)),
        "one element stays inline"
    );
    list.push(4);
    list.push(5);
    assert_eq!(&list[..], [3, 4, 5]);
    list.retain(|&x| x != 4);
    assert_eq!(&list[..], [3, 5]);
    let mut one = SmallList::from(&[7][..]);
    one.retain(|&x| x != 7);
    assert!(matches!(one, SmallList::Empty));
    assert_eq!(&SmallList::from(&[1, 2][..])[..], [1, 2]);
}

// ---- (v) submission ------------------------------------------------------------

#[test]
fn repeated_specs_wire_each_edge_once() {
    let mut r = plain(1);
    r.step(vec![SchedMsg::RegisterExternal {
        client: CLIENT,
        keys: vec![Key::new("ext")],
    }]);
    // `dup` is listed twice in one graph; `w` is still waiting when the
    // second graph submits it again.
    r.step(vec![submit(vec![
        spec("dup", &["ext"]),
        spec("w", &["ext", "dup"]),
        spec("dup", &["ext"]),
    ])]);
    r.step(vec![submit(vec![spec("w", &["ext", "dup"])])]);
    assert_eq!(r.dependents("ext"), ["dup", "w"]);
    assert_eq!(r.dependents("dup"), ["w"]);
    // A second `ext → w` edge would decrement `w` twice here and run it
    // before `dup` is done.
    r.step(vec![data("ext", 0, true)]);
    assert_eq!(r.assigned(), [(0, "dup".to_owned())]);
    assert_eq!(r.state("w"), Some(TaskState::Waiting));
    r.step(vec![finished("dup", 0), want("w")]);
    assert_eq!(r.assigned(), [(0, "w".to_owned())]);
    r.step(vec![finished("w", 0)]);
    assert_eq!(r.ready(), [("w".to_owned(), Ok(0))]);
    assert_eq!(r.stats.assign_tasks(), 2);
}

/// Nanoseconds to submit tasks `t{from}..t{to}` into `r`, each depending on
/// one of four external blocks that have no data yet, so nothing is placed.
fn submit_ns(r: &mut Rig, from: usize, to: usize) -> f64 {
    let specs = (from..to)
        .map(|i| spec(&format!("t{i}"), &[&format!("blk-{}", i % 4)]))
        .collect();
    let start = Instant::now();
    r.step(vec![submit(specs)]);
    start.elapsed().as_nanos() as f64
}

#[test]
fn submission_cost_does_not_grow_with_fan_out() {
    // Tasks 12k..14k of a fan-out out of four blocks cost what tasks 0..2k
    // did when each edge costs the same (0.7–1.2×), and 3–6× when each edge
    // scans the block's dependents so far. Both timed submissions are the
    // same size, so a busy machine slows both; best of five. The window
    // stops short of 14 336 tasks, where the task table doubles.
    let (mut first, mut last) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let mut r = plain(2);
        r.step(vec![SchedMsg::RegisterExternal {
            client: CLIENT,
            keys: (0..4).map(|b| Key::new(format!("blk-{b}"))).collect(),
        }]);
        first = first.min(submit_ns(&mut r, 0, 2_000));
        submit_ns(&mut r, 2_000, 12_000);
        last = last.min(submit_ns(&mut r, 12_000, 14_000));
    }
    assert!(
        last < 2.0 * first,
        "tasks 12k..14k took {last:.0} ns, tasks 0..2k {first:.0} ns ({:.1}×)",
        last / first
    );
}

#[test]
fn a_released_and_resubmitted_key_is_assigned_once() {
    // The first submission's queue entry outlives the release: it must not
    // place the second submission's task a second time.
    let mut r = plain(1);
    r.step(vec![
        submit(vec![spec("a", &[])]),
        release("a"),
        submit(vec![spec("a", &[])]),
    ]);
    assert_eq!(r.assigned(), [(0, "a".to_owned())]);
    assert_eq!(r.state("a"), Some(TaskState::Processing));
}

// ---- (vi) the storm: the core's cost per task ----------------------------------

/// External-rooted chains per storm round, and links per chain; one sink
/// sums the chain tails (the shape of `dtask-bench`'s `task_storm`).
const STORM_CHAINS: usize = 64;
const STORM_LINKS: usize = 8;
/// Completion reports fed back per step.
const STORM_FINISHES_PER_STEP: usize = 4;

/// Nanoseconds spent inside [`Scheduler::step`] per phase of the storm
/// rounds, summed over rounds. The driver's own bookkeeping is not timed.
#[derive(Default)]
struct StormNs {
    submit: u128,
    arrival: u128,
    finish_place: u128,
    release: u128,
}

/// A core over two workers of two slots each, with [`CLIENT`] connected.
fn storm_rig() -> Rig {
    let t0 = Instant::now();
    let stats = Arc::new(SchedulerStats::new());
    let sched = Scheduler::new(
        Outbox::default(),
        2,
        2,
        LivenessConfig::default(),
        PolicyConfig::default(),
        Arc::clone(&stats),
        TraceHandle::disabled(),
        None,
        t0,
    );
    let mut rig = Rig { sched, t0, stats };
    rig.step(vec![SchedMsg::ClientConnect { client: CLIENT }]);
    rig
}

impl Rig {
    /// Step on `msgs` and add the time the step took to `ns`.
    fn timed_step(&mut self, msgs: Vec<SchedMsg>, ns: &mut u128) {
        let start = Instant::now();
        self.step(msgs);
        *ns += start.elapsed().as_nanos();
    }

    /// Every assignment sent since the last call, as `(worker, key)`.
    fn assigned_keys(&self) -> Vec<(WorkerId, Key)> {
        let mut out = Vec::new();
        for (worker, msg) in self.sched.sink().exec.borrow_mut().drain(..) {
            match msg {
                ExecMsg::Execute(a) => out.push((worker, a.spec.key.clone())),
                ExecMsg::ExecuteBatch { tasks } => {
                    out.extend(tasks.into_iter().map(|a| (worker, a.spec.key.clone())))
                }
                ExecMsg::Steal { .. } | ExecMsg::Shutdown => {}
            }
        }
        out
    }
}

/// One storm round, as the messages of `task_storm` reach the scheduler:
/// the client registers the 64 external keys, submits the 513 tasks and
/// waits on the sink; the blocks arrive one per step; the driver reports
/// every assignment finished on its worker, four per step; the client
/// releases every key. Asserts that each task is assigned exactly once, the
/// sink last, and that the core holds no task once the round is released.
fn storm_round(r: &mut Rig, round: usize, ns: &mut StormNs) {
    let ext: Vec<Key> = (0..STORM_CHAINS)
        .map(|c| Key::new(format!("ext-{round}-{c}")))
        .collect();
    let mut specs = Vec::with_capacity(STORM_CHAINS * STORM_LINKS + 1);
    let mut tails = Vec::with_capacity(STORM_CHAINS);
    for (c, root) in ext.iter().enumerate() {
        let mut prev = root.clone();
        for link in 0..STORM_LINKS {
            let key = Key::new(format!("bump-{round}-{c}-{link}"));
            specs.push(TaskSpec::new(key.clone(), "bump", Datum::Null, vec![prev]));
            prev = key;
        }
        tails.push(prev);
    }
    let sink = Key::new(format!("sink-{round}"));
    specs.push(TaskSpec::new(
        sink.clone(),
        "sum_scalars",
        Datum::Null,
        tails,
    ));
    let n_tasks = specs.len();
    let mut keys: Vec<Key> = specs.iter().map(|s| s.key.clone()).collect();
    keys.extend(ext.iter().cloned());

    r.timed_step(
        vec![SchedMsg::RegisterExternal {
            client: CLIENT,
            keys: ext.clone(),
        }],
        &mut ns.submit,
    );
    r.timed_step(vec![submit(specs)], &mut ns.submit);
    r.timed_step(
        vec![SchedMsg::WantResult {
            client: CLIENT,
            key: sink.clone(),
        }],
        &mut ns.submit,
    );
    // 37 is coprime with 64: every block arrives once, in an order that
    // moves from round to round.
    for i in 0..STORM_CHAINS {
        let c = (i * 37 + round) % STORM_CHAINS;
        let arrival = SchedMsg::UpdateData {
            client: CLIENT,
            entries: vec![(ext[c].clone(), c % 2, 8)],
            external: true,
        };
        r.timed_step(vec![arrival], &mut ns.arrival);
    }
    let mut pending: VecDeque<(WorkerId, Key)> = r.assigned_keys().into();
    let mut placed: Vec<Key> = pending.iter().map(|(_, k)| k.clone()).collect();
    while !pending.is_empty() {
        let take = pending.len().min(STORM_FINISHES_PER_STEP);
        let reports = pending
            .drain(..take)
            .map(|(worker, key)| SchedMsg::TaskFinished {
                worker,
                key,
                nbytes: 8,
            })
            .collect();
        r.timed_step(reports, &mut ns.finish_place);
        let next = r.assigned_keys();
        placed.extend(next.iter().map(|(_, k)| k.clone()));
        pending.extend(next);
    }
    assert_eq!(
        placed.len(),
        n_tasks,
        "round {round}: every task placed once"
    );
    assert_eq!(placed.last(), Some(&sink), "round {round}: the sink last");
    let distinct: HashSet<&Key> = placed.iter().collect();
    assert_eq!(
        distinct.len(),
        n_tasks,
        "round {round}: a task placed twice"
    );
    let ready = r.ready();
    assert_eq!(ready.len(), 1, "round {round}: {ready:?}");
    assert!(ready[0].1.is_ok(), "round {round}: {ready:?}");

    r.timed_step(vec![SchedMsg::ReleaseKeys { keys }], &mut ns.release);
    r.sched.sink().data.borrow_mut().clear();
    assert_eq!(
        r.sched.tasks.len(),
        0,
        "round {round}: tasks left after release"
    );
}

/// Run `rounds` storm rounds on one core; the per-phase step time.
fn storm(rounds: usize) -> StormNs {
    let mut r = storm_rig();
    let mut ns = StormNs::default();
    for round in 0..rounds {
        storm_round(&mut r, round, &mut ns);
    }
    ns
}

#[test]
fn storm_rounds_place_every_task_once_and_release_to_empty() {
    storm(20);
}

/// The core's cost per task, phase by phase, over 2 000 storm rounds
/// (release build; reported, not asserted):
/// `cargo test -q --release -p dtask --lib storm_core_cost -- --ignored --nocapture`
#[test]
#[ignore = "timing; run in release with --nocapture"]
fn storm_core_cost() {
    const ROUNDS: usize = 2_000;
    let ns = storm(ROUNDS);
    let tasks = (ROUNDS * (STORM_CHAINS * STORM_LINKS + 1)) as f64;
    let per = |phase: u128| phase as f64 / tasks;
    let total = ns.submit + ns.arrival + ns.finish_place + ns.release;
    println!(
        "storm core, {ROUNDS} rounds: {:.0} ns/task (submit {:.0}, external arrival {:.0}, \
         finish+place {:.0}, release {:.0})",
        per(total),
        per(ns.submit),
        per(ns.arrival),
        per(ns.finish_place),
        per(ns.release),
    );
}

/// Nanoseconds per key to release `n` waiting dependents of one external
/// block, 256 keys per `ReleaseKeys`, all in one step; best of three.
fn release_ns_per_key(n: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut r = plain(1);
        r.step(vec![SchedMsg::RegisterExternal {
            client: CLIENT,
            keys: vec![Key::new("blk")],
        }]);
        let names: Vec<String> = (0..n).map(|i| format!("d{i}")).collect();
        r.step(vec![submit(
            names.iter().map(|name| spec(name, &["blk"])).collect(),
        )]);
        let releases = names
            .chunks(256)
            .map(|chunk| SchedMsg::ReleaseKeys {
                keys: chunk.iter().map(Key::new).collect(),
            })
            .collect();
        let start = Instant::now();
        r.step(releases);
        best = best.min(start.elapsed().as_nanos() as f64 / n as f64);
        assert!(r.dependents("blk").is_empty());
    }
    best
}

#[test]
fn releasing_the_dependents_of_one_block_costs_the_same_per_key() {
    // Linear in the block's dependents when each release scans them for
    // its own edge (a ratio of about 16 here); about 1 when an edge costs
    // the same however many siblings it has.
    let small = release_ns_per_key(2_000);
    let large = release_ns_per_key(32_000);
    assert!(
        large < 4.0 * small,
        "32k dependents released at {large:.0} ns/key, 2k at {small:.0} ns/key ({:.1}×)",
        large / small
    );
}
