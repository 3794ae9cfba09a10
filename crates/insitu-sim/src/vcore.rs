//! One `dtask` cluster in one thread, under a virtual clock.
//!
//! [`VirtualCore`] is the scheduler half both simulators share: the sink
//! that keeps the core's answers, the virtual-ns → `Instant` origin, and the
//! loop that steps the core until an instant is quiet.
//! [`simside`](crate::simside) uses only that half. [`VirtualCluster`] adds
//! the workers; [`schedlab`](crate::schedlab) is one configuration of it.
//! Each worker is a [`Core`] and an [`ObjectStore`] that answers data
//! requests through [`ObjectStore::answer`], as the live data server does.
//! A slot's gather is a [`Gather`] of real `DataMsg::Get`s, each answered at
//! once by its holder's store, so data moves between the stores as in the
//! live cluster (as stand-ins, [`stand_in`], not bytes). [`Costs`] says what
//! a delivery, a gather and a task take; the clock is a [`netsim::Engine`].
//! Messages are delivered the moment they are sent, depth first, unless
//! deliveries take time or a seed draws a time for each: then they arrive on
//! the clock, each sender's in the order it sent them.

use dtask::msg::{Assignment, ClientId, ClientMsg, DataMsg, ExecMsg, SchedMsg, WorkerId};
use dtask::scheduler::{LivenessConfig, Scheduler, Sink};
use dtask::transport::{Addr, Gather, Outcome, Payload};
use dtask::worker::{Core, Effect, Event};
use dtask::{DataReply, ReplyTo, StoreConfig, TraceHandle};
use dtask::{Datum, Key, ObjectStore, PolicyConfig, SchedulerStats, TaskSpec};
use netsim::{transfer_ns, Engine, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The simulated actors of one simulator: whoever the core answers.
pub(crate) trait Actors {
    /// Scheduler-bound messages produced at the current instant.
    fn inbox(&mut self) -> &mut Vec<SchedMsg>;
    /// The core sends `payload` to `to`.
    fn send(&mut self, to: Addr, payload: Payload);
}

/// The core's sink: what it sends, kept in order for the actors.
#[derive(Default)]
struct Outbox(RefCell<Vec<(Addr, Payload)>>);

impl Sink for Outbox {
    fn send_exec(&self, worker: WorkerId, msg: ExecMsg) {
        self.0
            .borrow_mut()
            .push((Addr::WorkerExec(worker), Payload::Exec(msg)));
    }
    fn send_data(&self, worker: WorkerId, msg: DataMsg) {
        self.0
            .borrow_mut()
            .push((Addr::WorkerData(worker), Payload::Data(msg)));
    }
    fn send_client(&self, client: ClientId, msg: ClientMsg) {
        self.0
            .borrow_mut()
            .push((Addr::Client(client), Payload::Client(msg)));
    }
}

/// The scheduler core, stepped at virtual nanoseconds.
pub(crate) struct VirtualCore {
    sched: Scheduler<Outbox>,
    /// The virtual clock's zero. Only differences from it are ever looked
    /// at, so when the run happens changes nothing in it.
    origin: Instant,
    stats: Arc<SchedulerStats>,
}

impl VirtualCore {
    /// A core over `workers`×`slots` executors placing with `policy`.
    pub fn new(workers: usize, slots: usize, policy: PolicyConfig) -> Self {
        let origin = Instant::now();
        let stats = Arc::new(SchedulerStats::new());
        let sched = Scheduler::new(
            Outbox::default(),
            workers,
            slots,
            LivenessConfig::default(),
            policy,
            Arc::clone(&stats),
            TraceHandle::disabled(),
            None,
            origin,
        );
        VirtualCore {
            sched,
            origin,
            stats,
        }
    }

    /// The core's own counters: inbound messages by class, steals, drops.
    pub fn stats(&self) -> &Arc<SchedulerStats> {
        &self.stats
    }

    /// Step the core on the actors' inbox at virtual time `now`, hand its
    /// answers to the actors, and repeat until the instant is quiet.
    pub fn settle(&mut self, actors: &mut impl Actors, now: SimTime) {
        let now = self.origin + Duration::from_nanos(now);
        while !actors.inbox().is_empty() {
            self.sched.step(actors.inbox(), now);
            for (to, payload) in self.sched.sink().0.take() {
                actors.send(to, payload);
            }
        }
    }
}

/// What a [`VirtualCluster`] charges, in virtual ns.
pub(crate) struct Costs<T> {
    /// Every message takes this long to arrive; under a seed, a random
    /// time up to it, though never before one its sender sent earlier.
    pub delivery_ns: u64,
    /// A gather pays [`netsim::transfer_ns`] at this bandwidth per input
    /// it fetched.
    pub nic_bw: u64,
    /// A task's compute time and its result's bytes.
    pub task: T,
}

/// The DES stores no payloads: the stand-in for `bytes` bytes of data.
pub(crate) fn stand_in(bytes: u64) -> Datum {
    Datum::I64(bytes as i64)
}

/// What happens on the clock: an event for a worker's core, or a message
/// arriving.
enum Ev {
    Worker(WorkerId, Event),
    Mail(Addr, Payload),
}

/// The scheduler core and the workers it places on (see the module doc).
pub(crate) struct VirtualCluster<T> {
    core: VirtualCore,
    pub(crate) workers: Workers<T>,
}

/// Everything of a [`VirtualCluster`] but its scheduler core.
pub(crate) struct Workers<T> {
    cores: Vec<Core>,
    stores: Vec<ObjectStore>,
    costs: Costs<T>,
    /// Idle-slot poll interval in ns; `None` = stealing off.
    steal_poll: Option<u64>,
    eng: Engine<Ev>,
    inbox: Vec<SchedMsg>,
    /// With a seed: its draws, and when each sender's last message is due.
    order: Option<(SmallRng, HashMap<Addr, SimTime>)>,
    /// Messages on the clock, not delivered yet.
    in_flight: usize,
    /// Every placement the scheduler sent, in order.
    pub(crate) placed: Vec<(Arc<TaskSpec>, WorkerId)>,
    /// Tasks computed (their gathers served), the time charged to gathers,
    /// and to gathers and tasks together.
    pub(crate) computed: usize,
    pub(crate) transfer_ns: u64,
    pub(crate) busy_ns: u64,
}

impl<T: FnMut(&TaskSpec) -> (u64, u64)> VirtualCluster<T> {
    /// `workers`×`slots` executors placed on with `policy`, charged by
    /// `costs`; `seed` permutes delivery (`None`: send order).
    pub fn new(
        shape: (usize, usize),
        policy: PolicyConfig,
        costs: Costs<T>,
        seed: Option<u64>,
    ) -> Self {
        let (workers, slots) = shape;
        let steal_poll = policy.steal_poll.map(|d| d.as_nanos() as u64);
        let core = VirtualCore::new(workers, slots, policy);
        let store = |w| {
            let stats = Arc::clone(core.stats());
            ObjectStore::new(StoreConfig::default(), w, stats, TraceHandle::disabled())
        };
        let workers = Workers {
            cores: (0..workers).map(|w| Core::new(w, slots)).collect(),
            stores: (0..workers).map(store).collect(),
            costs,
            steal_poll,
            eng: Engine::new(),
            inbox: Vec::new(),
            order: seed.map(|seed| (SmallRng::seed_from_u64(seed), HashMap::new())),
            in_flight: 0,
            placed: Vec::new(),
            computed: 0,
            transfer_ns: 0,
            busy_ns: 0,
        };
        VirtualCluster { core, workers }
    }

    /// The scheduler's counters.
    pub fn stats(&self) -> &Arc<SchedulerStats> {
        self.core.stats()
    }

    /// Virtual time now.
    pub fn now(&self) -> SimTime {
        self.workers.eng.now()
    }

    /// The simulated client (client 0) sends `payload` to `to`.
    pub fn send(&mut self, to: Addr, payload: Payload) {
        self.workers.post(Addr::Client(0), to, payload);
    }

    /// Step the scheduler until the instant is quiet.
    pub fn settle(&mut self) {
        let now = self.now();
        self.core.settle(&mut self.workers, now);
    }

    /// Bring every worker up, then play the clock until `done` holds of the
    /// scheduler's counters.
    pub fn run(&mut self, done: impl Fn(&SchedulerStats) -> bool) {
        for w in 0..self.workers.cores.len() {
            self.workers.step(w, Event::Up);
        }
        self.settle();
        while !done(self.stats()) {
            match self.workers.eng.next_event() {
                Some(Ev::Worker(w, event)) => {
                    if let Event::PollExpired = event {
                        let mut cores = self.workers.cores.iter();
                        let active = self.workers.in_flight > 0 || cores.any(|c| !c.is_quiet());
                        assert!(active, "only polls left at {} ns", self.now());
                    }
                    self.workers.step(w, event);
                }
                Some(Ev::Mail(to, payload)) => {
                    self.workers.in_flight -= 1;
                    self.workers.deliver(to, payload);
                }
                None => panic!("the cluster stalled at {} ns", self.now()),
            }
            self.settle();
        }
    }
}

impl<T: FnMut(&TaskSpec) -> (u64, u64)> Actors for Workers<T> {
    fn inbox(&mut self) -> &mut Vec<SchedMsg> {
        &mut self.inbox
    }

    fn send(&mut self, to: Addr, payload: Payload) {
        if let (Addr::WorkerExec(w), Payload::Exec(msg)) = (to, &payload) {
            let placed = match msg {
                ExecMsg::Execute(a) => std::slice::from_ref(a),
                ExecMsg::ExecuteBatch { tasks } => tasks,
                ExecMsg::Steal { .. } | ExecMsg::Shutdown => &[],
            };
            self.placed
                .extend(placed.iter().map(|a| (Arc::clone(&a.spec), w)));
        }
        self.post(Addr::Scheduler, to, payload);
    }
}

impl<T: FnMut(&TaskSpec) -> (u64, u64)> Workers<T> {
    /// `from` sends `payload` to `to`: delivered at once when deliveries
    /// take no time and no seed orders them, else on the clock.
    fn post(&mut self, from: Addr, to: Addr, payload: Payload) {
        let (now, mut due) = (self.eng.now(), self.costs.delivery_ns);
        if let Some((rng, last)) = &mut self.order {
            let last = last.entry(from).or_default();
            *last = (now + rng.gen_range(0..=due)).max(*last);
            due = *last - now;
        } else if due == 0 {
            return self.deliver(to, payload);
        }
        self.in_flight += 1;
        self.eng.schedule(due, Ev::Mail(to, payload));
    }

    fn deliver(&mut self, to: Addr, payload: Payload) {
        match (to, payload) {
            (_, Payload::Sched(msg)) => self.inbox.push(msg),
            (Addr::WorkerExec(w), Payload::Exec(msg)) => self.step(w, Event::Deliver(msg)),
            // A `Put` is acked, a `Delete` answered with nothing: no
            // simulated client waits on either, nor on a notification.
            (Addr::WorkerData(w), Payload::Data(msg)) => drop(self.stores[w].answer(msg)),
            _ => {}
        }
    }

    /// Step worker `w`'s core and play what follows.
    fn step(&mut self, w: WorkerId, event: Event) {
        let mut effects = Vec::new();
        self.cores[w].step(event, &mut effects);
        let me = Addr::WorkerExec(w);
        for effect in effects {
            match effect {
                Effect::Start(assignment) => self.start(w, &assignment),
                Effect::Report(msg) => self.post(me, Addr::Scheduler, Payload::Sched(msg)),
                Effect::Forward { thief, msg } => {
                    self.post(me, Addr::WorkerExec(thief), Payload::Exec(msg))
                }
                Effect::ArmPoll => {
                    if let Some(poll) = self.steal_poll {
                        self.eng.schedule(poll, Ev::Worker(w, Event::PollExpired));
                    }
                }
                Effect::Retire => {}
            }
        }
    }

    /// A slot of `w` starts `assignment`. As a live slot does, it gathers
    /// the inputs `w`'s store lacks from the holders the scheduler listed:
    /// a [`Gather`] whose every `Get` the holder's store answers at once,
    /// each value fetched stored on `w`. Then the gather and the task are
    /// charged. The result is stored at once: nothing reads it before its
    /// finish is reported.
    fn start(&mut self, w: WorkerId, assignment: &Assignment) {
        let (spec, stores) = (&assignment.spec, &self.stores);
        let inputs = stores[w].get_many(&spec.deps);
        let missing = spec.deps.iter().zip(&inputs).filter(|(_, v)| v.is_none());
        let wants = missing.map(|(key, _)| {
            let listed = assignment.dep_locations.iter().find(|(k, _)| k == key);
            let holders = listed.map(|(_, h)| h.iter().copied().filter(|&h| h != w).collect());
            (key.clone(), holders.unwrap_or_default())
        });
        let ask = |key: &Key, holder: WorkerId| {
            let reply = ReplyTo {
                addr: Addr::WorkerExec(w),
                corr: 0,
            };
            let get = DataMsg::Get {
                key: key.clone(),
                reply,
            };
            let answer = stores[holder].answer(get);
            answer.map_or(Outcome::HungUp, |(_, reply)| Outcome::from(reply))
        };
        let (mut fetched, mut gather_ns) = (Vec::new(), 0);
        let got = |key: &Key, _, outcome: Outcome| {
            if let Outcome::Value(DataReply::Value(Ok(value @ Datum::I64(bytes)))) = &outcome {
                gather_ns += transfer_ns(*bytes as u64, self.costs.nic_bw);
                fetched.push((key.clone(), *bytes as u64));
                stores[w].insert(key.clone(), value.clone());
            }
            outcome
        };
        let gathered = Gather::run(wants.collect(), |key| stores[w].get(key), ask, got);
        if !fetched.is_empty() {
            self.eng
                .schedule(gather_ns, Ev::Worker(w, Event::Gathered(fetched)));
        }
        let (mut done_ns, key) = (gather_ns, spec.key.clone());
        let outcome = gathered.map(|_| {
            let (compute_ns, nbytes) = (self.costs.task)(spec);
            stores[w].insert(key.clone(), stand_in(nbytes));
            done_ns += compute_ns;
            self.computed += 1;
            nbytes
        });
        self.transfer_ns += gather_ns;
        self.busy_ns += done_ns;
        self.eng
            .schedule(done_ns, Ev::Worker(w, Event::Finished { key, outcome }));
    }
}
