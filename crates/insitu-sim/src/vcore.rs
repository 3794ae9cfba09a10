//! `dtask`'s scheduler core under a virtual clock: what both simulators
//! ([`schedlab`](crate::schedlab), [`simside`](crate::simside)) share — the
//! sink that keeps the core's answers, the virtual-ns → `Instant` origin,
//! and the loop that steps the core until an instant is quiet.

use dtask::msg::{ClientId, ClientMsg, DataMsg, ExecMsg, SchedMsg, WorkerId};
use dtask::scheduler::{LivenessConfig, Scheduler, Sink};
use dtask::{PolicyConfig, SchedulerStats, TraceHandle};
use netsim::SimTime;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The simulated actors of one simulator: whoever the core answers.
pub(crate) trait Actors {
    /// Scheduler-bound messages produced at the current instant.
    fn inbox(&mut self) -> &mut Vec<SchedMsg>;
    /// An executor-bound message reaches `worker`.
    fn exec(&mut self, worker: WorkerId, msg: ExecMsg);
    /// A notification reaches `client`.
    fn client(&mut self, client: ClientId, msg: ClientMsg);
}

/// The core's sink: executor and client messages are kept for the actors;
/// data-server traffic has nobody to go to.
#[derive(Default)]
struct Outbox {
    exec: RefCell<Vec<(WorkerId, ExecMsg)>>,
    client: RefCell<Vec<(ClientId, ClientMsg)>>,
}

impl Sink for Outbox {
    fn send_exec(&self, worker: WorkerId, msg: ExecMsg) {
        self.exec.borrow_mut().push((worker, msg));
    }
    fn send_data(&self, _worker: WorkerId, _msg: DataMsg) {}
    fn send_client(&self, client: ClientId, msg: ClientMsg) {
        self.client.borrow_mut().push((client, msg));
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
            let sink = self.sched.sink();
            let (exec, client) = (sink.exec.take(), sink.client.take());
            for (worker, msg) in exec {
                actors.exec(worker, msg);
            }
            for (client, msg) in client {
                actors.client(client, msg);
            }
        }
    }
}
