//! Producer-side DES: simulation iterations, scatter, scheduler queueing,
//! heartbeats, and PFS writes.
//!
//! Every control message is a real [`SchedMsg`]: it crosses the fat tree,
//! waits in the scheduler's FIFO for its `service_ns`, and is then stepped
//! through `dtask`'s scheduler core (`VirtualCore`). Per iteration, rank:
//!
//! * **DEISA2/3** — data block → preselected worker (network), then one
//!   external `UpdateData` (light);
//! * **DEISA1** — same data movement, but a classic `UpdateData` (heavy)
//!   plus a `QueuePush` of the block's key. Once a step's R pushes are
//!   served, the adaptor sends R `QueuePop`s and, on the core's R-th
//!   `QueueItem`, the step's R-task `SubmitGraph`;
//! * **post hoc** — the block goes to the shared PFS instead.
//!
//! DEISA1/2 bridges also heartbeat. Setup — a `ClientConnect` per bridge and
//! for the adaptor, and DEISA2/3's `RegisterExternal` — is stepped at time 0
//! and charged nothing.
//!
//! Iterations are lockstep (ghost exchange synchronizes the stencil), so
//! step `t+1` starts once every rank finished compute + I/O of step `t` —
//! matching how the paper reports "maximum duration per iteration".

use crate::cost::CostModel;
use crate::scenario::{Mode, Placement, Scenario};
use crate::vcore::{Actors, VirtualCore};
use dtask::msg::{ClientId, ClientMsg, SchedMsg};
use dtask::transport::{Addr, Payload};
use dtask::{Datum, Key, PolicyConfig, SchedulerStats, TaskSpec};
use netsim::{transfer_ns, Engine, FifoServer, Network, SimTime, SEC};
use std::iter::{once, zip};
use std::sync::Arc;

/// The analytics adaptor's client id; bridge `r` is client `r + 1`.
const ADAPTOR: ClientId = 0;

/// Events. A control message reaches the scheduler's node
/// (`SchedArrive`), then waits until the scheduler has served it
/// (`SchedServed`).
enum Ev {
    ComputeDone { rank: usize, t: usize },
    DataArrive { rank: usize, t: usize },
    SchedArrive(SchedMsg),
    SchedServed(SchedMsg),
    WriteDone { rank: usize, t: usize },
    HeartbeatTick { rank: usize },
}

/// Results of a producer-side run.
#[derive(Debug, Clone)]
pub struct SimSideOut {
    /// Per `[t][rank]` communication/IO duration (from local compute done to
    /// scatter-acknowledged / write-complete), ns.
    pub comm: Vec<Vec<SimTime>>,
    /// Per `[t][rank]` compute duration, ns.
    pub compute: Vec<Vec<SimTime>>,
    /// Per step: when the last block of the step reached its worker (deisa)
    /// or the PFS (post hoc), ns.
    pub data_ready: Vec<SimTime>,
    /// DEISA1: when the step's graph submission finished on the scheduler
    /// (zeros for other modes).
    pub submit_done: Vec<SimTime>,
    /// Total virtual runtime.
    pub makespan: SimTime,
    /// Control messages that hit the scheduler after setup.
    pub sched_msgs: u64,
    /// The scheduler core's own counters: inbound messages by class.
    pub stats: Arc<SchedulerStats>,
}

/// Scheduler service time of one control message (see [`CostModel`]).
fn service_ns(cost: &CostModel, msg: &SchedMsg) -> SimTime {
    match msg {
        SchedMsg::UpdateData { external: true, .. } => cost.sched_update_ns,
        SchedMsg::SubmitGraph { specs, .. } => specs.len() as u64 * cost.sched_task_ns,
        // Classic updates and queue ops carry DEISA1's metadata; Dask
        // heartbeats carry worker state/metrics payloads the scheduler must
        // merge — metadata weight, not ping weight.
        _ => cost.sched_meta_ns,
    }
}

/// Key of rank `rank`'s block of step `t`, and back.
fn block_key(t: usize, rank: usize) -> Key {
    Key::new(format!("{t}:{rank}"))
}

fn block_of(key: &str) -> (usize, usize) {
    let (t, rank) = key.split_once(':').expect("a block key");
    (t.parse().expect("step"), rank.parse().expect("rank"))
}

struct Model {
    scen: Scenario,
    cost: CostModel,
    place: Placement,
    net: Network,
    sched: FifoServer,
    pfs: FifoServer,
    eng: Engine<Ev>,
    /// The message being stepped through the core.
    inbox: Vec<SchedMsg>,
    // progress state
    compute_done: Vec<Vec<SimTime>>,
    data_arrive: Vec<Vec<SimTime>>,
    comm_done: Vec<Vec<SimTime>>,
    rank_complete: Vec<usize>, // per t: number of ranks done
    /// DEISA1, per t: pushes served, and queue items the adaptor popped.
    pushes_done: Vec<usize>,
    popped: Vec<usize>,
    submit_done: Vec<SimTime>,
    all_done: bool,
}

impl Model {
    /// Send a control message from node `from` to the scheduler.
    fn send_ctrl(&mut self, from: usize, msg: SchedMsg) {
        let (now, to) = (self.eng.now(), self.place.scheduler);
        let arrive = self.net.send(now, from, to, self.cost.ctrl_bytes);
        self.eng.schedule_at(arrive, Ev::SchedArrive(msg));
    }

    fn rank_step_complete(&mut self, t: usize, rank: usize, done_at: SimTime) {
        self.comm_done[t][rank] = done_at;
        self.rank_complete[t] += 1;
        if self.rank_complete[t] == self.scen.n_ranks {
            // Lockstep barrier: next iteration starts for everyone once the
            // slowest rank finished (completions can land out of order
            // because reply latencies differ per rank).
            let barrier = self.comm_done[t].iter().copied().max().expect("ranks > 0");
            if t + 1 < self.scen.steps {
                for r in 0..self.scen.n_ranks {
                    let at = barrier + self.scen.compute_ns(&self.cost, r, t + 1);
                    self.eng
                        .schedule_at(at, Ev::ComputeDone { rank: r, t: t + 1 });
                }
            } else {
                self.all_done = true;
            }
        }
    }

    fn handle(&mut self, core: &mut VirtualCore, ev: Ev) {
        let now = self.eng.now();
        match ev {
            Ev::ComputeDone { rank, t } => {
                self.compute_done[t][rank] = now;
                match self.scen.mode {
                    Mode::PostHoc => {
                        let mut service = transfer_ns(self.scen.block_bytes, self.cost.pfs_bw)
                            + self.cost.pfs_latency;
                        if t == 0 {
                            service += self.cost.pfs_create_ns;
                        }
                        let (_, fin) = self.pfs.enqueue(now, service);
                        self.eng.schedule_at(fin, Ev::WriteDone { rank, t });
                    }
                    // Contract filtered this block: the bridge checks
                    // locally and skips all communication (§2.4.3).
                    _ if !self.scen.rank_sends(rank) => self.rank_step_complete(t, rank, now),
                    _ => {
                        let to = self.place.workers[self.scen.worker_of_rank(rank)];
                        let from = self.place.ranks[rank];
                        let arrive = self.net.send(now, from, to, self.scen.block_bytes);
                        self.eng.schedule_at(arrive, Ev::DataArrive { rank, t });
                    }
                }
            }
            Ev::DataArrive { rank, t } => {
                self.data_arrive[t][rank] = now;
                self.scattered(t, rank);
            }
            Ev::SchedArrive(msg) => {
                let (_, fin) = self.sched.enqueue(now, service_ns(&self.cost, &msg));
                self.eng.schedule_at(fin, Ev::SchedServed(msg));
            }
            Ev::SchedServed(msg) => {
                self.served(&msg);
                self.inbox.push(msg);
                core.settle(self, now);
            }
            Ev::WriteDone { rank, t } => {
                self.data_arrive[t][rank] = now;
                self.rank_step_complete(t, rank, now);
            }
            Ev::HeartbeatTick { rank } => {
                if !self.all_done {
                    let client = rank + 1;
                    self.send_ctrl(self.place.ranks[rank], SchedMsg::Heartbeat { client });
                    let hb = self.scen.mode.heartbeat_secs();
                    let hb = hb.expect("ticking implies heartbeats");
                    self.eng.schedule(hb * SEC, Ev::HeartbeatTick { rank });
                }
            }
        }
    }

    /// A bridge's block reached its worker: the bridge tells the scheduler.
    fn scattered(&mut self, t: usize, rank: usize) {
        let (key, from) = (block_key(t, rank), self.place.ranks[rank]);
        let external = self.scen.mode != Mode::Deisa1;
        let worker = self.scen.worker_of_rank(rank);
        let entries = vec![(key.clone(), worker, self.scen.block_bytes)];
        let update = SchedMsg::UpdateData {
            client: rank + 1,
            entries,
            external,
        };
        self.send_ctrl(from, update);
        if !external {
            let (name, value) = (format!("meta:{rank}"), Datum::from(key.as_str()));
            self.send_ctrl(from, SchedMsg::QueuePush { name, value });
        }
    }

    /// What the sender of `msg` learns once the scheduler has served it.
    fn served(&mut self, msg: &SchedMsg) {
        let now = self.eng.now();
        match msg {
            SchedMsg::UpdateData { entries, .. } => {
                // Reply back to the bridge completes the scatter, plus the
                // fixed client-side scatter-call overhead.
                let (t, rank) = block_of(entries[0].0.as_str());
                let hops = self.net.hops(self.place.scheduler, self.place.ranks[rank]) as u64;
                let reply = hops * self.cost.network.hop_latency + self.cost.scatter_overhead_ns;
                self.rank_step_complete(t, rank, now + reply);
            }
            SchedMsg::QueuePush { value, .. } => {
                let t = block_of(value.as_str().expect("a block key")).0;
                self.pushes_done[t] += 1;
                // The adaptor's turn: pop every rank's queue.
                if self.pushes_done[t] == self.scen.n_ranks {
                    for rank in 0..self.scen.n_ranks {
                        let (client, name) = (ADAPTOR, format!("meta:{rank}"));
                        self.send_ctrl(self.place.client, SchedMsg::QueuePop { client, name });
                    }
                }
            }
            SchedMsg::SubmitGraph { specs, .. } => {
                self.submit_done[block_of(specs[0].deps[0].as_str()).0] = now;
            }
            _ => {}
        }
    }
}

impl Actors for Model {
    fn inbox(&mut self) -> &mut Vec<SchedMsg> {
        &mut self.inbox
    }

    /// The adaptor receives queue items; on a step's R-th it submits the
    /// step's graph, one task per block. The step graphs' tasks are placed
    /// but not run here: the consumer side's timeline is
    /// [`analytics`](crate::analytics)'.
    fn send(&mut self, _to: Addr, payload: Payload) {
        let Payload::Client(ClientMsg::QueueItem { value, .. }) = payload else {
            return;
        };
        let t = block_of(value.as_str().expect("a block key")).0;
        self.popped[t] += 1;
        if self.popped[t] == self.scen.n_ranks {
            let task = |r| {
                let deps = vec![block_key(t, r)];
                TaskSpec::new(format!("{t}-{r}"), "sim", Datum::Null, deps)
            };
            let (client, specs) = (ADAPTOR, (0..self.scen.n_ranks).map(task).collect());
            self.send_ctrl(self.place.client, SchedMsg::SubmitGraph { client, specs });
        }
    }
}

/// Run the producer side of a scenario.
pub fn run_sim_side(scen: &Scenario, cost: &CostModel) -> SimSideOut {
    let (net, place) = scen.network(cost);
    let (steps, n) = (scen.steps, scen.n_ranks);
    // Setup: every bridge and the adaptor connect; under external tasks the
    // adaptor registers the contract's blocks.
    let mut inbox: Vec<_> = (0..=n)
        .map(|client| SchedMsg::ClientConnect { client })
        .collect();
    if matches!(scen.mode, Mode::Deisa2 | Mode::Deisa3) {
        let ranks = (0..n).filter(|&r| scen.rank_sends(r));
        let keys = (0..steps).flat_map(|t| ranks.clone().map(move |r| block_key(t, r)));
        let (client, keys) = (ADAPTOR, keys.collect());
        inbox.push(SchedMsg::RegisterExternal { client, keys });
    }
    let mut model = Model {
        scen: scen.clone(),
        cost: cost.clone(),
        place,
        net,
        sched: FifoServer::new(),
        pfs: FifoServer::new(),
        eng: Engine::new(),
        inbox,
        compute_done: vec![vec![0; n]; steps],
        data_arrive: vec![vec![0; n]; steps],
        comm_done: vec![vec![0; n]; steps],
        rank_complete: vec![0; steps],
        pushes_done: vec![0; steps],
        popped: vec![0; steps],
        submit_done: vec![0; steps],
        all_done: false,
    };
    let mut core = VirtualCore::new(scen.n_workers, 1, PolicyConfig::default());
    core.settle(&mut model, 0);
    let setup_msgs = core.stats().scheduler_control_messages();

    for rank in 0..n {
        let dt = scen.compute_ns(cost, rank, 0);
        model.eng.schedule(dt, Ev::ComputeDone { rank, t: 0 });
    }
    // Heartbeats: bridges connect almost simultaneously at startup, so
    // their periodic timers stay loosely aligned — heartbeats arrive in
    // bursts a few milliseconds apart, which occasionally collide with a
    // step's scatter window (the variability source of §3.3.2).
    if let Some(hb) = scen.mode.heartbeat_secs() {
        for rank in 0..n {
            let start = rank as u64 * 3 * netsim::MS % (hb * SEC) + 1;
            model.eng.schedule(start, Ev::HeartbeatTick { rank });
        }
    }
    while let Some(ev) = model.eng.next_event() {
        model.handle(&mut core, ev);
    }

    let last_done = |row: &Vec<SimTime>| row.iter().copied().max().unwrap_or(0);
    let comm = zip(&model.comm_done, &model.compute_done)
        .map(|(done, start)| {
            zip(done, start)
                .map(|(d, s)| d.saturating_sub(*s))
                .collect()
        })
        .collect();
    // Iteration t starts at the barrier: the last rank done with t-1.
    let starts = once(0).chain(model.comm_done.iter().map(last_done));
    let compute = zip(&model.compute_done, starts)
        .map(|(row, start)| row.iter().map(|c| c.saturating_sub(start)).collect())
        .collect();
    SimSideOut {
        comm,
        compute,
        data_ready: model.data_arrive.iter().map(last_done).collect(),
        submit_done: model.submit_done,
        makespan: model.comm_done.last().map_or(0, last_done),
        sched_msgs: core.stats().scheduler_control_messages() - setup_msgs,
        stats: Arc::clone(core.stats()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scen(mode: Mode, ranks: usize, workers: usize, mib: u64) -> Scenario {
        Scenario {
            mode,
            n_ranks: ranks,
            n_workers: workers,
            block_bytes: mib << 20,
            steps: 10,
            seed: 1,
            send_permille: 1000,
        }
    }

    fn mean_comm(out: &SimSideOut) -> f64 {
        let vals: Vec<f64> = out.comm.iter().flatten().map(|&v| v as f64).collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    #[test]
    fn deterministic_per_seed() {
        let cost = CostModel::default();
        let s = scen(Mode::Deisa1, 16, 8, 128);
        let a = run_sim_side(&s, &cost);
        let b = run_sim_side(&s, &cost);
        assert_eq!(a.comm, b.comm);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn deisa1_comm_exceeds_deisa3() {
        let cost = CostModel::default();
        let d1 = run_sim_side(&scen(Mode::Deisa1, 64, 32, 128), &cost);
        let d3 = run_sim_side(&scen(Mode::Deisa3, 64, 32, 128), &cost);
        let (m1, m3) = (mean_comm(&d1), mean_comm(&d3));
        assert!(
            m1 > 3.0 * m3,
            "DEISA1 comm {m1} should far exceed DEISA3 {m3}"
        );
    }

    #[test]
    fn deisa1_gap_grows_with_scale() {
        let cost = CostModel::default();
        let ratio = |ranks: usize, workers: usize| {
            let d1 = run_sim_side(&scen(Mode::Deisa1, ranks, workers, 128), &cost);
            let d3 = run_sim_side(&scen(Mode::Deisa3, ranks, workers, 128), &cost);
            mean_comm(&d1) / mean_comm(&d3)
        };
        let small = ratio(4, 2);
        let large = ratio(64, 32);
        assert!(
            large > small,
            "metadata overload should grow with ranks: {small} vs {large}"
        );
    }

    #[test]
    fn posthoc_write_time_grows_with_ranks_deisa_flat() {
        let cost = CostModel::default();
        // Weak scaling: double the ranks, PFS time should ~double; DEISA3
        // stays roughly flat.
        let ph_small = mean_comm(&run_sim_side(&scen(Mode::PostHoc, 8, 4, 128), &cost));
        let ph_large = mean_comm(&run_sim_side(&scen(Mode::PostHoc, 32, 16, 128), &cost));
        assert!(
            ph_large > 2.5 * ph_small,
            "PFS contention should grow: {ph_small} -> {ph_large}"
        );
        let d3_small = mean_comm(&run_sim_side(&scen(Mode::Deisa3, 8, 4, 128), &cost));
        let d3_large = mean_comm(&run_sim_side(&scen(Mode::Deisa3, 32, 16, 128), &cost));
        assert!(
            d3_large < 2.0 * d3_small,
            "DEISA3 comm should stay near-flat: {d3_small} -> {d3_large}"
        );
    }

    #[test]
    fn simulation_compute_weak_scales_flat() {
        let cost = CostModel::default();
        let small = run_sim_side(&scen(Mode::Deisa3, 4, 2, 128), &cost);
        let large = run_sim_side(&scen(Mode::Deisa3, 64, 32, 128), &cost);
        let mc = |o: &SimSideOut| {
            let v: Vec<f64> = o.compute.iter().flatten().map(|&x| x as f64).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let (a, b) = (mc(&small), mc(&large));
        assert!(
            (a - b).abs() / a < 0.05,
            "compute should be flat: {a} vs {b}"
        );
    }

    #[test]
    fn heartbeats_add_scheduler_messages() {
        let cost = CostModel::default();
        let d1 = run_sim_side(&scen(Mode::Deisa1, 32, 16, 128), &cost);
        let d2 = run_sim_side(&scen(Mode::Deisa2, 32, 16, 128), &cost);
        let d3 = run_sim_side(&scen(Mode::Deisa3, 32, 16, 128), &cost);
        assert!(d1.sched_msgs > d2.sched_msgs);
        assert!(d2.sched_msgs >= d3.sched_msgs);
    }

    #[test]
    fn submit_done_only_for_deisa1() {
        let cost = CostModel::default();
        let d1 = run_sim_side(&scen(Mode::Deisa1, 8, 4, 64), &cost);
        assert!(d1.submit_done.iter().all(|&t| t > 0));
        let d3 = run_sim_side(&scen(Mode::Deisa3, 8, 4, 64), &cost);
        assert!(d3.submit_done.iter().all(|&t| t == 0));
    }

    #[test]
    fn data_ready_is_monotone() {
        let cost = CostModel::default();
        let out = run_sim_side(&scen(Mode::Deisa3, 16, 8, 64), &cost);
        for w in out.data_ready.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(out.makespan >= *out.data_ready.last().unwrap());
    }
}
