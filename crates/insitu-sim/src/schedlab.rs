//! `schedlab` — the scheduler and worker cores under a virtual clock.
//!
//! The live `dtask` cluster runs the scheduling policies at laptop scale (a
//! handful of workers, thousands of tasks). This module steps the *same*
//! scheduler core ([`dtask::scheduler::Scheduler::step`]) with the same
//! [`dtask::policy`] objects, and the same worker core per worker
//! ([`dtask::worker::Core::step`]: its queue, slots, steal probes and poll),
//! at hundreds to a thousand workers and 1e5–1e6 tasks without spawning a
//! thread. This file only keeps the **clock**: a task a worker's core starts
//! pays [`netsim::transfer_ns`] for each input its worker does not hold, then
//! computes, and the clock steps its gather and its finish back into the
//! core; an armed steal poll fires `steal_poll` later; stolen work reaches
//! its thief at once.
//!
//! Input blocks are the paper's external tasks: one `RegisterExternal` and
//! one `SubmitGraph` up front, then one `UpdateData { external: true }` per
//! block. Not modelled: control-message latency, scheduler service time
//! (every step is instantaneous), NIC contention between transfers, worker
//! loss. The scheduler core, its sink and the step-until-quiet loop are
//! `VirtualCore`'s, shared with [`simside`](crate::simside); the clock is
//! a [`netsim::Engine`].

use crate::vcore::{Actors, VirtualCore};
use dtask::msg::{Assignment, ClientId, ClientMsg, ExecMsg, SchedMsg, WorkerId};
use dtask::worker::{Core, Effect, Event};
use dtask::{Datum, Key, MsgClass, PolicyConfig, PolicyKind, SchedulerStats, TaskSpec};
use netsim::network::NetworkConfig;
use netsim::{transfer_ns, Engine};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// One task of a simulated graph.
#[derive(Debug, Clone)]
pub struct SimTask {
    /// In-graph dependencies (indices into `Workload::tasks`).
    pub deps: Vec<u32>,
    /// External input blocks this task reads (indices into
    /// `Workload::blocks`).
    pub blocks: Vec<u32>,
    /// Pure compute time.
    pub compute_ns: u64,
    /// Output payload size (what dependents may have to transfer).
    pub out_bytes: u64,
}

/// A generated task graph plus its external input data.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload family name (matrix key).
    pub name: String,
    /// Input blocks as `(bytes, home worker)`; homes wrap modulo the
    /// simulated worker count at run time.
    pub blocks: Vec<(u64, u32)>,
    /// The tasks, topologically constructible (deps point backwards).
    pub tasks: Vec<SimTask>,
}

/// Result of one simulated run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Policy that ran.
    pub policy: PolicyKind,
    /// Workload name.
    pub workload: String,
    /// Tasks executed.
    pub tasks: usize,
    /// Block arrival → last completion.
    pub makespan_ns: u64,
    /// Total dependency-transfer time paid across all task starts.
    pub transfer_ns: u64,
    /// Busy time / (makespan × workers × slots).
    pub utilization: f64,
    /// Every placement the scheduler made, in order: `(task, worker)`.
    pub assignments: Vec<(u32, u32)>,
    /// The scheduler's own counters: inbound messages by class, steals.
    pub stats: Arc<SchedulerStats>,
}

// ---- workload generators ---------------------------------------------------

/// Jittered around `base_ns` by ±12.5 % so no two runs tie artificially.
fn jitter(rng: &mut SmallRng, base_ns: u64) -> u64 {
    let span = base_ns / 4;
    base_ns - span / 2 + rng.gen_range(0..span.max(1))
}

/// Wide fan-out over *skewed* input data: `n_tasks` independent tasks, each
/// reading one of a handful of large blocks that all live on the first few
/// workers. Byte gravity herds every task onto the block holders, so this is
/// the workload where work distribution (random-stealing, mineft) beats the
/// locality default.
pub fn wide_fanout(n_tasks: usize, seed: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_blocks = 4u32;
    let block_bytes = 8 << 20; // 8 MiB: ~0.67 ms transfer vs ~1 ms compute
    let blocks = (0..n_blocks).map(|h| (block_bytes, h)).collect();
    let tasks = (0..n_tasks)
        .map(|_| SimTask {
            deps: vec![],
            blocks: vec![rng.gen_range(0..n_blocks)],
            compute_ns: jitter(&mut rng, netsim::MS),
            out_bytes: 1 << 10,
        })
        .collect();
    Workload {
        name: "wide-fanout".into(),
        blocks,
        tasks,
    }
}

/// Independent linear chains: `n_chains` chains of `depth` tasks, each chain
/// seeded by its own input block spread round-robin. Locality keeps every
/// chain on one worker (zero transfers); random placement pays a transfer on
/// almost every hop.
pub fn deep_chains(n_chains: usize, depth: usize, seed: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let blocks = (0..n_chains)
        .map(|c| (1u64 << 20, c as u32))
        .collect::<Vec<_>>();
    let mut tasks = Vec::with_capacity(n_chains * depth);
    for c in 0..n_chains {
        for d in 0..depth {
            let deps = if d == 0 {
                vec![]
            } else {
                vec![(tasks.len() - 1) as u32]
            };
            let blocks = if d == 0 { vec![c as u32] } else { vec![] };
            tasks.push(SimTask {
                deps,
                blocks,
                compute_ns: jitter(&mut rng, netsim::MS),
                out_bytes: 1 << 20,
            });
        }
    }
    Workload {
        name: "deep-chains".into(),
        blocks,
        tasks,
    }
}

/// The paper's in-transit IPCA shape: per timestep, one external block per
/// rank (round-robin homes), a preprocess task per rank, and a reduce task
/// that folds all ranks into the running PCA state (which chains across
/// timesteps).
pub fn ipca(timesteps: usize, ranks: usize, seed: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut blocks = Vec::with_capacity(timesteps * ranks);
    let mut tasks: Vec<SimTask> = Vec::with_capacity(timesteps * (ranks + 1));
    let mut prev_reduce: Option<u32> = None;
    for t in 0..timesteps {
        let mut pre_ids = Vec::with_capacity(ranks);
        for r in 0..ranks {
            blocks.push((4u64 << 20, r as u32));
            let block_id = (t * ranks + r) as u32;
            pre_ids.push(tasks.len() as u32);
            tasks.push(SimTask {
                deps: vec![],
                blocks: vec![block_id],
                compute_ns: jitter(&mut rng, netsim::MS),
                out_bytes: 256 << 10,
            });
        }
        let mut deps = pre_ids;
        if let Some(prev) = prev_reduce {
            deps.push(prev);
        }
        prev_reduce = Some(tasks.len() as u32);
        tasks.push(SimTask {
            deps,
            blocks: vec![],
            compute_ns: jitter(&mut rng, 2 * netsim::MS),
            out_bytes: 64 << 10,
        });
    }
    Workload {
        name: "ipca".into(),
        blocks,
        tasks,
    }
}

/// Skewed fan-out feeding per-task chains — both failure modes at once:
/// gravity herding on the fan-out stage and chain affinity afterwards.
pub fn mixed(n_roots: usize, depth: usize, seed: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_blocks = 4u32;
    let blocks = (0..n_blocks).map(|h| (8u64 << 20, h)).collect();
    let mut tasks = Vec::with_capacity(n_roots * depth);
    for _ in 0..n_roots {
        for d in 0..depth {
            let (deps, blks) = if d == 0 {
                (vec![], vec![rng.gen_range(0..n_blocks)])
            } else {
                (vec![(tasks.len() - 1) as u32], vec![])
            };
            tasks.push(SimTask {
                deps,
                blocks: blks,
                compute_ns: jitter(&mut rng, netsim::MS),
                out_bytes: 256 << 10,
            });
        }
    }
    Workload {
        name: "mixed".into(),
        blocks,
        tasks,
    }
}

/// The matrix's four workload families, sized to roughly `n_tasks` tasks
/// each.
pub fn workloads(n_tasks: usize, seed: u64) -> Vec<Workload> {
    let chains_depth = 20;
    vec![
        wide_fanout(n_tasks, seed),
        deep_chains(n_tasks / chains_depth, chains_depth, seed ^ 1),
        ipca(n_tasks / 17, 16, seed ^ 2),
        mixed(n_tasks / 8, 8, seed ^ 3),
    ]
}

/// The four `dtask` policies, in matrix order, each as the live cluster
/// configures it (stealing on for `random-stealing` only).
pub fn policies() -> [PolicyConfig; 4] {
    [
        PolicyConfig::locality(),
        PolicyConfig::b_level(),
        PolicyConfig::random_stealing(),
        PolicyConfig::min_eft(),
    ]
}

// ---- the simulated workers -------------------------------------------------

/// `(datum id, bytes)` of everything `task` reads: task outputs are data
/// `0..n`, blocks follow.
fn inputs(w: &Workload, task: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let t = &w.tasks[task];
    let blocks = t.blocks.iter().map(|&b| b as usize);
    let blocks = blocks.map(move |b| (w.tasks.len() + b, w.blocks[b].0));
    let deps = t.deps.iter().map(|&d| d as usize);
    blocks.chain(deps.map(move |d| (d, w.tasks[d].out_bytes)))
}

const CLIENT: ClientId = 0;

struct Sim<'a> {
    workload: &'a Workload,
    nic_bw: u64,
    /// Idle-slot poll interval in ns; `None` = stealing off.
    steal_poll: Option<u64>,
    /// Every datum's key: task outputs first, then blocks.
    keys: Vec<Key>,
    task_of: HashMap<Key, u32>,
    /// Who holds each datum.
    holders: Vec<Vec<u32>>,
    /// Every worker's queue, slots and steal probes: `dtask`'s own core.
    cores: Vec<Core>,
    /// The clock: each event is one for a worker's core, due at its time.
    eng: Engine<(WorkerId, Event)>,
    /// Scheduler-bound messages produced at the engine's `now`.
    inbox: Vec<SchedMsg>,
    busy_ns: u64,
    transfer_ns: u64,
    assignments: Vec<(u32, u32)>,
}

impl Sim<'_> {
    /// Step `w`'s core and play what follows: charge each start, queue each
    /// report for the scheduler, hand stolen work to its thief at once, and
    /// time the poll.
    fn step(&mut self, w: WorkerId, event: Event) {
        let mut effects = Vec::new();
        self.cores[w].step(event, &mut effects);
        for effect in effects {
            match effect {
                Effect::Start(assignment) => self.start(w, &assignment),
                Effect::Report(msg) => self.inbox.push(msg),
                Effect::Forward { thief, msg } => self.step(thief, Event::Deliver(msg)),
                Effect::ArmPoll => {
                    if let Some(poll) = self.steal_poll {
                        self.eng.schedule(poll, (w, Event::PollExpired));
                    }
                }
                Effect::Retire => {}
            }
        }
    }

    /// A slot of `w` starts `assignment`: it pays [`transfer_ns`] for each
    /// input `w` does not hold (its gather ends then), then computes.
    fn start(&mut self, w: WorkerId, assignment: &Assignment) {
        let task = self.task_of[&assignment.spec.key] as usize;
        let (mut gather, mut replicas) = (0, Vec::new());
        for (id, bytes) in inputs(self.workload, task) {
            if !self.holders[id].contains(&(w as u32)) {
                gather += transfer_ns(bytes, self.nic_bw);
                self.holders[id].push(w as u32);
                replicas.push((self.keys[id].clone(), bytes));
            }
        }
        if !replicas.is_empty() {
            self.eng.schedule(gather, (w, Event::Gathered(replicas)));
        }
        // Nothing reads a task's output before it finishes.
        self.holders[task].push(w as u32);
        let key = self.keys[task].clone();
        let outcome = Ok(self.workload.tasks[task].out_bytes);
        let dur = gather + self.workload.tasks[task].compute_ns;
        self.eng
            .schedule(dur, (w, Event::Finished { key, outcome }));
        self.busy_ns += dur;
        self.transfer_ns += gather;
    }
}

impl Actors for Sim<'_> {
    fn inbox(&mut self) -> &mut Vec<SchedMsg> {
        &mut self.inbox
    }

    fn exec(&mut self, worker: WorkerId, msg: ExecMsg) {
        let placed = match &msg {
            ExecMsg::Execute(a) => std::slice::from_ref(a),
            ExecMsg::ExecuteBatch { tasks } => tasks,
            ExecMsg::Steal { .. } | ExecMsg::Shutdown => &[],
        };
        let task_of = &self.task_of;
        let placed = placed.iter().map(|a| (task_of[&a.spec.key], worker as u32));
        self.assignments.extend(placed);
        self.step(worker, Event::Deliver(msg));
    }

    /// The lab's client never connects, so nothing is ever notified.
    fn client(&mut self, _client: ClientId, _msg: ClientMsg) {}
}

/// Run one workload under one policy on `workers`×`slots` simulated
/// executors. Deterministic: the same inputs replay the same assignment
/// sequence and the same makespan.
pub fn run(workload: &Workload, workers: usize, slots: usize, policy: &PolicyConfig) -> Outcome {
    assert!(workers > 0 && slots > 0);
    let n = workload.tasks.len();
    let tasks = (0..n).map(|i| format!("t{i}"));
    let blocks = (0..workload.blocks.len()).map(|b| format!("b{b}"));
    let keys: Vec<Key> = tasks.chain(blocks).map(Key::new).collect();
    let mut core = VirtualCore::new(workers, slots, policy.clone());
    let mut sim = Sim {
        workload,
        nic_bw: NetworkConfig::default().nic_bw,
        steal_poll: policy.steal_poll.map(|d| d.as_nanos() as u64),
        task_of: keys[..n].iter().cloned().zip(0..).collect(),
        holders: vec![Vec::new(); n + workload.blocks.len()],
        cores: (0..workers).map(|w| Core::new(w, slots)).collect(),
        eng: Engine::new(),
        inbox: Vec::new(),
        busy_ns: 0,
        transfer_ns: 0,
        assignments: Vec::with_capacity(n),
        keys,
    };
    let specs = (0..n)
        .map(|t| {
            let deps = inputs(workload, t).map(|(id, _)| sim.keys[id].clone());
            TaskSpec::new(sim.keys[t].clone(), "sim", Datum::Null, deps.collect())
        })
        .collect();

    // The contract and the whole graph first, as the adaptor does; nothing
    // can run yet. Then every bridge announces its blocks.
    sim.inbox = vec![
        SchedMsg::RegisterExternal {
            client: CLIENT,
            keys: sim.keys[n..].to_vec(),
        },
        SchedMsg::SubmitGraph {
            client: CLIENT,
            specs,
        },
    ];
    core.settle(&mut sim, 0);
    assert!(
        n == 0 || sim.assignments.is_empty(),
        "tasks ran before data"
    );
    for (b, &(bytes, home)) in workload.blocks.iter().enumerate() {
        let home = home % workers as u32;
        sim.holders[n + b].push(home);
        sim.inbox.push(SchedMsg::UpdateData {
            client: CLIENT,
            entries: vec![(sim.keys[n + b].clone(), home as usize, bytes)],
            external: true,
        });
    }
    core.settle(&mut sim, 0);
    for w in 0..workers {
        sim.step(w, Event::Up);
    }
    // Tasks done: one report each, counted as the scheduler steps it.
    let done = |core: &VirtualCore| core.stats().count(MsgClass::TaskReport) as usize;
    while done(&core) < n {
        let Some((w, event)) = sim.eng.next_event() else {
            panic!("simulation stalled with {} of {n} tasks done", done(&core));
        };
        if let Event::PollExpired = event {
            let active = sim.cores.iter().any(|w| !w.is_quiet());
            assert!(active, "only polls left, {} of {n} tasks done", done(&core));
        }
        sim.step(w, event);
        let now = sim.eng.now();
        core.settle(&mut sim, now);
    }

    let makespan = sim.eng.now();
    let capacity_ns = makespan as u128 * (workers * slots) as u128;
    Outcome {
        policy: policy.kind,
        workload: workload.name.clone(),
        tasks: done(&core),
        makespan_ns: makespan,
        transfer_ns: sim.transfer_ns,
        utilization: if capacity_ns == 0 {
            0.0
        } else {
            sim.busy_ns as f64 / capacity_ns as f64
        },
        assignments: sim.assignments,
        stats: Arc::clone(core.stats()),
    }
}

/// Run every policy over one workload.
pub fn run_matrix(workload: &Workload, workers: usize, slots: usize) -> Vec<Outcome> {
    policies()
        .iter()
        .map(|p| run(workload, workers, slots, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_deterministic_down_to_the_assignment_sequence() {
        let w = wide_fanout(2_000, 42);
        for p in policies() {
            let a = run(&w, 32, 2, &p);
            let b = run(&w, 32, 2, &p);
            let name = p.kind.name();
            assert_eq!(a.assignments, b.assignments, "{name}");
            assert_eq!(a.makespan_ns, b.makespan_ns, "{name}");
            assert_eq!(a.stats.tasks_stolen(), b.stats.tasks_stolen(), "{name}");
            assert_eq!(a.assignments.len(), 2_000, "{name}: one placement per task");
        }
    }

    #[test]
    fn skewed_fanout_punishes_locality() {
        // All bytes on 4 of 50 workers: gravity herds the fan-out onto them
        // while work distribution spreads it. Both stealing and mineft must
        // beat the locality default on makespan.
        let w = wide_fanout(5_000, 42);
        let loc = run(&w, 50, 2, &PolicyConfig::locality());
        let steal = run(&w, 50, 2, &PolicyConfig::random_stealing());
        let eft = run(&w, 50, 2, &PolicyConfig::min_eft());
        assert!(
            steal.makespan_ns < loc.makespan_ns,
            "stealing {} !< locality {}",
            steal.makespan_ns,
            loc.makespan_ns
        );
        assert!(
            eft.makespan_ns < loc.makespan_ns,
            "mineft {} !< locality {}",
            eft.makespan_ns,
            loc.makespan_ns
        );
        assert!(
            steal.stats.tasks_stolen() > 0,
            "the thief must actually steal"
        );
        assert_eq!(loc.stats.steal_requests(), 0, "no stealing unless asked");
    }

    #[test]
    fn chains_favor_locality_over_random() {
        // Chain affinity: locality pays zero transfers, random placement
        // pays one per hop.
        let w = deep_chains(200, 20, 7);
        let loc = run(&w, 50, 2, &PolicyConfig::locality());
        let rand = run(&w, 50, 2, &PolicyConfig::random_stealing());
        assert!(loc.transfer_ns < rand.transfer_ns);
        assert!(loc.makespan_ns <= rand.makespan_ns);
    }

    #[test]
    fn every_policy_completes_every_workload() {
        for w in workloads(2_000, 11) {
            for o in run_matrix(&w, 16, 2) {
                assert_eq!(o.tasks, w.tasks.len(), "{}/{}", w.name, o.policy.name());
                assert!(o.makespan_ns > 0);
                assert!(o.utilization > 0.0 && o.utilization <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn ipca_inbound_messages_match_the_live_accounting() {
        // What `tests/message_accounting.rs` asserts of a live DEISA3 run:
        // one contract registration, one graph, one external update per
        // block, and no heartbeat, queue or variable traffic; plus one
        // report per task.
        let (steps, ranks) = (12, 16);
        let w = ipca(steps, ranks, 5);
        for o in run_matrix(&w, 8, 2) {
            let s = &o.stats;
            let name = o.policy.name();
            assert_eq!(s.count(MsgClass::RegisterExternal), 1, "{name}");
            assert_eq!(s.count(MsgClass::GraphSubmit), 1, "{name}");
            assert_eq!(
                s.count(MsgClass::UpdateDataExternal) as usize,
                steps * ranks,
                "{name}"
            );
            assert_eq!(s.count(MsgClass::UpdateData), 0, "{name}");
            assert_eq!(s.count(MsgClass::TaskSubmitted) as usize, w.tasks.len());
            assert_eq!(s.count(MsgClass::TaskReport) as usize, w.tasks.len());
            assert_eq!(s.count(MsgClass::Heartbeat), 0, "{name}");
            assert_eq!(s.count(MsgClass::Queue), 0, "{name}");
            assert_eq!(s.count(MsgClass::Variable), 0, "{name}");
            // Every gather that fetched anything reported it, once.
            assert!(s.count(MsgClass::AddReplica) as usize <= w.tasks.len());
            assert_eq!(s.assign_tasks() as usize, w.tasks.len(), "{name}");
        }
    }

    #[test]
    fn scales_to_many_workers_and_tasks() {
        // A smoke-sized version of the matrix's scale point: 200 workers,
        // tens of thousands of tasks, still exact and fast.
        let w = wide_fanout(40_000, 3);
        let o = run(&w, 200, 2, &PolicyConfig::min_eft());
        assert_eq!(o.tasks, 40_000);
        assert!(o.makespan_ns > 0);
    }
}
