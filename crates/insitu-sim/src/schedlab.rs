//! `schedlab` — the scheduling policies at scale, on one virtual cluster.
//!
//! The live `dtask` cluster runs the policies at laptop scale (a handful of
//! workers, thousands of tasks). This module runs the *same* scheduler core
//! with the same [`dtask::policy`] objects, and per worker the same worker
//! core and object store, at hundreds to a thousand workers and 1e5–1e6
//! tasks without spawning a thread: it is one configuration of
//! `vcore::VirtualCluster`, and this file keeps only the workloads and that
//! configuration. Deliveries take no time and happen at once, in order, so a
//! slot started in the same step as another finds the replica the first one
//! fetched. A gather pays [`netsim::transfer_ns`] per input it fetched, then
//! the task computes for its jittered time.
//!
//! Input blocks are the paper's external tasks: one `RegisterExternal` and
//! one `SubmitGraph` up front, then per block a `Put` on its home worker and
//! one `UpdateData { external: true }`. Not modelled: scheduler service time
//! (every step is instantaneous), NIC contention between transfers, worker
//! loss.

use crate::vcore::{stand_in, Costs, VirtualCluster};
use dtask::msg::{DataMsg, SchedMsg};
use dtask::transport::{Addr, Payload};
use dtask::{Datum, Key, MsgClass, PolicyConfig, PolicyKind, ReplyTo, SchedulerStats, TaskSpec};
use netsim::network::NetworkConfig;
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
    /// Tasks computed, each after a served gather (so none erred).
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

/// `roots` linear chains of `depth` tasks over `blocks`: the first task of
/// chain `c` reads the block `pick` names for it, and every task computes
/// about a millisecond and leaves `out_bytes`.
fn chains(
    name: &str,
    seed: u64,
    blocks: Vec<(u64, u32)>,
    (roots, depth): (usize, usize),
    out_bytes: u64,
    mut pick: impl FnMut(&mut SmallRng, usize) -> u32,
) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tasks = Vec::with_capacity(roots * depth);
    for c in 0..roots {
        for d in 0..depth {
            let (deps, blocks) = match d {
                0 => (vec![], vec![pick(&mut rng, c)]),
                _ => (vec![tasks.len() as u32 - 1], vec![]),
            };
            let compute_ns = jitter(&mut rng, netsim::MS);
            tasks.push(SimTask {
                deps,
                blocks,
                compute_ns,
                out_bytes,
            });
        }
    }
    Workload {
        name: name.into(),
        blocks,
        tasks,
    }
}

/// Wide fan-out over *skewed* input data: `n_tasks` independent tasks, each
/// reading one of a handful of large blocks that all live on the first few
/// workers. Byte gravity herds every task onto the block holders, so this is
/// the workload where work distribution (random-stealing, mineft) beats the
/// locality default.
pub fn wide_fanout(n_tasks: usize, seed: u64) -> Workload {
    // 8 MiB blocks: ~0.67 ms transfer vs ~1 ms compute.
    let blocks = (0..4).map(|h| (8 << 20, h)).collect();
    let pick = |rng: &mut SmallRng, _| rng.gen_range(0..4u32);
    chains("wide-fanout", seed, blocks, (n_tasks, 1), 1 << 10, pick)
}

/// Independent linear chains: `n_chains` chains of `depth` tasks, each chain
/// seeded by its own input block spread round-robin. Locality keeps every
/// chain on one worker (zero transfers); random placement pays a transfer on
/// almost every hop.
pub fn deep_chains(n_chains: usize, depth: usize, seed: u64) -> Workload {
    let blocks = (0..n_chains).map(|c| (1 << 20, c as u32)).collect();
    let home = |_: &mut SmallRng, c| c as u32;
    chains(
        "deep-chains",
        seed,
        blocks,
        (n_chains, depth),
        1 << 20,
        home,
    )
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
    let blocks = (0..4).map(|h| (8 << 20, h)).collect();
    let pick = |rng: &mut SmallRng, _| rng.gen_range(0..4u32);
    chains("mixed", seed, blocks, (n_roots, depth), 256 << 10, pick)
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

// ---- the lab: a configuration of the virtual cluster -----------------------

/// Run one workload under one policy on `workers`×`slots` simulated
/// executors. Deterministic: the same inputs replay the same assignment
/// sequence and the same makespan.
pub fn run(workload: &Workload, workers: usize, slots: usize, policy: &PolicyConfig) -> Outcome {
    run_seeded(workload, (workers, slots), policy, None)
}

/// Under a seed, how long a delivery may take: a tenth of a task's compute.
const SEEDED_DELIVERY_NS: u64 = 100 * netsim::US;

/// [`run`], or with `seed`, each delivery taking a time it draws up to
/// [`SEEDED_DELIVERY_NS`] (each sender's messages still arrive in send
/// order). Otherwise deliveries are free; a gather pays
/// [`netsim::transfer_ns`] per input it fetched and a task its workload
/// compute time.
pub(crate) fn run_seeded(
    workload: &Workload,
    shape: (usize, usize),
    policy: &PolicyConfig,
    seed: Option<u64>,
) -> Outcome {
    let (workers, slots) = shape;
    let n = workload.tasks.len();
    assert!(workers > 0 && slots > 0);
    let tasks = (0..n).map(|i| format!("t{i}"));
    let blocks = (0..workload.blocks.len()).map(|b| format!("b{b}"));
    let keys: Vec<Key> = tasks.chain(blocks).map(Key::new).collect();
    let task_of: HashMap<Key, u32> = keys[..n].iter().cloned().zip(0..).collect();
    let task = |spec: &TaskSpec| {
        let task = &workload.tasks[task_of[&spec.key] as usize];
        (task.compute_ns, task.out_bytes)
    };
    let nic_bw = NetworkConfig::default().nic_bw;
    let delivery_ns = seed.map_or(0, |_| SEEDED_DELIVERY_NS);
    let costs = Costs {
        delivery_ns,
        nic_bw,
        task,
    };
    let mut cluster = VirtualCluster::new(shape, policy.clone(), costs, seed);
    let specs = workload.tasks.iter().enumerate().map(|(t, task)| {
        let blocks = task.blocks.iter().map(|&b| &keys[n + b as usize]);
        let deps = blocks.chain(task.deps.iter().map(|&d| &keys[d as usize]));
        TaskSpec::new(keys[t].clone(), "sim", Datum::Null, deps.cloned().collect())
    });

    // The contract and the whole graph first, as the adaptor does; nothing
    // can run yet. Then every bridge puts each block on its home worker and
    // announces it.
    let (client, externals) = (0, keys[n..].to_vec());
    let contract = SchedMsg::RegisterExternal {
        client,
        keys: externals,
    };
    cluster.send(Addr::Scheduler, Payload::Sched(contract));
    let graph = SchedMsg::SubmitGraph {
        client,
        specs: specs.collect(),
    };
    cluster.send(Addr::Scheduler, Payload::Sched(graph));
    cluster.settle();
    assert!(
        n == 0 || cluster.workers.placed.is_empty(),
        "tasks ran before data"
    );
    for (b, &(bytes, home)) in workload.blocks.iter().enumerate() {
        let (key, home) = (keys[n + b].clone(), home as usize % workers);
        let ack = ReplyTo {
            addr: Addr::Client(client),
            corr: 0,
        };
        let put = DataMsg::Put {
            key: key.clone(),
            value: stand_in(bytes),
            ack,
        };
        cluster.send(Addr::WorkerData(home), Payload::Data(put));
        let update = SchedMsg::UpdateData {
            client,
            entries: vec![(key, home, bytes)],
            external: true,
        };
        cluster.send(Addr::Scheduler, Payload::Sched(update));
    }
    cluster.settle();
    // Tasks done: one report each, counted as the scheduler steps it.
    let reports = |stats: &SchedulerStats| stats.count(MsgClass::TaskReport) as usize;
    cluster.run(|stats| reports(stats) >= n);

    let (makespan, done) = (cluster.now(), &cluster.workers);
    let capacity_ns = makespan as f64 * (workers * slots) as f64;
    let placed = done
        .placed
        .iter()
        .map(|(spec, w)| (task_of[&spec.key], *w as u32));
    Outcome {
        policy: policy.kind,
        workload: workload.name.clone(),
        tasks: done.computed,
        makespan_ns: makespan,
        transfer_ns: done.transfer_ns,
        utilization: done.busy_ns as f64 / capacity_ns.max(1.0),
        assignments: placed.collect(),
        stats: Arc::clone(cluster.stats()),
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

    /// The virtual cluster's first invariant run (the skeleton of an
    /// explorer): the `ipca` and `deep-chains` generators under eight
    /// delivery seeds each, under every policy. In every run each task is
    /// placed once, computed once (so none erred: in the lab only a failed
    /// gather errs, and it computes nothing) and reported once; the inbound
    /// classes count what the default order counts; and the same seed
    /// replays the same assignment sequence.
    #[test]
    fn seeded_delivery_orders_keep_the_invariants() {
        let (steps, ranks) = (6, 4);
        let classes = [
            MsgClass::UpdateDataExternal,
            MsgClass::RegisterExternal,
            MsgClass::GraphSubmit,
            MsgClass::TaskReport,
        ];
        for w in [ipca(steps, ranks, 5), deep_chains(8, 5, 7)] {
            let n = w.tasks.len();
            for p in policies() {
                let default = run_seeded(&w, (4, 2), &p, None);
                let counts = |o: &Outcome| classes.map(|c| o.stats.count(c));
                let blocks = w.blocks.len() as u64;
                assert_eq!(counts(&default), [blocks, 1, 1, n as u64]);
                for seed in 0..8 {
                    let name = format!("{} {} seed {seed}", w.name, p.kind.name());
                    let o = run_seeded(&w, (4, 2), &p, Some(seed));
                    let mut placed: Vec<u32> = o.assignments.iter().map(|&(t, _)| t).collect();
                    placed.sort_unstable();
                    assert!(
                        placed.iter().copied().eq(0..n as u32),
                        "{name}: placed once"
                    );
                    assert_eq!(o.tasks, n, "{name}: computed once, none erred");
                    assert_eq!(counts(&o), counts(&default), "{name}");
                    assert!(o.stats.count(MsgClass::AddReplica) as usize <= n, "{name}");
                    let again = run_seeded(&w, (4, 2), &p, Some(seed));
                    assert_eq!(o.assignments, again.assignments, "{name}: replays");
                }
            }
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
