//! Pluggable placement policies for the centralized scheduler.
//!
//! RSDS ("Runtime vs Scheduler: Analyzing Dask's Overheads") observed that
//! once the scheduler is fast, *placement quality* becomes the bottleneck —
//! and that simple policies with work-stealing are near-optimal far more
//! often than expected. This module factors the two decisions the scheduler
//! makes per task — **in what order** ready tasks are placed (the queue) and
//! **on which worker** each lands (`decide_worker`) — behind one trait, so
//! policies can be swapped per [`crate::cluster::ClusterConfig`] without
//! touching the state machine.
//!
//! Four implementations ship:
//!
//! * [`LocalityPolicy`] — the historical default: FIFO order, data-gravity
//!   placement (most dependency bytes), load-ratio tiebreak, round-robin for
//!   dependency-free tasks. Byte- and behavior-identical to the scheduler
//!   before this module existed.
//! * [`BLevelPolicy`] — critical-path priority: b-levels (longest downstream
//!   chain, unit costs) are computed once per submitted graph and the ready
//!   queue becomes a max-heap on them; placement itself stays data-gravity.
//! * [`RandomStealingPolicy`] — uniform-random placement over live workers
//!   (deterministically seeded), relying on worker-side stealing to repair
//!   the inevitable imbalance. The cheapest possible decision rule.
//! * [`MinEftPolicy`] — earliest-finish-time: per worker, estimated queue
//!   drain (`(processing+1)/slots` × a nominal task cost) plus the
//!   [`netsim::transfer_ns`] cost of moving every dependency the worker does
//!   not yet hold; the minimum wins.
//!
//! The scheduler feeds dependency placement to `decide_worker` through a
//! visitor closure instead of exposing its task table, so policies see
//! exactly `(nbytes, who_has)` per dependency — enough for cost models,
//! nothing to mutate. Queues hold the core's [`TaskId`]s, never keys.

use crate::key::Key;
use crate::msg::WorkerId;
use crate::scheduler::TaskId;
use crate::spec::TaskSpec;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-worker state the scheduler shares with placement policies (and uses
/// itself for liveness bookkeeping).
pub struct WorkerState {
    /// Tasks currently assigned and not yet reported done.
    pub processing: usize,
    /// Executor slots this worker runs; load comparisons use the
    /// `processing / slots` ratio so a 4-slot worker with 2 running tasks
    /// counts as less loaded than a 1-slot worker with 1.
    pub slots: usize,
    /// Cleared when the liveness sweep declares this worker dead; dead
    /// workers never receive assignments and their reports are ignored.
    pub alive: bool,
    /// Last worker heartbeat, `None` until the first one arrives (a worker
    /// that never heartbeats — liveness off — is never declared dead).
    pub last_seen: Option<Instant>,
}

impl WorkerState {
    /// Compare load ratios `a.processing/a.slots` vs `b.processing/b.slots`
    /// without division (cross-multiplied, exact in u64).
    pub fn load_cmp(a: &WorkerState, b: &WorkerState) -> std::cmp::Ordering {
        let la = a.processing as u64 * b.slots as u64;
        let lb = b.processing as u64 * a.slots as u64;
        la.cmp(&lb)
    }
}

/// Dependency-placement visitor: the scheduler calls the callback with
/// `(nbytes, who_has)` for each dependency of the task being placed that it
/// still tracks, in the order of `spec.deps` (a repeated dependency is
/// visited each time it is listed). Policies never see the task table.
pub type DepLookup<'a> = dyn Fn(&mut dyn FnMut(u64, &[WorkerId])) + 'a;

/// A placement policy: owns the ready queue (ordering) and the per-task
/// worker decision. One instance lives inside the scheduler thread.
pub trait SchedulingPolicy: Send {
    /// Short stable name (shows up in benches and traces).
    fn name(&self) -> &'static str;

    /// Enqueue a task that became ready.
    fn push(&mut self, task: TaskId);

    /// Dequeue the next task to place, in policy order.
    fn pop(&mut self) -> Option<TaskId>;

    /// Queued (possibly stale — the scheduler re-checks state on pop) tasks.
    fn len(&self) -> usize;

    /// Is the queue empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A new graph was submitted, `ids[i]` being the task of `specs[i]`;
    /// priority policies derive ranks here.
    fn graph_submitted(&mut self, _specs: &[Arc<TaskSpec>], _ids: &[TaskId]) {}

    /// Choose a worker for `spec`, or `None` when no live worker remains.
    fn decide_worker(
        &mut self,
        spec: &TaskSpec,
        workers: &[WorkerState],
        deps: &DepLookup<'_>,
    ) -> Option<WorkerId>;
}

/// Which [`SchedulingPolicy`] a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Data-gravity + load ratio + round-robin (the historical default).
    Locality,
    /// Critical-path (b-level) priority queue over data-gravity placement.
    BLevel,
    /// Uniform-random placement repaired by worker-side stealing.
    RandomStealing,
    /// Minimum estimated finish time (queue drain + transfer costs).
    MinEft,
}

impl PolicyKind {
    /// Stable name (trace and report labels).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Locality => "locality",
            PolicyKind::BLevel => "blevel",
            PolicyKind::RandomStealing => "random-stealing",
            PolicyKind::MinEft => "mineft",
        }
    }
}

/// Scheduling-policy configuration: the placement policy plus the optional
/// worker-side steal poll interval (an idle executor slot that waits this
/// long without work sends a `StealRequest`; `None` disables stealing and
/// keeps the worker loop on its plain blocking `recv`).
#[derive(Debug, Clone)]
pub struct PolicyConfig {
    /// Placement policy.
    pub kind: PolicyKind,
    /// Idle-poll interval before a worker asks to steal; `None` = no
    /// stealing (the default, and byte-identical to the pre-policy runtime).
    pub steal_poll: Option<Duration>,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig::locality()
    }
}

impl PolicyConfig {
    /// The historical default: locality placement, no stealing.
    pub fn locality() -> Self {
        PolicyConfig {
            kind: PolicyKind::Locality,
            steal_poll: None,
        }
    }

    /// Critical-path priority, no stealing.
    pub fn b_level() -> Self {
        PolicyConfig {
            kind: PolicyKind::BLevel,
            ..PolicyConfig::locality()
        }
    }

    /// Random placement with worker-side stealing (1 ms idle poll).
    pub fn random_stealing() -> Self {
        PolicyConfig {
            kind: PolicyKind::RandomStealing,
            steal_poll: Some(Duration::from_millis(1)),
        }
    }

    /// Minimum expected finish time, no stealing.
    pub fn min_eft() -> Self {
        PolicyConfig {
            kind: PolicyKind::MinEft,
            ..PolicyConfig::locality()
        }
    }

    /// Is worker-side stealing on?
    pub fn steal_enabled(&self) -> bool {
        self.steal_poll.is_some()
    }

    /// Instantiate the policy object for the scheduler thread.
    pub fn build(&self) -> Box<dyn SchedulingPolicy> {
        match self.kind {
            PolicyKind::Locality => Box::new(LocalityPolicy::new()),
            PolicyKind::BLevel => Box::new(BLevelPolicy::new()),
            PolicyKind::RandomStealing => Box::new(RandomStealingPolicy::new()),
            PolicyKind::MinEft => Box::new(MinEftPolicy::new()),
        }
    }
}

/// The shared data-gravity decision: most dependency bytes first, load-ratio
/// tiebreak, round-robin scan for dependency-free tasks. Extracted verbatim
/// from the scheduler so [`LocalityPolicy`] (and [`BLevelPolicy`], which
/// reuses the placement half) stay behavior-identical to the pre-policy
/// runtime.
fn locality_decide(
    workers: &[WorkerState],
    deps: &DepLookup<'_>,
    rr_cursor: &mut usize,
    byte_share: &mut Vec<u64>,
) -> Option<WorkerId> {
    if workers.len() == 1 {
        return workers[0].alive.then_some(0);
    }
    byte_share.clear();
    byte_share.resize(workers.len(), 0);
    let mut any_deps = false;
    deps(&mut |nbytes, who_has| {
        for &w in who_has {
            if workers[w].alive {
                byte_share[w] += nbytes.max(1);
                any_deps = true;
            }
        }
    });
    if any_deps {
        let best = (0..workers.len())
            .filter(|&w| workers[w].alive)
            .max_by(|&a, &b| {
                byte_share[a].cmp(&byte_share[b]).then_with(|| {
                    // Equal bytes: prefer the lower load ratio (reverse
                    // the comparison, `max_by` keeps the smaller load).
                    WorkerState::load_cmp(&workers[b], &workers[a])
                })
            });
        if let Some(best) = best {
            if byte_share[best] > 0 {
                return Some(best);
            }
        }
    }
    // No placed deps: lowest load ratio among live workers, breaking
    // ties round-robin (strict `<` keeps the first minimum in
    // round-robin order).
    let n = workers.len();
    let mut best: Option<usize> = None;
    for off in 0..n {
        let w = (*rr_cursor + off) % n;
        if !workers[w].alive {
            continue;
        }
        best = Some(match best {
            None => w,
            Some(b) if WorkerState::load_cmp(&workers[w], &workers[b]).is_lt() => w,
            Some(b) => b,
        });
    }
    let best = best?;
    *rr_cursor = (best + 1) % n;
    Some(best)
}

/// FIFO + data-gravity: the historical scheduler behavior, unchanged.
pub struct LocalityPolicy {
    ready: VecDeque<TaskId>,
    rr_cursor: usize,
    /// Dependency bytes per worker, reused from one decision to the next.
    byte_share: Vec<u64>,
}

impl LocalityPolicy {
    /// Fresh policy with an empty queue.
    pub fn new() -> Self {
        LocalityPolicy {
            ready: VecDeque::new(),
            rr_cursor: 0,
            byte_share: Vec::new(),
        }
    }
}

impl Default for LocalityPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for LocalityPolicy {
    fn name(&self) -> &'static str {
        "locality"
    }

    fn push(&mut self, task: TaskId) {
        self.ready.push_back(task);
    }

    fn pop(&mut self) -> Option<TaskId> {
        self.ready.pop_front()
    }

    fn len(&self) -> usize {
        self.ready.len()
    }

    fn decide_worker(
        &mut self,
        _spec: &TaskSpec,
        workers: &[WorkerState],
        deps: &DepLookup<'_>,
    ) -> Option<WorkerId> {
        locality_decide(workers, deps, &mut self.rr_cursor, &mut self.byte_share)
    }
}

/// Compute b-levels for a submitted graph: the length (in tasks, unit costs)
/// of the longest dependency chain from each task to any sink *within the
/// submitted set*, `levels[i]` for `specs[i]`. Sinks get 1; a task's level is
/// `1 + max(level of its in-graph dependents)`. Keys outside the set
/// (externals, earlier graphs) contribute nothing — priorities only order
/// tasks against their own graph.
pub fn b_levels(specs: &[Arc<TaskSpec>]) -> Vec<u64> {
    let index: HashMap<&Key, usize> = specs.iter().enumerate().map(|(i, s)| (&s.key, i)).collect();
    // dependents[i] = indices of in-graph tasks that consume task i;
    // deps_idx[i] = deduped in-graph deps of task i (a key listed twice in
    // `spec.deps` must count once, or the pending counters underflow).
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); specs.len()];
    let mut deps_idx: Vec<Vec<usize>> = vec![Vec::new(); specs.len()];
    let mut pending: Vec<usize> = vec![0; specs.len()]; // unprocessed dependents
    for (i, spec) in specs.iter().enumerate() {
        for dep in &spec.deps {
            if let Some(&d) = index.get(dep) {
                if d != i && !dependents[d].contains(&i) {
                    dependents[d].push(i);
                    deps_idx[i].push(d);
                    pending[d] += 1;
                }
            }
        }
    }
    let mut level: Vec<u64> = vec![1; specs.len()];
    // Kahn from the sinks: a task's level is final once every dependent's is.
    let mut stack: Vec<usize> = (0..specs.len()).filter(|&i| pending[i] == 0).collect();
    while let Some(i) = stack.pop() {
        for &d in &deps_idx[i] {
            level[d] = level[d].max(level[i] + 1);
            pending[d] -= 1;
            if pending[d] == 0 {
                stack.push(d);
            }
        }
    }
    level
}

/// Max-heap entry: highest b-level first, FIFO (lowest sequence) within a
/// rank so equal-priority tasks keep submission order.
type RankedTask = (u64, Reverse<u64>, TaskId);

/// Critical-path priority: ready tasks pop in descending b-level order;
/// placement reuses the data-gravity rule.
pub struct BLevelPolicy {
    /// The rank of the task in each slot of the scheduler's task slab, with
    /// the id it was given for; a stale id ranks as unknown.
    ranks: Vec<Option<(TaskId, u64)>>,
    heap: BinaryHeap<RankedTask>,
    seq: u64,
    rr_cursor: usize,
    byte_share: Vec<u64>,
}

impl BLevelPolicy {
    /// Fresh policy with no ranks.
    pub fn new() -> Self {
        BLevelPolicy {
            ranks: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            rr_cursor: 0,
            byte_share: Vec::new(),
        }
    }
}

impl Default for BLevelPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for BLevelPolicy {
    fn name(&self) -> &'static str {
        "blevel"
    }

    fn push(&mut self, task: TaskId) {
        // Tasks no submitted graph ranked rank 0: they run after everything
        // with a known chain.
        let rank = match self.ranks.get(task.slot()) {
            Some(&Some((id, rank))) if id == task => rank,
            _ => 0,
        };
        self.seq += 1;
        self.heap.push((rank, Reverse(self.seq), task));
    }

    fn pop(&mut self) -> Option<TaskId> {
        self.heap.pop().map(|(_, _, task)| task)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn graph_submitted(&mut self, specs: &[Arc<TaskSpec>], ids: &[TaskId]) {
        for (&id, level) in ids.iter().zip(b_levels(specs)) {
            if self.ranks.len() <= id.slot() {
                self.ranks.resize(id.slot() + 1, None);
            }
            self.ranks[id.slot()] = Some((id, level));
        }
    }

    fn decide_worker(
        &mut self,
        _spec: &TaskSpec,
        workers: &[WorkerState],
        deps: &DepLookup<'_>,
    ) -> Option<WorkerId> {
        locality_decide(workers, deps, &mut self.rr_cursor, &mut self.byte_share)
    }
}

/// xorshift64* — tiny deterministic RNG; the fixed seed makes random
/// placement reproducible run-to-run (the policy identity tests rely on it).
pub(crate) struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift64 {
            state: seed | 1, // never zero
        }
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Uniform-random placement over live workers; pairs with worker-side
/// stealing to repair imbalance (the RSDS-style "simplest thing that works").
pub struct RandomStealingPolicy {
    ready: VecDeque<TaskId>,
    rng: XorShift64,
}

impl RandomStealingPolicy {
    /// Fresh policy with the fixed seed.
    pub fn new() -> Self {
        RandomStealingPolicy {
            ready: VecDeque::new(),
            rng: XorShift64::new(0x9E37_79B9_7F4A_7C15),
        }
    }
}

impl Default for RandomStealingPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for RandomStealingPolicy {
    fn name(&self) -> &'static str {
        "random-stealing"
    }

    fn push(&mut self, task: TaskId) {
        self.ready.push_back(task);
    }

    fn pop(&mut self) -> Option<TaskId> {
        self.ready.pop_front()
    }

    fn len(&self) -> usize {
        self.ready.len()
    }

    fn decide_worker(
        &mut self,
        _spec: &TaskSpec,
        workers: &[WorkerState],
        _deps: &DepLookup<'_>,
    ) -> Option<WorkerId> {
        let live: Vec<WorkerId> = (0..workers.len()).filter(|&w| workers[w].alive).collect();
        if live.is_empty() {
            return None;
        }
        Some(live[(self.rng.next() % live.len() as u64) as usize])
    }
}

/// Nominal compute cost of one task for the EFT queue-drain term. The exact
/// value only needs to be the right order of magnitude relative to transfer
/// costs; 1 ms sits between the trivial ops and the block-sized reductions
/// this runtime executes.
const NOMINAL_TASK_NS: u64 = netsim::MS;

/// Bandwidth assumed for dependency movement in the EFT estimate — the same
/// EDR NIC figure [`netsim::network::NetworkConfig`] defaults to, so live
/// placement and DES costing share one constant.
const EFT_BW: u64 = 12_500_000_000;

/// Earliest-finish-time placement: per live worker, estimated queue drain
/// plus the transfer cost of every dependency byte the worker does not hold.
pub struct MinEftPolicy {
    ready: VecDeque<TaskId>,
}

impl MinEftPolicy {
    /// Fresh policy.
    pub fn new() -> Self {
        MinEftPolicy {
            ready: VecDeque::new(),
        }
    }
}

impl Default for MinEftPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for MinEftPolicy {
    fn name(&self) -> &'static str {
        "mineft"
    }

    fn push(&mut self, task: TaskId) {
        self.ready.push_back(task);
    }

    fn pop(&mut self) -> Option<TaskId> {
        self.ready.pop_front()
    }

    fn len(&self) -> usize {
        self.ready.len()
    }

    fn decide_worker(
        &mut self,
        spec: &TaskSpec,
        workers: &[WorkerState],
        deps: &DepLookup<'_>,
    ) -> Option<WorkerId> {
        // Dependency placement snapshot: (nbytes, holders) per dep.
        let mut placed: Vec<(u64, Vec<WorkerId>)> = Vec::with_capacity(spec.deps.len());
        deps(&mut |nbytes, who_has| placed.push((nbytes, who_has.to_vec())));
        let mut best: Option<(u64, WorkerId)> = None;
        for (w, state) in workers.iter().enumerate() {
            if !state.alive {
                continue;
            }
            // Queue drain: this task runs after ceil(processing / slots)
            // rounds of slot turnover.
            let rounds = (state.processing as u64 + state.slots as u64) / state.slots as u64;
            let mut eft = rounds * NOMINAL_TASK_NS;
            for (nbytes, who_has) in &placed {
                if !who_has.contains(&w) {
                    eft += netsim::transfer_ns(*nbytes, EFT_BW);
                }
            }
            best = match best {
                Some(b) if b.0 <= eft => Some(b),
                _ => Some((eft, w)),
            };
        }
        best.map(|(_, w)| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;

    fn spec(key: &str, deps: &[&str]) -> Arc<TaskSpec> {
        Arc::new(TaskSpec::new(
            key,
            "identity",
            Datum::Null,
            deps.iter().map(Key::new).collect(),
        ))
    }

    fn workers(n: usize) -> Vec<WorkerState> {
        (0..n)
            .map(|_| WorkerState {
                processing: 0,
                slots: 1,
                alive: true,
                last_seen: None,
            })
            .collect()
    }

    /// No tracked deps: the visitor never fires.
    fn no_deps(_f: &mut dyn FnMut(u64, &[WorkerId])) {}

    #[test]
    fn b_levels_rank_chains_above_leaves() {
        // chain: a -> b -> c (c is the sink), plus a lone leaf.
        let specs = vec![
            spec("a", &[]),
            spec("b", &["a"]),
            spec("c", &["b"]),
            spec("leaf", &[]),
        ];
        assert_eq!(b_levels(&specs), [3, 2, 1, 1]);
    }

    #[test]
    fn b_levels_ignore_out_of_graph_deps_and_duplicates() {
        let specs = vec![spec("x", &["external", "external"]), spec("y", &["x", "x"])];
        assert_eq!(b_levels(&specs), [2, 1]);
    }

    #[test]
    fn blevel_queue_pops_highest_rank_fifo_within_rank() {
        let mut p = BLevelPolicy::new();
        let specs = vec![
            spec("deep1", &[]),
            spec("mid", &["deep1"]),
            spec("sink", &["mid"]),
            spec("leaf1", &[]),
            spec("leaf2", &[]),
        ];
        let ids: Vec<TaskId> = (0..specs.len() as u32).map(|i| TaskId::new(i, 0)).collect();
        p.graph_submitted(&specs, &ids);
        p.push(ids[3]);
        p.push(ids[0]);
        p.push(ids[4]);
        let mut pop = || specs[p.pop().unwrap().slot()].key.as_str();
        assert_eq!(pop(), "deep1");
        assert_eq!(pop(), "leaf1");
        assert_eq!(pop(), "leaf2");
        assert!(p.pop().is_none());
        // A later task in a ranked task's slot is unranked: it pops after
        // a leaf pushed behind it.
        p.push(TaskId::new(0, 1));
        p.push(ids[3]);
        assert_eq!(p.pop(), Some(ids[3]));
        assert_eq!(p.pop(), Some(TaskId::new(0, 1)));
    }

    #[test]
    fn locality_single_worker_fast_path() {
        let mut p = LocalityPolicy::new();
        let s = spec("t", &[]);
        let mut ws = workers(1);
        assert_eq!(p.decide_worker(&s, &ws, &no_deps), Some(0));
        ws[0].alive = false;
        assert_eq!(p.decide_worker(&s, &ws, &no_deps), None);
    }

    #[test]
    fn locality_round_robins_dependency_free_tasks() {
        let mut p = LocalityPolicy::new();
        let s = spec("t", &[]);
        let ws = workers(3);
        // Equal (zero) load everywhere: pure round-robin.
        assert_eq!(p.decide_worker(&s, &ws, &no_deps), Some(0));
        assert_eq!(p.decide_worker(&s, &ws, &no_deps), Some(1));
        assert_eq!(p.decide_worker(&s, &ws, &no_deps), Some(2));
        assert_eq!(p.decide_worker(&s, &ws, &no_deps), Some(0));
    }

    #[test]
    fn locality_follows_dependency_bytes() {
        let mut p = LocalityPolicy::new();
        let s = spec("t", &["d"]);
        let ws = workers(3);
        let lookup = |f: &mut dyn FnMut(u64, &[WorkerId])| f(1024, &[2]);
        assert_eq!(p.decide_worker(&s, &ws, &lookup), Some(2));
    }

    #[test]
    fn random_policy_is_deterministic_and_skips_dead_workers() {
        let draws = |n_dead: usize| {
            let mut p = RandomStealingPolicy::new();
            let s = spec("t", &[]);
            let mut ws = workers(4);
            for w in ws.iter_mut().take(n_dead) {
                w.alive = false;
            }
            (0..32)
                .map(|_| p.decide_worker(&s, &ws, &no_deps).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(0), draws(0), "fixed seed must reproduce");
        assert!(draws(2).iter().all(|&w| w >= 2), "dead workers excluded");
    }

    #[test]
    fn mineft_prefers_data_holder_until_queue_costs_dominate() {
        let mut p = MinEftPolicy::new();
        // 1 GiB dependency on worker 0: transfer dwarfs any queue term.
        let s = spec("t", &["big"]);
        let mut ws = workers(2);
        let lookup = |f: &mut dyn FnMut(u64, &[WorkerId])| f(1 << 30, &[0]);
        assert_eq!(p.decide_worker(&s, &ws, &lookup), Some(0));
        // Tiny dependency + deep queue on the holder: the idle worker wins
        // even though it must fetch.
        ws[0].processing = 1000;
        let lookup_small = |f: &mut dyn FnMut(u64, &[WorkerId])| f(8, &[0]);
        assert_eq!(p.decide_worker(&s, &ws, &lookup_small), Some(1));
    }

    #[test]
    fn config_builds_matching_policies() {
        for cfg in [
            PolicyConfig::locality(),
            PolicyConfig::b_level(),
            PolicyConfig::random_stealing(),
            PolicyConfig::min_eft(),
        ] {
            assert_eq!(cfg.build().name(), cfg.kind.name());
        }
        assert!(PolicyConfig::default().steal_poll.is_none());
        assert!(PolicyConfig::random_stealing().steal_enabled());
    }
}
