//! Ahead-of-time graph optimization: cull + linear-chain fusion.
//!
//! The paper's whole-graph submission (§2.3) hands the scheduler every task
//! of a `T`-timestep analytics up front, so scheduler-side task count is the
//! scaling bottleneck (Fig. 5). Dask answers this with graph-level
//! `cull`/`fuse` optimization; this module is the same idea for our specs:
//!
//! * **Cull** drops tasks unreachable from the requested output keys. With
//!   contracts this composes naturally — blocks outside the selection never
//!   even reach the scheduler.
//! * **Fuse** collapses maximal *strictly linear* chains (each link: the
//!   producer has exactly one distinct dependent, the consumer exactly one
//!   distinct in-graph producer) into a single [`Value::Fused`] spec run
//!   inline by one executor slot. Strict linearity is what keeps reduction
//!   trees (e.g. the arity-8 `sum_scalars` fan-in) parallel: an interior
//!   tree node has many in-graph deps and is never fused into its child.
//!
//! **External-task invariant:** externally produced keys (bridge blocks)
//! never have an in-graph spec, so they can never be culled or become a
//! fused stage; they survive only as dependencies. [`optimize`] asserts that
//! fusion preserves the exact set of outside-graph dependency keys, so the
//! paper's `1 + R` contract-message formula is untouched by construction.

use crate::key::Key;
use crate::spec::{FusedInput, FusedStage, TaskSpec, Value};
use std::collections::{HashMap, HashSet, VecDeque};

/// Longest chain a single fused spec holds.
const MAX_CHAIN: usize = 32;

/// Whether clients optimize the graphs they submit, set through
/// `ClusterConfig`.
///
/// Disabled by default: intermediate keys stay individually addressable,
/// which the classic `future`-any-key client contract relies on. Callers
/// that submit whole graphs and only consume marked outputs opt in with
/// [`OptimizeConfig::enabled`].
#[derive(Clone, Debug, Default)]
pub struct OptimizeConfig {
    active: bool,
}

impl OptimizeConfig {
    /// Both passes on: cull, then fuse chains of up to 32 tasks.
    pub fn enabled() -> Self {
        OptimizeConfig { active: true }
    }

    /// Anything to do?
    pub fn is_active(&self) -> bool {
        self.active
    }
}

/// What the optimizer did to one submitted graph.
#[derive(Clone, Debug, Default)]
pub struct OptimizeReport {
    /// Tasks in the submitted graph.
    pub tasks_in: usize,
    /// Tasks after cull + fuse.
    pub tasks_out: usize,
    /// Tasks dropped by the cull pass.
    pub culled: usize,
    /// Length (stage count) of every fused chain produced.
    pub fused_chain_lengths: Vec<usize>,
}

/// Optimize a graph before submission.
///
/// * `outputs` — keys the client will consume. Empty means "unknown":
///   culling is skipped entirely (every task feeds *some* sink, and without
///   declared outputs every sink must be assumed wanted).
/// * `protected` — keys that must survive as individually stored results no
///   matter what (externally registered keys, keys with live futures).
///
/// Returns the rewritten specs plus a report. Specs already fused are passed
/// through untouched (never re-fused).
pub fn optimize(
    specs: Vec<TaskSpec>,
    outputs: &[Key],
    protected: &HashSet<Key>,
    cfg: &OptimizeConfig,
) -> (Vec<TaskSpec>, OptimizeReport) {
    let max_chain = if cfg.active { MAX_CHAIN } else { 0 };
    cull_and_fuse(specs, outputs, protected, cfg.active, max_chain)
}

/// The two passes behind [`optimize`]: cull when `cull`, then fuse chains
/// of at most `max_chain` tasks (none below 2).
fn cull_and_fuse(
    specs: Vec<TaskSpec>,
    outputs: &[Key],
    protected: &HashSet<Key>,
    cull: bool,
    max_chain: usize,
) -> (Vec<TaskSpec>, OptimizeReport) {
    let tasks_in: usize = specs.iter().map(|s| s.n_stages()).sum();
    let mut report = OptimizeReport {
        tasks_in,
        tasks_out: tasks_in,
        culled: 0,
        fused_chain_lengths: Vec::new(),
    };
    if !(cull || max_chain >= 2) || specs.is_empty() {
        return (specs, report);
    }

    let idx: HashMap<Key, usize> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.key.clone(), i))
        .collect();

    // Distinct in-graph dependents and producers per task.
    let n = specs.len();
    let mut dependents: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    let mut producers: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for (i, s) in specs.iter().enumerate() {
        for d in &s.deps {
            if let Some(&j) = idx.get(d) {
                if j != i {
                    dependents[j].insert(i);
                    producers[i].insert(j);
                }
            }
        }
    }

    // --- Cull: keep only tasks reachable (backwards) from the outputs. ---
    let mut kept: Vec<bool> = vec![true; n];
    if cull && !outputs.is_empty() {
        let mut seen = vec![false; n];
        let mut queue: VecDeque<usize> = outputs
            .iter()
            .chain(protected.iter())
            .filter_map(|k| idx.get(k).copied())
            .collect();
        for &i in &queue {
            seen[i] = true;
        }
        while let Some(i) = queue.pop_front() {
            for &p in &producers[i] {
                if !seen[p] {
                    seen[p] = true;
                    queue.push_back(p);
                }
            }
        }
        report.culled = specs
            .iter()
            .enumerate()
            .filter(|(i, _)| !seen[*i])
            .map(|(_, s)| s.n_stages())
            .sum();
        kept = seen;
        // Dependents of culled tasks are themselves culled, so the edge sets
        // stay consistent if we simply drop culled nodes from both sides.
        for i in 0..n {
            dependents[i].retain(|&j| kept[j]);
            producers[i].retain(|&j| kept[j]);
        }
    }

    if max_chain < 2 {
        let out: Vec<TaskSpec> = specs
            .into_iter()
            .enumerate()
            .filter(|(i, _)| kept[*i])
            .map(|(_, s)| s)
            .collect();
        report.tasks_out = out.iter().map(|s| s.n_stages()).sum();
        return (out, report);
    }

    // --- Fuse: find maximal strictly linear chains. ---
    // Edge i -> j is fusable iff i's only distinct dependent is j, j's only
    // distinct in-graph producer is i, neither is already fused, and i (which
    // would become an interior stage, losing its stored result) is neither an
    // output nor protected.
    let no_swallow: HashSet<&Key> = outputs.iter().chain(protected.iter()).collect();
    let plain = |i: usize| matches!(specs[i].value, Value::Op { .. });
    let mut next: Vec<Option<usize>> = vec![None; n];
    let mut has_prev: Vec<bool> = vec![false; n];
    for i in 0..n {
        if !kept[i] || !plain(i) || no_swallow.contains(&specs[i].key) {
            continue;
        }
        if dependents[i].len() != 1 {
            continue;
        }
        let j = *dependents[i].iter().next().unwrap();
        if plain(j) && producers[j].len() == 1 {
            next[i] = Some(j);
            has_prev[j] = true;
        }
    }

    let mut consumed = vec![false; n];
    let mut out: Vec<TaskSpec> = Vec::new();
    // Outside-graph dependency keys must be preserved exactly by fusion.
    let external_refs_before: HashSet<Key> = specs
        .iter()
        .enumerate()
        .filter(|(i, _)| kept[*i])
        .flat_map(|(_, s)| s.deps.iter())
        .filter(|d| !idx.contains_key(d))
        .cloned()
        .collect();

    let mut heads: VecDeque<usize> = (0..n)
        .filter(|&i| kept[i] && !has_prev[i] && next[i].is_some())
        .collect();
    while let Some(head) = heads.pop_front() {
        if consumed[head] {
            continue;
        }
        // Walk the chain; a run longer than `max_chain` restarts as a fresh
        // head so long pipelines fuse into ⌈len/max⌉ segments, not one
        // segment plus singles.
        let mut chain = vec![head];
        let mut cur = head;
        while let Some(j) = next[cur] {
            if chain.len() >= max_chain {
                heads.push_back(j);
                break;
            }
            chain.push(j);
            cur = j;
        }
        if chain.len() < 2 {
            continue;
        }
        for &i in &chain {
            consumed[i] = true;
        }
        // Build the fused spec: dedup outside deps in first-seen order, map
        // each stage argument to Dep(outside index) or Stage(prev).
        let mut fused_deps: Vec<Key> = Vec::new();
        let mut dep_pos: HashMap<Key, usize> = HashMap::new();
        let mut stages: Vec<FusedStage> = Vec::with_capacity(chain.len());
        for (si, &ti) in chain.iter().enumerate() {
            let s = &specs[ti];
            let (op, params) = match &s.value {
                Value::Op { op, params } => (op.clone(), params.clone()),
                Value::Fused { .. } => unreachable!("fused specs are never chained"),
            };
            let prev_key = if si > 0 {
                Some(&specs[chain[si - 1]].key)
            } else {
                None
            };
            let inputs = s
                .deps
                .iter()
                .map(|d| {
                    if prev_key == Some(d) {
                        FusedInput::Stage(si - 1)
                    } else {
                        let pos = *dep_pos.entry(d.clone()).or_insert_with(|| {
                            fused_deps.push(d.clone());
                            fused_deps.len() - 1
                        });
                        FusedInput::Dep(pos)
                    }
                })
                .collect();
            stages.push(FusedStage {
                key: s.key.clone(),
                op,
                params,
                inputs,
            });
        }
        report.fused_chain_lengths.push(stages.len());
        out.push(TaskSpec::fused(specs[cur].key.clone(), stages, fused_deps));
    }

    // Pass through everything not consumed by a chain.
    for (i, s) in specs.into_iter().enumerate() {
        if kept[i] && !consumed[i] {
            out.push(s);
        }
    }

    let external_refs_after: HashSet<Key> = out
        .iter()
        .flat_map(|s| s.deps.iter())
        .filter(|d| !idx.contains_key(d))
        .cloned()
        .collect();
    assert_eq!(
        external_refs_before, external_refs_after,
        "optimizer invariant: fusion must preserve external dependencies"
    );

    report.tasks_out = out.iter().map(|s| s.n_stages()).sum();
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;

    fn spec(key: &str, deps: &[&str]) -> TaskSpec {
        TaskSpec::new(
            key,
            "identity",
            Datum::Null,
            deps.iter().map(Key::new).collect(),
        )
    }

    fn keys(out: &[TaskSpec]) -> HashSet<String> {
        out.iter().map(|s| s.key.as_str().to_string()).collect()
    }

    #[test]
    fn disabled_config_is_identity() {
        let specs = vec![spec("a", &[]), spec("b", &["a"])];
        let (out, rep) = optimize(
            specs,
            &[Key::new("b")],
            &HashSet::new(),
            &OptimizeConfig::default(),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(rep.tasks_in, 2);
        assert_eq!(rep.tasks_out, 2);
    }

    #[test]
    fn cull_drops_unreachable_branch() {
        // a -> b (wanted), a -> c (dead end)
        let specs = vec![spec("a", &[]), spec("b", &["a"]), spec("c", &["a"])];
        let (out, rep) = cull_and_fuse(specs, &[Key::new("b")], &HashSet::new(), true, 0);
        assert_eq!(
            keys(&out),
            ["a", "b"].iter().map(|s| s.to_string()).collect()
        );
        assert_eq!(rep.culled, 1);
        assert_eq!(rep.tasks_out, 2);
    }

    #[test]
    fn cull_without_outputs_is_noop() {
        let specs = vec![spec("a", &[]), spec("b", &["a"]), spec("c", &["a"])];
        let cfg = OptimizeConfig::enabled();
        let (out, rep) = optimize(specs, &[], &HashSet::new(), &cfg);
        assert_eq!(rep.culled, 0);
        // Fusion still cannot touch the fan-out at `a`.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn linear_chain_fuses_to_one_spec() {
        let specs = vec![
            spec("a", &["ext"]),
            spec("b", &["a"]),
            spec("c", &["b"]),
            spec("d", &["c"]),
        ];
        let cfg = OptimizeConfig::enabled();
        let (out, rep) = optimize(specs, &[Key::new("d")], &HashSet::new(), &cfg);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key.as_str(), "d");
        assert_eq!(out[0].deps, vec![Key::new("ext")]);
        assert_eq!(rep.fused_chain_lengths, vec![4]);
        assert_eq!(rep.tasks_out, 4, "stage count is preserved in the report");
        match &out[0].value {
            Value::Fused { stages } => {
                assert_eq!(stages.len(), 4);
                assert_eq!(stages[0].inputs, vec![FusedInput::Dep(0)]);
                assert_eq!(stages[1].inputs, vec![FusedInput::Stage(0)]);
                assert_eq!(stages[3].key.as_str(), "d");
            }
            _ => panic!("expected fused spec"),
        }
    }

    #[test]
    fn reduction_tree_stays_parallel() {
        // leaves l0..l3 -> partial sums p0 (l0,l1), p1 (l2,l3) -> total.
        // Each leaf has one dependent, but every interior node has 2 in-graph
        // producers, so nothing may collapse the tree into one task.
        let specs = vec![
            spec("l0", &[]),
            spec("l1", &[]),
            spec("l2", &[]),
            spec("l3", &[]),
            spec("p0", &["l0", "l1"]),
            spec("p1", &["l2", "l3"]),
            spec("total", &["p0", "p1"]),
        ];
        let cfg = OptimizeConfig::enabled();
        let (out, rep) = optimize(specs, &[Key::new("total")], &HashSet::new(), &cfg);
        assert_eq!(out.len(), 7, "no fusion in a reduction tree");
        assert!(rep.fused_chain_lengths.is_empty());
    }

    #[test]
    fn protected_keys_are_not_swallowed() {
        let specs = vec![spec("a", &[]), spec("b", &["a"]), spec("c", &["b"])];
        let cfg = OptimizeConfig::enabled();
        let protected: HashSet<Key> = [Key::new("b")].into_iter().collect();
        let (out, _) = optimize(specs, &[Key::new("c")], &protected, &cfg);
        // b must survive as a stored key; only b->c may fuse.
        assert!(keys(&out).contains("b") || keys(&out).contains("c"));
        let stored: HashSet<String> = keys(&out);
        assert!(stored.contains("b"), "protected key must stay addressable");
    }

    #[test]
    fn external_deps_survive_fusion_identically() {
        // Chain over external blocks: every stage consumes one bridge block.
        let specs = vec![
            spec("s0", &["blk0"]),
            spec("s1", &["s0", "blk1"]),
            spec("s2", &["s1", "blk2"]),
        ];
        let cfg = OptimizeConfig::enabled();
        let (out, rep) = optimize(specs, &[Key::new("s2")], &HashSet::new(), &cfg);
        assert_eq!(out.len(), 1);
        let deps: HashSet<&str> = out[0].deps.iter().map(|k| k.as_str()).collect();
        assert_eq!(deps, ["blk0", "blk1", "blk2"].into_iter().collect());
        assert_eq!(rep.fused_chain_lengths, vec![3]);
    }

    #[test]
    fn max_chain_splits_long_runs() {
        let mut specs = vec![spec("t0", &[])];
        for i in 1..10 {
            specs.push(spec(&format!("t{i}"), &[&format!("t{}", i - 1)]));
        }
        let (out, rep) = cull_and_fuse(specs, &[Key::new("t9")], &HashSet::new(), false, 4);
        let total: usize = out.iter().map(|s| s.n_stages()).sum();
        assert_eq!(total, 10);
        assert!(rep.fused_chain_lengths.iter().all(|&l| l <= 4));
        assert!(out.len() < 10);
    }

    #[test]
    fn diamond_is_never_fused_through() {
        // a -> b, a -> c, (b,c) -> d: classic diamond, nothing linear.
        let specs = vec![
            spec("a", &[]),
            spec("b", &["a"]),
            spec("c", &["a"]),
            spec("d", &["b", "c"]),
        ];
        let cfg = OptimizeConfig::enabled();
        let (out, rep) = optimize(specs, &[Key::new("d")], &HashSet::new(), &cfg);
        assert_eq!(out.len(), 4);
        assert!(rep.fused_chain_lengths.is_empty());
    }

    #[test]
    fn repeated_argument_maps_to_same_stage() {
        // b = f(a, a): both arguments must point at stage 0.
        let specs = vec![spec("a", &["ext"]), spec("b", &["a", "a"])];
        let cfg = OptimizeConfig::enabled();
        let (out, _) = optimize(specs, &[Key::new("b")], &HashSet::new(), &cfg);
        assert_eq!(out.len(), 1);
        match &out[0].value {
            Value::Fused { stages } => {
                assert_eq!(
                    stages[1].inputs,
                    vec![FusedInput::Stage(0), FusedInput::Stage(0)]
                );
            }
            _ => panic!("expected fused spec"),
        }
    }
}
