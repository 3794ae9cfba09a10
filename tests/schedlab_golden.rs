//! The policy matrix of `schedlab` at a size tier-1 can afford: every
//! placement it makes is pinned.
//!
//! `results/policies_*.csv` come from `figures policies` at 100 workers and
//! 10⁵ tasks, which takes about a minute. This is the same matrix (all four
//! workload families × all four policies, one seed) at 10 workers × 2 slots
//! and about 10³ tasks, so it runs in seconds in a debug build. Each run
//! pins its makespan, its transfer time, its steal counters and an FNV-1a
//! digest of its whole assignment sequence, so a change to the scheduler
//! core, a policy or the simulated workers that moves one placement fails
//! here. On a mismatch the test writes `tests/golden/schedlab_matrix.txt.actual`;
//! review the diff, explain every moved value, then move it over the golden.

use deisa_repro::insitu_sim::schedlab::{policies, run, workloads, Outcome};
use std::path::PathBuf;

const WORKERS: usize = 10;
const SLOTS: usize = 2;
const TASKS: usize = 1_000;
const SEED: u64 = 7;

/// FNV-1a 64 over the `(task, worker)` pairs, little-endian.
fn digest(assignments: &[(u32, u32)]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &(task, worker) in assignments {
        for byte in task.to_le_bytes().into_iter().chain(worker.to_le_bytes()) {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn line(o: &Outcome) -> String {
    format!(
        "{} {} makespan_ns={} transfer_ns={} steal_requests={} tasks_stolen={} assignments={} fnv={:016x}",
        o.workload,
        o.policy.name(),
        o.makespan_ns,
        o.transfer_ns,
        o.stats.steal_requests(),
        o.stats.tasks_stolen(),
        o.assignments.len(),
        digest(&o.assignments),
    )
}

#[test]
fn small_policy_matrix_matches_golden() {
    let mut actual = String::new();
    for workload in workloads(TASKS, SEED) {
        for policy in policies() {
            let outcome = run(&workload, WORKERS, SLOTS, &policy);
            assert_eq!(outcome.tasks, workload.tasks.len());
            actual.push_str(&line(&outcome));
            actual.push('\n');
        }
    }
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/schedlab_matrix.txt");
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected != actual {
        let actual_path = golden.with_extension("txt.actual");
        std::fs::write(&actual_path, &actual).expect("write the .actual file");
        panic!(
            "the schedlab matrix differs from its golden; wrote {}",
            actual_path.display()
        );
    }
}
