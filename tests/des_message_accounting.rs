//! The DES's scheduler traffic, counted by the scheduler core it steps,
//! against the §2.1 formulas `tests/message_accounting.rs` asserts on the
//! live runtime, at the same shape (R ranks, T steps).

use deisa_repro::dtask::{MsgClass, SchedulerStats};
use deisa_repro::insitu_sim::{run_sim_side, CostModel, Mode, Scenario};
use std::sync::Arc;

const STEPS: usize = 5;
const RANKS: usize = 4;

/// Classes the DES sends no message of, and why.
const NOT_MODELLED: [(MsgClass, &str); 8] = [
    (MsgClass::Variable, "the contract handshake is not replayed"),
    (MsgClass::WantResult, "no client awaits a result"),
    (MsgClass::TaskReport, "step graphs are placed, never run"),
    (MsgClass::AddReplica, "step graphs are placed, never run"),
    (MsgClass::WorkerHeartbeat, "workers send no liveness pings"),
    (
        MsgClass::ScatterData,
        "blocks cross the fat tree, not the core",
    ),
    (MsgClass::GatherData, "results are never fetched"),
    (MsgClass::PeerFetch, "step graphs are placed, never run"),
];

fn run(mode: Mode) -> Arc<SchedulerStats> {
    let scen = Scenario {
        mode,
        n_ranks: RANKS,
        n_workers: 2,
        block_bytes: 1 << 20,
        steps: STEPS,
        seed: 1,
        send_permille: 1000,
    };
    let stats = run_sim_side(&scen, &CostModel::default()).stats;
    for (class, why) in NOT_MODELLED {
        assert_eq!(stats.count(class), 0, "{class:?} is not modelled: {why}");
    }
    assert_eq!(stats.notifies_dropped(), 0, "{mode:?}");
    stats
}

#[test]
fn deisa1_counts_are_the_runtime_formulas() {
    let stats = run(Mode::Deisa1);
    let tr = (STEPS * RANKS) as u64;
    assert_eq!(stats.count(MsgClass::UpdateData), tr);
    assert_eq!(stats.count(MsgClass::UpdateDataExternal), 0);
    // Push (bridges) + pop (adaptor) per rank per step.
    assert_eq!(stats.count(MsgClass::Queue), 2 * tr);
    assert_eq!(stats.count(MsgClass::GraphSubmit), STEPS as u64);
    assert_eq!(stats.count(MsgClass::TaskSubmitted), tr);
    assert_eq!(stats.count(MsgClass::RegisterExternal), 0);
}

#[test]
fn deisa3_counts_are_the_runtime_formulas() {
    let stats = run(Mode::Deisa3);
    let tr = (STEPS * RANKS) as u64;
    assert_eq!(stats.count(MsgClass::UpdateDataExternal), tr);
    assert_eq!(stats.count(MsgClass::RegisterExternal), 1);
    assert_eq!(stats.count(MsgClass::Queue), 0);
    assert_eq!(stats.count(MsgClass::UpdateData), 0);
    assert_eq!(stats.count(MsgClass::Heartbeat), 0);
    // The live run submits its whole graph once; the DES leaves that
    // submission to the consumer-side timeline.
    assert_eq!(stats.count(MsgClass::GraphSubmit), 0);
}

#[test]
fn deisa2_heartbeats_and_posthoc_silence() {
    let d2 = run(Mode::Deisa2);
    assert_eq!(
        d2.count(MsgClass::UpdateDataExternal),
        (STEPS * RANKS) as u64
    );
    assert!(d2.count(MsgClass::Heartbeat) >= RANKS as u64);
    let posthoc = run(Mode::PostHoc);
    assert_eq!(posthoc.scheduler_control_messages(), 0);
}
