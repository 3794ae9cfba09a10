//! The paper's §2.1 message-count formulas, measured on the real runtime,
//! and the cross-check that the DES models inject the same schedules.

use deisa_repro::darray::{self, Graph};
use deisa_repro::deisa::deisa1::{Adaptor1, Bridge1};
use deisa_repro::deisa::{Adaptor, Bridge, DeisaVersion, Selection, VirtualArray};
use deisa_repro::dtask::{
    Cluster, ClusterConfig, Datum, HeartbeatInterval, MsgClass, OptimizeConfig, StoreConfig,
    TaskSpec, TransportConfig, WireLane,
};
use deisa_repro::linalg::NDArray;
use deisa_repro::netsim::sizing::f64_block_bytes;
use std::time::Duration;

const STEPS: usize = 5;
const RANKS: usize = 4;

fn varray() -> VirtualArray {
    VirtualArray::new("A", &[STEPS, 4, 4], &[1, 2, 2], 0).unwrap()
}

fn run_version(version: DeisaVersion) -> Cluster {
    run_version_on(version, Cluster::new(2))
}

/// Same workflow on a cluster with the graph optimizer and batched scheduler
/// ingestion enabled — the configuration the paper's formulas must survive.
fn run_version_optimized(version: DeisaVersion) -> Cluster {
    run_version_on(
        version,
        Cluster::with_config(ClusterConfig {
            n_workers: 2,
            optimize: OptimizeConfig::enabled(),
            ..ClusterConfig::default()
        }),
    )
}

fn run_version_on(version: DeisaVersion, cluster: Cluster) -> Cluster {
    run_version_with_heartbeat(version, cluster, version.heartbeat(), Duration::ZERO)
}

/// The version's workflow with an explicit bridge heartbeat interval — the
/// window tests scale the paper's 5 s / 60 s / ∞ down so a wall-clock slice
/// fits in a unit test. Bridges keep their connection (and pinger) alive for
/// `window` after the last publish, standing in for a long-running
/// simulation between timesteps.
fn run_version_with_heartbeat(
    version: DeisaVersion,
    cluster: Cluster,
    bridge_heartbeat: HeartbeatInterval,
    window: Duration,
) -> Cluster {
    darray::register_array_ops(cluster.registry());
    if version.uses_external_tasks() {
        let analytics = {
            let client = cluster.client();
            std::thread::spawn(move || {
                let adaptor = Adaptor::new(client);
                let mut arrays = adaptor.get_deisa_arrays().unwrap();
                let v = arrays.descriptor("A").unwrap().clone();
                let a = arrays.select("A", Selection::all(&v)).unwrap();
                arrays.validate_contract().unwrap();
                let mut g = Graph::new("m");
                let k = a.sum_all(&mut g);
                g.submit(adaptor.client());
                adaptor.client().future(k).result().unwrap();
            })
        };
        let mut handles = Vec::new();
        for rank in 0..RANKS {
            let client = cluster.client_with_heartbeat(bridge_heartbeat);
            handles.push(std::thread::spawn(move || {
                let mut b = Bridge::init(client, rank, vec![varray()]).unwrap();
                for t in 0..STEPS {
                    b.publish("A", t, rank, NDArray::full(&[1, 2, 2], 1.0))
                        .unwrap();
                }
                std::thread::sleep(window);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        analytics.join().unwrap();
    } else {
        let analytics = {
            let client = cluster.client();
            std::thread::spawn(move || {
                let adaptor = Adaptor1::new(client, RANKS);
                for _ in 0..STEPS {
                    let metas = adaptor.collect_step().unwrap();
                    let step = adaptor.step_array(&varray(), &metas).unwrap();
                    let mut g = Graph::new("m1");
                    let k = step.sum_all(&mut g);
                    g.submit(adaptor.client());
                    adaptor.client().future(k).result().unwrap();
                }
            })
        };
        let mut handles = Vec::new();
        for rank in 0..RANKS {
            let client = cluster.client_with_heartbeat(bridge_heartbeat);
            handles.push(std::thread::spawn(move || {
                let mut b = Bridge1::init(client, rank, vec![varray()]);
                for t in 0..STEPS {
                    b.publish("A", t, rank, NDArray::full(&[1, 2, 2], 1.0))
                        .unwrap();
                }
                std::thread::sleep(window);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        analytics.join().unwrap();
    }
    cluster
}

#[test]
fn deisa1_metadata_matches_2tr_formula() {
    let cluster = run_version(DeisaVersion::Deisa1);
    let stats = cluster.stats();
    // Classic scatter updates: one per rank per step.
    assert_eq!(stats.count(MsgClass::UpdateData) as usize, STEPS * RANKS);
    assert_eq!(stats.count(MsgClass::UpdateDataExternal), 0);
    // Queue ops: push (bridges) + pop (adaptor) per rank per step.
    assert_eq!(stats.count(MsgClass::Queue) as usize, 2 * STEPS * RANKS);
    // Bridge-originated metadata = updates + pushes ≥ the paper's 2·T·R
    // (pops come from the adaptor; heartbeats are time-dependent).
    assert!(stats.bridge_metadata_messages() as usize >= 2 * STEPS * RANKS);
    // One graph submission per step.
    assert_eq!(stats.count(MsgClass::GraphSubmit) as usize, STEPS);
    assert_eq!(stats.count(MsgClass::Variable), 0);
}

#[test]
fn deisa3_metadata_matches_1_plus_r_formula() {
    let cluster = run_version(DeisaVersion::Deisa3);
    let stats = cluster.stats();
    // No classic-scatter metadata, no queues, no heartbeats.
    assert_eq!(stats.count(MsgClass::UpdateData), 0);
    assert_eq!(stats.count(MsgClass::Queue), 0);
    assert_eq!(stats.count(MsgClass::Heartbeat), 0);
    // Contract setup via the 2 Variables: rank-0 set + adaptor get +
    // adaptor set + R bridge gets = 3 + R messages ≈ the paper's 1 + R
    // (they count only the bridge-side messages).
    assert_eq!(stats.count(MsgClass::Variable) as usize, 3 + RANKS);
    // External-task completions are data plane: one per block per step.
    assert_eq!(
        stats.count(MsgClass::UpdateDataExternal) as usize,
        STEPS * RANKS
    );
    // The whole analytics graph went up ONCE.
    assert_eq!(stats.count(MsgClass::GraphSubmit), 1);
    // One external registration.
    assert_eq!(stats.count(MsgClass::RegisterExternal), 1);
}

/// The `1 + R` contract-message formula is a property of the protocol, not
/// of the scheduler configuration: with cull+fusion and batched ingestion
/// enabled, every DEISA3 metadata count must be exactly what the unoptimized
/// run produces — external tasks are never fused or culled away.
#[test]
fn deisa3_formula_survives_optimizer_and_batching() {
    let cluster = run_version_optimized(DeisaVersion::Deisa3);
    let stats = cluster.stats();
    assert_eq!(stats.count(MsgClass::UpdateData), 0);
    assert_eq!(stats.count(MsgClass::Queue), 0);
    assert_eq!(stats.count(MsgClass::Heartbeat), 0);
    assert_eq!(stats.count(MsgClass::Variable) as usize, 3 + RANKS);
    assert_eq!(
        stats.count(MsgClass::UpdateDataExternal) as usize,
        STEPS * RANKS
    );
    assert_eq!(stats.count(MsgClass::GraphSubmit), 1);
    assert_eq!(stats.count(MsgClass::RegisterExternal), 1);
    // And the optimizer genuinely ran over the analytics graph.
    assert!(stats.optimize_tasks_in() > 0);
}

/// DEISA1 (per-step queues + classic scatter) under the optimized scheduler:
/// the `2·T·R` bridge-metadata shape is likewise untouched.
#[test]
fn deisa1_formula_survives_optimizer_and_batching() {
    let cluster = run_version_optimized(DeisaVersion::Deisa1);
    let stats = cluster.stats();
    assert_eq!(stats.count(MsgClass::UpdateData) as usize, STEPS * RANKS);
    assert_eq!(stats.count(MsgClass::UpdateDataExternal), 0);
    assert_eq!(stats.count(MsgClass::Queue) as usize, 2 * STEPS * RANKS);
    assert!(stats.bridge_metadata_messages() as usize >= 2 * STEPS * RANKS);
    assert_eq!(stats.count(MsgClass::GraphSubmit) as usize, STEPS);
    assert_eq!(stats.count(MsgClass::Variable), 0);
}

/// External-task traffic — completions, registrations, and payload bytes —
/// is bit-identical with and without the optimizer.
#[test]
fn external_task_counts_identical_pre_post_optimize() {
    let plain = run_version(DeisaVersion::Deisa3);
    let optimized = run_version_optimized(DeisaVersion::Deisa3);
    let (p, o) = (plain.stats(), optimized.stats());
    assert_eq!(
        p.count(MsgClass::UpdateDataExternal),
        o.count(MsgClass::UpdateDataExternal)
    );
    assert_eq!(
        p.count(MsgClass::RegisterExternal),
        o.count(MsgClass::RegisterExternal)
    );
    assert_eq!(
        p.bytes(MsgClass::ScatterData),
        o.bytes(MsgClass::ScatterData)
    );
    // The optimized run got there with fewer scheduler->worker assignment
    // messages (per-worker coalescing), never more.
    assert!(o.assign_messages() <= o.assign_tasks());
}

/// The §2.1 formulas measured with every frame crossing real TCP sockets:
/// the protocol counts are transport-invariant, and the scheduler-inbound
/// lane shows the same `2·T·R` vs `1 + R` gap in bytes that the Framed
/// backend accounts — sockets add framing, never messages.
#[test]
fn tcp_lane_bytes_reproduce_deisa_formulas() {
    let tcp_cluster = || {
        Cluster::with_config(ClusterConfig {
            n_workers: 2,
            transport: TransportConfig::Tcp,
            ..ClusterConfig::default()
        })
    };
    let c1 = run_version_on(DeisaVersion::Deisa1, tcp_cluster());
    let c3 = run_version_on(DeisaVersion::Deisa3, tcp_cluster());
    let (s1, s3) = (c1.stats(), c3.stats());

    // Protocol shape, unchanged by the socket backend.
    assert_eq!(s1.count(MsgClass::Queue) as usize, 2 * STEPS * RANKS);
    assert_eq!(s1.count(MsgClass::UpdateData) as usize, STEPS * RANKS);
    assert_eq!(s3.count(MsgClass::Queue), 0);
    assert_eq!(s3.count(MsgClass::Variable) as usize, 3 + RANKS);
    assert_eq!(s3.count(MsgClass::GraphSubmit), 1);

    // And the lane accounting carries it in real serialized bytes.
    let (m1, b1) = (
        s1.wire_messages(WireLane::SchedIn),
        s1.wire_bytes(WireLane::SchedIn),
    );
    let (m3, b3) = (
        s3.wire_messages(WireLane::SchedIn),
        s3.wire_bytes(WireLane::SchedIn),
    );
    assert!(m1 > 0 && m3 > 0, "TCP runs must account scheduler frames");
    assert!(b1 > m1 && b3 > m3, "lane bytes must be real envelope sizes");
    assert!(
        m1 > m3 && b1 > b3,
        "DEISA1 scheduler lane ({m1} msgs / {b1} B) must exceed DEISA3's ({m3} msgs / {b3} B)"
    );
}

#[test]
fn deisa3_scheduler_load_is_far_below_deisa1() {
    let c1 = run_version(DeisaVersion::Deisa1);
    let c3 = run_version(DeisaVersion::Deisa3);
    let meta1 = c1.stats().bridge_metadata_messages();
    let meta3 = c3.stats().bridge_metadata_messages();
    assert!(
        meta1 >= 3 * meta3,
        "DEISA1 metadata {meta1} should dwarf DEISA3 {meta3}"
    );
}

#[test]
fn des_model_injects_matching_schedule() {
    // The DES replays the same per-class counts the real runtime produced,
    // projected to its scale. For R ranks and T steps the producer side
    // injects: DEISA3 → T·R light updates (+0 queue/heartbeat);
    // DEISA1 → T·R heavy updates + 2·T·R queue ops + T submits + heartbeats.
    use deisa_repro::insitu_sim::{run_sim_side, CostModel, Mode, Scenario};
    let cost = CostModel::default();
    let t = STEPS;
    let r = RANKS;
    let d3 = run_sim_side(
        &Scenario {
            mode: Mode::Deisa3,
            n_ranks: r,
            n_workers: 2,
            block_bytes: 1 << 20,
            steps: t,
            seed: 1,
            send_permille: 1000,
        },
        &cost,
    );
    assert_eq!(d3.sched_msgs as usize, t * r);
    let d1 = run_sim_side(
        &Scenario {
            mode: Mode::Deisa1,
            n_ranks: r,
            n_workers: 2,
            block_bytes: 1 << 20,
            steps: t,
            seed: 1,
            send_permille: 1000,
        },
        &cost,
    );
    // Updates + pushes + pops + submits, plus the heartbeats the DES run's
    // own scheduler counted (their number depends on virtual runtime).
    let heartbeats = d1.stats.count(MsgClass::Heartbeat) as usize;
    assert!(heartbeats > 0, "DEISA1 bridges heartbeat");
    assert_eq!(d1.sched_msgs as usize, 3 * t * r + t + heartbeats);
}

// ---- heartbeat accounting over a simulated wall-clock window --------------
//
// The paper's three configs differ in heartbeat interval: DEISA1 keeps
// Dask's 5 s default, DEISA2 stretches it to 60 s, DEISA3 disables it. The
// tests scale those intervals 1000x (5 ms / 60 ms / ∞) and keep the bridges
// connected for a 150 ms window after the last publish, so the per-version
// `MsgClass::Heartbeat` traffic is measured against the §2.1 formulas on
// real wall clock instead of being asserted away as zero.

const WINDOW: Duration = Duration::from_millis(150);

#[test]
fn deisa1_window_counts_2tr_plus_heartbeats() {
    let cluster = run_version_with_heartbeat(
        DeisaVersion::Deisa1,
        Cluster::new(2),
        HeartbeatInterval::Every(Duration::from_millis(5)),
        WINDOW,
    );
    // Every bridge has sent its last heartbeat, but the scheduler may not
    // have counted it yet. One round trip through its FIFO inbox first, in
    // classes the assertions do not read (a graph submission and a result
    // request), so the two reads below see the same heartbeat count.
    let client = cluster.client();
    client.submit(vec![TaskSpec::new("sync", "const", Datum::Null, vec![])]);
    client.future("sync").result().unwrap();
    let stats = cluster.stats();
    let heartbeats = stats.count(MsgClass::Heartbeat);
    // Metadata shape is unchanged by the pinger…
    assert_eq!(stats.count(MsgClass::UpdateData) as usize, STEPS * RANKS);
    assert_eq!(stats.count(MsgClass::Queue) as usize, 2 * STEPS * RANKS);
    // …and the bridge total is exactly updates + queue ops + heartbeats:
    // the paper's `2·T·R + heartbeats`, with every term measured.
    assert_eq!(
        stats.bridge_metadata_messages(),
        (3 * STEPS * RANKS) as u64 + heartbeats
    );
    // Each of the R bridges pings ~every 5 ms across a ≥150 ms window.
    assert!(
        heartbeats >= (RANKS * 10) as u64,
        "expected a stream of 5 ms heartbeats, saw {heartbeats}"
    );
}

#[test]
fn deisa2_window_heartbeats_are_sparse() {
    let cluster = run_version_with_heartbeat(
        DeisaVersion::Deisa2,
        Cluster::new(2),
        HeartbeatInterval::Every(Duration::from_millis(60)),
        WINDOW,
    );
    let stats = cluster.stats();
    let heartbeats = stats.count(MsgClass::Heartbeat);
    // External-task protocol: contract setup only, no per-step metadata.
    assert_eq!(stats.count(MsgClass::UpdateData), 0);
    assert_eq!(stats.count(MsgClass::Queue), 0);
    assert_eq!(stats.count(MsgClass::Variable) as usize, 3 + RANKS);
    // A 60 ms interval over a 150 ms window: every bridge pings at least
    // once, but far below DEISA1's 5 ms stream over the same window.
    assert!(
        heartbeats >= RANKS as u64,
        "every bridge should ping at least once, saw {heartbeats}"
    );
    assert!(
        heartbeats < (RANKS * 10) as u64,
        "60 ms interval should stay sparse, saw {heartbeats}"
    );
}

#[test]
fn deisa3_window_has_zero_heartbeats() {
    let cluster = run_version_with_heartbeat(
        DeisaVersion::Deisa3,
        Cluster::new(2),
        DeisaVersion::Deisa3.heartbeat(),
        WINDOW,
    );
    let stats = cluster.stats();
    // The whole point of external tasks: nothing pings, ever — the bridge
    // total collapses to the `1 + R`-shaped contract setup.
    assert_eq!(stats.count(MsgClass::Heartbeat), 0);
    assert_eq!(stats.count(MsgClass::Variable) as usize, 3 + RANKS);
    assert_eq!(
        stats.bridge_metadata_messages() as usize,
        3 + RANKS,
        "window must add no traffic at all"
    );
}

// ---- exactly-once heartbeat accounting --------------------------------------
//
// The scheduler drains its inbox in bursts. Each `MsgClass::Heartbeat` in a
// burst must be counted exactly once (and track the client's `last_seen`),
// or the §2.1 `2·T·R + heartbeats` budget drifts.

#[test]
fn heartbeats_counted_exactly_once_batched() {
    let cluster = Cluster::new(1);
    let client = cluster.client();
    const N: usize = 25;
    for _ in 0..N {
        client.heartbeat();
    }
    // A synchronous round-trip: the scheduler has consumed everything this
    // client sent before it answers the variable get.
    client.var_set("sync", deisa_repro::dtask::Datum::F64(1.0));
    client.var_get("sync").unwrap();
    let stats = cluster.stats();
    assert_eq!(
        stats.count(MsgClass::Heartbeat) as usize,
        N,
        "each heartbeat must be counted exactly once"
    );
    // Liveness bookkeeping saw the same stream: the pinging client is
    // tracked (once).
    assert_eq!(stats.peers_tracked(), 1);
    assert_eq!(stats.peers_lost(), 0);
}

// ---- out-of-band data plane: scheduler-lane bytes under growing blocks ----
//
// The proxy-handle plane (ISSUE 6) moves bulk variable payloads off the
// control path: the scheduler stores a fixed-size `DatumRef` while the
// payload rides the data lane between client and worker object stores. The
// §2.1 byte budget therefore splits — with proxies on, the scheduler-bound
// wire lane must stay inside a constant envelope while block sizes grow
// 100×; with proxies off, today's exact per-class byte counts reproduce.

/// A DEISA3-shaped feedback loop over the framed transport: each step a
/// producer publishes a `side`×`side` derived field as a variable and a
/// consumer reads it back. Returns the cluster plus the checksum of every
/// payload the consumer observed (for bit-exact identity across configs).
fn feedback_workload(side: usize, store: StoreConfig) -> (Cluster, f64) {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 2,
        transport: TransportConfig::Framed,
        store,
        ..ClusterConfig::default()
    });
    let producer = cluster.client();
    let consumer = cluster.client();
    let mut checksum = 0.0;
    for t in 0..STEPS {
        let field = NDArray::from_fn(&[side, side], |i| {
            (t * 1_000_000 + i[0] * side + i[1]) as f64 * 0.5
        });
        producer.var_set(&format!("field{t}"), Datum::from(field));
        let got = consumer.var_get(&format!("field{t}")).unwrap();
        checksum += got.as_array().unwrap().data().iter().sum::<f64>();
    }
    (cluster, checksum)
}

#[test]
fn proxies_keep_scheduler_lane_flat_as_blocks_grow_100x() {
    let (small, _) = feedback_workload(16, StoreConfig::proxies());
    let (large, _) = feedback_workload(160, StoreConfig::proxies());
    let (s, l) = (small.stats(), large.stats());
    // 100× more payload, same scheduler-lane traffic (±10% envelope: the
    // handles are fixed-size, only varint widths may wiggle).
    let (sched_s, sched_l) = (
        s.wire_bytes(WireLane::SchedIn),
        l.wire_bytes(WireLane::SchedIn),
    );
    assert!(
        sched_l as f64 <= sched_s as f64 * 1.10 && sched_l as f64 >= sched_s as f64 * 0.90,
        "scheduler lane must stay flat: {sched_s} B at 16x16 vs {sched_l} B at 160x160"
    );
    // Variable-class bytes on the scheduler are handle-sized, not
    // payload-sized — identical across the sweep.
    assert_eq!(s.bytes(MsgClass::Variable), l.bytes(MsgClass::Variable));
    assert!(s.bytes(MsgClass::Variable) < f64_block_bytes(16 * 16) * STEPS as u64);
    // The growth went to the data plane: store puts + fetch replies.
    let data = |st: &deisa_repro::dtask::SchedulerStats| {
        st.wire_bytes(WireLane::DataIn) + st.wire_bytes(WireLane::ReplyIn)
    };
    assert!(
        data(l) >= 50 * data(s),
        "data lane must carry the 100x growth: {} B vs {} B",
        data(s),
        data(l)
    );
    // And the payload accounting matches the published volume exactly.
    assert_eq!(
        l.proxy_put_bytes(),
        STEPS as u64 * f64_block_bytes(160 * 160)
    );
    assert_eq!(
        l.proxy_fetch_bytes(),
        STEPS as u64 * f64_block_bytes(160 * 160)
    );
}

#[test]
fn proxies_off_reproduces_exact_control_path_byte_counts() {
    for side in [16, 160] {
        let (cluster, _) = feedback_workload(side, StoreConfig::default());
        let stats = cluster.stats();
        // Today's behavior, untouched: every set carries the full block over
        // the control path, every get is a zero-byte request.
        assert_eq!(stats.count(MsgClass::Variable) as usize, 2 * STEPS);
        assert_eq!(
            stats.bytes(MsgClass::Variable),
            STEPS as u64 * f64_block_bytes(side * side)
        );
        assert_eq!(stats.proxy_puts(), 0);
        assert_eq!(stats.proxy_fetches(), 0);
        assert_eq!(stats.store_spills(), 0);
    }
}

#[test]
fn proxy_plane_results_are_bit_identical_to_inline_results() {
    let (_on, sum_on) = feedback_workload(160, StoreConfig::proxies());
    let (_off, sum_off) = feedback_workload(160, StoreConfig::default());
    assert_eq!(
        sum_on.to_bits(),
        sum_off.to_bits(),
        "proxy plane must not change a single bit of the results"
    );
}

// ---- scheduling policies must not perturb the protocol accounting --------
//
// ISSUE 7 factors placement behind `PolicyConfig`; the default locality
// policy is required to be byte-identical to the pre-policy scheduler. The
// protocol-deterministic message classes (everything the §2.1 formulas
// count — placement-dependent classes like `PeerFetch` are excluded) must
// match between an implicit default config and an explicitly selected
// locality policy, and no steal traffic may appear.

#[test]
fn explicit_locality_policy_reproduces_seed_counts() {
    use deisa_repro::dtask::PolicyConfig;
    let implicit = run_version(DeisaVersion::Deisa3);
    let explicit = run_version_on(
        DeisaVersion::Deisa3,
        Cluster::with_config(ClusterConfig {
            n_workers: 2,
            policy: PolicyConfig::locality(),
            ..ClusterConfig::default()
        }),
    );
    let (i, e) = (implicit.stats(), explicit.stats());
    for class in [
        MsgClass::UpdateData,
        MsgClass::UpdateDataExternal,
        MsgClass::Queue,
        MsgClass::Variable,
        MsgClass::GraphSubmit,
        MsgClass::RegisterExternal,
        MsgClass::Heartbeat,
        MsgClass::ScatterData,
    ] {
        assert_eq!(i.count(class), e.count(class), "count drifted: {class:?}");
        assert_eq!(i.bytes(class), e.bytes(class), "bytes drifted: {class:?}");
    }
    // The seed formulas hold verbatim under the explicit policy…
    assert_eq!(e.count(MsgClass::Variable) as usize, 3 + RANKS);
    assert_eq!(
        e.count(MsgClass::UpdateDataExternal) as usize,
        STEPS * RANKS
    );
    assert_eq!(e.count(MsgClass::GraphSubmit), 1);
    assert_eq!(e.bytes(MsgClass::ScatterData) as usize, STEPS * RANKS * 32);
    // …and the default policy generates zero steal traffic on either side.
    for stats in [i, e] {
        assert_eq!(stats.steal_requests(), 0);
        assert_eq!(stats.steal_misses(), 0);
        assert_eq!(stats.tasks_stolen(), 0);
    }
}

#[test]
fn scatter_bytes_track_payloads() {
    let cluster = run_version(DeisaVersion::Deisa3);
    let stats = cluster.stats();
    // Each block is 1x2x2 f64 = 32 bytes; R ranks × T steps.
    assert_eq!(
        stats.bytes(MsgClass::ScatterData) as usize,
        STEPS * RANKS * 32
    );
}
