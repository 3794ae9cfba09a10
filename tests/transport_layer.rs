//! Live-cluster integration tests for the pluggable transport layer.
//!
//! Three properties, all measured on real cluster runs (never replayed
//! schedules):
//!
//! 1. The Framed backend is observably equivalent to InProc — identical
//!    results — while every message crosses the versioned wire format and
//!    real serialized sizes land in the per-lane counters.
//! 2. Structured error causes (`ErrorCause`) survive the wire, including
//!    fused-stage attribution through the optimizer.
//! 3. The paper's §2.1 scheduler-load gap — DEISA1's `2·T·R + heartbeats`
//!    metadata stream vs DEISA3's `1 + R` contract setup — reproduces in
//!    *bytes on the wire*, measured over the Tcp backend's real sockets.

use deisa_repro::darray::{self, Graph};
use deisa_repro::deisa::deisa1::{Adaptor1, Bridge1};
use deisa_repro::deisa::{Adaptor, Bridge, DeisaVersion, Selection, VirtualArray};
use deisa_repro::dtask::{
    Cluster, ClusterConfig, Datum, ErrorCause, FaultConfig, HeartbeatInterval, Key, MsgClass,
    OptimizeConfig, TaskSpec, TransportConfig, WireLane,
};
use deisa_repro::linalg::NDArray;
use std::time::Duration;

const STEPS: usize = 5;
const RANKS: usize = 4;

fn varray() -> VirtualArray {
    VirtualArray::new("A", &[STEPS, 4, 4], &[1, 2, 2], 0).unwrap()
}

fn cluster_with(transport: TransportConfig) -> Cluster {
    Cluster::with_config(ClusterConfig {
        n_workers: 2,
        transport,
        ..ClusterConfig::default()
    })
}

/// The DEISA3 workflow from `tests/message_accounting.rs`, on an arbitrary
/// transport: R bridges publish T steps while an adaptor's pre-submitted
/// graph sums the whole virtual array.
fn run_deisa3_on(cluster: &Cluster) -> f64 {
    darray::register_array_ops(cluster.registry());
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
            adaptor
                .client()
                .future(k)
                .result()
                .unwrap()
                .as_f64()
                .unwrap()
        })
    };
    let mut handles = Vec::new();
    for rank in 0..RANKS {
        let client = cluster.client();
        handles.push(std::thread::spawn(move || {
            let mut b = Bridge::init(client, rank, vec![varray()]).unwrap();
            for t in 0..STEPS {
                b.publish("A", t, rank, NDArray::full(&[1, 2, 2], 1.0))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    analytics.join().unwrap()
}

/// The DEISA1 workflow (per-step queues + classic scatter) on an arbitrary
/// transport.
fn run_deisa1_on(cluster: &Cluster) -> f64 {
    darray::register_array_ops(cluster.registry());
    let analytics = {
        let client = cluster.client();
        std::thread::spawn(move || {
            let adaptor = Adaptor1::new(client, RANKS);
            let mut total = 0.0;
            for _ in 0..STEPS {
                let metas = adaptor.collect_step().unwrap();
                let step = adaptor.step_array(&varray(), &metas).unwrap();
                let mut g = Graph::new("m1");
                let k = step.sum_all(&mut g);
                g.submit(adaptor.client());
                total += adaptor
                    .client()
                    .future(k)
                    .result()
                    .unwrap()
                    .as_f64()
                    .unwrap();
            }
            total
        })
    };
    let mut handles = Vec::new();
    for rank in 0..RANKS {
        let client = cluster.client_with_heartbeat(DeisaVersion::Deisa1.heartbeat());
        handles.push(std::thread::spawn(move || {
            let mut b = Bridge1::init(client, rank, vec![varray()]);
            for t in 0..STEPS {
                b.publish("A", t, rank, NDArray::full(&[1, 2, 2], 1.0))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    analytics.join().unwrap()
}

// ---- backend equivalence ---------------------------------------------------

/// The DEISA3 workflow on `coded` computes what it computes on InProc, every
/// lane carried real serialized bytes (sched commands, executor assignments,
/// data-server puts/gets, client notifications, and correlated replies), and
/// the §2.1 protocol counts — `MsgClass`-level accounting — match the InProc
/// run exactly.
fn assert_deisa3_matches_inproc(coded: TransportConfig) {
    let inproc = cluster_with(TransportConfig::InProc);
    let coded = cluster_with(coded);
    let a = run_deisa3_on(&inproc);
    let b = run_deisa3_on(&coded);
    assert_eq!(a, b);
    assert_eq!(a, (STEPS * RANKS * 4) as f64);

    // InProc moves references; it must record zero wire traffic.
    let pi = inproc.stats();
    assert_eq!(pi.wire_total_messages(), 0);
    assert_eq!(pi.wire_total_bytes(), 0);

    let pc = coded.stats();
    for lane in WireLane::ALL {
        assert!(
            pc.wire_messages(lane) > 0,
            "lane {} saw no traffic",
            lane.name()
        );
        assert!(
            pc.wire_bytes(lane) > pc.wire_messages(lane),
            "lane {} bytes must exceed one byte per message",
            lane.name()
        );
    }
    assert_eq!(pc.count(MsgClass::Variable), pi.count(MsgClass::Variable));
    assert_eq!(
        pc.count(MsgClass::UpdateDataExternal),
        pi.count(MsgClass::UpdateDataExternal)
    );
    assert_eq!(pc.count(MsgClass::GraphSubmit), 1);
}

/// A graph whose message sequence is fixed: one client, every step waited
/// for before the next is sent, so no race decides how assignments batch or
/// which replica a gather asks. Returns the values and the per-lane
/// `(messages, bytes)` totals of the run.
fn run_fixed_graph_on(transport: TransportConfig) -> (Vec<f64>, Vec<(u64, u64)>) {
    let cluster = cluster_with(transport);
    let client = cluster.client();
    let get = |key: &str| client.future(key).result().unwrap().as_f64().unwrap();
    client.scatter(vec![(Key::new("a"), Datum::F64(1.5))], Some(0));
    client.scatter(vec![(Key::new("b"), Datum::F64(2.0))], Some(1));
    client.submit(vec![TaskSpec::new(
        "c",
        "sum_scalars",
        Datum::Null,
        vec!["a".into(), "b".into()],
    )]);
    let mut values = vec![get("c")];
    client.submit(vec![
        TaskSpec::new("d", "identity", Datum::Null, vec!["c".into()]),
        TaskSpec::new(
            "e",
            "sum_scalars",
            Datum::Null,
            vec!["c".into(), "a".into()],
        ),
    ]);
    values.extend([get("d"), get("e")]);
    let stats = cluster.stats();
    let lanes = WireLane::ALL
        .iter()
        .map(|&lane| (stats.wire_messages(lane), stats.wire_bytes(lane)))
        .collect();
    (values, lanes)
}

#[test]
fn framed_cluster_matches_inproc_results_and_accounts_bytes() {
    assert_deisa3_matches_inproc(TransportConfig::Framed);

    // Both coded backends share one encode-and-account step, so a
    // fixed message sequence must cost each of them the same frames and the
    // same bytes, lane by lane — and compute what InProc computes.
    let (expect, inproc_lanes) = run_fixed_graph_on(TransportConfig::InProc);
    assert_eq!(expect, vec![3.5, 3.5, 5.0]);
    assert!(inproc_lanes.iter().all(|&lane| lane == (0, 0)));
    let (framed, framed_lanes) = run_fixed_graph_on(TransportConfig::Framed);
    assert_eq!(framed, expect);
    assert!(framed_lanes.iter().all(|&(msgs, bytes)| bytes > msgs));
    let (tcp, tcp_lanes) = run_fixed_graph_on(TransportConfig::Tcp);
    assert_eq!(tcp, expect, "tcp changed the computed values");
    assert_eq!(
        tcp_lanes, framed_lanes,
        "tcp per-lane totals differ from framed"
    );
}

#[test]
fn tcp_cluster_matches_inproc_results_and_accounts_bytes() {
    // Every message survived real sockets — framing, partial-read
    // reassembly, and the writer threads included — with the same
    // envelope-only accounting shape Framed uses.
    assert_deisa3_matches_inproc(TransportConfig::Tcp);
}

// ---- error causes over the wire -------------------------------------------

#[test]
fn propagated_error_cause_survives_framed_transport() {
    let cluster = cluster_with(TransportConfig::Framed);
    cluster
        .registry()
        .register("boom", |_, _| Err("kaboom".into()));
    let client = cluster.client();
    client.submit(vec![
        TaskSpec::new("bad", "boom", Datum::Null, vec![]),
        TaskSpec::new("child", "identity", Datum::Null, vec!["bad".into()]),
    ]);
    // The origin failure is Direct…
    let direct = client.future("bad").result().unwrap_err();
    assert_eq!(direct.key.as_str(), "bad");
    assert_eq!(direct.cause, ErrorCause::Direct);
    // …and the dependent sees the same origin key, with the dependency edge
    // it arrived through — both round-tripped through the wire format.
    let err = client.future("child").result().unwrap_err();
    assert_eq!(err.key.as_str(), "bad");
    assert!(err.message.contains("kaboom"));
    assert_eq!(
        err.cause,
        ErrorCause::Propagated {
            via: Key::new("bad")
        }
    );
}

#[test]
fn fused_stage_error_cause_survives_framed_transport() {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 1,
        optimize: OptimizeConfig::enabled(),
        transport: TransportConfig::Framed,
        ..ClusterConfig::default()
    });
    cluster
        .registry()
        .register("boom", |_, _| Err("kaboom".into()));
    let client = cluster.client();
    // ok -> bad -> child fuses into one task stored under "child"; the
    // interior stage "bad" fails.
    client.submit(vec![
        TaskSpec::new("ok", "const", Datum::F64(1.0), vec![]),
        TaskSpec::new("bad", "boom", Datum::Null, vec!["ok".into()]),
        TaskSpec::new("child", "identity", Datum::Null, vec!["bad".into()]),
    ]);
    let err = client.future("child").result().unwrap_err();
    assert_eq!(
        err.key.as_str(),
        "bad",
        "origin attribution survives fusion"
    );
    assert_eq!(
        err.cause,
        ErrorCause::FusedStage {
            stored_key: Key::new("child")
        }
    );
    assert_eq!(cluster.stats().fused_chains(), 1);
}

// ---- 1 + R contract-setup scaling in wire bytes ----------------------------

/// DEISA2/3 contract setup only — no publishes, no analytics graph — over
/// Framed, returning the scheduler-inbound wire traffic.
fn contract_setup_traffic(ranks: usize) -> (u64, u64, u64) {
    let cluster = cluster_with(TransportConfig::Framed);
    let analytics = {
        let client = cluster.client();
        std::thread::spawn(move || {
            let adaptor = Adaptor::new(client);
            let mut arrays = adaptor.get_deisa_arrays().unwrap();
            let v = arrays.descriptor("A").unwrap().clone();
            arrays.select("A", Selection::all(&v)).unwrap();
            arrays.validate_contract().unwrap();
        })
    };
    let mut handles = Vec::new();
    for rank in 0..ranks {
        let client = cluster.client();
        handles.push(std::thread::spawn(move || {
            Bridge::init(client, rank, vec![varray()]).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    analytics.join().unwrap();
    let stats = cluster.stats();
    (
        stats.count(MsgClass::Variable),
        stats.wire_messages(WireLane::SchedIn),
        stats.wire_bytes(WireLane::SchedIn),
    )
}

#[test]
fn framed_contract_setup_bytes_scale_as_one_plus_r() {
    // The §2.1 formula: contract setup costs `1 + R`-shaped metadata. Each
    // extra rank adds a *constant* increment — one connect, one contract
    // get, one disconnect — so both scheduler-inbound message and byte
    // totals must grow affinely in R, with the same per-rank step at every
    // R. Measured on real serialized frames, not estimates.
    let (v1, m1, b1) = contract_setup_traffic(1);
    let (v2, m2, b2) = contract_setup_traffic(2);
    let (v3, m3, b3) = contract_setup_traffic(3);
    assert_eq!(v1, 3 + 1);
    assert_eq!(v2, 3 + 2);
    assert_eq!(v3, 3 + 3);
    assert!(m2 > m1 && m3 > m2);
    assert_eq!(m2 - m1, m3 - m2, "per-rank message increment must be flat");
    assert_eq!(b2 - b1, b3 - b2, "per-rank byte increment must be flat");
    // And the increment is metadata-sized: a rank costs well under a block
    // of simulation data (32 bytes) per protocol message.
    let per_rank_msgs = m2 - m1;
    let per_rank_bytes = b2 - b1;
    assert!(per_rank_bytes < per_rank_msgs * 2048);
}

/// The same §2.1 gap with every frame crossing real TCP sockets — the
/// acceptance bar for the socket backend: byte accounting identical in shape
/// to Framed, measured on live runs.
#[test]
fn tcp_live_run_reproduces_deisa1_vs_deisa3_scheduler_gap() {
    let c3 = cluster_with(TransportConfig::Tcp);
    let total3 = run_deisa3_on(&c3);
    assert_eq!(total3, (STEPS * RANKS * 4) as f64);

    let c1 = cluster_with(TransportConfig::Tcp);
    let total1 = run_deisa1_on(&c1);
    assert_eq!(total1, (STEPS * RANKS * 4) as f64);

    let (s1, s3) = (c1.stats(), c3.stats());
    assert_eq!(s1.count(MsgClass::Queue) as usize, 2 * STEPS * RANKS);
    assert_eq!(s3.count(MsgClass::Queue), 0);
    assert_eq!(s3.count(MsgClass::Variable) as usize, 3 + RANKS);

    let (m1, b1) = (
        s1.wire_messages(WireLane::SchedIn),
        s1.wire_bytes(WireLane::SchedIn),
    );
    let (m3, b3) = (
        s3.wire_messages(WireLane::SchedIn),
        s3.wire_bytes(WireLane::SchedIn),
    );
    assert!(m1 > 0 && m3 > 0, "TCP must account frames on both runs");

    // Strip the compute plane out of the inbound lane. Task reports,
    // replica notices, and external-task completions are each exactly one
    // wire frame, and the paper does not count them as metadata — what
    // remains is the §2.1 metadata stream plus per-client session setup
    // (one connect + one disconnect for each of the R bridges + 1 adaptor).
    let metadata = |s: &deisa_repro::dtask::SchedulerStats, lane_msgs: u64| {
        lane_msgs
            - s.count(MsgClass::TaskReport)
            - s.count(MsgClass::AddReplica)
            - s.count(MsgClass::UpdateDataExternal)
    };
    let meta1 = metadata(s1, m1) - s1.count(MsgClass::Heartbeat);
    let meta3 = metadata(s3, m3);
    let session = 2 * (RANKS + 1);
    assert_eq!(meta1 as usize, 3 * STEPS * RANKS + 2 * STEPS + session);
    assert_eq!(meta3 as usize, (3 + RANKS) + 3 + session);
    assert!(
        meta1 >= 3 * meta3,
        "DEISA1 metadata frames {meta1} should dwarf DEISA3's {meta3} over TCP"
    );
    assert!(
        b1 > b3,
        "DEISA1 scheduler-inbound bytes {b1} should exceed DEISA3's {b3} over TCP"
    );
}

// ---- worker death under the Framed backend ---------------------------------

/// A Framed cluster with liveness on: fast worker pings, short timeout.
fn framed_fault_cluster() -> Cluster {
    Cluster::with_config(ClusterConfig {
        n_workers: 3,
        slots_per_worker: 1,
        transport: TransportConfig::Framed,
        fault: FaultConfig {
            heartbeat_timeout: Some(Duration::from_millis(150)),
            worker_heartbeat: HeartbeatInterval::Every(Duration::from_millis(20)),
            max_retries: 5,
            retry_backoff: Duration::from_millis(5),
            ..FaultConfig::default()
        },
        ..ClusterConfig::default()
    })
}

/// Kill-mid-run with every block replicated: the result over Framed must be
/// identical to an undisturbed run, because failure detection resubmits
/// stranded tasks onto survivors that hold replicas (or recomputes results
/// lost with the dead holder) — the whole recovery cycle (heartbeats, death
/// verdict, retries) crossing the wire format.
#[test]
fn framed_dead_worker_with_replicas_yields_identical_results() {
    let run = |kill: bool| -> f64 {
        let cluster = framed_fault_cluster();
        cluster.registry().register("slow_id", |_, inputs| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(inputs[0].clone())
        });
        let client = cluster.client();
        for i in 0..6usize {
            let key = Key::new(format!("blk-{i}"));
            let datum = Datum::F64((i + 1) as f64);
            client.scatter_external(vec![(key.clone(), datum.clone())], Some(i % 3));
            client.scatter_external(vec![(key, datum)], Some((i + 1) % 3));
        }
        let mut specs: Vec<TaskSpec> = (0..6usize)
            .map(|i| {
                TaskSpec::new(
                    format!("slow-{i}"),
                    "slow_id",
                    Datum::Null,
                    vec![Key::new(format!("blk-{i}"))],
                )
            })
            .collect();
        specs.push(TaskSpec::new(
            "total",
            "sum_scalars",
            Datum::Null,
            (0..6usize).map(|i| Key::new(format!("slow-{i}"))).collect(),
        ));
        client.submit(specs);
        if kill {
            std::thread::sleep(Duration::from_millis(30));
            cluster.kill_worker(1);
        }
        let total = client
            .future("total")
            .result_timeout(Duration::from_secs(30))
            .unwrap()
            .as_f64()
            .unwrap();
        if kill {
            let stats = cluster.stats();
            assert_eq!(stats.peers_lost(), 1);
            // Recovery may run through resubmission (a stranded assignment
            // re-queued onto a survivor) or recomputation (a finished result
            // that died with its holder) depending on which side of the kill
            // each task was on — either counts as the cycle crossing the wire.
            assert!(stats.tasks_resubmitted() + stats.recomputes() >= 1);
        }
        total
    };
    assert_eq!(run(false), run(true));
}

/// The unrecoverable case over Framed: the only replica of an external block
/// dies and its downstream cone fails with a structured `PeerLost` cause that
/// round-trips through the wire codec to the client.
#[test]
fn framed_dead_worker_without_replicas_errs_with_peer_lost() {
    let cluster = framed_fault_cluster();
    let client = cluster.client();
    client.scatter_external(vec![(Key::new("only"), Datum::F64(7.0))], Some(1));
    assert_eq!(client.future("only").result().unwrap().as_f64(), Some(7.0));
    cluster.kill_worker(1);
    client.submit(vec![TaskSpec::new(
        "reader",
        "identity",
        Datum::Null,
        vec!["only".into()],
    )]);
    let err = client
        .future("reader")
        .result_timeout(Duration::from_secs(30))
        .unwrap_err();
    assert_eq!(err.cause, ErrorCause::PeerLost, "{err:?}");
    assert_eq!(err.key.as_str(), "only");
    assert_eq!(cluster.stats().external_blocks_lost(), 1);
}
