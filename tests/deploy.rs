//! Deployment-layer integration tests: a `Cluster::listen` hub serving
//! worker nodes that attach through the real TCP registration handshake.
//!
//! The nodes here run as threads calling [`run_node`] — the exact code the
//! `dtask-node` binary runs — so the whole wire path (frame preamble,
//! `Hello`/`Welcome`, star-routed worker↔worker fetches, `Goodbye`
//! shutdown) is exercised in-process where failures produce backtraces.
//! Process-level deployment (fork/exec + SIGKILL chaos) lives in
//! `tests/deploy_process.rs`.

use deisa_repro::darray::{self, ChunkGrid, DArray, Graph};
use deisa_repro::dtask::{
    run_node, Cluster, ClusterConfig, Datum, DeployConfig, Key, NodeConfig, OpRegistry,
    PolicyConfig, PolicyKind, TaskSpec,
};
use deisa_repro::linalg::NDArray;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// The quickstart workload: an analytics graph submitted over external
/// tasks before any data exists, then four blocks pushed with replicated
/// placement. Returns the reduced sum (64·(1+2+3+4) = 640).
fn run_workload(cluster: &Cluster, n_workers: usize) -> f64 {
    darray::register_array_ops(cluster.registry());
    let client = cluster.client();
    let keys: Vec<Key> = (0..4).map(|i| Key::new(format!("sim-block-{i}"))).collect();
    client.register_external(keys.clone());
    let grid = ChunkGrid::regular(&[16, 16], &[8, 8]).unwrap();
    let field = DArray::from_keys(grid, keys.clone()).unwrap();
    let mut graph = Graph::new("deploy");
    let total = field.sum_all(&mut graph);
    graph.submit(&client);

    let producer = cluster.client();
    for (i, key) in keys.iter().enumerate() {
        let block = NDArray::full(&[8, 8], (i + 1) as f64);
        producer.scatter_external(
            vec![(key.clone(), Datum::from(block.clone()))],
            Some(i % n_workers),
        );
        producer.scatter_external(
            vec![(key.clone(), Datum::from(block))],
            Some((i + 1) % n_workers),
        );
    }
    client
        .future(total)
        .result_timeout(Duration::from_secs(30))
        .unwrap()
        .as_f64()
        .unwrap()
}

/// A sleepy reduction op so queues actually build up behind busy slots
/// (the `slow_sum` of `tests/policy.rs`).
fn register_slow_sum(registry: &OpRegistry) {
    registry.register("slow_sum", |params, inputs| {
        let ms = params.as_i64().unwrap_or(0) as u64;
        std::thread::sleep(Duration::from_millis(ms));
        let mut total = 0.0;
        for d in inputs {
            total += d.as_f64().ok_or_else(|| "non-scalar input".to_string())?;
        }
        Ok(Datum::F64(total))
    });
}

fn node_registry() -> OpRegistry {
    let registry = OpRegistry::with_std_ops();
    darray::register_array_ops(&registry);
    register_slow_sum(&registry);
    registry
}

fn listen_cluster(n_workers: usize) -> Cluster {
    listen_with(ClusterConfig {
        n_workers,
        ..ClusterConfig::default()
    })
}

fn listen_with(config: ClusterConfig) -> Cluster {
    Cluster::listen(config, DeployConfig::default()).unwrap()
}

fn spawn_node(
    connect: String,
) -> std::thread::JoinHandle<Result<deisa_repro::dtask::NodeReport, String>> {
    std::thread::spawn(move || {
        run_node(
            NodeConfig {
                connect,
                ..NodeConfig::default()
            },
            node_registry(),
        )
    })
}

// ---- result identity across deployment --------------------------------------

/// The acceptance property: a hub + 2 attached nodes computes exactly what
/// the in-process cluster computes, with every executor message crossing
/// sockets, and an orderly shutdown dismisses both nodes with the hub's
/// `Goodbye` reason.
#[test]
fn deployed_cluster_matches_in_process_results() {
    let local = run_workload(&Cluster::new(2), 2);

    let cluster = listen_cluster(2);
    let addr = cluster.deploy_addr().unwrap().to_string();
    let nodes: Vec<_> = (0..2).map(|_| spawn_node(addr.clone())).collect();
    assert!(
        cluster.await_workers(Duration::from_secs(10)),
        "both nodes must attach"
    );
    assert_eq!(cluster.attached_workers(), 2);

    let deployed = run_workload(&cluster, 2);
    assert_eq!(deployed, local);
    assert_eq!(deployed, 64.0 * (1.0 + 2.0 + 3.0 + 4.0));

    // The compute plane genuinely crossed the wire: the hub accounted
    // serialized frames both ways.
    let stats = cluster.stats();
    assert!(stats.wire_total_messages() > 0);
    assert!(stats.wire_total_bytes() > stats.wire_total_messages());

    drop(cluster);
    let mut workers = Vec::new();
    for node in nodes {
        let report = node.join().unwrap().expect("node must exit cleanly");
        assert_eq!(report.reason, "cluster shutdown");
        workers.push(report.worker);
    }
    workers.sort_unstable();
    assert_eq!(workers, vec![0, 1], "hub must assign distinct worker ids");
}

// ---- stealing across processes ----------------------------------------------

/// The `skewed_cluster` set-up of `tests/policy.rs`: locality placement with
/// stealing switched on, two single-slot workers, so every task gravitates
/// to the worker holding the hot block and the idle peer MUST pull work over.
fn skewed_config() -> ClusterConfig {
    ClusterConfig {
        n_workers: 2,
        slots_per_worker: 1,
        policy: PolicyConfig {
            kind: PolicyKind::Locality,
            steal_poll: Some(Duration::from_millis(2)),
        },
        ..ClusterConfig::default()
    }
}

/// Eight 40 ms tasks over one hot block pinned on worker 0.
fn run_skewed(cluster: &Cluster) -> Vec<f64> {
    const SKEW_TASKS: usize = 8;
    let client = cluster.client();
    client.scatter_external(vec![(Key::new("hot"), Datum::F64(2.5))], Some(0));
    client.submit(
        (0..SKEW_TASKS)
            .map(|i| {
                TaskSpec::new(
                    format!("t{i}"),
                    "slow_sum",
                    Datum::I64(40),
                    vec!["hot".into()],
                )
            })
            .collect(),
    );
    (0..SKEW_TASKS)
        .map(|i| {
            client
                .future(format!("t{i}"))
                .result_timeout(Duration::from_secs(30))
                .unwrap()
                .as_f64()
                .unwrap()
        })
        .collect()
}

/// A worker process must steal exactly like a worker thread: the hub's
/// `PolicyConfig::steal_poll` reaches the node in its `Welcome`, the idle
/// node's slot sends `StealRequest`s over the socket, and the victim
/// forwards queued assignments to it through the hub.
#[test]
fn deployed_workers_steal_from_skewed_queue() {
    let local = {
        let cluster = Cluster::with_config(skewed_config());
        register_slow_sum(cluster.registry());
        run_skewed(&cluster)
    };

    let cluster = listen_with(skewed_config());
    let addr = cluster.deploy_addr().unwrap().to_string();
    let nodes: Vec<_> = (0..2).map(|_| spawn_node(addr.clone())).collect();
    assert!(
        cluster.await_workers(Duration::from_secs(10)),
        "both nodes must attach"
    );
    let deployed = run_skewed(&cluster);
    assert_eq!(deployed, local);
    let stats = cluster.stats();
    assert!(
        stats.steal_requests() >= 1,
        "an idle worker process must ask to steal"
    );
    assert!(
        stats.tasks_stolen() >= 1,
        "an idle worker process next to a 7-deep queue must steal, stole {}",
        stats.tasks_stolen()
    );

    drop(cluster);
    for node in nodes {
        node.join().unwrap().expect("node must exit cleanly");
    }
}

// ---- handshake robustness against a live hub --------------------------------

/// Connections that die mid-handshake — a partial `Hello`, a silent probe
/// that writes nothing, pure garbage — must not consume worker slots or
/// wedge the acceptor: a real node attaching afterwards still gets a slot
/// and the cluster still computes.
#[test]
fn hub_survives_mid_handshake_disconnects() {
    let cluster = listen_cluster(1);
    let addr = cluster.deploy_addr().unwrap();

    // A valid Hello frame, cut off mid-envelope.
    let hello = deisa_repro::dtask::net::frame(
        deisa_repro::dtask::Addr::Control,
        &deisa_repro::dtask::wire::encode_node(&deisa_repro::dtask::NodeMsg::Hello {
            slots: 1,
            mem_budget: None,
            capabilities: vec![],
        }),
    );
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&hello[..hello.len() - 3]).unwrap();
    } // dropped: peer closed mid-handshake
    {
        let _probe = TcpStream::connect(addr).unwrap();
    } // dropped without writing a byte
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[0xFF; 32]).unwrap();
    } // garbage preamble: structured reject, not a crash

    // Give the acceptor a moment to process the casualties, then attach a
    // real node into the one slot none of them may have claimed.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(cluster.attached_workers(), 0);

    let node = spawn_node(addr.to_string());
    assert!(
        cluster.await_workers(Duration::from_secs(10)),
        "real node must still attach after handshake casualties"
    );
    let total = run_workload(&cluster, 1);
    assert_eq!(total, 64.0 * (1.0 + 2.0 + 3.0 + 4.0));

    drop(cluster);
    assert_eq!(node.join().unwrap().unwrap().reason, "cluster shutdown");
}

/// A peer that completes the handshake and then vanishes without a
/// `Goodbye` (its socket just dies) must not wedge cluster shutdown: the
/// hub logs the dead peer during the goodbye broadcast and keeps going
/// instead of panicking or hanging on the write.
#[test]
fn shutdown_tolerates_already_dead_peer() {
    use std::io::Read;

    let cluster = listen_cluster(1);
    let addr = cluster.deploy_addr().unwrap();

    // A raw "node": full Hello, wait for the Welcome, then die silently.
    let hello = deisa_repro::dtask::net::frame(
        deisa_repro::dtask::Addr::Control,
        &deisa_repro::dtask::wire::encode_node(&deisa_repro::dtask::NodeMsg::Hello {
            slots: 1,
            mem_budget: None,
            capabilities: vec!["test-fake".into()],
        }),
    );
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&hello).unwrap();
        let mut buf = [0u8; 16];
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "hub must answer the handshake with a Welcome");
    } // dropped: attached worker dies without a Goodbye

    assert!(
        cluster.await_workers(Duration::from_secs(10)),
        "the fake node completed the handshake, so it counts as attached"
    );
    // Let the hub's reader notice the EOF before we tear down, so shutdown
    // runs against a peer the hub already knows is gone.
    std::thread::sleep(Duration::from_millis(100));

    // Must return, not hang on a dead socket and not panic.
    drop(cluster);
}
