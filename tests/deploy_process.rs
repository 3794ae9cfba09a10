//! Process-level deployment tests: real `dtask-node` worker processes
//! (fork/exec of the compiled binary) attached to a `Cluster::listen` hub,
//! including SIGKILL chaos — the one failure mode thread-level tests cannot
//! produce, because a killed process takes its sockets, its heartbeat
//! pinger, and its object store with it instantly.

use deisa_repro::darray::{self, ChunkGrid, DArray, Graph};
use deisa_repro::dtask::{
    Cluster, ClusterConfig, Datum, DeployConfig, FaultConfig, HeartbeatInterval, Key,
};
use deisa_repro::linalg::NDArray;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn spawn_worker(addr: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_dtask-node"))
        .args(["--connect", addr])
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn dtask-node")
}

/// Spawn `n` worker processes one at a time, waiting for each to attach, so
/// child `k` is deterministically worker `k`.
fn spawn_workers(cluster: &Cluster, n: usize) -> Vec<Child> {
    let addr = cluster.deploy_addr().unwrap().to_string();
    let mut children = Vec::with_capacity(n);
    for k in 0..n {
        children.push(spawn_worker(&addr));
        let deadline = Instant::now() + Duration::from_secs(30);
        while cluster.attached_workers() < k + 1 {
            assert!(
                Instant::now() < deadline,
                "worker process {k} never attached"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    children
}

/// A hub + `n` real worker processes computes the quickstart reduction
/// bit-identically to the all-threads in-process cluster, and an orderly
/// shutdown dismisses every child with exit code 0.
#[test]
fn worker_processes_match_in_process_results() {
    let workload = |cluster: &Cluster| -> f64 {
        darray::register_array_ops(cluster.registry());
        let client = cluster.client();
        let keys: Vec<Key> = (0..4).map(|i| Key::new(format!("sim-block-{i}"))).collect();
        client.register_external(keys.clone());
        let grid = ChunkGrid::regular(&[16, 16], &[8, 8]).unwrap();
        let field = DArray::from_keys(grid, keys.clone()).unwrap();
        let mut graph = Graph::new("proc");
        let total = field.sum_all(&mut graph);
        graph.submit(&client);
        let producer = cluster.client();
        for (i, key) in keys.iter().enumerate() {
            let block = NDArray::full(&[8, 8], (i + 1) as f64);
            producer.scatter_external(vec![(key.clone(), Datum::from(block))], Some(i % 2));
        }
        client
            .future(total)
            .result_timeout(Duration::from_secs(60))
            .unwrap()
            .as_f64()
            .unwrap()
    };

    let local = workload(&Cluster::new(2));

    let cluster = Cluster::listen(
        ClusterConfig {
            n_workers: 2,
            ..ClusterConfig::default()
        },
        DeployConfig::default(),
    )
    .unwrap();
    let mut children = spawn_workers(&cluster, 2);
    let deployed = workload(&cluster);
    assert_eq!(deployed, local);
    assert_eq!(deployed, 64.0 * (1.0 + 2.0 + 3.0 + 4.0));

    drop(cluster); // Goodbye broadcast
    for (k, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("wait worker");
        assert!(
            status.success(),
            "worker process {k} must exit 0 after Goodbye, got {status:?}"
        );
    }
}

/// SIGKILL one worker process mid-workflow. With every external block
/// replicated on a surviving worker, liveness detects exactly one lost
/// peer, recovery re-runs the stranded/lost work on survivors, and the
/// final reduction is the undisturbed answer.
#[test]
fn sigkill_worker_process_recovers_with_one_peer_lost() {
    let cluster = Cluster::listen(
        ClusterConfig {
            n_workers: 3,
            fault: FaultConfig {
                heartbeat_timeout: Some(Duration::from_millis(300)),
                worker_heartbeat: HeartbeatInterval::Every(Duration::from_millis(50)),
                max_retries: 5,
                retry_backoff: Duration::from_millis(10),
                ..FaultConfig::default()
            },
            ..ClusterConfig::default()
        },
        DeployConfig::default(),
    )
    .unwrap();
    let mut children = spawn_workers(&cluster, 3);

    darray::register_array_ops(cluster.registry());
    let client = cluster.client();
    let keys: Vec<Key> = (0..4).map(|i| Key::new(format!("sim-block-{i}"))).collect();
    client.register_external(keys.clone());
    let grid = ChunkGrid::regular(&[16, 16], &[8, 8]).unwrap();
    let field = DArray::from_keys(grid, keys.clone()).unwrap();
    let mut graph = Graph::new("chaos");
    let total = field.sum_all(&mut graph);
    graph.submit(&client);

    // First two blocks, each replicated on two workers (1 is a holder).
    let producer = cluster.client();
    for (i, key) in keys.iter().take(2).enumerate() {
        let block = NDArray::full(&[8, 8], (i + 1) as f64);
        producer.scatter_external(vec![(key.clone(), Datum::from(block.clone()))], Some(i % 3));
        producer.scatter_external(vec![(key.clone(), Datum::from(block))], Some((i + 1) % 3));
    }

    // SIGKILL worker 1's process: sockets, store, and pinger die instantly.
    children[1].kill().expect("kill worker 1");
    let _ = children[1].wait();

    // Liveness must detect exactly one lost peer.
    let deadline = Instant::now() + Duration::from_secs(15);
    while cluster.stats().peers_lost() < 1 {
        assert!(
            Instant::now() < deadline,
            "scheduler never noticed the killed worker process"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(cluster.stats().peers_lost(), 1);

    // Remaining blocks go to the survivors; the pre-submitted graph then
    // completes through recovery — replicas of blocks 0/1 survive on
    // workers 0 and 2, and anything stranded on worker 1 re-runs.
    for (i, place) in [(2usize, [2usize, 0]), (3usize, [0usize, 2])] {
        let block = NDArray::full(&[8, 8], (i + 1) as f64);
        producer.scatter_external(
            vec![(keys[i].clone(), Datum::from(block.clone()))],
            Some(place[0]),
        );
        producer.scatter_external(vec![(keys[i].clone(), Datum::from(block))], Some(place[1]));
    }
    let answer = client
        .future(total)
        .result_timeout(Duration::from_secs(60))
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(answer, 64.0 * (1.0 + 2.0 + 3.0 + 4.0));

    let stats = cluster.stats();
    assert_eq!(stats.peers_lost(), 1, "exactly one peer may be lost");
    assert_eq!(
        stats.injected_kills(),
        0,
        "a SIGKILL from outside is a loss, not an injected kill"
    );
    assert_eq!(
        stats.external_blocks_lost(),
        0,
        "every external block had a surviving replica"
    );

    // Orderly shutdown still works with a corpse in the worker table.
    drop(cluster);
    for (k, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("wait worker");
        if k == 1 {
            assert!(!status.success(), "worker 1 was SIGKILLed");
        } else {
            assert!(
                status.success(),
                "surviving worker {k} must exit 0, got {status:?}"
            );
        }
    }
}
