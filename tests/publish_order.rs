//! Data before metadata: `scatter_external` returns once its puts are
//! queued, not acked, so a block can still be on its way to a worker when
//! the scheduler learns where it lives. Every read that knowledge can cause
//! must still find the block: a task that needs two blocks (one of them
//! fetched from the other worker), and a second client that reads each
//! block the moment the scheduler says it is ready. What orders them is that
//! each link delivers in order (DESIGN.md §10), over in-process links
//! (Framed, Tcp) and over a hub's star of nodes alike.

use deisa_repro::dtask::{
    run_node, Cluster, ClusterConfig, Datum, DeployConfig, Key, NodeConfig, OpRegistry, TaskSpec,
    TransportConfig,
};
use deisa_repro::linalg::NDArray;
use std::time::Duration;

const ROUNDS: usize = 24;
/// 512 KiB of f64 per block: encoding a put takes long enough that a read
/// sent ahead of it would overtake it.
const BLOCK: [usize; 2] = [128, 512];
const DEADLINE: Duration = Duration::from_secs(60);

/// `corner_sum`: the sum of every input array's first element.
fn register_corner_sum(registry: &OpRegistry) {
    registry.register("corner_sum", |_params, inputs| {
        let mut total = 0.0;
        for input in inputs {
            let Datum::Array(array) = input else {
                return Err("corner_sum: array inputs only".into());
            };
            total += array.data()[0];
        }
        Ok(Datum::F64(total))
    });
}

/// Block `i` (0 or 1) of round `r`: its key and the value it is filled with.
fn block(r: usize, i: usize) -> (Key, f64) {
    (Key::new(format!("block-{r}-{i}")), (2 * r + i) as f64)
}

/// Every round's two blocks registered and their task submitted up front, as
/// the paper's adaptor does; then each round publishes block 0 to worker 0
/// and block 1 to worker 1 and waits for its task. A second client watches
/// every block from before it is published and reads it once ready.
fn run_rounds(cluster: &Cluster) {
    register_corner_sum(cluster.registry());
    let client = cluster.client();
    let blocks: Vec<Key> = (0..ROUNDS)
        .flat_map(|r| [block(r, 0).0, block(r, 1).0])
        .collect();
    client.register_external(blocks.clone());
    let tasks: Vec<Key> = (0..ROUNDS)
        .map(|r| Key::new(format!("corner-{r}")))
        .collect();
    client.submit(
        (0..ROUNDS)
            .map(|r| {
                let deps = vec![block(r, 0).0, block(r, 1).0];
                TaskSpec::new(tasks[r].clone(), "corner_sum", Datum::Null, deps)
            })
            .collect(),
    );

    let reader = cluster.client();
    let reads = std::thread::spawn(move || {
        blocks
            .iter()
            .map(|key| reader.future(key.clone()).result_timeout(DEADLINE))
            .collect::<Vec<_>>()
    });

    for (r, task) in tasks.iter().enumerate() {
        for i in 0..2 {
            let (key, fill) = block(r, i);
            let data = Datum::from(NDArray::full(&BLOCK, fill));
            client.scatter_external(vec![(key, data)], Some(i));
        }
        let sum = client.future(task.clone()).result_timeout(DEADLINE);
        let expected = (4 * r + 1) as f64;
        assert_eq!(sum.map(|d| d.as_f64()), Ok(Some(expected)), "round {r}");
    }

    let reads = reads.join().expect("reader thread");
    for (n, read) in reads.into_iter().enumerate() {
        let (key, fill) = block(n / 2, n % 2);
        match read {
            Ok(Datum::Array(array)) => assert_eq!(array.data()[0], fill, "{key}"),
            other => panic!("{key}: read back {other:?}"),
        }
    }
}

fn two_workers(transport: TransportConfig) -> Cluster {
    Cluster::with_config(ClusterConfig {
        n_workers: 2,
        transport,
        ..ClusterConfig::default()
    })
}

#[test]
fn framed_reads_never_overtake_the_puts_they_follow() {
    run_rounds(&two_workers(TransportConfig::Framed));
}

#[test]
fn tcp_reads_never_overtake_the_puts_they_follow() {
    run_rounds(&two_workers(TransportConfig::Tcp));
}

fn listen_cluster(n_workers: usize) -> Cluster {
    let config = ClusterConfig {
        n_workers,
        ..ClusterConfig::default()
    };
    Cluster::listen(config, DeployConfig::default()).unwrap()
}

fn spawn_node(
    connect: String,
) -> std::thread::JoinHandle<Result<deisa_repro::dtask::NodeReport, String>> {
    std::thread::spawn(move || {
        let registry = OpRegistry::with_std_ops();
        register_corner_sum(&registry);
        run_node(
            NodeConfig {
                connect,
                ..NodeConfig::default()
            },
            registry,
        )
    })
}

#[test]
fn hub_reads_never_overtake_the_puts_they_follow() {
    let cluster = listen_cluster(2);
    let addr = cluster.deploy_addr().unwrap().to_string();
    let nodes: Vec<_> = (0..2).map(|_| spawn_node(addr.clone())).collect();
    assert!(
        cluster.await_workers(Duration::from_secs(10)),
        "both nodes must attach"
    );
    run_rounds(&cluster);
    drop(cluster);
    for node in nodes {
        node.join().unwrap().expect("node must exit cleanly");
    }
}
