//! Quickstart: external tasks in five minutes.
//!
//! Shows the core mechanism of the paper with no simulation involved:
//! 1. register **external tasks** — keys whose data an outside producer will
//!    push later,
//! 2. submit an analytics graph over them *before any data exists*,
//! 3. have a "producer" push blocks with the extended
//!    `scatter(keys=…, external=true)`,
//! 4. watch the pre-submitted graph complete,
//! 5. export the task-lifecycle trace and print where the wall-clock went.
//!
//! Run: `cargo run --example quickstart`
//!
//! `QUICKSTART_DEPLOY=HOST:PORT` binds a hub at that address instead of
//! spawning in-process workers, then waits for three `dtask-node` worker
//! processes to attach (see README, "Multi-process deployment").
//!
//! Transports, object stores, policies, telemetry, fault recovery and
//! tenancy are each proven by a test suite; README maps features to suites.

use deisa_repro::darray::{self, DArray, Graph};
use deisa_repro::dtask::{
    Cluster, ClusterConfig, Datum, DeployConfig, EventKind, Key, TraceActor, TraceConfig,
};
use deisa_repro::linalg::NDArray;
use std::time::Duration;

fn main() {
    // A cluster: 1 scheduler thread + 3 workers — in this process, or served
    // by external `dtask-node` worker processes — with task-lifecycle
    // tracing on so the run leaves a Perfetto-loadable log.
    let config = ClusterConfig {
        n_workers: 3,
        trace: TraceConfig::enabled(),
        ..ClusterConfig::default()
    };
    let cluster = match std::env::var("QUICKSTART_DEPLOY").as_deref() {
        Err(_) | Ok("") => Cluster::with_config(config),
        Ok(bind) => {
            let deploy = DeployConfig {
                bind: bind.to_string(),
                ..DeployConfig::default()
            };
            let cluster = Cluster::listen(config, deploy).expect("bind deploy hub");
            println!(
                "deploy: hub listening on {}, waiting for 3 dtask-node workers",
                cluster.deploy_addr().unwrap()
            );
            assert!(
                cluster.await_workers(Duration::from_secs(120)),
                "dtask-node workers never attached"
            );
            println!("deploy: all 3 workers attached");
            cluster
        }
    };
    darray::register_array_ops(cluster.registry());
    let client = cluster.client();

    // 1. Four external blocks (a 2x2 grid of 8x8 tiles).
    let keys: Vec<Key> = (0..4).map(|i| Key::new(format!("sim-block-{i}"))).collect();
    client.register_external(keys.clone());

    // 2. Analytics graph over data that does NOT exist yet: global mean.
    let grid = darray::ChunkGrid::regular(&[16, 16], &[8, 8]).unwrap();
    let field = DArray::from_keys(grid, keys.clone()).unwrap();
    let mut graph = Graph::new("quickstart");
    let total_key = field.sum_all(&mut graph);
    let n_tasks = graph.submit(&client);
    println!("submitted {n_tasks} tasks before any data existed");

    // 3. The external environment produces the blocks, one at a time.
    let producer = cluster.client();
    for (i, key) in keys.iter().enumerate() {
        let block = NDArray::full(&[8, 8], (i + 1) as f64);
        producer.scatter_external(vec![(key.clone(), Datum::from(block))], None);
        println!("producer pushed {key}");
    }

    // 4. The graph, submitted ahead of time, has been computing as data
    //    arrived; fetch the result.
    let total = client.future(total_key).result().unwrap().as_f64().unwrap();
    println!("sum over all external blocks = {total}");
    assert_eq!(total, 64.0 * (1.0 + 2.0 + 3.0 + 4.0));

    // 5. Drain the trace: export a Chrome/Perfetto trace and print where
    //    the run's wall-clock went.
    let log = cluster.tracer().collect();
    std::fs::create_dir_all("results").unwrap();
    log.write_chrome("results/TRACE_quickstart.json").unwrap();
    let mut execs_per_worker = std::collections::BTreeMap::new();
    for (track, _) in log.events_of(EventKind::Exec) {
        if let TraceActor::WorkerSlot { worker, .. } = track.actor {
            *execs_per_worker.entry(worker).or_insert(0usize) += 1;
        }
    }
    for (worker, n) in &execs_per_worker {
        println!("worker {worker}: {n} exec spans");
    }
    println!("{}", log.phase_report().to_table());
    println!(
        "trace: results/TRACE_quickstart.json ({} events)",
        log.n_events()
    );
    // A deployed hub serialises every message to its workers' sockets.
    let stats = cluster.stats();
    println!(
        "wire: {} msgs, {} bytes",
        stats.wire_total_messages(),
        stats.wire_total_bytes()
    );
    println!("quickstart OK");
}
