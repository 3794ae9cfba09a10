//! Chaos suite: live clusters with injected worker kills.
//!
//! The invariants under test are the fault-tolerance contract of ISSUE 5:
//!
//! 1. **Recoverable**: when every external block has a surviving replica,
//!    killing a worker mid-run changes *nothing* about the result — the
//!    scheduler detects the death via missed heartbeats, resubmits the
//!    in-flight tasks, and recomputes results whose only replica died.
//! 2. **Unrecoverable**: when a block's only replica dies, the downstream
//!    cone fails *cleanly* — the client receives a structured
//!    [`ErrorCause::PeerLost`], never a hang and never a bogus result.
//! 3. Recovery is observable: `peers_lost` / `tasks_resubmitted` /
//!    `recomputes` / `external_blocks_lost` counters land in the stats and
//!    the snapshot export, and `PeerLost` instants land in the trace.

use deisa_repro::dtask::{
    Cluster, ClusterConfig, Datum, ErrorCause, EventKind, FaultConfig, FaultPlan,
    HeartbeatInterval, Key, StatsSnapshot, TaskError, TaskSpec, TraceConfig, TransportConfig,
};
use deisa_repro::linalg::NDArray;
use std::time::Duration;

/// Liveness tuned for test latency: 20 ms worker pings, 150 ms timeout.
fn chaos_fault() -> FaultConfig {
    FaultConfig {
        heartbeat_timeout: Some(Duration::from_millis(150)),
        worker_heartbeat: HeartbeatInterval::Every(Duration::from_millis(20)),
        max_retries: 5,
        retry_backoff: Duration::from_millis(5),
        plan: FaultPlan::default(),
    }
}

fn chaos_cluster(n_workers: usize) -> Cluster {
    Cluster::with_config(ClusterConfig {
        n_workers,
        slots_per_worker: 1,
        trace: TraceConfig::enabled(),
        fault: chaos_fault(),
        ..ClusterConfig::default()
    })
}

const BLOCKS: usize = 6;

/// The shared pipeline: `BLOCKS` external blocks, each replicated onto two
/// workers, flow through one slow stage each into a final reduction.
/// Optionally kills `kill` mid-run, while the first wave of slow stages is
/// still executing.
fn run_reduction(cluster: &Cluster, kill: Option<usize>) -> Result<Datum, TaskError> {
    cluster.registry().register("slow_id", |_, inputs| {
        std::thread::sleep(Duration::from_millis(50));
        Ok(inputs[0].clone())
    });
    let client = cluster.client();
    let n = cluster.n_workers();
    for i in 0..BLOCKS {
        let key = Key::new(format!("blk-{i}"));
        let datum = Datum::F64((i + 1) as f64);
        // Two replicas per block: any single worker death is survivable.
        client.scatter_external(vec![(key.clone(), datum.clone())], Some(i % n));
        client.scatter_external(vec![(key, datum)], Some((i + 1) % n));
    }
    let mut specs: Vec<TaskSpec> = (0..BLOCKS)
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
        (0..BLOCKS).map(|i| Key::new(format!("slow-{i}"))).collect(),
    ));
    client.submit(specs);
    if let Some(worker) = kill {
        // Each worker has one slot and ~2 queued 50 ms tasks: at 30 ms every
        // worker is mid-task, so the kill is guaranteed to strand work.
        std::thread::sleep(Duration::from_millis(30));
        cluster.kill_worker(worker);
    }
    client
        .future("total")
        .result_timeout(Duration::from_secs(30))
}

#[test]
fn killed_worker_with_replicated_blocks_yields_identical_results() {
    let baseline = {
        let cluster = chaos_cluster(3);
        run_reduction(&cluster, None).unwrap()
    };
    let cluster = chaos_cluster(3);
    let chaos = run_reduction(&cluster, Some(1)).unwrap();
    assert_eq!(
        baseline.as_f64(),
        chaos.as_f64(),
        "a kill with surviving replicas must not change the result"
    );
    let stats = cluster.stats();
    assert_eq!(stats.injected_kills(), 1);
    assert_eq!(stats.peers_lost(), 1, "exactly the killed worker");
    assert!(
        stats.tasks_resubmitted() + stats.recomputes() >= 1,
        "recovery must have resubmitted or recomputed something"
    );
    assert_eq!(stats.external_blocks_lost(), 0, "every block had a replica");
    assert_eq!(stats.retries_exhausted(), 0);
    // Worker pings were flowing before the kill.
    assert!(stats.peers_tracked() >= 3);
    // The loss is visible in the trace and in the snapshot export.
    let log = cluster.tracer().collect();
    assert_eq!(log.events_of(EventKind::PeerLost).count(), 1);
    let snap = StatsSnapshot::capture(stats);
    assert_eq!(snap.peers_lost(), 1);
    assert_eq!(snap.injected_kills(), 1);
    assert!(snap.to_json().to_string_compact().contains("\"fault\""));
}

/// A task assigned to an already-dead worker (the scheduler has not yet
/// noticed the death) must be resubmitted to a survivor once the liveness
/// sweep fires. Placement is forced deterministically: the dead worker holds
/// a replica of the task's input and has the lowest load, so data gravity
/// plus the load tie-break pick it.
#[test]
fn stranded_assignment_is_resubmitted_to_survivor() {
    let cluster = chaos_cluster(3);
    cluster.registry().register("slow_id", |_, inputs| {
        std::thread::sleep(Duration::from_millis(250));
        Ok(inputs[0].clone())
    });
    let client = cluster.client();
    // The input block lives on workers 1 and 2; an anchor pins a long task
    // onto worker 2 so worker 1 is the less-loaded replica holder.
    client.scatter_external(vec![(Key::new("b"), Datum::F64(9.0))], Some(1));
    client.scatter_external(vec![(Key::new("b"), Datum::F64(9.0))], Some(2));
    client.scatter_external(vec![(Key::new("anchor"), Datum::F64(0.0))], Some(2));
    client.submit(vec![TaskSpec::new(
        "busy",
        "slow_id",
        Datum::Null,
        vec!["anchor".into()],
    )]);
    // Worker 1 is idle: the kill returns immediately and nothing has
    // failed yet, so the scheduler still believes it alive.
    cluster.kill_worker(1);
    client.submit(vec![TaskSpec::new(
        "reader",
        "identity",
        Datum::Null,
        vec!["b".into()],
    )]);
    let r = client
        .future("reader")
        .result_timeout(Duration::from_secs(30))
        .unwrap();
    assert_eq!(r.as_f64(), Some(9.0));
    let stats = cluster.stats();
    assert_eq!(stats.peers_lost(), 1);
    assert!(
        stats.tasks_resubmitted() >= 1,
        "the stranded assignment must have been resubmitted"
    );
    let log = cluster.tracer().collect();
    assert!(log.events_of(EventKind::Resubmit).count() >= 1);
}

#[test]
fn unreplicated_block_loss_fails_downstream_cone_with_peer_lost() {
    let cluster = chaos_cluster(3);
    let client = cluster.client();
    // One lonely block, one replica, on the worker about to die.
    client.scatter_external(vec![(Key::new("lonely"), Datum::F64(9.0))], Some(1));
    assert_eq!(
        client.future("lonely").result().unwrap().as_f64(),
        Some(9.0)
    );
    cluster.kill_worker(1);
    // Consumers submitted after the kill but before detection still resolve
    // to a clean structured error once the sweep declares the worker dead.
    client.submit(vec![
        TaskSpec::new("mid", "identity", Datum::Null, vec!["lonely".into()]),
        TaskSpec::new("leaf", "identity", Datum::Null, vec!["mid".into()]),
    ]);
    let err = client
        .future("leaf")
        .result_timeout(Duration::from_secs(30))
        .unwrap_err();
    assert_eq!(
        err.cause,
        ErrorCause::PeerLost,
        "the loss attribution must survive the dependency cascade: {err:?}"
    );
    assert_eq!(err.key.as_str(), "lonely", "error names the lost block");
    // Model-fetch helpers map errors to strings; the attribution survives.
    assert!(err.to_string().ends_with("[peer lost]"), "{err}");
    assert_eq!(cluster.stats().external_blocks_lost(), 1);
    assert_eq!(cluster.stats().peers_lost(), 1);
}

#[test]
fn losing_every_worker_errs_instead_of_hanging() {
    let cluster = chaos_cluster(1);
    cluster.registry().register("slow_id", |_, inputs| {
        std::thread::sleep(Duration::from_millis(80));
        Ok(inputs[0].clone())
    });
    let client = cluster.client();
    client.scatter_external(vec![(Key::new("b"), Datum::F64(1.0))], Some(0));
    client.submit(vec![TaskSpec::new(
        "t",
        "slow_id",
        Datum::Null,
        vec!["b".into()],
    )]);
    std::thread::sleep(Duration::from_millis(20));
    cluster.kill_worker(0);
    let err = client
        .future("t")
        .result_timeout(Duration::from_secs(30))
        .unwrap_err();
    assert_eq!(err.cause, ErrorCause::PeerLost, "{err:?}");
}

/// Regression (ISSUE 10 satellite): a client that dies mid-session used to
/// leak everything it owned — the liveness sweep removed it from the client
/// table but never released its task results, variables, queues, or store
/// payloads. With session teardown wired into the sweep, a dead tenant's
/// worker-store bytes must return to baseline while the surviving tenant
/// keeps working.
#[test]
fn dead_client_session_is_fully_reclaimed_by_liveness_sweep() {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 2,
        slots_per_worker: 1,
        fault: chaos_fault(),
        ..ClusterConfig::default()
    });
    let survivor = cluster.client_in(1, HeartbeatInterval::Every(Duration::from_millis(20)));
    survivor.scatter(
        vec![(Key::new("keep"), Datum::from(NDArray::full(&[16], 1.0)))],
        Some(0),
    );
    let baseline: u64 = cluster.worker_memory().iter().map(|(_, b)| b).sum();

    let doomed = cluster.client_in(2, HeartbeatInterval::Every(Duration::from_millis(20)));
    // The doomed tenant spreads state across both planes: scattered blocks,
    // computed results, and a variable.
    doomed.scatter(
        vec![(Key::new("blk"), Datum::from(NDArray::full(&[64], 2.0)))],
        Some(0),
    );
    doomed.scatter(
        vec![(Key::new("blk2"), Datum::from(NDArray::full(&[64], 3.0)))],
        Some(1),
    );
    doomed.submit(vec![TaskSpec::new(
        "out",
        "identity",
        Datum::Null,
        vec!["blk".into()],
    )]);
    doomed.future("out").result().unwrap();
    doomed.var_set("v", Datum::F64(1.0));
    assert!(
        cluster.worker_memory().iter().map(|(_, b)| b).sum::<u64>() > baseline,
        "the doomed tenant must actually hold store bytes"
    );

    // Liveness only ever tracks peers that actually ping (silence alone is
    // not death, for clients exactly as for workers) — so let the doomed
    // client's first heartbeat land before killing it.
    let tracked_deadline = std::time::Instant::now() + Duration::from_secs(5);
    while cluster.stats().peers_tracked() < 4 {
        assert!(
            std::time::Instant::now() < tracked_deadline,
            "client heartbeats never reached the scheduler"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Death without a goodbye: pings stop, no ClientDisconnect is sent, so
    // only the liveness sweep can notice and tear the session down.
    doomed.simulate_death();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let bytes: u64 = cluster.worker_memory().iter().map(|(_, b)| b).sum();
        if bytes == baseline {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "store bytes never returned to baseline: {bytes} vs {baseline}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(cluster.stats().peers_lost() >= 1, "the sweep saw the death");

    // The surviving tenant is untouched and the cluster still serves it.
    assert_eq!(survivor.future("keep").result().unwrap().nbytes(), 16 * 8);
    survivor.submit(vec![TaskSpec::new(
        "after",
        "const",
        Datum::F64(5.0),
        vec![],
    )]);
    assert_eq!(
        survivor.future("after").result().unwrap().as_f64(),
        Some(5.0)
    );
}

/// Lifecycle: a cluster that lost a worker to `kill_worker` still shuts
/// down — `shutdown()` returns, having joined every remaining thread (the
/// killed worker's were joined by the kill), on channels and on sockets.
#[test]
fn shutdown_after_kill_joins_every_thread() {
    for transport in [TransportConfig::InProc, TransportConfig::Tcp] {
        let cluster = Cluster::with_config(ClusterConfig {
            n_workers: 3,
            transport,
            fault: chaos_fault(),
            ..ClusterConfig::default()
        });
        let client = cluster.client();
        client.scatter_external(vec![(Key::new("x"), Datum::F64(4.0))], Some(0));
        cluster.kill_worker(1);
        client.submit(vec![TaskSpec::new(
            "y",
            "identity",
            Datum::Null,
            vec!["x".into()],
        )]);
        let y = client.future("y").result_timeout(Duration::from_secs(30));
        assert_eq!(y.unwrap().as_f64(), Some(4.0));
        let stats = std::sync::Arc::clone(cluster.stats());
        drop(client);
        cluster.shutdown();
        assert_eq!(stats.injected_kills(), 1);
    }
}
