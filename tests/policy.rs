//! Scheduling-policy suite: the ISSUE 7 contract for pluggable placement.
//!
//! 1. **Result identity**: the policy only moves *where* tasks run, never
//!    what they compute — the same graph yields bit-identical values under
//!    all four policies.
//! 2. **Stealing repairs skew**: a deliberately hot worker gets its queue
//!    drained by an idle peer, observable in the `tasks_stolen` /
//!    `steal_requests` counters, the snapshot export, and `Steal` trace
//!    events.
//! 3. **Steal-under-chaos**: a task stolen from a worker that is then
//!    killed still completes — re-pointed assignments and fault recovery
//!    compose instead of fighting.

use deisa_repro::dtask::{
    Cluster, ClusterConfig, Datum, EventKind, FaultConfig, FaultPlan, HeartbeatInterval, Key,
    PolicyConfig, PolicyKind, StatsSnapshot, TaskSpec, TraceConfig,
};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// A sleepy reduction op so queues actually build up behind busy slots.
fn register_slow_sum(cluster: &Cluster) {
    cluster.registry().register("slow_sum", |params, inputs| {
        let ms = params.as_i64().unwrap_or(0) as u64;
        std::thread::sleep(Duration::from_millis(ms));
        let mut total = 0.0;
        for d in inputs {
            total += d.as_f64().ok_or_else(|| "non-scalar input".to_string())?;
        }
        Ok(Datum::F64(total))
    });
}

/// A reduction op that holds its slot until the test lets it go: each call
/// says it started on `started`, then waits for one release on the gate the
/// returned sender feeds (or for the sender to drop, which releases every
/// call at once). Queues build up behind a held slot for as long as the test
/// needs, whatever the load on the box.
fn register_gated_sum(cluster: &Cluster) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (started_tx, started) = mpsc::channel();
    let (release, gate) = mpsc::channel::<()>();
    let gate = Arc::new(Mutex::new(gate));
    cluster.registry().register("gated_sum", move |_, inputs| {
        let _ = started_tx.send(());
        let _ = gate.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let mut total = 0.0;
        for d in inputs {
            total += d.as_f64().ok_or_else(|| "non-scalar input".to_string())?;
        }
        Ok(Datum::F64(total))
    });
    (started, release)
}

/// Fixed diamond + chain graph over three scattered blocks; returns every
/// intermediate and final value in a fixed order.
fn graph_results(policy: PolicyConfig) -> Vec<f64> {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 3,
        slots_per_worker: 2,
        policy,
        ..ClusterConfig::default()
    });
    let client = cluster.client();
    for (i, k) in ["a", "b", "c"].iter().enumerate() {
        client.scatter(vec![(Key::new(*k), Datum::F64((i + 1) as f64))], Some(i));
    }
    client.submit(vec![
        TaskSpec::new(
            "s0",
            "sum_scalars",
            Datum::Null,
            vec!["a".into(), "b".into()],
        ),
        TaskSpec::new(
            "s1",
            "sum_scalars",
            Datum::Null,
            vec!["b".into(), "c".into()],
        ),
        TaskSpec::new(
            "s2",
            "sum_scalars",
            Datum::Null,
            vec!["a".into(), "c".into()],
        ),
        TaskSpec::new(
            "mid",
            "sum_scalars",
            Datum::Null,
            vec!["s0".into(), "s1".into(), "s2".into()],
        ),
        TaskSpec::new("d1", "identity", Datum::Null, vec!["mid".into()]),
        TaskSpec::new(
            "total",
            "sum_scalars",
            Datum::Null,
            vec!["d1".into(), "s0".into()],
        ),
    ]);
    ["s0", "s1", "s2", "mid", "d1", "total"]
        .iter()
        .map(|k| {
            client
                .future(*k)
                .result_timeout(Duration::from_secs(30))
                .unwrap()
                .as_f64()
                .unwrap()
        })
        .collect()
}

#[test]
fn all_policies_compute_identical_results() {
    let baseline = graph_results(PolicyConfig::locality());
    assert_eq!(
        baseline,
        vec![3.0, 5.0, 4.0, 12.0, 12.0, 15.0],
        "locality baseline values"
    );
    for policy in [
        PolicyConfig::b_level(),
        PolicyConfig::random_stealing(),
        PolicyConfig::min_eft(),
    ] {
        let name = policy.kind.name();
        assert_eq!(
            graph_results(policy),
            baseline,
            "policy {name} changed the computed values"
        );
    }
}

/// Locality placement with stealing switched on: every task gravitates to
/// the worker holding the hot block, so the steal path is exercised
/// deterministically — the idle peer MUST pull work over.
fn skewed_cluster() -> Cluster {
    Cluster::with_config(ClusterConfig {
        n_workers: 2,
        slots_per_worker: 1,
        trace: TraceConfig::enabled(),
        policy: PolicyConfig {
            kind: PolicyKind::Locality,
            steal_poll: Some(Duration::from_millis(2)),
        },
        ..ClusterConfig::default()
    })
}

const SKEW_TASKS: usize = 8;

#[test]
fn idle_worker_steals_from_skewed_queue() {
    let cluster = skewed_cluster();
    register_slow_sum(&cluster);
    let client = cluster.client();
    client.scatter_external(vec![(Key::new("hot"), Datum::F64(2.5))], Some(0));
    // All eight 40 ms tasks land on worker 0 (data gravity); worker 1 has
    // one slot, zero work, and a 2 ms steal poll.
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
    for i in 0..SKEW_TASKS {
        let r = client
            .future(format!("t{i}"))
            .result_timeout(Duration::from_secs(30))
            .unwrap();
        assert_eq!(r.as_f64(), Some(2.5), "t{i} must still read the hot block");
    }
    let stats = cluster.stats();
    assert!(
        stats.tasks_stolen() >= 1,
        "an idle worker next to a 7-deep queue must steal, stole {}",
        stats.tasks_stolen()
    );
    assert!(stats.steal_requests() >= 1);
    // The counters surface in the snapshot and its JSON export.
    let snap = StatsSnapshot::capture(stats);
    assert!(snap.tasks_stolen() >= 1);
    assert!(snap.to_json().to_string_compact().contains("\"steal\""));
    // Every successful steal leaves an instant in the trace.
    let log = cluster.tracer().collect();
    assert_eq!(
        log.events_of(EventKind::Steal).count() as u64,
        stats.tasks_stolen()
    );
}

/// ISSUE 7's chaos clause: a task stolen from a worker that subsequently
/// dies still completes. The hot block is replicated onto both workers, the
/// queue is skewed onto worker 0, and once the scheduler has recorded a
/// steal the victim is killed — stolen tasks finish on the thief, stranded
/// ones are resubmitted by the liveness sweep.
#[test]
fn stolen_task_from_killed_worker_completes() {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 2,
        slots_per_worker: 1,
        trace: TraceConfig::enabled(),
        policy: PolicyConfig {
            kind: PolicyKind::Locality,
            steal_poll: Some(Duration::from_millis(2)),
        },
        fault: FaultConfig {
            heartbeat_timeout: Some(Duration::from_millis(150)),
            worker_heartbeat: HeartbeatInterval::Every(Duration::from_millis(20)),
            max_retries: 5,
            retry_backoff: Duration::from_millis(5),
            plan: FaultPlan::default(),
        },
        ..ClusterConfig::default()
    });
    let (started, release) = register_gated_sum(&cluster);
    let client = cluster.client();
    // Replica on worker 0 first: gravity pins the whole batch there.
    client.scatter_external(vec![(Key::new("hot"), Datum::F64(2.5))], Some(0));
    client.submit(
        (0..SKEW_TASKS)
            .map(|i| {
                TaskSpec::new(
                    format!("t{i}"),
                    "gated_sum",
                    Datum::Null,
                    vec!["hot".into()],
                )
            })
            .collect(),
    );
    // The victim's slot holds t0: the batch is placed, all of it on worker
    // 0. Only now the second replica, on worker 1: the kill below must not
    // lose the block, and stolen tasks resolve the dependency from their
    // local store. Sent before the placement, it would have spread the
    // batch over both workers and left nothing to steal.
    let wait = Duration::from_secs(10);
    started.recv_timeout(wait).expect("the victim started t0");
    client.scatter_external(vec![(Key::new("hot"), Datum::F64(2.5))], Some(1));
    // The idle thief's poll makes the scheduler probe the victim, which
    // answers at its next finish: wait for the probe, then let t0 finish.
    let stats = cluster.stats();
    let deadline = std::time::Instant::now() + wait;
    while stats.steal_requests() <= stats.steal_misses() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    release.send(()).expect("the gate is open");
    // Wait until the scheduler has re-pointed at least one assignment.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while stats.tasks_stolen() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "no steal fired against a 7-deep queue"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Let every held task go, then kill the victim: its queue dies with
    // it, the stolen work must not.
    drop(release);
    cluster.kill_worker(0);
    // Results read from the victim before the liveness sweep declares it
    // dead would find their holder gone: wait for the sweep, which
    // resubmits what the victim held.
    let deadline = std::time::Instant::now() + wait;
    while stats.peers_lost() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    for i in 0..SKEW_TASKS {
        let r = client
            .future(format!("t{i}"))
            .result_timeout(Duration::from_secs(30))
            .unwrap();
        assert_eq!(r.as_f64(), Some(2.5), "t{i} lost to the kill");
    }
    assert!(stats.tasks_stolen() >= 1);
    assert_eq!(stats.peers_lost(), 1, "exactly the killed victim");
    let log = cluster.tracer().collect();
    assert!(log.events_of(EventKind::Steal).count() >= 1);
    assert_eq!(log.events_of(EventKind::PeerLost).count(), 1);
}
