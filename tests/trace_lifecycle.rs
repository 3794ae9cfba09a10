//! End-to-end checks of the task-lifecycle trace: every stage of
//! submit → ready → assign → exec → report → gather shows up in order, every
//! worker gets its own track, the Chrome export is well-formed, the phase
//! report partitions the makespan, and a disabled recorder stays silent.

use deisa_repro::dtask::{
    Cluster, ClusterConfig, Datum, EventKind, Key, TaskSpec, TraceActor, TraceConfig,
};

const N_WORKERS: usize = 2;

fn traced_cluster() -> Cluster {
    Cluster::with_config(ClusterConfig {
        n_workers: N_WORKERS,
        trace: TraceConfig::enabled(),
        ..ClusterConfig::default()
    })
}

/// One block scattered to each worker plus one dependent task per block, so
/// every worker is guaranteed at least one exec span.
fn run_workload(cluster: &Cluster) {
    let client = cluster.client();
    for w in 0..N_WORKERS {
        client.scatter(
            vec![(Key::new(format!("in-{w}")), Datum::F64(w as f64))],
            Some(w),
        );
    }
    client.submit(
        (0..N_WORKERS)
            .map(|w| {
                TaskSpec::new(
                    format!("out-{w}"),
                    "identity",
                    Datum::Null,
                    vec![Key::new(format!("in-{w}"))],
                )
            })
            .collect(),
    );
    for w in 0..N_WORKERS {
        assert_eq!(
            client.future(format!("out-{w}")).result().unwrap().as_f64(),
            Some(w as f64)
        );
    }
}

#[test]
fn every_worker_records_exec_spans_on_distinct_tracks() {
    let cluster = traced_cluster();
    run_workload(&cluster);
    let log = cluster.tracer().collect();

    let mut workers_with_exec = std::collections::HashSet::new();
    for (track, event) in log.events_of(EventKind::Exec) {
        let TraceActor::WorkerSlot { worker, .. } = track.actor else {
            panic!("exec span on non-worker track {:?}", track.actor);
        };
        assert!(event.dur_ns > 0, "exec must be a span, not an instant");
        workers_with_exec.insert(worker);
    }
    assert_eq!(
        workers_with_exec.len(),
        N_WORKERS,
        "every worker must record at least one exec span"
    );
    // Scheduler and client rows exist alongside the worker slots.
    assert!(log
        .tracks
        .iter()
        .any(|t| matches!(t.actor, TraceActor::Scheduler)));
    assert!(log
        .tracks
        .iter()
        .any(|t| matches!(t.actor, TraceActor::Client { .. })));
    // Nothing was dropped at this tiny scale.
    assert!(log.tracks.iter().all(|t| t.dropped == 0));
}

#[test]
fn lifecycle_events_appear_in_causal_order() {
    let cluster = traced_cluster();
    run_workload(&cluster);
    let log = cluster.tracer().collect();

    let key = Key::new("out-0");
    let t_of = |kind: EventKind| -> u64 {
        log.events_of(kind)
            .find(|(_, e)| e.key.as_ref() == Some(&key))
            .map(|(_, e)| e.t_ns)
            .unwrap_or_else(|| panic!("no {kind:?} event for {key}"))
    };
    let ready = t_of(EventKind::TaskReady);
    let assign = t_of(EventKind::Assign);
    let report = t_of(EventKind::Report);
    let (_, exec) = log
        .events_of(EventKind::Exec)
        .find(|(_, e)| e.key.as_ref() == Some(&key))
        .expect("exec span for out-0");
    assert!(ready <= assign, "ready {ready} after assign {assign}");
    assert!(assign <= exec.t_ns, "assign {assign} after exec start");
    assert!(
        exec.t_ns + exec.dur_ns <= report,
        "exec ended after its report instant"
    );
    let (_, gather) = log
        .events_of(EventKind::GatherToClient)
        .find(|(_, e)| e.key.as_ref() == Some(&key))
        .expect("client gather span for out-0");
    assert!(
        gather.t_ns + gather.dur_ns >= exec.t_ns + exec.dur_ns,
        "client gather cannot finish before the task ran"
    );
}

#[test]
fn chrome_export_is_valid_and_phase_report_partitions_makespan() {
    let cluster = traced_cluster();
    run_workload(&cluster);
    let log = cluster.tracer().collect();

    // The export has one traceEvents array and metadata rows, and its text
    // parses back through the in-tree JSON parser.
    let chrome = log.to_chrome_json();
    let events = chrome
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert!(events.len() >= log.n_events(), "spans + metadata rows");
    let text = chrome.to_string_pretty();
    deisa_repro::dtask::Json::parse(&text).expect("the written export parses back");
    assert!(text.contains("\"process_name\""));
    assert!(text.contains("\"thread_name\""));

    let report = log.phase_report();
    assert!(report.makespan_ns > 0);
    let total = report.phases_total_ns() as f64;
    let makespan = report.makespan_ns as f64;
    assert!(
        (total - makespan).abs() <= 0.05 * makespan,
        "phase totals {total} vs makespan {makespan}"
    );
    // An external-data-free workload must attribute no contract time.
    assert_eq!(report.contract_setup_ns, 0);
}

#[test]
fn disabled_recorder_stays_silent_and_costless() {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: N_WORKERS,
        ..ClusterConfig::default() // trace off
    });
    run_workload(&cluster);
    let log = cluster.tracer().collect();
    assert_eq!(log.n_events(), 0);
    assert!(log.tracks.is_empty());
    assert_eq!(log.phase_report().makespan_ns, 0);
}
