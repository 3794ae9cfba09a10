//! Multi-tenant serving suite (ISSUE 10).
//!
//! Invariants under test:
//!
//! 1. **Namespace isolation**: two sessions submitting graphs with
//!    *identical* key names get their own results — no cross-talk through
//!    the scheduler's task table, the variable map, the queue map, or the
//!    worker stores.
//! 2. **Clean not-found**: a tenant reading another tenant's variable sees
//!    "unset", never the other tenant's data.
//! 3. **Admission control**: a graph that would push a session past its
//!    in-flight cap is rejected whole, the rejection is surfaced to the
//!    client as [`SubmitError::Rejected`] (not silent queuing), counted,
//!    and the session recovers — the same graph is admitted once in-flight
//!    work completes.
//! 4. **No dropped notifications on the happy path**: `notifies_dropped`
//!    stays zero through a full multi-tenant workload.
//! 5. **Default session**: clients from `Cluster::client` share the
//!    implicit session, and the scheduler records no tenant counters at all.
//! 6. **A session is per client, not per cluster**: the paper's DEISA3
//!    pipeline — an adaptor and R bridges sharing one contract — runs in
//!    one session beside a second tenant running the same pipeline under
//!    the same key names.
//!
//! Isolation and admission run on both the in-process and the Tcp transport.

use deisa_repro::darray::{self, Graph};
use deisa_repro::deisa::{Adaptor, Bridge, Selection, VirtualArray};
use deisa_repro::dtask::{
    Client, Cluster, ClusterConfig, Datum, HeartbeatInterval, Key, SessionId, StatsSnapshot,
    SubmitError, TaskSpec, TenancyConfig, TransportConfig,
};
use deisa_repro::linalg::NDArray;
use std::sync::mpsc::{channel, sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn tenant_cluster(n_workers: usize, tenancy: TenancyConfig) -> Cluster {
    tenant_cluster_on(TransportConfig::InProc, n_workers, tenancy)
}

fn tenant_cluster_on(
    transport: TransportConfig,
    n_workers: usize,
    tenancy: TenancyConfig,
) -> Cluster {
    Cluster::with_config(ClusterConfig {
        n_workers,
        slots_per_worker: 1,
        transport,
        tenancy,
        ..ClusterConfig::default()
    })
}

const TRANSPORTS: [TransportConfig; 2] = [TransportConfig::InProc, TransportConfig::Tcp];

/// A client of `session`, without heartbeats.
fn tenant(cluster: &Cluster, session: SessionId) -> Client {
    cluster.client_in(session, HeartbeatInterval::Infinite)
}

/// The same graph both tenants submit: identical key names, per-tenant
/// payloads. If namespaces leak anywhere, the reductions collide.
fn tenant_graph(seed: f64) -> Vec<TaskSpec> {
    vec![
        TaskSpec::new("a", "const", Datum::F64(seed), vec![]),
        TaskSpec::new("b", "const", Datum::F64(seed * 10.0), vec![]),
        TaskSpec::new(
            "total",
            "sum_scalars",
            Datum::Null,
            vec!["a".into(), "b".into()],
        ),
    ]
}

#[test]
fn concurrent_sessions_with_identical_key_names_are_isolated() {
    for transport in TRANSPORTS {
        sessions_are_isolated_on(transport);
    }
}

fn sessions_are_isolated_on(transport: TransportConfig) {
    let cluster = tenant_cluster_on(transport, 2, TenancyConfig::default());
    let c1 = tenant(&cluster, 1);
    let c2 = tenant(&cluster, 2);
    assert_ne!(c1.session(), c2.session(), "each client gets a session");

    // Interleave: both graphs are in flight under the same key names at
    // once before either result is gathered.
    c1.submit(tenant_graph(1.0));
    c2.submit(tenant_graph(2.0));
    let r1 = c1.future("total").result().unwrap();
    let r2 = c2.future("total").result().unwrap();
    assert_eq!(r1.as_f64(), Some(11.0), "tenant 1 sees its own reduction");
    assert_eq!(r2.as_f64(), Some(22.0), "tenant 2 sees its own reduction");

    // Scatter under a colliding name too: data-plane keys are scoped.
    c1.scatter(vec![(Key::new("blk"), Datum::F64(7.0))], Some(0));
    c2.scatter(vec![(Key::new("blk"), Datum::F64(9.0))], Some(0));
    assert_eq!(c1.future("blk").result().unwrap().as_f64(), Some(7.0));
    assert_eq!(c2.future("blk").result().unwrap().as_f64(), Some(9.0));

    // Happy path: every notification found its client.
    assert_eq!(cluster.stats().notifies_dropped(), 0);

    // Per-tenant accounting saw both sessions.
    let snap = StatsSnapshot::capture(cluster.stats());
    assert_eq!(snap.tenants.len(), 2);
    assert!(snap.tenants.iter().all(|(_, t)| t.tasks >= 3));
    let prom = snap.to_prometheus();
    assert!(prom.contains("dtask_sched_notifies_dropped_total 0"));
    assert!(prom.contains(&format!(
        "dtask_tenant_tasks_total{{session=\"{}\"}}",
        c1.session()
    )));
}

#[test]
fn cross_session_variable_and_queue_reads_are_clean_not_found() {
    let cluster = tenant_cluster(1, TenancyConfig::default());
    let c1 = tenant(&cluster, 1);
    let c2 = tenant(&cluster, 2);

    c1.var_set("shared", Datum::F64(42.0));
    assert_eq!(c1.var_get("shared").unwrap().as_f64(), Some(42.0));
    // Tenant 2 sees an unset variable — not tenant 1's data, not an error.
    assert!(c2.var_try_get("shared").unwrap().is_none());

    // Queues are namespaced the same way: tenant 2's pop blocks on its own
    // empty queue, so its own push (not tenant 1's) unblocks it.
    c1.q_push("q", Datum::F64(1.0));
    c2.q_push("q", Datum::F64(2.0));
    assert_eq!(c2.q_pop("q").unwrap().as_f64(), Some(2.0));
    assert_eq!(c1.q_pop("q").unwrap().as_f64(), Some(1.0));
}

#[test]
fn admission_cap_rejects_surfaces_and_recovers() {
    for transport in TRANSPORTS {
        admission_rejects_and_recovers_on(transport);
    }
}

fn admission_rejects_and_recovers_on(transport: TransportConfig) {
    let cluster = tenant_cluster_on(transport, 1, TenancyConfig::with_cap(2));
    // Each call waits for one message on the gate, which the test sends
    // only after the rejection (or drops, on a panic, to free every call).
    let (open_gate, gate) = channel::<()>();
    let gate = Arc::new(Mutex::new(gate));
    cluster.registry().register("gated_const", move |param, _| {
        let _ = gate.lock().unwrap_or_else(|e| e.into_inner()).recv();
        Ok(param.clone())
    });
    let client = tenant(&cluster, 1);

    // Two gated tasks fill the cap exactly and hold it: one executor slot
    // serializes them, so both stay in flight while the next graph arrives.
    client
        .try_submit(vec![
            TaskSpec::new("s0", "gated_const", Datum::F64(1.0), vec![]),
            TaskSpec::new("s1", "gated_const", Datum::F64(2.0), vec![]),
        ])
        .expect("a graph at the cap is admitted");

    // One more task cannot fit: rejected whole, with the live numbers.
    let err = client
        .try_submit(vec![TaskSpec::new("s2", "const", Datum::F64(9.0), vec![])])
        .unwrap_err();
    match err {
        SubmitError::Rejected { inflight, cap } => {
            assert_eq!(cap, 2);
            assert!(
                inflight >= 1,
                "rejection reports live in-flight: {inflight}"
            );
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }
    assert_eq!(cluster.stats().admission_rejections(), 1);

    // Recovery: drain the in-flight work, then the same graph is admitted.
    for _ in 0..2 {
        open_gate
            .send(())
            .expect("the gated tasks wait on the gate");
    }
    assert_eq!(client.future("s0").result().unwrap().as_f64(), Some(1.0));
    assert_eq!(client.future("s1").result().unwrap().as_f64(), Some(2.0));
    client
        .try_submit(vec![TaskSpec::new("s2", "const", Datum::F64(9.0), vec![])])
        .expect("the cap frees as tasks finish");
    assert_eq!(client.future("s2").result().unwrap().as_f64(), Some(9.0));

    let snap = StatsSnapshot::capture(cluster.stats());
    assert_eq!(snap.admission_rejections(), 1);
    let tenant = &snap
        .tenants
        .iter()
        .find(|(s, _)| *s == client.session())
        .unwrap()
        .1;
    assert_eq!(tenant.admission_rejections, 1);
    assert!(snap
        .to_prometheus()
        .contains("dtask_admission_rejections_total 1"));
}

#[test]
fn without_a_cap_submissions_never_wait_for_acks() {
    // Tenancy on, no cap: scoped namespaces but the seed's fire-and-forget
    // submission path (no SubmitOutcome round trip to deadlock on).
    let cluster = tenant_cluster(1, TenancyConfig::default());
    let client = tenant(&cluster, 1);
    client.try_submit(tenant_graph(3.0)).unwrap();
    assert_eq!(
        client.future("total").result().unwrap().as_f64(),
        Some(33.0)
    );
}

#[test]
fn tenancy_off_serves_the_implicit_session_with_no_tenant_counters() {
    let cluster = Cluster::new(1);
    let client = cluster.client();
    assert_eq!(client.session(), 0, "default mode: the implicit session");
    client.submit(tenant_graph(1.0));
    assert_eq!(
        client.future("total").result().unwrap().as_f64(),
        Some(11.0)
    );
    let snap = StatsSnapshot::capture(cluster.stats());
    assert!(
        snap.tenants.is_empty(),
        "single-tenant clusters record no per-session counters"
    );
    assert_eq!(snap.admission_rejections(), 0);
    // The tenancy JSON section exists (schema is stable) but is empty.
    let doc = snap.to_json();
    let tenancy = doc.get("tenancy").expect("tenancy section");
    assert!(tenancy.get("sessions").is_some());
}

#[test]
fn session_teardown_releases_only_that_tenants_state() {
    let cluster = tenant_cluster(2, TenancyConfig::default());
    let c1 = tenant(&cluster, 1);
    let c2 = tenant(&cluster, 2);
    c1.submit(tenant_graph(1.0));
    c2.submit(tenant_graph(2.0));
    assert_eq!(c1.future("total").result().unwrap().as_f64(), Some(11.0));
    assert_eq!(c2.future("total").result().unwrap().as_f64(), Some(22.0));
    c1.var_set("v", Datum::F64(5.0));
    c2.var_set("v", Datum::F64(6.0));

    // Orderly disconnect of tenant 1 tears its session down.
    drop(c1);

    // Tenant 2 is undisturbed: its variable and results are still there.
    assert_eq!(c2.var_get("v").unwrap().as_f64(), Some(6.0));
    assert_eq!(c2.future("total").result().unwrap().as_f64(), Some(22.0));
}

#[test]
fn teardown_releases_the_placeholders_a_session_made_for_unknown_deps() {
    let cluster = tenant_cluster(1, TenancyConfig::default());
    let leaving = tenant(&cluster, 7);
    // Nobody computes `never`: the submit makes an External placeholder
    // for it, tagged with session 7, and `t` waits on it.
    leaving.submit(vec![TaskSpec::new(
        "t",
        "identity",
        Datum::Null,
        vec!["never".into()],
    )]);
    drop(leaving);

    // The last client left, so teardown released both keys. A new client
    // of session 7 finds neither; a surviving placeholder would park its
    // request until the timeout.
    let back = tenant(&cluster, 7);
    for key in ["t", "never"] {
        let err = back
            .future(key)
            .result_timeout(Duration::from_secs(2))
            .unwrap_err();
        assert_eq!(err.message, "unknown key", "{key}");
    }
}

const STEPS: usize = 5;
const RANKS: usize = 4;

/// The DEISA3 pipeline of one tenant, every actor a client of `session`:
/// R bridges wait on the contract the adaptor publishes, then publish T
/// steps of blocks filled with `fill`, while the adaptor's pre-submitted
/// graph sums the whole virtual array. The receiver yields that sum.
fn deisa3_in(cluster: &Cluster, session: SessionId, fill: f64) -> Receiver<f64> {
    let varray = || VirtualArray::new("A", &[STEPS, 4, 4], &[1, 2, 2], 0).unwrap();
    let (tx, rx) = sync_channel(1);
    let adaptor = Adaptor::new(tenant(cluster, session));
    std::thread::spawn(move || {
        let mut arrays = adaptor.get_deisa_arrays().unwrap();
        let v = arrays.descriptor("A").unwrap().clone();
        let a = arrays.select("A", Selection::all(&v)).unwrap();
        arrays.validate_contract().unwrap();
        let mut g = Graph::new("m");
        let k = a.sum_all(&mut g);
        g.submit(adaptor.client());
        let total = adaptor
            .client()
            .future(k)
            .result_timeout(Duration::from_secs(30))
            .unwrap();
        let _ = tx.send(total.as_f64().unwrap());
    });
    for rank in 0..RANKS {
        let client = tenant(cluster, session);
        std::thread::spawn(move || {
            let mut b = Bridge::init(client, rank, vec![varray()]).unwrap();
            for t in 0..STEPS {
                b.publish("A", t, rank, NDArray::full(&[1, 2, 2], fill))
                    .unwrap();
            }
        });
    }
    rx
}

/// Regression: tenancy used to be a cluster-wide switch that put every
/// client in a session of its own, so a tenancy-enabled cluster could not
/// run the paper's pipeline: each bridge waited forever on a contract in
/// its own session. The whole pipeline now runs in one session, next to a
/// second tenant whose pipeline uses every key name the first one does.
#[test]
fn deisa3_pipeline_runs_in_one_session_beside_another_tenant() {
    let cluster = tenant_cluster(2, TenancyConfig::default());
    darray::register_array_ops(cluster.registry());
    let first = deisa3_in(&cluster, 7, 1.0);
    let second = deisa3_in(&cluster, 8, 2.0);
    let per_fill = (STEPS * RANKS * 4) as f64;
    let wait = Duration::from_secs(60);
    assert_eq!(
        first.recv_timeout(wait),
        Ok(per_fill),
        "the pipeline's tenant sees its own sum"
    );
    assert_eq!(
        second.recv_timeout(wait),
        Ok(2.0 * per_fill),
        "the other tenant sees its own sum"
    );
    assert_eq!(cluster.stats().notifies_dropped(), 0);
}
