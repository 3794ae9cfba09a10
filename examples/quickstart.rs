//! Quickstart: external tasks in five minutes.
//!
//! Shows the core mechanism of the paper with no simulation involved:
//! 1. register **external tasks** — keys whose data an outside producer will
//!    push later,
//! 2. submit an analytics graph over them *before any data exists*,
//! 3. have a "producer" push blocks with the extended
//!    `scatter(keys=…, external=true)`,
//! 4. watch the pre-submitted graph complete.
//!
//! Run: `cargo run --example quickstart`
//!
//! Set `QUICKSTART_TRANSPORT=framed` (or `simnet`) to push every message
//! through the versioned wire format — the result must be identical, and the
//! run additionally reports real bytes-on-the-wire per transport lane.
//!
//! Set `QUICKSTART_STORE=on` to publish large values as proxy handles through
//! the per-node object stores, or `QUICKSTART_STORE=spill` to additionally
//! squeeze every store under a 600-byte memory budget — blocks LRU-spill to
//! disk and restore transparently, the result is STILL identical, and the
//! run exports its stats snapshot (with the `store` section counting the
//! spills and restores) to `results/STORE_quickstart.json`.
//!
//! Set `QUICKSTART_POLICY=locality | blevel | random-stealing | mineft` to
//! pick the scheduling policy (default: locality). The result is identical
//! under every policy — placement moves, values don't. Under
//! `random-stealing` the run additionally demonstrates worker-side work
//! stealing on a deliberately skewed queue and asserts that at least one
//! task was stolen (printed as `steal: ...` for CI to grep).
//!
//! Set `QUICKSTART_TELEMETRY=on` to turn on the live telemetry plane: a
//! flight-recorder thread samples the cluster every 10 ms and an HTTP
//! exporter serves Prometheus `/metrics` (plus `/snapshot.json`,
//! `/flight.json`, `/alerts.json`, `/health`) on a OS-assigned local port,
//! printed as `telemetry: serving http://…` for CI to scrape mid-run. The
//! run then demonstrates online straggler detection: a dozen 2 ms tasks
//! build the op's latency baseline, one 80 ms outlier is injected, and the
//! detector must flag *exactly that one* (printed as `stragglers: …`).
//! `QUICKSTART_TELEMETRY_HOLD_MS=<n>` keeps the cluster busy with extra
//! task rounds for `n` ms before the straggler so an external scraper has
//! time to watch a live run.
//!
//! Set `QUICKSTART_TENANTS=n` (n >= 2) to additionally serve `n` concurrent
//! clients from one scheduler, each in its own session namespace under
//! fair-share dispatch, all submitting graphs with *identical* key names.
//! Every tenant's result is asserted identical to a single-client run of the
//! same graph, and the per-session admission cap is deliberately tripped
//! once — and recovered from — so the backpressure path is exercised end to
//! end (printed as `tenants: ...` and `admission: ...` for CI to grep).
//!
//! Set `QUICKSTART_CHAOS=kill` to turn on heartbeat-driven failure detection,
//! replicate every external block onto two workers, and kill one of the three
//! workers mid-run. The result must STILL be identical — the scheduler
//! notices the silence, resubmits the stranded tasks, and recomputes from the
//! surviving replicas — and the run exports its stats snapshot (including the
//! `fault` section with exactly one lost peer) to
//! `results/CHAOS_quickstart.json`.

use deisa_repro::darray::{self, DArray, Graph};
use deisa_repro::dtask::{
    Cluster, ClusterConfig, Datum, EventKind, FaultConfig, HeartbeatInterval, Key, PolicyConfig,
    SimNetConfig, StatsSnapshot, StoreConfig, SubmitError, TaskSpec, TelemetryConfig,
    TenancyConfig, TraceActor, TraceConfig, TransportConfig, WireLane,
};
use deisa_repro::linalg::NDArray;
use std::time::{Duration, Instant};

fn main() {
    let transport = match std::env::var("QUICKSTART_TRANSPORT").as_deref() {
        Ok("framed") => TransportConfig::Framed,
        Ok("simnet") => TransportConfig::SimNet(SimNetConfig::default()),
        Ok("tcp") => TransportConfig::Tcp,
        Ok("inproc") | Err(_) => TransportConfig::InProc,
        Ok(other) => panic!("QUICKSTART_TRANSPORT={other}? use inproc | framed | simnet | tcp"),
    };
    // Multi-process deployment: `QUICKSTART_DEPLOY=HOST:PORT` binds a hub at
    // that address instead of spawning in-process workers, then waits for
    // three external `dtask-node` processes to attach (see README).
    let deploy = match std::env::var("QUICKSTART_DEPLOY").as_deref() {
        Err(_) | Ok("") | Ok("off") => None,
        Ok(bind) => Some(bind.to_string()),
    };
    let chaos = match std::env::var("QUICKSTART_CHAOS").as_deref() {
        Ok("kill") => true,
        Err(_) | Ok("") | Ok("off") => false,
        Ok(other) => panic!("QUICKSTART_CHAOS={other}? use kill | off"),
    };
    // The out-of-band data plane: `on` publishes large values as proxy
    // handles; `spill` additionally caps every per-node store at 600 bytes,
    // so the four 512-byte blocks cannot all stay resident — at least one
    // worker holds two and must spill to disk (and restore on access).
    let (store, spill_mode) = match std::env::var("QUICKSTART_STORE").as_deref() {
        Ok("spill") => (
            StoreConfig {
                mem_budget: Some(600),
                ..StoreConfig::proxies()
            },
            true,
        ),
        Ok("on") => (StoreConfig::proxies(), false),
        Err(_) | Ok("") | Ok("off") => (StoreConfig::default(), false),
        Ok(other) => panic!("QUICKSTART_STORE={other}? use on | spill | off"),
    };
    // The telemetry plane: a flight-recorder sampler plus HTTP exporter.
    // The 20 ms straggler floor keeps the sub-millisecond array ops of the
    // main run from ever flagging on jitter — only the injected 80 ms
    // outlier below can cross it.
    let telemetry = match std::env::var("QUICKSTART_TELEMETRY").as_deref() {
        Ok("on") => TelemetryConfig {
            sample_every: Duration::from_millis(10),
            straggler_min_ns: 20_000_000,
            ..TelemetryConfig::enabled()
        },
        Err(_) | Ok("") | Ok("off") => TelemetryConfig::default(),
        Ok(other) => panic!("QUICKSTART_TELEMETRY={other}? use on | off"),
    };
    let policy = match std::env::var("QUICKSTART_POLICY").as_deref() {
        Err(_) | Ok("") => PolicyConfig::default(),
        Ok(name) => PolicyConfig::from_name(name).unwrap_or_else(|| {
            panic!("QUICKSTART_POLICY={name}? use locality | blevel | random-stealing | mineft")
        }),
    };
    // Multi-tenant demo: n concurrent clients against one scheduler, each
    // in its own session namespace. Runs as an extra lab after the main
    // single-client walkthrough, on the same transport.
    let tenants: usize = std::env::var("QUICKSTART_TENANTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    println!(
        "transport: {transport:?}, chaos: {chaos}, store: {store:?}, policy: {}, tenants: {tenants}",
        policy.kind.name()
    );
    let tenant_transport = transport.clone();
    // Liveness is off by default (DEISA3 semantics: no heartbeats at all);
    // chaos mode turns on fast worker pings and a short detection timeout.
    let fault = if chaos {
        FaultConfig {
            heartbeat_timeout: Some(Duration::from_millis(150)),
            worker_heartbeat: HeartbeatInterval::Every(Duration::from_millis(20)),
            max_retries: 5,
            retry_backoff: Duration::from_millis(5),
            ..FaultConfig::default()
        }
    } else {
        FaultConfig::default()
    };
    // A cluster: 1 scheduler thread + 3 workers — in this process, or (in
    // deploy mode) served by external `dtask-node` worker processes — with
    // task-lifecycle tracing on so the run leaves a Perfetto-loadable log.
    let config = ClusterConfig {
        n_workers: 3,
        trace: TraceConfig::enabled(),
        transport,
        fault,
        store,
        policy: policy.clone(),
        telemetry,
        ..ClusterConfig::default()
    };
    let cluster = if let Some(bind) = &deploy {
        let cluster = Cluster::listen(
            config,
            deisa_repro::dtask::DeployConfig {
                bind: bind.clone(),
                ..deisa_repro::dtask::DeployConfig::default()
            },
        )
        .expect("bind deploy hub");
        // CI greps this line for the hub address before launching nodes.
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
    } else {
        Cluster::with_config(config)
    };
    if let Some(addr) = cluster.telemetry_addr() {
        // CI greps this line for the address and scrapes the live endpoints.
        println!(
            "telemetry: serving http://{addr}/metrics \
             (also /snapshot.json /flight.json /alerts.json /health)"
        );
    }
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

    // 3. The external environment produces the blocks, one at a time. In
    //    chaos mode each block lands on TWO workers (any single death is
    //    survivable), and worker 1 is killed while the graph is mid-flight.
    let producer = cluster.client();
    for (i, key) in keys.iter().enumerate() {
        let block = NDArray::full(&[8, 8], (i + 1) as f64);
        if chaos {
            // Replicate onto two distinct workers, drawn from the *live*
            // set: in deploy mode a SIGKILLed worker process must not be a
            // block's first holder, or the key is lost on arrival. For an
            // in-process cluster the live set is every worker, so this is
            // exactly the i%3 / (i+1)%3 placement it always used.
            let live = cluster.live_workers();
            let first = live[i % live.len()];
            let second = live[(i + 1) % live.len()];
            let datum = Datum::from(block);
            producer.scatter_external(vec![(key.clone(), datum.clone())], Some(first));
            if second != first {
                producer.scatter_external(vec![(key.clone(), datum)], Some(second));
            }
        } else {
            producer.scatter_external(vec![(key.clone(), Datum::from(block))], None);
        }
        println!("producer pushed {key}");
        if chaos && i == 1 {
            if deploy.is_some() {
                // Process-level chaos: the harness (CI) SIGKILLs one of the
                // dtask-node processes when it sees this marker; all this
                // side does is wait for the liveness verdict before pushing
                // the remaining blocks onto the survivors' replicas.
                println!("chaos: kill one dtask-node worker process now");
                let deadline = Instant::now() + Duration::from_secs(60);
                while cluster.stats().peers_lost() < 1 {
                    assert!(
                        Instant::now() < deadline,
                        "no worker process died within the chaos window"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
                println!("chaos: scheduler detected the lost worker process");
            } else {
                println!("chaos: killing worker 1 with two blocks still unpublished");
                cluster.kill_worker(1);
            }
        }
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
    for track in &log.tracks {
        if let TraceActor::WorkerSlot { worker, .. } = track.actor {
            let n = track
                .events
                .iter()
                .filter(|e| e.kind == EventKind::Exec)
                .count();
            *execs_per_worker.entry(worker).or_insert(0usize) += n;
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

    // 6. Under the Framed/SimNet backends, every message above crossed the
    //    wire format; report the real serialized traffic per lane.
    let stats = cluster.stats();
    if stats.wire_total_messages() > 0 {
        for lane in WireLane::ALL {
            println!(
                "wire lane {}: {} msgs, {} bytes",
                lane.name(),
                stats.wire_messages(lane),
                stats.wire_bytes(lane)
            );
        }
        println!(
            "wire total: {} msgs, {} bytes",
            stats.wire_total_messages(),
            stats.wire_total_bytes()
        );
    }
    // 7. In spill mode, the memory budget must have pushed at least one
    //    block to disk — and the identical result above proves the restores
    //    were bit-exact. Export the snapshot with its `store` section.
    if spill_mode {
        let snap = StatsSnapshot::capture(stats);
        assert!(
            snap.store_spills() >= 1,
            "a 600 B budget with four 512 B blocks must spill at least once"
        );
        std::fs::write(
            "results/STORE_quickstart.json",
            snap.to_json().to_string_pretty(),
        )
        .unwrap();
        println!(
            "store: {} spills ({} B), {} restores, {} hits -> \
             results/STORE_quickstart.json",
            snap.store_spills(),
            snap.store_spill_bytes(),
            snap.store_restores(),
            snap.store_hits()
        );
    }
    // 8. In chaos mode, wait for the liveness sweep to attribute the kill
    //    (the result can arrive before the heartbeat timeout expires), then
    //    export the stats snapshot — the `fault` section must report exactly
    //    the one injected kill and one lost peer.
    if chaos {
        let deadline = Instant::now() + Duration::from_secs(10);
        while stats.peers_lost() < 1 {
            assert!(
                Instant::now() < deadline,
                "liveness sweep never declared the killed worker dead"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let snap = StatsSnapshot::capture(stats);
        // In-process chaos injects the kill itself; deploy-mode chaos has a
        // real SIGKILL from outside, so nothing is recorded as injected.
        let expected_injected = if deploy.is_some() { 0 } else { 1 };
        assert_eq!(snap.injected_kills(), expected_injected);
        assert_eq!(snap.peers_lost(), 1);
        std::fs::write(
            "results/CHAOS_quickstart.json",
            snap.to_json().to_string_pretty(),
        )
        .unwrap();
        println!(
            "chaos: {} peer lost, {} tasks resubmitted, {} recomputes -> \
             results/CHAOS_quickstart.json",
            snap.peers_lost(),
            snap.tasks_resubmitted(),
            snap.recomputes()
        );
    }
    // 9. Under a stealing policy, demonstrate the steal path on a cluster
    //    sized to make it observable (two workers, one slot each): sixteen
    //    slow tasks land wherever the policy puts them, and whichever worker
    //    goes idle first pulls queued work from the loaded peer.
    if policy.steal_enabled() {
        let lab = Cluster::with_config(ClusterConfig {
            n_workers: 2,
            slots_per_worker: 1,
            policy: policy.clone(),
            ..ClusterConfig::default()
        });
        lab.registry().register("slow_id", |_, inputs| {
            std::thread::sleep(Duration::from_millis(20));
            Ok(inputs[0].clone())
        });
        let c = lab.client();
        c.scatter_external(vec![(Key::new("hot"), Datum::F64(7.0))], Some(0));
        c.submit(
            (0..16)
                .map(|i| {
                    deisa_repro::dtask::TaskSpec::new(
                        format!("steal-demo-{i}"),
                        "slow_id",
                        Datum::Null,
                        vec!["hot".into()],
                    )
                })
                .collect(),
        );
        for i in 0..16 {
            let v = c
                .future(format!("steal-demo-{i}"))
                .result()
                .unwrap()
                .as_f64()
                .unwrap();
            assert_eq!(v, 7.0, "stolen tasks must compute the same value");
        }
        let lab_stats = lab.stats();
        assert!(
            lab_stats.tasks_stolen() >= 1,
            "a skewed queue under a stealing policy must steal at least once"
        );
        println!(
            "steal: requests={} misses={} stolen={}",
            lab_stats.steal_requests(),
            lab_stats.steal_misses(),
            lab_stats.tasks_stolen()
        );
    }
    // 10. Telemetry mode: demonstrate the flight recorder and the online
    //     straggler detector. Twelve 2 ms tasks build the `demo_ms` latency
    //     baseline (all below the 20 ms floor, so none can flag), then one
    //     80 ms outlier runs — the detector must flag exactly that one.
    if let Some(hub) = cluster.telemetry() {
        cluster.registry().register("demo_ms", |params, _| {
            std::thread::sleep(Duration::from_millis(params.as_i64().unwrap_or(0) as u64));
            Ok(Datum::F64(1.0))
        });
        client.submit(
            (0..12)
                .map(|i| TaskSpec::new(format!("tl-fast-{i}"), "demo_ms", Datum::I64(2), vec![]))
                .collect(),
        );
        for i in 0..12 {
            client.future(format!("tl-fast-{i}")).result().unwrap();
        }
        // Optional hold: keep the cluster busy so an external scraper (CI
        // curls /metrics and /flight.json) watches a genuinely live run.
        let hold_ms: u64 = std::env::var("QUICKSTART_TELEMETRY_HOLD_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if hold_ms > 0 {
            println!("telemetry: holding ~{hold_ms} ms under load for live scrapes");
            let deadline = Instant::now() + Duration::from_millis(hold_ms);
            let mut round = 0u64;
            while Instant::now() < deadline {
                client.submit(
                    (0..4)
                        .map(|i| {
                            TaskSpec::new(
                                format!("tl-hold-{round}-{i}"),
                                "demo_ms",
                                Datum::I64(5),
                                vec![],
                            )
                        })
                        .collect(),
                );
                for i in 0..4 {
                    client
                        .future(format!("tl-hold-{round}-{i}"))
                        .result()
                        .unwrap();
                }
                round += 1;
            }
        }
        client.submit(vec![TaskSpec::new(
            "tl-straggler",
            "demo_ms",
            Datum::I64(80),
            vec![],
        )]);
        client.future("tl-straggler").result().unwrap();
        assert_eq!(
            stats.stragglers_flagged(),
            1,
            "the injected 80 ms outlier — and nothing else — must be flagged"
        );
        let alerts = hub.alerts();
        assert_eq!(alerts.len(), 1, "exactly one alert: {alerts:?}");
        assert_eq!(alerts[0].key.as_deref(), Some("tl-straggler"));
        // Give the sampler one more interval to fold the straggler into the
        // flight, then export the whole ring.
        std::thread::sleep(hub.config().sample_every * 3);
        let flight = hub.flight();
        assert!(flight.len() >= 3, "flight has {} samples", flight.len());
        assert!(flight.iter().any(|s| s.tasks_per_s > 0.0));
        std::fs::write(
            "results/TELEMETRY_quickstart.json",
            hub.flight_json().to_string_pretty(),
        )
        .unwrap();
        println!(
            "stragglers: 1 flagged (key tl-straggler, {:.1} ms vs {:.1} ms threshold)",
            alerts[0].value, alerts[0].threshold
        );
        println!(
            "flight: {} samples every {} ms -> results/TELEMETRY_quickstart.json",
            flight.len(),
            hub.config().sample_every.as_millis()
        );
    }
    // 11. Multi-tenant mode: `QUICKSTART_TENANTS=n` serves n concurrent
    //     clients from one scheduler. Every tenant submits a graph under the
    //     SAME key names — the per-session namespaces keep them apart — and
    //     each result is asserted identical to a single-client run of the
    //     same graph. Then the per-session admission cap is deliberately
    //     tripped once and recovered from, so the backpressure path (reject
    //     whole graph, surface to client, admit on retry after drain) is
    //     exercised end to end.
    if tenants >= 2 {
        /// One tenant round: two scalars and their reduction, plus a scatter
        /// read back through the data plane. `tag` keeps baseline rounds on
        /// a shared session apart; tenants pass `""` so their names collide.
        fn tenant_round(client: &deisa_repro::dtask::Client, tag: &str, seed: f64) -> f64 {
            client.submit(vec![
                TaskSpec::new(format!("{tag}a"), "const", Datum::F64(seed), vec![]),
                TaskSpec::new(format!("{tag}b"), "const", Datum::F64(seed * 10.0), vec![]),
                TaskSpec::new(
                    format!("{tag}total"),
                    "sum_scalars",
                    Datum::Null,
                    vec![format!("{tag}a").into(), format!("{tag}b").into()],
                ),
            ]);
            client.scatter(
                vec![(Key::new(format!("{tag}blk")), Datum::F64(seed * 100.0))],
                None,
            );
            let total = client
                .future(format!("{tag}total"))
                .result()
                .unwrap()
                .as_f64()
                .unwrap();
            let blk = client
                .future(format!("{tag}blk"))
                .result()
                .unwrap()
                .as_f64()
                .unwrap();
            total + blk
        }

        // Single-client baselines: the same graphs on a plain (tenancy-off)
        // cluster, one at a time — the value each tenant must reproduce.
        let single = Cluster::with_config(ClusterConfig {
            n_workers: 3,
            transport: tenant_transport.clone(),
            ..ClusterConfig::default()
        });
        let single_client = single.client();
        let baselines: Vec<f64> = (0..tenants)
            .map(|i| tenant_round(&single_client, &format!("base{i}-"), (i + 1) as f64))
            .collect();
        drop(single_client);

        // The multi-tenant lab: per-session namespaces, fair-share dispatch,
        // and a per-session in-flight cap of 4 (big enough for the 3-task
        // tenant graphs, small enough to trip deliberately below).
        const TENANT_CAP: u64 = 4;
        let lab = Cluster::with_config(ClusterConfig {
            n_workers: 3,
            transport: tenant_transport,
            tenancy: TenancyConfig::with_cap(TENANT_CAP as usize),
            policy: PolicyConfig::locality().with_fair_share(),
            ..ClusterConfig::default()
        });
        let handles: Vec<_> = (0..tenants)
            .map(|i| {
                let client = lab.client();
                std::thread::spawn(move || {
                    let session = client.session();
                    (session, tenant_round(&client, "", (i + 1) as f64))
                })
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let (session, got) = handle.join().expect("tenant thread");
            assert_eq!(
                got, baselines[i],
                "tenant {i} (session {session}) must match its single-client run"
            );
        }
        println!("tenants: {tenants} concurrent clients, results identical to single-client runs");

        // Admission: fill one session's cap with slow work, watch the next
        // graph bounce with the live numbers, drain, and see it admitted.
        lab.registry().register("slow_const", |param, _| {
            std::thread::sleep(Duration::from_millis(30));
            Ok(param.clone())
        });
        let probe = lab.client();
        probe
            .try_submit(
                (0..TENANT_CAP as usize)
                    .map(|i| {
                        TaskSpec::new(
                            format!("hold-{i}"),
                            "slow_const",
                            Datum::F64(i as f64),
                            vec![],
                        )
                    })
                    .collect(),
            )
            .expect("a graph at the cap is admitted");
        match probe.try_submit(vec![TaskSpec::new(
            "over",
            "const",
            Datum::F64(1.0),
            vec![],
        )]) {
            Err(SubmitError::Rejected { inflight, cap }) => {
                assert_eq!(cap, TENANT_CAP);
                println!(
                    "admission: rejected at {inflight}/{cap} in flight (backpressure surfaced)"
                );
            }
            other => panic!("expected an admission rejection, got {other:?}"),
        }
        for i in 0..TENANT_CAP as usize {
            probe.future(format!("hold-{i}")).result().unwrap();
        }
        probe
            .try_submit(vec![TaskSpec::new(
                "over",
                "const",
                Datum::F64(1.0),
                vec![],
            )])
            .expect("the cap frees as work drains");
        assert_eq!(probe.future("over").result().unwrap().as_f64(), Some(1.0));
        assert!(lab.stats().admission_rejections() >= 1);
        assert_eq!(lab.stats().notifies_dropped(), 0);
        println!(
            "admission: 1 rejection exercised and recovered (cap {TENANT_CAP}, \
             {} total rejections)",
            lab.stats().admission_rejections()
        );
    }
    println!("quickstart OK");
}
