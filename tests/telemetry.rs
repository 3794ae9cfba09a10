//! End-to-end checks of the live telemetry plane, which every cluster runs:
//! the HTTP exporter serves valid Prometheus exposition and JSON mid-run, the
//! flight recorder captures rate samples across a sustained workload, and the
//! straggler detector flags an injected outlier (and nothing else). That none
//! of it adds a message is held by the exact counts of
//! `tests/message_accounting.rs` and `tests/transport_layer.rs`, which run
//! with the plane on.

use deisa_repro::dtask::{
    AlertKind, Cluster, ClusterConfig, Datum, EventKind, TaskSpec, TraceConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn telemetry_cluster() -> Cluster {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 2,
        slots_per_worker: 1,
        ..ClusterConfig::default()
    });
    cluster.registry().register("pause_ms", |params, inputs| {
        std::thread::sleep(Duration::from_millis(params.as_i64().unwrap_or(0) as u64));
        let mut total = 0.0;
        for d in inputs {
            total += d.as_f64().ok_or_else(|| "scalar input".to_string())?;
        }
        Ok(Datum::F64(total))
    });
    cluster
}

/// Raw HTTP GET against the exporter; returns (status line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect exporter");
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Lint a Prometheus exposition body and return its `(family, type)` pairs.
fn lint_exposition(body: &str) -> Vec<(&str, &str)> {
    // Exposition-format checks: families come as HELP/TYPE pairs, once each,
    // samples parse, counters carry the _total suffix, and the body ends in
    // exactly one newline.
    assert!(body.ends_with('\n') && !body.ends_with("\n\n"));
    let mut families: Vec<(&str, &str)> = Vec::new();
    let mut samples: Vec<(&str, f64)> = Vec::new();
    let mut last_help: Option<&str> = None;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            last_help = rest.split_whitespace().next();
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap();
            let kind = it.next().unwrap();
            assert_eq!(last_help, Some(name), "HELP precedes TYPE");
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{line}");
            if kind == "counter" {
                assert!(name.ends_with("_total"), "counter naming: {name}");
            }
            assert!(
                families.iter().all(|(n, _)| *n != name),
                "duplicate family {name}"
            );
            families.push((name, kind));
        } else if !line.is_empty() {
            let (series, value) = line.rsplit_once(' ').unwrap();
            let value = value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("unparseable sample: {line}"));
            samples.push((series, value));
        }
    }
    // Every histogram is cumulative even mid-run: bucket counts never
    // decrease with `le`, and the `+Inf` bucket equals `_count`.
    for (name, _) in families.iter().filter(|(_, kind)| *kind == "histogram") {
        let bucket = format!("{name}_bucket{{");
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|(s, _)| s.starts_with(&bucket))
            .map(|&(_, v)| v)
            .collect();
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "{name}: buckets decrease in le: {buckets:?}"
        );
        let count_series = format!("{name}_count");
        let count = samples.iter().find(|(s, _)| *s == count_series).unwrap().1;
        assert_eq!(buckets.last(), Some(&count), "{name}: +Inf != _count");
    }
    families
}

/// Drive a few rounds of short tasks so the sampler sees live completions.
fn run_rounds(cluster: &Cluster, rounds: usize, label: &str) {
    let client = cluster.client();
    for round in 0..rounds {
        client.submit(
            (0..4)
                .map(|i| {
                    TaskSpec::new(
                        format!("{label}-{round}-{i}"),
                        "pause_ms",
                        Datum::I64(5),
                        vec![],
                    )
                })
                .collect(),
        );
        for i in 0..4 {
            client
                .future(format!("{label}-{round}-{i}"))
                .result()
                .unwrap();
        }
    }
}

#[test]
fn exporter_serves_valid_prometheus_mid_run() {
    let cluster = telemetry_cluster();
    let addr = cluster.telemetry_addr();
    run_rounds(&cluster, 2, "warm");
    // Scrape while a round is still executing: executors record into the
    // histograms the exporter is reading.
    let client = cluster.client();
    client.submit(
        (0..4)
            .map(|i| TaskSpec::new(format!("live-{i}"), "pause_ms", Datum::I64(5), vec![]))
            .collect(),
    );

    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let families = lint_exposition(&body);
    assert!(
        families.len() >= 10,
        "expected a real metric corpus, got {}",
        families.len()
    );
    for name in ["dtask_messages_total", "dtask_stragglers_flagged_total"] {
        assert!(families.iter().any(|(n, _)| *n == name), "{name} missing");
    }
    // The run above completed tasks; the counters must already show them.
    assert!(
        body.lines()
            .any(|l| l.starts_with("dtask_messages_total") && !l.ends_with(" 0")),
        "mid-run scrape must see non-zero message counters"
    );
    for i in 0..4 {
        client.future(format!("live-{i}")).result().unwrap();
    }
    cluster.shutdown();
}

#[test]
fn flight_endpoint_reports_live_task_rates() {
    let cluster = telemetry_cluster();
    let addr = cluster.telemetry_addr();
    run_rounds(&cluster, 4, "flight");
    // Wait for three samples, so the completions are folded in.
    let hub = cluster.telemetry();
    let deadline = Instant::now() + Duration::from_secs(10);
    while hub.flight().len() < 3 {
        assert!(Instant::now() < deadline, "no third flight sample in 10 s");
        std::thread::sleep(Duration::from_millis(1));
    }

    let (status, body) = http_get(addr, "/flight.json");
    assert!(status.contains("200"), "{status}");
    let doc = deisa_repro::dtask::Json::parse(&body).expect("valid JSON");
    let samples = doc
        .get("samples")
        .and_then(|s| s.as_arr())
        .expect("samples array");
    assert!(
        samples.len() >= 3,
        "want >= 3 samples, got {}",
        samples.len()
    );
    let task_rates: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.get("tasks_per_s").and_then(|v| v.as_f64()))
        .collect();
    assert_eq!(task_rates.len(), samples.len());
    assert!(
        task_rates.iter().any(|&r| r > 0.0),
        "a live run must show non-zero task rates: {task_rates:?}"
    );

    let (status, body) = http_get(addr, "/alerts.json");
    assert!(status.contains("200"), "{status}");
    deisa_repro::dtask::Json::parse(&body).expect("valid alerts JSON");
    let (status, _) = http_get(addr, "/health");
    assert!(status.contains("200"));
    cluster.shutdown();
}

#[test]
fn injected_straggler_is_flagged_exactly_once() {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 1,
        slots_per_worker: 1,
        trace: TraceConfig::enabled(),
        ..ClusterConfig::default()
    });
    cluster.registry().register("pause_ms", |params, _| {
        std::thread::sleep(Duration::from_millis(params.as_i64().unwrap_or(0) as u64));
        Ok(Datum::F64(0.0))
    });
    let client = cluster.client();
    // Baseline: eight 1 ms executions. The detector judges an op only once
    // its baseline holds 8 samples, so none of them can be flagged and the
    // outlier is the first task that can be.
    client.submit(
        (0..8)
            .map(|i| TaskSpec::new(format!("base-{i}"), "pause_ms", Datum::I64(1), vec![]))
            .collect(),
    );
    for i in 0..8 {
        client.future(format!("base-{i}")).result().unwrap();
    }
    client.submit(vec![TaskSpec::new(
        "outlier",
        "pause_ms",
        Datum::I64(90),
        vec![],
    )]);
    client.future("outlier").result().unwrap();

    let hub = cluster.telemetry();
    let alerts = hub.alerts();
    assert_eq!(cluster.stats().stragglers_flagged(), 1);
    assert_eq!(alerts.len(), 1, "{alerts:?}");
    assert_eq!(alerts[0].kind, AlertKind::Straggler);
    assert_eq!(alerts[0].key.as_deref(), Some("outlier"));
    // The trace instant and the alert describe the same execution.
    let log = cluster.tracer().collect();
    let instants: Vec<_> = log.events_of(EventKind::Straggler).collect();
    assert_eq!(instants.len(), 1);
    assert_eq!(
        instants[0].1.key.as_ref().map(|k| k.as_str()),
        Some("outlier")
    );
    cluster.shutdown();
}

#[test]
fn sequential_health_scrapes_are_served_without_accept_naps() {
    // A blocking accept answers each connection as it arrives; an exporter
    // that polls its listener pays up to one nap per scrape.
    let cluster = telemetry_cluster();
    let addr = cluster.telemetry_addr();
    http_get(addr, "/health");
    let started = std::time::Instant::now();
    for _ in 0..20 {
        let (status, body) = http_get(addr, "/health");
        assert!(
            status.contains("200") && body == "ok\n",
            "{status} {body:?}"
        );
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(50),
        "20 scrapes took {elapsed:?}"
    );
    cluster.shutdown();
}

#[test]
fn default_cluster_serves_health_and_metrics() {
    // No telemetry setting: every cluster runs the exporter and the flight
    // sampler.
    let cluster = Cluster::new(2);
    let hub = std::sync::Arc::clone(cluster.telemetry());
    let addr = cluster.telemetry_addr();
    let (status, body) = http_get(addr, "/health");
    assert!(
        status.contains("200") && body == "ok\n",
        "{status} {body:?}"
    );
    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(lint_exposition(&body)
        .iter()
        .any(|(n, _)| *n == "dtask_messages_total"));
    cluster.shutdown();
    assert!(!hub.flight().is_empty(), "final sample taken at stop");
}
