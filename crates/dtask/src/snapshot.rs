//! Serializable point-in-time snapshot of [`SchedulerStats`].
//!
//! [`StatsSnapshot::capture`] freezes every counter and latency histogram
//! into plain data, serializable to JSON (via [`crate::json`], the
//! workspace's serde stand-in) and to a Prometheus-style text exposition.
//! Both renderers walk [`METRICS`], the registry in [`crate::stats`], so a
//! metric's JSON path, family name and HELP text are written exactly once.
//! The benches, the examples, and runtime snapshots all serialize through
//! this one type, so `results/*.json` and live metrics share a schema.

use crate::json::Json;
use crate::key::SessionId;
use crate::stats::{
    ratio, Counters, Hist, LatencyHist, Metric, MsgClass, SchedulerStats, Section, Source,
    TenantCounters, Unit, WireLane, METRICS, N_LAT_BUCKETS, SIZE_BUCKET_LABELS,
};
use crate::trace::TraceRecorder;
use std::fmt::Write as _;

/// Frozen view of one [`LatencyHist`].
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (ns).
    pub sum_ns: u64,
    /// Mean sample (ns); `0.0` when empty.
    pub mean_ns: f64,
    /// Approximate median (bucket upper bound, ns).
    pub p50_ns: u64,
    /// Approximate 99th percentile (bucket upper bound, ns).
    pub p99_ns: u64,
    /// Raw log₂ bucket counts (bucket `i` covers `[2^i, 2^(i+1))` ns).
    pub buckets: [u64; N_LAT_BUCKETS],
}

impl HistSnapshot {
    /// Freeze one histogram. The live buckets are copied in one pass and the
    /// count and quantiles derived from that copy, so a capture taken while
    /// samples are being recorded is still self-consistent: `count` is the
    /// sum of `buckets`, which is what makes `le="+Inf"`, `_count` and the
    /// last finite bucket of the exposition agree.
    pub fn capture(hist: &LatencyHist) -> Self {
        let buckets = hist.buckets();
        let count: u64 = buckets.iter().sum();
        let sum_ns = hist.sum_ns();
        // Approximate quantile: upper bound of the bucket holding the q-th
        // sample; `0` for an empty histogram (no bucket reaches rank 1).
        let quantile = |q: f64| {
            let rank = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            let holder = buckets.iter().position(|&b| {
                seen += b;
                seen >= rank
            });
            holder.map_or(0, |i| 1u64 << (i + 1))
        };
        HistSnapshot {
            count,
            sum_ns,
            mean_ns: ratio(sum_ns, count),
            p50_ns: quantile(0.5),
            p99_ns: quantile(0.99),
            buckets,
        }
    }

    /// JSON rendering. Empty trailing buckets are trimmed to keep documents
    /// small; absent buckets are zero.
    pub fn to_json(&self) -> Json {
        let last = self
            .buckets
            .iter()
            .rposition(|&b| b > 0)
            .map_or(0, |i| i + 1);
        let buckets = self.buckets[..last].iter().map(|&b| Json::from(b));
        Json::obj()
            .set("count", self.count)
            .set("sum_ns", self.sum_ns)
            .set("mean_ns", self.mean_ns)
            .set("p50_ns", self.p50_ns)
            .set("p99_ns", self.p99_ns)
            .set("buckets", Json::Arr(buckets.collect()))
    }
}

/// Point-in-time copy of every scheduler counter plus the four latency
/// histograms. Plain data — safe to hold across cluster shutdown, compare
/// between runs, and serialize. Reads like the live stats: it derefs to the
/// same [`Counters`] getters (`snap.tasks_stolen()`, `snap.get(metric)`,
/// `snap.count(class)`).
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    counters: Counters<u64>,
    /// Indexed by [`Hist`].
    hists: [HistSnapshot; 4],
    /// Per-tenant counters, sorted by session id. Empty on single-tenant
    /// clusters (the implicit session records nothing here).
    pub tenants: Vec<(SessionId, TenantCounters)>,
}

impl std::ops::Deref for StatsSnapshot {
    type Target = Counters<u64>;

    fn deref(&self) -> &Self::Target {
        &self.counters
    }
}

impl StatsSnapshot {
    /// Freeze the live counters. Safe on a completely idle cluster: every
    /// derived ratio is `0.0`, never NaN. `trace.dropped` stays `0`; use
    /// [`StatsSnapshot::capture_with_tracer`] to fill it.
    pub fn capture(stats: &SchedulerStats) -> Self {
        StatsSnapshot {
            counters: stats.capture(),
            hists: stats.hists().each_ref().map(HistSnapshot::capture),
            tenants: stats.tenants(),
        }
    }

    /// [`StatsSnapshot::capture`] plus the trace recorder's drop counts, so
    /// consumers can tell a complete trace from a clipped one. Non-draining:
    /// the rings keep their events.
    pub fn capture_with_tracer(stats: &SchedulerStats, tracer: &TraceRecorder) -> Self {
        let mut snap = StatsSnapshot::capture(stats);
        snap.counters
            .set(Metric::TraceDropped, tracer.dropped_total());
        snap
    }

    /// Frozen view of one latency histogram.
    pub fn hist(&self, hist: Hist) -> &HistSnapshot {
        &self.hists[hist as usize]
    }

    /// Serialize to the shared JSON schema: sections in [`Section`] order,
    /// keys within a section in registry order.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        for section in Section::ALL {
            doc.entry(section.name());
        }
        for def in METRICS {
            let section = doc.entry(def.section.name());
            match def.source {
                Source::Scalar(metric) => section.put(def.key, self.get(metric)),
                Source::Sum(read) => section.put(def.key, read(self)),
                Source::Ratio(read) => section.put(def.key, read(self)),
                Source::PerClass(read) => {
                    for class in MsgClass::ALL {
                        section.entry(class.name()).put(def.key, read(self, class));
                    }
                }
                Source::PerLane(read) => {
                    let lanes = section.entry("lanes");
                    for lane in WireLane::ALL {
                        lanes.entry(lane.name()).put(def.key, read(self, lane));
                    }
                }
                Source::PerTenant(read) => {
                    let sessions = section.entry("sessions");
                    for (session, tenant) in &self.tenants {
                        sessions
                            .entry(&session.to_string())
                            .put(def.key, read(tenant));
                    }
                }
                Source::Latency(hist) => section.put(def.key, self.hist(hist).to_json()),
                Source::Sizes(hist) => {
                    let sizes = section.entry(def.key);
                    for (label, n) in SIZE_BUCKET_LABELS.iter().zip(self.size_hist(hist)) {
                        sizes.put(label, n);
                    }
                }
            }
        }
        doc
    }

    /// Pretty JSON document (what the benches write under `results/`).
    pub fn to_json_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }

    /// Prometheus text exposition (format 0.0.4) of every registry row that
    /// names a family: each gets a `# HELP` and `# TYPE` header, counters
    /// end in `_total`, histograms emit `_bucket`/`_sum`/`_count` triples
    /// with cumulative `le` labels in seconds, and the document ends with a
    /// newline.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for def in METRICS {
            let Some(name) = def.family else { continue };
            if matches!(def.source, Source::PerTenant(_)) && self.tenants.is_empty() {
                continue;
            }
            let kind = def.kind.name();
            let _ = writeln!(out, "# HELP {name} {}\n# TYPE {name} {kind}", def.help);
            // Prometheus base units: nanosecond rows are exposed in seconds.
            let show = |value: u64| match def.unit {
                Unit::Nanos => (value as f64 / 1e9).to_string(),
                _ => value.to_string(),
            };
            let _ = match def.source {
                Source::Scalar(metric) => writeln!(out, "{name} {}", show(self.get(metric))),
                Source::Sum(read) => writeln!(out, "{name} {}", show(read(self))),
                Source::Ratio(read) => writeln!(out, "{name} {}", read(self)),
                Source::PerClass(read) => MsgClass::ALL.iter().try_for_each(|&class| {
                    let value = show(read(self, class));
                    writeln!(out, "{name}{{class=\"{}\"}} {value}", class.name())
                }),
                Source::PerLane(read) => WireLane::ALL.iter().try_for_each(|&lane| {
                    let value = show(read(self, lane));
                    writeln!(out, "{name}{{lane=\"{}\"}} {value}", lane.name())
                }),
                Source::PerTenant(read) => self.tenants.iter().try_for_each(|(session, tenant)| {
                    writeln!(
                        out,
                        "{name}{{session=\"{session}\"}} {}",
                        show(read(tenant))
                    )
                }),
                Source::Latency(hist) => {
                    let hist = self.hist(hist);
                    let mut cumulative = 0u64;
                    // The last bucket has no upper bound (it absorbs everything
                    // from ~34 s up): its samples show under `+Inf` only.
                    for (i, &b) in hist.buckets[..N_LAT_BUCKETS - 1].iter().enumerate() {
                        cumulative += b;
                        if b > 0 {
                            // Sparse exposition: only non-empty buckets.
                            let le = show(1u64 << (i + 1));
                            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                        }
                    }
                    writeln!(
                        out,
                        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}",
                        hist.count,
                        show(hist.sum_ns),
                        hist.count
                    )
                }
                Source::Sizes(_) => Ok(()),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Kind, MetricDef, SizeHist};

    #[test]
    fn idle_cluster_snapshot_is_all_zero_and_finite() {
        // Snapshot on a cluster that never did any work must produce defined
        // values everywhere — 0 / 0.0, never NaN.
        let stats = SchedulerStats::new();
        let snap = StatsSnapshot::capture(&stats);
        assert!(MsgClass::ALL
            .iter()
            .all(|&c| snap.count(c) == 0 && snap.bytes(c) == 0));
        assert_eq!(snap.executor_utilization(), 0.0);
        assert_eq!(snap.avg_msgs_per_burst(), 0.0);
        assert_eq!(snap.avg_tasks_per_assign_message(), 0.0);
        let exec = snap.hist(Hist::Exec);
        assert_eq!((exec.count, exec.mean_ns, exec.p99_ns), (0, 0.0, 0));
        let text = snap.to_json_string_pretty();
        assert!(!text.contains("NaN"), "JSON must stay parseable");
        let prom = snap.to_prometheus();
        assert!(prom.contains("dtask_executor_utilization 0"));
    }

    #[test]
    fn latency_hist_buckets_and_quantiles() {
        let h = LatencyHist::default();
        h.record(0);
        h.record(1);
        h.record(1_000); // bucket 9 ([512, 1024))
        h.record(1_000_000);
        let snap = HistSnapshot::capture(&h);
        assert_eq!((snap.count, snap.sum_ns), (4, 1_001_001));
        assert!((snap.mean_ns - 250_250.25).abs() < 1e-6);
        // Rank 2 of 4 is still in bucket 0 (upper bound 2 ns); the 99th
        // percentile is the 1 ms sample, reported as its bucket's upper bound.
        assert_eq!(snap.p50_ns, 2);
        assert_eq!(snap.p99_ns, 1 << 20);
        assert_eq!(snap.buckets[0], 2, "0 and 1 ns share bucket 0");
        assert_eq!(snap.buckets[9], 1);
    }

    /// One populated `SchedulerStats`: every scalar row, class, lane, tenant
    /// field and histogram holds a value no other holds.
    fn populated() -> StatsSnapshot {
        let stats = SchedulerStats::new();
        for (i, def) in METRICS.iter().enumerate() {
            if let Source::Scalar(metric) = def.source {
                stats.add(metric, 1_000 + i as u64);
            }
        }
        for (i, &class) in MsgClass::ALL.iter().enumerate() {
            stats.record_n(class, 2_000 + i as u64, 3_000 + i as u64);
        }
        for (i, &lane) in WireLane::ALL.iter().enumerate() {
            (0..=i).for_each(|_| stats.record_wire(lane, 4_000 + i as u64));
        }
        for (i, hist) in stats.hists().iter().enumerate() {
            (0..=i).for_each(|_| hist.record(5_000 << i));
        }
        (0..3).for_each(|_| stats.record_burst(2));
        stats.record_optimize(&crate::optimize::OptimizeReport {
            fused_chain_lengths: vec![20; 4],
            ..Default::default()
        });
        for session in [1, 2] {
            stats.with_tenant(session, |t| {
                t.tasks = 6_000 + u64::from(session);
                t.bytes = 6_100 + u64::from(session);
                t.queue_depth = 6_200 + u64::from(session);
                t.admission_rejections = 6_300 + u64::from(session);
            });
        }
        StatsSnapshot::capture(&stats)
    }

    /// The table-walking test: whatever the registry declares shows up at the
    /// row's JSON path and under the row's family, with the row's value.
    #[test]
    fn every_registry_row_renders_at_its_json_path_and_under_its_family() {
        let snap = populated();
        let doc = snap.to_json();
        let prom = snap.to_prometheus();
        let num = |node: &Json, path: &[&str]| -> f64 {
            path.iter()
                .try_fold(node, |n, key| n.get(key))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("no number at {path:?}"))
        };
        // A sample line `<family><labels> <value>` is present.
        let sample = |def: &MetricDef, labels: &str, value: u64| {
            let Some(family) = def.family else { return };
            let line = match def.unit {
                Unit::Nanos => format!("{family}{labels} {}\n", value as f64 / 1e9),
                _ => format!("{family}{labels} {value}\n"),
            };
            assert!(prom.contains(&line), "{}: no sample {line:?}", def.id);
        };
        for def in METRICS {
            let section = def.section.name();
            if let Some(family) = def.family {
                let header = format!(
                    "# HELP {family} {}\n# TYPE {family} {}\n",
                    def.help,
                    def.kind.name()
                );
                assert!(prom.contains(&header), "{}: no header", def.id);
            }
            match def.source {
                Source::Scalar(metric) => {
                    let value = snap.get(metric);
                    assert!(value >= 1_000, "{} was populated", def.id);
                    assert_eq!(num(&doc, &[section, def.key]), value as f64);
                    sample(def, "", value);
                }
                Source::Sum(read) => {
                    assert_eq!(num(&doc, &[section, def.key]), read(&snap) as f64);
                    sample(def, "", read(&snap));
                }
                Source::Ratio(read) => {
                    assert_eq!(num(&doc, &[section, def.key]), read(&snap));
                    if let Some(family) = def.family {
                        assert!(prom.contains(&format!("{family} {}\n", read(&snap))));
                    }
                }
                Source::PerClass(read) => {
                    for class in MsgClass::ALL {
                        let value = read(&snap, class);
                        assert_eq!(num(&doc, &[section, class.name(), def.key]), value as f64);
                        sample(def, &format!("{{class=\"{}\"}}", class.name()), value);
                    }
                }
                Source::PerLane(read) => {
                    for lane in WireLane::ALL {
                        let value = read(&snap, lane);
                        let path = [section, "lanes", lane.name(), def.key];
                        assert_eq!(num(&doc, &path), value as f64);
                        sample(def, &format!("{{lane=\"{}\"}}", lane.name()), value);
                    }
                }
                Source::PerTenant(read) => {
                    for (session, tenant) in &snap.tenants {
                        let id = session.to_string();
                        let path = [section, "sessions", id.as_str(), def.key];
                        assert_eq!(num(&doc, &path), read(tenant) as f64);
                        sample(def, &format!("{{session=\"{id}\"}}"), read(tenant));
                    }
                }
                Source::Latency(hist) => {
                    let hist = snap.hist(hist);
                    assert!(hist.count >= 1, "{} was populated", def.id);
                    assert_eq!(num(&doc, &[section, def.key, "count"]), hist.count as f64);
                    assert_eq!(num(&doc, &[section, def.key, "sum_ns"]), hist.sum_ns as f64);
                    sample(def, "_sum", hist.sum_ns);
                    let family = def.family.expect("latency rows are exposed");
                    assert!(prom.contains(&format!("{family}_count {}\n", hist.count)));
                }
                Source::Sizes(hist) => {
                    let sizes = snap.size_hist(hist);
                    assert!(sizes.iter().sum::<u64>() >= 1, "{} was populated", def.id);
                    for (label, n) in SIZE_BUCKET_LABELS.iter().zip(sizes) {
                        assert_eq!(num(&doc, &[section, def.key, label]), n as f64);
                    }
                }
            }
        }
        // Nothing but the registry decides the top level of the document.
        let Json::Obj(sections) = &doc else {
            panic!("snapshot is an object")
        };
        let names: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, Section::ALL.map(Section::name));
        assert_eq!(snap.size_hist(SizeHist::Burst)[1], 3);
        assert!(METRICS.iter().any(|d| d.kind == Kind::Gauge));
    }

    #[test]
    fn trace_drops_come_from_the_recorder_only_when_asked() {
        use crate::trace::{EventKind, TraceActor, TraceConfig};
        let stats = SchedulerStats::new();
        let tracer = TraceRecorder::new(TraceConfig {
            enabled: true,
            capacity_per_actor: 2,
        });
        let h = tracer.register(TraceActor::Scheduler);
        for i in 0..6u64 {
            h.instant(EventKind::Submit, None, i);
        }
        let snap = StatsSnapshot::capture_with_tracer(&stats, &tracer);
        assert_eq!(snap.trace_dropped(), 4);
        assert!(snap.to_prometheus().contains("dtask_trace_dropped_total 4"));
        // Plain capture leaves the row zero.
        assert_eq!(StatsSnapshot::capture(&stats).trace_dropped(), 0);
    }

    /// The JSON document survives a writer → parser round trip unchanged, in
    /// both renderings.
    #[test]
    fn snapshot_json_round_trips_through_the_parser() {
        let doc = populated().to_json();
        for rendering in [doc.to_string_compact(), doc.to_string_pretty()] {
            let parsed = Json::parse(&rendering).expect("snapshot JSON must parse");
            assert_eq!(parsed, doc, "writer -> parser round trip must be lossless");
        }
    }

    /// Exposition format lint. Checks the whole document against
    /// the text-format rules a Prometheus scraper enforces: HELP+TYPE per
    /// family, `_total` counter names, legal metric-name characters, sample
    /// names matching their family, and a trailing newline.
    #[test]
    fn prometheus_exposition_format_lint() {
        let prom = populated().to_prometheus();
        assert!(prom.ends_with('\n'), "exposition must end with a newline");

        let valid_name = |name: &str| {
            !name.is_empty()
                && name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        };
        let mut family: Option<(String, String)> = None; // (name, kind)
        let mut seen_families = std::collections::HashSet::new();
        let mut pending_help: Option<String> = None;
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                assert!(valid_name(name), "bad HELP name {name:?}");
                assert!(
                    rest.len() > name.len() + 1,
                    "HELP for {name} must carry text"
                );
                pending_help = Some(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                assert!(valid_name(name), "bad TYPE name {name:?}");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown type {kind:?} for {name}"
                );
                assert_eq!(
                    pending_help.take().as_deref(),
                    Some(name),
                    "TYPE for {name} must directly follow its HELP"
                );
                assert!(
                    seen_families.insert(name.to_string()),
                    "family {name} declared twice"
                );
                if kind == "counter" {
                    assert!(name.ends_with("_total"), "counter {name} must end _total");
                }
                family = Some((name.to_string(), kind.to_string()));
            } else {
                let sample_name = line.split(['{', ' ']).next().unwrap_or_default();
                assert!(valid_name(sample_name), "bad sample name in {line:?}");
                let (fam_name, fam_kind) = family.as_ref().expect("sample before any family");
                let belongs = match fam_kind.as_str() {
                    "histogram" => {
                        sample_name == format!("{fam_name}_bucket")
                            || sample_name == format!("{fam_name}_sum")
                            || sample_name == format!("{fam_name}_count")
                    }
                    _ => sample_name == *fam_name,
                };
                assert!(belongs, "sample {sample_name} outside family {fam_name}");
                let value = line.rsplit(' ').next().unwrap_or("");
                assert!(
                    value.parse::<f64>().is_ok(),
                    "unparseable sample value in {line:?}"
                );
            }
        }
        assert!(pending_help.is_none(), "dangling HELP without TYPE");
    }

    /// A scrape taken while samples are being recorded is still legal
    /// exposition: no finite bucket above `+Inf`, `+Inf` equal to `_count`.
    #[test]
    fn capture_during_recording_is_never_torn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stats = SchedulerStats::new();
        let stop = AtomicBool::new(false);
        let started = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                started.wait();
                let mut ns = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    stats.record_exec_busy(ns);
                    ns = ns.wrapping_mul(6364136223846793005).wrapping_add(1) >> 20;
                }
            });
            started.wait();
            for _ in 0..1_000 {
                let snap = StatsSnapshot::capture(&stats);
                let hist = snap.hist(Hist::Exec);
                assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
                let prom = snap.to_prometheus();
                let series: Vec<u64> = prom
                    .lines()
                    .filter(|l| l.starts_with("dtask_exec_seconds_bucket"))
                    .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
                    .collect();
                assert!(series.windows(2).all(|w| w[0] <= w[1]), "{series:?}");
                assert_eq!(series.last(), Some(&hist.count), "+Inf is the count");
                assert!(prom.contains(&format!("dtask_exec_seconds_count {}\n", hist.count)));
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn overflow_bucket_is_counted_under_inf_only() {
        let stats = SchedulerStats::new();
        stats.record_exec_busy(100_000_000_000); // 100 s, past every finite bound
        let prom = StatsSnapshot::capture(&stats).to_prometheus();
        let buckets: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("dtask_exec_seconds_bucket"))
            .collect();
        assert_eq!(buckets, ["dtask_exec_seconds_bucket{le=\"+Inf\"} 1"]);
        assert!(prom.contains("dtask_exec_seconds_sum 100\n"));
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let stats = SchedulerStats::new();
        stats.record_exec_busy(100); // bucket 6 ([64,128))
        stats.record_exec_busy(100);
        stats.record_exec_busy(100_000); // higher bucket
        let prom = StatsSnapshot::capture(&stats).to_prometheus();
        // The higher bucket's cumulative count includes the lower one.
        assert!(prom.contains("dtask_exec_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("dtask_exec_seconds_count 3"));
        let lines: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("dtask_exec_seconds_bucket{le=\"") && !l.contains("+Inf"))
            .collect();
        assert_eq!(lines.len(), 2, "two non-empty buckets");
        assert!(lines[0].ends_with(" 2"));
        assert!(lines[1].ends_with(" 3"));
    }
}
