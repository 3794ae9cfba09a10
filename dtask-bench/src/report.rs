//! The metric tables (`BENCHMARK.json` repeats them) and how a run's
//! segments become the numbers under those names.

use crate::measure::{growth_ratio, median, quantile, segment_rate, tail, Tail};
use crate::spans::Spans;
use crate::workloads::{Counters, PhaseSum, Segment, Shape, Variant, LANES};
use dtask::Json;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Failures are not a metric here: they are
/// the `failed`/`attempted` pair of every result, and must be 0. Every bound
/// is three times the spread (quartile distance ÷ median) that ten runs with
/// ten seeds showed on the two-core box, which is 4–9% whatever the metric.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("tasks_per_s", "1/s", "higher", 0.25),
    e2e("mb_per_s", "MB/s", "higher", 0.25),
    e2e("makespan_ms", "ms", "lower", 0.25),
    e2e("makespan_tail_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// One or more numbers per layer, named after the repository's modules.
pub const PER_LAYER: [MetricDef; 24] = [
    layer("heat2d.step_us", "us", "lower"),
    layer("mpisim.ghost_us", "us", "lower"),
    layer("core.contract_ms", "ms", "lower"),
    layer("core.publish_us", "us", "lower"),
    layer("core.publish_tail_us", "us", "lower"),
    layer("core.bridge_msgs", "count", "lower"),
    layer("darray.graph_build_ms", "ms", "lower"),
    layer("dtask.client.submit_ms", "ms", "lower"),
    layer("dtask.client.fetch_ms", "ms", "lower"),
    layer("dtask.scheduler.us_per_task", "us", "lower"),
    layer("dtask.scheduler.msgs_in", "count", "lower"),
    layer("dtask.scheduler.growth_ratio", "ratio", "lower"),
    layer("dtask.wire.frames", "count", "lower"),
    layer("dtask.wire.bytes", "bytes", "lower"),
    layer("dtask.wire_net.us_per_task", "us", "lower"),
    layer("dtask.wire_net.us_per_mb", "us/MB", "lower"),
    layer("dtask.transport.rtt_us", "us", "lower"),
    layer("dtask.worker.gather_ms", "ms", "lower"),
    layer("dtask.worker.compute_ms", "ms", "lower"),
    layer("dtask.worker.external_wait_ms", "ms", "lower"),
    layer("dtask.store.resident_mb", "MB", "lower"),
    layer("dml.partial_fit_ms", "ms", "lower"),
    layer("linalg.gflops", "GFLOP/s", "higher"),
    layer("dtask.trace.overhead_pct", "%", "lower"),
];

/// The unit time a variant is quoted at: the lower quartile of its units'
/// makespans — the typical unit the box left alone (see
/// [`crate::measure::segment_rate`] for why not the median).
fn unit_time(makespans: &[f64]) -> f64 {
    quantile(makespans, 0.25)
}

/// Makespans (seconds) of the units of `variant` that passed their checks,
/// in running order. `settled` leaves out the units that began right after a
/// pause.
fn makespans(segments: &[Segment], variant: Variant, settled: bool) -> Vec<f64> {
    segments
        .iter()
        .filter(|s| s.variant == variant)
        .flat_map(|s| &s.units)
        .filter(|u| u.failure.is_none() && !(settled && u.after_pause))
        .map(|u| u.makespan_s)
        .collect()
}

/// Per segment of `variant`: units that passed and the seconds they took.
fn segment_loads(segments: &[Segment], variant: Variant) -> Vec<(f64, f64)> {
    segments
        .iter()
        .filter(|s| s.variant == variant)
        .map(|s| {
            let ok = s.units.iter().filter(|u| u.failure.is_none());
            (
                ok.clone().count() as f64,
                ok.map(|u| u.makespan_s).sum::<f64>(),
            )
        })
        .collect()
}

/// Tasks per second of each segment of `variant`, in running order.
pub fn segment_rates(segments: &[Segment], shape: &Shape, variant: Variant) -> Vec<f64> {
    segment_loads(segments, variant)
        .iter()
        .filter(|(_, secs)| *secs > 0.0)
        .map(|(units, secs)| units * shape.tasks_per_unit as f64 / secs)
        .collect()
}

/// A reading under its metric name; `None` when its source is missing.
pub type Reading = (&'static str, Option<f64>);

/// The end-to-end readings of an untraced run, in `END_TO_END` order, and
/// the tail's percentile and sample count.
pub fn end_to_end(
    segments: &[Segment],
    shape: &Shape,
    peak_rss_mb: f64,
    setup_s: f64,
) -> (Vec<Reading>, Tail) {
    let loads = segment_loads(segments, Variant::Plain);
    let scaled = |per_unit: f64| -> Vec<(f64, f64)> {
        loads.iter().map(|&(n, s)| (n * per_unit, s)).collect()
    };
    let spans = makespans(segments, Variant::Plain, false);
    let tail = tail(&spans);
    (
        vec![
            (
                "tasks_per_s",
                Some(segment_rate(&scaled(shape.tasks_per_unit as f64))),
            ),
            (
                "mb_per_s",
                Some(segment_rate(&scaled(
                    shape.payload_bytes_per_unit as f64 / 1e6,
                ))),
            ),
            ("makespan_ms", Some(unit_time(&spans) * 1e3)),
            ("makespan_tail_ms", Some(tail.value * 1e3)),
            ("peak_rss_mb", Some(peak_rss_mb)),
            ("setup_s", Some(setup_s)),
        ],
        tail,
    )
}

/// What the probes of the traced pass measured outside the units.
pub struct Probes {
    pub gflops: f64,
    pub rtt_us: f64,
}

/// Everything the traced pass collected, reduced per variant.
pub struct Traced {
    pub phases: PhaseSum,
    pub traced_units: f64,
    /// Counter growth per unit over the traced segments.
    pub per_unit: Counters,
}

pub fn reduce_traced(segments: &[Segment]) -> Traced {
    let mut phases = PhaseSum::default();
    let mut units = 0.0;
    let mut total = Counters::zero();
    for s in segments.iter().filter(|s| s.variant == Variant::Traced) {
        if let Some(p) = &s.phases {
            phases.merge(p);
        }
        units += s.units.len() as f64;
        total = total.plus(&s.counters);
    }
    Traced {
        phases,
        traced_units: units,
        per_unit: if units > 0.0 {
            total.per(units)
        } else {
            Counters::default()
        },
    }
}

/// The per-layer readings of a traced run, in `PER_LAYER` order. A counter
/// the stats document no longer carries reads as `None`.
pub fn per_layer(
    segments: &[Segment],
    shape: &Shape,
    own_tcp: bool,
    spans: &Spans,
    probes: &Probes,
    traced: &Traced,
) -> Vec<Reading> {
    let plain = makespans(segments, Variant::Plain, false);
    let other = makespans(segments, Variant::OtherTransport, false);
    let trace_overhead = unit_time(&makespans(segments, Variant::Traced, true))
        / unit_time(&makespans(segments, Variant::Plain, true))
        - 1.0;
    let (tcp, inproc) = if own_tcp {
        (&plain, &other)
    } else {
        (&other, &plain)
    };
    let transport_gap_us = (unit_time(tcp) - unit_time(inproc)) * 1e6;
    let span_med = |name: &str, per: f64| Some(spans.median_ns(name) / per);
    let per_unit =
        |ns: u64| (traced.traced_units > 0.0).then(|| ns as f64 / traced.traced_units / 1e6);
    let tasks_traced = traced.traced_units * shape.tasks_per_unit as f64;
    // Growth over the lifetime of a cluster: per cluster where the workload
    // replaces it every so many units, else over the whole run.
    let growth = match shape.cluster_lifetime_units {
        Some(lifetime) => {
            let per_cluster: Vec<f64> = plain.chunks_exact(lifetime).map(growth_ratio).collect();
            median(&per_cluster)
        }
        None => growth_ratio(&plain),
    };
    let resident = segments
        .iter()
        .filter(|s| s.variant == Variant::Traced)
        .map(|s| s.resident_bytes)
        .max()
        .unwrap_or(0);
    vec![
        ("heat2d.step_us", span_med("heat2d.step", 1e3)),
        ("mpisim.ghost_us", span_med("mpisim.ghost", 1e3)),
        ("core.contract_ms", span_med("core.contract", 1e6)),
        ("core.publish_us", span_med("core.publish", 1e3)),
        (
            "core.publish_tail_us",
            Some(tail(&spans.durations_ns("core.publish")).value / 1e3),
        ),
        ("core.bridge_msgs", traced.per_unit.bridge_msgs),
        ("darray.graph_build_ms", span_med("darray.graph_build", 1e6)),
        (
            "dtask.client.submit_ms",
            span_med("dtask.client.submit", 1e6),
        ),
        ("dtask.client.fetch_ms", span_med("dtask.client.fetch", 1e6)),
        (
            "dtask.scheduler.us_per_task",
            (tasks_traced > 0.0).then(|| traced.phases.scheduler_ns as f64 / tasks_traced / 1e3),
        ),
        ("dtask.scheduler.msgs_in", traced.per_unit.sched_msgs),
        ("dtask.scheduler.growth_ratio", Some(growth)),
        ("dtask.wire.frames", traced.per_unit.wire_frames),
        ("dtask.wire.bytes", traced.per_unit.wire_bytes),
        (
            "dtask.wire_net.us_per_task",
            Some(transport_gap_us / shape.tasks_per_unit as f64),
        ),
        (
            "dtask.wire_net.us_per_mb",
            Some(transport_gap_us / (shape.payload_bytes_per_unit as f64 / 1e6)),
        ),
        ("dtask.transport.rtt_us", Some(probes.rtt_us)),
        ("dtask.worker.gather_ms", per_unit(traced.phases.gather_ns)),
        (
            "dtask.worker.compute_ms",
            per_unit(traced.phases.compute_ns),
        ),
        (
            "dtask.worker.external_wait_ms",
            per_unit(traced.phases.external_wait_ns),
        ),
        ("dtask.store.resident_mb", Some(resident as f64 / 1e6)),
        ("dml.partial_fit_ms", span_med("dml.partial_fit", 1e6)),
        ("linalg.gflops", Some(probes.gflops)),
        ("dtask.trace.overhead_pct", Some(trace_overhead * 100.0)),
    ]
}

/// `{"name": {"value": v, "unit": u}, ...}` in table order. A reading that
/// is missing or not finite is written as 0 so the document keeps its keys.
/// Panics if the readings are not the table's, name for name: that is a bug
/// in this file, and a shifted column must not be printed.
pub fn metrics_json(defs: &[MetricDef], readings: &[Reading]) -> Json {
    assert_eq!(defs.len(), readings.len(), "one reading per metric");
    let mut obj = Json::obj();
    for (def, (name, value)) in defs.iter().zip(readings) {
        assert_eq!(def.name, *name, "readings follow the table's order");
        let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        obj = obj.set(def.name, Json::obj().set("value", v).set("unit", def.unit));
    }
    obj
}

/// Per-lane frames and bytes per unit, for the detail document.
pub fn lanes_json(per_unit: &Counters) -> Json {
    let num = |v: Option<f64>| v.map_or(Json::Null, Json::from);
    let mut obj = Json::obj();
    for (lane, (frames, bytes)) in LANES.iter().zip(per_unit.lanes) {
        obj = obj.set(
            lane,
            Json::obj()
                .set("frames", num(frames))
                .set("bytes", num(bytes)),
        );
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Unit;

    fn seg(variant: Variant, makespans: &[f64]) -> Segment {
        Segment {
            variant,
            units: makespans.iter().map(|&m| Unit::timed(m, None)).collect(),
            counters: Counters::default(),
            phases: None,
            resident_bytes: 0,
        }
    }

    #[test]
    fn end_to_end_uses_plain_segments_and_skips_failed_units() {
        let shape = Shape {
            tasks_per_unit: 100,
            payload_bytes_per_unit: 2_000_000,
            units_per_segment: 2,
            cluster_lifetime_units: None,
        };
        let mut bad = seg(Variant::Plain, &[0.5, 0.0]);
        bad.units[1].failure = Some("timed out".into());
        let segments = vec![
            seg(Variant::Plain, &[0.5, 0.5]),
            bad,
            seg(Variant::Traced, &[9.0, 9.0]),
        ];
        let (readings, tail) = end_to_end(&segments, &shape, 12.5, 0.75);
        let values: Vec<f64> = readings.iter().map(|(_, v)| v.unwrap()).collect();
        assert_eq!(
            values[0], 200.0,
            "both plain segments run 100 tasks per 0.5 s"
        );
        assert_eq!(values[1], 4.0);
        assert_eq!(values[2], 500.0);
        assert_eq!(tail.n, 3);
        // Lower quartile of unit times: three of four units may be disturbed.
        let disturbed = vec![seg(Variant::Plain, &[0.9, 0.5, 0.8, 0.7])];
        assert_eq!(
            end_to_end(&disturbed, &shape, 1.0, 1.0).0[2],
            ("makespan_ms", Some(700.0))
        );
        assert_eq!((values[4], values[5]), (12.5, 0.75));
    }

    #[test]
    fn tables_have_unique_names_and_contract_shaped_units() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "higher" || m.better == "lower");
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn metrics_document_keeps_every_key() {
        let doc = metrics_json(
            &END_TO_END[..3],
            &[
                ("tasks_per_s", Some(1.5)),
                ("mb_per_s", None),
                ("makespan_ms", Some(f64::NAN)),
            ],
        );
        assert_eq!(
            doc.get("tasks_per_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.5)
        );
        assert_eq!(
            doc.get("mb_per_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
