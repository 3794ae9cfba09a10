//! The five workloads and what they share: the cluster variants a segment
//! can run against, the per-segment record, and the read-only stats lookups.
//!
//! Only the user-facing surface of the repository is called from here (see
//! README.md, "Pinned surface"). Every `ClusterConfig` field a workload does
//! not name stays at its default, so a changed default shows as a gain or a
//! loss.

pub mod field_mean;
pub mod insitu_ipca;
pub mod kernels;
pub mod task_storm;

use crate::spans::{Probe, Spans};
use dtask::{
    Cluster, ClusterConfig, Json, PhaseReport, StatsSnapshot, TraceConfig, TransportConfig,
};
use std::time::Duration;

/// Deadline of every wait on a result: a hang becomes a counted failure.
pub const RESULT_DEADLINE: Duration = Duration::from_secs(60);

/// Workers per cluster (the box has two cores).
pub const N_WORKERS: usize = 2;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

/// Names and reasons, in running order. `BENCHMARK.json` repeats them.
pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "insitu_ipca",
        why: "The paper's pipeline (Heat2D 1x2, 64x64 local, T=50, PDI+DEISA3, whole-graph IPCA, 151 tasks/epoch, InProc): kernels do the work, so kernel gains show and control-plane changes must not.",
    },
    WorkloadInfo {
        name: "field_mean.tcp",
        why: "Two bridges publish T=50 blocks of 512 KiB, mean over time (118 tasks, 52 MB/epoch) over Tcp: trivial compute, so payload encode/decode, sockets, store and gather are the bill.",
    },
    WorkloadInfo {
        name: "task_storm",
        why: "64 external-rooted chains x 8 scalar bumps + sink (513 tasks/round, keys released), InProc: free kernels, nothing encoded, so scheduler transitions and channel hops are the whole bill.",
    },
    WorkloadInfo {
        name: "task_storm.tcp",
        why: "The same rounds over Tcp: wire + net per small control frame dominate; the gap to task_storm is the per-frame transport cost, checked against field_mean.tcp's large frames.",
    },
    WorkloadInfo {
        name: "task_storm.retained",
        why: "The same rounds InProc, keys never released, 100 rounds per fresh cluster (~60k resident keys): a per-op cost that grows with retained state shows here and in peak_rss_mb.",
    },
];

/// How much work a run does: the measured sizing, or the same shapes at
/// about a hundredth of the units for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Which cluster a segment runs against. `Plain` is the workload as named;
/// the other two exist only in the traced pass, to price tracing and the
/// transport against the same units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The workload's own transport, tracing off.
    Plain,
    /// The workload's own transport, `TraceConfig::enabled()`, spans on.
    Traced,
    /// The other transport (Tcp for an InProc workload and the reverse),
    /// tracing off.
    OtherTransport,
}

impl Variant {
    pub const ALL: [Variant; 3] = [Variant::Plain, Variant::Traced, Variant::OtherTransport];

    pub fn name(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::Traced => "traced",
            Variant::OtherTransport => "other_transport",
        }
    }
}

/// Build the cluster for a variant of a workload whose own transport is Tcp
/// (`own_tcp`) or InProc.
pub fn cluster_for(variant: Variant, own_tcp: bool) -> Cluster {
    let tcp = own_tcp != (variant == Variant::OtherTransport);
    Cluster::with_config(ClusterConfig {
        n_workers: N_WORKERS,
        transport: if tcp {
            TransportConfig::Tcp
        } else {
            TransportConfig::InProc
        },
        trace: if variant == Variant::Traced {
            TraceConfig::enabled()
        } else {
            TraceConfig::default()
        },
        ..ClusterConfig::default()
    })
}

/// The spans a variant records into: only the traced variant has any.
pub fn spans_for(variant: Variant, spans: Option<&Spans>) -> Option<&Spans> {
    spans.filter(|_| variant == Variant::Traced)
}

/// The counters the benchmark reads, looked up by key name in the stats
/// document. A key a later change renames or removes reads as `None`
/// (printed `null`), it does not break the build.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub sched_msgs: Option<f64>,
    pub bridge_msgs: Option<f64>,
    pub wire_frames: Option<f64>,
    pub wire_bytes: Option<f64>,
    /// Per-lane `(frames, bytes)` in `LANES` order.
    pub lanes: [(Option<f64>, Option<f64>); 5],
}

pub const LANES: [&str; 5] = ["sched_in", "exec_in", "data_in", "client_in", "reply_in"];

fn lookup(doc: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))
        .and_then(Json::as_f64)
}

impl Counters {
    pub fn read(cluster: &Cluster) -> Counters {
        Counters::from_json(&StatsSnapshot::capture(cluster.stats()).to_json())
    }

    pub fn from_json(doc: &Json) -> Counters {
        let mut lanes = [(None, None); 5];
        for (slot, lane) in lanes.iter_mut().zip(LANES) {
            *slot = (
                lookup(doc, &["wire", "lanes", lane, "messages"]),
                lookup(doc, &["wire", "lanes", lane, "bytes"]),
            );
        }
        Counters {
            sched_msgs: lookup(doc, &["paper_metrics", "scheduler_control_messages"]),
            bridge_msgs: lookup(doc, &["paper_metrics", "bridge_metadata_messages"]),
            wire_frames: lookup(doc, &["wire", "total_messages"]),
            wire_bytes: lookup(doc, &["wire", "total_bytes"]),
            lanes,
        }
    }

    /// All counters present and zero: the identity of [`Counters::plus`].
    pub fn zero() -> Counters {
        Counters {
            sched_msgs: Some(0.0),
            bridge_msgs: Some(0.0),
            wire_frames: Some(0.0),
            wire_bytes: Some(0.0),
            lanes: [(Some(0.0), Some(0.0)); 5],
        }
    }

    /// Apply `f` counter by counter; a key missing on either side stays
    /// missing.
    fn combine(&self, other: &Counters, f: impl Fn(f64, f64) -> f64) -> Counters {
        let c = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| f(a, b));
        let mut lanes = [(None, None); 5];
        for (i, slot) in lanes.iter_mut().enumerate() {
            *slot = (
                c(self.lanes[i].0, other.lanes[i].0),
                c(self.lanes[i].1, other.lanes[i].1),
            );
        }
        Counters {
            sched_msgs: c(self.sched_msgs, other.sched_msgs),
            bridge_msgs: c(self.bridge_msgs, other.bridge_msgs),
            wire_frames: c(self.wire_frames, other.wire_frames),
            wire_bytes: c(self.wire_bytes, other.wire_bytes),
            lanes,
        }
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.combine(earlier, |now, then| now - then)
    }

    pub fn plus(&self, other: &Counters) -> Counters {
        self.combine(other, |a, b| a + b)
    }

    /// Every counter divided by `n`.
    pub fn per(&self, n: f64) -> Counters {
        self.combine(self, |a, _| a / n)
    }
}

/// Phase attribution summed over the traced units of a segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseSum {
    pub makespan_ns: u64,
    pub phases_total_ns: u64,
    pub contract_setup_ns: u64,
    pub external_wait_ns: u64,
    pub gather_ns: u64,
    pub compute_ns: u64,
    pub scheduler_ns: u64,
    pub dropped: u64,
}

impl PhaseSum {
    /// Drain the cluster's trace rings and add their attribution.
    pub fn collect(&mut self, cluster: &Cluster) {
        self.merge(&PhaseSum::from(&cluster.tracer().collect().phase_report()));
    }

    pub fn merge(&mut self, other: &PhaseSum) {
        self.makespan_ns += other.makespan_ns;
        self.phases_total_ns += other.phases_total_ns;
        self.contract_setup_ns += other.contract_setup_ns;
        self.external_wait_ns += other.external_wait_ns;
        self.gather_ns += other.gather_ns;
        self.compute_ns += other.compute_ns;
        self.scheduler_ns += other.scheduler_ns;
        // A ring's drop count is cumulative, so successive reports of one
        // cluster repeat it; any non-zero count voids the pass.
        self.dropped = self.dropped.max(other.dropped);
    }

    /// The traced pass is void unless nothing was dropped and the phases
    /// account for the traced makespan within 5%.
    pub fn is_valid(&self) -> bool {
        let gap = self.phases_total_ns.abs_diff(self.makespan_ns);
        self.dropped == 0 && self.makespan_ns > 0 && gap as f64 <= 0.05 * self.makespan_ns as f64
    }
}

impl From<&PhaseReport> for PhaseSum {
    fn from(r: &PhaseReport) -> PhaseSum {
        PhaseSum {
            makespan_ns: r.makespan_ns,
            phases_total_ns: r.phases_total_ns(),
            contract_setup_ns: r.contract_setup_ns,
            external_wait_ns: r.external_wait_ns,
            gather_ns: r.gather_ns,
            compute_ns: r.compute_ns,
            scheduler_ns: r.scheduler_ns,
            dropped: r.dropped,
        }
    }
}

/// One unit: a storm round or one epoch of a workflow.
#[derive(Debug, Clone)]
pub struct Unit {
    /// First `register_external`/`Bridge::init` → result in the client's
    /// hands, seconds.
    pub makespan_s: f64,
    /// Why the unit failed (erred, timed out, or failed its output check).
    pub failure: Option<String>,
    /// The unit began right after the benchmark paused its cluster to drain
    /// the trace rings. The scheduler spends that pause on the previous
    /// round's release, which other rounds pay for inside their makespan, so
    /// such a unit does not count towards the tracing overhead.
    pub after_pause: bool,
}

impl Unit {
    /// A unit that produced a result in `makespan_s` seconds, and what its
    /// output check said.
    pub fn timed(makespan_s: f64, failure: Option<String>) -> Unit {
        Unit {
            makespan_s,
            failure,
            after_pause: false,
        }
    }

    /// A unit that erred or timed out before it produced a result.
    pub fn failed(why: String) -> Unit {
        Unit::timed(0.0, Some(why))
    }
}

/// One segment: a fixed number of units against one cluster variant.
#[derive(Debug, Clone)]
pub struct Segment {
    pub variant: Variant,
    pub units: Vec<Unit>,
    /// Counter growth over the segment.
    pub counters: Counters,
    /// Traced variant only.
    pub phases: Option<PhaseSum>,
    /// Bytes resident on the workers when the last unit's result arrived.
    pub resident_bytes: u64,
}

/// What a workload's units look like. Fixed per workload: every seed gives
/// the same op, task and byte counts.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub tasks_per_unit: u64,
    pub payload_bytes_per_unit: u64,
    pub units_per_segment: usize,
    /// Units a cluster serves before the workload replaces it; `None` when
    /// one cluster serves the whole run (or every unit has its own).
    pub cluster_lifetime_units: Option<usize>,
}

pub trait Workload {
    fn shape(&self) -> Shape;

    /// Everything before the timed section: inputs from the seed, the
    /// reference result, warm-up units. Returns an error if the warm-up
    /// fails its checks.
    fn setup(&mut self, spans: Option<&Spans>) -> Result<(), String>;

    /// Run one segment of `shape().units_per_segment` units.
    fn run_segment(&mut self, variant: Variant, spans: Option<&Spans>) -> Segment;

    /// Failures of invariants that span units (for example a bridge message
    /// count that differs between epochs).
    fn cross_unit_failures(&self) -> Vec<String> {
        Vec::new()
    }

    /// Whether the workload's own transport is Tcp.
    fn own_tcp(&self) -> bool;
}

pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    use task_storm::{Storm, StormKind};
    Some(match name {
        "insitu_ipca" => Box::new(insitu_ipca::InsituIpca::new(seed, scale)),
        "field_mean.tcp" => Box::new(field_mean::FieldMean::new(seed, scale)),
        "task_storm" => Box::new(Storm::new(StormKind::Released, seed, scale)),
        "task_storm.tcp" => Box::new(Storm::new(StormKind::ReleasedTcp, seed, scale)),
        "task_storm.retained" => Box::new(Storm::new(StormKind::Retained, seed, scale)),
        _ => return None,
    })
}

/// What the benchmark reads off an epoch's cluster once the result is in
/// the client's hands (both bridge workloads run one epoch per cluster).
pub struct EpochStats {
    pub makespan_s: f64,
    pub tasks: usize,
    pub counters: Counters,
    pub phases: Option<PhaseSum>,
    pub resident_bytes: u64,
}

impl EpochStats {
    pub fn observe(
        cluster: &Cluster,
        variant: Variant,
        probe: &Probe<'_>,
        makespan_s: f64,
        tasks: usize,
    ) -> EpochStats {
        EpochStats {
            makespan_s,
            tasks,
            resident_bytes: if probe.is_on() {
                resident_bytes(cluster)
            } else {
                0
            },
            phases: (variant == Variant::Traced).then(|| {
                let mut sum = PhaseSum::default();
                sum.collect(cluster);
                sum
            }),
            counters: Counters::read(cluster),
        }
    }
}

/// The one-unit segment of an epoch: its stats and what its output check
/// said, or why it produced no result.
pub fn epoch_segment(
    variant: Variant,
    outcome: Result<(EpochStats, Option<String>), String>,
) -> Segment {
    match outcome {
        Ok((stats, failure)) => Segment {
            variant,
            units: vec![Unit::timed(stats.makespan_s, failure)],
            counters: stats.counters,
            phases: stats.phases,
            resident_bytes: stats.resident_bytes,
        },
        Err(why) => Segment {
            variant,
            units: vec![Unit::failed(why)],
            counters: Counters::default(),
            phases: None,
            resident_bytes: 0,
        },
    }
}

/// The paper's invariant on the bridge workloads: the metadata messages the
/// bridges send are the same in every epoch, and the same as in a warm-up
/// epoch at half the timesteps — `1 + R`, independent of `T`.
#[derive(Debug, Default)]
pub struct BridgeMsgs {
    /// Count of the warm-up epoch at T/2 (`None`: the counter is gone from
    /// the stats document, nothing to compare).
    pub warmup: Option<f64>,
    pub epochs: Vec<Option<f64>>,
}

impl BridgeMsgs {
    pub fn failures(&self) -> Vec<String> {
        let Some(expected) = self.warmup else {
            return Vec::new();
        };
        self.epochs
            .iter()
            .enumerate()
            .filter_map(|(i, seen)| match seen {
                Some(n) if *n != expected => Some(format!(
                    "epoch {i}: {n} bridge messages, warm-up epoch at T/2 sent {expected}"
                )),
                _ => None,
            })
            .collect()
    }
}

/// Sum of the bytes the workers report as stored.
pub fn resident_bytes(cluster: &Cluster) -> u64 {
    cluster
        .worker_memory()
        .iter()
        .map(|&(_, bytes)| bytes)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_by_key_name_and_tolerate_missing_keys() {
        let doc = Json::obj()
            .set(
                "paper_metrics",
                Json::obj().set("scheduler_control_messages", 7u64),
            )
            .set(
                "wire",
                Json::obj().set("total_messages", 3u64).set(
                    "lanes",
                    Json::obj().set("sched_in", Json::obj().set("messages", 2u64)),
                ),
            );
        let c = Counters::from_json(&doc);
        assert_eq!(c.sched_msgs, Some(7.0));
        assert_eq!(c.bridge_msgs, None);
        assert_eq!(c.wire_frames, Some(3.0));
        assert_eq!(c.wire_bytes, None);
        assert_eq!(c.lanes[0], (Some(2.0), None));
        let later = Counters {
            sched_msgs: Some(10.0),
            ..c
        };
        let d = later.since(&c);
        assert_eq!(d.sched_msgs, Some(3.0));
        assert_eq!(d.bridge_msgs, None);
    }

    #[test]
    fn bridge_message_count_must_not_depend_on_t_or_epoch() {
        let msgs = |warmup, epochs: &[Option<f64>]| BridgeMsgs {
            warmup,
            epochs: epochs.to_vec(),
        };
        assert!(msgs(Some(3.0), &[Some(3.0), Some(3.0)])
            .failures()
            .is_empty());
        assert_eq!(
            msgs(Some(3.0), &[Some(3.0), Some(53.0)]).failures().len(),
            1
        );
        // A renamed counter reads as missing: nothing to compare.
        assert!(msgs(None, &[Some(3.0)]).failures().is_empty());
    }

    #[test]
    fn every_workload_name_builds() {
        for w in &WORKLOADS {
            assert!(build(w.name, 1, Scale::Smoke).is_some(), "{}", w.name);
            assert!(w.why.len() <= 200, "{} why too long", w.name);
        }
        assert!(build("nope", 1, Scale::Smoke).is_none());
    }
}
