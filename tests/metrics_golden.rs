//! Golden pin of the observation surface: a `SchedulerStats` with every
//! counter, class, lane, tenant and histogram set to a distinct value must
//! render to exactly the checked-in JSON snapshot and `/metrics` text.
//!
//! `dtask-bench` and the CI checkers read these documents by key and family
//! name, so a renamed or dropped key reads as missing there instead of
//! failing a build. A deliberate change to the output regenerates the files:
//! the failing test writes `<golden>.actual` next to each; review the diff
//! and move it over the golden.

use dtask::{
    EventKind, Hist, Metric, MsgClass, OptimizeReport, SchedulerStats, StatsSnapshot, TraceActor,
    TraceConfig, TraceRecorder, WireLane,
};
use std::path::PathBuf;

/// Fill every counter with its own value: 101, 102, 103, ... in call order
/// (histogram sample counts stay below that), so a renderer that swaps two
/// fields or drops one cannot go unnoticed.
fn populated() -> StatsSnapshot {
    let stats = SchedulerStats::new();
    let mut n = 100u64;
    let mut next = move || {
        n += 1;
        n
    };
    let times = |k: u64, f: &dyn Fn()| (0..k).for_each(|_| f());

    for class in MsgClass::ALL {
        stats.record_n(class, next(), next());
    }
    for lane in WireLane::ALL {
        times(next(), &|| stats.record_wire(lane, 7));
    }
    // Compound recorders: each also feeds a histogram, one sample per call.
    for wait_ns in [0, 900, 70_000, 3_000_000] {
        stats.record_gather(next(), wait_ns);
    }
    for busy_ns in [1, 2_000, 2_100, 33_000, 1_000_000_000] {
        stats.record_exec_busy(busy_ns);
    }
    stats.add(Metric::ExecIdleNs, next());
    // 100 s lands in the overflow bucket (everything from ~34 s up).
    for delay_ns in [40, 41, 5_000, 5_001, 5_002, 100_000_000_000] {
        stats.hist(Hist::QueueDelay).record(delay_ns);
    }
    for pass_ns in [300, 600, 1_200] {
        stats.record_assign_pass(pass_ns);
    }
    for burst in [1, 2, 4, 7, 12, 40] {
        times(next(), &|| stats.record_burst(burst));
    }
    stats.add(Metric::AssignTasks, next());
    stats.add(Metric::AssignMessages, next());
    stats.record_optimize(&OptimizeReport {
        tasks_in: next() as usize,
        tasks_out: next() as usize,
        culled: next() as usize,
        fused_chain_lengths: vec![2, 2, 3, 5, 9, 17, 17, 17],
    });

    for metric in [
        Metric::PeersLost,
        Metric::PeersTracked,
        Metric::TasksResubmitted,
        Metric::RetriesExhausted,
        Metric::ExternalBlocksLost,
        Metric::Recomputes,
        Metric::InjectedDrops,
        Metric::InjectedKills,
        Metric::StealRequests,
        Metric::StealMisses,
        Metric::TasksStolen,
        Metric::StoreHits,
        Metric::StoreMisses,
    ] {
        stats.add(metric, next());
    }
    let spills = next();
    stats.add(Metric::StoreSpills, spills);
    stats.add(Metric::StoreSpillBytes, spills * 11);
    stats.add(Metric::StoreRestores, next());
    let puts = next();
    stats.add(Metric::ProxyPuts, puts);
    stats.add(Metric::ProxyPutBytes, puts * 13);
    let fetches = next();
    stats.add(Metric::ProxyFetches, fetches);
    stats.add(Metric::ProxyFetchBytes, fetches * 17);
    stats.add(Metric::StragglersFlagged, next());
    stats.add(Metric::NotifiesDropped, next());
    for session in [3, 1] {
        let (tasks, bytes, queue_depth, rejections) = (next(), next(), next(), next());
        stats.add(Metric::AdmissionRejections, rejections);
        stats.with_tenant(session, |t| {
            t.tasks += tasks;
            t.bytes += bytes;
            t.queue_depth = queue_depth;
            t.admission_rejections += rejections;
        });
    }

    // Nine events into a ring of two: seven drops.
    let tracer = TraceRecorder::new(TraceConfig {
        enabled: true,
        capacity_per_actor: 2,
    });
    let handle = tracer.register(TraceActor::Scheduler);
    for i in 0..9 {
        handle.instant(EventKind::Submit, None, i);
    }
    StatsSnapshot::capture_with_tracer(&stats, &tracer)
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    if golden == actual {
        return;
    }
    let actual_path = path.with_extension("actual");
    std::fs::write(&actual_path, actual).expect("write the .actual file");
    let line = golden
        .lines()
        .zip(actual.lines())
        .position(|(g, a)| g != a)
        .unwrap_or_else(|| golden.lines().count().min(actual.lines().count()));
    panic!(
        "{name} differs from its golden at line {}; wrote {}",
        line + 1,
        actual_path.display()
    );
}

#[test]
fn json_snapshot_matches_golden() {
    let mut text = populated().to_json().to_string_pretty();
    text.push('\n');
    assert_matches_golden("stats_snapshot.json", &text);
}

#[test]
fn prometheus_exposition_matches_golden() {
    assert_matches_golden("metrics.prom", &populated().to_prometheus());
}
