//! Message and byte accounting, and the one registry every counter is
//! declared in.
//!
//! The paper's scalability argument is a *message-count* argument: DEISA1
//! sends `2 · timesteps · ranks + heartbeats` metadata messages to the
//! centralized scheduler, the external-task version only `1 + ranks` at
//! startup. These counters make those formulas measurable in the real
//! runtime (integration tests assert them) and calibrate the DES models.
//!
//! [`METRICS`] is the single definition of each metric: identifier, JSON
//! path, Prometheus family, HELP text, kind and unit. The JSON snapshot, the
//! `/metrics` text ([`crate::snapshot`]) and the flight recorder's rates
//! ([`crate::telemetry`]) are all derived from it, so adding a scalar
//! counter is one row plus one [`SchedulerStats::add`] call.

use crate::key::SessionId;
use crate::optimize::OptimizeReport;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// An enum whose variants each carry a stable snake_case name: `ALL`,
/// `COUNT`, `name()` and the array index (`as usize`) all come from the one
/// list, so they cannot drift apart.
macro_rules! named_enum {
    ($(#[$meta:meta])* pub enum $Name:ident {
        $($(#[$vmeta:meta])* $Variant:ident => $name:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $Name {
            $($(#[$vmeta])* $Variant,)+
        }

        impl $Name {
            /// Number of variants.
            pub const COUNT: usize = [$($name),+].len();

            /// Every variant, in declaration order (the order renderers iterate).
            pub const ALL: [$Name; $Name::COUNT] = [$($Name::$Variant),+];

            /// Stable snake_case name (JSON key, Prometheus label value).
            pub fn name(self) -> &'static str {
                match self {
                    $($Name::$Variant => $name,)+
                }
            }
        }
    };
}

named_enum! {
    /// Classes of messages arriving at the scheduler, plus data-plane traffic.
    pub enum MsgClass {
        /// `SubmitGraph` messages.
        GraphSubmit => "graph_submit",
        /// Individual task specs received across all submissions.
        TaskSubmitted => "task_submitted",
        /// `RegisterExternal` messages.
        RegisterExternal => "register_external",
        /// `UpdateData` messages from classic scatter (metadata-bearing).
        UpdateData => "update_data",
        /// `UpdateData` messages in external mode (§2.2): completion
        /// notifications of external tasks — the paper does not count these
        /// as metadata.
        UpdateDataExternal => "update_data_external",
        /// `TaskFinished`/`TaskErred` worker reports.
        TaskReport => "task_report",
        /// `WantResult` requests.
        WantResult => "want_result",
        /// Variable operations (set/get/del).
        Variable => "variable",
        /// Queue operations (push/pop).
        Queue => "queue",
        /// Heartbeats.
        Heartbeat => "heartbeat",
        /// Scatter payload messages client→worker (data plane).
        ScatterData => "scatter_data",
        /// Gather payload messages worker→client (data plane).
        GatherData => "gather_data",
        /// Peer dependency fetches worker→worker (data plane).
        PeerFetch => "peer_fetch",
        /// `AddReplica` reports from workers that cached remote blocks.
        AddReplica => "add_replica",
        /// Worker liveness pings (off unless failure detection is enabled;
        /// never part of the paper's bridge-metadata accounting).
        WorkerHeartbeat => "worker_heartbeat",
    }
}

named_enum! {
    /// Destination lanes of the framed transport backends. One lane per
    /// payload family, so "scheduler inbound" — the paper's bottleneck — is
    /// a single counter read. Only the Framed and Tcp backends record
    /// here; InProc stays at zero by design.
    pub enum WireLane {
        /// Messages into the scheduler (the centralized bottleneck).
        SchedIn => "sched_in",
        /// Assignments into worker executor inboxes.
        ExecIn => "exec_in",
        /// Requests into worker stores.
        DataIn => "data_in",
        /// Notifications into client inboxes.
        ClientIn => "client_in",
        /// Correlated replies (acks, gather payloads, stats).
        ReplyIn => "reply_in",
    }
}

/// Buckets of one [`LatencyHist`]: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes 0 ns); the last bucket
/// absorbs everything from ~34 s up.
pub const N_LAT_BUCKETS: usize = 36;

/// A log₂-bucketed latency histogram over nanosecond samples. Recording is
/// two relaxed `fetch_add`s — the same cost class as the message counters, so
/// the histograms stay on even when event tracing is off. The sample count is
/// the sum of the buckets: read it, and the quantiles, through
/// [`crate::snapshot::HistSnapshot::capture`].
#[derive(Debug)]
pub struct LatencyHist {
    buckets: [AtomicU64; N_LAT_BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHist {
    /// Record one sample.
    pub fn record(&self, ns: u64) {
        let bucket = (63 - (ns | 1).leading_zeros() as usize).min(N_LAT_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Sum of all samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> [u64; N_LAT_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Histogram bucket count shared by the fused-chain and burst histograms.
pub const N_SIZE_BUCKETS: usize = 6;

/// Bucket a size into `[≤1, 2, 3–4, 5–8, 9–16, >16]`.
pub fn size_bucket(n: u64) -> usize {
    match n {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

/// Human-readable labels for [`size_bucket`] (reports and bench output).
pub const SIZE_BUCKET_LABELS: [&str; N_SIZE_BUCKETS] = ["<=1", "2", "3-4", "5-8", "9-16", ">16"];

/// The four latency histograms of a [`SchedulerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Wall wait of each dependency-gather batch.
    GatherWait,
    /// Each task execution (op or fused-chain compute time).
    Exec,
    /// Queue delay: scheduler assignment → executor slot dequeue, per task.
    QueueDelay,
    /// Each placement pass.
    AssignPass,
}

/// The two size histograms (bucketed by [`size_bucket`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeHist {
    /// Fused-chain lengths.
    FusedChain,
    /// Scheduler inbox burst sizes.
    Burst,
}

// ---- the registry -------------------------------------------------------------

named_enum! {
    /// Top-level sections of the JSON snapshot, in document order.
    pub enum Section {
        Messages => "messages",
        PaperMetrics => "paper_metrics",
        Gather => "gather",
        Executors => "executors",
        Optimizer => "optimizer",
        Ingest => "ingest",
        Assign => "assign",
        Wire => "wire",
        Fault => "fault",
        Steal => "steal",
        Store => "store",
        Trace => "trace",
        Telemetry => "telemetry",
        Tenancy => "tenancy",
    }
}

named_enum! {
    /// Prometheus metric type of a row.
    pub enum Kind {
        /// Monotonic; its family name ends in `_total`.
        Counter => "counter",
        /// A value that can go down.
        Gauge => "gauge",
        /// A bucketed distribution.
        Histogram => "histogram",
    }
}

named_enum! {
    /// Unit of a row's value. JSON carries it as recorded; the exposition
    /// follows Prometheus base units, so [`Unit::Nanos`] renders in seconds.
    pub enum Unit {
        /// Dimensionless events (messages, tasks, peers, ...).
        Count => "count",
        /// Bytes.
        Bytes => "bytes",
        /// Nanoseconds.
        Nanos => "ns",
        /// A fraction or mean of two other rows.
        Ratio => "ratio",
    }
}

/// Where a row's value comes from, and so how the renderers lay it out.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// One slot of the flat counter array.
    Scalar(Metric),
    /// An integer computed from other rows.
    Sum(fn(&Counters<u64>) -> u64),
    /// A ratio computed from other rows.
    Ratio(fn(&Counters<u64>) -> f64),
    /// One value per message class: label `class`, JSON
    /// `<section>.<class>.<key>`.
    PerClass(fn(&Counters<u64>, MsgClass) -> u64),
    /// One value per wire lane: label `lane`, JSON
    /// `<section>.lanes.<lane>.<key>`.
    PerLane(fn(&Counters<u64>, WireLane) -> u64),
    /// One value per tenant: label `session`, JSON
    /// `<section>.sessions.<id>.<key>`; no samples on single-tenant clusters.
    PerTenant(fn(&TenantCounters) -> u64),
    /// A latency histogram.
    Latency(Hist),
    /// A size histogram, keyed by [`SIZE_BUCKET_LABELS`].
    Sizes(SizeHist),
}

/// One row of the registry: everything the renderers and the docs need to
/// know about a metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Unique identifier; also the name of the row's getter.
    pub id: &'static str,
    /// JSON section the value lives in.
    pub section: Section,
    /// JSON key within the section (within the per-label object for
    /// labelled rows).
    pub key: &'static str,
    /// Prometheus family; `None` for rows a scraper derives from other
    /// families (a histogram's `_sum`, a sum over labels, a ratio).
    pub family: Option<&'static str>,
    /// Prometheus type.
    pub kind: Kind,
    /// Unit of the recorded value.
    pub unit: Unit,
    /// One-line description (the `# HELP` text).
    pub help: &'static str,
    /// Where the value comes from.
    pub source: Source,
}

/// Declares the registry. A row is
/// `[Variant] id: Section "key" => "family", Kind, Unit, "help";` for a scalar
/// counter (generating the [`Metric`] variant and the `id()` getter), or
/// starts with `(source)` instead of `[Variant]` for any other [`Source`];
/// `=> "family"` is left out for JSON-only rows. Row order is the order of
/// the exposition and of the keys within a JSON section.
macro_rules! metrics {
    (@family) => { None };
    (@family $family:literal) => { Some($family) };
    (@source [$Variant:ident]) => { Source::Scalar(Metric::$Variant) };
    (@source ($source:expr)) => { $source };
    ($(
        $([$Variant:ident])? $(($source:expr))? $id:ident:
        $Section:ident $key:literal $(=> $family:literal)?, $Kind:ident, $Unit:ident, $help:literal;
    )+) => {
        /// Identifier of one scalar counter: a slot of the flat array behind
        /// [`SchedulerStats::add`] and [`Counters::get`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Metric {
            $($(#[doc = $help] $Variant,)?)+
        }

        impl Metric {
            /// Number of scalar counters.
            pub const COUNT: usize = [$($(Metric::$Variant,)?)+].len();
        }

        /// The registry: every metric, defined once.
        pub const METRICS: &[MetricDef] = &[$(
            MetricDef {
                id: stringify!($id),
                section: Section::$Section,
                key: $key,
                family: metrics!(@family $($family)?),
                kind: Kind::$Kind,
                unit: Unit::$Unit,
                help: $help,
                source: metrics!(@source $([$Variant])? $(($source))?),
            },
        )+];

        /// One getter per scalar row, named after the row.
        impl<T: Cell> Counters<T> {
            $($(
                #[doc = $help]
                pub fn $id(&self) -> u64 {
                    self.get(Metric::$Variant)
                }
            )?)+
        }
    };
}

metrics! {
    (Source::PerClass(Counters::count)) count: Messages "count" => "dtask_messages_total", Counter, Count,
        "Messages recorded at the scheduler by class.";
    (Source::PerClass(Counters::bytes)) bytes: Messages "bytes" => "dtask_message_bytes_total", Counter, Bytes,
        "Payload bytes recorded at the scheduler by class.";
    (Source::Sum(Counters::scheduler_control_messages)) scheduler_control_messages:
        PaperMetrics "scheduler_control_messages" => "dtask_scheduler_control_messages_total", Counter, Count,
        "Control-plane messages that hit the scheduler (the paper's bottleneck metric).";
    (Source::Sum(Counters::bridge_metadata_messages)) bridge_metadata_messages:
        PaperMetrics "bridge_metadata_messages" => "dtask_bridge_metadata_messages_total", Counter, Count,
        "Bridge/client metadata messages per the paper's section 2.1 accounting.";
    (Source::PerLane(Counters::wire_messages)) wire_messages: Wire "messages" => "dtask_wire_messages_total", Counter, Count,
        "Framed transport messages encoded, by destination lane.";
    (Source::PerLane(Counters::wire_bytes)) wire_bytes: Wire "bytes" => "dtask_wire_bytes_total", Counter, Bytes,
        "Serialized bytes-on-the-wire, by destination lane.";
    (Source::Sum(Counters::wire_total_messages)) wire_total_messages: Wire "total_messages", Counter, Count,
        "Framed transport messages encoded, all lanes (zero under InProc).";
    (Source::Sum(Counters::wire_total_bytes)) wire_total_bytes: Wire "total_bytes", Counter, Bytes,
        "Serialized bytes-on-the-wire, all lanes (zero under InProc).";
    [WireOversized] wire_oversized: Wire "oversized" => "dtask_wire_oversized_total", Counter, Count,
        "Messages refused where they were built: encoded larger than the frame-size limit.";
    [ExecBusyNs] exec_busy_ns: Executors "busy_ns" => "dtask_executor_busy_seconds_total", Counter, Nanos,
        "Wall time executor slots spent running tasks (gather plus compute).";
    [ExecIdleNs] exec_idle_ns: Executors "idle_ns" => "dtask_executor_idle_seconds_total", Counter, Nanos,
        "Wall time executor slots spent blocked on an empty inbox.";
    (Source::Ratio(Counters::executor_utilization)) executor_utilization:
        Executors "utilization" => "dtask_executor_utilization", Gauge, Ratio,
        "Executor busy time over busy plus idle time.";
    [GatherBatches] gather_batches: Gather "batches" => "dtask_gather_batches_total", Counter, Count,
        "Dependency gathers that needed at least one remote fetch.";
    [GatherDeps] gather_deps: Gather "remote_deps" => "dtask_gather_remote_deps_total", Counter, Count,
        "Remote dependencies fetched across all gathers.";
    [GatherWaitNs] gather_wait_ns: Gather "wait_ns", Counter, Nanos,
        "Wall time waiting on dependency gathers: the _sum of the gather-wait histogram.";
    [IngestBursts] ingest_bursts: Ingest "bursts" => "dtask_ingest_bursts_total", Counter, Count,
        "Scheduler inbox bursts drained.";
    [IngestMsgs] ingest_msgs: Ingest "messages" => "dtask_ingest_messages_total", Counter, Count,
        "Messages absorbed across all inbox bursts.";
    (Source::Ratio(Counters::avg_msgs_per_burst)) avg_msgs_per_burst: Ingest "avg_msgs_per_burst", Gauge, Ratio,
        "Mean messages absorbed per inbox burst.";
    (Source::Sizes(SizeHist::Burst)) burst_hist: Ingest "burst_hist", Histogram, Count,
        "Inbox burst sizes, bucketed <=1, 2, 3-4, 5-8, 9-16, >16.";
    [AssignPasses] assign_passes: Assign "passes" => "dtask_assign_passes_total", Counter, Count,
        "Scheduler placement passes run.";
    [AssignPassNs] assign_pass_ns: Assign "pass_ns", Counter, Nanos,
        "Wall time inside placement passes: the _sum of the placement-pass histogram.";
    [AssignTasks] assign_tasks: Assign "tasks" => "dtask_assign_tasks_total", Counter, Count,
        "Tasks assigned to workers.";
    [AssignMessages] assign_messages: Assign "messages" => "dtask_assign_messages_total", Counter, Count,
        "Execute/ExecuteBatch messages sent to workers.";
    (Source::Ratio(Counters::avg_tasks_per_assign_message)) avg_tasks_per_assign_message:
        Assign "avg_tasks_per_message", Gauge, Ratio,
        "Mean tasks shipped per scheduler-to-worker message.";
    [OptimizeTasksIn] optimize_tasks_in: Optimizer "tasks_in" => "dtask_optimize_tasks_in_total", Counter, Count,
        "Tasks in submitted graphs before optimization.";
    [OptimizeTasksOut] optimize_tasks_out: Optimizer "tasks_out" => "dtask_optimize_tasks_out_total", Counter, Count,
        "Specs sent to the scheduler after cull and fuse.";
    [OptimizeCulled] optimize_culled: Optimizer "culled" => "dtask_optimize_culled_total", Counter, Count,
        "Tasks dropped by the optimizer cull pass.";
    [FusedChains] fused_chains: Optimizer "fused_chains" => "dtask_optimize_fused_chains_total", Counter, Count,
        "Fused chains produced by the optimizer.";
    [FusedStages] fused_stages: Optimizer "fused_stages" => "dtask_optimize_fused_stages_total", Counter, Count,
        "Original tasks absorbed into fused chains (chain lengths summed).";
    (Source::Sizes(SizeHist::FusedChain)) fused_chain_hist: Optimizer "chain_hist", Histogram, Count,
        "Fused-chain lengths, bucketed <=1, 2, 3-4, 5-8, 9-16, >16.";
    [PeersLost] peers_lost: Fault "peers_lost" => "dtask_fault_peers_lost_total", Counter, Count,
        "Peers declared dead by the liveness sweep.";
    [PeersTracked] peers_tracked: Fault "peers_tracked" => "dtask_fault_peers_tracked_total", Counter, Count,
        "Distinct peers whose heartbeats were tracked.";
    [TasksResubmitted] tasks_resubmitted: Fault "tasks_resubmitted" => "dtask_fault_tasks_resubmitted_total", Counter, Count,
        "Tasks re-queued after a peer loss.";
    [RetriesExhausted] retries_exhausted: Fault "retries_exhausted" => "dtask_fault_retries_exhausted_total", Counter, Count,
        "Tasks failed after exhausting their retry budget.";
    [TasksErred] tasks_erred: Fault "tasks_erred" => "dtask_fault_tasks_erred_total", Counter, Count,
        "TaskErred reports the scheduler accepted from a live worker.";
    [ExternalBlocksLost] external_blocks_lost:
        Fault "external_blocks_lost" => "dtask_fault_external_blocks_lost_total", Counter, Count,
        "External blocks lost beyond recovery.";
    [Recomputes] recomputes: Fault "recomputes" => "dtask_fault_recomputes_total", Counter, Count,
        "Lost results re-queued for recompute.";
    [InjectedDrops] injected_drops: Fault "injected_drops" => "dtask_fault_injected_drops_total", Counter, Count,
        "Messages dropped by the active fault-injection plan.";
    [InjectedKills] injected_kills: Fault "injected_kills" => "dtask_fault_injected_kills_total", Counter, Count,
        "Workers killed by fault injection.";
    [StealRequests] steal_requests: Steal "requests" => "dtask_steal_requests_total", Counter, Count,
        "StealRequest messages from idle workers.";
    [StealMisses] steal_misses: Steal "misses" => "dtask_steal_misses_total", Counter, Count,
        "Steal attempts that found nothing to take.";
    [TasksStolen] tasks_stolen: Steal "tasks_stolen" => "dtask_steal_tasks_stolen_total", Counter, Count,
        "Assignments re-pointed from a victim to a thief.";
    [StoreHits] store_hits: Store "hits" => "dtask_store_hits_total", Counter, Count,
        "Object-store lookups answered from memory.";
    [StoreMisses] store_misses: Store "misses" => "dtask_store_misses_total", Counter, Count,
        "Object-store lookups that found nothing.";
    [StoreSpills] store_spills: Store "spills" => "dtask_store_spills_total", Counter, Count,
        "Store entries spilled to disk under memory pressure.";
    [StoreRestores] store_restores: Store "restores" => "dtask_store_restores_total", Counter, Count,
        "Spilled store entries restored on access.";
    [StoreSpillBytes] store_spill_bytes: Store "spill_bytes" => "dtask_store_spill_bytes_total", Counter, Bytes,
        "Payload bytes written by store spills.";
    [ProxyPuts] proxy_puts: Store "proxy_puts" => "dtask_proxy_puts_total", Counter, Count,
        "Payloads published out-of-band behind proxy handles.";
    [ProxyPutBytes] proxy_put_bytes: Store "proxy_put_bytes" => "dtask_proxy_put_bytes_total", Counter, Bytes,
        "Payload bytes published out-of-band.";
    [ProxyFetches] proxy_fetches: Store "proxy_fetches" => "dtask_proxy_fetches_total", Counter, Count,
        "Proxy handles resolved by fetching from a holder.";
    [ProxyFetchBytes] proxy_fetch_bytes: Store "proxy_fetch_bytes" => "dtask_proxy_fetch_bytes_total", Counter, Bytes,
        "Payload bytes moved by proxy-handle resolution.";
    [TraceDropped] trace_dropped: Trace "dropped" => "dtask_trace_dropped_total", Counter, Count,
        "Trace events lost to full per-actor rings.";
    [StragglersFlagged] stragglers_flagged: Telemetry "stragglers_flagged" => "dtask_stragglers_flagged_total", Counter, Count,
        "Task executions flagged as stragglers by the online detector.";
    [NotifiesDropped] notifies_dropped: Tenancy "notifies_dropped" => "dtask_sched_notifies_dropped_total", Counter, Count,
        "Client notifications dropped because the client channel was gone.";
    [AdmissionRejections] admission_rejections:
        Tenancy "admission_rejections" => "dtask_admission_rejections_total", Counter, Count,
        "Graphs rejected by per-session admission control, all tenants.";
    (Source::PerTenant(|t| t.tasks)) tenant_tasks: Tenancy "tasks" => "dtask_tenant_tasks_total", Counter, Count,
        "Tasks admitted per session.";
    (Source::PerTenant(|t| t.bytes)) tenant_bytes: Tenancy "bytes" => "dtask_tenant_bytes_total", Counter, Bytes,
        "Result payload bytes reported per session.";
    (Source::PerTenant(|t| t.queue_depth)) tenant_queue_depth: Tenancy "queue_depth" => "dtask_tenant_queue_depth", Gauge, Count,
        "In-flight tasks per session.";
    (Source::PerTenant(|t| t.admission_rejections)) tenant_admission_rejections:
        Tenancy "admission_rejections" => "dtask_tenant_admission_rejections_total", Counter, Count,
        "Graphs rejected by admission control per session.";
    (Source::Latency(Hist::GatherWait)) gather_wait_hist: Gather "wait_hist" => "dtask_gather_wait_seconds", Histogram, Nanos,
        "Wall time spent waiting on dependency gathers.";
    (Source::Latency(Hist::Exec)) exec_hist: Executors "exec_hist" => "dtask_exec_seconds", Histogram, Nanos,
        "Task op or fused-chain execution time.";
    (Source::Latency(Hist::QueueDelay)) queue_delay_hist: Executors "queue_delay_hist" => "dtask_queue_delay_seconds", Histogram, Nanos,
        "Delay between scheduler assignment and slot dequeue.";
    (Source::Latency(Hist::AssignPass)) assign_pass_hist: Assign "pass_hist" => "dtask_assign_pass_seconds", Histogram, Nanos,
        "Wall time of one scheduler placement pass.";
}

// ---- storage ------------------------------------------------------------------

/// One counter cell: live (`AtomicU64`) or captured (`u64`).
pub trait Cell: Default {
    /// The current value (a relaxed load on a live cell).
    fn load(&self) -> u64;
}

impl Cell for AtomicU64 {
    fn load(&self) -> u64 {
        AtomicU64::load(self, Ordering::Relaxed)
    }
}

impl Cell for u64 {
    fn load(&self) -> u64 {
        *self
    }
}

// Regions of the flat cell array: the scalars, then the labelled families.
const CLASS_COUNTS: usize = Metric::COUNT;
const CLASS_BYTES: usize = CLASS_COUNTS + MsgClass::COUNT;
const WIRE_MSGS: usize = CLASS_BYTES + MsgClass::COUNT;
const WIRE_BYTES: usize = WIRE_MSGS + WireLane::COUNT;
const SIZES: usize = WIRE_BYTES + WireLane::COUNT;
const N_CELLS: usize = SIZES + 2 * N_SIZE_BUCKETS;

/// Every counter as one flat array: live inside [`SchedulerStats`]
/// (`AtomicU64` cells), or captured as plain values (`u64` cells) in a
/// [`crate::snapshot::StatsSnapshot`] and in the flight sampler's cursor.
/// Every reader, generated or derived, is written once against both.
#[derive(Debug, Clone)]
pub struct Counters<T> {
    cells: [T; N_CELLS],
}

impl<T: Cell> Default for Counters<T> {
    fn default() -> Self {
        Counters {
            cells: std::array::from_fn(|_| T::default()),
        }
    }
}

/// `a / b` with an empty-run guard: `0.0` when `b == 0`, never NaN.
pub(crate) fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

impl<T: Cell> Counters<T> {
    /// Copy every cell out.
    pub fn capture(&self) -> Counters<u64> {
        Counters {
            cells: std::array::from_fn(|i| self.cells[i].load()),
        }
    }

    /// Value of one scalar counter.
    pub fn get(&self, metric: Metric) -> u64 {
        self.cells[metric as usize].load()
    }

    /// Message count of one class.
    pub fn count(&self, class: MsgClass) -> u64 {
        self.cells[CLASS_COUNTS + class as usize].load()
    }

    /// Byte volume of one class.
    pub fn bytes(&self, class: MsgClass) -> u64 {
        self.cells[CLASS_BYTES + class as usize].load()
    }

    /// Framed messages sent on one lane.
    pub fn wire_messages(&self, lane: WireLane) -> u64 {
        self.cells[WIRE_MSGS + lane as usize].load()
    }

    /// Serialized bytes sent on one lane.
    pub fn wire_bytes(&self, lane: WireLane) -> u64 {
        self.cells[WIRE_BYTES + lane as usize].load()
    }

    /// Bucket counts of one size histogram (see [`SIZE_BUCKET_LABELS`]).
    pub fn size_hist(&self, hist: SizeHist) -> [u64; N_SIZE_BUCKETS] {
        let base = SIZES + hist as usize * N_SIZE_BUCKETS;
        std::array::from_fn(|i| self.cells[base + i].load())
    }

    /// Total *control-plane* messages that hit the scheduler: every class
    /// except task specs and the data-plane payloads. This is the load the
    /// paper's formulas count.
    pub fn scheduler_control_messages(&self) -> u64 {
        use MsgClass::*;
        let data_plane =
            |c: &MsgClass| matches!(c, TaskSubmitted | ScatterData | GatherData | PeerFetch);
        MsgClass::ALL
            .iter()
            .filter(|c| !data_plane(c))
            .map(|&c| self.count(c))
            .sum()
    }

    /// Metadata messages *originating at bridges/clients* per the paper's
    /// accounting (§2.1): classic-scatter metadata + queue ops + variable
    /// ops + heartbeats. External-task completion notifications are data
    /// plane and excluded, exactly as the paper counts them.
    pub fn bridge_metadata_messages(&self) -> u64 {
        use MsgClass::*;
        [UpdateData, Variable, Queue, Heartbeat]
            .into_iter()
            .map(|c| self.count(c))
            .sum()
    }

    /// Framed messages across all lanes (`0` under InProc).
    pub fn wire_total_messages(&self) -> u64 {
        WireLane::ALL.iter().map(|&l| self.wire_messages(l)).sum()
    }

    /// Serialized bytes across all lanes (`0` under InProc).
    pub fn wire_total_bytes(&self) -> u64 {
        WireLane::ALL.iter().map(|&l| self.wire_bytes(l)).sum()
    }

    /// Fraction of executor-slot wall time spent busy, in `[0, 1]`.
    /// An idle cluster (no slot activity yet) reports `0.0`, never NaN.
    pub fn executor_utilization(&self) -> f64 {
        let busy = self.exec_busy_ns();
        ratio(busy, busy + self.exec_idle_ns())
    }

    /// Mean messages absorbed per inbox burst (`0.0` before any burst).
    pub fn avg_msgs_per_burst(&self) -> f64 {
        ratio(self.ingest_msgs(), self.ingest_bursts())
    }

    /// Mean tasks shipped per scheduler→worker message (`0.0` when idle).
    pub fn avg_tasks_per_assign_message(&self) -> f64 {
        ratio(self.assign_tasks(), self.assign_messages())
    }
}

impl Counters<u64> {
    /// Overwrite one captured scalar (values that live outside
    /// [`SchedulerStats`], such as the trace recorder's drop count).
    pub(crate) fn set(&mut self, metric: Metric, value: u64) {
        self.cells[metric as usize] = value;
    }
}

/// Per-session (tenant) counters surfaced in `StatsSnapshot` and `/metrics`.
/// These live outside [`MsgClass`] so the paper's control/bridge message
/// accounting is never polluted by tenancy bookkeeping.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TenantCounters {
    /// Task specs submitted by this session (post-optimizer).
    pub tasks: u64,
    /// Result bytes produced by this session's tasks.
    pub bytes: u64,
    /// Tasks currently in flight (submitted, not yet terminal) — a gauge.
    pub queue_depth: u64,
    /// Graphs rejected by admission control.
    pub admission_rejections: u64,
}

/// Cluster-wide counters, shared via `Arc` by every actor. Reads go through
/// [`Counters`] (this type derefs to it); writes are one relaxed `fetch_add`
/// on a const-indexed cell.
#[derive(Debug, Default)]
pub struct SchedulerStats {
    counters: Counters<AtomicU64>,
    /// Indexed by [`Hist`].
    hists: [LatencyHist; 4],
    /// Per-tenant counters, keyed by session id. Touched only on the
    /// multi-tenant path (scoped messages), so single-tenant clusters never
    /// take this lock and their accounting stays identical to the seed.
    tenants: Mutex<HashMap<SessionId, TenantCounters>>,
}

impl std::ops::Deref for SchedulerStats {
    type Target = Counters<AtomicU64>;

    fn deref(&self) -> &Self::Target {
        &self.counters
    }
}

impl SchedulerStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        SchedulerStats::default()
    }

    #[inline]
    fn bump(&self, cell: usize, n: u64) {
        self.counters.cells[cell].fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to one scalar counter.
    #[inline]
    pub fn add(&self, metric: Metric, n: u64) {
        self.bump(metric as usize, n);
    }

    /// Add one to a scalar counter.
    #[inline]
    pub fn inc(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Record one message of `class` carrying `nbytes` payload.
    pub fn record(&self, class: MsgClass, nbytes: u64) {
        self.record_n(class, 1, nbytes);
    }

    /// Record `n` messages at once.
    pub fn record_n(&self, class: MsgClass, n: u64, nbytes: u64) {
        self.bump(CLASS_COUNTS + class as usize, n);
        self.bump(CLASS_BYTES + class as usize, nbytes);
    }

    /// Record one framed transport message of `bytes` serialized size.
    pub fn record_wire(&self, lane: WireLane, bytes: u64) {
        self.bump(WIRE_MSGS + lane as usize, 1);
        self.bump(WIRE_BYTES + lane as usize, bytes);
    }

    /// One latency histogram (record into it directly when no counter rides
    /// along, as for [`Hist::QueueDelay`]).
    pub fn hist(&self, hist: Hist) -> &LatencyHist {
        &self.hists[hist as usize]
    }

    /// All four, indexed by [`Hist`].
    pub fn hists(&self) -> &[LatencyHist; 4] {
        &self.hists
    }

    /// Record one dependency-gather batch: `deps` remote fetches resolved in
    /// `wait_ns` of wall time (concurrent fetches overlap inside one batch).
    pub fn record_gather(&self, deps: u64, wait_ns: u64) {
        self.inc(Metric::GatherBatches);
        self.add(Metric::GatherDeps, deps);
        self.add(Metric::GatherWaitNs, wait_ns);
        self.hist(Hist::GatherWait).record(wait_ns);
    }

    /// Record time an executor slot spent running a task.
    pub fn record_exec_busy(&self, ns: u64) {
        self.add(Metric::ExecBusyNs, ns);
        self.hist(Hist::Exec).record(ns);
    }

    /// Record one placement pass taking `ns` wall time.
    pub fn record_assign_pass(&self, ns: u64) {
        self.inc(Metric::AssignPasses);
        self.add(Metric::AssignPassNs, ns);
        self.hist(Hist::AssignPass).record(ns);
    }

    fn record_size(&self, hist: SizeHist, n: u64) {
        self.bump(SIZES + hist as usize * N_SIZE_BUCKETS + size_bucket(n), 1);
    }

    /// Record one scheduler inbox burst of `n` messages.
    pub fn record_burst(&self, n: u64) {
        self.inc(Metric::IngestBursts);
        self.add(Metric::IngestMsgs, n);
        self.record_size(SizeHist::Burst, n);
    }

    /// Fold one graph-optimizer report into the counters.
    pub fn record_optimize(&self, report: &OptimizeReport) {
        self.add(Metric::OptimizeTasksIn, report.tasks_in as u64);
        self.add(Metric::OptimizeTasksOut, report.tasks_out as u64);
        self.add(Metric::OptimizeCulled, report.culled as u64);
        self.add(Metric::FusedChains, report.fused_chain_lengths.len() as u64);
        for &len in &report.fused_chain_lengths {
            self.add(Metric::FusedStages, len as u64);
            self.record_size(SizeHist::FusedChain, len as u64);
        }
    }

    /// Update one tenant's counters under the tenant lock.
    pub fn with_tenant(&self, session: SessionId, update: impl FnOnce(&mut TenantCounters)) {
        update(self.tenants.lock().entry(session).or_default());
    }

    /// All tenant counters, sorted by session id (snapshot serialization).
    pub fn tenants(&self) -> Vec<(SessionId, TenantCounters)> {
        let mut v: Vec<_> = self
            .tenants
            .lock()
            .iter()
            .map(|(s, c)| (*s, c.clone()))
            .collect();
        v.sort_by_key(|(s, _)| *s);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::HistSnapshot;
    use std::collections::HashSet;

    /// Where a row's value sits in the JSON snapshot (labels in `<>`).
    fn json_path(def: &MetricDef) -> String {
        let section = def.section.name();
        match def.source {
            Source::PerClass(_) => format!("{section}.<class>.{}", def.key),
            Source::PerLane(_) => format!("{section}.lanes.<lane>.{}", def.key),
            Source::PerTenant(_) => format!("{section}.sessions.<session>.{}", def.key),
            _ => format!("{section}.{}", def.key),
        }
    }

    #[test]
    fn record_and_read() {
        let s = SchedulerStats::new();
        s.record(MsgClass::UpdateData, 100);
        s.record(MsgClass::UpdateData, 50);
        s.record_n(MsgClass::Heartbeat, 3, 0);
        assert_eq!(s.count(MsgClass::UpdateData), 2);
        assert_eq!(s.bytes(MsgClass::UpdateData), 150);
        assert_eq!(s.count(MsgClass::Heartbeat), 3);
        assert_eq!(s.count(MsgClass::ScatterData), 0);
        s.add(Metric::StoreSpillBytes, 512);
        s.inc(Metric::StoreSpills);
        s.inc(Metric::StoreSpills);
        assert_eq!(s.get(Metric::StoreSpillBytes), 512);
        assert_eq!(
            s.store_spills(),
            2,
            "the generated getter reads its own row"
        );
    }

    #[test]
    fn pipeline_counters_accumulate() {
        let s = SchedulerStats::new();
        assert_eq!(s.executor_utilization(), 0.0);
        s.record_gather(3, 1_000);
        s.record_gather(1, 500);
        s.record_exec_busy(300);
        s.add(Metric::ExecIdleNs, 100);
        assert_eq!(s.gather_batches(), 2);
        assert_eq!(s.gather_deps(), 4);
        assert_eq!(s.gather_wait_ns(), 1_500);
        assert_eq!(s.exec_busy_ns(), 300);
        assert_eq!(s.exec_idle_ns(), 100);
        assert!((s.executor_utilization() - 0.75).abs() < 1e-12);
        s.record_burst(6);
        s.record_burst(1);
        assert_eq!(s.avg_msgs_per_burst(), 3.5);
        assert_eq!(s.size_hist(SizeHist::Burst), [1, 0, 0, 1, 0, 0]);
    }

    #[test]
    fn huge_latency_lands_in_last_bucket() {
        let h = LatencyHist::default();
        h.record(u64::MAX);
        assert_eq!(h.buckets()[N_LAT_BUCKETS - 1], 1);
    }

    #[test]
    fn zero_denominator_ratios_are_zero_not_nan() {
        let s = SchedulerStats::new();
        for v in [
            s.executor_utilization(),
            s.avg_msgs_per_burst(),
            s.avg_tasks_per_assign_message(),
        ] {
            assert_eq!(v, 0.0, "idle-cluster ratio must be exactly 0.0");
        }
    }

    #[test]
    fn hists_track_their_recorders() {
        let s = SchedulerStats::new();
        s.record_gather(2, 5_000);
        s.record_exec_busy(10_000);
        s.hist(Hist::QueueDelay).record(700);
        s.record_assign_pass(300);
        for hist in s.hists() {
            assert_eq!(HistSnapshot::capture(hist).count, 1);
        }
        assert_eq!(s.hist(Hist::QueueDelay).sum_ns(), 700);
        assert_eq!(s.hist(Hist::AssignPass).sum_ns(), s.assign_pass_ns());
    }

    #[test]
    fn wire_lanes_accumulate_independently() {
        let s = SchedulerStats::new();
        assert_eq!(s.wire_total_messages(), 0);
        s.record_wire(WireLane::SchedIn, 64);
        s.record_wire(WireLane::SchedIn, 36);
        s.record_wire(WireLane::ReplyIn, 12);
        assert_eq!(s.wire_messages(WireLane::SchedIn), 2);
        assert_eq!(s.wire_bytes(WireLane::SchedIn), 100);
        assert_eq!(s.wire_messages(WireLane::ExecIn), 0);
        assert_eq!(s.wire_total_messages(), 3);
        assert_eq!(s.wire_total_bytes(), 112);
    }

    /// `ALL`, `name` and the index come from one list: every variant sits at
    /// its own index exactly once and no two share a name.
    #[test]
    fn named_enums_cover_every_variant_exactly_once() {
        fn check<E: Copy + PartialEq + std::fmt::Debug>(
            all: &[E],
            index: fn(E) -> usize,
            name: fn(E) -> &'static str,
        ) {
            for (i, &variant) in all.iter().enumerate() {
                assert_eq!(index(variant), i, "{variant:?}");
            }
            let names: HashSet<_> = all.iter().map(|&v| name(v)).collect();
            assert_eq!(names.len(), all.len());
        }
        check(&MsgClass::ALL, |c| c as usize, MsgClass::name);
        check(&WireLane::ALL, |l| l as usize, WireLane::name);
        check(&Section::ALL, |s| s as usize, Section::name);
        assert_eq!(MsgClass::COUNT, 15);
        assert_eq!(WireLane::COUNT, 5);
    }

    /// Every scalar row and every tenant counter lives outside `MsgClass`:
    /// the paper's control and bridge-metadata accounting must stay
    /// byte-identical to the seed whichever feature bumps them.
    #[test]
    fn scalar_and_tenant_counters_stay_out_of_the_papers_accounting() {
        let s = SchedulerStats::new();
        for def in METRICS {
            if let Source::Scalar(metric) = def.source {
                s.add(metric, 7);
                assert_eq!(s.get(metric), 7, "{}", def.id);
            }
        }
        s.with_tenant(2, |t| t.tasks += 5);
        assert_eq!(s.scheduler_control_messages(), 0);
        assert_eq!(s.bridge_metadata_messages(), 0);
    }

    #[test]
    fn tenant_counters_accumulate_sorted_by_session() {
        let s = SchedulerStats::new();
        assert!(s.tenants().is_empty());
        s.with_tenant(2, |t| t.tasks += 5);
        s.with_tenant(1, |t| t.tasks += 3);
        s.with_tenant(2, |t| {
            t.bytes += 4096;
            t.queue_depth = 7;
            t.admission_rejections += 1;
        });
        let tenants = s.tenants();
        assert_eq!(tenants.len(), 2);
        assert_eq!((tenants[0].0, tenants[0].1.tasks), (1, 3), "sorted by id");
        let t2 = &tenants[1].1;
        assert_eq!(
            (t2.tasks, t2.bytes, t2.queue_depth, t2.admission_rejections),
            (5, 4096, 7, 1)
        );
    }

    #[test]
    fn worker_heartbeats_stay_out_of_bridge_metadata() {
        let s = SchedulerStats::new();
        s.record(MsgClass::WorkerHeartbeat, 0);
        assert_eq!(s.bridge_metadata_messages(), 0);
        assert_eq!(s.scheduler_control_messages(), 1);
    }

    #[test]
    fn control_plane_totals_exclude_data_plane() {
        let s = SchedulerStats::new();
        s.record(MsgClass::GraphSubmit, 0);
        s.record(MsgClass::TaskSubmitted, 0);
        s.record(MsgClass::ScatterData, 1 << 20);
        s.record(MsgClass::GatherData, 1 << 20);
        s.record(MsgClass::PeerFetch, 1 << 20);
        assert_eq!(s.scheduler_control_messages(), 1);
        assert_eq!(s.bridge_metadata_messages(), 0);
    }

    /// DESIGN.md's metric reference table is the registry, row for row, so a
    /// metric cannot be added, renamed or dropped without its documentation.
    #[test]
    fn design_md_metric_reference_matches_the_registry() {
        let expected: Vec<String> = METRICS
            .iter()
            .map(|def| {
                let family = def.family.map_or("—".to_string(), |f| format!("`{f}`"));
                let (path, kind, unit) = (json_path(def), def.kind.name(), def.unit.name());
                format!("| {family} | `{path}` | {kind} | {unit} | {} |", def.help)
            })
            .collect();
        let design = include_str!("../../../DESIGN.md");
        let documented: Vec<&str> = design
            .lines()
            .skip_while(|l| *l != "| Family | JSON path | Kind | Unit | Help |")
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .collect();
        assert!(
            documented == expected,
            "DESIGN.md section 9 metric reference is stale; it should read:\n{}",
            expected.join("\n")
        );
    }

    /// The registry is well-formed: identifiers, JSON paths and families are
    /// unique, counters follow the `_total` convention, every row is
    /// documented, and every `Metric` variant has exactly one row.
    #[test]
    fn registry_rows_are_unique_and_well_formed() {
        let mut ids = HashSet::new();
        let mut paths = HashSet::new();
        let mut families = HashSet::new();
        let mut scalars = HashSet::new();
        for def in METRICS {
            assert!(ids.insert(def.id), "duplicate id {}", def.id);
            let path = json_path(def);
            assert!(paths.insert(path.clone()), "duplicate JSON path {path}");
            assert!(
                !def.help.is_empty() && !def.help.contains('\n'),
                "{}",
                def.id
            );
            if let Some(family) = def.family {
                assert!(families.insert(family), "duplicate family {family}");
                assert!(family.starts_with("dtask_"), "{family}");
                assert_eq!(
                    family.ends_with("_total"),
                    def.kind == Kind::Counter,
                    "counter families, and only they, end in _total: {family}"
                );
            }
            if let Source::Scalar(metric) = def.source {
                assert!(scalars.insert(metric as usize), "{} has two rows", def.id);
                // Every scalar renders in both documents, bar a histogram's sum.
                assert!(def.family.is_some() || def.help.contains("the _sum of"));
            }
        }
        assert_eq!(scalars.len(), Metric::COUNT);
    }
}
