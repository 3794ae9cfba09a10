//! `dtask` — a distributed task framework in the mould of Dask distributed.
//!
//! The paper extends the *Dask distributed* scheduler. To reproduce that
//! extension faithfully we first need the thing being extended, so this crate
//! implements a complete (single-process, multi-threaded) distributed task
//! framework with the same three actors and the same protocol structure:
//!
//! * **Client** ([`client::Client`]) — builds task graphs out of
//!   [`spec::TaskSpec`]s and submits them; gets [`client::DFuture`]s back;
//!   can [`client::Client::scatter`] out-of-band data to workers; talks to
//!   the scheduler for [`client::Variable`]s and [`client::DQueue`]s.
//! * **Scheduler** ([`scheduler`]) — a single thread owning the task-state
//!   machine (`Waiting → Ready → Processing → Memory | Erred`, plus the
//!   DEISA `External` state, see below), worker/client bookkeeping, data
//!   placement (`who_has`), variables, queues, and heartbeat tracking.
//! * **Workers** ([`worker`]) — execute tasks, store results in their local
//!   memory, fetch dependencies from peer workers, and serve data to clients.
//!
//! Tasks are described by an op-code IR ([`spec::TaskSpec`]: op name +
//! parameters + dependency keys) resolved against an [`spec::OpRegistry`]
//! shared by every worker — the moral equivalent of every Dask worker being
//! able to unpickle the same functions.
//!
//! ## External tasks (the paper's §2.2, implemented here)
//!
//! The paper's core contribution is a new **external** task state inside the
//! scheduler: a task that is *not schedulable nor runnable by Dask* — its
//! result is produced by an external environment (the MPI simulation) and
//! pushed to a worker later. This crate implements that state natively:
//!
//! * [`client::Client::register_external`] creates a future with a caller-
//!   chosen key and puts the scheduler-side task in `External` state;
//! * task graphs may depend on external keys **before any data exists**;
//! * [`client::Client::scatter_external`] (the extended `scatter` with
//!   `keys=`/`external=` of §2.2) pushes a block to a chosen worker and the
//!   scheduler then handles it *exactly like a finished task*: it updates
//!   `who_has` and runs the normal transition cascade, unblocking dependents.
//!
//! The `deisa-core` crate builds bridges/adaptor/contracts on these
//! primitives. Every message to the scheduler is counted by class in
//! [`stats::SchedulerStats`], which is how the integration tests verify the
//! paper's metadata-message formulas.

#![forbid(unsafe_code)]

pub mod client;
pub mod cluster;
pub mod datum;
pub mod json;
pub mod key;
pub mod msg;
pub mod net;
pub mod node;
pub mod optimize;
pub mod policy;
pub mod scheduler;
pub mod snapshot;
pub mod spec;
pub mod stats;
pub mod store;
pub mod telemetry;
mod threads;
pub mod trace;
pub mod transport;
pub mod wire;
pub mod worker;

pub use client::{Client, DFuture, DQueue, SubmitError, Variable, WaitError};
pub use cluster::{
    Cluster, ClusterConfig, DeployConfig, FaultConfig, HeartbeatInterval, TenancyConfig,
};
pub use datum::{Datum, DatumRef};
pub use json::Json;
pub use key::{Key, SessionId, DEFAULT_SESSION};
pub use msg::{ErrorCause, TaskError};
pub use net::{Frame, FrameReader, FRAME_HEADER_BYTES, MAX_FRAME_BYTES, PREAMBLE_BYTES};
pub use node::{run_node, NodeConfig, NodeReport};
pub use optimize::{optimize, OptimizeConfig, OptimizeReport};
pub use policy::{PolicyConfig, PolicyKind, SchedulingPolicy, WorkerState};
pub use scheduler::LivenessConfig;
pub use snapshot::{HistSnapshot, StatsSnapshot};
pub use spec::{OpRegistry, TaskSpec};
pub use stats::{
    Hist, LatencyHist, Metric, MetricDef, MsgClass, SchedulerStats, WireLane, METRICS,
};
pub use store::{ObjectStore, StoreConfig};
pub use telemetry::{Alert, AlertKind, FlightSample, TelemetryConfig, TelemetryHub};
pub use trace::{
    EventKind, PhaseReport, TraceActor, TraceConfig, TraceEvent, TraceHandle, TraceLog,
    TraceRecorder,
};
pub use transport::{
    Addr, DataReply, Endpoint, FaultPlan, LaneDrop, ReplyRx, ReplyTo, TransportConfig,
};
pub use wire::{NodeMsg, NodeWelcome, WireError, WIRE_VERSION};
