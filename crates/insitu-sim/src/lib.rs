//! `insitu-sim` — DES models of the paper's four workflow configurations.
//!
//! The real runtime (`dtask` + `deisa-core` + `heat2d`) executes the
//! protocols with real data at laptop scale; this crate runs them at paper
//! scale (up to 128 ranks × 1 GiB per process) on the `netsim`
//! discrete-event simulator to regenerate the evaluation figures. The
//! scheduler is not modelled but stepped: both simulators feed real
//! `SchedMsg`s to `dtask`'s scheduler core under a virtual clock, and
//! integration tests assert the core's per-class counts
//! (`dtask::SchedulerStats`) against the runtime's formulas.
//!
//! Modules:
//! * [`cost`] — the calibrated cost model (NIC/PFS bandwidths, scheduler
//!   service times, compute rates) with the rationale for each constant,
//! * [`scenario`] — workload + placement description (which node each actor
//!   occupies in the pruned fat tree; the seed moves the allocation's switch
//!   boundary, reproducing §3.3.2's placement variability),
//! * [`simside`] — the producer-side DES: compute, ghost-sync lockstep,
//!   scatter data, control messages queued for and stepped through the
//!   scheduler core, heartbeats, PFS writes,
//! * [`analytics`] — the consumer-side timelines: in-transit IPCA (old and
//!   new) chained on data arrival, post-hoc IPCA chained on PFS reads,
//! * [`figures`] — one function per paper figure, returning plot-ready
//!   series,
//! * [`schedlab`] — the scheduling-policy lab: `dtask`'s own scheduler
//!   core and policies on one virtual cluster of `dtask`'s own worker cores
//!   and object stores (`vcore`), at 100–1000 workers and 1e5–1e6 tasks.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod analytics;
pub mod cost;
pub mod figures;
pub mod scenario;
pub mod schedlab;
pub mod simside;
pub mod stats_util;
mod vcore;

pub use ablations::all_ablations;
pub use cost::CostModel;
pub use figures::{Figure, Series};
pub use scenario::{Mode, Scenario};
pub use simside::{run_sim_side, SimSideOut};
