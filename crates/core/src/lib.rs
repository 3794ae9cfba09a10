//! `deisa-core` — the paper's contribution: DEISA with external tasks.
//!
//! DEISA bridges an MPI+X simulation (producer) to a Dask-style distributed
//! task framework (consumer). This crate implements the SC-W 2023 version
//! ("Dask-Extended External Tasks for HPC/ML In Transit Workflows"), built on
//! the external-task support in `dtask`:
//!
//! * [`naming`] — the key scheme of §2.4.1:
//!   `(deisa-<name>, (t, i, j, …))` — field name plus spatiotemporal block
//!   position, time first;
//! * [`varray`] — **deisa virtual arrays** (§2.4.2): descriptors of the
//!   global spatiotemporal decomposition (sizes, subsizes, starts, timedim),
//!   used only for configuration — one external task per MPI block per
//!   timestep;
//! * [`contract`] — **contracts** (§2.4.3): the analytics' data selection,
//!   shipped back to the bridges so only needed blocks are ever sent;
//! * [`bridge`] — the per-MPI-rank bridge: sign the contract at startup (two
//!   distributed Variables, `1 + nbr_ranks` control messages), then per
//!   timestep check the contract locally and push needed blocks straight to
//!   their preselected worker with the extended `scatter(keys=…,
//!   external=true)`;
//! * [`adaptor`] — the analytics-side adaptor: receive descriptors, expose
//!   Dask arrays over *external task keys*, validate contracts, and let the
//!   whole multi-timestep analytics graph be submitted before the simulation
//!   produces anything;
//! * [`deisa1`] — the HiPC'21 protocol (the paper's DEISA1 baseline):
//!   per-timestep classic scatter + per-rank metadata Queues + 5 s
//!   heartbeats, with per-step graph submission;
//! * [`plugin`] — the PDI plugin of §2.3: reads the YAML config (Listing 1),
//!   evaluates `$`-expressions against exposed metadata, owns the bridge;
//! * [`schedinfo`] — the `scheduler.json`-style discovery file.
//!
//! The version axis of the evaluation is captured by [`DeisaVersion`].

#![forbid(unsafe_code)]

pub mod adaptor;
pub mod bridge;
pub mod contract;
pub mod deisa1;
pub mod naming;
pub mod plugin;
pub mod schedinfo;
pub mod varray;

pub use adaptor::{Adaptor, DeisaArrays};
pub use bridge::Bridge;
pub use contract::{Contract, Selection};
pub use naming::block_key;
pub use varray::VirtualArray;

use dtask::HeartbeatInterval;
use std::time::Duration;

/// The three systems compared in the paper's evaluation (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeisaVersion {
    /// HiPC'21 prototype: per-timestep scatter + queues, 5 s heartbeats.
    Deisa1,
    /// This paper's system with a 60 s heartbeat interval.
    Deisa2,
    /// This paper's system with heartbeats disabled (∞).
    Deisa3,
}

impl DeisaVersion {
    /// The bridge heartbeat interval this version uses.
    pub fn heartbeat(self) -> HeartbeatInterval {
        match self {
            DeisaVersion::Deisa1 => HeartbeatInterval::Every(Duration::from_secs(5)),
            DeisaVersion::Deisa2 => HeartbeatInterval::Every(Duration::from_secs(60)),
            DeisaVersion::Deisa3 => HeartbeatInterval::Infinite,
        }
    }

    /// Whether this version uses the external-task protocol (DEISA2/3) or the
    /// legacy per-timestep protocol (DEISA1).
    pub fn uses_external_tasks(self) -> bool {
        !matches!(self, DeisaVersion::Deisa1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_properties() {
        assert!(!DeisaVersion::Deisa1.uses_external_tasks());
        assert!(DeisaVersion::Deisa2.uses_external_tasks());
        assert!(DeisaVersion::Deisa3.uses_external_tasks());
        assert_eq!(
            DeisaVersion::Deisa3.heartbeat(),
            HeartbeatInterval::Infinite
        );
        assert_eq!(
            DeisaVersion::Deisa1.heartbeat(),
            HeartbeatInterval::Every(Duration::from_secs(5))
        );
    }
}
