//! `netsim` — a deterministic discrete-event simulator with an HPC network
//! model.
//!
//! The paper's evaluation ran on Irene: up to 128 MPI processes × 1 GiB
//! blocks over EDR InfiniBand in a *pruned fat-tree*, against a Lustre PFS,
//! with a single centralized Dask scheduler. We cannot run that on this
//! machine, so the figure harnesses replay the DEISA protocols on a DES:
//!
//! * [`engine::Engine`] — a virtual-clock event queue (u64 nanoseconds,
//!   deterministic tie-breaking, no wall-clock reads),
//! * [`resources::FifoServer`] — single-server FIFO queueing stations
//!   (scheduler CPU, worker executors, NICs, PFS),
//! * [`network::Network`] — a two-level pruned fat-tree: per-node NICs,
//!   per-leaf-switch uplinks with a pruning factor, hop-based latency.
//!
//! The *workloads* (DEISA1/2/3 and post hoc) live in the `insitu-sim` crate;
//! their message schedules are the ones the real `dtask` runtime emits (the
//! integration tests assert the counts match).

#![forbid(unsafe_code)]

pub mod engine;
pub mod network;
pub mod resources;
pub mod sizing;

pub use engine::{Engine, SimTime};
pub use network::{Network, NetworkConfig};
pub use resources::FifoServer;

/// Nanoseconds per second, for readable cost constants.
pub const SEC: SimTime = 1_000_000_000;
/// Nanoseconds per millisecond.
pub const MS: SimTime = 1_000_000;
/// Nanoseconds per microsecond.
pub const US: SimTime = 1_000;

/// Duration (ns) of moving `bytes` at `bytes_per_sec`.
pub fn transfer_ns(bytes: u64, bytes_per_sec: u64) -> SimTime {
    if bytes_per_sec == 0 {
        return 0;
    }
    // bytes * 1e9 / bw, in u128 to avoid overflow on GiB × 1e9.
    ((bytes as u128 * SEC as u128) / bytes_per_sec as u128) as SimTime
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_math() {
        assert_eq!(transfer_ns(1_000_000_000, 1_000_000_000), SEC);
        assert_eq!(transfer_ns(500, 1000), SEC / 2);
        assert_eq!(transfer_ns(0, 1000), 0);
        assert_eq!(transfer_ns(1000, 0), 0);
        // 1 GiB at 12.5 GB/s (100 Gb/s EDR) ≈ 85.9 ms.
        let t = transfer_ns(1 << 30, 12_500_000_000);
        assert!((t as i64 - 85_899_345).abs() < 10);
    }
}
