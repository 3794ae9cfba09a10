//! `heat2d` — the Heat2D miniapp used in the paper's evaluation.
//!
//! An explicit 5-point-stencil solver for the 2-D heat equation, domain-
//! decomposed over `mpisim` ranks with ghost exchange, instrumented through
//! PDI: each iteration the rank exposes its timestep and local field; what
//! happens next is decided by the configured plugin —
//!
//! * the **deisa plugin** (`deisa-core`) ships blocks in transit, or
//! * the [`posthoc::PostHocPlugin`] writes `h5lite` chunks (the paper's
//!   HDF5-to-Lustre baseline), or
//! * nothing (pure simulation, for the weak/strong-scaling `Simulation`
//!   series of Figs. 2–4).
//!
//! Boundary condition: insulated (zero-flux Neumann), so total heat is
//! conserved — handy for validation.

#![forbid(unsafe_code)]

pub mod config;
pub mod posthoc;
pub mod solver;

pub use config::HeatConfig;
pub use posthoc::PostHocPlugin;
pub use solver::{run_rank, LocalSolver};
