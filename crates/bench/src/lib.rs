//! `deisa-bench` — benchmark harnesses and the figure regenerator.
//!
//! Two kinds of measurement, matching DESIGN.md §2:
//!
//! * **Real-mode Criterion benches** (`benches/`): wall-clock measurements of
//!   the actual runtime at laptop scale — old-vs-new IPCA — plus the cost
//!   of regenerating a DES run. Scheduler throughput, the full pipeline
//!   and the IPCA kernel (`dml.partial_fit_ms`, `linalg.gflops`) are
//!   refereed by `dtask-bench` (`task_storm`, `insitu_ipca`), not here.
//! * **The `figures` binary** (`src/bin/figures.rs`): regenerates every
//!   figure of the paper's evaluation (Figs. 2a–5) from the DES models in
//!   `insitu-sim` at full paper scale, printing CSV series.
//!
//! This library provides the helper the benches share.

use dtask::Cluster;

/// Build a cluster with all workload ops registered (array + ML kernels).
pub fn cluster_with_ops(n_workers: usize) -> Cluster {
    let cluster = Cluster::new(n_workers);
    darray::register_array_ops(cluster.registry());
    dml::register_ml_ops(cluster.registry());
    cluster
}
