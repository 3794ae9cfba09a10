//! `dml` — machine-learning algorithms over `darray` (the dask-ml stand-in).
//!
//! The paper's analytics workload is dimensionality reduction with
//! **incremental PCA** (dask-ml's `IncrementalPCA`, extended by the authors
//! into a multidimensional, whole-graph version — their fork is cited as
//! `github.com/GueroudjiAmal/dask-ml`). This crate reproduces that stack:
//!
//! * [`pca`] — exact reference PCA (center + SVD) on local matrices,
//! * [`ipca`] — scikit-learn's `IncrementalPCA.partial_fit` algorithm
//!   (incremental mean/variance + augmented SVD), local, both `Full` and
//!   `Randomized` solvers,
//! * [`dipca`] — the distributed versions:
//!   [`dipca::InSituIncrementalPCA`] mirrors the paper's Listing 2 interface
//!   (`fit(gt, ["t","X","Y"], ["X"], ["Y"])`) and supports the two execution
//!   styles the evaluation compares:
//!   - **old IPCA** ([`dipca::InSituIncrementalPCA::fit_stepwise`]): one
//!     `partial_fit` graph submitted and awaited per batch,
//!   - **new IPCA** ([`dipca::InSituIncrementalPCA::fit`]): the `partial_fit`
//!     chain for *all* timesteps built ahead of time and submitted as a
//!     single graph — which is what external tasks make possible in transit.

#![forbid(unsafe_code)]

pub mod dipca;
pub mod dpca;
pub mod ipca;
pub mod pca;

pub use dipca::{register_ml_ops, FittedIpca, InSituIncrementalPCA};
pub use dpca::{DPcaModel, DistributedPca};
pub use ipca::{IncrementalPca, SvdSolver};
pub use pca::Pca;
