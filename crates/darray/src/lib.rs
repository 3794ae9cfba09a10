//! `darray` — distributed chunked n-dimensional arrays over `dtask`.
//!
//! This is the reproduction's `dask.array`: an n-D array cut into chunks,
//! each chunk one task key in the cluster. Operations build task graphs
//! lazily into a [`graph::Graph`]; nothing runs until the graph is submitted
//! — which is exactly the property the paper's *new IPCA* exploits ("we
//! create the graph of the `partial_fit` for all iterations and submit a
//! single task graph to Dask", §3.3.1).
//!
//! * [`array::DArray`] — shape + per-dimension chunk sizes + key grid;
//!   `map_blocks`, `zip_blocks`, `slice`, `rechunk`, `sum_all`, `fetch`,
//! * [`graph::Graph`] — lazy task-spec accumulator with key generation,
//! * [`ops`] — the block-level kernels registered into a cluster's
//!   [`dtask::OpRegistry`],
//! * [`dims`] — xarray-style labeled dimensions and the stacking logic the
//!   multidimensional IPCA interface uses (`fit(gt, ["t","X","Y"], …)`).
//!
//! A `DArray` can also be built over **external task keys** (blocks produced
//! by a simulation, registered but not yet materialized) — that is the DEISA
//! virtual-array path; see `deisa-core`.

#![forbid(unsafe_code)]

pub mod array;
pub mod dims;
pub mod graph;
pub mod ops;
pub mod reductions;

pub use array::{ChunkGrid, DArray, DArrayError};
pub use dims::LabeledArray;
pub use graph::Graph;
pub use ops::register_array_ops;
pub use reductions::Reduce;
