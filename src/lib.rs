//! Umbrella crate for the DEISA reproduction.
//!
//! Re-exports the public API of every crate in the workspace so examples and
//! integration tests can `use deisa_repro::…`. See `README.md` for the tour
//! and `DESIGN.md` for the system inventory.
//!
//! The paper's core mechanism in one doctest — an analytics graph submitted
//! over **external tasks** before the producer has made any data:
//!
//! ```
//! use deisa_repro::darray::{self, ChunkGrid, DArray, Graph};
//! use deisa_repro::dtask::{Cluster, Datum, Key};
//! use deisa_repro::linalg::NDArray;
//!
//! let cluster = Cluster::new(2);
//! darray::register_array_ops(cluster.registry());
//! let client = cluster.client();
//!
//! // Two external blocks — the "simulation" owns their production.
//! let keys = vec![Key::new("b0"), Key::new("b1")];
//! client.register_external(keys.clone());
//!
//! // Analytics graph over data that does not exist yet.
//! let grid = ChunkGrid::regular(&[2, 4], &[1, 4]).unwrap();
//! let field = DArray::from_keys(grid, keys.clone()).unwrap();
//! let mut graph = Graph::new("doc");
//! let total = field.sum_all(&mut graph);
//! graph.submit(&client);
//!
//! // The external environment pushes blocks afterwards...
//! let producer = cluster.client();
//! producer.scatter_external(vec![(keys[0].clone(), Datum::from(NDArray::full(&[1, 4], 1.0)))], None);
//! producer.scatter_external(vec![(keys[1].clone(), Datum::from(NDArray::full(&[1, 4], 2.0)))], None);
//!
//! // ...and the pre-submitted graph completes.
//! assert_eq!(client.future(total).result().unwrap().as_f64(), Some(12.0));
//! ```

#![forbid(unsafe_code)]

pub use darray;
pub use deisa_core as deisa;
pub use dml;
pub use dtask;
pub use h5lite;
pub use heat2d;
pub use insitu_sim;
pub use linalg;
pub use mpisim;
pub use netsim;
pub use pdi;
