//! `mpisim` — a threaded SPMD runtime with an MPI-flavoured API.
//!
//! The paper couples an **MPI+X** Heat2D miniapp to Dask. We have no MPI, so
//! this crate provides the substrate the miniapp uses: a [`World`] launches
//! `n` ranks as threads, each holding a [`Comm`] with tagged point-to-point
//! [`Comm::send`]/[`Comm::recv`], and a Cartesian topology helper
//! ([`cart::CartComm`]) for 2-D domain decomposition with ghost exchange.
//! The miniapp needs no collective.
//!
//! Messages are typed (`Box<dyn Any>` under the hood) and matched on
//! `(source, tag)` with out-of-order buffering, like MPI's unexpected-message
//! queue.

#![forbid(unsafe_code)]

pub mod cart;
pub mod comm;
pub mod world;

pub use cart::CartComm;
pub use comm::{Comm, RecvError, SendError, Tag};
pub use world::{World, WorldError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_runs_all_ranks_and_collects_results() {
        let results = World::run(4, |comm| comm.rank() * 10).unwrap();
        assert_eq!(results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn ring_send_recv() {
        let results = World::run(5, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, Tag(7), comm.rank()).unwrap();
            let got: usize = comm.recv(prev, Tag(7)).unwrap();
            got
        })
        .unwrap();
        assert_eq!(results, vec![4, 0, 1, 2, 3]);
    }
}
