//! Cartesian process topology for domain decomposition.
//!
//! Mirrors `MPI_Cart_create` / `MPI_Cart_shift`: ranks are laid out row-major
//! over an n-dimensional grid; [`CartComm::shift`] gives the neighbour ranks
//! used for ghost exchange in the Heat2D miniapp.

use crate::comm::Comm;

/// A Cartesian view over a [`Comm`].
pub struct CartComm<'a> {
    comm: &'a Comm,
    dims: Vec<usize>,
    periodic: Vec<bool>,
}

impl<'a> CartComm<'a> {
    /// Build a Cartesian topology; `dims` must multiply to the world size.
    pub fn new(comm: &'a Comm, dims: &[usize], periodic: &[bool]) -> Result<Self, String> {
        let total: usize = dims.iter().product();
        if total != comm.size() {
            return Err(format!(
                "cart dims {:?} product {} != world size {}",
                dims,
                total,
                comm.size()
            ));
        }
        if periodic.len() != dims.len() {
            return Err("periodic length must match dims length".into());
        }
        Ok(CartComm {
            comm,
            dims: dims.to_vec(),
            periodic: periodic.to_vec(),
        })
    }

    /// The underlying communicator.
    pub fn comm(&self) -> &Comm {
        self.comm
    }

    /// Grid extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// This rank's coordinates in the grid (row-major).
    pub fn coords(&self) -> Vec<usize> {
        self.coords_of(self.comm.rank())
    }

    /// Coordinates of an arbitrary rank.
    pub fn coords_of(&self, rank: usize) -> Vec<usize> {
        let mut rest = rank;
        let mut coords = vec![0usize; self.dims.len()];
        for d in (0..self.dims.len()).rev() {
            coords[d] = rest % self.dims[d];
            rest /= self.dims[d];
        }
        coords
    }

    /// Rank of a coordinate tuple.
    pub fn rank_of(&self, coords: &[usize]) -> usize {
        let mut rank = 0usize;
        for (dim, c) in self.dims.iter().zip(coords) {
            rank = rank * dim + c;
        }
        rank
    }

    /// Neighbour in dimension `dim` at offset `disp` (±1 usually); `None` at a
    /// non-periodic boundary, like `MPI_PROC_NULL`.
    pub fn shift(&self, dim: usize, disp: isize) -> Option<usize> {
        let mut coords = self.coords();
        let extent = self.dims[dim] as isize;
        let c = coords[dim] as isize + disp;
        let c = if self.periodic[dim] {
            c.rem_euclid(extent)
        } else {
            if c < 0 || c >= extent {
                return None;
            }
            c
        };
        coords[dim] = c as usize;
        Some(self.rank_of(&coords))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Tag;
    use crate::world::World;

    #[test]
    fn coords_roundtrip() {
        World::run(6, |comm| {
            let cart = CartComm::new(comm, &[2, 3], &[false, false]).unwrap();
            let coords = cart.coords();
            assert_eq!(cart.rank_of(&coords), comm.rank());
        })
        .unwrap();
    }

    #[test]
    fn bad_dims_rejected() {
        World::run(4, |comm| {
            assert!(CartComm::new(comm, &[3, 2], &[false, false]).is_err());
            assert!(CartComm::new(comm, &[2, 2], &[false]).is_err());
        })
        .unwrap();
    }

    #[test]
    fn shift_non_periodic_boundaries() {
        World::run(4, |comm| {
            let cart = CartComm::new(comm, &[2, 2], &[false, false]).unwrap();
            let coords = cart.coords();
            let up = cart.shift(0, -1);
            if coords[0] == 0 {
                assert_eq!(up, None);
            } else {
                assert_eq!(up, Some(cart.rank_of(&[coords[0] - 1, coords[1]])));
            }
        })
        .unwrap();
    }

    #[test]
    fn shift_periodic_wraps() {
        World::run(3, |comm| {
            let cart = CartComm::new(comm, &[3], &[true]).unwrap();
            let left = cart.shift(0, -1).unwrap();
            assert_eq!(left, (comm.rank() + 2) % 3);
            let right2 = cart.shift(0, 2).unwrap();
            assert_eq!(right2, (comm.rank() + 2) % 3);
        })
        .unwrap();
    }

    #[test]
    fn ghost_exchange_pattern() {
        // Each rank sends its rank id to the right neighbour and receives from
        // the left in a 1x4 grid.
        let results = World::run(4, |comm| {
            let cart = CartComm::new(comm, &[1, 4], &[false, false]).unwrap();
            if let Some(right) = cart.shift(1, 1) {
                comm.send(right, Tag(11), comm.rank()).unwrap();
            }
            if let Some(left) = cart.shift(1, -1) {
                comm.recv::<usize>(left, Tag(11)).unwrap() as isize
            } else {
                -1
            }
        })
        .unwrap();
        assert_eq!(results, vec![-1, 0, 1, 2]);
    }
}
