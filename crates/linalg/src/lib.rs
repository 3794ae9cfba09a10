//! Dense linear algebra built from scratch for the DEISA reproduction.
//!
//! The analytics side of the paper (incremental PCA, randomized SVD) needs a
//! small but real linear-algebra stack. This crate provides:
//!
//! * [`NDArray`] — a row-major dense n-dimensional array of `f64`,
//! * [`Matrix`] — a 2-D specialization with blocked `matmul`,
//! * Householder [`qr`] and the communication-avoiding tall-skinny [`qr::tsqr`],
//! * one-sided Jacobi [`svd`] on the rows of a column-pivoted `R` that stops
//!   at the numerical rank, forming `U` only for the callers that keep it,
//! * [`rsvd`] — the randomized SVD used by `svd_solver='randomized'` in the
//!   paper's Listing 2,
//! * axis [`stats`] (mean / variance) used by the IPCA update.
//!
//! Everything is deterministic given a seed; no external BLAS.

#![forbid(unsafe_code)]

pub mod matrix;
pub mod ndarray;
pub mod qr;
pub mod rsvd;
pub mod stats;
pub mod svd;

pub use matrix::{Matrix, MatrixView};
pub use ndarray::NDArray;
pub use qr::{householder_qr, householder_r, tsqr};
pub use rsvd::randomized_svd;
pub use svd::{jacobi_svd, jacobi_svd_top, jacobi_svd_vt, Svd};

/// Error type for shape/argument mismatches in linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        what: String,
    },
    /// An argument was out of the valid domain (e.g. `k` larger than `min(m,n)`).
    InvalidArgument {
        /// Human-readable description of the bad argument.
        what: String,
    },
    /// The Jacobi SVD still rotated columns after its last allowed sweep
    /// (e.g. on NaN input).
    NoConvergence {
        /// Sweeps run.
        sweeps: usize,
        /// Largest `|a_pᵀa_q| / (‖a_p‖‖a_q‖)` seen in the last sweep.
        off: f64,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
            LinalgError::InvalidArgument { what } => write!(f, "invalid argument: {what}"),
            LinalgError::NoConvergence { sweeps, off } => write!(
                f,
                "Jacobi SVD did not converge in {sweeps} sweeps (largest column cosine {off:e})"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
