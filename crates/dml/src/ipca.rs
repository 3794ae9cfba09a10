//! Incremental PCA (scikit-learn's `partial_fit` algorithm).
//!
//! Memory is constant in the number of batches: the state is `(count, mean,
//! var, k components, k singular values)`. Each `partial_fit` builds the
//! augmented matrix
//!
//! ```text
//! A = [ diag(S) · V   ]   k rows      (previous spectrum)
//!     [ X - batch_mean ]  n rows      (centered new batch)
//!     [ mean_correction ] 1 row       (running-mean drift)
//! ```
//!
//! and keeps the top-`k` SVD of `A`. This is exactly what the paper runs in
//! situ — the property that matters there is that each batch is *one more
//! task* in a chain, which external tasks let Dask schedule ahead of time.

use crate::pca::sign_flip_rows;
use linalg::stats::{center_columns_view, col_mean_view, col_var_view, RunningStats};
use linalg::{jacobi_svd_top, randomized_svd, LinalgError, Matrix, MatrixView};

/// Which SVD backs `partial_fit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvdSolver {
    /// Exact one-sided Jacobi SVD.
    Full,
    /// Randomized SVD (the paper's Listing 2 passes
    /// `svd_solver='randomized'`); deterministic per seed.
    Randomized {
        /// PRNG seed for the range finder.
        seed: u64,
    },
}

/// Incremental PCA state.
#[derive(Debug, Clone)]
pub struct IncrementalPca {
    /// Requested number of components.
    pub n_components: usize,
    /// SVD backend.
    pub solver: SvdSolver,
    /// Samples consumed so far.
    pub n_samples_seen: u64,
    /// Running per-feature mean.
    pub mean: Vec<f64>,
    /// Running per-feature variance.
    pub var: Vec<f64>,
    /// Principal axes (k × features); empty before the first batch.
    pub components: Matrix,
    /// Singular values (length k).
    pub singular_values: Vec<f64>,
    /// Variance explained per component.
    pub explained_variance: Vec<f64>,
    /// Fraction of total variance per component.
    pub explained_variance_ratio: Vec<f64>,
}

impl IncrementalPca {
    /// Fresh model.
    pub fn new(n_components: usize, solver: SvdSolver) -> Self {
        IncrementalPca {
            n_components,
            solver,
            n_samples_seen: 0,
            mean: Vec::new(),
            var: Vec::new(),
            components: Matrix::zeros(0, 0),
            singular_values: Vec::new(),
            explained_variance: Vec::new(),
            explained_variance_ratio: Vec::new(),
        }
    }

    /// The top `k` singular values and right singular vectors (`k×F`) of `a`.
    fn svd(&self, a: &Matrix, k: usize) -> Result<(Vec<f64>, Matrix), LinalgError> {
        match self.solver {
            SvdSolver::Full => jacobi_svd_top(a, k),
            SvdSolver::Randomized { seed } => {
                // Derive a fresh seed per call so successive batches use
                // different projections, deterministically.
                let call_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(self.n_samples_seen);
                let svd = randomized_svd(a, k, 10, 4, call_seed)?;
                Ok((svd.s, svd.vt))
            }
        }
    }

    /// Consume one batch (samples × features).
    pub fn partial_fit(&mut self, x: &Matrix) -> Result<(), LinalgError> {
        self.partial_fit_view(x.as_view())
    }

    /// [`IncrementalPca::partial_fit`] over a borrowed [`MatrixView`] —
    /// lets callers holding shared buffers (e.g. `Arc<NDArray>` blocks) feed
    /// the model without deep-copying the batch first.
    pub fn partial_fit_view(&mut self, x: MatrixView<'_>) -> Result<(), LinalgError> {
        let n_batch = x.rows() as u64;
        let n_features = x.cols();
        if n_batch == 0 {
            return Ok(());
        }
        if self.n_samples_seen == 0 {
            if self.n_components > n_features.min(x.rows()) {
                return Err(LinalgError::InvalidArgument {
                    what: format!(
                        "n_components={} > min(first batch {}x{})",
                        self.n_components,
                        x.rows(),
                        n_features
                    ),
                });
            }
            self.mean = vec![0.0; n_features];
            self.var = vec![0.0; n_features];
        } else if n_features != self.mean.len() {
            return Err(LinalgError::ShapeMismatch {
                what: format!(
                    "batch has {n_features} features, model has {}",
                    self.mean.len()
                ),
            });
        }

        let batch_mean = col_mean_view(x);
        let batch_var = col_var_view(x, &batch_mean);
        let mut stats = RunningStats {
            count: self.n_samples_seen,
            mean: self.mean.clone(),
            var: self.var.clone(),
        };
        stats.update(n_batch, &batch_mean, &batch_var)?;
        let n_total = stats.count;

        // Build the augmented matrix.
        let centered = center_columns_view(x, &batch_mean)?;
        let a = if self.n_samples_seen == 0 {
            centered
        } else {
            let mut scaled = self.components.clone();
            for i in 0..scaled.rows() {
                let s = self.singular_values[i];
                for v in scaled.row_mut(i) {
                    *v *= s;
                }
            }
            let corr_scale =
                ((self.n_samples_seen as f64 * n_batch as f64) / n_total as f64).sqrt();
            let correction = Matrix::from_fn(1, n_features, |_, j| {
                corr_scale * (self.mean[j] - batch_mean[j])
            });
            Matrix::vstack(&[&scaled, &centered, &correction])?
        };

        let k = self.n_components.min(a.rows()).min(n_features);
        let (s, mut vt) = self.svd(&a, k)?;
        sign_flip_rows(&mut vt);

        let denom = (n_total as f64 - 1.0).max(1.0);
        self.explained_variance = s.iter().map(|s| s * s / denom).collect();
        let total_var: f64 = stats.var.iter().sum::<f64>() * n_total as f64 / denom;
        self.explained_variance_ratio = self
            .explained_variance
            .iter()
            .map(|v| if total_var > 0.0 { v / total_var } else { 0.0 })
            .collect();
        self.components = vt;
        self.singular_values = s;
        self.mean = stats.mean;
        self.var = stats.var;
        self.n_samples_seen = n_total;
        Ok(())
    }

    /// Fit from scratch over row batches of `batch_rows`.
    pub fn fit_in_batches(&mut self, x: &Matrix, batch_rows: usize) -> Result<(), LinalgError> {
        if batch_rows == 0 {
            return Err(LinalgError::InvalidArgument {
                what: "batch_rows must be positive".into(),
            });
        }
        let mut row = 0;
        while row < x.rows() {
            let h = batch_rows.min(x.rows() - row);
            let chunk =
                MatrixView::new(h, x.cols(), &x.data()[row * x.cols()..(row + h) * x.cols()])?;
            self.partial_fit_view(chunk)?;
            row += h;
        }
        Ok(())
    }

    /// Project samples onto the fitted axes.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, LinalgError> {
        self.transform_view(x.as_view())
    }

    /// [`IncrementalPca::transform`] over a borrowed [`MatrixView`].
    pub fn transform_view(&self, x: MatrixView<'_>) -> Result<Matrix, LinalgError> {
        let centered = center_columns_view(x, &self.mean)?;
        centered.matmul(&self.components.transpose())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pca::Pca;

    fn data(n: usize, f: usize) -> Matrix {
        Matrix::from_fn(n, f, |i, j| {
            let t = i as f64 / n as f64;
            (t * (j + 1) as f64 * 2.2).sin() + 0.3 * ((i * 31 + j * 17) % 13) as f64 / 13.0
        })
    }

    #[test]
    fn single_batch_equals_pca() {
        // With one batch covering everything and k = full rank, IPCA == PCA.
        let x = data(24, 4);
        let pca = Pca::fit(&x, 4).unwrap();
        let mut ipca = IncrementalPca::new(4, SvdSolver::Full);
        ipca.partial_fit(&x).unwrap();
        assert_eq!(ipca.n_samples_seen, 24);
        for i in 0..4 {
            assert!(
                (ipca.singular_values[i] - pca.singular_values[i]).abs() < 1e-8,
                "sigma_{i}"
            );
        }
        assert!(ipca.components.max_abs_diff(&pca.components).unwrap() < 1e-7);
    }

    #[test]
    fn multi_batch_full_rank_matches_pca() {
        // k = n_features keeps the update exact: batched == whole.
        let x = data(40, 3);
        let pca = Pca::fit(&x, 3).unwrap();
        let mut ipca = IncrementalPca::new(3, SvdSolver::Full);
        ipca.fit_in_batches(&x, 7).unwrap();
        for i in 0..3 {
            let rel = (ipca.singular_values[i] - pca.singular_values[i]).abs()
                / pca.singular_values[i].max(1e-12);
            assert!(
                rel < 1e-6,
                "sigma_{i}: {} vs {}",
                ipca.singular_values[i],
                pca.singular_values[i]
            );
        }
        assert!(ipca.components.max_abs_diff(&pca.components).unwrap() < 1e-5);
        // Means agree with the full-data means.
        let mean = linalg::stats::col_mean(&x);
        for (got, want) in ipca.mean.iter().zip(&mean).take(3) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn truncated_ipca_tracks_leading_subspace() {
        // Data with a clearly dominant direction (near rank-1 plus weaker
        // secondary structure), so the leading axis is well defined.
        let x = Matrix::from_fn(60, 6, |i, j| {
            let t = i as f64 / 60.0 * 4.0 - 2.0;
            let w = (j as f64 + 1.0) / 3.0;
            let minor = (i as f64 * 0.7).cos() * if j % 2 == 0 { 0.2 } else { -0.2 };
            t * w + minor + 0.01 * ((i * 31 + j * 17) % 13) as f64 / 13.0
        });
        let pca = Pca::fit(&x, 2).unwrap();
        let mut ipca = IncrementalPca::new(2, SvdSolver::Full);
        ipca.fit_in_batches(&x, 10).unwrap();
        // Leading singular value within a few percent.
        let rel = (ipca.singular_values[0] - pca.singular_values[0]).abs() / pca.singular_values[0];
        assert!(rel < 0.05, "rel err {rel}");
        // Leading axes nearly collinear: |cos| close to 1.
        let dot: f64 = ipca
            .components
            .row(0)
            .iter()
            .zip(pca.components.row(0))
            .map(|(a, b)| a * b)
            .sum();
        assert!(dot.abs() > 0.99, "cos = {dot}");
    }

    #[test]
    fn randomized_solver_close_to_full() {
        let x = data(50, 5);
        let mut full = IncrementalPca::new(2, SvdSolver::Full);
        full.fit_in_batches(&x, 10).unwrap();
        let mut rnd = IncrementalPca::new(2, SvdSolver::Randomized { seed: 9 });
        rnd.fit_in_batches(&x, 10).unwrap();
        for i in 0..2 {
            let rel = (full.singular_values[i] - rnd.singular_values[i]).abs()
                / full.singular_values[i].max(1e-12);
            assert!(rel < 1e-3, "sigma_{i} rel {rel}");
        }
    }

    #[test]
    fn randomized_solver_is_deterministic() {
        let x = data(30, 4);
        let mut a = IncrementalPca::new(2, SvdSolver::Randomized { seed: 5 });
        a.fit_in_batches(&x, 8).unwrap();
        let mut b = IncrementalPca::new(2, SvdSolver::Randomized { seed: 5 });
        b.fit_in_batches(&x, 8).unwrap();
        assert_eq!(a.singular_values, b.singular_values);
        assert!(a.components.max_abs_diff(&b.components).unwrap() == 0.0);
    }

    #[test]
    fn empty_batch_is_noop_and_errors_are_clean() {
        let mut ipca = IncrementalPca::new(2, SvdSolver::Full);
        ipca.partial_fit(&Matrix::zeros(0, 4)).unwrap();
        assert_eq!(ipca.n_samples_seen, 0);
        // First batch smaller than k.
        assert!(ipca.partial_fit(&Matrix::zeros(1, 4)).is_err());
        // Fit properly, then wrong width.
        ipca.partial_fit(&data(8, 4)).unwrap();
        assert!(ipca.partial_fit(&Matrix::zeros(3, 5)).is_err());
        assert!(IncrementalPca::new(2, SvdSolver::Full)
            .fit_in_batches(&data(8, 4), 0)
            .is_err());
    }

    #[test]
    fn svd_that_does_not_converge_is_an_error() {
        let mut x = data(8, 4);
        x[(3, 2)] = f64::NAN;
        let mut ipca = IncrementalPca::new(2, SvdSolver::Full);
        assert!(matches!(
            ipca.partial_fit(&x),
            Err(LinalgError::NoConvergence { .. })
        ));
        assert_eq!(ipca.n_samples_seen, 0);
    }

    #[test]
    fn transform_dimensionality_reduction() {
        let x = data(36, 5);
        let mut ipca = IncrementalPca::new(2, SvdSolver::Full);
        ipca.fit_in_batches(&x, 9).unwrap();
        let z = ipca.transform(&x).unwrap();
        assert_eq!(z.rows(), 36);
        assert_eq!(z.cols(), 2);
    }
}
