//! Exact PCA on a local matrix — the correctness reference for IPCA.

use linalg::stats::{center_columns, col_mean};
use linalg::{jacobi_svd_vt, LinalgError, Matrix};

/// A fitted PCA model.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Principal axes, `k × n_features`, rows ordered by variance.
    pub components: Matrix,
    /// Top `k` singular values of the centered data.
    pub singular_values: Vec<f64>,
    /// Variance explained by each component (`S² / (n-1)`).
    pub explained_variance: Vec<f64>,
    /// Fraction of total variance per component.
    pub explained_variance_ratio: Vec<f64>,
    /// Per-feature mean of the training data.
    pub mean: Vec<f64>,
}

impl Pca {
    /// Fit PCA with `k` components on `x` (samples × features).
    pub fn fit(x: &Matrix, k: usize) -> Result<Pca, LinalgError> {
        let n = x.rows();
        if n < 2 {
            return Err(LinalgError::InvalidArgument {
                what: "PCA needs at least 2 samples".into(),
            });
        }
        if k == 0 || k > x.cols().min(n) {
            return Err(LinalgError::InvalidArgument {
                what: format!("k={k} out of range for {}x{}", n, x.cols()),
            });
        }
        let mean = col_mean(x);
        let centered = center_columns(x, &mean)?;
        let (mut singular_values, vt) = jacobi_svd_vt(&centered)?;
        let total_var: f64 = singular_values.iter().map(|s| s * s).sum::<f64>() / (n as f64 - 1.0);
        singular_values.truncate(k);
        let mut components = vt.take_rows(k)?;
        sign_flip_rows(&mut components);
        let explained_variance: Vec<f64> = singular_values
            .iter()
            .map(|s| s * s / (n as f64 - 1.0))
            .collect();
        let explained_variance_ratio = explained_variance
            .iter()
            .map(|v| if total_var > 0.0 { v / total_var } else { 0.0 })
            .collect();
        Ok(Pca {
            components,
            singular_values,
            explained_variance,
            explained_variance_ratio,
            mean,
        })
    }

    /// Project samples onto the principal axes: `(X - mean) @ componentsᵀ`.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, LinalgError> {
        let centered = center_columns(x, &self.mean)?;
        centered.matmul(&self.components.transpose())
    }
}

/// Deterministic sign convention: make the largest-|.|
/// element of each row positive (scikit-learn's `svd_flip` with
/// `u_based_decision=False`).
pub fn sign_flip_rows(vt: &mut Matrix) {
    for i in 0..vt.rows() {
        let row = vt.row(i);
        let mut best = 0usize;
        for (j, v) in row.iter().enumerate() {
            if v.abs() > row[best].abs() {
                best = j;
            }
        }
        if row[best] < 0.0 {
            for v in vt.row_mut(i) {
                *v = -*v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Correlated 2-feature data whose first principal axis is ~(1,1)/√2.
    fn correlated(n: usize) -> Matrix {
        Matrix::from_fn(n, 2, |i, j| {
            let t = i as f64 / n as f64 * 6.0 - 3.0;
            let noise = ((i * 37 + j * 11) % 7) as f64 / 7.0 - 0.5;
            if j == 0 {
                t + 0.05 * noise
            } else {
                t - 0.05 * noise
            }
        })
    }

    #[test]
    fn first_axis_of_correlated_data() {
        let x = correlated(64);
        let pca = Pca::fit(&x, 2).unwrap();
        let c0 = pca.components.row(0);
        let expect = 1.0 / 2.0_f64.sqrt();
        assert!((c0[0].abs() - expect).abs() < 0.01, "{c0:?}");
        assert!((c0[1].abs() - expect).abs() < 0.01);
        // Dominant component explains almost everything.
        assert!(pca.explained_variance_ratio[0] > 0.99);
        // Ratios sum to <= 1.
        let sum: f64 = pca.explained_variance_ratio.iter().sum();
        assert!(sum <= 1.0 + 1e-9);
    }

    #[test]
    fn components_are_orthonormal() {
        let x = Matrix::from_fn(30, 5, |i, j| ((i * 13 + j * 7) % 11) as f64 - 5.0);
        let pca = Pca::fit(&x, 3).unwrap();
        let g = pca.components.matmul(&pca.components.transpose()).unwrap();
        assert!(g.max_abs_diff(&Matrix::eye(3)).unwrap() < 1e-9);
    }

    #[test]
    fn transform_centers_and_projects() {
        let x = correlated(40);
        let pca = Pca::fit(&x, 1).unwrap();
        let z = pca.transform(&x).unwrap();
        assert_eq!(z.rows(), 40);
        assert_eq!(z.cols(), 1);
        // Projected scores have ~zero mean.
        let mean: f64 = (0..40).map(|i| z[(i, 0)]).sum::<f64>() / 40.0;
        assert!(mean.abs() < 1e-10);
        // Variance of scores equals explained variance of component 0.
        let var: f64 = (0..40).map(|i| z[(i, 0)] * z[(i, 0)]).sum::<f64>() / 39.0;
        assert!((var - pca.explained_variance[0]).abs() / var < 1e-9);
    }

    #[test]
    fn sign_convention_is_deterministic() {
        let x = correlated(32);
        let p1 = Pca::fit(&x, 2).unwrap();
        let mut x_neg = x.clone();
        x_neg.scale(-1.0);
        // PCA of -X has the same axes; the flip must give identical signs.
        let p2 = Pca::fit(&x_neg, 2).unwrap();
        assert!(p1.components.max_abs_diff(&p2.components).unwrap() < 1e-9);
    }

    #[test]
    fn invalid_arguments() {
        let x = Matrix::zeros(1, 3);
        assert!(Pca::fit(&x, 1).is_err());
        let x = Matrix::zeros(10, 3);
        assert!(Pca::fit(&x, 0).is_err());
        assert!(Pca::fit(&x, 4).is_err());
    }
}
