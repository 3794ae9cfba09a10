//! One-sided Jacobi SVD.
//!
//! Rotate column pairs of `A` until all pairs are orthogonal; then column
//! norms are the singular values, the normalized columns are `U`, and the
//! accumulated rotations give `V`. Columns are stored contiguously (the
//! rows of `Aᵀ`), so every dot product and rotation walks memory in order.
//! A matrix with more rows than columns is first reduced to its `n×n`
//! triangular factor `R` by Householder QR, so the sweeps only ever see a
//! square matrix that stays in cache; `Q` is formed only when `U` is asked
//! for. Used directly, and as the core factorization after random
//! projection in [`crate::rsvd`].

use crate::matrix::{dot, Matrix};
use crate::qr::qr_columns;
use crate::{LinalgError, Result};

/// Singular value decomposition `A = U diag(S) V^T`.
pub struct Svd {
    /// Left singular vectors, `m×k`.
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub s: Vec<f64>,
    /// Right singular vectors transposed, `k×n`.
    pub vt: Matrix,
}

/// Maximum sweeps for the Jacobi iteration. Convergence takes 4–12 sweeps
/// on the IPCA workload; reaching the limit is a
/// [`LinalgError::NoConvergence`].
const MAX_SWEEPS: usize = 60;

/// One-sided Jacobi SVD of `a` (thin: `k = min(m, n)`), all three factors.
///
/// For `m < n` the routine factors the transpose and swaps the factors.
pub fn jacobi_svd(a: &Matrix) -> Result<Svd> {
    check_nonempty(a)?;
    if a.rows() >= a.cols() {
        let f = factor(a.transpose(), true, true)?;
        Ok(Svd {
            u: f.u.expect("U was asked for"),
            s: f.s,
            vt: f.vt.expect("V was asked for"),
        })
    } else {
        // Aᵀ = U' S V'ᵀ ⇒ A = V' S U'ᵀ, and the rows of A are the columns of Aᵀ.
        let f = factor(a.clone(), true, true)?;
        Ok(Svd {
            u: f.vt.expect("V was asked for").transpose(),
            s: f.s,
            vt: f.u.expect("U was asked for").transpose(),
        })
    }
}

/// The singular values (descending, length `k = min(m, n)`) and `Vᵀ`
/// (`k×n`) of `a`, without forming `U`: what PCA and incremental PCA keep.
/// Same values as [`jacobi_svd`], by the same rotations.
pub fn jacobi_svd_vt(a: &Matrix) -> Result<(Vec<f64>, Matrix)> {
    check_nonempty(a)?;
    if a.rows() >= a.cols() {
        let f = factor(a.transpose(), false, true)?;
        Ok((f.s, f.vt.expect("V was asked for")))
    } else {
        // Vᵀ of A is U'ᵀ of Aᵀ.
        let f = factor(a.clone(), true, false)?;
        Ok((f.s, f.u.expect("U was asked for").transpose()))
    }
}

fn check_nonempty(a: &Matrix) -> Result<()> {
    if a.rows() == 0 || a.cols() == 0 {
        return Err(LinalgError::InvalidArgument {
            what: "SVD of an empty matrix".into(),
        });
    }
    Ok(())
}

/// The factors of a tall matrix that [`factor`] was asked for.
struct Factors {
    /// Singular values, descending.
    s: Vec<f64>,
    /// `m×n` left singular vectors.
    u: Option<Matrix>,
    /// `n×n` right singular vectors, transposed.
    vt: Option<Matrix>,
    /// Jacobi sweeps taken (the tests read it).
    #[cfg_attr(not(test), allow(dead_code))]
    sweeps: usize,
}

/// SVD of a tall `A` (`m ≥ n`) handed over as `at = Aᵀ`, whose rows are the
/// columns of `A`. For `m > n` the columns are first reduced to `R` (`n×n`)
/// and `U = Q·U_R`; the Jacobi sweeps always run on an `n×n` matrix.
fn factor(mut at: Matrix, want_u: bool, want_v: bool) -> Result<Factors> {
    let (n, m) = (at.rows(), at.cols());
    let (mut w, q) = if m > n {
        let q = qr_columns(at.data_mut(), m, n, want_u);
        // The upper triangle of the first n rows is R; below it is zero.
        let mut r = vec![0.0; n * n];
        for (j, col) in at.data().chunks_exact(m).enumerate() {
            r[j * n..=j * n + j].copy_from_slice(&col[..=j]);
        }
        (r, q)
    } else {
        (at.data().to_vec(), None)
    };
    let negligible = negligible_norm2(&w, n);
    let mut v = want_v.then(|| Matrix::eye(n));
    let sweeps = jacobi_sweeps(
        &mut w,
        n,
        n,
        v.as_mut().map(|v| v.data_mut()),
        negligible,
        MAX_SWEEPS,
    )?;

    // Column norms are the singular values; sort them descending.
    let norms: Vec<f64> = w.chunks_exact(n).map(|c| dot(c, c)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));
    let s = order.iter().map(|&j| norms[j].sqrt()).collect();
    // V is stored by columns, which makes its storage Vᵀ row by row.
    let vt = v.map(|v| Matrix::from_fn(n, n, |i, c| v[(order[i], c)]));
    let u = if want_u {
        let u_r = Matrix::from_vec(n, n, left_vectors(&w, n, &order, &norms, negligible))?;
        // u_r holds U_R by columns, i.e. U_Rᵀ row by row.
        Some(match q {
            Some(q) => u_r.matmul(&Matrix::from_vec(n, m, q)?)?.transpose(),
            None => u_r.transpose(),
        })
    } else {
        None
    };
    Ok(Factors { s, u, vt, sweeps })
}

/// `U_R` (`n×n`, by columns, in the sorted `order`) from the rotated columns
/// `w` and their squared norms. A column the sweeps rotated is normalised;
/// a negligible one was never made orthogonal to anything, so its place is
/// taken by the unit vector farthest from the span so far, orthogonalised
/// against it twice. `U` is orthonormal whatever the rank.
fn left_vectors(w: &[f64], n: usize, order: &[usize], norms: &[f64], negligible: f64) -> Vec<f64> {
    let mut u: Vec<f64> = Vec::with_capacity(n * n);
    // 1 − ‖projection of e_i onto the span so far‖².
    let mut outside = vec![1.0f64; n];
    for &j in order {
        let col = if norms[j] > negligible {
            let sigma = norms[j].sqrt();
            w[j * n..(j + 1) * n].iter().map(|x| x / sigma).collect()
        } else {
            let i = (0..n)
                .max_by(|&x, &y| outside[x].total_cmp(&outside[y]))
                .expect("n > 0");
            let mut e = vec![0.0; n];
            e[i] = 1.0;
            for _ in 0..2 {
                for b in u.chunks_exact(n) {
                    let d = dot(b, &e);
                    for (x, y) in e.iter_mut().zip(b) {
                        *x -= d * y;
                    }
                }
            }
            let norm = dot(&e, &e).sqrt();
            e.iter().map(|x| x / norm).collect::<Vec<f64>>()
        };
        for (o, x) in outside.iter_mut().zip(&col) {
            *o -= x * x;
        }
        u.extend(col);
    }
    u
}

/// A column whose squared norm is at most `(m·ε)²·‖A‖²_F` is rounding noise
/// (LAPACK `dgesvj`'s negligible column), for columns of length `m`.
fn negligible_norm2(w: &[f64], m: usize) -> f64 {
    let fro2: f64 = w.chunks_exact(m).map(|c| dot(c, c)).sum();
    (m as f64 * f64::EPSILON).powi(2) * fro2
}

/// A pair of columns is orthogonal once `|a_pᵀa_q| ≤ TOL·‖a_p‖‖a_q‖`.
const TOL: f64 = 1e-14;

/// Rotate the `n` columns of `w` (each `m` long, stored contiguously) until
/// every pair is orthogonal, applying each rotation to the columns of `v`
/// (each `n` long) too when given. Returns the sweeps taken, the last one a
/// sweep that rotated nothing.
///
/// Squared column norms are computed once per sweep and carried through each
/// rotation. A pair that includes a column whose squared norm is at most
/// `negligible` ([`negligible_norm2`]) is skipped, since no rotation can make
/// noise orthogonal to the rest more accurately than it already is.
fn jacobi_sweeps(
    w: &mut [f64],
    m: usize,
    n: usize,
    mut v: Option<&mut [f64]>,
    negligible: f64,
    max_sweeps: usize,
) -> Result<usize> {
    let column_norms = |w: &[f64]| -> Vec<f64> { w.chunks_exact(m).map(|c| dot(c, c)).collect() };
    let mut norms = column_norms(w);
    let mut off = 0.0f64;
    for sweep in 1..=max_sweeps {
        off = 0.0;
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (app, aqq) = (norms[p], norms[q]);
                if app.min(aqq) <= negligible {
                    continue;
                }
                let (wp, wq) = column_pair(w, m, p, q);
                let apq = dot(wp, wq);
                let cosine = apq.abs() / (app * aqq).sqrt();
                off = off.max(cosine);
                if cosine <= TOL {
                    continue;
                }
                // Jacobi rotation annihilating the off-diagonal Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate(wp, wq, c, s);
                if let Some(v) = v.as_deref_mut() {
                    let (vp, vq) = column_pair(v, n, p, q);
                    rotate(vp, vq, c, s);
                }
                norms[p] = (app - t * apq).max(0.0);
                norms[q] = aqq + t * apq;
                rotated = true;
            }
        }
        if !rotated {
            return Ok(sweep);
        }
        // The carried norms drift by a rounding per rotation; start each
        // sweep from exact ones.
        norms = column_norms(w);
    }
    Err(LinalgError::NoConvergence {
        sweeps: max_sweeps,
        off,
    })
}

/// Columns `p < q` of column-contiguous storage with columns of length `m`.
fn column_pair(w: &mut [f64], m: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (head, tail) = w.split_at_mut(q * m);
    (&mut head[p * m..(p + 1) * m], &mut tail[..m])
}

/// `(x_p, x_q) ← (c·x_p − s·x_q, s·x_p + c·x_q)`, element by element.
fn rotate(xp: &mut [f64], xq: &mut [f64], c: f64, s: f64) {
    for (a, b) in xp.iter_mut().zip(xq.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = c * x - s * y;
        *b = s * x + c * y;
    }
}

impl Svd {
    /// Truncate to the top `k` components.
    pub fn truncate(self, k: usize) -> Result<Svd> {
        if k > self.s.len() {
            return Err(LinalgError::InvalidArgument {
                what: format!("truncate({k}) of a rank-{} SVD", self.s.len()),
            });
        }
        Ok(Svd {
            u: self.u.take_cols(k)?,
            s: self.s[..k].to_vec(),
            vt: self.vt.take_rows(k)?,
        })
    }

    /// Reconstruct `U diag(S) V^T`.
    pub fn reconstruct(&self) -> Result<Matrix> {
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            for j in 0..us.cols() {
                us[(i, j)] *= self.s[j];
            }
        }
        us.matmul(&self.vt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_valid_svd(a: &Matrix, svd: &Svd, tol: f64) {
        // Reconstruction.
        let rec = svd.reconstruct().unwrap();
        assert!(
            rec.max_abs_diff(a).unwrap() < tol,
            "reconstruction error {}",
            rec.max_abs_diff(a).unwrap()
        );
        // Descending singular values.
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "not descending: {:?}", svd.s);
        }
        // V orthonormal rows.
        let vvt = svd.vt.matmul(&svd.vt.transpose()).unwrap();
        assert!(vvt.max_abs_diff(&Matrix::eye(svd.vt.rows())).unwrap() < tol);
    }

    #[test]
    fn svd_square() {
        let a = Matrix::from_fn(6, 6, |i, j| ((i * 7 + j * 13) % 17) as f64 - 8.0);
        let svd = jacobi_svd(&a).unwrap();
        assert_valid_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn svd_tall_triggers_qr_path() {
        let a = Matrix::from_fn(50, 4, |i, j| {
            ((i + 1) as f64).sin() * (j + 1) as f64 + 0.1 * i as f64
        });
        let svd = jacobi_svd(&a).unwrap();
        assert_eq!(svd.u.rows(), 50);
        assert_eq!(svd.u.cols(), 4);
        assert_valid_svd(&a, &svd, 1e-8);
    }

    #[test]
    fn svd_wide_via_transpose() {
        let a = Matrix::from_fn(3, 8, |i, j| ((i * 11 + j * 3) % 7) as f64 * 0.5);
        let svd = jacobi_svd(&a).unwrap();
        assert_eq!(svd.u.rows(), 3);
        assert_eq!(svd.vt.cols(), 8);
        assert_valid_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn svd_known_diagonal() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 1.0;
        a[(2, 2)] = 2.0;
        let svd = jacobi_svd(&a).unwrap();
        assert!((svd.s[0] - 3.0).abs() < 1e-12);
        assert!((svd.s[1] - 2.0).abs() < 1e-12);
        assert!((svd.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn svd_rank_one() {
        // a = u v^T with |u| = 2, |v| = 3 => sigma_1 = 6, rest 0.
        let u = [2.0, 0.0, 0.0, 0.0];
        let v = [3.0, 0.0, 0.0];
        let a = Matrix::from_fn(4, 3, |i, j| u[i] * v[j]);
        let svd = jacobi_svd(&a).unwrap();
        assert!((svd.s[0] - 6.0).abs() < 1e-10);
        assert!(svd.s[1].abs() < 1e-10);
        assert_valid_svd(&a, &svd, 1e-9);
    }

    #[test]
    fn svd_truncate_gives_best_rank_k() {
        // Construct a matrix with known spectrum via random-ish orthogonal mixing.
        let a = Matrix::from_fn(8, 5, |i, j| ((i * 31 + j * 17) % 19) as f64 * 0.1 - 0.9);
        let svd = jacobi_svd(&a).unwrap();
        let k = 2;
        let t = jacobi_svd(&a).unwrap().truncate(k).unwrap();
        let rec = t.reconstruct().unwrap();
        // Error of best rank-k approx in Frobenius norm = sqrt(sum of tail sigma^2).
        let mut diff = a.clone();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                diff[(i, j)] -= rec[(i, j)];
            }
        }
        let tail: f64 = svd.s[k..].iter().map(|s| s * s).sum::<f64>().sqrt();
        assert!((diff.frobenius_norm() - tail).abs() < 1e-8);
    }

    #[test]
    fn svd_singular_values_match_gram_eigensqrt() {
        let a = Matrix::from_fn(5, 3, |i, j| (i as f64 - j as f64) * 0.7 + 1.0);
        let svd = jacobi_svd(&a).unwrap();
        // sum sigma_i^2 == ||A||_F^2
        let ss: f64 = svd.s.iter().map(|s| s * s).sum();
        let fro2 = a.frobenius_norm().powi(2);
        assert!((ss - fro2).abs() < 1e-9);
    }

    #[test]
    fn svd_empty_errors() {
        assert!(jacobi_svd(&Matrix::zeros(0, 3)).is_err());
    }

    #[test]
    fn sweep_limit_is_an_error_not_a_silent_answer() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i * 7 + j * 13) % 17) as f64 - 8.0);
        let negligible = negligible_norm2(a.transpose().data(), 6);
        let mut w = a.transpose();
        let mut v = Matrix::eye(4);
        match jacobi_sweeps(w.data_mut(), 6, 4, Some(v.data_mut()), negligible, 1) {
            Err(LinalgError::NoConvergence { sweeps: 1, off }) => assert!(off > TOL),
            other => panic!("one sweep of a non-orthogonal matrix: {other:?}"),
        }
        let mut w = a.transpose();
        let mut v = Matrix::eye(4);
        let sweeps = jacobi_sweeps(
            w.data_mut(),
            6,
            4,
            Some(v.data_mut()),
            negligible,
            MAX_SWEEPS,
        )
        .unwrap();
        assert!((2..MAX_SWEEPS).contains(&sweeps), "{sweeps}");
        // NaN never converges: an error, not a silent answer.
        let mut bad = a.clone();
        bad[(2, 1)] = f64::NAN;
        assert!(matches!(
            jacobi_svd(&bad),
            Err(LinalgError::NoConvergence { .. })
        ));
    }

    #[test]
    fn u_is_orthonormal_whatever_the_rank() {
        // Rank 1 tall (QR first), rank 2 square, and zero; the columns of U
        // past the rank are completed, not zero or normalised noise.
        let rank_one = Matrix::from_fn(9, 4, |i, j| (i as f64 + 1.0) * (j as f64 - 1.5));
        let rank_two = Matrix::from_fn(5, 5, |i, j| (i * j) as f64 + (i + j) as f64);
        for a in [rank_one, rank_two, Matrix::zeros(4, 3)] {
            let svd = jacobi_svd(&a).unwrap();
            let utu = svd.u.transpose().matmul(&svd.u).unwrap();
            assert!(utu.max_abs_diff(&Matrix::eye(a.cols())).unwrap() < 1e-12);
            assert_valid_svd(&a, &svd, 1e-12);
        }
    }

    #[test]
    fn numerically_low_rank_131x64_converges_in_few_sweeps() {
        // An IPCA step's shape at the referee's geometry (k + Y + 1 = 131
        // rows, X = 64 features) filled with a smooth field: most of its
        // singular values are rounding noise, which a relative stopping test
        // alone keeps rotating until the sweep limit.
        let a = Matrix::from_fn(131, 64, |i, j| {
            let (x, y) = (i as f64 / 130.0, j as f64 / 63.0);
            (-8.0 * (x - y).powi(2)).exp() + (3.0 * x * y).sin()
        });
        let f = factor(a.transpose(), false, true).unwrap();
        assert!(f.s[20] < 1e-13 * f.s[0], "not low-rank: {:?}", &f.s[..21]);
        assert!(f.sweeps <= 12, "{} sweeps", f.sweeps);
    }
}
