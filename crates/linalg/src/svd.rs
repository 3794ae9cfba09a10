//! Rank-revealing one-sided Jacobi SVD.
//!
//! A tall `A` (`m ≥ n`; a wide one is factored as `Aᵀ`) is first reduced by
//! a column-pivoted Householder QR, `A·P = Q·R`, which stops at the
//! numerical rank `r`: once the columns not yet reduced hold only rounding,
//! the rest of `R` is dropped. The `r` rows of `R` are stored contiguously
//! (as the columns of `Rᵀ`) and rotated in pairs until all are orthogonal,
//! `Rᵀ·J = W`. Then the norms of `W`'s columns are the singular values, and
//! its normalised columns, un-permuted, are the rows of `Vᵀ`: no `V` is
//! accumulated. `U = Q_r·J` costs `Q` and the `r×r` rotation `J`, which only
//! a caller that wants `U` pays for. This is the preconditioned Jacobi SVD
//! of Drmač and Veselić (LAPACK `dgejsv`) stopped at the numerical rank;
//! the sweeps only ever see `r` rows that stay in cache. Used directly, and
//! as the core factorization after random projection in [`crate::rsvd`].

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

/// Maximum sweeps for the Jacobi iteration; reaching the limit is a
/// [`LinalgError::NoConvergence`].
const MAX_SWEEPS: usize = 60;

/// One-sided Jacobi SVD of `a` (thin: `k = min(m, n)`), all three factors.
///
/// For `m < n` the routine factors the transpose and swaps the factors.
pub fn jacobi_svd(a: &Matrix) -> Result<Svd> {
    check_nonempty(a)?;
    let k = a.rows().min(a.cols());
    let (ut, s, vt) = if a.rows() >= a.cols() {
        let f = factor(a.transpose(), k, true, true)?;
        (f.ut, f.s, f.vt)
    } else {
        // Aᵀ = U' S V'ᵀ ⇒ A = V' S U'ᵀ, and the rows of A are the columns of Aᵀ.
        let f = factor(a.clone(), k, true, true)?;
        (f.vt, f.s, f.ut)
    };
    Ok(Svd {
        u: ut.expect("U was asked for").transpose(),
        s,
        vt: vt.expect("V was asked for"),
    })
}

/// The top `k` singular values (descending) and right singular vectors
/// (`Vᵀ`, `k×n`) of `a`, without forming `U`: what incremental PCA keeps.
/// Past the numerical rank the values are 0 and the rows complete an
/// orthonormal set. Same values as [`jacobi_svd`], by the same rotations.
pub fn jacobi_svd_top(a: &Matrix, k: usize) -> Result<(Vec<f64>, Matrix)> {
    check_nonempty(a)?;
    if k > a.rows().min(a.cols()) {
        return Err(LinalgError::InvalidArgument {
            what: format!("top {k} of a {}x{} SVD", a.rows(), a.cols()),
        });
    }
    let (s, vt) = if a.rows() >= a.cols() {
        let f = factor(a.transpose(), k, false, true)?;
        (f.s, f.vt)
    } else {
        // Vᵀ of A is U'ᵀ of Aᵀ.
        let f = factor(a.clone(), k, true, false)?;
        (f.s, f.ut)
    };
    Ok((s, vt.expect("V was asked for")))
}

/// [`jacobi_svd_top`] at `k = min(m, n)`: what PCA keeps.
pub fn jacobi_svd_vt(a: &Matrix) -> Result<(Vec<f64>, Matrix)> {
    jacobi_svd_top(a, a.rows().min(a.cols()))
}

fn check_nonempty(a: &Matrix) -> Result<()> {
    if a.rows() == 0 || a.cols() == 0 {
        return Err(LinalgError::InvalidArgument {
            what: "SVD of an empty matrix".into(),
        });
    }
    Ok(())
}

/// The top `k` factors of a tall matrix that [`factor`] was asked for.
struct Factors {
    /// Singular values, descending.
    s: Vec<f64>,
    /// Left singular vectors, transposed (`k×m`).
    ut: Option<Matrix>,
    /// Right singular vectors, transposed (`k×n`).
    vt: Option<Matrix>,
    /// Numerical rank: the pivoted QR's steps (the tests read it).
    #[cfg_attr(not(test), allow(dead_code))]
    rank: usize,
    /// Jacobi sweeps taken (the tests read it).
    #[cfg_attr(not(test), allow(dead_code))]
    sweeps: usize,
}

/// Top-`k` SVD of a tall `A` (`m ≥ n`) handed over as `at = Aᵀ`, whose rows
/// are the columns of `A`: a pivoted QR to the numerical rank `r`, then
/// Jacobi on the `r` rows of `R`, accumulating `J` only for `U`.
fn factor(mut at: Matrix, k: usize, want_u: bool, want_v: bool) -> Result<Factors> {
    let (n, m) = (at.rows(), at.cols());
    let negligible = negligible_norm2(at.data(), n);
    let qr = qr_columns(at.data_mut(), m, n, want_u, Some(negligible));
    let r = qr.rank;
    // Row i of R is entry i of the reduced columns i..; lay rows 0..r out
    // contiguously, as the columns of Rᵀ.
    let mut w = vec![0.0; r * n];
    for (c, col) in at.data().chunks_exact(m).enumerate() {
        for (i, &x) in col[..r.min(c + 1)].iter().enumerate() {
            w[i * n + c] = x;
        }
    }
    let mut j = want_u.then(|| Matrix::eye(r));
    let sweeps = jacobi_sweeps(
        &mut w,
        n,
        r,
        j.as_mut().map(|j| j.data_mut()),
        negligible,
        MAX_SWEEPS,
    )?;

    // Column norms are the singular values; sort them descending.
    let norms: Vec<f64> = w.chunks_exact(n).map(|c| dot(c, c)).collect();
    let mut order: Vec<usize> = (0..r).collect();
    order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));
    let top = &order[..k.min(r)];
    let s = top
        .iter()
        .map(|&c| norms[c].sqrt())
        .chain(std::iter::repeat(0.0))
        .take(k)
        .collect();
    let vt = if want_v {
        // Entry c of a row of R belongs to input column perm[c].
        let mut wv = vec![0.0; r * n];
        for (row, out) in w.chunks_exact(n).zip(wv.chunks_exact_mut(n)) {
            for (&x, &c) in row.iter().zip(&qr.perm) {
                out[c] = x;
            }
        }
        let rows = orthonormal(&wv, n, top, &norms, negligible, k);
        Some(Matrix::from_vec(k, n, rows)?)
    } else {
        None
    };
    let ut = match (qr.q, j) {
        (Some(q), Some(j)) => {
            // Column c of Q_r·J, in the sorted order; past r, Q's own columns
            // (H_0 ⋯ H_{r-1} e_i), which complete the set.
            let mut ut = Vec::with_capacity(k * m);
            for &c in top {
                let mut u = vec![0.0; m];
                for (qi, &x) in q.chunks_exact(m).zip(&j.data()[c * r..(c + 1) * r]) {
                    for (u, q) in u.iter_mut().zip(qi) {
                        *u += x * q;
                    }
                }
                ut.extend(u);
            }
            ut.extend_from_slice(&q[top.len() * m..k * m]);
            Some(Matrix::from_vec(k, m, ut)?)
        }
        _ => None,
    };
    Ok(Factors {
        s,
        ut,
        vt,
        rank: r,
        sweeps,
    })
}

/// `count` orthonormal vectors of length `len`, one after the other: the
/// columns of `w` that `order` names, normalised, then completion. A column
/// at most `negligible` ([`negligible_norm2`]) was never made orthogonal to
/// anything, and a place past `order` has no column; either is taken by
/// the unit vector farthest from the span so far, orthogonalised against
/// it twice. The set is orthonormal whatever the rank.
fn orthonormal(
    w: &[f64],
    len: usize,
    order: &[usize],
    norms: &[f64],
    negligible: f64,
    count: usize,
) -> Vec<f64> {
    let mut u: Vec<f64> = Vec::with_capacity(count * len);
    // 1 − ‖projection of e_i onto the span so far‖².
    let mut outside = vec![1.0f64; len];
    for place in 0..count {
        let col = match order.get(place) {
            Some(&j) if norms[j] > negligible => {
                let sigma = norms[j].sqrt();
                w[j * len..(j + 1) * len]
                    .iter()
                    .map(|x| x / sigma)
                    .collect()
            }
            _ => {
                let i = (0..len)
                    .max_by(|&x, &y| outside[x].total_cmp(&outside[y]))
                    .expect("len > 0");
                let mut e = vec![0.0; len];
                e[i] = 1.0;
                for _ in 0..2 {
                    for b in u.chunks_exact(len) {
                        let d = dot(b, &e);
                        for (x, y) in e.iter_mut().zip(b) {
                            *x -= d * y;
                        }
                    }
                }
                let norm = dot(&e, &e).sqrt();
                e.iter().map(|x| x / norm).collect::<Vec<f64>>()
            }
        };
        for (o, x) in outside.iter_mut().zip(&col) {
            *o -= x * x;
        }
        u.extend(col);
    }
    u
}

/// A column whose squared norm is at most `(n·ε)²·‖A‖²_F` is rounding noise
/// (LAPACK `dgesvj`'s negligible column), for the entries `a` of a matrix
/// of `n` columns.
fn negligible_norm2(a: &[f64], n: usize) -> f64 {
    (n as f64 * f64::EPSILON).powi(2) * dot(a, a)
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
        let negligible = negligible_norm2(a.data(), 4);
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
        let f = factor(a.transpose(), 64, false, true).unwrap();
        assert!(f.s[20] < 1e-13 * f.s[0], "not low-rank: {:?}", &f.s[..21]);
        assert!(f.rank <= 20, "rank {}", f.rank);
        assert!(f.sweeps <= 12, "{} sweeps", f.sweeps);
    }

    /// 131×64 of exact rank 5 (a spectrum falling to 1e-2), plus noise at
    /// a few roundings of its largest entry.
    fn rank_five() -> Matrix {
        let wave = |t: usize, x: f64| ((t + 1) as f64 * 2.1 * x + t as f64).sin();
        let a = Matrix::from_fn(131, 64, |i, j| {
            let (x, y) = (i as f64 / 130.0, j as f64 / 63.0);
            [1.0, 0.5, 0.25, 0.1, 0.01]
                .iter()
                .enumerate()
                .map(|(t, w)| w * wave(t, x) * wave(t + 5, y))
                .sum()
        });
        let scale = 4.0 * f64::EPSILON * a.data().iter().fold(0.0f64, |m, x| m.max(x.abs()));
        Matrix::from_fn(131, 64, |i, j| {
            let hash = (i * 7919 + j * 104_729) % 1000;
            a[(i, j)] + scale * (hash as f64 / 500.0 - 1.0)
        })
    }

    #[test]
    fn rank_five_plus_rounding_noise_stops_the_qr_at_five() {
        let a = rank_five();
        let f = factor(a.transpose(), 64, false, true).unwrap();
        assert_eq!(f.rank, 5);
        assert!(f.s[4] > 1e-4 * f.s[0], "{:?}", &f.s[..5]);
        assert!(f.s[5..].iter().all(|&s| s == 0.0));
        // Dropping the unreduced block costs no more than the negligible rule.
        let svd = jacobi_svd(&a).unwrap();
        assert_valid_svd(&a, &svd, 1e-12);
    }

    #[test]
    fn past_the_rank_rows_complete_and_at_the_rank_match_jacobi_svd() {
        let a = rank_five();
        let full = jacobi_svd(&a).unwrap();
        let (s, vt) = jacobi_svd_top(&a, 9).unwrap();
        assert_eq!((s.len(), vt.rows(), vt.cols()), (9, 9, 64));
        assert!(s[5..].iter().all(|&s| s == 0.0));
        let gram = vt.matmul(&vt.transpose()).unwrap();
        assert!(gram.max_abs_diff(&Matrix::eye(9)).unwrap() < 1e-12);

        let (s, vt) = jacobi_svd_top(&a, 5).unwrap();
        for (i, (si, want_si)) in s.iter().zip(&full.s).enumerate() {
            assert!((si - want_si).abs() <= 1e-12 * full.s[0], "sigma_{i}");
            let (row, want) = (vt.row(i), full.vt.row(i));
            let same = row.iter().zip(want).map(|(a, b)| (a - b).abs());
            let flipped = row.iter().zip(want).map(|(a, b)| (a + b).abs());
            let dist = same.fold(0.0, f64::max).min(flipped.fold(0.0, f64::max));
            assert!(dist <= 1e-12, "row {i} differs by {dist:e}");
        }
        assert!(jacobi_svd_top(&a, 65).is_err());
        assert_eq!(jacobi_svd_top(&a, 0).unwrap().1.rows(), 0);
    }

    #[test]
    fn wide_zero_and_one_by_one_give_what_jacobi_svd_gives() {
        let wide = Matrix::from_fn(3, 8, |i, j| ((i * 11 + j * 3) % 7) as f64 * 0.5);
        let one = Matrix::from_vec(1, 1, vec![-2.5]).unwrap();
        for a in [wide, Matrix::zeros(4, 3), one] {
            let svd = jacobi_svd(&a).unwrap();
            assert_valid_svd(&a, &svd, 1e-12);
            let (s, vt) = jacobi_svd_top(&a, a.rows().min(a.cols())).unwrap();
            assert_eq!(s, svd.s);
            assert_eq!(vt, svd.vt);
        }
        assert_eq!(factor(Matrix::zeros(3, 4), 3, true, true).unwrap().rank, 0);
        let svd = jacobi_svd(&Matrix::from_vec(1, 1, vec![-2.5]).unwrap()).unwrap();
        assert_eq!(svd.s, [2.5]);
    }

    #[test]
    fn pivoted_output_is_deterministic() {
        let heat = Matrix::from_fn(131, 64, |i, j| {
            let (x, y) = (i as f64 / 130.0, j as f64 / 63.0);
            (-8.0 * (x - y).powi(2)).exp() + (3.0 * x * y).sin()
        });
        for a in [rank_five(), heat] {
            let (f, g) = (
                factor(a.transpose(), 64, true, true).unwrap(),
                factor(a.transpose(), 64, true, true).unwrap(),
            );
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!((f.rank, f.sweeps), (g.rank, g.sweeps));
            assert_eq!(bits(&f.s), bits(&g.s));
            assert_eq!(bits(f.vt.unwrap().data()), bits(g.vt.unwrap().data()));
            assert_eq!(bits(f.ut.unwrap().data()), bits(g.ut.unwrap().data()));
        }
    }
}
