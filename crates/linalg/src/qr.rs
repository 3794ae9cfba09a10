//! Householder QR and communication-avoiding tall-skinny QR (TSQR).
//!
//! TSQR is the building block dask-ml uses for its SVD of tall-and-skinny
//! chunked arrays; we reproduce the same structure: per-chunk local QR, then a
//! reduction tree over the stacked R factors.

use crate::matrix::{dot, par_threads, Matrix, MatrixView};
use crate::{LinalgError, Result};

/// Apply the Householder reflector `H = I - 2 v v^T / (v^T v)`, acting on
/// rows `pivot..m`, to every column of `cols` (columns of length `m`, stored
/// contiguously). `v` spans rows `pivot..m`.
///
/// Each column is one contiguous dot product and one contiguous update,
/// independent of the others, so with `threads > 1` the columns are split
/// into groups on scoped threads with no reduction: the result is
/// bit-identical to the serial one.
fn apply_reflector(
    cols: &mut [f64],
    m: usize,
    pivot: usize,
    v: &[f64],
    vnorm2: f64,
    threads: usize,
) {
    let reflect = |group: &mut [f64]| {
        for col in group.chunks_exact_mut(m) {
            let x = &mut col[pivot..];
            let f = 2.0 * dot(v, x) / vnorm2;
            for (xi, vi) in x.iter_mut().zip(v) {
                *xi -= f * vi;
            }
        }
    };
    let ncols = cols.len() / m;
    let threads = threads.clamp(1, ncols.max(1));
    if threads == 1 {
        reflect(cols);
        return;
    }
    let reflect = &reflect;
    std::thread::scope(|s| {
        for group in cols.chunks_mut(ncols.div_ceil(threads) * m) {
            s.spawn(move || reflect(group));
        }
    });
}

/// What [`qr_columns`] did to its columns.
pub(crate) struct Reduction {
    /// Householder steps taken: `min(m, n)`, or the numerical rank when a
    /// pivoted reduction stopped early.
    pub rank: usize,
    /// `perm[j]` is the input column now stored at position `j` (the
    /// identity unless pivoted).
    pub perm: Vec<usize>,
    /// The thin `Q` (`m×min(m, n)`, by columns), when asked for.
    pub q: Option<Vec<f64>>,
}

/// Householder QR in place over `n` columns of length `m` stored
/// contiguously (`a[j*m..(j+1)*m]` is column `j`: the rows of `Aᵀ`).
///
/// On return rows `0..=j` of column `j` hold column `j` of `R` (its first
/// `k = min(m, n)` rows) and every entry below the diagonal is zero. The thin
/// `Q` (`m×k`, same storage) is formed, and the reflectors kept for it, only
/// when `form_q`; a caller that keeps `R` alone pays for `R` alone.
///
/// With `stop = Some(negligible)` the reduction pivots: before step `j` the
/// column with the largest squared norm over rows `j..m` (the first such)
/// is swapped into place `j`, and the reduction stops at step `r` once
/// those trailing norms sum to at most `negligible`. Rows `r..` of the
/// columns at `r..` are then left unreduced (they are rounding), `R` has
/// `r` rows that matter, and `Q`'s columns past `r` are those of
/// `H_0 ⋯ H_{r-1}`, still orthonormal. With `None` every column is reduced
/// in place, in order.
pub(crate) fn qr_columns(
    a: &mut [f64],
    m: usize,
    n: usize,
    form_q: bool,
    stop: Option<f64>,
) -> Reduction {
    let k = m.min(n);
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rank = k;
    let mut reflectors: Vec<(usize, Vec<f64>, f64)> = Vec::new();
    for j in 0..k {
        if let Some(negligible) = stop {
            let norms: Vec<f64> = a[j * m..]
                .chunks_exact(m)
                .map(|c| dot(&c[j..], &c[j..]))
                .collect();
            if norms.iter().sum::<f64>() <= negligible {
                rank = j;
                break;
            }
            let p = j + (0..norms.len()).fold(0, |b, i| if norms[i] > norms[b] { i } else { b });
            if p != j {
                let (head, tail) = a.split_at_mut(p * m);
                head[j * m..(j + 1) * m].swap_with_slice(&mut tail[..m]);
                perm.swap(j, p);
            }
        }
        let (head, trailing) = a.split_at_mut((j + 1) * m);
        let x = &mut head[j * m + j..];
        let norm = dot(x, x).sqrt();
        if norm == 0.0 {
            // Column already zero on and below the diagonal.
            continue;
        }
        let alpha = if x[0] >= 0.0 { -norm } else { norm };
        let mut v = x.to_vec();
        v[0] -= alpha;
        let vnorm2 = dot(&v, &v);
        // H maps the column onto alpha·e_j; write that exactly.
        x[0] = alpha;
        x[1..].fill(0.0);
        let threads = par_threads(n - j - 1, 2 * (m - j) * (n - j - 1));
        apply_reflector(trailing, m, j, &v, vnorm2, threads);
        if form_q {
            reflectors.push((j, v, vnorm2));
        }
    }
    // Q = H_0 ⋯ H_{r-1} applied to the first k columns of I, last reflector
    // first; H_j leaves columns left of j (still e_i, i < j) untouched.
    let q = form_q.then(|| {
        let mut q = vec![0.0; m * k];
        for i in 0..k {
            q[i * m + i] = 1.0;
        }
        for (j, v, vnorm2) in reflectors.iter().rev() {
            let threads = par_threads(k - j, 2 * (m - j) * (k - j));
            apply_reflector(&mut q[j * m..], m, *j, v, *vnorm2, threads);
        }
        q
    });
    Reduction { rank, perm, q }
}

/// Thin QR decomposition `A = Q R` with `Q: m×k`, `R: k×n`, `k = min(m, n)`.
pub struct Qr {
    /// Orthonormal factor (thin).
    pub q: Matrix,
    /// Upper-triangular factor.
    pub r: Matrix,
}

/// Factor `a` in column storage; `R` (`k×n`) and, when asked, `Q` (`m×k`).
fn factor(a: MatrixView<'_>, form_q: bool) -> Result<(Matrix, Option<Matrix>)> {
    let (m, n) = (a.rows(), a.cols());
    if m == 0 || n == 0 {
        return Err(LinalgError::InvalidArgument {
            what: "QR of an empty matrix".into(),
        });
    }
    let k = m.min(n);
    let mut at = a.transpose();
    let q = qr_columns(at.data_mut(), m, n, form_q, None).q;
    let r = Matrix::from_fn(k, n, |i, j| if i <= j { at[(j, i)] } else { 0.0 });
    let q = match q {
        Some(q) => Some(Matrix::from_vec(k, m, q)?.transpose()),
        None => None,
    };
    Ok((r, q))
}

/// Householder QR returning the thin factors.
///
/// Numerically stable for any `m >= 1`, `n >= 1`. Cost `O(m n^2)`.
pub fn householder_qr(a: &Matrix) -> Result<Qr> {
    let (r, q) = factor(a.as_view(), true)?;
    Ok(Qr {
        q: q.expect("Q was asked for"),
        r,
    })
}

/// The triangular factor `R` (`k×n`) of [`householder_qr`] alone, straight
/// from a borrowed buffer: no `Q`, no reflectors kept. What a TSQR node or
/// an SVD that discards `U` needs.
pub fn householder_r(a: MatrixView<'_>) -> Result<Matrix> {
    Ok(factor(a, false)?.0)
}

/// Tall-skinny QR over row blocks.
///
/// Each block gets a local QR; the stacked `R` factors are reduced pairwise in
/// a tree until one `R` remains; local `Q`s are then back-multiplied by the
/// tree `Q` pieces. Returns thin `Q` (same row partitioning as the input,
/// concatenated) and `R`.
///
/// Requires every block to have at least as many rows as columns would be
/// ideal, but the implementation is correct for any block heights as long as
/// the *total* row count is >= the column count.
pub fn tsqr(blocks: &[Matrix]) -> Result<Qr> {
    let first = blocks.first().ok_or_else(|| LinalgError::InvalidArgument {
        what: "tsqr of zero blocks".into(),
    })?;
    let n = first.cols();
    for b in blocks {
        if b.cols() != n {
            return Err(LinalgError::ShapeMismatch {
                what: format!("tsqr block cols {} vs {}", b.cols(), n),
            });
        }
    }
    let total_rows: usize = blocks.iter().map(|b| b.rows()).sum();
    if total_rows < n {
        return Err(LinalgError::InvalidArgument {
            what: format!("tsqr: total rows {total_rows} < cols {n}"),
        });
    }
    // Level 0: local QRs — independent per block, so run them on scoped
    // threads when there is enough work.
    let level0_threads = par_threads(blocks.len(), total_rows * n * n);
    let mut qs: Vec<Matrix> = Vec::with_capacity(blocks.len());
    let mut rs: Vec<Matrix> = Vec::with_capacity(blocks.len());
    if level0_threads <= 1 {
        for b in blocks {
            let qr = householder_qr(b)?;
            qs.push(qr.q);
            rs.push(qr.r);
        }
    } else {
        let per_chunk = blocks.len().div_ceil(level0_threads);
        let chunk_results: Vec<Result<Vec<Qr>>> = std::thread::scope(|s| {
            let handles: Vec<_> = blocks
                .chunks(per_chunk)
                .map(|chunk| s.spawn(move || chunk.iter().map(householder_qr).collect()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("local QR panicked"))
                .collect()
        });
        for chunk in chunk_results {
            for qr in chunk? {
                qs.push(qr.q);
                rs.push(qr.r);
            }
        }
    }
    // Reduction tree over R factors. Track, for each original block, the chain
    // of (level, pair-slot) multiplications to apply. Simpler: at each level,
    // keep for each surviving node the list of original block indices and the
    // per-block accumulated Q factors.
    // groups[g] = (R factor, Vec<(block_idx, q_chain)>) where q_chain is the
    // matrix each original local Q must be multiplied by.
    struct Group {
        r: Matrix,
        members: Vec<(usize, Matrix)>, // (block index, accumulated right factor)
    }
    let mut groups: Vec<Group> = rs
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let k = r.rows();
            Group {
                r,
                members: vec![(i, Matrix::eye(k))],
            }
        })
        .collect();
    while groups.len() > 1 {
        let mut next: Vec<Group> = Vec::with_capacity(groups.len().div_ceil(2));
        let mut it = groups.into_iter();
        while let Some(g1) = it.next() {
            match it.next() {
                None => next.push(g1),
                Some(g2) => {
                    let stacked = Matrix::vstack(&[&g1.r, &g2.r])?;
                    let qr = householder_qr(&stacked)?;
                    // Split tree Q rows between the two children.
                    let k1 = g1.r.rows();
                    let q_top = qr.q.take_rows(k1)?;
                    let q_bot = Matrix::from_vec(
                        qr.q.rows() - k1,
                        qr.q.cols(),
                        qr.q.data()[k1 * qr.q.cols()..].to_vec(),
                    )?;
                    let mut members = Vec::with_capacity(g1.members.len() + g2.members.len());
                    for (idx, chain) in g1.members {
                        members.push((idx, chain.matmul(&q_top)?));
                    }
                    for (idx, chain) in g2.members {
                        members.push((idx, chain.matmul(&q_bot)?));
                    }
                    next.push(Group { r: qr.r, members });
                }
            }
        }
        groups = next;
    }
    let root = groups.pop().expect("one group remains");
    // Assemble Q: each block's thin local Q times its accumulated chain —
    // again independent per block, so fan the products out.
    let assembly_threads = par_threads(root.members.len(), total_rows * n * n);
    let mut finals: Vec<Option<Matrix>> = (0..blocks.len()).map(|_| None).collect();
    if assembly_threads <= 1 {
        for (idx, chain) in root.members {
            finals[idx] = Some(qs[idx].matmul_par(&chain, 1)?);
        }
    } else {
        let per_chunk = root.members.len().div_ceil(assembly_threads);
        let products: Vec<Result<Vec<(usize, Matrix)>>> = std::thread::scope(|s| {
            let handles: Vec<_> = root
                .members
                .chunks(per_chunk)
                .map(|chunk| {
                    let qs = &qs;
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|(idx, chain)| Ok((*idx, qs[*idx].matmul_par(chain, 1)?)))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("Q assembly panicked"))
                .collect()
        });
        for chunk in products {
            for (idx, q) in chunk? {
                finals[idx] = Some(q);
            }
        }
    }
    let parts: Vec<Matrix> = finals
        .into_iter()
        .map(|m| m.expect("every block mapped"))
        .collect();
    let refs: Vec<&Matrix> = parts.iter().collect();
    Ok(Qr {
        q: Matrix::vstack(&refs)?,
        r: root.r,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_orthonormal_cols(q: &Matrix, tol: f64) {
        let qtq = q.t_matmul(q).unwrap();
        let eye = Matrix::eye(q.cols());
        assert!(
            qtq.max_abs_diff(&eye).unwrap() < tol,
            "Q columns not orthonormal: err {}",
            qtq.max_abs_diff(&eye).unwrap()
        );
    }

    fn assert_reconstructs(a: &Matrix, q: &Matrix, r: &Matrix, tol: f64) {
        let qr = q.matmul(r).unwrap();
        assert!(
            qr.max_abs_diff(a).unwrap() < tol,
            "QR != A: err {}",
            qr.max_abs_diff(a).unwrap()
        );
    }

    #[test]
    fn qr_square() {
        let a = Matrix::from_fn(5, 5, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let qr = householder_qr(&a).unwrap();
        assert_orthonormal_cols(&qr.q, 1e-10);
        assert_reconstructs(&a, &qr.q, &qr.r, 1e-10);
    }

    #[test]
    fn qr_tall() {
        let a = Matrix::from_fn(20, 4, |i, j| (i as f64 + 1.0).powi(j as i32));
        let qr = householder_qr(&a).unwrap();
        assert_eq!(qr.q.rows(), 20);
        assert_eq!(qr.q.cols(), 4);
        assert_eq!(qr.r.rows(), 4);
        assert_orthonormal_cols(&qr.q, 1e-9);
        assert_reconstructs(&a, &qr.q, &qr.r, 1e-8);
    }

    #[test]
    fn qr_wide() {
        let a = Matrix::from_fn(3, 6, |i, j| ((i * 13 + j * 5) % 7) as f64);
        let qr = householder_qr(&a).unwrap();
        assert_eq!(qr.q.cols(), 3);
        assert_eq!(qr.r.rows(), 3);
        assert_orthonormal_cols(&qr.q, 1e-10);
        assert_reconstructs(&a, &qr.q, &qr.r, 1e-10);
    }

    #[test]
    fn qr_r_is_upper_triangular() {
        let a = Matrix::from_fn(6, 4, |i, j| ((i + 1) * (j + 2)) as f64 % 5.0 - 2.0);
        let qr = householder_qr(&a).unwrap();
        for i in 0..qr.r.rows() {
            for j in 0..i.min(qr.r.cols()) {
                assert!(qr.r[(i, j)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qr_rank_deficient_column() {
        // Second column is zero.
        let a = Matrix::from_fn(5, 3, |i, j| if j == 1 { 0.0 } else { (i + j) as f64 + 1.0 });
        let qr = householder_qr(&a).unwrap();
        assert_reconstructs(&a, &qr.q, &qr.r, 1e-10);
    }

    #[test]
    fn tsqr_matches_direct_qr_reconstruction() {
        let a = Matrix::from_fn(24, 5, |i, j| ((i * 17 + j * 29) % 23) as f64 * 0.3 - 3.0);
        // Split into uneven row blocks.
        let blocks = vec![
            a.take_rows(7).unwrap(),
            Matrix::from_vec(9, 5, a.data()[7 * 5..16 * 5].to_vec()).unwrap(),
            Matrix::from_vec(8, 5, a.data()[16 * 5..24 * 5].to_vec()).unwrap(),
        ];
        let qr = tsqr(&blocks).unwrap();
        assert_eq!(qr.q.rows(), 24);
        assert_orthonormal_cols(&qr.q, 1e-9);
        assert_reconstructs(&a, &qr.q, &qr.r, 1e-9);
    }

    #[test]
    fn tsqr_single_block_degenerates_to_qr() {
        let a = Matrix::from_fn(10, 3, |i, j| (i * 3 + j) as f64 * 0.1 + 1.0);
        let qr = tsqr(std::slice::from_ref(&a)).unwrap();
        assert_orthonormal_cols(&qr.q, 1e-10);
        assert_reconstructs(&a, &qr.q, &qr.r, 1e-10);
    }

    #[test]
    fn tsqr_many_small_blocks() {
        let a = Matrix::from_fn(33, 4, |i, j| ((i * 5 + j * 11) % 13) as f64 - 6.0);
        let mut blocks = Vec::new();
        let mut row = 0;
        for h in [4usize, 4, 4, 4, 4, 4, 4, 5] {
            blocks.push(Matrix::from_vec(h, 4, a.data()[row * 4..(row + h) * 4].to_vec()).unwrap());
            row += h;
        }
        let qr = tsqr(&blocks).unwrap();
        assert_orthonormal_cols(&qr.q, 1e-9);
        assert_reconstructs(&a, &qr.q, &qr.r, 1e-9);
    }

    #[test]
    fn parallel_reflector_matches_serial() {
        // 9 columns of length 41, stored contiguously.
        let (m, ncols) = (41usize, 9usize);
        let base: Vec<f64> = (0..m * ncols)
            .map(|x| ((x * 13 + (x / m) * 29) % 19) as f64 * 0.5 - 4.0)
            .collect();
        let pivot = 3usize;
        let v: Vec<f64> = (0..m - pivot)
            .map(|i| ((i * 7 + 2) % 11) as f64 - 5.0)
            .collect();
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        let mut serial = base.clone();
        apply_reflector(&mut serial, m, pivot, &v, vnorm2, 1);
        for threads in [2, 4, 9, 64] {
            let mut par = base.clone();
            apply_reflector(&mut par, m, pivot, &v, vnorm2, threads);
            // Columns are independent: no reduction to reorder.
            assert_eq!(par, serial, "threads={threads}");
        }
        // Rows above the pivot are untouched; the reflection keeps norms.
        for (b, s) in base.chunks(m).zip(serial.chunks(m)) {
            assert_eq!(b[..pivot], s[..pivot]);
            let norm = |c: &[f64]| c.iter().map(|x| x * x).sum::<f64>();
            assert!((norm(b) - norm(s)).abs() < 1e-9 * norm(b));
        }
    }

    #[test]
    fn r_alone_is_the_r_of_the_full_factorization() {
        for (m, n) in [(20, 4), (5, 5), (3, 6), (131, 64)] {
            let a = Matrix::from_fn(m, n, |i, j| ((i * 17 + j * 29) % 23) as f64 * 0.3 - 3.0);
            let r = householder_r(a.as_view()).unwrap();
            assert_eq!(r, householder_qr(&a).unwrap().r, "{m}x{n}");
        }
        assert!(householder_r(Matrix::zeros(0, 2).as_view()).is_err());
    }

    #[test]
    fn pivoted_reduction_stops_at_the_rank_and_reconstructs() {
        // Column 3 is column 0 + column 1 and column 4 is zero: rank 3 of 5.
        let (m, n) = (9, 5);
        let base = |i: usize, j: usize| ((i * 7 + j * 3) % 11) as f64 * 0.5 + (i * j) as f64;
        let a = Matrix::from_fn(m, n, |i, j| match j {
            3 => base(i, 0) + base(i, 1),
            4 => 0.0,
            _ => base(i, j),
        });
        let mut at = a.transpose();
        let fro2: f64 = a.data().iter().map(|x| x * x).sum();
        let negligible = (n as f64 * f64::EPSILON).powi(2) * fro2;
        let red = qr_columns(at.data_mut(), m, n, true, Some(negligible));
        assert_eq!(red.rank, 3);
        let mut sorted = red.perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        // Q_r·R reproduces every input column in its permuted place.
        let q = Matrix::from_vec(n, m, red.q.unwrap()).unwrap().transpose();
        assert_orthonormal_cols(&q, 1e-12);
        let r = Matrix::from_fn(red.rank, n, |i, j| if i <= j { at[(j, i)] } else { 0.0 });
        let qr = q.take_cols(red.rank).unwrap().matmul(&r).unwrap();
        for (j, &c) in red.perm.iter().enumerate() {
            for i in 0..m {
                assert!((qr[(i, j)] - a[(i, c)]).abs() < 1e-12, "column {c}");
            }
        }
        // Unpivoted, the same loop reduces every column in place.
        let red = qr_columns(a.transpose().data_mut(), m, n, false, None);
        assert_eq!((red.rank, red.perm), (n, (0..n).collect()));
        assert!(red.q.is_none());
    }

    #[test]
    fn tsqr_errors() {
        assert!(tsqr(&[]).is_err());
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert!(tsqr(&[a.clone(), b]).is_err());
        // total rows < cols
        assert!(tsqr(&[a]).is_err());
    }
}
