//! 2-D matrix type with cache-blocked, band-parallel multiplication.
//!
//! `Matrix` is the working type of the QR/SVD kernels. It is deliberately a
//! plain row-major `Vec<f64>` (per the perf-book guidance: flat storage, no
//! pointer chasing) with a micro-kernel-free but cache-blocked `matmul`.
//! Large products additionally split the output into row bands and compute
//! them on scoped threads — bands of the row-major output are disjoint
//! `&mut` slices, so the parallelism needs no locks and no extra
//! dependencies.

use crate::ndarray::NDArray;
use crate::{LinalgError, Result};

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

/// Block size for the cache-blocked matmul; chosen so three blocks of
/// `B*B` f64 fit comfortably in L1/L2.
const MM_BLOCK: usize = 64;

/// Minimum work (inner-loop multiply-adds) to justify one extra thread —
/// below this, thread spawn/join overhead beats the parallel win.
const PAR_MIN_WORK: usize = 1 << 16;

/// Thread count for a kernel with `max_units` independent work units and
/// `work` total multiply-adds: capped by the machine, the units, and a
/// minimum amount of work per thread. Returns 1 on small problems.
///
/// Small problems never ask the machine, and the rest ask once per process:
/// `available_parallelism` costs ~16 µs on Linux (affinity mask plus cgroup
/// quota files) and a QR asks once per reflector, which made a 131×64
/// `householder_r` take 920 µs instead of 150.
pub(crate) fn par_threads(max_units: usize, work: usize) -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let wanted = max_units.max(1).min((work / PAR_MIN_WORK).max(1));
    if wanted == 1 {
        return 1;
    }
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    cores.min(wanted)
}

/// Dot product over four independent partial sums (the adds pipeline and
/// vectorise; the order differs from a sequential sum by rounding only).
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let (xs, ys) = (x.chunks_exact(4), y.chunks_exact(4));
    let tail: f64 = xs
        .remainder()
        .iter()
        .zip(ys.remainder())
        .map(|(a, b)| a * b)
        .sum();
    for (a, b) in xs.zip(ys) {
        for ((s, x), y) in acc.iter_mut().zip(a).zip(b) {
            *s += x * y;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Cache-blocked multiply of one row band: `out` covers output rows
/// `row0 ..` (its length dictates how many), `a` is the full `m×k` left
/// operand, `b` the full `k×n` right operand.
fn matmul_band(a: &[f64], b: &[f64], out: &mut [f64], row0: usize, k: usize, n: usize) {
    let rows = out.len() / n;
    for ib in (0..rows).step_by(MM_BLOCK) {
        let imax = (ib + MM_BLOCK).min(rows);
        for kb in (0..k).step_by(MM_BLOCK) {
            let kmax = (kb + MM_BLOCK).min(k);
            for jb in (0..n).step_by(MM_BLOCK) {
                let jmax = (jb + MM_BLOCK).min(n);
                for i in ib..imax {
                    let arow = &a[(row0 + i) * k..(row0 + i) * k + k];
                    let orow = &mut out[i * n..i * n + n];
                    for kk in kb..kmax {
                        let v = arow[kk];
                        if v == 0.0 {
                            continue;
                        }
                        let brow = &b[kk * n..kk * n + n];
                        for j in jb..jmax {
                            orow[j] += v * brow[j];
                        }
                    }
                }
            }
        }
    }
}

/// Borrowed row-major matrix over an existing `f64` buffer.
///
/// Kernels that receive their operands as shared [`NDArray`]s (the worker
/// hands blocks around as `Arc<NDArray>`) can wrap the buffer in a view via
/// [`Matrix::from_ndarray_ref`] and multiply/transpose/stack without first
/// deep-copying into an owned [`Matrix`]. The only copy is the output.
#[derive(Clone, Copy)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl std::fmt::Debug for MatrixView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MatrixView({}x{})", self.rows, self.cols)
    }
}

/// Shared band-parallel multiply over raw row-major buffers; `threads` is
/// clamped to `[1, m]`. Both [`Matrix::matmul_par`] and
/// [`MatrixView::matmul`] bottom out here.
fn matmul_slices(a: &[f64], b: &[f64], m: usize, k: usize, n: usize, threads: usize) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    let threads = threads.clamp(1, m);
    if threads == 1 {
        matmul_band(a, b, &mut out.data, 0, k, n);
    } else {
        let band = m.div_ceil(threads);
        std::thread::scope(|s| {
            for (t, chunk) in out.data.chunks_mut(band * n).enumerate() {
                s.spawn(move || matmul_band(a, b, chunk, t * band, k, n));
            }
        });
    }
    out
}

impl<'a> MatrixView<'a> {
    /// View `data` as a `rows × cols` row-major matrix.
    pub fn new(rows: usize, cols: usize, data: &'a [f64]) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                what: format!(
                    "{rows}x{cols} view wants {} elements, got {}",
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(MatrixView { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data.
    pub fn data(&self) -> &'a [f64] {
        self.data
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy into an owned [`Matrix`] (the one explicit copy).
    pub fn to_matrix(&self) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.to_vec(),
        }
    }

    /// Transposed copy, straight from the borrowed buffer.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Cache-blocked, band-parallel `self * rhs` without owning either
    /// operand. Same threading policy as [`Matrix::matmul`].
    pub fn matmul(&self, rhs: &MatrixView<'_>) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                what: format!("{}x{} * {}x{}", self.rows, self.cols, rhs.rows, rhs.cols),
            });
        }
        let threads = par_threads(self.rows, self.rows * self.cols * rhs.cols);
        Ok(matmul_slices(
            self.data, rhs.data, self.rows, self.cols, rhs.cols, threads,
        ))
    }

    /// Stack views vertically into an owned matrix (single output copy).
    pub fn vstack(parts: &[MatrixView<'_>]) -> Result<Matrix> {
        let first = parts.first().ok_or_else(|| LinalgError::InvalidArgument {
            what: "vstack of zero matrices".into(),
        })?;
        let cols = first.cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            if p.cols != cols {
                return Err(LinalgError::ShapeMismatch {
                    what: format!("vstack: {} cols vs {} cols", p.cols, cols),
                });
            }
            data.extend_from_slice(p.data);
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                what: format!(
                    "{rows}x{cols} wants {} elements, got {}",
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// View a 2-D [`NDArray`] as a matrix (copy-free move of the buffer).
    pub fn from_ndarray(a: NDArray) -> Result<Self> {
        if a.ndim() != 2 {
            return Err(LinalgError::ShapeMismatch {
                what: format!("expected 2-D array, got {:?}", a.shape()),
            });
        }
        let (r, c) = (a.shape()[0], a.shape()[1]);
        Matrix::from_vec(r, c, a.into_vec())
    }

    /// Borrow a 2-D [`NDArray`] as a [`MatrixView`] — no copy at all, unlike
    /// [`Matrix::from_ndarray`] which needs ownership of the buffer.
    pub fn from_ndarray_ref(a: &NDArray) -> Result<MatrixView<'_>> {
        if a.ndim() != 2 {
            return Err(LinalgError::ShapeMismatch {
                what: format!("expected 2-D array, got {:?}", a.shape()),
            });
        }
        MatrixView::new(a.shape()[0], a.shape()[1], a.data())
    }

    /// Borrow this matrix as a [`MatrixView`].
    pub fn as_view(&self) -> MatrixView<'_> {
        MatrixView {
            rows: self.rows,
            cols: self.cols,
            data: &self.data,
        }
    }

    /// Convert into a 2-D [`NDArray`].
    pub fn into_ndarray(self) -> NDArray {
        NDArray::from_vec(&[self.rows, self.cols], self.data).expect("consistent shape")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Cache-blocked matrix multiplication `self * rhs`, parallelized over
    /// output row bands when the product is large enough to pay for it.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let threads = par_threads(self.rows, self.rows * self.cols * rhs.cols);
        self.matmul_par(rhs, threads)
    }

    /// [`Matrix::matmul`] with an explicit thread count (`1` = serial).
    /// Bands of output rows are computed on scoped threads; each band is a
    /// disjoint `&mut` slice of the row-major output.
    pub fn matmul_par(&self, rhs: &Matrix, threads: usize) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                what: format!("{}x{} * {}x{}", self.rows, self.cols, rhs.rows, rhs.cols),
            });
        }
        Ok(matmul_slices(
            &self.data, &rhs.data, self.rows, self.cols, rhs.cols, threads,
        ))
    }

    /// `self^T * rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                what: format!(
                    "({}x{})^T * {}x{}",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
            });
        }
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            let arow = &self.data[kk * self.cols..(kk + 1) * self.cols];
            let brow = &rhs.data[kk * n..(kk + 1) * n];
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * n..(i + 1) * n];
                for j in 0..n {
                    orow[j] += a * brow[j];
                }
            }
        }
        Ok(out)
    }

    /// Scale every element in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Stack matrices vertically (all must share a column count).
    pub fn vstack(parts: &[&Matrix]) -> Result<Matrix> {
        let first = parts.first().ok_or_else(|| LinalgError::InvalidArgument {
            what: "vstack of zero matrices".into(),
        })?;
        let cols = first.cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            if p.cols != cols {
                return Err(LinalgError::ShapeMismatch {
                    what: format!("vstack: {} cols vs {} cols", p.cols, cols),
                });
            }
            data.extend_from_slice(&p.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Copy of the first `k` columns.
    pub fn take_cols(&self, k: usize) -> Result<Matrix> {
        if k > self.cols {
            return Err(LinalgError::InvalidArgument {
                what: format!("take_cols({k}) of a {}-column matrix", self.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, k);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[..k]);
        }
        Ok(out)
    }

    /// Copy of the first `k` rows.
    pub fn take_rows(&self, k: usize) -> Result<Matrix> {
        if k > self.rows {
            return Err(LinalgError::InvalidArgument {
                what: format!("take_rows({k}) of a {}-row matrix", self.rows),
            });
        }
        Ok(Matrix {
            rows: k,
            cols: self.cols,
            data: self.data[..k * self.cols].to_vec(),
        })
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                what: "max_abs_diff".into(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Matrix::from_fn(7, 5, |i, j| (i * 5 + j) as f64 * 0.5 - 3.0);
        let b = Matrix::from_fn(5, 9, |i, j| ((i + 2) * (j + 1)) as f64 * 0.25);
        let blocked = a.matmul(&b).unwrap();
        let naive = naive_matmul(&a, &b);
        assert!(blocked.max_abs_diff(&naive).unwrap() < 1e-12);
    }

    #[test]
    fn matmul_blocked_large() {
        let a = Matrix::from_fn(130, 70, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(70, 90, |i, j| ((i * 3 + j * 11) % 17) as f64 - 8.0);
        let blocked = a.matmul(&b).unwrap();
        let naive = naive_matmul(&a, &b);
        assert!(blocked.max_abs_diff(&naive).unwrap() < 1e-9);
    }

    #[test]
    fn matmul_par_matches_serial_any_thread_count() {
        let a = Matrix::from_fn(67, 33, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(33, 41, |i, j| ((i * 3 + j * 11) % 17) as f64 - 8.0);
        let serial = a.matmul_par(&b, 1).unwrap();
        for threads in [2, 3, 5, 8, 100] {
            let par = a.matmul_par(&b, threads).unwrap();
            assert!(
                par.max_abs_diff(&serial).unwrap() == 0.0,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_threads_is_capped_by_units_work_and_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // A 131×64 QR's first reflector: too little work for a second thread.
        assert_eq!(par_threads(63, 2 * 131 * 63), 1);
        assert_eq!(par_threads(0, 0), 1);
        assert_eq!(par_threads(1, usize::MAX), 1);
        assert_eq!(par_threads(3, 100 * PAR_MIN_WORK), cores.min(3));
        assert_eq!(par_threads(1000, 2 * PAR_MIN_WORK), cores.min(2));
    }

    #[test]
    fn matmul_par_degenerate_shapes() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(a.matmul_par(&b, 4).unwrap().rows(), 0);
        let a = Matrix::from_fn(3, 1, |i, _| i as f64);
        let b = Matrix::from_fn(1, 1, |_, _| 2.0);
        let r = a.matmul_par(&b, 7).unwrap();
        assert_eq!(r[(2, 0)], 4.0);
    }

    #[test]
    fn t_matmul_matches_transpose_then_mul() {
        let a = Matrix::from_fn(6, 4, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f64 * 0.1);
        let direct = a.t_matmul(&b).unwrap();
        let via_t = a.transpose().matmul(&b).unwrap();
        assert!(direct.max_abs_diff(&via_t).unwrap() < 1e-12);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let i4 = Matrix::eye(4);
        assert!(a.matmul(&i4).unwrap().max_abs_diff(&a).unwrap() < 1e-15);
        assert!(i4.matmul(&a).unwrap().max_abs_diff(&a).unwrap() < 1e-15);
    }

    #[test]
    fn vstack_and_take() {
        let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let b = Matrix::from_fn(1, 3, |_, j| 100.0 + j as f64);
        let s = Matrix::vstack(&[&a, &b]).unwrap();
        assert_eq!(s.rows(), 3);
        assert_eq!(s[(2, 1)], 101.0);
        assert_eq!(s.take_rows(2).unwrap().max_abs_diff(&a).unwrap(), 0.0);
        let c = s.take_cols(2).unwrap();
        assert_eq!(c.cols(), 2);
        assert_eq!(c[(2, 1)], 101.0);
    }

    #[test]
    fn shape_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.take_cols(4).is_err());
        assert!(a.take_rows(3).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn view_matmul_transpose_vstack_match_owned() {
        let a = Matrix::from_fn(9, 6, |i, j| ((i * 11 + j * 5) % 7) as f64 - 3.0);
        let b = Matrix::from_fn(6, 4, |i, j| ((i * 3 + j) % 5) as f64 * 0.5);
        let owned = a.matmul(&b).unwrap();
        let via_view = a.as_view().matmul(&b.as_view()).unwrap();
        assert_eq!(via_view.max_abs_diff(&owned).unwrap(), 0.0);
        assert_eq!(
            a.as_view()
                .transpose()
                .max_abs_diff(&a.transpose())
                .unwrap(),
            0.0
        );
        let stacked = MatrixView::vstack(&[a.as_view(), a.as_view()]).unwrap();
        assert_eq!(stacked.rows(), 18);
        assert_eq!(stacked.take_rows(9).unwrap().max_abs_diff(&a).unwrap(), 0.0);
        assert_eq!(a.as_view().to_matrix().max_abs_diff(&a).unwrap(), 0.0);
    }

    #[test]
    fn view_shape_errors() {
        assert!(MatrixView::new(2, 3, &[0.0; 5]).is_err());
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.as_view().matmul(&b.as_view()).is_err());
        assert!(MatrixView::vstack(&[a.as_view(), Matrix::zeros(1, 2).as_view()]).is_err());
        assert!(MatrixView::vstack(&[]).is_err());
        let nd3 = NDArray::zeros(&[2, 2, 2]);
        assert!(Matrix::from_ndarray_ref(&nd3).is_err());
    }

    #[test]
    fn from_ndarray_ref_borrows_without_copy() {
        let nd = NDArray::from_vec(&[2, 3], (0..6).map(|v| v as f64).collect()).unwrap();
        let v = Matrix::from_ndarray_ref(&nd).unwrap();
        assert_eq!(v.rows(), 2);
        assert_eq!(v.cols(), 3);
        assert!(std::ptr::eq(v.data().as_ptr(), nd.data().as_ptr()));
        assert_eq!(v.row(1), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn ndarray_roundtrip() {
        let a = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let nd = a.clone().into_ndarray();
        assert_eq!(nd.shape(), &[3, 2]);
        let back = Matrix::from_ndarray(nd).unwrap();
        assert_eq!(back.max_abs_diff(&a).unwrap(), 0.0);
    }
}
