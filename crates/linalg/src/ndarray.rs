//! Row-major dense n-dimensional array of `f64`.
//!
//! This is the in-memory block type flowing through the whole reproduction:
//! simulation blocks, Dask-style chunks, and IPCA batches are all `NDArray`s.

use crate::{LinalgError, Result};

/// A dense, row-major n-dimensional array of `f64`.
#[derive(Clone, PartialEq)]
pub struct NDArray {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl std::fmt::Debug for NDArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NDArray(shape={:?}, len={})",
            self.shape,
            self.data.len()
        )
    }
}

/// Number of elements implied by a shape (empty shape = scalar = 1 element),
/// or `None` when the product overflows `usize`: a shape read from outside
/// the program must not wrap to a small count.
pub fn checked_shape_len(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// Number of elements implied by a shape (empty shape = scalar = 1 element).
///
/// # Panics
/// When the product overflows `usize`; no such array can exist.
pub fn shape_len(shape: &[usize]) -> usize {
    checked_shape_len(shape).expect("shape element count overflows usize")
}

/// Row-major strides for a shape.
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

impl NDArray {
    /// Create an array of `shape` filled with `value`.
    pub fn full(shape: &[usize], value: f64) -> Self {
        NDArray {
            shape: shape.to_vec(),
            data: vec![value; shape_len(shape)],
        }
    }

    /// Create an array of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Create an array from raw row-major data.
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Result<Self> {
        if checked_shape_len(shape) != Some(data.len()) {
            return Err(LinalgError::ShapeMismatch {
                what: format!("shape {:?} vs {} elements", shape, data.len()),
            });
        }
        Ok(NDArray {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Build an array by evaluating `f` at every multi-index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let n = shape_len(shape);
        let mut data = Vec::with_capacity(n);
        let mut idx = vec![0usize; shape.len()];
        for _ in 0..n {
            data.push(f(&idx));
            // odometer increment
            for d in (0..shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        NDArray {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The array's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the raw buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Flat row-major offset of a multi-index, by Horner's rule over the
    /// shape (no stride vector per call).
    fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        idx.iter().zip(&self.shape).fold(0, |o, (i, n)| o * n + i)
    }

    /// Element at a multi-index.
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.offset(idx)]
    }

    /// Set element at a multi-index.
    pub fn set(&mut self, idx: &[usize], value: f64) {
        let o = self.offset(idx);
        self.data[o] = value;
    }

    /// Reshape without copying; the element count must match.
    pub fn reshape(mut self, shape: &[usize]) -> Result<Self> {
        if shape_len(shape) != self.data.len() {
            return Err(LinalgError::ShapeMismatch {
                what: format!("cannot reshape {:?} into {:?}", self.shape, shape),
            });
        }
        self.shape = shape.to_vec();
        Ok(self)
    }

    /// Copy a hyper-rectangular region `starts[d]..starts[d]+sizes[d]` into a
    /// new contiguous array. This is the core of block extraction/selection.
    pub fn slice(&self, starts: &[usize], sizes: &[usize]) -> Result<NDArray> {
        if starts.len() != self.ndim() || sizes.len() != self.ndim() {
            return Err(LinalgError::ShapeMismatch {
                what: format!("slice rank {} vs array rank {}", starts.len(), self.ndim()),
            });
        }
        for d in 0..self.ndim() {
            if starts[d] + sizes[d] > self.shape[d] {
                return Err(LinalgError::InvalidArgument {
                    what: format!(
                        "slice dim {d}: {}..{} out of bounds 0..{}",
                        starts[d],
                        starts[d] + sizes[d],
                        self.shape[d]
                    ),
                });
            }
        }
        let mut out = NDArray::zeros(sizes);
        if out.is_empty() {
            return Ok(out);
        }
        // Copy row-by-row along the last dimension for contiguity.
        let last = self.ndim() - 1;
        let row = sizes[last];
        let nrows = shape_len(sizes) / row.max(1);
        let src_strides = strides_for(&self.shape);
        let mut idx = vec![0usize; self.ndim()]; // index within the slice, last dim 0
        for r in 0..nrows {
            let mut src_off = 0usize;
            for d in 0..self.ndim() {
                src_off += (starts[d] + idx[d]) * src_strides[d];
            }
            out.data[r * row..(r + 1) * row].copy_from_slice(&self.data[src_off..src_off + row]);
            for d in (0..last).rev() {
                idx[d] += 1;
                if idx[d] < sizes[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Ok(out)
    }

    /// Write `block` into the region starting at `starts` (inverse of `slice`).
    pub fn assign_slice(&mut self, starts: &[usize], block: &NDArray) -> Result<()> {
        let sizes = block.shape().to_vec();
        if starts.len() != self.ndim() || sizes.len() != self.ndim() {
            return Err(LinalgError::ShapeMismatch {
                what: format!("assign rank {} vs array rank {}", sizes.len(), self.ndim()),
            });
        }
        for d in 0..self.ndim() {
            if starts[d] + sizes[d] > self.shape[d] {
                return Err(LinalgError::InvalidArgument {
                    what: format!("assign dim {d} out of bounds"),
                });
            }
        }
        if block.is_empty() {
            return Ok(());
        }
        let last = self.ndim() - 1;
        let row = sizes[last];
        let nrows = shape_len(&sizes) / row.max(1);
        let dst_strides = strides_for(&self.shape);
        let mut idx = vec![0usize; self.ndim()];
        for r in 0..nrows {
            let mut dst_off = 0usize;
            for d in 0..self.ndim() {
                dst_off += (starts[d] + idx[d]) * dst_strides[d];
            }
            self.data[dst_off..dst_off + row].copy_from_slice(&block.data[r * row..(r + 1) * row]);
            for d in (0..last).rev() {
                idx[d] += 1;
                if idx[d] < sizes[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        Ok(())
    }

    /// Element-wise binary operation; shapes must match exactly.
    pub fn zip_with(&self, other: &NDArray, f: impl Fn(f64, f64) -> f64) -> Result<NDArray> {
        if self.shape != other.shape {
            return Err(LinalgError::ShapeMismatch {
                what: format!("{:?} vs {:?}", self.shape, other.shape),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(NDArray {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> NDArray {
        NDArray {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (NaN for empty arrays).
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Maximum absolute difference to another array of the same shape.
    pub fn max_abs_diff(&self, other: &NDArray) -> Result<f64> {
        if self.shape != other.shape {
            return Err(LinalgError::ShapeMismatch {
                what: format!("{:?} vs {:?}", self.shape, other.shape),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    /// Stack arrays along a new leading axis; all must share a shape.
    pub fn stack(parts: &[NDArray]) -> Result<NDArray> {
        let first = parts.first().ok_or_else(|| LinalgError::InvalidArgument {
            what: "stack of zero arrays".into(),
        })?;
        let mut shape = vec![parts.len()];
        shape.extend_from_slice(first.shape());
        let mut data = Vec::with_capacity(shape_len(&shape));
        for p in parts {
            if p.shape() != first.shape() {
                return Err(LinalgError::ShapeMismatch {
                    what: format!("stack: {:?} vs {:?}", p.shape(), first.shape()),
                });
            }
            data.extend_from_slice(p.data());
        }
        Ok(NDArray { shape, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let a = NDArray::from_fn(&[2, 3], |i| (i[0] * 10 + i[1]) as f64);
        assert_eq!(a.get(&[0, 0]), 0.0);
        assert_eq!(a.get(&[0, 2]), 2.0);
        assert_eq!(a.get(&[1, 1]), 11.0);
        assert_eq!(a.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_follows_row_major_order() {
        // `from_fn` visits multi-indices in row-major order, so reading a
        // block of flat positions back through `get` must reproduce it.
        for shape in [&[4usize][..], &[3, 5], &[2, 3, 4], &[2, 1, 3, 2]] {
            let flat = (0..shape_len(shape)).map(|x| x as f64).collect();
            let a = NDArray::from_vec(shape, flat).unwrap();
            assert_eq!(NDArray::from_fn(shape, |idx| a.get(idx)), a);
        }
    }

    #[test]
    fn overflowing_shape_is_an_error_not_a_wrapped_count() {
        assert_eq!(checked_shape_len(&[1 << 63, 2]), None);
        assert_eq!(checked_shape_len(&[]), Some(1));
        // 2^63 * 2 wraps to 0 elements: must not pass for an empty array.
        assert!(NDArray::from_vec(&[1 << 63, 2], Vec::new()).is_err());
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn slice_middle_block() {
        let a = NDArray::from_fn(&[4, 5], |i| (i[0] * 5 + i[1]) as f64);
        let s = a.slice(&[1, 2], &[2, 2]).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[7.0, 8.0, 12.0, 13.0]);
    }

    #[test]
    fn slice_3d_roundtrip_via_assign() {
        let a = NDArray::from_fn(&[3, 4, 5], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64);
        let block = a.slice(&[1, 1, 2], &[2, 2, 3]).unwrap();
        let mut b = NDArray::zeros(&[3, 4, 5]);
        b.assign_slice(&[1, 1, 2], &block).unwrap();
        assert_eq!(b.get(&[1, 1, 2]), 112.0);
        assert_eq!(b.get(&[2, 2, 4]), 224.0);
        assert_eq!(b.get(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn slice_out_of_bounds_errors() {
        let a = NDArray::zeros(&[2, 2]);
        assert!(a.slice(&[1, 1], &[2, 1]).is_err());
        assert!(a.slice(&[0], &[1]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = NDArray::from_vec(&[2, 3], (0..6).map(|x| x as f64).collect()).unwrap();
        let b = a.clone().reshape(&[3, 2]).unwrap();
        assert_eq!(b.get(&[2, 1]), 5.0);
        assert!(a.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn stack_makes_leading_axis() {
        let a = NDArray::full(&[2, 2], 1.0);
        let b = NDArray::full(&[2, 2], 2.0);
        let s = NDArray::stack(&[a, b]).unwrap();
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.get(&[0, 1, 1]), 1.0);
        assert_eq!(s.get(&[1, 0, 0]), 2.0);
    }

    #[test]
    fn zip_with_shape_mismatch() {
        let a = NDArray::zeros(&[2, 2]);
        let b = NDArray::zeros(&[2, 3]);
        assert!(a.zip_with(&b, |x, y| x + y).is_err());
    }
}
