//! Block-level kernels registered into a cluster's [`OpRegistry`].
//!
//! All `darray` graph nodes resolve to one of these ops. Parameter encoding
//! uses nested [`Datum::List`]s; the helpers [`ilist`]/[`usizes`] keep the
//! encode/decode symmetrical.

use dtask::{Datum, OpRegistry};
use linalg::ndarray::strides_for;
use linalg::{Matrix, NDArray};
use std::sync::Arc;

/// Encode a usize slice as a `Datum::List` of `I64`.
pub fn ilist(values: &[usize]) -> Datum {
    Datum::List(values.iter().map(|&v| Datum::I64(v as i64)).collect())
}

/// Decode a `Datum::List` of integers back into usizes.
pub fn usizes(d: &Datum) -> Result<Vec<usize>, String> {
    d.as_list()
        .ok_or_else(|| "expected a list".to_string())?
        .iter()
        .map(|v| {
            v.as_i64()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| "expected a non-negative integer".to_string())
        })
        .collect()
}

fn arr(d: &Datum) -> Result<&Arc<NDArray>, String> {
    d.as_array().ok_or_else(|| "expected an array".to_string())
}

fn param(params: &Datum, i: usize) -> Result<&Datum, String> {
    params
        .as_list()
        .and_then(|l| l.get(i))
        .ok_or_else(|| format!("missing parameter {i}"))
}

/// Register every `da.*` kernel. Idempotent; call once per cluster.
pub fn register_array_ops(registry: &OpRegistry) {
    crate::reductions::register_reduction_ops(registry);
    registry.register("da.fill", |params, _deps| {
        let sizes = usizes(param(params, 0)?)?;
        let value = param(params, 1)?
            .as_f64()
            .ok_or_else(|| "da.fill: value must be numeric".to_string())?;
        Ok(Datum::from(NDArray::full(&sizes, value)))
    });

    // Test/demo generator: block values = global row-major linear index.
    registry.register("da.gen_linear", |params, _deps| {
        let starts = usizes(param(params, 0)?)?;
        let sizes = usizes(param(params, 1)?)?;
        let global = usizes(param(params, 2)?)?;
        let block = NDArray::from_fn(&sizes, |idx| {
            let mut v = 0usize;
            for d in 0..global.len() {
                v = v * global[d] + starts[d] + idx[d];
            }
            v as f64
        });
        Ok(Datum::from(block))
    });

    registry.register("da.slice", |params, deps| {
        let starts = usizes(param(params, 0)?)?;
        let sizes = usizes(param(params, 1)?)?;
        let src = arr(deps.first().ok_or("da.slice: missing input")?)?;
        src.slice(&starts, &sizes)
            .map(Datum::from)
            .map_err(|e| e.to_string())
    });

    // Assemble a target block from pieces of dependency blocks.
    // params: [target_sizes, [dst_start, src_start, copy_sizes] per dep]
    registry.register("da.assemble", |params, deps| {
        let target_sizes = usizes(param(params, 0)?)?;
        let pieces = param(params, 1)?
            .as_list()
            .ok_or("da.assemble: bad piece table")?;
        if pieces.len() != deps.len() {
            return Err(format!(
                "da.assemble: {} pieces vs {} deps",
                pieces.len(),
                deps.len()
            ));
        }
        let mut out = NDArray::zeros(&target_sizes);
        for (piece, dep) in pieces.iter().zip(deps) {
            let dst_start = usizes(param(piece, 0)?)?;
            let src_start = usizes(param(piece, 1)?)?;
            let copy = usizes(param(piece, 2)?)?;
            let src = arr(dep)?;
            let block = src.slice(&src_start, &copy).map_err(|e| e.to_string())?;
            out.assign_slice(&dst_start, &block)
                .map_err(|e| e.to_string())?;
        }
        Ok(Datum::from(out))
    });

    registry.register("da.add", |_p, deps| {
        let a = arr(deps.first().ok_or("da.add: two inputs required")?)?;
        let b = arr(deps.get(1).ok_or("da.add: two inputs required")?)?;
        a.zip_with(b, |x, y| x + y)
            .map(Datum::from)
            .map_err(|e| e.to_string())
    });

    registry.register("da.sub", |_p, deps| {
        let a = arr(deps.first().ok_or("da.sub: two inputs required")?)?;
        let b = arr(deps.get(1).ok_or("da.sub: two inputs required")?)?;
        a.zip_with(b, |x, y| x - y)
            .map(Datum::from)
            .map_err(|e| e.to_string())
    });

    registry.register("da.mul", |_p, deps| {
        let a = arr(deps.first().ok_or("da.mul: two inputs required")?)?;
        let b = arr(deps.get(1).ok_or("da.mul: two inputs required")?)?;
        a.zip_with(b, |x, y| x * y)
            .map(Datum::from)
            .map_err(|e| e.to_string())
    });

    // out = a * scale + offset
    registry.register("da.affine", |params, deps| {
        let scale = param(params, 0)?.as_f64().ok_or("da.affine: scale")?;
        let offset = param(params, 1)?.as_f64().ok_or("da.affine: offset")?;
        let a = arr(deps.first().ok_or("da.affine: input required")?)?;
        Ok(Datum::from(a.map(|x| x * scale + offset)))
    });

    registry.register("da.sum", |_p, deps| {
        let a = arr(deps.first().ok_or("da.sum: input required")?)?;
        Ok(Datum::F64(a.sum()))
    });

    registry.register("da.matmul2d", |_p, deps| {
        let a = arr(deps.first().ok_or("da.matmul2d: two inputs")?)?;
        let b = arr(deps.get(1).ok_or("da.matmul2d: two inputs")?)?;
        // Views over the shared blocks: only the product is allocated.
        let ma = Matrix::from_ndarray_ref(a).map_err(|e| e.to_string())?;
        let mb = Matrix::from_ndarray_ref(b).map_err(|e| e.to_string())?;
        ma.matmul(&mb)
            .map(|m| Datum::from(m.into_ndarray()))
            .map_err(|e| e.to_string())
    });

    // Reorder an n-D block into a 2-D (samples × features) matrix.
    // params: [sample_axes, feature_axes]; together they must cover every
    // axis exactly once. Row-major order within each group.
    registry.register("da.stack2d", |params, deps| {
        let sample_axes = usizes(param(params, 0)?)?;
        let feature_axes = usizes(param(params, 1)?)?;
        let src = arr(deps.first().ok_or("da.stack2d: input required")?)?;
        let rank = src.ndim();
        let mut seen = vec![false; rank];
        for &a in sample_axes.iter().chain(&feature_axes) {
            if a >= rank || seen[a] {
                return Err(format!("da.stack2d: bad axis {a} for rank {rank}"));
            }
            seen[a] = true;
        }
        if seen.iter().any(|&s| !s) {
            return Err("da.stack2d: axes must cover every dimension".into());
        }
        let shape = src.shape();
        let strides = strides_for(shape);
        // Source offset of row-major position `pos` within one axis group.
        // The two groups partition the axes, so a cell's offset is the sum
        // of its row's and its column's.
        let group_offset = |axes: &[usize], mut pos: usize| {
            let mut offset = 0;
            for &a in axes.iter().rev() {
                offset += pos % shape[a] * strides[a];
                pos /= shape[a];
            }
            offset
        };
        let n_samples: usize = sample_axes.iter().map(|&a| shape[a]).product();
        let n_features: usize = feature_axes.iter().map(|&a| shape[a]).product();
        let col_offsets: Vec<usize> = (0..n_features)
            .map(|f| group_offset(&feature_axes, f))
            .collect();
        let mut data = Vec::with_capacity(n_samples * n_features);
        for s in 0..n_samples {
            let row = group_offset(&sample_axes, s);
            data.extend(col_offsets.iter().map(|&col| src.data()[row + col]));
        }
        NDArray::from_vec(&[n_samples, n_features], data)
            .map(Datum::from)
            .map_err(|e| e.to_string())
    });

    registry.register("da.transpose2d", |_p, deps| {
        let a = arr(deps.first().ok_or("da.transpose2d: input required")?)?;
        let m = Matrix::from_ndarray_ref(a).map_err(|e| e.to_string())?;
        Ok(Datum::from(m.transpose().into_ndarray()))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> OpRegistry {
        let r = OpRegistry::with_std_ops();
        register_array_ops(&r);
        r
    }

    #[test]
    fn ilist_roundtrip() {
        let v = vec![0usize, 3, 17];
        assert_eq!(usizes(&ilist(&v)).unwrap(), v);
        assert!(usizes(&Datum::List(vec![Datum::I64(-1)])).is_err());
        assert!(usizes(&Datum::F64(1.0)).is_err());
    }

    #[test]
    fn fill_and_sum() {
        let r = reg();
        let fill = r.get("da.fill").unwrap();
        let out = fill(&Datum::List(vec![ilist(&[2, 3]), Datum::F64(1.5)]), &[]).unwrap();
        let sum = r.get("da.sum").unwrap();
        assert_eq!(sum(&Datum::Null, &[out]).unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn gen_linear_values() {
        let r = reg();
        let gen = r.get("da.gen_linear").unwrap();
        let out = gen(
            &Datum::List(vec![ilist(&[1, 2]), ilist(&[2, 2]), ilist(&[4, 5])]),
            &[],
        )
        .unwrap();
        let a = out.as_array().unwrap();
        assert_eq!(a.get(&[0, 0]), 7.0); // (1,2) in 4x5 => 1*5+2
        assert_eq!(a.get(&[1, 1]), 13.0); // (2,3) => 13
    }

    #[test]
    fn slice_and_assemble_invert() {
        let r = reg();
        let gen = r.get("da.gen_linear").unwrap();
        let block = gen(
            &Datum::List(vec![ilist(&[0, 0]), ilist(&[4, 4]), ilist(&[4, 4])]),
            &[],
        )
        .unwrap();
        let slice = r.get("da.slice").unwrap();
        let top = slice(
            &Datum::List(vec![ilist(&[0, 0]), ilist(&[2, 4])]),
            std::slice::from_ref(&block),
        )
        .unwrap();
        let bottom = slice(
            &Datum::List(vec![ilist(&[2, 0]), ilist(&[2, 4])]),
            std::slice::from_ref(&block),
        )
        .unwrap();
        let assemble = r.get("da.assemble").unwrap();
        let whole = assemble(
            &Datum::List(vec![
                ilist(&[4, 4]),
                Datum::List(vec![
                    Datum::List(vec![ilist(&[0, 0]), ilist(&[0, 0]), ilist(&[2, 4])]),
                    Datum::List(vec![ilist(&[2, 0]), ilist(&[0, 0]), ilist(&[2, 4])]),
                ]),
            ]),
            &[top, bottom],
        )
        .unwrap();
        assert_eq!(
            whole
                .as_array()
                .unwrap()
                .max_abs_diff(block.as_array().unwrap())
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn binary_ops_and_affine() {
        let r = reg();
        let a = Datum::from(NDArray::full(&[2, 2], 3.0));
        let b = Datum::from(NDArray::full(&[2, 2], 2.0));
        let add = r.get("da.add").unwrap()(&Datum::Null, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(add.as_array().unwrap().get(&[0, 0]), 5.0);
        let sub = r.get("da.sub").unwrap()(&Datum::Null, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(sub.as_array().unwrap().get(&[1, 1]), 1.0);
        let mul = r.get("da.mul").unwrap()(&Datum::Null, &[a.clone(), b]).unwrap();
        assert_eq!(mul.as_array().unwrap().get(&[0, 1]), 6.0);
        let aff = r.get("da.affine").unwrap()(
            &Datum::List(vec![Datum::F64(2.0), Datum::F64(-1.0)]),
            &[a],
        )
        .unwrap();
        assert_eq!(aff.as_array().unwrap().get(&[0, 0]), 5.0);
    }

    /// The per-element decomposition `da.stack2d` used to be: a fresh index
    /// vector and a `get` per cell.
    fn stack2d_oracle(src: &NDArray, sample_axes: &[usize], feature_axes: &[usize]) -> NDArray {
        let shape = src.shape();
        let n_samples: usize = sample_axes.iter().map(|&a| shape[a]).product();
        let n_features: usize = feature_axes.iter().map(|&a| shape[a]).product();
        NDArray::from_fn(&[n_samples, n_features], |out_idx| {
            let mut src_idx = vec![0usize; shape.len()];
            let mut s = out_idx[0];
            for &a in sample_axes.iter().rev() {
                src_idx[a] = s % shape[a];
                s /= shape[a];
            }
            let mut f = out_idx[1];
            for &a in feature_axes.iter().rev() {
                src_idx[a] = f % shape[a];
                f /= shape[a];
            }
            src.get(&src_idx)
        })
    }

    #[test]
    fn stack2d_is_bit_identical_to_the_per_element_decomposition() {
        let r = reg();
        let stack = r.get("da.stack2d").unwrap();
        // (shape, sample axes, feature axes): every split and order of a
        // rank-3 block, a rank-4 one, an empty group and a zero-length dim.
        let cases: [(&[usize], &[usize], &[usize]); 10] = [
            (&[3, 4, 5], &[0], &[1, 2]),
            (&[3, 4, 5], &[2, 0], &[1]),
            (&[3, 4, 5], &[1], &[2, 0]),
            (&[3, 4, 5], &[0, 1, 2], &[]),
            (&[3, 4, 5], &[], &[2, 1, 0]),
            (&[2, 3, 2, 4], &[3, 1], &[0, 2]),
            (&[6], &[0], &[]),
            (&[3, 0, 2], &[0], &[2, 1]),
            (&[3, 0, 2], &[1], &[0, 2]),
            (&[1, 7], &[1], &[0]),
        ];
        for (shape, sample_axes, feature_axes) in cases {
            let mut x = 0.37f64;
            let src = NDArray::from_fn(shape, |_| {
                x = (x * 997.0 + 0.1).fract() - 0.5;
                if x > 0.45 {
                    f64::NAN
                } else {
                    x * 1e3
                }
            });
            let got = stack(
                &Datum::List(vec![ilist(sample_axes), ilist(feature_axes)]),
                &[Datum::from(src.clone())],
            )
            .unwrap();
            let got = got.as_array().unwrap();
            let want = stack2d_oracle(&src, sample_axes, feature_axes);
            assert_eq!(got.shape(), want.shape(), "{shape:?} {sample_axes:?}");
            let bits = |a: &NDArray| -> Vec<u64> { a.data().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(bits(got), bits(&want), "{shape:?} {sample_axes:?}");
        }
    }

    #[test]
    fn matmul_and_transpose() {
        let r = reg();
        let a = Datum::from(NDArray::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        let t = r.get("da.transpose2d").unwrap()(&Datum::Null, std::slice::from_ref(&a)).unwrap();
        assert_eq!(t.as_array().unwrap().get(&[0, 1]), 3.0);
        let m = r.get("da.matmul2d").unwrap()(&Datum::Null, &[a.clone(), t]).unwrap();
        // [[1,2],[3,4]] * [[1,3],[2,4]] = [[5,11],[11,25]]
        assert_eq!(m.as_array().unwrap().get(&[0, 0]), 5.0);
        assert_eq!(m.as_array().unwrap().get(&[1, 1]), 25.0);
    }

    #[test]
    fn shape_errors_are_reported() {
        let r = reg();
        let a = Datum::from(NDArray::zeros(&[2, 2]));
        let b = Datum::from(NDArray::zeros(&[2, 3]));
        assert!(r.get("da.add").unwrap()(&Datum::Null, &[a.clone(), b.clone()]).is_err());
        let c = Datum::from(NDArray::zeros(&[3, 2]));
        assert!(r.get("da.matmul2d").unwrap()(&Datum::Null, &[a.clone(), c]).is_err());
        assert!(r.get("da.slice").unwrap()(
            &Datum::List(vec![ilist(&[1, 1]), ilist(&[3, 3])]),
            &[a]
        )
        .is_err());
        assert!(r.get("da.sum").unwrap()(&Datum::Null, &[Datum::F64(0.0)]).is_err());
    }
}
