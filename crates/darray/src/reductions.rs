//! Axis reductions and structural operations over distributed arrays.
//!
//! `sum_axis`/`mean_axis`/`max_axis` reduce one dimension away, dask-style:
//! each block reduces locally, then blocks sharing an output coordinate merge
//! in a tree. `concat` joins arrays along an axis.

use crate::array::{iter_coords, ChunkGrid, DArray, DArrayError};
use crate::graph::Graph;
use dtask::{Datum, Key, OpRegistry, TaskSpec};
use linalg::NDArray;

/// Register the reduction kernels (`da.reduce_axis`, `da.merge_reduced`).
/// Called from [`crate::register_array_ops`].
pub(crate) fn register_reduction_ops(registry: &OpRegistry) {
    // params: [axis, op_code] where 0=sum, 1=max, 2=min. Input block → block
    // with `axis` removed.
    registry.register("da.reduce_axis", |params, deps| {
        let l = params.as_list().ok_or("da.reduce_axis: params list")?;
        let axis = l
            .first()
            .and_then(|v| v.as_i64())
            .ok_or("da.reduce_axis: missing axis")? as usize;
        let op = l
            .get(1)
            .and_then(|v| v.as_i64())
            .ok_or("da.reduce_axis: missing op")?;
        let a = deps
            .first()
            .and_then(|d| d.as_array())
            .ok_or("da.reduce_axis: array input")?;
        if axis >= a.ndim() {
            return Err(format!("da.reduce_axis: axis {axis} out of range"));
        }
        Ok(Datum::from(match op {
            0 => fold_axis(a, axis, 0.0, |acc, v| acc + v),
            1 => fold_axis(a, axis, f64::NEG_INFINITY, f64::max),
            2 => fold_axis(a, axis, f64::INFINITY, f64::min),
            _ => return Err(format!("da.reduce_axis: unknown op {op}")),
        }))
    });

    // params: [op_code]; elementwise merge of equal-shaped partials.
    registry.register("da.merge_reduced", |params, deps| {
        let op = params
            .as_list()
            .and_then(|l| l.first())
            .and_then(|v| v.as_i64())
            .ok_or("da.merge_reduced: missing op")?;
        let mut acc: Option<NDArray> = None;
        for d in deps {
            let a = d.as_array().ok_or("da.merge_reduced: array inputs")?;
            acc = Some(match acc {
                None => (**a).clone(),
                Some(x) => x
                    .zip_with(a, |p, q| match op {
                        0 => p + q,
                        1 => p.max(q),
                        _ => p.min(q),
                    })
                    .map_err(|e| e.to_string())?,
            });
        }
        acc.map(Datum::from)
            .ok_or_else(|| "da.merge_reduced: no inputs".into())
    });
}

/// Fold `axis` of a row-major block away. The block is `outer × n × inner`
/// (`inner` = product of the dimensions behind `axis`), the result
/// `outer × inner`: every output row starts at `init` and takes the `n`
/// contiguous input runs of its slab in ascending axis order, so each cell
/// sees exactly the operand sequence an element-by-element row-major walk
/// gives it and sums are bit-identical to such a walk.
fn fold_axis(a: &NDArray, axis: usize, init: f64, f: impl Fn(f64, f64) -> f64) -> NDArray {
    let shape = a.shape();
    let n = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    let mut out_shape = shape.to_vec();
    out_shape.remove(axis);
    let mut out = NDArray::full(&out_shape, init);
    // A zero-length dimension leaves `out` empty or at `init`.
    if n > 0 && inner > 0 {
        let rows = out.data_mut().chunks_exact_mut(inner);
        for (acc, slab) in rows.zip(a.data().chunks_exact(n * inner)) {
            for run in slab.chunks_exact(inner) {
                for (o, &v) in acc.iter_mut().zip(run) {
                    *o = f(*o, v);
                }
            }
        }
    }
    out
}

/// Reduction kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Sum along the axis.
    Sum,
    /// Maximum along the axis.
    Max,
    /// Minimum along the axis.
    Min,
}

impl Reduce {
    fn code(self) -> i64 {
        match self {
            Reduce::Sum => 0,
            Reduce::Max => 1,
            Reduce::Min => 2,
        }
    }
}

impl DArray {
    /// Reduce `axis` away with `how`. The output keeps the input chunking on
    /// the surviving dimensions; blocks along the reduced axis merge in a
    /// fan-in tree of arity 8.
    pub fn reduce_axis(
        &self,
        graph: &mut Graph,
        axis: usize,
        how: Reduce,
    ) -> Result<DArray, DArrayError> {
        let rank = self.grid().ndim();
        if axis >= rank {
            return Err(DArrayError::Geometry(format!("axis {axis} out of range")));
        }
        if rank == 1 {
            return Err(DArrayError::Geometry(
                "reduce_axis on a 1-D array produces a scalar; use sum_all".into(),
            ));
        }
        let dims = self.grid().grid_dims();
        // Output geometry: drop the axis.
        let mut out_shape = self.grid().shape().to_vec();
        out_shape.remove(axis);
        let mut out_chunk_sizes: Vec<Vec<usize>> = (0..rank)
            .filter(|&d| d != axis)
            .map(|d| self.grid().chunk_sizes(d).to_vec())
            .collect();
        // (filter preserves order)
        let out_grid = ChunkGrid::new(&out_shape, std::mem::take(&mut out_chunk_sizes))?;
        let out_dims = out_grid.grid_dims();
        let mut out_keys: Vec<Key> = Vec::with_capacity(out_grid.n_chunks());
        let params = Datum::List(vec![Datum::I64(axis as i64), Datum::I64(how.code())]);
        for out_coord in iter_coords(&out_dims) {
            // Per block along the reduced axis: local reduce.
            let mut partials = Vec::with_capacity(dims[axis]);
            for a in 0..dims[axis] {
                let mut in_coord = out_coord.clone();
                in_coord.insert(axis, a);
                let key = graph.fresh_key("rax");
                graph.add(TaskSpec::new(
                    key.clone(),
                    "da.reduce_axis",
                    params.clone(),
                    vec![self.key_at(&in_coord).clone()],
                ));
                partials.push(key);
            }
            // Tree-merge.
            let merge_params = Datum::List(vec![Datum::I64(how.code())]);
            while partials.len() > 1 {
                let mut next = Vec::with_capacity(partials.len().div_ceil(8));
                for group in partials.chunks(8) {
                    if group.len() == 1 {
                        next.push(group[0].clone());
                        continue;
                    }
                    let key = graph.fresh_key("rmrg");
                    graph.add(TaskSpec::new(
                        key.clone(),
                        "da.merge_reduced",
                        merge_params.clone(),
                        group.to_vec(),
                    ));
                    next.push(key);
                }
                partials = next;
            }
            out_keys.push(partials.pop().expect("at least one partial"));
        }
        DArray::from_keys(out_grid, out_keys)
    }

    /// Sum along an axis.
    pub fn sum_axis(&self, graph: &mut Graph, axis: usize) -> Result<DArray, DArrayError> {
        self.reduce_axis(graph, axis, Reduce::Sum)
    }

    /// Mean along an axis (sum then scale).
    pub fn mean_axis(&self, graph: &mut Graph, axis: usize) -> Result<DArray, DArrayError> {
        let n = self.grid().shape()[axis] as f64;
        let summed = self.reduce_axis(graph, axis, Reduce::Sum)?;
        Ok(summed.map_blocks(
            graph,
            "da.affine",
            Datum::List(vec![Datum::F64(1.0 / n), Datum::F64(0.0)]),
        ))
    }

    /// Maximum along an axis.
    pub fn max_axis(&self, graph: &mut Graph, axis: usize) -> Result<DArray, DArrayError> {
        self.reduce_axis(graph, axis, Reduce::Max)
    }

    /// Concatenate arrays along `axis`. All inputs must agree on every other
    /// dimension's extent and chunking.
    pub fn concat(
        graph: &mut Graph,
        parts: &[&DArray],
        axis: usize,
    ) -> Result<DArray, DArrayError> {
        let first = parts
            .first()
            .ok_or_else(|| DArrayError::Geometry("concat of zero arrays".into()))?;
        let rank = first.grid().ndim();
        if axis >= rank {
            return Err(DArrayError::Geometry(format!("axis {axis} out of range")));
        }
        let mut out_shape = first.grid().shape().to_vec();
        let mut axis_chunks: Vec<usize> = first.grid().chunk_sizes(axis).to_vec();
        for p in &parts[1..] {
            if p.grid().ndim() != rank {
                return Err(DArrayError::Geometry("concat rank mismatch".into()));
            }
            for (d, &dim) in out_shape.iter().enumerate() {
                if d == axis {
                    continue;
                }
                if p.grid().shape()[d] != dim
                    || p.grid().chunk_sizes(d) != first.grid().chunk_sizes(d)
                {
                    return Err(DArrayError::Geometry(format!(
                        "concat: dimension {d} differs"
                    )));
                }
            }
            out_shape[axis] += p.grid().shape()[axis];
            axis_chunks.extend_from_slice(p.grid().chunk_sizes(axis));
        }
        let mut chunk_sizes: Vec<Vec<usize>> = (0..rank)
            .map(|d| first.grid().chunk_sizes(d).to_vec())
            .collect();
        chunk_sizes[axis] = axis_chunks;
        let out_grid = ChunkGrid::new(&out_shape, chunk_sizes)?;
        // Keys: iterate output grid; pick the owning part.
        let out_dims = out_grid.grid_dims();
        let mut keys = Vec::with_capacity(out_grid.n_chunks());
        for coord in iter_coords(&out_dims) {
            let mut a = coord[axis];
            let mut owner = 0usize;
            while a >= parts[owner].grid().grid_dims()[axis] {
                a -= parts[owner].grid().grid_dims()[axis];
                owner += 1;
            }
            let mut in_coord = coord.clone();
            in_coord[axis] = a;
            keys.push(parts[owner].key_at(&in_coord).clone());
        }
        let _ = graph; // concat is pure key plumbing — no new tasks
        DArray::from_keys(out_grid, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::register_array_ops;
    use dtask::Cluster;

    fn cluster() -> Cluster {
        let c = Cluster::new(3);
        register_array_ops(c.registry());
        c
    }

    #[test]
    fn sum_axis_matches_local() {
        let cluster = cluster();
        let client = cluster.client();
        let mut g = Graph::new("r1");
        let a = DArray::linear(&mut g, &[4, 6], &[2, 2]).unwrap();
        let s0 = a.sum_axis(&mut g, 0).unwrap();
        let s1 = a.sum_axis(&mut g, 1).unwrap();
        g.submit(&client);
        let full = a.fetch(&client).unwrap();
        let f0 = s0.fetch(&client).unwrap();
        let f1 = s1.fetch(&client).unwrap();
        assert_eq!(f0.shape(), &[6]);
        assert_eq!(f1.shape(), &[4]);
        for j in 0..6 {
            let expect: f64 = (0..4).map(|i| full.get(&[i, j])).sum();
            assert_eq!(f0.get(&[j]), expect);
        }
        for i in 0..4 {
            let expect: f64 = (0..6).map(|j| full.get(&[i, j])).sum();
            assert_eq!(f1.get(&[i]), expect);
        }
    }

    #[test]
    fn mean_and_max_axis() {
        let cluster = cluster();
        let client = cluster.client();
        let mut g = Graph::new("r2");
        let a = DArray::linear(&mut g, &[3, 4, 5], &[1, 2, 5]).unwrap();
        let mean_t = a.mean_axis(&mut g, 0).unwrap();
        let max_y = a.max_axis(&mut g, 2).unwrap();
        g.submit(&client);
        let full = a.fetch(&client).unwrap();
        let fm = mean_t.fetch(&client).unwrap();
        assert_eq!(fm.shape(), &[4, 5]);
        for x in 0..4 {
            for y in 0..5 {
                let expect: f64 = (0..3).map(|t| full.get(&[t, x, y])).sum::<f64>() / 3.0;
                assert!((fm.get(&[x, y]) - expect).abs() < 1e-12);
            }
        }
        let fx = max_y.fetch(&client).unwrap();
        assert_eq!(fx.shape(), &[3, 4]);
        for t in 0..3 {
            for x in 0..4 {
                let expect = (0..5)
                    .map(|y| full.get(&[t, x, y]))
                    .fold(f64::MIN, f64::max);
                assert_eq!(fx.get(&[t, x]), expect);
            }
        }
    }

    #[test]
    fn reduce_axis_many_chunks_tree() {
        let cluster = cluster();
        let client = cluster.client();
        let mut g = Graph::new("r3");
        // 20 chunks along axis 0 forces a multi-level merge tree.
        let a = DArray::fill(&mut g, &[20, 3], &[1, 3], 2.0).unwrap();
        let s = a.sum_axis(&mut g, 0).unwrap();
        g.submit(&client);
        let f = s.fetch(&client).unwrap();
        assert!(f.data().iter().all(|&v| v == 40.0));
    }

    #[test]
    fn reduce_axis_validation() {
        let cluster = cluster();
        let _client = cluster.client();
        let mut g = Graph::new("r4");
        let a = DArray::fill(&mut g, &[4, 4], &[2, 2], 0.0).unwrap();
        assert!(a.sum_axis(&mut g, 2).is_err());
        let one_d = DArray::fill(&mut g, &[4], &[2], 0.0).unwrap();
        assert!(one_d.sum_axis(&mut g, 0).is_err());
    }

    /// The element-by-element odometer walk `da.reduce_axis` used to be: the
    /// reference the strided kernel must match bit for bit.
    fn reduce_axis_oracle(a: &NDArray, axis: usize, op: i64) -> NDArray {
        let in_shape = a.shape().to_vec();
        let mut out_shape = in_shape.clone();
        out_shape.remove(axis);
        let init = [0.0, f64::NEG_INFINITY, f64::INFINITY][op as usize];
        let mut out = NDArray::full(&out_shape, init);
        let mut idx = vec![0usize; in_shape.len()];
        for _ in 0..a.len() {
            let mut out_idx = idx.clone();
            out_idx.remove(axis);
            let (v, cur) = (a.get(&idx), out.get(&out_idx));
            out.set(
                &out_idx,
                match op {
                    0 => cur + v,
                    1 => cur.max(v),
                    _ => cur.min(v),
                },
            );
            for d in (0..in_shape.len()).rev() {
                idx[d] += 1;
                if idx[d] < in_shape[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        out
    }

    /// The registered `da.reduce_axis` op as `(block, axis, op) -> result`.
    fn reduce_axis_op() -> impl Fn(&Datum, usize, i64) -> Datum {
        let registry = OpRegistry::with_std_ops();
        register_reduction_ops(&registry);
        let kernel = registry.get("da.reduce_axis").unwrap();
        move |block, axis, op| {
            let params = Datum::List(vec![Datum::I64(axis as i64), Datum::I64(op)]);
            kernel(&params, std::slice::from_ref(block)).unwrap()
        }
    }

    /// splitmix64: seeded test data without a dev-dependency.
    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A block of mixed-magnitude values (so sums round), with NaN, -0.0 and
    /// both infinities sprinkled in when `nasty`.
    fn seeded_block(shape: &[usize], seed: u64, nasty: bool) -> NDArray {
        let mut state = seed;
        NDArray::from_fn(shape, |_| {
            let r = next_u64(&mut state);
            match (nasty, r % 16) {
                (true, 0) => f64::NAN,
                (true, 1) => -0.0,
                (true, 2) => f64::INFINITY,
                (true, 3) => f64::NEG_INFINITY,
                _ => (r >> 11) as f64 / (1u64 << 40) as f64 - 4096.0,
            }
        })
    }

    #[test]
    fn reduce_axis_is_bit_identical_to_the_odometer_walk() {
        let shapes: [&[usize]; 10] = [
            &[7],
            &[1],
            &[5, 9],
            &[1, 6],
            &[6, 1],
            &[3, 4, 5],
            &[4, 1, 3],
            &[2, 3, 2, 5],
            &[3, 0, 4],
            &[0, 2],
        ];
        let reduce_axis = reduce_axis_op();
        for (case, shape) in shapes.iter().enumerate() {
            for nasty in [false, true] {
                let a = seeded_block(shape, 0xA11C_E000 + case as u64, nasty);
                let block = Datum::from(a.clone());
                for axis in 0..shape.len() {
                    for op in 0..3 {
                        let got = reduce_axis(&block, axis, op);
                        let got = got.as_array().unwrap();
                        let want = reduce_axis_oracle(&a, axis, op);
                        assert_eq!(got.shape(), want.shape(), "{shape:?} axis {axis} op {op}");
                        let bits = |x: &NDArray| -> Vec<u64> {
                            x.data().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(got), bits(&want), "{shape:?} axis {axis} op {op}");
                    }
                }
            }
        }
    }

    /// A ratio of two timings taken in one process, so a starved machine
    /// slows both sides: the strided kernel must stay well clear of the
    /// per-element walk it replaced (which paid four heap allocations per
    /// `f64`). Optimised builds only; CI runs it in its release step.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing ratio is for optimised builds")]
    fn reduce_axis_is_at_least_5x_faster_than_the_odometer_walk() {
        use std::hint::black_box;
        use std::time::Instant;
        let best_of = |f: &dyn Fn()| {
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed()
                })
                .min()
                .unwrap()
        };
        let reduce_axis = reduce_axis_op();
        for shape in [&[1usize, 256, 256], &[8, 64, 64]] {
            let a = seeded_block(shape, 7, false);
            let block = Datum::from(a.clone());
            let kernel = best_of(&|| drop(black_box(reduce_axis(black_box(&block), 0, 0))));
            let oracle = best_of(&|| drop(black_box(reduce_axis_oracle(black_box(&a), 0, 0))));
            assert!(
                oracle >= kernel * 5,
                "{shape:?}: kernel {kernel:?} vs odometer walk {oracle:?}"
            );
        }
    }

    #[test]
    fn concat_along_time() {
        let cluster = cluster();
        let client = cluster.client();
        let mut g = Graph::new("r5");
        let a = DArray::fill(&mut g, &[2, 4], &[1, 2], 1.0).unwrap();
        let b = DArray::fill(&mut g, &[3, 4], &[1, 2], 2.0).unwrap();
        let c = DArray::concat(&mut g, &[&a, &b], 0).unwrap();
        assert_eq!(c.shape(), &[5, 4]);
        g.submit(&client);
        let f = c.fetch(&client).unwrap();
        assert_eq!(f.get(&[1, 0]), 1.0);
        assert_eq!(f.get(&[2, 0]), 2.0);
        assert_eq!(f.get(&[4, 3]), 2.0);
    }

    #[test]
    fn concat_validation() {
        let mut g = Graph::new("r6");
        let a = DArray::fill(&mut g, &[2, 4], &[1, 2], 0.0).unwrap();
        let b = DArray::fill(&mut g, &[2, 5], &[1, 5], 0.0).unwrap();
        assert!(DArray::concat(&mut g, &[&a, &b], 0).is_err());
        assert!(DArray::concat(&mut g, &[], 0).is_err());
        assert!(DArray::concat(&mut g, &[&a], 2).is_err());
        assert!(DArray::concat(&mut g, &[&a], 0).is_ok());
    }
}
