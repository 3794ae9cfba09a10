//! Distributed PCA over a tall-skinny chunked array (dask-ml's `PCA`).
//!
//! dask-ml computes PCA of a row-chunked dask array with a tall-skinny QR
//! (TSQR) under the hood (§3.1 of the paper: "a parallel implementation of
//! the PCA based on the singular value decomposition"). The key observation
//! that makes the task graph compact: the left factor is never needed —
//! `AᵀA = RᵀR`, so the SVD of the final small `R` already yields the
//! components and singular values. The graph is:
//!
//! ```text
//! per block:   col-sums ──┐                      ┌─ R_of(centered block) ─┐
//!              (tree sum) ├─ mean ── center ─────┤        (tree R-merge)  ├─ SVD(R) → model
//! per block:   ───────────┘                      └────────────────────────┘
//! ```
//!
//! Everything is lazy graph construction; submit once, fetch once.

use crate::pca::sign_flip_rows;
use darray::{DArray, Graph};
use dtask::{Client, Datum, Key, OpRegistry, TaskSpec};
use linalg::{householder_r, jacobi_svd_vt, Matrix, MatrixView, NDArray};

/// Register the `ml.pca_*` kernels (called from [`crate::register_ml_ops`]).
pub(crate) fn register_dpca_ops(registry: &OpRegistry) {
    // Block (m×n) → List[col_sums (1×n), m].
    registry.register("ml.pca_colsums", |_p, deps| {
        let a = deps
            .first()
            .and_then(|d| d.as_array())
            .ok_or("ml.pca_colsums: array input required")?;
        if a.ndim() != 2 {
            return Err("ml.pca_colsums: 2-D input required".into());
        }
        let (m, n) = (a.shape()[0], a.shape()[1]);
        let mut sums = vec![0.0; n];
        for i in 0..m {
            for (j, s) in sums.iter_mut().enumerate() {
                *s += a.get(&[i, j]);
            }
        }
        Ok(Datum::List(vec![
            Datum::from(NDArray::from_vec(&[1, n], sums).expect("sum shape")),
            Datum::I64(m as i64),
        ]))
    });

    // Merge any number of List[sums, count] partials.
    registry.register("ml.pca_mergesums", |_p, deps| {
        let mut acc: Option<(NDArray, i64)> = None;
        for d in deps {
            let l = d.as_list().ok_or("ml.pca_mergesums: list inputs")?;
            let sums = l
                .first()
                .and_then(|v| v.as_array())
                .ok_or("ml.pca_mergesums: missing sums")?;
            let count = l
                .get(1)
                .and_then(|v| v.as_i64())
                .ok_or("ml.pca_mergesums: missing count")?;
            acc = Some(match acc {
                None => ((**sums).clone(), count),
                Some((a, c)) => (
                    a.zip_with(sums, |x, y| x + y).map_err(|e| e.to_string())?,
                    c + count,
                ),
            });
        }
        let (sums, count) = acc.ok_or("ml.pca_mergesums: no inputs")?;
        Ok(Datum::List(vec![Datum::from(sums), Datum::I64(count)]))
    });

    // List[sums, count] → mean row (1×n).
    registry.register("ml.pca_mean", |_p, deps| {
        let l = deps
            .first()
            .and_then(|d| d.as_list())
            .ok_or("ml.pca_mean: list input")?;
        let sums = l
            .first()
            .and_then(|v| v.as_array())
            .ok_or("ml.pca_mean: missing sums")?;
        let count = l
            .get(1)
            .and_then(|v| v.as_i64())
            .ok_or("ml.pca_mean: missing count")? as f64;
        if count <= 0.0 {
            return Err("ml.pca_mean: empty data".into());
        }
        Ok(Datum::from(sums.map(|x| x / count)))
    });

    // deps [block (m×n), mean (1×n)] → centered block.
    registry.register("ml.pca_center", |_p, deps| {
        let a = deps
            .first()
            .and_then(|d| d.as_array())
            .ok_or("ml.pca_center: block input")?;
        let mean = deps
            .get(1)
            .and_then(|d| d.as_array())
            .ok_or("ml.pca_center: mean input")?;
        let (m, n) = (a.shape()[0], a.shape()[1]);
        if mean.shape() != [1, n] {
            return Err(format!(
                "ml.pca_center: mean shape {:?} vs {n} features",
                mean.shape()
            ));
        }
        let out = NDArray::from_fn(&[m, n], |idx| a.get(idx) - mean.get(&[0, idx[1]]));
        Ok(Datum::from(out))
    });

    // Centered block → its R factor (k×n upper triangular, k = min(m, n)).
    registry.register("ml.pca_r_of", |_p, deps| {
        let a = deps
            .first()
            .and_then(|d| d.as_array())
            .ok_or("ml.pca_r_of: block input")?;
        // One working copy total: the view borrows the shared block and the
        // QR factorizes its column-ordered copy in place; Q is never formed.
        let m = Matrix::from_ndarray_ref(a).map_err(|e| e.to_string())?;
        let r = householder_r(m).map_err(|e| e.to_string())?;
        Ok(Datum::from(r.into_ndarray()))
    });

    // Merge R factors: stack vertically, QR, keep R (the TSQR tree node).
    registry.register("ml.pca_r_merge", |_p, deps| {
        let mut views = Vec::with_capacity(deps.len());
        for d in deps {
            let a = d.as_array().ok_or("ml.pca_r_merge: array inputs")?;
            views.push(Matrix::from_ndarray_ref(a).map_err(|e| e.to_string())?);
        }
        // Stack straight from the borrowed buffers; keep R only.
        let stacked = MatrixView::vstack(&views).map_err(|e| e.to_string())?;
        let r = householder_r(stacked.as_view()).map_err(|e| e.to_string())?;
        Ok(Datum::from(r.into_ndarray()))
    });

    // deps [R, mean], params [k, n_samples] → fitted model as
    // List[components (k×n), singvals (k), expl_var (k), expl_var_ratio (k),
    //      mean (1×n)].
    registry.register("ml.pca_finish", |params, deps| {
        let l = params.as_list().ok_or("ml.pca_finish: params list")?;
        let k = l
            .first()
            .and_then(|v| v.as_i64())
            .ok_or("ml.pca_finish: missing k")? as usize;
        let n_samples = l
            .get(1)
            .and_then(|v| v.as_i64())
            .ok_or("ml.pca_finish: missing n_samples")? as f64;
        let r = deps
            .first()
            .and_then(|d| d.as_array())
            .ok_or("ml.pca_finish: R input")?;
        let mean = deps
            .get(1)
            .and_then(|d| d.as_array())
            .ok_or("ml.pca_finish: mean input")?;
        let rm = Matrix::from_ndarray_ref(r)
            .map_err(|e| e.to_string())?
            .to_matrix();
        let (mut s, vt) = jacobi_svd_vt(&rm).map_err(|e| e.to_string())?;
        if k == 0 || k > s.len() {
            return Err(format!("ml.pca_finish: k={k} out of range"));
        }
        let total_var: f64 = s.iter().map(|s| s * s).sum::<f64>() / (n_samples - 1.0).max(1.0);
        s.truncate(k);
        let mut components = vt.take_rows(k).map_err(|e| e.to_string())?;
        sign_flip_rows(&mut components);
        let ev: Vec<f64> = s
            .iter()
            .map(|s| s * s / (n_samples - 1.0).max(1.0))
            .collect();
        let evr: Vec<f64> = ev
            .iter()
            .map(|v| if total_var > 0.0 { v / total_var } else { 0.0 })
            .collect();
        Ok(Datum::List(vec![
            Datum::from(components.into_ndarray()),
            Datum::from(NDArray::from_vec(&[k], s).expect("singvals")),
            Datum::from(NDArray::from_vec(&[k], ev).expect("ev")),
            Datum::from(NDArray::from_vec(&[k], evr).expect("evr")),
            Datum::from((**mean).clone()),
        ]))
    });
}

/// A fitted distributed PCA (fetch with [`DPcaFitted::fetch`]).
#[derive(Debug, Clone)]
pub struct DPcaFitted {
    /// Key of the finishing task.
    pub model_key: Key,
    /// Number of row blocks reduced.
    pub n_blocks: usize,
}

/// The fetched model.
#[derive(Debug, Clone)]
pub struct DPcaModel {
    /// Principal axes (k × features).
    pub components: Matrix,
    /// Top-k singular values of the centered data.
    pub singular_values: Vec<f64>,
    /// Variance explained per component.
    pub explained_variance: Vec<f64>,
    /// Fraction of total variance per component.
    pub explained_variance_ratio: Vec<f64>,
    /// Per-feature mean.
    pub mean: Vec<f64>,
}

impl DPcaFitted {
    /// Gather the fitted model.
    pub fn fetch(&self, client: &Client) -> Result<DPcaModel, String> {
        let datum = client
            .future(self.model_key.clone())
            .result()
            .map_err(|e| e.to_string())?;
        let l = datum.as_list().ok_or("model is not a list")?;
        let arr = |i: usize| -> Result<NDArray, String> {
            l.get(i)
                .and_then(|d| d.as_array())
                .map(|a| (**a).clone())
                .ok_or_else(|| format!("model[{i}] missing"))
        };
        let comps = arr(0)?;
        let (k, f) = (comps.shape()[0], comps.shape()[1]);
        Ok(DPcaModel {
            components: Matrix::from_vec(k, f, comps.into_vec()).map_err(|e| e.to_string())?,
            singular_values: arr(1)?.into_vec(),
            explained_variance: arr(2)?.into_vec(),
            explained_variance_ratio: arr(3)?.into_vec(),
            mean: arr(4)?.into_vec(),
        })
    }
}

/// Distributed PCA over a 2-D row-chunked array.
#[derive(Debug, Clone)]
pub struct DistributedPca {
    /// Number of components to keep.
    pub n_components: usize,
    /// Fan-in of the reduction trees.
    pub tree_arity: usize,
}

impl DistributedPca {
    /// PCA with `k` components (tree arity 4).
    pub fn new(n_components: usize) -> Self {
        DistributedPca {
            n_components,
            tree_arity: 4,
        }
    }

    fn tree_reduce(&self, graph: &mut Graph, mut keys: Vec<Key>, op: &str, stem: &str) -> Key {
        while keys.len() > 1 {
            let mut next = Vec::with_capacity(keys.len().div_ceil(self.tree_arity));
            for group in keys.chunks(self.tree_arity) {
                if group.len() == 1 {
                    next.push(group[0].clone());
                    continue;
                }
                let key = graph.fresh_key(stem);
                graph.add(TaskSpec::new(key.clone(), op, Datum::Null, group.to_vec()));
                next.push(key);
            }
            keys = next;
        }
        keys.pop().expect("non-empty reduction")
    }

    /// Build the fit graph over `x` (samples × features, chunked along rows
    /// only). Returns the handle; submit the graph, then fetch.
    pub fn fit(&self, graph: &mut Graph, x: &DArray) -> Result<DPcaFitted, String> {
        if x.grid().ndim() != 2 {
            return Err("DistributedPca: input must be 2-D".into());
        }
        if x.grid().grid_dims()[1] != 1 {
            return Err("DistributedPca: features must not be chunked (rechunk first)".into());
        }
        let n_samples = x.shape()[0];
        let n_features = x.shape()[1];
        if self.n_components == 0 || self.n_components > n_features.min(n_samples) {
            return Err(format!(
                "DistributedPca: k={} out of range for {}x{}",
                self.n_components, n_samples, n_features
            ));
        }
        let blocks: Vec<Key> = x.keys().to_vec();

        // Stage 1: column sums per block, tree-merged into the mean.
        let sum_keys: Vec<Key> = blocks
            .iter()
            .map(|b| {
                let key = graph.fresh_key("colsum");
                graph.add(TaskSpec::new(
                    key.clone(),
                    "ml.pca_colsums",
                    Datum::Null,
                    vec![b.clone()],
                ));
                key
            })
            .collect();
        let merged = self.tree_reduce(graph, sum_keys, "ml.pca_mergesums", "msum");
        let mean_key = graph.fresh_key("mean");
        graph.add(TaskSpec::new(
            mean_key.clone(),
            "ml.pca_mean",
            Datum::Null,
            vec![merged],
        ));

        // Stage 2: center each block, take its R factor, tree-merge Rs.
        let r_keys: Vec<Key> = blocks
            .iter()
            .map(|b| {
                let centered = graph.fresh_key("center");
                graph.add(TaskSpec::new(
                    centered.clone(),
                    "ml.pca_center",
                    Datum::Null,
                    vec![b.clone(), mean_key.clone()],
                ));
                let r = graph.fresh_key("rfac");
                graph.add(TaskSpec::new(
                    r.clone(),
                    "ml.pca_r_of",
                    Datum::Null,
                    vec![centered],
                ));
                r
            })
            .collect();
        let r_final = self.tree_reduce(graph, r_keys, "ml.pca_r_merge", "rmrg");

        // Stage 3: SVD of the final R.
        let model_key = graph.fresh_key("pca-model");
        graph.add(TaskSpec::new(
            model_key.clone(),
            "ml.pca_finish",
            Datum::List(vec![
                Datum::I64(self.n_components as i64),
                Datum::I64(n_samples as i64),
            ]),
            vec![r_final, mean_key],
        ));
        Ok(DPcaFitted {
            model_key,
            n_blocks: blocks.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pca::Pca;
    use darray::register_array_ops;
    use dtask::Cluster;

    fn cluster() -> Cluster {
        let c = Cluster::new(3);
        register_array_ops(c.registry());
        crate::register_ml_ops(c.registry());
        c
    }

    fn local_matrix(n: usize, f: usize) -> Matrix {
        Matrix::from_fn(n, f, |i, j| {
            (i as f64 * 0.37 + 1.0).sin() * (j + 1) as f64 + ((i * 13 + j * 7) % 11) as f64 * 0.21
        })
    }

    #[test]
    fn distributed_pca_matches_local_pca() {
        let cluster = cluster();
        let client = cluster.client();
        let m = local_matrix(40, 5);
        // Fresh keys via scatter only (no placeholder tasks needed).
        let grid = darray::ChunkGrid::regular(&[40, 5], &[7, 5]).unwrap();
        let mut keys = Vec::new();
        for (i, _) in (0..grid.n_chunks()).enumerate() {
            let coord = vec![i, 0];
            let start = grid.block_start(&coord);
            let extent = grid.block_extent(&coord);
            let block = NDArray::from_fn(&extent, |idx| m[(start[0] + idx[0], idx[1])]);
            let key = Key::new(format!("pca-in-{i}"));
            client.scatter(vec![(key.clone(), Datum::from(block))], None);
            keys.push(key);
        }
        let x = DArray::from_keys(grid, keys).unwrap();

        let dpca = DistributedPca::new(3);
        let mut g = Graph::new("dpca");
        let fitted = dpca.fit(&mut g, &x).unwrap();
        g.submit(&client);
        let model = fitted.fetch(&client).unwrap();

        let reference = Pca::fit(&m, 3).unwrap();
        for (a, b) in model.singular_values.iter().zip(&reference.singular_values) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert!(
            model
                .components
                .max_abs_diff(&reference.components)
                .unwrap()
                < 1e-7
        );
        for (a, b) in model.mean.iter().zip(&reference.mean) {
            assert!((a - b).abs() < 1e-10);
        }
        for (a, b) in model
            .explained_variance_ratio
            .iter()
            .zip(&reference.explained_variance_ratio)
        {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn distributed_pca_many_small_blocks_tree() {
        let cluster = cluster();
        let client = cluster.client();
        let m = local_matrix(66, 4);
        let grid = darray::ChunkGrid::regular(&[66, 4], &[5, 4]).unwrap();
        let mut keys = Vec::new();
        for i in 0..grid.n_chunks() {
            let coord = vec![i, 0];
            let start = grid.block_start(&coord);
            let extent = grid.block_extent(&coord);
            let block = NDArray::from_fn(&extent, |idx| m[(start[0] + idx[0], idx[1])]);
            let key = Key::new(format!("pcab-{i}"));
            client.scatter(vec![(key.clone(), Datum::from(block))], None);
            keys.push(key);
        }
        let x = DArray::from_keys(grid, keys).unwrap();
        let dpca = DistributedPca::new(2);
        let mut g = Graph::new("dpca2");
        let fitted = dpca.fit(&mut g, &x).unwrap();
        assert_eq!(fitted.n_blocks, 14); // multi-level tree exercised
        g.submit(&client);
        let model = fitted.fetch(&client).unwrap();
        let reference = Pca::fit(&m, 2).unwrap();
        for (a, b) in model.singular_values.iter().zip(&reference.singular_values) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn distributed_pca_validation_errors() {
        let cluster = cluster();
        let _client = cluster.client();
        let mut g = Graph::new("v");
        // 3-D input rejected.
        let a3 = DArray::fill(&mut g, &[2, 2, 2], &[1, 2, 2], 0.0).unwrap();
        assert!(DistributedPca::new(1).fit(&mut g, &a3).is_err());
        // Feature-chunked input rejected.
        let a2 = DArray::fill(&mut g, &[4, 4], &[2, 2], 0.0).unwrap();
        assert!(DistributedPca::new(1).fit(&mut g, &a2).is_err());
        // k out of range.
        let tall = DArray::fill(&mut g, &[8, 3], &[4, 3], 0.0).unwrap();
        assert!(DistributedPca::new(0).fit(&mut g, &tall).is_err());
        assert!(DistributedPca::new(4).fit(&mut g, &tall).is_err());
        assert!(DistributedPca::new(3).fit(&mut g, &tall).is_ok());
    }

    #[test]
    fn works_over_external_blocks_submitted_ahead() {
        // Distributed PCA graph over external tasks, submitted before data.
        let cluster = cluster();
        let client = cluster.client();
        let m = local_matrix(24, 4);
        let grid = darray::ChunkGrid::regular(&[24, 4], &[8, 4]).unwrap();
        let keys: Vec<Key> = (0..3).map(|i| Key::new(format!("pcax-{i}"))).collect();
        client.register_external(keys.clone());
        let x = DArray::from_keys(grid.clone(), keys.clone()).unwrap();
        let mut g = Graph::new("ahead");
        let fitted = DistributedPca::new(2).fit(&mut g, &x).unwrap();
        g.submit(&client);
        // Data arrives afterwards.
        let feeder = cluster.client();
        for (i, key) in keys.iter().enumerate() {
            let start = grid.block_start(&[i, 0]);
            let extent = grid.block_extent(&[i, 0]);
            let block = NDArray::from_fn(&extent, |idx| m[(start[0] + idx[0], idx[1])]);
            feeder.scatter_external(vec![(key.clone(), Datum::from(block))], None);
        }
        let model = fitted.fetch(&client).unwrap();
        let reference = Pca::fit(&m, 2).unwrap();
        for (a, b) in model.singular_values.iter().zip(&reference.singular_values) {
            assert!((a - b).abs() < 1e-8);
        }
    }
}
