//! Distributed incremental PCA over task graphs.
//!
//! The model state travels between tasks as a `Datum`; each `ml.partial_fit`
//! task consumes `(state, batch)` and produces the next state. Two drivers:
//!
//! * [`InSituIncrementalPCA::fit`] — the paper's **new IPCA**: the whole
//!   chain over every timestep is built and submitted as ONE graph (possible
//!   ahead of data arrival thanks to external tasks);
//! * [`InSituIncrementalPCA::fit_stepwise`] — the **old IPCA**: one graph per
//!   batch, submitted and awaited step by step (what DEISA1/post-hoc plain
//!   Dask had to do).

use crate::ipca::{IncrementalPca, SvdSolver};
use darray::{Graph, LabeledArray};
use dtask::{Client, Datum, Key, OpRegistry, TaskSpec};
use linalg::{Matrix, NDArray};

/// Encode the IPCA state as a `Datum` (list layout, stable order).
fn encode_state(m: &IncrementalPca) -> Datum {
    let k = m.components.rows();
    let f = m.components.cols();
    let (solver_tag, seed) = match m.solver {
        SvdSolver::Full => (0i64, 0i64),
        SvdSolver::Randomized { seed } => (1i64, seed as i64),
    };
    Datum::List(vec![
        Datum::I64(m.n_components as i64),
        Datum::I64(solver_tag),
        Datum::I64(seed),
        Datum::I64(m.n_samples_seen as i64),
        Datum::from(NDArray::from_vec(&[m.mean.len()], m.mean.clone()).expect("mean shape")),
        Datum::from(NDArray::from_vec(&[m.var.len()], m.var.clone()).expect("var shape")),
        Datum::from(
            NDArray::from_vec(&[k, f], m.components.data().to_vec()).expect("components shape"),
        ),
        Datum::from(
            NDArray::from_vec(&[m.singular_values.len()], m.singular_values.clone())
                .expect("singvals shape"),
        ),
        Datum::from(
            NDArray::from_vec(&[m.explained_variance.len()], m.explained_variance.clone())
                .expect("ev shape"),
        ),
        Datum::from(
            NDArray::from_vec(
                &[m.explained_variance_ratio.len()],
                m.explained_variance_ratio.clone(),
            )
            .expect("evr shape"),
        ),
    ])
}

/// Decode a state `Datum` back into the model.
fn decode_state(d: &Datum) -> Result<IncrementalPca, String> {
    let l = d.as_list().ok_or("state must be a list")?;
    let geti = |i: usize| -> Result<i64, String> {
        l.get(i)
            .and_then(|v| v.as_i64())
            .ok_or_else(|| format!("state[{i}] not an integer"))
    };
    let geta = |i: usize| -> Result<&std::sync::Arc<NDArray>, String> {
        l.get(i)
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("state[{i}] not an array"))
    };
    let n_components = geti(0)? as usize;
    let solver = match geti(1)? {
        0 => SvdSolver::Full,
        1 => SvdSolver::Randomized {
            seed: geti(2)? as u64,
        },
        t => return Err(format!("unknown solver tag {t}")),
    };
    let comps = geta(6)?;
    let (k, f) = if comps.ndim() == 2 {
        (comps.shape()[0], comps.shape()[1])
    } else {
        (0, 0)
    };
    Ok(IncrementalPca {
        n_components,
        solver,
        n_samples_seen: geti(3)? as u64,
        mean: geta(4)?.data().to_vec(),
        var: geta(5)?.data().to_vec(),
        components: Matrix::from_vec(k, f, comps.data().to_vec()).map_err(|e| e.to_string())?,
        singular_values: geta(7)?.data().to_vec(),
        explained_variance: geta(8)?.data().to_vec(),
        explained_variance_ratio: geta(9)?.data().to_vec(),
    })
}

/// Register the `ml.*` ops (`ml.ipca_init`, `ml.partial_fit`, and the
/// distributed-PCA kernels). Idempotent.
pub fn register_ml_ops(registry: &OpRegistry) {
    crate::dpca::register_dpca_ops(registry);
    // params: [n_components, solver_tag, seed] -> fresh state
    registry.register("ml.ipca_init", |params, _deps| {
        let l = params
            .as_list()
            .ok_or("ml.ipca_init: params must be a list")?;
        let k = l
            .first()
            .and_then(|v| v.as_i64())
            .ok_or("ml.ipca_init: missing n_components")? as usize;
        let solver = match l.get(1).and_then(|v| v.as_i64()).unwrap_or(0) {
            0 => SvdSolver::Full,
            _ => SvdSolver::Randomized {
                seed: l.get(2).and_then(|v| v.as_i64()).unwrap_or(0) as u64,
            },
        };
        Ok(encode_state(&IncrementalPca::new(k, solver)))
    });

    // deps: [state, batch (samples×features)] -> projected batch (samples×k):
    // (X - mean) @ componentsᵀ — the compressed representation.
    registry.register("ml.project", |_params, deps| {
        let state = deps.first().ok_or("ml.project: missing state")?;
        let batch = deps
            .get(1)
            .and_then(|d| d.as_array())
            .ok_or("ml.project: missing batch array")?;
        let model = decode_state(state)?;
        // Borrow the shared batch block — only the projection is allocated.
        let x = Matrix::from_ndarray_ref(batch).map_err(|e| e.to_string())?;
        let z = model.transform_view(x).map_err(|e| e.to_string())?;
        Ok(Datum::from(z.into_ndarray()))
    });

    // deps: [state, batch(2-D samples×features)] -> next state
    registry.register("ml.partial_fit", |_params, deps| {
        let state = deps.first().ok_or("ml.partial_fit: missing state")?;
        let batch = deps
            .get(1)
            .and_then(|d| d.as_array())
            .ok_or("ml.partial_fit: missing batch array")?;
        if batch.ndim() != 2 {
            return Err(format!(
                "ml.partial_fit: batch must be 2-D, got {:?}",
                batch.shape()
            ));
        }
        let mut model = decode_state(state)?;
        let x = Matrix::from_ndarray_ref(batch).map_err(|e| e.to_string())?;
        model.partial_fit_view(x).map_err(|e| e.to_string())?;
        Ok(encode_state(&model))
    });
}

/// The fitted result handle: the key of the final state task.
#[derive(Debug, Clone)]
pub struct FittedIpca {
    /// Key of the final IPCA state.
    pub state_key: Key,
    /// Number of `partial_fit` stages in the chain.
    pub n_batches: usize,
}

impl FittedIpca {
    /// Gather the fitted model (blocks until the chain completes — in transit
    /// this means until the simulation has produced every timestep).
    pub fn fetch(&self, client: &Client) -> Result<IncrementalPca, String> {
        let state = client
            .future(self.state_key.clone())
            .result()
            .map_err(|e| e.to_string())?;
        decode_state(&state)
    }
}

/// The paper's `InSituIncrementalPCA` (Listing 2): multidimensional
/// incremental PCA with a sequential-PCA-like interface.
#[derive(Debug, Clone)]
pub struct InSituIncrementalPCA {
    /// Number of principal components to keep.
    pub n_components: usize,
    /// SVD backend.
    pub svd_solver: SvdSolver,
}

impl InSituIncrementalPCA {
    /// `InSituIncrementalPCA(n_components=…, svd_solver=…)`.
    pub fn new(n_components: usize, svd_solver: SvdSolver) -> Self {
        InSituIncrementalPCA {
            n_components,
            svd_solver,
        }
    }

    fn init_spec(&self, graph: &mut Graph) -> Key {
        let (tag, seed) = match self.svd_solver {
            SvdSolver::Full => (0i64, 0i64),
            SvdSolver::Randomized { seed } => (1i64, seed as i64),
        };
        let key = graph.fresh_key("ipca-state");
        graph.add(TaskSpec::new(
            key.clone(),
            "ml.ipca_init",
            Datum::List(vec![
                Datum::I64(self.n_components as i64),
                Datum::I64(tag),
                Datum::I64(seed),
            ]),
            vec![],
        ));
        key
    }

    /// Chain `partial_fit` tasks over pre-built batch keys into `graph`.
    pub fn fit_batches(&self, graph: &mut Graph, batches: &[Key]) -> FittedIpca {
        let mut state = self.init_spec(graph);
        for batch in batches {
            let next = graph.fresh_key("ipca-state");
            graph.add(TaskSpec::new(
                next.clone(),
                "ml.partial_fit",
                Datum::Null,
                vec![state, batch.clone()],
            ));
            state = next;
        }
        // The final state is the product a caller fetches: protect it from
        // the graph optimizer (cull keeps its whole chain; fuse never
        // swallows it as an interior stage).
        graph.mark_output(&state);
        FittedIpca {
            state_key: state,
            n_batches: batches.len(),
        }
    }

    /// **New IPCA** (paper §3.2): one call builds the whole graph — batch
    /// assembly per timestep plus the full `partial_fit` chain — into
    /// `graph`; submit it once with `graph.submit(&client)`. Mirrors
    /// `ipca.fit(gt, ["t","X","Y"], ["X"], ["Y"])` from Listing 2.
    pub fn fit(
        &self,
        graph: &mut Graph,
        gt: &LabeledArray,
        time_label: &str,
        sample_labels: &[&str],
        feature_labels: &[&str],
    ) -> Result<FittedIpca, String> {
        let batches = gt
            .batches_along(graph, time_label, sample_labels, feature_labels)
            .map_err(|e| e.to_string())?;
        Ok(self.fit_batches(graph, &batches))
    }

    /// Project per-timestep batches onto a fitted state: appends one
    /// `ml.project` task per batch (depending on `state_key`) and returns the
    /// keys of the compressed `(samples × k)` outputs — the in-transit
    /// dimensionality-reduction product.
    pub fn transform_batches(
        &self,
        graph: &mut Graph,
        state_key: &Key,
        batches: &[Key],
    ) -> Vec<Key> {
        batches
            .iter()
            .map(|b| {
                let out = graph.fresh_key("proj");
                graph.add(TaskSpec::new(
                    out.clone(),
                    "ml.project",
                    Datum::Null,
                    vec![state_key.clone(), b.clone()],
                ));
                // Compressed outputs are fetched by the analytics client —
                // keep them visible to the optimizer as requested results.
                graph.mark_output(&out);
                out
            })
            .collect()
    }

    /// **Old IPCA**: submit one graph per batch and wait for each state
    /// before building the next — the per-timestep submission pattern of the
    /// original dask-ml `IncrementalPCA` driven step by step. Returns the
    /// final model directly. `graph_count` reports how many submissions
    /// happened (for the message-accounting tests).
    pub fn fit_stepwise(
        &self,
        client: &Client,
        gt: &LabeledArray,
        time_label: &str,
        sample_labels: &[&str],
        feature_labels: &[&str],
    ) -> Result<(IncrementalPca, usize), String> {
        let tdim = gt.dim_index(time_label).map_err(|e| e.to_string())?;
        let t_extent = gt.array().shape()[tdim];
        let mut submissions = 0usize;
        // Initial state graph.
        let mut g = Graph::new("ipca-sw-init".to_string());
        let mut state_key = self.init_spec(&mut g);
        g.submit(client);
        submissions += 1;
        for t in 0..t_extent {
            let mut g = Graph::new(format!("ipca-sw-{t}"));
            // Assemble only this timestep's batch.
            let batch_keys = {
                // Build a 1-step labeled slice by reusing batches_along on a
                // sliced view would rebuild all steps; instead assemble the
                // cross-section directly.
                let rank = gt.array().grid().ndim();
                let shape = gt.array().shape().to_vec();
                let mut starts = vec![0usize; rank];
                starts[tdim] = t;
                let mut sizes = shape.clone();
                sizes[tdim] = 1;
                let xsec = gt
                    .array()
                    .slice_chunked(&mut g, &starts, &sizes, &sizes)
                    .map_err(|e| e.to_string())?;
                let mut sample_axes: Vec<usize> = vec![tdim];
                for l in sample_labels {
                    sample_axes.push(gt.dim_index(l).map_err(|e| e.to_string())?);
                }
                let mut feature_axes = Vec::new();
                for l in feature_labels {
                    feature_axes.push(gt.dim_index(l).map_err(|e| e.to_string())?);
                }
                let bkey = g.fresh_key("batch");
                g.add(TaskSpec::new(
                    bkey.clone(),
                    "da.stack2d",
                    Datum::List(vec![
                        darray::ops::ilist(&sample_axes),
                        darray::ops::ilist(&feature_axes),
                    ]),
                    vec![xsec.keys()[0].clone()],
                ));
                bkey
            };
            let next = g.fresh_key("state");
            g.add(TaskSpec::new(
                next.clone(),
                "ml.partial_fit",
                Datum::Null,
                vec![state_key.clone(), batch_keys],
            ));
            g.submit(client);
            submissions += 1;
            // Old behaviour: wait for this step's state before continuing.
            client
                .future(next.clone())
                .wait()
                .map_err(|e| e.to_string())?;
            state_key = next;
        }
        let model = FittedIpca {
            state_key,
            n_batches: t_extent,
        }
        .fetch(client)?;
        Ok((model, submissions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pca::Pca;
    use darray::{register_array_ops, DArray};
    use dtask::Cluster;

    fn cluster() -> Cluster {
        let c = Cluster::new(3);
        register_array_ops(c.registry());
        register_ml_ops(c.registry());
        c
    }

    #[test]
    fn state_encode_decode_roundtrip() {
        let mut m = IncrementalPca::new(2, SvdSolver::Randomized { seed: 7 });
        let x = Matrix::from_fn(12, 4, |i, j| (i * 4 + j) as f64 * 0.3);
        m.partial_fit(&x).unwrap();
        let back = decode_state(&encode_state(&m)).unwrap();
        assert_eq!(back.n_samples_seen, 12);
        assert_eq!(back.solver, m.solver);
        assert_eq!(back.mean, m.mean);
        assert_eq!(back.singular_values, m.singular_values);
        assert!(back.components.max_abs_diff(&m.components).unwrap() == 0.0);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_state(&Datum::Null).is_err());
        assert!(decode_state(&Datum::List(vec![Datum::I64(2)])).is_err());
    }

    /// Build a (T, X, Y) linear-pattern array and the matching local batches.
    fn setup(t: usize, x: usize, y: usize) -> (Cluster, LabeledArray, Vec<Matrix>) {
        let c = cluster();
        let client = c.client();
        let mut g = Graph::new("setup");
        let a = DArray::linear(&mut g, &[t, x, y], &[1, x.div_ceil(2), y.div_ceil(2)]).unwrap();
        g.submit(&client);
        // Local reference batches: batch_t[yy, xx] = value at (t, xx, yy).
        let mut batches = Vec::new();
        for tt in 0..t {
            batches.push(Matrix::from_fn(y, x, |yy, xx| {
                ((tt * x + xx) * y + yy) as f64
            }));
        }
        let la = LabeledArray::new(a, &["t", "X", "Y"]).unwrap();
        drop(client);
        (c, la, batches)
    }

    #[test]
    fn whole_graph_fit_matches_local_ipca() {
        let (cluster, gt, batches) = setup(4, 3, 5);
        let client = cluster.client();
        let ipca = InSituIncrementalPCA::new(2, SvdSolver::Full);
        let mut g = Graph::new("fit");
        let fitted = ipca.fit(&mut g, &gt, "t", &["Y"], &["X"]).unwrap();
        assert_eq!(fitted.n_batches, 4);
        g.submit(&client);
        let model = fitted.fetch(&client).unwrap();

        let mut local = IncrementalPca::new(2, SvdSolver::Full);
        for b in &batches {
            local.partial_fit(b).unwrap();
        }
        assert_eq!(model.n_samples_seen, local.n_samples_seen);
        for (a, b) in model.singular_values.iter().zip(&local.singular_values) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert!(model.components.max_abs_diff(&local.components).unwrap() < 1e-9);
    }

    #[test]
    fn stepwise_fit_matches_whole_graph() {
        let (cluster, gt, _batches) = setup(3, 4, 4);
        let client = cluster.client();
        let ipca = InSituIncrementalPCA::new(2, SvdSolver::Full);

        let (sw_model, submissions) = ipca
            .fit_stepwise(&client, &gt, "t", &["Y"], &["X"])
            .unwrap();
        assert_eq!(submissions, 4); // init + 3 steps

        let mut g = Graph::new("whole");
        let fitted = ipca.fit(&mut g, &gt, "t", &["Y"], &["X"]).unwrap();
        g.submit(&client);
        let wg_model = fitted.fetch(&client).unwrap();

        assert_eq!(sw_model.n_samples_seen, wg_model.n_samples_seen);
        for (a, b) in sw_model
            .singular_values
            .iter()
            .zip(&wg_model.singular_values)
        {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(
            sw_model
                .components
                .max_abs_diff(&wg_model.components)
                .unwrap()
                < 1e-9
        );
    }

    #[test]
    fn in_situ_external_tasks_whole_graph_before_data() {
        // The headline behaviour: analytics graph over external blocks is
        // submitted BEFORE the simulation produces anything.
        let cluster = cluster();
        let client = cluster.client();
        let (t, x, y) = (3usize, 2usize, 4usize);
        // External keys, one block per timestep (block covers the whole
        // spatial domain here; deisa-core tests cover multi-block).
        let keys: Vec<dtask::Key> = (0..t)
            .map(|i| dtask::Key::new(format!("sim-{i}")))
            .collect();
        client.register_external(keys.clone());
        let grid = darray::ChunkGrid::regular(&[t, x, y], &[1, x, y]).unwrap();
        let a = DArray::from_keys(grid, keys.clone()).unwrap();
        let gt = LabeledArray::new(a, &["t", "X", "Y"]).unwrap();

        let ipca = InSituIncrementalPCA::new(2, SvdSolver::Full);
        let mut g = Graph::new("insitu");
        let fitted = ipca.fit(&mut g, &gt, "t", &["Y"], &["X"]).unwrap();
        g.submit(&client); // submitted; nothing can run yet

        // Simulation produces blocks over time.
        let bridge = cluster.client();
        for (tt, key) in keys.iter().enumerate() {
            let block = NDArray::from_fn(&[1, x, y], |idx| {
                ((tt * x + idx[1]) * y + idx[2]) as f64 * 0.5 + (tt as f64)
            });
            bridge.scatter_external(vec![(key.clone(), Datum::from(block))], None);
        }
        let model = fitted.fetch(&client).unwrap();
        assert_eq!(model.n_samples_seen, (t * y) as u64);

        // Reference local computation.
        let mut local = IncrementalPca::new(2, SvdSolver::Full);
        for tt in 0..t {
            let b = Matrix::from_fn(y, x, |yy, xx| {
                ((tt * x + xx) * y + yy) as f64 * 0.5 + tt as f64
            });
            local.partial_fit(&b).unwrap();
        }
        assert!(model.components.max_abs_diff(&local.components).unwrap() < 1e-9);
    }

    #[test]
    fn whole_graph_fit_with_optimizer_and_batching_matches() {
        // Same computation as `whole_graph_fit_matches_local_ipca`, but on a
        // cluster with the graph optimizer and batched ingestion enabled —
        // the fused/culled/coalesced path must be numerically identical.
        let c = dtask::Cluster::with_config(dtask::ClusterConfig {
            n_workers: 3,
            optimize: dtask::OptimizeConfig::enabled(),
            ..Default::default()
        });
        register_array_ops(c.registry());
        register_ml_ops(c.registry());
        let client = c.client();
        let (t, x, y) = (4usize, 3usize, 5usize);
        let mut g = Graph::new("setup");
        let a = DArray::linear(&mut g, &[t, x, y], &[1, x.div_ceil(2), y.div_ceil(2)]).unwrap();
        g.submit(&client);
        let gt = LabeledArray::new(a, &["t", "X", "Y"]).unwrap();

        let ipca = InSituIncrementalPCA::new(2, SvdSolver::Full);
        let mut g = Graph::new("fit");
        let fitted = ipca.fit(&mut g, &gt, "t", &["Y"], &["X"]).unwrap();
        g.submit(&client);
        let model = fitted.fetch(&client).unwrap();

        let mut local = IncrementalPca::new(2, SvdSolver::Full);
        for tt in 0..t {
            let b = Matrix::from_fn(y, x, |yy, xx| ((tt * x + xx) * y + yy) as f64);
            local.partial_fit(&b).unwrap();
        }
        assert_eq!(model.n_samples_seen, local.n_samples_seen);
        assert!(model.components.max_abs_diff(&local.components).unwrap() < 1e-9);
        // The optimizer actually ran over the submitted graphs.
        assert!(c.stats().optimize_tasks_in() > 0);
    }

    #[test]
    fn distributed_matches_exact_pca_at_full_rank() {
        let (cluster, gt, batches) = setup(5, 3, 4);
        let client = cluster.client();
        let ipca = InSituIncrementalPCA::new(3, SvdSolver::Full);
        let mut g = Graph::new("exact");
        let fitted = ipca.fit(&mut g, &gt, "t", &["Y"], &["X"]).unwrap();
        g.submit(&client);
        let model = fitted.fetch(&client).unwrap();

        // Stack every batch into one matrix for reference PCA.
        let refs: Vec<&Matrix> = batches.iter().collect();
        let all = Matrix::vstack(&refs).unwrap();
        let pca = Pca::fit(&all, 3).unwrap();
        for (a, b) in model.singular_values.iter().zip(&pca.singular_values) {
            // Absolute tolerance covers exact-zero trailing singular values
            // (the linear pattern is affine, hence rank 2 after centering).
            assert!((a - b).abs() < 1e-8 + 1e-6 * b, "{a} vs {b}");
        }
    }

    #[test]
    fn transform_batches_match_local_projection() {
        let (cluster, gt, batches) = setup(3, 3, 4);
        let client = cluster.client();
        let ipca = InSituIncrementalPCA::new(2, SvdSolver::Full);
        let mut g = Graph::new("proj");
        let batch_keys = gt.batches_along(&mut g, "t", &["Y"], &["X"]).unwrap();
        let fitted = ipca.fit_batches(&mut g, &batch_keys);
        let projected = ipca.transform_batches(&mut g, &fitted.state_key, &batch_keys);
        g.submit(&client);
        let model = fitted.fetch(&client).unwrap();

        let mut local = IncrementalPca::new(2, SvdSolver::Full);
        for b in &batches {
            local.partial_fit(b).unwrap();
        }
        for (t, key) in projected.iter().enumerate() {
            let z = client.future(key.clone()).result().unwrap();
            let z = z.as_array().unwrap();
            assert_eq!(z.shape(), &[4, 2]); // Y samples × k
            let expect = local.transform(&batches[t]).unwrap();
            let got = Matrix::from_ndarray((**z).clone()).unwrap();
            assert!(got.max_abs_diff(&expect).unwrap() < 1e-9);
        }
        // Reconstruction sanity: projecting reduces dimension 3 -> 2.
        assert_eq!(model.components.rows(), 2);
    }
}
