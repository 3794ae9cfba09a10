//! The analytics-side adaptor (consumer side) — external-task protocol.
//!
//! Mirrors the client flow of the paper's Listing 2:
//!
//! ```text
//! let adaptor = Adaptor::new(client);
//! let mut arrays = adaptor.get_deisa_arrays()?;     // blocks on rank-0 descriptors
//! let gt = arrays.select("G_temp", Selection::all(..))?;  // the [] operator
//! arrays.validate_contract()?;                       // sign + register externals
//! // … build the whole analytics graph over `gt` and submit it — before
//! // the simulation has produced anything.
//! ```

use crate::bridge::{ARRAYS_VAR, CONTRACT_VAR};
use crate::contract::{Contract, Selection};
use crate::varray::VirtualArray;
use darray::{ChunkGrid, DArray, LabeledArray};
use dtask::{Client, EventKind, Key};

/// The adaptor: wraps the analytics client's connection to DEISA.
pub struct Adaptor {
    client: Client,
}

impl Adaptor {
    /// Wrap an analytics client.
    pub fn new(client: Client) -> Self {
        Adaptor { client }
    }

    /// Access the underlying client (graph submission, future gathering).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Wait for the simulation's rank-0 bridge to publish the virtual array
    /// descriptors, then return the selection handle.
    pub fn get_deisa_arrays(&self) -> Result<DeisaArrays<'_>, String> {
        self.client.tracer().set_label("adaptor".to_string());
        let setup_t0 = self.client.tracer().start();
        let datum = self
            .client
            .var_get(ARRAYS_VAR)
            .map_err(|e| format!("adaptor: waiting for descriptors: {e}"))?;
        self.client
            .tracer()
            .span(EventKind::ContractSetup, setup_t0, None, 0);
        let list = datum.as_list().ok_or("adaptor: descriptor list expected")?;
        let varrays = list
            .iter()
            .map(VirtualArray::from_datum)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DeisaArrays {
            adaptor: self,
            varrays,
            contract: Contract::new(),
            validated: false,
        })
    }
}

/// The set of virtual arrays offered by the simulation, plus the selections
/// made so far (the contract under construction).
pub struct DeisaArrays<'a> {
    adaptor: &'a Adaptor,
    varrays: Vec<VirtualArray>,
    contract: Contract,
    validated: bool,
}

impl DeisaArrays<'_> {
    /// Names of the arrays the simulation shares.
    pub fn names(&self) -> Vec<&str> {
        self.varrays.iter().map(|v| v.name.as_str()).collect()
    }

    /// Descriptor of one array.
    pub fn descriptor(&self, name: &str) -> Option<&VirtualArray> {
        self.varrays.iter().find(|v| v.name == name)
    }

    /// Select a region of an array (the `[]` operator of Listing 2; use
    /// [`Selection::all`] for `[...]`). Returns the Dask-side array over the
    /// **block-aligned hull** of the selection — chunked exactly like the
    /// simulation decomposition, one external task per block per timestep.
    pub fn select(&mut self, name: &str, selection: Selection) -> Result<DArray, String> {
        let varray = self
            .varrays
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| format!("no deisa array named '{name}'"))?;
        selection.validate(varray)?;
        if varray.timedim != 0 {
            return Err(format!(
                "deisa array '{name}': only timedim 0 layouts are supported"
            ));
        }
        let hull = selection.block_aligned(varray);
        let ranges = selection.block_ranges(varray);
        // Chunk grid over the hull with the simulation's block sizes.
        let chunk_sizes: Vec<Vec<usize>> = hull
            .sizes
            .iter()
            .zip(&varray.subsize)
            .map(|(&extent, &b)| vec![b; extent / b])
            .collect();
        let grid = ChunkGrid::new(&hull.sizes, chunk_sizes).map_err(|e| e.to_string())?;
        // Keys in row-major order over the hull's block grid.
        let range_dims: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let mut keys = Vec::with_capacity(grid.n_chunks());
        for rel in darray::array::iter_coords(&range_dims) {
            let position: Vec<usize> = rel
                .iter()
                .zip(&ranges)
                .map(|(r, range)| range.start + r)
                .collect();
            keys.push(crate::naming::block_key(name, &position));
        }
        let array = DArray::from_keys(grid, keys).map_err(|e| e.to_string())?;
        self.contract.insert(name, selection);
        Ok(array)
    }

    /// Like [`DeisaArrays::select`] with labeled dimensions attached.
    pub fn select_labeled(
        &mut self,
        name: &str,
        selection: Selection,
        labels: &[&str],
    ) -> Result<LabeledArray, String> {
        let array = self.select(name, selection)?;
        LabeledArray::new(array, labels).map_err(|e| e.to_string())
    }

    /// Sign the contract (§2.4.3): register every selected block as an
    /// external task, then publish the selections so the blocked bridges can
    /// proceed. Call exactly once, after all selections.
    pub fn validate_contract(&mut self) -> Result<(), String> {
        if self.validated {
            return Err("contract already validated".into());
        }
        let setup_t0 = self.adaptor.client.tracer().start();
        // Register external tasks for all selected blocks, all timesteps.
        let mut external: Vec<Key> = Vec::new();
        for varray in &self.varrays {
            let Some(sel) = self.contract.get(&varray.name) else {
                continue;
            };
            let ranges = sel.block_ranges(varray);
            let range_dims: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            for rel in darray::array::iter_coords(&range_dims) {
                let position: Vec<usize> = rel
                    .iter()
                    .zip(&ranges)
                    .map(|(r, range)| range.start + r)
                    .collect();
                external.push(crate::naming::block_key(&varray.name, &position));
            }
        }
        let n_external = external.len() as u64;
        self.adaptor.client.register_external(external);
        self.adaptor
            .client
            .var_set(CONTRACT_VAR, self.contract.to_datum());
        self.adaptor
            .client
            .tracer()
            .span(EventKind::ContractSetup, setup_t0, None, n_external);
        self.validated = true;
        Ok(())
    }

    /// The contract as built so far.
    pub fn contract(&self) -> &Contract {
        &self.contract
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::Bridge;
    use crate::DeisaVersion;
    use dtask::Cluster;
    use linalg::NDArray;

    fn varr(t: usize) -> VirtualArray {
        VirtualArray::new("G_temp", &[t, 4, 6], &[1, 2, 3], 0).unwrap()
    }

    /// Full happy-path workflow on one thread per actor.
    #[test]
    fn end_to_end_contract_and_data_flow() {
        let cluster = Cluster::new(2);
        darray::register_array_ops(cluster.registry());
        let n_ranks = 4usize; // 2x2 spatial grid
        let t_max = 3usize;

        // Analytics thread: select everything, submit a sum over all data.
        let analytics = {
            let client = cluster.client();
            std::thread::spawn(move || {
                let adaptor = Adaptor::new(client);
                let mut arrays = adaptor.get_deisa_arrays().unwrap();
                assert_eq!(arrays.names(), vec!["G_temp"]);
                let gt = arrays
                    .select(
                        "G_temp",
                        Selection::all(arrays.descriptor("G_temp").unwrap()),
                    )
                    .unwrap();
                arrays.validate_contract().unwrap();
                let mut g = darray::Graph::new("an");
                let total_key = gt.sum_all(&mut g);
                g.submit(adaptor.client());
                adaptor
                    .client()
                    .future(total_key)
                    .result()
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
        };

        // Bridge threads (the "simulation").
        let mut handles = Vec::new();
        for rank in 0..n_ranks {
            let client = cluster.client_with_heartbeat(DeisaVersion::Deisa3.heartbeat());
            handles.push(std::thread::spawn(move || {
                let mut bridge = Bridge::init(client, rank, vec![varr(3)]).unwrap();
                for t in 0..t_max {
                    // Block value = rank + t, so the global sum is known.
                    let block = NDArray::full(&[1, 2, 3], (rank + t) as f64);
                    let sent = bridge.publish("G_temp", t, rank, block).unwrap();
                    assert!(sent);
                }
                bridge.sent_blocks
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), t_max as u64);
        }
        // Sum over t, rank of 6*(rank+t).
        let expect: f64 = (0..t_max)
            .flat_map(|t| (0..n_ranks).map(move |r| 6.0 * (r + t) as f64))
            .sum();
        assert_eq!(analytics.join().unwrap(), expect);
    }

    /// The same end-to-end contract workflow on a cluster with the graph
    /// optimizer and batched scheduler ingestion enabled: contract-registered
    /// external keys must be protected from cull/fuse, so the bridge's
    /// published blocks still unblock the analytics graph and the result is
    /// unchanged.
    #[test]
    fn contract_externals_survive_graph_optimizer() {
        let cluster = Cluster::with_config(dtask::ClusterConfig {
            n_workers: 2,
            optimize: dtask::OptimizeConfig::enabled(),
            ..Default::default()
        });
        darray::register_array_ops(cluster.registry());
        let n_ranks = 4usize;
        let t_max = 3usize;

        let analytics = {
            let client = cluster.client();
            std::thread::spawn(move || {
                let adaptor = Adaptor::new(client);
                let mut arrays = adaptor.get_deisa_arrays().unwrap();
                let gt = arrays
                    .select(
                        "G_temp",
                        Selection::all(arrays.descriptor("G_temp").unwrap()),
                    )
                    .unwrap();
                arrays.validate_contract().unwrap();
                // Every selected block (t_max steps × n_ranks blocks) is now
                // a protected external key on this client.
                assert_eq!(
                    adaptor.client().external_keys().len(),
                    t_max * n_ranks,
                    "contract must register one external key per block"
                );
                let mut g = darray::Graph::new("an");
                let total_key = gt.sum_all(&mut g);
                g.mark_output(&total_key);
                g.submit(adaptor.client());
                adaptor
                    .client()
                    .future(total_key)
                    .result()
                    .unwrap()
                    .as_f64()
                    .unwrap()
            })
        };

        let mut handles = Vec::new();
        for rank in 0..n_ranks {
            let client = cluster.client_with_heartbeat(DeisaVersion::Deisa3.heartbeat());
            handles.push(std::thread::spawn(move || {
                let mut bridge = Bridge::init(client, rank, vec![varr(3)]).unwrap();
                for t in 0..t_max {
                    let block = NDArray::full(&[1, 2, 3], (rank + t) as f64);
                    assert!(bridge.publish("G_temp", t, rank, block).unwrap());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let expect: f64 = (0..t_max)
            .flat_map(|t| (0..n_ranks).map(move |r| 6.0 * (r + t) as f64))
            .sum();
        assert_eq!(analytics.join().unwrap(), expect);
        // The optimizer ran, and every external block arrived exactly once —
        // the extended-scatter accounting is bit-identical to the
        // unoptimized protocol.
        let stats = cluster.stats();
        assert!(stats.optimize_tasks_in() > 0);
        assert_eq!(
            stats.count(dtask::MsgClass::UpdateDataExternal),
            (t_max * n_ranks) as u64
        );
    }

    #[test]
    fn contract_filters_unselected_blocks() {
        let cluster = Cluster::new(2);
        let n_ranks = 4usize;
        // Analytics selects only spatial rows 0..2 (the top block row).
        let analytics = {
            let client = cluster.client();
            std::thread::spawn(move || {
                let adaptor = Adaptor::new(client);
                let mut arrays = adaptor.get_deisa_arrays().unwrap();
                let v = arrays.descriptor("G_temp").unwrap().clone();
                let sel = Selection {
                    starts: vec![0, 0, 0],
                    sizes: vec![v.shape[0], 2, 6],
                };
                let gt = arrays.select("G_temp", sel).unwrap();
                arrays.validate_contract().unwrap();
                // The hull covers only the top block row: 1x1x2 blocks/step.
                assert_eq!(gt.shape(), &[2, 2, 6]);
                gt
            })
        };
        let mut sent_total = 0u64;
        let mut filtered_total = 0u64;
        let mut handles = Vec::new();
        for rank in 0..n_ranks {
            let client = cluster.client();
            handles.push(std::thread::spawn(move || {
                let mut bridge = Bridge::init(client, rank, vec![varr(2)]).unwrap();
                for t in 0..2 {
                    let block = NDArray::full(&[1, 2, 3], 1.0);
                    bridge.publish("G_temp", t, rank, block).unwrap();
                }
                (bridge.sent_blocks, bridge.filtered_blocks)
            }));
        }
        for h in handles {
            let (s, f) = h.join().unwrap();
            sent_total += s;
            filtered_total += f;
        }
        analytics.join().unwrap();
        // Ranks 0,1 are the top row (sent); ranks 2,3 filtered.
        assert_eq!(sent_total, 4);
        assert_eq!(filtered_total, 4);
    }

    #[test]
    fn select_errors() {
        let cluster = Cluster::new(1);
        let client0 = cluster.client();
        // Publish descriptors directly (stand-in for rank 0).
        client0.var_set(ARRAYS_VAR, dtask::Datum::List(vec![varr(2).to_datum()]));
        let adaptor = Adaptor::new(cluster.client());
        let mut arrays = adaptor.get_deisa_arrays().unwrap();
        assert!(arrays.select("nope", Selection::all(&varr(2))).is_err());
        let bad = Selection {
            starts: vec![0, 0, 0],
            sizes: vec![5, 4, 6],
        };
        assert!(arrays.select("G_temp", bad).is_err());
        // Validate twice fails.
        arrays.validate_contract().unwrap();
        assert!(arrays.validate_contract().is_err());
    }

    #[test]
    fn publish_validation_errors() {
        let cluster = Cluster::new(1);
        let adaptor_client = cluster.client();
        let bridge_client = cluster.client();
        let t = std::thread::spawn(move || {
            let adaptor = Adaptor::new(adaptor_client);
            let mut arrays = adaptor.get_deisa_arrays().unwrap();
            let v = arrays.descriptor("G_temp").unwrap().clone();
            arrays.select("G_temp", Selection::all(&v)).unwrap();
            arrays.validate_contract().unwrap();
        });
        let mut bridge = Bridge::init(bridge_client, 0, vec![varr(2)]).unwrap();
        t.join().unwrap();
        // Wrong name.
        assert!(bridge
            .publish("other", 0, 0, NDArray::zeros(&[1, 2, 3]))
            .is_err());
        // Wrong shape.
        assert!(bridge
            .publish("G_temp", 0, 0, NDArray::zeros(&[2, 3]))
            .is_err());
        // Timestep out of range.
        assert!(bridge
            .publish("G_temp", 9, 0, NDArray::zeros(&[1, 2, 3]))
            .is_err());
    }
}
