//! `field_mean.tcp` — the data plane: two bridges publish large blocks, the
//! analytics takes the mean over time. Compute is trivial, so payload
//! encode/decode, sockets, the worker store and the dependency gather do the
//! work. One epoch (a fresh cluster, one complete workflow) is one unit.

use super::{
    cluster_for, epoch_segment, spans_for, BridgeMsgs, EpochStats, Scale, Segment, Shape, Variant,
    Workload, RESULT_DEADLINE,
};
use crate::measure::Rng;
use crate::spans::{Probe, Spans};
use darray::Graph;
use deisa_core::{Adaptor, Bridge, DeisaVersion, Selection, VirtualArray};
use dtask::Client;
use linalg::NDArray;
use std::time::Instant;

const ARRAY: &str = "G_field";
const RANKS: usize = 2;
/// The mean must equal the closed form to this absolute error.
const MEAN_TOLERANCE: f64 = 1e-12;

pub struct FieldMean {
    steps: usize,
    /// Block edge: a block is `1 × side × side` doubles.
    side: usize,
    /// One pre-built block per rank; every published block is a clone of it
    /// with the timestep stamped into its first cell, so generation costs a
    /// memcpy and a misplaced timestep still shows in the mean.
    base: Vec<NDArray>,
    rng: Rng,
    bridge_msgs: BridgeMsgs,
    next_unit: u32,
}

struct Epoch {
    stats: EpochStats,
    mean: Vec<NDArray>,
}

impl FieldMean {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (steps, side) = match scale {
            Scale::Full => (50, 256),
            Scale::Smoke => (8, 64),
        };
        let mut rng = Rng::new(seed);
        let base = (0..RANKS)
            .map(|_| {
                // Multiples of 2^-10 in [0, 1): sums over T stay exact.
                NDArray::from_fn(&[1, side, side], |_| rng.below(1024) as f64 / 1024.0)
            })
            .collect();
        FieldMean {
            steps,
            side,
            base,
            rng,
            bridge_msgs: BridgeMsgs::default(),
            next_unit: 0,
        }
    }

    fn varray(&self, steps: usize) -> VirtualArray {
        VirtualArray::new(
            ARRAY,
            &[steps, self.side, RANKS * self.side],
            &[1, self.side, self.side],
            0,
        )
        .expect("static virtual array is valid")
    }

    /// Contract, `mean_axis(0)` over time, one submission, gather the blocks.
    fn analytics(
        client: Client,
        probe: &Probe<'_>,
    ) -> Result<(Vec<NDArray>, usize, Instant), String> {
        let adaptor = Adaptor::new(client);
        let contract = probe.span("core.contract");
        let mut arrays = adaptor.get_deisa_arrays()?;
        let v = arrays
            .descriptor(ARRAY)
            .ok_or("bridges offer no G_field")?
            .clone();
        let field = arrays.select(ARRAY, Selection::all(&v))?;
        arrays.validate_contract()?;
        drop(contract);
        let build = probe.span("darray.graph_build");
        let mut g = Graph::new("mean");
        let mean = field.mean_axis(&mut g, 0).map_err(|e| e.to_string())?;
        for key in mean.keys() {
            g.mark_output(key);
        }
        drop(build);
        let submit = probe.span("dtask.client.submit");
        let tasks = g.submit(adaptor.client());
        drop(submit);
        let mut blocks = Vec::with_capacity(mean.keys().len());
        for key in mean.keys() {
            let datum = adaptor
                .client()
                .future(key.clone())
                .result_timeout(RESULT_DEADLINE)
                .map_err(|e| e.to_string())?;
            let block = datum
                .as_array()
                .ok_or_else(|| format!("{key} is not an array"))?;
            blocks.push((**block).clone());
        }
        Ok((blocks, tasks, Instant::now()))
    }

    /// One bridge: sign the contract, publish every timestep in `order`.
    fn rank(
        &self,
        client: Client,
        rank: usize,
        varray: VirtualArray,
        order: &[usize],
        probe: &Probe<'_>,
    ) -> Result<Instant, String> {
        let mut bridge = Bridge::init(client, rank, vec![varray])?;
        for &t in order {
            let mut block = self.base[rank].clone();
            block.data_mut()[0] = t as f64;
            let _s = probe.span("core.publish");
            if !bridge.publish(ARRAY, t, rank, block)? {
                return Err(format!("block ({t}, {rank}) filtered by a full contract"));
            }
        }
        Ok(Instant::now())
    }

    fn epoch(
        &self,
        steps: usize,
        orders: &[Vec<usize>],
        variant: Variant,
        probe: &Probe<'_>,
    ) -> Result<Epoch, String> {
        let cluster = cluster_for(variant, true);
        darray::register_array_ops(cluster.registry());
        let varray = self.varray(steps);
        let analytics_client = cluster.client();
        let bridge_clients: Vec<Client> = (0..RANKS)
            .map(|_| cluster.client_with_heartbeat(DeisaVersion::Deisa3.heartbeat()))
            .collect();
        let started = Instant::now();
        let (analytics, ranks) = std::thread::scope(|scope| {
            let analytics = scope.spawn(move || Self::analytics(analytics_client, probe));
            let ranks: Vec<_> = bridge_clients
                .into_iter()
                .zip(orders)
                .enumerate()
                .map(|(rank, (client, order))| {
                    let varray = varray.clone();
                    scope.spawn(move || self.rank(client, rank, varray, order, probe))
                })
                .collect();
            let ranks: Vec<_> = ranks.into_iter().map(|h| h.join()).collect();
            (analytics.join(), ranks)
        });
        let (mean, tasks, done) = analytics.map_err(|_| "analytics thread panicked")??;
        let mut last_publish = started;
        for rank in ranks {
            last_publish = last_publish.max(rank.map_err(|_| "bridge thread panicked")??);
        }
        probe.record("dtask.client.fetch", last_publish, done);
        let makespan_s = done.duration_since(started).as_secs_f64();
        Ok(Epoch {
            stats: EpochStats::observe(&cluster, variant, probe, makespan_s, tasks),
            mean,
        })
    }

    /// Closed form: every cell is its base value, except the stamped first
    /// cell of each block, whose mean over `t = 0..T` is `(T − 1) / 2`.
    fn check(&self, epoch: &Epoch) -> Result<(), String> {
        if epoch.mean.len() != RANKS {
            return Err(format!("{} mean blocks", epoch.mean.len()));
        }
        for (rank, (got, base)) in epoch.mean.iter().zip(&self.base).enumerate() {
            if got.shape() != [self.side, self.side] {
                return Err(format!("mean block {rank} has shape {:?}", got.shape()));
            }
            for (i, (&g, &b)) in got.data().iter().zip(base.data()).enumerate() {
                let expect = if i == 0 {
                    (self.steps - 1) as f64 / 2.0
                } else {
                    b
                };
                // NaN must fail too.
                if (g - expect).abs().is_nan() || (g - expect).abs() > MEAN_TOLERANCE {
                    return Err(format!("mean block {rank} cell {i}: {g} != {expect}"));
                }
            }
        }
        if epoch.stats.tasks as u64 != self.shape().tasks_per_unit {
            return Err(format!("{} tasks submitted", epoch.stats.tasks));
        }
        Ok(())
    }

    fn orders(&mut self, steps: usize) -> Vec<Vec<usize>> {
        (0..RANKS).map(|_| self.rng.permutation(steps)).collect()
    }
}

/// Tasks `mean_axis(0)` builds over `steps` blocks: one local reduce per
/// block, an arity-8 merge tree, one scaling.
fn mean_tasks(steps: usize) -> u64 {
    let mut tasks = steps as u64;
    let mut level = steps;
    while level > 1 {
        // A trailing group of one is passed through, not merged.
        tasks += (level / 8 + usize::from(level % 8 > 1)) as u64;
        level = level.div_ceil(8);
    }
    tasks + 1
}

impl Workload for FieldMean {
    fn shape(&self) -> Shape {
        Shape {
            tasks_per_unit: RANKS as u64 * mean_tasks(self.steps),
            payload_bytes_per_unit: (RANKS * self.steps * self.side * self.side * 8) as u64,
            units_per_segment: 1,
            cluster_lifetime_units: None,
        }
    }

    fn own_tcp(&self) -> bool {
        true
    }

    fn setup(&mut self, _spans: Option<&Spans>) -> Result<(), String> {
        let half = self.steps / 2;
        let orders = self.orders(half);
        let warmup = self.epoch(half, &orders, Variant::Plain, &Probe::off())?;
        self.bridge_msgs.warmup = warmup.stats.counters.bridge_msgs;
        Ok(())
    }

    fn run_segment(&mut self, variant: Variant, spans: Option<&Spans>) -> Segment {
        let unit_id = self.next_unit;
        self.next_unit += 1;
        let orders = self.orders(self.steps);
        let (probe, root) = Probe::unit(spans_for(variant, spans), unit_id);
        let outcome = self.epoch(self.steps, &orders, variant, &probe);
        drop(root);
        epoch_segment(
            variant,
            outcome.map(|epoch| {
                let failure = self.check(&epoch).err();
                self.bridge_msgs
                    .epochs
                    .push(epoch.stats.counters.bridge_msgs);
                (epoch.stats, failure)
            }),
        )
    }

    fn cross_unit_failures(&self) -> Vec<String> {
        self.bridge_msgs.failures()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_task_count_matches_the_issue_sizing() {
        // T = 200: 200 reduces + 25 + 3 (+1 passed through) + 1 merges + 1
        // scaling = 230 per block column, 460 for two.
        assert_eq!(2 * mean_tasks(200), 460);
        assert_eq!(mean_tasks(1), 2);
        assert_eq!(mean_tasks(8), 10);
        assert_eq!(mean_tasks(9), 9 + 1 + 1 + 1);
    }

    #[test]
    fn seed_changes_arrival_order_and_values_but_not_counts() {
        let mut a = FieldMean::new(1, Scale::Smoke);
        let mut b = FieldMean::new(2, Scale::Smoke);
        assert_eq!(a.shape().tasks_per_unit, b.shape().tasks_per_unit);
        assert_eq!(
            a.shape().payload_bytes_per_unit,
            b.shape().payload_bytes_per_unit
        );
        assert_ne!(a.base[0].data(), b.base[0].data());
        let (oa, ob) = (a.orders(8), b.orders(8));
        assert_ne!(oa, ob);
        for order in oa.iter().chain(&ob) {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        }
        let mut again = FieldMean::new(1, Scale::Smoke);
        assert_eq!(again.orders(8), oa);
    }
}
