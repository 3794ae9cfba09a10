//! `task_storm`, `task_storm.tcp`, `task_storm.retained` — control-plane
//! storms. A round is 64 external-rooted chains of 8 scalar `bump`s into one
//! `sum_scalars` sink: kernels cost nothing, so the round is scheduler
//! transitions, policy decisions and message hops (plus, over Tcp, one small
//! frame per hop). One round is one unit.

use super::{
    cluster_for, resident_bytes, spans_for, Counters, PhaseSum, Scale, Segment, Shape, Unit,
    Variant, Workload, RESULT_DEADLINE,
};
use crate::measure::Rng;
use crate::spans::{Probe, Spans};
use darray::Graph;
use dtask::{Client, Cluster, Datum, Key, TaskSpec};
use std::collections::HashMap;
use std::time::Instant;

const CHAINS: usize = 64;
const CHAIN_LEN: usize = 8;
/// The traced variant drains the trace rings every this many rounds. A ring
/// holds about eight rounds of scheduler events; draining after every round
/// would hand the scheduler a pause in which to process the round's release
/// before the next round is timed, which the untraced rounds do not get.
const TRACE_DRAIN_EVERY: usize = 4;
/// Rounds run at set-up before anything is timed.
const WARMUP_ROUNDS: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StormKind {
    /// InProc, every key released after its round, one long-lived cluster.
    Released,
    /// The same over Tcp.
    ReleasedTcp,
    /// InProc, keys never released, a fresh cluster per segment so every
    /// segment climbs the same curve of resident state.
    Retained,
}

/// A cluster and the one long-lived client that drives it. The client is
/// declared first so it disconnects before the cluster shuts down.
struct Live {
    client: Client,
    cluster: Cluster,
    /// Counters at the end of the previous segment on this cluster.
    counters: Counters,
}

pub struct Storm {
    kind: StormKind,
    rounds_per_segment: usize,
    /// Scalar payload of each chain's external block: whole numbers, so the
    /// sink's sum is exact.
    payloads: Vec<f64>,
    rng: Rng,
    live: HashMap<Variant, Live>,
    next_round: u64,
}

impl Storm {
    pub fn new(kind: StormKind, seed: u64, scale: Scale) -> Self {
        // Released storms: short segments, so a segment lies within one
        // placement of the cluster's threads (they flip every few hundred
        // milliseconds) and the segment-rate quartile can tell them apart.
        // Retained storm: a segment is the whole life of one cluster.
        let rounds_per_segment = match (kind, scale) {
            (StormKind::Retained, Scale::Full) => 100,
            _ => 10,
        };
        let mut rng = Rng::new(seed);
        Storm {
            kind,
            rounds_per_segment,
            payloads: (0..CHAINS).map(|_| rng.below(1000) as f64).collect(),
            rng,
            live: HashMap::new(),
            next_round: 0,
        }
    }

    fn connect(&self, variant: Variant) -> Live {
        let cluster = cluster_for(variant, self.own_tcp());
        // Chain stage: scalar increment — free on purpose.
        cluster.registry().register("bump", |_params, inputs| {
            let x = inputs
                .first()
                .and_then(|d| d.as_f64())
                .ok_or_else(|| "bump: scalar input required".to_string())?;
            Ok(Datum::F64(x + 1.0))
        });
        Live {
            client: cluster.client(),
            counters: Counters::read(&cluster),
            cluster,
        }
    }

    fn expected_sink(&self) -> f64 {
        self.payloads.iter().map(|c| c + CHAIN_LEN as f64).sum()
    }

    /// One round. `order` is the arrival order of the external blocks.
    fn round(
        &self,
        client: &Client,
        round: u64,
        order: &[usize],
        probe: &Probe<'_>,
    ) -> Result<f64, String> {
        let ext_keys: Vec<Key> = (0..CHAINS)
            .map(|c| Key::new(format!("ext-{round}-{c}")))
            .collect();
        let started = Instant::now();
        {
            // The storm's whole contract: name the external keys.
            let _s = probe.span("core.contract");
            client.register_external(ext_keys.clone());
        }
        let build = probe.span("darray.graph_build");
        let mut g = Graph::new(format!("r{round}"));
        let mut keys = Vec::with_capacity(CHAINS * CHAIN_LEN + 1);
        let mut tails = Vec::with_capacity(CHAINS);
        for ext in &ext_keys {
            let mut prev = ext.clone();
            for _ in 0..CHAIN_LEN {
                let key = g.fresh_key("bump");
                g.add(TaskSpec::new(key.clone(), "bump", Datum::Null, vec![prev]));
                keys.push(key.clone());
                prev = key;
            }
            tails.push(prev);
        }
        let sink = g.fresh_key("sink");
        g.add(TaskSpec::new(
            sink.clone(),
            "sum_scalars",
            Datum::Null,
            tails,
        ));
        g.mark_output(&sink);
        keys.push(sink.clone());
        drop(build);
        let submit = probe.span("dtask.client.submit");
        let tasks = g.submit(client);
        drop(submit);
        // The "simulation" produces the blocks after the submission.
        for &c in order {
            let _s = probe.span("core.publish");
            client.scatter_external(
                vec![(ext_keys[c].clone(), Datum::F64(self.payloads[c]))],
                None,
            );
        }
        let fetch = probe.span("dtask.client.fetch");
        let got = client
            .future(sink)
            .result_timeout(RESULT_DEADLINE)
            .map_err(|e| e.to_string())?
            .as_f64()
            .ok_or("sink is not a scalar")?;
        drop(fetch);
        let makespan_s = started.elapsed().as_secs_f64();
        if self.kind != StormKind::Retained {
            keys.extend(ext_keys);
            client.release(keys);
        }
        if got != self.expected_sink() {
            return Err(format!("sink {got} != {}", self.expected_sink()));
        }
        if tasks as u64 != self.shape().tasks_per_unit {
            return Err(format!("{tasks} tasks submitted"));
        }
        Ok(makespan_s)
    }
}

impl Workload for Storm {
    fn shape(&self) -> Shape {
        Shape {
            tasks_per_unit: (CHAINS * CHAIN_LEN + 1) as u64,
            payload_bytes_per_unit: (CHAINS * 8) as u64,
            units_per_segment: self.rounds_per_segment,
            cluster_lifetime_units: (self.kind == StormKind::Retained)
                .then_some(self.rounds_per_segment),
        }
    }

    fn own_tcp(&self) -> bool {
        self.kind == StormKind::ReleasedTcp
    }

    fn setup(&mut self, _spans: Option<&Spans>) -> Result<(), String> {
        // Warm-up rounds on the cluster the timed section will use (a
        // throw-away cluster for the retained storm, whose every segment
        // starts cold by design).
        for _ in 0..WARMUP_ROUNDS.div_ceil(self.rounds_per_segment) {
            let warmup = self.run_segment(Variant::Plain, None);
            if let Some(e) = warmup.units.iter().find_map(|u| u.failure.clone()) {
                return Err(format!("warm-up round failed: {e}"));
            }
        }
        Ok(())
    }

    fn run_segment(&mut self, variant: Variant, spans: Option<&Spans>) -> Segment {
        // The retained storm drops its previous cluster before it builds the
        // next, so two generations of resident keys never overlap.
        let reuse = self.kind != StormKind::Retained;
        let live = self
            .live
            .remove(&variant)
            .filter(|_| reuse)
            .unwrap_or_else(|| self.connect(variant));
        let spans = spans_for(variant, spans);
        let mut units = Vec::with_capacity(self.rounds_per_segment);
        let mut phases = (variant == Variant::Traced).then(PhaseSum::default);
        let mut resident = 0;
        // A segment starts after a pause of its own: the other variants'
        // segments, or the counters read below.
        let mut drained = true;
        for i in 0..self.rounds_per_segment {
            let round = self.next_round;
            self.next_round += 1;
            let order = self.rng.permutation(CHAINS);
            let (probe, root) = Probe::unit(spans, round as u32);
            let outcome = self.round(&live.client, round, &order, &probe);
            drop(root);
            let last = i + 1 == self.rounds_per_segment;
            let after_pause = drained;
            drained = false;
            if let Some(phases) = &mut phases {
                if last || (i + 1) % TRACE_DRAIN_EVERY == 0 {
                    phases.collect(&live.cluster);
                    drained = true;
                }
            }
            if spans.is_some() && last {
                resident = resident_bytes(&live.cluster);
            }
            units.push(Unit {
                after_pause,
                ..match outcome {
                    Ok(makespan_s) => Unit::timed(makespan_s, None),
                    Err(e) => Unit::failed(e),
                }
            });
        }
        let now = Counters::read(&live.cluster);
        let counters = now.since(&live.counters);
        self.live.insert(
            variant,
            Live {
                counters: now,
                ..live
            },
        );
        Segment {
            variant,
            units,
            counters,
            phases,
            resident_bytes: resident,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_payloads_and_order_but_not_counts() {
        let mut a = Storm::new(StormKind::Released, 1, Scale::Smoke);
        let mut b = Storm::new(StormKind::Released, 2, Scale::Smoke);
        assert_ne!(a.payloads, b.payloads);
        assert_ne!(a.rng.permutation(CHAINS), b.rng.permutation(CHAINS));
        assert_eq!(a.shape().tasks_per_unit, 513);
        assert_eq!(a.shape().tasks_per_unit, b.shape().tasks_per_unit);
        assert_eq!(
            a.shape().payload_bytes_per_unit,
            b.shape().payload_bytes_per_unit
        );
        let same = Storm::new(StormKind::Released, 1, Scale::Smoke);
        assert_eq!(same.payloads, a.payloads);
    }

    #[test]
    fn a_smoke_segment_runs_checked_rounds_and_counts_messages() {
        let mut storm = Storm::new(StormKind::Released, 3, Scale::Smoke);
        let seg = storm.run_segment(Variant::Plain, None);
        assert_eq!(seg.units.len(), 10);
        assert!(seg
            .units
            .iter()
            .all(|u| u.failure.is_none() && u.makespan_s > 0.0));
        assert!(seg.counters.sched_msgs.unwrap() > 0.0);
        assert_eq!(
            seg.counters.wire_frames,
            Some(0.0),
            "InProc encodes nothing"
        );
        // The retained storm reconnects per segment and keeps its keys.
        let mut retained = Storm::new(StormKind::Retained, 3, Scale::Smoke);
        retained.run_segment(Variant::Plain, None);
        let kept: usize = retained.live[&Variant::Plain]
            .cluster
            .worker_memory()
            .iter()
            .map(|&(keys, _)| keys)
            .sum();
        // Every key of every round, plus the replicas the sinks gathered.
        assert!(
            kept >= 10 * (CHAINS * (CHAIN_LEN + 1) + 1),
            "{kept} keys kept"
        );
    }
}
