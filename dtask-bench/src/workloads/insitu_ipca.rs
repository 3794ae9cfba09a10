//! `insitu_ipca` — the paper's pipeline end to end: Heat2D on a 1×2 `mpisim`
//! grid, through PDI and the deisa plugin (DEISA3), into a whole-graph
//! two-component incremental PCA submitted before the first timestep exists.
//! One epoch (a fresh cluster, one complete workflow) is one unit.

use super::kernels::{rank_loop, serial_reference, HotSquare};
use super::{
    cluster_for, epoch_segment, spans_for, BridgeMsgs, EpochStats, Scale, Segment, Shape, Variant,
    Workload, RESULT_DEADLINE,
};
use crate::measure::Rng;
use crate::spans::{Probe, Spans};
use darray::Graph;
use deisa_core::plugin::DeisaPlugin;
use deisa_core::{Adaptor, DeisaVersion, Selection};
use dml::{InSituIncrementalPCA, IncrementalPca, SvdSolver};
use dtask::Client;
use heat2d::HeatConfig;
use mpisim::World;
use pdi::{parse_yaml, Pdi};
use std::time::Instant;

/// The deisa plugin configuration of the paper's Listing 1.
const CONFIG: &str = r#"
data:
  temp:
    type: array
    subtype: double
plugins:
  PdiPluginDeisa:
    init_on: init
    time_step: $step
    deisa_arrays:
      G_temp:
        size:
          -'$max_step'
          -'$loc[0] * $proc[0]'
          -'$loc[1] * $proc[1]'
        subsize:
          -1
          -'$loc[0]'
          -'$loc[1]'
        start:
          -$step
          -'$loc[0] * ($rank / $proc[1])'
          -'$loc[1] * ($rank % $proc[1])'
        timedim: 0
    map_in:
      temp: G_temp
"#;

const LOCAL: usize = 64;
const PROCS: (usize, usize) = (1, 2);
const N_COMPONENTS: usize = 2;
/// Components of the in-situ model must agree with the serial reference.
const REFERENCE_TOLERANCE: f64 = 1e-9;

pub struct InsituIpca {
    steps: usize,
    hot: HotSquare,
    reference: Option<IncrementalPca>,
    /// Components of the first epoch: every later epoch must repeat them bit
    /// for bit.
    first_components: Option<Vec<f64>>,
    bridge_msgs: BridgeMsgs,
    next_unit: u32,
}

struct Epoch {
    stats: EpochStats,
    model: IncrementalPca,
}

impl InsituIpca {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let steps = match scale {
            Scale::Full => 50,
            Scale::Smoke => 6,
        };
        let cfg = Self::config(steps);
        InsituIpca {
            steps,
            hot: HotSquare::seeded(&cfg, &mut Rng::new(seed)),
            reference: None,
            first_components: None,
            bridge_msgs: BridgeMsgs::default(),
            next_unit: 0,
        }
    }

    fn config(steps: usize) -> HeatConfig {
        HeatConfig::new((LOCAL * PROCS.0, LOCAL * PROCS.1), PROCS, steps)
            .expect("static heat configuration is valid")
    }

    /// The analytics side (the paper's Listing 2): sign the contract, build
    /// the whole multi-timestep graph, submit it once, wait for the model.
    fn analytics(
        client: Client,
        probe: &Probe<'_>,
    ) -> Result<(IncrementalPca, usize, Instant), String> {
        let adaptor = Adaptor::new(client);
        let contract = probe.span("core.contract");
        let mut arrays = adaptor.get_deisa_arrays()?;
        let v = arrays
            .descriptor("G_temp")
            .ok_or("simulation offers no G_temp")?
            .clone();
        let gt = arrays.select_labeled("G_temp", Selection::all(&v), &["t", "X", "Y"])?;
        arrays.validate_contract()?;
        drop(contract);
        let build = probe.span("darray.graph_build");
        let ipca = InSituIncrementalPCA::new(N_COMPONENTS, SvdSolver::Full);
        let mut g = Graph::new("ipca");
        let fitted = ipca.fit(&mut g, &gt, "t", &["Y"], &["X"])?;
        drop(build);
        let submit = probe.span("dtask.client.submit");
        let tasks = g.submit(adaptor.client());
        drop(submit);
        // Wait under a deadline, then decode through the public fetch.
        adaptor
            .client()
            .future(fitted.state_key.clone())
            .result_timeout(RESULT_DEADLINE)
            .map_err(|e| e.to_string())?;
        let model = fitted.fetch(adaptor.client())?;
        Ok((model, tasks, Instant::now()))
    }

    fn epoch(&self, steps: usize, variant: Variant, probe: &Probe<'_>) -> Result<Epoch, String> {
        let cluster = cluster_for(variant, false);
        darray::register_array_ops(cluster.registry());
        dml::register_ml_ops(cluster.registry());
        let cfg = Self::config(steps);
        let yaml = parse_yaml(CONFIG).map_err(|e| e.to_string())?;
        let analytics_client = cluster.client();
        let started = Instant::now();
        let (analytics, ranks) = std::thread::scope(|scope| {
            let analytics = scope.spawn(|| Self::analytics(analytics_client, probe));
            let ranks = World::run(cfg.n_ranks(), |comm| {
                let mut pdi = Pdi::new(yaml.clone());
                let client = cluster.client_with_heartbeat(DeisaVersion::Deisa3.heartbeat());
                DeisaPlugin::from_yaml(&yaml, DeisaVersion::Deisa3, client)
                    .map_err(|e| e.to_string())?
                    .install(&mut pdi);
                rank_loop(comm, &cfg, &self.hot, &mut pdi, probe)
            });
            (analytics.join(), ranks)
        });
        let (model, tasks, done) = analytics.map_err(|_| "analytics thread panicked")??;
        let published = ranks
            .map_err(|e| e.to_string())?
            .into_iter()
            .collect::<Result<Vec<Instant>, String>>()?;
        if let Some(last) = published.into_iter().max() {
            probe.record("dtask.client.fetch", last, done);
        }
        let makespan_s = done.duration_since(started).as_secs_f64();
        Ok(Epoch {
            stats: EpochStats::observe(&cluster, variant, probe, makespan_s, tasks),
            model,
        })
    }

    /// The output checks of one epoch at the full `T`.
    fn check(&mut self, epoch: &Epoch) -> Result<(), String> {
        let reference = self.reference.as_ref().ok_or("no reference model")?;
        let expect_samples = (self.steps * LOCAL * PROCS.1) as u64;
        if epoch.model.n_samples_seen != expect_samples {
            return Err(format!(
                "n_samples_seen {} != T*Y {expect_samples}",
                epoch.model.n_samples_seen
            ));
        }
        let diff = epoch
            .model
            .components
            .max_abs_diff(&reference.components)
            .map_err(|e| e.to_string())?;
        // NaN must fail too.
        if diff.is_nan() || diff > REFERENCE_TOLERANCE {
            return Err(format!(
                "components differ from serial reference by {diff:e}"
            ));
        }
        let bits = epoch.model.components.data();
        match &self.first_components {
            None => self.first_components = Some(bits.to_vec()),
            Some(first) => {
                let same = first.len() == bits.len()
                    && first
                        .iter()
                        .zip(bits)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    return Err("components not bit-identical across epochs".into());
                }
            }
        }
        if epoch.stats.tasks as u64 != self.shape().tasks_per_unit {
            return Err(format!("{} tasks submitted", epoch.stats.tasks));
        }
        Ok(())
    }
}

impl Workload for InsituIpca {
    fn shape(&self) -> Shape {
        Shape {
            // Per timestep: assemble the cross-section, stack it into a
            // batch, partial_fit; plus the initial state.
            tasks_per_unit: 3 * self.steps as u64 + 1,
            payload_bytes_per_unit: (self.steps * PROCS.0 * PROCS.1 * LOCAL * LOCAL * 8) as u64,
            units_per_segment: 1,
            cluster_lifetime_units: None,
        }
    }

    fn own_tcp(&self) -> bool {
        false
    }

    fn setup(&mut self, spans: Option<&Spans>) -> Result<(), String> {
        let cfg = Self::config(self.steps);
        self.reference = Some(serial_reference(
            cfg.global,
            self.steps,
            &self.hot,
            N_COMPONENTS,
            &Probe::setup(spans),
        )?);
        // Warm-up epoch at T/2: its bridge message count is the yardstick.
        let warmup = self.epoch(self.steps / 2, Variant::Plain, &Probe::off())?;
        self.bridge_msgs.warmup = warmup.stats.counters.bridge_msgs;
        Ok(())
    }

    fn run_segment(&mut self, variant: Variant, spans: Option<&Spans>) -> Segment {
        let unit_id = self.next_unit;
        self.next_unit += 1;
        let (probe, root) = Probe::unit(spans_for(variant, spans), unit_id);
        let outcome = self.epoch(self.steps, variant, &probe);
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
