//! The simulation loop, the serial reference model, and the per-layer
//! probes of the traced pass (kernel timings and the transport round trip).

use crate::spans::{Probe, Spans};
use dml::{IncrementalPca, SvdSolver};
use dtask::Datum;
use heat2d::{HeatConfig, LocalSolver};
use linalg::{Matrix, NDArray};
use mpisim::{CartComm, Comm, World};
use pdi::{Pdi, PdiError, Plugin, Store, Yaml};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The seeded initial condition: a hot square covering a quarter of the
/// domain, like `heat2d::hot_square`. The seed picks its temperature and
/// slides it along the second axis (Y) by up to a sixteenth of the domain
/// either way from the centre. The PCA takes Y as its samples, so a slide
/// permutes the rows of every batch, and a temperature scales them: the
/// decomposition does the same work for every seed (a free placement does
/// not — near an edge the Jacobi sweeps it needs grow by a third).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotSquare {
    pub row0: usize,
    pub col0: usize,
    pub rows: usize,
    pub cols: usize,
    pub temperature: f64,
}

impl HotSquare {
    pub fn seeded(cfg: &HeatConfig, rng: &mut crate::measure::Rng) -> HotSquare {
        let (gx, gy) = cfg.global;
        HotSquare {
            row0: gx / 4,
            col0: gy / 4 - gy / 16 + rng.below(gy / 8 + 1),
            rows: gx / 2,
            cols: gy / 2,
            temperature: (50 + rng.below(100)) as f64,
        }
    }

    pub fn at(&self, i: usize, j: usize) -> f64 {
        let inside = (self.row0..self.row0 + self.rows).contains(&i)
            && (self.col0..self.col0 + self.cols).contains(&j);
        if inside {
            self.temperature
        } else {
            0.0
        }
    }
}

/// One rank of the Heat2D miniapp: the loop of `heat2d::run_rank`, driven
/// from here with the same public calls so each layer gets its own span.
/// Returns when the last timestep was handed to PDI.
pub fn rank_loop(
    comm: &Comm,
    cfg: &HeatConfig,
    hot: &HotSquare,
    pdi: &mut Pdi,
    probe: &Probe<'_>,
) -> Result<Instant, String> {
    let cart = CartComm::new(comm, &[cfg.procs.0, cfg.procs.1], &[false, false])?;
    let (l0, l1) = cfg.local();
    let mut solver = LocalSolver::new(cfg, cfg.coords(comm.rank()), |i, j| hot.at(i, j));
    let e = |err: PdiError| err.to_string();
    pdi.share("rank", comm.rank() as i64).map_err(e)?;
    pdi.share("size", comm.size() as i64).map_err(e)?;
    pdi.share("max_step", cfg.steps as i64).map_err(e)?;
    pdi.share("loc", vec![l0 as i64, l1 as i64]).map_err(e)?;
    pdi.share("proc", vec![cfg.procs.0 as i64, cfg.procs.1 as i64])
        .map_err(e)?;
    pdi.share("step", 0i64).map_err(e)?;
    // The deisa plugin signs the contract here (`Bridge::init`).
    pdi.event("init").map_err(e)?;
    for step in 0..cfg.steps {
        {
            let _s = probe.span("mpisim.ghost");
            solver.exchange_ghosts(&cart)?;
        }
        {
            let _s = probe.span("heat2d.step");
            solver.step_stencil();
        }
        pdi.share("step", step as i64).map_err(e)?;
        let temp = solver.interior();
        {
            // The simulation's stall per timestep.
            let _s = probe.span("core.publish");
            pdi.share("temp", temp).map_err(e)?;
        }
        pdi.event("iteration").map_err(e)?;
    }
    let published = Instant::now();
    pdi.event("finalization").map_err(e)?;
    Ok(published)
}

/// A PDI plugin that keeps every `temp` field it is shown.
struct Collector(Arc<Mutex<Vec<Arc<NDArray>>>>);

impl Plugin for Collector {
    fn name(&self) -> &str {
        "collector"
    }

    fn data_available(&mut self, name: &str, store: &Store) -> Result<(), PdiError> {
        if name == "temp" {
            if let Some(field) = store.get(name).and_then(|v| v.as_array()) {
                self.0
                    .lock()
                    .expect("collector poisoned")
                    .push(field.clone());
            }
        }
        Ok(())
    }
}

/// The plain baseline and the correctness reference: the same `T × (X, Y)`
/// problem on one rank, fed timestep by timestep to a single-threaded
/// `IncrementalPca::partial_fit` (samples = Y, features = X, as the in-situ
/// fit labels them).
pub fn serial_reference(
    global: (usize, usize),
    steps: usize,
    hot: &HotSquare,
    n_components: usize,
    probe: &Probe<'_>,
) -> Result<IncrementalPca, String> {
    let cfg = HeatConfig::new(global, (1, 1), steps)?;
    let fields = Arc::new(Mutex::new(Vec::with_capacity(steps)));
    World::run(1, |comm| {
        let mut pdi = Pdi::new(Yaml::Null);
        pdi.register(Box::new(Collector(fields.clone())));
        rank_loop(comm, &cfg, hot, &mut pdi, &Probe::off()).map(|_| ())
    })
    .map_err(|e| e.to_string())?
    .into_iter()
    .collect::<Result<(), String>>()?;
    let fields = fields.lock().expect("collector poisoned");
    let mut model = IncrementalPca::new(n_components, SvdSolver::Full);
    for field in fields.iter() {
        // batch[y, x] = field[x, y]
        let batch = Matrix::from_fn(global.1, global.0, |y, x| field.get(&[x, y]));
        let _s = probe.span("dml.partial_fit");
        model.partial_fit(&batch).map_err(|e| e.to_string())?;
    }
    Ok(model)
}

/// Sizes of the kernel probe: the in-situ workload's geometry at a fifth of
/// its timesteps.
const PROBE_LOCAL: usize = 64;
const PROBE_STEPS: usize = 10;
const PROBE_MATMULS: usize = 40;

/// Time the kernels below the task framework on their own, so every traced
/// run — also of a workload with no simulation in it — reports them:
/// `heat2d.step`/`mpisim.ghost` from a bare 1×2 simulation (PDI with no
/// plugin), `dml.partial_fit` from the serial reference, and a computed
/// GFLOP/s figure from `linalg` matrix products of a known flop count.
pub fn kernel_probe(spans: &Spans, hot_seed: u64) -> Result<f64, String> {
    let probe = Probe::setup(Some(spans));
    let cfg = HeatConfig::new((PROBE_LOCAL, 2 * PROBE_LOCAL), (1, 2), PROBE_STEPS)?;
    let hot = HotSquare::seeded(&cfg, &mut crate::measure::Rng::new(hot_seed));
    World::run(cfg.n_ranks(), |comm| {
        rank_loop(comm, &cfg, &hot, &mut Pdi::new(Yaml::Null), &probe).map(|_| ())
    })
    .map_err(|e| e.to_string())?
    .into_iter()
    .collect::<Result<(), String>>()?;
    serial_reference(cfg.global, PROBE_STEPS, &hot, 2, &probe)?;

    let (m, k) = (2 * PROBE_LOCAL, PROBE_LOCAL);
    let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0);
    let at = a.transpose();
    let mut rates = Vec::with_capacity(PROBE_MATMULS);
    for _ in 0..PROBE_MATMULS {
        let t0 = Instant::now();
        let c = std::hint::black_box(&a)
            .matmul(std::hint::black_box(&at))
            .map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(c);
        // (m×k)·(k×m): 2·m·m·k floating-point operations, computed.
        rates.push((2 * m * m * k) as f64 / secs / 1e9);
    }
    Ok(crate::measure::median(&rates))
}

/// Round trips of the probe below.
const RTT_CALLS: usize = 2000;

/// Median round trip of `var_try_get` on an existing variable, on an idle
/// cluster of the given backend, in microseconds.
pub fn transport_rtt_us(tcp: bool) -> Result<f64, String> {
    let cluster = super::cluster_for(super::Variant::Plain, tcp);
    let client = cluster.client();
    client.var_set("rtt", Datum::I64(1));
    let mut samples = Vec::with_capacity(RTT_CALLS);
    for _ in 0..RTT_CALLS {
        let t0 = Instant::now();
        let got = client.var_try_get("rtt").map_err(|e| e.to_string())?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        if got.and_then(|d| d.as_i64()) != Some(1) {
            return Err("rtt probe: variable read back wrong".into());
        }
    }
    drop(client);
    Ok(crate::measure::median(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Rng;

    #[test]
    fn hot_square_stays_inside_the_domain_and_follows_the_seed() {
        let cfg = HeatConfig::new((16, 32), (1, 2), 1).unwrap();
        let placements: Vec<HotSquare> = (0..32)
            .map(|s| HotSquare::seeded(&cfg, &mut Rng::new(s)))
            .collect();
        for h in &placements {
            assert!(h.row0 + h.rows <= 16 && h.col0 + h.cols <= 32);
            let hot: usize = (0..16)
                .flat_map(|i| (0..32).map(move |j| (i, j)))
                .filter(|&(i, j)| h.at(i, j) > 0.0)
                .count();
            assert_eq!(hot, 8 * 16, "same hot area for every seed");
            assert!((50.0..150.0).contains(&h.temperature));
        }
        assert!(placements.iter().any(|h| h != &placements[0]));
        assert_eq!(
            HotSquare::seeded(&cfg, &mut Rng::new(5)),
            HotSquare::seeded(&cfg, &mut Rng::new(5))
        );
    }

    #[test]
    fn serial_reference_sees_every_sample() {
        let cfg = HeatConfig::new((8, 16), (1, 1), 4).unwrap();
        let hot = HotSquare::seeded(&cfg, &mut Rng::new(3));
        let model = serial_reference(cfg.global, 4, &hot, 2, &Probe::off()).unwrap();
        assert_eq!(model.n_samples_seen, 4 * 16);
        assert_eq!(model.components.rows(), 2);
        assert_eq!(model.components.cols(), 8);
    }
}
