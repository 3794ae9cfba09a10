//! Cross-crate end-to-end correctness: the full workflow (Heat2D on mpisim →
//! PDI → DEISA bridges → dtask cluster → darray/dml IPCA) must produce the
//! same model through every path the paper compares.

use deisa_repro::darray::{self, ChunkGrid, DArray, Graph, LabeledArray};
use deisa_repro::deisa::deisa1::{Adaptor1, Bridge1};
use deisa_repro::deisa::plugin::DeisaPlugin;
use deisa_repro::deisa::{Adaptor, DeisaVersion, Selection, VirtualArray};
use deisa_repro::dml::{self, InSituIncrementalPCA, IncrementalPca, SvdSolver};
use deisa_repro::dtask::{
    Cluster, ClusterConfig, Datum, Key, PolicyConfig, StoreConfig, TransportConfig,
};
use deisa_repro::h5lite::{H5Reader, H5Writer, SharedWriter};
use deisa_repro::heat2d::{run_rank, HeatConfig, PostHocPlugin};
use deisa_repro::linalg::Matrix;
use deisa_repro::mpisim::World;
use deisa_repro::pdi::{parse_yaml, Pdi, Yaml};

const STEPS: usize = 4;

fn cfg() -> HeatConfig {
    HeatConfig::new((12, 12), (2, 2), STEPS).unwrap()
}

fn cluster() -> Cluster {
    cluster_with(ClusterConfig::default())
}

fn cluster_with(config: ClusterConfig) -> Cluster {
    let c = Cluster::with_config(ClusterConfig {
        n_workers: 3,
        ..config
    });
    darray::register_array_ops(c.registry());
    dml::register_ml_ops(c.registry());
    c
}

const PLUGIN_CONFIG: &str = r#"
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

/// Ground truth: run the simulation serially and fit a local IPCA on the
/// per-step batches, stacked exactly like `da.stack2d` does.
fn reference_model() -> IncrementalPca {
    let cfg = cfg();
    // Write post hoc with a single rank world == global field per step.
    let dir = std::env::temp_dir().join(format!("e2e-ref-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // One file per calling test: the tests of this binary run on parallel
    // threads, and two of them build the reference at the same time.
    let path = dir.join(format!("ref-{:?}.h5l", std::thread::current().id()));
    let writer = SharedWriter::new(H5Writer::create(&path).unwrap());
    World::run(cfg.n_ranks(), |comm| {
        let mut pdi = Pdi::new(Yaml::Null);
        pdi.register(Box::new(PostHocPlugin::new(
            writer.clone(),
            cfg.clone(),
            comm.rank(),
            "G_temp",
            "temp",
        )));
        run_rank(comm, &cfg, &mut pdi).unwrap();
    })
    .unwrap();
    writer.close().unwrap();
    let reader = H5Reader::open(&path).unwrap();
    let (gx, gy) = cfg.global;
    let mut model = IncrementalPca::new(2, SvdSolver::Full);
    for t in 0..STEPS {
        let step = reader
            .read_slice("G_temp", &[t, 0, 0], &[1, gx, gy])
            .unwrap();
        // stack2d semantics: samples = (t, Y), features = X.
        let batch = Matrix::from_fn(gy, gx, |y, x| step.get(&[0, x, y]));
        model.partial_fit(&batch).unwrap();
    }
    std::fs::remove_file(&path).ok();
    model
}

/// DEISA3 through the PDI plugin + whole-graph IPCA, on a cluster built from
/// `config` (three workers). Returns the model and the cluster, whose stats
/// the caller may read.
fn deisa3_model(config: ClusterConfig) -> (IncrementalPca, Cluster) {
    let cfg = cfg();
    let cluster = cluster_with(config);
    let analytics = {
        let client = cluster.client();
        std::thread::spawn(move || {
            let adaptor = Adaptor::new(client);
            let mut arrays = adaptor.get_deisa_arrays().unwrap();
            let v = arrays.descriptor("G_temp").unwrap().clone();
            let gt = arrays
                .select_labeled("G_temp", Selection::all(&v), &["t", "X", "Y"])
                .unwrap();
            arrays.validate_contract().unwrap();
            let ipca = InSituIncrementalPCA::new(2, SvdSolver::Full);
            let mut g = Graph::new("e2e3");
            let fitted = ipca.fit(&mut g, &gt, "t", &["Y"], &["X"]).unwrap();
            g.submit(adaptor.client());
            fitted.fetch(adaptor.client()).unwrap()
        })
    };
    World::run(cfg.n_ranks(), |comm| {
        let yaml = parse_yaml(PLUGIN_CONFIG).unwrap();
        let mut pdi = Pdi::new(yaml.clone());
        let client = cluster.client_with_heartbeat(DeisaVersion::Deisa3.heartbeat());
        DeisaPlugin::from_yaml(&yaml, DeisaVersion::Deisa3, client)
            .unwrap()
            .install(&mut pdi);
        run_rank(comm, &cfg, &mut pdi).unwrap();
    })
    .unwrap();
    let model = analytics.join().unwrap();
    // Happy path: every client notification found a connected client — a
    // non-zero count here means results or queue items were silently lost.
    assert_eq!(cluster.stats().notifies_dropped(), 0);
    (model, cluster)
}

/// DEISA1 (legacy queues protocol) + per-step old IPCA.
fn deisa1_model() -> IncrementalPca {
    let cfg = cfg();
    let cluster = cluster();
    let n_ranks = cfg.n_ranks();
    let varray = {
        let (l0, l1) = cfg.local();
        VirtualArray::new(
            "G_temp",
            &[STEPS, cfg.global.0, cfg.global.1],
            &[1, l0, l1],
            0,
        )
        .unwrap()
    };
    let analytics = {
        let client = cluster.client();
        let varray = varray.clone();
        std::thread::spawn(move || {
            let adaptor = Adaptor1::new(client, n_ranks);
            let mut model = IncrementalPca::new(2, SvdSolver::Full);
            for _t in 0..STEPS {
                let metas = adaptor.collect_step().unwrap();
                let step = adaptor.step_array(&varray, &metas).unwrap();
                let gt = LabeledArray::new(step, &["t", "X", "Y"]).unwrap();
                // Old IPCA pattern: a separate graph per step assembles the
                // batch; the partial_fit state lives with the client.
                let mut g = Graph::new(format!("b{_t}"));
                let batch_keys = gt.batches_along(&mut g, "t", &["Y"], &["X"]).unwrap();
                g.submit(adaptor.client());
                let batch = adaptor
                    .client()
                    .future(batch_keys[0].clone())
                    .result()
                    .unwrap();
                let m = Matrix::from_ndarray((**batch.as_array().unwrap()).clone()).unwrap();
                model.partial_fit(&m).unwrap();
            }
            model
        })
    };
    World::run(n_ranks, |comm| {
        use deisa_repro::heat2d::solver::{hot_square, LocalSolver};
        use deisa_repro::mpisim::CartComm;
        let client = cluster.client_with_heartbeat(DeisaVersion::Deisa1.heartbeat());
        let mut bridge = Bridge1::init(client, comm.rank(), vec![varray.clone()]);
        let cart = CartComm::new(comm, &[cfg.procs.0, cfg.procs.1], &[false, false]).unwrap();
        let (l0, l1) = cfg.local();
        let mut solver = LocalSolver::new(&cfg, cfg.coords(comm.rank()), hot_square(&cfg));
        for t in 0..cfg.steps {
            solver.exchange_ghosts(&cart).unwrap();
            solver.step_stencil();
            let block = solver.interior().reshape(&[1, l0, l1]).unwrap();
            bridge.publish("G_temp", t, comm.rank(), block).unwrap();
        }
    })
    .unwrap();
    let model = analytics.join().unwrap();
    assert_eq!(cluster.stats().notifies_dropped(), 0);
    model
}

/// The paper's pipeline matches the serial reference on every transport,
/// with payloads behind proxy handles in stores too small to hold them,
/// and under every placement policy, each with the telemetry plane that
/// every cluster runs.
/// Each task computes the same thing wherever it runs, so every run's model
/// is bit-identical to the default run's.
#[test]
fn deisa3_matches_reference() {
    let reference = reference_model();
    let spill = StoreConfig {
        // A 6×6 block is 288 B: a worker keeps about five in memory.
        mem_budget: Some(1500),
        ..StoreConfig::proxies()
    };
    let configs = [
        ("inproc", ClusterConfig::default()),
        (
            "framed",
            ClusterConfig {
                transport: TransportConfig::Framed,
                ..ClusterConfig::default()
            },
        ),
        (
            "tcp",
            ClusterConfig {
                transport: TransportConfig::Tcp,
                ..ClusterConfig::default()
            },
        ),
        (
            "proxies + spill",
            ClusterConfig {
                store: spill,
                ..ClusterConfig::default()
            },
        ),
        (
            "blevel",
            ClusterConfig {
                policy: PolicyConfig::b_level(),
                ..ClusterConfig::default()
            },
        ),
        (
            "random-stealing",
            ClusterConfig {
                policy: PolicyConfig::random_stealing(),
                ..ClusterConfig::default()
            },
        ),
        (
            "mineft",
            ClusterConfig {
                policy: PolicyConfig::min_eft(),
                ..ClusterConfig::default()
            },
        ),
    ];
    let mut baseline: Option<IncrementalPca> = None;
    for (name, config) in configs {
        let (model, cluster) = deisa3_model(config);
        let baseline = baseline.get_or_insert_with(|| model.clone());
        assert_eq!(model.n_samples_seen, reference.n_samples_seen, "{name}");
        for (a, b) in model.singular_values.iter().zip(&reference.singular_values) {
            assert!((a - b).abs() < 1e-8, "{name}: {a} vs {b}");
        }
        assert!(
            model
                .components
                .max_abs_diff(&reference.components)
                .unwrap()
                < 1e-7,
            "{name}"
        );
        for (a, b) in model.mean.iter().zip(&reference.mean) {
            assert!((a - b).abs() < 1e-9, "{name}");
        }
        assert_eq!(model.singular_values, baseline.singular_values, "{name}");
        assert_eq!(model.components, baseline.components, "{name}");
        let stats = cluster.stats();
        match name {
            "inproc" => assert_eq!(stats.wire_total_messages(), 0),
            "framed" | "tcp" => assert!(stats.wire_total_bytes() > stats.wire_total_messages()),
            "proxies + spill" => assert!(stats.store_spills() >= 1, "the budget never spilled"),
            _ => {}
        }
    }
}

#[test]
fn deisa1_matches_reference() {
    let reference = reference_model();
    let model = deisa1_model();
    assert_eq!(model.n_samples_seen, reference.n_samples_seen);
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
}

#[test]
fn contracted_subregion_matches_local_computation() {
    // Analytics selects a window; the result must equal the same window of
    // the locally-computed global field.
    let cfg = cfg();
    let cluster = cluster();
    let (l0, l1) = cfg.local();
    let varray = VirtualArray::new(
        "G_temp",
        &[STEPS, cfg.global.0, cfg.global.1],
        &[1, l0, l1],
        0,
    )
    .unwrap();

    let analytics = {
        let client = cluster.client();
        std::thread::spawn(move || {
            let adaptor = Adaptor::new(client);
            let mut arrays = adaptor.get_deisa_arrays().unwrap();
            // Last 2 steps, top-left 6x6 window (block-aligned to 6x6).
            let sel = Selection {
                starts: vec![2, 0, 0],
                sizes: vec![2, 6, 6],
            };
            let win = arrays.select("G_temp", sel).unwrap();
            arrays.validate_contract().unwrap();
            let mut g = Graph::new("w");
            let k = win.sum_all(&mut g);
            g.submit(adaptor.client());
            adaptor
                .client()
                .future(k)
                .result()
                .unwrap()
                .as_f64()
                .unwrap()
        })
    };

    let finals = World::run(cfg.n_ranks(), |comm| {
        use deisa_repro::deisa::Bridge;
        use deisa_repro::heat2d::solver::{hot_square, LocalSolver};
        use deisa_repro::mpisim::CartComm;
        let client = cluster.client_with_heartbeat(DeisaVersion::Deisa3.heartbeat());
        let mut bridge = Bridge::init(client, comm.rank(), vec![varray.clone()]).unwrap();
        let cart = CartComm::new(comm, &[cfg.procs.0, cfg.procs.1], &[false, false]).unwrap();
        let mut solver = LocalSolver::new(&cfg, cfg.coords(comm.rank()), hot_square(&cfg));
        let mut history = Vec::new();
        for t in 0..cfg.steps {
            solver.exchange_ghosts(&cart).unwrap();
            solver.step_stencil();
            let interior = solver.interior();
            history.push(interior.clone());
            let block = interior.reshape(&[1, l0, l1]).unwrap();
            bridge.publish("G_temp", t, comm.rank(), block).unwrap();
        }
        (cfg.coords(comm.rank()), history)
    })
    .unwrap();

    let windowed_sum = analytics.join().unwrap();

    // Local reconstruction of the same window.
    let mut expected = 0.0;
    for (coords, history) in finals {
        for (t, field) in history.iter().enumerate() {
            if t < 2 {
                continue; // selection starts at t=2
            }
            for i in 0..l0 {
                for j in 0..l1 {
                    let gi = coords.0 * l0 + i;
                    let gj = coords.1 * l1 + j;
                    if gi < 6 && gj < 6 {
                        expected += field.get(&[i, j]);
                    }
                }
            }
        }
    }
    assert!(
        (windowed_sum - expected).abs() < 1e-9,
        "window sum {windowed_sum} vs local {expected}"
    );
}

#[test]
fn deisa2_version_also_works() {
    // DEISA2 = same protocol as DEISA3, 60 s heartbeats (no heartbeat fires
    // within the test's lifetime, but the wiring differs).
    let cluster = cluster();
    let varray = VirtualArray::new("A", &[2, 4, 4], &[1, 2, 2], 0).unwrap();
    let analytics = {
        let client = cluster.client();
        let v = varray.clone();
        std::thread::spawn(move || {
            let adaptor = Adaptor::new(client);
            let mut arrays = adaptor.get_deisa_arrays().unwrap();
            let a = arrays.select("A", Selection::all(&v)).unwrap();
            arrays.validate_contract().unwrap();
            let mut g = Graph::new("d2");
            let k = a.sum_all(&mut g);
            g.submit(adaptor.client());
            adaptor
                .client()
                .future(k)
                .result()
                .unwrap()
                .as_f64()
                .unwrap()
        })
    };
    let mut handles = Vec::new();
    for rank in 0..4 {
        let client = cluster.client_with_heartbeat(DeisaVersion::Deisa2.heartbeat());
        let v = varray.clone();
        handles.push(std::thread::spawn(move || {
            let mut b = deisa_repro::deisa::Bridge::init(client, rank, vec![v]).unwrap();
            for t in 0..2 {
                b.publish(
                    "A",
                    t,
                    rank,
                    deisa_repro::linalg::NDArray::full(&[1, 2, 2], 1.0),
                )
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(analytics.join().unwrap(), 32.0);
}

/// External-task arrays interoperate with ordinary darray pipelines: slice +
/// rechunk + arithmetic over data that arrives later.
#[test]
fn external_array_composes_with_darray_ops() {
    let cluster = cluster();
    let client = cluster.client();
    let keys: Vec<Key> = (0..4).map(|i| Key::new(format!("x{i}"))).collect();
    client.register_external(keys.clone());
    let grid = ChunkGrid::regular(&[4, 4], &[2, 2]).unwrap();
    let ext = DArray::from_keys(grid, keys.clone()).unwrap();
    let mut g = Graph::new("compose");
    let doubled = ext.map_blocks(
        &mut g,
        "da.affine",
        Datum::List(vec![Datum::F64(2.0), Datum::F64(0.0)]),
    );
    let rechunked = doubled.rechunk(&mut g, &[4, 1]).unwrap();
    let total = rechunked.sum_all(&mut g);
    g.submit(&client);

    let feeder = cluster.client();
    for (i, key) in keys.iter().enumerate() {
        feeder.scatter_external(
            vec![(
                key.clone(),
                Datum::from(deisa_repro::linalg::NDArray::full(&[2, 2], i as f64)),
            )],
            None,
        );
    }
    let sum = client.future(total).result().unwrap().as_f64().unwrap();
    // Σ blocks: 4 elements × i × 2 for i in 0..4 = 2*4*(0+1+2+3) = 48.
    assert_eq!(sum, 48.0);
}
