//! The paper's end-to-end workflow (Listing 2), at laptop scale.
//!
//! A Heat2D miniapp runs on 4 `mpisim` ranks, instrumented through PDI with
//! the deisa plugin (DEISA3: external tasks, no heartbeats). The analytics
//! client signs a contract for the full `G_temp` virtual array, builds the
//! **whole multi-timestep incremental-PCA graph ahead of time**, submits it
//! once, and fetches the fitted model when the simulation finishes.
//!
//! Run: `cargo run --example insitu_ipca`
//!
//! The run exports its task-lifecycle trace and prints the critical-path
//! phase attribution. The same pipeline on every transport, store and
//! policy is `tests/end_to_end.rs::deisa3_matches_reference`.

use deisa_repro::darray;
use deisa_repro::deisa::plugin::DeisaPlugin;
use deisa_repro::deisa::{Adaptor, DeisaVersion, Selection};
use deisa_repro::dml::{self, InSituIncrementalPCA, SvdSolver};
use deisa_repro::dtask::{Cluster, ClusterConfig, MsgClass, TraceConfig};
use deisa_repro::heat2d::{run_rank, HeatConfig};
use deisa_repro::mpisim::World;
use deisa_repro::pdi::{parse_yaml, Pdi};

/// The deisa plugin configuration — the Rust-side rendition of Listing 1.
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

fn main() {
    let cluster = Cluster::with_config(ClusterConfig {
        n_workers: 4,
        trace: TraceConfig::enabled(),
        ..ClusterConfig::default()
    });
    darray::register_array_ops(cluster.registry());
    dml::register_ml_ops(cluster.registry());
    let cfg = HeatConfig::new((16, 16), (2, 2), 6).unwrap();

    // ---- Analytics side (the paper's Listing 2) ------------------------
    let analytics = {
        let client = cluster.client();
        std::thread::spawn(move || {
            let adaptor = Adaptor::new(client);
            // Get data descriptors as deisa arrays (blocks until the
            // simulation's rank-0 bridge connects).
            let mut arrays = adaptor.get_deisa_arrays().unwrap();
            println!("analytics: simulation offers {:?}", arrays.names());
            let v = arrays.descriptor("G_temp").unwrap().clone();
            // gt = arrays["G_temp"][...]
            let gt = arrays
                .select_labeled("G_temp", Selection::all(&v), &["t", "X", "Y"])
                .unwrap();
            arrays.validate_contract().unwrap();
            // ipca = InSituIncrementalPCA(n_components=2, svd_solver='randomized')
            let ipca = InSituIncrementalPCA::new(2, SvdSolver::Randomized { seed: 42 });
            // ipca.fit(gt, ["t","X","Y"], ["X"], ["Y"]) — whole graph, one
            // submission, before any timestep exists.
            let mut g = darray::Graph::new("ipca");
            let fitted = ipca.fit(&mut g, &gt, "t", &["Y"], &["X"]).unwrap();
            let n = g.submit(adaptor.client());
            println!("analytics: submitted the whole {n}-task IPCA graph ahead of time");
            let model = fitted.fetch(adaptor.client()).unwrap();
            println!(
                "analytics: singular values  = {:?}",
                model
                    .singular_values
                    .iter()
                    .map(|v| (v * 100.0).round() / 100.0)
                    .collect::<Vec<_>>()
            );
            println!(
                "analytics: explained var    = {:?}",
                model
                    .explained_variance
                    .iter()
                    .map(|v| (v * 100.0).round() / 100.0)
                    .collect::<Vec<_>>()
            );
            println!(
                "analytics: samples consumed = {} ({} steps × Y={})",
                model.n_samples_seen, v.shape[0], v.shape[2]
            );
            model
        })
    };

    // ---- Simulation side: 4 MPI ranks through PDI ----------------------
    World::run(cfg.n_ranks(), |comm| {
        let yaml = parse_yaml(CONFIG).unwrap();
        let mut pdi = Pdi::new(yaml.clone());
        let client = cluster.client_with_heartbeat(DeisaVersion::Deisa3.heartbeat());
        DeisaPlugin::from_yaml(&yaml, DeisaVersion::Deisa3, client)
            .unwrap()
            .install(&mut pdi);
        run_rank(comm, &cfg, &mut pdi).unwrap();
    })
    .unwrap();
    println!("simulation: all ranks finished");

    let model = analytics.join().unwrap();
    assert_eq!(model.n_samples_seen, 6 * 16);
    // Control-message accounting (paper §2.1): contract setup is 1 message
    // from rank 0 plus one wait per rank — no per-timestep metadata.
    let stats = cluster.stats();
    println!(
        "scheduler control messages: {} (variable ops {}, heartbeats {})",
        stats.scheduler_control_messages(),
        stats.count(MsgClass::Variable),
        stats.count(MsgClass::Heartbeat),
    );

    // Where did the makespan go? Export the lifecycle trace (load
    // results/TRACE_insitu_ipca.json in https://ui.perfetto.dev) and print
    // the critical-path phase attribution.
    let log = cluster.tracer().collect();
    std::fs::create_dir_all("results").unwrap();
    log.write_chrome("results/TRACE_insitu_ipca.json").unwrap();
    let report = log.phase_report();
    println!("{}", report.to_table());
    println!(
        "trace: results/TRACE_insitu_ipca.json ({} events across {} tracks)",
        log.n_events(),
        log.tracks.len()
    );
    // The phase attribution is an exact partition of the makespan; fail
    // loudly if it ever drifts past 5%.
    let total = report.phases_total_ns() as f64;
    let makespan = report.makespan_ns as f64;
    assert!(
        makespan > 0.0 && (total - makespan).abs() <= 0.05 * makespan,
        "phase totals ({total} ns) diverge from makespan ({makespan} ns)"
    );
    println!("insitu_ipca OK");
}
