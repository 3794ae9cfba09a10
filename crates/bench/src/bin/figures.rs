//! Regenerate every figure of the paper's evaluation section.
//!
//! ```text
//! cargo run --release -p deisa-bench --bin figures            # all, to stdout
//! cargo run --release -p deisa-bench --bin figures fig2a      # one figure
//! cargo run --release -p deisa-bench --bin figures --out dir  # CSV files
//! cargo run --release -p deisa-bench --bin figures policies   # policy x workload matrix
//! cargo run --release -p deisa-bench --bin figures policies --workers 1000 --tasks 200000
//! ```
//!
//! Output is CSV per figure: `series,x,y,yerr`. The data comes from the DES
//! models in `insitu-sim` at the paper's scale (up to 128 ranks × 1 GiB per
//! process, 10 timesteps, 3 runs). See EXPERIMENTS.md for the side-by-side
//! comparison with the published figures. `policies` is not a paper figure
//! (and not part of `all`): it steps the `dtask` scheduler core under every
//! policy (`insitu_sim::schedlab`), by default at 100 workers × 2 slots and
//! 1e5 tasks.

#![forbid(unsafe_code)]

use insitu_sim::ablations::all_ablations;
use insitu_sim::figures::{
    all_figures, fig2a, fig2b, fig3a, fig3b, fig4a, fig4b, fig5, policy_figures, Figure,
};
use insitu_sim::CostModel;

fn usage() -> ! {
    eprintln!(
        "usage: figures [fig2a|fig2b|fig3a|fig3b|fig4a|fig4b|fig5|all|ablations|policies] [--out DIR]\n       \
         figures policies [--workers N] [--tasks N] [--out DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut out_dir: Option<String> = None;
    let (mut workers, mut tasks) = (100usize, 100_000usize);
    let mut it = args.iter();
    let count = |v: Option<&String>| v.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => workers = count(it.next()),
            "--tasks" => tasks = count(it.next()),
            "--out" => match it.next() {
                Some(d) => out_dir = Some(d.clone()),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            name => which = name.to_string(),
        }
    }

    let cost = CostModel::default();
    let figures: Vec<Figure> = match which.as_str() {
        "all" => all_figures(&cost),
        "ablations" => all_ablations(&cost),
        "policies" => policy_figures(tasks, workers, 2),
        "fig2a" => vec![fig2a(&cost)],
        "fig2b" => vec![fig2b(&cost)],
        "fig3a" => vec![fig3a(&cost)],
        "fig3b" => vec![fig3b(&cost)],
        "fig4a" => vec![fig4a(&cost)],
        "fig4b" => vec![fig4b(&cost)],
        "fig5" => vec![fig5(&cost)],
        _ => usage(),
    };

    match out_dir {
        None => {
            for f in &figures {
                println!("{}", f.to_csv());
            }
        }
        Some(dir) => {
            std::fs::create_dir_all(&dir).expect("create output dir");
            for f in &figures {
                let path = std::path::Path::new(&dir).join(format!("{}.csv", f.id));
                std::fs::write(&path, f.to_csv()).expect("write csv");
                eprintln!("wrote {}", path.display());
            }
        }
    }
}
