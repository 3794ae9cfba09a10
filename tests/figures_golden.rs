//! The committed figure CSVs are exactly what the DES renders today.
//!
//! `results/fig*.csv` and `results/abl_*.csv` are the paper's figures and
//! the ablations as `figures all` and `figures ablations` write them, with
//! the default cost model. Any change to the DES that moves a cell fails
//! here: the test writes `<name>.csv.actual` next to each golden it
//! disagrees with. Review the diff, record the moved cells and their cause
//! in EXPERIMENTS.md, and move the `.actual` files over the goldens.

use deisa_repro::insitu_sim::figures::{all_figures, Figure};
use deisa_repro::insitu_sim::{all_ablations, CostModel};
use std::path::PathBuf;

fn assert_matches_golden(figures: Vec<Figure>) {
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut differing = Vec::new();
    for figure in figures {
        let path = results.join(format!("{}.csv", figure.id));
        let actual = figure.to_csv();
        if std::fs::read_to_string(&path).unwrap_or_default() != actual {
            let actual_path = results.join(format!("{}.csv.actual", figure.id));
            std::fs::write(&actual_path, actual).expect("write the .actual file");
            differing.push(actual_path.display().to_string());
        }
    }
    assert!(
        differing.is_empty(),
        "figures differ from their goldens; wrote {differing:?}"
    );
}

#[test]
fn paper_figures_match_golden() {
    assert_matches_golden(all_figures(&CostModel::default()));
}

#[test]
fn ablations_match_golden() {
    assert_matches_golden(all_ablations(&CostModel::default()));
}
