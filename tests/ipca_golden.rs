//! The exact IPCA kernel's output on the paper's workload, pinned before the
//! kernel moved. `tests/golden/ipca_heat.txt` was written by the row-major
//! one-sided Jacobi of commit c6cbf37 (Q and U formed for m > 2n, 60-sweep
//! cap, relative stop at 1e-14); every later kernel must reproduce its
//! components within 1e-11 (absolute) and its singular values within 1e-12
//! (relative). On a deliberate change, review `ipca_heat.txt.actual` and
//! move it over the golden.

use deisa_repro::dml::{IncrementalPca, SvdSolver};
use deisa_repro::heat2d::{HeatConfig, LocalSolver};
use deisa_repro::linalg::Matrix;
use deisa_repro::mpisim::{CartComm, World};
use std::collections::BTreeMap;

/// The referee's `insitu_ipca` geometry (a 1×2 grid of 64×64 ranks) on one
/// rank: samples are Y, features X, as the in-situ fit labels them.
const GLOBAL: (usize, usize) = (64, 128);
const STEPS: usize = 50;
const K: usize = 2;
const COMPONENTS_ABS: f64 = 1e-11;
const SINGULAR_VALUES_REL: f64 = 1e-12;

/// Every timestep's batch of a 50-step Heat2D run from an off-centre hot
/// square (the referee seeds a square of this size and slides it along Y).
fn heat_batches() -> Vec<Matrix> {
    let cfg = HeatConfig::new(GLOBAL, (1, 1), STEPS).unwrap();
    let hot = |i: usize, j: usize| {
        if (16..48).contains(&i) && (27..91).contains(&j) {
            117.0
        } else {
            0.0
        }
    };
    World::run(1, |comm| {
        let cart = CartComm::new(comm, &[1, 1], &[false, false]).unwrap();
        let mut solver = LocalSolver::new(&cfg, (0, 0), hot);
        (0..STEPS)
            .map(|_| {
                solver.exchange_ghosts(&cart).unwrap();
                solver.step_stencil();
                let field = solver.interior();
                Matrix::from_fn(GLOBAL.1, GLOBAL.0, |y, x| field.get(&[x, y]))
            })
            .collect::<Vec<_>>()
    })
    .unwrap()
    .pop()
    .unwrap()
}

fn record(out: &mut String, stage: &str, model: &IncrementalPca) {
    let mut line = |name: String, values: &[f64]| {
        out.push_str(&name);
        for v in values {
            out.push_str(&format!(" {v:?}"));
        }
        out.push('\n');
    };
    line(format!("{stage}.singular_values"), &model.singular_values);
    for i in 0..model.components.rows() {
        line(format!("{stage}.components.{i}"), model.components.row(i));
    }
}

fn parse(text: &str) -> BTreeMap<String, Vec<f64>> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| {
            let mut fields = l.split(' ');
            let name = fields.next().unwrap().to_string();
            (name, fields.map(|v| v.parse().unwrap()).collect())
        })
        .collect()
}

/// The 128×64 first step (the one call that factors a batch on its own) and
/// the model after all 50 steps (131×64 stacked matrices from then on).
#[test]
fn heat2d_ipca_matches_the_parent_kernels_golden() {
    let mut model = IncrementalPca::new(K, SvdSolver::Full);
    let mut actual = String::from(
        "# IncrementalPca(k = 2, SvdSolver::Full) over a 50-step Heat2D run, 64x128 global,\n\
         # batches of 128 samples x 64 features; written by the kernel of commit c6cbf37.\n",
    );
    for (t, batch) in heat_batches().iter().enumerate() {
        model.partial_fit(batch).unwrap();
        if t == 0 {
            record(&mut actual, "first_step", &model);
        }
    }
    record(&mut actual, "final", &model);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ipca_heat.txt");
    let golden = parse(&std::fs::read_to_string(&path).unwrap_or_default());
    let got = parse(&actual);
    let fail = |why: String| -> ! {
        std::fs::write(path.with_extension("txt.actual"), &actual).unwrap();
        panic!("{why} (see {}.actual)", path.display());
    };
    if golden.keys().ne(got.keys()) {
        fail(format!("{} lines, golden has {}", got.len(), golden.len()));
    }
    let (mut comp_drift, mut sv_drift) = (0.0f64, 0.0f64);
    for (name, want) in &golden {
        let have = &got[name];
        if have.len() != want.len() {
            fail(format!(
                "{name}: {} values, golden has {}",
                have.len(),
                want.len()
            ));
        }
        for (h, w) in have.iter().zip(want) {
            if name.ends_with("singular_values") {
                sv_drift = sv_drift.max((h - w).abs() / w.abs());
            } else {
                comp_drift = comp_drift.max((h - w).abs());
            }
        }
    }
    eprintln!("drift from golden: components {comp_drift:e} abs, singular values {sv_drift:e} rel");
    // `!(x <= tol)` so that a NaN fails too.
    if !(comp_drift <= COMPONENTS_ABS && sv_drift <= SINGULAR_VALUES_REL) {
        fail(format!(
            "components drift {comp_drift:e} (limit {COMPONENTS_ABS:e}), \
             singular values {sv_drift:e} (limit {SINGULAR_VALUES_REL:e})"
        ));
    }
}
