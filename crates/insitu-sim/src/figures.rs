//! One function per figure of the paper's evaluation.
//!
//! Every function returns a [`Figure`]: labeled series with x, y, and an
//! error bar, ready for CSV dumping or plotting. All runs use three seeds,
//! like the paper's three Slurm submissions.

use crate::analytics::{run_insitu_analytics, run_posthoc_analytics};
use crate::cost::CostModel;
use crate::scenario::{Mode, Scenario};
use crate::schedlab::{policies, run_matrix, workloads, Outcome, Workload};
use crate::simside::{run_sim_side, SimSideOut};
use crate::stats_util::{core_hours, mean, mib_per_s, ns_to_s, std};

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// X values.
    pub x: Vec<f64>,
    /// Y values (mean).
    pub y: Vec<f64>,
    /// Error bars (std).
    pub yerr: Vec<f64>,
}

/// One figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. `fig2a`.
    pub id: String,
    /// Paper caption summary.
    pub title: String,
    /// X axis label.
    pub xlabel: String,
    /// Y axis label.
    pub ylabel: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Render as CSV: `series,x,y,yerr` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}: {}\n", self.id, self.title));
        out.push_str(&format!("# x = {}, y = {}\n", self.xlabel, self.ylabel));
        out.push_str("series,x,y,yerr\n");
        for s in &self.series {
            for i in 0..s.x.len() {
                out.push_str(&format!(
                    "{},{},{:.6},{:.6}\n",
                    s.label, s.x[i], s.y[i], s.yerr[i]
                ));
            }
        }
        out
    }
}

const RUNS: [u64; 3] = [1, 2, 3];
const STEPS: usize = 10;

fn scenario(mode: Mode, ranks: usize, workers: usize, block_bytes: u64, seed: u64) -> Scenario {
    Scenario {
        mode,
        n_ranks: ranks,
        n_workers: workers,
        block_bytes,
        steps: STEPS,
        seed,
        send_permille: 1000,
    }
}

/// Per-iteration durations of one component over runs: returns samples in
/// seconds. `skip_first` reproduces the paper's exclusion of the first
/// post-hoc iteration (file creation).
fn comm_samples(out: &SimSideOut, skip_first: bool) -> Vec<f64> {
    out.comm
        .iter()
        .skip(usize::from(skip_first))
        .map(|row| ns_to_s(row.iter().copied().max().unwrap_or(0)))
        .collect()
}

fn compute_samples(out: &SimSideOut) -> Vec<f64> {
    out.compute
        .iter()
        .map(|row| ns_to_s(row.iter().copied().max().unwrap_or(0)))
        .collect()
}

/// Fig. 2a — weak scaling, simulation side: per-iteration Simulation /
/// Post-Hoc-Write / DEISA1-comm / DEISA3-comm durations, 128 MiB/process.
pub fn fig2a(cost: &CostModel) -> Figure {
    let procs = [4usize, 8, 16, 32, 64];
    let block = 128u64 << 20;
    let mut sim_s = Series::empty("Simulation");
    let mut ph_s = Series::empty("Post Hoc Write");
    let mut d1_s = Series::empty("DEISA1 Communication");
    let mut d3_s = Series::empty("DEISA3 Communication");
    for &p in &procs {
        let w = (p / 2).max(1);
        let mut sim_v = Vec::new();
        let mut ph_v = Vec::new();
        let mut d1_v = Vec::new();
        let mut d3_v = Vec::new();
        for &seed in &RUNS {
            let ph = run_sim_side(&scenario(Mode::PostHoc, p, w, block, seed), cost);
            ph_v.extend(comm_samples(&ph, true));
            sim_v.extend(compute_samples(&ph));
            let d1 = run_sim_side(&scenario(Mode::Deisa1, p, w, block, seed), cost);
            d1_v.extend(comm_samples(&d1, false));
            let d3 = run_sim_side(&scenario(Mode::Deisa3, p, w, block, seed), cost);
            d3_v.extend(comm_samples(&d3, false));
        }
        sim_s.push(p as f64, &sim_v);
        ph_s.push(p as f64, &ph_v);
        d1_s.push(p as f64, &d1_v);
        d3_s.push(p as f64, &d3_v);
    }
    Figure {
        id: "fig2a".into(),
        title: "Weak scaling, simulation side: per-iteration durations (128 MiB/process)".into(),
        xlabel: "Processes".into(),
        ylabel: "Duration (seconds)".into(),
        series: vec![sim_s, ph_s, d1_s, d3_s],
    }
}

/// Fig. 2b — weak scaling, analytics side: total analytics duration.
pub fn fig2b(cost: &CostModel) -> Figure {
    let workers = [2usize, 4, 8, 16, 32];
    let block = 128u64 << 20;
    let mut ph_old = Series::empty("Post hoc IPCA");
    let mut ph_new = Series::empty("Post hoc New IPCA");
    let mut d1_old = Series::empty("DEISA1 IPCA");
    let mut d3_new = Series::empty("DEISA3 New IPCA");
    for &w in &workers {
        let p = w * 2;
        let mut v_ph_old = Vec::new();
        let mut v_ph_new = Vec::new();
        let mut v_d1 = Vec::new();
        let mut v_d3 = Vec::new();
        for &seed in &RUNS {
            let ph = scenario(Mode::PostHoc, p, w, block, seed);
            v_ph_old.push(ns_to_s(run_posthoc_analytics(&ph, cost, false).total));
            v_ph_new.push(ns_to_s(run_posthoc_analytics(&ph, cost, true).total));
            let s1 = scenario(Mode::Deisa1, p, w, block, seed);
            let sim1 = run_sim_side(&s1, cost);
            v_d1.push(ns_to_s(run_insitu_analytics(&s1, cost, &sim1, true).total));
            let s3 = scenario(Mode::Deisa3, p, w, block, seed);
            let sim3 = run_sim_side(&s3, cost);
            v_d3.push(ns_to_s(run_insitu_analytics(&s3, cost, &sim3, false).total));
        }
        ph_old.push(w as f64, &v_ph_old);
        ph_new.push(w as f64, &v_ph_new);
        d1_old.push(w as f64, &v_d1);
        d3_new.push(w as f64, &v_d3);
    }
    Figure {
        id: "fig2b".into(),
        title: "Weak scaling, analytics side: analytics duration (128 MiB/process)".into(),
        xlabel: "Workers".into(),
        ylabel: "Duration (seconds)".into(),
        series: vec![ph_old, ph_new, d1_old, d3_new],
    }
}

/// Block sizes swept for the bandwidth figures (per process).
const BW_BLOCKS: [u64; 3] = [64 << 20, 128 << 20, 256 << 20];

/// Fig. 3a — simulation-side bandwidth in MiB/s (mean ± std over block
/// sizes and runs).
pub fn fig3a(cost: &CostModel) -> Figure {
    let procs = [4usize, 8, 16, 32, 64];
    let mut ph_s = Series::empty("Post Hoc Write");
    let mut d1_s = Series::empty("DEISA1 Communication");
    let mut d3_s = Series::empty("DEISA3 Communication");
    for &p in &procs {
        let w = (p / 2).max(1);
        let mut v_ph = Vec::new();
        let mut v_d1 = Vec::new();
        let mut v_d3 = Vec::new();
        for &block in &BW_BLOCKS {
            for &seed in &RUNS {
                let bw = |mode: Mode, skip: bool| {
                    let out = run_sim_side(&scenario(mode, p, w, block, seed), cost);
                    let per_iter = comm_samples(&out, skip);
                    let m = mean(&per_iter);
                    if m == 0.0 {
                        0.0
                    } else {
                        (block as f64 / (1 << 20) as f64) / m
                    }
                };
                v_ph.push(bw(Mode::PostHoc, true));
                v_d1.push(bw(Mode::Deisa1, false));
                v_d3.push(bw(Mode::Deisa3, false));
            }
        }
        ph_s.push(p as f64, &v_ph);
        d1_s.push(p as f64, &v_d1);
        d3_s.push(p as f64, &v_d3);
    }
    Figure {
        id: "fig3a".into(),
        title: "Weak scaling: communication and I/O bandwidth, simulation side".into(),
        xlabel: "Processes".into(),
        ylabel: "MiB/second".into(),
        series: vec![ph_s, d1_s, d3_s],
    }
}

/// Fig. 3b — analytics-side bandwidth in MiB/s.
pub fn fig3b(cost: &CostModel) -> Figure {
    let workers = [2usize, 4, 8, 16, 32];
    let mut ph_old = Series::empty("Post hoc IPCA");
    let mut ph_new = Series::empty("Post hoc New IPCA");
    let mut d1_old = Series::empty("DEISA1 IPCA");
    let mut d3_new = Series::empty("DEISA3 New IPCA");
    for &w in &workers {
        let p = w * 2;
        let mut v = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for &block in &BW_BLOCKS {
            for &seed in &RUNS {
                let ph = scenario(Mode::PostHoc, p, w, block, seed);
                let o = run_posthoc_analytics(&ph, cost, false);
                v[0].push(mib_per_s(o.bytes, o.total));
                let n = run_posthoc_analytics(&ph, cost, true);
                v[1].push(mib_per_s(n.bytes, n.total));
                let s1 = scenario(Mode::Deisa1, p, w, block, seed);
                let sim1 = run_sim_side(&s1, cost);
                let a1 = run_insitu_analytics(&s1, cost, &sim1, true);
                v[2].push(mib_per_s(a1.bytes, a1.total));
                let s3 = scenario(Mode::Deisa3, p, w, block, seed);
                let sim3 = run_sim_side(&s3, cost);
                let a3 = run_insitu_analytics(&s3, cost, &sim3, false);
                v[3].push(mib_per_s(a3.bytes, a3.total));
            }
        }
        ph_old.push(w as f64, &v[0]);
        ph_new.push(w as f64, &v[1]);
        d1_old.push(w as f64, &v[2]);
        d3_new.push(w as f64, &v[3]);
    }
    Figure {
        id: "fig3b".into(),
        title: "Weak scaling: analytics bandwidth".into(),
        xlabel: "Workers".into(),
        ylabel: "MiB/second".into(),
        series: vec![ph_old, ph_new, d1_old, d3_new],
    }
}

/// Total seconds spent in a component over the whole run.
fn total_comm_s(out: &SimSideOut, skip_first: bool) -> f64 {
    comm_samples(out, skip_first).iter().sum()
}

/// Fig. 4a — strong scaling (8 GiB problem), simulation side, core-hours.
pub fn fig4a(cost: &CostModel) -> Figure {
    let procs = [16usize, 32, 64];
    let total: u64 = 8 << 30;
    let mut sim_s = Series::empty("Simulation");
    let mut ph_s = Series::empty("Post Hoc Write");
    let mut d1_s = Series::empty("DEISA1 Communication");
    let mut d3_s = Series::empty("DEISA3 Communication");
    for &p in &procs {
        let w = (p / 2).max(1);
        let block = total / p as u64;
        let mut v = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for &seed in &RUNS {
            let ph = run_sim_side(&scenario(Mode::PostHoc, p, w, block, seed), cost);
            v[0].push(core_hours(compute_samples(&ph).iter().sum(), p));
            v[1].push(core_hours(total_comm_s(&ph, true), p));
            let d1 = run_sim_side(&scenario(Mode::Deisa1, p, w, block, seed), cost);
            v[2].push(core_hours(total_comm_s(&d1, false), p));
            let d3 = run_sim_side(&scenario(Mode::Deisa3, p, w, block, seed), cost);
            v[3].push(core_hours(total_comm_s(&d3, false), p));
        }
        sim_s.push(p as f64, &v[0]);
        ph_s.push(p as f64, &v[1]);
        d1_s.push(p as f64, &v[2]);
        d3_s.push(p as f64, &v[3]);
    }
    Figure {
        id: "fig4a".into(),
        title: "Strong scaling (8 GiB problem), simulation side, cost".into(),
        xlabel: "Processes".into(),
        ylabel: "Cost (Hour.Core)".into(),
        series: vec![sim_s, ph_s, d1_s, d3_s],
    }
}

/// Fig. 4b — strong scaling (8 GiB problem), analytics side, core-hours.
pub fn fig4b(cost: &CostModel) -> Figure {
    let workers = [8usize, 16, 32];
    let total: u64 = 8 << 30;
    let mut ph_old = Series::empty("Post hoc IPCA");
    let mut ph_new = Series::empty("Post hoc New IPCA");
    let mut d1_old = Series::empty("DEISA1 IPCA");
    let mut d3_new = Series::empty("DEISA3 New IPCA");
    for &w in &workers {
        let p = w * 2;
        let block = total / p as u64;
        let mut v = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for &seed in &RUNS {
            let ph = scenario(Mode::PostHoc, p, w, block, seed);
            v[0].push(core_hours(
                ns_to_s(run_posthoc_analytics(&ph, cost, false).total),
                w,
            ));
            v[1].push(core_hours(
                ns_to_s(run_posthoc_analytics(&ph, cost, true).total),
                w,
            ));
            let s1 = scenario(Mode::Deisa1, p, w, block, seed);
            let sim1 = run_sim_side(&s1, cost);
            v[2].push(core_hours(
                ns_to_s(run_insitu_analytics(&s1, cost, &sim1, true).total),
                w,
            ));
            let s3 = scenario(Mode::Deisa3, p, w, block, seed);
            let sim3 = run_sim_side(&s3, cost);
            v[3].push(core_hours(
                ns_to_s(run_insitu_analytics(&s3, cost, &sim3, false).total),
                w,
            ));
        }
        ph_old.push(w as f64, &v[0]);
        ph_new.push(w as f64, &v[1]);
        d1_old.push(w as f64, &v[2]);
        d3_new.push(w as f64, &v[3]);
    }
    Figure {
        id: "fig4b".into(),
        title: "Strong scaling (8 GiB problem), analytics side, cost".into(),
        xlabel: "Workers".into(),
        ylabel: "Cost (Hour.Core)".into(),
        series: vec![ph_old, ph_new, d1_old, d3_new],
    }
}

/// Fig. 5 — variability: per-rank mean ± std of communication time, 128
/// processes × 1 GiB, DEISA1/2/3, three runs. Returns one series per
/// (version, run): x = rank, y = mean over iterations, yerr = std.
pub fn fig5(cost: &CostModel) -> Figure {
    let mut series = Vec::new();
    for mode in [Mode::Deisa1, Mode::Deisa2, Mode::Deisa3] {
        for &seed in &RUNS {
            let scen = scenario(mode, 128, 64, 1 << 30, seed);
            let out = run_sim_side(&scen, cost);
            let mut s = Series::empty(&format!("{} run {}", mode.label(), seed));
            for rank in 0..scen.n_ranks {
                let samples: Vec<f64> = out.comm.iter().map(|row| ns_to_s(row[rank])).collect();
                s.x.push(rank as f64);
                s.y.push(mean(&samples));
                s.yerr.push(std(&samples));
            }
            series.push(s);
        }
    }
    Figure {
        id: "fig5".into(),
        title: "Per-rank communication time, 128 processes × 1 GiB (variability)".into(),
        xlabel: "Ranks".into(),
        ylabel: "Duration (seconds)".into(),
        series,
    }
}

impl Series {
    /// Public constructor for external figure builders (ablations).
    pub fn new(label: &str) -> Series {
        Series::empty(label)
    }

    /// Append a point with no error bar.
    pub fn push_xy(&mut self, x: f64, y: f64) {
        self.x.push(x);
        self.y.push(y);
        self.yerr.push(0.0);
    }

    fn empty(label: &str) -> Series {
        Series {
            label: label.to_string(),
            x: Vec::new(),
            y: Vec::new(),
            yerr: Vec::new(),
        }
    }

    fn push(&mut self, x: f64, samples: &[f64]) {
        self.x.push(x);
        self.y.push(mean(samples));
        self.yerr.push(std(samples));
    }
}

/// The policy × workload matrix of [`crate::schedlab`] (`figures policies`;
/// not a paper figure, so not in [`all_figures`]): one series per policy, one
/// x per workload family in [`workloads`] order, mean and std over three
/// workload seeds.
pub fn policy_figures(n_tasks: usize, workers: usize, slots: usize) -> Vec<Figure> {
    let per_seed: Vec<Vec<Workload>> = RUNS.iter().map(|&s| workloads(n_tasks, s)).collect();
    let xlabel = per_seed[0]
        .iter()
        .enumerate()
        .map(|(i, w)| format!("{i}={}", w.name))
        .collect::<Vec<_>>()
        .join(" ");
    let scale = format!("{workers} workers x {slots} slots, ~{n_tasks} tasks");
    // outcomes[policy][family] = one Outcome per seed.
    let mut outcomes: Vec<Vec<Vec<Outcome>>> = vec![vec![Vec::new(); per_seed[0].len()]; 4];
    for family in &per_seed {
        for (f, workload) in family.iter().enumerate() {
            for (p, outcome) in run_matrix(workload, workers, slots).into_iter().enumerate() {
                outcomes[p][f].push(outcome);
            }
        }
    }
    let figure = |id: &str, ylabel: &str, metric: fn(&Outcome) -> f64| Figure {
        id: format!("policies_{id}"),
        title: format!("Scheduling policies on the scheduler core, DES ({scale})"),
        xlabel: format!("Workload ({xlabel})"),
        ylabel: ylabel.to_string(),
        series: policies()
            .iter()
            .zip(&outcomes)
            .map(|(policy, per_family)| {
                let mut series = Series::empty(policy.kind.name());
                for (f, runs) in per_family.iter().enumerate() {
                    let samples: Vec<f64> = runs.iter().map(metric).collect();
                    series.push(f as f64, &samples);
                }
                series
            })
            .collect(),
    };
    vec![
        figure("makespan", "Makespan (seconds)", |o| ns_to_s(o.makespan_ns)),
        figure(
            "transfer",
            "Dependency transfer time, summed (seconds)",
            |o| ns_to_s(o.transfer_ns),
        ),
        figure("stolen", "Tasks stolen", |o| o.stats.tasks_stolen() as f64),
    ]
}

/// All figures by id.
pub fn all_figures(cost: &CostModel) -> Vec<Figure> {
    vec![
        fig2a(cost),
        fig2b(cost),
        fig3a(cost),
        fig3b(cost),
        fig4a(cost),
        fig4b(cost),
        fig5(cost),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_shapes() {
        let f = fig2a(&CostModel::default());
        assert_eq!(f.series.len(), 4);
        let sim = &f.series[0];
        let ph = &f.series[1];
        let d1 = &f.series[2];
        let d3 = &f.series[3];
        // Simulation flat.
        assert!((sim.y[0] - sim.y[4]).abs() / sim.y[0] < 0.1);
        // Post-hoc write grows with processes.
        assert!(ph.y[4] > 3.0 * ph.y[0], "{:?}", ph.y);
        // DEISA1 above DEISA3 at the largest scale; ratio grows.
        assert!(d1.y[4] > 2.0 * d3.y[4]);
        assert!(d1.y[4] / d3.y[4] > d1.y[0] / d3.y[0]);
        let csv = f.to_csv();
        assert!(csv.contains("fig2a"));
        assert!(csv.lines().count() > 20);
    }

    #[test]
    fn fig2b_shapes() {
        let f = fig2b(&CostModel::default());
        let ph_old = &f.series[0];
        let ph_new = &f.series[1];
        let d3_new = &f.series[3];
        // At the largest scale: in situ beats post hoc; new beats old.
        let last = ph_old.y.len() - 1;
        assert!(ph_old.y[last] > ph_new.y[last]);
        assert!(ph_old.y[last] > d3_new.y[last]);
    }

    #[test]
    fn fig3a_posthoc_bandwidth_halves() {
        let f = fig3a(&CostModel::default());
        let ph = &f.series[0];
        // "the bandwidth gets twice lower when doubling the processes".
        let ratio = ph.y[0] / ph.y[1];
        assert!(ratio > 1.5 && ratio < 3.0, "ratio {ratio}");
        // DEISA3 bandwidth fairly stable.
        let d3 = &f.series[2];
        assert!(d3.y[3] > 0.5 * d3.y[0]);
    }

    #[test]
    fn fig4a_headline_cost_ratio() {
        let f = fig4a(&CostModel::default());
        let ph = &f.series[1];
        let d3 = &f.series[3];
        // Paper: post-hoc write ≈ 18× DEISA3 at 64 processes; accept a
        // generous band around that shape.
        let last = ph.y.len() - 1;
        let ratio = ph.y[last] / d3.y[last];
        assert!(ratio > 6.0, "cost ratio {ratio} too small");
        // Cost of post hoc grows with processes.
        assert!(ph.y[last] > ph.y[0]);
    }

    #[test]
    fn fig5_variability_ordering() {
        let f = fig5(&CostModel::default());
        assert_eq!(f.series.len(), 9);
        let avg_err = |label_prefix: &str| {
            let mut v = Vec::new();
            for s in &f.series {
                if s.label.starts_with(label_prefix) {
                    v.extend(s.yerr.iter().copied());
                }
            }
            mean(&v)
        };
        let e1 = avg_err("DEISA1");
        let e2 = avg_err("DEISA2");
        let e3 = avg_err("DEISA3");
        assert!(e1 > e2, "std: DEISA1 {e1} !> DEISA2 {e2}");
        assert!(e2 >= e3, "std: DEISA2 {e2} !>= DEISA3 {e3}");
    }

    #[test]
    fn fig3b_ordering_at_scale() {
        let f = fig3b(&CostModel::default());
        // At the largest worker count, in-situ bandwidth tops post hoc old.
        let last = f.series[0].y.len() - 1;
        let ph_old = f.series[0].y[last];
        let d3_new = f.series[3].y[last];
        assert!(d3_new > ph_old, "in-situ bw {d3_new} !> post hoc {ph_old}");
        // Post hoc new above post hoc old everywhere.
        for i in 0..f.series[0].y.len() {
            assert!(f.series[1].y[i] > f.series[0].y[i]);
        }
    }

    #[test]
    fn fig4b_cost_ordering() {
        let f = fig4b(&CostModel::default());
        let last = f.series[0].y.len() - 1;
        // post hoc old most costly; DEISA3 cheapest; ~3.5x ratio band.
        let ratio = f.series[0].y[last] / f.series[3].y[last];
        assert!(ratio > 2.5 && ratio < 6.0, "ratio {ratio}");
        // Cost rises with workers for the in-situ series.
        assert!(f.series[3].y[last] > f.series[3].y[0]);
    }

    #[test]
    fn figures_are_deterministic() {
        let cost = CostModel::default();
        let a = fig2a(&cost).to_csv();
        let b = fig2a(&cost).to_csv();
        assert_eq!(a, b);
        let f5a = fig5(&cost).to_csv();
        let f5b = fig5(&cost).to_csv();
        assert_eq!(f5a, f5b);
    }

    #[test]
    fn all_figures_have_expected_ids() {
        let figs = all_figures(&CostModel::default());
        let ids: Vec<&str> = figs.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(
            ids,
            vec!["fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b", "fig5"]
        );
        for f in &figs {
            assert!(!f.series.is_empty());
            for s in &f.series {
                assert_eq!(s.x.len(), s.y.len());
                assert_eq!(s.x.len(), s.yerr.len());
                assert!(!s.x.is_empty());
            }
        }
    }
}
