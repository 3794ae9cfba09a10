//! Ablation sweeps over the design choices DESIGN.md §6 calls out.
//!
//! Each function isolates one axis with everything else at the Fig. 2/5
//! defaults and returns a [`Figure`] in the same CSV-ready format:
//!
//! * [`heartbeat_sweep`] — heartbeat interval 1 s…∞ (generalizes the
//!   DEISA1/2/3 axis): per-iteration comm mean + variability,
//! * [`scheduler_service_sweep`] — sensitivity of DEISA1 vs DEISA3 comm to
//!   the centralized scheduler's per-message cost,
//! * [`contract_sweep`] — fraction of blocks under contract vs bytes moved
//!   and per-iteration comm time (the filtering win),
//! * [`placement_sweep`] — pruned-fat-tree pruning factor vs per-rank comm
//!   spread (the Fig. 5 variability source that is *not* heartbeats).

use crate::cost::CostModel;
use crate::figures::{Figure, Series};
use crate::scenario::{Mode, Scenario};
use crate::simside::run_sim_side;
use crate::stats_util::{mean, ns_to_s, std};

fn base_scenario(mode: Mode, seed: u64) -> Scenario {
    Scenario {
        mode,
        n_ranks: 64,
        n_workers: 32,
        block_bytes: 128 << 20,
        steps: 10,
        seed,
        send_permille: 1000,
    }
}

/// Per-iteration comm samples (max over ranks), in seconds.
fn comm_per_iter(scen: &Scenario, cost: &CostModel) -> Vec<f64> {
    run_sim_side(scen, cost)
        .comm
        .iter()
        .map(|row| ns_to_s(row.iter().copied().max().unwrap_or(0)))
        .collect()
}

/// Heartbeat interval sweep across the three protocols. X = interval
/// seconds (0 encodes ∞).
pub fn heartbeat_sweep(cost: &CostModel) -> Figure {
    let mut mean_s = Series::new("mean comm per iteration");
    let mut std_s = Series::new("std over iterations");
    // One point per protocol at its own heartbeat interval: 5 s, 60 s, ∞.
    for (interval, scen_mode) in [(5u64, Mode::Deisa1), (60, Mode::Deisa2), (0, Mode::Deisa3)] {
        let mut samples = Vec::new();
        for seed in [1u64, 2, 3] {
            samples.extend(comm_per_iter(&base_scenario(scen_mode, seed), cost));
        }
        mean_s.push_xy(interval as f64, mean(&samples));
        std_s.push_xy(interval as f64, std(&samples));
    }
    Figure {
        id: "abl_heartbeat".into(),
        title: "Ablation: heartbeat interval vs comm time and variability (0 = ∞)".into(),
        xlabel: "Heartbeat interval (s)".into(),
        ylabel: "Duration (seconds)".into(),
        series: vec![mean_s, std_s],
    }
}

/// Scheduler service-time sweep: multiply the metadata service cost and
/// watch DEISA1 blow up while DEISA3 stays flat (the centralized-scheduler
/// sensitivity argument).
pub fn scheduler_service_sweep(cost: &CostModel) -> Figure {
    let mut d1 = Series::new("DEISA1 comm");
    let mut d3 = Series::new("DEISA3 comm");
    for mult in [1u64, 2, 4, 8] {
        let mut c = cost.clone();
        c.sched_meta_ns *= mult;
        c.sched_update_ns *= mult;
        let s1: Vec<f64> = comm_per_iter(&base_scenario(Mode::Deisa1, 1), &c);
        let s3: Vec<f64> = comm_per_iter(&base_scenario(Mode::Deisa3, 1), &c);
        d1.push_xy(mult as f64, mean(&s1));
        d3.push_xy(mult as f64, mean(&s3));
    }
    Figure {
        id: "abl_sched_service".into(),
        title: "Ablation: scheduler per-message cost multiplier vs comm time".into(),
        xlabel: "Service-time multiplier".into(),
        ylabel: "Duration (seconds)".into(),
        series: vec![d1, d3],
    }
}

/// Contract-filter sweep: per mille of blocks under contract vs shipped
/// bytes and comm time (DEISA3).
pub fn contract_sweep(cost: &CostModel) -> Figure {
    let mut bytes_s = Series::new("shipped GiB per step");
    let mut comm_s = Series::new("mean comm per iteration (s)");
    for permille in [125u32, 250, 500, 750, 1000] {
        let mut scen = base_scenario(Mode::Deisa3, 1);
        scen.send_permille = permille;
        let samples = comm_per_iter(&scen, cost);
        bytes_s.push_xy(
            permille as f64 / 1000.0,
            scen.shipped_step_bytes() as f64 / (1u64 << 30) as f64,
        );
        comm_s.push_xy(permille as f64 / 1000.0, mean(&samples));
    }
    Figure {
        id: "abl_contract".into(),
        title: "Ablation: contract selectivity vs data shipped and comm time".into(),
        xlabel: "Fraction of blocks under contract".into(),
        ylabel: "GiB per step / seconds".into(),
        series: vec![bytes_s, comm_s],
    }
}

/// Placement sweep: fat-tree pruning factor vs per-rank comm spread at 128
/// ranks × 1 GiB (heartbeats off, so the spread is purely topological).
pub fn placement_sweep(cost: &CostModel) -> Figure {
    let mut spread = Series::new("max-min per-rank mean comm");
    let mut meanline = Series::new("mean comm");
    for prune in [1u64, 2, 4, 8] {
        let mut c = cost.clone();
        c.network.prune_factor = prune;
        let scen = Scenario {
            mode: Mode::Deisa3,
            n_ranks: 128,
            n_workers: 64,
            block_bytes: 1 << 30,
            steps: 10,
            seed: 1,
            send_permille: 1000,
        };
        let out = run_sim_side(&scen, &c);
        // Per-rank mean over iterations.
        let per_rank: Vec<f64> = (0..scen.n_ranks)
            .map(|r| {
                let v: Vec<f64> = out.comm.iter().map(|row| ns_to_s(row[r])).collect();
                mean(&v)
            })
            .collect();
        let mx = per_rank.iter().cloned().fold(f64::MIN, f64::max);
        let mn = per_rank.iter().cloned().fold(f64::MAX, f64::min);
        spread.push_xy(prune as f64, mx - mn);
        meanline.push_xy(prune as f64, mean(&per_rank));
    }
    Figure {
        id: "abl_placement".into(),
        title: "Ablation: fat-tree pruning vs per-rank comm spread (128×1 GiB)".into(),
        xlabel: "Pruning factor".into(),
        ylabel: "Duration (seconds)".into(),
        series: vec![spread, meanline],
    }
}

/// All ablation figures.
pub fn all_ablations(cost: &CostModel) -> Vec<Figure> {
    vec![
        heartbeat_sweep(cost),
        scheduler_service_sweep(cost),
        contract_sweep(cost),
        placement_sweep(cost),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_sweep_ordering() {
        let f = heartbeat_sweep(&CostModel::default());
        let std_s = &f.series[1];
        // x = [5, 60, 0(∞)]: variability decreases along that order.
        assert!(std_s.y[0] > std_s.y[1], "{:?}", std_s.y);
        assert!(std_s.y[1] >= std_s.y[2], "{:?}", std_s.y);
    }

    #[test]
    fn scheduler_sensitivity_hits_deisa1_harder() {
        let f = scheduler_service_sweep(&CostModel::default());
        let d1 = &f.series[0];
        let d3 = &f.series[1];
        let d1_growth = d1.y.last().unwrap() / d1.y[0];
        let d3_growth = d3.y.last().unwrap() / d3.y[0];
        assert!(
            d1_growth > 1.5 * d3_growth,
            "DEISA1 growth {d1_growth} vs DEISA3 {d3_growth}"
        );
    }

    #[test]
    fn contract_filtering_reduces_traffic_and_time() {
        let f = contract_sweep(&CostModel::default());
        let bytes = &f.series[0];
        let comm = &f.series[1];
        // Shipped bytes proportional to selectivity.
        assert!(bytes.y[0] < bytes.y[4] / 4.0);
        // Comm time shrinks when fewer blocks flow.
        assert!(comm.y[0] < comm.y[4], "{:?}", comm.y);
    }

    #[test]
    fn pruning_increases_spread() {
        let f = placement_sweep(&CostModel::default());
        let spread = &f.series[0];
        assert!(
            spread.y.last().unwrap() >= spread.y.first().unwrap(),
            "{:?}",
            spread.y
        );
    }

    #[test]
    fn filtered_scenario_still_completes() {
        let mut scen = base_scenario(Mode::Deisa3, 1);
        scen.send_permille = 0; // nothing under contract
        scen.n_ranks = 8;
        scen.n_workers = 4;
        let out = run_sim_side(&scen, &CostModel::default());
        // All comm times are zero (no sends), run completes all steps.
        assert!(out.comm.iter().flatten().all(|&c| c == 0));
        assert_eq!(out.comm.len(), scen.steps);
    }
}
