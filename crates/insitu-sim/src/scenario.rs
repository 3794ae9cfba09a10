//! Workload + placement description.

use crate::cost::CostModel;
use netsim::{Network, NetworkConfig, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which workflow configuration runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// HiPC'21 protocol: classic scatter + queues + 5 s heartbeats.
    Deisa1,
    /// External tasks, 60 s heartbeats.
    Deisa2,
    /// External tasks, no heartbeats.
    Deisa3,
    /// Simulation writes to the PFS; plain Dask reads post hoc.
    PostHoc,
}

impl Mode {
    /// Heartbeat period in virtual seconds (`None` = no heartbeats).
    pub fn heartbeat_secs(self) -> Option<u64> {
        match self {
            Mode::Deisa1 => Some(5),
            Mode::Deisa2 => Some(60),
            Mode::Deisa3 | Mode::PostHoc => None,
        }
    }

    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Deisa1 => "DEISA1",
            Mode::Deisa2 => "DEISA2",
            Mode::Deisa3 => "DEISA3",
            Mode::PostHoc => "PostHoc",
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Workflow configuration.
    pub mode: Mode,
    /// MPI processes (one data block each per step).
    pub n_ranks: usize,
    /// Dask workers.
    pub n_workers: usize,
    /// Block size per process per timestep, in bytes.
    pub block_bytes: u64,
    /// Timesteps (the paper runs 10).
    pub steps: usize,
    /// Allocation seed (run index): shifts the switch boundary and the
    /// jitter stream — the paper's three independent Slurm submissions.
    pub seed: u64,
    /// Contract filter: per mille of ranks whose blocks are under contract
    /// (1000 = everything flows; the ablation sweeps this down).
    pub send_permille: u32,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            mode: Mode::Deisa3,
            n_ranks: 4,
            n_workers: 2,
            block_bytes: 128 << 20,
            steps: 10,
            seed: 1,
            send_permille: 1000,
        }
    }
}

/// Node placement mirroring the paper (§3.3.2): "the scheduler is launched
/// in the first node of the allocation and the client in the second node;
/// the workers are launched starting from the third node, and then the
/// simulation processes are launched in the rest of the nodes."
#[derive(Debug, Clone)]
pub struct Placement {
    /// Offset of the allocation inside the fabric (shifts switch boundaries).
    pub offset: usize,
    /// Node of the scheduler.
    pub scheduler: usize,
    /// Node of the analytics client/adaptor.
    pub client: usize,
    /// Node of each worker.
    pub workers: Vec<usize>,
    /// Node of each simulation rank.
    pub ranks: Vec<usize>,
    /// Total fabric nodes (offset + allocation).
    pub total_nodes: usize,
}

impl Scenario {
    /// Compute the placement for this scenario under a cost model.
    pub fn placement(&self, cost: &CostModel) -> Placement {
        // The seed moves the allocation relative to switch boundaries —
        // different Slurm runs land on different node windows.
        let offset = (self.seed as usize * 7) % cost.network.nodes_per_switch;
        let scheduler = offset;
        let client = offset + 1;
        let workers: Vec<usize> = (0..self.n_workers).map(|w| offset + 2 + w).collect();
        let sim_base = offset + 2 + self.n_workers;
        let rpn = cost.ranks_per_node.max(1);
        let ranks: Vec<usize> = (0..self.n_ranks).map(|r| sim_base + r / rpn).collect();
        let total_nodes = sim_base + self.n_ranks.div_ceil(rpn);
        Placement {
            offset,
            scheduler,
            client,
            workers,
            ranks,
            total_nodes,
        }
    }

    /// Build the network for this scenario.
    pub fn network(&self, cost: &CostModel) -> (Network, Placement) {
        let placement = self.placement(cost);
        let config = NetworkConfig {
            nodes: placement.total_nodes,
            ..cost.network.clone()
        };
        (Network::new(config), placement)
    }

    /// Worker preselected for a rank's blocks (mirrors
    /// `deisa_core::naming::preselect_worker` with spatial index = rank).
    pub fn worker_of_rank(&self, rank: usize) -> usize {
        rank % self.n_workers.max(1)
    }

    /// Is this rank's block under contract (shipped)?
    pub fn rank_sends(&self, rank: usize) -> bool {
        // First ⌈f·R⌉ ranks send: a spatially contiguous selection, like a
        // window contract on the domain.
        (rank as u64 * 1000) < self.n_ranks as u64 * self.send_permille as u64
    }

    /// Number of ranks whose blocks flow.
    pub fn sending_ranks(&self) -> usize {
        (0..self.n_ranks).filter(|&r| self.rank_sends(r)).count()
    }

    /// Total bytes one timestep produces (before contract filtering).
    pub fn step_bytes(&self) -> u64 {
        self.block_bytes * self.n_ranks as u64
    }

    /// Bytes one timestep actually ships under the contract.
    pub fn shipped_step_bytes(&self) -> u64 {
        self.block_bytes * self.sending_ranks() as u64
    }

    /// Simulation compute time of `rank`'s iteration `t`: the cost model's
    /// rate plus the seed's jitter stream.
    pub(crate) fn compute_ns(&self, cost: &CostModel, rank: usize, t: usize) -> SimTime {
        let seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let stream = ((rank as u64) << 20) + t as u64;
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(stream));
        let base = cost.compute_ns(self.block_bytes);
        base + base * rng.gen_range(0..=cost.jitter_permille) / 1000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scen(seed: u64) -> Scenario {
        Scenario {
            mode: Mode::Deisa3,
            n_ranks: 8,
            n_workers: 4,
            block_bytes: 1 << 20,
            steps: 3,
            seed,
            send_permille: 1000,
        }
    }

    #[test]
    fn placement_layout_matches_paper_order() {
        let cost = CostModel::default();
        let p = scen(0).placement(&cost);
        assert_eq!(p.scheduler, 0);
        assert_eq!(p.client, 1);
        assert_eq!(p.workers, vec![2, 3, 4, 5]);
        // 8 ranks at 2/node: nodes 6..10.
        assert_eq!(p.ranks, vec![6, 6, 7, 7, 8, 8, 9, 9]);
        assert_eq!(p.total_nodes, 10);
    }

    #[test]
    fn seed_shifts_allocation() {
        let cost = CostModel::default();
        let p0 = scen(0).placement(&cost);
        let p1 = scen(1).placement(&cost);
        assert_ne!(p0.offset, p1.offset);
        assert_eq!(p1.scheduler, p1.offset);
    }

    #[test]
    fn mode_properties() {
        assert_eq!(Mode::Deisa1.heartbeat_secs(), Some(5));
        assert_eq!(Mode::Deisa2.heartbeat_secs(), Some(60));
        assert_eq!(Mode::Deisa3.heartbeat_secs(), None);
        assert_eq!(Mode::PostHoc.label(), "PostHoc");
    }

    #[test]
    fn helper_math() {
        let s = scen(0);
        assert_eq!(s.step_bytes(), 8 << 20);
        assert_eq!(s.worker_of_rank(5), 1);
    }
}
