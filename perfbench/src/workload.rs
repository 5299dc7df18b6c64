//! The benchmark's named workloads and the application invariant each one
//! must keep.

use std::collections::HashMap;

use dstm_benchmarks::{bank, rbtree, vacation, Benchmark};
use dstm_harness::{Cell, TopologySpec};
use hyflow_dstm::{PartitionStrategy, Payload};
use rts_core::{ObjectId, SchedulerKind};

/// One named workload: a fixed simulator configuration whose only free
/// input is the seed.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub benchmark: Benchmark,
    pub nodes: usize,
    pub read_ratio: f64,
    pub topology: TopologySpec,
    pub cache: bool,
    pub txns_per_node: usize,
}

const DENSE: TopologySpec = TopologySpec::UniformRandom {
    min_ms: 1,
    max_ms: 50,
};
const HASHED: TopologySpec = TopologySpec::HashedRandom {
    min_ms: 1,
    max_ms: 50,
};

/// Simulations, each on its own seed, whose outcomes one end-to-end
/// result pools: the simulated metrics of a single seed spread by up to 8%
/// across seeds (the makespan ends at the slowest node), pooling three
/// narrows that by √3.
pub const SIM_RUNS: u64 = 3;

/// Every workload, in the order `BENCHMARK.json` lists them. Why each one
/// exists is recorded there and in `perfbench/README.md`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "vacation-hi",
        benchmark: Benchmark::Vacation,
        nodes: 80,
        read_ratio: 0.1,
        topology: DENSE,
        cache: false,
        txns_per_node: 600,
    },
    Workload {
        name: "rbtree-lo-cache",
        benchmark: Benchmark::RbTree,
        nodes: 40,
        read_ratio: 0.9,
        topology: DENSE,
        cache: true,
        txns_per_node: 800,
    },
    Workload {
        name: "bank-10k",
        benchmark: Benchmark::Bank,
        nodes: 10_000,
        read_ratio: 0.9,
        topology: HASHED,
        cache: false,
        txns_per_node: 10,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The harness cell of simulation `run` (below [`SIM_RUNS`]) of
    /// `seed`: RTS with the benchmark's own tuning, serial. Every axis the
    /// harness would otherwise read from the environment is pinned, so the
    /// cell depends on the seed and run alone.
    pub fn cell(&self, seed: u64, run: u64) -> Cell {
        assert!(run < SIM_RUNS, "run {run} of {SIM_RUNS}");
        Cell::new(
            self.benchmark,
            SchedulerKind::Rts,
            self.nodes,
            self.read_ratio,
        )
        .with_txns(self.txns_per_node)
        .with_topology(self.topology)
        .with_shards(1)
        .with_partition(PartitionStrategy::RoundRobin)
        .with_cache(self.cache)
        .with_seed(seed.wrapping_mul(SIM_RUNS).wrapping_add(run))
    }

    /// Top-level transactions the workload issues.
    pub fn issued(&self) -> u64 {
        (self.nodes * self.txns_per_node) as u64
    }
}

/// The application invariant of the cell's benchmark over a final committed
/// state. Only the three benchmarks the workloads use have one here.
pub fn check_invariant(
    cell: &Cell,
    state: &HashMap<ObjectId, (Payload, u64)>,
) -> Result<(), String> {
    match cell.benchmark {
        Benchmark::Bank => {
            let (got, want) = (
                bank::total_balance(state),
                bank::expected_total(&cell.params),
            );
            if got == want {
                Ok(())
            } else {
                Err(format!("bank total balance {got} != expected {want}"))
            }
        }
        Benchmark::Vacation => {
            if vacation::billing_matches_inventory(state, &cell.params) {
                Ok(())
            } else {
                Err("vacation billing does not match reserved inventory".into())
            }
        }
        Benchmark::RbTree => rbtree::check_rb(state).map_err(|e| format!("red-black tree: {e}")),
        other => Err(format!("no invariant for benchmark {}", other.label())),
    }
}
