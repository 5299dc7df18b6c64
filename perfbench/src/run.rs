//! Building and running one cell, the simulated outcome it produces, and
//! the correctness gate over that outcome.

use std::time::Instant;

use dstm_harness::{Cell, TopologySpec};
use dstm_net::Topology;
use dstm_sim::{EventQueue, SimRng};
use hyflow_dstm::{Fnv64, NodeEvent, NodeMetrics, Payload, RunMetrics, System, SystemBuilder};
use rts_core::ObjectId;

use crate::host::{process_cpu_ns, Probe, Probed};
use crate::workload::{check_invariant, Workload};

/// Events between two host-speed probes in a probed run: 5–40 ms of
/// simulation on the workloads, against about 0.5 ms per probe.
pub const PROBE_EVERY_STEPS: u64 = 20_000;

/// Host wall-clock nanoseconds of each set-up phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub topology_ns: u64,
    pub generate_ns: u64,
    pub build_ns: u64,
}

impl SetupTimes {
    pub fn total_ns(&self) -> u64 {
        self.topology_ns + self.generate_ns + self.build_ns
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Build the cell's system on `queue`, timing each layer's part of set-up.
/// Mirrors `dstm_harness::runner::build_system_with_queue` call for call;
/// the cross-check against `run_cell_traced` (which builds through the
/// harness) fails if the two ever diverge.
pub fn build<Q: EventQueue<NodeEvent>>(cell: &Cell, queue: Q) -> (System<Q>, SetupTimes) {
    let t = Instant::now();
    let topo = match cell.topology {
        TopologySpec::UniformRandom { min_ms, max_ms } => {
            let mut rng = SimRng::new(cell.sim_seed);
            Topology::uniform_random(cell.params.nodes, min_ms, max_ms, &mut rng)
        }
        TopologySpec::HashedRandom { min_ms, max_ms } => {
            Topology::hashed_random(cell.params.nodes, min_ms, max_ms, cell.sim_seed)
        }
    };
    let topology_ns = elapsed_ns(t);

    let t = Instant::now();
    let workload = cell.benchmark.generate(&cell.params);
    let generate_ns = elapsed_ns(t);

    let t = Instant::now();
    let mut dstm = cell.dstm.clone();
    dstm.scheduler = cell.scheduler;
    dstm.txns_per_node = cell.params.txns_per_node;
    let system = SystemBuilder::new(topo, dstm)
        .seed(cell.sim_seed ^ 0xA5A5_5A5A)
        .build_with_queue(workload, queue);
    let build_ns = elapsed_ns(t);

    (
        system,
        SetupTimes {
            topology_ns,
            generate_ns,
            build_ns,
        },
    )
}

/// Run to quiescence the way the cell asks: serial, or on the sharded
/// executor with the cell's shard count and partition.
pub fn run<Q: EventQueue<NodeEvent> + Default + Send>(
    cell: &Cell,
    system: &mut System<Q>,
) -> RunMetrics {
    if cell.shards > 1 {
        system.run_sharded_default_with(cell.shards, cell.partition)
    } else {
        system.run_default()
    }
}

/// [`run`] for a serial cell, in slices of [`PROBE_EVERY_STEPS`] events
/// with one host-speed probe after each. Only the slices count as the
/// run's host time. The slices go through the kernel's `run_while`, as
/// `System::run` does, with the same runaway budget, so the run stops
/// where [`run`] would and its outcome is the same.
pub fn run_probed<Q: EventQueue<NodeEvent>>(
    cell: &Cell,
    system: &mut System<Q>,
    probe: &mut Probe,
) -> (RunMetrics, Probed) {
    assert_eq!(cell.shards, 1, "probed runs are serial");
    let issued = (cell.params.nodes * cell.params.txns_per_node) as u64;
    let mut left = (issued + 16) * 50_000;
    let mut t = Probed::default();
    loop {
        let slice = PROBE_EVERY_STEPS.min(left);
        let (c0, t0) = (process_cpu_ns(), Instant::now());
        let n = system.world_mut().run_while(slice, |_| true);
        t.cpu_ns += process_cpu_ns() - c0;
        t.wall_ns += elapsed_ns(t0);
        probe.run_into(&mut t);
        left -= n;
        if n < slice || left == 0 {
            break;
        }
    }
    // The queue is drained (or the budget spent): this only collects.
    (system.run(0), t)
}

/// Everything a run decides in simulated time. Two runs of one cell must
/// produce equal outcomes whatever the queue, executor or tracing.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub merged: NodeMetrics,
    pub messages: u64,
    pub ended_at_ns: u64,
    pub completed: bool,
    /// FNV-64 of the final committed object state, in object order; `None`
    /// where the run's system is not at hand (`run_cell_traced`).
    pub state_digest: Option<u64>,
}

impl Outcome {
    /// `metrics` must come from a run that started at simulated time zero,
    /// so its end time is its makespan.
    pub fn new<Q: EventQueue<NodeEvent>>(
        metrics: &RunMetrics,
        system: &System<Q>,
    ) -> Result<Self, String> {
        let state = system.try_object_state()?;
        Ok(Outcome {
            merged: metrics.merged.clone(),
            messages: metrics.messages,
            ended_at_ns: metrics.ended_at.0,
            completed: system.all_done(),
            state_digest: Some(state_digest(&state)),
        })
    }

    pub fn commits(&self) -> u64 {
        self.merged.commits
    }

    /// Makespan: first start to last commit, in simulated seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.ended_at_ns as f64 / 1e9
    }

    /// One number for the whole simulated outcome, printed per workload and
    /// seed so two runs can be compared at a glance.
    pub fn digest(&self) -> u64 {
        let m = &self.merged;
        let mut h = Fnv64::new();
        for v in [
            m.commits,
            m.aborts_forward_validation,
            m.aborts_commit_validation,
            m.aborts_scheduler,
            m.aborts_queue_timeout,
            m.nested_aborts_own,
            m.nested_aborts_parent,
            m.nested_commits,
            m.child_conflict_retries,
            m.enqueued,
            m.queue_served,
            m.cache_hits,
            m.wasted_work_ns,
            m.wasted_msgs,
            self.messages,
            self.ended_at_ns,
            u64::from(self.completed),
            self.state_digest.unwrap_or(0),
        ] {
            h.write_u64(v);
        }
        h.finish()
    }

    /// `Err` naming the first field where `other` departs from `self`.
    pub fn expect_same(&self, other: &Outcome, what: &str) -> Result<(), String> {
        let field = if self.merged != other.merged {
            "merged node metrics"
        } else if self.messages != other.messages {
            "messages"
        } else if self.ended_at_ns != other.ended_at_ns {
            "elapsed"
        } else if self.completed != other.completed {
            "completion"
        } else if self
            .state_digest
            .zip(other.state_digest)
            .is_some_and(|(a, b)| a != b)
        {
            "final object state"
        } else {
            return Ok(());
        };
        Err(format!("{what}: {field} differs from the untraced run"))
    }
}

fn state_digest(state: &std::collections::HashMap<ObjectId, (Payload, u64)>) -> u64 {
    let mut objects: Vec<_> = state.iter().collect();
    objects.sort_unstable_by_key(|(oid, _)| **oid);
    let mut h = Fnv64::new();
    for (oid, (payload, version)) in objects {
        h.write_u64(oid.0);
        h.write_u64(*version);
        h.write_bytes(format!("{payload:?}").as_bytes());
    }
    h.finish()
}

/// The correctness gate for one finished run: every issued transaction
/// committed and the benchmark's application invariant holds on the final
/// state. `tamper` lets the benchmark's own test plant a violation.
pub fn check<Q: EventQueue<NodeEvent>>(
    workload: &Workload,
    cell: &Cell,
    system: &System<Q>,
    outcome: &Outcome,
    tamper: bool,
) -> Result<(), String> {
    if !outcome.completed || outcome.commits() != workload.issued() {
        return Err(format!(
            "commit totality: {} of {} transactions committed (all nodes done: {})",
            outcome.commits(),
            workload.issued(),
            outcome.completed
        ));
    }
    let mut state = system.try_object_state()?;
    if tamper {
        plant_violation(&mut state);
    }
    check_invariant(cell, &state)
}

/// Credit one extra unit to the lowest-numbered scalar object: breaks the
/// conservation invariants of Bank and Vacation.
fn plant_violation(state: &mut std::collections::HashMap<ObjectId, (Payload, u64)>) {
    let oid = state
        .iter()
        .filter(|(_, (p, _))| matches!(p, Payload::Scalar(_)))
        .map(|(oid, _)| *oid)
        .min();
    if let Some((Payload::Scalar(v), _)) = oid.and_then(|oid| state.get_mut(&oid)) {
        *v += 1;
    }
}
