//! The protocol-traced run: `run_cell_traced` with its offline audit, the
//! exact per-transaction latencies of the `TxStart`/`TxCommit` records, and
//! the scheduler's `SchedDecision` count.

use std::collections::HashMap;
use std::time::Instant;

use dstm_harness::{audit, run_cell_traced, Cell};
use hyflow_dstm::ProtoEvent;

use crate::host::process_cpu_ns;
use crate::run::Outcome;

pub struct TracedRun {
    pub outcome: Outcome,
    /// Process CPU of build plus run, tracing on.
    pub cpu_ns: u64,
    pub records: usize,
    pub audit_ns: u64,
    /// First start to commit, one per committed transaction, ascending.
    pub latencies_ns: Vec<u64>,
    /// Lock-busy fetches the owner-side scheduler adjudicated.
    pub sched_decisions: u64,
}

pub fn traced_run(cell: &Cell) -> Result<TracedRun, String> {
    let c0 = process_cpu_ns();
    let (result, log) = run_cell_traced(cell.clone());
    let cpu_ns = process_cpu_ns() - c0;
    let outcome = Outcome {
        merged: result.metrics.merged.clone(),
        messages: result.metrics.messages,
        ended_at_ns: result.metrics.ended_at.0,
        completed: result.completed,
        state_digest: None,
    };

    let t = Instant::now();
    let report = audit(&log);
    let audit_ns = t.elapsed().as_nanos() as u64;
    if !report.ok() {
        return Err(format!("trace audit failed:\n{}", report.render()));
    }

    let mut started = HashMap::new();
    let mut latencies_ns = Vec::with_capacity(outcome.commits() as usize);
    let mut sched_decisions = 0;
    for r in &log.records {
        match &r.ev {
            ProtoEvent::TxStart { tx, attempt: 0, .. } => {
                started.insert(*tx, r.at.0);
            }
            ProtoEvent::TxCommit { tx, .. } => {
                let start = started.get(tx).ok_or_else(|| {
                    format!("commit of tx {}:{} that never started", tx.node, tx.seq)
                })?;
                latencies_ns.push(r.at.0 - start);
            }
            ProtoEvent::SchedDecision { .. } => sched_decisions += 1,
            _ => {}
        }
    }
    if latencies_ns.len() as u64 != outcome.commits() {
        return Err(format!(
            "trace holds {} commits, counters {}",
            latencies_ns.len(),
            outcome.commits()
        ));
    }
    latencies_ns.sort_unstable();
    Ok(TracedRun {
        outcome,
        cpu_ns,
        records: log.records.len(),
        audit_ns,
        latencies_ns,
        sched_decisions,
    })
}
