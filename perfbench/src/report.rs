//! The metric names and units the benchmark reports, and the JSON result
//! line. `BENCHMARK.json` lists the same names; a test keeps the two equal.

use std::collections::BTreeMap;

use crate::spans::HANDLER_KINDS;

const END_TO_END: [(&str, &str); 11] = [
    ("commits_per_cpu_s", "1/s"),
    ("run_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_commits_per_s", "1/s"),
    ("aborts_per_commit", "ratio"),
    ("nested_abort_parent_share", "share"),
    ("msgs_per_commit", "ratio"),
    ("sim_latency_p50_ms", "ms"),
    ("sim_latency_p99_ms", "ms"),
    ("commit_share", "share"),
];

const LAYER_FIXED: [(&str, &str); 41] = [
    ("sim.steps", "count"),
    ("sim.ns_per_step", "ns"),
    ("sim.messages", "count"),
    ("sim.timers_fired", "count"),
    ("sim.batched_messages", "count"),
    ("sim.queue.push", "count"),
    ("sim.queue.pop", "count"),
    ("sim.queue.push_ns", "ns"),
    ("sim.queue.pop_ns", "ns"),
    ("sim.queue.max_pending", "count"),
    ("sim.queue.share", "share"),
    ("sim.step.coverage", "share"),
    ("sim.shard.windows", "count"),
    ("sim.shard.speedup", "ratio"),
    ("sim.shard.events_per_window", "count"),
    ("sim.shard.imbalance", "ratio"),
    ("sim.shard.barrier_wait_share", "share"),
    ("net.delay_lookups", "count"),
    ("net.delay_ns", "ns"),
    ("net.build_s", "s"),
    ("benchmarks.generate_s", "s"),
    ("hyflow.build_s", "s"),
    ("hyflow.handler.share", "share"),
    ("hyflow.tx.nested_commits", "count"),
    ("hyflow.tx.nested_aborts_own", "count"),
    ("hyflow.tx.nested_aborts_parent", "count"),
    ("hyflow.tx.child_conflict_retries", "count"),
    ("hyflow.tx.useful_ratio", "share"),
    ("hyflow.tx.wasted_msgs_share", "share"),
    ("hyflow.cache.hit_rate", "share"),
    ("hyflow.cache.invalidations", "count"),
    ("hyflow.trace.cpu_ratio", "ratio"),
    ("hyflow.trace.records", "count"),
    ("harness.audit_ns_per_record", "ns/record"),
    ("harness.spans.cpu_ratio", "ratio"),
    ("core.sched.conflicts", "count"),
    ("core.sched.enqueued", "count"),
    ("core.sched.queue_served", "count"),
    ("core.sched.queue_timeouts", "count"),
    ("core.sched.aborts", "count"),
    ("core.sched.enqueue_success", "share"),
];

/// End-to-end metrics, measured with tracing off, as `(name, unit)`.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    owned(&END_TO_END)
}

fn owned(list: &[(&str, &'static str)]) -> Vec<(String, &'static str)> {
    list.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

/// Per-layer metrics of the traced run, as `(name, unit)`: the fixed ones,
/// then a count and a mean self time for every handler variant.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = owned(&LAYER_FIXED);
    for kind in HANDLER_KINDS {
        out.push((format!("hyflow.handler.{kind}.n"), "count"));
        out.push((format!("hyflow.handler.{kind}.self_ns"), "ns/event"));
    }
    out
}

/// Metric values by name, rendered in a declared order.
#[derive(Default)]
pub struct Report(BTreeMap<String, f64>);

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The result line. Fails unless the report holds exactly the declared
    /// metrics, each a finite number.
    pub fn json(
        &self,
        declared: &[(String, &str)],
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        if self.0.len() != declared.len() {
            return Err(format!(
                "{} metrics measured, {} declared",
                self.0.len(),
                declared.len()
            ));
        }
        let mut metrics = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let value = *self
                .0
                .get(name)
                .ok_or_else(|| format!("declared metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(result_line(true, attempted, failed, &metrics.join(", ")))
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    )
}
