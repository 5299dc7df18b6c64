//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! makes the per-layer traced run. Either way every run passes the
//! correctness gate and the determinism cross-checks, or the command prints
//! `"correct": false` and exits 1. The last line of standard output is one
//! JSON object with the keys `correct`, `attempted`, `failed`, `metrics`.

use std::process::ExitCode;
use std::time::Instant;

use dstm_harness::Cell;
use dstm_net::Topology;
use dstm_sim::{ActorId, BinaryHeapQueue, ShardRunStats};
use hyflow_dstm::System;
use perfbench::host::{median, nearest_rank, peak_rss_mb, process_cpu_ns, Probe, Probed};
use perfbench::report::{end_to_end, per_layer, result_line, Report};
use perfbench::run::{build, check, run, run_probed, Outcome, SetupTimes};
use perfbench::spans::{
    step_to_quiescence, StepProfile, TimingQueue, HANDLER_KINDS, SPAN_TOLERANCE,
};
use perfbench::traced::traced_run;
use perfbench::workload::{Workload, SIM_RUNS, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 25.0;
/// Set-ups timed per end-to-end run: builds beyond those the measured runs
/// needed are made and dropped, so the median has enough samples.
const MIN_SETUPS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant_violation: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut plant_violation = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--plant-violation" {
            plant_violation = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |why: &dyn std::fmt::Display| format!("{flag} {value}: {why}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                let w = Workload::by_name(&value)
                    .ok_or_else(|| bad(&format!("unknown workload; one of {names:?}")))?;
                workload = Some(w);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        plant_violation,
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One gated untraced run on the bare heap.
struct UntracedRun {
    outcome: Outcome,
    setup: SetupTimes,
    wall_ns: u64,
    /// Process CPU, every shard thread included.
    cpu_ns: u64,
    shard_stats: Option<ShardRunStats>,
}

fn untraced(args: &Args, cell: &Cell) -> Result<UntracedRun, String> {
    let (mut system, setup) = build(cell, BinaryHeapQueue::new());
    let c0 = process_cpu_ns();
    let t0 = Instant::now();
    let metrics = run(cell, &mut system);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - c0;
    let outcome = Outcome::new(&metrics, &system)?;
    check(
        &args.workload,
        cell,
        &system,
        &outcome,
        args.plant_violation,
    )?;
    eprintln!(
        "run: set-up {:.4} s, wall {:.4} s, cpu {:.4} s",
        setup.total_ns() as f64 / 1e9,
        wall_ns as f64 / 1e9,
        cpu_ns as f64 / 1e9
    );
    Ok(UntracedRun {
        outcome,
        setup,
        wall_ns,
        cpu_ns,
        shard_stats: system.shard_stats().cloned(),
    })
}

fn print_digest(args: &Args, run: u64, outcome: &Outcome) {
    println!(
        "digest {} seed={} run={run} {:016x}",
        args.workload.name,
        args.seed,
        outcome.digest()
    );
}

/// Probes after each timed set-up, for the speed it is scaled by.
const SETUP_PROBES: usize = 8;

/// Build the cell's system, timing set-up, then probe the host.
fn probed_build(cell: &Cell, probe: &mut Probe) -> (System, Probed) {
    let (system, setup) = build(cell, BinaryHeapQueue::new());
    let mut t = Probed {
        wall_ns: setup.total_ns(),
        ..Probed::default()
    };
    for _ in 0..SETUP_PROBES {
        probe.run_into(&mut t);
    }
    (system, t)
}

/// `--trace 0`: probed untraced runs cycling over the seed's `SIM_RUNS`
/// simulations until `--seconds` is spent, for the host-time metrics and
/// the pooled simulated ones; then one protocol-traced run of simulation 0
/// for the exact latencies. Host times are scaled to the nominal probe
/// speed (see [`Probe`]). Returns the report and the number of
/// transactions issued.
fn measure_end_to_end(args: &Args) -> Result<(Report, u64), String> {
    let w = &args.workload;
    let cells: Vec<Cell> = (0..SIM_RUNS).map(|run| w.cell(args.seed, run)).collect();
    let mut probe = Probe::new();
    let mut setup_s = Vec::new();
    // Per simulation, the scaled CPU and wall seconds of each of its runs.
    let mut cpu_s = vec![Vec::new(); cells.len()];
    let mut wall_s = vec![Vec::new(); cells.len()];
    let mut firsts: Vec<Outcome> = Vec::new();
    let mut runs = 0;
    let t0 = Instant::now();
    while runs < cells.len() || t0.elapsed().as_secs_f64() < args.seconds {
        let sim = runs % cells.len();
        let cell = &cells[sim];
        let (mut system, setup) = probed_build(cell, &mut probe);
        let (metrics, t) = run_probed(cell, &mut system, &mut probe);
        let outcome = Outcome::new(&metrics, &system)?;
        check(w, cell, &system, &outcome, args.plant_violation)?;
        eprintln!(
            "run: set-up {:.4} s, cpu {:.4} s, probe {:.0} ns; scaled: set-up {:.4} s, cpu {:.4} s",
            setup.wall_ns as f64 / 1e9,
            t.cpu_ns as f64 / 1e9,
            t.probe_ns(),
            setup.scaled_wall_s(),
            t.scaled_cpu_s()
        );
        setup_s.push(setup.scaled_wall_s());
        cpu_s[sim].push(t.scaled_cpu_s());
        wall_s[sim].push(t.scaled_wall_s());
        match firsts.get(sim) {
            Some(f) => f.expect_same(&outcome, "repeated run")?,
            None => firsts.push(outcome),
        }
        runs += 1;
    }
    while setup_s.len() < MIN_SETUPS {
        let cell = &cells[setup_s.len() % cells.len()];
        setup_s.push(probed_build(cell, &mut probe).1.scaled_wall_s());
    }
    // Read before the traced run, whose trace buffers would dominate it.
    let peak_rss = peak_rss_mb()?;
    for (run, f) in firsts.iter().enumerate() {
        print_digest(args, run as u64, f);
    }

    let traced = traced_run(&cells[0])?;
    firsts[0].expect_same(&traced.outcome, "protocol-traced run")?;
    eprintln!(
        "{}: {runs} runs, {} set-ups, {} latency samples",
        w.name,
        setup_s.len(),
        traced.latencies_ns.len()
    );

    // Simulated metrics pool the simulations: totals over totals. Host
    // times take each simulation's median over its runs, then pool too.
    let sum = |f: &dyn Fn(&Outcome) -> u64| firsts.iter().map(f).sum::<u64>();
    let commits = sum(&|o| o.commits());
    let elapsed_s: f64 = firsts.iter().map(|o| o.elapsed_s()).sum();
    let nested = sum(&|o| o.merged.total_nested_aborts());
    let medians = |per_sim: &[Vec<f64>]| per_sim.iter().map(|v| median(v)).sum::<f64>();
    let mut r = Report::default();
    r.set("commits_per_cpu_s", commits as f64 / medians(&cpu_s));
    r.set("run_wall_s", medians(&wall_s) / cells.len() as f64);
    r.set("setup_s", median(&setup_s));
    r.set("peak_rss_mb", peak_rss);
    r.set("sim_commits_per_s", commits as f64 / elapsed_s);
    r.set(
        "aborts_per_commit",
        ratio(sum(&|o| o.merged.total_aborts()), commits),
    );
    r.set(
        "nested_abort_parent_share",
        ratio(sum(&|o| o.merged.nested_aborts_parent), nested),
    );
    r.set("msgs_per_commit", ratio(sum(&|o| o.messages), commits));
    let ms = |q| nearest_rank(&traced.latencies_ns, q) as f64 / 1e6;
    r.set("sim_latency_p50_ms", ms(0.5));
    r.set("sim_latency_p99_ms", ms(0.99));
    r.set(
        "commit_share",
        ratio(commits, w.issued() * cells.len() as u64),
    );
    Ok((r, w.issued() * (runs as u64 + 1)))
}

/// Mean nanoseconds of one `Topology::delay` lookup, replaying a run's
/// message hops for at least 200 ms.
fn replay_delays(topo: &Topology, hops: &[(u32, u32)]) -> f64 {
    if hops.is_empty() {
        return 0.0;
    }
    let (mut lookups, mut sum) = (0u64, 0u64);
    let t = Instant::now();
    while lookups == 0 || t.elapsed().as_millis() < 200 {
        for &(a, b) in hops {
            sum = sum.wrapping_add(topo.delay(ActorId(a), ActorId(b)).0);
        }
        lookups += hops.len() as u64;
    }
    std::hint::black_box(sum);
    t.elapsed().as_nanos() as f64 / lookups as f64
}

/// `--trace 1`: the per-layer metrics.
fn measure_per_layer(args: &Args) -> Result<(Report, u64), String> {
    let w = &args.workload;
    let cell = w.cell(args.seed, 0);
    // Untraced serial and two-shard runs must agree; the serial one is the
    // CPU reference, the sharded one gives the executor statistics.
    let base = untraced(args, &cell.clone().with_shards(1))?;
    let o = &base.outcome;
    print_digest(args, 0, o);
    let sharded = untraced(args, &cell.clone().with_shards(2))?;
    o.expect_same(&sharded.outcome, "two-shard run")?;
    let shards = sharded.shard_stats.expect("sharded runs keep stats");

    // Stepped runs through the timing queue until `--seconds` is spent.
    let mut profile = StepProfile::default();
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut stepped_cpu_ns = Vec::new();
    let (mut timers_fired, mut batched, mut hops, mut delay_ns) = (0, 0, 0, 0.0);
    let budget = (w.issued() + 16) * 50_000;
    let t0 = Instant::now();
    while setups.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let (mut system, setup) = build(&cell, TimingQueue::new(BinaryHeapQueue::new()));
        let c0 = process_cpu_ns();
        let p = step_to_quiescence(&mut system, budget);
        stepped_cpu_ns.push((process_cpu_ns() - c0) as f64);
        // The queue is drained, so this only collects the metrics.
        let metrics = system.run(0);
        let stepped = Outcome::new(&metrics, &system)?;
        o.expect_same(&stepped, "timing-wrapped stepped run")?;
        check(w, &cell, &system, &stepped, args.plant_violation)?;
        if setups.is_empty() {
            timers_fired = system.world().timers_fired();
            batched = system.world().batched_messages();
            hops = p.hops.len() as u64;
            delay_ns = replay_delays(system.topology(), &p.hops);
        }
        setups.push(setup);
        profile.absorb(&p);
    }
    let runs = setups.len() as u64;
    let steps = profile.step.n / runs;
    let step_ns = profile.step.ns;
    let parts_ns = profile.handler_ns() + profile.pop.ns + profile.push.ns;
    if step_ns.abs_diff(parts_ns) as f64 > SPAN_TOLERANCE * step_ns as f64 {
        return Err(format!(
            "handler and queue spans sum to {parts_ns} ns, steps to {step_ns} ns"
        ));
    }

    let traced = traced_run(&cell)?;
    o.expect_same(&traced.outcome, "protocol-traced run")?;

    for (name, parent, s) in profile.spans() {
        println!("span {name} parent={parent} n={} total_ns={}", s.n, s.ns);
    }
    println!("span loop parent=- total_ns={}", profile.loop_ns);

    let mg = &o.merged;
    let mut r = Report::default();
    r.set("sim.steps", steps as f64);
    r.set("sim.ns_per_step", ratio(base.cpu_ns, steps));
    r.set("sim.messages", o.messages as f64);
    r.set("sim.timers_fired", timers_fired as f64);
    r.set("sim.batched_messages", batched as f64);
    r.set("sim.queue.push", (profile.push.n / runs) as f64);
    r.set("sim.queue.pop", (profile.pop.n / runs) as f64);
    r.set("sim.queue.push_ns", profile.push.mean_ns());
    r.set("sim.queue.pop_ns", profile.pop.mean_ns());
    r.set("sim.queue.max_pending", profile.max_pending as f64);
    r.set(
        "sim.queue.share",
        ratio(profile.push.ns + profile.pop.ns, step_ns),
    );
    r.set("sim.step.coverage", ratio(step_ns, profile.loop_ns));
    let n_shards = shards.shard_events.len() as f64;
    let busiest = shards.shard_events.iter().copied().max().unwrap_or(0);
    r.set("sim.shard.windows", shards.windows as f64);
    r.set("sim.shard.speedup", ratio(base.wall_ns, sharded.wall_ns));
    r.set(
        "sim.shard.events_per_window",
        ratio(shards.steps, shards.windows),
    );
    r.set(
        "sim.shard.imbalance",
        ratio(busiest, shards.steps) * n_shards,
    );
    r.set(
        "sim.shard.barrier_wait_share",
        ratio(shards.barrier_wait_ns.iter().sum(), sharded.wall_ns) / n_shards,
    );
    r.set("net.delay_lookups", hops as f64);
    r.set("net.delay_ns", delay_ns);
    let setup_median = |f: fn(&SetupTimes) -> u64| {
        median(&setups.iter().map(|s| f(s) as f64 / 1e9).collect::<Vec<_>>())
    };
    r.set("net.build_s", setup_median(|s| s.topology_ns));
    r.set("benchmarks.generate_s", setup_median(|s| s.generate_ns));
    r.set("hyflow.build_s", setup_median(|s| s.build_ns));
    for (kind, h) in HANDLER_KINDS.iter().zip(&profile.handlers) {
        r.set(format!("hyflow.handler.{kind}.n"), (h.n / runs) as f64);
        r.set(format!("hyflow.handler.{kind}.self_ns"), h.mean_ns());
    }
    r.set("hyflow.handler.share", ratio(profile.handler_ns(), step_ns));
    r.set("hyflow.tx.nested_commits", mg.nested_commits as f64);
    r.set("hyflow.tx.nested_aborts_own", mg.nested_aborts_own as f64);
    r.set(
        "hyflow.tx.nested_aborts_parent",
        mg.nested_aborts_parent as f64,
    );
    r.set(
        "hyflow.tx.child_conflict_retries",
        mg.child_conflict_retries as f64,
    );
    r.set(
        "hyflow.tx.useful_ratio",
        ratio(mg.commits, mg.commits + mg.total_aborts()),
    );
    r.set(
        "hyflow.tx.wasted_msgs_share",
        ratio(mg.wasted_msgs, o.messages),
    );
    r.set("hyflow.cache.hit_rate", mg.cache_hit_rate());
    r.set("hyflow.cache.invalidations", mg.cache_invalidations as f64);
    r.set(
        "hyflow.trace.cpu_ratio",
        ratio(traced.cpu_ns, base.cpu_ns + base.setup.total_ns()),
    );
    r.set("hyflow.trace.records", traced.records as f64);
    r.set(
        "harness.audit_ns_per_record",
        ratio(traced.audit_ns, traced.records as u64),
    );
    r.set(
        "harness.spans.cpu_ratio",
        median(&stepped_cpu_ns) / base.cpu_ns as f64,
    );
    r.set("core.sched.conflicts", traced.sched_decisions as f64);
    r.set("core.sched.enqueued", mg.enqueued as f64);
    r.set("core.sched.queue_served", mg.queue_served as f64);
    r.set("core.sched.queue_timeouts", mg.aborts_queue_timeout as f64);
    r.set("core.sched.aborts", mg.aborts_scheduler as f64);
    r.set(
        "core.sched.enqueue_success",
        ratio(mg.queue_served, mg.enqueued),
    );
    Ok((r, w.issued() * (runs + 3)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (measured, declared) = if args.trace {
        (measure_per_layer(&args), per_layer())
    } else {
        (measure_end_to_end(&args), end_to_end())
    };
    match measured.and_then(|(report, attempted)| report.json(&declared, attempted, 0)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            let issued = args.workload.issued();
            println!("{}", result_line(false, issued, issued, ""));
            ExitCode::FAILURE
        }
    }
}
