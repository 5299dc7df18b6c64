//! Tests of the benchmark itself: its timing wrapper changes nothing, its
//! spans add up, its metric list matches `BENCHMARK.json`, and its
//! correctness gate fails the command.

use std::collections::BTreeMap;

use dstm_sim::{ActorId, BinaryHeapQueue, EventQueue, KernelEvent, Sequenced, SimRng, SimTime};
use hyflow_dstm::{Msg, NodeEvent};
use perfbench::host::Probe;
use perfbench::report::{end_to_end, per_layer};
use perfbench::run::{build, run, run_probed, Outcome};
use perfbench::spans::{step_to_quiescence, TimingQueue, SPAN_TOLERANCE};
use perfbench::traced::traced_run;
use perfbench::workload::{Workload, WORKLOADS};

/// Each workload shrunk to a few nodes and transactions, every other axis
/// (benchmark, contention, topology kind, cache) kept.
fn small(w: &Workload) -> Workload {
    Workload {
        nodes: 8,
        txns_per_node: 6,
        ..*w
    }
}

#[test]
fn timing_queue_pops_in_the_bare_heaps_order() {
    let mut bare: BinaryHeapQueue<NodeEvent> = BinaryHeapQueue::new();
    let mut timed = TimingQueue::new(BinaryHeapQueue::new());
    let mut rng = SimRng::new(7);
    // Few distinct times, so the sequence tiebreak decides most pops.
    let event = |seq: u64| {
        let ev = KernelEvent::Msg {
            from: ActorId(0),
            to: ActorId((seq % 5) as u32),
            msg: Msg::StartWorkload,
        };
        Sequenced::new(
            SimTime((seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) * 1_000),
            seq,
            ev,
        )
    };
    let mut seq = 0;
    for _ in 0..2_000 {
        if rng.chance(0.6) {
            seq += 1;
            bare.push(event(seq));
            timed.push(event(seq));
        } else {
            let (a, b) = (bare.pop(), timed.pop());
            assert_eq!(a.map(|e| e.key), b.map(|e| e.key));
        }
        assert_eq!(bare.len(), timed.len());
        assert_eq!(bare.peek_key(), timed.peek_key());
    }
    while let Some(a) = bare.pop() {
        assert_eq!(Some(a.key), timed.pop().map(|e| e.key));
    }
    assert!(timed.pop().is_none());
    assert_eq!(timed.pop.n, timed.push.n, "every pushed event popped once");
}

#[test]
fn probed_stepped_sharded_and_traced_runs_match_the_untraced_run() {
    for w in WORKLOADS.iter().map(small) {
        let cell = w.cell(3, 1);
        let (mut system, _) = build(&cell, BinaryHeapQueue::new());
        let metrics = run(&cell, &mut system);
        let untraced = Outcome::new(&metrics, &system).unwrap();
        assert!(
            untraced.completed && untraced.commits() == w.issued(),
            "{}",
            w.name
        );

        let (mut probed_sys, _) = build(&cell, BinaryHeapQueue::new());
        let (metrics, host) = run_probed(&cell, &mut probed_sys, &mut Probe::new());
        let probed = Outcome::new(&metrics, &probed_sys).unwrap();
        untraced.expect_same(&probed, w.name).unwrap();
        assert!(host.probes > 0 && host.scaled_cpu_s() > 0.0, "{}", w.name);

        let (mut stepped_sys, _) = build(&cell, TimingQueue::new(BinaryHeapQueue::new()));
        step_to_quiescence(&mut stepped_sys, u64::MAX);
        let stepped = Outcome::new(&stepped_sys.run(0), &stepped_sys).unwrap();
        untraced.expect_same(&stepped, w.name).unwrap();
        assert_eq!(untraced.digest(), stepped.digest(), "{}", w.name);

        let two = cell.clone().with_shards(2);
        let (mut sharded_sys, _) = build(&two, BinaryHeapQueue::new());
        let sharded = Outcome::new(&run(&two, &mut sharded_sys), &sharded_sys).unwrap();
        untraced.expect_same(&sharded, w.name).unwrap();

        let traced = traced_run(&cell).unwrap();
        untraced.expect_same(&traced.outcome, w.name).unwrap();
        assert_eq!(traced.latencies_ns.len() as u64, w.issued(), "{}", w.name);
        assert!(traced.latencies_ns.windows(2).all(|p| p[0] <= p[1]));
    }
}

#[test]
fn handler_and_queue_spans_sum_back_to_the_step_total() {
    for w in WORKLOADS.iter().map(small) {
        let cell = w.cell(5, 0);
        let (mut system, _) = build(&cell, TimingQueue::new(BinaryHeapQueue::new()));
        let p = step_to_quiescence(&mut system, u64::MAX);
        let parts = p.handler_ns() + p.pop.ns + p.push.ns;
        let diff = p.step.ns.abs_diff(parts) as f64;
        assert!(
            diff <= SPAN_TOLERANCE * p.step.ns as f64,
            "{}: parts {parts} ns vs steps {} ns",
            w.name,
            p.step.ns
        );
        assert!(p.step.ns <= p.loop_ns, "steps are inside the loop");
        let handled: u64 = p.handlers.iter().map(|h| h.n).sum();
        assert_eq!(handled, p.step.n, "{}: one handler span per step", w.name);
        assert_eq!(p.pop.n, p.step.n, "{}: one pop per step", w.name);
    }
}

// --- BENCHMARK.json -------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("not an object: {self:?}"),
        }
    }
}

/// A strict parser for the subset of JSON the file uses (no escapes
/// beyond `\"` and `\\`).
struct Parser<'a>(&'a [u8], usize);

impl Parser<'_> {
    fn ws(&mut self) {
        while self.1 < self.0.len() && self.0[self.1].is_ascii_whitespace() {
            self.1 += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.0.get(self.1),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.1
        );
        self.1 += 1;
    }
    fn peek(&mut self) -> u8 {
        self.ws();
        *self.0.get(self.1).expect("unexpected end of input")
    }
    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            match self.0[self.1] {
                b'"' => break,
                b'\\' => {
                    self.1 += 1;
                    assert!(matches!(self.0[self.1], b'"' | b'\\'), "unsupported escape");
                    out.push(self.0[self.1]);
                }
                c => out.push(c),
            }
            self.1 += 1;
        }
        self.1 += 1;
        String::from_utf8(out).expect("utf-8")
    }
    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut m = BTreeMap::new();
                if self.peek() != b'}' {
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        assert!(m.insert(k.clone(), self.value()).is_none(), "duplicate {k}");
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b'}');
                Json::Obj(m)
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                if self.peek() != b']' {
                    loop {
                        a.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']');
                Json::Arr(a)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.1;
                while self.1 < self.0.len()
                    && !matches!(self.0[self.1], b',' | b'}' | b']')
                    && !self.0[self.1].is_ascii_whitespace()
                {
                    self.1 += 1;
                }
                match std::str::from_utf8(&self.0[start..self.1]).unwrap() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad literal {n}"))),
                }
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser(text.as_bytes(), 0);
    let v = p.value();
    p.ws();
    assert_eq!(p.1, text.len(), "trailing input");
    v
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, _) in end_to_end().into_iter().chain(per_layer()) {
        assert!(well_formed_name(&name), "bad metric name {name:?}");
        assert!(seen.insert(name.clone()), "metric {name} declared twice");
    }
}

#[test]
fn benchmark_json_names_exactly_the_workloads_and_the_reported_metrics() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let names: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);

    let listed = |key: &str| -> Vec<(String, String)> {
        b.get(key)
            .arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect()
    };
    let declared = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), declared(end_to_end()));
    assert_eq!(listed("per_layer"), declared(per_layer()));

    let mut setup_bound = None;
    let mut largest = 0.0f64;
    for m in b.get("end_to_end").arr() {
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        assert!(matches!(m.get("better").str(), "higher" | "lower"));
        largest = largest.max(bound);
        if m.get("name").str() == "setup_s" {
            assert_eq!(m.get("better").str(), "lower");
            setup_bound = Some(bound);
        }
    }
    assert_eq!(setup_bound, Some(largest), "setup_s has the largest bound");
}

#[test]
fn planted_invariant_violation_fails_the_command() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "vacation-hi",
            "--seconds",
            "1",
            "--plant-violation",
        ])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last);
    assert_eq!(result.get("correct"), &Json::Bool(false));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("billing does not match"), "{stderr}");
}
