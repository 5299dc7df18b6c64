//! Host-side measurement: process CPU time, peak resident memory, the host
//! speed probe, and the order statistics the benchmark reports.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// CPU time consumed by every thread of this process so far, including
/// threads that already exited (Linux `CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime only writes the timespec it is handed.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of a sorted, non-empty sample.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// A fixed piece of work whose cost tracks how fast the shared host runs
/// the simulator at the moment: a miniature event loop that pops the
/// earliest key from a 2,048-entry binary heap, updates a slot of a 2 MiB
/// table picked by hashing the key, and pushes a later key, much as a
/// kernel step pops an event and touches per-node state. Neighbours on the
/// host contend for the last-level cache and the cores; the probe feels
/// both the way the simulator does. Probed runs interleave it with the
/// simulation and scale the simulation's host time by the probe's speed:
/// on a 2-core shared host the median run cost of one simulation drifted
/// by 9–11% (quartile spread) between 15-second windows, and by 2–5% once
/// scaled. The probe never touches the simulator's state, so a change to
/// the program moves the simulator's cost and leaves the probe's alone.
pub struct Probe {
    heap: BinaryHeap<Reverse<u64>>,
    table: Vec<u64>,
    state: u64,
}

/// Keys in the probe's heap.
const PROBE_KEYS: u64 = 2_048;
/// Words in the probe's table (2 MiB).
const PROBE_WORDS: usize = 1 << 18;
/// Pop–update–push rounds per probe.
const PROBE_ROUNDS: u32 = 5_000;

/// What one probe costs, in CPU ns, between simulation slices on the host
/// the benchmark's numbers were first recorded on (the simulation evicts
/// the probe's table, so a probe there costs more than one run back to
/// back): the speed that host times are scaled to.
pub const PROBE_NOMINAL_NS: f64 = 500_000.0;

/// Host CPU and wall time of a span of work, with the probes that ran
/// alongside it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probed {
    pub cpu_ns: u64,
    pub wall_ns: u64,
    pub probes: u64,
    pub probe_cpu_ns: u64,
    pub probe_wall_ns: u64,
}

impl Probed {
    /// CPU seconds at the nominal probe speed: the span's CPU time scaled
    /// by how much slower than nominal the probes ran alongside it.
    pub fn scaled_cpu_s(&self) -> f64 {
        self.cpu_ns as f64 / 1e9 * self.scale(self.probe_cpu_ns)
    }

    /// Wall seconds at the nominal probe speed (probe wall time).
    pub fn scaled_wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9 * self.scale(self.probe_wall_ns)
    }

    fn scale(&self, probe_ns: u64) -> f64 {
        assert!(self.probes > 0, "a probed span ran no probe");
        PROBE_NOMINAL_NS * self.probes as f64 / probe_ns as f64
    }

    /// Mean CPU ns of one probe.
    pub fn probe_ns(&self) -> f64 {
        self.probe_cpu_ns as f64 / self.probes as f64
    }
}

impl Probe {
    pub fn new() -> Self {
        let mut p = Probe {
            heap: (0..PROBE_KEYS).map(|k| Reverse(k * 977)).collect(),
            table: vec![0; PROBE_WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
        };
        // Fault the table in before anything is timed.
        p.run();
        p
    }

    /// Run one probe and add its cost to `into`.
    pub fn run_into(&mut self, into: &mut Probed) {
        let (c0, t0) = (process_cpu_ns(), Instant::now());
        self.run();
        into.probe_cpu_ns += process_cpu_ns() - c0;
        into.probe_wall_ns += t0.elapsed().as_nanos() as u64;
        into.probes += 1;
    }

    fn run(&mut self) {
        let mask = PROBE_WORDS - 1;
        let mut x = self.state;
        for _ in 0..PROBE_ROUNDS {
            let Reverse(key) = self.heap.pop().expect("the heap never empties");
            let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 29) as usize & mask;
            self.table[slot] = self.table[slot].wrapping_add(key);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.heap
                .push(Reverse(key + (x & 0xFFFF) + self.table[slot] % 7));
        }
        self.state = std::hint::black_box(x);
    }
}

impl Default for Probe {
    fn default() -> Self {
        Probe::new()
    }
}
