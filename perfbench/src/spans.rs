//! The traced run: the benchmark steps the kernel itself, one event at a
//! time, through a timing wrapper around the event queue, and keeps one
//! aggregate per span name in memory: `step`, its children `queue.pop` and
//! `queue.push`, and `handler.<Variant>` — the step's self time (step time
//! minus the queue time inside it), attributed to the popped event's
//! message or timer variant.

use std::time::Instant;

use dstm_sim::{BinaryHeapQueue, EventKey, EventQueue, KernelEvent, Sequenced};
use hyflow_dstm::{Msg, NodeEvent, System, Timer};

/// Largest share of the step total that the handler and queue spans may
/// miss when summed; only a step whose queue time reads longer than the
/// step itself (clamped to zero self time) loses nanoseconds.
pub const SPAN_TOLERANCE: f64 = 0.001;

/// Every `Msg` and `Timer` variant, in the index order [`kind_of`] returns.
pub const HANDLER_KINDS: [&str; 17] = [
    "ObjReq",
    "ObjResp",
    "ObjectDecline",
    "VersionReq",
    "VersionAck",
    "LockReq",
    "LockResp",
    "Unlock",
    "Publish",
    "PublishAck",
    "VersionCheck",
    "VersionResp",
    "StartWorkload",
    "Batch",
    "ComputeDone",
    "QueueDeadline",
    "RetryBackoff",
];

/// Index into [`HANDLER_KINDS`] of the handler an event will run.
pub fn kind_of(ev: &NodeEvent) -> usize {
    match ev {
        KernelEvent::Msg { msg, .. } => match msg {
            Msg::ObjReq { .. } => 0,
            Msg::ObjResp { .. } => 1,
            Msg::ObjectDecline { .. } => 2,
            Msg::VersionReq { .. } => 3,
            Msg::VersionAck { .. } => 4,
            Msg::LockReq { .. } => 5,
            Msg::LockResp { .. } => 6,
            Msg::Unlock { .. } => 7,
            Msg::Publish { .. } => 8,
            Msg::PublishAck { .. } => 9,
            Msg::VersionCheck { .. } => 10,
            Msg::VersionResp { .. } => 11,
            Msg::StartWorkload => 12,
            Msg::Batch(_) => 13,
        },
        KernelEvent::Timer { timer, .. } => match timer {
            Timer::ComputeDone { .. } => 14,
            Timer::QueueDeadline { .. } => 15,
            Timer::RetryBackoff { .. } => 16,
        },
    }
}

/// Count and total host nanoseconds of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    pub n: u64,
    pub ns: u64,
}

impl Span {
    fn add(&mut self, ns: u64) {
        self.n += 1;
        self.ns += ns;
    }

    /// Mean nanoseconds per occurrence; 0 when the span never happened.
    pub fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64
        }
    }
}

/// An [`EventQueue`] that times every push and pop of the queue it wraps
/// and remembers what it last popped. It never reorders anything, so a run
/// through it is bit-identical to a run on the bare queue.
#[derive(Default)]
pub struct TimingQueue<Q = BinaryHeapQueue<NodeEvent>> {
    inner: Q,
    pub push: Span,
    pub pop: Span,
    pub max_pending: usize,
    /// Handler kind of the last popped event.
    pub last_kind: usize,
    /// `(from, to)` of every popped message, for replaying the topology's
    /// delay lookups after the run.
    pub hops: Vec<(u32, u32)>,
}

impl<Q> TimingQueue<Q> {
    pub fn new(inner: Q) -> Self {
        TimingQueue {
            inner,
            push: Span::default(),
            pop: Span::default(),
            max_pending: 0,
            last_kind: 0,
            hops: Vec::new(),
        }
    }

    /// Nanoseconds spent inside push and pop so far.
    pub fn queue_ns(&self) -> u64 {
        self.push.ns + self.pop.ns
    }
}

impl<Q: EventQueue<NodeEvent>> EventQueue<NodeEvent> for TimingQueue<Q> {
    fn push(&mut self, ev: Sequenced<NodeEvent>) {
        let t = Instant::now();
        self.inner.push(ev);
        self.push.add(t.elapsed().as_nanos() as u64);
        self.max_pending = self.max_pending.max(self.inner.len());
    }

    fn pop(&mut self) -> Option<Sequenced<NodeEvent>> {
        let t = Instant::now();
        let ev = self.inner.pop();
        if let Some(ev) = &ev {
            self.pop.add(t.elapsed().as_nanos() as u64);
            self.last_kind = kind_of(&ev.payload);
            if let KernelEvent::Msg { from, to, .. } = &ev.payload {
                self.hops.push((from.0, to.0));
            }
        }
        ev
    }

    fn peek_key(&self) -> Option<EventKey> {
        self.inner.peek_key()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Span aggregates of one stepped run.
#[derive(Clone, Debug, Default)]
pub struct StepProfile {
    /// Wall nanoseconds of the whole stepping loop, timer calls included.
    pub loop_ns: u64,
    pub step: Span,
    /// Queue operations inside steps (set-up pushes excluded).
    pub pop: Span,
    pub push: Span,
    pub handlers: [Span; HANDLER_KINDS.len()],
    pub max_pending: usize,
    pub hops: Vec<(u32, u32)>,
}

impl StepProfile {
    /// Add another run's span totals to this one's.
    pub fn absorb(&mut self, other: &StepProfile) {
        self.loop_ns += other.loop_ns;
        for (a, b) in [
            (&mut self.step, other.step),
            (&mut self.pop, other.pop),
            (&mut self.push, other.push),
        ]
        .into_iter()
        .chain(self.handlers.iter_mut().zip(other.handlers))
        {
            a.n += b.n;
            a.ns += b.ns;
        }
        self.max_pending = self.max_pending.max(other.max_pending);
    }

    /// Self time of all handlers: step time not spent in the queue.
    pub fn handler_ns(&self) -> u64 {
        self.handlers.iter().map(|h| h.ns).sum()
    }

    /// `(name, parent, span)` for every span, for the end-of-run table.
    pub fn spans(&self) -> Vec<(String, &'static str, Span)> {
        let mut out = vec![
            ("step".to_string(), "-", self.step),
            ("queue.pop".to_string(), "step", self.pop),
            ("queue.push".to_string(), "step", self.push),
        ];
        for (name, h) in HANDLER_KINDS.iter().zip(&self.handlers) {
            out.push((format!("handler.{name}"), "step", *h));
        }
        out
    }
}

/// Step `system` (built on a [`TimingQueue`]) until its queue drains or
/// `budget` steps ran, timing every step.
pub fn step_to_quiescence<Q: EventQueue<NodeEvent>>(
    system: &mut System<TimingQueue<Q>>,
    budget: u64,
) -> StepProfile {
    let world = system.world_mut();
    let (push0, pop0) = (world.queue().push, world.queue().pop);
    let mut p = StepProfile::default();
    let start = Instant::now();
    while p.step.n < budget {
        let q0 = world.queue().queue_ns();
        let t = Instant::now();
        let more = world.step();
        let step_ns = t.elapsed().as_nanos() as u64;
        if !more {
            break;
        }
        let queue_ns = world.queue().queue_ns() - q0;
        p.step.add(step_ns);
        p.handlers[world.queue().last_kind].add(step_ns.saturating_sub(queue_ns));
    }
    p.loop_ns = start.elapsed().as_nanos() as u64;
    let q = world.queue_mut();
    p.pop = Span {
        n: q.pop.n - pop0.n,
        ns: q.pop.ns - pop0.ns,
    };
    p.push = Span {
        n: q.push.n - push0.n,
        ns: q.push.ns - push0.ns,
    };
    p.max_pending = q.max_pending;
    p.hops = std::mem::take(&mut q.hops);
    p
}
