//! Differential property tests for the kernel's pending-event-set backends.
//!
//! The queue backend is a pure performance knob: for any sequence of pushes
//! and pops — including patterns that force the calendar queue to resize and
//! to fall back to its sparse far-future scan — [`BinaryHeapQueue`] and
//! [`CalendarQueue`] must emit the exact same events in the exact same order,
//! and a whole actor world driven through both (messages, timers, and timer
//! cancellations) must follow a bit-identical trajectory.
//!
//! `BinaryHeapQueue`'s own tiers (current-bucket heap, bucket ring,
//! overflow) are checked against a sorted reference model at bucket edges,
//! past the ring, across drains and for same-instant keys below the last
//! pop; and its `peek_payload` prefetch hint must leave a whole protocol
//! run unchanged.

use closed_nesting_dstm::harness::runner::{build_system_with_queue, Cell};
use closed_nesting_dstm::hyflow::NodeEvent;
use closed_nesting_dstm::prelude::{Benchmark, SchedulerKind};
use closed_nesting_dstm::sim::{
    Actor, ActorId, BinaryHeapQueue, CalendarQueue, Ctx, EventKey, EventQueue, GenericWorld,
    Sequenced, SimDuration, SimTime, TimerToken,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Queue-level differential test
// ---------------------------------------------------------------------------

/// Interpret each op word as a push (with one of three time regimes) or a
/// pop, checking `peek_key` against every pop on the way, and return the full
/// popped sequence (drained at the end).
fn apply_ops<Q: EventQueue<u32>>(mut q: Q, ops: &[u64]) -> Vec<(EventKey, u32)> {
    let mut popped = Vec::new();
    let mut now = 0u64; // last popped time: pushes must not go into the past
    let mut seq = 0u64;
    for &op in ops {
        let kind = op % 8;
        let body = op / 8;
        if kind < 5 {
            // Three regimes: dense same-day (bucket collisions), spread
            // across the calendar year (rotation + resize), and far future
            // (the sparse global-min fallback).
            let off = match kind {
                0 | 1 => body % 10_000,
                2 | 3 => (body % 1_000) * 1_000_000,
                _ => 1_000_000_000_000 + (body % 1_000) * 7_919,
            };
            q.push(Sequenced::new(SimTime(now + off), seq, seq as u32));
            seq += 1;
        } else {
            let peeked = q.peek_key();
            match q.pop() {
                Some(ev) => {
                    assert_eq!(peeked, Some(ev.key), "peek_key disagreed with pop");
                    now = ev.key.time.0;
                    popped.push((ev.key, ev.payload));
                }
                None => assert_eq!(peeked, None),
            }
        }
    }
    while let Some(ev) = q.pop() {
        popped.push((ev.key, ev.payload));
    }
    popped
}

// ---------------------------------------------------------------------------
// Bucket-edge differential test against a sorted reference model
// ---------------------------------------------------------------------------

/// `BinaryHeapQueue`'s time-bucket width (2^20 ns) and ring span (64
/// buckets), mirrored here to aim pushes at its tier boundaries.
const BUCKET: u64 = 1 << 20;
const RING_SPAN: u64 = 64 * BUCKET;

/// The obviously-correct pending set: a vec kept sorted by key.
#[derive(Default)]
struct SortedModel {
    pending: Vec<(EventKey, u32)>,
}

impl SortedModel {
    fn push(&mut self, key: EventKey, payload: u32) {
        let at = self.pending.partition_point(|&(k, _)| k < key);
        self.pending.insert(at, (key, payload));
    }

    fn first(&self) -> Option<(EventKey, u32)> {
        self.pending.first().copied()
    }

    fn pop(&mut self) -> Option<(EventKey, u32)> {
        (!self.pending.is_empty()).then(|| self.pending.remove(0))
    }
}

/// Drive `BinaryHeapQueue` and the sorted model through the same ops and
/// check, before every pop and after every op, that `peek_key` and
/// `peek_payload` name exactly the event the model holds first (and hence
/// what the next `pop` returns). Keys are engine-shaped
/// (`EventKey::compose` over 8 issuers with per-issuer counters), so a
/// zero-delay push from a low issuer can carry a key *below* the last
/// popped one at the same instant. Returns the number of pops checked.
fn check_against_model(ops: &[u64]) -> Result<usize, TestCaseError> {
    let mut q: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
    let mut model = SortedModel::default();
    let mut issued = [0u64; 8];
    let mut now = 0u64; // time of the last pop: pushes never go below it
    let mut next_payload = 0u32;
    let mut pops = 0usize;
    let mut pop_one = |q: &mut BinaryHeapQueue<u32>, model: &mut SortedModel, now: &mut u64| {
        let expected = model.first();
        prop_assert_eq!(q.peek_key(), expected.map(|(k, _)| k));
        prop_assert_eq!(q.peek_payload().copied(), expected.map(|(_, p)| p));
        let got = q.pop().map(|ev| (ev.key, ev.payload));
        prop_assert_eq!(got, model.pop());
        if let Some((k, _)) = got {
            *now = k.time.0;
            pops += 1;
        }
        Ok(())
    };
    for &op in ops {
        let body = op / 16;
        let time = match op % 16 {
            // Either side of a bucket edge, 0–2 buckets ahead.
            0..=3 => {
                let edge = ((now / BUCKET) + 1 + body % 3) * BUCKET;
                Some(edge - 1 + (body / 3) % 3)
            }
            // Anywhere inside the ring's span.
            4 | 5 => Some(now + body % RING_SPAN),
            // Beyond the ring: the overflow tier, later rebased on.
            6 => Some(now + RING_SPAN + body % (4 * RING_SPAN)),
            // Zero delay: same instant as the last pop.
            7 | 8 => Some(now),
            // Drain to empty, then a far-future push (rebase from empty).
            9 => {
                while model.first().is_some() {
                    pop_one(&mut q, &mut model, &mut now)?;
                }
                Some(now + 1_000_000_000_000 + body % 1_000)
            }
            _ => None,
        };
        match time {
            Some(t) => {
                let issuer = (body % 8) as usize;
                issued[issuer] += 1;
                let key = EventKey::compose(SimTime(t), issuer as u32, issued[issuer]);
                q.push(Sequenced {
                    key,
                    payload: next_payload,
                });
                model.push(key, next_payload);
                next_payload += 1;
            }
            None => pop_one(&mut q, &mut model, &mut now)?,
        }
        prop_assert_eq!(q.len(), model.pending.len());
        prop_assert_eq!(q.peek_key(), model.first().map(|(k, _)| k));
    }
    while model.first().is_some() {
        pop_one(&mut q, &mut model, &mut now)?;
    }
    prop_assert_eq!(q.peek_key(), None);
    prop_assert!(q.pop().is_none());
    Ok(pops)
}

#[test]
fn bucket_edges_overflow_and_rebase_follow_the_model() {
    // A fixed schedule touching every case at least once.
    let mut ops = Vec::new();
    for i in 0..40u64 {
        ops.extend([i * 16, i * 16 + 6, i * 16 + 7, i * 16 + 4, 15]);
    }
    ops.extend([9 * 16 + 9, 6, 6 + 16 * 999, 15, 15, 7, 15, 15]);
    assert!(check_against_model(&ops).expect("model disagreed") > 100);
}

// ---------------------------------------------------------------------------
// World-level differential test
// ---------------------------------------------------------------------------

const CHAOS_ACTORS: u64 = 3;

/// An actor that randomly sends, arms timers, and cancels previously armed
/// timers, logging everything it observes. Budgets (`msg` counts down)
/// guarantee termination.
struct Chaos {
    tokens: Vec<TimerToken>,
    log: Vec<(u64, u32)>,
}

impl Chaos {
    fn new() -> Self {
        Chaos {
            tokens: Vec::new(),
            log: Vec::new(),
        }
    }
}

impl Actor for Chaos {
    type Msg = u32;
    type Timer = u32;

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, _from: ActorId, msg: u32) {
        self.log.push((ctx.now().0, msg));
        if msg == 0 {
            return;
        }
        match ctx.rng().below(4) {
            0 => {
                let d = SimDuration::from_micros(ctx.rng().below(5_000));
                let token = ctx.set_timer(d, msg - 1);
                self.tokens.push(token);
            }
            1 => {
                if let Some(token) = self.tokens.pop() {
                    ctx.cancel_timer(token);
                }
                let to = ActorId(ctx.rng().below(CHAOS_ACTORS) as u32);
                let d = SimDuration::from_micros(1 + ctx.rng().below(2_000));
                ctx.send(to, msg - 1, d);
            }
            _ => {
                let to = ActorId(ctx.rng().below(CHAOS_ACTORS) as u32);
                let d = SimDuration::from_micros(1 + ctx.rng().below(2_000));
                ctx.send(to, msg - 1, d);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, u32>, timer: u32) {
        self.log.push((ctx.now().0, 1_000_000 + timer));
        if timer > 0 {
            let to = ActorId(ctx.rng().below(CHAOS_ACTORS) as u32);
            let d = SimDuration::from_micros(1 + ctx.rng().below(3_000));
            ctx.send(to, timer - 1, d);
        }
    }
}

type ChaosEvent = closed_nesting_dstm::sim::KernelEvent<u32, u32>;

/// (per-actor logs, messages delivered, timers fired, final virtual time).
type ChaosOutcome = (Vec<Vec<(u64, u32)>>, u64, u64, u64);

fn run_chaos<Q: EventQueue<ChaosEvent>>(queue: Q, seed: u64, budget: u32) -> ChaosOutcome {
    let actors = (0..CHAOS_ACTORS).map(|_| Chaos::new()).collect();
    let mut w = GenericWorld::with_queue(actors, seed, queue);
    for i in 0..CHAOS_ACTORS {
        w.send_external(ActorId(i as u32), budget, SimDuration::from_micros(i * 100));
    }
    w.run();
    (
        w.actors().iter().map(|a| a.log.clone()).collect(),
        w.messages_delivered(),
        w.timers_fired(),
        w.now().0,
    )
}

// ---------------------------------------------------------------------------
// Prefetch-hint neutrality
// ---------------------------------------------------------------------------

/// Delegates to `BinaryHeapQueue` but keeps the trait's default
/// `peek_payload` (`None`), so the engine never prefetches.
#[derive(Default)]
struct NoHint(BinaryHeapQueue<NodeEvent>);

impl EventQueue<NodeEvent> for NoHint {
    fn push(&mut self, ev: Sequenced<NodeEvent>) {
        self.0.push(ev);
    }
    fn pop(&mut self) -> Option<Sequenced<NodeEvent>> {
        self.0.pop()
    }
    fn peek_key(&self) -> Option<EventKey> {
        self.0.peek_key()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Merged metrics, messages, end time, final object state (sorted) and the
/// full protocol trace of one traced run of `cell` on `queue`.
fn hinted_outcome<Q: EventQueue<NodeEvent>>(cell: &Cell, queue: Q) -> String {
    let mut cell = cell.clone();
    cell.dstm.trace_protocol = true;
    let mut system = build_system_with_queue(&cell, queue);
    let m = system.run_default();
    assert!(system.all_done(), "cell stalled");
    let mut objects: Vec<_> = system.object_state().into_iter().collect();
    objects.sort_by_key(|(oid, _)| *oid);
    format!(
        "{:?}\nmessages={} ended_at={:?}\n{:?}\n{}",
        m.merged,
        m.messages,
        m.ended_at,
        objects,
        system.take_trace().to_jsonl()
    )
}

#[test]
fn prefetch_hint_does_not_change_the_run() {
    for (benchmark, scheduler) in [
        (Benchmark::Bank, SchedulerKind::Rts),
        (Benchmark::Vacation, SchedulerKind::Tfa),
        (Benchmark::RbTree, SchedulerKind::Rts),
    ] {
        let mut cell = Cell::new(benchmark, scheduler, 8, 0.5)
            .with_txns(8)
            .with_seed(3);
        cell.dstm.cache = benchmark == Benchmark::RbTree;
        let hinted = hinted_outcome(&cell, BinaryHeapQueue::new());
        let unhinted = hinted_outcome(&cell, NoHint::default());
        assert!(
            hinted == unhinted,
            "{benchmark:?}: prefetch hint changed the run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn queue_backends_pop_identically(
        ops in proptest::collection::vec(0u64..1_000_000_000, 1..400),
    ) {
        let heap = apply_ops(BinaryHeapQueue::new(), &ops);
        let cal = apply_ops(CalendarQueue::new(), &ops);
        prop_assert_eq!(&heap, &cal);
        // And the total order is really a total order.
        for w in heap.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "pop order not strictly increasing");
        }
    }

    #[test]
    fn queue_backends_agree_from_tiny_calendars(
        ops in proptest::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        // Start the calendar deliberately mis-parameterized (2 buckets, 1 ns
        // days) so nearly every case exercises resize and re-estimation.
        let heap = apply_ops(BinaryHeapQueue::new(), &ops);
        let cal = apply_ops(CalendarQueue::with_params(2, 1), &ops);
        prop_assert_eq!(heap, cal);
    }

    #[test]
    fn heap_queue_matches_sorted_model_at_bucket_edges(
        ops in proptest::collection::vec(0u64..1_000_000_000_000, 1..400),
    ) {
        check_against_model(&ops)?;
    }

    #[test]
    fn chaos_worlds_are_bit_identical_across_backends(
        seed in 0u64..100_000,
        budget in 1u32..24,
    ) {
        let heap = run_chaos(BinaryHeapQueue::new(), seed, budget);
        let cal = run_chaos(CalendarQueue::new(), seed, budget);
        prop_assert_eq!(heap, cal);
    }
}
