//! Per-layer probes for the traced run.
//!
//! The hot layers — queue disciplines, link controllers, flow agents and
//! utilities — are called millions of times per simulation, so they are not
//! recorded as spans. Each call instead folds into counters owned by the
//! calling thread: the partition workers of a multi-partition run update
//! their own counters, and [`take_totals`] merges every thread's counters
//! once the workers have been joined.
//!
//! Every wrapper forwards every trait method, defaulted ones included, so
//! a wrapped simulation is the same simulation as an unwrapped one.

use numfabric_num::utility::{Utility, UtilityRef};
use numfabric_sim::queue::EnqueueOutcome;
use numfabric_sim::{
    AckMode, AgentCtx, FlowAgent, FlowId, LinkController, Packet, QueueDiscipline, SimDuration,
    SimTime,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The counters one thread owns. Only the owning thread writes them (a
/// plain load-then-store, no contended read-modify-write); other threads
/// read them only after the owner has been joined or is idle.
#[derive(Default)]
struct ThreadCounters {
    queue_enqueues: AtomicU64,
    queue_dequeues: AtomicU64,
    queue_drops: AtomicU64,
    queue_ns: AtomicU64,
    xwi_calls: AtomicU64,
    xwi_ns: AtomicU64,
    agent_calls: AtomicU64,
    agent_ns: AtomicU64,
    utility_evals: AtomicU64,
    /// Time inside probed calls that were not nested in another probed
    /// call on the same thread: the exclusive probed time, which is what
    /// the event core's self time is computed against.
    outermost_ns: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed) + by, Relaxed);
}

static REGISTRY: Mutex<Vec<Arc<ThreadCounters>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<ThreadCounters> = {
        let counters = Arc::new(ThreadCounters::default());
        REGISTRY
            .lock()
            .expect("probe registry poisoned by a panicking thread")
            .push(counters.clone());
        counters
    };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// The merged counters of every thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Packets offered to a queue discipline.
    pub queue_enqueues: u64,
    /// Packets handed out by a queue discipline.
    pub queue_dequeues: u64,
    /// Enqueues that dropped a packet (the arriving one or a victim).
    pub queue_drops: u64,
    /// Host nanoseconds inside queue enqueue/dequeue.
    pub queue_ns: u64,
    /// Link-controller callbacks (enqueue, dequeue, timer).
    pub xwi_calls: u64,
    /// Host nanoseconds inside link-controller callbacks.
    pub xwi_ns: u64,
    /// Flow-agent callbacks (start, ack, timer, reroute).
    pub agent_calls: u64,
    /// Host nanoseconds inside flow-agent callbacks, including the queue
    /// and controller work their `AgentCtx` sends trigger.
    pub agent_ns: u64,
    /// Utility evaluations (value, marginal, inverse marginal).
    pub utility_evals: u64,
    /// Exclusive probed nanoseconds (outermost probed calls only).
    pub outermost_ns: u64,
}

/// Sum every thread's counters and reset them. Call only while no probed
/// code runs on another thread (between simulation calls): the partition
/// workers of a run are joined before `Network::run_until` returns.
pub fn take_totals() -> Totals {
    // Make sure this thread is registered, so its counters are reset too.
    LOCAL.with(|_| ());
    let mut registry = REGISTRY
        .lock()
        .expect("probe registry poisoned by a panicking thread");
    let mut t = Totals::default();
    for c in registry.iter() {
        let take = |a: &AtomicU64| a.swap(0, Relaxed);
        t.queue_enqueues += take(&c.queue_enqueues);
        t.queue_dequeues += take(&c.queue_dequeues);
        t.queue_drops += take(&c.queue_drops);
        t.queue_ns += take(&c.queue_ns);
        t.xwi_calls += take(&c.xwi_calls);
        t.xwi_ns += take(&c.xwi_ns);
        t.agent_calls += take(&c.agent_calls);
        t.agent_ns += take(&c.agent_ns);
        t.utility_evals += take(&c.utility_evals);
        t.outermost_ns += take(&c.outermost_ns);
    }
    // Counters of exited threads are held by the registry alone; they are
    // zeroed now and can be dropped.
    registry.retain(|c| Arc::strong_count(c) > 1);
    t
}

impl std::ops::AddAssign for Totals {
    fn add_assign(&mut self, o: Totals) {
        self.queue_enqueues += o.queue_enqueues;
        self.queue_dequeues += o.queue_dequeues;
        self.queue_drops += o.queue_drops;
        self.queue_ns += o.queue_ns;
        self.xwi_calls += o.xwi_calls;
        self.xwi_ns += o.xwi_ns;
        self.agent_calls += o.agent_calls;
        self.agent_ns += o.agent_ns;
        self.utility_evals += o.utility_evals;
        self.outermost_ns += o.outermost_ns;
    }
}

/// Time `f`, charging the calls and nanoseconds to the counters `pick`
/// selects; exclusive time also goes to `outermost_ns`.
#[inline]
fn timed<R>(
    pick: impl Fn(&ThreadCounters) -> (&AtomicU64, &AtomicU64),
    f: impl FnOnce() -> R,
) -> R {
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    let start = Instant::now();
    let result = f();
    let ns = start.elapsed().as_nanos() as u64;
    DEPTH.with(|d| d.set(depth));
    LOCAL.with(|c| {
        let (calls, busy) = pick(c);
        bump(calls, 1);
        bump(busy, ns);
        if depth == 0 {
            bump(&c.outermost_ns, ns);
        }
    });
    result
}

/// A [`QueueDiscipline`] that counts and times its inner discipline.
pub struct ProbedQueue<Q>(pub Q);

impl<Q: QueueDiscipline> QueueDiscipline for ProbedQueue<Q> {
    fn enqueue(&mut self, packet: Packet, now: SimTime) -> EnqueueOutcome {
        let outcome = timed(
            |c| (&c.queue_enqueues, &c.queue_ns),
            || self.0.enqueue(packet, now),
        );
        if !matches!(outcome, EnqueueOutcome::Accepted) {
            LOCAL.with(|c| bump(&c.queue_drops, 1));
        }
        outcome
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        timed(|c| (&c.queue_dequeues, &c.queue_ns), || self.0.dequeue(now))
    }

    fn backlog_bytes(&self) -> usize {
        self.0.backlog_bytes()
    }

    fn backlog_packets(&self) -> usize {
        self.0.backlog_packets()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn release_flow(&mut self, flow: FlowId) {
        self.0.release_flow(flow)
    }
}

/// A [`LinkController`] that counts and times its inner controller.
pub struct ProbedController<C>(pub C);

impl<C: LinkController> LinkController for ProbedController<C> {
    fn on_enqueue(&mut self, packet: &mut Packet, now: SimTime) {
        timed(
            |c| (&c.xwi_calls, &c.xwi_ns),
            || self.0.on_enqueue(packet, now),
        )
    }

    fn on_dequeue(&mut self, packet: &mut Packet, now: SimTime, queue_bytes: usize) {
        timed(
            |c| (&c.xwi_calls, &c.xwi_ns),
            || self.0.on_dequeue(packet, now, queue_bytes),
        )
    }

    fn initial_timer(&self) -> Option<SimDuration> {
        self.0.initial_timer()
    }

    fn on_timer(&mut self, now: SimTime, queue_bytes: usize) -> Option<SimDuration> {
        timed(
            |c| (&c.xwi_calls, &c.xwi_ns),
            || self.0.on_timer(now, queue_bytes),
        )
    }

    fn on_capacity_change(&mut self, new_capacity_bps: f64) {
        self.0.on_capacity_change(new_capacity_bps)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A [`FlowAgent`] that counts and times its inner agent.
pub struct ProbedAgent(pub Box<dyn FlowAgent>);

impl FlowAgent for ProbedAgent {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        timed(|c| (&c.agent_calls, &c.agent_ns), || self.0.on_start(ctx))
    }

    fn on_ack(&mut self, packet: &Packet, ctx: &mut AgentCtx<'_>) {
        timed(
            |c| (&c.agent_calls, &c.agent_ns),
            || self.0.on_ack(packet, ctx),
        )
    }

    fn ack_mode(&self) -> AckMode {
        self.0.ack_mode()
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut AgentCtx<'_>) {
        timed(
            |c| (&c.agent_calls, &c.agent_ns),
            || self.0.on_timer(tag, ctx),
        )
    }

    fn on_reroute(&mut self, path_was_lost: bool, ctx: &mut AgentCtx<'_>) {
        timed(
            |c| (&c.agent_calls, &c.agent_ns),
            || self.0.on_reroute(path_was_lost, ctx),
        )
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A [`Utility`] that counts its evaluations.
#[derive(Debug)]
pub struct CountingUtility(pub UtilityRef);

impl CountingUtility {
    /// Wrap `inner` as a shareable utility reference.
    pub fn wrap(inner: UtilityRef) -> UtilityRef {
        Arc::new(CountingUtility(inner))
    }
}

fn count_eval() {
    LOCAL.with(|c| bump(&c.utility_evals, 1));
}

impl Utility for CountingUtility {
    fn value(&self, x: f64) -> f64 {
        count_eval();
        self.0.value(x)
    }

    fn marginal(&self, x: f64) -> f64 {
        count_eval();
        self.0.marginal(x)
    }

    fn inverse_marginal(&self, p: f64) -> f64 {
        count_eval();
        self.0.inverse_marginal(p)
    }

    fn name(&self) -> String {
        self.0.name()
    }

    fn max_useful_rate(&self) -> Option<f64> {
        self.0.max_useful_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Overrides every defaulted method with a result the default would
    /// not give, so a wrapper that falls back to a default is caught.
    #[derive(Default)]
    struct MockQueue {
        released: Vec<FlowId>,
    }

    impl QueueDiscipline for MockQueue {
        fn enqueue(&mut self, packet: Packet, _now: SimTime) -> EnqueueOutcome {
            EnqueueOutcome::Dropped(packet)
        }
        fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
            None
        }
        fn backlog_bytes(&self) -> usize {
            3000
        }
        fn backlog_packets(&self) -> usize {
            2
        }
        fn is_empty(&self) -> bool {
            true
        }
        fn release_flow(&mut self, flow: FlowId) {
            self.released.push(flow);
        }
    }

    #[test]
    fn queue_wrapper_forwards_defaulted_methods() {
        let mut q = ProbedQueue(MockQueue::default());
        assert!(q.is_empty());
        q.release_flow(7);
        assert_eq!(q.0.released, vec![7]);
        assert_eq!((q.backlog_bytes(), q.backlog_packets()), (3000, 2));
    }

    #[derive(Default)]
    struct MockController {
        capacity: Option<f64>,
    }

    impl LinkController for MockController {
        fn on_enqueue(&mut self, _packet: &mut Packet, _now: SimTime) {}
        fn on_dequeue(&mut self, _packet: &mut Packet, _now: SimTime, _queue_bytes: usize) {}
        fn initial_timer(&self) -> Option<SimDuration> {
            Some(SimDuration::from_micros(7))
        }
        fn on_timer(&mut self, _now: SimTime, _queue_bytes: usize) -> Option<SimDuration> {
            None
        }
        fn on_capacity_change(&mut self, new_capacity_bps: f64) {
            self.capacity = Some(new_capacity_bps);
        }
        fn name(&self) -> &'static str {
            "mock"
        }
    }

    #[test]
    fn controller_wrapper_forwards_defaulted_methods() {
        let mut c = ProbedController(MockController::default());
        assert_eq!(c.initial_timer(), Some(SimDuration::from_micros(7)));
        c.on_capacity_change(5e9);
        assert_eq!(c.0.capacity, Some(5e9));
        assert_eq!(c.name(), "mock");
    }

    struct MockAgent;

    impl FlowAgent for MockAgent {
        fn on_start(&mut self, _ctx: &mut AgentCtx<'_>) {}
        fn on_ack(&mut self, _packet: &Packet, _ctx: &mut AgentCtx<'_>) {}
        fn ack_mode(&self) -> AckMode {
            AckMode::PerPacket
        }
        fn on_timer(&mut self, _tag: u64, _ctx: &mut AgentCtx<'_>) {}
        fn name(&self) -> &'static str {
            "mock"
        }
    }

    #[test]
    fn agent_wrapper_forwards_defaulted_methods() {
        // `on_reroute` needs a live `AgentCtx`; the churn equivalence test
        // covers the callbacks, this covers the plain getters.
        let a = ProbedAgent(Box::new(MockAgent));
        assert_eq!(a.ack_mode(), AckMode::PerPacket);
        assert_eq!(a.name(), "mock");
    }

    #[derive(Debug)]
    struct MockUtility;

    impl Utility for MockUtility {
        fn value(&self, x: f64) -> f64 {
            x
        }
        fn marginal(&self, _x: f64) -> f64 {
            1.0
        }
        fn inverse_marginal(&self, _p: f64) -> f64 {
            1.0
        }
        fn name(&self) -> String {
            "mock".into()
        }
        fn max_useful_rate(&self) -> Option<f64> {
            Some(42.0)
        }
    }

    #[test]
    fn utility_wrapper_forwards_and_counts() {
        let u = CountingUtility::wrap(Arc::new(MockUtility));
        assert_eq!(u.max_useful_rate(), Some(42.0));
        assert_eq!(u.name(), "mock");
        // Counters of this thread only: other tests run on other threads,
        // but `take_totals` merges all of them, so compare by difference
        // on a dedicated thread.
        let evals = std::thread::scope(|s| {
            s.spawn(|| {
                let before = LOCAL.with(|c| c.utility_evals.load(Relaxed));
                u.value(1.0);
                u.marginal(1.0);
                u.inverse_marginal(1.0);
                LOCAL.with(|c| c.utility_evals.load(Relaxed)) - before
            })
            .join()
            .expect("counting thread panicked")
        });
        assert_eq!(evals, 3);
    }
}
