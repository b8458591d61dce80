//! The tracing wrapper: a benchmark-owned [`simnet::Node`] that delegates
//! every hook to the real node and, around each handler call, records wall
//! time and allocation count under a [`Span`] chosen from the message
//! variant or timer tag. Tracing never changes what the inner node does, so
//! a traced run must reproduce the untraced run's simulated outcome.

use std::cell::RefCell;
use std::time::Instant;

use astrolabe::{AstroNode, GossipMsg};
use newswire::{NewsWireMsg, NewsWireNode};
use rand::rngs::SmallRng;
use simnet::{
    Context, CorruptionOp, LiarAction, LiarMode, Node, NodeId, Payload, RestartMode, TimerId,
};

use crate::alloc;

/// Handler groups the traced run reports, one per layer activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Astrolabe gossip receive.
    GossipMsg,
    /// The gossip-round timer (on newswire nodes it also runs newswire's
    /// per-tick digests, cache GC and reconcile trigger).
    Tick,
    /// Publish requests at the publisher.
    Publish,
    /// Tree forwarding: `Forward` receipt.
    Forward,
    /// Leaf delivery: `Deliver` receipt.
    Deliver,
    /// Forwarding-queue drain timer.
    Drain,
    /// Hop acknowledgements and ack-timeout timers.
    Ack,
    /// Cache repair: requests, replies and their timers.
    Repair,
    /// Log reconciliation: requests, replies and the reply-wait timer.
    Reconcile,
    /// Crash and restart hooks.
    Recovery,
    /// Everything else (start hooks, rotations, unknown timers).
    Other,
}

const SPANS: usize = Span::Other as usize + 1;

/// Totals for one span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Handler calls.
    pub calls: u64,
    /// Wall seconds inside the handlers.
    pub secs: f64,
    /// Allocations made inside the handlers.
    pub allocs: u64,
}

/// Everything the wrappers on one thread recorded.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    spans: [SpanTotals; SPANS],
    /// Wire bytes of gossip messages received.
    pub gossip_bytes: u64,
    /// Wall seconds the wrappers spent sizing gossip messages: tracing's
    /// own work inside the run loop, charged to no layer.
    pub sizing_secs: f64,
}

impl Profile {
    /// Totals for `span`.
    pub fn get(&self, span: Span) -> SpanTotals {
        self.spans[span as usize]
    }

    /// Wall seconds across all handlers.
    pub fn handler_secs(&self) -> f64 {
        self.spans.iter().map(|s| s.secs).sum()
    }
}

thread_local! {
    static PROFILE: RefCell<Profile> = RefCell::new(Profile::default());
}

/// Clears this thread's profile.
pub fn reset() {
    PROFILE.with(|p| *p.borrow_mut() = Profile::default());
}

/// A copy of this thread's profile.
pub fn snapshot() -> Profile {
    PROFILE.with(|p| p.borrow().clone())
}

fn timed<R>(span: Span, f: impl FnOnce() -> R) -> R {
    let a0 = alloc::count();
    let t0 = Instant::now();
    let r = f();
    let secs = t0.elapsed().as_secs_f64();
    let allocs = alloc::count() - a0;
    PROFILE.with(|p| {
        let s = &mut p.borrow_mut().spans[span as usize];
        s.calls += 1;
        s.secs += secs;
        s.allocs += allocs;
    });
    r
}

/// How a node type's messages and timers map onto [`Span`]s.
pub trait Classify: Node {
    /// The span a received message is charged to.
    fn msg_span(msg: &Self::Msg) -> Span;
    /// The span a fired timer is charged to.
    fn timer_span(tag: u64) -> Span;
    /// Wire bytes of `msg` if it is gossip, else 0.
    fn gossip_bytes(msg: &Self::Msg) -> u64;
}

// Timer tags as `NewsWireNode` and `AstroNode` assign them: 1 gossip round,
// 2 queue drain, 3 repair round, 4 repair-reply wait, 5 reconcile-reply
// wait, and above 2^32 an acknowledged hand-off's timeout.
const GOSSIP_TIMER: u64 = 1;
const DRAIN_TIMER: u64 = 2;
const REPAIR_TIMER: u64 = 3;
const REPAIR_WAIT_TIMER: u64 = 4;
const RECONCILE_WAIT_TIMER: u64 = 5;
const ACK_TAG_BASE: u64 = 1 << 32;

impl Classify for NewsWireNode {
    fn msg_span(msg: &NewsWireMsg) -> Span {
        match msg {
            NewsWireMsg::Gossip { .. } => Span::GossipMsg,
            NewsWireMsg::PublishRequest { .. } => Span::Publish,
            NewsWireMsg::Forward { .. } => Span::Forward,
            NewsWireMsg::Deliver { .. } => Span::Deliver,
            NewsWireMsg::ForwardAck { .. } => Span::Ack,
            NewsWireMsg::RepairRequest { .. } | NewsWireMsg::RepairReply { .. } => Span::Repair,
            NewsWireMsg::ReconcileRequest { .. } | NewsWireMsg::ReconcileReply { .. } => {
                Span::Reconcile
            }
            NewsWireMsg::Rotate { .. } => Span::Other,
        }
    }

    fn timer_span(tag: u64) -> Span {
        match tag {
            GOSSIP_TIMER => Span::Tick,
            DRAIN_TIMER => Span::Drain,
            REPAIR_TIMER | REPAIR_WAIT_TIMER => Span::Repair,
            RECONCILE_WAIT_TIMER => Span::Reconcile,
            t if t > ACK_TAG_BASE => Span::Ack,
            _ => Span::Other,
        }
    }

    fn gossip_bytes(msg: &NewsWireMsg) -> u64 {
        match msg {
            NewsWireMsg::Gossip { .. } => msg.wire_size() as u64,
            _ => 0,
        }
    }
}

impl Classify for AstroNode {
    fn msg_span(_: &GossipMsg) -> Span {
        Span::GossipMsg
    }

    fn timer_span(tag: u64) -> Span {
        if tag == GOSSIP_TIMER {
            Span::Tick
        } else {
            Span::Other
        }
    }

    fn gossip_bytes(msg: &GossipMsg) -> u64 {
        msg.wire_size() as u64
    }
}

/// A node whose every hook is timed and delegated to `inner`.
#[derive(Debug)]
pub struct Timed<N> {
    /// The real node.
    pub inner: N,
}

impl<N: Classify> Node for Timed<N> {
    type Msg = N::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        timed(Span::Other, || self.inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        let span = N::msg_span(&msg);
        let t0 = Instant::now();
        let bytes = N::gossip_bytes(&msg);
        let secs = t0.elapsed().as_secs_f64();
        PROFILE.with(|p| {
            let mut p = p.borrow_mut();
            p.gossip_bytes += bytes;
            p.sizing_secs += secs;
        });
        timed(span, || self.inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: TimerId, tag: u64) {
        timed(N::timer_span(tag), || self.inner.on_timer(ctx, timer, tag));
    }

    fn on_crash(&mut self) {
        timed(Span::Recovery, || self.inner.on_crash());
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        timed(Span::Recovery, || self.inner.on_recover(ctx));
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg>, mode: RestartMode) {
        timed(Span::Recovery, || self.inner.on_restart(ctx, mode));
    }

    fn apply_corruption(&mut self, op: &CorruptionOp, rng: &mut SmallRng) -> u64 {
        timed(Span::Other, || self.inner.apply_corruption(op, rng))
    }

    fn tamper_outbound(
        &mut self,
        to: NodeId,
        msg: &mut Self::Msg,
        mode: LiarMode,
        rng: &mut SmallRng,
    ) -> LiarAction {
        timed(Span::Other, || self.inner.tamper_outbound(to, msg, mode, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{LiarBehavior, NetworkModel, SimDuration, SimTime, Simulation};

    /// Counts every hook the engine invokes.
    #[derive(Debug, Default)]
    struct Recorder {
        starts: u32,
        msgs: u32,
        timers: u32,
        crashes: u32,
        recovers: u32,
        corruptions: u32,
        tampers: u32,
    }

    impl Node for Recorder {
        type Msg = Vec<u8>;
        fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
            self.starts += 1;
            ctx.set_timer(SimDuration::from_millis(1), 7);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Vec<u8>>, _: NodeId, msg: Vec<u8>) {
            self.msgs += 1;
            if msg[0] > 0 {
                ctx.send(NodeId(1), vec![msg[0] - 1]);
            }
        }
        fn on_timer(&mut self, _: &mut Context<'_, Vec<u8>>, _: TimerId, tag: u64) {
            assert_eq!(tag, 7);
            self.timers += 1;
        }
        fn on_crash(&mut self) {
            self.crashes += 1;
        }
        fn on_recover(&mut self, _: &mut Context<'_, Vec<u8>>) {
            self.recovers += 1;
        }
        fn apply_corruption(&mut self, _: &CorruptionOp, _: &mut SmallRng) -> u64 {
            self.corruptions += 1;
            3
        }
        fn tamper_outbound(
            &mut self,
            _: NodeId,
            _: &mut Vec<u8>,
            _: LiarMode,
            _: &mut SmallRng,
        ) -> LiarAction {
            self.tampers += 1;
            LiarAction::Dropped
        }
    }

    impl Classify for Recorder {
        fn msg_span(_: &Vec<u8>) -> Span {
            Span::Forward
        }
        fn timer_span(_: u64) -> Span {
            Span::Drain
        }
        fn gossip_bytes(msg: &Vec<u8>) -> u64 {
            msg.len() as u64
        }
    }

    #[test]
    fn wrapper_delegates_every_hook() {
        reset();
        let mut sim = Simulation::new(NetworkModel::ideal(SimDuration::from_millis(1)), 1);
        sim.add_node(Timed { inner: Recorder::default() });
        sim.add_node(Timed { inner: Recorder::default() });
        let ms = |m: u64| SimTime::from_micros(m * 1_000);
        sim.schedule_external(ms(10), NodeId(0), vec![0]);
        sim.schedule_crash(ms(20), NodeId(1));
        sim.schedule_restart(ms(30), NodeId(1), RestartMode::ColdDurable);
        sim.schedule_corruption(ms(40), NodeId(0), CorruptionOp::ZoneRows { rows: 1 }, 9);
        let lie = LiarBehavior { mode: LiarMode::SelectiveDrop, prob: 1.0 };
        sim.schedule_liar(ms(50), NodeId(0), Some(lie));
        sim.schedule_external(ms(60), NodeId(0), vec![1]);
        sim.run_until(SimTime::from_secs(1));

        let (a, b) = (&sim.node(NodeId(0)).inner, &sim.node(NodeId(1)).inner);
        assert_eq!((a.starts, b.starts), (1, 1));
        assert_eq!((a.timers, b.timers), (1, 1));
        assert_eq!((a.msgs, b.msgs), (2, 0), "the liar dropped node 0's forward");
        assert_eq!((b.crashes, b.recovers), (1, 1));
        assert_eq!((a.corruptions, a.tampers), (1, 1));

        let p = snapshot();
        assert_eq!(p.get(Span::Forward).calls, 2);
        assert_eq!(p.get(Span::Drain).calls, 2);
        assert_eq!(p.get(Span::Recovery).calls, 2, "crash plus restart");
        assert_eq!(p.get(Span::Other).calls, 4, "two starts, a corruption, a tamper");
        assert_eq!(p.gossip_bytes, 2);
        assert!(p.handler_secs() > 0.0);
    }

    #[test]
    fn newswire_spans_follow_message_variant_and_timer_tag() {
        let ack = NewsWireMsg::ForwardAck { msg_id: 1, zone: astrolabe::ZoneId::root() };
        assert_eq!(NewsWireNode::msg_span(&ack), Span::Ack);
        let repair = NewsWireMsg::RepairReply { items: Vec::new() };
        assert_eq!(NewsWireNode::msg_span(&repair), Span::Repair);
        assert_eq!(NewsWireNode::timer_span(GOSSIP_TIMER), Span::Tick);
        assert_eq!(NewsWireNode::timer_span(DRAIN_TIMER), Span::Drain);
        assert_eq!(NewsWireNode::timer_span(REPAIR_WAIT_TIMER), Span::Repair);
        assert_eq!(NewsWireNode::timer_span(RECONCILE_WAIT_TIMER), Span::Reconcile);
        assert_eq!(NewsWireNode::timer_span(ACK_TAG_BASE + 5), Span::Ack);
        assert_eq!(AstroNode::timer_span(GOSSIP_TIMER), Span::Tick);
    }
}
