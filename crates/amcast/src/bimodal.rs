//! Bimodal Multicast (pbcast) — the comparison protocol of paper §5: "the
//! protocol thus obtained should have many of the properties of Bimodal
//! Multicast, a peer-to-peer reliable multicast protocol developed by our
//! group several years ago."
//!
//! The implementation follows the classic two-phase structure: an
//! unreliable best-effort multicast from the sender to the full membership,
//! followed by rounds of anti-entropy gossip in which nodes exchange
//! digests of recently delivered message ids and solicit retransmissions of
//! what they missed. Its signature property — either almost every node
//! delivers a message or almost none does (hence *bimodal*) — is reproduced
//! by experiment E8.

use std::collections::VecDeque;

use rand::seq::SliceRandom;
use rand::Rng;
use simnet::{Context, Node, NodeId, Payload, SimDuration, SimTime, TimerId};

use crate::dedup::DedupWindow;

/// pbcast wire messages.
#[derive(Debug, Clone)]
pub enum PbcastMsg {
    /// Injected at the origin: multicast a new message.
    Publish {
        /// Message id.
        id: u64,
        /// Payload size in bytes (contents are irrelevant to the protocol).
        len: u32,
    },
    /// Phase 1: the unreliable direct multicast.
    Multicast {
        /// Message id.
        id: u64,
        /// Payload size.
        len: u32,
    },
    /// Phase 2: digest of recently delivered ids.
    Digest {
        /// Recently delivered message ids.
        ids: Vec<u64>,
    },
    /// Solicitation for missed messages.
    Request {
        /// Ids the requester lacks.
        ids: Vec<u64>,
    },
    /// Retransmission of solicited messages.
    Retransmit {
        /// `(id, len)` pairs.
        items: Vec<(u64, u32)>,
    },
}

impl Payload for PbcastMsg {
    fn wire_size(&self) -> usize {
        4 + match self {
            PbcastMsg::Publish { len, .. } | PbcastMsg::Multicast { len, .. } => 8 + *len as usize,
            PbcastMsg::Digest { ids } | PbcastMsg::Request { ids } => ids.len() * 8,
            PbcastMsg::Retransmit { items } => {
                items.iter().map(|&(_, l)| 8 + l as usize).sum::<usize>()
            }
        }
    }
}

/// pbcast configuration.
#[derive(Debug, Clone)]
pub struct PbcastConfig {
    /// Gossip round period.
    pub gossip_interval: SimDuration,
    /// Peers gossiped to per round.
    pub fanout: usize,
    /// Retransmission buffer size (messages age out of repair after this
    /// many more-recent messages — the bounded-buffer property that makes
    /// pbcast bimodal rather than reliable).
    pub buffer: usize,
}

impl Default for PbcastConfig {
    fn default() -> Self {
        PbcastConfig { gossip_interval: SimDuration::from_millis(500), fanout: 2, buffer: 64 }
    }
}

const GOSSIP_TIMER: u64 = 1;

/// One pbcast group member. Membership is static and globally known
/// (pbcast's model), unlike the Astrolabe stack which discovers it.
#[derive(Debug)]
pub struct PbcastNode {
    membership: Vec<u32>,
    cfg: PbcastConfig,
    seen: DedupWindow,
    /// Local deliveries `(id, time)`.
    pub deliveries: Vec<(u64, SimTime)>,
    buffer: VecDeque<(u64, u32)>,
}

impl PbcastNode {
    /// Creates a member that knows the full group.
    pub fn new(membership: Vec<u32>, cfg: PbcastConfig) -> Self {
        PbcastNode {
            membership,
            seen: DedupWindow::new(cfg.buffer * 16),
            cfg,
            deliveries: Vec::new(),
            buffer: VecDeque::new(),
        }
    }

    /// True when this node has delivered `id`.
    pub fn has_delivered(&self, id: u64) -> bool {
        self.seen.contains(id)
    }

    fn deliver(&mut self, now: SimTime, id: u64, len: u32) {
        if self.seen.insert(id) {
            self.deliveries.push((id, now));
            self.buffer.push_back((id, len));
            if self.buffer.len() > self.cfg.buffer {
                self.buffer.pop_front();
            }
        }
    }
}

impl Node for PbcastNode {
    type Msg = PbcastMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, PbcastMsg>) {
        let first = SimDuration::from_micros(
            ctx.rng().gen_range(0..self.cfg.gossip_interval.as_micros().max(1)),
        );
        ctx.set_timer(first, GOSSIP_TIMER);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, PbcastMsg>, from: NodeId, msg: PbcastMsg) {
        let now = ctx.now();
        match msg {
            PbcastMsg::Publish { id, len } => {
                self.deliver(now, id, len);
                let me = ctx.id();
                for &m in &self.membership {
                    if NodeId(m) != me {
                        ctx.send(NodeId(m), PbcastMsg::Multicast { id, len });
                    }
                }
            }
            PbcastMsg::Multicast { id, len } => self.deliver(now, id, len),
            PbcastMsg::Digest { ids } => {
                let missing: Vec<u64> =
                    ids.into_iter().filter(|&id| !self.seen.contains(id)).collect();
                if !missing.is_empty() {
                    ctx.send(from, PbcastMsg::Request { ids: missing });
                }
            }
            PbcastMsg::Request { ids } => {
                let items: Vec<(u64, u32)> =
                    self.buffer.iter().filter(|(id, _)| ids.contains(id)).copied().collect();
                if !items.is_empty() {
                    ctx.send(from, PbcastMsg::Retransmit { items });
                }
            }
            PbcastMsg::Retransmit { items } => {
                for (id, len) in items {
                    self.deliver(now, id, len);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, PbcastMsg>, _t: TimerId, tag: u64) {
        if tag != GOSSIP_TIMER {
            return;
        }
        if !self.buffer.is_empty() {
            let ids: Vec<u64> = self.buffer.iter().map(|&(id, _)| id).collect();
            let me = ctx.id();
            let mut peers: Vec<u32> =
                self.membership.iter().copied().filter(|&m| NodeId(m) != me).collect();
            peers.shuffle(ctx.rng());
            for &p in peers.iter().take(self.cfg.fanout) {
                ctx.send(NodeId(p), PbcastMsg::Digest { ids: ids.clone() });
            }
        }
        ctx.set_timer(self.cfg.gossip_interval, GOSSIP_TIMER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NetworkModel, Simulation};

    fn group(n: u32, drop: f64, seed: u64) -> Simulation<PbcastNode> {
        let mut net = NetworkModel::ideal(SimDuration::from_millis(15));
        net.drop_prob = drop;
        let mut sim = Simulation::new(net, seed);
        let membership: Vec<u32> = (0..n).collect();
        for _ in 0..n {
            sim.add_node(PbcastNode::new(membership.clone(), PbcastConfig::default()));
        }
        sim
    }

    fn delivered_count(sim: &Simulation<PbcastNode>, id: u64) -> usize {
        sim.iter().filter(|(_, n)| n.has_delivered(id)).count()
    }

    #[test]
    fn lossless_multicast_reaches_everyone_in_one_hop() {
        let mut sim = group(20, 0.0, 1);
        sim.schedule_external(
            SimTime::from_secs(1),
            NodeId(0),
            PbcastMsg::Publish { id: 7, len: 100 },
        );
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(delivered_count(&sim, 7), 20);
    }

    #[test]
    fn gossip_repairs_lossy_multicast() {
        let mut sim = group(30, 0.25, 2);
        sim.schedule_external(
            SimTime::from_secs(1),
            NodeId(0),
            PbcastMsg::Publish { id: 9, len: 50 },
        );
        // Shortly after the multicast some nodes are missing it…
        sim.run_until(SimTime::from_micros(1_200_000));
        let early = delivered_count(&sim, 9);
        // …but gossip rounds repair the gaps.
        sim.run_until(SimTime::from_secs(30));
        let late = delivered_count(&sim, 9);
        assert!(late >= early);
        assert_eq!(late, 30, "anti-entropy must complete delivery");
    }

    #[test]
    fn repair_keeps_a_multicast_stream_near_complete_under_heavy_loss() {
        // Sanity version of E8's headline: under 30% loss, gossip repair
        // concentrates every multicast's delivery fraction near 1.
        let n = 40u32;
        let mut sim = group(n, 0.3, 23);
        for m in 0..20u64 {
            sim.schedule_external(
                SimTime::from_secs(1 + m),
                NodeId((m % u64::from(n)) as u32),
                PbcastMsg::Publish { id: m, len: 64 },
            );
        }
        sim.run_until(SimTime::from_secs(60));
        for m in 0..20u64 {
            let frac = delivered_count(&sim, m) as f64 / f64::from(n);
            assert!(frac > 0.95, "msg {m} delivered to {frac}");
        }
    }

    #[test]
    fn buffered_repair_window_is_bounded() {
        let mut sim = group(4, 0.0, 3);
        // Publish far more than the buffer holds.
        for i in 0..200u64 {
            sim.schedule_external(
                SimTime::from_micros(1_000_000 + i * 1000),
                NodeId(0),
                PbcastMsg::Publish { id: i, len: 10 },
            );
        }
        sim.run_until(SimTime::from_secs(10));
        let n0 = sim.node(NodeId(0));
        assert!(n0.buffer.len() <= PbcastConfig::default().buffer);
        assert_eq!(n0.deliveries.len(), 200);
    }
}
