//! Declarative, seeded fault injection — the chaos engine.
//!
//! A [`FaultPlan`] describes *processes* of failure rather than individual
//! events: Poisson churn (crash/recover with configurable mean up/down dwell
//! times), gray brownouts over node sets, directed link cuts, and
//! network-wide duplication/reordering windows. Applying a plan expands it
//! into concrete engine events using randomness forked from the simulation's
//! master seed (mixed with the plan's `salt`), so the same `(seed, plan)`
//! pair always produces the same schedule — chaos runs are replayable
//! bit-for-bit.
//!
//! ```
//! use simnet::*;
//!
//! struct Quiet;
//! impl Node for Quiet {
//!     type Msg = ();
//!     fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {}
//!     fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _m: ()) {}
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _t: TimerId, _tag: u64) {}
//! }
//!
//! let mut sim = Simulation::new(NetworkModel::default(), 42);
//! for _ in 0..8 { sim.add_node(Quiet); }
//! let plan = FaultPlan {
//!     churn: vec![ChurnSpec {
//!         nodes: (1..8).map(NodeId).collect(),
//!         start: SimTime::from_secs(10),
//!         end: SimTime::from_secs(60),
//!         mean_up_secs: 20.0,
//!         mean_down_secs: 5.0,
//!         recover_at_end: true,
//!         restart: RestartMode::Freeze,
//!     }],
//!     ..FaultPlan::default()
//! };
//! sim.apply_fault_plan(&plan);
//! sim.run_until(SimTime::from_secs(70));
//! assert!((0..8).all(|i| !sim.is_down(NodeId(i))), "plan recovers everyone");
//! ```

use std::collections::BTreeSet;

use rand::Rng;

use crate::disk::RestartMode;
use crate::node::{CorruptionOp, LiarBehavior, Node, NodeId};
use crate::rng::{exp_sample, fork};
use crate::sim::Simulation;
use crate::time::{SimDuration, SimTime};
use crate::topology::{GrayProfile, Partition};

/// Stream tag mixed into the master seed for plan expansion, so the plan's
/// randomness never collides with node or network streams.
const PLAN_STREAM: u64 = 0xFA01_7A57_FA01_7A57;

/// A Poisson churn process over a set of nodes: each node independently
/// alternates exponential up-dwells and down-dwells within `[start, end)`.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Nodes subjected to churn.
    pub nodes: Vec<NodeId>,
    /// When the process starts.
    pub start: SimTime,
    /// When the process stops scheduling new transitions.
    pub end: SimTime,
    /// Mean time a node stays up before its next crash, in seconds.
    pub mean_up_secs: f64,
    /// Mean time a node stays down before recovering, in seconds.
    pub mean_down_secs: f64,
    /// Recover any node still down at `end` (so post-churn liveness checks
    /// see every churned node back up).
    pub recover_at_end: bool,
    /// What each recovery in this process restores: `Freeze` (legacy —
    /// volatile state survives), `ColdDurable` (rebuild from disk), or
    /// `ColdAmnesia` (rejoin from nothing). Applies to every recovery the
    /// process schedules, including the `recover_at_end` one.
    pub restart: RestartMode,
}

/// A gray brownout: the nodes degrade (but stay alive) for a window.
#[derive(Debug, Clone)]
pub struct GraySpec {
    /// Nodes degraded gray.
    pub nodes: Vec<NodeId>,
    /// When the brownout begins.
    pub start: SimTime,
    /// When it heals; `None` leaves the nodes gray forever.
    pub end: Option<SimTime>,
    /// The degradation applied.
    pub profile: GrayProfile,
}

/// A directed link cut for a window: `from → to` drops, `to → from` flows.
#[derive(Debug, Clone)]
pub struct LinkCutSpec {
    /// Sending side of the cut direction.
    pub from: NodeId,
    /// Receiving side of the cut direction.
    pub to: NodeId,
    /// When the cut begins.
    pub start: SimTime,
    /// When it heals; `None` leaves the link cut forever.
    pub end: Option<SimTime>,
}

/// A scheduled network partition with a heal point: the groups stop hearing
/// each other at `start` and the network is whole again at `heal`.
///
/// Unlike churn, a partition crashes nobody — both sides keep running, so
/// nodes on either side remain "continuously live" for the delivery oracle.
/// What the window creates is *divergence*: items published on one side
/// during `[start, heal)` are invisible to the other until anti-entropy
/// reconciliation closes the holes after the heal.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// The group assignment applied at `start`.
    pub partition: Partition,
    /// When the partition begins.
    pub start: SimTime,
    /// When the network heals (the partition is removed).
    pub heal: SimTime,
}

/// A window of network-wide message duplication and reordering.
#[derive(Debug, Clone)]
pub struct MessageChaosSpec {
    /// When the knobs engage.
    pub start: SimTime,
    /// When they reset to zero; `None` leaves them on forever.
    pub end: Option<SimTime>,
    /// Duplication probability during the window.
    pub dup_prob: f64,
    /// Reordering probability during the window.
    pub reorder_prob: f64,
    /// Maximum reordering jitter during the window.
    pub reorder_jitter: SimDuration,
}

/// A Poisson process of adversarial strikes over a set of nodes: within
/// `[start, end)`, each node is struck at exponentially distributed
/// intervals, each strike applying `op` to its live state (or its disk, for
/// [`CorruptionOp::DiskBytes`]). Every strike carries its own seed drawn
/// from the plan-expansion stream, so the schedule *and* the damage replay
/// bit-for-bit for a given `(seed, plan)` pair.
///
/// One spec covers every adversary the engine models — state corruption,
/// forgery ([`CorruptionOp::ForgeItems`]), a stolen signing key
/// ([`CorruptionOp::StolenKey`]), a Sybil burst
/// ([`CorruptionOp::SybilFlood`]) and a colluding epoch vote
/// ([`CorruptionOp::VoteEpoch`]). The two voting ops are *joint*: their
/// `epoch` field is ignored, and one fabricated epoch is drawn per spec from
/// the plan stream and asserted by every strike, so the group forms a
/// majority behind a history that never happened.
#[derive(Debug, Clone)]
pub struct StrikeSpec {
    /// Nodes subjected to strikes.
    pub nodes: Vec<NodeId>,
    /// When the strike window opens.
    pub start: SimTime,
    /// When it closes (no strikes at or after this time).
    pub end: SimTime,
    /// Mean seconds between strikes against one node.
    pub mean_interval_secs: f64,
    /// What each strike does.
    pub op: CorruptionOp,
    /// Marks the nodes as one colluding group for `[start, end)`: their
    /// strikes are also tallied as collusion strikes.
    pub colluding: bool,
}

/// A liar window: the nodes run their outbound traffic through the
/// protocol's `tamper_outbound` interceptor for the duration.
#[derive(Debug, Clone)]
pub struct LiarSpec {
    /// Nodes that lie.
    pub nodes: Vec<NodeId>,
    /// When the lying starts.
    pub start: SimTime,
    /// When it stops; `None` leaves the behavior installed forever.
    pub end: Option<SimTime>,
    /// What the lie does and how often.
    pub behavior: LiarBehavior,
    /// Marks the nodes as one colluding group for the window: their
    /// intercepts are tallied as collusion intercepts, not solo lies.
    pub colluding: bool,
}

/// A declarative, seeded schedule of faults.
///
/// Build one with struct-update syntax over [`FaultPlan::default`], then
/// apply it with [`Simulation::apply_fault_plan`] *before* running past the
/// earliest `start` in the plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Extra entropy mixed into the expansion stream, so two plans applied
    /// to the same simulation draw independent schedules.
    pub salt: u64,
    /// Churn processes.
    pub churn: Vec<ChurnSpec>,
    /// Gray brownouts.
    pub gray: Vec<GraySpec>,
    /// Directed link cuts.
    pub link_cuts: Vec<LinkCutSpec>,
    /// Scheduled partition/heal windows.
    pub partitions: Vec<PartitionSpec>,
    /// Duplication/reordering windows.
    pub message_chaos: Vec<MessageChaosSpec>,
    /// Adversarial strike processes, expanded in order.
    pub strikes: Vec<StrikeSpec>,
    /// Liar windows.
    pub liars: Vec<LiarSpec>,
}

impl FaultPlan {
    /// Every node any churn process may crash — the complement of the
    /// "continuously live" set the delivery-invariant oracle reasons about.
    pub fn churned_nodes(&self) -> BTreeSet<NodeId> {
        self.churn.iter().flat_map(|c| c.nodes.iter().copied()).collect()
    }

    /// Every node any strike process or liar window controls — the
    /// adversary's footholds, whose own state the oracle cannot hold to
    /// eventual delivery.
    pub fn adversary_nodes(&self) -> BTreeSet<NodeId> {
        let strikes = self.strikes.iter().flat_map(|s| s.nodes.iter());
        let liars = self.liars.iter().flat_map(|l| l.nodes.iter());
        strikes.chain(liars).copied().collect()
    }
}

impl<N: Node> Simulation<N> {
    /// Expands `plan` into concrete crash/recover/gray/link/knob events.
    ///
    /// Expansion randomness is forked from the simulation's master seed and
    /// the plan's `salt` only — it does not touch the node or network RNG
    /// streams, so applying a plan never perturbs the protocol's own
    /// randomness.
    ///
    /// # Panics
    ///
    /// Panics if any window in the plan starts in the simulated past, if a
    /// churn spec has a non-positive mean dwell, or if a strike spec has a
    /// non-positive mean interval.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let mut rng = fork(self.seed() ^ plan.salt, PLAN_STREAM);
        for spec in &plan.churn {
            let end = spec.end.since(SimTime::ZERO).as_secs_f64();
            for &node in &spec.nodes {
                let mut t = spec.start.since(SimTime::ZERO).as_secs_f64()
                    + exp_sample(&mut rng, spec.mean_up_secs);
                loop {
                    if t >= end {
                        break;
                    }
                    self.schedule_crash(at_secs(t), node);
                    let down_until = t + exp_sample(&mut rng, spec.mean_down_secs);
                    if down_until >= end {
                        if spec.recover_at_end {
                            self.schedule_restart(spec.end, node, spec.restart);
                        }
                        break;
                    }
                    self.schedule_restart(at_secs(down_until), node, spec.restart);
                    t = down_until + exp_sample(&mut rng, spec.mean_up_secs);
                }
            }
        }
        for spec in &plan.gray {
            for &node in &spec.nodes {
                self.schedule_gray(spec.start, node, Some(spec.profile));
                if let Some(end) = spec.end {
                    self.schedule_gray(end, node, None);
                }
            }
        }
        for spec in &plan.link_cuts {
            self.schedule_link_cut(spec.start, spec.from, spec.to);
            if let Some(end) = spec.end {
                self.schedule_link_heal(end, spec.from, spec.to);
            }
        }
        for spec in &plan.partitions {
            assert!(spec.start < spec.heal, "partition must heal after it starts");
            self.schedule_partition(spec.start, Some(spec.partition.clone()));
            self.schedule_partition(spec.heal, None);
        }
        for spec in &plan.message_chaos {
            self.schedule_dup_prob(spec.start, spec.dup_prob);
            self.schedule_reorder(spec.start, spec.reorder_prob, spec.reorder_jitter);
            if let Some(end) = spec.end {
                self.schedule_dup_prob(end, 0.0);
                self.schedule_reorder(end, 0.0, SimDuration::ZERO);
            }
        }
        for spec in &plan.strikes {
            assert!(spec.mean_interval_secs > 0.0, "strike spec needs a positive mean interval");
            if spec.colluding {
                assert!(spec.start < spec.end, "collusion window must end after it starts");
                for &node in &spec.nodes {
                    self.schedule_colluder(spec.start, node, true);
                    self.schedule_colluder(spec.end, node, false);
                }
            }
            // The joint vote: one fabricated epoch, drawn once per spec from
            // the plan stream, asserted by every strike. High enough that no
            // legitimate restart history reaches it.
            let op = match spec.op {
                CorruptionOp::VoteEpoch { publisher, .. } => {
                    CorruptionOp::VoteEpoch { publisher, epoch: 100 + rng.gen_range(0u32..64) }
                }
                CorruptionOp::SybilFlood { identities, publisher, .. } => {
                    let epoch = 100 + rng.gen_range(0u32..64);
                    CorruptionOp::SybilFlood { identities, publisher, epoch }
                }
                op => op,
            };
            let end = spec.end.since(SimTime::ZERO).as_secs_f64();
            for &node in &spec.nodes {
                let mut t = spec.start.since(SimTime::ZERO).as_secs_f64()
                    + exp_sample(&mut rng, spec.mean_interval_secs);
                while t < end {
                    let strike_seed: u64 = rng.gen();
                    self.schedule_corruption(at_secs(t), node, op, strike_seed);
                    t += exp_sample(&mut rng, spec.mean_interval_secs);
                }
            }
        }
        for spec in &plan.liars {
            if let Some(end) = spec.end {
                assert!(spec.start < end, "liar window must end after it starts");
            }
            for &node in &spec.nodes {
                self.schedule_liar(spec.start, node, Some(spec.behavior));
                if let Some(end) = spec.end {
                    self.schedule_liar(end, node, None);
                }
                if spec.colluding {
                    self.schedule_colluder(spec.start, node, true);
                    if let Some(end) = spec.end {
                        self.schedule_colluder(end, node, false);
                    }
                }
            }
        }
    }
}

fn at_secs(secs: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TimerId;
    use crate::node::{Context, LiarAction, LiarMode};
    use crate::topology::NetworkModel;
    use rand::rngs::SmallRng;

    struct Echo {
        seen: u32,
    }
    impl Node for Echo {
        type Msg = ();
        fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {}
        fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _m: ()) {
            self.seen += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, ()>, _t: TimerId, _tag: u64) {}
    }

    /// A chatty node that records exactly what the adversary did to it:
    /// every corruption draw, every tampered byte it received.
    struct Chatty {
        peer: NodeId,
        draws: Vec<u64>,
        got: Vec<u8>,
    }
    impl Node for Chatty {
        type Msg = Vec<u8>;
        fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Vec<u8>>, _from: NodeId, m: Vec<u8>) {
            self.got.push(m[0]);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Vec<u8>>, _t: TimerId, _tag: u64) {
            ctx.send(self.peer, vec![7]);
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn apply_corruption(&mut self, op: &CorruptionOp, rng: &mut SmallRng) -> u64 {
            match op {
                CorruptionOp::ZoneRows { rows } => {
                    for _ in 0..*rows {
                        self.draws.push(rng.gen());
                    }
                    u64::from(*rows)
                }
                CorruptionOp::ForgeItems { items, .. } => {
                    for _ in 0..*items {
                        self.draws.push(rng.gen());
                    }
                    u64::from(*items)
                }
                CorruptionOp::VoteEpoch { epoch, .. } => {
                    self.draws.push(u64::from(*epoch));
                    1
                }
                CorruptionOp::StolenKey { items, .. } => {
                    for _ in 0..*items {
                        self.draws.push(rng.gen());
                    }
                    u64::from(*items)
                }
                CorruptionOp::SybilFlood { identities, epoch, .. } => {
                    for _ in 0..*identities {
                        self.draws.push(u64::from(*epoch));
                    }
                    u64::from(*identities)
                }
                _ => 0,
            }
        }
        fn tamper_outbound(
            &mut self,
            to: NodeId,
            msg: &mut Vec<u8>,
            mode: LiarMode,
            rng: &mut SmallRng,
        ) -> LiarAction {
            match mode {
                LiarMode::MisSummarize => {
                    msg[0] = rng.gen();
                    LiarAction::Tampered
                }
                LiarMode::SelectiveDrop => LiarAction::Dropped,
                LiarMode::StaleDigest => LiarAction::Pass,
                LiarMode::SplitBrain => {
                    msg[0] = if to.0.is_multiple_of(2) { 101 } else { 102 };
                    LiarAction::Tampered
                }
            }
        }
    }

    fn chatty_pair(seed: u64, plan: &FaultPlan) -> Simulation<Chatty> {
        let mut sim = Simulation::new(NetworkModel::default(), seed);
        let a = sim.add_node(Chatty { peer: NodeId(1), draws: Vec::new(), got: Vec::new() });
        let b = sim.add_node(Chatty { peer: NodeId(0), draws: Vec::new(), got: Vec::new() });
        assert_eq!((a, b), (NodeId(0), NodeId(1)));
        sim.apply_fault_plan(plan);
        sim.run_until(SimTime::from_secs(40));
        sim
    }

    #[test]
    fn corruption_spec_schedule_is_seed_deterministic() {
        let plan = FaultPlan {
            salt: 0xBAD,
            strikes: vec![StrikeSpec {
                nodes: vec![NodeId(0), NodeId(1)],
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(30),
                mean_interval_secs: 4.0,
                op: CorruptionOp::ZoneRows { rows: 3 },
                colluding: false,
            }],
            ..FaultPlan::default()
        };
        let s1 = chatty_pair(11, &plan);
        let s2 = chatty_pair(11, &plan);
        let f1 = s1.fault_counters();
        assert!(f1.state_corruptions > 0, "the window must actually strike");
        assert_eq!(f1, s2.fault_counters(), "same seed ⇒ identical fault counters");
        for n in [NodeId(0), NodeId(1)] {
            assert_eq!(
                s1.node(n).draws,
                s2.node(n).draws,
                "same seed ⇒ identical corruption draws on {n}"
            );
        }
        assert!(!s1.node(NodeId(0)).draws.is_empty() || !s1.node(NodeId(1)).draws.is_empty());
        // A different salt draws a different schedule.
        let s3 = chatty_pair(11, &FaultPlan { salt: 0xF00D, ..plan.clone() });
        assert_ne!(
            (s1.node(NodeId(0)).draws.clone(), s1.node(NodeId(1)).draws.clone()),
            (s3.node(NodeId(0)).draws.clone(), s3.node(NodeId(1)).draws.clone()),
            "salt must re-randomize the schedule"
        );
    }

    #[test]
    fn liar_spec_windows_and_determinism() {
        let plan = FaultPlan {
            salt: 0x11A2,
            liars: vec![LiarSpec {
                nodes: vec![NodeId(0)],
                start: SimTime::from_secs(5),
                end: Some(SimTime::from_secs(20)),
                behavior: LiarBehavior { mode: LiarMode::SelectiveDrop, prob: 1.0 },
                colluding: false,
            }],
            ..FaultPlan::default()
        };
        let s1 = chatty_pair(13, &plan);
        let s2 = chatty_pair(13, &plan);
        let f1 = s1.fault_counters();
        assert!(f1.liar_intercepts > 0, "the liar must intercept inside its window");
        assert_eq!(f1, s2.fault_counters(), "same seed ⇒ identical intercepts");
        assert_eq!(s1.node(NodeId(1)).got, s2.node(NodeId(1)).got);
        // Messages sent outside the window still flow: ~39 ticks minus the
        // 15-second drop window must leave plenty delivered.
        assert!(!s1.node(NodeId(1)).got.is_empty(), "traffic outside the liar window must survive");
        // Tampering (as opposed to dropping) rewrites payloads in place.
        let tamper_plan = FaultPlan {
            salt: 0x11A2,
            liars: vec![LiarSpec {
                nodes: vec![NodeId(0)],
                start: SimTime::from_secs(5),
                end: None,
                behavior: LiarBehavior { mode: LiarMode::MisSummarize, prob: 1.0 },
                colluding: false,
            }],
            ..FaultPlan::default()
        };
        let s4 = chatty_pair(13, &tamper_plan);
        assert!(
            s4.node(NodeId(1)).got.iter().any(|&b| b != 7),
            "a mis-summarizing liar must corrupt payloads on the wire"
        );
        assert_eq!(
            s4.fault_counters().liar_intercepts,
            chatty_pair(13, &tamper_plan).fault_counters().liar_intercepts
        );
    }

    #[test]
    fn inert_adversary_layer_draws_nothing() {
        // A plan with no corruption or liars must leave the run identical
        // to one never touched by the adversary machinery at all.
        let empty = FaultPlan::default();
        let s1 = chatty_pair(17, &empty);
        let mut s2 = Simulation::new(NetworkModel::default(), 17);
        s2.add_node(Chatty { peer: NodeId(1), draws: Vec::new(), got: Vec::new() });
        s2.add_node(Chatty { peer: NodeId(0), draws: Vec::new(), got: Vec::new() });
        s2.run_until(SimTime::from_secs(40));
        assert_eq!(s1.node(NodeId(1)).got, s2.node(NodeId(1)).got);
        assert_eq!(s1.fault_counters().state_corruptions, 0);
        assert_eq!(s1.fault_counters().liar_intercepts, 0);
        assert_eq!(s1.fault_counters().collusion_strikes, 0);
        assert_eq!(s1.fault_counters().collusion_intercepts, 0);
        assert_eq!(s1.fault_counters().forged_items_injected, 0);
        assert_eq!(s1.fault_counters().key_compromise_strikes, 0);
        assert_eq!(s1.fault_counters().sybil_joins_attempted, 0);
    }

    #[test]
    fn collusion_epoch_capture_is_seed_deterministic() {
        let plan = FaultPlan {
            salt: 0xC0117,
            strikes: vec![StrikeSpec {
                nodes: vec![NodeId(0), NodeId(1)],
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(30),
                mean_interval_secs: 5.0,
                op: CorruptionOp::VoteEpoch { publisher: 0, epoch: 0 },
                colluding: true,
            }],
            ..FaultPlan::default()
        };
        let s1 = chatty_pair(21, &plan);
        let s2 = chatty_pair(21, &plan);
        let f1 = s1.fault_counters();
        assert!(f1.collusion_strikes > 0, "the script must actually strike");
        assert_eq!(
            f1.state_corruptions, f1.collusion_strikes,
            "colluder strikes are also state corruptions"
        );
        assert_eq!(f1, s2.fault_counters(), "same seed ⇒ identical strike counters");
        // The vote is *joint*: both members assert the identical fabricated
        // epoch, every strike.
        let all: Vec<u64> = s1
            .node(NodeId(0))
            .draws
            .iter()
            .chain(s1.node(NodeId(1)).draws.iter())
            .copied()
            .collect();
        assert!(!all.is_empty());
        assert!(all.iter().all(|&e| e == all[0]), "colluders must vote the same epoch");
        assert!(all[0] >= 100, "the fabricated epoch sits above any legitimate history");
        assert_eq!(s1.node(NodeId(0)).draws, s2.node(NodeId(0)).draws);
        // A different salt draws a different schedule (and usually epoch).
        let s3 = chatty_pair(21, &FaultPlan { salt: 0xD00D, ..plan.clone() });
        assert_ne!(
            (s1.node(NodeId(0)).draws.clone(), s1.fault_counters().collusion_strikes),
            (s3.node(NodeId(0)).draws.clone(), s3.fault_counters().collusion_strikes),
            "salt must re-randomize the script"
        );
    }

    #[test]
    fn collusion_split_brain_lies_by_destination() {
        let plan = FaultPlan {
            salt: 0x5B,
            liars: vec![LiarSpec {
                nodes: vec![NodeId(0)],
                start: SimTime::from_secs(2),
                end: Some(SimTime::from_secs(30)),
                behavior: LiarBehavior { mode: LiarMode::SplitBrain, prob: 1.0 },
                colluding: true,
            }],
            ..FaultPlan::default()
        };
        let s1 = chatty_pair(23, &plan);
        let f1 = s1.fault_counters();
        assert!(f1.collusion_intercepts > 0, "the colluder must intercept");
        assert_eq!(f1.liar_intercepts, 0, "colluder intercepts are tallied separately");
        // Node 1 is an odd destination: it sees the odd-half story only.
        assert!(s1.node(NodeId(1)).got.contains(&102));
        assert!(s1.node(NodeId(1)).got.iter().all(|&b| b != 101));
        assert_eq!(s1.fault_counters(), chatty_pair(23, &plan).fault_counters());
    }

    #[test]
    fn forge_spec_schedule_is_seed_deterministic() {
        let plan = FaultPlan {
            salt: 0xF06E,
            strikes: vec![StrikeSpec {
                nodes: vec![NodeId(1)],
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(35),
                mean_interval_secs: 6.0,
                op: CorruptionOp::ForgeItems { items: 2, publisher: 0 },
                colluding: false,
            }],
            ..FaultPlan::default()
        };
        let s1 = chatty_pair(29, &plan);
        let s2 = chatty_pair(29, &plan);
        let f1 = s1.fault_counters();
        assert!(f1.forged_items_injected > 0, "forgery must actually inject");
        assert_eq!(f1.collusion_strikes, 0, "a lone forger is not a collusion");
        assert_eq!(f1, s2.fault_counters(), "same seed ⇒ identical forge counters");
        assert_eq!(s1.node(NodeId(1)).draws, s2.node(NodeId(1)).draws);
        assert_eq!(
            f1.forged_items_injected,
            s1.node(NodeId(1)).draws.len() as u64,
            "every fabricated item was drawn from the strike stream"
        );
    }

    #[test]
    fn key_compromise_spec_schedule_is_seed_deterministic() {
        let plan = FaultPlan {
            salt: 0x5701E,
            strikes: vec![StrikeSpec {
                nodes: vec![NodeId(1)],
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(35),
                mean_interval_secs: 6.0,
                op: CorruptionOp::StolenKey { publisher: 0, items: 2, attest_bump: 3 },
                colluding: false,
            }],
            ..FaultPlan::default()
        };
        let s1 = chatty_pair(31, &plan);
        let s2 = chatty_pair(31, &plan);
        let f1 = s1.fault_counters();
        assert!(f1.key_compromise_strikes > 0, "the stolen key must actually strike");
        assert_eq!(f1.forged_items_injected, 0, "stolen-key forgeries are tallied separately");
        assert_eq!(f1, s2.fault_counters(), "same seed ⇒ identical strike counters");
        assert_eq!(s1.node(NodeId(1)).draws, s2.node(NodeId(1)).draws);
        assert_eq!(
            s1.node(NodeId(1)).draws.len() as u64,
            f1.key_compromise_strikes * 2,
            "every strike fabricates items_per_strike items"
        );
        // A different salt draws a different schedule.
        let s3 = chatty_pair(31, &FaultPlan { salt: 0xD1FF, ..plan.clone() });
        assert_ne!(s1.node(NodeId(1)).draws, s3.node(NodeId(1)).draws);
    }

    #[test]
    fn sybil_spec_votes_one_epoch_and_replays() {
        let plan = FaultPlan {
            salt: 0x5B11,
            strikes: vec![StrikeSpec {
                nodes: vec![NodeId(0), NodeId(1)],
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(30),
                mean_interval_secs: 5.0,
                op: CorruptionOp::SybilFlood { identities: 4, publisher: 0, epoch: 0 },
                colluding: false,
            }],
            ..FaultPlan::default()
        };
        let s1 = chatty_pair(37, &plan);
        let s2 = chatty_pair(37, &plan);
        let f1 = s1.fault_counters();
        assert!(f1.sybil_joins_attempted > 0, "the burst must actually inject");
        assert_eq!(f1, s2.fault_counters(), "same seed ⇒ identical injection counters");
        // The Sybils vote *jointly*: every fabricated identity across every
        // striker claims the identical epoch, drawn once per spec.
        let all: Vec<u64> = s1
            .node(NodeId(0))
            .draws
            .iter()
            .chain(s1.node(NodeId(1)).draws.iter())
            .copied()
            .collect();
        assert_eq!(all.len() as u64, f1.sybil_joins_attempted);
        assert!(all.iter().all(|&e| e == all[0]), "sybils must vote the same epoch");
        assert!((100..164).contains(&(all[0] as u32)));
    }

    #[test]
    fn partition_spec_starts_and_heals() {
        let mut sim = Simulation::new(NetworkModel::default(), 9);
        let a = sim.add_node(Echo { seen: 0 });
        let b = sim.add_node(Echo { seen: 0 });
        let plan = FaultPlan {
            partitions: vec![PartitionSpec {
                partition: Partition::split_at(2, 1),
                start: SimTime::from_secs(10),
                heal: SimTime::from_secs(20),
            }],
            ..FaultPlan::default()
        };
        sim.apply_fault_plan(&plan);
        sim.schedule_external(SimTime::from_secs(12), a, ());
        sim.schedule_external(SimTime::from_secs(25), b, ());
        sim.run_until(SimTime::from_secs(30));
        let f = sim.fault_counters();
        assert_eq!(f.partitions_started, 1);
        assert_eq!(f.partitions_healed, 1);
        assert_eq!(sim.node(a).seen + sim.node(b).seen, 2, "external inputs still land");
    }

    #[test]
    #[should_panic(expected = "heal after it starts")]
    fn partition_spec_rejects_inverted_window() {
        let mut sim: Simulation<Echo> = Simulation::new(NetworkModel::default(), 9);
        let plan = FaultPlan {
            partitions: vec![PartitionSpec {
                partition: Partition::split_at(2, 1),
                start: SimTime::from_secs(20),
                heal: SimTime::from_secs(10),
            }],
            ..FaultPlan::default()
        };
        sim.apply_fault_plan(&plan);
    }
}
