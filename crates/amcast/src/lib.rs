//! # amcast — application-level multicast over Astrolabe
//!
//! The dissemination layer of the NewsWire reproduction (paper §5–§6, §9):
//!
//! * [`route`] — the recursive `SendToZone(zone, data)` computation over a
//!   node's replicated zone tables, with conditional forwarding gated by
//!   [`FilterSpec`] (Bloom positions or category masks).
//! * [`ForwardingQueues`] — per-child forwarding queues under pluggable
//!   disciplines ([`Strategy::Fifo`] / [`Strategy::WeightedRoundRobin`] /
//!   [`Strategy::Priority`]).
//! * [`DedupWindow`] / [`CoverageWindow`] — duplicate suppression for
//!   `k`-redundant representative forwarding.
//! * [`ForwardLog`] — the forwarding component's bounded operational log
//!   (§9: "each forwarding component maintains a log file").
//! * [`SeqLog`] — epoch/sequence-numbered per-source article logs whose
//!   fixed-size [`RangeSummary`] digests piggyback on gossip to drive
//!   anti-entropy hole detection after partitions.
//! * [`PbcastNode`] — Bimodal Multicast, the yardstick protocol of §5.
//!
//! The node that composes these with an Astrolabe agent is
//! `newswire::NewsWireNode`.
//!
//! # Example
//!
//! ```
//! use amcast::{route, Action, FilterSpec};
//! use astrolabe::{Agent, Config, ZoneId, ZoneLayout};
//! use simnet::{fork, SimTime};
//!
//! // Two agents share one leaf zone; three gossip rounds, each delivered
//! // until no message is left in flight, fill both tables.
//! let layout = ZoneLayout::new(2, 4);
//! let mut rng = fork(3, 0);
//! let mut agents = [
//!     Agent::new(0, &layout, Config::standard(), vec![1]),
//!     Agent::new(1, &layout, Config::standard(), vec![0]),
//! ];
//! for round in 1..=3 {
//!     let now = SimTime::from_secs(round);
//!     let mut inflight = Vec::new();
//!     for agent in agents.iter_mut() {
//!         let from = agent.id();
//!         inflight.extend(agent.on_tick(now, &mut rng).into_iter().map(|(to, m)| (from, to, m)));
//!     }
//!     while let Some((from, to, msg)) = inflight.pop() {
//!         let replies = agents[to as usize].on_message(now, from, msg, &mut rng);
//!         inflight.extend(replies.into_iter().map(|(next, m)| (to, next, m)));
//!     }
//! }
//! // SendToZone(root) from agent 0: deliver locally and hand the item to
//! // the other member of the leaf zone.
//! let actions = route(&agents[0], &FilterSpec::All, &ZoneId::root(), 1, &mut rng);
//! assert!(actions.contains(&Action::DeliverLocal));
//! assert!(actions.contains(&Action::Deliver { member: 1 }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bimodal;
mod dedup;
mod log;
mod mcast;
mod queues;
mod seqlog;

pub use bimodal::{PbcastConfig, PbcastMsg, PbcastNode};
pub use dedup::{CoverageWindow, DedupWindow};
pub use log::{ForwardEvent, ForwardLog, LogRecord};
pub use mcast::{route, zone_reps, Action, FilterSpec};
pub use queues::{ForwardingQueues, Queued, Strategy};
pub use seqlog::{BaselineHint, RangeSummary, SeqLog};

#[cfg(test)]
mod proptests {
    use super::Strategy as QStrategy;
    use super::{CoverageWindow, DedupWindow, ForwardingQueues, SeqLog};
    use proptest::prelude::*;

    proptest! {
        /// The dedup window admits each distinct id at most once while it
        /// remains within capacity.
        #[test]
        fn dedup_single_admission(ids in proptest::collection::vec(0u64..50, 1..100)) {
            let mut w = DedupWindow::new(1000);
            let mut first = std::collections::HashSet::new();
            for id in ids {
                prop_assert_eq!(w.insert(id), first.insert(id));
            }
        }

        /// Every queue discipline conserves items: n pushes then n pops,
        /// and never more.
        #[test]
        fn queues_conserve_items(
            entries in proptest::collection::vec((0u16..6, 0u64..1000, 1u8..9), 0..60),
            strat in prop_oneof![
                Just(QStrategy::Fifo),
                Just(QStrategy::WeightedRoundRobin),
                Just(QStrategy::Priority)
            ],
        ) {
            let mut q = ForwardingQueues::new(strat);
            for (i, (child, t, p)) in entries.iter().enumerate() {
                q.push(*child, *t, *p, i);
            }
            let mut popped: Vec<usize> =
                std::iter::from_fn(|| q.pop().map(|e| e.item)).collect();
            prop_assert_eq!(popped.len(), entries.len());
            popped.sort_unstable();
            prop_assert!(popped.iter().enumerate().all(|(i, &v)| i == v));
            prop_assert!(q.pop().is_none());
        }

        /// Priority discipline yields a non-decreasing priority sequence.
        #[test]
        fn priority_orders_by_urgency(
            entries in proptest::collection::vec((0u16..4, 1u8..9), 1..40),
        ) {
            let mut q = ForwardingQueues::new(QStrategy::Priority);
            for (i, (child, p)) in entries.iter().enumerate() {
                q.push(*child, i as u64, *p, ());
            }
            let ps: Vec<u8> = std::iter::from_fn(|| q.pop().map(|e| e.priority)).collect();
            prop_assert!(ps.windows(2).all(|w| w[0] <= w[1]), "{ps:?}");
        }

        /// SeqLog summaries stay arithmetically consistent under arbitrary
        /// insertion orders and capacities: the retained count plus the gap
        /// mass always equals the knowledge window, and gaps are sorted,
        /// disjoint, in-window ranges.
        #[test]
        fn seqlog_summary_accounts_for_window(
            seqs in proptest::collection::vec(0u64..200, 0..80),
            cap in 1usize..32,
        ) {
            let mut log = SeqLog::new(cap);
            for s in seqs {
                log.insert(s, ());
            }
            let summary = log.summary();
            prop_assert_eq!(summary.present, log.len() as u64);
            let gap_mass: u64 = log.gaps().iter().map(|(lo, hi)| hi - lo + 1).sum();
            prop_assert_eq!(summary.present + gap_mass, summary.next - summary.floor);
            let gaps = log.gaps();
            prop_assert!(gaps.iter().all(|(lo, hi)| lo <= hi && *lo >= summary.floor
                && *hi < summary.next));
            prop_assert!(gaps.windows(2).all(|w| w[0].1 + 1 < w[1].0));
            // A peer with our own summary offers exactly our gaps.
            prop_assert_eq!(log.missing_given(&summary), gaps);
        }

        /// Coverage admission is monotone: once admitted at depth d, all
        /// depths >= d are refused until a strictly wider duty arrives.
        #[test]
        fn coverage_monotone(depths in proptest::collection::vec(0usize..6, 1..40)) {
            let mut w = CoverageWindow::new(64);
            let mut best: Option<usize> = None;
            for d in depths {
                let expect = best.is_none_or(|b| d < b);
                prop_assert_eq!(w.admit(7, d), expect);
                if expect {
                    best = Some(d);
                }
            }
        }
    }
}
