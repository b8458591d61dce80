//! A breaking-news day with an adversary in the house: while a flash
//! crowd of stories crests and subscribers churn their subscriptions,
//! three kinds of state corruption hit mid-run — scrambled zone-table
//! replicas with zeroed subscription advertisements, article logs poisoned
//! with fabricated epochs and phantom coverage, and two representatives
//! that lie (mis-aggregating every summary they gossip).
//!
//! The defenses (gossip-ingest validation, the periodic self-audit, the
//! consensus epoch fence) are on by default. After the corruption windows
//! close, the self-stabilization oracle steps the system round by round
//! and rules: every invariant restored, bounded rounds, no scar.
//!
//! Run with: `cargo run --release --example adversary_day [seed]`

use std::collections::BTreeSet;

use baselines::{FlashCrowdSpec, SubscriptionChurnSpec};
use newswire::{self_stabilized, tech_news_deployment, Subscription};
use simnet::{
    CorruptionOp, FaultPlan, LiarBehavior, LiarMode, LiarSpec, NodeId, SimDuration, SimTime,
    StrikeSpec,
};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0xAD5);
    let subscribers = 96u32;
    let mut d = tech_news_deployment(subscribers, seed);
    println!(
        "adversary day: {subscribers} subscribers, 2 publishers, seed {seed:#x}; \
         defenses on; letting gossip converge…"
    );
    d.settle(90);

    // The attack, declared up front: two corruption campaigns and a pair
    // of liars, all inside a 120 s–240 s window. Publishers (nodes 0 and
    // 1) are spared so ground truth stays intact.
    let (start, end) = (SimTime::from_secs(120), SimTime::from_secs(240));
    let plan = FaultPlan {
        salt: 0xAD5,
        strikes: vec![
            StrikeSpec {
                nodes: vec![NodeId(5), NodeId(29), NodeId(53)],
                start,
                end,
                mean_interval_secs: 8.0,
                op: CorruptionOp::ZoneRows { rows: 3 },
                colluding: false,
            },
            StrikeSpec {
                nodes: vec![NodeId(11), NodeId(41)],
                start,
                end,
                mean_interval_secs: 12.0,
                op: CorruptionOp::LogEpoch { entries: 4 },
                colluding: false,
            },
        ],
        liars: vec![LiarSpec {
            nodes: vec![NodeId(17), NodeId(65)],
            start,
            end: Some(end),
            behavior: LiarBehavior { mode: LiarMode::MisSummarize, prob: 1.0 },
            colluding: false,
        }],
        ..FaultPlan::default()
    };
    d.sim.apply_fault_plan(&plan);
    println!(
        "incident: 3 nodes zone-row-scrambled, 2 logs epoch-poisoned, 2 liars \
         mis-aggregating, all 120 s–240 s"
    );

    // The workload does not yield to the attack. A flash crowd of 24
    // stories crests inside the corruption window…
    let burst = FlashCrowdSpec::breaking_news(SimTime::from_secs(100));
    let items: Vec<_> = (0..u64::from(burst.items))
        .map(|s| {
            newsml::NewsItem::builder(newsml::PublisherId(0), s)
                .headline(format!("flash {s}")) // distinct slugs: no revision fusion
                .category(newsml::Category::Technology)
                .body_len(900)
                .build()
        })
        .collect();
    for (at, item) in burst.schedule().into_iter().zip(items.iter()) {
        d.publish(at, item.clone());
    }
    // …while a dozen subscribers churn their subscriptions out and back.
    let churn =
        SubscriptionChurnSpec::sustained(SimTime::from_secs(130), SimTime::from_secs(230), 12);
    let originals: Vec<Subscription> =
        (0..12).map(|s| d.sim.node(NodeId(2 + s)).subscription.clone()).collect();
    let mut exempt: BTreeSet<NodeId> = BTreeSet::new();
    for flip in churn.schedule() {
        let node = NodeId(2 + flip.subscriber);
        d.sim.run_until(flip.at);
        let sub = if flip.subscribe {
            originals[flip.subscriber as usize].clone()
        } else {
            Subscription::new()
        };
        d.sim.node_mut(node).set_subscription(sub);
        exempt.insert(node);
    }

    // Ride out the burst and the corruption window.
    let deadline = burst.last_publish().max(end) + SimDuration::from_secs(30);
    d.sim.run_until(deadline);

    let faults = d.sim.fault_counters();
    println!(
        "engine: {} corruption strikes landed, {} liar messages intercepted",
        faults.state_corruptions, faults.liar_intercepts
    );
    assert!(faults.state_corruptions > 0, "the adversary must actually strike");
    assert!(faults.liar_intercepts > 0, "the liars must actually lie");

    // The verdict: all invariants restored within a bounded number of
    // gossip rounds after the windows closed.
    let verdict = self_stabilized(&mut d, &items, &exempt, 60);
    print!("{verdict}");
    assert!(verdict.stabilized, "defenses-on run must self-stabilize within budget");

    if obs::ENABLED {
        let hub = d.sim.telemetry();
        let hub = hub.borrow();
        println!(
            "telemetry: {} corrupt rows rejected at ingest, {} self-audit repairs, \
             {} stabilization runs recorded",
            hub.counter_total(obs::ctr::CORRUPT_ROWS_REJECTED),
            hub.counter_total(obs::ctr::SELF_AUDIT_REPAIRS),
            hub.global().ctr(obs::ctr::ORACLE_STABILIZATION_RUNS),
        );
        assert!(
            hub.counter_total(obs::ctr::CORRUPT_ROWS_REJECTED)
                + hub.counter_total(obs::ctr::SELF_AUDIT_REPAIRS)
                > 0,
            "the defenses must have done visible work"
        );
    }
    println!("ok");
}
