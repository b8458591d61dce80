//! Integration tests: full Astrolabe deployments on the network simulator.

use astrolabe::{Agent, AstroNode, AttrValue, Config, ZoneLayout};
use simnet::{
    fork, LatencyModel, NetworkModel, NodeId, Partition, SimDuration, SimTime, Simulation,
};

fn build_sim(
    n: u32,
    branching: u16,
    net: NetworkModel,
    seed: u64,
) -> (Simulation<AstroNode>, ZoneLayout) {
    let layout = ZoneLayout::new(n, branching);
    let mut config = Config::standard();
    config.branching = branching;
    let mut contact_rng = fork(seed, 999);
    let mut sim = Simulation::new(net, seed);
    for i in 0..n {
        let contacts: Vec<u32> = (0..astrolabe::CONTACT_FANOUT)
            .map(|_| rand::Rng::gen_range(&mut contact_rng, 0..n))
            .collect();
        sim.add_node(AstroNode::new(Agent::new(i, &layout, config.clone(), contacts)));
    }
    (sim, layout)
}

fn root_members(sim: &Simulation<AstroNode>, node: u32) -> i64 {
    sim.node(NodeId(node))
        .agent
        .root_table()
        .iter()
        .filter_map(|(_, row)| row.get("nmembers").and_then(|v| v.as_i64()))
        .sum()
}

#[test]
fn three_level_tree_converges_within_tens_of_seconds() {
    // 100 nodes, branching 5 → leaf zones at depth 2 (5^3 = 125 ≥ 100).
    let (mut sim, _) = build_sim(100, 5, NetworkModel::default(), 11);
    sim.run_until(SimTime::from_secs(60));
    for probe in [0u32, 37, 99] {
        assert_eq!(root_members(&sim, probe), 100, "node {probe} root view");
    }
}

#[test]
fn converges_on_lossy_wan() {
    let regions: Vec<u32> = (0..60).map(|i| i / 15).collect();
    let net = NetworkModel::wan(regions, 0.05);
    let (mut sim, _) = build_sim(60, 4, net, 13);
    sim.run_until(SimTime::from_secs(90));
    assert_eq!(root_members(&sim, 5), 60);
    assert_eq!(root_members(&sim, 59), 60);
}

#[test]
fn crashed_nodes_vanish_from_membership() {
    let (mut sim, _) = build_sim(32, 4, NetworkModel::default(), 17);
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(root_members(&sim, 0), 32);
    // Crash four nodes in one zone; after the TTL their rows are evicted.
    for i in 8..12 {
        sim.schedule_crash(SimTime::from_secs(40), NodeId(i));
    }
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(root_members(&sim, 0), 28, "failed members must be forgotten");
}

#[test]
fn recovered_node_rejoins() {
    let (mut sim, _) = build_sim(16, 4, NetworkModel::default(), 19);
    sim.schedule_crash(SimTime::from_secs(30), NodeId(7));
    sim.schedule_recover(SimTime::from_secs(100), NodeId(7));
    sim.run_until(SimTime::from_secs(80));
    assert_eq!(root_members(&sim, 0), 15, "node 7 evicted while down");
    sim.run_until(SimTime::from_secs(160));
    assert_eq!(root_members(&sim, 0), 16, "node 7 back after recovery");
}

#[test]
fn partition_heals_eventually_consistent() {
    let (mut sim, _) = build_sim(24, 4, NetworkModel::default(), 23);
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(root_members(&sim, 0), 24);
    // Cut the network between the first 12 and the last 12 agents.
    sim.schedule_partition(SimTime::from_secs(40), Some(Partition::split_at(24, 12)));
    sim.run_until(SimTime::from_secs(120));
    let left = root_members(&sim, 0);
    let right = root_members(&sim, 23);
    assert!(left <= 12, "left side sees {left}");
    assert!(right <= 12, "right side sees {right}");
    // Heal; both sides converge back to the full view.
    sim.schedule_partition(SimTime::from_secs(120), None);
    sim.run_until(SimTime::from_secs(220));
    assert_eq!(root_members(&sim, 0), 24);
    assert_eq!(root_members(&sim, 23), 24);
}

#[test]
fn attribute_minimum_reaches_every_node() {
    let (mut sim, _) = build_sim(48, 4, NetworkModel::default(), 29);
    for i in 0..48 {
        sim.node_mut(NodeId(i)).agent.set_local_attr("load", 0.5 + f64::from(i) / 100.0);
    }
    sim.node_mut(NodeId(33)).agent.set_local_attr("load", 0.01);
    sim.run_until(SimTime::from_secs(60));
    for probe in [0u32, 20, 47] {
        let min: f64 = sim
            .node(NodeId(probe))
            .agent
            .root_table()
            .iter()
            .filter_map(|(_, r)| r.get("load").and_then(|v| v.as_f64()))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min, 0.01, "node {probe} sees global min load");
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let run = |seed: u64| {
        let (mut sim, _) = build_sim(20, 4, NetworkModel::default(), seed);
        sim.run_until(SimTime::from_secs(50));
        let snapshot: Vec<Vec<(u16, u64)>> = (0..20)
            .map(|i| {
                sim.node(NodeId(i))
                    .agent
                    .root_table()
                    .iter()
                    .map(|(l, r)| (l, r.stamp.issued_us))
                    .collect()
            })
            .collect();
        (snapshot, sim.total_counters().msgs_sent)
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5).1, run(6).1);
}

#[test]
fn gossip_traffic_per_node_stays_bounded() {
    let horizon = 60u64;
    let (mut sim, _) = build_sim(64, 8, NetworkModel::default(), 31);
    sim.run_until(SimTime::from_secs(horizon));
    let total = sim.total_counters();
    let per_node_per_sec = total.bytes_sent as f64 / 64.0 / horizon as f64;
    // Sanity bound: a few KB/s per node at this scale, not megabytes.
    assert!(per_node_per_sec < 50_000.0, "gossip costs {per_node_per_sec} B/s/node");
    assert!(per_node_per_sec > 10.0, "gossip suspiciously idle");
}

#[test]
fn mobile_code_installs_cluster_wide_on_simnet() {
    let (mut sim, _) = build_sim(20, 4, NetworkModel::default(), 37);
    // Multi-level idiom: the alias matches the source attribute, so the
    // program composes up the tree (leaf qmax -> zone qmax -> root qmax),
    // exactly like the core `MIN(load) AS load`.
    for i in 0..20 {
        sim.node_mut(NodeId(i)).agent.set_local_attr("qmax", i64::from(i) % 7);
    }
    sim.node_mut(NodeId(13)).agent.install_aggregation("q", "SELECT MAX(qmax) AS qmax");
    sim.run_until(SimTime::from_secs(80));
    for probe in [0u32, 9, 19] {
        let qmax = sim
            .node(NodeId(probe))
            .agent
            .root_table()
            .iter()
            .filter_map(|(_, r)| r.get("qmax").and_then(|v| v.as_i64()))
            .max();
        assert_eq!(qmax, Some(6), "node {probe} runs the installed program");
    }
}

#[test]
fn zoned_wan_latency_model_still_converges() {
    let regions: Vec<u32> = (0..40).map(|i| i / 10).collect();
    let net = NetworkModel {
        latency: LatencyModel::ZonedWan {
            region_of: regions,
            intra: (SimDuration::from_millis(2), SimDuration::from_millis(10)),
            inter: (SimDuration::from_millis(100), SimDuration::from_millis(300)),
        },
        drop_prob: 0.0,
        ..NetworkModel::default()
    };
    let (mut sim, _) = build_sim(40, 4, net, 41);
    sim.run_until(SimTime::from_secs(60));
    assert_eq!(root_members(&sim, 0), 40);
}

#[test]
fn reps_attribute_present_in_every_summary() {
    let (mut sim, _) = build_sim(30, 4, NetworkModel::default(), 43);
    sim.run_until(SimTime::from_secs(60));
    let agent = &sim.node(NodeId(4)).agent;
    for level in 1..agent.levels() {
        for (label, row) in agent.table(level).iter() {
            match row.get("reps") {
                Some(AttrValue::Set(s)) => {
                    assert!(!s.is_empty() && s.len() <= 2, "level {level} row {label}: {s:?}")
                }
                other => panic!("level {level} row {label} reps = {other:?}"),
            }
        }
    }
}

#[test]
fn dead_representative_is_replaced() {
    // §10's "node failure & automatic zone reconfiguration": when an
    // elected representative dies, the aggregation re-elects a live one
    // within the failure-detection horizon.
    let (mut sim, _) = build_sim(32, 4, NetworkModel::default(), 47);
    sim.run_until(SimTime::from_secs(50));
    // The representatives of zone /0 as seen at the root from node 16.
    let reps_of = |sim: &Simulation<AstroNode>, probe: u32| -> Vec<u64> {
        match sim.node(NodeId(probe)).agent.root_table().get(0).and_then(|r| r.get("reps")) {
            Some(AttrValue::Set(s)) => s.iter().copied().collect(),
            _ => Vec::new(),
        }
    };
    let before = reps_of(&sim, 16);
    assert!(!before.is_empty(), "zone /0 has representatives");
    let victim = before[0] as u32;
    sim.schedule_crash(SimTime::from_secs(50), NodeId(victim));
    sim.run_until(SimTime::from_secs(160));
    let after = reps_of(&sim, 16);
    assert!(!after.is_empty(), "zone /0 re-elected representatives");
    assert!(
        !after.contains(&u64::from(victim)),
        "dead node {victim} still listed as representative: {after:?}"
    );
    // And membership reflects the loss.
    assert_eq!(root_members(&sim, 16), 31);
}
