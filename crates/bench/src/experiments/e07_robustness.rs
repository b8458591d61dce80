//! E7 — redundant representatives vs forwarder failures.
//!
//! Paper basis (§9): "we use multiple representatives to forward a new
//! item, to increase the robustness of the delivery", with duplicates
//! removed via the publisher-assigned unique item id.
//!
//! We crash a growing fraction of nodes at the instant of publishing (the
//! worst case: the tree's tables still name the dead nodes as
//! representatives) and measure the delivery ratio among survivors for
//! k = 1, 2, 3 redundant representatives, plus the duplicate-suppression
//! work k costs. Cache repair, log reconciliation and acknowledged
//! hand-offs are *not* running here — this isolates the first-pass tree
//! robustness.

use std::collections::HashSet;

use rand::Rng;
use simnet::{fork, NodeId, SimDuration};

use crate::experiments::support::{tech_item, tree_only_deployment};
use crate::Table;

/// Returns (survivor delivery ratio %, duplicates per delivery).
fn run_point(n: u32, fail_pct: u32, k: usize, seed: u64) -> (f64, f64) {
    // Elect as many representatives per zone as the forwarding redundancy
    // uses, otherwise k > reps_per_zone silently degrades to the smaller.
    let mut d = tree_only_deployment(n, k, k, None, seed);
    d.settle(60);
    let t0 = d.sim.now();
    let mut victim_rng = fork(seed, 7);
    // Vec keeps the crash schedule in draw order (deterministic); the set
    // makes dedup and the survivor scan O(1) per probe instead of O(n).
    let mut victims: Vec<u32> = Vec::new();
    let mut victim_set: HashSet<u32> = HashSet::new();
    while (victims.len() as u32) < n * fail_pct / 100 {
        let v = victim_rng.gen_range(1..n); // node 0 stays (publisher)
        if victim_set.insert(v) {
            victims.push(v);
        }
    }
    for &v in &victims {
        d.sim.schedule_crash(t0, NodeId(v));
    }
    let items: Vec<_> = (0..5).map(tech_item).collect();
    for item in &items {
        d.publish(t0, item.clone());
    }
    d.sim.run_until(t0 + SimDuration::from_secs(15));
    let live: Vec<u32> = (1..n).filter(|i| !victim_set.contains(i)).collect();
    let mut delivered = 0u64;
    let mut dups = 0u64;
    for &i in &live {
        let node = d.sim.node(NodeId(i));
        delivered += items.iter().filter(|item| node.has_item(item.id)).count() as u64;
        dups += node.stats.duplicates;
    }
    let expected = (live.len() * items.len()) as u64;
    (100.0 * delivered as f64 / expected as f64, dups as f64 / delivered.max(1) as f64)
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 256 } else { 1_024 };
    let fails: &[u32] = if quick { &[0, 20] } else { &[0, 10, 20, 30, 40] };
    let mut table = Table::new(
        "E7 — survivor delivery ratio when forwarders crash at publish time",
        &["failed %", "k=1 %", "k=2 %", "k=3 %", "dup/delivery k=3"],
    );
    for &f in fails {
        let (r1, _) = run_point(n, f, 1, 0xE7);
        let (r2, _) = run_point(n, f, 2, 0xE7);
        let (r3, d3) = run_point(n, f, 3, 0xE7);
        table.row(&[
            f.to_string(),
            format!("{r1:.1}"),
            format!("{r2:.1}"),
            format!("{r3:.1}"),
            format!("{d3:.2}"),
        ]);
    }
    table.caption(format!(
        "{n} nodes, branching 8, 5 items published the instant the nodes die, no cache repair, \
         no reconciliation, no hand-off acks; paper: redundancy increases robustness, \
         duplicates removed by item id"
    ));
    table.print();
}
