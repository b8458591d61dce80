//! E12 — per-node gossip cost vs system size.
//!
//! Paper basis (§3): Astrolabe is "scalable, through the use of information
//! aggregation and fusion" — each agent holds and gossips only the tables
//! on its root path (≈ 64·log₆₄ N rows), so the per-node cost must grow
//! logarithmically with the system, not linearly.
//!
//! We run converged deployments of growing size and measure steady-state
//! bytes and messages per node per second, plus the replicated state held.

use astrolabe::{Agent, AstroNode, Config, ZoneLayout};
use rand::Rng;
use simnet::{fork, NetworkModel, NodeId, SimDuration, Simulation};

use crate::experiments::support::dump_telemetry;
use crate::Table;

fn measure(n: u32, branching: u16, seed: u64) -> (usize, f64, f64, usize) {
    let layout = ZoneLayout::new(n, branching);
    let mut config = Config::standard();
    config.branching = branching;
    let mut contact_rng = fork(seed, 99);
    let mut sim = Simulation::new(NetworkModel::default(), seed);
    for i in 0..n {
        let contacts: Vec<u32> = (0..3).map(|_| contact_rng.gen_range(0..n)).collect();
        sim.add_node(AstroNode::new(Agent::new(i, &layout, config.clone(), contacts)));
    }
    // Converge, then measure a steady-state window.
    sim.run_for(SimDuration::from_secs(60));
    let before = sim.total_counters();
    let window = 60u64;
    sim.run_for(SimDuration::from_secs(window));
    let after = sim.total_counters();
    let bytes_per_node_s =
        (after.bytes_sent - before.bytes_sent) as f64 / f64::from(n) / window as f64;
    let msgs_per_node_s =
        (after.msgs_sent - before.msgs_sent) as f64 / f64::from(n) / window as f64;
    // Replicated-state column from the telemetry registry's rows-held
    // high-water mark when instrumentation is on (nothing churns here, so
    // the tables only grow; 0 means "never set": fall back to walking the
    // agent's tables, which is also the obs-off path).
    let rows_held: usize = {
        let from_registry = {
            let hub = sim.telemetry();
            let g = hub.borrow().node_gauge((n / 2) as usize, obs::gauge::ASTRO_ROWS_HELD);
            g as usize
        };
        if from_registry > 0 {
            from_registry
        } else {
            let a = &sim.node(NodeId(n / 2)).agent;
            (0..a.levels()).map(|l| a.table(l).len()).sum()
        }
    };
    dump_telemetry(&format!("e12_n{n}"), &mut sim);
    (layout.levels() + 1, bytes_per_node_s, msgs_per_node_s, rows_held)
}

pub(crate) fn run(quick: bool) {
    let sizes: &[u32] = if quick { &[64, 512] } else { &[64, 512, 4_096, 16_384] };
    let branching = 16;
    let mut table = Table::new(
        "E12 — steady-state gossip cost per node (branching 16, gossip every 2 s)",
        &["agents", "levels", "bytes/node/s", "msgs/node/s", "rows held/node"],
    );
    for &n in sizes {
        let (levels, bytes, msgs, rows) = measure(n, branching, 0xE12);
        table.row(&[
            n.to_string(),
            levels.to_string(),
            format!("{bytes:.0}"),
            format!("{msgs:.1}"),
            rows.to_string(),
        ]);
    }
    table.caption(
        "paper: aggregation keeps the per-node burden bounded as the system grows; \
         shape: cost grows with tree depth (log N), not with N — 256x more agents \
         should cost only ~2x per node",
    );
    table.print();
}
