//! E18 — Byzantine zones: colluding adversaries, forged content, and the
//! signed-authority defenses, swept over collusion size × script × defenses.
//!
//! Paper basis (§8): the security section prescribes publisher signatures
//! and certificates but measures nothing adversarial — E17 covered *state*
//! going bad on otherwise-honest nodes; this sweep covers nodes that are
//! actively hostile and *coordinated*. Three collusion scripts (a joint
//! epoch-capture vote, a coordinated route partition, split-brain lying)
//! plus a forgery clique fabricating items under bogus signatures, each at
//! growing group sizes, each with the defense stack (end-to-end signature
//! verification on every admission path, the publisher-signed epoch fence,
//! misbehavior quarantine) on and ablated off.
//!
//! The headline asymmetry the nightly gate pins: every defenses-on cell
//! delivers zero forged items and stabilizes, while defenses-off forge
//! cells admit forgeries into honest applications (a permanent-harm verdict
//! — a forged delivery can never be un-delivered, so those cells never
//! stabilize) and defenses-off epoch-capture cells wipe honest logs by
//! reconciliation contagion. The per-script collusion breaking point — the
//! smallest colluding fraction whose ablated cell fails — comes from
//! [`collusion_breaking_point`] over the sweep's own samples.

use std::collections::BTreeSet;

use newswire::{collusion_breaking_point, self_stabilized, NewsWireConfig};
use simnet::{
    CorruptionOp, FaultPlan, LiarBehavior, LiarMode, LiarSpec, NodeId, SimTime, StrikeSpec,
};

use crate::experiments::support::{dump_telemetry, tech_item};
use crate::Table;

/// The adversary axis: the three collusion scripts plus a forgery clique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Script {
    EpochCapture,
    RoutePartition,
    SplitBrain,
    Forge,
}

impl Script {
    const ALL: [Script; 4] =
        [Script::EpochCapture, Script::RoutePartition, Script::SplitBrain, Script::Forge];

    fn label(self) -> &'static str {
        match self {
            Script::EpochCapture => "epoch-capture",
            Script::RoutePartition => "route-partition",
            Script::SplitBrain => "split-brain",
            Script::Forge => "forge",
        }
    }
}

/// Colluding-group sizes swept per script.
const SIZES: [u32; 3] = [2, 5, 7];
/// The Byzantine window every arm shares.
const WINDOW: (u64, u64) = (100, 160);
/// Gossip rounds the oracle allows after the window (2 s each = 3 min).
const ROUND_BUDGET: u32 = 90;

struct Point {
    strikes: u64,
    intercepts: u64,
    injected: u64,
    forged_delivered: usize,
    forged_rejects: u64,
    quarantines: u64,
    refusals: u64,
    stabilized: bool,
    rounds_used: u32,
    delivery_pct: f64,
}

/// One cell: `size` adjacent mid-tree subscribers bound to `script` through
/// the shared window, judged afterwards by the self-stabilization oracle
/// (which now folds in the forged-delivery safety verdict).
fn run_point(n: u32, script: Script, size: u32, defenses: bool, seed: u64) -> Point {
    let mut config = NewsWireConfig::tech_news();
    config.defenses = defenses;
    let mut d = newswire::DeploymentBuilder::new(n, seed)
        .branching(8)
        .config(config)
        .publisher(newswire::PublisherSpec::global(newsml::PublisherProfile::slashdot(
            newsml::PublisherId(0),
        )))
        .cats_per_subscriber(2)
        .build();
    d.settle(60);

    // The group: adjacent subscriber ids, so the colluders share leaf zones
    // (the paper's Byzantine-zone scenario — a captured neighborhood, not
    // scattered individuals). The publisher at node 0 is spared.
    let group: Vec<NodeId> = (0..size).map(|k| NodeId(2 + k)).collect();
    let (start, end) = (SimTime::from_secs(WINDOW.0), SimTime::from_secs(WINDOW.1));
    let mut plan = FaultPlan { salt: seed ^ 0xE18, ..FaultPlan::default() };
    let strike = |mean_interval_secs, op, colluding| StrikeSpec {
        nodes: group.clone(),
        start,
        end,
        mean_interval_secs,
        op,
        colluding,
    };
    let liar = |mode| LiarSpec {
        nodes: group.clone(),
        start,
        end: Some(end),
        behavior: LiarBehavior { mode, prob: 1.0 },
        colluding: true,
    };
    match script {
        Script::Forge => plan.strikes.push(strike(
            8.0,
            CorruptionOp::ForgeItems { items: 3, publisher: 0 },
            false,
        )),
        Script::EpochCapture => {
            plan.strikes.push(strike(6.0, CorruptionOp::VoteEpoch { publisher: 0, epoch: 0 }, true))
        }
        Script::RoutePartition => plan.liars.push(liar(LiarMode::SelectiveDrop)),
        Script::SplitBrain => plan.liars.push(liar(LiarMode::SplitBrain)),
    }
    d.sim.apply_fault_plan(&plan);

    // The workload: a steady 24-item drumbeat crossing the whole window,
    // so both early (pre-strike) and late (mid-capture) items exist.
    let items: Vec<_> = (0..24u64).map(tech_item).collect();
    for (i, item) in items.iter().enumerate() {
        d.publish(SimTime::from_secs(65 + 4 * i as u64), item.clone());
    }
    d.sim.run_until(end + simnet::SimDuration::from_secs(20));

    // Byzantine nodes are exempt from the eventual-delivery leg (their own
    // state was puppeted; quarantine legitimately isolates them) but every
    // honest node is held to every invariant, and the forged-delivery
    // verdict is global — colluders included.
    let exempt: BTreeSet<NodeId> = plan.adversary_nodes();
    let verdict = self_stabilized(&mut d, &items, &exempt, ROUND_BUDGET);

    let faults = d.sim.fault_counters();
    let (forged_rejects, quarantines, refusals) = if obs::ENABLED {
        let hub = d.sim.telemetry();
        let hub = hub.borrow();
        (
            hub.counter_total(obs::ctr::NW_FORGED_REJECTS),
            hub.counter_total(obs::ctr::NW_QUARANTINES),
            hub.counter_total(obs::ctr::NW_SIGNED_EPOCH_REFUSALS),
        )
    } else {
        (0, 0, 0)
    };
    dump_telemetry(
        &format!("e18_{}_{}_{}", script.label(), size, if defenses { "def" } else { "abl" }),
        &mut d.sim,
    );
    Point {
        strikes: faults.collusion_strikes,
        intercepts: faults.collusion_intercepts,
        injected: faults.forged_items_injected,
        forged_delivered: verdict.report.forged_deliveries.len(),
        forged_rejects,
        quarantines,
        refusals,
        stabilized: verdict.stabilized,
        rounds_used: verdict.rounds_used,
        delivery_pct: 100.0 * verdict.report.survivor_delivery_ratio(),
    }
}

pub(crate) fn run(quick: bool) {
    let n: u32 = if quick { 48 } else { 120 };
    let mut table = Table::new(
        "E18 — Byzantine zones: collusion size × script × defenses",
        &[
            "script",
            "colluders",
            "defenses",
            "strikes",
            "intercepts",
            "injected",
            "forged dlvd",
            "forged rej",
            "quarantined",
            "refusals",
            "stabilized",
            "rounds",
            "delivery %",
        ],
    );
    // (fraction, stabilized) samples per script from the ablated cells,
    // feeding the breaking-point readout under the table.
    let mut ablated: Vec<(Script, Vec<(f64, bool)>)> =
        Script::ALL.iter().map(|&s| (s, Vec::new())).collect();
    for script in Script::ALL {
        for size in SIZES {
            for defenses in [true, false] {
                let p = run_point(n, script, size, defenses, 0xE18);
                if !defenses {
                    let samples =
                        &mut ablated.iter_mut().find(|(s, _)| *s == script).expect("seeded").1;
                    samples.push((f64::from(size) / f64::from(n), p.stabilized));
                }
                table.row(&[
                    script.label().to_string(),
                    size.to_string(),
                    if defenses { "on" } else { "off" }.to_string(),
                    p.strikes.to_string(),
                    p.intercepts.to_string(),
                    p.injected.to_string(),
                    p.forged_delivered.to_string(),
                    p.forged_rejects.to_string(),
                    p.quarantines.to_string(),
                    p.refusals.to_string(),
                    if p.stabilized { "yes" } else { "NO" }.to_string(),
                    if p.stabilized {
                        p.rounds_used.to_string()
                    } else {
                        format!(">{ROUND_BUDGET}")
                    },
                    format!("{:.1}", p.delivery_pct),
                ]);
            }
        }
    }
    table.caption(format!(
        "{n} subscribers, branching 8; 2/5/7 adjacent subscribers bound to each Byzantine \
         script through a {}–{} s window (joint epoch-capture votes at mean 6 s, coordinated \
         route-partition drops, split-brain digest lying, or forgery strikes fabricating 3 \
         bogus-signature items at mean 8 s). 24-item drumbeat workload crossing the window. \
         `forged dlvd` is the oracle's whole-run forged-delivery count (must be 0 in every \
         defenses-on cell); `stabilized` is the self_stabilized verdict within {ROUND_BUDGET} \
         gossip rounds after the window — it now folds in forgery safety, so an ablated forge \
         cell that admitted forgeries can never stabilize (a forged delivery is permanent \
         harm). Defenses = end-to-end signature verification on every admission path + the \
         publisher-signed epoch fence + misbehavior quarantine.",
        WINDOW.0, WINDOW.1
    ));
    table.print();
    for (script, samples) in &ablated {
        match collusion_breaking_point(samples) {
            Some(frac) => println!(
                "  breaking point, defenses off, {}: fraction {:.3} ({} of {n}) fails to \
                 stabilize",
                script.label(),
                frac,
                (frac * f64::from(n)).round() as u32,
            ),
            None => println!(
                "  breaking point, defenses off, {}: none within sweep (≤{} colluders)",
                script.label(),
                SIZES[SIZES.len() - 1],
            ),
        }
    }
}
