//! The benchmark's workloads and the measurement of one run of each.
//!
//! Every workload is an open loop: its inputs (deployment, subscriptions,
//! the feed and its publish instants, the churn schedule) are generated
//! from the seed before the run, and publishes fire at their scheduled
//! simulated instants whatever the system is doing. A run is split into
//! *setup* (build the deployment; for the newswire workloads also the
//! warm-up settle) and the measured *window*.
//!
//! The same workload code runs untraced, over the real nodes, and traced,
//! over the same nodes wrapped in [`Timed`]. The traced run is built from
//! the same public builder and must reproduce the untraced
//! [`SimOutcome`] exactly.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use astrolabe::{Agent, AstroNode, TrustRegistry, ZoneLayout};
use newsml::{ItemId, NewsItem, PublisherId, PublisherProfile, Subject};
use newswire::{
    check_invariants, Deployment, DeploymentBuilder, NewsWireConfig, NewsWireMsg, NewsWireNode,
    PublisherSpec,
};
use obs::CtrId;
use rand::Rng;
use simnet::{
    fork, ChurnSpec, FaultPlan, LatencyModel, NetworkModel, Node, NodeId, RestartMode, SimDuration,
    SimTime, Simulation,
};

use crate::alloc;
use crate::stats::{beyond, pct, percentile};
use crate::timed::{Classify, Timed};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline path: one global publisher, 2048 subscribers at
    /// branching 64, lossless WAN, a 120-item feed.
    E1Feed,
    /// Astrolabe alone: 10,000 agents at branching 16 from cold start to
    /// full membership at the root, then a steady window.
    Membership,
    /// A lossy revision feed over churning subscribers with deltas and
    /// durable state on.
    ChurnRevisions,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::E1Feed, Workload::Membership, Workload::ChurnRevisions];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::E1Feed => "e1_feed",
            Workload::Membership => "membership",
            Workload::ChurnRevisions => "churn_revisions",
        }
    }

    /// The workload with exactly this name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parameters of a newswire feed workload.
#[derive(Debug, Clone)]
pub struct FeedSpec {
    /// Subscriber nodes (the publisher is one more node).
    pub subscribers: u32,
    /// Zone branching factor.
    pub branching: u16,
    /// WAN message-drop probability.
    pub drop_prob: f64,
    /// Article deltas, delta gossip and delta wire accounting, together.
    pub deltas: bool,
    /// Persist protocol state for cold restarts.
    pub durable_state: bool,
    /// Share of subscribers that churn with `ColdDurable` restarts, in %.
    pub churn_pct: u32,
    /// Distinct stories in the feed.
    pub stories: u32,
    /// Revisions published per story (1 = no revisions).
    pub revisions: u32,
    /// Item body length range in bytes, `(min, max)`.
    pub body_len: (u32, u32),
    /// Publish rate, items per simulated second.
    pub items_per_s: u64,
    /// Warm-up settle before the window, simulated seconds.
    pub settle_s: u64,
    /// Simulated seconds the window runs past the last publish.
    pub drain_s: u64,
}

impl FeedSpec {
    /// `e1_feed`.
    pub fn e1_feed() -> FeedSpec {
        FeedSpec {
            subscribers: 512,
            branching: 64,
            drop_prob: 0.0,
            deltas: false,
            durable_state: false,
            churn_pct: 0,
            stories: 120,
            revisions: 1,
            body_len: (600, 4_000),
            items_per_s: 4,
            settle_s: 30,
            drain_s: 10,
        }
    }

    /// `churn_revisions`.
    pub fn churn_revisions() -> FeedSpec {
        FeedSpec {
            subscribers: 250,
            branching: 16,
            drop_prob: 0.05,
            deltas: true,
            durable_state: true,
            churn_pct: 20,
            stories: 40,
            revisions: 6,
            body_len: (24_000, 24_576),
            items_per_s: 2,
            settle_s: 60,
            drain_s: 60,
        }
    }

    fn items(&self) -> u32 {
        self.stories * self.revisions
    }

    fn feed_secs(&self) -> u64 {
        u64::from(self.items()).div_ceil(self.items_per_s)
    }

    /// The newswire configuration, with every environment-dependent
    /// switch set explicitly.
    pub fn config(&self) -> NewsWireConfig {
        let mut c = NewsWireConfig::tech_news();
        c.deltas = self.deltas;
        c.astrolabe.delta_gossip = self.deltas;
        c.durable_state = self.durable_state;
        c
    }

    /// One-line description of the effective configuration.
    pub fn describe(&self) -> String {
        let c = self.config();
        format!(
            "subscribers={} publishers=1 branching={} wan=1 drop_prob={} deltas={} \
             delta_gossip={} delta_accounting={} durable_state={} anti_entropy={} \
             redundancy={} churn_pct={} restart=ColdDurable stories={} revisions={} \
             body_len={}..={} items_per_s={} settle_s={} drain_s={}",
            self.subscribers,
            self.branching,
            self.drop_prob,
            c.deltas,
            c.astrolabe.delta_gossip,
            self.deltas,
            c.durable_state,
            c.anti_entropy,
            c.redundancy,
            self.churn_pct,
            self.stories,
            self.revisions,
            self.body_len.0,
            self.body_len.1,
            self.items_per_s,
            self.settle_s,
            self.drain_s,
        )
    }
}

/// Parameters of the `membership` workload.
#[derive(Debug, Clone)]
pub struct MembershipSpec {
    /// Agents.
    pub agents: u32,
    /// Zone branching factor.
    pub branching: u16,
    /// Simulated length of the window, from cold start.
    pub horizon_s: u64,
    /// Simulated seconds of steady state the window must keep after
    /// convergence; converging later than `horizon_s - steady_s` fails.
    pub steady_s: u64,
}

impl MembershipSpec {
    /// `membership`.
    pub fn standard() -> MembershipSpec {
        MembershipSpec { agents: 5_000, branching: 16, horizon_s: 45, steady_s: 10 }
    }

    fn config(&self) -> astrolabe::Config {
        let mut c = astrolabe::Config::standard();
        c.branching = self.branching;
        c.delta_gossip = false;
        c
    }

    /// One-line description of the effective configuration.
    pub fn describe(&self) -> String {
        let c = self.config();
        format!(
            "agents={} branching={} network=default delta_gossip={} delta_accounting=false \
             contact_fanout=3 probes=3 horizon_s={} steady_s={}",
            self.agents, self.branching, c.delta_gossip, self.horizon_s, self.steady_s
        )
    }
}

/// The deterministic outcome of one run: everything the simulation
/// decided, none of what the host measured. Two runs of the same code and
/// seed, traced or not, must produce equal values.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Simulator events in the window.
    pub events: u64,
    /// Event-queue high-water mark over the whole run.
    pub peak_queue_depth: usize,
    /// Wire bytes in the window: the compressed lane when delta
    /// accounting is on, full price otherwise.
    pub wire_bytes: u64,
    /// Simulated length of the window.
    pub window_us: u64,
    /// Latency samples (deliveries of known items), in µs.
    pub samples: usize,
    /// Median latency, µs.
    pub p50_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Samples strictly above the p99.
    pub beyond_p99: usize,
    /// Expected (target, interested live node) pairs.
    pub expected: u64,
    /// Pairs that delivered.
    pub delivered: u64,
    /// Mean over nodes of the first probe instant at which the node's root
    /// view counted every node; `None` unless every node got there.
    pub converge_us: Option<u64>,
    /// Nodes in the simulation.
    pub nodes: u32,
    /// Window deltas of every registry counter (node sets plus the global
    /// set), indexed by counter slot.
    pub counters: Vec<u64>,
    /// Largest newswire forwarding-queue length any node reached.
    pub peak_forward_queue: u64,
}

impl SimOutcome {
    /// A registry counter's window delta.
    pub fn ctr(&self, id: CtrId) -> u64 {
        self.counters[usize::from(id.0)]
    }

    /// Delivered / expected pairs, in %.
    pub fn delivered_pct(&self) -> f64 {
        pct(self.delivered, self.expected)
    }

    /// The waste ratio: (duplicates + repair items sent + reconcile items
    /// sent) / deliveries, 0 without deliveries.
    pub fn copies_per_delivery(&self) -> f64 {
        use obs::ctr::*;
        let deliveries = self.ctr(NW_DELIVERED);
        let waste = self.ctr(NW_DUPLICATES)
            + self.ctr(NW_REPAIR_ITEMS_SENT)
            + self.ctr(NW_RECONCILE_ITEMS_SENT);
        if deliveries == 0 {
            0.0
        } else {
            waste as f64 / deliveries as f64
        }
    }

    /// Messages the network model dropped in the window.
    pub fn msgs_dropped(&self) -> u64 {
        use obs::ctr::*;
        [DROPS_PARTITION, DROPS_LINK_CUT, DROPS_LOSS, DROPS_GRAY_SEND, DROPS_GRAY_RECV]
            .into_iter()
            .map(|c| self.ctr(c))
            .sum()
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Host seconds to build the deployment (and settle, for newswire).
    pub setup_s: f64,
    /// Host seconds of the measured window.
    pub run_s: f64,
    /// Host seconds of the window spent inside the simulator's run loop.
    pub loop_s: f64,
    /// Host seconds the invariant oracle took (0 for `membership`).
    pub oracle_s: f64,
    /// Allocations during setup.
    pub alloc_setup: u64,
    /// Allocations during the window.
    pub alloc_run: u64,
    /// Bytes allocated during the window.
    pub alloc_run_bytes: u64,
    /// Telemetry snapshot plus JSON export, host seconds.
    pub export_s: f64,
    /// Size of that export.
    pub export_bytes: u64,
    /// The simulated outcome.
    pub out: SimOutcome,
    /// Failed correctness checks, empty when the run is correct.
    pub failures: Vec<String>,
}

/// Read access to the protocol state behind a (possibly wrapped) node.
pub trait Probe: Node {
    /// The node's Astrolabe agent.
    fn agent(&self) -> &Agent;
    /// The newswire node, for newswire deployments.
    fn newswire(&self) -> Option<&NewsWireNode>;
}

impl Probe for NewsWireNode {
    fn agent(&self) -> &Agent {
        &self.agent
    }
    fn newswire(&self) -> Option<&NewsWireNode> {
        Some(self)
    }
}

impl Probe for AstroNode {
    fn agent(&self) -> &Agent {
        &self.agent
    }
    fn newswire(&self) -> Option<&NewsWireNode> {
        None
    }
}

impl<N: Probe + Classify> Probe for Timed<N> {
    fn agent(&self) -> &Agent {
        self.inner.agent()
    }
    fn newswire(&self) -> Option<&NewsWireNode> {
        self.inner.newswire()
    }
}

/// Members the agent's root table accounts for.
fn members_at_root(agent: &Agent) -> i64 {
    agent.root_table().iter().filter_map(|(_, r)| r.get("nmembers").and_then(|v| v.as_i64())).sum()
}

/// Every registry counter: node sets plus the global set.
fn counters<N: Node>(sim: &Simulation<N>) -> Vec<u64> {
    let hub = sim.telemetry();
    let hub = hub.borrow();
    (0..obs::ctr::NAMES.len())
        .map(|i| {
            let id = CtrId(i as u16);
            hub.counter_total(id) + hub.global().ctr(id)
        })
        .collect()
}

fn wire_bytes(c: &[u64], delta_accounting: bool) -> u64 {
    let lane = if delta_accounting { obs::ctr::BYTES_WIRE } else { obs::ctr::BYTES_SENT };
    c[usize::from(lane.0)]
}

/// Simulated interval between membership probes.
const PROBE_US: u64 = 250_000;

/// Membership convergence, probed every [`PROBE_US`] of simulated time.
#[derive(Debug, Clone)]
struct Convergence {
    n: u32,
    /// Nodes whose root view has not yet counted every node.
    pending: Vec<u32>,
    /// For each converged node, the first probe instant (µs) at which its
    /// root view counted every node.
    at_us: Vec<u64>,
    /// When three probes (first, middle and last node) all counted every
    /// node.
    probes_us: Option<u64>,
}

impl Convergence {
    fn new(n: u32) -> Convergence {
        Convergence { n, pending: (0..n).collect(), at_us: Vec::new(), probes_us: None }
    }

    fn probe<N: Probe>(&mut self, sim: &Simulation<N>) {
        let (n, now) = (i64::from(self.n), sim.now().as_micros());
        let at_us = &mut self.at_us;
        self.pending.retain(|&i| {
            let done = members_at_root(sim.node(NodeId(i)).agent()) == n;
            if done {
                at_us.push(now);
            }
            !done
        });
        let probes = [0, self.n / 2, self.n - 1].map(NodeId);
        if self.probes_us.is_none()
            && probes.iter().all(|&p| members_at_root(sim.node(p).agent()) == n)
        {
            self.probes_us = Some(now);
        }
    }

    /// Mean time to full membership over all nodes, once all converged.
    fn mean_us(&self) -> Option<u64> {
        (self.pending.is_empty() && !self.at_us.is_empty())
            .then(|| self.at_us.iter().sum::<u64>() / self.at_us.len() as u64)
    }
}

/// Runs `sim` to `deadline`, probing membership every [`PROBE_US`].
fn settle_probing<N: Probe>(sim: &mut Simulation<N>, deadline: SimTime, conv: &mut Convergence) {
    while sim.now() < deadline {
        let next = (sim.now() + SimDuration::from_micros(PROBE_US)).min(deadline);
        sim.run_until(next);
        conv.probe(sim);
    }
}

/// The feed: `stories × revisions` items, revision `r` of story `s`
/// published `r * stories + s` slots after the window opens.
fn feed(spec: &FeedSpec, profile: &PublisherProfile, seed: u64) -> Vec<NewsItem> {
    let mut rng = fork(seed, 0xFEED);
    let mut items = Vec::new();
    let mut stories = Vec::new();
    for s in 0..spec.stories {
        // Categories in rotation, so every seed's feed interests the same
        // share of subscribers; topics and body sizes vary with the seed.
        let cat = profile.categories[s as usize % profile.categories.len()];
        let topic = rng.gen_range(1..=profile.topics_per_category.max(1)) as u16;
        stories.push((s, cat, topic, None::<ItemId>));
    }
    let mut seq = 0u64;
    for rev in 0..spec.revisions {
        for (s, cat, topic, prev) in &mut stories {
            let item = NewsItem::builder(profile.id, seq)
                .headline(format!("story {s} rev {rev}"))
                .slug(format!("story-{s}"))
                .category(*cat)
                .subject(Subject::new(vec![u16::from(cat.bit()) + 1, *topic]))
                .revision(rev, *prev)
                .body_len(rng.gen_range(spec.body_len.0..=spec.body_len.1))
                .build();
            *prev = Some(item.id);
            items.push(item);
            seq += 1;
        }
    }
    items
}

/// The simulated instant item `k` of the feed is due.
fn due(spec: &FeedSpec, window_start: SimTime, k: usize) -> SimTime {
    window_start + SimDuration::from_micros(k as u64 * 1_000_000 / spec.items_per_s)
}

/// The churn schedule: `churn_pct` of the subscribers, cold-durable
/// restarts while the feed runs, everyone back up when it ends.
fn churn_plan(spec: &FeedSpec, seed: u64, window_start: SimTime) -> FaultPlan {
    let mut rng = fork(seed, 0xC4);
    let target = (spec.subscribers * spec.churn_pct / 100) as usize;
    let mut nodes = BTreeSet::new();
    while nodes.len() < target {
        // Node 0 is the publisher; subscribers are 1..=subscribers.
        nodes.insert(NodeId(rng.gen_range(1..=spec.subscribers)));
    }
    let churn = if nodes.is_empty() {
        Vec::new()
    } else {
        vec![ChurnSpec {
            nodes: nodes.into_iter().collect(),
            start: window_start + SimDuration::from_secs(5),
            end: window_start + SimDuration::from_secs(spec.feed_secs()),
            mean_up_secs: 40.0,
            mean_down_secs: 10.0,
            recover_at_end: true,
            restart: RestartMode::ColdDurable,
        }]
    };
    FaultPlan { salt: seed, churn, ..FaultPlan::default() }
}

fn profile() -> PublisherProfile {
    PublisherProfile::slashdot(PublisherId(0))
}

fn build_deployment(spec: &FeedSpec, seed: u64) -> Deployment {
    let mut d = DeploymentBuilder::new(spec.subscribers, seed)
        .branching(spec.branching)
        .config(spec.config())
        .wan(spec.drop_prob)
        .publisher(PublisherSpec::global(profile()))
        .cats_per_subscriber(2)
        .build();
    d.sim.set_delta_accounting(spec.deltas);
    d
}

/// The network model `DeploymentBuilder::wan` installs, rebuilt so the
/// traced simulation runs over the identical model.
fn wan_model(layout: &ZoneLayout, nodes: u32, drop_prob: f64) -> NetworkModel {
    let region_of: Vec<u32> = (0..nodes)
        .map(|i| u32::from(layout.leaf_zone(i).path().first().copied().unwrap_or(0)))
        .collect();
    NetworkModel {
        latency: LatencyModel::wan_defaults(region_of),
        drop_prob,
        ..NetworkModel::default()
    }
}

/// A minimal node left in the deployment's slots while the real nodes run
/// inside the traced simulation.
fn placeholder() -> NewsWireNode {
    let layout = ZoneLayout::new(1, 2);
    let agent = Agent::new(0, &layout, astrolabe::Config::standard(), Vec::new());
    NewsWireNode::new(agent, NewsWireConfig::tech_news(), Arc::new(TrustRegistry::new(0)))
}

/// Moves the deployment's (not yet started) nodes into a fresh simulation
/// over the same network model and seed, each wrapped in [`Timed`].
fn wrap_deployment(
    d: &mut Deployment,
    spec: &FeedSpec,
    seed: u64,
) -> Simulation<Timed<NewsWireNode>> {
    let n = d.sim.len() as u32;
    let mut sim = Simulation::new(wan_model(&d.layout, n, spec.drop_prob), seed);
    sim.set_delta_accounting(spec.deltas);
    for i in 0..n {
        let inner = std::mem::replace(d.sim.node_mut(NodeId(i)), placeholder());
        sim.add_node(Timed { inner });
    }
    sim
}

/// Host-side measurements of a window.
struct Window {
    run_s: f64,
    loop_s: f64,
    alloc_run: u64,
    alloc_run_bytes: u64,
}

/// Runs a feed window on `sim` (already settled): schedules the churn
/// plan and the feed, runs to the end of the drain, and returns the
/// deterministic outcome and its host cost.
fn feed_window<N: Probe<Msg = NewsWireMsg>>(
    sim: &mut Simulation<N>,
    spec: &FeedSpec,
    seed: u64,
    items: &[NewsItem],
    converge_us: Option<u64>,
) -> (SimOutcome, Window, BTreeSet<NodeId>) {
    let c0 = counters(sim);
    let e0 = sim.events_processed();
    let a0 = (alloc::count(), alloc::bytes());
    let t0 = Instant::now();

    let start = sim.now();
    let plan = churn_plan(spec, seed, start);
    sim.apply_fault_plan(&plan);
    let mut due_at: HashMap<ItemId, SimTime> = HashMap::with_capacity(items.len());
    for (k, item) in items.iter().enumerate() {
        let at = due(spec, start, k);
        due_at.insert(item.id, at);
        sim.schedule_external(
            at,
            NodeId(0),
            NewsWireMsg::PublishRequest { item: item.clone(), scope: None, predicate: None },
        );
    }
    let end = start + SimDuration::from_secs(spec.feed_secs() + spec.drain_s);
    let tl = Instant::now();
    sim.run_until(end);
    let loop_s = tl.elapsed().as_secs_f64();

    // Publish→deliver latency from each item's scheduled instant; the
    // expected pairs are each story's final revision (earlier tellings
    // are revision-fused by design) at every interested node.
    let mut lat = Vec::new();
    let (mut expected, mut delivered) = (0u64, 0u64);
    let finals: Vec<&NewsItem> =
        items.iter().filter(|i| i.revision + 1 == spec.revisions).collect();
    let mut peak_forward_queue = 0u64;
    for (_, node) in sim.iter() {
        let nw = node.newswire().expect("feed workloads run newswire nodes");
        peak_forward_queue = peak_forward_queue.max(nw.stats.peak_queue as u64);
        for d in &nw.deliveries {
            if let Some(at) = due_at.get(&d.item) {
                lat.push(d.delivered.saturating_since(*at).as_micros());
            }
        }
        for item in &finals {
            if nw.subscription.matches(item) {
                expected += 1;
                delivered += u64::from(nw.deliveries.iter().any(|d| d.item == item.id));
            }
        }
    }
    lat.sort_unstable();
    let run_s = t0.elapsed().as_secs_f64();
    let window = Window {
        run_s,
        loop_s,
        alloc_run: alloc::count() - a0.0,
        alloc_run_bytes: alloc::bytes() - a0.1,
    };

    let c1 = counters(sim);
    let delta: Vec<u64> = c1.iter().zip(&c0).map(|(a, b)| a - b).collect();
    let out = SimOutcome {
        events: sim.events_processed() - e0,
        peak_queue_depth: sim.peak_queue_depth(),
        wire_bytes: wire_bytes(&delta, spec.deltas),
        window_us: end.saturating_since(start).as_micros(),
        samples: lat.len(),
        p50_us: percentile(&lat, 0.5).unwrap_or(0),
        p99_us: percentile(&lat, 0.99).unwrap_or(0),
        beyond_p99: beyond(&lat, 0.99),
        expected,
        delivered,
        converge_us,
        nodes: sim.len() as u32,
        counters: delta,
        peak_forward_queue,
    };
    (out, window, plan.churned_nodes())
}

/// Correctness of a finished feed run.
fn feed_failures(
    d: &Deployment,
    items: &[NewsItem],
    exempt: &BTreeSet<NodeId>,
) -> (Vec<String>, f64) {
    let t = Instant::now();
    let report = check_invariants(d, items, exempt);
    let oracle_s = t.elapsed().as_secs_f64();
    let mut failures = Vec::new();
    for (what, v) in [
        ("duplicate", &report.duplicate_deliveries),
        ("unwanted", &report.unwanted_deliveries),
        ("forged", &report.forged_deliveries),
    ] {
        if !v.is_empty() {
            failures.push(format!("{} {what} deliveries (first: {})", v.len(), v[0]));
        }
    }
    (failures, oracle_s)
}

fn export<N: Node>(sim: &Simulation<N>) -> (f64, u64) {
    let t = Instant::now();
    let json = sim.snapshot_telemetry().to_json();
    (t.elapsed().as_secs_f64(), json.len() as u64)
}

/// One run of a feed workload, traced or not.
pub fn run_feed(spec: &FeedSpec, seed: u64, traced: bool) -> Run {
    let items = feed(spec, &profile(), seed);
    let settle_end = SimTime::from_secs(spec.settle_s);
    let mut converge = Convergence::new(spec.subscribers + 1);

    let a0 = alloc::count();
    let t0 = Instant::now();
    let mut d = build_deployment(spec, seed);
    let (setup_s, alloc_setup, out, window, exempt, export) = if traced {
        let mut sim = wrap_deployment(&mut d, spec, seed);
        settle_probing(&mut sim, settle_end, &mut converge);
        let setup_s = t0.elapsed().as_secs_f64();
        let alloc_setup = alloc::count() - a0;
        crate::timed::reset();
        let (out, window, exempt) = feed_window(&mut sim, spec, seed, &items, converge.mean_us());
        let export = export(&sim);
        // Hand the real nodes back so the oracle judges the traced run.
        for i in 0..sim.len() as u32 {
            std::mem::swap(d.sim.node_mut(NodeId(i)), &mut sim.node_mut(NodeId(i)).inner);
        }
        (setup_s, alloc_setup, out, window, exempt, export)
    } else {
        settle_probing(&mut d.sim, settle_end, &mut converge);
        let setup_s = t0.elapsed().as_secs_f64();
        let alloc_setup = alloc::count() - a0;
        let (out, window, exempt) = feed_window(&mut d.sim, spec, seed, &items, converge.mean_us());
        (setup_s, alloc_setup, out, window, exempt, (0.0, 0))
    };
    let (failures, oracle_s) = feed_failures(&d, &items, &exempt);
    Run {
        setup_s,
        run_s: window.run_s,
        loop_s: window.loop_s,
        oracle_s,
        alloc_setup,
        alloc_run: window.alloc_run,
        alloc_run_bytes: window.alloc_run_bytes,
        export_s: export.0,
        export_bytes: export.1,
        out,
        failures,
    }
}

fn build_agents<N>(spec: &MembershipSpec, seed: u64, wrap: impl Fn(AstroNode) -> N) -> Simulation<N>
where
    N: Node,
{
    let layout = ZoneLayout::new(spec.agents, spec.branching);
    let config = spec.config();
    let mut contact_rng = fork(seed, 99);
    let mut sim = Simulation::new(NetworkModel::default(), seed);
    sim.set_delta_accounting(false);
    for i in 0..spec.agents {
        let contacts: Vec<u32> = (0..3).map(|_| contact_rng.gen_range(0..spec.agents)).collect();
        sim.add_node(wrap(AstroNode::new(Agent::new(i, &layout, config.clone(), contacts))));
    }
    sim
}

/// The membership window: `horizon_s` of simulated time from cold start.
/// Each agent's "delivery" is the first probe at which its own root view
/// counts every agent.
fn membership_window<N: Probe>(
    sim: &mut Simulation<N>,
    spec: &MembershipSpec,
) -> (SimOutcome, Window, Convergence) {
    let n = spec.agents;
    let a0 = (alloc::count(), alloc::bytes());
    let t0 = Instant::now();
    let mut loop_s = 0.0;
    let mut conv = Convergence::new(n);
    let end = SimTime::from_secs(spec.horizon_s);
    while sim.now() < end {
        let tl = Instant::now();
        sim.run_until(sim.now() + SimDuration::from_micros(PROBE_US));
        loop_s += tl.elapsed().as_secs_f64();
        conv.probe(sim);
    }
    let mut lat = conv.at_us.clone();
    lat.sort_unstable();
    let window = Window {
        run_s: t0.elapsed().as_secs_f64(),
        loop_s,
        alloc_run: alloc::count() - a0.0,
        alloc_run_bytes: alloc::bytes() - a0.1,
    };
    let c = counters(sim);
    let out = SimOutcome {
        events: sim.events_processed(),
        peak_queue_depth: sim.peak_queue_depth(),
        wire_bytes: wire_bytes(&c, false),
        window_us: sim.now().as_micros(),
        samples: lat.len(),
        p50_us: percentile(&lat, 0.5).unwrap_or(0),
        p99_us: percentile(&lat, 0.99).unwrap_or(0),
        beyond_p99: beyond(&lat, 0.99),
        expected: u64::from(n),
        delivered: lat.len() as u64,
        converge_us: conv.mean_us(),
        nodes: n,
        counters: c,
        peak_forward_queue: 0,
    };
    (out, window, conv)
}

/// One run of `membership`, traced or not.
pub fn run_membership(spec: &MembershipSpec, seed: u64, traced: bool) -> Run {
    let a0 = alloc::count();
    let t0 = Instant::now();
    let (out, window, conv, setup_s, alloc_setup, export) = if traced {
        let mut sim = build_agents(spec, seed, |inner| Timed { inner });
        let setup_s = t0.elapsed().as_secs_f64();
        let alloc_setup = alloc::count() - a0;
        crate::timed::reset();
        let (out, window, conv) = membership_window(&mut sim, spec);
        (out, window, conv, setup_s, alloc_setup, export(&sim))
    } else {
        let mut sim = build_agents(spec, seed, |n| n);
        let setup_s = t0.elapsed().as_secs_f64();
        let alloc_setup = alloc::count() - a0;
        let (out, window, conv) = membership_window(&mut sim, spec);
        (out, window, conv, setup_s, alloc_setup, (0.0, 0))
    };
    let mut failures = Vec::new();
    let deadline_us = (spec.horizon_s - spec.steady_s) * 1_000_000;
    match conv.probes_us {
        Some(t) if t <= deadline_us => {}
        Some(t) => failures.push(format!(
            "the probes converged at {:.2} sim s, leaving under {} s of steady window",
            t as f64 / 1e6,
            spec.steady_s
        )),
        None => failures.push(format!("the probes never converged within {} s", spec.horizon_s)),
    }
    Run {
        setup_s,
        run_s: window.run_s,
        loop_s: window.loop_s,
        oracle_s: 0.0,
        alloc_setup,
        alloc_run: window.alloc_run,
        alloc_run_bytes: window.alloc_run_bytes,
        export_s: export.0,
        export_bytes: export.1,
        out,
        failures,
    }
}

/// One run of `workload`.
pub fn run(workload: Workload, seed: u64, traced: bool) -> Run {
    match workload {
        Workload::E1Feed => run_feed(&FeedSpec::e1_feed(), seed, traced),
        Workload::Membership => run_membership(&MembershipSpec::standard(), seed, traced),
        Workload::ChurnRevisions => run_feed(&FeedSpec::churn_revisions(), seed, traced),
    }
}

/// Host seconds of one set-up alone, the same work a run's set-up does:
/// extra set-up samples for workloads whose runs are few.
pub fn setup_only(workload: Workload, seed: u64) -> f64 {
    let t0 = Instant::now();
    let spec = match workload {
        Workload::Membership => {
            let sim = build_agents(&MembershipSpec::standard(), seed, |n| n);
            let secs = t0.elapsed().as_secs_f64();
            drop(sim);
            return secs;
        }
        Workload::E1Feed => FeedSpec::e1_feed(),
        Workload::ChurnRevisions => FeedSpec::churn_revisions(),
    };
    let mut d = build_deployment(&spec, seed);
    let mut conv = Convergence::new(spec.subscribers + 1);
    settle_probing(&mut d.sim, SimTime::from_secs(spec.settle_s), &mut conv);
    let secs = t0.elapsed().as_secs_f64();
    drop(d);
    secs
}

/// The effective configuration of `workload`.
pub fn describe(workload: Workload) -> String {
    match workload {
        Workload::E1Feed => FeedSpec::e1_feed().describe(),
        Workload::Membership => MembershipSpec::standard().describe(),
        Workload::ChurnRevisions => FeedSpec::churn_revisions().describe(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A few dozen subscribers, lossless, one level of zones under the root.
    fn tiny() -> FeedSpec {
        FeedSpec {
            subscribers: 40,
            branching: 8,
            drop_prob: 0.0,
            deltas: false,
            durable_state: false,
            churn_pct: 0,
            stories: 12,
            revisions: 1,
            body_len: (600, 1_200),
            items_per_s: 4,
            settle_s: 20,
            drain_s: 10,
        }
    }

    #[test]
    fn delivered_pct_and_copies_per_delivery_match_the_deployment() {
        let spec = tiny();
        let seed = 5;
        let items = feed(&spec, &profile(), seed);
        let mut d = build_deployment(&spec, seed);
        let mut conv = Convergence::new(spec.subscribers + 1);
        settle_probing(&mut d.sim, SimTime::from_secs(spec.settle_s), &mut conv);
        let (out, _, _) = feed_window(&mut d.sim, &spec, seed, &items, conv.mean_us());

        let (mut expected, mut delivered) = (0u64, 0u64);
        for item in &items {
            let interested = d.interested_nodes(item);
            let got = d.delivered_nodes(item);
            expected += interested.len() as u64;
            delivered += interested.iter().filter(|n| got.contains(n)).count() as u64;
        }
        assert!(expected > 0);
        assert_eq!((out.expected, out.delivered), (expected, delivered));
        assert_eq!(out.delivered_pct(), 100.0 * delivered as f64 / expected as f64);

        // Nothing is delivered, duplicated, repaired or reconciled during
        // the settle, so the window's registry deltas equal the run totals.
        let t = d.total_stats();
        assert!(t.delivered > 0);
        let waste = t.duplicates + t.repair_items_sent + t.reconcile_items_sent;
        assert_eq!(out.copies_per_delivery(), waste as f64 / t.delivered as f64);
        assert_eq!(out.samples as u64, t.delivered);
        assert!(out.converge_us.is_some());
    }

    #[test]
    fn traced_run_reproduces_the_untraced_outcome() {
        let spec = FeedSpec {
            churn_pct: 20,
            drop_prob: 0.05,
            deltas: true,
            durable_state: true,
            revisions: 2,
            ..tiny()
        };
        let plain = run_feed(&spec, 9, false);
        let traced = run_feed(&spec, 9, true);
        assert_eq!(plain.out, traced.out);
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        let prof = crate::timed::snapshot();
        assert!(prof.get(crate::timed::Span::Deliver).calls > 0);
        assert!(prof.handler_secs() <= traced.loop_s);
    }

    #[test]
    fn feed_is_a_function_of_the_seed() {
        let spec = FeedSpec::churn_revisions();
        let a = feed(&spec, &profile(), 3);
        assert_eq!(a.len(), 240);
        let b = feed(&spec, &profile(), 3);
        let c = feed(&spec, &profile(), 4);
        let key = |v: &[NewsItem]| {
            v.iter().map(|i| (i.id, i.body_len, i.subjects.clone())).collect::<Vec<_>>()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        // Each story's revisions chain to the previous telling.
        assert_eq!(a[40].supersedes, Some(a[0].id));
        assert_eq!(a[40].slug, a[0].slug);
    }
}
