//! The Astrolabe agent: one per participating node.
//!
//! Each agent owns its leaf MIB row and replicates the zone tables on its
//! root path (paper §3: "like a jigsaw puzzle, each participant stores just
//! a part of the data structure, and the illusion of a tree of tables is
//! constructed at runtime through a peer-to-peer protocol").
//!
//! The agent is written *sans-IO*: [`Agent::on_tick`] and
//! [`Agent::on_message`] are pure state transitions that return an outbox of
//! `(peer, GossipMsg)` pairs. Hosts (the simnet wrapper in
//! [`crate::AstroNode`], the multicast layer in `amcast`, the full NewsWire
//! node) embed an agent and shuttle its messages, which keeps the protocol
//! testable in isolation and composable without generics gymnastics.
//!
//! # Protocol
//!
//! Anti-entropy in three hops. `A` picks, per level it represents, a peer
//! `B` in a *different* child of the level's zone and sends a digest of all
//! tables the two share (that zone and every ancestor). `B` replies with the
//! rows where it is newer plus a want-list of rows where `A` advertised
//! newer; `A` merges, then ships the wanted rows. Rows are immutable and
//! stamped `(issued, version, origin)`; newest wins everywhere, which makes
//! merging commutative, idempotent and eventually consistent.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use obs::{ctr, gauge, hist, kind, Layer};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use simnet::{PhiAccrualDetector, PhiConfig, SimTime};

use crate::agg::{parse_program, run_program, AggProgram};
use crate::config::{Config, PHI_THRESHOLD, PHI_WINDOW};
use crate::mib::{AttrName, Mib, MibBuilder, Stamp};
use crate::table::{MergeOutcome, RowDigest, ZoneTable};
use crate::value::AttrValue;
use crate::zone::{ZoneId, ZoneLayout};

pub use crate::mib::AGG_ATTR_PREFIX;

/// Defense-in-depth bound on attributes per ingested row: honest rows carry
/// a couple of dozen attributes (locals, core aggregates, mobile code), so
/// anything past this is a memory-amplification attempt, not data.
const MAX_ROW_ATTRS: usize = 256;

/// Digest of one table for anti-entropy exchange.
///
/// The row digests are shared (`Arc`): an agent fanning the same digest out
/// to several peers in one round clones a pointer, not the stamp list.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDigest {
    /// The zone whose table is being advertised.
    pub zone: ZoneId,
    /// Per-row version stamps.
    pub rows: Arc<[RowDigest]>,
    /// Delta gossip only: table generation this digest is relative to.
    /// `0` means the digest is *full* (covers every held row — also the
    /// invariant shape when delta gossip is off); non-zero means it covers
    /// only rows changed after that generation of the sender's table.
    pub since: u64,
    /// Delta gossip only: the sender's table generation at send time, so
    /// the receiver can detect a missed delta (`since` beyond the last
    /// generation it processed) and ask for a full exchange. `0` when
    /// delta gossip is off.
    pub gen: u64,
}

/// A batch of rows from one table.
#[derive(Debug, Clone)]
pub struct TableRows {
    /// The zone whose table the rows belong to.
    pub zone: ZoneId,
    /// `(label, row)` pairs.
    pub rows: Vec<(u16, Arc<Mib>)>,
}

/// Gossip protocol messages.
#[derive(Debug, Clone)]
pub enum GossipMsg {
    /// Hop 1: advertise row versions for the shared tables.
    Digest {
        /// One digest per shared table, leaf-most first.
        digests: Vec<TableDigest>,
    },
    /// Hop 2: rows newer at the receiver, plus a want-list.
    DigestReply {
        /// Rows where the replier was newer.
        rows: Vec<TableRows>,
        /// `(zone, labels)` the replier wants.
        want: Vec<(ZoneId, Vec<u16>)>,
        /// Delta gossip only: stamp-refresh records for rows where the
        /// replier was newer but the digest's content hash proved the
        /// values identical — the receiver re-stamps in place instead of
        /// getting the row re-shipped. Always empty when delta gossip is
        /// off (zero wire cost).
        refresh: Vec<(ZoneId, Vec<(u16, Stamp)>)>,
        /// Delta gossip only: zones where the replier detected a missed
        /// delta digest and needs the sender's next digest to be full.
        /// Always empty when delta gossip is off.
        want_full: Vec<ZoneId>,
    },
    /// Hop 3: the wanted rows.
    Rows {
        /// Rows the original sender was newer on.
        rows: Vec<TableRows>,
    },
}

impl GossipMsg {
    /// Approximate wire size in bytes, for traffic accounting.
    pub fn wire_size(&self) -> usize {
        fn zone_size(z: &ZoneId) -> usize {
            2 + z.depth() * 2
        }
        fn rows_size(rs: &[TableRows]) -> usize {
            rs.iter()
                .map(|t| {
                    zone_size(&t.zone)
                        + t.rows.iter().map(|(_, r)| 2 + r.wire_size()).sum::<usize>()
                })
                .sum()
        }
        8 + match self {
            GossipMsg::Digest { digests } => digests
                .iter()
                .map(|d| {
                    // Delta-mode digests (recognizable by a non-zero
                    // generation) carry an 8-byte content hash per row on
                    // top of the 22-byte label+stamp entry, plus the
                    // since/gen pair. Off-mode digests stay at the
                    // historical 22 bytes per row.
                    let per_row = if d.gen > 0 { 30 } else { 22 };
                    let header = if d.gen > 0 { 16 } else { 0 };
                    zone_size(&d.zone) + header + d.rows.len() * per_row
                })
                .sum::<usize>(),
            GossipMsg::DigestReply { rows, want, refresh, want_full } => {
                rows_size(rows)
                    + want.iter().map(|(z, ls)| zone_size(z) + ls.len() * 2).sum::<usize>()
                    + refresh.iter().map(|(z, rs)| zone_size(z) + rs.len() * 22).sum::<usize>()
                    + want_full.iter().map(zone_size).sum::<usize>()
            }
            GossipMsg::Rows { rows } => rows_size(rows),
        }
    }
}

/// Everything [`Agent::recompute_level`] needs for one gossip round, cached
/// across rounds and invalidated by `scope_epoch`: the compiled program list
/// (configured aggregations first, then dynamic-in-scope in name order) and
/// the pre-formatted `sys$agg:` attributes that ride along in summary rows.
/// Both halves sit behind `Arc` so cloning out of the cache is two pointer
/// bumps.
#[derive(Debug, Clone)]
struct RoundState {
    programs: Arc<[Arc<AggProgram>]>,
    agg_attrs: Arc<[(AttrName, AttrValue)]>,
}

/// One cached aggregate summary (see [`Agent::recompute_level`]): the row
/// last computed over `tables[level]`, valid while the source table's
/// content generation and the mobile-code scope both stand still. Re-issuing
/// it is [`Mib::restamped`] — the attribute payload is shared, not copied.
#[derive(Debug)]
struct AggCache {
    content_gen: u64,
    epoch: u64,
    proto: Arc<Mib>,
}

/// One node's Astrolabe state machine. See the module docs for the protocol.
#[derive(Debug)]
pub struct Agent {
    id: u32,
    config: Config,
    layout: ZoneLayout,
    /// Zones whose tables this agent replicates: leaf zone first, root last.
    chain: Vec<ZoneId>,
    /// `tables[i]` is the replica for `chain[i]`.
    tables: Vec<ZoneTable>,
    own_slot: u16,
    contacts: Vec<u32>,
    version: u64,
    local: MibBuilder,
    compiled: HashMap<String, Option<Arc<AggProgram>>>,
    dynamic: BTreeMap<String, String>,
    /// Bumped whenever the inputs of [`Agent::dynamic_in_scope`] may have
    /// changed: a program install, a merge or eviction touching a row that
    /// carries `sys$agg:` attributes, or a reset. While it stands still the
    /// cached [`RoundState`] is reused, skipping the full-table rescan that
    /// used to run every round.
    scope_epoch: u64,
    scope_cache: Option<(u64, RoundState)>,
    /// Per-level digest keyed by table generation, so the several gossip
    /// fan-outs of one round share a single stamp-list allocation.
    digest_cache: Vec<Option<(u64, Arc<[RowDigest]>)>>,
    /// Scratch buffers for [`ZoneTable::diff_into`] in the digest handler.
    scratch_newer: Vec<u16>,
    scratch_missing: Vec<u16>,
    /// Per-source-level aggregate summary attributes, keyed on the source
    /// table's content generation and `scope_epoch`. In steady state rows
    /// are merely re-stamped each round, both keys stand still, and the
    /// summary is re-issued from the cache instead of re-running every
    /// aggregation program.
    agg_cache: Vec<Option<AggCache>>,
    /// Bumped whenever `local` changes; keys `own_row_cache`.
    local_gen: u64,
    /// The fully decorated own row (locals + `id`/`reps`/`nmembers`),
    /// rebuilt only when `local` changed; heartbeats re-stamp it in place.
    own_row_cache: Option<(u64, Arc<Mib>)>,
    /// Per-level gossip peer candidates, keyed on the content generations of
    /// the level's table and its parent (the two inputs of
    /// [`Agent::peers_at`]).
    peers_cache: Vec<Option<(u64, u64, Vec<u32>)>>,
    /// Per-(level, label) phi-accrual detectors, fed whenever a merged row's
    /// stamp advances. Failure detection: a row is evicted when its detector
    /// grows suspicious, not on a fixed TTL cliff. Indexed `[level][label]`
    /// (labels are bounded by the branching factor; the inner vectors grow
    /// on demand) — the gc sweep and the merge loop consult a detector per
    /// row, so this sits on the hot path where a hashed lookup showed up.
    detectors: Vec<Vec<Option<PhiAccrualDetector>>>,
    /// Stamp watermark of rows evicted on suspicion: gossip re-offering the
    /// same (or an older) stamp is refused, so an evicted member cannot be
    /// resurrected by a replica that has not evicted it yet. A genuinely
    /// alive member re-enters with its next, newer stamp.
    tombstones: HashMap<(usize, u16), u64>,
    /// This node's own incarnation number: persisted by the host and bumped
    /// on every cold restart. Carried in the own leaf row as the `incar`
    /// attribute (only when non-zero, so pre-recovery deployments gossip
    /// byte-identical rows).
    incarnation: u64,
    /// Highest incarnation observed per leaf-table label. Rows carrying an
    /// older incarnation are stale gossip from before that peer's cold
    /// restart and are fenced (dropped) regardless of stamp.
    incar_seen: HashMap<u16, u64>,
    /// Memoized `incar` attribute reads for the leaf fence, one slot per
    /// leaf label: the last row examined (the `Arc` pins its attribute
    /// allocation, so pointer identity can never alias a freed block) and
    /// its incarnation. Steady-state heartbeats share the held row's
    /// attribute allocation via [`Mib::restamped`], so the fence becomes a
    /// pointer compare instead of a per-row attribute lookup.
    incar_cache: Vec<Option<(Arc<Mib>, u64)>>,
    /// Node ids observed under a *newer* incarnation since the last drain —
    /// the host resets its own per-peer failure detectors for these (a
    /// restarted peer must be immediately selectable again, not held hostage
    /// by suspicion accrued against its previous life).
    incarnation_bumps: Vec<u32>,
    /// When set, gossiped rows are structurally validated before merging
    /// (see [`Agent::row_is_valid`]); malformed rows are rejected and
    /// counted instead of silently merged. Off by default — the bare
    /// Astrolabe protocol trusts its peers, matching the paper; hosts that
    /// face an adversarial fault model (the NewsWire node) switch it on.
    validate_ingest: bool,
    /// Delta gossip, sender side: per `(peer, level)`, the table generation
    /// covered by the last digest sent there and a countdown to the next
    /// forced full exchange. Advanced optimistically (no ack): a dropped
    /// partial digest is healed by the periodic full digest, never by
    /// retransmission.
    delta_sent: HashMap<(u32, usize), DeltaPeerState>,
    /// Delta gossip, receiver side: highest digest generation processed per
    /// `(peer, level)`. A partial digest whose `since` exceeds this means a
    /// delta was missed; the reply then carries `want_full`.
    peer_gen_seen: HashMap<(u32, usize), u64>,
}

/// Sender-side delta gossip bookkeeping for one `(peer, level)` lane.
#[derive(Debug, Clone, Copy)]
struct DeltaPeerState {
    /// Table generation the last digest to this peer covered through.
    sent_gen: u64,
    /// Digests remaining until the next forced full exchange.
    rounds_to_full: u32,
}

impl Agent {
    /// Creates the agent for node `id` in the given layout.
    ///
    /// `extra_contacts` seed discovery beyond the agent's own leaf zone
    /// (paper §8 leaves bootstrap configuration out of scope; the simulation
    /// hands every agent a few random contacts, standing in for the seed
    /// list a downloaded client would ship with).
    pub fn new(id: u32, layout: &ZoneLayout, config: Config, extra_contacts: Vec<u32>) -> Self {
        let chain = layout.ancestor_chain(id);
        let tables: Vec<ZoneTable> = chain.iter().map(|z| ZoneTable::new(z.clone())).collect();
        let mut contacts: Vec<u32> =
            layout.members_of(&layout.leaf_zone(id)).filter(|&m| m != id).collect();
        contacts.extend(extra_contacts.into_iter().filter(|&c| c != id));
        contacts.sort_unstable();
        contacts.dedup();
        let levels = tables.len();
        Agent {
            id,
            config,
            layout: layout.clone(),
            chain,
            tables,
            own_slot: layout.member_slot(id),
            contacts,
            version: 0,
            local: MibBuilder::new(),
            compiled: HashMap::new(),
            dynamic: BTreeMap::new(),
            scope_epoch: 0,
            scope_cache: None,
            digest_cache: vec![None; levels],
            scratch_newer: Vec::new(),
            scratch_missing: Vec::new(),
            agg_cache: (0..levels).map(|_| None).collect(),
            local_gen: 0,
            own_row_cache: None,
            peers_cache: vec![None; levels],
            detectors: vec![Vec::new(); levels],
            tombstones: HashMap::new(),
            incarnation: 0,
            incar_seen: HashMap::new(),
            incar_cache: Vec::new(),
            incarnation_bumps: Vec::new(),
            validate_ingest: false,
            delta_sent: HashMap::new(),
            peer_gen_seen: HashMap::new(),
        }
    }

    /// This agent's node id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The agent's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The zones this agent replicates, leaf zone first, root last.
    pub fn chain(&self) -> &[ZoneId] {
        &self.chain
    }

    /// Number of replicated tables (leaf-zone table through root table).
    pub fn levels(&self) -> usize {
        self.tables.len()
    }

    /// The replica of `chain()[level]`'s table.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels()`.
    pub fn table(&self, level: usize) -> &ZoneTable {
        &self.tables[level]
    }

    /// The root table (rows summarize the top-level zones).
    pub fn root_table(&self) -> &ZoneTable {
        self.tables.last().expect("chain is never empty")
    }

    /// This agent's row label within `chain()[level]`'s table.
    pub fn own_label(&self, level: usize) -> u16 {
        if level == 0 {
            self.own_slot
        } else {
            self.chain[level - 1].label().expect("non-root chain entry has a label")
        }
    }

    /// Sets an attribute of this agent's own MIB row (takes effect at the
    /// next tick). `id`, `reps` and `nmembers` are reserved and overwritten
    /// by the agent. Re-setting a bit-identical value is a no-op, so an
    /// unchanged row keeps being re-stamped from its cached build rather
    /// than rebuilt and re-hashed.
    pub fn set_local_attr(&mut self, name: &str, value: impl Into<AttrValue>) {
        let value = value.into();
        if self.local.get(name).is_some_and(|held| held.identical(&value)) {
            return;
        }
        self.local.set(name, value);
        self.local_gen += 1;
    }

    /// Reads back a locally set attribute (the node's own MIB values).
    pub fn local_attr(&self, name: &str) -> Option<&AttrValue> {
        self.local.get(name)
    }

    /// Removes every locally set attribute whose name starts with `prefix`,
    /// returning how many were dropped. Hosts call this on cold restart to
    /// retract stale advertisements (anti-entropy digests, coverage claims)
    /// that describe state the restarted process no longer holds.
    pub fn remove_local_attrs(&mut self, prefix: &str) -> usize {
        let removed = self.local.remove_prefix(prefix);
        if removed > 0 {
            self.local_gen += 1;
        }
        removed
    }

    /// Sets this node's incarnation number (bumped by the host on every cold
    /// restart, persisted to stable storage). A non-zero incarnation rides in
    /// the own leaf row as the `incar` attribute; peers fence any row still
    /// carrying an older incarnation and reset their suspicion of this node.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        if self.incarnation != incarnation {
            self.incarnation = incarnation;
            self.local_gen += 1;
        }
    }

    /// This node's current incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Drains the node ids observed under a newer incarnation since the last
    /// call. Hosts use this to reset per-peer failure-detector state so a
    /// freshly restarted peer is immediately eligible again (for ack
    /// forwarding, repair, gossip) instead of inheriting the suspicion its
    /// previous life accrued.
    pub fn take_incarnation_bumps(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.incarnation_bumps)
    }

    /// Enables (or disables) structural validation of gossiped rows before
    /// they are merged. See [`Agent::scrub`] for the matching self-audit
    /// sweep over rows that were admitted before validation was on.
    pub fn set_ingest_validation(&mut self, on: bool) {
        self.validate_ingest = on;
    }

    /// Installs a dynamic aggregation program (mobile code). It propagates
    /// to the rest of the system as a `sys$agg:` attribute and is evaluated
    /// by every agent that sees it.
    pub fn install_aggregation(&mut self, name: &str, program: &str) {
        self.dynamic.insert(name.to_owned(), program.to_owned());
        self.local.set(format!("{AGG_ATTR_PREFIX}{name}"), program.to_owned());
        self.scope_epoch += 1;
        self.local_gen += 1;
    }

    /// True when this agent is currently a representative of
    /// `chain()[level]` (always true for the implicit level of its own row;
    /// vacuously false for the root, which has no parent to represent it
    /// in).
    pub fn is_rep(&self, level: usize) -> bool {
        let parent = level + 1;
        if parent >= self.tables.len() {
            return false;
        }
        match self.tables[parent].get(self.own_label(parent)) {
            Some(row) => match row.get("reps") {
                Some(AttrValue::Set(s)) => s.contains(&u64::from(self.id)),
                _ => true, // no reps computed yet: bootstrap duty
            },
            None => true, // nobody summarized us yet: bootstrap duty
        }
    }

    fn bootstrap_duty(&self, level: usize) -> bool {
        let parent = level + 1;
        if parent >= self.tables.len() {
            return false;
        }
        match self.tables[parent].get(self.own_label(parent)) {
            Some(row) => row.get("reps").is_none(),
            None => true,
        }
    }

    fn next_stamp(&mut self, now: SimTime) -> Stamp {
        self.version += 1;
        Stamp { issued_us: now.as_micros(), version: self.version, origin: self.id }
    }

    fn refresh_own_row(&mut self, now: SimTime) {
        let stamp = self.next_stamp(now);
        if let Some((gen, proto)) = &self.own_row_cache {
            if *gen == self.local_gen {
                // Heartbeat of an unchanged row: re-stamp the cached row,
                // sharing its attribute allocation.
                let row = Arc::new(proto.restamped(stamp));
                self.tables[0].merge_row(self.own_slot, row);
                return;
            }
        }
        let mut b = self.local.clone();
        if b.get("load").is_none() {
            // Representative election scores on load; an agent that never
            // reported one is assumed unloaded.
            b.set("load", 0.0f64);
        }
        b.set("id", i64::from(self.id));
        if self.incarnation > 0 {
            // i64 holds microsecond incarnations for ~292k simulated years.
            b.set("incar", self.incarnation as i64);
        }
        let mut reps = std::collections::BTreeSet::new();
        reps.insert(u64::from(self.id));
        b.set("reps", AttrValue::Set(reps));
        b.set("nmembers", 1i64);
        let row = Arc::new(Mib::new(stamp, b.into_attrs()));
        self.own_row_cache = Some((self.local_gen, Arc::clone(&row)));
        self.tables[0].merge_row(self.own_slot, row);
    }

    /// Tuning for the per-row failure detectors, derived from the gossip
    /// cadence: generous floors so multi-hop propagation jitter does not
    /// read as failure, while a genuinely silent row is suspected within a
    /// few rounds instead of a fixed multi-round TTL.
    fn phi_config(&self) -> PhiConfig {
        PhiConfig {
            window: PHI_WINDOW,
            threshold: PHI_THRESHOLD,
            first_interval: self.config.gossip_interval * 2,
            min_stddev: self.config.gossip_interval,
        }
    }

    /// Failure detection sweep: evict rows whose phi detector has crossed
    /// the suspicion threshold, plus (backstop) rows past the hard TTL whose
    /// cadence was never observed. Evicted stamps are tombstoned so stale
    /// replicas cannot resurrect them.
    fn gc(&mut self, now: SimTime) {
        let hard_cutoff = now.as_micros().saturating_sub(self.config.row_ttl.as_micros());
        for level in 0..self.tables.len() {
            let keep = self.own_label(level);
            let lane = &self.detectors[level];
            let suspects: Vec<(u16, u64, bool)> = self.tables[level]
                .iter()
                .filter(|&(label, row)| {
                    label != keep
                        && match lane.get(usize::from(label)).and_then(Option::as_ref) {
                            Some(d) => d.is_suspect(now) || row.stamp.issued_us < hard_cutoff,
                            None => row.stamp.issued_us < hard_cutoff,
                        }
                })
                .map(|(label, row)| (label, row.stamp.issued_us, row.carries_mobile_code()))
                .collect();
            for (label, issued_us, carried_agg) in suspects {
                self.tables[level].remove(label);
                if let Some(d) = self.detectors[level].get_mut(usize::from(label)) {
                    *d = None;
                }
                self.tombstones.insert((level, label), issued_us);
                if carried_agg {
                    self.scope_epoch += 1;
                }
            }
        }
    }

    /// All dynamic programs visible in any replicated table (union of
    /// `sys$agg:` attributes), plus locally installed ones.
    fn dynamic_in_scope(&self) -> BTreeMap<String, String> {
        let mut progs = self.dynamic.clone();
        for table in &self.tables {
            for (_, row) in table.iter() {
                for (name, value) in row.attrs() {
                    if let Some(short) = name.strip_prefix(AGG_ATTR_PREFIX) {
                        if let AttrValue::Str(src) = value {
                            progs.entry(short.to_owned()).or_insert_with(|| src.clone());
                        }
                    }
                }
            }
        }
        progs
    }

    /// The per-round aggregation inputs, rebuilt only when `scope_epoch`
    /// moved since the cached copy was made.
    fn round_state(&mut self) -> RoundState {
        if let Some((epoch, rs)) = &self.scope_cache {
            if *epoch == self.scope_epoch {
                return rs.clone();
            }
        }
        let dynamic = self.dynamic_in_scope();
        let mut programs: Vec<Arc<AggProgram>> = Vec::new();
        for a in &self.config.aggregations {
            if let Some(p) = compile_cached(&mut self.compiled, &a.program) {
                programs.push(p);
            }
        }
        for src in dynamic.values() {
            if let Some(p) = compile_cached(&mut self.compiled, src) {
                programs.push(p);
            }
        }
        let agg_attrs: Vec<(AttrName, AttrValue)> = dynamic
            .iter()
            .map(|(name, src)| {
                (AttrName::from(format!("{AGG_ATTR_PREFIX}{name}")), AttrValue::Str(src.clone()))
            })
            .collect();
        let rs = RoundState { programs: programs.into(), agg_attrs: agg_attrs.into() };
        self.scope_cache = Some((self.scope_epoch, rs.clone()));
        rs
    }

    fn recompute_level(&mut self, level: usize, now: SimTime, rs: &RoundState) {
        let parent = level + 1;
        if parent >= self.tables.len() {
            return;
        }
        if !(self.is_rep(level) || self.bootstrap_duty(level)) {
            return;
        }

        let label = self.own_label(parent);
        let content = self.tables[level].content_generation();
        let cached = match &self.agg_cache[level] {
            Some(c) if c.content_gen == content && c.epoch == self.scope_epoch => {
                Some(Arc::clone(&c.proto))
            }
            _ => None,
        };
        if let Some(proto) = cached {
            // Source rows were only re-stamped since the last round: the
            // summary values are unchanged, so re-issue the cached row under
            // a fresh stamp without re-running the programs (and without
            // copying or re-measuring its attributes).
            obs::metric_add!(self.id, ctr::AGG_CACHE_HITS, 1);
            let stamp = self.next_stamp(now);
            self.tables[parent].merge_row(label, Arc::new(proto.restamped(stamp)));
            return;
        }

        obs::metric_add!(self.id, ctr::AGG_RECOMPUTES, 1);
        let mut out = MibBuilder::new();
        let rows = self.tables[level].rows();
        for prog in rs.programs.iter() {
            match run_program(prog, rows) {
                Ok(attrs) => {
                    for (name, value) in attrs {
                        out.set(name, value);
                    }
                }
                Err(_) => {
                    // A mis-typed (possibly hostile) mobile program must not
                    // poison the hierarchy; skip its output this round.
                }
            }
        }
        // Mobile code rides along in the summary row.
        for (name, src) in rs.agg_attrs.iter() {
            out.set(Arc::clone(name), src.clone());
        }

        let stamp = self.next_stamp(now);
        let row = Arc::new(Mib::new(stamp, out.into_attrs()));
        self.agg_cache[level] = Some(AggCache {
            content_gen: content,
            epoch: self.scope_epoch,
            proto: Arc::clone(&row),
        });
        self.tables[parent].merge_row(label, row);
    }

    /// Candidate gossip targets at `level`: node ids advertised in `reps`
    /// attributes of rows other than this agent's own, plus this agent's
    /// *co-representatives* — the other members of `reps` in the parent
    /// table's summary of this zone. Co-reps live in sibling leaf zones of
    /// the same interior zone, so gossiping with them is what knits the
    /// interior table together when no configured contact happens to land
    /// there.
    /// [`Agent::peers_at`] behind a content-generation cache: the candidate
    /// list is a pure function of the `reps` attributes at `level` and its
    /// parent, so it is rebuilt only when either table's *values* changed.
    fn peers_cached(&mut self, level: usize) -> &[u32] {
        let gen = self.tables[level].content_generation();
        let parent_gen = self.tables.get(level + 1).map_or(u64::MAX, ZoneTable::content_generation);
        let stale = !matches!(
            &self.peers_cache[level],
            Some((g, p, _)) if *g == gen && *p == parent_gen
        );
        if stale {
            let peers = self.peers_at(level);
            self.peers_cache[level] = Some((gen, parent_gen, peers));
        } else {
            obs::metric_add!(self.id, ctr::PEERS_CACHE_HITS, 1);
        }
        match &self.peers_cache[level] {
            Some((_, _, peers)) => peers,
            None => unreachable!("cache entry was just populated"),
        }
    }

    fn peers_at(&self, level: usize) -> Vec<u32> {
        let own = self.own_label(level);
        let mut out = Vec::new();
        for (label, row) in self.tables[level].iter() {
            if label == own {
                continue;
            }
            if let Some(AttrValue::Set(s)) = row.get("reps") {
                out.extend(s.iter().filter_map(|&v| u32::try_from(v).ok()));
            }
        }
        let parent = level + 1;
        if parent < self.tables.len() {
            if let Some(row) = self.tables[parent].get(self.own_label(parent)) {
                if let Some(AttrValue::Set(s)) = row.get("reps") {
                    out.extend(s.iter().filter_map(|&v| u32::try_from(v).ok()));
                }
            }
        }
        out.retain(|&p| p != self.id);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn digests_from(&mut self, level: usize, peer: u32) -> Vec<TableDigest> {
        if !self.config.delta_gossip {
            return (level..self.tables.len())
                .map(|i| TableDigest {
                    zone: self.tables[i].zone.clone(),
                    rows: self.digest_at(i),
                    since: 0,
                    gen: 0,
                })
                .collect();
        }
        let mut out = Vec::with_capacity(self.tables.len() - level);
        for i in level..self.tables.len() {
            let gen = self.tables[i].generation();
            // Full digest when: first contact with this peer on this lane,
            // the periodic safety-net exchange is due, the peer asked for
            // one (missed delta), or our table generation regressed past
            // the marker (reset/restart) — a partial against a vanished
            // baseline would advertise nothing.
            let state = self.delta_sent.get(&(peer, i)).copied();
            let full = match state {
                None => true,
                Some(s) => s.rounds_to_full == 0 || s.sent_gen > gen,
            };
            if full {
                if state.is_some() {
                    obs::metric_add!(self.id, ctr::GOSSIP_FULL_FALLBACKS, 1);
                }
                self.delta_sent.insert(
                    (peer, i),
                    DeltaPeerState {
                        sent_gen: gen,
                        rounds_to_full: crate::config::DELTA_FULL_EXCHANGE_PERIOD - 1,
                    },
                );
                out.push(TableDigest {
                    zone: self.tables[i].zone.clone(),
                    rows: self.digest_at(i),
                    since: 0,
                    gen,
                });
            } else {
                let s = state.expect("partial digest requires prior state");
                let rows: Arc<[RowDigest]> = self.tables[i].digest_since(s.sent_gen).into();
                self.delta_sent.insert(
                    (peer, i),
                    DeltaPeerState { sent_gen: gen, rounds_to_full: s.rounds_to_full - 1 },
                );
                // An empty partial digest advertises nothing and triggers
                // nothing — skip it (the marker above still advanced, which
                // is correct: nothing changed, so nothing was skipped).
                if !rows.is_empty() {
                    obs::metric_add!(self.id, ctr::GOSSIP_DELTA_DIGESTS, 1);
                    out.push(TableDigest {
                        zone: self.tables[i].zone.clone(),
                        rows,
                        since: s.sent_gen,
                        gen,
                    });
                }
            }
        }
        out
    }

    /// The digest of `tables[i]`, reusing the cached copy while the table's
    /// generation stands still (typically across the 2-4 fan-outs of one
    /// gossip round).
    fn digest_at(&mut self, i: usize) -> Arc<[RowDigest]> {
        let generation = self.tables[i].generation();
        if let Some((g, d)) = &self.digest_cache[i] {
            if *g == generation {
                obs::metric_add!(self.id, ctr::DIGEST_CACHE_HITS, 1);
                return Arc::clone(d);
            }
        }
        let d: Arc<[RowDigest]> = self.tables[i].digest().into();
        self.digest_cache[i] = Some((generation, Arc::clone(&d)));
        d
    }

    /// One gossip round: refresh the local row, evict stale rows, recompute
    /// aggregates, and pick anti-entropy partners. Returns the outbox.
    pub fn on_tick(&mut self, now: SimTime, rng: &mut SmallRng) -> Vec<(u32, GossipMsg)> {
        self.refresh_own_row(now);
        self.gc(now);
        let rs = self.round_state();
        for level in 0..self.tables.len() {
            self.recompute_level(level, now, &rs);
        }

        let mut out = Vec::new();
        for level in 0..self.tables.len() {
            // Members always gossip their leaf-zone table; higher tables are
            // gossiped by the zone's representatives (plus bootstrap duty).
            let eligible = level == 0 || self.is_rep(level - 1) || self.bootstrap_duty(level - 1);
            if !eligible {
                continue;
            }
            let choice = self.peers_cached(level).choose(rng).copied();
            let target = match choice {
                Some(p) => Some(p),
                None if level == 0 || self.tables[level].len() <= 1 => {
                    // Discovery fallback: ping a bootstrap contact. Any agent
                    // shares at least the root table with us.
                    self.contacts.as_slice().choose(rng).copied()
                }
                None => None,
            };
            if let Some(peer) = target {
                out.push((peer, GossipMsg::Digest { digests: self.digests_from(level, peer) }));
            }
        }
        // Anti-clique measure: the peer selection above only reaches nodes
        // already present in the tables (or, for co-reps, in possibly
        // *diverged* aggregate rows), so two halves of a zone that
        // bootstrapped independently can each elect their own
        // representatives, keep reissuing their own aggregate row — which
        // always outstamps the foreign one locally — and never merge.
        // Break the symmetry from outside the gossip state: each tick, pick
        // one level and gossip with a uniformly random member of that zone,
        // derived from the static layout. (Real Astrolabe gets this from
        // its join/configuration machinery, which the paper scopes out;
        // see DESIGN.md bootstrap substitution.)
        let bridge_level = rand::Rng::gen_range(rng, 0..self.tables.len());
        if let Some(range) = self.layout.agent_range(&self.chain[bridge_level]) {
            let peer = rand::Rng::gen_range(rng, range.clone());
            if peer != self.id {
                out.push((
                    peer,
                    GossipMsg::Digest { digests: self.digests_from(bridge_level, peer) },
                ));
            }
        }
        // Also keep pinging configured contacts occasionally (join seeds).
        if rand::Rng::gen_bool(rng, 0.25) {
            if let Some(&peer) = self.contacts.as_slice().choose(rng) {
                out.push((peer, GossipMsg::Digest { digests: self.digests_from(0, peer) }));
            }
        }
        if obs::ENABLED {
            let rows_held: usize = self.tables.iter().map(ZoneTable::len).sum();
            obs::metric_add!(self.id, ctr::GOSSIP_ROUNDS, 1);
            obs::metric_add!(self.id, ctr::GOSSIP_DIGESTS_SENT, out.len());
            obs::gauge_max!(self.id, gauge::ASTRO_ROWS_HELD, rows_held);
            obs::trace_event!(self.id, Layer::Astro, kind::GOSSIP_ROUND, rows_held, out.len());
            for (_, msg) in &out {
                obs::hist_record!(self.id, hist::GOSSIP_DIGEST_BYTES, msg.wire_size());
            }
        }
        out
    }

    /// Merges a batch of rows; returns how many rows changed local state.
    ///
    /// Two classes of stale row are rejected outright: rows older than the
    /// hard TTL, and rows at or below a tombstoned stamp (evicted here on
    /// suspicion). Without this, a row evicted locally would be resurrected
    /// by the next gossip exchange with a replica that had not evicted it
    /// yet, and a failed member would never leave the membership. Each
    /// admitted stamp advance also feeds the row's phi detector — gossip
    /// *is* the heartbeat.
    fn merge_rows(&mut self, now: SimTime, batches: &[TableRows]) -> usize {
        let ttl = self.config.row_ttl.as_micros();
        let cutoff = now.as_micros().saturating_sub(ttl);
        let phi_config = self.phi_config();
        let mut changed = 0;
        for batch in batches {
            let Some(level) = self.level_of(&batch.zone) else { continue };
            let own = self.own_label(level);
            for (label, row) in &batch.rows {
                if self.validate_ingest && !self.row_is_valid(now, level, *label, row) {
                    obs::metric_add!(self.id, ctr::CORRUPT_ROWS_REJECTED, 1);
                    obs::trace_event!(
                        self.id,
                        Layer::Astro,
                        kind::CORRUPT_ROW_REJECT,
                        level,
                        *label
                    );
                    continue;
                }
                if row.stamp.issued_us < cutoff {
                    continue;
                }
                // Guard the lookup: the tombstone set is empty in a healthy
                // system, and this test runs once per row of every batch.
                if !self.tombstones.is_empty() {
                    if let Some(&watermark) = self.tombstones.get(&(level, *label)) {
                        if row.stamp.issued_us <= watermark {
                            continue;
                        }
                    }
                }
                // Incarnation fence (leaf rows only — that is where nodes
                // publish `incar`): a row from before the peer's last cold
                // restart is dropped outright, and the first row of a *newer*
                // incarnation resets the peer's suspicion state so it is
                // selectable again within one gossip round.
                if level == 0 && *label != own {
                    let slot_idx = usize::from(*label);
                    if self.incar_cache.len() <= slot_idx {
                        self.incar_cache.resize(slot_idx + 1, None);
                    }
                    let incar = match &self.incar_cache[slot_idx] {
                        Some((m, v)) if row.shares_attrs(m) => *v,
                        _ => {
                            let v =
                                row.get("incar").and_then(AttrValue::as_i64).unwrap_or(0) as u64;
                            self.incar_cache[slot_idx] = Some((Arc::clone(row), v));
                            v
                        }
                    };
                    let seen = self.incar_seen.get(label).copied().unwrap_or(0);
                    if incar < seen {
                        continue;
                    }
                    if incar > seen {
                        self.incar_seen.insert(*label, incar);
                        self.tombstones.remove(&(level, *label));
                        if let Some(d) = self.detectors[0].get_mut(usize::from(*label)) {
                            *d = None;
                        }
                        let peer =
                            row.get("id").and_then(AttrValue::as_i64).unwrap_or(-1).max(0) as u32;
                        self.incarnation_bumps.push(peer);
                        obs::metric_add!(self.id, ctr::INCARNATION_BUMPS, 1);
                        obs::trace_event!(
                            self.id,
                            Layer::Astro,
                            kind::INCARNATION_BUMP,
                            peer,
                            incar
                        );
                    }
                }
                let (advanced, old_carried_agg) =
                    match self.tables[level].merge_row_outcome(*label, Arc::clone(row)) {
                        MergeOutcome::Rejected => continue,
                        MergeOutcome::Inserted => (true, false),
                        MergeOutcome::Replaced { advanced_time, old_carried_agg } => {
                            (advanced_time, old_carried_agg)
                        }
                    };
                changed += 1;
                // An admitted row can change the mobile-code scope only when
                // the incoming or displaced version carries `sys$agg:` attrs.
                if row.carries_mobile_code() || old_carried_agg {
                    self.scope_epoch += 1;
                }
                if advanced && *label != own {
                    if !self.tombstones.is_empty() {
                        self.tombstones.remove(&(level, *label));
                    }
                    let lane = &mut self.detectors[level];
                    let slot = usize::from(*label);
                    if lane.len() <= slot {
                        lane.resize_with(slot + 1, || None);
                    }
                    lane[slot]
                        .get_or_insert_with(|| PhiAccrualDetector::new(phi_config))
                        .heartbeat(now);
                }
            }
        }
        if changed > 0 {
            obs::metric_add!(self.id, ctr::GOSSIP_ROWS_MERGED, changed);
            obs::trace_event!(self.id, Layer::Astro, kind::GOSSIP_MERGE, changed);
        }
        changed
    }

    /// Structural sanity of a gossiped row — the ingest validator behind
    /// [`Agent::set_ingest_validation`]. Checks are *shape* checks only,
    /// bounds a replica can verify locally without trusting the sender: the
    /// label must fit the zone branching factor, the stamp must not be from
    /// the future (beyond one gossip interval of slack), the attribute count
    /// must be bounded, a leaf row must carry a plausible `id`, and a
    /// claimed membership count must be positive. Value-level lies (a wrong
    /// aggregate under a legitimate stamp) are out of scope here; those are
    /// the host's self-audit problem.
    fn row_is_valid(&self, now: SimTime, level: usize, label: u16, row: &Mib) -> bool {
        if label >= self.config.branching {
            return false;
        }
        let slack = self.config.gossip_interval.as_micros();
        if row.stamp.issued_us > now.as_micros().saturating_add(slack) {
            return false;
        }
        if row.len() > MAX_ROW_ATTRS {
            return false;
        }
        if let Some(v) = row.get("nmembers") {
            if !matches!(v.as_i64(), Some(n) if n >= 1) {
                return false;
            }
        }
        if level == 0 {
            let Some(id) = row.get("id").and_then(AttrValue::as_i64) else { return false };
            if id < 0 || id > i64::from(u32::MAX) {
                return false;
            }
        }
        true
    }

    /// Self-audit sweep: evicts held rows (never the agent's own) that fail
    /// the structural validator of [`Agent::set_ingest_validation`]. The
    /// target is corruption anti-entropy cannot see: a row scrambled in
    /// place under its original stamp matches every replica's digest, so no
    /// peer ever re-offers the intact bytes. Evicting the row makes the
    /// label *missing* here, and the next digest exchange re-fetches the
    /// good row from any neighbor. Deliberately no tombstone — the intact
    /// row carries the very stamp a tombstone would fence out. Returns how
    /// many rows were evicted.
    pub fn scrub(&mut self, now: SimTime) -> u64 {
        let mut evicted = 0u64;
        for level in 0..self.tables.len() {
            let own = self.own_label(level);
            let bad: Vec<(u16, bool)> = self.tables[level]
                .iter()
                .filter(|&(label, row)| label != own && !self.row_is_valid(now, level, label, row))
                .map(|(label, row)| (label, row.carries_mobile_code()))
                .collect();
            for (label, carried_agg) in bad {
                self.tables[level].remove(label);
                if let Some(d) = self.detectors[level].get_mut(usize::from(label)) {
                    *d = None;
                }
                if carried_agg {
                    self.scope_epoch += 1;
                }
                evicted += 1;
            }
        }
        if evicted > 0 {
            obs::metric_add!(self.id, ctr::SELF_AUDIT_REPAIRS, evicted);
            // a=1: zone-table scrub repair site (hosts use other codes).
            obs::trace_event!(self.id, Layer::Astro, kind::SELF_AUDIT_REPAIR, 1, evicted);
        }
        evicted
    }

    /// Fault injection: scrambles up to `n` randomly chosen held rows
    /// (never the agent's own) *in place*, keeping each row's stamp so the
    /// corruption is invisible to digest-driven anti-entropy. The scramble
    /// is structural — the `id` attribute vanishes and `nmembers` goes
    /// negative — so the ingest validator and [`Agent::scrub`] can detect
    /// it; all other attributes (including mobile code) are preserved.
    /// Returns how many rows were actually changed.
    pub fn corrupt_rows(&mut self, rng: &mut SmallRng, n: u32) -> u64 {
        let mut candidates: Vec<(usize, u16)> = Vec::new();
        for level in 0..self.tables.len() {
            let own = self.own_label(level);
            candidates.extend(
                self.tables[level].iter().filter(|&(l, _)| l != own).map(|(l, _)| (level, l)),
            );
        }
        candidates.shuffle(rng);
        candidates.truncate(n as usize);
        let mut scrambled = 0u64;
        for (level, label) in candidates {
            let old = Arc::clone(self.tables[level].get(label).expect("candidate row is held"));
            let mut attrs: Vec<(AttrName, AttrValue)> =
                old.attrs().iter().filter(|(name, _)| name.as_ref() != "id").cloned().collect();
            attrs.push((AttrName::from("nmembers"), AttrValue::Int(-1)));
            if self.tables[level].force_replace(label, Arc::new(Mib::new(old.stamp, attrs))) {
                scrambled += 1;
            }
        }
        scrambled
    }

    /// Index of `zone` within this agent's chain, if replicated here.
    pub fn level_of(&self, zone: &ZoneId) -> Option<usize> {
        let depth = zone.depth();
        let leaf_depth = self.chain[0].depth();
        if depth > leaf_depth {
            return None;
        }
        let level = leaf_depth - depth;
        (self.chain[level] == *zone).then_some(level)
    }

    /// Handles an incoming gossip message; returns the outbox.
    pub fn on_message(
        &mut self,
        now: SimTime,
        from: u32,
        msg: GossipMsg,
        _rng: &mut SmallRng,
    ) -> Vec<(u32, GossipMsg)> {
        match msg {
            GossipMsg::Digest { digests } => {
                obs::trace_event!(self.id, Layer::Astro, kind::GOSSIP_DIGEST, from, digests.len());
                if self.config.delta_gossip {
                    return self.on_delta_digest(now, from, &digests);
                }
                let mut reply_rows = Vec::new();
                let mut want = Vec::new();
                // Reuse the scratch buffers across digests; the want-list
                // steals `missing` only when non-empty, so in steady state
                // (replicas in sync) this arm allocates nothing.
                let mut newer = std::mem::take(&mut self.scratch_newer);
                let mut missing = std::mem::take(&mut self.scratch_missing);
                for d in &digests {
                    let Some(level) = self.level_of(&d.zone) else { continue };
                    self.tables[level].diff_into(&d.rows, &mut newer, &mut missing);
                    if !newer.is_empty() {
                        let rows = newer
                            .iter()
                            .filter_map(|&l| self.tables[level].get(l).map(|r| (l, Arc::clone(r))))
                            .collect();
                        reply_rows.push(TableRows { zone: d.zone.clone(), rows });
                    }
                    if !missing.is_empty() {
                        want.push((d.zone.clone(), std::mem::take(&mut missing)));
                    }
                }
                self.scratch_newer = newer;
                self.scratch_missing = missing;
                if obs::ENABLED {
                    let sent: usize = reply_rows.iter().map(|t| t.rows.len()).sum();
                    let wanted: usize = want.iter().map(|(_, ls)| ls.len()).sum();
                    if sent + wanted > 0 {
                        obs::metric_add!(self.id, ctr::GOSSIP_DIFF_ROWS, sent + wanted);
                        obs::hist_record!(self.id, hist::GOSSIP_DIFF_ROWS, sent + wanted);
                        obs::trace_event!(self.id, Layer::Astro, kind::GOSSIP_DIFF, sent, wanted);
                    }
                }
                if reply_rows.is_empty() && want.is_empty() {
                    Vec::new()
                } else {
                    vec![(
                        from,
                        GossipMsg::DigestReply {
                            rows: reply_rows,
                            want,
                            refresh: Vec::new(),
                            want_full: Vec::new(),
                        },
                    )]
                }
            }
            GossipMsg::DigestReply { rows, want, refresh, want_full } => {
                self.merge_rows(now, &rows);
                self.apply_refresh_batches(now, &refresh);
                for zone in &want_full {
                    // The peer missed a delta: drop the lane state so our
                    // next digest to it is full.
                    if let Some(level) = self.level_of(zone) {
                        self.delta_sent.remove(&(from, level));
                    }
                }
                let mut send = Vec::new();
                for (zone, labels) in &want {
                    let Some(level) = self.level_of(zone) else { continue };
                    let rows = labels
                        .iter()
                        .filter_map(|&l| self.tables[level].get(l).map(|r| (l, Arc::clone(r))))
                        .collect::<Vec<_>>();
                    if !rows.is_empty() {
                        send.push(TableRows { zone: zone.clone(), rows });
                    }
                }
                if send.is_empty() {
                    Vec::new()
                } else {
                    vec![(from, GossipMsg::Rows { rows: send })]
                }
            }
            GossipMsg::Rows { rows } => {
                self.merge_rows(now, &rows);
                Vec::new()
            }
        }
    }

    /// Delta-gossip handling of an incoming digest (hop 1, delta arm).
    ///
    /// Differences from the classic path: digest entries carry content
    /// hashes, so a hash match lets this replica adopt a newer stamp
    /// straight from the digest (no want, no row transfer) and lets the
    /// reply ship 22-byte refresh records instead of full rows where this
    /// replica is newer on stamp but identical on values. Partial digests
    /// (`since > 0`) only speak for the rows they list — the reverse sweep
    /// over unlisted held rows applies to full digests alone — and a
    /// partial whose baseline we never saw triggers a `want_full` request.
    fn on_delta_digest(
        &mut self,
        now: SimTime,
        from: u32,
        digests: &[TableDigest],
    ) -> Vec<(u32, GossipMsg)> {
        let mut reply_rows = Vec::new();
        let mut want = Vec::new();
        let mut refresh = Vec::new();
        let mut want_full = Vec::new();
        for d in digests {
            let Some(level) = self.level_of(&d.zone) else { continue };
            if d.since > 0 {
                let seen = self.peer_gen_seen.get(&(from, level)).copied().unwrap_or(0);
                if seen < d.since {
                    // We missed the delta(s) between `seen` and `since`
                    // (or never exchanged with this peer): rows changed in
                    // that window are not in this digest. Ask for a full
                    // exchange; still process what *is* listed.
                    want_full.push(d.zone.clone());
                }
            }
            let seen = self.peer_gen_seen.entry((from, level)).or_insert(0);
            *seen = (*seen).max(d.gen);
            let own = self.own_label(level);
            let mut newer_full = Vec::new();
            let mut newer_refresh = Vec::new();
            let mut missing = Vec::new();
            let mut adopted = 0u64;
            let mut adopted_saved = 0u64;
            for e in d.rows.iter() {
                match self.tables[level].get(e.label) {
                    None => missing.push(e.label),
                    Some(row) => {
                        let held_stamp = row.stamp;
                        let held_hash = row.content_hash();
                        let held_wire = row.wire_size();
                        if e.stamp > held_stamp {
                            if e.chash == held_hash
                                && e.label != own
                                && self.apply_refresh(now, level, e.label, e.stamp)
                            {
                                // Heartbeat re-stamp of content we hold:
                                // adopted from the digest itself, saving the
                                // want + full-row round trip.
                                adopted += 1;
                                adopted_saved += (held_wire + 2).saturating_sub(8) as u64;
                            } else {
                                missing.push(e.label);
                            }
                        } else if held_stamp > e.stamp {
                            if e.chash == held_hash {
                                newer_refresh.push((e.label, held_stamp));
                            } else {
                                newer_full.push(e.label);
                            }
                        }
                    }
                }
            }
            if d.since == 0 {
                // Full digest: rows we hold that the peer did not list are
                // unknown to it — ship them whole.
                for (label, _) in self.tables[level].iter() {
                    if d.rows.iter().all(|e| e.label != label) {
                        newer_full.push(label);
                    }
                }
                newer_full.sort_unstable();
                newer_full.dedup();
            }
            if adopted > 0 {
                obs::metric_add!(self.id, ctr::GOSSIP_REFRESH_ROWS, adopted);
                obs::metric_add!(self.id, ctr::GOSSIP_REFRESH_BYTES_SAVED, adopted_saved);
            }
            if !newer_full.is_empty() {
                let rows = newer_full
                    .iter()
                    .filter_map(|&l| self.tables[level].get(l).map(|r| (l, Arc::clone(r))))
                    .collect();
                reply_rows.push(TableRows { zone: d.zone.clone(), rows });
            }
            if !newer_refresh.is_empty() {
                if obs::ENABLED {
                    let saved: usize = newer_refresh
                        .iter()
                        .filter_map(|&(l, _)| self.tables[level].get(l))
                        .map(|r| (r.wire_size() + 2).saturating_sub(22))
                        .sum();
                    obs::metric_add!(self.id, ctr::GOSSIP_REFRESH_ROWS, newer_refresh.len());
                    obs::metric_add!(self.id, ctr::GOSSIP_REFRESH_BYTES_SAVED, saved);
                }
                refresh.push((d.zone.clone(), newer_refresh));
            }
            if !missing.is_empty() {
                want.push((d.zone.clone(), missing));
            }
        }
        if obs::ENABLED {
            let sent: usize = reply_rows.iter().map(|t| t.rows.len()).sum();
            let wanted: usize = want.iter().map(|(_, ls)| ls.len()).sum();
            if sent + wanted > 0 {
                obs::metric_add!(self.id, ctr::GOSSIP_DIFF_ROWS, sent + wanted);
                obs::hist_record!(self.id, hist::GOSSIP_DIFF_ROWS, sent + wanted);
                obs::trace_event!(self.id, Layer::Astro, kind::GOSSIP_DIFF, sent, wanted);
            }
        }
        if reply_rows.is_empty() && want.is_empty() && refresh.is_empty() && want_full.is_empty() {
            Vec::new()
        } else {
            vec![(from, GossipMsg::DigestReply { rows: reply_rows, want, refresh, want_full })]
        }
    }

    /// Applies stamp-refresh batches from a digest reply (delta gossip).
    fn apply_refresh_batches(&mut self, now: SimTime, batches: &[(ZoneId, Vec<(u16, Stamp)>)]) {
        for (zone, records) in batches {
            let Some(level) = self.level_of(zone) else { continue };
            let own = self.own_label(level);
            let mut applied = 0u64;
            let mut saved = 0u64;
            for &(label, stamp) in records {
                if label == own {
                    continue;
                }
                if self.apply_refresh(now, level, label, stamp) {
                    applied += 1;
                    if obs::ENABLED {
                        if let Some(r) = self.tables[level].get(label) {
                            saved += (r.wire_size() + 2).saturating_sub(22) as u64;
                        }
                    }
                }
            }
            if applied > 0 {
                obs::metric_add!(self.id, ctr::GOSSIP_REFRESH_ROWS, applied);
                obs::metric_add!(self.id, ctr::GOSSIP_REFRESH_BYTES_SAVED, saved);
            }
        }
    }

    /// Re-stamps a held row in place, mirroring every admission fence of
    /// [`Agent::merge_rows`] for the content-unchanged case: TTL cutoff,
    /// tombstone watermark, the future-stamp bound when ingest validation
    /// is on, and the phi heartbeat on success (a refresh *is* the
    /// heartbeat, no less than a full row).
    fn apply_refresh(&mut self, now: SimTime, level: usize, label: u16, stamp: Stamp) -> bool {
        let cutoff = now.as_micros().saturating_sub(self.config.row_ttl.as_micros());
        if stamp.issued_us < cutoff {
            return false;
        }
        if self.validate_ingest {
            let slack = self.config.gossip_interval.as_micros();
            if stamp.issued_us > now.as_micros().saturating_add(slack) {
                return false;
            }
        }
        if !self.tombstones.is_empty() {
            if let Some(&watermark) = self.tombstones.get(&(level, label)) {
                if stamp.issued_us <= watermark {
                    return false;
                }
            }
        }
        if !self.tables[level].restamp(label, stamp) {
            return false;
        }
        if !self.tombstones.is_empty() {
            self.tombstones.remove(&(level, label));
        }
        let phi_config = self.phi_config();
        let lane = &mut self.detectors[level];
        let slot = usize::from(label);
        if lane.len() <= slot {
            lane.resize_with(slot + 1, || None);
        }
        lane[slot].get_or_insert_with(|| PhiAccrualDetector::new(phi_config)).heartbeat(now);
        true
    }

    /// Evaluates an ad-hoc aggregation program against this agent's replica
    /// of `zone`'s table — the interactive data-mining read path of §3
    /// (distinct from [`Agent::install_aggregation`], which changes what the
    /// whole system computes continuously).
    ///
    /// Returns `None` when the agent does not replicate `zone`.
    ///
    /// # Errors
    ///
    /// Propagates parse errors in `program`; evaluation type errors surface
    /// as the evaluator's error.
    pub fn query(
        &self,
        zone: &ZoneId,
        program: &str,
    ) -> Option<Result<Vec<(String, AttrValue)>, String>> {
        let level = self.level_of(zone)?;
        let prog = match parse_program(program) {
            Ok(p) => p,
            Err(e) => return Some(Err(e.to_string())),
        };
        Some(run_program(&prog, self.tables[level].rows()).map_err(|e| e.to_string()))
    }

    /// Clears all replicated state except identity (cold restart).
    pub fn reset(&mut self) {
        for t in &mut self.tables {
            *t = ZoneTable::new(t.zone.clone());
        }
        self.version = 0;
        self.detectors.iter_mut().for_each(Vec::clear);
        self.tombstones.clear();
        self.incar_seen.clear();
        self.incar_cache.clear();
        self.incarnation_bumps.clear();
        // Table generations restart at zero, so cached digests, summaries
        // and peer lists keyed on the old counters must go; the mobile-code
        // scope shrank to the locally installed programs, so the round state
        // must be rebuilt too. (The own-row cache survives: `local` did not
        // change.)
        self.digest_cache.fill(None);
        self.agg_cache.iter_mut().for_each(|c| *c = None);
        self.peers_cache.fill(None);
        self.scope_epoch += 1;
        self.scope_cache = None;
        // Delta-gossip lanes reference the old generation counters on both
        // sides; a partial digest against a pre-reset baseline would be
        // silently wrong, so force full exchanges all around.
        self.delta_sent.clear();
        self.peer_gen_seen.clear();
    }

    /// Current phi suspicion level for the row at `(level, label)`, if a
    /// detector has observed it (diagnostics and host-layer reuse).
    pub fn suspicion(&self, level: usize, label: u16, now: SimTime) -> Option<f64> {
        self.detectors
            .get(level)
            .and_then(|lane| lane.get(usize::from(label)))
            .and_then(Option::as_ref)
            .map(|d| d.phi(now))
    }
}

/// Compiles `src`, caching the result (including failures, so a bad mobile
/// program is not re-parsed every round). A free function rather than a
/// method so callers can hold other `Agent` fields borrowed.
fn compile_cached(
    cache: &mut HashMap<String, Option<Arc<AggProgram>>>,
    src: &str,
) -> Option<Arc<AggProgram>> {
    if let Some(hit) = cache.get(src) {
        return hit.clone();
    }
    let parsed = parse_program(src).ok().map(Arc::new);
    cache.insert(src.to_owned(), parsed.clone());
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{fork, SimDuration};

    fn small_config() -> Config {
        Config {
            branching: 4,
            gossip_interval: SimDuration::from_secs(1),
            row_ttl: SimDuration::from_secs(20),
            // Pinned so unit tests measure the same wire format regardless
            // of the ambient NEWSWIRE_DELTAS switch; the delta path is
            // covered explicitly by the make_delta_agents tests.
            delta_gossip: false,
            ..Config::standard()
        }
    }

    /// Drives a set of agents through synchronous rounds with perfect
    /// message delivery — a harness for protocol-logic tests (network
    /// effects are covered by the simnet-based integration tests).
    fn run_rounds(agents: &mut [Agent], rounds: usize, start: u64) -> u64 {
        let mut rng = fork(42, 0);
        let mut t = start;
        for _ in 0..rounds {
            t += 1_000_000;
            let now = SimTime::from_micros(t);
            let mut inflight: Vec<(u32, u32, GossipMsg)> = Vec::new();
            for a in agents.iter_mut() {
                for (to, m) in a.on_tick(now, &mut rng) {
                    inflight.push((a.id(), to, m));
                }
            }
            // Deliver to fixpoint within the round.
            while let Some((from, to, msg)) = inflight.pop() {
                let Some(b) = agents.iter_mut().find(|a| a.id() == to) else { continue };
                for (to2, m2) in b.on_message(now, from, msg, &mut rng) {
                    inflight.push((to, to2, m2));
                }
            }
        }
        t
    }

    fn make_agents(n: u32, branching: u16) -> Vec<Agent> {
        let layout = ZoneLayout::new(n, branching);
        let mut config = small_config();
        config.branching = branching;
        (0..n)
            .map(|i| {
                // Give everyone one global contact (agent 0) for discovery.
                Agent::new(i, &layout, config.clone(), vec![0])
            })
            .collect()
    }

    fn make_delta_agents(n: u32, branching: u16) -> Vec<Agent> {
        let layout = ZoneLayout::new(n, branching);
        let mut config = small_config();
        config.branching = branching;
        config.delta_gossip = true;
        (0..n).map(|i| Agent::new(i, &layout, config.clone(), vec![0])).collect()
    }

    #[test]
    fn resetting_an_identical_local_attr_keeps_the_own_row_shared() {
        let mut agents = make_agents(1, 4);
        let a = &mut agents[0];
        let mut rng = fork(42, 0);
        let mut tick = |a: &mut Agent, secs: u64| {
            a.on_tick(SimTime::from_secs(secs), &mut rng);
            Arc::clone(a.table(0).get(a.own_label(0)).expect("own row"))
        };
        a.set_local_attr("load", 0.0);
        let first = tick(a, 1);
        a.set_local_attr("load", 0.0);
        let second = tick(a, 2);
        assert!(second.newer_than(&first), "re-stamped");
        assert!(second.shares_attrs(&first), "an identical set must not rebuild the row");
        a.set_local_attr("load", -0.0);
        let third = tick(a, 3);
        assert!(!third.shares_attrs(&second), "0.0 -> -0.0 is a change");
        assert_eq!(
            third.get("load").and_then(AttrValue::as_f64).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
    }

    #[test]
    fn delta_gossip_converges_like_full() {
        let mut agents = make_delta_agents(12, 4);
        run_rounds(&mut agents, 12, 0);
        for a in &agents {
            let total: i64 = a
                .root_table()
                .iter()
                .filter_map(|(_, r)| r.get("nmembers").and_then(|v| v.as_i64()))
                .sum();
            assert_eq!(total, 12, "agent {} sees nmembers {total}", a.id());
        }
    }

    #[test]
    fn delta_digest_goes_partial_then_full_on_generation_gap() {
        let mut agents = make_delta_agents(2, 4);
        let t = run_rounds(&mut agents, 4, 0);
        let (left, right) = agents.split_at_mut(1);
        let (a, b) = (&mut left[0], &mut right[0]);
        let mut rng = fork(7, 0);

        a.delta_sent.clear(); // normalize: next digest to b is full
        let full = a.digests_from(0, b.id());
        assert!(full.iter().all(|d| d.since == 0), "first digest after reset is full");
        assert!(full.iter().all(|d| d.gen > 0), "delta digests carry the generation");

        // Change a's table, build a partial digest... and lose it.
        a.refresh_own_row(SimTime::from_micros(t + 1_000_000));
        let lost = a.digests_from(0, b.id());
        assert!(lost.iter().all(|d| d.since > 0), "second digest is partial");

        // The next partial's baseline is a generation b never processed.
        a.refresh_own_row(SimTime::from_micros(t + 2_000_000));
        let gapped = a.digests_from(0, b.id());
        assert!(gapped.iter().all(|d| d.since > 0));
        let now = SimTime::from_micros(t + 2_000_000);
        let out = b.on_message(now, a.id(), GossipMsg::Digest { digests: gapped }, &mut rng);
        let Some((to, GossipMsg::DigestReply { want_full, .. })) = out.first() else {
            panic!("gap must produce a reply");
        };
        assert_eq!(*to, a.id());
        assert!(!want_full.is_empty(), "missed delta must request a full exchange");

        // Receiving want_full drops the lane state: next digest is full.
        let reply = out.into_iter().next().unwrap().1;
        a.on_message(now, b.id(), reply, &mut rng);
        let healed = a.digests_from(0, b.id());
        assert!(healed.iter().all(|d| d.since == 0), "want_full forces a full digest");
    }

    #[test]
    fn delta_full_exchange_period_bounds_partial_streak() {
        let mut agents = make_delta_agents(2, 4);
        let t = run_rounds(&mut agents, 4, 0);
        let a = &mut agents[0];
        a.delta_sent.clear();
        let mut fulls = 0;
        for i in 0..=crate::config::DELTA_FULL_EXCHANGE_PERIOD {
            a.refresh_own_row(SimTime::from_micros(t + u64::from(i + 1) * 1_000_000));
            let ds = a.digests_from(0, 1);
            if ds.iter().all(|d| d.since == 0) {
                fulls += 1;
            }
        }
        assert_eq!(fulls, 2, "first digest and the periodic safety net are full");
    }

    #[test]
    fn delta_digest_restamps_matching_content_in_place() {
        let mut agents = make_delta_agents(2, 4);
        let t = run_rounds(&mut agents, 4, 0);
        let (left, right) = agents.split_at_mut(1);
        let (a, b) = (&mut left[0], &mut right[0]);
        let mut rng = fork(9, 0);
        let label = a.own_label(0);

        // A heartbeat re-stamp of a's own row: same attrs, newer stamp.
        a.refresh_own_row(SimTime::from_micros(t + 1_000_000));
        let stamp = a.table(0).get(label).unwrap().stamp;
        assert!(stamp > b.table(0).get(label).unwrap().stamp);

        a.delta_sent.clear();
        let digests = a.digests_from(0, b.id());
        let now = SimTime::from_micros(t + 1_000_000);
        let out = b.on_message(now, a.id(), GossipMsg::Digest { digests }, &mut rng);
        assert_eq!(
            b.table(0).get(label).unwrap().stamp,
            stamp,
            "receiver adopts the stamp straight from the digest"
        );
        for (_, msg) in &out {
            if let GossipMsg::DigestReply { want, .. } = msg {
                assert!(
                    want.iter().all(|(_, ls)| !ls.contains(&label)),
                    "no row transfer for a content-identical re-stamp"
                );
            }
        }
    }

    #[test]
    fn single_level_converges_to_full_membership() {
        let mut agents = make_agents(4, 4); // all in the root's single leaf table
        run_rounds(&mut agents, 6, 0);
        for a in &agents {
            assert_eq!(a.levels(), 1);
            assert_eq!(a.table(0).len(), 4, "agent {} sees {} rows", a.id(), a.table(0).len());
        }
    }

    #[test]
    fn two_level_tree_aggregates_membership_count() {
        let mut agents = make_agents(12, 4); // 3 leaf zones of 4 under the root
        run_rounds(&mut agents, 12, 0);
        for a in &agents {
            assert_eq!(a.levels(), 2);
            let total: i64 = a
                .root_table()
                .iter()
                .filter_map(|(_, r)| r.get("nmembers").and_then(|v| v.as_i64()))
                .sum();
            assert_eq!(total, 12, "agent {} sees nmembers {total}", a.id());
        }
    }

    #[test]
    fn reps_elected_and_bounded() {
        let mut agents = make_agents(12, 4);
        run_rounds(&mut agents, 12, 0);
        let a = &agents[5];
        for (_, row) in a.root_table().iter() {
            let AttrValue::Set(reps) = row.get("reps").expect("reps computed") else {
                panic!("reps has wrong type")
            };
            assert!(!reps.is_empty() && reps.len() <= 2, "reps {reps:?}");
        }
        // Exactly the elected reps consider themselves representatives.
        let rep_ids: std::collections::BTreeSet<u64> =
            agents.iter().filter(|ag| ag.is_rep(0)).map(|ag| u64::from(ag.id())).collect();
        for ag in &agents {
            let parent_row = ag.table(1).get(ag.own_label(1)).unwrap();
            if let Some(AttrValue::Set(s)) = parent_row.get("reps") {
                if s.contains(&u64::from(ag.id())) {
                    assert!(rep_ids.contains(&u64::from(ag.id())));
                }
            }
        }
    }

    #[test]
    fn local_attr_aggregates_to_root() {
        let mut agents = make_agents(12, 4);
        for a in agents.iter_mut() {
            a.set_local_attr("load", 0.5f64);
        }
        agents[7].set_local_attr("load", 0.05f64);
        run_rounds(&mut agents, 12, 0);
        // MIN(load) at the root over agent 7's zone (/1) must be 0.05.
        let a = &agents[0];
        let zone_of_7 = 7 / 4; // label 1
        let row = a.root_table().get(zone_of_7 as u16).expect("zone row");
        assert_eq!(row.get("load").and_then(|v| v.as_f64()), Some(0.05));
    }

    #[test]
    fn mobile_aggregation_propagates_from_one_node() {
        let mut agents = make_agents(12, 4);
        for a in agents.iter_mut() {
            a.set_local_attr("temp", 20i64);
        }
        agents[3].set_local_attr("temp", 95i64);
        // Install MAX(temp) at a single node; the program must reach every
        // branch of the tree via gossip and take effect there.
        agents[0].install_aggregation("hot", "SELECT MAX(temp) AS hottest");
        run_rounds(&mut agents, 16, 0);
        for a in &agents {
            let max_at_root: i64 = a
                .root_table()
                .iter()
                .filter_map(|(_, r)| r.get("hottest").and_then(|v| v.as_i64()))
                .max()
                .expect("hottest computed everywhere");
            assert_eq!(max_at_root, 95, "agent {}", a.id());
        }
    }

    #[test]
    fn failure_detection_evicts_silent_member() {
        let mut agents = make_agents(8, 4);
        let t = run_rounds(&mut agents, 8, 0);
        assert!(agents[0].table(0).get(1).is_some(), "agent 1 known before failure");
        // Remove agent 1 (slot 1 of zone 0) and keep gossiping past the TTL.
        let mut survivors: Vec<Agent> = agents.into_iter().filter(|a| a.id() != 1).collect();
        run_rounds(&mut survivors, 30, t);
        let a0 = &survivors[0];
        assert!(a0.table(0).get(1).is_none(), "stale row must be evicted");
        let row = a0.root_table().get(0).expect("zone row");
        assert_eq!(row.get("nmembers").and_then(|v| v.as_i64()), Some(3));
    }

    #[test]
    fn phi_evicts_before_hard_ttl() {
        // With a 20s TTL a silent member used to linger for 20 rounds; the
        // phi detector, having learned the ~1s refresh cadence, suspects it
        // within a handful of rounds.
        let mut agents = make_agents(8, 4);
        let t = run_rounds(&mut agents, 8, 0);
        let mut survivors: Vec<Agent> = agents.into_iter().filter(|a| a.id() != 1).collect();
        let t2 = run_rounds(&mut survivors, 10, t);
        assert!(
            SimTime::from_micros(t2).since(SimTime::from_micros(t)) < small_config().row_ttl,
            "test horizon must stay inside the TTL for this to mean anything"
        );
        assert!(
            survivors[0].table(0).get(1).is_none(),
            "phi should evict the silent member before the hard TTL"
        );
        // The detector state is queryable while a row is alive.
        let a0 = &survivors[0];
        assert!(a0.suspicion(0, 2, SimTime::from_micros(t2)).is_some());
        assert!(a0.suspicion(0, 1, SimTime::from_micros(t2)).is_none(), "evicted: gone");
    }

    #[test]
    fn level_of_rejects_foreign_zones() {
        let layout = ZoneLayout::new(16, 4);
        let a = Agent::new(0, &layout, small_config(), vec![]);
        assert_eq!(a.level_of(&ZoneId::root()), Some(1));
        assert_eq!(a.level_of(&ZoneId::root().child(0)), Some(0));
        assert_eq!(a.level_of(&ZoneId::root().child(1)), None);
        assert_eq!(a.level_of(&ZoneId::root().child(0).child(0)), None);
    }

    #[test]
    fn reserved_attrs_cannot_be_spoofed() {
        let layout = ZoneLayout::new(4, 4);
        let mut a = Agent::new(2, &layout, small_config(), vec![]);
        a.set_local_attr("id", 999i64);
        a.set_local_attr("nmembers", 50i64);
        let mut rng = fork(0, 0);
        a.on_tick(SimTime::from_secs(1), &mut rng);
        let row = a.table(0).get(2).unwrap();
        assert_eq!(row.get("id").and_then(|v| v.as_i64()), Some(2));
        assert_eq!(row.get("nmembers").and_then(|v| v.as_i64()), Some(1));
    }

    #[test]
    fn reset_clears_tables_but_keeps_identity() {
        let mut agents = make_agents(4, 4);
        run_rounds(&mut agents, 4, 0);
        assert!(agents[2].table(0).len() > 1);
        agents[2].reset();
        assert_eq!(agents[2].table(0).len(), 0);
        assert_eq!(agents[2].id(), 2);
    }

    #[test]
    fn incarnation_attr_only_when_nonzero() {
        let layout = ZoneLayout::new(4, 4);
        let mut a = Agent::new(2, &layout, small_config(), vec![]);
        let mut rng = fork(0, 0);
        a.on_tick(SimTime::from_secs(1), &mut rng);
        assert!(
            a.table(0).get(2).unwrap().get("incar").is_none(),
            "incarnation 0 must not appear on the wire (legacy byte-compat)"
        );
        a.set_incarnation(77);
        assert_eq!(a.incarnation(), 77);
        a.on_tick(SimTime::from_secs(2), &mut rng);
        assert_eq!(a.table(0).get(2).unwrap().get("incar").and_then(|v| v.as_i64()), Some(77));
    }

    #[test]
    fn newer_incarnation_fences_stale_rows_and_reports_bump() {
        let mut agents = make_agents(4, 4);
        let t = run_rounds(&mut agents, 6, 0);
        assert!(agents[0].table(0).get(1).unwrap().get("incar").is_none());
        // Cold restart of agent 1: replicated state gone, incarnation bumped.
        agents[1].reset();
        agents[1].set_incarnation(t + 1);
        let t2 = run_rounds(&mut agents, 4, t);
        let row = agents[0].table(0).get(1).expect("restarted node re-joined");
        assert_eq!(row.get("incar").and_then(|v| v.as_i64()), Some((t + 1) as i64));
        let bumps = agents[0].take_incarnation_bumps();
        assert!(bumps.contains(&1), "host must observe the bump: {bumps:?}");
        assert!(agents[0].take_incarnation_bumps().is_empty(), "drain empties the list");
        // Forge a pre-restart (incarnation-0) row with an artificially newer
        // stamp: newest-wins would admit it, the incarnation fence must not.
        let mut b = MibBuilder::new();
        b.set("id", 1i64);
        let forged = Arc::new(Mib::new(
            Stamp { issued_us: t2 + 10_000_000, version: 9_999, origin: 1 },
            b.into_attrs(),
        ));
        let zone = agents[0].chain()[0].clone();
        let changed = agents[0].merge_rows(
            SimTime::from_micros(t2 + 1),
            &[TableRows { zone, rows: vec![(1, forged)] }],
        );
        assert_eq!(changed, 0, "stale-incarnation row must be fenced");
        assert!(agents[0].table(0).get(1).unwrap().get("incar").is_some());
    }

    /// A hand-crafted malformed row batch: out-of-range label, future
    /// stamp, and a leaf row with no `id`.
    fn malformed_batch(zone: ZoneId) -> GossipMsg {
        let stamp = |t: u64, o: u32| Stamp { issued_us: t, version: 1, origin: o };
        GossipMsg::Rows {
            rows: vec![TableRows {
                zone,
                rows: vec![
                    (63, Arc::new(MibBuilder::new().attr("id", 2i64).build(stamp(1_000_000, 2)))),
                    (2, Arc::new(MibBuilder::new().attr("id", 2i64).build(stamp(999_000_000, 2)))),
                    (
                        3,
                        Arc::new(MibBuilder::new().attr("load", 0.5f64).build(stamp(1_000_000, 3))),
                    ),
                ],
            }],
        }
    }

    #[test]
    fn ingest_validation_rejects_malformed_rows() {
        let layout = ZoneLayout::new(4, 4);
        let mut b = Agent::new(1, &layout, small_config(), vec![0]);
        b.set_ingest_validation(true);
        let mut rng = fork(9, 0);
        let now = SimTime::from_secs(1);
        b.on_tick(now, &mut rng);
        let held = b.table(0).len();
        b.on_message(now, 2, malformed_batch(b.chain()[0].clone()), &mut rng);
        assert_eq!(b.table(0).len(), held, "malformed rows must not merge");
        // A well-formed row from the same sender still merges.
        let good =
            Arc::new(MibBuilder::new().attr("id", 2i64).attr("nmembers", 1i64).build(Stamp {
                issued_us: 900_000,
                version: 1,
                origin: 2,
            }));
        let msg = GossipMsg::Rows {
            rows: vec![TableRows { zone: b.chain()[0].clone(), rows: vec![(2, good)] }],
        };
        b.on_message(now, 2, msg, &mut rng);
        assert_eq!(b.table(0).len(), held + 1, "validation must not block honest rows");
    }

    #[test]
    fn validation_off_admits_what_validation_on_rejects() {
        // Control for the test above: the same malformed batch merges when
        // validation is off (the pre-hardening behavior), so the test is
        // exercising the validator and not some other fence.
        let layout = ZoneLayout::new(4, 4);
        let mut b = Agent::new(1, &layout, small_config(), vec![0]);
        let mut rng = fork(9, 0);
        let now = SimTime::from_secs(1);
        b.on_tick(now, &mut rng);
        let held = b.table(0).len();
        b.on_message(now, 2, malformed_batch(b.chain()[0].clone()), &mut rng);
        assert!(b.table(0).len() > held, "without validation the malformed rows merge");
    }

    #[test]
    fn scrub_evicts_in_place_corruption_and_gossip_reheals() {
        let mut agents = make_agents(4, 4);
        let t = run_rounds(&mut agents, 6, 0);
        let now = SimTime::from_micros(t);
        assert_eq!(agents[0].table(0).len(), 4);
        assert_eq!(agents[0].scrub(now), 0, "healthy state needs no repair");

        let mut rng = fork(5, 1);
        let hit = agents[0].corrupt_rows(&mut rng, 2);
        assert_eq!(hit, 2);
        let evicted = agents[0].scrub(now);
        assert_eq!(evicted, hit, "scrub evicts exactly the scrambled rows");
        assert_eq!(agents[0].table(0).len(), 2);

        // The evicted labels are missing (not tombstoned), so anti-entropy
        // re-learns the intact rows from any neighbor.
        let t = run_rounds(&mut agents, 4, t);
        assert_eq!(agents[0].table(0).len(), 4);
        for (_, row) in agents[0].table(0).iter() {
            assert!(row.get("id").is_some(), "re-learned rows are intact");
        }
        assert_eq!(agents[0].scrub(SimTime::from_micros(t)), 0);
    }

    #[test]
    fn adhoc_query_over_replicas() {
        let mut agents = make_agents(12, 4);
        for (i, a) in agents.iter_mut().enumerate() {
            a.set_local_attr("temp", i as i64 * 10);
        }
        run_rounds(&mut agents, 12, 0);
        let a = &agents[0];
        // Query the leaf-zone table (members 0..4).
        let out = a
            .query(&a.chain()[0].clone(), "SELECT MAX(temp) AS t, COUNT() AS n")
            .expect("replicated")
            .expect("evaluates");
        let get = |k: &str| out.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(get("t"), Some(AttrValue::Int(30)));
        assert_eq!(get("n"), Some(AttrValue::Int(4)));
        // Root query over zone summaries.
        let out = a.query(&ZoneId::root(), "SELECT SUM(nmembers) AS n").unwrap().unwrap();
        assert_eq!(out[0].1, AttrValue::Int(12));
        // Foreign zone: not replicated here.
        assert!(a.query(&ZoneId::root().child(9), "SELECT COUNT() AS n").is_none());
        // Malformed program: error, not panic.
        assert!(a.query(&ZoneId::root(), "SELEKT").unwrap().is_err());
    }

    #[test]
    fn gossip_wire_sizes_are_positive_and_ordered() {
        let mut agents = make_agents(8, 4);
        let mut rng = fork(1, 1);
        let out = agents[0].on_tick(SimTime::from_secs(1), &mut rng);
        assert!(!out.is_empty());
        for (_, m) in &out {
            assert!(m.wire_size() > 8);
        }
        // Delta gossip may legitimately shrink a round to a digest-only
        // exchange, but never to a free one.
        let mut agents = make_delta_agents(8, 4);
        let mut rng = fork(1, 1);
        let out = agents[0].on_tick(SimTime::from_secs(1), &mut rng);
        assert!(!out.is_empty());
        for (_, m) in &out {
            assert!(m.wire_size() > 0);
        }
    }
}
