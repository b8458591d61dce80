//! The NewsWire end-system node — "a single application that people can
//! download and use to insert themselves into the Collaborative Content
//! Delivery Network" (paper §8).
//!
//! One node composes: an Astrolabe [`Agent`] (membership, aggregation,
//! representative election), the forwarding component of §9 (queues,
//! duplicate suppression, redundancy), the end-system [`MessageCache`]
//! (revision fusion, repair, state transfer), subscription matching with
//! the §6 exact final test, and — when equipped with a
//! [`PublisherCredential`] — the restricted publisher application of §8
//! (authentication, flow control, scoped publishing).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use amcast::{
    route, zone_reps, Action, BaselineHint, CoverageWindow, FilterSpec, ForwardEvent, ForwardLog,
    ForwardingQueues, LogRecord, RangeSummary, SeqLog, Strategy,
};
use astrolabe::{
    Agent, AttrValue, Certificate, GossipMsg, KeyId, Mib, MibBuilder, RotationRecord, Signature,
    Stamp, TableRows, TrustRegistry, ZoneId,
};
use filters::BitArray;
use newsml::{Category, ItemId, NewsItem, PublisherId};
use obs::{ctr, gauge, kind, series, Layer};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::{
    Context, CorruptionOp, LiarAction, LiarMode, Node, NodeId, PhiAccrualDetector, PhiConfig,
    RestartMode, SimDuration, SimTime, TimerId,
};

use crate::auth::{
    verify_bare_item, verify_epoch_attest, verify_item, EpochAttest, PublisherCredential,
};
use crate::cache::{CacheOutcome, MessageCache};
use crate::config::{NewsWireConfig, SubscriptionModel};
use crate::flow::TokenBucket;
use crate::persist;
use crate::subscription::{item_position_groups, Subscription};
use crate::wire::{msg_id_of, DeltaBasis, Envelope, NewsWireMsg, SignedItem};

/// Publisher-side state (present only on publisher nodes).
#[derive(Debug)]
pub struct PublisherState {
    /// The CA-issued credential.
    pub credential: PublisherCredential,
    bucket: TokenBucket,
    default_scope: ZoneId,
    /// Items accepted and disseminated.
    pub published: u64,
    /// Items refused by flow control.
    pub rate_limited: u64,
}

/// One successful delivery to the local application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The delivered item.
    pub item: ItemId,
    /// Its dissemination id.
    pub msg_id: u64,
    /// Publisher issue time.
    pub published: SimTime,
    /// Local delivery time.
    pub delivered: SimTime,
    /// True when the item arrived through cache repair rather than the
    /// multicast tree.
    pub via_repair: bool,
}

/// Per-node counters for the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Items delivered to the application (subscription matched).
    pub delivered: u64,
    /// Duplicate arrivals suppressed.
    pub duplicates: u64,
    /// Items that reached this leaf but failed the exact structural test —
    /// Bloom false-positive deliveries (§6's "final test").
    pub bloom_fp_deliveries: u64,
    /// Items that matched structurally but were rejected by the SQL
    /// predicate.
    pub predicate_filtered: u64,
    /// Forwards rejected for bad signatures/certificates/scopes.
    pub auth_rejects: u64,
    /// Publish requests refused (not a publisher here).
    pub publish_denied: u64,
    /// Items unroutable at this node.
    pub route_failures: u64,
    /// Repair requests answered.
    pub repairs_served: u64,
    /// Items shipped in repair replies.
    pub repair_items_sent: u64,
    /// Forward/Deliver messages transmitted.
    pub forwards_sent: u64,
    /// Peak forwarding-queue length.
    pub peak_queue: usize,
    /// `ForwardAck`s received for pending hand-offs.
    pub acks_received: u64,
    /// Hand-offs retransmitted to the same representative after a timeout.
    pub ack_retries: u64,
    /// Hand-offs failed over to an alternative representative.
    pub ack_failovers: u64,
    /// Hand-offs abandoned to anti-entropy after exhausting failovers.
    pub handoffs_abandoned: u64,
    /// Repair requests re-targeted at a new peer after a reply timeout.
    pub repair_retargets: u64,
    /// Hand-offs failed over early because the phi detector already
    /// suspected the representative (retries against it would be wasted).
    pub suspect_failovers: u64,
    /// Anti-entropy reconcile requests sent.
    pub reconcile_requests: u64,
    /// Items received through reconcile replies.
    pub reconcile_items_recv: u64,
    /// Reconcile requests answered (with at least one item).
    pub reconciles_served: u64,
    /// Items shipped in reconcile replies.
    pub reconcile_items_sent: u64,
    /// Payload bytes shipped in reconcile replies (repair-traffic cost).
    pub reconcile_bytes_sent: u64,
    /// Reconcile requests re-targeted after a reply timeout.
    pub reconcile_retargets: u64,
    /// Cold restarts survived (durable or amnesiac — not freezes).
    pub cold_restarts: u64,
    /// Cold-restart recoveries that reached the caught-up criterion (log
    /// hole-free and at the neighborhood high-water mark).
    pub recoveries_completed: u64,
    /// Items backfilled through repair/reconcile while recovering from a
    /// cold restart.
    pub recovery_backfill_items: u64,
    /// Bare items (repair/reconcile/restore paths) refused because their
    /// detached signature did not verify — forged or tampered content
    /// stopped at the admission funnel (DESIGN §12).
    pub forged_rejects: u64,
    /// Epoch adoptions refused because the claimed epoch exceeded the
    /// publisher's signed attestation.
    pub signed_epoch_refusals: u64,
    /// Peers quarantined after their misbehavior score crossed the
    /// threshold.
    pub peers_quarantined: u64,
    /// Admissions refused because the signing key-epoch was revoked by an
    /// adopted rotation record — any of the five admission paths (DESIGN
    /// §15). Distinct from `forged_rejects`: the signature *verifies*, the
    /// key is just no longer trusted.
    pub revoked_key_rejects: u64,
    /// Cached items retroactively purged because the key that signed them
    /// was revoked after their admission.
    pub retro_purged: u64,
    /// Unendorsed identities placed in the bounded probation set by Sybil
    /// admission control.
    pub probation_holds: u64,
}

/// Metadata key carrying the publisher's §8 dissemination predicate.
pub const DISSEMINATION_PREDICATE: &str = "ds$predicate";

/// Metadata key carrying the §8 zone scope of a scoped publish (the
/// [`ZoneId`] display form, e.g. `"/3"`). The envelope's scope confines
/// tree routing, but cache repair and anti-entropy reconciliation ship bare
/// items from caches — an out-of-zone node sees the scoped item's sequence
/// number as a log hole and pulls it. Stamping the scope under the
/// signature lets every delivery path re-check confinement.
pub const DISSEMINATION_SCOPE: &str = "ds$scope";

const GOSSIP_TIMER: u64 = 1;
const DRAIN_TIMER: u64 = 2;
const REPAIR_TIMER: u64 = 3;
const REPAIR_WAIT_TIMER: u64 = 4;
const RECONCILE_WAIT_TIMER: u64 = 5;
/// Timer tags at or above this carry a pending hand-off id in the low bits.
const ACK_TAG_BASE: u64 = 1 << 32;

/// Prefix of the gossip-row attributes carrying per-publisher article-log
/// digests (`sys$ae:<publisher>` → [`RangeSummary::encode`] output). The
/// digests ride on the rows Astrolabe already gossips — anti-entropy hole
/// detection costs no extra message types.
pub const AE_ATTR_PREFIX: &str = "sys$ae:";

/// Prefix of the gossip-row attributes carrying adopted trust-root
/// rotation records (`sys$rot:<publisher>` → [`RotationRecord::encode`]
/// output). Revocation propagates on the rows Astrolabe already gossips,
/// doubled by a rider on every outgoing gossip message (DESIGN §15).
pub const ROT_ATTR_PREFIX: &str = "sys$rot:";

/// Row attribute carrying a node's registry-endorsed join ticket — the CA
/// signature over its identity, hex-encoded. Consulted by Sybil admission
/// control when `admission` is on.
pub const JOIN_TICKET_ATTR: &str = "sys$jt";

/// Identity base used by the Sybil-flood adversary for fabricated member
/// rows; experiment verdicts scan honest tables for ids at or above this.
pub const SYBIL_ID_BASE: u32 = 0x5B11_0000;

/// Bound on the probation set tracking refused unendorsed identities.
const PROBATION_CAP: usize = 256;

/// Entries retained per per-publisher article log.
const ARTICLE_LOG_CAPACITY: usize = 8192;

/// Disk record keys (see `persist` for the formats). `incar` and `sub` are
/// written once and fsynced immediately; `state` is written write-behind on
/// gossip ticks and fsynced every [`STATE_FSYNC_TICKS`]th tick, so a crash
/// can lose the newest unsynced snapshots (the honest price of write-behind
/// durability — anti-entropy repairs the difference).
const DISK_KEY_INCAR: &str = "incar";
const DISK_KEY_SUB: &str = "sub";
const DISK_KEY_STATE: &str = "state";

/// Gossip ticks between fsyncs of the `state` record.
const STATE_FSYNC_TICKS: u64 = 4;

/// Gossip ticks between self-audit sweeps when defenses are on: scrub
/// structurally corrupt zone rows, re-derive the own subscription
/// advertisement from ground truth, and fence article logs back to the
/// neighbour-consensus epoch. Every few rounds rather than every round —
/// the audit is a full-table sweep plus a Bloom re-render.
const SELF_AUDIT_TICKS: u64 = 5;

/// Misbehavior weight of an unverifiable signature (envelope or bare item)
/// from a peer — the strongest evidence of lying, since honest relays never
/// alter signed bytes.
const MISBEHAVIOR_FORGED: u32 = 2;
/// Misbehavior weight of a reply claiming an epoch beyond the publisher's
/// signed attestation.
const MISBEHAVIOR_FENCE: u32 = 1;
/// Misbehavior weight of a digest contradiction: a peer whose gossiped
/// digest advertised coverage for our holes replies with an empty log.
const MISBEHAVIOR_CONTRADICTION: u32 = 1;

/// Forwarding queue discipline (paper §9: "weighted round-robin").
const FORWARD_STRATEGY: Strategy = Strategy::WeightedRoundRobin;

/// Forwarding service time per message: models forwarding bandwidth, so
/// queues build up when the offered load exceeds it.
const SERVICE_INTERVAL: SimDuration = SimDuration::from_micros(500);

/// Maximum items shipped per repair or reconcile reply.
const REPAIR_BATCH: usize = 64;

/// Acknowledged hand-offs: retries against the *same* representative
/// before failing over.
const ACK_RETRIES: u32 = 1;
/// Backoff multiplier applied to `ack_timeout` per retry (and to the
/// reconcile reply timeout per re-target).
const ACK_BACKOFF: u64 = 2;
/// Alternative representatives tried after retries are exhausted; beyond
/// this the hand-off is abandoned to anti-entropy repair. Also caps
/// reconcile re-targets.
const ACK_MAX_FAILOVERS: u32 = 2;

/// Misbehavior score at which a peer is quarantined (DESIGN §12): a peer
/// at or past it is treated as suspect for repair, reconciliation and
/// hand-off failover until it restarts under a fresh incarnation. Only
/// consulted when `defenses` is on.
const QUARANTINE_THRESHOLD: u32 = 3;

/// Most baseline hints a repair/reconcile request carries (16 bytes each):
/// enough to cover every live story line in the target configurations
/// without letting the request itself outgrow the reply it is optimizing.
const MAX_BASELINES: usize = 256;

/// One outstanding reconcile request awaiting its `ReconcileReply`.
#[derive(Debug)]
struct PendingReconcile {
    peer: NodeId,
    publisher: PublisherId,
    /// The inclusive ranges requested (settled against the reply summary).
    ranges: Vec<(u64, u64)>,
    timer: TimerId,
    retargets: u32,
    /// True when the peer was chosen because its *gossiped digest* vouched
    /// coverage for our holes (as opposed to a blind cross-zone ask) — an
    /// empty reply then contradicts the advertisement.
    via_digest: bool,
}

/// One unacknowledged tree hand-off awaiting its `ForwardAck`.
#[derive(Debug)]
struct PendingHandoff {
    env: Arc<Envelope>,
    zone: ZoneId,
    rep: u32,
    /// Representatives already attempted (including `rep`).
    tried: Vec<u32>,
    /// Timeouts burned against the current representative.
    attempt: u32,
    /// Alternative representatives already consumed.
    failovers: u32,
    timer: TimerId,
}

/// A full NewsWire node.
#[derive(Debug)]
pub struct NewsWireNode {
    /// The embedded Astrolabe agent.
    pub agent: Agent,
    cfg: NewsWireConfig,
    registry: Arc<TrustRegistry>,
    /// This node's subscription.
    pub subscription: Subscription,
    publisher: Option<PublisherState>,
    /// The end-system message cache.
    pub cache: MessageCache,
    coverage: CoverageWindow,
    queues: ForwardingQueues<(NodeId, NewsWireMsg)>,
    draining: bool,
    /// Counters.
    pub stats: NodeStats,
    /// The §9 forwarding log ("each forwarding component maintains a log
    /// file"): a bounded trace of duties, forwards, deliveries and drops.
    pub log: ForwardLog,
    /// Application deliveries in order.
    pub deliveries: Vec<DeliveryRecord>,
    /// Constant added to the advertised forwarding load. Publisher nodes
    /// set this high so representative election routes around them —
    /// the paper's publishers input items but should not also carry the
    /// system's forwarding burden.
    pub load_bias: f64,
    /// In-flight acknowledged hand-offs, keyed by hand-off id.
    pending: HashMap<u64, PendingHandoff>,
    /// Hand-off ids pending per `(msg_id, zone)`: one ack settles them all.
    ack_index: HashMap<(u64, ZoneId), Vec<u64>>,
    next_handoff: u64,
    /// Outstanding repair request: `(peer, reply timer, retargets so far)`.
    awaiting_repair: Option<(NodeId, TimerId, u32)>,
    /// Per-publisher article logs: which sequence numbers this node has
    /// *seen* (delivered, cached, or deliberately filtered). Gaps are the
    /// holes anti-entropy reconciliation pulls.
    article_logs: BTreeMap<PublisherId, SeqLog<()>>,
    /// Phi-accrual detectors over peers this node has heard from; any
    /// message counts as a heartbeat. Replaces the fixed retry cliff in the
    /// ack layer: a suspect representative is failed over immediately.
    peer_health: HashMap<u32, PhiAccrualDetector>,
    /// Outstanding reconcile request, at most one in flight.
    awaiting_reconcile: Option<PendingReconcile>,
    /// Round-robin cursor over publishers for reconcile target selection.
    reconcile_cursor: usize,
    /// When a cold restart began, while its recovery is still in progress.
    recovering_since: Option<SimTime>,
    /// Items backfilled during the current recovery (for the done trace).
    backfill_this_recovery: u64,
    /// Gossip ticks since start/restart (drives the `state` fsync cadence).
    gossip_ticks: u64,
    /// Fingerprint of the last `state` snapshot written to disk; snapshots
    /// are skipped while the durable state has not moved.
    persisted_fingerprint: u64,
    /// Last observed simulated time (updated on every message and timer);
    /// what state-corruption strikes — which carry no clock — use to stamp
    /// fabricated cache inserts.
    clock: SimTime,
    /// Certificates of known publishers: pre-installed at deployment build
    /// (out-of-band trust distribution) and learned from verified
    /// envelopes. What lets the bare-item paths verify without an envelope.
    publisher_certs: HashMap<PublisherId, Certificate>,
    /// Detached `(key, signature)` per cached item, recorded at admission
    /// and served alongside bare items so receivers can verify in turn.
    item_sigs: HashMap<ItemId, (KeyId, Signature)>,
    /// Highest verified publisher-signed epoch attestation per publisher —
    /// the authority the epoch fence trusts over neighbor consensus.
    authority: HashMap<PublisherId, EpochAttest>,
    /// Per-peer misbehavior score (invalid signatures, refused-fence
    /// replies, digest contradictions). Crossing
    /// `QUARANTINE_THRESHOLD` quarantines the peer from selection.
    misbehavior: HashMap<u32, u32>,
    /// Revoked `(publisher, key)` pairs from adopted rotation records —
    /// the fence every admission path consults *before* signature
    /// verification (a stolen key signs validly; DESIGN §15).
    revoked: HashSet<(PublisherId, KeyId)>,
    /// Highest rotation serial adopted per publisher: the freshness fence
    /// (an older record cannot un-revoke a newer one).
    rotation_serials: HashMap<PublisherId, u32>,
    /// Adopted rotation records, in deterministic publisher order for
    /// persistence and re-publication.
    rotations: BTreeMap<PublisherId, Arc<RotationRecord>>,
    /// The most recently adopted record, re-announced as a rider on every
    /// outgoing gossip message.
    rotation_rider: Option<Arc<RotationRecord>>,
    /// Trusted certificates per `(publisher, key)` beyond the primary —
    /// how a successor certificate learned from a verified envelope
    /// coexists with a not-yet-rotated primary, so honest relays of
    /// new-key items never take forgery strikes.
    alt_certs: HashMap<(PublisherId, KeyId), Certificate>,
    /// Pre-rotation primaries, retained for the `StolenKey` adversary arm
    /// (the attacker keeps the compromised key after the victim re-keys);
    /// never consulted by any admission path.
    retired_certs: HashMap<PublisherId, Certificate>,
    /// Unendorsed identities refused by Sybil admission control, bounded
    /// by [`PROBATION_CAP`]. Refused rows never enter the tables, so
    /// probationers cannot influence epoch consensus, representative
    /// election, or repair/reconcile peer selection.
    probation: BTreeSet<u32>,
    /// When this node last adopted a rotation record (simulated time).
    /// The oracle uses it to split forged deliveries into sanctioned
    /// exposure (before the revocation reached this node) and true
    /// violations (the fence was armed and failed anyway).
    pub rotation_adopted_at: Option<SimTime>,
}

impl NewsWireNode {
    /// Creates a subscriber node.
    pub fn new(mut agent: Agent, cfg: NewsWireConfig, registry: Arc<TrustRegistry>) -> Self {
        let cache = MessageCache::new(cfg.cache);
        agent.set_ingest_validation(cfg.defenses);
        let mut node = NewsWireNode {
            agent,
            cfg,
            registry,
            subscription: Subscription::new(),
            publisher: None,
            cache,
            coverage: CoverageWindow::new(8192),
            queues: ForwardingQueues::new(FORWARD_STRATEGY),
            draining: false,
            stats: NodeStats::default(),
            log: ForwardLog::default(),
            deliveries: Vec::new(),
            load_bias: 0.0,
            pending: HashMap::new(),
            ack_index: HashMap::new(),
            next_handoff: 0,
            awaiting_repair: None,
            article_logs: BTreeMap::new(),
            peer_health: HashMap::new(),
            awaiting_reconcile: None,
            reconcile_cursor: 0,
            recovering_since: None,
            backfill_this_recovery: 0,
            gossip_ticks: 0,
            persisted_fingerprint: 0,
            clock: SimTime::ZERO,
            publisher_certs: HashMap::new(),
            item_sigs: HashMap::new(),
            authority: HashMap::new(),
            misbehavior: HashMap::new(),
            revoked: HashSet::new(),
            rotation_serials: HashMap::new(),
            rotations: BTreeMap::new(),
            rotation_rider: None,
            alt_certs: HashMap::new(),
            retired_certs: HashMap::new(),
            probation: BTreeSet::new(),
            rotation_adopted_at: None,
        };
        node.publish_join_ticket();
        node
    }

    /// Publishes this node's registry-endorsed join ticket (`sys$jt`) into
    /// its own MIB row — the credential Sybil admission control demands of
    /// every leaf-zone member. The registry stands in for the CA: a real
    /// node obtained its endorsement at join time; fabricated identities
    /// have no ticket to show. No-op with admission off, keeping legacy
    /// rows (and wire bytes) unchanged.
    fn publish_join_ticket(&mut self) {
        if !self.cfg.admission {
            return;
        }
        let ticket = self.registry.endorse_join(self.agent.id());
        self.agent.set_local_attr(JOIN_TICKET_ATTR, format!("{:016x}", ticket.0));
    }

    /// Equips the node as a publisher (the §8 producer application).
    /// `rate_per_min`/`burst` configure flow control; `default_scope` is
    /// used when a publish request names no scope.
    #[must_use]
    pub fn with_publisher(
        mut self,
        credential: PublisherCredential,
        default_scope: ZoneId,
        rate_per_min: u32,
        burst: u32,
    ) -> Self {
        // A publisher trusts itself: its own certificate and a fresh
        // epoch-0 attestation anchor the signed-authority maps.
        self.install_publisher_authority(
            credential.certificate.clone(),
            credential.attest_epoch(0),
        );
        self.publisher = Some(PublisherState {
            credential,
            bucket: TokenBucket::new(rate_per_min, burst),
            default_scope,
            published: 0,
            rate_limited: 0,
        });
        self
    }

    /// Pre-installs a publisher's certificate and signed epoch attestation
    /// — the out-of-band trust distribution a real deployment performs
    /// through its software package or directory service. With these in
    /// place every bare-item admission can verify from the first message
    /// and the epoch fence has signed authority from the start.
    pub fn install_publisher_authority(&mut self, certificate: Certificate, attest: EpochAttest) {
        self.publisher_certs.insert(attest.publisher, certificate);
        self.absorb_attest(&attest);
    }

    /// Verifies and adopts a publisher-signed epoch attestation when it is
    /// newer than the one held. Only a certificate already trusted for the
    /// attesting publisher anchors the check — an attacker cannot smuggle
    /// authority by pairing a fabricated attestation with its own (valid)
    /// certificate for a different publisher id.
    fn absorb_attest(&mut self, attest: &EpochAttest) {
        // Admission path 5: an attestation signed by a revoked key-epoch
        // carries no authority, however valid the signature (a compromised
        // key attests bogus epochs that verify).
        if self.cfg.defenses && self.key_revoked(attest.publisher, attest.key) {
            self.note_revoked_reject(5, attest.publisher);
            return;
        }
        if self.authority.get(&attest.publisher).is_some_and(|held| held.epoch >= attest.epoch) {
            return;
        }
        let Some(cert) = self.publisher_certs.get(&attest.publisher) else { return };
        if verify_epoch_attest(&self.registry, cert, attest) {
            self.authority.insert(attest.publisher, *attest);
        }
    }

    /// The publisher-signed authority epoch, when an attestation is held.
    fn authority_epoch(&self, publisher: PublisherId) -> Option<u32> {
        self.authority.get(&publisher).map(|a| a.epoch)
    }

    /// True when `key` for `publisher` has been revoked by an adopted
    /// rotation record. Every admission path checks this *before*
    /// signature verification — a compromised key signs validly, so the
    /// registry check alone cannot refuse it.
    fn key_revoked(&self, publisher: PublisherId, key: KeyId) -> bool {
        self.revoked.contains(&(publisher, key))
    }

    /// Accounts a revoked-key rejection on admission `path` (1 envelopes,
    /// 2 repair replies, 3 reconcile replies, 4 disk restore, 5 epoch
    /// attestations). Deliberately no misbehavior strike: honest peers
    /// keep relaying items they admitted before the revocation reached
    /// them, and striking them would quarantine the honest majority.
    fn note_revoked_reject(&mut self, path: u64, publisher: PublisherId) {
        self.stats.revoked_key_rejects += 1;
        obs::metric_add!(self.agent.id(), ctr::NW_REVOKED_KEY_REJECTS, 1);
        obs::trace_event!(
            self.agent.id(),
            Layer::News,
            kind::REVOKED_KEY_REJECT,
            path,
            u64::from(publisher.0)
        );
    }

    /// Admission path 1 (tree envelopes, `Forward` and `Deliver`): true
    /// when the envelope's signing key is revoked and the envelope must be
    /// dropped before verification — a revoked key-epoch signs *validly*.
    /// Takes no misbehavior strike: the relay may be honest but behind on
    /// the rotation.
    fn envelope_fenced(&mut self, env: &Envelope) -> bool {
        if self.cfg.defenses && self.key_revoked(env.item.id.publisher, env.key) {
            self.note_revoked_reject(1, env.item.id.publisher);
            return true;
        }
        false
    }

    /// The trusted certificate for `(publisher, key)`: the primary when
    /// its key matches, otherwise an alternate learned from a verified
    /// envelope (e.g. the rotation successor before this node adopts the
    /// record).
    fn cert_for(&self, publisher: PublisherId, key: KeyId) -> Option<&Certificate> {
        match self.publisher_certs.get(&publisher) {
            Some(cert) if cert.key == key => Some(cert),
            _ => self.alt_certs.get(&(publisher, key)),
        }
    }

    /// Verifies and adopts a trust-root rotation record (DESIGN §15).
    /// Serial-fenced — an older record cannot un-revoke a newer one — and
    /// registry-verified end to end (CA signature over the record plus the
    /// successor certificate's own chain). On adoption: the revoked key
    /// joins the fence set, the successor becomes the primary certificate
    /// (the old primary retires), any held epoch attestation signed by the
    /// revoked key is dropped, cached items admitted under the revoked key
    /// are retroactively purged, and the record is re-published for
    /// epidemic propagation (a `sys$rot:` row attribute plus the gossip
    /// rider). Returns whether the record was adopted.
    fn adopt_rotation(&mut self, record: &RotationRecord) -> bool {
        if !self.cfg.defenses {
            return false;
        }
        let Some(publisher) = record
            .successor
            .claim("publisher")
            .and_then(|v| v.parse::<u16>().ok())
            .map(PublisherId)
        else {
            return false;
        };
        if self.rotation_serials.get(&publisher).is_some_and(|&held| record.serial <= held) {
            return false;
        }
        if !self.registry.verify_rotation(record) {
            return false;
        }
        self.rotation_serials.insert(publisher, record.serial);
        self.revoked.insert((publisher, record.revoked));
        self.alt_certs.remove(&(publisher, record.revoked));
        if let Some(primary) = self.publisher_certs.get(&publisher) {
            if primary.key == record.revoked {
                self.retired_certs.insert(publisher, primary.clone());
            }
        }
        self.publisher_certs.insert(publisher, record.successor.clone());
        if self.authority.get(&publisher).is_some_and(|a| a.key == record.revoked) {
            self.authority.remove(&publisher);
        }
        // Retroactive purge: items admitted under the key before its
        // revocation horizon are unverifiable history and must not be
        // served onward. Deliveries already made and the seen-log stay —
        // the oracle accounts the exposure window separately.
        let victims: Vec<ItemId> = self
            .item_sigs
            .iter()
            .filter(|&(id, &(key, _))| id.publisher == publisher && key == record.revoked)
            .map(|(&id, _)| id)
            .collect();
        let mut purged = 0u64;
        for id in victims {
            self.item_sigs.remove(&id);
            if self.cache.purge(id) {
                purged += 1;
            }
        }
        if purged > 0 {
            self.stats.retro_purged += purged;
            obs::metric_add!(self.agent.id(), ctr::NW_RETRO_PURGED_ITEMS, purged);
            obs::trace_event!(
                self.agent.id(),
                Layer::News,
                kind::RETRO_PURGE,
                u64::from(publisher.0),
                purged
            );
        }
        obs::metric_add!(self.agent.id(), ctr::CERT_REVOCATIONS_SEEN, 1);
        obs::trace_event!(
            self.agent.id(),
            Layer::News,
            kind::CERT_REVOKED,
            u64::from(publisher.0),
            u64::from(record.serial)
        );
        let record = Arc::new(record.clone());
        self.agent.set_local_attr(&format!("{ROT_ATTR_PREFIX}{}", publisher.0), record.encode());
        self.rotations.insert(publisher, Arc::clone(&record));
        self.rotation_rider = Some(record);
        self.rotation_adopted_at = Some(self.clock);
        true
    }

    /// Scans an incoming gossip exchange for `sys$rot:` row attributes and
    /// adopts any record that verifies — epidemic revocation propagation
    /// on the rows Astrolabe already gossips, at no extra message cost.
    fn scan_rotations(&mut self, g: &GossipMsg) {
        if !self.cfg.defenses {
            return;
        }
        let batches = match g {
            GossipMsg::DigestReply { rows, .. } | GossipMsg::Rows { rows } => rows,
            GossipMsg::Digest { .. } => return,
        };
        let mut found: Vec<RotationRecord> = Vec::new();
        for batch in batches {
            for (_, row) in &batch.rows {
                for (name, value) in row.attrs() {
                    if name.starts_with(ROT_ATTR_PREFIX) {
                        if let Some(rec) = value.as_str().and_then(RotationRecord::decode) {
                            found.push(rec);
                        }
                    }
                }
            }
        }
        for rec in found {
            self.adopt_rotation(&rec);
        }
    }

    /// Wraps an outgoing Astrolabe exchange with the rotation rider.
    fn gossip_msg(&self, g: GossipMsg) -> NewsWireMsg {
        NewsWireMsg::Gossip { g, rot: self.rotation_rider.clone() }
    }

    /// Sybil admission control (DESIGN §15), applied to incoming gossip
    /// *before* the embedded agent merges it: leaf-zone member rows must
    /// carry a registry-endorsed join ticket, and previously unseen
    /// identities are refused outright once the zone is at quota. Only
    /// this node's own leaf zone is filtered — higher-level rows are
    /// aggregates, not identities — and the single choke point protects
    /// everything downstream that reads the leaf table: epoch consensus,
    /// representative election, and repair/reconcile peer selection.
    fn filter_sybil_rows(&mut self, g: &mut GossipMsg) {
        if !self.cfg.admission {
            return;
        }
        let batches = match g {
            GossipMsg::DigestReply { rows, .. } | GossipMsg::Rows { rows } => rows,
            GossipMsg::Digest { .. } => return,
        };
        let leaf = self.agent.chain()[0].clone();
        let own_id = self.agent.id();
        let known: HashSet<u32> = self
            .agent
            .table(0)
            .iter()
            .filter_map(|(_, row)| row.get("id").and_then(|v| v.as_i64()))
            .filter_map(|v| u32::try_from(v).ok())
            .collect();
        let quota = self.cfg.zone_quota;
        let mut members = known.len();
        let mut refused: Vec<u32> = Vec::new();
        let registry = &self.registry;
        for batch in batches.iter_mut() {
            if batch.zone != leaf {
                continue;
            }
            batch.rows.retain(|(_, row)| {
                let Some(id) =
                    row.get("id").and_then(|v| v.as_i64()).and_then(|v| u32::try_from(v).ok())
                else {
                    // Structurally invalid rows are the ingest validator's
                    // problem, not admission control's.
                    return true;
                };
                if id == own_id {
                    return true;
                }
                let endorsed = row
                    .get(JOIN_TICKET_ATTR)
                    .and_then(|v| v.as_str())
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .is_some_and(|sig| registry.verify_join(id, Signature(sig)));
                if !endorsed {
                    refused.push(id);
                    return false;
                }
                if !known.contains(&id) {
                    if members >= quota {
                        refused.push(id);
                        return false;
                    }
                    members += 1;
                }
                true
            });
        }
        for id in refused {
            obs::metric_add!(self.agent.id(), ctr::SYBIL_JOINS_REFUSED, 1);
            if self.probation.len() < PROBATION_CAP && self.probation.insert(id) {
                self.stats.probation_holds += 1;
                obs::metric_add!(self.agent.id(), ctr::NW_PROBATION_HOLDS, 1);
                obs::trace_event!(
                    self.agent.id(),
                    Layer::News,
                    kind::PROBATION_HOLD,
                    u64::from(id),
                    self.probation.len() as u64
                );
            }
        }
    }

    /// True when `peer` currently holds a leaf-table row carrying a valid
    /// registry-endorsed join ticket. Vacuously true with admission off.
    fn peer_endorsed(&self, peer: u32) -> bool {
        if !self.cfg.admission {
            return true;
        }
        self.agent.table(0).iter().any(|(_, row)| {
            row.get("id").and_then(|v| v.as_i64()).and_then(|v| u32::try_from(v).ok()) == Some(peer)
                && row
                    .get(JOIN_TICKET_ATTR)
                    .and_then(|v| v.as_str())
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .is_some_and(|sig| self.registry.verify_join(peer, Signature(sig)))
        })
    }

    /// Publisher-side state, when this node is a publisher.
    pub fn publisher(&self) -> Option<&PublisherState> {
        self.publisher.as_ref()
    }

    /// Installs the subscription and publishes the matching summary
    /// attributes into the node's MIB row (`subs` Bloom bits, or one
    /// `cats$p` mask per subscribed publisher).
    pub fn set_subscription(&mut self, sub: Subscription) {
        match self.cfg.model {
            SubscriptionModel::Bloom { bits, hashes } => {
                self.agent.set_local_attr("subs", sub.to_bloom(bits, hashes));
            }
            SubscriptionModel::CategoryMask => {
                for (publisher, _) in &sub.publishers {
                    let attr = self.cfg.model.attr_for(*publisher);
                    self.agent.set_local_attr(&attr, sub.mask_for(*publisher).0 as i64);
                }
            }
        }
        // The summary attrs just installed propagate upward through gossip
        // from the next round on.
        obs::trace_event!(self.agent.id(), Layer::News, kind::SUB_PROPAGATE);
        self.subscription = sub;
    }

    /// True when the item with `id` has been delivered to the application.
    pub fn has_item(&self, id: ItemId) -> bool {
        self.deliveries.iter().any(|d| d.item == id)
    }

    /// Snapshot of the servable article state: every cached item paired
    /// with the key and signature vouching for it, sorted by id. Two nodes
    /// with equal snapshots serve byte-identical content onward — the
    /// comparison surface for the post-revocation equivalence test
    /// (`tests/revocation.rs`): after a retroactive purge, nothing signed
    /// by the revoked key may remain servable, compromised run or not.
    pub fn served_articles(&self) -> Vec<(ItemId, u64, u64)> {
        let mut out: Vec<(ItemId, u64, u64)> = self
            .item_sigs
            .iter()
            .filter(|(id, _)| self.cache.contains(**id))
            .map(|(&id, &(key, sig))| (id, key.0, sig.0))
            .collect();
        out.sort_unstable();
        out
    }

    /// The per-publisher article log, when anything from `publisher` has
    /// been seen.
    pub fn article_log(&self, publisher: PublisherId) -> Option<&SeqLog<()>> {
        self.article_logs.get(&publisher)
    }

    /// Publishers with a non-empty article log, in id order.
    pub fn logged_publishers(&self) -> impl Iterator<Item = PublisherId> + '_ {
        self.article_logs.keys().copied()
    }

    /// Records that `id` has been seen (whatever the cache then decided).
    fn log_seen(&mut self, id: ItemId) {
        self.article_logs
            .entry(id.publisher)
            .or_insert_with(|| SeqLog::new(ARTICLE_LOG_CAPACITY))
            .insert(id.seq, ());
    }

    /// Phi tuning shared with the embedded Astrolabe agent: the same window
    /// and threshold, cadence floors from the gossip period
    /// (every live peer talks at least that often).
    fn phi_config(&self) -> PhiConfig {
        let gossip = self.agent.config().gossip_interval;
        PhiConfig {
            window: astrolabe::PHI_WINDOW,
            threshold: astrolabe::PHI_THRESHOLD,
            first_interval: gossip.checked_mul(2).unwrap_or(gossip),
            min_stddev: gossip,
        }
    }

    /// Any message from `from` is a heartbeat for its phi detector.
    fn note_alive(&mut self, from: NodeId, now: SimTime) {
        if from == NodeId::EXTERNAL {
            return;
        }
        let config = self.phi_config();
        self.peer_health
            .entry(from.0)
            .or_insert_with(|| PhiAccrualDetector::new(config))
            .heartbeat(now);
    }

    /// True when the phi detector suspects `peer` — or the misbehavior
    /// score has quarantined it. Folding quarantine in here covers every
    /// selection path at once (repair peers, cross-zone peers, ack
    /// failovers, reconcile sources). Unobserved peers are unknown, not
    /// suspect.
    fn peer_suspect(&self, peer: u32, now: SimTime) -> bool {
        self.quarantined(peer) || self.peer_health.get(&peer).is_some_and(|d| d.is_suspect(now))
    }

    /// True when `peer`'s misbehavior score has crossed the quarantine
    /// threshold (defenses on only).
    fn quarantined(&self, peer: u32) -> bool {
        self.cfg.defenses && self.misbehavior.get(&peer).is_some_and(|&s| s >= QUARANTINE_THRESHOLD)
    }

    /// Records a misbehavior strike against `peer`, tracing the quarantine
    /// transition when the score crosses the threshold. Unlike phi
    /// suspicion — which is about *silence* and decays as soon as the peer
    /// talks again — misbehavior is about *lying* and only clears when the
    /// peer restarts into a new incarnation.
    fn note_misbehavior(&mut self, peer: NodeId, weight: u32) {
        if peer == NodeId::EXTERNAL || !self.cfg.defenses {
            return;
        }
        let score = self.misbehavior.entry(peer.0).or_insert(0);
        let before = *score;
        *score = score.saturating_add(weight);
        if before < QUARANTINE_THRESHOLD && *score >= QUARANTINE_THRESHOLD {
            let after = u64::from(*score);
            self.stats.peers_quarantined += 1;
            obs::metric_add!(self.agent.id(), ctr::NW_QUARANTINES, 1);
            obs::trace_event!(
                self.agent.id(),
                Layer::News,
                kind::PEER_QUARANTINE,
                u64::from(peer.0),
                after
            );
        }
    }

    /// Drops phi-suspect entries from a candidate list — unless that would
    /// empty it (a suspect peer beats no peer at all).
    fn prefer_unsuspected(&self, candidates: &mut Vec<u32>, now: SimTime) {
        if candidates.iter().any(|&c| !self.peer_suspect(c, now)) {
            candidates.retain(|&c| !self.peer_suspect(c, now));
        }
    }

    /// The per-hop filter for an item under this deployment's model.
    fn filter_for(&self, item: &NewsItem) -> FilterSpec {
        match self.cfg.model {
            SubscriptionModel::Bloom { bits, hashes } => FilterSpec::BloomAny {
                attr: "subs".to_owned(),
                groups: item_position_groups(item, bits, hashes),
            },
            SubscriptionModel::CategoryMask => FilterSpec::MaskBits {
                attr: self.cfg.model.attr_for(item.id.publisher),
                mask: item.categories.iter().fold(0u64, |m, c| m | 1 << c.bit()),
            },
        }
    }

    /// Evaluates the item's embedded dissemination controls — the §8 zone
    /// scope and predicate, if any — against this node's own position and
    /// attributes. Fail-closed.
    fn dissemination_admits(&self, item: &NewsItem) -> bool {
        if let Some(src) = item.field(DISSEMINATION_SCOPE) {
            let in_scope = ZoneId::parse(&src)
                .is_some_and(|scope| scope.is_ancestor_of(&self.agent.chain()[0]));
            if !in_scope {
                return false;
            }
        }
        let Some(src) = item.field(DISSEMINATION_PREDICATE) else { return true };
        struct LocalAttrs<'a>(&'a Agent);
        impl astrolabe::RowSource for LocalAttrs<'_> {
            fn col(&self, name: &str) -> Option<std::borrow::Cow<'_, astrolabe::AttrValue>> {
                self.0.local_attr(name).map(std::borrow::Cow::Borrowed)
            }
        }
        match astrolabe::parse_predicate(&src) {
            Ok(expr) => astrolabe::eval_predicate(&expr, &LocalAttrs(&self.agent)).unwrap_or(false),
            Err(_) => false,
        }
    }

    fn handle_delivery(&mut self, now: SimTime, item: Arc<NewsItem>, via_repair: bool) {
        // Every arrival is *seen* — duplicates, obsolete revisions and
        // predicate-filtered items included. The log tracks knowledge, not
        // acceptance: a seen seq is never a hole to reconcile.
        self.log_seen(item.id);
        if !self.dissemination_admits(&item) {
            // Not addressed to this node (e.g. premium-only content on a
            // free node); neither delivered nor cached.
            self.stats.predicate_filtered += 1;
            obs::metric_add!(self.agent.id(), ctr::NW_PREDICATE_FILTERED, 1);
            return;
        }
        let id = item.id;
        let msg_id = msg_id_of(id);
        let published = SimTime::from_micros(item.issued_us);
        let interested = self.subscription.interested_in(&item);
        let matches = self.subscription.matches(&item);
        match self.cache.insert(item, now) {
            CacheOutcome::Duplicate => {
                self.stats.duplicates += 1;
                obs::metric_add!(self.agent.id(), ctr::NW_DUPLICATES, 1);
                return;
            }
            CacheOutcome::Obsolete => return,
            CacheOutcome::Stored | CacheOutcome::Fused => {}
        }
        if via_repair && self.recovering_since.is_some() {
            self.stats.recovery_backfill_items += 1;
            self.backfill_this_recovery += 1;
            obs::metric_add!(self.agent.id(), ctr::NW_BACKFILL_ITEMS, 1);
        }
        if matches {
            self.stats.delivered += 1;
            let latency_us = now.as_micros().saturating_sub(published.as_micros());
            obs::metric_add!(self.agent.id(), ctr::NW_DELIVERED, 1);
            if via_repair {
                obs::metric_add!(self.agent.id(), ctr::NW_DELIVERED_REPAIR, 1);
            }
            obs::series_record!(self.agent.id(), series::DELIVERY_LATENCY_US, latency_us);
            obs::trace_event!(self.agent.id(), Layer::News, kind::NW_DELIVER, msg_id, latency_us);
            self.deliveries.push(DeliveryRecord {
                item: id,
                msg_id,
                published,
                delivered: now,
                via_repair,
            });
        } else if !interested {
            if !via_repair {
                // Reached this leaf only because of Bloom aliasing; the
                // exact final test of §6 rejects it.
                self.stats.bloom_fp_deliveries += 1;
                obs::metric_add!(self.agent.id(), ctr::NW_BLOOM_FP, 1);
            }
        } else {
            self.stats.predicate_filtered += 1;
            obs::metric_add!(self.agent.id(), ctr::NW_PREDICATE_FILTERED, 1);
        }
    }

    fn enqueue(&mut self, ctx: &mut Context<'_, NewsWireMsg>, dst: NodeId, msg: NewsWireMsg) {
        let (child, priority) = match &msg {
            NewsWireMsg::Forward { zone, env } => {
                (zone.label().unwrap_or(0), env.item.urgency.level())
            }
            NewsWireMsg::Deliver { env } => ((dst.0 % 64) as u16, env.item.urgency.level()),
            _ => (0, 5),
        };
        self.queues.push(child, ctx.now().as_micros(), priority, (dst, msg));
        self.stats.peak_queue = self.stats.peak_queue.max(self.queues.len());
        obs::gauge_max!(self.agent.id(), gauge::NW_PEAK_QUEUE, self.queues.len());
        if !self.draining {
            self.draining = true;
            ctx.set_timer(SERVICE_INTERVAL, DRAIN_TIMER);
        }
    }

    fn process_duty(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        env: Arc<Envelope>,
        zone: ZoneId,
    ) {
        let actions = route(&self.agent, &env.filter, &zone, self.cfg.redundancy, ctx.rng());
        let now = ctx.now();
        if actions.is_empty() && self.agent.level_of(&zone).is_none() {
            // Not on our path and no relay representative known yet.
            self.stats.route_failures += 1;
            obs::metric_add!(self.agent.id(), ctr::NW_ROUTE_FAILURES, 1);
            self.log.record(LogRecord {
                at_us: now.as_micros(),
                msg_id: env.msg_id,
                zone,
                peer: None,
                event: ForwardEvent::Unroutable,
            });
            return;
        }
        self.log.record(LogRecord {
            at_us: now.as_micros(),
            msg_id: env.msg_id,
            zone: zone.clone(),
            peer: None,
            event: ForwardEvent::AcceptedDuty,
        });
        for action in actions {
            match action {
                Action::DeliverLocal => {
                    self.delta_makeup(&env.item, env.basis.as_ref());
                    self.handle_delivery(now, Arc::clone(&env.item), false)
                }
                Action::Deliver { member } => {
                    self.log.record(LogRecord {
                        at_us: now.as_micros(),
                        msg_id: env.msg_id,
                        zone: zone.clone(),
                        peer: Some(member),
                        event: ForwardEvent::Delivered,
                    });
                    let env = Arc::clone(&env);
                    self.enqueue(ctx, NodeId(member), NewsWireMsg::Deliver { env });
                }
                Action::Forward { rep, zone } => {
                    self.log.record(LogRecord {
                        at_us: now.as_micros(),
                        msg_id: env.msg_id,
                        zone: zone.clone(),
                        peer: Some(rep),
                        event: ForwardEvent::Forwarded,
                    });
                    let env = Arc::clone(&env);
                    self.enqueue(ctx, NodeId(rep), NewsWireMsg::Forward { env, zone });
                }
            }
        }
    }

    fn handle_publish(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        mut item: NewsItem,
        scope: Option<ZoneId>,
        predicate: Option<String>,
    ) {
        let now = ctx.now();
        // Parse the §8 dissemination predicate up front; a malformed one
        // rejects the publish rather than flooding the tree unfiltered.
        let predicate_filter = match predicate.as_deref().map(astrolabe::parse_predicate) {
            None => None,
            Some(Ok(expr)) => Some(FilterSpec::Predicate { expr }),
            Some(Err(_)) => {
                self.stats.publish_denied += 1;
                obs::metric_add!(self.agent.id(), ctr::NW_PUBLISH_DENIED, 1);
                return;
            }
        };
        // The publisher's current log epoch, attested under its key on
        // every envelope it emits (DESIGN §12).
        let attest_epoch = self.article_logs.get(&item.id.publisher).map_or(0, |l| l.epoch());
        let Some(publisher) = &mut self.publisher else {
            self.stats.publish_denied += 1;
            obs::metric_add!(self.agent.id(), ctr::NW_PUBLISH_DENIED, 1);
            return;
        };
        if publisher.credential.publisher() != item.id.publisher {
            self.stats.publish_denied += 1;
            obs::metric_add!(self.agent.id(), ctr::NW_PUBLISH_DENIED, 1);
            return;
        }
        if !publisher.bucket.admit(now) {
            publisher.rate_limited += 1;
            return;
        }
        publisher.published += 1;
        item.issued_us = now.as_micros();
        if let Some(src) = &predicate {
            // The predicate travels as item metadata (§8: "adding a
            // predicate to the metadata"), so leaves — and the repair path —
            // can re-check it against their own attributes.
            item.meta.push((DISSEMINATION_PREDICATE.to_owned(), src.clone()));
        }
        let scope = scope.unwrap_or_else(|| publisher.default_scope.clone());
        if !scope.is_root() {
            // The scope travels the same way, so the repair/reconcile paths
            // (which ship bare items, not envelopes) stay zone-confined.
            item.meta.push((DISSEMINATION_SCOPE.to_owned(), scope.to_string()));
        }
        // Sealed: from here on every hop, cache, pending hand-off and
        // reply shares this one allocation.
        let item = Arc::new(item);
        let signature = publisher.credential.sign(&item);
        let key = publisher.credential.key_id();
        let certificate = publisher.credential.certificate.clone();
        let attest = publisher.credential.attest_epoch(attest_epoch);
        let mut filter = self.filter_for(&item);
        if let Some(p) = predicate_filter {
            filter = filter.and(p);
        }
        // Delta-encode a revised story against the revision this publisher
        // disseminated before (still in its own cache — inserted below,
        // *after* this lookup): every subscriber that received the earlier
        // telling decodes from what it holds.
        let basis = if self.cfg.deltas && item.revision > 0 {
            self.cache
                .latest_for_slug(item.id.publisher, &item.slug)
                .map(|prev| (prev.revision, prev.body_len))
                .and_then(|(rev, len)| self.price_basis(&item, rev, len))
        } else {
            None
        };
        let env = Arc::new(Envelope {
            msg_id: msg_id_of(item.id),
            filter,
            item,
            scope: scope.clone(),
            certificate,
            key,
            signature,
            attest,
            basis,
        });
        obs::metric_add!(self.agent.id(), ctr::NW_PUBLISHED, 1);
        obs::trace_event!(self.agent.id(), Layer::News, kind::NW_PUBLISH, env.msg_id);
        self.coverage.admit(env.msg_id, scope.depth());
        // The publisher caches and logs its own output (direct insert — this
        // is not a delivery, so no delivery/FP accounting): after a
        // partition, side A's publishers are authoritative reconcile sources
        // for everything the other side missed.
        self.log_seen(env.item.id);
        self.item_sigs.insert(env.item.id, (key, signature));
        self.absorb_attest(&attest);
        self.cache.insert(Arc::clone(&env.item), now);
        self.process_duty(ctx, env, scope);
    }

    fn verify(&self, env: &Envelope) -> bool {
        verify_item(&self.registry, &env.certificate, &env.item, &env.scope, env.key, env.signature)
    }

    /// After a verified envelope: remember the publisher's certificate (so
    /// later bare items can verify), the item's detached signature (so this
    /// node can serve the item onward with proof), and the envelope's
    /// signed epoch attestation when it is newer than the one held.
    fn learn_from_envelope(&mut self, env: &Envelope) {
        let publisher = env.item.id.publisher;
        match self.publisher_certs.get(&publisher) {
            None => {
                self.publisher_certs.insert(publisher, env.certificate.clone());
            }
            Some(held) if held.key != env.certificate.key => {
                // A verified envelope under a key other than the held
                // primary — e.g. the rotation successor reaching this node
                // before the rotation record does. Trust it as an
                // alternate so bare items under the new key verify without
                // forgery strikes against honest relays.
                self.alt_certs
                    .entry((publisher, env.certificate.key))
                    .or_insert_with(|| env.certificate.clone());
            }
            Some(_) => {}
        }
        self.item_sigs.insert(env.item.id, (env.key, env.signature));
        self.absorb_attest(&env.attest);
    }

    /// True when `item`'s detached signature verifies against the known
    /// certificate for its publisher (false when no certificate is known —
    /// fail closed: defended nodes are deployed with the certificates).
    fn bare_item_ok(&self, item: &NewsItem, key: KeyId, sig: Signature) -> bool {
        self.cert_for(item.id.publisher, key)
            .is_some_and(|cert| verify_bare_item(&self.registry, cert, item, key, sig))
    }

    /// The single admission funnel for bare items arriving off the network
    /// — repair replies (`path` 2) and reconcile replies (`path` 3);
    /// envelopes (1) verify in `on_message` and stable-storage restores (4)
    /// in `restore_cached_items`. With defenses on, an item whose detached
    /// signature does not verify is refused before it touches the log or
    /// cache, and the sender takes a misbehavior strike.
    fn admit_bare_item(
        &mut self,
        now: SimTime,
        item: Arc<NewsItem>,
        key: KeyId,
        sig: Signature,
        from: NodeId,
        path: u64,
    ) {
        // Revoked key-epoch first (paths 2 and 3): the signature would
        // *verify* — the key is just no longer trusted — so this fence
        // must come before the forgery check, and without a strike.
        if self.cfg.defenses && self.key_revoked(item.id.publisher, key) {
            self.note_revoked_reject(path, item.id.publisher);
            return;
        }
        if self.cfg.defenses && !self.bare_item_ok(&item, key, sig) {
            self.stats.forged_rejects += 1;
            obs::metric_add!(self.agent.id(), ctr::NW_FORGED_REJECTS, 1);
            obs::trace_event!(
                self.agent.id(),
                Layer::News,
                kind::FORGED_REJECT,
                path,
                u64::from(item.id.publisher.0)
            );
            self.note_misbehavior(from, MISBEHAVIOR_FORGED);
            return;
        }
        self.item_sigs.insert(item.id, (key, sig));
        self.handle_delivery(now, item, true);
    }

    /// Restores cached items from a decoded stable-storage snapshot,
    /// re-verifying each signature: a tampered disk (or a forged item that
    /// slipped in before defenses were on) must not resurrect into the
    /// cache. Returns the number of items restored.
    fn restore_cached_items(
        &mut self,
        items: Vec<(NewsItem, KeyId, Signature)>,
        now: SimTime,
    ) -> u64 {
        let mut restored = 0u64;
        for (item, key, sig) in items {
            // Admission path 4: a disk snapshot written before a
            // revocation must not resurrect items signed by the revoked
            // key-epoch (rotations restore *before* items, so the fence is
            // armed when this runs).
            if self.cfg.defenses && self.key_revoked(item.id.publisher, key) {
                self.note_revoked_reject(4, item.id.publisher);
                continue;
            }
            if self.cfg.defenses && !self.bare_item_ok(&item, key, sig) {
                self.stats.forged_rejects += 1;
                obs::metric_add!(self.agent.id(), ctr::NW_FORGED_REJECTS, 1);
                obs::trace_event!(
                    self.agent.id(),
                    Layer::News,
                    kind::FORGED_REJECT,
                    4,
                    u64::from(item.id.publisher.0)
                );
                continue;
            }
            self.log_seen(item.id);
            self.item_sigs.insert(item.id, (key, sig));
            self.cache.insert(item, now);
            restored += 1;
        }
        restored
    }

    /// Wraps cached items with their recorded detached signatures for a
    /// bare-item reply, delta-annotating each item whose story the
    /// requester declared an earlier revision of (`baselines`). An item
    /// with no recorded signature (possible only on nodes that themselves
    /// admitted unverified content) ships a null signature, which defended
    /// receivers refuse.
    fn sign_items(&self, items: Vec<Arc<NewsItem>>, baselines: &[BaselineHint]) -> Vec<SignedItem> {
        let held: HashMap<u64, &BaselineHint> = baselines.iter().map(|b| (b.key, b)).collect();
        items
            .into_iter()
            .map(|item| {
                let (key, signature) =
                    self.item_sigs.get(&item.id).copied().unwrap_or((KeyId(0), Signature(0)));
                let basis = if self.cfg.deltas && !held.is_empty() {
                    held.get(&newsml::cdc::slug_key(item.id.publisher, &item.slug))
                        .copied()
                        .and_then(|b| self.price_basis(&item, b.revision, b.body_len))
                } else {
                    None
                };
                SignedItem { item, key, signature, basis }
            })
            .collect()
    }

    /// Prices `item` against a candidate baseline and returns the basis
    /// annotation when a delta actually wins — the sender falls back to the
    /// full body (and counts the deferral) when the revisions share too
    /// little. An equal-or-newer baseline deltas hardest of all: the
    /// receiver already holds the content, so a re-offer (margin repair,
    /// reconcile) collapses to chunk references it can satisfy locally.
    fn price_basis(&self, item: &NewsItem, base_rev: u32, base_len: u32) -> Option<DeltaBasis> {
        let cost = newsml::cdc::delta_cost_memo(
            item.id.publisher,
            &item.slug,
            base_rev,
            base_len,
            item.revision,
            item.body_len,
        );
        if cost.saved() <= DeltaBasis::WIRE_SIZE {
            obs::metric_add!(self.agent.id(), ctr::DELTA_DEFERRED, 1);
            return None;
        }
        obs::metric_add!(self.agent.id(), ctr::DELTA_ITEMS_SENT, 1);
        obs::metric_add!(self.agent.id(), ctr::DELTA_ITEM_BYTES_SAVED, cost.saved() as u64);
        Some(DeltaBasis { revision: base_rev, body_len: base_len })
    }

    /// The baseline hints a repair or reconcile request declares: what this
    /// cache holds, so the responder can delta-encode. Empty with deltas
    /// off — the request is then byte-identical to the pre-delta wire.
    fn request_baselines(&self, publisher: Option<PublisherId>) -> Vec<BaselineHint> {
        if !self.cfg.deltas {
            return Vec::new();
        }
        self.cache.baselines(publisher, MAX_BASELINES)
    }

    /// Receiver-side honesty for the `bytes_wire` model: an item that
    /// arrived delta-encoded against a basis this node cannot reconstruct
    /// from (it holds neither the baseline revision nor the content
    /// itself) would have to fetch the missing chunks — charge the full
    /// minus delta difference back so the compressed accounting never
    /// under-counts.
    fn delta_makeup(&self, item: &NewsItem, basis: Option<&DeltaBasis>) {
        let Some(b) = basis else { return };
        if !self.cfg.deltas {
            return;
        }
        let decodable = self
            .cache
            .latest_for_slug(item.id.publisher, &item.slug)
            .is_some_and(|held| held.revision == b.revision || held.revision >= item.revision);
        if decodable {
            return;
        }
        let cost = newsml::cdc::delta_cost_memo(
            item.id.publisher,
            &item.slug,
            b.revision,
            b.body_len,
            item.revision,
            item.body_len,
        );
        obs::metric_add!(self.agent.id(), ctr::DELTA_FALLBACK_FULL, 1);
        obs::metric_add!(self.agent.id(), ctr::BYTES_WIRE, cost.saved() as u64);
    }

    /// Random peer for cache repair: usually a leaf-zone neighbour (cheap,
    /// nearby), but a fraction of rounds reach representatives from higher
    /// tables — when a forwarder crash loses a whole subtree, everyone in
    /// the local leaf zone is missing the same items, and only a
    /// cross-zone peer can supply them.
    fn repair_peer(&self, rng: &mut rand::rngs::SmallRng, now: SimTime) -> Option<NodeId> {
        use astrolabe::AttrValue;
        let mut candidates: Vec<u32> = Vec::new();
        if rng.gen_bool(0.5) {
            let own = self.agent.own_label(0);
            candidates.extend(
                self.agent
                    .table(0)
                    .iter()
                    .filter(|(l, _)| *l != own)
                    .filter_map(|(_, row)| row.get("id").and_then(|v| v.as_i64()))
                    .filter_map(|v| u32::try_from(v).ok()),
            );
        }
        if candidates.is_empty() {
            for level in 1..self.agent.levels() {
                for (_, row) in self.agent.table(level).iter() {
                    if let Some(AttrValue::Set(reps)) = row.get("reps") {
                        candidates.extend(reps.iter().filter_map(|&r| u32::try_from(r).ok()));
                    }
                }
            }
        }
        candidates.retain(|&p| p != self.agent.id());
        // Asking a phi-suspect peer wastes a repair round on a reply
        // timeout; avoid them while any trusted alternative exists.
        self.prefer_unsuspected(&mut candidates, now);
        candidates.as_slice().choose(rng).map(|&p| NodeId(p))
    }

    /// A random *cross-zone* representative from the higher tables — the
    /// escape hatch when the whole leaf zone shares the same log holes
    /// (partitions usually fall along zone boundaries).
    fn cross_zone_peer(&self, rng: &mut rand::rngs::SmallRng, now: SimTime) -> Option<NodeId> {
        use astrolabe::AttrValue;
        let mut candidates: Vec<u32> = Vec::new();
        for level in 1..self.agent.levels() {
            for (label, row) in self.agent.table(level).iter() {
                if label == self.agent.own_label(level) {
                    continue; // our own branch shares our holes
                }
                if let Some(AttrValue::Set(reps)) = row.get("reps") {
                    candidates.extend(reps.iter().filter_map(|&r| u32::try_from(r).ok()));
                }
            }
        }
        candidates.retain(|&p| p != self.agent.id());
        self.prefer_unsuspected(&mut candidates, now);
        candidates.as_slice().choose(rng).map(|&p| NodeId(p))
    }

    /// Registers an acknowledged hand-off of `env`/`zone` to `rep` and arms
    /// its timeout (exponential in `attempt`). The hand-off id doubles as
    /// the timer tag (offset by [`ACK_TAG_BASE`]).
    #[allow(clippy::too_many_arguments)]
    fn arm_handoff(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        timeout: SimDuration,
        rep: u32,
        env: Arc<Envelope>,
        zone: ZoneId,
        tried: Vec<u32>,
        attempt: u32,
        failovers: u32,
    ) {
        self.next_handoff += 1;
        let tag = ACK_TAG_BASE + self.next_handoff;
        let factor = ACK_BACKOFF.pow(attempt);
        let delay = timeout.checked_mul(factor).unwrap_or(timeout);
        let timer = ctx.set_timer(delay, tag);
        self.ack_index.entry((env.msg_id, zone.clone())).or_default().push(tag);
        self.pending
            .insert(tag, PendingHandoff { env, zone, rep, tried, attempt, failovers, timer });
    }

    /// Re-arms an existing hand-off under the same tag after a timeout.
    fn rearm_handoff(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        timeout: SimDuration,
        tag: u64,
        mut handoff: PendingHandoff,
    ) {
        let factor = ACK_BACKOFF.pow(handoff.attempt);
        let delay = timeout.checked_mul(factor).unwrap_or(timeout);
        handoff.timer = ctx.set_timer(delay, tag);
        self.pending.insert(tag, handoff);
    }

    /// Drops `tag` from the `(msg_id, zone)` index.
    fn unindex_handoff(&mut self, msg_id: u64, zone: &ZoneId, tag: u64) {
        if let Some(tags) = self.ack_index.get_mut(&(msg_id, zone.clone())) {
            tags.retain(|&t| t != tag);
            if tags.is_empty() {
                self.ack_index.remove(&(msg_id, zone.clone()));
            }
        }
    }

    /// An armed hand-off timed out unacknowledged: retry the same
    /// representative with backoff, then fail over to an untried one from
    /// the zone tables, then abandon the hand-off to anti-entropy repair.
    fn handle_ack_timeout(&mut self, ctx: &mut Context<'_, NewsWireMsg>, tag: u64) {
        let Some(timeout) = self.cfg.ack_timeout else { return };
        let Some(mut handoff) = self.pending.remove(&tag) else {
            return; // acknowledged (or abandoned) before the timer fired
        };
        let now = ctx.now();
        let now_us = now.as_micros();
        // Phi-accrual shortcut: when the detector already suspects the
        // current representative, burning the remaining same-rep retries is
        // wasted time — fail over immediately.
        let rep_suspect = self.peer_suspect(handoff.rep, now);
        if rep_suspect && handoff.attempt < ACK_RETRIES {
            self.stats.suspect_failovers += 1;
            obs::metric_add!(self.agent.id(), ctr::NW_SUSPECT_FAILOVERS, 1);
            obs::trace_event!(self.agent.id(), Layer::News, kind::PHI_SUSPECT, handoff.rep);
        }
        if !rep_suspect && handoff.attempt < ACK_RETRIES {
            // Same representative, longer leash.
            handoff.attempt += 1;
            self.stats.ack_retries += 1;
            self.stats.forwards_sent += 1;
            obs::metric_add!(self.agent.id(), ctr::NW_ACK_RETRIES, 1);
            obs::metric_add!(self.agent.id(), ctr::NW_FORWARDS, 1);
            obs::trace_event!(
                self.agent.id(),
                Layer::News,
                kind::HANDOFF_RETRY,
                handoff.env.msg_id,
                handoff.rep
            );
            self.log.record(LogRecord {
                at_us: now_us,
                msg_id: handoff.env.msg_id,
                zone: handoff.zone.clone(),
                peer: Some(handoff.rep),
                event: ForwardEvent::AckTimeout,
            });
            ctx.send(
                NodeId(handoff.rep),
                NewsWireMsg::Forward { env: handoff.env.clone(), zone: handoff.zone.clone() },
            );
            self.rearm_handoff(ctx, timeout, tag, handoff);
            return;
        }
        // Retries exhausted: fail over to a representative not yet tried.
        let next = if handoff.failovers < ACK_MAX_FAILOVERS {
            let mut candidates = zone_reps(&self.agent, &handoff.zone);
            candidates.retain(|r| !handoff.tried.contains(r) && *r != handoff.rep);
            // Prefer representatives the phi detector still trusts.
            self.prefer_unsuspected(&mut candidates, now);
            candidates.as_slice().choose(ctx.rng()).copied()
        } else {
            None
        };
        match next {
            Some(rep) => {
                handoff.tried.push(handoff.rep);
                handoff.rep = rep;
                handoff.attempt = 0;
                handoff.failovers += 1;
                self.stats.ack_failovers += 1;
                self.stats.forwards_sent += 1;
                obs::metric_add!(self.agent.id(), ctr::NW_ACK_FAILOVERS, 1);
                obs::metric_add!(self.agent.id(), ctr::NW_FORWARDS, 1);
                obs::trace_event!(
                    self.agent.id(),
                    Layer::News,
                    kind::HANDOFF_FAILOVER,
                    handoff.env.msg_id,
                    rep
                );
                self.log.record(LogRecord {
                    at_us: now_us,
                    msg_id: handoff.env.msg_id,
                    zone: handoff.zone.clone(),
                    peer: Some(rep),
                    event: ForwardEvent::FailedOver,
                });
                ctx.send(
                    NodeId(rep),
                    NewsWireMsg::Forward { env: handoff.env.clone(), zone: handoff.zone.clone() },
                );
                self.rearm_handoff(ctx, timeout, tag, handoff);
            }
            None => {
                self.stats.handoffs_abandoned += 1;
                obs::metric_add!(self.agent.id(), ctr::NW_HANDOFFS_ABANDONED, 1);
                obs::trace_event!(
                    self.agent.id(),
                    Layer::News,
                    kind::HANDOFF_ABANDON,
                    handoff.env.msg_id,
                    handoff.rep
                );
                self.log.record(LogRecord {
                    at_us: now_us,
                    msg_id: handoff.env.msg_id,
                    zone: handoff.zone.clone(),
                    peer: Some(handoff.rep),
                    event: ForwardEvent::Abandoned,
                });
                self.unindex_handoff(handoff.env.msg_id, &handoff.zone, tag);
            }
        }
    }

    /// Sends one repair request to `peer` and, when configured, arms the
    /// reply timeout that re-targets a different peer.
    fn send_repair_request(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        peer: NodeId,
        retargets: u32,
    ) {
        // Back the marks off by a margin so gaps *below* the high-water
        // mark (a missed item followed by a received one) are re-offered;
        // the cache dedups the overlap.
        let margin = (REPAIR_BATCH / 4) as u64;
        let highwater = self
            .cache
            .highwaters()
            .into_iter()
            .map(|(p, hw)| (p, hw.saturating_sub(margin)))
            .collect();
        obs::trace_event!(self.agent.id(), Layer::News, kind::REPAIR_REQUEST, peer.0);
        ctx.send(
            peer,
            NewsWireMsg::RepairRequest {
                highwater,
                want_snapshot: self.cache.is_empty(),
                baselines: self.request_baselines(None),
            },
        );
        if let Some(wait) = self.cfg.repair_reply_timeout {
            if let Some((_, old_timer, _)) = self.awaiting_repair.take() {
                ctx.cancel_timer(old_timer);
            }
            let timer = ctx.set_timer(wait, REPAIR_WAIT_TIMER);
            self.awaiting_repair = Some((peer, timer, retargets));
        }
    }

    /// Publishes the per-publisher log digests into this node's MIB row so
    /// they gossip with everything else (`sys$ae:<publisher>`).
    fn publish_ae_digests(&mut self) {
        if !self.cfg.anti_entropy {
            return;
        }
        let digests: Vec<(PublisherId, String)> =
            self.article_logs.iter().map(|(p, log)| (*p, log.summary().encode())).collect();
        for (publisher, encoded) in digests {
            self.agent.set_local_attr(&format!("{AE_ATTR_PREFIX}{}", publisher.0), encoded);
        }
    }

    /// One reconcile step per gossip round: pick the next publisher with
    /// holes (round-robin), find the freshest peer whose gossiped digest can
    /// fill them, and pull the missing ranges.
    ///
    /// Peer selection prefers leaf-zone neighbours advertising a
    /// *contiguous* log (they can vouch for everything up to their mark).
    /// When the whole leaf zone shares the hole — the partition fell along a
    /// zone boundary — no such neighbour exists, and the fallback asks a
    /// random cross-zone representative blind. Once one leaf member has
    /// reconciled across the boundary it becomes a contiguous local source,
    /// and the rest of the zone heals epidemically from it.
    fn maybe_reconcile(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        if !self.cfg.anti_entropy || self.awaiting_reconcile.is_some() {
            return;
        }
        let publishers: Vec<PublisherId> = self.article_logs.keys().copied().collect();
        if publishers.is_empty() {
            return;
        }
        let now = ctx.now();
        let own = self.agent.own_label(0);
        for step in 0..publishers.len() {
            let publisher = publishers[(self.reconcile_cursor + step) % publishers.len()];
            let log = &self.article_logs[&publisher];
            let attr = format!("{AE_ATTR_PREFIX}{}", publisher.0);
            // Leaf neighbours advertising digests that cover holes we have.
            let mut best: Option<(RangeSummary, u32)> = None;
            for (label, row) in self.agent.table(0).iter() {
                if label == own {
                    continue;
                }
                let Some(peer) =
                    row.get("id").and_then(|v| v.as_i64()).and_then(|v| u32::try_from(v).ok())
                else {
                    continue;
                };
                let Some(summary) =
                    row.get(&attr).and_then(|v| v.as_str()).and_then(RangeSummary::decode)
                else {
                    continue;
                };
                if !summary.contiguous() || log.missing_given(&summary).is_empty() {
                    continue;
                }
                if self.peer_suspect(peer, now) {
                    continue;
                }
                let fresher = match &best {
                    None => true,
                    Some((b, _)) => (summary.epoch, summary.next) > (b.epoch, b.next),
                };
                if fresher {
                    best = Some((summary, peer));
                }
            }
            let (peer, ranges, via_digest) = match best {
                Some((summary, peer)) => {
                    (NodeId(peer), self.article_logs[&publisher].missing_given(&summary), true)
                }
                None => {
                    // No leaf neighbour is ahead of us. If our own log has
                    // internal gaps, ask across the zone boundary blind.
                    let gaps = self.article_logs[&publisher].gaps();
                    if gaps.is_empty() {
                        continue;
                    }
                    match self.cross_zone_peer(ctx.rng(), now) {
                        Some(peer) => (peer, gaps, false),
                        None => continue,
                    }
                }
            };
            self.reconcile_cursor = (self.reconcile_cursor + step + 1) % publishers.len();
            self.send_reconcile_request(ctx, peer, publisher, ranges, 0, via_digest);
            return;
        }
        self.reconcile_cursor = (self.reconcile_cursor + 1) % publishers.len();
    }

    /// Sends one `ReconcileRequest` and arms its reply timeout.
    fn send_reconcile_request(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        peer: NodeId,
        publisher: PublisherId,
        ranges: Vec<(u64, u64)>,
        retargets: u32,
        via_digest: bool,
    ) {
        let (epoch, tail_from) = self
            .article_logs
            .get(&publisher)
            .map(|log| (log.epoch(), log.next_seq()))
            .unwrap_or((0, 0));
        self.stats.reconcile_requests += 1;
        obs::metric_add!(self.agent.id(), ctr::NW_RECONCILE_REQUESTS, 1);
        obs::trace_event!(self.agent.id(), Layer::News, kind::AE_REQUEST, peer.0, publisher.0);
        ctx.send(
            peer,
            NewsWireMsg::ReconcileRequest {
                publisher,
                epoch,
                ranges: ranges.clone(),
                tail_from,
                baselines: self.request_baselines(Some(publisher)),
            },
        );
        if let Some(wait) = self.cfg.repair_reply_timeout {
            let backoff = ACK_BACKOFF.pow(retargets);
            let delay = wait.checked_mul(backoff).unwrap_or(wait);
            let timer = ctx.set_timer(delay, RECONCILE_WAIT_TIMER);
            self.awaiting_reconcile =
                Some(PendingReconcile { peer, publisher, ranges, timer, retargets, via_digest });
        }
    }

    /// Serves a `ReconcileRequest` from the cache. The requester's baseline
    /// hints let the reply delta-encode revised stories: before them, a
    /// reconcile reply re-shipped the full `SignedItem` body even when the
    /// requester's digest proved it held an earlier revision of the same
    /// story.
    #[allow(clippy::too_many_arguments)]
    fn serve_reconcile(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        from: NodeId,
        publisher: PublisherId,
        epoch: u32,
        ranges: &[(u64, u64)],
        tail_from: u64,
        baselines: &[BaselineHint],
    ) {
        let summary =
            self.article_logs.get(&publisher).map(|log| log.summary()).unwrap_or_default();
        let mut items: Vec<Arc<NewsItem>> = Vec::new();
        // A requester on a newer epoch has restarted history; our items
        // would be misfiled under its sequencing, so ship nothing (the
        // summary still tells it where we stand).
        if summary.epoch >= epoch {
            for &(lo, hi) in ranges {
                items.extend(
                    self.cache
                        .items_from(publisher, lo, REPAIR_BATCH)
                        .into_iter()
                        .filter(|i| i.id.seq <= hi),
                );
            }
            items.extend(self.cache.items_from(publisher, tail_from, REPAIR_BATCH));
            items.sort_by_key(|i| i.id);
            items.dedup_by_key(|i| i.id);
            items.truncate(REPAIR_BATCH);
        }
        if !items.is_empty() {
            self.stats.reconciles_served += 1;
            self.stats.reconcile_items_sent += items.len() as u64;
            self.stats.reconcile_bytes_sent +=
                items.iter().map(|i| i.wire_size() as u64).sum::<u64>();
            obs::metric_add!(self.agent.id(), ctr::NW_RECONCILES_SERVED, 1);
            obs::metric_add!(self.agent.id(), ctr::NW_RECONCILE_ITEMS_SENT, items.len());
            obs::metric_add!(
                self.agent.id(),
                ctr::NW_RECONCILE_BYTES_SENT,
                items.iter().map(|i| i.wire_size() as u64).sum::<u64>()
            );
            obs::trace_event!(self.agent.id(), Layer::News, kind::AE_REPLY, from.0, items.len());
        }
        // Reply even when empty: the summary lets the requester settle
        // unservable holes, and the reply itself proves liveness. The
        // stored attestation rides along so signed epoch authority spreads
        // to nodes the publisher's own envelopes have not reached.
        let attest = self.authority.get(&publisher).copied();
        let items = self.sign_items(items, baselines);
        ctx.send(from, NewsWireMsg::ReconcileReply { publisher, summary, attest, items });
    }

    /// Absorbs a `ReconcileReply`: deliver the recovered items, then settle
    /// requested seqs the responder's contiguous summary vouches for —
    /// revision-fused or evicted seqs are unservable by *anyone* on that
    /// epoch, and without settling we would re-request them forever.
    fn absorb_reconcile_reply(
        &mut self,
        ctx: &mut Context<'_, NewsWireMsg>,
        from: NodeId,
        publisher: PublisherId,
        summary: RangeSummary,
        attest: Option<EpochAttest>,
        items: Vec<SignedItem>,
    ) {
        // Absorb the rider attestation first: a genuine publisher epoch
        // bump raises our signed authority *before* the fence judges the
        // reply's claimed epoch.
        if let Some(a) = &attest {
            if a.publisher == publisher {
                self.absorb_attest(a);
            }
        }
        let pending = match &self.awaiting_reconcile {
            Some(p) if p.peer == from && p.publisher == publisher => {
                let p = self.awaiting_reconcile.take().unwrap();
                ctx.cancel_timer(p.timer);
                Some(p)
            }
            _ => None,
        };
        let now = ctx.now();
        self.stats.reconcile_items_recv += items.len() as u64;
        obs::metric_add!(self.agent.id(), ctr::NW_RECONCILE_ITEMS_RECV, items.len());
        // Digest contradiction: this peer was selected because its gossiped
        // digest vouched coverage for our holes, yet it replies with an
        // empty log and no items — the advertisement and the reply cannot
        // both be honest (split-brain lying looks exactly like this).
        if let Some(p) = &pending {
            if p.via_digest && items.is_empty() && summary.is_empty() {
                self.note_misbehavior(from, MISBEHAVIOR_CONTRADICTION);
            }
        }
        // Epoch fence (DESIGN §12): adopting a newer epoch wipes this log,
        // and a reply summary is a single peer's unverified claim — the
        // contagion vector for fabricated epochs. With defenses on, the
        // publisher-signed attestation is the reference wherever one is
        // held: a colluding leaf-zone majority can capture the unsigned
        // neighbour consensus, but it cannot sign as the publisher. The
        // consensus mode remains the fallback for publishers no attestation
        // has reached yet (majority-honest assumption, DESIGN §11).
        let cur_epoch = self.article_logs.get(&publisher).map_or(0, |l| l.epoch());
        let authority = self.authority_epoch(publisher);
        let fenced = summary.epoch > cur_epoch
            && self.cfg.defenses
            && match authority {
                Some(ae) => summary.epoch > ae,
                None => {
                    matches!(self.consensus_epoch(publisher), Some(ce) if summary.epoch > ce)
                }
            };
        if fenced {
            obs::metric_add!(self.agent.id(), ctr::CORRUPT_ROWS_REJECTED, 1);
            if authority.is_some() {
                self.stats.signed_epoch_refusals += 1;
                obs::metric_add!(self.agent.id(), ctr::NW_SIGNED_EPOCH_REFUSALS, 1);
                obs::trace_event!(
                    self.agent.id(),
                    Layer::News,
                    kind::SIGNED_EPOCH_REFUSAL,
                    u64::from(summary.epoch),
                    u64::from(publisher.0)
                );
            }
            self.note_misbehavior(from, MISBEHAVIOR_FENCE);
        }
        let log =
            self.article_logs.entry(publisher).or_insert_with(|| SeqLog::new(ARTICLE_LOG_CAPACITY));
        if summary.epoch > log.epoch() && !fenced {
            log.adopt_epoch(summary.epoch);
        }
        for SignedItem { item, key, signature, basis } in items {
            self.delta_makeup(&item, basis.as_ref());
            self.admit_bare_item(now, item, key, signature, from, 3);
        }
        if let Some(ranges) = pending.map(|p| p.ranges) {
            let log = self
                .article_logs
                .entry(publisher)
                .or_insert_with(|| SeqLog::new(ARTICLE_LOG_CAPACITY));
            // An empty summary vouches for nothing: a peer that has no log
            // (say, a fresh amnesiac rejoiner picked through a stale digest)
            // must not settle anyone's seq 0 — `0..=next-1` would otherwise
            // saturate into the single-element range `0..=0`.
            if summary.epoch == log.epoch() && summary.contiguous() && !summary.is_empty() {
                for (lo, hi) in ranges {
                    if lo >= summary.next {
                        continue;
                    }
                    for seq in lo..=hi.min(summary.next - 1) {
                        log.insert(seq, ());
                    }
                }
            }
        }
    }

    /// Drains incarnation bumps observed by the embedded agent and forgets
    /// the phi-accrual history of each bumped peer: the suspicion belonged
    /// to the peer's previous life, and a freshly restarted peer must be
    /// immediately eligible again as an ack-failover / repair / reconcile
    /// target (its next message seeds a fresh detector).
    fn absorb_incarnation_bumps(&mut self) {
        for peer in self.agent.take_incarnation_bumps() {
            self.peer_health.remove(&peer);
            // Misbehavior belonged to the previous life too: a reinstalled
            // node is not the liar its predecessor was. But only an
            // identity the registry still endorses earns the clean slate —
            // before this check, any quarantined node could self-clear by
            // restarting under a fresh incarnation (the §15 loophole).
            if self.peer_endorsed(peer) {
                self.misbehavior.remove(&peer);
            }
        }
    }

    /// The epoch most of this node's leaf neighbours advertise for
    /// `publisher` in their gossiped `sys$ae:` digests — the reference the
    /// epoch fence trusts. A genuine publisher restart reaches every
    /// neighbour within a gossip round or two, so the mode tracks honest
    /// epoch bumps; a fabricated epoch stays a minority of one. Ties break
    /// *low* (never fence up to a contested epoch). `None` when no
    /// neighbour advertises a digest. This is corruption tolerance under a
    /// majority-honest leaf zone, not Byzantine agreement — a colluding
    /// majority defeats it, which is why the epoch fence prefers the
    /// publisher-signed attestation whenever one is held and falls back to
    /// this mode only before any attestation arrives (see DESIGN §12; the
    /// §11 caveat describes the fallback's limits).
    fn consensus_epoch(&self, publisher: PublisherId) -> Option<u32> {
        let attr = format!("{AE_ATTR_PREFIX}{}", publisher.0);
        let own = self.agent.own_label(0);
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for (label, row) in self.agent.table(0).iter() {
            if label == own {
                continue;
            }
            let summary = row.get(&attr).and_then(|v| v.as_str()).and_then(RangeSummary::decode);
            if let Some(s) = summary {
                *counts.entry(s.epoch).or_insert(0) += 1;
            }
        }
        counts.into_iter().max_by_key(|&(epoch, n)| (n, std::cmp::Reverse(epoch))).map(|(e, _)| e)
    }

    /// The subscription summary attributes this node *should* advertise,
    /// re-derived from the [`Subscription`] ground truth — the self-audit
    /// compares these against what is actually installed in the MIB row.
    fn derived_sub_attrs(&self) -> Vec<(String, AttrValue)> {
        match self.cfg.model {
            SubscriptionModel::Bloom { bits, hashes } => {
                vec![("subs".to_owned(), AttrValue::from(self.subscription.to_bloom(bits, hashes)))]
            }
            SubscriptionModel::CategoryMask => self
                .subscription
                .publishers
                .iter()
                .map(|(p, _)| {
                    let mask = self.subscription.mask_for(*p).0 as i64;
                    (self.cfg.model.attr_for(*p), AttrValue::Int(mask))
                })
                .collect(),
        }
    }

    /// Periodic self-audit, the repair half of the corruption defenses
    /// (the ingest validator is the rejection half). Three sweeps, each
    /// against ground truth the adversary cannot reach: scrub held zone
    /// rows that cannot be structurally honest, re-install the subscription
    /// advertisement when it diverged from the `subscription` object, and
    /// rebuild any article log claiming an epoch beyond what this node's
    /// neighbours agree on (rebuilt from cached items at the consensus
    /// epoch; honest holes refill through ordinary reconciliation). A
    /// healthy node audits to zero — the sweep itself never perturbs
    /// converged state, which is what keeps defenses-on runs bit-identical
    /// across same-seed replays.
    fn self_audit(&mut self, now: SimTime) {
        self.agent.scrub(now);
        let mut repairs = 0u64;
        for (attr, want) in self.derived_sub_attrs() {
            if self.agent.local_attr(&attr) != Some(&want) {
                self.agent.set_local_attr(&attr, want);
                repairs += 1;
                obs::trace_event!(self.agent.id(), Layer::Astro, kind::SELF_AUDIT_REPAIR, 2, 1);
            }
        }
        let publishers: Vec<PublisherId> = self.article_logs.keys().copied().collect();
        for publisher in publishers {
            // The fence reference: the publisher's signed attestation when
            // held (collusion-proof), neighbour consensus otherwise.
            let Some(ce) =
                self.authority_epoch(publisher).or_else(|| self.consensus_epoch(publisher))
            else {
                continue;
            };
            if self.article_logs[&publisher].epoch() <= ce {
                continue;
            }
            let mut rebuilt = SeqLog::new(ARTICLE_LOG_CAPACITY);
            rebuilt.adopt_epoch(ce);
            for item in self.cache.iter().filter(|i| i.id.publisher == publisher) {
                rebuilt.insert(item.id.seq, ());
            }
            self.article_logs.insert(publisher, rebuilt);
            repairs += 1;
            obs::trace_event!(self.agent.id(), Layer::Astro, kind::SELF_AUDIT_REPAIR, 3, 1);
        }
        if repairs > 0 {
            obs::metric_add!(self.agent.id(), ctr::SELF_AUDIT_REPAIRS, repairs);
        }
    }

    /// Encodes the `state` disk record: article-log coverage (with the
    /// present sequence ranges), cached items, and the application delivery
    /// log, straight from the live structures. Cache and deliveries persist
    /// *together* — the cache is the dedup barrier and the delivery log is
    /// the completeness substrate, and restoring one without the other
    /// would either re-deliver everything or forget what was delivered.
    fn encode_durable_state(&self) -> Vec<u8> {
        persist::encode_state(
            self.article_logs.iter().map(|(p, log)| (*p, log)),
            // Each item persists with its detached signature, so a durable
            // restore can re-verify: a disk snapshot is just another
            // admission path (see `restore_cached_items`).
            self.cache.iter().map(|item| {
                let (key, sig) =
                    self.item_sigs.get(&item.id).copied().unwrap_or((KeyId(0), Signature(0)));
                (item, key, sig)
            }),
            &self.deliveries,
            self.rotations.values().map(|r| r.encode()),
        )
    }

    /// Cheap change detector over the durable state: structure and counts,
    /// not content. Skipping unchanged snapshots keeps steady-state disk
    /// traffic near zero without diffing item payloads.
    fn state_fingerprint(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h = mix(h, self.cache.len() as u64);
        h = mix(h, self.deliveries.len() as u64);
        for (p, log) in &self.article_logs {
            h = mix(h, u64::from(p.0));
            h = mix(h, u64::from(log.epoch()));
            h = mix(h, log.floor());
            h = mix(h, log.next_seq());
            h = mix(h, log.len() as u64);
        }
        for (p, rec) in &self.rotations {
            h = mix(h, u64::from(p.0));
            h = mix(h, u64::from(rec.serial));
        }
        h
    }

    /// Write-behind persistence, called once per gossip tick when
    /// `durable_state` is configured: snapshot the `state` record when the
    /// fingerprint moved, fsync every [`STATE_FSYNC_TICKS`]th tick. The
    /// window between write and fsync is exactly what the engine's
    /// `crash_unsynced_loss` knob destroys on crash.
    fn persist_state(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        let fp = self.state_fingerprint();
        if fp != self.persisted_fingerprint {
            let blob = self.encode_durable_state();
            ctx.disk().write(DISK_KEY_STATE, blob);
            self.persisted_fingerprint = fp;
        }
        if self.gossip_ticks.is_multiple_of(STATE_FSYNC_TICKS) {
            ctx.disk().fsync();
        }
    }

    /// Checks whether an in-progress cold-restart recovery has caught up:
    /// no pull in flight, every article log hole-free, and — for every
    /// publisher this node subscribes to — the log's high-water mark at or
    /// past the highest mark any leaf neighbour advertises in its gossiped
    /// anti-entropy digest. The last clause is what makes the criterion
    /// meaningful for an amnesiac rejoin, whose freshly empty logs would
    /// otherwise be vacuously hole-free.
    fn check_recovery_done(&mut self, now: SimTime) {
        let Some(started) = self.recovering_since else { return };
        if self.awaiting_repair.is_some() || self.awaiting_reconcile.is_some() {
            return;
        }
        if self.article_logs.values().any(|log| !log.gaps().is_empty()) {
            return;
        }
        // A freshly reset membership view is vacuously consistent — an
        // amnesiac node that has not yet heard from anyone would sail
        // through the digest comparison below. Refuse to declare victory
        // until the node has dwelt at least two gossip rounds and holds at
        // least one leaf-neighbour row learned since the restart.
        let dwell = 2 * self.cfg.astrolabe.gossip_interval.as_micros();
        if now.as_micros() < started.as_micros().saturating_add(dwell) {
            return;
        }
        let own = self.agent.own_label(0);
        if !self.agent.table(0).iter().any(|(label, _)| label != own) {
            return;
        }
        for (p, _) in &self.subscription.publishers {
            let attr = format!("{AE_ATTR_PREFIX}{}", p.0);
            let mut neighborhood_next = 0u64;
            for (label, row) in self.agent.table(0).iter() {
                if label == own {
                    continue;
                }
                if let Some(s) =
                    row.get(&attr).and_then(|v| v.as_str()).and_then(RangeSummary::decode)
                {
                    neighborhood_next = neighborhood_next.max(s.next);
                }
            }
            let reached = self
                .article_logs
                .get(p)
                .map_or(neighborhood_next == 0, |log| log.next_seq() >= neighborhood_next);
            if !reached {
                return;
            }
        }
        let duration = now.as_micros().saturating_sub(started.as_micros());
        self.recovering_since = None;
        self.stats.recoveries_completed += 1;
        obs::metric_add!(self.agent.id(), ctr::NW_RECOVERIES, 1);
        obs::series_record!(self.agent.id(), series::RECOVERY_DURATION_US, duration);
        obs::trace_event!(
            self.agent.id(),
            Layer::News,
            kind::NW_RECOVERY_DONE,
            duration,
            self.backfill_this_recovery
        );
    }

    /// Wipes the protocol state every restart mode loses, freeze included:
    /// tables, cache, delivery log, in-flight hand-offs and requests,
    /// article logs, peer health and misbehavior scores. Signatures go with
    /// the cache; publisher certificates and signed attestations survive —
    /// they ship with the binary (deployment pre-install), not with
    /// protocol state.
    fn reset_volatile(&mut self) {
        self.agent.reset();
        self.cache = MessageCache::new(self.cfg.cache);
        self.deliveries.clear();
        self.draining = false;
        self.pending.clear();
        self.ack_index.clear();
        self.awaiting_repair = None;
        self.article_logs.clear();
        self.peer_health.clear();
        self.misbehavior.clear();
        self.item_sigs.clear();
        self.awaiting_reconcile = None;
    }

    /// Re-arms the periodic timers after a recovery or restart: gossip
    /// first, then repair (the order fixes their event keys).
    fn rearm_timers(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        ctx.set_timer(self.agent.config().gossip_interval, GOSSIP_TIMER);
        if let Some(repair) = self.cfg.repair_interval {
            ctx.set_timer(repair, REPAIR_TIMER);
        }
    }
}

impl Node for NewsWireNode {
    type Msg = NewsWireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        let interval = self.agent.config().gossip_interval;
        let first = SimDuration::from_micros(ctx.rng().gen_range(0..interval.as_micros().max(1)));
        ctx.set_timer(first, GOSSIP_TIMER);
        if let Some(repair) = self.cfg.repair_interval {
            let first = SimDuration::from_micros(ctx.rng().gen_range(0..repair.as_micros().max(1)));
            ctx.set_timer(first, REPAIR_TIMER);
        }
        if self.cfg.durable_state {
            // The subscription is configuration, not protocol state: write
            // it once, synced, so a durable restart re-derives the exact
            // interests (predicate included) from disk.
            let blob = persist::encode_subscription(&self.subscription);
            ctx.disk().write(DISK_KEY_SUB, blob);
            ctx.disk().fsync();
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, NewsWireMsg>, from: NodeId, msg: NewsWireMsg) {
        self.clock = ctx.now();
        self.note_alive(from, ctx.now());
        match msg {
            NewsWireMsg::Gossip { g, rot } => {
                let now = ctx.now();
                // Rider first, then row attributes: a revocation arriving
                // with this very exchange fences its rows' attestations in
                // the same round.
                if let Some(rec) = rot {
                    self.adopt_rotation(&rec);
                }
                self.scan_rotations(&g);
                let mut g = g;
                self.filter_sybil_rows(&mut g);
                let out = self.agent.on_message(now, from.0, g, ctx.rng());
                for (to, g) in out {
                    let msg = self.gossip_msg(g);
                    ctx.send(NodeId(to), msg);
                }
                // Any incarnation bumps the merge just surfaced clear peer
                // suspicion immediately — within the same gossip round, not
                // a tick later.
                self.absorb_incarnation_bumps();
            }
            NewsWireMsg::Rotate { record, credential } => {
                // Ablation: with defenses off the rotation is a dead
                // letter — the publisher keeps its compromised key and
                // forged items verify for the full window.
                if !self.cfg.defenses {
                    return;
                }
                self.adopt_rotation(&record);
                if let Some(cred) = credential {
                    let matches_self = self
                        .publisher
                        .as_ref()
                        .is_some_and(|p| p.credential.publisher() == cred.publisher());
                    if matches_self {
                        // The publisher itself re-keys: successor
                        // certificate and a fresh attestation at the
                        // current log epoch anchor the new authority, and
                        // every item published from here signs with the
                        // successor key.
                        let publisher = cred.publisher();
                        let epoch = self.article_logs.get(&publisher).map_or(0, |l| l.epoch());
                        self.install_publisher_authority(
                            cred.certificate.clone(),
                            cred.attest_epoch(epoch),
                        );
                        self.publisher.as_mut().expect("publisher matched above").credential = cred;
                    }
                }
            }
            NewsWireMsg::PublishRequest { item, scope, predicate } => {
                self.handle_publish(ctx, item, scope, predicate)
            }
            NewsWireMsg::Forward { env, zone } => {
                if self.envelope_fenced(&env) {
                    return;
                }
                if !self.verify(&env) {
                    self.stats.auth_rejects += 1;
                    obs::metric_add!(self.agent.id(), ctr::NW_AUTH_REJECTS, 1);
                    self.log.record(LogRecord {
                        at_us: ctx.now().as_micros(),
                        msg_id: env.msg_id,
                        zone,
                        peer: Some(from.0),
                        event: ForwardEvent::AuthRejected,
                    });
                    self.note_misbehavior(from, MISBEHAVIOR_FORGED);
                    return;
                }
                self.learn_from_envelope(&env);
                // Receipt first: whether this is fresh duty or a duplicate,
                // this representative covers the zone — the sender must stop
                // retrying. Only real (simulated) node senders are acked.
                if self.cfg.ack_timeout.is_some() && from != NodeId::EXTERNAL {
                    ctx.send(
                        from,
                        NewsWireMsg::ForwardAck { msg_id: env.msg_id, zone: zone.clone() },
                    );
                }
                if self.coverage.admit(env.msg_id, zone.depth()) {
                    self.process_duty(ctx, env, zone);
                } else {
                    self.stats.duplicates += 1;
                    obs::metric_add!(self.agent.id(), ctr::NW_DUPLICATES, 1);
                }
            }
            NewsWireMsg::ForwardAck { msg_id, zone } => {
                if let Some(tags) = self.ack_index.remove(&(msg_id, zone)) {
                    self.stats.acks_received += 1;
                    obs::metric_add!(self.agent.id(), ctr::NW_ACKS_RECEIVED, 1);
                    obs::trace_event!(
                        self.agent.id(),
                        Layer::News,
                        kind::HANDOFF_ACK,
                        msg_id,
                        from.0
                    );
                    for tag in tags {
                        if let Some(h) = self.pending.remove(&tag) {
                            ctx.cancel_timer(h.timer);
                        }
                    }
                }
            }
            NewsWireMsg::Deliver { env } => {
                if self.envelope_fenced(&env) {
                    return;
                }
                if !self.verify(&env) {
                    self.stats.auth_rejects += 1;
                    obs::metric_add!(self.agent.id(), ctr::NW_AUTH_REJECTS, 1);
                    self.note_misbehavior(from, MISBEHAVIOR_FORGED);
                    return;
                }
                self.learn_from_envelope(&env);
                let now = ctx.now();
                self.delta_makeup(&env.item, env.basis.as_ref());
                self.handle_delivery(now, Arc::clone(&env.item), false);
            }
            NewsWireMsg::RepairRequest { highwater, want_snapshot, baselines } => {
                let mut items: Vec<Arc<NewsItem>> = Vec::new();
                // Everything at or past the requester's (margin-backed)
                // marks…
                for (publisher, hw) in &highwater {
                    items.extend(self.cache.items_from(*publisher, *hw, REPAIR_BATCH));
                }
                // …plus publishers the requester has never heard from.
                for (publisher, _) in self.cache.highwaters() {
                    if !highwater.iter().any(|(p, _)| *p == publisher) {
                        items.extend(self.cache.items_from(publisher, 0, REPAIR_BATCH));
                    }
                }
                if want_snapshot {
                    items.extend(self.cache.snapshot(REPAIR_BATCH));
                }
                items.sort_by_key(|i| i.id);
                items.dedup_by_key(|i| i.id);
                items.truncate(REPAIR_BATCH);
                if !items.is_empty() {
                    self.stats.repairs_served += 1;
                    self.stats.repair_items_sent += items.len() as u64;
                    obs::metric_add!(self.agent.id(), ctr::NW_REPAIRS_SERVED, 1);
                    obs::metric_add!(self.agent.id(), ctr::NW_REPAIR_ITEMS_SENT, items.len());
                    obs::trace_event!(
                        self.agent.id(),
                        Layer::News,
                        kind::REPAIR_REPLY,
                        from.0,
                        items.len()
                    );
                }
                // Reply even when empty: an empty reply tells the requester
                // "I'm alive and have nothing for you", so its reply timeout
                // distinguishes dead peers from up-to-date ones.
                let items = self.sign_items(items, &baselines);
                ctx.send(from, NewsWireMsg::RepairReply { items });
            }
            NewsWireMsg::RepairReply { items } => {
                if let Some((peer, timer, _)) = self.awaiting_repair {
                    if peer == from {
                        ctx.cancel_timer(timer);
                        self.awaiting_repair = None;
                    }
                }
                let now = ctx.now();
                for SignedItem { item, key, signature, basis } in items {
                    self.delta_makeup(&item, basis.as_ref());
                    self.admit_bare_item(now, item, key, signature, from, 2);
                }
            }
            NewsWireMsg::ReconcileRequest { publisher, epoch, ranges, tail_from, baselines } => {
                self.serve_reconcile(ctx, from, publisher, epoch, &ranges, tail_from, &baselines);
            }
            NewsWireMsg::ReconcileReply { publisher, summary, attest, items } => {
                self.absorb_reconcile_reply(ctx, from, publisher, summary, attest, items);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, NewsWireMsg>, _t: TimerId, tag: u64) {
        self.clock = ctx.now();
        match tag {
            GOSSIP_TIMER => {
                // Publish forwarding load so representative election steers
                // around busy nodes (paper §5).
                let load = self.load_bias + self.queues.len() as f64;
                self.agent.set_local_attr("load", load);
                let now = ctx.now();
                self.gossip_ticks += 1;
                // Audit before digests and the agent tick, so repaired
                // state is what this round advertises and gossips.
                if self.cfg.defenses && self.gossip_ticks.is_multiple_of(SELF_AUDIT_TICKS) {
                    self.self_audit(now);
                }
                self.publish_ae_digests();
                let out = self.agent.on_tick(now, ctx.rng());
                for (to, g) in out {
                    let msg = self.gossip_msg(g);
                    ctx.send(NodeId(to), msg);
                }
                if self.cache.gc(now) > 0 {
                    // Signatures of evicted items are dead weight.
                    let cache = &self.cache;
                    self.item_sigs.retain(|id, _| cache.contains(*id));
                }
                self.absorb_incarnation_bumps();
                self.maybe_reconcile(ctx);
                self.check_recovery_done(now);
                if self.cfg.durable_state {
                    self.persist_state(ctx);
                }
                ctx.set_timer(self.agent.config().gossip_interval, GOSSIP_TIMER);
            }
            DRAIN_TIMER => {
                if let Some(q) = self.queues.pop() {
                    let (dst, msg) = q.item;
                    // Tree hand-offs become *acknowledged* at the moment
                    // they hit the wire: arm the per-hand-off timeout that
                    // drives retry/backoff/failover.
                    if let (Some(timeout), NewsWireMsg::Forward { env, zone }) =
                        (self.cfg.ack_timeout, &msg)
                    {
                        obs::trace_event!(
                            self.agent.id(),
                            Layer::News,
                            kind::HANDOFF_ARM,
                            env.msg_id,
                            dst.0
                        );
                        self.arm_handoff(
                            ctx,
                            timeout,
                            dst.0,
                            Arc::clone(env),
                            zone.clone(),
                            vec![dst.0],
                            0,
                            0,
                        );
                    }
                    ctx.send(dst, msg);
                    self.stats.forwards_sent += 1;
                    obs::metric_add!(self.agent.id(), ctr::NW_FORWARDS, 1);
                }
                if self.queues.is_empty() {
                    self.draining = false;
                } else {
                    ctx.set_timer(SERVICE_INTERVAL, DRAIN_TIMER);
                }
            }
            REPAIR_TIMER => {
                let now = ctx.now();
                if let Some(peer) = self.repair_peer(ctx.rng(), now) {
                    self.send_repair_request(ctx, peer, 0);
                }
                if let Some(repair) = self.cfg.repair_interval {
                    ctx.set_timer(repair, REPAIR_TIMER);
                }
            }
            REPAIR_WAIT_TIMER => {
                // The peer never answered: it is dead, gray, or cut off.
                // Re-target a different peer instead of idling out the rest
                // of the repair interval (bounded retargets per interval).
                let Some((failed_peer, _, retargets)) = self.awaiting_repair.take() else {
                    return;
                };
                if retargets >= 2 {
                    return;
                }
                self.stats.repair_retargets += 1;
                obs::metric_add!(self.agent.id(), ctr::NW_REPAIR_RETARGETS, 1);
                let now = ctx.now();
                for _ in 0..4 {
                    match self.repair_peer(ctx.rng(), now) {
                        Some(peer) if peer != failed_peer => {
                            self.send_repair_request(ctx, peer, retargets + 1);
                            return;
                        }
                        Some(_) => continue,
                        None => return,
                    }
                }
            }
            RECONCILE_WAIT_TIMER => {
                // The reconcile peer never answered. Re-target across the
                // zone boundary (a bounded number of times — the next gossip
                // round restarts the cycle anyway).
                let Some(p) = self.awaiting_reconcile.take() else { return };
                if p.retargets >= ACK_MAX_FAILOVERS {
                    return;
                }
                let now = ctx.now();
                for _ in 0..4 {
                    match self.cross_zone_peer(ctx.rng(), now) {
                        Some(peer) if peer != p.peer => {
                            self.stats.reconcile_retargets += 1;
                            obs::metric_add!(self.agent.id(), ctr::NW_RECONCILE_RETARGETS, 1);
                            self.send_reconcile_request(
                                ctx,
                                peer,
                                p.publisher,
                                p.ranges,
                                p.retargets + 1,
                                false,
                            );
                            return;
                        }
                        Some(_) => continue,
                        None => return,
                    }
                }
            }
            tag if tag > ACK_TAG_BASE => self.handle_ack_timeout(ctx, tag),
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, NewsWireMsg>) {
        // The legacy `Freeze` recovery: protocol state is wiped as if the
        // process restarted, but ambient memory survives — the subscription
        // attributes stay in the local MIB builder (standing in for the
        // user's configuration file), queues and the duty dedup window keep
        // their contents, and no incarnation is burned. State transfer
        // (`want_snapshot`) refills the cache and re-delivers what the
        // subscription matches. Cold restarts go through `on_restart`.
        self.reset_volatile();
        self.rearm_timers(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, NewsWireMsg>, mode: RestartMode) {
        if mode == RestartMode::Freeze {
            self.on_recover(ctx);
            return;
        }
        let now = ctx.now();
        // The process is dead: everything volatile goes, including what a
        // freeze keeps (forwarding queues, the duty dedup window). Stats
        // and the forward log are measurement instrumentation, not process
        // state, and survive in every mode.
        self.reset_volatile();
        self.coverage = CoverageWindow::new(8192);
        self.queues = ForwardingQueues::new(FORWARD_STRATEGY);
        self.reconcile_cursor = 0;
        self.gossip_ticks = 0;
        self.persisted_fingerprint = 0;
        self.backfill_this_recovery = 0;
        // Rotation state is protocol state, not binary state: a cold
        // process forgets adopted revocations and relearns them from disk
        // (durable) or gossip (amnesiac). Forgetting is safe — the
        // surviving `publisher_certs` primary is already the successor, and
        // clearing `alt_certs`/`retired_certs` means old-key signatures
        // simply fail certificate lookup instead of needing the fence.
        self.revoked.clear();
        self.rotation_serials.clear();
        self.rotations.clear();
        self.rotation_rider = None;
        self.alt_certs.clear();
        self.retired_certs.clear();
        self.probation.clear();
        self.rotation_adopted_at = None;
        // Retract gossiped advertisements describing pre-crash state the
        // new process does not hold; they are rebuilt below from whatever
        // the disk gives back.
        self.agent.remove_local_attrs(AE_ATTR_PREFIX);
        self.agent.remove_local_attrs(ROT_ATTR_PREFIX);

        // Incarnation: read-modify-write against stable storage, floored
        // by simulated time so even an amnesiac restart (blank disk) moves
        // strictly forward. Synced immediately — losing the bump would let
        // pre-crash gossip about this node outrank its new life.
        let stored = ctx.disk().read(DISK_KEY_INCAR).and_then(persist::decode_incarnation);
        let incarnation = match (mode, stored) {
            (RestartMode::ColdDurable, Some(s)) => s.saturating_add(1).max(now.as_micros()),
            _ => now.as_micros(),
        }
        .max(1);
        self.agent.set_incarnation(incarnation);
        ctx.disk().write(DISK_KEY_INCAR, persist::encode_incarnation(incarnation));
        ctx.disk().fsync();

        // Re-derive the subscription: from disk under a durable restart,
        // from the user's re-entered configuration (the retained field)
        // under amnesia or when the disk record is missing or torn.
        let from_disk = match mode {
            RestartMode::ColdDurable => {
                ctx.disk().read(DISK_KEY_SUB).and_then(persist::decode_subscription)
            }
            _ => None,
        };
        let sub = from_disk.unwrap_or_else(|| self.subscription.clone());
        self.set_subscription(sub);
        // The join endorsement is identity-bound, not process-bound: the
        // reborn process re-presents it or admission control refuses it.
        self.publish_join_ticket();
        ctx.disk().write(DISK_KEY_SUB, persist::encode_subscription(&self.subscription));

        // Durable restart: restore the last synced `state` snapshot. Writes
        // lost between the last fsync and the crash surface as honest log
        // gaps, which the recovery pulls (and PR-2 anti-entropy) backfill.
        let mut restored = 0u64;
        if mode == RestartMode::ColdDurable {
            if let Some(state) = ctx.disk().read(DISK_KEY_STATE).and_then(persist::decode_state) {
                // Re-arm the revocation fence *before* re-admitting items:
                // restore is admission path 4, and a rotation adopted from
                // disk must fence the very blob it rode in on.
                for enc in &state.rotations {
                    if let Some(rec) = RotationRecord::decode(enc) {
                        self.adopt_rotation(&rec);
                    }
                }
                restored = self.restore_cached_items(state.items, now);
                self.deliveries = state.deliveries;
                for ls in state.logs {
                    let log = self
                        .article_logs
                        .entry(ls.publisher)
                        .or_insert_with(|| SeqLog::new(ARTICLE_LOG_CAPACITY));
                    for (lo, hi) in ls.present {
                        for seq in lo..=hi {
                            log.insert(seq, ());
                        }
                    }
                    log.restore_coverage(&ls.coverage);
                }
            }
        }
        // Re-advertise coverage from what actually came back.
        self.publish_ae_digests();
        ctx.disk().fsync();

        self.stats.cold_restarts += 1;
        self.recovering_since = Some(now);
        obs::trace_event!(
            self.agent.id(),
            Layer::News,
            kind::NW_RECOVERY_START,
            mode.discriminant(),
            restored
        );
        // Same re-arm cadence as a freeze; the randomized first tick is an
        // on_start-only affordance, so the cold path stays deterministic
        // relative to the legacy one.
        self.rearm_timers(ctx);
    }

    fn apply_corruption(&mut self, op: &CorruptionOp, rng: &mut SmallRng) -> u64 {
        match *op {
            CorruptionOp::ZoneRows { rows } => {
                // Two prongs. First: scramble this node's own subscription
                // advertisement — poison that propagates upward under
                // perfectly legitimate stamps until the self-audit
                // re-derives it from the subscription object.
                let mut hit = 0u64;
                for (attr, want) in self.derived_sub_attrs() {
                    let zeroed = match want {
                        AttrValue::Bits(b) => AttrValue::from(BitArray::new(b.len())),
                        _ => AttrValue::Int(0),
                    };
                    self.agent.set_local_attr(&attr, zeroed);
                    hit += 1;
                }
                // Second: scramble held replicas in place, stamps kept —
                // corruption digest-driven anti-entropy cannot see.
                hit + self.agent.corrupt_rows(rng, rows)
            }
            CorruptionOp::ForgeItems { items, publisher } => {
                // A Byzantine cache: fabricate items impersonating
                // `publisher`, planted just past the local log head —
                // exactly where honest tail catch-up and repair look next.
                // The forger's own log and gossiped digest advertise them
                // as real coverage; the bogus signatures drawn from the
                // strike stream are what defended receivers refuse.
                let publisher = PublisherId(publisher);
                let base = self.article_logs.get(&publisher).map_or(0, |l| l.next_seq());
                let now = self.clock;
                let mut injected = 0u64;
                for k in 0..u64::from(items) {
                    let seq = base + k;
                    let item = NewsItem::builder(publisher, seq)
                        .headline(format!("FORGED dispatch {seq}"))
                        .category(Category::Technology)
                        .build();
                    self.log_seen(item.id);
                    self.item_sigs.insert(item.id, (KeyId(rng.gen()), Signature(rng.gen())));
                    self.cache.insert(item, now);
                    injected += 1;
                }
                injected
            }
            CorruptionOp::VoteEpoch { publisher, epoch } => {
                // A colluder votes the group's shared fabricated epoch into
                // its own article log and digest. Enough same-zone voters
                // capture the unsigned neighbour-consensus mode that the
                // legacy epoch fence trusts; phantom head coverage makes
                // the captured digest look fresher than any honest one.
                let publisher = PublisherId(publisher);
                let log = self
                    .article_logs
                    .entry(publisher)
                    .or_insert_with(|| SeqLog::new(ARTICLE_LOG_CAPACITY));
                if epoch <= log.epoch() {
                    return 0;
                }
                log.adopt_epoch(epoch);
                for seq in 0..8 {
                    log.insert(seq, ());
                }
                9
            }
            CorruptionOp::LogEpoch { entries } => {
                // Poison one article log with a fabricated newer epoch plus
                // phantom coverage. The next digest publication advertises
                // it; with defenses off the fake epoch spreads by reconcile
                // contagion (every absorber adopts and wipes its log).
                let publishers: Vec<PublisherId> = self.article_logs.keys().copied().collect();
                let Some(&publisher) = publishers.as_slice().choose(rng) else { return 0 };
                let log = self.article_logs.get_mut(&publisher).expect("key just listed");
                let fake = log.epoch() + 1;
                log.adopt_epoch(fake);
                for seq in 0..u64::from(entries) {
                    log.insert(seq, ());
                }
                u64::from(entries) + 1
            }
            CorruptionOp::StolenKey { publisher, items, attest_bump } => {
                // The adversary holds the publisher's *real* signing key.
                // Preferring the retired certificate over the primary keeps
                // the attack honest across a rotation: after the victim
                // re-keys, the stolen key is the *old* one, so its
                // forgeries only verify on nodes that have not yet adopted
                // the rotation.
                let publisher = PublisherId(publisher);
                let Some(cert) = self
                    .retired_certs
                    .get(&publisher)
                    .or_else(|| self.publisher_certs.get(&publisher))
                    .cloned()
                else {
                    return 0;
                };
                let Some(stolen) = self.registry.exfiltrate_key(cert.key) else { return 0 };
                let cred = PublisherCredential::from_parts(cert, stolen);
                let base = self.article_logs.get(&publisher).map_or(0, |l| l.next_seq());
                let now = self.clock;
                let mut hit = 0u64;
                for k in 0..u64::from(items) {
                    let seq = base + k;
                    let item = NewsItem::builder(publisher, seq)
                        .headline(format!("STOLEN-KEY dispatch {seq}"))
                        .category(Category::Technology)
                        .build();
                    let sig = cred.sign(&item);
                    self.log_seen(item.id);
                    self.item_sigs.insert(item.id, (cred.key_id(), sig));
                    self.cache.insert(item, now);
                    hit += 1;
                }
                if attest_bump > 0 {
                    // A bogus epoch attestation, validly signed with the
                    // stolen key: the signed-authority defense *verifies*
                    // it — only revocation (admission path 5) stops it.
                    let log_epoch = self.article_logs.get(&publisher).map_or(0, |l| l.epoch());
                    let epoch = self
                        .authority_epoch(publisher)
                        .unwrap_or(0)
                        .max(log_epoch)
                        .saturating_add(attest_bump);
                    let attest = cred.attest_epoch(epoch);
                    self.absorb_attest(&attest);
                    hit += 1;
                }
                hit
            }
            CorruptionOp::SybilFlood { identities, publisher, epoch } => {
                // Fabricated identities injected into this node's own leaf
                // table under perfectly valid row structure: in-range
                // label, required `id` attribute, fresh (non-future) stamp.
                // The corrupt node merges its own message unconditionally;
                // honest receivers with admission control on refuse the
                // rows at gossip ingest for lacking a join ticket. Each
                // Sybil advertises phantom coverage under the jointly
                // fabricated epoch, pulling the unsigned neighbour
                // consensus toward it.
                let now = self.clock;
                let branching = self.agent.config().branching;
                let own = self.agent.own_label(0);
                let digest = RangeSummary { epoch, floor: 0, next: 8, present: 8 }.encode();
                let salt: u32 = rng.gen_range(0..0x1000);
                let mut rows: Vec<(u16, Arc<Mib>)> = Vec::new();
                let mut label = 0u16;
                for k in 0..identities {
                    if label == own {
                        label += 1;
                    }
                    if label >= branching {
                        break; // a leaf zone has only `branching` slots
                    }
                    let id = SYBIL_ID_BASE + salt * 64 + k;
                    let row = MibBuilder::new()
                        .attr("id", i64::from(id))
                        .attr(format!("{AE_ATTR_PREFIX}{publisher}"), digest.clone())
                        .build(Stamp { issued_us: now.as_micros(), version: 1, origin: id });
                    rows.push((label, Arc::new(row)));
                    label += 1;
                }
                if rows.is_empty() {
                    return 0;
                }
                let injected = rows.len() as u64;
                let zone = self.agent.chain()[0].clone();
                let msg = GossipMsg::Rows { rows: vec![TableRows { zone, rows }] };
                let _ = self.agent.on_message(now, self.agent.id(), msg, rng);
                injected
            }
            // Torn disk bytes are flipped by the engine (`Disk::corrupt`)
            // without consulting the node.
            CorruptionOp::DiskBytes { .. } => 0,
        }
    }

    fn tamper_outbound(
        &mut self,
        to: NodeId,
        msg: &mut NewsWireMsg,
        mode: LiarMode,
        _rng: &mut SmallRng,
    ) -> LiarAction {
        match mode {
            // A lying representative mis-aggregates: the subscription
            // summaries in every row it gossips are zeroed (under the
            // rows' legitimate stamps), steering forwarding away from the
            // subtrees those rows summarize.
            LiarMode::MisSummarize => tamper_gossip_rows(msg, mis_summarized),
            // A lying forwarder silently swallows the news itself while
            // staying a lively, cooperative gossip participant.
            LiarMode::SelectiveDrop => match msg {
                NewsWireMsg::Forward { .. } | NewsWireMsg::Deliver { .. } => LiarAction::Dropped,
                _ => LiarAction::Pass,
            },
            // A liar re-advertising empty anti-entropy digests: peers never
            // select it as a reconcile source and reconciliation pressure
            // shifts onto the honest rest of the zone.
            LiarMode::StaleDigest => tamper_gossip_rows(msg, stale_digested),
            // Split-brain lying: different stories to different
            // destinations. Half the peer space sees this node's true
            // digests, the other half sees empty ones — no single receiver
            // can observe the inconsistency, only the digest-contradiction
            // strike (request what was advertised, get an empty reply)
            // catches it.
            LiarMode::SplitBrain => {
                if to.0 % 2 == 1 {
                    tamper_gossip_rows(msg, stale_digested)
                } else {
                    LiarAction::Pass
                }
            }
        }
    }
}

/// Applies a per-row tampering function to every row batch of an outbound
/// gossip message. Returns `Tampered` when any row was rewritten.
fn tamper_gossip_rows(msg: &mut NewsWireMsg, lie: impl Fn(&Mib) -> Option<Arc<Mib>>) -> LiarAction {
    let NewsWireMsg::Gossip { g, .. } = msg else { return LiarAction::Pass };
    let batches = match g {
        GossipMsg::DigestReply { rows, .. } | GossipMsg::Rows { rows } => rows,
        GossipMsg::Digest { .. } => return LiarAction::Pass,
    };
    let mut tampered = false;
    for batch in batches.iter_mut() {
        for (_, row) in batch.rows.iter_mut() {
            if let Some(fake) = lie(row) {
                *row = fake;
                tampered = true;
            }
        }
    }
    if tampered {
        LiarAction::Tampered
    } else {
        LiarAction::Pass
    }
}

/// A mis-aggregated copy of `row`: subscription summaries (`subs` Bloom
/// bits, `cats$` masks) zeroed, stamp kept — indistinguishable from the
/// honest version by version vector. `None` when the row carries none.
fn mis_summarized(row: &Mib) -> Option<Arc<Mib>> {
    let mut changed = false;
    let attrs = row
        .attrs()
        .iter()
        .map(|(name, value)| {
            let zero = if name.as_ref() == "subs" {
                match value {
                    AttrValue::Bits(b) if !b.is_zero() => {
                        Some(AttrValue::from(BitArray::new(b.len())))
                    }
                    _ => None,
                }
            } else if name.starts_with("cats$") {
                match value {
                    AttrValue::Int(n) if *n != 0 => Some(AttrValue::Int(0)),
                    _ => None,
                }
            } else {
                None
            };
            match zero {
                Some(z) => {
                    changed = true;
                    (Arc::clone(name), z)
                }
                None => (Arc::clone(name), value.clone()),
            }
        })
        .collect();
    changed.then(|| Arc::new(Mib::new(row.stamp, attrs)))
}

/// A stale-digest copy of `row`: every `sys$ae:` advertisement replaced
/// with an empty-coverage summary, stamp kept. `None` when nothing to fake.
fn stale_digested(row: &Mib) -> Option<Arc<Mib>> {
    let empty = RangeSummary::default().encode();
    let mut changed = false;
    let attrs = row
        .attrs()
        .iter()
        .map(|(name, value)| {
            if name.starts_with(AE_ATTR_PREFIX) && value.as_str() != Some(empty.as_str()) {
                changed = true;
                (Arc::clone(name), AttrValue::Str(empty.clone()))
            } else {
                (Arc::clone(name), value.clone())
            }
        })
        .collect();
    changed.then(|| Arc::new(Mib::new(row.stamp, attrs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SubscriptionModel;
    use crate::subscription::Subscription;
    use astrolabe::{Config, TrustRegistry, ZoneLayout};
    use newsml::{Category, PublisherId};
    use std::sync::Arc;

    fn node_with(cfg: NewsWireConfig) -> NewsWireNode {
        let layout = ZoneLayout::new(4, 4);
        let agent = Agent::new(0, &layout, Config::standard(), vec![]);
        NewsWireNode::new(agent, cfg, Arc::new(TrustRegistry::new(1)))
    }

    fn tech_sub() -> Subscription {
        let mut s = Subscription::new();
        s.subscribe_category(PublisherId(0), Category::Technology);
        s
    }

    fn tech_item(seq: u64) -> NewsItem {
        NewsItem::builder(PublisherId(0), seq)
            .headline(format!("t{seq}")) // distinct slugs: avoid revision fusion
            .category(Category::Technology)
            .build()
    }

    #[test]
    fn filter_for_follows_model() {
        let mut bloom = node_with(NewsWireConfig::tech_news());
        bloom.set_subscription(tech_sub());
        match bloom.filter_for(&tech_item(0)) {
            FilterSpec::BloomAny { attr, groups } => {
                assert_eq!(attr, "subs");
                assert!(!groups.is_empty());
            }
            other => panic!("expected BloomAny, got {other:?}"),
        }
        let mut masks = node_with(NewsWireConfig::prototype_masks());
        masks.set_subscription(tech_sub());
        match masks.filter_for(&tech_item(0)) {
            FilterSpec::MaskBits { attr, mask } => {
                assert_eq!(attr, "cats$0");
                assert_eq!(mask, 1 << Category::Technology.bit());
            }
            other => panic!("expected MaskBits, got {other:?}"),
        }
    }

    #[test]
    fn set_subscription_publishes_summary_attrs() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        assert!(matches!(n.agent.local_attr("subs"), Some(astrolabe::AttrValue::Bits(_))));
        let mut m = node_with(NewsWireConfig::prototype_masks());
        m.set_subscription(tech_sub());
        assert!(matches!(m.agent.local_attr("cats$0"), Some(astrolabe::AttrValue::Int(_))));
    }

    #[test]
    fn dissemination_predicate_checks_local_attrs() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let mut item = tech_item(0);
        item.meta.push((DISSEMINATION_PREDICATE.to_owned(), "premium > 0".to_owned()));
        assert!(!n.dissemination_admits(&item), "no premium attr: fail closed");
        n.agent.set_local_attr("premium", 1i64);
        assert!(n.dissemination_admits(&item));
        // Malformed predicate fails closed too.
        let mut bad = tech_item(1);
        bad.meta.push((DISSEMINATION_PREDICATE.to_owned(), "((".to_owned()));
        assert!(!n.dissemination_admits(&bad));
        // No predicate: admitted.
        assert!(n.dissemination_admits(&tech_item(2)));
    }

    #[test]
    fn dissemination_scope_confines_every_delivery_path() {
        // 16 agents, branching 4: agent 0's leaf zone is /0.
        let layout = ZoneLayout::new(16, 4);
        let agent = Agent::new(0, &layout, Config::standard(), vec![]);
        let mut n =
            NewsWireNode::new(agent, NewsWireConfig::tech_news(), Arc::new(TrustRegistry::new(1)));
        n.set_subscription(tech_sub());
        let mut in_zone = tech_item(0);
        in_zone.meta.push((DISSEMINATION_SCOPE.to_owned(), "/0".to_owned()));
        assert!(n.dissemination_admits(&in_zone));
        let mut out_of_zone = tech_item(1);
        out_of_zone.meta.push((DISSEMINATION_SCOPE.to_owned(), "/1".to_owned()));
        assert!(!n.dissemination_admits(&out_of_zone));
        // A garbage scope fails closed, like a malformed predicate.
        let mut bad = tech_item(2);
        bad.meta.push((DISSEMINATION_SCOPE.to_owned(), "asia".to_owned()));
        assert!(!n.dissemination_admits(&bad));
        // handle_delivery with via_repair=true models the reconcile/repair
        // paths, which ship bare items: the scope must still confine them.
        let now = SimTime::from_secs(1);
        n.handle_delivery(now, Arc::new(out_of_zone.clone()), true);
        assert!(!n.has_item(out_of_zone.id), "repair must not leak scoped items");
        assert_eq!(n.stats.predicate_filtered, 1);
        // …but the seq was still *seen*, so reconcile won't re-request it.
        assert!(n.article_log(PublisherId(0)).is_some_and(|l| l.contains(1)));
        n.handle_delivery(now, Arc::new(in_zone.clone()), true);
        assert!(n.has_item(in_zone.id), "in-zone repair still delivers");
    }

    #[test]
    fn replies_delta_encode_against_declared_baselines() {
        let mut cfg = NewsWireConfig::tech_news();
        cfg.deltas = true;
        let mut n = node_with(cfg);
        let now = SimTime::from_secs(1);
        let rev3 = NewsItem::builder(PublisherId(0), 5)
            .slug("merger")
            .revision(3, None)
            .body_len(6000)
            .build();
        n.cache.insert(rev3.clone(), now);

        // A requester declaring revision 2 gets a delta-annotated reply…
        let hint = BaselineHint {
            key: newsml::cdc::slug_key(PublisherId(0), "merger"),
            revision: 2,
            body_len: 6000,
        };
        let signed = n.sign_items(vec![Arc::new(rev3.clone())], &[hint]);
        assert_eq!(signed[0].basis, Some(DeltaBasis { revision: 2, body_len: 6000 }));
        assert!(signed[0].compressed_wire_size() < signed[0].wire_size() / 2);

        // …a requester already on revision 3 deltas hardest of all: the
        // re-offer collapses to chunk references the receiver satisfies
        // from its own cache.
        let even = BaselineHint { revision: 3, ..hint };
        let dup = n.sign_items(vec![Arc::new(rev3.clone())], &[even]);
        assert_eq!(dup[0].basis, Some(DeltaBasis { revision: 3, body_len: 6000 }));
        assert!(dup[0].compressed_wire_size() < signed[0].compressed_wire_size());
        // …and a requester that declared nothing gets the full body.
        assert_eq!(n.sign_items(vec![Arc::new(rev3.clone())], &[])[0].basis, None);

        // The node's own requests declare its cache as baselines, sorted;
        // with deltas off they stay empty so the wire is byte-identical.
        let hints = n.request_baselines(None);
        assert_eq!(hints.len(), 1);
        assert_eq!(hints[0].revision, 3);
        n.cfg.deltas = false;
        assert!(n.request_baselines(None).is_empty());
        assert_eq!(
            n.sign_items(vec![Arc::new(rev3)], &[hint])[0].basis,
            None,
            "deltas off: never annotate"
        );
    }

    #[test]
    fn handle_delivery_classifies_outcomes() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);
        // Matching item: delivered + cached.
        n.handle_delivery(now, Arc::new(tech_item(0)), false);
        assert_eq!(n.stats.delivered, 1);
        assert_eq!(n.deliveries.len(), 1);
        // Same item again: duplicate.
        n.handle_delivery(now, Arc::new(tech_item(0)), false);
        assert_eq!(n.stats.duplicates, 1);
        // Structurally uninteresting item: Bloom false positive.
        let sports =
            NewsItem::builder(PublisherId(0), 5).headline("s").category(Category::Sports).build();
        n.handle_delivery(now, Arc::new(sports), false);
        assert_eq!(n.stats.bloom_fp_deliveries, 1);
        assert_eq!(n.stats.delivered, 1, "not delivered to the app");
        // Matching but predicate-rejected: filtered, still cached.
        n.subscription.set_predicate("urgency = 1").unwrap();
        n.handle_delivery(now, Arc::new(tech_item(7)), false);
        assert_eq!(n.stats.predicate_filtered, 1);
        assert!(n.cache.contains(newsml::ItemId::new(PublisherId(0), 7)));
    }

    #[test]
    fn repair_delivery_is_flagged() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        n.handle_delivery(SimTime::from_secs(2), Arc::new(tech_item(3)), true);
        assert!(n.deliveries[0].via_repair);
    }

    #[test]
    fn publisher_accessor_and_model_attrs() {
        let n = node_with(NewsWireConfig::tech_news());
        assert!(n.publisher().is_none());
        assert_eq!(SubscriptionModel::CategoryMask.attr_for(PublisherId(3)), "cats$3");
    }

    #[test]
    fn article_log_tracks_every_arrival() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);
        for seq in [0, 1, 4] {
            n.handle_delivery(now, Arc::new(tech_item(seq)), false);
        }
        // A duplicate is still a single log entry…
        n.handle_delivery(now, Arc::new(tech_item(1)), false);
        // …and an uninteresting (Bloom FP) arrival is seen too.
        let sports =
            NewsItem::builder(PublisherId(0), 5).headline("s").category(Category::Sports).build();
        n.handle_delivery(now, Arc::new(sports), false);
        let log = n.article_log(PublisherId(0)).expect("log exists");
        assert_eq!(log.len(), 4, "seqs 0, 1, 4, 5 — the duplicate logs once");
        assert_eq!(log.gaps(), vec![(2, 3)], "the unseen seqs are the holes");
        assert_eq!(n.logged_publishers().collect::<Vec<_>>(), vec![PublisherId(0)]);
        assert!(n.article_log(PublisherId(9)).is_none());
    }

    #[test]
    fn ae_digest_attr_roundtrips_through_the_mib() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);
        for seq in [0, 1, 2, 6] {
            n.handle_delivery(now, Arc::new(tech_item(seq)), false);
        }
        n.publish_ae_digests();
        let attr = format!("{AE_ATTR_PREFIX}0");
        let encoded = n.agent.local_attr(&attr).and_then(|v| v.as_str().map(str::to_owned));
        let summary = RangeSummary::decode(&encoded.expect("digest published")).unwrap();
        assert_eq!(summary, n.article_log(PublisherId(0)).unwrap().summary());
        assert!(!summary.contiguous(), "the hole at 3..=5 shows in the digest");
        // With anti-entropy off, no digest is published.
        let mut off =
            node_with(NewsWireConfig { anti_entropy: false, ..NewsWireConfig::tech_news() });
        off.handle_delivery(now, Arc::new(tech_item(0)), false);
        off.publish_ae_digests();
        assert!(off.agent.local_attr(&attr).is_none());
    }

    #[test]
    fn phi_detector_suspects_silent_peers_only() {
        let mut n = node_with(NewsWireConfig::tech_news());
        let (fresh, quiet) = (NodeId(7), NodeId(8));
        // Both peers heartbeat regularly for a while…
        for s in 0..20 {
            n.note_alive(fresh, SimTime::from_secs(s));
            n.note_alive(quiet, SimTime::from_secs(s));
        }
        // …then one goes silent while the other keeps talking.
        for s in 20..60 {
            n.note_alive(fresh, SimTime::from_secs(s));
        }
        let now = SimTime::from_secs(60);
        assert!(!n.peer_suspect(7, now));
        assert!(n.peer_suspect(8, now));
        assert!(!n.peer_suspect(9, now), "never-seen peers are unknown, not suspect");
        // External inputs never feed a detector.
        n.note_alive(NodeId::EXTERNAL, now);
        assert!(!n.peer_health.contains_key(&NodeId::EXTERNAL.0));
        // Candidate filtering drops the suspect while alternatives exist…
        let mut candidates = vec![7, 8];
        n.prefer_unsuspected(&mut candidates, now);
        assert_eq!(candidates, vec![7]);
        // …but keeps it when it is the only option.
        let mut only = vec![8];
        n.prefer_unsuspected(&mut only, now);
        assert_eq!(only, vec![8]);
    }

    #[test]
    fn incarnation_bump_makes_recovered_peer_a_failover_target_again() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        use rand::SeedableRng;
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        // Peer 2 (a leaf-zone neighbour) heartbeats, then goes silent long
        // enough for phi-accrual to suspect it.
        for s in 0..20 {
            n.note_alive(NodeId(2), SimTime::from_secs(s));
        }
        let now = SimTime::from_secs(60);
        assert!(n.peer_suspect(2, now), "silence made the peer suspect");
        let mut candidates = vec![1, 2];
        n.prefer_unsuspected(&mut candidates, now);
        assert_eq!(candidates, vec![1], "suspect peer dropped from failover candidates");
        // The peer cold-restarts; the very next gossip round carries its
        // row under a new incarnation. The suspicion belonged to its
        // previous life and must clear within that same round.
        let row = MibBuilder::new().attr("id", 2i64).attr("incar", 5i64).build(Stamp {
            issued_us: now.as_micros(),
            version: 1,
            origin: 2,
        });
        let msg = GossipMsg::Rows {
            rows: vec![TableRows {
                zone: n.agent.chain()[0].clone(),
                rows: vec![(2, Arc::new(row))],
            }],
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        n.agent.on_message(now, 2, msg, &mut rng);
        n.absorb_incarnation_bumps();
        assert!(!n.peer_suspect(2, now), "new incarnation cleared the stale suspicion");
        let mut candidates = vec![1, 2];
        n.prefer_unsuspected(&mut candidates, now);
        assert_eq!(candidates, vec![1, 2], "recovered peer selectable as failover target");
    }

    #[test]
    fn durable_state_snapshot_roundtrips_through_the_codec() {
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);
        for seq in [0, 1, 4] {
            n.handle_delivery(now, Arc::new(tech_item(seq)), false);
        }
        let fp = n.state_fingerprint();
        let state = crate::persist::decode_state(&n.encode_durable_state()).unwrap();
        let cached: Vec<NewsItem> = n.cache.iter().cloned().collect();
        let decoded: Vec<NewsItem> = state.items.iter().map(|(item, ..)| item.clone()).collect();
        assert_eq!(decoded, cached);
        assert_eq!(state.deliveries, n.deliveries);
        assert_eq!(state.deliveries.len(), 3);
        assert_eq!(state.logs.len(), 1);
        assert_eq!(state.logs[0].present, vec![(0, 1), (4, 4)]);
        assert_eq!(state.logs[0].coverage, n.article_logs[&PublisherId(0)].encode_coverage());
        // The fingerprint is stable while nothing changes and moves when
        // the durable state does.
        assert_eq!(n.state_fingerprint(), fp);
        n.handle_delivery(now, Arc::new(tech_item(5)), false);
        assert_ne!(n.state_fingerprint(), fp);
    }

    /// A malformed gossip batch — out-of-range label, future-dated stamp,
    /// leaf row with no `id` — must neither panic nor silently merge when
    /// defenses are on (the config default), and the same batch is what a
    /// defenses-off node happily admits (the E17 ablation in miniature).
    #[test]
    fn defenses_reject_malformed_gossip_rows_at_ingest() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        use rand::SeedableRng;
        let stamp = |t: u64, o: u32| Stamp { issued_us: t, version: 1, origin: o };
        let malformed = |zone: astrolabe::ZoneId| GossipMsg::Rows {
            rows: vec![TableRows {
                zone,
                rows: vec![
                    (200, Arc::new(MibBuilder::new().attr("id", 2i64).build(stamp(1_000_000, 2)))),
                    (2, Arc::new(MibBuilder::new().attr("id", 2i64).build(stamp(999_000_000, 2)))),
                    (
                        3,
                        Arc::new(MibBuilder::new().attr("load", 0.5f64).build(stamp(1_000_000, 3))),
                    ),
                ],
            }],
        };
        let now = SimTime::from_secs(1);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);

        let mut n = node_with(NewsWireConfig::tech_news());
        assert!(n.cfg.defenses, "defenses are the default");
        let held = n.agent.table(0).len();
        n.agent.on_message(now, 2, malformed(n.agent.chain()[0].clone()), &mut rng);
        assert_eq!(n.agent.table(0).len(), held, "malformed rows must not merge");

        let mut cfg = NewsWireConfig::tech_news();
        cfg.defenses = false;
        let mut open = node_with(cfg);
        open.agent.on_message(now, 2, malformed(open.agent.chain()[0].clone()), &mut rng);
        assert!(open.agent.table(0).len() > held, "defenses off admits the poison");
    }

    /// The self-audit's epoch fence: an article log poisoned with a
    /// fabricated newer epoch (plus phantom coverage) is rebuilt at the
    /// epoch this node's leaf neighbours agree on, re-seeded from the
    /// item cache — and a healthy log is left untouched.
    #[test]
    fn self_audit_rebuilds_log_poisoned_beyond_consensus_epoch() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        use rand::SeedableRng;
        use simnet::CorruptionOp;
        let mut n = node_with(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(5);
        for seq in 0..3u64 {
            n.handle_delivery(now, Arc::new(tech_item(seq)), false);
        }
        // Two leaf neighbours advertise epoch-0 digests: the consensus.
        let digest = RangeSummary::default().encode();
        let rows: Vec<(u16, Arc<Mib>)> = [2u16, 3]
            .iter()
            .map(|&l| {
                let row = MibBuilder::new()
                    .attr("id", i64::from(l))
                    .attr(format!("{AE_ATTR_PREFIX}0"), digest.clone())
                    .build(Stamp { issued_us: now.as_micros(), version: 1, origin: u32::from(l) });
                (l, Arc::new(row))
            })
            .collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let msg =
            GossipMsg::Rows { rows: vec![TableRows { zone: n.agent.chain()[0].clone(), rows }] };
        n.agent.on_message(now, 2, msg, &mut rng);

        // A healthy audit is a no-op: same epoch, same coverage.
        n.self_audit(now);
        assert_eq!(n.article_logs[&PublisherId(0)].epoch(), 0);
        assert!(n.article_logs[&PublisherId(0)].contains(2));

        // The adversary fabricates a newer epoch plus phantom coverage…
        let hit = simnet::Node::apply_corruption(
            &mut n,
            &CorruptionOp::LogEpoch { entries: 4 },
            &mut rng,
        );
        assert!(hit > 0, "corruption must land");
        assert_eq!(n.article_logs[&PublisherId(0)].epoch(), 1);

        // …and the audit fences it back to the neighbours' consensus,
        // rebuilt from the cache: the three delivered items are present,
        // the phantom fourth is gone.
        n.self_audit(now);
        let log = &n.article_logs[&PublisherId(0)];
        assert_eq!(log.epoch(), 0, "fenced back to the consensus epoch");
        for seq in 0..3u64 {
            assert!(log.contains(seq), "cached item {seq} re-seeded");
        }
        assert!(!log.contains(3), "phantom coverage dropped by the rebuild");
    }

    /// A node whose trust registry issued publisher 0's credential, with the
    /// certificate and epoch-0 attestation pre-installed the way
    /// `DeploymentBuilder::build` does it.
    fn node_with_authority(
        cfg: NewsWireConfig,
    ) -> (NewsWireNode, crate::auth::PublisherCredential) {
        let mut registry = TrustRegistry::new(1);
        let cred = crate::auth::issue_publisher(
            &mut registry,
            PublisherId(0),
            "slashdot",
            &astrolabe::ZoneId::root(),
            6000,
        );
        let layout = ZoneLayout::new(4, 4);
        let agent = Agent::new(0, &layout, Config::standard(), vec![]);
        let mut n = NewsWireNode::new(agent, cfg, Arc::new(registry));
        n.install_publisher_authority(cred.certificate.clone(), cred.attest_epoch(0));
        (n, cred)
    }

    /// The bare-item admission funnel (repair replies, path 2; reconcile
    /// replies, path 3): a genuine detached signature admits, a forgery is
    /// refused before it touches log or cache, a tampered item cannot reuse
    /// a genuine signature, and a forged revision cannot displace the real
    /// story. The defenses-off ablation admits the same forgery.
    #[test]
    fn bare_item_admission_refuses_forgeries_on_repair_and_reconcile_paths() {
        let (mut n, cred) = node_with_authority(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);

        let real = tech_item(0);
        let sig = cred.sign(&real);
        n.admit_bare_item(now, Arc::new(real.clone()), cred.key_id(), sig, NodeId(5), 2);
        assert!(n.has_item(real.id), "a genuinely signed bare item admits");
        assert_eq!(n.stats.forged_rejects, 0);

        // A fabricated item under an invented signature is refused — and
        // leaves no trace in the article log (a forged seq must not poison
        // reconciliation into thinking it was seen).
        let forged = tech_item(1);
        n.admit_bare_item(now, Arc::new(forged.clone()), KeyId(99), Signature(77), NodeId(5), 2);
        assert!(!n.has_item(forged.id));
        assert!(!n.cache.contains(forged.id));
        assert!(!n.article_logs[&PublisherId(0)].contains(1), "forged seq not logged as seen");
        assert_eq!(n.stats.forged_rejects, 1);
        assert_eq!(n.misbehavior.get(&5), Some(&MISBEHAVIOR_FORGED), "the sender took a strike");

        // Tampering with a signed item invalidates its signature — the
        // reconcile path (3) runs the same funnel.
        let original = tech_item(2);
        let sig2 = cred.sign(&original);
        let mut tampered = original.clone();
        tampered.headline = "FAKE: markets collapse".into();
        n.admit_bare_item(now, Arc::new(tampered.clone()), cred.key_id(), sig2, NodeId(6), 3);
        assert!(!n.has_item(tampered.id));
        assert_eq!(n.stats.forged_rejects, 2);

        // A forged revision of a real slug is refused; revision 0 stays.
        let rev0 = NewsItem::builder(PublisherId(0), 3)
            .headline("story")
            .slug("the-story")
            .category(Category::Technology)
            .build();
        let rev0_sig = cred.sign(&rev0);
        n.admit_bare_item(now, Arc::new(rev0.clone()), cred.key_id(), rev0_sig, NodeId(5), 2);
        assert!(n.cache.contains(rev0.id));
        let fake_rev = NewsItem::builder(PublisherId(0), 4)
            .headline("story, rewritten")
            .slug("the-story")
            .revision(1, Some(rev0.id))
            .category(Category::Technology)
            .build();
        n.admit_bare_item(now, Arc::new(fake_rev.clone()), KeyId(1), Signature(2), NodeId(5), 2);
        assert!(n.cache.contains(rev0.id), "the real revision 0 survives");
        assert!(!n.cache.contains(fake_rev.id), "the forged revision is refused");

        // The ablation: defenses off admits the same forgery (what E18's
        // undefended arms measure).
        let mut cfg = NewsWireConfig::tech_news();
        cfg.defenses = false;
        let (mut open, _) = node_with_authority(cfg);
        open.set_subscription(tech_sub());
        open.admit_bare_item(now, Arc::new(forged.clone()), KeyId(99), Signature(77), NodeId(5), 2);
        assert!(open.has_item(forged.id), "defenses off admits the forgery");
        assert_eq!(open.stats.forged_rejects, 0);
    }

    /// Stable-storage restore (path 4) re-verifies every item: a tampered
    /// disk blob cannot resurrect forged content into the cache.
    #[test]
    fn stable_storage_restore_reverifies_signatures() {
        let (mut n, cred) = node_with_authority(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);
        let good = tech_item(0);
        let sig = cred.sign(&good);
        let bad = tech_item(1);
        let restored = n.restore_cached_items(
            vec![(good.clone(), cred.key_id(), sig), (bad.clone(), KeyId(9), Signature(9))],
            now,
        );
        assert_eq!(restored, 1, "only the verifiable item restores");
        assert!(n.cache.contains(good.id));
        assert!(!n.cache.contains(bad.id));
        assert_eq!(n.stats.forged_rejects, 1);
    }

    /// A node plus a pre-issued rotation for publisher 0: the original
    /// credential, the signed revocation record, and the successor
    /// credential — the unit-scale mirror of `DeploymentBuilder::build`.
    fn node_with_rotation(
        cfg: NewsWireConfig,
    ) -> (
        NewsWireNode,
        crate::auth::PublisherCredential,
        RotationRecord,
        crate::auth::PublisherCredential,
    ) {
        let mut registry = TrustRegistry::new(1);
        let cred = crate::auth::issue_publisher(
            &mut registry,
            PublisherId(0),
            "slashdot",
            &astrolabe::ZoneId::root(),
            6000,
        );
        let claims = vec![
            ("publisher".to_owned(), "0".to_owned()),
            ("scope".to_owned(), astrolabe::ZoneId::root().to_string()),
            ("rate".to_owned(), "6000".to_owned()),
        ];
        let (record, key) = registry.issue_rotation(
            cred.certificate.subject.clone(),
            cred.certificate.key,
            0,
            1,
            claims,
        );
        let successor = crate::auth::PublisherCredential::from_parts(record.successor.clone(), key);
        let layout = ZoneLayout::new(4, 4);
        let agent = Agent::new(0, &layout, Config::standard(), vec![]);
        let mut n = NewsWireNode::new(agent, cfg, Arc::new(registry));
        n.install_publisher_authority(cred.certificate.clone(), cred.attest_epoch(0));
        (n, cred, record, successor)
    }

    /// Adopting a rotation retires the old primary, installs the successor,
    /// retroactively purges revoked-key items, and fences every admission
    /// path — envelopes (1), repair replies (2), reconcile replies (3),
    /// disk restore (4), and epoch attestations (5) — against signatures
    /// that still verify under the stolen key. No path takes a misbehavior
    /// strike (an honest relay may simply be behind on the rotation), and
    /// the successor key is immediately live.
    #[test]
    fn adopt_rotation_fences_every_admission_path() {
        let (mut n, cred, record, successor) = node_with_rotation(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);

        // Pre-revocation the compromised key IS the publisher's key: its
        // items admit (the exposure the oracle sanctions) and its
        // envelopes pass the fence.
        let old = tech_item(0);
        let old_sig = cred.sign(&old);
        n.admit_bare_item(now, Arc::new(old.clone()), cred.key_id(), old_sig, NodeId(5), 2);
        assert!(n.cache.contains(old.id));
        let probe = tech_item(9);
        let env = Envelope {
            msg_id: msg_id_of(probe.id),
            filter: FilterSpec::All,
            scope: astrolabe::ZoneId::root(),
            certificate: cred.certificate.clone(),
            key: cred.key_id(),
            signature: cred.sign(&probe),
            attest: cred.attest_epoch(0),
            basis: None,
            item: Arc::new(probe),
        };
        assert!(!n.envelope_fenced(&env), "pre-revocation envelopes pass");

        assert!(n.adopt_rotation(&record), "a genuine record adopts");
        assert!(n.rotation_adopted_at.is_some());
        assert_eq!(n.publisher_certs[&PublisherId(0)].key, successor.key_id());
        assert_eq!(n.retired_certs[&PublisherId(0)].key, cred.key_id());
        assert!(!n.cache.contains(old.id), "the retroactive purge scrubbed the item");
        assert_eq!(n.stats.retro_purged, 1);
        assert_eq!(n.authority_epoch(PublisherId(0)), None, "revoked-key authority dropped");

        // Path 1: the same envelope is now fenced before verification.
        assert!(n.envelope_fenced(&env), "path 1 drops revoked-key envelopes");
        // Paths 2 and 3: a validly signed revoked-key item cannot re-enter
        // through repair or reconcile replies.
        let replay = tech_item(1);
        let replay_sig = cred.sign(&replay);
        n.admit_bare_item(now, Arc::new(replay.clone()), cred.key_id(), replay_sig, NodeId(5), 2);
        assert!(!n.cache.contains(replay.id));
        n.admit_bare_item(now, Arc::new(replay.clone()), cred.key_id(), replay_sig, NodeId(6), 3);
        assert!(!n.cache.contains(replay.id));
        // Path 4: the revoked-key blob is dropped on disk restore.
        let restored =
            n.restore_cached_items(vec![(replay.clone(), cred.key_id(), replay_sig)], now);
        assert_eq!(restored, 0, "disk restore re-checks the fence");
        // Path 5: a bogus epoch bump signed by the stolen key carries no
        // authority.
        n.absorb_attest(&cred.attest_epoch(40));
        assert_eq!(n.authority_epoch(PublisherId(0)), None);
        assert_eq!(n.stats.revoked_key_rejects, 5);
        assert!(n.misbehavior.is_empty(), "revoked-key rejects never strike the relay");

        // The successor credential is live on every path.
        let fresh = tech_item(2);
        let fresh_sig = successor.sign(&fresh);
        n.admit_bare_item(
            now,
            Arc::new(fresh.clone()),
            successor.key_id(),
            fresh_sig,
            NodeId(5),
            2,
        );
        assert!(n.cache.contains(fresh.id));
        n.absorb_attest(&successor.attest_epoch(1));
        assert_eq!(n.authority_epoch(PublisherId(0)), Some(1));
    }

    /// The freshness fence: rotation serials are monotonic per publisher —
    /// an older (replayed) record cannot un-revoke a newer one, and a
    /// record never adopts twice.
    #[test]
    fn rotation_freshness_fence_never_unrevokes() {
        let (mut n, cred, older, _succ1) = node_with_rotation(NewsWireConfig::tech_news());
        // A second, newer rotation for the same revoked key (serial 2).
        let mut registry = TrustRegistry::new(1);
        let cred2 = crate::auth::issue_publisher(
            &mut registry,
            PublisherId(0),
            "slashdot",
            &astrolabe::ZoneId::root(),
            6000,
        );
        assert_eq!(cred2.certificate.key, cred.certificate.key, "issuance is deterministic");
        let claims = vec![
            ("publisher".to_owned(), "0".to_owned()),
            ("scope".to_owned(), astrolabe::ZoneId::root().to_string()),
            ("rate".to_owned(), "6000".to_owned()),
        ];
        let (newer, _) = registry.issue_rotation(
            "publisher:slashdot".to_owned(),
            cred2.certificate.key,
            0,
            2,
            {
                let mut c = claims.clone();
                c.push(("note".to_owned(), "second".to_owned()));
                c
            },
        );
        assert!(n.adopt_rotation(&newer), "the serial-2 record adopts");
        let primary = n.publisher_certs[&PublisherId(0)].key;
        assert_eq!(primary, newer.successor.key);
        assert!(!n.adopt_rotation(&older), "a replayed older serial is a no-op");
        assert_eq!(n.publisher_certs[&PublisherId(0)].key, primary, "primary unchanged");
        assert!(n.key_revoked(PublisherId(0), cred.key_id()), "the key stays revoked");
        assert!(!n.adopt_rotation(&newer), "the same serial never adopts twice");
        assert_eq!(n.rotation_serials[&PublisherId(0)], 2);
    }

    /// The §15 quarantine loophole, closed: with admission control on, an
    /// incarnation bump clears phi suspicion but launders the misbehavior
    /// score only when the restarted identity still holds a valid
    /// registry-endorsed join ticket. A quarantined peer restarting
    /// without one stays quarantined.
    #[test]
    fn unendorsed_restart_cannot_launder_quarantine() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        use rand::SeedableRng;
        let mut cfg = NewsWireConfig::tech_news();
        cfg.admission = true;
        let (mut n, _cred, _rec, _succ) = node_with_rotation(cfg);
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(60);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);

        n.note_misbehavior(NodeId(2), MISBEHAVIOR_FORGED);
        n.note_misbehavior(NodeId(2), MISBEHAVIOR_FENCE);
        assert!(n.quarantined(2));

        // Restart under a fresh incarnation, no join ticket in the row.
        let bare = MibBuilder::new().attr("id", 2i64).attr("incar", 5i64).build(Stamp {
            issued_us: now.as_micros(),
            version: 1,
            origin: 2,
        });
        let leaf = n.agent.chain()[0].clone();
        let msg = GossipMsg::Rows {
            rows: vec![TableRows { zone: leaf.clone(), rows: vec![(2, Arc::new(bare))] }],
        };
        n.agent.on_message(now, 2, msg, &mut rng);
        n.absorb_incarnation_bumps();
        assert!(n.quarantined(2), "an unendorsed restart keeps its quarantine");

        // The same restart carrying a valid ticket earns the clean slate.
        let ticket = n.registry.endorse_join(2);
        let endorsed = MibBuilder::new()
            .attr("id", 2i64)
            .attr("incar", 6i64)
            .attr(JOIN_TICKET_ATTR, format!("{:016x}", ticket.0))
            .build(Stamp { issued_us: now.as_micros() + 1, version: 2, origin: 2 });
        let msg = GossipMsg::Rows {
            rows: vec![TableRows { zone: leaf, rows: vec![(2, Arc::new(endorsed))] }],
        };
        n.agent.on_message(now, 2, msg, &mut rng);
        n.absorb_incarnation_bumps();
        assert!(!n.quarantined(2), "an endorsed restart clears the previous life's score");
    }

    /// Sybil admission control: leaf-zone rows without a valid
    /// registry-endorsed join ticket are stripped from incoming gossip and
    /// their ids held in the bounded probation set; endorsed rows pass
    /// until the per-zone quota fills.
    #[test]
    fn sybil_rows_refused_and_held_in_probation() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        let mut cfg = NewsWireConfig::tech_news();
        cfg.admission = true;
        let (mut n, _cred, _rec, _succ) = node_with_rotation(cfg);
        let now = SimTime::from_secs(1);
        let leaf = n.agent.chain()[0].clone();
        let row = |id: u32, label: u16, ticket: Option<String>| {
            let mut b = MibBuilder::new().attr("id", i64::from(id));
            if let Some(t) = ticket {
                b = b.attr(JOIN_TICKET_ATTR, t);
            }
            (label, Arc::new(b.build(Stamp { issued_us: now.as_micros(), version: 1, origin: id })))
        };
        let good = n.registry.endorse_join(31);
        let mut g = GossipMsg::Rows {
            rows: vec![TableRows {
                zone: leaf.clone(),
                rows: vec![
                    row(30, 1, None),
                    row(31, 2, Some(format!("{:016x}", good.0))),
                    row(32, 3, Some("junk".to_owned())),
                ],
            }],
        };
        n.filter_sybil_rows(&mut g);
        let GossipMsg::Rows { rows } = &g else { unreachable!() };
        let kept: Vec<u32> = rows[0]
            .rows
            .iter()
            .filter_map(|(_, r)| r.get("id").and_then(|v| v.as_i64()))
            .map(|v| v as u32)
            .collect();
        assert_eq!(kept, vec![31], "only the endorsed row survives");
        assert!(n.probation.contains(&30) && n.probation.contains(&32));
        assert_eq!(n.stats.probation_holds, 2);

        // Quota: even an endorsed identity is refused once the zone is
        // full — a registry leak cannot flood a zone past its cap.
        let mut cfg = NewsWireConfig::tech_news();
        cfg.admission = true;
        cfg.zone_quota = 0;
        let (mut tight, _c, _r, _s) = node_with_rotation(cfg);
        let endorsed = tight.registry.endorse_join(40);
        let mut g = GossipMsg::Rows {
            rows: vec![TableRows {
                zone: tight.agent.chain()[0].clone(),
                rows: vec![row(40, 1, Some(format!("{:016x}", endorsed.0)))],
            }],
        };
        tight.filter_sybil_rows(&mut g);
        let GossipMsg::Rows { rows } = &g else { unreachable!() };
        assert!(rows[0].rows.is_empty(), "quota-full zone refuses even endorsed joiners");
        assert!(tight.probation.contains(&40));
    }

    /// The misbehavior score: strikes accumulate, the quarantine transition
    /// fires exactly once at the threshold, a quarantined peer is suspect
    /// without any phi history, and external inputs / defenses-off nodes
    /// never quarantine.
    #[test]
    fn misbehavior_quarantine_crosses_threshold_once() {
        let mut n = node_with(NewsWireConfig::tech_news());
        let now = SimTime::from_secs(1);
        n.note_misbehavior(NodeId(7), MISBEHAVIOR_FORGED);
        assert!(!n.quarantined(7), "one forged strike (weight 2) is below threshold");
        n.note_misbehavior(NodeId(7), MISBEHAVIOR_FENCE);
        assert!(n.quarantined(7));
        assert!(n.peer_suspect(7, now), "quarantine shows through peer_suspect without phi");
        assert_eq!(n.stats.peers_quarantined, 1);
        n.note_misbehavior(NodeId(7), MISBEHAVIOR_CONTRADICTION);
        assert_eq!(n.stats.peers_quarantined, 1, "crossing the threshold counts once");
        // Selection drops the quarantined peer while alternatives exist.
        let mut candidates = vec![5, 7];
        n.prefer_unsuspected(&mut candidates, now);
        assert_eq!(candidates, vec![5]);
        // External inputs never take strikes.
        n.note_misbehavior(NodeId::EXTERNAL, 10);
        assert!(!n.misbehavior.contains_key(&NodeId::EXTERNAL.0));
        // Defenses off: scores accrue nowhere and nothing quarantines.
        let mut cfg = NewsWireConfig::tech_news();
        cfg.defenses = false;
        let mut open = node_with(cfg);
        open.note_misbehavior(NodeId(7), 10);
        assert!(!open.quarantined(7));
    }

    /// Signed epoch authority: fabricated attestations (wrong signature, or
    /// a publisher this node holds no certificate for) are never absorbed,
    /// genuine bumps are, and authority never moves backwards.
    #[test]
    fn signed_authority_ignores_unsigned_epoch_claims() {
        let (mut n, cred) = node_with_authority(NewsWireConfig::tech_news());
        assert_eq!(n.authority_epoch(PublisherId(0)), Some(0));
        // Claiming epoch 100 without the publisher's key goes nowhere.
        n.absorb_attest(&EpochAttest {
            publisher: PublisherId(0),
            epoch: 100,
            key: cred.key_id(),
            signature: Signature(0xBAD),
        });
        assert_eq!(n.authority_epoch(PublisherId(0)), Some(0));
        // A genuine re-signed bump is adopted…
        n.absorb_attest(&cred.attest_epoch(2));
        assert_eq!(n.authority_epoch(PublisherId(0)), Some(2));
        // …and a stale genuine attestation never lowers it.
        n.absorb_attest(&cred.attest_epoch(1));
        assert_eq!(n.authority_epoch(PublisherId(0)), Some(2));
        // No certificate held for the claimed publisher: fail closed.
        n.absorb_attest(&EpochAttest {
            publisher: PublisherId(7),
            epoch: 1,
            key: cred.key_id(),
            signature: Signature(1),
        });
        assert_eq!(n.authority_epoch(PublisherId(7)), None);
    }

    /// With a publisher-signed attestation installed, the self-audit fences
    /// a jointly-voted fabricated epoch back WITHOUT any neighbour rows —
    /// the collusion scenario where the unsigned leaf-zone consensus is
    /// exactly what the adversary captured.
    #[test]
    fn self_audit_fences_captured_epoch_with_signed_authority_alone() {
        use rand::SeedableRng;
        use simnet::CorruptionOp;
        let (mut n, _cred) = node_with_authority(NewsWireConfig::tech_news());
        n.set_subscription(tech_sub());
        let now = SimTime::from_secs(5);
        for seq in 0..3u64 {
            n.handle_delivery(now, Arc::new(tech_item(seq)), false);
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let hit = simnet::Node::apply_corruption(
            &mut n,
            &CorruptionOp::VoteEpoch { publisher: 0, epoch: 60 },
            &mut rng,
        );
        assert!(hit > 0, "the vote must land");
        assert_eq!(n.article_logs[&PublisherId(0)].epoch(), 60);
        // No gossip rows were ever absorbed: the unsigned consensus is
        // unavailable (or capturable). The signed authority still fences.
        n.self_audit(now);
        let log = &n.article_logs[&PublisherId(0)];
        assert_eq!(log.epoch(), 0, "fenced back to the signed authority epoch");
        for seq in 0..3u64 {
            assert!(log.contains(seq), "cached item {seq} re-seeded");
        }
    }

    /// `ForgeItems` corruption plants fabricated items in the victim's own
    /// cache — and a defended peer refuses every one of them when the
    /// victim's repair traffic offers them onward.
    #[test]
    fn forged_items_never_cross_to_a_defended_peer() {
        use rand::SeedableRng;
        use simnet::CorruptionOp;
        let (mut forger, _) = node_with_authority(NewsWireConfig::tech_news());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let injected = simnet::Node::apply_corruption(
            &mut forger,
            &CorruptionOp::ForgeItems { items: 3, publisher: 0 },
            &mut rng,
        );
        assert_eq!(injected, 3);
        let forged: Vec<Arc<NewsItem>> = forger.cache.iter().cloned().map(Arc::new).collect();
        assert_eq!(forged.len(), 3, "the forger's cache holds the fabrications");

        let (mut honest, _) = node_with_authority(NewsWireConfig::tech_news());
        honest.set_subscription(tech_sub());
        let now = SimTime::from_secs(1);
        // The forger serves its cache the way a repair reply would: items
        // wrapped with whatever signatures it recorded (bogus ones).
        for si in forger.sign_items(forged, &[]) {
            honest.admit_bare_item(now, si.item, si.key, si.signature, NodeId(1), 2);
        }
        assert_eq!(honest.stats.forged_rejects, 3, "every fabrication refused");
        assert!(honest.deliveries.is_empty());
        assert!(honest.quarantined(1), "three forged strikes quarantine the forger");
    }

    /// Split-brain lying is destination-dependent: odd-numbered peers get
    /// stale-digested gossip rows, even-numbered peers the truth — no
    /// single receiver can observe the inconsistency.
    #[test]
    fn split_brain_liar_tells_destinations_different_stories() {
        use astrolabe::{GossipMsg, MibBuilder, Stamp, TableRows};
        use rand::SeedableRng;
        use simnet::{LiarAction, LiarMode};
        let mut n = node_with(NewsWireConfig::tech_news());
        let digest = RangeSummary { epoch: 0, floor: 0, next: 3, present: 3 }.encode();
        let leaf_zone = n.agent.chain()[0].clone();
        let make = || {
            let row = MibBuilder::new()
                .attr("id", 2i64)
                .attr(format!("{AE_ATTR_PREFIX}0"), digest.clone())
                .build(Stamp { issued_us: 1_000_000, version: 1, origin: 2 });
            NewsWireMsg::Gossip {
                g: GossipMsg::Rows {
                    rows: vec![TableRows {
                        zone: leaf_zone.clone(),
                        rows: vec![(2, Arc::new(row))],
                    }],
                },
                rot: None,
            }
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let mut to_odd = make();
        let act = simnet::Node::tamper_outbound(
            &mut n,
            NodeId(1),
            &mut to_odd,
            LiarMode::SplitBrain,
            &mut rng,
        );
        assert!(matches!(act, LiarAction::Tampered), "odd destinations get the stale story");
        let mut to_even = make();
        let act = simnet::Node::tamper_outbound(
            &mut n,
            NodeId(2),
            &mut to_even,
            LiarMode::SplitBrain,
            &mut rng,
        );
        assert!(matches!(act, LiarAction::Pass), "even destinations get the truth");
    }
}
