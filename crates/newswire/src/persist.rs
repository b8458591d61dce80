//! Stable-storage codecs for cold-restart recovery.
//!
//! A NewsWire node persists three records to its simulated disk (see
//! `simnet::Disk`): its incarnation number (key `incar`), its subscription
//! (key `sub`), and a periodic snapshot of its durable protocol state (key
//! `state`) — per-publisher article-log coverage, cached items, and the
//! application delivery log. Everything is encoded as length-prefixed text
//! tokens (`len:content`), which keeps the format self-delimiting without
//! pulling in a serialization dependency, and keeps torn or truncated blobs
//! detectable: any decode failure makes the node fall back to an amnesiac
//! rejoin, which anti-entropy then repairs.

use amcast::SeqLog;
use astrolabe::{KeyId, Signature};
use newsml::{Category, ItemId, NewsItem, PublisherId, Subject, Urgency};
use simnet::SimTime;

use crate::node::DeliveryRecord;
use crate::Subscription;

/// Appends length-prefixed tokens to a growing string buffer.
///
/// Nothing here allocates per token: integers are formatted on the stack,
/// and a composite token (a comma list, a `publisher/seq` pair) is built
/// in one reused scratch buffer, since its length prefix must precede it.
#[derive(Debug, Default)]
pub(crate) struct TokenWriter {
    buf: String,
    scratch: String,
}

impl TokenWriter {
    pub(crate) fn new() -> Self {
        TokenWriter::default()
    }

    pub(crate) fn push(&mut self, tok: &str) {
        write_u64(&mut self.buf, tok.len() as u64);
        self.buf.push(':');
        self.buf.push_str(tok);
    }

    pub(crate) fn push_u64(&mut self, v: u64) {
        let mut digits = [0u8; 20];
        self.push(format_u64(v, &mut digits));
    }

    /// Pushes one token that `build` writes into the scratch buffer.
    pub(crate) fn push_with(&mut self, build: impl FnOnce(&mut String)) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        build(&mut scratch);
        self.push(&scratch);
        self.scratch = scratch;
    }

    pub(crate) fn finish(self) -> String {
        self.buf
    }
}

/// Formats `v` in decimal into the tail of `digits`, returning the text.
fn format_u64(mut v: u64, digits: &mut [u8; 20]) -> &str {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&digits[at..]).expect("ASCII digits")
}

/// Appends `v` in decimal to `out`.
fn write_u64(out: &mut String, v: u64) {
    let mut digits = [0u8; 20];
    out.push_str(format_u64(v, &mut digits));
}

/// Appends category bits, comma-separated (`Category::bit` values).
fn write_category_bits<'a>(out: &mut String, cats: impl IntoIterator<Item = &'a Category>) {
    for (i, c) in cats.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_u64(out, u64::from(c.bit()));
    }
}

/// Appends a subject's canonical key (see `Subject::key`).
fn write_subject_key(out: &mut String, s: &Subject) {
    use std::fmt::Write as _;
    let _ = write!(out, "{s}");
}

/// Sequential reader over a token stream; every accessor returns `None` on
/// malformed input, so decoders propagate corruption as a single failure.
#[derive(Debug)]
pub(crate) struct TokenReader<'a> {
    rest: &'a str,
}

impl<'a> TokenReader<'a> {
    pub(crate) fn new(s: &'a str) -> Self {
        TokenReader { rest: s }
    }

    pub(crate) fn next(&mut self) -> Option<&'a str> {
        let colon = self.rest.find(':')?;
        let len: usize = self.rest[..colon].parse().ok()?;
        let start = colon + 1;
        let end = start.checked_add(len)?;
        if end > self.rest.len() || !self.rest.is_char_boundary(end) {
            return None;
        }
        let tok = &self.rest[start..end];
        self.rest = &self.rest[end..];
        Some(tok)
    }

    pub(crate) fn next_u64(&mut self) -> Option<u64> {
        self.next()?.parse().ok()
    }
}

// ---------------------------------------------------------------- incarnation

/// Encodes an incarnation number for the `incar` disk record.
pub(crate) fn encode_incarnation(incarnation: u64) -> Vec<u8> {
    incarnation.to_string().into_bytes()
}

/// Decodes the `incar` disk record; `None` on corruption.
pub(crate) fn decode_incarnation(bytes: &[u8]) -> Option<u64> {
    std::str::from_utf8(bytes).ok()?.parse().ok()
}

// ---------------------------------------------------------------- subscription

/// Encodes a subscription for the `sub` disk record: per-publisher category
/// bits, subject keys, and the SQL predicate source (retained verbatim so
/// recovery re-derives the exact filter).
pub(crate) fn encode_subscription(sub: &Subscription) -> Vec<u8> {
    let mut w = TokenWriter::new();
    w.push("sub1");
    w.push_u64(sub.publishers.len() as u64);
    for (p, cats) in &sub.publishers {
        w.push_u64(u64::from(p.0));
        w.push_with(|out| write_category_bits(out, cats));
    }
    w.push_u64(sub.subjects.len() as u64);
    for s in &sub.subjects {
        w.push_with(|out| write_subject_key(out, s));
    }
    match sub.predicate_sql() {
        Some(sql) => {
            w.push("1");
            w.push(sql);
        }
        None => w.push("0"),
    }
    w.finish().into_bytes()
}

/// Decodes the `sub` disk record; `None` on corruption.
pub(crate) fn decode_subscription(bytes: &[u8]) -> Option<Subscription> {
    let mut r = TokenReader::new(std::str::from_utf8(bytes).ok()?);
    if r.next()? != "sub1" {
        return None;
    }
    let mut sub = Subscription::new();
    let publishers = r.next_u64()?;
    for _ in 0..publishers {
        let p = PublisherId(u16::try_from(r.next_u64()?).ok()?);
        for bit in r.next()?.split(',').filter(|s| !s.is_empty()) {
            sub.subscribe_category(p, Category::from_bit(bit.parse().ok()?)?);
        }
    }
    let subjects = r.next_u64()?;
    for _ in 0..subjects {
        sub.subscribe_subject(r.next()?.parse::<Subject>().ok()?);
    }
    if r.next()? == "1" {
        sub.set_predicate(r.next()?).ok()?;
    }
    Some(sub)
}

// ---------------------------------------------------------------- news items

fn encode_item(w: &mut TokenWriter, item: &NewsItem) {
    w.push_u64(u64::from(item.id.publisher.0));
    w.push_u64(item.id.seq);
    w.push_u64(u64::from(item.revision));
    match item.supersedes {
        Some(id) => w.push_with(|out| {
            write_u64(out, u64::from(id.publisher.0));
            out.push('/');
            write_u64(out, id.seq);
        }),
        None => w.push("-"),
    }
    w.push(&item.headline);
    w.push(&item.slug);
    w.push_with(|out| write_category_bits(out, &item.categories));
    w.push_u64(item.subjects.len() as u64);
    for s in &item.subjects {
        w.push_with(|out| write_subject_key(out, s));
    }
    w.push_u64(u64::from(item.urgency.level()));
    w.push_u64(item.issued_us);
    w.push_u64(u64::from(item.body_len));
    w.push_u64(item.meta.len() as u64);
    for (k, v) in &item.meta {
        w.push(k);
        w.push(v);
    }
}

fn decode_item(r: &mut TokenReader) -> Option<NewsItem> {
    let publisher = PublisherId(u16::try_from(r.next_u64()?).ok()?);
    let seq = r.next_u64()?;
    let revision = u32::try_from(r.next_u64()?).ok()?;
    let supersedes = match r.next()? {
        "-" => None,
        s => {
            let (p, q) = s.split_once('/')?;
            Some(ItemId::new(PublisherId(p.parse().ok()?), q.parse().ok()?))
        }
    };
    let headline = r.next()?.to_owned();
    let slug = r.next()?.to_owned();
    let mut categories = Vec::new();
    for bit in r.next()?.split(',').filter(|s| !s.is_empty()) {
        categories.push(Category::from_bit(bit.parse().ok()?)?);
    }
    let nsubjects = r.next_u64()?;
    let mut subjects = Vec::new();
    for _ in 0..nsubjects {
        subjects.push(r.next()?.parse::<Subject>().ok()?);
    }
    let level = u8::try_from(r.next_u64()?).ok()?;
    if !(1..=8).contains(&level) {
        return None;
    }
    let urgency = Urgency::new(level);
    let issued_us = r.next_u64()?;
    let body_len = u32::try_from(r.next_u64()?).ok()?;
    let nmeta = r.next_u64()?;
    let mut meta = Vec::new();
    for _ in 0..nmeta {
        let k = r.next()?.to_owned();
        let v = r.next()?.to_owned();
        meta.push((k, v));
    }
    Some(NewsItem {
        id: ItemId::new(publisher, seq),
        revision,
        supersedes,
        headline,
        slug,
        categories,
        subjects,
        urgency,
        issued_us,
        body_len,
        meta,
    })
}

// ---------------------------------------------------------------- node state

/// One article log as decoded from a `state` record: publisher, coverage
/// summary (see `SeqLog::encode_coverage`), and the inclusive ranges of
/// sequence numbers the log had actually seen. Lost entries surface as
/// honest gaps after restore, which anti-entropy then repairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LogState {
    pub(crate) publisher: PublisherId,
    pub(crate) coverage: String,
    pub(crate) present: Vec<(u64, u64)>,
}

/// The durable protocol state decoded from a node's `state` disk record.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct NodeState {
    pub(crate) logs: Vec<LogState>,
    /// Cached items with their publisher signatures, so a cold restart can
    /// re-verify every restored item instead of trusting the disk blob
    /// (DESIGN §12 — stable storage is just another admission path).
    pub(crate) items: Vec<(NewsItem, KeyId, Signature)>,
    pub(crate) deliveries: Vec<DeliveryRecord>,
    /// Adopted trust-root rotation records (encoded), persisted so a
    /// durable cold restart re-arms the revocation fence *before* it
    /// re-admits cached items — otherwise a reboot would resurrect items
    /// signed by a key revoked while the node was up. Written as an
    /// optional trailing section: nodes that never saw a rotation produce
    /// blobs byte-identical to the pre-rotation format.
    pub(crate) rotations: Vec<String>,
}

/// Encodes the `state` disk record straight from the node's live
/// structures (no intermediate copy of the cache or the delivery log):
/// every article log's coverage and present sequence ranges, every cached
/// item with its detached signature, the delivery log, and the encoded
/// rotation records. Decodes as a [`NodeState`].
pub(crate) fn encode_state<'a>(
    logs: impl ExactSizeIterator<Item = (PublisherId, &'a SeqLog<()>)>,
    items: impl ExactSizeIterator<Item = (&'a NewsItem, KeyId, Signature)>,
    deliveries: &[DeliveryRecord],
    rotations: impl ExactSizeIterator<Item = String>,
) -> Vec<u8> {
    let mut w = TokenWriter::new();
    w.push("nwstate2");
    w.push_u64(logs.len() as u64);
    for (publisher, log) in logs {
        w.push_u64(u64::from(publisher.0));
        w.push_with(|out| log.write_coverage(out));
        let seen = log.range(log.floor(), log.next_seq().saturating_sub(1)).map(|(s, _)| s);
        w.push_with(|out| write_ranges(out, seen));
    }
    w.push_u64(items.len() as u64);
    for (item, key, sig) in items {
        encode_item(&mut w, item);
        w.push_u64(key.0);
        w.push_u64(sig.0);
    }
    w.push_u64(deliveries.len() as u64);
    for d in deliveries {
        w.push_u64(u64::from(d.item.publisher.0));
        w.push_u64(d.item.seq);
        w.push_u64(d.msg_id);
        w.push_u64(d.published.as_micros());
        w.push_u64(d.delivered.as_micros());
        w.push(if d.via_repair { "1" } else { "0" });
    }
    if rotations.len() > 0 {
        w.push("rot");
        w.push_u64(rotations.len() as u64);
        for r in rotations {
            w.push(&r);
        }
    }
    w.finish().into_bytes()
}

/// Decodes the `state` disk record; `None` on corruption (the node then
/// rejoins amnesiac and lets anti-entropy backfill).
pub(crate) fn decode_state(bytes: &[u8]) -> Option<NodeState> {
    let mut r = TokenReader::new(std::str::from_utf8(bytes).ok()?);
    if r.next()? != "nwstate2" {
        return None;
    }
    let mut state = NodeState::default();
    let nlogs = r.next_u64()?;
    for _ in 0..nlogs {
        let publisher = PublisherId(u16::try_from(r.next_u64()?).ok()?);
        let coverage = r.next()?.to_owned();
        let mut present = Vec::new();
        for range in r.next()?.split(',').filter(|s| !s.is_empty()) {
            let (lo, hi) = range.split_once('-')?;
            let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
            if lo > hi {
                return None;
            }
            present.push((lo, hi));
        }
        state.logs.push(LogState { publisher, coverage, present });
    }
    let nitems = r.next_u64()?;
    for _ in 0..nitems {
        let item = decode_item(&mut r)?;
        let key = KeyId(r.next_u64()?);
        let sig = Signature(r.next_u64()?);
        state.items.push((item, key, sig));
    }
    let ndeliveries = r.next_u64()?;
    for _ in 0..ndeliveries {
        let publisher = PublisherId(u16::try_from(r.next_u64()?).ok()?);
        let seq = r.next_u64()?;
        let msg_id = r.next_u64()?;
        let published = SimTime::from_micros(r.next_u64()?);
        let delivered = SimTime::from_micros(r.next_u64()?);
        let via_repair = match r.next()? {
            "1" => true,
            "0" => false,
            _ => return None,
        };
        state.deliveries.push(DeliveryRecord {
            item: ItemId::new(publisher, seq),
            msg_id,
            published,
            delivered,
            via_repair,
        });
    }
    // Optional trailing rotation section; absent in pre-rotation blobs.
    if let Some(tag) = r.next() {
        if tag != "rot" {
            return None;
        }
        let nrot = r.next_u64()?;
        for _ in 0..nrot {
            state.rotations.push(r.next()?.to_owned());
        }
    }
    Some(state)
}

/// Appends a sorted run of sequence numbers as comma-separated inclusive
/// `lo-hi` ranges, adjacent numbers merged (`0-2,5-5,7-8`).
fn write_ranges(out: &mut String, seqs: impl Iterator<Item = u64>) {
    let mut seqs = seqs.peekable();
    let mut first = true;
    while let Some(lo) = seqs.next() {
        let mut hi = lo;
        while seqs.next_if_eq(&(hi + 1)).is_some() {
            hi += 1;
        }
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        write_u64(out, lo);
        out.push('-');
        write_u64(out, hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newsml::Category;

    fn rich_item() -> NewsItem {
        let mut item = NewsItem::builder(PublisherId(3), 17)
            .headline("markets: chips rally")
            .slug("chips-rally")
            .category(Category::Technology)
            .category(Category::Business)
            .subject("04.003.005".parse().unwrap())
            .subject("11".parse().unwrap())
            .urgency(Urgency::new(2))
            .body_len(1234)
            .meta("source", "reuters")
            .meta("desk", "markets & tech")
            .build();
        item.revision = 2;
        item.supersedes = Some(ItemId::new(PublisherId(3), 11));
        item.issued_us = 95_000_000;
        item
    }

    /// A node's durable state in miniature: a bare item and the rich one,
    /// two article logs (one gapped, one on a later epoch with a raised
    /// floor), two deliveries and one rotation record.
    struct Fixture {
        logs: Vec<(PublisherId, SeqLog<()>)>,
        items: Vec<(NewsItem, KeyId, Signature)>,
        deliveries: Vec<DeliveryRecord>,
        rotations: Vec<String>,
    }

    fn fixture() -> Fixture {
        let rich = rich_item();
        let plain = NewsItem::builder(PublisherId(1), 4).headline("héllo").build();
        let mut log1 = SeqLog::new(64);
        for s in [0, 1, 3, 4] {
            log1.insert(s, ());
        }
        let mut log3 = SeqLog::new(64);
        log3.bump_epoch();
        for s in (2..=9).chain(12..=19) {
            log3.insert(s, ());
        }
        log3.prune_below(3);
        Fixture {
            logs: vec![(PublisherId(1), log1), (PublisherId(3), log3)],
            deliveries: vec![
                DeliveryRecord {
                    item: plain.id,
                    msg_id: 12_345_678_901,
                    published: SimTime::from_micros(0),
                    delivered: SimTime::from_micros(420),
                    via_repair: false,
                },
                DeliveryRecord {
                    item: rich.id,
                    msg_id: 777,
                    published: SimTime::from_micros(95_000_000),
                    delivered: SimTime::from_micros(95_420_000),
                    via_repair: true,
                },
            ],
            items: vec![(plain, KeyId(5), Signature(u64::MAX)), (rich, KeyId(11), Signature(22))],
            rotations: vec!["rot1|publisher:3|fake|record".to_owned()],
        }
    }

    fn encode_fixture(f: &Fixture) -> Vec<u8> {
        encode_state(
            f.logs.iter().map(|(p, log)| (*p, log)),
            f.items.iter().map(|(item, key, sig)| (item, *key, *sig)),
            &f.deliveries,
            f.rotations.iter().cloned(),
        )
    }

    /// The `state` record format is what a durable restart reads back, so
    /// its bytes are pinned: any drift here silently breaks recovery from
    /// blobs written by earlier builds.
    #[test]
    fn state_encoding_is_pinned_byte_for_byte() {
        let golden = "8:nwstate21:21:17:0:0:5:47:0-1,3-41:39:1:3:20:169:3-9,12-19\
            1:21:11:41:01:-6:héllo6:héllo0:1:01:51:01:01:01:520:18446744073709551615\
            1:32:171:24:3/1120:markets: chips rally11:chips-rally3:2,11:210:04.003.0052:11\
            1:28:950000004:12341:26:source7:reuters4:desk14:markets & tech2:112:22\
            1:21:11:411:123456789011:03:4201:01:32:173:7778:950000008:954200001:1\
            3:rot1:128:rot1|publisher:3|fake|record";
        assert_eq!(String::from_utf8(encode_fixture(&fixture())).unwrap(), golden);
    }

    #[test]
    fn token_stream_roundtrip_handles_empty_and_unicode() {
        let mut w = TokenWriter::new();
        w.push("");
        w.push("héllo:world");
        w.push_u64(42);
        let s = w.finish();
        let mut r = TokenReader::new(&s);
        assert_eq!(r.next(), Some(""));
        assert_eq!(r.next(), Some("héllo:world"));
        assert_eq!(r.next_u64(), Some(42));
        assert_eq!(r.next(), None);
    }

    #[test]
    fn truncated_token_stream_decodes_to_none() {
        let mut w = TokenWriter::new();
        w.push("hello");
        let s = w.finish();
        let mut r = TokenReader::new(&s[..s.len() - 2]);
        assert_eq!(r.next(), None);
    }

    #[test]
    fn subscription_roundtrip_with_predicate() {
        let mut sub = Subscription::new();
        sub.subscribe_category(PublisherId(1), Category::Technology);
        sub.subscribe_category(PublisherId(1), Category::Science);
        sub.subscribe_category(PublisherId(4), Category::Sports);
        sub.subscribe_subject("04.003".parse().unwrap());
        sub.set_predicate("urgency <= 3").unwrap();
        let decoded = decode_subscription(&encode_subscription(&sub)).unwrap();
        assert_eq!(decoded.publishers, sub.publishers);
        assert_eq!(decoded.subjects, sub.subjects);
        assert_eq!(decoded.predicate_sql(), Some("urgency <= 3"));
        let item = NewsItem::builder(PublisherId(1), 0)
            .headline("h")
            .category(Category::Technology)
            .urgency(Urgency::new(5))
            .build();
        assert!(!decoded.matches(&item), "restored predicate must still filter");
    }

    #[test]
    fn subscription_roundtrip_without_predicate() {
        let mut sub = Subscription::new();
        sub.subscribe_category(PublisherId(0), Category::Politics);
        let decoded = decode_subscription(&encode_subscription(&sub)).unwrap();
        assert_eq!(decoded.publishers, sub.publishers);
        assert_eq!(decoded.predicate_sql(), None);
    }

    #[test]
    fn state_roundtrip_preserves_items_logs_and_deliveries() {
        let f = fixture();
        let decoded = decode_state(&encode_fixture(&f)).unwrap();
        let expected_logs: Vec<LogState> = f
            .logs
            .iter()
            .map(|(p, log)| LogState {
                publisher: *p,
                coverage: log.encode_coverage(),
                present: if p.0 == 1 { vec![(0, 1), (3, 4)] } else { vec![(3, 9), (12, 19)] },
            })
            .collect();
        assert_eq!(decoded.logs, expected_logs);
        assert_eq!(decoded.items, f.items, "full NewsItem fidelity incl. meta/supersedes");
        assert_eq!(decoded.deliveries, f.deliveries);
        assert_eq!(decoded.rotations, f.rotations);
    }

    #[test]
    fn corrupt_state_blob_decodes_to_none() {
        let mut bytes =
            encode_state(std::iter::empty(), std::iter::empty(), &[], std::iter::empty());
        bytes.truncate(bytes.len() - 1);
        assert!(decode_state(&bytes).is_none());
        assert!(decode_state(b"8:garbage!").is_none());
        assert!(decode_incarnation(b"not a number").is_none());
        assert_eq!(decode_incarnation(b"41"), Some(41));
    }

    #[test]
    fn ranges_merge_adjacent_runs() {
        let ranges = |seqs: &[u64]| {
            let mut out = String::new();
            write_ranges(&mut out, seqs.iter().copied());
            out
        };
        assert_eq!(ranges(&[0, 1, 2, 5, 7, 8]), "0-2,5-5,7-8");
        assert_eq!(ranges(&[]), "");
    }
}
