//! An **incremental** blocking index for long-running services.
//!
//! [`BlockingIndex`](crate::blocking::BlockingIndex) is batch-built over a
//! borrowed record slice — the right shape for a one-shot `Linker::link`
//! call, the wrong shape for a daemon whose corpus mutates between
//! requests. [`LiveIndex`] owns its records, keyed by `(source,
//! entity_id)`, and maintains token posting lists under upsert/delete so
//! indexing cost is paid per *mutation*, not per *request*.
//!
//! ## Equivalence contract
//!
//! Both indexes tokenize with `block_tokens` and rank with the one
//! `Postings::rank` of [`blocking`](crate::blocking): (shared-token count
//! descending, id ascending), capped at `limit`. The id is the record key
//! here and the position in the key-ordered
//! [`snapshot`](LiveIndex::snapshot) in a `BlockingIndex` over it, so
//! [`candidates`](LiveIndex::candidates) returns the keys of
//! `BlockingIndex::candidates_for`'s records, in its order (tested below,
//! also against a brute-force count). `adamel-serve` scores those records,
//! got by key with [`get`](LiveIndex::get): the same pairs in the same
//! order as the offline `Linker::link` over the snapshot, so bit-identical
//! scores.
//!
//! ## Memory gauge
//!
//! The index keeps a running total of its records' logical bytes
//! (attribute names and values, plus one [`Record`] and one [`RecordKey`]
//! per record) and publishes it as the `schema.live_index.bytes` gauge of
//! the `adamel-obs` memory ledger after every mutation.

use crate::blocking::{block_tokens, Postings};
use crate::record::{Record, SourceId};
use std::collections::BTreeMap;

/// The memory-ledger gauge holding [`LiveIndex`]'s running byte total.
const BYTES_GAUGE: &str = "schema.live_index.bytes";

/// The identity of a record inside a [`LiveIndex`]: source id + entity id.
pub type RecordKey = (SourceId, u64);

/// An owned, incrementally-maintained token blocking index.
#[derive(Debug, Clone)]
pub struct LiveIndex {
    block_attrs: Vec<String>,
    records: BTreeMap<RecordKey, Record>,
    postings: Postings<RecordKey>,
    /// Running sum of [`record_bytes`] over `records`.
    bytes: u64,
}

/// The logical footprint of one indexed record: its attribute names and
/// values, plus the `Record` and the `RecordKey` that hold it.
fn record_bytes(r: &Record) -> u64 {
    let attrs: usize = r.values.iter().map(|(k, v)| k.len() + v.len()).sum();
    (attrs + std::mem::size_of::<Record>() + std::mem::size_of::<RecordKey>()) as u64
}

impl LiveIndex {
    /// An empty index blocking on the word tokens of `block_attrs`.
    pub fn new(block_attrs: Vec<String>) -> Self {
        Self { block_attrs, records: BTreeMap::new(), postings: Postings::default(), bytes: 0 }
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Inserts or replaces the record with the same `(source, entity_id)`
    /// key. Returns `true` when an existing record was replaced.
    pub fn upsert(&mut self, record: Record) -> bool {
        let key = (record.source, record.entity_id);
        let replaced = self.take(key);
        self.postings.insert(key, block_tokens(&record, &self.block_attrs));
        self.bytes += record_bytes(&record);
        self.records.insert(key, record);
        adamel_obs::mem::observe(BYTES_GAUGE, self.bytes);
        replaced
    }

    /// Removes the record with the given key. Returns `true` when a record
    /// was actually removed.
    pub fn delete(&mut self, source: SourceId, entity_id: u64) -> bool {
        let removed = self.take((source, entity_id));
        if removed {
            adamel_obs::mem::observe(BYTES_GAUGE, self.bytes);
        }
        removed
    }

    /// Drops the record with `key`, its postings and its bytes. Returns
    /// `true` when there was one.
    fn take(&mut self, key: RecordKey) -> bool {
        let Some(old) = self.records.remove(&key) else {
            return false;
        };
        self.postings.remove(key, &block_tokens(&old, &self.block_attrs));
        self.bytes -= record_bytes(&old);
        true
    }

    /// The indexed record with the given key, if any.
    pub fn get(&self, source: SourceId, entity_id: u64) -> Option<&Record> {
        self.records.get(&(source, entity_id))
    }

    /// Clones the corpus in key order: the record slice whose offline
    /// `Linker::link` the served results equal (see the module's
    /// equivalence contract).
    pub fn snapshot(&self) -> Vec<Record> {
        self.records.values().cloned().collect()
    }

    /// Keys of records sharing at least one blocking token with `query`,
    /// ranked by (shared-token count descending, key ascending) and capped
    /// at `limit` — the same ranking `BlockingIndex::candidates_for`
    /// produces over the key-order snapshot.
    pub fn candidates(&self, query: &Record, limit: usize) -> Vec<RecordKey> {
        self.postings.rank(&block_tokens(query, &self.block_attrs), limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingIndex;
    use adamel_text::tokenize;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn rec(source: u32, id: u64, title: &str) -> Record {
        let mut r = Record::new(SourceId(source), id);
        r.set("title", title);
        r
    }

    fn idx(records: &[Record]) -> LiveIndex {
        let mut li = LiveIndex::new(vec!["title".into()]);
        for r in records {
            li.upsert(r.clone());
        }
        li
    }

    #[test]
    fn upsert_replaces_and_reindexes() {
        let mut li = idx(&[rec(0, 1, "hey jude")]);
        assert!(!li.candidates(&rec(9, 9, "jude"), 10).is_empty());
        assert!(li.upsert(rec(0, 1, "yellow submarine")), "same key must replace");
        assert!(li.candidates(&rec(9, 9, "jude"), 10).is_empty(), "old tokens must be gone");
        assert_eq!(li.candidates(&rec(9, 9, "yellow"), 10), vec![(SourceId(0), 1)]);
        assert_eq!(li.len(), 1);
    }

    #[test]
    fn delete_removes_postings() {
        let mut li = idx(&[rec(0, 1, "alpha beta"), rec(0, 2, "alpha gamma")]);
        assert!(li.delete(SourceId(0), 1));
        assert!(!li.delete(SourceId(0), 1), "double delete is a no-op");
        assert_eq!(li.candidates(&rec(9, 9, "alpha"), 10), vec![(SourceId(0), 2)]);
        assert_eq!(li.postings.num_blocks(), 2, "beta posting list must be dropped entirely");
    }

    fn keys_of(records: &[Record]) -> Vec<RecordKey> {
        records.iter().map(|r| (r.source, r.entity_id)).collect()
    }

    #[test]
    fn snapshot_is_key_ordered() {
        let li = idx(&[rec(2, 5, "c"), rec(0, 9, "a"), rec(2, 1, "b")]);
        let snap = li.snapshot();
        assert_eq!(keys_of(&snap), vec![(SourceId(0), 9), (SourceId(2), 1), (SourceId(2), 5)]);
        let titles: Vec<_> = snap.iter().filter_map(|r| r.get("title")).collect();
        assert_eq!(titles, vec!["a", "b", "c"]);
    }

    /// The running byte total equals a recount over the records after any
    /// mix of inserts, same-key replacements and deletes, and is 0 once
    /// the index is empty again.
    #[test]
    fn byte_total_tracks_a_recount_under_churn() {
        let recount = |li: &LiveIndex| -> u64 {
            li.snapshot()
                .iter()
                .map(|r| {
                    let attrs: usize = r.values.iter().map(|(k, v)| k.len() + v.len()).sum();
                    (attrs + std::mem::size_of::<Record>() + std::mem::size_of::<RecordKey>())
                        as u64
                })
                .sum()
        };
        let words = ["a", "bb", "ccc", "dddd eeeee"];
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut li = LiveIndex::new(vec!["title".into()]);
        for _ in 0..300 {
            let (source, id) = (rng.gen_range(0u32..2), rng.gen_range(0u64..12));
            if rng.gen_range(0u32..3) == 0 {
                li.delete(SourceId(source), id);
            } else {
                let mut r = rec(source, id, words[rng.gen_range(0usize..words.len())]);
                if rng.gen_range(0u32..2) == 0 {
                    r.set("brand", words[rng.gen_range(0usize..words.len())]);
                }
                li.upsert(r);
            }
            assert_eq!(li.bytes, recount(&li));
        }
        assert!(li.bytes > 0);
        for (source, id) in keys_of(&li.snapshot()) {
            assert!(li.delete(source, id));
        }
        assert!(li.is_empty());
        assert_eq!(li.bytes, 0);
    }

    /// Every record sharing a distinct token with `query`, with its count
    /// of shared distinct tokens, fully sorted by (count descending, key
    /// ascending).
    fn brute_force(snap: &[Record], query: &str) -> Vec<(RecordKey, usize)> {
        let q: BTreeSet<String> = tokenize(query).into_iter().collect();
        let mut ranked: Vec<(RecordKey, usize)> = snap
            .iter()
            .map(|r| {
                let title: BTreeSet<String> =
                    r.get("title").map(tokenize).unwrap_or_default().into_iter().collect();
                ((r.source, r.entity_id), title.intersection(&q).count())
            })
            .filter(|&(_, n)| n > 0)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }

    /// The contract the serving path relies on: LiveIndex candidates over a
    /// mutating corpus agree with a fresh BlockingIndex over the snapshot
    /// (key order ≡ snapshot position) and with a brute-force count over
    /// every record, for every query, after every mutation.
    #[test]
    fn candidates_match_blocking_index_under_churn() {
        let vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"];
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let title = |rng: &mut rand::rngs::StdRng| {
            let n = rng.gen_range(1usize..4);
            (0..n).map(|_| vocab[rng.gen_range(0usize..vocab.len())]).collect::<Vec<_>>().join(" ")
        };
        let mut li = LiveIndex::new(vec!["title".into()]);
        let mut ties_at_the_cut = 0;
        for step in 0..200u64 {
            let source = rng.gen_range(0u32..3);
            let id = rng.gen_range(0u64..30);
            if rng.gen_range(0u32..4) == 0 {
                li.delete(SourceId(source), id);
            } else {
                let t = title(&mut rng);
                li.upsert(rec(source, id, &t));
            }
            if step % 20 != 0 {
                continue;
            }
            let snap = li.snapshot();
            let keys = keys_of(&snap);
            let bi = BlockingIndex::new(&snap, &["title"]);
            for _ in 0..5 {
                let qt = title(&mut rng);
                let q = rec(9, 999, &qt);
                let reference = brute_force(&snap, &qt);
                for limit in [0, 1, 3, 100] {
                    let live = li.candidates(&q, limit);
                    let batch: Vec<RecordKey> = bi
                        .candidates_for(&q, &["title"], limit)
                        .into_iter()
                        .filter_map(|i| keys.get(i).copied())
                        .collect();
                    assert_eq!(live, batch, "query `{qt}` limit {limit} diverged");
                    let brute: Vec<RecordKey> =
                        reference.iter().take(limit).map(|&(k, _)| k).collect();
                    assert_eq!(live, brute, "query `{qt}` limit {limit} left the reference");
                    let count_at = |i: usize| reference.get(i).map(|&(_, n)| n);
                    if limit > 0
                        && count_at(limit).is_some()
                        && count_at(limit - 1) == count_at(limit)
                    {
                        ties_at_the_cut += 1;
                    }
                }
            }
        }
        assert!(ties_at_the_cut > 0, "no query had a tie straddling its cut");
    }
}
