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
//! The candidate ranking is defined to match `BlockingIndex` exactly:
//! records ranked by (shared-token count descending, key ascending), capped
//! at `limit`. Because [`snapshot`](LiveIndex::snapshot) yields records in
//! key order, a `BlockingIndex` built over that snapshot ranks by position
//! ascending on ties — which *is* key order — so
//! [`candidates`](LiveIndex::candidates) returns the keys of exactly the
//! records `BlockingIndex::candidates_for` returns, in the same order, on
//! every query (property-tested below). `adamel-serve` scores those
//! records, fetched by key with [`get`](LiveIndex::get), and so produces
//! the same pairs, in the same order, as the offline `Linker::link` over
//! the snapshot: its scores are bit-identical.
//!
//! ## Memory gauge
//!
//! The index keeps a running total of its records' logical bytes
//! (attribute names and values, plus one [`Record`] and one [`RecordKey`]
//! per record) and publishes it as the `schema.live_index.bytes` gauge of
//! the `adamel-obs` memory ledger after every mutation.

use crate::record::{Record, SourceId};
use adamel_text::tokenize;
use std::collections::{BTreeMap, BTreeSet};

/// The memory-ledger gauge holding [`LiveIndex`]'s running byte total.
const BYTES_GAUGE: &str = "schema.live_index.bytes";

/// The identity of a record inside a [`LiveIndex`]: source id + entity id.
pub type RecordKey = (SourceId, u64);

/// An owned, incrementally-maintained token blocking index.
#[derive(Debug, Clone)]
pub struct LiveIndex {
    block_attrs: Vec<String>,
    records: BTreeMap<RecordKey, Record>,
    by_token: BTreeMap<String, BTreeSet<RecordKey>>,
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
        Self { block_attrs, records: BTreeMap::new(), by_token: BTreeMap::new(), bytes: 0 }
    }

    /// The blocking attributes this index tokenizes.
    pub fn block_attrs(&self) -> &[String] {
        &self.block_attrs
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of distinct blocking tokens with at least one posting.
    pub fn num_blocks(&self) -> usize {
        self.by_token.len()
    }

    /// Distinct blocking tokens of one record, in first-seen order
    /// (matching `BlockingIndex::new`'s per-record token walk).
    fn tokens_of(&self, r: &Record) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for attr in &self.block_attrs {
            if let Some(v) = r.get(attr) {
                for t in tokenize(v) {
                    if seen.insert(t.clone()) {
                        out.push(t);
                    }
                }
            }
        }
        out
    }

    fn unindex(&mut self, key: RecordKey, record: &Record) {
        self.bytes -= record_bytes(record);
        for t in self.tokens_of(record) {
            if let Some(postings) = self.by_token.get_mut(&t) {
                postings.remove(&key);
                if postings.is_empty() {
                    self.by_token.remove(&t);
                }
            }
        }
    }

    /// Inserts or replaces the record with the same `(source, entity_id)`
    /// key. Returns `true` when an existing record was replaced.
    pub fn upsert(&mut self, record: Record) -> bool {
        let key = (record.source, record.entity_id);
        let replaced = if let Some(old) = self.records.remove(&key) {
            self.unindex(key, &old);
            true
        } else {
            false
        };
        for t in self.tokens_of(&record) {
            self.by_token.entry(t).or_default().insert(key);
        }
        self.bytes += record_bytes(&record);
        self.records.insert(key, record);
        adamel_obs::mem::observe(BYTES_GAUGE, self.bytes);
        replaced
    }

    /// Removes the record with the given key. Returns `true` when a record
    /// was actually removed.
    pub fn delete(&mut self, source: SourceId, entity_id: u64) -> bool {
        let key = (source, entity_id);
        match self.records.remove(&key) {
            Some(old) => {
                self.unindex(key, &old);
                adamel_obs::mem::observe(BYTES_GAUGE, self.bytes);
                true
            }
            None => false,
        }
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
        let mut counts: BTreeMap<RecordKey, usize> = BTreeMap::new();
        for t in self.tokens_of(query) {
            if let Some(postings) = self.by_token.get(&t) {
                for &k in postings {
                    *counts.entry(k).or_insert(0) += 1;
                }
            }
        }
        let mut ranked: Vec<(RecordKey, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.into_iter().take(limit).map(|(k, _)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingIndex;
    use rand::{Rng, SeedableRng};

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
        assert_eq!(li.num_blocks(), 2, "beta posting list must be dropped entirely");
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

    /// The contract the serving path relies on: LiveIndex candidates over a
    /// mutating corpus agree with a fresh BlockingIndex over the snapshot,
    /// for every query, after every mutation.
    #[test]
    fn candidates_match_blocking_index_under_churn() {
        let vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"];
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let title = |rng: &mut rand::rngs::StdRng| {
            let n = rng.gen_range(1usize..4);
            (0..n).map(|_| vocab[rng.gen_range(0usize..vocab.len())]).collect::<Vec<_>>().join(" ")
        };
        let mut li = LiveIndex::new(vec!["title".into()]);
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
                for limit in [1, 3, 100] {
                    let live = li.candidates(&q, limit);
                    let batch: Vec<RecordKey> = bi
                        .candidates_for(&q, &["title"], limit)
                        .into_iter()
                        .filter_map(|i| keys.get(i).copied())
                        .collect();
                    assert_eq!(live, batch, "query `{qt}` limit {limit} diverged");
                }
            }
        }
    }
}
