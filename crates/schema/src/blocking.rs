//! Token blocking for candidate generation.
//!
//! Scoring every cross pair of two record collections is quadratic;
//! production linkage pipelines first *block* records that share a key
//! token and only score those candidates. This is the inference-time
//! counterpart of the sampler used to build training corpora.
//!
//! `block_tokens` and `Postings::rank` are the one token walk and the
//! one ranking of this batch index (ids are slice positions) and of the
//! daemon's [`LiveIndex`](crate::live_index::LiveIndex) (ids are keys).

use crate::record::Record;
use adamel_text::tokenize;
use std::collections::{BTreeMap, BTreeSet};

/// The distinct word tokens of `r`'s `attrs` values, in first-seen order.
pub(crate) fn block_tokens<A: AsRef<str>>(r: &Record, attrs: &[A]) -> Vec<String> {
    let mut tokens: Vec<String> =
        attrs.iter().filter_map(|a| r.get(a.as_ref())).flat_map(tokenize).collect();
    let mut seen = BTreeSet::new();
    tokens.retain(|t| seen.insert(t.clone()));
    tokens
}

/// Token posting lists over record ids `K`, each list sorted by id.
#[derive(Debug, Clone)]
pub(crate) struct Postings<K> {
    by_token: BTreeMap<String, Vec<K>>,
}

impl<K> Default for Postings<K> {
    fn default() -> Self {
        Self { by_token: BTreeMap::new() }
    }
}

impl<K: Ord + Copy> Postings<K> {
    /// Posts `k` under each of its distinct `tokens`.
    pub(crate) fn insert(&mut self, k: K, tokens: Vec<String>) {
        for t in tokens {
            let list = self.by_token.entry(t).or_default();
            if let Err(slot) = list.binary_search(&k) {
                list.insert(slot, k);
            }
        }
    }

    /// Removes `k` from each of `tokens`' lists, dropping lists that empty.
    pub(crate) fn remove(&mut self, k: K, tokens: &[String]) {
        for t in tokens {
            if let Some(list) = self.by_token.get_mut(t) {
                if let Ok(slot) = list.binary_search(&k) {
                    list.remove(slot);
                }
                if list.is_empty() {
                    self.by_token.remove(t);
                }
            }
        }
    }

    /// Ids sharing at least one of the distinct `tokens`, ranked by
    /// (shared-token count descending, id ascending) and capped at `limit`.
    pub(crate) fn rank(&self, tokens: &[String], limit: usize) -> Vec<K> {
        if limit == 0 {
            return Vec::new();
        }
        let mut hits: Vec<K> =
            tokens.iter().filter_map(|t| self.by_token.get(t)).flatten().copied().collect();
        hits.sort_unstable();
        let mut counted: Vec<(K, usize)> =
            hits.chunk_by(K::eq).filter_map(|run| Some((*run.first()?, run.len()))).collect();
        // Ids are distinct, so this order is total and the unstable sorts
        // are deterministic.
        let order = |a: &(K, usize), b: &(K, usize)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
        if counted.len() > limit {
            counted.select_nth_unstable_by(limit - 1, order);
            counted.truncate(limit);
        }
        counted.sort_unstable_by(order);
        counted.into_iter().map(|(k, _)| k).collect()
    }

    /// Number of distinct tokens with at least one posting.
    #[cfg(test)]
    pub(crate) fn num_blocks(&self) -> usize {
        self.by_token.len()
    }
}

/// A blocking index over one record collection.
pub struct BlockingIndex<'a> {
    records: &'a [Record],
    postings: Postings<usize>,
}

impl<'a> BlockingIndex<'a> {
    /// Indexes `records` on the word tokens of `block_attrs` (records
    /// missing every blocking attribute are never candidates).
    pub fn new(records: &'a [Record], block_attrs: &[&str]) -> Self {
        let mut postings = Postings::default();
        for (i, r) in records.iter().enumerate() {
            postings.insert(i, block_tokens(r, block_attrs));
        }
        Self { records, postings }
    }

    /// The indexed records.
    pub fn records(&self) -> &[Record] {
        self.records
    }

    /// Indices of records sharing at least one blocking token with `query`
    /// under the given attributes, capped at `limit` (most-overlapping
    /// first, then lowest index).
    pub fn candidates_for(&self, query: &Record, block_attrs: &[&str], limit: usize) -> Vec<usize> {
        self.postings.rank(&block_tokens(query, block_attrs), limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SourceId;

    fn rec(id: u64, title: &str) -> Record {
        let mut r = Record::new(SourceId(0), id);
        r.set("title", title);
        r
    }

    #[test]
    fn candidates_share_tokens() {
        let records =
            vec![rec(1, "hey jude"), rec(2, "hey there delilah"), rec(3, "yellow submarine")];
        let idx = BlockingIndex::new(&records, &["title"]);
        let q = rec(9, "hey jude remix");
        let cands = idx.candidates_for(&q, &["title"], 10);
        assert_eq!(cands, vec![0, 1]); // record 0 shares 2 tokens, 1 shares 1
    }

    #[test]
    fn limit_is_respected_and_ranked() {
        let records: Vec<Record> = (0..20).map(|i| rec(i, "common words here")).collect();
        let idx = BlockingIndex::new(&records, &["title"]);
        let q = rec(99, "common words");
        let cands = idx.candidates_for(&q, &["title"], 5);
        assert_eq!(cands.len(), 5);
    }

    #[test]
    fn no_shared_tokens_means_no_candidates() {
        let records = vec![rec(1, "alpha"), rec(2, "beta")];
        let idx = BlockingIndex::new(&records, &["title"]);
        assert!(idx.candidates_for(&rec(9, "gamma"), &["title"], 10).is_empty());
        assert_eq!(idx.postings.num_blocks(), 2);
    }

    #[test]
    fn missing_blocking_attribute_is_fine() {
        let records = vec![rec(1, "alpha")];
        let idx = BlockingIndex::new(&records, &["title"]);
        let empty = Record::new(SourceId(1), 5);
        assert!(idx.candidates_for(&empty, &["title"], 10).is_empty());
    }
}
