//! Record-level encoding cache behind [`crate::FeatureExtractor`].
//!
//! In candidate generation each *record* appears in many pairs, yet the
//! uncached feature path re-tokenizes, re-hashes, and re-embeds every
//! attribute per pair (Eq. 2–3). This module memoizes all per-record work
//! once — the cropped token-id list per attribute (via
//! [`adamel_text::TokenVocab`] interning) and the per-attribute summed
//! token-embedding precursor — so pair encoding reduces to a multiset
//! partition over two short `u32` lists plus adds/copies of cached embedding
//! rows. No `String` is allocated and no n-gram is hashed on the pair path.
//!
//! ## Bit-exactness contract
//!
//! The cached path must produce the *identical bits* of
//! `shared_and_unique` + `embed_tokens_into` (the uncached reference kept as
//! [`crate::FeatureExtractor::encode_pair_uncached`]). f32 addition is not
//! associative, so this holds only because every accumulation replays the
//! reference's exact operation order:
//!
//! * cached token rows are bit-identical `embed_token` outputs (interning is
//!   pure memoization);
//! * the partition replays `shared_and_unique`'s count semantics: left
//!   tokens in order (matched → shared, else unique), then leftover right
//!   tokens in order — so tokens are *added in the same sequence*;
//! * the per-attribute sum precursor is the fold of that attribute's token
//!   rows in list order, which equals the reference sum whenever a feature's
//!   token multiset is exactly one side's full list (identical values,
//!   one-side-missing) — the only cases where the precursor is used;
//! * an empty feature copies the embedder's fixed missing vector, exactly as
//!   `embed_tokens_into(&[])` does.
//!
//! ## Keying and invalidation
//!
//! Slots are keyed by a 128-bit FNV content hash over the record's values of
//! the extractor's schema attributes (in canonical order, `0xFF`-separated —
//! a byte UTF-8 never produces). Records are value-bags, so identical
//! content means identical encodings; clones and re-generated records share
//! slots. The cache never invalidates entries (records are immutable once
//! built); `EncodeCache::clear` drops everything, which
//! `FeatureExtractor::clear_cache` exposes to bound memory between corpora.
//!
//! ## Memory bounds
//!
//! Per distinct record: `|A|` ranges + the token-id arena (≤ `|A| * crop`
//! u32s) + `|A| * D` f32 sum precursors; plus `D` f32 per distinct token in
//! the vocabulary. For paper dims (13 attributes, D=300, crop=20) that is
//! ~16 KiB per distinct record — the same order as one encoded pair row.

use crate::features::FeatureMode;
use crate::record::{Record, Schema};
use adamel_tensor::parallel;
use adamel_text::{tokenize_cropped, HashedFastText, TokenId, TokenVocab};
use std::cell::RefCell;
use std::collections::HashMap;

/// Aggregate cache statistics, reported by
/// [`crate::FeatureExtractor::cache_stats`] and the `"cache"` section of
/// `perfjson`'s `BENCH_parallel.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeCacheStats {
    /// Distinct records (by content key) currently cached.
    pub distinct_records: u64,
    /// Distinct token strings interned in the vocabulary.
    pub interned_tokens: u64,
    /// Record lookups that found an existing slot.
    pub hits: u64,
    /// Record lookups that built a new slot.
    pub misses: u64,
}

impl EncodeCacheStats {
    /// Hits over total lookups; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

thread_local! {
    /// Per-thread multiset-partition scratch: `(token id, remaining count)`
    /// pairs for the right-hand token list. Lists are `crop`-bounded, so a
    /// linear-scan association list beats hashing and allocates only once
    /// per worker thread.
    static PARTITION_SCRATCH: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

/// FNV-1a 64-bit over a byte stream, seeded; used for record content keys.
fn fnv1a(seed: u64, chunks: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in chunks {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The memoized per-record encodings plus the interning vocabulary.
#[derive(Debug, Clone)]
pub(crate) struct EncodeCache {
    vocab: TokenVocab,
    crop: usize,
    attrs: usize,
    /// Record content key → slot index. Lookup only, never iterated.
    slots: HashMap<u128, u32>,
    /// `(offset, len)` into `ids` for `slot * attrs + attr`.
    ranges: Vec<(u32, u32)>,
    /// Token-id arena: cropped per-attribute token lists, in order.
    ids: Vec<u32>,
    /// Per `(slot, attr)` sum precursor (`dim` f32 each): fold of the token
    /// rows in list order, or the missing vector for an empty list.
    sums: Vec<f32>,
    hits: u64,
    misses: u64,
}

impl EncodeCache {
    pub(crate) fn new(embedder: HashedFastText, crop: usize, attrs: usize) -> Self {
        Self {
            vocab: TokenVocab::new(embedder),
            crop,
            attrs,
            slots: HashMap::new(),
            ranges: Vec::new(),
            ids: Vec::new(),
            sums: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    pub(crate) fn stats(&self) -> EncodeCacheStats {
        EncodeCacheStats {
            distinct_records: self.slots.len() as u64,
            interned_tokens: self.vocab.len() as u64,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Drops every memoized record, the vocabulary, and the hit/miss
    /// counters — a full cold start.
    pub(crate) fn clear(&mut self) {
        let embedder = self.vocab.embedder().clone();
        *self = EncodeCache::new(embedder, self.crop, self.attrs);
        self.observe_mem();
    }

    /// Reports the cache's absolute logical footprint into the memory
    /// ledger: the arena/table capacities under `schema.encode_cache.bytes`
    /// and the interning vocabulary under `text.vocab.bytes`. One relaxed
    /// atomic load when tracing is off.
    fn observe_mem(&self) {
        if !adamel_obs::enabled() {
            return;
        }
        let bytes = self.ids.capacity() * 4
            + self.ranges.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.sums.capacity() * 4
            + self.slots.capacity() * std::mem::size_of::<(u128, u32)>();
        adamel_obs::mem::observe("schema.encode_cache.bytes", bytes as u64);
        adamel_obs::mem::observe("text.vocab.bytes", self.vocab.approx_bytes());
    }

    /// Content key of `record` under `schema`: values in canonical attribute
    /// order, `0xFF`-separated, hashed twice with independent seeds into a
    /// 128-bit key (collision odds are negligible at any realistic corpus).
    fn record_key(schema: &Schema, record: &Record) -> u128 {
        let bytes = |_: ()| {
            schema.attributes().iter().flat_map(|attr| {
                record
                    .get(attr)
                    .unwrap_or("")
                    .as_bytes()
                    .iter()
                    .copied()
                    .chain(std::iter::once(0xFFu8))
            })
        };
        let h1 = fnv1a(0, bytes(()));
        let h2 = fnv1a(0x9e37_79b9_7f4a_7c15, bytes(()));
        (u128::from(h1) << 64) | u128::from(h2)
    }

    /// Returns the slot of every record, building slots for records not yet
    /// cached. Building runs in phases so the expensive parts parallelize
    /// while id assignment stays deterministic:
    ///
    /// 1. tokenize new records in parallel (pure per-record work);
    /// 2. intern tokens and lay out id ranges serially, in record order, so
    ///    vocabulary ids never depend on the thread count;
    /// 3. embed new tokens in parallel (one independent row each);
    /// 4. fold the per-attribute sum precursors in parallel (one independent
    ///    `(slot, attr)` row each).
    ///
    /// Output bits never depend on id *values*, so even insertion-order
    /// differences between runs cannot change encodings.
    pub(crate) fn ensure_slots(&mut self, schema: &Schema, records: &[&Record]) -> Vec<u32> {
        debug_assert_eq!(schema.len(), self.attrs, "ensure_slots: schema width drifted");
        let first_new_slot = (self.ranges.len() / self.attrs.max(1)) as u32;
        let mut out = Vec::with_capacity(records.len());
        let mut new_records: Vec<&Record> = Vec::new();
        for &record in records {
            let key = Self::record_key(schema, record);
            match self.slots.get(&key) {
                Some(&slot) => {
                    self.hits += 1;
                    out.push(slot);
                }
                None => {
                    let slot = first_new_slot + new_records.len() as u32;
                    self.slots.insert(key, slot);
                    self.misses += 1;
                    new_records.push(record);
                    out.push(slot);
                }
            }
        }
        if !records.is_empty() {
            adamel_obs::trace_count!(
                "encode.cache.hit",
                (records.len() - new_records.len()) as u64
            );
            adamel_obs::trace_count!("encode.cache.miss", new_records.len() as u64);
        }
        if new_records.is_empty() {
            return out;
        }

        // Phase 1: tokenize (the only remaining String work) in parallel.
        let crop = self.crop;
        let attrs: Vec<&str> = schema.attributes().iter().map(String::as_str).collect();
        let tokenized: Vec<Vec<Vec<String>>> =
            parallel::parallel_map_collect(new_records.len(), attrs.len() * 512, |i| {
                attrs
                    .iter()
                    .map(|attr| {
                        new_records[i]
                            .get(attr)
                            .map(|v| tokenize_cropped(v, crop))
                            .unwrap_or_default()
                    })
                    .collect()
            });

        // Phase 2: intern + range layout, serial and order-deterministic.
        for record_tokens in &tokenized {
            adamel_obs::trace_op!("encode_record");
            for attr_tokens in record_tokens {
                let offset = self.ids.len() as u32;
                for token in attr_tokens {
                    self.ids.push(self.vocab.intern_deferred(token).0);
                }
                self.ranges.push((offset, attr_tokens.len() as u32));
            }
        }

        // Phase 3: embed newly interned tokens, one parallel row each.
        self.vocab.compute_pending();

        // Phase 4: fold the per-attribute sum precursors for the new slots.
        let dim = self.vocab.dim();
        let sums_start = self.sums.len();
        self.sums.resize(sums_start + new_records.len() * self.attrs * dim, 0.0);
        let first_range = first_new_slot as usize * self.attrs;
        let (vocab, ids, ranges) = (&self.vocab, &self.ids, &self.ranges);
        parallel::parallel_for_rows(&mut self.sums[sums_start..], dim, dim * 32, |i, row| {
            let (offset, len) = ranges[first_range + i];
            if len == 0 {
                row.copy_from_slice(vocab.missing());
            } else {
                row.fill(0.0);
                for &id in &ids[offset as usize..offset as usize + len as usize] {
                    for (acc, &v) in row.iter_mut().zip(vocab.embedding(TokenId(id))) {
                        *acc += v;
                    }
                }
            }
        });
        self.observe_mem();
        out
    }

    fn attr_ids(&self, slot: u32, attr: usize) -> &[u32] {
        let (offset, len) = self.ranges[slot as usize * self.attrs + attr];
        &self.ids[offset as usize..offset as usize + len as usize]
    }

    fn attr_sum(&self, slot: u32, attr: usize) -> &[f32] {
        let dim = self.vocab.dim();
        let row = slot as usize * self.attrs + attr;
        &self.sums[row * dim..(row + 1) * dim]
    }

    /// Encodes the pair `(left_slot, right_slot)` into `out` (one `dim`-wide
    /// block per feature in schema order) — the allocation-free hot path.
    pub(crate) fn encode_into(&self, left: u32, right: u32, mode: FeatureMode, out: &mut [f32]) {
        let dim = self.vocab.dim();
        let per = mode.per_attribute();
        debug_assert_eq!(out.len(), self.attrs * per * dim, "encode_into: buffer width mismatch");
        for attr in 0..self.attrs {
            let base = attr * per * dim;
            let (la, lb) = (self.attr_ids(left, attr), self.attr_ids(right, attr));
            let (sum_l, sum_r) = (self.attr_sum(left, attr), self.attr_sum(right, attr));
            match mode {
                FeatureMode::Both => {
                    let (sim, uni) = out[base..base + 2 * dim].split_at_mut(dim);
                    self.encode_attr(la, lb, sum_l, sum_r, Some(sim), Some(uni));
                }
                FeatureMode::SharedOnly => {
                    let sim = &mut out[base..base + dim];
                    self.encode_attr(la, lb, sum_l, sum_r, Some(sim), None);
                }
                FeatureMode::UniqueOnly => {
                    let uni = &mut out[base..base + dim];
                    self.encode_attr(la, lb, sum_l, sum_r, None, Some(uni));
                }
            }
        }
    }

    /// One attribute's `sim(A)` / `uni(A)` blocks from two cached token-id
    /// lists. An empty feature — a missing attribute on both sides (C1/C2)
    /// or a present-but-contrastively-empty token set — is written as the
    /// embedder's fixed non-zero missing vector, right here where the block
    /// is emitted, so every feature stays dense and its parameters receive
    /// gradient.
    fn encode_attr(
        &self,
        la: &[u32],
        lb: &[u32],
        sum_l: &[f32],
        sum_r: &[f32],
        mut sim: Option<&mut [f32]>,
        mut uni: Option<&mut [f32]>,
    ) {
        // Fast path: identical cropped token lists (covers both-missing).
        // shared == the full left list in order, unique is empty.
        if la == lb {
            if let Some(sim) = sim.as_deref_mut() {
                sim.copy_from_slice(sum_l);
            }
            if let Some(uni) = uni.as_deref_mut() {
                uni.copy_from_slice(self.vocab.missing());
            }
            return;
        }
        // Fast path: one side empty — nothing shared, unique == the other
        // side's full list in order, i.e. its cached sum precursor.
        if la.is_empty() || lb.is_empty() {
            if let Some(sim) = sim.as_deref_mut() {
                sim.copy_from_slice(self.vocab.missing());
            }
            if let Some(uni) = uni.as_deref_mut() {
                uni.copy_from_slice(if la.is_empty() { sum_r } else { sum_l });
            }
            return;
        }
        // General path: replay shared_and_unique's multiset partition on
        // ids, accumulating cached rows directly into the output blocks in
        // the reference's token order (left in order: matched → sim, else
        // uni; then unmatched right in order → uni).
        if let Some(sim) = sim.as_deref_mut() {
            sim.fill(0.0);
        }
        if let Some(uni) = uni.as_deref_mut() {
            uni.fill(0.0);
        }
        let (mut n_sim, mut n_uni) = (0usize, 0usize);
        PARTITION_SCRATCH.with(|scratch| {
            let mut counts = scratch.borrow_mut();
            counts.clear();
            for &t in lb {
                match counts.iter_mut().find(|e| e.0 == t) {
                    Some(e) => e.1 += 1,
                    None => counts.push((t, 1)),
                }
            }
            for &t in la {
                let row = self.vocab.embedding(TokenId(t));
                match counts.iter_mut().find(|e| e.0 == t && e.1 > 0) {
                    Some(e) => {
                        e.1 -= 1;
                        if let Some(sim) = sim.as_deref_mut() {
                            for (acc, &v) in sim.iter_mut().zip(row) {
                                *acc += v;
                            }
                        }
                        n_sim += 1;
                    }
                    None => {
                        if let Some(uni) = uni.as_deref_mut() {
                            for (acc, &v) in uni.iter_mut().zip(row) {
                                *acc += v;
                            }
                        }
                        n_uni += 1;
                    }
                }
            }
            for &t in lb {
                if let Some(e) = counts.iter_mut().find(|e| e.0 == t && e.1 > 0) {
                    e.1 -= 1;
                    if let Some(uni) = uni.as_deref_mut() {
                        let row = self.vocab.embedding(TokenId(t));
                        for (acc, &v) in uni.iter_mut().zip(row) {
                            *acc += v;
                        }
                    }
                    n_uni += 1;
                }
            }
        });
        if n_sim == 0 {
            if let Some(sim) = sim {
                sim.copy_from_slice(self.vocab.missing());
            }
        }
        if n_uni == 0 {
            if let Some(uni) = uni {
                uni.copy_from_slice(self.vocab.missing());
            }
        }
    }
}
