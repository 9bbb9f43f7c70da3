//! Record-level encoding cache behind [`crate::FeatureExtractor`].
//!
//! In candidate generation each *record* appears in many pairs, yet the
//! uncached feature path re-tokenizes, re-hashes, and re-embeds every
//! attribute per pair (Eq. 2–3). This module memoizes the per-record work
//! once — the cropped token-id list per attribute, via
//! [`adamel_text::TokenVocab`] interning, which also embeds each distinct
//! token once — so pair encoding reduces to a multiset partition over two
//! short `u32` lists plus sums of cached embedding rows. No `String` is
//! allocated and no n-gram is hashed on the pair path.
//!
//! ## Block keys
//!
//! A feature block is the sum of its tokens' rows from `0.0`, in the order
//! the partition yields them, or the missing vector when there is no
//! token. Its **key** is that token-id sequence; the empty sequence stands
//! for the missing vector. A batch keeps, per feature, one table row per
//! distinct key in first-seen order, summed once, and each pair points at
//! its row. Keys live for one call: there is no cross-call block cache.
//!
//! Keys are order-sensitive: the sequences `[a, b]` and `[b, a]` are two
//! keys, summed twice, though `0 + a + b` and `0 + b + a` give the same
//! bits in f32 (on `serve_link`'s inputs that is about 1.2% more blocks).
//! Merging them would only be exact for two tokens, since three-term f32
//! sums depend on their order, so the keys stay sequences.
//!
//! ## Bit-exactness contract
//!
//! The blocks must have the *identical bits* of `shared_and_unique` +
//! `embed_tokens_into` (the uncached reference, the oracle's
//! `encode_pair_uncached`). f32 addition is not associative, so this holds
//! only because every sum replays the reference's exact operation order,
//! which also makes equal keys give equal bits:
//!
//! * cached token rows are bit-identical `embed_token` outputs (interning is
//!   pure memoization);
//! * the partition replays `shared_and_unique`'s count semantics: left
//!   tokens in order (matched → shared, else unique), then leftover right
//!   tokens in order — so tokens are *added in the same sequence*, into a
//!   zeroed row;
//! * an empty key copies the embedder's fixed missing vector, exactly as
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
//! u32s); plus `D` f32 per distinct token in the vocabulary.

use crate::features::FeatureMode;
use crate::record::{Record, Schema};
use adamel_tensor::{parallel, EncodedBlocks, Matrix};
use adamel_text::{tokenize_cropped, HashedFastText, TokenId, TokenVocab};
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
    /// 3. embed new tokens in parallel (one independent row each).
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

        self.observe_mem();
        out
    }

    fn attr_ids(&self, slot: u32, attr: usize) -> &[u32] {
        let (offset, len) = self.ranges[slot as usize * self.attrs + attr];
        &self.ids[offset as usize..offset as usize + len as usize]
    }

    /// Encodes the pairs `(slots[2i], slots[2i + 1])` as per-feature tables
    /// of distinct blocks: each block is keyed by its token-id sequence (see
    /// the module docs), and each distinct key of a feature is summed once.
    pub(crate) fn encode_blocks(&self, slots: &[u32], mode: FeatureMode) -> EncodedBlocks {
        let per = mode.per_attribute();
        let mut features: Vec<FeatureKeys> =
            (0..self.attrs * per).map(|_| FeatureKeys::default()).collect();
        let mut index = Vec::with_capacity(slots.len() / 2 * features.len());
        let mut split = Partition::default();
        for pair in slots.chunks_exact(2) {
            for attr in 0..self.attrs {
                split.split(self.attr_ids(pair[0], attr), self.attr_ids(pair[1], attr));
                let keys: &[&[u32]] = match mode {
                    FeatureMode::Both => &[&split.sim, &split.uni],
                    FeatureMode::SharedOnly => &[&split.sim],
                    FeatureMode::UniqueOnly => &[&split.uni],
                };
                for (k, key) in keys.iter().enumerate() {
                    index.push(features[attr * per + k].id(key));
                }
            }
        }
        let dim = self.vocab.dim();
        let tables = features.iter().map(|keys| keys.table(&self.vocab)).collect();
        EncodedBlocks::new(slots.len() / 2, dim, tables, index)
    }
}

/// One feature's distinct keys in a call, numbered in first-seen order.
#[derive(Default)]
struct FeatureKeys {
    /// Key → block id. Lookup only, never iterated.
    ids: HashMap<Box<[u32]>, u32>,
    /// `(offset, len)` of each block id's key in `arena`.
    keys: Vec<(usize, usize)>,
    arena: Vec<u32>,
}

impl FeatureKeys {
    /// The block id of `key`, numbering it first if it is new.
    fn id(&mut self, key: &[u32]) -> u32 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.ids.insert(key.into(), id);
        self.keys.push((self.arena.len(), key.len()));
        self.arena.extend_from_slice(key);
        id
    }

    /// One row per block id: the sum of its key's token rows from zero, or
    /// the missing vector for the empty key.
    fn table(&self, vocab: &TokenVocab) -> Matrix {
        let dim = vocab.dim();
        let mut table = Matrix::zeros(self.keys.len(), dim);
        for (row, &(offset, len)) in table.as_mut_slice().chunks_exact_mut(dim).zip(&self.keys) {
            if len == 0 {
                row.copy_from_slice(vocab.missing());
            }
            for &id in &self.arena[offset..offset + len] {
                for (acc, &v) in row.iter_mut().zip(vocab.embedding(TokenId(id))) {
                    *acc += v;
                }
            }
        }
        table
    }
}

/// Scratch for `shared_and_unique`'s multiset partition over token ids.
#[derive(Default)]
struct Partition {
    /// `(token id, remaining count)` of the right-hand list. Lists are
    /// `crop`-bounded, so a linear-scan association list beats hashing.
    counts: Vec<(u32, u32)>,
    sim: Vec<u32>,
    uni: Vec<u32>,
}

impl Partition {
    /// Replays `shared_and_unique` on ids: left tokens in order (matched →
    /// `sim`, else `uni`), then the unmatched right tokens in order → `uni`.
    fn split(&mut self, la: &[u32], lb: &[u32]) {
        let Partition { counts, sim, uni } = self;
        counts.clear();
        sim.clear();
        uni.clear();
        for &t in lb {
            match counts.iter_mut().find(|e| e.0 == t) {
                Some(e) => e.1 += 1,
                None => counts.push((t, 1)),
            }
        }
        for &t in la {
            match counts.iter_mut().find(|e| e.0 == t && e.1 > 0) {
                Some(e) => {
                    e.1 -= 1;
                    sim.push(t);
                }
                None => uni.push(t),
            }
        }
        for &t in lb {
            if let Some(e) = counts.iter_mut().find(|e| e.0 == t && e.1 > 0) {
                e.1 -= 1;
                uni.push(t);
            }
        }
    }
}
