//! Contrastive relational feature extraction (paper §4.2, Eq. 2–3).
//!
//! Each attribute `A` of a pair `(r, r')` is parsed into two features:
//! `sim(A)` — the word tokens shared by both records — and `uni(A)` — the
//! tokens appearing in exactly one. Token embeddings are summed per feature
//! and the missing-value case is embedded as the embedder's fixed normalized
//! non-zero vector, so every pair becomes `F` dense `D`-wide blocks with
//! `F = 2|A|`.
//!
//! A batch encodes to an [`EncodedBlocks`]: per feature, a table of its
//! distinct blocks, and per pair, the table row of each feature. Blocks
//! repeat a lot (every empty token set is the same missing vector), so
//! each feature's block is keyed by the token ids its sum adds and each
//! distinct key is computed once per call ([`crate::encode_cache`]).
//! Per-record tokenization, hashing, and embedding happen once per distinct
//! record, from a record-level cache. The model reads the tables as they
//! are, one input per feature, in training and inference alike.
//! Laid out densely ([`EncodedBlocks::to_dense`]), the blocks are
//! bit-identical to the uncached per-pair reference, the oracle's
//! `encode_pair_uncached`.

use crate::encode_cache::{EncodeCache, EncodeCacheStats};
use crate::pair::EntityPair;
use crate::record::{Record, Schema};
use adamel_tensor::EncodedBlocks;
use adamel_text::HashedFastText;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which contrastive features to extract — the Table 6 ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureMode {
    /// Only `sim(A)` features.
    SharedOnly,
    /// Only `uni(A)` features.
    UniqueOnly,
    /// Both, the paper's default (`F = 2|A|`).
    Both,
}

impl FeatureMode {
    /// Features produced per attribute.
    pub fn per_attribute(self) -> usize {
        match self {
            FeatureMode::Both => 2,
            _ => 1,
        }
    }
}

/// Turns aligned entity pairs into per-feature tables of token-embedding
/// blocks.
///
/// Thread-safe: the interior encoding cache is mutex-guarded, and batch
/// encoding takes the lock once per batch, not per pair. Cloning snapshots
/// the cache (the clone starts with the same memoized records but its own
/// lock and counters).
#[derive(Debug)]
pub struct FeatureExtractor {
    schema: Schema,
    embedder: HashedFastText,
    crop: usize,
    mode: FeatureMode,
    cache: Mutex<EncodeCache>,
}

impl Clone for FeatureExtractor {
    fn clone(&self) -> Self {
        Self {
            schema: self.schema.clone(),
            embedder: self.embedder.clone(),
            crop: self.crop,
            mode: self.mode,
            cache: Mutex::new(self.lock_cache().clone()),
        }
    }
}

impl FeatureExtractor {
    /// Creates an extractor over `schema` using the paper's configuration
    /// interface: `crop` is the token cropping size (paper uses 20).
    pub fn new(schema: Schema, embedder: HashedFastText, crop: usize, mode: FeatureMode) -> Self {
        assert!(!schema.is_empty(), "FeatureExtractor requires a non-empty schema");
        let cache = Mutex::new(EncodeCache::new(embedder.clone(), crop, schema.len()));
        Self { schema, embedder, crop, mode, cache }
    }

    /// The aligned schema features are extracted against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of relational features `F` per pair.
    pub fn num_features(&self) -> usize {
        self.schema.len() * self.mode.per_attribute()
    }

    /// Embedding dimensionality `D` per feature.
    pub fn dim(&self) -> usize {
        self.embedder.dim()
    }

    /// The extraction mode.
    pub fn mode(&self) -> FeatureMode {
        self.mode
    }

    /// Human-readable feature names in column order, e.g.
    /// `["artist_shared", "artist_unique", "title_shared", ...]` — used by
    /// the attention analysis (Table 4).
    pub fn feature_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.num_features());
        for attr in self.schema.attributes() {
            match self.mode {
                FeatureMode::SharedOnly => names.push(format!("{attr}_shared")),
                FeatureMode::UniqueOnly => names.push(format!("{attr}_unique")),
                FeatureMode::Both => {
                    names.push(format!("{attr}_shared"));
                    names.push(format!("{attr}_unique"));
                }
            }
        }
        names
    }

    /// Locks the encoding cache, recovering from a poisoned lock: the cache
    /// holds only memoized pure-function results, so a panic mid-update in
    /// another thread cannot leave observably wrong data (`ensure_slots`
    /// registers a slot only after its key is inserted; a torn build is
    /// rebuilt-or-reused by content key, never mixed).
    fn lock_cache(&self) -> MutexGuard<'_, EncodeCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops every memoized record encoding, the interned vocabulary, and
    /// the hit/miss counters — a full cold start, used to bound memory
    /// between corpora and by the cold-path benchmarks.
    pub fn clear_cache(&self) {
        self.lock_cache().clear();
    }

    /// Current encoding-cache statistics.
    #[must_use = "cache stats are a snapshot; fetching them without reading is a no-op"]
    pub fn cache_stats(&self) -> EncodeCacheStats {
        self.lock_cache().stats()
    }

    /// The token embedder.
    pub fn embedder(&self) -> &HashedFastText {
        &self.embedder
    }

    /// Tokens kept per attribute value (the paper's cropping size).
    pub fn crop(&self) -> usize {
        self.crop
    }

    /// Encodes a batch of pairs as per-feature tables of distinct blocks.
    /// Distinct records are memoized first (one pass, parallel where it
    /// pays); then each pair's blocks are keyed by the token ids their sums
    /// add, and each distinct key of a feature is computed once. Laid out
    /// densely, the blocks are the exact bytes of the per-pair reference
    /// (the oracle's `encode_pair_uncached`).
    pub fn encode_pairs(&self, pairs: &[EntityPair]) -> EncodedBlocks {
        adamel_obs::trace_span!("encode_pairs");
        adamel_obs::trace_count!("encode.pairs", pairs.len() as u64);
        let mut cache = self.lock_cache();
        let records: Vec<&Record> = pairs.iter().flat_map(|p| [&p.left, &p.right]).collect();
        let slots = cache.ensure_slots(&self.schema, &records);
        cache.encode_blocks(&slots, self.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, SourceId};
    use adamel_text::{shared_and_unique, tokenize_cropped};

    fn rec(kv: &[(&str, &str)]) -> Record {
        let mut r = Record::new(SourceId(0), 0);
        for (k, v) in kv {
            r.set(*k, *v);
        }
        r
    }

    fn extractor(mode: FeatureMode) -> FeatureExtractor {
        let schema = Schema::new(vec!["artist".into(), "title".into()]);
        FeatureExtractor::new(schema, HashedFastText::new(16, 1), 20, mode)
    }

    #[test]
    fn feature_count_follows_mode() {
        assert_eq!(extractor(FeatureMode::Both).num_features(), 4);
        assert_eq!(extractor(FeatureMode::SharedOnly).num_features(), 2);
        assert_eq!(extractor(FeatureMode::UniqueOnly).num_features(), 2);
    }

    #[test]
    fn feature_names_order() {
        let names = extractor(FeatureMode::Both).feature_names();
        assert_eq!(names, vec!["artist_shared", "artist_unique", "title_shared", "title_unique"]);
    }

    #[test]
    fn encode_shapes() {
        let ex = extractor(FeatureMode::Both);
        let pair = EntityPair::unlabeled(
            rec(&[("title", "hey jude"), ("artist", "beatles")]),
            rec(&[("title", "hey jude"), ("artist", "p m")]),
        );
        let row = ex.encode_pairs(std::slice::from_ref(&pair)).to_dense();
        assert_eq!(row.shape(), (1, 4 * 16));
        let batch = ex.encode_pairs(&[pair.clone(), pair]);
        assert_eq!((batch.rows(), batch.features(), batch.dim()), (2, 4, 16));
    }

    #[test]
    fn identical_values_put_mass_in_shared_feature() {
        let ex = extractor(FeatureMode::Both);
        let pair =
            EntityPair::unlabeled(rec(&[("title", "hey jude")]), rec(&[("title", "hey jude")]));
        let row = ex.encode_pairs(&[pair]).to_dense();
        // title_shared is feature index 2 (artist_shared, artist_unique,
        // title_shared, title_unique); its block should differ from the
        // missing vector while title_unique equals the missing vector.
        let d = 16;
        let missing = HashedFastText::new(16, 1).missing_vector();
        let shared_block = &row.as_slice()[2 * d..3 * d];
        let unique_block = &row.as_slice()[3 * d..4 * d];
        assert_ne!(shared_block, missing.as_slice());
        assert_eq!(unique_block, missing.as_slice());
    }

    #[test]
    fn missing_attribute_embeds_missing_vector_everywhere() {
        let ex = extractor(FeatureMode::Both);
        let pair = EntityPair::unlabeled(rec(&[]), rec(&[]));
        let row = ex.encode_pairs(&[pair]).to_dense();
        let missing = HashedFastText::new(16, 1).missing_vector();
        for f in 0..4 {
            assert_eq!(&row.as_slice()[f * 16..(f + 1) * 16], missing.as_slice());
        }
    }

    #[test]
    fn schema_projection_changes_width() {
        let schema = Schema::new(vec!["artist".into(), "title".into()]);
        let top = schema.project(&["title"]);
        let ex = FeatureExtractor::new(top, HashedFastText::new(8, 1), 20, FeatureMode::Both);
        assert_eq!(ex.num_features(), 2);
        assert_eq!(ex.feature_names(), vec!["title_shared", "title_unique"]);
    }

    /// The uncached Eq. 2–3 reference, written out here because unit tests
    /// cannot reach the oracle's `encode_pair_uncached`.
    fn uncached(ex: &FeatureExtractor, pair: &EntityPair) -> Vec<f32> {
        let mut out = Vec::new();
        for attr in ex.schema().attributes() {
            let tokens = |r: &Record| r.get(attr).map(|v| tokenize_cropped(v, ex.crop()));
            let (left, right) = (tokens(&pair.left), tokens(&pair.right));
            let (shared, unique) =
                shared_and_unique(&left.unwrap_or_default(), &right.unwrap_or_default());
            let sets = match ex.mode() {
                FeatureMode::SharedOnly => vec![shared],
                FeatureMode::UniqueOnly => vec![unique],
                FeatureMode::Both => vec![shared, unique],
            };
            for set in sets {
                let mut block = vec![0.0; ex.dim()];
                ex.embedder().embed_tokens_into(&set, &mut block);
                out.extend(block);
            }
        }
        out
    }

    #[test]
    fn cached_matches_uncached_and_warm_repeat_is_stable() {
        let pairs = vec![
            EntityPair::unlabeled(
                rec(&[("title", "hey jude"), ("artist", "the beatles")]),
                rec(&[("title", "hey jude remastered"), ("artist", "beatles")]),
            ),
            EntityPair::unlabeled(rec(&[("title", "let it be")]), rec(&[("artist", "beatles")])),
            EntityPair::unlabeled(rec(&[]), rec(&[])),
            EntityPair::unlabeled(
                rec(&[("title", "a a b"), ("artist", "x")]),
                rec(&[("title", "a b b a"), ("artist", "x")]),
            ),
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for mode in [FeatureMode::Both, FeatureMode::SharedOnly, FeatureMode::UniqueOnly] {
            let ex = extractor(mode);
            let cold = ex.encode_pairs(&pairs).to_dense();
            let warm = ex.encode_pairs(&pairs).to_dense();
            assert_eq!(bits(cold.as_slice()), bits(warm.as_slice()), "warm drifted ({mode:?})");
            for (i, pair) in pairs.iter().enumerate() {
                let same = bits(cold.row(i)) == bits(&uncached(&ex, pair));
                assert!(same, "cached row {i} != uncached reference ({mode:?})");
            }
        }
        let ex = extractor(FeatureMode::Both);
        ex.encode_pairs(&pairs);
        let stats = ex.cache_stats();
        // 8 record references, 7 distinct contents (the two empty records
        // collide by content — same encoding, so sharing a slot is correct).
        assert_eq!(stats.distinct_records, 7);
        assert_eq!(stats.misses, 7);
        assert_eq!(stats.hits, 1);
        assert!(stats.interned_tokens > 0);
        ex.clear_cache();
        assert_eq!(ex.cache_stats(), EncodeCacheStats::default());
    }
}
