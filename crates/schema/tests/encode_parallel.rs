//! Batch encoding must be byte-identical to encoding each pair on its own
//! and to the oracle's uncached reference once its blocks are laid out
//! densely, for any batch size, thread count, and attribute content
//! (including empty and missing values).

use adamel_oracle::encode_pair_uncached;
use adamel_schema::{EntityPair, FeatureExtractor, FeatureMode, Record, Schema, SourceId};
use adamel_tensor::parallel;
use adamel_text::HashedFastText;
use proptest::prelude::*;

fn extractor(mode: FeatureMode) -> FeatureExtractor {
    let schema = Schema::new(vec!["artist".into(), "title".into()]);
    FeatureExtractor::new(schema, HashedFastText::new(24, 7), 20, mode)
}

fn pair(la: &str, lt: &str, ra: &str, rt: &str) -> EntityPair {
    let mut l = Record::new(SourceId(0), 0);
    let mut r = Record::new(SourceId(1), 1);
    // Empty strings model a missing attribute: don't set the field at all.
    if !la.is_empty() {
        l.set("artist", la);
    }
    if !lt.is_empty() {
        l.set("title", lt);
    }
    if !ra.is_empty() {
        r.set("artist", ra);
    }
    if !rt.is_empty() {
        r.set("title", rt);
    }
    EntityPair::unlabeled(l, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn encode_pairs_parallel_matches_sequential(
        raw in proptest::collection::vec(
            ("[a-z ]{0,16}", "[a-z ]{0,16}", "[a-z ]{0,16}", "[a-z ]{0,16}"),
            0..10,
        ),
        threads in 2usize..9,
    ) {
        let ex = extractor(FeatureMode::Both);
        let pairs: Vec<EntityPair> =
            raw.iter().map(|(la, lt, ra, rt)| pair(la, lt, ra, rt)).collect();

        let batch = parallel::with_threads(threads, || ex.encode_pairs(&pairs)).to_dense();
        prop_assert_eq!(batch.shape(), (pairs.len(), ex.num_features() * ex.dim()));
        for (i, p) in pairs.iter().enumerate() {
            let row = ex.encode_pairs(std::slice::from_ref(p)).to_dense();
            prop_assert_eq!(batch.row(i), row.as_slice());
        }
    }

    #[test]
    fn one_pair_batch_matches_the_uncached_reference(
        attrs in ("[a-z0-9 ]{0,24}", "[a-z0-9 ]{0,24}", "[a-z0-9 ]{0,24}", "[a-z0-9 ]{0,24}"),
    ) {
        for mode in [FeatureMode::Both, FeatureMode::SharedOnly, FeatureMode::UniqueOnly] {
            let ex = extractor(mode);
            let (la, lt, ra, rt) = &attrs;
            let p = pair(la, lt, ra, rt);
            let mut buf = vec![f32::NAN; ex.num_features() * ex.dim()];
            encode_pair_uncached(&ex, &p, &mut buf);
            let row = ex.encode_pairs(std::slice::from_ref(&p)).to_dense();
            prop_assert_eq!(bits(&buf), bits(row.as_slice()));
        }
    }
}

/// Deterministic Fisher–Yates over an LCG stream: record-order permutations
/// without pulling a rand dependency into the test.
fn permuted_indices(n: usize, mut seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        idx.swap(i, j);
    }
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The record-level cache must be pure memoization: bit-identical to the
    // uncached reference for every mode, at every thread count, whether the
    // cache is cold or warm, and regardless of the order records were first
    // seen in (interning order must never leak into the numerics). The tiny
    // alphabet forces repeated tokens (multiset partitions) and duplicate
    // records (real cache hits) to occur.
    #[test]
    fn cached_encoding_bit_identical_to_uncached(
        raw in proptest::collection::vec(
            ("[a-c ]{0,12}", "[a-c ]{0,12}", "[a-c ]{0,12}", "[a-c ]{0,12}"),
            1..12,
        ),
        perm_seed in 0u64..u64::MAX,
    ) {
        let pairs: Vec<EntityPair> =
            raw.iter().map(|(la, lt, ra, rt)| pair(la, lt, ra, rt)).collect();
        for mode in [FeatureMode::Both, FeatureMode::SharedOnly, FeatureMode::UniqueOnly] {
            let ex = extractor(mode);
            let width = ex.num_features() * ex.dim();
            let reference: Vec<Vec<f32>> = pairs
                .iter()
                .map(|p| {
                    let mut buf = vec![f32::NAN; width];
                    encode_pair_uncached(&ex, p, &mut buf);
                    buf
                })
                .collect();
            let bits_equal = |a: &[f32], b: &[f32]| {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            };

            for threads in [1usize, 2, 4, 8] {
                let ex = extractor(mode); // fresh extractor => cold cache
                let cold = parallel::with_threads(threads, || ex.encode_pairs(&pairs)).to_dense();
                let warm = parallel::with_threads(threads, || ex.encode_pairs(&pairs)).to_dense();
                for (i, want) in reference.iter().enumerate() {
                    prop_assert!(
                        bits_equal(cold.row(i), want),
                        "cold cache row {i} != uncached ({mode:?}, {threads} threads)"
                    );
                    prop_assert!(
                        bits_equal(warm.row(i), want),
                        "warm cache row {i} != uncached ({mode:?}, {threads} threads)"
                    );
                }
            }

            // First-seen interning order must not matter: encode a permuted
            // batch with a fresh cache and compare against the per-pair
            // reference computed in original order.
            let order = permuted_indices(pairs.len(), perm_seed);
            let shuffled: Vec<EntityPair> = order.iter().map(|&i| pairs[i].clone()).collect();
            let ex = extractor(mode);
            let out = ex.encode_pairs(&shuffled).to_dense();
            for (row, &orig) in order.iter().enumerate() {
                prop_assert!(
                    bits_equal(out.row(row), &reference[orig]),
                    "permuted row {row} (pair {orig}) != uncached ({mode:?})"
                );
            }
        }
    }
}

#[test]
fn encode_pairs_empty_batch() {
    let ex = extractor(FeatureMode::Both);
    let batch = ex.encode_pairs(&[]);
    assert_eq!((batch.rows(), batch.features(), batch.dim()), (0, ex.num_features(), ex.dim()));
    assert_eq!(batch.to_dense().shape(), (0, ex.num_features() * ex.dim()));
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn equal_keys_share_one_block_per_call() {
    // `a`: the title on both sides, the artist on neither; `b`: artists
    // sharing nothing, the title on the left only. Repeated three times,
    // each feature holds one block per distinct token-id sequence.
    let (a, b) = (pair("", "hey jude", "", "hey jude"), pair("x", "let it be", "y z", ""));
    let pairs = vec![a.clone(), b.clone(), a.clone(), b.clone(), a, b];
    for threads in [1, 2] {
        let ex = extractor(FeatureMode::Both);
        let blocks = parallel::with_threads(threads, || ex.encode_pairs(&pairs));
        // artist_shared: empty. artist_unique: empty, [x, y, z].
        // title_shared: [hey, jude], empty. title_unique: empty, [let, it, be].
        let rows: Vec<usize> = (0..blocks.features()).map(|j| blocks.table(j).rows()).collect();
        assert_eq!(rows, vec![1, 2, 2, 2], "{threads} threads");
        for r in 0..pairs.len() {
            for j in 0..blocks.features() {
                assert_eq!(blocks.id(r, j), blocks.id(r % 2, j), "pair {r}, feature {j}");
            }
        }
        let missing = ex.embedder().missing_vector();
        assert_eq!(bits(blocks.table(0).row(0)), bits(missing.as_slice()));
        let dense = blocks.to_dense();
        let mut reference = vec![0.0f32; dense.cols()];
        for (i, p) in pairs.iter().enumerate() {
            encode_pair_uncached(&ex, p, &mut reference);
            assert_eq!(bits(dense.row(i)), bits(&reference), "row {i}, {threads} threads");
        }
    }
}
