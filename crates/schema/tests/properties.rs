//! Property-based tests of schema alignment and feature extraction.

use adamel_oracle::encode_pair_uncached;
use adamel_schema::{EntityPair, FeatureExtractor, FeatureMode, Record, Schema, SourceId};
use adamel_tensor::parallel;
use adamel_text::HashedFastText;
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = Record> {
    (0u32..6, 0u64..40, proptest::collection::btree_map("[a-c]", "[a-z ]{0,12}", 0..4)).prop_map(
        |(src, id, kv)| {
            let mut r = Record::new(SourceId(src), id);
            for (k, v) in kv {
                r.set(k, v);
            }
            r
        },
    )
}

proptest! {
    #[test]
    fn schema_union_is_commutative_and_idempotent(a in arb_record(), b in arb_record()) {
        let sa = Schema::union_of([&a]);
        let sb = Schema::union_of([&b]);
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
        let u = sa.union(&sb);
        prop_assert_eq!(u.union(&sa), u.clone());
        prop_assert_eq!(u.union(&u), u);
    }

    #[test]
    fn project_without_partition_schema(a in arb_record(), b in arb_record()) {
        let schema = Schema::union_of([&a, &b]);
        prop_assume!(!schema.is_empty());
        let keep: Vec<&str> = schema.attributes().iter().take(1).map(|s| s.as_str()).collect();
        let top = schema.project(&keep);
        let rest = schema.without(&keep);
        prop_assert_eq!(top.len() + rest.len(), schema.len());
        for attr in top.attributes() {
            prop_assert!(rest.index_of(attr).is_none());
        }
    }

    #[test]
    fn encoded_width_matches_contract(a in arb_record(), b in arb_record()) {
        let schema = Schema::new(vec!["a".into(), "b".into(), "c".into()]);
        for mode in [FeatureMode::Both, FeatureMode::SharedOnly, FeatureMode::UniqueOnly] {
            let ex = FeatureExtractor::new(
                schema.clone(),
                HashedFastText::new(8, 1),
                20,
                mode,
            );
            let pair = EntityPair::unlabeled(a.clone(), b.clone());
            let row = ex.encode_pairs(&[pair]).to_dense();
            prop_assert_eq!(row.shape(), (1, ex.num_features() * 8));
            prop_assert!(row.is_finite());
            prop_assert_eq!(ex.feature_names().len(), ex.num_features());
        }
    }

    #[test]
    fn blocks_lay_out_to_the_uncached_reference(
        a in arb_record(),
        b in arb_record(),
        c in arb_record(),
    ) {
        // Three pairs over three records, so records and blocks repeat.
        let pairs = vec![
            EntityPair::unlabeled(a.clone(), b.clone()),
            EntityPair::unlabeled(b, c.clone()),
            EntityPair::unlabeled(c, a),
        ];
        let schema = Schema::new(vec!["a".into(), "b".into(), "c".into()]);
        for mode in [FeatureMode::Both, FeatureMode::SharedOnly, FeatureMode::UniqueOnly] {
            for threads in [1, 2] {
                let ex =
                    FeatureExtractor::new(schema.clone(), HashedFastText::new(8, 1), 20, mode);
                let blocks = parallel::with_threads(threads, || ex.encode_pairs(&pairs));
                for j in 0..blocks.features() {
                    prop_assert!(blocks.table(j).rows() <= pairs.len());
                }
                let dense = blocks.to_dense();
                let mut reference = vec![f32::NAN; dense.cols()];
                for (i, p) in pairs.iter().enumerate() {
                    encode_pair_uncached(&ex, p, &mut reference);
                    let same = dense.row(i).iter().zip(&reference).all(|(x, y)| x.to_bits() == y.to_bits());
                    prop_assert!(same, "row {i} != uncached ({mode:?}, {threads} threads)");
                }
            }
        }
    }

    #[test]
    fn encoding_is_symmetric_in_shared_block(v in "[a-z]{1,10}") {
        // A pair with identical single-token values: swapping sides must not
        // change the encoding (sim/uni are set operations).
        let schema = Schema::new(vec!["a".into()]);
        let ex = FeatureExtractor::new(schema, HashedFastText::new(8, 1), 20, FeatureMode::Both);
        let mut l = Record::new(SourceId(0), 1);
        l.set("a", v.clone());
        let mut r = Record::new(SourceId(1), 1);
        r.set("a", v);
        let fwd = ex.encode_pairs(&[EntityPair::unlabeled(l.clone(), r.clone())]).to_dense();
        let rev = ex.encode_pairs(&[EntityPair::unlabeled(r, l)]).to_dense();
        prop_assert_eq!(fwd, rev);
    }

    #[test]
    fn ground_truth_consistency(a in arb_record(), b in arb_record()) {
        let pair = EntityPair::unlabeled(a.clone(), b.clone());
        prop_assert_eq!(pair.ground_truth(), a.entity_id == b.entity_id);
    }
}
