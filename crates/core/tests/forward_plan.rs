//! Two-phase inference must be invisible: running the forward in its two
//! phases (each distinct block once per call, then the pairs in chunks,
//! each chunk on a short-lived tape) must produce **bit-identical**
//! scores and attention distributions to recording one monolithic
//! `forward_graph` tape over the whole batch, at every chunk-boundary batch
//! size, in every feature mode, at every thread count, after parameters
//! change, and for the uniform-attention ablation.

use adamel::config::AdamelConfig;
use adamel::model::AdamelModel;
use adamel::{fit, Variant};
use adamel_schema::{Domain, EntityPair, FeatureMode, Record, Schema, SourceId};
use adamel_tensor::{parallel, EncodedBlocks, Graph, Matrix};

fn rec(source: u32, id: u64, name: &str, city: &str) -> Record {
    let mut r = Record::new(SourceId(source), id);
    r.set("name", name);
    r.set("city", city);
    r
}

/// `n` synthetic pairs mixing matches, non-matches, and missing values.
fn pairs_n(n: u64) -> Vec<EntityPair> {
    let names = ["acme corp", "globex", "initech", "umbrella", "hooli", "stark"];
    let cities = ["berlin", "tokyo", "lima", ""];
    (0..n)
        .map(|i| {
            let nm = names[(i % 6) as usize];
            let c = cities[(i % 4) as usize];
            let other = names[((i + 1) % 6) as usize];
            let left = rec(0, i, nm, c);
            let right = if i % 3 == 0 { rec(1, i, nm, c) } else { rec(1, i, other, c) };
            EntityPair::unlabeled(left, right)
        })
        .collect()
}

fn schema() -> Schema {
    Schema::new(vec!["name".into(), "city".into()])
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|v| v.to_bits()).collect()
}

/// Scores and attention from one `forward_graph` tape over the whole batch.
fn tape(m: &AdamelModel, encoded: &EncodedBlocks) -> (Vec<f32>, Matrix) {
    let mut g = Graph::new();
    let (attention, logits) = m.forward_graph(&mut g, encoded);
    let scores = g.value(logits).as_slice().iter().map(|&z| 1.0 / (1.0 + (-z).exp())).collect();
    (scores, g.value(attention).clone())
}

/// Asserts inference and one tape agree bit-for-bit on every inference
/// surface: `predict_encoded`, `predict_with_attention` (both outputs of
/// one scoring forward) and `attention_encoded` (no classifier).
fn assert_plan_matches_tape(m: &AdamelModel, n: u64, label: &str) {
    let encoded = m.encode(&pairs_n(n));
    let (tape_scores, tape_att) = tape(m, &encoded);

    let plan_scores = m.predict_encoded(&encoded);
    assert_eq!(
        bits(&plan_scores),
        bits(&tape_scores),
        "{label}: inference scores drifted from tape at n = {n}"
    );
    let (scores, att) = m.predict_with_attention(&encoded);
    assert_eq!(bits(&scores), bits(&tape_scores), "{label}: two-output scores at n = {n}");
    assert_eq!(att.shape(), tape_att.shape(), "{label}: two-output attention shape at n = {n}");
    assert_eq!(
        bits(att.as_slice()),
        bits(tape_att.as_slice()),
        "{label}: two-output attention drifted from tape at n = {n}"
    );

    let plan_att = m.attention_encoded(&encoded);
    assert_eq!(plan_att.shape(), tape_att.shape(), "{label}: attention shape at n = {n}");
    assert_eq!(
        bits(plan_att.as_slice()),
        bits(tape_att.as_slice()),
        "{label}: inference attention drifted from tape at n = {n}"
    );
}

/// Batch sizes around the 128-row predict chunk (one below, at, one above,
/// and five chunks) and around the 512-row chunk it replaced.
const CHUNK_EDGES: [u64; 8] = [127, 128, 129, 640, 511, 512, 513, 1024];

#[test]
fn plan_matches_tape_at_chunk_boundaries() {
    // Inference splits the batch at chunk edges, the reference tape does not.
    let m = AdamelModel::new(AdamelConfig::tiny(), schema());
    for n in CHUNK_EDGES {
        assert_plan_matches_tape(&m, n, "boundaries");
    }
}

#[test]
fn plan_matches_tape_across_feature_modes() {
    for mode in [FeatureMode::SharedOnly, FeatureMode::UniqueOnly, FeatureMode::Both] {
        let cfg = AdamelConfig::tiny().with_feature_mode(mode);
        let m = AdamelModel::new(cfg, schema());
        for n in CHUNK_EDGES {
            assert_plan_matches_tape(&m, n, &format!("{mode:?}"));
        }
    }
}

#[test]
fn plan_is_thread_count_invariant() {
    let m = AdamelModel::new(AdamelConfig::tiny(), schema());
    let encoded = m.encode(&pairs_n(1024));
    let base = parallel::with_threads(1, || m.predict_encoded(&encoded));
    let base_att = parallel::with_threads(1, || m.attention_encoded(&encoded));
    for t in [2, 4, 8] {
        let scores = parallel::with_threads(t, || m.predict_encoded(&encoded));
        assert_eq!(bits(&base), bits(&scores), "inference scores vary at {t} threads");
        let att = parallel::with_threads(t, || m.attention_encoded(&encoded));
        assert_eq!(
            bits(base_att.as_slice()),
            bits(att.as_slice()),
            "inference attention varies at {t} threads"
        );
    }
}

#[test]
fn uniform_attention_compiles_and_matches_forward_graph() {
    // The ablation records an `n x F` constant of identical rows, which
    // inference records at each pair chunk's row count.
    let cfg = AdamelConfig::tiny().with_uniform_attention(true);
    let m = AdamelModel::new(cfg, schema());
    for n in [1u64, 127, 129, 511, 513] {
        assert_plan_matches_tape(&m, n, "uniform");
    }
    let att = m.attention_encoded(&m.encode(&pairs_n(600)));
    let f = m.extractor().num_features();
    for i in 0..att.rows() {
        for &v in att.row(i) {
            assert_eq!(v.to_bits(), (1.0 / f as f32).to_bits(), "uniform attention row {i}");
        }
    }
}

#[test]
fn plan_stays_valid_after_training() {
    // Pack the weights of the freshly initialized parameters, then mutate
    // every parameter by training; every write drops its pack, so
    // inference must track the trained weights bit-for-bit.
    let mut m = AdamelModel::new(AdamelConfig::tiny(), schema());
    let before = m.predict(&pairs_n(16));
    assert_eq!(before.len(), 16);

    let train: Vec<EntityPair> = pairs_n(24)
        .into_iter()
        .enumerate()
        .map(|(i, p)| EntityPair::labeled(p.left, p.right, i % 3 == 0))
        .collect();
    fit(&mut m, Variant::Base, &Domain::new(train), None, None);

    assert_plan_matches_tape(&m, 513, "post-training");

    // And after restoring a snapshot (best-model tracking path).
    let snapshot = m.snapshot_params();
    m.restore_params(&snapshot).expect("round-trip restore");
    assert_plan_matches_tape(&m, 40, "post-restore");
}
