//! Chunked batch inference must be invisible: predictions and attention
//! weights over a large batch (which is split into bounded per-chunk graphs)
//! must be bit-identical to predicting the same pairs in smaller monolithic
//! batches, and independent of the worker thread count.

use adamel::config::AdamelConfig;
use adamel::model::AdamelModel;
use adamel_schema::{EntityPair, Record, Schema, SourceId};
use adamel_tensor::parallel;

fn rec(source: u32, id: u64, name: &str, city: &str) -> Record {
    let mut r = Record::new(SourceId(source), id);
    r.set("name", name);
    r.set("city", city);
    r
}

/// `n` synthetic pairs; callers pick counts that straddle the 128-row chunk
/// boundary.
fn pairs_n(n: u64) -> Vec<EntityPair> {
    let names = ["acme corp", "globex", "initech", "umbrella", "hooli", "stark"];
    let cities = ["berlin", "tokyo", "lima", ""];
    (0..n)
        .map(|i| {
            let n = names[(i % 6) as usize];
            let c = cities[(i % 4) as usize];
            let other = names[((i + 1) % 6) as usize];
            let left = rec(0, i, n, c);
            let right = if i % 3 == 0 { rec(1, i, n, c) } else { rec(1, i, other, c) };
            EntityPair::unlabeled(left, right)
        })
        .collect()
}

/// 600 synthetic pairs — enough to cross several 128-row chunk boundaries.
fn pairs() -> Vec<EntityPair> {
    pairs_n(600)
}

fn model() -> AdamelModel {
    let schema = Schema::new(vec!["name".into(), "city".into()]);
    AdamelModel::new(AdamelConfig::tiny(), schema)
}

#[test]
fn chunked_predict_matches_small_batches() {
    let m = model();
    let all = pairs();
    let full = m.predict(&all);
    assert_eq!(full.len(), all.len());

    // Split points chosen off the 128-row chunk grid, so no sub-batch's
    // chunks line up with the full batch's.
    let mut stitched = Vec::new();
    for part in [&all[..200], &all[200..327], &all[327..512], &all[512..]] {
        stitched.extend(m.predict(part));
    }
    assert_eq!(full, stitched, "chunked batch disagrees with monolithic sub-batches");
}

#[test]
fn chunked_attention_matches_small_batches() {
    let m = model();
    let all = pairs();
    let full = m.attention(&all);
    assert_eq!(full.rows(), all.len());

    let head = m.attention(&all[..500]);
    let tail = m.attention(&all[500..]);
    for i in 0..all.len() {
        let expected = if i < 500 { head.row(i) } else { tail.row(i - 500) };
        assert_eq!(full.row(i), expected, "attention row {i} differs");
    }
}

#[test]
fn chunk_boundary_sizes_match_single_shot_graph() {
    // One below, exactly at, one above, and a multiple of the 128-row chunk
    // size, and the same around the 512-row chunk it replaced: chunked
    // inference must be bit-identical to one monolithic forward graph
    // followed by the same sigmoid.
    let m = model();
    for n in [127u64, 128, 129, 640, 511, 512, 513, 1024] {
        let batch = pairs_n(n);
        let encoded = m.encode(&batch);
        let chunked = m.predict_encoded(&encoded);

        let mut g = adamel_tensor::Graph::new();
        let (_, logits) = m.forward_graph(&mut g, &encoded);
        let single: Vec<f32> =
            g.value(logits).as_slice().iter().map(|&z| 1.0 / (1.0 + (-z).exp())).collect();

        assert_eq!(chunked.len(), single.len(), "n = {n}");
        assert_eq!(
            chunked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "chunked prediction drifted from the single-shot graph at n = {n}"
        );
    }
}

#[test]
fn predict_is_thread_count_invariant() {
    let m = model();
    let all = pairs();
    let one = parallel::with_threads(1, || m.predict(&all));
    let four = parallel::with_threads(4, || m.predict(&all));
    let eight = parallel::with_threads(8, || m.predict(&all));
    assert_eq!(one, four);
    assert_eq!(one, eight);
}
