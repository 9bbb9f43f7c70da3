//! With tracing off, the encoding-path instrumentation — the
//! `encode_pairs` span, the per-new-record `encode_record` op span, and the
//! `encode.cache.{hit,miss}` counters — must be inert: no spans entered,
//! nothing in the registry, bit-identical encodings. This test file runs in
//! its own process, so forcing the process-global trace level is safe.

use adamel_schema::{EntityPair, FeatureExtractor, FeatureMode, Record, Schema, SourceId};
use adamel_text::HashedFastText;

fn extractor() -> FeatureExtractor {
    let schema = Schema::new(vec!["artist".into(), "title".into()]);
    FeatureExtractor::new(schema, HashedFastText::new(16, 3), 20, FeatureMode::Both)
}

fn pairs() -> Vec<EntityPair> {
    let rec = |id: u64, artist: &str, title: &str| {
        let mut r = Record::new(SourceId(0), id);
        if !artist.is_empty() {
            r.set("artist", artist);
        }
        if !title.is_empty() {
            r.set("title", title);
        }
        r
    };
    vec![
        EntityPair::unlabeled(rec(0, "the beatles", "hey jude"), rec(1, "beatles", "hey jude")),
        EntityPair::unlabeled(rec(2, "", "let it be"), rec(0, "the beatles", "hey jude")),
        EntityPair::unlabeled(rec(3, "", ""), rec(3, "", "")),
    ]
}

#[test]
fn trace_off_records_nothing_and_changes_nothing() {
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Off));
    adamel_obs::report::reset();

    let before = adamel_obs::spans_entered();
    let ex = extractor();
    // Two batches: the first builds cache slots (would emit encode_record op
    // spans and hit/miss counters when tracing), the second hits warm.
    let off_cold = ex.encode_pairs(&pairs());
    let off_warm = ex.encode_pairs(&pairs());
    assert_eq!(adamel_obs::spans_entered(), before, "trace-off encoding must not enter spans");
    let json = adamel_obs::report::render_json();
    assert!(json.contains("\"spans\": {}"), "registry picked up spans: {json}");
    assert!(json.contains("\"counters\": {}"), "registry picked up counters: {json}");
    // The memory ledger obeys the same off-means-off contract: the encode
    // cache and vocab observers add zero gauges while tracing is off.
    assert!(json.contains("\"gauges\": {}"), "registry picked up mem gauges: {json}");
    assert!(adamel_obs::mem::snapshot().is_empty(), "mem ledger populated while off");

    // Observation must never change numeric results: the same encode under
    // full tracing (fresh extractor, cold cache again) produces identical
    // bits, and the instrumentation now actually fires.
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Full));
    let ex = extractor();
    let full_cold = ex.encode_pairs(&pairs());
    let full_warm = ex.encode_pairs(&pairs());
    assert_eq!(off_cold.to_dense().as_slice(), full_cold.to_dense().as_slice());
    assert_eq!(off_warm.to_dense().as_slice(), full_warm.to_dense().as_slice());
    assert!(adamel_obs::spans_entered() > before, "full tracing should enter encode spans");
    let json = adamel_obs::report::render_json();
    assert!(json.contains("encode_pairs"), "missing encode_pairs span: {json}");
    assert!(json.contains("encode_record"), "missing encode_record op span: {json}");
    assert!(json.contains("encode.cache.hit"), "missing cache hit counter: {json}");
    assert!(json.contains("encode.cache.miss"), "missing cache miss counter: {json}");
    assert!(json.contains("encode.embed_hash"), "missing embed_hash instrumentation: {json}");
    // With tracing on, the cache-build boundary reports both footprints.
    for gauge in ["schema.encode_cache.bytes", "text.vocab.bytes"] {
        assert!(
            adamel_obs::mem::peak(gauge).unwrap_or(0) > 0,
            "{gauge} gauge missing under full tracing"
        );
    }

    adamel_obs::set_forced(None);
    adamel_obs::report::reset();
}
