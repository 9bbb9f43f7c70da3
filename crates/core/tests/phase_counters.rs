//! The two-phase forward's counters, spans and pack gauge. At `spans`,
//! every predict call adds its pairs' feature rows to `block_phase.rows`
//! and the distinct blocks its block phase ran to
//! `block_phase.distinct_rows`, and `tensor.params.packed.bytes` counts the
//! weights the model keeps packed. This file runs in its own process, so
//! forcing the process-global trace level reaches no other suite; its tests
//! hold [`TRACE_LEVEL`] while they force it.

use adamel::config::AdamelConfig;
use adamel::model::AdamelModel;
use adamel_schema::{EntityPair, Record, Schema, SourceId};
use adamel_tensor::parallel;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests that force the process-global trace level.
static TRACE_LEVEL: Mutex<()> = Mutex::new(());

fn exclusive_trace_level() -> MutexGuard<'static, ()> {
    TRACE_LEVEL.lock().unwrap_or_else(|e| e.into_inner())
}

fn rec(source: u32, id: u64, name: &str, city: &str) -> Record {
    let mut r = Record::new(SourceId(source), id);
    r.set("name", name);
    r.set("city", city);
    r
}

/// The duplicate-heavy batches of `forward_plan.rs`: six names and four
/// cities (one empty), so each feature repeats most of its blocks.
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

fn model() -> AdamelModel {
    AdamelModel::new(AdamelConfig::tiny(), Schema::new(vec!["name".into(), "city".into()]))
}

/// Bit-distinct blocks of each feature over pairs `[start, start + len)`.
fn bit_distinct(dense: &adamel_tensor::Matrix, d: usize, start: usize, len: usize) -> usize {
    let features = dense.cols() / d;
    (0..features)
        .map(|j| {
            let blocks: BTreeSet<Vec<u32>> = (start..start + len)
                .map(|r| dense.row(r)[j * d..(j + 1) * d].iter().map(|v| v.to_bits()).collect())
                .collect();
            blocks.len()
        })
        .sum()
}

/// What one predict call over `encoded` at `threads` threads reports at
/// `spans`: the report, the two block-phase counters, and the pack gauge.
/// Tracing stays on until [`untrace`].
fn traced_predict(
    m: &AdamelModel,
    encoded: &adamel_tensor::EncodedBlocks,
    threads: usize,
) -> (String, u64, u64, Option<u64>) {
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
    adamel_obs::report::reset();
    parallel::with_threads(threads, || m.predict_encoded(encoded));
    let json = adamel_obs::report::render_json();
    let rows = adamel_obs::counter_value("block_phase.rows").unwrap_or(0);
    let distinct = adamel_obs::counter_value("block_phase.distinct_rows").unwrap_or(0);
    let packed = adamel_obs::mem::current("tensor.params.packed.bytes");
    (json, rows, distinct, packed)
}

fn untrace() {
    adamel_obs::set_forced(None);
    adamel_obs::report::reset();
}

#[test]
fn block_counters_reach_the_report_with_distinct_at_most_rows() {
    let _level = exclusive_trace_level();
    let m = model();
    let encoded = m.encode(&pairs_n(640));
    let (json, rows, distinct, _) = traced_predict(&m, &encoded, 1);
    untrace();

    for name in ["block_phase.rows", "block_phase.distinct_rows"] {
        assert!(json.contains(&format!("\"{name}\"")), "missing counter {name} in {json}");
    }
    // On one thread each phase's chunks nest under it, with the forward's
    // own stages inside.
    for phase in ["block_phase", "pair_phase"] {
        for stage in ["attention_head", "classifier"] {
            let path = format!("\"predict/{phase}/{stage}\"");
            assert!(json.contains(&path), "missing span {path} in {json}");
        }
    }
    assert!(json.contains("\"predict/block_phase/feature_proj\""), "{json}");
    assert!(!json.contains("plan_replay") && !json.contains("\"plan."), "a plan name in {json}");
    let features = m.extractor().num_features() as u64;
    assert_eq!(rows, 640 * features, "one row per pair and feature");
    assert!(distinct > 0 && distinct <= rows, "distinct {distinct} vs rows {rows}");
    assert!(distinct < rows / 2, "these batches repeat most blocks: {distinct} of {rows}");

    // One count per call: no more than grouping each 128-pair chunk on its
    // own would find, and no fewer than the call's bit-distinct blocks.
    let dense = encoded.to_dense();
    let d = m.config().embed_dim;
    let per_chunk: usize = (0..640).step_by(128).map(|s| bit_distinct(&dense, d, s, 128)).sum();
    let whole = bit_distinct(&dense, d, 0, 640);
    assert!(distinct <= per_chunk as u64, "distinct {distinct} vs per-chunk sum {per_chunk}");
    assert!(distinct >= whole as u64, "distinct {distinct} vs bit-distinct {whole}");
}

#[test]
fn block_counters_and_pack_gauge_are_the_same_at_any_thread_count() {
    let _level = exclusive_trace_level();
    // Distinct names, so the name features' block tables are big enough
    // that the block phase packs their weights.
    let pairs: Vec<EntityPair> = (0..640)
        .map(|i| EntityPair::unlabeled(rec(0, i, &format!("n{i}"), "lima"), rec(1, i, "n", "")))
        .collect();
    let read = |threads: usize| {
        let m = model();
        let encoded = m.encode(&pairs);
        let (_, rows, distinct, packed) = traced_predict(&m, &encoded, threads);
        // The packs live as long as the model's parameters.
        drop(m);
        let after = adamel_obs::mem::current("tensor.params.packed.bytes");
        untrace();
        assert_eq!(after, Some(0), "packs outlived the model at {threads} threads");
        (rows, distinct, packed)
    };
    let one = read(1);
    assert!(one.2 > Some(0), "the model packed no weight: {one:?}");
    for threads in [1, 2] {
        assert_eq!(read(threads), one, "counters and pack gauge at {threads} threads");
    }
}
