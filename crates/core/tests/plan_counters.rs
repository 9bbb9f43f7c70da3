//! The compiled plan's counters and pool gauge. At `spans`, every predict
//! call adds its window rows to `plan.window_rows` and their distinct rows
//! to `plan.window_distinct_rows`, and `tensor.plan.pool.bytes` reports
//! the largest replay need. This file runs in its own process, so forcing
//! the process-global trace level reaches no other suite; its tests hold
//! [`TRACE_LEVEL`] while they force it.

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
/// cities (one empty), so each feature window repeats most of its rows.
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

#[test]
fn window_counters_reach_the_report_with_distinct_at_most_rows() {
    let _level = exclusive_trace_level();
    let m = model();
    let encoded = m.encode(&pairs_n(640));
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
    adamel_obs::report::reset();
    m.predict_encoded(&encoded);
    let json = adamel_obs::report::render_json();
    let rows = adamel_obs::counter_value("plan.window_rows");
    let distinct = adamel_obs::counter_value("plan.window_distinct_rows");
    adamel_obs::set_forced(None);
    adamel_obs::report::reset();

    for name in ["plan.window_rows", "plan.window_distinct_rows"] {
        assert!(json.contains(&format!("\"{name}\"")), "missing counter {name} in {json}");
    }
    let (rows, distinct) = (rows.unwrap_or(0), distinct.unwrap_or(0));
    let windows = m.extractor().num_features() as u64;
    assert_eq!(rows, 640 * windows, "one row per pair and feature window");
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
fn pool_gauge_is_the_same_at_any_thread_count() {
    let _level = exclusive_trace_level();
    let gauge = |threads: usize| {
        let m = model();
        let encoded = m.encode(&pairs_n(640));
        adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
        adamel_obs::report::reset();
        parallel::with_threads(threads, || {
            m.predict_encoded(&encoded);
            m.predict_encoded(&encoded);
        });
        let name = "tensor.plan.pool.bytes";
        let read = (adamel_obs::mem::current(name), adamel_obs::mem::peak(name));
        adamel_obs::set_forced(None);
        adamel_obs::report::reset();
        read
    };
    let one = gauge(1);
    assert!(one.0 > Some(0), "the predict pool reported nothing: {one:?}");
    for threads in [1, 2] {
        assert_eq!(gauge(threads), one, "tensor.plan.pool.bytes at {threads} threads");
    }
}
