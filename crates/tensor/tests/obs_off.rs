//! With tracing off, the tape-op instrumentation must be inert: no spans
//! entered, nothing in the registry, results unchanged. This test file runs
//! in its own process, so forcing the process-global trace level is safe.

use adamel_tensor::{Graph, Matrix, ParamSet};

fn run_tape() -> f32 {
    let mut params = ParamSet::new();
    let w = params.insert("w", Matrix::full(4, 4, 0.5));
    let mut g = Graph::new();
    let x = g.constant(Matrix::full(8, 4, 1.0));
    let wv = g.param(&params, w);
    let h = g.matmul(x, wv);
    let h = g.relu(h);
    let h = g.softmax_rows(h);
    let loss = g.mean_all(h);
    g.backward(loss, &mut params);
    g.value(loss).item()
}

#[test]
fn trace_off_records_nothing_and_changes_nothing() {
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Off));
    adamel_obs::report::reset();

    let before = adamel_obs::spans_entered();
    let loss_off = run_tape();
    assert_eq!(adamel_obs::spans_entered(), before, "trace-off tape ops must not enter spans");
    let json = adamel_obs::report::render_json();
    assert!(json.contains("\"spans\": {}"), "registry picked up spans: {json}");
    assert!(json.contains("\"counters\": {}"), "registry picked up counters: {json}");
    // The memory ledger obeys the same off-means-off contract: the tape,
    // matmul packing arenas, and graph-drop observers add zero gauges.
    assert!(json.contains("\"gauges\": {}"), "registry picked up mem gauges: {json}");
    assert!(adamel_obs::mem::snapshot().is_empty(), "mem ledger populated while off");

    // Observation must never change numeric results: the same tape under
    // full tracing produces the bit-identical loss.
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Full));
    let loss_full = run_tape();
    assert_eq!(loss_off.to_bits(), loss_full.to_bits());
    // With tracing on, the graph-drop observer reports the tape footprint
    // as the gauge's peak, and the dropped tape holds no bytes afterwards.
    assert!(
        adamel_obs::mem::peak("tensor.graph.bytes").unwrap_or(0) > 0,
        "tensor.graph.bytes gauge missing under full tracing"
    );
    assert_eq!(
        adamel_obs::mem::current("tensor.graph.bytes"),
        Some(0),
        "a dropped tape still counts toward tensor.graph.bytes"
    );

    adamel_obs::set_forced(None);
    adamel_obs::report::reset();
}
