//! At `full`, every tape op records one span and `backward` records a
//! coarse span. This test file runs in its own process, so forcing the
//! process-global trace level cannot reach other suites; within the file
//! the tests run on parallel threads, so each one holds [`TRACE_LEVEL`]
//! while it forces a level and reads the report.

use adamel_tensor::{Adam, Graph, Matrix, Optimizer, ParamSet};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests that force the process-global trace level.
static TRACE_LEVEL: Mutex<()> = Mutex::new(());

fn exclusive_trace_level() -> MutexGuard<'static, ()> {
    TRACE_LEVEL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn full_trace_covers_tape_ops_backward_and_optimizer() {
    let _level = exclusive_trace_level();
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Full));
    adamel_obs::report::reset();

    let mut params = ParamSet::new();
    let w = params.insert("w", Matrix::full(3, 3, 0.1));
    let mut g = Graph::new();
    let x = g.constant(Matrix::full(4, 3, 1.0));
    let wv = g.param(&params, w);
    let h = g.matmul(x, wv);
    let h = g.tanh(h);
    let s = g.softmax_rows(h);
    let loss = g.mean_all(s);
    g.backward(loss, &mut params);
    let mut opt = Adam::with_lr(0.01);
    opt.step(&mut params);

    let json = adamel_obs::report::render_json();
    for span in ["matmul", "tanh", "softmax_rows", "mean_all", "backward", "adam_step"] {
        assert!(json.contains(&format!("\"{span}\"")), "missing span {span} in {json}");
    }

    adamel_obs::set_forced(None);
    adamel_obs::report::reset();
}

#[test]
fn spans_level_skips_per_op_spans_but_keeps_coarse_ones() {
    let _level = exclusive_trace_level();
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
    adamel_obs::report::reset();

    let mut params = ParamSet::new();
    let w = params.insert("w", Matrix::full(2, 2, 0.1));
    let mut g = Graph::new();
    let x = g.constant(Matrix::full(2, 2, 1.0));
    let wv = g.param(&params, w);
    let h = g.matmul(x, wv);
    let loss = g.mean_all(h);
    g.backward(loss, &mut params);

    let json = adamel_obs::report::render_json();
    assert!(json.contains("\"backward\""), "coarse span missing: {json}");
    assert!(!json.contains("\"matmul\""), "per-op span leaked at spans level: {json}");

    adamel_obs::set_forced(None);
    adamel_obs::report::reset();
}
