//! At `full`, every tape op records one span and `backward` records a
//! coarse span. This test file runs in its own process, so forcing the
//! process-global trace level cannot reach other suites; within the file
//! the tests run on parallel threads, so each one holds [`TRACE_LEVEL`]
//! while it forces a level and reads the report.

use adamel_tensor::plan::{BufferPool, CompiledPlan, EncodedBlocks};
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

#[test]
fn pool_gauge_counts_the_capacity_a_smaller_replay_keeps() {
    let _level = exclusive_trace_level();
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
    adamel_obs::report::reset();

    // relu(x · w): the window phase keeps the `n x 8` relu rows for the
    // pair phase, which gathers them back to one row per pair.
    let mut params = ParamSet::new();
    let w = params.insert("w", Matrix::full(4, 8, 0.5));
    let mut g = Graph::new();
    let x = g.constant(Matrix::full(2, 4, 1.0));
    let wv = g.param(&params, w);
    let h = g.matmul(x, wv);
    let out = g.relu(h);
    let plan = CompiledPlan::compile(&g, &[x], &[out]).expect("compiles");

    let pool = BufferPool::new();
    let gauge = || {
        let name = "tensor.plan.pool.bytes";
        (adamel_obs::mem::current(name).unwrap_or(0), adamel_obs::mem::peak(name).unwrap_or(0))
    };
    let replay = |rows: usize| {
        let x = Matrix::from_vec(rows, 4, (0..rows * 4).map(|i| i as f32).collect());
        let input = EncodedBlocks::from_dense(&x, 4);
        let mut call = pool.checkout();
        plan.execute_windows(&params, &input, &pool, 0, &mut call);
        let mut bufs = pool.checkout();
        plan.execute_rows(&params, &input, &call, 0, rows, &mut bufs);
        pool.put_back(bufs);
        pool.put_back(call);
    };
    replay(512);
    let after_512 = gauge();
    // The kept relu rows, 512 * 8 floats, as large as the pair phase's
    // gathered rows; the row ids are the input's own.
    assert_eq!(after_512, (512 * 8 * 4, 512 * 8 * 4), "one call's window-phase need");
    // A smaller replay needs less; the gauge keeps the largest need.
    replay(128);
    assert_eq!(gauge(), after_512, "the largest replay's need, not the latest");
    // Which arena serves which task does not move it.
    adamel_tensor::parallel::with_threads(2, || replay(512));
    assert_eq!(gauge(), after_512, "thread count moved the gauge");
    drop(pool);
    assert_eq!(gauge(), (0, after_512.1), "a dropped pool leaves the gauge");

    adamel_obs::set_forced(None);
    adamel_obs::report::reset();
}
