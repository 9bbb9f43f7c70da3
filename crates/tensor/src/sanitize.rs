//! Opt-in runtime numerics sanitizer.
//!
//! AdaMEL's correctness rests on numeric invariants the type system cannot
//! express: every tape op must produce finite values, the feature-attention
//! softmax must emit valid distributions (paper Eq. 5–6), the `eps`-guarded
//! KL adaptation term must stay finite and non-negative (Eq. 9–10), and
//! gradients reaching the optimizer must be finite. This module checks those
//! invariants *at the op that violates them*, so a NaN is reported with the
//! name of the operation (and, for gradients, the parameter) that produced
//! it instead of surfacing fifty ops later as a garbage PRAUC.
//!
//! ## Enabling
//!
//! * `ADAMEL_SANITIZE=1` (or `true`/`on`) — on in any build;
//! * `ADAMEL_SANITIZE=0` (or `false`/`off`) — off in any build;
//! * unset — on under `debug_assertions`, off in release.
//!
//! The environment is read once; [`set_forced`] overrides it at runtime for
//! tests that pin either mode.
//!
//! ## Cost
//!
//! Every check is gated on [`enabled`], a relaxed atomic load plus a cached
//! bool — when the sanitizer is off the per-op cost is one predictable
//! branch, which is unmeasurable next to any tape op's own work. When on,
//! each op adds one pass over its output: 1.037× on single-thread batched
//! inference of 10,000 pairs when last measured (`BENCH_parallel.json` at
//! ca4484a).
//!
//! Violations abort via `panic!` with an `adamel-sanitize:` prefix. That is
//! a deliberate `no-panic` lint exception (see `lint.allow`): a NaN in the
//! tape means the training step is already lost, and the panic carries the
//! provenance the sanitizer exists to provide.

use crate::matrix::Matrix;
use crate::params::ParamSet;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Runtime override state: 0 = follow the environment, 1 = forced off,
/// 2 = forced on.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Forces the sanitizer on/off (`Some`) or back to the environment default
/// (`None`), overriding `ADAMEL_SANITIZE`. Process-global: intended for
/// isolated test binaries, not for toggling mid-training.
pub fn set_forced(on: Option<bool>) {
    let v = match on {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    FORCED.store(v, Ordering::Relaxed);
}

fn env_default() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("ADAMEL_SANITIZE") {
        Ok(v) => matches!(v.trim(), "1" | "true" | "on"),
        Err(_) => cfg!(debug_assertions),
    })
}

/// True when sanitizer checks run. See the module docs for the policy.
#[inline]
pub fn enabled() -> bool {
    match FORCED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => env_default(),
    }
}

#[cold]
#[inline(never)]
fn fail(msg: String) -> ! {
    panic!("adamel-sanitize: {msg}");
}

/// Asserts every element of `value` is finite, attributing a violation to
/// the graph op `op`. No-op when the sanitizer is off.
#[inline]
pub fn check_finite(op: &str, value: &Matrix) {
    if !enabled() {
        return;
    }
    for (idx, v) in value.as_slice().iter().enumerate() {
        if !v.is_finite() {
            let cols = value.cols().max(1);
            fail(format!(
                "op `{op}` produced non-finite value {v} at ({}, {}) of its {}x{} output",
                idx / cols,
                idx % cols,
                value.rows(),
                value.cols()
            ));
        }
    }
}

/// Asserts every row of `value` sums to ~1 (a valid distribution), as the
/// attention softmax must (Eq. 5–6). No-op when the sanitizer is off.
#[inline]
pub fn check_rows_normalized(op: &str, value: &Matrix) {
    if !enabled() {
        return;
    }
    for i in 0..value.rows() {
        let sum: f32 = value.row(i).iter().sum();
        if !(sum.is_finite() && (sum - 1.0).abs() <= ROW_SUM_TOL) {
            fail(format!(
                "op `{op}` row {i} sums to {sum}, not a distribution (|sum - 1| <= {ROW_SUM_TOL} \
                 required)"
            ));
        }
    }
}

/// Tolerance for [`check_rows_normalized`]: softmax rows of realistic width
/// (≤ a few thousand columns) sum to 1 within a few f32 ulps per term.
pub const ROW_SUM_TOL: f32 = 1e-3;

/// Asserts a scalar loss term is finite and ≥ `-tol`. KL divergence is
/// non-negative analytically; the `eps` log guard can push the computed
/// value a hair below zero, hence the tolerance. NaN and ±inf fail. No-op
/// when the sanitizer is off.
#[inline]
pub fn check_loss_non_negative(op: &str, value: f32, tol: f32) {
    if !enabled() {
        return;
    }
    if !value.is_finite() || value < -tol {
        fail(format!("op `{op}` produced loss {value}, expected finite and >= -{tol}"));
    }
}

/// Asserts every accumulated gradient in `params` is finite before an
/// optimizer consumes it, attributing a violation to the parameter by name.
/// No-op when the sanitizer is off.
#[inline]
pub fn check_grads_finite(optimizer: &str, params: &ParamSet) {
    if !enabled() {
        return;
    }
    for id in params.ids() {
        if !params.grad(id).is_finite() {
            fail(format!(
                "optimizer `{optimizer}` received a non-finite gradient for parameter `{}`",
                params.name(id)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The panic-path tests live in `tests/sanitize.rs` (op provenance) and
    // `tests/sanitize_disabled.rs` (forced-off no-op), each its own process;
    // here only the pure predicates.

    #[test]
    fn row_sum_tolerance_accepts_real_softmax() {
        let m = Matrix::from_rows(&[vec![5.0, -3.0, 0.5], vec![-100.0, 0.0, 100.0]]).softmax_rows();
        if enabled() {
            check_rows_normalized("softmax_rows", &m);
        }
    }

    #[test]
    fn forced_state_round_trips() {
        // Only observes `enabled()` transitions that are unambiguous under
        // either environment default, and restores the default at the end.
        set_forced(Some(true));
        assert!(enabled());
        set_forced(Some(false));
        assert!(!enabled());
        set_forced(None);
    }
}
