//! ULP distances and per-op acceptance budgets.
//!
//! The differential harness compares a production `f32` value against the
//! `f64` oracle's result rounded to the nearest `f32`. The comparison accepts
//! when **either**
//!
//! * the two `f32` values are within the op's ULP budget, or
//! * the absolute difference is within the op's rounding-error bound, which
//!   for reductions is proportional to the sum of absolute addends
//!   (`k·ε₃₂·Σ|terms|`) — the standard forward-error bound that stays valid
//!   under catastrophic cancellation, where a pure ULP budget on the (tiny)
//!   result would reject legitimate `f32` arithmetic.
//!
//! Budgets are deliberately tight (see the table in DESIGN.md §10): the
//! elementwise ops must be *exactly* rounded, so their budget is 0 ULP.

/// `f32` machine epsilon as `f64` (2⁻²³), the unit of rounding-error bounds.
pub const EPS32: f64 = 1.1920928955078125e-7;

/// Maps a float onto a monotone integer line so that adjacent representable
/// floats differ by exactly 1 (standard ordered-bits trick).
fn monotone(x: f32) -> i64 {
    let b = i64::from(x.to_bits() as i32);
    if b < 0 {
        // Negative floats: bigger magnitude means bigger signed bits, so
        // reflect them below zero. Both zeros land on 0.
        i64::from(i32::MIN) - b
    } else {
        b
    }
}

/// Number of representable `f32` values between `a` and `b` (0 when equal;
/// `u64::MAX` when either is NaN or they differ in finiteness).
pub fn ulp_distance(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() || a.is_finite() != b.is_finite() {
        return u64::MAX;
    }
    if a == b {
        // Covers +0.0 / -0.0, which are 0 ULP apart by convention.
        return 0;
    }
    monotone(a).abs_diff(monotone(b))
}

/// Acceptance budget for one comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Maximum ULP distance between the production value and the rounded
    /// oracle value.
    pub ulps: u64,
    /// Absolute-error fallback: accept when `|prod − oracle| ≤ abs`. Encodes
    /// the `k·ε₃₂·scale` rounding bound of reductions; 0.0 for elementwise
    /// ops, which must round exactly.
    pub abs: f64,
}

impl Budget {
    /// A budget with no absolute-error fallback.
    pub fn ulps(ulps: u64) -> Self {
        Self { ulps, abs: 0.0 }
    }

    /// True when `prod` is an acceptable `f32` realization of `oracle`.
    pub fn accepts(&self, prod: f32, oracle: f64) -> bool {
        if prod.is_nan() || !oracle.is_finite() {
            return false;
        }
        ulp_distance(prod, oracle as f32) <= self.ulps
            || (f64::from(prod) - oracle).abs() <= self.abs
    }
}

/// The per-op ULP budget table (`reduce_len` is the length of the op's inner
/// reduction: `k` for matmul, the part count `F` for weighted_sum, the column
/// count for softmax, the element count for global reductions; 0 for
/// elementwise ops).
///
/// | op | budget | why |
/// |----|--------|-----|
/// | add, mul, scale, relu, broadcasts, concat, slice | 0 ULP | single correctly-rounded `f32` op |
/// | tanh, sigmoid | 8 ULP | libm `tanh`/`exp` are faithful, not correctly rounded |
/// | softmax row of m | 8 + 2m ULP | exp per element + m-term sum + divide |
/// | matmul k | 2k + 4 + 2·⌈k/KC⌉ ULP | k-term dot + one join per KC panel |
/// | weighted_sum of F parts | 2F + 4 ULP | F-term dot per element |
/// | sum/mean over n | 2n + 4 ULP | n-term `f32` accumulation |
/// | bce / kl over n | 4n + 32 ULP | exp/ln per term plus the n-term sum |
///
/// Reductions additionally get the absolute bound through
/// [`reduction_budget`]; this function alone is the pure ULP part.
pub fn op_ulps(op: &str, reduce_len: usize) -> u64 {
    let n = reduce_len as u64;
    match op {
        "constant" | "param" | "leaf" => 0,
        "add" | "mul" | "scale" | "relu" | "add_row_broadcast" | "mul_col_broadcast"
        | "concat_cols" | "slice_cols" => 0,
        "tanh" | "sigmoid" => 8,
        "softmax_rows" => 8 + 2 * n,
        // The blocked GEMM kernels accumulate each output element in strictly
        // ascending-k order and are today *bit-identical* to the historical
        // naive loops, so a plain `2k + 4` dot-product bound still holds
        // empirically. The extra `2·⌈k/KC⌉` term is a deliberate widening
        // that licenses per-KC-panel reassociation (partial sums joined once
        // per panel) — the documented direction for future SIMD/FMA kernels
        // (DESIGN.md §15) — without requiring another budget change.
        "matmul" | "matmul_tn" | "matmul_nt" => {
            2 * n + 4 + 2 * (reduce_len.div_ceil(adamel_tensor::gemm::KC) as u64)
        }
        "weighted_sum" | "sum_all" | "mean_all" => 2 * n + 4,
        "weighted_bce_with_logits" | "kl_const_rows" => 4 * n + 32,
        // Unknown op names get the strictest budget: a typo at a call site
        // then fails the diff loudly instead of silently loosening it.
        _ => 0,
    }
}

/// Budget for a `reduce_len`-term reduction whose absolute addends sum to
/// `abs_scale`: the ULP part from [`op_ulps`] plus the forward-error bound
/// `(reduce_len + 4) · ε₃₂ · abs_scale`, which covers cancellation.
pub fn reduction_budget(op: &str, reduce_len: usize, abs_scale: f64) -> Budget {
    Budget { ulps: op_ulps(op, reduce_len), abs: (reduce_len as f64 + 4.0) * EPS32 * abs_scale }
}

/// Budget for a parameter gradient of a tape over grouped leaves against
/// the same tape over dense leaves, `rows` logical rows each: `2·rows + 4`
/// ULP, or the absolute bound `(rows + 4) · ε₃₂ · max(scale, 1)`. The
/// grouped tape sums each distinct row's per-pair gradients before a
/// backward rule runs, so every product toward a parameter adds its
/// `rows` terms in another order. `scale` is the largest finite gradient
/// magnitude in the program, and the floor of 1 (the root's own gradient)
/// covers gradients that cancel to nearly nothing. Over the 1,225 programs
/// of fuzz seeds 20240805, 7, 99, 20260808, 11 and 5 (the last three in
/// the blocked profile) the largest gap outside the ULP part was 6.6% of
/// the absolute bound; a pair's row dropped from a segment sum, or added
/// into the wrong distinct row, exceeds it (`broken_segment_sums_are_caught`).
pub fn grouped_gradient_budget(rows: usize, scale: f64) -> Budget {
    let abs = (rows as f64 + 4.0) * EPS32 * scale.max(1.0);
    Budget { ulps: 2 * rows as u64 + 4, abs }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_floats_are_one_ulp() {
        let a = 1.0f32;
        let b = f32::from_bits(a.to_bits() + 1);
        assert_eq!(ulp_distance(a, b), 1);
        assert_eq!(ulp_distance(b, a), 1);
    }

    #[test]
    fn distance_crosses_zero() {
        let a = f32::from_bits(1); // smallest positive subnormal
        let b = -f32::from_bits(1);
        assert_eq!(ulp_distance(a, b), 2);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
    }

    #[test]
    fn nan_and_infinity_are_infinitely_far() {
        assert_eq!(ulp_distance(f32::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_distance(f32::INFINITY, 1.0), u64::MAX);
    }

    #[test]
    fn budget_accepts_within_ulps() {
        let b = Budget::ulps(2);
        let x = 1.0f32;
        let y = f32::from_bits(x.to_bits() + 2);
        assert!(b.accepts(y, 1.0));
        let z = f32::from_bits(x.to_bits() + 3);
        assert!(!b.accepts(z, 1.0));
    }

    #[test]
    fn absolute_fallback_covers_cancellation() {
        // Result near zero but bound scaled to the addends.
        let b = reduction_budget("sum_all", 4, 1.0e4);
        assert!(b.accepts(1.0e-3, 0.0));
        assert!(!b.accepts(1.0, 0.0));
    }

    #[test]
    fn grouped_gradient_budget_scales_with_rows_and_gradients() {
        let b = grouped_gradient_budget(12, 0.5);
        assert_eq!(b.ulps, 28);
        assert_eq!(b.abs, 16.0 * EPS32, "a scale below 1 is floored at 1");
        assert_eq!(grouped_gradient_budget(12, 8.0).abs, 8.0 * b.abs);
    }

    #[test]
    fn exact_ops_have_zero_budget() {
        assert_eq!(op_ulps("add", 0), 0);
        // 2k + 4, plus 2 per KC panel (one panel at k = 3).
        assert_eq!(op_ulps("matmul", 3), 12);
        // Two panels once k crosses KC.
        let kc = adamel_tensor::gemm::KC;
        assert_eq!(op_ulps("matmul_tn", kc + 1), 2 * (kc as u64 + 1) + 4 + 4);
        // An F-term dot per element, F = 26 in the model's classifier.
        assert_eq!(op_ulps("weighted_sum", 26), 56);
    }
}
