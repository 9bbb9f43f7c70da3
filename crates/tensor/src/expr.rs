//! The computed ops of the forward program and its losses, defined once.
//!
//! An [`Expr`] is one computed op over operand handles `V`. Two users
//! share it, each with its own handle:
//!
//! * the autograd tape records an `Expr<Var>` over tape positions
//!   ([`Graph::record`]) and evaluates it with [`Expr::forward_into`];
//!   training and inference both run on the tape;
//! * the differential fuzzer (`adamel-oracle`) writes its programs as
//!   `Expr<usize>` over instruction indices and holds an `f64` reference
//!   for every variant.
//!
//! `forward_into` is the only place a computed op meets its kernel and the
//! sanitizer's op checks. A new op needs its variant here, its kernel in
//! `forward_into`, its backward arm in [`Graph::backward`], its arm in
//! [`Expr::row_group`], and, in the oracle, an `f64` reference, a forward
//! budget and a generator arm.
//!
//! [`Expr::row_group`] is the one row-locality rule: which ops compute each
//! output row from the same row of a grouped input alone. The tape
//! evaluates such an op once per distinct row of its group.
//!
//! [`Graph::record`]: crate::Graph::record
//! [`Graph::backward`]: crate::Graph::backward

use crate::matrix::Matrix;
use crate::params::LazyPack;
use crate::sanitize;

/// How an operand's rows relate to the rows of the op reading it, for
/// [`Expr::row_group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowOperand<G> {
    /// Row `i` is a function of row `i` of group `G`'s input alone.
    Grouped(G),
    /// A `Param`/`Const` leaf that every row reads whole.
    Broadcast,
    /// Any other value.
    Ungrouped,
}

/// One computed op, generic over its operand handle `V`.
///
/// Operands are visited in the order of [`operands`](Self::operands): the
/// fields in declaration order, a `Vec` of operands element by element.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<V> {
    /// `(n,k) x (k,m)` matrix product of the two operands.
    MatMul(V, V),
    /// Elementwise sum of equally shaped operands.
    Add(V, V),
    /// `(n,m) + (1,m)`: the second operand, a bias row, added to every row
    /// of the first.
    AddRowBroadcast(V, V),
    /// Elementwise product of equally shaped operands.
    Mul(V, V),
    /// `(n,m) * (n,1)`: row `i` of the first operand scaled by element `i`
    /// of the second, a column.
    MulColBroadcast(V, V),
    /// The operand times a constant factor.
    Scale(V, f32),
    /// Rectified linear unit, elementwise.
    Relu(V),
    /// Hyperbolic tangent, elementwise.
    Tanh(V),
    /// Logistic sigmoid, elementwise.
    Sigmoid(V),
    /// Softmax of each row.
    SoftmaxRows(V),
    /// Horizontal concatenation of operands with equal row counts, left to
    /// right.
    ConcatCols(Vec<V>),
    /// `Σ_j weights[:, j] ⊙ parts[j]`, the terms added in ascending `j`.
    WeightedSum {
        /// The `F` equally shaped parts (repeats allowed).
        parts: Vec<V>,
        /// The `n x F` weights, one column per part.
        weights: V,
    },
    /// Contiguous column window `[start, start+width)` of the input.
    SliceCols {
        /// The matrix the window is cut from.
        input: V,
        /// First column of the window.
        start: usize,
        /// Number of columns in the window.
        width: usize,
    },
    /// Mean over all elements, as a `1 x 1` matrix.
    MeanAll(V),
    /// Sum over all elements, as a `1 x 1` matrix.
    SumAll(V),
    /// Mean binary cross-entropy on logits vs. constant targets, with
    /// per-sample constant weights (`1 x 1`). Fused for numerical
    /// stability.
    WeightedBceWithLogits {
        /// The `n x 1` logit column.
        logits: V,
        /// The `n x 1` 0/1 labels.
        targets: Matrix,
        /// The `n x 1` per-sample weights.
        weights: Matrix,
    },
    /// Mean over rows of `KL(q || p_i)` (`1 x 1`) with a constant row
    /// distribution `q` and `p` the (already normalized) rows of the input.
    KlConstRows {
        /// The `n x m` rows `p_i`, each a distribution (softmax outputs).
        probs: V,
        /// The `1 x m` distribution `q`.
        target: Matrix,
        /// Guard added to each `p_ij` inside the logarithm.
        eps: f32,
    },
}

impl<V: Copy> Expr<V> {
    /// Stable op name for sanitizer provenance, op spans and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Expr::MatMul(..) => "matmul",
            Expr::Add(..) => "add",
            Expr::AddRowBroadcast(..) => "add_row_broadcast",
            Expr::Mul(..) => "mul",
            Expr::MulColBroadcast(..) => "mul_col_broadcast",
            Expr::Scale(..) => "scale",
            Expr::Relu(_) => "relu",
            Expr::Tanh(_) => "tanh",
            Expr::Sigmoid(_) => "sigmoid",
            Expr::SoftmaxRows(_) => "softmax_rows",
            Expr::ConcatCols(_) => "concat_cols",
            Expr::WeightedSum { .. } => "weighted_sum",
            Expr::SliceCols { .. } => "slice_cols",
            Expr::MeanAll(_) => "mean_all",
            Expr::SumAll(_) => "sum_all",
            Expr::WeightedBceWithLogits { .. } => "weighted_bce_with_logits",
            Expr::KlConstRows { .. } => "kl_const_rows",
        }
    }

    /// The group this op is a row-local function of, given how each
    /// operand's rows relate to the groups (`layout`), or `None`.
    ///
    /// A product by, or a row-broadcast add of, a [`Broadcast`] operand is
    /// row-local in its left operand's group. `add`, `mul`,
    /// `mul_col_broadcast`, `concat_cols`, `scale`, `relu`, `tanh`,
    /// `sigmoid`, `softmax_rows` and `slice_cols` are row-local when every
    /// operand is in one group. `weighted_sum` (its parts may come from
    /// several groups), the reductions and the losses never are.
    ///
    /// [`Broadcast`]: RowOperand::Broadcast
    pub(crate) fn row_group<G: Copy + PartialEq>(
        &self,
        layout: impl Fn(V) -> RowOperand<G>,
    ) -> Option<G> {
        match self {
            Expr::MatMul(a, b) | Expr::AddRowBroadcast(a, b) => match (layout(*a), layout(*b)) {
                (RowOperand::Grouped(g), RowOperand::Broadcast) => Some(g),
                _ => None,
            },
            Expr::Add(..)
            | Expr::Mul(..)
            | Expr::MulColBroadcast(..)
            | Expr::ConcatCols(_)
            | Expr::Scale(..)
            | Expr::Relu(_)
            | Expr::Tanh(_)
            | Expr::Sigmoid(_)
            | Expr::SoftmaxRows(_)
            | Expr::SliceCols { .. } => {
                let mut groups = self.operands().into_iter().map(|v| match layout(v) {
                    RowOperand::Grouped(g) => Some(g),
                    _ => None,
                });
                let first = groups.next()??;
                groups.all(|g| g == Some(first)).then_some(first)
            }
            Expr::WeightedSum { .. }
            | Expr::MeanAll(_)
            | Expr::SumAll(_)
            | Expr::WeightedBceWithLogits { .. }
            | Expr::KlConstRows { .. } => None,
        }
    }

    /// The operands this op reads, in operand order.
    pub fn operands(&self) -> Vec<V> {
        let mut out = Vec::new();
        let _ = self.map(|v| out.push(v));
        out
    }

    /// The same op over other operand handles: `f` is called once per
    /// operand, in operand order (the order of [`operands`](Self::operands)).
    pub fn map<W>(&self, mut f: impl FnMut(V) -> W) -> Expr<W> {
        match self {
            Expr::MatMul(a, b) => Expr::MatMul(f(*a), f(*b)),
            Expr::Add(a, b) => Expr::Add(f(*a), f(*b)),
            Expr::AddRowBroadcast(a, b) => Expr::AddRowBroadcast(f(*a), f(*b)),
            Expr::Mul(a, b) => Expr::Mul(f(*a), f(*b)),
            Expr::MulColBroadcast(a, b) => Expr::MulColBroadcast(f(*a), f(*b)),
            Expr::Scale(a, s) => Expr::Scale(f(*a), *s),
            Expr::Relu(a) => Expr::Relu(f(*a)),
            Expr::Tanh(a) => Expr::Tanh(f(*a)),
            Expr::Sigmoid(a) => Expr::Sigmoid(f(*a)),
            Expr::SoftmaxRows(a) => Expr::SoftmaxRows(f(*a)),
            Expr::ConcatCols(parts) => Expr::ConcatCols(parts.iter().map(|&v| f(v)).collect()),
            Expr::WeightedSum { parts, weights } => Expr::WeightedSum {
                parts: parts.iter().map(|&v| f(v)).collect(),
                weights: f(*weights),
            },
            Expr::SliceCols { input, start, width } => {
                Expr::SliceCols { input: f(*input), start: *start, width: *width }
            }
            Expr::MeanAll(a) => Expr::MeanAll(f(*a)),
            Expr::SumAll(a) => Expr::SumAll(f(*a)),
            Expr::WeightedBceWithLogits { logits, targets, weights } => {
                Expr::WeightedBceWithLogits {
                    logits: f(*logits),
                    targets: targets.clone(),
                    weights: weights.clone(),
                }
            }
            Expr::KlConstRows { probs, target, eps } => {
                Expr::KlConstRows { probs: f(*probs), target: target.clone(), eps: *eps }
            }
        }
    }

    /// Computes the op into `out` (reshaped to fit), reading each operand's
    /// value through `val`, then runs the sanitizer's checks on the result:
    /// every output finite, a softmax output a row distribution (Eq. 5–6),
    /// and the KL term non-negative (Eq. 9–10). A product whose right
    /// operand is a parameter (`pack` gives its cached panels) reads the
    /// panels instead of packing it.
    pub(crate) fn forward_into<'a>(
        &self,
        val: impl Fn(V) -> &'a Matrix,
        pack: impl Fn(V) -> Option<&'a LazyPack>,
        out: &mut Matrix,
    ) {
        match self {
            Expr::MatMul(a, b) => match pack(*b) {
                Some(panels) => val(*a).matmul_packed_into(val(*b), panels, out),
                None => val(*a).matmul_into(val(*b), out),
            },
            Expr::Add(a, b) => val(*a).add_into(val(*b), out),
            Expr::AddRowBroadcast(a, b) => val(*a).add_row_broadcast_into(val(*b), out),
            Expr::Mul(a, b) => val(*a).mul_into(val(*b), out),
            Expr::MulColBroadcast(a, b) => val(*a).mul_col_broadcast_into(val(*b), out),
            Expr::Scale(a, s) => val(*a).scale_into(*s, out),
            Expr::Relu(a) => val(*a).map_into(|v| v.max(0.0), out),
            Expr::Tanh(a) => val(*a).map_into(f32::tanh, out),
            Expr::Sigmoid(a) => val(*a).map_into(|v| 1.0 / (1.0 + (-v).exp()), out),
            Expr::SoftmaxRows(a) => val(*a).softmax_rows_into(out),
            Expr::ConcatCols(parts) => {
                let refs: Vec<&Matrix> = parts.iter().map(|&v| val(v)).collect();
                Matrix::concat_cols_into(&refs, out);
            }
            Expr::WeightedSum { parts, weights } => {
                let refs: Vec<&Matrix> = parts.iter().map(|&v| val(v)).collect();
                Matrix::weighted_sum_into(&refs, val(*weights), out);
            }
            Expr::SliceCols { input, start, width } => {
                val(*input).slice_cols_into(*start, *width, out)
            }
            Expr::MeanAll(a) => set_scalar(out, val(*a).mean()),
            Expr::SumAll(a) => set_scalar(out, val(*a).sum()),
            Expr::WeightedBceWithLogits { logits, targets, weights } => {
                // `mean_i w_i * bce(sigmoid(z_i), y_i)` computed as
                // `w * (max(z,0) - z*y + ln(1 + e^{-|z|}))`.
                let z = val(*logits);
                assert_eq!(z.cols(), 1, "bce_with_logits expects n x 1 logits");
                assert_eq!(z.shape(), targets.shape(), "bce targets shape mismatch");
                assert_eq!(z.shape(), weights.shape(), "bce weights shape mismatch");
                let n = z.rows().max(1) as f32;
                let mut total = 0.0;
                for i in 0..z.rows() {
                    let zi = z.get(i, 0);
                    let yi = targets.get(i, 0);
                    let wi = weights.get(i, 0);
                    total += wi * (zi.max(0.0) - zi * yi + (-zi.abs()).exp().ln_1p());
                }
                set_scalar(out, total / n);
            }
            Expr::KlConstRows { probs, target, eps } => {
                let p = val(*probs);
                assert_eq!(target.rows(), 1, "kl_const_rows expects a 1 x m target");
                assert_eq!(p.cols(), target.cols(), "kl_const_rows shape mismatch");
                let n = p.rows().max(1) as f32;
                let mut total = 0.0;
                for i in 0..p.rows() {
                    for j in 0..p.cols() {
                        let q = target.get(0, j);
                        if q > 0.0 {
                            total += q * ((q / (p.get(i, j) + *eps)).ln());
                        }
                    }
                }
                // KL is analytically non-negative; the eps guard can dip the
                // computed mean a hair below zero but never materially.
                sanitize::check_loss_non_negative(self.name(), total / n, 1e-3);
                set_scalar(out, total / n);
            }
        }
        // Self-gated: one atomic load when the sanitizer is off.
        sanitize::check_finite(self.name(), out);
        if let Expr::SoftmaxRows(_) = self {
            sanitize::check_rows_normalized(self.name(), out);
        }
    }
}

/// Reshapes `out` to `1 x 1` holding `value`.
fn set_scalar(out: &mut Matrix, value: f32) {
    out.reset_shape(1, 1);
    out.as_mut_slice().fill(value);
}
