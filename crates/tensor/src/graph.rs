//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Graph`] is a tape: every operation appends a node recording its
//! inputs, its output value, and enough context to compute vector-Jacobian
//! products on the way back. A fresh graph is built per training step (define
//! -by-run); parameters live outside the graph in a
//! [`ParamSet`](crate::params::ParamSet) and enter each step as leaves that
//! share the set's storage rather than copy it, which keeps the tape simple
//! and makes gradient accumulation explicit.
//!
//! A node is a constant, a parameter, or a computed op: an [`Expr`] over
//! earlier nodes. Each op method records its `Expr` ([`Graph::record`]),
//! which evaluates it through the op's one forward definition; this module
//! adds only the leaves and each op's backward rule. A parameter leaf
//! shares the set's cached GEMM panels as well as its value, so products by
//! one weight on any tape pack it once. No gradient flows into a constant,
//! so backward skips a product's gradient toward an operand no parameter
//! feeds.
//!
//! ## Grouped leaves
//!
//! A model's encoded batch enters a training tape as one constant leaf per
//! feature. Such a leaf is *grouped* ([`Graph::constant_grouped`]): it
//! holds the batch's distinct rows and, per logical row, which of them it
//! is. An op that [`Expr::row_group`] finds row-local in one group (a
//! product by a parameter, `tanh`, ...) is evaluated once per distinct row
//! and tagged with the group. Every kernel computes a row from that row
//! alone, so the distinct rows are bit for bit the rows a per-pair
//! evaluation computes.
//!
//! A forward op that is not row-local reads per-pair rows: [`Graph::value`]
//! expands a grouped node to one row per logical row on its first read.
//! Outputs and losses are therefore the bits an ungrouped tape computes.
//!
//! Backward keeps a grouped node's gradient at its distinct rows too, and
//! runs the node's backward rule there, over its operands' distinct rows.
//! Every such rule is linear in the gradient with coefficients that depend
//! on the row alone, so a distinct row's gradient is the sum of its logical
//! rows' gradients. Where an op that is not row-local hands a gradient to a
//! grouped operand, backward sums logical row `p` into distinct row
//! `rows[p]`, serially and in ascending `p`, so the result does not depend
//! on the thread count. Parameter gradients then sum their terms in another
//! order than an ungrouped tape does: they agree with it up to rounding, not
//! bit for bit. The `tensor.graph.bytes` gauge counts what a tape owns:
//! each node's rows, distinct or not, plus the expansions it made.

use crate::expr::{Expr, RowOperand};
use crate::matrix::Matrix;
use crate::params::{LazyPack, ParamId, ParamSet};
use crate::sanitize;
use std::sync::{Arc, OnceLock};

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// The recorded operation of a tape node.
enum Op {
    /// Constant input; no gradient flows further.
    Constant,
    /// Leaf bound to a trainable parameter, with the panels of the value it
    /// read; backward accumulates into the parameter's gradient buffer.
    Param(ParamId, Arc<LazyPack>),
    /// A computed op over earlier nodes.
    Expr(Expr<Var>),
}

struct Node {
    /// The value: one row per logical row, or, with a `group`, one row per
    /// distinct row of that group. A parameter's is the set's own storage.
    rows: Arc<Matrix>,
    /// The grouped leaf this node is a row-local function of, if any.
    group: Option<usize>,
    /// A grouped node's rows at one row per logical row, built on first
    /// read.
    expanded: OnceLock<Matrix>,
    op: Op,
}

impl Node {
    /// Column count of the value.
    fn cols(&self) -> usize {
        self.rows.cols()
    }
}

/// A define-by-run autograd tape.
pub struct Graph {
    nodes: Vec<Node>,
    /// Per grouped leaf, the distinct row of each logical row.
    groups: Vec<Vec<usize>>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        // Observe-at-death: nodes only ever append, and expansions only
        // ever appear, so a tape's footprint peaks exactly when it drops.
        // The footprint raises the gauge's peak, and `current` returns to 0
        // because the tape's bytes are freed right here. Observing at drop
        // keeps the per-op hot path untouched; when tracing is off this is
        // a single relaxed atomic load. Parameter leaves are the set's
        // storage, not the tape's.
        if adamel_obs::enabled() {
            let bytes: usize = self
                .nodes
                .iter()
                .filter(|n| !matches!(n.op, Op::Param(..)))
                .map(|n| n.rows.len() + n.expanded.get().map_or(0, Matrix::len))
                .sum();
            adamel_obs::mem::observe("tensor.graph.bytes", 4 * bytes as u64);
            adamel_obs::mem::observe("tensor.graph.bytes", 0);
        }
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::with_capacity(64), groups: Vec::new() }
    }

    fn push(&mut self, rows: Arc<Matrix>, group: Option<usize>, op: Op) -> Var {
        self.nodes.push(Node { rows, group, expanded: OnceLock::new(), op });
        Var(self.nodes.len() - 1)
    }

    /// How node `v`'s rows relate to the groups, for [`Expr::row_group`].
    fn layout(&self, v: Var) -> RowOperand<usize> {
        let node = &self.nodes[v.0];
        match (node.group, &node.op) {
            (Some(group), _) => RowOperand::Grouped(group),
            (None, Op::Param(..) | Op::Constant) => RowOperand::Broadcast,
            (None, Op::Expr(_)) => RowOperand::Ungrouped,
        }
    }

    /// Evaluates `expr` over the values recorded so far and appends it; each
    /// named op method below is this call with its own [`Expr`]. The kernel
    /// and the sanitizer's op checks run as the op is recorded. An op
    /// row-local in one group runs over the group's distinct rows (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// When an operand is not a node of this tape, or the operands' shapes
    /// do not fit the op.
    pub fn record(&mut self, expr: Expr<Var>) -> Var {
        adamel_obs::trace_op!(expr.name());
        let group = expr.row_group(|v| self.layout(v));
        let pack = |v: Var| match &self.nodes[v.0].op {
            Op::Param(_, pack) => Some(&**pack),
            _ => None,
        };
        let mut value = Matrix::default();
        match group {
            // Grouped operands at their distinct rows, leaves whole.
            Some(_) => expr.forward_into(|v| &self.nodes[v.0].rows, pack, &mut value),
            None => expr.forward_into(|v| self.value(v), pack, &mut value),
        }
        self.push(Arc::new(value), group, Op::Expr(expr))
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node, one row per logical row: a grouped
    /// node is expanded on its first read.
    pub fn value(&self, v: Var) -> &Matrix {
        let node = &self.nodes[v.0];
        match node.group {
            None => &node.rows,
            Some(group) => node.expanded.get_or_init(|| node.rows.select_rows(&self.groups[group])),
        }
    }

    /// Inserts a constant (no gradient) input.
    pub fn constant(&mut self, value: Matrix) -> Var {
        // Leaves pass the same finiteness check as computed nodes.
        sanitize::check_finite("constant", &value);
        self.push(Arc::new(value), None, Op::Constant)
    }

    /// Inserts a grouped constant input: logical row `i` is row `rows[i]`
    /// of `distinct`. Row-local ops over it run once per distinct row (see
    /// the module docs); [`value`](Self::value) reads it at one row per
    /// logical row.
    ///
    /// # Panics
    ///
    /// If an entry of `rows` is past `distinct`.
    pub fn constant_grouped(&mut self, distinct: Matrix, rows: Vec<usize>) -> Var {
        assert!(
            rows.iter().all(|&r| r < distinct.rows()),
            "Graph::constant_grouped: a row index is past the {} distinct rows",
            distinct.rows()
        );
        sanitize::check_finite("constant", &distinct);
        self.groups.push(rows);
        self.push(Arc::new(distinct), Some(self.groups.len() - 1), Op::Constant)
    }

    /// Inserts a leaf bound to parameter `id`. The leaf shares the set's
    /// storage of the current value and its cached panels; a write to the
    /// set while the tape is alive copies the value first and starts new
    /// panels, so the tape keeps what it read.
    pub fn param(&mut self, params: &ParamSet, id: ParamId) -> Var {
        let (value, pack) = params.shared(id);
        sanitize::check_finite("param", &value);
        self.push(value, None, Op::Param(id, pack))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.record(Expr::MatMul(a, b))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.record(Expr::Add(a, b))
    }

    /// Adds a `1 x m` bias row to every row of an `n x m` node.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        self.record(Expr::AddRowBroadcast(a, bias))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.record(Expr::Mul(a, b))
    }

    /// Scales row `i` of `a` by element `i` of the `n x 1` node `col`.
    pub fn mul_col_broadcast(&mut self, a: Var, col: Var) -> Var {
        self.record(Expr::MulColBroadcast(a, col))
    }

    /// Multiplies by a compile-time constant scalar.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        self.record(Expr::Scale(a, s))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.record(Expr::Relu(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.record(Expr::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.record(Expr::Sigmoid(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        self.record(Expr::SoftmaxRows(a))
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        self.record(Expr::ConcatCols(parts.to_vec()))
    }

    /// `Σ_j weights[:, j] ⊙ parts[j]`: every part is `n x m` and `weights`
    /// is `n x F` for `F` parts; the terms are added in ascending `j`
    /// ([`Matrix::weighted_sum_into`]).
    pub fn weighted_sum(&mut self, parts: &[Var], weights: Var) -> Var {
        self.record(Expr::WeightedSum { parts: parts.to_vec(), weights })
    }

    /// Copies a contiguous column window `[start, start+width)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, width: usize) -> Var {
        self.record(Expr::SliceCols { input: a, start, width })
    }

    /// Mean over all elements, producing a 1x1 node.
    pub fn mean_all(&mut self, a: Var) -> Var {
        self.record(Expr::MeanAll(a))
    }

    /// Sum over all elements, producing a 1x1 node.
    pub fn sum_all(&mut self, a: Var) -> Var {
        self.record(Expr::SumAll(a))
    }

    /// Mean binary cross-entropy with logits (numerically stable fused op).
    ///
    /// `logits` is `n x 1`; `targets` holds 0/1 labels and `weights`
    /// per-sample non-negative weights (both constants, `n x 1`). The loss is
    /// `mean_i w_i * bce(sigmoid(z_i), y_i)` computed as
    /// `w * (max(z,0) - z*y + ln(1 + e^{-|z|}))`.
    pub fn weighted_bce_with_logits(
        &mut self,
        logits: Var,
        targets: Matrix,
        weights: Matrix,
    ) -> Var {
        self.record(Expr::WeightedBceWithLogits { logits, targets, weights })
    }

    /// Mean binary cross-entropy with logits and unit weights.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Matrix) -> Var {
        let weights = Matrix::full(targets.rows(), targets.cols(), 1.0);
        self.weighted_bce_with_logits(logits, targets, weights)
    }

    /// Mean over rows of `KL(q || p_i) = Σ_j q_j ln(q_j / p_ij)` where `q` is
    /// a constant `1 x m` distribution and the input rows `p_i` are already
    /// normalized (e.g. softmax outputs). `eps` guards the logarithm.
    pub fn kl_const_rows(&mut self, probs: Var, target: Matrix, eps: f32) -> Var {
        self.record(Expr::KlConstRows { probs, target, eps })
    }

    /// Convenience: `relu(x @ w + b)` with a `1 x out` bias row.
    pub fn linear_relu(&mut self, x: Var, w: Var, b: Var) -> Var {
        let z = self.matmul(x, w);
        let z = self.add_row_broadcast(z, b);
        self.relu(z)
    }

    /// Convenience: `x @ w + b`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let z = self.matmul(x, w);
        self.add_row_broadcast(z, b)
    }

    /// Runs reverse-mode differentiation from the scalar node `root`,
    /// accumulating parameter gradients into `params`.
    ///
    /// The tape is consumed conceptually (gradients of interior nodes are
    /// dropped afterwards); call once per constructed graph. A product's
    /// gradient toward an operand that no parameter feeds (an input leaf)
    /// is never read, so it is not computed. A grouped node's gradient and
    /// backward rule run at its distinct rows (see the module docs), so
    /// backward never expands a grouped node.
    pub fn backward(&self, root: Var, params: &mut ParamSet) {
        adamel_obs::trace_span!("backward");
        assert_eq!(
            (self.logical_rows(root), self.nodes[root.0].cols()),
            (1, 1),
            "backward requires a scalar (1x1) root"
        );
        let mut grads: Vec<Option<Matrix>> = (0..self.nodes.len()).map(|_| None).collect();
        self.accumulate(&mut grads, false, root, Matrix::scalar(1.0));
        // Whether a parameter is among each node's ancestors (or is it).
        let mut trainable = vec![false; root.0 + 1];
        for (i, node) in self.nodes[..=root.0].iter().enumerate() {
            trainable[i] = match &node.op {
                Op::Constant => false,
                Op::Param(..) => true,
                Op::Expr(expr) => expr.operands().iter().any(|v| trainable[v.0]),
            };
        }

        for idx in (0..=root.0).rev() {
            let Some(grad) = grads[idx].take() else { continue };
            let node = &self.nodes[idx];
            let expr = match &node.op {
                Op::Constant => continue,
                Op::Param(id, _) => {
                    params.grad_mut(*id).add_assign(&grad);
                    continue;
                }
                Op::Expr(expr) => expr,
            };
            adamel_obs::trace_op!(expr.name());
            // A grouped node's gradient, and the operand values its rule
            // reads, are at the group's distinct rows; any other node's are
            // per pair.
            let grouped = node.group.is_some();
            let val = |v: Var| if grouped { &*self.nodes[v.0].rows } else { self.value(v) };
            let mut acc = |v: Var, g: Matrix| self.accumulate(&mut grads, grouped, v, g);
            match expr {
                Expr::MatMul(a, b) => {
                    // dL/dA = G Bᵀ ; dL/dB = Aᵀ G
                    if trainable[a.0] {
                        acc(*a, grad.matmul_nt(val(*b)));
                    }
                    if trainable[b.0] {
                        acc(*b, val(*a).matmul_tn(&grad));
                    }
                }
                Expr::Add(a, b) => {
                    acc(*a, grad.clone());
                    acc(*b, grad);
                }
                Expr::AddRowBroadcast(a, bias) => {
                    // Bias gradient is the column sum of the upstream grad.
                    let gb = grad.sum_rows();
                    acc(*a, grad);
                    acc(*bias, gb);
                }
                Expr::Mul(a, b) => {
                    let ga = grad.mul(val(*b));
                    let gb = grad.mul(val(*a));
                    acc(*a, ga);
                    acc(*b, gb);
                }
                Expr::MulColBroadcast(a, col) => {
                    let ga = grad.mul_col_broadcast(val(*col));
                    // d/dcol_i = Σ_j grad_ij * a_ij
                    let gc = grad.mul(val(*a)).sum_cols();
                    acc(*a, ga);
                    acc(*col, gc);
                }
                Expr::Scale(a, s) => acc(*a, grad.scale(*s)),
                Expr::Relu(a) => {
                    let mask = val(*a).map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                    acc(*a, grad.mul(&mask));
                }
                Expr::Tanh(a) => {
                    let deriv = val(Var(idx)).map(|t| 1.0 - t * t);
                    acc(*a, grad.mul(&deriv));
                }
                Expr::Sigmoid(a) => {
                    let deriv = val(Var(idx)).map(|s| s * (1.0 - s));
                    acc(*a, grad.mul(&deriv));
                }
                Expr::SoftmaxRows(a) => {
                    // dL/dz_ij = p_ij * (g_ij - Σ_k g_ik p_ik)
                    let p = val(Var(idx));
                    let mut gz = Matrix::zeros(p.rows(), p.cols());
                    for i in 0..p.rows() {
                        let dot: f32 = grad.row(i).iter().zip(p.row(i)).map(|(g, pi)| g * pi).sum();
                        for j in 0..p.cols() {
                            gz.set(i, j, p.get(i, j) * (grad.get(i, j) - dot));
                        }
                    }
                    acc(*a, gz);
                }
                Expr::SliceCols { input, start, width } => {
                    let v = val(*input);
                    let mut gi = Matrix::zeros(v.rows(), v.cols());
                    for i in 0..grad.rows() {
                        for j in 0..*width {
                            gi.set(i, start + j, grad.get(i, j));
                        }
                    }
                    acc(*input, gi);
                }
                Expr::ConcatCols(parts) => {
                    let mut offset = 0;
                    for part in parts {
                        let width = self.nodes[part.0].cols();
                        acc(*part, grad.slice_cols(offset, width));
                        offset += width;
                    }
                }
                Expr::WeightedSum { parts, weights } => {
                    // d/dparts[j] = weights[:, j] ⊙ G; d/dweights[i, j] = Σ_c G_ic parts[j]_ic
                    let w = val(*weights);
                    let mut gw_cols = Vec::with_capacity(parts.len());
                    for (j, part) in parts.iter().enumerate() {
                        gw_cols.push(grad.mul(val(*part)).sum_cols());
                        acc(*part, grad.mul_col_broadcast(&w.slice_cols(j, 1)));
                    }
                    let refs: Vec<&Matrix> = gw_cols.iter().collect();
                    acc(*weights, Matrix::concat_cols(&refs));
                }
                Expr::MeanAll(a) => {
                    let v = val(*a);
                    let g = grad.item() / v.len().max(1) as f32;
                    acc(*a, Matrix::full(v.rows(), v.cols(), g));
                }
                Expr::SumAll(a) => {
                    let v = val(*a);
                    acc(*a, Matrix::full(v.rows(), v.cols(), grad.item()));
                }
                Expr::WeightedBceWithLogits { logits, targets, weights } => {
                    // d/dz of mean_i w_i * bce = w_i (sigmoid(z_i) - y_i) / n
                    let z = val(*logits);
                    let n = z.rows().max(1) as f32;
                    let g = grad.item();
                    let mut gz = Matrix::zeros(z.rows(), 1);
                    for i in 0..z.rows() {
                        let s = 1.0 / (1.0 + (-z.get(i, 0)).exp());
                        gz.set(i, 0, g * weights.get(i, 0) * (s - targets.get(i, 0)) / n);
                    }
                    acc(*logits, gz);
                }
                Expr::KlConstRows { probs, target, eps } => {
                    // d/dp_ij of mean_i Σ_j q_j ln(q_j/(p_ij+eps)) = -q_j/(p_ij+eps)/n
                    let p = val(*probs);
                    let n = p.rows().max(1) as f32;
                    let g = grad.item();
                    let mut gp = Matrix::zeros(p.rows(), p.cols());
                    for i in 0..p.rows() {
                        for j in 0..p.cols() {
                            let q = target.get(0, j);
                            if q > 0.0 {
                                gp.set(i, j, -g * q / ((p.get(i, j) + eps) * n));
                            }
                        }
                    }
                    acc(*probs, gp);
                }
            }
        }
    }

    /// Rows of node `v`'s value, one per logical row.
    fn logical_rows(&self, v: Var) -> usize {
        let node = &self.nodes[v.0];
        node.group.map_or(node.rows.rows(), |group| self.groups[group].len())
    }

    /// Adds `grad`, the gradient a node hands its operand `var`, into
    /// `var`'s slot. A grouped node hands its grouped operands gradients at
    /// their distinct rows (`from_grouped`); any other node hands a grouped
    /// operand one row per logical row, which [`segment_sum`] folds into
    /// the distinct rows here.
    fn accumulate(&self, grads: &mut [Option<Matrix>], from_grouped: bool, var: Var, grad: Matrix) {
        let node = &self.nodes[var.0];
        let grad = match node.group {
            Some(group) if !from_grouped => {
                adamel_obs::trace_op!("segment_sum");
                segment_sum(&grad, &self.groups[group], node.rows.rows())
            }
            _ => grad,
        };
        match &mut grads[var.0] {
            Some(existing) => existing.add_assign(&grad),
            slot => *slot = Some(grad),
        }
    }
}

/// Sums row `p` of `grad` into row `rows[p]` of a `distinct x cols`
/// result, in ascending `p` on the calling thread: a grouped node's
/// gradient at its distinct rows, given the gradient at its logical rows.
fn segment_sum(grad: &Matrix, rows: &[usize], distinct: usize) -> Matrix {
    assert_eq!(grad.rows(), rows.len(), "segment_sum: one gradient row per logical row");
    let mut out = Matrix::zeros(distinct, grad.cols());
    #[cfg(feature = "mutation")]
    let fault = SEGMENT_FAULT.get();
    for (p, &d) in rows.iter().enumerate() {
        #[cfg(feature = "mutation")]
        let d = match fault {
            Some(SegmentFault::Drop(q)) if q == p => continue,
            Some(SegmentFault::Misroute(q)) if q == p => (d + 1) % distinct,
            _ => d,
        };
        for (o, &g) in out.row_mut(d).iter_mut().zip(grad.row(p)) {
            *o += g;
        }
    }
    out
}

/// A deliberately broken segment sum, so the checks that compare grouped
/// and per-pair gradients can show they catch one: what happens to one
/// logical row's gradient on its way into the distinct rows. Built only
/// with the `mutation` feature, which the workspace's test builds turn on.
#[cfg(feature = "mutation")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFault {
    /// Logical row `p`'s gradient is left out.
    Drop(usize),
    /// Logical row `p`'s gradient lands in the distinct row after its own
    /// (cyclically).
    Misroute(usize),
}

#[cfg(feature = "mutation")]
thread_local! {
    static SEGMENT_FAULT: std::cell::Cell<Option<SegmentFault>> = const { std::cell::Cell::new(None) };
}

#[cfg(feature = "mutation")]
impl Graph {
    /// Runs `f` with every segment sum on this thread broken by `fault`;
    /// the previous setting is restored on exit, including on panic.
    pub fn with_segment_fault<R>(fault: SegmentFault, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<SegmentFault>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SEGMENT_FAULT.set(self.0);
            }
        }
        let _restore = Restore(SEGMENT_FAULT.replace(Some(fault)));
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;

    fn approx(a: f32, b: f32, tol: f32) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn backward_through_matmul() {
        // L = sum(A @ B); dL/dA = 1 Bᵀ, dL/dB = Aᵀ 1
        let mut params = ParamSet::new();
        let a_id = params.insert("a", Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b_id = params.insert("b", Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]));
        let mut g = Graph::new();
        let a = g.param(&params, a_id);
        let b = g.param(&params, b_id);
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        g.backward(loss, &mut params);
        // dL/dA = ones(2,2) @ Bᵀ = [[11, 15], [11, 15]]
        assert_eq!(params.grad(a_id).as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        // dL/dB = Aᵀ @ ones = [[4, 4], [6, 6]]
        assert_eq!(params.grad(b_id).as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn backward_through_softmax_is_zero_for_uniform_upstream() {
        // Σ_j softmax_j is constant 1, so d(sum softmax)/dz = 0.
        let mut params = ParamSet::new();
        let z_id = params.insert("z", Matrix::from_rows(&[vec![0.3, -1.2, 2.0]]));
        let mut g = Graph::new();
        let z = g.param(&params, z_id);
        let p = g.softmax_rows(z);
        let loss = g.sum_all(p);
        g.backward(loss, &mut params);
        for &v in params.grad(z_id).as_slice() {
            assert!(approx(v, 0.0, 1e-6), "grad {v} should vanish");
        }
    }

    #[test]
    fn backward_through_weighted_sum() {
        // L = sum(w0·a + w1·b + w2·a): dL/da = w0 + w2, dL/db = w1 and
        // dL/dw = [Σa, Σb, Σa]; a part listed twice accumulates both terms.
        let mut params = ParamSet::new();
        let a_id = params.insert("a", Matrix::from_rows(&[vec![1.0, 2.0]]));
        let b_id = params.insert("b", Matrix::from_rows(&[vec![3.0, 4.0]]));
        let w_id = params.insert("w", Matrix::from_rows(&[vec![0.5, 2.0, -1.0]]));
        let mut g = Graph::new();
        let (a, b, w) = (g.param(&params, a_id), g.param(&params, b_id), g.param(&params, w_id));
        let s = g.weighted_sum(&[a, b, a], w);
        assert_eq!(g.value(s).as_slice(), &[5.5, 7.0]);
        let loss = g.sum_all(s);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(a_id).as_slice(), &[-0.5, -0.5]);
        assert_eq!(params.grad(b_id).as_slice(), &[2.0, 2.0]);
        assert_eq!(params.grad(w_id).as_slice(), &[3.0, 7.0, 3.0]);
    }

    #[test]
    fn bce_gradient_matches_sigmoid_minus_target() {
        let mut params = ParamSet::new();
        let z_id = params.insert("z", Matrix::from_vec(2, 1, vec![0.5, -1.0]));
        let mut g = Graph::new();
        let z = g.param(&params, z_id);
        let targets = Matrix::from_vec(2, 1, vec![1.0, 0.0]);
        let loss = g.bce_with_logits(z, targets);
        g.backward(loss, &mut params);
        let s0 = 1.0 / (1.0 + (-0.5f32).exp());
        let s1 = 1.0 / (1.0 + (1.0f32).exp());
        assert!(approx(params.grad(z_id).get(0, 0), (s0 - 1.0) / 2.0, 1e-6));
        assert!(approx(params.grad(z_id).get(1, 0), s1 / 2.0, 1e-6));
    }

    #[test]
    fn kl_is_zero_when_distributions_match() {
        let mut g = Graph::new();
        let p = g.constant(Matrix::from_rows(&[vec![0.25, 0.75], vec![0.25, 0.75]]));
        let q = Matrix::from_rows(&[vec![0.25, 0.75]]);
        let kl = g.kl_const_rows(p, q, 0.0);
        assert!(approx(g.value(kl).item(), 0.0, 1e-6));
    }

    #[test]
    fn kl_is_positive_when_distributions_differ() {
        let mut g = Graph::new();
        let p = g.constant(Matrix::from_rows(&[vec![0.9, 0.1]]));
        let q = Matrix::from_rows(&[vec![0.1, 0.9]]);
        let kl = g.kl_const_rows(p, q, 0.0);
        assert!(g.value(kl).item() > 0.5);
    }

    #[test]
    fn chained_linear_relu_shapes() {
        let mut params = ParamSet::new();
        let w_id = params.insert("w", Matrix::zeros(3, 4));
        let b_id = params.insert("b", Matrix::zeros(1, 4));
        let mut g = Graph::new();
        let x = g.constant(Matrix::full(5, 3, 1.0));
        let w = g.param(&params, w_id);
        let b = g.param(&params, b_id);
        let y = g.linear_relu(x, w, b);
        assert_eq!(g.value(y).shape(), (5, 4));
    }

    #[test]
    fn packed_weights_follow_every_kind_of_parameter_mutation() {
        // Big enough that `x · w` packs `w`, so the tape's product reads the
        // set's cached panels of it.
        use crate::gemm::{use_blocked_packing, NR, PACK_MIN_ROWS};
        let (n, k, m) = (PACK_MIN_ROWS + 1, 16, 2 * NR);
        assert!(use_blocked_packing(n, k, m));
        let grid = |rows: usize, cols: usize, seed: f32| {
            let data = (0..rows * cols).map(|i| ((i as f32 * 0.61 + seed).sin()) * 1.5);
            Matrix::from_vec(rows, cols, data.collect())
        };
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let x = grid(n, k, 0.7);
        let check = |params: &ParamSet, w: ParamId, label: &str| {
            let mut g = Graph::new();
            let (xv, wv) = (g.constant(x.clone()), g.param(params, w));
            let y = g.matmul(xv, wv);
            assert!(params.is_packed(w), "{label}: the product packed nothing");
            assert_eq!(bits(g.value(y)), bits(&x.matmul(params.value(w))), "{label}");
        };
        let mut params = ParamSet::new();
        let w = params.insert("w", grid(k, m, 0.3));
        check(&params, w, "fresh");
        params.value_mut(w).as_mut_slice()[0] += 1.0;
        check(&params, w, "value_mut");
        params.value_and_grad_mut(w).0.as_mut_slice()[m + 1] -= 2.0;
        check(&params, w, "value_and_grad_mut");
        let flipped: Vec<Matrix> = params.snapshot().iter().map(|v| v.scale(-0.5)).collect();
        params.restore(&flipped);
        check(&params, w, "restore");
        // Another set with the same shapes has panels of its own.
        let mut other = ParamSet::new();
        let w2 = other.insert("w", grid(k, m, 2.0));
        check(&other, w2, "other set");
        check(&params, w, "back to the first set");
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar_root() {
        let mut params = ParamSet::new();
        let mut g = Graph::new();
        let x = g.constant(Matrix::zeros(2, 2));
        g.backward(x, &mut params);
    }
}

#[cfg(test)]
mod shape_guard_tests {
    use super::*;
    use crate::params::ParamSet;

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let mut g = Graph::new();
        let a = g.constant(Matrix::zeros(2, 3));
        let b = g.constant(Matrix::zeros(2, 3));
        let _ = g.matmul(a, b);
    }

    #[test]
    #[should_panic(expected = "bce")]
    fn bce_rejects_wide_logits() {
        let mut g = Graph::new();
        let z = g.constant(Matrix::zeros(2, 2));
        let _ = g.bce_with_logits(z, Matrix::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "kl_const_rows")]
    fn kl_rejects_matrix_target() {
        let mut g = Graph::new();
        let p = g.constant(Matrix::zeros(2, 3));
        let _ = g.kl_const_rows(p, Matrix::zeros(2, 3), 1e-8);
    }

    #[test]
    fn second_backward_on_fresh_graph_is_consistent() {
        // Gradients accumulate across backward calls on the same ParamSet
        // unless zeroed — verify both behaviors.
        let mut params = ParamSet::new();
        let w = params.insert("w", Matrix::scalar(2.0));
        let run = |params: &mut ParamSet| {
            let mut g = Graph::new();
            let wv = g.param(params, w);
            let sq = g.mul(wv, wv);
            let loss = g.sum_all(sq);
            g.backward(loss, params);
        };
        run(&mut params);
        assert_eq!(params.grad(w).item(), 4.0);
        run(&mut params);
        assert_eq!(params.grad(w).item(), 8.0, "gradients must accumulate");
        params.zero_grads();
        run(&mut params);
        assert_eq!(params.grad(w).item(), 4.0);
    }

    #[test]
    fn a_constant_operand_leaves_the_product_gradient_unchanged() {
        // `x · w` with `x` a constant skips the gradient toward `x`; `w`
        // gets the same bits as when `x` is a parameter too.
        let x = Matrix::from_rows(&[vec![0.3, -1.7, 2.5], vec![1.1, 0.0, -0.6]]);
        let w = Matrix::from_rows(&[vec![0.5, -2.0], vec![1.25, 0.75], vec![-0.3, 0.9]]);
        let grad_of_w = |x_is_param: bool| {
            let mut params = ParamSet::new();
            let x_id = params.insert("x", x.clone());
            let w_id = params.insert("w", w.clone());
            let mut g = Graph::new();
            let xv = if x_is_param { g.param(&params, x_id) } else { g.constant(x.clone()) };
            let wv = g.param(&params, w_id);
            let y = g.matmul(xv, wv);
            let t = g.tanh(y);
            let loss = g.sum_all(t);
            g.backward(loss, &mut params);
            params.grad(w_id).as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(grad_of_w(false), grad_of_w(true));
    }

    #[test]
    fn a_parameter_leaf_shares_the_set_storage() {
        let mut params = ParamSet::new();
        let w = params.insert("w", Matrix::from_rows(&[vec![1.0, 2.0]]));
        let mut g = Graph::new();
        let v = g.param(&params, w);
        assert!(std::ptr::eq(g.value(v), params.value(w)), "the leaf is the set's storage");
        // A write while the tape is alive copies first: the tape keeps what
        // it read.
        params.value_mut(w).set(0, 0, 5.0);
        assert_eq!(g.value(v).as_slice(), &[1.0, 2.0]);
        drop(g);
        let before: *const Matrix = params.value(w);
        params.value_and_grad_mut(w).0.set(0, 1, 3.0);
        assert!(std::ptr::eq(before, params.value(w)), "no tape left, so no copy");
        assert_eq!(params.value(w).as_slice(), &[5.0, 3.0]);
    }

    #[test]
    fn grouped_ops_run_per_distinct_row_and_read_per_pair() {
        // Five logical rows over two distinct ones. `tanh(x · w + b)` is
        // row-local and stays at two rows; `x + c` with a per-pair
        // constant is not, and neither is anything reading it.
        let distinct = Matrix::from_rows(&[vec![0.5, -1.0], vec![-0.0, 2.0]]);
        let rows = vec![1, 0, 1, 1, 0];
        let dense = distinct.select_rows(&rows);
        let c = Matrix::from_vec(5, 2, (0..10).map(|i| i as f32 * 0.25).collect());
        let mut params = ParamSet::new();
        let w_id = params.insert("w", Matrix::from_rows(&[vec![1.5, -0.5], vec![0.25, 1.0]]));
        let b_id = params.insert("b", Matrix::from_rows(&[vec![0.1, -0.2]]));
        let run = |grouped: bool, params: &mut ParamSet| {
            let mut g = Graph::new();
            let x = if grouped {
                g.constant_grouped(distinct.clone(), rows.clone())
            } else {
                g.constant(dense.clone())
            };
            let (w, b) = (g.param(params, w_id), g.param(params, b_id));
            let h = g.linear(x, w, b);
            let t = g.tanh(h);
            let cv = g.constant(c.clone());
            let mixed = g.add(x, cv);
            let both = g.mul(t, mixed);
            let loss = g.sum_all(both);
            let stored: Vec<usize> = g.nodes.iter().map(|n| n.rows.rows()).collect();
            params.zero_grads();
            g.backward(loss, params);
            let expanded: Vec<bool> = g.nodes.iter().map(|n| n.expanded.get().is_some()).collect();
            let values: Vec<Vec<u32>> = [x, h, t, mixed, both, loss]
                .iter()
                .map(|&v| g.value(v).as_slice().iter().map(|x| x.to_bits()).collect())
                .collect();
            let grads: Vec<Matrix> =
                [w_id, b_id].iter().map(|&id| params.grad(id).clone()).collect();
            (stored, expanded, values, grads)
        };
        let (stored, expanded, values, grads) = run(true, &mut params);
        // x, w, b, x·w, +b, tanh, c, x + c, t ⊙ (x + c), sum.
        assert_eq!(stored, vec![2, 2, 1, 2, 2, 2, 5, 5, 5, 1]);
        // Only the forward's per-pair reads expanded a node: `x + c` read
        // `x` and `t ⊙ (x + c)` read `t`; backward expanded nothing.
        let reads = vec![true, false, false, false, false, true, false, false, false, false];
        assert_eq!(expanded, reads);
        let (_, _, dense_values, dense_grads) = run(false, &mut params);
        assert_eq!(values, dense_values);
        // The gradients sum the same terms in another order: within the
        // grouped budget of DESIGN §10, `(rows + 4) · ε · max(scale, 1)`.
        for (got, want) in grads.iter().zip(&dense_grads) {
            let scale = want.as_slice().iter().fold(1.0f32, |acc, v| acc.max(v.abs()));
            let budget = (rows.len() as f32 + 4.0) * f32::EPSILON * scale;
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((a - b).abs() <= budget, "{a} vs {b}, budget {budget}");
            }
        }
    }

    #[test]
    fn backward_sums_a_grouped_gradient_into_distinct_rows_in_pair_order() {
        // `sum(c ⊙ (x · w))` with `x` grouped: `x · w` gets gradient `c`
        // per pair, which backward sums into the distinct rows before
        // `dw = x_dᵀ · G_d`. Both must be the bits of a naive per-row loop
        // in ascending pair order, including the unused distinct row 3.
        let distinct = Matrix::from_rows(&[
            vec![0.5, -1.0, 3.0],
            vec![-0.0, 2.0, 0.125],
            vec![1e-3, 7.5, -0.25],
            vec![4.0, 4.0, 4.0],
        ]);
        let rows = vec![2, 0, 2, 1, 2, 0, 2];
        let c = Matrix::from_vec(
            7,
            2,
            (0..14).map(|i| (i as f32 * 1.37).sin() * 10f32.powi(i % 5 - 2)).collect(),
        );
        let mut params = ParamSet::new();
        let w_id =
            params.insert("w", Matrix::from_vec(3, 2, vec![1.5, -0.5, 0.25, 1.0, -2.0, 0.75]));
        let mut g = Graph::new();
        let x = g.constant_grouped(distinct.clone(), rows.clone());
        let w = g.param(&params, w_id);
        let h = g.matmul(x, w);
        let cv = g.constant(c.clone());
        let weighted = g.mul(h, cv);
        let loss = g.sum_all(weighted);
        g.backward(loss, &mut params);

        let mut naive = Matrix::zeros(distinct.rows(), c.cols());
        for (p, &d) in rows.iter().enumerate() {
            for j in 0..c.cols() {
                naive.set(d, j, naive.get(d, j) + c.get(p, j));
            }
        }
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&segment_sum(&c, &rows, distinct.rows())), bits(&naive));
        assert_eq!(bits(params.grad(w_id)), bits(&distinct.matmul_tn(&naive)));
    }

    #[test]
    #[should_panic(expected = "past the 2 distinct rows")]
    fn a_grouped_leaf_rejects_rows_past_its_distinct_rows() {
        let mut g = Graph::new();
        let _ = g.constant_grouped(Matrix::zeros(2, 3), vec![0, 2]);
    }

    #[test]
    fn constants_receive_no_parameter_gradient() {
        let mut params = ParamSet::new();
        let w = params.insert("w", Matrix::scalar(1.0));
        let mut g = Graph::new();
        let c = g.constant(Matrix::scalar(5.0));
        let wv = g.param(&params, w);
        let prod = g.mul(c, wv);
        let loss = g.sum_all(prod);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(w).item(), 5.0);
    }
}
