//! Random tape programs and the per-op differential check.
//!
//! A [`Program`] is a flat list of [`Inst`]s: `Param` and `Input` leaves and
//! the production tape's own ops, [`Expr`]`<usize>` over the indices of
//! earlier instructions. A program records onto a [`Graph`] with
//! [`Graph::record`] and shrinks by remapping operands with [`Expr::map`].
//! The per-op code here is the oracle's own: the `f64` reference
//! `oracle_apply` (no catch-all arm, so a new `Expr` variant does not
//! compile without one), `forward_budget`, the generator's op draw and
//! `render_inst`.
//!
//! [`check_program`] runs the program through the *production* stack and
//! compares
//!
//! * every node's forward value against the oracle op applied to the
//!   **production** parent values promoted to `f64` (per-op isolation — no
//!   unbounded upstream error amplification), within the ULP/absolute budgets
//!   of [`crate::ulp`], and
//! * every parameter gradient from the production backward pass against
//!   central finite differences of the full `f64` oracle, and
//! * in a program with an `Input`, a tape that records it as a grouped leaf
//!   over [`regrouped_batch`] of its rows against one that records it as a
//!   dense constant: values **bit for bit**, parameter gradients within the
//!   grouped budget (`check_grouped_tape`).
//!
//! [`gen_program`] builds random well-shaped programs from a seed, and
//! [`shrink`] reduces a failing program to a minimal reproducer that
//! [`render_reproducer`] prints as a paste-able test.

use crate::refmat::RefMatrix;
use crate::ulp::{grouped_gradient_budget, op_ulps, ulp_distance, Budget, EPS32};
use adamel_tensor::{EncodedBlocks, Expr, Graph, Matrix, ParamId, ParamSet, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One tape instruction: a leaf, or a computed op over earlier
/// instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// A trainable leaf with explicit shape and row-major data.
    Param {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Row-major values.
        data: Vec<f32>,
    },
    /// The batch leaf: a constant that [`check_program`]'s grouped check
    /// records as a grouped leaf, a single feature as wide as the leaf.
    /// Generated programs read it only through `SliceCols`, which the
    /// grouped tape runs over the leaf's distinct rows.
    Input {
        /// Row count (the probe batch size).
        rows: usize,
        /// Column count.
        cols: usize,
        /// Row-major values.
        data: Vec<f32>,
    },
    /// A computed op, the production tape's own; each operand is the index
    /// of an earlier instruction.
    Op(Expr<usize>),
}

impl Inst {
    /// Indices of the instructions this one reads, in operand order.
    pub fn parents(&self) -> Vec<usize> {
        match self {
            Inst::Param { .. } | Inst::Input { .. } => Vec::new(),
            Inst::Op(e) => e.operands(),
        }
    }

    /// The op name used by the budget table ([`op_ulps`]).
    pub fn op_name(&self) -> &'static str {
        match self {
            Inst::Param { .. } => "param",
            Inst::Input { .. } => "constant",
            Inst::Op(e) => e.name(),
        }
    }
}

/// A straight-line tape program. `root` is the index whose (1x1) value the
/// backward pass differentiates; forward checking covers *every* node.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Instructions in dependency order.
    pub insts: Vec<Inst>,
    /// Index of the scalar root.
    pub root: usize,
}

/// A detected disagreement between production and oracle.
#[derive(Debug, Clone)]
pub struct Discrepancy {
    /// Index of the offending instruction.
    pub inst: usize,
    /// Op name of the offending instruction.
    pub op: &'static str,
    /// `"forward"` or `"grad"`.
    pub kind: &'static str,
    /// Human-readable description (element, values, budget).
    pub detail: String,
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inst {} ({}) {}: {}", self.inst, self.op, self.kind, self.detail)
    }
}

/// A deliberate corruption of one production forward value, used by the
/// harness's own mutation test to prove injected kernel bugs are caught.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// Instruction whose production value is corrupted.
    pub inst: usize,
    /// Relative perturbation; every element moves by at least this much.
    pub rel: f32,
}

struct ProdRun {
    values: Vec<Matrix>,
    grads: Vec<Option<Matrix>>,
}

/// A batch to record in place of the program's `Input` rows.
#[derive(Clone, Copy)]
struct Regroup<'a> {
    /// The rows the `Input` leaf holds instead.
    batch: &'a Matrix,
    /// The instructions to record with it (a `weighted_bce_with_logits`'s
    /// constants are sized to the program's own rows).
    record: &'a [bool],
    /// Whether the `Input` enters as a grouped leaf (its distinct rows and
    /// each row's among them) rather than a dense constant.
    grouped: bool,
}

/// Records the program onto `g`, registering its parameters in `params`;
/// returns each instruction's node and, for `Param`s, its handle. With a
/// [`Regroup`], an instruction left out gets its first instruction's node
/// as a placeholder that nothing recorded reads.
fn record(
    p: &Program,
    params: &mut ParamSet,
    g: &mut Graph,
    regroup: Option<Regroup<'_>>,
) -> (Vec<Var>, Vec<Option<ParamId>>) {
    let mut vars: Vec<Var> = Vec::with_capacity(p.insts.len());
    let mut ids: Vec<Option<ParamId>> = Vec::with_capacity(p.insts.len());
    for (i, inst) in p.insts.iter().enumerate() {
        if let Some(Regroup { batch, record, grouped }) = regroup {
            let stand_in = match inst {
                _ if !record[i] => Some(vars[0]),
                Inst::Input { .. } if grouped => {
                    let all: Vec<usize> = (0..batch.rows()).collect();
                    let (distinct, rows) =
                        EncodedBlocks::from_dense(batch, batch.cols()).distinct(0, &all);
                    Some(g.constant_grouped(distinct, rows))
                }
                Inst::Input { .. } => Some(g.constant(batch.clone())),
                _ => None,
            };
            if let Some(v) = stand_in {
                ids.push(None);
                vars.push(v);
                continue;
            }
        }
        let mut id = None;
        let v = match inst {
            Inst::Param { rows, cols, data } => {
                let pid =
                    params.insert(format!("p{i}"), Matrix::from_vec(*rows, *cols, data.clone()));
                id = Some(pid);
                g.param(params, pid)
            }
            Inst::Input { rows, cols, data } => {
                g.constant(Matrix::from_vec(*rows, *cols, data.clone()))
            }
            Inst::Op(e) => g.record(e.map(|q| vars[q])),
        };
        ids.push(id);
        vars.push(v);
    }
    (vars, ids)
}

/// Runs the program through the production tape, recording every forward
/// value and (when the root is 1x1) every parameter gradient.
fn run_production(p: &Program) -> ProdRun {
    let mut params = ParamSet::new();
    let mut g = Graph::new();
    let (vars, ids) = record(p, &mut params, &mut g, None);
    let values: Vec<Matrix> = vars.iter().map(|&v| g.value(v).clone()).collect();
    let mut grads: Vec<Option<Matrix>> = vec![None; p.insts.len()];
    if values[p.root].shape() == (1, 1) {
        g.backward(vars[p.root], &mut params);
        for (i, id) in ids.iter().enumerate() {
            if let Some(pid) = id {
                grads[i] = Some(params.grad(*pid).clone());
            }
        }
    }
    ProdRun { values, grads }
}

/// Applies the oracle version of one instruction to already-promoted
/// parents, given in operand order. The match has no catch-all arm, so an
/// `Expr` variant without an `f64` reference here does not compile.
fn oracle_apply(inst: &Inst, parents: &[RefMatrix]) -> RefMatrix {
    let e = match inst {
        Inst::Param { rows, cols, data } | Inst::Input { rows, cols, data } => {
            return RefMatrix::from_f32(*rows, *cols, data);
        }
        Inst::Op(e) => e,
    };
    match e {
        Expr::MatMul(..) => parents[0].matmul(&parents[1]),
        Expr::Add(..) => parents[0].add(&parents[1]),
        Expr::AddRowBroadcast(..) => parents[0].add_row_broadcast(&parents[1]),
        Expr::Mul(..) => parents[0].mul(&parents[1]),
        Expr::MulColBroadcast(..) => parents[0].mul_col_broadcast(&parents[1]),
        Expr::Scale(_, factor) => parents[0].scale(f64::from(*factor)),
        Expr::Relu(_) => parents[0].relu(),
        Expr::Tanh(_) => parents[0].map(f64::tanh),
        Expr::Sigmoid(_) => parents[0].map(|v| 1.0 / (1.0 + (-v).exp())),
        Expr::SoftmaxRows(_) => parents[0].softmax_rows(),
        Expr::ConcatCols(_) => {
            let refs: Vec<&RefMatrix> = parents.iter().collect();
            RefMatrix::concat_cols(&refs)
        }
        Expr::WeightedSum { parts, .. } => {
            RefMatrix::weighted_sum(&parents[..parts.len()], &parents[parts.len()])
        }
        Expr::SliceCols { start, width, .. } => parents[0].slice_cols(*start, *width),
        Expr::MeanAll(_) => RefMatrix::scalar(parents[0].mean()),
        Expr::SumAll(_) => RefMatrix::scalar(parents[0].sum()),
        Expr::WeightedBceWithLogits { targets, weights, .. } => {
            RefMatrix::scalar(bce_terms(&parents[0], targets, weights).0)
        }
        Expr::KlConstRows { target, eps, .. } => {
            RefMatrix::scalar(kl_terms(&parents[0], target, *eps).0)
        }
    }
}

/// `(mean, mean of |term|)` of the stable weighted BCE over `n x 1` logits.
fn bce_terms(z: &RefMatrix, targets: &Matrix, weights: &Matrix) -> (f64, f64) {
    let n = z.rows().max(1) as f64;
    let (mut total, mut abs_total) = (0.0, 0.0);
    for i in 0..z.rows() {
        let zi = z.get(i, 0);
        let (yi, wi) = (f64::from(targets.get(i, 0)), f64::from(weights.get(i, 0)));
        let term = wi * (zi.max(0.0) - zi * yi + (-zi.abs()).exp().ln_1p());
        total += term;
        abs_total += term.abs();
    }
    (total / n, abs_total / n)
}

/// `(mean, mean of |term|)` of the row-wise KL against a constant target.
fn kl_terms(p: &RefMatrix, target: &Matrix, eps: f32) -> (f64, f64) {
    let n = p.rows().max(1) as f64;
    let (mut total, mut abs_total) = (0.0, 0.0);
    for i in 0..p.rows() {
        for (j, &q32) in target.as_slice().iter().enumerate() {
            let q = f64::from(q32);
            if q > 0.0 {
                let term = q * (q / (p.get(i, j) + f64::from(eps))).ln();
                total += term;
                abs_total += term.abs();
            }
        }
    }
    (total / n, abs_total / n)
}

/// `(ulps, per-element absolute fallback)` for one instruction given its
/// promoted production parents and the oracle output shape.
fn forward_budget(inst: &Inst, parents: &[RefMatrix], out: &RefMatrix) -> (u64, RefMatrix) {
    let zeros = || RefMatrix::zeros(out.rows(), out.cols());
    let Inst::Op(e) = inst else { return (op_ulps(inst.op_name(), 0), zeros()) };
    match e {
        Expr::MatMul(..) => {
            let k = parents[0].cols();
            let scale = parents[0].map(f64::abs).matmul(&parents[1].map(f64::abs));
            (op_ulps("matmul", k), scale.scale((k as f64 + 4.0) * EPS32))
        }
        Expr::WeightedSum { parts, .. } => {
            // An F-term dot product per element, bounded like matmul's.
            let abs: Vec<RefMatrix> = parents.iter().map(|m| m.map(f64::abs)).collect();
            let f = parts.len();
            let scale = RefMatrix::weighted_sum(&abs[..f], &abs[f]);
            (op_ulps("weighted_sum", f), scale.scale((f as f64 + 4.0) * EPS32))
        }
        Expr::SoftmaxRows(_) => {
            let m = parents[0].cols();
            let abs = (m as f64 + 4.0) * EPS32;
            (op_ulps("softmax_rows", m), zeros().map(|_| abs))
        }
        Expr::SumAll(_) => {
            let n = parents[0].len();
            let abs = (n as f64 + 4.0) * EPS32 * parents[0].abs_sum();
            (op_ulps("sum_all", n), RefMatrix::scalar(abs))
        }
        Expr::MeanAll(_) => {
            let n = parents[0].len();
            let abs = (n as f64 + 4.0) * EPS32 * parents[0].abs_sum() / n.max(1) as f64;
            (op_ulps("mean_all", n), RefMatrix::scalar(abs))
        }
        Expr::WeightedBceWithLogits { targets, weights, .. } => {
            let n = parents[0].rows();
            let (_, mean_abs) = bce_terms(&parents[0], targets, weights);
            let abs = (n as f64 + 4.0) * EPS32 * mean_abs.max(1.0);
            (op_ulps("weighted_bce_with_logits", n), RefMatrix::scalar(abs))
        }
        Expr::KlConstRows { target, eps, .. } => {
            let n = parents[0].len();
            let (_, mean_abs) = kl_terms(&parents[0], target, *eps);
            let abs = (n as f64 + 4.0) * EPS32 * mean_abs.max(1.0);
            (op_ulps("kl_const_rows", n), RefMatrix::scalar(abs))
        }
        _ => (op_ulps(e.name(), 0), zeros()),
    }
}

/// Full `f64` evaluation of the program at the given parameter values
/// (`param_values` in order of `Param` appearance); returns the root value.
pub fn eval_oracle_root(p: &Program, param_values: &[RefMatrix]) -> f64 {
    let mut values: Vec<RefMatrix> = Vec::with_capacity(p.insts.len());
    let mut next_param = 0;
    for inst in &p.insts {
        let v = if let Inst::Param { .. } = inst {
            let v = param_values[next_param].clone();
            next_param += 1;
            v
        } else {
            let parents: Vec<RefMatrix> =
                inst.parents().iter().map(|&q| values[q].clone()).collect();
            oracle_apply(inst, &parents)
        };
        values.push(v);
    }
    values[p.root].item()
}

/// Checks one program: production forward per-op against the oracle within
/// budget, the grouped-leaf tape against the dense-leaf one
/// (`check_grouped_tape`), and production gradients against oracle finite
/// differences. Returns the number of values and gradients the grouped
/// check compared (0 in a program without an `Input`).
pub fn check_program(p: &Program) -> Result<usize, Discrepancy> {
    check_with_fault(p, None)
}

/// Whether `e` reduces its operand to one `1 x 1` value (the reductions
/// and the losses): what reads it sees one row however the batch groups.
fn reduces(e: &Expr<usize>) -> bool {
    matches!(
        e,
        Expr::MeanAll(_)
            | Expr::SumAll(_)
            | Expr::WeightedBceWithLogits { .. }
            | Expr::KlConstRows { .. }
    )
}

/// [`check_grouped_tape`] over [`regrouped_batch`] of the program's `Input`
/// rows, if it has one.
///
/// Every regrouped row holds at most one NaN, so the NaN bits a row
/// computes are fixed, until sigmoid's `-v` flips a NaN's sign and the two
/// signs meet in a binary op. Which operand's NaN the kernel keeps then
/// depends on whether the element lands in a vectorized body or a scalar
/// tail (an `add` of `+NaN` and `-NaN` keeps the second operand's in the
/// 8-wide body and the first's in the tail), and grouping moves elements
/// between the two. In a program with a sigmoid over batch rows (one no
/// reduction feeds), the grouped check therefore matches NaN to any NaN.
fn check_grouped(p: &Program) -> Result<usize, Discrepancy> {
    let Some(Inst::Input { rows, cols, data }) =
        p.insts.iter().find(|inst| matches!(inst, Inst::Input { .. }))
    else {
        return Ok(0);
    };
    let mut per_row = vec![true; p.insts.len()];
    for (i, inst) in p.insts.iter().enumerate() {
        let reduced = matches!(inst, Inst::Op(e) if reduces(e));
        per_row[i] = !reduced && inst.parents().iter().all(|&q| per_row[q]);
    }
    let nan_signs_meet =
        (0..p.insts.len()).any(|i| per_row[i] && matches!(p.insts[i], Inst::Op(Expr::Sigmoid(_))));
    let probe = Matrix::from_vec(*rows, *cols, data.clone());
    check_grouped_tape(p, &regrouped_batch(&probe), nan_signs_meet)
}

/// Records `p` over `batch` twice, its `Input` once as a grouped leaf and
/// once as a dense constant, and requires equal bits for every value; NaN
/// matches any NaN when `nan_ok` (see [`check_grouped`]). When the root is a
/// `1 x 1` value it then records both tapes again over the rows of `batch`
/// that hold no NaN, and requires every parameter gradient within
/// [`grouped_gradient_budget`] of the dense tape's, a NaN only against a
/// NaN: the grouped tape sums a gradient's per-pair terms per distinct row
/// first. The NaN rows stay out of the gradient half because they reach a
/// gradient through `0 · NaN` terms, which the naive product kernels skip
/// and the blocked ones keep, and the two tapes run their products over
/// different row counts. Every instruction is recorded except a
/// `weighted_bce_with_logits`, whose constants are sized to the program's
/// own rows, and what reads one. Returns the number of values and
/// gradients compared.
fn check_grouped_tape(p: &Program, batch: &Matrix, nan_ok: bool) -> Result<usize, Discrepancy> {
    let mut recorded = vec![true; p.insts.len()];
    for (i, inst) in p.insts.iter().enumerate() {
        let bce = matches!(inst, Inst::Op(Expr::WeightedBceWithLogits { .. }));
        recorded[i] = !bce && inst.parents().iter().all(|&q| recorded[q]);
    }
    // Each instruction's value and, with `backward`, each parameter's
    // gradient.
    let run = |batch: &Matrix, grouped: bool, backward: bool| {
        let mut params = ParamSet::new();
        let mut g = Graph::new();
        let regroup = Regroup { batch, record: &recorded, grouped };
        let (vars, ids) = record(p, &mut params, &mut g, Some(regroup));
        let values: Vec<(usize, Matrix)> = (0..p.insts.len())
            .filter(|&i| recorded[i])
            .map(|i| (i, g.value(vars[i]).clone()))
            .collect();
        let mut grads = Vec::new();
        if backward && g.value(vars[p.root]).shape() == (1, 1) {
            g.backward(vars[p.root], &mut params);
            let of = |(i, id): (usize, &Option<ParamId>)| Some((i, params.grad((*id)?).clone()));
            grads.extend(ids.iter().enumerate().filter_map(of));
        }
        (values, grads)
    };
    let fail = |i: usize, detail: String| Discrepancy {
        inst: i,
        op: p.insts[i].op_name(),
        kind: "grouped tape",
        detail,
    };
    // Over a batch without NaN rows one pair of tapes serves both halves.
    let finite = nan_free_rows(batch);
    let one_batch = finite.rows() == batch.rows();
    let (values, mut grads) = run(batch, true, one_batch);
    let (dense_values, mut dense_grads) = run(batch, false, one_batch);
    for ((i, a), (_, b)) in values.iter().zip(&dense_values) {
        if !same_bits(a, b, nan_ok) {
            return Err(fail(*i, format!("value: grouped leaf {a:?} != dense leaf {b:?}")));
        }
    }
    if !one_batch {
        (grads, dense_grads) = (run(&finite, true, true).1, run(&finite, false, true).1);
    }
    let scale = grads
        .iter()
        .chain(&dense_grads)
        .flat_map(|(_, m)| m.as_slice())
        .filter(|v| v.is_finite())
        .fold(0.0f64, |acc, v| acc.max(f64::from(v.abs())));
    let budget = grouped_gradient_budget(finite.rows(), scale);
    for ((i, a), (_, b)) in grads.iter().zip(&dense_grads) {
        if a.shape() != b.shape() {
            return Err(fail(*i, format!("gradient: grouped leaf {a:?} vs dense leaf {b:?}")));
        }
        let within = |(x, y): (&f32, &f32)| {
            x == y || (x.is_nan() && y.is_nan()) || budget.accepts(*x, (*y).into())
        };
        if let Some(e) = a.as_slice().iter().zip(b.as_slice()).position(|xy| !within(xy)) {
            let (x, y) = (a.as_slice()[e], b.as_slice()[e]);
            let (r, c) = (e / a.cols(), e % a.cols());
            return Err(fail(
                *i,
                format!(
                    "gradient element ({r},{c}): grouped leaf {x:e} vs dense leaf {y:e} \
                     ({} ulps, budget {} ulps / {:e} abs)",
                    ulp_distance(x, y),
                    budget.ulps,
                    budget.abs
                ),
            ));
        }
    }
    Ok(values.len() + grads.len())
}

/// The rows of `batch` that hold no NaN, in order.
fn nan_free_rows(batch: &Matrix) -> Matrix {
    let clean = |r: &usize| !batch.row(*r).iter().any(|v| v.is_nan());
    let kept: Vec<usize> = (0..batch.rows()).filter(clean).collect();
    let data = kept.iter().flat_map(|&r| batch.row(r).iter().copied()).collect();
    Matrix::from_vec(kept.len(), batch.cols(), data)
}

/// Whether `a` and `b` have one shape and equal bits, a NaN matching any
/// NaN when `nan_ok` (see [`check_grouped`]).
fn same_bits(a: &Matrix, b: &Matrix, nan_ok: bool) -> bool {
    let same =
        |x: &f32, y: &f32| x.to_bits() == y.to_bits() || (nan_ok && x.is_nan() && y.is_nan());
    a.shape() == b.shape() && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| same(x, y))
}

/// Quiet NaNs that differ only in payload (the last also in sign).
const NAN_PAYLOADS: [u32; 3] = [0x7fc0_0001, 0x7fc0_0002, 0xffc0_0003];

/// The batch [`check_grouped`] regroups a program's probe rows into: `3n + 1`
/// rows cycling through the probe's `n` in another order; the first probe
/// row holding a zero, with that zero's sign flipped; and, unless the
/// numerics sanitizer is on (non-finite values abort it by contract),
/// probe row 0 with column 0 set to each of [`NAN_PAYLOADS`], twice each.
/// Rows repeat, and some differ from another only in the sign of a zero or
/// in a NaN payload, which the grouped leaf must keep apart.
fn regrouped_batch(probe: &Matrix) -> Matrix {
    let n = probe.rows();
    if n == 0 || probe.cols() == 0 {
        return Matrix::zeros(3, probe.cols());
    }
    let mut rows: Vec<Vec<f32>> =
        (0..3 * n + 1).map(|r| probe.row((5 * r + 1) % n).to_vec()).collect();
    let is_zero = |v: &f32| v.to_bits() << 1 == 0;
    if let Some(mut row) = (0..n).map(|r| probe.row(r).to_vec()).find(|r| r.iter().any(is_zero)) {
        if let Some(zero) = row.iter_mut().find(|v| is_zero(v)) {
            *zero = -*zero;
        }
        rows.push(row);
    }
    if !adamel_tensor::sanitize::enabled() {
        for &payload in &NAN_PAYLOADS {
            let mut row = probe.row(0).to_vec();
            row[0] = f32::from_bits(payload);
            rows.push(row.clone());
            rows.push(row);
        }
    }
    Matrix::from_rows(&rows)
}

/// Upper bound on gradient elements finite-difference-checked per parameter;
/// beyond it a deterministic stride subsamples the tensor.
const GRAD_CHECK_MAX_ELEMENTS: usize = 64;

/// [`check_program`] with an optional injected fault — the mutation hook the
/// harness's own tests use to prove a corrupted kernel output is caught.
pub fn check_with_fault(p: &Program, fault: Option<Fault>) -> Result<usize, Discrepancy> {
    let run = run_production(p);
    let mut values = run.values;
    if let Some(f) = fault {
        for v in values[f.inst].as_mut_slice() {
            *v += f.rel * (v.abs() + 1.0);
        }
    }

    // Forward: each op in isolation, oracle applied to *production* parents.
    for (i, inst) in p.insts.iter().enumerate() {
        let parents: Vec<RefMatrix> =
            inst.parents().iter().map(|&q| RefMatrix::from_matrix(&values[q])).collect();
        let oracle = oracle_apply(inst, &parents);
        let prod = &values[i];
        let fail =
            |detail| Err(Discrepancy { inst: i, op: inst.op_name(), kind: "forward", detail });
        if prod.shape() != oracle.shape() {
            let (ps, os) = (prod.shape(), oracle.shape());
            return fail(format!("shape mismatch: production {ps:?} vs oracle {os:?}"));
        }
        let (ulps, abs) = forward_budget(inst, &parents, &oracle);
        for r in 0..oracle.rows() {
            for c in 0..oracle.cols() {
                let pv = prod.get(r, c);
                let ov = oracle.get(r, c);
                let budget = Budget { ulps, abs: abs.get(r, c) };
                if !budget.accepts(pv, ov) {
                    return fail(format!(
                        "element ({r},{c}): production {pv:e} vs oracle {ov:e} \
                         ({} ulps, budget {} ulps / {:e} abs)",
                        ulp_distance(pv, ov as f32),
                        ulps,
                        budget.abs
                    ));
                }
            }
        }
    }

    // Grouped leaf: the dense leaf's values bit for bit, gradients within
    // the grouped budget.
    let grouped = check_grouped(p)?;

    // Backward: production gradients vs oracle central finite differences.
    // Large parameters (the blocked-shape profile emits up to 17x17 leaves)
    // are subsampled with a deterministic stride so fuzz throughput stays
    // usable; the stride depends only on the tensor size, so a seed always
    // checks the same elements and reproducers stay exact.
    let param_order: Vec<usize> = p
        .insts
        .iter()
        .enumerate()
        .filter(|(_, inst)| matches!(inst, Inst::Param { .. }))
        .map(|(i, _)| i)
        .collect();
    let base: Vec<RefMatrix> =
        param_order.iter().map(|&i| oracle_apply(&p.insts[i], &[])).collect();
    for (k, &pi) in param_order.iter().enumerate() {
        let Some(grad) = &run.grads[pi] else { continue };
        let total = grad.rows() * grad.cols();
        let stride = total.div_ceil(GRAD_CHECK_MAX_ELEMENTS).max(1);
        for flat in (0..total).step_by(stride) {
            let (r, c) = (flat / grad.cols(), flat % grad.cols());
            {
                let x = base[k].get(r, c);
                let h = 1e-3 * x.abs().max(1.0);
                let eval = |delta: f64| -> f64 {
                    let mut pv = base.clone();
                    pv[k].set(r, c, x + delta);
                    eval_oracle_root(p, &pv)
                };
                let fd = (eval(h) - eval(-h)) / (2.0 * h);
                let fd_half = (eval(h / 2.0) - eval(-h / 2.0)) / h;
                // h-halving guard: where the two step sizes disagree the loss
                // is locally ill-conditioned (ReLU kink, max switch) and the
                // finite difference is meaningless — skip the element.
                if (fd - fd_half).abs() > 0.1 * fd.abs().max(fd_half.abs()).max(1e-6) {
                    continue;
                }
                let g = f64::from(grad.get(r, c));
                if (g - fd).abs() > 2e-2 * g.abs().max(fd.abs()).max(1.0) {
                    return Err(Discrepancy {
                        inst: pi,
                        op: "param",
                        kind: "grad",
                        detail: format!(
                            "element ({r},{c}): production grad {g:e} vs oracle fd {fd:e}"
                        ),
                    });
                }
            }
        }
    }
    Ok(grouped)
}

/// Shape profile for [`gen_program_with`].
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Rough instruction count of the generated program.
    pub size: usize,
    /// When true, parameter leaves are drawn from a blocked-kernel palette —
    /// dims crossing the `MR`/`NR` register-tile edges plus 16/17, so matmuls
    /// land on both sides of the blocked-dispatch threshold (a 16³ product is
    /// the smallest that takes the blocked path) — instead of `1..=4`.
    pub blocked: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        Self { size: 8, blocked: false }
    }
}

/// Rows of a generated program's `Input` leaf: 6, or 18 in the blocked
/// profile, where products of the batch by a 16-wide parameter then take
/// the blocked kernels. Neither parameter palette has either dim, so a node
/// has this many rows exactly when it is computed from the batch, and the
/// batch's rows never meet a parameter's.
fn batch_rows(opts: &GenOptions) -> usize {
    if opts.blocked {
        18
    } else {
        6
    }
}

/// The `rows x cols` data of a generated `Input`: three base rows (about a
/// quarter of their entries zero, base 0 starting with one), laid out
/// `b0 b1 b0 b2 b0' b1` and repeated, where `b0'` is `b0` with that first
/// zero negated. Rows repeat, and some differ only in the sign of a zero.
fn batch_data(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f32> {
    let mut base: Vec<Vec<f32>> = (0..3)
        .map(|_| {
            let mut entry = || if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(-2.0f32..2.0) };
            (0..cols).map(|_| entry()).collect()
        })
        .collect();
    base[0][0] = 0.0;
    let mut signed = base[0].clone();
    signed[0] = -0.0;
    let pattern = [&base[0], &base[1], &base[0], &base[2], &signed, &base[1]];
    pattern.iter().cycle().take(rows).flat_map(|r| r.iter().copied()).collect()
}

/// Generates a random well-shaped program with roughly `size` instructions,
/// rejecting nodes whose oracle value explodes past `1e4`. Instruction 0 is
/// an `Input` of two or three column windows of palette widths, which the
/// program reads only through `SliceCols` (one per window up front, times a
/// weight of its own, more at random); products never take a batch node as
/// their right operand, so the grouped check can record the program at
/// another row count. All sinks are folded through `MeanAll` and an `Add`
/// chain into a single scalar root.
pub fn gen_program(seed: u64, size: usize) -> Program {
    gen_program_with(seed, &GenOptions { size, blocked: false })
}

/// [`gen_program`] with an explicit shape profile.
pub fn gen_program_with(seed: u64, opts: &GenOptions) -> Program {
    let size = opts.size;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6f72_6163); // "orac"
    let mut insts: Vec<Inst> = Vec::new();
    let mut values: Vec<RefMatrix> = Vec::new();
    let mut softmax_nodes: Vec<usize> = Vec::new();

    let push = |insts: &mut Vec<Inst>, values: &mut Vec<RefMatrix>, inst: Inst| -> bool {
        let parents: Vec<RefMatrix> = inst.parents().iter().map(|&q| values[q].clone()).collect();
        let v = oracle_apply(&inst, &parents);
        if v.max_abs() > 1e4 || !v.as_slice().iter().all(|x| x.is_finite()) {
            return false;
        }
        insts.push(inst);
        values.push(v);
        true
    };

    // The blocked palette repeats 16 so `a.cols == b.rows` coincidences (the
    // matmul precondition) stay common despite the wider dim spread.
    let blocked_dims: [usize; 8] = {
        use adamel_tensor::gemm::{MR, NR};
        [1, MR, MR + 1, NR, NR + 1, 16, 16, 17]
    };
    let dim = |rng: &mut StdRng| -> usize {
        if opts.blocked {
            blocked_dims[rng.gen_range(0..blocked_dims.len())]
        } else {
            rng.gen_range(1..=4usize)
        }
    };
    let mut windows: Vec<(usize, usize)> = Vec::new();
    let mut cols = 0;
    for _ in 0..2 + rng.gen_range(0..2usize) {
        let width = dim(&mut rng);
        windows.push((cols, width));
        cols += width;
    }
    let rows = batch_rows(opts);
    let data = batch_data(&mut rng, rows, cols);
    push(&mut insts, &mut values, Inst::Input { rows, cols, data });
    // Each window's slice times a weight of its own: the model's Eq. 4
    // shape, so every program's grouped tape runs a product over grouped
    // rows.
    for &(start, width) in &windows {
        push(&mut insts, &mut values, Inst::Op(Expr::SliceCols { input: 0, start, width }));
        let cols = dim(&mut rng);
        let data: Vec<f32> = (0..width * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        push(&mut insts, &mut values, Inst::Param { rows: width, cols, data });
        let n = insts.len();
        push(&mut insts, &mut values, Inst::Op(Expr::MatMul(n - 2, n - 1)));
    }
    let batch_insts = insts.len();
    let n_params = 1 + rng.gen_range(0..3usize) + usize::from(opts.blocked);
    for _ in 0..n_params {
        let rows = dim(&mut rng);
        let cols = dim(&mut rng);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        push(&mut insts, &mut values, Inst::Param { rows, cols, data });
    }

    let mut attempts = 0;
    while insts.len() < batch_insts + size.max(n_params + 1) && attempts < 40 * size {
        attempts += 1;
        let n = insts.len();
        // Instruction 0, the batch, is read only through `SliceCols`.
        let pick = |rng: &mut StdRng| rng.gen_range(1..n);
        let expr = match rng.gen_range(0..15u32) {
            0 => {
                // MatMul: find a pair with a.cols == b.rows, b not a batch.
                let a = pick(&mut rng);
                let candidates: Vec<usize> = (1..n)
                    .filter(|&b| values[b].rows() == values[a].cols() && values[b].rows() != rows)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let b = candidates[rng.gen_range(0..candidates.len())];
                Expr::MatMul(a, b)
            }
            1 | 2 => {
                let a = pick(&mut rng);
                let candidates: Vec<usize> =
                    (1..n).filter(|&b| values[b].shape() == values[a].shape()).collect();
                let b = candidates[rng.gen_range(0..candidates.len())];
                if rng.gen_bool(0.5) {
                    Expr::Add(a, b)
                } else {
                    Expr::Mul(a, b)
                }
            }
            3 => {
                let a = pick(&mut rng);
                let candidates: Vec<usize> = (1..n)
                    .filter(|&b| values[b].rows() == 1 && values[b].cols() == values[a].cols())
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let bias = candidates[rng.gen_range(0..candidates.len())];
                Expr::AddRowBroadcast(a, bias)
            }
            4 => {
                let a = pick(&mut rng);
                let candidates: Vec<usize> = (1..n)
                    .filter(|&b| values[b].cols() == 1 && values[b].rows() == values[a].rows())
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let col = candidates[rng.gen_range(0..candidates.len())];
                Expr::MulColBroadcast(a, col)
            }
            5 => Expr::Scale(pick(&mut rng), rng.gen_range(-1.5f32..1.5)),
            6 => Expr::Relu(pick(&mut rng)),
            7 => Expr::Tanh(pick(&mut rng)),
            8 => Expr::Sigmoid(pick(&mut rng)),
            9 => Expr::SoftmaxRows(pick(&mut rng)),
            10 => {
                let a = pick(&mut rng);
                let candidates: Vec<usize> =
                    (1..n).filter(|&b| values[b].rows() == values[a].rows()).collect();
                let b = candidates[rng.gen_range(0..candidates.len())];
                Expr::ConcatCols(vec![a, b])
            }
            11 if rng.gen_bool(0.3) => {
                let (start, width) = windows[rng.gen_range(0..windows.len())];
                Expr::SliceCols { input: 0, start, width }
            }
            11 => {
                let a = pick(&mut rng);
                let cols = values[a].cols();
                let start = rng.gen_range(0..cols);
                let width = rng.gen_range(1..=cols - start);
                Expr::SliceCols { input: a, start, width }
            }
            12 => {
                // BCE needs an n x 1 logit column; slice one if necessary.
                let candidates: Vec<usize> = (1..n).filter(|&b| values[b].cols() == 1).collect();
                if candidates.is_empty() {
                    continue;
                }
                let logits = candidates[rng.gen_range(0..candidates.len())];
                let rows = values[logits].rows();
                let targets: Vec<f32> =
                    (0..rows).map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.0 }).collect();
                let weights: Vec<f32> = (0..rows).map(|_| rng.gen_range(0.1f32..2.0)).collect();
                Expr::WeightedBceWithLogits {
                    logits,
                    targets: Matrix::from_vec(rows, 1, targets),
                    weights: Matrix::from_vec(rows, 1, weights),
                }
            }
            13 => {
                // Weights: a batch node at most 5 wide, one column per part.
                // Parts: batch nodes of one shape, drawn with repeats; most
                // are grouped, so the grouped tape expands them for this
                // per-pair op, as the model's weighted sum reads its `u_j`.
                let batch: Vec<usize> = (1..n).filter(|&q| values[q].rows() == rows).collect();
                let weights: Vec<usize> =
                    batch.iter().copied().filter(|&q| values[q].cols() <= 5).collect();
                if weights.is_empty() {
                    continue;
                }
                let weights = weights[rng.gen_range(0..weights.len())];
                let a = batch[rng.gen_range(0..batch.len())];
                let same: Vec<usize> = batch
                    .iter()
                    .copied()
                    .filter(|&q| values[q].shape() == values[a].shape())
                    .collect();
                let parts = (0..values[weights].cols())
                    .map(|_| same[rng.gen_range(0..same.len())])
                    .collect();
                Expr::WeightedSum { parts, weights }
            }
            _ => {
                // KL requires normalized rows: only softmax outputs qualify
                // (the runtime sanitizer enforces this).
                if softmax_nodes.is_empty() {
                    continue;
                }
                let probs = softmax_nodes[rng.gen_range(0..softmax_nodes.len())];
                let m = values[probs].cols();
                let raw: Vec<f64> = (0..m).map(|_| rng.gen_range(0.05f64..1.0)).collect();
                let total: f64 = raw.iter().sum();
                let target: Vec<f32> = raw.iter().map(|&v| (v / total) as f32).collect();
                Expr::KlConstRows { probs, target: Matrix::from_vec(1, m, target), eps: 1e-7 }
            }
        };
        let is_softmax = matches!(expr, Expr::SoftmaxRows(_));
        if push(&mut insts, &mut values, Inst::Op(expr)) && is_softmax {
            softmax_nodes.push(insts.len() - 1);
        }
    }

    // Fold every sink into a single scalar root.
    let mut used = vec![false; insts.len()];
    for inst in &insts {
        for q in inst.parents() {
            used[q] = true;
        }
    }
    let sinks: Vec<usize> = (0..insts.len()).filter(|&i| !used[i]).collect();
    let mut scalars: Vec<usize> = Vec::new();
    for s in sinks {
        if values[s].shape() == (1, 1) {
            scalars.push(s);
        } else {
            push(&mut insts, &mut values, Inst::Op(Expr::MeanAll(s)));
            scalars.push(insts.len() - 1);
        }
    }
    let mut root = scalars[0];
    for &s in &scalars[1..] {
        push(&mut insts, &mut values, Inst::Op(Expr::Add(root, s)));
        root = insts.len() - 1;
    }
    Program { insts, root }
}

/// Removes the instructions marked `dead` (which must be closed under
/// dependents), remapping indices; returns `None` when nothing remains.
fn remove_insts(p: &Program, dead: &[bool]) -> Option<Program> {
    let mut remap: Vec<usize> = vec![usize::MAX; p.insts.len()];
    let mut insts: Vec<Inst> = Vec::new();
    for (i, inst) in p.insts.iter().enumerate() {
        if dead[i] {
            continue;
        }
        let inst = match inst {
            Inst::Op(e) => Inst::Op(e.map(|q| remap[q])),
            leaf => leaf.clone(),
        };
        remap[i] = insts.len();
        insts.push(inst);
    }
    if insts.is_empty() {
        return None;
    }
    let root = if dead[p.root] { insts.len() - 1 } else { remap[p.root] };
    Some(Program { insts, root })
}

/// Marks `end` and everything it transitively reads.
fn ancestors_of(p: &Program, end: usize) -> Vec<bool> {
    let mut keep = vec![false; p.insts.len()];
    keep[end] = true;
    for i in (0..=end).rev() {
        if keep[i] {
            for q in p.insts[i].parents() {
                keep[q] = true;
            }
        }
    }
    keep
}

/// Marks `start` and everything that transitively reads it.
fn dependents_of(p: &Program, start: usize) -> Vec<bool> {
    let mut dead = vec![false; p.insts.len()];
    dead[start] = true;
    for i in start + 1..p.insts.len() {
        if p.insts[i].parents().iter().any(|&q| dead[q]) {
            dead[i] = true;
        }
    }
    dead
}

/// Shrinks a failing program to a (locally) minimal one that still fails.
///
/// First slices the program down to the ancestors of the failing instruction
/// (forward failures), then repeatedly deletes any instruction (plus its
/// dependents) whose removal keeps the check failing.
pub fn shrink(p: &Program) -> Program {
    let mut current = p.clone();
    // Ancestor slice: keep only what the failing node computes from.
    if let Err(d) = check_program(&current) {
        let dead: Vec<bool> = ancestors_of(&current, d.inst).iter().map(|&k| !k).collect();
        if let Some(mut sliced) = remove_insts(&current, &dead) {
            sliced.root = sliced.insts.len() - 1;
            if check_program(&sliced).is_err() {
                current = sliced;
            }
        }
    } else {
        return current; // Nothing to shrink.
    }
    // Greedy deletion until a fixed point.
    loop {
        let mut improved = false;
        for i in (0..current.insts.len()).rev() {
            let dead = dependents_of(&current, i);
            if dead.iter().all(|&d| d) {
                continue; // Would delete everything.
            }
            if let Some(candidate) = remove_insts(&current, &dead) {
                if check_program(&candidate).is_err() {
                    current = candidate;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Renders a failing program as a paste-able `#[test]` reproducer. Every
/// `f32` (leaf data, constant factors, loss payloads) is emitted through
/// `f32::from_bits`, so the repro is bit-exact.
pub fn render_reproducer(p: &Program) -> String {
    let mut out = String::new();
    out.push_str("#[test]\nfn fuzz_reproducer() {\n");
    out.push_str("    use adamel_oracle::{check_program, Inst, Program};\n");
    out.push_str("    use adamel_tensor::Expr;\n");
    out.push_str("    let p = Program {\n        insts: vec![\n");
    for inst in &p.insts {
        out.push_str("            ");
        out.push_str(&render_inst(inst));
        out.push_str(",\n");
    }
    out.push_str(&format!("        ],\n        root: {},\n    }};\n", p.root));
    out.push_str("    if let Err(d) = check_program(&p) {\n");
    out.push_str("        panic!(\"production diverges from oracle: {d}\");\n");
    out.push_str("    }\n}\n");
    out
}

fn render_f32(v: f32) -> String {
    format!("f32::from_bits(0x{:08x})", v.to_bits())
}

fn render_f32s(data: &[f32]) -> String {
    let parts: Vec<String> = data.iter().map(|&v| render_f32(v)).collect();
    format!("vec![{}]", parts.join(", "))
}

fn render_matrix(m: &Matrix) -> String {
    format!(
        "adamel_tensor::Matrix::from_vec({}, {}, {})",
        m.rows(),
        m.cols(),
        render_f32s(m.as_slice())
    )
}

/// One instruction as a Rust expression.
fn render_inst(inst: &Inst) -> String {
    let (leaf, rows, cols, data) = match inst {
        Inst::Param { rows, cols, data } => ("Param", rows, cols, data),
        Inst::Input { rows, cols, data } => ("Input", rows, cols, data),
        Inst::Op(e) => return format!("Inst::Op(Expr::{})", render_op(e)),
    };
    format!("Inst::{leaf} {{ rows: {rows}, cols: {cols}, data: {} }}", render_f32s(data))
}

/// One op without its `Expr::` prefix. Ops whose only payloads are operand
/// indices print as their `Debug` form, which is valid Rust.
fn render_op(e: &Expr<usize>) -> String {
    match e {
        Expr::Scale(a, factor) => format!("Scale({a}, {})", render_f32(*factor)),
        Expr::ConcatCols(parts) => format!("ConcatCols(vec!{parts:?})"),
        Expr::WeightedSum { parts, weights } => {
            format!("WeightedSum {{ parts: vec!{parts:?}, weights: {weights} }}")
        }
        Expr::WeightedBceWithLogits { logits, targets, weights } => format!(
            "WeightedBceWithLogits {{ logits: {logits}, targets: {}, weights: {} }}",
            render_matrix(targets),
            render_matrix(weights)
        ),
        Expr::KlConstRows { probs, target, eps } => format!(
            "KlConstRows {{ probs: {probs}, target: {}, eps: {} }}",
            render_matrix(target),
            render_f32(*eps)
        ),
        _ => format!("{e:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> Program {
        Program {
            insts: vec![
                Inst::Param { rows: 2, cols: 3, data: vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.75] },
                Inst::Param { rows: 3, cols: 2, data: vec![1.0, 0.5, -0.5, 2.0, 0.125, -1.0] },
                Inst::Op(Expr::MatMul(0, 1)),
                Inst::Op(Expr::Tanh(2)),
                Inst::Op(Expr::MeanAll(3)),
            ],
            root: 4,
        }
    }

    /// Both leaves and every op whose rendering is not its `Debug` form,
    /// in a program that passes; `tests/differential.rs` holds its
    /// rendered reproducer.
    fn rendering_program() -> Program {
        let column = |v: [f32; 2]| Matrix::from_vec(2, 1, v.to_vec());
        Program {
            insts: vec![
                Inst::Input { rows: 2, cols: 3, data: vec![0.5, -1.0, 0.0, 1.5, 0.25, -0.5] },
                Inst::Op(Expr::SliceCols { input: 0, start: 0, width: 2 }),
                Inst::Param { rows: 2, cols: 2, data: vec![1.0, -0.5, 0.25, 2.0] },
                Inst::Op(Expr::MatMul(1, 2)),
                Inst::Op(Expr::Scale(3, -0.75)),
                Inst::Op(Expr::SoftmaxRows(4)),
                Inst::Op(Expr::WeightedSum { parts: vec![3, 4], weights: 5 }),
                Inst::Op(Expr::ConcatCols(vec![6, 1])),
                Inst::Op(Expr::SliceCols { input: 7, start: 0, width: 1 }),
                Inst::Op(Expr::WeightedBceWithLogits {
                    logits: 8,
                    targets: column([1.0, 0.0]),
                    weights: column([0.5, 2.0]),
                }),
                Inst::Op(Expr::KlConstRows {
                    probs: 5,
                    target: Matrix::from_vec(1, 2, vec![0.25, 0.75]),
                    eps: 1e-7,
                }),
                Inst::Op(Expr::Add(9, 10)),
            ],
            root: 11,
        }
    }

    #[test]
    fn tiny_program_passes() {
        assert!(check_program(&tiny_program()).is_ok());
    }

    #[test]
    fn grouped_check_runs_for_every_program_with_an_input() {
        // The tiny program has no `Input`, so nothing is compared. The
        // rendering program's grouped and dense tapes compare every value
        // but its `weighted_bce_with_logits` and the root that reads it,
        // so no gradient either.
        assert_eq!(check_program(&tiny_program()).expect("passes"), 0);
        let program = rendering_program();
        assert_eq!(check_program(&program).expect("passes"), program.insts.len() - 2);
    }

    #[test]
    fn injected_fault_is_caught() {
        let p = tiny_program();
        let err = check_with_fault(&p, Some(Fault { inst: 2, rel: 1e-3 }))
            .expect_err("fault must be detected");
        assert_eq!(err.kind, "forward");
    }

    #[test]
    fn generated_programs_are_well_formed() {
        for seed in 0..10 {
            let p = gen_program(seed, 8);
            assert!(!p.insts.is_empty());
            assert!(p.root < p.insts.len());
            assert!(matches!(p.insts[0], Inst::Input { rows: 6, .. }), "seed {seed}: batch leaf");
            for (i, inst) in p.insts.iter().enumerate() {
                for q in inst.parents() {
                    assert!(q < i, "forward reference in seed {seed}");
                }
                if inst.parents().contains(&0) {
                    assert!(
                        matches!(inst, Inst::Op(Expr::SliceCols { .. })),
                        "seed {seed}: the batch is read only through slice_cols"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_profile_reaches_blocked_dispatch() {
        use adamel_tensor::gemm::{use_blocked, use_blocked_packing};
        // Across a handful of seeds the blocked palette must generate at
        // least one matmul that actually takes the blocked kernel path —
        // otherwise the `--blocked` fuzz profile silently tests nothing new.
        // One such matmul must also pack a `Param`, which the tape then
        // multiplies through the set's cached panels.
        let (mut hit, mut packed_hit) = (false, false);
        for seed in 0..24 {
            let p = gen_program_with(seed, &GenOptions { size: 10, blocked: true });
            let mut shapes: Vec<(usize, usize)> = Vec::new();
            for inst in &p.insts {
                let parents: Vec<RefMatrix> = inst
                    .parents()
                    .iter()
                    .map(|&q| shapes[q])
                    .map(|(r, c)| RefMatrix::zeros(r, c))
                    .collect();
                let v = oracle_apply(inst, &parents);
                if let Inst::Op(Expr::MatMul(a, b)) = inst {
                    let (n, k) = shapes[*a];
                    let m = shapes[*b].1;
                    debug_assert_eq!(k, shapes[*b].0);
                    hit |= use_blocked(n, k, m);
                    let param = matches!(p.insts[*b], Inst::Param { .. });
                    packed_hit |= param && use_blocked_packing(n, k, m);
                }
                shapes.push(v.shape());
            }
        }
        assert!(hit, "no generated matmul dispatches to the blocked kernels");
        assert!(packed_hit, "no blocked matmul multiplies by a packable parameter");
    }

    #[test]
    fn weighted_sum_is_generated_over_batch_parts() {
        // The classifier's fused op must be generated over batch nodes, so
        // that the grouped check reads its grouped parts per pair and the
        // gradient check differentiates through it.
        let mut checked = 0;
        for seed in 0..20 {
            let p = gen_program(seed, 8);
            let rows: Vec<usize> = {
                let mut shapes: Vec<RefMatrix> = Vec::new();
                for inst in &p.insts {
                    let parents: Vec<RefMatrix> =
                        inst.parents().iter().map(|&q| shapes[q].clone()).collect();
                    shapes.push(oracle_apply(inst, &parents));
                }
                shapes.iter().map(RefMatrix::rows).collect()
            };
            let sums = p.insts.iter().filter_map(|inst| match inst {
                Inst::Op(Expr::WeightedSum { parts, weights }) => Some((parts, weights)),
                _ => None,
            });
            let mut found = false;
            for (parts, &weights) in sums {
                assert!(parts.iter().all(|&q| rows[q] == 6), "seed {seed}: batch parts");
                assert_eq!(rows[weights], 6, "seed {seed}: batch weights");
                found = true;
            }
            if found {
                let grouped = check_program(&p).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
                assert!(grouped > 0, "seed {seed}: the grouped check compared nothing");
                checked += 1;
            }
        }
        assert!(checked >= 3, "only {checked} of 20 programs hold a weighted_sum");
    }

    #[test]
    fn blocked_programs_pass_differential_check() {
        for seed in 100..104 {
            let p = gen_program_with(seed, &GenOptions { size: 10, blocked: true });
            if let Err(d) = check_program(&p) {
                panic!("blocked program seed {seed} diverges: {d}");
            }
        }
    }

    #[test]
    fn shrink_produces_smaller_failing_program() {
        // Build a passing program, then make it fail via a corrupted check by
        // constructing a program whose production output cannot match: a
        // matmul compared under a deliberately wrong shape is impossible to
        // fabricate here, so instead verify shrink is a no-op on passes.
        let p = tiny_program();
        let s = shrink(&p);
        assert_eq!(s, p);
    }

    #[test]
    fn removing_an_instruction_remaps_later_operands() {
        let mut p = tiny_program();
        p.insts.insert(0, Inst::Param { rows: 1, cols: 1, data: vec![3.0] });
        for inst in &mut p.insts {
            if let Inst::Op(e) = inst {
                *e = e.map(|q| q + 1);
            }
        }
        p.root += 1;
        let dead = dependents_of(&p, 0);
        assert_eq!(remove_insts(&p, &dead), Some(tiny_program()));
    }

    #[test]
    fn reproducer_renders_program_literal() {
        let text = render_reproducer(&tiny_program());
        assert!(text.contains("Inst::Op(Expr::MatMul(0, 1))"));
        assert!(text.contains("f32::from_bits"));
        assert!(text.contains("root: 4"));
    }

    #[test]
    fn committed_reproducer_is_what_the_renderer_prints() {
        let program = rendering_program();
        assert!(check_program(&program).is_ok());
        let text = render_reproducer(&program);
        assert!(
            include_str!("../tests/differential.rs").contains(&text),
            "tests/differential.rs must hold this reproducer verbatim:\n{text}"
        );
    }
}
