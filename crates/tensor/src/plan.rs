//! Tape-free compiled replay of a recorded forward graph.
//!
//! Batched inference used to pay define-by-run overhead per chunk: every
//! chunk re-recorded the same op sequence onto a fresh [`Graph`], cloning
//! every parameter matrix into the tape and allocating every intermediate.
//! A [`CompiledPlan`] is built **once** from a probe forward pass and then
//! *replayed*: the op sequence is frozen into a step list, parameters are
//! read by reference from the live [`crate::params::ParamSet`] at replay
//! time (so a plan stays valid across training and
//! [`ParamSet::restore`](crate::params::ParamSet)), and every intermediate
//! lands in a reusable [`PlanBuffers`] arena — steady-state replay performs
//! no graph construction, no parameter clones, and no allocation.
//!
//! ## Packed weights
//!
//! A product whose right operand is a parameter at least
//! [`NR`] columns wide (a layer's weight matrix) replays
//! against GEMM panels the plan packed from that parameter, so a fixed
//! weight is packed once rather than on every replay, and a weight several
//! steps share (the attention head's `W`) once rather than once per step.
//! The packs are keyed on the [`ParamSet::generation`]: a replay that finds
//! the generation moved (training, `restore`, or another set) repacks
//! first, so a plan still reads parameters live. The pack cache sits
//! behind a mutex held only to clone an `Arc` in or out — never while
//! packing or across kernel dispatch — so two replays racing past a stale
//! generation may both pack, and the later store wins. Packing is a pure
//! copy and the microkernel is unchanged, so replay over packs is
//! bit-identical to a fresh tape; the `tensor.plan.packed.bytes` gauge
//! counts the packs alive.
//!
//! A step is the tape's own op: the recorded [`Expr`] with its operands
//! mapped from tape positions to replay locations, evaluated by the same
//! `Expr::forward_into` that evaluated it on the tape. That function is the
//! only code that runs a computed op's kernel and its runtime sanitizer
//! checks ([`crate::sanitize`]), so plan output is **bit-identical** to
//! recording the same ops on a tape by construction, with the same op
//! provenance. The plan adds four steps of its own: packed products, row
//! fills, input windows and gathers (below).
//! The equivalence suite in `adamel` still compares the plan against one
//! `forward_graph` tape bit-for-bit across chunk boundaries and feature
//! modes.
//!
//! ## Shape specialization
//!
//! A plan is *row-polymorphic*: the probe batch fixes every column width
//! while row counts follow the replay input. A non-input constant whose row
//! count matches the probe batch is taken to scale with the batch. When its
//! rows are all identical (the uniform-attention ablation's `n x F` matrix
//! of `1/F`), the plan keeps one row and replays it as a row fill at the
//! replay's row count; when they differ, no replay can reproduce it and
//! [`CompiledPlan::compile`] rejects it ([`PlanError::ScalingConstant`]).
//! Loss/reduction ops are recording-only and likewise rejected when
//! reachable from the requested outputs.
//!
//! ## Row grouping
//!
//! Batches repeat row blocks: the model embeds every empty token set as one
//! fixed missing-value vector, so many of a chunk's per-feature column
//! windows are bit-identical. Compile tags each step with the input window
//! `slice_cols(Input, start, width)` it is a row-local function of: the
//! slice itself; a plain or packed product by, or a row-broadcast add of, a
//! `Param`/`Const`; `relu`, `tanh`, `sigmoid`, `scale` and `softmax_rows`;
//! and `add`, `mul`, `mul_col_broadcast`, `concat_cols` and `slice_cols`
//! whose row operands all share the window. Replay keys each window's rows
//! by their bit pattern, numbers the distinct ones in first-seen order (the
//! hash only steers probing, so no result depends on it) and runs the
//! window's tagged steps over those distinct rows alone. A tagged buffer is
//! gathered back to one row per input row only where an untagged step or a
//! requested output reads it. Every row is still computed by the same
//! kernel from the same row, and the blocked and naive GEMM paths agree bit
//! for bit on finite input, so a grouped replay equals the tape bit for
//! bit. At `spans` and above the `plan.window_rows` and
//! `plan.window_distinct_rows` counters sum each replay's rows and distinct
//! rows over its windows.

use crate::expr::Expr;
use crate::gemm::{PackedB, NR};
use crate::graph::{Graph, Op, Var};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamSet};
use crate::sanitize;
use adamel_obs::mem::MemScope;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Why a recorded graph could not be compiled into a replayable plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A reachable op only exists for training (losses, full reductions);
    /// the payload is the op's stable name.
    UnsupportedOp(&'static str),
    /// A non-input constant's row count matches the probe batch, so it
    /// scales with the batch, and its rows differ, so no row fill can
    /// replay it at another batch size.
    ScalingConstant,
    /// A requested output is a leaf (constant/parameter/input), not a
    /// computed node; replay only materializes computed nodes.
    UnsupportedOutput,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnsupportedOp(name) => {
                write!(f, "plan: op `{name}` is not replayable (training-only)")
            }
            PlanError::ScalingConstant => {
                write!(f, "plan: constant scales with the batch and its rows differ")
            }
            PlanError::UnsupportedOutput => {
                write!(f, "plan: requested output is a leaf, not a computed node")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Where a step operand's value lives at replay time.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// The replay batch handed to [`CompiledPlan::execute`].
    Input,
    /// A frozen constant captured at compile time.
    Const(usize),
    /// A parameter, read from the live `ParamSet` by id at replay time.
    Param(ParamId),
    /// An earlier step's output buffer.
    Buf(usize),
}

/// One replay step: a tape op over replay operands, or one of the plan's
/// own steps.
enum StepOp {
    /// A recorded op, evaluated exactly as the tape evaluated it.
    Expr(Expr<Src>),
    /// `a · param` replayed over the plan's pack of `param`, in `slot`.
    MatMulPacked { a: Src, param: ParamId, slot: usize },
    /// A batch-sized constant with identical rows: the frozen `1 x k` row
    /// (a `Src::Const`) repeated once per replay row.
    FillRows(usize),
    /// `slice_cols(Input, start, width)` of window `.0`, one row per
    /// distinct row of the window.
    WindowRows(usize),
    /// Buffer `src`, tagged with `window`, expanded to one row per input
    /// row.
    Gather { src: usize, window: usize },
}

impl StepOp {
    /// The input window this step is a row-local function of, given the
    /// window of every earlier buffer (see the module docs), or `None`.
    fn window(&self, buf_window: &[Option<usize>]) -> Option<usize> {
        let win = |s: &Src| match s {
            Src::Buf(i) => buf_window[*i],
            _ => None,
        };
        let leaf = |s: &Src| matches!(s, Src::Param(_) | Src::Const(_));
        match self {
            StepOp::WindowRows(w) => Some(*w),
            StepOp::MatMulPacked { a, .. } => win(a),
            StepOp::Expr(Expr::MatMul(a, b) | Expr::AddRowBroadcast(a, b)) => {
                win(a).filter(|_| leaf(b))
            }
            StepOp::Expr(
                expr @ (Expr::Add(..)
                | Expr::Mul(..)
                | Expr::MulColBroadcast(..)
                | Expr::ConcatCols(_)
                | Expr::Scale(..)
                | Expr::Relu(_)
                | Expr::Tanh(_)
                | Expr::Sigmoid(_)
                | Expr::SoftmaxRows(_)
                | Expr::SliceCols { .. }),
            ) => {
                // Row-local: tagged when every operand shares one window.
                let srcs = expr.operands();
                let w = win(srcs.first()?)?;
                srcs.iter().all(|s| win(s) == Some(w)).then_some(w)
            }
            StepOp::Expr(
                Expr::WeightedSum { .. }
                | Expr::MeanAll(_)
                | Expr::SumAll(_)
                | Expr::WeightedBceWithLogits { .. }
                | Expr::KlConstRows { .. },
            )
            | StepOp::FillRows(_)
            | StepOp::Gather { .. } => None,
        }
    }
}

struct Step {
    op: StepOp,
    /// Output buffer index; strictly increasing in step order, so every
    /// operand buffer of a step lies before `out` (SSA discipline).
    out: usize,
}

/// A frozen, shape-specialized forward program: compile once, replay many.
pub struct CompiledPlan {
    steps: Vec<Step>,
    consts: Vec<Matrix>,
    /// Buffer index per requested output, in request order.
    outputs: Vec<usize>,
    input_cols: usize,
    /// `(start, width)` of each input column window, in window order.
    windows: Vec<(usize, usize)>,
    /// The parameters `MatMulPacked` steps multiply by, in slot order.
    packed: Vec<ParamId>,
    /// Their packs for the latest generation replayed (see the module docs).
    packs: Mutex<Option<Arc<PackedParams>>>,
}

/// The packs of a plan's `packed` parameters at one generation.
struct PackedParams {
    generation: u64,
    packs: Vec<PackedB>,
    _gauge: MemScope,
}

impl PackedParams {
    fn pack(params: &ParamSet, ids: &[ParamId]) -> PackedParams {
        let packs: Vec<PackedB> = ids.iter().map(|&id| PackedB::pack(params.value(id))).collect();
        let bytes = packs.iter().map(PackedB::bytes).sum();
        PackedParams {
            generation: params.generation(),
            packs,
            _gauge: MemScope::new("tensor.plan.packed.bytes", bytes),
        }
    }
}

/// Marks an empty slot of [`RowGroups::table`].
const EMPTY_SLOT: usize = usize::MAX;

/// One window's rows grouped by bit pattern, for the latest replay.
#[derive(Default)]
struct RowGroups {
    /// Distinct-row id of each input row.
    id_of_row: Vec<usize>,
    /// First input row of each distinct id; ids count up in first-seen
    /// order.
    first_rows: Vec<usize>,
    /// Open-addressing table of distinct ids keyed by row hash
    /// ([`EMPTY_SLOT`] when free).
    table: Vec<usize>,
}

impl RowGroups {
    /// Groups the rows of `input`'s columns `[start, start + width)`.
    fn group(&mut self, input: &Matrix, start: usize, width: usize) {
        let rows = input.rows();
        let key = |r: usize| &input.row(r)[start..start + width];
        let mask = (2 * rows).next_power_of_two() - 1;
        self.table.clear();
        self.table.resize(mask + 1, EMPTY_SLOT);
        self.id_of_row.clear();
        self.first_rows.clear();
        for r in 0..rows {
            let row = key(r);
            let mut slot = row_hash(row) & mask;
            let id = loop {
                let id = self.table[slot];
                if id == EMPTY_SLOT {
                    let id = self.first_rows.len();
                    self.table[slot] = id;
                    self.first_rows.push(r);
                    break id;
                }
                if same_bits(key(self.first_rows[id]), row) {
                    break id;
                }
                slot = (slot + 1) & mask;
            };
            self.id_of_row.push(id);
        }
    }

    /// Writes the distinct rows of `input`'s window into `out`.
    fn distinct_rows(&self, input: &Matrix, start: usize, width: usize, out: &mut Matrix) {
        out.reset_shape(self.first_rows.len(), width);
        for (id, &r) in self.first_rows.iter().enumerate() {
            out.row_mut(id).copy_from_slice(&input.row(r)[start..start + width]);
        }
    }

    /// Writes one row of `distinct` per input row into `out`.
    fn gather(&self, distinct: &Matrix, out: &mut Matrix) {
        out.reset_shape(self.id_of_row.len(), distinct.cols());
        for (r, &id) in self.id_of_row.iter().enumerate() {
            out.row_mut(r).copy_from_slice(distinct.row(id));
        }
    }

    fn capacity_bytes(&self) -> usize {
        let words = self.id_of_row.capacity() + self.first_rows.capacity() + self.table.capacity();
        words * std::mem::size_of::<usize>()
    }
}

/// FxHash-style mix of a row's bit patterns, two values per word over four
/// independent lanes so the multiply chains overlap; it only picks the
/// first probe slot, so its quality affects speed, never results.
fn row_hash(row: &[f32]) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, v: u64| (h.rotate_left(5) ^ v).wrapping_mul(K);
    let bits = |a: f32, b: f32| u64::from(a.to_bits()) | u64::from(b.to_bits()) << 32;
    let mut lanes = [0u64; 4];
    let mut chunks = row.chunks_exact(8);
    for c in &mut chunks {
        lanes[0] = mix(lanes[0], bits(c[0], c[1]));
        lanes[1] = mix(lanes[1], bits(c[2], c[3]));
        lanes[2] = mix(lanes[2], bits(c[4], c[5]));
        lanes[3] = mix(lanes[3], bits(c[6], c[7]));
    }
    let mut h = lanes.into_iter().fold(0, mix);
    for v in chunks.remainder() {
        h = mix(h, u64::from(v.to_bits()));
    }
    (h ^ (h >> 29)) as usize
}

/// Bitwise row equality: `+0.0` and `-0.0` differ, and so do NaN payloads.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Reusable per-replay scratch: one buffer per computed step, an input
/// staging matrix, and each window's row groups. Buffers grow to the
/// largest batch replayed through them and are then reused allocation-free;
/// contents are meaningless between replays.
pub struct PlanBuffers {
    bufs: Vec<Matrix>,
    input_scratch: Matrix,
    groups: Vec<RowGroups>,
}

impl Default for PlanBuffers {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanBuffers {
    /// An empty arena; [`CompiledPlan::execute`] sizes it on first use.
    pub fn new() -> Self {
        Self { bufs: Vec::new(), input_scratch: Matrix::default(), groups: Vec::new() }
    }

    /// Footprint of the arena in bytes: the capacity of every intermediate
    /// and gather buffer, the input staging matrix, and the row-group index
    /// vectors. Capacity, not length: a buffer keeps its allocation when a
    /// smaller batch reshapes it. Feeds the `tensor.plan.pool.bytes` memory
    /// gauge.
    pub fn logical_bytes(&self) -> u64 {
        let elems: usize = self
            .bufs
            .iter()
            .map(Matrix::capacity)
            .sum::<usize>()
            .saturating_add(self.input_scratch.capacity());
        let groups: usize = self.groups.iter().map(RowGroups::capacity_bytes).sum();
        (elems * 4 + groups) as u64
    }
}

/// A mutex-guarded stash of [`PlanBuffers`] so concurrent chunk workers
/// reuse warm arenas instead of reallocating. Locks are held only for the
/// `pop`/`push` themselves — never across kernel dispatch — and a poisoned
/// mutex is recovered (the stash holds scratch, never results).
#[derive(Default)]
pub struct BufferPool {
    slots: Mutex<Vec<PlanBuffers>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a warm arena if one is stashed, else a fresh empty one.
    pub fn checkout(&self) -> PlanBuffers {
        let bufs = self.slots.lock().unwrap_or_else(|e| e.into_inner()).pop().unwrap_or_default();
        // The gauge tracks bytes *parked* in the pool: checked-out arenas
        // leave it, returned arenas re-enter at their (possibly grown) size.
        adamel_obs::mem::sub("tensor.plan.pool.bytes", bufs.logical_bytes());
        bufs
    }

    /// Returns an arena to the pool for the next checkout.
    pub fn put_back(&self, bufs: PlanBuffers) {
        adamel_obs::mem::add("tensor.plan.pool.bytes", bufs.logical_bytes());
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).push(bufs);
    }
}

/// The index of `item` in `items`, appended first if absent.
fn intern<T: PartialEq>(items: &mut Vec<T>, item: T) -> usize {
    items.iter().position(|x| *x == item).unwrap_or_else(|| {
        items.push(item);
        items.len() - 1
    })
}

fn resolved(src: &[Option<Src>], v: Var) -> Src {
    src[v.index()].expect("plan compile: operand recorded after its use")
}

/// The step list under construction, with each buffer's window tag.
#[derive(Default)]
struct Emitter {
    steps: Vec<Step>,
    /// The window each buffer is a row-local function of, if any.
    buf_window: Vec<Option<usize>>,
    /// The `Gather` output of each tagged buffer, once one is emitted.
    gathered: Vec<Option<usize>>,
}

impl Emitter {
    /// Appends `op`, tagged with its window, and returns its buffer. An
    /// untagged op reads each tagged operand through its `Gather`.
    fn push(&mut self, op: StepOp) -> usize {
        let window = op.window(&self.buf_window);
        let op = match op {
            StepOp::Expr(expr) if window.is_none() => StepOp::Expr(expr.map(|s| match s {
                Src::Buf(b) => Src::Buf(self.full_rows(b)),
                s => s,
            })),
            op => op,
        };
        let out = self.steps.len();
        self.buf_window.push(window);
        self.gathered.push(None);
        self.steps.push(Step { op, out });
        out
    }

    /// The buffer holding buffer `i` at one row per input row, emitting
    /// the `Gather` step a tagged buffer needs on first use.
    fn full_rows(&mut self, i: usize) -> usize {
        let Some(window) = self.buf_window[i] else {
            return i;
        };
        match self.gathered[i] {
            Some(buf) => buf,
            None => {
                let buf = self.push(StepOp::Gather { src: i, window });
                self.gathered[i] = Some(buf);
                buf
            }
        }
    }
}

impl CompiledPlan {
    /// Compiles the subgraph of `g` that `outputs` depend on, treating
    /// `input` as the replay-time batch leaf. Nodes the outputs don't reach
    /// are pruned (so a plan for the attention head alone skips the
    /// classifier). The probe graph's batch size is read from `input` and
    /// only used to find batch-sized constants; replays accept any row
    /// count with `input`'s column width.
    pub fn compile(g: &Graph, input: Var, outputs: &[Var]) -> Result<CompiledPlan, PlanError> {
        let tape = g.tape();
        let probe_rows = g.value(input).rows();
        let input_cols = g.value(input).cols();

        let mut needed = vec![false; tape.len()];
        let mut stack: Vec<usize> = outputs.iter().map(|v| v.index()).collect();
        while let Some(i) = stack.pop() {
            if needed[i] {
                continue;
            }
            needed[i] = true;
            if i == input.index() {
                continue;
            }
            if let Op::Expr(expr) = &tape[i].op {
                stack.extend(expr.operands().into_iter().map(Var::index));
            }
        }

        let mut src: Vec<Option<Src>> = vec![None; tape.len()];
        let mut packed: Vec<ParamId> = Vec::new();
        let mut consts = Vec::new();
        let mut windows: Vec<(usize, usize)> = Vec::new();
        let mut emit = Emitter::default();
        for (i, node) in tape.iter().enumerate() {
            if !needed[i] {
                continue;
            }
            if i == input.index() {
                src[i] = Some(Src::Input);
                continue;
            }
            let op = match &node.op {
                Op::Constant if node.value.rows() == probe_rows => {
                    // Batch-sized: replayable only as one row repeated,
                    // so every row must match the first bit for bit.
                    let v = &node.value;
                    let differs = |r: usize| {
                        v.row(r).iter().zip(v.row(0)).any(|(a, b)| a.to_bits() != b.to_bits())
                    };
                    if probe_rows == 0 || (1..probe_rows).any(differs) {
                        return Err(PlanError::ScalingConstant);
                    }
                    consts.push(v.slice_rows(0, 1));
                    StepOp::FillRows(consts.len() - 1)
                }
                Op::Constant => {
                    consts.push(node.value.clone());
                    src[i] = Some(Src::Const(consts.len() - 1));
                    continue;
                }
                Op::Param(id) => {
                    src[i] = Some(Src::Param(*id));
                    continue;
                }
                Op::Expr(expr) if expr.is_training_only() => {
                    return Err(PlanError::UnsupportedOp(expr.name()))
                }
                Op::Expr(expr) => match expr.map(|v| resolved(&src, v)) {
                    // The product's width is its right operand's.
                    Expr::MatMul(a, Src::Param(param)) if node.value.cols() >= NR => {
                        StepOp::MatMulPacked { a, param, slot: intern(&mut packed, param) }
                    }
                    Expr::SliceCols { input: Src::Input, start, width } => {
                        StepOp::WindowRows(intern(&mut windows, (start, width)))
                    }
                    expr => StepOp::Expr(expr),
                },
            };
            src[i] = Some(Src::Buf(emit.push(op)));
        }

        let outputs = outputs
            .iter()
            .map(|v| match src[v.index()] {
                Some(Src::Buf(b)) => Ok(emit.full_rows(b)),
                _ => Err(PlanError::UnsupportedOutput),
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(CompiledPlan {
            steps: emit.steps,
            consts,
            outputs,
            input_cols,
            windows,
            packed,
            packs: Mutex::new(None),
        })
    }

    /// The packs for `params`' current generation: the cached ones if they
    /// match, else fresh ones, packed outside the lock and then cached.
    fn packs_for(&self, params: &ParamSet) -> Arc<PackedParams> {
        let cached = self.packs.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if let Some(packs) = cached.filter(|p| p.generation == params.generation()) {
            return packs;
        }
        let fresh = Arc::new(PackedParams::pack(params, &self.packed));
        *self.packs.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&fresh));
        fresh
    }

    /// Number of replayable steps after pruning.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of requested outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Column width every replay input must have.
    pub fn input_cols(&self) -> usize {
        self.input_cols
    }

    /// Replays the plan over `input` (any row count, compile-time column
    /// width), reading parameters from `params` (packing its weights first
    /// if their generation moved) and writing every intermediate into
    /// `bufs`. Values are bit-identical to recording the same ops on a
    /// fresh tape.
    pub fn execute(&self, params: &ParamSet, input: &Matrix, bufs: &mut PlanBuffers) {
        adamel_obs::trace_span!("plan_replay");
        adamel_obs::trace_count!("plan.replays", 1);
        assert_eq!(
            input.cols(),
            self.input_cols,
            "CompiledPlan::execute: input width {} != compiled width {}",
            input.cols(),
            self.input_cols
        );
        if bufs.bufs.len() < self.steps.len() {
            bufs.bufs.resize_with(self.steps.len(), Matrix::default);
        }
        if bufs.groups.len() < self.windows.len() {
            bufs.groups.resize_with(self.windows.len(), RowGroups::default);
        }
        let groups = &mut bufs.groups[..self.windows.len()];
        for (g, &(start, width)) in groups.iter_mut().zip(&self.windows) {
            g.group(input, start, width);
        }
        if adamel_obs::enabled() {
            let distinct = groups.iter().map(|g| g.first_rows.len()).sum::<usize>();
            adamel_obs::trace_count!("plan.window_rows", (groups.len() * input.rows()) as u64);
            adamel_obs::trace_count!("plan.window_distinct_rows", distinct as u64);
        }
        let groups = &bufs.groups;
        let packs = self.packs_for(params);
        for step in &self.steps {
            // SSA: `out` strictly exceeds every operand buffer index, so
            // splitting at it hands out disjoint borrows.
            let (head, tail) = bufs.bufs.split_at_mut(step.out);
            let out = &mut tail[0];
            let val = |s: Src| -> &Matrix {
                match s {
                    Src::Input => input,
                    Src::Const(i) => &self.consts[i],
                    Src::Param(id) => params.value(id),
                    Src::Buf(i) => &head[i],
                }
            };
            match &step.op {
                StepOp::Expr(expr) => expr.forward_into(val, out),
                StepOp::MatMulPacked { a, param, slot } => {
                    val(*a).matmul_packed_into(params.value(*param), &packs.packs[*slot], out);
                    sanitize::check_finite("matmul", out);
                }
                StepOp::FillRows(c) => {
                    // Copies of a constant the tape sanitized at record.
                    let row = self.consts[*c].as_slice();
                    out.reset_shape(input.rows(), row.len());
                    for r in 0..input.rows() {
                        out.row_mut(r).copy_from_slice(row);
                    }
                }
                StepOp::WindowRows(w) => {
                    let (start, width) = self.windows[*w];
                    groups[*w].distinct_rows(input, start, width, out);
                    sanitize::check_finite("slice_cols", out);
                }
                // The tagged source already passed the sanitizer.
                StepOp::Gather { src, window } => groups[*window].gather(&head[*src], out),
            }
        }
    }

    /// Replays over rows `[start, start + rows)` of `full` without slicing
    /// an owned copy per call: the rows are staged into the arena's input
    /// scratch (a `memcpy` into a reused allocation) and replayed from
    /// there. This is the chunked-inference entry point.
    pub fn execute_rows(
        &self,
        params: &ParamSet,
        full: &Matrix,
        start: usize,
        rows: usize,
        bufs: &mut PlanBuffers,
    ) {
        let mut scratch = std::mem::take(&mut bufs.input_scratch);
        scratch.assign_rows_from(full, start, rows);
        self.execute(params, &scratch, bufs);
        bufs.input_scratch = scratch;
    }

    /// The row count of every product by `param`, in step order, after the
    /// latest [`execute`](Self::execute) into `bufs`. A product tagged with
    /// an input window ran over that window's distinct rows only; an
    /// untagged one over every input row.
    pub fn product_rows(&self, param: ParamId, bufs: &PlanBuffers) -> Vec<usize> {
        self.steps
            .iter()
            .filter(|s| match s.op {
                StepOp::MatMulPacked { param: p, .. }
                | StepOp::Expr(Expr::MatMul(_, Src::Param(p))) => p == param,
                _ => false,
            })
            .map(|s| bufs.bufs[s.out].rows())
            .collect()
    }

    /// The value of requested output `i` after the latest
    /// [`execute`](Self::execute) into `bufs`.
    pub fn output<'a>(&self, i: usize, bufs: &'a PlanBuffers) -> &'a Matrix {
        &bufs.bufs[self.outputs[i]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;

    /// Records a tiny two-layer forward and returns everything a replay
    /// needs: `relu(x @ w + b)` then row-softmax.
    fn record(params: &ParamSet, w: ParamId, b: ParamId, x: Matrix) -> (Graph, Var, Var) {
        let mut g = Graph::new();
        let input = g.constant(x);
        let wv = g.param(params, w);
        let bv = g.param(params, b);
        let h = g.linear_relu(input, wv, bv);
        let out = g.softmax_rows(h);
        (g, input, out)
    }

    fn setup() -> (ParamSet, ParamId, ParamId) {
        let mut params = ParamSet::new();
        let w =
            params.insert("w", Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.25, -0.75]]));
        let b = params.insert("b", Matrix::from_rows(&[vec![0.1, -0.2, 0.3]]));
        (params, w, b)
    }

    fn batch(rows: usize, seed: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            2,
            (0..rows * 2).map(|i| ((i as f32 * 0.37 + seed).sin()) * 2.0).collect(),
        )
    }

    #[test]
    fn replay_matches_tape_at_other_batch_sizes() {
        let (params, w, b) = setup();
        let (g, input, out) = record(&params, w, b, batch(2, 0.0));
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("compiles");
        let mut bufs = PlanBuffers::new();
        for rows in [1, 2, 5, 17] {
            let x = batch(rows, 1.5);
            let (g2, _, out2) = record(&params, w, b, x.clone());
            plan.execute(&params, &x, &mut bufs);
            assert_eq!(plan.output(0, &bufs).as_slice(), g2.value(out2).as_slice(), "rows={rows}");
        }
    }

    #[test]
    fn replay_reads_live_parameter_values() {
        let (mut params, w, b) = setup();
        let (g, input, out) = record(&params, w, b, batch(2, 0.0));
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("compiles");
        // Mutate parameters after compilation; the plan must see the update.
        let snapshot: Vec<Matrix> = params.snapshot().iter().map(|m| m.scale(-0.5)).collect();
        params.restore(&snapshot);
        let x = batch(3, 2.0);
        let (g2, _, out2) = record(&params, w, b, x.clone());
        let mut bufs = PlanBuffers::new();
        plan.execute(&params, &x, &mut bufs);
        assert_eq!(plan.output(0, &bufs).as_slice(), g2.value(out2).as_slice());
    }

    #[test]
    fn packed_weights_follow_every_kind_of_parameter_mutation() {
        // Wide enough (and, at 17+ rows, big enough) that `x · w` takes the
        // blocked kernel over the plan's pack of `w`.
        let (k, m) = (16, 2 * crate::gemm::NR);
        let grid = |rows: usize, cols: usize, seed: f32| {
            Matrix::from_vec(
                rows,
                cols,
                (0..rows * cols).map(|i| ((i as f32 * 0.61 + seed).sin()) * 1.5).collect(),
            )
        };
        let mut params = ParamSet::new();
        let w = params.insert("w", grid(k, m, 0.3));
        let b = params.insert("b", grid(1, m, 0.9));
        let record = |params: &ParamSet, x: Matrix| record(params, w, b, x);
        let (g, input, out) = record(&params, Matrix::zeros(2, k));
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("compiles");
        assert_eq!(plan.packed, vec![w], "the weight is packed, the bias is not");

        let mut bufs = PlanBuffers::new();
        let mut check = |params: &ParamSet, label: &str| {
            for rows in [17, 33] {
                let x = grid(rows, k, rows as f32);
                let (g2, _, out2) = record(params, x.clone());
                plan.execute(params, &x, &mut bufs);
                assert_eq!(
                    plan.output(0, &bufs).as_slice(),
                    g2.value(out2).as_slice(),
                    "{label}, rows={rows}"
                );
            }
        };
        check(&params, "fresh");
        params.value_mut(w).as_mut_slice()[0] += 1.0;
        check(&params, "value_mut");
        let (value, _) = params.value_and_grad_mut(w);
        value.as_mut_slice()[m + 1] -= 2.0;
        check(&params, "value_and_grad_mut");
        let flipped: Vec<Matrix> = params.snapshot().iter().map(|v| v.scale(-0.5)).collect();
        params.restore(&flipped);
        check(&params, "restore");
        // Another set with the same shapes is another generation too.
        let mut other = ParamSet::new();
        other.insert("w", grid(k, m, 2.0));
        other.insert("b", grid(1, m, 2.5));
        check(&other, "other set");
        check(&params, "back to the first set");
    }

    #[test]
    fn execute_rows_matches_whole_batch_slice() {
        let (params, w, b) = setup();
        let (g, input, out) = record(&params, w, b, batch(2, 0.0));
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("compiles");
        let full = batch(9, 0.25);
        let mut bufs = PlanBuffers::new();
        plan.execute_rows(&params, &full, 3, 4, &mut bufs);
        let window = plan.output(0, &bufs).clone();
        plan.execute(&params, &full.slice_rows(3, 4), &mut bufs);
        assert_eq!(window.as_slice(), plan.output(0, &bufs).as_slice());
    }

    /// Records `relu(x @ w + b) * c`, with `c` a batch-sized constant whose
    /// rows come from `row_of(r)`.
    fn record_with_constant(
        params: &ParamSet,
        w: ParamId,
        b: ParamId,
        x: Matrix,
        row_of: impl Fn(usize) -> Vec<f32>,
    ) -> (Graph, Var, Var) {
        let mut g = Graph::new();
        let n = x.rows();
        let input = g.constant(x);
        let wv = g.param(params, w);
        let bv = g.param(params, b);
        let h = g.linear_relu(input, wv, bv);
        let rows: Vec<Vec<f32>> = (0..n).map(&row_of).collect();
        let c = g.constant(Matrix::from_rows(&rows));
        let out = g.mul(h, c);
        (g, input, out)
    }

    #[test]
    fn identical_row_constant_replays_as_a_row_fill() {
        // The uniform-attention shape: an `n x k` constant whose rows are
        // all the same compiles, and replays at every batch size as if it
        // had been recorded at that size.
        let (params, w, b) = setup();
        let uniform = |_: usize| vec![1.0 / 3.0; 3];
        let (g, input, out) = record_with_constant(&params, w, b, batch(2, 0.0), uniform);
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("row-fill constant compiles");
        let mut bufs = PlanBuffers::new();
        for rows in [1, 2, 5, 17] {
            let x = batch(rows, 0.75);
            let (g2, _, out2) = record_with_constant(&params, w, b, x.clone(), uniform);
            plan.execute(&params, &x, &mut bufs);
            assert_eq!(plan.output(0, &bufs).as_slice(), g2.value(out2).as_slice(), "rows={rows}");
        }
    }

    #[test]
    fn scaling_constant_is_rejected() {
        // A batch-sized constant whose rows differ has no row-fill replay.
        let (params, w, b) = setup();
        let varying = |r: usize| vec![r as f32, 1.0, 2.0];
        let (g, input, out) = record_with_constant(&params, w, b, batch(4, 0.0), varying);
        assert!(matches!(
            CompiledPlan::compile(&g, input, &[out]),
            Err(PlanError::ScalingConstant)
        ));
    }

    #[test]
    fn training_only_ops_are_rejected_when_reachable_and_pruned_otherwise() {
        let (params, w, b) = setup();
        let (mut g, input, out) = record(&params, w, b, batch(2, 0.0));
        let logits = g.slice_cols(out, 0, 1);
        let losses = [
            ("mean_all", g.mean_all(out)),
            ("sum_all", g.sum_all(out)),
            (
                "weighted_bce_with_logits",
                g.weighted_bce_with_logits(logits, Matrix::zeros(2, 1), Matrix::full(2, 1, 0.5)),
            ),
            ("kl_const_rows", g.kl_const_rows(out, Matrix::full(1, 3, 1.0 / 3.0), 1e-7)),
        ];
        for (name, loss) in losses {
            // Loss reachable from the requested output set -> unsupported.
            assert_eq!(
                CompiledPlan::compile(&g, input, &[out, loss]).err(),
                Some(PlanError::UnsupportedOp(name))
            );
        }
        // Same tape, inference output only -> every loss node is pruned away.
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("prunes the losses");
        assert_eq!(plan.num_outputs(), 1);
    }

    #[test]
    fn leaf_outputs_are_rejected() {
        let (params, w, b) = setup();
        let (g, input, _) = record(&params, w, b, batch(2, 0.0));
        assert!(matches!(
            CompiledPlan::compile(&g, input, &[input]),
            Err(PlanError::UnsupportedOutput)
        ));
    }

    #[test]
    fn buffer_pool_recycles_arenas() {
        let pool = BufferPool::new();
        let (params, w, b) = setup();
        let (g, input, out) = record(&params, w, b, batch(2, 0.0));
        let plan = CompiledPlan::compile(&g, input, &[out]).expect("compiles");
        let mut bufs = pool.checkout();
        plan.execute(&params, &batch(6, 0.0), &mut bufs);
        pool.put_back(bufs);
        // The recycled arena must replay correctly at a different size.
        let mut bufs = pool.checkout();
        let x = batch(3, 4.0);
        let (g2, _, out2) = record(&params, w, b, x.clone());
        plan.execute(&params, &x, &mut bufs);
        assert_eq!(plan.output(0, &bufs).as_slice(), g2.value(out2).as_slice());
        pool.put_back(bufs);
    }

    /// A `rows x 4` batch of distinct rows.
    fn wide(rows: usize, seed: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            4,
            (0..rows * 4).map(|i| ((i as f32 * 0.53 + seed).sin()) * 2.0).collect(),
        )
    }

    /// Records the two-window program the grouping tests share over `x`
    /// (`n x 4`, windows `[0, 2)` and `[2, 4)`): per window
    /// `t_k = tanh(relu(x_k · w + b))`, then the untagged `concat_cols` of
    /// both and the tagged `t_0` as outputs, with `scale(x_0, -1)` last so a
    /// merged `+0.0`/`-0.0` row would show in the output's signs.
    fn record_windows(
        params: &ParamSet,
        w: ParamId,
        b: ParamId,
        x: Matrix,
    ) -> (Graph, Var, [Var; 3]) {
        let mut g = Graph::new();
        let input = g.constant(x);
        let wv = g.param(params, w);
        let bv = g.param(params, b);
        let mut ts = Vec::new();
        for start in [0, 2] {
            let x_k = g.slice_cols(input, start, 2);
            let h = g.linear_relu(x_k, wv, bv);
            ts.push(g.tanh(h));
        }
        let both = g.concat_cols(&ts);
        let x_0 = g.slice_cols(input, 0, 2);
        let negated = g.scale(x_0, -1.0);
        (g, input, [both, ts[0], negated])
    }

    /// Replays the two-window program over `x` and requires every output to
    /// equal a fresh tape bit for bit; returns the arena for inspection.
    fn replay_windows(x: &Matrix) -> (CompiledPlan, PlanBuffers) {
        let (params, w, b) = setup();
        let (g, input, outs) = record_windows(&params, w, b, wide(2, 0.0));
        let plan = CompiledPlan::compile(&g, input, &outs).expect("compiles");
        let mut bufs = PlanBuffers::new();
        plan.execute(&params, x, &mut bufs);
        let (g2, _, outs2) = record_windows(&params, w, b, x.clone());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, &v) in outs2.iter().enumerate() {
            assert_eq!(plan.output(i, &bufs).shape(), g2.value(v).shape(), "output {i}");
            assert_eq!(bits(plan.output(i, &bufs)), bits(g2.value(v)), "output {i}");
        }
        (plan, bufs)
    }

    fn distinct_per_window(bufs: &PlanBuffers) -> Vec<usize> {
        bufs.groups.iter().map(|g| g.first_rows.len()).collect()
    }

    #[test]
    fn window_of_equal_rows_runs_once_and_gathers() {
        let x = Matrix::from_rows(&vec![vec![0.5, -1.25, 2.0, 0.75]; 9]);
        let (plan, bufs) = replay_windows(&x);
        assert_eq!(plan.windows, vec![(0, 2), (2, 2)]);
        assert_eq!(distinct_per_window(&bufs), vec![1, 1]);
        assert!(plan.steps.iter().any(|s| matches!(s.op, StepOp::Gather { .. })));
    }

    #[test]
    fn window_of_distinct_rows_matches_the_tape() {
        let (_, bufs) = replay_windows(&wide(7, 0.3));
        assert_eq!(distinct_per_window(&bufs), vec![7, 7]);
    }

    #[test]
    fn signed_zero_rows_stay_distinct() {
        // Rows 0/1 and 2/3 differ only in the sign of one zero.
        let x = Matrix::from_rows(&[
            vec![0.0, 1.5, 0.0, -0.5],
            vec![-0.0, 1.5, 0.0, -0.5],
            vec![0.0, 1.5, -0.0, -0.5],
            vec![0.0, 1.5, 0.0, -0.5],
        ]);
        let (_, bufs) = replay_windows(&x);
        assert_eq!(distinct_per_window(&bufs), vec![2, 2]);
    }

    #[test]
    fn row_groups_key_on_bit_patterns() {
        // Signed zeros and NaN payloads stay apart; ids follow first sight.
        let nan = |payload: u32| f32::from_bits(0x7fc0_0000 | payload);
        let col = [0.0, -0.0, nan(1), nan(2), nan(1), 0.0, -0.0, nan(2)];
        let x = Matrix::from_vec(col.len(), 2, col.iter().flat_map(|&v| [1.5, v]).collect());
        let mut groups = RowGroups::default();
        groups.group(&x, 0, 2);
        assert_eq!(groups.id_of_row, vec![0, 1, 2, 3, 2, 0, 1, 3]);
        assert_eq!(groups.first_rows, vec![0, 1, 2, 3]);
        // The window `[0, 1)` holds only the constant column.
        groups.group(&x, 0, 1);
        assert_eq!(groups.first_rows, vec![0]);
    }

    #[test]
    fn tagged_output_and_two_window_concat_match_the_tape() {
        // Repeats within each window, in different patterns per window,
        // at a row count unlike the 2-row probe.
        let rows: Vec<Vec<f32>> = (0..13)
            .map(|r| {
                let (a, b) = ((r % 3) as f32, (r % 5) as f32);
                vec![a * 0.7 - 1.0, a * 0.3, b * -0.4, 1.0 - b * 0.2]
            })
            .collect();
        let (plan, bufs) = replay_windows(&Matrix::from_rows(&rows));
        assert_eq!(distinct_per_window(&bufs), vec![3, 5]);
        // `t_0` is an output straight from its window, so it is gathered.
        let t_0 = plan.steps.iter().find(|s| s.out == plan.outputs[1]).expect("output step");
        assert!(matches!(t_0.op, StepOp::Gather { window: 0, .. }));
        assert_eq!(plan.output(1, &bufs).rows(), 13);
    }

    #[test]
    fn logical_bytes_count_gather_buffers_and_row_indices() {
        let x = Matrix::from_rows(&vec![vec![1.0, 2.0, 3.0, 4.0]; 16]);
        let (plan, bufs) = replay_windows(&x);
        let gathered: usize = plan
            .steps
            .iter()
            .filter(|s| matches!(s.op, StepOp::Gather { .. }))
            .map(|s| bufs.bufs[s.out].capacity())
            .sum();
        assert!(gathered >= 16 * 2, "the gathered `t_k` rows: {gathered}");
        let index_words: usize = bufs
            .groups
            .iter()
            .map(|g| g.id_of_row.capacity() + g.first_rows.capacity() + g.table.capacity())
            .sum();
        assert!(index_words >= 2 * (16 + 1 + 32), "row ids, first rows and tables: {index_words}");
        let elems: usize = bufs.bufs.iter().map(Matrix::capacity).sum();
        let expected = elems * 4 + index_words * std::mem::size_of::<usize>();
        assert_eq!(bufs.logical_bytes(), expected as u64);
    }
}
