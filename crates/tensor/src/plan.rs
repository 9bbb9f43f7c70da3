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
//! lands in reusable [`PlanBuffers`] arenas — replay performs no graph
//! construction and no parameter clones.
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
//! fills, input leaves' rows and gathers (below).
//! The equivalence suite in `adamel` still compares the plan against one
//! `forward_graph` tape bit-for-bit across chunk boundaries and feature
//! modes.
//!
//! ## Shape specialization
//!
//! A plan is *row-polymorphic*: the probe batch fixes every column width
//! while row counts follow the replay input. A constant that is not an
//! input leaf and whose row count matches the probe's leaves is taken to
//! scale with the batch. When its rows are all identical (the
//! uniform-attention ablation's `n x F` matrix of `1/F`), the plan keeps
//! one row and replays it as a row fill at the replay's row count; when
//! they differ, no replay can reproduce it and [`CompiledPlan::compile`]
//! rejects it ([`PlanError::ScalingConstant`]).
//! Loss/reduction ops are recording-only and likewise rejected when
//! reachable from the requested outputs.
//!
//! ## Encoded blocks and the two replay phases
//!
//! The replay input is an [`EncodedBlocks`]: per feature, a table of its
//! distinct `D`-wide blocks, and per pair, the table row of each feature.
//! The tape records feature `j` as its own grouped leaf (the distinct
//! blocks of table `j` and each pair's row among them), and compile takes
//! those leaves in feature order: leaf `j` is window `j`, whose distinct
//! rows are table `j` and whose row map is index column `j`. Compile tags
//! the leaf with its window and each computed step with the window
//! `Expr::row_group` finds it row-local in, a buffer's layout being its
//! window and a `Param`/`Const` a broadcast leaf. That is the rule by
//! which the tape runs an op once per distinct row of a grouped leaf.
//!
//! Replay then runs in two phases over the whole call:
//!
//! 1. **Window phase** ([`CompiledPlan::execute_windows`]): each window's
//!    tagged steps run over its distinct rows, [`BLOCK_CHUNK_ROWS`] at a
//!    time, the chunks spread over worker threads. Only the tagged buffers
//!    an untagged step or a requested output reads are kept.
//! 2. **Pair phase** ([`CompiledPlan::execute_rows`]): the untagged steps
//!    run over a range of pairs; a `Gather` step copies a kept buffer's row
//!    for each pair of the range, found through its window's index column.
//!
//! Every row is still computed by the same kernel from the same row, and
//! the blocked and naive GEMM paths agree bit for bit on finite input, so
//! a replay equals the tape bit for bit. At `spans` and above the
//! `plan.window_rows` and `plan.window_distinct_rows` counters sum each
//! call's pair rows and distinct rows over its windows.

use crate::expr::{Expr, RowOperand};
use crate::gemm::{PackedB, NR};
use crate::graph::{Graph, Op, Var};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamSet};
use crate::{parallel, sanitize};
use adamel_obs::mem::MemScope;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Distinct rows one window-phase task replays: the window phase splits
/// each window's distinct rows into chunks of this many. Chunk boundaries
/// never change a value, since every tagged step is row-local.
pub const BLOCK_CHUNK_ROWS: usize = 128;

/// The memory gauge [`BufferPool`] reports into.
const POOL_GAUGE: &str = "tensor.plan.pool.bytes";

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

/// A batch of encoded pairs as per-feature tables of distinct blocks.
///
/// Pair `r`'s feature `j` is row [`id(r, j)`](Self::id) of
/// [`table(j)`](Self::table), a `dim`-wide block. Laid side by side, the
/// `F` blocks of a pair are its dense `1 x F·dim` row. This is the input of
/// both forwards: the tape records [`distinct(j, ..)`](Self::distinct) as
/// feature `j`'s grouped leaf, and a compiled plan reads the tables and the
/// index directly.
#[derive(Debug, Clone)]
pub struct EncodedBlocks {
    rows: usize,
    dim: usize,
    tables: Vec<Matrix>,
    /// `rows x F`, row-major: the table row of each pair's feature.
    index: Vec<u32>,
}

impl EncodedBlocks {
    /// Wraps per-feature tables (`dim` columns each) and a row-major
    /// `rows x tables.len()` index into them.
    ///
    /// # Panics
    ///
    /// If a table is not `dim` wide, the index is not `rows x F`, or an
    /// index entry is past its table.
    pub fn new(rows: usize, dim: usize, tables: Vec<Matrix>, index: Vec<u32>) -> Self {
        let f = tables.len();
        assert!(tables.iter().all(|t| t.cols() == dim), "EncodedBlocks: a table is not {dim} wide");
        assert_eq!(index.len(), rows * f, "EncodedBlocks: the index is not rows x features");
        let in_range = index
            .chunks(f.max(1))
            .all(|ids| ids.iter().zip(&tables).all(|(&id, t)| (id as usize) < t.rows()));
        assert!(in_range, "EncodedBlocks: an index entry is past its table");
        Self { rows, dim, tables, index }
    }

    /// Groups each `dim`-wide column block of `dense` by bit pattern: `+0.0`
    /// and `-0.0` stay apart, and so do NaN payloads; ids count up in
    /// first-seen row order. This is how a caller holding only a dense
    /// matrix (the oracle fuzzer, the tests) builds a replay input.
    ///
    /// # Panics
    ///
    /// If `dim` is 0 or does not divide `dense`'s width.
    pub fn from_dense(dense: &Matrix, dim: usize) -> Self {
        assert!(
            dim > 0 && dense.cols() % dim == 0,
            "EncodedBlocks::from_dense: width {} is not a multiple of {dim}",
            dense.cols()
        );
        let f = dense.cols() / dim;
        let mut index = vec![0u32; dense.rows() * f];
        let tables = (0..f)
            .map(|j| {
                let (table, ids) = group_bits(dense, j * dim, dim);
                for (r, id) in ids.into_iter().enumerate() {
                    index[r * f + j] = id;
                }
                table
            })
            .collect();
        Self::new(dense.rows(), dim, tables, index)
    }

    /// Number of pairs.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of features `F`.
    pub fn features(&self) -> usize {
        self.tables.len()
    }

    /// Width of one block.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Feature `j`'s distinct blocks, one per row.
    pub fn table(&self, j: usize) -> &Matrix {
        &self.tables[j]
    }

    /// The row of [`table(j)`](Self::table) holding pair `r`'s feature `j`.
    pub fn id(&self, r: usize, j: usize) -> usize {
        self.index[r * self.features() + j] as usize
    }

    /// Feature `j`'s distinct blocks among the pairs `pairs`, in
    /// first-seen order, and each pair's row among them: the arguments of
    /// [`Graph::constant_grouped`]. Over every pair in order they are table
    /// `j` and index column `j`.
    pub fn distinct(&self, j: usize, pairs: &[usize]) -> (Matrix, Vec<usize>) {
        let mut local: BTreeMap<usize, usize> = BTreeMap::new();
        let mut picked = Vec::new();
        let rows = pairs
            .iter()
            .map(|&r| {
                let id = self.id(r, j);
                *local.entry(id).or_insert_with(|| {
                    picked.push(id);
                    picked.len() - 1
                })
            })
            .collect();
        (self.tables[j].select_rows(&picked), rows)
    }

    /// The dense `rows x F·dim` matrix: each pair's blocks side by side.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.features() * self.dim);
        for r in 0..self.rows {
            let row = out.row_mut(r);
            for (j, dst) in row.chunks_exact_mut(self.dim.max(1)).enumerate() {
                dst.copy_from_slice(self.tables[j].row(self.id(r, j)));
            }
        }
        out
    }
}

/// Groups the rows of `dense`'s columns `[start, start + width)` by bit
/// pattern, so `+0.0` and `-0.0` stay apart and so do NaN payloads: returns
/// the distinct rows in first-seen order and each row's id among them.
fn group_bits(dense: &Matrix, start: usize, width: usize) -> (Matrix, Vec<u32>) {
    let mut seen: BTreeMap<Vec<u32>, u32> = BTreeMap::new();
    let mut rows = Vec::new();
    let ids = (0..dense.rows())
        .map(|r| {
            let cols = &dense.row(r)[start..start + width];
            let next = seen.len() as u32;
            let bits = cols.iter().map(|v| v.to_bits()).collect();
            *seen.entry(bits).or_insert_with(|| {
                rows.extend_from_slice(cols);
                next
            })
        })
        .collect();
    (Matrix::from_vec(seen.len(), width, rows), ids)
}

/// Where a step operand's value lives at replay time.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// A frozen constant captured at compile time.
    Const(usize),
    /// A parameter, read from the live `ParamSet` by id at replay time.
    Param(ParamId),
    /// An earlier step's output buffer.
    Buf(usize),
}

/// A step both phases run the same way.
enum Kernel {
    /// A recorded op, evaluated exactly as the tape evaluated it.
    Expr(Expr<Src>),
    /// `a · param` replayed over the plan's pack of `param`, in `slot`.
    MatMulPacked { a: Src, param: ParamId, slot: usize },
    /// A batch-sized constant with identical rows: the frozen `1 x k` row
    /// (a `Src::Const`) repeated once per replay row.
    FillRows(usize),
}

/// One replay step: a kernel, or one of the steps that move rows between
/// the phases.
enum StepOp {
    Kernel(Kernel),
    /// An input leaf's distinct rows: the table of the feature its step
    /// is tagged with (window phase only).
    WindowRows,
    /// Kept buffer `src` (`cols` wide), tagged with `window`, at one row
    /// per pair, by the window's index column (pair phase only).
    Gather {
        src: usize,
        window: usize,
        cols: usize,
    },
}

/// A frozen, shape-specialized forward program: compile once, replay many.
pub struct CompiledPlan {
    /// Step `i` writes buffer `i`; every operand buffer of a step lies
    /// before it (SSA discipline).
    steps: Vec<StepOp>,
    consts: Vec<Matrix>,
    /// Buffer index per requested output, in request order.
    outputs: Vec<usize>,
    /// The width of every input leaf.
    dim: usize,
    /// The window each step is tagged with, if any.
    step_window: Vec<Option<usize>>,
    /// Each window's tagged steps, in step order.
    window_steps: Vec<Vec<usize>>,
    /// The tagged buffers of each window that the pair phase reads.
    window_kept: Vec<Vec<usize>>,
    /// The untagged steps, in step order.
    pair_steps: Vec<usize>,
    /// The parameters `MatMulPacked` steps multiply by, in slot order.
    packed: Vec<ParamId>,
    /// Their packs for the latest generation replayed (see the module docs).
    packs: Mutex<Option<Arc<PackedParams>>>,
}

/// The parameters a replay reads, with the packs of their generation.
struct Weights<'a> {
    params: &'a ParamSet,
    packs: Arc<PackedParams>,
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

/// Reusable replay scratch. One arena serves either a call's window phase
/// (it then holds the kept buffers the pair phase reads) or one task: a
/// chunk of one window's distinct rows, or a range of pairs. Buffers grow
/// to the largest task run through them and are then reused; contents are
/// meaningless between replays.
#[derive(Default)]
pub struct PlanBuffers {
    /// One buffer per step.
    bufs: Vec<Matrix>,
    /// Per buffer: a kept buffer's rows for every distinct row of its
    /// window, in [`BLOCK_CHUNK_ROWS`]-row chunks; empty otherwise.
    kept: Vec<Vec<Matrix>>,
    /// Per window: the distinct rows its steps ran over in the call.
    replayed: Vec<usize>,
    /// Bytes the latest use wrote, by length (see
    /// [`logical_bytes`](Self::logical_bytes)).
    need: usize,
}

impl PlanBuffers {
    /// An empty arena; the plan sizes it on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// What the latest use of the arena needed, in bytes, by length rather
    /// than capacity: for a call's window phase, its kept buffers; for one
    /// task, the buffers its steps wrote. Feeds the
    /// `tensor.plan.pool.bytes` memory gauge.
    pub fn logical_bytes(&self) -> u64 {
        self.need as u64
    }

    fn size_for(&mut self, steps: usize) {
        if self.bufs.len() < steps {
            self.bufs.resize_with(steps, Matrix::default);
        }
    }
}

/// A mutex-guarded stash of [`PlanBuffers`] so a plan's tasks reuse warm
/// arenas instead of reallocating. Locks are held only for the `pop`/`push`
/// themselves — never across kernel dispatch — and a poisoned mutex is
/// recovered (the stash holds scratch, never results).
///
/// The pool keeps the largest [`PlanBuffers::logical_bytes`] of any arena
/// returned to it and adds it to the `tensor.plan.pool.bytes` gauge (and
/// takes it back when the pool is dropped). That depends on the replayed
/// inputs alone, never on which arena served which task.
#[derive(Default)]
pub struct BufferPool {
    slots: Mutex<Vec<PlanBuffers>>,
    largest: AtomicU64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a warm arena if one is stashed, else a fresh empty one.
    pub fn checkout(&self) -> PlanBuffers {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).pop().unwrap_or_default()
    }

    /// Returns an arena to the pool for the next checkout, dropping the
    /// kept buffers of a finished call.
    pub fn put_back(&self, mut bufs: PlanBuffers) {
        let need = bufs.logical_bytes();
        let before = self.largest.fetch_max(need, Ordering::Relaxed);
        if need > before {
            adamel_obs::mem::add(POOL_GAUGE, need - before);
        }
        bufs.kept.iter_mut().for_each(Vec::clear);
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).push(bufs);
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        adamel_obs::mem::sub(POOL_GAUGE, *self.largest.get_mut());
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
    steps: Vec<StepOp>,
    /// The window each buffer is a row-local function of, if any.
    buf_window: Vec<Option<usize>>,
    /// Each buffer's column width, from the probe.
    buf_cols: Vec<usize>,
    /// The `Gather` output of each tagged buffer, once one is emitted.
    gathered: Vec<Option<usize>>,
}

impl Emitter {
    /// How buffer or leaf `s` reads in [`Expr::row_group`]: a buffer by its
    /// window, a parameter or frozen constant whole.
    fn layout(&self, s: Src) -> RowOperand<usize> {
        match s {
            Src::Buf(b) => self.buf_window[b].map_or(RowOperand::Ungrouped, RowOperand::Grouped),
            Src::Param(_) | Src::Const(_) => RowOperand::Broadcast,
        }
    }

    /// Appends `op`, tagged with `window`, and returns its buffer. An
    /// untagged op reads each tagged operand through its `Gather`.
    fn push(&mut self, op: StepOp, window: Option<usize>, cols: usize) -> usize {
        let op = match op {
            StepOp::Kernel(Kernel::Expr(expr)) if window.is_none() => {
                StepOp::Kernel(Kernel::Expr(expr.map(|s| match s {
                    Src::Buf(b) => Src::Buf(self.full_rows(b)),
                    s => s,
                })))
            }
            op => op,
        };
        let out = self.steps.len();
        self.buf_window.push(window);
        self.buf_cols.push(cols);
        self.gathered.push(None);
        self.steps.push(op);
        out
    }

    /// The buffer holding buffer `i` at one row per pair, emitting the
    /// `Gather` step a tagged buffer needs on first use.
    fn full_rows(&mut self, i: usize) -> usize {
        let Some(window) = self.buf_window[i] else {
            return i;
        };
        match self.gathered[i] {
            Some(buf) => buf,
            None => {
                let cols = self.buf_cols[i];
                let buf = self.push(StepOp::Gather { src: i, window, cols }, None, cols);
                self.gathered[i] = Some(buf);
                buf
            }
        }
    }
}

impl CompiledPlan {
    /// Compiles the subgraph of `g` that `outputs` depend on, treating
    /// `inputs` as the replay-time batch leaves: leaf `j` is feature `j` of
    /// the [`EncodedBlocks`] a replay reads. The leaves are constants,
    /// grouped ([`Graph::constant_grouped`], as a model's forward records
    /// them) or not. Nodes the outputs don't reach are pruned (so a plan
    /// for the attention head alone skips the classifier). The probe
    /// graph's batch size is the leaves' logical row count and only used to
    /// find batch-sized constants; replays accept any row count with the
    /// leaves' feature count and width.
    ///
    /// # Panics
    ///
    /// If an input is not a constant leaf, or the inputs differ in shape.
    pub fn compile(g: &Graph, inputs: &[Var], outputs: &[Var]) -> Result<CompiledPlan, PlanError> {
        let tape = g.tape();
        let shape = inputs.first().map(|&v| g.value(v).shape());
        let leaf = |v: &Var| matches!(tape[v.index()].op, Op::Constant);
        let fits = inputs.iter().all(|v| leaf(v) && Some(g.value(*v).shape()) == shape);
        assert!(fits, "CompiledPlan::compile: the inputs are not constant leaves of one shape");
        let probe_rows = shape.map(|(rows, _)| rows);

        let mut needed = vec![false; tape.len()];
        let mut stack: Vec<usize> = outputs.iter().map(|v| v.index()).collect();
        while let Some(i) = stack.pop() {
            if needed[i] {
                continue;
            }
            needed[i] = true;
            if let Op::Expr(expr) = &tape[i].op {
                stack.extend(expr.operands().into_iter().map(Var::index));
            }
        }

        let mut src: Vec<Option<Src>> = vec![None; tape.len()];
        let mut packed: Vec<ParamId> = Vec::new();
        let mut consts = Vec::new();
        let mut emit = Emitter::default();
        for (i, node) in tape.iter().enumerate() {
            if !needed[i] {
                continue;
            }
            let cols = node.cols();
            let (op, window) = match &node.op {
                Op::Constant => {
                    let value = g.value(Var(i));
                    match inputs.iter().position(|v| v.index() == i) {
                        Some(w) => (StepOp::WindowRows, Some(w)),
                        None if Some(value.rows()) == probe_rows => {
                            // Batch-sized: replayable only as one row
                            // repeated, so every row must match the first
                            // bit for bit.
                            let differs = |r: usize| {
                                let pairs = value.row(r).iter().zip(value.row(0));
                                pairs.into_iter().any(|(a, b)| a.to_bits() != b.to_bits())
                            };
                            if value.rows() == 0 || (1..value.rows()).any(differs) {
                                return Err(PlanError::ScalingConstant);
                            }
                            consts.push(value.slice_rows(0, 1));
                            (StepOp::Kernel(Kernel::FillRows(consts.len() - 1)), None)
                        }
                        None => {
                            consts.push(value.clone());
                            src[i] = Some(Src::Const(consts.len() - 1));
                            continue;
                        }
                    }
                }
                Op::Param(id) => {
                    src[i] = Some(Src::Param(*id));
                    continue;
                }
                Op::Expr(expr) if expr.is_training_only() => {
                    return Err(PlanError::UnsupportedOp(expr.name()))
                }
                Op::Expr(expr) => {
                    let expr = expr.map(|v| resolved(&src, v));
                    let window = expr.row_group(|s| emit.layout(s));
                    let kernel = match expr {
                        // The product's width is its right operand's.
                        Expr::MatMul(a, Src::Param(param)) if cols >= NR => {
                            Kernel::MatMulPacked { a, param, slot: intern(&mut packed, param) }
                        }
                        expr => Kernel::Expr(expr),
                    };
                    (StepOp::Kernel(kernel), window)
                }
            };
            src[i] = Some(Src::Buf(emit.push(op, window, cols)));
        }

        let outputs = outputs
            .iter()
            .map(|v| match src[v.index()] {
                Some(Src::Buf(b)) if !inputs.contains(v) => Ok(emit.full_rows(b)),
                _ => Err(PlanError::UnsupportedOutput),
            })
            .collect::<Result<Vec<_>, _>>()?;

        let mut window_steps = vec![Vec::new(); inputs.len()];
        let mut window_kept = vec![Vec::new(); inputs.len()];
        let mut pair_steps = Vec::new();
        for (s, window) in emit.buf_window.iter().enumerate() {
            match *window {
                Some(w) if emit.gathered[s].is_some() => {
                    window_steps[w].push(s);
                    window_kept[w].push(s);
                }
                Some(w) => window_steps[w].push(s),
                None => pair_steps.push(s),
            }
        }

        Ok(CompiledPlan {
            steps: emit.steps,
            consts,
            outputs,
            dim: shape.map_or(0, |(_, cols)| cols),
            step_window: emit.buf_window,
            window_steps,
            window_kept,
            pair_steps,
            packed,
            packs: Mutex::new(None),
        })
    }

    /// `params` with the packs for their current generation: the cached
    /// ones if they match, else fresh ones, packed outside the lock and
    /// then cached.
    fn weights<'a>(&self, params: &'a ParamSet) -> Weights<'a> {
        let cached = self.packs.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if let Some(packs) = cached.filter(|p| p.generation == params.generation()) {
            return Weights { params, packs };
        }
        let packs = Arc::new(PackedParams::pack(params, &self.packed));
        *self.packs.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&packs));
        Weights { params, packs }
    }

    /// Number of requested outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Replays both phases over all of `input` into `bufs`, reading
    /// parameters from `params`. Values are bit-identical to recording the
    /// same ops on a fresh tape.
    pub fn execute(&self, params: &ParamSet, input: &EncodedBlocks, bufs: &mut PlanBuffers) {
        self.execute_windows(params, input, &BufferPool::new(), 0, bufs);
        let weights = self.weights(params);
        bufs.size_for(self.steps.len());
        let PlanBuffers { bufs: arena, kept, need, .. } = bufs;
        *need += self.pair_phase(&weights, input, kept, 0, input.rows(), arena);
    }

    /// The window phase of a call over `input` (see the module docs): each
    /// window's tagged steps over its feature's distinct blocks, in chunks
    /// with arenas from `pool`, packing the weights first if their
    /// generation moved. The chunks go to worker threads when the work
    /// clears the dispatch policy at `flops_per_row` estimated FLOPs per
    /// distinct row of every window together (a pair's whole forward).
    /// `call` receives the kept buffers
    /// [`execute_rows`](Self::execute_rows) reads.
    pub fn execute_windows(
        &self,
        params: &ParamSet,
        input: &EncodedBlocks,
        pool: &BufferPool,
        flops_per_row: usize,
        call: &mut PlanBuffers,
    ) {
        adamel_obs::trace_span!("plan_replay");
        adamel_obs::trace_count!("plan.replays", 1);
        let n = self.window_steps.len();
        assert!(
            input.features() == n && input.dim() == self.dim,
            "CompiledPlan::execute_windows: {} features {} wide != compiled {n} features {} wide",
            input.features(),
            input.dim(),
            self.dim
        );
        call.kept.resize_with(self.steps.len(), Vec::new);
        call.kept.iter_mut().for_each(Vec::clear);
        call.replayed.clear();
        call.replayed.resize(n, 0);
        if adamel_obs::enabled() {
            let distinct = (0..n).map(|w| input.table(w).rows()).sum::<usize>();
            adamel_obs::trace_count!("plan.window_rows", (n * input.rows()) as u64);
            adamel_obs::trace_count!("plan.window_distinct_rows", distinct as u64);
        }

        let weights = self.weights(params);
        let chunk_rows =
            |w: usize, first: usize| (input.table(w).rows() - first).min(BLOCK_CHUNK_ROWS);
        let tasks: Vec<(usize, usize)> = (0..n)
            .flat_map(|w| {
                (0..input.table(w).rows()).step_by(BLOCK_CHUNK_ROWS).map(move |first| (w, first))
            })
            .collect();
        let chunk_flops = BLOCK_CHUNK_ROWS * flops_per_row / n.max(1);
        let kept = parallel::parallel_map_collect(tasks.len(), chunk_flops, |t| {
            let (w, first) = tasks[t];
            let mut arena = pool.checkout();
            let rows = chunk_rows(w, first);
            let kept = self.window_chunk(&weights, w, input.table(w), first, rows, &mut arena);
            pool.put_back(arena);
            kept
        });
        for (&(w, first), kept) in tasks.iter().zip(kept) {
            call.replayed[w] += chunk_rows(w, first);
            for (b, rows) in kept {
                call.kept[b].push(rows);
            }
        }
        call.need = 4 * call.kept.iter().flatten().map(Matrix::len).sum::<usize>();
    }

    /// Runs window `w`'s tagged steps over its distinct rows
    /// `[first, first + rows)` of `table` in `arena`, and hands back the
    /// kept buffers.
    fn window_chunk(
        &self,
        weights: &Weights<'_>,
        w: usize,
        table: &Matrix,
        first: usize,
        rows: usize,
        arena: &mut PlanBuffers,
    ) -> Vec<(usize, Matrix)> {
        arena.size_for(self.steps.len());
        for &s in &self.window_steps[w] {
            let (head, tail) = arena.bufs.split_at_mut(s);
            let out = &mut tail[0];
            match &self.steps[s] {
                StepOp::WindowRows => {
                    out.assign_rows_from(table, first, rows);
                    // The op the tape records the leaf as.
                    sanitize::check_finite("constant", out);
                }
                StepOp::Kernel(k) => self.kernel(k, weights, head, rows, out),
                // Never tagged: gathers run in the pair phase.
                StepOp::Gather { .. } => {}
            }
        }
        arena.need = 4 * self.window_steps[w].iter().map(|&s| arena.bufs[s].len()).sum::<usize>();
        self.window_kept[w].iter().map(|&b| (b, std::mem::take(&mut arena.bufs[b]))).collect()
    }

    /// The pair phase over pairs `[start, start + rows)` of `input`, whose
    /// window phase [`execute_windows`](Self::execute_windows) wrote into
    /// `call`, into `bufs`; afterwards [`output`](Self::output) holds one
    /// row per pair of the range. This is the chunked-inference entry
    /// point: ranges of one call may run on several threads at once.
    pub fn execute_rows(
        &self,
        params: &ParamSet,
        input: &EncodedBlocks,
        call: &PlanBuffers,
        start: usize,
        rows: usize,
        bufs: &mut PlanBuffers,
    ) {
        adamel_obs::trace_span!("plan_replay");
        assert!(start + rows <= input.rows(), "CompiledPlan::execute_rows: rows past the call");
        let weights = self.weights(params);
        bufs.size_for(self.steps.len());
        bufs.need = self.pair_phase(&weights, input, &call.kept, start, rows, &mut bufs.bufs);
    }

    /// Runs the untagged steps over pairs `[start, start + rows)` of
    /// `input` into `bufs`; returns the bytes they wrote.
    fn pair_phase(
        &self,
        weights: &Weights<'_>,
        input: &EncodedBlocks,
        kept: &[Vec<Matrix>],
        start: usize,
        rows: usize,
        bufs: &mut [Matrix],
    ) -> usize {
        for &s in &self.pair_steps {
            let (head, tail) = bufs.split_at_mut(s);
            let out = &mut tail[0];
            match &self.steps[s] {
                StepOp::Kernel(k) => self.kernel(k, weights, head, rows, out),
                StepOp::Gather { src, window, cols } => {
                    // The kept rows already passed the sanitizer.
                    let chunks = &kept[*src];
                    out.reset_shape(rows, *cols);
                    for r in 0..rows {
                        let id = input.id(start + r, *window);
                        let chunk = &chunks[id / BLOCK_CHUNK_ROWS];
                        out.row_mut(r).copy_from_slice(chunk.row(id % BLOCK_CHUNK_ROWS));
                    }
                }
                // Always tagged: window rows run in the window phase.
                StepOp::WindowRows => {}
            }
        }
        4 * self.pair_steps.iter().map(|&s| bufs[s].len()).sum::<usize>()
    }

    /// Evaluates `k` into `out`, reading earlier buffers from `head`; a row
    /// fill takes `rows` rows.
    fn kernel(
        &self,
        k: &Kernel,
        weights: &Weights<'_>,
        head: &[Matrix],
        rows: usize,
        out: &mut Matrix,
    ) {
        let Weights { params, packs } = weights;
        let val = |s: Src| -> &Matrix {
            match s {
                Src::Const(i) => &self.consts[i],
                Src::Param(id) => params.value(id),
                Src::Buf(i) => &head[i],
            }
        };
        match k {
            Kernel::Expr(expr) => expr.forward_into(val, out),
            Kernel::MatMulPacked { a, param, slot } => {
                val(*a).matmul_packed_into(params.value(*param), &packs.packs[*slot], out);
                sanitize::check_finite("matmul", out);
            }
            Kernel::FillRows(c) => {
                // Copies of a constant the tape sanitized at record.
                let row = self.consts[*c].as_slice();
                out.reset_shape(rows, row.len());
                for r in 0..rows {
                    out.row_mut(r).copy_from_slice(row);
                }
            }
        }
    }

    /// The row count of every product by `param`, in step order, in the
    /// latest call replayed into `bufs`: for a product tagged with an input
    /// window, the distinct rows the window phase ran it over; for an
    /// untagged one, the pairs of the latest pair-phase range.
    pub fn product_rows(&self, param: ParamId, bufs: &PlanBuffers) -> Vec<usize> {
        self.steps
            .iter()
            .enumerate()
            .filter(|(_, op)| match op {
                StepOp::Kernel(
                    Kernel::MatMulPacked { param: p, .. }
                    | Kernel::Expr(Expr::MatMul(_, Src::Param(p))),
                ) => *p == param,
                _ => false,
            })
            .map(|(s, _)| match self.step_window[s] {
                Some(w) => bufs.replayed[w],
                None => bufs.bufs[s].rows(),
            })
            .collect()
    }

    /// The value of requested output `i` after the latest pair phase into
    /// `bufs`.
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

    /// `x` as the one feature [`record`]'s input leaf reads.
    fn one_feature(x: &Matrix) -> EncodedBlocks {
        EncodedBlocks::from_dense(x, x.cols())
    }

    #[test]
    fn replay_matches_tape_at_other_batch_sizes() {
        let (params, w, b) = setup();
        let (g, input, out) = record(&params, w, b, batch(2, 0.0));
        let plan = CompiledPlan::compile(&g, &[input], &[out]).expect("compiles");
        let mut bufs = PlanBuffers::new();
        for rows in [1, 2, 5, 17] {
            let x = batch(rows, 1.5);
            let (g2, _, out2) = record(&params, w, b, x.clone());
            plan.execute(&params, &one_feature(&x), &mut bufs);
            assert_eq!(plan.output(0, &bufs).as_slice(), g2.value(out2).as_slice(), "rows={rows}");
        }
    }

    #[test]
    fn replay_reads_live_parameter_values() {
        let (mut params, w, b) = setup();
        let (g, input, out) = record(&params, w, b, batch(2, 0.0));
        let plan = CompiledPlan::compile(&g, &[input], &[out]).expect("compiles");
        // Mutate parameters after compilation; the plan must see the update.
        let snapshot: Vec<Matrix> = params.snapshot().iter().map(|m| m.scale(-0.5)).collect();
        params.restore(&snapshot);
        let x = batch(3, 2.0);
        let (g2, _, out2) = record(&params, w, b, x.clone());
        let mut bufs = PlanBuffers::new();
        plan.execute(&params, &one_feature(&x), &mut bufs);
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
        let plan = CompiledPlan::compile(&g, &[input], &[out]).expect("compiles");
        assert_eq!(plan.packed, vec![w], "the weight is packed, the bias is not");

        let mut bufs = PlanBuffers::new();
        let mut check = |params: &ParamSet, label: &str| {
            for rows in [17, 33] {
                let x = grid(rows, k, rows as f32);
                let (g2, _, out2) = record(params, x.clone());
                plan.execute(params, &EncodedBlocks::from_dense(&x, k), &mut bufs);
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
        let plan = CompiledPlan::compile(&g, &[input], &[out]).expect("compiles");
        let full = one_feature(&batch(9, 0.25));
        let mut call = PlanBuffers::new();
        plan.execute_windows(&params, &full, &BufferPool::new(), 0, &mut call);
        let mut bufs = PlanBuffers::new();
        plan.execute_rows(&params, &full, &call, 3, 4, &mut bufs);
        let range = plan.output(0, &bufs).clone();
        plan.execute(&params, &full, &mut bufs);
        assert_eq!(range.as_slice(), plan.output(0, &bufs).slice_rows(3, 4).as_slice());
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
        let plan = CompiledPlan::compile(&g, &[input], &[out]).expect("row-fill constant compiles");
        let mut bufs = PlanBuffers::new();
        for rows in [1, 2, 5, 17] {
            let x = batch(rows, 0.75);
            let (g2, _, out2) = record_with_constant(&params, w, b, x.clone(), uniform);
            plan.execute(&params, &one_feature(&x), &mut bufs);
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
            CompiledPlan::compile(&g, &[input], &[out]),
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
                CompiledPlan::compile(&g, &[input], &[out, loss]).err(),
                Some(PlanError::UnsupportedOp(name))
            );
        }
        // Same tape, inference output only -> every loss node is pruned away.
        let plan = CompiledPlan::compile(&g, &[input], &[out]).expect("prunes the losses");
        assert_eq!(plan.num_outputs(), 1);
    }

    #[test]
    fn leaf_outputs_are_rejected() {
        let (params, w, b) = setup();
        let (g, input, out) = record(&params, w, b, batch(2, 0.0));
        for outputs in [vec![input], vec![out, input]] {
            assert!(matches!(
                CompiledPlan::compile(&g, &[input], &outputs),
                Err(PlanError::UnsupportedOutput)
            ));
        }
    }

    #[test]
    fn buffer_pool_recycles_arenas() {
        let pool = BufferPool::new();
        let (params, w, b) = setup();
        let (g, input, out) = record(&params, w, b, batch(2, 0.0));
        let plan = CompiledPlan::compile(&g, &[input], &[out]).expect("compiles");
        let replay = |x: &Matrix| {
            let input = one_feature(x);
            let mut call = pool.checkout();
            plan.execute_windows(&params, &input, &pool, 0, &mut call);
            let mut bufs = pool.checkout();
            plan.execute_rows(&params, &input, &call, 0, x.rows(), &mut bufs);
            let out = plan.output(0, &bufs).clone();
            pool.put_back(bufs);
            pool.put_back(call);
            out
        };
        replay(&batch(6, 0.0));
        // The recycled arenas must replay correctly at a different size.
        let x = batch(3, 4.0);
        let (g2, _, out2) = record(&params, w, b, x.clone());
        assert_eq!(replay(&x).as_slice(), g2.value(out2).as_slice());
    }

    /// A `rows x 4` batch of distinct rows.
    fn wide(rows: usize, seed: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            4,
            (0..rows * 4).map(|i| ((i as f32 * 0.53 + seed).sin()) * 2.0).collect(),
        )
    }

    /// Records feature `j`'s rows of `x` as grouped input leaf `j`, as the
    /// model's forward does.
    fn leaves(g: &mut Graph, x: &EncodedBlocks) -> Vec<Var> {
        let pairs: Vec<usize> = (0..x.rows()).collect();
        (0..x.features())
            .map(|j| {
                let (distinct, rows) = x.distinct(j, &pairs);
                g.constant_grouped(distinct, rows)
            })
            .collect()
    }

    /// Records the two-window program the grouping tests share over `x`
    /// (two features, 2 wide): per leaf `t_k = tanh(relu(x_k · w + b))`,
    /// then the untagged `concat_cols` of both and the tagged `t_0` as
    /// outputs, with `scale(x_0, -1)` last so a merged `+0.0`/`-0.0` row
    /// would show in the output's signs.
    fn record_windows(
        params: &ParamSet,
        w: ParamId,
        b: ParamId,
        x: &EncodedBlocks,
    ) -> (Graph, Vec<Var>, [Var; 3]) {
        let mut g = Graph::new();
        let inputs = leaves(&mut g, x);
        let wv = g.param(params, w);
        let bv = g.param(params, b);
        let mut ts = Vec::new();
        for &x_k in &inputs {
            let h = g.linear_relu(x_k, wv, bv);
            ts.push(g.tanh(h));
        }
        let both = g.concat_cols(&ts);
        let negated = g.scale(inputs[0], -1.0);
        (g, inputs, [both, ts[0], negated])
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Replays the two-window program over `x` in 2-wide blocks and
    /// requires every output to equal a fresh tape bit for bit; returns the
    /// arena for inspection.
    fn replay_windows(x: &Matrix) -> (CompiledPlan, PlanBuffers) {
        let (params, w, b) = setup();
        let probe = EncodedBlocks::from_dense(&wide(2, 0.0), 2);
        let (g, inputs, outs) = record_windows(&params, w, b, &probe);
        let plan = CompiledPlan::compile(&g, &inputs, &outs).expect("compiles");
        let mut bufs = PlanBuffers::new();
        let x = EncodedBlocks::from_dense(x, 2);
        plan.execute(&params, &x, &mut bufs);
        let (g2, _, outs2) = record_windows(&params, w, b, &x);
        for (i, &v) in outs2.iter().enumerate() {
            assert_eq!(plan.output(i, &bufs).shape(), g2.value(v).shape(), "output {i}");
            assert_eq!(bits(plan.output(i, &bufs)), bits(g2.value(v)), "output {i}");
        }
        (plan, bufs)
    }

    fn distinct_per_window(bufs: &PlanBuffers) -> Vec<usize> {
        bufs.replayed.clone()
    }

    #[test]
    fn window_of_equal_rows_runs_once_and_gathers() {
        let x = Matrix::from_rows(&vec![vec![0.5, -1.25, 2.0, 0.75]; 9]);
        let (plan, bufs) = replay_windows(&x);
        assert_eq!(plan.window_steps.len(), 2);
        assert_eq!(distinct_per_window(&bufs), vec![1, 1]);
        assert!(plan.steps.iter().any(|s| matches!(s, StepOp::Gather { .. })));
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
        let ids = |blocks: &EncodedBlocks, j: usize| -> Vec<usize> {
            (0..col.len()).map(|r| blocks.id(r, j)).collect()
        };
        let pairs = EncodedBlocks::from_dense(&x, 2);
        assert_eq!(ids(&pairs, 0), vec![0, 1, 2, 3, 2, 0, 1, 3]);
        let firsts: Vec<f32> = [0, 1, 2, 3].iter().flat_map(|&r| x.row(r).to_vec()).collect();
        assert_eq!(bits(pairs.table(0)), bits(&Matrix::from_vec(4, 2, firsts)));
        // One-column blocks: the constant column is one block.
        let columns = EncodedBlocks::from_dense(&x, 1);
        assert_eq!(columns.table(0).rows(), 1);
        assert_eq!(ids(&columns, 1), vec![0, 1, 2, 3, 2, 0, 1, 3]);
        assert_eq!(bits(&columns.to_dense()), bits(&x));
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
        assert!(matches!(plan.steps[plan.outputs[1]], StepOp::Gather { window: 0, .. }));
        assert_eq!(plan.output(1, &bufs).rows(), 13);
    }

    #[test]
    fn three_leaves_read_by_tagged_and_untagged_ops_match_the_tape() {
        // 13 pairs whose three features repeat with periods 2, 3 and 5.
        // Leaf 1 feeds a tagged product; `concat_cols` of leaves 0 and 2
        // and a `weighted_sum` over all three read them in the pair phase.
        let rows: Vec<Vec<f32>> = (0..13)
            .map(|r| {
                let (a, b, c) = ((r % 2) as f32, (r % 3) as f32, (r % 5) as f32);
                vec![a - 0.5, a * 0.25, b * 0.6 - 1.0, -b, c * -0.4, 1.0 - c * 0.2]
            })
            .collect();
        let (params, w, b) = setup();
        let record = |x: &EncodedBlocks| {
            let mut g = Graph::new();
            let inputs = leaves(&mut g, x);
            let (wv, bv) = (g.param(&params, w), g.param(&params, b));
            let h = g.linear_relu(inputs[1], wv, bv);
            let outer = g.concat_cols(&[inputs[0], inputs[2]]);
            let p = g.softmax_rows(outer);
            let weights = g.slice_cols(p, 0, 3);
            let mixed = g.weighted_sum(&inputs, weights);
            (g, inputs, [h, outer, mixed])
        };
        let probe = EncodedBlocks::from_dense(&Matrix::from_rows(&rows[..2]), 2);
        let (g, inputs, outs) = record(&probe);
        let plan = CompiledPlan::compile(&g, &inputs, &outs).expect("compiles");
        let x = EncodedBlocks::from_dense(&Matrix::from_rows(&rows), 2);
        let mut bufs = PlanBuffers::new();
        plan.execute(&params, &x, &mut bufs);
        assert_eq!(distinct_per_window(&bufs), vec![2, 3, 5]);
        let (g2, _, outs2) = record(&x);
        for (i, &v) in outs2.iter().enumerate() {
            assert_eq!(plan.output(i, &bufs).shape(), g2.value(v).shape(), "output {i}");
            assert_eq!(bits(plan.output(i, &bufs)), bits(g2.value(v)), "output {i}");
        }
    }

    #[test]
    fn window_chunks_cover_every_distinct_row_once() {
        // More distinct rows than one window-phase chunk holds.
        let n = 2 * BLOCK_CHUNK_ROWS + 3;
        let (plan, bufs) = replay_windows(&wide(n, 0.1));
        assert_eq!(distinct_per_window(&bufs), vec![n, n]);
        let t_0 = match plan.steps[plan.outputs[1]] {
            StepOp::Gather { src, .. } => src,
            _ => usize::MAX,
        };
        let chunks: Vec<usize> = bufs.kept[t_0].iter().map(Matrix::rows).collect();
        assert_eq!(chunks, vec![BLOCK_CHUNK_ROWS, BLOCK_CHUNK_ROWS, 3]);
    }

    #[test]
    fn logical_bytes_count_gather_buffers_and_row_indices() {
        let x = Matrix::from_rows(&vec![vec![1.0, 2.0, 3.0, 4.0]; 16]);
        let (plan, bufs) = replay_windows(&x);
        let gathered: usize = plan
            .steps
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, StepOp::Gather { .. }))
            .map(|(s, _)| bufs.bufs[s].len())
            .sum();
        assert!(gathered >= 16 * 2, "the gathered `t_k` rows: {gathered}");
        // The row indices are the input's own: the call keeps only each
        // window's one distinct row of `t_0`, `t_1` and `scale(x_0, -1)`.
        let kept: usize = bufs.kept.iter().flatten().map(Matrix::len).sum();
        assert_eq!(kept, 3 + 3 + 2, "the kept blocks");
        let pair: usize = plan.pair_steps.iter().map(|&s| bufs.bufs[s].len()).sum();
        assert_eq!(bufs.logical_bytes(), (4 * (kept + pair)) as u64);
    }
}
