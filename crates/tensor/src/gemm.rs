//! Cache-blocked GEMM microkernels behind the three [`Matrix`] matmul
//! variants.
//!
//! The naive `ikj` loops stream the full `B` operand through cache once per
//! output row; past a few hundred rows that is memory-bound, not
//! compute-bound. This module implements the classic BLIS-style blocking
//! scheme in safe, std-only Rust:
//!
//! * **Panel packing.** `B` is packed once per call into column panels of
//!   [`NR`] lanes (`panel[p * NR + l] = B[p, j0 + l]`, zero-padded at the
//!   ragged edge) so the microkernel reads it as one forward-moving
//!   contiguous stream. Each worker packs its own `A` row panels of [`MR`]
//!   rows per [`KC`]-deep slab the same way. Packing is what makes the inner
//!   loop autovectorization-friendly regardless of the logical operand
//!   layout — the same packed kernel serves `A·B`, `Aᵀ·B`, and `A·Bᵀ` by
//!   changing only the *pack-time* strides. A `B` that outlives many
//!   products (a parameter's value) can be packed once into a `PackedB`
//!   and multiplied through `gemm_packed`, which skips the per-call pack;
//!   packing is a pure copy, so both entry points compute the same bits.
//! * **Matrix-vector products.** A `B` of one column never reaches the
//!   blocked path (it is narrower than [`NR`]); `dot_rows` computes those
//!   products with [`DOT_ROWS`] row dot products interleaved, so the
//!   independent accumulator chains overlap instead of serializing.
//! * **Register-blocked microkernel.** An [`MR`]`x`[`NR`] accumulator tile
//!   lives in a local array; each of the `KC` iterations broadcasts one `A`
//!   lane against [`NR`] `B` lanes. The constant tile bounds let LLVM keep
//!   the tile in vector registers and elide bounds checks.
//! * **Thread partitioning.** The `M` dimension is split into [`MC`]-row
//!   blocks dispatched through [`crate::parallel::parallel_for_row_blocks`];
//!   block boundaries are a function of [`MC`] alone, never the worker
//!   count. Packed-`A` scratch lives in a per-thread arena
//!   (`thread_local!` take/restore, no locks); the packed `B` panel is built
//!   once on the dispatching thread and shared read-only.
//!
//! **Bit-exactness contract.** Every output element is accumulated by a
//! *single* accumulator in strictly ascending `k` order: the microkernel
//! zero-initialises its tile on the first `KC` slab, reloads the partial
//! `C` tile on later slabs, and adds exactly one rounded `a·b` product per
//! `k` step (no FMA — the workspace forbids `unsafe`, so there are no
//! intrinsics, and LLVM may not fuse without fast-math). That is the same
//! per-element operation sequence as the historical naive kernels, so for
//! finite inputs the blocked path is **bit-identical** to them — golden
//! fixtures, thread-count invariance, and the chunked-predict equality
//! tests all hold without re-blessing. The per-op ULP budgets in
//! `adamel-oracle` are nonetheless widened by a per-[`KC`]-panel term
//! (DESIGN.md §15) so a future kernel may split the `k` reduction across
//! panels without a budget change.

use crate::{parallel, Matrix};
use std::cell::Cell;

/// Microkernel tile height: rows of `A` (and `C`) per register tile.
pub const MR: usize = 4;

/// Microkernel tile width: columns of `B` (and `C`) per register tile.
///
/// `MR * NR = 32` accumulators fit the 16 x 128-bit registers of baseline
/// x86-64 with room for the broadcast and load lanes.
pub const NR: usize = 8;

/// Depth of one packed `k` slab; bounds the packed-`A`/`B` panel footprint
/// (`MR*KC` and `NR*KC` f32 respectively) to L1-friendly sizes.
pub const KC: usize = 256;

/// Rows of `C` per dispatch block: each worker packs at most `MC x KC`
/// elements of `A` at a time (~128 KiB), and thread partitioning happens on
/// [`MC`]-row boundaries so results never depend on the worker count.
pub const MC: usize = 64;

/// FLOP floor (`2*n*k*m`) below which the packing overhead is not worth it
/// and callers keep the naive loops. Both paths are bit-identical, so the
/// threshold is purely a performance knob.
pub const BLOCKED_MIN_FLOPS: usize = 1 << 13;

/// True when an `(n,k) x (k,m)` product is big enough for the blocked
/// path, before the cost of packing `B` (see [`use_blocked_packing`]).
///
/// Degenerate tiles (fewer rows than [`MR`] or columns than [`NR`]) waste
/// most of the padded microkernel, so they stay on the naive loops too.
#[inline]
pub fn use_blocked(n: usize, k: usize, m: usize) -> bool {
    n >= MR && m >= NR && 2usize.saturating_mul(n * k).saturating_mul(m) >= BLOCKED_MIN_FLOPS
}

/// Row floor of a product that packs `B` on every call (`Matrix::matmul`
/// and its transposed variants): below it the pack costs more than the
/// blocked kernel saves. Alternating single-thread runs against a fresh
/// `B` of `k x m ∈ {256 x 256, 300 x 64, 64 x 256}` ran the naive loop
/// 1.4–2× faster at 4–8 rows and 1.0–1.2× at 12, level at 16, and slower
/// from 24 on.
pub const PACK_MIN_ROWS: usize = 16;

/// Depth floor of a transposed-left product (`Matrix::matmul_tn`, a
/// parameter gradient `Aᵀ·G` over a batch's distinct rows): below it the
/// two packs cost more than the blocked kernel saves. Alternating
/// single-thread runs of `(k x n)ᵀ · (k x m)` at `n x m ∈ {256 x 256,
/// 64 x 256, 300 x 64}` ran the naive loop 2.9–3.5× faster at `k = 1`,
/// 1.3–1.6× at 4, and level at 8.
pub const PACK_MIN_DEPTH: usize = 8;

/// True when the blocked path should handle an `(n,k) x (k,m)` product
/// that packs `B` itself: [`use_blocked`] at [`PACK_MIN_ROWS`] rows or
/// more.
#[inline]
pub fn use_blocked_packing(n: usize, k: usize, m: usize) -> bool {
    n >= PACK_MIN_ROWS && use_blocked(n, k, m)
}

/// A logical `rows x cols` view over a row-major backing slice: element
/// `(i, j)` lives at `data[i * rs + j * cs]`. Transposed operands are
/// expressed by swapping the strides; only packing ever reads through them.
pub(crate) struct Operand<'a> {
    pub data: &'a [f32],
    pub rs: usize,
    pub cs: usize,
}

impl Operand<'_> {
    #[inline]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

thread_local! {
    /// Per-thread packed-`A` arena: taken at block entry, restored (with its
    /// grown capacity) on exit, so steady-state packing is allocation-free.
    static PACK_A: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread packed-`B` arena for the dispatching thread.
    static PACK_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Computes `out = A · B` for logical `(n,k) x (k,m)` operands, fully
/// overwriting the row-major `out` (length `n * m`).
pub(crate) fn gemm(
    n: usize,
    k: usize,
    m: usize,
    a: &Operand<'_>,
    b: &Operand<'_>,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), n * m, "gemm: output buffer shape mismatch");
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    // Pack B once, on the dispatching thread; workers share it read-only.
    let mut bbuf = PACK_B.with(Cell::take);
    pack_b(k, m, b, &mut bbuf);
    // Absolute arena observations: each thread's arena is retained at its
    // grown capacity, so capacity *is* the footprint. `pack_a` reports the
    // max across workers (every worker observes the same gauge).
    adamel_obs::mem::observe("tensor.gemm.pack_b.bytes", (bbuf.capacity() * 4) as u64);
    gemm_panels(k, m, a, &bbuf, out);
    PACK_B.with(|c| c.set(bbuf));
}

/// A `k x m` right operand packed into the `NR`-lane column panels
/// [`gemm`] builds per call. Packing it once lets every later product with
/// the same `B` skip the pack; the panels are a pure copy of `B`, so
/// [`gemm_packed`] over them is bit-identical to [`gemm`] over `B`.
pub(crate) struct PackedB {
    k: usize,
    m: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Packs `b` as the right operand of `A · b`.
    pub(crate) fn pack(b: &Matrix) -> PackedB {
        let (k, m) = b.shape();
        let mut panels = Vec::new();
        pack_b(k, m, &Operand { data: b.as_slice(), rs: m, cs: 1 }, &mut panels);
        PackedB { k, m, panels }
    }

    /// Logical `(k, m)` shape of the packed operand.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.k, self.m)
    }

    /// Bytes held by the panels (zero padding included).
    pub(crate) fn bytes(&self) -> u64 {
        (self.panels.len() * 4) as u64
    }
}

/// [`gemm`] against a pre-packed `B`: `out = A · B` for a logical `(n,k)`
/// `A` and the `k x m` operand `b` was packed from.
pub(crate) fn gemm_packed(n: usize, a: &Operand<'_>, b: &PackedB, out: &mut [f32]) {
    let (k, m) = b.shape();
    debug_assert_eq!(out.len(), n * m, "gemm_packed: output buffer shape mismatch");
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    gemm_panels(k, m, a, &b.panels, out);
}

/// The shared body of [`gemm`] and [`gemm_packed`]: `MC`-row blocks of
/// `C` over already packed `B` panels, dispatched across workers.
fn gemm_panels(k: usize, m: usize, a: &Operand<'_>, bpacked: &[f32], out: &mut [f32]) {
    parallel::parallel_for_row_blocks(out, m, MC, 2 * k * m, |i0, c_block| {
        let mut abuf = PACK_A.with(Cell::take);
        gemm_block(i0, c_block.len() / m, k, m, a, bpacked, c_block, &mut abuf);
        adamel_obs::mem::observe("tensor.gemm.pack_a.bytes", (abuf.capacity() * 4) as u64);
        PACK_A.with(|c| c.set(abuf));
    });
}

/// Rows whose dot products the matrix-vector kernel interleaves.
pub const DOT_ROWS: usize = 8;

/// `out[i] = Σ_p a[i*k + p] * b[p]` for the `out.len()` rows of the
/// row-major `a` (row stride `k`) against the length-`k` column `b`: the
/// `m == 1` matrix product.
///
/// Rows are taken [`DOT_ROWS`] at a time and their dot products advance in
/// lockstep, so the chains overlap in the pipeline. Each row still keeps a
/// single accumulator that starts at `+0.0` and adds one rounded product
/// per `k` in ascending order — the naive kernel's sequence, so the result
/// is bit-identical to it for finite inputs. (The naive kernel skips exact
/// zeros of `A`, whose products are `±0.0`; an accumulator that starts at
/// `+0.0` never becomes `-0.0` under round-to-nearest, so adding `±0.0`
/// leaves it unchanged.)
pub(crate) fn dot_rows(a: &[f32], k: usize, b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len() * k, "dot_rows: operand shape mismatch");
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let b = &b[..k];
    let mut groups = out.chunks_exact_mut(DOT_ROWS);
    let mut row_groups = a.chunks_exact(DOT_ROWS * k);
    for (o, rows) in (&mut groups).zip(&mut row_groups) {
        let rows: [&[f32]; DOT_ROWS] = std::array::from_fn(|r| &rows[r * k..(r + 1) * k]);
        let mut acc = [0.0f32; DOT_ROWS];
        for (p, &bp) in b.iter().enumerate() {
            for (slot, row) in acc.iter_mut().zip(&rows) {
                *slot += row[p] * bp;
            }
        }
        o.copy_from_slice(&acc);
    }
    let tail = row_groups.remainder();
    for (o, row) in groups.into_remainder().iter_mut().zip(tail.chunks_exact(k)) {
        let mut acc = 0.0f32;
        for (&x, &bp) in row.iter().zip(b) {
            acc += x * bp;
        }
        *o = acc;
    }
}

/// Packs `B` into `NR`-lane column panels: lane `l` of panel `jp` at depth
/// `p` is `B[p, jp*NR + l]`, with out-of-range lanes zeroed so edge tiles
/// accumulate exact `±0.0` products that are never stored.
fn pack_b(k: usize, m: usize, b: &Operand<'_>, buf: &mut Vec<f32>) {
    let panels = m.div_ceil(NR);
    buf.clear();
    buf.resize(panels * k * NR, 0.0);
    for jp in 0..panels {
        let j0 = jp * NR;
        let w = NR.min(m - j0);
        let panel = &mut buf[jp * k * NR..(jp + 1) * k * NR];
        for (p, row) in panel.chunks_exact_mut(NR).enumerate() {
            for (l, slot) in row.iter_mut().enumerate() {
                *slot = if l < w { b.at(p, j0 + l) } else { 0.0 };
            }
        }
    }
}

/// Packs rows `i0 .. i0+rows` of `A` over depths `pc .. pc+kc` into
/// `MR`-row panels: `panel[p_local * MR + r] = A[i0 + ip*MR + r, pc + p_local]`,
/// zero-padding rows past the block edge.
fn pack_a(a: &Operand<'_>, i0: usize, rows: usize, pc: usize, kc: usize, buf: &mut Vec<f32>) {
    let panels = rows.div_ceil(MR);
    buf.clear();
    buf.resize(panels * kc * MR, 0.0);
    for ip in 0..panels {
        let r0 = ip * MR;
        let h = MR.min(rows - r0);
        let panel = &mut buf[ip * kc * MR..(ip + 1) * kc * MR];
        for (p, col) in panel.chunks_exact_mut(MR).enumerate() {
            for (r, slot) in col.iter_mut().enumerate() {
                *slot = if r < h { a.at(i0 + r0 + r, pc + p) } else { 0.0 };
            }
        }
    }
}

/// One worker's share: all `KC` slabs over an `MC`-bounded row block of `C`.
/// Slabs run in ascending `pc` order so each `C` element sees its products
/// in exactly the naive kernels' ascending-`k` order.
#[allow(clippy::too_many_arguments)]
fn gemm_block(
    i0: usize,
    rows: usize,
    k: usize,
    m: usize,
    a: &Operand<'_>,
    bpacked: &[f32],
    c: &mut [f32],
    abuf: &mut Vec<f32>,
) {
    let jpanels = m.div_ceil(NR);
    let ipanels = rows.div_ceil(MR);
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        pack_a(a, i0, rows, pc, kc, abuf);
        let first = pc == 0;
        for jp in 0..jpanels {
            let bpanel = &bpacked[jp * k * NR + pc * NR..jp * k * NR + (pc + kc) * NR];
            let j0 = jp * NR;
            let jw = NR.min(m - j0);
            for ip in 0..ipanels {
                let apanel = &abuf[ip * kc * MR..(ip + 1) * kc * MR];
                let iw = MR.min(rows - ip * MR);
                microkernel(apanel, bpanel, c, ip * MR, j0, iw, jw, m, first);
            }
        }
        pc += kc;
    }
}

/// The register tile: `acc[r][l] (+)= Σ_p apanel[p][r] * bpanel[p][l]` with
/// one rounded multiply-add per step. `first` selects zero-init over a `C`
/// reload so depth-0 starts from `+0.0` exactly like the naive kernels.
#[allow(clippy::too_many_arguments)]
#[inline]
fn microkernel(
    apanel: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    ci: usize,
    cj: usize,
    iw: usize,
    jw: usize,
    ldc: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (r, accr) in acc.iter_mut().enumerate().take(iw) {
            let crow = &c[(ci + r) * ldc + cj..(ci + r) * ldc + cj + jw];
            accr[..jw].copy_from_slice(crow);
        }
    }
    for (arow, brow) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = arow[r];
            for (l, slot) in accr.iter_mut().enumerate() {
                *slot += av * brow[l];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(iw) {
        let crow = &mut c[(ci + r) * ldc + cj..(ci + r) * ldc + cj + jw];
        crow.copy_from_slice(&accr[..jw]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::parallel::with_threads;

    /// Deterministic pseudo-random fill (splitmix-style) in [-2, 2).
    fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state >> 30;
            state = state.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            state ^= state >> 27;
            state = state.wrapping_mul(0x94d0_49bb_1331_11eb);
            state ^= state >> 31;
            (state >> 40) as f32 / (1u64 << 22) as f32 - 2.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    /// The historical naive kernel, reimplemented locally so the blocked
    /// path is pinned to the exact accumulation order, not just "close".
    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let (n, k, m) = (a.rows(), a.cols(), b.cols());
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            for p in 0..k {
                let av = a.get(i, p);
                for j in 0..m {
                    let v = out.get(i, j) + av * b.get(p, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    #[test]
    fn blocked_is_bit_identical_to_naive_across_edges() {
        // Shapes straddle every tile boundary: MR/NR/KC/MC ±1 plus ragged
        // primes. Bit-equality (not tolerance) is the contract.
        for &(n, k, m) in &[
            (MR, 3, NR),
            (MR + 1, KC - 1, NR + 1),
            (MR * 3 + 1, KC + 1, NR * 2 + 3),
            (MC - 1, 7, NR),
            (MC + 1, 5, NR * 2),
            (17, KC, 13),
            // Either side of the per-call packing floor.
            (PACK_MIN_ROWS - 1, KC, KC),
            (PACK_MIN_ROWS, KC, KC),
        ] {
            let a = fill(n, k, (n * 1000 + k) as u64);
            let b = fill(k, m, (k * 1000 + m) as u64);
            assert!(use_blocked(n, k, m) || 2 * n * k * m < BLOCKED_MIN_FLOPS);
            assert_eq!(use_blocked_packing(n, k, m), n >= PACK_MIN_ROWS && use_blocked(n, k, m));
            let mut out = vec![0.0f32; n * m];
            gemm(
                n,
                k,
                m,
                &Operand { data: a.as_slice(), rs: k, cs: 1 },
                &Operand { data: b.as_slice(), rs: m, cs: 1 },
                &mut out,
            );
            let reference = naive(&a, &b);
            assert_eq!(out.as_slice(), reference.as_slice(), "shape ({n},{k},{m})");
        }
    }

    #[test]
    fn blocked_is_thread_count_invariant() {
        let (n, k, m) = (MC * 2 + 3, KC + 5, NR * 3 + 1);
        let a = fill(n, k, 11);
        let b = fill(k, m, 13);
        let run = |threads: usize| {
            let mut out = vec![0.0f32; n * m];
            with_threads(threads, || {
                gemm(
                    n,
                    k,
                    m,
                    &Operand { data: a.as_slice(), rs: k, cs: 1 },
                    &Operand { data: b.as_slice(), rs: m, cs: 1 },
                    &mut out,
                )
            });
            out
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    /// The loop `Matrix::matmul_into` ran for a one-column `B` before
    /// [`dot_rows`]: per row, ascending `k`, exact zeros of `A` skipped.
    fn naive_skipping_zeros(a: &Matrix, b: &Matrix) -> Vec<f32> {
        (0..a.rows())
            .map(|i| {
                let mut acc = 0.0f32;
                for (&x, &y) in a.row(i).iter().zip(b.as_slice()) {
                    if x.to_bits() << 1 != 0 {
                        acc += x * y;
                    }
                }
                acc
            })
            .collect()
    }

    #[test]
    fn dot_rows_is_bit_identical_to_the_naive_loop() {
        // Row counts on both sides of each DOT_ROWS group edge, plus a
        // ragged tail past 128; zeros and negative zeros in both operands.
        let rows = (1..=9).chain(127..=129);
        for n in rows {
            for k in [0, 1, 7, KC + 3] {
                let mut a = fill(n, k, (n * 31 + k) as u64);
                let mut b = fill(k, 1, (k * 17 + n) as u64);
                for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
                    match i % 7 {
                        0 => *v = 0.0,
                        3 => *v = -0.0,
                        _ => {}
                    }
                }
                for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
                    if i % 5 == 2 {
                        *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                let expected = naive_skipping_zeros(&a, &b);
                for threads in [1, 3] {
                    let got = with_threads(threads, || a.matmul(&b));
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(got.shape(), (n, 1));
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(&expected),
                        "n={n} k={k} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_gemm_is_bit_identical_to_per_call_packing() {
        for &(n, k, m) in &[(MR, 3, NR), (MC + 1, KC + 1, NR * 2 + 3), (17, KC, 13)] {
            let a = fill(n, k, (n * 7 + k) as u64);
            let b = fill(k, m, (k * 7 + m) as u64);
            assert_eq!(PackedB::pack(&b).shape(), (k, m));
            let pack = crate::params::LazyPack::default();
            let mut out = Matrix::zeros(0, 0);
            a.matmul_packed_into(&b, &pack, &mut out);
            assert_eq!(out.as_slice(), naive(&a, &b).as_slice(), "shape ({n},{k},{m})");
        }
    }

    #[test]
    fn zero_inner_dimension_zeroes_stale_output() {
        let mut out = vec![7.0f32; 4 * NR];
        gemm(
            4,
            0,
            NR,
            &Operand { data: &[], rs: 0, cs: 1 },
            &Operand { data: &[], rs: NR, cs: 1 },
            &mut out,
        );
        assert!(out.iter().all(|&v| v == 0.0));
    }
}
