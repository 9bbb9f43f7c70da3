//! Blocked-GEMM kernel battery: the cache-blocked microkernels behind the
//! matmul family, differentially tested against the `f64` oracle at
//! adversarial shapes — 1×1, prime dims, every tile edge ±1, tall-skinny,
//! short-fat — crossed with 1/2/4/8 worker threads, plus bit-for-bit
//! thread-count invariance for every variant at every shape.
//!
//! Budgets come from [`op_ulps`]: `2k + 4 + 2·⌈k/KC⌉` ULPs for the matmul
//! family (the per-KC-panel term deliberately licenses panel-split
//! reassociation; today's kernels are stricter — bit-identical to the
//! historical naive loops), with the `(k+4)·ε₃₂·(|A|·|B|)` absolute
//! fallback covering cancellation.

use adamel_oracle::{op_ulps, Budget, RefMatrix, EPS32};
use adamel_tensor::gemm::{use_blocked_packing, KC, MC, MR, NR};
use adamel_tensor::parallel::with_threads;
use adamel_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Adversarial `(n, k, m)` shapes for `C = A(n×k) · B(k×m)`.
///
/// Covers: degenerate 1×1, prime dims, the microkernel register tile
/// (`MR`/`NR`) and cache tiles (`KC`/`MC`) at exactly/-1/+1, tall-skinny,
/// and short-fat — on both sides of the blocked-dispatch threshold.
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (2, 3, 5),
        (7, 13, 11),
        (MR, 3, NR),
        (MR - 1, 5, NR - 1),
        (MR + 1, 5, NR + 1),
        (MR * 3 + 1, KC - 1, NR * 2 + 3),
        (MC - 1, 7, NR),
        (MC, 9, NR * 2),
        (MC + 1, KC + 1, NR * 2 + 1),
        (17, KC, 13),
        // Tall-skinny: many rows, tiny inner/output dims.
        (KC + 3, MR, 2),
        (257, 5, 3),
        // Short-fat: few rows, wide output.
        (3, 5, 257),
        (2, KC + 1, NR * 4 + 3),
        // Comfortably blocked.
        (64, 96, 33),
    ]
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Asserts every element of `prod` is an acceptable `f32` realization of the
/// oracle, with the per-element absolute fallback scaled by `|A|·|B|`.
fn assert_close(what: &str, prod: &Matrix, oracle: &RefMatrix, ulps: u64, abs: &RefMatrix) {
    assert_eq!((prod.rows(), prod.cols()), oracle.shape(), "{what}: shape mismatch");
    for i in 0..prod.rows() {
        for j in 0..prod.cols() {
            let budget = Budget { ulps, abs: abs.get(i, j) };
            assert!(
                budget.accepts(prod.get(i, j), oracle.get(i, j)),
                "{what}[{i},{j}]: production {:e} vs oracle {:e} outside {budget:?}",
                prod.get(i, j),
                oracle.get(i, j)
            );
        }
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Runs all three variants at one shape under every thread count: each must
/// match the oracle within budget, and each must be bit-for-bit identical
/// across thread counts (block boundaries are a function of the tile sizes
/// alone, never the thread count).
fn check_shape(n: usize, k: usize, m: usize) {
    let seed = 0x6e44 ^ ((n as u64) << 24 | (k as u64) << 12 | m as u64);
    let mut rng = StdRng::seed_from_u64(seed);
    let a = random_matrix(&mut rng, n, k);
    let b = random_matrix(&mut rng, k, m);
    let ra = RefMatrix::from_matrix(&a);
    let rb = RefMatrix::from_matrix(&b);
    let oracle = ra.matmul(&rb);
    let scale = ra.map(f64::abs).matmul(&rb.map(f64::abs));
    let abs = scale.map(|s| (k as f64 + 4.0) * EPS32 * s);
    let ulps = op_ulps("matmul", k);

    let at = a.transpose();
    let bt = b.transpose();
    let mut baselines: Option<[Vec<u32>; 3]> = None;
    for threads in [1usize, 2, 4, 8] {
        let (p, p_tn, p_nt) =
            with_threads(threads, || (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt)));
        let what = |v: &str| format!("{v} {n}x{k}x{m} @{threads}t");
        assert_close(&what("matmul"), &p, &oracle, ulps, &abs);
        assert_close(&what("matmul_tn"), &p_tn, &oracle, ulps, &abs);
        assert_close(&what("matmul_nt"), &p_nt, &oracle, ulps, &abs);
        let got = [bits(&p), bits(&p_tn), bits(&p_nt)];
        match &baselines {
            None => baselines = Some(got),
            Some(base) => {
                for (v, (g, b)) in
                    ["matmul", "matmul_tn", "matmul_nt"].iter().zip(got.iter().zip(base))
                {
                    assert_eq!(g, b, "{}: not thread-count invariant", what(v));
                }
            }
        }
    }
}

#[test]
fn adversarial_shapes_cover_both_dispatch_paths() {
    // The battery is only adversarial if it actually exercises the blocked
    // kernels AND the naive fallback; pin that the shape list straddles the
    // dispatch predicate so tile-size changes can't silently defang it.
    // The battery multiplies through `Matrix::matmul` and its transposed
    // variants, which pack `B` per call.
    let covered: Vec<bool> =
        shapes().iter().map(|&(n, k, m)| use_blocked_packing(n, k, m)).collect();
    assert!(covered.iter().any(|&c| c), "no shape reaches the blocked kernels");
    assert!(covered.iter().any(|&c| !c), "no shape reaches the naive fallback");
}

#[test]
fn degenerate_and_prime_shapes() {
    for &(n, k, m) in &shapes()[..3] {
        check_shape(n, k, m);
    }
}

#[test]
fn register_tile_edges() {
    for &(n, k, m) in &shapes()[3..7] {
        check_shape(n, k, m);
    }
}

#[test]
fn cache_tile_edges() {
    for &(n, k, m) in &shapes()[7..11] {
        check_shape(n, k, m);
    }
}

#[test]
fn tall_skinny_and_short_fat() {
    for &(n, k, m) in &shapes()[11..15] {
        check_shape(n, k, m);
    }
}

#[test]
fn comfortably_blocked() {
    for &(n, k, m) in &shapes()[15..] {
        check_shape(n, k, m);
    }
}

#[test]
fn zero_sized_edges_are_well_formed() {
    // n/m = 0 produce empty outputs; k = 0 must produce exact zeros (the
    // blocked path reuses packing arenas, so stale data must not leak).
    let a = Matrix::zeros(0, 5);
    let b = Matrix::zeros(5, 7);
    assert_eq!(a.matmul(&b).shape(), (0, 7));
    let a = Matrix::from_vec(3, 0, vec![]);
    let b = Matrix::from_vec(0, 4, vec![]);
    let c = a.matmul(&b);
    assert_eq!(c.shape(), (3, 4));
    assert!(c.as_slice().iter().all(|&v| v == 0.0 && v.to_bits() == 0));
}
