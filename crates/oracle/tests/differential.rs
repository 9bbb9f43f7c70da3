//! Differential suite: the production math stack against the `f64` oracle.
//!
//! Three layers, mirroring the crate: raw kernels (matmul family, softmax)
//! under both serial and multi-threaded dispatch, random tape programs with
//! forward + gradient checks, and the model-level paper equations.

use adamel::{support_weights, AdamelConfig, AdamelModel};
use adamel_data::{make_mel_split, EntityType, MusicConfig, MusicWorld, Scenario, SplitCounts};
use adamel_oracle::{
    check_program, check_with_fault, encode_pairs_ref, gen_program, op_ulps, reduction_budget,
    render_reproducer, support_weights_ref, Budget, Fault, Inst, ModelOracle, Program, RefMatrix,
    EPS32,
};
use adamel_schema::EntityPair;
use adamel_tensor::parallel::with_threads;
use adamel_tensor::{Expr, Graph, Matrix, SegmentFault};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Asserts every element of `prod` is an acceptable realization of `oracle`,
/// with the reduction budget scaled per element by `abs_scale`.
fn assert_close(what: &str, prod: &Matrix, oracle: &RefMatrix, ulps: u64, abs_scale: &RefMatrix) {
    assert_eq!((prod.rows(), prod.cols()), oracle.shape(), "{what}: shape mismatch");
    for i in 0..prod.rows() {
        for j in 0..prod.cols() {
            let budget = Budget { ulps, abs: abs_scale.get(i, j) };
            assert!(
                budget.accepts(prod.get(i, j), oracle.get(i, j)),
                "{what}[{i},{j}]: production {:e} vs oracle {:e} outside {budget:?}",
                prod.get(i, j),
                oracle.get(i, j)
            );
        }
    }
}

fn check_matmul_family(threads: usize) {
    let mut rng = StdRng::seed_from_u64(0xd1ff ^ threads as u64);
    for &(m, k, n) in &[(1usize, 1usize, 1usize), (7, 13, 5), (33, 17, 9), (64, 96, 3)] {
        let a = random_matrix(&mut rng, m, k);
        let b = random_matrix(&mut rng, k, n);
        let ra = RefMatrix::from_matrix(&a);
        let rb = RefMatrix::from_matrix(&b);
        // Forward-error scale |A|·|B| per element covers cancellation.
        let scale = ra.map(f64::abs).matmul(&rb.map(f64::abs));
        let abs = scale.map(|s| (k as f64 + 4.0) * EPS32 * s);
        let ulps = op_ulps("matmul", k);
        let (p, p_tn, p_nt) = with_threads(threads, || {
            (a.matmul(&b), a.transpose().matmul_tn(&b), a.matmul_nt(&b.transpose()))
        });
        assert_close("matmul", &p, &ra.matmul(&rb), ulps, &abs);
        assert_close("matmul_tn", &p_tn, &ra.matmul(&rb), ulps, &abs);
        assert_close("matmul_nt", &p_nt, &ra.matmul(&rb), ulps, &abs);
    }
}

#[test]
fn matmul_family_matches_oracle_serial() {
    check_matmul_family(1);
}

#[test]
fn matmul_family_matches_oracle_threaded() {
    check_matmul_family(4);
}

#[test]
fn softmax_rows_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0x50f7);
    for &(n, m) in &[(1usize, 1usize), (5, 4), (17, 9)] {
        let x = random_matrix(&mut rng, n, m);
        let oracle = RefMatrix::from_matrix(&x).softmax_rows();
        let budget = reduction_budget("softmax_rows", m, 1.0);
        let abs = RefMatrix::zeros(n, m).map(|_| budget.abs);
        for threads in [1usize, 4] {
            let prod = with_threads(threads, || x.softmax_rows());
            assert_close("softmax_rows", &prod, &oracle, budget.ulps, &abs);
        }
    }
}

fn sweep(threads: usize) {
    for i in 0..40u64 {
        let seed = i.wrapping_mul(1007).wrapping_add(3);
        let program = gen_program(seed, 10);
        if let Err(d) = with_threads(threads, || check_program(&program)) {
            panic!(
                "seed {seed} ({threads} threads): {d}\nreproducer:\n{}",
                render_reproducer(&program)
            );
        }
    }
}

#[test]
fn generated_program_sweep_serial() {
    sweep(1);
}

#[test]
fn generated_program_sweep_threaded() {
    sweep(4);
}

#[test]
fn injected_kernel_bugs_are_caught() {
    // A mutation check on the harness itself: perturbing any intermediate by
    // a relative 1e-3 — far outside every budget — must surface as a
    // discrepancy, on the faulted node or downstream of it.
    let mut checked = 0;
    for seed in 0..6u64 {
        let program = gen_program(seed.wrapping_mul(77).wrapping_add(5), 8);
        assert!(check_program(&program).is_ok(), "clean program must pass (seed {seed})");
        for inst in 0..program.insts.len() {
            if program.insts[inst].parents().is_empty() {
                continue; // faulting a leaf changes the real input, not the op
            }
            let fault = Fault { inst, rel: 1e-3 };
            assert!(
                check_with_fault(&program, Some(fault)).is_err(),
                "fault at inst {inst} of seed-{seed} program went undetected"
            );
            checked += 1;
        }
    }
    assert!(checked > 20, "mutation sweep too small ({checked} faults)");
}

/// The model's attention head in miniature: two feature windows of a
/// batch of three repeated rows, each through `tanh(x · W1_j)`, energies
/// through a shared `w_att`, a softmax over their concatenation weighting
/// the features' sum, and the mean as the root. Column 0, the column the
/// regrouped batch's NaN rows poison, is left unread.
fn attention_program() -> Program {
    let base =
        [[0.5, -1.25, 0.75, 2.0, -0.5], [-1.5, 0.25, 1.5, -0.75, 1.0], [2.0, 1.0, -0.5, 0.5, 0.25]];
    let data = (0..6).flat_map(|r| base[r % 3]).collect();
    let param = |rows, cols, seed: f32| Inst::Param {
        rows,
        cols,
        data: (0..rows * cols).map(|i| ((i as f32 + seed) * 0.7).sin()).collect(),
    };
    Program {
        insts: vec![
            Inst::Input { rows: 6, cols: 5, data },
            Inst::Op(Expr::SliceCols { input: 0, start: 1, width: 2 }),
            Inst::Op(Expr::SliceCols { input: 0, start: 3, width: 2 }),
            param(2, 3, 1.0),
            param(2, 3, 2.0),
            Inst::Op(Expr::MatMul(1, 3)),
            Inst::Op(Expr::MatMul(2, 4)),
            Inst::Op(Expr::Tanh(5)),
            Inst::Op(Expr::Tanh(6)),
            param(3, 1, 3.0),
            Inst::Op(Expr::MatMul(7, 9)),
            Inst::Op(Expr::MatMul(8, 9)),
            Inst::Op(Expr::ConcatCols(vec![10, 11])),
            Inst::Op(Expr::SoftmaxRows(12)),
            Inst::Op(Expr::WeightedSum { parts: vec![7, 8], weights: 13 }),
            Inst::Op(Expr::MeanAll(14)),
        ],
        root: 15,
    }
}

#[test]
fn broken_segment_sums_are_caught() {
    // A mutation check on the grouped-gradient budget: a tape whose segment
    // sum leaves out one pair's gradient row, or adds it into the wrong
    // distinct row, must fail the grouped-tape comparison. The regrouped
    // batch's first 19 rows cycle through the three distinct ones.
    let program = attention_program();
    assert!(check_program(&program).is_ok(), "the clean program must pass");
    for pair in 0..19 {
        for fault in [SegmentFault::Drop(pair), SegmentFault::Misroute(pair)] {
            let err = Graph::with_segment_fault(fault, || check_program(&program))
                .expect_err(&format!("{fault:?} went undetected"));
            assert_eq!(err.kind, "grouped tape", "{fault:?}: {err}");
            assert!(err.detail.starts_with("gradient"), "{fault:?}: {err}");
        }
    }
}

/// Small labeled world shared by the model-level tests.
fn world_pairs() -> (adamel_schema::Schema, Vec<EntityPair>, Vec<EntityPair>) {
    let world = MusicWorld::generate(&MusicConfig::tiny(), 3);
    let records = world.records_of(EntityType::Artist, None);
    let split = make_mel_split(
        &records,
        "name",
        &[0, 1, 2],
        &[3, 4, 5, 6],
        Scenario::Overlapping,
        &SplitCounts::tiny(),
        7,
    );
    let train: Vec<EntityPair> = split.train.pairs.iter().take(20).cloned().collect();
    let support: Vec<EntityPair> = split.support.pairs.iter().take(12).cloned().collect();
    (world.schema().clone(), train, support)
}

#[test]
fn pair_encoding_matches_oracle() {
    let (schema, pairs, _) = world_pairs();
    for mode in [adamel_schema::FeatureMode::Both, adamel_schema::FeatureMode::SharedOnly] {
        let cfg = AdamelConfig::tiny().with_feature_mode(mode);
        let model = AdamelModel::new(cfg.clone(), schema.clone());
        let reference = encode_pairs_ref(&schema, &cfg, &pairs);
        for threads in [1usize, 4] {
            let prod = with_threads(threads, || model.encode(&pairs)).to_dense();
            assert_eq!((prod.rows(), prod.cols()), reference.shape());
            for i in 0..prod.rows() {
                for j in 0..prod.cols() {
                    let (p, o) = (f64::from(prod.get(i, j)), reference.get(i, j));
                    assert!(
                        (p - o).abs() <= 1e-4 * o.abs().max(1.0),
                        "encode[{i},{j}] ({threads} threads): {p:e} vs oracle {o:e}"
                    );
                }
            }
        }
    }
}

#[test]
fn model_forward_matches_oracle() {
    let (schema, pairs, _) = world_pairs();
    for cfg in
        [AdamelConfig::tiny(), AdamelConfig::tiny().with_seed(9).with_uniform_attention(true)]
    {
        let model = AdamelModel::new(cfg.clone(), schema.clone());
        let oracle = ModelOracle::new(&model);
        let fwd = oracle.forward(&encode_pairs_ref(&schema, &cfg, &pairs));
        for threads in [1usize, 4] {
            let (att, logits, preds) = with_threads(threads, || {
                let encoded = model.encode(&pairs);
                let preds = model.predict_encoded(&encoded);
                let mut g = Graph::new();
                let (att, logits) = model.forward_graph(&mut g, &encoded);
                (g.value(att).clone(), g.value(logits).clone(), preds)
            });
            for (i, &pred) in preds.iter().enumerate() {
                let (p, o) = (f64::from(logits.get(i, 0)), fwd.logits.get(i, 0));
                assert!(
                    (p - o).abs() <= 1e-3 * o.abs().max(1.0),
                    "logit {i} ({threads} threads): {p:e} vs oracle {o:e}"
                );
                let sig = 1.0 / (1.0 + (-o).exp());
                assert!(
                    (f64::from(pred) - sig).abs() <= 1e-3,
                    "prediction {i} ({threads} threads) off oracle sigmoid"
                );
                for j in 0..att.cols() {
                    let d = (f64::from(att.get(i, j)) - fwd.attention.get(i, j)).abs();
                    assert!(d <= 1e-3, "attention ({i},{j}) ({threads} threads) off by {d:e}");
                }
            }
        }
    }
}

#[test]
fn losses_match_oracle() {
    let (schema, pairs, _) = world_pairs();
    let cfg = AdamelConfig::tiny();
    let model = AdamelModel::new(cfg.clone(), schema.clone());
    let oracle = ModelOracle::new(&model);
    let fwd = oracle.forward(&encode_pairs_ref(&schema, &cfg, &pairs));

    let labels_f32: Vec<f32> =
        pairs.iter().map(|p| if p.label == Some(true) { 1.0 } else { 0.0 }).collect();
    let labels_f64: Vec<f64> = labels_f32.iter().map(|&v| f64::from(v)).collect();
    let weights_f32: Vec<f32> = (0..pairs.len()).map(|i| 0.5 + 0.1 * i as f32).collect();
    let weights_f64: Vec<f64> = weights_f32.iter().map(|&v| f64::from(v)).collect();

    let encoded = model.encode(&pairs);
    let mut g = Graph::new();
    let (att, logits) = model.forward_graph(&mut g, &encoded);
    let y = Matrix::from_vec(labels_f32.len(), 1, labels_f32);
    let w = Matrix::from_vec(weights_f32.len(), 1, weights_f32);
    let bce = g.weighted_bce_with_logits(logits, y, w);
    let target = g.value(att).mean_rows();
    let kl = g.kl_const_rows(att, target.clone(), 1e-7);

    let bce_o = adamel_oracle::weighted_bce_ref(&fwd.logits, &labels_f64, &weights_f64);
    assert!(
        (f64::from(g.value(bce).item()) - bce_o).abs() <= 1e-3 * bce_o.abs().max(1.0),
        "weighted bce {} vs oracle {bce_o}",
        g.value(bce).item()
    );

    let target_ref = RefMatrix::from_matrix(&target);
    let kl_o = adamel_oracle::kl_ref(&fwd.attention, &target_ref, 1e-7);
    assert!(
        (f64::from(g.value(kl).item()) - kl_o).abs() <= 1e-3 * kl_o.abs().max(1.0),
        "kl {} vs oracle {kl_o}",
        g.value(kl).item()
    );

    let zero_o = adamel_oracle::zero_loss_ref(bce_o, kl_o, f64::from(cfg.lambda));
    let prod_zero = (1.0 - f64::from(cfg.lambda)) * f64::from(g.value(bce).item())
        + f64::from(cfg.lambda) * f64::from(g.value(kl).item());
    assert!((prod_zero - zero_o).abs() <= 1e-3 * zero_o.abs().max(1.0));
}

#[test]
fn support_weights_match_oracle() {
    let (schema, train, support) = world_pairs();
    let cfg = AdamelConfig::tiny();
    let model = AdamelModel::new(cfg.clone(), schema.clone());
    let oracle = ModelOracle::new(&model);

    let train_enc = model.encode(&train);
    let support_enc = model.encode(&support);
    let train_labels: Vec<f32> =
        train.iter().map(|p| if p.label == Some(true) { 1.0 } else { 0.0 }).collect();
    let support_labels: Vec<f32> =
        support.iter().map(|p| if p.label == Some(true) { 1.0 } else { 0.0 }).collect();

    let att_s = oracle.forward(&encode_pairs_ref(&schema, &cfg, &train)).attention;
    let att_u = oracle.forward(&encode_pairs_ref(&schema, &cfg, &support)).attention;
    let labels_s: Vec<f64> = train_labels.iter().map(|&v| f64::from(v)).collect();
    let labels_u: Vec<f64> = support_labels.iter().map(|&v| f64::from(v)).collect();
    let reference = support_weights_ref(&att_s, &labels_s, &att_u, &labels_u);

    for threads in [1usize, 4] {
        let prod = with_threads(threads, || {
            support_weights(&model, &train_enc, &train_labels, &support_enc, &support_labels)
        });
        assert_eq!(prod.len(), reference.len());
        for (i, (&p, &o)) in prod.iter().zip(&reference).enumerate() {
            assert!(
                (f64::from(p) - o).abs() <= 5e-3 * o.abs().max(1.0),
                "support weight {i} ({threads} threads): {p:e} vs oracle {o:e}"
            );
        }
    }
}

// A reproducer exactly as the fuzzer renders it, kept so that the rendered
// form is compiled and run: it holds both leaves and every op whose
// rendering is its own. The renderer's unit test requires this text
// verbatim, so a change to the rendering must re-render it here.
#[rustfmt::skip]
#[test]
fn fuzz_reproducer() {
    use adamel_oracle::{check_program, Inst, Program};
    use adamel_tensor::Expr;
    let p = Program {
        insts: vec![
            Inst::Input { rows: 2, cols: 3, data: vec![f32::from_bits(0x3f000000), f32::from_bits(0xbf800000), f32::from_bits(0x00000000), f32::from_bits(0x3fc00000), f32::from_bits(0x3e800000), f32::from_bits(0xbf000000)] },
            Inst::Op(Expr::SliceCols { input: 0, start: 0, width: 2 }),
            Inst::Param { rows: 2, cols: 2, data: vec![f32::from_bits(0x3f800000), f32::from_bits(0xbf000000), f32::from_bits(0x3e800000), f32::from_bits(0x40000000)] },
            Inst::Op(Expr::MatMul(1, 2)),
            Inst::Op(Expr::Scale(3, f32::from_bits(0xbf400000))),
            Inst::Op(Expr::SoftmaxRows(4)),
            Inst::Op(Expr::WeightedSum { parts: vec![3, 4], weights: 5 }),
            Inst::Op(Expr::ConcatCols(vec![6, 1])),
            Inst::Op(Expr::SliceCols { input: 7, start: 0, width: 1 }),
            Inst::Op(Expr::WeightedBceWithLogits { logits: 8, targets: adamel_tensor::Matrix::from_vec(2, 1, vec![f32::from_bits(0x3f800000), f32::from_bits(0x00000000)]), weights: adamel_tensor::Matrix::from_vec(2, 1, vec![f32::from_bits(0x3f000000), f32::from_bits(0x40000000)]) }),
            Inst::Op(Expr::KlConstRows { probs: 5, target: adamel_tensor::Matrix::from_vec(1, 2, vec![f32::from_bits(0x3e800000), f32::from_bits(0x3f400000)]), eps: f32::from_bits(0x33d6bf95) }),
            Inst::Op(Expr::Add(9, 10)),
        ],
        root: 11,
    };
    if let Err(d) = check_program(&p) {
        panic!("production diverges from oracle: {d}");
    }
}
