//! Emits `BENCH_parallel.json` (or `--out <path>`): deterministic
//! counters for the matmul kernels, batch pair encoding, and end-to-end
//! prediction. Timings live in the benchmark of record (`bench_record`);
//! this file holds only numbers that are the same on every run, so CI
//! regenerates it and fails on any byte of difference.
//!
//! Every row is one run of its workload under
//! [`parallel::with_threads`]`(1)` at forced `spans` level, after
//! [`adamel_obs::mem::reset_peaks`]. A row is `{kernel, n, flops,
//! peak_bytes}`: `flops` is the arithmetic work of the run (0 for the
//! encoding rows) and `peak_bytes` is `mem::peak_total()` afterwards. The
//! rows are the three GEMM variants, cold pair encoding
//! (`encode_pairs_cold`, record-level cache dropped first), warm pair
//! encoding (`encode_pairs`, whose cache-stats delta feeds the `"cache"`
//! section), prediction (`predict`, the model's two-phase forward), and
//! one training step (`train_step`): a one-epoch AdaMEL-few `fit` over one
//! 16-pair batch, so the batch and the 100-pair support batch go through
//! one tape, forward and backward, then Adam. `flops` counts the analytic
//! per-pair work (`per_row_flops`; for `train_step` the tape's forward and
//! backward, not the attention passes `fit` makes for the support
//! weights), not the arithmetic the forward skips by running each distinct
//! feature block once.
//! A `"mem"` section (`adamel-mem/v1`) holds the largest row peak and the
//! final per-gauge ledger. Rows run on one thread, so no number in the
//! file depends on the host's core count.
//!
//! With `--obs`, an instrumented exercise pass (encode, chunked predict,
//! attention, a small AdaMEL-hyb training run, and a `Linker::link` call)
//! runs after the rows and its `adamel-obs` span report is embedded under
//! the `"obs"` key. The pass uses the environment level (bumped to `full`
//! if tracing is off). An `--obs` document holds span timings, so it is
//! never committed.

use adamel::config::{AdamelConfig, Variant};
use adamel::model::AdamelModel;
use adamel::pipeline::{Linker, LinkerConfig};
use adamel::train::fit;
use adamel_obs::TraceLevel;
use adamel_schema::{Domain, EntityPair, Record, Schema, SourceId};
use adamel_tensor::{parallel, Matrix};
use rand::{Rng, SeedableRng};

const MATMUL_M: usize = 128;
const NUM_PAIRS: usize = 200;
/// Pairs in the `train_step` row's one batch (the paper's batch size) and
/// in its support batch.
const TRAIN_BATCH: usize = 16;
const SUPPORT_PAIRS: usize = 100;

struct Row {
    kernel: &'static str,
    n: usize,
    /// Arithmetic work per run; 0 for rows that are not compute kernels.
    flops: u64,
    /// Summed mem-gauge high-water mark of the row's run.
    peak_bytes: u64,
}

/// Runs `f` once on one thread at forced `Spans` level, in a fresh peak
/// window, and returns the row. The level goes back to `Off` afterwards.
fn row(kernel: &'static str, n: usize, flops: u64, f: impl FnOnce()) -> Row {
    adamel_obs::set_forced(Some(TraceLevel::Spans));
    adamel_obs::mem::reset_peaks();
    parallel::with_threads(1, f);
    let peak_bytes = adamel_obs::mem::peak_total();
    adamel_obs::set_forced(Some(TraceLevel::Off));
    Row { kernel, n, flops, peak_bytes }
}

/// Analytic tape FLOPs of one trained row: the forward
/// (`per_row_flops`), then each product's gradient toward its parameter
/// (the forward's FLOPs again) and toward its other operand, which Eq. 4's
/// `h_j·V_j` skips because no parameter feeds the encoded input.
fn train_flops_per_row(model: &AdamelModel) -> u64 {
    let cfg = model.config();
    let f = model.extractor().num_features();
    (3 * model.per_row_flops() - f * 2 * cfg.embed_dim * cfg.feature_dim) as u64
}

fn random_matrix(rows: usize, cols: usize, rng: &mut rand::rngs::StdRng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// 13-attribute schema with short multi-word values, mirroring the paper's
/// Adobe-domain attribute count.
fn synth_pairs(n: usize) -> (Schema, Vec<EntityPair>) {
    let attrs: Vec<String> = (0..13).map(|i| format!("attr{i:02}")).collect();
    let schema = Schema::new(attrs.clone());
    let vocab = [
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india",
        "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let mut pairs = Vec::with_capacity(n);
    for i in 0..n {
        let mut left = Record::new(SourceId(0), i as u64);
        let mut right = Record::new(SourceId(1), i as u64);
        for attr in &attrs {
            // ~10% of attribute values are missing on each side.
            if rng.gen_range(0u32..10) > 0 {
                let words: Vec<&str> =
                    (0..3).map(|_| vocab[rng.gen_range(0usize..vocab.len())]).collect();
                left.set(attr, words.join(" "));
                // Half the pairs share the value; half perturb one word.
                let mut rwords = words.clone();
                if rng.gen_range(0u32..2) == 0 {
                    rwords[0] = vocab[rng.gen_range(0usize..vocab.len())];
                }
                right.set(attr, rwords.join(" "));
            }
        }
        pairs.push(EntityPair::unlabeled(left, right));
    }
    (schema, pairs)
}

/// Runs every instrumented hot path once so the `--obs` report covers the
/// encode, attention, classifier, train-epoch, predict, and linking spans:
/// a small AdaMEL-hyb training run on a separable toy task, a chunked
/// (>128-row) predict over the synthetic paper-shaped pairs, an attention
/// pass, and an end-to-end `Linker::link` call.
fn run_obs_exercise(chunk_model: &AdamelModel, pairs: &[EntityPair]) {
    // Chunked predict + attention on the 13-attribute synthetic pairs
    // (200 rows > the 128-row chunk size, so the chunked path is exercised).
    std::hint::black_box(chunk_model.predict(pairs));
    std::hint::black_box(chunk_model.attention(&pairs[..16]));

    // A tiny labeled task (same shape as the training unit tests) drives
    // the per-epoch telemetry: base/KL/support loss components, support
    // weights, and grad norms at `full`.
    let names = ["alpha beta", "gamma delta", "epsilon zeta", "eta theta", "iota kappa"];
    let rec = |source: u32, id: u64, name: &str| {
        let mut r = Record::new(SourceId(source), id);
        r.set("name", name);
        r
    };
    let mut train = Vec::new();
    let mut id = 0u64;
    for n in names {
        train.push(EntityPair::labeled(rec(0, id, n), rec(1, id, n), true));
        id += 1;
    }
    for (i, n) in names.iter().enumerate() {
        let other = names[(i + 1) % names.len()];
        train.push(EntityPair::labeled(rec(0, id, n), rec(1, id + 1, other), false));
        id += 2;
    }
    let target = Domain::new(
        train.iter().map(|p| EntityPair::unlabeled(p.left.clone(), p.right.clone())).collect(),
    );
    let support = Domain::new(train[..4].to_vec());
    let schema = Schema::new(vec!["name".into()]);
    let mut model = AdamelModel::new(AdamelConfig::tiny(), schema);
    fit(&mut model, Variant::Hyb, &Domain::new(train), Some(&target), Some(&support));

    // End-to-end linking: blocking + batch scoring + thresholding.
    let left: Vec<Record> =
        names.iter().enumerate().map(|(i, n)| rec(0, 100 + i as u64, n)).collect();
    let right: Vec<Record> =
        names.iter().enumerate().map(|(i, n)| rec(1, 200 + i as u64, n)).collect();
    let linker = Linker::new(model, LinkerConfig::default());
    std::hint::black_box(linker.link(&left, &right));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_parallel.json");
    let mut obs_mode = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--obs" => obs_mode = true,
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_path = p.clone(),
                    None => {
                        eprintln!("perfjson: --out requires a path argument");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("perfjson: unknown argument `{other}` (expected --obs, --out <path>)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Tracing stays forced off outside the rows' runs, so an
    // `ADAMEL_TRACE` environment cannot change what the ledger sees.
    adamel_obs::set_forced(Some(TraceLevel::Off));

    let mut rows: Vec<Row> = Vec::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // --- matmul kernels at paper-scale inner dims (300 -> 256) ---
    let a = random_matrix(MATMUL_M, 300, &mut rng);
    let b = random_matrix(300, 256, &mut rng);
    let b_t = random_matrix(256, 300, &mut rng);
    let a_tall = random_matrix(MATMUL_M, 256, &mut rng);
    // All three variants compute an (m x 300)·(300 x 256)-shaped product.
    let gemm_flops = 2 * MATMUL_M as u64 * 300 * 256;
    rows.push(row("matmul", MATMUL_M, gemm_flops, || {
        std::hint::black_box(a.matmul(&b));
    }));
    rows.push(row("matmul_tn", MATMUL_M, gemm_flops, || {
        std::hint::black_box(a.matmul_tn(&a_tall));
    }));
    rows.push(row("matmul_nt", MATMUL_M, gemm_flops, || {
        std::hint::black_box(a.matmul_nt(&b_t));
    }));

    // --- pair encoding and end-to-end prediction at paper dims ---
    let (schema, pairs) = synth_pairs(NUM_PAIRS);
    let model = AdamelModel::new(AdamelConfig::paper(), schema.clone());
    let extractor = model.extractor().clone();
    // Cold: the record-level cache is dropped first, so the run pays full
    // tokenize/hash/embed for every distinct record.
    rows.push(row("encode_pairs_cold", NUM_PAIRS, 0, || {
        extractor.clear_cache();
        std::hint::black_box(extractor.encode_pairs(&pairs));
    }));
    // Warm: fill the cache, then run once more. The stats delta around the
    // warm run gives the report's hit-rate: with a working cache every
    // record reference is a hit (rate 1.0).
    extractor.clear_cache();
    std::hint::black_box(extractor.encode_pairs(&pairs));
    let cache_before = extractor.cache_stats();
    rows.push(row("encode_pairs", NUM_PAIRS, 0, || {
        std::hint::black_box(extractor.encode_pairs(&pairs));
    }));
    let cache_after = extractor.cache_stats();
    let warm_hits = cache_after.hits - cache_before.hits;
    let warm_misses = cache_after.misses - cache_before.misses;
    let warm_hit_rate = if warm_hits + warm_misses == 0 {
        0.0
    } else {
        warm_hits as f64 / (warm_hits + warm_misses) as f64
    };
    let encoded = extractor.encode_pairs(&pairs);
    let predict_flops = NUM_PAIRS as u64 * model.per_row_flops() as u64;
    rows.push(row("predict", NUM_PAIRS, predict_flops, || {
        std::hint::black_box(model.predict_encoded(&encoded));
    }));
    // One `fit` epoch over exactly one batch, with the support batch on its
    // tape; labels alternate, since only the work is counted.
    let labeled = |from: usize, n: usize| {
        let pairs = pairs[from..from + n]
            .iter()
            .enumerate()
            .map(|(i, p)| EntityPair::labeled(p.left.clone(), p.right.clone(), i % 2 == 0));
        Domain::new(pairs.collect())
    };
    let (train, support) = (labeled(0, TRAIN_BATCH), labeled(TRAIN_BATCH, SUPPORT_PAIRS));
    let one_epoch = AdamelConfig { epochs: 1, batch_size: TRAIN_BATCH, ..AdamelConfig::paper() };
    let train_flops = (TRAIN_BATCH + SUPPORT_PAIRS) as u64 * train_flops_per_row(&model);
    rows.push(row("train_step", TRAIN_BATCH + SUPPORT_PAIRS, train_flops, || {
        let mut model = AdamelModel::new(one_epoch, schema);
        std::hint::black_box(fit(&mut model, Variant::Few, &train, None, Some(&support)));
    }));

    // --- emit JSON (hand-written: no serialization dependency) ---
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.3}, \"distinct_records\": {}, \"interned_tokens\": {}}},\n",
        warm_hits,
        warm_misses,
        warm_hit_rate,
        cache_after.distinct_records,
        cache_after.interned_tokens
    ));
    // Memory summary: the largest row peak plus the final gauge ledger.
    let max_row_peak = rows.iter().map(|r| r.peak_bytes).max().unwrap_or(0);
    out.push_str(&format!(
        "  \"mem\": {{\"schema\": \"adamel-mem/v1\", \"max_row_peak_bytes\": {max_row_peak}, \"gauges\": {{"
    ));
    for (i, (name, gauge)) in adamel_obs::mem::snapshot().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"current\": {}, \"peak\": {}}}",
            adamel_obs::json::escape(name),
            gauge.current,
            gauge.peak
        ));
    }
    out.push_str("}},\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"n\": {}, \"flops\": {}, \"peak_bytes\": {}}}{}\n",
            r.kernel,
            r.n,
            r.flops,
            r.peak_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");

    // --- optional instrumented exercise pass (--obs) ---
    if obs_mode {
        // Hand control back to ADAMEL_TRACE; bump to `full` if that leaves
        // tracing off, so `--obs` alone still produces a useful report.
        adamel_obs::set_forced(None);
        if !adamel_obs::enabled() {
            adamel_obs::set_forced(Some(TraceLevel::Full));
        }
        adamel_obs::report::reset();
        run_obs_exercise(&model, &pairs);
        out.push_str(",\n  \"obs\": ");
        out.push_str(&adamel_obs::report::render_json());
        adamel_obs::set_forced(Some(TraceLevel::Off));
    }
    out.push_str("\n}\n");

    std::fs::write(&out_path, &out).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    print!("{out}");
    eprintln!("wrote {out_path}");
}
