//! Training loops for the four AdaMEL variants (Algorithms 1–3).
//!
//! All variants share the mini-batch supervised pass over `D_S`; the
//! adaptation variants add:
//!
//! * **zero/hyb** — at the start of every epoch the mean target-domain
//!   attention vector `f̄(x')` is recomputed with the current parameters
//!   (Algorithm 1 line 5) and each batch minimizes
//!   `(1−λ)·L_base + λ·KL(f̄(x') || f(x_i))` (Eq. 9–10);
//! * **few/hyb** — after the `D_S` pass of each epoch the positive/negative
//!   attention centroids `c±` and mean distances `d̄±` are recomputed
//!   (Eq. 11) and the support set's distance-ratio-weighted cross-entropy,
//!   scaled by φ, joins one batch's gradient accumulation per epoch
//!   (Eq. 12–13) — matching Algorithms 2–3, which accumulate `J` across the
//!   base and support terms before updating.

use crate::config::Variant;
use crate::drift::mean_row_entropy;
use crate::model::AdamelModel;
use adamel_obs::runlog;
use adamel_schema::Domain;
use adamel_tensor::{parallel, Adam, EncodedBlocks, Graph, Matrix, Optimizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Summary of one training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss per epoch (base + adaptation terms as trained).
    pub epoch_losses: Vec<f32>,
    /// Number of epochs run.
    pub epochs: usize,
}

impl TrainReport {
    /// The last epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// Trains `model` as `variant`.
///
/// * `train` — labeled `D_S` pairs (required, non-empty);
/// * `target` — unlabeled `D_T` pairs, required for zero/hyb;
/// * `support` — labeled `S_U` pairs, required for few/hyb.
///
/// Panics if a required input is missing, mirroring the algorithm
/// signatures.
pub fn fit(
    model: &mut AdamelModel,
    variant: Variant,
    train: &Domain,
    target: Option<&Domain>,
    support: Option<&Domain>,
) -> TrainReport {
    assert!(!train.is_empty(), "fit: empty training domain");
    let target = if variant.uses_target() {
        let t = target.expect("fit: this variant requires the unlabeled target domain");
        assert!(!t.is_empty(), "fit: empty target domain");
        Some(t)
    } else {
        None
    };
    let support = if variant.uses_support() {
        let s = support.expect("fit: this variant requires the labeled support set");
        assert!(!s.is_empty(), "fit: empty support set");
        Some(s)
    } else {
        None
    };

    let cfg = model.config().clone();
    let train_enc = model.encode(&train.pairs);
    let train_labels = train.labels();
    let target_enc = target.map(|t| model.encode(&t.pairs));
    let support_enc = support.map(|s| model.encode(&s.pairs));
    let support_labels = support.map(Domain::labels);

    let mut opt = Adam::with_lr(cfg.learning_rate);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7ea1);
    let mut report = TrainReport { epoch_losses: Vec::with_capacity(cfg.epochs), epochs: 0 };

    // Run-ledger manifest: everything needed to reproduce or compare the
    // run. Events are pure reads of config/state — when the ledger is
    // disabled the builder is inert and training bytes are unaffected.
    runlog::event("manifest")
        .str("variant", variant.name())
        .int("seed", cfg.seed)
        .int("epochs", cfg.epochs as u64)
        .int("batch_size", cfg.batch_size as u64)
        .num("learning_rate", cfg.learning_rate.into())
        .num("lambda", cfg.lambda.into())
        .num("phi", cfg.phi.into())
        .int("embed_dim", cfg.embed_dim as u64)
        .int("feature_dim", cfg.feature_dim as u64)
        .int("attention_dim", cfg.attention_dim as u64)
        .int("hidden_dim", cfg.hidden_dim as u64)
        .int("features", model.extractor().num_features() as u64)
        .int("threads", parallel::current_threads() as u64)
        .str("trace", adamel_obs::level().name())
        .int("train_pairs", train.len() as u64)
        .int("target_pairs", target.map_or(0, |t| t.len()) as u64)
        .int("support_pairs", support.map_or(0, |s| s.len()) as u64)
        .emit();

    let n = train.len();
    let mut order: Vec<usize> = (0..n).collect();

    for epoch in 0..cfg.epochs {
        adamel_obs::trace_span!("train_epoch");
        // Algorithm 1 line 5: f̄(x') with current parameters.
        let target_mean = target_enc.as_ref().map(|enc| model.attention_encoded(enc).mean_rows());

        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }

        // Support weights are recomputed per epoch with the current f
        // (Algorithms 2–3 line 10).
        let telemetry = adamel_obs::enabled() || runlog::enabled();
        let mut support_stats: Option<(f64, f64, f64)> = None;
        let support_batch = match (&support_enc, &support_labels) {
            (Some(enc), Some(labels)) => {
                let weights = support_weights(model, &train_enc, &train_labels, enc, labels);
                if telemetry && !weights.is_empty() {
                    let sum: f64 = weights.iter().map(|&w| f64::from(w)).sum();
                    let min = weights.iter().copied().fold(f32::INFINITY, f32::min);
                    let max = weights.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mean = sum / weights.len() as f64;
                    support_stats = Some((mean, f64::from(min), f64::from(max)));
                    adamel_obs::record_value("train.support_weight_mean", mean);
                    adamel_obs::record_value("train.support_weight_min", f64::from(min));
                    adamel_obs::record_value("train.support_weight_max", f64::from(max));
                }
                let y = Matrix::from_vec(labels.len(), 1, labels.clone());
                let w = Matrix::from_vec(labels.len(), 1, weights);
                let pairs: Vec<usize> = (0..labels.len()).collect();
                Some((enc, pairs, y, w))
            }
            _ => None,
        };

        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        // Loss-component accumulators (Eq. 9–14 telemetry); reading node
        // values records no tape ops, so the graph is byte-identical with
        // tracing on or off.
        let (mut epoch_base, mut epoch_kl, mut epoch_support) = (0.0f64, 0.0f64, 0.0f64);
        let (mut entropy_sum, mut entropy_rows) = (0.0f64, 0usize);
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let batch_y =
                Matrix::from_vec(chunk.len(), 1, chunk.iter().map(|&i| train_labels[i]).collect());

            let mut g = Graph::new();
            let nodes = model.forward(&mut g, &train_enc, chunk);
            if telemetry {
                // Entropy of g(x) per batch — a value read, no tape ops.
                let att = g.value(nodes.attention);
                entropy_sum += mean_row_entropy(att) * att.rows() as f64;
                entropy_rows += att.rows();
            }
            let base = g.bce_with_logits(nodes.logits, batch_y);
            epoch_base += f64::from(g.value(base).item());
            let mut loss = match &target_mean {
                Some(mean) => {
                    // L_un = (1-λ) L_base + λ KL(f̄(x') || f(x_i)) (Eq. 9).
                    let kl = g.kl_const_rows(nodes.attention, mean.clone(), 1e-7);
                    epoch_kl += f64::from(g.value(kl).item());
                    let base_term = g.scale(base, 1.0 - cfg.lambda);
                    let kl_term = g.scale(kl, cfg.lambda);
                    g.add(base_term, kl_term)
                }
                None => base,
            };
            // L_ssl / L_hybrid (Eq. 13–14): once per epoch the support term
            // joins the same gradient accumulation as a batch loss rather
            // than taking a standalone optimizer step — Adam's normalized
            // step sizes would otherwise overweight S_U regardless of φ.
            if batches == 0 {
                if let Some((enc, pairs, y, w)) = &support_batch {
                    let support_nodes = model.forward(&mut g, enc, pairs);
                    let s = g.weighted_bce_with_logits(support_nodes.logits, y.clone(), w.clone());
                    epoch_support += f64::from(g.value(s).item());
                    let s = g.scale(s, cfg.phi);
                    loss = g.add(loss, s);
                }
            }
            epoch_loss += g.value(loss).item();
            batches += 1;

            model.params.zero_grads();
            g.backward(loss, &mut model.params);
            // The tape shares the parameter values; dropping it lets the
            // optimizer write them in place instead of copying them.
            drop(g);
            // The extra norm pass is work, not just a read, so it is gated
            // behind the `full` level rather than `enabled()`.
            if adamel_obs::level() == adamel_obs::TraceLevel::Full {
                adamel_obs::record_value("train.grad_norm", f64::from(model.params.grad_norm()));
            }
            if let Some(clip) = cfg.grad_clip {
                model.params.clip_grad_norm(clip);
            }
            opt.step(&mut model.params);
        }

        let denom = batches.max(1) as f64;
        adamel_obs::trace_value!("train.loss_base", epoch_base / denom);
        if target_mean.is_some() {
            adamel_obs::trace_value!("train.loss_kl", epoch_kl / denom);
        }
        if support_batch.is_some() {
            adamel_obs::trace_value!("train.loss_support", epoch_support);
        }
        adamel_obs::trace_value!("train.loss_epoch", epoch_loss as f64 / denom);
        let mean_entropy = if entropy_rows == 0 { 0.0 } else { entropy_sum / entropy_rows as f64 };
        adamel_obs::trace_value!("train.attention_entropy", mean_entropy);
        if runlog::enabled() {
            let mut ev = runlog::event("epoch")
                .int("epoch", epoch as u64)
                .num("loss", f64::from(epoch_loss) / denom)
                .num("l_base", epoch_base / denom)
                .num("attention_entropy", mean_entropy);
            if target_mean.is_some() {
                ev = ev.num("l_kl", epoch_kl / denom);
            }
            if support_batch.is_some() {
                ev = ev.num("l_support", epoch_support);
            }
            if let Some((mean, min, max)) = support_stats {
                ev = ev
                    .num("support_weight_mean", mean)
                    .num("support_weight_min", min)
                    .num("support_weight_max", max);
            }
            ev.emit();
        }
        report.epoch_losses.push(epoch_loss / batches.max(1) as f32);
        report.epochs += 1;
    }
    report
}

/// Distance-ratio weights of Eq. 12: support pairs whose attention vectors
/// deviate from the source-domain centroid of their class get larger
/// weights, highlighting pairs from genuinely new sources.
///
/// Public so the differential oracle (`adamel-oracle`) can diff the weight
/// computation against its `f64` re-derivation of Eq. 11–12.
pub fn support_weights(
    model: &AdamelModel,
    train_enc: &EncodedBlocks,
    train_labels: &[f32],
    support_enc: &EncodedBlocks,
    support_labels: &[f32],
) -> Vec<f32> {
    let att_s = model.attention_encoded(train_enc);
    let att_u = model.attention_encoded(support_enc);
    let f = att_s.cols();

    // Class centroids over D_S (Eq. 11).
    let mut centroid = [vec![0.0f32; f], vec![0.0f32; f]];
    let mut counts = [0usize; 2];
    for (i, &y) in train_labels.iter().enumerate() {
        let c = usize::from(y > 0.5);
        counts[c] += 1;
        for (acc, &v) in centroid[c].iter_mut().zip(att_s.row(i)) {
            *acc += v;
        }
    }
    for c in 0..2 {
        let inv = 1.0 / counts[c].max(1) as f32;
        centroid[c].iter_mut().for_each(|v| *v *= inv);
    }

    // Mean distance of each class to its centroid.
    let dist = |row: &[f32], c: &[f32]| -> f32 {
        row.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum::<f32>().sqrt()
    };
    let mut mean_dist = [0.0f32; 2];
    for (i, &y) in train_labels.iter().enumerate() {
        let c = usize::from(y > 0.5);
        mean_dist[c] += dist(att_s.row(i), &centroid[c]);
    }
    for c in 0..2 {
        mean_dist[c] /= counts[c].max(1) as f32;
        if mean_dist[c] <= f32::EPSILON {
            mean_dist[c] = 1.0; // degenerate: all source attentions equal
        }
    }

    let mut weights: Vec<f32> = support_labels
        .iter()
        .enumerate()
        .map(|(i, &y)| {
            let c = usize::from(y > 0.5);
            let w = dist(att_u.row(i), &centroid[c]) / mean_dist[c];
            // Clamp so a single outlier cannot dominate the pass.
            w.clamp(0.2, 5.0)
        })
        .collect();
    // Normalize to mean 1: Eq. 12 weights are *relative* emphases; keeping
    // the total loss scale comparable to a plain batch stabilizes Adam.
    let mean = weights.iter().sum::<f32>() / weights.len().max(1) as f32;
    if mean > 0.0 {
        weights.iter_mut().for_each(|w| *w /= mean);
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdamelConfig;
    use adamel_schema::{EntityPair, Record, Schema, SourceId};

    fn rec(source: u32, id: u64, title: &str) -> Record {
        let mut r = Record::new(SourceId(source), id);
        r.set("title", title);
        r
    }

    /// A tiny separable task: matching pairs share the title.
    fn toy_domains() -> (Schema, Domain, Domain, Domain) {
        let titles = ["alpha beta", "gamma delta", "epsilon zeta", "eta theta", "iota kappa"];
        let mut train = Vec::new();
        let mut id = 0u64;
        for t in titles {
            train.push(EntityPair::labeled(rec(0, id, t), rec(1, id, t), true));
            id += 1;
        }
        for (i, t) in titles.iter().enumerate() {
            let other = titles[(i + 1) % titles.len()];
            train.push(EntityPair::labeled(rec(0, id, t), rec(1, id + 1, other), false));
            id += 2;
        }
        let target = Domain::new(
            train.iter().map(|p| EntityPair::unlabeled(p.left.clone(), p.right.clone())).collect(),
        );
        let support = Domain::new(train[..4].to_vec());
        (Schema::new(vec!["title".into()]), Domain::new(train), target, support)
    }

    fn trained(variant: Variant) -> (AdamelModel, Domain) {
        let (schema, train, target, support) = toy_domains();
        let mut model = AdamelModel::new(AdamelConfig::tiny(), schema);
        fit(&mut model, variant, &train, Some(&target), Some(&support));
        (model, train)
    }

    #[test]
    fn base_learns_separable_task() {
        let (model, train) = trained(Variant::Base);
        let scores = model.predict(&train.pairs);
        let labels = train.labels();
        // Positives should outscore negatives on average.
        let pos: f32 = scores.iter().zip(&labels).filter(|(_, &l)| l > 0.5).map(|(s, _)| s).sum();
        let neg: f32 = scores.iter().zip(&labels).filter(|(_, &l)| l < 0.5).map(|(s, _)| s).sum();
        let n_pos = labels.iter().filter(|&&l| l > 0.5).count() as f32;
        let n_neg = labels.len() as f32 - n_pos;
        assert!(pos / n_pos > neg / n_neg + 0.15, "pos {} neg {}", pos / n_pos, neg / n_neg);
    }

    #[test]
    fn all_variants_train_without_nan() {
        for variant in Variant::ALL {
            let (model, train) = trained(variant);
            for s in model.predict(&train.pairs) {
                assert!(s.is_finite(), "{variant:?} produced non-finite score");
            }
        }
    }

    #[test]
    fn loss_decreases_for_base() {
        let (schema, train, _, _) = toy_domains();
        let mut model = AdamelModel::new(AdamelConfig::tiny(), schema);
        let report = fit(&mut model, Variant::Base, &train, None, None);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(last < first, "loss went {first} -> {last}");
    }

    #[test]
    fn zero_aligns_attention_with_target_mean() {
        let (schema, train, target, _) = toy_domains();
        // λ close to 1: adaptation dominates; attention of source pairs
        // should be pulled toward the target mean.
        let cfg = AdamelConfig::tiny().with_lambda(0.98);
        let mut model = AdamelModel::new(cfg, schema.clone());
        fit(&mut model, Variant::Zero, &train, Some(&target), None);
        let att_s = model.attention(&train.pairs).mean_rows();
        let att_t = model.attention(&target.pairs).mean_rows();
        let gap = att_s.distance(&att_t);
        assert!(gap < 0.05, "attention means still {gap} apart");
    }

    #[test]
    fn training_is_deterministic() {
        let (schema, train, _, _) = toy_domains();
        let mut m1 = AdamelModel::new(AdamelConfig::tiny(), schema.clone());
        let mut m2 = AdamelModel::new(AdamelConfig::tiny(), schema);
        fit(&mut m1, Variant::Base, &train, None, None);
        fit(&mut m2, Variant::Base, &train, None, None);
        assert_eq!(m1.predict(&train.pairs), m2.predict(&train.pairs));
    }

    #[test]
    #[should_panic(expected = "requires the unlabeled target domain")]
    fn zero_requires_target() {
        let (schema, train, _, _) = toy_domains();
        let mut model = AdamelModel::new(AdamelConfig::tiny(), schema);
        fit(&mut model, Variant::Zero, &train, None, None);
    }

    #[test]
    #[should_panic(expected = "requires the labeled support set")]
    fn few_requires_support() {
        let (schema, train, _, _) = toy_domains();
        let mut model = AdamelModel::new(AdamelConfig::tiny(), schema);
        fit(&mut model, Variant::Few, &train, None, None);
    }

    #[test]
    fn support_weights_highlight_deviating_pairs() {
        let (schema, train, _, support) = toy_domains();
        let model = AdamelModel::new(AdamelConfig::tiny(), schema);
        let train_enc = model.encode(&train.pairs);
        let support_enc = model.encode(&support.pairs);
        let w =
            support_weights(&model, &train_enc, &train.labels(), &support_enc, &support.labels());
        assert_eq!(w.len(), support.len());
        for v in w {
            assert!(v.is_finite() && v > 0.0);
        }
    }
}

#[cfg(test)]
mod equivalence_tests {
    use super::*;
    use crate::config::AdamelConfig;
    use crate::model::AdamelModel;
    use adamel_schema::{EntityPair, Record, Schema, SourceId};

    fn rec(source: u32, id: u64, title: &str) -> Record {
        let mut r = Record::new(SourceId(source), id);
        r.set("title", title);
        r
    }

    fn small_task() -> (Schema, Domain, Domain) {
        let mut train = Vec::new();
        for i in 0..6u64 {
            train.push(EntityPair::labeled(
                rec(0, i, &format!("t {i} x")),
                rec(1, i, &format!("t {i} x")),
                true,
            ));
            train.push(EntityPair::labeled(
                rec(0, i, &format!("t {i} x")),
                rec(1, i + 30, &format!("u {} y", i + 9)),
                false,
            ));
        }
        let target = Domain::new(
            train.iter().map(|p| EntityPair::unlabeled(p.left.clone(), p.right.clone())).collect(),
        );
        (Schema::new(vec!["title".into()]), Domain::new(train), target)
    }

    /// With λ = 0 the KL term is weightless, so AdaMEL-zero must produce
    /// bit-identical parameters to AdaMEL-base (same RNG consumption, same
    /// gradients).
    #[test]
    fn zero_with_lambda_zero_equals_base() {
        let (schema, train, target) = small_task();
        let cfg = AdamelConfig::tiny().with_lambda(0.0);
        let mut base = AdamelModel::new(cfg.clone(), schema.clone());
        fit(&mut base, Variant::Base, &train, None, None);
        let mut zero = AdamelModel::new(cfg, schema);
        fit(&mut zero, Variant::Zero, &train, Some(&target), None);
        assert_eq!(base.predict(&train.pairs), zero.predict(&train.pairs));
    }

    /// Epoch losses are finite and the report length matches the config.
    #[test]
    fn report_accounts_every_epoch() {
        let (schema, train, target) = small_task();
        let cfg = AdamelConfig::tiny();
        let epochs = cfg.epochs;
        let mut model = AdamelModel::new(cfg, schema);
        let report = fit(&mut model, Variant::Zero, &train, Some(&target), None);
        assert_eq!(report.epochs, epochs);
        assert_eq!(report.epoch_losses.len(), epochs);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    /// Training must tolerate a single-pair support set (the |S_U| = 1 point
    /// of Fig. 10).
    #[test]
    fn single_pair_support_set_works() {
        let (schema, train, target) = small_task();
        let support = Domain::new(vec![train.pairs[0].clone()]);
        let mut model = AdamelModel::new(AdamelConfig::tiny(), schema);
        fit(&mut model, Variant::Hyb, &train, Some(&target), Some(&support));
        assert!(model.predict(&train.pairs).iter().all(|s| s.is_finite()));
    }

    /// A training domain with a single class must not panic (centroid of an
    /// empty class is guarded).
    #[test]
    fn single_class_training_domain_is_guarded() {
        let (schema, train, target) = small_task();
        let positives =
            Domain::new(train.pairs.iter().filter(|p| p.label == Some(true)).cloned().collect());
        let support = Domain::new(train.pairs[..2].to_vec());
        let mut model = AdamelModel::new(AdamelConfig::tiny(), schema);
        fit(&mut model, Variant::Few, &positives, Some(&target), Some(&support));
        assert!(model.predict(&train.pairs).iter().all(|s| s.is_finite()));
    }
}
