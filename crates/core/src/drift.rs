//! Data- and model-drift monitors for unseen target sources.
//!
//! AdaMEL's premise (§1, §3) is that new sources arrive shifted along
//! three axes: **C1** missing attributes, **C2** attributes never seen in
//! training, and **C3** shifted value distributions — and that the
//! attention vector `g(x)` of Eq. 5–6 is the transferable knowledge that
//! must absorb the shift. These monitors make each axis measurable per
//! source, against a [`DriftBaseline`] frozen at training time:
//!
//! | signal | challenge | definition |
//! |---|---|---|
//! | `c1_missing_rate` | C1 | missing fraction over schema attributes, vs the baseline rate |
//! | `c2_new_attributes` | C2 | attributes present on target records but never observed in training |
//! | `c3_oov_rate` | C3 | fraction of value tokens outside the training vocabulary |
//! | `attention_shift` | Eq. 5–6 | KL/JS divergence of the per-source mean attention vector from the frozen source-domain mean |
//! | `calibration` | — | ECE of match scores vs ground truth, with a fixed-bin score histogram |
//!
//! Drift never runs the model: it reads a [`ScoredPairs`] batch, the
//! scores and attention rows of the forward pass that already scored the
//! pairs (`Linker::score_candidates` returns one beside its matches, and
//! [`AdamelModel::score`](crate::model::AdamelModel::score) builds one).
//!
//! Each signal compares against a configurable [`DriftThresholds`] entry;
//! exceedances become [`DriftWarning`]s, and
//! [`SourceDrift::emit_runlog`] writes the whole assessment (plus one
//! `warn` event per exceedance) into the run ledger
//! (`adamel_obs::runlog`).

use std::collections::{BTreeMap, BTreeSet};

use crate::model::ScoredPairs;
use adamel_metrics::ece;
use adamel_obs::runlog;
use adamel_schema::{Record, Schema, SourceId};
use adamel_tensor::Matrix;
use adamel_text::tokenize;

/// Number of equal-width bins in the per-source match-score histogram.
pub const SCORE_BINS: usize = 10;

/// Floor applied to probabilities before taking logarithms, so empty
/// attention slots don't produce infinities.
const EPS: f64 = 1e-9;

/// Per-signal warning thresholds. A signal warns when its value *exceeds*
/// the threshold, so `f64::INFINITY` disables a signal.
#[derive(Debug, Clone)]
pub struct DriftThresholds {
    /// C1: warn when a source's missing rate exceeds the baseline rate by
    /// more than this.
    pub missing_rate_increase: f64,
    /// C2: warn when a source shows more than this many attributes never
    /// observed in training (0 = any new attribute warns).
    pub new_attributes: usize,
    /// C3: warn when the token out-of-vocabulary rate exceeds this.
    pub oov_rate: f64,
    /// Warn when the Jensen–Shannon divergence between the source's mean
    /// attention vector and the frozen baseline exceeds this.
    pub attention_js: f64,
    /// Warn when the expected calibration error of match scores exceeds
    /// this.
    pub ece: f64,
}

impl Default for DriftThresholds {
    fn default() -> Self {
        Self {
            missing_rate_increase: 0.15,
            new_attributes: 0,
            oov_rate: 0.15,
            attention_js: 0.1,
            ece: 0.25,
        }
    }
}

/// Source-domain reference statistics, frozen after training.
#[derive(Debug, Clone)]
pub struct DriftBaseline {
    /// Attributes observed (non-missing at least once) on training records.
    pub attributes: BTreeSet<String>,
    /// Mean missing fraction over the model schema on training records.
    pub missing_rate: f64,
    /// Every token appearing in a training record value.
    pub vocabulary: BTreeSet<String>,
    /// Frozen source-domain mean attention vector (Eq. 5–6), one entry per
    /// feature.
    pub mean_attention: Vec<f32>,
}

impl DriftBaseline {
    /// Builds a baseline from the scored training pairs: record statistics
    /// from the pairs' records, the attention mean from their attention
    /// rows. `schema` is the model's, over which missing rates are taken.
    pub fn build(schema: &Schema, train: &ScoredPairs) -> Self {
        let records: Vec<Record> =
            train.pairs.iter().flat_map(|p| [p.left.clone(), p.right.clone()]).collect();
        Self::build_with_pool(schema, train, &records)
    }

    /// Builds a baseline whose record statistics (attributes, missing
    /// rate, vocabulary) come from `pool` — typically the full
    /// source-domain record pool, wider than the sampled training pairs —
    /// while the frozen attention mean still comes from `train`.
    pub fn build_with_pool(schema: &Schema, train: &ScoredPairs, pool: &[Record]) -> Self {
        let mut attributes = BTreeSet::new();
        let mut vocabulary = BTreeSet::new();
        for r in pool {
            for (attr, value) in &r.values {
                if r.is_missing(attr) {
                    continue;
                }
                attributes.insert(attr.clone());
                for tok in tokenize(value) {
                    vocabulary.insert(tok);
                }
            }
        }
        let missing_rate = missing_rate_over(pool.iter(), schema.attributes());
        let mean_attention = if train.pairs.is_empty() {
            vec![0.0; train.attention.cols()]
        } else {
            train.attention.mean_rows().into_vec()
        };
        Self { attributes, missing_rate, vocabulary, mean_attention }
    }
}

/// One drift signal's identity in warnings and ledger events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DriftSignal {
    /// C1: missing-attribute rate increased beyond threshold.
    MissingRate,
    /// C2: attributes observed only in the target.
    NewAttributes,
    /// C3: token out-of-vocabulary rate beyond threshold.
    OovRate,
    /// Attention distribution diverged from the frozen baseline.
    AttentionShift,
    /// Match-score calibration degraded beyond threshold.
    Calibration,
}

impl DriftSignal {
    /// Stable ledger name of the signal.
    pub fn name(self) -> &'static str {
        match self {
            DriftSignal::MissingRate => "c1_missing_rate",
            DriftSignal::NewAttributes => "c2_new_attributes",
            DriftSignal::OovRate => "c3_oov_rate",
            DriftSignal::AttentionShift => "attention_shift",
            DriftSignal::Calibration => "calibration",
        }
    }
}

/// A threshold exceedance on one signal for one source.
#[derive(Debug, Clone)]
pub struct DriftWarning {
    /// Which signal fired.
    pub signal: DriftSignal,
    /// Observed value.
    pub value: f64,
    /// Configured threshold it exceeded.
    pub threshold: f64,
    /// Human-readable one-liner.
    pub message: String,
}

/// Full drift assessment of one target source.
#[derive(Debug, Clone)]
pub struct SourceDrift {
    /// The assessed source.
    pub source: SourceId,
    /// Distinct records from this source among the target pairs.
    pub records: usize,
    /// Target pairs touching this source.
    pub pairs: usize,
    /// Missing fraction over the model schema (C1).
    pub missing_rate: f64,
    /// The baseline missing rate this is compared against.
    pub baseline_missing_rate: f64,
    /// Attributes on this source's records never observed in training (C2).
    pub new_attributes: Vec<String>,
    /// Fraction of value tokens outside the training vocabulary (C3).
    pub oov_rate: f64,
    /// KL divergence of the source's mean attention from the baseline.
    pub attention_kl: f64,
    /// Jensen–Shannon divergence of the same (symmetric, bounded).
    pub attention_js: f64,
    /// Mean per-pair attention entropy (nats).
    pub attention_entropy: f64,
    /// Match-score histogram over [`SCORE_BINS`] equal-width bins in
    /// `[0, 1]`.
    pub score_hist: [u64; SCORE_BINS],
    /// Expected calibration error of the match scores vs ground truth.
    pub ece: f64,
    /// Threshold exceedances, in signal order.
    pub warnings: Vec<DriftWarning>,
}

impl SourceDrift {
    /// True when the given signal fired for this source.
    pub fn warned(&self, signal: DriftSignal) -> bool {
        self.warnings.iter().any(|w| w.signal == signal)
    }

    /// Writes this assessment into the run ledger: one `drift` event,
    /// then one `warn` event per exceedance. No-op when the ledger is
    /// disabled.
    pub fn emit_runlog(&self) {
        if !runlog::enabled() {
            return;
        }
        let mut hist = String::with_capacity(2 + SCORE_BINS * 4);
        hist.push('[');
        for (i, c) in self.score_hist.iter().enumerate() {
            if i > 0 {
                hist.push_str(", ");
            }
            hist.push_str(&c.to_string());
        }
        hist.push(']');
        runlog::event("drift")
            .int("source", u64::from(self.source.0))
            .int("records", self.records as u64)
            .int("pairs", self.pairs as u64)
            .num("missing_rate", self.missing_rate)
            .num("baseline_missing_rate", self.baseline_missing_rate)
            .str_list("new_attributes", &self.new_attributes)
            .num("oov_rate", self.oov_rate)
            .num("attention_kl", self.attention_kl)
            .num("attention_js", self.attention_js)
            .num("attention_entropy", self.attention_entropy)
            .raw("score_hist", &hist)
            .num("ece", self.ece)
            .emit();
        for w in &self.warnings {
            runlog::event("warn")
                .str("signal", w.signal.name())
                .int("source", u64::from(self.source.0))
                .num("value", w.value)
                .num("threshold", w.threshold)
                .str("message", &w.message)
                .emit();
        }
    }
}

/// Compares live target data against a frozen [`DriftBaseline`].
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    /// The frozen source-domain reference.
    pub baseline: DriftBaseline,
    /// Active thresholds.
    pub thresholds: DriftThresholds,
}

impl DriftMonitor {
    /// A monitor with [`DriftThresholds::default`].
    pub fn new(baseline: DriftBaseline) -> Self {
        Self { baseline, thresholds: DriftThresholds::default() }
    }

    /// A monitor with explicit thresholds.
    pub fn with_thresholds(baseline: DriftBaseline, thresholds: DriftThresholds) -> Self {
        Self { baseline, thresholds }
    }

    /// Assesses every source occurring in the scored `target` pairs, in
    /// source-id order; `schema` is the model's.
    ///
    /// Record-level signals (C1/C2/C3) use each source's distinct records
    /// (deduplicated by entity id); model-level signals gather the scores
    /// and attention rows of the pairs touching the source, in pair order.
    #[must_use = "assess has no side effects; the drift report is its only output"]
    pub fn assess(&self, schema: &Schema, target: &ScoredPairs) -> Vec<SourceDrift> {
        let sources: BTreeSet<SourceId> =
            target.pairs.iter().flat_map(|p| [p.left.source, p.right.source]).collect();
        sources.into_iter().map(|source| self.assess_source(schema, target, source)).collect()
    }

    fn assess_source(
        &self,
        schema: &Schema,
        target: &ScoredPairs,
        source: SourceId,
    ) -> SourceDrift {
        // Distinct records of this source among the pairs.
        let mut by_entity: BTreeMap<u64, &Record> = BTreeMap::new();
        let mut pair_indices = Vec::new();
        for (i, p) in target.pairs.iter().enumerate() {
            for r in [&p.left, &p.right] {
                if r.source == source {
                    by_entity.entry(r.entity_id).or_insert(r);
                }
            }
            if p.left.source == source || p.right.source == source {
                pair_indices.push(i);
            }
        }

        let missing_rate = missing_rate_over(by_entity.values().copied(), schema.attributes());

        let mut new_attributes = BTreeSet::new();
        let mut tokens = 0u64;
        let mut oov = 0u64;
        for r in by_entity.values() {
            for (attr, value) in &r.values {
                if r.is_missing(attr) {
                    continue;
                }
                if !self.baseline.attributes.contains(attr) {
                    new_attributes.insert(attr.clone());
                }
                for tok in tokenize(value) {
                    tokens += 1;
                    if !self.baseline.vocabulary.contains(&tok) {
                        oov += 1;
                    }
                }
            }
        }
        let oov_rate = if tokens == 0 { 0.0 } else { oov as f64 / tokens as f64 };

        // Model-level signals over the pairs touching this source.
        let (attention_kl, attention_js, attention_entropy, score_hist, ece_value) =
            if pair_indices.is_empty() {
                (0.0, 0.0, 0.0, [0u64; SCORE_BINS], 0.0)
            } else {
                let att = target.attention.select_rows(&pair_indices);
                let mean = att.mean_rows();
                let kl = kl_divergence(mean.as_slice(), &self.baseline.mean_attention);
                let js = js_divergence(mean.as_slice(), &self.baseline.mean_attention);
                let entropy = mean_row_entropy(&att);
                let scores: Vec<f32> = pair_indices.iter().map(|&i| target.scores[i]).collect();
                let mut hist = [0u64; SCORE_BINS];
                for &s in &scores {
                    let s = if s.is_finite() { f64::from(s).clamp(0.0, 1.0) } else { 0.0 };
                    let b = ((s * SCORE_BINS as f64) as usize).min(SCORE_BINS - 1);
                    hist[b] += 1;
                }
                let labels: Vec<bool> =
                    pair_indices.iter().map(|&i| target.pairs[i].ground_truth()).collect();
                (kl, js, entropy, hist, ece(&scores, &labels, SCORE_BINS))
            };

        let new_attributes: Vec<String> = new_attributes.into_iter().collect();
        let mut warnings = Vec::new();
        let t = &self.thresholds;
        let missing_delta = missing_rate - self.baseline.missing_rate;
        if missing_delta > t.missing_rate_increase {
            warnings.push(DriftWarning {
                signal: DriftSignal::MissingRate,
                value: missing_delta,
                threshold: t.missing_rate_increase,
                message: format!(
                    "source {} missing rate {:.3} is {:.3} above baseline {:.3} (C1)",
                    source.0, missing_rate, missing_delta, self.baseline.missing_rate
                ),
            });
        }
        if new_attributes.len() > t.new_attributes {
            warnings.push(DriftWarning {
                signal: DriftSignal::NewAttributes,
                value: new_attributes.len() as f64,
                threshold: t.new_attributes as f64,
                message: format!(
                    "source {} has {} attributes never observed in training: {} (C2)",
                    source.0,
                    new_attributes.len(),
                    new_attributes.join(", ")
                ),
            });
        }
        if oov_rate > t.oov_rate {
            warnings.push(DriftWarning {
                signal: DriftSignal::OovRate,
                value: oov_rate,
                threshold: t.oov_rate,
                message: format!(
                    "source {} token OOV rate {:.3} exceeds {:.3} (C3)",
                    source.0, oov_rate, t.oov_rate
                ),
            });
        }
        if attention_js > t.attention_js {
            warnings.push(DriftWarning {
                signal: DriftSignal::AttentionShift,
                value: attention_js,
                threshold: t.attention_js,
                message: format!(
                    "source {} attention JS divergence {:.4} exceeds {:.4} (Eq. 5-6 shift)",
                    source.0, attention_js, t.attention_js
                ),
            });
        }
        if ece_value > t.ece {
            warnings.push(DriftWarning {
                signal: DriftSignal::Calibration,
                value: ece_value,
                threshold: t.ece,
                message: format!(
                    "source {} score calibration error {:.3} exceeds {:.3}",
                    source.0, ece_value, t.ece
                ),
            });
        }

        SourceDrift {
            source,
            records: by_entity.len(),
            pairs: pair_indices.len(),
            missing_rate,
            baseline_missing_rate: self.baseline.missing_rate,
            new_attributes,
            oov_rate,
            attention_kl,
            attention_js,
            attention_entropy,
            score_hist,
            ece: ece_value,
            warnings,
        }
    }
}

/// Missing fraction over the given attributes, averaged across records.
/// Returns 0 for an empty record set or attribute list.
fn missing_rate_over<'a>(records: impl Iterator<Item = &'a Record>, attributes: &[String]) -> f64 {
    if attributes.is_empty() {
        return 0.0;
    }
    let mut cells = 0u64;
    let mut missing = 0u64;
    for r in records {
        for attr in attributes {
            cells += 1;
            if r.is_missing(attr) {
                missing += 1;
            }
        }
    }
    if cells == 0 {
        0.0
    } else {
        missing as f64 / cells as f64
    }
}

/// Normalizes a non-negative vector into a probability distribution with
/// an [`EPS`] floor on every entry.
fn smoothed(p: &[f32], len: usize) -> Vec<f64> {
    let mut out = vec![EPS; len];
    for (o, &v) in out.iter_mut().zip(p.iter()) {
        *o = f64::from(v).max(0.0) + EPS;
    }
    let total: f64 = out.iter().sum();
    for o in &mut out {
        *o /= total;
    }
    out
}

/// KL divergence `KL(p ‖ q)` in nats between two non-negative vectors,
/// smoothed and renormalized so zero entries stay finite. Vectors of
/// unequal length are compared over the longer length with the shorter
/// zero-padded (then floored by the smoothing).
///
/// # Examples
///
/// ```
/// let kl = adamel::drift::kl_divergence(&[0.5, 0.5], &[0.5, 0.5]);
/// assert!(kl.abs() < 1e-9);
/// assert!(adamel::drift::kl_divergence(&[0.9, 0.1], &[0.1, 0.9]) > 0.5);
/// ```
pub fn kl_divergence(p: &[f32], q: &[f32]) -> f64 {
    let len = p.len().max(q.len());
    if len == 0 {
        return 0.0;
    }
    let p = smoothed(p, len);
    let q = smoothed(q, len);
    p.iter().zip(q.iter()).map(|(&pi, &qi)| pi * (pi / qi).ln()).sum::<f64>().max(0.0)
}

/// Jensen–Shannon divergence in nats: symmetric, bounded by `ln 2`.
///
/// # Examples
///
/// ```
/// let a = [0.9f32, 0.1];
/// let b = [0.1f32, 0.9];
/// let ab = adamel::drift::js_divergence(&a, &b);
/// let ba = adamel::drift::js_divergence(&b, &a);
/// assert!((ab - ba).abs() < 1e-12);
/// assert!(ab > 0.0 && ab < std::f64::consts::LN_2 + 1e-12);
/// ```
pub fn js_divergence(p: &[f32], q: &[f32]) -> f64 {
    let len = p.len().max(q.len());
    if len == 0 {
        return 0.0;
    }
    let p = smoothed(p, len);
    let q = smoothed(q, len);
    let m: Vec<f64> = p.iter().zip(q.iter()).map(|(&a, &b)| 0.5 * (a + b)).collect();
    let kl = |x: &[f64], y: &[f64]| -> f64 {
        x.iter().zip(y.iter()).map(|(&xi, &yi)| xi * (xi / yi).ln()).sum()
    };
    (0.5 * kl(&p, &m) + 0.5 * kl(&q, &m)).max(0.0)
}

/// Mean Shannon entropy (nats) of the rows of an attention matrix — the
/// "how spread out is `g(x)`" summary logged per epoch and per source.
/// Returns 0 for an empty matrix.
///
/// # Examples
///
/// ```
/// use adamel_tensor::Matrix;
/// // A one-hot row has zero entropy; a uniform row over 4 has ln 4.
/// let m = Matrix::from_rows(&[vec![1.0, 0.0, 0.0, 0.0], vec![0.25; 4]]);
/// let h = adamel::drift::mean_row_entropy(&m);
/// assert!((h - 0.5 * 4f64.ln()).abs() < 1e-6);
/// ```
pub fn mean_row_entropy(m: &Matrix) -> f64 {
    if m.rows() == 0 || m.cols() == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..m.rows() {
        let row = m.row(i);
        let mut h = 0.0;
        for &v in row {
            let p = f64::from(v);
            if p > EPS {
                h -= p * p.ln();
            }
        }
        total += h;
    }
    total / m.rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdamelConfig;
    use crate::model::AdamelModel;
    use adamel_schema::EntityPair;

    fn rec(source: u32, id: u64, kv: &[(&str, &str)]) -> Record {
        let mut r = Record::new(SourceId(source), id);
        for (k, v) in kv {
            r.set(*k, *v);
        }
        r
    }

    fn tiny_model(attrs: &[&str]) -> AdamelModel {
        let schema = Schema::new(attrs.iter().map(|s| s.to_string()).collect());
        AdamelModel::new(AdamelConfig::tiny(), schema)
    }

    fn baseline(model: &AdamelModel, train: Vec<EntityPair>) -> DriftBaseline {
        DriftBaseline::build(model.extractor().schema(), &model.score(train))
    }

    fn assess(
        monitor: &DriftMonitor,
        model: &AdamelModel,
        target: Vec<EntityPair>,
    ) -> Vec<SourceDrift> {
        monitor.assess(model.extractor().schema(), &model.score(target))
    }

    #[test]
    fn kl_js_basics() {
        assert!(kl_divergence(&[], &[]).abs() < 1e-12);
        assert!(js_divergence(&[], &[]).abs() < 1e-12);
        // Identical distributions: zero divergence.
        let u = [0.25f32; 4];
        assert!(kl_divergence(&u, &u) < 1e-9);
        assert!(js_divergence(&u, &u) < 1e-9);
        // Divergence grows with separation.
        let near = js_divergence(&[0.6, 0.4], &[0.5, 0.5]);
        let far = js_divergence(&[0.99, 0.01], &[0.01, 0.99]);
        assert!(far > near);
        // KL handles zeros via smoothing instead of going infinite.
        let kl = kl_divergence(&[1.0, 0.0], &[0.0, 1.0]);
        assert!(kl.is_finite() && kl > 1.0);
    }

    #[test]
    fn entropy_of_uniform_and_onehot() {
        let m = Matrix::from_rows(&[vec![0.5, 0.5]]);
        assert!((mean_row_entropy(&m) - std::f64::consts::LN_2).abs() < 1e-6);
        let m = Matrix::from_rows(&[vec![0.0, 1.0]]);
        assert!(mean_row_entropy(&m).abs() < 1e-9);
        assert!(mean_row_entropy(&Matrix::zeros(0, 3)).abs() < 1e-12);
    }

    #[test]
    fn baseline_collects_attributes_vocab_and_missing_rate() {
        let model = tiny_model(&["a", "b"]);
        let train = vec![EntityPair::labeled(
            rec(0, 1, &[("a", "alpha beta")]),
            rec(1, 1, &[("a", "alpha"), ("b", "gamma")]),
            true,
        )];
        let base = baseline(&model, train);
        assert!(base.attributes.contains("a") && base.attributes.contains("b"));
        for t in ["alpha", "beta", "gamma"] {
            assert!(base.vocabulary.contains(t), "missing token {t}");
        }
        // 4 cells (2 records x 2 attrs), 1 missing (left "b").
        assert!((base.missing_rate - 0.25).abs() < 1e-9);
        assert_eq!(base.mean_attention.len(), model.extractor().num_features());
    }

    #[test]
    fn monitor_flags_each_challenge_on_crafted_records() {
        let model = tiny_model(&["a", "b"]);
        let train = vec![EntityPair::labeled(
            rec(0, 1, &[("a", "alpha beta"), ("b", "gamma")]),
            rec(1, 1, &[("a", "alpha beta"), ("b", "gamma")]),
            true,
        )];
        let monitor = DriftMonitor::new(baseline(&model, train));

        // C1: target records missing everything except one attribute.
        let sparse = vec![EntityPair::unlabeled(
            rec(5, 10, &[("a", "alpha")]),
            rec(6, 10, &[("a", "alpha")]),
        )];
        let drifts = assess(&monitor, &model, sparse);
        assert_eq!(drifts.len(), 2);
        for d in &drifts {
            assert!(d.warned(DriftSignal::MissingRate), "C1 should fire: {:?}", d.warnings);
            assert!(!d.warned(DriftSignal::NewAttributes));
            assert!(!d.warned(DriftSignal::OovRate));
        }

        // C2 + C3: a new attribute carrying unseen tokens.
        let novel = vec![EntityPair::unlabeled(
            rec(7, 11, &[("a", "alpha beta"), ("b", "gamma"), ("z", "zeta omega")]),
            rec(8, 11, &[("a", "alpha beta"), ("b", "gamma"), ("z", "zeta omega")]),
        )];
        let drifts = assess(&monitor, &model, novel);
        for d in &drifts {
            assert!(!d.warned(DriftSignal::MissingRate));
            assert!(d.warned(DriftSignal::NewAttributes), "C2 should fire");
            assert_eq!(d.new_attributes, vec!["z".to_string()]);
            assert!(d.warned(DriftSignal::OovRate), "C3 should fire (oov {})", d.oov_rate);
        }

        // Control: records drawn from the training distribution are quiet.
        let control = vec![EntityPair::unlabeled(
            rec(9, 12, &[("a", "alpha beta"), ("b", "gamma")]),
            rec(0, 12, &[("a", "alpha beta"), ("b", "gamma")]),
        )];
        for d in assess(&monitor, &model, control) {
            assert!(!d.warned(DriftSignal::MissingRate));
            assert!(!d.warned(DriftSignal::NewAttributes));
            assert!(!d.warned(DriftSignal::OovRate));
        }
    }

    #[test]
    fn assess_orders_sources_and_counts_pairs() {
        let model = tiny_model(&["a"]);
        let train =
            vec![EntityPair::labeled(rec(0, 1, &[("a", "x")]), rec(1, 1, &[("a", "x")]), true)];
        let monitor = DriftMonitor::new(baseline(&model, train));
        let target = vec![
            EntityPair::unlabeled(rec(4, 1, &[("a", "x")]), rec(3, 1, &[("a", "x")])),
            EntityPair::unlabeled(rec(3, 2, &[("a", "x")]), rec(4, 3, &[("a", "x")])),
        ];
        let drifts = assess(&monitor, &model, target);
        let ids: Vec<u32> = drifts.iter().map(|d| d.source.0).collect();
        assert_eq!(ids, vec![3, 4]);
        for d in &drifts {
            assert_eq!(d.pairs, 2);
            assert_eq!(d.records, 2, "dedup by entity id within source");
        }
        let total: u64 = drifts[0].score_hist.iter().sum();
        assert_eq!(total, 2, "one score per touching pair");
    }

    #[test]
    fn emit_runlog_is_inert_when_disabled() {
        runlog::set_forced_path(Some(""));
        let model = tiny_model(&["a"]);
        let train =
            vec![EntityPair::labeled(rec(0, 1, &[("a", "x")]), rec(1, 1, &[("a", "x")]), true)];
        let monitor = DriftMonitor::new(baseline(&model, train));
        let target = vec![EntityPair::unlabeled(rec(4, 1, &[("a", "x")]), rec(3, 1, &[]))];
        for d in assess(&monitor, &model, target) {
            d.emit_runlog(); // must not panic or write anywhere
        }
        runlog::set_forced_path(None);
    }
}
