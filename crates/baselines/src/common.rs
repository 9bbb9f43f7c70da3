//! Shared infrastructure for the baselines: configuration, the common
//! supervised-classifier head, and the [`EntityMatcherModel`] trait.
//!
//! ## Fidelity note (see DESIGN.md §2)
//!
//! The paper's baselines combine a token *summarizer* (attentive RNN for
//! DeepMatcher, hierarchical alignment for EntityMatcher, a pretrained
//! Transformer for Ditto, compare-and-contrast for CorDel) with a supervised
//! classifier trained on the labeled source-domain pairs only. What the
//! paper's experiments measure is the *supervised-only* character — none of
//! them adapts to unlabeled target data — and the summarization *shape*
//! (word-level within attribute / cross-attribute / sequence-level /
//! contrast-first). This port therefore keeps each baseline's summarization
//! shape as a deterministic feature construction over hashed FastText-style
//! embeddings (the paper's baselines likewise consume fixed pretrained
//! FastText vectors) and trains the classifier head; the summarizers'
//! internal recurrences are not re-learned. Relative parameter counts and
//! runtime orderings (§5.5, Fig. 9) are preserved by construction cost and
//! head size.

use adamel_schema::{Domain, EntityPair};
use adamel_tensor::{init, Adam, Graph, Matrix, Optimizer, ParamId, ParamSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyperparameters shared by all baselines.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Token embedding dimensionality (paper: 300-d FastText).
    pub embed_dim: usize,
    /// Token cropping size (paper: 20).
    pub crop: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate (paper: 1e-4).
    pub learning_rate: f32,
    /// Mini-batch size (paper: 16).
    pub batch_size: usize,
    /// Seed for embeddings, init, and batching.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self { embed_dim: 48, crop: 20, epochs: 25, learning_rate: 1e-3, batch_size: 16, seed: 7 }
    }
}

impl BaselineConfig {
    /// A minimal configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self { embed_dim: 24, epochs: 50, learning_rate: 3e-3, ..Self::default() }
    }
}

/// The uniform interface every baseline implements, mirroring how §5.2 runs
/// them: fit on labeled `D_S`, score target pairs.
pub trait EntityMatcherModel {
    /// Reporting name ("DeepMatcher", ...).
    fn name(&self) -> &'static str;
    /// Trains on labeled pairs (supervised only — no adaptation).
    fn fit(&mut self, train: &Domain);
    /// Match scores in `[0, 1]` for arbitrary pairs.
    fn predict(&self, pairs: &[EntityPair]) -> Vec<f32>;
    /// Total scalar parameter count (for the §5.5 comparison).
    fn num_parameters(&self) -> usize;
}

/// PRAUC of any baseline on a target domain, judged against ground truth.
pub fn evaluate_prauc(model: &dyn EntityMatcherModel, test: &Domain) -> f64 {
    let scores = model.predict(&test.pairs);
    let labels: Vec<bool> = test.pairs.iter().map(|p| p.ground_truth()).collect();
    adamel_metrics::pr_auc(&scores, &labels)
}

/// Best-threshold F1 of any baseline on a target domain.
pub fn evaluate_f1(model: &dyn EntityMatcherModel, test: &Domain) -> f64 {
    let scores = model.predict(&test.pairs);
    let labels: Vec<bool> = test.pairs.iter().map(|p| p.ground_truth()).collect();
    adamel_metrics::best_f1(&scores, &labels).0
}

/// A plain feed-forward classifier head (ReLU hidden layers, scalar logit).
pub struct MlpHead {
    params: ParamSet,
    layers: Vec<(ParamId, ParamId)>,
    cfg: BaselineConfig,
}

impl MlpHead {
    /// Builds a head with the given layer widths, e.g. `[input, 300, 1]`.
    pub fn new(widths: &[usize], cfg: BaselineConfig) -> Self {
        assert!(widths.len() >= 2, "MlpHead needs at least input and output widths");
        assert_eq!(widths.last().copied(), Some(1), "MlpHead output width must be 1 (a logit)");
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xb45e);
        let mut params = ParamSet::new();
        let mut layers = Vec::new();
        for (i, w) in widths.windows(2).enumerate() {
            let wid = params.insert(format!("W{i}"), init::he_uniform(w[0], w[1], &mut rng));
            let bid = params.insert(format!("b{i}"), Matrix::zeros(1, w[1]));
            layers.push((wid, bid));
        }
        Self { params, layers, cfg }
    }

    /// Number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }

    fn forward(&self, g: &mut Graph, features: &Matrix) -> adamel_tensor::Var {
        let mut x = g.constant(features.clone());
        let last = self.layers.len() - 1;
        for (i, (w, b)) in self.layers.iter().enumerate() {
            let wv = g.param(&self.params, *w);
            let bv = g.param(&self.params, *b);
            x = if i == last { g.linear(x, wv, bv) } else { g.linear_relu(x, wv, bv) };
        }
        x
    }

    /// Trains with BCE on precomputed feature rows.
    pub fn fit(&mut self, features: &Matrix, labels: &[f32]) {
        assert_eq!(features.rows(), labels.len(), "MlpHead::fit shape mismatch");
        let n = labels.len();
        if n == 0 {
            return;
        }
        let mut opt = Adam::with_lr(self.cfg.learning_rate);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xf17);
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..self.cfg.epochs {
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(self.cfg.batch_size.max(1)) {
                let batch = features.select_rows(chunk);
                let y =
                    Matrix::from_vec(chunk.len(), 1, chunk.iter().map(|&i| labels[i]).collect());
                let mut g = Graph::new();
                let logits = self.forward(&mut g, &batch);
                let loss = g.bce_with_logits(logits, y);
                self.params.zero_grads();
                g.backward(loss, &mut self.params);
                // The tape shares the parameter values: drop it so the
                // optimizer writes them in place.
                drop(g);
                self.params.clip_grad_norm(5.0);
                opt.step(&mut self.params);
            }
        }
    }

    /// Sigmoid scores for precomputed feature rows.
    pub fn predict(&self, features: &Matrix) -> Vec<f32> {
        if features.rows() == 0 {
            return Vec::new();
        }
        let mut g = Graph::new();
        let logits = self.forward(&mut g, features);
        g.value(logits).as_slice().iter().map(|&z| 1.0 / (1.0 + (-z).exp())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_learns_xor_like_separation() {
        let features =
            Matrix::from_rows(&[vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]]);
        let labels = [0.0, 1.0, 1.0, 0.0];
        let mut head = MlpHead::new(
            &[2, 16, 1],
            BaselineConfig { epochs: 800, learning_rate: 5e-3, ..BaselineConfig::tiny() },
        );
        head.fit(&features, &labels);
        let scores = head.predict(&features);
        assert!(scores[1] > 0.5 && scores[2] > 0.5, "{scores:?}");
        assert!(scores[0] < 0.5 && scores[3] < 0.5, "{scores:?}");
    }

    #[test]
    fn parameter_count() {
        let head = MlpHead::new(&[10, 20, 1], BaselineConfig::tiny());
        assert_eq!(head.num_parameters(), 10 * 20 + 20 + 20 + 1);
    }

    #[test]
    fn empty_predict() {
        let head = MlpHead::new(&[4, 1], BaselineConfig::tiny());
        assert!(head.predict(&Matrix::zeros(0, 4)).is_empty());
    }

    #[test]
    #[should_panic(expected = "output width")]
    fn rejects_non_logit_output() {
        let _ = MlpHead::new(&[4, 2], BaselineConfig::tiny());
    }
}
