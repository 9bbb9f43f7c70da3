//! `f64` re-derivation of the paper equations end-to-end.
//!
//! [`encode_pairs_ref`] mirrors the contrastive feature extraction (Eq. 2–3),
//! [`ModelOracle::forward`] the network (Eq. 4–7), the loss helpers Eq. 8–10,
//! and [`support_weights_ref`] the distance-ratio weights (Eq. 11–12) — all
//! computed with naive `f64` arithmetic over the *same* parameters as the
//! production model, so the two stacks can be diffed at every interface.
//!
//! The only shared primitive is the discrete n-gram hash
//! ([`HashedFastText::embed_token`]): its per-token `f32` vectors are the
//! boundary constants of Eq. 3, and the oracle performs every summation on
//! top of them in `f64`.
//!
//! [`encode_pair_uncached`] is the exception: an `f32` re-derivation of
//! Eq. 2–3, the reference the production encoder's blocks must match bit
//! for bit.

use crate::refmat::RefMatrix;
use adamel::{AdamelConfig, AdamelModel};
use adamel_schema::{EntityPair, FeatureExtractor, FeatureMode, Record, Schema};
use adamel_tensor::Matrix;
use adamel_text::{shared_and_unique, tokenize_cropped, HashedFastText};

/// The uncached `f32` reference of Eq. 2–3 for `ex`: tokenizes, hashes, and
/// embeds everything from scratch, touching no shared state, and writes one
/// pair's `F` blocks side by side into `out` (`F·D` long). The production
/// encoder's blocks, laid out densely, are bit-identical to this.
pub fn encode_pair_uncached(ex: &FeatureExtractor, pair: &EntityPair, out: &mut [f32]) {
    let d = ex.dim();
    assert_eq!(out.len(), ex.num_features() * d, "encode_pair_uncached: buffer width mismatch");
    let mut blocks = out.chunks_exact_mut(d);
    for attr in ex.schema().attributes() {
        let tokens =
            |r: &Record| r.get(attr).map(|v| tokenize_cropped(v, ex.crop())).unwrap_or_default();
        let (shared, unique) = shared_and_unique(&tokens(&pair.left), &tokens(&pair.right));
        let features: &[&[String]] = match ex.mode() {
            FeatureMode::SharedOnly => &[&shared],
            FeatureMode::UniqueOnly => &[&unique],
            FeatureMode::Both => &[&shared, &unique],
        };
        // An empty token set embeds as the fixed non-zero missing vector.
        for (tokens, block) in features.iter().zip(&mut blocks) {
            ex.embedder().embed_tokens_into(tokens, block);
        }
    }
}

/// Encodes pairs into the `n x (F*D)` block exactly as the production
/// [`adamel_schema::FeatureExtractor`] does, but summing token embeddings in
/// `f64` (Eq. 3). The embedder is rebuilt from the config, so this shares no
/// state with the model under test.
pub fn encode_pairs_ref(schema: &Schema, cfg: &AdamelConfig, pairs: &[EntityPair]) -> RefMatrix {
    let embedder = HashedFastText::new(cfg.embed_dim, cfg.seed);
    let d = cfg.embed_dim;
    let f = schema.len() * cfg.feature_mode.per_attribute();
    let mut out = RefMatrix::zeros(pairs.len(), f * d);

    let missing = embedder.missing_vector();
    let write_block = |out: &mut RefMatrix, row: usize, block: usize, tokens: &[String]| {
        let mut acc = vec![0.0f64; d];
        if tokens.is_empty() {
            for (a, &b) in acc.iter_mut().zip(missing.as_slice()) {
                *a = f64::from(b);
            }
        } else {
            for t in tokens {
                for (a, &b) in acc.iter_mut().zip(&embedder.embed_token(t)) {
                    *a += f64::from(b);
                }
            }
        }
        for (j, &v) in acc.iter().enumerate() {
            out.set(row, block * d + j, v);
        }
    };

    for (i, pair) in pairs.iter().enumerate() {
        let mut block = 0;
        for attr in schema.attributes() {
            let left =
                pair.left.get(attr).map(|v| tokenize_cropped(v, cfg.crop)).unwrap_or_default();
            let right =
                pair.right.get(attr).map(|v| tokenize_cropped(v, cfg.crop)).unwrap_or_default();
            let (shared, unique) = shared_and_unique(&left, &right);
            match cfg.feature_mode {
                FeatureMode::SharedOnly => {
                    write_block(&mut out, i, block, &shared);
                    block += 1;
                }
                FeatureMode::UniqueOnly => {
                    write_block(&mut out, i, block, &unique);
                    block += 1;
                }
                FeatureMode::Both => {
                    write_block(&mut out, i, block, &shared);
                    write_block(&mut out, i, block + 1, &unique);
                    block += 2;
                }
            }
        }
    }
    out
}

/// Every intermediate of one oracle forward pass (Eq. 4–7).
pub struct RefForward {
    /// Per-feature latent projections `x_j` (Eq. 4), each `n x H`.
    pub xs: Vec<RefMatrix>,
    /// Attention-space projections `t_j = tanh(x_j W)` (Eq. 5), each `n x H'`.
    pub ts: Vec<RefMatrix>,
    /// Attention distribution `f(x)` (Eq. 6), `n x F`.
    pub attention: RefMatrix,
    /// Classifier logits (Eq. 7), `n x 1`.
    pub logits: RefMatrix,
}

/// The production model's parameters promoted to `f64`, with the paper
/// network re-implemented on [`RefMatrix`].
pub struct ModelOracle {
    f: usize,
    d: usize,
    uniform_attention: bool,
    v: Vec<RefMatrix>,
    b: Vec<RefMatrix>,
    w_att: RefMatrix,
    a_att: RefMatrix,
    w1: RefMatrix,
    b1: RefMatrix,
    w2: RefMatrix,
    b2: RefMatrix,
}

impl ModelOracle {
    /// Captures the model's current parameters (snapshot order:
    /// `V[j], b[j]` per feature, then `W_att, a_att`, the `F` row blocks
    /// `W1[j]`, then `b1, W2, b2`). The blocks are stacked back into one
    /// `F*H' x H_hidden` `W1`, so [`forward`](Self::forward) evaluates Eq. 7
    /// literally, independent of the factored form production computes.
    pub fn new(model: &AdamelModel) -> Self {
        let f = model.extractor().num_features();
        let d = model.config().embed_dim;
        let snap = model.snapshot_params();
        assert_eq!(snap.len(), 3 * f + 5, "unexpected parameter count in snapshot");
        let m = |i: usize| RefMatrix::from_matrix(&snap[i]);
        let w1_blocks: Vec<&Matrix> = snap[2 * f + 2..3 * f + 2].iter().collect();
        Self {
            f,
            d,
            uniform_attention: model.config().uniform_attention,
            v: (0..f).map(|j| m(2 * j)).collect(),
            b: (0..f).map(|j| m(2 * j + 1)).collect(),
            w_att: m(2 * f),
            a_att: m(2 * f + 1),
            w1: RefMatrix::from_matrix(&Matrix::concat_rows(&w1_blocks)),
            b1: m(3 * f + 2),
            w2: m(3 * f + 3),
            b2: m(3 * f + 4),
        }
    }

    /// The oracle forward pass over an encoded `n x (F*D)` batch.
    pub fn forward(&self, encoded: &RefMatrix) -> RefForward {
        let n = encoded.rows();
        assert_eq!(encoded.cols(), self.f * self.d, "encoded width disagrees with F*D");

        // Per-feature projections x_j = relu(h_j V_j + b_j) (Eq. 4).
        let mut xs = Vec::with_capacity(self.f);
        for j in 0..self.f {
            let h_j = encoded.slice_cols(j * self.d, self.d);
            let z = h_j.matmul(&self.v[j]).add_row_broadcast(&self.b[j]);
            xs.push(z.relu());
        }

        // Attention energies e_j = aᵀ tanh(W x_j) (Eq. 5).
        let mut ts = Vec::with_capacity(self.f);
        let mut energies = Vec::with_capacity(self.f);
        for x_j in &xs {
            let t = x_j.matmul(&self.w_att).map(f64::tanh);
            energies.push(t.matmul(&self.a_att));
            ts.push(t);
        }
        let energy_refs: Vec<&RefMatrix> = energies.iter().collect();
        let e = RefMatrix::concat_cols(&energy_refs);
        let attention = if self.uniform_attention {
            RefMatrix::zeros(n, self.f).map(|_| 1.0 / self.f as f64)
        } else {
            e.softmax_rows()
        };

        // Weighted features z_j = relu(g_j ⊙ t_j) and the classifier (Eq. 7).
        let mut zs = Vec::with_capacity(self.f);
        for (j, t_j) in ts.iter().enumerate() {
            let g_j = attention.slice_cols(j, 1);
            zs.push(t_j.mul_col_broadcast(&g_j).relu());
        }
        let z_refs: Vec<&RefMatrix> = zs.iter().collect();
        let z = RefMatrix::concat_cols(&z_refs);
        let hidden = z.matmul(&self.w1).add_row_broadcast(&self.b1).relu();
        let logits = hidden.matmul(&self.w2).add_row_broadcast(&self.b2);

        RefForward { xs, ts, attention, logits }
    }

    /// Match scores `sigmoid(logit)` per row.
    pub fn predict(&self, encoded: &RefMatrix) -> Vec<f64> {
        self.forward(encoded).logits.as_slice().iter().map(|&z| 1.0 / (1.0 + (-z).exp())).collect()
    }
}

/// Mean weighted binary cross-entropy over `n x 1` logits (Eq. 8), using the
/// same numerically stable form as production but in `f64`.
pub fn weighted_bce_ref(logits: &RefMatrix, targets: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(logits.cols(), 1, "weighted_bce_ref expects n x 1 logits");
    assert_eq!(logits.rows(), targets.len(), "weighted_bce_ref targets length mismatch");
    assert_eq!(logits.rows(), weights.len(), "weighted_bce_ref weights length mismatch");
    let n = logits.rows().max(1) as f64;
    let mut total = 0.0;
    for i in 0..logits.rows() {
        let z = logits.get(i, 0);
        total += weights[i] * (z.max(0.0) - z * targets[i] + (-z.abs()).exp().ln_1p());
    }
    total / n
}

/// [`weighted_bce_ref`] with unit weights.
pub fn bce_ref(logits: &RefMatrix, targets: &[f64]) -> f64 {
    weighted_bce_ref(logits, targets, &vec![1.0; targets.len()])
}

/// Mean row-wise `KL(q || p_i)` against a constant `1 x m` target `q`
/// (Eq. 9), `eps`-guarded exactly as production.
pub fn kl_ref(probs: &RefMatrix, target: &RefMatrix, eps: f64) -> f64 {
    assert_eq!(target.rows(), 1, "kl_ref expects a 1 x m target");
    assert_eq!(probs.cols(), target.cols(), "kl_ref shape mismatch");
    let n = probs.rows().max(1) as f64;
    let mut total = 0.0;
    for i in 0..probs.rows() {
        for j in 0..probs.cols() {
            let q = target.get(0, j);
            if q > 0.0 {
                total += q * (q / (probs.get(i, j) + eps)).ln();
            }
        }
    }
    total / n
}

/// The zero-shot objective `(1-λ)·L_base + λ·KL` (Eq. 10).
pub fn zero_loss_ref(base: f64, kl: f64, lambda: f64) -> f64 {
    (1.0 - lambda) * base + lambda * kl
}

/// Distance-ratio support weights of Eq. 11–12 over `f64` attention rows,
/// mirroring production's clamp to `[0.2, 5.0]`, the degenerate-distance
/// guard, and the final mean-1 normalization.
pub fn support_weights_ref(
    att_s: &RefMatrix,
    train_labels: &[f64],
    att_u: &RefMatrix,
    support_labels: &[f64],
) -> Vec<f64> {
    let f = att_s.cols();
    let mut centroid = [vec![0.0f64; f], vec![0.0f64; f]];
    let mut counts = [0usize; 2];
    for (i, &y) in train_labels.iter().enumerate() {
        let c = usize::from(y > 0.5);
        counts[c] += 1;
        for (acc, j) in centroid[c].iter_mut().zip(0..f) {
            *acc += att_s.get(i, j);
        }
    }
    for c in 0..2 {
        let inv = 1.0 / counts[c].max(1) as f64;
        centroid[c].iter_mut().for_each(|v| *v *= inv);
    }

    let dist = |m: &RefMatrix, i: usize, c: &[f64]| -> f64 {
        (0..f).map(|j| (m.get(i, j) - c[j]) * (m.get(i, j) - c[j])).sum::<f64>().sqrt()
    };
    let mut mean_dist = [0.0f64; 2];
    for (i, &y) in train_labels.iter().enumerate() {
        let c = usize::from(y > 0.5);
        mean_dist[c] += dist(att_s, i, &centroid[c]);
    }
    for c in 0..2 {
        mean_dist[c] /= counts[c].max(1) as f64;
        if mean_dist[c] <= f64::from(f32::EPSILON) {
            mean_dist[c] = 1.0;
        }
    }

    let mut weights: Vec<f64> = support_labels
        .iter()
        .enumerate()
        .map(|(i, &y)| {
            let c = usize::from(y > 0.5);
            (dist(att_u, i, &centroid[c]) / mean_dist[c]).clamp(0.2, 5.0)
        })
        .collect();
    let mean = weights.iter().sum::<f64>() / weights.len().max(1) as f64;
    if mean > 0.0 {
        weights.iter_mut().for_each(|w| *w /= mean);
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamel_schema::{Record, SourceId};

    fn pair(l: &[(&str, &str)], r: &[(&str, &str)], label: bool) -> EntityPair {
        let mut a = Record::new(SourceId(0), 0);
        for (k, v) in l {
            a.set(*k, *v);
        }
        let mut b = Record::new(SourceId(1), 1);
        for (k, v) in r {
            b.set(*k, *v);
        }
        EntityPair::labeled(a, b, label)
    }

    fn fixture() -> (Schema, AdamelConfig, Vec<EntityPair>) {
        let schema = Schema::new(vec!["artist".into(), "title".into()]);
        let cfg = AdamelConfig::tiny();
        let pairs = vec![
            pair(&[("title", "hey jude"), ("artist", "beatles")], &[("title", "hey jude")], true),
            pair(&[("title", "abbey road")], &[("title", "let it be"), ("artist", "x")], false),
        ];
        (schema, cfg, pairs)
    }

    #[test]
    fn oracle_encoding_is_close_to_production() {
        let (schema, cfg, pairs) = fixture();
        let model = AdamelModel::new(cfg.clone(), schema.clone());
        let prod = model.encode(&pairs).to_dense();
        let oracle = encode_pairs_ref(&schema, &cfg, &pairs);
        assert_eq!(prod.shape(), oracle.shape());
        for i in 0..prod.rows() {
            for j in 0..prod.cols() {
                let d = (f64::from(prod.get(i, j)) - oracle.get(i, j)).abs();
                assert!(d < 1e-4, "encode ({i},{j}): {} vs {}", prod.get(i, j), oracle.get(i, j));
            }
        }
    }

    #[test]
    fn oracle_forward_tracks_production() {
        let (schema, cfg, pairs) = fixture();
        let model = AdamelModel::new(cfg, schema);
        let oracle = ModelOracle::new(&model);
        let encoded = RefMatrix::from_matrix(&model.encode(&pairs).to_dense());
        let fwd = oracle.forward(&encoded);
        let prod_att = model.attention(&pairs);
        for i in 0..prod_att.rows() {
            for j in 0..prod_att.cols() {
                let d = (f64::from(prod_att.get(i, j)) - fwd.attention.get(i, j)).abs();
                assert!(d < 1e-4, "attention ({i},{j}) diverges by {d}");
            }
        }
        let prod_scores = model.predict(&pairs);
        for (p, o) in prod_scores.iter().zip(oracle.predict(&encoded)) {
            assert!((f64::from(*p) - o).abs() < 1e-4, "score {p} vs {o}");
        }
    }

    #[test]
    fn kl_of_target_against_itself_is_near_zero() {
        let q = RefMatrix::from_vec(1, 3, vec![0.2, 0.3, 0.5]);
        let p = RefMatrix::from_vec(2, 3, vec![0.2, 0.3, 0.5, 0.2, 0.3, 0.5]);
        let kl = kl_ref(&p, &q, 1e-7);
        assert!(kl.abs() < 1e-5, "kl {kl}");
    }

    #[test]
    fn support_weights_ref_normalizes_to_mean_one() {
        let att_s = RefMatrix::from_vec(4, 2, vec![0.9, 0.1, 0.8, 0.2, 0.1, 0.9, 0.2, 0.8]);
        let att_u = RefMatrix::from_vec(2, 2, vec![0.5, 0.5, 0.95, 0.05]);
        let w = support_weights_ref(&att_s, &[1.0, 1.0, 0.0, 0.0], &att_u, &[1.0, 0.0]);
        let mean: f64 = w.iter().sum::<f64>() / w.len() as f64;
        assert!((mean - 1.0).abs() < 1e-12);
        assert!(w.iter().all(|&v| v > 0.0));
    }
}
