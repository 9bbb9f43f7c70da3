//! The AdaMEL network (paper §4.2–4.3, Fig. 4).
//!
//! * per-feature non-linear affine: `x_j = relu(h_j V_j + b_j)` (Eq. 4);
//! * shared feature-attention head: `g(x_j) = softmax_j(aᵀ tanh(W x_j))`
//!   (Eq. 5–6);
//! * classifier: `ŷ = Θ(relu(f(x) ⊙ x))`, a 2-layer MLP over the attention-
//!   weighted features (Eq. 7).
//!
//! Θ's first layer is computed in factored form. Its input is the
//! concatenation `z = [relu(g_1·t_1), …, relu(g_F·t_F)]`, and each attention
//! weight `g_j` is a softmax output (or the uniform `1/F`), so `g_j ≥ 0`.
//! For finite `g ≥ 0` and finite `t` (here `t = tanh(·)`),
//! `relu(g·t) = g·relu(t)` holds exactly in `f32`: when `t > 0` both sides
//! are the same rounded product `g·t`, and otherwise both are zero (up to
//! the sign of a zero). Splitting `W1` into its `F` row blocks `W1_j` (`H' x
//! H_hidden` each) then gives `z·W1 = Σ_j g_j·(relu(t_j)·W1_j)`. The
//! product `relu(t_j)·W1_j` depends on feature `j`'s block alone, so it runs
//! once per distinct block, like the Eq. 4–5 stages, and only the weighted
//! sum over features runs once per pair. The factored sum adds its terms in
//! another order than one `F·H'`-long dot product, so its logits differ from
//! the literal Eq. 7 by rounding only; the `f64` oracle keeps the literal
//! form as the reference.
//!
//! The forward reads a batch as [`EncodedBlocks`]: per feature, its
//! distinct blocks `h_j`, and per pair, which one it has. It is written
//! once, as per-stage helpers every caller records on an autograd tape:
//!
//! * **Training** ([`AdamelModel::forward`]) records the whole batch on one
//!   tape, each feature as its own grouped leaf (the batch's distinct blocks
//!   of table `j` and each pair's row among them), so the tape runs each
//!   feature's Eq. 4–5 stages and `relu(t_j)·W1_j` once per distinct block;
//!   the weighted sum, the rest of Θ, the losses and backward see per-pair
//!   rows.
//! * **Inference** ([`AdamelModel::predict_with_attention`],
//!   [`AdamelModel::attention_encoded`]) runs the same stages in two phases
//!   on short-lived tapes. The *block phase* records each chunk of at most
//!   [`CHUNK_ROWS`] distinct blocks of one feature on its own tape (Eq. 4–5,
//!   and `u_j = relu(t_j)·W1_j` when scoring) and keeps only `e_j` and
//!   `u_j`: each distinct block of the call runs once. The *pair phase*
//!   records each chunk of [`CHUNK_ROWS`] pairs on its own tape over their
//!   gathered `e_j` and `u_j` rows as constants: Eq. 6's softmax, the
//!   weighted sum and the rest of Θ. Chunks of either phase run on worker
//!   threads.
//!
//! Every stage computes a row from that row alone, with the kernels the
//! training tape runs, so inference equals one [`AdamelModel::forward_graph`]
//! tape over the whole batch bit for bit, at any chunking and thread count.

use crate::config::AdamelConfig;
use adamel_obs::span;
use adamel_schema::{EntityPair, FeatureExtractor, Schema};
use adamel_tensor::{init, parallel, EncodedBlocks, Graph, Matrix, ParamId, ParamSet, Var};
use adamel_text::HashedFastText;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Handles to all trainable parameters.
pub(crate) struct ModelParams {
    /// Per-feature projection weights `V_j` (`D x H` each).
    pub v: Vec<ParamId>,
    /// Per-feature biases `b_j` (`1 x H` each).
    pub b: Vec<ParamId>,
    /// Shared attention transform `W` (`H x H'`).
    pub w_att: ParamId,
    /// Shared attention vector `a` (`H' x 1`).
    pub a_att: ParamId,
    /// Classifier layer 1 as its `F` row blocks `W1_j` (`H' x H_hidden`
    /// each); stacked they are Eq. 7's `F*H' x H_hidden` matrix.
    pub w1: Vec<ParamId>,
    /// Classifier bias 1.
    pub b1: ParamId,
    /// Classifier layer 2 (`H_hidden x 1`).
    pub w2: ParamId,
    /// Classifier bias 2.
    pub b2: ParamId,
}

/// Output node handles of one forward construction.
pub(crate) struct ForwardNodes {
    /// Attention distribution `f(x)`, shape `n x F`.
    pub attention: Var,
    /// Classifier logits, shape `n x 1`.
    pub logits: Var,
}

/// Pairs together with the outputs of one forward pass over them: row `i`
/// of `scores` and `attention` belongs to `pairs[i]`.
#[derive(Debug, Clone)]
pub struct ScoredPairs {
    /// The scored pairs.
    pub pairs: Vec<EntityPair>,
    /// Match score (`sigmoid(logit)`) per pair.
    pub scores: Vec<f32>,
    /// Attention distribution `f(x)` per pair, `pairs.len() x F`.
    pub attention: Matrix,
}

/// Rows per inference tape: the block phase records at most this many
/// distinct blocks of one feature per tape, and the pair phase this many
/// pairs. Every forward op is row-independent, so chunk boundaries (a
/// function of this constant alone, never the thread count) do not change
/// the numbers.
///
/// Between the phases a call keeps, per distinct block of each feature,
/// the attention energy and `u_j = relu(t_j)·W1_j`: about 1 KB per distinct
/// block at paper dimensions, so at most the dense `n x F·D` encoding's
/// size when no block repeats. A tape holds one chunk's intermediates and
/// drops when the chunk is done.
const CHUNK_ROWS: usize = 128;

/// What the block phase keeps of one chunk of a feature's distinct blocks.
struct BlockRows {
    /// The attention energies `e_j`, one per block.
    energy: Matrix,
    /// `u_j = relu(t_j)·W1_j` per block when the call scores, else empty.
    term: Matrix,
}

/// The shape of every parameter [`AdamelModel::new`] registers for `f`
/// features under `cfg`, in registration (snapshot) order: `V[j]`, `b[j]`
/// per feature, `W_att`, `a_att`, the `F` blocks `Theta.W1[j]`, then
/// `Theta.b1`, `Theta.W2`, `Theta.b2`.
pub(crate) fn param_shapes(cfg: &AdamelConfig, f: usize) -> Vec<(usize, usize)> {
    let (d, h, ha, hh) = (cfg.embed_dim, cfg.feature_dim, cfg.attention_dim, cfg.hidden_dim);
    let mut shapes = Vec::with_capacity(3 * f + 5);
    for _ in 0..f {
        shapes.extend([(d, h), (1, h)]);
    }
    shapes.extend([(h, ha), (ha, 1)]);
    shapes.extend(std::iter::repeat_n((ha, hh), f));
    shapes.extend([(1, hh), (hh, 1), (1, 1)]);
    shapes
}

#[cfg(test)]
thread_local! {
    /// Test hook: [`feature_leaf`] records per-pair rows instead, the
    /// ungrouped tape the grouped one is checked against.
    static PER_PAIR_LEAVES: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Records feature `j` of the pairs `pairs` as a grouped leaf: the batch's
/// distinct blocks of table `j`, and each pair's row among them.
fn feature_leaf(g: &mut Graph, encoded: &EncodedBlocks, j: usize, pairs: &[usize]) -> Var {
    let (distinct, rows) = encoded.distinct(j, pairs);
    #[cfg(test)]
    if PER_PAIR_LEAVES.get() {
        return g.constant(distinct.select_rows(&rows));
    }
    g.constant_grouped(distinct, rows)
}

/// The AdaMEL model: feature extraction plus network parameters.
///
/// Training is performed by [`crate::train::fit`]; the model itself
/// exposes deterministic inference ([`predict`](Self::predict)) and
/// attention inspection ([`attention`](Self::attention)).
pub struct AdamelModel {
    pub(crate) cfg: AdamelConfig,
    pub(crate) extractor: FeatureExtractor,
    pub(crate) params: ParamSet,
    pub(crate) ids: ModelParams,
}

impl AdamelModel {
    /// Builds a model over an aligned schema.
    pub fn new(cfg: AdamelConfig, schema: Schema) -> Self {
        let embedder = HashedFastText::new(cfg.embed_dim, cfg.seed);
        let extractor = FeatureExtractor::new(schema, embedder, cfg.crop, cfg.feature_mode);
        let f = extractor.num_features();
        let (d, h, h_att, hidden) =
            (cfg.embed_dim, cfg.feature_dim, cfg.attention_dim, cfg.hidden_dim);

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x000a_dae1_u64);
        let mut params = ParamSet::new();
        let mut v = Vec::with_capacity(f);
        let mut b = Vec::with_capacity(f);
        for j in 0..f {
            v.push(params.insert(format!("V[{j}]"), init::he_uniform(d, h, &mut rng)));
            b.push(params.insert(format!("b[{j}]"), Matrix::zeros(1, h)));
        }
        let w_att = params.insert("W_att", init::xavier_uniform(h, h_att, &mut rng));
        let a_att = params.insert("a_att", init::xavier_uniform(h_att, 1, &mut rng));
        // Θ consumes the concatenated F·H'-dim attention-space features —
        // §4.5: "Θ takes the concatenated FH'-dim features as input", which
        // is also what reproduces the paper's ~2.22M parameter count.
        // One draw for all of `W1`, sliced into its per-feature row blocks.
        let w1_full = init::he_uniform(f * h_att, hidden, &mut rng);
        let w1 = (0..f)
            .map(|j| params.insert(format!("Theta.W1[{j}]"), w1_full.slice_rows(j * h_att, h_att)))
            .collect();
        let b1 = params.insert("Theta.b1", Matrix::zeros(1, hidden));
        let w2 = params.insert("Theta.W2", init::xavier_uniform(hidden, 1, &mut rng));
        let b2 = params.insert("Theta.b2", Matrix::zeros(1, 1));

        let ids = ModelParams { v, b, w_att, a_att, w1, b1, w2, b2 };
        Self { cfg, extractor, params, ids }
    }

    /// The configuration.
    pub fn config(&self) -> &AdamelConfig {
        &self.cfg
    }

    /// The feature extractor (schema + embedder).
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Total scalar parameter count — the paper's §4.5
    /// `O(FDH + HH' + FH'H_hidden)` quantity, reported against
    /// EntityMatcher's in §5.5.
    pub fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }

    /// Encodes pairs into per-feature tables of distinct token-embedding
    /// blocks (Eq. 3).
    pub fn encode(&self, pairs: &[EntityPair]) -> EncodedBlocks {
        self.extractor.encode_pairs(pairs)
    }

    /// Statistics of the extractor's record-level encoding cache: distinct
    /// records memoized, interned vocabulary size, and lookup hit/miss
    /// counts across everything this model has encoded (training, support,
    /// target, and inference batches all share the cache).
    #[must_use = "cache stats are a snapshot; fetching them without reading is a no-op"]
    pub fn encode_cache_stats(&self) -> adamel_schema::EncodeCacheStats {
        self.extractor.cache_stats()
    }

    /// Drops the extractor's record-level encoding cache — use to bound
    /// memory when a model is reused across unrelated corpora.
    pub fn clear_encode_cache(&self) {
        self.extractor.clear_cache()
    }

    /// Estimated forward FLOPs per encoded row — the paper's §4.5
    /// `O(FDH + HH' + FH'H_hidden)` cost, used to plan inference dispatch
    /// and to normalize bench timings into GFLOP/s.
    pub fn per_row_flops(&self) -> usize {
        let f = self.extractor.num_features();
        let (d, h, ha, hh) =
            (self.cfg.embed_dim, self.cfg.feature_dim, self.cfg.attention_dim, self.cfg.hidden_dim);
        f * 2 * (d * h + h * ha + ha) + 2 * (f * ha * hh + hh)
    }

    /// Eq. 4 for feature `j`: `x_j = relu(h_j V_j + b_j)`.
    fn project(&self, g: &mut Graph, j: usize, h_j: Var) -> Var {
        let v_j = g.param(&self.params, self.ids.v[j]);
        let b_j = g.param(&self.params, self.ids.b[j]);
        g.linear_relu(h_j, v_j, b_j)
    }

    /// The attention head's shared `W` and `a`, as leaves of `g`.
    fn attention_params(&self, g: &mut Graph) -> (Var, Var) {
        (g.param(&self.params, self.ids.w_att), g.param(&self.params, self.ids.a_att))
    }

    /// Eq. 5 for one feature: the tanh projection `t_j = tanh(x_j W)` and
    /// the energy `e_j = aᵀ t_j`. `t_j` is both the attention input and the
    /// `H'`-dim representation Θ consumes (§4.5's `F·H'·H_hidden` term).
    fn energy(g: &mut Graph, x_j: Var, (w_att, a_att): (Var, Var)) -> (Var, Var) {
        let t = g.matmul(x_j, w_att);
        let t = g.tanh(t);
        (t, g.matmul(t, a_att))
    }

    /// Eq. 6 over `n` rows of per-feature energies: `f(x)`, each row summing
    /// to 1. The uniform-attention ablation replaces the learned
    /// distribution with the constant `1/F` vector.
    fn attention_weights(&self, g: &mut Graph, energies: &[Var], n: usize) -> Var {
        let e = g.concat_cols(energies);
        if self.cfg.uniform_attention {
            let f = energies.len();
            g.constant(Matrix::full(n, f, 1.0 / f as f32))
        } else {
            g.softmax_rows(e)
        }
    }

    /// Feature `j`'s term of Θ's factored first layer (module docs):
    /// `u_j = relu(t_j)·W1_j`.
    fn feature_term(&self, g: &mut Graph, j: usize, t_j: Var) -> Var {
        let r_j = g.relu(t_j);
        let w1_j = g.param(&self.params, self.ids.w1[j]);
        g.matmul(r_j, w1_j)
    }

    /// Θ over the per-feature terms (Eq. 7): `z·W1 = Σ_j g_j·u_j`, exact
    /// elementwise because `g_j ≥ 0`, then the bias, `relu` and the second
    /// layer. Returns the logits.
    fn classify(&self, g: &mut Graph, us: &[Var], attention: Var) -> Var {
        let z_w1 = g.weighted_sum(us, attention);
        let b1 = g.param(&self.params, self.ids.b1);
        let z_w1 = g.add_row_broadcast(z_w1, b1);
        let hidden = g.relu(z_w1);
        let w2 = g.param(&self.params, self.ids.w2);
        let b2 = g.param(&self.params, self.ids.b2);
        g.linear(hidden, w2, b2)
    }

    /// Builds the full forward graph over the pairs `pairs` of an encoded
    /// batch, in that order: feature `j`'s grouped leaf holds their
    /// distinct rows of its block table ([`feature_leaf`]).
    pub(crate) fn forward(
        &self,
        g: &mut Graph,
        encoded: &EncodedBlocks,
        pairs: &[usize],
    ) -> ForwardNodes {
        let _forward = span("forward");
        let f = self.extractor.num_features();

        let phase = span("feature_proj");
        let xs: Vec<Var> = (0..f)
            .map(|j| {
                let h_j = feature_leaf(g, encoded, j, pairs);
                self.project(g, j, h_j)
            })
            .collect();
        drop(phase);

        let phase = span("attention_head");
        let head = self.attention_params(g);
        let (ts, energies): (Vec<Var>, Vec<Var>) =
            xs.iter().map(|&x_j| Self::energy(g, x_j, head)).unzip();
        let attention = self.attention_weights(g, &energies, pairs.len());
        drop(phase);

        let phase = span("classifier");
        let us: Vec<Var> =
            ts.iter().enumerate().map(|(j, &t_j)| self.feature_term(g, j, t_j)).collect();
        let logits = self.classify(g, &us, attention);
        drop(phase);

        ForwardNodes { attention, logits }
    }

    /// Builds the full forward graph over every pair of an encoded batch
    /// and returns the `(attention, logits)` node handles: the one-tape
    /// reference the differential oracle and the inference tests compare
    /// the two-phase forward against.
    pub fn forward_graph(&self, g: &mut Graph, encoded: &EncodedBlocks) -> (Var, Var) {
        let pairs: Vec<usize> = (0..encoded.rows()).collect();
        let nodes = self.forward(g, encoded, &pairs);
        (nodes.attention, nodes.logits)
    }

    /// The block phase over one chunk: distinct blocks
    /// `[first, first + rows)` of feature `j`'s table, on a tape of their
    /// own. Keeps the energies and, when `scores`, the classifier terms.
    fn block_chunk(
        &self,
        encoded: &EncodedBlocks,
        j: usize,
        first: usize,
        rows: usize,
        scores: bool,
    ) -> BlockRows {
        let mut g = Graph::new();
        let phase = span("feature_proj");
        let h_j = g.constant(encoded.table(j).slice_rows(first, rows));
        let x_j = self.project(&mut g, j, h_j);
        drop(phase);
        let phase = span("attention_head");
        let head = self.attention_params(&mut g);
        let (t_j, e_j) = Self::energy(&mut g, x_j, head);
        drop(phase);
        let mut term = Matrix::default();
        if scores {
            let _phase = span("classifier");
            let u_j = self.feature_term(&mut g, j, t_j);
            term = g.value(u_j).clone();
        }
        BlockRows { energy: g.value(e_j).clone(), term }
    }

    /// The block phase of a call (module docs): every feature's distinct
    /// blocks in chunks of [`CHUNK_ROWS`], the chunks spread over worker
    /// threads. Returns each feature's chunks in table order.
    fn block_phase(&self, encoded: &EncodedBlocks, scores: bool) -> Vec<Vec<BlockRows>> {
        let _phase = span("block_phase");
        let f = encoded.features();
        if adamel_obs::enabled() {
            let distinct = (0..f).map(|j| encoded.table(j).rows()).sum::<usize>();
            adamel_obs::trace_count!("block_phase.rows", (f * encoded.rows()) as u64);
            adamel_obs::trace_count!("block_phase.distinct_rows", distinct as u64);
        }
        let tasks: Vec<(usize, usize)> = (0..f)
            .flat_map(|j| {
                (0..encoded.table(j).rows()).step_by(CHUNK_ROWS).map(move |first| (j, first))
            })
            .collect();
        let chunk_flops = CHUNK_ROWS * self.per_row_flops() / f.max(1);
        let mut chunks = parallel::parallel_map_collect(tasks.len(), chunk_flops, |t| {
            let (j, first) = tasks[t];
            let rows = (encoded.table(j).rows() - first).min(CHUNK_ROWS);
            self.block_chunk(encoded, j, first, rows, scores)
        })
        .into_iter();
        (0..f)
            .map(|j| chunks.by_ref().take(encoded.table(j).rows().div_ceil(CHUNK_ROWS)).collect())
            .collect()
    }

    /// The pair phase over pairs `[start, start + out.len() / width)`, on a
    /// tape of their own, reading the block phase's `kept` rows: writes
    /// each pair's attention row and, when `width` has room for it, its
    /// score first.
    fn pair_chunk(
        &self,
        encoded: &EncodedBlocks,
        kept: &[Vec<BlockRows>],
        start: usize,
        width: usize,
        out: &mut [f32],
    ) {
        let f = kept.len();
        let rows = out.len() / width;
        // Feature `j`'s kept rows of these pairs, as one constant.
        let gather = |g: &mut Graph, j: usize, pick: fn(&BlockRows) -> &Matrix| {
            let mut m = Matrix::zeros(rows, pick(&kept[j][0]).cols());
            for r in 0..rows {
                let id = encoded.id(start + r, j);
                m.row_mut(r).copy_from_slice(pick(&kept[j][id / CHUNK_ROWS]).row(id % CHUNK_ROWS));
            }
            g.constant(m)
        };
        let mut g = Graph::new();
        let phase = span("attention_head");
        let energies: Vec<Var> = (0..f).map(|j| gather(&mut g, j, |b| &b.energy)).collect();
        let attention = self.attention_weights(&mut g, &energies, rows);
        drop(phase);
        let logits = (width > f).then(|| {
            let _phase = span("classifier");
            let us: Vec<Var> = (0..f).map(|j| gather(&mut g, j, |b| &b.term)).collect();
            self.classify(&mut g, &us, attention)
        });
        let att = g.value(attention).as_slice().chunks_exact(f.max(1));
        for (r, (row, a)) in out.chunks_exact_mut(width).zip(att).enumerate() {
            if let Some(logits) = logits {
                let z = g.value(logits).get(r, 0);
                row[0] = 1.0 / (1.0 + (-z).exp());
            }
            row[width - f..].copy_from_slice(a);
        }
    }

    /// Both phases over `encoded`: the block phase once per call, then the
    /// pair phase in [`CHUNK_ROWS`]-pair chunks on worker threads. Returns a
    /// row-major block per pair: its score (when `scores`) and its
    /// attention row.
    ///
    /// # Panics
    ///
    /// If `encoded` does not hold the model's features at its embedding
    /// width.
    fn two_phase(&self, encoded: &EncodedBlocks, scores: bool) -> Vec<f32> {
        let f = self.extractor.num_features();
        assert_eq!(
            (encoded.features(), encoded.dim()),
            (f, self.cfg.embed_dim),
            "AdamelModel: encoded blocks do not fit the model's features and embedding width"
        );
        let width = usize::from(scores) + f;
        let mut out = vec![0.0f32; encoded.rows() * width];
        if out.is_empty() {
            return out;
        }
        let kept = self.block_phase(encoded, scores);
        let _phase = span("pair_phase");
        parallel::parallel_for_row_blocks(
            &mut out,
            width,
            CHUNK_ROWS,
            self.per_row_flops(),
            |start, block| self.pair_chunk(encoded, &kept, start, width, block),
        );
        out
    }

    /// Match scores (`sigmoid(logit)`) for a batch of pairs.
    pub fn predict(&self, pairs: &[EntityPair]) -> Vec<f32> {
        if pairs.is_empty() {
            return Vec::new();
        }
        self.predict_encoded(&self.encode(pairs))
    }

    /// Match scores for pre-encoded pairs.
    pub fn predict_encoded(&self, encoded: &EncodedBlocks) -> Vec<f32> {
        self.predict_with_attention(encoded).0
    }

    /// Match scores and attention rows for pre-encoded pairs, from one
    /// two-phase forward: `f(x)` is an intermediate of scoring, so it costs
    /// no second forward.
    pub fn predict_with_attention(&self, encoded: &EncodedBlocks) -> (Vec<f32>, Matrix) {
        adamel_obs::trace_span!("predict");
        adamel_obs::trace_count!("predict.rows", encoded.rows() as u64);
        adamel_obs::trace_count!("predict.chunks", encoded.rows().div_ceil(CHUNK_ROWS) as u64);
        let f = self.extractor.num_features();
        let rows = self.two_phase(encoded, true);
        let scores = rows.iter().step_by(1 + f).copied().collect();
        let attention: Vec<f32> = rows.chunks_exact(1 + f).flat_map(|r| &r[1..]).copied().collect();
        (scores, Matrix::from_vec(encoded.rows(), f, attention))
    }

    /// Encodes and scores `pairs` in one forward pass, keeping the pairs
    /// beside their scores and attention rows.
    pub fn score(&self, pairs: Vec<EntityPair>) -> ScoredPairs {
        let (scores, attention) = self.predict_with_attention(&self.encode(&pairs));
        ScoredPairs { pairs, scores, attention }
    }

    /// Per-pair attention distributions `f(x)` (`n x F`, rows sum to 1) —
    /// the transferable knowledge `K`.
    pub fn attention(&self, pairs: &[EntityPair]) -> Matrix {
        let encoded = self.encode(pairs);
        self.attention_encoded(&encoded)
    }

    /// Attention distributions for pre-encoded pairs, from the two-phase
    /// forward without the classifier.
    pub fn attention_encoded(&self, encoded: &EncodedBlocks) -> Matrix {
        adamel_obs::trace_span!("attention");
        adamel_obs::trace_count!("attention.rows", encoded.rows() as u64);
        let out = self.two_phase(encoded, false);
        Matrix::from_vec(encoded.rows(), self.extractor.num_features(), out)
    }

    /// Deep copies of all parameter tensors, in registration order (for
    /// persistence and best-model tracking).
    pub fn snapshot_params(&self) -> Vec<Matrix> {
        self.params.snapshot()
    }

    /// Restores parameters from a [`snapshot_params`](Self::snapshot_params)
    /// image; fails (without mutating) if arity or shapes disagree.
    pub fn restore_params(&mut self, tensors: &[Matrix]) -> Result<(), String> {
        let ids: Vec<_> = self.params.ids().collect();
        if tensors.len() != ids.len() {
            return Err(format!("expected {} tensors, got {}", ids.len(), tensors.len()));
        }
        for (id, t) in ids.iter().zip(tensors) {
            let expected = self.params.value(*id).shape();
            if expected != t.shape() {
                return Err(format!(
                    "parameter {} expects shape {:?}, got {:?}",
                    self.params.name(*id),
                    expected,
                    t.shape()
                ));
            }
        }
        self.params.restore(tensors);
        Ok(())
    }

    /// Mean attention per feature with names, sorted descending — the
    /// Table 4 "learned importance" report.
    pub fn feature_importance(&self, pairs: &[EntityPair]) -> Vec<(String, f32)> {
        let att = self.attention(pairs);
        let mean = att.mean_rows();
        let mut out: Vec<(String, f32)> = self
            .extractor
            .feature_names()
            .into_iter()
            .zip(mean.as_slice().iter().copied())
            .collect();
        // total_cmp keeps the ranking a total order even if a NaN sneaks
        // through; the old partial_cmp fallback made it input-order
        // dependent (same defect class as the pr_curve tie fix).
        debug_assert!(out.iter().all(|(_, s)| s.is_finite()), "non-finite feature importance");
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamel_schema::{Domain, EntityPair, Record, Schema, SourceId};
    use adamel_tensor::SegmentFault;

    fn schema() -> Schema {
        Schema::new(vec!["artist".into(), "title".into()])
    }

    fn pair(l: &[(&str, &str)], r: &[(&str, &str)]) -> EntityPair {
        let mut a = Record::new(SourceId(0), 0);
        for (k, v) in l {
            a.set(*k, *v);
        }
        let mut b = Record::new(SourceId(1), 0);
        for (k, v) in r {
            b.set(*k, *v);
        }
        EntityPair::unlabeled(a, b)
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        let pairs = vec![
            pair(&[("title", "hey jude")], &[("title", "hey jude")]),
            pair(&[("artist", "x")], &[("artist", "y z")]),
        ];
        let att = model.attention(&pairs);
        assert_eq!(att.shape(), (2, 4));
        for i in 0..2 {
            let sum: f32 = att.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn predictions_are_probabilities() {
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        let pairs =
            vec![pair(&[("title", "a b")], &[("title", "a b")]), pair(&[], &[("artist", "q")])];
        let scores = model.predict(&pairs);
        assert_eq!(scores.len(), 2);
        for s in scores {
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn predict_empty_is_empty() {
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        assert!(model.predict(&[]).is_empty());
    }

    #[test]
    fn parameter_count_matches_formula() {
        let cfg = AdamelConfig::tiny();
        let model = AdamelModel::new(cfg.clone(), schema());
        let f = model.extractor().num_features();
        let (d, h, ha, hh) = (cfg.embed_dim, cfg.feature_dim, cfg.attention_dim, cfg.hidden_dim);
        // F*(D*H + H) + H*H' + H' + F*H'*H_hidden + H_hidden + H_hidden*1 + 1
        let expected = f * (d * h + h) + h * ha + ha + f * ha * hh + hh + hh + 1;
        assert_eq!(model.num_parameters(), expected);
    }

    #[test]
    fn param_shapes_follow_registration_order() {
        for cfg in [AdamelConfig::tiny(), AdamelConfig::paper()] {
            let model = AdamelModel::new(cfg.clone(), schema());
            let f = model.extractor().num_features();
            let shapes: Vec<_> = model.snapshot_params().iter().map(Matrix::shape).collect();
            assert_eq!(shapes, param_shapes(&cfg, f));
        }
    }

    #[test]
    fn w1_blocks_are_row_slices_of_one_draw() {
        // The split keeps the initial values of the single `F·H' x H_hidden`
        // draw: stacking the blocks reproduces it bit for bit.
        let cfg = AdamelConfig::tiny();
        let model = AdamelModel::new(cfg.clone(), schema());
        let f = model.extractor().num_features();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x000a_dae1_u64);
        for _ in 0..f {
            init::he_uniform(cfg.embed_dim, cfg.feature_dim, &mut rng);
        }
        init::xavier_uniform(cfg.feature_dim, cfg.attention_dim, &mut rng);
        init::xavier_uniform(cfg.attention_dim, 1, &mut rng);
        let w1 = init::he_uniform(f * cfg.attention_dim, cfg.hidden_dim, &mut rng);
        let snap = model.snapshot_params();
        let blocks: Vec<&Matrix> = snap[2 * f + 2..3 * f + 2].iter().collect();
        assert_eq!(Matrix::concat_rows(&blocks).as_slice(), w1.as_slice());
    }

    #[test]
    fn relu_commutes_with_a_non_negative_scale() {
        // Eq. 7's factorization rests on relu(g·t) = g·relu(t) for g ≥ 0:
        // equal as values everywhere, and bit for bit where non-zero.
        let tiny = f32::from_bits(1);
        let relu = |v: f32| v.max(0.0);
        for g in [0.0, tiny, 1.0 / 26.0, 1.0] {
            for t in [0.0, -0.0, tiny, -tiny, 0.5, -0.5, 1.0, -1.0] {
                let (lhs, rhs) = (relu(g * t), g * relu(t));
                assert_eq!(lhs, rhs, "g={g:e}, t={t:e}");
                if lhs != 0.0 {
                    assert_eq!(lhs.to_bits(), rhs.to_bits(), "g={g:e}, t={t:e}");
                }
            }
        }
    }

    /// The rows of `u_j = relu(t_j)·W1_j` the block phase computed for each
    /// feature of a scoring call, chunk by chunk.
    fn term_rows(model: &AdamelModel, encoded: &EncodedBlocks) -> Vec<Vec<usize>> {
        let kept = model.block_phase(encoded, true);
        kept.iter().map(|chunks| chunks.iter().map(|c| c.term.rows()).collect()).collect()
    }

    /// Scores and attention rows from one `forward_graph` tape.
    fn tape(model: &AdamelModel, encoded: &EncodedBlocks) -> (Vec<u32>, Vec<u32>) {
        let mut g = Graph::new();
        let (attention, logits) = model.forward_graph(&mut g, encoded);
        let sigmoid = |z: &f32| (1.0 / (1.0 + (-z).exp())).to_bits();
        (g.value(logits).as_slice().iter().map(sigmoid).collect(), bits(g.value(attention)))
    }

    fn score_bits(scores: &[f32]) -> Vec<u32> {
        scores.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn w1_products_run_once_per_distinct_feature_block() {
        // Twelve pairs cycling through three contents, one of them missing
        // the artist on both sides: every feature repeats its blocks.
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        let pairs: Vec<EntityPair> = (0..12)
            .map(|i| match i % 3 {
                0 => pair(&[("title", "hey jude")], &[("title", "hey jude")]),
                1 => pair(&[("artist", "x"), ("title", "a b")], &[("artist", "y z")]),
                _ => pair(&[("artist", "q"), ("title", "a")], &[("artist", "q"), ("title", "c")]),
            })
            .collect();
        let encoded = model.encode(&pairs);
        let (d, dense) = (model.cfg.embed_dim, encoded.to_dense());
        for (j, rows) in term_rows(&model, &encoded).into_iter().enumerate() {
            let mut blocks: Vec<Vec<u32>> = (0..encoded.rows())
                .map(|r| dense.row(r)[j * d..(j + 1) * d].iter().map(|v| v.to_bits()).collect())
                .collect();
            blocks.sort();
            blocks.dedup();
            assert!(blocks.len() < encoded.rows(), "feature {j} repeats a block");
            // One product, over the distinct blocks.
            assert_eq!(rows, vec![blocks.len()], "feature {j}");
        }
        assert_eq!(score_bits(&model.predict_encoded(&encoded)), tape(&model, &encoded).0);
    }

    #[test]
    fn w1_products_run_once_per_call_not_once_per_chunk() {
        // 640 pairs (five pair-phase chunks) cycling through seven contents:
        // every block of a feature repeats in every chunk.
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        let titles = ["hey jude", "let it be", "a b", "yesterday", "", "help", "a"];
        let pairs: Vec<EntityPair> = (0..640)
            .map(|i| {
                let (l, r) = (titles[i % 7], titles[(i / 7) % 2 * 3 % 7]);
                pair(&[("title", l), ("artist", "x")], &[("title", r), ("artist", "x y")])
            })
            .collect();
        let encoded = model.encode(&pairs);
        for (j, rows) in term_rows(&model, &encoded).into_iter().enumerate() {
            let keys = encoded.table(j).rows();
            let per_chunk: usize = (0..640)
                .step_by(CHUNK_ROWS)
                .map(|start| {
                    let mut ids: Vec<usize> =
                        (start..start + CHUNK_ROWS).map(|r| encoded.id(r, j)).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids.len()
                })
                .sum();
            assert!(keys < per_chunk, "feature {j}: its blocks repeat across chunks");
            // One product over the call's distinct keys, not one per chunk.
            assert_eq!(rows, vec![keys], "feature {j}");
        }
        assert_eq!(score_bits(&model.predict_encoded(&encoded)), tape(&model, &encoded).0);
    }

    /// Pseudo-random rows, none equal to another.
    fn distinct_rows(rows: usize, cols: usize, seed: usize) -> Matrix {
        let data = (0..rows * cols).map(|i| ((i * 7 + seed * 13) as f32 * 0.37).sin());
        Matrix::from_vec(rows, cols, data.collect())
    }

    /// Blocks per feature table one below, at and one above a chunk of
    /// distinct blocks, and two chunks and three blocks.
    const EDGE_COUNTS: [usize; 4] =
        [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3];

    /// `n` pairs over feature tables of [`EDGE_COUNTS`] distinct blocks.
    fn chunk_edge_batch(model: &AdamelModel, n: usize) -> EncodedBlocks {
        let (f, d) = (model.extractor().num_features(), model.cfg.embed_dim);
        assert_eq!(f, EDGE_COUNTS.len());
        let tables = EDGE_COUNTS.iter().enumerate().map(|(j, &c)| distinct_rows(c, d, j)).collect();
        let index = (0..n * f).map(|i| ((i / f) * 5 % EDGE_COUNTS[i % f]) as u32).collect();
        EncodedBlocks::new(n, d, tables, index)
    }

    #[test]
    fn block_phase_chunks_cover_every_distinct_block_once() {
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        let encoded = chunk_edge_batch(&model, 300);
        let rows = term_rows(&model, &encoded);
        assert_eq!(rows[3], vec![CHUNK_ROWS, CHUNK_ROWS, 3], "chunks of the widest table");
        for (j, chunks) in rows.iter().enumerate() {
            assert!(chunks.iter().all(|&c| c <= CHUNK_ROWS), "feature {j}: {chunks:?}");
        }
        let all: Vec<usize> = rows.iter().map(|r| r.iter().sum()).collect();
        assert_eq!(all, EDGE_COUNTS, "every distinct block once");
        let (scores, attention) = tape(&model, &encoded);
        for threads in [1, 3] {
            parallel::with_threads(threads, || {
                let (s, a) = model.predict_with_attention(&encoded);
                assert_eq!((score_bits(&s), bits(&a)), (scores.clone(), attention.clone()));
            });
        }
    }

    #[test]
    fn pair_phase_chunks_match_one_tape_at_chunk_edges() {
        // 300 pairs (three pair-phase chunks, the last ragged), one pair,
        // and none.
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        for n in [300, 1, 0] {
            let encoded = chunk_edge_batch(&model, n);
            let (scores, attention) = tape(&model, &encoded);
            for threads in [1, 3] {
                let label = format!("{n} pairs, {threads} threads");
                parallel::with_threads(threads, || {
                    assert_eq!(score_bits(&model.predict_encoded(&encoded)), scores, "{label}");
                    let (s, a) = model.predict_with_attention(&encoded);
                    assert_eq!((score_bits(&s), bits(&a)), (scores.clone(), attention.clone()));
                    assert_eq!(bits(&model.attention_encoded(&encoded)), attention, "{label}");
                });
            }
        }
        // `score` encodes its own pairs: 300 with mostly distinct titles,
        // one, and none.
        let pairs: Vec<EntityPair> = (0..300)
            .map(|i| pair(&[("title", &format!("t{i}")), ("artist", "x")], &[("title", "t")]))
            .collect();
        for n in [300, 1, 0] {
            let encoded = model.encode(&pairs[..n]);
            let (scores, attention) = tape(&model, &encoded);
            for threads in [1, 3] {
                let scored = parallel::with_threads(threads, || model.score(pairs[..n].to_vec()));
                assert_eq!(
                    score_bits(&scored.scores),
                    scores,
                    "score, {n} pairs, {threads} threads"
                );
                assert_eq!(bits(&scored.attention), attention, "score attention, {n} pairs");
            }
        }
    }

    /// Runs `f` with [`feature_leaf`] recording per-pair rows, or grouped
    /// leaves.
    fn with_leaves<R>(per_pair: bool, f: impl FnOnce() -> R) -> R {
        PER_PAIR_LEAVES.set(per_pair);
        let out = f();
        PER_PAIR_LEAVES.set(false);
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Three attributes over pairs that repeat contents and miss values, so
    /// every feature's batch holds repeated blocks and the missing-value
    /// vector.
    fn repeating_pairs() -> (Schema, Vec<EntityPair>) {
        let schema = Schema::new(vec!["artist".into(), "title".into(), "year".into()]);
        let pairs = (0..14)
            .map(|i| match i % 4 {
                0 => pair(&[("title", "hey jude")], &[("title", "hey jude"), ("year", "1968")]),
                1 => pair(&[("artist", "x"), ("title", "a b")], &[("artist", "y z")]),
                2 => pair(&[("artist", "q"), ("year", "1970")], &[("artist", "q"), ("title", "c")]),
                _ => pair(&[], &[("year", if i % 3 == 0 { "1969" } else { "1970" })]),
            })
            .collect();
        (schema, pairs)
    }

    #[test]
    fn grouped_leaves_train_within_budget_of_per_pair_leaves() {
        use adamel_schema::FeatureMode;
        let (schema, pairs) = repeating_pairs();
        let labels = repeating_labels();
        for mode in [FeatureMode::SharedOnly, FeatureMode::UniqueOnly, FeatureMode::Both] {
            for uniform in [false, true] {
                let cfg = AdamelConfig {
                    feature_mode: mode,
                    uniform_attention: uniform,
                    ..repeating_config()
                };
                let label = format!("{mode:?}, uniform attention {uniform}");
                let model = AdamelModel::new(cfg.clone(), schema.clone());
                let encoded = model.encode(&pairs);
                let everything: Vec<usize> = (0..pairs.len()).collect();
                for j in 0..model.extractor().num_features() {
                    let distinct = encoded.distinct(j, &everything).0.rows();
                    assert!(distinct <= 4, "{label}: feature {j} has {distinct} distinct blocks");
                }
                // Values bit for bit; gradients, and what two epochs of
                // `fit` train from them, within the grouped budget.
                let (values, grads) = one_step(&model, &encoded, &labels, false);
                let (dense_values, dense_grads) = one_step(&model, &encoded, &labels, true);
                assert_eq!(values, dense_values, "{label}: one step's values");
                assert!(
                    within_grouped_budget(&grads, &dense_grads),
                    "{label}: one step's gradients"
                );
                let trained = |per_pair: bool| {
                    let mut model = AdamelModel::new(cfg.clone(), schema.clone());
                    let report = with_leaves(per_pair, || fit_repeating(&mut model, &pairs));
                    let mut out = model.snapshot_params();
                    out.push(Matrix::from_vec(1, report.epochs, report.epoch_losses));
                    out
                };
                assert!(
                    within_grouped_budget(&trained(false), &trained(true)),
                    "{label}: two epochs of fit"
                );
            }
        }
    }

    #[test]
    fn a_broken_segment_sum_fails_the_grouped_budget() {
        // The mutation check of the test above: a tape whose segment sum
        // leaves out one pair's gradient row, or adds it into the wrong
        // distinct row, falls outside the budget in one step and in `fit`.
        let (schema, pairs) = repeating_pairs();
        let labels = repeating_labels();
        let model = AdamelModel::new(repeating_config(), schema.clone());
        let encoded = model.encode(&pairs);
        let (_, dense_grads) = one_step(&model, &encoded, &labels, true);
        let mut dense_model = AdamelModel::new(repeating_config(), schema.clone());
        with_leaves(true, || fit_repeating(&mut dense_model, &pairs));
        let dense_params = dense_model.snapshot_params();
        for pair in 0..STEP_BATCH.len() {
            for fault in [SegmentFault::Drop(pair), SegmentFault::Misroute(pair)] {
                let (_, grads) =
                    Graph::with_segment_fault(fault, || one_step(&model, &encoded, &labels, false));
                assert!(!within_grouped_budget(&grads, &dense_grads), "{fault:?}: one step");
                let mut model = AdamelModel::new(repeating_config(), schema.clone());
                Graph::with_segment_fault(fault, || fit_repeating(&mut model, &pairs));
                let params = model.snapshot_params();
                assert!(!within_grouped_budget(&params, &dense_params), "{fault:?}: fit");
            }
        }
    }

    #[test]
    fn training_is_thread_count_invariant() {
        // Backward sums grouped gradients in pair order on the calling
        // thread, and every kernel keeps each element's order whatever the
        // worker count, so two epochs of `fit` train the same bits on one
        // thread and on three.
        let (schema, pairs) = repeating_pairs();
        let train = |threads: usize| {
            adamel_tensor::parallel::with_threads(threads, || {
                let mut model = AdamelModel::new(repeating_config(), schema.clone());
                let report = fit_repeating(&mut model, &pairs);
                let mut out: Vec<Vec<u32>> = model.snapshot_params().iter().map(bits).collect();
                out.push(report.epoch_losses.iter().map(|v| v.to_bits()).collect());
                out
            })
        };
        assert_eq!(train(1), train(3));
    }

    /// The configuration of the grouped-leaf tests: two epochs in batches
    /// of five.
    fn repeating_config() -> AdamelConfig {
        AdamelConfig { epochs: 2, batch_size: 5, ..AdamelConfig::tiny() }
    }

    /// Labels of [`repeating_pairs`]: two matches, then two non-matches.
    fn repeating_labels() -> Vec<f32> {
        (0..14).map(|i| (i % 4 < 2) as u8 as f32).collect()
    }

    /// Whether every element of `got` is within the grouped-gradient budget
    /// of `want` (DESIGN §10): `(rows + 4) · ε₃₂ · max(scale, 1)`, with
    /// `rows` the pairs on one step's tape and `scale` the largest
    /// magnitude in `want`.
    fn within_grouped_budget(got: &[Matrix], want: &[Matrix]) -> bool {
        let rows = STEP_BATCH.len() + 14;
        let elements =
            |ms: &[Matrix]| ms.iter().flat_map(|m| m.as_slice().to_vec()).collect::<Vec<_>>();
        let (got, want) = (elements(got), elements(want));
        let scale = want.iter().fold(1.0f32, |acc, v| acc.max(v.abs()));
        let budget = (rows as f32 + 4.0) * f32::EPSILON * scale;
        got.len() == want.len() && got.iter().zip(&want).all(|(x, y)| (x - y).abs() <= budget)
    }

    /// The batch [`one_step`] records, with repeats and in another order.
    const STEP_BATCH: [usize; 9] = [3, 0, 7, 3, 12, 1, 4, 4, 9];

    /// One training step as `fit` records it: a batch of the pairs with its
    /// KL term, and all of them as a support batch on the same tape. Returns
    /// the logits, attention, losses and the loss's bits, and every
    /// parameter's gradient.
    fn one_step(
        model: &AdamelModel,
        encoded: &EncodedBlocks,
        labels: &[f32],
        per_pair: bool,
    ) -> (Vec<Vec<u32>>, Vec<Matrix>) {
        let mut params = ParamSet::new();
        for id in model.params.ids() {
            params.insert(model.params.name(id), model.params.value(id).clone());
        }
        let everything: Vec<usize> = (0..encoded.rows()).collect();
        with_leaves(per_pair, || {
            let mut g = Graph::new();
            let nodes = model.forward(&mut g, encoded, &STEP_BATCH);
            let y = Matrix::from_vec(
                STEP_BATCH.len(),
                1,
                STEP_BATCH.iter().map(|&i| labels[i]).collect(),
            );
            let base = g.bce_with_logits(nodes.logits, y);
            let f = model.extractor().num_features();
            let q = Matrix::full(1, f, 1.0 / f as f32);
            let kl = g.kl_const_rows(nodes.attention, q, 1e-7);
            let base = g.add(base, kl);
            let support = model.forward(&mut g, encoded, &everything);
            let n = everything.len();
            let w = Matrix::from_vec(n, 1, (0..n).map(|i| 0.5 + i as f32 / 7.0).collect());
            let y = Matrix::from_vec(n, 1, labels.to_vec());
            let s = g.weighted_bce_with_logits(support.logits, y, w);
            let loss = g.add(base, s);
            g.backward(loss, &mut params);
            let values = [nodes.logits, nodes.attention, support.logits, base, loss]
                .iter()
                .map(|&v| bits(g.value(v)))
                .collect();
            (values, params.ids().map(|id| params.grad(id).clone()).collect())
        })
    }

    /// [`repeating_config`]'s two epochs of AdaMEL-hyb on `pairs`, with a
    /// target of the first eight and a support set of all but the first
    /// four.
    fn fit_repeating(model: &mut AdamelModel, pairs: &[EntityPair]) -> crate::train::TrainReport {
        let train = Domain::new(
            pairs
                .iter()
                .zip(repeating_labels())
                .map(|(p, y)| EntityPair::labeled(p.left.clone(), p.right.clone(), y > 0.5))
                .collect(),
        );
        let target = Domain::new(pairs[..8].to_vec());
        let support = Domain::new(train.pairs[4..].to_vec());
        crate::train::fit(model, crate::config::Variant::Hyb, &train, Some(&target), Some(&support))
    }

    #[test]
    fn paper_scale_parameter_count_is_order_of_papers() {
        // §5.5 reports ~2.2M parameters for AdaMEL-hyb on Monitor
        // (13 attributes → F = 26). Our formula at paper dims should land in
        // the same order of magnitude.
        let cfg = AdamelConfig::paper();
        let attrs: Vec<String> = (0..13).map(|i| format!("a{i}")).collect();
        let model = AdamelModel::new(cfg, Schema::new(attrs));
        let n = model.num_parameters();
        // The paper reports ~2_219_520 (weights only; ours includes biases).
        assert!(n > 2_000_000 && n < 2_500_000, "param count {n}");
    }

    #[test]
    fn deterministic_initialization() {
        let a = AdamelModel::new(AdamelConfig::tiny(), schema());
        let b = AdamelModel::new(AdamelConfig::tiny(), schema());
        let p = vec![pair(&[("title", "x y")], &[("title", "x z")])];
        assert_eq!(a.predict(&p), b.predict(&p));
    }

    #[test]
    fn feature_importance_is_sorted_and_complete() {
        let model = AdamelModel::new(AdamelConfig::tiny(), schema());
        let pairs = vec![pair(&[("title", "a")], &[("title", "a")])];
        let imp = model.feature_importance(&pairs);
        assert_eq!(imp.len(), 4);
        for w in imp.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let total: f32 = imp.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-5);
    }
}
