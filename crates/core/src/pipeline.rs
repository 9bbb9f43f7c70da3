//! An end-to-end linkage pipeline for downstream use: blocking + scoring +
//! thresholding over raw record collections.
//!
//! The experiments operate on pre-built pair sets; a consumer of the
//! library usually has two bags of records instead. [`Linker`] wraps a
//! trained [`AdamelModel`] with token blocking so linking two collections is
//! one call.

use crate::model::{AdamelModel, ScoredPairs};
use adamel_schema::blocking::BlockingIndex;
use adamel_schema::{EntityPair, Record};
use adamel_tensor::{parallel, Matrix};

/// A scored candidate match between two records.
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// Index into the left collection.
    pub left: usize,
    /// Index into the right collection.
    pub right: usize,
    /// Model match score in `[0, 1]`.
    pub score: f32,
}

/// Configuration of the linking pass.
#[derive(Debug, Clone)]
pub struct LinkerConfig {
    /// Attributes used for token blocking.
    pub block_attrs: Vec<String>,
    /// Maximum candidates considered per left record.
    pub max_candidates_per_record: usize,
    /// Minimum score to emit a match.
    pub threshold: f32,
    /// Keep only the best match per left record.
    pub one_to_one: bool,
}

impl Default for LinkerConfig {
    fn default() -> Self {
        Self {
            block_attrs: vec!["name".into()],
            max_candidates_per_record: 20,
            threshold: 0.5,
            one_to_one: false,
        }
    }
}

/// Blocking + scoring pipeline around a trained model.
pub struct Linker {
    model: AdamelModel,
    cfg: LinkerConfig,
}

impl Linker {
    /// Wraps a trained model.
    pub fn new(model: AdamelModel, cfg: LinkerConfig) -> Self {
        Self { model, cfg }
    }

    /// The wrapped model.
    pub fn model(&self) -> &AdamelModel {
        &self.model
    }

    /// The linking configuration, for callers that replicate the blocking
    /// stage externally (incremental indexes must probe with the same
    /// `block_attrs` and candidate cap to stay equivalent).
    pub fn config(&self) -> &LinkerConfig {
        &self.cfg
    }

    /// Links two record collections: blocks, scores every candidate pair in
    /// one batch, applies the threshold (and one-to-one reduction if
    /// configured). Results are sorted by descending score.
    pub fn link(&self, left: &[Record], right: &[Record]) -> Vec<MatchResult> {
        adamel_obs::trace_span!("link");
        let block_attrs: Vec<&str> = self.cfg.block_attrs.iter().map(String::as_str).collect();

        let blocking = adamel_obs::span("blocking");
        let index = BlockingIndex::new(right, &block_attrs);

        // Candidate generation is independent per left record; probe the
        // index in parallel and flatten serially so pair order (and thus
        // output order for tied scores) matches the sequential loop.
        let per_left: Vec<Vec<usize>> = parallel::parallel_map_collect(
            left.len(),
            self.cfg.max_candidates_per_record * 64,
            |li| index.candidates_for(&left[li], &block_attrs, self.cfg.max_candidates_per_record),
        );
        drop(blocking);
        self.score_candidates(left, right, &per_left).0
    }

    /// Scores a pre-blocked candidate set: `candidates[li]` lists the
    /// `right` indices paired with `left[li]`. This is the second half of
    /// [`link`](Self::link) — pair construction in `(li, ri)` order, one
    /// batched forward pass, thresholding, the stable descending sort, and
    /// the optional one-to-one reduction — exposed so callers that maintain
    /// their own incremental blocking index (`adamel-serve`'s `LiveIndex`)
    /// produce **bit-identical** results to the offline pipeline on the
    /// same candidates. `right` need not be the whole corpus: it may hold
    /// just the candidate records, each once, since only the pairs, their
    /// order, and which `right` indices coincide reach the results.
    ///
    /// Beside the matches it returns every pair it built, in that order,
    /// with the scores and attention rows of the same forward pass — what
    /// [`DriftMonitor::assess`](crate::drift::DriftMonitor::assess) reads.
    ///
    /// Out-of-range candidate indices are skipped and `candidates` entries
    /// beyond `left.len()` are ignored, so no input makes this panic.
    pub fn score_candidates(
        &self,
        left: &[Record],
        right: &[Record],
        candidates: &[Vec<usize>],
    ) -> (Vec<MatchResult>, ScoredPairs) {
        let mut pairs = Vec::new();
        let mut pair_ids = Vec::new();
        for (li, (lrec, cands)) in left.iter().zip(candidates.iter()).enumerate() {
            for &ri in cands {
                if let Some(rrec) = right.get(ri) {
                    pairs.push(EntityPair::unlabeled(lrec.clone(), rrec.clone()));
                    pair_ids.push((li, ri));
                }
            }
        }
        adamel_obs::trace_count!("link.candidates", pairs.len() as u64);
        if pairs.is_empty() {
            adamel_obs::runlog::event("link")
                .int("left_records", left.len() as u64)
                .int("right_records", right.len() as u64)
                .int("candidates", 0)
                .int("scored", 0)
                .int("matches", 0)
                .num("threshold", f64::from(self.cfg.threshold))
                .emit();
            let attention = Matrix::zeros(0, self.model.extractor().num_features());
            return (Vec::new(), ScoredPairs { pairs, scores: Vec::new(), attention });
        }
        let score_span = adamel_obs::span("score");
        let batch = self.model.score(pairs);
        drop(score_span);
        let scored = batch.scores.len();
        adamel_obs::trace_count!("link.pairs_scored", scored as u64);

        let mut results: Vec<MatchResult> = pair_ids
            .into_iter()
            .zip(batch.scores.iter().copied())
            .filter(|(_, s)| *s >= self.cfg.threshold)
            .map(|((left, right), score)| MatchResult { left, right, score })
            .collect();
        // total_cmp for the same reason as attention.rs: sigmoid scores are
        // finite, but the ordering must never become input-order-dependent.
        debug_assert!(results.iter().all(|m| m.score.is_finite()), "non-finite match score");
        results.sort_by(|a, b| b.score.total_cmp(&a.score));

        if self.cfg.one_to_one {
            let mut used_left = std::collections::HashSet::new();
            let mut used_right = std::collections::HashSet::new();
            results.retain(|m| used_left.insert(m.left) && used_right.insert(m.right));
        }
        adamel_obs::trace_count!("link.matches", results.len() as u64);
        adamel_obs::runlog::event("link")
            .int("left_records", left.len() as u64)
            .int("right_records", right.len() as u64)
            .int("candidates", batch.pairs.len() as u64)
            .int("scored", scored as u64)
            .int("matches", results.len() as u64)
            .num("threshold", f64::from(self.cfg.threshold))
            .emit();
        (results, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdamelConfig;
    use crate::config::Variant;
    use crate::train::fit;
    use adamel_schema::{Domain, Schema, SourceId};

    fn rec(source: u32, id: u64, name: &str) -> Record {
        let mut r = Record::new(SourceId(source), id);
        r.set("name", name);
        r
    }

    fn trained_linker(one_to_one: bool) -> Linker {
        let schema = Schema::new(vec!["name".into()]);
        let mut model = AdamelModel::new(AdamelConfig::tiny(), schema);
        let names = ["alpha beta", "gamma delta", "epsilon zeta", "eta theta"];
        let mut train = Vec::new();
        for (i, n) in names.iter().enumerate() {
            let id = i as u64;
            train.push(EntityPair::labeled(rec(0, id, n), rec(1, id, n), true));
            let other = names[(i + 1) % names.len()];
            train.push(EntityPair::labeled(rec(0, id, n), rec(1, id + 50, other), false));
        }
        fit(&mut model, Variant::Base, &Domain::new(train), None, None);
        Linker::new(model, LinkerConfig { threshold: 0.5, one_to_one, ..Default::default() })
    }

    #[test]
    fn links_matching_records() {
        let linker = trained_linker(false);
        let left = vec![rec(0, 100, "alpha beta"), rec(0, 101, "gamma delta")];
        let right =
            vec![rec(1, 200, "gamma delta"), rec(1, 201, "alpha beta"), rec(1, 202, "omicron pi")];
        let matches = linker.link(&left, &right);
        assert!(!matches.is_empty());
        // Top match should pair identical names.
        let top = &matches[0];
        assert_eq!(left[top.left].get("name"), right[top.right].get("name"));
    }

    #[test]
    fn one_to_one_removes_duplicate_assignments() {
        let linker = trained_linker(true);
        let left = vec![rec(0, 1, "alpha beta"), rec(0, 2, "alpha beta")];
        let right = vec![rec(1, 3, "alpha beta")];
        let matches = linker.link(&left, &right);
        assert!(matches.len() <= 1, "one-to-one violated: {matches:?}");
    }

    #[test]
    fn empty_inputs_yield_no_matches() {
        let linker = trained_linker(false);
        assert!(linker.link(&[], &[]).is_empty());
        assert!(linker.link(&[rec(0, 1, "x")], &[]).is_empty());
    }

    #[test]
    fn score_candidates_is_bit_identical_to_link() {
        let linker = trained_linker(false);
        let left = vec![rec(0, 1, "alpha beta"), rec(0, 2, "gamma delta")];
        let right =
            vec![rec(1, 3, "alpha beta"), rec(1, 4, "gamma delta"), rec(1, 5, "alpha gamma")];
        let attrs: Vec<&str> = linker.cfg.block_attrs.iter().map(String::as_str).collect();
        let index = BlockingIndex::new(&right, &attrs);
        let per_left: Vec<Vec<usize>> = left
            .iter()
            .map(|l| index.candidates_for(l, &attrs, linker.cfg.max_candidates_per_record))
            .collect();
        let (via_candidates, batch) = linker.score_candidates(&left, &right, &per_left);
        let via_link = linker.link(&left, &right);
        assert_eq!(via_candidates.len(), via_link.len());
        for (a, b) in via_candidates.iter().zip(via_link.iter()) {
            assert_eq!((a.left, a.right), (b.left, b.right));
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "scores must match bitwise");
        }
        // The returned batch is the one forward pass `predict` would run.
        let reference = linker.model().predict(&batch.pairs);
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&batch.scores), bits(&reference));
        let attention = linker.model().attention(&batch.pairs);
        assert_eq!(bits(batch.attention.as_slice()), bits(attention.as_slice()));
    }

    #[test]
    fn score_candidates_skips_out_of_range_indices() {
        let linker = trained_linker(false);
        let left = vec![rec(0, 1, "alpha beta")];
        let right = vec![rec(1, 3, "alpha beta")];
        let (matches, batch) = linker.score_candidates(&left, &right, &[vec![0, 7]]);
        assert!(matches.iter().all(|m| m.right < right.len()));
        assert_eq!(batch.pairs.len(), 1);
    }

    #[test]
    fn results_sorted_descending() {
        let linker = trained_linker(false);
        let left = vec![rec(0, 1, "alpha beta"), rec(0, 2, "gamma delta")];
        let right =
            vec![rec(1, 3, "alpha beta"), rec(1, 4, "gamma delta"), rec(1, 5, "alpha gamma")];
        let matches = linker.link(&left, &right);
        for w in matches.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
