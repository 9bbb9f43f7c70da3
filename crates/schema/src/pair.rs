//! Entity pairs and domains (source domain, target domain, support set).

use crate::record::{Record, Schema, SourceId};
use std::collections::BTreeSet;

/// A pair of entity records, optionally labeled.
#[derive(Debug, Clone)]
pub struct EntityPair {
    /// Left record.
    pub left: Record,
    /// Right record.
    pub right: Record,
    /// `Some(true)` = matching, `Some(false)` = non-matching, `None` =
    /// unlabeled (target-domain data).
    pub label: Option<bool>,
}

impl EntityPair {
    /// Creates a labeled pair.
    pub fn labeled(left: Record, right: Record, matching: bool) -> Self {
        Self { left, right, label: Some(matching) }
    }

    /// Creates an unlabeled pair.
    pub fn unlabeled(left: Record, right: Record) -> Self {
        Self { left, right, label: None }
    }

    /// Ground-truth match from the generator's entity ids (used when
    /// evaluating on "unlabeled" target pairs).
    pub fn ground_truth(&self) -> bool {
        self.left.entity_id == self.right.entity_id
    }

    /// The pair's two data sources.
    pub fn sources(&self) -> (SourceId, SourceId) {
        (self.left.source, self.right.source)
    }

    /// True when at least one side comes from a source in `unseen` — the
    /// membership test for the target domain (Definition 3.1).
    pub fn touches_sources(&self, unseen: &BTreeSet<SourceId>) -> bool {
        unseen.contains(&self.left.source) || unseen.contains(&self.right.source)
    }
}

/// A collection of entity pairs with convenience views — used for `D_S`,
/// `D_T`, and `S_U`.
#[derive(Debug, Clone, Default)]
pub struct Domain {
    /// The pairs in this domain.
    pub pairs: Vec<EntityPair>,
}

impl Domain {
    /// Creates a domain from pairs.
    pub fn new(pairs: Vec<EntityPair>) -> Self {
        Self { pairs }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the domain has no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The set of data sources occurring in this domain — the paper's `D*`.
    pub fn sources(&self) -> BTreeSet<SourceId> {
        let mut s = BTreeSet::new();
        for p in &self.pairs {
            s.insert(p.left.source);
            s.insert(p.right.source);
        }
        s
    }

    /// The aligned union schema over every record in the domain.
    pub fn schema(&self) -> Schema {
        Schema::union_of(self.pairs.iter().flat_map(|p| [&p.left, &p.right]))
    }

    /// Labels as 0/1 floats; panics on unlabeled pairs (use only on `D_S` /
    /// `S_U`).
    pub fn labels(&self) -> Vec<f32> {
        self.pairs
            .iter()
            .map(|p| f32::from(p.label.expect("Domain::labels called on unlabeled pair")))
            .collect()
    }

    /// Ground-truth labels as 0/1 floats (for evaluating on target pairs).
    pub fn ground_truth(&self) -> Vec<f32> {
        self.pairs.iter().map(|p| f32::from(p.ground_truth())).collect()
    }

    /// Count of positive labels.
    pub fn num_positive(&self) -> usize {
        self.pairs.iter().filter(|p| p.label == Some(true)).count()
    }

    /// Splits off the pairs at the given indices into a new domain.
    pub fn subset(&self, indices: &[usize]) -> Domain {
        Domain::new(indices.iter().map(|&i| self.pairs[i].clone()).collect())
    }

    /// Concatenates two domains.
    pub fn extend_from(&mut self, other: &Domain) {
        self.pairs.extend(other.pairs.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(source: u32, id: u64, title: &str) -> Record {
        let mut r = Record::new(SourceId(source), id);
        r.set("title", title);
        r
    }

    #[test]
    fn ground_truth_from_entity_ids() {
        let p = EntityPair::unlabeled(rec(1, 5, "a"), rec(2, 5, "b"));
        assert!(p.ground_truth());
        let n = EntityPair::unlabeled(rec(1, 5, "a"), rec(2, 6, "b"));
        assert!(!n.ground_truth());
    }

    #[test]
    fn touches_sources_detects_unseen() {
        let p = EntityPair::unlabeled(rec(1, 5, "a"), rec(9, 5, "b"));
        let unseen: BTreeSet<SourceId> = [SourceId(9)].into();
        assert!(p.touches_sources(&unseen));
        let seen_only: BTreeSet<SourceId> = [SourceId(3)].into();
        assert!(!p.touches_sources(&seen_only));
    }

    #[test]
    fn domain_sources_and_schema() {
        let d = Domain::new(vec![
            EntityPair::labeled(rec(1, 5, "a"), rec(2, 5, "b"), true),
            EntityPair::labeled(rec(1, 6, "c"), rec(3, 7, "d"), false),
        ]);
        assert_eq!(d.sources().len(), 3);
        assert_eq!(d.schema().attributes(), &["title"]);
        assert_eq!(d.labels(), vec![1.0, 0.0]);
        assert_eq!(d.num_positive(), 1);
    }

    #[test]
    #[should_panic(expected = "unlabeled")]
    fn labels_panic_on_unlabeled() {
        let d = Domain::new(vec![EntityPair::unlabeled(rec(1, 5, "a"), rec(2, 5, "b"))]);
        let _ = d.labels();
    }

    #[test]
    fn subset_preserves_order() {
        let d = Domain::new(vec![
            EntityPair::labeled(rec(1, 1, "a"), rec(2, 1, "a"), true),
            EntityPair::labeled(rec(1, 2, "b"), rec(2, 3, "c"), false),
            EntityPair::labeled(rec(1, 4, "d"), rec(2, 4, "d"), true),
        ]);
        let s = d.subset(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.pairs[0].left.entity_id, 4);
        assert_eq!(s.pairs[1].left.entity_id, 1);
    }
}
