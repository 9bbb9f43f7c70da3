//! Entity records, data sources, and schemas.

use std::collections::BTreeMap;

/// Identifier of a data source (a website or database the record was
/// sampled from) — the paper's `r*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

/// An entity record: a bag of textual attribute values collected from one
/// data source.
///
/// `entity_id` is the generator's ground-truth identity used to derive
/// labels; models never see it.
#[derive(Debug, Clone)]
pub struct Record {
    /// The data source this record was crawled from.
    pub source: SourceId,
    /// Ground-truth entity identity (label derivation only).
    pub entity_id: u64,
    /// Attribute name → raw textual value. Missing attributes are simply
    /// absent; empty strings are treated as missing too (challenge C1).
    pub values: BTreeMap<String, String>,
}

impl Record {
    /// Creates a record with no attribute values.
    pub fn new(source: SourceId, entity_id: u64) -> Self {
        Self { source, entity_id, values: BTreeMap::new() }
    }

    /// Sets an attribute value, dropping it if empty after trimming.
    pub fn set(&mut self, attribute: impl Into<String>, value: impl Into<String>) -> &mut Self {
        let value = value.into();
        if !value.trim().is_empty() {
            self.values.insert(attribute.into(), value);
        }
        self
    }

    /// The raw value of an attribute, if present and non-empty.
    pub fn get(&self, attribute: &str) -> Option<&str> {
        self.values.get(attribute).map(String::as_str).filter(|v| !v.trim().is_empty())
    }

    /// True when the attribute is missing or empty (challenge C1).
    pub fn is_missing(&self, attribute: &str) -> bool {
        self.get(attribute).is_none()
    }

    /// Attribute names present on this record.
    pub fn attributes(&self) -> impl Iterator<Item = &str> {
        self.values.keys().map(String::as_str)
    }
}

/// An ordered attribute schema — the paper's `A`.
///
/// Ordering is canonical (sorted) so feature indices are stable across runs
/// and data sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attributes: Vec<String>,
}

impl Schema {
    /// Builds a schema from attribute names, sorting and deduplicating.
    pub fn new(mut attributes: Vec<String>) -> Self {
        attributes.sort();
        attributes.dedup();
        Self { attributes }
    }

    /// The aligned union ontology of every record's attributes — the paper's
    /// `A ∪ A'` alignment that gives source and target domains a shared
    /// feature space (§4.1).
    pub fn union_of<'a>(records: impl IntoIterator<Item = &'a Record>) -> Self {
        let mut attrs: Vec<String> = Vec::new();
        for r in records {
            attrs.extend(r.attributes().map(str::to_owned));
        }
        Self::new(attrs)
    }

    /// Merges two schemas into their union.
    pub fn union(&self, other: &Schema) -> Schema {
        let mut attrs = self.attributes.clone();
        attrs.extend(other.attributes.iter().cloned());
        Schema::new(attrs)
    }

    /// Restriction to a subset of attributes (Table 5's top-k experiments);
    /// unknown names are ignored.
    pub fn project(&self, keep: &[&str]) -> Schema {
        Schema::new(
            self.attributes.iter().filter(|a| keep.contains(&a.as_str())).cloned().collect(),
        )
    }

    /// Restriction to every attribute *not* in `drop` (Table 5's "other
    /// attributes" column).
    pub fn without(&self, drop: &[&str]) -> Schema {
        Schema::new(
            self.attributes.iter().filter(|a| !drop.contains(&a.as_str())).cloned().collect(),
        )
    }

    /// Attribute names in canonical order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Number of attributes `|A|`.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// True for the empty schema.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Index of an attribute in canonical order.
    pub fn index_of(&self, attribute: &str) -> Option<usize> {
        self.attributes.binary_search_by(|a| a.as_str().cmp(attribute)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(source: u32, id: u64, kv: &[(&str, &str)]) -> Record {
        let mut r = Record::new(SourceId(source), id);
        for (k, v) in kv {
            r.set(*k, *v);
        }
        r
    }

    #[test]
    fn set_get_missing() {
        let r = record(1, 10, &[("title", "Hey Jude"), ("artist", "")]);
        assert_eq!(r.get("title"), Some("Hey Jude"));
        assert!(r.is_missing("artist"));
        assert!(r.is_missing("gender"));
    }

    #[test]
    fn schema_union_is_sorted_and_deduped() {
        let a = record(1, 1, &[("title", "x"), ("artist", "y")]);
        let b = record(2, 2, &[("title", "z"), ("gender", "f")]);
        let s = Schema::union_of([&a, &b]);
        assert_eq!(s.attributes(), &["artist", "gender", "title"]);
        assert_eq!(s.index_of("gender"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    fn union_alignment_is_idempotent() {
        let a = record(1, 1, &[("title", "x")]);
        let s1 = Schema::union_of([&a]);
        let s2 = s1.union(&s1);
        assert_eq!(s1, s2);
    }

    #[test]
    fn project_and_without_partition() {
        let s = Schema::new(vec!["a".into(), "b".into(), "c".into()]);
        let top = s.project(&["a", "c"]);
        let rest = s.without(&["a", "c"]);
        assert_eq!(top.attributes(), &["a", "c"]);
        assert_eq!(rest.attributes(), &["b"]);
        assert_eq!(top.len() + rest.len(), s.len());
    }

    #[test]
    fn empty_value_is_dropped_on_set() {
        let mut r = Record::new(SourceId(0), 0);
        r.set("x", "   ");
        assert!(r.is_missing("x"));
        assert_eq!(r.attributes().count(), 0);
    }
}
