//! Wire types for the JSONL request/response bodies.
//!
//! Every endpoint speaks newline-delimited JSON: one object per line, so
//! bodies stream naturally and a client can pipe `jq` over responses. The
//! types here are the documented contract — see OPERATIONS.md for the
//! per-endpoint reference with full request/response examples.
//!
//! Scores are emitted twice per match line: `score` uses the shortest
//! round-trip decimal representation (it parses back to the same `f32`),
//! and `score_bits` carries the raw IEEE-754 bit pattern in hex for
//! clients that verify bit-identity against an offline run.

use adamel_obs::json::{self, Json};
use adamel_schema::{Record, SourceId};
use std::collections::BTreeMap;

/// One record to upsert, as one line of a `POST /records` body.
///
/// # Examples
///
/// ```
/// use adamel_serve::RecordLine;
///
/// let line = RecordLine::from_json(
///     r#"{"source": 7, "entity_id": 42, "values": {"name": "acme corp", "city": "berlin"}}"#,
/// ).expect("valid record line");
/// assert_eq!(line.source, 7);
/// assert_eq!(line.entity_id, 42);
/// assert_eq!(line.values["name"], "acme corp");
///
/// // Serialization round-trips.
/// let again = RecordLine::from_json(&line.to_json()).expect("round-trip");
/// assert_eq!(again.values, line.values);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLine {
    /// Data-source identifier (the paper's `r*`).
    pub source: u32,
    /// Caller-assigned record identifier, unique within the source.
    pub entity_id: u64,
    /// Attribute name → raw textual value.
    pub values: BTreeMap<String, String>,
}

impl RecordLine {
    /// Parses one JSONL line.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let v = Json::parse(line)?;
        let source = field_source(&v)?;
        let entity_id = field_u64(&v, "entity_id")?;
        let mut values = BTreeMap::new();
        if let Some(obj) = v.get("values") {
            let map = obj.as_object().ok_or_else(|| "`values` must be an object".to_string())?;
            for (k, val) in map {
                let s = val
                    .as_str()
                    .ok_or_else(|| format!("attribute `{k}` must be a string value"))?;
                values.insert(k.clone(), s.to_string());
            }
        }
        Ok(Self { source, entity_id, values })
    }

    /// Serializes back to one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"source\": {}, \"entity_id\": {}, \"values\": {{",
            self.source, self.entity_id
        );
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": \"{}\"", json::escape(k), json::escape(v)));
        }
        out.push_str("}}");
        out
    }

    /// Converts into a schema [`Record`]. Empty values are dropped by
    /// [`Record::set`], matching the offline loaders' treatment of C1
    /// missing attributes.
    pub fn into_record(self) -> Record {
        let mut rec = Record::new(SourceId(self.source), self.entity_id);
        for (k, v) in self.values {
            rec.set(k, v);
        }
        rec
    }
}

/// One record to remove, as one line of a `DELETE /records` body.
///
/// # Examples
///
/// ```
/// use adamel_serve::DeleteLine;
///
/// let line = DeleteLine::from_json(r#"{"source": 7, "entity_id": 42}"#).expect("valid");
/// assert_eq!((line.source, line.entity_id), (7, 42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeleteLine {
    /// Data-source identifier of the record to delete.
    pub source: u32,
    /// Record identifier within the source.
    pub entity_id: u64,
}

impl DeleteLine {
    /// Parses one JSONL line.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let v = Json::parse(line)?;
        Ok(Self { source: field_source(&v)?, entity_id: field_u64(&v, "entity_id")? })
    }
}

/// One match, as one line of a `POST /link` response.
///
/// # Examples
///
/// ```
/// use adamel_serve::LinkMatch;
///
/// let m = LinkMatch { query: 0, source: 3, entity_id: 17, score: 0.8125 };
/// let line = m.to_json();
/// assert!(line.contains("\"score\": 0.8125"));
/// // The bit pattern lets clients assert exact equality with offline runs.
/// assert!(line.contains(&format!("\"score_bits\": \"{:08x}\"", 0.8125f32.to_bits())));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkMatch {
    /// Zero-based index of the query record within the request body.
    pub query: usize,
    /// Source of the matched corpus record.
    pub source: u32,
    /// Entity id of the matched corpus record.
    pub entity_id: u64,
    /// Match probability from the model (above the configured threshold).
    pub score: f32,
}

impl LinkMatch {
    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"query\": {}, \"source\": {}, \"entity_id\": {}, \"score\": {}, \"score_bits\": \"{:08x}\"}}",
            self.query,
            self.source,
            self.entity_id,
            json::fmt_f64(f64::from(self.score)),
            self.score.to_bits()
        )
    }
}

/// The `GET /healthz` response body.
///
/// # Examples
///
/// ```
/// use adamel_serve::HealthResponse;
///
/// let h = HealthResponse {
///     status: "ok".to_string(),
///     model_version: 2,
///     records: 1280,
///     readapt_recommended: false,
///     workers: 4,
///     workers_live: 4,
/// };
/// assert!(h.to_json().contains("\"model_version\": 2"));
/// assert!(h.to_json().contains("\"workers_live\": 4"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthResponse {
    /// Always `"ok"` while the daemon is serving.
    pub status: String,
    /// Monotone counter bumped by every successful `POST /model` swap.
    pub model_version: u64,
    /// Records currently in the incremental blocking index.
    pub records: usize,
    /// True once unseen-source traffic dominates the recent link window —
    /// the AdaMEL-zero re-adaptation signal (DESIGN.md §16).
    pub readapt_recommended: bool,
    /// Worker threads the server was started with.
    pub workers: usize,
    /// Worker threads still running; below `workers` once a worker has
    /// exited, for example by a panic outside a request handler.
    pub workers_live: usize,
}

impl HealthResponse {
    /// Serializes to one JSON line (with trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"status\": \"{}\", \"model_version\": {}, \"records\": {}, \"readapt_recommended\": {}, \"workers\": {}, \"workers_live\": {}}}\n",
            json::escape(&self.status),
            self.model_version,
            self.records,
            self.readapt_recommended,
            self.workers,
            self.workers_live
        )
    }
}

/// Parses a JSONL body into one parsed value per non-empty line, reporting
/// the 1-based line number on failure.
pub fn parse_body<T>(
    body: &[u8],
    parse_line: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing or non-integer `{key}`"))
}

/// The `source` field, refused (not wrapped onto another source) above
/// `u32::MAX`.
fn field_source(v: &Json) -> Result<u32, String> {
    let source = field_u64(v, "source")?;
    u32::try_from(source).map_err(|_| format!("`source` {source} exceeds {}", u32::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_line_round_trips_and_builds_record() {
        let line = RecordLine::from_json(
            "{\"source\": 1, \"entity_id\": 9, \"values\": {\"name\": \"caf\\u00e9 \\\"x\\\"\"}}",
        )
        .expect("parse");
        assert_eq!(line.values["name"], "café \"x\"");
        let round = RecordLine::from_json(&line.to_json()).expect("round-trip");
        assert_eq!(round, line);
        let rec = line.into_record();
        assert_eq!(rec.source, SourceId(1));
        assert_eq!(rec.get("name"), Some("café \"x\""));
    }

    #[test]
    fn record_line_rejects_bad_shapes() {
        assert!(RecordLine::from_json("{\"entity_id\": 1}").is_err());
        assert!(RecordLine::from_json("{\"source\": 1, \"entity_id\": 1, \"values\": 3}").is_err());
        assert!(RecordLine::from_json("{\"source\": 1, \"entity_id\": 1, \"values\": {\"k\": 5}}")
            .is_err());
        assert!(RecordLine::from_json("not json").is_err());
    }

    #[test]
    fn out_of_range_keys_are_refused_not_wrapped() {
        // 2^32 would wrap onto source 0; 2^53 + 1 parses to the f64 2^53,
        // which is not the integer the client sent.
        let source = "{\"source\": 4294967296, \"entity_id\": 5}";
        let entity = "{\"source\": 1, \"entity_id\": 9007199254740993}";
        for line in [source, entity] {
            assert!(RecordLine::from_json(line).is_err(), "{line}");
            assert!(DeleteLine::from_json(line).is_err(), "{line}");
        }
        let max = "{\"source\": 4294967295, \"entity_id\": 9007199254740991}";
        let line = DeleteLine::from_json(max).expect("the largest keys parse");
        assert_eq!((line.source, line.entity_id), (u32::MAX, (1 << 53) - 1));
        assert!(RecordLine::from_json(max).is_ok());
    }

    #[test]
    fn link_match_score_survives_json_round_trip() {
        // A score with no short decimal representation still round-trips
        // because fmt_f64 prints the shortest string that parses back.
        let score = f32::from_bits(0x3f2a_bcde);
        let m = LinkMatch { query: 3, source: 2, entity_id: 5, score };
        let v = Json::parse(&m.to_json()).expect("valid json");
        let parsed = v.get("score").and_then(Json::as_f64).expect("score field") as f32;
        assert_eq!(parsed.to_bits(), score.to_bits());
        assert_eq!(
            v.get("score_bits").and_then(Json::as_str),
            Some(format!("{:08x}", score.to_bits()).as_str())
        );
    }

    #[test]
    fn parse_body_reports_line_numbers_and_skips_blanks() {
        let body = b"{\"source\": 1, \"entity_id\": 1}\n\n{\"source\": 2, \"entity_id\": 2}\n";
        let lines = parse_body(body, DeleteLine::from_json).expect("all valid");
        assert_eq!(lines.len(), 2);
        let err = parse_body(b"{\"source\": 1, \"entity_id\": 1}\nbogus\n", DeleteLine::from_json)
            .expect_err("second line invalid");
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
