//! JSON export of the process-wide registry.
//!
//! The report is schema-versioned (`"schema": "adamel-obs/v1"`) and built
//! with the same hand-written JSON style as the `perfjson` bench binary,
//! so an obs report embeds directly into `BENCH_*.json` files (see
//! `perfjson --obs`). All maps serialize in `BTreeMap` order, so two runs
//! that record the same metrics produce byte-identical key ordering.
//!
//! ## Schema (`adamel-obs/v1`)
//!
//! ```json
//! {
//!   "schema": "adamel-obs/v1",
//!   "level": "full",
//!   "spans_entered": 123,
//!   "spans": {
//!     "predict/forward": {
//!       "count": 4, "total_ms": 1.5, "mean_ns": 375000,
//!       "min_ns": 10, "max_ns": 900000,
//!       "p50_ns": 131072, "p90_ns": 900000, "p99_ns": 900000,
//!       "buckets": [[65536, 131072, 3], [524288, 1048576, 1]]
//!     }
//!   },
//!   "counters": { "encode.pairs": 1024 },
//!   "values": {
//!     "train.loss_epoch": { "count": 3, "mean": 0.4, "min": 0.3,
//!                            "max": 0.5, "last": 0.3 }
//!   },
//!   "mem": {
//!     "schema": "adamel-mem/v1",
//!     "gauges": { "tensor.pool.bytes": { "current": 8192, "peak": 16384 } }
//!   }
//! }
//! ```
//!
//! Span durations are nanoseconds; `buckets` lists only non-empty
//! log2 buckets as `[lo, hi, count]`. The `mem` section carries the
//! logical memory ledger (see [`crate::mem`]); its gauges are plain
//! byte gauges, nested under their own schema tag so memory-gate
//! tooling can version them independently of the span report.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::hist::Histogram;
use crate::json::{escape, fmt_f64 as json_f64};
use crate::level::level;
use crate::registry;
use crate::span::spans_entered;

/// Report schema identifier embedded in every export.
pub const SCHEMA: &str = "adamel-obs/v1";

/// Schema identifier of the nested `"mem"` (memory ledger) section.
pub const MEM_SCHEMA: &str = "adamel-mem/v1";

fn span_json(h: &Histogram) -> String {
    let mut s = String::new();
    let total_ms = h.sum() as f64 / 1e6;
    let _ = write!(
        s,
        "{{\"count\": {}, \"total_ms\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"buckets\": [",
        h.count(),
        json_f64(total_ms),
        json_f64(h.mean().unwrap_or(0.0)),
        h.min().unwrap_or(0),
        h.max().unwrap_or(0),
        h.p50().unwrap_or(0),
        h.p90().unwrap_or(0),
        h.p99().unwrap_or(0),
    );
    for (i, (lo, hi, count)) in h.nonzero_buckets().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "[{lo}, {hi}, {count}]");
    }
    s.push_str("]}");
    s
}

/// Renders the current registry contents as a schema-versioned JSON
/// object (see the module docs for the schema). Does not reset anything;
/// call [`reset`] separately to start a fresh window.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// obs::counter_add("doc.report", 1);
/// let json = obs::report::render_json();
/// assert!(json.contains("\"schema\": \"adamel-obs/v1\""));
/// assert!(json.contains("\"doc.report\": 1"));
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
pub fn render_json() -> String {
    let reg = registry::lock();
    let mut out = String::new();
    out.push('{');
    let _ = write!(
        out,
        "\n  \"schema\": \"{}\",\n  \"level\": \"{}\",\n  \"spans_entered\": {},",
        SCHEMA,
        level().name(),
        spans_entered()
    );

    out.push_str("\n  \"spans\": {");
    for (i, (path, hist)) in reg.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", escape(path), span_json(hist));
    }
    if !reg.spans.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},");

    out.push_str("\n  \"counters\": {");
    for (i, (name, total)) in reg.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {}", escape(name), total);
    }
    if !reg.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},");

    out.push_str("\n  \"values\": {");
    for (i, (name, stat)) in reg.values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{}\": {{\"count\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \"last\": {}}}",
            escape(name),
            stat.count,
            json_f64(stat.mean().unwrap_or(0.0)),
            json_f64(stat.min),
            json_f64(stat.max),
            json_f64(stat.last),
        );
    }
    if !reg.values.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},");

    let _ = write!(out, "\n  \"mem\": {{\"schema\": \"{MEM_SCHEMA}\", \"gauges\": {{");
    for (i, (name, gauge)) in reg.mem.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{}\": {{\"current\": {}, \"peak\": {}}}",
            escape(name),
            gauge.current,
            gauge.peak,
        );
    }
    if !reg.mem.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}}\n}");
    out
}

/// The recorded spans whose full path starts with `prefix`, each rendered
/// as the same JSON stats object the report's `"spans"` section uses
/// (`count`/`total_ms`/percentiles/`buckets`), in path order. Lets a
/// service surface a focused slice of the registry — e.g. per-endpoint
/// request-latency histograms — without re-parsing the full report.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// {
///     let _s = obs::span("doc.prefix.get");
/// }
/// let spans = obs::report::spans_with_prefix("doc.prefix.");
/// assert_eq!(spans.len(), 1);
/// assert_eq!(spans[0].0, "doc.prefix.get");
/// assert!(spans[0].1.contains("\"count\": 1"));
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
pub fn spans_with_prefix(prefix: &str) -> Vec<(String, String)> {
    let reg = registry::lock();
    reg.spans
        .iter()
        .filter(|(path, _)| path.starts_with(prefix))
        .map(|(path, hist)| (path.clone(), span_json(hist)))
        .collect()
}

/// Writes [`render_json`] output to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error (unwritable path, full
/// disk, …).
pub fn write_json(path: &str) -> std::io::Result<()> {
    std::fs::write(path, render_json())
}

/// Clears all spans, counters, and values, starting a fresh measurement
/// window. The [`spans_entered`] odometer is *not* reset — it counts for
/// the process lifetime.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::counter_add("doc.reset", 1);
/// obs::report::reset();
/// assert_eq!(obs::counter_value("doc.reset"), None);
/// obs::set_forced(None);
/// ```
pub fn reset() {
    let mut reg = registry::lock();
    reg.spans.clear();
    reg.counters.clear();
    reg.values.clear();
    reg.mem.clear();
}

/// Drop guard that writes the JSON report when it goes out of scope —
/// bind one at the top of `main` to get a report even on early return.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// // In main():  let _report = obs::report::ExitReport::from_env();
/// // With ADAMEL_TRACE_REPORT=/tmp/obs.json set, the report lands there
/// // when main returns. Without it, the guard is inert:
/// let guard = obs::report::ExitReport::from_env();
/// drop(guard);
/// ```
pub struct ExitReport {
    path: Option<String>,
}

impl ExitReport {
    /// A guard that writes the report to `path` on drop.
    pub fn new(path: &str) -> Self {
        ExitReport { path: Some(path.to_string()) }
    }

    /// A guard wired to the `ADAMEL_TRACE_REPORT` environment variable:
    /// if set (and non-empty), the report is written to that path on
    /// drop; otherwise the guard does nothing.
    pub fn from_env() -> Self {
        ExitReport { path: std::env::var("ADAMEL_TRACE_REPORT").ok().filter(|p| !p.is_empty()) }
    }
}

impl Drop for ExitReport {
    fn drop(&mut self) {
        static WROTE: AtomicBool = AtomicBool::new(false);
        if let Some(path) = self.path.take() {
            // First guard to drop wins; duplicates (e.g. one per bin in a
            // test harness) silently skip rather than clobber.
            if WROTE.swap(true, Ordering::Relaxed) {
                return;
            }
            if let Err(e) = write_json(&path) {
                eprintln!("adamel-obs: failed to write report to {path}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{set_forced, TraceLevel};
    use crate::{counter_add, record_value, span};

    #[test]
    fn report_contains_schema_and_all_sections() {
        let _guard = crate::test_lock();
        set_forced(Some(TraceLevel::Spans));
        reset();
        {
            let _outer = span("r_outer");
            let _inner = span("r_inner");
        }
        counter_add("r.counter", 9);
        record_value("r.value", 1.5);
        crate::mem::add("r.mem", 2048);
        crate::mem::sub("r.mem", 1024);
        let json = render_json();
        assert!(json.contains("\"schema\": \"adamel-obs/v1\""));
        assert!(json.contains("\"r_outer\""));
        assert!(json.contains("\"r_outer/r_inner\""));
        assert!(json.contains("\"r.counter\": 9"));
        assert!(json.contains("\"r.value\""));
        assert!(json.contains("\"last\": 1.5"));
        assert!(json.contains("\"mem\": {\"schema\": \"adamel-mem/v1\""));
        assert!(json.contains("\"r.mem\": {\"current\": 1024, \"peak\": 2048}"));
        set_forced(None);
        reset();
    }

    #[test]
    fn empty_report_is_well_formed() {
        let _guard = crate::test_lock();
        set_forced(Some(TraceLevel::Off));
        reset();
        let json = render_json();
        assert!(json.contains("\"spans\": {}"));
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"values\": {}"));
        assert!(json.contains("\"gauges\": {}"));
        assert!(json.ends_with('}'));
        crate::json::Json::parse(&json).expect("empty report parses as JSON");
        set_forced(None);
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
    }

    #[test]
    fn json_f64_maps_nonfinite_to_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
