//! The run ledger: a schema-versioned JSONL log of *model* observability.
//!
//! Span timers ([`crate::span`]) answer "where did the time go"; the run
//! ledger answers "what did the model do" — one JSON object per line
//! describing the run manifest (config, seed, threads, trace level),
//! per-epoch training signals (loss components, support-weight stats,
//! attention entropy), per-link-batch inference stats, evaluation metrics,
//! and drift monitor output (see `adamel::drift`). Ledgers from two runs
//! diff against each other with the `adamel-report` binary.
//!
//! ## Activation
//!
//! Writing is gated by `ADAMEL_RUNLOG=<path>` (read once per process,
//! like `ADAMEL_TRACE`) or by [`set_forced_path`] for tests and binaries
//! that cannot rely on process-level environment (the test harness runs
//! many tests in one process). When neither is set, [`enabled`] is false,
//! [`event`] returns an inert builder, and emitting costs one relaxed
//! atomic load — no allocation, no lock, no I/O.
//!
//! ## Determinism
//!
//! Events carry **no timestamps** and no other wall-clock data: two runs
//! with the same seed and config produce byte-identical ledgers, which is
//! what lets `adamel-report diff` gate CI on "zero metric delta" without
//! any tolerance plumbing. Wall-clock information enters a ledger only
//! through the optional embedded obs report (`obs_report` event), which
//! the diff treats as informational.
//!
//! ## Line format (`adamel-runlog/v1`)
//!
//! Every line is a flat-ish JSON object with three reserved keys:
//!
//! ```json
//! {"schema": "adamel-runlog/v1", "seq": 3, "event": "epoch", "epoch": 1, "loss": 0.61}
//! ```
//!
//! `schema` names the line grammar, `seq` increases strictly within a
//! ledger (readers use it to detect truncation/interleaving), and `event`
//! names the payload kind. Everything else is event-specific; see
//! DESIGN.md §12 for the event catalogue.
//!
//! # Examples
//!
//! ```
//! use adamel_obs::runlog;
//!
//! // Disabled (no ADAMEL_RUNLOG, no forced path): builders are inert.
//! runlog::set_forced_path(Some(""));
//! assert!(!runlog::enabled());
//! runlog::event("epoch").num("loss", 0.5).emit(); // no-op, no I/O
//! runlog::set_forced_path(None);
//! ```

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::json;

/// Ledger schema identifier embedded in every line.
pub const SCHEMA: &str = "adamel-runlog/v1";

/// Forced-path override state: `None` = follow the environment, `Some`
/// = use this path (empty string = forced off). Guarded by its own mutex
/// because it is written rarely (test setup, binary startup).
static FORCED_PATH: Mutex<Option<String>> = Mutex::new(None);

/// Cached enablement: 0 = unknown (recompute), 1 = disabled, 2 = enabled.
/// Lets [`enabled`] stay a single relaxed load on the hot path.
static ENABLED_CACHE: AtomicU8 = AtomicU8::new(0);

/// Strictly increasing per-process line counter.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-kind counts of emitted (non-inert) ledger events. Long-running
/// services surface these through their metrics endpoint so an operator can
/// see how many `link`/`drift`/`warn` lines the ledger accumulated without
/// tailing the file.
static COUNTS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// The open sink, if any. `Option` so a failed open (or a disable) can
/// park the writer without poisoning future runs.
static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

thread_local! {
    /// The request trace id bound to this thread, if any; every event
    /// emitted while it is set carries a `"trace_id"` field.
    static TRACE_ID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// RAII binding of a trace id to the current thread (see [`trace_scope`]).
/// Dropping it restores whatever id was bound before — scopes nest.
#[derive(Debug)]
#[must_use = "the trace id unbinds when this scope drops"]
pub struct TraceScope {
    prev: Option<u64>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        TRACE_ID.with(|c| c.set(self.prev));
    }
}

/// Binds `id` as the current thread's trace id until the returned scope
/// drops. While bound, every ledger line emitted from this thread gains a
/// `"trace_id": id` field, which is how a served request's `link` /
/// `drift` / `warn` events become joinable with its HTTP response and
/// `/metrics` span paths. Ids come from a deterministic request counter,
/// never a clock, so ledgers stay byte-identical across identical runs.
///
/// The binding is thread-local: work handed to other threads (e.g. a
/// parallel scoring pool) is not tagged — only events emitted from the
/// request's own thread are.
///
/// # Examples
///
/// ```
/// use adamel_obs::runlog;
///
/// runlog::set_forced_path(Some("")); // disabled: emit is inert either way
/// {
///     let _t = runlog::trace_scope(7);
///     assert_eq!(runlog::current_trace_id(), Some(7));
///     runlog::event("link").int("scored", 3).emit();
/// }
/// assert_eq!(runlog::current_trace_id(), None);
/// runlog::set_forced_path(None);
/// ```
pub fn trace_scope(id: u64) -> TraceScope {
    let prev = TRACE_ID.with(|c| c.replace(Some(id)));
    TraceScope { prev }
}

/// The trace id currently bound to this thread, if any.
pub fn current_trace_id() -> Option<u64> {
    TRACE_ID.with(Cell::get)
}

/// `ADAMEL_RUNLOG` read once per process; empty counts as unset.
fn env_path() -> Option<&'static str> {
    static PATH: OnceLock<Option<String>> = OnceLock::new();
    PATH.get_or_init(|| std::env::var("ADAMEL_RUNLOG").ok().filter(|p| !p.is_empty())).as_deref()
}

/// The currently configured ledger path, if any.
fn current_path() -> Option<String> {
    let forced = lock(&FORCED_PATH);
    match forced.as_ref() {
        Some(p) if p.is_empty() => None,
        Some(p) => Some(p.clone()),
        None => env_path().map(str::to_string),
    }
}

/// Forces the ledger destination (`Some(path)`), forces it off
/// (`Some("")`), or restores the `ADAMEL_RUNLOG` environment default
/// (`None`). Process-global, like [`crate::set_forced`]; intended for
/// binaries taking a `--out` flag and for tests, where mutating the
/// environment would race the shared test process.
///
/// Switching paths flushes and closes any open sink; the next emitted
/// event opens the new one. The sequence counter keeps counting across
/// switches (it is per-process, not per-file).
///
/// # Examples
///
/// ```
/// use adamel_obs::runlog;
///
/// runlog::set_forced_path(Some("")); // forced off
/// assert!(!runlog::enabled());
/// runlog::set_forced_path(None); // back to ADAMEL_RUNLOG
/// ```
pub fn set_forced_path(path: Option<&str>) {
    {
        let mut forced = lock(&FORCED_PATH);
        *forced = path.map(str::to_string);
    }
    // Close the old sink (flushing it) and invalidate the cache.
    let old = lock(&SINK).take();
    if let Some(mut w) = old {
        let _ = w.flush();
    }
    ENABLED_CACHE.store(0, Ordering::Relaxed);
}

/// True when a ledger destination is configured. One relaxed atomic load
/// after the first call; instrumented code uses this to skip *computing*
/// ledger-only values (e.g. attention entropy) when no one is listening.
///
/// # Examples
///
/// ```
/// use adamel_obs::runlog;
///
/// runlog::set_forced_path(Some(""));
/// assert!(!runlog::enabled());
/// runlog::set_forced_path(None);
/// ```
#[inline]
pub fn enabled() -> bool {
    // Same contract as `level()`: without the `capture` feature the whole
    // layer (ledger included) compiles down to constant falsehood.
    if cfg!(not(feature = "capture")) {
        return false;
    }
    match ENABLED_CACHE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = current_path().is_some();
            ENABLED_CACHE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Writes one finished line to the sink, opening it on first use. On any
/// I/O error the ledger disables itself for the rest of the process (one
/// stderr note, no panic) — observability must never take the run down.
fn write_line(line: &str) {
    let mut sink = lock(&SINK);
    if sink.is_none() {
        let Some(path) = current_path() else {
            return;
        };
        match File::create(&path) {
            Ok(f) => *sink = Some(BufWriter::new(f)),
            Err(e) => {
                eprintln!("adamel-obs: cannot open run ledger {path}: {e}; disabling");
                ENABLED_CACHE.store(1, Ordering::Relaxed);
                return;
            }
        }
    }
    if let Some(w) = sink.as_mut() {
        // Events are low-frequency (per epoch / per link batch), so flush
        // each line: the ledger stays complete even when the process exits
        // without calling [`flush`] (statics are never dropped).
        if writeln!(w, "{line}").and_then(|()| w.flush()).is_err() {
            eprintln!("adamel-obs: run ledger write failed; disabling");
            *sink = None;
            ENABLED_CACHE.store(1, Ordering::Relaxed);
        }
    }
}

/// Flushes the sink to disk. Every emitted line is already flushed
/// eagerly (events are low-frequency), so this mainly exists for tests
/// and readers that want an explicit synchronization point.
///
/// # Examples
///
/// ```
/// adamel_obs::runlog::flush(); // harmless when no ledger is open
/// ```
pub fn flush() {
    let mut sink = lock(&SINK);
    if let Some(w) = sink.as_mut() {
        if w.flush().is_err() {
            eprintln!("adamel-obs: run ledger flush failed; disabling");
            *sink = None;
            ENABLED_CACHE.store(1, Ordering::Relaxed);
        }
    }
}

/// Starts a ledger line of the given event kind. When the ledger is
/// disabled the returned builder is inert: every field call is a no-op
/// and [`EventBuilder::emit`] does nothing.
///
/// # Examples
///
/// ```
/// use adamel_obs::runlog;
///
/// runlog::set_forced_path(Some("")); // disabled: builder is inert
/// runlog::event("metric")
///     .str("name", "pr_auc")
///     .num("value", 0.93)
///     .flag("higher_is_better", true)
///     .emit();
/// runlog::set_forced_path(None);
/// ```
pub fn event(kind: &str) -> EventBuilder {
    if !enabled() {
        return EventBuilder { buf: None, kind: String::new() };
    }
    let kind_owned = kind.to_string();
    let mut buf = String::with_capacity(160);
    buf.push_str("{\"schema\": \"");
    buf.push_str(SCHEMA);
    buf.push_str("\", \"event\": \"");
    buf.push_str(&json::escape(kind));
    buf.push('"');
    EventBuilder { buf: Some(buf), kind: kind_owned }
}

/// Per-kind counts of ledger events emitted so far in this process, in
/// kind order. Inert emits (ledger disabled) are not counted. Counts keep
/// accumulating across [`set_forced_path`] switches, like the private
/// per-process sequence counter.
///
/// # Examples
///
/// ```
/// use adamel_obs::runlog;
///
/// runlog::set_forced_path(Some("")); // disabled: inert emits are not counted
/// runlog::event("doctest_only_kind").num("loss", 0.5).emit();
/// assert!(runlog::event_counts().iter().all(|(k, _)| k != "doctest_only_kind"));
/// runlog::set_forced_path(None);
/// ```
pub fn event_counts() -> Vec<(String, u64)> {
    lock(&COUNTS).iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Builder for one ledger line. Field methods append `"key": value`
/// members; [`emit`](Self::emit) stamps the sequence number and writes
/// the line. All methods are no-ops on an inert builder (ledger
/// disabled). Keys are emitted in call order; callers keep key sets
/// stable per event kind so identical runs produce identical bytes.
#[must_use = "an un-emitted event is silently dropped"]
pub struct EventBuilder {
    buf: Option<String>,
    kind: String,
}

impl EventBuilder {
    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            buf.push_str(", \"");
            buf.push_str(&json::escape(key));
            buf.push_str("\": \"");
            buf.push_str(&json::escape(value));
            buf.push('"');
        }
        self
    }

    /// Appends a numeric field (non-finite values serialize as `null`).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            buf.push_str(", \"");
            buf.push_str(&json::escape(key));
            buf.push_str("\": ");
            buf.push_str(&json::fmt_f64(value));
        }
        self
    }

    /// Appends an unsigned integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            buf.push_str(", \"");
            buf.push_str(&json::escape(key));
            buf.push_str("\": ");
            buf.push_str(&value.to_string());
        }
        self
    }

    /// Appends a boolean field.
    pub fn flag(mut self, key: &str, value: bool) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            buf.push_str(", \"");
            buf.push_str(&json::escape(key));
            buf.push_str("\": ");
            buf.push_str(if value { "true" } else { "false" });
        }
        self
    }

    /// Appends a field whose value is `raw`, already-valid JSON (an
    /// array or object built by the caller). The caller must ensure
    /// `raw` is a single-line JSON value; newlines would break the
    /// one-event-per-line framing.
    pub fn raw(mut self, key: &str, raw: &str) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            buf.push_str(", \"");
            buf.push_str(&json::escape(key));
            buf.push_str("\": ");
            buf.push_str(raw);
        }
        self
    }

    /// Appends an array-of-strings field.
    pub fn str_list(mut self, key: &str, values: &[String]) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            buf.push_str(", \"");
            buf.push_str(&json::escape(key));
            buf.push_str("\": [");
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    buf.push_str(", ");
                }
                buf.push('"');
                buf.push_str(&json::escape(v));
                buf.push('"');
            }
            buf.push(']');
        }
        self
    }

    /// Stamps the thread's trace id (when one is bound — see
    /// [`trace_scope`]) and the sequence number, then writes the line to
    /// the ledger. No-op when the ledger is disabled.
    pub fn emit(self) {
        if let Some(mut buf) = self.buf {
            if let Some(id) = current_trace_id() {
                buf.push_str(", \"trace_id\": ");
                buf.push_str(&id.to_string());
            }
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            buf.push_str(", \"seq\": ");
            buf.push_str(&seq.to_string());
            buf.push('}');
            write_line(&buf);
            *lock(&COUNTS).entry(self.kind).or_insert(0) += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn tmp_path(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("adamel_runlog_unit_{name}_{}.jsonl", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn disabled_builder_is_inert() {
        let _guard = crate::test_lock();
        set_forced_path(Some(""));
        assert!(!enabled());
        let seq_before = SEQ.load(Ordering::Relaxed);
        event("epoch").num("loss", 0.5).int("epoch", 1).emit();
        assert_eq!(SEQ.load(Ordering::Relaxed), seq_before, "inert emit must not bump seq");
        set_forced_path(None);
    }

    #[test]
    fn events_are_parseable_jsonl_with_increasing_seq() {
        let _guard = crate::test_lock();
        let path = tmp_path("basic");
        set_forced_path(Some(&path));
        assert!(enabled());
        event("manifest").str("variant", "hyb").int("seed", 7).emit();
        event("epoch")
            .int("epoch", 0)
            .num("loss", 0.75)
            .num("bad", f64::NAN)
            .flag("ok", true)
            .str_list("attrs", &["a".into(), "b\"c".into()])
            .emit();
        flush();
        set_forced_path(Some(""));

        let text = std::fs::read_to_string(&path).expect("ledger readable");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let mut prev_seq = None;
        for line in &lines {
            let v = Json::parse(line).expect("line parses");
            assert_eq!(v.get("schema").and_then(Json::as_str), Some(SCHEMA));
            let seq = v.get("seq").and_then(Json::as_u64).expect("seq present");
            if let Some(p) = prev_seq {
                assert!(seq > p, "seq must increase");
            }
            prev_seq = Some(seq);
        }
        let epoch = Json::parse(lines[1]).expect("parses");
        assert_eq!(epoch.get("event").and_then(Json::as_str), Some("epoch"));
        assert_eq!(epoch.get("loss").and_then(Json::as_f64), Some(0.75));
        assert_eq!(epoch.get("bad"), Some(&Json::Null));
        assert_eq!(epoch.get("ok").and_then(Json::as_bool), Some(true));
        let attrs = epoch.get("attrs").and_then(Json::as_array).expect("attrs");
        assert_eq!(attrs[1].as_str(), Some("b\"c"));

        let _ = std::fs::remove_file(&path);
        set_forced_path(None);
    }

    #[test]
    fn switching_paths_flushes_and_reopens() {
        let _guard = crate::test_lock();
        let a = tmp_path("switch_a");
        let b = tmp_path("switch_b");
        set_forced_path(Some(&a));
        event("metric").str("name", "f1").num("value", 0.5).emit();
        set_forced_path(Some(&b)); // closes + flushes a
        event("metric").str("name", "f1").num("value", 0.6).emit();
        flush();
        set_forced_path(Some(""));

        let ta = std::fs::read_to_string(&a).expect("a readable");
        let tb = std::fs::read_to_string(&b).expect("b readable");
        assert!(ta.contains("0.5") && !ta.contains("0.6"));
        assert!(tb.contains("0.6") && !tb.contains("0.5"));
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
        set_forced_path(None);
    }

    #[test]
    fn event_counts_track_emitted_kinds_only() {
        let _guard = crate::test_lock();
        let path = tmp_path("counts");
        set_forced_path(Some(&path));
        let before = event_counts()
            .into_iter()
            .find(|(k, _)| k == "counts_probe")
            .map(|(_, n)| n)
            .unwrap_or(0);
        event("counts_probe").int("x", 1).emit();
        event("counts_probe").int("x", 2).emit();
        set_forced_path(Some(""));
        event("counts_probe").int("x", 3).emit(); // inert: must not count
        let after = event_counts()
            .into_iter()
            .find(|(k, _)| k == "counts_probe")
            .map(|(_, n)| n)
            .unwrap_or(0);
        assert_eq!(after - before, 2);
        let _ = std::fs::remove_file(&path);
        set_forced_path(None);
    }

    #[test]
    fn trace_scope_tags_events_and_nests() {
        let _guard = crate::test_lock();
        let path = tmp_path("trace");
        set_forced_path(Some(&path));
        event("link").int("scored", 1).emit(); // no scope: no trace_id
        {
            let _outer = trace_scope(41);
            {
                let _inner = trace_scope(42);
                event("link").int("scored", 2).emit();
            }
            event("drift").str("source", "s").emit(); // back to outer id
        }
        assert_eq!(current_trace_id(), None);
        flush();
        set_forced_path(Some(""));

        let text = std::fs::read_to_string(&path).expect("ledger readable");
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).expect("line parses")).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].get("trace_id"), None);
        assert_eq!(lines[1].get("trace_id").and_then(Json::as_u64), Some(42));
        assert_eq!(lines[2].get("trace_id").and_then(Json::as_u64), Some(41));
        let _ = std::fs::remove_file(&path);
        set_forced_path(None);
    }

    #[test]
    fn unopenable_path_disables_without_panicking() {
        let _guard = crate::test_lock();
        set_forced_path(Some("/nonexistent-dir-adamel/ledger.jsonl"));
        assert!(enabled(), "path configured, not yet probed");
        event("metric").str("name", "x").emit(); // open fails, disables
        assert!(!enabled(), "failed open must disable the ledger");
        set_forced_path(None);
    }
}
