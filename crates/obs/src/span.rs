//! Hierarchical span timers.
//!
//! Each thread keeps a path string (`"predict/forward/attention_head"`)
//! in thread-local storage. Opening a span appends `/name`, closing it
//! (the guard's `Drop`) records the elapsed nanoseconds into the registry
//! under the full path and truncates the path back. Clock reads —
//! `Instant::now` at open and close — happen only inside this module,
//! which is what keeps the `no-clock-in-compute` lint clean in the
//! instrumented tensor/model crates.
//!
//! Spans opened on worker threads (e.g. inside the scoped-thread runtime)
//! root at their own name rather than under the caller's path: the path
//! stack is thread-local and workers start with it empty. That is by
//! design — per-worker spans aggregate under a stable top-level path
//! instead of an arbitrary parent.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::level::{level, TraceLevel};
use crate::registry::record_span;

thread_local! {
    /// This thread's current span path, `/`-separated, no leading slash.
    static PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Total spans entered process-wide since start (all threads, all levels
/// that were active at entry). Cheap liveness probe for tests asserting
/// that `ADAMEL_TRACE=off` really records nothing.
static SPANS_ENTERED: AtomicU64 = AtomicU64::new(0);

/// Number of spans entered process-wide since the process started. Not
/// reset by [`crate::report::reset`] — it is a lifetime odometer, useful
/// for "did anything record between these two points" assertions.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Off));
/// let before = obs::spans_entered();
/// {
///     let _s = obs::span("invisible"); // off: not counted, not recorded
/// }
/// assert_eq!(obs::spans_entered(), before);
/// obs::set_forced(None);
/// ```
pub fn spans_entered() -> u64 {
    SPANS_ENTERED.load(Ordering::Relaxed)
}

struct ActiveSpan {
    start: Instant,
    /// Length of the thread's path string before this span appended to
    /// it; `Drop` truncates back to this.
    prev_len: usize,
}

/// Guard for an open span; the span closes (and its duration is recorded)
/// when the guard drops. Inert — a no-op `Drop` — when tracing was below
/// the span's level at entry.
///
/// Create via [`span`] / [`op_span`] or the [`crate::trace_span!`] /
/// [`crate::trace_op!`] macros.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// {
///     let _outer = obs::span("encode");
///     let _inner = obs::span("tokenize"); // records as "encode/tokenize"
/// }
/// assert!(obs::report::render_json().contains("encode/tokenize"));
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
#[must_use = "the span closes when this guard drops; binding it to _ closes it immediately"]
pub struct SpanGuard(Option<ActiveSpan>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            // Clamp to u64 (585 years of nanoseconds) rather than panic.
            let nanos = u64::try_from(active.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            PATH.with(|p| {
                let mut path = p.borrow_mut();
                record_span(&path, nanos);
                path.truncate(active.prev_len);
            });
        }
    }
}

fn enter(name: &str) -> SpanGuard {
    SPANS_ENTERED.fetch_add(1, Ordering::Relaxed);
    let prev_len = PATH.with(|p| {
        let mut path = p.borrow_mut();
        let prev_len = path.len();
        if !path.is_empty() {
            path.push('/');
        }
        path.push_str(name);
        prev_len
    });
    SpanGuard(Some(ActiveSpan { start: Instant::now(), prev_len }))
}

/// Opens a coarse span, active at [`TraceLevel::Spans`] and above. When
/// tracing is off the returned guard is inert and the call costs one
/// relaxed atomic load.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// {
///     let _s = obs::span("predict");
/// }
/// assert!(obs::report::render_json().contains("\"predict\""));
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if level() >= TraceLevel::Spans {
        enter(name)
    } else {
        SpanGuard(None)
    }
}

/// Opens a per-tape-op span, active only at [`TraceLevel::Full`]. The
/// autograd tape calls this for every op it records, so `full` traces
/// show where a forward/backward pass spends its time — and `spans`
/// traces skip the per-op overhead entirely.
///
/// # Examples
///
/// ```
/// use adamel_obs as obs;
///
/// obs::set_forced(Some(obs::TraceLevel::Spans));
/// obs::report::reset();
/// {
///     let _s = obs::op_span("matmul"); // below Full: inert
/// }
/// assert!(!obs::report::render_json().contains("matmul"));
/// obs::set_forced(None);
/// obs::report::reset();
/// ```
#[inline]
pub fn op_span(name: &str) -> SpanGuard {
    if level() >= TraceLevel::Full {
        enter(name)
    } else {
        SpanGuard(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::set_forced;
    use crate::registry;

    fn reset_registry() {
        let mut reg = registry::lock();
        reg.spans.clear();
        reg.counters.clear();
        reg.values.clear();
        reg.mem.clear();
    }

    fn span_count(path: &str) -> u64 {
        registry::lock().spans.get(path).map(|h| h.count()).unwrap_or(0)
    }

    #[test]
    fn nested_spans_build_paths_and_unwind() {
        let _guard = crate::test_lock();
        set_forced(Some(TraceLevel::Spans));
        reset_registry();
        {
            let _a = span("a");
            {
                let _b = span("b");
                let _c = span("c");
            }
            // Siblings after unwind land back under "a".
            let _d = span("d");
        }
        assert_eq!(span_count("a"), 1);
        assert_eq!(span_count("a/b"), 1);
        assert_eq!(span_count("a/b/c"), 1);
        assert_eq!(span_count("a/d"), 1);
        // Path fully unwound: a fresh root span has no prefix.
        {
            let _e = span("e");
        }
        assert_eq!(span_count("e"), 1);
        set_forced(None);
        reset_registry();
    }

    #[test]
    fn op_spans_gate_on_full() {
        let _guard = crate::test_lock();
        set_forced(Some(TraceLevel::Spans));
        reset_registry();
        {
            let _op = op_span("op_at_spans");
        }
        assert_eq!(span_count("op_at_spans"), 0);
        set_forced(Some(TraceLevel::Full));
        {
            let _op = op_span("op_at_full");
        }
        assert_eq!(span_count("op_at_full"), 1);
        set_forced(None);
        reset_registry();
    }

    #[test]
    fn off_spans_do_not_touch_path_or_odometer() {
        let _guard = crate::test_lock();
        set_forced(Some(TraceLevel::Off));
        reset_registry();
        let before = spans_entered();
        {
            let _s = span("ghost");
            let _o = op_span("ghost_op");
        }
        assert_eq!(spans_entered(), before);
        assert_eq!(span_count("ghost"), 0);
        // An inert guard must leave the path untouched for later spans.
        set_forced(Some(TraceLevel::Spans));
        {
            let _s = span("after_off");
        }
        assert_eq!(span_count("after_off"), 1);
        set_forced(None);
        reset_registry();
    }

    #[test]
    fn repeated_spans_aggregate_into_one_histogram() {
        let _guard = crate::test_lock();
        set_forced(Some(TraceLevel::Spans));
        reset_registry();
        for _ in 0..10 {
            let _s = span("hot");
        }
        assert_eq!(span_count("hot"), 10);
        set_forced(None);
        reset_registry();
    }
}
