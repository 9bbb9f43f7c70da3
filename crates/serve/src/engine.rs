//! The serving engine: incremental corpus, hot-swappable model, live drift
//! monitoring, and serve-level counters — everything below the HTTP layer.
//!
//! ## Bit-identity with the offline pipeline
//!
//! [`Engine::link`] probes the incremental
//! [`adamel_schema::LiveIndex`] for candidate keys, fetches those records
//! from it, and routes them through
//! [`Linker::score_candidates`](adamel::Linker::score_candidates) — the
//! literal second half of `Linker::link`. `LiveIndex` and the batch
//! `BlockingIndex` call one ranking (`Postings::rank` in
//! `adamel_schema::blocking`), by `(shared-token count desc, id asc)`.
//! The id is the record key here and the position offline, and in the
//! key-ordered corpus snapshot key order is position order, so both paths
//! build the same pairs in the same order, and downstream run the same
//! code. A served batch is
//! bit-identical to `Linker::link(queries, &corpus_snapshot)` — asserted
//! in `tests/churn_link.rs` under churn and in `tests/end_to_end.rs` over
//! sockets.
//!
//! ## Hot-swap atomicity
//!
//! The live [`Linker`] sits behind `RwLock<Arc<Linker>>`. Requests clone
//! the `Arc` out of the read lock and score against that clone; a swap
//! replaces the `Arc` under the write lock. No request ever observes half
//! a model, and in-flight batches finish on the model they started with
//! (DESIGN.md §16 gives the full argument).
//!
//! ## Live drift
//!
//! When configured, every link batch is handed to the [`DriftMonitor`]
//! together with the scores and attention rows of the forward pass that
//! scored it, so drift runs no model work of its own: per-source C1/C2/C3,
//! attention-shift, and calibration signals become `drift`/`warn`
//! run-ledger events. A sliding
//! window over query sources raises `readapt_recommended` once traffic
//! from sources unseen in training dominates — the operational signal that
//! an AdaMEL-zero re-adaptation pass is warranted.

use crate::api::{HealthResponse, LinkMatch};
use adamel::{AdamelModel, DriftBaseline, DriftMonitor, DriftThresholds, Linker, ScoredPairs};
use adamel_obs::json;
use adamel_schema::{LiveIndex, Record, RecordKey, SourceId};
use adamel_tensor::parallel;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Live drift-monitoring configuration.
#[derive(Debug)]
pub struct DriftConfig {
    /// Warning thresholds for the C1/C2/C3 + attention + calibration
    /// signals.
    pub thresholds: DriftThresholds,
    /// Frozen training-time baseline. When `None`, the baseline is frozen
    /// from the **first served batch** — convenient, but biased: signals
    /// then measure drift relative to early traffic rather than training
    /// data, so a fleet that starts degraded reads as healthy. Prefer
    /// shipping a training-time baseline (DESIGN.md §16).
    pub baseline: Option<DriftBaseline>,
    /// Sources that participated in training. Queries from any other
    /// source count toward unseen-source dominance.
    pub seen_sources: BTreeSet<u32>,
    /// Sliding-window length (in query records) for the unseen-source
    /// dominance hook. Floored at 1.
    pub dominance_window: usize,
    /// Unseen-source share of the window above which
    /// `readapt_recommended` latches.
    pub dominance_threshold: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            thresholds: DriftThresholds::default(),
            baseline: None,
            seen_sources: BTreeSet::new(),
            dominance_window: 1024,
            dominance_threshold: 0.5,
        }
    }
}

/// Engine construction options.
#[derive(Debug, Default)]
pub struct EngineConfig {
    /// Live drift monitoring; `None` disables it.
    pub drift: Option<DriftConfig>,
    /// Thread-count override for scoring (0 = the parallel runtime's
    /// normal policy). The runtime is bit-identical at any thread count,
    /// so this only trades latency against interference between
    /// concurrent requests.
    pub compute_threads: usize,
}

/// Result of one [`Engine::link`] batch.
#[derive(Debug, Clone)]
pub struct LinkOutcome {
    /// Accepted matches, sorted by descending score (ties broken exactly
    /// as the offline pipeline breaks them).
    pub matches: Vec<LinkMatch>,
    /// Candidate pairs generated by blocking.
    pub candidates: usize,
    /// Records in the corpus when the batch's candidates were probed.
    pub corpus_records: usize,
}

struct DriftState {
    monitor: Option<Arc<DriftMonitor>>,
    thresholds: DriftThresholds,
    seen_sources: BTreeSet<u32>,
    window: VecDeque<u32>,
    window_cap: usize,
    dominance_threshold: f64,
    readapt_recommended: bool,
    readapt_emitted: bool,
}

#[derive(Debug, Default)]
struct Counters {
    requests_total: AtomicU64,
    rejected_busy: AtomicU64,
    upserts: AtomicU64,
    deletes: AtomicU64,
    link_batches: AtomicU64,
    pairs_scored: AtomicU64,
    matches: AtomicU64,
    model_swaps: AtomicU64,
    drift_events: AtomicU64,
    drift_warnings: AtomicU64,
    panics: AtomicU64,
}

/// The serving engine shared by every worker thread.
pub struct Engine {
    linker: RwLock<Arc<Linker>>,
    model_version: AtomicU64,
    corpus: Mutex<LiveIndex>,
    drift: Option<Mutex<DriftState>>,
    readapt: AtomicBool,
    compute_threads: usize,
    counters: Counters,
    /// Monotone request-trace counter. Ids are minted from arrival order,
    /// never a clock, so a replayed request sequence reproduces the same
    /// ids — trace correlation stays inside the determinism contract.
    trace_seq: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Engine {
    /// Wraps a trained linker. The incremental index blocks on the same
    /// attributes as the linker's configuration, which is what keeps the
    /// served candidates identical to the offline `BlockingIndex`.
    pub fn new(linker: Linker, cfg: EngineConfig) -> Self {
        let index = LiveIndex::new(linker.config().block_attrs.clone());
        let drift = cfg.drift.map(|d| {
            Mutex::new(DriftState {
                monitor: d
                    .baseline
                    .map(|b| Arc::new(DriftMonitor::with_thresholds(b, d.thresholds.clone()))),
                thresholds: d.thresholds,
                seen_sources: d.seen_sources,
                window: VecDeque::new(),
                window_cap: d.dominance_window.max(1),
                dominance_threshold: d.dominance_threshold,
                readapt_recommended: false,
                readapt_emitted: false,
            })
        });
        Self {
            linker: RwLock::new(Arc::new(linker)),
            model_version: AtomicU64::new(1),
            corpus: Mutex::new(index),
            drift,
            readapt: AtomicBool::new(false),
            compute_threads: cfg.compute_threads,
            counters: Counters::default(),
            trace_seq: AtomicU64::new(0),
        }
    }

    /// Mints the next request-scoped trace id (1, 2, 3, … in arrival
    /// order). The id tags the request's runlog events, its `req.{id}`
    /// op span, and the `/link` response summary, so one request can be
    /// joined across all three surfaces.
    pub fn next_trace_id(&self) -> u64 {
        self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn current_linker(&self) -> Arc<Linker> {
        match self.linker.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Upserts records into the corpus; returns `(inserted, replaced)`.
    pub fn upsert(&self, records: Vec<Record>) -> (usize, usize) {
        let mut corpus = lock(&self.corpus);
        let (mut inserted, mut replaced) = (0usize, 0usize);
        for rec in records {
            if corpus.upsert(rec) {
                replaced += 1;
            } else {
                inserted += 1;
            }
        }
        drop(corpus);
        self.counters.upserts.fetch_add((inserted + replaced) as u64, Ordering::Relaxed);
        (inserted, replaced)
    }

    /// Deletes records by key; returns how many existed.
    pub fn delete(&self, keys: &[RecordKey]) -> usize {
        let mut corpus = lock(&self.corpus);
        let removed = keys.iter().filter(|(s, id)| corpus.delete(*s, *id)).count();
        drop(corpus);
        self.counters.deletes.fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Records currently in the corpus.
    pub fn corpus_len(&self) -> usize {
        lock(&self.corpus).len()
    }

    /// Blocks and scores `queries` against the current corpus.
    ///
    /// Candidate generation happens under the corpus lock: index probes,
    /// and one clone of each distinct candidate record. Scoring happens
    /// outside every lock, on those clones and an `Arc` clone of the
    /// linker, so upserts, deletes, and model swaps proceed concurrently
    /// without affecting this batch.
    pub fn link(&self, queries: &[Record]) -> LinkOutcome {
        let linker = self.current_linker();
        let limit = linker.config().max_candidates_per_record;
        // A record that is a candidate of several queries is cloned once
        // and keeps one index into `right`, as it has one position in the
        // offline pipeline's corpus (the one-to-one reduction relies on it).
        let mut right: Vec<Record> = Vec::new();
        let mut slots: BTreeMap<RecordKey, usize> = BTreeMap::new();
        let corpus = lock(&self.corpus);
        let per_query: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| {
                corpus
                    .candidates(q, limit)
                    .into_iter()
                    .filter_map(|key| match slots.entry(key) {
                        Entry::Occupied(slot) => Some(*slot.get()),
                        Entry::Vacant(slot) => {
                            right.push(corpus.get(key.0, key.1)?.clone());
                            Some(*slot.insert(right.len() - 1))
                        }
                    })
                    .collect()
            })
            .collect();
        let corpus_records = corpus.len();
        drop(corpus);

        let candidates: usize = per_query.iter().map(Vec::len).sum();
        let (results, batch) = if self.compute_threads > 0 {
            parallel::with_threads(self.compute_threads, || {
                linker.score_candidates(queries, &right, &per_query)
            })
        } else {
            linker.score_candidates(queries, &right, &per_query)
        };

        let matches: Vec<LinkMatch> = results
            .into_iter()
            .filter_map(|m| {
                let r = right.get(m.right)?;
                let SourceId(source) = r.source;
                Some(LinkMatch { query: m.left, source, entity_id: r.entity_id, score: m.score })
            })
            .collect();

        self.counters.link_batches.fetch_add(1, Ordering::Relaxed);
        self.counters.pairs_scored.fetch_add(candidates as u64, Ordering::Relaxed);
        self.counters.matches.fetch_add(matches.len() as u64, Ordering::Relaxed);

        self.observe_drift(queries, &batch, &linker);

        // The encoding cache keeps every record it has encoded, so under
        // churn it fills with listings since revised or deleted. Once it
        // holds more than twice the records a batch can draw on, start it
        // cold: scores are unchanged (it only memoizes), and refilling costs
        // at most one encode per record encoded since the last clear.
        let model = linker.model();
        let live = (corpus_records + queries.len()) as u64;
        if model.encode_cache_stats().distinct_records > 2 * live {
            model.clear_encode_cache();
        }

        LinkOutcome { matches, candidates, corpus_records }
    }

    /// Drift bookkeeping for one served batch: `batch` holds the pairs the
    /// linker scored with their scores and attention rows. Window updates
    /// happen under the drift lock; the baseline build and the assessment
    /// run on `Arc` clones **outside** it.
    fn observe_drift(&self, queries: &[Record], batch: &ScoredPairs, linker: &Linker) {
        let Some(drift) = &self.drift else { return };
        if queries.is_empty() {
            return;
        }

        let mut st = lock(drift);
        for q in queries {
            if st.window.len() == st.window_cap {
                st.window.pop_front();
            }
            let SourceId(s) = q.source;
            st.window.push_back(s);
        }
        let unseen = st.window.iter().filter(|s| !st.seen_sources.contains(s)).count();
        let share = unseen as f64 / st.window.len().max(1) as f64;
        let window_full = st.window.len() == st.window_cap;
        if window_full && share > st.dominance_threshold && !st.readapt_recommended {
            st.readapt_recommended = true;
            self.readapt.store(true, Ordering::Relaxed);
        }
        let emit_readapt = st.readapt_recommended && !st.readapt_emitted;
        if emit_readapt {
            st.readapt_emitted = true;
        }
        let needs_baseline = st.monitor.is_none() && !batch.pairs.is_empty();
        let thresholds = st.thresholds.clone();
        let mut monitor = st.monitor.clone();
        let threshold = st.dominance_threshold;
        drop(st);

        let schema = linker.model().extractor().schema();
        if needs_baseline {
            // First-batch freeze (see DriftConfig::baseline for the bias
            // this carries), built with no guard held; if two batches race
            // here, the first install wins.
            let baseline = DriftBaseline::build_with_pool(schema, batch, queries);
            let built = Arc::new(DriftMonitor::with_thresholds(baseline, thresholds));
            let mut st = lock(drift);
            let installed = Arc::clone(st.monitor.get_or_insert(built));
            drop(st);
            monitor.get_or_insert(installed);
        }

        if emit_readapt {
            adamel_obs::runlog::event("readapt")
                .num("unseen_share", share)
                .num("threshold", threshold)
                .int("window", unseen as u64)
                .flag("recommended", true)
                .emit();
        }
        if let Some(monitor) = monitor {
            if !batch.pairs.is_empty() {
                let assessments = monitor.assess(schema, batch);
                let warnings: usize = assessments.iter().map(|a| a.warnings.len()).sum();
                for a in &assessments {
                    a.emit_runlog();
                }
                self.counters.drift_events.fetch_add(assessments.len() as u64, Ordering::Relaxed);
                self.counters.drift_warnings.fetch_add(warnings as u64, Ordering::Relaxed);
            }
        }
    }

    /// Atomically replaces the model. The new model must share the current
    /// model's schema — the corpus index and its blocking attributes stay;
    /// a schema change is a redeploy, not a swap.
    pub fn swap_model(&self, model: AdamelModel) -> Result<u64, String> {
        let current = self.current_linker();
        if model.extractor().schema() != current.model().extractor().schema() {
            return Err("snapshot schema differs from the serving schema".to_string());
        }
        let next = Arc::new(Linker::new(model, current.config().clone()));
        match self.linker.write() {
            Ok(mut g) => *g = next,
            Err(poisoned) => *poisoned.into_inner() = next,
        }
        let version = self.model_version.fetch_add(1, Ordering::Relaxed) + 1;
        self.counters.model_swaps.fetch_add(1, Ordering::Relaxed);
        adamel_obs::runlog::event("model_swap").int("version", version).emit();
        Ok(version)
    }

    /// The monotone model version (1 at boot, +1 per successful swap).
    pub fn model_version(&self) -> u64 {
        self.model_version.load(Ordering::Relaxed)
    }

    /// Notes one accepted request (server bookkeeping).
    pub fn note_request(&self) {
        self.counters.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one backpressure rejection (server bookkeeping).
    pub fn note_rejected(&self) {
        self.counters.rejected_busy.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one request whose handler panicked, with the panic message
    /// as a runlog `error` event (server bookkeeping).
    pub fn note_panic(&self, message: &str) {
        self.counters.panics.fetch_add(1, Ordering::Relaxed);
        adamel_obs::runlog::event("error").str("panic", message).emit();
    }

    /// The `GET /healthz` view, with the server's configured and running
    /// worker counts.
    pub fn health(&self, workers: usize, workers_live: usize) -> HealthResponse {
        HealthResponse {
            status: "ok".to_string(),
            model_version: self.model_version(),
            records: self.corpus_len(),
            readapt_recommended: self.readapt.load(Ordering::Relaxed),
            workers,
            workers_live,
        }
    }

    /// The `GET /metrics` document: serve counters, run-ledger event
    /// counts, drift status, and the embedded `adamel-obs` span report.
    pub fn metrics_json(&self, queue_len: usize, queue_capacity: usize) -> String {
        let c = &self.counters;
        let mut out = String::from("{\"schema\": \"adamel-serve-metrics/v1\"");
        out.push_str(&format!(", \"model_version\": {}", self.model_version()));
        out.push_str(&format!(", \"records\": {}", self.corpus_len()));
        out.push_str(&format!(
            ", \"queue\": {{\"len\": {queue_len}, \"capacity\": {queue_capacity}}}"
        ));
        out.push_str(", \"counters\": {");
        let counters: [(&str, u64); 11] = [
            ("requests_total", c.requests_total.load(Ordering::Relaxed)),
            ("rejected_busy", c.rejected_busy.load(Ordering::Relaxed)),
            ("upserts", c.upserts.load(Ordering::Relaxed)),
            ("deletes", c.deletes.load(Ordering::Relaxed)),
            ("link_batches", c.link_batches.load(Ordering::Relaxed)),
            ("pairs_scored", c.pairs_scored.load(Ordering::Relaxed)),
            ("matches", c.matches.load(Ordering::Relaxed)),
            ("model_swaps", c.model_swaps.load(Ordering::Relaxed)),
            ("drift_events", c.drift_events.load(Ordering::Relaxed)),
            ("drift_warnings", c.drift_warnings.load(Ordering::Relaxed)),
            ("panics", c.panics.load(Ordering::Relaxed)),
        ];
        for (i, (name, v)) in counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {v}"));
        }
        out.push('}');
        out.push_str(", \"runlog_events\": {");
        for (i, (kind, n)) in adamel_obs::runlog::event_counts().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {n}", json::escape(kind)));
        }
        out.push('}');
        let (enabled, readapt) = (self.drift.is_some(), self.readapt.load(Ordering::Relaxed));
        out.push_str(&format!(
            ", \"drift\": {{\"enabled\": {enabled}, \"readapt_recommended\": {readapt}}}"
        ));
        // Per-endpoint latency histograms: the top-level `serve.*` spans
        // opened around `route()` (nested `req.N` op spans stay in the
        // full obs report below). Empty object when tracing is off.
        out.push_str(", \"endpoints\": {");
        let endpoints = adamel_obs::report::spans_with_prefix("serve.");
        let mut first = true;
        for (path, span_json) in &endpoints {
            if path.contains('/') {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{}\": {span_json}", json::escape(path)));
        }
        out.push('}');
        out.push_str(&format!(", \"obs\": {}", adamel_obs::report::render_json()));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamel::config::{AdamelConfig, Variant};
    use adamel::train::fit;
    use adamel::LinkerConfig;
    use adamel_schema::{Domain, EntityPair, Schema};

    fn rec(source: u32, id: u64, name: &str) -> Record {
        let mut r = Record::new(SourceId(source), id);
        r.set("name", name);
        r
    }

    fn trained_model() -> AdamelModel {
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
        model
    }

    fn trained_linker() -> Linker {
        Linker::new(trained_model(), LinkerConfig::default())
    }

    fn corpus() -> Vec<Record> {
        vec![
            rec(1, 10, "alpha beta"),
            rec(1, 11, "gamma delta"),
            rec(1, 12, "epsilon zeta"),
            rec(2, 20, "alpha gamma"),
        ]
    }

    #[test]
    fn link_is_bit_identical_to_offline_pipeline() {
        let linker = trained_linker();
        let offline = trained_linker();
        let engine = Engine::new(linker, EngineConfig::default());
        // Upsert in key order so the key-ordered corpus is this vec verbatim.
        engine.upsert(corpus());
        let queries = vec![rec(9, 1, "alpha beta"), rec(9, 2, "gamma delta")];

        let served = engine.link(&queries);
        let reference = offline.link(&queries, &corpus());

        assert!(!served.matches.is_empty());
        assert_eq!(served.matches.len(), reference.len());
        let right = corpus();
        for (s, r) in served.matches.iter().zip(reference.iter()) {
            assert_eq!(s.query, r.left);
            let expect = &right[r.right];
            assert_eq!((SourceId(s.source), s.entity_id), (expect.source, expect.entity_id));
            assert_eq!(s.score.to_bits(), r.score.to_bits(), "bitwise score mismatch");
        }
    }

    #[test]
    fn encoding_cache_stays_within_twice_the_live_records() {
        let engine = Engine::new(trained_linker(), EngineConfig::default());
        let offline = trained_linker();
        engine.upsert(corpus());
        let (mut previous, mut clears) = (0, 0);
        for i in 0..30u64 {
            // Every query is content the cache has not seen.
            let queries = vec![rec(9, i, &format!("alpha beta q{i}"))];
            let served = engine.link(&queries);
            let cached = engine.current_linker().model().encode_cache_stats().distinct_records;
            assert!(cached <= 2 * (corpus().len() + queries.len()) as u64, "link {i}: {cached}");
            clears += usize::from(cached < previous);
            previous = cached;

            let reference = offline.link(&queries, &corpus());
            let right = corpus();
            let expect: Vec<_> = reference
                .iter()
                .map(|m| (m.left, right[m.right].entity_id, m.score.to_bits()))
                .collect();
            let got: Vec<_> =
                served.matches.iter().map(|m| (m.query, m.entity_id, m.score.to_bits())).collect();
            assert_eq!(got, expect, "link {i}");
        }
        assert!(clears >= 2, "the cache was cleared {clears} times");
    }

    #[test]
    fn deletes_shrink_the_snapshot_and_swaps_bump_the_version() {
        let engine = Engine::new(trained_linker(), EngineConfig::default());
        let (ins, rep) = engine.upsert(corpus());
        assert_eq!((ins, rep), (4, 0));
        assert_eq!(engine.delete(&[(SourceId(2), 20), (SourceId(2), 999)]), 1);
        assert_eq!(engine.corpus_len(), 3);

        assert_eq!(engine.model_version(), 1);
        let version = engine.swap_model(trained_model()).expect("same schema swaps");
        assert_eq!(version, 2);

        let other_schema = Schema::new(vec!["title".into()]);
        let mismatched = AdamelModel::new(AdamelConfig::tiny(), other_schema);
        assert!(engine.swap_model(mismatched).is_err());
        assert_eq!(engine.model_version(), 2);
    }

    #[test]
    fn unseen_source_dominance_latches_readapt() {
        let drift = DriftConfig {
            seen_sources: [0u32, 1].into_iter().collect(),
            dominance_window: 4,
            dominance_threshold: 0.5,
            ..Default::default()
        };
        let engine =
            Engine::new(trained_linker(), EngineConfig { drift: Some(drift), compute_threads: 0 });
        engine.upsert(corpus());
        assert!(!engine.health(1, 1).readapt_recommended);
        // Six queries from source 77 (never seen in training) fill the
        // window past the dominance threshold.
        for i in 0..6 {
            engine.link(&[rec(77, i, "alpha beta")]);
        }
        assert!(engine.health(1, 1).readapt_recommended);
    }

    #[test]
    fn metrics_json_parses_and_carries_counters() {
        let engine = Engine::new(trained_linker(), EngineConfig::default());
        engine.upsert(corpus());
        engine.note_request();
        engine.link(&[rec(9, 1, "alpha beta")]);
        let doc = engine.metrics_json(0, 64);
        let v = adamel_obs::json::Json::parse(&doc).expect("valid metrics json");
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("adamel-serve-metrics/v1"));
        let counters = v.get("counters").expect("counters object");
        assert_eq!(counters.get("link_batches").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(counters.get("requests_total").and_then(|n| n.as_u64()), Some(1));
        assert!(v.get("obs").is_some());
    }
}
