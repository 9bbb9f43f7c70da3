//! End-to-end tests over real sockets: boot the daemon on an ephemeral
//! port, drive it with hand-written HTTP, and hold it to the crate's three
//! load-bearing promises — bit-identity with the offline pipeline, atomic
//! hot-swap under concurrent traffic, and bounded-queue backpressure
//! without deadlock.
//!
//! The run ledger and its event counts are process-global, so the tests
//! serialize on a static lock. Client-side concurrency comes from the
//! workspace parallel runtime (`with_threads` + `parallel_map_collect`),
//! never raw `thread::spawn`.

use adamel::config::{AdamelConfig, Variant};
use adamel::train::fit;
use adamel::{AdamelModel, Linker, LinkerConfig};
use adamel_obs::json::Json;
use adamel_schema::{Domain, EntityPair, Record, RecordKey, Schema, SourceId};
use adamel_serve::{
    DriftConfig, Engine, EngineConfig, RecordLine, Server, ServerConfig, MAX_LINK_QUERIES,
};
use adamel_tensor::parallel;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn rec(source: u32, id: u64, name: &str) -> Record {
    let mut r = Record::new(SourceId(source), id);
    r.set("name", name);
    r
}

fn trained_model_on(names: &[&str]) -> AdamelModel {
    let schema = Schema::new(vec!["name".into()]);
    let mut model = AdamelModel::new(AdamelConfig::tiny(), schema);
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

fn trained_model() -> AdamelModel {
    trained_model_on(&["alpha beta", "gamma delta", "epsilon zeta", "eta theta"])
}

/// Corpus records in ascending `(source, entity_id)` key order, so the
/// engine's key-ordered corpus is this vec verbatim and offline `link` over it is
/// the ground truth for the served results.
fn corpus() -> Vec<Record> {
    vec![
        rec(1, 10, "alpha beta"),
        rec(1, 11, "gamma delta"),
        rec(1, 12, "epsilon zeta"),
        rec(2, 20, "alpha gamma"),
    ]
}

fn record_line(r: &Record) -> String {
    let SourceId(source) = r.source;
    let values: BTreeMap<String, String> =
        r.values.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    RecordLine { source, entity_id: r.entity_id, values }.to_json()
}

fn jsonl(records: &[Record]) -> String {
    records.iter().map(|r| record_line(r) + "\n").collect()
}

/// One HTTP exchange on a fresh connection; returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to test server");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("set timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Parses a `/link` JSONL response into `(query, source, entity_id,
/// score_bits)` rows, dropping the trailing summary line.
fn parse_matches(body: &str) -> Vec<(usize, u32, u64, u32)> {
    body.lines()
        .filter(|l| l.contains("\"score_bits\""))
        .map(|l| {
            let v = Json::parse(l).expect("valid match line");
            let bits_hex = v.get("score_bits").and_then(Json::as_str).expect("score_bits");
            (
                v.get("query").and_then(Json::as_u64).expect("query") as usize,
                v.get("source").and_then(Json::as_u64).expect("source") as u32,
                v.get("entity_id").and_then(Json::as_u64).expect("entity_id"),
                u32::from_str_radix(bits_hex, 16).expect("hex bits"),
            )
        })
        .collect()
}

#[test]
fn served_links_are_bit_identical_and_drift_reaches_the_ledger() {
    let _guard = serialized();
    let ledger =
        std::env::temp_dir().join(format!("adamel-serve-e2e-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&ledger);
    adamel_obs::runlog::set_forced_path(ledger.to_str());

    let drift = DriftConfig {
        seen_sources: [0u32, 1].into_iter().collect(),
        dominance_window: 4,
        ..Default::default()
    };
    let engine = Arc::new(Engine::new(
        Linker::new(trained_model(), LinkerConfig::default()),
        EngineConfig { drift: Some(drift), compute_threads: 0 },
    ));
    let server = Server::start(engine, ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();

    // Upsert the corpus.
    let (status, body) = request(addr, "POST", "/records", &jsonl(&corpus()));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"inserted\": 4"), "{body}");

    // Served scores must equal the offline pipeline bit for bit.
    let queries = vec![rec(9, 1, "alpha beta"), rec(9, 2, "gamma delta")];
    let (status, body) = request(addr, "POST", "/link", &jsonl(&queries));
    assert_eq!(status, 200, "{body}");
    let served = parse_matches(&body);
    assert!(!served.is_empty(), "no matches in {body}");

    let offline = Linker::new(trained_model(), LinkerConfig::default());
    let right = corpus();
    let reference = offline.link(&queries, &right);
    assert_eq!(served.len(), reference.len());
    for ((query, source, entity_id, bits), m) in served.iter().zip(reference.iter()) {
        let expect = &right[m.right];
        assert_eq!(*query, m.left);
        assert_eq!((SourceId(*source), *entity_id), (expect.source, expect.entity_id));
        assert_eq!(*bits, m.score.to_bits(), "served score differs bitwise from offline");
    }

    // Health before drift: serving, version 1, no re-adaptation signal.
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let h = Json::parse(&health).expect("health json");
    assert_eq!(h.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(h.get("model_version").and_then(Json::as_u64), Some(1));
    assert_eq!(h.get("records").and_then(Json::as_u64), Some(4));
    assert_eq!(h.get("readapt_recommended").and_then(Json::as_bool), Some(false));

    // Traffic from an unseen source with a new attribute (C2) and
    // out-of-vocabulary tokens (C3) — it still shares the "alpha" blocking
    // token, so pairs exist for the monitor to assess.
    for i in 0..6u64 {
        let mut q = rec(77, i, "alpha zzz9 qqq7");
        q.set("weird_attr", "noise");
        let (status, _) = request(addr, "POST", "/link", &jsonl(&[q]));
        assert_eq!(status, 200);
    }

    let (_, health) = request(addr, "GET", "/healthz", "");
    let h = Json::parse(&health).expect("health json");
    assert_eq!(
        h.get("readapt_recommended").and_then(Json::as_bool),
        Some(true),
        "unseen-source dominance should latch: {health}"
    );

    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let m = Json::parse(&metrics).expect("metrics json");
    assert_eq!(m.get("schema").and_then(Json::as_str), Some("adamel-serve-metrics/v1"));
    let counters = m.get("counters").expect("counters");
    assert!(counters.get("link_batches").and_then(Json::as_u64) >= Some(7));
    let drift_status = m.get("drift").expect("drift section");
    assert_eq!(drift_status.get("readapt_recommended").and_then(Json::as_bool), Some(true));

    server.shutdown().expect("clean shutdown");
    adamel_obs::runlog::flush();

    let text = std::fs::read_to_string(&ledger).expect("ledger written");
    let events: Vec<String> = text
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| v.get("event").and_then(Json::as_str).map(str::to_owned))
        .collect();
    for expected in ["link", "drift", "warn", "readapt"] {
        assert!(events.iter().any(|e| e == expected), "no `{expected}` event in {events:?}");
    }

    adamel_obs::runlog::set_forced_path(None);
    let _ = std::fs::remove_file(&ledger);
}

#[test]
fn trace_id_joins_link_response_runlog_and_metrics_at_full() {
    let _guard = serialized();
    let ledger =
        std::env::temp_dir().join(format!("adamel-serve-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&ledger);
    adamel_obs::runlog::set_forced_path(ledger.to_str());
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Full));
    adamel_obs::report::reset();

    let engine = Arc::new(Engine::new(
        Linker::new(trained_model(), LinkerConfig::default()),
        EngineConfig::default(),
    ));
    let server = Server::start(engine, ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();
    let (status, _) = request(addr, "POST", "/records", &jsonl(&corpus()));
    assert_eq!(status, 200);

    // The /link response summary carries the request's trace id …
    let queries = vec![rec(9, 1, "alpha beta")];
    let (status, body) = request(addr, "POST", "/link", &jsonl(&queries));
    assert_eq!(status, 200, "{body}");
    let summary = body.lines().find(|l| l.contains("\"summary\"")).expect("summary line");
    let trace_id = Json::parse(summary)
        .expect("summary json")
        .get("summary")
        .and_then(|s| s.get("trace_id"))
        .and_then(Json::as_u64)
        .expect("trace_id in summary");

    // … the same id tags a `req.{id}` op span nested under the endpoint
    // span in /metrics, whose `endpoints` section also times the route …
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let m = Json::parse(&metrics).expect("metrics json");
    let spans = m.get("obs").and_then(|o| o.get("spans")).and_then(Json::as_object).expect("spans");
    let wanted = format!("serve.link/req.{trace_id}");
    assert!(
        spans.keys().any(|k| k == &wanted),
        "no span path {wanted:?} among {:?}",
        spans.keys().collect::<Vec<_>>()
    );
    let endpoints = m.get("endpoints").and_then(Json::as_object).expect("endpoints");
    let link_count =
        endpoints.get("serve.link").and_then(|e| e.get("count")).and_then(Json::as_u64);
    assert_eq!(link_count, Some(1), "endpoints section times the /link route");

    // … and with tracing on, mem gauges are live in the embedded report.
    let gauges = m
        .get("obs")
        .and_then(|o| o.get("mem"))
        .and_then(|mem| mem.get("gauges"))
        .and_then(Json::as_object)
        .expect("mem gauges");
    // The index's byte gauge equals a recount over the corpus it holds.
    let recount: usize = corpus()
        .iter()
        .map(|r| {
            let attrs: usize = r.values.iter().map(|(k, v)| k.len() + v.len()).sum();
            attrs + std::mem::size_of::<Record>() + std::mem::size_of::<RecordKey>()
        })
        .sum();
    let index_bytes = gauges.get("schema.live_index.bytes").and_then(|g| g.get("current"));
    assert_eq!(
        index_bytes.and_then(Json::as_u64),
        Some(recount as u64),
        "index gauge missing or off among {:?}",
        gauges.keys().collect::<Vec<_>>()
    );

    server.shutdown().expect("clean shutdown");
    adamel_obs::runlog::flush();

    // … and the runlog `link` event emitted inside that request carries
    // the same id, so one request joins across all three surfaces.
    let text = std::fs::read_to_string(&ledger).expect("ledger written");
    let mut found = false;
    for line in text.lines() {
        let Ok(v) = Json::parse(line) else { continue };
        if v.get("event").and_then(Json::as_str) == Some("link") {
            assert_eq!(
                v.get("trace_id").and_then(Json::as_u64),
                Some(trace_id),
                "link event not tagged with the request's trace id: {line}"
            );
            found = true;
        }
    }
    assert!(found, "no link event in the ledger: {text}");

    adamel_obs::set_forced(None);
    adamel_obs::report::reset();
    adamel_obs::runlog::set_forced_path(None);
    let _ = std::fs::remove_file(&ledger);
}

#[test]
fn hot_swap_is_atomic_under_concurrent_traffic() {
    let _guard = serialized();
    adamel_obs::runlog::set_forced_path(Some("")); // forced off

    let engine = Arc::new(Engine::new(
        Linker::new(trained_model(), LinkerConfig::default()),
        EngineConfig::default(),
    ));
    let server = Server::start(engine, ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();
    let (status, _) = request(addr, "POST", "/records", &jsonl(&corpus()));
    assert_eq!(status, 200);

    // Model B: same schema, different training data, different parameters.
    let model_b = trained_model_on(&["alpha gamma", "beta delta", "gamma zeta", "delta theta"]);
    let mut snapshot = Vec::new();
    adamel::save_model(&model_b, &mut snapshot).expect("serialize model");
    let snapshot = String::from_utf8(snapshot).expect("text format");

    let queries = vec![rec(9, 1, "alpha beta"), rec(9, 2, "gamma delta")];
    let query_body = jsonl(&queries);

    // One swap races seven link batches; every request must succeed — no
    // torn model, no error, no deadlock.
    let statuses = parallel::with_threads(4, || {
        parallel::parallel_map_collect(8, 1 << 23, |i| {
            if i == 3 {
                request(addr, "POST", "/model", &snapshot).0
            } else {
                request(addr, "POST", "/link", &query_body).0
            }
        })
    });
    assert_eq!(statuses, vec![200; 8], "all concurrent requests succeed");

    let (_, health) = request(addr, "GET", "/healthz", "");
    let h = Json::parse(&health).expect("health json");
    assert_eq!(h.get("model_version").and_then(Json::as_u64), Some(2), "{health}");

    // After the swap, served scores equal offline model B bit for bit.
    let (status, body) = request(addr, "POST", "/link", &query_body);
    assert_eq!(status, 200);
    let served = parse_matches(&body);
    let offline = Linker::new(model_b, LinkerConfig::default());
    let right = corpus();
    let reference = offline.link(&queries, &right);
    assert_eq!(served.len(), reference.len());
    for ((_, _, _, bits), m) in served.iter().zip(reference.iter()) {
        assert_eq!(*bits, m.score.to_bits(), "post-swap score differs from offline model B");
    }

    // A schema-mismatched snapshot is refused without touching the version.
    let other = AdamelModel::new(AdamelConfig::tiny(), Schema::new(vec!["title".into()]));
    let mut bad = Vec::new();
    adamel::save_model(&other, &mut bad).expect("serialize");
    let (status, _) = request(addr, "POST", "/model", &String::from_utf8(bad).expect("text"));
    assert_eq!(status, 409);
    let (_, health) = request(addr, "GET", "/healthz", "");
    assert!(health.contains("\"model_version\": 2"), "{health}");

    server.shutdown().expect("clean shutdown");
    adamel_obs::runlog::set_forced_path(None);
}

#[test]
fn link_over_the_query_cap_gets_413_before_any_probe() {
    let _guard = serialized();
    adamel_obs::runlog::set_forced_path(Some("")); // forced off

    let engine = Arc::new(Engine::new(
        Linker::new(trained_model(), LinkerConfig::default()),
        EngineConfig::default(),
    ));
    let server = Server::start(engine, ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();
    let (status, body) = request(addr, "POST", "/records", &jsonl(&corpus()));
    assert_eq!(status, 200, "{body}");

    let queries: Vec<Record> =
        (0..=MAX_LINK_QUERIES as u64).map(|i| rec(9, i, "alpha beta")).collect();
    let (status, body) = request(addr, "POST", "/link", &jsonl(&queries));
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("-query limit"), "{body}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let v = Json::parse(&metrics).expect("metrics JSON");
    let batches = v.get("counters").and_then(|c| c.get("link_batches")).and_then(Json::as_u64);
    assert_eq!(batches, Some(0), "the refused batch must not be probed");

    let (status, body) = request(addr, "POST", "/link", &jsonl(&queries[..MAX_LINK_QUERIES]));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(&format!("\"queries\": {MAX_LINK_QUERIES},")), "{body}");

    server.shutdown().expect("clean shutdown");
    adamel_obs::runlog::set_forced_path(None);
}

#[test]
fn full_queue_rejects_with_429_and_never_deadlocks() {
    let _guard = serialized();
    adamel_obs::runlog::set_forced_path(Some("")); // forced off

    let engine = Arc::new(Engine::new(
        Linker::new(trained_model(), LinkerConfig::default()),
        EngineConfig::default(),
    ));
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        read_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, cfg).expect("bind ephemeral port");
    let addr = server.addr();

    // Three idle connections against one worker and a one-slot queue: by
    // pigeonhole at least one cannot be buffered and gets 429 on the spot.
    let mut conns: Vec<TcpStream> = (0..3)
        .map(|_| {
            let c = TcpStream::connect(addr).expect("connect");
            std::thread::sleep(Duration::from_millis(150));
            c
        })
        .collect();

    let mut rejected = 0;
    let mut live = Vec::new();
    for mut c in conns.drain(..) {
        c.set_read_timeout(Some(Duration::from_secs(2))).expect("set timeout");
        let mut buf = [0u8; 512];
        match c.read(&mut buf) {
            Ok(n) if n > 0 => {
                let text = String::from_utf8_lossy(&buf[..n]).to_string();
                assert!(text.starts_with("HTTP/1.1 429"), "unexpected early response: {text}");
                rejected += 1;
            }
            _ => live.push(c), // no data: held by the worker or queued
        }
    }
    assert!(rejected >= 1, "a full queue must reject at least one connection");

    // The surviving connections are served normally once asked — the
    // rejection path left no thread stuck.
    for mut c in live {
        write!(c, "GET /healthz HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n")
            .expect("send healthz");
        c.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
        let mut raw = String::new();
        c.read_to_string(&mut raw).expect("read healthz response");
        assert!(raw.starts_with("HTTP/1.1 200"), "unexpected response: {raw}");
    }

    // Fresh requests still work.
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    server.shutdown().expect("clean shutdown");
    adamel_obs::runlog::set_forced_path(None);
}

#[test]
fn a_slow_client_is_cut_off_at_the_read_timeout_and_its_worker_serves_on() {
    let _guard = serialized();
    adamel_obs::runlog::set_forced_path(Some("")); // forced off

    let engine = Arc::new(Engine::new(
        Linker::new(trained_model(), LinkerConfig::default()),
        EngineConfig::default(),
    ));
    let timeout = Duration::from_millis(300);
    let cfg = ServerConfig { workers: 1, read_timeout: timeout, ..ServerConfig::default() };
    let server = Server::start(engine, cfg).expect("bind ephemeral port");
    let addr = server.addr();

    // One byte per 50 ms: each read returns well inside the timeout, but
    // the 66-byte head would take over 3 s to arrive.
    let head = format!("GET /healthz HTTP/1.1\r\nHost: test\r\nX-Pad: {}\r\n\r\n", "x".repeat(20));
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_millis(50))).expect("set timeout");
    let started = Instant::now();
    let mut cut_off = None;
    for byte in head.bytes() {
        let mut buf = [0u8; 256];
        match slow.write_all(&[byte]).and_then(|()| slow.read(&mut buf)) {
            Ok(0) => {
                cut_off = Some(started.elapsed());
                break;
            }
            Ok(n) => {
                panic!("the slow request was answered: {}", String::from_utf8_lossy(&buf[..n]))
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                cut_off = Some(started.elapsed());
                break;
            }
        }
    }
    let elapsed = cut_off.expect("the slow client was never cut off");
    assert!(elapsed < timeout * 4, "cut off after {elapsed:?}, against a {timeout:?} timeout");

    // The one worker is free again.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");

    server.shutdown().expect("clean shutdown");
    adamel_obs::runlog::set_forced_path(None);
}

#[test]
fn a_client_that_never_reads_is_cut_off_at_the_write_deadline_and_its_worker_serves_on() {
    let _guard = serialized();
    adamel_obs::runlog::set_forced_path(Some("")); // forced off

    // Every query blocks with all 2,000 corpus records and every candidate
    // is a match: 64 queries answer about 12 MB of match lines, more than
    // the socket buffers of both ends hold at common loopback settings. A
    // host whose `tcp_wmem` maximum holds it all lets the write finish
    // before the deadline, so the test asserts only what holds either way:
    // the worker is free again.
    let linker_cfg = LinkerConfig {
        max_candidates_per_record: 2_000,
        threshold: 0.0,
        ..LinkerConfig::default()
    };
    let engine_cfg = EngineConfig { drift: None, ..EngineConfig::default() };
    let engine = Arc::new(Engine::new(Linker::new(trained_model(), linker_cfg), engine_cfg));
    let timeout = Duration::from_millis(500);
    let cfg = ServerConfig { workers: 1, read_timeout: timeout, ..ServerConfig::default() };
    let server = Server::start(engine, cfg).expect("bind ephemeral port");
    let addr = server.addr();
    let corpus: Vec<Record> = (0..2_000).map(|i| rec(1, i, "alpha beta")).collect();
    let (status, body) = request(addr, "POST", "/records", &jsonl(&corpus));
    assert_eq!(status, 200, "{body}");

    let queries: Vec<Record> = (0..64).map(|i| rec(9, i, "alpha beta")).collect();
    let body = jsonl(&queries);
    let mut stuck = TcpStream::connect(addr).expect("connect");
    write!(
        stuck,
        "POST /link HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send the request");

    // The one worker writes until the deadline, gives up, and takes the
    // next connection: this request waits for it and is answered.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"workers_live\": 1"), "{body}");

    // The stuck client got the response's head before it stopped reading.
    stuck.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
    let mut head = [0u8; 12];
    stuck.read_exact(&mut head).expect("read the status line");
    assert_eq!(&head, b"HTTP/1.1 200");

    server.shutdown().expect("clean shutdown");
    adamel_obs::runlog::set_forced_path(None);
}

#[test]
fn a_panicking_handler_answers_500_and_its_worker_keeps_serving() {
    let _guard = serialized();
    let ledger =
        std::env::temp_dir().join(format!("adamel-serve-panic-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&ledger);
    adamel_obs::runlog::set_forced_path(ledger.to_str());

    let engine = Arc::new(Engine::new(
        Linker::new(trained_model(), LinkerConfig::default()),
        EngineConfig::default(),
    ));
    let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    let server = Server::start(engine, cfg).expect("bind ephemeral port");
    let addr = server.addr();
    let (status, body) = request(addr, "POST", "/records", &jsonl(&corpus()));
    assert_eq!(status, 200, "{body}");

    // Every weight at a large finite value: the snapshot loads, and with
    // the sanitizer on (forced, so release builds check too) the forward
    // panics on an overflowing product in every `/link`.
    let snapshot = |m: &AdamelModel| {
        let mut bytes = Vec::new();
        adamel::save_model(m, &mut bytes).expect("serialize model");
        String::from_utf8(bytes).expect("text format")
    };
    let mut huge = trained_model();
    let big: Vec<adamel_tensor::Matrix> = huge
        .snapshot_params()
        .iter()
        .map(|m| adamel_tensor::Matrix::full(m.rows(), m.cols(), 3.0e38))
        .collect();
    huge.restore_params(&big).expect("same shapes");
    let (status, body) = request(addr, "POST", "/model", &snapshot(&huge));
    assert_eq!(status, 200, "{body}");

    adamel_tensor::sanitize::set_forced(Some(true));
    let queries = vec![rec(9, 1, "alpha beta"), rec(9, 2, "gamma delta")];
    // Trace ids count requests: `/records` was 1 and `/model` 2.
    for trace_id in 3..6u64 {
        let (status, body) = request(addr, "POST", "/link", &jsonl(&queries));
        assert_eq!(status, 500, "{body}");
        let named = Json::parse(&body).ok().and_then(|v| v.get("trace_id").and_then(Json::as_u64));
        assert_eq!(named, Some(trace_id), "{body}");
    }
    adamel_tensor::sanitize::set_forced(None);

    // Three panics on two workers, and the daemon still answers with both
    // workers running.
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let h = Json::parse(&body).expect("health JSON");
    assert_eq!(h.get("workers").and_then(Json::as_u64), Some(2), "{body}");
    assert_eq!(h.get("workers_live").and_then(Json::as_u64), Some(2), "{body}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let v = Json::parse(&metrics).expect("metrics JSON");
    let panics = v.get("counters").and_then(|c| c.get("panics")).and_then(Json::as_u64);
    assert_eq!(panics, Some(3), "{metrics}");

    // With a good model back, `/link` serves the offline matches.
    let good = trained_model();
    let (status, body) = request(addr, "POST", "/model", &snapshot(&good));
    assert_eq!(status, 200, "{body}");
    let (status, body) = request(addr, "POST", "/link", &jsonl(&queries));
    assert_eq!(status, 200, "{body}");
    let served = parse_matches(&body);
    assert!(!served.is_empty(), "no matches in {body}");
    let right = corpus();
    let reference = Linker::new(good, LinkerConfig::default()).link(&queries, &right);
    assert_eq!(served.len(), reference.len());
    for ((query, source, entity_id, bits), m) in served.iter().zip(reference.iter()) {
        let expect = &right[m.right];
        assert_eq!(*query, m.left);
        assert_eq!((SourceId(*source), *entity_id), (expect.source, expect.entity_id));
        assert_eq!(*bits, m.score.to_bits(), "served score differs bitwise from offline");
    }

    server.shutdown().expect("clean shutdown");
    adamel_obs::runlog::flush();

    // Each panic left a runlog `error` event under its request's trace id.
    let text = std::fs::read_to_string(&ledger).expect("ledger written");
    let errors: Vec<(Option<u64>, String)> = text
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|v| v.get("event").and_then(Json::as_str) == Some("error"))
        .map(|v| {
            let panic = v.get("panic").and_then(Json::as_str).unwrap_or_default().to_string();
            (v.get("trace_id").and_then(Json::as_u64), panic)
        })
        .collect();
    let ids: Vec<Option<u64>> = errors.iter().map(|e| e.0).collect();
    assert_eq!(ids, vec![Some(3), Some(4), Some(5)], "{text}");
    assert!(errors.iter().all(|e| e.1.contains("adamel-sanitize")), "{text}");

    adamel_obs::runlog::set_forced_path(None);
    let _ = std::fs::remove_file(&ledger);
}
