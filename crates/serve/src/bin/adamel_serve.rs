//! The `adamel-serve` daemon entry point.
//!
//! ```text
//! adamel-serve --model <path> [--seen-sources 1,2,3]   # serve a snapshot
//! adamel-serve --selftest [--metrics-out <path>]       # self-contained smoke test
//! ```
//!
//! Daemon mode loads an `adamel-model v2` snapshot (see `adamel::io`),
//! binds `ADAMEL_SERVE_ADDR` (default `127.0.0.1:0`), and serves until
//! killed. `--seen-sources` lists the training sources so the
//! unseen-source-dominance hook can recommend AdaMEL-zero re-adaptation;
//! without it the hook stays quiet. See OPERATIONS.md for the full runbook.
//!
//! Selftest mode trains a tiny model in-process, boots on an ephemeral
//! port, exercises every endpoint over real sockets, checks that a `/link`
//! line nested past the JSON depth cap and a request head past its size
//! cap each get a `400` while the daemon keeps serving, checks that a
//! snapshot holding a NaN weight and a record whose `source` overflows
//! `u32` get a `400` and a `/link` one query over [`MAX_LINK_QUERIES`] a
//! `413`, none of them changing the model, the corpus or later matches,
//! optionally writes the final `/metrics` document to `--metrics-out`, and
//! exits non-zero on any failure — CI runs it and uploads the metrics
//! artifact.

use adamel::config::{AdamelConfig, Variant};
use adamel::train::fit;
use adamel::{AdamelModel, Linker, LinkerConfig};
use adamel_schema::{Domain, EntityPair, Record, Schema, SourceId};
use adamel_serve::http::MAX_HEAD_BYTES;
use adamel_serve::{DriftConfig, Engine, EngineConfig, Server, ServerConfig, MAX_LINK_QUERIES};
use std::collections::BTreeSet;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("adamel-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut model_path = None;
    let mut seen_sources = BTreeSet::new();
    let mut selftest = false;
    let mut metrics_out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--model" => {
                model_path = Some(take_value(args, &mut i, "--model")?);
            }
            "--seen-sources" => {
                let list = take_value(args, &mut i, "--seen-sources")?;
                for part in list.split(',').filter(|p| !p.trim().is_empty()) {
                    let id: u32 = part
                        .trim()
                        .parse()
                        .map_err(|_| format!("--seen-sources: bad source id {part:?}"))?;
                    seen_sources.insert(id);
                }
            }
            "--selftest" => selftest = true,
            "--metrics-out" => {
                metrics_out = Some(take_value(args, &mut i, "--metrics-out")?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: adamel-serve --model <path> [--seen-sources 1,2,3]\n       adamel-serve --selftest [--metrics-out <path>]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
        i += 1;
    }

    if selftest {
        return run_selftest(metrics_out.as_deref());
    }
    let path = model_path.ok_or("either --model <path> or --selftest is required")?;
    run_daemon(&path, seen_sources)
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i).cloned().ok_or_else(|| format!("{flag} requires a value"))
}

fn run_daemon(model_path: &str, seen_sources: BTreeSet<u32>) -> Result<(), String> {
    let file = std::fs::File::open(model_path)
        .map_err(|e| format!("cannot open model snapshot {model_path:?}: {e}"))?;
    let model = adamel::load_model(&mut BufReader::new(file))
        .map_err(|e| format!("cannot load model snapshot {model_path:?}: {e}"))?;

    // Without a seen-source list every query counts as unseen and the
    // re-adaptation flag would latch on the first full window; a threshold
    // above 1.0 keeps the hook quiet instead.
    let dominance_threshold = if seen_sources.is_empty() { 1.5 } else { 0.5 };
    let drift = DriftConfig { seen_sources, dominance_threshold, ..Default::default() };
    let engine = Arc::new(Engine::new(
        Linker::new(model, LinkerConfig::default()),
        EngineConfig { drift: Some(drift), compute_threads: 0 },
    ));
    let server =
        Server::start(engine, ServerConfig::from_env()).map_err(|e| format!("cannot bind: {e}"))?;
    println!("adamel-serve listening on http://{}", server.addr());
    println!("endpoints: POST /records, DELETE /records, POST /link, POST /model, GET /healthz, GET /metrics");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

// ---------------------------------------------------------------------------
// Selftest: the CI smoke path.

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

/// One HTTP exchange over a fresh connection; returns `(status, body)`.
fn request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let head = format!("{method} {path} HTTP/1.1\r\nHost: selftest\r\n");
    raw_request(addr, &format!("{head}Content-Length: {}\r\n\r\n{body}", body.len()))
}

/// Sends `request` verbatim over a fresh connection; returns `(status, body)`.
fn raw_request(addr: std::net::SocketAddr, request: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| format!("timeout: {e}"))?;
    stream.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("recv: {e}"))?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response: {raw:?}"))?;
    let payload = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, payload))
}

fn expect_200(step: &str, got: Result<(u16, String), String>) -> Result<String, String> {
    expect_status(step, 200, got)
}

fn expect_status(
    step: &str,
    want: u16,
    got: Result<(u16, String), String>,
) -> Result<String, String> {
    match got {
        Ok((status, body)) if status == want => Ok(body),
        Ok((status, body)) => Err(format!("{step}: HTTP {status}: {}", body.trim())),
        Err(e) => Err(format!("{step}: {e}")),
    }
}

/// `(model_version, records)` from `GET /healthz`.
fn health_counts(addr: std::net::SocketAddr) -> Result<(u64, u64), String> {
    let body = expect_200("healthz", request(addr, "GET", "/healthz", ""))?;
    let v = adamel_obs::json::Json::parse(&body).map_err(|e| format!("healthz: {e}"))?;
    let count = |key: &str| {
        v.get(key).and_then(|n| n.as_u64()).ok_or_else(|| format!("healthz: no {key} in {body:?}"))
    };
    Ok((count("model_version")?, count("records")?))
}

/// The match lines of a `/link` response, without its summary line.
fn match_lines(body: &str) -> Vec<&str> {
    body.lines().filter(|l| l.contains("\"score_bits\"")).collect()
}

/// Schema/shape check on the final `/metrics` document. A malformed or
/// structurally empty document fails the selftest (and with it serve CI)
/// even though the HTTP exchange itself succeeded.
fn validate_metrics(doc: &str) -> Result<(), String> {
    let v =
        adamel_obs::json::Json::parse(doc).map_err(|e| format!("metrics: not valid JSON: {e}"))?;
    if v.get("schema").and_then(|s| s.as_str()) != Some("adamel-serve-metrics/v1") {
        return Err(format!("metrics: wrong or missing schema in {doc:?}"));
    }
    let counters =
        v.get("counters").and_then(|c| c.as_object()).ok_or("metrics: missing counters object")?;
    if counters.is_empty() {
        return Err("metrics: counters object is empty".to_string());
    }
    for key in ["requests_total", "link_batches", "upserts"] {
        let n = counters
            .get(key)
            .and_then(|n| n.as_u64())
            .ok_or_else(|| format!("metrics: counter {key:?} missing or not a number"))?;
        if n == 0 {
            return Err(format!("metrics: counter {key:?} is zero after selftest traffic"));
        }
    }
    let queue = v.get("queue").ok_or("metrics: missing queue object")?;
    if queue.get("capacity").and_then(|n| n.as_u64()).is_none_or(|c| c == 0) {
        return Err("metrics: queue capacity missing or zero".to_string());
    }
    if v.get("endpoints").and_then(|e| e.as_object()).is_none() {
        return Err("metrics: missing endpoints object".to_string());
    }
    let obs = v.get("obs").ok_or("metrics: missing embedded obs report")?;
    let mem = obs.get("mem").ok_or("metrics: obs report has no mem section")?;
    if mem.get("schema").and_then(|s| s.as_str()) != Some("adamel-mem/v1") {
        return Err("metrics: mem section has wrong or missing schema".to_string());
    }
    if mem.get("gauges").and_then(|g| g.as_object()).is_none() {
        return Err("metrics: mem section has no gauges object".to_string());
    }
    Ok(())
}

fn run_selftest(metrics_out: Option<&str>) -> Result<(), String> {
    let drift = DriftConfig {
        seen_sources: [0u32, 1].into_iter().collect(),
        dominance_window: 4,
        ..Default::default()
    };
    let engine = Arc::new(Engine::new(
        Linker::new(trained_model(), LinkerConfig::default()),
        EngineConfig { drift: Some(drift), compute_threads: 0 },
    ));
    let server = Server::start(
        engine,
        ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    println!("selftest: serving on {addr}");

    let corpus = "\
{\"source\": 1, \"entity_id\": 10, \"values\": {\"name\": \"alpha beta\"}}\n\
{\"source\": 1, \"entity_id\": 11, \"values\": {\"name\": \"gamma delta\"}}\n\
{\"source\": 1, \"entity_id\": 12, \"values\": {\"name\": \"epsilon zeta\"}}\n";
    let body = expect_200("upsert", request(addr, "POST", "/records", corpus))?;
    if !body.contains("\"inserted\": 3") {
        return Err(format!("upsert: unexpected body {body:?}"));
    }

    let queries = "{\"source\": 9, \"entity_id\": 1, \"values\": {\"name\": \"alpha beta\"}}\n";
    let linked = expect_200("link", request(addr, "POST", "/link", queries))?;
    if match_lines(&linked).is_empty() {
        return Err(format!("link: no matches in {linked:?}"));
    }
    let summary = linked
        .lines()
        .find(|l| l.contains("\"summary\""))
        .ok_or_else(|| format!("link: no summary line in {linked:?}"))?;
    let summary = adamel_obs::json::Json::parse(summary)
        .map_err(|e| format!("link: summary is not valid JSON: {e}"))?;
    if summary.get("summary").and_then(|s| s.get("trace_id")).and_then(|t| t.as_u64()).is_none() {
        return Err("link: summary carries no trace_id".to_string());
    }

    // Hostile requests get a `400` from the live worker pool, which keeps
    // serving: a `/link` line nested far past the JSON parser's depth cap,
    // and a header line that runs to the head cap without ending. The head
    // is exactly the cap long, so the daemon reads all of it before it
    // answers and the close cannot reset the connection under the reply.
    let deep = format!("{}\n", "[".repeat(100_000));
    expect_status("deep /link", 400, request(addr, "POST", "/link", &deep))?;
    let line = "GET /healthz HTTP/1.1\r\nX-Pad: ";
    let head = format!("{line}{}", "a".repeat(MAX_HEAD_BYTES - line.len()));
    expect_status("over-cap header", 400, raw_request(addr, &head))?;

    let mut snapshot = Vec::new();
    adamel::save_model(&trained_model(), &mut snapshot).map_err(|e| format!("snapshot: {e}"))?;
    let snapshot = String::from_utf8(snapshot).map_err(|e| format!("snapshot utf8: {e}"))?;

    // Requests refused whole, changing nothing: a snapshot whose first
    // weight is a NaN, a record whose `source` would wrap onto source 0,
    // and a `/link` batch one query over the cap.
    let before = health_counts(addr)?;
    let mut lines: Vec<String> = snapshot.lines().map(str::to_owned).collect();
    let tensor =
        lines.iter_mut().find(|l| l.starts_with("tensor ")).ok_or("snapshot: no tensor")?;
    let mut tokens: Vec<&str> = tensor.split(' ').collect();
    // `tensor <rows> <cols> <value>...`: the first value becomes a NaN.
    *tokens.get_mut(3).ok_or("snapshot: empty tensor")? = "7fc00000";
    *tensor = tokens.join(" ");
    let nan_snapshot = lines.join("\n") + "\n";
    expect_status("NaN snapshot", 400, request(addr, "POST", "/model", &nan_snapshot))?;
    let wrapped = "{\"source\": 4294967296, \"entity_id\": 10, \"values\": {\"name\": \"x\"}}\n";
    expect_status("source 2^32", 400, request(addr, "POST", "/records", wrapped))?;
    let over_cap = queries.repeat(MAX_LINK_QUERIES + 1);
    expect_status("over-cap /link", 413, request(addr, "POST", "/link", &over_cap))?;
    let after = health_counts(addr)?;
    if after != before {
        return Err(format!(
            "refused requests changed (model_version, records) {before:?} to {after:?}"
        ));
    }
    let relinked = expect_200("link after refusals", request(addr, "POST", "/link", queries))?;
    if match_lines(&relinked) != match_lines(&linked) {
        return Err(format!("link after refusals: {relinked:?} differs from {linked:?}"));
    }

    let health = expect_200("healthz", request(addr, "GET", "/healthz", ""))?;
    if !health.contains("\"status\": \"ok\"") {
        return Err(format!("healthz: unexpected body {health:?}"));
    }

    let body = expect_200("hot-swap", request(addr, "POST", "/model", &snapshot))?;
    if !body.contains("\"model_version\": 2") {
        return Err(format!("hot-swap: unexpected body {body:?}"));
    }

    let metrics = expect_200("metrics", request(addr, "GET", "/metrics", ""))?;
    validate_metrics(&metrics)?;
    if let Some(path) = metrics_out {
        std::fs::write(path, &metrics).map_err(|e| format!("write {path:?}: {e}"))?;
        println!("selftest: metrics written to {path}");
    }

    server.shutdown()?;
    println!("selftest: ok");
    Ok(())
}
