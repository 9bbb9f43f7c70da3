//! The network front: accept loop, bounded worker pool, routing.
//!
//! One accept thread pushes connections onto a [`BoundedQueue`]; `workers`
//! threads pop and handle one request per connection. A full queue is
//! answered `429 Too Many Requests` on the accept thread immediately —
//! load the daemon cannot absorb is visible to the caller, never silently
//! buffered. A request must arrive whole within the read timeout, and its
//! response must be written within as long again, so a client trickling
//! bytes, or one that stops reading, cannot hold a worker. A request whose
//! handler panics is answered `500` with its trace id, and the worker goes
//! on serving. `/healthz` reports how many workers are still running: each
//! worker loop counts itself out when it exits, by return or by unwind.
//! All threads come from [`adamel_tensor::parallel::spawn_service`].

use crate::api::{self, DeleteLine, RecordLine};
use crate::engine::Engine;
use crate::http::{self, HttpError, Request};
use crate::queue::{BoundedQueue, PushError};
use adamel_schema::SourceId;
use adamel_tensor::parallel::{self, ServiceHandle};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most query records one `POST /link` may carry; a larger batch is
/// answered `413` before any of it is probed. The body cap alone does not
/// bound a request's memory: each query is encoded against up to the
/// linker's candidate cap of corpus records, at `F·D` floats per pair, so
/// a body of short query lines could demand far more memory than its
/// bytes. 256 queries at the default cap of 20 is 5,120 pairs.
pub const MAX_LINK_QUERIES: usize = 256;

/// Server construction options (see OPERATIONS.md for the env-var table).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Connections the queue buffers before the accept thread answers
    /// `429`.
    pub queue_capacity: usize,
    /// Maximum request-body size in bytes (larger bodies get `413`).
    pub max_body_bytes: usize,
    /// Time a request's head and body have to arrive in, from when a
    /// worker takes the connection; its response then has as long again
    /// to be written.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            queue_capacity: 64,
            max_body_bytes: 64 << 20,
            read_timeout: Duration::from_secs(30),
        }
    }
}

impl ServerConfig {
    /// Defaults overridden by `ADAMEL_SERVE_ADDR`, `ADAMEL_SERVE_WORKERS`,
    /// `ADAMEL_SERVE_QUEUE`, and `ADAMEL_SERVE_MAX_BODY` (bytes).
    /// Unparsable values fall back silently to the defaults (a daemon
    /// should boot, not die on a typo).
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(addr) = std::env::var("ADAMEL_SERVE_ADDR") {
            if !addr.trim().is_empty() {
                cfg.addr = addr.trim().to_string();
            }
        }
        if let Some(n) = env_usize("ADAMEL_SERVE_WORKERS") {
            cfg.workers = n;
        }
        if let Some(n) = env_usize("ADAMEL_SERVE_QUEUE") {
            cfg.queue_capacity = n;
        }
        if let Some(n) = env_usize("ADAMEL_SERVE_MAX_BODY") {
            cfg.max_body_bytes = n;
        }
        cfg
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok().filter(|n: &usize| *n > 0)
}

/// The worker pool's size and how many of its threads are running.
struct Workers {
    configured: usize,
    live: AtomicUsize,
}

/// Counts a worker out of [`Workers::live`] when its loop exits, whether
/// it returns or unwinds.
struct LiveWorker<'a>(&'a AtomicUsize);

impl Drop for LiveWorker<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running daemon: accept thread + worker pool around an [`Engine`].
pub struct Server {
    addr: SocketAddr,
    engine: Arc<Engine>,
    queue: Arc<BoundedQueue<TcpStream>>,
    stop: Arc<AtomicBool>,
    threads: Vec<ServiceHandle>,
}

impl Server {
    /// Binds `cfg.addr` and starts the accept thread and `cfg.workers`
    /// workers. Returns once the socket is listening — callers can connect
    /// immediately.
    pub fn start(engine: Arc<Engine>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(BoundedQueue::new(cfg.queue_capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        let configured = cfg.workers.max(1);
        let workers = Arc::new(Workers { configured, live: AtomicUsize::new(0) });

        for i in 0..configured {
            let queue = Arc::clone(&queue);
            let engine = Arc::clone(&engine);
            let workers = Arc::clone(&workers);
            let (max_body, timeout) = (cfg.max_body_bytes, cfg.read_timeout);
            // Counted in before the thread starts, so `/healthz` never sees
            // a worker that has not begun yet as gone.
            workers.live.fetch_add(1, Ordering::Relaxed);
            threads.push(parallel::spawn_service(
                &format!("adamel-serve-worker-{i}"),
                move || {
                    let _live = LiveWorker(&workers.live);
                    while let Some(stream) = queue.pop() {
                        handle_connection(&engine, &queue, &workers, stream, max_body, timeout);
                    }
                },
            )?);
        }

        {
            let queue = Arc::clone(&queue);
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            threads.push(parallel::spawn_service("adamel-serve-accept", move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if let Err(PushError::Full(mut rejected) | PushError::Closed(mut rejected)) =
                        queue.try_push(stream)
                    {
                        engine.note_rejected();
                        let _ = http::write_response(
                            &mut rejected,
                            429,
                            "Too Many Requests",
                            &http::error_body("queue full"),
                        );
                    }
                }
            })?);
        }

        Ok(Server { addr, engine, queue, stop, threads })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Stops accepting, drains queued connections, and joins every thread.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        // The accept thread blocks in `incoming()`; a self-connection makes
        // it observe the stop flag. The connection itself lands on the
        // (now closed) queue or is dropped — either is fine.
        let _ = TcpStream::connect(self.addr);
        self.queue.close();
        let mut errors = Vec::new();
        for h in self.threads.drain(..) {
            if let Err(e) = h.join() {
                errors.push(e);
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

fn handle_connection(
    engine: &Engine,
    queue: &BoundedQueue<TcpStream>,
    workers: &Workers,
    stream: TcpStream,
    max_body: usize,
    timeout: Duration,
) {
    let request = {
        let Ok(stream) = stream.try_clone() else { return };
        read_limited(Deadline { stream, at: Instant::now() + timeout }, max_body)
    };
    let (status, reason, body) = match request {
        Ok(req) => {
            engine.note_request();
            // Request-scoped tracing: a deterministic id (arrival-order
            // counter, never a clock) joins this request's endpoint span,
            // its `req.{id}` op span (Full level), its runlog events, and
            // — for `/link` — the response summary.
            let trace_id = engine.next_trace_id();
            let _endpoint = adamel_obs::span(endpoint_label(&req.method, &req.path));
            let _request = adamel_obs::op_span(&format!("req.{trace_id}"));
            let _trace = adamel_obs::runlog::trace_scope(trace_id);
            // A panicking handler must not take its worker down with it.
            // The engine's locks recover from poisoning, and a weight
            // whose lazy packing panicked is simply packed again next time.
            panic::catch_unwind(AssertUnwindSafe(|| route(engine, queue, workers, &req, trace_id)))
                .unwrap_or_else(|payload| {
                    engine.note_panic(panic_message(payload.as_ref()));
                    let body =
                        format!("{{\"error\": \"internal error\", \"trace_id\": {trace_id}}}\n");
                    (500, "Internal Server Error", body)
                })
        }
        Err(HttpError::TooLarge { declared, limit }) => (
            413,
            "Payload Too Large",
            http::error_body(&format!("body of {declared} bytes exceeds the {limit}-byte limit")),
        ),
        Err(HttpError::BadRequest(msg)) => (400, "Bad Request", http::error_body(&msg)),
        Err(HttpError::Io(_)) => return, // client went away; nothing to answer
    };
    // The response gets its own `timeout` to be written in, so a client
    // that stops reading a response larger than the socket buffers cannot
    // hold the worker either.
    let mut stream = Deadline { stream, at: Instant::now() + timeout };
    let _ = http::write_response(&mut stream, status, reason, &body);
}

/// The message a panic was raised with, when it is a string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(msg) => msg,
        None => payload.downcast_ref::<String>().map_or("non-string panic payload", String::as_str),
    }
}

/// A connection whose reads, or writes, must all finish by `at`: each
/// call waits at most for the time left, so a request that arrives one
/// slow byte at a time, or a response its client drains slowly or not at
/// all, still times out once, as a whole.
struct Deadline {
    stream: TcpStream,
    at: Instant,
}

impl Deadline {
    /// The time left before `at`, or a `TimedOut` error naming `what`.
    fn left(&self, what: &str) -> io::Result<Duration> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, format!("{what} timed out")));
        }
        Ok(left)
    }
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.left("request read")?;
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

impl Write for Deadline {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let left = self.left("response write")?;
        self.stream.set_write_timeout(Some(left))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

fn read_limited(stream: impl Read, max_body: usize) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    http::read_request(&mut reader, max_body)
}

/// The span name a request is timed under in the `/metrics` `endpoints`
/// section. One label per route so the histograms stay low-cardinality.
fn endpoint_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("GET", "/healthz") => "serve.healthz",
        ("GET", "/metrics") => "serve.metrics",
        ("POST", "/records") => "serve.records.upsert",
        ("DELETE", "/records") => "serve.records.delete",
        ("POST", "/link") => "serve.link",
        ("POST", "/model") => "serve.model",
        _ => "serve.other",
    }
}

fn route(
    engine: &Engine,
    queue: &BoundedQueue<TcpStream>,
    workers: &Workers,
    req: &Request,
    trace_id: u64,
) -> (u16, &'static str, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let live = workers.live.load(Ordering::Relaxed);
            (200, "OK", engine.health(workers.configured, live).to_json())
        }
        ("GET", "/metrics") => (200, "OK", engine.metrics_json(queue.len(), queue.capacity())),
        ("POST", "/records") => match api::parse_body(&req.body, RecordLine::from_json) {
            Ok(lines) => {
                let records = lines.into_iter().map(RecordLine::into_record).collect();
                let (inserted, replaced) = engine.upsert(records);
                (200, "OK", format!("{{\"inserted\": {inserted}, \"replaced\": {replaced}}}\n"))
            }
            Err(msg) => (400, "Bad Request", http::error_body(&msg)),
        },
        ("DELETE", "/records") => match api::parse_body(&req.body, DeleteLine::from_json) {
            Ok(lines) => {
                let keys: Vec<_> =
                    lines.iter().map(|d| (SourceId(d.source), d.entity_id)).collect();
                let removed = engine.delete(&keys);
                (200, "OK", format!("{{\"removed\": {removed}}}\n"))
            }
            Err(msg) => (400, "Bad Request", http::error_body(&msg)),
        },
        ("POST", "/link") => match api::parse_body(&req.body, RecordLine::from_json) {
            Ok(lines) if lines.len() > MAX_LINK_QUERIES => (
                413,
                "Payload Too Large",
                http::error_body(&format!(
                    "{} queries exceed the {MAX_LINK_QUERIES}-query limit per /link",
                    lines.len()
                )),
            ),
            Ok(lines) => {
                let queries: Vec<_> = lines.into_iter().map(RecordLine::into_record).collect();
                let outcome = engine.link(&queries);
                let mut body = String::new();
                for m in &outcome.matches {
                    body.push_str(&m.to_json());
                    body.push('\n');
                }
                body.push_str(&format!(
                    "{{\"summary\": {{\"queries\": {}, \"candidates\": {}, \"matches\": {}, \"corpus_records\": {}, \"trace_id\": {trace_id}}}}}\n",
                    queries.len(),
                    outcome.candidates,
                    outcome.matches.len(),
                    outcome.corpus_records,
                ));
                (200, "OK", body)
            }
            Err(msg) => (400, "Bad Request", http::error_body(&msg)),
        },
        ("POST", "/model") => {
            let mut reader = std::io::BufReader::new(req.body.as_slice());
            match adamel::load_model(&mut reader) {
                Ok(model) => match engine.swap_model(model) {
                    Ok(version) => (200, "OK", format!("{{\"model_version\": {version}}}\n")),
                    Err(msg) => (409, "Conflict", http::error_body(&msg)),
                },
                Err(e) => (400, "Bad Request", http::error_body(&format!("bad snapshot: {e}"))),
            }
        }
        ("GET" | "POST" | "DELETE", "/healthz" | "/metrics" | "/records" | "/link" | "/model") => {
            (405, "Method Not Allowed", http::error_body("method not allowed for this path"))
        }
        _ => (404, "Not Found", http::error_body("unknown path")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_worker_counts_itself_out_on_return_and_on_unwind() {
        let live = Arc::new(AtomicUsize::new(2));
        let returns = Arc::clone(&live);
        let worker = parallel::spawn_service("returns", move || {
            let _live = LiveWorker(&returns);
        });
        assert_eq!(worker.and_then(|h| h.join().map_err(io::Error::other)).ok(), Some(()));
        assert_eq!(live.load(Ordering::Relaxed), 1);
        let unwinds = Arc::clone(&live);
        let worker = parallel::spawn_service("unwinds", move || {
            let _live = LiveWorker(&unwinds);
            panic!("a worker loop unwinds");
        });
        assert!(worker.is_ok_and(|h| h.join().is_err()), "the worker panicked");
        assert_eq!(live.load(Ordering::Relaxed), 0);
    }
}
