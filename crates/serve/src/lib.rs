//! # adamel-serve
//!
//! A long-running entity-linkage daemon over the AdaMEL pipeline: a
//! std-only HTTP/JSONL server hand-rolled on `std::net` (no framework, no
//! dependencies beyond the workspace crates), serving the deployment shape
//! the paper motivates — continuously arriving records from previously
//! unseen sources, scored against a trained model without retraining.
//!
//! ## What it serves
//!
//! | endpoint | method | effect |
//! |---|---|---|
//! | `/records` | POST | upsert JSONL records into the incremental [`LiveIndex`](adamel_schema::LiveIndex) |
//! | `/records` | DELETE | delete records by `(source, entity_id)` |
//! | `/link` | POST | block + score a JSONL batch of query records against the corpus |
//! | `/model` | POST | load an `adamel-model v2` snapshot and atomically hot-swap it |
//! | `/healthz` | GET | liveness + model version + corpus size + re-adaptation flag |
//! | `/metrics` | GET | the `adamel-obs` span report, run-ledger event counts, and serve counters |
//!
//! ## Architecture (DESIGN.md §16)
//!
//! One **accept thread** owns the listener and pushes accepted connections
//! onto a bounded [`queue`]; when the queue is full the connection is
//! answered `429` immediately — explicit backpressure instead of an
//! unbounded backlog. A fixed pool of **worker threads** pops connections
//! and handles one request each. All threads come from
//! [`adamel_tensor::parallel::spawn_service`] — the workspace's
//! `no-thread-spawn` lint confines `std::thread` to the parallel runtime,
//! so every thread in the process remains accounted for at one choke
//! point.
//!
//! Scoring routes through [`Linker::score_candidates`]
//! (`adamel::pipeline`), the exact batch path `Linker::link` uses offline
//! (the incremental index and the batch `BlockingIndex` call one
//! candidate ranking), so a served batch is **bit-identical** to
//! the offline pipeline on the same pairs — through the model's two-phase
//! inference, at any thread count.
//!
//! The model is swapped atomically: requests clone an
//! `Arc<Linker>` out of an `RwLock` and score against that clone, so a
//! swap never changes the model under a request already in flight.
//!
//! Live drift monitoring ([`adamel::drift`]) runs per scored batch:
//! per-source C1/C2/C3 + attention-shift + calibration assessment emitted
//! as `drift`/`warn` run-ledger events, plus an unseen-source-dominance
//! hook that raises `readapt_recommended` when traffic from sources never
//! seen in training starts dominating — the signal that an AdaMEL-zero
//! re-adaptation pass is warranted.
//!
//! [`Linker::score_candidates`]: adamel::Linker::score_candidates

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod api;
pub mod engine;
pub mod http;
pub mod queue;
pub mod server;

pub use api::{DeleteLine, HealthResponse, LinkMatch, RecordLine};
pub use engine::{DriftConfig, Engine, EngineConfig, LinkOutcome};
pub use queue::{BoundedQueue, PushError};
pub use server::{Server, ServerConfig, MAX_LINK_QUERIES};
