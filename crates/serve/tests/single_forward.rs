//! One forward pass per served pair: with drift monitoring on, a link batch
//! runs the model once over the pairs the linker scores, and drift reads
//! that pass's scores and attention rows instead of running its own.
//!
//! The `adamel-obs` counters are process-global, so this file holds a
//! single test and runs in its own process.

use adamel::config::{AdamelConfig, Variant};
use adamel::train::fit;
use adamel::{AdamelModel, Linker, LinkerConfig};
use adamel_obs::json::Json;
use adamel_obs::{counter_value, TraceLevel};
use adamel_schema::{Domain, EntityPair, Record, Schema, SourceId};
use adamel_serve::{DriftConfig, Engine, EngineConfig};

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

#[test]
fn served_link_with_drift_runs_one_forward_per_scored_pair() {
    adamel_obs::runlog::set_forced_path(Some("")); // ledger off
    let drift = DriftConfig { seen_sources: [0u32, 1].into_iter().collect(), ..Default::default() };
    let engine = Engine::new(
        Linker::new(trained_model(), LinkerConfig::default()),
        EngineConfig { drift: Some(drift), compute_threads: 0 },
    );
    engine.upsert(vec![
        rec(1, 10, "alpha beta"),
        rec(1, 11, "gamma delta"),
        rec(2, 20, "alpha gamma"),
    ]);

    adamel_obs::set_forced(Some(TraceLevel::Spans));
    adamel_obs::report::reset();
    // The first batch freezes the drift baseline, the second is assessed
    // against it; both are assessed.
    let first = engine.link(&[rec(9, 1, "alpha beta"), rec(9, 2, "gamma delta")]);
    let second = engine.link(&[rec(8, 3, "alpha gamma")]);
    let predict_rows = counter_value("predict.rows");
    let pairs_scored = counter_value("link.pairs_scored");
    let attention_rows = counter_value("attention.rows");
    adamel_obs::set_forced(None);

    let candidates = (first.candidates + second.candidates) as u64;
    assert!(candidates > 0, "the queries must block onto the corpus");
    assert_eq!(pairs_scored, Some(candidates));
    assert_eq!(predict_rows, pairs_scored, "drift must not re-run predict");
    assert_eq!(attention_rows, None, "drift must not run the attention-only forward");

    let metrics = Json::parse(&engine.metrics_json(0, 1)).expect("metrics json");
    let drift_events = metrics.get("counters").and_then(|c| c.get("drift_events"));
    assert!(drift_events.and_then(Json::as_u64) >= Some(2), "drift assessed both batches");
    adamel_obs::runlog::set_forced_path(None);
}
