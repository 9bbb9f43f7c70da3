//! The compiled plan's row-grouping counters. At `spans`, every predict
//! replay adds its window rows to `plan.window_rows` and their distinct
//! rows to `plan.window_distinct_rows`. This file runs in its own process,
//! so forcing the process-global trace level reaches no other suite.

use adamel::config::AdamelConfig;
use adamel::model::AdamelModel;
use adamel_schema::{EntityPair, Record, Schema, SourceId};

fn rec(source: u32, id: u64, name: &str, city: &str) -> Record {
    let mut r = Record::new(SourceId(source), id);
    r.set("name", name);
    r.set("city", city);
    r
}

/// The duplicate-heavy batches of `forward_plan.rs`: six names and four
/// cities (one empty), so each feature window repeats most of its rows.
fn pairs_n(n: u64) -> Vec<EntityPair> {
    let names = ["acme corp", "globex", "initech", "umbrella", "hooli", "stark"];
    let cities = ["berlin", "tokyo", "lima", ""];
    (0..n)
        .map(|i| {
            let nm = names[(i % 6) as usize];
            let c = cities[(i % 4) as usize];
            let other = names[((i + 1) % 6) as usize];
            let left = rec(0, i, nm, c);
            let right = if i % 3 == 0 { rec(1, i, nm, c) } else { rec(1, i, other, c) };
            EntityPair::unlabeled(left, right)
        })
        .collect()
}

#[test]
fn window_counters_reach_the_report_with_distinct_at_most_rows() {
    let m = AdamelModel::new(AdamelConfig::tiny(), Schema::new(vec!["name".into(), "city".into()]));
    let encoded = m.encode(&pairs_n(640));
    adamel_obs::set_forced(Some(adamel_obs::TraceLevel::Spans));
    adamel_obs::report::reset();
    m.predict_encoded(&encoded);
    let json = adamel_obs::report::render_json();
    let rows = adamel_obs::counter_value("plan.window_rows");
    let distinct = adamel_obs::counter_value("plan.window_distinct_rows");
    adamel_obs::set_forced(None);
    adamel_obs::report::reset();

    for name in ["plan.window_rows", "plan.window_distinct_rows"] {
        assert!(json.contains(&format!("\"{name}\"")), "missing counter {name} in {json}");
    }
    let (rows, distinct) = (rows.unwrap_or(0), distinct.unwrap_or(0));
    let windows = m.extractor().num_features() as u64;
    assert_eq!(rows, 640 * windows, "one row per pair and feature window");
    assert!(distinct > 0 && distinct <= rows, "distinct {distinct} vs rows {rows}");
    assert!(distinct < rows / 2, "these batches repeat most blocks: {distinct} of {rows}");
}
