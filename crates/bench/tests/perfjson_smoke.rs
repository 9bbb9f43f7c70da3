//! The `perfjson` counters file: a fresh run must meet the bench contract
//! and equal the committed `BENCH_parallel.json` byte for byte.

use adamel_obs::json::Json;
use std::process::Command;
use std::sync::OnceLock;

/// The document one `perfjson --out` run writes, shared by both tests.
fn fresh_output() -> &'static str {
    static OUT: OnceLock<String> = OnceLock::new();
    OUT.get_or_init(|| {
        let out = std::env::temp_dir().join(format!("perfjson-{}.json", std::process::id()));
        let status = Command::new(env!("CARGO_BIN_EXE_perfjson"))
            .arg("--out")
            .arg(&out)
            .stdout(std::process::Stdio::null())
            .status()
            .expect("spawn perfjson");
        assert!(status.success(), "perfjson failed: {status:?}");
        let text = std::fs::read_to_string(&out).expect("read output");
        let _ = std::fs::remove_file(&out);
        text
    })
}

#[test]
fn output_meets_the_bench_contract() {
    let doc = Json::parse(fresh_output()).expect("output is valid JSON");
    let top = doc.as_object().expect("top level is an object");
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["cache", "mem", "rows"], "document sections");

    // The cache section: the warm run is a pure-hit phase over non-trivial
    // contents.
    let cache = doc.get("cache").expect("cache object");
    let num = |k: &str| cache.get(k).and_then(Json::as_u64).expect(k);
    assert_eq!(num("misses"), 0, "warm-phase misses");
    assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(1.0), "warm-phase hit_rate");
    assert!(num("distinct_records") >= 1);
    assert!(num("interned_tokens") >= 1);

    let mem = doc.get("mem").expect("mem object");
    assert_eq!(mem.get("schema").and_then(Json::as_str), Some("adamel-mem/v1"));
    assert!(mem.get("gauges").and_then(Json::as_object).is_some(), "mem.gauges");

    let rows = doc.get("rows").and_then(Json::as_array).expect("rows array");
    let kernels: Vec<&str> =
        rows.iter().map(|r| r.get("kernel").and_then(Json::as_str).expect("kernel")).collect();
    assert_eq!(
        kernels,
        [
            "matmul",
            "matmul_tn",
            "matmul_nt",
            "encode_pairs_cold",
            "encode_pairs",
            "predict",
            "train_step"
        ]
    );
    for (kernel, row) in kernels.iter().zip(rows) {
        assert!(row.get("n").and_then(Json::as_u64).is_some_and(|n| n > 0), "{kernel}: n");
        assert!(row.get("peak_bytes").and_then(Json::as_u64).is_some(), "{kernel}: peak_bytes");
        let flops = row.get("flops").and_then(Json::as_u64).expect("flops");
        if kernel.starts_with("matmul") || kernel == &"predict" || kernel == &"train_step" {
            assert!(flops > 0, "{kernel}: flops = {flops}");
        }
    }
}

#[test]
fn output_equals_committed_bench_parallel_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    let committed = std::fs::read_to_string(path).expect("read BENCH_parallel.json");
    assert!(
        fresh_output() == committed,
        "perfjson output differs from the committed BENCH_parallel.json; if the change is \
         intended, regenerate it from the repository root with \
         `cargo run --release -p adamel-bench --bin perfjson` and commit it\n\
         --- fresh ---\n{}",
        fresh_output()
    );
}
