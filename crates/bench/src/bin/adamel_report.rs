//! `adamel-report`: run-ledger tooling for the `adamel-runlog/v1` JSONL
//! files produced under `ADAMEL_RUNLOG` (or a forced sink).
//!
//! Subcommands:
//!
//! * `gen --out PATH [--seed N] [--epochs N] [--perturb]` — run a seeded,
//!   deterministic Monitor-world experiment (train, evaluate, drift-assess,
//!   link) with the ledger enabled and write it to `PATH`. `--perturb`
//!   deliberately undertrains so the resulting ledger regresses — the CI
//!   gate uses it to prove the diff actually fails.
//! * `validate PATH` — parse every line, check the schema tag and that
//!   `seq` increases strictly.
//! * `summary PATH` — human-readable digest: manifest, final losses,
//!   metrics, drift warnings, link stats, and span quantiles reconstructed
//!   from the embedded `adamel-obs` report.
//! * `diff A B [--threshold T] [--mem-threshold M]` — compare two
//!   ledgers. Metric deltas gate (exit 1 when a metric regresses by more
//!   than `T`, default 0.02); memory-gauge peaks from the embedded obs
//!   reports gate too (exit 1 when a gauge's peak grows by more than the
//!   `M` fraction, default 0.25); drift warning counts and span times are
//!   reported informationally.
//!
//! Exit codes: 0 ok, 1 gate failure (diff regression), 2 usage / IO /
//! parse error.

use adamel::drift::{DriftBaseline, DriftMonitor};
use adamel::{evaluate_f1, evaluate_prauc, fit, AdamelConfig, AdamelModel, Variant};
use adamel::{Linker, LinkerConfig};
use adamel_data::{make_mel_split, MonitorConfig, MonitorWorld, Scenario, SplitCounts};
use adamel_obs::json::Json;
use adamel_obs::{runlog, Histogram, TraceLevel};
use adamel_schema::Record;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "adamel-report: run-ledger tooling\n\
         usage:\n\
         \x20 adamel-report gen --out PATH [--seed N] [--epochs N] [--perturb]\n\
         \x20 adamel-report validate PATH\n\
         \x20 adamel-report summary PATH\n\
         \x20 adamel-report diff A B [--threshold T] [--mem-threshold M]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("summary") => cmd_summary(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        _ => usage(),
    }
}

// ---------------------------------------------------------------- gen ----

fn cmd_gen(args: &[String]) -> ExitCode {
    let mut out: Option<String> = None;
    let mut seed = 7u64;
    let mut epochs = 40usize;
    let mut perturb = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).cloned();
            }
            "--seed" => {
                i += 1;
                seed = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => v,
                    None => return usage(),
                };
            }
            "--epochs" => {
                i += 1;
                epochs = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => v,
                    None => return usage(),
                };
            }
            "--perturb" => perturb = true,
            _ => return usage(),
        }
        i += 1;
    }
    let Some(out) = out else { return usage() };
    if perturb {
        // Undertrain: the attention head and classifier barely move off
        // their seeded initialization, so PR-AUC/F1 drop well below the
        // converged run and the diff gate must flag it.
        epochs = 1;
    }

    runlog::set_forced_path(Some(&out));
    adamel_obs::set_forced(Some(TraceLevel::Spans));
    adamel_obs::report::reset();

    let world = MonitorWorld::generate(&MonitorConfig::tiny(), seed);
    let seen = world.seen_sources();
    let unseen = world.unseen_sources();
    let split = make_mel_split(
        &world.records_for(None),
        "page_title",
        &seen,
        &unseen,
        Scenario::Disjoint,
        &SplitCounts::tiny(),
        seed,
    );

    let cfg = AdamelConfig { epochs, seed, ..AdamelConfig::tiny() };
    let mut model = AdamelModel::new(cfg, world.schema().clone());
    fit(&mut model, Variant::Hyb, &split.train, Some(&split.test), Some(&split.support));

    let prauc = evaluate_prauc(&model, &split.test);
    let f1 = evaluate_f1(&model, &split.test);

    let pool = world.records_for(Some(&seen));
    let schema = model.extractor().schema();
    let baseline =
        DriftBaseline::build_with_pool(schema, &model.score(split.train.pairs.clone()), &pool);
    let monitor = DriftMonitor::new(baseline);
    let drifts = monitor.assess(schema, &model.score(split.test.pairs.clone()));
    let mut warnings = 0usize;
    for d in &drifts {
        warnings += d.warnings.len();
        d.emit_runlog();
    }

    // One end-to-end linking pass over two unseen sources exercises the
    // per-link-batch ledger event.
    let left: Vec<Record> = world.records_for(Some(&unseen[..1]));
    let right: Vec<Record> = world.records_for(Some(&unseen[1..2]));
    let linker_cfg = LinkerConfig { block_attrs: vec!["page_title".into()], ..Default::default() };
    let matches = Linker::new(model, linker_cfg).link(&left, &right).len();

    // Embed the span report (compacted to one line) so `summary`/`diff`
    // can show where the time went.
    let compact: String = adamel_obs::report::render_json().lines().map(str::trim).collect();
    runlog::event("obs_report").raw("report", &compact).emit();
    runlog::flush();
    adamel_obs::set_forced(None);
    runlog::set_forced_path(Some("")); // stop logging before we exit

    println!(
        "wrote {out}: seed {seed}, epochs {epochs}, pr_auc {prauc:.4}, best_f1 {f1:.4}, \
         {} drift-assessed sources ({warnings} warnings), {matches} links",
        drifts.len()
    );
    ExitCode::SUCCESS
}

// ------------------------------------------------------------- parsing ----

/// Parses a ledger: every line must be a JSON object carrying the
/// `adamel-runlog/v1` schema tag, an `event` kind, and a strictly
/// increasing `seq`.
fn parse_ledger(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut events = Vec::new();
    let mut last_seq: Option<u64> = None;
    for (lineno, line) in text.lines().enumerate() {
        let v = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let schema = v.get("schema").and_then(Json::as_str);
        if schema != Some(runlog::SCHEMA) {
            return Err(format!(
                "{path}:{}: schema {schema:?}, want {:?}",
                lineno + 1,
                runlog::SCHEMA
            ));
        }
        if v.get("event").and_then(Json::as_str).is_none() {
            return Err(format!("{path}:{}: missing event kind", lineno + 1));
        }
        let seq = v
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}:{}: missing seq", lineno + 1))?;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!("{path}:{}: seq {seq} after {prev}", lineno + 1));
            }
        }
        last_seq = Some(seq);
        events.push(v);
    }
    Ok(events)
}

fn kind(e: &Json) -> &str {
    e.get("event").and_then(Json::as_str).unwrap_or("?")
}

/// Last value of each `metric` event, keyed by name.
fn metrics_of(events: &[Json]) -> BTreeMap<String, (f64, bool)> {
    let mut out = BTreeMap::new();
    for e in events.iter().filter(|e| kind(e) == "metric") {
        let (Some(name), Some(value)) =
            (e.get("name").and_then(Json::as_str), e.get("value").and_then(Json::as_f64))
        else {
            continue;
        };
        let higher = e.get("higher_is_better").and_then(Json::as_bool).unwrap_or(true);
        out.insert(name.to_string(), (value, higher));
    }
    out
}

/// Drift warning counts per signal name.
fn warns_of(events: &[Json]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for e in events.iter().filter(|e| kind(e) == "warn") {
        if let Some(sig) = e.get("signal").and_then(Json::as_str) {
            *out.entry(sig.to_string()).or_insert(0) += 1;
        }
    }
    out
}

/// Span name → (count, total_ms, histogram rebuilt from the bucket triples)
/// from the embedded `obs_report` event, if any.
fn spans_of(events: &[Json]) -> BTreeMap<String, (u64, f64, Histogram)> {
    let mut out = BTreeMap::new();
    let Some(report) =
        events.iter().rev().find(|e| kind(e) == "obs_report").and_then(|e| e.get("report"))
    else {
        return out;
    };
    let Some(spans) = report.get("spans").and_then(Json::as_object) else { return out };
    for (name, span) in spans {
        let count = span.get("count").and_then(Json::as_u64).unwrap_or(0);
        let total_ms = span.get("total_ms").and_then(Json::as_f64).unwrap_or(0.0);
        let mut triples = Vec::new();
        if let Some(buckets) = span.get("buckets").and_then(Json::as_array) {
            for b in buckets {
                let Some(t) = b.as_array() else { continue };
                if let (Some(lo), Some(hi), Some(n)) = (
                    t.first().and_then(Json::as_u64),
                    t.get(1).and_then(Json::as_u64),
                    t.get(2).and_then(Json::as_u64),
                ) {
                    triples.push((lo, hi, n));
                }
            }
        }
        out.insert(name.clone(), (count, total_ms, Histogram::from_buckets(&triples)));
    }
    out
}

/// Memory-gauge peaks from the embedded `obs_report` event's `"mem"`
/// section, keyed by gauge name.
fn mems_of(events: &[Json]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Some(report) =
        events.iter().rev().find(|e| kind(e) == "obs_report").and_then(|e| e.get("report"))
    else {
        return out;
    };
    let Some(gauges) = report.get("mem").and_then(|m| m.get("gauges")).and_then(Json::as_object)
    else {
        return out;
    };
    for (name, gauge) in gauges {
        if let Some(peak) = gauge.get("peak").and_then(Json::as_u64) {
            out.insert(name.clone(), peak);
        }
    }
    out
}

// ---------------------------------------------------------- validate ----

fn cmd_validate(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    match parse_ledger(path) {
        Ok(events) => {
            let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
            for e in &events {
                *by_kind.entry(kind(e)).or_insert(0) += 1;
            }
            let detail: Vec<String> = by_kind.iter().map(|(k, n)| format!("{n} {k}")).collect();
            println!("{path}: {} events ok ({})", events.len(), detail.join(", "));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("adamel-report: {e}");
            ExitCode::from(2)
        }
    }
}

// ----------------------------------------------------------- summary ----

fn cmd_summary(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let events = match parse_ledger(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("adamel-report: {e}");
            return ExitCode::from(2);
        }
    };

    println!("ledger {path}: {} events", events.len());
    if let Some(m) = events.iter().find(|e| kind(e) == "manifest") {
        let field = |k: &str| -> String {
            match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                Some(v) => v.as_f64().map(|f| format!("{f}")).unwrap_or_default(),
                None => "?".into(),
            }
        };
        println!(
            "manifest: {} seed {} epochs {} threads {} trace {}",
            field("variant"),
            field("seed"),
            field("epochs"),
            field("threads"),
            field("trace"),
        );
    }
    if let Some(e) = events.iter().rev().find(|e| kind(e) == "epoch") {
        let num = |k: &str| e.get(k).and_then(Json::as_f64);
        print!(
            "final epoch {}: loss {:.5}",
            e.get("epoch").and_then(Json::as_u64).unwrap_or(0),
            num("loss").unwrap_or(f64::NAN),
        );
        for (label, key) in [("l_base", "l_base"), ("l_kl", "l_kl"), ("l_support", "l_support")] {
            if let Some(v) = num(key) {
                print!(" {label} {v:.5}");
            }
        }
        if let Some(v) = num("attention_entropy") {
            print!(" attention_entropy {v:.4}");
        }
        println!();
    }
    for (name, (value, higher)) in metrics_of(&events) {
        println!(
            "metric {name}: {value:.4} ({})",
            if higher { "higher better" } else { "lower better" }
        );
    }
    let warns = warns_of(&events);
    if warns.is_empty() {
        println!("drift: no warnings");
    } else {
        for (sig, n) in &warns {
            println!("drift warn {sig}: {n} source(s)");
        }
    }
    for e in events.iter().filter(|e| kind(e) == "link") {
        let int = |k: &str| e.get(k).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "link: {} candidates, {} scored, {} matches",
            int("candidates"),
            int("scored"),
            int("matches"),
        );
    }
    let spans = spans_of(&events);
    if !spans.is_empty() {
        println!("spans (from embedded obs report):");
        for (name, (count, total_ms, h)) in &spans {
            let q = |v: Option<u64>| v.map(|n| format!("{n}")).unwrap_or_else(|| "-".into());
            println!(
                "  {name}: count {count} total {total_ms:.3} ms p50 {} p90 {} p99 {} ns",
                q(h.p50()),
                q(h.p90()),
                q(h.p99()),
            );
        }
    }
    ExitCode::SUCCESS
}

// -------------------------------------------------------------- diff ----

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut threshold = 0.02f64;
    let mut mem_threshold = 0.25f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                i += 1;
                threshold = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => v,
                    None => return usage(),
                };
            }
            "--mem-threshold" => {
                i += 1;
                mem_threshold = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) => v,
                    None => return usage(),
                };
            }
            p => paths.push(p.to_string()),
        }
        i += 1;
    }
    let [a_path, b_path] = paths.as_slice() else { return usage() };
    let (a, b) = match (parse_ledger(a_path), parse_ledger(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("adamel-report: {e}");
            return ExitCode::from(2);
        }
    };

    let (ma, mb) = (metrics_of(&a), metrics_of(&b));
    let mut regressions = 0usize;
    for (name, (va, higher)) in &ma {
        let Some((vb, _)) = mb.get(name) else {
            println!("metric {name}: {va:.4} -> (absent in {b_path})");
            continue;
        };
        let delta = vb - va;
        let regressed = if *higher { delta < -threshold } else { delta > threshold };
        println!(
            "metric {name}: {va:.4} -> {vb:.4} (delta {delta:+.4}){}",
            if regressed { "  REGRESSION" } else { "" }
        );
        if regressed {
            regressions += 1;
        }
    }
    for (name, (vb, _)) in &mb {
        if !ma.contains_key(name) {
            println!("metric {name}: (absent in {a_path}) -> {vb:.4}");
        }
    }

    let (wa, wb) = (warns_of(&a), warns_of(&b));
    let mut signals: Vec<&String> = wa.keys().chain(wb.keys()).collect();
    signals.sort();
    signals.dedup();
    for sig in signals {
        let (na, nb) = (wa.get(sig).copied().unwrap_or(0), wb.get(sig).copied().unwrap_or(0));
        if na != nb {
            println!("drift warn {sig}: {na} -> {nb} source(s)");
        }
    }

    // Span times are wall-clock and jitter run to run; only surface the
    // ones that moved enough to mean something (>25% and >1 ms).
    let (sa, sb) = (spans_of(&a), spans_of(&b));
    for (name, (_, ta, _)) in &sa {
        if let Some((_, tb, _)) = sb.get(name) {
            if (tb - ta).abs() > 1.0 && (tb - ta).abs() > 0.25 * ta.max(*tb) {
                println!("span {name}: {ta:.3} -> {tb:.3} ms (informational)");
            }
        }
    }

    // Memory-gauge peaks are logical byte counts (deterministic per seed,
    // unlike wall-clock spans), so they gate: a gauge whose peak grew past
    // the fractional threshold is a memory regression.
    let (mema, memb) = (mems_of(&a), mems_of(&b));
    let mut mem_regressions = 0usize;
    for (name, &pa) in &mema {
        let Some(&pb) = memb.get(name) else {
            println!("mem {name}: {pa} B -> (absent in {b_path})");
            continue;
        };
        let regressed = pa > 0 && pb as f64 > pa as f64 * (1.0 + mem_threshold);
        if regressed || pa != pb {
            println!("mem {name}: {pa} -> {pb} B{}", if regressed { "  REGRESSION" } else { "" });
        }
        if regressed {
            mem_regressions += 1;
        }
    }
    for (name, &pb) in &memb {
        if !mema.contains_key(name) {
            println!("mem {name}: (absent in {a_path}) -> {pb} B");
        }
    }

    if regressions > 0 || mem_regressions > 0 {
        if regressions > 0 {
            println!("FAIL: {regressions} metric(s) regressed beyond {threshold}");
        }
        if mem_regressions > 0 {
            println!("FAIL: {mem_regressions} memory gauge(s) grew beyond {mem_threshold}");
        }
        ExitCode::FAILURE
    } else {
        println!("PASS: no metric regression beyond {threshold}, no memory growth beyond {mem_threshold}");
        ExitCode::SUCCESS
    }
}
