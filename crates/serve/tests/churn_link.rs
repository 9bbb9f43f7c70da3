//! Served results under corpus churn: a seeded interleaving of inserts,
//! same-key replacements, deletes (some of a record that is a candidate of
//! the very next batch) and link batches. After every batch,
//! `Engine::link` must equal the offline `Linker::link` over the key-ordered
//! snapshot of a `LiveIndex` mirror that receives the same writes — same
//! matches, same order, same score bits.

use adamel::config::{AdamelConfig, Variant};
use adamel::io::{load_model, save_model};
use adamel::train::fit;
use adamel::{AdamelModel, Linker, LinkerConfig};
use adamel_schema::{Domain, EntityPair, LiveIndex, Record, RecordKey, Schema, SourceId};
use adamel_serve::{Engine, EngineConfig};

const VOCAB: [&str; 8] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"];

/// `(query, source, entity_id, score bits)`, the daemon's view of a match.
type Match = (usize, u32, u64, u32);

/// SplitMix64: a seeded stream, so every run replays the same schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn name(&mut self) -> String {
        let words = 1 + self.below(3);
        let picked: Vec<&str> =
            (0..words).map(|_| VOCAB[self.below(VOCAB.len() as u64) as usize]).collect();
        picked.join(" ")
    }
}

fn rec(source: u32, id: u64, name: &str) -> Record {
    let mut r = Record::new(SourceId(source), id);
    r.set("name", name);
    r
}

fn model_bytes() -> Vec<u8> {
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
    let mut bytes = Vec::new();
    save_model(&model, &mut bytes).expect("serialize model");
    bytes
}

fn offline(linker: &Linker, queries: &[Record], mirror: &LiveIndex) -> Vec<Match> {
    let corpus = mirror.snapshot();
    linker
        .link(queries, &corpus)
        .iter()
        .map(|m| {
            let r = &corpus[m.right];
            (m.left, r.source.0, r.entity_id, m.score.to_bits())
        })
        .collect()
}

/// Runs one seeded schedule against a fresh engine under `cfg`; returns
/// `(links, links with matches, deletes of a pending candidate)`.
fn churn(model: &[u8], cfg: LinkerConfig, seed: u64) -> (usize, usize, usize) {
    let load = || load_model(&mut &model[..]).expect("deserialize model");
    let engine = Engine::new(Linker::new(load(), cfg.clone()), EngineConfig::default());
    let reference = Linker::new(load(), cfg.clone());
    let mut mirror = LiveIndex::new(cfg.block_attrs.clone());
    let limit = cfg.max_candidates_per_record;
    let mut rng = Rng(seed);
    let (mut links, mut matched, mut candidate_deletes) = (0, 0, 0);

    for step in 0..160 {
        let mut queries: Option<Vec<Record>> = None;
        match rng.below(10) {
            // Insert (or replace, when the key is taken) a batch.
            0..=3 => {
                let batch: Vec<Record> = (0..1 + rng.below(4))
                    .map(|_| rec(1 + rng.below(2) as u32, rng.below(16), &rng.name()))
                    .collect();
                engine.upsert(batch.clone());
                for r in batch {
                    mirror.upsert(r);
                }
            }
            // Replace an existing record under its own key.
            4 => {
                let snap = mirror.snapshot();
                if !snap.is_empty() {
                    let old = &snap[rng.below(snap.len() as u64) as usize];
                    let r = rec(old.source.0, old.entity_id, &rng.name());
                    assert_eq!(engine.upsert(vec![r.clone()]), (0, 1));
                    assert!(mirror.upsert(r));
                }
            }
            // Delete a present key and an absent one.
            5 => {
                let snap = mirror.snapshot();
                let mut keys: Vec<RecordKey> = vec![(SourceId(7), 999)];
                if !snap.is_empty() {
                    let r = &snap[rng.below(snap.len() as u64) as usize];
                    keys.push((r.source, r.entity_id));
                }
                let removed = keys.iter().filter(|(s, id)| mirror.delete(*s, *id)).count();
                assert_eq!(engine.delete(&keys), removed);
            }
            // Delete a candidate of the next batch, then link that batch.
            6 => {
                let batch: Vec<Record> =
                    (0..1 + rng.below(3)).map(|i| rec(9, step * 8 + i, &rng.name())).collect();
                if let Some(&(s, id)) = mirror.candidates(&batch[0], limit).first() {
                    assert!(mirror.delete(s, id));
                    assert_eq!(engine.delete(&[(s, id)]), 1);
                    candidate_deletes += 1;
                }
                queries = Some(batch);
            }
            _ => {
                queries = Some(
                    (0..1 + rng.below(4)).map(|i| rec(9, step * 8 + i, &rng.name())).collect(),
                );
            }
        }
        assert_eq!(engine.corpus_len(), mirror.len(), "step {step}: corpus sizes diverged");
        let Some(queries) = queries else { continue };

        let served = engine.link(&queries);
        let got: Vec<Match> = served
            .matches
            .iter()
            .map(|m| (m.query, m.source, m.entity_id, m.score.to_bits()))
            .collect();
        assert_eq!(got, offline(&reference, &queries, &mirror), "step {step}: served != offline");
        let expected: usize = queries.iter().map(|q| mirror.candidates(q, limit).len()).sum();
        assert_eq!(served.candidates, expected, "step {step}: candidate count");
        assert_eq!(served.corpus_records, mirror.len(), "step {step}: corpus_records");
        links += 1;
        matched += usize::from(!got.is_empty());
    }
    (links, matched, candidate_deletes)
}

#[test]
fn served_links_equal_offline_links_under_churn() {
    let model = model_bytes();
    let configs = [
        LinkerConfig::default(),
        // Every scored pair is a match, at a cap that binds.
        LinkerConfig { threshold: 0.0, max_candidates_per_record: 3, ..Default::default() },
        // One-to-one reduction across queries that share candidates.
        LinkerConfig {
            threshold: 0.0,
            max_candidates_per_record: 4,
            one_to_one: true,
            ..Default::default()
        },
    ];
    for (i, cfg) in configs.into_iter().enumerate() {
        let (links, matched, candidate_deletes) = churn(&model, cfg, 0xC0FFEE + i as u64);
        assert!(links >= 30, "config {i}: only {links} links");
        assert!(matched >= 10, "config {i}: only {matched} links matched");
        assert!(candidate_deletes >= 3, "config {i}: only {candidate_deletes} candidate deletes");
    }
}
