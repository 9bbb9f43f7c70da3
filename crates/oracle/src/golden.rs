//! Byte-exact golden fixtures pinning the model outputs across PRs.
//!
//! A fixture is a small self-contained text file under `tests/golden/`: the
//! config, schema, and entity pairs it was computed from, plus the expected
//! logits, attention rows, and losses of the *untrained* model at the
//! config's seed (initialization is deterministic, so no training is needed
//! to pin the full Eq. 3–10 path). Expected values are stored as `f32` bit
//! patterns and compared bit-for-bit: any drift — kernel reorderings, fused
//! ops, encoder changes — fails the suite until deliberately re-blessed with
//! `cargo run -p adamel-oracle --bin golden -- --bless`.
//!
//! The pairs are serialized *into* the fixture and read back for evaluation,
//! so regenerating the synthetic worlds differently does not invalidate old
//! fixtures; only the math stack under test does.

use crate::modelref::{encode_pairs_ref, ModelOracle};
use crate::refmat::RefMatrix;
use adamel::{AdamelConfig, AdamelModel};
use adamel_schema::{EntityPair, FeatureMode, Record, Schema, SourceId};
use adamel_tensor::{Graph, Matrix};
use std::path::PathBuf;

const MAGIC: &str = "adamel-golden v1";

/// A fixture failed to parse or verify.
#[derive(Debug, Clone)]
pub struct FixtureError(pub String);

impl std::fmt::Display for FixtureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for FixtureError {}

fn err(msg: impl Into<String>) -> FixtureError {
    FixtureError(msg.into())
}

/// One golden fixture: inputs plus expected bit patterns.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Fixture name; the file is `tests/golden/<name>.golden`.
    pub name: String,
    /// Model configuration the expectations were computed under.
    pub cfg: AdamelConfig,
    /// Aligned schema.
    pub schema: Schema,
    /// The serialized evaluation pairs.
    pub pairs: Vec<EntityPair>,
    /// Expected logits, `n` bit patterns.
    pub logits_bits: Vec<u32>,
    /// Expected attention rows, `n * F` bit patterns (row-major).
    pub attention_bits: Vec<u32>,
    /// Expected `L_base` (Eq. 8) bit pattern.
    pub loss_base_bits: u32,
    /// Expected `L_un` (Eq. 10, self-targeted KL) bit pattern.
    pub loss_zero_bits: u32,
}

/// The repository's `tests/golden/` directory.
pub fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn mode_tag(mode: FeatureMode) -> &'static str {
    match mode {
        FeatureMode::SharedOnly => "shared",
        FeatureMode::UniqueOnly => "unique",
        FeatureMode::Both => "both",
    }
}

fn mode_from_tag(tag: &str) -> Result<FeatureMode, FixtureError> {
    match tag {
        "shared" => Ok(FeatureMode::SharedOnly),
        "unique" => Ok(FeatureMode::UniqueOnly),
        "both" => Ok(FeatureMode::Both),
        other => Err(err(format!("unknown feature mode {other}"))),
    }
}

/// Whitespace-safe escaping so attribute names and values survive the
/// token-per-word file format.
fn escape(s: &str) -> String {
    if s.is_empty() {
        return "\\0".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, FixtureError> {
    if s == "\\0" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            other => return Err(err(format!("bad escape \\{other:?}"))),
        }
    }
    Ok(out)
}

/// The expected outputs of one fixture evaluation, as bit patterns.
struct Expected {
    logits: Vec<u32>,
    attention: Vec<u32>,
    loss_base: u32,
    loss_zero: u32,
}

/// Evaluates the production stack on a fixture's inputs: one monolithic
/// forward graph, `L_base` over the pair labels, and the self-targeted
/// zero-shot loss `(1-λ)·L_base + λ·KL(mean f(x) || f(x_i))` — composed with
/// the same graph ops training uses, so the bits match the training path.
fn evaluate(cfg: &AdamelConfig, schema: &Schema, pairs: &[EntityPair]) -> Expected {
    let model = AdamelModel::new(cfg.clone(), schema.clone());
    let encoded = model.encode(pairs);
    let mut g = Graph::new();
    let (att, logits) = model.forward_graph(&mut g, &encoded);
    let labels: Vec<f32> =
        pairs.iter().map(|p| if p.label == Some(true) { 1.0 } else { 0.0 }).collect();
    let y = Matrix::from_vec(labels.len(), 1, labels);
    let base = g.bce_with_logits(logits, y);
    let mean = g.value(att).mean_rows();
    let kl = g.kl_const_rows(att, mean, 1e-7);
    let base_term = g.scale(base, 1.0 - cfg.lambda);
    let kl_term = g.scale(kl, cfg.lambda);
    let zero = g.add(base_term, kl_term);
    Expected {
        logits: g.value(logits).as_slice().iter().map(|v| v.to_bits()).collect(),
        attention: g.value(att).as_slice().iter().map(|v| v.to_bits()).collect(),
        loss_base: g.value(base).item().to_bits(),
        loss_zero: g.value(zero).item().to_bits(),
    }
}

impl Fixture {
    /// Computes a fixture's expectations from its inputs (the bless path).
    pub fn compute(
        name: impl Into<String>,
        cfg: AdamelConfig,
        schema: Schema,
        pairs: Vec<EntityPair>,
    ) -> Fixture {
        assert!(!pairs.is_empty(), "Fixture::compute: empty pair set");
        let expected = evaluate(&cfg, &schema, &pairs);
        Fixture {
            name: name.into(),
            cfg,
            schema,
            pairs,
            logits_bits: expected.logits,
            attention_bits: expected.attention,
            loss_base_bits: expected.loss_base,
            loss_zero_bits: expected.loss_zero,
        }
    }

    /// Renders the fixture file.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        let cfg = &self.cfg;
        out.push_str(&format!(
            "config {} {} {} {} {} {} {} {} {:08x}\n",
            cfg.embed_dim,
            cfg.feature_dim,
            cfg.attention_dim,
            cfg.hidden_dim,
            cfg.crop,
            mode_tag(cfg.feature_mode),
            cfg.seed,
            u8::from(cfg.uniform_attention),
            cfg.lambda.to_bits(),
        ));
        out.push_str(&format!("schema {}\n", self.schema.attributes().join(" ")));
        out.push_str(&format!("pairs {}\n", self.pairs.len()));
        for p in &self.pairs {
            let label = match p.label {
                Some(true) => "1",
                Some(false) => "0",
                None => "?",
            };
            out.push_str(&format!(
                "pair {label} {} {} {} {}\n",
                p.left.source.0, p.left.entity_id, p.right.source.0, p.right.entity_id
            ));
            for (side, rec) in [("la", &p.left), ("ra", &p.right)] {
                for (k, v) in &rec.values {
                    out.push_str(&format!("{side} {} {}\n", escape(k), escape(v)));
                }
            }
            out.push_str("end\n");
        }
        let hex = |bits: &[u32]| -> String {
            bits.iter().map(|b| format!("{b:08x}")).collect::<Vec<_>>().join(" ")
        };
        let f = self.schema.len() * self.cfg.feature_mode.per_attribute();
        out.push_str(&format!("logits {} {}\n", self.logits_bits.len(), hex(&self.logits_bits)));
        out.push_str(&format!(
            "attention {} {} {}\n",
            self.pairs.len(),
            f,
            hex(&self.attention_bits)
        ));
        out.push_str(&format!("loss_base {:08x}\n", self.loss_base_bits));
        out.push_str(&format!("loss_zero {:08x}\n", self.loss_zero_bits));
        out
    }

    /// Parses a fixture file written by [`serialize`](Self::serialize).
    pub fn parse(name: impl Into<String>, text: &str) -> Result<Fixture, FixtureError> {
        let mut lines = text.lines();
        let mut next = || lines.next().ok_or_else(|| err("unexpected end of fixture"));
        if next()? != MAGIC {
            return Err(err("not an adamel golden fixture"));
        }

        let config_line = next()?.to_string();
        let parts: Vec<&str> = config_line.split_whitespace().collect();
        if parts.len() != 10 || parts[0] != "config" {
            return Err(err("malformed config line"));
        }
        let p = |i: usize| -> Result<usize, FixtureError> {
            parts[i].parse().map_err(|_| err("bad integer in config"))
        };
        let mut cfg = AdamelConfig::tiny();
        cfg.embed_dim = p(1)?;
        cfg.feature_dim = p(2)?;
        cfg.attention_dim = p(3)?;
        cfg.hidden_dim = p(4)?;
        cfg.crop = p(5)?;
        cfg.feature_mode = mode_from_tag(parts[6])?;
        cfg.seed = parts[7].parse().map_err(|_| err("bad seed"))?;
        cfg.uniform_attention = parts[8] == "1";
        cfg.lambda =
            f32::from_bits(u32::from_str_radix(parts[9], 16).map_err(|_| err("bad lambda bits"))?);

        let schema_line = next()?.to_string();
        let attrs: Vec<String> = schema_line
            .strip_prefix("schema ")
            .ok_or_else(|| err("malformed schema line"))?
            .split_whitespace()
            .map(str::to_owned)
            .collect();
        if attrs.is_empty() {
            return Err(err("empty schema"));
        }
        let schema = Schema::new(attrs);

        let count: usize = next()?
            .strip_prefix("pairs ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("malformed pairs line"))?;
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            let head = next()?.to_string();
            let toks: Vec<&str> = head.split_whitespace().collect();
            if toks.len() != 6 || toks[0] != "pair" {
                return Err(err("malformed pair line"));
            }
            let label = match toks[1] {
                "1" => Some(true),
                "0" => Some(false),
                "?" => None,
                other => return Err(err(format!("bad label {other}"))),
            };
            let pu32 = |t: &str| -> Result<u32, FixtureError> {
                t.parse().map_err(|_| err("bad source id"))
            };
            let pu64 = |t: &str| -> Result<u64, FixtureError> {
                t.parse().map_err(|_| err("bad entity id"))
            };
            let mut left = Record::new(SourceId(pu32(toks[2])?), pu64(toks[3])?);
            let mut right = Record::new(SourceId(pu32(toks[4])?), pu64(toks[5])?);
            loop {
                let line = next()?.to_string();
                if line == "end" {
                    break;
                }
                let t: Vec<&str> = line.split_whitespace().collect();
                if t.len() != 3 {
                    return Err(err("malformed attribute line"));
                }
                let (attr, value) = (unescape(t[1])?, unescape(t[2])?);
                match t[0] {
                    "la" => left.set(attr, value),
                    "ra" => right.set(attr, value),
                    other => return Err(err(format!("bad attribute side {other}"))),
                };
            }
            pairs.push(EntityPair { left, right, label });
        }

        let parse_bits = |line: &str, tag: &str, skip: usize| -> Result<Vec<u32>, FixtureError> {
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.first() != Some(&tag) {
                return Err(err(format!("expected {tag} line")));
            }
            toks[1 + skip..]
                .iter()
                .map(|t| u32::from_str_radix(t, 16).map_err(|_| err(format!("bad {tag} bits"))))
                .collect()
        };
        let logits_line = next()?.to_string();
        let logits_bits = parse_bits(&logits_line, "logits", 1)?;
        let attention_line = next()?.to_string();
        let attention_bits = parse_bits(&attention_line, "attention", 2)?;
        let base_line = next()?.to_string();
        let loss_base_bits =
            *parse_bits(&base_line, "loss_base", 0)?.first().ok_or_else(|| err("empty loss"))?;
        let zero_line = next()?.to_string();
        let loss_zero_bits =
            *parse_bits(&zero_line, "loss_zero", 0)?.first().ok_or_else(|| err("empty loss"))?;

        Ok(Fixture {
            name: name.into(),
            cfg,
            schema,
            pairs,
            logits_bits,
            attention_bits,
            loss_base_bits,
            loss_zero_bits,
        })
    }

    /// Recomputes the expectations from the stored inputs and compares them
    /// bit-for-bit, then cross-checks the stored values against the `f64`
    /// oracle at model-level tolerance.
    pub fn verify(&self) -> Result<(), FixtureError> {
        let expected = evaluate(&self.cfg, &self.schema, &self.pairs);
        let diff = |what: &str, got: &[u32], want: &[u32]| -> Result<(), FixtureError> {
            if got.len() != want.len() {
                return Err(err(format!(
                    "{}: {what} length changed ({} vs {})",
                    self.name,
                    got.len(),
                    want.len()
                )));
            }
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                if g != w {
                    return Err(err(format!(
                        "{}: {what}[{i}] drifted: {:e} (bits {g:08x}) vs blessed {:e} \
                         (bits {w:08x}); re-bless only if the change is intended",
                        self.name,
                        f32::from_bits(*g),
                        f32::from_bits(*w)
                    )));
                }
            }
            Ok(())
        };
        diff("logits", &expected.logits, &self.logits_bits)?;
        diff("attention", &expected.attention, &self.attention_bits)?;
        diff("loss_base", &[expected.loss_base], &[self.loss_base_bits])?;
        diff("loss_zero", &[expected.loss_zero], &[self.loss_zero_bits])?;
        self.oracle_check()
    }

    /// Asserts the blessed values are *plausible* per the `f64` oracle — a
    /// defense against blessing a broken stack.
    fn oracle_check(&self) -> Result<(), FixtureError> {
        let model = AdamelModel::new(self.cfg.clone(), self.schema.clone());
        let oracle = ModelOracle::new(&model);
        let enc = encode_pairs_ref(&self.schema, &self.cfg, &self.pairs);
        let fwd = oracle.forward(&enc);
        for (i, &bits) in self.logits_bits.iter().enumerate() {
            let blessed = f64::from(f32::from_bits(bits));
            let reference = fwd.logits.get(i, 0);
            if (blessed - reference).abs() > 1e-3 * blessed.abs().max(reference.abs()).max(1.0) {
                return Err(err(format!(
                    "{}: blessed logit {i} = {blessed:e} disagrees with oracle {reference:e}",
                    self.name
                )));
            }
        }
        let att = RefMatrix::from_f32(
            self.pairs.len(),
            fwd.attention.cols(),
            &self.attention_bits.iter().map(|&b| f32::from_bits(b)).collect::<Vec<_>>(),
        );
        for i in 0..att.rows() {
            for j in 0..att.cols() {
                let d = (att.get(i, j) - fwd.attention.get(i, j)).abs();
                if d > 1e-3 {
                    return Err(err(format!(
                        "{}: blessed attention ({i},{j}) off oracle by {d:e}",
                        self.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The fixtures the repository pins, recomputed by `--bless`. Pairs come
/// from the deterministic music world generator but are snapshotted into the
/// fixture files, so later generator changes do not disturb old fixtures.
pub fn builtin_fixtures() -> Vec<Fixture> {
    use adamel_data::{make_mel_split, EntityType, MusicConfig, MusicWorld, Scenario, SplitCounts};
    let world = MusicWorld::generate(&MusicConfig::tiny(), 5);
    let records = world.records_of(EntityType::Artist, None);
    let split = make_mel_split(
        &records,
        "name",
        &[0, 1, 2],
        &[3, 4, 5, 6],
        Scenario::Overlapping,
        &SplitCounts::tiny(),
        1,
    );
    let schema = world.schema().clone();
    let take = |pairs: &[EntityPair], n: usize| -> Vec<EntityPair> {
        pairs.iter().take(n).cloned().collect()
    };

    let default_pairs = take(&split.train.pairs, 10);
    let uniform_pairs = take(&split.support.pairs, 6);
    vec![
        Fixture::compute("music_tiny_both", AdamelConfig::tiny(), schema.clone(), default_pairs),
        Fixture::compute(
            "music_tiny_shared_uniform",
            AdamelConfig::tiny()
                .with_seed(11)
                .with_feature_mode(FeatureMode::SharedOnly)
                .with_uniform_attention(true),
            schema,
            uniform_pairs,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_parse_round_trips() {
        for fixture in builtin_fixtures() {
            let text = fixture.serialize();
            let parsed = Fixture::parse(fixture.name.clone(), &text).expect("round trip parses");
            assert_eq!(parsed.serialize(), text, "{} round trip", fixture.name);
            parsed.verify().expect("freshly computed fixture verifies");
        }
    }

    #[test]
    fn escape_round_trips_awkward_strings() {
        for s in ["", "a b", "tab\there", "line\nbreak", "back\\slash", "\\s literal"] {
            assert_eq!(unescape(&escape(s)).expect("escape output parses"), s);
        }
    }

    #[test]
    fn corrupted_expectation_is_detected() {
        let mut fixture = builtin_fixtures().remove(0);
        fixture.logits_bits[0] ^= 1; // one ULP of drift
        let e = fixture.verify().expect_err("bit drift must fail verification");
        assert!(e.0.contains("drifted"), "unexpected message: {e}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Fixture::parse("x", "nope\n").is_err());
    }
}
