//! Model persistence.
//!
//! Trained models serialize to a small self-describing text format (exact
//! `f32` round-trip via bit patterns) so a model trained once can score new
//! source batches later — the deployment pattern of the incremental
//! scenario. No external serialization crates are needed.
//!
//! [`load_model`] also reads untrusted bytes (the daemon's `POST /model`), so
//! it reserves nothing sized by a declared count and checks the tensor count
//! and every tensor shape against the ones the file's own config and schema
//! imply before it builds a model: a hostile header gets an error, never a
//! panic or an allocation larger than the bytes it sent. It also refuses a
//! NaN or infinite weight or hyperparameter, which would make every score
//! NaN (and trip the numerics sanitizer on the first forward).

use crate::config::AdamelConfig;
use crate::model::{param_shapes, AdamelModel};
use adamel_schema::{FeatureMode, Schema};
use adamel_tensor::Matrix;
use std::io::{self, BufRead, Write};

/// Format line prefix; the version after it names the parameter layout.
const MAGIC_PREFIX: &str = "adamel-model ";
/// The version this build writes and reads. v2 stores Θ's first layer as
/// its `F` row blocks `W1[j]` (`3F + 5` tensors); v1 stored one `W1`
/// (`2F + 6`).
const VERSION: &str = "v2";

/// A model file whose format version this build does not read, for example
/// a v1 file saved before Θ's first layer was split into per-feature
/// blocks. It arrives as the inner error of an [`io::ErrorKind::InvalidData`]
/// error from [`load_model`]; re-save the model with this build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedModelVersion {
    /// The version the file declares.
    pub found: String,
}

impl std::fmt::Display for UnsupportedModelVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model file format {MAGIC_PREFIX}{} is not supported; this build reads \
             {MAGIC_PREFIX}{VERSION} (re-save the model)",
            self.found
        )
    }
}

impl std::error::Error for UnsupportedModelVersion {}

fn mode_tag(mode: FeatureMode) -> &'static str {
    match mode {
        FeatureMode::SharedOnly => "shared",
        FeatureMode::UniqueOnly => "unique",
        FeatureMode::Both => "both",
    }
}

fn mode_from_tag(tag: &str) -> io::Result<FeatureMode> {
    match tag {
        "shared" => Ok(FeatureMode::SharedOnly),
        "unique" => Ok(FeatureMode::UniqueOnly),
        "both" => Ok(FeatureMode::Both),
        other => Err(bad(format!("unknown feature mode {other}"))),
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes a trained model.
pub fn save_model(model: &AdamelModel, w: &mut impl Write) -> io::Result<()> {
    let cfg = model.config();
    writeln!(w, "{MAGIC_PREFIX}{VERSION}")?;
    writeln!(
        w,
        "config {} {} {} {} {} {} {} {} {} {} {} {}",
        cfg.embed_dim,
        cfg.feature_dim,
        cfg.attention_dim,
        cfg.hidden_dim,
        cfg.crop,
        cfg.learning_rate,
        cfg.epochs,
        cfg.batch_size,
        cfg.lambda,
        cfg.phi,
        mode_tag(cfg.feature_mode),
        cfg.seed,
    )?;
    let attrs = model.extractor().schema().attributes();
    writeln!(w, "schema {}", attrs.join(" "))?;
    let snapshot = model.snapshot_params();
    writeln!(w, "params {}", snapshot.len())?;
    for m in &snapshot {
        write!(w, "tensor {} {}", m.rows(), m.cols())?;
        for v in m.as_slice() {
            write!(w, " {:08x}", v.to_bits())?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads a model written by [`save_model`]. Fails with
/// [`io::ErrorKind::InvalidData`] on a malformed file, on a tensor count or
/// shape that disagrees with the file's config and schema, on a NaN or
/// infinite tensor value, learning rate, `lambda` or `phi`, and (with an
/// [`UnsupportedModelVersion`] inside) on another format version.
pub fn load_model(r: &mut impl BufRead) -> io::Result<AdamelModel> {
    let mut lines = r.lines();
    let mut next = || lines.next().unwrap_or_else(|| Err(bad("unexpected end of model file")));

    let magic = next()?;
    match magic.strip_prefix(MAGIC_PREFIX) {
        Some(VERSION) => {}
        Some(found) => {
            let found = found.to_owned();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                UnsupportedModelVersion { found },
            ));
        }
        None => return Err(bad("not an adamel model file")),
    }
    let config_line = next()?;
    let parts: Vec<&str> = config_line.split_whitespace().collect();
    if parts.len() != 13 || parts.first() != Some(&"config") {
        return Err(bad("malformed config line"));
    }
    let field = |i: usize| parts.get(i).copied().ok_or_else(|| bad("malformed config line"));
    let p = |i: usize| -> io::Result<usize> { field(i)?.parse().map_err(|_| bad("bad integer")) };
    let pf = |i: usize, name: &str| -> io::Result<f32> {
        let v: f32 = field(i)?.parse().map_err(|_| bad("bad float"))?;
        v.is_finite().then_some(v).ok_or_else(|| bad(format!("config {name} is not finite")))
    };
    let cfg = AdamelConfig {
        embed_dim: p(1)?,
        feature_dim: p(2)?,
        attention_dim: p(3)?,
        hidden_dim: p(4)?,
        crop: p(5)?,
        learning_rate: pf(6, "learning_rate")?,
        epochs: p(7)?,
        batch_size: p(8)?,
        lambda: pf(9, "lambda")?,
        phi: pf(10, "phi")?,
        feature_mode: mode_from_tag(field(11)?)?,
        seed: field(12)?.parse().map_err(|_| bad("bad seed"))?,
        grad_clip: Some(5.0),
        uniform_attention: false,
    };
    let dims = [cfg.embed_dim, cfg.feature_dim, cfg.attention_dim, cfg.hidden_dim];
    if dims.contains(&0) {
        return Err(bad("config dimensions must be positive"));
    }

    let schema_line = next()?;
    let attrs: Vec<String> = schema_line
        .strip_prefix("schema ")
        .ok_or_else(|| bad("malformed schema line"))?
        .split_whitespace()
        .map(str::to_owned)
        .collect();
    if attrs.is_empty() {
        return Err(bad("empty schema"));
    }
    let schema = Schema::new(attrs);
    let shapes = param_shapes(&cfg, schema.len() * cfg.feature_mode.per_attribute());

    let params_line = next()?;
    let count: usize = params_line
        .strip_prefix("params ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("malformed params line"))?;
    if count != shapes.len() {
        return Err(bad(format!(
            "the config and schema need {} tensors, the file declares {count}",
            shapes.len()
        )));
    }

    // Every dimension is at least 1 and each one appears in some tensor, so
    // once every tensor below matched its shape with real values, building
    // the model allocates no more than the file held.
    let mut tensors = Vec::new();
    for (i, &shape) in shapes.iter().enumerate() {
        let line = next()?;
        let mut it = line.split_whitespace();
        if it.next() != Some("tensor") {
            return Err(bad("malformed tensor line"));
        }
        let rows: usize = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| bad("bad rows"))?;
        let cols: usize = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| bad("bad cols"))?;
        if (rows, cols) != shape {
            return Err(bad(format!("tensor {i} is {rows}x{cols}, the config needs {shape:?}")));
        }
        let len = rows.checked_mul(cols).ok_or_else(|| bad("tensor size overflows"))?;
        let data = it
            .map(|tok| u32::from_str_radix(tok, 16).map(f32::from_bits))
            .collect::<Result<Vec<f32>, _>>()
            .map_err(|_| bad("bad value"))?;
        if data.len() != len {
            return Err(bad(format!("tensor expected {len} values, got {}", data.len())));
        }
        if let Some(k) = data.iter().position(|v| !v.is_finite()) {
            return Err(bad(format!("tensor {i} value {k} is not finite")));
        }
        tensors.push(Matrix::from_vec(rows, cols, data));
    }

    let mut model = AdamelModel::new(cfg, schema);
    model.restore_params(&tensors).map_err(|e| bad(format!("parameter restore failed: {e}")))?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::train::fit;
    use adamel_schema::{Domain, EntityPair, Record, SourceId};
    use std::io::BufReader;

    fn trained_model() -> (AdamelModel, Vec<EntityPair>) {
        let schema = Schema::new(vec!["name".into()]);
        let mut model = AdamelModel::new(AdamelConfig::tiny(), schema);
        let mut train = Vec::new();
        for i in 0..6u64 {
            let mut a = Record::new(SourceId(0), i);
            a.set("name", format!("item {i} alpha"));
            let mut b = Record::new(SourceId(1), i);
            b.set("name", format!("item {i} alpha"));
            train.push(EntityPair::labeled(a.clone(), b, true));
            let mut c = Record::new(SourceId(1), i + 40);
            c.set("name", format!("other {} beta", i + 9));
            train.push(EntityPair::labeled(a, c, false));
        }
        fit(&mut model, Variant::Base, &Domain::new(train.clone()), None, None);
        (model, train)
    }

    #[test]
    fn save_load_round_trip_is_exact() {
        let (model, pairs) = trained_model();
        let mut buf = Vec::new();
        save_model(&model, &mut buf).expect("save to Vec cannot fail");
        let restored = load_model(&mut BufReader::new(&buf[..])).expect("round trip should load");
        assert_eq!(model.predict(&pairs), restored.predict(&pairs));
        assert_eq!(model.num_parameters(), restored.num_parameters());
        assert_eq!(
            model.extractor().schema().attributes(),
            restored.extractor().schema().attributes()
        );
    }

    #[test]
    fn rejects_garbage() {
        let data = b"not a model\n";
        assert!(load_model(&mut BufReader::new(&data[..])).is_err());
    }

    /// A saved untrained model's text, one line per entry.
    fn saved_lines() -> Vec<String> {
        let model = AdamelModel::new(AdamelConfig::tiny(), Schema::new(vec!["name".into()]));
        let mut buf = Vec::new();
        save_model(&model, &mut buf).expect("save to Vec cannot fail");
        String::from_utf8(buf).expect("the format is text").lines().map(str::to_owned).collect()
    }

    /// Loads `lines` joined back into a file and returns the error text.
    fn load_error(lines: &[String]) -> String {
        let text = lines.join("\n") + "\n";
        match load_model(&mut BufReader::new(text.as_bytes())) {
            Ok(_) => panic!("the edited file must not load"),
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                e.to_string()
            }
        }
    }

    #[test]
    fn rejects_a_tensor_count_the_config_does_not_imply() {
        let mut lines = saved_lines();
        assert_eq!(lines[3], "params 11", "one attribute in both modes: F = 2, 3F + 5 tensors");
        for count in ["18446744073709551615", "0", "8", "10", "12"] {
            lines[3] = format!("params {count}");
            assert!(load_error(&lines).contains("need 11 tensors"), "params {count}");
        }
    }

    #[test]
    fn rejects_tensor_shapes_that_overflow_or_disagree_with_the_config() {
        let mut lines = saved_lines();
        let values = lines[4].split_whitespace().skip(3).collect::<Vec<_>>().join(" ");
        // `V[0]` is 24 x 12. Shapes whose `rows · cols` overflows or needs
        // far more values than the line holds, then the transpose.
        for header in [
            "tensor 18446744073709551615 18446744073709551615",
            "tensor 4294967296 4294967296",
            "tensor 12 24",
        ] {
            let mut edited = lines.clone();
            edited[4] = format!("{header} {values}");
            assert!(load_error(&edited).contains("tensor 0 is"), "{header}");
        }
        // A config and tensor header that agree on a huge dimension: the
        // values the line holds decide, and nothing is reserved up front.
        let mut edited = lines.clone();
        edited[1] = edited[1].replacen("config 24 ", "config 1099511627776 ", 1);
        edited[4] = format!("tensor 1099511627776 12 {values}");
        assert!(load_error(&edited).contains("expected 13194139533312 values, got 288"));
        // The right shape with a value missing.
        let last = lines[4].rfind(' ').expect("values");
        lines[4].truncate(last);
        assert!(load_error(&lines).contains("values, got 287"));
    }

    #[test]
    fn rejects_config_dimensions_the_tensors_cannot_back() {
        let lines = saved_lines();
        let config: Vec<&str> = lines[1].split_whitespace().collect();
        // A zero dimension, then a huge one: both fail before any tensor
        // is sized by them or the model is built.
        for (field, value, want) in [
            (1, "0", "dimensions must be positive"),
            (4, "0", "dimensions must be positive"),
            (1, "18446744073709551615", "tensor 0 is"),
            (4, "4611686018427387904", "the config needs"),
        ] {
            let mut edited = lines.clone();
            let mut fields = config.clone();
            fields[field] = value;
            edited[1] = fields.join(" ");
            assert!(load_error(&edited).contains(want), "config field {field} = {value}");
        }
    }

    #[test]
    fn rejects_non_finite_weights_naming_the_tensor() {
        let lines = saved_lines();
        for (bits, what) in [("7fc00000", "NaN"), ("7f800000", "+inf")] {
            let mut edited = lines.clone();
            // Tensor 1 (line 5) is `b[0]`; replace its third value.
            let mut tokens: Vec<&str> = edited[5].split_whitespace().collect();
            tokens[5] = bits;
            edited[5] = tokens.join(" ");
            assert!(load_error(&edited).contains("tensor 1 value 2 is not finite"), "{what}");
        }
    }

    #[test]
    fn rejects_non_finite_hyperparameters() {
        let lines = saved_lines();
        let config: Vec<&str> = lines[1].split_whitespace().collect();
        for (field, name, value) in
            [(9, "lambda", "NaN"), (6, "learning_rate", "inf"), (10, "phi", "-inf")]
        {
            let mut edited = lines.clone();
            let mut fields = config.clone();
            fields[field] = value;
            edited[1] = fields.join(" ");
            let want = format!("config {name} is not finite");
            assert!(load_error(&edited).contains(&want), "{name} = {value}");
        }
    }

    #[test]
    fn rejects_a_v1_file_with_a_typed_error_naming_the_version() {
        let mut lines = saved_lines();
        assert_eq!(lines[0], "adamel-model v2");
        lines[0] = "adamel-model v1".into();
        let text = lines.join("\n");
        let err = load_model(&mut BufReader::new(text.as_bytes())).err().expect("v1 is refused");
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<UnsupportedModelVersion>());
        assert_eq!(inner, Some(&UnsupportedModelVersion { found: "v1".into() }));
        assert!(err.to_string().contains("adamel-model v1"), "{err}");
    }

    #[test]
    fn rejects_truncated_file() {
        let (model, _) = trained_model();
        let mut buf = Vec::new();
        save_model(&model, &mut buf).expect("save to Vec cannot fail");
        let truncated = &buf[..buf.len() / 2];
        assert!(load_model(&mut BufReader::new(truncated)).is_err());
    }
}
