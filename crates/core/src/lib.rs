//! # adamel
//!
//! A Rust implementation of **AdaMEL** — *Deep Transfer Learning for
//! Multi-source Entity Linkage via Domain Adaptation* (VLDB 2021).
//!
//! AdaMEL learns *attribute-level importance* as the transferable knowledge
//! for multi-source entity linkage: each attribute of an entity pair is
//! split into shared/unique contrastive features, a shared attention head
//! scores their importance, and a small classifier predicts match /
//! non-match. Domain adaptation aligns the attention distribution with
//! massive unlabeled data from unseen sources (AdaMEL-zero), a small labeled
//! support set re-weights deviating pairs (AdaMEL-few), and AdaMEL-hyb
//! combines both.
//!
//! ```
//! use adamel::{fit, AdamelConfig, AdamelModel, Variant, evaluate_prauc};
//! use adamel_data::{make_mel_split, MusicConfig, MusicWorld, Scenario, SplitCounts, EntityType};
//!
//! let world = MusicWorld::generate(&MusicConfig::tiny(), 1);
//! let records = world.records_of(EntityType::Artist, None);
//! let split = make_mel_split(&records, "name", &[0, 1, 2], &[3, 4, 5, 6],
//!                            Scenario::Overlapping, &SplitCounts::tiny(), 1);
//!
//! let mut model = AdamelModel::new(AdamelConfig::tiny(), world.schema().clone());
//! fit(&mut model, Variant::Hyb, &split.train, Some(&split.test), Some(&split.support));
//! let prauc = evaluate_prauc(&model, &split.test);
//! assert!(prauc > 0.5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod attention;
pub mod config;
pub mod drift;
pub mod eval;
pub mod io;
pub mod model;
pub mod pipeline;
pub mod train;

pub use attention::{
    attribute_importance, feature_importance, top_attribute_schemas, FeatureImportance,
};
pub use config::{AdamelConfig, Variant};
pub use drift::{
    DriftBaseline, DriftMonitor, DriftSignal, DriftThresholds, DriftWarning, SourceDrift,
};
pub use eval::{evaluate_f1, evaluate_prauc};
pub use io::{load_model, save_model, UnsupportedModelVersion};
pub use model::{AdamelModel, ScoredPairs};
pub use pipeline::{Linker, LinkerConfig, MatchResult};
pub use train::{fit, support_weights, TrainReport};
