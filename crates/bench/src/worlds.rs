//! Experiment-scale world and split construction shared by the repro
//! experiments.
//!
//! The paper's corpora are orders of magnitude larger than what a test
//! harness should replay; these scales preserve the corpus *structure*
//! (source counts, imbalance, weak-label rates) at a size every experiment
//! finishes in seconds. `Scale::full` grows everything for an
//! overnight-style run.

use adamel_data::{
    make_mel_split, weaken_labels, EntityType, MelSplit, MonitorConfig, MonitorWorld, MusicConfig,
    MusicWorld, Scenario, SplitCounts,
};
use adamel_schema::Schema;

/// Knobs scaling every experiment together.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Artists in the music world.
    pub music_artists: usize,
    /// Products in the monitor world.
    pub monitor_products: usize,
    /// Labeled training pairs per side (pos = neg).
    pub train_pairs_per_class: usize,
    /// Music-1M-style training pairs per class (larger, weakly labeled).
    pub weak_train_pairs_per_class: usize,
    /// Test pairs per class.
    pub test_pairs_per_class: usize,
    /// Repeated runs per cell (paper: 3).
    pub runs: usize,
}

impl Scale {
    /// The default reproduction scale (seconds per experiment cell).
    pub fn standard() -> Self {
        Self {
            music_artists: 110,
            monitor_products: 140,
            train_pairs_per_class: 150,
            weak_train_pairs_per_class: 300,
            test_pairs_per_class: 120,
            runs: 3,
        }
    }

    /// A fast scale for smoke tests (single run, small worlds).
    pub fn smoke() -> Self {
        Self {
            music_artists: 45,
            monitor_products: 60,
            train_pairs_per_class: 60,
            weak_train_pairs_per_class: 120,
            test_pairs_per_class: 50,
            runs: 1,
        }
    }
}

/// The Music-3K-style corpus (clean labels) for one entity type.
pub struct MusicExperiment {
    /// The generated world.
    pub world: MusicWorld,
    /// Entity type under evaluation.
    pub etype: EntityType,
}

impl MusicExperiment {
    /// Generates the world at the given scale.
    pub fn new(scale: &Scale, etype: EntityType, seed: u64) -> Self {
        let cfg = MusicConfig {
            num_artists: scale.music_artists,
            albums_per_artist: 2,
            tracks_per_album: 2,
            num_sources: 7,
            coverage: 0.85,
        };
        Self { world: MusicWorld::generate(&cfg, seed), etype }
    }

    /// The aligned music schema.
    pub fn schema(&self) -> Schema {
        self.world.schema().clone()
    }

    /// Builds the §5.2 split: `D_S* = {website 1..3}`, `D_T*` = all 7 (S1)
    /// or the remaining 4 (S2). `weak` applies Music-1M-style label noise
    /// to the (larger) training set.
    pub fn split(&self, scale: &Scale, scenario: Scenario, weak: bool, seed: u64) -> MelSplit {
        let records = self.world.records_of(self.etype, None);
        let per_class =
            if weak { scale.weak_train_pairs_per_class } else { scale.train_pairs_per_class };
        let counts = SplitCounts {
            train_pos: per_class,
            train_neg: per_class,
            support_pos: 50,
            support_neg: 50,
            test_pos: scale.test_pairs_per_class,
            test_neg: scale.test_pairs_per_class,
            hard_negative_fraction: 0.65,
        };
        let mut split =
            make_mel_split(&records, "name", &[0, 1, 2], &[3, 4, 5, 6], scenario, &counts, seed);
        if weak {
            // Music-1M labels follow hyperlinks: ~20% corrupted, including
            // mixed-type confusions.
            weaken_labels(&mut split.train, 0.2, seed ^ 0x3ea4);
        }
        split
    }
}

/// The Monitor-style corpus.
pub struct MonitorExperiment {
    /// The generated world.
    pub world: MonitorWorld,
}

impl MonitorExperiment {
    /// Generates the 24-source monitor world.
    pub fn new(scale: &Scale, seed: u64) -> Self {
        let cfg = MonitorConfig {
            num_products: scale.monitor_products,
            num_sources: 24,
            num_seen_sources: 5,
            coverage: 0.3,
        };
        Self { world: MonitorWorld::generate(&cfg, seed) }
    }

    /// The aligned 13-attribute schema.
    pub fn schema(&self) -> Schema {
        self.world.schema().clone()
    }

    /// The §5.2 Monitor split with the paper's imbalanced test protocol
    /// (all sampled positives + a large negative pool).
    pub fn split(&self, scale: &Scale, scenario: Scenario, seed: u64) -> MelSplit {
        let records = self.world.records_for(None);
        let counts = SplitCounts {
            train_pos: scale.train_pairs_per_class,
            train_neg: scale.train_pairs_per_class,
            support_pos: 50,
            support_neg: 50,
            test_pos: scale.test_pairs_per_class,
            // Heavy imbalance: paper tests on 432 positives + 1000 negatives.
            test_neg: scale.test_pairs_per_class * 3,
            hard_negative_fraction: 0.6,
        };
        make_mel_split(
            &records,
            "page_title",
            &self.world.seen_sources(),
            &self.world.unseen_sources(),
            scenario,
            &counts,
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn music_experiment_split_structure() {
        let scale = Scale::smoke();
        let exp = MusicExperiment::new(&scale, EntityType::Artist, 42);
        let split = exp.split(&scale, Scenario::Overlapping, false, 1);
        assert!(!split.train.is_empty());
        assert_eq!(split.support.len(), 100);
        assert!(split.test.pairs.iter().all(|p| p.label.is_none()));
        assert_eq!(exp.schema().len(), 9);
    }

    #[test]
    fn weak_split_uses_larger_training_set() {
        let scale = Scale::smoke();
        let exp = MusicExperiment::new(&scale, EntityType::Album, 42);
        let clean = exp.split(&scale, Scenario::Overlapping, false, 1);
        let weak = exp.split(&scale, Scenario::Overlapping, true, 1);
        assert!(weak.train.len() > clean.train.len());
        // Weak labels disagree with ground truth for some pairs.
        let disagreements =
            weak.train.pairs.iter().filter(|p| p.label.unwrap() != p.ground_truth()).count();
        assert!(disagreements > 0, "weak labeling produced no noise");
    }

    #[test]
    fn monitor_experiment_has_imbalanced_test() {
        let scale = Scale::smoke();
        let exp = MonitorExperiment::new(&scale, 42);
        let split = exp.split(&scale, Scenario::Overlapping, 1);
        let pos = split.test.pairs.iter().filter(|p| p.ground_truth()).count();
        let neg = split.test.len() - pos;
        assert!(neg >= 2 * pos, "test not imbalanced: {pos} pos / {neg} neg");
        assert_eq!(exp.schema().len(), 13);
    }

    #[test]
    fn scales_are_ordered() {
        let smoke = Scale::smoke();
        let std = Scale::standard();
        assert!(smoke.music_artists < std.music_artists);
        assert!(smoke.runs <= std.runs);
    }
}
