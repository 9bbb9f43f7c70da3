//! Scaled-down assertions of the paper's key experimental shapes. These are
//! the invariants EXPERIMENTS.md reports at full scale; here they run at
//! smoke scale so the suite stays fast while still guarding the claims.

use adamel::{evaluate_prauc, fit, AdamelConfig, AdamelModel, Variant};
use adamel_data::analysis;
use adamel_data::{
    make_mel_split, monitor_incremental, EntityType, MonitorConfig, MonitorWorld, MusicConfig,
    MusicWorld, Scenario, SplitCounts,
};
use adamel_schema::FeatureMode;

/// Fig. 8's collapse: λ = 1 removes all supervision from AdaMEL-zero.
#[test]
fn lambda_one_collapses_adamel_zero() {
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
    let run = |lambda: f32| {
        let cfg = AdamelConfig::tiny().with_lambda(lambda);
        let mut model = AdamelModel::new(cfg, world.schema().clone());
        fit(&mut model, Variant::Zero, &split.train, Some(&split.test), None);
        evaluate_prauc(&model, &split.test)
    };
    let tuned = run(0.98);
    let collapsed = run(1.0);
    assert!(
        tuned > collapsed + 0.1,
        "λ=0.98 ({tuned:.4}) should clearly beat λ=1 ({collapsed:.4})"
    );
}

/// Table 6's conclusion: both contrastive features beat either alone.
#[test]
fn contrastive_ablation_favors_both() {
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
    let run = |mode: FeatureMode| {
        let cfg = AdamelConfig::tiny().with_feature_mode(mode);
        let mut model = AdamelModel::new(cfg, world.schema().clone());
        fit(&mut model, Variant::Base, &split.train, None, None);
        evaluate_prauc(&model, &split.test)
    };
    let both = run(FeatureMode::Both);
    let shared = run(FeatureMode::SharedOnly);
    let unique = run(FeatureMode::UniqueOnly);
    // Loose at smoke scale: both must not lose badly to either alone.
    assert!(
        both > shared.max(unique) - 0.05,
        "both {both:.4} vs shared {shared:.4} / unique {unique:.4}"
    );
}

/// Fig. 11's C2 structure: exactly the five target-only attributes.
#[test]
fn monitor_has_five_target_only_attributes() {
    let world = MonitorWorld::generate(&MonitorConfig::default(), 3);
    let schema = world.schema().clone();
    let split = make_mel_split(
        &world.records_for(None),
        "page_title",
        &world.seen_sources(),
        &world.unseen_sources(),
        Scenario::Overlapping,
        &SplitCounts::default(),
        1,
    );
    let target_only = analysis::target_only_attributes(&split.train, &split.test, &schema);
    assert_eq!(target_only.len(), 5, "target-only attributes: {target_only:?}");
}

/// Fig. 12's C3 structure: the top prod_type tokens of the two domains are
/// (nearly) disjoint.
#[test]
fn prod_type_distributions_shift_between_domains() {
    let world = MonitorWorld::generate(&MonitorConfig::default(), 3);
    let split = make_mel_split(
        &world.records_for(None),
        "page_title",
        &world.seen_sources(),
        &world.unseen_sources(),
        Scenario::Disjoint,
        &SplitCounts::default(),
        1,
    );
    let src = analysis::top_tokens(&split.train, "prod_type", 5);
    let tgt = analysis::top_tokens(&split.test, "prod_type", 5);
    let src_tokens: std::collections::HashSet<&str> = src.iter().map(|(t, _)| t.as_str()).collect();
    let overlap = tgt.iter().filter(|(t, _)| src_tokens.contains(t.as_str())).count();
    assert!(overlap <= 1, "top-5 prod_type overlap {overlap} too high");
}

/// Fig. 9's stability: re-adapting AdaMEL-hyb stays above 0.5 PRAUC at
/// every step of the incremental stream.
#[test]
fn incremental_adaptation_stays_stable() {
    let world = MonitorWorld::generate(&MonitorConfig::tiny(), 5);
    let stream = monitor_incremental(&world, 100, 30, 20, 4, 2, 1);
    let cfg = AdamelConfig::tiny();
    for step in &stream.steps {
        let mut model = AdamelModel::new(cfg.clone(), world.schema().clone());
        fit(&mut model, Variant::Hyb, &stream.train, Some(&step.target), Some(&stream.support));
        let scores = model.predict(&step.target.pairs);
        let labels: Vec<bool> = step.target.pairs.iter().map(|p| p.ground_truth()).collect();
        let prauc = adamel_metrics::pr_auc(&scores, &labels);
        assert!(prauc > 0.5, "PRAUC {prauc:.4} collapsed at {} sources", step.num_sources);
    }
}

/// §4.5 / §5.5: the AdaMEL parameter budget is orders of magnitude below
/// EntityMatcher's at matched text dimensions, and Fig. 9's training-cost
/// ordering holds in parameters: AdaMEL < CorDel and DeepMatcher, and both
/// of those < EntityMatcher.
#[test]
fn adamel_is_much_smaller_than_entitymatcher() {
    use adamel_baselines::{
        BaselineConfig, CorDel, DeepMatcher, EntityMatcher, EntityMatcherModel,
    };
    let world = MonitorWorld::generate(&MonitorConfig::tiny(), 4);
    let schema = world.schema().clone();
    let adamel = AdamelModel::new(AdamelConfig::default(), schema.clone()).num_parameters();
    let cordel = CorDel::new(schema.clone(), BaselineConfig::default()).num_parameters();
    let deepmatcher = DeepMatcher::new(schema.clone(), BaselineConfig::default()).num_parameters();
    let em = EntityMatcher::new(schema, BaselineConfig::default()).num_parameters();
    let counts =
        format!("AdaMEL {adamel}, CorDel {cordel}, DeepMatcher {deepmatcher}, EntityMatcher {em}");
    assert!(em > 3 * adamel, "{counts}");
    assert!(adamel < cordel && adamel < deepmatcher, "{counts}");
    assert!(cordel < em && deepmatcher < em, "{counts}");
}

/// Design ablation (DESIGN.md §7): the uniform-attention variant. Two
/// mechanism facts are pinned: (1) the attention output degenerates to the
/// constant 1/F distribution, and (2) with uniform attention the KL
/// adaptation term vanishes, so AdaMEL-zero becomes AdaMEL-base exactly.
/// (The *performance* comparison — where uniform attention is surprisingly
/// competitive on the synthetic corpora — is reported in EXPERIMENTS.md.)
#[test]
fn uniform_attention_ablation_mechanism() {
    let world = MusicWorld::generate(&MusicConfig::tiny(), 5);
    let records = world.records_of(EntityType::Artist, None);
    let split = make_mel_split(
        &records,
        "name",
        &[0, 1, 2],
        &[3, 4, 5, 6],
        Scenario::Disjoint,
        &SplitCounts::tiny(),
        1,
    );
    let cfg = AdamelConfig::tiny().with_uniform_attention(true);

    // (1) attention is the constant 1/F distribution.
    let model = AdamelModel::new(cfg.clone(), world.schema().clone());
    let att = model.attention(&split.test.pairs[..4]);
    let f = model.extractor().num_features() as f32;
    for i in 0..att.rows() {
        for &v in att.row(i) {
            assert!((v - 1.0 / f).abs() < 1e-6, "attention not uniform: {v}");
        }
    }

    // (2) with uniform attention the KL term contributes (essentially)
    // nothing: zero's first-epoch loss is the base loss scaled by (1-λ).
    // (Adam's ε and gradient clipping are not scale-invariant, so the full
    // trajectories drift — only the loss relation is exact.)
    let mut base = AdamelModel::new(cfg.clone(), world.schema().clone());
    let base_report = fit(&mut base, Variant::Base, &split.train, None, None);
    let lambda = cfg.lambda;
    let mut zero = AdamelModel::new(cfg, world.schema().clone());
    let zero_report = fit(&mut zero, Variant::Zero, &split.train, Some(&split.test), None);
    let expected = (1.0 - lambda) * base_report.epoch_losses[0];
    let actual = zero_report.epoch_losses[0];
    assert!(
        (actual - expected).abs() < 0.25 * expected.abs() + 1e-3,
        "first-epoch zero loss {actual} vs (1-λ)·base {expected}"
    );
    // And both still learn to rank.
    assert!(evaluate_prauc(&base, &split.test) > 0.55);
    assert!(evaluate_prauc(&zero, &split.test) > 0.55);
}
