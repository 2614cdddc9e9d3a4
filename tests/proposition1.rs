//! Integration test for the executable Proposition 1: predicted
//! activation-set protection, read off the batch each attacked trial
//! trained on, tracks measured leakage across policies and attack
//! families.

use oasis::{activation_set_analysis, ActivationAnalysis, Oasis};
use oasis_attacks::{run_attack, ActiveAttack, AttackOutcome, RtfAttack};
use oasis_augment::PolicyKind;
use oasis_data::{imagenette_like_with, Batch};
use oasis_fl::DefenseStack;
use oasis_nn::Linear;
use oasis_scenario::DefenseSpec;
use rand::{rngs::StdRng, SeedableRng};

/// A calibrated RTF(192) attack and a 6-sample batch drawn with
/// `batch_seed` from a 16-per-class ImageNette-like set.
fn rtf_and_batch(data_seed: u64, batch_seed: u64) -> (RtfAttack, Batch) {
    let ds = imagenette_like_with(16, 24, data_seed);
    let calibration: Vec<_> = ds.items().iter().map(|it| it.image.clone()).collect();
    let attack = RtfAttack::calibrated(192, &calibration).expect("calibration");
    let batch = ds.sample_batch(6, &mut StdRng::seed_from_u64(batch_seed));
    (attack, batch)
}

/// Runs the attacked round under `stack`, then checks Proposition 1
/// on the images that round trained on, against the malicious layer
/// as broadcast.
fn attack_and_analyse(
    attack: &RtfAttack,
    batch: &Batch,
    stack: &DefenseStack,
) -> (AttackOutcome, ActivationAnalysis) {
    let outcome = run_attack(attack, batch, stack, 10, 2).expect("run");
    let model = attack
        .build_model(batch.images[0].dims(), 10, 2)
        .expect("model");
    let layer = model.layer_as::<Linear>(0).expect("malicious layer");
    let analysis = activation_set_analysis(layer, &outcome.processed_images, batch.len());
    (outcome, analysis)
}

#[test]
fn prop1_protection_implies_no_rtf_leakage() {
    let (attack, batch) = rtf_and_batch(31, 8);
    for kind in [
        PolicyKind::MajorRotation,
        PolicyKind::HorizontalFlip,
        PolicyKind::VerticalFlip,
        PolicyKind::MinorRotation,
        PolicyKind::Shearing,
    ] {
        let stack = DefenseStack::of(Oasis::new(kind));
        let (outcome, analysis) = attack_and_analyse(&attack, &batch, &stack);
        // Proposition 1: full activation-set twinning ⇒ the attacker
        // cannot isolate any sample.
        if analysis.protection_rate == 1.0 {
            assert_eq!(
                outcome.leak_rate(60.0),
                0.0,
                "policy {} predicted protected but leaked",
                kind.abbrev()
            );
        }
        // Mean-preserving policies must fully twin measurement layers.
        assert_eq!(
            analysis.protection_rate,
            1.0,
            "policy {} should twin RTF's measurement layer",
            kind.abbrev()
        );
    }
}

#[test]
fn without_policy_is_predicted_and_measured_unprotected() {
    let (attack, batch) = rtf_and_batch(32, 9);
    let stack = DefenseStack::of(Oasis::new(PolicyKind::Without));
    let (outcome, analysis) = attack_and_analyse(&attack, &batch, &stack);
    assert!(
        analysis.protection_rate < 0.5,
        "WO should not be predicted protected"
    );
    assert!(outcome.leak_rate(60.0) > 0.5, "WO should measurably leak");
}

#[test]
fn any_stack_is_analysed_on_the_batch_it_trained_on() {
    let (attack, batch) = rtf_and_batch(31, 8);
    let model = attack
        .build_model(batch.images[0].dims(), 10, 2)
        .expect("model");
    let layer = model.layer_as::<Linear>(0).expect("malicious layer");

    // A DP stage perturbs the update, not the batch: the per-sample
    // DP trial trains on exactly OASIS's D′.
    let defended = Oasis::new(PolicyKind::MajorRotation).defend(batch.clone());
    let direct = activation_set_analysis(layer, &defended.images, batch.len());
    let stack = "oasis:MR+dp:1,0.01".parse::<DefenseSpec>().unwrap().build();
    let (_, stacked) = attack_and_analyse(&attack, &batch, &stack);
    assert_eq!(stacked.per_sample_protected, direct.per_sample_protected);
    assert_eq!(stacked.twin_counts, direct.twin_counts);
    assert_eq!(stacked.protection_rate, direct.protection_rate);
    assert_eq!(stacked.mean_active_neurons, direct.mean_active_neurons);
    assert_eq!(direct.protection_rate, 1.0);

    // Stacks that do not expand the batch leave no original a twin.
    for spec in ["none", "ats"] {
        let stack = spec.parse::<DefenseSpec>().unwrap().build();
        let (outcome, analysis) = attack_and_analyse(&attack, &batch, &stack);
        assert_eq!(outcome.processed_images.len(), batch.len(), "{spec}");
        assert_eq!(analysis.twin_counts, vec![0; batch.len()], "{spec}");
    }
}
