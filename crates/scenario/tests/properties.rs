//! Property tests for the scenario spec vocabulary and engine:
//! `FromStr` ⇄ `Display` round-trips over the whole spec space, and
//! run-level determinism.

use oasis_attacks::DEFAULT_QBI_BATCH;
use oasis_augment::PolicyKind;
use oasis_scenario::{AttackSpec, DefenseSpec, Scale, Scenario, WorkloadSpec};
use proptest::prelude::*;

/// Strategy: any attack spec (neuron counts across the paper's grid,
/// activation targets across CAH's plausible range, QBI batch targets both at
/// their elided default and explicit).
fn any_attack() -> BoxedStrategy<AttackSpec> {
    prop_oneof![
        (2usize..2000).prop_map(AttackSpec::rtf).boxed(),
        (1usize..2000).prop_map(AttackSpec::cah).boxed(),
        (1usize..2000, 0.0005f64..0.5)
            .prop_map(|(neurons, target)| AttackSpec::cah_with_target(neurons, target))
            .boxed(),
        (1usize..2000)
            .prop_map(|neurons| AttackSpec::qbi(neurons, DEFAULT_QBI_BATCH))
            .boxed(),
        (1usize..2000, 2usize..256)
            .prop_map(|(neurons, batch)| AttackSpec::qbi(neurons, batch))
            .boxed(),
        (0usize..1).prop_map(|_| AttackSpec::linear()).boxed(),
    ]
    .boxed()
}

/// Strategy: one single-family defense part.
fn any_defense_part() -> BoxedStrategy<DefenseSpec> {
    prop_oneof![
        (0usize..7)
            .prop_map(|i| DefenseSpec::oasis(PolicyKind::all()[i]))
            .boxed(),
        (0usize..1).prop_map(|_| DefenseSpec::ats()).boxed(),
        (0.01f32..10.0, 0.0f32..40.0)
            .prop_map(|(clip, noise)| DefenseSpec::dp(clip, noise))
            .boxed(),
        (0.01f32..10.0).prop_map(DefenseSpec::clip).boxed(),
    ]
    .boxed()
}

/// Strategy: any defense spec — `none`, a single part, or a random
/// `+`-stack of distinct families in random order.
fn any_defense() -> BoxedStrategy<DefenseSpec> {
    prop_oneof![
        (0usize..1).prop_map(|_| DefenseSpec::none()).boxed(),
        any_defense_part().boxed(),
        proptest::collection::vec(any_defense_part(), 2..5)
            .prop_map(|parts| {
                // Keep the first part of each family; order survives.
                let mut stack = DefenseSpec::none();
                for part in parts {
                    if let Ok(s) = stack.clone().stacked(part) {
                        stack = s;
                    }
                }
                stack
            })
            .boxed(),
    ]
    .boxed()
}

fn any_workload() -> BoxedStrategy<WorkloadSpec> {
    (0usize..4)
        .prop_map(|i| {
            [
                WorkloadSpec::ImageNette,
                WorkloadSpec::Cifar100,
                WorkloadSpec::ImageNette100c,
                WorkloadSpec::Cifar100c,
            ][i]
        })
        .boxed()
}

proptest! {
    /// Random stacks round-trip `FromStr` ⇄ `Display`: order is
    /// preserved (the spec value is order-sensitive and equality is
    /// exact) and the empty stack prints as `none`.
    #[test]
    fn defense_stacks_round_trip(stack in any_defense()) {
        let printed = stack.to_string();
        let parsed: DefenseSpec = printed.parse().expect("printed stack parses");
        prop_assert_eq!(&parsed, &stack, "`{}` did not round-trip", printed);
        prop_assert_eq!(parsed.families(), stack.families());
        if stack == DefenseSpec::none() {
            prop_assert_eq!(printed, "none");
        }
    }

    /// Stacking any part onto a stack already holding its family is
    /// rejected with a clear error naming the duplicate.
    #[test]
    fn duplicate_families_never_stack(part in any_defense_part()) {
        let family = part.families()[0].to_string();
        let err = part.clone().stacked(part).expect_err("duplicate must be rejected");
        prop_assert!(
            err.to_string().contains("duplicate") && err.to_string().contains(&family),
            "error `{}` should name duplicate family `{}`", err, family
        );
    }

    #[test]
    fn attack_specs_round_trip(spec in any_attack()) {
        let printed = spec.to_string();
        let parsed: AttackSpec = printed.parse().expect("printed spec parses");
        prop_assert_eq!(parsed, spec, "`{}` did not round-trip", printed);
    }

    #[test]
    fn defense_specs_round_trip(spec in any_defense()) {
        let printed = spec.to_string();
        let parsed: DefenseSpec = printed.parse().expect("printed spec parses");
        prop_assert_eq!(parsed, spec, "`{}` did not round-trip", printed);
    }

    #[test]
    fn workload_specs_round_trip(spec in any_workload()) {
        let printed = spec.to_string();
        let parsed: WorkloadSpec = printed.parse().expect("printed spec parses");
        prop_assert_eq!(parsed, spec, "`{}` did not round-trip", printed);
    }

    #[test]
    fn spec_strings_have_no_whitespace(
        attack in any_attack(),
        defense in any_defense(),
        workload in any_workload(),
    ) {
        // Spec strings embed in `key=value` provenance lines and CLI
        // comma lists; whitespace would break both.
        for s in [attack.to_string(), defense.to_string(), workload.to_string()] {
            prop_assert!(!s.contains(char::is_whitespace), "`{s}` contains whitespace");
        }
    }

    #[test]
    fn scenarios_serialize_and_parse_back(
        attack in any_attack(),
        defense in any_defense(),
        workload in any_workload(),
        batch in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let built = Scenario::builder()
            .attack(attack)
            .defense(defense)
            .workload(workload.linear_variant()) // 100-class: valid for every attack
            .batch_size(batch)
            .trials(1)
            .seed(seed)
            .build()
            .expect("valid scenario");
        let json = serde_json::to_string(&built).expect("serialize");
        let back: Scenario = serde_json::from_str(&json).expect("parse back");
        prop_assert_eq!(back, built);
    }
}

/// `Scenario::run` with a fixed seed reproduces identical
/// `ScenarioReport` PSNRs across two runs — including across the
/// thread-pool execution of trials.
#[test]
fn scenario_runs_are_deterministic() {
    let scenario = Scenario::builder()
        .workload(WorkloadSpec::Cifar100)
        .attack(AttackSpec::rtf(48))
        .defense(DefenseSpec::oasis(PolicyKind::MajorRotation))
        .batch_size(4)
        .trials(3)
        .scale(Scale::Quick)
        .seed(0xDE7E12)
        .calibration(48)
        .build()
        .unwrap();
    let a = scenario.run().unwrap();
    let b = scenario.run().unwrap();
    assert_eq!(a.trials.len(), b.trials.len());
    for (ta, tb) in a.trials.iter().zip(&b.trials) {
        assert_eq!(
            ta.matched_psnrs, tb.matched_psnrs,
            "trial {} diverged",
            ta.trial
        );
    }
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.leak_rate, b.leak_rate);
}

/// The DP path is deterministic too (noise comes from the trial seed).
#[test]
fn dp_scenario_runs_are_deterministic() {
    let scenario = Scenario::builder()
        .workload(WorkloadSpec::Cifar100)
        .attack(AttackSpec::rtf(32))
        .defense(DefenseSpec::dp(1.0, 0.5))
        .batch_size(4)
        .trials(2)
        .scale(Scale::Quick)
        .seed(77)
        .calibration(32)
        .build()
        .unwrap();
    let a = scenario.run().unwrap();
    let b = scenario.run().unwrap();
    assert_eq!(a.trials[0].matched_psnrs, b.trials[0].matched_psnrs);
    assert_eq!(a.summary, b.summary);
}

/// Different master seeds must actually change the drawn batches.
#[test]
fn different_seeds_draw_different_batches() {
    let base = Scenario::builder()
        .workload(WorkloadSpec::Cifar100)
        .attack(AttackSpec::rtf(32))
        .batch_size(4)
        .trials(1)
        .scale(Scale::Quick)
        .calibration(32);
    let a = base.clone().seed(1).build().unwrap().run().unwrap();
    let b = base.seed(2).build().unwrap().run().unwrap();
    assert_ne!(
        a.trials[0].matched_psnrs, b.trials[0].matched_psnrs,
        "independent seeds produced identical PSNRs"
    );
}

proptest! {
    /// Proposition 1 is a per-sample property: permuting the
    /// originals, each augment group following its original, permutes
    /// the twin counts and protection flags the same way.
    #[test]
    fn prop1_is_invariant_to_batch_order(
        (b, policy, cah, seed) in (2usize..7, 0usize..7, 0usize..2, 0u64..1_000_000)
    ) {
        use oasis::{activation_set_analysis, Oasis};
        use oasis_data::{cifar_like_with, Batch};
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

        let ds = cifar_like_with(10, 2, 12, seed);
        let images: Vec<_> = ds.items().iter().map(|it| it.image.clone()).collect();
        let attack = if cah == 1 { AttackSpec::cah(64) } else { AttackSpec::rtf(64) };
        let model = attack
            .build(&images, 10)
            .expect("calibration")
            .build_model(images[0].dims(), 10, 3)
            .expect("model");
        // The malicious layer's type is inferred from the analysis.
        let layer = model.layer_as(0).expect("malicious layer");

        let batch = Batch::from_items(ds.items()[..b].to_vec());
        let mut order: Vec<usize> = (0..b).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let permuted = Batch::new(
            order.iter().map(|&i| batch.images[i].clone()).collect(),
            order.iter().map(|&i| batch.labels[i]).collect(),
        );

        let oasis = Oasis::new(PolicyKind::all()[policy]);
        let analyse = |batch: &Batch| {
            activation_set_analysis(layer, &oasis.defend(batch.clone()).images, b)
        };
        let (before, after) = (analyse(&batch), analyse(&permuted));
        for (new, &old) in order.iter().enumerate() {
            prop_assert_eq!(after.twin_counts[new], before.twin_counts[old]);
            prop_assert_eq!(
                after.per_sample_protected[new],
                before.per_sample_protected[old]
            );
        }
        prop_assert_eq!(after.protection_rate, before.protection_rate);
    }
}
