//! Reproducibility: every experiment endpoint is a pure function of
//! its seeds.

use oasis::Oasis;
use oasis_attacks::{run_attack, CahAttack, RtfAttack, DEFAULT_ACTIVATION_TARGET};
use oasis_augment::PolicyKind;
use oasis_data::{imagenette_like_with, Batch};
use oasis_fl::DefenseStack;

#[test]
fn datasets_are_reproducible() {
    let a = imagenette_like_with(4, 16, 5);
    let b = imagenette_like_with(4, 16, 5);
    assert_eq!(a.items(), b.items());
}

#[test]
fn attack_outcomes_are_reproducible() {
    let ds = imagenette_like_with(6, 16, 6);
    let calib: Vec<_> = ds.items().iter().map(|it| it.image.clone()).collect();
    let batch = Batch::from_items(ds.items()[..5].to_vec());

    let rtf = RtfAttack::calibrated(64, &calib).unwrap();
    let a = run_attack(&rtf, &batch, &DefenseStack::identity(), 10, 3).unwrap();
    let b = run_attack(&rtf, &batch, &DefenseStack::identity(), 10, 3).unwrap();
    assert_eq!(a.matched_psnrs, b.matched_psnrs);

    let cah = CahAttack::calibrated(64, DEFAULT_ACTIVATION_TARGET, &calib, 1).unwrap();
    let defense = DefenseStack::of(Oasis::new(PolicyKind::MajorRotationShearing));
    let c = run_attack(&cah, &batch, &defense, 10, 3).unwrap();
    let d = run_attack(&cah, &batch, &defense, 10, 3).unwrap();
    assert_eq!(c.matched_psnrs, d.matched_psnrs);
}

#[test]
fn different_seeds_differ() {
    let ds = imagenette_like_with(6, 16, 6);
    let calib: Vec<_> = ds.items().iter().map(|it| it.image.clone()).collect();
    let batch = Batch::from_items(ds.items()[..5].to_vec());
    let cah_a = CahAttack::calibrated(64, DEFAULT_ACTIVATION_TARGET, &calib, 1).unwrap();
    let cah_b = CahAttack::calibrated(64, DEFAULT_ACTIVATION_TARGET, &calib, 2).unwrap();
    let a = run_attack(&cah_a, &batch, &DefenseStack::identity(), 10, 3).unwrap();
    let b = run_attack(&cah_b, &batch, &DefenseStack::identity(), 10, 3).unwrap();
    assert_ne!(a.matched_psnrs, b.matched_psnrs);
}

#[test]
fn scenario_reports_are_reproducible() {
    use oasis_scenario::{Scale, Scenario};

    let scenario = Scenario::builder()
        .workload("imagenette".parse().unwrap())
        .attack("rtf:48".parse().unwrap())
        .defense("oasis:MR".parse().unwrap())
        .batch_size(4)
        .trials(2)
        .scale(Scale::Quick)
        .seed(0x5EED)
        .calibration(32)
        .build()
        .unwrap();
    let a = scenario.run().unwrap();
    let b = scenario.run().unwrap();
    for (ta, tb) in a.trials.iter().zip(&b.trials) {
        assert_eq!(
            ta.matched_psnrs, tb.matched_psnrs,
            "trial {} diverged",
            ta.trial
        );
    }
    assert_eq!(a.summary, b.summary);
    // The serialized report (minus wall clock) is reproducible too.
    assert_eq!(
        serde_json::to_string(&a.trials).unwrap(),
        serde_json::to_string(&b.trials).unwrap()
    );
}
