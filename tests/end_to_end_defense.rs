//! End-to-end integration tests: the paper's headline claims, asserted
//! across crate boundaries (data → fl → attacks → defense → metrics).

use oasis::Oasis;
use oasis_attacks::{run_attack, CahAttack, RtfAttack, DEFAULT_ACTIVATION_TARGET};
use oasis_augment::PolicyKind;
use oasis_data::{imagenette_like_with, Batch};
use oasis_fl::DefenseStack;
use oasis_image::Image;

fn calibration() -> Vec<Image> {
    imagenette_like_with(24, 24, 7)
        .items()
        .iter()
        .map(|it| it.image.clone())
        .collect()
}

fn victim_batch(size: usize) -> Batch {
    use rand::{rngs::StdRng, SeedableRng};
    let ds = imagenette_like_with(8, 24, 21);
    ds.sample_batch(size, &mut StdRng::seed_from_u64(77))
}

/// Paper Figure 5 / §IV-B: RTF reconstructs undefended batches in the
/// perfect band; major rotation collapses it to the unrecognizable
/// band.
#[test]
fn rtf_perfect_without_oasis_blocked_by_major_rotation() {
    let attack = RtfAttack::calibrated(256, &calibration()).expect("calibration");
    let batch = victim_batch(6);

    let undefended = run_attack(&attack, &batch, &DefenseStack::identity(), 10, 3).expect("run");
    assert!(
        undefended.mean_psnr() > 100.0,
        "undefended RTF should be near-perfect, got {:.1} dB",
        undefended.mean_psnr()
    );
    assert!(undefended.leak_rate(60.0) > 0.8);

    let defense = DefenseStack::of(Oasis::new(PolicyKind::MajorRotation));
    let defended = run_attack(&attack, &batch, &defense, 10, 3).expect("run");
    assert!(
        defended.mean_psnr() < 30.0,
        "MR-defended RTF should be unrecognizable, got {:.1} dB",
        defended.mean_psnr()
    );
    assert_eq!(defended.leak_rate(60.0), 0.0, "no sample may leak under MR");
}

/// Paper §IV-B: every single-transform policy substantially reduces
/// RTF reconstruction quality.
#[test]
fn all_policies_degrade_rtf() {
    let attack = RtfAttack::calibrated(128, &calibration()).expect("calibration");
    let batch = victim_batch(5);
    let undefended = run_attack(&attack, &batch, &DefenseStack::identity(), 10, 4).expect("run");
    for kind in [
        PolicyKind::MajorRotation,
        PolicyKind::MinorRotation,
        PolicyKind::Shearing,
        PolicyKind::HorizontalFlip,
        PolicyKind::VerticalFlip,
        PolicyKind::MajorRotationShearing,
    ] {
        let defense = DefenseStack::of(Oasis::new(kind));
        let defended = run_attack(&attack, &batch, &defense, 10, 4).expect("run");
        assert!(
            defended.mean_psnr() < undefended.mean_psnr() - 60.0,
            "policy {} reduced PSNR only from {:.1} to {:.1}",
            kind.abbrev(),
            undefended.mean_psnr(),
            defended.mean_psnr()
        );
    }
}

/// Paper Figure 6: against CAH at small batches, the MR+SH integration
/// is substantially stronger than the undefended baseline, and no
/// weaker than MR alone.
#[test]
fn cah_defeated_by_mr_sh_integration() {
    let attack = CahAttack::calibrated(96, DEFAULT_ACTIVATION_TARGET, &calibration(), 11)
        .expect("calibration");
    let batch = victim_batch(8);

    let undefended = run_attack(&attack, &batch, &DefenseStack::identity(), 10, 5).expect("run");
    let mr = run_attack(
        &attack,
        &batch,
        &DefenseStack::of(Oasis::new(PolicyKind::MajorRotation)),
        10,
        5,
    )
    .expect("run");
    let mrsh = run_attack(
        &attack,
        &batch,
        &DefenseStack::of(Oasis::new(PolicyKind::MajorRotationShearing)),
        10,
        5,
    )
    .expect("run");

    assert!(
        undefended.leak_rate(60.0) >= 0.5,
        "undefended CAH too weak: leak {:.0}%",
        undefended.leak_rate(60.0) * 100.0
    );
    assert!(
        mrsh.mean_psnr() < undefended.mean_psnr() - 40.0,
        "MR+SH insufficient: {:.1} vs undefended {:.1}",
        mrsh.mean_psnr(),
        undefended.mean_psnr()
    );
    assert!(
        mrsh.leak_rate(60.0) <= mr.leak_rate(60.0),
        "integration must not leak more than MR alone ({:.2} vs {:.2})",
        mrsh.leak_rate(60.0),
        mr.leak_rate(60.0)
    );
}

/// The reconstructions the attacker gets under OASIS are linear
/// combinations: blending the original with its rotations approximates
/// the defended reconstruction better than the original alone does.
#[test]
fn defended_reconstruction_is_a_linear_combination() {
    use oasis_metrics::psnr;
    let attack = RtfAttack::calibrated(256, &calibration()).expect("calibration");
    let batch = victim_batch(4);
    let defense = DefenseStack::of(Oasis::new(PolicyKind::MajorRotation));
    let outcome = run_attack(&attack, &batch, &defense, 10, 6).expect("run");

    let m = outcome
        .matches
        .iter()
        .max_by(|a, b| a.psnr.total_cmp(&b.psnr))
        .expect("at least one match");
    let recon = &outcome.reconstructions[m.recon_idx];
    let original = &batch.images[m.original_idx];
    let blend = Image::blend(&[
        original.clone(),
        original.rotate90(1),
        original.rotate90(2),
        original.rotate90(3),
    ])
    .expect("blend");
    assert!(
        psnr(recon, &blend) > psnr(recon, original) + 3.0,
        "reconstruction should look like the rotation blend: vs blend {:.1}, vs original {:.1}",
        psnr(recon, &blend),
        psnr(recon, original)
    );
}
