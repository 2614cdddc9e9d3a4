//! Figures 7–12: visual reconstructions.
//!
//! For each transformation the binary writes a side-by-side montage —
//! the raw input batch on top, the matched reconstructions below — to
//! `out/figN_<policy>.ppm`, mirroring the paper's panels:
//!
//! * Fig. 7 — RTF vs major rotation (unrecognizable overlaps)
//! * Fig. 8 — RTF vs minor rotation (overlap of original + rotations)
//! * Fig. 9 — RTF vs shearing (original + sheared overlap)
//! * Fig. 10 — RTF vs horizontal flip (mirror ghosting, content leaks)
//! * Fig. 11 — RTF vs vertical flip (same)
//! * Fig. 12 — CAH vs MR+SH integration (unrecognizable)

use oasis::Oasis;
use oasis_augment::PolicyKind;
use oasis_bench::{
    banner, calibration_images, out_path, run_attack, ActiveAttack, CahAttack, RtfAttack, Scale,
    Workload, DEFAULT_ACTIVATION_TARGET,
};
use oasis_data::Batch;
use oasis_image::{io, Image};
use oasis_metrics::Summary;

fn panel(
    figure: &str,
    attack: &dyn ActiveAttack,
    batch: &Batch,
    kind: PolicyKind,
    classes: usize,
    file: &str,
) {
    let defense = oasis_fl::DefenseStack::of(Oasis::new(kind));
    let outcome = run_attack(attack, batch, &defense, classes, 99).expect("attack run");
    // Order reconstructions by the original they match so the montage
    // rows correspond.
    let mut recon_row: Vec<Image> = Vec::new();
    for (i, img) in batch.images.iter().enumerate() {
        let matched = outcome
            .matches
            .iter()
            .find(|m| m.original_idx == i)
            .map(|m| outcome.reconstructions[m.recon_idx].clone());
        recon_row
            .push(matched.unwrap_or_else(|| Image::new(img.channels(), img.height(), img.width())));
    }
    let mut tiles = batch.images.clone();
    tiles.extend(recon_row);
    let montage = io::montage(&tiles, batch.len()).expect("montage");
    io::write_ppm(out_path(file), &montage).expect("write montage");
    let summary = Summary::from_values(&outcome.matched_psnrs);
    println!(
        "{figure:<8} {:<6} [{}] {}  -> out/{file}",
        kind.abbrev(),
        attack.name(),
        summary
    );
}

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figures 7–12",
        "visual reconstructions per transformation",
        scale,
    );
    println!("(montages: top row = raw inputs, bottom row = reconstructions)\n");

    let workload = Workload::ImageNette;
    let batch_size = 8;
    let batch = oasis_bench::visual_batch(workload, scale, batch_size, 777);
    let classes = 10;
    let calib = calibration_images(workload, scale, 256);

    let rtf = RtfAttack::calibrated(512, &calib).expect("rtf calibration");
    panel(
        "Fig 7",
        &rtf,
        &batch,
        PolicyKind::MajorRotation,
        classes,
        "fig7_major_rotation.ppm",
    );
    panel(
        "Fig 8",
        &rtf,
        &batch,
        PolicyKind::MinorRotation,
        classes,
        "fig8_minor_rotation.ppm",
    );
    panel(
        "Fig 9",
        &rtf,
        &batch,
        PolicyKind::Shearing,
        classes,
        "fig9_shearing.ppm",
    );
    panel(
        "Fig 10",
        &rtf,
        &batch,
        PolicyKind::HorizontalFlip,
        classes,
        "fig10_hflip.ppm",
    );
    panel(
        "Fig 11",
        &rtf,
        &batch,
        PolicyKind::VerticalFlip,
        classes,
        "fig11_vflip.ppm",
    );

    let cah = CahAttack::calibrated(100, DEFAULT_ACTIVATION_TARGET, &calib, 0xCA11)
        .expect("cah calibration");
    panel(
        "Fig 12",
        &cah,
        &batch,
        PolicyKind::MajorRotationShearing,
        classes,
        "fig12_mr_sh_integration.ppm",
    );

    // Reference panel: the undefended reconstruction, for contrast.
    let undefended = run_attack(
        &rtf,
        &batch,
        &oasis_fl::DefenseStack::identity(),
        classes,
        99,
    )
    .expect("undefended run");
    let mut tiles = batch.images.clone();
    for (i, _) in batch.images.iter().enumerate() {
        let matched = undefended
            .matches
            .iter()
            .find(|m| m.original_idx == i)
            .map(|m| undefended.reconstructions[m.recon_idx].clone())
            .unwrap_or_else(|| Image::new(3, batch.images[0].height(), batch.images[0].width()));
        tiles.push(matched);
    }
    let montage = io::montage(&tiles, batch.len()).expect("montage");
    io::write_ppm(out_path("fig7to12_reference_undefended.ppm"), &montage).expect("write");
    println!(
        "{:<8} {:<6} [RTF] {}  -> out/fig7to12_reference_undefended.ppm",
        "Ref",
        "WO",
        Summary::from_values(&undefended.matched_psnrs)
    );
}
