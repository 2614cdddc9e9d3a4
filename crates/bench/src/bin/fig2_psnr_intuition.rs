//! Figure 2: the PSNR intuition panel — one sample reconstructed by
//! RTF without OASIS (≈ perfect, paper: 139.17 dB) and with OASIS
//! major rotation (unrecognizable, paper: 15.41 dB), plus the rendered
//! images under `out/`.

use oasis::Oasis;
use oasis_augment::PolicyKind;
use oasis_bench::{banner, calibration_images, out_path, run_attack, RtfAttack, Scale, Workload};
use oasis_data::Batch;
use oasis_fl::DefenseStack;
use oasis_image::io;

fn main() {
    let scale = Scale::from_args();
    banner("Figure 2", "PSNR visual intuition (one sample, RTF)", scale);

    let workload = Workload::ImageNette;
    let dataset = workload.dataset(scale, 8, 2024);
    let calib = calibration_images(workload, scale, 128);
    let attack = RtfAttack::calibrated(256, &calib).expect("calibration");
    let batch = Batch::from_items(dataset.items()[..4].to_vec());

    let undefended = run_attack(
        &attack,
        &batch,
        &DefenseStack::identity(),
        dataset.num_classes(),
        7,
    )
    .expect("run");
    let defense = DefenseStack::of(Oasis::new(PolicyKind::MajorRotation));
    let defended = run_attack(&attack, &batch, &defense, dataset.num_classes(), 7).expect("run");

    println!("\nSample 0 original mean: {:.4}", batch.images[0].mean());
    println!(
        "reconstruction without OASIS: best PSNR {:.2} dB (paper: 139.17 dB)",
        undefended.per_original_best[0]
    );
    println!(
        "reconstruction with OASIS/MR: best PSNR {:.2} dB (paper: 15.41 dB)",
        defended.per_original_best[0]
    );

    io::write_ppm(out_path("fig2_original.ppm"), &batch.images[0]).expect("write");
    if let Some(m) = undefended.matches.iter().find(|m| m.original_idx == 0) {
        io::write_ppm(
            out_path("fig2_recon_without_oasis.ppm"),
            &undefended.reconstructions[m.recon_idx],
        )
        .expect("write");
    }
    if let Some(m) = defended.matches.iter().find(|m| m.original_idx == 0) {
        io::write_ppm(
            out_path("fig2_recon_with_oasis.ppm"),
            &defended.reconstructions[m.recon_idx],
        )
        .expect("write");
    }
    println!("\nimages written to out/fig2_*.ppm");
}
