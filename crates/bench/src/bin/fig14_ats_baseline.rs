//! Figure 14: RTF against the ATSPrivacy-style baseline defense
//! (Gao et al.) — transform *replacement* instead of OASIS's
//! transform *addition*.
//!
//! The paper's point: the attack principle still applies, so the
//! (transformed) training images are reconstructed verbatim and their
//! content is recognizable; OASIS's additive augmentation only yields
//! unrecognizable linear combinations.

use oasis_augment::PolicyKind;
use oasis_bench::{banner, out_path, AttackSpec, DefenseSpec, Scale, Scenario, Sweep, Workload};
use oasis_image::{io, Image};
use oasis_metrics::{match_greedy_coarse, Summary};

fn main() {
    let scale = Scale::from_args();
    banner(
        "Figure 14",
        "RTF vs ATSPrivacy-style transform replacement",
        scale,
    );

    let mut sweep = Sweep::default();
    for (name, defense, file) in [
        ("ATS (replacement)", DefenseSpec::ats(), "fig14_ats.ppm"),
        (
            "OASIS MR (addition)",
            DefenseSpec::oasis(PolicyKind::MajorRotation),
            "fig14_oasis.ppm",
        ),
    ] {
        let scenario = Scenario::builder()
            .workload(Workload::ImageNette)
            .attack(AttackSpec::rtf(512))
            .defense(defense)
            .batch_size(8)
            .trials(1)
            .scale(scale)
            .seed(14)
            .dataset_seed(1414)
            .build()
            .expect("figure 14 scenario");
        let (report, outcomes) = sweep.run_detailed(&scenario).expect("attack run");
        let outcome = &outcomes[0];
        // The original private batch of trial 0, as the runner drew it
        // from the dataset the sweep already holds.
        let batch = scenario.trial_batches(&sweep.dataset(&scenario)).remove(0);
        // PSNR of reconstructions against the batch the client actually
        // trained on: high values = verbatim leakage of recognizable
        // (albeit transformed) content.
        let vs_processed =
            match_greedy_coarse(&outcome.reconstructions, &outcome.processed_images, 8);
        let leak: Vec<f64> = vs_processed.iter().map(|m| m.psnr).collect();
        println!("\n=== {name} ===  ({})", scenario.spec_string());
        println!("  vs originals : {}", report.summary);
        println!("  vs trained-on: {}", Summary::from_values(&leak));

        // Montage: top originals, middle what the client trained on
        // (first 8), bottom matched reconstructions.
        let mut tiles: Vec<Image> = batch.images.clone();
        tiles.extend(outcome.processed_images.iter().take(8).map(|i| i.clamp01()));
        let geom = outcome.processed_images[0].dims();
        for i in 0..8usize.min(outcome.processed_images.len()) {
            let matched = vs_processed
                .iter()
                .find(|m| m.original_idx == i)
                .map(|m| outcome.reconstructions[m.recon_idx].clone())
                .unwrap_or_else(|| Image::new(geom.0, geom.1, geom.2));
            tiles.push(matched);
        }
        io::write_ppm(out_path(file), &io::montage(&tiles, 8).expect("montage")).expect("write");
        println!("  montage -> {}", out_path(file).display());
    }
    println!("\nExpected shape (paper): ATS reconstructions match the trained-on");
    println!("images near-perfectly (content revealed); OASIS stays low everywhere.");
}
