//! Quickstart: the paper's headline result via the scenario engine.
//!
//! A dishonest federated-learning server plants the Robbing-the-Fed
//! imprint layer, a victim client computes one gradient update, and
//! the server inverts it. Without OASIS the training images come back
//! bit-perfect; with OASIS major rotation the inversion only yields
//! unrecognizable linear combinations.
//!
//! Each experiment is one declarative [`oasis_scenario::Scenario`]
//! value — the same engine behind every figure binary and the
//! `scenario` CLI (`cargo run -p oasis-bench --bin scenario -- --help`).
//! Both run through one [`oasis_scenario::Sweep`], so the defended
//! run reuses the undefended run's dataset and calibrated attack.
//!
//! Run with: `cargo run --release --example quickstart`

use oasis_scenario::{Scenario, Sweep};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The victim trains on 8 ImageNet-stand-in images; the dishonest
    // server knows coarse data statistics and plants 512 attacked
    // neurons. `defense` is the only axis that changes.
    let base = |defense: &str| -> Result<Scenario, Box<dyn std::error::Error>> {
        Ok(Scenario::builder()
            .workload("imagenette".parse()?)
            .attack("rtf:512".parse()?)
            .defense(defense.parse()?)
            .batch_size(8)
            .trials(1)
            .seed(1)
            .dataset_seed(42)
            .build()?)
    };

    let mut sweep = Sweep::default();

    // --- Without OASIS -------------------------------------------------
    let (undefended, undefended_outcomes) = sweep.run_detailed(&base("none")?)?;
    println!("RTF without OASIS:");
    println!(
        "  mean matched PSNR : {:>7.2} dB   (≈130–150 dB = verbatim copies)",
        undefended.mean_psnr()
    );
    println!(
        "  samples leaked    : {:>6.0} %",
        undefended.leak_rate * 100.0
    );

    // --- With OASIS (major rotation) -----------------------------------
    let (defended, defended_outcomes) = sweep.run_detailed(&base("oasis:MR")?)?;
    println!("RTF with OASIS (MR):");
    println!(
        "  mean matched PSNR : {:>7.2} dB   (≈15–25 dB = unrecognizable)",
        defended.mean_psnr()
    );
    println!(
        "  samples leaked    : {:>6.0} %",
        defended.leak_rate * 100.0
    );

    // Write a before/after panel for the first sample.
    let original = &undefended_outcomes[0];
    oasis_image::io::write_ppm(
        oasis_scenario::out_path("quickstart_original.ppm"),
        &original.processed_images[0],
    )?;
    for (outcome, file) in [
        (
            &undefended_outcomes[0],
            "quickstart_reconstruction_undefended.ppm",
        ),
        (
            &defended_outcomes[0],
            "quickstart_reconstruction_defended.ppm",
        ),
    ] {
        if let Some(m) = outcome.matches.iter().find(|m| m.original_idx == 0) {
            oasis_image::io::write_ppm(
                oasis_scenario::out_path(file),
                &outcome.reconstructions[m.recon_idx],
            )?;
        }
    }
    println!("\nwrote out/quickstart_*.ppm — compare the three images.");
    Ok(())
}
