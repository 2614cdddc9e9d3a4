//! Urban environment sensing with UAV swarms — the paper's industrial
//! motivation (§I), exercised against the *linear-model* gradient
//! inversion of §IV-D.
//!
//! Sensor platforms train a lightweight single-layer classifier over
//! many scene categories (linear heads are common on embedded
//! hardware). Every batch carries distinct scene labels, which is
//! exactly the regime where class-row inversion reveals the captured
//! imagery. OASIS hides the content while DP-style noise has to trade
//! accuracy away.
//!
//! Run with: `cargo run --release --example urban_sensing`

use oasis::Oasis;
use oasis_attacks::{run_attack, train_linear_with_dp, DpConfig, LinearModelAttack};
use oasis_augment::PolicyKind;
use oasis_data::synthetic_dataset;
use oasis_fl::DefenseStack;
use rand::{rngs::StdRng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 40 scene categories captured at 24px by the sensing swarm.
    let scenes = synthetic_dataset("urban-scenes", 40, 10, 24, 0x0AB);
    let classes = scenes.num_classes();
    let attack = LinearModelAttack::new(classes)?;

    let mut rng = StdRng::seed_from_u64(1);
    let batch = scenes.sample_batch_unique_labels(8, &mut rng);

    println!("linear-model inversion on a UAV update (B = 8, unique labels):");
    let undefended = run_attack(&attack, &batch, &DefenseStack::identity(), classes, 2)?;
    println!(
        "  without OASIS : mean PSNR {:>6.2} dB",
        undefended.mean_psnr()
    );

    for kind in [
        PolicyKind::MajorRotation,
        PolicyKind::Shearing,
        PolicyKind::HorizontalFlip,
    ] {
        let defense = DefenseStack::of(Oasis::new(kind));
        let defended = run_attack(&attack, &batch, &defense, classes, 2)?;
        println!(
            "  with {:<8} : mean PSNR {:>6.2} dB",
            kind.abbrev(),
            defended.mean_psnr()
        );
    }

    // The DP alternative: how much accuracy does it cost to blur the
    // update with noise instead?
    println!("\nDP-SGD alternative on the same task (linear classifier):");
    let mut split_rng = StdRng::seed_from_u64(3);
    let (train, test) = scenes.split(0.75, &mut split_rng);
    for sigma in [0.0f32, 1.0, 10.0] {
        let cfg = DpConfig {
            clip_norm: 2.0,
            noise_multiplier: sigma,
            learning_rate: 0.8,
            epochs: 15,
            batch_size: 8,
        };
        let acc = train_linear_with_dp(&train, &test, cfg, 7)?;
        println!("  sigma {sigma:>5.1} : accuracy {:>5.1} %", acc * 100.0);
    }
    println!("\nOASIS reaches low PSNR with *zero* noise — the accuracy cost");
    println!("stays at augmentation level (paper Table I).");
    Ok(())
}
