//! Extension: the DP-SGD utility/privacy trade-off the paper's
//! related-work section contrasts OASIS against.
//!
//! Sweeps the noise multiplier σ and reports (a) the RTF attack's
//! reconstruction PSNR under DP-SGD updates (a `dp:1,σ` defense
//! scenario on the CIFAR100 workload) and (b) the accuracy of a
//! linear classifier trained with the same mechanism — showing that
//! the noise needed to push PSNR into OASIS territory destroys
//! utility, while OASIS achieves low PSNR with accuracy parity
//! (Table I).

use oasis_attacks::{train_linear_with_dp, DpConfig};
use oasis_bench::{banner, AttackSpec, DefenseSpec, Scale, Scenario, Sweep, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Extension: DP",
        "DP-SGD privacy/utility trade-off vs OASIS",
        scale,
    );

    // Utility side: a 10-class training problem with enough samples
    // per class for train/test accuracy to be meaningful.
    let dataset = oasis_data::cifar_like_with(10, 24, scale.cifar_side(), 5);
    let mut rng = StdRng::seed_from_u64(0);
    let (train, test) = dataset.split(0.75, &mut rng);

    println!(
        "\n{:>8} {:>16} {:>16}",
        "sigma", "attack PSNR(dB)", "accuracy(%)"
    );
    let sigmas = match scale {
        Scale::Quick => vec![0.0, 1.0, 20.0],
        _ => vec![0.0, 0.1, 0.5, 1.0, 5.0, 20.0],
    };
    let mut sweep = Sweep::default();
    for sigma in sigmas {
        // Privacy side: the RTF attack against DP-SGD updates.
        let cell = Scenario::builder()
            .workload(Workload::Cifar100)
            .attack(AttackSpec::rtf(128))
            .defense(DefenseSpec::dp(1.0, sigma))
            .batch_size(8)
            .trials(1)
            .scale(scale)
            .seed(3)
            .dataset_seed(5)
            .calibration(128)
            .build()
            .expect("dp scenario");
        let report = sweep.run(&cell).expect("dp attack run");
        let cfg = DpConfig {
            clip_norm: 1.0,
            noise_multiplier: sigma,
            learning_rate: 0.5,
            epochs: match scale {
                Scale::Quick => 4,
                _ => 10,
            },
            batch_size: 8,
        };
        let acc = train_linear_with_dp(&train, &test, cfg, 11).expect("dp training");
        println!(
            "{sigma:>8.2} {:>16.2} {:>16.1}",
            report.mean_psnr(),
            acc * 100.0
        );
    }
    println!("\nExpected shape: PSNR only drops into the OASIS band (≈15–25 dB)");
    println!("once σ is large enough to visibly destroy accuracy — the paper's");
    println!("motivation for a noise-free defense.");
}
