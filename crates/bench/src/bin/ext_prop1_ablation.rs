//! Extension: executable Proposition 1.
//!
//! For each policy, runs the attack and measures (a) the
//! activation-set protection rate Proposition 1 predicts for the batch
//! the client trained on, against the malicious layer as broadcast,
//! and (b) the measured leak rate (fraction of originals reconstructed
//! above 60 dB) — the theory/practice correlation behind the paper's
//! defense argument.

use oasis::{activation_set_analysis, Oasis};
use oasis_augment::PolicyKind;
use oasis_bench::{
    banner, calibration_images, run_attack, ActiveAttack, CahAttack, RtfAttack, Scale, Workload,
    DEFAULT_ACTIVATION_TARGET,
};
use oasis_nn::Linear;
use oasis_scenario::LEAK_THRESHOLD_DB;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Extension: Prop 1",
        "activation-set overlap vs measured leakage",
        scale,
    );

    let workload = Workload::ImageNette;
    let dataset = workload.dataset(scale, 8, 11);
    let calib = calibration_images(workload, scale, 256);
    let batch = dataset.sample_batch(8, &mut StdRng::seed_from_u64(4));

    let rtf = RtfAttack::calibrated(256, &calib).expect("rtf calibration");
    let cah = CahAttack::calibrated(100, DEFAULT_ACTIVATION_TARGET, &calib, 0xCA11)
        .expect("cah calibration");

    for (label, attack) in [("RTF", &rtf as &dyn ActiveAttack), ("CAH", &cah)] {
        println!("\n--- {label} attack, B = 8 ---");
        println!(
            "{:>7} {:>18} {:>14} {:>12}",
            "policy", "Prop1 protection", "leak rate", "mean PSNR"
        );
        let model = attack
            .build_model(batch.images[0].dims(), dataset.num_classes(), 9)
            .expect("model");
        let layer = model.layer_as::<Linear>(0).expect("malicious layer");
        for kind in PolicyKind::all() {
            let stack = oasis_fl::DefenseStack::of(Oasis::new(kind));
            let outcome =
                run_attack(attack, &batch, &stack, dataset.num_classes(), 9).expect("attack");
            let analysis = activation_set_analysis(layer, &outcome.processed_images, batch.len());
            println!(
                "{:>7} {:>17.0}% {:>13.0}% {:>12.2}",
                kind.abbrev(),
                analysis.protection_rate * 100.0,
                outcome.leak_rate(LEAK_THRESHOLD_DB) * 100.0,
                outcome.mean_psnr(),
            );
        }
    }
    println!("\nExpected shape: high Prop-1 protection ⇒ low leak rate. RTF:");
    println!("measurement-preserving policies protect fully. CAH: only the");
    println!("MR+SH integration pushes both columns to the protected side.");
}
