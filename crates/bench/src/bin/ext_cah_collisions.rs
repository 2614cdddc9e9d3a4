//! Extension: CAH singleton-collision ablation.
//!
//! The CAH attack leaks a sample exactly when some trap neuron is
//! activated by that sample *alone*. This binary counts, for each
//! OASIS policy, how many trap neurons hold a singleton original —
//! the mechanism behind Figure 6 — and contrasts the measured counts
//! with the binomial model `n·p·(1−p)^{m−1}`.

use oasis::{activation_sets, Oasis};
use oasis_bench::{
    banner, calibration_images, figure6_policies, ActiveAttack, CahAttack, Scale, Workload,
    DEFAULT_ACTIVATION_TARGET,
};
use oasis_nn::Linear;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    banner(
        "Extension: CAH collisions",
        "singleton trap neurons per policy vs binomial model",
        scale,
    );

    for (workload, batch, neurons) in [
        (Workload::Cifar100, 8usize, 300usize),
        (Workload::ImageNette, 8, 100),
    ] {
        println!(
            "\n--- {} | B = {batch}, n = {neurons} ---",
            workload.label()
        );
        let dataset = workload.dataset(scale, batch, 43);
        let calib = calibration_images(workload, scale, 384);
        let attack = CahAttack::calibrated(neurons, DEFAULT_ACTIVATION_TARGET, &calib, 0xCA11)
            .expect("calibration");
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let b = dataset.sample_batch(batch, &mut rng);
        let model = attack
            .build_model(b.images[0].dims(), dataset.num_classes(), 7)
            .expect("model");
        let lin = model.layer_as::<Linear>(0).expect("malicious layer");

        println!(
            "{:>6} {:>6} {:>10} {:>12} {:>12} {:>10}",
            "policy", "m", "singleton", "orig-single", "model E", "mean p"
        );
        for kind in figure6_policies() {
            let defense = Oasis::new(kind);
            let processed = defense.defend(b.clone());
            let m = processed.len();
            let sets = activation_sets(lin, &processed.images);
            let mut singleton = 0usize;
            let mut orig_single = 0usize;
            let mut active_total = 0usize;
            for neuron in 0..neurons {
                let fired: Vec<usize> = sets
                    .iter()
                    .enumerate()
                    .filter_map(|(img, set)| set[neuron].then_some(img))
                    .collect();
                active_total += fired.len();
                if let [who] = fired[..] {
                    singleton += 1;
                    if who < batch {
                        orig_single += 1;
                    }
                }
            }
            let p_emp = active_total as f64 / (neurons * m) as f64;
            // Binomial model: each of the `batch` originals is a
            // singleton at a given neuron w.p. p·(1−p)^{m−1}.
            let model_e = neurons as f64 * batch as f64 * p_emp * (1.0 - p_emp).powi(m as i32 - 1);
            println!(
                "{:>6} {:>6} {:>10} {:>12} {:>12.2} {:>10.3}",
                kind.abbrev(),
                m,
                singleton,
                orig_single,
                model_e,
                p_emp
            );
        }
    }
}
