//! An adaptive dishonest server retunes its attack against a fixed
//! OASIS client over a live campaign.
//!
//! The paper argues the defense works *regardless of the attack
//! strategy* because it breaks the gradient-inversion principle
//! itself (Proposition 1), not one particular parameterization. This
//! example hands the whole hyperparameter sweep — attack families ×
//! attacked-neuron counts — to the campaign engine's adversary
//! program (`+attack=a|b|...`): every probe round evaluates each
//! candidate against the current global model and the adversary keeps
//! whichever leaks hardest, while the client keeps one policy. The
//! client-side Proposition 1 audit from the original example stays at
//! the end.
//!
//! Run with: `cargo run --release --example adaptive_attacker`

use oasis::{activation_set_analysis, Oasis};
use oasis_attacks::{run_attack, ActiveAttack, RtfAttack};
use oasis_augment::PolicyKind;
use oasis_campaign::{linear_relu_factory, CampaignRunner, CampaignSetup};
use oasis_data::imagenette_like_with;
use oasis_fl::DefenseStack;
use oasis_nn::Linear;
use rand::{rngs::StdRng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = imagenette_like_with(64, 32, 0xADA);
    let classes = dataset.num_classes();
    let d = dataset.feature_dim();
    let calibration: Vec<_> = dataset.items().iter().map(|it| it.image.clone()).collect();

    // The adversary's whole search space rides in the phase spec: the
    // campaign probes every candidate each round and picks the worst
    // case for the defender.
    let spec = "campaign:2+attack=rtf:64|rtf:128|rtf:256|rtf:512\
                |cah:64|cah:128|cah:256|cah:512|qbi:128"
        .parse()?;
    let mut setup = CampaignSetup::new(dataset.clone(), 8, linear_relu_factory(d, 64, classes, 7));
    setup.defense = "oasis:MR+SH".parse()?;
    setup.seed = 2;
    setup.eval_every = 1;
    let mut runner = CampaignRunner::new(spec, setup)?;
    runner.run()?;

    println!("client policy fixed at MR+SH; attacker adapts:\n");
    println!(
        "{:>6} {:>9} {:>12} {:>10}",
        "round", "attack", "mean PSNR", "leak rate"
    );
    let mut worst_case: f64 = 0.0;
    for eval in runner.adversary_log() {
        worst_case = worst_case.max(eval.leak_rate);
        println!(
            "{:>6} {:>9} {:>12.2} {:>9.0}%{}",
            eval.round,
            eval.spec,
            eval.mean_psnr,
            eval.leak_rate * 100.0,
            if eval.picked { "  <- picked" } else { "" }
        );
    }
    println!(
        "\nworst-case leak rate across the adversary's program: {:.0}%",
        worst_case * 100.0
    );

    // The client-side audit: Proposition 1 protection, on the batch
    // the client trained on, against the strongest RTF layer the
    // attacker tried.
    let stack = DefenseStack::of(Oasis::new(PolicyKind::MajorRotationShearing));
    let mut rng = StdRng::seed_from_u64(2);
    let batch = dataset.sample_batch(8, &mut rng);
    let rtf = RtfAttack::calibrated(512, &calibration)?;
    let outcome = run_attack(&rtf, &batch, &stack, classes, 5)?;
    let model = rtf.build_model(batch.images[0].dims(), classes, 5)?;
    let layer = model.layer_as::<Linear>(0).expect("malicious layer");
    let audit = activation_set_analysis(layer, &outcome.processed_images, batch.len());
    println!(
        "client-side Prop-1 audit vs RTF(512): {:.0}% of samples have an \
         activation-set twin",
        audit.protection_rate * 100.0
    );
    Ok(())
}
