//! Medical-imaging federation under an actively dishonest server.
//!
//! The paper motivates OASIS with healthcare FL: hospitals train a
//! shared diagnostic model without exchanging scans (HIPAA/GDPR), yet
//! an actively dishonest coordinator can reconstruct patient images
//! from gradient updates. This example simulates four hospital sites,
//! runs the protocol honestly to show learning progresses, then flips
//! the server to the CAH attack and compares patient-image leakage
//! with and without OASIS (MR+SH — the configuration the paper found
//! necessary against CAH).
//!
//! Run with: `cargo run --release --example medical_federation`

use oasis::Oasis;
use oasis_attacks::{run_attack, CahAttack, DEFAULT_ACTIVATION_TARGET};
use oasis_augment::PolicyKind;
use oasis_data::synthetic_dataset;
use oasis_fl::{DefenseStack, FlClient, FlConfig, FlServer, ModelFactory};
use oasis_nn::{Linear, Relu, Sequential};
use oasis_population::{CohortRunner, Population};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Six scan categories ("modalities/findings"), 24 scans each at
    // 12 px — small enough that the honest-training phase converges
    // in seconds on a laptop CPU.
    let scans = synthetic_dataset("hospital-scans", 6, 24, 12, 0xD0C);
    let d = scans.feature_dim();
    let classes = scans.num_classes();

    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(77);
        let mut m = Sequential::new();
        m.push(Linear::new(d, 48, &mut rng));
        m.push(Relu::new());
        m.push(Linear::new(48, classes, &mut rng));
        m
    });

    // --- Phase 1: honest training across four hospitals ---------------
    let mut rng = StdRng::seed_from_u64(5);
    let hospitals = Population::iid(&scans, 4, Arc::new(DefenseStack::identity()), &mut rng);
    let cfg = FlConfig {
        learning_rate: 0.1,
        local_batch_size: 12,
        clients_per_round: 0,
    };
    let server = FlServer::new(Arc::clone(&factory), cfg.clone())?;
    let reports = CohortRunner::new(server, hospitals).run(150, 99)?;
    println!(
        "honest federation: loss {:.3} -> {:.3} over {} rounds",
        reports[0].mean_loss,
        reports.last().unwrap().mean_loss,
        reports.len()
    );

    // --- Phase 2: the coordinator turns dishonest (CAH) ---------------
    let calibration: Vec<_> = scans.items().iter().map(|it| it.image.clone()).collect();
    let attack = CahAttack::calibrated(96, DEFAULT_ACTIVATION_TARGET, &calibration, 0xBAD)?;
    let mut patient_rng = StdRng::seed_from_u64(11);
    let victim_batch = scans.sample_batch(8, &mut patient_rng);

    let undefended = run_attack(
        &attack,
        &victim_batch,
        &DefenseStack::identity(),
        classes,
        3,
    )?;
    println!("\nCAH against an undefended hospital:");
    println!(
        "  scans leaked (>60 dB): {:.0}%",
        undefended.leak_rate(60.0) * 100.0
    );
    println!("  mean matched PSNR:     {:.1} dB", undefended.mean_psnr());

    let defense = DefenseStack::of(Oasis::new(PolicyKind::MajorRotationShearing));
    let defended = run_attack(&attack, &victim_batch, &defense, classes, 3)?;
    println!("CAH against an OASIS(MR+SH) hospital:");
    println!(
        "  scans leaked (>60 dB): {:.0}%",
        defended.leak_rate(60.0) * 100.0
    );
    println!("  mean matched PSNR:     {:.1} dB", defended.mean_psnr());

    // --- Phase 3: defended hospitals still learn -----------------------
    let mut rng = StdRng::seed_from_u64(6);
    let shards = Population::iid(&scans, 4, Arc::new(DefenseStack::identity()), &mut rng);
    let defended_hospitals: Vec<_> = shards
        .clients()
        .iter()
        .map(|c| {
            let defense = if c.id() % 2 == 0 {
                DefenseStack::of(Oasis::new(PolicyKind::MajorRotationShearing))
            } else {
                DefenseStack::identity()
            };
            FlClient::new(c.id(), c.data().clone(), Arc::new(defense))
        })
        .collect();
    let server = FlServer::new(factory, cfg)?;
    let reports = CohortRunner::new(server, defended_hospitals).run(150, 98)?;
    println!(
        "\nmixed federation (2 defended, 2 not): loss {:.3} -> {:.3}",
        reports[0].mean_loss,
        reports.last().unwrap().mean_loss
    );
    println!("OASIS is a purely client-side defense: adopting hospitals gain");
    println!("protection without coordinating with anyone else.");
    Ok(())
}
