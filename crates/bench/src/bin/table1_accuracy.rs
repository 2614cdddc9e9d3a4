//! Table I: model accuracy when training **with** each OASIS
//! transformation vs **without**.
//!
//! The paper trains ResNet-18 (ImageNet-10: 100 epochs, CIFAR100: 120
//! epochs, Adam lr 1e-3). This reproduction trains the ResNet-lite of
//! `oasis-nn` with Adam on the synthetic stand-ins at a reduced epoch
//! budget; the claim under test is *relative*: OASIS imposes no major
//! accuracy degradation.

use oasis::Oasis;
use oasis_augment::PolicyKind;
use oasis_bench::{banner, Scale, Workload};
use oasis_fl::{train_centralized, DefenseStack};
use oasis_nn::{resnet_lite, Adam};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Setup {
    workload: Workload,
    classes: usize,
    per_class: usize,
    side: usize,
    epochs: usize,
    weight_decay: f32,
}

fn main() {
    let scale = Scale::from_args();
    banner("Table I", "model accuracy with vs without OASIS", scale);

    let (epochs, imagenette_pc, cifar_pc, base) = match scale {
        Scale::Quick => (1usize, 12usize, 3usize, 4usize),
        Scale::Default => (5, 30, 8, 8),
        Scale::Full => (16, 80, 16, 12),
    };
    let setups = [
        Setup {
            workload: Workload::ImageNette,
            classes: 10,
            per_class: imagenette_pc,
            side: match scale {
                Scale::Quick => 16,
                _ => 32,
            },
            epochs,
            weight_decay: 1e-5, // paper: 1e-5 on ImageNet
        },
        Setup {
            workload: Workload::Cifar100,
            classes: 100,
            per_class: cifar_pc,
            side: 16,
            epochs,
            weight_decay: 1e-2, // paper: 1e-2 on CIFAR100
        },
    ];

    let policies = [
        PolicyKind::MajorRotation,
        PolicyKind::MinorRotation,
        PolicyKind::Shearing,
        PolicyKind::HorizontalFlip,
        PolicyKind::VerticalFlip,
        PolicyKind::MajorRotationShearing,
        PolicyKind::Without,
    ];

    for setup in setups {
        let ds = oasis_data::synthetic_dataset(
            setup.workload.label(),
            setup.classes,
            setup.per_class,
            setup.side,
            0x7AB1,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test) = ds.split(0.8, &mut rng);
        println!(
            "\n--- {} ({} classes, {} train / {} test, {} epochs, {}px) ---",
            setup.workload.label(),
            setup.classes,
            train.len(),
            test.len(),
            setup.epochs,
            setup.side
        );
        println!("{:>28} {:>12}", "Transformation", "Accuracy(%)");
        for kind in policies {
            let mut model = resnet_lite(
                (3, setup.side, setup.side),
                base,
                setup.classes,
                &mut StdRng::seed_from_u64(7),
            );
            // Paper: Adam, lr 1e-3.
            let mut opt = Adam::new(1e-3, setup.weight_decay);
            let defense = if kind == PolicyKind::Without {
                DefenseStack::identity()
            } else {
                DefenseStack::of(Oasis::new(kind))
            };
            let report = train_centralized(
                &mut model,
                &mut opt,
                &train,
                &test,
                &defense,
                setup.epochs,
                32,
                0x7AB1E,
            )
            .expect("training run");
            println!(
                "{:>28} {:>12.1}",
                kind.abbrev(),
                report.test_accuracy * 100.0
            );
        }
    }
    println!("\nExpected shape (paper Table I): accuracy within a few points of");
    println!("the Without-OASIS row for every transformation.");
}
