//! Integration test for the paper's Table I claim: training with
//! OASIS does not majorly degrade accuracy (tiny-scale version; the
//! full sweep lives in `cargo run -p oasis-bench --bin table1_accuracy`).

use oasis::Oasis;
use oasis_augment::PolicyKind;
use oasis_data::{cifar_like_with, Dataset};
use oasis_fl::{train_centralized, DefenseStack};
use oasis_nn::{
    flatten_params, param_count, softmax_cross_entropy, Adam, Layer, Linear, Mode, Optimizer, Relu,
    Sequential, Sgd,
};
use rand::{rngs::StdRng, SeedableRng};

fn split() -> (Dataset, Dataset) {
    let ds = cifar_like_with(5, 24, 10, 9);
    ds.split(0.8, &mut StdRng::seed_from_u64(0))
}

fn mlp(d: usize) -> Sequential {
    let mut model = Sequential::new();
    let mut mrng = StdRng::seed_from_u64(4);
    model.push(Linear::new(d, 40, &mut mrng));
    model.push(Relu::new());
    model.push(Linear::new(40, 5, &mut mrng));
    model
}

fn oasis(kind: PolicyKind) -> DefenseStack {
    DefenseStack::of(Oasis::new(kind))
}

fn train_with(defense: &DefenseStack) -> f64 {
    let (train, test) = split();
    let mut model = mlp(train.feature_dim());
    let mut opt = Sgd::with_momentum(0.05, 0.9, 1e-4);
    train_centralized(&mut model, &mut opt, &train, &test, defense, 15, 8, 1)
        .expect("training")
        .test_accuracy
}

#[test]
fn oasis_training_keeps_accuracy_close_to_baseline() {
    let baseline = train_with(&DefenseStack::identity());
    assert!(baseline > 0.5, "baseline should learn: {baseline}");
    for kind in [PolicyKind::MajorRotation, PolicyKind::MajorRotationShearing] {
        let acc = train_with(&oasis(kind));
        assert!(
            acc > baseline - 0.25,
            "policy {} dropped accuracy too far: {acc:.2} vs baseline {baseline:.2}",
            kind.abbrev()
        );
    }
}

#[test]
fn train_centralized_matches_the_unshared_loop_bit_exactly() {
    // The reference is the loop `train_centralized` ran before it
    // shared `DefenseStack::local_step`: Table I's optimizer steps
    // straight on the gradient buffer the backward pass wrote.
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let (train, test) = split();
    for defense in [DefenseStack::identity(), oasis(PolicyKind::MajorRotation)] {
        let (mut model, mut opt) = (mlp(train.feature_dim()), Adam::new(1e-3, 1e-4));
        let report =
            train_centralized(&mut model, &mut opt, &train, &test, &defense, 3, 8, 1).unwrap();
        let (mut reference, mut opt) = (mlp(train.feature_dim()), Adam::new(1e-3, 1e-4));
        let mut rng = StdRng::seed_from_u64(1);
        let mut epoch_losses = Vec::new();
        for _ in 0..3 {
            let mut losses = Vec::new();
            for batch in train.shuffled_batches(8, &mut rng) {
                let processed = defense.process_batch(&batch, &mut rng);
                let logits = reference.forward(&processed.to_matrix(), Mode::Train);
                let out = softmax_cross_entropy(&logits.unwrap(), &processed.labels).unwrap();
                let mut grads = vec![0.0f32; param_count(&reference)];
                reference.backward(&out.grad, &mut grads).unwrap();
                opt.step(&mut reference, &grads).unwrap();
                losses.push(out.loss);
            }
            epoch_losses.push(losses.iter().sum::<f32>() / losses.len() as f32);
        }
        assert_eq!(
            bits(&report.epoch_losses),
            bits(&epoch_losses),
            "{defense:?}"
        );
        let (trained, expected) = (flatten_params(&model), flatten_params(&reference));
        assert_eq!(bits(&trained), bits(&expected), "{defense:?}");
    }
}
