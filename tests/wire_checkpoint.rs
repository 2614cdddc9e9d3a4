//! Checkpoint round-trip: saving the global model in the wire format
//! at round *k*, reloading it into a fresh server, and continuing
//! training reproduces the uninterrupted trajectory bit-identically.

use oasis_fl::{DefenseStack, FlConfig, FlServer, ModelFactory};
use oasis_nn::{flatten_params, Linear, Relu, Sequential};
use oasis_population::{CohortRunner, Population};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

fn setup() -> (ModelFactory, Population) {
    let data = oasis_data::cifar_like_with(4, 8, 8, 21);
    let d = data.feature_dim();
    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(17);
        let mut m = Sequential::new();
        m.push(Linear::new(d, 20, &mut rng));
        m.push(Relu::new());
        m.push(Linear::new(20, 4, &mut rng));
        m
    });
    let clients = Population::iid(
        &data,
        3,
        Arc::new(DefenseStack::identity()),
        &mut StdRng::seed_from_u64(2),
    );
    (factory, clients)
}

#[test]
fn resumed_training_is_bit_identical_to_uninterrupted() {
    let (factory, clients) = setup();
    let cfg = FlConfig {
        learning_rate: 0.3,
        local_batch_size: 6,
        clients_per_round: 2,
    };

    // Reference: 6 uninterrupted rounds from one rng stream.
    let server = FlServer::new(Arc::clone(&factory), cfg.clone()).unwrap();
    let mut reference = CohortRunner::new(server, clients.clone());
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..6 {
        reference.run_round(&mut rng).unwrap();
    }
    let reference_params = flatten_params(reference.server().model());

    // Interrupted: 3 rounds, checkpoint to disk, resume in a fresh
    // server, 3 more rounds continuing the same rng stream.
    let server = FlServer::new(Arc::clone(&factory), cfg.clone()).unwrap();
    let mut first_half = CohortRunner::new(server, clients.clone());
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..3 {
        first_half.run_round(&mut rng).unwrap();
    }
    let dir = std::env::temp_dir().join(format!("oasis_wire_resume_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("round3.oasis");
    first_half.server().save_checkpoint(&path).unwrap();
    let saved_round = first_half.server().round();
    drop(first_half);

    let mut resumed = FlServer::new(factory, cfg).unwrap();
    resumed.restore_checkpoint(&path).unwrap();
    resumed.set_round(saved_round);
    assert_eq!(resumed.round(), 3);
    let mut resumed = CohortRunner::new(resumed, clients.clone());
    for _ in 0..3 {
        resumed.run_round(&mut rng).unwrap();
    }
    let resumed_params = flatten_params(resumed.server().model());

    assert_eq!(reference_params.len(), resumed_params.len());
    for (i, (a, b)) in reference_params.iter().zip(&resumed_params).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "parameter {i} diverged after resume: {a} vs {b}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_rejects_wrong_architecture() {
    let (factory, _) = setup();
    let server = FlServer::new(factory, FlConfig::default()).unwrap();
    let dir = std::env::temp_dir().join(format!("oasis_wire_resume_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("arch.oasis");
    server.save_checkpoint(&path).unwrap();

    let other: ModelFactory = Arc::new(|| {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Sequential::new();
        m.push(Linear::new(5, 2, &mut rng));
        m
    });
    let mut wrong = FlServer::new(other, FlConfig::default()).unwrap();
    assert!(wrong.restore_checkpoint(&path).is_err());
    let _ = std::fs::remove_file(&path);
}
