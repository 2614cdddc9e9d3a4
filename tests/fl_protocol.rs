//! Integration tests for the FL protocol with defended clients.

use oasis::Oasis;
use oasis_augment::PolicyKind;
use oasis_data::cifar_like_with;
use oasis_fl::{DefenseStack, FlClient, FlConfig, FlServer, ModelFactory, RoundReport};
use oasis_nn::{Linear, Relu, Sequential};
use oasis_population::CohortRunner;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

fn oasis(policy: PolicyKind) -> Arc<DefenseStack> {
    Arc::new(DefenseStack::of(Oasis::new(policy)))
}

fn factory(d: usize, classes: usize) -> ModelFactory {
    Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(13);
        let mut m = Sequential::new();
        m.push(Linear::new(d, 32, &mut rng));
        m.push(Relu::new());
        m.push(Linear::new(32, classes, &mut rng));
        m
    })
}

/// FL training converges with OASIS clients — the defense does not
/// break the protocol.
#[test]
fn defended_federation_converges() {
    let ds = cifar_like_with(4, 12, 10, 3);
    let d = ds.feature_dim();
    let mut rng = StdRng::seed_from_u64(0);
    let shards: Vec<_> = (0..3)
        .map(|i| {
            let (a, _) = ds.split(0.5, &mut rng);
            FlClient::new(i, a, oasis(PolicyKind::MajorRotation))
        })
        .collect();
    let cfg = FlConfig {
        learning_rate: 0.5,
        local_batch_size: 6,
        clients_per_round: 0,
    };
    let server = FlServer::new(factory(d, 4), cfg).unwrap();
    let reports: Vec<RoundReport> = CohortRunner::new(server, shards).run(25, 1).unwrap();
    let first: f32 = reports[..3].iter().map(|r| r.mean_loss).sum::<f32>() / 3.0;
    let last: f32 = reports[reports.len() - 3..]
        .iter()
        .map(|r| r.mean_loss)
        .sum::<f32>()
        / 3.0;
    assert!(last < first, "defended FL did not learn: {first} -> {last}");
}

/// Mixed federations (some defended, some not) run fine — OASIS is
/// client-local.
#[test]
fn mixed_federation_round_reports_all_participants() {
    let ds = cifar_like_with(3, 8, 10, 5);
    let d = ds.feature_dim();
    let mut rng = StdRng::seed_from_u64(0);
    let (a, b) = ds.split(0.5, &mut rng);
    let clients = vec![
        FlClient::new(0, a, oasis(PolicyKind::MajorRotationShearing)),
        FlClient::new(1, b, Arc::new(DefenseStack::identity())),
    ];
    let server = FlServer::new(factory(d, 3), FlConfig::default()).unwrap();
    let report = CohortRunner::new(server, clients)
        .run_round(&mut StdRng::seed_from_u64(9))
        .unwrap();
    assert_eq!(report.participants, 2);
    assert!(report.mean_loss.is_finite());
}

/// The full pipeline is deterministic given seeds: two identical
/// servers produce identical round reports.
#[test]
fn protocol_is_deterministic() {
    let ds = cifar_like_with(3, 8, 8, 6);
    let d = ds.feature_dim();
    let mut rng = StdRng::seed_from_u64(0);
    let (a, _) = ds.split(0.8, &mut rng);
    let make_clients = || {
        vec![FlClient::new(
            0,
            a.clone(),
            oasis(PolicyKind::MajorRotation),
        )]
    };
    let run = |seed: u64| {
        let server = FlServer::new(factory(d, 3), FlConfig::default()).unwrap();
        let reports = CohortRunner::new(server, make_clients())
            .run(3, seed)
            .unwrap();
        reports.iter().map(|r| r.mean_loss).collect::<Vec<_>>()
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}
