//! Centralized training helpers (used by the Table I experiment).

use oasis_data::Dataset;
use oasis_nn::{Layer, Mode, Optimizer, Sequential};
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{DefenseStack, Result};

/// Report from a centralized training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Final test accuracy in `[0, 1]`.
    pub test_accuracy: f64,
}

/// Trains `model` on `train` for `epochs` epochs with the given batch
/// size and defense stack, then evaluates top-1 accuracy on `test`.
///
/// Every batch runs [`DefenseStack::local_step`] and the optimizer
/// steps on its defended update, so a stack that clips or perturbs the
/// update is applied too. This is the Table I pipeline: the stack is
/// either the identity (the paper's "Without OASIS" row) or the OASIS
/// defense (every other row).
///
/// # Errors
///
/// Propagates model execution failures.
#[allow(clippy::too_many_arguments)]
pub fn train_centralized(
    model: &mut Sequential,
    optimizer: &mut dyn Optimizer,
    train: &Dataset,
    test: &Dataset,
    defense: &DefenseStack,
    epochs: usize,
    batch_size: usize,
    seed: u64,
) -> Result<TrainReport> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut epoch_losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut losses = Vec::new();
        for batch in train.shuffled_batches(batch_size, &mut rng) {
            let step = defense.local_step(model, &batch, &mut rng)?;
            optimizer.step(model, &step.update)?;
            losses.push(step.loss);
        }
        epoch_losses.push(losses.iter().sum::<f32>() / losses.len().max(1) as f32);
    }
    let test_accuracy = evaluate_accuracy(model, test, batch_size.max(1))?;
    Ok(TrainReport {
        epoch_losses,
        test_accuracy,
    })
}

/// Top-1 accuracy of `model` on `dataset`, evaluated in batches.
///
/// # Errors
///
/// Propagates model execution failures.
pub fn evaluate_accuracy(
    model: &mut Sequential,
    dataset: &Dataset,
    batch_size: usize,
) -> Result<f64> {
    let mut correct = 0usize;
    let mut total = 0usize;
    for batch in dataset.batches(batch_size) {
        let x: Tensor = batch.to_matrix();
        let logits = model.forward(&x, Mode::Eval)?;
        let preds = logits.argmax_rows().map_err(oasis_nn::NnError::from)?;
        correct += preds
            .iter()
            .zip(&batch.labels)
            .filter(|(p, l)| p == l)
            .count();
        total += batch.len();
    }
    Ok(if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClipStage;
    use oasis_data::cifar_like_with;
    use oasis_nn::{flatten_params, Linear, Relu, Sgd};

    #[test]
    fn centralized_training_learns_separable_classes() {
        let ds = cifar_like_with(3, 20, 8, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let (train, test) = ds.split(0.8, &mut rng);
        let d = train.feature_dim();
        let mut model = Sequential::new();
        model.push(Linear::new(d, 32, &mut rng));
        model.push(Relu::new());
        model.push(Linear::new(32, 3, &mut rng));
        let mut opt = Sgd::with_momentum(0.05, 0.9, 0.0);
        let report = train_centralized(
            &mut model,
            &mut opt,
            &train,
            &test,
            &DefenseStack::identity(),
            20,
            8,
            7,
        )
        .unwrap();
        assert!(
            report.test_accuracy > 0.5,
            "accuracy {} too low",
            report.test_accuracy
        );
        assert!(report.epoch_losses.first().unwrap() > report.epoch_losses.last().unwrap());
    }

    #[test]
    fn update_clip_bounds_each_optimizer_step() {
        // Plain SGD moves the parameters by `lr · ‖update‖` per batch,
        // so with every update clipped to `c` one epoch of `k` batches
        // moves them by at most `k · lr · c` in L2.
        let train = cifar_like_with(3, 4, 8, 1);
        let (c, lr, k) = (0.01f32, 0.5f32, train.len().div_ceil(4) as f32);
        let moved = |stack: &DefenseStack| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut model = Sequential::new();
            model.push(Linear::new(train.feature_dim(), 3, &mut rng));
            let before = flatten_params(&model);
            let mut opt = Sgd::new(lr);
            train_centralized(&mut model, &mut opt, &train, &train, stack, 1, 4, 5).unwrap();
            let after = flatten_params(&model);
            after
                .iter()
                .zip(&before)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt()
        };
        let bound = k * lr * c * (1.0 + 1e-4);
        let clipped = moved(&DefenseStack::of(ClipStage::new(c)));
        assert!(
            clipped > 0.0 && clipped <= bound,
            "moved {clipped}, bound {bound}"
        );
        // The bound binds: unclipped training moves further.
        assert!(moved(&DefenseStack::identity()) > bound);
    }

    #[test]
    fn evaluate_accuracy_on_empty_dataset_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new();
        model.push(Linear::new(4, 2, &mut rng));
        let empty = Dataset::new("empty", 2, vec![]);
        assert_eq!(evaluate_accuracy(&mut model, &empty, 4).unwrap(), 0.0);
    }
}
