//! Centralized training helpers (used by the Table I experiment).

use oasis_data::Dataset;
use oasis_nn::{softmax_cross_entropy, Layer, Mode, Optimizer, Sequential};
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{BatchStage, Result};

/// Report from a centralized training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Final test accuracy in `[0, 1]`.
    pub test_accuracy: f64,
}

/// Trains `model` on `train` for `epochs` epochs with the given batch
/// size and preprocessor, then evaluates top-1 accuracy on `test`.
///
/// This is the Table I pipeline: the preprocessor is either the
/// identity (the paper's "Without OASIS" row) or the OASIS defense
/// (every other row).
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
    preprocessor: &dyn BatchStage,
    epochs: usize,
    batch_size: usize,
    seed: u64,
) -> Result<TrainReport> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut epoch_losses = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let mut losses = Vec::new();
        for batch in train.shuffled_batches(batch_size, &mut rng) {
            let processed = preprocessor.process(&batch, &mut rng);
            let x = processed.to_matrix();
            model.zero_grad();
            let logits = model.forward(&x, Mode::Train)?;
            let out = softmax_cross_entropy(&logits, &processed.labels)?;
            model.backward(&out.grad)?;
            optimizer.step(model);
            losses.push(out.loss);
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
    use crate::IdentityPreprocessor;
    use oasis_data::{cifar_like_with, Batch};
    use oasis_nn::{Linear, Relu, Sgd};

    #[test]
    fn identity_preprocessor_is_identity() {
        let ds = cifar_like_with(2, 2, 8, 0);
        let batch = Batch::from_items(ds.items().to_vec());
        let mut rng = StdRng::seed_from_u64(0);
        let out = IdentityPreprocessor.process(&batch, &mut rng);
        assert_eq!(out, batch);
    }

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
            &IdentityPreprocessor,
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
    fn evaluate_accuracy_on_empty_dataset_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new();
        model.push(Linear::new(4, 2, &mut rng));
        let empty = Dataset::new("empty", 2, vec![]);
        assert_eq!(evaluate_accuracy(&mut model, &empty, 4).unwrap(), 0.0);
    }
}
