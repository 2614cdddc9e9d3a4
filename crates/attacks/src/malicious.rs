//! Shared construction of the attacked model.

use oasis_nn::{Linear, Relu, Sequential};
use oasis_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Result;

/// Assembles the network a dishonest server dispatches:
///
/// ```text
/// [ malicious Linear (n×d) ] → ReLU → [ equalized head (k×n) ]
/// ```
///
/// The head's weight matrix has **identical columns** (`W2[c][i] =
/// v[c]` for every attacked neuron `i`). Consequence: during backward,
/// every sample `j` sends the *same* signal `g_j = Σ_c δ_jc·v_c` to
/// every attacked neuron it activates. That equality is what makes the
/// RTF bin-difference extraction exact, and it is a choice the
/// *server* makes — the client cannot see it without weight
/// inspection (paper §III-A: modifications "should be minimal to
/// avoid detection").
///
/// # Errors
///
/// Propagates shape errors from layer construction.
pub fn attacked_model(
    malicious_weight: Tensor,
    malicious_bias: Tensor,
    classes: usize,
    head_seed: u64,
) -> Result<Sequential> {
    let neurons = malicious_weight.dims()[0];
    let malicious = Linear::from_parts(malicious_weight, malicious_bias)?;
    let mut rng = StdRng::seed_from_u64(head_seed);
    // Per-class coefficients, kept small so softmax stays unsaturated
    // and every sample keeps a nonzero loss signal.
    let v = Tensor::rand_uniform(&[classes], -0.05, 0.05, &mut rng);
    let mut head_w = Tensor::zeros(&[classes, neurons]);
    let rows = head_w.data_mut();
    for c in 0..classes {
        rows[c * neurons..(c + 1) * neurons].fill(v.data()[c]);
    }
    let head = Linear::from_parts(head_w, Tensor::zeros(&[classes]))?;
    let mut model = Sequential::new();
    model.push(malicious);
    model.push(Relu::new());
    model.push(head);
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_nn::{param_count, softmax_cross_entropy, Layer, Mode};

    #[test]
    fn model_has_three_layers() {
        let w = Tensor::zeros(&[4, 6]);
        let b = Tensor::zeros(&[4]);
        let model = attacked_model(w, b, 3, 0).unwrap();
        assert_eq!(model.len(), 3);
        assert!(model.layer_as::<Linear>(0).is_some());
        assert!(model.layer_as::<Relu>(1).is_some());
        assert!(model.layer_as::<Linear>(2).is_some());
    }

    #[test]
    fn head_columns_are_identical() {
        let w = Tensor::zeros(&[5, 2]);
        let b = Tensor::zeros(&[5]);
        let model = attacked_model(w, b, 4, 1).unwrap();
        let head = model.layer_as::<Linear>(2).unwrap();
        for c in 0..4 {
            let row = head.weight().row(c).unwrap();
            for &x in row {
                assert_eq!(x, row[0], "head row {c} is not constant");
            }
        }
    }

    #[test]
    fn per_sample_signal_equal_across_active_neurons() {
        // The property the equalized head guarantees: for a single
        // sample, ∂L/∂b_i is identical for every activated neuron i.
        let mut rng = StdRng::seed_from_u64(3);
        let w = Tensor::randn(&[6, 4], &mut rng).map(|v| v.abs() + 0.1); // all-positive: every neuron activates
        let b = Tensor::zeros(&[6]);
        let mut model = attacked_model(w, b, 3, 2).unwrap();
        let x = Tensor::rand_uniform(&[1, 4], 0.1, 1.0, &mut rng);
        let logits = model.forward(&x, Mode::Train).unwrap();
        let out = softmax_cross_entropy(&logits, &[1]).unwrap();
        let mut grads = vec![0.0f32; param_count(&model)];
        model.backward(&out.grad, &mut grads).unwrap();
        // Layer 0's window leads the buffer: 6×4 weights, then 6 biases.
        let gb = &grads[24..30];
        for &g in gb {
            assert!(
                (g - gb[0]).abs() < 1e-9,
                "bias gradients differ across neurons: {gb:?}"
            );
        }
        assert!(gb[0].abs() > 0.0, "signal must be nonzero");
    }
}
