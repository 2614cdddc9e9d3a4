//! Whole-model checkpointing in the wire tensor format: save the
//! global model at round *k*, reload it later (or on another host),
//! and continue training with a bit-identical trajectory.
//!
//! [`load_model`] reads the file into memory and hands the bytes to
//! [`load_model_bytes`], which validates the header, every
//! name/shape/dtype against the model and every value's finiteness
//! *before mutating anything*, then
//! copies each tensor exactly once — file bytes → parameter storage —
//! via [`crate::TensorView::read_f32`]. There is no intermediate
//! `Vec<Vec<f32>>` staging, so peak load memory is the file plus the
//! model itself. The save path takes `&Sequential` (models are read,
//! not borrowed exclusively, while serializing).

use std::path::Path;

use oasis_nn::Sequential;

use crate::format::{Dtype, FrameWriter, WireView};
use crate::WireError;

/// Walks the model's parameter tensors read-only, yielding
/// `(name, shape, data)` in visit order — the single source of the
/// checkpoint naming scheme (`"{layer:03}.{layer_name}.{param}"`),
/// shared by save and load so the two can never diverge.
type ParamEntryVisitor<'a> = &'a mut dyn FnMut(&str, &[usize], &[f32]) -> Result<(), WireError>;

fn for_each_param_entry(model: &Sequential, f: ParamEntryVisitor) -> Result<(), WireError> {
    let mut err = None;
    for li in 0..model.len() {
        let layer = model.layer(li).expect("index in range");
        let name = layer.name();
        let mut pi = 0usize;
        layer.visit_params_ref(&mut |p| {
            if err.is_none() {
                let tensor_name = format!("{li:03}.{name}.{pi}");
                if let Err(e) = f(&tensor_name, p.dims(), p.data()) {
                    err = Some(e);
                }
            }
            pi += 1;
        });
    }
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Serializes every parameter tensor of `model` into a wire buffer.
/// Tensor names are `"{layer:03}.{layer_name}.{param}"` in visit
/// order, so the buffer is self-describing and order-stable.
pub fn model_to_bytes(model: &Sequential) -> Result<Vec<u8>, WireError> {
    let mut entries = Vec::new();
    for_each_param_entry(model, &mut |name, shape, _| {
        entries.push((name.to_owned(), shape.to_vec()));
        Ok(())
    })?;
    let declared: Vec<(&str, Dtype, &[usize])> = entries
        .iter()
        .map(|(name, shape)| (name.as_str(), Dtype::F32, shape.as_slice()))
        .collect();
    let mut frame = FrameWriter::new(&declared)?;
    for_each_param_entry(model, &mut |_, _, data| frame.write_f32(data).map(|_| ()))?;
    frame.finish()
}

/// Loads a checkpoint produced by [`model_to_bytes`] into `model`.
/// Strict: the architecture must match — same tensor names, same
/// shapes, no extras, no omissions — and every value must be finite,
/// so a corrupt file cannot plant a NaN or ±Inf in the model.
///
/// The copy is single-pass after validation: each checkpoint tensor is
/// written straight into its parameter's storage, with no staging
/// buffers. Validation runs first over the whole buffer, so on any
/// error the model is untouched.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed buffers, any
/// name/shape/count mismatch with `model`, or a non-finite value.
pub fn load_model_bytes(model: &mut Sequential, bytes: &[u8]) -> Result<(), WireError> {
    let view = WireView::parse(bytes)?;

    // Pass 1: read-only walk checking names, shapes, dtypes, values
    // and the tensor count against the checkpoint before mutating
    // anything.
    let mut expected = 0usize;
    for_each_param_entry(model, &mut |tensor_name, dims, _| {
        expected += 1;
        let t = view.require(tensor_name)?;
        if t.meta().shape != dims {
            return Err(WireError::Header(format!(
                "checkpoint tensor `{tensor_name}` has shape {:?}, model expects {:?}",
                t.meta().shape,
                dims
            )));
        }
        if t.meta().dtype != Dtype::F32 {
            return Err(WireError::Header(format!(
                "checkpoint tensor `{tensor_name}` has dtype {}, model parameters are f32",
                t.meta().dtype.as_str()
            )));
        }
        let finite = |b: &[u8]| f32::from_le_bytes([b[0], b[1], b[2], b[3]]).is_finite();
        if !t.bytes().chunks_exact(4).all(finite) {
            return Err(WireError::Payload(format!(
                "checkpoint tensor `{tensor_name}` holds a non-finite value"
            )));
        }
        Ok(())
    })?;
    if expected != view.len() {
        return Err(WireError::Header(format!(
            "checkpoint holds {} tensors, model expects {expected}",
            view.len(),
        )));
    }

    // Pass 2: copy each tensor exactly once, buffer → parameter
    // storage, in the same visit order.
    let mut copy_err = None;
    for li in 0..model.len() {
        let layer = model.layer_mut(li).expect("index in range");
        let name = layer.name();
        let mut pi = 0usize;
        layer.visit_params_mut(&mut |p| {
            if copy_err.is_none() {
                let tensor_name = format!("{li:03}.{name}.{pi}");
                let res = view
                    .require(&tensor_name)
                    .and_then(|t| t.read_f32(p.data_mut()));
                if let Err(e) = res {
                    copy_err = Some(e);
                }
            }
            pi += 1;
        });
    }
    match copy_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Writes `model` as a wire-format checkpoint file.
///
/// # Errors
///
/// Propagates serialization and filesystem failures.
pub fn save_model(path: impl AsRef<Path>, model: &Sequential) -> Result<(), WireError> {
    let bytes = model_to_bytes(model)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Loads a checkpoint file written by [`save_model`] into `model`:
/// the whole file is read, then loaded by [`load_model_bytes`], so a
/// failed load leaves `model` untouched.
///
/// # Errors
///
/// Propagates filesystem failures and the strict checks of
/// [`load_model_bytes`].
pub fn load_model(path: impl AsRef<Path>, model: &mut Sequential) -> Result<(), WireError> {
    load_model_bytes(model, &std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_nn::{flatten_params, Layer, Linear, Relu};
    use rand::{rngs::StdRng, SeedableRng};

    fn model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Sequential::new();
        m.push(Linear::new(6, 4, &mut rng));
        m.push(Relu::new());
        m.push(Linear::new(4, 3, &mut rng));
        m
    }

    #[test]
    fn checkpoint_round_trip_is_bit_exact() {
        let a = model(1);
        let bytes = model_to_bytes(&a).unwrap();
        let mut b = model(2);
        assert_ne!(flatten_params(&a), flatten_params(&b));
        load_model_bytes(&mut b, &bytes).unwrap();
        let pa = flatten_params(&a);
        let pb = flatten_params(&b);
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn architecture_mismatch_is_rejected() {
        let a = model(1);
        let bytes = model_to_bytes(&a).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut narrow = Sequential::new();
        narrow.push(Linear::new(6, 2, &mut rng));
        assert!(load_model_bytes(&mut narrow, &bytes).is_err());
    }

    #[test]
    fn failed_load_leaves_model_untouched() {
        let a = model(1);
        let bytes = model_to_bytes(&a).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut narrow = Sequential::new();
        narrow.push(Linear::new(6, 2, &mut rng));
        let before = flatten_params(&narrow);
        assert!(load_model_bytes(&mut narrow, &bytes).is_err());
        assert_eq!(
            flatten_params(&narrow),
            before,
            "validation must run before any mutation"
        );
    }

    #[test]
    fn non_finite_checkpoint_is_rejected_before_any_write() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut a = model(1);
            // The last value of the last (4th) parameter: every tensor
            // before it is valid, so a load that wrote as it checked
            // would already have changed the model.
            let mut k = 0;
            a.visit_params_mut(&mut |p| {
                k += 1;
                if k == 4 {
                    *p.data_mut().last_mut().unwrap() = bad;
                }
            });
            let bytes = model_to_bytes(&a).unwrap();
            let mut b = model(2);
            let before = flatten_params(&b);
            let err = load_model_bytes(&mut b, &bytes).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{err}");
            assert_eq!(flatten_params(&b), before, "value {bad}");
        }
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let a = model(1);
        let mut bytes = model_to_bytes(&a).unwrap();
        bytes.truncate(bytes.len() - 5);
        let mut b = model(1);
        assert!(load_model_bytes(&mut b, &bytes).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("oasis_wire_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.oasis");
        let a = model(7);
        save_model(&path, &a).unwrap();
        let mut b = model(8);
        load_model(&path, &mut b).unwrap();
        assert_eq!(flatten_params(&a), flatten_params(&b));
        let _ = std::fs::remove_file(&path);
    }
}
