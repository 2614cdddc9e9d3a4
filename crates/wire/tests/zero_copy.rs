//! The zero-copy wire & checkpoint path, pinned end to end:
//!
//! * a delivered raw frame folds from a slice borrowed straight off
//!   the wire payload, with no copy (the `wire.decode.borrowed` and
//!   `wire.decode.copied` counters say which route a fold took);
//! * misaligned frames fall back to exactly one copy, bit-identically;
//! * checkpoint file loads equal the byte-path loads bit for bit, and
//!   malformed checkpoint files (truncated, byte-flipped, overlapping
//!   offsets) error — never panic — and leave the model untouched.

use std::sync::Mutex;

use oasis_nn::{flatten_params, Linear, Relu, Sequential};
use oasis_wire::checkpoint::{load_model, load_model_bytes, save_model};
use oasis_wire::{
    Dtype, EncodedUpdate, FrameWriter, RawCodec, UpdateCodec, WireView, PAYLOAD_ALIGN,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Held by each test that reads the process-wide decode counters, so
/// that no other fold in this binary moves them meanwhile.
static COUNTERS: Mutex<()> = Mutex::new(());

/// (`wire.decode.borrowed`, `wire.decode.copied`).
fn decode_counts() -> (u64, u64) {
    (
        oasis_telemetry::counter("wire.decode.borrowed").get(),
        oasis_telemetry::counter("wire.decode.copied").get(),
    )
}

/// Folds `frame` with weight 1 into a `+0` buffer, returning the
/// values and how far the decode counters moved, as (borrowed, copied).
fn fold_counted(frame: &EncodedUpdate) -> (Vec<f32>, (u64, u64)) {
    let _guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    oasis_telemetry::set_enabled(true);
    let before = decode_counts();
    let mut out = vec![0.0f32; frame.n];
    RawCodec.fold_into(frame, 1.0, &mut out).unwrap();
    let after = decode_counts();
    (out, (after.0 - before.0, after.1 - before.1))
}

fn model(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Sequential::new();
    m.push(Linear::new(10, 7, &mut rng));
    m.push(Relu::new());
    m.push(Linear::new(7, 4, &mut rng));
    m
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("oasis_zero_copy_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// Assembles a wire buffer from a handcrafted header (no builder, no
/// validation) — for forging layouts the builder refuses to produce.
fn forge_wire(json: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = (json.len() as u64).to_le_bytes().to_vec();
    out.extend_from_slice(json.as_bytes());
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------
// borrowed fold
// ---------------------------------------------------------------------

#[test]
#[cfg_attr(miri, ignore = "route depends on real allocator alignment")]
fn raw_frame_folds_with_zero_post_decode_copies() {
    // The tentpole pin: an aligned raw frame folds from its payload
    // in place. (Heap payloads are ≥ 4-byte aligned under every real
    // allocator; the runtime check would fall back rather than
    // misbehave elsewhere.)
    let update: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.37).sin()).collect();
    let encoded = RawCodec.encode(&update).unwrap();
    let (folded, moved) = fold_counted(&encoded);
    assert_eq!(folded.len(), update.len());
    for (a, b) in update.iter().zip(&folded) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // One borrow and no copy: no scratch buffer was filled.
    assert_eq!(moved, (1, 0), "aligned raw frame must fold as a borrow");
}

#[test]
fn written_payloads_are_alignment_padded() {
    let mut w = FrameWriter::new(&[("update", Dtype::F32, &[3])]).unwrap();
    w.write_f32(&[1.0, 2.0, 3.0]).unwrap();
    let buf = w.finish().unwrap();
    let header_len = u64::from_le_bytes(buf[..8].try_into().unwrap()) as usize;
    assert_eq!(
        (8 + header_len) % PAYLOAD_ALIGN,
        0,
        "payload must start at a PAYLOAD_ALIGN boundary"
    );
    // The padding is trailing JSON whitespace — old readers parse it
    // unchanged.
    let json = std::str::from_utf8(&buf[8..8 + header_len]).unwrap();
    assert!(json.ends_with('}') || json.trim_end().ends_with('}'));
    WireView::parse(&buf).unwrap();
}

#[test]
fn misaligned_frame_falls_back_to_one_bit_identical_copy() {
    // Forge an unpadded frame: the header length leaves the payload
    // at an odd buffer offset, so the borrowed cast must refuse and
    // the fold must read a copy with identical values.
    let update = [1.5f32, -2.25, 0.0625];
    let mut payload = Vec::new();
    for v in &update {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let json = r#"{"version":1,"tensors":[{"name":"update","dtype":"f32","shape":[3],"offsets":[0,12]}]} "#;
    assert_eq!(
        (8 + json.len()) % 2,
        1,
        "forged header must leave the payload at an odd offset"
    );
    let frame = EncodedUpdate {
        n: 3,
        payload: forge_wire(json, &payload),
    };
    // Unpadded (pre-zero-copy) buffers still parse: compatibility.
    let (folded, moved) = fold_counted(&frame);
    for (a, b) in update.iter().zip(&folded) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // The route holds for any real allocator (heap base ≥ 4-aligned,
    // so an odd payload offset is always misaligned); miri
    // deliberately scrambles base alignments, so only the value
    // identity above is checked there.
    if cfg!(not(miri)) {
        assert_eq!(
            moved,
            (0, 1),
            "odd-offset payload must fold through one copy"
        );
    }
}

#[test]
fn shifted_buffer_reads_match_aligned_reads() {
    // The same frame bytes at a deliberately misaligned base decode
    // to the same values through the copying path as the aligned
    // borrow does — alignment affects the route, never the result.
    let values: Vec<f32> = (0..257).map(|i| (i as f32).cos()).collect();
    let mut w = FrameWriter::new(&[("w", Dtype::F32, &[values.len()])]).unwrap();
    w.write_f32(&values).unwrap();
    let buf = w.finish().unwrap();

    // Aligned backing (u64 words), then parse at byte offset 1.
    let mut words = vec![0u64; buf.len() / 8 + 2];
    let bytes: &mut [u8] = unsafe {
        // SAFETY: u64 words are 8 plain bytes each; the view covers
        // exactly the words' extent and is dropped with them.
        std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8)
    };
    bytes[1..1 + buf.len()].copy_from_slice(&buf);
    let shifted = &bytes[1..1 + buf.len()];

    let aligned_view = WireView::parse(&buf).unwrap();
    let shifted_view = WireView::parse(shifted).unwrap();
    let aligned_tensor = aligned_view.tensor("w").unwrap();
    let shifted_tensor = shifted_view.tensor("w").unwrap();
    if cfg!(not(miri)) {
        assert!(
            aligned_tensor.as_f32s().unwrap().is_some(),
            "padded frame at an 8-aligned base must borrow"
        );
        assert!(
            shifted_tensor.as_f32s().unwrap().is_none(),
            "offset-by-1 base must refuse the cast"
        );
    }
    let a = aligned_tensor.to_f32_vec().unwrap();
    let s = shifted_tensor.to_f32_vec().unwrap();
    for (x, y) in a.iter().zip(&s) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.len(), values.len());
}

// ---------------------------------------------------------------------
// checkpoint files
// ---------------------------------------------------------------------

/// The model's parameters as bit patterns, for exact comparison.
fn param_bits(m: &Sequential) -> Vec<u32> {
    flatten_params(m).iter().map(|v| v.to_bits()).collect()
}

#[test]
fn file_load_is_bit_identical_to_byte_load() {
    let path = tmp("file_vs_bytes.oasis");
    let a = model(1);
    save_model(&path, &a).unwrap();

    let mut via_file = model(2);
    load_model(&path, &mut via_file).unwrap();

    let mut via_bytes = model(3);
    let raw = std::fs::read(&path).unwrap();
    load_model_bytes(&mut via_bytes, &raw).unwrap();

    let saved = param_bits(&a);
    assert_eq!(param_bits(&via_file), saved, "file path diverged");
    assert_eq!(param_bits(&via_bytes), saved, "byte path diverged");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_checkpoint_files_error_never_panic() {
    let path = tmp("truncated.oasis");
    let a = model(5);
    save_model(&path, &a).unwrap();
    let full = std::fs::read(&path).unwrap();
    // Every prefix class: empty, partial length prefix, partial
    // header, partial payload, one byte short.
    let mut cuts = vec![0, 1, 7, 8, 9, full.len() - 1];
    cuts.extend((0..full.len()).step_by(23));
    for cut in cuts {
        let cut_path = tmp("truncated_cut.oasis");
        std::fs::write(&cut_path, &full[..cut]).unwrap();
        let mut m = model(5);
        assert!(
            load_model(&cut_path, &mut m).is_err(),
            "truncation at {cut}/{} must error",
            full.len()
        );
        let _ = std::fs::remove_file(&cut_path);
    }

    // One seeded single-byte flip at every position of the file
    // (every 17th under the interpreter): length prefix, JSON header,
    // padding and payload. A flip may load (a payload flip is a valid
    // checkpoint with other values) but must then leave every
    // parameter finite; it must never panic, and a rejected file must
    // leave every parameter bit unchanged.
    let mut rng = StdRng::seed_from_u64(0xF11B);
    let flip_path = tmp("flipped.oasis");
    let stride = if cfg!(miri) { 17 } else { 1 };
    for pos in (0..full.len()).step_by(stride) {
        let mut flipped = full.clone();
        flipped[pos] ^= rng.gen_range(1..=255u8);
        std::fs::write(&flip_path, &flipped).unwrap();
        let mut m = model(6);
        let before = param_bits(&m);
        if load_model(&flip_path, &mut m).is_err() {
            assert_eq!(
                param_bits(&m),
                before,
                "rejected flip at byte {pos}/{} mutated the model",
                full.len()
            );
        } else {
            assert!(
                param_bits(&m)
                    .into_iter()
                    .all(|b| f32::from_bits(b).is_finite()),
                "loaded flip at byte {pos}/{} planted a non-finite parameter",
                full.len()
            );
        }
    }
    let _ = std::fs::remove_file(&flip_path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn overlapping_offset_checkpoint_errors_never_panics() {
    // Two tensors claiming intersecting extents: strict validation
    // rejects the layout before any copy happens.
    let json = r#"{"version":1,"tensors":[{"name":"a","dtype":"f32","shape":[2],"offsets":[0,8]},{"name":"b","dtype":"f32","shape":[2],"offsets":[4,12]}]}"#;
    let forged = forge_wire(json, &[0u8; 12]);
    assert!(WireView::parse(&forged).is_err(), "overlap must not parse");
    let path = tmp("overlap.oasis");
    std::fs::write(&path, &forged).unwrap();
    let mut m = model(6);
    assert!(load_model(&path, &mut m).is_err());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_with_foreign_tensor_set_errors() {
    // A valid wire buffer that is not this model's parameter walk:
    // strict name matching refuses it (and the model is untouched).
    let mut w = FrameWriter::new(&[("not_a_param", Dtype::F32, &[4])]).unwrap();
    w.write_f32(&[1.0, 2.0, 3.0, 4.0]).unwrap();
    let bytes = w.finish().unwrap();
    let mut m = model(7);
    let before = flatten_params(&m);
    assert!(load_model_bytes(&mut m, &bytes).is_err());
    assert_eq!(flatten_params(&m), before);
}
