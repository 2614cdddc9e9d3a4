//! Property tests for the wire layer: codec round-trip guarantees and
//! malformed-buffer rejection.

use oasis_wire::{
    CodecSpec, Dtype, EncodedUpdate, FrameWriter, NetSpec, Q8Codec, RawCodec, SignCodec,
    Submission, TopKCodec, UpdateCodec, WireView,
};
use proptest::prelude::*;

/// A finite, moderately-ranged update vector (quantizing codecs
/// document their bounds over finite inputs).
fn update_from(seed: u64, n: usize) -> Vec<f32> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-100.0f32..100.0)).collect()
}

proptest! {
    /// `raw` is bit-exact for arbitrary finite tensors — including
    /// negative zero and denormals-by-division.
    #[test]
    fn raw_round_trip_is_bit_exact(
        seed in 0u64..10_000,
        n in 0usize..600,
    ) {
        let mut x = update_from(seed, n);
        if n > 1 {
            x[0] = -0.0;
            x[1] = f32::MIN_POSITIVE / 8.0;
        }
        let enc = RawCodec.encode(&x).expect("finite input");
        let back = RawCodec.decode(&enc).expect("own payload");
        prop_assert_eq!(x.len(), back.len());
        for (a, b) in x.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// `q8` stays within its documented bound: half a quantization
    /// level, `(max − min)/255 · ½` (plus float rounding slack).
    #[test]
    fn q8_round_trip_is_within_half_level(
        seed in 0u64..10_000,
        n in 1usize..600,
    ) {
        let x = update_from(seed, n);
        let (lo, hi) = x.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
            (l.min(v), h.max(v))
        });
        let bound = (hi - lo) / 255.0 * 0.5 + (hi - lo).abs() * 1e-5 + 1e-6;
        let enc = Q8Codec.encode(&x).expect("finite input");
        let back = Q8Codec.decode(&enc).expect("own payload");
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() <= bound, "{} vs {} (bound {})", a, b, bound);
        }
    }

    /// `topk:K` keeps its K largest-magnitude entries bit-exactly and
    /// zeroes everything else; no dropped entry outranks a kept one.
    #[test]
    fn topk_round_trip_keeps_top_magnitudes(
        seed in 0u64..10_000,
        n in 1usize..400,
        k in 1usize..64,
    ) {
        let x = update_from(seed, n);
        let codec = TopKCodec { k };
        let back = codec.decode(&codec.encode(&x).expect("finite input")).expect("own payload");
        prop_assert_eq!(back.len(), x.len());
        let mut kept_min = f32::INFINITY;
        let mut dropped_max = 0.0f32;
        let mut kept = 0usize;
        for (a, b) in x.iter().zip(&back) {
            if *b != 0.0 || (*a == 0.0 && *b == 0.0) {
                // Kept (or genuinely zero): must be bit-exact.
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            if *b != 0.0 {
                kept += 1;
                kept_min = kept_min.min(a.abs());
            } else {
                dropped_max = dropped_max.max(a.abs());
            }
        }
        prop_assert!(kept <= k.min(n));
        if kept > 0 && kept < n {
            prop_assert!(
                kept_min >= dropped_max || (kept_min - dropped_max).abs() < f32::EPSILON,
                "kept |{}| < dropped |{}|", kept_min, dropped_max
            );
        }
    }

    /// `sign` preserves every non-zero entry's sign, and all decoded
    /// magnitudes equal the update's mean |·|.
    #[test]
    fn sign_round_trip_preserves_signs(
        seed in 0u64..10_000,
        n in 1usize..600,
    ) {
        let x = update_from(seed, n);
        let back = SignCodec.decode(&SignCodec.encode(&x).expect("finite input")).expect("own payload");
        let mag = (x.iter().map(|&v| f64::from(v.abs())).sum::<f64>() / x.len() as f64) as f32;
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((b.abs() - mag).abs() <= mag.abs() * 1e-6 + 1e-12);
            if *a != 0.0 {
                prop_assert_eq!(a.is_sign_positive(), b.is_sign_positive());
            }
        }
    }

    /// Arbitrary byte garbage never panics the parser — it errors.
    #[test]
    fn garbage_buffers_error_not_panic(
        seed in 0u64..10_000,
        len in 0usize..200,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        // Either a parse error or (vanishingly unlikely) a valid view.
        let _ = WireView::parse(&bytes);
    }

    /// Bit-flipping a valid encoded update never panics any decoder.
    #[test]
    fn corrupted_payloads_error_not_panic(
        seed in 0u64..2_000,
        flip in 0usize..1_000,
    ) {
        let x = update_from(seed, 64);
        for spec in [CodecSpec::Raw, CodecSpec::Q8, CodecSpec::TopK { k: 8 }, CodecSpec::Sign] {
            let codec = spec.build();
            let enc = codec.encode(&x).expect("finite input");
            let mut payload = enc.payload.clone();
            let i = flip % payload.len();
            payload[i] ^= 0x5A;
            let corrupted = EncodedUpdate { payload, ..enc.clone() };
            // Must not panic; may error or decode to garbage values.
            let _ = codec.decode(&corrupted);
        }
    }

    /// Alignment fallback: a raw frame decoded as a borrowed view
    /// yields bit-identical values whether the payload sits at its
    /// natural (aligned, borrowed) position or at a forced-misaligned
    /// one (copied through scratch). Route never changes result.
    #[test]
    fn raw_decode_view_is_alignment_independent(
        seed in 0u64..10_000,
        n in 1usize..300,
        pad in 1usize..8,
    ) {
        let x = update_from(seed, n);
        let enc = RawCodec.encode(&x).expect("finite input");

        // Natural frame: decode_view must agree with decode bit for bit.
        let mut scratch = Vec::new();
        let view = RawCodec.decode_view(&enc, &mut scratch).expect("own payload");
        for (a, b) in x.iter().zip(view) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // Same bytes behind `pad` junk bytes of header slack removed:
        // forge a frame whose payload offset is shifted by rebuilding
        // the buffer at offset `pad` inside a larger allocation, so the
        // tensor bytes land at an arbitrary alignment class.
        let mut shifted_backing = vec![0u8; enc.payload.len() + pad];
        shifted_backing[pad..].copy_from_slice(&enc.payload);
        let shifted_view = WireView::parse(&shifted_backing[pad..]).expect("same bytes");
        let t = shifted_view.require("update").expect("raw frame tensor");
        let vals = t.to_f32_vec().expect("read");
        prop_assert_eq!(vals.len(), x.len());
        for (a, b) in x.iter().zip(&vals) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Transport determinism: the same (seed, round, submissions)
    /// replay identical deliveries, byte counts, and round time.
    #[test]
    fn transport_is_deterministic(
        seed in 0u64..10_000,
        round in 0u64..100,
        clients in 1usize..32,
    ) {
        let net: NetSpec = "sim:15,2,0.25,5000".parse().expect("valid spec");
        let subs: Vec<Submission> = (0..clients)
            .map(|client_id| Submission { client_id, bytes_up: 5_000 + client_id, bytes_down: 20_000 })
            .collect();
        let a = net.deliver(seed, round, &subs);
        let b = net.deliver(seed, round, &subs);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.delivered + a.dropped, clients);
    }
}

/// Hand-crafted malformed headers: every strict-validation branch
/// errors, never panics.
#[test]
fn malformed_headers_are_rejected() {
    let frame = |json: &str, payload: &[u8]| {
        let mut bytes = (json.len() as u64).to_le_bytes().to_vec();
        bytes.extend_from_slice(json.as_bytes());
        bytes.extend_from_slice(payload);
        bytes
    };
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty buffer", Vec::new()),
        ("length prefix only", 16u64.to_le_bytes().to_vec()),
        ("non-json header", frame("not json", &[])),
        ("wrong version", frame(r#"{"version":9,"tensors":[]}"#, &[])),
        ("missing fields", frame(r#"{"version":1}"#, &[])),
        (
            "offsets not starting at zero",
            frame(
                r#"{"version":1,"tensors":[{"name":"a","dtype":"u8","shape":[2],"offsets":[1,3]}]}"#,
                &[0, 0, 0],
            ),
        ),
        (
            "overlapping offsets",
            frame(
                r#"{"version":1,"tensors":[
                    {"name":"a","dtype":"u8","shape":[2],"offsets":[0,2]},
                    {"name":"b","dtype":"u8","shape":[2],"offsets":[1,3]}]}"#,
                &[0, 0, 0],
            ),
        ),
        (
            "extent exceeding payload",
            frame(
                r#"{"version":1,"tensors":[{"name":"a","dtype":"u8","shape":[4],"offsets":[0,4]}]}"#,
                &[0, 0],
            ),
        ),
        (
            "shape disagreeing with extent",
            frame(
                r#"{"version":1,"tensors":[{"name":"a","dtype":"f32","shape":[3],"offsets":[0,4]}]}"#,
                &[0, 0, 0, 0],
            ),
        ),
        (
            "unknown dtype",
            frame(
                r#"{"version":1,"tensors":[{"name":"a","dtype":"f16","shape":[2],"offsets":[0,4]}]}"#,
                &[0, 0, 0, 0],
            ),
        ),
        (
            "duplicate names",
            frame(
                r#"{"version":1,"tensors":[
                    {"name":"a","dtype":"u8","shape":[1],"offsets":[0,1]},
                    {"name":"a","dtype":"u8","shape":[1],"offsets":[1,2]}]}"#,
                &[0, 0],
            ),
        ),
        (
            "trailing payload bytes",
            frame(
                r#"{"version":1,"tensors":[{"name":"a","dtype":"u8","shape":[1],"offsets":[0,1]}]}"#,
                &[0, 0xFF],
            ),
        ),
        (
            "shape product overflow",
            frame(
                r#"{"version":1,"tensors":[{"name":"a","dtype":"f32","shape":[4294967295,4294967295,4294967295],"offsets":[0,4]}]}"#,
                &[0, 0, 0, 0],
            ),
        ),
    ];
    for (what, bytes) in cases {
        assert!(
            WireView::parse(&bytes).is_err(),
            "`{what}` should be rejected"
        );
    }
}

/// A decoded update must match the frame's declared element count.
#[test]
fn length_lies_are_rejected() {
    let x = vec![1.0f32; 16];
    for spec in [CodecSpec::Raw, CodecSpec::Q8] {
        let codec = spec.build();
        let mut enc = codec.encode(&x).unwrap();
        enc.n = 99;
        assert!(codec.decode(&enc).is_err(), "{spec:?} accepted a bad n");
    }
    // topk rebuilds from n: indices past the declared length error.
    let codec = TopKCodec { k: 4 };
    let mut enc = codec.encode(&x).unwrap();
    enc.n = 2;
    assert!(codec.decode(&enc).is_err());
}

/// Encoded bytes must not depend on the SIMD backend: q8 and sign
/// payloads travel on the wire (they are part of the threat model),
/// so the vectorized encode paths have to produce the exact byte
/// stream the scalar reference does — quantized levels, packed sign
/// bits, and the affine/magnitude headers alike. Decoding must agree
/// bit for bit too.
#[test]
fn q8_and_sign_wire_bytes_are_backend_independent() {
    use oasis_tensor::simd::{self, Backend};
    let best = Backend::detect();
    for n in (0usize..=33).chain([255, 256, 257, 1000]) {
        for seed in [3u64, 17, 99] {
            let mut x = update_from(seed, n);
            if n > 1 {
                x[0] = -0.0;
                x[1] = 0.0;
            }
            for spec in [CodecSpec::Q8, CodecSpec::Sign] {
                let codec = spec.build();
                let enc_scalar = simd::with_backend(Backend::Scalar, || codec.encode(&x).unwrap());
                let enc_vector = simd::with_backend(best, || codec.encode(&x).unwrap());
                assert_eq!(
                    enc_scalar.payload, enc_vector.payload,
                    "{spec} n={n} seed={seed}: wire bytes diverged across backends"
                );
                let dec_scalar =
                    simd::with_backend(Backend::Scalar, || codec.decode(&enc_scalar).unwrap());
                let dec_vector = simd::with_backend(best, || codec.decode(&enc_vector).unwrap());
                for (a, b) in dec_scalar.iter().zip(&dec_vector) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{spec} n={n} seed={seed}");
                }
            }
        }
    }
}

/// `fold_into` is `decode_view` followed by `acc[i] += weight · g[i]`,
/// bit for bit, for every codec and backend: lengths 0, 1, 7–9 and
/// 4 099, random weights of both signs, several frames folded into one
/// accumulator that starts at `+0` (as FedAvg's does), and signed zeros
/// in every update — top-k keeps its `−0.0` values whenever k reaches
/// them.
#[test]
fn fold_into_equals_decode_then_add() {
    use oasis_tensor::simd::{self, Backend};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xF01D);
    let backends: Vec<Backend> = Backend::ALL
        .into_iter()
        .filter(|b| b.is_available())
        .collect();
    for n in [0usize, 1, 7, 8, 9, 4099] {
        for spec in [
            CodecSpec::Raw,
            CodecSpec::Q8,
            CodecSpec::TopK { k: 3 },
            CodecSpec::TopK { k: 5000 },
            CodecSpec::Sign,
        ] {
            let codec = spec.build();
            let frames: Vec<(f32, EncodedUpdate)> = (0..4)
                .map(|_| {
                    let mut update = update_from(rng.gen(), n);
                    for v in update.iter_mut().step_by(3) {
                        *v = -0.0;
                    }
                    (rng.gen_range(-2.0f32..2.0), codec.encode(&update).unwrap())
                })
                .collect();
            let mut reference = vec![0.0f32; n];
            let mut scratch = Vec::new();
            for (weight, frame) in &frames {
                let g = codec.decode_view(frame, &mut scratch).unwrap();
                for (a, &g) in reference.iter_mut().zip(g) {
                    *a += weight * g;
                }
            }
            for &backend in &backends {
                let mut folded = vec![0.0f32; n];
                for (weight, frame) in &frames {
                    simd::with_backend(backend, || codec.fold_into(frame, *weight, &mut folded))
                        .unwrap();
                }
                for (i, (a, b)) in folded.iter().zip(&reference).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{spec} {backend:?} n={n} at {i}");
                }
            }
        }
    }
}

/// Builds a frame of 1-D tensors the way a hostile client might.
fn frame_of(n: usize, tensors: &[(&str, &[u8], Dtype)]) -> EncodedUpdate {
    let shapes: Vec<[usize; 1]> = tensors
        .iter()
        .map(|(_, bytes, dtype)| [bytes.len() / dtype.size()])
        .collect();
    let decl: Vec<(&str, Dtype, &[usize])> = tensors
        .iter()
        .zip(&shapes)
        .map(|((name, _, dtype), shape)| (*name, *dtype, &shape[..]))
        .collect();
    let mut w = FrameWriter::new(&decl).unwrap();
    for (_, bytes, _) in tensors {
        w.write_with(|out| out.copy_from_slice(bytes)).unwrap();
    }
    EncodedUpdate {
        n,
        payload: w.finish().unwrap(),
    }
}

fn le<T: Copy>(values: &[T], bytes: impl Fn(T) -> [u8; 4]) -> Vec<u8> {
    values.iter().flat_map(|&v| bytes(v)).collect()
}

/// Every check `fold_into` makes before its first add: a frame that
/// fails one is an error and leaves the accumulator bit for bit as it
/// was.
#[test]
fn hostile_frames_fold_nothing() {
    let n = 5usize;
    let f32s = |v: &[f32]| le(v, f32::to_le_bytes);
    let u32s = |v: &[u32]| le(v, u32::to_le_bytes);
    let cases: Vec<(CodecSpec, EncodedUpdate, &str)> = vec![
        (
            CodecSpec::Raw,
            frame_of(
                n,
                &[("update", &f32s(&[1.0, f32::NAN, 0.0, 2.0, 3.0]), Dtype::F32)],
            ),
            "NaN raw value",
        ),
        (
            CodecSpec::Raw,
            frame_of(
                n,
                &[(
                    "update",
                    &f32s(&[1.0, 2.0, f32::INFINITY, 0.0, 3.0]),
                    Dtype::F32,
                )],
            ),
            "infinite raw value",
        ),
        (
            CodecSpec::Raw,
            frame_of(n, &[("update", &f32s(&[1.0, 2.0, 3.0]), Dtype::F32)]),
            "short raw payload",
        ),
        (
            CodecSpec::Q8,
            frame_of(
                n,
                &[
                    ("q", &[0, 1, 2, 3, 4], Dtype::U8),
                    ("affine", &f32s(&[f32::NAN, 0.1]), Dtype::F32),
                ],
            ),
            "NaN q8 lo",
        ),
        (
            CodecSpec::Q8,
            frame_of(
                n,
                &[
                    ("q", &[0, 1, 2, 3, 4], Dtype::U8),
                    ("affine", &f32s(&[0.0, f32::INFINITY]), Dtype::F32),
                ],
            ),
            "infinite q8 scale",
        ),
        (
            CodecSpec::Q8,
            frame_of(
                n,
                &[
                    ("q", &[0, 1, 2, 3], Dtype::U8),
                    ("affine", &f32s(&[0.0, 0.1]), Dtype::F32),
                ],
            ),
            "short q8 levels",
        ),
        (
            CodecSpec::TopK { k: 2 },
            frame_of(
                n,
                &[
                    ("idx", &u32s(&[1, 1]), Dtype::U32),
                    ("val", &f32s(&[1.0, 2.0]), Dtype::F32),
                ],
            ),
            "repeated top-k index",
        ),
        (
            CodecSpec::TopK { k: 2 },
            frame_of(
                n,
                &[
                    ("idx", &u32s(&[3, 0, 3]), Dtype::U32),
                    ("val", &f32s(&[1.0, 2.0, 3.0]), Dtype::F32),
                ],
            ),
            "unsorted repeated top-k index",
        ),
        (
            CodecSpec::TopK { k: 2 },
            frame_of(
                n,
                &[
                    ("idx", &u32s(&[2, 0]), Dtype::U32),
                    ("val", &f32s(&[1.0, 2.0]), Dtype::F32),
                ],
            ),
            "descending top-k indices",
        ),
        (
            CodecSpec::TopK { k: 2 },
            frame_of(
                n,
                &[
                    ("idx", &u32s(&[0, 5]), Dtype::U32),
                    ("val", &f32s(&[1.0, 2.0]), Dtype::F32),
                ],
            ),
            "top-k index out of range",
        ),
        (
            CodecSpec::TopK { k: 2 },
            frame_of(
                n,
                &[
                    ("idx", &u32s(&[0, 4]), Dtype::U32),
                    ("val", &f32s(&[1.0, f32::NAN]), Dtype::F32),
                ],
            ),
            "NaN top-k value",
        ),
        (
            CodecSpec::Sign,
            frame_of(
                n,
                &[
                    ("bits", &[0b10101], Dtype::U8),
                    ("mag", &f32s(&[f32::NAN]), Dtype::F32),
                ],
            ),
            "NaN sign magnitude",
        ),
        (
            CodecSpec::Sign,
            frame_of(
                9,
                &[
                    ("bits", &[0b10101], Dtype::U8),
                    ("mag", &f32s(&[0.5]), Dtype::F32),
                ],
            ),
            "too few sign bits",
        ),
    ];
    let start: Vec<f32> = vec![0.5, -0.25, 0.0, 1.5, -2.0];
    for (spec, frame, what) in cases {
        let codec = spec.build();
        let mut acc = start.clone();
        acc.resize(frame.n, 0.0);
        let before: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
        assert!(codec.fold_into(&frame, 0.5, &mut acc).is_err(), "{what}");
        let after: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
        assert_eq!(after, before, "{what}: the sum moved");
        // q8 and sign refuse the same frames when decoding, so a
        // decoder never emits a non-finite value either.
        if matches!(spec, CodecSpec::Q8 | CodecSpec::Sign) {
            assert!(codec.decode(&frame).is_err(), "{what}: decoded");
        }
    }
    // A valid frame with a non-finite weight, or one whose element
    // count disagrees with the accumulator, is refused too.
    let codec = CodecSpec::Q8.build();
    let frame = codec.encode(&start).unwrap();
    for weight in [f32::NAN, f32::INFINITY] {
        let mut acc = start.clone();
        assert!(codec.fold_into(&frame, weight, &mut acc).is_err());
        assert_eq!(acc, start);
    }
    let mut short = vec![0.0f32; n - 1];
    assert!(codec.fold_into(&frame, 1.0, &mut short).is_err());
    assert!(short.iter().all(|&v| v == 0.0));
}
