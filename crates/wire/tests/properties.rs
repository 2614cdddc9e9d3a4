//! Property tests for the wire layer: codec round-trip guarantees and
//! malformed-buffer rejection.
//!
//! A frame's one reader is `UpdateCodec::fold_into`; a round trip here
//! is the update encoded, then folded with weight 1 into a `+0` buffer,
//! as a receiver reads it.

use oasis_wire::{
    CodecSpec, Dtype, EncodedUpdate, FrameWriter, NetSpec, Q8Codec, RawCodec, SignCodec,
    Submission, TopKCodec, UpdateCodec, WireError, WireView,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A finite, moderately-ranged update vector (quantizing codecs
/// document their bounds over finite inputs).
fn update_from(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-100.0f32..100.0)).collect()
}

/// The update a frame carries, as a receiver reads it: folded with
/// weight 1 into a `+0` buffer of the frame's element count.
fn received(codec: &dyn UpdateCodec, enc: &EncodedUpdate) -> Result<Vec<f32>, WireError> {
    let mut out = vec![0.0f32; enc.n];
    codec.fold_into(enc, 1.0, &mut out)?;
    Ok(out)
}

/// Where a frame's payload starts: past the 8-byte length prefix and
/// the JSON header it gives the length of.
fn header_end(frame: &[u8]) -> usize {
    8 + u64::from_le_bytes(frame[..8].try_into().unwrap()) as usize
}

/// Whether `got` is `want` bit for bit, with the one change a fold
/// into `+0` makes: `−0` reads `+0`.
fn same_bits_but_zero_sign(want: f32, got: f32) -> bool {
    if want == 0.0 {
        got.to_bits() == 0
    } else {
        want.to_bits() == got.to_bits()
    }
}

/// The pieces a hostile header is spliced from, whitespace-separated:
/// JSON punctuation, the wire header's keys and dtypes, and numbers at
/// the edges.
const HEADER_TOKENS: &str = r#"{ } [ ] : , "version" "tensors" "name" "dtype" "shape"
    "offsets" "f32" "u8" "w" 0 1 4 18446744073709551615 -1"#;

proptest! {
    /// `raw` is bit-exact for arbitrary finite tensors — including
    /// negative zero and denormals-by-division: the frame's payload
    /// holds every bit, and the fold reads every value back, a `−0`
    /// as `+0`.
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
        let view = WireView::parse(&enc.payload).expect("own payload");
        let wire = view.require("update").expect("raw tensor").to_f32_vec().expect("f32");
        prop_assert_eq!(
            wire.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let back = received(&RawCodec, &enc).expect("own payload");
        prop_assert_eq!(x.len(), back.len());
        for (&a, &b) in x.iter().zip(&back) {
            prop_assert!(same_bits_but_zero_sign(a, b), "{} vs {}", a, b);
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
        let back = received(&Q8Codec, &enc).expect("own payload");
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
        let back = received(&codec, &codec.encode(&x).expect("finite input")).expect("own payload");
        prop_assert_eq!(back.len(), x.len());
        let mut kept_min = f32::INFINITY;
        let mut dropped_max = 0.0f32;
        let mut kept = 0usize;
        for (a, b) in x.iter().zip(&back) {
            if *b != 0.0 || *a == 0.0 {
                // Kept (or genuinely zero): must be bit-exact.
                prop_assert!(same_bits_but_zero_sign(*a, *b), "{} vs {}", a, b);
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
        let enc = SignCodec.encode(&x).expect("finite input");
        let back = received(&SignCodec, &enc).expect("own payload");
        let mag = (x.iter().map(|&v| f64::from(v.abs())).sum::<f64>() / x.len() as f64) as f32;
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((b.abs() - mag).abs() <= mag.abs() * 1e-6 + 1e-12);
            if *a != 0.0 {
                prop_assert_eq!(a.is_sign_positive(), b.is_sign_positive());
            }
        }
    }

    /// Arbitrary byte garbage never panics the parser — it errors.
    /// Uniform bytes almost always stop at the length prefix's range
    /// check, so two cases in three carry a prefix that fits the
    /// buffer and reach the header checks: random header bytes (the
    /// UTF-8 check), or a header spliced from JSON and wire-header
    /// tokens (the JSON and header checks).
    #[test]
    fn garbage_buffers_error_not_panic(
        seed in 0u64..10_000,
        len in 0usize..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let random = |rng: &mut StdRng, n: usize| -> Vec<u8> {
            (0..n).map(|_| rng.gen_range(0u64..256) as u8).collect()
        };
        let tokens: Vec<&str> = HEADER_TOKENS.split_whitespace().collect();
        let header = match seed % 3 {
            0 => None,
            1 => {
                let n = rng.gen_range(0..=len);
                Some(random(&mut rng, n))
            }
            _ => {
                let n = rng.gen_range(0..=len / 2);
                let picked: String = (0..n)
                    .map(|_| tokens[rng.gen_range(0..tokens.len())])
                    .collect();
                Some(picked.into_bytes())
            }
        };
        let bytes = match header {
            None => random(&mut rng, len),
            Some(header) => {
                let mut frame = (header.len() as u64).to_le_bytes().to_vec();
                frame.extend_from_slice(&header);
                frame.extend(random(&mut rng, len));
                frame
            }
        };
        // Either a parse error or (vanishingly unlikely) a valid view.
        let _ = WireView::parse(&bytes);
    }

    /// Mutated frames never panic a fold, whichever codec reads them:
    /// seeded multi-byte flips, a non-finite value in a float tensor,
    /// truncations into the length prefix, the JSON header or the
    /// payload, splices of two frames of different codecs and lengths,
    /// and element counts that disagree with the payload. A refused
    /// frame leaves the accumulator bit for bit as it was; an accepted
    /// one leaves every value finite (with weight ½ and an accumulator
    /// inside ±1, no finite frame can overflow it).
    #[test]
    fn corrupted_payloads_error_not_panic(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = [
            CodecSpec::Raw,
            CodecSpec::Q8,
            CodecSpec::TopK { k: 8 },
            CodecSpec::Sign,
        ];
        let frames: Vec<EncodedUpdate> = specs
            .iter()
            .flat_map(|spec| {
                let codec = spec.build();
                [0usize, 7, 64]
                    .map(|n| codec.encode(&update_from(seed ^ n as u64, n)).unwrap())
            })
            .collect();
        let pick = |rng: &mut StdRng| frames[rng.gen_range(0..frames.len())].clone();
        // Sixteen rounds of the five mutations per case (two under the
        // interpreter), since the test harness runs few cases.
        let rounds = if cfg!(miri) { 2 } else { 16 };
        for _ in 0..rounds {
            let mut mutated = Vec::new();
            // Flips: one to eight bytes, each XOR-ed with a non-zero byte.
            let mut flipped = pick(&mut rng);
            for _ in 0..rng.gen_range(1..=8) {
                let i = rng.gen_range(0..flipped.payload.len());
                flipped.payload[i] ^= rng.gen_range(1..=255u8);
            }
            mutated.push(flipped);
            // A non-finite value over one value of one of the frame's
            // f32 tensors, as a hostile client would send it.
            let mut poisoned = pick(&mut rng);
            let floats: Vec<(usize, usize)> = WireView::parse(&poisoned.payload)
                .unwrap()
                .tensors()
                .filter(|t| t.meta().dtype == Dtype::F32)
                .map(|t| t.meta().offsets)
                .filter(|&(start, end)| end > start)
                .collect();
            if !floats.is_empty() {
                let (start, end) = floats[rng.gen_range(0..floats.len())];
                let value = rng.gen_range(0..(end - start) / 4);
                let at = header_end(&poisoned.payload) + start + 4 * value;
                let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3)];
                poisoned.payload[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            }
            mutated.push(poisoned);
            // Truncation inside the length prefix, the header or the
            // payload.
            let mut cut = pick(&mut rng);
            let (header_end, len) = (header_end(&cut.payload), cut.payload.len());
            let end = match rng.gen_range(0..3) {
                0 => rng.gen_range(0..8),
                1 => rng.gen_range(8..header_end),
                _ => rng.gen_range(header_end.min(len - 1)..len),
            };
            cut.payload.truncate(end);
            mutated.push(cut);
            // Splice: one frame's head onto another frame's tail, of
            // another codec or length.
            let i = rng.gen_range(0..frames.len());
            let j = (i + rng.gen_range(1..frames.len())) % frames.len();
            let (head, tail) = (&frames[i], &frames[j]);
            let mut spliced = head.payload[..rng.gen_range(0..=head.payload.len())].to_vec();
            spliced.extend_from_slice(&tail.payload[rng.gen_range(0..=tail.payload.len())..]);
            mutated.push(EncodedUpdate { n: head.n, payload: spliced });
            // An element count the payload does not hold.
            let mut lying = pick(&mut rng);
            lying.n = (lying.n + rng.gen_range(1..80)) % 80;
            mutated.push(lying);

            for frame in &mutated {
                for spec in specs {
                    let start: Vec<f32> =
                        (0..frame.n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let mut acc = start.clone();
                    match spec.build().fold_into(frame, 0.5, &mut acc) {
                        Err(_) => prop_assert_eq!(
                            acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            start.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "{} moved the sum on a refused frame", spec
                        ),
                        Ok(()) => prop_assert!(
                            acc.iter().all(|v| v.is_finite()),
                            "{} folded a non-finite value", spec
                        ),
                    }
                }
            }
        }
    }

    /// Alignment fallback: a raw frame folds to bit-identical values
    /// whether its payload sits at its natural (aligned, borrowed)
    /// position or `pad` header bytes later (copied once when that
    /// misaligns it). Route never changes result.
    #[test]
    fn raw_fold_is_alignment_independent(
        seed in 0u64..10_000,
        n in 1usize..300,
        pad in 1usize..8,
    ) {
        let x = update_from(seed, n);
        let enc = RawCodec.encode(&x).expect("finite input");
        let natural = received(&RawCodec, &enc).expect("own payload");
        for (a, b) in x.iter().zip(&natural) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // The same frame with `pad` more spaces of JSON whitespace at
        // the end of its header, which shifts the tensor bytes into
        // another alignment class.
        let header_len = u64::from_le_bytes(enc.payload[..8].try_into().unwrap()) as usize;
        let mut shifted = ((header_len + pad) as u64).to_le_bytes().to_vec();
        shifted.extend_from_slice(&enc.payload[8..8 + header_len]);
        shifted.resize(shifted.len() + pad, b' ');
        shifted.extend_from_slice(&enc.payload[8 + header_len..]);
        let shifted = EncodedUpdate { n, payload: shifted };
        let moved = received(&RawCodec, &shifted).expect("padded header still parses");
        for (a, b) in natural.iter().zip(&moved) {
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

/// A folded update must match the frame's declared element count.
#[test]
fn length_lies_are_rejected() {
    let x = vec![1.0f32; 16];
    for spec in [CodecSpec::Raw, CodecSpec::Q8] {
        let codec = spec.build();
        let mut enc = codec.encode(&x).unwrap();
        enc.n = 99;
        assert!(
            received(&*codec, &enc).is_err(),
            "{spec:?} accepted a bad n"
        );
    }
    // topk rebuilds from n: indices past the declared length error.
    let codec = TopKCodec { k: 4 };
    let mut enc = codec.encode(&x).unwrap();
    enc.n = 2;
    assert!(received(&codec, &enc).is_err());
}

/// Encoded bytes must not depend on the SIMD backend: q8 and sign
/// payloads travel on the wire (they are part of the threat model),
/// so the vectorized encode paths have to produce the exact byte
/// stream the scalar reference does — quantized levels, packed sign
/// bits, and the affine/magnitude headers alike. Folding must agree
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
                    simd::with_backend(Backend::Scalar, || received(&*codec, &enc_scalar).unwrap());
                let dec_vector =
                    simd::with_backend(best, || received(&*codec, &enc_vector).unwrap());
                for (a, b) in dec_scalar.iter().zip(&dec_vector) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{spec} n={n} seed={seed}");
                }
            }
        }
    }
}

/// Folding with weight `w` is `acc[i] += w · g[i]` for the update `g`
/// a fold with weight 1 into `+0` reads, bit for bit, for every codec
/// and backend: lengths 0, 1, 7–9 and 4 099, random weights of both
/// signs, several frames folded into one accumulator that starts at
/// `+0` (as FedAvg's does), and signed zeros in every update — top-k
/// keeps its `−0.0` values whenever k reaches them.
#[test]
fn fold_into_equals_decode_then_add() {
    use oasis_tensor::simd::{self, Backend};
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
            for (weight, frame) in &frames {
                let g = simd::with_backend(Backend::Scalar, || received(&*codec, frame)).unwrap();
                for (a, &g) in reference.iter_mut().zip(&g) {
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
