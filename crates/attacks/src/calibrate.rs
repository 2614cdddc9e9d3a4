//! Quantile calibration of a malicious layer — the bias fit shared by
//! CAH's strongest-attack variant and QBI.
//!
//! Each row `r` of the weight matrix gets the bias `−z_r[pos]`, where
//! `z_r` is the row's sorted response `w_r · x_i` over the calibration
//! images and `pos = round((1 − p)·(N − 1))`, so the neuron fires for
//! about a fraction `p` of inputs.
//!
//! The responses are `rows × N` dot products of length `d` — for
//! `cah:400` on 384 images of `d = 3072` that is 472 M mul-adds, the
//! largest cost of setting up an attack. Every response is computed
//! with exactly the IEEE operation sequence of
//! `row.iter().zip(x).map(|(&w, &x)| w * x).sum::<f32>()`: it starts
//! from the value [`Sum`](std::iter::Sum) starts from and adds
//! `w_k·x_k` in ascending `k`, multiply then add, never fused. What
//! changes is the layout. The images are taken in groups of [`GROUP`],
//! each transposed `k`-major so that one image is one accumulator
//! lane, and [`simd::lane_dots`] runs every weight row against a group
//! in register tiles of several rows (a runtime-dispatched kernel whose
//! AVX2 body both vector backends run). The pool's blocks split the
//! `(group, row)` pairs group-major, so each block transposes only the
//! groups it covers into one reused buffer. A NaN response is redone
//! with the sequential sum, which pins its payload. Every response is
//! owned by one lane of one block, so the result is the same at any
//! thread count and on every backend.

use oasis_image::Image;
use oasis_nn::Sequential;
use oasis_tensor::simd::{self, DOT_LANES};
use oasis_tensor::{parallel, Tensor};

use crate::{attacked_model, AttackError, Result};

/// Images whose responses advance together, one accumulator lane
/// each ([`simd::lane_dots`]'s group): a group (~400 KB at `d = 3072`)
/// stays in cache while the rows stream past.
const GROUP: usize = DOT_LANES;

/// Values of each image the transpose moves per pass over a group:
/// the strip's `GROUP` rows (16 KiB) stay in L1 while every image
/// writes its lane.
const TRANSPOSE_STRIP: usize = 128;

/// A malicious layer fitted to a calibration set: the weight rows it
/// was fitted against and each row's quantile bias. The model a
/// calibrated attack broadcasts carries exactly these rows, and every
/// model it builds shares them copy-on-write (no trial copies them).
#[derive(Debug, Clone)]
pub(crate) struct CalibratedLayer {
    weights: Tensor,
    biases: Tensor,
}

impl CalibratedLayer {
    /// Fits per-row biases at the `1 − target` response quantile of
    /// `weights` (`rows × d`) over `calibration`.
    ///
    /// # Errors
    ///
    /// [`AttackError::Calibration`] for an empty calibration set, a
    /// target outside `(0, 1)`, or an image without `d` values.
    pub(crate) fn fit(weights: Tensor, calibration: &[Image], target: f64) -> Result<Self> {
        let biases = quantile_biases(&weights, calibration, target)?;
        let biases = Tensor::from_vec(biases, &[weights.dims()[0]])?;
        Ok(CalibratedLayer { weights, biases })
    }

    /// Input dimension `d` the layer was fitted for.
    pub(crate) fn dim(&self) -> usize {
        self.weights.dims()[1]
    }

    /// The fitted weight rows.
    #[cfg(test)]
    pub(crate) fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The per-row biases.
    #[cfg(test)]
    pub(crate) fn biases(&self) -> &[f32] {
        self.biases.data()
    }

    /// The attacked model over the fitted layer for inputs of width
    /// `d` (see [`attacked_model`]).
    ///
    /// # Errors
    ///
    /// [`AttackError::BadConfig`] if `d` is not the fitted dimension.
    pub(crate) fn model(&self, d: usize, classes: usize, head_seed: u64) -> Result<Sequential> {
        if self.dim() != d {
            return Err(AttackError::BadConfig(format!(
                "attack calibrated for d={}, asked to build d={d}",
                self.dim()
            )));
        }
        attacked_model(
            self.weights.clone(),
            self.biases.clone(),
            classes,
            head_seed,
        )
    }
}

/// Per-row biases at the `1 − target` quantile of each row's
/// responses over `calibration`: `P(w_r·x + b_r > 0) ≈ target`.
///
/// # Errors
///
/// [`AttackError::Calibration`] for an empty calibration set, a
/// target outside `(0, 1)`, or an image whose value count is not the
/// weights' row width.
pub(crate) fn quantile_biases(
    weights: &Tensor,
    calibration: &[Image],
    target: f64,
) -> Result<Vec<f32>> {
    if !(target > 0.0 && target < 1.0) {
        return Err(AttackError::Calibration(format!(
            "unreachable target {target}"
        )));
    }
    let n = calibration.len();
    let mut responses = {
        let _span = oasis_telemetry::span("attack.calibrate.responses");
        responses(weights, calibration)?
    };
    let _span = oasis_telemetry::span("attack.calibrate.quantile");
    let pos = ((1.0 - target) * (n - 1) as f64).round() as usize;
    // Under `total_cmp` equal elements have equal bits, so the element
    // a selection puts at `pos` is the one the full sort puts there.
    Ok(responses
        .chunks_exact_mut(n)
        .map(|row| -*row.select_nth_unstable_by(pos, f32::total_cmp).1)
        .collect())
}

/// Row-major `rows × N` responses `w_r · x_i`, each bit-identical to
/// the sequential `Iterator::sum` of `w_rk * x_ik` in `k` order.
fn responses(weights: &Tensor, calibration: &[Image]) -> Result<Vec<f32>> {
    let (rows, d) = (weights.dims()[0], weights.dims()[1]);
    if calibration.is_empty() {
        return Err(AttackError::Calibration("empty calibration set".into()));
    }
    if let Some((i, img)) = calibration
        .iter()
        .enumerate()
        .find(|(_, img)| img.numel() != d)
    {
        return Err(AttackError::Calibration(format!(
            "calibration image {i} has {} values, expected {d}",
            img.numel()
        )));
    }
    let n = calibration.len();
    let w = weights.data();
    // dots[(g·rows + r)·GROUP + l] is row r's response to image
    // g·GROUP + l: group-major, so the pool's blocks split the
    // (group, row) pairs and each block transposes only its groups.
    let mut dots = vec![0.0f32; n.div_ceil(GROUP) * rows * GROUP];
    parallel::for_each_row_block(&mut dots, GROUP, |first, block| {
        // xt[k·GROUP + l] = image(g·GROUP + l)[k] for the current group
        // g. A short last group leaves stale lanes, never read back.
        let mut xt = vec![0.0f32; d * GROUP];
        let (mut at, mut block) = (first, block);
        while !block.is_empty() {
            let (g, r0) = (at / rows, at % rows);
            let count = (rows - r0).min(block.len() / GROUP);
            transpose_group(&calibration[g * GROUP..n.min((g + 1) * GROUP)], &mut xt);
            let (head, tail) = block.split_at_mut(count * GROUP);
            simd::lane_dots(
                &w[r0 * d..(r0 + count) * d],
                xt.as_chunks().0,
                head.as_chunks_mut().0,
            );
            (at, block) = (at + count, tail);
        }
    });
    let mut out = vec![0.0f32; rows * n];
    parallel::for_each_row_block(&mut out, n, |r0, block| {
        for (r, row_out) in (r0..).zip(block.chunks_exact_mut(n)) {
            for (i, o) in row_out.iter_mut().enumerate() {
                let z = dots[((i / GROUP) * rows + r) * GROUP + i % GROUP];
                // Which NaN a chain ends in depends on the operand
                // order each backend gives the add (Rust leaves NaN
                // payloads unspecified), so NaN lanes are redone with
                // the sequential sum.
                *o = if z.is_nan() {
                    sequential_dot(&w[r * d..(r + 1) * d], calibration[i].data())
                } else {
                    z
                };
            }
        }
    });
    Ok(out)
}

/// Writes `images` (at most [`GROUP`], each `d = xt.len() / GROUP`
/// values) `k`-major into `xt`: `xt[k·GROUP + l] = images[l][k]`.
fn transpose_group(images: &[Image], xt: &mut [f32]) {
    // A strip of TRANSPOSE_STRIP values of each image at a time, so
    // the strip's rows of the group stay in L1.
    for (s, strip) in xt.chunks_mut(TRANSPOSE_STRIP * GROUP).enumerate() {
        for (l, img) in images.iter().enumerate() {
            let src = &img.data()[s * TRANSPOSE_STRIP..];
            for (slot, &v) in strip.chunks_exact_mut(GROUP).zip(src) {
                slot[l] = v;
            }
        }
    }
}

/// `Σ_k w_k·x_k` as a strictly sequential `Iterator::sum`.
fn sequential_dot(w: &[f32], x: &[f32]) -> f32 {
    w.iter().zip(x).map(|(&a, &b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_tensor::simd::Backend;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-row loop both attacks ran before the shared kernel,
    /// verbatim: responses in image order, then sorted biases.
    fn oracle(w: &Tensor, calibration: &[Image], target: f64) -> (Vec<f32>, Vec<f32>) {
        let mut all = Vec::new();
        let mut biases = Vec::new();
        for r in 0..w.dims()[0] {
            let row = w.row(r).expect("row in bounds");
            let mut responses: Vec<f32> = calibration
                .iter()
                .map(|img| row.iter().zip(img.data()).map(|(&a, &b)| a * b).sum())
                .collect();
            all.extend_from_slice(&responses);
            responses.sort_by(f32::total_cmp);
            let pos = ((1.0 - target) * (responses.len() - 1) as f64).round() as usize;
            biases.push(-responses[pos]);
        }
        (all, biases)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Signed weights, zero and (with `hostile`) ±∞/NaN pixels.
    fn case(rows: usize, n: usize, d: usize, hostile: bool, seed: u64) -> (Tensor, Vec<Image>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = Tensor::randn(&[rows, d], &mut rng);
        // An all-zero row: every product is ±0, so the response is the
        // sum's start value combined with signed zeros.
        w.row_mut(rows / 2).unwrap().fill(0.0);
        let images = (0..n)
            .map(|i| {
                let values = (0..d)
                    .map(|_| match rng.gen_range(0..40) {
                        0 if hostile => f32::INFINITY,
                        1 if hostile => f32::NEG_INFINITY,
                        2 if hostile => f32::NAN,
                        3 => 0.0,
                        4 => -0.0,
                        _ => rng.gen::<f32>(),
                    })
                    .collect::<Vec<_>>();
                // An all-zero image, likewise.
                let values = if i == n / 3 { vec![0.0; d] } else { values };
                Image::from_vec(1, 1, d, values).unwrap()
            })
            .collect();
        (w, images)
    }

    proptest! {
        #[test]
        fn kernel_matches_the_per_row_loop_bit_exactly(
            rows in 1usize..42,
            n in 1usize..80,
            d in 1usize..70,
            target in 0.01f64..0.99,
            hostile in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let (w, images) = case(rows, n, d, hostile == 1, seed);
            let (want_responses, want_biases) = oracle(&w, &images, target);
            for backend in Backend::ALL.into_iter().filter(|b| b.is_available()) {
                for threads in [1, 2, 4] {
                    let (got_responses, got_biases) = simd::with_backend(backend, || {
                        parallel::with_threads(threads, || {
                            (
                                responses(&w, &images).unwrap(),
                                quantile_biases(&w, &images, target).unwrap(),
                            )
                        })
                    });
                    prop_assert_eq!(bits(&got_responses), bits(&want_responses));
                    prop_assert_eq!(bits(&got_biases), bits(&want_biases));
                }
            }
        }
    }

    #[test]
    fn zero_row_and_zero_image_keep_the_sum_start_value() {
        // −w·0 = −0: the start value decides the sign of an all-zero dot.
        let w = Tensor::from_vec(vec![-1.0, -2.0, 0.0, 0.0], &[2, 2]).unwrap();
        let images = vec![Image::from_vec(1, 1, 2, vec![0.0, 0.0]).unwrap(); 3];
        let (want_responses, want_biases) = oracle(&w, &images, 0.5);
        assert_eq!(
            bits(&responses(&w, &images).unwrap()),
            bits(&want_responses)
        );
        assert_eq!(
            bits(&quantile_biases(&w, &images, 0.5).unwrap()),
            bits(&want_biases)
        );
    }

    #[test]
    fn mismatched_image_sizes_are_a_calibration_error() {
        let w = Tensor::zeros(&[4, 12]);
        let good = Image::from_vec(3, 2, 2, vec![0.5; 12]).unwrap();
        let short = Image::from_vec(3, 2, 1, vec![0.5; 6]).unwrap();
        let long = Image::from_vec(3, 2, 3, vec![0.5; 18]).unwrap();
        for bad in [short, long] {
            let err = quantile_biases(&w, &[good.clone(), bad], 0.1).unwrap_err();
            assert!(
                matches!(&err, AttackError::Calibration(m) if m.contains("image 1")),
                "{err}"
            );
        }
        assert!(quantile_biases(&w, &[good], 0.1).is_ok());
    }

    #[test]
    fn empty_set_and_bad_targets_are_calibration_errors() {
        let w = Tensor::zeros(&[2, 4]);
        let img = Image::from_vec(1, 2, 2, vec![0.5; 4]).unwrap();
        for (images, target) in [(vec![], 0.1), (vec![img.clone()], 0.0), (vec![img], 1.0)] {
            assert!(matches!(
                quantile_biases(&w, &images, target),
                Err(AttackError::Calibration(_))
            ));
        }
    }
}
