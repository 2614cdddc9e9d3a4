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
//! largest cost of setting up an attack. The kernel computes every
//! response with exactly the IEEE operation sequence of
//! `row.iter().zip(x).map(|(&w, &x)| w * x).sum::<f32>()`: it starts
//! from the value [`Sum`](std::iter::Sum) starts from and adds
//! `w_k·x_k` in ascending `k`, multiply then add, never fused. What
//! changes is the layout: the images are transposed once into
//! `k`-major groups of [`GROUP`] images, one accumulator lane per
//! image, so a group stays cache-resident while every row streams
//! past it and the lanes advance together; the transpose (by group)
//! and the row blocks fan out over [`oasis_tensor::parallel`]. Every response is owned by one lane of
//! one block, so the result is the same at any thread count.

use oasis_image::Image;
use oasis_nn::Sequential;
use oasis_tensor::{parallel, Tensor};

use crate::{attacked_model, AttackError, Result};

/// Images whose responses advance together, one accumulator lane
/// each: enough independent add chains to hide the add latency while
/// the accumulators stay in registers, and a group (~400 KB at
/// `d = 3072`) stays in cache while the rows stream past.
const GROUP: usize = 32;

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
    // Group g holds x[k][l] = image(g·GROUP + l)[k] at k·GROUP + l;
    // the last group's missing images are zero lanes, never read back.
    // Groups are filled independently, so they fan out on the pool.
    let groups = n.div_ceil(GROUP);
    let mut xt = vec![0.0f32; groups * d * GROUP];
    parallel::for_each_row_block(&mut xt, d * GROUP, |g0, block| {
        for (g, group) in (g0..).zip(block.chunks_exact_mut(d * GROUP)) {
            for (l, img) in calibration[g * GROUP..].iter().take(GROUP).enumerate() {
                for (slot, &v) in group.chunks_exact_mut(GROUP).zip(img.data()) {
                    slot[l] = v;
                }
            }
        }
    });
    let start: f32 = std::iter::empty::<f32>().sum();
    let mut out = vec![0.0f32; rows * n];
    parallel::for_each_row_block(&mut out, n, |r0, block| {
        for (g, group) in xt.chunks_exact(d * GROUP).enumerate() {
            let lanes = GROUP.min(n - g * GROUP);
            for (r, row_out) in block.chunks_exact_mut(n).enumerate() {
                let w = weights.row(r0 + r).expect("row in bounds");
                let acc = lane_dots(w, group.as_chunks().0, start);
                for (l, (o, &z)) in row_out[g * GROUP..]
                    .iter_mut()
                    .zip(&acc[..lanes])
                    .enumerate()
                {
                    // Which NaN a chain ends in depends on the operand
                    // order the vectorizer gives the add (Rust leaves
                    // NaN payloads unspecified), so NaN lanes are
                    // redone with the sequential sum.
                    *o = if z.is_nan() {
                        sequential_dot(w, calibration[g * GROUP + l].data())
                    } else {
                        z
                    };
                }
            }
        }
    });
    Ok(out)
}

/// `GROUP` dots at once: lane `l` adds `w_k·x[k][l]` to `start` in
/// ascending `k`, the sequence [`sequential_dot`] runs for one image.
#[inline]
fn lane_dots(w: &[f32], x: &[[f32; GROUP]], start: f32) -> [f32; GROUP] {
    let mut acc = [start; GROUP];
    for (&wk, xk) in w.iter().zip(x) {
        for l in 0..GROUP {
            acc[l] += wk * xk[l];
        }
    }
    acc
}

/// `Σ_k w_k·x_k` as a strictly sequential `Iterator::sum`.
fn sequential_dot(w: &[f32], x: &[f32]) -> f32 {
    w.iter().zip(x).map(|(&a, &b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
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
            for threads in [1, 2] {
                let (got_responses, got_biases) = parallel::with_threads(threads, || {
                    (
                        responses(&w, &images).unwrap(),
                        quantile_biases(&w, &images, target).unwrap(),
                    )
                });
                prop_assert_eq!(bits(&got_responses), bits(&want_responses));
                prop_assert_eq!(bits(&got_biases), bits(&want_biases));
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
