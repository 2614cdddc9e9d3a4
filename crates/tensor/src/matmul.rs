//! Dense matrix multiplication with cache-friendly loop order.
//!
//! The kernels live in [`crate::simd`] and dispatch to the best
//! available instruction set at runtime:
//!
//! * `matmul` runs the register-blocked `axpy4`/`axpy4x2` row updates
//!   in `i-k-j` order, skipping all-zero coefficient blocks;
//! * `matmul_nt` and `matmul_tn` each call one whole-product kernel,
//!   `simd::matmul_nt_rows` and `simd::matmul_tn_rows`: cache- and
//!   register-blocked on the vector backend, a plain loop (the
//!   specification) on the scalar one.
//!
//! This module contributes the shape checks, the `matmul_nt` regime
//! choice and the row partitioning across the worker pool.

use crate::{parallel, simd, Result, Tensor, TensorError};

/// Minimum multiply-add count (`2·m·k·n`) before a product enters the
/// worker pool.
///
/// Below this, pool-dispatch latency rivals the kernel itself, so
/// sub-threshold problems always run serially on the caller. The
/// cutoff is FLOP-based rather than output-element-based so skinny
/// products with a long reduction axis (conv lowerings, the attacks'
/// wide `Linear`) parallelize even when their output is small.
const PAR_MIN_FLOPS: usize = 64 * 1024;

/// Whether an `m×k · k×n` product is worth dispatching to the pool.
fn above_par_threshold(m: usize, k: usize, n: usize) -> bool {
    m > 1 && 2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n) >= PAR_MIN_FLOPS
}

use simd::{axpy4, axpy4x2};

/// The three dense products, told apart by which operand is stored
/// transposed.
#[derive(Clone, Copy, PartialEq)]
enum Product {
    /// `a (m×k) · b (k×n)`.
    Nn,
    /// `aᵀ · b` with `a (k×m)`, `b (k×n)`.
    Tn,
    /// `a · bᵀ` with `a (m×k)`, `b (n×k)`.
    Nt,
}

impl Tensor {
    /// Matrix product `self (m×k) · other (k×n) → (m×n)`.
    ///
    /// Uses `i-k-j` loop order so the innermost loop walks both the
    /// output row and the right-hand row contiguously. Large products
    /// are split across threads by row blocks.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching
    /// inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        dense_product(Product::Nn, self, other)
    }

    /// Computes `selfᵀ · other` without materializing the transpose.
    ///
    /// `self` is `(k×m)`, `other` is `(k×n)`, result is `(m×n)`. This is
    /// the shape needed for weight gradients (`xᵀ · δ`).
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching
    /// leading dimension.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        dense_product(Product::Tn, self, other)
    }

    /// [`Tensor::matmul_tn`] written into `out`, which must hold the
    /// `m×n` product's values and be `+0` throughout on entry — the
    /// kernel adds into it. The result is `matmul_tn`'s, bit for bit,
    /// without allocating the product: a layer can write its weight
    /// gradient straight into its `+0` window of a gradient buffer.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching
    /// leading dimension and `out` holds exactly `m·n` values.
    pub fn matmul_tn_into(&self, other: &Tensor, out: &mut [f32]) -> Result<()> {
        let (m, k, n) = product_dims(Product::Tn, self, other)?;
        if out.len() != m * n {
            return Err(TensorError::LengthMismatch {
                len: out.len(),
                expected: m * n,
            });
        }
        debug_assert!(
            out.iter().all(|v| v.to_bits() == 0),
            "matmul_tn_into needs a +0 output"
        );
        let _span = oasis_telemetry::span(Product::Tn.names().1);
        fill_product(Product::Tn, self, other, (m, k, n), out);
        Ok(())
    }

    /// Computes `self · otherᵀ` without materializing the transpose.
    ///
    /// `self` is `(m×k)`, `other` is `(n×k)`, result is `(m×n)`. This is
    /// the shape of `Linear::forward` (`x · Wᵀ` with `W: n×k`) and of
    /// the conv weight gradient (`δY · colᵀ`).
    ///
    /// With a long reduction axis every output is one [`simd::dot`] of
    /// its row pair, computed by the blocked `simd::matmul_nt_rows`
    /// kernel.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching
    /// trailing dimension.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        dense_product(Product::Nt, self, other)
    }
}

impl Product {
    /// The operation's name in errors and its telemetry span.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Product::Nn => ("matmul", "tensor.matmul"),
            Product::Tn => ("matmul_tn", "tensor.matmul_tn"),
            Product::Nt => ("matmul_nt", "tensor.matmul_nt"),
        }
    }
}

/// The rank and inner-dimension checks of a dense product: its
/// `(m, k, n)`.
fn product_dims(product: Product, lhs: &Tensor, rhs: &Tensor) -> Result<(usize, usize, usize)> {
    let op = product.names().0;
    let (lr, lc) = dims2(lhs, op)?;
    let (rr, rc) = dims2(rhs, op)?;
    let (m, k, k2, n) = match product {
        Product::Nn => (lr, lc, rr, rc),
        Product::Tn => (lc, lr, rr, rc),
        Product::Nt => (lr, lc, rc, rr),
    };
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: lhs.dims().to_vec(),
            rhs: rhs.dims().to_vec(),
        });
    }
    Ok((m, k, n))
}

/// The steps every dense product takes: the checks, the
/// `tensor.<op>` span, and the zeroed `m×n` output that
/// [`fill_product`] adds into.
fn dense_product(product: Product, lhs: &Tensor, rhs: &Tensor) -> Result<Tensor> {
    let (m, k, n) = product_dims(product, lhs, rhs)?;
    let _span = oasis_telemetry::span(product.names().1);
    // `matmul_nt` has two regimes: a long reduction dim amortizes the
    // unrolled dot's lane setup, while a short one (conv im2col:
    // k = C·k², often < 64) wastes most of each 8-lane chunk — there
    // the axpy kernel on a materialized transpose wins despite the
    // copy, and counts its own FLOPs.
    if product == Product::Nt && (k < 64 || k < 2 * n) {
        return lhs.matmul(&rhs.transpose()?);
    }
    let mut out = Tensor::zeros(&[m, n]);
    fill_product(product, lhs, rhs, (m, k, n), out.data_mut());
    Ok(out)
}

/// Adds the `m×n` product into `out` (`+0` on entry): the FLOP count
/// and, above the FLOP threshold, the split of the output rows across
/// the worker pool. Each output's accumulation order is the same
/// under every row partition, so the parallel path is bit-identical
/// to the serial one.
fn fill_product(
    product: Product,
    lhs: &Tensor,
    rhs: &Tensor,
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
) {
    oasis_telemetry::counter!("tensor.matmul_flops").add(2 * (m * k * n) as u64);
    let (a, b) = (lhs.data(), rhs.data());
    let kernel = |row0: usize, rows: &mut [f32]| match product {
        Product::Nn => matmul_rows(a, b, k, n, row0, rows),
        Product::Tn => simd::matmul_tn_rows(a, b, m, n, row0, rows),
        Product::Nt => simd::matmul_nt_rows(a, b, k, row0, rows),
    };
    if above_par_threshold(m, k, n) {
        parallel::for_each_row_block(out, n, kernel);
    } else {
        kernel(0, out);
    }
}

/// `matmul`'s kernel: output rows `[row0, row0 + rows.len() / n)` of
/// `a (·×k) · b (k×n)`, in `i-k-j` order. Rows go in pairs so each
/// block of four right-hand rows is read once per pair instead of
/// once per row, and an all-zero block of four coefficients is
/// skipped.
fn matmul_rows(a: &[f32], b: &[f32], k: usize, n: usize, row0: usize, rows: &mut [f32]) {
    // No columns: nothing to fill, and `chunks_mut` rejects size 0.
    if n == 0 {
        return;
    }
    let blocks = k / 4 * 4;
    // Finishes one output row's remaining k-steps past the 4-blocks.
    let tail = |arow: &[f32], out_row: &mut [f32]| {
        for (p, &aip) in arow.iter().enumerate().skip(blocks) {
            if aip == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(brow) {
                *o += aip * bv;
            }
        }
    };
    // One output row against the 4-blocks (pair leftover).
    let one_row = |arow: &[f32], out_row: &mut [f32]| {
        let mut p = 0;
        while p < blocks {
            let coeff = [arow[p], arow[p + 1], arow[p + 2], arow[p + 3]];
            if coeff != [0.0; 4] {
                axpy4(
                    out_row,
                    coeff,
                    &b[p * n..(p + 1) * n],
                    &b[(p + 1) * n..(p + 2) * n],
                    &b[(p + 2) * n..(p + 3) * n],
                    &b[(p + 3) * n..(p + 4) * n],
                );
            }
            p += 4;
        }
        tail(arow, out_row);
    };
    for (pc, chunk) in rows.chunks_mut(2 * n).enumerate() {
        let i = row0 + pc * 2;
        if chunk.len() < 2 * n {
            one_row(&a[i * k..(i + 1) * k], chunk);
            continue;
        }
        let (o0, o1) = chunk.split_at_mut(n);
        let ar0 = &a[i * k..(i + 1) * k];
        let ar1 = &a[(i + 1) * k..(i + 2) * k];
        let mut p = 0;
        while p < blocks {
            let c0 = [ar0[p], ar0[p + 1], ar0[p + 2], ar0[p + 3]];
            let c1 = [ar1[p], ar1[p + 1], ar1[p + 2], ar1[p + 3]];
            let b0 = &b[p * n..(p + 1) * n];
            let b1 = &b[(p + 1) * n..(p + 2) * n];
            let b2 = &b[(p + 2) * n..(p + 3) * n];
            let b3 = &b[(p + 3) * n..(p + 4) * n];
            match (c0 == [0.0; 4], c1 == [0.0; 4]) {
                (false, false) => axpy4x2(o0, o1, c0, c1, b0, b1, b2, b3),
                (false, true) => axpy4(o0, c0, b0, b1, b2, b3),
                (true, false) => axpy4(o1, c1, b0, b1, b2, b3),
                (true, true) => {}
            }
            p += 4;
        }
        tail(ar0, o0);
        tail(ar1, o1);
    }
}

fn dims2(t: &Tensor, op: &'static str) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(v: Vec<f32>, r: usize, c: usize) -> Tensor {
        Tensor::from_vec(v, &[r, c]).unwrap()
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = m(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = m(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        assert_eq!(Tensor::eye(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_inner_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn products_with_an_empty_axis_do_not_panic() {
        // n = 0 must not reach `chunks_mut(0)`; k = 0 gives zeros.
        let (a, b) = (Tensor::zeros(&[2, 3]), Tensor::zeros(&[3, 0]));
        assert_eq!(a.matmul(&b).unwrap().dims(), &[2, 0]);
        assert_eq!(
            a.matmul_nt(&Tensor::zeros(&[0, 3])).unwrap().dims(),
            &[2, 0]
        );
        assert_eq!(b.matmul_tn(&b).unwrap().dims(), &[0, 0]);
        let k0 = Tensor::zeros(&[2, 0])
            .matmul(&Tensor::ones(&[0, 2]))
            .unwrap();
        assert_eq!(k0, Tensor::zeros(&[2, 2]));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = m(vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0], 3, 2);
        let b = m(vec![2.0, 1.0, 0.0, -1.0, 5.0, 2.0], 3, 2);
        let fused = a.matmul_tn(&b).unwrap();
        let explicit = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = m(vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0], 2, 3);
        let b = m(vec![2.0, 1.0, 0.0, -1.0, 5.0, 2.0], 2, 3);
        let fused = a.matmul_nt(&b).unwrap();
        let explicit = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(fused, explicit);
    }

    #[test]
    fn tiny_matmul_under_wide_thread_override_matches_serial() {
        // Sub-threshold problems (a 4×4 matmul is ~128 FLOPs, far
        // under `PAR_MIN_FLOPS`) must never enter the pool: even with
        // 8 threads requested the result is the serial one, bit for
        // bit.
        let a = m((0..16).map(|i| i as f32 * 0.37 - 2.0).collect(), 4, 4);
        let b = m((0..16).map(|i| (i as f32).sin()).collect(), 4, 4);
        let serial = a.matmul(&b).unwrap();
        let wide = parallel::with_threads(8, || a.matmul(&b).unwrap());
        assert_eq!(wide, serial);
        assert!(!above_par_threshold(4, 4, 4));
    }

    #[test]
    fn all_products_are_bit_identical_across_thread_counts() {
        // Shapes chosen above the FLOP threshold so the parallel path
        // actually engages; the row partition must not perturb a
        // single bit of the result.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(42);
        let a = Tensor::randn(&[96, 130], &mut rng);
        let b = Tensor::randn(&[130, 80], &mut rng);
        // 40 × 130: keeps k ≥ 2n so matmul_nt stays on its unrolled
        // dot path instead of dispatching to a transposed matmul.
        let bt = Tensor::randn(&[40, 130], &mut rng);
        let at = Tensor::randn(&[130, 96], &mut rng);
        let serial = parallel::with_threads(1, || {
            (
                a.matmul(&b).unwrap(),
                a.matmul_nt(&bt).unwrap(),
                at.matmul_tn(&b).unwrap(),
            )
        });
        for threads in [2, 4, 8] {
            let parallel = parallel::with_threads(threads, || {
                (
                    a.matmul(&b).unwrap(),
                    a.matmul_nt(&bt).unwrap(),
                    at.matmul_tn(&b).unwrap(),
                )
            });
            assert_eq!(parallel.0.data(), serial.0.data(), "matmul t={threads}");
            assert_eq!(parallel.1.data(), serial.1.data(), "matmul_nt t={threads}");
            assert_eq!(parallel.2.data(), serial.2.data(), "matmul_tn t={threads}");
        }
    }

    #[test]
    fn large_matmul_uses_parallel_path_consistently() {
        // Exercise both code paths and check they agree.
        let n = 300; // 300*300 = 90_000 > threshold
        let a = Tensor::from_vec(
            (0..n * n).map(|i| (i % 17) as f32 * 0.25).collect(),
            &[n, n],
        )
        .unwrap();
        let i = Tensor::eye(n);
        let c = a.matmul(&i).unwrap();
        assert_eq!(c, a);
    }
}
