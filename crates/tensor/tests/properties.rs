//! Property-based tests for the tensor algebra.

use oasis_tensor::Tensor;
use proptest::prelude::*;

/// Strategy: a rank-2 tensor with dims in [1, 8] and small finite values.
fn small_matrix() -> impl Strategy<Value = Tensor> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-100.0f32..100.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]).unwrap())
    })
}

/// Strategy: two same-shape matrices.
fn matrix_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (1usize..=8, 1usize..=8).prop_flat_map(|(r, c)| {
        let a = proptest::collection::vec(-100.0f32..100.0, r * c);
        let b = proptest::collection::vec(-100.0f32..100.0, r * c);
        (a, b).prop_map(move |(a, b)| {
            (
                Tensor::from_vec(a, &[r, c]).unwrap(),
                Tensor::from_vec(b, &[r, c]).unwrap(),
            )
        })
    })
}

proptest! {
    #[test]
    fn add_commutes((a, b) in matrix_pair()) {
        prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
    }

    #[test]
    fn sub_then_add_recovers((a, b) in matrix_pair()) {
        let round = a.sub(&b).unwrap().add(&b).unwrap();
        for (x, y) in round.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-5));
        }
    }

    #[test]
    fn transpose_is_involution(a in small_matrix()) {
        prop_assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
    }

    #[test]
    fn identity_is_matmul_neutral(a in small_matrix()) {
        let n = a.dims()[1];
        let prod = a.matmul(&Tensor::eye(n)).unwrap();
        prop_assert_eq!(prod, a);
    }

    #[test]
    fn matmul_tn_matches_transpose(a in small_matrix(), seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let k = a.dims()[0];
        let b = Tensor::randn(&[k, 3], &mut StdRng::seed_from_u64(seed));
        let fused = a.matmul_tn(&b).unwrap();
        let explicit = a.transpose().unwrap().matmul(&b).unwrap();
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4));
        }
    }

    #[test]
    fn matmul_nt_matches_transpose(a in small_matrix(), seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let k = a.dims()[1];
        let b = Tensor::randn(&[5, k], &mut StdRng::seed_from_u64(seed));
        let fused = a.matmul_nt(&b).unwrap();
        let explicit = a.matmul(&b.transpose().unwrap()).unwrap();
        for (x, y) in fused.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4));
        }
    }

    #[test]
    fn scale_distributes_over_add((a, b) in matrix_pair(), s in -10.0f32..10.0) {
        let lhs = a.add(&b).unwrap().scale(s);
        let rhs = a.scale(s).add(&b.scale(s)).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() <= 1e-2_f32.max(y.abs() * 1e-4));
        }
    }

    #[test]
    fn column_sums_add_up_to_the_total(a in small_matrix()) {
        let total = a.sum();
        let by_cols = a.sum_axis0().unwrap().sum();
        prop_assert!((total - by_cols).abs() <= 1e-2_f32.max(total.abs() * 1e-5));
    }

    #[test]
    fn relu_is_idempotent(a in small_matrix()) {
        let once = a.relu();
        let twice = once.relu();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn stack_then_slice_recovers((a, b) in matrix_pair()) {
        let (rows, cols) = (a.dims()[0] + b.dims()[0], a.dims()[1]);
        let stacked = Tensor::from_vec([a.data(), b.data()].concat(), &[rows, cols]).unwrap();
        let ra = stacked.slice_rows(0, a.dims()[0]).unwrap();
        let rb = stacked.slice_rows(a.dims()[0], stacked.dims()[0]).unwrap();
        prop_assert_eq!(ra, a);
        prop_assert_eq!(rb, b);
    }
}
