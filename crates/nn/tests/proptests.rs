//! Property-based tests for the NN substrate: gradient checks on random
//! shapes and data, and algebraic invariants of the matrix ops.

use proptest::prelude::*;
use soteria_nn::{Activation, Conv1d, Conv2d, Dense, Layer, Loss, Matrix, MaxPool1d};

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Deterministic filler with exact zeros sprinkled in (the GEMM kernels
/// have zero-skip paths whose bit-identity must hold on zero terms too).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s.is_multiple_of(7) {
                0.0
            } else {
                ((s % 2003) as f32 - 1001.0) / 500.0
            }
        })
        .collect()
}

/// Snapshot `(param, grad)` pairs via `visit_params` (weights then bias).
fn grads_of(layer: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |_, g| out.push(g.to_vec()));
    out
}

/// Overwrite the bias (the second visited param) with `values`,
/// normalizing `-0.0` to `+0.0` — the determinism contract only covers
/// biases reachable by training, which can never become `-0.0`.
fn set_bias(layer: &mut dyn Layer, values: &[f32]) {
    let mut idx = 0;
    layer.visit_params(&mut |p, _| {
        if idx == 1 {
            for (b, &v) in p.iter_mut().zip(values) {
                *b = if v == 0.0 { 0.0 } else { v };
            }
        }
        idx += 1;
    });
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A·B)·C == A·(B·C) within f32 tolerance.
    #[test]
    fn matmul_is_associative(a in arb_matrix(3, 4), b in arb_matrix(4, 2), c in arb_matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    /// t_matmul and matmul_t agree with explicit matmul against the
    /// identity arrangement: aᵀ·b == (bᵀ·a)ᵀ.
    #[test]
    fn transpose_products_agree(a in arb_matrix(4, 3), b in arb_matrix(4, 2)) {
        let atb = a.t_matmul(&b); // [3x2]
        let bta = b.t_matmul(&a); // [2x3]
        for i in 0..3 {
            for j in 0..2 {
                prop_assert!((atb.get(i, j) - bta.get(j, i)).abs() < 1e-5);
            }
        }
    }

    /// Dense gradients match finite differences on random inputs.
    #[test]
    fn dense_gradcheck(x in arb_matrix(2, 3), seed in 0u64..50) {
        let mut layer = Dense::new(3, 2, Activation::Relu, seed);
        let loss = |l: &Dense, x: &Matrix| -> f32 { l.infer(x).data().iter().sum() };
        let _ = layer.forward(&x);
        let dx = layer.backward(&Matrix::from_vec(2, 2, vec![1.0; 4]));
        let eps = 1e-2f32;
        for idx in 0..x.data().len() {
            let mut hi = x.clone();
            hi.data_mut()[idx] += eps;
            let mut lo = x.clone();
            lo.data_mut()[idx] -= eps;
            let numeric = (loss(&layer, &hi) - loss(&layer, &lo)) / (2.0 * eps);
            // ReLU kinks make exact agreement impossible; accept a loose
            // bound and skip points near the kink.
            let analytic = dx.data()[idx];
            if (numeric - analytic).abs() > 0.1 {
                // Tolerate kink crossings: re-check that at least the sign
                // is not wildly contradictory.
                prop_assert!((numeric - analytic).abs() < 2.0,
                    "dx[{idx}] numeric {numeric} analytic {analytic}");
            }
        }
    }

    /// Conv1d preserves batch row independence: permuting input rows
    /// permutes output rows identically.
    #[test]
    fn conv_rows_are_independent(x in arb_matrix(3, 8), seed in 0u64..50) {
        let conv = Conv1d::new(1, 2, 3, 8, true, seed);
        let y = conv.infer(&x);
        let permuted = x.select_rows(&[2, 0, 1]);
        let yp = conv.infer(&permuted);
        prop_assert_eq!(yp.row(0), y.row(2));
        prop_assert_eq!(yp.row(1), y.row(0));
        prop_assert_eq!(yp.row(2), y.row(1));
    }

    /// Max pooling output is always one of the window inputs, and
    /// pooling is monotone (scaling inputs by 2 scales outputs by 2 for
    /// positive inputs).
    #[test]
    fn pooling_selects_inputs(data in proptest::collection::vec(0.01f32..1.0, 8)) {
        let x = Matrix::from_vec(1, 8, data.clone());
        let pool = MaxPool1d::new(1, 8, 2);
        let y = pool.infer(&x);
        for (i, &v) in y.data().iter().enumerate() {
            prop_assert!(v == data[2 * i] || v == data[2 * i + 1]);
        }
        let x2 = Matrix::from_vec(1, 8, data.iter().map(|&v| v * 2.0).collect());
        let y2 = pool.infer(&x2);
        for (a, b) in y.data().iter().zip(y2.data()) {
            prop_assert!((b - 2.0 * a).abs() < 1e-6);
        }
    }

    /// Softmax cross-entropy loss is non-negative and its gradient rows
    /// sum to ~0 (probabilities minus a one-hot both sum to 1).
    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero(x in arb_matrix(3, 4), labels in proptest::collection::vec(0usize..4, 3)) {
        let t = soteria_nn::loss::one_hot(&labels, 4);
        let (loss, grad) = Loss::SoftmaxCrossEntropy.compute(&x, &t);
        prop_assert!(loss >= 0.0);
        for r in 0..3 {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    /// The im2col/GEMM Conv1d forward and backward are bit-identical to
    /// the retained naive reference across random shapes, batch sizes,
    /// kernels, data (with exact zeros), and nonzero biases.
    #[test]
    fn conv1d_lowering_is_bit_identical(
        in_c in 1usize..4,
        out_c in 1usize..4,
        kernel in (0usize..3).prop_map(|i| [1usize, 3, 5][i]),
        length in 5usize..11,
        batch in 1usize..5,
        relu in (0u8..2).prop_map(|v| v == 1),
        seed in 0u64..1000,
    ) {
        let mut conv = Conv1d::new(in_c, out_c, kernel, length, relu, seed);
        set_bias(&mut conv, &fill(out_c, seed ^ 0xB1A5));
        let x = Matrix::from_vec(batch, in_c * length, fill(batch * in_c * length, seed ^ 1));

        let fast = conv.forward(&x);
        let reference = conv.forward_reference(&x);
        prop_assert_eq!(bits(fast.data()), bits(reference.data()));
        prop_assert_eq!(bits(conv.infer(&x).data()), bits(reference.data()));

        let g = Matrix::from_vec(batch, out_c * length, fill(batch * out_c * length, seed ^ 2));
        let grad_in = conv.backward(&g);
        let (ref_gi, ref_gw, ref_gb) = conv.backward_reference(&x, &reference, &g);
        prop_assert_eq!(bits(grad_in.data()), bits(ref_gi.data()));
        let grads = grads_of(&mut conv);
        prop_assert_eq!(bits(&grads[0]), bits(&ref_gw));
        prop_assert_eq!(bits(&grads[1]), bits(&ref_gb));
    }

    /// Same contract for Conv2d.
    #[test]
    fn conv2d_lowering_is_bit_identical(
        in_c in 1usize..3,
        out_c in 1usize..4,
        kernel in (0usize..2).prop_map(|i| [1usize, 3][i]),
        height in 3usize..7,
        width in 3usize..7,
        batch in 1usize..4,
        relu in (0u8..2).prop_map(|v| v == 1),
        seed in 0u64..1000,
    ) {
        let mut conv = Conv2d::new(in_c, out_c, kernel, height, width, relu, seed);
        set_bias(&mut conv, &fill(out_c, seed ^ 0xB2A5));
        let plane = height * width;
        let x = Matrix::from_vec(batch, in_c * plane, fill(batch * in_c * plane, seed ^ 1));

        let fast = conv.forward(&x);
        let reference = conv.forward_reference(&x);
        prop_assert_eq!(bits(fast.data()), bits(reference.data()));
        prop_assert_eq!(bits(conv.infer(&x).data()), bits(reference.data()));

        let g = Matrix::from_vec(batch, out_c * plane, fill(batch * out_c * plane, seed ^ 2));
        let grad_in = conv.backward(&g);
        let (ref_gi, ref_gw, ref_gb) = conv.backward_reference(&x, &reference, &g);
        prop_assert_eq!(bits(grad_in.data()), bits(ref_gi.data()));
        let grads = grads_of(&mut conv);
        prop_assert_eq!(bits(&grads[0]), bits(&ref_gw));
        prop_assert_eq!(bits(&grads[1]), bits(&ref_gb));
    }

    /// MSE is zero iff prediction equals target.
    #[test]
    fn mse_zero_iff_equal(x in arb_matrix(2, 3)) {
        let (loss, _) = Loss::Mse.compute(&x, &x);
        prop_assert_eq!(loss, 0.0);
        let mut y = x.clone();
        y.data_mut()[0] += 1.0;
        let (loss2, _) = Loss::Mse.compute(&y, &x);
        prop_assert!(loss2 > 0.0);
    }
}

/// A pool-dispatched `matmul` (work ≥ the parallel threshold, workers
/// running) is bit-identical to the naive ascending-`p` serial product.
/// Not a proptest: warming the pool is process-global, and the shape must
/// sit above the dispatch threshold, so one deterministic heavy case with
/// zero-laden data is the right trade.
#[test]
fn pooled_matmul_is_bit_identical_to_serial_reference() {
    let (m, k, n) = (64, 256, 256); // m·k·n == 1 << 22, the dispatch floor
    let a = Matrix::from_vec(m, k, fill(m * k, 41));
    let b = Matrix::from_vec(k, n, fill(k * n, 42));

    let mut reference = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a.data()[i * k + p];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                reference[i * n + j] += av * b.data()[p * n + j];
            }
        }
    }

    let spawned = soteria_nn::backend::ensure_threads(2);
    assert!(spawned >= 1, "worker pool failed to start");
    let c = a.matmul(&b);
    assert_eq!(bits(c.data()), bits(&reference));
}
