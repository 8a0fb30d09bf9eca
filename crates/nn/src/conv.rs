//! 1-D convolution over `[batch × (channels · length)]` inputs.
//!
//! The classifier treats a feature vector as a 1-channel signal of length
//! `top_k`. Convolutions use stride 1 and *same* zero padding so pooling
//! layers always see even lengths. Layout: channel-major within a row,
//! i.e. `row = [c0 t0..tL, c1 t0..tL, ...]`.
//!
//! Forward and backward are lowered onto one of two equivalent fast paths,
//! chosen by patch size (`in_c · kernel`):
//!
//! - **direct** (small patches): shifted-axpy tap loops that vectorize over
//!   the signal axis `t` — no im2col materialization at all;
//! - **GEMM** (large patches): im2col + blocked GEMM (see
//!   [`crate::backend`]). The training forward keeps every row's patches
//!   for backward; inference im2cols one row at a time into task-local
//!   scratch.
//!
//! The naive loops are retained as [`Conv1d::forward_reference`] /
//! [`Conv1d::backward_reference`] and both fast paths are proven
//! **bit-identical** to them: every output accumulator receives exactly
//! the same terms in the same ascending tap order (padding contributes
//! exact-zero terms, which are no-ops for accumulation chains that can
//! never reach `-0.0`), and the axpy form merely vectorizes across
//! *independent* accumulators without regrouping any single chain.

use crate::backend;
use crate::init;
use crate::layer::Layer;
use crate::matrix::Matrix;
use crate::storage::WeightStore;
use serde::{Deserialize, Serialize};

/// A same-padded, stride-1, 1-D convolution with fused ReLU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    length: usize,
    relu: bool,
    /// `[out_c × in_c × kernel]`, flattened — equivalently a row-major
    /// `[out_c × (in_c·kernel)]` GEMM operand.
    weights: WeightStore<f32>,
    bias: WeightStore<f32>,
    #[serde(skip)]
    grad_weights: Vec<f32>,
    #[serde(skip)]
    grad_bias: Vec<f32>,
    /// im2col of the last training batch: per sample, `length` rows of
    /// `in_c·kernel` patch columns (filled by the GEMM-path forward, or by
    /// the direct path's backward). Reused across steps.
    #[serde(skip)]
    col: Vec<f32>,
    /// ReLU mask of the last training forward (1 where the output was
    /// positive) — all backward needs, instead of a clone of the output.
    #[serde(skip)]
    mask: Vec<u8>,
    /// Masked upstream gradient arena.
    #[serde(skip)]
    delta: Vec<f32>,
    /// Per-job im2col scratch for the transposed (grad-input) convolution.
    #[serde(skip)]
    delta_col: Vec<f32>,
    /// 180°-flipped kernels `[in_c × (out_c·kernel)]` for grad-input.
    #[serde(skip)]
    wflip: Vec<f32>,
    /// Copy of the last training input (direct path only — the GEMM path
    /// reads patches back out of `col` instead).
    #[serde(skip)]
    cached_input: Vec<f32>,
    /// Batch size of the pending training forward (arms `backward`).
    #[serde(skip)]
    cached_rows: Option<usize>,
}

/// Patch sizes up to this use the direct shifted-axpy path; larger ones
/// go through im2col + GEMM, whose cache blocking wins once the per-output
/// reduction is long enough to amortize materializing the patch matrix.
const DIRECT_PATCH_MAX: usize = 48;

/// `dst[t] += w · src[t + k − half]` over every `t` where the source index
/// is in range (`src` and `dst` both have the channel length). Out-of-range
/// taps are the same-padding zeros the reference skips. Each `dst[t]` is an
/// independent accumulator, so this vectorizes without reordering any
/// single accumulation chain.
#[inline]
fn conv_axpy(w: f32, src: &[f32], dst: &mut [f32], k: usize, half: usize) {
    let l = dst.len();
    let shift = k as isize - half as isize;
    let t0 = (-shift).max(0) as usize;
    let t1 = (l as isize - shift).min(l as isize);
    if t1 <= t0 as isize {
        return;
    }
    let t1 = t1 as usize;
    let s0 = (t0 as isize + shift) as usize;
    for (dv, &sv) in dst[t0..t1].iter_mut().zip(&src[s0..s0 + (t1 - t0)]) {
        *dv += w * sv;
    }
}

/// `dst[t] += Σ_k w[k]·src[t+k−half]`, adding the taps in ascending `k`
/// with one separately rounded add each — the reference's exact per-element
/// chain — fused into a single pass over `t`. Out-of-range taps (the same
/// padding the reference skips) contribute nothing. The ubiquitous
/// 3-tap kernel gets a dedicated stencil; other widths fall back to one
/// axpy per tap (same chains, more passes).
#[inline]
fn stencil_acc(w: &[f32], src: &[f32], dst: &mut [f32], half: usize) {
    let l = dst.len();
    if w.len() == 3 && half == 1 && l >= 2 {
        let (w0, w1, w2) = (w[0], w[1], w[2]);
        dst[0] = (dst[0] + w1 * src[0]) + w2 * src[1];
        let (sm, s0, sp) = (&src[..l - 2], &src[1..l - 1], &src[2..]);
        for (((dv, &a), &b), &c) in dst[1..l - 1].iter_mut().zip(sm).zip(s0).zip(sp) {
            *dv = ((*dv + w0 * a) + w1 * b) + w2 * c;
        }
        dst[l - 1] = (dst[l - 1] + w0 * src[l - 2]) + w1 * src[l - 1];
    } else {
        for (k, &wk) in w.iter().enumerate() {
            conv_axpy(wk, src, dst, k, half);
        }
    }
}

/// Four-channel fused 3-tap stencil: per element, the four channels' taps
/// in channel order, in one pass over `dst`. Each `dst[t]` receives exactly
/// the chain four successive `stencil_acc` calls would build — same terms,
/// same ascending order, one `dst` traversal instead of four.
#[inline]
fn stencil_acc_quad(w: [&[f32]; 4], s: [&[f32]; 4], dst: &mut [f32]) {
    let l = dst.len();
    assert!(
        w.iter().all(|wi| wi.len() == 3) && s.iter().all(|si| si.len() == l) && l >= 2,
        "quad stencil shape mismatch"
    );
    let [wa, wb, wc, wd] = w;
    let [a, b, c, d] = s;
    let (wa0, wa1, wa2) = (wa[0], wa[1], wa[2]);
    let (wb0, wb1, wb2) = (wb[0], wb[1], wb[2]);
    let (wc0, wc1, wc2) = (wc[0], wc[1], wc[2]);
    let (wd0, wd1, wd2) = (wd[0], wd[1], wd[2]);
    dst[0] = (((((((dst[0] + wa1 * a[0]) + wa2 * a[1]) + wb1 * b[0]) + wb2 * b[1]) + wc1 * c[0])
        + wc2 * c[1])
        + wd1 * d[0])
        + wd2 * d[1];
    // Zipped shifted slices keep the interior loop free of bounds checks
    // (a panic branch in the body would block loop vectorization), exactly
    // like the single-channel stencil.
    let ai = a[..l - 2].iter().zip(&a[1..l - 1]).zip(&a[2..]);
    let bi = b[..l - 2].iter().zip(&b[1..l - 1]).zip(&b[2..]);
    let ci = c[..l - 2].iter().zip(&c[1..l - 1]).zip(&c[2..]);
    let di = d[..l - 2].iter().zip(&d[1..l - 1]).zip(&d[2..]);
    for ((((dv, ((&a0, &a1), &a2)), ((&b0, &b1), &b2)), ((&c0, &c1), &c2)), ((&d0, &d1), &d2)) in
        dst[1..l - 1].iter_mut().zip(ai).zip(bi).zip(ci).zip(di)
    {
        *dv = (((((((((((*dv + wa0 * a0) + wa1 * a1) + wa2 * a2) + wb0 * b0) + wb1 * b1)
            + wb2 * b2)
            + wc0 * c0)
            + wc1 * c1)
            + wc2 * c2)
            + wd0 * d0)
            + wd1 * d1)
            + wd2 * d2;
    }
    dst[l - 1] = (((((((dst[l - 1] + wa0 * a[l - 2]) + wa1 * a[l - 1]) + wb0 * b[l - 2])
        + wb1 * b[l - 1])
        + wc0 * c[l - 2])
        + wc1 * c[l - 1])
        + wd0 * d[l - 2])
        + wd1 * d[l - 1];
}

/// Two-channel fused 3-tap stencil: per element, channel `a`'s taps then
/// channel `b`'s, in one pass over `dst`. Each `dst[t]` receives exactly
/// the chain `stencil_acc(wa, a, ..); stencil_acc(wb, b, ..)` would build —
/// same terms, same ascending order, one traversal instead of two (half the
/// load/store traffic on `dst`).
#[inline]
fn stencil_acc_pair(wa: &[f32], a: &[f32], wb: &[f32], b: &[f32], dst: &mut [f32]) {
    let l = dst.len();
    assert!(wa.len() == 3 && wb.len() == 3 && a.len() == l && b.len() == l && l >= 2);
    let (wa0, wa1, wa2) = (wa[0], wa[1], wa[2]);
    let (wb0, wb1, wb2) = (wb[0], wb[1], wb[2]);
    dst[0] = (((dst[0] + wa1 * a[0]) + wa2 * a[1]) + wb1 * b[0]) + wb2 * b[1];
    // Zipped shifted slices: bounds-check-free interior loop (see
    // `stencil_acc_quad`).
    let ai = a[..l - 2].iter().zip(&a[1..l - 1]).zip(&a[2..]);
    let bi = b[..l - 2].iter().zip(&b[1..l - 1]).zip(&b[2..]);
    for ((dv, ((&a0, &a1), &a2)), ((&b0, &b1), &b2)) in dst[1..l - 1].iter_mut().zip(ai).zip(bi) {
        *dv = (((((*dv + wa0 * a0) + wa1 * a1) + wa2 * a2) + wb0 * b0) + wb1 * b1) + wb2 * b2;
    }
    dst[l - 1] =
        (((dst[l - 1] + wa0 * a[l - 2]) + wa1 * a[l - 1]) + wb0 * b[l - 2]) + wb1 * b[l - 1];
}

impl Conv1d {
    /// Creates the layer for signals of `length` samples.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even (same padding needs an odd kernel) or
    /// zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        length: usize,
        relu: bool,
        seed: u64,
    ) -> Self {
        assert!(kernel % 2 == 1, "same padding requires an odd kernel");
        let fan_in = in_channels * kernel;
        Conv1d {
            in_channels,
            out_channels,
            kernel,
            length,
            relu,
            weights: init::he_uniform(out_channels * in_channels * kernel, fan_in, seed).into(),
            bias: vec![0.0; out_channels].into(),
            grad_weights: vec![0.0; out_channels * in_channels * kernel],
            grad_bias: vec![0.0; out_channels],
            col: Vec::new(),
            mask: Vec::new(),
            delta: Vec::new(),
            delta_col: Vec::new(),
            wflip: Vec::new(),
            cached_input: Vec::new(),
            cached_rows: None,
        }
    }

    /// Assembles a layer from existing parameters (the zero-copy artifact
    /// loader passes artifact-shared stores; gradient buffers stay empty
    /// until training materializes them).
    ///
    /// # Panics
    ///
    /// Panics if the weight/bias lengths do not match the shape or the
    /// kernel is even.
    pub fn from_parts(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        length: usize,
        relu: bool,
        weights: WeightStore<f32>,
        bias: WeightStore<f32>,
    ) -> Self {
        assert!(kernel % 2 == 1, "same padding requires an odd kernel");
        assert_eq!(
            weights.len(),
            out_channels * in_channels * kernel,
            "conv1d weight length mismatch"
        );
        assert_eq!(bias.len(), out_channels, "conv1d bias length mismatch");
        Conv1d {
            in_channels,
            out_channels,
            kernel,
            length,
            relu,
            weights,
            bias,
            grad_weights: Vec::new(),
            grad_bias: Vec::new(),
            col: Vec::new(),
            mask: Vec::new(),
            delta: Vec::new(),
            delta_col: Vec::new(),
            wflip: Vec::new(),
            cached_input: Vec::new(),
            cached_rows: None,
        }
    }

    /// Whether this layer's shape takes the direct tap path.
    fn direct(&self) -> bool {
        self.in_channels * self.kernel <= DIRECT_PATCH_MAX
    }

    /// Output width per sample (`out_channels · length`; same padding keeps
    /// the length).
    pub fn out_width(&self) -> usize {
        self.out_channels * self.length
    }

    /// Input width per sample.
    pub fn in_width(&self) -> usize {
        self.in_channels * self.length
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel width (odd).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Signal length per channel.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Whether a ReLU is fused onto the output.
    pub fn relu(&self) -> bool {
        self.relu
    }

    /// The `[out_c × in_c × kernel]` weight tensor, flattened.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The per-output-channel bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Restores transient buffers after deserialization (serde skips the
    /// gradient/arena fields). Gradient buffers are left empty and
    /// materialized lazily on the first backward pass.
    pub fn rebuild_buffers(&mut self) {
        self.grad_weights = Vec::new();
        self.grad_bias = Vec::new();
    }

    /// Materializes the gradient buffers if a previous load left them
    /// empty (they always start zeroed, matching `new`).
    fn ensure_grads(&mut self) {
        if self.grad_weights.len() != self.weights.len() {
            self.grad_weights = vec![0.0; self.weights.len()];
        }
        if self.grad_bias.len() != self.bias.len() {
            self.grad_bias = vec![0.0; self.bias.len()];
        }
    }

    #[inline]
    fn w(&self, oc: usize, ic: usize, k: usize) -> f32 {
        self.weights[(oc * self.in_channels + ic) * self.kernel + k]
    }

    /// The original 5-deep-loop forward, kept as the bit-identity oracle
    /// for the im2col lowering (no caching, no mutation).
    pub fn forward_reference(&self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols(), self.in_width(), "conv1d input width mismatch");
        let (l, half) = (self.length, self.kernel / 2);
        let mut out = Matrix::zeros(input.rows(), self.out_width());
        for r in 0..input.rows() {
            let x = input.row(r);
            let y = out.row_mut(r);
            for oc in 0..self.out_channels {
                for t in 0..l {
                    let mut acc = self.bias[oc];
                    for ic in 0..self.in_channels {
                        let base = ic * l;
                        for k in 0..self.kernel {
                            let ti = t as isize + k as isize - half as isize;
                            if ti >= 0 && (ti as usize) < l {
                                acc += self.w(oc, ic, k) * x[base + ti as usize];
                            }
                        }
                    }
                    y[oc * l + t] = if self.relu { acc.max(0.0) } else { acc };
                }
            }
        }
        out
    }

    /// The original naive backward, kept as the bit-identity oracle.
    /// Returns `(grad_in, grad_weights, grad_bias)` accumulated from zero
    /// for the given forward pass (`output = forward_reference(input)`).
    pub fn backward_reference(
        &self,
        input: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
    ) -> (Matrix, Vec<f32>, Vec<f32>) {
        let (l, half) = (self.length, self.kernel / 2);
        let mut delta = grad_out.clone();
        if self.relu {
            for (d, &y) in delta.data_mut().iter_mut().zip(output.data()) {
                if y <= 0.0 {
                    *d = 0.0;
                }
            }
        }
        let mut grad_weights = vec![0.0f32; self.weights.len()];
        let mut grad_bias = vec![0.0f32; self.bias.len()];
        let mut grad_in = Matrix::zeros(input.rows(), self.in_width());
        for r in 0..input.rows() {
            let x = input.row(r);
            let d = delta.row(r);
            for oc in 0..self.out_channels {
                for t in 0..l {
                    let g = d[oc * l + t];
                    if g == 0.0 {
                        continue;
                    }
                    grad_bias[oc] += g;
                    for ic in 0..self.in_channels {
                        let base = ic * l;
                        for k in 0..self.kernel {
                            let ti = t as isize + k as isize - half as isize;
                            if ti >= 0 && (ti as usize) < l {
                                let widx = (oc * self.in_channels + ic) * self.kernel + k;
                                grad_weights[widx] += g * x[base + ti as usize];
                                grad_in.row_mut(r)[base + ti as usize] += g * self.weights[widx];
                            }
                        }
                    }
                }
            }
        }
        (grad_in, grad_weights, grad_bias)
    }
}

impl Conv1d {
    /// The forward arithmetic behind both passes. `record`, when given,
    /// receives what `backward` needs: every row's im2col patches on the
    /// GEMM path (the direct path takes an empty slice) and the ReLU mask
    /// (empty without a ReLU). Without it nothing but the output is
    /// written, and the GEMM path im2cols each row into one row of scratch
    /// per pool task.
    fn conv(&self, input: &Matrix, record: Option<(&mut [f32], &mut [u8])>) -> Matrix {
        assert_eq!(input.cols(), self.in_width(), "conv1d input width mismatch");
        let rows = input.rows();
        let (l, patch, ow) = (
            self.length,
            self.in_channels * self.kernel,
            self.out_width(),
        );
        let direct = self.direct();
        let mut out = Matrix::zeros(rows, ow);
        let jobs = backend::job_count(rows * self.out_channels * l * patch.saturating_mul(2), rows);
        let rows_per = rows.div_ceil(jobs.max(1)).max(1);
        let (weights, bias, relu) = (self.weights.as_slice(), self.bias.as_slice(), self.relu);
        let (in_c, oc_n, kernel, half) = (
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.kernel / 2,
        );
        let mut tasks: Vec<backend::ScopedTask<'_>> = Vec::with_capacity(jobs);
        let (mut col_rest, mut mask_rest) = record.unzip();
        let mut out_rest: &mut [f32] = out.data_mut();
        let mut r0 = 0usize;
        while r0 < rows {
            let nr = rows_per.min(rows - r0);
            let mut col_c =
                backend::split_front(&mut col_rest, if direct { 0 } else { nr * l * patch });
            let mut mask_c = backend::split_front(&mut mask_rest, if relu { nr * ow } else { 0 });
            let (out_c, rest) = out_rest.split_at_mut(nr * ow);
            out_rest = rest;
            let base = r0;
            tasks.push(Box::new(move || {
                let mut scratch = Vec::new();
                for r in 0..nr {
                    let x = input.row(base + r);
                    let y = &mut out_c[r * ow..(r + 1) * ow];
                    if direct {
                        // Per output channel: seed every t with the bias,
                        // then add taps in ascending (ic, k) order — the
                        // reference's exact per-element chain, vectorized
                        // across t.
                        for oc in 0..oc_n {
                            let y_ch = &mut y[oc * l..(oc + 1) * l];
                            y_ch.fill(bias[oc]);
                            let mut ic = 0;
                            if kernel == 3 && half == 1 && l >= 2 {
                                // Fuse input channels four (then two) at a
                                // time: per-element chains stay (ic, k)-
                                // ascending, `y_ch` is traversed once per
                                // fused group instead of once per channel.
                                while ic + 3 < in_c {
                                    let ch = |i: usize| &x[(ic + i) * l..(ic + i + 1) * l];
                                    let wt = |i: usize| &weights[(oc * in_c + ic + i) * 3..][..3];
                                    stencil_acc_quad(
                                        [wt(0), wt(1), wt(2), wt(3)],
                                        [ch(0), ch(1), ch(2), ch(3)],
                                        y_ch,
                                    );
                                    ic += 4;
                                }
                                while ic + 1 < in_c {
                                    let xa = &x[ic * l..(ic + 1) * l];
                                    let xb = &x[(ic + 1) * l..(ic + 2) * l];
                                    let wa = &weights[(oc * in_c + ic) * 3..][..3];
                                    let wb = &weights[(oc * in_c + ic + 1) * 3..][..3];
                                    stencil_acc_pair(wa, xa, wb, xb, y_ch);
                                    ic += 2;
                                }
                            }
                            for ic in ic..in_c {
                                let x_ch = &x[ic * l..(ic + 1) * l];
                                let w_row = &weights[(oc * in_c + ic) * kernel..][..kernel];
                                stencil_acc(w_row, x_ch, y_ch, half);
                            }
                        }
                    } else {
                        let colr = match col_c.as_deref_mut() {
                            Some(col) => &mut col[r * l * patch..(r + 1) * l * patch],
                            None => {
                                scratch.resize(l * patch, 0.0);
                                &mut scratch[..]
                            }
                        };
                        backend::im2col_1d_fast(x, in_c, l, kernel, colr);
                        backend::gemm_nt_serial(weights, colr, patch, l, Some(bias), y);
                    }
                    if relu {
                        backend::relu_in_place(
                            y,
                            mask_c.as_deref_mut().map(|m| &mut m[r * ow..(r + 1) * ow]),
                        );
                    }
                }
            }));
            r0 += nr;
        }
        backend::run_scoped(tasks);
        out
    }
}

impl Layer for Conv1d {
    fn infer(&self, input: &Matrix) -> Matrix {
        self.conv(input, None)
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        let (rows, patch) = (input.rows(), self.in_channels * self.kernel);
        let mut col = std::mem::take(&mut self.col);
        let mut mask = std::mem::take(&mut self.mask);
        if self.direct() {
            // Backward im2cols the kept input; the forward needs no patches.
            backend::ensure_len(&mut self.cached_input, input.data().len());
            self.cached_input.copy_from_slice(input.data());
        } else {
            backend::ensure_len(&mut col, rows * self.length * patch);
        }
        // A layer without a ReLU keeps no mask.
        mask.resize(rows * self.out_width() * usize::from(self.relu), 0);
        let out = self.conv(input, Some((&mut col, &mut mask)));
        (self.col, self.mask) = (col, mask);
        self.cached_rows = Some(rows);
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let rows = self.backward_params(grad_out);
        self.backward_input(rows)
    }

    fn backward_discard(&mut self, grad_out: &Matrix) {
        // First layer of the stack: the input gradient would be thrown
        // away, so only the parameter gradients are computed. They are
        // bit-identical to what `backward` accumulates.
        let _ = self.backward_params(grad_out);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.ensure_grads();
        visitor(self.weights.as_mut_slice(), &mut self.grad_weights);
        visitor(self.bias.as_mut_slice(), &mut self.grad_bias);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The two halves of the backward pass, callable separately so the first
/// layer of a stack can skip the input-gradient half entirely (its result
/// would be discarded by the trainer).
impl Conv1d {
    /// Reconstructs δ from the cached ReLU mask and accumulates dW/db.
    /// Returns the batch size, which arms [`Conv1d::backward_input`].
    fn backward_params(&mut self, grad_out: &Matrix) -> usize {
        self.ensure_grads();
        let rows = self
            .cached_rows
            .take()
            .expect("backward without a training forward");
        let (l, ow, patch) = (
            self.length,
            self.out_width(),
            self.in_channels * self.kernel,
        );
        assert_eq!(grad_out.rows(), rows, "conv1d grad batch mismatch");
        assert_eq!(grad_out.cols(), ow, "conv1d grad width mismatch");
        let (oc, in_c, kernel) = (self.out_channels, self.in_channels, self.kernel);

        // δ = grad_out ⊙ relu'(y), reconstructed from the cached mask with
        // exact `+0.0` zeros (matching the reference's `*d = 0.0`).
        backend::ensure_len(&mut self.delta, rows * ow);
        if self.relu {
            for ((d, &g), &m) in self
                .delta
                .iter_mut()
                .zip(grad_out.data())
                .zip(self.mask.iter())
            {
                *d = if m == 0 { 0.0 } else { g };
            }
        } else {
            self.delta.copy_from_slice(grad_out.data());
        }

        // dW / db: one straight (r, t)-ascending chain per (oc, tap),
        // partitioned over output channels only. Both paths read patch
        // rows out of `col` — the GEMM path
        // filled it during forward; the direct path materializes it here
        // from the cached input (its padding slots add exact zeros, the
        // taps the reference skips). Contiguous patch rows are what make
        // the inner axpy vectorize; the direct forward deliberately skips
        // this materialization because inference never needs it.
        let direct = self.direct();
        let iw = self.in_width();
        if direct {
            backend::ensure_len(&mut self.col, rows * l * patch);
            for r in 0..rows {
                backend::im2col_1d_fast(
                    &self.cached_input[r * iw..(r + 1) * iw],
                    in_c,
                    l,
                    kernel,
                    &mut self.col[r * l * patch..(r + 1) * l * patch],
                );
            }
        }
        {
            let dw_jobs = backend::job_count(rows * l * oc * patch, oc);
            let oc_per = oc.div_ceil(dw_jobs.max(1)).max(1);
            let (delta, col) = (&self.delta, &self.col);
            let tasks: Vec<backend::ScopedTask<'_>> = self
                .grad_weights
                .chunks_mut(oc_per * patch)
                .zip(self.grad_bias.chunks_mut(oc_per))
                .enumerate()
                .map(|(ci, (gw, gb))| {
                    let oc0 = ci * oc_per;
                    Box::new(move || {
                        let n_oc = gb.len();
                        for o in 0..n_oc {
                            let och = oc0 + o;
                            let gw_row = &mut gw[o * patch..(o + 1) * patch];
                            if patch <= DIRECT_PATCH_MAX {
                                // Small patches: the tap accumulators and
                                // the bias chain live on the stack across
                                // the whole (r, t) sweep — one load and one
                                // store of the gradient row per channel —
                                // and the `g == 0` test is dropped: a zero
                                // `g` contributes `g` to the bias chain and
                                // `g·c` (`±0.0`) to tap chains, bitwise
                                // no-ops for accumulators that start at
                                // `+0.0` and can never reach `-0.0`, so the
                                // sweep runs branch-free (the data-dependent
                                // ReLU-zero branch mispredicts ~half the
                                // time and costs more than the skipped
                                // arithmetic).
                                let mut accs = [0.0f32; DIRECT_PATCH_MAX];
                                let accs = &mut accs[..patch];
                                accs.copy_from_slice(gw_row);
                                let mut accb = gb[o];
                                for r in 0..rows {
                                    let d_ch = &delta[r * ow + och * l..][..l];
                                    let col_r = &col[r * l * patch..(r + 1) * l * patch];
                                    for (t, &g) in d_ch.iter().enumerate() {
                                        accb += g;
                                        for (w, &c) in
                                            accs.iter_mut().zip(&col_r[t * patch..(t + 1) * patch])
                                        {
                                            *w += g * c;
                                        }
                                    }
                                }
                                gw_row.copy_from_slice(accs);
                                gb[o] = accb;
                            } else {
                                for r in 0..rows {
                                    let d_ch = &delta[r * ow + och * l..][..l];
                                    let col_r = &col[r * l * patch..(r + 1) * l * patch];
                                    for (t, &g) in d_ch.iter().enumerate() {
                                        if g == 0.0 {
                                            continue;
                                        }
                                        gb[o] += g;
                                        let patch_row = &col_r[t * patch..(t + 1) * patch];
                                        for (w, &c) in gw_row.iter_mut().zip(patch_row) {
                                            *w += g * c;
                                        }
                                    }
                                }
                            }
                        }
                    }) as backend::ScopedTask<'_>
                })
                .collect();
            backend::run_scoped(tasks);
        }
        rows
    }

    /// Transposed convolution of δ with the 180°-flipped kernels → grad_in.
    /// Must follow [`Conv1d::backward_params`] for the same batch.
    fn backward_input(&mut self, rows: usize) -> Matrix {
        let (l, ow) = (self.length, self.out_width());
        let (oc, in_c, kernel) = (self.out_channels, self.in_channels, self.kernel);
        let direct = self.direct();
        let half = kernel / 2;
        let iw = self.in_width();

        // grad_in: transposed convolution of δ with 180°-flipped kernels —
        // ascending (oc, flipped-tap) order matches the reference's
        // (oc, t)-ascending contributions. Direct path: shifted axpys
        // indexing the flipped weight in place; GEMM path: im2col of δ
        // against a materialized flipped-kernel matrix.
        let mut grad_in = Matrix::zeros(rows, iw);
        let ock = oc * kernel;
        let gi_jobs = backend::job_count(rows * in_c * l * ock.saturating_mul(2), rows);
        let rows_per = rows.div_ceil(gi_jobs.max(1)).max(1);
        if !direct {
            backend::ensure_len(&mut self.wflip, in_c * ock);
            for ic in 0..in_c {
                for o in 0..oc {
                    for j in 0..kernel {
                        self.wflip[ic * ock + o * kernel + j] =
                            self.weights[(o * in_c + ic) * kernel + (kernel - 1 - j)];
                    }
                }
            }
            backend::ensure_len(&mut self.delta_col, gi_jobs * l * ock);
        }
        let (delta, wflip, weights) = (&self.delta, &self.wflip, self.weights.as_slice());
        let mut tasks: Vec<backend::ScopedTask<'_>> = Vec::with_capacity(gi_jobs);
        let mut gi_rest: &mut [f32] = grad_in.data_mut();
        let mut scratch_rest: &mut [f32] = &mut self.delta_col;
        let mut r0 = 0usize;
        while r0 < rows {
            let nr = rows_per.min(rows - r0);
            let (gi_c, rest) = gi_rest.split_at_mut(nr * iw);
            gi_rest = rest;
            let (scratch, rest) = if direct {
                (&mut [][..], scratch_rest)
            } else {
                scratch_rest.split_at_mut(l * ock)
            };
            scratch_rest = rest;
            let base = r0;
            tasks.push(Box::new(move || {
                for r in 0..nr {
                    let d_row = &delta[(base + r) * ow..(base + r + 1) * ow];
                    let gi_row = &mut gi_c[r * iw..(r + 1) * iw];
                    if direct {
                        for ic in 0..in_c {
                            let gi_ch = &mut gi_row[ic * l..(ic + 1) * l];
                            let mut o = 0;
                            if kernel == 3 && half == 1 && l >= 2 {
                                // Fuse output channels four (then two) at a
                                // time with flipped taps: chains stay
                                // (oc, tap)-ascending.
                                let flip = |och: usize| {
                                    let w = &weights[(och * in_c + ic) * 3..][..3];
                                    [w[2], w[1], w[0]]
                                };
                                while o + 3 < oc {
                                    let wf = [flip(o), flip(o + 1), flip(o + 2), flip(o + 3)];
                                    let ch = |i: usize| &d_row[(o + i) * l..(o + i + 1) * l];
                                    stencil_acc_quad(
                                        [&wf[0], &wf[1], &wf[2], &wf[3]],
                                        [ch(0), ch(1), ch(2), ch(3)],
                                        gi_ch,
                                    );
                                    o += 4;
                                }
                                while o + 1 < oc {
                                    let wfa = flip(o);
                                    let wfb = flip(o + 1);
                                    let da = &d_row[o * l..(o + 1) * l];
                                    let db = &d_row[(o + 1) * l..(o + 2) * l];
                                    stencil_acc_pair(&wfa, da, &wfb, db, gi_ch);
                                    o += 2;
                                }
                            }
                            for o in o..oc {
                                let d_ch = &d_row[o * l..(o + 1) * l];
                                let w_row = &weights[(o * in_c + ic) * kernel..][..kernel];
                                if kernel == 3 {
                                    let wf = [w_row[2], w_row[1], w_row[0]];
                                    stencil_acc(&wf, d_ch, gi_ch, half);
                                } else {
                                    for j in 0..kernel {
                                        conv_axpy(w_row[kernel - 1 - j], d_ch, gi_ch, j, half);
                                    }
                                }
                            }
                        }
                    } else {
                        backend::im2col_1d_fast(d_row, oc, l, kernel, scratch);
                        backend::gemm_nt_serial(wflip, scratch, ock, l, None, gi_row);
                    }
                }
            }));
            r0 += nr;
        }
        backend::run_scoped(tasks);
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_reproduces_input() {
        // Single channel, kernel [0,1,0] => output == input.
        let mut conv = Conv1d::new(1, 1, 3, 5, false, 0);
        conv.weights.copy_from_slice(&[0.0, 1.0, 0.0]);
        conv.bias[0] = 0.0;
        let x = Matrix::from_vec(1, 5, vec![1., 2., 3., 4., 5.]);
        let y = conv.infer(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn shift_kernel_pads_with_zero() {
        // Kernel [1,0,0] picks x[t-1]; the first output must be 0.
        let mut conv = Conv1d::new(1, 1, 3, 4, false, 0);
        conv.weights.copy_from_slice(&[1.0, 0.0, 0.0]);
        let x = Matrix::from_vec(1, 4, vec![1., 2., 3., 4.]);
        let y = conv.infer(&x);
        assert_eq!(y.data(), &[0., 1., 2., 3.]);
    }

    #[test]
    fn multi_channel_sums_contributions() {
        // Two input channels, kernel δ on both: y = x_c0 + x_c1.
        let mut conv = Conv1d::new(2, 1, 1, 3, false, 0);
        conv.weights.copy_from_slice(&[1.0, 1.0]);
        let x = Matrix::from_vec(1, 6, vec![1., 2., 3., 10., 20., 30.]);
        let y = conv.infer(&x);
        assert_eq!(y.data(), &[11., 22., 33.]);
    }

    #[test]
    fn lowered_forward_is_bit_identical_to_reference() {
        let conv = Conv1d::new(3, 4, 5, 7, true, 11);
        let x = Matrix::from_vec(
            2,
            21,
            (0..42)
                .map(|i| ((i * 37 % 19) as f32 - 9.0) / 4.0)
                .collect(),
        );
        let fast = conv.infer(&x);
        let reference = conv.forward_reference(&x);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&reference));
    }

    #[test]
    fn lowered_backward_is_bit_identical_to_reference() {
        let mut conv = Conv1d::new(2, 3, 3, 6, true, 5);
        let x = Matrix::from_vec(
            2,
            12,
            (0..24)
                .map(|i| ((i * 29 % 17) as f32 - 8.0) / 4.0)
                .collect(),
        );
        let y = conv.forward(&x);
        let g = Matrix::from_vec(
            2,
            conv.out_width(),
            (0..2 * conv.out_width())
                .map(|i| ((i * 13 % 11) as f32 - 5.0) / 8.0)
                .collect(),
        );
        let grad_in = conv.backward(&g);
        let (ref_gi, ref_gw, ref_gb) = conv.backward_reference(&x, &y, &g);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(grad_in.data()), bits(ref_gi.data()));
        assert_eq!(bits(&conv.grad_weights), bits(&ref_gw));
        assert_eq!(bits(&conv.grad_bias), bits(&ref_gb));
    }

    #[test]
    fn gemm_path_infer_and_forward_match_the_reference() {
        // 17 channels × 3 taps = 51 > DIRECT_PATCH_MAX: the im2col path.
        let mut conv = Conv1d::new(17, 4, 3, 6, true, 3);
        assert!(!conv.direct());
        let x = Matrix::from_vec(
            3,
            conv.in_width(),
            (0..3 * conv.in_width())
                .map(|i| ((i * 41 % 23) as f32 - 11.0) / 8.0)
                .collect(),
        );
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let reference = conv.forward_reference(&x);
        assert_eq!(bits(&conv.infer(&x)), bits(&reference));
        assert_eq!(bits(&conv.forward(&x)), bits(&reference));
        let g = Matrix::from_vec(3, conv.out_width(), vec![0.5; 3 * conv.out_width()]);
        let grad_in = conv.backward(&g);
        let (ref_gi, ref_gw, _) = conv.backward_reference(&x, &reference, &g);
        assert_eq!(bits(&grad_in), bits(&ref_gi));
        assert_eq!(conv.grad_weights, ref_gw);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut conv = Conv1d::new(2, 3, 3, 4, true, 5);
        let x = Matrix::from_vec(
            2,
            8,
            vec![
                0.5, -0.3, 0.8, 0.1, -0.2, 0.7, 0.4, -0.6, 0.9, 0.2, -0.5, 0.3, 0.6, -0.1, 0.8, 0.2,
            ],
        );
        let loss = |c: &Conv1d, x: &Matrix| -> f32 { c.infer(x).data().iter().sum() };
        let _ = conv.forward(&x);
        let ones = Matrix::from_vec(2, conv.out_width(), vec![1.0; 2 * conv.out_width()]);
        let dx = conv.backward(&ones);

        let eps = 1e-3f32;
        for idx in [0usize, 5, 11] {
            let orig = conv.weights[idx];
            conv.weights[idx] = orig + eps;
            let hi = loss(&conv, &x);
            conv.weights[idx] = orig - eps;
            let lo = loss(&conv, &x);
            conv.weights[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - conv.grad_weights[idx]).abs() < 3e-2,
                "dW[{idx}]: numeric {numeric} vs {}",
                conv.grad_weights[idx]
            );
        }
        for idx in [1usize, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let hi = loss(&conv, &xp);
            xp.data_mut()[idx] -= 2.0 * eps;
            let lo = loss(&conv, &xp);
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[idx]).abs() < 3e-2,
                "dx[{idx}]: numeric {numeric} vs {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn out_width_keeps_length() {
        let conv = Conv1d::new(1, 46, 3, 500, true, 0);
        assert_eq!(conv.out_width(), 46 * 500);
        assert_eq!(conv.in_width(), 500);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_rejected() {
        let _ = Conv1d::new(1, 1, 2, 8, true, 0);
    }

    #[test]
    fn param_count_matches_shape() {
        let mut conv = Conv1d::new(2, 4, 3, 10, true, 1);
        assert_eq!(conv.param_count(), 4 * 2 * 3 + 4);
    }
}
