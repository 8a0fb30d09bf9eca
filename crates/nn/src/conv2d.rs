//! 2-D convolution over `[batch × (channels · height · width)]` inputs —
//! the substrate for the image-based baseline classifier (Cui et al.),
//! which renders each binary as a grayscale image.
//!
//! Layout: channel-major, then row-major within a channel:
//! `row = [c0 r0c0..r0cW, c0 r1c0.., ..., c1 ...]`. Same zero padding,
//! stride 1, odd square kernels.
//!
//! Like [`crate::conv::Conv1d`], forward and backward are lowered onto
//! GEMM via im2col with the naive loops retained as bit-identity oracles
//! ([`Conv2d::forward_reference`] / [`Conv2d::backward_reference`]).

use crate::backend;
use crate::init;
use crate::layer::Layer;
use crate::matrix::Matrix;
use crate::storage::WeightStore;
use serde::{Deserialize, Serialize};

/// A same-padded, stride-1, square-kernel 2-D convolution with fused ReLU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    height: usize,
    width: usize,
    relu: bool,
    /// `[out_c × in_c × kernel × kernel]`, flattened — equivalently a
    /// row-major `[out_c × (in_c·kernel²)]` GEMM operand.
    weights: WeightStore<f32>,
    bias: WeightStore<f32>,
    #[serde(skip)]
    grad_weights: Vec<f32>,
    #[serde(skip)]
    grad_bias: Vec<f32>,
    /// im2col of the last training forward batch (per sample, `h·w` pixel
    /// rows of `in_c·kernel²` patch columns). Reused across steps.
    #[serde(skip)]
    col: Vec<f32>,
    /// ReLU mask of the last training forward.
    #[serde(skip)]
    mask: Vec<u8>,
    /// Masked upstream gradient arena.
    #[serde(skip)]
    delta: Vec<f32>,
    /// Per-job im2col scratch for the transposed convolution.
    #[serde(skip)]
    delta_col: Vec<f32>,
    /// 180°-rotated kernels `[in_c × (out_c·kernel²)]` for grad-input.
    #[serde(skip)]
    wflip: Vec<f32>,
    /// Batch size of the pending training forward (arms `backward`).
    #[serde(skip)]
    cached_rows: Option<usize>,
}

impl Conv2d {
    /// Creates the layer for `height × width` images.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even or zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        height: usize,
        width: usize,
        relu: bool,
        seed: u64,
    ) -> Self {
        assert!(kernel % 2 == 1, "same padding requires an odd kernel");
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            height,
            width,
            relu,
            weights: init::he_uniform(out_channels * fan_in, fan_in, seed).into(),
            bias: vec![0.0; out_channels].into(),
            grad_weights: vec![0.0; out_channels * fan_in],
            grad_bias: vec![0.0; out_channels],
            col: Vec::new(),
            mask: Vec::new(),
            delta: Vec::new(),
            delta_col: Vec::new(),
            wflip: Vec::new(),
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
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        height: usize,
        width: usize,
        relu: bool,
        weights: WeightStore<f32>,
        bias: WeightStore<f32>,
    ) -> Self {
        assert!(kernel % 2 == 1, "same padding requires an odd kernel");
        assert_eq!(
            weights.len(),
            out_channels * in_channels * kernel * kernel,
            "conv2d weight length mismatch"
        );
        assert_eq!(bias.len(), out_channels, "conv2d bias length mismatch");
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            height,
            width,
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
            cached_rows: None,
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel width (odd, square).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether a ReLU is fused onto the output.
    pub fn relu(&self) -> bool {
        self.relu
    }

    /// The `[out_c × in_c × kernel × kernel]` weight tensor, flattened.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The per-output-channel bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Output width per sample (same padding keeps spatial dims).
    pub fn out_width(&self) -> usize {
        self.out_channels * self.height * self.width
    }

    /// Input width per sample.
    pub fn in_width(&self) -> usize {
        self.in_channels * self.height * self.width
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
    fn w_index(&self, oc: usize, ic: usize, kr: usize, kc: usize) -> usize {
        ((oc * self.in_channels + ic) * self.kernel + kr) * self.kernel + kc
    }

    /// The original nested-loop forward, kept as the bit-identity oracle
    /// for the im2col lowering (no caching, no mutation).
    pub fn forward_reference(&self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols(), self.in_width(), "conv2d input width mismatch");
        let (h, w, half) = (self.height, self.width, self.kernel / 2);
        let plane = h * w;
        let mut out = Matrix::zeros(input.rows(), self.out_width());
        for r in 0..input.rows() {
            let x = input.row(r);
            let y = out.row_mut(r);
            for oc in 0..self.out_channels {
                for row in 0..h {
                    for col in 0..w {
                        let mut acc = self.bias[oc];
                        for ic in 0..self.in_channels {
                            let base = ic * plane;
                            for kr in 0..self.kernel {
                                let ri = row as isize + kr as isize - half as isize;
                                if ri < 0 || ri as usize >= h {
                                    continue;
                                }
                                for kc in 0..self.kernel {
                                    let ci = col as isize + kc as isize - half as isize;
                                    if ci < 0 || ci as usize >= w {
                                        continue;
                                    }
                                    acc += self.weights[self.w_index(oc, ic, kr, kc)]
                                        * x[base + ri as usize * w + ci as usize];
                                }
                            }
                        }
                        y[oc * plane + row * w + col] = if self.relu { acc.max(0.0) } else { acc };
                    }
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
        let (h, w, half) = (self.height, self.width, self.kernel / 2);
        let plane = h * w;
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
            // Index loops are the point here: this is the naive oracle,
            // written to mirror the paper's triple loop literally.
            #[allow(clippy::needless_range_loop)]
            for oc in 0..self.out_channels {
                for row in 0..h {
                    for col in 0..w {
                        let g = delta.get(r, oc * plane + row * w + col);
                        if g == 0.0 {
                            continue;
                        }
                        grad_bias[oc] += g;
                        for ic in 0..self.in_channels {
                            let base = ic * plane;
                            for kr in 0..self.kernel {
                                let ri = row as isize + kr as isize - half as isize;
                                if ri < 0 || ri as usize >= h {
                                    continue;
                                }
                                for kc in 0..self.kernel {
                                    let ci = col as isize + kc as isize - half as isize;
                                    if ci < 0 || ci as usize >= w {
                                        continue;
                                    }
                                    let xi = base + ri as usize * w + ci as usize;
                                    let wi = self.w_index(oc, ic, kr, kc);
                                    grad_weights[wi] += g * x[xi];
                                    grad_in.row_mut(r)[xi] += g * self.weights[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        (grad_in, grad_weights, grad_bias)
    }
}

impl Conv2d {
    /// The forward arithmetic behind both passes. `record`, when given,
    /// receives what `backward` needs: every row's im2col patches and the
    /// ReLU mask (empty without a ReLU). Without it nothing but the output
    /// is written, and each row is im2col'd into one row of scratch per
    /// pool task.
    fn conv(&self, input: &Matrix, record: Option<(&mut [f32], &mut [u8])>) -> Matrix {
        assert_eq!(input.cols(), self.in_width(), "conv2d input width mismatch");
        let rows = input.rows();
        let plane = self.height * self.width;
        let patch = self.in_channels * self.kernel * self.kernel;
        let ow = self.out_width();
        let mut out = Matrix::zeros(rows, ow);
        let jobs = backend::job_count(
            rows * self.out_channels * plane * patch.saturating_mul(2),
            rows,
        );
        let rows_per = rows.div_ceil(jobs.max(1)).max(1);
        let (weights, bias, relu) = (self.weights.as_slice(), self.bias.as_slice(), self.relu);
        let (in_c, kernel, h, w) = (self.in_channels, self.kernel, self.height, self.width);
        let mut tasks: Vec<backend::ScopedTask<'_>> = Vec::with_capacity(jobs);
        let (mut col_rest, mut mask_rest) = record.unzip();
        let mut out_rest: &mut [f32] = out.data_mut();
        let mut r0 = 0usize;
        while r0 < rows {
            let nr = rows_per.min(rows - r0);
            let mut col_c = backend::split_front(&mut col_rest, nr * plane * patch);
            let mut mask_c = backend::split_front(&mut mask_rest, if relu { nr * ow } else { 0 });
            let (out_c, rest) = out_rest.split_at_mut(nr * ow);
            out_rest = rest;
            let base = r0;
            tasks.push(Box::new(move || {
                let mut scratch = Vec::new();
                for r in 0..nr {
                    let colr = match col_c.as_deref_mut() {
                        Some(col) => &mut col[r * plane * patch..(r + 1) * plane * patch],
                        None => {
                            scratch.resize(plane * patch, 0.0);
                            &mut scratch[..]
                        }
                    };
                    backend::im2col_2d(input.row(base + r), in_c, h, w, kernel, colr);
                    let y = &mut out_c[r * ow..(r + 1) * ow];
                    backend::gemm_nt_serial(weights, colr, patch, plane, Some(bias), y);
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

impl Layer for Conv2d {
    fn infer(&self, input: &Matrix) -> Matrix {
        self.conv(input, None)
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        let (rows, patch) = (input.rows(), self.in_channels * self.kernel * self.kernel);
        let mut col = std::mem::take(&mut self.col);
        let mut mask = std::mem::take(&mut self.mask);
        backend::ensure_len(&mut col, rows * self.height * self.width * patch);
        // A layer without a ReLU keeps no mask.
        mask.resize(rows * self.out_width() * usize::from(self.relu), 0);
        let out = self.conv(input, Some((&mut col, &mut mask)));
        (self.col, self.mask) = (col, mask);
        self.cached_rows = Some(rows);
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.ensure_grads();
        let rows = self
            .cached_rows
            .take()
            .expect("backward without a training forward");
        let plane = self.height * self.width;
        let patch = self.in_channels * self.kernel * self.kernel;
        let ow = self.out_width();
        assert_eq!(grad_out.rows(), rows, "conv2d grad batch mismatch");
        assert_eq!(grad_out.cols(), ow, "conv2d grad width mismatch");
        let (oc, in_c, kernel) = (self.out_channels, self.in_channels, self.kernel);

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

        // dW / db: one straight (r, pixel)-ascending chain per (oc, tap),
        // partitioned over output channels only.
        {
            let dw_jobs = backend::job_count(rows * plane * oc * patch, oc);
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
                        for r in 0..rows {
                            let d_row = &delta[r * ow..(r + 1) * ow];
                            let col_r = &col[r * plane * patch..(r + 1) * plane * patch];
                            for o in 0..n_oc {
                                let d_ch = &d_row[(oc0 + o) * plane..(oc0 + o + 1) * plane];
                                let gw_row = &mut gw[o * patch..(o + 1) * patch];
                                for (t, &g) in d_ch.iter().enumerate() {
                                    if g == 0.0 {
                                        continue;
                                    }
                                    gb[o] += g;
                                    let patch_row = &col_r[t * patch..(t + 1) * patch];
                                    for (wv, &c) in gw_row.iter_mut().zip(patch_row) {
                                        *wv += g * c;
                                    }
                                }
                            }
                        }
                    }) as backend::ScopedTask<'_>
                })
                .collect();
            backend::run_scoped(tasks);
        }

        // grad_in: transposed convolution with 180°-rotated kernels.
        let kk = kernel * kernel;
        let ock = oc * kk;
        backend::ensure_len(&mut self.wflip, in_c * ock);
        for ic in 0..in_c {
            for o in 0..oc {
                for jr in 0..kernel {
                    for jc in 0..kernel {
                        self.wflip[ic * ock + o * kk + jr * kernel + jc] =
                            self.weights[self.w_index(o, ic, kernel - 1 - jr, kernel - 1 - jc)];
                    }
                }
            }
        }
        let iw = self.in_width();
        let mut grad_in = Matrix::zeros(rows, iw);
        let gi_jobs = backend::job_count(rows * in_c * plane * ock.saturating_mul(2), rows);
        let rows_per = rows.div_ceil(gi_jobs.max(1)).max(1);
        backend::ensure_len(&mut self.delta_col, gi_jobs * plane * ock);
        let (delta, wflip) = (&self.delta, &self.wflip);
        let (h, w) = (self.height, self.width);
        let mut tasks: Vec<backend::ScopedTask<'_>> = Vec::with_capacity(gi_jobs);
        let mut gi_rest: &mut [f32] = grad_in.data_mut();
        let mut scratch_rest: &mut [f32] = &mut self.delta_col;
        let mut r0 = 0usize;
        while r0 < rows {
            let nr = rows_per.min(rows - r0);
            let (gi_c, rest) = gi_rest.split_at_mut(nr * iw);
            gi_rest = rest;
            let (scratch, rest) = scratch_rest.split_at_mut(plane * ock);
            scratch_rest = rest;
            let base = r0;
            tasks.push(Box::new(move || {
                for r in 0..nr {
                    let d_row = &delta[(base + r) * ow..(base + r + 1) * ow];
                    backend::im2col_2d(d_row, oc, h, w, kernel, scratch);
                    let gi_row = &mut gi_c[r * iw..(r + 1) * iw];
                    backend::gemm_nt_serial(wflip, scratch, ock, plane, None, gi_row);
                }
            }));
            r0 += nr;
        }
        backend::run_scoped(tasks);
        grad_in
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

/// 2-D max pooling with equal window and stride.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxPool2d {
    channels: usize,
    height: usize,
    width: usize,
    window: usize,
    /// Winning input index per output element; reused across steps.
    #[serde(skip)]
    argmax: Vec<usize>,
    /// Input shape of the pending training forward (arms `backward`).
    #[serde(skip)]
    in_shape: Option<(usize, usize)>,
}

impl MaxPool2d {
    /// Creates a pooling layer for `channels` planes of `height × width`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or exceeds either spatial dimension.
    pub fn new(channels: usize, height: usize, width: usize, window: usize) -> Self {
        assert!(
            window >= 1 && window <= height && window <= width,
            "window must fit the image"
        );
        MaxPool2d {
            channels,
            height,
            width,
            window,
            argmax: Vec::new(),
            in_shape: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Pooling window (= stride).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Pooled height.
    pub fn out_height(&self) -> usize {
        self.height / self.window
    }

    /// Pooled width.
    pub fn out_w(&self) -> usize {
        self.width / self.window
    }

    /// Output width per sample.
    pub fn out_width(&self) -> usize {
        self.channels * self.out_height() * self.out_w()
    }

    /// Input width per sample.
    pub fn in_width(&self) -> usize {
        self.channels * self.height * self.width
    }
}

impl MaxPool2d {
    /// The pooling arithmetic behind both passes. `argmax`, when given,
    /// receives the winning input index of every output element.
    fn pool(&self, input: &Matrix, mut argmax: Option<&mut [usize]>) -> Matrix {
        assert_eq!(input.cols(), self.in_width(), "pool2d input width mismatch");
        let (oh, ow) = (self.out_height(), self.out_w());
        let plane = self.height * self.width;
        let out_plane = oh * ow;
        let out_w = self.out_width();
        let mut out = Matrix::zeros(input.rows(), out_w);
        for r in 0..input.rows() {
            let x = input.row(r);
            for c in 0..self.channels {
                for prow in 0..oh {
                    for pcol in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = 0usize;
                        for dr in 0..self.window {
                            for dc in 0..self.window {
                                let i = c * plane
                                    + (prow * self.window + dr) * self.width
                                    + pcol * self.window
                                    + dc;
                                if x[i] > best {
                                    best = x[i];
                                    best_i = i;
                                }
                            }
                        }
                        let o = c * out_plane + prow * ow + pcol;
                        out.set(r, o, best);
                        if let Some(am) = argmax.as_deref_mut() {
                            am[r * out_w + o] = best_i;
                        }
                    }
                }
            }
        }
        out
    }
}

impl Layer for MaxPool2d {
    fn infer(&self, input: &Matrix) -> Matrix {
        self.pool(input, None)
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut argmax = std::mem::take(&mut self.argmax);
        argmax.resize(input.rows() * self.out_width(), 0);
        let out = self.pool(input, Some(&mut argmax));
        self.argmax = argmax;
        self.in_shape = Some((input.rows(), input.cols()));
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let (rows, cols) = self
            .in_shape
            .take()
            .expect("backward without a training forward");
        let mut grad_in = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for j in 0..self.out_width() {
                let src = self.argmax[r * self.out_width() + j];
                grad_in.row_mut(r)[src] += grad_out.get(r, j);
            }
        }
        grad_in
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_reproduces_image() {
        let mut conv = Conv2d::new(1, 1, 3, 3, 3, false, 0);
        conv.weights.fill(0.0);
        let center = conv.w_index(0, 0, 1, 1);
        conv.weights[center] = 1.0; // center tap
        let x = Matrix::from_vec(1, 9, (1..=9).map(|v| v as f32).collect());
        let y = conv.infer(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn edge_pixels_see_zero_padding() {
        let mut conv = Conv2d::new(1, 1, 3, 2, 2, false, 0);
        conv.weights.fill(1.0); // sum of 3x3 neighborhood
        let x = Matrix::from_vec(1, 4, vec![1., 1., 1., 1.]);
        let y = conv.infer(&x);
        // Every output = sum of the in-bounds 2x2 = 4.
        assert_eq!(y.data(), &[4., 4., 4., 4.]);
    }

    #[test]
    fn lowered_forward_is_bit_identical_to_reference() {
        let conv = Conv2d::new(2, 3, 3, 4, 5, true, 13);
        let x = Matrix::from_vec(
            2,
            40,
            (0..80)
                .map(|i| ((i * 31 % 23) as f32 - 11.0) / 4.0)
                .collect(),
        );
        let fast = conv.infer(&x);
        let reference = conv.forward_reference(&x);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&reference));
    }

    #[test]
    fn lowered_backward_is_bit_identical_to_reference() {
        let mut conv = Conv2d::new(2, 2, 3, 3, 4, true, 7);
        let x = Matrix::from_vec(
            2,
            24,
            (0..48)
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
    fn conv2d_gradient_matches_finite_difference() {
        let mut conv = Conv2d::new(1, 2, 3, 3, 4, true, 5);
        let x = Matrix::from_vec(
            1,
            12,
            vec![
                0.5, -0.3, 0.8, 0.1, -0.2, 0.7, 0.4, -0.6, 0.9, 0.2, -0.5, 0.3,
            ],
        );
        let loss = |c: &Conv2d, x: &Matrix| -> f32 { c.infer(x).data().iter().sum() };
        let _ = conv.forward(&x);
        let ones = Matrix::from_vec(1, conv.out_width(), vec![1.0; conv.out_width()]);
        let dx = conv.backward(&ones);

        let eps = 1e-3f32;
        for idx in [0usize, 4, 10] {
            let orig = conv.weights[idx];
            conv.weights[idx] = orig + eps;
            let hi = loss(&conv, &x);
            conv.weights[idx] = orig - eps;
            let lo = loss(&conv, &x);
            conv.weights[idx] = orig;
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - conv.grad_weights[idx]).abs() < 3e-2,
                "dW[{idx}]: {numeric} vs {}",
                conv.grad_weights[idx]
            );
        }
        for idx in [2usize, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let hi = loss(&conv, &xp);
            xp.data_mut()[idx] -= 2.0 * eps;
            let lo = loss(&conv, &xp);
            let numeric = (hi - lo) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[idx]).abs() < 3e-2,
                "dx[{idx}]: {numeric} vs {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn pool2d_takes_window_maxima() {
        let pool = MaxPool2d::new(1, 4, 4, 2);
        #[rustfmt::skip]
        let x = Matrix::from_vec(1, 16, vec![
            1., 2., 5., 6.,
            3., 4., 7., 8.,
            9., 10., 13., 14.,
            11., 12., 15., 16.,
        ]);
        let y = pool.infer(&x);
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn pool2d_backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(1, 2, 2, 2);
        let x = Matrix::from_vec(1, 4, vec![1., 9., 3., 4.]);
        let _ = pool.forward(&x);
        let g = pool.backward(&Matrix::from_vec(1, 1, vec![5.0]));
        assert_eq!(g.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn pool2d_channels_are_independent() {
        let pool = MaxPool2d::new(2, 2, 2, 2);
        let x = Matrix::from_vec(1, 8, vec![1., 2., 3., 4., 8., 7., 6., 5.]);
        let y = pool.infer(&x);
        assert_eq!(y.data(), &[4., 8.]);
    }

    #[test]
    fn shapes_compose_for_cui_stack() {
        // 24x24 image -> conv(8) -> pool2 -> conv(16) -> pool2 -> 6x6x16.
        let conv1 = Conv2d::new(1, 8, 3, 24, 24, true, 0);
        assert_eq!(conv1.out_width(), 8 * 24 * 24);
        let pool1 = MaxPool2d::new(8, 24, 24, 2);
        assert_eq!(pool1.out_width(), 8 * 12 * 12);
        let conv2 = Conv2d::new(8, 16, 3, 12, 12, true, 1);
        assert_eq!(conv2.out_width(), 16 * 12 * 12);
        let pool2 = MaxPool2d::new(16, 12, 12, 2);
        assert_eq!(pool2.out_width(), 16 * 6 * 6);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_rejected() {
        let _ = Conv2d::new(1, 1, 4, 8, 8, true, 0);
    }

    #[test]
    #[should_panic(expected = "window must fit")]
    fn oversized_pool_rejected() {
        let _ = MaxPool2d::new(1, 2, 2, 3);
    }
}
