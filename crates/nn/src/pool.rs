//! 1-D max pooling.

use crate::layer::Layer;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Max pooling with equal window and stride (the paper uses `s = m = 2`).
///
/// Input layout matches [`Conv1d`](crate::Conv1d): channel-major rows of
/// `channels · length`. Trailing elements that do not fill a window are
/// dropped (floor semantics).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxPool1d {
    channels: usize,
    length: usize,
    window: usize,
    /// Winning input index per output element; reused across steps.
    #[serde(skip)]
    argmax: Vec<usize>,
    /// Input shape of the pending training forward (arms `backward`).
    #[serde(skip)]
    in_shape: Option<(usize, usize)>,
}

impl MaxPool1d {
    /// Creates a pooling layer for `channels` signals of `length` samples,
    /// pooling `window` at a time.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or exceeds `length`.
    pub fn new(channels: usize, length: usize, window: usize) -> Self {
        assert!(
            window >= 1 && window <= length,
            "window must fit the signal"
        );
        MaxPool1d {
            channels,
            length,
            window,
            argmax: Vec::new(),
            in_shape: None,
        }
    }

    /// Pooled signal length.
    pub fn out_length(&self) -> usize {
        self.length / self.window
    }

    /// Output width per sample.
    pub fn out_width(&self) -> usize {
        self.channels * self.out_length()
    }

    /// Input width per sample.
    pub fn in_width(&self) -> usize {
        self.channels * self.length
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Signal length per channel.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Pooling window (= stride).
    pub fn window(&self) -> usize {
        self.window
    }
}

impl MaxPool1d {
    /// The pooling arithmetic behind both passes. `argmax`, when given,
    /// receives the winning input index of every output element.
    fn pool(&self, input: &Matrix, mut argmax: Option<&mut [usize]>) -> Matrix {
        assert_eq!(input.cols(), self.in_width(), "pool input width mismatch");
        let (out_l, out_w, window) = (self.out_length(), self.out_width(), self.window);
        let mut out = Matrix::zeros(input.rows(), out_w);
        for r in 0..input.rows() {
            let x = input.row(r);
            let o_row = out.row_mut(r);
            for c in 0..self.channels {
                let base = c * self.length;
                let windows = x[base..base + out_l * window].chunks_exact(window);
                let o_ch = &mut o_row[c * out_l..(c + 1) * out_l];
                for (t, (o, w)) in o_ch.iter_mut().zip(windows).enumerate() {
                    // The window's first maximum (strict `>` keeps the
                    // first of tied maxima); the paper's window 2 is one
                    // compare.
                    let k = if window == 2 {
                        usize::from(w[1] > w[0])
                    } else {
                        (1..window).fold(0, |best, i| if w[i] > w[best] { i } else { best })
                    };
                    *o = w[k];
                    if let Some(am) = argmax.as_deref_mut() {
                        am[r * out_w + c * out_l + t] = base + t * window + k;
                    }
                }
            }
        }
        out
    }
}

impl Layer for MaxPool1d {
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
    fn pools_maxima_per_window() {
        let pool = MaxPool1d::new(1, 6, 2);
        let x = Matrix::from_vec(1, 6, vec![1., 5., 2., 2., 9., 0.]);
        let y = pool.infer(&x);
        assert_eq!(y.data(), &[5., 2., 9.]);
    }

    #[test]
    fn odd_tail_is_dropped() {
        let pool = MaxPool1d::new(1, 5, 2);
        let x = Matrix::from_vec(1, 5, vec![1., 2., 3., 4., 99.]);
        let y = pool.infer(&x);
        assert_eq!(y.data(), &[2., 4.]);
        assert_eq!(pool.out_length(), 2);
    }

    #[test]
    fn channels_pool_independently() {
        let pool = MaxPool1d::new(2, 4, 2);
        let x = Matrix::from_vec(1, 8, vec![1., 2., 3., 4., 40., 30., 20., 10.]);
        let y = pool.infer(&x);
        assert_eq!(y.data(), &[2., 4., 40., 20.]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool1d::new(1, 4, 2);
        let x = Matrix::from_vec(1, 4, vec![1., 5., 7., 2.]);
        let _ = pool.forward(&x);
        let g = pool.backward(&Matrix::from_vec(1, 2, vec![10., 20.]));
        assert_eq!(g.data(), &[0., 10., 20., 0.]);
    }

    #[test]
    fn backward_ties_pick_first_max() {
        let mut pool = MaxPool1d::new(1, 2, 2);
        let x = Matrix::from_vec(1, 2, vec![3., 3.]);
        let _ = pool.forward(&x);
        let g = pool.backward(&Matrix::from_vec(1, 1, vec![1.]));
        assert_eq!(g.data(), &[1., 0.]);
    }

    #[test]
    fn pool_has_no_params() {
        let mut pool = MaxPool1d::new(4, 8, 2);
        assert_eq!(pool.param_count(), 0);
    }

    #[test]
    #[should_panic(expected = "window must fit")]
    fn oversized_window_rejected() {
        let _ = MaxPool1d::new(1, 2, 3);
    }
}
