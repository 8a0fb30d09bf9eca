//! Inverted dropout.

use crate::layer::Layer;
use crate::matrix::Matrix;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`; at inference the
/// layer is the identity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dropout {
    p: f64,
    seed: u64,
    /// Training-forward count; serialized (defaulting to 0 for states saved
    /// before it was) so a resumed model continues the same mask stream.
    #[serde(default)]
    draws: u64,
    #[serde(skip)]
    mask: Option<Vec<f32>>,
    /// Retired mask buffer, recycled by the next forward pass.
    #[serde(skip)]
    spare: Vec<f32>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "drop probability must be in [0, 1)"
        );
        Dropout {
            p,
            seed,
            draws: 0,
            mask: None,
            spare: Vec::new(),
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f64 {
        self.p
    }

    /// The mask-stream seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Training forwards taken so far (the mask-stream position).
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Rebuilds a layer mid-stream: a resumed or artifact-loaded model
    /// continues the identical mask sequence.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ p < 1`.
    pub fn from_parts(p: f64, seed: u64, draws: u64) -> Self {
        let mut d = Dropout::new(p, seed);
        d.draws = draws;
        d
    }
}

impl Layer for Dropout {
    fn infer(&self, input: &Matrix) -> Matrix {
        input.clone()
    }

    fn forward(&mut self, input: &Matrix) -> Matrix {
        if self.p == 0.0 {
            return input.clone();
        }
        // A fresh, deterministic stream per forward pass.
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(self.draws));
        self.draws += 1;
        let keep = 1.0 - self.p;
        let scale = (1.0 / keep) as f32;
        // `gen_bool(keep)` is `(next_u64() >> 11) as f64 · 2⁻⁵³ < keep`;
        // the conversion and the power-of-two scale are both exact, so the
        // test equals the integer compare `(x >> 11) < ⌈keep · 2⁵³⌉` — one
        // u64 draw per element as before, identical booleans, no per-draw
        // float conversion.
        let thresh = (keep * 9_007_199_254_740_992.0).ceil() as u64;
        // Reuse last step's mask buffer and build mask + output in one pass
        // (same per-element draw order, so the mask stream is unchanged).
        let mut mask = self
            .mask
            .take()
            .unwrap_or_else(|| std::mem::take(&mut self.spare));
        mask.resize(input.data().len(), 0.0);
        let mut out = input.clone();
        for (o, m) in out.data_mut().iter_mut().zip(mask.iter_mut()) {
            *m = if (rng.next_u64() >> 11) < thresh {
                scale
            } else {
                0.0
            };
            *o *= *m;
        }
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        if let Some(mask) = self.mask.take() {
            for (gi, &m) in g.data_mut().iter_mut().zip(&mask) {
                *gi *= m;
            }
            self.spare = mask;
        }
        g
    }

    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_is_identity() {
        let d = Dropout::new(0.5, 0);
        let x = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(d.infer(&x), x);
    }

    #[test]
    fn training_zeroes_roughly_p_fraction() {
        let mut d = Dropout::new(0.25, 1);
        let x = Matrix::from_vec(1, 4000, vec![1.0; 4000]);
        let y = d.forward(&x);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.05, "dropped {frac}");
        // Survivors are scaled by 1/(1-p).
        let survivor = y.data().iter().find(|&&v| v != 0.0).unwrap();
        assert!((survivor - 1.0 / 0.75).abs() < 1e-6);
    }

    #[test]
    fn expected_value_is_preserved() {
        let mut d = Dropout::new(0.5, 2);
        let x = Matrix::from_vec(1, 10_000, vec![1.0; 10_000]);
        let y = d.forward(&x);
        let mean: f32 = y.data().iter().sum::<f32>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Matrix::from_vec(1, 8, vec![1.0; 8]);
        let y = d.forward(&x);
        let g = d.backward(&Matrix::from_vec(1, 8, vec![1.0; 8]));
        // The gradient is zero exactly where the output was zero.
        for (gy, gg) in y.data().iter().zip(g.data()) {
            assert_eq!(*gy == 0.0, *gg == 0.0);
        }
    }

    #[test]
    fn mask_stream_matches_gen_bool_reference() {
        use rand::Rng;
        let mut d = Dropout::new(0.3, 11);
        let x = Matrix::from_vec(1, 512, vec![1.0; 512]);
        let y = d.forward(&x);
        // Replay the draws through `gen_bool` itself: the integer-threshold
        // fast path must produce the identical mask.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let keep = 1.0 - d.probability();
        let scale = (1.0 / keep) as f32;
        for (i, &v) in y.data().iter().enumerate() {
            let expect = if rng.gen_bool(keep) { scale } else { 0.0 };
            assert_eq!(v.to_bits(), expect.to_bits(), "element {i}");
        }
    }

    #[test]
    fn successive_passes_use_fresh_masks() {
        let mut d = Dropout::new(0.5, 4);
        let x = Matrix::from_vec(1, 64, vec![1.0; 64]);
        let a = d.forward(&x);
        let _ = d.backward(&x);
        let b = d.forward(&x);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_probability_is_identity_even_in_training() {
        let mut d = Dropout::new(0.0, 5);
        let x = Matrix::from_vec(1, 4, vec![1., 2., 3., 4.]);
        assert_eq!(d.forward(&x), x);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn p_of_one_is_rejected() {
        let _ = Dropout::new(1.0, 0);
    }
}
