//! The Cui et al. image-based baseline: the raw binary rendered as a
//! fixed-size grayscale image, classified by a 2-D CNN.
//!
//! Unlike Soteria's CFG features, the image representation sees *every
//! byte* of the file — so byte-appending manipulations change it, while
//! unreachable code is indistinguishable from reachable code.

use serde::{Deserialize, Serialize};
use soteria_corpus::corpus::Sample;
use soteria_corpus::Family;
use soteria_nn::{
    loss::one_hot, trainer::argmax_rows, Activation, Conv2d, Dense, Dropout, Loss, Matrix,
    MaxPool2d, Sequential, TrainConfig, Trainer,
};

/// The image sizes the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ImageSize {
    /// 24 × 24 pixels.
    S24,
    /// 48 × 48 pixels.
    S48,
    /// 96 × 96 pixels (reported to perform poorly).
    S96,
    /// 192 × 192 pixels (reported to perform poorly).
    S192,
}

impl ImageSize {
    /// Side length in pixels.
    pub fn side(self) -> usize {
        match self {
            ImageSize::S24 => 24,
            ImageSize::S48 => 48,
            ImageSize::S96 => 96,
            ImageSize::S192 => 192,
        }
    }

    /// All sizes in report order.
    pub const ALL: [ImageSize; 4] = [
        ImageSize::S24,
        ImageSize::S48,
        ImageSize::S96,
        ImageSize::S192,
    ];
}

impl std::fmt::Display for ImageSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{0}x{0}", self.side())
    }
}

/// Renders a binary image: the byte stream (including trailing bytes) is
/// resampled to `side × side` by averaging each byte bin, normalized to
/// `[0, 1]`.
pub fn binary_to_image(sample: &Sample, size: ImageSize) -> Vec<f64> {
    let bytes = sample.binary().to_bytes();
    let side = size.side();
    let pixels = side * side;
    let mut out = vec![0.0f64; pixels];
    if bytes.is_empty() {
        return out;
    }
    for (p, slot) in out.iter_mut().enumerate() {
        // Bin [start, end) of the byte stream maps to pixel p.
        let start = p * bytes.len() / pixels;
        let end = (((p + 1) * bytes.len()) / pixels)
            .max(start + 1)
            .min(bytes.len());
        let sum: u64 = bytes[start..end.max(start + 1)]
            .iter()
            .map(|&b| u64::from(b))
            .sum();
        *slot = sum as f64 / ((end - start).max(1) as f64 * 255.0);
    }
    out
}

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CuiConfig {
    /// Image resolution.
    pub size: ImageSize,
    /// Filters in the two conv blocks.
    pub filters: [usize; 2],
    /// Dense width before the softmax.
    pub dense: usize,
    /// Dropout before the softmax.
    pub dropout: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
}

impl CuiConfig {
    /// A fast configuration at the given resolution.
    pub fn at(size: ImageSize) -> Self {
        CuiConfig {
            size,
            filters: [6, 12],
            dense: 48,
            dropout: 0.25,
            epochs: 20,
            batch_size: 32,
            learning_rate: 1.5e-3,
        }
    }
}

/// The trained image-based classifier.
#[derive(Debug)]
pub struct CuiClassifier {
    model: Sequential,
    size: ImageSize,
    classes: usize,
}

impl CuiClassifier {
    /// Trains on samples + class indices.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or lengths differ.
    pub fn train(
        config: &CuiConfig,
        samples: &[&Sample],
        labels: &[usize],
        classes: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(samples.len(), labels.len(), "samples/labels mismatch");
        assert!(!samples.is_empty(), "baseline needs training samples");
        let rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| binary_to_image(s, config.size))
            .collect();
        let x = Matrix::from_rows(&rows);
        let t = one_hot(labels, classes);
        let side = config.size.side();
        let half = side / 2;
        let quarter = half / 2;
        let [f1, f2] = config.filters;
        let mut model = Sequential::new(vec![
            Conv2d::new(1, f1, 3, side, side, true, seed).into(),
            MaxPool2d::new(f1, side, side, 2).into(),
            Conv2d::new(f1, f2, 3, half, half, true, seed ^ 0x1).into(),
            MaxPool2d::new(f2, half, half, 2).into(),
            Dense::new(
                f2 * quarter * quarter,
                config.dense,
                Activation::Relu,
                seed ^ 0x2,
            )
            .into(),
            Dropout::new(config.dropout, seed ^ 0x3).into(),
            Dense::new(config.dense, classes, Activation::Linear, seed ^ 0x4).into(),
        ]);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            seed: seed ^ 0xC01,
            ..TrainConfig::default()
        });
        let _ = trainer.fit(&mut model, &x, &t, Loss::SoftmaxCrossEntropy);
        CuiClassifier {
            model,
            size: config.size,
            classes,
        }
    }

    /// Classifies one sample.
    pub fn predict(&self, sample: &Sample) -> Family {
        let row = binary_to_image(sample, self.size);
        let x = Matrix::from_rows(std::slice::from_ref(&row));
        Family::from_index(argmax_rows(&self.model.predict(&x))[0])
    }

    /// The image resolution this model uses.
    pub fn size(&self) -> ImageSize {
        self.size
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_corpus::{Corpus, CorpusConfig};

    fn corpus() -> Corpus {
        Corpus::generate(&CorpusConfig {
            counts: [14, 14, 14, 14],
            seed: 81,
            av_noise: false,
            lineages: 4,
        })
    }

    #[test]
    fn images_are_normalized_and_sized() {
        let c = corpus();
        for size in ImageSize::ALL {
            let img = binary_to_image(&c.samples()[0], size);
            assert_eq!(img.len(), size.side() * size.side());
            assert!(img.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn appended_bytes_change_the_image() {
        // The property Soteria has and image classifiers lack.
        let c = corpus();
        let s = &c.samples()[0];
        let clean = binary_to_image(s, ImageSize::S24);
        let mut binary = s.binary().clone();
        binary.append_trailing(&[0xFFu8; 4096]);
        let dirty_sample =
            soteria_corpus::SampleGenerator::lift("dirty".into(), s.family(), binary).unwrap();
        let dirty = binary_to_image(&dirty_sample, ImageSize::S24);
        assert_ne!(clean, dirty);
    }

    #[test]
    fn learns_training_data_at_24() {
        let c = corpus();
        let samples: Vec<&Sample> = c.samples().iter().collect();
        let labels: Vec<usize> = c.samples().iter().map(|s| s.family().index()).collect();
        let clf = CuiClassifier::train(&CuiConfig::at(ImageSize::S24), &samples, &labels, 4, 3);
        let correct = samples
            .iter()
            .zip(&labels)
            .filter(|(s, &l)| clf.predict(s).index() == l)
            .count();
        assert!(
            correct * 10 >= samples.len() * 6,
            "{correct}/{} on training data",
            samples.len()
        );
    }

    #[test]
    fn display_formats_sizes() {
        assert_eq!(ImageSize::S24.to_string(), "24x24");
        assert_eq!(ImageSize::S192.to_string(), "192x192");
    }

    #[test]
    fn image_of_tiny_binary_has_no_nan() {
        let c = corpus();
        let img = binary_to_image(&c.samples()[1], ImageSize::S192);
        assert!(img.iter().all(|p| p.is_finite()));
    }
}
