//! Soteria: adversarial-example detection and family classification for
//! CFG-based malware classifiers.
//!
//! This crate assembles the full system of the paper from the substrate
//! crates:
//!
//! * [`soteria_features`] supplies the randomized feature pipeline
//!   (DBL/LBL labeling → random walks → n-grams → TF-IDF),
//! * [`detector`] wraps an auto-encoder trained to reconstruct *clean*
//!   feature vectors; a sample whose reconstruction RMSE exceeds
//!   `μ + α·σ` of the training errors is flagged adversarial,
//! * [`classifier`] holds the two 1-D CNNs (one per labeling) whose twenty
//!   per-walk predictions are combined by majority vote into a family
//!   label,
//! * [`pipeline`] chains them: a sample is first screened by the detector
//!   and only clean samples reach the classifier.
//!
//! [`Soteria::analyze`] (a CFG) and [`Soteria::screen_binary`] (untrusted
//! bytes) are the sequential reference; [`Soteria::screen_many_seeded`] is
//! the batch path, bit-identical per item to `screen_binary` with the same
//! seed. Its screen stage is public for callers that extract on their own
//! ([`Soteria::screen_features_batch`], with the detector-only brownout
//! tier [`Soteria::screen_features_batch_ae_only`]).
//!
//! # Example
//!
//! ```no_run
//! use soteria::{Soteria, SoteriaConfig, Verdict};
//! use soteria_corpus::{Corpus, CorpusConfig, Family};
//!
//! let corpus = Corpus::generate(&CorpusConfig::scaled(0.01, 7));
//! let split = corpus.split(0.8, 1);
//! let mut soteria =
//!     Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 42).expect("train");
//!
//! let sample = &corpus.samples()[split.test[0]];
//! match soteria.analyze(sample.graph(), 1234) {
//!     Verdict::Adversarial { reconstruction_error } => {
//!         println!("AE detected (RE = {reconstruction_error:.4})");
//!     }
//!     Verdict::Clean { family, .. } => println!("classified as {family}"),
//!     Verdict::Degraded { reason } => println!("analysis degraded: {reason}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod artifact;
pub mod checkpoint;
pub mod classifier;
pub mod config;
pub mod detector;
pub mod error;
pub mod persist;
pub mod pipeline;

pub use artifact::{SectionEntry, StateImage};
pub use checkpoint::{StageCheckpoint, TrainCheckpoint};
pub use classifier::{ClassifierReport, FamilyClassifier};
pub use config::{ClassifierConfig, DetectorConfig, SoteriaConfig};
pub use detector::AeDetector;
pub use error::TrainError;
pub use persist::{SoteriaState, StateError};
pub use pipeline::{PipelineMetrics, Soteria, StageTime, Verdict};
