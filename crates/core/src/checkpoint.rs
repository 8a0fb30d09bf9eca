//! Training checkpoint/resume: kill `soteria-cli train` at any point and
//! resume to the **bit-for-bit identical** model an uninterrupted run
//! would have produced.
//!
//! # What a checkpoint carries
//!
//! Only the parts of training that accumulate state over epochs: the three
//! neural-network fits (auto-encoder, DBL CNN, LBL CNN), each as a
//! [`StageCheckpoint`]. Everything else — extractor fitting, feature
//! extraction, threshold statistics — is a deterministic function of
//! `(config, corpus, train_indices, seed)` and is simply recomputed on
//! resume. An in-flight fit stores the model weights, the optimizer
//! moments, the shuffle RNG state, and the current row permutation (the
//! per-epoch shuffle permutes the *previous* order, so the permutation is
//! part of the training state).
//!
//! Checkpoints use the same crash-safe envelope as model states
//! (`SOTERIA-CKPT v1 crc32=…` + JSON, written via atomic rename), so a
//! kill during checkpointing leaves the previous checkpoint intact.

use crate::classifier::FamilyClassifier;
use crate::config::SoteriaConfig;
use crate::detector::AeDetector;
use crate::error::TrainError;
use crate::persist::{decode_envelope, encode_envelope, StateError};
use crate::pipeline::Soteria;
use serde::{Deserialize, Serialize};
use soteria_cfg::Cfg;
use soteria_corpus::Corpus;
use soteria_features::{FeatureExtractor, Labeling, SampleFeatures};
use soteria_nn::persist::{spec_of, ModelSpec};
use soteria_nn::TrainerCheckpoint;
use std::path::Path;

/// Magic for training checkpoint files.
const CKPT_MAGIC: &str = "SOTERIA-CKPT";
/// Current checkpoint format version.
const CKPT_VERSION: u32 = 1;

/// Progress of one network fit within a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
#[allow(clippy::large_enum_variant)] // few instances, never stored in bulk
pub enum StageCheckpoint {
    /// Not started; trains from scratch.
    Pending,
    /// Mid-fit trainer state; resumes at the next epoch.
    InProgress(TrainerCheckpoint),
    /// Finished weights; the fit is skipped entirely on resume.
    Done(ModelSpec),
}

/// A resumable snapshot of an entire [`Soteria::train_resumable`] run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Master seed of the run.
    pub seed: u64,
    /// Hyperparameters of the run.
    pub config: SoteriaConfig,
    /// Corpus rows the run trains on.
    pub train_indices: Vec<usize>,
    /// Auto-encoder fit progress.
    pub detector: StageCheckpoint,
    /// DBL CNN fit progress.
    pub dbl: StageCheckpoint,
    /// LBL CNN fit progress.
    pub lbl: StageCheckpoint,
}

impl TrainCheckpoint {
    fn fresh(config: &SoteriaConfig, train_indices: &[usize], seed: u64) -> Self {
        TrainCheckpoint {
            seed,
            config: config.clone(),
            train_indices: train_indices.to_vec(),
            detector: StageCheckpoint::Pending,
            dbl: StageCheckpoint::Pending,
            lbl: StageCheckpoint::Pending,
        }
    }

    /// Serializes to the enveloped on-disk format (`SOTERIA-CKPT` header
    /// with payload CRC, then JSON).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Parse`] if serialization itself fails.
    pub fn to_envelope(&self) -> Result<String, StateError> {
        let payload = serde_json::to_string(self).map_err(|e| StateError::Parse(e.to_string()))?;
        Ok(encode_envelope(CKPT_MAGIC, CKPT_VERSION, &payload))
    }

    /// Parses the enveloped format, verifying version and checksum.
    ///
    /// # Errors
    ///
    /// Returns the specific [`StateError`] diagnosing what is wrong with
    /// the file.
    pub fn from_envelope(data: &str) -> Result<Self, StateError> {
        let payload = decode_envelope(CKPT_MAGIC, CKPT_VERSION, data)?;
        serde_json::from_str(payload).map_err(|e| StateError::Parse(e.to_string()))
    }

    /// Writes the checkpoint to `path` crash-safely (atomic rename): a
    /// kill during the write leaves the previous checkpoint intact.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Io`] on filesystem failure.
    pub fn save_to_path(&self, path: &Path) -> Result<(), StateError> {
        let enveloped = self.to_envelope()?;
        soteria_resilience::atomic_write(path, enveloped.as_bytes())
            .map_err(|e| StateError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and validates a checkpoint written by
    /// [`save_to_path`](TrainCheckpoint::save_to_path).
    ///
    /// # Errors
    ///
    /// Returns the specific [`StateError`] diagnosing what is wrong with
    /// the file.
    pub fn load_from_path(path: &Path) -> Result<Self, StateError> {
        let data = std::fs::read_to_string(path)
            .map_err(|e| StateError::Io(format!("{}: {e}", path.display())))?;
        Self::from_envelope(&data)
    }

    /// Checks that this checkpoint belongs to the run described by
    /// `(config, train_indices, seed)`.
    fn validate_against(
        &self,
        config: &SoteriaConfig,
        train_indices: &[usize],
        seed: u64,
    ) -> Result<(), TrainError> {
        if self.seed != seed {
            return Err(TrainError::CheckpointMismatch(format!(
                "checkpoint seed {} != requested seed {seed}",
                self.seed
            )));
        }
        if self.train_indices != train_indices {
            return Err(TrainError::CheckpointMismatch(format!(
                "checkpoint trains on {} rows, this run on {}",
                self.train_indices.len(),
                train_indices.len()
            )));
        }
        if &self.config != config {
            return Err(TrainError::CheckpointMismatch(
                "checkpoint hyperparameters differ from this run's config".to_string(),
            ));
        }
        Ok(())
    }
}

impl Soteria {
    /// Like [`train`](Soteria::train), but checkpointable: `sink` receives
    /// the updated [`TrainCheckpoint`] every `checkpoint_every` epochs of
    /// each network fit (and at every stage completion), and passing a
    /// previously sunk checkpoint as `resume` continues from exactly where
    /// it left off. Resumed training is **bit-for-bit identical** to an
    /// uninterrupted run: same weights, same threshold, same verdicts.
    ///
    /// Deterministic stages (extractor fit, feature extraction, threshold
    /// statistics) are recomputed rather than stored, keeping checkpoints
    /// small relative to the corpus.
    ///
    /// # Errors
    ///
    /// Fails like [`train`](Soteria::train), plus
    /// [`TrainError::CheckpointMismatch`] when `resume` belongs to a
    /// different `(config, split, seed)` and [`TrainError::Internal`] when
    /// `sink` fails (a checkpoint that cannot be persisted aborts the run
    /// rather than silently losing resumability).
    pub fn train_resumable(
        config: &SoteriaConfig,
        corpus: &Corpus,
        train_indices: &[usize],
        seed: u64,
        resume: Option<TrainCheckpoint>,
        checkpoint_every: usize,
        sink: &mut dyn FnMut(&TrainCheckpoint) -> Result<(), String>,
    ) -> Result<Self, TrainError> {
        if train_indices.is_empty() {
            return Err(TrainError::EmptySplit);
        }
        if let Some(&bad) = train_indices.iter().find(|&&i| i >= corpus.samples().len()) {
            return Err(TrainError::IndexOutOfRange {
                index: bad,
                len: corpus.samples().len(),
            });
        }
        let mut state = match resume {
            Some(ckpt) => {
                ckpt.validate_against(config, train_indices, seed)?;
                ckpt
            }
            None => TrainCheckpoint::fresh(config, train_indices, seed),
        };

        // Deterministic preamble, identical to `train_with_metrics`.
        let graphs: Vec<&Cfg> = train_indices
            .iter()
            .map(|&i| corpus.samples()[i].graph())
            .collect();
        let av_labels: Vec<usize> = train_indices
            .iter()
            .map(|&i| corpus.samples()[i].av_label().index())
            .collect();
        let extractor = FeatureExtractor::fit_stratified(
            &config.extractor,
            &graphs,
            &av_labels,
            config.classes,
            seed,
        );
        let features = extractor.extract_batch_isolated(&graphs, seed ^ 0xFEA7, &config.guards);
        let features: Vec<SampleFeatures> = features
            .into_iter()
            .enumerate()
            .map(|(index, r)| r.map_err(|fault| TrainError::Extraction { index, fault }))
            .collect::<Result<_, _>>()?;
        let combined: Vec<Vec<f64>> = features.iter().map(|f| f.combined().to_vec()).collect();
        let labels = av_labels;

        // Auto-encoder stage. The stage is moved out of `state` so the
        // sink closure below can own a mutable borrow of `state`.
        let detector_stage = std::mem::replace(&mut state.detector, StageCheckpoint::Pending);
        let detector = {
            let state = &mut state;
            AeDetector::train_balanced_resumable(
                &config.detector,
                &combined,
                &labels,
                seed ^ 0xDE7,
                detector_stage,
                checkpoint_every,
                &mut |stage| {
                    state.detector = stage;
                    sink(state)
                },
            )?
        };
        // When the stage was already Done, the sink never fired; restore
        // the finished weights into the state for subsequent checkpoints.
        if !matches!(state.detector, StageCheckpoint::Done(_)) {
            state.detector = StageCheckpoint::Done(spec_of(detector.model())?);
        }

        // CNN stages.
        let dbl_stage = std::mem::replace(&mut state.dbl, StageCheckpoint::Pending);
        let lbl_stage = std::mem::replace(&mut state.lbl, StageCheckpoint::Pending);
        let classifier = {
            let state = &mut state;
            FamilyClassifier::train_resumable(
                &config.classifier,
                &features,
                &labels,
                config.classes,
                seed ^ 0xC1F,
                [dbl_stage, lbl_stage],
                checkpoint_every,
                &mut |labeling, stage| {
                    match labeling {
                        Labeling::Density => state.dbl = stage,
                        Labeling::Level => state.lbl = stage,
                    }
                    sink(state)
                },
            )?
        };

        Ok(Soteria::from_parts(
            config.clone(),
            extractor,
            detector,
            classifier,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_corpus::CorpusConfig;

    fn tiny_setup() -> (SoteriaConfig, Corpus, Vec<usize>) {
        let corpus = Corpus::generate(&CorpusConfig {
            counts: [8, 8, 8, 8],
            seed: 91,
            av_noise: false,
            lineages: 2,
        });
        let split = corpus.split(0.8, 1);
        (SoteriaConfig::tiny(), corpus, split.train)
    }

    fn state_json(s: &Soteria) -> String {
        s.save_state().expect("state").to_json().expect("json")
    }

    #[test]
    fn resumable_without_checkpoints_matches_plain_train() {
        let (config, corpus, train) = tiny_setup();
        let plain = Soteria::train(&config, &corpus, &train, 7).expect("train");
        let resumable =
            Soteria::train_resumable(&config, &corpus, &train, 7, None, 0, &mut |_| Ok(()))
                .expect("train_resumable");
        assert_eq!(state_json(&plain), state_json(&resumable));
    }

    #[test]
    fn resume_from_any_checkpoint_is_bit_for_bit_identical() {
        let (config, corpus, train) = tiny_setup();
        let mut checkpoints: Vec<TrainCheckpoint> = Vec::new();
        let uninterrupted =
            Soteria::train_resumable(&config, &corpus, &train, 7, None, 7, &mut |ckpt| {
                checkpoints.push(ckpt.clone());
                Ok(())
            })
            .expect("uninterrupted run");
        let reference = state_json(&uninterrupted);
        // tiny(): detector 30 epochs → 4 mid-fit checkpoints + Done, each
        // CNN 20 epochs → 2 + Done. Resume from an early, a mid, and a
        // late snapshot — including envelope round-trips — and demand the
        // exact same final state every time.
        assert!(
            checkpoints.len() >= 8,
            "expected a checkpoint stream, got {}",
            checkpoints.len()
        );
        let picks = [1, checkpoints.len() / 2, checkpoints.len() - 2];
        for &pick in &picks {
            let envelope = checkpoints[pick].to_envelope().expect("envelope");
            let restored = TrainCheckpoint::from_envelope(&envelope).expect("decode");
            let resumed = Soteria::train_resumable(
                &config,
                &corpus,
                &train,
                7,
                Some(restored),
                0,
                &mut |_| Ok(()),
            )
            .expect("resumed run");
            assert_eq!(
                state_json(&resumed),
                reference,
                "resume from checkpoint {pick} diverged"
            );
        }
    }

    #[test]
    fn mismatched_resume_is_rejected() {
        let (config, corpus, train) = tiny_setup();
        let ckpt = TrainCheckpoint::fresh(&config, &train, 7);
        let err = Soteria::train_resumable(
            &config,
            &corpus,
            &train,
            8,
            Some(ckpt.clone()),
            0,
            &mut |_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::CheckpointMismatch(_)));

        let mut wrong_split = ckpt.clone();
        wrong_split.train_indices.pop();
        let err = Soteria::train_resumable(
            &config,
            &corpus,
            &train,
            7,
            Some(wrong_split),
            0,
            &mut |_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::CheckpointMismatch(_)));

        let mut wrong_config = ckpt;
        wrong_config.config.detector.epochs += 1;
        let err = Soteria::train_resumable(
            &config,
            &corpus,
            &train,
            7,
            Some(wrong_config),
            0,
            &mut |_| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, TrainError::CheckpointMismatch(_)));
    }

    #[test]
    fn failing_sink_aborts_instead_of_training_blind() {
        let (config, corpus, train) = tiny_setup();
        let err = Soteria::train_resumable(&config, &corpus, &train, 7, None, 3, &mut |_| {
            Err("disk full".to_string())
        })
        .unwrap_err();
        assert!(matches!(err, TrainError::Internal(_)));
    }

    #[test]
    fn checkpoint_envelope_rejects_corruption() {
        let (config, _, train) = tiny_setup();
        let ckpt = TrainCheckpoint::fresh(&config, &train, 3);
        let envelope = ckpt.to_envelope().expect("envelope");
        assert!(envelope.starts_with("SOTERIA-CKPT v1 crc32="));
        let mut bytes = envelope.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let corrupted = String::from_utf8(bytes).expect("utf8");
        assert!(matches!(
            TrainCheckpoint::from_envelope(&corrupted),
            Err(StateError::ChecksumMismatch { .. })
        ));
        // Like model states, checkpoints have no bare-JSON form.
        assert!(matches!(
            TrainCheckpoint::from_envelope("{}"),
            Err(StateError::BadHeader { .. })
        ));
    }
}
