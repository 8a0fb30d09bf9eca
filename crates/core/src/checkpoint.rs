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
//! resume. An in-flight fit stores the model weights, Adam's step count
//! and moments, the shuffle RNG state, and the current row permutation
//! (the per-epoch shuffle permutes the *previous* order, so the
//! permutation is part of the training state). Adam's β₁, β₂ and ε are
//! constants in code, not checkpoint state, so no checkpoint can change
//! them. Snapshots are clones of the network and of its optimizer, so a
//! run that writes no checkpoint pays a memory copy per network, never a
//! serialization.
//!
//! # Resuming
//!
//! `Soteria::train_resumable` runs the same training body as
//! `Soteria::train`, starting each network fit from its stage. Before any
//! network trains, every stage must fit the run
//! (`StageCheckpoint::check_fits`): finished weights must have the
//! architecture the config builds, and an in-flight fit must also have
//! optimizer buffers of its parameters' lengths and a row order that is a
//! permutation of the fit's rows. A checkpoint that does not fit is a
//! [`TrainError::CheckpointMismatch`] naming the stage; resumed, it would
//! panic mid-run or silently train a different model.
//!
//! # On-disk format
//!
//! A checkpoint is a one-line envelope followed by the JSON payload:
//!
//! ```text
//! SOTERIA-CKPT v1 crc32=89abcdef
//! {"seed":7,...}
//! ```
//!
//! The CRC-32 covers the payload bytes, so truncation and bit rot are
//! diagnosed as [`StateError::ChecksumMismatch`] instead of a confusing
//! parse failure deep inside serde. Files are written via atomic rename,
//! so a kill during checkpointing leaves the previous checkpoint intact.
//! Bare JSON without the envelope, and any file that does not open with
//! the `SOTERIA-CKPT` magic (a model artifact, say), is rejected with a
//! typed [`StateError::BadHeader`].

use crate::config::SoteriaConfig;
use crate::error::TrainError;
use crate::persist::StateError;
use serde::{Deserialize, Serialize};
use soteria_nn::{Loss, Matrix, Sequential, TrainConfig, Trainer, TrainerCheckpoint};
use std::path::Path;

/// Magic for training checkpoint files.
const CKPT_MAGIC: &str = "SOTERIA-CKPT";
/// Current checkpoint format version.
const CKPT_VERSION: u32 = 1;

/// Validates and strips the envelope, returning the payload text. The
/// file is read as bytes, so a wrong magic or a header that is not text is
/// a [`StateError::BadHeader`] with its offset, not an I/O error.
fn decode_envelope(data: &[u8]) -> Result<&str, StateError> {
    let magic = format!("{CKPT_MAGIC} ");
    if !data.starts_with(magic.as_bytes()) {
        return Err(StateError::bad_header(
            format!("expected magic {CKPT_MAGIC:?}"),
            0,
            data,
        ));
    }
    let newline = data
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| StateError::bad_header("missing newline after envelope header", 0, data))?;
    let (header, payload) = (&data[..newline], &data[newline + 1..]);
    let header = std::str::from_utf8(header).map_err(|e| {
        let at = e.valid_up_to();
        StateError::bad_header("envelope header is not text", at as u64, &data[at..])
    })?;
    let mut fields = header[magic.len()..].split_whitespace();
    let version: u32 = fields
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| {
            StateError::bad_header(
                "missing or malformed version field",
                magic.len() as u64,
                &data[magic.len()..],
            )
        })?;
    if version > CKPT_VERSION {
        return Err(StateError::UnsupportedVersion {
            found: version,
            supported: CKPT_VERSION,
        });
    }
    let expected: u32 = fields
        .next()
        .and_then(|v| v.strip_prefix("crc32="))
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| {
            StateError::bad_header("missing or malformed crc32 field", 0, header.as_bytes())
        })?;
    let actual = soteria_resilience::crc32(payload);
    if actual != expected {
        return Err(StateError::ChecksumMismatch { expected, actual });
    }
    std::str::from_utf8(payload)
        .map_err(|e| StateError::Parse(format!("payload is not UTF-8: {e}")))
}

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
    Done(Sequential),
}

impl StageCheckpoint {
    /// Checks, before any training, that this progress fits the network
    /// fit `plan` describes: the network the run builds and its number of
    /// training rows (`plan` runs only for a stage that is not
    /// `Pending`). An in-flight fit must pass
    /// [`TrainerCheckpoint::check_fits`]; finished weights must have the
    /// built network's architecture.
    pub(crate) fn check_fits(
        &self,
        plan: impl FnOnce() -> (Sequential, usize),
    ) -> Result<(), String> {
        match self {
            StageCheckpoint::Pending => Ok(()),
            StageCheckpoint::InProgress(tc) => {
                let (mut network, rows) = plan();
                tc.check_fits(&mut network, rows)
            }
            StageCheckpoint::Done(done) => done.check_architecture(&plan().0),
        }
    }

    /// Runs one network fit from this progress: `Done` restores the
    /// finished weights into `network` without training, `InProgress`
    /// resumes at the next epoch, and `Pending` trains `network` from
    /// scratch. `sink` receives `InProgress` every `checkpoint_every`
    /// epochs and `Done` when the fit completes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fit(
        self,
        network: &mut Sequential,
        inputs: &Matrix,
        targets: &Matrix,
        loss: Loss,
        train: TrainConfig,
        checkpoint_every: usize,
        sink: &mut dyn FnMut(StageCheckpoint) -> Result<(), String>,
    ) -> Result<(), String> {
        let resume = match self {
            StageCheckpoint::Done(done) => {
                *network = done;
                return Ok(());
            }
            StageCheckpoint::InProgress(tc) => Some(tc),
            StageCheckpoint::Pending => None,
        };
        Trainer::new(train).fit_resumable(
            network,
            inputs,
            targets,
            loss,
            resume,
            checkpoint_every,
            &mut |tc| sink(StageCheckpoint::InProgress(tc)),
        )?;
        sink(StageCheckpoint::Done(network.clone()))
    }
}

/// A resumable snapshot of an entire
/// [`Soteria::train_resumable`](crate::Soteria::train_resumable) run.
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
    /// The state of a run that has trained nothing yet.
    pub(crate) fn fresh(config: &SoteriaConfig, train_indices: &[usize], seed: u64) -> Self {
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
        let crc = soteria_resilience::crc32(payload.as_bytes());
        Ok(format!(
            "{CKPT_MAGIC} v{CKPT_VERSION} crc32={crc:08x}\n{payload}"
        ))
    }

    /// Parses the enveloped format, verifying magic, version and
    /// checksum.
    ///
    /// # Errors
    ///
    /// Returns the specific [`StateError`] diagnosing what is wrong with
    /// the file.
    pub fn from_envelope(data: &[u8]) -> Result<Self, StateError> {
        let payload = decode_envelope(data)?;
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
        let data =
            std::fs::read(path).map_err(|e| StateError::Io(format!("{}: {e}", path.display())))?;
        Self::from_envelope(&data)
    }

    /// Checks that this checkpoint belongs to the run described by
    /// `(config, train_indices, seed)`.
    pub(crate) fn validate_against(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Soteria;
    use soteria_corpus::{Corpus, CorpusConfig};

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

    /// The trained system's v3 artifact: equal bytes mean equal weights,
    /// threshold and vocabularies, bit for bit.
    fn state_bytes(s: &Soteria) -> Vec<u8> {
        s.save_state()
            .expect("state")
            .to_artifact()
            .expect("artifact")
    }

    #[test]
    fn resumable_without_checkpoints_matches_plain_train() {
        let (config, corpus, train) = tiny_setup();
        let plain = Soteria::train(&config, &corpus, &train, 7).expect("train");
        let resumable =
            Soteria::train_resumable(&config, &corpus, &train, 7, None, 0, &mut |_| Ok(()))
                .expect("train_resumable");
        assert_eq!(state_bytes(&plain), state_bytes(&resumable));
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
        let reference = state_bytes(&uninterrupted);
        // tiny(): detector 30 epochs → 4 mid-fit checkpoints + Done, each
        // CNN 20 epochs → 2 + Done. Resume from an early, a mid, and a
        // late snapshot — including envelope round-trips — and demand the
        // exact same final state every time.
        assert!(
            checkpoints.len() >= 8,
            "expected a checkpoint stream, got {}",
            checkpoints.len()
        );
        // The resumed run's last checkpoint must equal the uninterrupted
        // run's too: a stage restored as `Done` stays `Done` in every
        // checkpoint after it.
        let last = checkpoints
            .last()
            .map(|c| c.to_envelope().expect("envelope"));
        let picks = [1, checkpoints.len() / 2, checkpoints.len() - 2];
        for &pick in &picks {
            let envelope = checkpoints[pick].to_envelope().expect("envelope");
            let restored = TrainCheckpoint::from_envelope(envelope.as_bytes()).expect("decode");
            let mut resumed_last = None;
            let resumed = Soteria::train_resumable(
                &config,
                &corpus,
                &train,
                7,
                Some(restored),
                7,
                &mut |ckpt| {
                    resumed_last = Some(ckpt.to_envelope().expect("envelope"));
                    Ok(())
                },
            )
            .expect("resumed run");
            assert_eq!(
                state_bytes(&resumed),
                reference,
                "resume from checkpoint {pick} diverged"
            );
            assert!(
                resumed_last == last,
                "checkpoint {pick}: last checkpoint differs"
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

    /// The run's state at the first checkpoint `pick` accepts (every 7
    /// epochs); the run stops there.
    fn first_checkpoint(pick: impl Fn(&TrainCheckpoint) -> bool) -> TrainCheckpoint {
        let (config, corpus, train) = tiny_setup();
        let mut found = None;
        let _ = Soteria::train_resumable(&config, &corpus, &train, 7, None, 7, &mut |ckpt| {
            if !pick(ckpt) {
                return Ok(());
            }
            found = Some(ckpt.clone());
            Err("stop".to_string())
        });
        found.expect("the run reaches the picked checkpoint")
    }

    fn detector_in_progress(ckpt: &TrainCheckpoint) -> bool {
        matches!(ckpt.detector, StageCheckpoint::InProgress(_))
    }

    /// Resumes from `ckpt` after an envelope round trip (a valid CRC), as
    /// `soteria-cli train --resume` does, and expects a refusal naming
    /// `stage`: no panic, and no model trained from a misfit state.
    fn assert_resume_refused(ckpt: &TrainCheckpoint, stage: &str) {
        let (config, corpus, train) = tiny_setup();
        let envelope = ckpt.to_envelope().expect("envelope");
        let restored = TrainCheckpoint::from_envelope(envelope.as_bytes()).expect("decode");
        let resumed =
            Soteria::train_resumable(&config, &corpus, &train, 7, Some(restored), 0, &mut |_| {
                Ok(())
            });
        match resumed {
            Err(TrainError::CheckpointMismatch(why)) => {
                assert!(why.starts_with(stage), "{why}");
            }
            other => panic!(
                "expected a mismatch naming {stage}, got {:?}",
                other.map(|_| "a trained model")
            ),
        }
    }

    #[test]
    fn resume_refuses_a_cnn_in_the_detector_slot() {
        // The DBL CNN saved as the detector: resumed, its first conv layer
        // met the auto-encoder's feature rows and panicked.
        let mut ckpt = first_checkpoint(|c| matches!(c.dbl, StageCheckpoint::Done(_)));
        ckpt.detector = ckpt.dbl.clone();
        assert_resume_refused(&ckpt, "detector stage");
    }

    #[test]
    fn resume_refuses_an_out_of_range_row_order() {
        let mut ckpt = first_checkpoint(detector_in_progress);
        let StageCheckpoint::InProgress(tc) = &mut ckpt.detector else {
            unreachable!("picked in progress")
        };
        tc.order[0] = tc.order.len() + 3;
        assert_resume_refused(&ckpt, "detector stage");
    }

    #[test]
    fn resume_refuses_a_row_order_that_repeats_a_row() {
        // Resumed, it trained to completion on the wrong rows.
        let mut ckpt = first_checkpoint(detector_in_progress);
        let StageCheckpoint::InProgress(tc) = &mut ckpt.detector else {
            unreachable!("picked in progress")
        };
        tc.order[1] = tc.order[0];
        assert_resume_refused(&ckpt, "detector stage");
    }

    /// The value at `path` (object keys and array indices) in `tree`.
    fn value_at<'a>(tree: &'a mut serde::Value, path: &[&str]) -> &'a mut serde::Value {
        path.iter().fold(tree, |v, key| match v {
            serde::Value::Object(fields) => {
                &mut fields.iter_mut().find(|(k, _)| k == key).expect("field").1
            }
            serde::Value::Array(items) => &mut items[key.parse::<usize>().expect("index")],
            other => panic!("no {key} in a {}", other.kind()),
        })
    }

    #[test]
    fn resume_refuses_a_short_optimizer_moment() {
        // Resumed, the Adam step skipped the weights past the short
        // moment's end and trained to a different model.
        let ckpt = first_checkpoint(detector_in_progress);
        let mut tree = serde::Serialize::to_value(&ckpt);
        let path = ["detector", "InProgress", "optimizer", "moments", "0", "0"];
        let serde::Value::Array(values) = value_at(&mut tree, &path) else {
            panic!("a moment is an array")
        };
        values.pop();
        let short: TrainCheckpoint = serde::Deserialize::from_value(&tree).expect("still parses");
        assert_resume_refused(&short, "detector stage");
    }

    #[test]
    fn a_checkpoint_cannot_change_adams_hyperparameters() {
        // A resealed checkpoint that names its own β₁ once resumed with it
        // and trained a different model. β₁ is a constant now: the resumed
        // run ends at the uninterrupted run's model.
        let ckpt = first_checkpoint(detector_in_progress);
        let mut tree = serde::Serialize::to_value(&ckpt);
        let serde::Value::Object(adam) =
            value_at(&mut tree, &["detector", "InProgress", "optimizer"])
        else {
            panic!("the optimizer is an object")
        };
        adam.insert(0, ("beta1".to_string(), serde::Value::Float(0.5)));
        let payload = serde_json::to_string(&tree).expect("serializes");
        assert!(payload.contains("\"beta1\":0.5"), "{payload}");
        let crc = soteria_resilience::crc32(payload.as_bytes());
        let envelope = format!("{CKPT_MAGIC} v{CKPT_VERSION} crc32={crc:08x}\n{payload}");
        let edited = TrainCheckpoint::from_envelope(envelope.as_bytes()).expect("decode");

        let (config, corpus, train) = tiny_setup();
        let resumed = Soteria::train_resumable(
            &config,
            &corpus,
            &train,
            7,
            Some(edited),
            0,
            &mut |_| Ok(()),
        )
        .expect("resumed run");
        let uninterrupted = Soteria::train(&config, &corpus, &train, 7).expect("train");
        assert_eq!(state_bytes(&resumed), state_bytes(&uninterrupted));
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
        // A flipped bit inside the payload.
        let mut bytes = envelope.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        match TrainCheckpoint::from_envelope(&bytes) {
            Err(StateError::ChecksumMismatch { expected, actual }) => {
                assert_ne!(expected, actual);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // A truncated copy.
        let truncated = &envelope.as_bytes()[..envelope.len() - envelope.len() / 3];
        assert!(matches!(
            TrainCheckpoint::from_envelope(truncated),
            Err(StateError::ChecksumMismatch { .. })
        ));
        // Checkpoints have no bare-JSON form.
        assert!(matches!(
            TrainCheckpoint::from_envelope(b"{}"),
            Err(StateError::BadHeader { .. })
        ));
    }

    #[test]
    fn header_problems_are_typed() {
        for header in [
            &b"WRONG-MAGIC v1 crc32=00000000\n{}"[..],
            b"SOTERIA-CKPT v1\n{}",
            b"SOTERIA-CKPT vX crc32=00000000\n{}",
            b"SOTERIA-CKPT v1 crc32=00000000 no newline at all",
            b"SOTERIA-CKPT v1 \xff\xfe\n{}",
        ] {
            assert!(
                matches!(
                    TrainCheckpoint::from_envelope(header),
                    Err(StateError::BadHeader { .. })
                ),
                "{}",
                String::from_utf8_lossy(header)
            );
        }
        assert!(matches!(
            TrainCheckpoint::from_envelope(b"SOTERIA-CKPT v9999 crc32=00000000\n{}"),
            Err(StateError::UnsupportedVersion {
                found: 9999,
                supported: 1
            })
        ));
    }

    #[test]
    fn resuming_from_a_model_artifact_is_a_bad_header() {
        // A model file passed where a checkpoint belongs: the binary
        // artifact fails at the magic, not as an I/O error.
        let (config, corpus, train) = tiny_setup();
        let model = Soteria::train(&config, &corpus, &train, 7).expect("train");
        let dir = std::env::temp_dir().join(format!("soteria-ckpt-model-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("model.sot3");
        model
            .save_state()
            .expect("state")
            .save_to_path(&path)
            .expect("save");
        let err = TrainCheckpoint::load_from_path(&path).expect_err("a model is not a checkpoint");
        assert!(
            matches!(err, StateError::BadHeader { offset: 0, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("SOTERIA-CKPT"), "{err}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
