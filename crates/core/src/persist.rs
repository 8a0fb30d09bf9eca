//! Persistence for a trained [`Soteria`] system: the fitted feature
//! extractor (vocabularies + IDF), the auto-encoder with its threshold
//! statistics, and both CNNs — everything needed to deploy the system
//! without retraining.
//!
//! # On-disk format
//!
//! A [`SoteriaState`] has one on-disk form, the `SOTERIA-STATE v3` binary
//! artifact (layout and integrity contract in [`crate::artifact`]).
//! [`SoteriaState::save_to_path`] writes it via
//! [`soteria_resilience::atomic_write`] (temp file + fsync + rename), so a
//! crash mid-save leaves the previous state intact. A file loads through
//! [`StateImage::open`](crate::artifact::StateImage::open) and
//! [`Soteria::load_image`]; anything that is not a v3 artifact — a v2
//! JSON envelope, bare JSON, a truncated or bit-flipped copy — fails with
//! a typed [`StateError`].

use crate::classifier::FamilyClassifier;
use crate::config::SoteriaConfig;
use crate::detector::{AeDetector, ThresholdStats};
use crate::pipeline::Soteria;
use soteria_features::FeatureExtractor;
use soteria_nn::Sequential;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Why a persisted file failed to load (or save).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StateError {
    /// Filesystem failure, rendered.
    Io(String),
    /// The file's header (a checkpoint's envelope line, or an artifact's
    /// header / section table) is not acceptable. Carries the file offset of the
    /// offending bytes and a hex dump of what was actually found there, so
    /// a truncated copy or a wrong file is diagnosable from the message
    /// alone.
    BadHeader {
        /// Why the header is unacceptable.
        why: String,
        /// File offset of the offending bytes.
        offset: u64,
        /// The first bytes found at that offset (up to 16; rendered as hex
        /// by `Display`).
        found: Vec<u8>,
    },
    /// The envelope declares a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Newest version this build understands.
        supported: u32,
    },
    /// The payload checksum does not match the envelope — the file is
    /// truncated or corrupted.
    ChecksumMismatch {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload actually on disk.
        actual: u32,
    },
    /// The payload passed its checksum but does not describe a valid
    /// state: JSON that does not fit the schema, or shapes that do not
    /// fit together.
    Parse(String),
    /// The file ends before a structure its header declares.
    Truncated {
        /// Bytes the structure needs.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
        /// Which structure was cut short.
        what: String,
    },
    /// A binary artifact section entry is malformed (unknown kind,
    /// misaligned offset, out-of-bounds window, or a shape mismatch
    /// against the metadata).
    BadSection {
        /// Section id from the table entry.
        id: u32,
        /// What is wrong with it.
        why: String,
    },
    /// A binary artifact section's payload fails its recorded checksum.
    SectionChecksum {
        /// Section id from the table entry.
        id: u32,
        /// CRC recorded in the section table.
        expected: u32,
        /// CRC of the payload actually on disk.
        actual: u32,
    },
}

/// Renders up to 16 bytes as space-separated hex for header diagnostics.
fn hex_bytes(bytes: &[u8]) -> String {
    bytes
        .iter()
        .take(16)
        .map(|b| format!("{b:02x}"))
        .collect::<Vec<_>>()
        .join(" ")
}

impl StateError {
    /// Builds a [`StateError::BadHeader`] pointing at `offset`, capturing
    /// the first bytes found there.
    pub(crate) fn bad_header(why: impl Into<String>, offset: u64, found: &[u8]) -> Self {
        StateError::BadHeader {
            why: why.into(),
            offset,
            found: found.iter().take(16).copied().collect(),
        }
    }
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Io(why) => write!(f, "i/o error: {why}"),
            StateError::BadHeader { why, offset, found } => write!(
                f,
                "bad state header: {why} (at offset {offset}, found [{}])",
                hex_bytes(found)
            ),
            StateError::UnsupportedVersion { found, supported } => write!(
                f,
                "state format v{found} is newer than supported v{supported}"
            ),
            StateError::ChecksumMismatch { expected, actual } => write!(
                f,
                "state checksum mismatch (header {expected:08x}, payload {actual:08x}): \
                 file is truncated or corrupted"
            ),
            StateError::Parse(why) => write!(f, "state payload does not parse: {why}"),
            StateError::Truncated {
                expected,
                actual,
                what,
            } => write!(
                f,
                "state file truncated: {what} needs {expected} bytes, file has {actual}"
            ),
            StateError::BadSection { id, why } => {
                write!(f, "bad artifact section {id}: {why}")
            }
            StateError::SectionChecksum {
                id,
                expected,
                actual,
            } => write!(
                f,
                "artifact section {id} checksum mismatch (table {expected:08x}, \
                 payload {actual:08x}): the file is corrupted"
            ),
        }
    }
}

impl Error for StateError {}

/// The state of a trained system, as [`Soteria::save_state`] captures it
/// and [`Soteria::from_state`] restores it.
#[derive(Debug)]
pub struct SoteriaState {
    /// Hyperparameters the system was trained with.
    pub config: SoteriaConfig,
    /// The fitted feature extractor (vocabularies, IDF weights).
    pub extractor: FeatureExtractor,
    /// The auto-encoder weights.
    pub detector_model: Sequential,
    /// The fitted threshold statistics.
    pub detector_stats: ThresholdStats,
    /// The DBL CNN weights.
    pub dbl_cnn: Sequential,
    /// The LBL CNN weights.
    pub lbl_cnn: Sequential,
}

impl SoteriaState {
    /// Serializes to the v3 binary artifact (see
    /// [`crate::artifact`] for the layout contract).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Parse`] naming the layer if a network holds
    /// a 2-D layer, which the artifact format does not describe.
    pub fn to_artifact(&self) -> Result<Vec<u8>, StateError> {
        crate::artifact::write_artifact(self)
    }

    /// Writes the v3 artifact to `path` crash-safely (temp file + fsync +
    /// atomic rename): a crash mid-save leaves the previous file intact,
    /// never a torn one.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Io`] on filesystem failure.
    pub fn save_to_path(&self, path: &Path) -> Result<(), StateError> {
        let bytes = self.to_artifact()?;
        soteria_resilience::atomic_write(path, &bytes)
            .map_err(|e| StateError::Io(format!("{}: {e}", path.display())))
    }
}

impl Soteria {
    /// Captures the trained system's state for persistence: a clone of
    /// the extractor and of each network.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` is kept for callers that chain on it.
    pub fn save_state(&self) -> Result<SoteriaState, String> {
        Ok(SoteriaState {
            config: self.config().clone(),
            extractor: self.extractor().clone(),
            detector_model: self.detector_ref().model().clone(),
            detector_stats: self.detector_ref().stats(),
            dbl_cnn: self.classifier_ref().dbl_model().clone(),
            lbl_cnn: self.classifier_ref().lbl_model().clone(),
        })
    }

    /// Restores a system from saved state.
    pub fn from_state(state: SoteriaState) -> Self {
        let detector = AeDetector::from_parts(
            state.detector_model,
            state.detector_stats,
            state.config.detector.clone(),
        );
        let classifier = FamilyClassifier::from_parts(
            state.dbl_cnn,
            state.lbl_cnn,
            state.config.classes,
            state.config.classifier.clone(),
        );
        Soteria::from_parts(state.config, state.extractor, detector, classifier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::StateImage;

    #[test]
    fn non_artifact_files_are_rejected_with_a_typed_error() {
        // Bare JSON and a v2 envelope (the JSON format earlier releases
        // wrote) are not v3 artifacts; both fail at the magic, offset 0.
        let json = serde_json::to_string(&SoteriaConfig::tiny()).unwrap();
        let bare = format!("{{\"config\":{json}}}");
        let crc = soteria_resilience::crc32(bare.as_bytes());
        let v2 = format!("SOTERIA-STATE v2 crc32={crc:08x}\n{bare}");
        for (what, data) in [("bare JSON", &bare), ("v2 envelope", &v2)] {
            match StateImage::parse(data.as_bytes()) {
                Err(StateError::BadHeader { offset: 0, .. }) => {}
                other => panic!("{what}: expected BadHeader at offset 0, got {other:?}"),
            }
        }
        let dir = std::env::temp_dir().join(format!("soteria-bare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        std::fs::write(&path, &v2).unwrap();
        assert!(matches!(
            StateImage::open(&path),
            Err(StateError::BadHeader { offset: 0, .. })
        ));
        // Loading a missing path is an Io error, not a panic.
        assert!(matches!(
            StateImage::open(&dir.join("nope")),
            Err(StateError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
