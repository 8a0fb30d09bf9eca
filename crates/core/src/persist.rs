//! Persistence for a trained [`Soteria`] system: the fitted feature
//! extractor (vocabularies + IDF), the auto-encoder with its threshold
//! statistics, and both CNNs — everything needed to deploy the system
//! without retraining.
//!
//! # On-disk format
//!
//! Saved states are wrapped in a one-line envelope followed by the JSON
//! payload:
//!
//! ```text
//! SOTERIA-STATE v2 crc32=89abcdef
//! {"config":{...},...}
//! ```
//!
//! The CRC-32 covers the payload bytes, so truncation and bit rot are
//! diagnosed as [`StateError::ChecksumMismatch`] instead of a confusing
//! parse failure deep inside serde. Files are written via
//! [`soteria_resilience::atomic_write`] (temp file + fsync + rename), so a
//! crash mid-save leaves the previous state intact. Bare JSON without the
//! envelope has no checksum and is rejected with a typed [`StateError`].

use crate::classifier::FamilyClassifier;
use crate::config::SoteriaConfig;
use crate::detector::{AeDetector, ThresholdStats};
use crate::pipeline::Soteria;
use serde::{Deserialize, Serialize};
use soteria_features::FeatureExtractor;
use soteria_nn::persist::{spec_of, ModelSpec};
use std::error::Error;
use std::fmt;
use std::path::Path;

/// Magic for full-system state files.
const STATE_MAGIC: &str = "SOTERIA-STATE";
/// Current state format version.
const STATE_VERSION: u32 = 2;

/// Why a persisted file failed to load (or save).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StateError {
    /// Filesystem failure, rendered.
    Io(String),
    /// The file's header (text envelope line or binary artifact header /
    /// section table) is not acceptable. Carries the file offset of the
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
    /// The payload passed its checksum but is not valid JSON for this
    /// schema.
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

/// Wraps a JSON payload in a `MAGIC vN crc32=XXXXXXXX` envelope.
pub(crate) fn encode_envelope(magic: &str, version: u32, payload: &str) -> String {
    let crc = soteria_resilience::crc32(payload.as_bytes());
    format!("{magic} v{version} crc32={crc:08x}\n{payload}")
}

/// Validates and strips an envelope, returning the payload slice.
pub(crate) fn decode_envelope<'a>(
    magic: &str,
    supported: u32,
    data: &'a str,
) -> Result<&'a str, StateError> {
    let (header, payload) = data.split_once('\n').ok_or_else(|| {
        StateError::bad_header("missing newline after envelope header", 0, data.as_bytes())
    })?;
    let mut parts = header.split_whitespace();
    let found_magic = parts.next().unwrap_or("");
    if found_magic != magic {
        return Err(StateError::bad_header(
            format!("expected magic {magic:?}, found {found_magic:?}"),
            0,
            header.as_bytes(),
        ));
    }
    let version: u32 = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| {
            StateError::bad_header(
                "missing or malformed version field",
                magic.len() as u64 + 1,
                &header.as_bytes()[(magic.len() + 1).min(header.len())..],
            )
        })?;
    if version > supported {
        return Err(StateError::UnsupportedVersion {
            found: version,
            supported,
        });
    }
    let expected: u32 = parts
        .next()
        .and_then(|v| v.strip_prefix("crc32="))
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| {
            StateError::bad_header("missing or malformed crc32 field", 0, header.as_bytes())
        })?;
    let actual = soteria_resilience::crc32(payload.as_bytes());
    if actual != expected {
        return Err(StateError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

/// The serializable state of a trained system.
#[derive(Debug, Serialize, Deserialize)]
pub struct SoteriaState {
    /// Hyperparameters the system was trained with.
    pub config: SoteriaConfig,
    /// The fitted feature extractor (vocabularies, IDF weights).
    pub extractor: FeatureExtractor,
    /// The auto-encoder weights.
    pub detector_model: ModelSpec,
    /// The fitted threshold statistics.
    pub detector_stats: ThresholdStats,
    /// The DBL CNN weights.
    pub dbl_cnn: ModelSpec,
    /// The LBL CNN weights.
    pub lbl_cnn: ModelSpec,
}

impl SoteriaState {
    /// Serializes to JSON (the bare payload, no envelope).
    ///
    /// # Errors
    ///
    /// Propagates serde failures.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses from bare JSON.
    ///
    /// # Errors
    ///
    /// Propagates serde failures.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serializes to the enveloped on-disk format (header line with format
    /// version and payload CRC, then the JSON payload).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Parse`] if serialization itself fails.
    pub fn to_envelope(&self) -> Result<String, StateError> {
        let payload = self
            .to_json()
            .map_err(|e| StateError::Parse(e.to_string()))?;
        Ok(encode_envelope(STATE_MAGIC, STATE_VERSION, &payload))
    }

    /// Parses the enveloped format, verifying version and checksum.
    ///
    /// # Errors
    ///
    /// Returns the specific [`StateError`] diagnosing what is wrong with
    /// the file.
    pub fn from_envelope(data: &str) -> Result<Self, StateError> {
        let payload = decode_envelope(STATE_MAGIC, STATE_VERSION, data)?;
        Self::from_json(payload).map_err(|e| StateError::Parse(e.to_string()))
    }

    /// Detects the on-disk flavor and parses accordingly: a v3 binary
    /// artifact (sniffed by its 16-byte magic) or the v2 text envelope.
    ///
    /// # Errors
    ///
    /// Returns the specific [`StateError`] diagnosing what is wrong with
    /// the file.
    pub fn from_bytes(data: &[u8]) -> Result<Self, StateError> {
        if data.starts_with(crate::artifact::ARTIFACT_MAGIC) {
            return crate::artifact::StateImage::parse(data)?.to_state();
        }
        let text = std::str::from_utf8(data).map_err(|_| {
            StateError::bad_header(
                "state file is neither a v3 artifact nor UTF-8 text",
                0,
                data,
            )
        })?;
        Self::from_envelope(text)
    }

    /// Serializes to the v3 zero-copy binary artifact (see
    /// [`crate::artifact`] for the layout contract).
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Parse`] if the state contains a layer type
    /// the artifact format does not describe.
    pub fn to_artifact(&self) -> Result<Vec<u8>, StateError> {
        crate::artifact::write_artifact(self)
    }

    /// Parses a v3 artifact. The returned state's tensors borrow one
    /// aligned copy of `data`; nothing is parsed or copied per tensor.
    ///
    /// # Errors
    ///
    /// Returns the specific [`StateError`] diagnosing the corruption.
    pub fn from_artifact(data: &[u8]) -> Result<Self, StateError> {
        crate::artifact::StateImage::parse(data)?.to_state()
    }

    /// Writes the v3 artifact to `path` crash-safely (temp file + fsync +
    /// atomic rename), like [`save_to_path`](SoteriaState::save_to_path)
    /// does for the v2 envelope.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Io`] on filesystem failure.
    pub fn save_artifact_to_path(&self, path: &Path) -> Result<(), StateError> {
        let bytes = self.to_artifact()?;
        soteria_resilience::atomic_write(path, &bytes)
            .map_err(|e| StateError::Io(format!("{}: {e}", path.display())))
    }

    /// Writes the enveloped state to `path` crash-safely (temp file +
    /// fsync + atomic rename): a crash mid-save leaves the previous file
    /// intact, never a torn one.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::Io`] on filesystem failure.
    pub fn save_to_path(&self, path: &Path) -> Result<(), StateError> {
        let enveloped = self.to_envelope()?;
        soteria_resilience::atomic_write(path, enveloped.as_bytes())
            .map_err(|e| StateError::Io(format!("{}: {e}", path.display())))
    }

    /// Reads and validates a state file written by
    /// [`save_to_path`](SoteriaState::save_to_path).
    ///
    /// # Errors
    ///
    /// Returns the specific [`StateError`] diagnosing what is wrong with
    /// the file.
    pub fn load_from_path(path: &Path) -> Result<Self, StateError> {
        let data =
            std::fs::read(path).map_err(|e| StateError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&data)
    }
}

impl Soteria {
    /// Captures the trained system's state for persistence.
    ///
    /// # Errors
    ///
    /// Propagates model-extraction failures (unknown layer types cannot
    /// occur for systems built by [`Soteria::train`]).
    pub fn save_state(&self) -> Result<SoteriaState, String> {
        Ok(SoteriaState {
            config: self.config().clone(),
            extractor: self.extractor().clone(),
            detector_model: spec_of(self.detector_ref().model())?,
            detector_stats: self.detector_ref().stats(),
            dbl_cnn: spec_of(self.classifier_ref().dbl_model())?,
            lbl_cnn: spec_of(self.classifier_ref().lbl_model())?,
        })
    }

    /// Restores a system from saved state.
    pub fn from_state(state: SoteriaState) -> Self {
        let detector = AeDetector::from_parts(
            state.detector_model.into_sequential(),
            state.detector_stats,
            state.config.detector.clone(),
        );
        let classifier = FamilyClassifier::from_parts(
            state.dbl_cnn.into_sequential(),
            state.lbl_cnn.into_sequential(),
            state.config.classes,
            state.config.classifier.clone(),
        );
        Soteria::from_parts(state.config, state.extractor, detector, classifier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soteria_corpus::{Corpus, CorpusConfig};

    fn small_trained() -> (Soteria, Corpus, Vec<usize>) {
        let corpus = Corpus::generate(&CorpusConfig {
            counts: [10, 10, 10, 10],
            seed: 55,
            av_noise: false,
            lineages: 3,
        });
        let split = corpus.split(0.8, 1);
        let soteria =
            Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 5).expect("train");
        (soteria, corpus, split.test)
    }

    #[test]
    fn trained_system_round_trips_through_json() {
        let (original, corpus, test) = small_trained();

        let json = original.save_state().unwrap().to_json().unwrap();
        let restored = Soteria::from_state(SoteriaState::from_json(&json).unwrap());

        assert_eq!(
            restored.detector_ref().stats(),
            original.detector_ref().stats()
        );
        // Identical verdicts on every test sample (same walk seeds).
        for (i, &idx) in test.iter().enumerate() {
            let g = corpus.samples()[idx].graph();
            assert_eq!(
                restored.analyze(g, i as u64),
                original.analyze(g, i as u64),
                "verdict mismatch on test sample {i}"
            );
        }
    }

    #[test]
    fn int8_era_v2_state_loads_as_f32_with_identical_verdicts() {
        // States written while an 8-bit inference path existed carry a
        // `backend` config key and three calibrated-weight keys. Struct
        // fields deserialize by name, so those keys are ignored and the
        // state loads as the f32 system it always contained.
        let (original, corpus, test) = small_trained();
        let payload = original.save_state().unwrap().to_json().unwrap();
        let quant = r#"{"layers":[{"Dense":{"in_dim":2,"out_dim":1,"activation":"Relu","w":[127,-64],"scale":[0.01],"bias":[0.5],"inv_in_scale":42.0}},"Identity",{"MaxPool1d":{"channels":1,"length":2,"window":2}}]}"#;
        let body = payload
            .strip_prefix("{\"config\":{")
            .and_then(|rest| rest.strip_suffix('}'))
            .expect("payload is an object whose first field is config");
        let legacy = format!(
            "{{\"config\":{{\"backend\":\"Int8\",{body},\
             \"detector_quant\":{quant},\"dbl_quant\":{quant},\"lbl_quant\":{quant}}}"
        );
        let enveloped = encode_envelope(STATE_MAGIC, 2, &legacy);

        let state = SoteriaState::from_bytes(enveloped.as_bytes()).expect("legacy state loads");
        assert_eq!(
            state.to_json().unwrap(),
            payload,
            "removed keys leave no trace"
        );
        let restored = Soteria::from_state(state);
        for (i, &idx) in test.iter().enumerate() {
            let g = corpus.samples()[idx].graph();
            assert_eq!(
                restored.analyze(g, i as u64),
                original.analyze(g, i as u64),
                "verdict mismatch on test sample {i}"
            );
        }
    }

    #[test]
    fn state_json_is_self_describing() {
        let corpus = Corpus::generate(&CorpusConfig {
            counts: [8, 8, 8, 8],
            seed: 56,
            av_noise: false,
            lineages: 2,
        });
        let split = corpus.split(0.8, 1);
        let soteria =
            Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 6).expect("train");
        let json = soteria.save_state().unwrap().to_json().unwrap();
        assert!(json.contains("detector_stats"));
        assert!(json.contains("dbl_cnn"));
        assert!(json.len() > 10_000, "weights should dominate the payload");
    }

    #[test]
    fn envelope_round_trips() {
        let (original, ..) = small_trained();
        let state = original.save_state().unwrap();
        let enveloped = state.to_envelope().unwrap();
        assert!(enveloped.starts_with("SOTERIA-STATE v2 crc32="));
        let back = SoteriaState::from_envelope(&enveloped).unwrap();
        assert_eq!(back.detector_stats, state.detector_stats);
    }

    #[test]
    fn bare_json_is_rejected_with_a_typed_error() {
        let (original, ..) = small_trained();
        let bare = original.save_state().unwrap().to_json().unwrap();
        // Bare JSON carries no checksum, so it is not a state file.
        for data in [bare.clone(), format!("{bare}\n"), "{}".to_string()] {
            assert!(
                matches!(
                    SoteriaState::from_bytes(data.as_bytes()),
                    Err(StateError::BadHeader { .. })
                ),
                "bare JSON of {} bytes must be a typed header error",
                data.len()
            );
        }
        let dir = std::env::temp_dir().join(format!("soteria-bare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        std::fs::write(&path, &bare).unwrap();
        assert!(matches!(
            SoteriaState::load_from_path(&path),
            Err(StateError::BadHeader { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_is_diagnosed_as_checksum_mismatch() {
        let (original, ..) = small_trained();
        let enveloped = original.save_state().unwrap().to_envelope().unwrap();
        // Flip one bit somewhere inside the payload.
        let mut bytes = enveloped.into_bytes();
        let target = bytes.len() / 2;
        bytes[target] ^= 0x04;
        let corrupted = String::from_utf8(bytes).unwrap();
        match SoteriaState::from_envelope(&corrupted) {
            Err(StateError::ChecksumMismatch { expected, actual }) => {
                assert_ne!(expected, actual);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_diagnosed_as_checksum_mismatch() {
        let (original, ..) = small_trained();
        let enveloped = original.save_state().unwrap().to_envelope().unwrap();
        let truncated = &enveloped[..enveloped.len() - enveloped.len() / 3];
        assert!(matches!(
            SoteriaState::from_envelope(truncated),
            Err(StateError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn header_problems_are_typed() {
        assert!(matches!(
            SoteriaState::from_envelope("WRONG-MAGIC v2 crc32=00000000\n{}"),
            Err(StateError::BadHeader { .. })
        ));
        assert!(matches!(
            SoteriaState::from_envelope("SOTERIA-STATE v9999 crc32=00000000\n{}"),
            Err(StateError::UnsupportedVersion {
                found: 9999,
                supported: 2
            })
        ));
        assert!(matches!(
            SoteriaState::from_envelope("SOTERIA-STATE v2\n{}"),
            Err(StateError::BadHeader { .. })
        ));
        assert!(matches!(
            SoteriaState::from_envelope("no newline at all"),
            Err(StateError::BadHeader { .. })
        ));
    }

    #[test]
    fn save_and_load_through_the_filesystem() {
        let (original, corpus, test) = small_trained();
        let dir = std::env::temp_dir().join(format!("soteria-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.soteria");
        original.save_state().unwrap().save_to_path(&path).unwrap();
        let restored = Soteria::from_state(SoteriaState::load_from_path(&path).unwrap());
        let g = corpus.samples()[test[0]].graph();
        assert_eq!(restored.analyze(g, 3), original.analyze(g, 3));
        // Loading a missing path is an Io error, not a panic.
        assert!(matches!(
            SoteriaState::load_from_path(&dir.join("nope")),
            Err(StateError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
