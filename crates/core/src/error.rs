//! Typed errors for training and persistence.

use soteria_resilience::FaultKind;
use std::error::Error;
use std::fmt;

/// Error produced while training a [`Soteria`](crate::Soteria) system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrainError {
    /// The training split contains no samples.
    EmptySplit,
    /// A training index does not point into the corpus.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Corpus size.
        len: usize,
    },
    /// Feature extraction faulted on a training sample. Training refuses
    /// to continue on a partial split (a silently shrunken training set
    /// would skew the detector threshold).
    Extraction {
        /// Position within `train_indices`.
        index: usize,
        /// What went wrong.
        fault: FaultKind,
    },
    /// A resume checkpoint does not match this training run.
    CheckpointMismatch(String),
    /// Checkpoint persistence or model snapshotting failed.
    Internal(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptySplit => write!(f, "training split is empty"),
            TrainError::IndexOutOfRange { index, len } => {
                write!(f, "training index {index} out of range for corpus of {len}")
            }
            TrainError::Extraction { index, fault } => {
                write!(
                    f,
                    "feature extraction faulted on training sample {index}: {fault}"
                )
            }
            TrainError::CheckpointMismatch(why) => {
                write!(f, "resume checkpoint does not match this run: {why}")
            }
            TrainError::Internal(why) => write!(f, "training failed: {why}"),
        }
    }
}

impl Error for TrainError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TrainError::Extraction { fault, .. } => Some(fault),
            _ => None,
        }
    }
}

impl From<String> for TrainError {
    fn from(msg: String) -> Self {
        TrainError::Internal(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            TrainError::EmptySplit.to_string(),
            "training split is empty"
        );
        let e = TrainError::IndexOutOfRange { index: 9, len: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        let e = TrainError::Extraction {
            index: 3,
            fault: FaultKind::malformed("bad magic"),
        };
        assert!(e.to_string().contains("sample 3"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TrainError>();
        // One trained system screens from any number of threads at once.
        assert_send_sync::<crate::Soteria>();
    }
}
