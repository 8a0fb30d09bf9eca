//! Error types for the corpus crate.

use crate::isa::DecodeError;
use std::error::Error;
use std::fmt;

/// Error produced while parsing, lifting, or generating binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CorpusError {
    /// The binary image is structurally invalid.
    BadImage(&'static str),
    /// The code section failed to decode during lifting.
    Decode {
        /// Byte offset of the failing instruction.
        offset: usize,
        /// Underlying decode failure.
        source: DecodeError,
    },
    /// A branch targets a byte offset that is not an instruction boundary
    /// reachable by decoding.
    BadBranchTarget {
        /// The invalid destination.
        target: u32,
    },
    /// CFG construction failed while lifting. Lifting adds every block
    /// before any edge and dedups each block's targets itself (a `br` with
    /// equal arms is legal bytecode), so this indicates an internal
    /// inconsistency.
    Graph(soteria_cfg::CfgError),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::BadImage(why) => write!(f, "invalid binary image: {why}"),
            CorpusError::Decode { offset, source } => {
                write!(f, "decode failed at offset {offset}: {source}")
            }
            CorpusError::BadBranchTarget { target } => {
                write!(
                    f,
                    "branch target {target:#x} is not an instruction boundary"
                )
            }
            CorpusError::Graph(e) => write!(f, "graph construction failed: {e}"),
        }
    }
}

impl Error for CorpusError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CorpusError::Decode { source, .. } => Some(source),
            CorpusError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<soteria_cfg::CfgError> for CorpusError {
    fn from(e: soteria_cfg::CfgError) -> Self {
        CorpusError::Graph(e)
    }
}

impl From<CorpusError> for soteria_resilience::FaultKind {
    fn from(err: CorpusError) -> Self {
        soteria_resilience::FaultKind::malformed(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CorpusError::BadImage("bad magic");
        assert_eq!(e.to_string(), "invalid binary image: bad magic");
        let e = CorpusError::BadBranchTarget { target: 0x40 };
        assert!(e.to_string().contains("0x40"));
    }

    #[test]
    fn decode_error_chains_source() {
        let e = CorpusError::Decode {
            offset: 8,
            source: DecodeError::BadOpcode(0xFF),
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("offset 8"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CorpusError>();
    }
}
