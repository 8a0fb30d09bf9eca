//! Graph Embedding and Augmentation (GEA): the adversarial-example attack
//! Soteria defends against.
//!
//! GEA (Abusnaina et al., reference \[9\] in the paper) merges the code of an original
//! sample with the code of a *target* sample — a sample of the class the
//! adversary wants the classifier to output — through a shared entry block
//! and a shared exit block, arranged so that only the original branch ever
//! executes. The result is a *practical* adversarial example: executable,
//! functionality-preserving, and with a genuinely different CFG (both
//! subgraphs are reachable).
//!
//! This crate provides:
//!
//! * [`merge`] — the CFG-level GEA combination,
//! * [`selection`] — the paper's target-sample selection protocol
//!   (small/median/large by node count, per class),
//! * [`append`] — the binary-level byte-appending manipulations the paper
//!   classifies as *impractical* AEs (unreachable, therefore invisible to
//!   CFG features).
//!
//! This crate is the low-level GEA implementation. The `soteria-attacks`
//! crate subsumes it behind the general `Attack` trait (alongside sub-CFG
//! injection, feature mimicry, and detector-aware adaptive attacks) —
//! harnesses and evaluations should go through that trait; the functions
//! here remain the byte-exact ground truth the wrappers are tested
//! against.
//!
//! # Example
//!
//! ```
//! use soteria_corpus::{Family, SampleGenerator};
//! use soteria_gea::merge;
//!
//! let mut gen = SampleGenerator::new(3);
//! let original = gen.generate(Family::Mirai);
//! let target = gen.generate(Family::Benign);
//!
//! let ae = merge::gea_merge(&original, &target).expect("merge");
//! let merged = ae.sample().graph();
//! // Shared entry + shared exit + both graphs.
//! assert_eq!(
//!     merged.node_count(),
//!     original.graph().node_count() + target.graph().node_count() + 2
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod adaptive;
pub mod append;
pub mod merge;
pub mod selection;

pub use merge::gea_merge;
pub use selection::{SizeClass, TargetSelection};
