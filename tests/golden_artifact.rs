//! Golden layout fixture for the `SOTERIA-STATE v3` artifact.
//!
//! A committed fixture (`tests/fixtures/golden_artifact.json`) pins, for a
//! seeded trained model, the exact byte layout of its exported artifact:
//! every section's kind/element/offset/length and CRC-32, plus the CRC-32
//! of the whole file. Any drift — a reordered section, a changed META
//! field, an alignment change, a new tensor — fails this test loudly. If
//! the drift is *intentional* (a format revision, not an accident),
//! regenerate the fixture with:
//!
//! ```text
//! SOTERIA_BLESS=1 cargo test --test golden_artifact
//! ```
//!
//! The artifact is native-endian by design (it targets the machine that
//! memory-maps it), so the pinned CRCs are only meaningful on the
//! little-endian machines everything runs on; the test is a no-op
//! elsewhere rather than a false alarm.

use serde::{Deserialize, Serialize};
use soteria::{Soteria, SoteriaConfig};
use soteria_corpus::{Corpus, CorpusConfig};
use soteria_resilience::crc32;
use std::path::PathBuf;

const CORPUS_SEED: u64 = 91;
const TRAIN_SEED: u64 = 7;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct ArtifactFixture {
    corpus_seed: u64,
    train_seed: u64,
    total_len: u64,
    artifact_crc32: u32,
    sections: Vec<SectionFixture>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct SectionFixture {
    id: u32,
    kind: u32,
    elem: u32,
    offset: u64,
    len: u64,
    crc32: u32,
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_artifact.json")
}

fn compute_current() -> ArtifactFixture {
    let corpus = Corpus::generate(&CorpusConfig {
        counts: [8, 8, 8, 8],
        seed: CORPUS_SEED,
        av_noise: false,
        lineages: 2,
    });
    let split = corpus.split(0.8, 1);
    let soteria =
        Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, TRAIN_SEED).expect("train");
    let artifact = soteria
        .save_state()
        .expect("save state")
        .to_artifact()
        .expect("v3 artifact");
    let image = soteria::StateImage::parse(&artifact).expect("v3 parse");

    ArtifactFixture {
        corpus_seed: CORPUS_SEED,
        train_seed: TRAIN_SEED,
        total_len: artifact.len() as u64,
        artifact_crc32: crc32(&artifact),
        sections: image
            .sections()
            .iter()
            .map(|s| SectionFixture {
                id: s.id,
                kind: s.kind,
                elem: s.elem,
                offset: s.offset,
                len: s.len,
                crc32: s.crc,
            })
            .collect(),
    }
}

#[test]
fn artifact_layout_matches_committed_golden_fixture() {
    if cfg!(target_endian = "big") {
        eprintln!("skipping: the fixture pins the little-endian layout");
        return;
    }
    let current = compute_current();
    let path = fixture_path();

    if std::env::var("SOTERIA_BLESS").is_ok() {
        let json = serde_json::to_string_pretty(&current).expect("serialize fixture");
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, json + "\n").expect("write fixture");
        eprintln!("blessed artifact fixture at {}", path.display());
        return;
    }

    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing artifact fixture {} ({e}); generate it with \
             `SOTERIA_BLESS=1 cargo test --test golden_artifact`",
            path.display()
        )
    });
    let recorded: ArtifactFixture = serde_json::from_str(&raw).expect("parse artifact fixture");

    assert_eq!(
        recorded,
        current,
        "ARTIFACT LAYOUT DRIFT: the v3 exporter no longer reproduces the \
         committed section layout in {}. The artifact must stay a pure \
         function of the trained state; if this drift is intentional (a \
         format revision), bump the version handling, re-bless with \
         `SOTERIA_BLESS=1 cargo test --test golden_artifact`, and explain \
         it in the commit message.",
        fixture_path().display()
    );
}
