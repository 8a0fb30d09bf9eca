//! Quickstart: train Soteria on a small synthetic corpus, then analyze a
//! clean sample, a GEA adversarial example, and a byte-appended binary.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use soteria::{Soteria, SoteriaConfig, Verdict};
use soteria_corpus::{Corpus, CorpusConfig, Family};
use soteria_gea::{append, gea_merge, SizeClass, TargetSelection};

fn main() {
    // 1. A small corpus: benign IoT builds plus three malware families,
    //    split 80/20.
    let corpus = Corpus::generate(&CorpusConfig::scaled(0.015, 42));
    let split = corpus.split(0.8, 1);
    println!(
        "corpus: {} samples, {} train / {} test",
        corpus.len(),
        split.train.len(),
        split.test.len()
    );

    // 2. Train the full system: feature extractor (DBL/LBL labeling,
    //    random walks, n-grams, TF-IDF), auto-encoder detector, and the
    //    two-CNN voting classifier.
    let soteria = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 7).expect("train");
    println!(
        "trained; detector threshold = {:.4}",
        soteria.detector_ref().stats().threshold()
    );

    // 3. Analyze a clean malware sample from the test split.
    let mirai = corpus
        .of_class(&split.test, Family::Mirai)
        .first()
        .copied()
        .expect("test split has Mirai samples")
        .clone();
    match soteria.analyze(mirai.graph(), 100) {
        Verdict::Clean { family, report, .. } => {
            println!(
                "clean sample {} -> {family} (votes: {:?})",
                mirai.name(),
                report.votes
            );
        }
        Verdict::Adversarial {
            reconstruction_error,
        } => println!(
            "clean sample {} flagged as AE (RE {reconstruction_error:.4})",
            mirai.name()
        ),
        Verdict::Degraded { reason } => {
            println!("clean sample {} degraded: {reason}", mirai.name())
        }
    }

    // 4. Attack it with GEA: embed a large benign target so a CFG-based
    //    classifier would lean benign — Soteria's detector should flag it.
    let selection = TargetSelection::select(&corpus);
    let target = selection
        .target(Family::Benign, SizeClass::Large)
        .expect("benign targets exist");
    let target_sample = selection.sample(&corpus, target);
    let ae = gea_merge(&mirai, target_sample).expect("merge");
    match soteria.analyze(ae.sample().graph(), 200) {
        Verdict::Adversarial {
            reconstruction_error,
        } => println!(
            "GEA example {} detected (RE {reconstruction_error:.4})",
            ae.sample().name()
        ),
        Verdict::Clean { family, .. } => {
            println!("GEA example slipped through, classified {family}")
        }
        Verdict::Degraded { reason } => println!("GEA example degraded: {reason}"),
    }

    // 5. Byte-appending (the paper's *impractical* AE): the appended bytes
    //    are unreachable, so the features — and the verdict — are
    //    unchanged.
    let appended = append::append_trailing_bytes(&mirai, 4096, 3).expect("append");
    let verdict = soteria.analyze(appended.graph(), 100);
    match verdict {
        Verdict::Clean { family, .. } => println!(
            "byte-appended copy still classified {family} (features ignore appended bytes)"
        ),
        Verdict::Adversarial { .. } => println!("byte-appended copy flagged (unexpected)"),
        Verdict::Degraded { reason } => println!("byte-appended copy degraded: {reason}"),
    }
}
