//! Sweep the detector's α threshold on a small corpus and print the two
//! error curves of Fig. 13 (clean false positives vs adversarial misses).
//!
//! ```text
//! cargo run --release --example detector_sweep
//! ```

use soteria::{Soteria, SoteriaConfig};
use soteria_corpus::{Corpus, CorpusConfig, Family};
use soteria_gea::{gea_merge, SizeClass, TargetSelection};

fn main() {
    let corpus = Corpus::generate(&CorpusConfig::scaled(0.015, 11));
    let split = corpus.split(0.8, 2);
    let soteria = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, 3).expect("train");
    let stats = soteria.detector_ref().stats();
    println!(
        "clean-training RE: mu {:.4}, sigma {:.4}",
        stats.mean, stats.std_dev
    );

    // Clean REs from the test split.
    let clean_res: Vec<f64> = split
        .test
        .iter()
        .enumerate()
        .map(|(i, &idx)| {
            let f = soteria.features(corpus.samples()[idx].graph(), 500 + i as u64);
            soteria.detector_ref().reconstruction_error(f.combined())
        })
        .collect();

    // AE REs: GEA with the large benign target over all malware test
    // samples.
    let selection = TargetSelection::select(&corpus);
    let target = selection
        .sample(
            &corpus,
            selection
                .target(Family::Benign, SizeClass::Large)
                .expect("benign target"),
        )
        .clone();
    let ae_res: Vec<f64> = split
        .test
        .iter()
        .enumerate()
        .filter(|(_, &idx)| corpus.samples()[idx].family() != Family::Benign)
        .map(|(i, &idx)| {
            let merged = gea_merge(&corpus.samples()[idx], &target).expect("merge");
            let f = soteria.features(merged.sample().graph(), 900 + i as u64);
            soteria.detector_ref().reconstruction_error(f.combined())
        })
        .collect();

    println!("\nalpha  clean FP%   AE miss%");
    for step in 0..=10 {
        let alpha = 0.2 * step as f64;
        let thr = stats.threshold_at(alpha);
        let fp = 100.0 * clean_res.iter().filter(|&&r| r > thr).count() as f64
            / clean_res.len().max(1) as f64;
        let miss = 100.0 * ae_res.iter().filter(|&&r| r <= thr).count() as f64
            / ae_res.len().max(1) as f64;
        let marker = if (alpha - stats.alpha).abs() < 1e-9 {
            "  <- Soteria's operating point"
        } else {
            ""
        };
        println!("{alpha:>4.1}   {fp:>7.2}    {miss:>7.2}{marker}");
    }
}
