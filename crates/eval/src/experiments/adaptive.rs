//! Extension experiment: the adaptive-adversary scenarios of §V.
//!
//! Three probes, each reproducing a specific sentence of the discussion:
//!
//! 1. **Low-density insertion** — "inserting a single block with a low
//!    density near the exit block will not highly affect the labeling …
//!    will not be detected as an AE … However, Soteria can classify the
//!    sample to its original class."
//! 2. **Block splitting** — equivalence rewrites shift the feature space;
//!    detection pressure must grow with the number of splits.
//! 3. **Obfuscation** — an incomplete CFG degrades classification (the
//!    paper's acknowledged limitation).

use super::ExperimentOutput;
use crate::{ExperimentContext, TextTable};
use soteria_attacks::{Attack, BlockSplit, LowDensityInsert, Obfuscate};

/// Runs all three adaptive probes over the clean test split.
pub fn run(ctx: &mut ExperimentContext) -> ExperimentOutput {
    let threshold = ctx.soteria.detector_ref().stats().threshold();
    let test: Vec<usize> = ctx.split.test.clone();

    // Probe 1: low-density insertion.
    let mut ld_flagged = 0usize;
    let mut ld_correct = 0usize;
    let mut ld_passed = 0usize;
    // Probe 2: block splitting at increasing intensity.
    let split_counts = [1usize, 2, 4, 8];
    let mut split_flagged = vec![0usize; split_counts.len()];
    // Probe 3: obfuscation at increasing hidden fractions.
    let obf_fractions = [0.1f64, 0.3, 0.5];
    let mut obf_correct = vec![0usize; obf_fractions.len()];
    let mut obf_passed = vec![0usize; obf_fractions.len()];

    let mut baseline_correct = 0usize;
    let mut baseline_passed = 0usize;

    for (i, &idx) in test.iter().enumerate() {
        let sample = ctx.corpus.samples()[idx].clone();
        let seed = 0xADA0 + i as u64;

        // Baseline verdicts on the untouched sample.
        let features = ctx.soteria.features(sample.graph(), seed);
        let re = ctx
            .soteria
            .detector_ref()
            .reconstruction_error(features.combined());
        if re <= threshold {
            baseline_passed += 1;
            if ctx.soteria.classifier_ref().classify(&features).voted_label == sample.family() {
                baseline_correct += 1;
            }
        }

        // Probe 1. The probes route through the attack-zoo wrappers, which
        // call `soteria_gea::adaptive` with the same seeds — crafted bytes
        // (and therefore these tables) are unchanged by the indirection.
        let ld = LowDensityInsert
            .craft(&sample, seed)
            .expect("insertion")
            .into_sample();
        let f = ctx.soteria.features(ld.graph(), seed ^ 0x1);
        let re = ctx
            .soteria
            .detector_ref()
            .reconstruction_error(f.combined());
        if re > threshold {
            ld_flagged += 1;
        } else {
            ld_passed += 1;
            if ctx.soteria.classifier_ref().classify(&f).voted_label == sample.family() {
                ld_correct += 1;
            }
        }

        // Probe 2.
        for (si, &count) in split_counts.iter().enumerate() {
            let split = BlockSplit::new(count)
                .craft(&sample, seed ^ 0x20)
                .expect("split")
                .into_sample();
            let f = ctx
                .soteria
                .features(split.graph(), seed ^ (0x30 + si as u64));
            if ctx
                .soteria
                .detector_ref()
                .reconstruction_error(f.combined())
                > threshold
            {
                split_flagged[si] += 1;
            }
        }

        // Probe 3.
        for (oi, &frac) in obf_fractions.iter().enumerate() {
            let obf = Obfuscate::new(frac)
                .craft(&sample, seed ^ 0x40)
                .expect("obfuscate")
                .into_sample();
            let f = ctx.soteria.features(obf.graph(), seed ^ (0x50 + oi as u64));
            let re = ctx
                .soteria
                .detector_ref()
                .reconstruction_error(f.combined());
            if re <= threshold {
                obf_passed[oi] += 1;
                if ctx.soteria.classifier_ref().classify(&f).voted_label == sample.family() {
                    obf_correct[oi] += 1;
                }
            }
        }
    }

    let n = test.len();
    let pct = |num: usize, den: usize| -> String {
        if den == 0 {
            "-".into()
        } else {
            format!("{:.2}%", num as f64 / den as f64 * 100.0)
        }
    };

    let mut t1 = TextTable::new(vec![
        "manipulation".into(),
        "flagged as AE".into(),
        "classified correctly (of passed)".into(),
    ])
    .with_title("Extension — §V adaptive adversary: low-density insertion");
    t1.row(vec![
        "none (baseline)".into(),
        pct(n - baseline_passed, n),
        pct(baseline_correct, baseline_passed),
    ]);
    t1.row(vec![
        "single low-density block".into(),
        pct(ld_flagged, n),
        pct(ld_correct, ld_passed),
    ]);

    let mut t2 = TextTable::new(vec!["splits".into(), "flagged as AE".into()])
        .with_title("Extension — §V equivalence rewrites: block splitting");
    for (si, &count) in split_counts.iter().enumerate() {
        t2.row(vec![count.to_string(), pct(split_flagged[si], n)]);
    }

    let mut t3 = TextTable::new(vec![
        "hidden fraction".into(),
        "passed detector".into(),
        "classified correctly (of passed)".into(),
    ])
    .with_title("Extension — §V obfuscation: incomplete CFGs");
    for (oi, &frac) in obf_fractions.iter().enumerate() {
        t3.row(vec![
            format!("{frac:.1}"),
            pct(obf_passed[oi], n),
            pct(obf_correct[oi], obf_passed[oi]),
        ]);
    }

    ExperimentOutput {
        id: "adaptive",
        tables: vec![t1, t2, t3],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalConfig;

    #[test]
    fn adaptive_probe_emits_three_tables() {
        let mut ctx = ExperimentContext::build(EvalConfig::quick(12));
        let out = run(&mut ctx);
        assert_eq!(out.tables.len(), 3);
        let rendered = out.to_string();
        assert!(rendered.contains("low-density"));
        assert!(rendered.contains("block splitting"));
        assert!(rendered.contains("obfuscation"));
    }
}
