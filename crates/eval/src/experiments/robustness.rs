//! Extension experiment: the paper's operating-mode argument (§II-B,
//! §V) — *"the detector should not be aware of the AEs and their
//! patterns in the training process, as this will bias the detector's
//! performance towards specific attacks."*
//!
//! We train a **supervised** clean-vs-AE classifier on the AEs of a
//! single GEA target (the attack the defender happens to know about) and
//! compare its detection of the *other* targets' AEs against Soteria's
//! blind (clean-only, μ+α·σ) detector. The shape to reproduce: the
//! supervised detector excels on its training attack but generalizes
//! worse across the remaining configurations.
//!
//! The AEs come from [`ExperimentContext::adversarial_results`], which
//! crafts them through the `soteria-attacks` [`Attack`] trait (GEA rows of
//! the zoo). The full attack × strength × direction matrix lives in the
//! `soteria-exp robustness-bench` subcommand; this experiment is only the
//! operating-mode comparison.
//!
//! [`Attack`]: soteria_attacks::Attack

use super::ExperimentOutput;
use crate::context::TargetEval;
use crate::{ExperimentContext, TextTable};
use soteria_nn::{
    loss::one_hot, trainer::argmax_rows, Activation, Dense, Loss, Matrix, Sequential, TrainConfig,
    Trainer,
};

/// Trains the attack-aware supervised detector on clean training vectors
/// vs the AE vectors of `known`, then reports per-target detection for
/// both detectors.
pub fn run(ctx: &mut ExperimentContext) -> ExperimentOutput {
    // Shared evaluations first.
    let _ = ctx.clean_results();
    let _ = ctx.adversarial_results();

    let clean_vectors: Vec<Vec<f64>> = ctx
        .clean_results()
        .iter()
        .map(|r| r.combined.clone())
        .collect();
    let adversarial: Vec<TargetEval> = ctx.adversarial_results().to_vec();
    // The "known" attack: the first target (benign / Small).
    let known = &adversarial[0];

    // Supervised detector: clean (label 0) vs known-attack AEs (label 1).
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    for v in &clean_vectors {
        rows.push(v.clone());
        labels.push(0);
    }
    for r in &known.results {
        rows.push(r.combined.clone());
        labels.push(1);
    }
    let x = Matrix::from_rows(&rows);
    let t = one_hot(&labels, 2);
    let dim = rows[0].len();
    let mut supervised = Sequential::new(vec![
        Dense::new(dim, 64, Activation::Relu, 91).into(),
        Dense::new(64, 2, Activation::Linear, 92).into(),
    ]);
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 30,
        batch_size: 32,
        learning_rate: 2e-3,
        seed: 93,
        ..TrainConfig::default()
    });
    let _ = trainer.fit(&mut supervised, &x, &t, Loss::SoftmaxCrossEntropy);

    let detect_rate = |vectors: &[Vec<f64>]| -> f64 {
        if vectors.is_empty() {
            return 0.0;
        }
        let x = Matrix::from_rows(vectors);
        let preds = argmax_rows(&supervised.predict(&x));
        preds.iter().filter(|&&p| p == 1).count() as f64 / vectors.len() as f64
    };

    let mut table = TextTable::new(vec![
        "Target".into(),
        "Size".into(),
        "Soteria (blind) %".into(),
        "Supervised (attack-aware) %".into(),
    ])
    .with_title(format!(
        "Extension — attack-aware vs blind detection (supervised model trained on {} {} AEs)",
        known.target_family, known.target_size
    ));

    let mut blind_other = 0.0;
    let mut aware_other = 0.0;
    let mut others = 0usize;
    for (ti, eval) in adversarial.iter().enumerate() {
        let vectors: Vec<Vec<f64>> = eval.results.iter().map(|r| r.combined.clone()).collect();
        let aware = detect_rate(&vectors) * 100.0;
        let blind = eval.detection_rate().unwrap_or(0.0) * 100.0;
        if ti != 0 {
            blind_other += blind;
            aware_other += aware;
            others += 1;
        }
        let marker = if ti == 0 { " (trained on)" } else { "" };
        table.row(vec![
            format!("{}{marker}", eval.target_family),
            eval.target_size.to_string(),
            format!("{blind:.2}"),
            format!("{aware:.2}"),
        ]);
    }

    let mut summary = TextTable::new(vec![
        "detector".into(),
        "mean detection on unseen attacks %".into(),
    ])
    .with_title("Extension — generalization to attacks not seen in training");
    summary.row(vec![
        "Soteria (clean-only)".into(),
        format!("{:.2}", blind_other / others.max(1) as f64),
    ]);
    summary.row(vec![
        "supervised (attack-aware)".into(),
        format!("{:.2}", aware_other / others.max(1) as f64),
    ]);

    ExperimentOutput {
        id: "robustness",
        tables: vec![table, summary],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalConfig;

    #[test]
    fn robustness_reports_all_targets_plus_summary() {
        let mut ctx = ExperimentContext::build(EvalConfig::quick(13));
        let out = run(&mut ctx);
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].len(), ctx.selection.targets().len());
        assert!(out.to_string().contains("trained on"));
    }
}
