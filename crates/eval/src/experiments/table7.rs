//! Table VII: classification accuracy per class — Soteria's DBL-only,
//! LBL-only and voting classifiers against the Alasmary (graph-theoretic)
//! and Cui (image-based) baselines.

use super::ExperimentOutput;
use crate::metrics::{accuracy_row, ConfusionMatrix};
use crate::{ExperimentContext, TextTable};
use soteria_baselines::alasmary::AlasmaryConfig;
use soteria_baselines::cui::CuiConfig;
use soteria_baselines::{AlasmaryClassifier, CuiClassifier, ImageSize};
use soteria_cfg::Cfg;
use soteria_corpus::{corpus::Sample, Family};

/// Reproduces Table VII.
pub fn run(ctx: &mut ExperimentContext) -> ExperimentOutput {
    // Soteria's three model variants over the clean test split.
    let mut cm_dbl = ConfusionMatrix::new(4);
    let mut cm_lbl = ConfusionMatrix::new(4);
    let mut cm_vote = ConfusionMatrix::new(4);
    for r in ctx.clean_results() {
        cm_dbl.record(r.family.index(), r.dbl.index());
        cm_lbl.record(r.family.index(), r.lbl.index());
        cm_vote.record(r.family.index(), r.voted.index());
    }

    // Baselines, trained on the same training split with the same (AV)
    // labels.
    eprintln!("[soteria-exp] training Alasmary baseline...");
    let train_graphs: Vec<&Cfg> = ctx
        .split
        .train
        .iter()
        .map(|&i| ctx.corpus.samples()[i].graph())
        .collect();
    let train_samples: Vec<&Sample> = ctx
        .split
        .train
        .iter()
        .map(|&i| &ctx.corpus.samples()[i])
        .collect();
    let labels: Vec<usize> = ctx
        .split
        .train
        .iter()
        .map(|&i| ctx.corpus.samples()[i].av_label().index())
        .collect();
    let alasmary = AlasmaryClassifier::train(
        &AlasmaryConfig::default(),
        &train_graphs,
        &labels,
        4,
        ctx.config.seed ^ 0xA1,
    );
    let mut cm_alasmary = ConfusionMatrix::new(4);
    for &i in &ctx.split.test {
        let s = &ctx.corpus.samples()[i];
        cm_alasmary.record(s.family().index(), alasmary.predict(s.graph()).index());
    }

    let mut cui_rows: Vec<(ImageSize, ConfusionMatrix)> = Vec::new();
    for size in [ImageSize::S24, ImageSize::S48] {
        eprintln!("[soteria-exp] training Cui baseline at {size}...");
        let cui = CuiClassifier::train(
            &CuiConfig::at(size),
            &train_samples,
            &labels,
            4,
            ctx.config.seed ^ 0xC0 ^ size.side() as u64,
        );
        let mut cm = ConfusionMatrix::new(4);
        for &i in &ctx.split.test {
            let s = &ctx.corpus.samples()[i];
            cm.record(s.family().index(), cui.predict(s).index());
        }
        cui_rows.push((size, cm));
    }

    let mut header = vec!["Model".to_string()];
    header.extend(Family::ALL.iter().map(|f| f.to_string()));
    header.push("Overall".into());
    let mut t = TextTable::new(header)
        .with_title("Table VII — classification accuracy on clean test samples");
    let push = |name: &str, cm: &ConfusionMatrix, t: &mut TextTable| {
        let mut row = vec![name.to_string()];
        row.extend(accuracy_row(cm));
        t.row(row);
    };
    push("Soteria DBL", &cm_dbl, &mut t);
    push("Soteria LBL", &cm_lbl, &mut t);
    push("Soteria voting", &cm_vote, &mut t);
    push("Alasmary et al. [3]", &cm_alasmary, &mut t);
    for (size, cm) in &cui_rows {
        push(&format!("Cui et al. [5] {size}"), cm, &mut t);
    }
    ExperimentOutput {
        id: "table7",
        tables: vec![t],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalConfig;

    #[test]
    fn table7_has_all_model_rows() {
        let mut ctx = ExperimentContext::build(EvalConfig::quick(5));
        let out = run(&mut ctx);
        let rendered = out.to_string();
        assert!(rendered.contains("Soteria voting"));
        assert!(rendered.contains("Alasmary"));
        assert!(rendered.contains("Cui et al. [5] 24x24"));
        assert_eq!(out.tables[0].len(), 6);
    }
}
