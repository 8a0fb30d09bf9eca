//! Table III: the GEA target selection (small/median/large per class) and
//! the number of AEs each target generates.

use super::ExperimentOutput;
use crate::{ExperimentContext, TextTable};
use soteria_corpus::{Corpus, Family};

/// The number of AEs a target generates: GEA embeds it into every test
/// sample of every other class, so this counts the test samples outside
/// the target's class.
fn expected_batch_size(corpus: &Corpus, test_indices: &[usize], target_family: Family) -> usize {
    test_indices
        .iter()
        .filter(|&&i| corpus.samples()[i].family() != target_family)
        .count()
}

/// Reproduces Table III for the generated corpus.
pub fn run(ctx: &mut ExperimentContext) -> ExperimentOutput {
    let mut t = TextTable::new(vec![
        "Class".into(),
        "Size".into(),
        "# Nodes".into(),
        "# AEs".into(),
    ])
    .with_title("Table III — GEA selected targeted samples");
    for target in ctx.selection.targets() {
        t.row(vec![
            target.family.to_string(),
            target.size.to_string(),
            target.nodes.to_string(),
            expected_batch_size(&ctx.corpus, &ctx.split.test, target.family).to_string(),
        ]);
    }
    ExperimentOutput {
        id: "table3",
        tables: vec![t],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalConfig;

    #[test]
    fn table3_lists_twelve_targets() {
        let mut ctx = ExperimentContext::build(EvalConfig::quick(2));
        let out = run(&mut ctx);
        assert_eq!(out.tables[0].len(), 12);
        let rendered = out.to_string();
        assert!(rendered.contains("Small"));
        assert!(rendered.contains("Large"));
    }
}
