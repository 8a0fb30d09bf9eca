//! Fig. 12: the trade-off between adversarial detection sensitivity and
//! clean-sample misdetection across reconstruction-error thresholds.

use super::ExperimentOutput;
use crate::{ExperimentContext, TextTable};

/// Number of threshold steps to sweep.
pub const STEPS: usize = 40;

/// Reproduces Fig. 12: for each threshold, the clean false-positive rate
/// and the adversarial miss (false-negative) rate.
pub fn run(ctx: &mut ExperimentContext) -> ExperimentOutput {
    let _ = ctx.clean_results();
    let _ = ctx.adversarial_results();
    let clean_res: Vec<f64> = ctx.clean_results().iter().map(|r| r.re).collect();
    let ae_res: Vec<f64> = ctx
        .adversarial_results()
        .iter()
        .flat_map(|t| t.results.iter().map(|r| r.re))
        .collect();

    let lo = clean_res
        .iter()
        .chain(&ae_res)
        .copied()
        .fold(f64::INFINITY, f64::min);
    let hi = clean_res
        .iter()
        .chain(&ae_res)
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);

    let mut t = TextTable::new(vec![
        "threshold".into(),
        "clean FP %".into(),
        "AE miss %".into(),
    ])
    .with_title("Fig. 12 — detection sensitivity vs clean misdetection across thresholds");
    for step in 0..=STEPS {
        let thr = lo + (hi - lo) * step as f64 / STEPS as f64;
        let fp =
            clean_res.iter().filter(|&&r| r > thr).count() as f64 / clean_res.len().max(1) as f64;
        let miss = ae_res.iter().filter(|&&r| r <= thr).count() as f64 / ae_res.len().max(1) as f64;
        t.row(vec![
            format!("{thr:.5}"),
            format!("{:.2}", fp * 100.0),
            format!("{:.2}", miss * 100.0),
        ]);
    }
    let chosen = ctx.soteria.detector_ref().stats().threshold();
    let mut info = TextTable::new(vec!["quantity".into(), "value".into()])
        .with_title("Fig. 12 — operating point");
    info.row(vec![
        "chosen threshold (mu + sigma)".into(),
        format!("{chosen:.5}"),
    ]);
    info.row(vec!["RE range low".into(), format!("{lo:.5}")]);
    info.row(vec!["RE range high".into(), format!("{hi:.5}")]);
    ExperimentOutput {
        id: "fig12",
        tables: vec![t, info],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalConfig;

    #[test]
    fn sweep_is_monotone_in_the_right_directions() {
        let mut ctx = ExperimentContext::build(EvalConfig::quick(9));
        let out = run(&mut ctx);
        let t = &out.tables[0];
        assert_eq!(t.len(), STEPS + 1);
        // At the lowest threshold everything is flagged: FP 100, miss 0.
        let rendered = t.to_csv();
        let first = rendered.lines().nth(1).unwrap();
        let last = rendered.lines().last().unwrap();
        assert!(first.contains("100.00") || first.ends_with("0.00"));
        // At the highest threshold nothing is flagged: miss 100.
        assert!(last.ends_with("100.00"));
    }
}
