//! Fig. 13: detection error as a function of the threshold multiplier α
//! in `T_h = μ(RE) + α·σ(RE)`.
//!
//! The paper sweeps α from 0 to 2: at α = 0 every AE is caught but most
//! clean samples are misdetected; at α = 2 no AE is caught; the chosen
//! operating point sits near the crossing of the two error curves.

use super::ExperimentOutput;
use crate::{ExperimentContext, TextTable};

/// α sweep resolution.
pub const ALPHA_STEPS: usize = 20;

/// Maximum α.
pub const ALPHA_MAX: f64 = 2.0;

/// Reproduces Fig. 13.
pub fn run(ctx: &mut ExperimentContext) -> ExperimentOutput {
    let _ = ctx.clean_results();
    let _ = ctx.adversarial_results();
    let stats = ctx.soteria.detector_ref().stats();
    let clean_res: Vec<f64> = ctx.clean_results().iter().map(|r| r.re).collect();
    let ae_res: Vec<f64> = ctx
        .adversarial_results()
        .iter()
        .flat_map(|t| t.results.iter().map(|r| r.re))
        .collect();

    let mut t = TextTable::new(vec![
        "alpha".into(),
        "clean error %".into(),
        "AE error %".into(),
    ])
    .with_title("Fig. 13 — detection error vs alpha (clean = FP rate, AE = miss rate)");
    let mut crossing: Option<f64> = None;
    let mut prev_sign: Option<bool> = None;
    for step in 0..=ALPHA_STEPS {
        let alpha = ALPHA_MAX * step as f64 / ALPHA_STEPS as f64;
        let thr = stats.threshold_at(alpha);
        let clean_err =
            clean_res.iter().filter(|&&r| r > thr).count() as f64 / clean_res.len().max(1) as f64;
        let ae_err =
            ae_res.iter().filter(|&&r| r <= thr).count() as f64 / ae_res.len().max(1) as f64;
        let sign = clean_err > ae_err;
        if let Some(prev) = prev_sign {
            if prev != sign && crossing.is_none() {
                crossing = Some(alpha);
            }
        }
        prev_sign = Some(sign);
        t.row(vec![
            format!("{alpha:.1}"),
            format!("{:.2}", clean_err * 100.0),
            format!("{:.2}", ae_err * 100.0),
        ]);
    }
    let mut info = TextTable::new(vec!["quantity".into(), "value".into()])
        .with_title("Fig. 13 — operating point");
    info.row(vec![
        "error-curve crossing alpha".into(),
        crossing.map_or("none in sweep".into(), |a| format!("~{a:.1}")),
    ]);
    info.row(vec![
        "Soteria's alpha".into(),
        format!("{:.1}", stats.alpha),
    ]);
    ExperimentOutput {
        id: "fig13",
        tables: vec![t, info],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvalConfig;

    #[test]
    fn alpha_zero_catches_all_aes() {
        let mut ctx = ExperimentContext::build(EvalConfig::quick(10));
        let out = run(&mut ctx);
        let csv = out.tables[0].to_csv();
        let alpha0 = csv.lines().nth(1).unwrap();
        // At alpha 0 the AE error is low (threshold = mean of clean REs).
        let ae_err: f64 = alpha0.split(',').nth(2).unwrap().parse().unwrap();
        let last = csv.lines().last().unwrap();
        let ae_err_at_2: f64 = last.split(',').nth(2).unwrap().parse().unwrap();
        assert!(ae_err <= ae_err_at_2, "AE error must grow with alpha");
    }

    #[test]
    fn clean_error_decreases_with_alpha() {
        let mut ctx = ExperimentContext::build(EvalConfig::quick(11));
        let out = run(&mut ctx);
        let csv = out.tables[0].to_csv();
        let first: f64 = csv
            .lines()
            .nth(1)
            .unwrap()
            .split(',')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let last: f64 = csv
            .lines()
            .last()
            .unwrap()
            .split(',')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(last <= first);
    }
}
