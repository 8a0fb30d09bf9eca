//! End-to-end benchmark of Soteria screening. One run screens one
//! workload's seeded inputs through the public API, checks the verdicts,
//! and prints its metrics as the last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload clean_batch --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` is a separate run over the same inputs that records a span
//! around every layer call and prints the per-layer ledger. README.md in
//! this directory documents the workloads and metrics.

mod host;
mod inputs;
mod ledger;
mod run;
mod stats;

use inputs::Truth;
use run::{Measured, Setup};
use stats::{median, Metrics};
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline triage of held-out clean variants in fixed chunks.
    CleanBatch,
    /// The same batch path over GEA adversarial examples.
    GeaBatch,
    /// One closed-loop caller through the screening service.
    ServeClosed,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "clean_batch" => Some(Workload::CleanBatch),
            "gea_batch" => Some(Workload::GeaBatch),
            "serve_closed" => Some(Workload::ServeClosed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CleanBatch => "clean_batch",
            Workload::GeaBatch => "gea_batch",
            Workload::ServeClosed => "serve_closed",
        }
    }

    /// Binaries per screening call.
    pub fn chunk(self) -> usize {
        match self {
            Workload::CleanBatch => inputs::CLEAN_CHUNK,
            Workload::GeaBatch => inputs::GEA_CHUNK,
            Workload::ServeClosed => 1,
        }
    }

    /// The tail percentile: the highest one that leaves at least ten calls
    /// beyond it (100 chunks per batch pass, 1024 requests per serve pass).
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::CleanBatch | Workload::GeaBatch => 0.90,
            Workload::ServeClosed => 0.99,
        }
    }
}

/// Command-line arguments.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured-phase budget in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str = "usage: soteria-e2e-bench --workload clean_batch|gea_batch|serve_closed \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Number of set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The composition of a list as JSON: count per family (or GEA size
/// class), mean and max CFG nodes.
fn composition_json(items: &[inputs::Item]) -> String {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for item in items {
        let key = match item.truth {
            Truth::Clean(f) => f.name().to_owned(),
            Truth::Gea(size) => format!("gea_{size}"),
        };
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => *n += 1,
            None => counts.push((key, 1)),
        }
    }
    let counts: Vec<String> = counts.iter().map(|(k, n)| format!("\"{k}\":{n}")).collect();
    let mean = items.iter().map(|i| i.nodes as f64).sum::<f64>() / items.len().max(1) as f64;
    let max = items.iter().map(|i| i.nodes).max().unwrap_or(0);
    format!(
        "{{\"counts\":{{{}}},\"mean_nodes\":{mean:.2},\"max_nodes\":{max}}}",
        counts.join(",")
    )
}

/// Share of `verdicts` that are right for their truths, over the items
/// `filter` selects (`None` when it selects none).
fn share_right(
    verdicts: &[(Option<&soteria::Verdict>, Truth)],
    filter: impl Fn(Truth) -> bool,
) -> Option<f64> {
    let picked: Vec<_> = verdicts.iter().filter(|(_, t)| filter(*t)).collect();
    if picked.is_empty() {
        return None;
    }
    let right = picked
        .iter()
        .filter(|(v, t)| v.is_some_and(|v| run::is_right(v, *t)))
        .count();
    Some(right as f64 / picked.len() as f64)
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| format!("{v}"))
}

/// The end-to-end run.
fn run_untraced(args: &Args) -> Result<ExitCode, String> {
    let started = Instant::now();
    let Setup {
        mut soteria, items, ..
    } = run::setup(args.workload, args.seed, false)?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    let tail_q = args.workload.tail_quantile();
    let plan = inputs::serve_plan(args.seed);

    // Oracles are computed before the measured phase so that phase holds
    // nothing but the program's own work and memory.
    let oracle = match args.workload {
        Workload::ServeClosed => {
            let distinct = &items[..inputs::SERVE_DISTINCT];
            let per_content = run::serve_oracle(&mut soteria, distinct, args.seed);
            plan.iter()
                .enumerate()
                .map(|(k, &i)| (k, per_content[i].clone()))
                .collect()
        }
        _ => run::batch_oracle(&mut soteria, &items, args.seed),
    };

    let (mut soteria, peak_rss_mb) = match args.workload {
        Workload::ServeClosed => run::peak_rss_serve(soteria, &items, &plan, args.seed)?,
        w => {
            let peak = run::peak_rss_batch(&mut soteria, &items, args.seed, w.chunk())?;
            (soteria, peak)
        }
    };
    let cpu_before = host::CpuTimes::now();
    let measured: Measured = match args.workload {
        Workload::ServeClosed => {
            run::measure_serve(soteria, &items, &plan, args.seed, args.seconds).1
        }
        w => run::measure_batch(&mut soteria, &items, args.seed, w.chunk(), args.seconds),
    };
    let steal = cpu_before.steal_share_until(&host::CpuTimes::now());

    let failures = run::gate(&measured, &oracle);

    // The remaining set-ups are timed only now: their freed memory, left in
    // both threads' heaps, made the measured phase's resident set bimodal
    // when they ran first.
    for _ in 1..SETUP_REPEATS {
        let started = Instant::now();
        drop(run::setup(args.workload, args.seed, false)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let scored: Vec<(Option<&soteria::Verdict>, Truth)> = match args.workload {
        Workload::ServeClosed => plan
            .iter()
            .zip(&measured.verdicts)
            .map(|(&i, v)| (v.as_ref(), items[i].truth))
            .collect(),
        _ => measured
            .verdicts
            .iter()
            .zip(&items)
            .map(|(v, item)| (v.as_ref(), item.truth))
            .collect(),
    };
    let accuracy = share_right(&scored, |_| true).unwrap_or(0.0);
    let clean_accuracy = share_right(&scored, |t| matches!(t, Truth::Clean(_)));
    let adv_detect_rate = share_right(&scored, |t| matches!(t, Truth::Gea(_)));
    let failed_share = measured.failed as f64 / measured.attempted as f64;
    let classified = scored
        .iter()
        .filter(|(v, _)| matches!(v, Some(soteria::Verdict::Clean { .. })))
        .count() as f64
        / scored.len() as f64;
    let completed = measured.verdicts.len();
    let summary = run::Summary::of(&measured.latencies, completed, tail_q);

    let listed: &[inputs::Item] = match args.workload {
        Workload::ServeClosed => &items[..inputs::SERVE_DISTINCT],
        _ => &items,
    };
    let setup_each: Vec<String> = setup_s.iter().map(|s| format!("{s:.4}")).collect();
    let rates: Vec<String> = measured
        .latencies
        .iter()
        .map(|pass| format!("{:.2}", completed as f64 / pass.iter().sum::<f64>()))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"host\":{},\"diagnostics\":{{\"steal_share\":{steal:.4},\
         \"passes\":{},\"pass_rates\":[{}],\"latency_samples_per_pass\":{},\"tail_quantile\":{tail_q},\
         \"setup_s_each\":[{}],\"composition\":{},\
         \"clean_accuracy\":{},\"adv_detect_rate\":{},\"failed_share\":{failed_share},\
         \"classified_share\":{classified:.4},\"cache_hits_per_pass\":{},\"oracle_checked\":{},\
         \"gate_failures\":{}}}}}",
        args.workload.name(),
        args.seed,
        host::fingerprint_json(),
        measured.latencies.len(),
        rates.join(","),
        measured.latencies[0].len(),
        setup_each.join(","),
        composition_json(listed),
        json_opt(clean_accuracy),
        json_opt(adv_detect_rate),
        measured.cache_hits,
        oracle.len(),
        failures.len(),
    );
    for failure in &failures {
        eprintln!("correctness gate: {failure}");
    }

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_s), "s");
    metrics.put("bins_per_s", summary.rate, "1/s");
    metrics.put("p50_ms", summary.p50_ms, "ms");
    metrics.put("tail_ms", summary.tail_ms, "ms");
    metrics.put("peak_rss_mb", peak_rss_mb, "MiB");
    metrics.put("accuracy", accuracy, "share");
    metrics.put("served_share", 1.0 - failed_share, "share");
    let correct = failures.is_empty();
    println!(
        "{}",
        stats::result_line(correct, measured.attempted, measured.failed, &metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The load never uses more compute threads than the host has: the
    // shared pool gets one worker beside the calling thread.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("SOTERIA_NN_THREADS", nproc.min(2).to_string());
    soteria_telemetry::set_enabled(false);
    let outcome = if args.trace {
        ledger::run_traced(&args)
    } else {
        run_untraced(&args)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark failed: {e}");
        ExitCode::FAILURE
    })
}
