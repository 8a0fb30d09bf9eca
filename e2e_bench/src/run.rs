//! Set-up, the untraced measured phase of each workload, and the
//! correctness gates.

use crate::host;
use crate::inputs::{self, Item, Truth};
use crate::stats::{median, quantile};
use crate::Workload;
use soteria::{PipelineMetrics, Soteria, SoteriaConfig, StateImage, Verdict};
use soteria_serve::{request_seed, ScreeningService, ServeConfig, ServiceStats, Submit};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The model: the evaluation preset's architecture and extractor (10 walks
/// per labeling, 2/3/4-grams, top-192), with only the training epochs cut
/// so set-up stays a few seconds.
pub fn model_config() -> SoteriaConfig {
    let mut config = SoteriaConfig::evaluation();
    config.detector.epochs = 20;
    config.classifier.epochs = 4;
    config
}

/// The service as `serve_closed` runs it: one extraction worker, no batch
/// window (a lone closed-loop caller never has a second request to wait
/// for), and a cache large enough that no repeat is ever evicted.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        workers: 1,
        cache_capacity: 4 * inputs::SERVE_DISTINCT,
        batch_window: Duration::ZERO,
        seed,
        ..ServeConfig::default()
    }
}

/// The walk seed the batch workloads pass for item `i`.
pub fn walk_seed(seed: u64, i: usize) -> u64 {
    inputs::mix(seed ^ 0xBA7C, i as u64)
}

/// Everything set-up leaves behind: the model, the workload's inputs as
/// bytes, and the set-up's own stage timings.
pub struct Setup {
    /// The trained (for `serve_closed`: artifact-loaded) model.
    pub soteria: Soteria,
    /// The workload's fixed list. For `serve_closed`, the distinct
    /// contents followed by one warm-up content outside the plan.
    pub items: Vec<Item>,
    /// Training stage times.
    pub train: PipelineMetrics,
    /// GEA crafting time and example count (0 when nothing was crafted).
    pub craft: (f64, usize),
    /// `StateImage::parse` + `Soteria::load_image` time (0 when unused).
    pub artifact_load_s: f64,
}

/// Generates the inputs, trains, crafts, loads and warms up. The corpus
/// graphs are dropped before this returns; only bytes survive.
/// `probe_all_layers` also crafts GEA examples and round-trips the model
/// through the artifact on workloads that do not need them, so a traced
/// run can time those layers everywhere.
pub fn setup(workload: Workload, seed: u64, probe_all_layers: bool) -> Result<Setup, String> {
    let generated = inputs::generate(seed);
    let (mut soteria, train) =
        Soteria::train_with_metrics(&model_config(), &generated.corpus, &generated.train, seed)
            .map_err(|e| format!("training failed: {e}"))?;
    let (gea, craft) = if workload == Workload::GeaBatch || probe_all_layers {
        let (gea, secs) = inputs::gea_items(&generated, seed)?;
        let crafted = gea.len();
        (gea, (secs, crafted))
    } else {
        (Vec::new(), (0.0, 0))
    };
    let items = match workload {
        Workload::GeaBatch => gea,
        Workload::CleanBatch => inputs::clean_items(&generated),
        Workload::ServeClosed => {
            let mut clean = inputs::clean_items(&generated);
            clean.truncate(inputs::SERVE_DISTINCT + 1);
            clean
        }
    };
    drop(generated);

    // `serve_closed` serves the artifact-loaded model; a traced run of the
    // other workloads times the same load and keeps the trained model.
    let mut artifact_load_s = 0.0;
    if workload == Workload::ServeClosed || probe_all_layers {
        let bytes = soteria
            .save_state()
            .and_then(|s| s.to_artifact().map_err(|e| e.to_string()))
            .map_err(|e| format!("artifact export failed: {e}"))?;
        let started = Instant::now();
        let image = StateImage::parse(&bytes).map_err(|e| format!("artifact parse: {e}"))?;
        let loaded = Soteria::load_image(&image).map_err(|e| format!("artifact load: {e}"))?;
        artifact_load_s = started.elapsed().as_secs_f64();
        if workload == Workload::ServeClosed {
            soteria = loaded;
        }
    }
    let warm: Vec<(&[u8], u64)> = items
        .iter()
        .take(workload.chunk())
        .enumerate()
        .map(|(i, item)| (item.bytes.as_slice(), walk_seed(0, i)))
        .collect();
    black_box(soteria.screen_many_seeded(&warm));
    Ok(Setup {
        soteria,
        items,
        train,
        craft,
        artifact_load_s,
    })
}

/// Whether `verdict` is the right answer for `truth`.
pub fn is_right(verdict: &Verdict, truth: Truth) -> bool {
    match (truth, verdict) {
        (Truth::Clean(family), Verdict::Clean { family: got, .. }) => *got == family,
        (Truth::Gea(_), v) => v.is_adversarial(),
        _ => false,
    }
}

/// The measured phase's figures. Each call's latency is its median over
/// the passes, so a burst of host noise that slows one call in one pass is
/// voted out; rate and percentiles are taken over those medians.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Binaries (or requests) completed per second of screening time.
    pub rate: f64,
    /// Median call latency, ms.
    pub p50_ms: f64,
    /// Tail call latency, ms.
    pub tail_ms: f64,
}

impl Summary {
    /// Summarizes `latencies[pass][call]` (seconds) of passes that each
    /// completed `completed` binaries or requests.
    pub fn of(latencies: &[Vec<f64>], completed: usize, tail_q: f64) -> Summary {
        let calls = latencies.first().map_or(0, Vec::len);
        let per_call: Vec<f64> = (0..calls)
            .map(|c| median(&latencies.iter().map(|pass| pass[c]).collect::<Vec<_>>()))
            .collect();
        Summary {
            rate: completed as f64 / per_call.iter().sum::<f64>(),
            p50_ms: quantile(&per_call, 0.5) * 1e3,
            tail_ms: quantile(&per_call, tail_q) * 1e3,
        }
    }
}

/// The measured phase's outcome.
pub struct Measured {
    /// Call latencies in seconds, one row per pass over the fixed list.
    pub latencies: Vec<Vec<f64>>,
    /// The first pass's outcome per list entry (`None`: rejected).
    pub verdicts: Vec<Option<Verdict>>,
    /// Whether every later pass reproduced the first pass's outcomes.
    pub repeatable: bool,
    /// Screening operations attempted.
    pub attempted: u64,
    /// Attempts that were rejected or came back Degraded.
    pub failed: u64,
    /// Cache hits per pass (serve only).
    pub cache_hits: u64,
    /// Whether every submission reached exactly one outcome (serve only;
    /// always true for batch calls, which return one verdict per input).
    pub one_outcome_each: bool,
}

/// Screens the fixed list in whole passes until the next pass would end
/// past `seconds` (at least one pass). Every pass screens the same list in
/// the same chunks, so passes differ only in timing.
pub fn measure_batch(
    soteria: &mut Soteria,
    items: &[Item],
    seed: u64,
    chunk: usize,
    seconds: f64,
) -> Measured {
    let seeded: Vec<(&[u8], u64)> = items
        .iter()
        .enumerate()
        .map(|(i, item)| (item.bytes.as_slice(), walk_seed(seed, i)))
        .collect();
    let mut out = Measured {
        latencies: Vec::new(),
        verdicts: Vec::with_capacity(items.len()),
        repeatable: true,
        attempted: 0,
        failed: 0,
        cache_hits: 0,
        one_outcome_each: true,
    };
    let started = Instant::now();
    loop {
        let mut latencies = Vec::with_capacity(seeded.len().div_ceil(chunk));
        for (ci, calls) in seeded.chunks(chunk).enumerate() {
            let t = Instant::now();
            let verdicts = soteria.screen_many_seeded(black_box(calls));
            latencies.push(t.elapsed().as_secs_f64());
            out.attempted += calls.len() as u64;
            out.failed += verdicts.iter().filter(|v| v.is_degraded()).count() as u64;
            out.one_outcome_each &= verdicts.len() == calls.len();
            if out.latencies.is_empty() {
                out.verdicts.extend(verdicts.into_iter().map(Some));
            } else {
                let first = &out.verdicts[ci * chunk..ci * chunk + calls.len()];
                out.repeatable &= first
                    .iter()
                    .zip(&verdicts)
                    .all(|(a, b)| a.as_ref() == Some(b));
            }
        }
        let busy: f64 = latencies.iter().sum();
        out.latencies.push(latencies);
        if started.elapsed().as_secs_f64() + busy > seconds {
            break;
        }
    }
    out
}

/// One closed-loop pass through a fresh service.
pub struct ServePass {
    /// Submit → verdict latency per submission, seconds.
    pub latency_s: Vec<f64>,
    /// Time inside `submit` per submission, seconds.
    pub submit_s: Vec<f64>,
    /// Whether each submission was answered from the cache.
    pub hit: Vec<bool>,
    /// Outcome per submission (`None`: rejected).
    pub verdicts: Vec<Option<Verdict>>,
    /// The service's counters after the pass.
    pub stats: ServiceStats,
}

/// One caller screens `plan` (indices into `items`) through a fresh
/// service, submitting each request after the previous verdict arrives.
/// The list's last item, which the plan never submits, warms the service
/// up first.
pub fn serve_pass(
    soteria: Soteria,
    items: &[Item],
    plan: &[usize],
    seed: u64,
) -> (Soteria, ServePass) {
    let service = ScreeningService::start(soteria, &serve_config(seed));
    let warmup = items.last().expect("serve list has a warm-up item");
    if let Some(ticket) = service.submit(warmup.bytes.clone()).into_ticket() {
        black_box(ticket.wait());
    }
    let mut latency_s = Vec::with_capacity(plan.len());
    let mut submit_s = Vec::with_capacity(plan.len());
    let mut hit = Vec::with_capacity(plan.len());
    let mut verdicts = Vec::with_capacity(plan.len());
    for &i in plan {
        let bytes = items[i].bytes.clone();
        let t = Instant::now();
        let submitted = service.submit(bytes);
        submit_s.push(t.elapsed().as_secs_f64());
        let (cached, verdict) = match submitted {
            Submit::Accepted(ticket) => (ticket.is_cached(), Some(ticket.wait())),
            Submit::Rejected { .. } => (false, None),
        };
        latency_s.push(t.elapsed().as_secs_f64());
        hit.push(cached);
        verdicts.push(verdict);
    }
    let stats = service.stats();
    let pass = ServePass {
        latency_s,
        submit_s,
        hit,
        verdicts,
        stats,
    };
    (service.shutdown(), pass)
}

/// Runs [`serve_pass`] over the plan until the next pass would end past
/// `seconds` (at least one pass). Returns the model for the gates.
pub fn measure_serve(
    soteria: Soteria,
    items: &[Item],
    plan: &[usize],
    seed: u64,
    seconds: f64,
) -> (Soteria, Measured) {
    let mut soteria = soteria;
    let mut out = Measured {
        latencies: Vec::new(),
        verdicts: Vec::with_capacity(plan.len()),
        repeatable: true,
        attempted: 0,
        failed: 0,
        cache_hits: 0,
        one_outcome_each: true,
    };
    let started = Instant::now();
    loop {
        let (back, pass) = serve_pass(soteria, items, plan, seed);
        soteria = back;
        out.one_outcome_each &=
            pass.stats.in_flight == 0 && pass.stats.submitted == plan.len() as u64 + 1;
        out.cache_hits = pass.hit.iter().filter(|&&h| h).count() as u64;
        out.attempted += plan.len() as u64;
        out.failed += pass
            .verdicts
            .iter()
            .filter(|o| o.as_ref().is_none_or(Verdict::is_degraded))
            .count() as u64;
        if out.latencies.is_empty() {
            out.verdicts = pass.verdicts;
        } else {
            out.repeatable &= out.verdicts == pass.verdicts;
        }
        let busy: f64 = pass.latency_s.iter().sum();
        out.latencies.push(pass.latency_s);
        if started.elapsed().as_secs_f64() + busy > seconds {
            break;
        }
    }
    (soteria, out)
}

/// Peak resident memory of the screening calls in MiB: the high-water mark
/// of one untimed pass over the list in which the allocator hands freed
/// pages back to the kernel after every call. Without the per-call release
/// the peak depended on which thread's heap happened to cache transient
/// buffers: identical runs read 45–50 MiB, against 40–42 MiB with it.
///
/// # Errors
///
/// Fails when the kernel does not offer the high-water mark.
pub fn peak_rss_batch(
    soteria: &mut Soteria,
    items: &[Item],
    seed: u64,
    chunk: usize,
) -> Result<f64, String> {
    let seeded: Vec<(&[u8], u64)> = items
        .iter()
        .enumerate()
        .map(|(i, item)| (item.bytes.as_slice(), walk_seed(seed, i)))
        .collect();
    host::release_free_heap();
    host::reset_peak_rss()?;
    for calls in seeded.chunks(chunk) {
        black_box(soteria.screen_many_seeded(calls));
        host::release_free_heap();
    }
    host::peak_rss_mb()
}

/// [`peak_rss_batch`] for the service: one untimed closed-loop pass over
/// `plan` through a fresh service. Returns the model and the peak.
///
/// # Errors
///
/// Fails when the kernel does not offer the high-water mark.
pub fn peak_rss_serve(
    soteria: Soteria,
    items: &[Item],
    plan: &[usize],
    seed: u64,
) -> Result<(Soteria, f64), String> {
    let service = ScreeningService::start(soteria, &serve_config(seed));
    host::release_free_heap();
    host::reset_peak_rss()?;
    for &i in plan {
        if let Some(ticket) = service.submit(items[i].bytes.clone()).into_ticket() {
            black_box(ticket.wait());
        }
        host::release_free_heap();
    }
    let peak = host::peak_rss_mb()?;
    Ok((service.shutdown(), peak))
}

/// The sequential oracle for the batch gate: `screen_binary` on every
/// eighth item, with the walk seed the batch call used.
pub fn batch_oracle(soteria: &mut Soteria, items: &[Item], seed: u64) -> Vec<(usize, Verdict)> {
    (0..items.len())
        .step_by(8)
        .map(|i| {
            (
                i,
                soteria.screen_binary(&items[i].bytes, walk_seed(seed, i)),
            )
        })
        .collect()
}

/// The sequential oracle for the serve gate: `screen_binary` on every
/// distinct content with the seed the service derives from its bytes.
pub fn serve_oracle(soteria: &mut Soteria, items: &[Item], seed: u64) -> Vec<Verdict> {
    items
        .iter()
        .map(|item| soteria.screen_binary(&item.bytes, request_seed(seed, &item.bytes)))
        .collect()
}

/// The correctness gate: every pass agrees, every submission has one
/// outcome, and every checked outcome equals its sequential oracle.
pub fn gate(measured: &Measured, oracle: &[(usize, Verdict)]) -> Vec<String> {
    let mut failures = Vec::new();
    if !measured.repeatable {
        failures.push("a later pass returned different verdicts than the first".to_owned());
    }
    if !measured.one_outcome_each {
        failures.push("a submission did not reach exactly one outcome".to_owned());
    }
    let diverged = oracle
        .iter()
        .filter(|(i, want)| measured.verdicts[*i].as_ref() != Some(want))
        .count();
    if diverged > 0 {
        failures.push(format!(
            "{diverged} of {} checked verdicts differ from the sequential screen_binary oracle",
            oracle.len()
        ));
    }
    failures
}
