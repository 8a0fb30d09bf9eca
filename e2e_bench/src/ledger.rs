//! The traced run: the same seed and inputs as the end-to-end run, with a
//! span recorded around every layer call the benchmark makes. Spans stay in
//! memory and are written to `.bench_out/` when the run ends; self times
//! give the per-layer ledger, and an untraced pass over the same calls
//! gives the tracing overhead.

use crate::inputs::{self, Item};
use crate::run::{self, Setup};
use crate::stats::{median, result_line, Metrics};
use crate::{Args, Workload};
use soteria::{Soteria, Verdict};
use soteria_corpus::{disasm, Binary};
use soteria_features::labeling::{label_nodes_with, NodeKeys};
use soteria_features::{Labeling, SampleFeatures};
use soteria_serve::request_seed;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// The binary (or, for chunk-level spans, the chunk) it belongs to.
    request: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time per span name in seconds: each span's duration minus the
    /// time its (sequential, non-overlapping) children cover.
    fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    fn write_json_lines(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Runs `f`, inside a span when tracing.
fn timed<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => {
            let id = t.open(name, parent, request);
            let r = f();
            t.close(id);
            r
        }
        None => f(),
    }
}

/// The pipeline layers whose self times add up to the screening path; the
/// other spans re-run a stage the pipeline performs inside one of these.
const PIPELINE_LAYERS: [&str; 4] = [
    "corpus.parse",
    "corpus.lift",
    "features.extract",
    "core.screen",
];

/// One screening call as separate layer calls: per binary parse → lift →
/// extract, then one stacked screen of the call's binaries — exactly what
/// `screen_many_seeded` does, minus its fan-out across threads. When
/// tracing, also times the sub-stages that extraction and screening run
/// internally (reachable subgraph, labeling, detector, classifier) by
/// calling them again on the same data.
fn ledger_call(
    soteria: &mut Soteria,
    items: &[Item],
    call: &[(usize, u64)],
    call_id: u64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Verdict>, String> {
    let guards = soteria.config().guards.clone();
    let root = tracer.as_mut().map(|t| t.open("chunk", None, call_id));
    let mut batch: Vec<(SampleFeatures, u64)> = Vec::with_capacity(call.len());
    for &(i, seed) in call {
        let req = i as u64;
        let binary = timed(&mut tracer, "corpus.parse", root, req, || {
            Binary::parse(&items[i].bytes)
        })
        .map_err(|e| format!("item {i}: parse failed: {e}"))?;
        let lifted = timed(&mut tracer, "corpus.lift", root, req, || {
            disasm::lift(&binary)
        })
        .map_err(|e| format!("item {i}: lift failed: {e}"))?;
        let extractor = soteria.extractor();
        let features = timed(&mut tracer, "features.extract", root, req, || {
            extractor.try_extract(&lifted.cfg, seed, &guards)
        })
        .map_err(|e| format!("item {i}: extraction faulted: {e}"))?;
        if tracer.is_some() {
            let (reachable, _) = timed(&mut tracer, "cfg.reachable", root, req, || {
                lifted.cfg.reachable_subgraph()
            });
            black_box(timed(&mut tracer, "features.labeling", root, req, || {
                let keys = NodeKeys::compute(&reachable);
                (
                    label_nodes_with(&reachable, Labeling::Density, &keys),
                    label_nodes_with(&reachable, Labeling::Level, &keys),
                )
            }));
        }
        batch.push((features, seed));
    }
    let screened = timed(&mut tracer, "core.screen", root, call_id, || {
        soteria.screen_features_batch(&batch)
    });
    if tracer.is_some() {
        let rows: Vec<&[f64]> = batch.iter().map(|(f, _)| f.combined()).collect();
        let errors = timed(&mut tracer, "core.detector", root, call_id, || {
            soteria.detector_mut().reconstruction_errors_of(&rows)
        });
        let threshold = soteria.detector_ref().stats().threshold();
        let passed: Vec<&SampleFeatures> = batch
            .iter()
            .zip(&errors)
            .filter(|(_, &re)| re <= threshold)
            .map(|((f, _), _)| f)
            .collect();
        if !passed.is_empty() {
            black_box(timed(&mut tracer, "core.classifier", root, call_id, || {
                soteria.classifier_mut().classify_batch(&passed)
            }));
        }
    }
    if let (Some(t), Some(id)) = (tracer.as_mut(), root) {
        t.close(id);
    }
    Ok(screened)
}

/// Submissions the serve probe makes on a batch workload: the list's first
/// 256 binaries, once each.
const BATCH_SERVE_PROBE: usize = 256;

/// The traced run.
pub fn run_traced(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload;
    let seed = args.seed;
    let Setup {
        mut soteria,
        items,
        train,
        craft,
        artifact_load_s,
    } = run::setup(w, seed, true)?;

    // The ledger's calls: every binary of the list with the seed the
    // production path uses; for serve_closed the distinct contents (the
    // plan's misses) as batches of one.
    let (calls, plan): (Vec<(usize, u64)>, Vec<usize>) = match w {
        Workload::ServeClosed => (
            (0..inputs::SERVE_DISTINCT)
                .map(|i| (i, request_seed(seed, &items[i].bytes)))
                .collect(),
            inputs::serve_plan(seed),
        ),
        _ => (
            (0..items.len())
                .map(|i| (i, run::walk_seed(seed, i)))
                .collect(),
            (0..BATCH_SERVE_PROBE.min(items.len())).collect(),
        ),
    };
    let chunk = w.chunk();
    let n = calls.len() as f64;

    // The serving layers, untraced: latency and time inside submit per
    // request. On serve_closed this pass is also the production path.
    let (back, quiet) = run::serve_pass(soteria, &items, &plan, seed);
    soteria = back;
    let miss_latency_s: Vec<f64> = quiet
        .latency_s
        .iter()
        .zip(&quiet.hit)
        .filter(|(_, &hit)| !hit)
        .map(|(s, _)| *s)
        .collect();

    // A: the production path, untraced.
    let (production_s, production_verdicts): (f64, Vec<Option<Verdict>>) = match w {
        Workload::ServeClosed => (miss_latency_s.iter().sum(), quiet.verdicts.clone()),
        _ => {
            let seeded: Vec<(&[u8], u64)> = calls
                .iter()
                .map(|&(i, s)| (items[i].bytes.as_slice(), s))
                .collect();
            let mut busy = 0.0;
            let mut verdicts = Vec::with_capacity(seeded.len());
            for group in seeded.chunks(chunk) {
                let t = Instant::now();
                let out = soteria.screen_many_seeded(group);
                busy += t.elapsed().as_secs_f64();
                verdicts.extend(out.into_iter().map(Some));
            }
            (busy, verdicts)
        }
    };

    // B and C, interleaved call by call so drift in host speed hits both
    // alike: the ledger's calls untraced, then traced with the program's
    // own telemetry on for its counters.
    let mut untraced_s = 0.0;
    let mut untraced = Vec::with_capacity(calls.len());
    let mut traced = Vec::with_capacity(calls.len());
    let mut tracer = Tracer::new();
    soteria_telemetry::reset();
    for (ci, call) in calls.chunks(chunk).enumerate() {
        let t = Instant::now();
        untraced.extend(ledger_call(&mut soteria, &items, call, ci as u64, None)?);
        untraced_s += t.elapsed().as_secs_f64();
        soteria_telemetry::set_enabled(true);
        let out = ledger_call(&mut soteria, &items, call, ci as u64, Some(&mut tracer));
        soteria_telemetry::set_enabled(false);
        traced.extend(out?);
    }
    let report = soteria_telemetry::snapshot();
    let trace_path =
        std::path::PathBuf::from(format!(".bench_out/trace-{}-seed{}.jsonl", w.name(), seed));
    tracer
        .write_json_lines(&trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    let self_s = tracer.self_seconds();
    let layer = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let layer_sum: f64 = PIPELINE_LAYERS.iter().map(|l| layer(l)).sum();

    // The service's stage histograms from a pass with telemetry on, and
    // sequential screen_binary on the same bytes for the service's overhead
    // over the bare pipeline.
    soteria_telemetry::set_enabled(true);
    soteria_telemetry::reset();
    let (back, _) = run::serve_pass(soteria, &items, &plan, seed);
    let serve_report = soteria_telemetry::snapshot();
    soteria_telemetry::set_enabled(false);
    soteria = back;
    let mut bare_ms = Vec::new();
    let mut seen = vec![false; items.len()];
    for &i in &plan {
        if !std::mem::replace(&mut seen[i], true) {
            let s = request_seed(seed, &items[i].bytes);
            let t = Instant::now();
            black_box(soteria.screen_binary(&items[i].bytes, s));
            bare_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    // Gate: traced, untraced and production verdicts agree, and every
    // eighth equals the sequential screen_binary oracle.
    let mut failures = Vec::new();
    if traced != untraced {
        failures.push("traced and untraced ledger passes disagree".to_owned());
    }
    let production_matches = match w {
        Workload::ServeClosed => plan
            .iter()
            .zip(&production_verdicts)
            .all(|(&i, v)| v.as_ref() == Some(&traced[i])),
        _ => production_verdicts
            .iter()
            .zip(&traced)
            .all(|(a, b)| a.as_ref() == Some(b)),
    };
    if !production_matches {
        failures.push("production path and layer-by-layer path disagree".to_owned());
    }
    let diverged = (0..calls.len())
        .step_by(8)
        .filter(|&k| {
            let (i, s) = calls[k];
            soteria.screen_binary(&items[i].bytes, s) != traced[k]
        })
        .count();
    if diverged > 0 {
        failures.push(format!(
            "{diverged} verdicts differ from the screen_binary oracle"
        ));
    }
    for f in &failures {
        eprintln!("correctness gate: {f}");
    }

    let counter = |name: &str| report.counter(name).unwrap_or(0) as f64;
    let hist_p50 = |name: &str| serve_report.span(name).map_or(0.0, |s| s.p50_ms);
    let per_binary_us = |secs: f64| secs / n * 1e6;
    let classified = traced
        .iter()
        .filter(|v| matches!(v, Verdict::Clean { .. }))
        .count() as f64;
    let mut m = Metrics::default();
    m.put(
        "corpus.parse_us",
        per_binary_us(layer("corpus.parse")),
        "us",
    );
    m.put("corpus.lift_us", per_binary_us(layer("corpus.lift")), "us");
    m.put(
        "cfg.reachable_us",
        per_binary_us(layer("cfg.reachable")),
        "us",
    );
    m.put(
        "features.labeling_us",
        per_binary_us(layer("features.labeling")),
        "us",
    );
    m.put(
        "features.extract_us",
        per_binary_us(layer("features.extract")),
        "us",
    );
    m.put(
        "features.walks_tfidf_us",
        per_binary_us(
            layer("features.extract") - layer("cfg.reachable") - layer("features.labeling"),
        ),
        "us",
    );
    let hits = counter("features.fastpath.hits");
    m.put(
        "features.fastpath_hit_ratio",
        hits / (hits + counter("features.fastpath.fallbacks")),
        "share",
    );
    m.put(
        "core.detector_us",
        per_binary_us(layer("core.detector")),
        "us",
    );
    m.put(
        "core.classifier_us",
        if classified > 0.0 {
            layer("core.classifier") / classified * 1e6
        } else {
            0.0
        },
        "us",
    );
    m.put("core.classified_share", classified / n, "share");
    m.put("core.screen_us", per_binary_us(layer("core.screen")), "us");
    m.put("pool.parallel_gain", layer_sum / production_s, "x");
    m.put("core.layer_coverage", layer_sum / untraced_s, "x");
    m.put("serve.submit_us", median(&quiet.submit_s) * 1e6, "us");
    m.put(
        "serve.overhead_ms",
        median(&miss_latency_s) * 1e3 - median(&bare_ms),
        "ms",
    );
    m.put(
        "serve.cache_hit_ratio",
        quiet.hit.iter().filter(|&&h| h).count() as f64 / plan.len() as f64,
        "share",
    );
    m.put(
        "serve.queue_wait_ms",
        hist_p50("serve.stage.queue_wait"),
        "ms",
    );
    m.put("serve.extract_ms", hist_p50("serve.stage.extract"), "ms");
    m.put(
        "serve.batch_wait_ms",
        hist_p50("serve.stage.batch_wait"),
        "ms",
    );
    m.put("serve.infer_ms", hist_p50("serve.stage.infer"), "ms");
    m.put(
        "serve.batch_size",
        serve_report
            .span("pipeline.screen_batch_size")
            .map_or(0.0, |s| s.mean_ms),
        "count",
    );
    m.put("train.fit_ms", train.stage_ms("fit").unwrap_or(0.0), "ms");
    m.put(
        "train.extract_ms",
        train.stage_ms("extract").unwrap_or(0.0),
        "ms",
    );
    m.put(
        "train.detector_ms",
        train.stage_ms("detector").unwrap_or(0.0),
        "ms",
    );
    m.put(
        "train.classifier_ms",
        train.stage_ms("classifier").unwrap_or(0.0),
        "ms",
    );
    m.put(
        "attacks.craft_us",
        craft.0 / craft.1.max(1) as f64 * 1e6,
        "us",
    );
    m.put("core.artifact_load_ms", artifact_load_s * 1e3, "ms");

    let layers: Vec<String> = self_s
        .iter()
        .map(|(name, s)| format!("\"{name}\":{:.6}", s))
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"host\":{},\"trace\":{{\"spans\":{},\"file\":\"{}\",\
         \"self_seconds\":{{{}}},\"layer_sum_s\":{layer_sum:.6},\"untraced_serial_s\":{:.6},\
         \"production_s\":{production_s:.6},\"tracing_overhead_share\":{:.4},\"gate_failures\":{}}}}}",
        w.name(),
        crate::host::fingerprint_json(),
        tracer.spans.len(),
        trace_path.display(),
        layers.join(","),
        untraced_s,
        layer_sum / untraced_s - 1.0,
        failures.len(),
    );
    let correct = failures.is_empty();
    let degraded = traced.iter().filter(|v| v.is_degraded()).count() as u64;
    println!("{}", result_line(correct, calls.len() as u64, degraded, &m));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
