//! `soteria-exp` — regenerate any table or figure of the Soteria paper, and
//! run the bench and gate commands that measure the pipeline's parts.
//!
//! `soteria-exp --help` lists every command with its flags. The help text
//! is generated from the command table below, so it cannot drift from the
//! parser.
//!
//! The experiment runner prints tables to stdout; with `--out DIR`, each
//! table is also written as CSV for plotting, plus a
//! `<experiment>_metrics.json` telemetry snapshot. `--metrics PATH` writes
//! the whole-run snapshot, and `SOTERIA_METRICS=summary` prints a timing
//! table to stderr on exit, for every command.
//!
//! Each bench command writes its report as `BENCH_<name>.json` under
//! `--out DIR` (default `.`). With `--baseline PATH` it compares the run
//! against a committed report: wall-clock drift is only a note, because
//! wall clock is hardware-bound, while the correctness gates each command
//! documents fail the run.

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use soteria::{Soteria, SoteriaConfig, SoteriaState, StateImage, Verdict};
use soteria_cfg::Cfg;
use soteria_corpus::{Corpus, CorpusConfig, Split};
use soteria_eval::experiments::{self, ALL_EXPERIMENTS, PAPER_EXPERIMENTS};
use soteria_eval::{EvalConfig, ExperimentContext};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One command of the harness.
struct Command {
    /// The word that selects the command; empty for the experiment runner,
    /// which takes experiment ids as positional words instead.
    name: &'static str,
    /// The flags it accepts, as usage prints them: the flag, then the
    /// placeholder of its value if it takes one.
    flags: &'static [&'static str],
    run: fn(&Flags) -> Result<(), String>,
}

/// What runs when the first word names no command.
static RUNNER: Command = Command {
    name: "",
    flags: &[
        "--preset quick|standard|paper",
        "--seed N",
        "--scale F",
        "--out DIR",
        "--metrics PATH",
    ],
    run: run_experiments,
};

/// The flags four of the bench commands share.
const BENCH_FLAGS: &[&str] = &["--seed N", "--out DIR", "--baseline PATH", "--smoke"];

static COMMANDS: [Command; 7] = [
    Command {
        name: "nn-bench",
        flags: BENCH_FLAGS,
        run: run_nn_bench,
    },
    Command {
        name: "extract-bench",
        flags: BENCH_FLAGS,
        run: run_extract_bench,
    },
    Command {
        name: "robustness-bench",
        flags: BENCH_FLAGS,
        run: run_robustness_bench,
    },
    Command {
        name: "overload-bench",
        flags: &[
            "--seed N",
            "--scale F",
            "--out DIR",
            "--baseline PATH",
            "--smoke",
        ],
        run: run_overload_bench,
    },
    Command {
        name: "telemetry-bench",
        flags: &["--out DIR", "--baseline PATH", "--smoke"],
        run: run_telemetry_bench,
    },
    Command {
        name: "artifact-bench",
        flags: BENCH_FLAGS,
        run: run_artifact_bench,
    },
    Command {
        name: "chaos",
        flags: &[
            "--seed N",
            "--samples N",
            "--artifact-cases N",
            "--scale F",
            "--metrics PATH",
        ],
        run: run_chaos,
    },
];

/// The help text, generated from the command table.
fn usage() -> String {
    let synopsis = |c: &Command| {
        let flags: String = c.flags.iter().map(|f| format!(" [{f}]")).collect();
        if c.name.is_empty() {
            format!("soteria-exp{flags} <experiment>...")
        } else {
            format!("soteria-exp {}{flags}", c.name)
        }
    };
    let commands: String = COMMANDS
        .iter()
        .map(|c| format!("       {}\n", synopsis(c)))
        .collect();
    format!(
        "usage: {}\n{commands}       experiments: {} | all | ext\n\n       \
         chaos corrupts binaries and injects deterministic faults, asserting the\n       \
         pipeline degrades per-sample instead of aborting.\n       \
         --metrics PATH writes the run's telemetry snapshot (counters + span timings) as JSON.\n       \
         SOTERIA_METRICS=summary prints a timing summary table to stderr on exit.",
        synopsis(&RUNNER),
        ALL_EXPERIMENTS.join(" ")
    )
}

/// One parsed command line. Each command applies its own defaults to the
/// flags left unset.
#[derive(Debug, Default)]
struct Flags {
    preset: Option<String>,
    seed: Option<u64>,
    scale: Option<f64>,
    samples: Option<usize>,
    artifact_cases: Option<usize>,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    metrics: Option<PathBuf>,
    smoke: bool,
    /// The experiment runner's positional words.
    experiments: Vec<String>,
}

impl Flags {
    /// Parses the words after the command's name, accepting only the flags
    /// `command` lists.
    fn parse(command: &Command, argv: &[String]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let listed = command
                .flags
                .iter()
                .any(|f| f.split(' ').next() == Some(arg.as_str()));
            if !listed {
                if command.name.is_empty() && !arg.starts_with('-') {
                    flags.experiments.push(arg.clone());
                    continue;
                }
                let name = if command.name.is_empty() {
                    String::new()
                } else {
                    format!("{} ", command.name)
                };
                return Err(format!("unknown {name}flag {arg}\n{}", usage()));
            }
            match arg.as_str() {
                "--smoke" => flags.smoke = true,
                "--preset" => flags.preset = Some(value(&mut it, arg)?),
                "--seed" => flags.seed = Some(value(&mut it, arg)?),
                "--scale" => flags.scale = Some(value(&mut it, arg)?),
                "--samples" => flags.samples = Some(value(&mut it, arg)?),
                "--artifact-cases" => flags.artifact_cases = Some(value(&mut it, arg)?),
                "--out" => flags.out = Some(value(&mut it, arg)?),
                "--baseline" => flags.baseline = Some(value(&mut it, arg)?),
                "--metrics" => flags.metrics = Some(value(&mut it, arg)?),
                other => unreachable!("{other} is in a command table but has no parser"),
            }
        }
        Ok(flags)
    }

    /// Writes `report` as pretty JSON to `file` under `--out` (default `.`).
    fn write_report<T: Serialize>(&self, file: &str, report: &T) -> Result<(), String> {
        let out = self.out.as_deref().unwrap_or(Path::new("."));
        std::fs::create_dir_all(out)
            .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
        let path = out.join(file);
        let json = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(())
    }

    /// The committed report `--baseline` names, with its path. A file that
    /// cannot be read or parsed only prints a note: a baseline informs a
    /// run, it never stops one.
    fn baseline<T: DeserializeOwned>(&self) -> Option<(&Path, T)> {
        let path = self.baseline.as_deref()?;
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<T>(&s).map_err(|e| e.to_string()))
        {
            Ok(report) => Some((path, report)),
            Err(e) => {
                eprintln!(
                    "note: cannot compare against baseline {}: {e}",
                    path.display()
                );
                None
            }
        }
    }
}

/// The value after `flag`, parsed as `T`.
fn value<T>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    it.next()
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("bad {}: {e}", flag.trim_start_matches('-')))
}

/// Compute-kernel throughput report, serialized to `BENCH_nn.json`.
#[derive(Debug, Serialize, Deserialize)]
struct NnBenchReport {
    seed: u64,
    smoke: bool,
    /// Threads that actually execute work: pool workers plus the calling
    /// thread. Never 0 — reports written before this rename recorded the
    /// worker count alone, which read as `"pool_threads": 0` on
    /// single-core hosts even though one thread was computing.
    #[serde(default)]
    effective_threads: usize,
    matmul: Vec<MatmulBench>,
    /// m=1 row-vector shapes exercising the dedicated gemv fast path (the
    /// single-sample serving hot path: one feature row through the dense
    /// stacks).
    #[serde(default)]
    gemv: Vec<MatmulBench>,
    conv1d: Conv1dBench,
    classifier: ClassifierBench,
}

/// One `matmul` shape: `[m×k]·[k×n]`, best-of-reps wall time.
#[derive(Debug, Serialize, Deserialize)]
struct MatmulBench {
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
    best_ms: f64,
    gflops: f64,
}

/// Conv1d forward/backward throughput on a CNN-classifier-like shape.
#[derive(Debug, Serialize, Deserialize)]
struct Conv1dBench {
    batch: usize,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    length: usize,
    reps: usize,
    forward_samples_per_sec: f64,
    backward_samples_per_sec: f64,
}

/// Full training-loop throughput of a small conv classifier.
#[derive(Debug, Serialize, Deserialize)]
struct ClassifierBench {
    samples: usize,
    epochs: usize,
    epochs_per_sec: f64,
    final_loss: f32,
}

/// `nn-bench` — time the soteria-nn compute backend in isolation:
/// blocked-GEMM throughput by shape, im2col Conv1d forward/backward
/// throughput, and epochs/sec of a small end-to-end classifier training
/// loop, plus a bit-identity re-check of a detector-shaped dense stack.
/// `--smoke` shrinks every dimension for the CI gate. With `--baseline
/// PATH`, drift against a committed report is *noted* (never fatal:
/// wall-clock numbers are hardware-dependent).
fn run_nn_bench(flags: &Flags) -> Result<(), String> {
    use soteria_nn::{
        Activation, Conv1d, Dense, Layer, Loss, Matrix, MaxPool1d, Sequential, TrainConfig, Trainer,
    };

    let seed = flags.seed.unwrap_or(7);
    let smoke = flags.smoke;
    soteria_nn::backend::warm();
    let effective_threads = soteria_pool::effective_threads();

    // Deterministic dense filler (no zeros: the zero-skip fast path would
    // flatter the FLOP count).
    let fill = |len: usize, mut s: u64| -> Vec<f32> {
        s = s.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 1999) as f32 - 999.0) / 1000.0 + 1.5e-4
            })
            .collect()
    };

    // GEMM shapes drawn from the models in this repo: the AE detector's
    // dense stack (1000→2000→3000) and the CNN classifier's batch GEMMs.
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(64, 256, 256), (32, 1000, 200)]
    } else {
        &[
            (128, 1000, 2000),
            (128, 2000, 3000),
            (64, 256, 256),
            (256, 512, 512),
        ]
    };
    let reps = if smoke { 2 } else { 5 };
    let time_matmul = |m: usize, k: usize, n: usize, reps: usize| -> MatmulBench {
        let a = Matrix::from_vec(m, k, fill(m * k, seed ^ (m as u64)));
        let b = Matrix::from_vec(k, n, fill(k * n, seed ^ (n as u64)));
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = std::time::Instant::now();
            let c = a.matmul(&b);
            let dt = t.elapsed().as_secs_f64();
            assert!(c.data()[0].is_finite());
            best = best.min(dt);
        }
        MatmulBench {
            m,
            k,
            n,
            reps,
            best_ms: best * 1e3,
            gflops: 2.0 * (m * k * n) as f64 / best / 1e9,
        }
    };
    let mut matmul = Vec::new();
    for &(m, k, n) in shapes {
        matmul.push(time_matmul(m, k, n, reps));
    }

    // gemv regression guard: the m=1 dispatch is its own kernel (the
    // single-request serving path), so it gets its own shapes — a
    // regression here would hide inside the batched numbers above.
    let gemv_shapes: &[(usize, usize)] = if smoke {
        &[(256, 256)]
    } else {
        &[(1000, 2000), (2000, 3000), (512, 512)]
    };
    let gemv_reps = if smoke { 4 } else { 20 };
    let mut gemv = Vec::new();
    for &(k, n) in gemv_shapes {
        gemv.push(time_matmul(1, k, n, gemv_reps));
    }

    // Conv1d on a classifier-like shape (the paper's CNN runs 64-channel
    // 1-D convolutions over length-~1000 feature rows).
    let (batch, in_c, out_c, kernel, length) = if smoke {
        (8, 1, 8, 3, 256)
    } else {
        (32, 4, 16, 5, 1024)
    };
    let conv_reps = if smoke { 3 } else { 10 };
    let mut conv = Conv1d::new(in_c, out_c, kernel, length, true, seed);
    let x = Matrix::from_vec(
        batch,
        in_c * length,
        fill(batch * in_c * length, seed ^ 0xC0),
    );
    let g = Matrix::from_vec(
        batch,
        out_c * length,
        fill(batch * out_c * length, seed ^ 0xC1),
    );
    let mut fwd_best = f64::INFINITY;
    let mut bwd_best = f64::INFINITY;
    for _ in 0..conv_reps {
        let t = std::time::Instant::now();
        let y = conv.forward(&x);
        fwd_best = fwd_best.min(t.elapsed().as_secs_f64());
        assert!(y.data()[0].is_finite());
        let t = std::time::Instant::now();
        let gi = conv.backward(&g);
        bwd_best = bwd_best.min(t.elapsed().as_secs_f64());
        assert!(gi.data()[0].is_finite());
        conv.zero_grads();
    }
    let conv1d = Conv1dBench {
        batch,
        in_channels: in_c,
        out_channels: out_c,
        kernel,
        length,
        reps: conv_reps,
        forward_samples_per_sec: batch as f64 / fwd_best,
        backward_samples_per_sec: batch as f64 / bwd_best,
    };

    // End-to-end: a small conv classifier trained with the real Trainer
    // (batch gather, forward, backward, optimizer step).
    let (samples, feat_len, epochs) = if smoke { (64, 64, 2) } else { (256, 256, 8) };
    let mut model = Sequential::new(vec![
        Box::new(Conv1d::new(1, 8, 3, feat_len, true, seed)),
        Box::new(MaxPool1d::new(8, feat_len, 2)),
        Box::new(Dense::new(
            8 * (feat_len / 2),
            32,
            Activation::Relu,
            seed ^ 1,
        )),
        Box::new(Dense::new(32, 2, Activation::Linear, seed ^ 2)),
    ]);
    let train_x = Matrix::from_vec(samples, feat_len, fill(samples * feat_len, seed ^ 0xF0));
    let labels: Vec<usize> = (0..samples).map(|i| i % 2).collect();
    let train_t = soteria_nn::loss::one_hot(&labels, 2);
    let mut trainer = Trainer::new(TrainConfig {
        epochs,
        batch_size: 32,
        learning_rate: 1e-3,
        seed,
        ..TrainConfig::default()
    });
    let history = trainer.fit(&mut model, &train_x, &train_t, Loss::SoftmaxCrossEntropy);
    let classifier = ClassifierBench {
        samples,
        epochs: history.epoch_losses.len(),
        epochs_per_sec: history.epoch_losses.len() as f64 / (history.total_time_ms() / 1e3),
        final_loss: history.final_loss(),
    };

    // Determinism re-check: a detector-shaped dense stack forwarded
    // repeatedly must reproduce its first output bit for bit. A mismatch
    // is a hard failure, not a note, because it means the committed golden
    // vectors no longer pin anything (DESIGN.md §5).
    let dims: Vec<usize> = if smoke {
        vec![256, 384, 256]
    } else {
        vec![1000, 2000, 3000, 2000, 1000]
    };
    let rows = if smoke { 32 } else { 128 };
    let dense_reps = if smoke { 3 } else { 10 };
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for w in dims.windows(2) {
        let last = w[1] == *dims.last().expect("dims non-empty");
        layers.push(Box::new(Dense::new(
            w[0],
            w[1],
            if last {
                Activation::Linear
            } else {
                Activation::Relu
            },
            seed ^ (w[1] as u64),
        )));
    }
    let stack = Sequential::new(layers);
    let x = Matrix::from_vec(rows, dims[0], fill(rows * dims[0], seed ^ 0x18));
    let bits = |m: &Matrix| -> Vec<u32> { m.data().iter().map(|v| v.to_bits()).collect() };
    let f32_ref = bits(&stack.predict(&x));
    for _ in 0..dense_reps {
        if bits(&stack.predict(&x)) != f32_ref {
            return Err(
                "nn-bench: f32 bit-identity drift — repeated forward passes over the \
                        same input disagree; the reference path must be deterministic"
                    .into(),
            );
        }
    }

    let report = NnBenchReport {
        seed,
        smoke,
        effective_threads,
        matmul,
        gemv,
        conv1d,
        classifier,
    };

    println!(
        "nn-bench (seed {seed}{}, {} effective threads):",
        if smoke { ", smoke" } else { "" },
        report.effective_threads
    );
    println!("  matmul         m      k      n   best ms   GFLOP/s");
    for mm in report.matmul.iter().chain(&report.gemv) {
        println!(
            "         {:>7} {:>6} {:>6} {:>9.2} {:>9.2}",
            mm.m, mm.k, mm.n, mm.best_ms, mm.gflops
        );
    }
    println!("  dense   {dims:?} x {rows} rows  bit-identical across {dense_reps} passes");
    println!(
        "  conv1d  [{}x{}c len {} k{} -> {}c]  fwd {:>8.1} samples/s  bwd {:>8.1} samples/s",
        report.conv1d.batch,
        report.conv1d.in_channels,
        report.conv1d.length,
        report.conv1d.kernel,
        report.conv1d.out_channels,
        report.conv1d.forward_samples_per_sec,
        report.conv1d.backward_samples_per_sec
    );
    println!(
        "  classifier  {} samples x {} epochs  {:.2} epochs/s  final loss {:.4}",
        report.classifier.samples,
        report.classifier.epochs,
        report.classifier.epochs_per_sec,
        report.classifier.final_loss
    );

    if let Some((_, committed)) = flags.baseline::<NnBenchReport>() {
        for old in committed.matmul.iter().chain(&committed.gemv) {
            let Some(new) = report
                .matmul
                .iter()
                .chain(&report.gemv)
                .find(|b| (b.m, b.k, b.n) == (old.m, old.k, old.n))
            else {
                continue;
            };
            let ratio = new.gflops / old.gflops.max(1e-9);
            if ratio < 0.7 {
                eprintln!(
                    "note: nn-bench drift at {}x{}x{}: {:.2} GFLOP/s vs baseline {:.2} \
                     ({:.0}% of baseline) — wall-clock numbers are hardware-dependent, \
                     refresh results/BENCH_nn.json if this host is the reference",
                    new.m,
                    new.k,
                    new.n,
                    new.gflops,
                    old.gflops,
                    ratio * 100.0
                );
            }
        }
    }

    flags.write_report("BENCH_nn.json", &report)
}

/// Feature-extraction benchmark report, serialized to `BENCH_extract.json`.
#[derive(Debug, Serialize, Deserialize)]
struct ExtractBenchReport {
    seed: u64,
    smoke: bool,
    /// Threads that actually execute work during the fast-path runs:
    /// pool workers plus the calling thread (never 0).
    #[serde(default)]
    effective_threads: usize,
    samples: usize,
    avg_nodes: f64,
    top_k: usize,
    walks_per_labeling: usize,
    /// Sequential reference path: best wall time for one full pass.
    reference_ms: f64,
    /// Fast path (`extract`): best wall time for the same pass.
    fast_ms: f64,
    /// reference_ms / fast_ms.
    speedup: f64,
    /// Batch entry point (`extract_batch`) over the same samples.
    batch_ms: f64,
    batch_samples_per_sec: f64,
    /// Every fast-path output compared equal (as `f64` bytes) to the
    /// reference output during the measured runs.
    bit_identical: bool,
}

/// `extract-bench` — time the feature-extraction stage in isolation: the
/// sequential reference implementation against the parallel fast path
/// (per-walk RNG streams + interned gram counting + scratch arenas) at an
/// 8-worker pool, asserting bit-identical output while measuring. `--smoke`
/// shrinks the corpus and config for the CI gate. With `--baseline PATH`,
/// drift against a committed report is *noted* (never fatal: wall-clock
/// numbers are hardware-dependent).
fn run_extract_bench(flags: &Flags) -> Result<(), String> {
    use soteria_features::{ExtractorConfig, FeatureExtractor};

    let seed = flags.seed.unwrap_or(7);
    let smoke = flags.smoke;
    // The acceptance target is quoted at an 8-worker pool; the fast path
    // must produce the same bytes at any size (the pool only grows, so
    // this also covers every smaller size for later subcommands).
    soteria_pool::ensure_threads(8);
    let effective_threads = soteria_pool::effective_threads();

    let corpus = Corpus::generate(&CorpusConfig {
        counts: if smoke { [3, 3, 3, 3] } else { [8, 8, 8, 8] },
        seed,
        av_noise: false,
        lineages: 3,
    });
    let graphs: Vec<&Cfg> = corpus.samples().iter().map(|s| s.graph()).collect();
    let avg_nodes =
        graphs.iter().map(|g| g.node_count()).sum::<usize>() as f64 / graphs.len().max(1) as f64;
    let config = if smoke {
        ExtractorConfig::small()
    } else {
        ExtractorConfig::default()
    };
    let extractor = FeatureExtractor::fit(&config, &graphs, seed);

    let reps = if smoke { 2 } else { 5 };
    let walk_seed = |i: usize| seed ^ (0xE17 + i as u64 * 131);

    // Reference pass (the retained sequential oracle).
    let mut reference_ms = f64::INFINITY;
    let mut oracle = Vec::with_capacity(graphs.len());
    for r in 0..reps {
        let t = std::time::Instant::now();
        let pass: Vec<_> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| extractor.extract_reference(g, walk_seed(i)))
            .collect();
        reference_ms = reference_ms.min(t.elapsed().as_secs_f64() * 1e3);
        if r == 0 {
            oracle = pass;
        }
    }

    // Fast-path pass, verified against the oracle while timing (the
    // comparison runs after the clock stops).
    let mut fast_ms = f64::INFINITY;
    let mut bit_identical = true;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let pass: Vec<_> = graphs
            .iter()
            .enumerate()
            .map(|(i, g)| extractor.extract(g, walk_seed(i)))
            .collect();
        fast_ms = fast_ms.min(t.elapsed().as_secs_f64() * 1e3);
        bit_identical &= pass == oracle;
    }

    // Batch entry point (per-sample derived seeds differ from the loop
    // above by design, so this measures throughput, not identity).
    let mut batch_ms = f64::INFINITY;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let pass = extractor.extract_batch(&graphs, seed);
        batch_ms = batch_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(pass.len(), graphs.len());
    }

    let report = ExtractBenchReport {
        seed,
        smoke,
        effective_threads,
        samples: graphs.len(),
        avg_nodes,
        top_k: config.top_k,
        walks_per_labeling: config.walks_per_labeling,
        reference_ms,
        fast_ms,
        speedup: reference_ms / fast_ms.max(1e-9),
        batch_ms,
        batch_samples_per_sec: graphs.len() as f64 / (batch_ms / 1e3).max(1e-9),
        bit_identical,
    };

    println!(
        "extract-bench (seed {seed}{}, {} effective threads): {} samples, avg {:.1} nodes, top_k {}",
        if smoke { ", smoke" } else { "" },
        report.effective_threads,
        report.samples,
        report.avg_nodes,
        report.top_k,
    );
    println!(
        "  reference {:>8.2} ms   fast {:>8.2} ms   speedup {:.2}x   bit-identical: {}",
        report.reference_ms, report.fast_ms, report.speedup, report.bit_identical
    );
    println!(
        "  batch     {:>8.2} ms   {:.1} samples/s",
        report.batch_ms, report.batch_samples_per_sec
    );
    if !report.bit_identical {
        return Err("extract-bench: fast path diverged from the reference output".into());
    }

    if let Some((_, committed)) = flags.baseline::<ExtractBenchReport>() {
        let ratio = report.speedup / committed.speedup.max(1e-9);
        if ratio < 0.7 {
            eprintln!(
                "note: extract-bench drift: speedup {:.2}x vs baseline {:.2}x ({:.0}% of \
                 baseline) — wall-clock numbers are hardware-dependent, refresh \
                 results/BENCH_extract.json if this host is the reference",
                report.speedup,
                committed.speedup,
                ratio * 100.0
            );
        }
    }

    flags.write_report("BENCH_extract.json", &report)
}

/// One attack × strength × direction cell of the robustness matrix.
#[derive(Debug, Serialize, Deserialize)]
struct RobustnessCell {
    kind: String,
    name: String,
    strength: String,
    direction: String,
    /// Crafted adversarial samples screened in this cell (all valid — an
    /// invalid crafted sample aborts the bench).
    crafted: usize,
    detected: usize,
    evaded: usize,
    degraded: usize,
    detection_rate: f64,
    evasion_rate: f64,
    /// Mean structural diff (nodes + edges changed) per crafted sample.
    mean_structural_edits: f64,
    mean_nodes_added: f64,
    /// Mean greedy refinement steps spent (0 for one-shot attacks).
    mean_refinement_edits: f64,
}

/// Robustness matrix over the standard attack zoo, serialized to
/// `BENCH_robustness.json`.
#[derive(Debug, Serialize, Deserialize)]
struct RobustnessBenchReport {
    seed: u64,
    smoke: bool,
    /// Pool workers plus the calling thread (never 0).
    #[serde(default)]
    effective_threads: usize,
    corpus_samples: usize,
    train_samples: usize,
    test_samples: usize,
    /// Detector threshold (μ + α·σ) of the trained pipeline.
    threshold: f64,
    /// Distinct attack families (matrix row groups) covered.
    attack_families: usize,
    /// Detection rate pooled over every cell.
    overall_detection_rate: f64,
    cells: Vec<RobustnessCell>,
}

fn run_robustness_bench(flags: &Flags) -> Result<(), String> {
    use soteria::AeDetector;
    use soteria_attacks::{batch_seed, craft_batch, standard_zoo, validate, ZooBuild};
    use soteria_corpus::corpus::Sample;
    use soteria_gea::TargetSelection;

    let seed = flags.seed.unwrap_or(7);
    let smoke = flags.smoke;
    // Pin the pool: crafting and screening are bit-identical at any size
    // (enforced by tests/attack_validity.rs), so this only fixes timing.
    soteria_pool::ensure_threads(8);
    let effective_threads = soteria_pool::effective_threads();

    let corpus = Corpus::generate(&CorpusConfig {
        counts: if smoke {
            [6, 6, 6, 6]
        } else {
            [16, 16, 16, 16]
        },
        seed,
        av_noise: false,
        lineages: 3,
    });
    let split = corpus.split(0.8, seed ^ 0x5917);
    let soteria = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, seed)
        .map_err(|e| format!("robustness-bench: training failed: {e}"))?;
    let threshold = soteria.detector_ref().stats().threshold();
    let extractor = soteria.extractor().clone();

    // Mimicry goal: the mean combined feature vector of the benign
    // training samples, under the trained vocabulary.
    let benign_graphs: Vec<&Cfg> = split
        .train
        .iter()
        .map(|&i| &corpus.samples()[i])
        .filter(|s| s.family() == soteria_corpus::Family::Benign)
        .map(|s| s.graph())
        .collect();
    let benign_feats = extractor.extract_batch(&benign_graphs, seed ^ 0xCE27);
    let mut benign_centroid = vec![0.0; extractor.combined_dim()];
    for f in &benign_feats {
        for (c, x) in benign_centroid.iter_mut().zip(f.combined()) {
            *c += x;
        }
    }
    for c in &mut benign_centroid {
        *c /= benign_feats.len().max(1) as f64;
    }

    let selection = TargetSelection::select(&corpus);
    let zoo = {
        let detector: &AeDetector = soteria.detector_ref();
        standard_zoo(&ZooBuild {
            corpus: &corpus,
            selection: &selection,
            extractor: &extractor,
            detector,
            benign_centroid,
        })
    };

    let cap = if smoke { 6 } else { 12 };
    let mut cells: Vec<RobustnessCell> = Vec::new();
    let mut total_crafted = 0usize;
    let mut total_detected = 0usize;
    for (ei, entry) in zoo.iter().enumerate() {
        let originals: Vec<&Sample> = split
            .test
            .iter()
            .map(|&i| &corpus.samples()[i])
            .filter(|s| entry.direction.applies_to(s.family()))
            .take(cap)
            .collect();
        if originals.is_empty() {
            eprintln!(
                "note: robustness-bench: no eligible originals for {} ({}), cell skipped",
                entry.attack.name(),
                entry.direction
            );
            continue;
        }
        let master = seed ^ (0xA77 + ei as u64 * 1000);
        let mut crafted = Vec::with_capacity(originals.len());
        for (i, result) in craft_batch(entry.attack.as_ref(), &originals, master)
            .into_iter()
            .enumerate()
        {
            let sample = result.map_err(|e| {
                format!(
                    "robustness-bench: {} failed to craft sample {i}: {e}",
                    entry.attack.name()
                )
            })?;
            // Validity is the gate: an invalid "adversarial example" proves
            // nothing about the detector, so any violation is fatal.
            validate(
                entry.attack.as_ref(),
                &sample,
                Some(&extractor),
                batch_seed(master, i as u64),
            )
            .map_err(|v| {
                format!(
                    "robustness-bench: {} crafted an invalid sample ({v})",
                    entry.attack.name()
                )
            })?;
            crafted.push(sample);
        }
        // Determinism spot-check: re-crafting with the batch's own seed
        // must reproduce the binary bit for bit.
        let recraft = entry
            .attack
            .craft(originals[0], batch_seed(master, 0))
            .map_err(|e| format!("robustness-bench: re-craft failed: {e}"))?;
        if recraft.sample().binary().to_bytes() != crafted[0].sample().binary().to_bytes() {
            return Err(format!(
                "robustness-bench: {} is nondeterministic — re-crafting with the same seed \
                 produced different bytes",
                entry.attack.name()
            ));
        }

        // Screen the crafted executables' bytes through the production
        // batch path; validate() above already pinned that each re-lifts
        // to exactly its crafted graph.
        let binaries: Vec<Vec<u8>> = crafted
            .iter()
            .map(|c| c.sample().binary().to_bytes())
            .collect();
        let items: Vec<(&[u8], u64)> = binaries
            .iter()
            .enumerate()
            .map(|(i, b)| (b.as_slice(), batch_seed(master, i as u64)))
            .collect();
        let verdicts = soteria.screen_many_seeded(&items);
        let detected = verdicts.iter().filter(|v| v.is_adversarial()).count();
        let degraded = verdicts.iter().filter(|v| v.is_degraded()).count();
        let evaded = verdicts.len() - detected - degraded;
        let n = crafted.len() as f64;
        total_crafted += crafted.len();
        total_detected += detected;
        cells.push(RobustnessCell {
            kind: entry.kind.to_string(),
            name: entry.attack.name(),
            strength: entry.strength.clone(),
            direction: entry.direction.to_string(),
            crafted: crafted.len(),
            detected,
            evaded,
            degraded,
            detection_rate: detected as f64 / n,
            evasion_rate: evaded as f64 / n,
            mean_structural_edits: crafted
                .iter()
                .map(|c| c.cost().total_structural() as f64)
                .sum::<f64>()
                / n,
            mean_nodes_added: crafted
                .iter()
                .map(|c| c.cost().nodes_added as f64)
                .sum::<f64>()
                / n,
            mean_refinement_edits: crafted
                .iter()
                .map(|c| c.cost().refinement_edits as f64)
                .sum::<f64>()
                / n,
        });
    }

    let families: std::collections::HashSet<&str> = cells.iter().map(|c| c.kind.as_str()).collect();
    if families.len() < 4 {
        return Err(format!(
            "robustness-bench: only {} attack families produced cells (need ≥ 4)",
            families.len()
        ));
    }

    let report = RobustnessBenchReport {
        seed,
        smoke,
        effective_threads,
        corpus_samples: corpus.samples().len(),
        train_samples: split.train.len(),
        test_samples: split.test.len(),
        threshold,
        attack_families: families.len(),
        overall_detection_rate: total_detected as f64 / total_crafted.max(1) as f64,
        cells,
    };

    println!(
        "robustness-bench (seed {seed}{}, {} effective threads): {} attack families, {} cells, \
         {} crafted samples, threshold {:.4}",
        if smoke { ", smoke" } else { "" },
        report.effective_threads,
        report.attack_families,
        report.cells.len(),
        total_crafted,
        report.threshold,
    );
    println!(
        "  {:<28} {:<12} {:>7} {:>9} {:>8} {:>9} {:>10}",
        "attack", "direction", "crafted", "detected", "evaded", "det-rate", "mean-edits"
    );
    for c in &report.cells {
        println!(
            "  {:<28} {:<12} {:>7} {:>9} {:>8} {:>8.0}% {:>10.1}",
            c.name,
            c.direction,
            c.crafted,
            c.detected,
            c.evaded,
            c.detection_rate * 100.0,
            c.mean_structural_edits,
        );
    }
    println!(
        "  overall detection rate {:.0}%",
        report.overall_detection_rate * 100.0
    );

    match flags.baseline::<RobustnessBenchReport>() {
        Some((path, committed))
            if committed.smoke == report.smoke && committed.seed == report.seed =>
        {
            // The run is fully deterministic under (seed, smoke), so the
            // committed detection rates are a floor, not a noisy estimate:
            // any drop is a real robustness regression and fails the gate.
            for old in &committed.cells {
                let Some(new) = report.cells.iter().find(|c| {
                    c.kind == old.kind && c.strength == old.strength && c.direction == old.direction
                }) else {
                    return Err(format!(
                        "robustness-bench: baseline cell {} ({}, {}) missing from this run",
                        old.name, old.strength, old.direction
                    ));
                };
                if new.detection_rate < old.detection_rate - 1e-9 {
                    return Err(format!(
                        "robustness-bench: detection rate for {} ({}) dropped below the \
                         baseline floor: {:.3} < {:.3}",
                        new.name, new.direction, new.detection_rate, old.detection_rate
                    ));
                }
                if new.detection_rate > old.detection_rate + 1e-9 {
                    eprintln!(
                        "note: robustness-bench drift: {} ({}) detection rate {:.3} vs \
                         baseline {:.3} — refresh results/BENCH_robustness.json to ratchet \
                         the floor",
                        new.name, new.direction, new.detection_rate, old.detection_rate
                    );
                }
            }
            println!(
                "  baseline floor held across {} cells ({})",
                committed.cells.len(),
                path.display()
            );
        }
        Some((path, committed)) => eprintln!(
            "note: baseline {} was recorded with seed {} smoke {}, this run is seed {} \
             smoke {} — floor not comparable, skipping",
            path.display(),
            committed.seed,
            committed.smoke,
            report.seed,
            report.smoke
        ),
        None => {}
    }

    flags.write_report("BENCH_robustness.json", &report)
}

/// Telemetry hot-path overhead report, serialized to
/// `BENCH_telemetry.json`.
#[derive(Debug, Serialize, Deserialize)]
struct TelemetryBenchReport {
    iters_per_thread: u64,
    /// Per-op cost of each telemetry primitive, enabled and disabled.
    runs: Vec<TelemetryBenchRun>,
    /// End-to-end cost of telemetry on a synthetic screening-shaped
    /// workload (hashing work plus the per-request metrics the service
    /// records).
    workload: WorkloadOverhead,
}

/// One (op, thread count, enabled) cell of the overhead matrix.
#[derive(Debug, Serialize, Deserialize)]
struct TelemetryBenchRun {
    op: String,
    threads: usize,
    enabled: bool,
    ns_per_op: f64,
    mops_per_sec: f64,
}

/// Throughput of the synthetic workload with telemetry on vs off.
#[derive(Debug, Serialize, Deserialize)]
struct WorkloadOverhead {
    items: u64,
    disabled_ms: f64,
    enabled_ms: f64,
    /// `(enabled - disabled) / disabled`, as a percentage. The budget is
    /// 2%: above that the instrumentation is taxing the serving fleet.
    overhead_percent: f64,
}

/// Times `iters` calls of `op` on each of `threads` threads recording
/// into the currently active registry; returns wall-clock ns per op.
fn time_telemetry_op<F>(threads: usize, iters: u64, op: F) -> f64
where
    F: Fn(u64) + Sync,
{
    let telemetry = soteria_telemetry::RegistryHandle::current();
    let op = &op;
    let started = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let telemetry = telemetry.clone();
            s.spawn(move || {
                let _telemetry = telemetry.attach();
                for i in 0..iters {
                    op(i);
                }
            });
        }
    });
    started.elapsed().as_nanos() as f64 / (iters * threads as u64) as f64
}

/// A screening-shaped unit of work: serially-dependent hashing sized to
/// ~20 µs, the floor of what one real request costs in extraction plus
/// inference (real p50 is milliseconds — this is the *hardest* case for
/// the overhead budget, not the typical one). Returns the hash so the
/// optimizer cannot delete the loop.
fn synthetic_screen_work(i: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ i;
    for round in 0..16_384u64 {
        h = (h ^ round).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `telemetry-bench` — measure the hot-path cost of every telemetry
/// primitive (enabled and disabled, single-threaded and contended) plus the
/// end-to-end overhead on a screening-shaped workload, and write
/// `BENCH_telemetry.json`.
///
/// Overhead above the 2% budget and drift against `--baseline` are
/// *noted*, never fatal: wall-clock numbers are hardware-dependent.
fn run_telemetry_bench(flags: &Flags) -> Result<(), String> {
    let smoke = flags.smoke;
    let iters: u64 = if smoke { 200_000 } else { 2_000_000 };
    let items: u64 = if smoke { 5_000 } else { 50_000 };

    type OpFn = fn(u64);
    let ops: [(&str, OpFn); 4] = [
        ("counter", |_| soteria_telemetry::counter("tb.counter", 1)),
        ("record", |i| {
            soteria_telemetry::record("tb.hist", (i & 0xff) as f64)
        }),
        ("span", |_| drop(soteria_telemetry::span("tb.span"))),
        ("event", |i| soteria_telemetry::event("tb.event", i as f64)),
    ];

    let mut runs = Vec::new();
    for (op_name, op) in ops {
        for threads in [1usize, 8] {
            for enabled in [true, false] {
                // Fresh registry per cell so interning and histogram
                // state never carry across measurements.
                let _scope = soteria_telemetry::scoped();
                soteria_telemetry::set_enabled(enabled);
                // Warm up: intern the name and assign counter stripes.
                op(0);
                let ns_per_op = time_telemetry_op(threads, iters, op);
                runs.push(TelemetryBenchRun {
                    op: op_name.to_owned(),
                    threads,
                    enabled,
                    ns_per_op,
                    mops_per_sec: 1e3 / ns_per_op,
                });
            }
        }
    }

    // End-to-end: the same hashing workload with the per-request metrics
    // the service records, telemetry off vs on. Alternating best-of-three
    // passes, so a turbo/scheduling hiccup in one pass cannot masquerade
    // as instrumentation overhead; the sleep lets the 8-thread per-op
    // benches above stop biasing the first passes thermally.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let mut workload_ms = [f64::INFINITY; 2];
    let mut sink = 0u64;
    for (slot, enabled) in [
        (0usize, false),
        (1, true),
        (0, false),
        (1, true),
        (0, false),
        (1, true),
    ] {
        let _scope = soteria_telemetry::scoped();
        soteria_telemetry::set_enabled(enabled);
        let started = std::time::Instant::now();
        for i in 0..items {
            sink = sink.wrapping_add(synthetic_screen_work(i));
            // The per-request metric set the screening service records:
            // a counter, the queue-depth gauge up and down, and the five
            // stage histograms.
            soteria_telemetry::counter("tb.workload.submitted", 1);
            soteria_telemetry::gauge_add("tb.workload.queue", 1);
            soteria_telemetry::record("tb.workload.queue_wait", 0.01);
            soteria_telemetry::record("tb.workload.extract", 0.8);
            soteria_telemetry::record("tb.workload.batch_wait", 0.05);
            soteria_telemetry::record("tb.workload.infer", 0.2);
            soteria_telemetry::record("tb.workload.total", 1.1);
            soteria_telemetry::gauge_add("tb.workload.queue", -1);
        }
        workload_ms[slot] = workload_ms[slot].min(started.elapsed().as_secs_f64() * 1e3);
    }
    std::hint::black_box(sink);
    let workload = WorkloadOverhead {
        items,
        disabled_ms: workload_ms[0],
        enabled_ms: workload_ms[1],
        overhead_percent: (workload_ms[1] - workload_ms[0]) / workload_ms[0].max(1e-9) * 100.0,
    };

    println!("telemetry-bench ({iters} iters/thread):");
    println!("  op       threads  enabled   ns/op    Mops/s");
    for r in &runs {
        println!(
            "  {:<8} {:>7} {:>8} {:>8.1} {:>9.2}",
            r.op,
            r.threads,
            if r.enabled { "on" } else { "off" },
            r.ns_per_op,
            r.mops_per_sec
        );
    }
    println!(
        "  workload ({} items): disabled {:.1} ms, enabled {:.1} ms -> {:+.2}% overhead",
        workload.items, workload.disabled_ms, workload.enabled_ms, workload.overhead_percent
    );
    if workload.overhead_percent > 2.0 {
        eprintln!(
            "note: telemetry overhead {:.2}% exceeds the 2% budget — wall-clock numbers are \
             hardware-dependent, but investigate before shipping instrumentation changes",
            workload.overhead_percent
        );
    }

    if let Some((_, committed)) = flags.baseline::<TelemetryBenchReport>() {
        for old in &committed.runs {
            let Some(new) = runs
                .iter()
                .find(|r| r.op == old.op && r.threads == old.threads && r.enabled == old.enabled)
            else {
                continue;
            };
            if new.ns_per_op > old.ns_per_op.max(1.0) * 1.5 {
                eprintln!(
                    "note: telemetry-bench drift: {} (threads {}, {}) {:.1} ns/op vs \
                     baseline {:.1} — refresh results/BENCH_telemetry.json if this host \
                     is the reference",
                    new.op,
                    new.threads,
                    if new.enabled { "on" } else { "off" },
                    new.ns_per_op,
                    old.ns_per_op
                );
            }
        }
    }

    let report = TelemetryBenchReport {
        iters_per_thread: iters,
        runs,
        workload,
    };
    flags.write_report("BENCH_telemetry.json", &report)
}

/// Overload harness report, serialized to `BENCH_overload.json`.
#[derive(Debug, Serialize, Deserialize)]
struct OverloadBenchReport {
    seed: u64,
    smoke: bool,
    corpus_scale: f64,
    chaos: bool,
    workers: usize,
    queue_capacity: usize,
    deadline_ms: u64,
    /// Closed-loop service rate measured by the calibration pass; the
    /// open-loop arrival rates are multiples of this.
    saturation_rps: f64,
    runs: Vec<OverloadRun>,
    /// p99 of *accepted* requests at 4x saturation over the same p99 at
    /// 0.5x (the uncontended baseline). The contract is that shedding
    /// absorbs the excess: this should stay near 1, and above 2 the
    /// admission layer is letting the queue eat the overload.
    p99_ratio_4x_vs_uncontended: f64,
    /// Every accepted, non-degraded verdict compared bit-identical to a
    /// sequential chaos-free `screen_binary` of the same content.
    accepted_bit_identical: bool,
    accepted_verified: usize,
}

/// One open-loop arrival-rate point of the overload harness.
#[derive(Debug, Serialize, Deserialize)]
struct OverloadRun {
    rate_multiplier: f64,
    offered_rps: f64,
    requests: usize,
    accepted: usize,
    rejected: usize,
    rejected_by_reason: std::collections::BTreeMap<String, usize>,
    /// Accepted requests that resolved `Degraded` (deadline expiry,
    /// brownout, chaos) — still exactly one terminal outcome each.
    degraded: usize,
    degraded_by_slug: std::collections::BTreeMap<String, usize>,
    shed_rate: f64,
    accepted_p50_ms: f64,
    accepted_p95_ms: f64,
    accepted_p99_ms: f64,
    deadline_expired: u64,
    brownout: u64,
    breaker_trips: u64,
}

/// Trains the tiny preset on the 80% split of a corpus at `scale`, with
/// chaos disarmed: the gates that call this exercise serving, not
/// training.
fn train_tiny(command: &str, scale: f64, seed: u64) -> Result<(Corpus, Split, Soteria), String> {
    soteria_resilience::set_chaos_seed(None);
    let corpus = Corpus::generate(&CorpusConfig::scaled(scale, seed));
    let split = corpus.split(0.8, seed);
    eprintln!(
        "[{command}] corpus scale {scale} -> {} samples; training tiny system...",
        corpus.len()
    );
    let system = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, seed)
        .map_err(|e| format!("{command} training failed: {e}"))?;
    Ok((corpus, split, system))
}

/// Nearest-rank percentile of an ascending-sorted latency sample.
fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `overload-bench` — the chaos-driven overload harness. Trains the tiny
/// preset, calibrates the service's closed-loop saturation rate, then
/// replays open-loop arrival schedules at 0.5x/1x/2x/4x saturation with
/// deterministic chaos armed (slow workers + extraction panics) and the
/// full admission stack on (deadlines, brownout, reject tier, breaker).
///
/// Hard invariants (fatal on violation):
/// - every submission reaches exactly one terminal outcome — rejected at
///   admission, or exactly one verdict; a ticket that stays unresolved
///   past the hang budget fails the run;
/// - every accepted, non-degraded verdict is bit-identical to a
///   sequential chaos-free `screen_binary` of the identical content.
///
/// The p99-flatness contract (accepted p99 at 4x within 2x of the
/// uncontended baseline) is recorded in the report and *noted* when
/// violated; drift vs `--baseline` is likewise never fatal.
fn run_overload_bench(flags: &Flags) -> Result<(), String> {
    use soteria_serve::{
        request_seed, AdmissionConfig, BreakerConfig, RateLimit, ScreeningService, ServeConfig,
        Submit, SubmitOptions, Ticket,
    };
    use std::collections::BTreeMap;
    use std::time::{Duration, Instant};

    let seed = flags.seed.unwrap_or(7);
    let smoke = flags.smoke;
    let mut scale = flags.scale.unwrap_or(0.01);
    if smoke {
        scale = scale.min(0.004);
    }

    let (corpus, split, mut system) = train_tiny("overload-bench", scale, seed)?;

    // Unique request contents: each held-out binary with a distinct
    // trailing salt, so no request hits the verdict cache and every
    // accepted request pays the full extract+infer cost. Trailing bytes
    // change the content hash (and therefore the walk seed) without
    // making the binary unparseable.
    let per_rate = if smoke { 32usize } else { 160 };
    let rates = [0.5f64, 1.0, 2.0, 4.0];
    let make_request = |rate_idx: usize, i: usize| -> Vec<u8> {
        let mut bytes = corpus.samples()[split.test[i % split.test.len()]]
            .binary()
            .to_bytes();
        bytes.extend_from_slice(&((rate_idx as u64) << 32 | i as u64).to_le_bytes());
        bytes
    };

    // Calibration: closed-loop sequential screening of one rate's worth
    // of requests measures the per-sample service time. Chaos stays off
    // here — the arrival schedule should target the healthy service rate.
    let calibrate = per_rate.min(16);
    let cal_started = Instant::now();
    for i in 0..calibrate {
        let bytes = make_request(usize::MAX, i);
        let _ = system.screen_binary(&bytes, request_seed(seed, &bytes));
    }
    let mean_ms = cal_started.elapsed().as_secs_f64() * 1e3 / calibrate as f64;
    let workers = if smoke { 2usize } else { 4 };
    let saturation_rps = workers as f64 * 1e3 / mean_ms.max(1e-3);
    let deadline = Duration::from_secs_f64((mean_ms * 8.0 / 1e3).clamp(0.05, 1.0));
    let queue_capacity = workers * 8;
    eprintln!(
        "[overload-bench] mean service {mean_ms:.2} ms -> saturation {saturation_rps:.0} req/s, \
         deadline {} ms, queue {queue_capacity}",
        deadline.as_millis()
    );

    // Arm deterministic chaos (slow workers + extraction panics) and
    // silence the hook: injected panics are caught by the isolates.
    std::panic::set_hook(Box::new(|_| {}));
    soteria_resilience::set_chaos_seed(Some(seed));

    let hang_budget = Duration::from_secs(30);
    let mut runs = Vec::new();
    // Accepted, non-degraded verdicts to verify bit-identical afterwards.
    let mut to_verify: Vec<(Vec<u8>, Verdict)> = Vec::new();
    for (rate_idx, &multiplier) in rates.iter().enumerate() {
        let offered = saturation_rps * multiplier;
        let interarrival = Duration::from_secs_f64(1.0 / offered.max(1e-9));
        let config = ServeConfig {
            workers,
            queue_capacity,
            cache_capacity: 0,
            batch_window: Duration::ZERO,
            max_batch: 8,
            seed,
            admission: AdmissionConfig {
                default_deadline: Some(deadline),
                // Per-client limiting is exercised by the unit tests; the
                // bench offers one open-loop stream, so a per-client cap
                // would only re-measure the configured rate.
                rate_limit: None::<RateLimit>,
                brownout_threshold: Some(0.75),
                reject_threshold: Some(0.95),
                breaker: Some(BreakerConfig::default()),
            },
            ..ServeConfig::default()
        };
        let service = ScreeningService::start(system, &config);

        // Open-loop arrivals: the submitter never blocks on a verdict —
        // it paces submissions and hands accepted tickets to waiters.
        let mut outcomes = 0usize;
        let mut rejected_by_reason: BTreeMap<String, usize> = BTreeMap::new();
        let mut pending: Vec<(usize, Instant, Ticket)> = Vec::new();
        let mut next_due = Instant::now();
        for i in 0..per_rate {
            let now = Instant::now();
            if now < next_due {
                std::thread::sleep(next_due - now);
            }
            next_due += interarrival;
            let bytes = make_request(rate_idx, i);
            match service.submit_with(bytes, SubmitOptions::default()) {
                Submit::Accepted(ticket) => pending.push((i, Instant::now(), ticket)),
                Submit::Rejected { reason, .. } => {
                    outcomes += 1;
                    *rejected_by_reason
                        .entry(reason.slug().to_owned())
                        .or_default() += 1;
                }
            }
        }

        // Drain every accepted ticket; one that outlives the hang budget
        // is a stuck request and fails the whole run.
        let mut accepted_latencies = Vec::with_capacity(pending.len());
        let mut degraded_by_slug: BTreeMap<String, usize> = BTreeMap::new();
        let accepted = pending.len();
        for (i, submitted, ticket) in pending {
            let verdict = ticket.wait_for(hang_budget).map_err(|_| {
                format!(
                    "overload-bench {multiplier}x: request {i} hung past {}s",
                    hang_budget.as_secs()
                )
            })?;
            accepted_latencies.push(submitted.elapsed().as_secs_f64() * 1e3);
            outcomes += 1;
            match &verdict {
                Verdict::Degraded { reason } => {
                    *degraded_by_slug
                        .entry(reason.slug().to_owned())
                        .or_default() += 1;
                }
                _ => to_verify.push((make_request(rate_idx, i), verdict)),
            }
        }
        let stats = service.stats();
        system = service.shutdown();

        if outcomes != per_rate {
            return Err(format!(
                "overload-bench {multiplier}x: {outcomes} terminal outcomes for {per_rate} \
                 submissions — exactly-one-outcome invariant violated"
            ));
        }
        accepted_latencies.sort_by(|a, b| a.total_cmp(b));
        let rejected: usize = rejected_by_reason.values().sum();
        runs.push(OverloadRun {
            rate_multiplier: multiplier,
            offered_rps: offered,
            requests: per_rate,
            accepted,
            rejected,
            rejected_by_reason,
            degraded: degraded_by_slug.values().sum(),
            degraded_by_slug,
            shed_rate: rejected as f64 / per_rate as f64,
            accepted_p50_ms: percentile_ms(&accepted_latencies, 50.0),
            accepted_p95_ms: percentile_ms(&accepted_latencies, 95.0),
            accepted_p99_ms: percentile_ms(&accepted_latencies, 99.0),
            deadline_expired: stats.deadline_expired,
            brownout: stats.brownout,
            breaker_trips: stats.breaker_trips,
        });
    }

    // Restore normal panic reporting, disarm chaos, and verify: every
    // accepted non-degraded verdict must equal the sequential chaos-free
    // screening of the identical content.
    let _ = std::panic::take_hook();
    soteria_resilience::set_chaos_seed(None);
    let accepted_verified = to_verify.len();
    let mut accepted_bit_identical = true;
    for (bytes, verdict) in &to_verify {
        let expected = system.screen_binary(bytes, request_seed(seed, bytes));
        if *verdict != expected {
            accepted_bit_identical = false;
            eprintln!("overload-bench: divergent verdict {verdict:?} (expected {expected:?})");
        }
    }

    let p99_ratio = runs[3].accepted_p99_ms / runs[0].accepted_p99_ms.max(1e-9);
    let report = OverloadBenchReport {
        seed,
        smoke,
        corpus_scale: scale,
        chaos: true,
        workers,
        queue_capacity,
        deadline_ms: deadline.as_millis() as u64,
        saturation_rps,
        runs,
        p99_ratio_4x_vs_uncontended: p99_ratio,
        accepted_bit_identical,
        accepted_verified,
    };

    println!(
        "overload-bench (seed {seed}{}, {} workers, deadline {} ms, saturation {:.0} req/s):",
        if smoke { ", smoke" } else { "" },
        report.workers,
        report.deadline_ms,
        report.saturation_rps
    );
    println!("  rate  offered/s  accepted  rejected  degraded  shed%   p50ms   p95ms   p99ms");
    for run in &report.runs {
        println!(
            "  {:>3.1}x {:>9.0} {:>9} {:>9} {:>9} {:>6.0} {:>7.2} {:>7.2} {:>7.2}",
            run.rate_multiplier,
            run.offered_rps,
            run.accepted,
            run.rejected,
            run.degraded,
            run.shed_rate * 100.0,
            run.accepted_p50_ms,
            run.accepted_p95_ms,
            run.accepted_p99_ms
        );
    }
    println!(
        "  p99 4x/uncontended {:.2}x; {} accepted verdicts verified bit-identical: {}",
        report.p99_ratio_4x_vs_uncontended,
        report.accepted_verified,
        if report.accepted_bit_identical {
            "yes"
        } else {
            "NO"
        }
    );

    if !report.accepted_bit_identical {
        return Err("overload-bench: accepted verdicts diverged from sequential screening".into());
    }
    if report.p99_ratio_4x_vs_uncontended > 2.0 {
        eprintln!(
            "note: accepted p99 grew {:.2}x from 0.5x to 4x saturation (budget 2x) — the \
             shed tiers are letting queueing delay through; wall-clock numbers are \
             hardware-dependent, but investigate before shipping admission changes",
            report.p99_ratio_4x_vs_uncontended
        );
    }

    if let Some((_, committed)) = flags.baseline::<OverloadBenchReport>() {
        let ratio =
            report.p99_ratio_4x_vs_uncontended / committed.p99_ratio_4x_vs_uncontended.max(1e-9);
        if ratio > 1.5 {
            eprintln!(
                "note: overload-bench drift: p99 ratio {:.2}x vs baseline {:.2}x — \
                 wall-clock numbers are hardware-dependent, refresh \
                 results/BENCH_overload.json if this host is the reference",
                report.p99_ratio_4x_vs_uncontended, committed.p99_ratio_4x_vs_uncontended
            );
        }
    }

    flags.write_report("BENCH_overload.json", &report)
}

/// The verdicts `m` gives `probes`, screened with seeds counting up from
/// `first_seed`, rendered for comparison.
fn probe_verdicts(m: &Soteria, probes: &[Vec<u8>], first_seed: u64) -> String {
    let items: Vec<(&[u8], u64)> = probes
        .iter()
        .enumerate()
        .map(|(i, b)| (b.as_slice(), first_seed + i as u64))
        .collect();
    format!("{:?}", m.screen_many_seeded(&items))
}

/// What loading one corrupted artifact did: 0 rejected it with a typed
/// error, 1 loaded a model whose probe verdicts equal `expected`, 2 loaded
/// one whose verdicts differ, 3 panicked.
fn load_outcome(corrupted: &[u8], probes: &[Vec<u8>], first_seed: u64, expected: &str) -> usize {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match StateImage::parse(corrupted).and_then(|img| Soteria::load_image(&img)) {
            Err(_) => 0,
            Ok(m) => {
                let differs = probe_verdicts(&m, probes, first_seed) != expected;
                1 + usize::from(differs)
            }
        }
    }))
    .unwrap_or(3)
}

/// The cold-start comparison and its correctness gates, committed as
/// `results/BENCH_artifact.json`.
#[derive(Debug, Serialize, Deserialize)]
struct ArtifactBenchReport {
    seed: u64,
    smoke: bool,
    /// Serialized sizes of the identical trained state.
    json_bytes: u64,
    artifact_bytes: u64,
    sections: usize,
    /// Median cold-load wall time from disk, file → ready-to-serve system.
    json_cold_ms: f64,
    artifact_cold_ms: f64,
    /// `json_cold_ms / artifact_cold_ms` — the instant-start headline.
    speedup: f64,
    /// HARD GATE: both loads verdict-identical to the trained system.
    verdicts_identical: bool,
    probe_count: usize,
    /// Corruption mini-sweep over the artifact (same gate as `chaos`).
    corruption_cases: usize,
    corruption_rejected: usize,
    corruption_loaded_identical: usize,
    /// HARD GATES: both must be zero.
    corruption_diverged: usize,
    corruption_panics: usize,
}

/// `artifact-bench` — trains one system, saves it as both the v2 JSON
/// envelope and the v3 binary artifact, and measures the cold file →
/// ready-to-serve wall time of each. HARD-FAILS if the two loads are not
/// verdict-identical, or if any corrupted artifact panics the loader or
/// loads with different verdicts. The speedup itself is recorded, and drift
/// against `--baseline` is noted, not fatal — wall clock is hardware-bound,
/// correctness is not.
fn run_artifact_bench(flags: &Flags) -> Result<(), String> {
    let seed = flags.seed.unwrap_or(7);
    let smoke = flags.smoke;
    soteria_pool::ensure_threads(8);

    // Wide detector layers make the persisted state serving-sized, so the
    // measured ratio reflects a real deployment, not a toy file.
    let corpus = Corpus::generate(&CorpusConfig {
        counts: if smoke { [6, 6, 6, 6] } else { [8, 8, 8, 8] },
        seed,
        av_noise: false,
        lineages: 2,
    });
    let split = corpus.split(0.8, seed ^ 0x517);
    let mut config = SoteriaConfig::tiny();
    config.detector.hidden = if smoke {
        [96, 128, 96]
    } else {
        [384, 512, 384]
    };
    config.detector.epochs = 1;
    eprintln!(
        "[artifact-bench] training (detector {:?}, {} samples)...",
        config.detector.hidden,
        corpus.len()
    );
    let trained = Soteria::train(&config, &corpus, &split.train, seed)
        .map_err(|e| format!("artifact-bench: training failed: {e}"))?;

    // Both formats on disk, loaded back through the real cold-start paths.
    let dir = std::env::temp_dir().join(format!(
        "soteria-artifact-bench-{}-{seed}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let json_path = dir.join("state.json");
    let artifact_path = dir.join("state.sot3");
    let state = trained
        .save_state()
        .map_err(|e| format!("artifact-bench: save_state failed: {e}"))?;
    state
        .save_to_path(&json_path)
        .map_err(|e| format!("artifact-bench: v2 save failed: {e}"))?;
    state
        .save_artifact_to_path(&artifact_path)
        .map_err(|e| format!("artifact-bench: v3 save failed: {e}"))?;
    let json_bytes = std::fs::metadata(&json_path)
        .map_err(|e| e.to_string())?
        .len();
    let artifact_bytes = std::fs::metadata(&artifact_path)
        .map_err(|e| e.to_string())?
        .len();

    let iters = if smoke { 5 } else { 15 };
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    };
    let mut json_ms = Vec::with_capacity(iters);
    let mut json_model = None;
    for _ in 0..iters {
        let t = std::time::Instant::now();
        let loaded = Soteria::from_state(
            SoteriaState::load_from_path(&json_path)
                .map_err(|e| format!("artifact-bench: v2 load failed: {e}"))?,
        );
        json_ms.push(t.elapsed().as_secs_f64() * 1e3);
        json_model = Some(loaded);
    }
    let mut artifact_ms = Vec::with_capacity(iters);
    let mut artifact_model = None;
    let mut sections = 0usize;
    for _ in 0..iters {
        let t = std::time::Instant::now();
        let image = StateImage::open(&artifact_path)
            .map_err(|e| format!("artifact-bench: v3 open failed: {e}"))?;
        let loaded = Soteria::load_image(&image)
            .map_err(|e| format!("artifact-bench: v3 load failed: {e}"))?;
        artifact_ms.push(t.elapsed().as_secs_f64() * 1e3);
        sections = image.sections().len();
        artifact_model = Some(loaded);
    }
    let json_cold_ms = median(json_ms);
    let artifact_cold_ms = median(artifact_ms);
    let speedup = json_cold_ms / artifact_cold_ms.max(1e-9);
    let json_model = json_model.expect("iters >= 1");
    let artifact_model = artifact_model.expect("iters >= 1");
    let _ = std::fs::remove_dir_all(&dir);

    // Gate 1: the three systems (trained, JSON-loaded, artifact-loaded)
    // must be verdict-identical, bit for bit.
    let probes: Vec<Vec<u8>> = split
        .test
        .iter()
        .take(4)
        .map(|&i| corpus.samples()[i].binary().to_bytes())
        .collect();
    let baseline_verdicts = probe_verdicts(&trained, &probes, 3_000);
    let verdicts_identical = probe_verdicts(&json_model, &probes, 3_000) == baseline_verdicts
        && probe_verdicts(&artifact_model, &probes, 3_000) == baseline_verdicts;

    // Gate 2: corruption mini-sweep — typed rejection or identical load,
    // never a panic, never a different verdict.
    let corruption_cases = if smoke { 100 } else { 250 };
    let artifact = state
        .to_artifact()
        .map_err(|e| format!("artifact-bench: re-export failed: {e}"))?;
    let injector = soteria_corpus::FaultInjector::new(seed ^ 0xBE2C);
    let mut counts = [0usize; 4];
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for i in 0..corruption_cases {
        let (corrupted, _mutation) = injector.corrupt_artifact(&artifact, i as u64);
        counts[load_outcome(&corrupted, &probes, 3_000, &baseline_verdicts)] += 1;
    }
    std::panic::set_hook(prior_hook);

    let report = ArtifactBenchReport {
        seed,
        smoke,
        json_bytes,
        artifact_bytes,
        sections,
        json_cold_ms,
        artifact_cold_ms,
        speedup,
        verdicts_identical,
        probe_count: probes.len(),
        corruption_cases,
        corruption_rejected: counts[0],
        corruption_loaded_identical: counts[1],
        corruption_diverged: counts[2],
        corruption_panics: counts[3],
    };
    println!(
        "artifact-bench (seed {seed}{}):",
        if smoke { ", smoke" } else { "" }
    );
    println!(
        "  state size      v2 json {:.1} KiB, v3 artifact {:.1} KiB ({sections} sections)",
        json_bytes as f64 / 1024.0,
        artifact_bytes as f64 / 1024.0
    );
    println!(
        "  cold start      v2 json {json_cold_ms:.2} ms, v3 artifact {artifact_cold_ms:.3} ms \
         -> {speedup:.0}x"
    );
    println!("  verdicts        identical: {verdicts_identical}");
    println!(
        "  corruption      {corruption_cases} cases: {} rejected, {} identical, {} diverged, \
         {} panicked",
        counts[0], counts[1], counts[2], counts[3]
    );

    if let Some((_, committed)) = flags.baseline::<ArtifactBenchReport>() {
        let ratio = (report.speedup / committed.speedup.max(1e-9))
            .max(committed.speedup / report.speedup.max(1e-9));
        if ratio > 1.5 {
            eprintln!(
                "note: artifact-bench drift: speedup {:.0}x vs baseline {:.0}x — \
                 wall-clock numbers are hardware-dependent, refresh \
                 results/BENCH_artifact.json if this host is the reference",
                report.speedup, committed.speedup
            );
        }
    }

    flags.write_report("BENCH_artifact.json", &report)?;
    if !verdicts_identical {
        return Err(
            "artifact-bench: JSON-loaded and artifact-loaded systems are NOT \
             verdict-identical — the binary format is not a faithful serialization"
                .to_string(),
        );
    }
    if counts[3] > 0 {
        return Err(format!(
            "artifact-bench: {} corrupted artifacts PANICKED the loader",
            counts[3]
        ));
    }
    if counts[2] > 0 {
        return Err(format!(
            "artifact-bench: {} corrupted artifacts loaded with DIFFERENT verdicts",
            counts[2]
        ));
    }
    Ok(())
}

/// `chaos` — the fault-injection gate. Returns `Err` (nonzero exit) if any
/// corrupted sample failed to produce a verdict, or if any corrupted model
/// artifact panicked the loader or loaded into a model with different
/// verdicts.
fn run_chaos(flags: &Flags) -> Result<(), String> {
    let seed = flags.seed.unwrap_or(42);
    let samples = flags.samples.unwrap_or(500);
    let artifact_cases = flags.artifact_cases.unwrap_or(500);
    let scale = flags.scale.unwrap_or(0.004);

    let (corpus, split, system) = train_tiny("chaos", scale, seed)?;

    // Arm deterministic chaos and silence the panic hook: hundreds of
    // *caught* panics are about to happen on purpose, and the default hook
    // would spray backtraces over the report.
    std::panic::set_hook(Box::new(|_| {}));
    soteria_resilience::set_chaos_seed(Some(seed));

    let injector = soteria_corpus::FaultInjector::new(seed);
    let mut clean = 0usize;
    let mut adversarial = 0usize;
    let mut degraded_by_slug: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    let mut by_mutation: std::collections::BTreeMap<String, [usize; 2]> =
        std::collections::BTreeMap::new();
    let mut verdicts = 0usize;
    for i in 0..samples {
        let base = corpus.samples()[i % corpus.len()].binary().to_bytes();
        let (corrupted, mutation) = injector.corrupt(&base, i as u64);
        let verdict = system.screen_binary(&corrupted, seed.wrapping_add(i as u64));
        verdicts += 1;
        let entry = by_mutation.entry(mutation.to_string()).or_default();
        match &verdict {
            soteria::Verdict::Clean { .. } => {
                clean += 1;
                entry[0] += 1;
            }
            soteria::Verdict::Adversarial { .. } => {
                adversarial += 1;
                entry[0] += 1;
            }
            soteria::Verdict::Degraded { reason } => {
                *degraded_by_slug.entry(reason.slug()).or_default() += 1;
                entry[1] += 1;
            }
        }
    }

    // Phase 2: artifact corruption — the model-loading surface. Chaos is
    // disarmed so corruption alone explains every rejection; the panic
    // hook stays silenced because the phase exists to prove no panic
    // happens (and to avoid backtrace spray if one ever does).
    soteria_resilience::set_chaos_seed(None);
    let artifact = system
        .save_state()
        .map_err(|e| format!("chaos: save_state failed: {e}"))?
        .to_artifact()
        .map_err(|e| format!("chaos: artifact export failed: {e}"))?;
    let probes: Vec<Vec<u8>> = (0..2)
        .map(|i| {
            corpus.samples()[split.test[i % split.test.len()]]
                .binary()
                .to_bytes()
        })
        .collect();
    let baseline_verdicts = {
        let image = StateImage::parse(&artifact).map_err(|e| format!("pristine parse: {e}"))?;
        let m = Soteria::load_image(&image).map_err(|e| format!("pristine load: {e}"))?;
        probe_verdicts(&m, &probes, 7_000)
    };
    // Per mutation kind: [rejected, loaded-identical, diverged, panicked].
    let mut by_artifact_mutation: std::collections::BTreeMap<String, [usize; 4]> =
        std::collections::BTreeMap::new();
    let injector = soteria_corpus::FaultInjector::new(seed ^ 0xA27);
    for i in 0..artifact_cases {
        let (corrupted, mutation) = injector.corrupt_artifact(&artifact, i as u64);
        let outcome = load_outcome(&corrupted, &probes, 7_000, &baseline_verdicts);
        by_artifact_mutation
            .entry(mutation.to_string())
            .or_default()[outcome] += 1;
    }

    // Restore normal panic reporting.
    let _ = std::panic::take_hook();

    let degraded: usize = degraded_by_slug.values().sum();
    println!("chaos (seed {seed}, {samples} corrupted samples):");
    println!("  clean        {clean}");
    println!("  adversarial  {adversarial}");
    println!("  degraded     {degraded}");
    for (slug, n) in &degraded_by_slug {
        println!("    {slug:<16} {n}");
    }
    println!("  by mutation (survived/degraded):");
    for (mutation, [ok, bad]) in &by_mutation {
        println!("    {mutation:<10} {ok:>4} / {bad}");
    }
    let mut artifact_counts = [0usize; 4];
    println!("artifact chaos ({artifact_cases} corrupted artifacts):");
    println!("  by mutation (rejected/identical/diverged/panicked):");
    for (mutation, counts) in &by_artifact_mutation {
        println!(
            "    {mutation:<20} {:>4} / {} / {} / {}",
            counts[0], counts[1], counts[2], counts[3]
        );
        for (total, n) in artifact_counts.iter_mut().zip(counts) {
            *total += n;
        }
    }

    if let Some(path) = &flags.metrics {
        soteria_telemetry::snapshot().write_json(path)?;
        eprintln!("wrote metrics to {}", path.display());
    }

    if verdicts != samples {
        return Err(format!(
            "verdict coverage hole: {verdicts}/{samples} samples produced a verdict"
        ));
    }
    if degraded == 0 {
        return Err(
            "suspicious run: heavy corruption plus armed chaos degraded zero samples \
             (is fault injection wired up?)"
                .to_string(),
        );
    }
    if artifact_counts[3] > 0 {
        return Err(format!(
            "artifact chaos: {} corrupted artifacts PANICKED the loader — corruption \
             must always surface as a typed StateError",
            artifact_counts[3]
        ));
    }
    if artifact_counts[2] > 0 {
        return Err(format!(
            "artifact chaos: {} corrupted artifacts loaded with DIFFERENT verdicts — \
             a checksum hole is letting silent model corruption through",
            artifact_counts[2]
        ));
    }
    if artifact_cases > 0 && artifact_counts[0] == 0 {
        return Err(
            "suspicious run: artifact corruption rejected zero artifacts (is the \
             corruptor wired up?)"
                .to_string(),
        );
    }
    println!(
        "ok: zero aborts, {samples}/{samples} verdicts; artifacts {} rejected, \
         {} identical, 0 diverged, 0 panicked",
        artifact_counts[0], artifact_counts[1]
    );
    Ok(())
}

/// The experiment ids a runner command line names, with `all` and `ext`
/// expanded.
fn experiment_ids(named: &[String]) -> Result<Vec<String>, String> {
    if named.is_empty() {
        return Err(format!("no experiment given\n{}", usage()));
    }
    let mut ids = named.to_vec();
    if ids.iter().any(|e| e == "all") {
        ids = PAPER_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    if ids.iter().any(|e| e == "ext") {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for e in &ids {
        if !ALL_EXPERIMENTS.contains(&e.as_str()) {
            return Err(format!("unknown experiment {e}\n{}", usage()));
        }
    }
    Ok(ids)
}

/// The experiment runner: builds one context and runs each named
/// experiment on it, in order.
fn run_experiments(flags: &Flags) -> Result<(), String> {
    let ids = experiment_ids(&flags.experiments)?;
    let seed = flags.seed.unwrap_or(7);
    let mut config = match flags.preset.as_deref().unwrap_or("standard") {
        "quick" => EvalConfig::quick(seed),
        "standard" => EvalConfig::standard(seed),
        "paper" => EvalConfig::paper(seed),
        other => return Err(format!("unknown preset {other}\n{}", usage())),
    };
    if let Some(scale) = flags.scale {
        config.corpus_scale = scale;
    }

    let mut ctx = {
        let _span = soteria_telemetry::span("exp.context_build");
        ExperimentContext::build(config)
    };
    for id in &ids {
        let output = {
            let _span = soteria_telemetry::span(&format!("exp.{id}"));
            experiments::run(id, &mut ctx)
        };
        println!("{output}");
        if let Some(dir) = &flags.out {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            for (i, table) in output.tables.iter().enumerate() {
                let path = dir.join(format!("{id}_{i}.csv"));
                std::fs::write(&path, table.to_csv())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            // Everything recorded so far in the run, including this
            // experiment's own `exp.<id>` span.
            soteria_telemetry::snapshot().write_json(&dir.join(format!("{id}_metrics.json")))?;
        }
    }

    let report = soteria_telemetry::snapshot();
    if let Some(path) = &flags.metrics {
        report.write_json(path)?;
        eprintln!("wrote metrics to {}", path.display());
    }
    // Context build + every experiment span, read back from telemetry.
    let total_ms: f64 = report
        .spans
        .iter()
        .filter(|s| s.name.starts_with("exp."))
        .map(|s| s.total_ms)
        .sum();
    eprintln!(
        "[soteria-exp] {} experiment(s) finished in {:.1}s",
        ids.len(),
        total_ms / 1e3
    );
    Ok(())
}

/// The command `argv` selects, and the words left for its flags: a
/// command's name first, or else the experiment runner over the whole line.
fn select(argv: &[String]) -> (&'static Command, &[String]) {
    match argv
        .first()
        .and_then(|word| COMMANDS.iter().find(|c| c.name == word))
    {
        Some(command) => (command, &argv[1..]),
        None => (&RUNNER, argv),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        // Requested help is a successful run and belongs on stdout.
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let (command, words) = select(&argv);
    let result = Flags::parse(command, words).and_then(|flags| (command.run)(&flags));
    soteria_telemetry::print_summary_if_requested();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn runner(s: &[&str]) -> Result<(Flags, Vec<String>), String> {
        let flags = Flags::parse(&RUNNER, &argv(s))?;
        let ids = experiment_ids(&flags.experiments)?;
        Ok((flags, ids))
    }

    #[test]
    fn parses_full_command_line() {
        let (f, ids) = runner(&[
            "--preset", "quick", "--seed", "9", "--scale", "0.02", "--out", "/tmp/x", "table4",
            "fig13",
        ])
        .unwrap();
        assert_eq!(f.preset.as_deref(), Some("quick"));
        assert_eq!(f.seed, Some(9));
        assert_eq!(f.scale, Some(0.02));
        assert_eq!(f.out, Some(PathBuf::from("/tmp/x")));
        assert_eq!(ids, vec!["table4", "fig13"]);
    }

    #[test]
    fn parses_metrics_flag() {
        let (f, _) = runner(&["--metrics", "/tmp/m.json", "table4"]).unwrap();
        assert_eq!(f.metrics, Some(PathBuf::from("/tmp/m.json")));
    }

    #[test]
    fn all_expands_to_the_paper_artifacts() {
        let (_, ids) = runner(&["all"]).unwrap();
        assert_eq!(ids.len(), PAPER_EXPERIMENTS.len());
    }

    #[test]
    fn ext_expands_to_every_experiment() {
        let (_, ids) = runner(&["ext"]).unwrap();
        assert_eq!(ids.len(), ALL_EXPERIMENTS.len());
    }

    #[test]
    fn rejects_unknown_experiment() {
        assert!(runner(&["table99"]).is_err());
    }

    #[test]
    fn rejects_empty_command_line() {
        assert!(runner(&[]).is_err());
    }

    /// Every command accepts each flag it lists and rejects every other
    /// flag by name; values fail the same way for every command.
    #[test]
    fn every_command_parses_exactly_its_own_flags() {
        let commands = || COMMANDS.iter().chain([&RUNNER]);
        let specs: Vec<&str> = commands().flat_map(|c| c.flags.iter().copied()).collect();
        for command in commands() {
            assert_eq!(select(&argv(&[command.name])).0.name, command.name);
            for spec in specs.iter().chain(&["--bogus"]) {
                // "3" parses as every kind of value: N, F, DIR, PATH, preset.
                let mut line: Vec<&str> = spec.split(' ').take(1).collect();
                line.extend(spec.contains(' ').then_some("3"));
                match Flags::parse(command, &argv(&line)) {
                    Ok(_) => assert!(command.flags.contains(spec), "{spec} accepted"),
                    Err(e) => assert!(
                        !command.flags.contains(spec)
                            && e.starts_with("unknown ")
                            && e.contains(&format!("flag {}\n", line[0])),
                        "{spec}: {e}"
                    ),
                }
            }
        }
        let (nn, _) = select(&argv(&["nn-bench"]));
        let err = Flags::parse(nn, &argv(&["--scale", "1"])).unwrap_err();
        assert!(err.starts_with("unknown nn-bench flag --scale\n"), "{err}");
        let err = Flags::parse(nn, &argv(&["--seed"])).unwrap_err();
        assert_eq!(err, "--seed needs a value");
        let err = Flags::parse(nn, &argv(&["--seed", "x"])).unwrap_err();
        assert!(err.starts_with("bad seed: "), "{err}");
    }

    #[test]
    fn removed_commands_are_neither_listed_nor_run() {
        for removed in ["bench", "serve-bench", "serve-smoke"] {
            assert!(!usage().contains(&format!("soteria-exp {removed} ")));
            let err = runner(&[removed]).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown experiment {removed}\n")),
                "{err}"
            );
        }
    }
}
