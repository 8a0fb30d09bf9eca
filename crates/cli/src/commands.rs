//! CLI subcommand implementations.

use crate::store;
use soteria::{Soteria, SoteriaConfig, SoteriaState, StateImage, TrainCheckpoint, Verdict};
use soteria_attacks::{
    Attack, BlockSplit, GeaAttack, LowDensityInsert, Obfuscate, SubCfgInjection,
};
use soteria_cfg::{density, dot, GraphStats};
use soteria_corpus::{disasm, Corpus, CorpusConfig, Family};
use soteria_gea::SizeClass;
use soteria_serve::{
    protocol, AdmissionConfig, BreakerConfig, RateLimit, ScreeningService, ServeConfig, Submit,
    SubmitOptions,
};
use std::collections::HashMap;
use std::path::PathBuf;

/// Parses `--flag value` pairs plus positional arguments.
fn parse(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if name == "dot" {
                flags.insert("dot".to_string(), "true".to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

/// Honors `--metrics PATH`: writes the telemetry snapshot (counters +
/// span timings for everything the command just did) as pretty JSON.
fn write_metrics_if_requested(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = flags.get("metrics") {
        soteria_telemetry::snapshot().write_json(&PathBuf::from(path))?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

fn flag_u64(flags: &HashMap<String, String>, name: &str, default: u64) -> Result<u64, String> {
    match flags.get(name) {
        Some(v) => v.parse().map_err(|e| format!("bad --{name}: {e}")),
        None => Ok(default),
    }
}

fn flag_f64(flags: &HashMap<String, String>, name: &str, default: f64) -> Result<f64, String> {
    match flags.get(name) {
        Some(v) => v.parse().map_err(|e| format!("bad --{name}: {e}")),
        None => Ok(default),
    }
}

/// `gen --out DIR [--scale F] [--seed N]`
pub fn gen(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(args)?;
    let out = flags.get("out").ok_or("gen needs --out DIR")?;
    let scale = flag_f64(&flags, "scale", 0.01)?;
    let seed = flag_u64(&flags, "seed", 7)?;
    let corpus = Corpus::generate(&CorpusConfig::scaled(scale, seed));
    store::write_corpus(&corpus, &PathBuf::from(out))?;
    let counts = corpus.class_counts();
    println!(
        "wrote {} samples to {out} (benign {}, gafgyt {}, mirai {}, tsunami {})",
        corpus.len(),
        counts[0],
        counts[1],
        counts[2],
        counts[3]
    );
    Ok(())
}

/// `inspect FILE [--dot]`
pub fn inspect(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse(args)?;
    let file = positional.first().ok_or("inspect needs a FILE")?;
    let bytes = std::fs::read(file).map_err(|e| format!("read {file}: {e}"))?;
    let binary = soteria_corpus::Binary::parse(&bytes).map_err(|e| e.to_string())?;
    let lifted = disasm::lift(&binary).map_err(|e| e.to_string())?;
    let (reachable, _) = lifted.cfg.reachable_subgraph();

    if flags.contains_key("dot") {
        print!("{}", dot::to_dot(&lifted.cfg, None));
        return Ok(());
    }

    println!("{file}:");
    println!("  image size        {} bytes", binary.len());
    println!("  entry offset      {:#x}", binary.entry());
    println!("  trailing bytes    {}", binary.trailing().len());
    println!("  blocks (total)    {}", lifted.cfg.node_count());
    println!("  blocks (dead)     {}", lifted.dead_block_count);
    println!("  data ranges       {:?}", lifted.data_ranges);
    println!("  reachable blocks  {}", reachable.node_count());
    println!("  reachable edges   {}", reachable.edge_count());
    println!(
        "  graph density     {:.4}",
        density::graph_density(&reachable)
    );
    let stats = GraphStats::compute(&reachable);
    println!(
        "  shortest paths    min {:.0} / mean {:.2} / max {:.0}",
        stats.shortest_paths.min, stats.shortest_paths.mean, stats.shortest_paths.max
    );
    println!(
        "  degree centrality mean {:.4} / max {:.4}",
        stats.degree_centrality.mean, stats.degree_centrality.max
    );
    Ok(())
}

/// `disasm FILE` — print an assembly listing with block boundaries.
pub fn disassemble(args: &[String]) -> Result<(), String> {
    let (_, positional) = parse(args)?;
    let file = positional.first().ok_or("disasm needs a FILE")?;
    let bytes = std::fs::read(file).map_err(|e| format!("read {file}: {e}"))?;
    let binary = soteria_corpus::Binary::parse(&bytes).map_err(|e| e.to_string())?;
    let lifted = disasm::lift(&binary).map_err(|e| e.to_string())?;
    let reachable = lifted.cfg.reachable();

    // Block starts, for annotation.
    let mut block_at = std::collections::HashMap::new();
    for id in lifted.cfg.block_ids() {
        block_at.insert(lifted.cfg.block(id).address() as u32, id);
    }

    let code = binary.code();
    let mut off = 0u32;
    while (off as usize) < code.len() {
        if let Some(&id) = block_at.get(&off) {
            let tag = if reachable[id.index()] {
                ""
            } else {
                "  ; unreachable"
            };
            println!(
                "
{id}:{tag}"
            );
        }
        // Skip data ranges the lifter marked.
        if let Some(&(_, end)) = lifted
            .data_ranges
            .iter()
            .find(|&&(s, e)| s <= off && off < e)
        {
            println!("  {off:#06x}  .data {} bytes", end - off);
            off = end;
            continue;
        }
        match soteria_corpus::isa::Instruction::decode(code, off as usize) {
            Ok(insn) => {
                println!("  {off:#06x}  {insn}");
                off += insn.encoded_len() as u32;
            }
            Err(_) => {
                println!("  {off:#06x}  .byte {:#04x}", code[off as usize]);
                off += 1;
            }
        }
    }
    Ok(())
}

/// `attack --original FILE --out FILE [--attack KIND] [--target FILE]
///         [--seed N] [--blocks N] [--count N] [--fraction F]`
///
/// Kinds: `gea` (default, needs `--target`), `inject` (reachable sub-CFG,
/// `--blocks`), `inject-dead` (unreachable section, `--blocks`),
/// `lowdensity`, `blocksplit` (`--count`), `obfuscate` (`--fraction`).
/// Model-aware attacks (mimicry, adaptive) need a trained pipeline and
/// live in `soteria-exp robustness-bench`.
pub fn attack(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(args)?;
    let original_path = flags
        .get("original")
        .ok_or("attack needs --original FILE")?;
    let out = flags.get("out").ok_or("attack needs --out FILE")?;
    let kind = flags.get("attack").map(String::as_str).unwrap_or("gea");
    let seed = flag_u64(&flags, "seed", 7)?;

    let original = store::read_binary(
        &PathBuf::from(original_path),
        Family::Benign, // class is irrelevant for crafting
        "original",
    )?;

    let attack: Box<dyn Attack> = match kind {
        "gea" => {
            let target_path = flags
                .get("target")
                .ok_or("attack gea needs --target FILE")?;
            let target = store::read_binary(&PathBuf::from(target_path), Family::Benign, "target")?;
            // The size tag only labels the attack — the whole target embeds
            // regardless, so the crafted bytes equal a direct `gea_merge`.
            Box::new(GeaAttack::new(&target, SizeClass::Medium))
        }
        "inject" => Box::new(SubCfgInjection::reachable(
            flag_u64(&flags, "blocks", 4)? as usize
        )),
        "inject-dead" => Box::new(SubCfgInjection::unreachable(
            flag_u64(&flags, "blocks", 4)? as usize
        )),
        "lowdensity" => Box::new(LowDensityInsert),
        "blocksplit" => Box::new(BlockSplit::new(flag_u64(&flags, "count", 2)? as usize)),
        "obfuscate" => Box::new(Obfuscate::new(flag_f64(&flags, "fraction", 0.3)?)),
        other => {
            return Err(format!(
                "unknown --attack {other} \
                 (gea | inject | inject-dead | lowdensity | blocksplit | obfuscate)"
            ))
        }
    };
    let crafted = attack.craft(&original, seed).map_err(|e| e.to_string())?;
    std::fs::write(out, crafted.sample().binary().to_bytes())
        .map_err(|e| format!("write {out}: {e}"))?;
    let cost = crafted.cost();
    println!(
        "wrote {} example to {out}: {} -> {} blocks (+{} nodes, +{} edges, -{} edges)",
        attack.name(),
        original.graph().node_count(),
        crafted.sample().graph().node_count(),
        cost.nodes_added,
        cost.edges_added,
        cost.edges_removed,
    );
    Ok(())
}

/// Trains a system on a corpus directory (no checkpointing — the
/// `analyze --corpus` path).
fn train_on_dir(corpus_dir: &str, seed: u64) -> Result<Soteria, String> {
    eprintln!("loading corpus from {corpus_dir}...");
    let samples = store::read_samples(&PathBuf::from(corpus_dir))?;
    let corpus = Corpus::from_samples(samples, seed);
    let split = corpus.split(0.8, seed);
    eprintln!("training Soteria on {} samples...", split.train.len());
    let system = Soteria::train(&SoteriaConfig::tiny(), &corpus, &split.train, seed)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "trained (threshold {:.4})",
        system.detector_ref().stats().threshold()
    );
    Ok(system)
}

/// `train --corpus DIR --out MODEL [--seed N] [--metrics PATH]
///        [--checkpoint-every N] [--checkpoint PATH] [--resume PATH]`
///
/// With `--checkpoint-every N` the run snapshots its training state every
/// N epochs of each network fit (to `--checkpoint PATH`, default
/// `OUT.ckpt`, written atomically). `--resume PATH` continues a killed run
/// from its last checkpoint and produces the bit-for-bit identical model
/// an uninterrupted run would have.
pub fn train(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(args)?;
    let corpus_dir = flags.get("corpus").ok_or("train needs --corpus DIR")?;
    let out = flags.get("out").ok_or("train needs --out MODEL")?;
    let seed = flag_u64(&flags, "seed", 7)?;
    let checkpoint_every = flag_u64(&flags, "checkpoint-every", 0)? as usize;
    let ckpt_path = flags
        .get("checkpoint")
        .cloned()
        .unwrap_or_else(|| format!("{out}.ckpt"));

    let resume = match flags.get("resume") {
        Some(path) => {
            let ckpt =
                TrainCheckpoint::load_from_path(&PathBuf::from(path)).map_err(|e| e.to_string())?;
            eprintln!("resuming from checkpoint {path}");
            Some(ckpt)
        }
        None => None,
    };

    eprintln!("loading corpus from {corpus_dir}...");
    let samples = store::read_samples(&PathBuf::from(corpus_dir))?;
    let corpus = Corpus::from_samples(samples, seed);
    let split = corpus.split(0.8, seed);
    eprintln!("training Soteria on {} samples...", split.train.len());

    let train_config = SoteriaConfig::tiny();
    let system = if checkpoint_every > 0 || resume.is_some() {
        let ckpt_file = PathBuf::from(&ckpt_path);
        Soteria::train_resumable(
            &train_config,
            &corpus,
            &split.train,
            seed,
            resume,
            checkpoint_every,
            &mut |ckpt| {
                ckpt.save_to_path(&ckpt_file).map_err(|e| e.to_string())?;
                soteria_telemetry::counter("cli.train.checkpoints", 1);
                Ok(())
            },
        )
        .map_err(|e| e.to_string())?
    } else {
        Soteria::train(&train_config, &corpus, &split.train, seed).map_err(|e| e.to_string())?
    };
    eprintln!(
        "trained (threshold {:.4})",
        system.detector_ref().stats().threshold()
    );
    system
        .save_state()?
        .save_to_path(&PathBuf::from(out))
        .map_err(|e| e.to_string())?;
    println!("wrote model to {out}");
    write_metrics_if_requested(&flags)
}

/// `export-artifact --model STATE --out ARTIFACT`
///
/// Converts a saved model (v2 JSON envelope or an existing v3 artifact)
/// into the `SOTERIA-STATE v3` binary artifact: aligned, checksummed,
/// and loadable by reference — `serve --artifact` and `SWAP` start from
/// it without deserializing a single tensor.
pub fn export_artifact(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(args)?;
    let model = flags
        .get("model")
        .ok_or("export-artifact needs --model STATE")?;
    let out = flags
        .get("out")
        .ok_or("export-artifact needs --out ARTIFACT")?;
    let state = SoteriaState::load_from_path(&PathBuf::from(model)).map_err(|e| e.to_string())?;
    state
        .save_artifact_to_path(&PathBuf::from(out))
        .map_err(|e| e.to_string())?;
    let image = StateImage::open(&PathBuf::from(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote v3 artifact to {out} ({} bytes, {} sections)",
        image.len_bytes(),
        image.sections().len()
    );
    Ok(())
}

/// `swap --connect ADDR --model PATH`
///
/// Sends the in-band `SWAP` admin verb to a serving `--listen` address:
/// the server loads the state file at PATH (a path on the *server's*
/// filesystem — v3 artifact or v2 JSON) and atomically installs it as
/// the serving model without dropping a request. Prints the server's
/// one-line JSON response.
pub fn swap(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    let (flags, _) = parse(args)?;
    let addr = flags.get("connect").ok_or("swap needs --connect ADDR")?;
    let model = flags.get("model").ok_or("swap needs --model PATH")?;
    if model.chars().any(char::is_whitespace) {
        return Err("the line protocol cannot carry paths with whitespace".into());
    }
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    writeln!(stream, "SWAP {model}").map_err(|e| format!("send SWAP: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read {addr}: {e}"))?;
    let line = line.trim();
    if line.is_empty() {
        return Err(format!("no response from {addr}"));
    }
    println!("{line}");
    if line.contains("\"error\"") {
        return Err("server rejected the swap".into());
    }
    Ok(())
}

/// `analyze (--corpus DIR | --model MODEL.json) [--seed N] [--metrics PATH] FILE...`
pub fn analyze(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse(args)?;
    let seed = flag_u64(&flags, "seed", 7)?;
    if positional.is_empty() {
        return Err("analyze needs at least one FILE".into());
    }

    let system = if let Some(model_path) = flags.get("model") {
        let state =
            SoteriaState::load_from_path(&PathBuf::from(model_path)).map_err(|e| e.to_string())?;
        eprintln!("loaded model from {model_path}");
        Soteria::from_state(state)
    } else if let Some(corpus_dir) = flags.get("corpus") {
        train_on_dir(corpus_dir, seed)?
    } else {
        return Err("analyze needs --corpus DIR or --model MODEL.json".into());
    };

    // Read up to the first unreadable file; the files before it still get
    // their verdict lines before the read error ends the command.
    let mut inputs: Vec<Vec<u8>> = Vec::with_capacity(positional.len());
    let mut read_error = None;
    for file in &positional {
        match std::fs::read(file) {
            Ok(bytes) => inputs.push(bytes),
            Err(e) => {
                read_error = Some(format!("read {file}: {e}"));
                break;
            }
        }
    }
    let items: Vec<(&[u8], u64)> = inputs
        .iter()
        .enumerate()
        .map(|(i, bytes)| (bytes.as_slice(), seed ^ (1000 + i as u64)))
        .collect();
    let mut degraded = 0usize;
    for (file, verdict) in positional.iter().zip(system.screen_many_seeded(&items)) {
        match verdict {
            Verdict::Adversarial {
                reconstruction_error,
            } => println!("{file}: ADVERSARIAL (RE {reconstruction_error:.4})"),
            Verdict::Clean {
                family,
                reconstruction_error,
                report,
            } => println!(
                "{file}: {family} (RE {reconstruction_error:.4}, votes {:?})",
                report.votes
            ),
            Verdict::Degraded { reason } => {
                degraded += 1;
                println!("{file}: DEGRADED ({reason})");
            }
        }
    }
    if let Some(e) = read_error {
        return Err(e);
    }
    write_metrics_if_requested(&flags)?;
    if degraded > 0 {
        return Err(format!(
            "{degraded} of {} files could not be analyzed",
            positional.len()
        ));
    }
    Ok(())
}

/// `serve (--corpus DIR | --model MODEL.json) [--seed N] [--workers N]
///        [--queue N] [--cache N] [--batch-window-ms N] [--max-batch N]
///        [--listen ADDR] [--metrics PATH] [--metrics-interval SECS]
///        [--trace F] [--deadline-ms N] [--rate-limit R] [--burst B]
///        [--brownout F] [--reject-threshold F] [--breaker N]`
///
/// Runs the concurrent screening service over a line protocol: each
/// request line is a file path or `hex:`-prefixed bytes, each response
/// line a JSON verdict. Without `--listen` the protocol runs over
/// stdin/stdout (EOF drains and shuts down); with `--listen ADDR` it runs
/// over a TCP accept loop (`quit` closes a connection, `shutdown` stops
/// the server).
///
/// Observability: `--trace F` samples a fraction `F` of requests into
/// per-stage traces (`SOTERIA_TRACE` sets the default), the `METRICS` /
/// `TRACES [n]` / `HEALTH` admin verbs answer in-band on either front
/// end, and `--metrics-interval SECS` rewrites the `--metrics` snapshot
/// file periodically while the service runs.
///
/// Overload hardening (all off by default): `--deadline-ms N` bounds
/// every request's end-to-end latency (expired requests answer a
/// `degraded`/`deadline` verdict), `--rate-limit R` enforces R requests
/// per second per client (TCP connections are distinct clients; `--burst
/// B` sets the bucket size, default R), `--brownout F` and
/// `--reject-threshold F` shed load at the given queue-pressure
/// fractions (brownout answers from the AE detector only), and
/// `--breaker N` opens a circuit after N extraction panics inside its
/// rolling window. Rejected requests answer
/// `{"verdict":"rejected","reason":…[,"retry_after_ms":…]}`.
pub fn serve(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(args)?;
    let seed = flag_u64(&flags, "seed", 7)?;
    let system = if let Some(path) = flags.get("artifact") {
        // Instant start: validate once, then borrow every weight matrix
        // straight out of the mapped buffer — no JSON, no per-tensor
        // copies.
        let load_start = std::time::Instant::now();
        let image = StateImage::open(&PathBuf::from(path)).map_err(|e| e.to_string())?;
        let system = Soteria::load_image(&image).map_err(|e| e.to_string())?;
        eprintln!(
            "mapped artifact {path} ({} bytes, {} sections, zero-copy) in {:.1}ms",
            image.len_bytes(),
            image.sections().len(),
            load_start.elapsed().as_secs_f64() * 1e3
        );
        system
    } else if let Some(model_path) = flags.get("model") {
        let state =
            SoteriaState::load_from_path(&PathBuf::from(model_path)).map_err(|e| e.to_string())?;
        eprintln!("loaded model from {model_path}");
        Soteria::from_state(state)
    } else if let Some(corpus_dir) = flags.get("corpus") {
        train_on_dir(corpus_dir, seed)?
    } else {
        return Err("serve needs --artifact FILE, --corpus DIR, or --model MODEL.json".into());
    };

    // --trace overrides SOTERIA_TRACE, which overrides "off".
    let trace_default = std::env::var("SOTERIA_TRACE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    let trace_sampling = flag_f64(&flags, "trace", trace_default)?;
    if !(0.0..=1.0).contains(&trace_sampling) {
        return Err(format!("--trace wants 0.0..=1.0, got {trace_sampling}"));
    }
    let config = ServeConfig {
        workers: flag_u64(&flags, "workers", 2)? as usize,
        queue_capacity: flag_u64(&flags, "queue", 64)? as usize,
        cache_capacity: flag_u64(&flags, "cache", 1024)? as usize,
        batch_window: std::time::Duration::from_millis(flag_u64(&flags, "batch-window-ms", 2)?),
        max_batch: flag_u64(&flags, "max-batch", 32)? as usize,
        seed,
        trace_sampling,
        admission: admission_from_flags(&flags)?,
        ..ServeConfig::default()
    };
    let service = ScreeningService::start(system, &config);
    let snapshot_writer = start_snapshot_writer(&flags)?;

    if let Some(addr) = flags.get("listen") {
        serve_tcp(&service, addr)?;
    } else {
        serve_stdin(&service)?;
    }

    if let Some((stop, handle)) = snapshot_writer {
        let _ = stop.send(());
        let _ = handle.join();
    }
    let stats = service.stats();
    service.shutdown();
    eprintln!(
        "serve: {} submitted, {} rejected, cache {}/{} hits ({:.0}%)",
        stats.submitted,
        stats.rejected,
        stats.cache.hits,
        stats.cache.lookups,
        stats.cache.hit_rate() * 100.0
    );
    write_metrics_if_requested(&flags)
}

/// Builds the admission config from the overload flags. Every knob
/// defaults to disabled, so a flagless `serve` behaves exactly as it did
/// before admission control existed.
fn admission_from_flags(flags: &HashMap<String, String>) -> Result<AdmissionConfig, String> {
    let deadline_ms = flag_u64(flags, "deadline-ms", 0)?;
    let rate = flag_f64(flags, "rate-limit", 0.0)?;
    let burst = flag_f64(flags, "burst", rate)?;
    let brownout = flag_f64(flags, "brownout", -1.0)?;
    let reject = flag_f64(flags, "reject-threshold", -1.0)?;
    let breaker_faults = flag_u64(flags, "breaker", 0)?;
    if rate < 0.0 || burst < 0.0 {
        return Err("--rate-limit and --burst must be non-negative".into());
    }
    for (name, v) in [("brownout", brownout), ("reject-threshold", reject)] {
        if v > 1.0 {
            return Err(format!(
                "--{name} is a fraction of queue capacity (0.0..=1.0)"
            ));
        }
    }
    Ok(AdmissionConfig {
        default_deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        rate_limit: (rate > 0.0).then_some(RateLimit {
            rate_per_sec: rate,
            burst: burst.max(1.0),
        }),
        brownout_threshold: (brownout >= 0.0).then_some(brownout),
        reject_threshold: (reject >= 0.0).then_some(reject),
        breaker: (breaker_faults > 0).then_some(BreakerConfig {
            fault_threshold: breaker_faults as u32,
            ..BreakerConfig::default()
        }),
    })
}

/// Honors `--metrics-interval SECS` (requires `--metrics PATH`): spawns a
/// thread that rewrites the snapshot file every interval until told to
/// stop, so a running service can be inspected without admin access.
/// The write is best-effort — an unwritable path must not kill serving.
#[allow(clippy::type_complexity)]
fn start_snapshot_writer(
    flags: &HashMap<String, String>,
) -> Result<Option<(std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>)>, String> {
    let interval = flag_u64(flags, "metrics-interval", 0)?;
    if interval == 0 {
        return Ok(None);
    }
    let path = flags
        .get("metrics")
        .cloned()
        .ok_or("--metrics-interval needs --metrics PATH")?;
    let interval = std::time::Duration::from_secs(interval);
    let telemetry = soteria_telemetry::RegistryHandle::current();
    let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
    let handle = std::thread::Builder::new()
        .name("soteria-metrics-writer".to_owned())
        .spawn(move || {
            let _telemetry = telemetry.attach();
            let path = PathBuf::from(path);
            while stop_rx.recv_timeout(interval).is_err() {
                if let Err(e) = soteria_telemetry::snapshot().write_json(&path) {
                    eprintln!("metrics writer: {e}");
                }
            }
        })
        .map_err(|e| format!("spawn metrics writer: {e}"))?;
    Ok(Some((stop_tx, handle)))
}

/// `metrics (--file PATH | --connect ADDR)`
///
/// Renders a telemetry snapshot as the human-readable summary table:
/// either a JSON file written by `--metrics` / `--metrics-interval`, or
/// the live `METRICS` exposition fetched from a serving `--listen`
/// address.
pub fn metrics(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse(args)?;
    let report = if let Some(path) = flags.get("file") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str::<soteria_telemetry::MetricsReport>(&text)
            .map_err(|e| format!("parse {path}: {e}"))?
    } else if let Some(addr) = flags.get("connect") {
        fetch_metrics(addr)?
    } else {
        return Err("metrics needs --file PATH or --connect ADDR".into());
    };
    print!("{}", report.summary_table());
    Ok(())
}

/// Fetches the `METRICS` text exposition from a serving TCP address and
/// parses it back into a report.
fn fetch_metrics(addr: &str) -> Result<soteria_telemetry::MetricsReport, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(b"METRICS\n")
        .map_err(|e| format!("send METRICS: {e}"))?;
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut text = String::new();
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read {addr}: {e}"))?;
        if line.trim() == "# EOF" {
            break;
        }
        text.push_str(&line);
        text.push('\n');
    }
    soteria_telemetry::MetricsReport::parse_text(&text)
}

/// Resolves one request line to one response (`None` for blank lines,
/// which are ignored). Admin verbs (`METRICS`, `TRACES`, `HEALTH`) answer
/// from live telemetry; anything else is a screening request that answers
/// with one JSON verdict line. `client` identifies the submitter for
/// per-client rate limiting (each TCP connection gets its own id; stdin
/// is one client).
fn serve_line(service: &ScreeningService, line: &str, client: Option<u64>) -> Option<String> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    if let Some(response) = soteria_serve::handle_admin(service, line) {
        return Some(response);
    }
    let bytes = if let Some(hex) = line.strip_prefix("hex:") {
        match protocol::parse_hex(hex) {
            Some(bytes) => bytes,
            None => {
                return Some(format!(
                    "{{\"error\":\"bad hex: {}\"}}",
                    protocol::escape_json(line)
                ))
            }
        }
    } else {
        match std::fs::read(line) {
            Ok(bytes) => bytes,
            Err(e) => {
                return Some(format!(
                    "{{\"error\":\"read {}: {}\"}}",
                    protocol::escape_json(line),
                    protocol::escape_json(&e.to_string())
                ))
            }
        }
    };
    let options = SubmitOptions {
        client,
        ..SubmitOptions::default()
    };
    Some(match service.submit_with(bytes, options) {
        Submit::Accepted(ticket) => protocol::verdict_json(&ticket.wait()),
        Submit::Rejected {
            reason,
            retry_after,
        } => protocol::reject_json(reason, retry_after),
    })
}

/// stdin/stdout front end: one request line in, one JSON line out.
fn serve_stdin(service: &ScreeningService) -> Result<(), String> {
    use std::io::BufRead;
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("read stdin: {e}"))?;
        if let Some(response) = serve_line(service, &line, None) {
            println!("{response}");
        }
    }
    Ok(())
}

/// TCP front end: same line protocol per connection, connections handled
/// in accept order (the concurrency lives inside the service).
fn serve_tcp(service: &ScreeningService, addr: &str) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    eprintln!("listening on {local}");
    let mut next_client = 0u64;
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("accept: {e}");
                continue;
            }
        };
        next_client += 1;
        let client = Some(next_client);
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        let mut writer = stream;
        for line in reader.lines() {
            let Ok(line) = line else { break };
            match line.trim() {
                "quit" => break,
                "shutdown" => return Ok(()),
                _ => {}
            }
            if let Some(response) = serve_line(service, &line, client) {
                if writeln!(writer, "{response}").is_err() {
                    break;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_splits_flags_and_positionals() {
        let (flags, pos) =
            parse(&argv(&["--out", "/tmp/x", "file1", "--seed", "9", "file2"])).unwrap();
        assert_eq!(flags.get("out").unwrap(), "/tmp/x");
        assert_eq!(flags.get("seed").unwrap(), "9");
        assert_eq!(pos, vec!["file1", "file2"]);
    }

    #[test]
    fn parse_handles_bare_dot_flag() {
        let (flags, pos) = parse(&argv(&["file", "--dot"])).unwrap();
        assert!(flags.contains_key("dot"));
        assert_eq!(pos, vec!["file"]);
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        assert!(parse(&argv(&["--out"])).is_err());
    }

    #[test]
    fn gen_requires_out() {
        assert!(gen(&argv(&["--seed", "3"])).is_err());
    }

    #[test]
    fn inspect_requires_file() {
        assert!(inspect(&[]).is_err());
    }

    #[test]
    fn gen_and_inspect_round_trip() {
        let dir = std::env::temp_dir().join(format!("soteria-cli-gen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        gen(&argv(&[
            "--out",
            dir.to_str().unwrap(),
            "--scale",
            "0.0001",
            "--seed",
            "3",
        ]))
        .unwrap();
        // Inspect the first generated file.
        let manifest: crate::store::Manifest = serde_json::from_str(
            &std::fs::read_to_string(dir.join(crate::store::MANIFEST)).unwrap(),
        )
        .unwrap();
        let first = dir.join(&manifest.entries[0].file);
        inspect(&argv(&[first.to_str().unwrap()])).unwrap();
        inspect(&argv(&[first.to_str().unwrap(), "--dot"])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attack_round_trip_produces_merged_binary() {
        let dir = std::env::temp_dir().join(format!("soteria-cli-att-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        gen(&argv(&[
            "--out",
            dir.to_str().unwrap(),
            "--scale",
            "0.0001",
            "--seed",
            "4",
        ]))
        .unwrap();
        let manifest: crate::store::Manifest = serde_json::from_str(
            &std::fs::read_to_string(dir.join(crate::store::MANIFEST)).unwrap(),
        )
        .unwrap();
        let a = dir.join(&manifest.entries[0].file);
        let b = dir.join(&manifest.entries[1].file);
        let out = dir.join("merged.sotb");
        attack(&argv(&[
            "--original",
            a.to_str().unwrap(),
            "--target",
            b.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        // The merged binary lifts and is bigger than either input.
        let merged = crate::store::read_binary(&out, Family::Benign, "m").unwrap();
        let ga = crate::store::read_binary(&a, Family::Benign, "a").unwrap();
        assert!(merged.graph().node_count() > ga.graph().node_count());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
