//! `soteria-cli` — work with SotVM binaries from the command line.
//!
//! ```text
//! soteria-cli gen --out DIR [--scale F] [--seed N]      generate a corpus to disk
//! soteria-cli inspect FILE [--dot]                      lift a binary, print CFG facts
//! soteria-cli disasm FILE                               print an assembly listing
//! soteria-cli attack --original FILE --out FILE [--attack KIND] [--target FILE]
//!                                                       craft an adversarial example
//! soteria-cli train --corpus DIR --out MODEL [--seed N]
//!                   [--checkpoint-every N] [--checkpoint PATH] [--resume PATH]
//!                                                       train and save a system
//! soteria-cli analyze --model MODEL [--seed N] FILE...  screen files with a system
//! soteria-cli serve --model MODEL [--listen ADDR] [--trace F]
//!                                                       run the screening service
//! soteria-cli swap --connect ADDR --model MODEL         hot-swap a serving model
//! soteria-cli metrics (--file PATH | --connect ADDR)    render a telemetry snapshot
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod commands;
mod store;

use std::process::ExitCode;

fn usage() -> &'static str {
    "usage:\n  soteria-cli gen --out DIR [--scale F] [--seed N]\n  \
     soteria-cli inspect FILE [--dot]\n  \
     soteria-cli disasm FILE\n  \
     soteria-cli attack --original FILE --out FILE [--attack KIND] [--target FILE]\n    \
     [--seed N] [--blocks N] [--count N] [--fraction F]\n    \
     KIND: gea (default, needs --target) | inject | inject-dead |\n    \
     lowdensity | blocksplit | obfuscate\n  \
     soteria-cli train --corpus DIR --out MODEL [--seed N] [--metrics PATH]\n    \
     [--checkpoint-every N] [--checkpoint PATH] [--resume PATH]\n  \
     soteria-cli analyze --model MODEL [--seed N] [--metrics PATH] FILE...\n  \
     soteria-cli serve --model MODEL [--seed N]\n    \
     [--workers N] [--queue N] [--cache N] [--batch-window-ms N] [--max-batch N]\n    \
     [--listen ADDR] [--metrics PATH]\n    \
     [--metrics-interval SECS] [--trace F] [--deadline-ms N] [--rate-limit R] [--burst B]\n    \
     [--brownout F] [--reject-threshold F] [--breaker N]\n  \
     soteria-cli swap --connect ADDR --model MODEL\n  \
     soteria-cli metrics (--file PATH | --connect ADDR)\n\n\
     serve reads one request per line (a file path, or hex:<bytes>) and answers\n  \
     with one JSON verdict per line; without --listen the protocol runs on\n  \
     stdin/stdout, with --listen ADDR over TCP (quit ends a connection,\n  \
     shutdown stops the server). Verdicts are cached by content and screened\n  \
     in micro-batches; identical content always gets the identical verdict.\n  \
     The METRICS [json], TRACES [n], HEALTH, and SWAP <path> admin verbs answer\n  \
     in-band on either front end; --trace F samples that fraction of requests\n  \
     into per-stage traces (SOTERIA_TRACE=F sets the default). Tracing never\n  \
     changes a verdict.\n\n\
     A MODEL file is the SOTERIA-STATE v3 artifact train --out writes:\n  \
     aligned and checksummed; loading it is one read, a CRC pass, and one\n  \
     copy of each tensor, with no number parsed from text. SWAP <path> (or\n  \
     soteria-cli swap --connect ADDR --model MODEL) hot-swaps the serving\n  \
     model from such a file without dropping a request.\n\n\
     Overload hardening (all off by default): --deadline-ms bounds each\n  \
     request's end-to-end latency, --rate-limit R (with --burst B) caps each\n  \
     client's request rate, --brownout F degrades to AE-only screening and\n  \
     --reject-threshold F sheds load at those queue-pressure fractions, and\n  \
     --breaker N opens a circuit after N extraction panics. Shed requests\n  \
     answer {\"verdict\":\"rejected\",\"reason\":...,\"retry_after_ms\":...}.\n\n\
     --checkpoint-every N snapshots training state every N epochs (atomic,\n  \
     crash-safe); --resume PATH continues a killed run bit-for-bit.\n  \
     --metrics PATH writes a telemetry snapshot (counters + span timings) as\n  \
     JSON; --metrics-interval SECS rewrites it periodically while serving.\n  \
     metrics renders such a snapshot (or a live METRICS response fetched\n  \
     from a serving --listen address) as a summary table.\n  \
     SOTERIA_METRICS=summary prints a timing summary table to stderr on exit."
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => commands::gen(&args[1..]),
        Some("inspect") => commands::inspect(&args[1..]),
        Some("disasm") => commands::disassemble(&args[1..]),
        Some("attack") => commands::attack(&args[1..]),
        Some("train") => commands::train(&args[1..]),
        Some("analyze") => commands::analyze(&args[1..]),
        Some("serve") => commands::serve(&args[1..]),
        Some("swap") => commands::swap(&args[1..]),
        Some("metrics") => commands::metrics(&args[1..]),
        Some("--help") | Some("-h") => {
            // An explicitly requested help text is a successful run and
            // belongs on stdout (so `soteria-cli --help | less` works).
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        None => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
        Some(other) => Err(format!("unknown command {other}\n{}", usage())),
    };
    soteria_telemetry::print_summary_if_requested();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
