//! The docs stay true to what they cite.
//!
//! 1. Every `soteria-exp <word>` in the docs and scripts names a command or
//!    an experiment id that `soteria-exp --help` lists.
//! 2. Headline numbers equal the committed files they are copied from,
//!    formatted the way the doc prints them.

use serde::{Deserialize, Value};
use std::collections::BTreeSet;
use std::path::Path;

/// A file of the repository, by its path from the root.
fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Command names and experiment ids from the help text: the word after
/// each `soteria-exp`, and the ids on the `experiments:` line.
fn listed_words() -> BTreeSet<String> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_soteria-exp"))
        .arg("--help")
        .output()
        .expect("run soteria-exp --help");
    assert!(out.status.success(), "--help exits 0");
    let help = String::from_utf8(out.stdout).expect("help is UTF-8");
    let commands = help
        .lines()
        .filter_map(|l| l.split("soteria-exp ").nth(1)?.split(' ').next());
    let ids = help
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("experiments:"))
        .flat_map(str::split_whitespace);
    commands
        .chain(ids)
        .filter(|w| !w.starts_with('[') && *w != "|")
        .map(String::from)
        .collect()
}

#[test]
fn every_cited_soteria_exp_word_is_a_listed_command_or_experiment() {
    let listed = listed_words();
    let mut unknown = Vec::new();
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        "scripts/check.sh",
        ".claude/skills/verify/SKILL.md",
    ] {
        for (n, line) in read(doc).lines().enumerate() {
            for (at, _) in line.match_indices("soteria-exp ") {
                let rest = &line[at + "soteria-exp ".len()..];
                // `cargo run --bin soteria-exp -- table4` cites `table4`.
                let rest = rest.strip_prefix("-- ").unwrap_or(rest);
                let word: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                if word.starts_with(|c: char| c.is_ascii_alphabetic()) && !listed.contains(&word) {
                    unknown.push(format!("{doc}:{}: soteria-exp {word}", n + 1));
                }
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "docs cite commands `soteria-exp --help` does not list:\n{}",
        unknown.join("\n")
    );
}

fn json(rel: &str) -> Value {
    serde_json::from_str_value(&read(rel)).unwrap_or_else(|e| panic!("parse {rel}: {e}"))
}

/// The number at `path` (object keys or array indices) inside `v`.
fn num(v: &Value, path: &[&str]) -> f64 {
    let mut at = v;
    for key in path {
        at = match (at, key.parse::<usize>()) {
            (Value::Array(items), Ok(i)) => &items[i],
            _ => at
                .get(key)
                .unwrap_or_else(|| panic!("no {key} in {path:?}")),
        };
    }
    f64::from_value(at).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// The cell of a committed CSV table in the row whose first column is
/// `row`, under the header `column`.
fn csv_cell(rel: &str, row: &str, column: &str) -> String {
    let text = read(rel);
    let mut lines = text.lines().map(|l| l.split(',').collect::<Vec<_>>());
    let header = lines.next().expect("CSV header");
    let col = header
        .iter()
        .position(|h| *h == column)
        .unwrap_or_else(|| panic!("{rel} has no column {column}"));
    let cells = lines
        .find(|cells| cells[0] == row)
        .unwrap_or_else(|| panic!("{rel} has no row {row}"));
    cells[col].to_string()
}

#[test]
fn headline_numbers_match_the_committed_results() {
    let (nn, extract) = (
        json("results/BENCH_nn.json"),
        json("results/BENCH_extract.json"),
    );
    let ext = |key| num(&extract, &[key]);
    let nth = |list, i: usize, key| num(&nn, &[list, &i.to_string(), key]);
    let gemv: Vec<String> = (0..3)
        .map(|i| format!("{:.1}", nth("gemv", i, "gflops")))
        .collect();
    let t4 = |column| csv_cell("results/table4_0.csv", "overall", column);
    let t6 = |column| csv_cell("results/table6_0.csv", "overall", column);
    let t7 = |row| csv_cell("results/table7_0.csv", row, "Overall");
    let (voting, lbl, dbl) = (t7("Soteria voting"), t7("Soteria LBL"), t7("Soteria DBL"));

    let readme = read("README.md");
    let mut cites = vec![
        (
            "README.md",
            format!(
                "GFLOP/s at {} effective thread",
                num(&nn, &["effective_threads"])
            ),
        ),
        ("README.md", format!("({} GFLOP/s", gemv.join(" / "))),
        (
            "README.md",
            format!(
                "reference {:.1} ms vs fast path {:.1} ms",
                ext("reference_ms"),
                ext("fast_ms")
            ),
        ),
        ("README.md", format!("**{:.2}x**", ext("speedup"))),
        (
            "README.md",
            format!(
                "({:.2}x here, within {:.2}x–{:.2}x)",
                ext("speedup"),
                ext("speedup_min"),
                ext("speedup_max")
            ),
        ),
        (
            "README.md",
            format!("(`effective_threads` {})", ext("effective_threads")),
        ),
        (
            "EXPERIMENTS.md",
            format!(
                "**{}** ({}/{})",
                t4("% Detected"),
                t4("# Detected"),
                t4("# AEs")
            ),
        ),
        (
            "EXPERIMENTS.md",
            format!("**{}** ({}/{};", t6("% DE"), t6("# DE"), t6("# Samples")),
        ),
        (
            "EXPERIMENTS.md",
            format!("**Clean FP composition.** {} spread", t6("% DE")),
        ),
        ("EXPERIMENTS.md", format!("**{voting}** (LBL alone {lbl})")),
        (
            "EXPERIMENTS.md",
            format!("voting {voting} ≥ DBL {dbl}; ≈ LBL {lbl}"),
        ),
    ];
    // The SIMD table: each shape's row, after its PR 4 cell, carries the
    // committed GFLOP/s.
    for i in 0..4 {
        let shape = format!(
            "{}×{}×{}",
            nth("matmul", i, "m"),
            nth("matmul", i, "k"),
            nth("matmul", i, "n")
        );
        let row = readme
            .lines()
            .find(|l| l.starts_with(&format!("| {shape} ")))
            .unwrap_or("");
        let before = row.split('|').map(str::trim).nth(2).unwrap_or("");
        cites.push((
            "README.md",
            format!("| {shape} | {before} | {:.1} |", nth("matmul", i, "gflops")),
        ));
    }

    // Docs wrap lines and pad table cells, so compare with every run of
    // whitespace collapsed to one space.
    let collapse = |text: &str| text.split_whitespace().collect::<Vec<_>>().join(" ");
    let stale: Vec<String> = cites
        .iter()
        .filter(|(doc, cite)| !collapse(&read(doc)).contains(&collapse(cite)))
        .map(|(doc, cite)| format!("{doc}: {cite}"))
        .collect();
    assert!(
        stale.is_empty(),
        "docs no longer match the committed results:\n{}",
        stale.join("\n")
    );
}
