//! The docs cite only what `soteria-cli` accepts: every `soteria-cli
//! <command>` in the docs and scripts names a command `soteria-cli --help`
//! lists, and every `--flag` after it on that line is a flag the help text
//! names.

use std::collections::BTreeSet;
use std::path::Path;

/// A file of the repository, by its path from the root.
fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// The `--flag` words of `text`, without their values.
fn flags(text: &str) -> impl Iterator<Item = String> + '_ {
    text.match_indices("--").filter_map(|(at, _)| {
        let name: String = text[at + 2..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
            .collect();
        let starts_word =
            at == 0 || text[..at].ends_with(|c: char| !c.is_ascii_alphanumeric() && c != '-');
        (starts_word && name.starts_with(|c: char| c.is_ascii_alphabetic()))
            .then(|| format!("--{name}"))
    })
}

/// The help text's command names (the word after each `soteria-cli`) and
/// flags. `--help` itself counts: it is how the list was fetched.
fn listed() -> (BTreeSet<String>, BTreeSet<String>) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_soteria-cli"))
        .arg("--help")
        .output()
        .expect("run soteria-cli --help");
    assert!(out.status.success(), "--help exits 0");
    let help = String::from_utf8(out.stdout).expect("help is UTF-8");
    let commands = help
        .lines()
        .filter_map(|l| l.split("soteria-cli ").nth(1)?.split(' ').next())
        .map(String::from)
        .collect();
    let mut flag_set: BTreeSet<String> = flags(&help).collect();
    flag_set.insert("--help".to_string());
    (commands, flag_set)
}

#[test]
fn every_cited_soteria_cli_command_and_flag_is_listed() {
    let (commands, listed_flags) = listed();
    let mut unknown = Vec::new();
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "scripts/check.sh",
        ".claude/skills/verify/SKILL.md",
    ] {
        for (n, line) in read(doc).lines().enumerate() {
            for (at, _) in line.match_indices("soteria-cli ") {
                let rest = &line[at + "soteria-cli ".len()..];
                let word: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                let cites = |what: &str| format!("{doc}:{}: soteria-cli {what}", n + 1);
                if word.starts_with(|c: char| c.is_ascii_alphabetic()) && !commands.contains(&word)
                {
                    unknown.push(cites(&word));
                }
                for flag in flags(rest).filter(|f| !listed_flags.contains(f)) {
                    unknown.push(cites(&format!("{word} … {flag}")));
                }
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "docs cite commands or flags `soteria-cli --help` does not list:\n{}",
        unknown.join("\n")
    );
}
